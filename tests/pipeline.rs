//! Cross-crate integration tests: generation → compilation → differential
//! testing → aggregation, exercised through the public APIs only.

use llm4fp_suite::compiler::{compile, CompilerConfig, CompilerId, Frontend, OptLevel};
use llm4fp_suite::core::{ApproachKind, Campaign, CampaignConfig};
use llm4fp_suite::difftest::{DiffTester, ExecEngine, Outcome, ValueClass};
use llm4fp_suite::fpir::{
    parse_compute, program_hash, to_compute_source, validate, InputSet, InputValue,
};
use llm4fp_suite::generator::{
    InputGenerator, LlmClient, PromptBuilder, SimulatedLlm, VarityGenerator,
};

/// A generated program survives the full round trip: print → parse →
/// validate → compile under every configuration → execute.
#[test]
fn generated_programs_flow_through_the_entire_pipeline() {
    let mut llm = SimulatedLlm::new(404);
    let prompts = PromptBuilder::new(Default::default());
    let mut inputs = InputGenerator::new(405);
    for _ in 0..10 {
        let source = llm.generate(&prompts.grammar_based()).source;
        let program = parse_compute(&source).expect("LLM output parses");
        assert!(validate(&program).is_empty());
        let reprinted = to_compute_source(&program);
        let reparsed = parse_compute(&reprinted).unwrap();
        assert_eq!(to_compute_source(&reparsed), reprinted, "printer/parser fixpoint");

        let input_set = inputs.generate(&program);
        for config in [
            CompilerConfig::new(CompilerId::Gcc, OptLevel::O0Nofma),
            CompilerConfig::new(CompilerId::Clang, OptLevel::O2),
            CompilerConfig::new(CompilerId::Nvcc, OptLevel::O3Fastmath),
        ] {
            let artifact = compile(&program, config).expect("valid programs compile");
            artifact.execute(&input_set).expect("generated programs execute");
        }
    }
}

/// The matrix runs one artifact per distinct execution, and that is
/// invisible in its results: over the programs of all four approaches
/// (seed 42), every configuration's outcome on both engines is what its
/// own artifact gives, sealed alone (`Frontend::seal`) or, where sealing
/// refuses, specialized and interpreted.
#[test]
fn each_configuration_gets_its_own_artifacts_outcome() {
    let matrix = CompilerConfig::full_matrix();
    let testers = [DiffTester::new(), DiffTester::new().with_engine(ExecEngine::Reference)];
    let mut programs = 0;
    for approach in ApproachKind::ALL {
        let config = CampaignConfig::new(approach).with_budget(64).with_seed(42);
        for source in Campaign::new(config).run().sources {
            let program = parse_compute(&source).expect("campaign sources parse");
            let inputs = InputGenerator::new(42 ^ program_hash(&program)).generate(&program);
            let expected: Vec<Outcome> = match Frontend::new(&program) {
                Err(e) => vec![Outcome::CompileFail { reason: e.to_string() }; matrix.len()],
                Ok(frontend) => matrix
                    .iter()
                    .map(|&config| {
                        let result = match frontend.seal(config) {
                            Ok(sealed) => sealed.execute(&inputs),
                            Err(_) => frontend.specialize(config).execute(&inputs),
                        };
                        match result {
                            Ok(r) => Outcome::Ok { value: r.value, bits: r.bits() },
                            Err(e) => Outcome::ExecFail { reason: e.to_string() },
                        }
                    })
                    .collect(),
            };
            for tester in &testers {
                let result = tester.run(&program, &inputs);
                assert_eq!(result.outcomes.len(), matrix.len());
                for (got, want) in result.outcomes.iter().zip(&expected) {
                    // By bits: a NaN value is unequal to itself.
                    let same = match (&got.outcome, want) {
                        (Outcome::Ok { bits: a, .. }, Outcome::Ok { bits: b, .. }) => a == b,
                        (a, b) => a == b,
                    };
                    assert!(same, "{}: {:?} vs {want:?} of {source}", got.config, got.outcome);
                }
            }
            programs += 1;
        }
    }
    assert!(programs >= 200, "only {programs} programs reached the matrix");
}

/// The strict (O0_nofma) host configurations form a consistent reference:
/// identical results for pure-arithmetic programs across compilers.
#[test]
fn strict_level_is_a_stable_reference_point() {
    let mut varity = VarityGenerator::new(777);
    let mut inputs = InputGenerator::new(778);
    let mut checked = 0;
    for _ in 0..20 {
        let program = varity.generate();
        if program.math_call_count() > 0 {
            continue; // math calls legitimately differ between host and device
        }
        let input_set = inputs.generate(&program);
        let gcc = compile(&program, CompilerConfig::new(CompilerId::Gcc, OptLevel::O0Nofma))
            .unwrap()
            .execute(&input_set);
        let clang = compile(&program, CompilerConfig::new(CompilerId::Clang, OptLevel::O0Nofma))
            .unwrap()
            .execute(&input_set);
        if let (Ok(a), Ok(b)) = (gcc, clang) {
            assert_eq!(a.bits(), b.bits(), "{}", to_compute_source(&program));
            checked += 1;
        }
    }
    assert!(checked > 0, "at least one pure-arithmetic program must be compared");
}

/// Host-vs-device differential testing finds the classic FMA contraction
/// difference and classifies it as a {Real, Real} inconsistency.
#[test]
fn difftest_detects_and_classifies_fma_contraction() {
    let program =
        parse_compute("void compute(double x, double y, double z) { comp = x * y + z; }").unwrap();
    let x = 1.0 + 2f64.powi(-29);
    let inputs = InputSet::new()
        .with("x", InputValue::Fp(x))
        .with("y", InputValue::Fp(x))
        .with("z", InputValue::Fp(-1.0));
    let result = DiffTester::new().run(&program, &inputs);
    assert!(result.triggered_inconsistency());
    assert!(result
        .records
        .iter()
        .all(|r| r.class_a == ValueClass::Real && r.class_b == ValueClass::Real));
    // The strict level never participates: both sides use no FMA there.
    assert!(result.records.iter().all(|r| r.level != OptLevel::O0Nofma));
}

/// A full mini-campaign reproduces the paper's headline ordering (RQ1) and
/// its host-vs-device structure (RQ3) at reduced scale.
#[test]
fn mini_campaigns_reproduce_the_headline_orderings() {
    let run = |approach| {
        Campaign::new(CampaignConfig::new(approach).with_budget(50).with_seed(99).with_threads(4))
            .run()
    };
    let varity = run(ApproachKind::Varity);
    let llm4fp = run(ApproachKind::Llm4Fp);

    // RQ1: LLM4FP detects more inconsistencies than Varity.
    assert!(llm4fp.inconsistencies() > varity.inconsistencies());
    assert!(llm4fp.inconsistency_rate() > varity.inconsistency_rate());

    // RQ2: the dominant LLM4FP kind is {Real, Real}.
    let real_real =
        llm4fp_suite::difftest::InconsistencyKind::new(ValueClass::Real, ValueClass::Real);
    assert!(llm4fp.aggregates.kinds.fraction(real_real) > 0.5);

    // RQ3: host-device pairs are more inconsistent than the host-host pair.
    let programs = llm4fp.aggregates.programs;
    let levels = llm4fp.config.levels.len();
    let hh = llm4fp.aggregates.pair_level.pair_rate(
        (CompilerId::Gcc, CompilerId::Clang),
        programs,
        levels,
    );
    let hd = llm4fp.aggregates.pair_level.pair_rate(
        (CompilerId::Gcc, CompilerId::Nvcc),
        programs,
        levels,
    );
    assert!(hd > hh, "host-device {hd} should exceed host-host {hh}");

    // RQ4: O3_fastmath diverges from O0_nofma more than O1 does, for gcc.
    let o1 = llm4fp.aggregates.vs_baseline.rate(CompilerId::Gcc, OptLevel::O1, programs);
    let fast = llm4fp.aggregates.vs_baseline.rate(CompilerId::Gcc, OptLevel::O3Fastmath, programs);
    assert!(fast >= o1);
}

/// Feedback mutation reuses programs from the successful set and produces
/// different-but-valid variants.
#[test]
fn feedback_loop_reuses_successful_programs() {
    let result = Campaign::new(
        CampaignConfig::new(ApproachKind::Llm4Fp).with_budget(40).with_seed(5).with_threads(4),
    )
    .run();
    assert!(!result.successful_sources.is_empty());
    let feedback_count =
        result.records.iter().filter(|r| r.strategy == "feedback-mutation").count();
    let grammar_count = result.records.iter().filter(|r| r.strategy == "grammar-based").count();
    assert!(feedback_count > 0, "the feedback strategy must be exercised");
    assert!(grammar_count > 0, "grammar-based generation must still occur (p = 0.3)");
    // Roughly 70% of post-warmup generations should be feedback-based; allow
    // a wide tolerance for the small budget.
    assert!(feedback_count > grammar_count / 2);
}
