//! Property-based tests (proptest) over the core invariants of the
//! reproduction: printer/parser round trips, interpreter determinism,
//! comparison/classification laws, math-library accuracy bounds,
//! CodeBLEU bounds, and the successful-set merge algebra the
//! orchestrator's cross-shard feedback exchange relies on.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;

use llm4fp_suite::compiler::interp::DEFAULT_FUEL;
use llm4fp_suite::compiler::{
    compile, CompilerConfig, CompilerId, ExecScratch, Frontend, OptLevel,
};
use llm4fp_suite::core::SuccessfulSet;
use llm4fp_suite::difftest::{classify, digit_difference, ValueClass};
use llm4fp_suite::fpir::{parse_compute, to_compute_source, validate, Precision};
use llm4fp_suite::generator::{
    InputGenerator, LlmClient, PromptBuilder, SimulatedLlm, VarityGenerator,
};
use llm4fp_suite::mathlib::{ulp_distance, DeviceMathLib, FastMathLib, HostLibm, MathLib};
use llm4fp_suite::metrics::{average_pairwise_codebleu, codebleu, sampled_pairs, CodeBleuWeights};

/// Build three small successful sets from one seed, drawing sources from
/// an eight-program alphabet so cross-set structural duplicates are the
/// norm rather than the exception (the regime the exchange barrier's
/// dedup actually operates in).
fn three_sets(seed: u64) -> (SuccessfulSet, SuccessfulSet, SuccessfulSet) {
    let alphabet: Vec<String> = (0..8)
        .map(|i| format!("void compute(double x) {{ comp = x * {i}.5 + sin(x / {i}.25); }}"))
        .collect();
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let mut make = |max_len: usize| {
        let mut set = SuccessfulSet::new();
        for _ in 0..next() % (max_len + 1) {
            set.insert(&alphabet[next() % alphabet.len()]);
        }
        set
    };
    (make(6), make(6), make(6))
}

/// The structural-hash multiset of a successful set, order-insensitive.
fn hash_set_of(set: &SuccessfulSet) -> Vec<u64> {
    let mut hashes: Vec<u64> =
        set.sources().iter().map(|s| llm4fp_suite::fpir::source_hash(s)).collect();
    hashes.sort_unstable();
    hashes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every Varity-generated program is valid, and printing → parsing →
    /// printing is a fixpoint of the source text.
    #[test]
    fn varity_programs_round_trip_through_printer_and_parser(seed in 0u64..5_000) {
        let program = VarityGenerator::new(seed).generate();
        prop_assert!(validate(&program).is_empty());
        let printed = to_compute_source(&program);
        let reparsed = parse_compute(&printed).unwrap();
        prop_assert!(validate(&reparsed).is_empty());
        prop_assert_eq!(to_compute_source(&reparsed), printed);
    }

    /// The simulated LLM's responses cross the same text layer: a
    /// grammar-guided response and three generations of feedback mutants
    /// built from it each parse to a valid program whose canonical print
    /// is the response text itself, so print → parse → print is a
    /// fixpoint on LLM4FP programs too.
    #[test]
    fn llm_programs_round_trip_through_printer_and_parser(seed in 0u64..5_000, f32 in any::<bool>()) {
        let precision = if f32 { Precision::F32 } else { Precision::F64 };
        let prompts = PromptBuilder::new(precision);
        let mut llm = SimulatedLlm::new(seed);
        let mut source = llm.generate(&prompts.grammar_based()).source;
        for _ in 0..4 {
            let program = parse_compute(&source).unwrap();
            prop_assert!(validate(&program).is_empty(), "{}", source);
            prop_assert_eq!(program.precision, precision);
            prop_assert_eq!(&to_compute_source(&program), &source);
            source = llm.generate(&prompts.feedback_mutation(&source)).source;
        }
    }

    /// Virtual execution is deterministic: compiling and running the same
    /// program twice under the same configuration yields identical bits, and
    /// the strict configuration agrees across host compilers for programs
    /// without math calls.
    #[test]
    fn virtual_execution_is_deterministic(seed in 0u64..2_000, cfg_index in 0usize..18) {
        let program = VarityGenerator::new(seed).generate();
        let inputs = InputGenerator::new(seed ^ 0xabcd).generate(&program);
        let config = CompilerConfig::full_matrix()[cfg_index];
        let a = compile(&program, config).unwrap().execute(&inputs);
        let b = compile(&program, config).unwrap().execute(&inputs);
        match (a, b) {
            (Ok(x), Ok(y)) => prop_assert_eq!(x.bits(), y.bits()),
            (Err(x), Err(y)) => prop_assert_eq!(format!("{x}"), format!("{y}")),
            (x, y) => prop_assert!(false, "nondeterministic outcome: {x:?} vs {y:?}"),
        }
    }

    /// Value classification is total and consistent with IEEE predicates.
    #[test]
    fn classification_matches_ieee_predicates(bits in any::<u64>()) {
        let v = f64::from_bits(bits);
        let class = classify(v);
        match class {
            ValueClass::NaN => prop_assert!(v.is_nan()),
            ValueClass::PosInf => prop_assert!(v.is_infinite() && v > 0.0),
            ValueClass::NegInf => prop_assert!(v.is_infinite() && v < 0.0),
            ValueClass::Zero => prop_assert!(v == 0.0),
            ValueClass::Real => prop_assert!(v.is_finite() && v != 0.0),
        }
    }

    /// Digit differences are symmetric, bounded by the precision width, and
    /// zero exactly for identical bit patterns.
    #[test]
    fn digit_difference_laws(a in any::<u64>(), b in any::<u64>()) {
        let d64 = digit_difference(a, b, Precision::F64);
        prop_assert_eq!(d64, digit_difference(b, a, Precision::F64));
        prop_assert!(d64 <= 16);
        prop_assert_eq!(d64 == 0, a == b);
        let d32 = digit_difference(a, b, Precision::F32);
        prop_assert!(d32 <= 8);
        prop_assert!(d32 <= d64);
    }

    /// ULP distance is symmetric and zero only for equal values (treating
    /// +0 and −0 as equal).
    #[test]
    fn ulp_distance_laws(a in -1.0e300f64..1.0e300, b in -1.0e300f64..1.0e300) {
        prop_assert_eq!(ulp_distance(a, b), ulp_distance(b, a));
        prop_assert_eq!(ulp_distance(a, a), 0);
        if ulp_distance(a, b) == 0 {
            prop_assert_eq!(a, b);
        }
    }

    /// The device library stays within a few ULP of the host library on the
    /// ranges generated programs exercise; the fast-math library stays within
    /// a coarse relative tolerance but is allowed to be much farther off.
    #[test]
    fn device_and_fast_math_accuracy_bounds(x in -300.0f64..300.0) {
        let host = HostLibm::new();
        let dev = DeviceMathLib::new();
        let fast = FastMathLib::new();
        prop_assert!(ulp_distance(dev.exp(x.min(200.0)), host.exp(x.min(200.0))) <= 16);
        prop_assert!((dev.sin(x) - host.sin(x)).abs() <= 1e-13 * host.sin(x).abs().max(1e-10));
        prop_assert!((dev.tanh(x) - host.tanh(x)).abs() <= 1e-12);
        if x > 0.0 {
            prop_assert!(ulp_distance(dev.log(x), host.log(x)) <= 16);
            let rel = ((fast.log(x) - host.log(x)) / host.log(x).abs().max(1e-6)).abs();
            prop_assert!(rel < 1e-2, "fast log too far off at {x}: {rel}");
        }
        prop_assert!((fast.sin(x) - host.sin(x)).abs() < 1e-4);
    }

    /// CodeBLEU is bounded in [0, 1], reflexively (near) 1, and defined for
    /// arbitrary pairs of generated programs.
    #[test]
    fn codebleu_bounds_and_reflexivity(seed_a in 0u64..1_000, seed_b in 0u64..1_000) {
        let a = to_compute_source(&VarityGenerator::new(seed_a).generate());
        let b = to_compute_source(&VarityGenerator::new(seed_b).generate());
        let weights = CodeBleuWeights::default();
        let ab = codebleu(&a, &b, weights).combined;
        prop_assert!((0.0..=1.0).contains(&ab));
        let aa = codebleu(&a, &a, weights).combined;
        prop_assert!(aa > 0.999, "self-similarity must be ~1, got {aa}");
    }

    /// The corpus average, which profiles each program once, is the
    /// pair-order mean of `codebleu()` over the same pairs, bit for bit.
    /// Seeds repeat within a corpus, so identical pairs occur too.
    #[test]
    fn pairwise_average_is_the_mean_of_codebleu(seed in 0u64..1_000, n in 0usize..7, cap in 0usize..45) {
        let sources: Vec<String> = (0..n as u64)
            .map(|i| to_compute_source(&VarityGenerator::new(seed + i % 4).generate()))
            .collect();
        let weights = CodeBleuWeights::default();
        let (mut total, mut count) = (0.0, 0usize);
        for (i, j) in sampled_pairs(n, cap) {
            total += codebleu(&sources[i], &sources[j], weights).combined;
            count += 1;
        }
        let mean = if count == 0 { 0.0 } else { total / count as f64 };
        let (avg, pairs) = average_pairwise_codebleu(&sources, 1, cap);
        prop_assert_eq!((avg.to_bits(), pairs), (mean.to_bits(), count));
    }

    /// `SuccessfulSet::merge` is associative: merging (a ∪ b) with c gives
    /// exactly the sequence of merging a with (b ∪ c) — not just the same
    /// set, the same insertion order, which the exchange barrier's
    /// shard-order merge depends on for bit-identical broadcasts.
    #[test]
    fn successful_set_merge_is_associative(seed in 0u64..50_000) {
        let (a, b, c) = three_sets(seed);
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        prop_assert_eq!(left.sources(), right.sources());
    }

    /// `SuccessfulSet::merge` is commutative up to ordering: a ∪ b and
    /// b ∪ a contain the same structural set (orders differ — the barrier
    /// fixes one canonical order by merging in shard-index order).
    #[test]
    fn successful_set_merge_is_commutative_up_to_ordering(seed in 0u64..50_000) {
        let (a, b, _) = three_sets(seed);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(ab.len(), ba.len());
        prop_assert_eq!(hash_set_of(&ab), hash_set_of(&ba));
    }

    /// `SuccessfulSet::merge` is idempotent: re-merging anything already
    /// merged adds nothing and changes nothing — re-broadcasting the same
    /// pool at a barrier (as a resumed run does) is a no-op.
    #[test]
    fn successful_set_merge_is_idempotent(seed in 0u64..50_000) {
        let (a, b, _) = three_sets(seed);
        let mut ab = a.clone();
        ab.merge(&b);
        let before = ab.sources().to_vec();
        prop_assert_eq!(ab.merge(&b), 0);
        prop_assert_eq!(ab.merge(&a), 0);
        let copy = ab.clone();
        prop_assert_eq!(ab.merge(&copy), 0);
        prop_assert_eq!(ab.sources(), &before[..]);
    }

    /// `SuccessfulSet::merge` (by the hashes the other set carries) is
    /// `merge_sources` over its sources (which hashes each one): the
    /// barrier that merges by hash builds the same pool as one that
    /// re-hashes every exchanged source.
    #[test]
    fn successful_set_merge_by_hash_equals_merge_of_sources(seed in 0u64..50_000) {
        let (a, b, c) = three_sets(seed);
        let mut by_hash = a.clone();
        let mut by_source = a.clone();
        for other in [&b, &c] {
            prop_assert_eq!(by_hash.merge(other), by_source.merge_sources(other.sources()));
        }
        prop_assert_eq!(by_hash.sources(), by_source.sources());
        prop_assert_eq!(by_hash.own_sources(), by_source.own_sources());
        prop_assert_eq!(by_hash.len(), by_source.len());
        for source in a.sources().iter().chain(b.sources()).chain(c.sources()) {
            prop_assert!(by_hash.contains(source));
            prop_assert!(by_source.contains(source));
        }
        prop_assert!(by_hash == by_source);
    }

    /// A snapshot that leaves pool texts out and fills them back by hash
    /// is the snapshot it was, and `SuccessfulSet::restore` by the hashes
    /// it carries equals the set rebuilt by hashing every source — the
    /// two halves of carrying the feedback pool by hash.
    #[test]
    fn pool_texts_left_out_and_filled_by_hash_restore_the_same_set(
        seed in 0u64..50_000,
        mask in 0u64..256,
    ) {
        let (a, b, c) = three_sets(seed);
        let mut set = a.clone();
        set.merge(&b);
        set.merge(&c);
        let snapshot = set.snapshot();
        let store: HashMap<u64, Arc<str>> =
            snapshot.hashes.iter().copied().zip(snapshot.sources.iter().cloned()).collect();
        let mut sent = snapshot.clone();
        sent.leave_out(|hash| (mask >> (hash % 8)) & 1 == 1);
        let left_out = sent.sources.iter().filter(|text| text.is_empty()).count();
        prop_assert_eq!(sent.clone().fill(|_| None).is_ok(), left_out == 0);
        let mut filled = sent;
        prop_assert!(filled.fill(|hash| store.get(&hash).cloned()).is_ok());
        prop_assert_eq!(&filled, &snapshot);

        let restored = SuccessfulSet::restore(filled);
        let mut rebuilt = SuccessfulSet::new();
        for (source, own) in snapshot.sources.iter().zip(&snapshot.own) {
            if *own {
                rebuilt.insert(source);
            } else {
                rebuilt.merge_sources(std::slice::from_ref(source));
            }
        }
        prop_assert!(restored == rebuilt);
        prop_assert!(restored == set);
    }

    /// The sealed register VM is pinned bit-identical to the reference
    /// interpreter: for random valid programs × configurations × inputs
    /// both the single-configuration artifact and the matrix-sealed one
    /// agree with the interpreter on exact value bits, step counts, and
    /// error variants — including the precise fuel budget at which
    /// execution starves.
    #[test]
    fn sealed_vm_matches_reference_interpreter(
        seed in 0u64..3_000,
        cfg_index in 0usize..18,
        starve in 0u64..3,
    ) {
        let program = VarityGenerator::new(seed).generate();
        let inputs = InputGenerator::new(seed ^ 0x51ed).generate(&program);
        let matrix = CompilerConfig::full_matrix();
        let config = matrix[cfg_index];
        let artifact = compile(&program, config).unwrap();
        // Varity's naming conventions never produce the dynamically
        // ambiguous int/scalar shadowing that refuses to seal.
        let sealed = artifact.seal().expect("varity programs always seal");
        // The matrix path is one more engine held to the same checks.
        let batched = Frontend::new(&program)
            .unwrap()
            .seal_matrix(&matrix)
            .swap_remove(cfg_index)
            .expect("varity programs always seal");
        let mut scratch = ExecScratch::new();
        let reference = artifact.execute(&inputs);
        for (engine, vm) in [("seal", &sealed), ("seal_matrix", &batched)] {
            let run = vm.execute_into(&inputs, DEFAULT_FUEL, &mut scratch);
            match (&reference, &run) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(a.bits(), b.bits(), "{}", engine);
                    prop_assert_eq!(a.steps, b.steps, "{}", engine);
                    prop_assert_eq!(a.precision, b.precision, "{}", engine);
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b, "{}", engine),
                other => prop_assert!(false, "{engine} and the interpreter disagree: {other:?}"),
            }
            // Starve both engines at the same budget and require the same
            // outcome (fuel exhaustion at the identical point, or identical
            // completion when the budget suffices).
            if let Ok(full) = &reference {
                let fuel = match starve {
                    0 => 0,
                    1 => full.steps / 2,
                    _ => full.steps.saturating_sub(1),
                };
                let a = artifact.execute_with_fuel(&inputs, fuel);
                let b = vm.execute_into(&inputs, fuel, &mut scratch);
                prop_assert_eq!(&a, &b, "{} at fuel {}", engine, fuel);
                if fuel < full.steps {
                    prop_assert_eq!(
                        a.unwrap_err(),
                        llm4fp_suite::compiler::ExecError::FuelExhausted
                    );
                }
            }
        }
    }

    /// `Frontend::seal_matrix` is indistinguishable from 18 independent
    /// seals: per-configuration execution of the shared-layout artifacts
    /// reproduces the independent path bit for bit (and refusals match).
    #[test]
    fn seal_matrix_agrees_with_independent_seals(seed in 0u64..2_000) {
        let program = VarityGenerator::new(seed).generate();
        let inputs = InputGenerator::new(seed ^ 0x3a7).generate(&program);
        let frontend = Frontend::new(&program).unwrap();
        let matrix = CompilerConfig::full_matrix();
        let batch = frontend.seal_matrix(&matrix);
        let mut scratch = ExecScratch::new();
        for (&config, batched) in matrix.iter().zip(&batch) {
            let single = frontend.seal(config);
            match (batched, &single) {
                (Ok(b), Ok(s)) => {
                    prop_assert_eq!(b.instruction_count(), s.instruction_count());
                    prop_assert_eq!(b.register_count(), s.register_count());
                    let vb = b.execute_into(&inputs, DEFAULT_FUEL, &mut scratch);
                    let vs = s.execute_into(&inputs, DEFAULT_FUEL, &mut scratch);
                    // Compare by bits — NaN results are `!=` themselves
                    // through ExecResult's f64 field.
                    match (vb, vs) {
                        (Ok(x), Ok(y)) => {
                            prop_assert_eq!(x.bits(), y.bits());
                            prop_assert_eq!(x.steps, y.steps);
                        }
                        (Err(x), Err(y)) => prop_assert_eq!(x, y),
                        other => prop_assert!(false, "outcomes diverge: {:?}", other),
                    }
                }
                (Err(b), Err(s)) => prop_assert_eq!(b, s),
                other => prop_assert!(false, "paths disagree under {}: {:?}", config, other),
            }
        }
    }

    /// The streaming structural hash equals hashing the rendered source's
    /// token stream — `program_hash` never drifts from `source_hash` over
    /// the canonical rendering (which PR 1's input derivation and result
    /// caching both key on).
    #[test]
    fn streaming_program_hash_matches_rendered_source_hash(seed in 0u64..5_000) {
        let program = VarityGenerator::new(seed).generate();
        let rendered = to_compute_source(&program);
        prop_assert_eq!(
            llm4fp_suite::fpir::program_hash(&program),
            llm4fp_suite::fpir::source_hash(&rendered)
        );
    }

    /// The backend-aware result cache is semantically transparent on the
    /// virtual backend: a campaign sharing a cache (including one
    /// pre-warmed by an identical campaign, so every lookup hits) is
    /// bit-identical to the uncached sequential driver.
    #[test]
    fn result_cache_is_semantically_transparent_for_the_virtual_backend(seed in 0u64..5_000) {
        use std::sync::Arc;
        use llm4fp_suite::core::{ApproachKind, Campaign, CampaignConfig, CampaignRunner};
        use llm4fp_suite::difftest::ResultCache;

        let config = CampaignConfig::new(ApproachKind::DirectPrompt)
            .with_budget(6)
            .with_seed(seed)
            .with_threads(1);
        let plain = Campaign::new(config.clone()).run();
        let cache = Arc::new(ResultCache::new());
        for pass in 0..2 {
            let mut runner = CampaignRunner::new(config.clone()).with_cache(Arc::clone(&cache));
            for index in 0..config.programs {
                runner.run_one(index);
            }
            let cached = runner.finish();
            prop_assert_eq!(&cached.records, &plain.records, "pass {}", pass);
            prop_assert_eq!(&cached.aggregates, &plain.aggregates, "pass {}", pass);
            prop_assert_eq!(&cached.sources, &plain.sources, "pass {}", pass);
        }
        // Second pass hit on every valid program.
        let stats = cache.stats();
        prop_assert_eq!(stats.hits + stats.misses, 2 * plain.sources.len() as u64);
        prop_assert!(stats.hits >= plain.sources.len() as u64);
    }

    /// Compiled artifacts never panic on arbitrary scalar inputs: they either
    /// execute (possibly producing NaN/Inf) or report a structured error.
    #[test]
    fn execution_is_total_over_inputs(x in proptest::num::f64::ANY, level in 0usize..6) {
        let program = parse_compute(
            "void compute(double x) {\n\
             comp = log(x) + sqrt(x) / (x - 1.0);\n\
             comp += exp(x / 1.0e3) * sin(x);\n\
             }",
        ).unwrap();
        let inputs = llm4fp_suite::fpir::InputSet::new()
            .with("x", llm4fp_suite::fpir::InputValue::Fp(x));
        let config = CompilerConfig::new(CompilerId::Nvcc, OptLevel::ALL[level]);
        let artifact = compile(&program, config).unwrap();
        let result = artifact.execute(&inputs);
        prop_assert!(result.is_ok());
    }
}

// External-backend property: few cases, because every case spawns real
// (mock-compiler) processes for each non-duplicate program.
#[cfg(unix)]
proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Cache transparency holds on the external backend too: campaigns
    /// against the hermetic `fakecc` toolchain produce bit-identical
    /// results whether or not a (backend-scoped) result cache serves the
    /// duplicate programs.
    #[test]
    fn result_cache_is_semantically_transparent_for_the_external_backend(seed in 0u64..1_000) {
        use std::sync::Arc;
        use llm4fp_suite::core::{
            ApproachKind, BackendSpec, Campaign, CampaignConfig, CampaignRunner,
            ExternalBackendSpec,
        };
        use llm4fp_suite::difftest::ResultCache;
        use llm4fp_suite::extcc::fakecc;

        let dir = std::env::temp_dir()
            .join("llm4fp-suite-proptests")
            .join(format!("extcc-{seed}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = ExternalBackendSpec::new(fakecc::install_pair(&dir).expect("install fakecc"));
        let config = CampaignConfig::new(ApproachKind::DirectPrompt)
            .with_budget(5)
            .with_seed(seed)
            .with_threads(1)
            .with_backend(BackendSpec::External(spec));

        let plain = Campaign::new(config.clone()).run();
        let cache = Arc::new(ResultCache::new());
        let mut runner = CampaignRunner::new(config.clone()).with_cache(Arc::clone(&cache));
        for index in 0..config.programs {
            runner.run_one(index);
        }
        let cached = runner.finish();
        prop_assert_eq!(&cached.records, &plain.records);
        prop_assert_eq!(&cached.aggregates, &plain.aggregates);
        prop_assert_eq!(&cached.sources, &plain.sources);
        let stats = cache.stats();
        prop_assert_eq!(stats.hits + stats.misses, plain.sources.len() as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
