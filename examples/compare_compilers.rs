//! Compare compilers the way a numerical-software team would: generate a
//! batch of LLM4FP programs, run the full differential matrix, and summarize
//! which compiler pairs and optimization levels disagree most — the
//! practical use case the paper's introduction motivates (selecting
//! compilers/flags that give consistent floating-point behaviour).
//!
//! Campaigns run through the orchestrator (sharded). When this machine
//! has at least two real host compilers (gcc, clang), a second campaign
//! drives them for real through the `extcc` backend — same comparison
//! code, actual `std::process` compiles — and the run's result cache,
//! which serves external campaigns in process, lets duplicate programs
//! skip every process spawn of their matrix. Without a toolchain the
//! external section skips
//! with a message (CI's default jobs cover that path hermetically via
//! `fakecc`).
//!
//! Run with: `cargo run --release --example compare_compilers`

use llm4fp_suite::core::report::{table4, table5};
use llm4fp_suite::core::{ApproachKind, BackendSpec, CampaignConfig, ExternalBackendSpec};
use llm4fp_suite::orchestrator::Orchestrator;

fn main() {
    let budget = 60;
    let shards = 4;
    println!(
        "generating and testing {budget} programs per approach \
         (Varity and LLM4FP, {shards} shards)...\n"
    );
    let run = |approach| {
        Orchestrator::new(
            CampaignConfig::new(approach).with_budget(budget).with_seed(2024).with_threads(4),
        )
        .shards(shards)
        .run()
        .expect("in-memory run")
        .result
    };
    let varity = run(ApproachKind::Varity);
    let llm4fp = run(ApproachKind::Llm4Fp);

    println!(
        "Varity : {:5.2}% inconsistency rate ({} inconsistencies)",
        100.0 * varity.inconsistency_rate(),
        varity.inconsistencies()
    );
    println!(
        "LLM4FP : {:5.2}% inconsistency rate ({} inconsistencies)\n",
        100.0 * llm4fp.inconsistency_rate(),
        llm4fp.inconsistencies()
    );

    println!("Per compiler pair and optimization level (Table 4 layout):\n");
    print!("{}", table4(&varity, &llm4fp));
    println!("\nEach level against O0_nofma within one compiler (Table 5 layout):\n");
    print!("{}", table5(&varity, &llm4fp));

    // A concrete recommendation, as the paper suggests practitioners derive.
    let gcc_nvcc =
        (llm4fp_suite::compiler::CompilerId::Gcc, llm4fp_suite::compiler::CompilerId::Nvcc);
    let strict = llm4fp.aggregates.pair_level.rate(
        gcc_nvcc,
        llm4fp_suite::compiler::OptLevel::O0Nofma,
        llm4fp.aggregates.programs,
    );
    let fast = llm4fp.aggregates.pair_level.rate(
        gcc_nvcc,
        llm4fp_suite::compiler::OptLevel::O3Fastmath,
        llm4fp.aggregates.programs,
    );
    println!(
        "\ngcc vs nvcc: {:.1}% of programs disagree at O0_nofma, {:.1}% at O3_fastmath — \
         porting CPU code to the GPU with fast math enabled needs numerical review.",
        100.0 * strict,
        100.0 * fast
    );

    external_section();
}

/// Re-run a (smaller) campaign against the real toolchains on this
/// machine, if it has at least two of them.
fn external_section() {
    println!("\n== External compiler backend ==\n");
    let spec = match ExternalBackendSpec::detect() {
        Some(spec) if spec.has_differential_pair() => spec,
        Some(spec) => {
            println!(
                "only {} host compiler(s) detected ({}); differential testing needs two — \
                 skipping the real-toolchain campaign.",
                spec.compilers.len(),
                spec.describe()
            );
            return;
        }
        None => {
            println!("no host compilers (gcc/clang) detected; skipping the real-toolchain run.");
            return;
        }
    };
    for c in &spec.compilers {
        println!("detected {}: {} ({})", c.id.name(), c.binary, c.version);
    }

    // Direct-Prompt is the duplicate-heavy regime, so the backend-aware
    // result cache visibly skips process spawns.
    let config = CampaignConfig::new(ApproachKind::DirectPrompt)
        .with_budget(24)
        .with_seed(2024)
        .with_threads(1)
        .with_backend(BackendSpec::External(spec));
    let configs_per_program = config.compilers.len() * config.levels.len();
    println!(
        "\nrunning {} programs x {} real configurations through the orchestrator \
         (4 shards on 4 workers)...",
        config.programs, configs_per_program
    );
    let orchestrated = Orchestrator::new(config.clone())
        .shards(4)
        .workers(4)
        .run()
        .expect("in-memory orchestrated run cannot fail");
    let result = &orchestrated.result;
    println!("real-toolchain campaign: {}", orchestrated.stats.summary_line());
    println!(
        "inconsistency rate {:.2}% ({} inconsistencies over {} comparisons)",
        100.0 * result.inconsistency_rate(),
        result.inconsistencies(),
        result.aggregates.total_comparisons,
    );
    if let Some(cache) = &orchestrated.stats.cache {
        println!(
            "result cache: {} duplicate program(s) skipped all {} process spawns of their \
             matrix ({} compiles + {} runs each).",
            cache.hits,
            2 * configs_per_program,
            configs_per_program,
            configs_per_program,
        );
    }
}
