//! Run a small end-to-end LLM4FP campaign through the orchestrator and
//! watch the feedback loop work: how quickly the successful-program set
//! grows, which strategies were used, and what the corpus diversity looks
//! like. The campaign is virtual, so no result cache serves it: the cache
//! is for external-backend campaigns, one per run, in process. The run is
//! persisted to a run directory and resumed to demonstrate that
//! interrupted campaigns pick up where they left off, and the same
//! campaign is re-run with cross-shard feedback exchange on and off to
//! show what the exchanged global pool buys at K > 1.
//!
//! Run with: `cargo run --release --example feedback_loop`

use llm4fp_suite::compiler::{CompilerId, OptLevel};
use llm4fp_suite::core::{ApproachKind, CampaignConfig};
use llm4fp_suite::metrics::CloneType;
use llm4fp_suite::orchestrator::{plan_shards, Orchestrator};

fn main() {
    let config =
        CampaignConfig::new(ApproachKind::Llm4Fp).with_budget(80).with_seed(1234).with_threads(2);
    let shards = 4;
    let epochs = 4;
    let run_dir = std::env::temp_dir().join("llm4fp-feedback-loop-run");
    let _ = std::fs::remove_dir_all(&run_dir);

    println!(
        "running an LLM4FP campaign of {} programs in {} shards x {} exchange epochs \
         (run dir: {})...\n",
        config.programs,
        shards,
        epochs,
        run_dir.display()
    );
    let orchestrated = Orchestrator::new(config.clone())
        .shards(shards)
        .epochs(epochs)
        .run_dir(run_dir.clone())
        .run()
        .expect("orchestrated run");
    let result = &orchestrated.result;
    let stats = &orchestrated.stats;

    println!(
        "inconsistency rate: {:.2}% ({} inconsistencies over {} comparisons)",
        100.0 * result.inconsistency_rate(),
        result.inconsistencies(),
        result.aggregates.total_comparisons
    );
    println!(
        "programs that triggered inconsistencies (successful set): {}",
        result.successful_sources.len()
    );
    println!(
        "LLM calls: {}, simulated API latency: {:.1} min",
        result.llm_calls,
        result.simulated_llm_time.as_secs_f64() / 60.0,
    );
    println!("run stats: {}", stats.summary_line());

    // Strategy mix over the campaign (0.3 grammar / 0.7 feedback once the
    // successful set is non-empty).
    let grammar = result.records.iter().filter(|r| r.strategy == "grammar-based").count();
    let feedback = result.records.iter().filter(|r| r.strategy == "feedback-mutation").count();
    println!("strategy mix: {grammar} grammar-based, {feedback} feedback-mutation");

    // When did the feedback loop switch on?
    if let Some(first) = result.records.iter().find(|r| r.strategy == "feedback-mutation") {
        println!("first feedback-mutated program was #{}", first.index);
    }

    // Corpus diversity (Table 2's last column).
    let diversity = result.measure_diversity();
    println!(
        "\ndiversity: average pairwise CodeBLEU = {:.4} over {} pairs; clones T1/T2/T2c = {}/{}/{}",
        diversity.avg_codebleu,
        diversity.pairs_scored,
        diversity.clone_pairs(CloneType::Type1),
        diversity.clone_pairs(CloneType::Type2),
        diversity.clone_pairs(CloneType::Type2c),
    );

    // Show one program that triggered an inconsistency.
    if let Some(example) = result.successful_sources.first() {
        println!("\none inconsistency-triggering program:\n{example}");
    }

    // Exchange on vs off. With isolated shards each worker's feedback
    // mutation sees only ~1/K of the findings; the epoch barriers hand
    // every shard the global pool instead. The effect is largest when
    // finds are rare — on the full 18-configuration matrix most programs
    // trigger something, so every shard bootstraps its own pool within a
    // program or two. A sparse 2x2 matrix models the rare-trigger regime
    // (a real-compiler backend hunting one specific miscompile): shards
    // routinely finish whole segments without a find of their own, and
    // the exchanged pool is what keeps their feedback loop fed.
    let mut sparse = config.clone().with_budget(160);
    sparse.compilers = vec![CompilerId::Gcc, CompilerId::Clang];
    sparse.levels = vec![OptLevel::O0, OptLevel::O1];
    let sparse_shards = 8;
    println!(
        "\nexchange on/off at K = {sparse_shards} on a sparse 2x2 matrix \
         ({} programs, same seed):",
        sparse.programs
    );
    for (label, epochs) in [("isolated shards (E=1)", 1usize), ("exchange (E=4)", 4)] {
        let run = Orchestrator::new(sparse.clone())
            .shards(sparse_shards)
            .epochs(epochs)
            .run()
            .expect("in-memory run")
            .result;
        // Feedback activation per shard: how many programs into its slice
        // the shard first drew a mutation seed. Isolated shards must each
        // bootstrap their own pool; exchanged shards get the global pool
        // at the first barrier.
        let activation: Vec<String> = plan_shards(&sparse, sparse_shards)
            .iter()
            .map(|spec| {
                run.records[spec.offset..spec.offset + spec.budget]
                    .iter()
                    .position(|r| r.strategy == "feedback-mutation")
                    .map_or_else(|| "never".to_string(), |i| format!("#{i}"))
            })
            .collect();
        println!(
            "  {label:>22}: {} inconsistencies, {:.2}% rate, {} successful programs, \
             {} feedback-mutated\n{:26}first feedback seed per shard: [{}]",
            run.inconsistencies(),
            100.0 * run.inconsistency_rate(),
            run.successful_sources.len(),
            run.records.iter().filter(|r| r.strategy == "feedback-mutation").count(),
            "",
            activation.join(", "),
        );
    }

    // The run directory makes campaigns survive interruption: drop the
    // merged result and the shard outputs past the second exchange
    // barrier and resume — epochs 0..2 restore from their checkpoints,
    // only the rest recompute, and the merged result is bit-identical.
    std::fs::remove_file(run_dir.join("result.json")).expect("result exists");
    for shard in 0..shards {
        let _ = std::fs::remove_file(run_dir.join("shards").join(format!("shard-{shard:04}.json")));
        let _ = std::fs::remove_file(
            run_dir.join("checkpoints").join(format!("shard-{shard:04}-epoch-0002.json")),
        );
    }
    let resumed = Orchestrator::resume(&run_dir).expect("resume");
    println!(
        "\nresume demo: restored {} of {} epochs from barrier checkpoints; results identical: {}",
        resumed.stats.epochs_restored,
        resumed.stats.epochs,
        resumed.result.records == result.records && resumed.result.aggregates == result.aggregates
    );
    let _ = std::fs::remove_dir_all(&run_dir);
}
