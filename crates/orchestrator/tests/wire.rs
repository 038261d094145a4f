//! Property tests for the coordinator ↔ worker wire contract: every
//! payload the process-pool transport can ship — jobs fresh or
//! checkpointed, results with deltas, checkpoints, outputs and telemetry
//! counters — survives a frame round trip byte-for-byte equal. This is
//! the serialization half of the transport-equivalence guarantee: if
//! round-tripping ever lost information, `process_pool.rs`'s
//! bit-identity tests would fail only for the affected field, whereas
//! these pin the wire layer in isolation.
//!
//! The malformed-input half pins the robustness guarantee the fault
//! harness leans on: a worker can die mid-frame or write garbage
//! ([`WorkerFault::CorruptFrameAtJob`][cf]), and the reader must answer
//! every such stream with a typed `io::Error` — never a panic, and never
//! an attacker-sized allocation (a corrupt 10-digit header can demand up
//! to ~9.3 GiB; `MAX_FRAME_LEN` caps it before the buffer exists).
//!
//! [cf]: llm4fp_orchestrator::WorkerFault::CorruptFrameAtJob
//!
//! The JSON half pins the vendored decoder under every frame: arbitrary
//! strings round-trip, decoding is linear in frame size, and nesting is
//! capped, so neither a large frame nor a deep one can stall or abort the
//! process reading it.

use std::io;
use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use llm4fp::{ApproachKind, CampaignConfig};
use llm4fp_orchestrator::wire::{
    read_frame, write_frame, ShardJob, ShardJobResult, WireRequest, MAX_FRAME_LEN,
};
use llm4fp_orchestrator::{
    plan_shards, run_shard, Orchestrator, OrchestratorOptions, ShardCtx, ShardRunner,
};
use llm4fp_telemetry::{TelemetryHub, TelemetrySpec};
use proptest::prelude::*;
use serde_json::Value;

fn round_trip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let mut buf = Vec::new();
    write_frame(&mut buf, value).expect("frame encodes");
    read_frame(&mut buf.as_slice()).expect("frame decodes")
}

fn config(approach: usize, budget: usize, seed: u64) -> CampaignConfig {
    let approach = ApproachKind::ALL[approach % ApproachKind::ALL.len()];
    CampaignConfig::new(approach).with_budget(budget).with_seed(seed).with_threads(1)
}

/// Deterministic garbage for the never-panic property (SplitMix64; the
/// vendored proptest shim has no byte-vector strategy).
fn pseudo_random_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state.wrapping_add(0x9e3779b97f4a7c15);
            let mut x = state;
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
            (x ^ (x >> 31)) as u8
        })
        .collect()
}

/// A deterministic string of `len` chars drawn evenly from six classes:
/// control characters below 0x20, the ASCII the encoder escapes or could
/// (`"`, `\`, `/`, DEL), other printable ASCII, and 2-, 3- and 4-byte
/// UTF-8 characters (the last spelled as surrogate pairs in `\u` form).
fn arbitrary_string(seed: u64, len: usize) -> String {
    pseudo_random_bytes(seed, 4 * len)
        .chunks_exact(4)
        .map(|b| {
            let v = u32::from_le_bytes([b[1], b[2], b[3], 0]);
            let code = match b[0] % 6 {
                0 => v % 0x20,
                1 => [b'"', b'\\', b'/', 0x7f][v as usize % 4] as u32,
                2 => 0x20 + v % 0x5f,
                3 => 0x80 + v % 0x780,
                4 => 0x800 + v % 0xf800,
                _ => 0x10000 + v % 0x10_0000,
            };
            // The only gap in those ranges is the UTF-16 surrogate block.
            char::from_u32(code).unwrap_or('\u{fffd}')
        })
        .collect()
}

/// `s` as JSON text with every character written as a `\u` escape.
fn unicode_escaped(s: &str) -> String {
    let body: String = s.encode_utf16().map(|unit| format!("\\u{unit:04x}")).collect();
    format!("\"{body}\"")
}

/// Nesting depth of a JSON value (a scalar is 0).
fn nesting(value: &Value) -> usize {
    match value {
        Value::Arr(items) => 1 + items.iter().map(nesting).max().unwrap_or(0),
        Value::Obj(map) => 1 + map.values().map(nesting).max().unwrap_or(0),
        _ => 0,
    }
}

/// The deepest nesting of any JSON document under `dir`: `.json` files
/// whole, `.jsonl` files line by line.
fn deepest_artifact(dir: &Path) -> usize {
    let mut deepest = 0;
    for entry in std::fs::read_dir(dir).expect("run dir lists") {
        let path = entry.expect("run dir entry").path();
        let text = || std::fs::read_to_string(&path).expect("artifact reads");
        let depth = |text: &str| nesting(&serde_json::parse(text).expect("artifact parses"));
        deepest = deepest.max(match path.extension().and_then(|e| e.to_str()) {
            _ if path.is_dir() => deepest_artifact(&path),
            Some("json") => depth(&text()),
            Some("jsonl") => text().lines().filter(|l| !l.is_empty()).map(depth).max().unwrap_or(0),
            _ => 0,
        });
    }
    deepest
}

/// The shortest of three decodes of one frame holding a string of about
/// `len` bytes, mixing plain ASCII, multi-byte characters and escapes.
fn string_frame_decode_time(len: usize) -> Duration {
    let unit = "frame text: \u{e9}\u{20ac}\u{1f600} \"quoted\" \\ \n\t\u{1} ";
    let text = unit.repeat(len / unit.len());
    let mut bytes = Vec::new();
    write_frame(&mut bytes, &text).expect("frame encodes");
    (0..3)
        .map(|_| {
            let started = Instant::now();
            let back: String = read_frame(&mut bytes.as_slice()).expect("frame decodes");
            let elapsed = started.elapsed();
            assert_eq!(back, text);
            elapsed
        })
        .min()
        .expect("three runs")
}

#[test]
fn string_frames_decode_in_linear_time() {
    const MIB: usize = 1 << 20;
    // Decode on a helper thread so a superlinear decoder fails at the
    // budget instead of hanging the suite: the quadratic string parser
    // this pins against needed hours for one such frame.
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let small = string_frame_decode_time(2 * MIB);
        let large = string_frame_decode_time(8 * MIB);
        let _ = tx.send((small, large));
    });
    let (small, large) = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("2 and 8 MiB string frames must decode within 60 s, even unoptimized");
    worker.join().expect("decode thread finishes");
    let ratio = large.as_secs_f64() / small.as_secs_f64().max(1e-9);
    assert!(
        ratio < 10.0,
        "4x the bytes took {ratio:.1}x the time ({small:?} vs {large:?}): decoding is superlinear"
    );
}

#[test]
fn a_million_deep_frame_is_invalid_data_not_a_stack_overflow() {
    let depth = 1_000_000;
    let payload = "[".repeat(depth) + &"]".repeat(depth);
    let mut bytes = format!("{:010}\n", payload.len()).into_bytes();
    bytes.extend_from_slice(payload.as_bytes());
    let err = read_frame::<WireRequest, _>(&mut bytes.as_slice()).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("recursion limit exceeded"), "{err}");
}

#[test]
fn real_frames_and_run_dir_artifacts_nest_far_below_the_recursion_limit() {
    // The deepest payloads this workspace writes: a checkpointed job frame,
    // and every artifact of a traced, persisted multi-epoch LLM4FP run
    // (manifest, shard JSONL, epoch pools, checkpoints, result, summary,
    // metrics.json, trace.jsonl).
    let config = CampaignConfig::new(ApproachKind::Llm4Fp).with_budget(24).with_seed(3);
    let spec = plan_shards(&config, 2)[0];
    let mut runner = ShardRunner::new(&config, spec, None);
    runner.run_segment(spec.budget / 2, |_| {});
    let job = WireRequest::Job(Box::new(ShardJob {
        config: config.clone(),
        spec,
        segment: spec.budget - spec.budget / 2,
        finish: true,
        checkpoint: Some(runner.checkpoint()),
        process_slots: 1,
        telemetry: true,
        lease: 1,
    }));
    let frame_depth = nesting(&serde_json::to_value(&job));

    let root = std::env::temp_dir()
        .join("llm4fp-orchestrator-tests")
        .join(format!("wire-nesting-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    Orchestrator::new(config)
        .options(OrchestratorOptions {
            run_dir: Some(root.clone()),
            epochs: 2,
            telemetry: TelemetrySpec::TRACE,
            ..OrchestratorOptions::default()
        })
        .shards(2)
        .run()
        .expect("campaign runs");
    let artifact_depth = deepest_artifact(&root);
    let _ = std::fs::remove_dir_all(&root);

    let cap = serde_json::RECURSION_LIMIT;
    for (what, depth) in [("checkpointed job frame", frame_depth), ("run dir", artifact_depth)] {
        assert!(depth > 2, "{what}: nesting {depth} is implausibly flat");
        assert!(depth <= cap / 4, "{what}: nesting {depth} is within 4x of the cap {cap}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fresh_jobs_round_trip(
        seed in any::<u64>(),
        approach in 0usize..8,
        budget in 1usize..12,
        shards in 1usize..5,
        segment in 0usize..12,
        finish in any::<bool>(),
        slots in 1usize..9,
        telemetry in any::<bool>(),
    ) {
        let config = config(approach, budget, seed);
        for spec in plan_shards(&config, shards) {
            let job = ShardJob {
                config: config.clone(),
                spec,
                segment,
                finish,
                checkpoint: None,
                process_slots: slots,
                telemetry,
                lease: seed,
            };
            let request = WireRequest::Job(Box::new(job));
            prop_assert_eq!(round_trip(&request), request);
        }
    }

    #[test]
    fn checkpointed_jobs_round_trip(
        seed in any::<u64>(),
        approach in 0usize..8,
        budget in 2usize..8,
        segment in 1usize..4,
    ) {
        // A mid-campaign job carries real runner state: pause an actual
        // runner after a partial segment and ship its checkpoint.
        let config = config(approach, budget, seed);
        let spec = plan_shards(&config, 2)[1];
        let mut runner = ShardRunner::new(&config, spec, None);
        runner.run_segment(segment.min(spec.budget), |_| {});
        let job = ShardJob {
            config: config.clone(),
            spec,
            segment: spec.budget - segment.min(spec.budget),
            finish: true,
            checkpoint: Some(runner.checkpoint()),
            process_slots: 1,
            telemetry: false,
            lease: seed.wrapping_add(1),
        };
        let request = WireRequest::Job(Box::new(job));
        prop_assert_eq!(round_trip(&request), request);
    }

    #[test]
    fn results_round_trip(
        seed in any::<u64>(),
        approach in 0usize..8,
        budget in 1usize..10,
        with_telemetry in any::<bool>(),
    ) {
        // A finished shard's answer: real output, real counters.
        let config = config(approach, budget, seed);
        let spec = plan_shards(&config, 1)[0];
        let hub = TelemetryHub::new(if with_telemetry {
            TelemetrySpec::METRICS
        } else {
            TelemetrySpec::OFF
        });
        let ctx = ShardCtx::new(&config).with_telemetry(hub.lane(0));
        let output = run_shard(&spec, &ctx);
        let result = ShardJobResult {
            index: spec.index,
            delta: output.successful_sources.clone(),
            checkpoint: None,
            output: Some(output),
            telemetry: hub.lane(0).export(),
            lease: seed,
        };
        prop_assert_eq!(with_telemetry, result.telemetry.is_some());
        prop_assert_eq!(round_trip(&result), result);
    }

    #[test]
    fn paused_results_round_trip(
        seed in any::<u64>(),
        approach in 0usize..8,
        budget in 2usize..8,
        segment in 1usize..4,
    ) {
        // A paused shard's answer: the delta plus the checkpoint that
        // the next epoch's job will carry back out.
        let config = config(approach, budget, seed);
        let spec = plan_shards(&config, 2)[0];
        let mut runner = ShardRunner::new(&config, spec, None);
        let delta = runner.run_segment(segment.min(spec.budget), |_| {});
        let result = ShardJobResult {
            index: spec.index,
            delta,
            checkpoint: Some(runner.checkpoint()),
            output: None,
            telemetry: None,
            lease: seed.wrapping_add(2),
        };
        prop_assert_eq!(round_trip(&result), result);
    }

    #[test]
    fn arbitrary_strings_round_trip(
        seed in any::<u64>(),
        len in 0usize..512,
    ) {
        let text = arbitrary_string(seed, len);
        prop_assert_eq!(round_trip(&text), text.clone());
        // As an object key and a value in one frame.
        let object = Value::Obj(serde_json::Map::from([(text.clone(), Value::Str(text.clone()))]));
        prop_assert_eq!(round_trip(&object), object);
        // Spelled entirely in `\u` escapes, astral characters as
        // surrogate pairs.
        let decoded = serde_json::parse(&unicode_escaped(&text)).expect("escaped text parses");
        prop_assert_eq!(decoded, Value::Str(text));
    }

    #[test]
    fn arbitrary_byte_streams_never_panic_the_reader(
        seed in any::<u64>(),
        len in 0usize..256,
    ) {
        let bytes = pseudo_random_bytes(seed, len);
        // Whatever a sabotaged worker leaves on the pipe, the reader
        // answers with a typed io::Error — EOF for a stream that ended
        // early, InvalidData for everything structurally wrong. (Random
        // bytes parsing as a valid frame is beyond astronomically
        // unlikely, but tolerated: only panics and other error kinds are
        // contract violations.)
        if let Err(err) = read_frame::<WireRequest, _>(&mut bytes.as_slice()) {
            prop_assert!(
                matches!(err.kind(), io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof),
                "unexpected error kind {:?} for {:?}", err.kind(), bytes
            );
        }
    }

    #[test]
    fn single_byte_corruption_of_a_valid_frame_never_panics(
        seed in any::<u64>(),
        position in 0usize..64,
        replacement in any::<u8>(),
    ) {
        // Flip one byte anywhere in a real frame (header or payload):
        // the reader must either still parse a frame or fail cleanly.
        let config = config(0, 4, seed);
        let spec = plan_shards(&config, 1)[0];
        let job = ShardJob {
            config: config.clone(),
            spec,
            segment: 2,
            finish: false,
            checkpoint: None,
            process_slots: 1,
            telemetry: false,
            lease: 1,
        };
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &WireRequest::Job(Box::new(job))).expect("frame encodes");
        let position = position % bytes.len();
        bytes[position] = replacement;
        if let Err(err) = read_frame::<WireRequest, _>(&mut bytes.as_slice()) {
            prop_assert!(
                matches!(err.kind(), io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof),
                "unexpected error kind {:?} after corrupting byte {}", err.kind(), position
            );
        }
    }

    #[test]
    fn truncated_frames_are_errors_not_panics(
        seed in any::<u64>(),
        cut in any::<u64>(),
    ) {
        // A worker that dies mid-write leaves a prefix of a valid frame.
        // Every prefix must read as a clean error (almost always EOF;
        // a prefix that cuts inside the header is InvalidData).
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &WireRequest::Job(Box::new(ShardJob {
            config: config(1, 6, seed).clone(),
            spec: plan_shards(&config(1, 6, seed), 2)[1],
            segment: 3,
            finish: true,
            checkpoint: None,
            process_slots: 2,
            telemetry: true,
            lease: 1,
        }))).expect("frame encodes");
        let keep = (cut % bytes.len() as u64) as usize;
        let err = read_frame::<WireRequest, _>(&mut &bytes[..keep])
            .expect_err("a strict prefix is never a whole frame");
        prop_assert!(
            matches!(err.kind(), io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof),
            "unexpected error kind {:?} at {} of {} bytes", err.kind(), keep, bytes.len()
        );
    }

    #[test]
    fn oversized_headers_are_rejected_before_allocating(
        excess in 1u64..1_000_000_000,
    ) {
        // Any header demanding more than MAX_FRAME_LEN is refused as a
        // typed bad frame *before* the payload buffer is allocated — the
        // whole point of the cap (and this test would OOM without it).
        // MAX_FRAME_LEN + 1e9 still fits the 10-digit header.
        let demanded = MAX_FRAME_LEN as u64 + excess;
        let mut bytes = format!("{demanded:010}\n").into_bytes();
        bytes.extend_from_slice(b"{}");
        let err = read_frame::<WireRequest, _>(&mut bytes.as_slice()).unwrap_err();
        prop_assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        prop_assert!(err.to_string().contains("MAX_FRAME_LEN"), "{}", err);
    }
}
