//! The JSON codec under every wire frame and run-dir artifact.
//!
//! `every_artifact_and_frame_keeps_its_bytes` pins the exact bytes the
//! codec writes: FNV-1a digests of each artifact of a small persisted
//! LLM4FP campaign and of one job/result frame pair. A codec change that
//! moves a single byte of any of them fails here.
//!
//! The rest holds the direct path (the derived writer and pull decoder)
//! to the tree path it replaced: text written straight from a value must
//! equal the tree printer's text of the value's `Value` tree (the printer
//! is kept below as the reference), and decoding text straight must
//! accept what `from_value(parse(text))` accepts and yield the same value.

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::path::{Path, PathBuf};
use std::time::Duration;

use llm4fp::{ApproachKind, CampaignConfig, CampaignResult, RunnerCheckpoint};
use llm4fp_orchestrator::wire::{write_frame, ShardJob, ShardJobResult, WireReply, WireRequest};
use llm4fp_orchestrator::{
    plan_shards, FaultPlan, Hello, Orchestrator, OrchestratorOptions, PersistFault, RunManifest,
    RunStats, ShardOutput, ShardRunner, WorkerFault,
};
use llm4fp_telemetry::{MetricsReport, TelemetrySpec};
use proptest::prelude::*;
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use serde_json::Value;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `text` with every `"pipeline_time"` value cut to its key: the one
/// measured (wall-clock) field an artifact carries.
fn mask_pipeline_time(text: &str) -> String {
    const KEY: &str = "\"pipeline_time\"";
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(at) = rest.find(KEY) {
        let value = at + KEY.len();
        let end = value + rest[value..].find('}').expect("pipeline_time is an object");
        out.push_str(&rest[..value]);
        rest = &rest[end + 1..];
    }
    out.push_str(rest);
    out
}

/// Every `.json` file under `dir` (recursively) except the run's timing
/// reports, as `(path relative to root, FNV-1a of its masked text)`.
fn artifact_digests(root: &Path, dir: &Path, out: &mut Vec<(String, u64)>) {
    let mut entries: Vec<PathBuf> =
        std::fs::read_dir(dir).expect("run dir lists").map(|e| e.expect("entry").path()).collect();
    entries.sort();
    for path in entries {
        let name = path.strip_prefix(root).expect("under root").to_string_lossy().into_owned();
        if path.is_dir() {
            artifact_digests(root, &path, out);
        } else if name.ends_with(".json") && name != "summary.json" && name != "metrics.json" {
            let text = std::fs::read_to_string(&path).expect("artifact reads");
            out.push((name, fnv1a(mask_pipeline_time(&text).as_bytes())));
        }
    }
}

/// The frames of one fixed job and its answer: shard 0 of a 48-program
/// LLM4FP campaign, paused after 10 programs and finished by the job.
fn frame_digests() -> [(&'static str, u64); 2] {
    let config = CampaignConfig::new(ApproachKind::Llm4Fp).with_budget(48).with_seed(11);
    let spec = plan_shards(&config, 2)[0];
    let mut runner = ShardRunner::new(&config, spec, None);
    runner.run_segment(10, |_| {});
    let mut checkpoint = runner.checkpoint();
    checkpoint.pipeline_time = Duration::ZERO;
    let job = ShardJob {
        config: config.clone(),
        spec,
        segment: spec.budget - 10,
        finish: true,
        checkpoint: Some(checkpoint),
        process_slots: 1,
        telemetry: false,
        lease: 3,
    };
    let delta = runner.run_segment(spec.budget - 10, |_| {});
    let mut output = runner.finish();
    output.pipeline_time = Duration::ZERO;
    let answer = ShardJobResult {
        index: spec.index,
        delta,
        checkpoint: None,
        output: Some(output),
        telemetry: None,
        lease: 3,
    };
    let frame = |write: &dyn Fn(&mut Vec<u8>)| {
        let mut bytes = Vec::new();
        write(&mut bytes);
        fnv1a(&bytes)
    };
    [
        (
            "job",
            frame(&|b| {
                write_frame(b, &WireRequest::Job(Box::new(job.clone()))).expect("frame encodes");
            }),
        ),
        (
            "result",
            frame(&|b| {
                write_frame(b, &WireReply::Result(Box::new(answer.clone()))).expect("encodes");
            }),
        ),
    ]
}

#[test]
fn every_artifact_and_frame_keeps_its_bytes() {
    let root = std::env::temp_dir()
        .join("llm4fp-orchestrator-tests")
        .join(format!("codec-bytes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let config = CampaignConfig::new(ApproachKind::Llm4Fp).with_budget(48).with_seed(5);
    Orchestrator::new(config)
        .options(OrchestratorOptions {
            run_dir: Some(root.clone()),
            epochs: 3,
            ..OrchestratorOptions::default()
        })
        .shards(2)
        .run()
        .expect("campaign runs");
    let mut digests = Vec::new();
    artifact_digests(&root, &root, &mut digests);
    let _ = std::fs::remove_dir_all(&root);
    digests.extend(frame_digests().map(|(name, digest)| (format!("frame {name}"), digest)));

    let pinned: &[(&str, u64)] = &[
        ("checkpoints/shard-0000-epoch-0000.json", 0x6bea82ee36db213d),
        ("checkpoints/shard-0000-epoch-0001.json", 0x629a7b5a812bd8ec),
        ("checkpoints/shard-0001-epoch-0000.json", 0xa4e25b75efed2be4),
        ("checkpoints/shard-0001-epoch-0001.json", 0x9d9033978ba240d3),
        ("manifest.json", 0x6abecb9d6ed1903a),
        ("pool/epoch-0000.json", 0x46535780d16d7a64),
        ("pool/epoch-0001.json", 0x4332fc2a29d4c075),
        ("result.json", 0xd9a73fecdb352994),
        ("shards/shard-0000.json", 0xd02fca8abc9b68d8),
        ("shards/shard-0001.json", 0x2641da44ea4c4406),
        ("frame job", 0xfcf47a06746f8f00),
        ("frame result", 0x773ccfc76e1207be),
    ];
    let found: Vec<(&str, u64)> = digests.iter().map(|(n, d)| (n.as_str(), *d)).collect();
    assert_eq!(found, pinned, "an artifact or frame changed its bytes");
}

/// The tree printer every frame and artifact went through before the
/// writer worked straight from the structs, kept as the reference the
/// direct writer's bytes must equal.
mod tree_path {
    use serde_json::{Number, Value};

    pub fn write_value(v: &Value, out: &mut String, indent: Option<usize>, depth: usize) {
        match v {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Num(n) => write_number(n, out),
            Value::Str(s) => write_string(s, out),
            Value::Arr(a) => write_seq(a.iter(), out, indent, depth, '[', ']', |item, out, d| {
                write_value(item, out, indent, d)
            }),
            Value::Obj(m) => {
                write_seq(m.iter(), out, indent, depth, '{', '}', |(k, item), out, d| {
                    write_string(k, out);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    write_value(item, out, indent, d)
                })
            }
        }
    }

    fn write_seq<I, F>(
        items: I,
        out: &mut String,
        indent: Option<usize>,
        depth: usize,
        open: char,
        close: char,
        mut write_item: F,
    ) where
        I: Iterator,
        F: FnMut(I::Item, &mut String, usize),
    {
        out.push(open);
        let mut first = true;
        for item in items {
            if !first {
                out.push(',');
            }
            first = false;
            if let Some(width) = indent {
                out.push('\n');
                out.extend(std::iter::repeat(' ').take(width * (depth + 1)));
            }
            write_item(item, out, depth + 1);
        }
        if !first {
            if let Some(width) = indent {
                out.push('\n');
                out.extend(std::iter::repeat(' ').take(width * depth));
            }
        }
        out.push(close);
    }

    fn write_number(n: &Number, out: &mut String) {
        match *n {
            Number::U(u) => out.push_str(&u.to_string()),
            Number::I(i) => out.push_str(&i.to_string()),
            Number::F(f) => {
                let s = format!("{f}");
                out.push_str(&s);
                if !s.contains('.') && !s.contains('e') && !s.contains('E') {
                    out.push_str(".0");
                }
            }
        }
    }

    fn write_string(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

/// Decode `text` both ways: straight from the text, and through its
/// `Value` tree. Both must accept or both refuse, with the same message;
/// accepted, both must yield the same value (compared by its compact
/// text, which also compares NaNs and the sign of zero).
fn decode_both<T: Serialize + DeserializeOwned>(text: &str) -> Result<T, String> {
    let direct = serde_json::from_str::<T>(text).map_err(|e| e.to_string());
    let via_tree = serde_json::parse(text)
        .and_then(|tree| serde_json::from_value::<T>(&tree))
        .map_err(|e| e.to_string());
    match (&direct, &via_tree) {
        (Ok(a), Ok(b)) => assert_eq!(
            serde_json::to_string(a).unwrap(),
            serde_json::to_string(b).unwrap(),
            "the two decodes of {text} differ"
        ),
        (Err(a), Err(b)) => assert_eq!(a, b, "the two decodes of {text} fail differently"),
        _ => panic!(
            "one decode of {text} failed: direct {:?}, via tree {:?}",
            direct.is_ok(),
            via_tree.is_ok()
        ),
    }
    direct
}

/// Hold `value`'s compact and pretty text to the tree printer's, and
/// decode each both ways back to the value.
fn same_as_tree_path<T: Serialize + DeserializeOwned>(value: &T) {
    let tree = serde_json::to_value(value);
    let compact = serde_json::to_string(value).unwrap();
    let pretty = serde_json::to_string_pretty(value).unwrap();
    for (text, indent) in [(&compact, None), (&pretty, Some(2))] {
        let mut expected = String::new();
        tree_path::write_value(&tree, &mut expected, indent, 0);
        assert_eq!(*text, expected, "the direct writer's text differs from the tree printer's");
        let back: T = decode_both(text).expect("written text decodes");
        assert_eq!(serde_json::to_string(&back).unwrap(), compact, "decoding loses information");
    }
}

/// Decode the artifact at `path` as `T` and hold it to the tree path;
/// the file must hold exactly the text its value writes.
fn artifact_same_as_tree_path<T: Serialize + DeserializeOwned>(path: &Path, pretty: bool) {
    let text = std::fs::read_to_string(path).expect("artifact reads");
    let value: T = decode_both(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let written =
        if pretty { serde_json::to_string_pretty(&value) } else { serde_json::to_string(&value) };
    assert_eq!(written.unwrap(), text, "{} does not re-encode to its bytes", path.display());
    same_as_tree_path(&value);
}

/// A fault plan naming every fault, varied by `seed`.
fn fault_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        first_worker: vec![
            WorkerFault::CrashAtJob(seed),
            WorkerFault::StallMs(seed >> 7),
            WorkerFault::CorruptFrameAtJob(1),
            WorkerFault::DropConnAtJob(2),
        ],
        every_worker: vec![
            WorkerFault::CrashOnShard(seed as usize % 7),
            WorkerFault::DuplicateResultAtJob(3),
            WorkerFault::ForgetPoolAtJob(4),
            WorkerFault::RefuseHandshake,
        ],
        respawn_failures: seed as u32,
        persist: vec![PersistFault::TornWrite(format!("pool/\u{e9}\"{seed}\n"))],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn every_persisted_and_wire_type_writes_and_reads_as_the_tree_path_did(
        seed in any::<u64>(),
        approach in 0usize..8,
        budget in 4usize..24,
        shards in 1usize..4,
        epochs in 1usize..4,
    ) {
        let approach = ApproachKind::ALL[approach % ApproachKind::ALL.len()];
        let config = CampaignConfig::new(approach).with_budget(budget).with_seed(seed);
        let root = std::env::temp_dir()
            .join("llm4fp-orchestrator-tests")
            .join(format!("codec-tree-{}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        Orchestrator::new(config.clone())
            .options(OrchestratorOptions {
                run_dir: Some(root.clone()),
                epochs,
                telemetry: TelemetrySpec::METRICS,
                ..OrchestratorOptions::default()
            })
            .shards(shards)
            .run()
            .expect("campaign runs");
        let mut files = Vec::new();
        artifact_files(&root, &mut files);
        for path in &files {
            let name = path.strip_prefix(&root).unwrap().to_string_lossy().into_owned();
            match name.split('/').next().unwrap() {
                "checkpoints" => artifact_same_as_tree_path::<RunnerCheckpoint>(path, false),
                "pool" => artifact_same_as_tree_path::<Vec<(u64, String)>>(path, false),
                "shards" => artifact_same_as_tree_path::<ShardOutput>(path, false),
                "manifest.json" => artifact_same_as_tree_path::<RunManifest>(path, true),
                "result.json" => artifact_same_as_tree_path::<CampaignResult>(path, true),
                "summary.json" => artifact_same_as_tree_path::<RunStats>(path, true),
                "metrics.json" => artifact_same_as_tree_path::<MetricsReport>(path, true),
                other => panic!("unexpected artifact {other}"),
            }
        }
        let _ = std::fs::remove_dir_all(&root);
        prop_assert!(files.len() >= 4 + shards, "too few artifacts: {files:?}");

        let spec = plan_shards(&config, shards)[0];
        let mut runner = ShardRunner::new(&config, spec, None);
        let paused = runner.run_segment(spec.budget / 2, |_| {});
        let checkpoint = runner.checkpoint();
        let delta = runner.run_segment(spec.budget - spec.budget / 2, |_| {});
        let output = runner.finish();
        let job = ShardJob {
            config: config.clone(),
            spec,
            segment: spec.budget - spec.budget / 2,
            finish: true,
            checkpoint: Some(checkpoint.clone()),
            process_slots: shards,
            telemetry: seed % 2 == 0,
            lease: seed,
        };
        let answer = |delta, checkpoint, output| ShardJobResult {
            index: spec.index,
            delta,
            checkpoint,
            output,
            telemetry: None,
            lease: seed,
        };
        let hello = Hello { pid: Some(seed as u32), ..Hello::current() };
        for request in [
            WireRequest::Hello(hello),
            WireRequest::Refuse(format!("skew \u{1f600} \\ {seed}")),
            WireRequest::Job(Box::new(job)),
            WireRequest::Ping(seed),
            WireRequest::Shutdown,
        ] {
            same_as_tree_path(&request);
        }
        for reply in [
            WireReply::Hello(hello),
            WireReply::Result(Box::new(answer(paused, Some(checkpoint), None))),
            WireReply::Result(Box::new(answer(delta, None, Some(output)))),
            WireReply::Pong(seed),
        ] {
            same_as_tree_path(&reply);
        }
        let plan = fault_plan(seed);
        same_as_tree_path(&plan);
        same_as_tree_path(&FaultPlan::default());
    }
}

/// Every `.json` file under `dir`, recursively, in name order.
fn artifact_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> =
        std::fs::read_dir(dir).expect("run dir lists").map(|e| e.expect("entry").path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            artifact_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "json") {
            out.push(path);
        }
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Shape {
    Unit,
    Newtype(u64),
    Tuple(i32, String),
    Struct { y: f64, x: Option<u8> },
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Marker;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Pair(u32, String);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Probe {
    zeta: u64,
    alpha: Option<String>,
    floats: Vec<f64>,
    signed: i64,
    shapes: Vec<Shape>,
    map: BTreeMap<(u8, String), f32>,
    marker: Marker,
    pair: Pair,
    span: Duration,
}

fn probe(text: &str) -> Probe {
    Probe {
        zeta: u64::MAX,
        alpha: Some(text.to_string()),
        floats: vec![
            -0.0,
            0.0,
            1.0,
            0.1,
            1e300,
            -2.5e-300,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ],
        signed: i64::MIN,
        shapes: vec![
            Shape::Unit,
            Shape::Newtype((1 << 53) + 1),
            Shape::Tuple(-7, text.to_string()),
            Shape::Struct { y: -0.0, x: None },
            Shape::Struct { y: 3.0, x: Some(255) },
        ],
        map: BTreeMap::from([((2, "b".into()), 0.5), ((1, text.into()), f32::NAN)]),
        marker: Marker,
        pair: Pair(u32::MAX, String::new()),
        span: Duration::new(5, 999_999_999),
    }
}

#[test]
fn edge_values_write_and_read_as_the_tree_path_did() {
    let control: String = (0u8..0x20).map(char::from).collect();
    for text in [
        String::new(),
        "plain".to_string(),
        "quote \" backslash \\ slash / del \u{7f}".to_string(),
        control,
        "é € \u{ffff} 😀 \u{10ffff} mixed\twith\nescapes".to_string(),
    ] {
        let value = probe(&text);
        same_as_tree_path(&value);
        let back: Probe = decode_both(&serde_json::to_string(&value).unwrap()).unwrap();
        assert_eq!(back.floats[0].to_bits(), (-0.0f64).to_bits(), "-0.0 keeps its sign");
        assert!(back.floats[6].is_nan() && back.floats[7] == f64::INFINITY);
        assert_eq!(back.floats[8], f64::NEG_INFINITY);
        assert_eq!(back.shapes[1], Shape::Newtype((1 << 53) + 1), "u64 above 2^53 is exact");
        assert_eq!((back.zeta, back.signed, back.alpha), (u64::MAX, i64::MIN, Some(text)));
    }
    same_as_tree_path(&Value::Arr(vec![Value::Arr(Vec::new()), Value::Obj(Default::default())]));
}

#[test]
fn keys_in_any_order_unknown_repeated_or_missing_decode_as_the_tree_path_did() {
    let full = serde_json::to_string(&probe("x")).unwrap();
    let tail = &full[1..];
    // The full object with `extra` keys after its own: they repeat a key
    // or add one, and win either way.
    let with = |extra: &str| format!("{{{},{extra}}}", &full[1..full.len() - 1]);
    let decode = |text: &str| decode_both::<Probe>(text);

    // Reordered: the same object written back to front.
    let Value::Obj(map) = serde_json::parse(&full).unwrap() else { unreachable!() };
    let mut reversed: Vec<String> = map
        .iter()
        .map(|(k, v)| {
            format!("{}:{}", serde_json::to_string(k).unwrap(), serde_json::to_string(v).unwrap())
        })
        .collect();
    reversed.reverse();
    let reordered = decode(&format!("{{{}}}", reversed.join(","))).unwrap();
    assert_eq!(serde_json::to_string(&reordered).unwrap(), full);

    // Unknown keys, scalar and nested, anywhere.
    let unknown = format!(r#"{{"aaa":{{"q":[1,{{"r":null}},"s"]}},"zzz":-1.5e3,{tail}"#);
    assert_eq!(serde_json::to_string(&decode(&unknown).unwrap()).unwrap(), full);

    // Repeated keys: the last one wins, whatever the earlier ones held.
    let repeated = decode(&format!(r#"{{"zeta":"bad","zeta":1,{tail}"#)).unwrap();
    assert_eq!(serde_json::to_string(&repeated).unwrap(), full);
    let last = decode(&with(r#""zeta":3,"alpha":null"#)).unwrap();
    assert_eq!((last.zeta, last.alpha), (3, None));
    assert!(decode(&with(r#""zeta":1,"zeta":"bad""#)).is_err());

    // Missing keys read as null: fine for an option or a unit struct,
    // an error for a number.
    let Value::Obj(mut map) = serde_json::parse(&full).unwrap() else { unreachable!() };
    map.remove("alpha");
    map.remove("marker");
    let sparse = decode(&serde_json::to_string(&Value::Obj(map.clone())).unwrap()).unwrap();
    assert_eq!((sparse.alpha, sparse.marker), (None, Marker));
    map.remove("zeta");
    assert!(decode(&serde_json::to_string(&Value::Obj(map)).unwrap()).is_err());
    assert!(decode("{}").is_err());

    // Enum spellings, unknown variants, and an object naming two
    // variants (the first declared wins, even when it fails).
    let shapes = |text: &str| decode_both::<Vec<Shape>>(text);
    assert_eq!(
        shapes(r#"[{"Struct":{"x":1,"y":2}},{"Tuple":[1,"t"],"Newtype":5},"Unit"]"#).unwrap(),
        vec![Shape::Struct { y: 2.0, x: Some(1) }, Shape::Newtype(5), Shape::Unit]
    );
    assert!(shapes(r#"[{"Newtype":"bad","Tuple":[1,"t"]}]"#).is_err());
    for bad in
        [r#"["Nope"]"#, r#"[{"Nope":1}]"#, r#"[{}]"#, "[1]", r#"[{"Tuple":[1]}]"#, r#"["Newtype"]"#]
    {
        assert!(shapes(bad).is_err(), "{bad}");
    }

    // Wrong shapes and broken text: a syntax error anywhere wins.
    for bad in [
        "[]".to_string(),
        "null".to_string(),
        format!("{full} x"),
        r#"{"zeta":1,}"#.to_string(),
        r#"{"zeta":"bad","alpha":tru}"#.to_string(),
        with(r#""zeta":-1"#),
        with(r#""map":[[1,"k",2.0]]"#),
        with(r#""map":[[[1,"k"],"x"]]"#),
        with(r#""pair":[1]"#),
        with(r#""span":{"secs":1,"nanos":-1}"#),
        full[..full.len() - 1].to_string(),
    ] {
        assert!(decode(&bad).is_err(), "{bad}");
    }
}

#[test]
fn an_unknown_key_nested_past_the_limit_is_a_recursion_error() {
    let full = serde_json::to_string(&probe("x")).unwrap();
    let deep = "[".repeat(200) + &"]".repeat(200);
    let text = format!(r#"{{"unknown":{deep},{}"#, &full[1..]);
    let err = decode_both::<Probe>(&text).unwrap_err();
    assert!(err.contains("recursion limit exceeded"), "{err}");
    // Just inside the limit, the same key is skipped.
    let limit = serde_json::RECURSION_LIMIT - 1;
    let shallow = "[".repeat(limit) + &"]".repeat(limit);
    let text = format!(r#"{{"unknown":{shallow},{}"#, &full[1..]);
    assert!(decode_both::<Probe>(&text).is_ok());
}
