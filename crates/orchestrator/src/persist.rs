//! Persistent run directories with resume-from-partial-run. The whole
//! run-dir format lives in this module.
//!
//! Layout of a run directory (schema [`MANIFEST_SCHEMA`]):
//!
//! ```text
//! <run_dir>/
//!   manifest.json          config, shard count, epoch count, schema
//!   shards/
//!     shard-0000.json      one completed shard's ShardOutput
//!     ...
//!   pool/
//!     epoch-0000.json      barrier 0's merged delta: [hash, source] pairs
//!     ...
//!   checkpoints/
//!     shard-0000-epoch-0000.json   runner checkpoint at barrier 0
//!     ...
//!   result.json            merged CampaignResult, written on completion
//!   summary.json           RunStats (incl. the extcc cache hit rate), on completion
//!   metrics.json           telemetry flight recorder (with telemetry on)
//!   trace.jsonl            Chrome trace events, one per line (with tracing on)
//! ```
//!
//! Every artifact is one JSON document (the trace excepted: it is JSON
//! lines), written by one writer (`RunDir::write_artifact`) and read
//! by one reader (`read_artifact`); the manifest is no exception.
//!
//! The `pool/` and `checkpoints/` files exist only for multi-epoch runs
//! (cross-shard feedback exchange). Each barrier atomically writes one
//! pool artifact, the barrier's merged delta as `[hash, source]` pairs,
//! and then, per shard, the paused runner's checkpoint *after* injection.
//! A pooled program's text is written once, in the pool artifact of the
//! barrier that first exchanged it: a checkpoint's feedback pool keeps
//! every entry's hash and own flag but leaves out each text a pool
//! artifact holds. Resuming a killed multi-epoch run restores every shard
//! at the latest barrier whose checkpoints all load and whose left-out
//! texts the pool artifacts fill, recomputing only the later epochs — so
//! a torn pool artifact falls back to the barrier before it.
//!
//! Each shard file is written once, when its shard completes, and holds
//! the full `ShardOutput` (its spec included). A shard counts as complete
//! exactly when its file parses as one `ShardOutput` whose spec matches
//! the planned one; anything else (missing file, torn or garbled bytes,
//! mismatched plan) makes the shard recompute on resume. The file
//! carries everything the merge needs, so resumed and fresh runs produce
//! bit-identical campaign results.
//!
//! ## Crash safety and the version gate
//!
//! Every artifact is written via a unique temp file in the same
//! directory plus an atomic rename, so a crash mid-write can never leave
//! a half-written artifact — only a stale `.tmp` leftover, which
//! [`RunDir::open`] sweeps away. Readers still tolerate damage from
//! outside that path: a torn or garbled shard file just recomputes its
//! whole shard, and a truncated checkpoint disqualifies only its barrier.
//!
//! [`RunDir::read_manifest`] is the version gate, and [`RunDir::open`]
//! goes through it. It reads the manifest's raw `schema` key before the
//! body, so a run dir written under any other schema — older, newer, or
//! pre-versioning (no `schema` key) — is refused with the typed
//! [`PersistError::SchemaMismatch`] whatever fields its body has. Behind
//! the gate every reader decodes this build's shapes only.
//!
//! Failures are never silent: artifact problems surface as the typed
//! [`PersistError`] taxonomy, and the best-effort writes (shard files,
//! pool artifacts and checkpoints) count into [`RunDir::persist_errors`],
//! which `summary.json` reports as `persist_errors`.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};

use llm4fp::{CampaignConfig, CampaignResult, RunnerCheckpoint, SuccessfulSet};
use llm4fp_telemetry::{MetricsReport, TraceEvent};

use crate::faults::PersistFault;
use crate::orchestrate::RunStats;
use crate::shard::{ShardOutput, ShardSpec};

/// The manifest schema this build reads and writes. Version 1 is the
/// pre-versioning layout (no `schema` key); version 2 added the key
/// itself; version 3 moved the feedback pool's text out of the
/// checkpoints into the `pool/` artifacts; version 4 writes each shard
/// file as one plain JSON document (`shards/shard-NNNN.json`). Opening a
/// run dir written by any other schema fails with
/// [`PersistError::SchemaMismatch`] instead of silently misreading it.
pub const MANIFEST_SCHEMA: u32 = 4;

/// Errors from the persistence layer.
#[derive(Debug)]
pub enum PersistError {
    Io(std::io::Error),
    /// A manifest exists but doesn't match the requested run.
    ManifestMismatch(String),
    /// The manifest exists but cannot be read as one. Only the manifest
    /// fails typed: any other damaged artifact just recomputes.
    Corrupt(String),
    /// The run dir was written by a manifest schema other than the one
    /// this build reads.
    SchemaMismatch {
        found: u32,
        supported: u32,
    },
    /// A value failed to serialize (e.g. a non-finite float somewhere in
    /// the stats). Surfaced instead of panicking so a persistence problem
    /// never kills an otherwise complete in-memory run.
    Encode(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "run-dir io error: {e}"),
            PersistError::ManifestMismatch(msg) => write!(f, "manifest mismatch: {msg}"),
            PersistError::Corrupt(detail) => {
                write!(f, "corrupt run dir (manifest.json): {detail}")
            }
            PersistError::SchemaMismatch { found, supported } => write!(
                f,
                "manifest schema {found} is not the schema this build reads ({supported}); \
                 refusing to misread the run dir"
            ),
            PersistError::Encode(msg) => write!(f, "serialization failed: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// Serialize `value` compactly, naming `what` in the error.
fn encode<T: Serialize + ?Sized>(what: &str, value: &T) -> Result<String, PersistError> {
    serde_json::to_string(value).map_err(|e| PersistError::Encode(format!("{what}: {e}")))
}

/// Serialize `value` pretty-printed, naming `what` in the error.
fn encode_pretty<T: Serialize + ?Sized>(what: &str, value: &T) -> Result<String, PersistError> {
    serde_json::to_string_pretty(value).map_err(|e| PersistError::Encode(format!("{what}: {e}")))
}

/// The one reader of artifact bytes.
fn read_artifact(path: &Path) -> io::Result<String> {
    fs::read_to_string(path)
}

/// Decode the JSON artifact at `path`. `None` when it is missing,
/// unreadable or not a `T`: callers treat a damaged artifact as absent.
fn load<T: DeserializeOwned>(path: &Path) -> Option<T> {
    serde_json::from_str(&read_artifact(path).ok()?).ok()
}

/// The run's identity: what was asked for, and how it was decomposed.
/// `epochs` is part of the identity — exchanged and non-exchanged runs of
/// the same `(config, shards)` produce different results, so their shard
/// outputs must never mix. `schema` versions the layout itself and is
/// *not* part of the identity comparison; [`RunDir::read_manifest`]
/// returns only manifests of [`MANIFEST_SCHEMA`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunManifest {
    pub config: CampaignConfig,
    pub shards: usize,
    pub epochs: usize,
    pub schema: u32,
}

impl RunManifest {
    /// A manifest for this build's schema version.
    pub fn new(config: CampaignConfig, shards: usize, epochs: usize) -> Self {
        RunManifest { config, shards, epochs, schema: MANIFEST_SCHEMA }
    }

    /// Whether two manifests describe the same run (config, decomposition
    /// and epoch plan — the schema version is a layout property, checked
    /// on its own).
    fn same_run(&self, other: &RunManifest) -> bool {
        self.config == other.config && self.shards == other.shards && self.epochs == other.epochs
    }
}

/// Shared mutable state of a [`RunDir`]: the persist-error and byte
/// counters, the pool texts the pool artifacts hold, and the armed
/// torn-write faults (empty outside chaos tests — one branch per write).
#[derive(Debug, Default)]
struct PersistState {
    errors: AtomicU64,
    /// Bytes of pool artifacts and checkpoints written.
    bytes: AtomicU64,
    /// Every text a pool artifact of this run dir holds, by hash: those
    /// this handle wrote (torn writes included — a writer cannot tell)
    /// and those it loaded. Checkpoints leave these texts out.
    pool: Mutex<HashMap<u64, Arc<str>>>,
    /// `(file-name substring, already fired)` — each fault fires once.
    torn_writes: Vec<(String, AtomicBool)>,
}

impl PersistState {
    /// Whether an armed torn-write fault claims this artifact write.
    /// Matched against `dir/name` so a plan can target one artifact
    /// (`"epoch-0001"`) or a whole class (`"checkpoints/"`).
    fn sabotage(&self, path: &Path) -> bool {
        if self.torn_writes.is_empty() {
            return false;
        }
        let name = path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
        let ident = match path.parent().and_then(|p| p.file_name()) {
            Some(dir) => format!("{}/{name}", dir.to_string_lossy()),
            None => name,
        };
        self.torn_writes.iter().any(|(needle, fired)| {
            ident.contains(needle.as_str())
                && fired.compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst).is_ok()
        })
    }
}

/// Handle to one run directory.
#[derive(Debug, Clone)]
pub struct RunDir {
    root: PathBuf,
    state: Arc<PersistState>,
}

impl RunDir {
    /// Open (creating it as needed) a run directory for the given
    /// manifest, sweeping any stale `.tmp` leftovers a crashed writer
    /// left behind. If a manifest is already present it must pass
    /// [`RunDir::read_manifest`]'s schema gate and describe the same run —
    /// resuming with a different config or shard count would silently mix
    /// incompatible shard outputs.
    pub fn open(root: impl Into<PathBuf>, manifest: &RunManifest) -> Result<Self, PersistError> {
        let dir = RunDir { root: root.into(), state: Arc::new(PersistState::default()) };
        sweep_stale_tmp_files(&dir.root);
        match RunDir::read_manifest(&dir.root) {
            Ok(existing) if existing.same_run(manifest) => {}
            Ok(_) => {
                return Err(PersistError::ManifestMismatch(format!(
                    "run dir {} was created for a different (config, shards); \
                     refusing to mix shard outputs",
                    dir.root.display()
                )))
            }
            Err(PersistError::Io(e)) if e.kind() == io::ErrorKind::NotFound => {
                let text = encode_pretty("manifest.json", manifest)?;
                dir.write_artifact(&dir.root.join("manifest.json"), &text)?;
            }
            Err(e) => return Err(e),
        }
        Ok(dir)
    }

    /// Open an existing run directory for reading only, with its
    /// manifest, which must pass [`RunDir::read_manifest`]'s gate. Unlike
    /// [`RunDir::open`] it neither sweeps `.tmp` files nor writes, so a
    /// report may read a run dir that a campaign is still writing.
    pub fn inspect(root: impl Into<PathBuf>) -> Result<(Self, RunManifest), PersistError> {
        let root = root.into();
        let manifest = RunDir::read_manifest(&root)?;
        Ok((RunDir { root, state: Arc::default() }, manifest))
    }

    /// Arm deterministic persistence faults for chaos testing (see
    /// [`PersistFault`]). Call right after [`open`](RunDir::open), before
    /// any artifact writes; an empty slice (the default) keeps every
    /// write on the one-branch fast path.
    pub fn with_persist_faults(mut self, faults: &[PersistFault]) -> Self {
        let torn_writes = faults
            .iter()
            .map(|fault| match fault {
                PersistFault::TornWrite(needle) => (needle.clone(), AtomicBool::new(false)),
            })
            .collect();
        self.state = Arc::new(PersistState {
            errors: AtomicU64::new(self.state.errors.load(Ordering::Relaxed)),
            torn_writes,
            ..PersistState::default()
        });
        self
    }

    /// Read the manifest of an existing run directory: the one manifest
    /// reader and the version gate. The raw `schema` key is checked
    /// before the body is decoded, so a manifest of any other schema is
    /// a [`PersistError::SchemaMismatch`] whatever its body holds (no key
    /// at all is the pre-versioning schema 1). A manifest that is no JSON
    /// object, or whose body this schema cannot decode, is
    /// [`PersistError::Corrupt`].
    pub fn read_manifest(root: impl AsRef<Path>) -> Result<RunManifest, PersistError> {
        let text = read_artifact(&root.as_ref().join("manifest.json"))?;
        let corrupt = |e: serde::Error| PersistError::Corrupt(e.to_string());
        let value = serde_json::parse(&text).map_err(corrupt)?;
        let fields =
            value.as_obj().ok_or_else(|| PersistError::Corrupt("not a JSON object".into()))?;
        let found = match fields.get("schema") {
            None => 1,
            Some(schema) => u32::from_value(schema).map_err(corrupt)?,
        };
        if found != MANIFEST_SCHEMA {
            return Err(PersistError::SchemaMismatch { found, supported: MANIFEST_SCHEMA });
        }
        serde_json::from_value(&value).map_err(corrupt)
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Count one dropped/failed best-effort write. Surfaced as
    /// `persist_errors` in `RunStats` / `summary.json`.
    pub fn note_persist_error(&self) {
        self.state.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// How many best-effort writes this run dir has dropped so far.
    pub fn persist_errors(&self) -> u64 {
        self.state.errors.load(Ordering::Relaxed)
    }

    /// Bytes of pool artifacts and checkpoints this handle has written
    /// (torn writes count in full). Surfaced as `checkpoint_bytes` in
    /// `RunStats` / `summary.json`.
    pub fn checkpoint_bytes(&self) -> u64 {
        self.state.bytes.load(Ordering::Relaxed)
    }

    /// The one writer of artifact bytes. It creates the artifact's
    /// directory, writes `contents` to a unique dot-prefixed temp file
    /// there, then atomically renames it over `path` — a crash mid-write
    /// leaves the old artifact intact (plus a `.tmp` leftover for the
    /// next [`RunDir::open`] to sweep), never a torn one. Temp names mix
    /// the pid and a process-wide counter so concurrent writers can't
    /// collide.
    ///
    /// The torn-write failpoint: a claimed write lands only its first
    /// half, bypassing temp+rename, is counted as a persist error, and
    /// reports success — artifact writes are best-effort, so the run
    /// continues and the damaged file exercises the resume-side
    /// tolerance instead.
    fn write_artifact(&self, path: &Path, contents: &str) -> Result<(), PersistError> {
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        if self.state.sabotage(path) {
            let _ = fs::write(path, &contents.as_bytes()[..contents.len() / 2]);
            self.note_persist_error();
            return Ok(());
        }
        let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let name = path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
        let tmp = path.with_file_name(format!(".{name}.{}-{seq}.tmp", std::process::id()));
        fs::write(&tmp, contents)?;
        if let Err(e) = fs::rename(&tmp, path) {
            let _ = fs::remove_file(&tmp);
            return Err(e.into());
        }
        Ok(())
    }

    fn shard_path(&self, index: usize) -> PathBuf {
        self.root.join("shards").join(format!("shard-{index:04}.json"))
    }

    /// Load a shard's output if its file is one complete `ShardOutput`
    /// that matches `spec`. Anything else — a missing, torn, garbled or
    /// stale file — yields `None` and the shard reruns: damage means
    /// recompute, never `Corrupt`.
    pub fn load_shard(&self, spec: &ShardSpec) -> Option<ShardOutput> {
        load::<ShardOutput>(&self.shard_path(spec.index)).filter(|output| output.spec == *spec)
    }

    /// Atomically write one completed shard's file.
    pub fn write_shard(&self, output: &ShardOutput) -> Result<(), PersistError> {
        self.write_artifact(&self.shard_path(output.spec.index), &encode("shard file", output)?)
    }

    fn checkpoint_path(&self, shard: usize, epoch: usize) -> PathBuf {
        self.root.join("checkpoints").join(format!("shard-{shard:04}-epoch-{epoch:04}.json"))
    }

    fn pool_path(&self, epoch: usize) -> PathBuf {
        self.root.join("pool").join(format!("epoch-{epoch:04}.json"))
    }

    /// [`RunDir::write_artifact`] for a pool artifact or checkpoint,
    /// counting its bytes.
    fn write_counted(&self, path: &Path, contents: &str) -> Result<(), PersistError> {
        self.write_artifact(path, contents)?;
        self.state.bytes.fetch_add(contents.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Atomically record a barrier's merged delta as `[hash, source]`
    /// pairs. Write it before the barrier's checkpoints: once written,
    /// checkpoints leave its texts out.
    pub fn write_pool(&self, epoch: usize, delta: &SuccessfulSet) -> Result<(), PersistError> {
        let entries: Vec<(u64, &str)> =
            delta.hashes().iter().copied().zip(delta.sources().iter().map(|s| &**s)).collect();
        self.write_counted(&self.pool_path(epoch), &encode("pool artifact", &entries)?)?;
        let mut pool = self.state.pool.lock().unwrap();
        for (&hash, source) in delta.hashes().iter().zip(delta.sources()) {
            pool.entry(hash).or_insert_with(|| Arc::clone(source));
        }
        Ok(())
    }

    /// Load one barrier's pool artifact, if present and parseable, into
    /// the texts this handle fills checkpoints from.
    fn load_pool(&self, epoch: usize) {
        let Some(entries) = load::<Vec<(u64, String)>>(&self.pool_path(epoch)) else { return };
        let mut pool = self.state.pool.lock().unwrap();
        for (hash, source) in entries {
            pool.entry(hash).or_insert_with(|| Arc::from(source));
        }
    }

    /// Atomically record one shard's paused-runner checkpoint at a barrier
    /// (taken after the barrier's injection). Its feedback pool leaves out
    /// every text a pool artifact holds.
    pub fn write_checkpoint(
        &self,
        shard: usize,
        epoch: usize,
        checkpoint: &RunnerCheckpoint,
    ) -> Result<(), PersistError> {
        let mut checkpoint = checkpoint.clone();
        {
            let pool = self.state.pool.lock().unwrap();
            checkpoint.successful.leave_out(|hash| pool.contains_key(&hash));
        }
        self.write_counted(&self.checkpoint_path(shard, epoch), &encode("checkpoint", &checkpoint)?)
    }

    /// Load one shard's checkpoint at a barrier, if present, parseable,
    /// whole and fillable: it must pass [`RunnerCheckpoint::validate`], and
    /// every text it leaves out must be one this handle
    /// holds from a pool artifact. Anything else (a truncated checkpoint,
    /// a damaged RNG state, a lost pool text) simply disqualifies its
    /// barrier — resume falls back to an earlier restorable one.
    pub fn load_checkpoint(&self, shard: usize, epoch: usize) -> Option<RunnerCheckpoint> {
        let mut checkpoint: RunnerCheckpoint = load(&self.checkpoint_path(shard, epoch))?;
        checkpoint.validate().ok()?;
        let pool = self.state.pool.lock().unwrap();
        checkpoint.successful.fill(|hash| pool.get(&hash).cloned()).ok()?;
        Some(checkpoint)
    }

    /// The latest barrier a killed multi-epoch run can restore from: the
    /// highest epoch `< epochs - 1` at which *all* shard checkpoints load
    /// and fill from the pool artifacts, returned with those checkpoints
    /// in shard order. `None` means restart from scratch.
    pub fn latest_restorable_epoch(
        &self,
        shards: usize,
        epochs: usize,
    ) -> Option<(usize, Vec<RunnerCheckpoint>)> {
        let barriers = epochs.saturating_sub(1);
        // Barriers merge only what no shard held before, so no text sits
        // in two pool artifacts: every readable one can fill any barrier,
        // and a lost one only fails the barriers that need its texts.
        for epoch in 0..barriers {
            self.load_pool(epoch);
        }
        (0..barriers).rev().find_map(|epoch| {
            let checkpoints: Option<Vec<_>> =
                (0..shards).map(|shard| self.load_checkpoint(shard, epoch)).collect();
            Some((epoch, checkpoints?))
        })
    }

    /// Persist the merged campaign result.
    pub fn write_result(&self, result: &CampaignResult) -> Result<(), PersistError> {
        self.write_artifact(&self.root.join("result.json"), &encode_pretty("result.json", result)?)
    }

    /// Load a previously persisted merged result, if any.
    pub fn load_result(&self) -> Option<CampaignResult> {
        load(&self.root.join("result.json"))
    }

    /// Persist the run's execution statistics (worker/shard/epoch counts
    /// and, for an external-backend run in process, the result-cache hit
    /// rate) alongside the merged result.
    /// Serialization failures propagate as [`PersistError::Encode`] —
    /// completeness checks depend on `summary.json`, so a silently
    /// missing or partial summary must never look like success.
    pub fn write_summary(&self, stats: &RunStats) -> Result<(), PersistError> {
        self.write_artifact(&self.root.join("summary.json"), &encode_pretty("summary.json", stats)?)
    }

    /// Load a previously persisted run summary, if any.
    pub fn load_summary(&self) -> Option<RunStats> {
        load(&self.root.join("summary.json"))
    }

    /// Persist the deterministic metrics flight recorder. For fully
    /// computed runs the bytes are a pure function of `(config, K, E)` —
    /// diffable between runs like any other campaign artifact.
    pub fn write_metrics(&self, report: &MetricsReport) -> Result<(), PersistError> {
        self.write_artifact(
            &self.root.join("metrics.json"),
            &encode_pretty("metrics.json", report)?,
        )
    }

    /// Load a previously persisted metrics report, if any.
    pub fn load_metrics(&self) -> Option<MetricsReport> {
        load(&self.root.join("metrics.json"))
    }

    /// Persist the Chrome `trace_event` flight recorder as JSON lines
    /// (`chrome://tracing` and Perfetto both ingest the format). Wall
    /// clock data — unlike `metrics.json` it never reproduces exactly.
    pub fn write_trace(&self, events: &[TraceEvent]) -> Result<(), PersistError> {
        let mut out = String::new();
        for event in events {
            out.push_str(&event.to_json_line());
            out.push('\n');
        }
        self.write_artifact(&self.root.join("trace.jsonl"), &out)
    }

    /// Load the persisted trace's JSON lines, if any.
    pub fn load_trace_lines(&self) -> Option<Vec<String>> {
        let text = read_artifact(&self.root.join("trace.jsonl")).ok()?;
        Some(text.lines().map(str::to_string).collect())
    }
}

/// Remove `.tmp` leftovers a crashed writer left in the run dir's
/// artifact directories (never recursive — artifacts live exactly one
/// level deep). Best-effort: an unreadable dir just skips.
fn sweep_stale_tmp_files(root: &Path) {
    for dir in
        [root.to_path_buf(), root.join("shards"), root.join("pool"), root.join("checkpoints")]
    {
        let Ok(entries) = fs::read_dir(dir) else { continue };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().is_some_and(|ext| ext == "tmp") && path.is_file() {
                let _ = fs::remove_file(path);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llm4fp::ApproachKind;
    use serde_json::Value;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("llm4fp-orchestrator-tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn manifest() -> RunManifest {
        RunManifest::new(
            CampaignConfig::new(ApproachKind::Varity).with_budget(6).with_seed(2),
            2,
            1,
        )
    }

    #[test]
    fn manifests_round_trip_and_mismatches_are_rejected() {
        let root = temp_dir("manifest");
        let m = manifest();
        let _dir = RunDir::open(&root, &m).unwrap();
        let read = RunDir::read_manifest(&root).unwrap();
        assert_eq!(read, m);
        assert_eq!(read.schema, MANIFEST_SCHEMA);
        // Reopening with the same manifest is fine.
        RunDir::open(&root, &m).unwrap();
        // A different plan is refused.
        let other = RunManifest { shards: 3, ..m };
        assert!(matches!(RunDir::open(&root, &other), Err(PersistError::ManifestMismatch(_))));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn other_schema_dirs_are_refused_with_a_typed_mismatch() {
        let root = temp_dir("schema");
        let m = manifest();
        let _dir = RunDir::open(&root, &m).unwrap();
        let body = serde_json::to_value(&m);
        let Value::Obj(fields) = &body else { panic!("a manifest is an object") };
        // A dir written by any other schema must not be misread: a future
        // one, schema 3 (one-line JSONL shard files), schema 2 (whose
        // checkpoints hold the pool's text), and a pre-versioning one (no
        // schema key at all, read as schema 1).
        for schema in [Some(MANIFEST_SCHEMA + 97), Some(3), Some(2), None] {
            let mut other = fields.clone();
            match schema {
                Some(schema) => other.insert("schema".into(), serde_json::to_value(&schema)),
                None => other.remove("schema"),
            };
            fs::write(
                root.join("manifest.json"),
                serde_json::to_string(&Value::Obj(other)).unwrap(),
            )
            .unwrap();
            match RunDir::open(&root, &m) {
                Err(PersistError::SchemaMismatch { found, supported }) => {
                    assert_eq!(found, schema.unwrap_or(1));
                    assert_eq!(supported, MANIFEST_SCHEMA);
                }
                other => panic!("expected SchemaMismatch for {schema:?}, got {other:?}"),
            }
        }
        let refusal = PersistError::SchemaMismatch { found: 2, supported: MANIFEST_SCHEMA };
        assert!(refusal.to_string().contains("schema 2"), "{refusal}");
        // Unparseable manifests, and manifests that are no JSON object,
        // are typed corruption, naming the artifact.
        for damaged in ["{torn", "[4]"] {
            fs::write(root.join("manifest.json"), damaged).unwrap();
            let err = RunDir::open(&root, &m).unwrap_err();
            assert!(matches!(err, PersistError::Corrupt(_)), "{err}");
            assert!(err.to_string().contains("manifest.json"), "{err}");
        }
        let _ = fs::remove_dir_all(&root);
    }

    fn shard_output(config: &CampaignConfig, spec: ShardSpec) -> ShardOutput {
        let mut runner = crate::shard::ShardRunner::new(config, spec, None);
        runner.run_segment(spec.budget, |_| {});
        runner.finish()
    }

    #[test]
    fn incomplete_shard_files_do_not_load() {
        let root = temp_dir("incomplete");
        let dir = RunDir::open(&root, &manifest()).unwrap();
        let config = manifest().config;
        let spec = crate::shard::plan_shards(&config, 2)[0];
        let output = shard_output(&config, spec);
        dir.write_shard(&output).unwrap();
        let path = root.join("shards").join("shard-0000.json");
        let full = fs::read_to_string(&path).unwrap();
        assert_eq!(dir.load_shard(&spec).unwrap(), output);
        // Half the document, the output wrapped as a schema-3 summary
        // line, the output of another plan, two documents, and no file
        // at all: none of them is a complete shard.
        let mut other = output.clone();
        other.spec.seed ^= 1;
        for damaged in [
            full[..full.len() / 2].to_string(),
            format!("{{\"summary\":{full}}}\n"),
            serde_json::to_string(&other).unwrap(),
            format!("{full}{full}"),
        ] {
            fs::write(&path, &damaged).unwrap();
            assert!(dir.load_shard(&spec).is_none(), "{}", &damaged[..damaged.len().min(40)]);
        }
        fs::remove_file(&path).unwrap();
        assert!(dir.load_shard(&spec).is_none());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn schema_3_shard_files_are_never_loaded() {
        // Schema 3 wrote `shards/shard-NNNN.jsonl`, one `{"summary":…}`
        // line. This schema never opens that name, whatever it holds.
        let root = temp_dir("schema-3-shards");
        let dir = RunDir::open(&root, &manifest()).unwrap();
        let config = manifest().config;
        let spec = crate::shard::plan_shards(&config, 2)[0];
        let output = shard_output(&config, spec);
        let plain = serde_json::to_string(&output).unwrap();
        let legacy = root.join("shards").join("shard-0000.jsonl");
        fs::create_dir_all(root.join("shards")).unwrap();
        for text in [format!("{{\"summary\":{plain}}}\n"), plain] {
            fs::write(&legacy, text).unwrap();
            assert!(dir.load_shard(&spec).is_none(), "a .jsonl shard file loaded");
        }
        dir.write_shard(&output).unwrap();
        assert_eq!(dir.load_shard(&spec).unwrap(), output);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_shard_tails_are_partial_progress_not_corruption() {
        let root = temp_dir("torn-tail");
        let dir = RunDir::open(&root, &manifest()).unwrap();
        let config = manifest().config;
        let spec = crate::shard::plan_shards(&config, 2)[0];
        let output = shard_output(&config, spec);
        dir.write_shard(&output).unwrap();
        // Tear the file mid-document, as an outside writer might: the
        // incomplete shard recomputes (None), with no panic or Corrupt.
        let path = root.join("shards").join("shard-0000.json");
        let full = fs::read_to_string(&path).unwrap();
        let parsed: ShardOutput = serde_json::from_str(&full).unwrap();
        assert_eq!(parsed, output, "a shard file is one ShardOutput document");
        let torn: String = full.chars().take(full.len() / 2).collect();
        fs::write(&path, &torn).unwrap();
        assert!(dir.load_shard(&spec).is_none());
        // Binary garbage over the tail: still no shard.
        let mut garbled = full.clone().into_bytes();
        let tail = garbled.len() / 2;
        garbled[tail..].fill(0xFF);
        fs::write(&path, &garbled).unwrap();
        assert!(dir.load_shard(&spec).is_none());
        // ASCII garbage that keeps the file valid UTF-8: still no shard.
        garbled[tail..].fill(b'#');
        fs::write(&path, &garbled).unwrap();
        assert!(dir.load_shard(&spec).is_none());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn barrier_checkpoints_round_trip() {
        let root = temp_dir("epochs");
        let dir = RunDir::open(&root, &manifest()).unwrap();
        let config = manifest().config;
        let spec = crate::shard::plan_shards(&config, 2)[0];

        let mut pool = llm4fp::SuccessfulSet::new();
        pool.insert("void compute(double x) { comp = x; }");
        let mut runner = crate::shard::ShardRunner::new(&config, spec, None);
        runner.run_segment(2, |_| {});
        runner.inject(&pool);
        let checkpoint = runner.checkpoint();
        dir.write_checkpoint(0, 0, &checkpoint).unwrap();
        assert_eq!(dir.load_checkpoint(0, 0).unwrap(), checkpoint);

        // Epoch 0 is restorable only once every shard has a checkpoint.
        assert_eq!(dir.latest_restorable_epoch(2, 4), None);
        dir.write_checkpoint(1, 0, &checkpoint).unwrap();
        assert_eq!(
            dir.latest_restorable_epoch(2, 4),
            Some((0, vec![checkpoint.clone(), checkpoint])),
            "a restorable barrier comes with its checkpoints, in shard order"
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn checkpoints_leave_pool_texts_out_and_fill_them_from_pool_artifacts() {
        let root = temp_dir("pool");
        let m = RunManifest::new(manifest().config, 1, 3);
        let dir = RunDir::open(&root, &m).unwrap();
        let spec = crate::shard::plan_shards(&m.config, 1)[0];
        let mut pool = llm4fp::SuccessfulSet::new();
        pool.insert("void compute(double x) { comp = x * 2.0; }");
        let mut runner = crate::shard::ShardRunner::new(&m.config, spec, None);
        runner.run_segment(2, |_| {});
        runner.inject(&pool);
        let checkpoint = runner.checkpoint();

        dir.write_pool(0, &pool).unwrap();
        dir.write_checkpoint(0, 0, &checkpoint).unwrap();
        let text = fs::read_to_string(root.join("checkpoints/shard-0000-epoch-0000.json")).unwrap();
        assert!(!text.contains("comp = x * 2.0"), "the pooled text is written once, in pool/");
        assert_eq!(dir.load_checkpoint(0, 0).unwrap(), checkpoint, "filled from the pool");
        assert_eq!(
            dir.checkpoint_bytes(),
            fs::metadata(root.join("pool/epoch-0000.json")).unwrap().len() + text.len() as u64,
            "pool and checkpoint bytes are counted"
        );
        // A fresh handle fills from the artifact on disk; without it the
        // barrier cannot restore.
        let reopened = RunDir::open(&root, &m).unwrap();
        assert_eq!(reopened.latest_restorable_epoch(1, 3), Some((0, vec![checkpoint])));
        fs::remove_file(root.join("pool/epoch-0000.json")).unwrap();
        let reopened = RunDir::open(&root, &m).unwrap();
        assert_eq!(reopened.load_checkpoint(0, 0), None, "a left-out text nobody holds");
        assert_eq!(reopened.latest_restorable_epoch(1, 3), None);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn truncated_checkpoints_disqualify_their_barrier_only() {
        let root = temp_dir("truncated-checkpoint");
        let m = RunManifest::new(manifest().config, 1, 4);
        let dir = RunDir::open(&root, &m).unwrap();
        let config = m.config;
        let spec = crate::shard::plan_shards(&config, 1)[0];
        let mut runner = crate::shard::ShardRunner::new(&config, spec, None);
        runner.run_segment(2, |_| {});
        for epoch in 0..2 {
            dir.write_checkpoint(0, epoch, &runner.checkpoint()).unwrap();
        }
        let barrier = |dir: &RunDir| dir.latest_restorable_epoch(1, 4).map(|(b, _)| b);
        assert_eq!(barrier(&dir), Some(1));
        // Truncate the latest barrier's checkpoint mid-file: resume falls
        // back to the previous complete barrier instead of failing.
        let path = root.join("checkpoints").join("shard-0000-epoch-0001.json");
        let full = fs::read_to_string(&path).unwrap();
        fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert!(dir.load_checkpoint(0, 1).is_none());
        assert_eq!(barrier(&dir), Some(0));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn complete_shards_round_trip_and_stale_specs_are_ignored() {
        let root = temp_dir("roundtrip");
        let dir = RunDir::open(&root, &manifest()).unwrap();
        let config = manifest().config;
        let spec = crate::shard::plan_shards(&config, 2)[0];
        let output = shard_output(&config, spec);
        dir.write_shard(&output).unwrap();
        assert_eq!(dir.load_shard(&spec).unwrap(), output);
        assert_eq!(dir.persist_errors(), 0, "healthy writes count nothing");
        // A spec from a different plan must not accept this file.
        let stale = ShardSpec { budget: spec.budget + 1, ..spec };
        assert!(dir.load_shard(&stale).is_none());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn stale_tmp_leftovers_are_swept_on_open() {
        let root = temp_dir("sweep");
        let m = manifest();
        let _dir = RunDir::open(&root, &m).unwrap();
        let leftover = root.join(".result.json.999-0.tmp");
        let nested = root.join("checkpoints");
        fs::create_dir_all(&nested).unwrap();
        let nested_leftover = nested.join(".shard-0000-epoch-0000.json.999-1.tmp");
        fs::write(&leftover, "{half").unwrap();
        fs::write(&nested_leftover, "{half").unwrap();
        RunDir::open(&root, &m).unwrap();
        assert!(!leftover.exists());
        assert!(!nested_leftover.exists());
        // The real artifacts survive the sweep.
        assert!(root.join("manifest.json").exists());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_write_faults_fire_once_count_and_damage_the_artifact() {
        let root = temp_dir("torn-write");
        let dir = RunDir::open(&root, &manifest())
            .unwrap()
            .with_persist_faults(&[PersistFault::TornWrite("epoch".into())]);
        let config = manifest().config;
        let spec = crate::shard::plan_shards(&config, 2)[0];
        let mut runner = crate::shard::ShardRunner::new(&config, spec, None);
        runner.run_segment(2, |_| {});
        let checkpoint = runner.checkpoint();
        // The claimed write reports success but lands torn and counted.
        dir.write_checkpoint(0, 0, &checkpoint).unwrap();
        assert_eq!(dir.persist_errors(), 1);
        assert_eq!(dir.load_checkpoint(0, 0), None, "torn checkpoint must not parse");
        // The fault fired: the next matching write is healthy.
        dir.write_checkpoint(0, 1, &checkpoint).unwrap();
        assert_eq!(dir.persist_errors(), 1);
        assert_eq!(dir.load_checkpoint(0, 1).unwrap(), checkpoint);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn failed_shard_writes_are_counted_not_silent() {
        let root = temp_dir("failed-shard-writes");
        let config = manifest().config;
        let spec = crate::shard::plan_shards(&config, 2)[0];
        let output = shard_output(&config, spec);
        // A directory squatting on the shard path fails the write with a
        // real io error, which the caller counts.
        let dir = RunDir::open(&root, &manifest()).unwrap();
        fs::create_dir_all(root.join("shards").join("shard-0000.json")).unwrap();
        assert!(matches!(dir.write_shard(&output), Err(PersistError::Io(_))));
        assert!(dir.load_shard(&spec).is_none());
        let _ = fs::remove_dir_all(&root);
        // A torn shard write reports success but is counted, and the torn
        // file never loads as complete.
        let dir = RunDir::open(&root, &manifest())
            .unwrap()
            .with_persist_faults(&[PersistFault::TornWrite("shards/".into())]);
        dir.write_shard(&output).unwrap();
        assert_eq!(dir.persist_errors(), 1, "the torn write is counted");
        assert!(dir.load_shard(&spec).is_none(), "a torn shard file must not load");
        // The fault fired once: the rewrite lands whole.
        dir.write_shard(&output).unwrap();
        assert_eq!(dir.persist_errors(), 1);
        assert_eq!(dir.load_shard(&spec).unwrap(), output);
        let _ = fs::remove_dir_all(&root);
    }
}
