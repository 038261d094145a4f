//! The out-of-process executor: `llm4fp-worker --connect` daemons
//! supervised over TCP by leases, heartbeats, reconnect-and-resume and
//! process respawn.
//!
//! [`WorkerExecutor`] implements [`ShardExecutor`] with the wire
//! vocabulary of [`crate::wire`] served over a TCP socket: the
//! coordinator binds a listener, workers dial in, each stream opens with
//! the versioned handshake (worker [`WireReply::Hello`] first,
//! coordinator [`WireRequest::Hello`] or a typed
//! [`WireRequest::Refuse`]), and then jobs flow one at a time per
//! connection. By default the session spawns its own workers on
//! loopback (`--executor process-pool` and `--executor remote` are two
//! spellings of this executor); the same executor accepts external
//! workers dialing from anywhere (`worker_procs = 0` spawns nothing and
//! waits). Every setting lives in one [`SupervisionConfig`].
//!
//! The executor is a [`ShardTransport`]: the [`Session`] that every
//! executor shares holds the shards' checkpoints between epochs and hands
//! each epoch's jobs over. Connection threads move jobs and answers
//! through one [`EpochState`] dispatch ledger per epoch
//! ([`crate::supervisor`]); the settled ledger's answers go back to the
//! session in job order, after the finished shards' files are written.
//!
//! [`Session`]: crate::executor::Session
//!
//! * **The pool travels by hash** — each connection remembers the hashes
//!   whose text it has carried, and a job leaves those texts out; an
//!   answer's checkpoint carries no pool text, and the session fills it
//!   from the job's pool and the answer's delta (see [`crate::wire`]).
//!
//! * **Leases** — every dispatch holds a deadline lease
//!   ([`SupervisionConfig::lease_timeout`]) identified by a generation
//!   number stamped into the job, unique across the session. A job is
//!   dispatched once per attempt, so a connection awaits exactly one
//!   lease. Any result frame that does not carry the awaited lease — a
//!   retransmission, a leftover of a folded epoch — is discarded and
//!   counted as stale, never merged. Results stay a pure function of
//!   `(config, K, E)` no matter how late the network delivers stale
//!   bytes.
//! * **One end for a failed dispatch** — a crash, a dropped or torn
//!   stream, a protocol violation or an expired lease all end the
//!   connection the same way: the lease is abandoned (the job re-enters
//!   the queue for any connection) and the connection closes. A worker
//!   that went silent — its lease expired, or it missed a heartbeat — is
//!   also killed, process group and all, if this session spawned it;
//!   its `Hello` names its pid, which is how the connection finds its
//!   process.
//! * **Heartbeats** — an idle connection is probed with
//!   [`WireRequest::Ping`] every 2 s and must answer
//!   [`WireReply::Pong`] within another 2 s, so a silent half-open
//!   socket cannot hold a future lease forever.
//! * **Reconnect-and-resume** — a dropped worker redials (the worker
//!   binary's `--reconnect` budget), passes the handshake again, and is
//!   simply handed the next queued job: shard state lives
//!   coordinator-side between epochs, so the resumed job carries
//!   everything the fresh connection needs. Worker processes hold no
//!   state between jobs.
//! * **Respawn** — a self-spawned worker that exits or is killed is
//!   respawned; a failed spawn attempt retries after a fixed 25 ms.
//! * **Worker unavailability** — a session whose workers cannot be
//!   spawned at all, or an epoch with no connected worker for
//!   [`SupervisionConfig::worker_wait`], surfaces
//!   [`OrchestratorError::WorkerUnavailable`]; a job that fails
//!   [`MAX_DISPATCH_ATTEMPTS`](crate::supervisor::MAX_DISPATCH_ATTEMPTS)
//!   times surfaces
//!   [`OrchestratorError::Executor`]. Either way the run directory
//!   resumes under any executor.
//!
//! Deterministic chaos drives all of this through
//! [`SupervisionConfig::faults`]: worker faults ship to the self-spawned
//! workers via the fault env, `respawn_failures` fail the coordinator's
//! respawn attempts, and `RefuseHandshake` arms the acceptor. A fault may
//! cost time, never bits — a run that completes under any fault is
//! bit-identical to the fault-free in-process run.

use std::collections::HashSet;
use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use llm4fp_extcc::{group_spawn, kill_group};
use llm4fp_telemetry::{keys, Telemetry};

use crate::executor::{
    persist_output, OrchestratorError, SessionOutcome, ShardExecutor, ShardTask, ShardTransport,
};
use crate::faults::{self, FaultPlan};
use crate::orchestrate::default_workers;
use crate::persist::RunDir;
use crate::supervisor::{EpochState, SupervisionCounts};
use crate::wire::{self, Hello, ShardJob, ShardJobResult, WireReply, WireRequest};

/// How long an accepted connection gets to present its `Hello` before
/// the handler gives up on it (keeps a port-scanner's silent connection
/// from pinning a handler thread forever).
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

/// How often the session checks its self-spawned workers for exits.
const EXIT_POLL: Duration = Duration::from_millis(2);

/// How long a connection may sit idle before the coordinator probes it
/// with a ping, and how long the worker then has to answer with a pong.
const HEARTBEAT: Duration = Duration::from_secs(2);

/// How long a worker slot waits after a failed spawn attempt before the
/// next one.
const RESPAWN_RETRY: Duration = Duration::from_millis(25);

/// Everything that configures a [`WorkerExecutor`]. Build it as a struct
/// literal over [`Default`]:
///
/// ```
/// use llm4fp_orchestrator::SupervisionConfig;
///
/// let config = SupervisionConfig { worker_procs: 4, ..SupervisionConfig::default() };
/// assert_eq!(config.worker_wait.as_secs(), 30);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisionConfig {
    /// Worker daemons the session spawns on loopback at
    /// [`begin`](ShardExecutor::begin) (`llm4fp-worker --connect`), and
    /// respawns when they exit. `0` spawns nothing: the session serves
    /// whatever external workers dial [`WorkerExecutor::bound_addr`].
    /// Defaults to the available parallelism.
    pub worker_procs: usize,
    /// The coordinator's bind address. Defaults to `127.0.0.1:0` (an
    /// ephemeral loopback port); use e.g. `0.0.0.0:7070` to accept
    /// workers from other machines.
    pub listen: String,
    /// The worker daemon binary. `None` resolves `llm4fp-worker` next to
    /// the current executable.
    pub worker_bin: Option<PathBuf>,
    /// The deadline lease on one dispatched segment. A worker that
    /// neither answers nor disconnects within it loses the lease: the
    /// job re-dispatches, the connection closes, and the worker is
    /// killed if this session spawned it. Defaults to 300 s. This is the
    /// only way a job leaves a worker that hangs while still connected:
    /// nothing duplicates a running job, so a hung worker holds its job
    /// for the full lease.
    pub lease_timeout: Duration,
    /// How long an epoch tolerates *zero connected workers* before
    /// failing with [`OrchestratorError::WorkerUnavailable`]. The clock
    /// resets whenever any worker is connected. Defaults to 30 s.
    pub worker_wait: Duration,
    /// A deterministic [`FaultPlan`] for chaos testing (empty by default,
    /// which costs one branch per site). Worker faults ship to the
    /// self-spawned workers via [`crate::faults::FAULT_PLAN_ENV`],
    /// `respawn_failures` fail the coordinator's respawn attempts, and
    /// [`RefuseHandshake`](crate::faults::WorkerFault::RefuseHandshake)
    /// arms the acceptor. ([`PersistFault`](crate::faults::PersistFault)s
    /// belong to the orchestrator — see
    /// [`crate::Orchestrator::persist_faults`].)
    pub faults: FaultPlan,
}

impl Default for SupervisionConfig {
    fn default() -> Self {
        SupervisionConfig {
            worker_procs: default_workers(),
            listen: "127.0.0.1:0".into(),
            worker_bin: None,
            lease_timeout: Duration::from_secs(300),
            worker_wait: Duration::from_secs(30),
            faults: FaultPlan::none(),
        }
    }
}

/// The [`ShardExecutor`] backed by `llm4fp-worker` daemons dialing in
/// over TCP.
#[derive(Debug, Clone)]
pub struct WorkerExecutor {
    config: SupervisionConfig,
    /// The address actually bound at [`begin`](ShardExecutor::begin)
    /// (resolves `:0` to the kernel-assigned port), shared across clones
    /// so callers can tell external workers where to dial.
    bound: Arc<Mutex<Option<SocketAddr>>>,
}

impl WorkerExecutor {
    /// An executor supervising workers as `config` says.
    pub fn new(config: SupervisionConfig) -> Self {
        WorkerExecutor { config, bound: Arc::new(Mutex::new(None)) }
    }

    /// The socket address the live session actually bound (`None`
    /// before [`begin`](ShardExecutor::begin)). With a `…:0` listen
    /// address this is where external workers must dial.
    pub fn bound_addr(&self) -> Option<SocketAddr> {
        *self.bound.lock().unwrap()
    }
}

/// Resolve the `llm4fp-worker` binary: the explicit path, else
/// `llm4fp-worker` next to the current executable.
fn resolve_worker_bin(explicit: Option<&Path>) -> Result<PathBuf, OrchestratorError> {
    if let Some(bin) = explicit {
        return Ok(bin.to_path_buf());
    }
    let exe = std::env::current_exe().map_err(|e| {
        OrchestratorError::WorkerUnavailable(format!("cannot locate current executable: {e}"))
    })?;
    let mut dir = exe.parent().unwrap_or_else(|| Path::new(".")).to_path_buf();
    // Test binaries live in target/<profile>/deps/; the worker bin
    // sits one level up in target/<profile>/.
    if dir.file_name().is_some_and(|name| name == "deps") {
        dir.pop();
    }
    let bin = dir.join(format!("llm4fp-worker{}", std::env::consts::EXE_SUFFIX));
    if bin.exists() {
        Ok(bin)
    } else {
        Err(OrchestratorError::WorkerUnavailable(format!(
            "worker binary not found at {} (build it with `cargo build -p \
             llm4fp-orchestrator --bin llm4fp-worker`, or set \
             SupervisionConfig::worker_bin)",
            bin.display()
        )))
    }
}

impl ShardExecutor for WorkerExecutor {
    fn connect(&self, tasks: &[ShardTask]) -> Result<Box<dyn ShardTransport>, OrchestratorError> {
        let config = &self.config;
        // A coordinator that cannot even bind has no transport at all —
        // the WorkerUnavailable class.
        let listener = TcpListener::bind(&config.listen).map_err(|e| {
            OrchestratorError::WorkerUnavailable(format!(
                "cannot bind coordinator socket {}: {e}",
                config.listen
            ))
        })?;
        let addr = listener.local_addr().map_err(|e| {
            OrchestratorError::WorkerUnavailable(format!("cannot resolve bound address: {e}"))
        })?;
        *self.bound.lock().unwrap() = Some(addr);
        let worker_procs = config.worker_procs.min(tasks.len());
        let shared = Arc::new(Shared {
            slot: Mutex::new(None),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            accepting: AtomicBool::new(true),
            workers_live: AtomicUsize::new(0),
            refuse_budget: AtomicU32::new(config.faults.refuse_handshakes()),
            children: Mutex::new(Vec::with_capacity(worker_procs)),
            respawns: AtomicU64::new(0),
            stale_results: AtomicU64::new(0),
            frame_bytes: AtomicU64::new(0),
            lease_timeout: config.lease_timeout,
            lanes: tasks.iter().map(|task| task.telemetry.clone()).collect(),
            pool_start: Instant::now(),
        });
        let acceptor = thread::spawn({
            let shared = Arc::clone(&shared);
            move || accept_loop(&listener, &shared)
        });
        let mut transport = WorkerTransport {
            run_dirs: tasks.iter().map(|task| task.run_dir.clone()).collect(),
            next_lease: 1,
            redispatches: 0,
            shared,
            acceptor: Some(acceptor),
            supervisor: None,
            addr,
            worker_wait: config.worker_wait,
        };
        if worker_procs > 0 {
            // On any failure below `transport` drops: shut down, and
            // already-spawned siblings reaped.
            let spawner = Spawner {
                bin: resolve_worker_bin(config.worker_bin.as_deref())?,
                addr,
                faults: config.faults.clone(),
            };
            for slot in 0..worker_procs {
                let child = spawner.spawn(slot == 0).map_err(|e| {
                    OrchestratorError::WorkerUnavailable(format!(
                        "cannot spawn worker {}: {e}",
                        spawner.bin.display()
                    ))
                })?;
                transport
                    .shared
                    .children
                    .lock()
                    .unwrap()
                    .push(ChildSlot { child: Some(child), retry_at: Instant::now() });
            }
            let shared = Arc::clone(&transport.shared);
            transport.supervisor =
                Some(thread::spawn(move || supervise_children(&shared, &spawner)));
        }
        Ok(Box::new(transport))
    }
}

/// How the session launches its own loopback workers.
struct Spawner {
    bin: PathBuf,
    addr: SocketAddr,
    faults: FaultPlan,
}

impl Spawner {
    /// Launch one worker dialing the session. `first_worker` faults ship
    /// to the first spawn of slot 0 only; job ordinals count across its
    /// reconnects, so "drop at job 1, then heal" stays deterministic.
    fn spawn(&self, first_of_slot0: bool) -> io::Result<Child> {
        let mut cmd = Command::new(&self.bin);
        cmd.arg("--connect")
            .arg(self.addr.to_string())
            .arg("--reconnect")
            .arg("64")
            .arg("--reconnect-delay-ms")
            .arg("50")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit());
        if let Some(value) = self.faults.worker_env(first_of_slot0) {
            cmd.env(faults::FAULT_PLAN_ENV, value);
        }
        group_spawn(&mut cmd);
        cmd.spawn()
    }
}

/// One self-spawned worker slot.
struct ChildSlot {
    /// The live process; `None` from its exit (or kill) until the
    /// respawn.
    child: Option<Child>,
    /// When the next spawn attempt is due.
    retry_at: Instant,
}

/// Respawn self-spawned workers as they exit, until the session shuts
/// down. Injected [`FaultPlan::respawn_failures`] fail the first respawn
/// attempts; each failure waits [`RESPAWN_RETRY`] before the next.
fn supervise_children(shared: &Shared, spawner: &Spawner) {
    let mut injected_failures = spawner.faults.respawn_failures;
    while !shared.shutdown.load(Ordering::SeqCst) {
        {
            let mut children = shared.children.lock().unwrap();
            for slot in children.iter_mut() {
                if let Some(child) = slot.child.as_mut() {
                    if !matches!(child.try_wait(), Ok(Some(_))) {
                        continue;
                    }
                    slot.child = None;
                    slot.retry_at = Instant::now();
                }
                // Workers exit on the shutdown frame, which is only sent
                // after the flag is set: never respawn those.
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if Instant::now() < slot.retry_at {
                    continue;
                }
                let spawned = if injected_failures > 0 {
                    injected_failures -= 1;
                    Err(io::Error::other("injected respawn failure"))
                } else {
                    spawner.spawn(false)
                };
                match spawned {
                    Ok(child) => {
                        slot.child = Some(child);
                        shared.respawns.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(_) => slot.retry_at = Instant::now() + RESPAWN_RETRY,
                }
            }
        }
        thread::sleep(EXIT_POLL);
    }
}

/// Coordinator state every connection thread shares.
struct Shared {
    /// The one live epoch, or none between epochs.
    slot: Mutex<Option<ActiveEpoch>>,
    /// Notified on: epoch installed, job completed/abandoned, shutdown.
    cv: Condvar,
    shutdown: AtomicBool,
    /// Cleared once shutdown has reaped every self-spawned worker. Until
    /// then the acceptor keeps serving, so a worker that redials during
    /// shutdown is handed its `Shutdown` frame instead of being left to
    /// the kill at the end of the grace window.
    accepting: AtomicBool,
    /// Connections that passed the handshake and are serving (feeds the
    /// session's worker-starvation clock).
    workers_live: AtomicUsize,
    /// Remaining injected handshake refusals
    /// ([`crate::faults::WorkerFault::RefuseHandshake`]).
    refuse_budget: AtomicU32,
    /// Self-spawned workers, one per slot (empty with external workers).
    children: Mutex<Vec<ChildSlot>>,
    /// Successful respawns of self-spawned workers.
    respawns: AtomicU64,
    /// Result frames discarded because they did not carry a live lease.
    stale_results: AtomicU64,
    /// Bytes of job frames written and result frames read.
    frame_bytes: AtomicU64,
    lease_timeout: Duration,
    /// Each job's telemetry lane, for the dispatch span and queue wait.
    lanes: Vec<Telemetry>,
    pool_start: Instant,
}

/// One epoch's ledger and jobs. Its leases are unique across the session,
/// so an answer or abandonment that outlives its epoch never matches a
/// live lease of the next one.
struct ActiveEpoch {
    state: EpochState,
    /// The epoch's wire jobs (lease 0); a dispatch clones one and stamps
    /// the live lease generation.
    jobs: Vec<ShardJob>,
}

/// Count one result frame discarded as stale.
fn discard_stale(shared: &Shared) {
    shared.stale_results.fetch_add(1, Ordering::SeqCst);
}

/// Hand the awaited answer to the live epoch's ledger. An answer whose
/// lease the ledger refuses (its epoch folded, or its lease died) is
/// discarded as stale.
fn settle(shared: &Shared, job: usize, lease: u64, result: ShardJobResult) {
    let accepted = match shared.slot.lock().unwrap().as_mut() {
        Some(epoch) => epoch.state.complete(job, lease, result),
        None => false,
    };
    if !accepted {
        discard_stale(shared);
    }
    shared.cv.notify_all();
}

fn abandon(shared: &Shared, job: usize, lease: u64, why: String) {
    if let Some(epoch) = shared.slot.lock().unwrap().as_mut() {
        epoch.state.abandon(job, lease, why);
    }
    shared.cv.notify_all();
}

/// Kill the self-spawned worker behind a connection that went silent;
/// the respawn replaces it. External workers (no matching pid) are left
/// alone — closing their connection is all the coordinator can do.
fn kill_silent_worker(shared: &Shared, pid: Option<u32>) {
    let Some(pid) = pid else { return };
    let child = shared.children.lock().unwrap().iter_mut().find_map(|slot| {
        if slot.child.as_ref()?.id() != pid {
            return None;
        }
        slot.retry_at = Instant::now();
        slot.child.take()
    });
    if let Some(mut child) = child {
        kill_group(&mut child);
    }
}

/// The accept loop: a blocking accept, woken for the end of shutdown by
/// one self-connect; every accepted stream gets its own handler thread.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if !shared.accepting.load(Ordering::SeqCst) {
            return;
        }
        match stream {
            Ok(stream) => {
                let shared = Arc::clone(shared);
                thread::spawn(move || drive_connection(stream, &shared));
            }
            // Transient accept failures (e.g. out of descriptors): back
            // off briefly instead of spinning.
            Err(_) => thread::sleep(EXIT_POLL),
        }
    }
}

/// Decrements the live-worker count (and wakes the starvation clock)
/// when a connection handler exits, however it exits.
struct LiveGuard<'a>(&'a Shared);

impl Drop for LiveGuard<'_> {
    fn drop(&mut self) {
        self.0.workers_live.fetch_sub(1, Ordering::SeqCst);
        self.0.cv.notify_all();
    }
}

/// Shuts the socket down (both directions, across all clones) when the
/// handler exits, so the reader thread unblocks and the worker sees a
/// closed stream instead of a silent half-open connection.
struct SocketGuard(TcpStream);

impl Drop for SocketGuard {
    fn drop(&mut self) {
        let _ = self.0.shutdown(std::net::Shutdown::Both);
    }
}

/// What one dispatch's wait ended with.
enum Verdict {
    Answered(Box<ShardJobResult>),
    LeaseExpired,
    Dead(String),
}

/// Wait out one dispatch's lease for the answer that carries it. Every
/// other result frame is a retransmitted copy of an earlier answer: it
/// is discarded as stale, and the wait goes on.
fn await_answer(
    rx: &mpsc::Receiver<io::Result<WireReply>>,
    shared: &Shared,
    lease: u64,
) -> Verdict {
    let deadline = Instant::now() + shared.lease_timeout;
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Verdict::LeaseExpired;
        }
        match rx.recv_timeout(left) {
            Ok(Ok(WireReply::Result(result))) if result.lease == lease => {
                return Verdict::Answered(result);
            }
            Ok(Ok(WireReply::Result(_))) => discard_stale(shared),
            // A pong from an idle probe the worker answered late.
            Ok(Ok(WireReply::Pong(_))) => {}
            Ok(Ok(WireReply::Hello(_))) => {
                return Verdict::Dead("protocol violation: mid-stream Hello".into());
            }
            Ok(Err(e)) => return Verdict::Dead(format!("worker connection failed: {e}")),
            Err(RecvTimeoutError::Timeout) => return Verdict::LeaseExpired,
            Err(RecvTimeoutError::Disconnected) => {
                return Verdict::Dead("worker stream closed".into());
            }
        }
    }
}

/// Serve one accepted connection end to end: handshake, then a loop of
/// lease → dispatch → bounded wait, with heartbeat probes while idle.
fn drive_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT));
    let Ok(mut reader_stream) = stream.try_clone() else { return };
    let mut writer = stream;
    // The worker opens: its Hello must be the stream's first frame.
    let hello = match wire::read_frame::<WireReply, _>(&mut reader_stream) {
        Ok(WireReply::Hello(hello)) => hello,
        // Not a worker (or a worker that never spoke): nothing to refuse
        // in words, just hang up.
        Ok(_) | Err(_) => return,
    };
    if let Err(skew) = hello.check() {
        // A version skew is a refusal in words, never undefined framing.
        let _ = wire::write_frame(&mut writer, &WireRequest::Refuse(skew.to_string()));
        return;
    }
    if shared
        .refuse_budget
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
        .is_ok()
    {
        let _ = wire::write_frame(
            &mut writer,
            &WireRequest::Refuse("injected handshake refusal (fault plan)".into()),
        );
        return;
    }
    if wire::write_frame(&mut writer, &WireRequest::Hello(Hello::current())).is_err() {
        return;
    }
    let _ = writer.set_read_timeout(None);
    let Ok(socket_guard) = writer.try_clone().map(SocketGuard) else { return };
    let _socket_guard = socket_guard;
    shared.workers_live.fetch_add(1, Ordering::SeqCst);
    shared.cv.notify_all();
    let _live = LiveGuard(shared);
    // Detached reader: turns the blocking socket into a channel of
    // frames the driver can wait on with deadlines. It exits when the
    // socket closes (worker death, SocketGuard) or the driver drops `rx`.
    // A stream that ends (at or inside a frame) just drops the sender, so
    // the driver reads it as "worker stream closed"; any other I/O error
    // is forwarded with its own text.
    let (tx, rx) = mpsc::channel::<io::Result<WireReply>>();
    let reader_shared = Arc::clone(shared);
    thread::spawn(move || loop {
        match wire::read_frame_sized::<WireReply, _>(&mut reader_stream) {
            Ok((frame, len)) => {
                if matches!(frame, WireReply::Result(_)) {
                    reader_shared.frame_bytes.fetch_add(len as u64, Ordering::Relaxed);
                }
                if tx.send(Ok(frame)).is_err() {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => break,
            Err(e) => {
                let _ = tx.send(Err(e));
                break;
            }
        }
    });
    let mut ping_token: u64 = 0;
    // The hashes whose text this connection has carried either way: the
    // worker's store holds exactly these, so jobs leave them out.
    let mut have: HashSet<u64> = HashSet::new();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            let _ = wire::write_frame(&mut writer, &WireRequest::Shutdown);
            return;
        }
        let next = match shared.slot.lock().unwrap().as_mut() {
            Some(epoch) if !epoch.state.is_settled() => {
                epoch.state.next_job().map(|(job, lease)| {
                    let mut wire_job = epoch.jobs[job].clone();
                    wire_job.lease = lease;
                    (job, lease, wire_job)
                })
            }
            _ => None,
        };
        let Some((job, lease, mut wire_job)) = next else {
            // Idle: park until new work arrives or the heartbeat is due.
            {
                let slot = shared.slot.lock().unwrap();
                let (_slot, timeout) = shared.cv.wait_timeout(slot, HEARTBEAT).unwrap();
                if !timeout.timed_out() {
                    continue;
                }
            }
            if shared.shutdown.load(Ordering::SeqCst) {
                continue; // the top of the loop sends the Shutdown frame
            }
            ping_token += 1;
            if wire::write_frame(&mut writer, &WireRequest::Ping(ping_token)).is_err() {
                return;
            }
            let deadline = Instant::now() + HEARTBEAT;
            loop {
                let left = deadline.saturating_duration_since(Instant::now());
                match rx.recv_timeout(left) {
                    Ok(Ok(WireReply::Pong(_))) => break,
                    // No lease is awaited while idle.
                    Ok(Ok(WireReply::Result(_))) => discard_stale(shared),
                    // Missed heartbeat: the connection is dead.
                    Err(RecvTimeoutError::Timeout) => {
                        kill_silent_worker(shared, hello.pid);
                        return;
                    }
                    Ok(Ok(WireReply::Hello(_))) | Ok(Err(_)) | Err(_) => return,
                }
            }
            continue;
        };
        let shard = wire_job.spec.index;
        if let Some(checkpoint) = wire_job.checkpoint.as_mut() {
            checkpoint.successful.leave_out(|hash| have.contains(&hash));
            have.extend(&checkpoint.successful.hashes);
        }
        let telemetry = &shared.lanes[job];
        telemetry.observe(keys::QUEUE_WAIT, shared.pool_start.elapsed());
        let span = telemetry.span(keys::SPAN_SHARD_RUN);
        let verdict = match wire::write_frame(&mut writer, &WireRequest::Job(Box::new(wire_job))) {
            Ok(len) => {
                shared.frame_bytes.fetch_add(len as u64, Ordering::Relaxed);
                await_answer(&rx, shared, lease)
            }
            Err(e) => Verdict::Dead(format!("write to worker failed: {e}")),
        };
        drop(span);
        let silent = matches!(verdict, Verdict::LeaseExpired);
        let why = match verdict {
            Verdict::Answered(result) if result.index == shard => {
                // The worker stored every text of its answer's pool,
                // the segment's finds included.
                if let Some(checkpoint) = &result.checkpoint {
                    have.extend(&checkpoint.successful.hashes);
                }
                settle(shared, job, lease, *result);
                continue;
            }
            Verdict::Answered(result) => {
                format!("protocol violation: answer for shard {}", result.index)
            }
            Verdict::LeaseExpired => {
                format!("lease expired after {:.1}s", shared.lease_timeout.as_secs_f64())
            }
            Verdict::Dead(why) => why,
        };
        // Every failed dispatch ends the connection the same way: the
        // lease dies first, so the job re-dispatches right away; a worker
        // that stayed silent through its lease is killed if this session
        // spawned it; returning closes the connection.
        abandon(shared, job, lease, why);
        if silent {
            kill_silent_worker(shared, hello.pid);
        }
        return;
    }
}

struct WorkerTransport {
    /// Each task's run directory, which receives its shard file at the
    /// final epoch's fold.
    run_dirs: Vec<Option<RunDir>>,
    /// The first lease generation of the next epoch: leases stay unique
    /// across the session, so a leftover answer from a folded epoch can
    /// never carry a live lease.
    next_lease: u64,
    /// Failed dispatches whose job went back into the queue, so far.
    redispatches: u64,
    shared: Arc<Shared>,
    acceptor: Option<thread::JoinHandle<()>>,
    /// The respawn loop over self-spawned workers (`None` with external
    /// workers).
    supervisor: Option<thread::JoinHandle<()>>,
    addr: SocketAddr,
    worker_wait: Duration,
}

impl WorkerTransport {
    /// Idempotent transport teardown: flag shutdown (connection threads
    /// forward `Shutdown` frames to their workers), stop respawning, give
    /// self-spawned workers a grace window to exit cleanly, kill the
    /// rest, then wake and join the acceptor.
    fn shutdown_transport(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.cv.notify_all();
        if let Some(supervisor) = self.supervisor.take() {
            let _ = supervisor.join();
        }
        let mut children = std::mem::take(&mut *self.shared.children.lock().unwrap());
        let deadline = Instant::now() + Duration::from_secs(3);
        loop {
            children.retain_mut(|slot| {
                slot.child.as_mut().is_some_and(|child| !matches!(child.try_wait(), Ok(Some(_))))
            });
            if children.is_empty() || Instant::now() >= deadline {
                break;
            }
            thread::sleep(EXIT_POLL);
        }
        for child in children.iter_mut().filter_map(|slot| slot.child.as_mut()) {
            kill_group(child);
        }
        self.shared.accepting.store(false, Ordering::SeqCst);
        if let Some(acceptor) = self.acceptor.take() {
            // One self-connect wakes the blocking accept, which then sees
            // the cleared `accepting` flag. An unspecified bind IP is
            // reachable on loopback.
            let mut wake = self.addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake.ip() {
                    IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                    IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
                });
            }
            // Without the wake the acceptor would block forever; leave it
            // detached rather than hang the caller.
            if TcpStream::connect(wake).is_ok() {
                let _ = acceptor.join();
            }
        }
    }
}

impl Drop for WorkerTransport {
    fn drop(&mut self) {
        // Safety net for sessions abandoned mid-run (a failed epoch whose
        // error aborted the campaign): no worker processes or acceptor
        // threads may outlive the session.
        self.shutdown_transport();
    }
}

impl ShardTransport for WorkerTransport {
    /// Install the epoch's jobs for the connection threads, wait (with a
    /// worker-starvation deadline) until they settle its ledger, then —
    /// in job order — write each finished shard's file.
    fn run_jobs(&mut self, jobs: Vec<ShardJob>) -> Result<Vec<ShardJobResult>, OrchestratorError> {
        let state = EpochState::new(jobs.len(), self.next_lease);
        *self.shared.slot.lock().unwrap() = Some(ActiveEpoch { state, jobs });
        self.shared.cv.notify_all();
        let mut starving_since = Instant::now();
        let mut slot = self.shared.slot.lock().unwrap();
        loop {
            let epoch = slot.as_mut().expect("epoch installed above");
            if epoch.state.is_settled() {
                break;
            }
            if self.shared.workers_live.load(Ordering::SeqCst) > 0 {
                starving_since = Instant::now();
            } else if starving_since.elapsed() >= self.worker_wait {
                epoch.state.fail(OrchestratorError::WorkerUnavailable(format!(
                    "no workers connected to {} within {:.1}s",
                    self.addr,
                    self.worker_wait.as_secs_f64()
                )));
                break;
            }
            // Short tick: doubles as the starvation clock's resolution
            // and a backstop against a missed notification.
            let (reacquired, _) =
                self.shared.cv.wait_timeout(slot, Duration::from_millis(50)).unwrap();
            slot = reacquired;
        }
        let state = slot.take().expect("epoch installed above").state;
        drop(slot);
        self.next_lease = state.next_lease();
        self.redispatches += state.redispatches();
        let results = state.into_results()?;
        for (run_dir, result) in self.run_dirs.iter().zip(&results) {
            if let Some(output) = &result.output {
                persist_output(run_dir.as_ref(), output);
            }
        }
        Ok(results)
    }

    fn finish(mut self: Box<Self>) -> SessionOutcome {
        self.shutdown_transport();
        SessionOutcome {
            shards: Vec::new(),
            supervision: SupervisionCounts {
                stale_results: self.shared.stale_results.load(Ordering::SeqCst),
                redispatches: self.redispatches,
                respawns: self.shared.respawns.load(Ordering::SeqCst),
            },
            frame_bytes: self.shared.frame_bytes.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn external_only() -> SupervisionConfig {
        SupervisionConfig { worker_procs: 0, ..SupervisionConfig::default() }
    }

    #[test]
    fn builder_knobs_are_validated_at_begin() {
        let executor = WorkerExecutor::new(external_only());
        assert_eq!(executor.bound_addr(), None);
    }

    #[test]
    fn missing_worker_binary_is_a_clean_error() {
        // A pinned path is handed through untouched; spawning it fails at
        // `begin` as `WorkerUnavailable` (covered by the integration
        // tests).
        assert_eq!(
            resolve_worker_bin(Some(Path::new("/nonexistent/llm4fp-worker"))).unwrap(),
            PathBuf::from("/nonexistent/llm4fp-worker")
        );
    }

    #[test]
    fn unbindable_listen_address_is_worker_unavailable() {
        // An unroutable bind target: the transport cannot exist, which is
        // the WorkerUnavailable class.
        let executor = WorkerExecutor::new(SupervisionConfig {
            listen: "256.256.256.256:0".into(),
            ..external_only()
        });
        match executor.begin(Vec::new()) {
            Err(OrchestratorError::WorkerUnavailable(msg)) => {
                assert!(msg.contains("cannot bind"), "{msg}");
            }
            other => panic!("expected WorkerUnavailable, got {:?}", other.err()),
        }
    }

    #[test]
    fn empty_session_settles_without_any_workers() {
        // Zero tasks settle instantly (remaining == 0), so no worker ever
        // needs to connect and finish() yields an empty outcome.
        let executor = WorkerExecutor::new(external_only());
        let mut session = executor.begin(Vec::new()).unwrap();
        assert!(executor.bound_addr().is_some(), "begin records the bound address");
        let deltas = session.run_epoch(&[], true).unwrap();
        assert!(deltas.is_empty());
        let outcome = session.finish().unwrap();
        assert!(outcome.shards.is_empty());
    }
}
