//! The out-of-process shard worker daemon.
//!
//! `llm4fp-worker --connect HOST:PORT` dials a
//! [`llm4fp_orchestrator::WorkerExecutor`] coordinator over TCP — spawned
//! by the coordinator itself on loopback, or launched by hand on another
//! machine. The stream carries length-prefixed JSON frames (see
//! [`llm4fp_orchestrator::wire`]), opened by a **versioned handshake**
//! (the worker sends `WireReply::Hello` with its pid first; the
//! coordinator accepts with `WireRequest::Hello` or refuses in words).
//! Each [`WireRequest::Job`] runs through [`run_job`], the function every
//! executor runs its jobs through: it restores (or freshly creates) a
//! shard runner from the job's checkpoint, runs one segment, and answers
//! with the updated checkpoint — or, on `finish`, the shard's final
//! output. A [`WireRequest::Shutdown`] frame exits cleanly; idle
//! [`WireRequest::Ping`]s are answered with `Pong`.
//!
//! The daemon holds **no shard state between jobs** — any job can be
//! replayed on any worker with byte-identical results, which is what makes
//! the coordinator's crash-redispatch, lease-expiry redispatch and
//! reconnect-and-resume sound. What a connection does remember is the
//! feedback pool's text: a [`PoolStore`] per stream holds every pooled
//! program the stream has carried, by hash, and fills the texts a job
//! leaves out. A job naming a hash the store lacks drops the connection,
//! and the coordinator redispatches it on a fresh one (see
//! [`llm4fp_orchestrator::wire`]). A dropped connection is redialed up to
//! `--reconnect` times (spaced by `--reconnect-delay-ms`), and the same
//! retry budget covers dialing a coordinator that has not bound its
//! socket yet.
//!
//! Deterministic fault injection: the coordinator ships this spawn's
//! [`WorkerFault`](llm4fp_orchestrator::WorkerFault)s as a JSON list in
//! the `LLM4FP_FAULT_PLAN` environment variable (absent on production
//! spawns — the per-job check is then a single branch). The
//! [`WorkerFaultHarness`] decides per received job whether to crash,
//! stall, forget the connection's pool texts, or sabotage the answer: a
//! dropped connection, a corrupt frame, or a duplicate. Every
//! sabotaged answer but the duplicate ends the connection, and the daemon
//! redials.

use std::collections::HashMap;
use std::io::{self, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use llm4fp_orchestrator::faults::{AnswerSabotage, WorkerFaultHarness, EXIT_CRASH};
use llm4fp_orchestrator::run_job;
use llm4fp_orchestrator::wire::{self, Hello, ShardJob, ShardJobResult, WireReply, WireRequest};
use llm4fp_telemetry::{TelemetryHub, TelemetrySpec};

/// The pool texts one stream has carried, by structural hash.
type PoolStore = HashMap<u64, Arc<str>>;

/// Run one job through [`run_job`], adding only what the wire needs. The
/// job's checkpoint must pass [`RunnerCheckpoint::validate`], and its
/// left-out pool texts are filled from `store`; the store keeps every
/// text the job and its answer carry, and the answer's checkpoint leaves
/// every pool text out, since the coordinator holds them all. The answer
/// carries the job's counters when the job asks for telemetry. Pure —
/// everything derives from the job's bytes plus the pool texts earlier
/// frames of this connection carried. A job that fails the check, or
/// whose left-out texts the store cannot fill, is an error: the stream
/// can no longer be trusted.
///
/// [`RunnerCheckpoint::validate`]: llm4fp::RunnerCheckpoint::validate
fn run_wire_job(mut job: ShardJob, store: &mut PoolStore) -> io::Result<ShardJobResult> {
    let invalid = |why: String| io::Error::new(io::ErrorKind::InvalidData, why);
    if let Some(checkpoint) = job.checkpoint.as_mut() {
        checkpoint.validate().map_err(invalid)?;
        let pool = &mut checkpoint.successful;
        pool.fill(|hash| store.get(&hash).cloned()).map_err(invalid)?;
        remember(store, pool);
    }
    let hub =
        TelemetryHub::new(if job.telemetry { TelemetrySpec::METRICS } else { TelemetrySpec::OFF });
    let telemetry = hub.lane(0);
    let mut result = run_job(job, None, telemetry.clone());
    if let Some(checkpoint) = result.checkpoint.as_mut() {
        remember(store, &checkpoint.successful);
        checkpoint.successful.leave_out(|_| true);
    }
    result.telemetry = telemetry.export();
    Ok(result)
}

/// Keep every text of `pool` in `store`.
fn remember(store: &mut PoolStore, pool: &llm4fp::SuccessfulSetSnapshot) {
    for (&hash, source) in pool.hashes.iter().zip(&pool.sources) {
        store.entry(hash).or_insert_with(|| Arc::clone(source));
    }
}

/// How one stream's service ended.
enum ServeEnd {
    /// The coordinator sent `Shutdown` — exit, never reconnect.
    Shutdown,
    /// Clean EOF from the peer (socket shut down).
    Eof,
    /// An injected fault ended the connection (the process survives and
    /// reconnects).
    Dropped,
    /// The coordinator refused the handshake (and said why).
    Refused(String),
    /// A read or write on the stream failed.
    Error(io::Error),
}

/// Serve one stream end to end: handshake first (the worker's `Hello`
/// opens the stream; a version skew from either side is a typed refusal
/// and terminal — the binary will not get newer by retrying), then the
/// job/ping loop.
fn serve<R: Read, W: Write>(
    reader: &mut R,
    writer: &mut W,
    harness: &mut WorkerFaultHarness,
) -> ServeEnd {
    let hello = Hello { pid: Some(std::process::id()), ..Hello::current() };
    if let Err(e) = wire::write_frame(writer, &WireReply::Hello(hello)) {
        return ServeEnd::Error(e);
    }
    let mut store = PoolStore::new();
    loop {
        let request: WireRequest = match wire::read_frame(reader) {
            Ok(request) => request,
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return ServeEnd::Eof,
            Err(e) => return ServeEnd::Error(e),
        };
        let job = match request {
            WireRequest::Shutdown => return ServeEnd::Shutdown,
            WireRequest::Hello(hello) => {
                if let Err(skew) = hello.check() {
                    eprintln!("llm4fp-worker: {skew}");
                    std::process::exit(2);
                }
                continue;
            }
            WireRequest::Refuse(reason) => return ServeEnd::Refused(reason),
            WireRequest::Ping(token) => {
                if let Err(e) = wire::write_frame(writer, &WireReply::Pong(token)) {
                    return ServeEnd::Error(e);
                }
                continue;
            }
            WireRequest::Job(job) => *job,
        };
        let mut sabotage = Default::default();
        if !harness.is_empty() {
            sabotage = harness.on_job(job.spec.index);
            if sabotage.crash {
                std::process::exit(EXIT_CRASH);
            }
            if sabotage.answer == Some(AnswerSabotage::Drop) {
                // The partition hits before any answer bytes; the
                // coordinator re-dispatches under a fresh lease.
                return ServeEnd::Dropped;
            }
            if let Some(stall) = sabotage.stall {
                std::thread::sleep(stall);
            }
            if sabotage.forget_pool {
                store.clear();
            }
        }
        let answer = match run_wire_job(job, &mut store) {
            Ok(result) => WireReply::Result(Box::new(result)),
            Err(e) => return ServeEnd::Error(e),
        };
        let copies = match sabotage.answer {
            Some(AnswerSabotage::Duplicate) => 2,
            Some(AnswerSabotage::Corrupt) => {
                // Bytes that parse as no frame header at all.
                let _ = writer.write_all(b"!corrupt!!\n{\"not\":\"a frame\"}");
                let _ = writer.flush();
                return ServeEnd::Dropped;
            }
            // A drop ended the connection before computing.
            Some(AnswerSabotage::Drop) | None => 1,
        };
        for _ in 0..copies {
            if let Err(e) = wire::write_frame(writer, &answer) {
                return ServeEnd::Error(e);
            }
        }
    }
}

struct WorkerArgs {
    /// The coordinator address to dial.
    connect: String,
    /// How many times to redial after a lost connection (or failed dial).
    reconnect: u32,
    /// Delay between redials.
    reconnect_delay: Duration,
}

fn parse_args() -> WorkerArgs {
    let mut connect = None;
    let mut reconnect = 16;
    let mut reconnect_delay = Duration::from_millis(100);
    let mut argv = std::env::args().skip(1);
    let usage = "usage: llm4fp-worker --connect HOST:PORT [--reconnect N] \
                 [--reconnect-delay-ms MS]";
    let value = |argv: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        argv.next().unwrap_or_else(|| {
            eprintln!("llm4fp-worker: {flag} needs a value\n{usage}");
            std::process::exit(2);
        })
    };
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--connect" => connect = Some(value(&mut argv, "--connect")),
            "--reconnect" => {
                reconnect = value(&mut argv, "--reconnect").parse().unwrap_or_else(|_| {
                    eprintln!("llm4fp-worker: --reconnect needs a number\n{usage}");
                    std::process::exit(2);
                });
            }
            "--reconnect-delay-ms" => {
                let ms: u64 =
                    value(&mut argv, "--reconnect-delay-ms").parse().unwrap_or_else(|_| {
                        eprintln!("llm4fp-worker: --reconnect-delay-ms needs a number\n{usage}");
                        std::process::exit(2);
                    });
                reconnect_delay = Duration::from_millis(ms);
            }
            other => {
                eprintln!("llm4fp-worker: unknown argument {other:?}\n{usage}");
                std::process::exit(2);
            }
        }
    }
    let Some(connect) = connect else {
        eprintln!("llm4fp-worker: --connect is required\n{usage}");
        std::process::exit(2);
    };
    WorkerArgs { connect, reconnect, reconnect_delay }
}

/// Dial the coordinator, serve the stream, and redial (within the
/// `--reconnect` budget) after anything but a `Shutdown` — lost
/// connections *and* refused handshakes both retry, because the
/// coordinator's `RefuseHandshake` chaos fault heals on the next dial.
fn serve_socket(args: &WorkerArgs, harness: &mut WorkerFaultHarness) -> ! {
    let addr = args.connect.as_str();
    let mut redials_left = args.reconnect;
    let fail = |redials_left: &mut u32, what: String| {
        if *redials_left == 0 {
            eprintln!("llm4fp-worker: {what}; reconnect budget exhausted");
            std::process::exit(1);
        }
        *redials_left -= 1;
        std::thread::sleep(args.reconnect_delay);
    };
    loop {
        let stream = match TcpStream::connect(addr) {
            Ok(stream) => stream,
            Err(e) => {
                fail(&mut redials_left, format!("cannot connect to {addr}: {e}"));
                continue;
            }
        };
        let _ = stream.set_nodelay(true);
        let mut reader = match stream.try_clone() {
            Ok(clone) => BufReader::new(clone),
            Err(e) => {
                fail(&mut redials_left, format!("cannot clone stream: {e}"));
                continue;
            }
        };
        let mut writer = stream;
        match serve(&mut reader, &mut writer, harness) {
            ServeEnd::Shutdown => std::process::exit(0),
            ServeEnd::Eof => {
                fail(&mut redials_left, format!("coordinator {addr} closed the stream"))
            }
            ServeEnd::Dropped => fail(&mut redials_left, "injected fault ended the stream".into()),
            ServeEnd::Refused(reason) => {
                fail(&mut redials_left, format!("handshake refused: {reason}"))
            }
            ServeEnd::Error(e) => fail(&mut redials_left, format!("stream error: {e}")),
        }
    }
}

fn main() {
    let args = parse_args();
    let mut harness = WorkerFaultHarness::from_env();
    serve_socket(&args, &mut harness);
}
