//! The out-of-process shard worker daemon.
//!
//! `llm4fp-worker --connect HOST:PORT` dials a
//! [`llm4fp_orchestrator::WorkerExecutor`] coordinator over TCP — spawned
//! by the coordinator itself on loopback, or launched by hand on another
//! machine. The stream carries length-prefixed JSON frames (see
//! [`llm4fp_orchestrator::wire`]), opened by a **versioned handshake**
//! (the worker sends `WireReply::Hello` with its pid first; the
//! coordinator accepts with `WireRequest::Hello` or refuses in words).
//! Each [`WireRequest::Job`] restores (or freshly creates) a shard runner
//! from the job's checkpoint, runs one segment, and answers with the
//! updated checkpoint — or, on `finish`, the shard's final output. A
//! [`WireRequest::Shutdown`] frame exits cleanly; idle
//! [`WireRequest::Ping`]s are answered with `Pong`.
//!
//! The daemon holds **no state between jobs** — any job can be replayed
//! on any worker with byte-identical results, which is what makes the
//! coordinator's crash-redispatch, lease-expiry redispatch and
//! reconnect-and-resume sound. A dropped connection is redialed up to
//! `--reconnect` times (spaced by `--reconnect-delay-ms`), and the same
//! retry budget covers dialing a coordinator that has not bound its
//! socket yet.
//!
//! Deterministic fault injection: the coordinator ships this spawn's
//! effective fault set ([`WorkerFault`](llm4fp_orchestrator::WorkerFault)
//! plus worker-side
//! [`NetworkFault`](llm4fp_orchestrator::NetworkFault)s) as JSON in the
//! `LLM4FP_FAULT_PLAN` environment variable (absent on production
//! spawns — the per-job check is then a single branch). The
//! [`WorkerFaultHarness`] decides per received job whether to crash,
//! stall, sabotage the answer frame, drop the connection, delay or
//! duplicate the answer, or tear the stream mid-frame.

use std::io::{self, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use llm4fp_orchestrator::faults::{FrameSabotage, WorkerFaultHarness, EXIT_SABOTAGED_ANSWER};
use llm4fp_orchestrator::wire::{self, Hello, ShardJob, ShardJobResult, WireReply, WireRequest};
use llm4fp_orchestrator::ShardRunner;
use llm4fp_telemetry::{TelemetryHub, TelemetrySpec};

/// Run one job: restore-or-create the runner, run the segment, hand the
/// state back. Pure — everything derives from the job's bytes (the
/// lease generation is echoed back verbatim for the coordinator's
/// stale-result discard).
fn run_job(job: ShardJob) -> ShardJobResult {
    let hub =
        TelemetryHub::new(if job.telemetry { TelemetrySpec::METRICS } else { TelemetrySpec::OFF });
    let telemetry = hub.lane(0);
    let mut runner = match job.checkpoint {
        Some(checkpoint) => ShardRunner::from_checkpoint(&job.config, job.spec, None, checkpoint),
        None => ShardRunner::new(&job.config, job.spec, None),
    }
    .with_telemetry(telemetry.clone());
    let delta = runner.run_segment(job.segment, |_| {});
    let (checkpoint, output) =
        if job.finish { (None, Some(runner.finish())) } else { (Some(runner.checkpoint()), None) };
    ShardJobResult {
        index: job.spec.index,
        delta,
        checkpoint,
        output,
        telemetry: telemetry.export(),
        lease: job.lease,
    }
}

/// Write a deliberately broken answer in place of `result`'s frame, then
/// exit: the stream is unusable afterwards, so the daemon does not
/// linger. `Corrupt` sends bytes that parse as no frame header at all;
/// `Truncate` sends a header promising the full payload but only half of
/// the bytes, so the coordinator sees a mid-frame EOF.
fn sabotage_answer(writer: &mut impl Write, result: &WireReply, how: FrameSabotage) -> ! {
    match how {
        FrameSabotage::Corrupt => {
            let _ = writer.write_all(b"!corrupt!!\n{\"not\":\"a frame\"}");
        }
        FrameSabotage::Truncate => {
            let payload = serde_json::to_string(result).expect("job results always serialize");
            let bytes = payload.as_bytes();
            let _ = writer.write_all(format!("{:010}\n", bytes.len()).as_bytes());
            let _ = writer.write_all(&bytes[..bytes.len() / 2]);
        }
    }
    let _ = writer.flush();
    std::process::exit(EXIT_SABOTAGED_ANSWER);
}

/// How one stream's service ended.
enum ServeEnd {
    /// The coordinator sent `Shutdown` — exit, never reconnect.
    Shutdown,
    /// Clean EOF from the peer (socket shut down).
    Eof,
    /// An injected fault closed the connection (the process survives and
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
            sabotage = harness.on_job(job.spec.index, job.config.backend.is_external());
            if let Some(code) = sabotage.exit_code {
                std::process::exit(code);
            }
            if sabotage.drop_conn {
                // The partition hits before any answer bytes; the
                // coordinator re-dispatches under a fresh lease.
                return ServeEnd::Dropped;
            }
            if let Some(stall) = sabotage.stall {
                std::thread::sleep(stall);
            }
        }
        let answer = WireReply::Result(Box::new(run_job(job)));
        if let Some(how) = sabotage.answer {
            sabotage_answer(writer, &answer, how);
        }
        if let Some(delay) = sabotage.delay {
            std::thread::sleep(delay);
        }
        if sabotage.truncate_stream {
            // Half a frame, then the stream tears: the coordinator sees
            // a malformed frame / mid-frame EOF.
            let payload = serde_json::to_string(&answer).expect("job results always serialize");
            let bytes = payload.as_bytes();
            let _ = writer.write_all(format!("{:010}\n", bytes.len()).as_bytes());
            let _ = writer.write_all(&bytes[..bytes.len() / 2]);
            let _ = writer.flush();
            return ServeEnd::Dropped;
        }
        let copies = if sabotage.duplicate { 2 } else { 1 };
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
            ServeEnd::Dropped => fail(&mut redials_left, "injected connection drop".into()),
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
