//! The coordinator ↔ worker-daemon wire contract.
//!
//! The out-of-process executor farms [`ShardJob`]s to `llm4fp-worker`
//! daemons over TCP streams as **length-prefixed JSON frames**:
//!
//! ```text
//! 0000000123\n{...123 bytes of JSON...}
//! ```
//!
//! The prefix is a fixed-width 10-digit ASCII decimal byte length
//! followed by one newline — trivially parseable from any language, easy
//! to eyeball in a captured stream, and unambiguous under partial reads.
//! Every message is one frame; the stream carries no other bytes.
//!
//! The payloads are the run directory's JSON vocabulary promoted to a
//! wire contract: a job is `(config, spec, segment, checkpoint)` and an
//! answer is `(delta, checkpoint | output, counters)` — the same
//! serializable types the persistence layer already round-trips, which
//! is what makes a worker interchangeable with an in-process runner.
//!
//! A worker holds no *shard* state between jobs: each job carries
//! everything needed to restore (or freshly create) the shard runner, run
//! one segment, and hand the updated state back. That is what makes
//! crash-and-redispatch and lease-expiry redispatch sound — recomputing a
//! job on another worker yields byte-identical results.
//!
//! The one thing a connection remembers is the **feedback pool's text**
//! (protocol version 2). Every pooled program travels by its structural
//! hash, and its text crosses a connection at most once:
//!
//! * the coordinator keeps, per connection, the set of hashes whose text
//!   it has sent or received there. A job's checkpoint leaves out every
//!   text in that set (see `llm4fp::SuccessfulSetSnapshot::leave_out`);
//! * the worker keeps, per connection, a hash → text store. It fills the
//!   job's left-out texts from it and stores every text the job carries
//!   and every text its segment finds. A job naming a hash the store
//!   lacks makes the worker drop the connection; the coordinator then
//!   redispatches the job on a fresh connection, whose set and store
//!   start empty;
//! * a result's checkpoint carries no pool text at all: its pool is the
//!   job's pool (which the coordinator holds) followed by the segment's
//!   `delta`, position for position.
//!
//! Both ends forget the pool with the connection, so a reconnect, a
//! respawn or a redispatch costs resending texts, never results.
//!
//! Every stream opens with a **versioned handshake**: the worker's first
//! frame is [`WireReply::Hello`] and the coordinator answers
//! [`WireRequest::Hello`] (or a typed [`WireRequest::Refuse`]). A version
//! skew is a [`WireError::VersionMismatch`] — a refusal in words, never
//! undefined framing — so a stale worker binary fails loudly before any
//! job is exchanged.

use std::fmt;
use std::io::{self, Read, Write};

use serde::{Deserialize, Serialize};

use llm4fp::{CampaignConfig, RunnerCheckpoint};
use llm4fp_telemetry::CounterSnapshot;

use crate::shard::{ShardOutput, ShardSpec};

/// The wire-protocol version this build speaks. Bump on any frame-shape
/// change; the handshake refuses mismatches in words instead of letting
/// two builds mis-parse each other's frames.
pub const PROTOCOL_VERSION: u32 = 2;

/// The opening frame of every stream, sent by both ends (worker first).
/// Carries the two version numbers whose skew could silently corrupt a
/// run: the frame protocol itself and the run-dir manifest schema the
/// checkpoints inside jobs are written against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Hello {
    /// The sender's [`PROTOCOL_VERSION`].
    pub protocol: u32,
    /// The sender's [`crate::persist::MANIFEST_SCHEMA`].
    pub manifest_schema: u32,
    /// The worker's process id (`None` from the coordinator): how the
    /// coordinator finds the process behind a connection it must kill.
    /// Not part of the version check.
    pub pid: Option<u32>,
}

impl Hello {
    /// The handshake frame this build sends (without a pid).
    pub fn current() -> Self {
        Hello {
            protocol: PROTOCOL_VERSION,
            manifest_schema: crate::persist::MANIFEST_SCHEMA,
            pid: None,
        }
    }

    /// Accept or refuse a peer's handshake. Any skew is a typed
    /// [`WireError::VersionMismatch`] naming the disagreeing field.
    pub fn check(&self) -> Result<(), WireError> {
        let ours = Hello::current();
        if self.protocol != ours.protocol {
            return Err(WireError::VersionMismatch {
                what: "wire protocol",
                found: self.protocol,
                supported: ours.protocol,
            });
        }
        if self.manifest_schema != ours.manifest_schema {
            return Err(WireError::VersionMismatch {
                what: "manifest schema",
                found: self.manifest_schema,
                supported: ours.manifest_schema,
            });
        }
        Ok(())
    }
}

/// A typed wire-level refusal — the handshake's vocabulary for "we must
/// not talk", distinct from malformed-frame I/O errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The peer speaks a different protocol or manifest-schema version.
    VersionMismatch {
        /// Which version disagreed ("wire protocol" or "manifest schema").
        what: &'static str,
        /// The peer's version.
        found: u32,
        /// The version this build supports.
        supported: u32,
    },
    /// The peer refused the handshake and said why.
    Refused(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::VersionMismatch { what, found, supported } => {
                write!(f, "{what} version mismatch: peer speaks {found}, this build {supported}")
            }
            WireError::Refused(reason) => write!(f, "handshake refused by peer: {reason}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for io::Error {
    fn from(err: WireError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, err.to_string())
    }
}

/// One segment of one shard: everything a worker needs to produce the
/// next barrier state, given the pool texts its connection has carried.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardJob {
    /// The parent campaign's configuration.
    pub config: CampaignConfig,
    /// The shard plan being executed.
    pub spec: ShardSpec,
    /// How many programs to run this epoch (0 is a legal no-op segment).
    pub segment: usize,
    /// Whether this is the shard's final segment: the worker finishes the
    /// runner and returns its [`ShardOutput`] instead of a checkpoint.
    pub finish: bool,
    /// Resume state from the previous barrier (with the barrier's merged
    /// deltas already injected coordinator-side); `None` starts the shard
    /// fresh. On the wire its pool leaves out every text the connection
    /// already carried (see the module docs).
    pub checkpoint: Option<RunnerCheckpoint>,
    /// Ignored; kept so `perfbench` literals and older coordinators'
    /// frames decode. Coordinators write `1` and workers never read it:
    /// a worker runs one job at a time, so it spawns one external
    /// process at a time.
    pub process_slots: usize,
    /// Collect telemetry counters and return them in the result.
    pub telemetry: bool,
    /// The lease generation under which this dispatch owns the shard.
    /// The worker echoes it back verbatim in [`ShardJobResult::lease`];
    /// the supervisor accepts a result only while that generation is
    /// still live, so a late answer from an expired lease is discarded
    /// rather than racing the re-dispatch.
    pub lease: u64,
}

/// A worker's answer to one [`ShardJob`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardJobResult {
    /// The shard index this result answers (protocol sanity check).
    pub index: usize,
    /// Successful sources newly found during the segment, in discovery
    /// order — the delta the barrier merges. Their hashes are the tail of
    /// the checkpoint's pool hashes.
    pub delta: Vec<String>,
    /// The paused runner's state after the segment (`None` on `finish`).
    /// On the wire its pool carries hashes and own flags but no text: the
    /// coordinator fills it from the job's pool and `delta`.
    pub checkpoint: Option<RunnerCheckpoint>,
    /// The finished shard's output (`Some` exactly on `finish`).
    pub output: Option<ShardOutput>,
    /// Counters the worker collected for this segment, for the
    /// coordinator to absorb into the shard's telemetry lane. Plain
    /// counters sum across segments; keyed counters union first-writer-
    /// wins by id, so the merged `metrics.json` matches in-process runs.
    pub telemetry: Option<CounterSnapshot>,
    /// The lease generation of the [`ShardJob`] this result answers,
    /// echoed back verbatim (see [`ShardJob::lease`]).
    pub lease: u64,
}

/// A frame from the coordinator to a worker.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WireRequest {
    /// The coordinator's half of the handshake, accepting the worker's
    /// [`WireReply::Hello`].
    Hello(Hello),
    /// The coordinator refuses the handshake (version skew or injected
    /// [`crate::faults::WorkerFault::RefuseHandshake`]); the worker must
    /// not send jobsward frames on this stream.
    Refuse(String),
    /// Run one shard segment and answer with a [`WireReply::Result`].
    Job(Box<ShardJob>),
    /// Liveness probe while idle; the worker answers [`WireReply::Pong`]
    /// with the same token.
    Ping(u64),
    /// Exit cleanly; unlike a closed connection, the worker never
    /// redials after it.
    Shutdown,
}

/// A frame from a worker to the coordinator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WireReply {
    /// The worker's opening handshake — always the stream's first frame.
    Hello(Hello),
    /// The answer to one [`WireRequest::Job`].
    Result(Box<ShardJobResult>),
    /// The answer to one [`WireRequest::Ping`], echoing its token.
    Pong(u64),
}

/// Byte length of the frame header: 10 ASCII digits + `\n`.
const HEADER_LEN: usize = 11;

/// Upper bound on one frame's payload (256 MiB — far above any real
/// job or result, far below what a corrupt 10-digit header can demand).
/// A header promising more is a typed malformed-frame error *before any
/// allocation*, so a byte-flipped length can never turn into a multi-GB
/// allocation or an OOM kill of the coordinator.
pub const MAX_FRAME_LEN: usize = 256 << 20;

/// Write `value` as one frame and return its length in bytes, header
/// included. Refuses (with [`io::ErrorKind::InvalidData`]) payloads over
/// [`MAX_FRAME_LEN`] — the receiver would reject them anyway, so fail at
/// the producer where the diagnosis is cheap.
pub fn write_frame<T: Serialize, W: Write>(writer: &mut W, value: &T) -> io::Result<usize> {
    write_frame_limited(writer, value, MAX_FRAME_LEN)
}

/// [`write_frame`] under an explicit cap (tests shrink it to exercise
/// the producer-side refusal).
fn write_frame_limited<T: Serialize, W: Write>(
    writer: &mut W,
    value: &T,
    max_frame_len: usize,
) -> io::Result<usize> {
    let payload = serde_json::to_string(value)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("encode frame: {e}")))?;
    if payload.len() > max_frame_len {
        return Err(bad_frame(&format!(
            "payload of {} bytes exceeds MAX_FRAME_LEN-class cap ({max_frame_len})",
            payload.len()
        )));
    }
    writeln!(writer, "{:010}", payload.len())?;
    writer.write_all(payload.as_bytes())?;
    writer.flush()?;
    Ok(HEADER_LEN + payload.len())
}

/// Read one frame. An EOF *before the first header byte* surfaces as
/// [`io::ErrorKind::UnexpectedEof`] (the clean end-of-stream signal);
/// anything malformed — including a length over [`MAX_FRAME_LEN`] — is
/// [`io::ErrorKind::InvalidData`].
pub fn read_frame<T: serde::de::DeserializeOwned, R: Read>(reader: &mut R) -> io::Result<T> {
    read_frame_sized(reader).map(|(value, _)| value)
}

/// [`read_frame`] that also returns the frame's length in bytes, header
/// included.
pub fn read_frame_sized<T: serde::de::DeserializeOwned, R: Read>(
    reader: &mut R,
) -> io::Result<(T, usize)> {
    read_frame_limited(reader, MAX_FRAME_LEN)
}

/// [`read_frame`] under an explicit cap (tests shrink it to exercise
/// the consumer-side refusal).
fn read_frame_limited<T: serde::de::DeserializeOwned, R: Read>(
    reader: &mut R,
    max_frame_len: usize,
) -> io::Result<(T, usize)> {
    let mut header = [0u8; HEADER_LEN];
    reader.read_exact(&mut header)?;
    if header[HEADER_LEN - 1] != b'\n' {
        return Err(bad_frame("header missing newline"));
    }
    let digits = std::str::from_utf8(&header[..HEADER_LEN - 1])
        .map_err(|_| bad_frame("header is not ASCII"))?;
    let len: usize = digits.parse().map_err(|_| bad_frame("header is not a decimal length"))?;
    if len > max_frame_len {
        return Err(bad_frame(&format!(
            "header demands {len} bytes, over MAX_FRAME_LEN-class cap ({max_frame_len})"
        )));
    }
    let mut payload = vec![0u8; len];
    reader.read_exact(&mut payload)?;
    let text = std::str::from_utf8(&payload).map_err(|_| bad_frame("payload is not UTF-8"))?;
    let value = serde_json::from_str(text)
        .map_err(|e| bad_frame(&format!("payload does not parse: {e}")))?;
    Ok((value, HEADER_LEN + len))
}

fn bad_frame(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("malformed wire frame: {what}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{plan_shards, shard_seed};
    use llm4fp::ApproachKind;

    fn job(seed: u64, segment: usize, finish: bool) -> ShardJob {
        let config = CampaignConfig::new(ApproachKind::Varity).with_budget(6).with_seed(seed);
        ShardJob {
            spec: plan_shards(&config, 2)[1],
            config,
            segment,
            finish,
            checkpoint: None,
            process_slots: 3,
            telemetry: true,
            lease: 0,
        }
    }

    #[test]
    fn version_skew_is_a_typed_refusal_not_a_parse_error() {
        assert_eq!(Hello::current().check(), Ok(()));
        let old = Hello { protocol: PROTOCOL_VERSION + 9, ..Hello::current() };
        let err = old.check().unwrap_err();
        assert!(matches!(
            err,
            WireError::VersionMismatch { what: "wire protocol", found, supported }
                if found == PROTOCOL_VERSION + 9 && supported == PROTOCOL_VERSION
        ));
        let io_err: io::Error = err.into();
        assert_eq!(io_err.kind(), io::ErrorKind::InvalidData);
        assert!(io_err.to_string().contains("version mismatch"), "{io_err}");
        let schema = Hello { manifest_schema: 999, ..Hello::current() };
        assert!(matches!(
            schema.check(),
            Err(WireError::VersionMismatch { what: "manifest schema", .. })
        ));
        let refused = WireError::Refused("down for maintenance".into());
        assert!(refused.to_string().contains("down for maintenance"));
    }

    #[test]
    fn handshake_and_liveness_frames_round_trip() {
        let mut buf = Vec::new();
        let worker = Hello { pid: Some(4242), ..Hello::current() };
        write_frame(&mut buf, &WireReply::Hello(worker)).unwrap();
        write_frame(&mut buf, &WireRequest::Hello(Hello::current())).unwrap();
        write_frame(&mut buf, &WireRequest::Ping(42)).unwrap();
        write_frame(&mut buf, &WireReply::Pong(42)).unwrap();
        write_frame(&mut buf, &WireRequest::Refuse("too old".into())).unwrap();
        let mut reader = buf.as_slice();
        assert_eq!(read_frame::<WireReply, _>(&mut reader).unwrap(), WireReply::Hello(worker));
        assert_eq!(worker.check(), Ok(()), "the pid is not part of the version check");
        assert_eq!(
            read_frame::<WireRequest, _>(&mut reader).unwrap(),
            WireRequest::Hello(Hello::current())
        );
        assert_eq!(read_frame::<WireRequest, _>(&mut reader).unwrap(), WireRequest::Ping(42));
        assert_eq!(read_frame::<WireReply, _>(&mut reader).unwrap(), WireReply::Pong(42));
        assert_eq!(
            read_frame::<WireRequest, _>(&mut reader).unwrap(),
            WireRequest::Refuse("too old".into())
        );
        // A worker that predates the pid field still shakes hands.
        let legacy = format!(
            r#"{{"Hello":{{"protocol":{PROTOCOL_VERSION},"manifest_schema":{}}}}}"#,
            crate::persist::MANIFEST_SCHEMA
        );
        let hello: WireReply = serde_json::from_str(&legacy).unwrap();
        assert_eq!(hello, WireReply::Hello(Hello::current()));
    }

    #[test]
    fn custom_frame_caps_bound_both_ends() {
        let mut buf = Vec::new();
        // A tiny cap refuses the write producer-side...
        let err = write_frame_limited(&mut buf, &WireRequest::Shutdown, 3).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // ...and the read consumer-side, even for a well-formed frame.
        buf.clear();
        write_frame(&mut buf, &WireRequest::Shutdown).unwrap();
        let err = read_frame_limited::<WireRequest, _>(&mut buf.as_slice(), 3).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("MAX_FRAME_LEN"), "{err}");
        // A generous custom cap behaves like the default.
        let (back, len): (WireRequest, usize) =
            read_frame_limited(&mut buf.as_slice(), MAX_FRAME_LEN).unwrap();
        assert_eq!(back, WireRequest::Shutdown);
        assert_eq!(len, buf.len(), "the sized read counts header and payload");
    }

    #[test]
    fn frames_round_trip_requests() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &WireRequest::Job(Box::new(job(7, 3, false)))).unwrap();
        write_frame(&mut buf, &WireRequest::Shutdown).unwrap();
        let mut reader = buf.as_slice();
        let first: WireRequest = read_frame(&mut reader).unwrap();
        assert_eq!(first, WireRequest::Job(Box::new(job(7, 3, false))));
        let second: WireRequest = read_frame(&mut reader).unwrap();
        assert_eq!(second, WireRequest::Shutdown);
        // Clean end-of-stream reads as UnexpectedEof.
        let eof = read_frame::<WireRequest, _>(&mut reader).unwrap_err();
        assert_eq!(eof.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn header_is_fixed_width_decimal_plus_newline() {
        let mut buf = Vec::new();
        let written = write_frame(&mut buf, &WireRequest::Shutdown).unwrap();
        assert_eq!(written, buf.len(), "write_frame returns the frame's length");
        assert_eq!(&buf[..10], format!("{:010}", buf.len() - HEADER_LEN).as_bytes());
        assert_eq!(buf[10], b'\n');
    }

    #[test]
    fn malformed_frames_are_invalid_data_not_panics() {
        for bytes in [
            b"000000000x\n{}".as_slice(), // non-decimal length
            b"0000000002X{}".as_slice(),  // missing newline
            b"0000000002{]".as_slice(),   // unparseable payload
        ] {
            let err = read_frame::<WireRequest, _>(&mut &bytes[..]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{bytes:?}");
        }
        // Truncated payload: the stream died mid-frame.
        let err = read_frame::<WireRequest, _>(&mut &b"0000000099\n{}"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversized_length_headers_are_rejected_before_allocating() {
        // A corrupt header demanding ~9.3 GiB must fail fast as a typed
        // bad-frame error, not attempt the allocation.
        let err = read_frame::<WireRequest, _>(&mut &b"9999999999\n{}"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("MAX_FRAME_LEN"), "{err}");
    }

    #[test]
    fn results_round_trip_with_output_and_counters() {
        let config = CampaignConfig::new(ApproachKind::Varity).with_budget(4).with_seed(2);
        let spec = plan_shards(&config, 1)[0];
        let output = crate::shard::run_shard(&spec, &crate::shard::ShardCtx::new(&config));
        let result = ShardJobResult {
            index: spec.index,
            delta: output.successful_sources.clone(),
            checkpoint: None,
            output: Some(output),
            telemetry: None,
            lease: 5,
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &result).unwrap();
        let back: ShardJobResult = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(back, result);
        assert_eq!(shard_seed(2, 0), 2);
    }
}
