//! Per-connection session handling.
//!
//! Each accepted connection runs on its own thread with its own
//! [`IngestSession`] — the unit of fault isolation. Everything that can
//! go wrong with one client (malformed frames, truncation, disconnects,
//! stalls, a resume against the wrong detector) ends in a *quarantine*:
//! a typed `ERROR` frame (best-effort), a final checkpoint when
//! durability is configured, and a closed socket. No shared state
//! beyond the stats counters is touched, so every other session's race
//! set is byte-identical to what it would be on a private server.
//!
//! The read side is a polling wrapper: the socket wakes every few
//! milliseconds so the thread can notice the server-wide stop flag, but
//! the *idle deadline* only resets when a whole frame completes — a
//! slowloris client trickling one byte per poll interval still hits the
//! deadline mid-frame and is quarantined like any other staller.

use std::io::{self, BufWriter, Read, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use dgrace_core::{vc_detector, vc_detector_names};
use dgrace_detectors::{Sampled, ShardableDetector};
use dgrace_runtime::{CheckpointManifest, IngestSession};
use dgrace_trace::{decode_events, DecodeLimits, TraceError};

use crate::proto::{self, Hello, Welcome, FRAME_ERROR, FRAME_EVENTS, FRAME_FINISH, FRAME_HELLO};
use crate::{ServerConfig, Shared, Tier};

/// How a session ended, short of a quarantine.
enum End {
    /// `FINISH` received, `REPORT` sent.
    Finished,
    /// Server shutdown wound the session down (checkpointed when
    /// durability is configured); the client may reconnect and resume.
    Suspended,
}

/// A session fault: the reason travels to the client as an `ERROR`
/// frame and to the operator via stderr.
struct Quarantine {
    reason: String,
}

impl Quarantine {
    fn new(reason: impl Into<String>) -> Self {
        Quarantine {
            reason: reason.into(),
        }
    }
}

/// Why the polled reader gave up on a read.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Halt {
    /// A real I/O error (connection reset, ...).
    None,
    /// The idle deadline passed without a completed frame.
    Timeout,
    /// The server-wide stop flag was raised.
    Stop,
}

/// Blocking-read adapter over a socket with a short kernel timeout: each
/// `read` retries on timeout until data arrives, the stop flag rises, or
/// the frame-level idle deadline passes. `read_frame` on top of this
/// never sees a spurious timeout, so partial frame progress is never
/// lost to stop-flag polling.
struct PolledStream<'a> {
    stream: &'a UnixStream,
    shared: &'a Shared,
    idle: Duration,
    deadline: Instant,
    halt: Halt,
}

impl<'a> PolledStream<'a> {
    fn new(stream: &'a UnixStream, shared: &'a Shared, idle: Duration) -> Self {
        PolledStream {
            stream,
            shared,
            idle,
            deadline: Instant::now() + idle,
            halt: Halt::None,
        }
    }

    /// Re-arms the idle deadline; called after every completed frame.
    fn frame_done(&mut self) {
        self.deadline = Instant::now() + self.idle;
        self.halt = Halt::None;
    }
}

impl Read for PolledStream<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut raw = self.stream;
        loop {
            match raw.read(buf) {
                Ok(n) => return Ok(n),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    if self.shared.stop.load(Ordering::Relaxed) {
                        self.halt = Halt::Stop;
                        return Err(e);
                    }
                    if Instant::now() >= self.deadline {
                        self.halt = Halt::Timeout;
                        return Err(e);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Removes the session's name from the live set when the handler exits,
/// however it exits.
struct NameGuard<'a> {
    shared: &'a Shared,
    name: String,
}

impl<'a> NameGuard<'a> {
    fn register(shared: &'a Shared, name: &str) -> Option<Self> {
        let inserted = shared
            .names
            .lock()
            .expect("names lock")
            .insert(name.to_string());
        inserted.then(|| NameGuard {
            shared,
            name: name.to_string(),
        })
    }
}

impl Drop for NameGuard<'_> {
    fn drop(&mut self) {
        self.shared
            .names
            .lock()
            .expect("names lock")
            .remove(&self.name);
    }
}

/// Entry point for one accepted connection, admitted at `tier`; owns the
/// full lifecycle and the outcome accounting.
pub(crate) fn handle_connection(
    stream: UnixStream,
    cfg: &ServerConfig,
    shared: &Shared,
    tier: Tier,
) {
    // Writes that stall longer than the idle budget quarantine the
    // session instead of parking the thread forever behind a client
    // that stopped reading.
    let _ = stream.set_write_timeout(Some(cfg.idle_timeout.max(Duration::from_secs(1))));
    let poll = poll_interval(cfg.idle_timeout);
    if stream.set_read_timeout(Some(poll)).is_err() {
        return;
    }
    match run_session(&stream, cfg, shared, tier) {
        Ok(End::Finished) => shared.with_stats(|s| s.finished += 1),
        Ok(End::Suspended) => shared.with_stats(|s| s.suspended += 1),
        Err(q) => {
            shared.with_stats(|s| s.quarantined += 1);
            eprintln!("dgrace serve: session quarantined: {}", q.reason);
            let _ = proto::send(&mut &stream, FRAME_ERROR, q.reason.as_bytes());
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// The kernel-level read timeout: short enough that the stop flag is
/// noticed promptly, never longer than the idle budget itself.
fn poll_interval(idle: Duration) -> Duration {
    (idle / 4).clamp(Duration::from_millis(1), Duration::from_millis(50))
}

fn run_session(
    stream: &UnixStream,
    cfg: &ServerConfig,
    shared: &Shared,
    tier: Tier,
) -> Result<End, Quarantine> {
    let mut offset = 0u64;
    let mut reader = PolledStream::new(stream, shared, cfg.idle_timeout);

    // ---- Handshake -------------------------------------------------
    let frame = match proto::recv(&mut reader, &mut offset) {
        Ok(Some(f)) => f,
        Ok(None) => return Err(Quarantine::new("disconnected before HELLO")),
        Err(_) if reader.halt == Halt::Stop => return Ok(End::Suspended),
        Err(_) if reader.halt == Halt::Timeout => {
            return Err(Quarantine::new("idle timeout waiting for HELLO"))
        }
        Err(e) => return Err(Quarantine::new(format!("handshake read failed: {e}"))),
    };
    if frame.kind != FRAME_HELLO {
        return Err(Quarantine::new(format!(
            "expected HELLO, got frame kind {:#04x}",
            frame.kind
        )));
    }
    let hello = Hello::decode(&frame.payload).map_err(Quarantine::new)?;
    // Sessions run on the hash shadow store (the store the offline
    // sharded paths default to).
    let proto_det = vc_detector(&hello.detector).ok_or_else(|| {
        Quarantine::new(format!(
            "unknown detector `{}` (serve supports the shardable family: {})",
            hello.detector,
            vc_detector_names()
        ))
    })?;
    let _name_guard = NameGuard::register(shared, &hello.session)
        .ok_or_else(|| Quarantine::new(format!("session `{}` is already live", hello.session)))?;

    // A session admitted onto the sampling tier (the admission decision
    // was made at accept) wraps its detector in the sampler.
    let degraded = matches!(tier, Tier::Sampled(_));
    let proto_det: Box<dyn ShardableDetector + Send> = match tier {
        Tier::Sampled(spec) => {
            shared.with_stats(|s| s.degraded += 1);
            Box::new(Sampled::new(proto_det, spec))
        }
        _ => proto_det,
    };
    // With a process cap configured, each session runs under the memory
    // governor with a fair share of the cap as its quota.
    let quota = cfg
        .memory_limit
        .map(|limit| (limit / cfg.max_sessions.max(1) as u64).max(1));
    let mut sess = IngestSession::new(&*proto_det, cfg.shards_per_session, quota);

    // ---- Resume ----------------------------------------------------
    let ckpt_path: Option<PathBuf> = cfg
        .checkpoint_dir
        .as_ref()
        .map(|d| d.join(format!("{}.dgcp", hello.session)));
    if cfg.resume {
        if let Some(path) = &ckpt_path {
            match CheckpointManifest::load(path) {
                Ok(Some(m)) => {
                    sess.resume(&m)
                        .map_err(|e| Quarantine::new(format!("resume {}: {e}", path.display())))?;
                    shared.with_stats(|s| s.resumed += 1);
                }
                Ok(None) => {}
                Err(e) => {
                    return Err(Quarantine::new(format!(
                        "checkpoint {} is unreadable: {e}",
                        path.display()
                    )))
                }
            }
        }
    }

    let mut out = BufWriter::new(stream);
    let welcome = Welcome {
        start_offset: sess.events(),
        credits: cfg.credits,
        degraded,
    };
    send(&mut out, proto::FRAME_WELCOME, &welcome.encode())?;
    out.flush()
        .map_err(|e| Quarantine::new(format!("write failed: {e}")))?;

    // ---- Event loop ------------------------------------------------
    let mut sess = Some(sess);
    let mut last_ckpt = welcome.start_offset;
    // A periodic checkpoint that fails to persist degrades durability,
    // not detection: the session keeps analyzing on its last good
    // manifest and the final report carries the flag.
    let mut ckpt_degraded = false;
    let limits = DecodeLimits::default();
    loop {
        reader.frame_done();
        match proto::recv(&mut reader, &mut offset) {
            Ok(Some(frame)) if frame.kind == FRAME_EVENTS => {
                let s = sess.as_mut().expect("session live");
                let base = offset - frame.payload.len() as u64;
                let batch = decode_events(&frame.payload, base, &limits);
                // The clean prefix is always fed — that is what makes
                // `events_lost` exact rather than "the whole frame".
                s.feed_all(&batch.events);
                shared.with_stats(|st| st.events += batch.events.len() as u64);
                let races = s.drain_new_races();
                if !races.is_empty() {
                    shared.with_stats(|st| st.races_streamed += races.len() as u64);
                    send(&mut out, proto::FRAME_RACE, &proto::encode_races(&races))?;
                }
                if let Some(err) = &batch.error {
                    let lost = batch.lost();
                    shared.with_stats(|st| st.events_lost += lost);
                    final_checkpoint(s, ckpt_path.as_deref(), shared);
                    return Err(Quarantine::new(format!(
                        "malformed event batch: {err} ({lost} of {} declared events lost)",
                        batch.declared
                    )));
                }
                send(
                    &mut out,
                    proto::FRAME_CREDIT,
                    &proto::encode_credit(batch.events.len() as u32),
                )?;
                out.flush()
                    .map_err(|e| Quarantine::new(format!("write failed: {e}")))?;
                if ckpt_path.is_some() && s.events() - last_ckpt >= cfg.checkpoint_every {
                    let m = s.checkpoint();
                    let path = ckpt_path.as_deref().expect("path");
                    if let Err(e) = save_manifest(&m, path, shared) {
                        if !ckpt_degraded {
                            eprintln!(
                                "dgrace serve: warning: checkpoint write {} failed: {e}; \
                                 detection continues (the last complete checkpoint is retained)",
                                path.display()
                            );
                        }
                        ckpt_degraded = true;
                    }
                    last_ckpt = s.events();
                }
            }
            Ok(Some(frame)) if frame.kind == FRAME_FINISH => {
                let mut report = sess.take().expect("session live").finalize();
                report.checkpointing_degraded |= ckpt_degraded;
                // A batch that lost events always quarantines the
                // session, so a session that reaches FINISH has lost
                // exactly zero — the field documents that invariant.
                let json = proto::report_frame_json(&hello.session, &report, 0, degraded);
                send(&mut out, proto::FRAME_REPORT, json.as_bytes())?;
                out.flush()
                    .map_err(|e| Quarantine::new(format!("write failed: {e}")))?;
                if let Some(path) = &ckpt_path {
                    // A finished session's checkpoint must not be
                    // resumed into a fresh stream later.
                    let _ = std::fs::remove_file(path);
                }
                return Ok(End::Finished);
            }
            Ok(Some(frame)) => {
                let s = sess.as_mut().expect("session live");
                final_checkpoint(s, ckpt_path.as_deref(), shared);
                return Err(Quarantine::new(format!(
                    "unexpected frame kind {:#04x} mid-session",
                    frame.kind
                )));
            }
            Ok(None) => {
                let s = sess.as_mut().expect("session live");
                final_checkpoint(s, ckpt_path.as_deref(), shared);
                return Err(Quarantine::new(format!(
                    "disconnected without FINISH after {} events",
                    sess.as_ref().map_or(0, |s| s.events())
                )));
            }
            Err(e) => {
                let s = sess.as_mut().expect("session live");
                final_checkpoint(s, ckpt_path.as_deref(), shared);
                return match reader.halt {
                    Halt::Stop => Ok(End::Suspended),
                    Halt::Timeout => Err(Quarantine::new(format!(
                        "idle timeout: no complete frame within {:?}",
                        cfg.idle_timeout
                    ))),
                    Halt::None => {
                        let what = match &e {
                            TraceError::Truncated { .. } => "disconnected mid-frame",
                            _ => "stream error",
                        };
                        Err(Quarantine::new(format!("{what}: {e}")))
                    }
                };
            }
        }
    }
}

/// Sends one frame through the session's buffered writer, mapping write
/// failures to a quarantine.
fn send<W: Write>(out: &mut W, kind: u8, payload: &[u8]) -> Result<(), Quarantine> {
    proto::send(out, kind, payload).map_err(|e| Quarantine::new(format!("write failed: {e}")))
}

/// Best-effort final checkpoint on any abnormal session exit, so a
/// reconnecting client can resume the covered prefix.
fn final_checkpoint(sess: &mut IngestSession, path: Option<&Path>, shared: &Shared) {
    if let Some(path) = path {
        let m = sess.checkpoint();
        let _ = save_manifest(&m, path, shared);
    }
}

fn save_manifest(m: &CheckpointManifest, path: &Path, shared: &Shared) -> io::Result<()> {
    m.save(path)?;
    shared.with_stats(|s| s.checkpoints += 1);
    Ok(())
}
