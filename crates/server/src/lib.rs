//! Detector-as-a-service: `dgrace serve`.
//!
//! A long-lived server that accepts live event streams from many
//! concurrent clients over a Unix-domain socket, multiplexes each onto
//! its own sharded [`IngestSession`](dgrace_runtime::IngestSession), and
//! streams race reports back as they fire. The offline pipeline trusts
//! its input ran to completion; a server can assume nothing — clients
//! disconnect mid-segment, send garbage, stall forever, or arrive
//! faster than the host can analyze — so every robustness mechanism is
//! structural:
//!
//! * **Backpressure.** Credit-based flow control: the handshake grants
//!   an event window, and credits are replenished only after a batch is
//!   *processed*. Per-session buffering is bounded by the window no
//!   matter how fast a client floods.
//! * **Fault isolation.** Each session runs on its own thread with its
//!   own engine; a malformed frame, a truncated stream, or a shard
//!   panic quarantines exactly that session (with an exact
//!   `events_lost` count from the prefix-preserving batch decoder) and
//!   every other session's race set is untouched.
//! * **Graceful degradation.** Admission control is a ladder, not a
//!   cliff: past a soft watermark new sessions run on the PR 8 sampling
//!   tier (bounded overhead, flagged recall); past the hard watermark
//!   they are shed with a typed `OVERLOADED` reply.
//! * **Crash durability.** Sessions checkpoint on an event cadence into
//!   the PR 5 `DGCP` manifests; after a crash (or SIGKILL) a server
//!   restarted with resume enabled reconstructs each session from its
//!   checkpoint, tells the reconnecting client the covered offset, and
//!   the finished report is byte-identical to an uninterrupted run.
//!
//! See `proto` for the wire protocol and DESIGN.md §17 for the session
//! lifecycle and the degradation ladder.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
pub mod proto;
mod session;

pub use client::{Client, ClientError, SessionEnd};

use std::collections::HashSet;
use std::io;
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use dgrace_detectors::SampleSpec;
use dgrace_shadow::{process_gauge, Watermarks};

/// Server tuning and robustness policy. Every knob has a sane default;
/// construct with [`ServerConfig::new`] and override fields as needed.
#[derive(Clone)]
pub struct ServerConfig {
    /// Path of the Unix-domain listening socket (created on bind; a
    /// stale file from a previous run is removed first).
    pub socket: PathBuf,
    /// Detector shards per session (live sessions are usually small;
    /// the default is 1).
    pub shards_per_session: usize,
    /// Hard admission watermark: at this many live sessions, new
    /// connections are shed with `OVERLOADED`.
    pub max_sessions: usize,
    /// Soft watermark: at this many live sessions, new sessions run on
    /// the sampling tier (when [`ServerConfig::degrade_sample`] is set).
    pub degrade_sessions: usize,
    /// Sampling spec for degraded admissions (default
    /// `loc:5,granule:16384`: each 16 KiB region's first accesses, where
    /// a planted race's first epochs are); `None` disables the sampled
    /// tier and the ladder goes straight to shed.
    pub degrade_sample: Option<SampleSpec>,
    /// A session that completes no frame for this long is quarantined
    /// (catches both idle and slowloris clients — the deadline spans a
    /// whole frame, so trickling bytes does not reset it).
    pub idle_timeout: Duration,
    /// Checkpoint directory: each session persists
    /// `<dir>/<session>.dgcp` manifests. `None` disables durability.
    pub checkpoint_dir: Option<PathBuf>,
    /// Events between periodic session checkpoints.
    pub checkpoint_every: u64,
    /// When true, a connecting session whose name has a manifest in
    /// [`ServerConfig::checkpoint_dir`] is reconstructed from it and the
    /// client is told the covered offset to skip.
    pub resume: bool,
    /// Process-wide accounted-memory cap. New sessions get a fair share
    /// (`limit / max_sessions`) as their per-session governor quota;
    /// once the process gauge crosses the high watermark new admissions
    /// run on the sampling tier, and past the critical watermark new
    /// connections are shed with `OVERLOADED`. `None` disables
    /// memory-based admission control.
    pub memory_limit: Option<u64>,
    /// Credit window granted at the handshake, in events.
    pub credits: u32,
}

impl ServerConfig {
    /// A config with default policy listening on `socket`.
    pub fn new(socket: impl Into<PathBuf>) -> Self {
        ServerConfig {
            socket: socket.into(),
            shards_per_session: 1,
            max_sessions: 256,
            degrade_sessions: 224,
            degrade_sample: Some(
                SampleSpec::parse("loc:5,granule:16384").expect("default sample spec"),
            ),
            idle_timeout: Duration::from_secs(30),
            checkpoint_dir: None,
            checkpoint_every: 65_536,
            resume: false,
            memory_limit: None,
            credits: 4096,
        }
    }
}

/// Counters describing everything the server has done; snapshot via
/// [`Server::stats`] / [`ServerHandle::stats`]. All counts are
/// cumulative except `active`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted (including ones later shed or refused).
    pub accepted: u64,
    /// Sessions currently live.
    pub active: u64,
    /// Sessions that finished cleanly (`FINISH` → `REPORT`).
    pub finished: u64,
    /// Connections shed by hard-watermark admission control.
    pub shed: u64,
    /// Of the shed connections, how many were shed because the process
    /// memory gauge sat at or above the critical watermark of
    /// [`ServerConfig::memory_limit`].
    pub shed_memory: u64,
    /// Sessions admitted onto the sampling tier (counted once their
    /// `HELLO` is accepted).
    pub degraded: u64,
    /// Sessions quarantined (malformed frames, disconnects, timeouts,
    /// failed resumes, handshake refusals).
    pub quarantined: u64,
    /// Sessions reconstructed from a checkpoint manifest.
    pub resumed: u64,
    /// Sessions suspended by server shutdown (final checkpoint written
    /// when durability is configured).
    pub suspended: u64,
    /// Events fed into detectors across all sessions.
    pub events: u64,
    /// Events declared by clients but undecodable — the exact
    /// `declared - decoded` loss from prefix-preserving batch decoding.
    pub events_lost: u64,
    /// Races streamed to clients (duplicates possible across sessions).
    pub races_streamed: u64,
    /// Checkpoint manifests written.
    pub checkpoints: u64,
}

/// State shared between the accept loop and session threads.
pub(crate) struct Shared {
    pub(crate) stats: Mutex<ServerStats>,
    /// Names of live sessions (duplicate HELLOs are refused).
    pub(crate) names: Mutex<HashSet<String>>,
    pub(crate) stop: AtomicBool,
}

impl Shared {
    pub(crate) fn with_stats<R>(&self, f: impl FnOnce(&mut ServerStats) -> R) -> R {
        f(&mut self.stats.lock().expect("stats lock"))
    }
}

/// What an accepted connection is admitted to.
pub(crate) enum Tier {
    /// Full analysis.
    Full,
    /// The sampling tier under [`ServerConfig::degrade_sample`].
    Sampled(SampleSpec),
    /// Shed with a typed `OVERLOADED` reply.
    Shed {
        /// The process gauge sat at or past the critical watermark.
        memory: bool,
    },
}

/// The admission ladder, decided once per connection at accept with
/// `active` live sessions not counting this one: shed at `max_sessions`
/// or with the process gauge at the critical watermark of
/// `memory_limit`; sample from `degrade_sessions` on
/// or with the gauge past the high watermark; otherwise full analysis.
fn admission(cfg: &ServerConfig, active: u64) -> Tier {
    let marks = cfg.memory_limit.map(Watermarks::for_limit);
    let gauge = process_gauge().total();
    let memory = marks.is_some_and(|w| gauge >= w.critical);
    if active >= cfg.max_sessions as u64 || memory {
        return Tier::Shed { memory };
    }
    let high = marks.is_some_and(|w| gauge >= w.high);
    match &cfg.degrade_sample {
        Some(spec) if active >= cfg.degrade_sessions as u64 || high => Tier::Sampled(spec.clone()),
        _ => Tier::Full,
    }
}

/// A bound, not-yet-running server. [`Server::run`] blocks the calling
/// thread in the accept loop; [`Server::spawn`] runs it on its own
/// thread and returns a [`ServerHandle`].
pub struct Server {
    cfg: Arc<ServerConfig>,
    shared: Arc<Shared>,
    listener: UnixListener,
}

impl Server {
    /// Binds the listening socket (removing a stale socket file first)
    /// and creates the checkpoint directory when durability is on.
    pub fn bind(cfg: ServerConfig) -> io::Result<Server> {
        if cfg.socket.exists() {
            std::fs::remove_file(&cfg.socket)?;
        }
        if let Some(dir) = &cfg.checkpoint_dir {
            std::fs::create_dir_all(dir)?;
        }
        let listener = UnixListener::bind(&cfg.socket)?;
        listener.set_nonblocking(true)?;
        Ok(Server {
            cfg: Arc::new(cfg),
            shared: Arc::new(Shared {
                stats: Mutex::new(ServerStats::default()),
                names: Mutex::new(HashSet::new()),
                stop: AtomicBool::new(false),
            }),
            listener,
        })
    }

    /// Snapshot of the server counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.with_stats(|s| s.clone())
    }

    /// The shared state (stop flag + stats), for embedding callers.
    fn shared(&self) -> Arc<Shared> {
        Arc::clone(&self.shared)
    }

    /// Runs the accept loop until `stop` (or the internal stop flag) is
    /// set: admit → spawn a session thread; past the hard watermark,
    /// shed with `OVERLOADED`. On shutdown, waits for every session
    /// thread to wind down (each polls the stop flag and writes its
    /// final checkpoint).
    pub fn run(self, stop: Option<&AtomicBool>) -> io::Result<ServerStats> {
        let mut workers: Vec<JoinHandle<()>> = Vec::new();
        let stop_requested = |shared: &Shared| {
            shared.stop.load(Ordering::Relaxed) || stop.is_some_and(|s| s.load(Ordering::Relaxed))
        };
        loop {
            if stop_requested(&self.shared) {
                // Propagate to session threads (they poll `shared.stop`).
                self.shared.stop.store(true, Ordering::Relaxed);
                break;
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false)?;
                    let tier = self.shared.with_stats(|s| {
                        s.accepted += 1;
                        let tier = admission(&self.cfg, s.active);
                        match tier {
                            Tier::Shed { memory } => {
                                s.shed += 1;
                                s.shed_memory += memory as u64;
                            }
                            _ => s.active += 1,
                        }
                        tier
                    });
                    if let Tier::Shed { .. } = tier {
                        // Typed shed: the client sees `OVERLOADED`, not
                        // a hang or a reset.
                        let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
                        let _ = proto::send(&mut &stream, proto::FRAME_OVERLOADED, &[]);
                        continue;
                    }
                    let cfg = Arc::clone(&self.cfg);
                    let shared = self.shared();
                    workers.push(std::thread::spawn(move || {
                        session::handle_connection(stream, &cfg, &shared, tier);
                        shared.with_stats(|s| s.active -= 1);
                    }));
                    workers.retain(|w| !w.is_finished());
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        for w in workers {
            let _ = w.join();
        }
        let _ = std::fs::remove_file(&self.cfg.socket);
        Ok(self.stats())
    }

    /// Runs the server on a background thread; the returned handle stops
    /// it and collects the final stats.
    pub fn spawn(cfg: ServerConfig) -> io::Result<ServerHandle> {
        let socket = cfg.socket.clone();
        let server = Server::bind(cfg)?;
        let shared = server.shared();
        let thread = std::thread::spawn(move || server.run(None));
        Ok(ServerHandle {
            shared,
            thread,
            socket,
        })
    }
}

/// Handle to a server running on a background thread.
pub struct ServerHandle {
    shared: Arc<Shared>,
    thread: JoinHandle<io::Result<ServerStats>>,
    socket: PathBuf,
}

impl ServerHandle {
    /// The socket path clients connect to.
    pub fn socket(&self) -> &std::path::Path {
        &self.socket
    }

    /// Snapshot of the server counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.with_stats(|s| s.clone())
    }

    /// Requests a graceful stop (sessions write final checkpoints) and
    /// waits for the accept loop to drain, returning the final stats.
    pub fn stop(self) -> io::Result<ServerStats> {
        self.shared.stop.store(true, Ordering::Relaxed);
        self.thread.join().expect("server thread panicked")
    }
}
