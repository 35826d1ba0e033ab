//! The lanes: the one way the replay driver and a live session hand
//! events to the shards, with an optional worker thread per lane.
//!
//! * **One lane per shard.** The walking thread routes each access by
//!   address (the engine's router, at the moment the access is walked)
//!   and stages `(stamp, event)` pairs on its shard's lane; a sync event
//!   is staged on every lane. Every walked event takes one stamp — a
//!   sync one stamp shared by all its copies — so each lane carries its
//!   shard's whole stream: its routed accesses interleaved with all sync
//!   events in trace order.
//! * **One feed.** A staged segment reaches its shard only through
//!   [`Engine::feed_segment`], when it is full (`SEGMENT_EVENTS`) and at
//!   every barrier. Under [`Transport::Rings`] the segment is pushed
//!   into the lane's bounded [`Spsc`] ring and a worker owning the lane
//!   feeds it — the only cross-thread traffic on the hot path is the
//!   ring cursors, and a sync costs no cross-shard locking. Under
//!   [`Transport::Funnel`] (and in a live session) the walking thread
//!   feeds it inline, also at every sync event and wherever a source
//!   block ends: the report is ready at each sync, a stop flag raised by
//!   a detector is seen before the next event, and a sync-free trace is
//!   never staged past a block.
//! * **Identical by construction.** Both transports route, stamp and
//!   cut identically; only *when* a segment is fed differs, and a shard
//!   sees the same stream either way. Their race sets, checkpoint
//!   manifests and failure reports are therefore byte-identical, and
//!   each resumes the other's manifests. A checkpoint barriers every
//!   lane (the walking thread waits until all workers drain to the
//!   boundary) and captures the engine; a healing shard replays its own
//!   journal, which holds the same per-shard stream.
//!
//! [`Transport::Rings`]: crate::Transport::Rings
//! [`Transport::Funnel`]: crate::Transport::Funnel

use std::sync::mpsc;
use std::thread;

use dgrace_trace::Event;

use crate::engine::Engine;
use crate::replay::{ReplayError, Transport};
use crate::ring::Spsc;

/// Target events per segment. Large enough that ring and notify
/// overhead amortize to noise; small enough that lanes stay busy on
/// sync-light traces.
const SEGMENT_EVENTS: usize = 1024;

/// Ring capacity in segments per lane: bounds producer run-ahead (and
/// queued-segment memory) without stalling workers on short hiccups.
/// How full the rings get depends on thread scheduling, so this bound is
/// also the part of peak RSS that differs from one run to the next. On
/// `--shards 2 --pipeline` over the ledger's `stream` input, 64 let the
/// peak range over 3.4 MiB (inter-quartile 2 MiB) and 32 over 1.6 MiB
/// (0.5 MiB) at the same wall time; 16 narrowed it further but cost
/// sync-heavy traces 8 % wall (EXPERIMENTS.md, "Ring depth and peak-RSS
/// spread").
const RING_SEGMENTS: usize = 32;

type Segment = Vec<(u64, Event)>;

/// One unit of work on a shard lane's ring.
enum Job {
    /// A stamped segment of the shard's event stream.
    Run(Segment),
    /// Checkpoint barrier: acknowledge once everything before this
    /// point has been fed to the detector.
    Barrier(mpsc::Sender<()>),
}

/// The walking thread's side of the lanes: one staging segment per
/// shard, fed inline or pushed into that lane's ring.
pub(crate) struct Lanes<'r> {
    /// One ring per lane, each drained by its worker; `None` feeds every
    /// segment inline on the walking thread.
    rings: Option<&'r [Spsc<Job>]>,
    stage: Vec<Segment>,
    /// Scratch for one event's routing targets.
    targets: Vec<usize>,
    /// The stamp of the first event walked since the last barrier.
    base: u64,
    /// Events stamped since the last barrier.
    stamped: u64,
}

/// Runs `run` on the calling thread with the lanes of `transport` over
/// `engine`. On the rings, one worker per lane is spawned first and
/// joined before returning; the rings are closed on *every* exit path of
/// `run` (including checkpoint I/O errors) so workers always drain and
/// terminate.
pub(crate) fn with_lanes<R>(
    engine: &Engine,
    transport: Transport,
    run: impl FnOnce(Lanes<'_>) -> R,
) -> R {
    let shards = engine.shard_count();
    if transport == Transport::Funnel {
        return run(Lanes::inline(shards));
    }
    let rings: Vec<Spsc<Job>> = (0..shards).map(|_| Spsc::new(RING_SEGMENTS)).collect();
    thread::scope(|scope| {
        for (i, ring) in rings.iter().enumerate() {
            scope.spawn(move || {
                while let Some(job) = ring.pop() {
                    match job {
                        Job::Run(seg) => engine.feed_segment(i, &seg),
                        Job::Barrier(ack) => {
                            let _ = ack.send(());
                        }
                    }
                }
            });
        }
        let out = run(Lanes::new(Some(&rings), shards));
        for ring in &rings {
            ring.close();
        }
        out
    })
}

impl<'r> Lanes<'r> {
    /// Lanes for `shards` shards, each segment fed inline on the walking
    /// thread.
    pub(crate) fn inline(shards: usize) -> Self {
        Lanes::new(None, shards)
    }

    fn new(rings: Option<&'r [Spsc<Job>]>, shards: usize) -> Self {
        Lanes {
            rings,
            stage: vec![Vec::new(); shards],
            targets: Vec::new(),
            base: 0,
            stamped: 0,
        }
    }

    /// The next walked event's stamp. The base is read from the engine
    /// at the first event after a barrier, so a restore between walks
    /// (a resumed run or session) is picked up.
    #[inline]
    fn stamp(&mut self, engine: &Engine) -> u64 {
        if self.stamped == 0 {
            self.base = engine.next_stamp();
        }
        self.stamped += 1;
        self.base + self.stamped - 1
    }

    /// Stages `(stamp, ev)` on lane `s`, feeding the segment once full.
    #[inline]
    fn stage(&mut self, engine: &Engine, s: usize, stamp: u64, ev: &Event) {
        let lane = &mut self.stage[s];
        lane.push((stamp, *ev));
        if lane.len() >= SEGMENT_EVENTS {
            self.ship(engine, s);
        }
    }

    /// Hands one unpruned access, `Alloc` or `Free` to its shard(s).
    /// (`access`, `stage`, `stamp` and `Engine::route` are `#[inline]`:
    /// a call each per event cost `--shards 1` 7 % CPU on the ledger's
    /// `stream` input.)
    #[inline]
    pub(crate) fn access(&mut self, engine: &Engine, ev: &Event) {
        let stamp = self.stamp(engine);
        if let Event::Free { .. } = ev {
            engine.free_targets(ev, &mut self.targets);
            for i in 0..self.targets.len() {
                self.stage(engine, self.targets[i], stamp, ev);
            }
        } else {
            self.stage(engine, engine.route(ev), stamp, ev);
        }
    }

    /// Hands one sync event to every shard under one stamp, ordered after
    /// everything handed over before it.
    pub(crate) fn sync(&mut self, engine: &Engine, ev: &Event) {
        let stamp = self.stamp(engine);
        for s in 0..self.stage.len() {
            self.stage(engine, s, stamp, ev);
        }
        if self.rings.is_none() {
            self.flush(engine);
        }
    }

    /// Called where one block of the source ends: inline lanes feed what
    /// they staged, so it does not grow with a sync-free trace.
    pub(crate) fn block_end(&mut self, engine: &Engine) {
        if self.rings.is_none() {
            self.flush(engine);
        }
    }

    /// Hands every staged segment to its shard (inline: feeds it).
    pub(crate) fn flush(&mut self, engine: &Engine) {
        for s in 0..self.stage.len() {
            self.ship(engine, s);
        }
    }

    /// Returns once every event handed over so far has been fed to its
    /// detector and its stamp committed, so an engine capture covers
    /// exactly those events. On the rings: one barrier job per lane, one
    /// acknowledgement awaited per lane.
    pub(crate) fn barrier(&mut self, engine: &Engine) -> Result<(), ReplayError> {
        self.flush(engine);
        if let Some(rings) = self.rings {
            let (tx, rx) = mpsc::channel();
            for ring in rings {
                if ring.push(Job::Barrier(tx.clone())).is_err() {
                    return Err(ReplayError::Io("shard lane closed mid-run".into()));
                }
            }
            drop(tx);
            for _ in rings {
                rx.recv()
                    .map_err(|_| ReplayError::Io("shard worker exited mid-run".into()))?;
            }
        }
        engine.commit(std::mem::take(&mut self.stamped));
        Ok(())
    }

    /// Feeds lane `s`'s staged segment inline, or pushes it into the
    /// lane's ring (blocking while the ring is full — backpressure
    /// against a slow shard).
    fn ship(&mut self, engine: &Engine, s: usize) {
        let lane = &mut self.stage[s];
        if lane.is_empty() {
            return;
        }
        let Some(rings) = self.rings else {
            engine.feed_segment(s, lane);
            lane.clear();
            return;
        };
        let seg = std::mem::replace(lane, Vec::with_capacity(SEGMENT_EVENTS));
        // The rings are only closed after the walker returns, so the
        // push cannot be rejected mid-run.
        if rings[s].push(Job::Run(seg)).is_err() {
            unreachable!("shard lane closed while the walker was running");
        }
    }
}
