//! The ring transport: ring-buffered per-shard ingestion lanes behind
//! the [`Lanes`] seam of [`crate::replay`].
//!
//! The funnel transport drives every shard from one thread and
//! broadcasts each sync event while holding *all* shard locks — on
//! multi-core hosts the shards serialize behind the dispatcher instead
//! of scaling. This module is the parallel transport:
//!
//! * **One SPSC ring per shard.** The driver's thread is the producer:
//!   it routes accesses by address (the same [`Router`] the funnel uses),
//!   and appends `(stamp, event)` pairs to per-shard staging segments,
//!   pushed into bounded [`Spsc`] lanes in batches. Each shard worker
//!   owns its lane's consumer side and its shard's detector: the only
//!   cross-thread traffic on the hot path is the ring cursors.
//! * **Epoch-batched sync broadcast.** A sync event is *not* applied
//!   under all shard locks; it is stamped once and appended inline to
//!   every lane's segment. Each worker applies it to its own detector
//!   when its lane reaches that point — one flush per segment boundary,
//!   zero cross-shard locking, and every shard still observes the exact
//!   same happens-before sequence: its routed accesses interleaved with
//!   all sync events in trace order. That per-shard sequence is
//!   identical to what funnel dispatch feeds, so race sets are too.
//! * **Exactness preserved.** Checkpoint, resume, self-heal and
//!   quarantine reuse the engine machinery unchanged. A checkpoint
//!   barriers every lane (the producer waits until all workers drain to
//!   the boundary), captures the same [`EngineState`] the funnel path
//!   writes, and the two paths can resume each other's manifests. A
//!   healing shard delta-replays its own journal suffix, which on this
//!   path carries its sync copies inline — stamp order reconstructs the
//!   exact per-shard sequence.
//!
//! One deliberate divergence from the funnel path: accesses are routed
//! *immediately* as the producer walks the trace, not deferred to the
//! next sync boundary. An access that precedes its object's `Alloc`
//! within one inter-sync window may therefore land on a different shard
//! than funnel replay would choose. This can shift per-shard partition
//! statistics (peak bytes, per-shard counts) but never the race set —
//! the partitioned analysis is race-set-exact for *any* whole-range
//! routing, which is what the scaling-equivalence suite locks in.
//!
//! [`Router`]: crate::engine — see the engine module docs.
//! [`EngineState`]: crate::engine — see the engine module docs.

use std::sync::mpsc;
use std::thread;

use dgrace_shadow::{process_gauge, MemComponent};
use dgrace_trace::Event;

use crate::engine::Engine;
use crate::replay::{Lanes, ReplayError};
use crate::ring::Spsc;

/// Target events per ring segment. Large enough that ring and notify
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

/// One unit of work on a shard lane.
enum Job {
    /// A stamped segment of the shard's event stream.
    Run(Vec<(u64, Event)>),
    /// Checkpoint barrier: acknowledge once everything before this
    /// point has been fed to the detector.
    Barrier(mpsc::Sender<()>),
}

/// The producer side of the ring transport: one staging segment per
/// shard lane, pushed into that lane's ring when full and at barriers.
pub(crate) struct RingLanes<'r> {
    rings: &'r [Spsc<Job>],
    stage: Vec<Vec<(u64, Event)>>,
    /// Scratch for one event's routing targets.
    targets: Vec<usize>,
}

/// Spawns one worker per shard lane, hands the lanes' producer side to
/// `run` on the calling thread, and joins everything before returning.
/// The rings are closed on *every* exit path of `run` (including
/// checkpoint I/O errors) so workers always drain and terminate.
pub(crate) fn with_lanes<R>(engine: &Engine, run: impl FnOnce(RingLanes<'_>) -> R) -> R {
    let shards = engine.shard_count();
    let rings: Vec<Spsc<Job>> = (0..shards).map(|_| Spsc::new(RING_SEGMENTS)).collect();
    thread::scope(|scope| {
        for (i, ring) in rings.iter().enumerate() {
            scope.spawn(move || {
                while let Some(job) = ring.pop() {
                    match job {
                        Job::Run(seg) => {
                            engine.feed_segment(i, &seg);
                            // Retire this segment's bytes from the
                            // process gauge (the producer booked them
                            // at flush).
                            process_gauge().sub(MemComponent::RingLanes, segment_bytes(&seg));
                        }
                        Job::Barrier(ack) => {
                            let _ = ack.send(());
                        }
                    }
                }
            });
        }
        let out = run(RingLanes {
            rings: &rings,
            stage: vec![Vec::new(); shards],
            targets: Vec::new(),
        });
        for ring in &rings {
            ring.close();
        }
        out
    })
}

/// Heap bytes held by one in-flight ring segment, as booked against
/// [`MemComponent::RingLanes`] on the process gauge. Reporting only —
/// never an input to the deterministic pressure ladder.
fn segment_bytes(seg: &[(u64, Event)]) -> u64 {
    std::mem::size_of_val(seg) as u64
}

impl RingLanes<'_> {
    /// Stages `(stamp, ev)` on lane `s`, pushing the segment once full.
    fn stage(&mut self, s: usize, stamp: u64, ev: &Event) {
        let lane = &mut self.stage[s];
        lane.push((stamp, *ev));
        if lane.len() >= SEGMENT_EVENTS {
            flush_lane(&self.rings[s], lane);
        }
    }
}

impl Lanes for RingLanes<'_> {
    fn access(&mut self, engine: &Engine, ev: &Event) {
        let stamp = engine.alloc_stamp();
        engine.route_targets(ev, &mut self.targets);
        for i in 0..self.targets.len() {
            self.stage(self.targets[i], stamp, ev);
        }
        engine.note_emitted(1);
    }

    /// Epoch-batched broadcast: one stamp, appended to every lane's
    /// segment; workers apply it without cross-shard coordination when
    /// their lane reaches this point.
    fn sync(&mut self, engine: &Engine, ev: &Event) {
        let stamp = engine.alloc_stamp();
        for s in 0..self.stage.len() {
            self.stage(s, stamp, ev);
        }
        engine.note_emitted(1);
    }

    /// Quiesce: every lane drains to this boundary — one barrier job per
    /// lane, one acknowledgement awaited per lane — so a capture covers
    /// exactly the events handed over so far, the same cut the funnel
    /// checkpoints.
    fn barrier(&mut self, _engine: &Engine) -> Result<(), ReplayError> {
        let (tx, rx) = mpsc::channel();
        for (lane, ring) in self.stage.iter_mut().zip(self.rings) {
            flush_lane(ring, lane);
            if ring.push(Job::Barrier(tx.clone())).is_err() {
                return Err(ReplayError::Io("shard lane closed mid-run".into()));
            }
        }
        drop(tx);
        for _ in self.rings {
            rx.recv()
                .map_err(|_| ReplayError::Io("shard worker exited mid-run".into()))?;
        }
        Ok(())
    }
}

/// Pushes a lane's staged segment into its ring (blocking while the
/// ring is full — backpressure against a slow shard).
fn flush_lane(ring: &Spsc<Job>, lane: &mut Vec<(u64, Event)>) {
    if lane.is_empty() {
        return;
    }
    let seg = std::mem::replace(lane, Vec::with_capacity(SEGMENT_EVENTS));
    // Book the in-flight segment against the process gauge; the worker
    // retires it after feeding the detector.
    process_gauge().add(MemComponent::RingLanes, segment_bytes(&seg));
    // The rings are only closed after the producer returns, so the push
    // cannot be rejected mid-run.
    if ring.push(Job::Run(seg)).is_err() {
        unreachable!("shard lane closed while the producer was running");
    }
}
