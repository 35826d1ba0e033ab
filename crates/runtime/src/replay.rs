//! The one replay driver: walk a source of events through N detector
//! shards under a [`RunPlan`].
//!
//! Sharding, the transport, pruning, checkpoints, resume and
//! cooperative interruption are orthogonal to
//! the detector, so each is a field of the plan and each is written
//! once:
//!
//! * **One engine.** `Engine::build` is the one engine constructor — of
//!   a replay, a live session and the live runtime; [`resume_from`] is
//!   the only place a checkpoint is checked against a run and restored
//!   into it.
//! * **One loop.** [`Driver::step`] handles one event — prune, register
//!   an `Alloc`'s range with the router, hand the event to the lanes,
//!   count it, checkpoint when the cadence is due. [`replay`] walks an
//!   [`EventSource`] — a [`Trace`] in memory or a `.dgrt` stream decoded
//!   a block at a time — through it (polling the stop flag between
//!   events); [`crate::IngestSession`] feeds it from a socket, and the
//!   live [`crate::Runtime`] from its threads' buffers.
//! * **One transport kernel**, the lanes of [`crate::pipeline`], with a
//!   worker thread per lane or without: [`Transport::Funnel`] feeds each
//!   segment on the walking thread (what `--shards N` and a live session
//!   run), [`Transport::Rings`] hands it to the lane's worker (what
//!   `--shards N --pipeline` runs). Both feed every shard the same
//!   stamped sequence — its routed accesses interleaved with all sync
//!   events in trace order — so reports, failures and checkpoint
//!   manifests are byte-identical and each resumes the other's.
//!
//! Access events are routed by address (allocation events register their
//! range with the router, so whole objects stay in one shard; addresses
//! outside any allocation fall back to 4 KiB region hashing). For traces
//! without allocation events a 4 KiB region boundary may split
//! sharing-adjacent addresses across shards — the online runtime never
//! does, because every tracked object is registered wholly with one
//! shard.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use dgrace_detectors::{Report, ShardableDetector};
use dgrace_trace::{Event, EventSource, PruneSet, Trace, TraceError};

use crate::checkpoint::{CheckpointManifest, CHECKPOINT_FILE};
use crate::engine::{mint, Engine};
use crate::pipeline::{with_lanes, Lanes};

/// How events reach the shards: the same lanes either way, fed on the
/// walking thread or by one worker per lane.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Transport {
    /// The walking thread feeds every shard's lane itself, at each sync
    /// event, block end and full segment.
    #[default]
    Funnel,
    /// One worker thread per shard behind a bounded SPSC ring
    /// (DESIGN.md §14).
    Rings,
}

/// Everything a [`replay`] can vary, one field per concern. The default
/// plan is one shard on the funnel with nothing pruned, checkpointed,
/// resumed or interruptible.
#[derive(Default)]
pub struct RunPlan<'a> {
    /// Number of address-partitioned detector shards (`0` is treated as
    /// `1`, which reproduces a plain serialized replay).
    pub shards: usize,
    /// How events reach the shards.
    pub transport: Transport,
    /// Warm-start prune predicate: accesses the ahead-of-time analysis
    /// proved race-free are dropped before routing and surface in the
    /// merged report as `stats.pruned`. It must have been compiled for
    /// the prototype's granularity (see `AnalysisSummary::prune_set`).
    pub prune: PruneSet,
    /// Where and how often to persist a [`CheckpointManifest`]. A
    /// manifest records the source's length, as
    /// [`EventSource::remaining`] gives it before the first block.
    pub checkpoint: Option<&'a CheckpointOptions>,
    /// A previously loaded manifest to continue from, written by either
    /// transport. Restoring it overwrites the router wholesale with its
    /// captured ranges.
    pub resume: Option<&'a CheckpointManifest>,
    /// Cooperative interruption flag (a SIGINT/SIGTERM handler sets it):
    /// when it reads `true` the replay flushes what it has, writes a
    /// final checkpoint (if configured) covering exactly the events
    /// processed so far, and returns the *partial* report instead of
    /// running to the end. The caller distinguishes a partial report by
    /// re-reading the flag.
    pub stop: Option<&'a AtomicBool>,
}

/// Replays `source` through `plan.shards` instances of the prototype
/// detector and returns the merged report.
///
/// Race sets are byte-identical across shard counts and transports, and
/// — because detector snapshots are canonical — a run interrupted at any
/// point and resumed from its last checkpoint (on either transport)
/// reproduces the uninterrupted run. The prototype is only asked for
/// its name and for one fresh shard per `plan.shards`; it is never fed.
pub fn replay<D: ShardableDetector + ?Sized>(
    prototype: &D,
    source: impl EventSource,
    plan: &RunPlan<'_>,
) -> Result<Report, ReplayError> {
    let det_name = prototype.name();
    let engine = Engine::build(mint(prototype, plan.shards), false, plan.prune.clone());
    let start = match plan.resume {
        Some(m) => resume_from(&engine, m, &det_name, Some(source.remaining()))?,
        None => 0,
    };
    if let Some(c) = plan.checkpoint {
        std::fs::create_dir_all(&c.dir)
            .map_err(|e| ReplayError::Io(format!("{}: {e}", c.dir.display())))?;
    }
    with_lanes(&engine, plan.transport, |lanes| {
        walk(&engine, lanes, det_name, start, source, plan)
    })
}

/// Why [`replay_sharded`] and [`replay_pipelined`] cannot fail.
const IN_MEMORY_INFALLIBLE: &str =
    "a trace in memory under a plan without checkpoint or resume performs no fallible I/O";

/// [`replay`] on the funnel under an otherwise default plan.
pub fn replay_sharded<D: ShardableDetector + ?Sized>(
    prototype: &D,
    trace: &Trace,
    shards: usize,
) -> Report {
    let plan = RunPlan {
        shards,
        ..RunPlan::default()
    };
    replay(prototype, trace, &plan).expect(IN_MEMORY_INFALLIBLE)
}

/// [`replay_sharded`] on the ring transport.
pub fn replay_pipelined<D: ShardableDetector + ?Sized>(
    prototype: &D,
    trace: &Trace,
    shards: usize,
) -> Report {
    let plan = RunPlan {
        shards,
        transport: Transport::Rings,
        ..RunPlan::default()
    };
    replay(prototype, trace, &plan).expect(IN_MEMORY_INFALLIBLE)
}

/// Checks that a manifest matches the run it is resumed into (same
/// detector, same shard count, same trace — a live stream passes
/// `len: None`, its length being unknown) and restores it, returning the
/// offset of the first event the checkpoint does not cover. Both
/// transports and the live session go through this one check, so they
/// reject the same mismatches — and therefore accept each other's
/// checkpoints.
pub(crate) fn resume_from(
    engine: &Engine,
    m: &CheckpointManifest,
    det_name: &str,
    len: Option<u64>,
) -> Result<u64, ReplayError> {
    if m.detector != det_name {
        return Err(ReplayError::Mismatch(format!(
            "checkpoint was taken with detector '{}', this run uses '{det_name}'",
            m.detector
        )));
    }
    let shards = engine.shard_count();
    if m.shard_count() != shards {
        return Err(ReplayError::Mismatch(format!(
            "checkpoint has {} shards, this run uses {shards}",
            m.shard_count()
        )));
    }
    if let Some(trace_len) = len {
        if m.trace_len != trace_len {
            return Err(ReplayError::Mismatch(format!(
                "checkpoint covers a trace of {} events, this trace has {trace_len}",
                m.trace_len
            )));
        }
        if m.trace_offset > trace_len {
            return Err(ReplayError::Corrupt(format!(
                "trace offset {} past the end of the trace ({trace_len})",
                m.trace_offset
            )));
        }
    }
    engine.restore(&m.state).map_err(ReplayError::Corrupt)?;
    Ok(m.trace_offset)
}

/// Walks `source` from event `start` through a driver on `lanes`. Events
/// before a resume offset are decoded and discarded: records are
/// variable-length, so a stream has no other way to reach event `start`.
/// A raised stop flag winds the run down before the next event: that
/// event has not been processed, so the final manifest's offset lets a
/// resumed run continue exactly there, and the report covers the prefix.
fn walk(
    engine: &Engine,
    lanes: Lanes<'_>,
    det_name: String,
    start: u64,
    mut source: impl EventSource,
    plan: &RunPlan<'_>,
) -> Result<Report, ReplayError> {
    let mut driver = Driver::new(lanes, det_name, start, Some(source.remaining()));
    driver.cadence = plan.checkpoint.map(|opts| Cadence {
        opts,
        since: 0,
        last: Instant::now(),
        degraded: false,
    });
    let mut skip = start;
    'walk: loop {
        let block = source.next_block()?;
        if block.is_empty() {
            break;
        }
        let skipped = skip.min(block.len() as u64);
        skip -= skipped;
        for ev in &block[skipped as usize..] {
            if plan.stop.is_some_and(|s| s.load(Ordering::Relaxed)) {
                driver.save(engine)?;
                break 'walk;
            }
            driver.step(engine, ev)?;
        }
        driver.lanes.block_end(engine);
    }
    driver.finish(engine)
}

/// Checkpoint cadence state of one run.
struct Cadence<'a> {
    opts: &'a CheckpointOptions,
    /// Events since the last manifest.
    since: u64,
    last: Instant,
    /// Set by the first failed manifest write (disk full, I/O error,
    /// permissions yanked mid-run), which must not abort detection:
    /// [`dgrace_trace::write_file_atomic`] guarantees the last good
    /// manifest is still intact on disk, so the run continues, warns
    /// once, and flags its report as
    /// [`dgrace_detectors::Report::checkpointing_degraded`] — the
    /// analysis is complete, only crash-resumability regressed to the
    /// last checkpoint that did land.
    degraded: bool,
}

impl Cadence<'_> {
    fn due(&self) -> bool {
        match self.opts.every {
            CheckpointInterval::Events(n) => self.since >= n.max(1),
            CheckpointInterval::Secs(s) => self.last.elapsed() >= Duration::from_secs(s),
        }
    }
}

/// Why a step on inline lanes cannot fail: their barrier is a local feed,
/// and a live session or runtime has no checkpoint cadence of its own.
pub(crate) const INLINE_INFALLIBLE: &str = "inline lanes have no fallible barrier";

/// The event loop body shared by trace replay, live sessions and the
/// live runtime, over either transport.
pub(crate) struct Driver<'a> {
    pub(crate) lanes: Lanes<'a>,
    /// The prototype detector's name (checkpoint identity).
    pub(crate) det_name: String,
    /// Events stepped so far — the stream offset of the next event.
    pub(crate) offset: u64,
    /// Length of the source when known; a live stream has no known end,
    /// so its manifests record the events covered so far.
    len: Option<u64>,
    cadence: Option<Cadence<'a>>,
}

impl<'a> Driver<'a> {
    pub(crate) fn new(lanes: Lanes<'a>, det_name: String, offset: u64, len: Option<u64>) -> Self {
        Driver {
            lanes,
            det_name,
            offset,
            len,
            cadence: None,
        }
    }

    /// Processes one event: accesses the prune predicate covers are
    /// dropped (and counted) before routing, an `Alloc` registers its
    /// range with the router before it is handed over, and a due
    /// checkpoint is taken after the event — so its manifest covers every
    /// event up to and including this one and a resumed run starts
    /// cleanly at the next. (Feeding a segment early at a checkpoint
    /// boundary does not change any shard's feed order, so the final
    /// report is unaffected.)
    pub(crate) fn step(&mut self, engine: &Engine, ev: &Event) -> Result<(), ReplayError> {
        if ev.is_sync() {
            self.lanes.sync(engine, ev);
        } else if engine.prunes_event(ev) {
            engine.note_pruned(1);
        } else {
            if let Event::Alloc { addr, size, .. } = *ev {
                engine.register_range(addr.0, size);
            }
            self.lanes.access(engine, ev);
        }
        self.offset += 1;
        if let Some(c) = self.cadence.as_mut() {
            c.since += 1;
            if c.due() {
                self.save(engine)?;
            }
        }
        Ok(())
    }

    /// Captures the run at the current offset as a persistable manifest.
    pub(crate) fn manifest(&mut self, engine: &Engine) -> Result<CheckpointManifest, ReplayError> {
        self.lanes.barrier(engine)?;
        Ok(CheckpointManifest {
            detector: self.det_name.clone(),
            trace_len: self.len.unwrap_or(self.offset),
            trace_offset: self.offset,
            state: engine.capture(),
        })
    }

    /// Persists a manifest when checkpointing is configured. A failed
    /// write degrades the run instead of failing it.
    fn save(&mut self, engine: &Engine) -> Result<(), ReplayError> {
        if self.cadence.is_none() {
            return Ok(());
        }
        let manifest = self.manifest(engine)?;
        let c = self.cadence.as_mut().expect("checked above");
        let path = c.opts.dir.join(CHECKPOINT_FILE);
        if let Err(e) = manifest.save(&path) {
            if !c.degraded {
                eprintln!(
                    "warning: failed to write checkpoint {}: {e}; detection continues \
                     (the last complete checkpoint is retained)",
                    path.display()
                );
            }
            c.degraded = true;
        }
        c.since = 0;
        c.last = Instant::now();
        Ok(())
    }

    /// Drains the transport, finalizes every shard, and merges the
    /// reports (exact event counts, quarantine accounting included).
    pub(crate) fn finish(&mut self, engine: &Engine) -> Result<Report, ReplayError> {
        self.lanes.barrier(engine)?;
        let mut rep = engine.finish();
        rep.checkpointing_degraded |= self.cadence.as_ref().is_some_and(|c| c.degraded);
        Ok(rep)
    }
}

/// How often a checkpointed replay persists a manifest.
#[derive(Clone, Copy, Debug)]
pub enum CheckpointInterval {
    /// Checkpoint after every `n` processed trace events.
    Events(u64),
    /// Checkpoint when `secs` seconds have elapsed since the last one.
    Secs(u64),
}

/// Where and how often a checkpointed replay persists its state.
#[derive(Clone, Debug)]
pub struct CheckpointOptions {
    /// Directory holding the manifest (created if absent); the file
    /// inside it is [`CHECKPOINT_FILE`].
    pub dir: PathBuf,
    /// Checkpoint cadence.
    pub every: CheckpointInterval,
}

/// A failure of replay, split by what the caller should do about it:
/// retry I/O, discard the checkpoint, fix the invocation, or fix the
/// trace.
#[derive(Debug)]
pub enum ReplayError {
    /// Filesystem trouble reading or writing checkpoint state, or a
    /// shard's lane lost mid-run.
    Io(String),
    /// The checkpoint decoded but cannot be restored (corrupt or
    /// incomplete snapshot data).
    Corrupt(String),
    /// The checkpoint disagrees with the requested run (different
    /// detector, shard count, or trace).
    Mismatch(String),
    /// The event source failed part way through the walk: it could not
    /// be read or decoded. The error is the source's own, so the caller
    /// can render it as it renders any other decode failure.
    Source(TraceError),
}

impl From<TraceError> for ReplayError {
    fn from(e: TraceError) -> Self {
        ReplayError::Source(e)
    }
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Io(e) => write!(f, "replay I/O: {e}"),
            ReplayError::Corrupt(e) => write!(f, "checkpoint corrupt: {e}"),
            ReplayError::Mismatch(e) => write!(f, "checkpoint mismatch: {e}"),
            ReplayError::Source(e) => write!(f, "trace source: {e}"),
        }
    }
}

impl std::error::Error for ReplayError {}
