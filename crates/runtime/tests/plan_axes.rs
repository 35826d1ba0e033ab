//! The plan-axis equivalence table: every [`RunPlan`] field crossed with
//! every other and with every kind of event source, through the one
//! [`replay`] driver, against the serial detector — one race signature
//! and exact `stats.events` per trace — plus the cooperative stop flag
//! raised at every point of a run.
//!
//! The per-workload and fault-injecting suites (`scaling_equivalence`,
//! `checkpoint_recovery`, `fault_injection`, …) each hold some axes
//! fixed; this is the place where all of them vary at once on a trace
//! small enough to walk exhaustively. The transport axis is held to
//! more than the serial signature: both transports must write the same
//! manifest bytes and report the same failures.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use dgrace_core::DynamicGranularity;
use dgrace_detectors::{
    race_signature, Detector, DetectorExt, FastTrack, Report, ShardableDetector,
};
use dgrace_runtime::{
    replay, silence_injected_panics, CheckpointInterval, CheckpointManifest, CheckpointOptions,
    PanicOnEvent, ReplayError, RunPlan, Transport, CHECKPOINT_FILE,
};
use dgrace_trace::io::{to_bytes, EventReader};
use dgrace_trace::{
    AccessSize, Addr, AnalysisSummary, BlockReader, ClassifiedRange, Event, EventSource,
    LocationClass, PruneSet, Trace, TraceBuilder, TraceError,
};

/// A racy pair at 0x100, a lock-protected pair at 0x5000, and eight
/// thread-local writes at 0x9000 (the prunable range).
fn racy_trace() -> Trace {
    let mut b = TraceBuilder::new();
    b.fork(0u32, 1u32)
        .write(0u32, 0x100u64, AccessSize::U64)
        .write(1u32, 0x100u64, AccessSize::U64)
        .locked(0u32, 0u32, |b| {
            b.write(0u32, 0x5000u64, AccessSize::U64);
        })
        .locked(1u32, 0u32, |b| {
            b.write(1u32, 0x5000u64, AccessSize::U64);
        });
    for i in 0..8u64 {
        b.write(0u32, 0x9000 + i * 8, AccessSize::U64);
    }
    b.join(0u32, 1u32);
    b.build()
}

fn local_prune() -> PruneSet {
    let summary = AnalysisSummary {
        ranges: vec![ClassifiedRange {
            start: Addr(0x9000),
            len: 64,
            class: LocationClass::ThreadLocal,
        }],
        ..Default::default()
    };
    summary.prune_set(1, 0)
}

fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("dgrace-replay-{tag}-{}-{n}", std::process::id()))
}

fn other(t: Transport) -> Transport {
    match t {
        Transport::Funnel => Transport::Rings,
        Transport::Rings => Transport::Funnel,
    }
}

/// A trace the way a run can be handed it: in memory (one block), or as
/// `.dgrt` bytes behind the block reader at a given block size.
struct Input {
    trace: Trace,
    bytes: Vec<u8>,
}

/// `None` is the trace in memory. The trace is 18 events long: one
/// event per block, a block size that splits it unevenly, and one block
/// for everything — so a resume offset lands on a block's edge, inside
/// a block, and inside the only block.
const SOURCES: [Option<usize>; 4] = [None, Some(1), Some(8), Some(8192)];

impl Input {
    fn of(trace: Trace) -> Input {
        let bytes = to_bytes(&trace);
        Input { trace, bytes }
    }

    fn replay<D: ShardableDetector + Send>(
        &self,
        proto: D,
        block: Option<usize>,
        plan: &RunPlan<'_>,
    ) -> Result<Report, ReplayError> {
        self.replay_prefix(proto, block, plan, u64::MAX)
    }

    /// [`Input::replay`] of the first `events` events only, from a
    /// source that still reports the whole trace's length.
    fn replay_prefix<D: ShardableDetector + Send>(
        &self,
        proto: D,
        block: Option<usize>,
        plan: &RunPlan<'_>,
        events: u64,
    ) -> Result<Report, ReplayError> {
        match block {
            None => replay(
                &proto,
                Cut {
                    inner: &self.trace,
                    left: events,
                },
                plan,
            ),
            Some(block) => {
                let reader = EventReader::new(&self.bytes[..]).expect("header");
                let inner = BlockReader::with_block_events(reader, block);
                replay(
                    &proto,
                    Cut {
                        inner,
                        left: events,
                    },
                    plan,
                )
            }
        }
    }
}

/// Ends a source after its first `left` events (cutting a block short
/// if need be) while it still reports the length of the whole trace.
struct Cut<S> {
    inner: S,
    left: u64,
}

impl<S: EventSource> EventSource for Cut<S> {
    fn remaining(&self) -> u64 {
        self.inner.remaining()
    }
    fn next_block(&mut self) -> Result<&[Event], TraceError> {
        if self.left == 0 {
            return Ok(&[]);
        }
        let block = self.inner.next_block()?;
        let n = block.len().min(self.left as usize);
        self.left -= n as u64;
        Ok(&block[..n])
    }
}

/// Every plan axis against the serial detector: one race signature
/// and exact event counts per trace, whatever the source, transport,
/// shard count, prune set, or checkpoint/resume cut.
#[test]
fn every_plan_axis_matches_the_serial_run() {
    let input = Input::of(racy_trace());
    let trace = &input.trace;
    let len = trace.len() as u64;
    type Proto = fn() -> Box<dyn ShardableDetector + Send>;
    let protos: [(&str, Proto); 2] = [
        ("fasttrack", || Box::new(FastTrack::new())),
        ("dynamic", || Box::new(DynamicGranularity::new())),
    ];
    let dir = scratch_dir("axes");
    let ckpt = CheckpointOptions {
        dir: dir.clone(),
        every: CheckpointInterval::Events(5),
    };
    for (name, proto) in protos {
        let want = race_signature(&proto().run(trace));
        assert!(!want.is_empty(), "{name}: the trace has a race to find");
        for shards in [1usize, 2, 3, 4, 8, 16] {
            for (pruned, checkpointed) in (0..4).map(|m| (m & 1 != 0, m & 2 != 0)) {
                let row =
                    format!("{name} shards={shards} prune={pruned} checkpoint={checkpointed}");
                let plan = |transport| RunPlan {
                    shards,
                    transport,
                    prune: if pruned {
                        local_prune()
                    } else {
                        PruneSet::empty()
                    },
                    checkpoint: checkpointed.then_some(&ckpt),
                    ..RunPlan::default()
                };
                let check = |rep: &Report, what: &str| {
                    assert_eq!(race_signature(rep), want, "{row} {what}");
                    assert_eq!(rep.stats.events, len, "{row} {what}: exact events");
                    assert_eq!(
                        rep.stats.pruned,
                        if pruned { 8 } else { 0 },
                        "{row} {what}: events still count pruned accesses"
                    );
                    assert!(!rep.checkpointing_degraded, "{row} {what}");
                };
                let mut accesses = None;
                for (source, transport) in SOURCES
                    .into_iter()
                    .flat_map(|s| [(s, Transport::Funnel), (s, Transport::Rings)])
                {
                    let rep = input
                        .replay(proto(), source, &plan(transport))
                        .expect("replay");
                    check(&rep, &format!("{source:?} {transport:?}"));
                    let accesses = *accesses.get_or_insert(rep.stats.accesses);
                    assert_eq!(
                        rep.stats.accesses, accesses,
                        "{row}: {source:?} {transport:?} vs memory funnel"
                    );
                    if !checkpointed {
                        continue;
                    }
                    // The last cadence manifest resumes on the other
                    // transport, from every kind of source, to the same
                    // report.
                    let m = CheckpointManifest::load(&dir.join(CHECKPOINT_FILE))
                        .expect("manifest decodes")
                        .expect("cadence wrote a manifest");
                    assert_eq!(m.trace_offset, len - len % 5, "{row}: last cadence cut");
                    let resumed = RunPlan {
                        checkpoint: None,
                        resume: Some(&m),
                        ..plan(other(transport))
                    };
                    for resume_source in SOURCES {
                        let rep = input
                            .replay(proto(), resume_source, &resumed)
                            .expect("resume");
                        let what = format!(
                            "{source:?} {transport:?} resumed from {resume_source:?} \
                             on the other transport"
                        );
                        check(&rep, &what);
                        assert_eq!(rep.stats.accesses, accesses, "{row}: {what}");
                    }
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Raises a stop flag once the shards spawned from one prototype
/// have, between them, been fed `at` events. Transparent otherwise:
/// same name, same snapshots.
struct StopAt<D> {
    inner: D,
    at: u64,
    fed: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
}

impl<D: Detector> Detector for StopAt<D> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn on_event(&mut self, ev: &Event) {
        self.inner.on_event(ev);
        if self.fed.fetch_add(1, Ordering::SeqCst) + 1 == self.at {
            self.stop.store(true, Ordering::SeqCst);
        }
    }
    fn finish(&mut self) -> Report {
        self.inner.finish()
    }
    fn inner(&self) -> Option<&dyn Detector> {
        Some(&self.inner)
    }
    fn inner_mut(&mut self) -> Option<&mut dyn Detector> {
        Some(&mut self.inner)
    }
}

impl<D: ShardableDetector> ShardableDetector for StopAt<D> {
    fn new_shard(&self) -> Box<dyn Detector + Send> {
        Box::new(StopAt {
            inner: self.inner.new_shard(),
            at: self.at,
            fed: Arc::clone(&self.fed),
            stop: Arc::clone(&self.stop),
        })
    }
}

/// The cooperative stop flag, raised at every possible point of a
/// small trace: the run returns a partial report and a final
/// manifest at exactly the offset it stopped at, and resuming that
/// manifest on the *other* transport equals the uninterrupted run.
#[test]
fn stop_flag_cuts_a_resumable_prefix_at_every_event() {
    let input = Input::of(racy_trace());
    let len = input.trace.len() as u64;
    let want = FastTrack::new().run(&input.trace);
    let dir = scratch_dir("stop");
    let ckpt = CheckpointOptions {
        dir: dir.clone(),
        // Never due: only the stop path writes a manifest.
        every: CheckpointInterval::Events(u64::MAX),
    };
    for (source, transport) in SOURCES
        .into_iter()
        .flat_map(|s| [(s, Transport::Funnel), (s, Transport::Rings)])
    {
        for shards in [1usize, 2] {
            let stopper = |at| StopAt {
                inner: FastTrack::new(),
                at,
                fed: Arc::new(AtomicU64::new(0)),
                stop: Arc::new(AtomicBool::new(false)),
            };
            let plan = || RunPlan {
                shards,
                transport,
                checkpoint: Some(&ckpt),
                ..RunPlan::default()
            };
            // How many events the shards are fed in a whole run.
            let counter = stopper(u64::MAX);
            let fed = Arc::clone(&counter.fed);
            input
                .replay(counter, source, &plan())
                .expect("counting run");
            let total = fed.load(Ordering::SeqCst);
            assert!(total >= len, "every event reaches a shard");

            let mut partial_runs = 0;
            for at in 1..=total {
                let row = format!("{source:?} {transport:?} shards={shards} stop at feed {at}");
                let _ = std::fs::remove_dir_all(&dir);
                let det = stopper(at);
                let stop = Arc::clone(&det.stop);
                let stopping = RunPlan {
                    stop: Some(&stop),
                    ..plan()
                };
                let rep = input.replay(det, source, &stopping).expect("stopped run");
                assert!(stop.load(Ordering::SeqCst), "{row}: the flag was raised");
                if rep.stats.events == len {
                    // Raised after the walk had finished (the last
                    // batch is fed by the final flush).
                    assert_eq!(race_signature(&rep), race_signature(&want), "{row}");
                    continue;
                }
                partial_runs += 1;
                let m = CheckpointManifest::load(&dir.join(CHECKPOINT_FILE))
                    .expect("manifest decodes")
                    .expect("the stop path wrote a final manifest");
                assert_eq!(m.trace_offset, rep.stats.events, "{row}: cut == reported");
                assert_eq!(m.trace_len, len, "{row}");
                let partial = race_signature(&rep);
                assert!(
                    partial.iter().all(|r| race_signature(&want).contains(r)),
                    "{row}: a prefix invents no race"
                );
                let resumed = RunPlan {
                    shards,
                    transport: other(transport),
                    resume: Some(&m),
                    ..RunPlan::default()
                };
                let rep = input
                    .replay(FastTrack::new(), source, &resumed)
                    .expect("resume");
                assert_eq!(
                    race_signature(&rep),
                    race_signature(&want),
                    "{row}: resumed"
                );
                assert_eq!(rep.stats.events, len, "{row}: resumed events");
            }
            if transport == Transport::Funnel {
                // The funnel feeds on the walking thread, so an early
                // flag is always seen before the next event.
                assert!(partial_runs > 0, "{source:?} {transport:?} shards={shards}");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A source that notes, each time the driver comes back for a block,
/// how many events the shards had been fed by then.
struct Watched<'a> {
    inner: BlockReader<&'a [u8]>,
    fed: Arc<AtomicU64>,
    fed_at_block: Vec<u64>,
}

impl EventSource for &mut Watched<'_> {
    fn remaining(&self) -> u64 {
        self.inner.remaining()
    }
    fn next_block(&mut self) -> Result<&[Event], TraceError> {
        self.fed_at_block.push(self.fed.load(Ordering::SeqCst));
        self.inner.next_block()
    }
}

/// A trace with no sync event never ends a funnel batch by itself: the
/// funnel must hand its batch over where each source block ends, not
/// copy the whole trace into its pending buffer — and splitting the
/// batches there changes nothing in the report.
#[test]
fn funnel_flushes_a_sync_free_trace_at_every_block() {
    let mut b = TraceBuilder::new();
    b.alloc(0u32, 0x4000u64, 512);
    for i in 0..99u64 {
        b.write(0u32, 0x4000 + (i % 64) * 8, AccessSize::U64);
    }
    let trace = b.build();
    let bytes = to_bytes(&trace);
    let len = trace.len() as u64;
    let want = DynamicGranularity::new().run(&trace);
    for shards in [1usize, 3] {
        let counter = StopAt {
            inner: DynamicGranularity::new(),
            at: u64::MAX,
            fed: Arc::new(AtomicU64::new(0)),
            stop: Arc::new(AtomicBool::new(false)),
        };
        let reader = EventReader::new(&bytes[..]).expect("header");
        let mut watched = Watched {
            inner: BlockReader::with_block_events(reader, 10),
            fed: Arc::clone(&counter.fed),
            fed_at_block: Vec::new(),
        };
        let plan = RunPlan {
            shards,
            ..RunPlan::default()
        };
        let rep = replay(&counter, &mut watched, &plan).expect("replay");
        assert_eq!(race_signature(&rep), race_signature(&want));
        assert_eq!(rep.stats.events, len);
        assert_eq!(rep.stats.accesses, want.stats.accesses);
        // Ten full blocks, then the empty one that ends the trace; every
        // event of the blocks before had reached its shard by each.
        let blocks: Vec<u64> = (0..=10).map(|k| k * 10).collect();
        assert_eq!(watched.fed_at_block, blocks, "shards={shards}");
    }
}

/// The two transports are one kernel fed at different times: at every
/// cadence cut they write the same `.dgcp` bytes, and a shard panic is
/// reported with the same failure — its stamp and offending event
/// included — whatever the shard count and however the source is cut
/// into blocks.
#[test]
fn transports_write_identical_manifests_and_failures() {
    silence_injected_panics();
    let input = Input::of(racy_trace());
    let len = input.trace.len() as u64;
    let transports = [Transport::Funnel, Transport::Rings];
    let dirs = transports.map(|t| scratch_dir(&format!("{t:?}")));
    for shards in [1usize, 2, 3] {
        for block in [Some(1), Some(7), None] {
            let row = format!("shards={shards} block={block:?}");
            for cut in 1..=len {
                // The run ends at `cut`, so the one manifest it writes
                // is the cadence cut there.
                let manifests = [0, 1].map(|i| {
                    let _ = std::fs::remove_dir_all(&dirs[i]);
                    let ckpt = CheckpointOptions {
                        dir: dirs[i].clone(),
                        every: CheckpointInterval::Events(cut),
                    };
                    let plan = RunPlan {
                        shards,
                        transport: transports[i],
                        checkpoint: Some(&ckpt),
                        ..RunPlan::default()
                    };
                    input
                        .replay_prefix(DynamicGranularity::new(), block, &plan, cut)
                        .expect("replay");
                    std::fs::read(dirs[i].join(CHECKPOINT_FILE)).expect("the cut wrote a manifest")
                });
                assert!(
                    manifests[0] == manifests[1],
                    "{row} cut={cut}: funnel and rings wrote different .dgcp bytes"
                );
            }
            for target in 0..shards {
                for panic_at in 1..=len {
                    let reports = transports.map(|transport| {
                        let plan = RunPlan {
                            shards,
                            transport,
                            ..RunPlan::default()
                        };
                        let proto = PanicOnEvent::new(FastTrack::new(), target, panic_at);
                        input.replay(proto, block, &plan).expect("replay")
                    });
                    let what = format!("{row} shard {target} panics at its event {panic_at}");
                    // Compared without the payload: its injected-panic
                    // marker would silence the assertion's own message.
                    let sites = reports.each_ref().map(|r| {
                        r.failures
                            .iter()
                            .map(|f| (f.shard, f.event_seq, f.last_event.clone()))
                            .collect::<Vec<_>>()
                    });
                    assert_eq!(sites[0], sites[1], "{what}: failure sites");
                    assert!(reports[0] == reports[1], "{what}: reports differ");
                }
            }
        }
    }
    for dir in dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}
