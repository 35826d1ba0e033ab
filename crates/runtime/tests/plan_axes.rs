//! The plan-axis equivalence table: every [`RunPlan`] field crossed with
//! every other, through the one [`replay`] driver, against the serial
//! detector — one race signature and exact `stats.events` per trace —
//! plus the cooperative stop flag raised at every point of a run.
//!
//! The per-workload, per-store and fault-injecting suites
//! (`scaling_equivalence`, `checkpoint_recovery`, `fault_injection`, …)
//! each hold some axes fixed; this is the place where all of them vary
//! at once on a trace small enough to walk exhaustively.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use dgrace_core::DynamicGranularity;
use dgrace_detectors::{
    race_signature, Detector, DetectorExt, FastTrack, Report, ShardableDetector,
};
use dgrace_runtime::{
    replay, CheckpointInterval, CheckpointManifest, CheckpointOptions, RunPlan, SupervisorPolicy,
    Transport, CHECKPOINT_FILE,
};
use dgrace_trace::{
    AccessSize, Addr, AnalysisSummary, ClassifiedRange, Event, HeatBucket, LocationClass, PruneSet,
    RoutingPlan, Trace, TraceBuilder,
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

/// Heat buckets covering both hot addresses; compiling balances them
/// across shards, overriding the region-hash fallback.
fn hot_plan() -> RoutingPlan {
    let bucket = |start, weight| HeatBucket {
        start: Addr(start),
        len: 0x1000,
        weight,
    };
    RoutingPlan {
        buckets: vec![bucket(0x0, 10), bucket(0x5000, 9)],
    }
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

/// Every plan axis against the serial detector: one race signature
/// and exact event counts per trace, whatever the transport, shard
/// count, prune set, routing plan, supervisor, or checkpoint/resume
/// cut.
#[test]
fn every_plan_axis_matches_the_serial_run() {
    let trace = racy_trace();
    let len = trace.len() as u64;
    let protos: [(&str, fn() -> Box<dyn ShardableDetector + Send>); 2] = [
        ("fasttrack", || Box::new(FastTrack::new())),
        ("dynamic", || Box::new(DynamicGranularity::new())),
    ];
    let dir = scratch_dir("axes");
    let ckpt = CheckpointOptions {
        dir: dir.clone(),
        every: CheckpointInterval::Events(5),
    };
    for (name, proto) in protos {
        let want = race_signature(&proto().run(&trace));
        assert!(!want.is_empty(), "{name}: the trace has a race to find");
        for shards in [1usize, 2, 3, 4, 8] {
            let routes = hot_plan().compile(shards);
            assert!(shards == 1 || !routes.is_empty(), "plan compiles");
            for (pruned, planned, supervised, checkpointed) in
                (0..16).map(|m| (m & 1 != 0, m & 2 != 0, m & 4 != 0, m & 8 != 0))
            {
                let row = format!(
                    "{name} shards={shards} prune={pruned} routes={planned} \
                     supervisor={supervised} checkpoint={checkpointed}"
                );
                let plan = |transport| RunPlan {
                    shards,
                    transport,
                    prune: if pruned {
                        local_prune()
                    } else {
                        PruneSet::empty()
                    },
                    routes: if planned { &routes } else { &[] },
                    supervisor: supervised.then(SupervisorPolicy::default),
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
                for transport in [Transport::Funnel, Transport::Rings] {
                    let rep = replay(proto(), &trace, &plan(transport)).expect("replay");
                    check(&rep, &format!("{transport:?}"));
                    let accesses = *accesses.get_or_insert(rep.stats.accesses);
                    assert_eq!(rep.stats.accesses, accesses, "{row}: funnel vs rings");
                    if !checkpointed {
                        continue;
                    }
                    // The last cadence manifest resumes on the other
                    // transport to the same report.
                    let m = CheckpointManifest::load(&dir.join(CHECKPOINT_FILE))
                        .expect("manifest decodes")
                        .expect("cadence wrote a manifest");
                    assert_eq!(m.trace_offset, len - len % 5, "{row}: last cadence cut");
                    let resumed = RunPlan {
                        checkpoint: None,
                        resume: Some(&m),
                        ..plan(other(transport))
                    };
                    let rep = replay(proto(), &trace, &resumed).expect("resume");
                    check(
                        &rep,
                        &format!("{transport:?} resumed on the other transport"),
                    );
                    assert_eq!(rep.stats.accesses, accesses, "{row}: resumed accesses");
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
    fn snapshot(&self) -> Option<Vec<u8>> {
        self.inner.snapshot()
    }
    fn restore(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.inner.restore(bytes)
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
    let trace = racy_trace();
    let len = trace.len() as u64;
    let want = FastTrack::new().run(&trace);
    let dir = scratch_dir("stop");
    let ckpt = CheckpointOptions {
        dir: dir.clone(),
        // Never due: only the stop path writes a manifest.
        every: CheckpointInterval::Events(u64::MAX),
    };
    for transport in [Transport::Funnel, Transport::Rings] {
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
            replay(counter, &trace, &plan()).expect("counting run");
            let total = fed.load(Ordering::SeqCst);
            assert!(total >= len, "every event reaches a shard");

            let mut partial_runs = 0;
            for at in 1..=total {
                let row = format!("{transport:?} shards={shards} stop at feed {at}");
                let _ = std::fs::remove_dir_all(&dir);
                let det = stopper(at);
                let stop = Arc::clone(&det.stop);
                let stopping = RunPlan {
                    stop: Some(&stop),
                    ..plan()
                };
                let rep = replay(det, &trace, &stopping).expect("stopped run");
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
                let rep = replay(FastTrack::new(), &trace, &resumed).expect("resume");
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
                assert!(partial_runs > 0, "{transport:?} shards={shards}");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
