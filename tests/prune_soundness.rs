//! Differential soundness of ahead-of-time pruning: for every workload
//! and every shard count, detection with a `--prune-with` summary must
//! report **exactly** the races of an unpruned run — pruning may only
//! remove work, never findings — while actually dropping a nonzero
//! number of accesses on the workloads the analysis can classify.
//!
//! The exact detectors (FastTrack at byte and word granularity, DJIT+)
//! get the strong byte-identical assertion. The dynamic-granularity
//! detector shares vector clocks between neighboring locations, so
//! pruning can shift which *artifacts* appear; it gets the scoped
//! assertions the paper's own precision argument supports: every
//! planted race is still found, and any extra report is flagged
//! `tainted` (a sharing artifact, not a miss).

use dgrace::analysis::analyze;
use dgrace::core::DynamicGranularity;
use dgrace::detectors::{race_signature, Djit, FastTrack, Granularity, ShardableDetector};
use dgrace::runtime::{replay, replay_sharded, RunPlan};
use dgrace::workloads::{Workload, WorkloadKind};

const SCALE: f64 = 0.05;
const SHARDS: [usize; 3] = [1, 2, 4];

type Proto = fn() -> Box<dyn ShardableDetector + Send>;

/// The exact detectors with the granule their prune set must use: an
/// access is pruned only if every granularity-widened location it
/// touches is provably race-free.
fn exact_detectors() -> Vec<(Proto, u64)> {
    vec![
        (
            || Box::new(FastTrack::with_granularity(Granularity::Byte)),
            1,
        ),
        (
            || Box::new(FastTrack::with_granularity(Granularity::Word)),
            4,
        ),
        (|| Box::new(Djit::new()), 1),
    ]
}

/// The headline guarantee: pruned and unpruned runs agree byte-for-byte
/// on the race set (addresses and kinds) for every workload, every
/// exact detector, and every shard count — and the books balance:
/// `accesses + pruned` under pruning equals the unpruned access count.
#[test]
fn pruned_detection_is_race_identical_for_exact_detectors() {
    for kind in WorkloadKind::ALL {
        let (trace, _) = Workload::new(kind).with_scale(SCALE).generate();
        let summary = analyze(&trace);
        for (proto, granule) in exact_detectors() {
            let prune = summary.prune_set(granule, 0);
            for shards in SHARDS {
                let bare = replay_sharded(proto().as_ref(), &trace, shards);
                let pruned = replay(
                    &proto(),
                    &trace,
                    &RunPlan {
                        shards,
                        prune: prune.clone(),
                        ..RunPlan::default()
                    },
                )
                .expect("replay");
                let tag = format!("{} on {} shards={shards}", bare.detector, kind.name());
                assert_eq!(
                    race_signature(&pruned),
                    race_signature(&bare),
                    "{tag}: race sets differ"
                );
                assert_eq!(
                    pruned.stats.events,
                    trace.len() as u64,
                    "{tag}: events must still count pruned accesses"
                );
                assert_eq!(
                    pruned.stats.accesses + pruned.stats.pruned,
                    bare.stats.accesses,
                    "{tag}: access conservation"
                );
            }
        }
    }
}

/// The analysis is not vacuous: every workload has provably
/// thread-local traffic, and the read-only pass fires on the workloads
/// that stage data single-threaded before sharing it read-only.
#[test]
fn analysis_classifies_nontrivially() {
    for kind in WorkloadKind::ALL {
        let (trace, _) = Workload::new(kind).with_scale(SCALE).generate();
        let summary = analyze(&trace);
        assert!(
            summary.stats.thread_local.accesses > 0,
            "{}: no thread-local accesses classified",
            kind.name()
        );
        // And the prune actually drops events in a real detection run.
        let prune = summary.prune_set(1, 0);
        let rep = replay(
            &FastTrack::new(),
            &trace,
            &RunPlan {
                shards: 2,
                prune,
                ..RunPlan::default()
            },
        )
        .expect("replay");
        assert!(
            rep.stats.pruned > 0,
            "{}: prune set dropped nothing",
            kind.name()
        );
    }
    for kind in [WorkloadKind::Raytrace, WorkloadKind::Ffmpeg] {
        let (trace, _) = Workload::new(kind).with_scale(SCALE).generate();
        let summary = analyze(&trace);
        assert!(
            summary.stats.read_only.accesses > 0,
            "{}: read-only pass found nothing",
            kind.name()
        );
    }
    for kind in [WorkloadKind::Ferret, WorkloadKind::Pbzip2] {
        let (trace, _) = Workload::new(kind).with_scale(SCALE).generate();
        let summary = analyze(&trace);
        assert!(
            summary.stats.locked.accesses > 0,
            "{}: lockset pass found nothing",
            kind.name()
        );
    }
}

/// Dynamic granularity under pruning (256-byte margin): every planted
/// race survives, and anything beyond the unpruned report is a tainted
/// sharing artifact.
#[test]
fn pruned_dynamic_detector_keeps_planted_races() {
    for kind in WorkloadKind::ALL {
        let (trace, truth) = Workload::new(kind).with_scale(SCALE).generate();
        let summary = analyze(&trace);
        let prune = summary.prune_set(1, 256);
        for shards in SHARDS {
            let bare = replay_sharded(&DynamicGranularity::new(), &trace, shards);
            let pruned = replay(
                &DynamicGranularity::new(),
                &trace,
                &RunPlan {
                    shards,
                    prune: prune.clone(),
                    ..RunPlan::default()
                },
            )
            .expect("replay");
            let bare_addrs = bare.race_addrs();
            let pruned_addrs = pruned.race_addrs();
            for addr in &truth.racy_addrs {
                assert!(
                    pruned_addrs.contains(addr),
                    "{} shards={shards}: planted race at {addr:?} lost under pruning",
                    kind.name()
                );
            }
            for race in &pruned.races {
                assert!(
                    bare_addrs.contains(&race.addr) || race.tainted,
                    "{} shards={shards}: untainted new report at {:?}",
                    kind.name(),
                    race.addr
                );
            }
        }
    }
}
