//! Scaling-equivalence matrix: the ring-pipelined ingestion path must be
//! **byte-identical** to the funnel path.
//!
//! `dgrace_runtime::Transport::Rings` re-architects offline replay
//! (per-shard SPSC lanes, epoch-batched sync broadcast) purely for
//! throughput; detection output is contractually unchanged. This suite
//! locks that contract in across the full configuration matrix:
//!
//! * the three detector families,
//! * shard counts 1 / 2 / 4 / 8,
//! * warm-start pruning (`--prune-with`), shadow budgets (the
//!   eviction rung of `--memory-limit`), resync-recovered traces
//!   (`--resync`),
//! * mid-trace checkpoint + resume — *across* paths: a funnel-written
//!   manifest resumed by the pipeline and vice versa,
//! * randomized traces via property tests.
//!
//! Comparisons are full-`Report` equality wherever the trace contains no
//! `Alloc` events; traces with allocations compare race signatures and
//! the path-invariant counters. `crates/runtime/tests/plan_axes.rs`
//! holds whole reports, failures and manifest bytes equal across the
//! two transports.

use proptest::prelude::*;

use dgrace::core::DynamicGranularity;
use dgrace::detectors::{race_signature, Djit, FastTrack, Report, ShardableDetector};
use dgrace::runtime::{
    replay, replay_pipelined, replay_sharded, CheckpointInterval, CheckpointManifest,
    CheckpointOptions, RunPlan, Transport, CHECKPOINT_FILE,
};
use dgrace::trace::io::{read_trace_with, to_bytes};
use dgrace::trace::{
    AccessSize, Addr, AnalysisSummary, ClassifiedRange, LocationClass, ReadOptions, Trace,
    TraceBuilder,
};

type Proto = Box<dyn ShardableDetector + Send>;
type MakeClean = Box<dyn Fn() -> Proto>;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The three detector families, each as a bare prototype factory.
fn prototypes() -> Vec<(&'static str, MakeClean)> {
    macro_rules! combo {
        ($name:expr, $ty:ty) => {
            (
                $name,
                Box::new(|| Box::new(<$ty>::new()) as Proto) as MakeClean,
            )
        };
    }
    vec![
        combo!("fasttrack", FastTrack),
        combo!("djit", Djit),
        combo!("dynamic", DynamicGranularity),
    ]
}

/// Fixed matrix trace: three threads, racy pairs in four 4 KiB regions
/// (region `r` routes to shard `r % shards`), read-write and write-write
/// races, lock-protected traffic, and fork/join edges. No `Alloc`
/// events, so reports compare bit-for-bit across paths.
fn matrix_trace() -> Trace {
    let mut b = TraceBuilder::new();
    b.fork(0u32, 1u32).fork(0u32, 2u32);
    for r in 1..=4u64 {
        let addr = (r << 12) | 0x40;
        b.write(0u32, addr, AccessSize::U64)
            .write(1u32, addr, AccessSize::U64)
            .read(2u32, addr + 8, AccessSize::U64)
            .write(0u32, addr + 8, AccessSize::U64);
    }
    for t in 0..3u32 {
        b.locked(t, 0u32, |b| {
            b.write(t, 0x7000u64, AccessSize::U64)
                .read(t, 0x7008u64, AccessSize::U64);
        });
    }
    b.join(0u32, 1u32).join(0u32, 2u32);
    b.build()
}

/// A trace long enough that every lane crosses multiple ring segments
/// (the pipeline batches 1024 events per segment): ~20k accesses over
/// four regions with periodic lock sections and two planted races.
fn long_trace() -> Trace {
    let mut b = TraceBuilder::new();
    b.fork(0u32, 1u32);
    for i in 0..10_000u64 {
        let region = (i % 4) + 1;
        let addr = (region << 12) | (((i / 4) % 64) * 8);
        let tid = (i % 2) as u32;
        if i % 512 == 0 {
            b.locked(tid, 1u32, |b| {
                b.write(tid, 0x9000u64, AccessSize::U64);
            });
        }
        b.write(tid, addr, AccessSize::U64);
    }
    b.join(0u32, 1u32);
    b.build()
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dgrace-scaling-{}-{}",
        std::process::id(),
        tag.replace('/', "-")
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Asserts the invariants that hold for *every* trace, Alloc or not.
fn assert_signature_equal(piped: &Report, funnel: &Report, ctx: &str) {
    assert_eq!(
        race_signature(piped),
        race_signature(funnel),
        "{ctx}: race sets differ"
    );
    assert_eq!(piped.stats.events, funnel.stats.events, "{ctx}: events");
    assert_eq!(
        piped.stats.accesses, funnel.stats.accesses,
        "{ctx}: accesses"
    );
    assert_eq!(piped.stats.pruned, funnel.stats.pruned, "{ctx}: pruned");
    assert_eq!(piped.stats.dropped, funnel.stats.dropped, "{ctx}: dropped");
    assert_eq!(
        piped.stats.events_lost, funnel.stats.events_lost,
        "{ctx}: events_lost"
    );
}

/// Tentpole matrix: three detector families, four shard
/// counts, full-report equality between the two ingestion paths.
#[test]
fn fixed_matrix_pipelined_equals_funnel_exactly() {
    let trace = matrix_trace();
    for (name, bare) in prototypes() {
        for &shards in &SHARD_COUNTS {
            let funnel = replay_sharded(bare().as_ref(), &trace, shards);
            let piped = replay_pipelined(bare().as_ref(), &trace, shards);
            assert!(!funnel.races.is_empty(), "{name}: matrix trace has races");
            assert_eq!(piped, funnel, "{name} shards={shards}");
        }
    }
}

/// Segment-boundary coverage: a trace long enough that every lane
/// flushes many ring segments still matches exactly, and the race set is
/// independent of the shard count.
#[test]
fn long_trace_crosses_segments_and_matches() {
    let trace = long_trace();
    let mut first: Option<Vec<_>> = None;
    for &shards in &SHARD_COUNTS {
        let funnel = replay_sharded(&FastTrack::new(), &trace, shards);
        let piped = replay_pipelined(&FastTrack::new(), &trace, shards);
        assert_eq!(piped, funnel, "shards={shards}");
        let sig = race_signature(&piped);
        if let Some(f) = &first {
            assert_eq!(&sig, f, "shards={shards} changed the race set");
        } else {
            first = Some(sig);
        }
    }
}

/// `--prune-with` analog: a warm-start prune set drops the same accesses
/// on both paths, at every shard count.
#[test]
fn pruned_replay_matches_across_paths() {
    let mut b = TraceBuilder::new();
    b.fork(0u32, 1u32)
        .write(0u32, 0x1100u64, AccessSize::U64)
        .write(1u32, 0x1100u64, AccessSize::U64);
    for i in 0..32u64 {
        b.write(0u32, 0xA000 + i * 8, AccessSize::U64);
    }
    b.join(0u32, 1u32);
    let trace = b.build();
    let summary = AnalysisSummary {
        ranges: vec![ClassifiedRange {
            start: Addr(0xA000),
            len: 256,
            class: LocationClass::ThreadLocal,
        }],
        ..Default::default()
    };
    let prune = summary.prune_set(1, 0);
    assert!(!prune.is_empty());
    for &shards in &SHARD_COUNTS {
        let funnel = replay(
            &FastTrack::new(),
            &trace,
            &RunPlan {
                shards,
                prune: prune.clone(),
                ..RunPlan::default()
            },
        )
        .expect("replay");
        let piped = replay(
            &FastTrack::new(),
            &trace,
            &RunPlan {
                shards,
                transport: Transport::Rings,
                prune: prune.clone(),
                ..RunPlan::default()
            },
        )
        .expect("replay");
        assert!(funnel.stats.pruned > 0, "prune set must actually fire");
        assert_eq!(piped, funnel, "shards={shards}");
    }
}

/// The eviction rung of `--memory-limit`: under a shadow budget both
/// paths evict the same shadow cells and degrade identically.
#[test]
fn shadow_budget_runs_match_across_paths() {
    let mut b = TraceBuilder::new();
    b.fork(0u32, 1u32);
    // 256 spread-out locations inside one region: enough distinct cells
    // to blow a 1 KiB budget, all routed to one shard so eviction
    // pressure is concentrated.
    for i in 0..256u64 {
        b.write(0u32, 0x1000 + i * 16, AccessSize::U64);
    }
    b.write(0u32, 0x1100u64, AccessSize::U64)
        .write(1u32, 0x1100u64, AccessSize::U64)
        .join(0u32, 1u32);
    let trace = b.build();
    for &shards in &[1usize, 2, 4] {
        let budgeted = || {
            let mut proto: Proto = Box::new(FastTrack::new());
            proto.set_shadow_budget(Some(1024));
            proto
        };
        let funnel = replay_sharded(budgeted().as_ref(), &trace, shards);
        let piped = replay_pipelined(budgeted().as_ref(), &trace, shards);
        assert!(
            funnel.stats.evicted > 0,
            "shards={shards}: budget must actually evict"
        );
        assert_eq!(piped, funnel, "shards={shards}");
    }
}

/// `--resync` analog: both paths replay the *same* resync-recovered
/// trace to the same report after mid-stream corruption.
#[test]
fn resync_recovered_trace_matches_across_paths() {
    let trace = matrix_trace();
    let mut bytes = to_bytes(&trace);
    // Stomp the first record tag after the 16-byte header: 0xFF is not a
    // valid event tag, so strict decode fails and resync must skip.
    bytes[16] = 0xFF;
    let opts = ReadOptions {
        resync: true,
        ..Default::default()
    };
    let (recovered, stats) =
        read_trace_with(&mut bytes.as_slice(), opts).expect("resync decode succeeds");
    assert!(stats.lossy(), "corruption must have dropped something");
    assert!(!recovered.is_empty());
    for &shards in &SHARD_COUNTS {
        let funnel = replay_sharded(&Djit::new(), &recovered, shards);
        let piped = replay_pipelined(&Djit::new(), &recovered, shards);
        assert_eq!(piped, funnel, "shards={shards}");
    }
}

/// Cross-path checkpoint compatibility: a manifest written by the funnel
/// path resumes on the pipeline, a pipeline-written manifest resumes on
/// the funnel, and both land on the clean report.
#[test]
fn checkpoints_resume_across_paths() {
    let trace = matrix_trace();
    let bare = |name: &str| -> Proto {
        match name {
            "fasttrack" => Box::new(FastTrack::new()),
            _ => Box::new(DynamicGranularity::new()),
        }
    };
    for name in ["fasttrack", "dynamic"] {
        for shards in [2usize, 4] {
            let clean = replay_sharded(bare(name).as_ref(), &trace, shards);

            // Funnel writes, pipeline resumes.
            let dir = scratch_dir(&format!("f2p-{name}-s{shards}"));
            let ckpt = CheckpointOptions {
                dir: dir.clone(),
                every: CheckpointInterval::Events(3),
            };
            let full = replay(
                &bare(name),
                &trace,
                &RunPlan {
                    shards,
                    checkpoint: Some(&ckpt),
                    ..RunPlan::default()
                },
            )
            .expect("funnel checkpointed run");
            assert_eq!(full, clean, "{name} s{shards}: checkpointing is free");
            let manifest = CheckpointManifest::load(&dir.join(CHECKPOINT_FILE))
                .expect("manifest readable")
                .expect("manifest present");
            assert!(manifest.trace_offset > 0);
            let resumed = replay(
                &bare(name),
                &trace,
                &RunPlan {
                    shards,
                    transport: Transport::Rings,
                    resume: Some(&manifest),
                    ..RunPlan::default()
                },
            )
            .expect("pipeline resume of funnel manifest");
            assert_eq!(resumed, clean, "{name} s{shards}: funnel → pipeline");
            let _ = std::fs::remove_dir_all(&dir);

            // Pipeline writes, funnel resumes.
            let dir = scratch_dir(&format!("p2f-{name}-s{shards}"));
            let ckpt = CheckpointOptions {
                dir: dir.clone(),
                every: CheckpointInterval::Events(3),
            };
            let full = replay(
                &bare(name),
                &trace,
                &RunPlan {
                    shards,
                    transport: Transport::Rings,
                    checkpoint: Some(&ckpt),
                    ..RunPlan::default()
                },
            )
            .expect("pipeline checkpointed run");
            assert_eq!(full, clean, "{name} s{shards}: pipeline checkpointing");
            let manifest = CheckpointManifest::load(&dir.join(CHECKPOINT_FILE))
                .expect("manifest readable")
                .expect("manifest present");
            assert!(manifest.trace_offset > 0);
            let resumed = replay(
                &bare(name),
                &trace,
                &RunPlan {
                    shards,
                    resume: Some(&manifest),
                    ..RunPlan::default()
                },
            )
            .expect("funnel resume of pipeline manifest");
            assert_eq!(resumed, clean, "{name} s{shards}: pipeline → funnel");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Builds a structurally valid trace from a generated op list: three
/// forked threads issuing reads, writes, and lock-protected writes over
/// four 4 KiB regions, then joined.
fn trace_from_ops(ops: &[(u8, u8, u64)]) -> Trace {
    let mut b = TraceBuilder::new();
    b.fork(0u32, 1u32).fork(0u32, 2u32).fork(0u32, 3u32);
    for &(kind, tid, slot) in ops {
        let tid = u32::from(tid % 4);
        let region = (slot % 4) + 1;
        let addr = (region << 12) | ((slot / 4) * 8);
        match kind % 3 {
            0 => {
                b.read(tid, addr, AccessSize::U64);
            }
            1 => {
                b.write(tid, addr, AccessSize::U64);
            }
            _ => {
                b.locked(tid, (slot % 2) as u32, |b| {
                    b.write(tid, addr, AccessSize::U64);
                });
            }
        }
    }
    b.join(0u32, 1u32).join(0u32, 2u32).join(0u32, 3u32);
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized traces: any mix of reads, writes, and locked writes
    /// over four regions produces identical reports on both paths at a
    /// random shard count.
    #[test]
    fn random_traces_equivalent(
        ops in proptest::collection::vec((0u8..3, 0u8..4, 0u64..48), 1..140),
        shards in 1usize..9,
    ) {
        let trace = trace_from_ops(&ops);
        let funnel = replay_sharded(&FastTrack::new(), &trace, shards);
        let piped = replay_pipelined(&FastTrack::new(), &trace, shards);
        prop_assert_eq!(&piped, &funnel, "shards={}", shards);
        assert_signature_equal(&piped, &funnel, "random/fasttrack");
    }

    /// Same property through the dynamic-granularity detector, whose
    /// split/dissolve machinery is the most state-heavy consumer of the
    /// per-shard event sequence.
    #[test]
    fn random_traces_equivalent_dynamic(
        ops in proptest::collection::vec((0u8..3, 0u8..4, 0u64..48), 1..100),
        shards in 1usize..9,
    ) {
        let trace = trace_from_ops(&ops);
        let funnel = replay_sharded(&DynamicGranularity::new(), &trace, shards);
        let piped = replay_pipelined(&DynamicGranularity::new(), &trace, shards);
        prop_assert_eq!(&piped, &funnel, "shards={}", shards);
    }
}
