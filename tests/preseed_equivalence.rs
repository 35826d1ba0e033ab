//! Differential soundness of sharing-affinity pre-seeding and plan
//! routing: detection warmed by `dgrace analyze` artifacts must report
//! **exactly** the races of a cold run.
//!
//! * Pre-seeding (`--affinity-with`) is a fast path inside the dynamic
//!   detector's grouping decisions; the seeded probe falls back to the
//!   full unseeded scan on any miss, so the race set — and even the
//!   sharing statistics — are byte-identical under *any* map, including
//!   adversarially wrong ones. The matrix locks this in across both
//!   shadow stores, shard counts {1, 2, 4}, and both replay paths, and
//!   a proptest hammers it with random traces × random maps.
//! * Plan routing (`--plan-with`) only changes which shard owns which
//!   address range; for fixed-granularity detectors the merged race set
//!   is routing-invariant, which is what the CI plan-diff job relies on.
//!
//! Equivalence holds without a shadow budget: seeded runs allocate
//! fewer clocks, so under a byte cap the two runs could evict
//! different state. Nothing here sets a budget.

use std::sync::Arc;

use dgrace::analysis::analyze;
use dgrace::core::DynamicGranularityOn;
use dgrace::detectors::{race_signature, FastTrack, Granularity, Report, ShardableDetector};
use dgrace::runtime::{replay, replay_pipelined, replay_sharded, RunPlan, Transport};
use dgrace::shadow::{HashSelect, PagedSelect, StoreSelect};
use dgrace::trace::{
    AccessSize, Addr, AffinityMap, AffinityRange, AnalysisWarning, LockId, Trace, TraceBuilder,
};
use dgrace::workloads::{Workload, WorkloadKind};

use proptest::prelude::*;

const SCALE: f64 = 0.05;
const SHARDS: [usize; 3] = [1, 2, 4];

/// Sharing-heavy workloads where the affinity pass certifies real
/// strides (pre-seeding must actually fire, not just stay harmless).
const SHARING_HEAVY: [WorkloadKind; 3] = [
    WorkloadKind::Pbzip2,
    WorkloadKind::Streamcluster,
    WorkloadKind::Dedup,
];

/// Both replay paths over one prototype.
fn run_both<D: ShardableDetector + ?Sized>(
    proto: &D,
    trace: &Trace,
    shards: usize,
) -> (Report, Report) {
    let funnel = replay_sharded(proto, trace, shards);
    let piped = replay_pipelined(proto, trace, shards);
    (funnel, piped)
}

fn assert_seeded_matches<K: StoreSelect>(trace: &Trace, map: &Arc<AffinityMap>, tag: &str) {
    let cold = DynamicGranularityOn::<K>::new();
    let mut warm = DynamicGranularityOn::<K>::new();
    warm.set_affinity(Arc::clone(map));
    for shards in SHARDS {
        let (cold_f, cold_p) = run_both(&cold, trace, shards);
        let (warm_f, warm_p) = run_both(&warm, trace, shards);
        let want = race_signature(&cold_f);
        for (rep, path) in [
            (&cold_p, "cold pipeline"),
            (&warm_f, "seeded funnel"),
            (&warm_p, "seeded pipeline"),
        ] {
            assert_eq!(
                race_signature(rep),
                want,
                "{tag} shards={shards}: {path} race set diverged"
            );
        }
        // Sharing decisions are identical, not merely race-equivalent.
        assert_eq!(
            warm_f.stats.same_epoch, cold_f.stats.same_epoch,
            "{tag} shards={shards}: same-epoch filter diverged"
        );
        assert_eq!(
            warm_f.sharing_summary(),
            cold_f.sharing_summary(),
            "{tag} shards={shards}: sharing stats diverged"
        );
    }
}

trait SharingSummary {
    fn sharing_summary(&self) -> Option<(u64, u64, u64)>;
}

impl SharingSummary for Report {
    fn sharing_summary(&self) -> Option<(u64, u64, u64)> {
        self.stats
            .sharing
            .as_ref()
            .map(|s| (s.shares, s.splits, s.max_group as u64))
    }
}

/// The headline matrix: on sharing-heavy workloads, seeding with the
/// real analysis map leaves the race set and sharing statistics
/// byte-identical on both shadow stores, every shard count, and both
/// replay paths — while the seeded fast path demonstrably fires.
#[test]
fn preseeded_detection_is_race_identical_on_real_maps() {
    for kind in SHARING_HEAVY {
        let (trace, _) = Workload::new(kind).with_scale(SCALE).generate();
        let map = Arc::new(analyze(&trace).affinity);
        assert!(
            !map.is_empty(),
            "{}: affinity pass certified nothing",
            kind.name()
        );
        assert_seeded_matches::<HashSelect>(&trace, &map, &format!("{} hash", kind.name()));
        assert_seeded_matches::<PagedSelect>(&trace, &map, &format!("{} paged", kind.name()));

        // The fast path fires: a single-shard seeded run records hits
        // and never allocates *more* clocks than a cold one. (The
        // strictly-fewer-allocations case — the second-epoch shortcut —
        // is pinned by the core crate's unit tests; whether it triggers
        // here depends on the workload's sync cadence at this scale.)
        let mut warm = DynamicGranularityOn::<HashSelect>::new();
        warm.set_affinity(Arc::clone(&map));
        let seeded = replay_sharded(&warm, &trace, 1);
        let cold = replay_sharded(&DynamicGranularityOn::<HashSelect>::new(), &trace, 1);
        assert!(
            seeded.stats.preseed_hits > 0,
            "{}: pre-seeding never fired",
            kind.name()
        );
        assert!(
            seeded.stats.vc_allocs <= cold.stats.vc_allocs,
            "{}: seeding must not allocate extra clocks ({} vs {})",
            kind.name(),
            seeded.stats.vc_allocs,
            cold.stats.vc_allocs
        );
        assert_eq!(cold.stats.preseed_hits, 0);
    }
}

/// Adversarial mispredicts: maps whose strides are wrong for the
/// workload (misaligned, undersized, oversized, covering everything)
/// must be completely harmless — same races, same sharing decisions.
#[test]
fn adversarial_affinity_maps_are_harmless() {
    let hostile = [
        // One huge range at a stride few accesses match.
        vec![AffinityRange {
            start: Addr(0),
            len: 1 << 26,
            stride: 2,
        }],
        // Misaligned word-stride carpet over the heap.
        vec![AffinityRange {
            start: Addr(0x101),
            len: 1 << 24,
            stride: 4,
        }],
        // Dense patchwork of conflicting strides.
        (0..64u64)
            .map(|i| AffinityRange {
                start: Addr(0x10_0000 + i * 0x1000),
                len: 0x800,
                stride: [1u8, 2, 4, 8][(i % 4) as usize],
            })
            .collect(),
    ];
    for kind in [WorkloadKind::Pbzip2, WorkloadKind::X264] {
        let (trace, _) = Workload::new(kind).with_scale(SCALE).generate();
        for (i, ranges) in hostile.iter().enumerate() {
            let map = Arc::new(AffinityMap {
                ranges: ranges.clone(),
            });
            assert_seeded_matches::<HashSelect>(
                &trace,
                &map,
                &format!("{} hostile-map-{i}", kind.name()),
            );
        }
    }
}

/// Plan routing is result-invariant for fixed-granularity detection:
/// replaying under a compiled heat plan reports exactly the serialized
/// race set on both replay paths.
#[test]
fn planned_routing_is_race_identical_for_fasttrack() {
    for kind in SHARING_HEAVY {
        let (trace, _) = Workload::new(kind).with_scale(SCALE).generate();
        let plan = analyze(&trace).plan;
        assert!(
            !plan.is_empty(),
            "{}: heat pass produced no buckets",
            kind.name()
        );
        let proto = || FastTrack::with_granularity(Granularity::Byte);
        let want = race_signature(&replay_sharded(&proto(), &trace, 1));
        for shards in [2usize, 4] {
            let routes = plan.compile(shards);
            assert!(!routes.is_empty(), "{} shards={shards}", kind.name());
            let funnel = replay(
                proto(),
                &trace,
                &RunPlan {
                    shards,
                    routes: &routes,
                    ..RunPlan::default()
                },
            )
            .expect("replay");
            let piped = replay(
                proto(),
                &trace,
                &RunPlan {
                    shards,
                    transport: Transport::Rings,
                    routes: &routes,
                    ..RunPlan::default()
                },
            )
            .expect("replay");
            assert_eq!(
                race_signature(&funnel),
                want,
                "{} shards={shards}: planned funnel diverged",
                kind.name()
            );
            assert_eq!(
                race_signature(&piped),
                want,
                "{} shards={shards}: planned pipeline diverged",
                kind.name()
            );
        }
    }
}

/// The lock-graph pass on a classic AB-BA inversion workload produces
/// exactly the expected warning set — one cycle naming both locks,
/// nothing else — deterministically.
#[test]
fn lock_inversion_workload_yields_exact_warning_set() {
    let mut b = TraceBuilder::new();
    b.fork(0u32, 1u32);
    // Thread 0 nests L1 -> L2, thread 1 nests L2 -> L1, both guarding
    // the same counter, plus innocuous consistently-ordered traffic.
    b.locked(0u32, 1u32, |b| {
        b.locked(0u32, 2u32, |b| {
            b.write(0u32, 0x100u64, AccessSize::U64);
        });
    });
    b.locked(1u32, 2u32, |b| {
        b.locked(1u32, 1u32, |b| {
            b.write(1u32, 0x100u64, AccessSize::U64);
        });
    });
    for t in [0u32, 1u32] {
        b.locked(t, 3u32, |b| {
            b.locked(t, 4u32, |b| {
                b.write(t, 0x200u64, AccessSize::U64);
            });
        });
    }
    b.join(0u32, 1u32);
    let trace = b.build();
    let first = analyze(&trace);
    let second = analyze(&trace);
    assert_eq!(first.warnings, second.warnings, "warnings must be stable");
    assert_eq!(
        first.warnings,
        vec![AnalysisWarning::LockOrderCycle {
            locks: vec![LockId(1), LockId(2)]
        }]
    );
}

// ---- property-based: random traces × random maps --------------------

#[derive(Clone, Debug)]
enum Op {
    Write(u8, u16, u8),
    Read(u8, u16, u8),
    Locked(u8, u8, u16),
}

fn arb_op() -> impl Strategy<Value = Op> {
    fn size() -> impl Strategy<Value = u8> {
        prop_oneof![Just(1u8), Just(2), Just(4), Just(8)]
    }
    prop_oneof![
        (0u8..2, any::<u16>(), size()).prop_map(|(t, a, s)| Op::Write(t, a, s)),
        (0u8..2, any::<u16>(), size()).prop_map(|(t, a, s)| Op::Read(t, a, s)),
        (0u8..2, 1u8..4, any::<u16>()).prop_map(|(t, l, a)| Op::Locked(t, l, a)),
    ]
}

fn arb_map() -> impl Strategy<Value = AffinityMap> {
    proptest::collection::vec(
        (
            any::<u16>(),
            1u64..512,
            prop_oneof![Just(1u8), Just(2), Just(4), Just(8)],
        ),
        0..6,
    )
    .prop_map(|mut raw| {
        // Sorted, disjoint ranges — the invariant `analyze` maintains.
        raw.sort_by_key(|r| r.0);
        let mut ranges: Vec<AffinityRange> = Vec::new();
        for (start, len, stride) in raw {
            let start = 0x1000 + start as u64;
            if ranges.last().is_none_or(|p| p.start.0 + p.len <= start) {
                ranges.push(AffinityRange {
                    start: Addr(start),
                    len,
                    stride,
                });
            }
        }
        AffinityMap { ranges }
    })
}

fn size_of(bytes: u8) -> AccessSize {
    match bytes {
        1 => AccessSize::U8,
        2 => AccessSize::U16,
        4 => AccessSize::U32,
        _ => AccessSize::U64,
    }
}

fn build(ops: &[Op]) -> Trace {
    let mut b = TraceBuilder::new();
    b.fork(0u32, 1u32);
    for op in ops {
        match *op {
            Op::Write(t, a, s) => {
                b.write(t as u32, 0x1000 + a as u64, size_of(s));
            }
            Op::Read(t, a, s) => {
                b.read(t as u32, 0x1000 + a as u64, size_of(s));
            }
            Op::Locked(t, l, a) => {
                b.locked(t as u32, l as u32, |b| {
                    b.write(t as u32, 0x1000 + a as u64, AccessSize::U32);
                });
            }
        }
    }
    b.join(0u32, 1u32);
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For arbitrary traces and arbitrary (valid-shape) affinity maps,
    /// the seeded dynamic detector reports exactly the unseeded race
    /// set with exactly the unseeded sharing decisions.
    #[test]
    fn seeded_equals_unseeded_on_random_inputs(
        ops in proptest::collection::vec(arb_op(), 1..80),
        map in arb_map(),
        shards in 1usize..4,
    ) {
        let trace = build(&ops);
        let map = Arc::new(map);
        let cold = DynamicGranularityOn::<HashSelect>::new();
        let mut warm = DynamicGranularityOn::<HashSelect>::new();
        warm.set_affinity(Arc::clone(&map));
        let c = replay_sharded(&cold, &trace, shards);
        let w = replay_sharded(&warm, &trace, shards);
        prop_assert_eq!(race_signature(&w), race_signature(&c));
        prop_assert_eq!(w.stats.same_epoch, c.stats.same_epoch);
        prop_assert_eq!(w.sharing_summary(), c.sharing_summary());
    }
}
