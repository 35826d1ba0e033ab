//! Differential tests proving the paged shadow store is observationally
//! identical to the chained-hash table.
//!
//! The stores index locations differently (two-level direct-mapped pages
//! vs. chained hash buckets) but must agree on every observable: race
//! sets byte-for-byte (address, kind), allocation counts, same-epoch
//! counts — for FastTrack at byte and word granularity, DJIT+, and the
//! dynamic-granularity detector, serialized and at every shard count.
//! Both stores implement the word→byte chunk-mode expansion of Fig. 4,
//! which the unit tests at the bottom pin down on unaligned accesses.

use dgrace::core::{DynamicConfig, DynamicGranularityOn};
use dgrace::detectors::{
    race_signature, DetectorExt, DjitOn, FastTrackOn, Granularity, Report, ShardableDetector,
};
use dgrace::runtime::replay_sharded;
use dgrace::shadow::{HashSelect, PagedSelect, PagedShadow, ShadowStore, ShadowTable};
use dgrace::trace::{validate, Addr, Trace};
use dgrace::workloads::{BlockBuilder, Scheduler, Workload, WorkloadKind};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// One operation of a random per-thread program. Slots map to addresses
/// a word apart, so neighbor sharing, chunk expansion, and directory
/// boundaries are all exercised.
#[derive(Clone, Debug)]
enum Op {
    Read(u8),
    Write(u8),
    /// An unaligned byte access — forces word→byte chunk expansion.
    WriteByte(u8),
    Locked(u8, Vec<(u8, bool)>),
    /// Free the whole slot region (exercises remove_range + reuse).
    FreeAll,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..16).prop_map(Op::Read),
        (0u8..16).prop_map(Op::Write),
        (0u8..16).prop_map(Op::WriteByte),
        (
            0u8..3,
            proptest::collection::vec((0u8..16, any::<bool>()), 1..4)
        )
            .prop_map(|(l, accs)| Op::Locked(l, accs)),
        Just(Op::FreeAll),
    ]
}

fn arb_program() -> impl Strategy<Value = Vec<Vec<Op>>> {
    proptest::collection::vec(proptest::collection::vec(arb_op(), 1..20), 2..4)
}

/// Builds a trace from per-thread op lists. Slot addresses straddle a
/// 4 KiB boundary so paged-store directory crossings are exercised.
fn build(programs: &[Vec<Op>], seed: u64) -> Trace {
    use dgrace::trace::AccessSize;
    let base = 0x10_000u64 - 8 * 4;
    let addr = |slot: u8| base + slot as u64 * 4;
    let mut builders = Vec::new();
    for (i, prog) in programs.iter().enumerate() {
        let tid = (i + 1) as u32;
        let mut b = BlockBuilder::new(tid);
        for op in prog {
            match op {
                Op::Read(s) => {
                    b.read(addr(*s), AccessSize::U32);
                }
                Op::Write(s) => {
                    b.write(addr(*s), AccessSize::U32);
                }
                Op::WriteByte(s) => {
                    b.write(addr(*s) + 1, AccessSize::U8);
                }
                Op::Locked(l, accs) => {
                    b.locked(200 + *l as u32, |b| {
                        for (s, w) in accs {
                            if *w {
                                b.write(addr(*s), AccessSize::U32);
                            } else {
                                b.read(addr(*s), AccessSize::U32);
                            }
                        }
                    });
                }
                Op::FreeAll => {
                    b.free(base, 16 * 4 + 4);
                }
            }
            b.cut();
        }
        builders.push(b);
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    Scheduler::new().run(builders, &mut rng)
}

/// Everything two equivalent detector runs must agree on.
fn observables(rep: &Report) -> (Vec<(Addr, dgrace::detectors::RaceKind)>, u64, u64, u64) {
    (
        race_signature(rep),
        rep.stats.accesses,
        rep.stats.same_epoch,
        rep.stats.vc_allocs,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// FastTrack (byte and word), DJIT+ and the dynamic detector report
    /// byte-identical race sets on both stores, on every random schedule.
    #[test]
    fn stores_agree_serialized(programs in arb_program(), seed in 0u64..1000) {
        let trace = build(&programs, seed);
        prop_assert!(validate(&trace).is_ok());

        let h = FastTrackOn::<HashSelect>::new().run(&trace);
        let p = FastTrackOn::<PagedSelect>::new().run(&trace);
        prop_assert_eq!(observables(&h), observables(&p), "fasttrack-byte");

        let h = FastTrackOn::<HashSelect>::with_granularity(Granularity::Word).run(&trace);
        let p = FastTrackOn::<PagedSelect>::with_granularity(Granularity::Word).run(&trace);
        prop_assert_eq!(observables(&h), observables(&p), "fasttrack-word");

        let h = DjitOn::<HashSelect>::new().run(&trace);
        let p = DjitOn::<PagedSelect>::new().run(&trace);
        prop_assert_eq!(observables(&h), observables(&p), "djit");

        let h = DynamicGranularityOn::<HashSelect>::new().run(&trace);
        let p = DynamicGranularityOn::<PagedSelect>::new().run(&trace);
        prop_assert_eq!(observables(&h), observables(&p), "dynamic");
    }

    /// Sharded replay: both stores, shards 1/2/4, identical sorted race
    /// sets for the whole vector-clock detector family.
    #[test]
    fn stores_agree_sharded(programs in arb_program(), seed in 0u64..1000) {
        let trace = build(&programs, seed);
        // The bool marks detectors whose reports are provably
        // shard-invariant (per-location independence). The dynamic
        // detector's *group* race reports legitimately vary with the
        // address partition, so for it only cross-store equality at equal
        // shard counts is asserted.
        type Proto = Box<dyn ShardableDetector>;
        let protos: Vec<(Proto, Proto, bool)> = vec![
            (
                Box::new(FastTrackOn::<HashSelect>::new()),
                Box::new(FastTrackOn::<PagedSelect>::new()),
                true,
            ),
            (
                Box::new(FastTrackOn::<HashSelect>::with_granularity(Granularity::Word)),
                Box::new(FastTrackOn::<PagedSelect>::with_granularity(Granularity::Word)),
                true,
            ),
            (
                Box::new(DjitOn::<HashSelect>::new()),
                Box::new(DjitOn::<PagedSelect>::new()),
                true,
            ),
            (
                Box::new(DynamicGranularityOn::<HashSelect>::new()),
                Box::new(DynamicGranularityOn::<PagedSelect>::new()),
                false,
            ),
        ];
        for (h, p, shard_invariant) in &protos {
            let baseline = race_signature(&replay_sharded(h.as_ref(), &trace, 1));
            for &shards in &SHARD_COUNTS {
                let hs = replay_sharded(h.as_ref(), &trace, shards);
                let ps = replay_sharded(p.as_ref(), &trace, shards);
                prop_assert_eq!(
                    race_signature(&hs),
                    race_signature(&ps),
                    "hash vs paged, shards={}",
                    shards
                );
                if *shard_invariant {
                    prop_assert_eq!(
                        race_signature(&ps),
                        baseline.clone(),
                        "paged shards={} vs serialized hash",
                        shards
                    );
                }
            }
        }
    }
}

/// The paper workloads (deterministic seeds) as an end-to-end cross-check
/// on top of the random schedules: the dynamic detector's full reports —
/// races *and* sharing stats — match across stores and shard counts.
#[test]
fn paper_workloads_agree_across_stores_and_shards() {
    for kind in [
        WorkloadKind::Pbzip2,
        WorkloadKind::Streamcluster,
        WorkloadKind::Dedup,
    ] {
        let (trace, _) = Workload::new(kind)
            .with_scale(0.05)
            .with_seed(11)
            .generate();
        let serial_hash = DynamicGranularityOn::<HashSelect>::new().run(&trace);
        let serial_paged = DynamicGranularityOn::<PagedSelect>::new().run(&trace);
        assert_eq!(
            race_signature(&serial_hash),
            race_signature(&serial_paged),
            "{kind:?}: serialized"
        );
        assert_eq!(
            serial_hash.stats.vc_allocs, serial_paged.stats.vc_allocs,
            "{kind:?}: vc_allocs"
        );
        let hash_proto = DynamicGranularityOn::<HashSelect>::new();
        let paged_proto = DynamicGranularityOn::<PagedSelect>::new();
        for shards in SHARD_COUNTS {
            let h = replay_sharded(&hash_proto, &trace, shards);
            let p = replay_sharded(&paged_proto, &trace, shards);
            assert_eq!(
                race_signature(&h),
                race_signature(&p),
                "{kind:?}: hash vs paged at shards={shards}"
            );
            assert_eq!(
                h.stats.vc_allocs, p.stats.vc_allocs,
                "{kind:?}: vc_allocs at shards={shards}"
            );
        }
    }
}

/// Detector names distinguish the stores (reports stay attributable).
#[test]
fn paged_detectors_are_labelled() {
    use dgrace::detectors::Detector;
    assert_eq!(
        FastTrackOn::<PagedSelect>::new().name(),
        "fasttrack-byte+paged"
    );
    assert_eq!(DjitOn::<PagedSelect>::new().name(), "djit-byte+paged");
    assert_eq!(
        DynamicGranularityOn::<PagedSelect>::with_config(DynamicConfig::default()).name(),
        "dynamic+paged"
    );
    assert_eq!(FastTrackOn::<HashSelect>::new().name(), "fasttrack-byte");
}

/// Word→byte chunk-mode expansion parity at the store level: a word-mode
/// chunk answers unaligned lookups with a miss in both stores, and the
/// first unaligned insert expands the chunk preserving existing cells.
#[test]
fn word_to_byte_expansion_matches_across_stores() {
    let mut hash: ShadowTable<u32> = ShadowTable::default();
    let mut paged: PagedShadow<u32> = PagedShadow::default();
    let base = 0x2000u64;

    // Word-mode phase: aligned inserts only.
    for i in 0..8u64 {
        ShadowStore::insert(&mut hash, Addr(base + i * 4), i as u32);
        ShadowStore::insert(&mut paged, Addr(base + i * 4), i as u32);
    }
    // Unaligned lookups miss identically while in word mode.
    for probe in [base + 1, base + 2, base + 7, base + 13] {
        assert_eq!(
            ShadowStore::get(&hash, Addr(probe)),
            None,
            "hash {probe:#x}"
        );
        assert_eq!(
            ShadowStore::get(&paged, Addr(probe)),
            None,
            "paged {probe:#x}"
        );
    }
    // Unaligned removes are no-ops in word mode.
    assert_eq!(ShadowStore::remove(&mut hash, Addr(base + 2)), None);
    assert_eq!(ShadowStore::remove(&mut paged, Addr(base + 2)), None);

    // First unaligned insert expands the chunk in both stores…
    ShadowStore::insert(&mut hash, Addr(base + 2), 99);
    ShadowStore::insert(&mut paged, Addr(base + 2), 99);
    // …preserving every aligned cell and serving byte addresses.
    for i in 0..8u64 {
        let a = Addr(base + i * 4);
        assert_eq!(ShadowStore::get(&hash, a), Some(&(i as u32)));
        assert_eq!(ShadowStore::get(&paged, a), Some(&(i as u32)));
    }
    assert_eq!(ShadowStore::get(&hash, Addr(base + 2)), Some(&99));
    assert_eq!(ShadowStore::get(&paged, Addr(base + 2)), Some(&99));
    assert_eq!(ShadowStore::len(&hash), ShadowStore::len(&paged));

    // Expansion is per-chunk: a different chunk stays word-mode in both.
    let far = base + 0x4000;
    ShadowStore::insert(&mut hash, Addr(far), 1);
    ShadowStore::insert(&mut paged, Addr(far), 1);
    assert_eq!(ShadowStore::get(&hash, Addr(far + 3)), None);
    assert_eq!(ShadowStore::get(&paged, Addr(far + 3)), None);

    // Neighbor scans agree across the expanded/word-mode mix.
    for probe in [base + 6, base + 16, far + 4] {
        assert_eq!(
            ShadowStore::nearest_predecessor(&hash, Addr(probe), 64).map(|(a, v)| (a, *v)),
            ShadowStore::nearest_predecessor(&paged, Addr(probe), 64).map(|(a, v)| (a, *v)),
            "pred at {probe:#x}"
        );
        assert_eq!(
            ShadowStore::nearest_successor(&hash, Addr(probe), 64).map(|(a, v)| (a, *v)),
            ShadowStore::nearest_successor(&paged, Addr(probe), 64).map(|(a, v)| (a, *v)),
            "succ at {probe:#x}"
        );
    }
}
