//! Differential stress tests for the sharded online runtime.
//!
//! Real threads drive the sharded engine while it journals every event
//! with its sequence stamp; the journal is reconstructed into a `Trace`
//! (the observed serialization) and replayed through a *serialized*
//! detector. The race sets — addresses plus kinds — must be identical:
//! the sharded engine may not invent, lose, or reclassify a single race,
//! at any shard count. The property at the bottom holds the offline
//! sharded replay to the same rule on random programs.

use std::sync::Arc;
use std::thread;

use dgrace::core::DynamicGranularity;
use dgrace::detectors::{
    race_signature, DetectorExt, Djit, FastTrack, Granularity, RaceKind, ShardableDetector,
};
use dgrace::runtime::{replay_sharded, Runtime, RuntimeOptions};
use dgrace::trace::{validate, AccessSize, Addr, Trace};
use dgrace::workloads::{BlockBuilder, Scheduler};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// A small buffer forces frequent overflow flushes; an odd size keeps
/// flush boundaries misaligned with loop iterations.
fn recording() -> RuntimeOptions {
    RuntimeOptions {
        buffer_capacity: 7,
        record: true,
    }
}

/// Mixed workload: `workers` threads update a shared array under a lock
/// (race-free) and each writes a dedicated cell that the main thread
/// also writes unsynchronized (a deterministic write-write race per
/// worker, schedule-independent).
fn drive_mixed(rt: &Runtime, workers: usize) -> Vec<Addr> {
    let main = rt.main();
    let locked = rt.array(64);
    let m = Arc::new(rt.mutex(()));
    let racy: Vec<_> = (0..workers).map(|_| rt.cell(0)).collect();
    let racy_addrs: Vec<Addr> = racy.iter().map(|c| c.addr()).collect();

    let mut joins = Vec::new();
    let mut tickets = Vec::new();
    for (w, cell) in racy.iter().enumerate() {
        let (child, ticket) = main.fork();
        let locked = locked.clone();
        let m = Arc::clone(&m);
        let cell = cell.clone();
        tickets.push(ticket);
        joins.push(thread::spawn(move || {
            for i in 0..50usize {
                {
                    let _g = m.lock(&child);
                    let slot = (w * 7 + i) % 64;
                    let v = locked.get(&child, slot);
                    locked.set(&child, slot, v + 1);
                }
                cell.set(&child, i as u64);
            }
        }));
    }
    // Unsynchronized writes racing every worker's cell.
    for c in &racy {
        c.set(&main, 999);
    }
    for jh in joins {
        jh.join().unwrap();
    }
    for t in tickets {
        main.join(t);
    }
    racy_addrs
}

/// Fully locked workload: every access to shared state is protected, so
/// no detector at any shard count may report anything.
fn drive_locked(rt: &Runtime, workers: usize) {
    let main = rt.main();
    let buf = rt.array(128);
    let m = Arc::new(rt.mutex(0usize));

    let mut joins = Vec::new();
    let mut tickets = Vec::new();
    for _ in 0..workers {
        let (child, ticket) = main.fork();
        let buf = buf.clone();
        let m = Arc::clone(&m);
        tickets.push(ticket);
        joins.push(thread::spawn(move || {
            for _ in 0..40 {
                let mut cursor = m.lock(&child);
                let i = *cursor % buf.len();
                let v = buf.get(&child, i);
                buf.set(&child, i, v + 1);
                *cursor += 1;
            }
        }));
    }
    for jh in joins {
        jh.join().unwrap();
    }
    for t in tickets {
        main.join(t);
    }
}

#[test]
fn sharded_race_set_matches_serialized_dynamic() {
    let mut signatures: Vec<Vec<(Addr, RaceKind)>> = Vec::new();
    let mut expected: Vec<Addr> = Vec::new();

    for &shards in &SHARD_COUNTS {
        let rt = Runtime::sharded_with_options(&DynamicGranularity::new(), shards, recording());
        assert_eq!(rt.shard_count(), shards);
        expected = drive_mixed(&rt, 4);

        let trace = rt.take_recorded().expect("journaling runtime");
        validate(&trace).expect("journal is a well-formed serialization");
        let report = rt.finish();
        assert_eq!(
            report.stats.events,
            trace.len() as u64,
            "shards={shards}: journal and event count must agree exactly"
        );

        // The serialized detector replays the same observed schedule.
        let serial = DynamicGranularity::new().run(&trace);
        assert_eq!(
            race_signature(&report),
            race_signature(&serial),
            "shards={shards}: sharded vs serialized race sets differ"
        );
        signatures.push(race_signature(&report));
    }

    // Byte-identical race sets across every shard count (incl. 1).
    for (i, sig) in signatures.iter().enumerate() {
        assert_eq!(
            sig, &signatures[0],
            "shards={} disagrees with shards={}",
            SHARD_COUNTS[i], SHARD_COUNTS[0]
        );
    }
    // And they are exactly the planted write-write races (racy cells are
    // allocated in increasing address order, matching the sorted
    // signature).
    let planted: Vec<(Addr, RaceKind)> = expected
        .iter()
        .map(|&a| (a, RaceKind::WriteWrite))
        .collect();
    assert_eq!(signatures[0], planted);
}

#[test]
fn sharded_race_set_matches_serialized_fasttrack() {
    for &shards in &SHARD_COUNTS {
        let rt = Runtime::sharded_with_options(&FastTrack::new(), shards, recording());
        drive_mixed(&rt, 3);
        let trace = rt.take_recorded().expect("journaling runtime");
        validate(&trace).expect("journal is a well-formed serialization");
        let report = rt.finish();
        let serial = FastTrack::new().run(&trace);
        assert_eq!(
            race_signature(&report),
            race_signature(&serial),
            "shards={shards}: sharded vs serialized race sets differ"
        );
    }
}

#[test]
fn sharded_locked_workload_stays_race_free() {
    for &shards in &SHARD_COUNTS {
        let rt = Runtime::sharded_with_options(&DynamicGranularity::new(), shards, recording());
        drive_locked(&rt, 4);
        let trace = rt.take_recorded().expect("journaling runtime");
        validate(&trace).expect("journal is a well-formed serialization");
        let report = rt.finish();
        assert!(
            report.races.is_empty(),
            "shards={shards}: {:?}",
            report.races
        );
        let serial = DynamicGranularity::new().run(&trace);
        assert!(
            serial.races.is_empty(),
            "shards={shards}: serialized replay"
        );
        assert_eq!(report.stats.events, trace.len() as u64);
    }
}

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

/// Builds a trace from per-thread op lists, interleaved by a seeded
/// scheduler. Slot addresses straddle a 64 KiB boundary.
fn build(programs: &[Vec<Op>], seed: u64) -> Trace {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The fixed-granularity detectors keep one report per location, so
    /// their race sets cannot depend on the address partition: FastTrack
    /// at byte and word granularity and DJIT+ report at 2 and 4 shards
    /// exactly what they report at one, on every random schedule. (The
    /// dynamic detector's group reports legitimately vary with the
    /// partition, so it is not in this list.)
    #[test]
    fn fixed_granularity_race_sets_are_shard_invariant(
        programs in arb_program(),
        seed in 0u64..1000,
    ) {
        let trace = build(&programs, seed);
        prop_assert!(validate(&trace).is_ok());
        let protos: [Box<dyn ShardableDetector>; 3] = [
            Box::new(FastTrack::new()),
            Box::new(FastTrack::with_granularity(Granularity::Word)),
            Box::new(Djit::new()),
        ];
        for proto in &protos {
            let serial = race_signature(&replay_sharded(proto.as_ref(), &trace, 1));
            for shards in [2, 4] {
                let sharded = replay_sharded(proto.as_ref(), &trace, shards);
                prop_assert_eq!(
                    race_signature(&sharded),
                    serial.clone(),
                    "{} at shards={}",
                    sharded.detector,
                    shards
                );
            }
        }
    }
}
