//! Cross-detector property tests on randomly generated schedules.
//!
//! The generator builds structurally valid multithreaded programs (all
//! forks first, locks properly bracketed, random block interleavings) and
//! the properties compare the whole detector stack against the exact
//! oracle.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::thread;

use dgrace::analysis::analyze;
use dgrace::baselines::{HybridDetector, SegmentDetector};
use dgrace::core::{DynamicConfig, DynamicGranularity};
use dgrace::detectors::{
    race_signature, DetectorExt, Djit, FastTrack, OracleDetector, Report, StaticPruneFilter,
};
use dgrace::runtime::{Runtime, RuntimeOptions};
use dgrace::trace::{validate, Addr, Event, LocationClass, LockId, Trace};
use dgrace::vc::Tid;
use dgrace::workloads::{BlockBuilder, Scheduler};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// One operation of a random per-thread program.
#[derive(Clone, Debug)]
enum Op {
    Read(u8),
    Write(u8),
    /// Lock-protected accesses: (slot, is_write).
    Locked(u8, Vec<(u8, bool)>),
    /// Frees the slot's word, allocates it again and accesses it:
    /// (slot, is_write).
    FreeReuse(u8, bool),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..12).prop_map(Op::Read),
        (0u8..12).prop_map(Op::Write),
        (
            0u8..3,
            proptest::collection::vec((0u8..12, any::<bool>()), 1..4)
        )
            .prop_map(|(l, accs)| Op::Locked(l, accs)),
    ]
}

fn arb_program() -> impl Strategy<Value = Vec<Vec<Op>>> {
    proptest::collection::vec(proptest::collection::vec(arb_op(), 1..25), 2..4)
}

/// [`arb_op`], and one time in four a free-and-reuse of a word. Only the
/// happens-before properties draw from it: the classifier's definitions,
/// the prune analysis and the online runtime's tracked cells have no
/// notion of a freed byte, so their properties keep [`arb_program`].
fn arb_op_with_frees() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_op(),
        arb_op(),
        arb_op(),
        (0u8..12, any::<bool>()).prop_map(|(s, w)| Op::FreeReuse(s, w)),
    ]
}

fn arb_program_with_frees() -> impl Strategy<Value = Vec<Vec<Op>>> {
    let program = proptest::collection::vec(arb_op_with_frees(), 1..25);
    proptest::collection::vec(program, 2..4)
}

/// Builds a trace from per-thread op lists. `spacing` controls address
/// adjacency: large spacing ⇒ no location is ever a sharing neighbor.
fn build(programs: &[Vec<Op>], spacing: u64, seed: u64) -> Trace {
    build_under(Scheduler::new(), programs, spacing, seed)
}

/// [`build`] with the main thread's prologue and epilogue supplied.
fn build_under(main: Scheduler, programs: &[Vec<Op>], spacing: u64, seed: u64) -> Trace {
    use dgrace::trace::AccessSize;
    let base = 0x10_000u64;
    let addr = |slot: u8| base + slot as u64 * spacing;
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
                Op::FreeReuse(s, w) => {
                    b.free(addr(*s), 4).alloc(addr(*s), 4);
                    if *w {
                        b.write(addr(*s), AccessSize::U32);
                    } else {
                        b.read(addr(*s), AccessSize::U32);
                    }
                }
            }
            b.cut();
        }
        builders.push(b);
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    main.run(builders, &mut rng)
}

/// Every touched byte's class recomputed from the definitions
/// (DESIGN.md §10), quadratically and sharing no code with
/// `dgrace::analysis`: fork/join-only happens-before is reachability in
/// the event graph (program order, fork → the child's next event, the
/// child's last event → join), "live" is the set of threads forked and
/// not yet joined, and the lockset is a set intersection.
fn classes_by_definition(trace: &Trace) -> BTreeMap<u64, LocationClass> {
    struct Access {
        event: usize,
        write: bool,
        live: usize,
        held: BTreeSet<LockId>,
    }
    // before[j]: the events that happen before event j.
    let mut before: Vec<BTreeSet<usize>> = Vec::with_capacity(trace.len());
    let mut last_of: BTreeMap<Tid, usize> = BTreeMap::new();
    let mut forked_by: BTreeMap<Tid, usize> = BTreeMap::new();
    let mut live = BTreeSet::from([Tid(0)]);
    let mut held: BTreeMap<Tid, BTreeSet<LockId>> = BTreeMap::new();
    let mut touched: BTreeMap<u64, Vec<Access>> = BTreeMap::new();
    for (j, ev) in trace.iter().enumerate() {
        let mut preds: Vec<usize> = last_of.get(&ev.tid()).copied().into_iter().collect();
        preds.extend(forked_by.remove(&ev.tid()));
        match *ev {
            Event::Fork { child, .. } => {
                forked_by.insert(child, j);
                live.insert(child);
            }
            Event::Join { child, .. } => {
                preds.extend(last_of.get(&child));
                live.remove(&child);
            }
            Event::Acquire { tid, lock } => {
                held.entry(tid).or_default().insert(lock);
            }
            Event::Release { tid, lock } => {
                held.entry(tid).or_default().remove(&lock);
            }
            _ => {}
        }
        let mut earlier = BTreeSet::new();
        for p in preds {
            earlier.insert(p);
            earlier.extend(&before[p]);
        }
        before.push(earlier);
        last_of.insert(ev.tid(), j);
        if let Some((addr, size, write)) = ev.access() {
            for byte in addr.0..addr.0 + size.bytes() {
                touched.entry(byte).or_default().push(Access {
                    event: j,
                    write,
                    live: live.len(),
                    held: held.get(&ev.tid()).cloned().unwrap_or_default(),
                });
            }
        }
    }
    touched
        .into_iter()
        .map(|(byte, accesses)| {
            let ordered = accesses.iter().enumerate().all(|(k, b)| {
                accesses[..k]
                    .iter()
                    .all(|a| before[b.event].contains(&a.event))
            });
            let common = accesses[1..].iter().fold(accesses[0].held.clone(), |s, a| {
                s.intersection(&a.held).copied().collect()
            });
            let class = if ordered {
                LocationClass::ThreadLocal
            } else if accesses.iter().all(|a| !a.write || a.live == 1) {
                LocationClass::ReadOnlyAfterInit
            } else if !common.is_empty() {
                LocationClass::ConsistentlyLocked {
                    lockset: common.into_iter().collect(),
                }
            } else {
                LocationClass::Contended
            };
            (byte, class)
        })
        .collect()
}

/// Executes the random per-thread programs on *real threads* under the
/// sharded online runtime (journaling mode): slots become tracked cells,
/// lock ids tracked mutexes. Returns the merged sharded report plus the
/// journal of the schedule that actually ran.
fn run_online(programs: &[Vec<Op>], shards: usize) -> (Report, Trace) {
    let rt = Runtime::with_options(
        &DynamicGranularity::new(),
        RuntimeOptions {
            shards,
            buffer_capacity: 5, // small + odd: force misaligned overflow flushes
            record: true,
        },
    );
    let main = rt.main();
    let cells: Vec<_> = (0..12).map(|_| rt.cell(0)).collect();
    let locks: Vec<_> = (0..3).map(|_| Arc::new(rt.mutex(()))).collect();

    let mut joins = Vec::new();
    let mut tickets = Vec::new();
    for prog in programs {
        let (child, ticket) = main.fork();
        let cells = cells.clone();
        let locks = locks.clone();
        let prog = prog.clone();
        tickets.push(ticket);
        joins.push(thread::spawn(move || {
            for op in &prog {
                match op {
                    Op::Read(s) => {
                        cells[*s as usize].get(&child);
                    }
                    Op::Write(s) => {
                        cells[*s as usize].set(&child, 1);
                    }
                    Op::Locked(l, accs) => {
                        let _g = locks[*l as usize].lock(&child);
                        for (s, w) in accs {
                            if *w {
                                cells[*s as usize].set(&child, 2);
                            } else {
                                cells[*s as usize].get(&child);
                            }
                        }
                    }
                    Op::FreeReuse(..) => unreachable!("tracked cells are never freed"),
                }
            }
        }));
    }
    for jh in joins {
        jh.join().unwrap();
    }
    for t in tickets {
        main.join(t);
    }
    let trace = rt.take_recorded().expect("journaling runtime");
    let report = rt.finish();
    (report, trace)
}

proptest! {
    // Each case spawns real threads; fewer cases than the offline
    // properties keep the suite fast while still seeding the
    // regressions file on any counterexample.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The sharded online runtime agrees with the exact oracle on the
    /// schedule it actually observed: the journal replayed through
    /// `OracleDetector` yields the same racy locations the live sharded
    /// dynamic detector reported (cells are padded apart, so sharing
    /// never blurs the comparison), at every shard count.
    #[test]
    fn sharded_online_runtime_agrees_with_oracle(
        programs in arb_program(),
        shards in 1usize..=8,
    ) {
        let (report, trace) = run_online(&programs, shards);
        prop_assert!(validate(&trace).is_ok(), "journal must be well-formed");
        prop_assert_eq!(
            report.stats.events,
            trace.len() as u64,
            "finish must count exactly the journaled events"
        );
        let oracle = OracleDetector::new().run(&trace).race_addrs();
        prop_assert_eq!(
            report.race_addrs(),
            oracle,
            "sharded online (shards={}) vs oracle on the observed schedule",
            shards
        );
    }
}

/// A word written, freed, re-allocated and accessed again by one thread in
/// one epoch keeps its race with a concurrent write by another thread: the
/// free drops the word's shadow, so the second access is the first of a
/// new location, not a "same epoch" repeat of the one before the free.
#[test]
fn a_freed_and_reused_word_keeps_its_race() {
    use dgrace::detectors::RaceKind;
    use dgrace::trace::{AccessSize, TraceBuilder};
    for (reuse_is_write, kind) in [(true, RaceKind::WriteWrite), (false, RaceKind::ReadWrite)] {
        let word = 0x1000u64;
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32)
            .fork(0u32, 2u32)
            .alloc(1u32, word, 8)
            .write(1u32, word, AccessSize::U64)
            .free(1u32, word, 8)
            .alloc(1u32, word, 8);
        if reuse_is_write {
            b.write(1u32, word, AccessSize::U64);
        } else {
            b.read(1u32, word, AccessSize::U64);
        }
        b.write(2u32, word, AccessSize::U64);
        let trace = b.build();
        let reports = [
            OracleDetector::new().run(&trace),
            SegmentDetector::new().run(&trace),
            FastTrack::new().run(&trace),
            Djit::new().run(&trace),
            HybridDetector::new().run(&trace),
            DynamicGranularity::new().run(&trace),
        ];
        for rep in reports {
            let races: Vec<_> = rep.races.iter().map(|r| (r.addr, r.kind)).collect();
            assert_eq!(races, [(Addr(word), kind)], "{}", rep.detector);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// FastTrack (byte), DJIT+, the segment detector, the hybrid
    /// detector and the oracle agree on the set of racy locations.
    #[test]
    fn happens_before_detectors_agree(programs in arb_program_with_frees(), seed in 0u64..1000) {
        let trace = build(&programs, 64, seed);
        prop_assert!(validate(&trace).is_ok());
        let oracle = OracleDetector::new().run(&trace).race_addrs();
        let ft = FastTrack::new().run(&trace).race_addrs();
        let dj = Djit::new().run(&trace).race_addrs();
        let seg = SegmentDetector::new().run(&trace).race_addrs();
        let hy = HybridDetector::new().run(&trace).race_addrs();
        prop_assert_eq!(&ft, &oracle, "fasttrack vs oracle");
        prop_assert_eq!(&dj, &oracle, "djit vs oracle");
        prop_assert_eq!(&seg, &oracle, "segment vs oracle");
        prop_assert_eq!(&hy, &oracle, "hybrid vs oracle");
    }

    /// With addresses spaced beyond the neighbor-scan distance, the
    /// dynamic detector can never share clocks, so it must behave exactly
    /// like byte-granularity FastTrack — on every schedule.
    #[test]
    fn dynamic_without_neighbors_equals_oracle(
        programs in arb_program_with_frees(),
        seed in 0u64..1000,
    ) {
        let trace = build(&programs, 64, seed);
        let oracle = OracleDetector::new().run(&trace).race_addrs();
        let dynamic = DynamicGranularity::new().run(&trace);
        prop_assert_eq!(dynamic.race_addrs(), oracle);
        // And it indeed never shared.
        let sh = dynamic.stats.sharing.unwrap();
        prop_assert_eq!(sh.shares, 0);
    }

    /// With sharing force-disabled, the dynamic detector equals the
    /// oracle even on densely packed (adjacent) addresses.
    #[test]
    fn dynamic_sharing_disabled_equals_oracle(
        programs in arb_program_with_frees(),
        seed in 0u64..1000,
    ) {
        let trace = build(&programs, 4, seed);
        let oracle = OracleDetector::new().run(&trace).race_addrs();
        let cfg = DynamicConfig::no_sharing();
        let dynamic = DynamicGranularity::with_config(cfg).run(&trace);
        prop_assert_eq!(dynamic.race_addrs(), oracle);
    }

    /// Full dynamic granularity on dense addresses: every report must be
    /// explainable — a true racy location or a location that shared a
    /// clock (share_count > 1); and on oracle-race-free traces with no
    /// sharing-induced artifacts possible (single-threaded-per-slot
    /// patterns aside) the detector must not crash and its stats must be
    /// internally consistent.
    #[test]
    fn dynamic_dense_reports_are_explainable(programs in arb_program(), seed in 0u64..1000) {
        let trace = build(&programs, 4, seed);
        let oracle = OracleDetector::new().run(&trace).race_addrs();
        let rep = DynamicGranularity::new().run(&trace);
        for race in &rep.races {
            let genuine = oracle.contains(&race.addr);
            prop_assert!(
                genuine || race.tainted,
                "unexplained race at {:?} (share_count {}, tainted {})",
                race.addr,
                race.share_count,
                race.tainted
            );
        }
        // Every genuine race location is reported unless its history was
        // absorbed into a shared clock (then some group member reported).
        if !oracle.is_empty() {
            prop_assert!(!rep.races.is_empty(), "all oracle races vanished");
        }
        let s = &rep.stats;
        prop_assert!(s.same_epoch <= s.accesses);
        prop_assert!(s.vc_frees <= s.vc_allocs);
        prop_assert!(s.peak_total_bytes >= s.peak_vc_bytes);
    }

    /// Ahead-of-time pruning is invisible to an exact detector: on every
    /// random schedule, FastTrack behind a `StaticPruneFilter` compiled
    /// from the trace's own analysis reports exactly the races bare
    /// FastTrack does — which the first property already ties to the
    /// oracle — and the pruned/checked access counts always rebalance to
    /// the bare total.
    #[test]
    fn pruned_fasttrack_agrees_with_bare_and_oracle(programs in arb_program(), seed in 0u64..1000) {
        let trace = build(&programs, 64, seed);
        let summary = analyze(&trace);
        let prune = summary.prune_set(1, 0);
        let bare = FastTrack::new().run(&trace);
        let pruned = StaticPruneFilter::new(FastTrack::new(), prune).run(&trace);
        prop_assert_eq!(
            race_signature(&pruned),
            race_signature(&bare),
            "pruned vs bare fasttrack"
        );
        prop_assert_eq!(&pruned.race_addrs(), &OracleDetector::new().run(&trace).race_addrs());
        prop_assert_eq!(pruned.stats.events, trace.len() as u64);
        prop_assert_eq!(pruned.stats.accesses + pruned.stats.pruned, bare.stats.accesses);
        // Every access the analysis called prunable was indeed dropped.
        prop_assert_eq!(pruned.stats.pruned, summary.stats.prunable_accesses());
    }

    /// The classifier agrees with the definitions of its classes at
    /// every byte. Slots two bytes apart make the `U32` accesses overlap
    /// (two-byte atoms, spans of two); main initializes some slots before
    /// the forks and touches others after the joins, so hand-offs and
    /// read-only-after-init occur beside racy slots; half of the locked
    /// accesses move to slots 12.. that only their own lock guards, or
    /// consistently locked bytes would be too rare to test.
    #[test]
    fn classifier_agrees_with_the_definitions(programs in arb_program(), seed in 0u64..1000) {
        use dgrace::trace::AccessSize;
        let slot = |s: u64| 0x10_000 + s * 2;
        let guarded = |l: u8, (s, w): (u8, bool)| match s % 2 {
            0 => (12 + 2 * l + s % 4 / 2, w),
            _ => (s, w),
        };
        let programs: Vec<Vec<Op>> = programs
            .into_iter()
            .map(|ops| {
                ops.into_iter()
                    .map(|op| match op {
                        Op::Locked(l, accs) => {
                            Op::Locked(l, accs.into_iter().map(|a| guarded(l, a)).collect())
                        }
                        op => op,
                    })
                    .collect()
            })
            .collect();
        let main = Scheduler::new()
            .prologue(|b| {
                for s in [0, 1, 4, 7, 10] {
                    b.write(slot(s), AccessSize::U32);
                }
            })
            .epilogue(|b| {
                b.write(slot(2), AccessSize::U32);
                b.read(slot(7), AccessSize::U32);
            });
        let trace = build_under(main, &programs, 2, seed);
        prop_assert!(validate(&trace).is_ok());
        let summary = analyze(&trace);
        let expected = classes_by_definition(&trace);
        for byte in slot(0) - 1..=slot(18) + 4 {
            prop_assert_eq!(
                summary.class_at(Addr(byte)),
                expected.get(&byte),
                "class of byte {:#x}",
                byte
            );
        }
        // Every access counts once, toward the weakest class among its
        // bytes; every byte counts toward its own.
        let slot_of = |c: &LocationClass| match c {
            LocationClass::Contended => 0,
            LocationClass::ConsistentlyLocked { .. } => 1,
            LocationClass::ReadOnlyAfterInit => 2,
            LocationClass::ThreadLocal => 3,
        };
        let mut accesses = [0u64; 4];
        for (addr, size, _) in trace.iter().filter_map(Event::access) {
            let weakest = (addr.0..addr.0 + size.bytes()).map(|b| slot_of(&expected[&b])).min();
            accesses[weakest.expect("accesses are not empty")] += 1;
        }
        let mut bytes = [0u64; 4];
        for class in expected.values() {
            bytes[slot_of(class)] += 1;
        }
        let st = &summary.stats;
        let got = [&st.contended, &st.locked, &st.read_only, &st.thread_local];
        prop_assert_eq!(got.map(|c| c.accesses), accesses);
        prop_assert_eq!(got.map(|c| c.bytes), bytes);
        prop_assert_eq!(st.total_accesses(), summary.trace_accesses);
        prop_assert_eq!(summary.trace_accesses, accesses.iter().sum::<u64>());
    }

    /// Detector determinism: running the same trace twice gives the same
    /// report.
    #[test]
    fn detectors_are_deterministic(programs in arb_program(), seed in 0u64..1000) {
        let trace = build(&programs, 8, seed);
        let a = DynamicGranularity::new().run(&trace);
        let b = DynamicGranularity::new().run(&trace);
        prop_assert_eq!(a.races, b.races);
        prop_assert_eq!(a.stats, b.stats);
    }
}
