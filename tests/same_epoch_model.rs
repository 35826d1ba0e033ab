//! The same-epoch filter against a reference model.
//!
//! The model is the filter DJIT+ describes (§II.B): a per-thread set of
//! `(location, plane)` pairs the thread has accessed in its current
//! epoch, cleared whenever the thread's own clock ticks. A write also
//! answers a later read of the same location in the same epoch, and a
//! `Free` forgets the freed range in every thread: the location's shadow
//! is gone, so its next access is a first one again.
//!
//! Each detector answers "already seen in this epoch?" from the shadow
//! entry of the location. The properties below say how that answer
//! relates to the model's, detector by detector:
//!
//! * DJIT+ and `hybrid-inspector` keep every thread's last read and last
//!   write per location, so their `same_epoch` equals the model's hit
//!   count on every trace;
//! * byte FastTrack and the dynamic detector without sharing compress the
//!   history. On a race-free trace nothing another thread does can erase
//!   this epoch's access (that would be a race), so they equal the model
//!   there; on a racy trace they may check a repeat again (`≤`);
//! * the dynamic detector with sharing also answers an access that a
//!   neighbour in its group already brought to this epoch (`≥` on
//!   race-free traces).

use std::collections::{HashMap, HashSet};

use dgrace::baselines::HybridDetector;
use dgrace::core::{DynamicConfig, DynamicGranularity};
use dgrace::detectors::{Detector, DetectorExt, Djit, FastTrack, OracleDetector};
use dgrace::trace::{AccessSize, Addr, Event, Trace, TraceBuilder};
use dgrace::vc::Tid;
use dgrace::workloads::{BlockBuilder, Scheduler, Workload, WorkloadKind};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The model's hit count on `trace`: accesses that repeat a
/// `(location, plane)` pair of their thread's current epoch, where a
/// location is an access's base address.
fn model_hits(trace: &Trace) -> u64 {
    let mut seen: HashMap<Tid, HashSet<(u64, bool)>> = HashMap::new();
    let mut hits = 0;
    for ev in trace.iter() {
        match *ev {
            Event::Read { tid, addr, .. } => {
                let set = seen.entry(tid).or_default();
                let hit = set.contains(&(addr.0, true)) || !set.insert((addr.0, false));
                hits += u64::from(hit);
            }
            Event::Write { tid, addr, .. } => {
                let hit = !seen.entry(tid).or_default().insert((addr.0, true));
                hits += u64::from(hit);
            }
            Event::Free { addr, size, .. } => {
                for set in seen.values_mut() {
                    set.retain(|&(a, _)| a < addr.0 || a - addr.0 >= size);
                }
            }
            // Every event that ticks a thread's own clock ends its epoch.
            Event::Release { tid, .. }
            | Event::ReleaseRead { tid, .. }
            | Event::CvSignal { tid, .. }
            | Event::BarrierArrive { tid, .. }
            | Event::Fork { parent: tid, .. }
            | Event::Join { child: tid, .. } => {
                seen.remove(&tid);
            }
            _ => {}
        }
    }
    hits
}

fn same_epoch(mut det: impl Detector, trace: &Trace) -> u64 {
    det.run(trace).stats.same_epoch
}

fn no_sharing() -> DynamicGranularity {
    DynamicGranularity::with_config(DynamicConfig {
        enable_sharing: false,
        ..DynamicConfig::default()
    })
}

/// Checks every relation of the module docs on one trace; `race_free`
/// says whether the oracle found no race in it. Panics on a violation,
/// naming the trace `what`.
fn check(what: &str, trace: &Trace, race_free: bool) {
    let model = model_hits(trace);
    assert_eq!(same_epoch(Djit::new(), trace), model, "{what}: djit");
    assert_eq!(
        same_epoch(HybridDetector::new(), trace),
        model,
        "{what}: hybrid"
    );
    let byte = same_epoch(FastTrack::new(), trace);
    let bare = same_epoch(no_sharing(), trace);
    if race_free {
        assert_eq!(byte, model, "{what}: byte");
        assert_eq!(bare, model, "{what}: dynamic without sharing");
        let shared = same_epoch(DynamicGranularity::new(), trace);
        assert!(shared >= model, "{what}: dynamic {shared} < {model}");
    } else {
        assert!(byte <= model, "{what}: byte {byte} > {model}");
        assert!(
            bare <= model,
            "{what}: dynamic without sharing {bare} > {model}"
        );
    }
}

fn is_race_free(trace: &Trace) -> bool {
    OracleDetector::new().run(trace).races.is_empty()
}

/// One operation of a random per-thread program.
#[derive(Clone, Debug)]
enum Op {
    /// `(slot, size class, is_write)`.
    Access(u8, u8, bool),
    /// Accesses under one of three locks.
    Locked(u8, Vec<(u8, u8, bool)>),
    /// Frees a slot's word, allocates it again and accesses it.
    FreeReuse(u8, bool),
}

fn arb_access() -> impl Strategy<Value = (u8, u8, bool)> {
    (0u8..10, 0u8..3, any::<bool>())
}

fn arb_op() -> impl Strategy<Value = Op> {
    let access = || arb_access().prop_map(|(s, z, w)| Op::Access(s, z, w));
    let locked = || {
        (0u8..3, proptest::collection::vec(arb_access(), 1..5))
            .prop_map(|(l, accs)| Op::Locked(l, accs))
    };
    prop_oneof![
        access(),
        access(),
        access(),
        locked(),
        locked(),
        (0u8..10, any::<bool>()).prop_map(|(s, w)| Op::FreeReuse(s, w)),
    ]
}

fn arb_program() -> impl Strategy<Value = Vec<Vec<Op>>> {
    proptest::collection::vec(proptest::collection::vec(arb_op(), 1..20), 1..4)
}

/// Builds a trace from per-thread programs over ten 4-byte-spaced slots,
/// so that the dynamic detector finds sharing neighbours. With `locked`,
/// every access and free-and-reuse happens under lock 0, and the trace is
/// race-free by construction. The main thread writes every slot before
/// it forks: its first event is an access.
fn build(programs: &[Vec<Op>], locked: bool, seed: u64) -> Trace {
    let addr = |slot: u8| 0x8000 + slot as u64 * 4;
    let size = |z: u8| [AccessSize::U8, AccessSize::U16, AccessSize::U32][z as usize];
    let access = |b: &mut BlockBuilder, (s, z, w): (u8, u8, bool)| {
        if w {
            b.write(addr(s), size(z));
        } else {
            b.read(addr(s), size(z));
        }
    };
    let mut builders = Vec::new();
    for (i, prog) in programs.iter().enumerate() {
        let mut b = BlockBuilder::new(i as u32 + 1);
        for op in prog {
            let body = |b: &mut BlockBuilder| match op {
                Op::Access(s, z, w) => access(b, (*s, *z, *w)),
                Op::Locked(_, accs) => accs.iter().for_each(|&a| access(b, a)),
                Op::FreeReuse(s, w) => {
                    b.free(addr(*s), 4).alloc(addr(*s), 4);
                    access(b, (*s, 2, *w));
                }
            };
            match op {
                _ if locked => {
                    b.locked(0, body);
                }
                Op::Locked(l, _) => {
                    b.locked(1 + *l as u32, body);
                }
                _ => body(&mut b),
            }
            b.cut();
        }
        builders.push(b);
    }
    let main = Scheduler::new().prologue(|b| {
        for s in 0..10 {
            b.write(addr(s), AccessSize::U32);
        }
    });
    main.run(builders, &mut SmallRng::seed_from_u64(seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn entry_filter_matches_the_model(programs in arb_program(), seed in any::<u64>()) {
        let trace = build(&programs, false, seed);
        check("random", &trace, is_race_free(&trace));
    }

    #[test]
    fn entry_filter_matches_the_model_without_races(
        programs in arb_program(),
        seed in any::<u64>(),
    ) {
        let trace = build(&programs, true, seed);
        prop_assert!(is_race_free(&trace));
        check("locked", &trace, true);
    }
}

/// The paper's workload generators at small scale, with every access to a
/// planted racy location taken out: the same shapes, race-free.
#[test]
fn entry_filter_matches_the_model_on_race_free_workloads() {
    for kind in WorkloadKind::ALL {
        let (trace, truth) = Workload::new(kind).with_scale(0.02).generate();
        let racy: HashSet<Addr> = truth.racy_addrs.iter().copied().collect();
        let events = trace
            .iter()
            .filter(|ev| !ev.access().is_some_and(|(a, _, _)| racy.contains(&a)))
            .copied()
            .collect();
        let trace = Trace::from_events(events);
        assert!(is_race_free(&trace), "{}", kind.name());
        check(kind.name(), &trace, true);
    }
}

/// A thread whose first event is an access, with no fork before it, runs
/// through every happens-before detector: the filter no longer
/// materializes the thread, so the access must.
#[test]
fn a_thread_may_start_with_an_access() {
    let mut b = TraceBuilder::new();
    b.read(3u32, 0x40u64, AccessSize::U32)
        .write(5u32, 0x40u64, AccessSize::U32)
        .read(5u32, 0x40u64, AccessSize::U32);
    let trace = b.build();
    let dets: [Box<dyn Detector>; 4] = [
        Box::new(FastTrack::new()),
        Box::new(Djit::new()),
        Box::new(DynamicGranularity::new()),
        Box::new(HybridDetector::new()),
    ];
    for mut det in dets {
        let rep = det.run(&trace);
        assert_eq!(rep.races.len(), 1, "{}", rep.detector);
        assert_eq!(rep.stats.same_epoch, 1, "{}", rep.detector);
    }
}
