//! Random-operation property tests for the sharing plane and the full
//! detector, checked against `check_invariants` after every step.

use dgrace_core::{DynamicConfig, DynamicGranularity, Plane, VcState};
use dgrace_detectors::Detector;
use dgrace_trace::{AccessSize, Addr, Event, LockId, Tid};
use dgrace_vc::{AccessClock, ClockView, Epoch, VectorClock};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum PlaneOp {
    InsertPrivate(u8, u8),
    ShareWithPred(u8),
    Split(u8),
    Remove(u8),
    RemoveRange(u8, u8),
    /// A write: leaves the clock in epoch form.
    Touch(u8, u8),
    /// A read concurrent with everything before it: leaves a vector.
    ReadBy(u8, u8),
}

fn arb_plane_op() -> impl Strategy<Value = PlaneOp> {
    prop_oneof![
        (0u8..40, 0u8..6).prop_map(|(a, c)| PlaneOp::InsertPrivate(a, c)),
        (0u8..40).prop_map(PlaneOp::ShareWithPred),
        (0u8..40).prop_map(PlaneOp::Split),
        (0u8..40).prop_map(PlaneOp::Remove),
        (0u8..40, 1u8..16).prop_map(|(a, l)| PlaneOp::RemoveRange(a, l)),
        (0u8..40, 0u8..6).prop_map(|(a, c)| PlaneOp::Touch(a, c)),
        (0u8..40, 0u8..6).prop_map(|(a, c)| PlaneOp::ReadBy(a, c)),
    ]
}

fn addr(slot: u8) -> Addr {
    Addr(0x100 + slot as u64 * 4)
}

/// The moves of a logical clock between its cell and the arena
/// (`plane.rs`, "Where a clock lives"), as bits of a coverage mask.
const PROMOTED_BY_SPLIT: u8 = 1;
const COPIED_ON_WRITE: u8 = 2;
const DEMOTED_AFTER_LAST_SHARER_LEFT: u8 = 4;
const INFLATED: u8 = 8;
const DEFLATED: u8 = 16;
const EVERY_MOVE: u8 = 31;

/// Writes cell `id`'s clock through `f`, checks `update_clock`'s
/// postcondition, and names the move the write caused.
fn write_clock(p: &mut Plane, id: dgrace_shadow::SlabId, f: impl FnOnce(&mut AccessClock)) -> u8 {
    let was_inline = p.clock_is_inline(id);
    let was_epoch = matches!(p.clock_view(id), ClockView::Epoch(_));
    let was_shared = p.clock_refs(id) > 1;
    p.update_clock(id, f);
    let is_epoch = matches!(p.clock_view(id), ClockView::Epoch(_));
    assert_eq!(p.clock_refs(id), 1, "a written clock is exclusively held");
    assert_eq!(
        p.clock_is_inline(id),
        is_epoch,
        "after a write, no arena entry is both rc 1 and epoch-form"
    );
    match (was_shared, was_inline, was_epoch, is_epoch) {
        (true, ..) => COPIED_ON_WRITE,
        (false, true, _, false) => INFLATED,
        (false, false, true, true) => DEMOTED_AFTER_LAST_SHARER_LEFT,
        (false, false, false, true) => DEFLATED,
        _ => 0,
    }
}

/// Applies one operation, checks the plane's invariants and the
/// operation's own postconditions, and returns the clock moves it caused.
fn apply(p: &mut Plane, op: &PlaneOp) -> u8 {
    let mut moves = 0;
    match *op {
        PlaneOp::InsertPrivate(a, c) => {
            if p.lookup(addr(a)).is_none() {
                p.insert_private(
                    addr(a),
                    AccessClock::Epoch(Epoch::new(c as u32 + 1, Tid(0))),
                    VcState::FirstEpochPrivate,
                );
            }
        }
        PlaneOp::ShareWithPred(a) => {
            if p.lookup(addr(a)).is_none() {
                if let Some((n, nid)) = p.nearest_predecessor(addr(a), 64) {
                    p.insert_shared(addr(a), n, nid);
                }
            }
        }
        PlaneOp::Split(a) => {
            if let Some(id) = p.lookup(addr(a)) {
                let was_inline = p.clock_is_inline(id);
                let (new_id, split) = p.split(addr(a));
                if split {
                    assert!(!p.clock_is_inline(id) && !p.clock_is_inline(new_id));
                    assert_eq!(p.clock_view(id), p.clock_view(new_id));
                    if was_inline {
                        moves |= PROMOTED_BY_SPLIT;
                    }
                }
            }
        }
        PlaneOp::Remove(a) => p.remove(addr(a)),
        PlaneOp::RemoveRange(a, l) => {
            p.remove_range(addr(a), l as u64 * 4);
        }
        PlaneOp::Touch(a, c) => {
            if let Some(id) = p.lookup(addr(a)) {
                moves |= write_clock(p, id, |clk| clk.set_write(Tid(1), c as u32 + 1));
            }
        }
        PlaneOp::ReadBy(a, c) => {
            if let Some(id) = p.lookup(addr(a)) {
                let mut now = VectorClock::new();
                now.set(Tid(2), c as u32 + 1);
                moves |= write_clock(p, id, |clk| {
                    clk.record_read(Tid(2), &now);
                });
            }
        }
    }
    p.check_invariants();
    moves
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every reachable sequence of plane operations preserves the
    /// structural invariants (counts, member lists, indices, byte and
    /// logical-clock accounting).
    #[test]
    fn plane_invariants_under_random_ops(ops in proptest::collection::vec(arb_plane_op(), 1..80)) {
        let mut p = Plane::new();
        for op in &ops {
            apply(&mut p, op);
        }
    }
}

/// One long fixed-seed sequence over twelve slots, dense enough that
/// groups outlive the removals and get split, written and partly freed:
/// it moves a clock between cell and arena in every way there is. The
/// short sequences above stay shrinkable; this one pins the coverage.
#[test]
fn long_sequence_crosses_every_clock_move() {
    // splitmix64
    let mut state = 0x6467_7261_6365u64;
    let mut next = move |n: u64| {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n) as u8
    };
    let mut p = Plane::new();
    let mut moves = 0u8;
    for _ in 0..4000 {
        let (a, c) = (next(12), next(6));
        // The group-forming and clock-writing ops are twice as likely.
        let op = match next(10) {
            0 => PlaneOp::InsertPrivate(a, c),
            1 | 2 => PlaneOp::ShareWithPred(a),
            3 | 4 => PlaneOp::Split(a),
            5 => PlaneOp::Remove(a),
            6 => PlaneOp::RemoveRange(a, 1 + next(2)),
            7 | 8 => PlaneOp::Touch(a, c),
            _ => PlaneOp::ReadBy(a, c),
        };
        moves |= apply(&mut p, &op);
    }
    assert_eq!(moves, EVERY_MOVE, "a clock move went unexercised");
}

#[derive(Clone, Debug)]
enum TraceOp {
    Read(u8, u8),
    Write(u8, u8),
    Lock(u8, u8),
    Unlock(u8, u8),
    Free(u8, u8),
}

fn arb_trace_op() -> impl Strategy<Value = TraceOp> {
    prop_oneof![
        (0u8..3, 0u8..32).prop_map(|(t, a)| TraceOp::Read(t, a)),
        (0u8..3, 0u8..32).prop_map(|(t, a)| TraceOp::Write(t, a)),
        (0u8..3, 0u8..3).prop_map(|(t, l)| TraceOp::Lock(t, l)),
        (0u8..3, 0u8..3).prop_map(|(t, l)| TraceOp::Unlock(t, l)),
        (0u8..3, 0u8..32).prop_map(|(t, a)| TraceOp::Free(t, a)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The whole detector preserves the plane invariants after every
    /// event, for arbitrary (even racy) access patterns, in both the
    /// paper configuration and the §VII-extended one.
    #[test]
    fn detector_invariants_under_random_traces(
        ops in proptest::collection::vec(arb_trace_op(), 1..150)
    ) {
        // Lock events are legalized on the fly (only unlock what's held).
        for cfg in [DynamicConfig::paper_default(), DynamicConfig::with_redecisions(2)] {
            let mut det = DynamicGranularity::with_config(cfg);
            let mut held: Vec<(u8, u8)> = Vec::new();
            det.on_event(&Event::Fork { parent: Tid(0), child: Tid(1) });
            det.on_event(&Event::Fork { parent: Tid(0), child: Tid(2) });
            for op in &ops {
                let ev = match *op {
                    TraceOp::Read(t, a) => Some(Event::Read {
                        tid: Tid(t as u32),
                        addr: addr(a),
                        size: AccessSize::U32,
                    }),
                    TraceOp::Write(t, a) => Some(Event::Write {
                        tid: Tid(t as u32),
                        addr: addr(a),
                        size: AccessSize::U32,
                    }),
                    TraceOp::Lock(t, l) => {
                        if held.iter().any(|&(_, hl)| hl == l) {
                            None
                        } else {
                            held.push((t, l));
                            Some(Event::Acquire {
                                tid: Tid(t as u32),
                                lock: LockId(l as u32),
                            })
                        }
                    }
                    TraceOp::Unlock(t, l) => {
                        if let Some(i) = held.iter().position(|&h| h == (t, l)) {
                            held.swap_remove(i);
                            Some(Event::Release {
                                tid: Tid(t as u32),
                                lock: LockId(l as u32),
                            })
                        } else {
                            None
                        }
                    }
                    TraceOp::Free(t, a) => Some(Event::Free {
                        tid: Tid(t as u32),
                        addr: addr(a),
                        size: 8,
                    }),
                };
                if let Some(ev) = ev {
                    det.on_event(&ev);
                    det.check_invariants();
                }
            }
            let rep = det.finish();
            prop_assert!(rep.stats.vc_frees <= rep.stats.vc_allocs);
        }
    }
}
