//! Random-operation property tests for the sharing plane and the full
//! detector, checked against `check_invariants` after every step.

use dgrace_core::{CellRef, DynamicConfig, DynamicGranularity, Index, Plane, VcState};
use dgrace_detectors::{AccessKind, Detector, DetectorExt};
use dgrace_trace::{AccessSize, Addr, Event, LockId, SnapshotReader, SnapshotWriter, Tid};
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
    /// A write by a thread whose id no index slot can hold.
    TouchWide(u8, u8),
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
        (0u8..40, 0u8..6).prop_map(|(a, c)| PlaneOp::TouchWide(a, c)),
        (0u8..40, 0u8..6).prop_map(|(a, c)| PlaneOp::ReadBy(a, c)),
    ]
}

fn addr(slot: u8) -> Addr {
    Addr(0x100 + slot as u64 * 4)
}

/// The moves of a logical clock between its cell and the arena
/// (`plane.rs`, "Where a clock lives"), as bits of a coverage mask...
const PROMOTED_BY_SPLIT: u32 = 1;
const COPIED_ON_WRITE: u32 = 1 << 1;
const DEMOTED_AFTER_LAST_SHARER_LEFT: u32 = 1 << 2;
const INFLATED: u32 = 1 << 3;
const DEFLATED: u32 = 1 << 4;
/// ...and of a cell between its location's slot and the slab ("Where a
/// cell lives"): out of the slot,
const OUT_BY_JOIN: u32 = 1 << 5;
const OUT_BY_INFLATION: u32 = 1 << 6;
const OUT_BY_WIDE_TID: u32 = 1 << 7;
/// kept out of it, though alone, by the arena reference `split` hands it,
const HELD_OUT_BY_SPLIT_REFERENCE: u32 = 1 << 8;
/// into the slot,
const IN_BY_COPY_ON_WRITE: u32 = 1 << 9;
const IN_BY_DEFLATION: u32 = 1 << 10;
const IN_BY_REMOVE_DOWN_TO_ONE: u32 = 1 << 11;
const IN_BY_PARTIAL_FREE_DOWN_TO_ONE: u32 = 1 << 12;
/// and freed where it lived.
const FREED_IN_SLOT: u32 = 1 << 13;
const FREED_IN_SLAB: u32 = 1 << 14;
const EVERY_MOVE: u32 = (1 << 15) - 1;

/// Writes cell `at`'s clock through `f`, checks `update_clock`'s
/// postcondition, and names the moves the write caused.
fn write_clock(
    ix: &mut Index,
    p: &mut Plane,
    at: CellRef,
    f: impl FnOnce(&mut AccessClock),
) -> u32 {
    let was_inline = p.clock_is_inline(at);
    let was_epoch = matches!(p.clock_view(at), ClockView::Epoch(_));
    let was_shared = p.clock_refs(at) > 1;
    let was_in_slot = at.in_slot();
    let at = p.update_clock(ix, at, f);
    let is_epoch = matches!(p.clock_view(at), ClockView::Epoch(_));
    assert_eq!(p.clock_refs(at), 1, "a written clock is exclusively held");
    assert_eq!(
        p.clock_is_inline(at),
        is_epoch,
        "after a write, no arena entry is both rc 1 and epoch-form"
    );
    let clock_move = match (was_shared, was_inline, was_epoch, is_epoch) {
        (true, ..) => COPIED_ON_WRITE,
        (false, true, _, false) => INFLATED,
        (false, false, true, true) => DEMOTED_AFTER_LAST_SHARER_LEFT,
        (false, false, false, true) => DEFLATED,
        _ => 0,
    };
    let cell_move = match (was_in_slot, at.in_slot()) {
        (true, false) if !is_epoch => OUT_BY_INFLATION,
        (true, false) => OUT_BY_WIDE_TID,
        (false, true) if was_shared => IN_BY_COPY_ON_WRITE,
        (false, true) if !was_epoch => IN_BY_DEFLATION,
        _ => 0,
    };
    clock_move | cell_move
}

/// Frees `n` slots from `first` on — one location through `remove`, or
/// the span through `remove_range` — and names where each freed cell
/// lived and whether a group's last survivor moved into its slot.
fn free(ix: &mut Index, p: &mut Plane, first: u8, n: u8, by_range: bool) -> u32 {
    let doomed: Vec<Addr> = (first..first + n).map(addr).collect();
    let mut moves = 0;
    let mut last_survivors = Vec::new();
    for at in doomed.iter().filter_map(|&d| p.lookup(ix, d)) {
        if at.in_slot() {
            moves |= FREED_IN_SLOT;
        } else if p.cell(at).count == 1 {
            moves |= FREED_IN_SLAB;
        } else {
            let mut left = p.group_members(ix, at.addr());
            left.retain(|m| !doomed.contains(m));
            if let [survivor] = left[..] {
                last_survivors.push(survivor);
            }
        }
    }
    let moved_in = if by_range {
        ix.remove_range([&mut *p], doomed[0], n as u64 * 4);
        IN_BY_PARTIAL_FREE_DOWN_TO_ONE
    } else {
        p.remove(ix, doomed[0]);
        IN_BY_REMOVE_DOWN_TO_ONE
    };
    // Whether a survivor belongs in its slot is `check_invariants`' call.
    if last_survivors
        .iter()
        .any(|&s| p.lookup(ix, s).expect("a survivor").in_slot())
    {
        moves |= moved_in;
    }
    moves
}

fn encoded(ix: &Index, p: &Plane) -> Vec<u8> {
    let mut w = SnapshotWriter::new(*b"TEST", 1);
    p.encode(ix, &mut w);
    w.finish()
}

/// Applies one operation, checks the plane's invariants, the operation's
/// own postconditions and that the plane survives a save and restore, and
/// returns the clock and cell moves the operation caused.
fn apply(ix: &mut Index, p: &mut Plane, op: &PlaneOp) -> u32 {
    let mut moves = 0;
    match *op {
        PlaneOp::InsertPrivate(a, c) => {
            if p.lookup(ix, addr(a)).is_none() {
                let at = p.insert_private(
                    ix,
                    addr(a),
                    AccessClock::Epoch(Epoch::new(c as u32 + 1, Tid(0))),
                    VcState::FirstEpochPrivate,
                );
                assert!(at.in_slot());
            }
        }
        PlaneOp::ShareWithPred(a) => {
            if p.lookup(ix, addr(a)).is_none() {
                if let Some(n) = p.nearest_predecessor(ix, addr(a), 64) {
                    let at = p.insert_shared(ix, addr(a), n);
                    assert!(!at.in_slot() && at.same_cell(p.lookup(ix, n.addr()).unwrap()));
                    if n.in_slot() {
                        moves |= OUT_BY_JOIN;
                    }
                }
            }
        }
        PlaneOp::Split(a) => {
            if let Some(at) = p.lookup(ix, addr(a)) {
                let was_inline = p.clock_is_inline(at);
                let other = p
                    .group_members(ix, addr(a))
                    .into_iter()
                    .find(|&m| m != addr(a));
                let (new, split) = p.split(ix, at);
                assert_eq!(split, other.is_some());
                if let Some(other) = other {
                    let rest = p.lookup(ix, other).unwrap();
                    assert!(!p.clock_is_inline(rest) && !p.clock_is_inline(new));
                    assert_eq!(p.clock_view(rest), p.clock_view(new));
                    assert!(!new.in_slot() && p.cell(new).count == 1);
                    moves |= HELD_OUT_BY_SPLIT_REFERENCE;
                    if was_inline {
                        moves |= PROMOTED_BY_SPLIT;
                    }
                }
            }
        }
        PlaneOp::Remove(a) => moves |= free(ix, p, a, 1, false),
        PlaneOp::RemoveRange(a, l) => moves |= free(ix, p, a, l, true),
        PlaneOp::Touch(a, c) => {
            if let Some(at) = p.lookup(ix, addr(a)) {
                moves |= write_clock(ix, p, at, |clk| clk.set_write(Tid(1), c as u32 + 1));
            }
        }
        PlaneOp::TouchWide(a, c) => {
            if let Some(at) = p.lookup(ix, addr(a)) {
                moves |= write_clock(ix, p, at, |clk| clk.set_write(Tid(1 << 27), c as u32 + 1));
            }
        }
        PlaneOp::ReadBy(a, c) => {
            if let Some(at) = p.lookup(ix, addr(a)) {
                let mut now = VectorClock::new();
                now.set(Tid(2), c as u32 + 1);
                moves |= write_clock(ix, p, at, |clk| {
                    clk.record_read(Tid(2), &now);
                });
            }
        }
    }
    check(ix, p);
    moves
}

/// Checks the plane's invariants and that it survives a save and restore
/// whose encoding is canonical; returns the restored plane.
fn check(ix: &Index, p: &Plane) -> (Index, Plane) {
    p.check_invariants(ix);
    let bytes = encoded(ix, p);
    let mut r = SnapshotReader::new(&bytes, *b"TEST", 1, Default::default()).unwrap();
    let mut restored_ix = Index::new();
    let restored = Plane::decode(&mut r, &mut restored_ix, AccessKind::Read)
        .expect("a plane restores from its own bytes");
    restored.check_invariants(&restored_ix);
    assert_eq!(
        encoded(&restored_ix, &restored),
        bytes,
        "the encoding is canonical"
    );
    (restored_ix, restored)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every reachable sequence of plane operations preserves the
    /// structural invariants (counts, member lists, indices, byte and
    /// logical-clock accounting, where each cell lives).
    #[test]
    fn plane_invariants_under_random_ops(ops in proptest::collection::vec(arb_plane_op(), 1..80)) {
        let (mut ix, mut p) = (Index::new(), Plane::new(AccessKind::Read));
        for op in &ops {
            apply(&mut ix, &mut p, op);
        }
    }
}

/// One long fixed-seed sequence over twelve slots, dense enough that
/// groups outlive the removals and get split, written and partly freed:
/// it moves a clock between cell and arena, and a cell between slot and
/// slab, in every way there is. The short sequences above stay
/// shrinkable; this one pins the coverage.
#[test]
fn long_sequence_crosses_every_clock_and_cell_move() {
    // splitmix64
    let mut state = 0x6467_7261_6365u64;
    let mut next = move |n: u64| {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n) as u8
    };
    let (mut ix, mut p) = (Index::new(), Plane::new(AccessKind::Read));
    let mut moves = 0;
    for _ in 0..4000 {
        let (a, c) = (next(12), next(6));
        // The group-forming and clock-writing ops are twice as likely.
        let op = match next(12) {
            0 => PlaneOp::InsertPrivate(a, c),
            1 | 2 => PlaneOp::ShareWithPred(a),
            3 | 4 => PlaneOp::Split(a),
            5 => PlaneOp::Remove(a),
            6 => PlaneOp::RemoveRange(a, 1 + next(2)),
            7 | 8 => PlaneOp::Touch(a, c),
            9 => PlaneOp::TouchWide(a, c),
            _ => PlaneOp::ReadBy(a, c),
        };
        moves |= apply(&mut ix, &mut p, &op);
    }
    let missing: Vec<u32> = (0..15).filter(|bit| moves & (1 << bit) == 0).collect();
    assert!(
        moves == EVERY_MOVE,
        "moves left unexercised (bit numbers): {missing:?}"
    );
}

/// The forms a group's member sequence takes (`plane.rs`, "Group
/// members"), as bits of a coverage mask: a run that extends, upward and
/// downward,
const RUN_EXTENDED_UP: u32 = 1;
const RUN_EXTENDED_DOWN: u32 = 1 << 1;
/// a run that stays one when its last member leaves or a free cuts it at
/// either end,
const RUN_KEPT_BY_LAST_DETACH: u32 = 1 << 2;
const RUN_KEPT_BY_PREFIX_CUT: u32 = 1 << 3;
const RUN_KEPT_BY_SUFFIX_CUT: u32 = 1 << 4;
/// a run that becomes a list,
const LIST_BY_OFF_STRIDE_JOIN: u32 = 1 << 5;
const LIST_BY_DETACH: u32 = 1 << 6;
const LIST_BY_MIDDLE_CUT: u32 = 1 << 7;
/// and an arithmetic list that a restore turns back into a run.
const RUN_BY_DECODE: u32 = 1 << 8;
const EVERY_RUN_MOVE: u32 = (1 << 9) - 1;

/// A group as a list of members would hold it — joins append, a detach is
/// a `swap_remove`, a free keeps the survivors in order — and whether the
/// plane must hold it as a run.
#[derive(Debug)]
struct Group {
    seq: Vec<Addr>,
    run: bool,
}

/// The step from `seq`'s first member to its second, if every member is
/// one such step from the one before without wrapping, and the step is
/// not zero.
fn run_stride(seq: &[Addr]) -> Option<i64> {
    let [a, b, ..] = *seq else { return None };
    let stride = b.0.wrapping_sub(a.0) as i64;
    let step = |w: &[Addr]| w[0].0.checked_add_signed(stride) == Some(w[1].0);
    (stride != 0 && seq.windows(2).all(step)).then_some(stride)
}

/// The plane's groups, modelled: every group, and the group of each
/// member.
#[derive(Default)]
struct Groups(Vec<Group>);

impl Groups {
    fn of(&self, a: Addr) -> Option<usize> {
        self.0.iter().position(|g| g.seq.contains(&a))
    }

    /// `addr` joins the group of `n`: the moves it makes.
    fn join(&mut self, addr: Addr, n: Addr) -> u32 {
        let Some(g) = self.of(n) else {
            let seq = vec![n, addr];
            let run = run_stride(&seq).is_some();
            self.0.push(Group { seq, run });
            return 0;
        };
        let g = &mut self.0[g];
        let last = *g.seq.last().expect("a group has members");
        g.seq.push(addr);
        if !g.run {
            return 0;
        }
        let stride = run_stride(&g.seq[..2]).expect("a run is arithmetic");
        match (
            last.0.checked_add_signed(stride) == Some(addr.0),
            stride > 0,
        ) {
            (true, true) => RUN_EXTENDED_UP,
            (true, false) => RUN_EXTENDED_DOWN,
            (false, _) => {
                g.run = false;
                LIST_BY_OFF_STRIDE_JOIN
            }
        }
    }

    /// `addr` leaves its group, if it has one: the moves it makes.
    fn detach(&mut self, addr: Addr) -> u32 {
        let Some(gi) = self.of(addr) else { return 0 };
        let g = &mut self.0[gi];
        let i = g.seq.iter().position(|&m| m == addr).expect("a member");
        let last = i == g.seq.len() - 1;
        g.seq.swap_remove(i);
        if g.seq.len() == 1 {
            self.0.swap_remove(gi);
            0
        } else if !g.run {
            0
        } else if last {
            RUN_KEPT_BY_LAST_DETACH
        } else {
            g.run = false;
            LIST_BY_DETACH
        }
    }

    /// The members in `gone` leave: the moves that makes.
    fn cut(&mut self, gone: impl Fn(Addr) -> bool) -> u32 {
        let mut moves = 0;
        for g in &mut self.0 {
            let (first, last) = (g.seq[0], *g.seq.last().unwrap());
            let had = g.seq.len();
            g.seq.retain(|&m| !gone(m));
            if !g.run || g.seq.len() == had || g.seq.len() < 2 {
                continue;
            }
            moves |= match (gone(first), gone(last)) {
                (true, _) => RUN_KEPT_BY_PREFIX_CUT,
                (_, true) => RUN_KEPT_BY_SUFFIX_CUT,
                _ => {
                    g.run = false;
                    LIST_BY_MIDDLE_CUT
                }
            };
        }
        self.0.retain(|g| g.seq.len() > 1);
        moves
    }

    /// A save and restore: every arithmetic list becomes a run.
    fn restore(&mut self) -> u32 {
        let mut moves = 0;
        for g in self.0.iter_mut().filter(|g| !g.run) {
            if run_stride(&g.seq).is_some() {
                g.run = true;
                moves |= RUN_BY_DECODE;
            }
        }
        moves
    }

    /// The plane holds each group with the members and the form modelled.
    fn check(&self, ix: &Index, p: &Plane) {
        for g in &self.0 {
            let at = p.lookup(ix, g.seq[0]).expect("a member exists");
            let mut sorted = g.seq.clone();
            sorted.sort_unstable();
            assert_eq!(p.group_members(ix, g.seq[0]), sorted);
            assert_eq!(p.is_run(at), g.run, "the form of {:?}", g.seq);
        }
    }
}

/// One long fixed-seed sequence that grows groups upward and downward
/// over sixteen slots and detaches, frees, joins off the stride and saves
/// and restores them, checked against the [`Groups`] model after every
/// step: it moves a group between run and list in every way there is.
#[test]
fn runs_grow_both_ways_and_cross_every_form_change() {
    // splitmix64
    let mut state = 0x7275_6e73u64;
    let mut next = move |n: u64| {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n) as u8
    };
    let (mut ix, mut p) = (Index::new(), Plane::new(AccessKind::Read));
    let mut model = Groups::default();
    let mut moves = 0;
    for _ in 0..4000 {
        let a = next(16);
        let exists =
            |ix: &Index, p: &Plane, slot: u8| slot < 16 && p.lookup(ix, addr(slot)).is_some();
        match next(16) {
            // Grow: join the neighbour below or above, else start afresh.
            0..=7 => {
                if exists(&ix, &p, a) {
                    continue;
                }
                let below = a.checked_sub(1).filter(|&b| exists(&ix, &p, b));
                let above = Some(a + 1).filter(|&b| exists(&ix, &p, b));
                let up = next(2) == 0;
                match if up { below.or(above) } else { above.or(below) } {
                    Some(n) => {
                        let n = p.lookup(&ix, addr(n)).unwrap();
                        moves |= model.join(addr(a), n.addr());
                        p.insert_shared(&mut ix, addr(a), n);
                    }
                    None => {
                        let clock = AccessClock::Epoch(Epoch::new(1, Tid(0)));
                        p.insert_private(&mut ix, addr(a), clock, VcState::FirstEpochShared);
                    }
                }
            }
            // Join a member anywhere.
            8 => {
                let n = next(16);
                if !exists(&ix, &p, a) && exists(&ix, &p, n) {
                    let n = p.lookup(&ix, addr(n)).unwrap();
                    moves |= model.join(addr(a), n.addr());
                    p.insert_shared(&mut ix, addr(a), n);
                }
            }
            9 => {
                if let Some(at) = p.lookup(&ix, addr(a)) {
                    moves |= model.detach(addr(a));
                    p.split(&mut ix, at);
                }
            }
            10 => {
                moves |= model.detach(addr(a));
                p.remove(&mut ix, addr(a));
            }
            11..=14 => {
                let n = 1 + next(4);
                let (lo, hi) = (addr(a), addr(a + n));
                moves |= model.cut(|m| m.0 >= lo.0 && m.0 < hi.0);
                ix.remove_range([&mut p], lo, hi.0 - lo.0);
            }
            // Continue on the plane a save and restore gives.
            _ => {
                (ix, p) = check(&ix, &p);
                moves |= model.restore();
            }
        }
        check(&ix, &p);
        model.check(&ix, &p);
    }
    let missing: Vec<u32> = (0..9).filter(|bit| moves & (1 << bit) == 0).collect();
    assert!(
        moves == EVERY_RUN_MOVE,
        "form changes left unexercised (bit numbers): {missing:?}"
    );
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
    /// event and across a snapshot and restore, for arbitrary (even racy)
    /// access patterns, in the paper configuration and with the Init
    /// state ablated.
    #[test]
    fn detector_invariants_under_random_traces(
        ops in proptest::collection::vec(arb_trace_op(), 1..150)
    ) {
        // Lock events are legalized on the fly (only unlock what's held).
        for cfg in [DynamicConfig::paper_default(), DynamicConfig::no_init_state()] {
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
            // A snapshot restores to a detector whose planes hold the
            // invariants (each cell where its value says it lives) and
            // which saves the same bytes again.
            let snap = det.snapshot().expect("dynamic snapshots");
            let mut restored = DynamicGranularity::with_config(cfg);
            restored.restore(&snap).expect("its own snapshot restores");
            restored.check_invariants();
            prop_assert_eq!(restored.snapshot().expect("dynamic snapshots"), snap);
            let rep = det.finish();
            prop_assert!(rep.stats.vc_frees <= rep.stats.vc_allocs);
        }
    }
}
