//! A shadow plane: the locations of one access type, whose cells may be
//! shared, and the one index both planes keep their slots in.
//!
//! The detector keeps two planes — one for read locations, one for write
//! locations — because "only the same access type (read or write) of
//! vector clocks can be shared" (§III.A). Their slots live in one
//! [`IndexOn`]: as in Fig. 4, a location's entry holds its read slot and
//! its write slot (lanes [`READ`] and [`WRITE`] of one shadow store), so
//! an access finds both with one directory probe. Each lane is still its
//! own logical index — its own locations, word/byte mode and modeled
//! bytes — so every count, report and snapshot byte is what two separate
//! stores gave.
//!
//! A *location* is a populated slot in the plane's lane; a *cell* is the
//! paper's `{vector clock, state, count}` triple, read by one location or
//! by every member of a sharing group. Each shared cell records its
//! member addresses (`members`), because a race dissolves the whole group
//! ("the sharing is terminated and each of these locations become Race
//! and is assigned with a private vector clock"). All group operations
//! are O(1) except dissolution and compaction after a partial free,
//! which are O(group size).
//!
//! # Where a cell lives
//!
//! The slot payload is one tagged non-zero 64-bit value ([`Slot`]; the
//! niche keeps the store's `Option` slot at 8 bytes). A cell lives in
//! exactly one of two places, decided from its value alone:
//!
//! * **In its location's slot** when nobody shares it (`count == 1`), its
//!   clock is an epoch no other cell holds, and every field fits the
//!   packing (a thread id of at most 27 bits — the trace decoder's
//!   `max_tid` is 2^20): the slot holds the epoch, the state and
//!   `tainted`, i.e. the whole cell.
//!   This is FastTrack's common case: the index probe an access already
//!   paid for has loaded everything it needs, neighbor probes read the
//!   adjacent slots of the same line, and nothing is allocated.
//! * **In the cell slab** otherwise; the slot then holds the [`SlabId`]
//!   and the location's index in the cell's member list. A slab cell of
//!   one location keeps `members` empty — the sole member is implicit.
//!
//! A cell moves to the slab when a neighbor joins it, when its read clock
//! inflates to a vector, when [`Plane::split`] hands it a reference to
//! a shared arena clock, or when a field outgrows the packing; it moves
//! (back) into the slot whenever a write of its clock or the departure of
//! its other members leaves one location holding an own epoch that fits.
//! The detector sees neither place: it holds a [`CellRef`] — the
//! location's address and its slot as of the lookup — reads through
//! [`Plane::cell`] and [`Plane::clock_view`], and every mutator
//! returns the handle's successor.
//!
//! # Where a clock lives
//!
//! A *logical clock* is one clock value, however many cells read it. It
//! lives in exactly one of two places:
//!
//! * **Inline in its cell** (`ClockSlot::Own`, or the epoch of a cell
//!   that lives in its slot) when it is in epoch form and exactly one
//!   cell holds it — FastTrack's common case. Reading it is the load the
//!   access already paid for; writing it stores eight bytes.
//! * **In the refcounted copy-on-write arena** (`ClockSlot::Arena`) when
//!   several cells hold it or it is a full vector clock. `rc` counts the
//!   cells holding the entry's id.
//!
//! Group *split* (and the lazy dissolve built on it) hands the split-off
//! cell a reference to the group's clock instead of a copy: an inline
//! clock is first *promoted* to an arena entry (`rc` 2 — the same logical
//! clock, moved), an arena clock gets a refcount bump. The two cells share
//! the immutable value until either next *writes* its clock, when
//! [`Plane::update_clock`] copies it (copy-on-write) into a fresh
//! logical clock. Members that are never touched again (the common fate
//! of a dissolved group's bystanders) never pay for a copy. The other
//! transitions also happen in `update_clock`: a read clock that inflates
//! to a vector moves into the arena, and an entry whose last other sharer
//! has gone, or whose vector deflated, moves back inline the next time
//! its cell writes it. Readers go through [`Plane::clock_view`], which
//! returns an epoch by value and never touches the arena for one.
//!
//! Moving a cell or a logical clock between its two places neither
//! creates nor destroys one, so every reported counter means what it
//! meant when all cells were slab entries and all clocks arena entries:
//! `vc_allocs`/`vc_frees` count logical clocks created and destroyed,
//! [`Plane::clock_count`] is the live logical clocks (arena entries +
//! inline clocks, always `vc_allocs - vc_frees`),
//! [`Plane::cell_count`] counts cells in slots and in the slab, and the
//! modeled bytes depend on cells and vector payloads only.
//!
//! Invariants (checked by [`Plane::check_invariants`]):
//! * a cell is in its slot if and only if it has one location, holds an
//!   own epoch and fits the packing; a slab cell's member list is empty
//!   if and only if it has one location;
//! * an arena entry's refcount equals the number of live cells holding
//!   its id, and is ≥ 1 for live entries;
//! * an entry with refcount > 1 is never mutated in place;
//! * after `update_clock` the written cell's clock is inline unless it is
//!   a vector (an entry left with one holder by a *free* stays in the
//!   arena until that holder's next write — entries have no back
//!   pointers);
//! * `clock_count()` = arena entries + inline clocks = `vc_allocs -
//!   vc_frees`, so a split or dissolve allocates nothing;
//! * modeled `vc_bytes` = 16 bytes per live cell (the paper's epoch-form
//!   cell), wherever it lives, + one out-of-line payload (`16 + 4·width`)
//!   per live logical clock in full-VC form — shared payloads are charged
//!   once.

use std::num::{NonZeroU32, NonZeroU64};

use dgrace_detectors::snap::{decode_access_clock, encode_access_clock};
use dgrace_detectors::{AccessKind, HbState};
use dgrace_shadow::accounting::vc_cell_bytes;
use dgrace_shadow::store::{ShadowStore, StoreSelect};
use dgrace_shadow::{ChunkId, FastMap, HashSelect, Slab, SlabId, Victims};
use dgrace_trace::{Addr, SnapshotReader, SnapshotWriter, TraceError};
use dgrace_vc::{AccessClock, ClockView, Epoch, Tid};

use crate::VcState;

/// Modeled bytes of a cell header (the epoch-form cell of the paper's
/// 32-bit layout); full-VC payloads are charged per arena entry.
const CELL_BYTES: usize = vc_cell_bytes(0);

/// Modeled out-of-line payload bytes of a clock value: zero for the
/// compressed epoch form, `16 + 4·width` for a full vector clock.
fn clock_payload_bytes(clock: &AccessClock) -> usize {
    match clock {
        AccessClock::Epoch(_) => 0,
        AccessClock::Vc(vc) => vc_cell_bytes(vc.width().max(1)) - vc_cell_bytes(0),
    }
}

/// A refcounted clock value in the plane's arena: one shared by several
/// cells (immutable while `rc > 1`) or one in full-vector form.
#[derive(Clone, Debug)]
struct ClockEntry {
    clock: AccessClock,
    /// Number of live cells holding this entry's id.
    rc: u32,
}

/// Where a cell's clock lives (see the module docs).
#[derive(Clone, Copy, Debug)]
enum ClockSlot {
    /// An epoch-form clock no other cell holds, stored in the cell.
    Own(Epoch),
    /// An entry of the plane's clock arena.
    Arena(SlabId),
}

/// A vector-clock cell in the slab: the paper's `{vector clock, state,
/// count}` triple plus the member list needed by `splitAndSetRace`.
#[derive(Clone, Debug)]
struct Cell {
    /// The access clock (epoch or full vector clock).
    clock: ClockSlot,
    state: VcState,
    count: u32,
    tainted: bool,
    /// Member addresses when shared; empty for a cell of one location.
    members: Vec<Addr>,
}

impl Cell {
    /// The slot form of this cell, if its value says it lives in a slot
    /// (module docs, "Where a cell lives").
    fn solo(&self) -> Option<Slot> {
        match self.clock {
            ClockSlot::Own(epoch) if self.count == 1 => Solo {
                epoch,
                state: self.state,
                tainted: self.tainted,
            }
            .pack(),
            _ => None,
        }
    }
}

/// The whole cell of a location nobody shares, as a slot holds it.
#[derive(Clone, Copy, Debug)]
struct Solo {
    epoch: Epoch,
    state: VcState,
    tainted: bool,
}

/// The payload of an index slot (module docs, "Where a cell lives"). Bit 0
/// tells the two forms apart:
///
/// ```text
/// cell       63..32 clock    | 31..5 tid | 4 tainted | 3..1 state | 1
/// reference  63..32 `SlabId` | 31..1 member index              | 0
/// ```
///
/// Never zero: the cell form has bit 0 set and a `SlabId` is non-zero.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Slot(NonZeroU64);

const _: () = assert!(std::mem::size_of::<Option<Slot>>() == 8);

// The fields of the cell form, from bit 1 up to the clock's bit 32.
const STATE_SHIFT: u32 = 1;
const TAINTED_SHIFT: u32 = 4;
const TID_SHIFT: u32 = 5;
const TID_BITS: u32 = 32 - TID_SHIFT;
/// Width of the reference form's member index.
const MEMBER_BITS: u32 = 31;

/// [`state_tag`] inverted: the state a wire tag or a cell form's three
/// state bits name. [`Solo::pack`] writes tags only, so a slot never reads
/// the last three entries; they make its decode a table load with no
/// failure path, which would otherwise be inlined into every reader of a
/// slot. [`state_from_tag`] bounds what it takes from outside.
const STATE_OF_BITS: [VcState; 8] = [
    VcState::FirstEpochPrivate,
    VcState::FirstEpochShared,
    VcState::Shared,
    VcState::Private,
    VcState::Race,
    VcState::Race,
    VcState::Race,
    VcState::Race,
];

/// Where a slot says its location's cell is.
enum Home {
    /// In the slot itself.
    Slot(Solo),
    /// In the slab, with the location at `idx` of its member list (0 for
    /// a cell of one location).
    Slab { cell: SlabId, idx: u32 },
}

impl Solo {
    /// The slot holding this cell, or `None` when a field does not fit.
    fn pack(self) -> Option<Slot> {
        let Solo {
            epoch,
            state,
            tainted,
        } = self;
        if epoch.tid.0 >> TID_BITS != 0 {
            return None;
        }
        let bits = (epoch.clock as u64) << 32
            | (epoch.tid.0 as u64) << TID_SHIFT
            | (tainted as u64) << TAINTED_SHIFT
            | (state_tag(state) as u64) << STATE_SHIFT;
        Some(Slot(NonZeroU64::MIN | bits))
    }
}

impl Slot {
    /// A reference to slab cell `cell`, member `idx`.
    #[inline(always)]
    fn reference(cell: SlabId, idx: u32) -> Slot {
        assert!(idx >> MEMBER_BITS == 0, "sharing group too large");
        let bits = (cell.to_bits().get() as u64) << 32 | (idx as u64) << 1;
        Slot(NonZeroU64::new(bits).expect("a slab id is non-zero"))
    }

    #[inline(always)]
    fn home(self) -> Home {
        let bits = self.0.get();
        if bits & 1 == 0 {
            let cell = NonZeroU32::new((bits >> 32) as u32).expect("a reference names a cell");
            return Home::Slab {
                cell: SlabId::from_bits(cell),
                idx: (bits as u32) >> 1,
            };
        }
        let field = |shift: u32, width: u32| (bits >> shift) as u32 & ((1 << width) - 1);
        Home::Slot(Solo {
            epoch: Epoch::new((bits >> 32) as u32, Tid(field(TID_SHIFT, TID_BITS))),
            state: STATE_OF_BITS[field(STATE_SHIFT, 3) as usize],
            tainted: field(TAINTED_SHIFT, 1) != 0,
        })
    }
}

/// A handle to the cell of one location: the location's address and its
/// slot as of the lookup, which for a cell living in its slot is the cell
/// itself. Valid until the plane next changes that location or its cell;
/// every [`Plane`] mutator that takes one returns its successor.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CellRef {
    addr: Addr,
    slot: Slot,
}

impl CellRef {
    /// The location this handle was looked up for.
    pub fn addr(self) -> Addr {
        self.addr
    }

    /// Whether the cell lives in its location's slot rather than in the
    /// slab (diagnostics/testing).
    pub fn in_slot(self) -> bool {
        matches!(self.slot.home(), Home::Slot(_))
    }

    /// Whether both handles name one cell, i.e. the two locations share
    /// a clock (diagnostics/testing).
    pub fn same_cell(self, other: CellRef) -> bool {
        match (self.slot.home(), other.slot.home()) {
            (Home::Slab { cell: a, .. }, Home::Slab { cell: b, .. }) => a == b,
            _ => self.addr == other.addr,
        }
    }
}

/// A cell, by value: its clock as a [`ClockView`] and its other fields.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CellView<'a> {
    /// The access clock: an epoch by value or a borrowed vector clock.
    pub clock: ClockView<'a>,
    /// Sharing state (Fig. 2).
    pub state: VcState,
    /// Number of locations sharing this cell (`L.count` in Fig. 3).
    pub count: u32,
    /// `true` once this clock has ever been shared (directly or via a
    /// split-off copy): its value may summarize *neighbors'* accesses,
    /// so a race it witnesses may be a sharing artifact. Surfaced in
    /// race reports as a "verify this one" diagnostic.
    pub tainted: bool,
}

/// A debugging/testing view of one sharing group.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroupSnapshot {
    /// The shared clock.
    pub clock: AccessClock,
    /// The shared state.
    pub state: VcState,
    /// Every member location, sorted by address.
    pub members: Vec<Addr>,
}

/// The read plane's lane of an index entry.
const READ: usize = 0;
/// The write plane's lane of an index entry.
const WRITE: usize = 1;

/// The shadow index of both planes, generic over the shadow store selected
/// by `K`: one entry per location holding its read slot and its write
/// slot, as Fig. 4's chunk entry holds a location's read and write clock
/// pointers.
///
/// An access resolves its chunk once, with one directory probe. Every
/// lookup, write-back, insert and neighbour scan inside that chunk then
/// goes to it directly; only a location in another chunk — the far end of
/// a neighbour window, a group member elsewhere — goes back to the
/// directory.
#[derive(Debug, Default)]
pub struct IndexOn<K: StoreSelect> {
    store: K::Store<Slot, 2>,
    /// The chunk the access in progress resolved. Forgotten whenever the
    /// store may move it: when a chunk is created elsewhere or dropped.
    near: Option<ChunkId>,
}

/// The default index, on the chained-hash `dgrace_shadow::ShadowTable`.
pub type Index = IndexOn<HashSelect>;

impl<K: StoreSelect> IndexOn<K> {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolves the chunk of `addr`, creating it if absent — the one
    /// directory probe of an access — and returns the read and write
    /// handles of `addr`. Create only where a location of `addr` is about
    /// to be inserted if none exists (an empty chunk is dropped by the
    /// next removal covering it).
    ///
    /// An access in the chunk the previous one resolved skips the probe:
    /// the handle is still good, since every creation or removal of a
    /// chunk forgets it. Sweeps, and the repeats the same-epoch filter
    /// answers from the entry, mostly stay in one chunk.
    #[inline]
    pub(crate) fn resolve(&mut self, addr: Addr) -> [Option<CellRef>; 2] {
        let at = match self.near(addr) {
            Some(at) => at,
            None => {
                let at = self.store.chunk_or_insert(addr);
                self.near = Some(at);
                at
            }
        };
        let slots = self.store.entry(at, addr);
        slots.map(|slot| slot.map(|&slot| CellRef { addr, slot }))
    }

    /// The resolved chunk, if it holds `addr`.
    #[inline(always)]
    fn near(&self, addr: Addr) -> Option<ChunkId> {
        self.near.filter(|at| at.holds(addr))
    }

    #[inline(always)]
    fn get(&self, lane: usize, addr: Addr) -> Option<Slot> {
        match self.near(addr) {
            Some(at) => self.store.cell(at, lane, addr).copied(),
            None => self.get_far(lane, addr),
        }
    }

    /// [`Self::get`] outside the resolved chunk: through the directory.
    #[cold]
    #[inline(never)]
    fn get_far(&self, lane: usize, addr: Addr) -> Option<Slot> {
        self.store.get_in(lane, addr).copied()
    }

    /// Overwrites the slot of the existing location `addr`.
    #[inline(always)]
    fn set(&mut self, lane: usize, addr: Addr, slot: Slot) {
        let cell = match self.near(addr) {
            Some(at) => self.store.cell_mut(at, lane, addr),
            None => self.far_mut(lane, addr),
        };
        *cell.expect("location must exist") = slot;
    }

    /// The slot of `addr` outside the resolved chunk, through the
    /// directory.
    #[cold]
    #[inline(never)]
    fn far_mut(&mut self, lane: usize, addr: Addr) -> Option<&mut Slot> {
        let at = self.store.chunk(addr)?;
        self.store.cell_mut(at, lane, addr)
    }

    /// Stores the slot of location `addr`, returning the one it replaces.
    #[inline]
    fn insert(&mut self, lane: usize, addr: Addr, slot: Slot) -> Option<Slot> {
        let at = match self.near(addr) {
            Some(at) => at,
            None => {
                // Creating a chunk may move the resolved one.
                self.near = None;
                self.store.chunk_or_insert(addr)
            }
        };
        self.store.put(at, lane, addr, slot)
    }

    fn nearest(&self, lane: usize, addr: Addr, max_dist: u64, up: bool) -> Option<CellRef> {
        let (addr, &slot) = self.store.nearest(lane, addr, max_dist, up, self.near)?;
        Some(CellRef { addr, slot })
    }

    fn take(&mut self, lane: usize, addr: Addr) -> Option<Slot> {
        self.near = None;
        self.store.take(lane, addr)
    }

    /// Removes every location in `[base, base+len)` from `planes` —
    /// `free()`'s shadow cleanup (§IV.B) — in one walk of the index: a
    /// location's read and write slots leave with its entry.
    ///
    /// Removal is chunk-wise (no per-address hash probes). Groups fully
    /// inside the range simply disappear; groups *spanning* the range
    /// boundary (rare — a program freeing part of a grouped structure)
    /// are compacted afterwards, which costs O(survivors) only for the
    /// affected cells.
    ///
    /// # Panics
    /// Panics if the range holds a location of a lane none of `planes`
    /// keeps.
    pub fn remove_range<const P: usize>(&mut self, planes: [&mut Plane; P], base: Addr, len: u64) {
        let mut planes = planes;
        let mut freed: [Freed; P] = std::array::from_fn(|_| Freed::default());
        self.near = None;
        self.store.drain(base, len, |_, lane, slot| {
            let i = planes.iter().position(|p| p.lane == lane);
            let i = i.expect("a plane for every lane the index holds");
            planes[i].drained(slot, &mut freed[i]);
        });
        for (plane, freed) in planes.into_iter().zip(freed) {
            plane.settle_free(self, base, len, freed);
        }
    }

    /// Victim byte span for memory-budget eviction: one resident backing
    /// region of the index, chosen deterministically (see
    /// [`ShadowStore::victim_region`], also for `victims`). A region is hot
    /// when the clock of one of its cells in `planes` holds a thread's
    /// current epoch in `hb`. The caller evicts with
    /// [`Self::remove_range`], which takes both planes' slots of the
    /// region, so their coverage stays symmetric.
    pub(crate) fn victim_region(
        &self,
        victims: &mut Victims,
        planes: [&Plane; 2],
        hb: &HbState,
    ) -> Option<(Addr, u64)> {
        self.store.victim_region(victims, |lane, addr, &slot| {
            let plane = planes.iter().find(|p| p.lane == lane);
            let plane = plane.expect("a plane for every lane the index holds");
            hb.holds_current(plane.clock_view(CellRef { addr, slot }))
        })
    }
}

/// What removing a range took out of one plane, for
/// [`Plane::settle_free`].
#[derive(Default)]
struct Freed {
    /// Cells that lived in their slots.
    solos: usize,
    /// Slab cells left with no location.
    emptied: Vec<SlabId>,
    /// Slab cells left with fewer locations, some still outside the range.
    dirty: Vec<SlabId>,
}

/// One shadow plane (read or write locations): its cells and clocks, and
/// which lane of the [`IndexOn`] entry holds its slots.
#[derive(Debug)]
pub struct Plane {
    /// [`READ`] or [`WRITE`].
    lane: usize,
    /// The cells that cannot live in a slot.
    cells: Slab<Cell>,
    clocks: Slab<ClockEntry>,
    /// Number of cells living in their slots.
    in_slot: usize,
    vc_bytes: usize,
    vc_allocs: u64,
    vc_frees: u64,
    max_group: u32,
}

impl Plane {
    /// Creates an empty plane of `kind` accesses.
    pub fn new(kind: AccessKind) -> Self {
        Plane {
            lane: if kind.is_write() { WRITE } else { READ },
            cells: Slab::default(),
            clocks: Slab::default(),
            in_slot: 0,
            vc_bytes: 0,
            vc_allocs: 0,
            vc_frees: 0,
            max_group: 0,
        }
    }

    /// The cell handle of `addr`, if the location exists.
    #[inline]
    pub fn lookup<K: StoreSelect>(&self, ix: &IndexOn<K>, addr: Addr) -> Option<CellRef> {
        ix.get(self.lane, addr).map(|slot| CellRef { addr, slot })
    }

    /// A handle is only as good as the slot it was read from.
    #[inline]
    fn check_fresh<K: StoreSelect>(&self, ix: &IndexOn<K>, at: CellRef) {
        debug_assert_eq!(
            ix.get(self.lane, at.addr),
            Some(at.slot),
            "stale cell handle"
        );
    }

    /// Overwrites the slot of the existing location `addr`.
    #[inline]
    fn set_slot<K: StoreSelect>(&self, ix: &mut IndexOn<K>, addr: Addr, slot: Slot) -> CellRef {
        ix.set(self.lane, addr, slot);
        CellRef { addr, slot }
    }

    /// Cell `at` by value: decoded from the handle when the cell lives in
    /// its slot, one slab load (and, for a clock in the arena, one more)
    /// otherwise. An epoch never touches the arena.
    ///
    /// Always inlined, like `Slot::home` under it and
    /// [`Plane::set_state`]: every path of the detector reads through
    /// here and uses one or two of the fields, and left out of line the
    /// readers cost the `stream` ledger workload 3 % of its instructions
    /// (EXPERIMENTS.md, PR 18).
    #[inline(always)]
    pub fn cell(&self, at: CellRef) -> CellView<'_> {
        match at.slot.home() {
            Home::Slot(solo) => CellView {
                clock: ClockView::Epoch(solo.epoch),
                state: solo.state,
                count: 1,
                tainted: solo.tainted,
            },
            Home::Slab { cell, .. } => {
                let cell = self.cells.get(cell);
                CellView {
                    clock: match cell.clock {
                        ClockSlot::Own(e) => ClockView::Epoch(e),
                        ClockSlot::Arena(cid) => self.clocks.get(cid).clock.view(),
                    },
                    state: cell.state,
                    count: cell.count,
                    tainted: cell.tainted,
                }
            }
        }
    }

    /// The clock of cell `at`.
    #[inline(always)]
    pub fn clock_view(&self, at: CellRef) -> ClockView<'_> {
        self.cell(at).clock
    }

    /// Where the clock of cell `at` lives.
    fn clock_slot(&self, at: CellRef) -> ClockSlot {
        match at.slot.home() {
            Home::Slot(solo) => ClockSlot::Own(solo.epoch),
            Home::Slab { cell, .. } => self.cells.get(cell).clock,
        }
    }

    /// How many cells currently share cell `at`'s clock value
    /// (diagnostics/testing).
    pub fn clock_refs(&self, at: CellRef) -> u32 {
        match self.clock_slot(at) {
            ClockSlot::Own(_) => 1,
            ClockSlot::Arena(cid) => self.clocks.get(cid).rc,
        }
    }

    /// Whether cell `at`'s clock is stored in the cell rather than in the
    /// arena (diagnostics/testing).
    pub fn clock_is_inline(&self, at: CellRef) -> bool {
        matches!(self.clock_slot(at), ClockSlot::Own(_))
    }

    /// Rewrites a cell that lives in `addr`'s slot; a value that no longer
    /// fits the packing moves to the slab.
    #[inline]
    fn put_solo<K: StoreSelect>(&mut self, ix: &mut IndexOn<K>, addr: Addr, solo: Solo) -> CellRef {
        match solo.pack() {
            Some(slot) => self.set_slot(ix, addr, slot),
            None => self.spill(ix, addr, solo, ClockSlot::Own(solo.epoch)).1,
        }
    }

    /// Moves the cell living in `addr`'s slot to the slab, with `clock`
    /// as its clock (the same logical clock, possibly moved itself). Once
    /// per group, inflation or wide thread id: kept out of its callers' code.
    #[cold]
    fn spill<K: StoreSelect>(
        &mut self,
        ix: &mut IndexOn<K>,
        addr: Addr,
        solo: Solo,
        clock: ClockSlot,
    ) -> (SlabId, CellRef) {
        self.in_slot -= 1;
        let id = self.cells.alloc(Cell {
            clock,
            state: solo.state,
            count: 1,
            tainted: solo.tainted,
            members: Vec::new(),
        });
        (id, self.set_slot(ix, addr, Slot::reference(id, 0)))
    }

    /// Moves slab cell `id` into the slot of `at`, its only location, if
    /// the cell's value now says it lives there.
    fn settle<K: StoreSelect>(&mut self, ix: &mut IndexOn<K>, at: CellRef, id: SlabId) -> CellRef {
        match self.cells.get(id).solo() {
            Some(slot) => {
                self.cells.free(id);
                self.in_slot += 1;
                self.set_slot(ix, at.addr, slot)
            }
            None => at,
        }
    }

    /// Mutates a cell's clock, keeping byte accounting consistent. If the
    /// cell shares its clock value with other cells (after a split or
    /// dissolve), the value is copied on write into a fresh logical
    /// clock. Whatever `f` leaves behind is stored where the module docs
    /// say it lives — the clock inline unless it is a vector, the cell in
    /// its slot if it now belongs there.
    pub fn update_clock<K: StoreSelect>(
        &mut self,
        ix: &mut IndexOn<K>,
        at: CellRef,
        f: impl FnOnce(&mut AccessClock),
    ) -> CellRef {
        self.check_fresh(ix, at);
        let id = match at.slot.home() {
            Home::Slot(mut solo) => {
                let mut clock = AccessClock::Epoch(solo.epoch);
                f(&mut clock);
                return match clock {
                    AccessClock::Epoch(e) => {
                        solo.epoch = e;
                        self.put_solo(ix, at.addr, solo)
                    }
                    // Inflated: the cell moves to the slab and the same
                    // logical clock to the arena.
                    vc => {
                        let clock = self.intern(vc, 1);
                        self.spill(ix, at.addr, solo, clock).1
                    }
                };
            }
            Home::Slab { cell, .. } => cell,
        };
        let cell = self.cells.get_mut(id);
        match cell.clock {
            ClockSlot::Own(e) => {
                let mut clock = AccessClock::Epoch(e);
                f(&mut clock);
                if let AccessClock::Epoch(e) = clock {
                    cell.clock = ClockSlot::Own(e);
                } else {
                    // Inflated: the same logical clock moves to the arena.
                    let slot = self.intern(clock, 1);
                    self.cells.get_mut(id).clock = slot;
                }
            }
            ClockSlot::Arena(cid) => {
                let entry = self.clocks.get_mut(cid);
                if entry.rc == 1 {
                    let before = clock_payload_bytes(&entry.clock);
                    f(&mut entry.clock);
                    let after = clock_payload_bytes(&entry.clock);
                    self.vc_bytes = self.vc_bytes + after - before;
                    if let AccessClock::Epoch(e) = entry.clock {
                        // Sole holder of an epoch: the logical clock
                        // moves back into the cell.
                        self.clocks.free(cid);
                        cell.clock = ClockSlot::Own(e);
                    }
                } else {
                    entry.rc -= 1;
                    let mut clock = entry.clock.clone();
                    f(&mut clock);
                    let slot = self.new_clock(clock);
                    self.cells.get_mut(id).clock = slot;
                }
            }
        }
        self.settle(ix, at, id)
    }

    /// Sets a cell's state.
    #[inline(always)]
    pub fn set_state<K: StoreSelect>(
        &mut self,
        ix: &mut IndexOn<K>,
        at: CellRef,
        state: VcState,
    ) -> CellRef {
        self.check_fresh(ix, at);
        match at.slot.home() {
            Home::Slot(solo) => self.put_solo(ix, at.addr, Solo { state, ..solo }),
            Home::Slab { cell, .. } => {
                self.cells.get_mut(cell).state = state;
                at
            }
        }
    }

    /// Moves a clock value into the arena, held by `rc` cells.
    fn intern(&mut self, clock: AccessClock, rc: u32) -> ClockSlot {
        self.vc_bytes += clock_payload_bytes(&clock);
        ClockSlot::Arena(self.clocks.alloc(ClockEntry { clock, rc }))
    }

    /// Creates a logical clock held by one cell.
    fn new_clock(&mut self, clock: AccessClock) -> ClockSlot {
        self.vc_allocs += 1;
        match clock {
            AccessClock::Epoch(e) => ClockSlot::Own(e),
            vc => self.intern(vc, 1),
        }
    }

    /// Drops one cell's hold on a clock, destroying the logical clock
    /// when it was the last.
    fn release_clock(&mut self, slot: ClockSlot) {
        if let ClockSlot::Arena(cid) = slot {
            let entry = self.clocks.get_mut(cid);
            entry.rc -= 1;
            if entry.rc > 0 {
                return;
            }
            let freed = self.clocks.free(cid);
            self.vc_bytes -= clock_payload_bytes(&freed.clock);
        }
        self.vc_frees += 1;
    }

    /// Creates the cell of one new location and returns the slot naming
    /// its home.
    fn new_cell(&mut self, clock: ClockSlot, state: VcState, tainted: bool) -> Slot {
        self.vc_bytes += CELL_BYTES;
        let cell = Cell {
            clock,
            state,
            count: 1,
            tainted,
            members: Vec::new(),
        };
        match cell.solo() {
            Some(slot) => {
                self.in_slot += 1;
                slot
            }
            None => Slot::reference(self.cells.alloc(cell), 0),
        }
    }

    /// Destroys `n` cells that lived in their slots, each with the epoch
    /// it held.
    fn free_solos(&mut self, n: usize) {
        self.in_slot -= n;
        self.vc_bytes -= n * CELL_BYTES;
        self.vc_frees += n as u64;
    }

    fn free_slab_cell(&mut self, id: SlabId) {
        let freed = self.cells.free(id);
        self.vc_bytes -= CELL_BYTES;
        self.release_clock(freed.clock);
    }

    /// Destroys the cell `slot` names (its last location is going).
    fn free_cell(&mut self, slot: Slot) {
        match slot.home() {
            Home::Slot(_) => self.free_solos(1),
            Home::Slab { cell, .. } => self.free_slab_cell(cell),
        }
    }

    /// Creates a brand-new private location.
    pub fn insert_private<K: StoreSelect>(
        &mut self,
        ix: &mut IndexOn<K>,
        addr: Addr,
        clock: AccessClock,
        state: VcState,
    ) -> CellRef {
        let clock = self.new_clock(clock);
        let slot = self.new_cell(clock, state, false);
        let prev = ix.insert(self.lane, addr, slot);
        debug_assert!(prev.is_none(), "location already exists");
        CellRef { addr, slot }
    }

    /// Appends `addr` to the member list of `neighbor`'s cell, which moves
    /// to the slab if it lived in its slot, and returns the slot `addr`
    /// gets. The caller stores it.
    fn join_members<K: StoreSelect>(
        &mut self,
        ix: &mut IndexOn<K>,
        addr: Addr,
        neighbor: CellRef,
    ) -> Slot {
        self.check_fresh(ix, neighbor);
        let id = match neighbor.slot.home() {
            Home::Slot(solo) => {
                let own = ClockSlot::Own(solo.epoch);
                self.spill(ix, neighbor.addr, solo, own).0
            }
            Home::Slab { cell, .. } => cell,
        };
        let cell = self.cells.get_mut(id);
        if cell.members.is_empty() {
            // One location → explicit member list; the neighbor's
            // implicit index 0 becomes its real index 0.
            cell.members.push(neighbor.addr);
        }
        cell.members.push(addr);
        let idx = (cell.members.len() - 1) as u32;
        cell.count += 1;
        cell.tainted = true;
        if cell.count > self.max_group {
            self.max_group = cell.count;
        }
        Slot::reference(id, idx)
    }

    /// Creates location `addr` sharing `neighbor`'s cell (first-epoch
    /// temporary sharing).
    pub fn insert_shared<K: StoreSelect>(
        &mut self,
        ix: &mut IndexOn<K>,
        addr: Addr,
        neighbor: CellRef,
    ) -> CellRef {
        let slot = self.join_members(ix, addr, neighbor);
        let prev = ix.insert(self.lane, addr, slot);
        debug_assert!(prev.is_none(), "location already exists");
        CellRef { addr, slot }
    }

    /// Re-points the *existing* private location `at` at `neighbor`'s cell
    /// (the firm second-epoch sharing decision). The location's own cell
    /// is freed; it must not be shared (`count == 1`).
    pub fn rejoin<K: StoreSelect>(
        &mut self,
        ix: &mut IndexOn<K>,
        at: CellRef,
        neighbor: CellRef,
    ) -> CellRef {
        debug_assert_eq!(self.cell(at).count, 1, "rejoin requires a private cell");
        self.free_cell(at.slot);
        // Re-point the existing location in place — the second-epoch
        // re-share sweep hits this once per member, and a hash
        // remove+insert pair here costs more than the rest of the join.
        let slot = self.join_members(ix, at.addr, neighbor);
        self.set_slot(ix, at.addr, slot)
    }

    /// Detaches `addr` from the member list of group `id`, patching the
    /// index of the member that `swap_remove` relocates. The caller
    /// re-points or removes `addr`'s own slot.
    fn detach<K: StoreSelect>(&mut self, ix: &mut IndexOn<K>, addr: Addr, id: SlabId, idx: u32) {
        let cell = self.cells.get_mut(id);
        debug_assert!(cell.count > 1 && !cell.members.is_empty());
        debug_assert_eq!(cell.members[idx as usize], addr);
        cell.members.swap_remove(idx as usize);
        cell.count -= 1;
        let left = cell.count;
        if let Some(&moved) = cell.members.get(idx as usize) {
            self.set_slot(ix, moved, Slot::reference(id, idx));
        }
        if left == 1 {
            self.shrunk_to_one(ix, id);
        }
    }

    /// Slab cell `id` is down to one location, at index 0: its member
    /// list goes (the sole member is implicit) and the cell moves into
    /// that location's slot if its value says so.
    fn shrunk_to_one<K: StoreSelect>(&mut self, ix: &mut IndexOn<K>, id: SlabId) {
        let cell = self.cells.get_mut(id);
        debug_assert_eq!((cell.count, cell.members.len()), (1, 1));
        let addr = cell.members[0];
        cell.members = Vec::new();
        let slot = Slot::reference(id, 0);
        self.settle(ix, CellRef { addr, slot }, id);
    }

    /// Splits the location `at` out of its sharing group: it receives a
    /// private *reference* to the group clock (the paper's `split(L,
    /// addr, size)`) — a refcount bump, not a copy, with an inline group
    /// clock promoted to the arena first; divergence is deferred to the
    /// next clock write. No-op for already-private locations. Returns the
    /// location's handle after the split and whether a split actually
    /// happened.
    pub fn split<K: StoreSelect>(&mut self, ix: &mut IndexOn<K>, at: CellRef) -> (CellRef, bool) {
        self.check_fresh(ix, at);
        let Home::Slab { cell: gid, idx } = at.slot.home() else {
            return (at, false);
        };
        let group = self.cells.get(gid);
        if group.count == 1 {
            return (at, false);
        }
        let (clock, state, tainted) = (group.clock, group.state, group.tainted);
        let shared = match clock {
            ClockSlot::Own(e) => {
                let shared = self.intern(AccessClock::Epoch(e), 2);
                self.cells.get_mut(gid).clock = shared;
                shared
            }
            ClockSlot::Arena(cid) => {
                self.clocks.get_mut(cid).rc += 1;
                clock
            }
        };
        self.detach(ix, at.addr, gid, idx);
        let slot = self.new_cell(shared, state, tainted);
        (self.set_slot(ix, at.addr, slot), true)
    }

    /// Every member of `addr`'s sharing group (including `addr`), sorted.
    pub fn group_members<K: StoreSelect>(&self, ix: &IndexOn<K>, addr: Addr) -> Vec<Addr> {
        if let Some(Home::Slab { cell, .. }) = ix.get(self.lane, addr).map(Slot::home) {
            let members = &self.cells.get(cell).members;
            if !members.is_empty() {
                let mut m = members.clone();
                m.sort_unstable();
                return m;
            }
        }
        vec![addr]
    }

    /// A debugging snapshot of `addr`'s group.
    pub fn snapshot<K: StoreSelect>(&self, ix: &IndexOn<K>, addr: Addr) -> Option<GroupSnapshot> {
        let at = self.lookup(ix, addr)?;
        Some(GroupSnapshot {
            clock: self.clock_view(at).to_clock(),
            state: self.cell(at).state,
            members: self.group_members(ix, addr),
        })
    }

    /// Finds the nearest populated location strictly before `addr`
    /// (within `max_dist` bytes).
    pub fn nearest_predecessor<K: StoreSelect>(
        &self,
        ix: &IndexOn<K>,
        addr: Addr,
        max_dist: u64,
    ) -> Option<CellRef> {
        ix.nearest(self.lane, addr, max_dist, false)
    }

    /// Finds the nearest populated location strictly after `addr`.
    pub fn nearest_successor<K: StoreSelect>(
        &self,
        ix: &IndexOn<K>,
        addr: Addr,
        max_dist: u64,
    ) -> Option<CellRef> {
        ix.nearest(self.lane, addr, max_dist, true)
    }

    /// Books one of this plane's locations that
    /// [`IndexOn::remove_range`] took out of the index.
    #[inline]
    fn drained(&mut self, slot: Slot, freed: &mut Freed) {
        match slot.home() {
            Home::Slot(_) => freed.solos += 1,
            Home::Slab { cell: id, .. } => {
                let cell = self.cells.get_mut(id);
                cell.count -= 1;
                if cell.count == 0 {
                    freed.emptied.push(id);
                } else if !freed.dirty.contains(&id) {
                    freed.dirty.push(id);
                }
            }
        }
    }

    /// Frees the cells [`IndexOn::remove_range`] left with no location in
    /// `[base, base+len)`, and compacts the groups it cut.
    fn settle_free<K: StoreSelect>(
        &mut self,
        ix: &mut IndexOn<K>,
        base: Addr,
        len: u64,
        freed: Freed,
    ) {
        self.free_solos(freed.solos);
        for id in freed.emptied {
            self.free_slab_cell(id);
        }
        // Compact surviving boundary-spanning groups: take the member
        // list out, patch the relocated indices, and put it back —
        // without cloning it.
        for id in freed.dirty {
            if !self.cells.contains(id) {
                continue;
            }
            let cell = self.cells.get_mut(id);
            let mut members = std::mem::take(&mut cell.members);
            members.retain(|a| a.0 < base.0 || a.0 - base.0 >= len);
            debug_assert_eq!(members.len(), cell.count as usize);
            for (i, a) in members.iter().enumerate() {
                self.set_slot(ix, *a, Slot::reference(id, i as u32));
            }
            let left = members.len();
            self.cells.get_mut(id).members = members;
            if left == 1 {
                self.shrunk_to_one(ix, id);
            }
        }
    }

    /// Removes a single location.
    pub fn remove<K: StoreSelect>(&mut self, ix: &mut IndexOn<K>, addr: Addr) {
        let Some(slot) = ix.take(self.lane, addr) else {
            return;
        };
        match slot.home() {
            Home::Slab { cell, idx } if self.cells.get(cell).count > 1 => {
                self.detach(ix, addr, cell, idx)
            }
            _ => self.free_cell(slot),
        }
    }

    /// Number of populated locations.
    pub fn loc_count<K: StoreSelect>(&self, ix: &IndexOn<K>) -> usize {
        ix.store.lane_len(self.lane)
    }

    /// Number of live cells (sharing groups), in slots and in the slab.
    pub fn cell_count(&self) -> usize {
        self.cells.len() + self.in_slot
    }

    /// Number of live logical clocks (arena entries + inline clocks) —
    /// distinct vector-clock objects, the population Table 3 counts.
    /// Moving a clock between cell and arena creates and destroys none,
    /// so this is the clocks created minus the clocks destroyed.
    pub fn clock_count(&self) -> usize {
        debug_assert!(self.vc_frees <= self.vc_allocs);
        (self.vc_allocs - self.vc_frees) as usize
    }

    /// Modeled bytes of live cells and clock payloads.
    pub fn vc_bytes(&self) -> usize {
        self.vc_bytes
    }

    /// Modeled bytes of the plane's index: its lane, charged as an index
    /// of its own.
    pub fn hash_bytes<K: StoreSelect>(&self, ix: &IndexOn<K>) -> usize {
        ix.store.lane_bytes(self.lane)
    }

    /// Logical clocks created over the run (reference bumps from
    /// split/dissolve, and moves between cell and arena, don't count).
    pub fn vc_allocs(&self) -> u64 {
        self.vc_allocs
    }

    /// Logical clocks destroyed over the run.
    pub fn vc_frees(&self) -> u64 {
        self.vc_frees
    }

    /// Largest sharing group seen.
    pub fn max_group(&self) -> u32 {
        self.max_group
    }

    /// Exhaustively checks the plane's structural invariants; panics with
    /// a description on the first violation. O(locations) — used by
    /// property tests and debug assertions, never on the hot path.
    pub fn check_invariants<K: StoreSelect>(&self, ix: &IndexOn<K>) {
        let mut per_cell: FastMap<SlabId, usize> = FastMap::default();
        let mut loc_count = 0usize;
        let mut solos = 0usize;
        ix.store.lane_for_each(self.lane, |addr, slot| {
            loc_count += 1;
            match slot.home() {
                // A cell in a slot is one location holding an own epoch
                // by construction; what is left to check is that the
                // packing loses nothing.
                Home::Slot(solo) => {
                    solos += 1;
                    assert_eq!(
                        solo.pack(),
                        Some(*slot),
                        "the cell in the slot of {addr:?} does not fit it"
                    );
                }
                Home::Slab { cell: id, idx } => {
                    assert!(
                        self.cells.contains(id),
                        "location {addr:?} points at a dead cell"
                    );
                    *per_cell.entry(id).or_default() += 1;
                    let cell = self.cells.get(id);
                    if cell.members.is_empty() {
                        assert_eq!(idx, 0, "sole member {addr:?} has nonzero idx");
                    } else {
                        assert_eq!(
                            cell.members.get(idx as usize),
                            Some(&addr),
                            "member index of {addr:?} is stale"
                        );
                    }
                }
            }
        });
        assert_eq!(loc_count, self.loc_count(ix), "location count mismatch");
        assert_eq!(solos, self.in_slot, "cells living in slots miscounted");
        assert_eq!(
            per_cell.values().sum::<usize>() + solos,
            self.loc_count(ix),
            "location count mismatch"
        );
        let mut bytes = solos * CELL_BYTES;
        let mut inline = solos;
        let mut per_clock: FastMap<SlabId, u32> = FastMap::default();
        for (id, cell) in self.cells.iter() {
            let refs = per_cell.get(&id).copied().unwrap_or(0);
            assert_eq!(
                cell.count as usize, refs,
                "cell {id:?} count {} != {} referencing locations",
                cell.count, refs
            );
            assert!(refs > 0, "cell {id:?} is unreachable");
            assert!(
                cell.solo().is_none(),
                "cell {id:?} belongs in its location's slot"
            );
            assert_eq!(
                cell.members.len(),
                if refs == 1 { 0 } else { refs },
                "cell {id:?} member list out of sync"
            );
            match cell.clock {
                ClockSlot::Own(_) => inline += 1,
                ClockSlot::Arena(cid) => {
                    assert!(
                        self.clocks.contains(cid),
                        "cell {id:?} points at a dead clock entry"
                    );
                    *per_clock.entry(cid).or_default() += 1;
                }
            }
            bytes += CELL_BYTES;
        }
        assert_eq!(
            self.clocks.len() + inline,
            self.clock_count(),
            "arena entries + inline clocks != clocks created - destroyed"
        );
        for (cid, entry) in self.clocks.iter() {
            let refs = per_clock.get(&cid).copied().unwrap_or(0);
            assert_eq!(
                entry.rc, refs,
                "clock entry {cid:?} rc {} != {} referencing cells",
                entry.rc, refs
            );
            assert!(refs > 0, "clock entry {cid:?} is unreachable");
            bytes += clock_payload_bytes(&entry.clock);
        }
        assert_eq!(bytes, self.vc_bytes, "vc byte accounting drifted");
        assert_eq!(self.cells.len() + solos, self.cell_count());
    }

    /// Serializes the plane: a table of its logical clocks, then the
    /// cells, each naming its clock by table index, then the locations in
    /// ascending address order, each naming its cell. Cells are numbered
    /// in the order that list first references them and the clock table
    /// is written in the order cells first reference its entries, an
    /// inline clock as an entry of refcount 1 and a cell living in its
    /// slot as a cell of one location — so equal planes encode to equal
    /// bytes regardless of slab free-list history or of where a cell or
    /// a clock happens to live, and the copy-on-write sharing structure
    /// (which cells hold which clock, and each clock's refcount) is
    /// preserved exactly.
    pub fn encode<K: StoreSelect>(&self, ix: &IndexOn<K>, w: &mut SnapshotWriter) {
        let mut locs: Vec<CellRef> = Vec::with_capacity(self.loc_count(ix));
        ix.store
            .lane_for_each(self.lane, |addr, &slot| locs.push(CellRef { addr, slot }));
        locs.sort_unstable_by_key(|at| at.addr);
        // One handle per cell, in order of first reference, and each
        // location's cell number.
        let mut cells: Vec<CellRef> = Vec::with_capacity(self.cell_count());
        let mut slab_dense: FastMap<SlabId, u32> = FastMap::default();
        let cell_of_loc: Vec<u32> = locs
            .iter()
            .map(|&at| {
                let mut number = || {
                    cells.push(at);
                    cells.len() as u32 - 1
                };
                match at.slot.home() {
                    Home::Slot(_) => number(),
                    Home::Slab { cell, .. } => *slab_dense.entry(cell).or_insert_with(number),
                }
            })
            .collect();

        let mut arena_dense: FastMap<SlabId, u32> = FastMap::default();
        let mut entries = 0u32;
        let mut entry = |w: &mut SnapshotWriter, clock: &AccessClock, rc: u32| {
            encode_access_clock(w, clock);
            w.u32(rc);
            entries += 1;
            entries - 1
        };
        w.count(self.clock_count());
        let clock_of_cell: Vec<u32> = cells
            .iter()
            .map(|&at| match self.clock_slot(at) {
                ClockSlot::Own(e) => entry(w, &AccessClock::Epoch(e), 1),
                ClockSlot::Arena(cid) => *arena_dense.entry(cid).or_insert_with(|| {
                    let shared = self.clocks.get(cid);
                    entry(w, &shared.clock, shared.rc)
                }),
            })
            .collect();
        w.count(cells.len());
        for (&at, clock) in cells.iter().zip(clock_of_cell) {
            let cell = self.cell(at);
            w.u32(clock);
            w.u8(state_tag(cell.state));
            w.u32(cell.count);
            w.bool(cell.tainted);
            let members: &[Addr] = match at.slot.home() {
                Home::Slot(_) => &[],
                Home::Slab { cell, .. } => &self.cells.get(cell).members,
            };
            w.count(members.len());
            for m in members {
                w.u64(m.0);
            }
        }
        w.count(locs.len());
        for (at, cell) in locs.iter().zip(cell_of_loc) {
            w.u64(at.addr.0);
            w.u32(cell);
            w.u32(match at.slot.home() {
                Home::Slot(_) => 0,
                Home::Slab { idx, .. } => idx,
            });
        }
        let chunks = ix.store.lane_byte_mode_chunks(self.lane);
        w.count(chunks.len());
        for chunk in chunks {
            w.u64(chunk.0);
        }
        w.u64(self.vc_bytes as u64);
        w.u64(self.vc_allocs);
        w.u64(self.vc_frees);
        w.u32(self.max_group);
    }

    /// Rebuilds a plane from [`Plane::encode`]d bytes, in whatever
    /// order they number the cells. Where a cell and a clock are restored
    /// to is decided from their values, whichever place they were saved
    /// from: an epoch-form clock of refcount 1 inline, a cell of one
    /// location that holds one and fits in that location's slot. A
    /// refcount that differs from the number of cells naming the entry is
    /// rejected, and so are a member list that is not the cell's
    /// locations (none for a cell of one) and a cell of one location
    /// named by two. The locations go into `ix`, in the lane of `kind`.
    pub fn decode<K: StoreSelect>(
        r: &mut SnapshotReader<'_>,
        ix: &mut IndexOn<K>,
        kind: AccessKind,
    ) -> Result<Self, TraceError> {
        let mut plane = Self::new(kind);
        let n = r.count("clock-arena entries")?;
        let mut clock_slots = Vec::new();
        // Per clock, the references its refcount promises that no cell
        // has claimed yet: an entry restored inline on the strength of
        // "rc 1" must not be handed to two cells as independent copies.
        let mut unclaimed = Vec::new();
        for _ in 0..n {
            let clock = decode_access_clock(r)?;
            let rc = r.u32()?;
            unclaimed.push(rc);
            clock_slots.push(match clock {
                AccessClock::Epoch(e) if rc == 1 => ClockSlot::Own(e),
                clock => ClockSlot::Arena(plane.clocks.alloc(ClockEntry { clock, rc })),
            });
        }
        let n = r.count("plane cells")?;
        // Per cell, the slot of its first member; a cell that lives in
        // its slot is taken by the one location that names it.
        let mut cell_slots: Vec<Option<Slot>> = Vec::new();
        let mut solos = 0usize;
        for _ in 0..n {
            let at = r.offset();
            let ci = r.u32()? as usize;
            let clock = *clock_slots.get(ci).ok_or(TraceError::Malformed {
                offset: at,
                what: "clock reference out of range",
            })?;
            unclaimed[ci] = unclaimed[ci].checked_sub(1).ok_or(TraceError::Malformed {
                offset: at,
                what: "clock held by more cells than its refcount",
            })?;
            let at = r.offset();
            let state = state_from_tag(r.u8()?, at)?;
            let count = r.u32()?;
            let tainted = r.bool()?;
            let at = r.offset();
            let m = r.count("group members")?;
            // A cell of one location lists no member: it is implicit.
            if m != if count == 1 { 0 } else { count as usize } {
                return Err(TraceError::Malformed {
                    offset: at,
                    what: "member list disagrees with the cell's location count",
                });
            }
            let mut members = Vec::with_capacity(m);
            for _ in 0..m {
                members.push(Addr(r.u64()?));
            }
            let cell = Cell {
                clock,
                state,
                count,
                tainted,
                members,
            };
            cell_slots.push(Some(match cell.solo() {
                Some(slot) => {
                    solos += 1;
                    slot
                }
                None => Slot::reference(plane.cells.alloc(cell), 0),
            }));
        }
        if unclaimed.iter().any(|&left| left != 0) {
            return Err(TraceError::Malformed {
                offset: r.offset(),
                what: "clock refcount exceeds the cells that hold it",
            });
        }
        let n = r.count("plane locations")?;
        for _ in 0..n {
            let addr = Addr(r.u64()?);
            let at = r.offset();
            let ci = r.u32()? as usize;
            let cell = cell_slots.get_mut(ci).ok_or(TraceError::Malformed {
                offset: at,
                what: "cell reference out of range",
            })?;
            let idx = r.u32()?;
            let slot = match cell.map(Slot::home) {
                Some(Home::Slab { cell, .. }) if idx >> MEMBER_BITS == 0 => {
                    Slot::reference(cell, idx)
                }
                Some(Home::Slot(_)) if idx == 0 => {
                    plane.in_slot += 1;
                    cell.take().expect("just matched")
                }
                _ => {
                    return Err(TraceError::Malformed {
                        offset: at,
                        what: "location disagrees with the cell it names",
                    })
                }
            };
            ix.insert(plane.lane, addr, slot);
        }
        if plane.in_slot != solos {
            return Err(TraceError::Malformed {
                offset: r.offset(),
                what: "cell named by no location",
            });
        }
        let chunks = r.count("byte-mode chunks")?;
        for _ in 0..chunks {
            ix.store.lane_force_byte_mode(plane.lane, Addr(r.u64()?));
        }
        plane.vc_bytes = r.u64()? as usize;
        let at = r.offset();
        plane.vc_allocs = r.u64()?;
        plane.vc_frees = r.u64()?;
        // `clock_count` is derived from these two; hold them to the
        // table they were saved with.
        if plane.vc_allocs.checked_sub(plane.vc_frees) != Some(clock_slots.len() as u64) {
            return Err(TraceError::Malformed {
                offset: at,
                what: "clock counters disagree with the clock table",
            });
        }
        plane.max_group = r.u32()?;
        Ok(plane)
    }
}

/// Wire tag of a [`VcState`], also its three bits in a [`Slot`].
fn state_tag(state: VcState) -> u8 {
    match state {
        VcState::FirstEpochPrivate => 0,
        VcState::FirstEpochShared => 1,
        VcState::Shared => 2,
        VcState::Private => 3,
        VcState::Race => 4,
    }
}

fn state_from_tag(tag: u8, offset: u64) -> Result<VcState, TraceError> {
    if tag > state_tag(VcState::Race) {
        return Err(TraceError::BadTag { offset, tag });
    }
    Ok(STATE_OF_BITS[tag as usize])
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgrace_vc::VectorClock;

    fn epoch(c: u32, t: u32) -> AccessClock {
        AccessClock::Epoch(Epoch::new(c, Tid(t)))
    }

    /// The current handle of a location that exists.
    fn at<K: StoreSelect>(ix: &IndexOn<K>, p: &Plane, addr: u64) -> CellRef {
        p.lookup(ix, Addr(addr)).expect("location exists")
    }

    /// Splits the existing location `addr` out of its group.
    fn split<K: StoreSelect>(ix: &mut IndexOn<K>, p: &mut Plane, addr: u64) -> (CellRef, bool) {
        let a = at(ix, p, addr);
        p.split(ix, a)
    }

    /// Creates `addr` sharing the cell of the existing location `neighbor`.
    fn share<K: StoreSelect>(
        ix: &mut IndexOn<K>,
        p: &mut Plane,
        addr: u64,
        neighbor: u64,
    ) -> CellRef {
        let n = at(ix, p, neighbor);
        p.insert_shared(ix, Addr(addr), n)
    }

    #[test]
    fn private_insert_lookup() {
        let (mut ix, mut p) = (Index::new(), Plane::new(AccessKind::Read));
        let id = p.insert_private(
            &mut ix,
            Addr(0x100),
            epoch(1, 0),
            VcState::FirstEpochPrivate,
        );
        assert_eq!(p.lookup(&ix, Addr(0x100)), Some(id));
        assert_eq!(id.addr(), Addr(0x100));
        assert_eq!(p.cell(id).count, 1);
        assert_eq!(p.loc_count(&ix), 1);
        assert_eq!(p.cell_count(), 1);
        assert_eq!(p.clock_count(), 1);
        assert!(p.vc_bytes() > 0);
    }

    #[test]
    fn slot_packing_round_trips_and_refuses_what_does_not_fit() {
        let widest = Solo {
            epoch: Epoch::new(u32::MAX, Tid((1 << TID_BITS) - 1)),
            state: VcState::Race,
            tainted: true,
        };
        let slot = widest.pack().expect("every field at its maximum fits");
        let Home::Slot(back) = slot.home() else {
            panic!("a packed cell reads back as a cell");
        };
        assert_eq!(back.pack(), Some(slot));
        assert_eq!((back.epoch, back.state), (widest.epoch, widest.state));
        assert_eq!(back.tainted, widest.tainted);
        for state in [
            VcState::FirstEpochPrivate,
            VcState::FirstEpochShared,
            VcState::Shared,
            VcState::Private,
            VcState::Race,
        ] {
            assert_eq!(STATE_OF_BITS[state_tag(state) as usize], state);
            assert_eq!(state_from_tag(state_tag(state), 0).unwrap(), state);
        }
        // The "never accessed" epoch in the all-zero state is still a
        // non-zero slot.
        let zero = Solo {
            epoch: Epoch::NONE,
            state: VcState::FirstEpochPrivate,
            tainted: false,
        };
        assert!(matches!(zero.pack().unwrap().home(), Home::Slot(_)));
        let wide_tid = Epoch::new(1, Tid(1 << TID_BITS));
        assert_eq!(
            Solo {
                epoch: wide_tid,
                ..zero
            }
            .pack(),
            None
        );
        // A reference keeps the widest id and member index apart.
        let id = SlabId::from_bits(NonZeroU32::MAX);
        let last = (1 << MEMBER_BITS) - 1;
        match Slot::reference(id, last).home() {
            Home::Slab { cell, idx } => assert_eq!((cell, idx), (id, last)),
            Home::Slot(_) => panic!("a reference reads back as a reference"),
        }
    }

    #[test]
    fn an_unshared_epoch_cell_lives_in_its_slot() {
        let (mut ix, mut p) = (Index::new(), Plane::new(AccessKind::Read));
        let a = p.insert_private(
            &mut ix,
            Addr(0x100),
            epoch(1, 0),
            VcState::FirstEpochPrivate,
        );
        assert!(a.in_slot());
        assert_eq!((p.cell_count(), p.vc_bytes()), (1, CELL_BYTES));
        // Writes that keep it an unshared epoch keep it there.
        let a = p.update_clock(&mut ix, a, |c| c.set_write(Tid(3), 7));
        let a = p.set_state(&mut ix, a, VcState::Private);
        assert!(a.in_slot());
        assert_eq!(p.clock_view(a), epoch(7, 3).view());
        assert_eq!(p.cell(a).state, VcState::Private);
        // A neighbor joining moves it to the slab...
        let b = share(&mut ix, &mut p, 0x104, 0x100);
        assert!(!b.in_slot() && !at(&ix, &p, 0x100).in_slot());
        assert!(b.same_cell(at(&ix, &p, 0x100)));
        assert_eq!((p.cell_count(), p.vc_bytes()), (1, CELL_BYTES));
        p.check_invariants(&ix);
        // ...and the neighbor leaving moves it back.
        p.remove(&mut ix, Addr(0x104));
        let a = at(&ix, &p, 0x100);
        assert!(a.in_slot());
        assert!(p.cell(a).tainted, "it has been shared");
        assert_eq!((p.clock_count(), p.vc_allocs(), p.vc_frees()), (1, 1, 0));
        p.check_invariants(&ix);
    }

    #[test]
    fn a_field_that_does_not_fit_keeps_the_cell_in_the_slab() {
        let (mut ix, mut p) = (Index::new(), Plane::new(AccessKind::Read));
        let wide = Tid(1 << TID_BITS);
        let a = p.insert_private(
            &mut ix,
            Addr(0x100),
            AccessClock::Epoch(Epoch::new(1, wide)),
            VcState::Private,
        );
        assert!(!a.in_slot());
        p.check_invariants(&ix);
        // A write by a thread that fits moves it in; one that does not,
        // back out.
        let a = p.update_clock(&mut ix, a, |c| c.set_write(Tid(1), 2));
        assert!(a.in_slot());
        let a = p.update_clock(&mut ix, a, |c| c.set_write(wide, 3));
        assert!(!a.in_slot());
        assert_eq!((p.cell_count(), p.clock_count(), p.vc_allocs()), (1, 1, 1));
        p.check_invariants(&ix);
    }

    #[test]
    fn shared_insert_grows_group() {
        let (mut ix, mut p) = (Index::new(), Plane::new(AccessKind::Read));
        p.insert_private(&mut ix, Addr(0x100), epoch(1, 0), VcState::FirstEpochShared);
        let id2 = share(&mut ix, &mut p, 0x104, 0x100);
        let id3 = share(&mut ix, &mut p, 0x108, 0x104);
        assert!(id2.same_cell(id3) && id3.same_cell(at(&ix, &p, 0x100)));
        assert_eq!(p.cell(id3).count, 3);
        assert_eq!(p.cell_count(), 1);
        assert_eq!(p.loc_count(&ix), 3);
        assert_eq!(
            p.group_members(&ix, Addr(0x104)),
            vec![Addr(0x100), Addr(0x104), Addr(0x108)]
        );
        assert_eq!(p.max_group(), 3);
    }

    #[test]
    fn split_detaches_one_member() {
        let (mut ix, mut p) = (Index::new(), Plane::new(AccessKind::Read));
        p.insert_private(&mut ix, Addr(0x100), epoch(1, 0), VcState::FirstEpochShared);
        share(&mut ix, &mut p, 0x104, 0x100);
        share(&mut ix, &mut p, 0x108, 0x104);
        // Split the middle member.
        let (new_id, split) = split(&mut ix, &mut p, 0x104);
        assert!(split);
        assert_eq!(p.cell(new_id).count, 1);
        assert_eq!(p.group_members(&ix, Addr(0x104)), vec![Addr(0x104)]);
        assert_eq!(
            p.group_members(&ix, Addr(0x100)),
            vec![Addr(0x100), Addr(0x108)]
        );
        assert_eq!(p.cell_count(), 2);
        // Splitting a private location is a no-op.
        let (same, split2) = p.split(&mut ix, new_id);
        assert!(!split2);
        assert_eq!(same, new_id);
    }

    #[test]
    fn split_is_a_refcount_bump_not_a_copy() {
        let (mut ix, mut p) = (Index::new(), Plane::new(AccessKind::Read));
        p.insert_private(&mut ix, Addr(0x100), epoch(1, 0), VcState::FirstEpochShared);
        share(&mut ix, &mut p, 0x104, 0x100);
        let allocs_before = p.vc_allocs();
        let (new_id, split) = split(&mut ix, &mut p, 0x104);
        assert!(split);
        assert_eq!(p.vc_allocs(), allocs_before, "split must not allocate");
        assert_eq!(p.clock_count(), 1, "both cells share one clock value");
        assert_eq!(p.clock_refs(new_id), 2);
        assert!(
            !new_id.in_slot() && !at(&ix, &p, 0x100).in_slot(),
            "a shared arena reference keeps both cells in the slab"
        );
        assert_eq!(p.cell_count(), 2);
        p.check_invariants(&ix);
    }

    #[test]
    fn update_clock_copies_on_write_when_shared() {
        let (mut ix, mut p) = (Index::new(), Plane::new(AccessKind::Read));
        p.insert_private(&mut ix, Addr(0x100), epoch(1, 0), VcState::FirstEpochShared);
        share(&mut ix, &mut p, 0x104, 0x100);
        let (split_id, _) = split(&mut ix, &mut p, 0x104);
        assert_eq!(p.clock_refs(split_id), 2);
        // Writing the split-off cell's clock must not disturb the group.
        let split_id = p.update_clock(&mut ix, split_id, |c| *c = epoch(9, 1));
        let gid = at(&ix, &p, 0x100);
        assert_eq!(p.clock_view(split_id), epoch(9, 1).view());
        assert_eq!(
            p.clock_view(gid),
            epoch(1, 0).view(),
            "group clock untouched"
        );
        assert!(split_id.in_slot(), "the copy is an unshared epoch");
        assert_eq!(p.clock_refs(split_id), 1);
        assert_eq!(p.clock_refs(gid), 1);
        assert_eq!(p.clock_count(), 2);
        assert_eq!(p.vc_allocs(), 2, "the copy is the one new logical clock");
        p.check_invariants(&ix);
    }

    #[test]
    fn epoch_clock_moves_between_cell_and_arena() {
        let (mut ix, mut p) = (Index::new(), Plane::new(AccessKind::Read));
        p.insert_private(&mut ix, Addr(0x100), epoch(1, 0), VcState::FirstEpochShared);
        share(&mut ix, &mut p, 0x104, 0x100);
        share(&mut ix, &mut p, 0x108, 0x100);
        assert!(
            p.clock_is_inline(at(&ix, &p, 0x100)),
            "an unshared epoch lives in its cell"
        );
        // Split promotes the inline group clock: one logical clock, two
        // holders, nothing allocated.
        let (split_id, _) = split(&mut ix, &mut p, 0x104);
        assert!(!p.clock_is_inline(at(&ix, &p, 0x100)) && !p.clock_is_inline(split_id));
        assert_eq!((p.clock_count(), p.vc_allocs()), (1, 1));
        // Copy-on-write leaves the writer with a fresh inline clock and
        // the group as the entry's sole holder...
        let split_id = p.update_clock(&mut ix, split_id, |c| c.set_write(Tid(1), 9));
        assert!(p.clock_is_inline(split_id));
        let gid = at(&ix, &p, 0x100);
        assert_eq!((p.clock_refs(gid), p.clock_is_inline(gid)), (1, false));
        p.check_invariants(&ix);
        // ...which moves back inline at the group's own next write.
        let gid = p.update_clock(&mut ix, gid, |c| c.set_write(Tid(0), 2));
        assert!(p.clock_is_inline(gid) && !gid.in_slot());
        assert_eq!((p.clock_count(), p.vc_allocs(), p.vc_frees()), (2, 2, 0));
        p.check_invariants(&ix);
    }

    #[test]
    fn last_sharer_freed_leaves_one_logical_clock() {
        let (mut ix, mut p) = (Index::new(), Plane::new(AccessKind::Read));
        p.insert_private(&mut ix, Addr(0x100), epoch(1, 0), VcState::FirstEpochShared);
        share(&mut ix, &mut p, 0x104, 0x100);
        split(&mut ix, &mut p, 0x104);
        p.remove(&mut ix, Addr(0x104));
        assert_eq!(
            (p.clock_count(), p.vc_frees()),
            (1, 0),
            "the clock survives"
        );
        // Arena entries have no back pointers: the survivor stays in the
        // slab, holding the entry alone, until its next write.
        let gid = at(&ix, &p, 0x100);
        assert_eq!((gid.in_slot(), p.clock_refs(gid)), (false, 1));
        assert_eq!(p.clock_view(gid), epoch(1, 0).view());
        p.check_invariants(&ix);
        let gid = p.update_clock(&mut ix, gid, |c| c.set_write(Tid(0), 2));
        assert!(gid.in_slot());
        p.check_invariants(&ix);
        p.remove(&mut ix, Addr(0x100));
        assert_eq!((p.clock_count(), p.vc_frees()), (0, 1));
        p.check_invariants(&ix);
    }

    #[test]
    fn vector_clock_lives_in_the_arena_until_it_deflates() {
        let (mut ix, mut p) = (Index::new(), Plane::new(AccessKind::Read));
        let id = p.insert_private(&mut ix, Addr(0x100), epoch(1, 0), VcState::Private);
        let now = VectorClock::from_slice(&[0, 3]);
        let id = p.update_clock(&mut ix, id, |c| assert!(c.record_read(Tid(1), &now)));
        assert!(!p.clock_is_inline(id) && !id.in_slot());
        assert_eq!(
            (p.clock_count(), p.vc_allocs()),
            (1, 1),
            "same logical clock"
        );
        p.check_invariants(&ix);
        let id = p.update_clock(&mut ix, id, |c| c.set_write(Tid(1), 4));
        assert!(p.clock_is_inline(id) && id.in_slot());
        assert_eq!((p.clock_count(), p.vc_allocs(), p.vc_frees()), (1, 1, 0));
        p.check_invariants(&ix);
    }

    #[test]
    fn rejoin_moves_private_into_group() {
        let (mut ix, mut p) = (Index::new(), Plane::new(AccessKind::Read));
        p.insert_private(&mut ix, Addr(0x100), epoch(3, 0), VcState::Private);
        let own = p.insert_private(&mut ix, Addr(0x104), epoch(3, 0), VcState::Private);
        let n = at(&ix, &p, 0x100);
        let id = p.rejoin(&mut ix, own, n);
        assert!(id.same_cell(at(&ix, &p, 0x100)));
        assert_eq!(p.cell(id).count, 2);
        assert_eq!(p.cell_count(), 1);
        assert_eq!(p.vc_frees(), 1);
        assert_eq!(
            p.group_members(&ix, Addr(0x100)),
            vec![Addr(0x100), Addr(0x104)]
        );
        p.check_invariants(&ix);
    }

    #[test]
    fn update_clock_tracks_bytes() {
        let (mut ix, mut p) = (Index::new(), Plane::new(AccessKind::Read));
        let id = p.insert_private(&mut ix, Addr(0x100), epoch(1, 0), VcState::Private);
        let small = p.vc_bytes();
        let id = p.update_clock(&mut ix, id, |c| {
            let mut vc = VectorClock::new();
            vc.set(Tid(0), 1);
            vc.set(Tid(7), 3);
            *c = AccessClock::Vc(vc);
        });
        assert!(p.vc_bytes() > small);
        p.update_clock(&mut ix, id, |c| *c = epoch(2, 0));
        assert_eq!(p.vc_bytes(), small);
    }

    #[test]
    fn remove_updates_group_and_counts() {
        let (mut ix, mut p) = (Index::new(), Plane::new(AccessKind::Read));
        p.insert_private(&mut ix, Addr(0x100), epoch(1, 0), VcState::FirstEpochShared);
        share(&mut ix, &mut p, 0x104, 0x100);
        share(&mut ix, &mut p, 0x108, 0x104);
        p.remove(&mut ix, Addr(0x104));
        assert_eq!(p.loc_count(&ix), 2);
        assert_eq!(p.cell_count(), 1);
        assert_eq!(p.cell(at(&ix, &p, 0x100)).count, 2);
        assert_eq!(
            p.group_members(&ix, Addr(0x100)),
            vec![Addr(0x100), Addr(0x108)]
        );
        p.remove(&mut ix, Addr(0x100));
        p.remove(&mut ix, Addr(0x108));
        assert_eq!(p.cell_count(), 0);
        assert_eq!(p.clock_count(), 0);
        assert_eq!(p.vc_bytes(), 0);
    }

    #[test]
    fn remove_range_clears_span() {
        let (mut ix, mut p) = (Index::new(), Plane::new(AccessKind::Read));
        p.insert_private(&mut ix, Addr(0x100), epoch(1, 0), VcState::FirstEpochShared);
        share(&mut ix, &mut p, 0x104, 0x100);
        p.insert_private(&mut ix, Addr(0x200), epoch(2, 0), VcState::Private);
        p.insert_private(&mut ix, Addr(0x1f0), epoch(2, 0), VcState::Private);
        ix.remove_range([&mut p], Addr(0x100), 0x100);
        assert_eq!(p.loc_count(&ix), 1);
        assert_eq!(p.lookup(&ix, Addr(0x100)), None);
        assert_eq!(p.lookup(&ix, Addr(0x104)), None);
        assert_eq!(p.lookup(&ix, Addr(0x1f0)), None);
        assert!(p.lookup(&ix, Addr(0x200)).is_some());
        assert_eq!(p.cell_count(), 1);
        assert_eq!((p.clock_count(), p.vc_bytes()), (1, CELL_BYTES));
        p.check_invariants(&ix);
    }

    #[test]
    fn remove_range_past_the_top_of_the_address_space() {
        let top = u64::MAX - 3;
        let (mut ix, mut p) = (Index::new(), Plane::new(AccessKind::Read));
        p.insert_private(
            &mut ix,
            Addr(top - 4),
            epoch(1, 0),
            VcState::FirstEpochShared,
        );
        share(&mut ix, &mut p, top, top - 4);
        share(&mut ix, &mut p, top - 8, top - 4);
        p.insert_private(&mut ix, Addr(0x100), epoch(1, 0), VcState::Private);
        // [top, top + 64) runs off the end: it ends at the top, it does
        // not wrap around to 0x100.
        ix.remove_range([&mut p], Addr(top), 64);
        assert_eq!(p.loc_count(&ix), 3);
        assert_eq!(
            p.group_members(&ix, Addr(top - 4)),
            vec![Addr(top - 8), Addr(top - 4)]
        );
        p.check_invariants(&ix);
        ix.remove_range([&mut p], Addr(top - 8), u64::MAX);
        assert_eq!((p.loc_count(&ix), p.cell_count()), (1, 1));
        p.check_invariants(&ix);
    }

    #[test]
    fn remove_range_compacts_boundary_spanning_group() {
        // Group {0xfc, 0x100, 0x104, 0x108}; free [0x100, 0x108): the
        // two inner members go, the outer two must stay a valid group.
        let (mut ix, mut p) = (Index::new(), Plane::new(AccessKind::Read));
        p.insert_private(&mut ix, Addr(0xfc), epoch(1, 0), VcState::FirstEpochShared);
        share(&mut ix, &mut p, 0x100, 0xfc);
        share(&mut ix, &mut p, 0x104, 0x100);
        share(&mut ix, &mut p, 0x108, 0x104);
        ix.remove_range([&mut p], Addr(0x100), 8);
        assert_eq!(p.loc_count(&ix), 2);
        assert_eq!(p.cell(at(&ix, &p, 0xfc)).count, 2);
        assert_eq!(
            p.group_members(&ix, Addr(0xfc)),
            vec![Addr(0xfc), Addr(0x108)]
        );
        assert_eq!(
            p.group_members(&ix, Addr(0x108)),
            p.group_members(&ix, Addr(0xfc))
        );
        // Splitting a survivor still works (indices were compacted).
        let (nid, split) = split(&mut ix, &mut p, 0x108);
        assert!(split);
        assert_eq!(p.cell(nid).count, 1);
        assert_eq!(p.group_members(&ix, Addr(0xfc)), vec![Addr(0xfc)]);
        p.check_invariants(&ix);
    }

    #[test]
    fn partial_free_down_to_one_member_moves_the_cell_into_its_slot() {
        let (mut ix, mut p) = (Index::new(), Plane::new(AccessKind::Read));
        p.insert_private(&mut ix, Addr(0xfc), epoch(1, 0), VcState::FirstEpochShared);
        share(&mut ix, &mut p, 0x100, 0xfc);
        share(&mut ix, &mut p, 0x104, 0x100);
        ix.remove_range([&mut p], Addr(0x100), 8);
        let left = at(&ix, &p, 0xfc);
        assert!(left.in_slot());
        assert_eq!(p.cell(left).state, VcState::FirstEpochShared);
        assert_eq!(
            (p.loc_count(&ix), p.cell_count(), p.clock_count()),
            (1, 1, 1)
        );
        p.check_invariants(&ix);
    }

    #[test]
    fn neighbor_search_delegates_to_table() {
        let (mut ix, mut p) = (Index::new(), Plane::new(AccessKind::Read));
        p.insert_private(&mut ix, Addr(0x100), epoch(1, 0), VcState::Private);
        p.insert_private(&mut ix, Addr(0x110), epoch(1, 0), VcState::Private);
        assert_eq!(
            p.nearest_predecessor(&ix, Addr(0x110), 64),
            p.lookup(&ix, Addr(0x100))
        );
        assert_eq!(
            p.nearest_successor(&ix, Addr(0x100), 64),
            p.lookup(&ix, Addr(0x110))
        );
        assert_eq!(p.nearest_predecessor(&ix, Addr(0x100), 64), None);
    }

    #[test]
    fn snapshot_reflects_group() {
        let (mut ix, mut p) = (Index::new(), Plane::new(AccessKind::Read));
        p.insert_private(&mut ix, Addr(0x100), epoch(5, 1), VcState::FirstEpochShared);
        share(&mut ix, &mut p, 0x101, 0x100);
        let snap = p.snapshot(&ix, Addr(0x101)).unwrap();
        assert_eq!(snap.state, VcState::FirstEpochShared);
        assert_eq!(snap.clock, epoch(5, 1));
        assert_eq!(snap.members, vec![Addr(0x100), Addr(0x101)]);
        assert!(p.snapshot(&ix, Addr(0x999)).is_none());
    }

    #[test]
    fn split_patches_swapped_member_index() {
        let (mut ix, mut p) = (Index::new(), Plane::new(AccessKind::Read));
        p.insert_private(&mut ix, Addr(0x100), epoch(1, 0), VcState::FirstEpochShared);
        share(&mut ix, &mut p, 0x104, 0x100);
        share(&mut ix, &mut p, 0x108, 0x100);
        share(&mut ix, &mut p, 0x10c, 0x100);
        // Remove a middle member; the last member is swapped into its
        // index and must remain splittable.
        let (_, s1) = split(&mut ix, &mut p, 0x104);
        assert!(s1);
        let (_, s2) = split(&mut ix, &mut p, 0x10c);
        assert!(s2);
        assert_eq!(
            p.group_members(&ix, Addr(0x100)),
            vec![Addr(0x100), Addr(0x108)]
        );
    }

    fn encoded(ix: &Index, p: &Plane) -> Vec<u8> {
        let mut w = SnapshotWriter::new(*b"TEST", 1);
        p.encode(ix, &mut w);
        w.finish()
    }

    fn decoded(bytes: &[u8]) -> Result<(Index, Plane), TraceError> {
        let mut r = SnapshotReader::new(bytes, *b"TEST", 1, Default::default()).unwrap();
        let mut ix = Index::new();
        let p = Plane::decode(&mut r, &mut ix, AccessKind::Read)?;
        r.expect_end()?;
        Ok((ix, p))
    }

    #[test]
    fn encode_decode_round_trips_cow_sharing() {
        let (mut ix, mut p) = (Index::new(), Plane::new(AccessKind::Read));
        p.insert_private(&mut ix, Addr(0x100), epoch(1, 0), VcState::FirstEpochShared);
        share(&mut ix, &mut p, 0x104, 0x100);
        share(&mut ix, &mut p, 0x108, 0x104);
        // A split leaves two cells sharing one arena entry (CoW state).
        let (split_id, _) = split(&mut ix, &mut p, 0x104);
        assert_eq!(p.clock_refs(split_id), 2);
        // One cell in its slot, and one whose thread id keeps it out.
        p.insert_private(&mut ix, Addr(0x300), epoch(7, 1), VcState::Private);
        p.insert_private(
            &mut ix,
            Addr(0x304),
            epoch(7, 1 << TID_BITS),
            VcState::Private,
        );

        let bytes = encoded(&ix, &p);
        let (qx, q) = decoded(&bytes).unwrap();
        q.check_invariants(&qx);
        assert_eq!(q.loc_count(&qx), p.loc_count(&ix));
        assert_eq!(q.cell_count(), p.cell_count());
        assert_eq!(q.clock_count(), p.clock_count());
        assert_eq!(q.vc_bytes(), p.vc_bytes());
        assert_eq!(q.vc_allocs(), p.vc_allocs());
        assert_eq!(q.max_group(), p.max_group());
        assert_eq!(
            q.clock_refs(at(&qx, &q, 0x104)),
            2,
            "CoW sharing survives the round trip"
        );
        assert_eq!(
            q.group_members(&qx, Addr(0x100)),
            vec![Addr(0x100), Addr(0x108)]
        );
        assert!(at(&qx, &q, 0x300).in_slot() && !at(&qx, &q, 0x304).in_slot());
        // Canonical: re-encoding the restored plane is byte-identical.
        assert_eq!(encoded(&qx, &q), bytes);
    }

    #[test]
    fn encoding_is_independent_of_slab_history_and_of_where_a_cell_lives() {
        // Two groups, created in either order (so their slab ids swap),
        // and a location whose neighbor came and went: detached, which
        // moves the survivor's cell back into its slot, or split off
        // first, which leaves the survivor in the slab as the sole
        // holder of an arena epoch.
        let build = |low_first: bool, split_first: bool| {
            let (mut ix, mut p) = (Index::new(), Plane::new(AccessKind::Read));
            let bases = if low_first {
                [0x400, 0x500]
            } else {
                [0x500, 0x400]
            };
            for base in bases {
                p.insert_private(&mut ix, Addr(base), epoch(1, 0), VcState::FirstEpochShared);
                share(&mut ix, &mut p, base + 4, base);
            }
            p.insert_private(&mut ix, Addr(0x300), epoch(1, 0), VcState::FirstEpochShared);
            share(&mut ix, &mut p, 0x304, 0x300);
            if split_first {
                split(&mut ix, &mut p, 0x304);
            }
            p.remove(&mut ix, Addr(0x304));
            p.check_invariants(&ix);
            (ix, p)
        };
        let ((ax, a), (bx, b)) = (build(true, false), build(false, true));
        assert!(at(&ax, &a, 0x300).in_slot() && !at(&bx, &b, 0x300).in_slot());
        assert_eq!(encoded(&ax, &a), encoded(&bx, &b));
        let (rx, restored) = decoded(&encoded(&bx, &b)).unwrap();
        restored.check_invariants(&rx);
        assert!(at(&rx, &restored, 0x300).in_slot());
    }

    /// One cell as the wire has it: clock 0, `Private`, one location.
    fn wire_cell(w: &mut SnapshotWriter, members: &[u64]) {
        w.u32(0);
        w.u8(state_tag(VcState::Private));
        w.u32(members.len().max(1) as u32);
        w.bool(false);
        w.count(members.len());
        for m in members {
            w.u64(*m);
        }
    }

    fn wire_tail(w: &mut SnapshotWriter, cells: u64) {
        w.count(0); // byte-mode chunks
        w.u64(cells * CELL_BYTES as u64);
        w.u64(1); // vc_allocs
        w.u64(0); // vc_frees
        w.u32(0);
    }

    #[test]
    fn decode_accepts_cells_in_any_order() {
        // Cells numbered in slab order, whatever the address order: the
        // decoder places each by its value, not by its number.
        let mut w = SnapshotWriter::new(*b"TEST", 1);
        w.count(2);
        for c in [5, 6] {
            encode_access_clock(&mut w, &epoch(c, 0));
            w.u32(1);
        }
        w.count(2);
        wire_cell(&mut w, &[]);
        w.u32(1); // second cell: clock 1
        w.u8(state_tag(VcState::Race));
        w.u32(1);
        w.bool(true);
        w.count(0);
        w.count(2);
        for (addr, cell) in [(0x100u64, 1u32), (0x200, 0)] {
            w.u64(addr);
            w.u32(cell);
            w.u32(0);
        }
        w.count(0);
        w.u64(2 * CELL_BYTES as u64);
        w.u64(2);
        w.u64(0);
        w.u32(2);
        let (ix, p) = decoded(&w.finish()).unwrap();
        p.check_invariants(&ix);
        let (a, b) = (at(&ix, &p, 0x100), at(&ix, &p, 0x200));
        assert!(a.in_slot() && b.in_slot());
        assert_eq!(
            p.cell(a),
            CellView {
                clock: epoch(6, 0).view(),
                state: VcState::Race,
                count: 1,
                tainted: true,
            }
        );
        assert_eq!(p.clock_view(b), epoch(5, 0).view());
        assert_eq!(p.group_members(&ix, Addr(0x200)), vec![Addr(0x200)]);
    }

    #[test]
    fn decode_refuses_a_member_list_that_is_not_the_cells_locations() {
        // A cell of one location that lists it, and a group of two that
        // lists one.
        for (count, members) in [(1u32, &[0x200u64][..]), (2, &[0x200][..])] {
            let mut w = SnapshotWriter::new(*b"TEST", 1);
            w.count(1);
            encode_access_clock(&mut w, &epoch(1, 0));
            w.u32(1);
            w.count(1);
            w.u32(0);
            w.u8(state_tag(VcState::Private));
            w.u32(count);
            w.bool(false);
            w.count(members.len());
            for m in members {
                w.u64(*m);
            }
            assert!(matches!(
                decoded(&w.finish()),
                Err(TraceError::Malformed { what, .. }) if what.contains("member list")
            ));
        }
    }

    #[test]
    fn decode_rejects_dangling_references() {
        let mut w = SnapshotWriter::new(*b"TEST", 1);
        w.count(0); // no clocks
        w.count(1); // one cell...
        w.u32(5); // ...referencing clock 5
        assert!(matches!(
            decoded(&w.finish()),
            Err(TraceError::Malformed { .. })
        ));
    }

    #[test]
    fn decode_rejects_refcounts_that_disagree_with_the_cells() {
        // An rc-1 epoch held by two cells, then an rc-2 one held by one.
        for (rc, cells, why) in [(1, 2, "more cells"), (2, 1, "exceeds the cells")] {
            let mut w = SnapshotWriter::new(*b"TEST", 1);
            w.count(1);
            encode_access_clock(&mut w, &epoch(1, 0));
            w.u32(rc);
            w.count(cells);
            for _ in 0..cells {
                wire_cell(&mut w, &[]);
            }
            w.count(0); // no locations
            assert!(matches!(
                decoded(&w.finish()),
                Err(TraceError::Malformed { what, .. }) if what.contains(why)
            ));
        }
    }

    #[test]
    fn decode_rejects_locations_that_disagree_with_their_cell() {
        // A cell of one location named by two, by none, and at a member
        // index it cannot have.
        for (locs, why) in [
            (&[(0x100u64, 0u32), (0x104, 0)][..], "disagrees"),
            (&[][..], "no location"),
            (&[(0x100, 1)][..], "disagrees"),
        ] {
            let mut w = SnapshotWriter::new(*b"TEST", 1);
            w.count(1);
            encode_access_clock(&mut w, &epoch(1, 0));
            w.u32(1);
            w.count(1);
            wire_cell(&mut w, &[]);
            w.count(locs.len());
            for &(addr, idx) in locs {
                w.u64(addr);
                w.u32(0);
                w.u32(idx);
            }
            wire_tail(&mut w, 1);
            assert!(matches!(
                decoded(&w.finish()),
                Err(TraceError::Malformed { what, .. }) if what.contains(why)
            ));
        }
    }

    #[test]
    fn decode_rejects_counters_that_disagree_with_the_clock_table() {
        let mut w = SnapshotWriter::new(*b"TEST", 1);
        for _ in 0..3 {
            w.count(0); // no clocks, cells, locations
        }
        // One live clock the table does not hold.
        wire_tail(&mut w, 0);
        assert!(matches!(
            decoded(&w.finish()),
            Err(TraceError::Malformed { .. })
        ));
    }
}
