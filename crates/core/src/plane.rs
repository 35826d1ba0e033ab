//! A shadow plane: one shadow store of locations whose cells may be
//! shared.
//!
//! The detector keeps two planes — one for read locations, one for write
//! locations — because "only the same access type (read or write) of
//! vector clocks can be shared" (§III.A).
//!
//! A *location* is a populated slot in the shadow store; its payload is a
//! [`SlabId`] pointing into the plane's cell slab plus the location's
//! index in its group's member list (8 bytes, and `SlabId`'s niche keeps
//! the store's `Option` slot at 8). Each shared cell records its member
//! addresses (`members`), because a race dissolves the whole group ("the
//! sharing is terminated and each of these locations become Race and is
//! assigned with a private vector clock"). Singleton groups keep
//! `members` empty — the sole member is implicit — so private locations
//! (the common case) never allocate a member list. All group operations
//! are O(1) except dissolution and compaction after a partial free,
//! which are O(group size).
//!
//! # Where a clock lives
//!
//! A *logical clock* is one clock value, however many cells read it. It
//! lives in exactly one of two places:
//!
//! * **Inline in its cell** (`ClockSlot::Own`) when it is in epoch form
//!   and exactly one cell holds it — FastTrack's common case. Reading it
//!   is the cell load the access already paid for; writing it stores
//!   eight bytes.
//! * **In the refcounted copy-on-write arena** (`ClockSlot::Arena`) when
//!   several cells hold it or it is a full vector clock. `rc` counts the
//!   cells holding the entry's id.
//!
//! Group *split* (and the lazy dissolve built on it) hands the split-off
//! cell a reference to the group's clock instead of a copy: an inline
//! clock is first *promoted* to an arena entry (`rc` 2 — the same logical
//! clock, moved), an arena clock gets a refcount bump. The two cells share
//! the immutable value until either next *writes* its clock, when
//! [`PlaneOn::update_clock`] copies it (copy-on-write) into a fresh
//! logical clock. Members that are never touched again (the common fate
//! of a dissolved group's bystanders) never pay for a copy. The other
//! transitions also happen in `update_clock`: a read clock that inflates
//! to a vector moves into the arena, and an entry whose last other sharer
//! has gone, or whose vector deflated, moves back inline the next time
//! its cell writes it. Readers go through [`PlaneOn::clock_view`], which
//! returns an epoch by value and never touches the arena for one.
//!
//! Moving a logical clock between the two places neither creates nor
//! destroys one, so every reported counter means what it meant when all
//! clocks were arena entries: `vc_allocs`/`vc_frees` count logical clocks
//! created and destroyed, [`PlaneOn::clock_count`] is the live logical
//! clocks (arena entries + inline clocks, always `vc_allocs - vc_frees`),
//! and the modeled bytes depend on cells and vector payloads only.
//!
//! A single index slot holding both the read and the write cell of an
//! address was measured as well: 1.2x faster again on the `scatter`
//! ledger workload (one probe instead of two), but peak RSS grew 13.7 %
//! on `stream` and 22 % on `aot`, where most addresses are only ever
//! written or only ever read and the merged slot doubles their index
//! cost. The planes keep their own stores.
//!
//! Invariants (checked by [`PlaneOn::check_invariants`]):
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
//!   cell) + one out-of-line payload (`16 + 4·width`) per live logical
//!   clock in full-VC form — shared payloads are charged once.

use dgrace_detectors::snap::{decode_access_clock, encode_access_clock};
use dgrace_shadow::accounting::vc_cell_bytes;
use dgrace_shadow::store::{ShadowStore, StoreSelect};
use dgrace_shadow::{FastMap, HashSelect, Slab, SlabId};
use dgrace_trace::{Addr, SnapshotReader, SnapshotWriter, TraceError};
use dgrace_vc::{AccessClock, ClockView, Epoch};

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

/// A shared vector-clock cell: the paper's `{vector clock, state, count}`
/// triple plus the member list needed by `splitAndSetRace`.
#[derive(Clone, Debug)]
pub struct Cell {
    /// The access clock (epoch or full vector clock).
    clock: ClockSlot,
    /// Sharing state (Fig. 2).
    pub state: VcState,
    /// Number of locations sharing this cell (`L.count` in Fig. 3).
    pub count: u32,
    /// `true` once this clock has ever been shared (directly or via a
    /// split-off copy): its value may summarize *neighbors'* accesses,
    /// so a race it witnesses may be a sharing artifact. Surfaced in
    /// race reports as a "verify this one" diagnostic.
    pub tainted: bool,
    /// Extra post-second-epoch sharing attempts consumed (§VII #2).
    pub redecisions: u8,
    /// Member addresses when shared; empty for singletons.
    members: Vec<Addr>,
}

#[derive(Clone, Copy, Debug)]
struct Loc {
    cell: SlabId,
    /// Index in the cell's member list (0 for singletons).
    idx: u32,
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

/// One shadow plane (read or write locations), generic over the shadow
/// store selected by `K`.
#[derive(Debug, Default)]
pub struct PlaneOn<K: StoreSelect> {
    table: K::Store<Loc>,
    cells: Slab<Cell>,
    clocks: Slab<ClockEntry>,
    vc_bytes: usize,
    vc_allocs: u64,
    vc_frees: u64,
    max_group: u32,
}

/// The default plane, backed by the chained-hash [`ShadowTable`]
/// (`dgrace_shadow::ShadowTable`).
pub type Plane = PlaneOn<HashSelect>;

impl<K: StoreSelect> PlaneOn<K> {
    /// Creates an empty plane.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cell id of `addr`, if the location exists.
    pub fn lookup(&self, addr: Addr) -> Option<SlabId> {
        self.table.get(addr).map(|l| l.cell)
    }

    /// Borrows a cell.
    pub fn cell(&self, id: SlabId) -> &Cell {
        self.cells.get(id)
    }

    /// The clock of cell `id`: an epoch by value — from the cell itself
    /// when the clock is inline — or a borrowed vector clock.
    #[inline]
    pub fn clock_view(&self, id: SlabId) -> ClockView<'_> {
        match self.cells.get(id).clock {
            ClockSlot::Own(e) => ClockView::Epoch(e),
            ClockSlot::Arena(cid) => self.clocks.get(cid).clock.view(),
        }
    }

    /// How many cells currently share cell `id`'s clock value
    /// (diagnostics/testing).
    pub fn clock_refs(&self, id: SlabId) -> u32 {
        match self.cells.get(id).clock {
            ClockSlot::Own(_) => 1,
            ClockSlot::Arena(cid) => self.clocks.get(cid).rc,
        }
    }

    /// Whether cell `id`'s clock is stored in the cell rather than in the
    /// arena (diagnostics/testing).
    pub fn clock_is_inline(&self, id: SlabId) -> bool {
        matches!(self.cells.get(id).clock, ClockSlot::Own(_))
    }

    /// Mutates a cell's clock, keeping byte accounting consistent. If the
    /// cell shares its clock value with other cells (after a split or
    /// dissolve), the value is copied on write into a fresh logical
    /// clock. Whatever `f` leaves behind is stored where the module docs
    /// say it lives: inline unless it is a vector.
    pub fn update_clock(&mut self, id: SlabId, f: impl FnOnce(&mut AccessClock)) {
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
    }

    /// Sets a cell's state.
    pub fn set_state(&mut self, id: SlabId, state: VcState) {
        self.cells.get_mut(id).state = state;
    }

    /// Consumes one post-second-epoch sharing attempt (§VII #2).
    pub fn bump_redecisions(&mut self, id: SlabId) {
        self.cells.get_mut(id).redecisions += 1;
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

    fn alloc_cell(&mut self, clock: ClockSlot, state: VcState) -> SlabId {
        self.vc_bytes += CELL_BYTES;
        self.cells.alloc(Cell {
            clock,
            state,
            count: 1,
            tainted: false,
            redecisions: 0,
            members: Vec::new(),
        })
    }

    fn free_cell(&mut self, id: SlabId) {
        let freed = self.cells.free(id);
        self.vc_bytes -= CELL_BYTES;
        self.release_clock(freed.clock);
    }

    /// Creates a brand-new private location.
    pub fn insert_private(&mut self, addr: Addr, clock: AccessClock, state: VcState) -> SlabId {
        debug_assert!(self.table.get(addr).is_none(), "location already exists");
        let clock = self.new_clock(clock);
        let id = self.alloc_cell(clock, state);
        self.table.insert(addr, Loc { cell: id, idx: 0 });
        id
    }

    /// Appends `addr` to `neighbor`'s cell member list (`id` already
    /// resolved by the caller's neighbor search), returning `addr`'s
    /// member index. The caller writes `addr`'s `Loc`.
    fn join_members(&mut self, addr: Addr, neighbor: Addr, id: SlabId) -> u32 {
        debug_assert_eq!(self.table.get(neighbor).expect("neighbor exists").cell, id);
        let cell = self.cells.get_mut(id);
        if cell.members.is_empty() {
            // Singleton → explicit member list; the neighbor's implicit
            // index 0 becomes its real index 0.
            cell.members.push(neighbor);
        }
        cell.members.push(addr);
        let idx = (cell.members.len() - 1) as u32;
        cell.count += 1;
        cell.tainted = true;
        if cell.count > self.max_group {
            self.max_group = cell.count;
        }
        idx
    }

    /// Attaches `addr` to `neighbor`'s cell (`id`, already resolved by
    /// the caller's neighbor search). `addr` must not have a location
    /// yet.
    fn attach(&mut self, addr: Addr, neighbor: Addr, id: SlabId) -> SlabId {
        let idx = self.join_members(addr, neighbor, id);
        self.table.insert(addr, Loc { cell: id, idx });
        id
    }

    /// Creates location `addr` sharing `neighbor`'s cell (first-epoch
    /// temporary sharing). `nid` is the neighbor's cell id from the
    /// neighbor search.
    pub fn insert_shared(&mut self, addr: Addr, neighbor: Addr, nid: SlabId) -> SlabId {
        debug_assert!(self.table.get(addr).is_none(), "location already exists");
        self.attach(addr, neighbor, nid)
    }

    /// Re-points an *existing* private location at `neighbor`'s cell (the
    /// firm second-epoch sharing decision). The location's own cell is
    /// freed; it must not be shared (`count == 1`).
    pub fn rejoin(&mut self, addr: Addr, neighbor: Addr, nid: SlabId) -> SlabId {
        let loc = *self.table.get(addr).expect("location must exist");
        debug_assert_eq!(
            self.cells.get(loc.cell).count,
            1,
            "rejoin requires a private cell"
        );
        self.free_cell(loc.cell);
        // Re-point the existing location in place — the second-epoch
        // re-share sweep hits this once per member, and a hash
        // remove+insert pair here costs more than the rest of the join.
        let idx = self.join_members(addr, neighbor, nid);
        let l = self.table.get_mut(addr).expect("location must exist");
        l.cell = nid;
        l.idx = idx;
        nid
    }

    /// Moves an *existing* location into `neighbor`'s cell without
    /// allocating a clock: the affinity pre-seeded second-epoch path,
    /// which generalizes [`PlaneOn::rejoin`] to locations still inside a
    /// first-epoch group. A private source frees its cell (as `rejoin`);
    /// a grouped source detaches (the split the unseeded path would
    /// have paid, minus the temporary cell). Returns the new cell id and
    /// whether the location left a multi-member group.
    pub fn transfer(&mut self, addr: Addr, neighbor: Addr, nid: SlabId) -> (SlabId, bool) {
        let loc = *self.table.get(addr).expect("location must exist");
        debug_assert_ne!(loc.cell, nid, "transfer must change groups");
        let was_grouped = self.cells.get(loc.cell).count > 1;
        if was_grouped {
            self.detach(addr, loc.cell, loc.idx);
        } else {
            self.free_cell(loc.cell);
        }
        let idx = self.join_members(addr, neighbor, nid);
        let l = self.table.get_mut(addr).expect("location must exist");
        l.cell = nid;
        l.idx = idx;
        (nid, was_grouped)
    }

    /// Detaches `addr` from the member list of `cell_id`, patching the
    /// index of the member that `swap_remove` relocates.
    fn detach(&mut self, addr: Addr, cell_id: SlabId, idx: u32) {
        let cell = self.cells.get_mut(cell_id);
        debug_assert!(cell.count > 1 && !cell.members.is_empty());
        debug_assert_eq!(cell.members[idx as usize], addr);
        cell.members.swap_remove(idx as usize);
        cell.count -= 1;
        if (idx as usize) < cell.members.len() {
            let moved = cell.members[idx as usize];
            self.table.get_mut(moved).expect("moved member exists").idx = idx;
        }
    }

    /// Splits `addr` out of its sharing group: it receives a private
    /// *reference* to the group clock (the paper's `split(L, addr,
    /// size)`) — a refcount bump, not a copy, with an inline group clock
    /// promoted to the arena first; divergence is deferred to the next
    /// clock write. No-op for already-private locations. Returns the
    /// location's cell id after the split and whether a split actually
    /// happened.
    pub fn split(&mut self, addr: Addr) -> (SlabId, bool) {
        let loc = *self.table.get(addr).expect("location must exist");
        let group = self.cells.get(loc.cell);
        if group.count == 1 {
            return (loc.cell, false);
        }
        let (state, tainted) = (group.state, group.tainted);
        let shared = match group.clock {
            ClockSlot::Own(e) => {
                let shared = self.intern(AccessClock::Epoch(e), 2);
                self.cells.get_mut(loc.cell).clock = shared;
                shared
            }
            ClockSlot::Arena(cid) => {
                self.clocks.get_mut(cid).rc += 1;
                group.clock
            }
        };
        self.detach(addr, loc.cell, loc.idx);
        let new_id = self.alloc_cell(shared, state);
        self.cells.get_mut(new_id).tainted = tainted;
        let l = self.table.get_mut(addr).expect("loc");
        l.cell = new_id;
        l.idx = 0;
        (new_id, true)
    }

    /// Every member of `addr`'s sharing group (including `addr`), sorted.
    pub fn group_members(&self, addr: Addr) -> Vec<Addr> {
        let Some(loc) = self.table.get(addr) else {
            return vec![addr];
        };
        let cell = self.cells.get(loc.cell);
        if cell.members.is_empty() {
            vec![addr]
        } else {
            let mut m: Vec<Addr> = Vec::with_capacity(cell.members.len());
            m.extend_from_slice(&cell.members);
            m.sort_unstable();
            m
        }
    }

    /// A debugging snapshot of `addr`'s group.
    pub fn snapshot(&self, addr: Addr) -> Option<GroupSnapshot> {
        let id = self.lookup(addr)?;
        let cell = self.cell(id);
        Some(GroupSnapshot {
            clock: self.clock_view(id).to_clock(),
            state: cell.state,
            members: self.group_members(addr),
        })
    }

    /// Finds the nearest populated location strictly before `addr`
    /// (within `max_dist` bytes), returning its address and cell id.
    pub fn nearest_predecessor(&self, addr: Addr, max_dist: u64) -> Option<(Addr, SlabId)> {
        self.table
            .nearest_predecessor(addr, max_dist)
            .map(|(a, l)| (a, l.cell))
    }

    /// Finds the nearest populated location strictly after `addr`.
    pub fn nearest_successor(&self, addr: Addr, max_dist: u64) -> Option<(Addr, SlabId)> {
        self.table
            .nearest_successor(addr, max_dist)
            .map(|(a, l)| (a, l.cell))
    }

    /// Removes every location in `[base, base+len)`, freeing cells whose
    /// count drops to zero — `free()`'s shadow cleanup (§IV.B).
    ///
    /// Removal is chunk-wise (no per-address hash probes). Groups fully
    /// inside the range simply disappear; groups *spanning* the range
    /// boundary (rare — a program freeing part of a grouped structure)
    /// are compacted afterwards, which costs O(survivors) only for the
    /// affected cells.
    pub fn remove_range(&mut self, base: Addr, len: u64) {
        let end = base.0 + len;
        let cells = &mut self.cells;
        let mut emptied: Vec<SlabId> = Vec::new();
        let mut dirty: Vec<SlabId> = Vec::new();
        self.table.remove_range(base, len, |_, loc: Loc| {
            let cell = cells.get_mut(loc.cell);
            cell.count -= 1;
            if cell.count == 0 {
                emptied.push(loc.cell);
            } else if !dirty.contains(&loc.cell) {
                dirty.push(loc.cell);
            }
        });
        for id in emptied {
            self.free_cell(id);
        }
        // Compact surviving boundary-spanning groups: take the member
        // list out, patch the relocated indices, and put it back —
        // without cloning it.
        for id in dirty {
            if !self.cells.contains(id) {
                continue;
            }
            let cell = self.cells.get_mut(id);
            let mut members = std::mem::take(&mut cell.members);
            members.retain(|a| a.0 < base.0 || a.0 >= end);
            debug_assert_eq!(members.len(), cell.count as usize);
            for (i, a) in members.iter().enumerate() {
                self.table.get_mut(*a).expect("survivor exists").idx = i as u32;
            }
            self.cells.get_mut(id).members = members;
        }
    }

    /// Victim byte span for memory-budget eviction: one resident backing
    /// chunk of the index, chosen deterministically (see
    /// [`ShadowStore::victim_region`]). The caller evicts with
    /// [`Self::remove_range`].
    pub fn victim_region(&self) -> Option<(Addr, u64)> {
        self.table.victim_region()
    }

    /// Removes a single location.
    pub fn remove(&mut self, addr: Addr) {
        let Some(&loc) = self.table.get(addr) else {
            return;
        };
        if self.cells.get(loc.cell).count == 1 {
            self.free_cell(loc.cell);
        } else {
            self.detach(addr, loc.cell, loc.idx);
            // A group reduced to one member keeps its (now length-1)
            // member list; enumeration stays correct either way.
        }
        self.table.remove(addr);
    }

    /// Number of populated locations.
    pub fn loc_count(&self) -> usize {
        self.table.len()
    }

    /// Number of live cells (sharing groups).
    pub fn cell_count(&self) -> usize {
        self.cells.len()
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

    /// Modeled bytes of the indexing structure.
    pub fn hash_bytes(&self) -> usize {
        self.table.index_bytes()
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
    pub fn check_invariants(&self) {
        let mut per_cell: FastMap<SlabId, usize> = FastMap::default();
        let mut loc_count = 0usize;
        self.table.for_each(|addr, loc| {
            loc_count += 1;
            assert!(
                self.cells.contains(loc.cell),
                "location {addr:?} points at a dead cell"
            );
            *per_cell.entry(loc.cell).or_default() += 1;
            let cell = self.cells.get(loc.cell);
            if cell.members.is_empty() {
                assert_eq!(loc.idx, 0, "singleton {addr:?} has nonzero idx");
            } else {
                assert_eq!(
                    cell.members.get(loc.idx as usize),
                    Some(&addr),
                    "member index of {addr:?} is stale"
                );
            }
        });
        assert_eq!(loc_count, self.table.len(), "location count mismatch");
        assert_eq!(
            per_cell.values().sum::<usize>(),
            self.table.len(),
            "location count mismatch"
        );
        let mut bytes = 0usize;
        let mut inline = 0usize;
        let mut per_clock: FastMap<SlabId, u32> = FastMap::default();
        for (id, cell) in self.cells.iter() {
            let refs = per_cell.get(&id).copied().unwrap_or(0);
            assert_eq!(
                cell.count as usize, refs,
                "cell {id:?} count {} != {} referencing locations",
                cell.count, refs
            );
            assert!(refs > 0, "cell {id:?} is unreachable");
            if !cell.members.is_empty() {
                assert_eq!(
                    cell.members.len(),
                    refs,
                    "cell {id:?} member list out of sync"
                );
            }
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
        assert_eq!(self.cells.len(), self.cell_count());
    }

    /// Serializes the plane: a table of its logical clocks, then the
    /// cells, each naming its clock by table index. Cells are renumbered
    /// densely in slab-iteration order and the clock table is written in
    /// the order cells first reference its entries, an inline clock as an
    /// entry of refcount 1 — so equal planes encode to equal bytes
    /// regardless of slab free-list history or of where a clock happens
    /// to live, and the copy-on-write sharing structure (which cells
    /// hold which clock, and each clock's refcount) is preserved exactly.
    pub fn encode(&self, w: &mut SnapshotWriter) {
        let mut arena_dense: FastMap<SlabId, u32> = FastMap::default();
        let mut clock_of_cell: Vec<u32> = Vec::with_capacity(self.cells.len());
        let mut entries = 0u32;
        let mut entry = |w: &mut SnapshotWriter, clock: &AccessClock, rc: u32| {
            encode_access_clock(w, clock);
            w.u32(rc);
            entries += 1;
            entries - 1
        };
        w.count(self.clock_count());
        for (_, cell) in self.cells.iter() {
            clock_of_cell.push(match cell.clock {
                ClockSlot::Own(e) => entry(w, &AccessClock::Epoch(e), 1),
                ClockSlot::Arena(cid) => *arena_dense.entry(cid).or_insert_with(|| {
                    let shared = self.clocks.get(cid);
                    entry(w, &shared.clock, shared.rc)
                }),
            });
        }
        let mut cell_dense: FastMap<SlabId, u32> = FastMap::default();
        w.count(self.cells.len());
        for ((id, cell), clock) in self.cells.iter().zip(clock_of_cell) {
            let idx = cell_dense.len() as u32;
            cell_dense.insert(id, idx);
            w.u32(clock);
            w.u8(state_tag(cell.state));
            w.u32(cell.count);
            w.bool(cell.tainted);
            w.u8(cell.redecisions);
            w.count(cell.members.len());
            for m in &cell.members {
                w.u64(m.0);
            }
        }
        let mut locs: Vec<(Addr, Loc)> = Vec::with_capacity(self.table.len());
        self.table.for_each(|addr, loc| locs.push((addr, *loc)));
        locs.sort_unstable_by_key(|&(addr, _)| addr);
        w.count(locs.len());
        for (addr, loc) in locs {
            w.u64(addr.0);
            w.u32(cell_dense[&loc.cell]);
            w.u32(loc.idx);
        }
        let chunks = self.table.byte_mode_chunks();
        w.count(chunks.len());
        for chunk in chunks {
            w.u64(chunk.0);
        }
        w.u64(self.vc_bytes as u64);
        w.u64(self.vc_allocs);
        w.u64(self.vc_frees);
        w.u32(self.max_group);
    }

    /// Rebuilds a plane from [`PlaneOn::encode`]d bytes. Fresh slabs
    /// allocate sequential ids, so the dense indices in the stream map
    /// directly onto the ids handed back by `alloc`. An epoch-form clock
    /// of refcount 1 is restored inline, whichever place it was saved
    /// from; a refcount that differs from the number of cells naming the
    /// entry is rejected.
    pub fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, TraceError> {
        let mut plane = Self::default();
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
        let mut cell_ids = Vec::new();
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
            let redecisions = r.u8()?;
            let m = r.count("group members")?;
            let mut members = Vec::new();
            for _ in 0..m {
                members.push(Addr(r.u64()?));
            }
            cell_ids.push(plane.cells.alloc(Cell {
                clock,
                state,
                count,
                tainted,
                redecisions,
                members,
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
            let cell = *cell_ids.get(ci).ok_or(TraceError::Malformed {
                offset: at,
                what: "cell reference out of range",
            })?;
            let idx = r.u32()?;
            plane.table.insert(addr, Loc { cell, idx });
        }
        let chunks = r.count("byte-mode chunks")?;
        for _ in 0..chunks {
            plane.table.force_byte_mode(Addr(r.u64()?));
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

/// Wire tag of a [`VcState`].
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
    Ok(match tag {
        0 => VcState::FirstEpochPrivate,
        1 => VcState::FirstEpochShared,
        2 => VcState::Shared,
        3 => VcState::Private,
        4 => VcState::Race,
        tag => return Err(TraceError::BadTag { offset, tag }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgrace_vc::{Epoch, Tid};

    fn epoch(c: u32, t: u32) -> AccessClock {
        AccessClock::Epoch(Epoch::new(c, Tid(t)))
    }

    #[test]
    fn private_insert_lookup() {
        let mut p = Plane::new();
        let id = p.insert_private(Addr(0x100), epoch(1, 0), VcState::FirstEpochPrivate);
        assert_eq!(p.lookup(Addr(0x100)), Some(id));
        assert_eq!(p.cell(id).count, 1);
        assert_eq!(p.loc_count(), 1);
        assert_eq!(p.cell_count(), 1);
        assert_eq!(p.clock_count(), 1);
        assert!(p.vc_bytes() > 0);
    }

    #[test]
    fn shared_insert_grows_group() {
        let mut p = Plane::new();
        let id = p.insert_private(Addr(0x100), epoch(1, 0), VcState::FirstEpochShared);
        let id2 = p.insert_shared(Addr(0x104), Addr(0x100), p.lookup(Addr(0x100)).unwrap());
        let id3 = p.insert_shared(Addr(0x108), Addr(0x104), p.lookup(Addr(0x104)).unwrap());
        assert_eq!(id, id2);
        assert_eq!(id, id3);
        assert_eq!(p.cell(id).count, 3);
        assert_eq!(p.cell_count(), 1);
        assert_eq!(p.loc_count(), 3);
        assert_eq!(
            p.group_members(Addr(0x104)),
            vec![Addr(0x100), Addr(0x104), Addr(0x108)]
        );
        assert_eq!(p.max_group(), 3);
    }

    #[test]
    fn split_detaches_one_member() {
        let mut p = Plane::new();
        p.insert_private(Addr(0x100), epoch(1, 0), VcState::FirstEpochShared);
        p.insert_shared(Addr(0x104), Addr(0x100), p.lookup(Addr(0x100)).unwrap());
        p.insert_shared(Addr(0x108), Addr(0x104), p.lookup(Addr(0x104)).unwrap());
        // Split the middle member.
        let (new_id, split) = p.split(Addr(0x104));
        assert!(split);
        assert_eq!(p.cell(new_id).count, 1);
        assert_eq!(p.group_members(Addr(0x104)), vec![Addr(0x104)]);
        assert_eq!(p.group_members(Addr(0x100)), vec![Addr(0x100), Addr(0x108)]);
        assert_eq!(p.cell_count(), 2);
        // Splitting a private location is a no-op.
        let (same, split2) = p.split(Addr(0x104));
        assert!(!split2);
        assert_eq!(same, new_id);
    }

    #[test]
    fn split_is_a_refcount_bump_not_a_copy() {
        let mut p = Plane::new();
        p.insert_private(Addr(0x100), epoch(1, 0), VcState::FirstEpochShared);
        p.insert_shared(Addr(0x104), Addr(0x100), p.lookup(Addr(0x100)).unwrap());
        let allocs_before = p.vc_allocs();
        let (new_id, split) = p.split(Addr(0x104));
        assert!(split);
        assert_eq!(p.vc_allocs(), allocs_before, "split must not allocate");
        assert_eq!(p.clock_count(), 1, "both cells share one clock value");
        assert_eq!(p.clock_refs(new_id), 2);
        assert_eq!(p.cell_count(), 2);
        p.check_invariants();
    }

    #[test]
    fn update_clock_copies_on_write_when_shared() {
        let mut p = Plane::new();
        let gid = p.insert_private(Addr(0x100), epoch(1, 0), VcState::FirstEpochShared);
        p.insert_shared(Addr(0x104), Addr(0x100), gid);
        let (split_id, _) = p.split(Addr(0x104));
        assert_eq!(p.clock_refs(split_id), 2);
        // Writing the split-off cell's clock must not disturb the group.
        p.update_clock(split_id, |c| *c = epoch(9, 1));
        assert_eq!(p.clock_view(split_id), epoch(9, 1).view());
        assert_eq!(
            p.clock_view(gid),
            epoch(1, 0).view(),
            "group clock untouched"
        );
        assert_eq!(p.clock_refs(split_id), 1);
        assert_eq!(p.clock_refs(gid), 1);
        assert_eq!(p.clock_count(), 2);
        assert_eq!(p.vc_allocs(), 2, "the copy is the one new logical clock");
        p.check_invariants();
    }

    #[test]
    fn epoch_clock_moves_between_cell_and_arena() {
        let mut p = Plane::new();
        let gid = p.insert_private(Addr(0x100), epoch(1, 0), VcState::FirstEpochShared);
        p.insert_shared(Addr(0x104), Addr(0x100), gid);
        assert!(
            p.clock_is_inline(gid),
            "an unshared epoch lives in its cell"
        );
        // Split promotes the inline group clock: one logical clock, two
        // holders, nothing allocated.
        let (split_id, _) = p.split(Addr(0x104));
        assert!(!p.clock_is_inline(gid) && !p.clock_is_inline(split_id));
        assert_eq!((p.clock_count(), p.vc_allocs()), (1, 1));
        // Copy-on-write leaves the writer with a fresh inline clock and
        // the group as the entry's sole holder...
        p.update_clock(split_id, |c| c.set_write(Tid(1), 9));
        assert!(p.clock_is_inline(split_id));
        assert_eq!((p.clock_refs(gid), p.clock_is_inline(gid)), (1, false));
        p.check_invariants();
        // ...which moves back inline at the group's own next write.
        p.update_clock(gid, |c| c.set_write(Tid(0), 2));
        assert!(p.clock_is_inline(gid));
        assert_eq!((p.clock_count(), p.vc_allocs(), p.vc_frees()), (2, 2, 0));
        p.check_invariants();
    }

    #[test]
    fn last_sharer_freed_leaves_one_logical_clock() {
        let mut p = Plane::new();
        let gid = p.insert_private(Addr(0x100), epoch(1, 0), VcState::FirstEpochShared);
        p.insert_shared(Addr(0x104), Addr(0x100), gid);
        p.split(Addr(0x104));
        p.remove(Addr(0x104));
        assert_eq!(
            (p.clock_count(), p.vc_frees()),
            (1, 0),
            "the clock survives"
        );
        assert_eq!(p.clock_view(gid), epoch(1, 0).view());
        p.check_invariants();
        p.remove(Addr(0x100));
        assert_eq!((p.clock_count(), p.vc_frees()), (0, 1));
        p.check_invariants();
    }

    #[test]
    fn vector_clock_lives_in_the_arena_until_it_deflates() {
        let mut p = Plane::new();
        let id = p.insert_private(Addr(0x100), epoch(1, 0), VcState::Private);
        let now = dgrace_vc::VectorClock::from_slice(&[0, 3]);
        p.update_clock(id, |c| assert!(c.record_read(Tid(1), &now)));
        assert!(!p.clock_is_inline(id));
        assert_eq!(
            (p.clock_count(), p.vc_allocs()),
            (1, 1),
            "same logical clock"
        );
        p.check_invariants();
        p.update_clock(id, |c| c.set_write(Tid(1), 4));
        assert!(p.clock_is_inline(id));
        assert_eq!((p.clock_count(), p.vc_allocs(), p.vc_frees()), (1, 1, 0));
        p.check_invariants();
    }

    #[test]
    fn rejoin_moves_private_into_group() {
        let mut p = Plane::new();
        p.insert_private(Addr(0x100), epoch(3, 0), VcState::Private);
        p.insert_private(Addr(0x104), epoch(3, 0), VcState::Private);
        let id = p.rejoin(Addr(0x104), Addr(0x100), p.lookup(Addr(0x100)).unwrap());
        assert_eq!(p.lookup(Addr(0x100)), Some(id));
        assert_eq!(p.cell(id).count, 2);
        assert_eq!(p.cell_count(), 1);
        assert_eq!(p.vc_frees(), 1);
        assert_eq!(p.group_members(Addr(0x100)), vec![Addr(0x100), Addr(0x104)]);
    }

    #[test]
    fn update_clock_tracks_bytes() {
        let mut p = Plane::new();
        let id = p.insert_private(Addr(0x100), epoch(1, 0), VcState::Private);
        let small = p.vc_bytes();
        p.update_clock(id, |c| {
            let mut vc = dgrace_vc::VectorClock::new();
            vc.set(Tid(0), 1);
            vc.set(Tid(7), 3);
            *c = AccessClock::Vc(vc);
        });
        assert!(p.vc_bytes() > small);
        p.update_clock(id, |c| *c = epoch(2, 0));
        assert_eq!(p.vc_bytes(), small);
    }

    #[test]
    fn remove_updates_group_and_counts() {
        let mut p = Plane::new();
        p.insert_private(Addr(0x100), epoch(1, 0), VcState::FirstEpochShared);
        p.insert_shared(Addr(0x104), Addr(0x100), p.lookup(Addr(0x100)).unwrap());
        p.insert_shared(Addr(0x108), Addr(0x104), p.lookup(Addr(0x104)).unwrap());
        p.remove(Addr(0x104));
        assert_eq!(p.loc_count(), 2);
        assert_eq!(p.cell_count(), 1);
        let id = p.lookup(Addr(0x100)).unwrap();
        assert_eq!(p.cell(id).count, 2);
        assert_eq!(p.group_members(Addr(0x100)), vec![Addr(0x100), Addr(0x108)]);
        p.remove(Addr(0x100));
        p.remove(Addr(0x108));
        assert_eq!(p.cell_count(), 0);
        assert_eq!(p.clock_count(), 0);
        assert_eq!(p.vc_bytes(), 0);
    }

    #[test]
    fn remove_range_clears_span() {
        let mut p = Plane::new();
        p.insert_private(Addr(0x100), epoch(1, 0), VcState::FirstEpochShared);
        p.insert_shared(Addr(0x104), Addr(0x100), p.lookup(Addr(0x100)).unwrap());
        p.insert_private(Addr(0x200), epoch(2, 0), VcState::Private);
        p.remove_range(Addr(0x100), 0x100);
        assert_eq!(p.loc_count(), 1);
        assert_eq!(p.lookup(Addr(0x100)), None);
        assert_eq!(p.lookup(Addr(0x104)), None);
        assert!(p.lookup(Addr(0x200)).is_some());
        assert_eq!(p.cell_count(), 1);
    }

    #[test]
    fn remove_range_compacts_boundary_spanning_group() {
        // Group {0xfc, 0x100, 0x104, 0x108}; free [0x100, 0x108): the
        // two inner members go, the outer two must stay a valid group.
        let mut p = Plane::new();
        p.insert_private(Addr(0xfc), epoch(1, 0), VcState::FirstEpochShared);
        p.insert_shared(Addr(0x100), Addr(0xfc), p.lookup(Addr(0xfc)).unwrap());
        p.insert_shared(Addr(0x104), Addr(0x100), p.lookup(Addr(0x100)).unwrap());
        p.insert_shared(Addr(0x108), Addr(0x104), p.lookup(Addr(0x104)).unwrap());
        p.remove_range(Addr(0x100), 8);
        assert_eq!(p.loc_count(), 2);
        let id = p.lookup(Addr(0xfc)).unwrap();
        assert_eq!(p.cell(id).count, 2);
        assert_eq!(p.group_members(Addr(0xfc)), vec![Addr(0xfc), Addr(0x108)]);
        assert_eq!(p.group_members(Addr(0x108)), p.group_members(Addr(0xfc)));
        // Splitting a survivor still works (indices were compacted).
        let (nid, split) = p.split(Addr(0x108));
        assert!(split);
        assert_eq!(p.cell(nid).count, 1);
        assert_eq!(p.group_members(Addr(0xfc)), vec![Addr(0xfc)]);
        p.check_invariants();
    }

    #[test]
    fn neighbor_search_delegates_to_table() {
        let mut p = Plane::new();
        p.insert_private(Addr(0x100), epoch(1, 0), VcState::Private);
        p.insert_private(Addr(0x110), epoch(1, 0), VcState::Private);
        assert_eq!(
            p.nearest_predecessor(Addr(0x110), 64).map(|(a, _)| a),
            Some(Addr(0x100))
        );
        assert_eq!(
            p.nearest_successor(Addr(0x100), 64).map(|(a, _)| a),
            Some(Addr(0x110))
        );
        assert_eq!(p.nearest_predecessor(Addr(0x100), 64), None);
    }

    #[test]
    fn snapshot_reflects_group() {
        let mut p = Plane::new();
        p.insert_private(Addr(0x100), epoch(5, 1), VcState::FirstEpochShared);
        p.insert_shared(Addr(0x101), Addr(0x100), p.lookup(Addr(0x100)).unwrap());
        let snap = p.snapshot(Addr(0x101)).unwrap();
        assert_eq!(snap.state, VcState::FirstEpochShared);
        assert_eq!(snap.clock, epoch(5, 1));
        assert_eq!(snap.members, vec![Addr(0x100), Addr(0x101)]);
        assert!(p.snapshot(Addr(0x999)).is_none());
    }

    #[test]
    fn split_patches_swapped_member_index() {
        let mut p = Plane::new();
        p.insert_private(Addr(0x100), epoch(1, 0), VcState::FirstEpochShared);
        p.insert_shared(Addr(0x104), Addr(0x100), p.lookup(Addr(0x100)).unwrap());
        p.insert_shared(Addr(0x108), Addr(0x100), p.lookup(Addr(0x100)).unwrap());
        p.insert_shared(Addr(0x10c), Addr(0x100), p.lookup(Addr(0x100)).unwrap());
        // Remove a middle member; the last member is swapped into its
        // index and must remain splittable.
        let (_, s1) = p.split(Addr(0x104));
        assert!(s1);
        let (_, s2) = p.split(Addr(0x10c));
        assert!(s2);
        assert_eq!(p.group_members(Addr(0x100)), vec![Addr(0x100), Addr(0x108)]);
    }

    #[test]
    fn encode_decode_round_trips_cow_sharing() {
        let mut p = Plane::new();
        p.insert_private(Addr(0x100), epoch(1, 0), VcState::FirstEpochShared);
        p.insert_shared(Addr(0x104), Addr(0x100), p.lookup(Addr(0x100)).unwrap());
        p.insert_shared(Addr(0x108), Addr(0x104), p.lookup(Addr(0x104)).unwrap());
        // A split leaves two cells sharing one arena entry (CoW state).
        let (split_id, _) = p.split(Addr(0x104));
        assert_eq!(p.clock_refs(split_id), 2);
        p.insert_private(Addr(0x300), epoch(7, 1), VcState::Private);

        let mut w = SnapshotWriter::new(*b"TEST", 1);
        p.encode(&mut w);
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes, *b"TEST", 1, Default::default()).unwrap();
        let q = Plane::decode(&mut r).unwrap();
        r.expect_end().unwrap();

        q.check_invariants();
        assert_eq!(q.loc_count(), p.loc_count());
        assert_eq!(q.cell_count(), p.cell_count());
        assert_eq!(q.clock_count(), p.clock_count());
        assert_eq!(q.vc_bytes(), p.vc_bytes());
        assert_eq!(q.vc_allocs(), p.vc_allocs());
        assert_eq!(q.max_group(), p.max_group());
        let qid = q.lookup(Addr(0x104)).unwrap();
        assert_eq!(q.clock_refs(qid), 2, "CoW sharing survives the round trip");
        assert_eq!(q.group_members(Addr(0x100)), vec![Addr(0x100), Addr(0x108)]);
        // Canonical: re-encoding the restored plane is byte-identical.
        let mut w2 = SnapshotWriter::new(*b"TEST", 1);
        q.encode(&mut w2);
        assert_eq!(w2.finish(), bytes);
    }

    #[test]
    fn decode_rejects_dangling_references() {
        let mut w = SnapshotWriter::new(*b"TEST", 1);
        w.count(0); // no clocks
        w.count(1); // one cell...
        w.u32(5); // ...referencing clock 5
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes, *b"TEST", 1, Default::default()).unwrap();
        assert!(matches!(
            Plane::decode(&mut r),
            Err(TraceError::Malformed { .. })
        ));
    }

    #[test]
    fn decode_rejects_refcounts_that_disagree_with_the_cells() {
        let cell = |w: &mut SnapshotWriter| {
            w.u32(0); // clock 0
            w.u8(state_tag(VcState::Private));
            w.u32(1);
            w.bool(false);
            w.u8(0);
            w.count(0);
        };
        // An rc-1 epoch held by two cells, then an rc-2 one held by one.
        for (rc, cells, why) in [(1, 2, "more cells"), (2, 1, "exceeds the cells")] {
            let mut w = SnapshotWriter::new(*b"TEST", 1);
            w.count(1);
            encode_access_clock(&mut w, &epoch(1, 0));
            w.u32(rc);
            w.count(cells);
            for _ in 0..cells {
                cell(&mut w);
            }
            w.count(0); // no locations
            let bytes = w.finish();
            let mut r = SnapshotReader::new(&bytes, *b"TEST", 1, Default::default()).unwrap();
            assert!(matches!(
                Plane::decode(&mut r),
                Err(TraceError::Malformed { what, .. }) if what.contains(why)
            ));
        }
    }

    #[test]
    fn decode_rejects_counters_that_disagree_with_the_clock_table() {
        let mut w = SnapshotWriter::new(*b"TEST", 1);
        for _ in 0..4 {
            w.count(0); // no clocks, cells, locations, byte-mode chunks
        }
        w.u64(0); // vc_bytes
        w.u64(1); // vc_allocs: one live clock the table does not hold
        w.u64(0); // vc_frees
        w.u32(0);
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes, *b"TEST", 1, Default::default()).unwrap();
        assert!(matches!(
            Plane::decode(&mut r),
            Err(TraceError::Malformed { .. })
        ));
    }

    #[test]
    fn paged_plane_behaves_identically() {
        use dgrace_shadow::PagedSelect;
        let mut p: PlaneOn<PagedSelect> = PlaneOn::new();
        p.insert_private(Addr(0x100), epoch(1, 0), VcState::FirstEpochShared);
        p.insert_shared(Addr(0x104), Addr(0x100), p.lookup(Addr(0x100)).unwrap());
        p.insert_shared(Addr(0x108), Addr(0x104), p.lookup(Addr(0x104)).unwrap());
        assert_eq!(p.loc_count(), 3);
        assert_eq!(p.cell_count(), 1);
        let (_, split) = p.split(Addr(0x104));
        assert!(split);
        assert_eq!(p.group_members(Addr(0x100)), vec![Addr(0x100), Addr(0x108)]);
        p.remove_range(Addr(0x100), 0x10);
        assert_eq!(p.loc_count(), 0);
        assert_eq!(p.vc_bytes(), 0);
        p.check_invariants();
    }
}
