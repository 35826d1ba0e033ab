//! The dynamic-granularity detector (Fig. 3's instrumentation routines).

use dgrace_detectors::snap::{decode_model, decode_races, encode_races, Section, SectionError};
use dgrace_detectors::{
    AccessKind, Detector, HbState, RaceKind, RaceReport, Report, ShardableDetector, SharingStats,
};
use dgrace_shadow::{HashSelect, MemClass, MemoryModel, StoreSelect, Victims};
use dgrace_trace::{Addr, Event, SnapshotReader, SnapshotWriter};
use dgrace_vc::{AccessClock, ClockView, Epoch, Tid};

use crate::plane::{CellRef, IndexOn, Plane};
use crate::{DynamicConfig, VcState};

/// FastTrack with dynamic granularity: the paper's detector, on the
/// shadow store selected by `K` ([`HashSelect`] in production; a test
/// wraps it to count directory probes).
///
/// Two shadow [`Plane`]s track read and write locations separately; each
/// location's vector clock may be shared with neighbors according to the
/// [`VcState`](crate::VcState) machine. Both planes keep their slots in one
/// [`IndexOn`], whose entry holds a location's read and write slot (Fig.
/// 4), so an access resolves its chunk with one directory probe and finds
/// both there. See the crate docs for the algorithm summary and
/// [`DynamicConfig`] for the ablation switches.
///
/// Aligned to two cache lines: `new_shard` boxes the shards of a parallel
/// replay back to back and a different thread then drives each, so
/// without it the per-event counters at the end of one shard's detector
/// share a line with the start of the next one's (measured on the
/// `--shards 2 --pipeline` ledger workload: 15 % more CPU on every
/// thread when the struct's size happens to put them there; `FastTrack`
/// and `Djit`, measured the same way, do not land there — EXPERIMENTS.md).
#[derive(Debug)]
#[repr(align(128))]
pub struct DynamicGranularityOn<K: StoreSelect> {
    config: DynamicConfig,
    hb: HbState,
    /// The slots of both planes.
    index: IndexOn<K>,
    read: Plane,
    write: Plane,
    model: MemoryModel,
    races: Vec<RaceReport>,
    events: u64,
    accesses: u64,
    same_epoch: u64,
    shares: u64,
    splits: u64,
    evicted: u64,
    peak_locs: usize,
    cells_at_peak: usize,
    event_index: u64,
}

/// The default detector: dynamic granularity on the chained-hash store.
pub type DynamicGranularity = DynamicGranularityOn<HashSelect>;

impl<K: StoreSelect> Default for DynamicGranularityOn<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: StoreSelect> DynamicGranularityOn<K> {
    /// Creates a detector with the paper's default configuration.
    pub fn new() -> Self {
        Self::with_config(DynamicConfig::default())
    }

    /// Creates a detector with an explicit configuration.
    pub fn with_config(config: DynamicConfig) -> Self {
        DynamicGranularityOn {
            config,
            hb: HbState::new(),
            index: IndexOn::new(),
            read: Plane::new(AccessKind::Read),
            write: Plane::new(AccessKind::Write),
            model: MemoryModel::new(),
            races: Vec::new(),
            events: 0,
            accesses: 0,
            same_epoch: 0,
            shares: 0,
            splits: 0,
            evicted: 0,
            peak_locs: 0,
            cells_at_peak: 0,
            event_index: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &DynamicConfig {
        &self.config
    }

    /// Read-plane group snapshot for `addr` (testing/diagnostics).
    pub fn read_group(&self, addr: Addr) -> Option<crate::GroupSnapshot> {
        self.read.snapshot(&self.index, addr)
    }

    /// Write-plane group snapshot for `addr` (testing/diagnostics).
    pub fn write_group(&self, addr: Addr) -> Option<crate::GroupSnapshot> {
        self.write.snapshot(&self.index, addr)
    }

    /// Checks both planes' structural invariants (testing; O(locations)).
    pub fn check_invariants(&self) {
        self.read.check_invariants(&self.index);
        self.write.check_invariants(&self.index);
    }

    // ------------------------------------------------------------------
    // Access handling (Fig. 3).
    // ------------------------------------------------------------------

    fn on_access(&mut self, tid: Tid, addr: Addr, size: u64, kind: AccessKind) {
        self.accesses += 1;
        let my_epoch = self.hb.epoch(tid);
        // The access's one directory probe: the chunk of `addr`, and with
        // it both planes' slots of `addr` and of every neighbour inside it.
        // Every path below inserts `addr` if it is absent, so the chunk is
        // created when missing.
        let [read, write] = self.index.resolve(addr);
        let (lookup, other) = match kind {
            AccessKind::Read => (read, write),
            AccessKind::Write => (write, read),
        };
        // The same-epoch filter, from the entry alone (FastTrack's `W == E`
        // / `R == E`): the cell's clock already holds this epoch — this
        // thread made the access before, or a neighbour in its group was
        // brought to this epoch ("multiple accesses may be treated as the
        // same epoch accesses", §III.B) — or, for a read, this thread wrote
        // the location in this epoch, and a write covers its later reads.
        // Checked from the epoch alone, with no vector-clock copy.
        let covered = |plane: &Plane, at: Option<CellRef>, kind| {
            at.is_some_and(|at| Self::clock_covers_epoch(plane.clock_view(at), my_epoch, kind))
        };
        if covered(self.plane(kind), lookup, kind)
            || kind == AccessKind::Read && covered(&self.write, other, AccessKind::Write)
        {
            self.same_epoch += 1;
            return;
        }

        match lookup {
            None => self.first_access(addr, kind, my_epoch, other),
            Some(at) => {
                if self.plane(kind).cell(at).state.is_init() {
                    self.second_epoch_access(size, kind, my_epoch, at, other);
                } else {
                    self.steady_access(kind, my_epoch, at, other);
                }
            }
        }
        self.update_model();
    }

    /// Is the access already summarized by the cell's clock in this epoch?
    fn clock_covers_epoch(clock: ClockView<'_>, my_epoch: Epoch, kind: AccessKind) -> bool {
        match (kind, clock) {
            (_, ClockView::Epoch(e)) => e == my_epoch,
            (AccessKind::Write, ClockView::Vc(_)) => false,
            (AccessKind::Read, ClockView::Vc(vc)) => vc.get(my_epoch.tid) == my_epoch.clock,
        }
    }

    /// First access to a location: create its clock in the Init state and
    /// attempt first-epoch (temporary) sharing — `insertRead` +
    /// `shareFirstEpoch` in Fig. 3.
    fn first_access(
        &mut self,
        addr: Addr,
        kind: AccessKind,
        my_epoch: Epoch,
        other: Option<CellRef>,
    ) {
        let scan = self.config.first_epoch_scan;
        let init_state = self.config.init_state;
        let share_at_init = self.config.share_at_init;
        let enable_sharing = self.config.enable_sharing;

        // Find a share candidate among the nearest populated neighbors.
        // The predecessor is probed first (array initialization ascends),
        // and the successor scan is skipped when the predecessor matches.
        let compatible = |det: &Self, n: &CellRef| {
            let c = det.plane(kind).cell(*n);
            let state_ok = if init_state {
                share_at_init && c.state.accepts_init_sharing()
            } else {
                // No Init state: the one and only decision is made now,
                // against any non-Race neighbor.
                c.state != VcState::Race
            };
            state_ok && c.clock == ClockView::Epoch(my_epoch)
        };
        let sharing_on = enable_sharing && (share_at_init || !init_state);
        let neighbor = if !sharing_on {
            None // sharing disabled / Table 5 "no sharing at Init"
        } else {
            let (plane, ix) = (self.plane(kind), &self.index);
            plane
                .nearest_predecessor(ix, addr, scan)
                .filter(|n| compatible(self, n))
                .or_else(|| {
                    plane
                        .nearest_successor(ix, addr, scan)
                        .filter(|n| compatible(self, n))
                })
        };

        let (plane, ix) = self.plane_mut(kind);
        let at = match neighbor {
            Some(n) => {
                let at = plane.insert_shared(ix, addr, n);
                let group_state = if init_state {
                    VcState::FirstEpochShared
                } else {
                    VcState::Shared
                };
                let at = plane.set_state(ix, at, group_state);
                self.shares += 1;
                at
            }
            None => {
                let state = if init_state {
                    VcState::FirstEpochPrivate
                } else {
                    VcState::Private
                };
                plane.insert_private(ix, addr, AccessClock::Epoch(my_epoch), state)
            }
        };

        // Race check (Fig. 3 does this after the sharing step). A fresh
        // read location may still race with the write history of `addr`;
        // the clock itself needs no further recording — it was created
        // as this thread's current epoch.
        if let Some((race_kind, witness, wt)) = self.race_check(kind, my_epoch.tid, at, other) {
            self.report_race(addr, kind, race_kind, witness, my_epoch, wt);
        }
    }

    /// Second epoch access to an Init location: `split` + FastTrack
    /// processing + `shareSecondEpoch` (the firm decision).
    fn second_epoch_access(
        &mut self,
        size: u64,
        kind: AccessKind,
        my_epoch: Epoch,
        old: CellRef,
        other: Option<CellRef>,
    ) {
        let addr = old.addr();
        // Split L out of any temporary first-epoch group.
        let (plane, ix) = self.plane_mut(kind);
        let (at, split) = plane.split(ix, old);
        if split {
            self.splits += 1;
        }

        // FastTrack race check against the histories.
        let race = self.race_check(kind, my_epoch.tid, at, other);

        // Update L's (now private) clock with this access.
        let (at, inflated) = self.record_access(kind, at, my_epoch);

        if let Some((race_kind, witness, wt)) = race {
            self.report_race(addr, kind, race_kind, witness, my_epoch, wt);
            return;
        }

        // The firm sharing decision: neighbors at L-size and L+size,
        // post-Init and equal clocks; "no read-read conflict for a read
        // location" → an inflated read clock is not shared.
        let shared = if inflated || !self.config.enable_sharing {
            false
        } else {
            self.try_share_with_exact_neighbors(size, kind, at)
        };
        if !shared {
            let (plane, ix) = self.plane_mut(kind);
            plane.set_state(ix, at, VcState::Private);
        }
    }

    /// Attempts the exact-neighbor (`L±size`) sharing decision for the
    /// location whose private cell is `at`. Returns `true` if the
    /// location joined a neighbor's group (state set to `Shared`).
    fn try_share_with_exact_neighbors(&mut self, size: u64, kind: AccessKind, at: CellRef) -> bool {
        let addr = at.addr();
        let candidate = {
            let plane = self.plane(kind);
            let my_clock = plane.clock_view(at);
            // A neighbor past either end of the address space is none.
            [addr.0.checked_sub(size), addr.0.checked_add(size)]
                .into_iter()
                .flatten()
                .filter(|&n| n != addr.0)
                .filter_map(|n| plane.lookup(&self.index, Addr(n)))
                .find(|&n| {
                    let c = plane.cell(n);
                    c.state.accepts_second_epoch_sharing() && c.clock == my_clock
                })
        };
        if let Some(n) = candidate {
            let (plane, ix) = self.plane_mut(kind);
            let at = plane.rejoin(ix, at, n);
            plane.set_state(ix, at, VcState::Shared);
            self.shares += 1;
            true
        } else {
            false
        }
    }

    /// Steady-state access (Shared / Private / Race): plain FastTrack on
    /// the (possibly shared) cell.
    fn steady_access(
        &mut self,
        kind: AccessKind,
        my_epoch: Epoch,
        at: CellRef,
        other: Option<CellRef>,
    ) {
        let addr = at.addr();
        let cell = self.plane(kind).cell(at);
        let (raced, grouped) = (cell.state.is_raced(), cell.count > 1);
        let race = if raced {
            None
        } else {
            self.race_check(kind, my_epoch.tid, at, other)
        };
        // Lazy dissolve: a member of a raced group detaches here, on its
        // first access after the race, so the group's frozen clock is
        // never mutated. `split` hands it a refcounted reference to that
        // clock in the `Race` state — exactly the cell an eager dissolve
        // would have built (not counted in `splits`: the dissolution was
        // already accounted for when the race was reported).
        let at = if raced && grouped {
            let (plane, ix) = self.plane_mut(kind);
            plane.split(ix, at).0
        } else {
            at
        };
        self.record_access(kind, at, my_epoch);
        if let Some((race_kind, witness, wt)) = race {
            self.report_race(addr, kind, race_kind, witness, my_epoch, wt);
        }
    }

    fn plane(&self, kind: AccessKind) -> &Plane {
        match kind {
            AccessKind::Read => &self.read,
            AccessKind::Write => &self.write,
        }
    }

    /// The plane of `kind`, with the index its slots are in.
    fn plane_mut(&mut self, kind: AccessKind) -> (&mut Plane, &mut IndexOn<K>) {
        let plane = match kind {
            AccessKind::Read => &mut self.read,
            AccessKind::Write => &mut self.write,
        };
        (plane, &mut self.index)
    }

    /// FastTrack race check for an access of `kind` by thread `tid`,
    /// against its current clock: `own` is the accessed location's cell in
    /// the accessed plane, `other` its cell in the other plane, if it has
    /// one. Does not mutate anything.
    ///
    /// The returned `bool` is the *witness cell's* taint: if the clock
    /// that testified to the race was ever shared, the race may be a
    /// sharing artifact even when the accessed location never shared.
    fn race_check(
        &self,
        kind: AccessKind,
        tid: Tid,
        own: CellRef,
        other: Option<CellRef>,
    ) -> Option<(RaceKind, Epoch, bool)> {
        let now = self.hb.now(tid);
        match kind {
            AccessKind::Read => {
                // Write-read race: the last write is concurrent with us.
                let w = self.write.cell(other?);
                let witness = w.clock.find_concurrent(now)?;
                Some((RaceKind::WriteRead, witness, w.tainted))
            }
            AccessKind::Write => {
                // Write-write first, then read-write (FastTrack order).
                let w = self.write.cell(own);
                if let Some(witness) = w.clock.find_concurrent(now) {
                    return Some((RaceKind::WriteWrite, witness, w.tainted));
                }
                let r = self.read.cell(other?);
                let witness = r.clock.find_concurrent(now)?;
                Some((RaceKind::ReadWrite, witness, r.tainted))
            }
        }
    }

    /// Records the access into the location's clock. Returns the cell's
    /// handle after the write and `true` if a read clock inflated to a
    /// full vector clock (a "read-read conflict", which vetoes sharing).
    fn record_access(&mut self, kind: AccessKind, at: CellRef, my_epoch: Epoch) -> (CellRef, bool) {
        let tid = my_epoch.tid;
        match kind {
            AccessKind::Write => {
                let at = self
                    .write
                    .update_clock(&mut self.index, at, |c| c.set_write(tid, my_epoch.clock));
                (at, false)
            }
            AccessKind::Read => {
                let now = self.hb.now(tid);
                let mut inflated = false;
                let at = self.read.update_clock(&mut self.index, at, |c| {
                    inflated = c.record_read(tid, now);
                });
                (at, inflated)
            }
        }
    }

    /// Reports a race at `addr` and executes `splitAndSetRace`: the whole
    /// sharing group becomes `Race` and — with `report_group_races`
    /// (default) — a race is reported for every member, the paper's
    /// observed x264 behaviour.
    ///
    /// The dissolve itself is *lazy*: the group cell is marked `Race` in
    /// place and members detach only when next accessed
    /// ([`steady_access`](Self::steady_access)). Raced cells skip race
    /// checks and the group clock is never written again (a member splits
    /// out before recording), so the frozen clock each member eventually
    /// inherits is exactly what an eager per-member dissolve would have
    /// handed it — without paying one cell allocation and hash probe per
    /// member on the hot path. A sharing-churn workload dissolving 64 ×
    /// 256-word groups spends O(racy accesses), not O(group members), in
    /// here.
    fn report_race(
        &mut self,
        addr: Addr,
        kind: AccessKind,
        race_kind: RaceKind,
        witness: Epoch,
        my_epoch: Epoch,
        witness_tainted: bool,
    ) {
        let (plane, ix) = self.plane_mut(kind);
        let at = plane.lookup(ix, addr).expect("racy location exists");
        let count = plane.cell(at).count;
        let tainted = plane.cell(at).tainted || witness_tainted;
        plane.set_state(ix, at, VcState::Race);
        if count > 1 {
            let members = plane.group_members(ix, addr);
            // The members *will* separate (on their next access); the
            // split counter records the dissolution decision itself so
            // its totals match an eager dissolve.
            self.splits += (members.len() - 1) as u64;
            let report_all = self.config.report_group_races;
            for m in members {
                if m != addr && !report_all {
                    continue;
                }
                self.races.push(RaceReport {
                    addr: m,
                    kind: race_kind,
                    current: my_epoch,
                    previous: witness,
                    event_index: Some(self.event_index),
                    share_count: count,
                    tainted,
                });
            }
        } else {
            self.races.push(RaceReport {
                addr,
                kind: race_kind,
                current: my_epoch,
                previous: witness,
                event_index: Some(self.event_index),
                share_count: 1,
                tainted,
            });
        }
    }

    fn update_model(&mut self) {
        self.set_shadow_model();
        let cells = self.read.cell_count() + self.write.cell_count();
        let locs = self.loc_count();
        if locs > self.peak_locs {
            self.peak_locs = locs;
            self.cells_at_peak = cells;
        }
        if self.model.over_budget() {
            self.enforce_budget();
        }
    }

    /// Locations of both planes.
    fn loc_count(&self) -> usize {
        self.read.loc_count(&self.index) + self.write.loc_count(&self.index)
    }

    /// Sets the model's index and clock classes from the planes.
    #[inline]
    fn set_shadow_model(&mut self) {
        // Fig. 4's entry holds a location's read and write clock pointers,
        // and the planes index (almost always) the same addresses: the
        // modeled index is the larger plane's, not the sum. Each plane is
        // charged as an index of its own (`IndexOn`), so this does not
        // depend on how the two lanes share chunks.
        let ix = &self.index;
        let hash = self.read.hash_bytes(ix).max(self.write.hash_bytes(ix));
        self.model.set(MemClass::Hash, hash);
        self.model.set(
            MemClass::VectorClock,
            self.read.vc_bytes() + self.write.vc_bytes(),
        );
        // Table 3 counts distinct vector-clock objects: with the CoW
        // interning arena that is the live *clock-entry* population, which
        // split/dissolve no longer grow.
        self.model
            .set_vc_count(self.read.clock_count() + self.write.clock_count());
    }

    /// Evicts cold shadow regions until the modeled total drops below the
    /// budget (with an eighth of hysteresis). A region holding a thread's
    /// current epoch in either plane goes last. A region leaves the index
    /// with both planes' slots, so read and write coverage stay symmetric.
    /// Eviction can only *miss* races: a re-inserted location restarts in
    /// the Init state with a fresh epoch, so no stale clock can fabricate
    /// a report.
    #[cold]
    fn enforce_budget(&mut self) {
        let Some(budget) = self.model.budget() else {
            return;
        };
        let target = budget - budget / 8;
        let mut victims = Victims::default();
        while self.model.current_total() > target {
            let planes = [&self.read, &self.write];
            let Some((base, len)) = self.index.victim_region(&mut victims, planes, &self.hb) else {
                break;
            };
            let before = self.loc_count();
            self.free(base, len);
            let after = self.loc_count();
            if after == before {
                break;
            }
            self.evicted += (before - after) as u64;
            self.set_shadow_model();
        }
    }

    /// Drops the shadow of `[base, base+len)` from both planes.
    fn free(&mut self, base: Addr, len: u64) {
        let planes = [&mut self.read, &mut self.write];
        self.index.remove_range(planes, base, len);
    }
}

impl<K: StoreSelect> ShardableDetector for DynamicGranularityOn<K> {
    fn new_shard(&self) -> Box<dyn Detector + Send> {
        let mut shard = DynamicGranularityOn::<K>::with_config(self.config);
        shard.model.set_budget(self.model.budget());
        Box::new(shard)
    }
}

impl<K: StoreSelect> Detector for DynamicGranularityOn<K> {
    fn name(&self) -> String {
        self.config.label().to_string()
    }

    fn on_event(&mut self, ev: &Event) {
        self.events += 1;
        match *ev {
            Event::Read { tid, addr, size } => {
                self.on_access(tid, addr, size.bytes(), AccessKind::Read)
            }
            Event::Write { tid, addr, size } => {
                self.on_access(tid, addr, size.bytes(), AccessKind::Write)
            }
            Event::Free { addr, size, .. } => {
                self.free(addr, size);
                self.update_model();
            }
            Event::Alloc { .. } => {}
            _ => {
                self.hb.on_sync(ev);
            }
        }
        self.event_index += 1;
    }

    fn finish(&mut self) -> Report {
        // Table 3's "Avg. sharing count": locations per live clock at the
        // moment the location population peaks.
        let avg_share = if self.cells_at_peak == 0 {
            0.0
        } else {
            self.peak_locs as f64 / self.cells_at_peak as f64
        };
        let mut rep = Report {
            detector: self.name(),
            races: std::mem::take(&mut self.races),
            ..Report::default()
        };
        rep.stats.events = self.events;
        rep.stats.accesses = self.accesses;
        rep.stats.same_epoch = self.same_epoch;
        rep.stats.vc_allocs = self.read.vc_allocs() + self.write.vc_allocs();
        rep.stats.vc_frees = self.read.vc_frees() + self.write.vc_frees();
        rep.stats.set_peaks(&self.model);
        rep.stats.sharing = Some(SharingStats {
            shares: self.shares,
            splits: self.splits,
            avg_share_count: avg_share,
            max_group: self.read.max_group().max(self.write.max_group()),
        });
        rep.stats.evicted = self.evicted;
        rep.budget_degraded = self.model.breached();
        let budget = self.model.budget();
        *self = Self::with_config(self.config);
        self.model.set_budget(budget);
        rep
    }

    fn set_shadow_budget(&mut self, bytes: Option<u64>) {
        self.model.set_budget(bytes.map(|b| b as usize));
    }

    fn write_section(&self, w: &mut SnapshotWriter) -> bool {
        Section::Detector.write(w);
        // Full config fields, not just the label: restore must reject a
        // snapshot from any differently-configured detector.
        w.bool(self.config.init_state);
        w.bool(self.config.share_at_init);
        w.u64(self.config.first_epoch_scan);
        w.bool(self.config.enable_sharing);
        w.bool(self.config.report_group_races);
        self.hb.encode(w);
        self.read.encode(&self.index, w);
        self.write.encode(&self.index, w);
        self.model.encode(w);
        encode_races(w, &self.races);
        for c in [
            self.events,
            self.accesses,
            self.same_epoch,
            self.shares,
            self.splits,
            self.evicted,
            self.peak_locs as u64,
            self.cells_at_peak as u64,
            self.event_index,
        ] {
            w.u64(c);
        }
        true
    }

    fn races_so_far(&self) -> &[RaceReport] {
        &self.races
    }

    fn read_section(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SectionError> {
        Section::Detector.read(r)?;
        let config = DynamicConfig {
            init_state: r.bool()?,
            share_at_init: r.bool()?,
            first_epoch_scan: r.u64()?,
            enable_sharing: r.bool()?,
            report_group_races: r.bool()?,
        };
        if config != self.config {
            return Err(SectionError::Mismatch(format!(
                "{}: snapshot configuration {config:?} differs from this detector's {:?}",
                self.name(),
                self.config
            )));
        }
        let hb = HbState::decode(r)?;
        let mut index = IndexOn::new();
        let read = Plane::decode(r, &mut index, AccessKind::Read)?;
        let write = Plane::decode(r, &mut index, AccessKind::Write)?;
        let model = decode_model(r, self.model.budget())?;
        let races = decode_races(r)?;
        let mut counters = [0u64; 9];
        for c in counters.iter_mut() {
            *c = r.u64()?;
        }
        *self = DynamicGranularityOn {
            config,
            hb,
            index,
            read,
            write,
            model,
            races,
            events: counters[0],
            accesses: counters[1],
            same_epoch: counters[2],
            shares: counters[3],
            splits: counters[4],
            evicted: counters[5],
            peak_locs: counters[6] as usize,
            cells_at_peak: counters[7] as usize,
            event_index: counters[8],
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgrace_detectors::{DetectorExt, FastTrack};
    use dgrace_trace::{AccessSize, TraceBuilder};

    const X: u64 = 0x1000;

    #[test]
    fn detects_simple_write_write_race() {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32)
            .write(0u32, X, AccessSize::U32)
            .write(1u32, X, AccessSize::U32);
        let rep = DynamicGranularity::new().run(&b.build());
        assert_eq!(rep.races.len(), 1);
        assert_eq!(rep.races[0].kind, RaceKind::WriteWrite);
        assert_eq!(rep.races[0].addr, Addr(X));
    }

    #[test]
    fn init_sharing_groups_array_writes() {
        let mut det = DynamicGranularity::new();
        let mut b = TraceBuilder::new();
        b.write_block(0u32, X, 64, AccessSize::U32);
        let t = b.build();
        for ev in t.iter() {
            det.on_event(ev);
        }
        let snap = det.write_group(Addr(X)).unwrap();
        assert_eq!(snap.state, VcState::FirstEpochShared);
        assert_eq!(snap.members.len(), 16, "16 words share one clock");
        let rep = det.finish();
        assert!(rep.races.is_empty());
        // One cell serves 16 locations.
        assert_eq!(rep.stats.sharing.as_ref().unwrap().max_group, 16);
        assert!(rep.stats.peak_vc_count < 16);
    }

    #[test]
    fn no_sharing_when_disabled() {
        let mut det = DynamicGranularity::with_config(DynamicConfig::no_sharing_at_init());
        let mut b = TraceBuilder::new();
        b.write_block(0u32, X, 64, AccessSize::U32);
        for ev in b.build().iter() {
            det.on_event(ev);
        }
        let snap = det.write_group(Addr(X)).unwrap();
        assert_eq!(snap.state, VcState::FirstEpochPrivate);
        assert_eq!(snap.members, vec![Addr(X)]);
        let rep = det.finish();
        assert_eq!(rep.stats.sharing.unwrap().shares, 0);
        assert_eq!(rep.stats.peak_vc_count, 16);
    }

    #[test]
    fn second_epoch_resharing_after_common_epoch() {
        // Array written in epoch 1 (init group), then written again in
        // epoch 2: each location splits, updates, and re-shares with its
        // equal-clock neighbor.
        let mut det = DynamicGranularity::new();
        let mut b = TraceBuilder::new();
        b.write_block(0u32, X, 32, AccessSize::U32)
            .release(0u32, 0u32)
            .write_block(0u32, X, 32, AccessSize::U32);
        for ev in b.build().iter() {
            det.on_event(ev);
        }
        let snap = det.write_group(Addr(X)).unwrap();
        assert_eq!(snap.state, VcState::Shared);
        assert_eq!(snap.members.len(), 8);
        let rep = det.finish();
        assert!(rep.races.is_empty());
    }

    #[test]
    fn separately_locked_elements_become_private() {
        // Two words are initialized together (shared at Init), then each
        // is protected by its own lock — the firm decision must split
        // them, and there must be no false alarm.
        let a = X;
        let bq = X + 4;
        let mut b = TraceBuilder::new();
        b.write(0u32, a, AccessSize::U32)
            .write(0u32, bq, AccessSize::U32)
            .fork(0u32, 1u32)
            // T0 uses lock 0 for a; T1 uses lock 1 for bq. Disjoint locks,
            // but no shared data → race free.
            .locked(0u32, 0u32, |t| {
                t.write(0u32, a, AccessSize::U32);
            })
            .locked(1u32, 1u32, |t| {
                t.write(1u32, bq, AccessSize::U32);
            })
            .locked(0u32, 0u32, |t| {
                t.write(0u32, a, AccessSize::U32);
            })
            .locked(1u32, 1u32, |t| {
                t.write(1u32, bq, AccessSize::U32);
            });
        let rep = DynamicGranularity::new().run(&b.build());
        assert!(
            rep.races.is_empty(),
            "init-time sharing must not cause false alarms: {:?}",
            rep.races
        );
    }

    #[test]
    fn no_init_state_config_causes_false_alarm() {
        // Same program as above, but with the Init state disabled the
        // initialization-time sharing decision is permanent, so the
        // separately-locked updates look like races (Table 5's point).
        let a = X;
        let bq = X + 4;
        let mut b = TraceBuilder::new();
        b.write(0u32, a, AccessSize::U32)
            .write(0u32, bq, AccessSize::U32)
            .fork(0u32, 1u32)
            .locked(0u32, 0u32, |t| {
                t.write(0u32, a, AccessSize::U32);
            })
            .locked(1u32, 1u32, |t| {
                t.write(1u32, bq, AccessSize::U32);
            });
        let trace = b.build();
        let with_init = DynamicGranularity::new().run(&trace);
        assert!(with_init.races.is_empty());
        let rep = DynamicGranularity::with_config(DynamicConfig::no_init_state()).run(&trace);
        assert!(
            !rep.races.is_empty(),
            "no-Init-state config should produce a false alarm"
        );
    }

    #[test]
    fn race_during_init_splits_quietly() {
        // A race that fires at a location's second-epoch access happens
        // *after* the split (Fig. 3 order), so only the accessed location
        // is reported even if it was temporarily shared.
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32) // fork FIRST: T1 does not see the init
            .write_block(0u32, X, 16, AccessSize::U32)
            .write(1u32, X + 4, AccessSize::U32);
        let rep = DynamicGranularity::new().run(&b.build());
        assert_eq!(rep.races.len(), 1);
        assert_eq!(rep.races[0].addr, Addr(X + 4));
    }

    /// Build a steady-state Shared group of 4 words owned by T0, then
    /// race on one member from T1.
    fn steady_group_race_trace() -> dgrace_trace::Trace {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32)
            .write_block(0u32, X, 16, AccessSize::U32) // epoch 2: init group
            .release(0u32, 0u32) // T0 → epoch 3
            .write_block(0u32, X, 16, AccessSize::U32) // re-share → Shared
            .write(1u32, X + 4, AccessSize::U32); // race from T1
        b.build()
    }

    #[test]
    fn steady_group_race_reports_every_member() {
        // The x264 observation: a race on a location whose clock is
        // shared dissolves the group and reports each member.
        let trace = steady_group_race_trace();
        let rep = DynamicGranularity::new().run(&trace);
        assert_eq!(rep.races.len(), 4, "{:?}", rep.races);
        assert!(rep.races.iter().all(|r| r.share_count == 4));
        let byte = FastTrack::new().run(&trace);
        assert_eq!(
            byte.races.len(),
            1,
            "byte granularity reports only the real race"
        );
        // With group reporting disabled, counts match byte granularity.
        let cfg = DynamicConfig {
            report_group_races: false,
            ..DynamicConfig::default()
        };
        let rep = DynamicGranularity::with_config(cfg).run(&trace);
        assert_eq!(rep.races.len(), 1);
        assert_eq!(rep.races[0].share_count, 4);
    }

    #[test]
    fn racy_group_dissolves_lazily() {
        // Regression test for the sharing-churn hot path: a race against
        // a shared group freezes the cell in `Race` state instead of
        // eagerly re-pointing every member, so dissolution costs
        // O(members touched again), not O(group size). The race report
        // still covers the whole group
        // (steady_group_race_reports_every_member pins that).
        let mut det = DynamicGranularity::new();
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32)
            .write_block(0u32, X, 64, AccessSize::U32) // init group of 16 words
            .release(0u32, 0u32)
            .write_block(0u32, X, 64, AccessSize::U32) // re-share → Shared
            .write(1u32, X + 4, AccessSize::U32); // race from T1
        for ev in b.build().iter() {
            det.on_event(ev);
        }
        det.check_invariants();
        // The group survives the race intact — frozen in `Race` state,
        // all 16 members still sharing one cell.
        let group = det.write_group(Addr(X)).unwrap();
        assert_eq!(group.state, VcState::Race);
        assert_eq!(group.members.len(), 16, "no eager per-member split");
        // Members touched later detach alone, quietly (raced cells are
        // exempt from further race checks). A new T1 epoch first — the
        // group clock already covers the racing epoch, so same-epoch
        // touches would be filtered before reaching the plane.
        b.release(1u32, 1u32)
            .write(1u32, X + 4, AccessSize::U32)
            .write(1u32, X + 8, AccessSize::U32);
        for ev in b.build().iter() {
            det.on_event(ev);
        }
        det.check_invariants();
        assert_eq!(det.write_group(Addr(X)).unwrap().members.len(), 14);
        let hit = det.write_group(Addr(X + 4)).unwrap();
        assert_eq!(hit.state, VcState::Race);
        assert_eq!(hit.members, vec![Addr(X + 4)]);
        assert_eq!(
            det.write_group(Addr(X + 8)).unwrap().members,
            vec![Addr(X + 8)]
        );
        let rep = det.finish();
        // Identical report to the eager scheme: every original member,
        // once, with the full share count, and `splits` accounts the
        // whole group at dissolve time.
        assert_eq!(rep.races.len(), 16, "{:?}", rep.races);
        assert!(rep.races.iter().all(|r| r.share_count == 16));
        assert!(rep.stats.sharing.unwrap().splits >= 15);
    }

    #[test]
    fn agrees_with_fasttrack_on_private_patterns() {
        // Accesses to isolated addresses (no neighbors) must behave
        // exactly like byte-granularity FastTrack.
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32)
            .write(0u32, 0x1000u64, AccessSize::U32)
            .write(1u32, 0x9000u64, AccessSize::U32)
            .read(1u32, 0x1000u64, AccessSize::U32) // write-read race
            .locked(0u32, 0u32, |t| {
                t.write(0u32, 0x5000u64, AccessSize::U32);
            })
            .locked(1u32, 0u32, |t| {
                t.read(1u32, 0x5000u64, AccessSize::U32);
            });
        let trace = b.build();
        let dynamic = DynamicGranularity::new().run(&trace);
        let byte = FastTrack::new().run(&trace);
        assert_eq!(dynamic.race_addrs(), byte.race_addrs());
        assert_eq!(dynamic.races.len(), 1);
        assert_eq!(dynamic.races[0].kind, RaceKind::WriteRead);
    }

    #[test]
    fn sharing_reduces_vc_allocations() {
        let mut b = TraceBuilder::new();
        b.write_block(0u32, X, 4096, AccessSize::U64);
        let trace = b.build();
        let dynamic = DynamicGranularity::new().run(&trace);
        let byte = FastTrack::new().run(&trace);
        let dyn_allocs = dynamic.stats.vc_allocs;
        let byte_allocs = byte.stats.vc_allocs;
        assert!(
            dyn_allocs * 10 < byte_allocs,
            "sharing should slash allocations: {dyn_allocs} vs {byte_allocs}"
        );
        assert!(dynamic.stats.peak_vc_bytes < byte.stats.peak_vc_bytes / 10);
    }

    #[test]
    fn one_epoch_temporaries_share_and_free() {
        // The dedup pattern: allocate, touch once, free — repeatedly.
        let mut b = TraceBuilder::new();
        for i in 0..16u64 {
            let base = 0x10_0000 + i * 0x100;
            b.alloc(0u32, base, 64)
                .write_block(0u32, base, 64, AccessSize::U64)
                .free(0u32, base, 64);
        }
        let rep = DynamicGranularity::new().run(&b.build());
        assert!(rep.races.is_empty());
        // At most a couple of cells live at any time thanks to Init
        // sharing + free.
        assert!(
            rep.stats.peak_vc_count <= 4,
            "peak={}",
            rep.stats.peak_vc_count
        );
        assert_eq!(rep.stats.vc_allocs, rep.stats.vc_frees);
    }

    #[test]
    fn read_inflation_vetoes_sharing() {
        // Two threads read two adjacent words concurrently; the read
        // clocks inflate, and inflated clocks are not shared.
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32)
            .read(0u32, X, AccessSize::U32)
            .read(0u32, X + 4, AccessSize::U32)
            .read(1u32, X, AccessSize::U32)
            .read(1u32, X + 4, AccessSize::U32);
        let mut det = DynamicGranularity::new();
        for ev in b.build().iter() {
            det.on_event(ev);
        }
        let snap = det.read_group(Addr(X)).unwrap();
        assert_eq!(snap.members, vec![Addr(X)]);
        let rep = det.finish();
        assert!(rep.races.is_empty());
    }

    #[test]
    fn same_epoch_fast_path_via_sharing() {
        // Write the array once (init group), release, then sweep it again
        // in one later epoch: the first touch re-clocks the group via the
        // second-epoch path; once re-shared, subsequent members that
        // split-and-reshare keep cell count low and the *third* sweep is
        // pure same-epoch.
        let mut b = TraceBuilder::new();
        b.write_block(0u32, X, 64, AccessSize::U32)
            .release(0u32, 0u32)
            .write_block(0u32, X, 64, AccessSize::U32)
            .write_block(0u32, X, 64, AccessSize::U32);
        let rep = DynamicGranularity::new().run(&b.build());
        // Third sweep: all 16 accesses same-epoch, answered by their cells;
        // second sweep re-shares. Expect a high same-epoch count.
        assert!(
            rep.stats.same_epoch >= 16,
            "same_epoch={}",
            rep.stats.same_epoch
        );
        assert!(rep.races.is_empty());
    }

    #[test]
    fn shadow_budget_evicts_and_flags_degraded() {
        // Touch many distinct regions under a tight budget; the warm race
        // at the highest address survives eviction of the cold low-address
        // regions and the report is flagged degraded.
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32);
        for i in 0..256u64 {
            b.write(0u32, 0x1000 + i * 128, AccessSize::U32);
        }
        b.write(0u32, 0x100000u64, AccessSize::U32)
            .write(1u32, 0x100000u64, AccessSize::U32);
        let mut det = DynamicGranularity::new();
        det.set_shadow_budget(Some(16 * 1024));
        let rep = det.run(&b.build());
        assert!(rep.budget_degraded);
        assert!(rep.stats.evicted > 0);
        assert!(rep.is_degraded());
        assert_eq!(rep.races.len(), 1, "race on the warm location survives");
        assert_eq!(rep.races[0].addr, Addr(0x100000));
        // Eviction keeps structural invariants intact.
        let mut det2 = DynamicGranularity::new();
        det2.set_shadow_budget(Some(16 * 1024));
        let mut b2 = TraceBuilder::new();
        for i in 0..256u64 {
            b2.write(0u32, 0x1000 + i * 128, AccessSize::U32);
        }
        for ev in b2.build().iter() {
            det2.on_event(ev);
        }
        det2.check_invariants();
    }

    #[test]
    fn finish_resets_detector() {
        let mut det = DynamicGranularity::new();
        let mut b = TraceBuilder::new();
        b.write(0u32, X, AccessSize::U32);
        let t = b.build();
        let r1 = det.run(&t);
        let r2 = det.run(&t);
        assert_eq!(r1.stats.events, r2.stats.events);
        assert_eq!(r1.stats.peak_vc_count, r2.stats.peak_vc_count);
    }

    #[test]
    fn name_reflects_config() {
        assert_eq!(DynamicGranularity::new().name(), "dynamic");
        assert_eq!(
            DynamicGranularity::with_config(DynamicConfig::no_init_state()).name(),
            "dynamic-no-init-state"
        );
    }

    #[test]
    fn split_and_dissolve_do_not_allocate_clocks() {
        // The CoW-arena payoff: a steady-state group race dissolves a
        // 4-member group with refcount bumps only. Compare allocation
        // counts against a detector run where the same group never forms.
        let trace = steady_group_race_trace();
        let mut det = DynamicGranularity::new();
        for ev in trace.iter() {
            det.on_event(ev);
        }
        det.check_invariants();
        let rep = det.finish();
        // 4 group members raced; the dissolve itself minted no clocks, so
        // total allocations stay far below one-per-location-event.
        assert!(
            rep.stats.vc_allocs < rep.stats.accesses,
            "allocs={} accesses={}",
            rep.stats.vc_allocs,
            rep.stats.accesses
        );
    }
}
