//! The fixed-granularity happens-before detector: one shell, generic over
//! the per-location rule.
//!
//! DJIT+ (§II.B) and FastTrack (§II.C) are the same tool around different
//! shadow cells — the paper presents FastTrack as DJIT+ with the clocks
//! compressed to epochs. Everything that is not the cell lives here once:
//! the same-epoch filter, the Fig. 4 index of boxed cells, first race per
//! location, the memory model and its budget, free handling, the report
//! and the `DGSS` snapshot section. A [`CellRule`] supplies what one
//! access does to one cell, and which clocks the cell holds.

use std::fmt::Debug;

use dgrace_shadow::{MemClass, MemoryModel, ShadowStore, ShadowTable, Victims};
use dgrace_trace::{Addr, Event, SnapshotReader, SnapshotWriter, TraceError};
use dgrace_vc::{ClockView, Epoch, Tid, VectorClock};

use crate::snap::{decode_races, decode_store, encode_races, encode_store, Section, SectionError};
use crate::{
    AccessKind, Detector, Granularity, HbState, RaceKind, RaceReport, Report, ShardableDetector,
};

/// The shadow state of one location and what an access does to it.
/// `Default` is the state of a location nobody has touched.
pub trait CellRule: Debug + Default + Send + 'static {
    /// The detector family's name (`"fasttrack"`, `"djit"`).
    const FAMILY: &'static str;

    /// Checks the first `kind` access of thread `tid`'s current epoch
    /// (its clock is `now`) against the cell, then records it. Returns the
    /// race and the earlier access's epoch, for the first race the cell
    /// sees only.
    fn access(
        &mut self,
        kind: AccessKind,
        tid: Tid,
        now: &VectorClock,
    ) -> Option<(RaceKind, Epoch)>;

    /// The cell's write clock and read clock.
    fn clocks(&self) -> [ClockView<'_>; 2];

    /// Whether an access of `kind` in `epoch` is already summarized by the
    /// cell — FastTrack's `W == E` / `R == E`: its thread wrote the
    /// location in this epoch (a write covers its later reads), or, for a
    /// read, read it. Then the access can change nothing and is skipped.
    #[inline]
    fn covers(&self, kind: AccessKind, epoch: Epoch) -> bool {
        let holds = |clock| match clock {
            ClockView::Epoch(e) => e == epoch,
            ClockView::Vc(vc) => vc.get(epoch.tid) == epoch.clock,
        };
        let [write, read] = self.clocks();
        holds(write) || kind == AccessKind::Read && holds(read)
    }

    /// Modeled bytes of the cell's clocks (Table 2's vector-clock class).
    fn bytes(&self) -> usize;

    /// Writes the cell into a snapshot.
    fn encode(&self, w: &mut SnapshotWriter);

    /// Reads a cell back from [`CellRule::encode`]'s bytes.
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, TraceError>;
}

/// A happens-before detector with a fixed detection granularity and the
/// per-location rule `C`.
///
/// Cells are boxed: Fig. 4's indexing arrays hold *pointers* to
/// heap-allocated vector-clock entries, and the allocation/deallocation
/// traffic of those entries is precisely the cost the dynamic
/// granularity eliminates (§V.A, "Slowdown"). Storing cells inline would
/// silently hand the fixed-granularity baselines an advantage the
/// paper's tool does not have.
#[derive(Debug, Default)]
pub struct FixedOn<C: CellRule> {
    granularity: Granularity,
    hb: HbState,
    table: ShadowTable<Box<C>, 1>,
    model: MemoryModel,
    vc_bytes: usize,
    races: Vec<RaceReport>,
    events: u64,
    accesses: u64,
    same_epoch: u64,
    vc_allocs: u64,
    vc_frees: u64,
    evicted: u64,
    event_index: u64,
}

impl<C: CellRule> FixedOn<C> {
    /// The detector at byte granularity — the reference of Table 1.
    pub fn new() -> Self {
        Self::with_granularity(Granularity::Byte)
    }

    /// The detector at an arbitrary fixed granularity.
    pub fn with_granularity(granularity: Granularity) -> Self {
        FixedOn {
            granularity,
            ..Default::default()
        }
    }

    /// A fresh detector with this one's configuration (granularity and
    /// budget) and no state.
    fn fresh(&self) -> Self {
        let mut fresh = Self::with_granularity(self.granularity);
        fresh.model.set_budget(self.model.budget());
        fresh
    }

    fn on_access(&mut self, tid: Tid, addr: Addr, kind: AccessKind) {
        self.accesses += 1;
        let loc = self.granularity.locate(addr);
        let now = self.hb.clock(tid);
        let epoch = Epoch::new(now.get(tid), tid);
        // The access's one directory probe.
        let at = self.table.chunk_or_insert(loc);
        if self.table.cell(at, 0, loc).is_none() {
            let cell = Box::<C>::default();
            self.vc_bytes += cell.bytes();
            self.table.put(at, 0, loc, cell);
            self.vc_allocs += 2;
        }
        let cell = self
            .table
            .cell_mut(at, 0, loc)
            .expect("present or just put");

        // Same-epoch filter (DJIT+'s core optimization), from the cell.
        if cell.covers(kind, epoch) {
            self.same_epoch += 1;
            return;
        }
        let before = cell.bytes();
        let race = cell.access(kind, tid, now);
        self.vc_bytes = self.vc_bytes + cell.bytes() - before;

        if let Some((kind, previous)) = race {
            self.races.push(RaceReport {
                addr: loc,
                kind,
                current: epoch,
                previous,
                event_index: Some(self.event_index),
                share_count: 1,
                tainted: false,
            });
        }
        self.update_model();
    }

    /// Removes every cell of `[base, base + len)`; returns how many.
    fn remove_cells(&mut self, base: Addr, len: u64) -> u64 {
        let mut freed_bytes = 0usize;
        let mut cells = 0u64;
        self.table.remove_range(base, len, |_, cell| {
            freed_bytes += cell.bytes();
            cells += 1;
        });
        self.vc_bytes -= freed_bytes;
        self.vc_frees += 2 * cells;
        cells
    }

    fn update_model(&mut self) {
        self.model.set(MemClass::Hash, self.table.index_bytes());
        self.model.set(MemClass::VectorClock, self.vc_bytes);
        self.model.set_vc_count(self.table.len() * 2);
        if self.model.over_budget() {
            self.enforce_budget();
        }
    }

    /// Evicts cold shadow regions until the modeled total drops below the
    /// budget (with an eighth of hysteresis so eviction is not re-entered
    /// on every access). A region holding a thread's current epoch goes
    /// last: a same-epoch repeat would re-create its cell, where the cell
    /// would have answered it. Eviction can only *miss* races — a
    /// re-inserted cell starts empty, so no stale epoch can fabricate a
    /// report. Kept
    /// off the hot path: reached only after [`MemoryModel::over_budget`]
    /// latches, which is a single compare while under budget.
    #[cold]
    fn enforce_budget(&mut self) {
        let Some(budget) = self.model.budget() else {
            return;
        };
        let target = budget - budget / 8;
        let mut victims = Victims::default();
        while self.model.current_total() > target {
            let hb = &self.hb;
            let victim = self.table.victim_region(&mut victims, |_, _, cell| {
                cell.clocks().into_iter().any(|c| hb.holds_current(c))
            });
            let Some((base, len)) = victim else {
                break;
            };
            let cells = self.remove_cells(base, len);
            if cells == 0 {
                break;
            }
            self.evicted += cells;
            self.model.set(MemClass::Hash, self.table.index_bytes());
            self.model.set(MemClass::VectorClock, self.vc_bytes);
            self.model.set_vc_count(self.table.len() * 2);
        }
    }
}

impl<C: CellRule> ShardableDetector for FixedOn<C> {
    fn new_shard(&self) -> Box<dyn Detector + Send> {
        Box::new(self.fresh())
    }
}

impl<C: CellRule> Detector for FixedOn<C> {
    fn name(&self) -> String {
        format!("{}-{}", C::FAMILY, self.granularity.label())
    }

    fn on_event(&mut self, ev: &Event) {
        self.events += 1;
        match *ev {
            Event::Read { tid, addr, .. } => self.on_access(tid, addr, AccessKind::Read),
            Event::Write { tid, addr, .. } => self.on_access(tid, addr, AccessKind::Write),
            Event::Free { addr, size, .. } => {
                self.remove_cells(addr, size);
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
        let mut rep = Report {
            detector: self.name(),
            races: std::mem::take(&mut self.races),
            ..Report::default()
        };
        rep.stats.events = self.events;
        rep.stats.accesses = self.accesses;
        rep.stats.same_epoch = self.same_epoch;
        rep.stats.vc_allocs = self.vc_allocs;
        rep.stats.vc_frees = self.vc_frees;
        rep.stats.set_peaks(&self.model);
        rep.stats.evicted = self.evicted;
        rep.budget_degraded = self.model.breached();
        *self = self.fresh();
        rep
    }

    fn set_shadow_budget(&mut self, bytes: Option<u64>) {
        self.model.set_budget(bytes.map(|b| b as usize));
    }

    fn mem_classes(&self) -> [u64; 3] {
        self.model.classes()
    }

    fn write_section(&self, w: &mut SnapshotWriter) -> bool {
        Section::Detector.write(w);
        self.hb.encode(w);
        encode_store(w, &self.table, |w, cell| cell.encode(w));
        self.model.encode(w);
        encode_races(w, &self.races);
        w.u64(self.vc_bytes as u64);
        for c in [
            self.events,
            self.accesses,
            self.same_epoch,
            self.vc_allocs,
            self.vc_frees,
            self.evicted,
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
        let hb = HbState::decode(r)?;
        let table = decode_store(r, |r| C::decode(r).map(Box::new))?;
        let mut model = MemoryModel::decode(r)?;
        let races = decode_races(r)?;
        let vc_bytes = r.u64()? as usize;
        let mut counters = [0u64; 7];
        for c in counters.iter_mut() {
            *c = r.u64()?;
        }
        model.set_budget(self.model.budget());
        let [events, accesses, same_epoch, vc_allocs, vc_frees, evicted, event_index] = counters;
        *self = FixedOn {
            granularity: self.granularity,
            hb,
            table,
            model,
            vc_bytes,
            races,
            events,
            accesses,
            same_epoch,
            vc_allocs,
            vc_frees,
            evicted,
            event_index,
        };
        Ok(())
    }
}
