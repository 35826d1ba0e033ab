//! The DJIT+ detector (§II.B): full per-location read/write vector clocks.

use dgrace_shadow::accounting::vc_cell_bytes;
use dgrace_shadow::{HashSelect, MemClass, MemoryModel, ShadowStore, StoreSelect};
use dgrace_trace::snapshot::{STATE_MAGIC, STATE_VERSION};
use dgrace_trace::{Addr, Event, SnapshotLimits, SnapshotReader, SnapshotWriter, TraceError};
use dgrace_vc::{Epoch, Tid, VectorClock};

use crate::snap::{decode_store, decode_vc, encode_store, encode_vc};
use crate::{
    AccessKind, Detector, Granularity, HbState, RaceKind, RaceReport, Report, ShardableDetector,
};

#[derive(Clone, Debug)]
struct Cell {
    read: VectorClock,
    write: VectorClock,
    raced: bool,
}

impl Cell {
    fn new() -> Self {
        Cell {
            read: VectorClock::new(),
            write: VectorClock::new(),
            raced: false,
        }
    }

    /// Modeled bytes: two VC cells plus payloads.
    fn bytes(&self) -> usize {
        vc_cell_bytes(self.read.width().max(1)) + vc_cell_bytes(self.write.width().max(1))
    }
}

/// DJIT+ (Pozniansky & Schuster): every location keeps a full read vector
/// clock and a full write vector clock; only the first read and first
/// write per epoch are checked; the first race per location is reported.
/// Generic over the shadow store selected by `K`.
#[derive(Debug, Default)]
pub struct DjitOn<K: StoreSelect> {
    granularity: Granularity,
    hb: HbState,
    table: K::Store<Box<Cell>>,
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

/// DJIT+ on the chained-hash store (the default).
pub type Djit = DjitOn<HashSelect>;

impl<K: StoreSelect> DjitOn<K> {
    /// Creates a byte-granularity DJIT+ detector.
    pub fn new() -> Self {
        Self::with_granularity(Granularity::Byte)
    }

    /// Creates a DJIT+ detector at the given granularity.
    pub fn with_granularity(granularity: Granularity) -> Self {
        DjitOn {
            granularity,
            ..Default::default()
        }
    }

    fn on_access(&mut self, tid: Tid, addr: Addr, kind: AccessKind) {
        self.accesses += 1;
        let loc = self.granularity.locate(addr);

        // Same-epoch filter (DJIT+'s core optimization).
        let first = match kind {
            AccessKind::Read => self.hb.first_read_in_epoch(tid, loc),
            AccessKind::Write => self.hb.first_write_in_epoch(tid, loc),
        };
        if !first {
            self.same_epoch += 1;
            return;
        }

        let now = self.hb.now(tid);
        let my_epoch = Epoch::new(now.get(tid), tid);

        if self.table.get(loc).is_none() {
            self.table.insert(loc, Box::new(Cell::new()));
            self.vc_allocs += 2;
            self.vc_bytes += vc_cell_bytes(1) * 2;
        }
        let cell = self.table.get_mut(loc).expect("just inserted");
        let before = cell.bytes();

        let mut race: Option<(RaceKind, Epoch)> = None;
        if !cell.raced {
            match kind {
                AccessKind::Read => {
                    // Write-read race: some write is not known to us.
                    if let Some((t, c)) = cell.write.first_exceeding(now) {
                        race = Some((RaceKind::WriteRead, Epoch::new(c, t)));
                    }
                }
                AccessKind::Write => {
                    if let Some((t, c)) = cell.write.first_exceeding(now) {
                        race = Some((RaceKind::WriteWrite, Epoch::new(c, t)));
                    } else if let Some((t, c)) = cell.read.first_exceeding(now) {
                        race = Some((RaceKind::ReadWrite, Epoch::new(c, t)));
                    }
                }
            }
        }

        match kind {
            AccessKind::Read => cell.read.set(tid, my_epoch.clock),
            AccessKind::Write => cell.write.set(tid, my_epoch.clock),
        }

        let after = cell.bytes();
        if let Some((kind, previous)) = race {
            cell.raced = true;
            self.races.push(RaceReport {
                addr: loc,
                kind,
                current: my_epoch,
                previous,
                event_index: Some(self.event_index),
                share_count: 1,
                tainted: false,
            });
        }

        self.vc_bytes = self.vc_bytes + after - before;
        self.update_model();
    }

    fn update_model(&mut self) {
        self.model.set(MemClass::Hash, self.table.index_bytes());
        self.model.set(MemClass::VectorClock, self.vc_bytes);
        self.model.set(MemClass::Bitmap, self.hb.bitmap_bytes());
        self.model.set_vc_count(self.table.len() * 2);
        if self.model.over_budget() {
            self.enforce_budget();
        }
    }

    /// Evicts cold shadow regions until the modeled total drops below the
    /// budget (with an eighth of hysteresis so eviction is not re-entered
    /// on every access). Eviction can only *miss* races — a re-inserted
    /// cell starts empty, so no stale epoch can fabricate a report.
    #[cold]
    fn enforce_budget(&mut self) {
        let Some(budget) = self.model.budget() else {
            return;
        };
        let target = budget - budget / 8;
        while self.model.current_total() > target {
            let Some((base, len)) = self.table.victim_region() else {
                break;
            };
            let mut freed_bytes = 0usize;
            let mut cells = 0u64;
            self.table.remove_range(base, len, |_, cell| {
                freed_bytes += cell.bytes();
                cells += 1;
            });
            if cells == 0 {
                break;
            }
            self.vc_bytes -= freed_bytes;
            self.vc_frees += 2 * cells;
            self.evicted += cells;
            self.model.set(MemClass::Hash, self.table.index_bytes());
            self.model.set(MemClass::VectorClock, self.vc_bytes);
            self.model.set_vc_count(self.table.len() * 2);
        }
    }
}

impl Cell {
    fn encode(&self, w: &mut SnapshotWriter) {
        encode_vc(w, &self.read);
        encode_vc(w, &self.write);
        w.bool(self.raced);
    }

    fn decode(r: &mut SnapshotReader<'_>) -> Result<Box<Self>, TraceError> {
        Ok(Box::new(Cell {
            read: decode_vc(r)?,
            write: decode_vc(r)?,
            raced: r.bool()?,
        }))
    }
}

impl<K: StoreSelect> ShardableDetector for DjitOn<K> {
    fn new_shard(&self) -> Box<dyn Detector + Send> {
        let mut shard = DjitOn::<K>::with_granularity(self.granularity);
        shard.model.set_budget(self.model.budget());
        Box::new(shard)
    }
}

impl<K: StoreSelect> Detector for DjitOn<K> {
    fn name(&self) -> String {
        format!("djit-{}{}", self.granularity.label(), K::NAME_SUFFIX)
    }

    fn on_event(&mut self, ev: &Event) {
        self.events += 1;
        match *ev {
            Event::Read { tid, addr, .. } => self.on_access(tid, addr, AccessKind::Read),
            Event::Write { tid, addr, .. } => self.on_access(tid, addr, AccessKind::Write),
            Event::Free { addr, size, .. } => {
                let mut freed_bytes = 0usize;
                let mut freed = 0u64;
                self.table.remove_range(addr, size, |_, cell| {
                    freed_bytes += cell.bytes();
                    freed += 2;
                });
                self.vc_bytes -= freed_bytes;
                self.vc_frees += freed;
                self.update_model();
            }
            Event::Alloc { .. } => {}
            _ => {
                self.hb.on_sync(ev);
                self.model.set(MemClass::Bitmap, self.hb.bitmap_bytes());
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
        rep.stats.peak_vc_count = self.model.peak_vc_count();
        rep.stats.peak_hash_bytes = self.model.peak(MemClass::Hash);
        rep.stats.peak_vc_bytes = self.model.peak(MemClass::VectorClock);
        rep.stats.peak_bitmap_bytes = self.hb.peak_bitmap_bytes();
        rep.stats.peak_total_bytes = self.model.peak_total();
        rep.stats.evicted = self.evicted;
        rep.budget_degraded = self.model.breached();
        let budget = self.model.budget();
        *self = Self::with_granularity(self.granularity);
        self.model.set_budget(budget);
        rep
    }

    fn set_shadow_budget(&mut self, bytes: Option<u64>) {
        self.model.set_budget(bytes.map(|b| b as usize));
    }

    fn mem_classes(&self) -> [u64; 3] {
        [
            self.model.current(MemClass::Hash) as u64,
            self.model.current(MemClass::VectorClock) as u64,
            self.model.current(MemClass::Bitmap) as u64,
        ]
    }

    fn snapshot(&self) -> Option<Vec<u8>> {
        let mut w = SnapshotWriter::new(STATE_MAGIC, STATE_VERSION);
        w.str(&self.name());
        self.hb.encode(&mut w);
        encode_store(&mut w, &self.table, |w, cell| Cell::encode(cell, w));
        self.model.encode(&mut w);
        w.count(self.races.len());
        for race in &self.races {
            race.encode(&mut w);
        }
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
        Some(w.finish())
    }

    fn races_so_far(&self) -> &[RaceReport] {
        &self.races
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), String> {
        let name = self.name();
        let fail = |e: TraceError| format!("{name}: corrupt snapshot: {e}");
        let mut r =
            SnapshotReader::new(bytes, STATE_MAGIC, STATE_VERSION, SnapshotLimits::default())
                .map_err(fail)?;
        let snap_name = r.str().map_err(fail)?;
        if snap_name != name {
            return Err(format!(
                "snapshot is for detector {snap_name:?}, not {name:?}"
            ));
        }
        let hb = HbState::decode(&mut r).map_err(fail)?;
        let table = decode_store(&mut r, Cell::decode).map_err(fail)?;
        let mut model = MemoryModel::decode(&mut r).map_err(fail)?;
        let n = r.count("race reports").map_err(fail)?;
        let mut races = Vec::new();
        for _ in 0..n {
            races.push(RaceReport::decode(&mut r).map_err(fail)?);
        }
        let vc_bytes = r.u64().map_err(fail)? as usize;
        let mut counters = [0u64; 7];
        for c in counters.iter_mut() {
            *c = r.u64().map_err(fail)?;
        }
        r.expect_end().map_err(fail)?;
        model.set_budget(self.model.budget());
        *self = DjitOn {
            granularity: self.granularity,
            hb,
            table,
            model,
            vc_bytes,
            races,
            events: counters[0],
            accesses: counters[1],
            same_epoch: counters[2],
            vc_allocs: counters[3],
            vc_frees: counters[4],
            evicted: counters[5],
            event_index: counters[6],
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DetectorExt;
    use dgrace_trace::{AccessSize, TraceBuilder};

    const X: u64 = 0x1000;

    #[test]
    fn shadow_budget_evicts_and_flags_degraded() {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32);
        for i in 0..256u64 {
            b.write(0u32, 0x1000 + i * 128, AccessSize::U32);
        }
        b.write(0u32, 0x100000u64, AccessSize::U32)
            .write(1u32, 0x100000u64, AccessSize::U32);
        let mut d = Djit::new();
        d.set_shadow_budget(Some(16 * 1024));
        let rep = d.run(&b.build());
        assert!(rep.budget_degraded);
        assert!(rep.stats.evicted > 0);
        assert_eq!(rep.races.len(), 1, "race on the warm location survives");
        assert_eq!(rep.races[0].addr, Addr(0x100000));
    }

    /// Figure 1 of the paper: thread 1 writes x under lock s, thread 0
    /// then writes x without synchronizing with that release — the write
    /// is a data race because `W_x[1] ⋢ T_0`.
    #[test]
    fn figure1_djit_example() {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32)
            .acquire(1u32, 0u32)
            .write(1u32, X, AccessSize::U32)
            .release(1u32, 0u32)
            .write(0u32, X, AccessSize::U32);
        let rep = Djit::new().run(&b.build());
        assert_eq!(rep.races.len(), 1);
        let r = &rep.races[0];
        assert_eq!(r.addr, Addr(X));
        assert_eq!(r.kind, RaceKind::WriteWrite);
        assert_eq!(r.previous.tid, Tid(1));
        assert_eq!(r.current.tid, Tid(0));
    }

    #[test]
    fn lock_discipline_has_no_race() {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32);
        for t in [0u32, 1u32] {
            b.locked(t, 0u32, |b| {
                b.read(t, X, AccessSize::U32).write(t, X, AccessSize::U32);
            });
        }
        let rep = Djit::new().run(&b.build());
        assert!(rep.races.is_empty());
    }

    #[test]
    fn read_read_is_not_a_race() {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32)
            .read(0u32, X, AccessSize::U32)
            .read(1u32, X, AccessSize::U32);
        assert!(Djit::new().run(&b.build()).races.is_empty());
    }

    #[test]
    fn write_read_race_detected() {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32)
            .write(0u32, X, AccessSize::U32)
            .read(1u32, X, AccessSize::U32);
        let rep = Djit::new().run(&b.build());
        assert_eq!(rep.races.len(), 1);
        assert_eq!(rep.races[0].kind, RaceKind::WriteRead);
    }

    #[test]
    fn read_write_race_detected() {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32)
            .read(0u32, X, AccessSize::U32)
            .write(1u32, X, AccessSize::U32);
        let rep = Djit::new().run(&b.build());
        assert_eq!(rep.races.len(), 1);
        assert_eq!(rep.races[0].kind, RaceKind::ReadWrite);
    }

    #[test]
    fn only_first_race_per_location() {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32);
        for _ in 0..3 {
            b.write(0u32, X, AccessSize::U32)
                .release(0u32, 1u32) // new epochs so accesses are checked
                .write(1u32, X, AccessSize::U32)
                .release(1u32, 2u32);
        }
        let rep = Djit::new().run(&b.build());
        assert_eq!(rep.races.len(), 1);
    }

    #[test]
    fn fork_join_orders_accesses() {
        let mut b = TraceBuilder::new();
        b.write(0u32, X, AccessSize::U32)
            .fork(0u32, 1u32)
            .write(1u32, X, AccessSize::U32)
            .join(0u32, 1u32)
            .write(0u32, X, AccessSize::U32);
        assert!(Djit::new().run(&b.build()).races.is_empty());
    }

    #[test]
    fn word_granularity_masks_addresses() {
        let mut b = TraceBuilder::new();
        // Two different bytes in the same word: distinct under byte
        // granularity, one location under word granularity.
        b.fork(0u32, 1u32)
            .write(0u32, 0x1001u64, AccessSize::U8)
            .write(1u32, 0x1002u64, AccessSize::U8);
        let trace = b.build();
        assert!(Djit::new().run(&trace).races.is_empty());
        let rep = Djit::with_granularity(Granularity::Word).run(&trace);
        assert_eq!(rep.races.len(), 1, "word granularity merges the bytes");
        assert_eq!(rep.races[0].addr, Addr(0x1000));
    }

    #[test]
    fn free_clears_shadow_state() {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32)
            .write(0u32, X, AccessSize::U32)
            .free(0u32, X, 4)
            // Reuse of the block by another thread: no stale race.
            .release(0u32, 3u32)
            .acquire(1u32, 3u32)
            .write(1u32, X, AccessSize::U32);
        let rep = Djit::new().run(&b.build());
        assert!(rep.races.is_empty());
        assert!(rep.stats.vc_frees >= 2);
    }

    #[test]
    fn stats_populated() {
        let mut b = TraceBuilder::new();
        b.write(0u32, X, AccessSize::U32)
            .write(0u32, X, AccessSize::U32);
        let rep = Djit::new().run(&b.build());
        assert_eq!(rep.stats.accesses, 2);
        assert_eq!(rep.stats.same_epoch, 1);
        assert!(rep.stats.peak_vc_bytes > 0);
        assert!(rep.stats.peak_hash_bytes > 0);
        assert!(rep.stats.peak_vc_count >= 2);
    }
}
