//! The FastTrack detector (§II.C) at a fixed granularity.

use dgrace_shadow::accounting::vc_cell_bytes;
use dgrace_shadow::{HashSelect, MemClass, MemoryModel, ShadowStore, StoreSelect};
use dgrace_trace::snapshot::{STATE_MAGIC, STATE_VERSION};
use dgrace_trace::{Addr, Event, SnapshotLimits, SnapshotReader, SnapshotWriter, TraceError};
use dgrace_vc::{Epoch, ReadClock, Tid};

use crate::snap::{
    decode_epoch, decode_read_clock, decode_store, encode_epoch, encode_read_clock, encode_store,
};
use crate::{
    AccessKind, Detector, Granularity, HbState, RaceKind, RaceReport, Report, ShardableDetector,
};

/// Shadow state of one location: a write epoch (always `O(1)` — all
/// race-free writes are totally ordered) and an adaptive read clock.
///
/// Cells are boxed: Fig. 4's indexing arrays hold *pointers* to
/// heap-allocated vector-clock entries, and the allocation/deallocation
/// traffic of those entries is precisely the cost the dynamic
/// granularity eliminates (§V.A, "Slowdown"). Storing cells inline would
/// silently hand the fixed-granularity baselines an advantage the
/// paper's tool does not have.
#[derive(Clone, Debug)]
struct Cell {
    write: Epoch,
    read: ReadClock,
    read_raced: bool,
    write_raced: bool,
}

impl Cell {
    fn new() -> Self {
        Cell {
            write: Epoch::NONE,
            read: ReadClock::none(),
            read_raced: false,
            write_raced: false,
        }
    }

    /// Modeled bytes: one epoch-form cell for the write clock plus the
    /// read clock (epoch form or inflated).
    fn bytes(&self) -> usize {
        vc_cell_bytes(0)
            + match &self.read {
                ReadClock::Epoch(_) => vc_cell_bytes(0),
                ReadClock::Vc(vc) => vc_cell_bytes(vc.width().max(1)),
            }
    }
}

/// FastTrack (Flanagan & Freund, PLDI 2009) with a fixed detection
/// granularity — the paper's byte- and word-granularity baselines —
/// generic over the shadow store selected by `K`.
#[derive(Debug, Default)]
pub struct FastTrackOn<K: StoreSelect> {
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

/// FastTrack on the chained-hash store (the default).
pub type FastTrack = FastTrackOn<HashSelect>;

impl<K: StoreSelect> FastTrackOn<K> {
    /// Byte-granularity FastTrack — the reference detector of Table 1.
    pub fn new() -> Self {
        Self::with_granularity(Granularity::Byte)
    }

    /// FastTrack at an arbitrary fixed granularity.
    pub fn with_granularity(granularity: Granularity) -> Self {
        FastTrackOn {
            granularity,
            ..Default::default()
        }
    }

    fn on_access(&mut self, tid: Tid, addr: Addr, kind: AccessKind) {
        self.accesses += 1;
        let loc = self.granularity.locate(addr);

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
            let cell = Box::new(Cell::new());
            self.vc_bytes += cell.bytes();
            self.table.insert(loc, cell);
            self.vc_allocs += 2;
        }
        let cell = self.table.get_mut(loc).expect("just inserted");
        let before = cell.bytes();

        let mut race: Option<(RaceKind, Epoch)> = None;
        match kind {
            AccessKind::Read => {
                // [READ] write-read race: the last write is concurrent.
                if !cell.read_raced && !cell.write.is_none() && !cell.write.leq(now) {
                    race = Some((RaceKind::WriteRead, cell.write));
                    cell.read_raced = true;
                }
                cell.read.record_read(tid, now);
            }
            AccessKind::Write => {
                if !cell.write_raced {
                    if !cell.write.is_none() && !cell.write.leq(now) {
                        // [WRITE] write-write race.
                        race = Some((RaceKind::WriteWrite, cell.write));
                        cell.write_raced = true;
                    } else if let Some(r) = cell.read.find_concurrent_read(now) {
                        // [WRITE] read-write race.
                        race = Some((RaceKind::ReadWrite, r));
                        cell.write_raced = true;
                    }
                }
                cell.write = my_epoch;
                // [WRITE SHARED] → deflate the read history: the write now
                // dominates it (or raced with it, which was just reported).
                if !cell.read.is_epoch() {
                    cell.read.reset();
                }
            }
        }

        let after = cell.bytes();
        self.vc_bytes = self.vc_bytes + after - before;

        if let Some((kind, previous)) = race {
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

    /// Evicts cold shadow chunks until comfortably under budget. Kept off
    /// the hot path: reached only after [`MemoryModel::over_budget`]
    /// latches, which is a single compare while under budget.
    #[cold]
    fn enforce_budget(&mut self) {
        let Some(budget) = self.model.budget() else {
            return;
        };
        // Hysteresis: free an extra eighth so steady-state growth does not
        // re-trigger eviction on every access.
        let target = budget - budget / 8;
        while self.model.current_total() > target {
            let Some((base, len)) = self.table.victim_region() else {
                // Nothing evictable (bitmaps are not): degrade no further.
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
        encode_epoch(w, self.write);
        encode_read_clock(w, &self.read);
        w.bool(self.read_raced);
        w.bool(self.write_raced);
    }

    fn decode(r: &mut SnapshotReader<'_>) -> Result<Box<Self>, TraceError> {
        Ok(Box::new(Cell {
            write: decode_epoch(r)?,
            read: decode_read_clock(r)?,
            read_raced: r.bool()?,
            write_raced: r.bool()?,
        }))
    }
}

impl<K: StoreSelect> ShardableDetector for FastTrackOn<K> {
    fn new_shard(&self) -> Box<dyn Detector + Send> {
        let mut shard = FastTrackOn::<K>::with_granularity(self.granularity);
        shard.model.set_budget(self.model.budget());
        Box::new(shard)
    }
}

impl<K: StoreSelect> Detector for FastTrackOn<K> {
    fn name(&self) -> String {
        format!("fasttrack-{}{}", self.granularity.label(), K::NAME_SUFFIX)
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
        *self = FastTrackOn {
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
    use crate::{DetectorExt, Djit};
    use dgrace_trace::{AccessSize, Trace, TraceBuilder};

    const X: u64 = 0x1000;

    fn racy_pair() -> Trace {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32)
            .write(0u32, X, AccessSize::U32)
            .write(1u32, X, AccessSize::U32);
        b.build()
    }

    #[test]
    fn detects_write_write_race() {
        let rep = FastTrack::new().run(&racy_pair());
        assert_eq!(rep.races.len(), 1);
        assert_eq!(rep.races[0].kind, RaceKind::WriteWrite);
        assert_eq!(rep.races[0].addr, Addr(X));
    }

    #[test]
    fn locked_accesses_race_free() {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32);
        for round in 0..4 {
            let t = (round % 2) as u32;
            b.locked(t, 0u32, |b| {
                b.read(t, X, AccessSize::U32).write(t, X, AccessSize::U32);
            });
        }
        assert!(FastTrack::new().run(&b.build()).races.is_empty());
    }

    #[test]
    fn read_shared_then_racy_write() {
        let mut b = TraceBuilder::new();
        // Both threads read x concurrently (legal), then T1 writes
        // without synchronization — a read-write race.
        b.fork(0u32, 1u32)
            .read(0u32, X, AccessSize::U32)
            .read(1u32, X, AccessSize::U32)
            .release(1u32, 5u32) // new epoch so the write is checked
            .write(1u32, X, AccessSize::U32);
        let rep = FastTrack::new().run(&b.build());
        assert_eq!(rep.races.len(), 1);
        assert_eq!(rep.races[0].kind, RaceKind::ReadWrite);
        // The racing read is T0's (T1's own read is ordered).
        assert_eq!(rep.races[0].previous.tid, Tid(0));
    }

    #[test]
    fn read_exclusive_stays_epoch_no_false_alarm() {
        let mut b = TraceBuilder::new();
        // Reads ordered by a lock chain stay in epoch form and are not
        // racy with the final synchronized write.
        b.fork(0u32, 1u32)
            .locked(0u32, 0u32, |b| {
                b.read(0u32, X, AccessSize::U32);
            })
            .locked(1u32, 0u32, |b| {
                b.read(1u32, X, AccessSize::U32);
            })
            .locked(1u32, 0u32, |b| {
                b.write(1u32, X, AccessSize::U32);
            });
        // T0's read is ordered before T1's write via lock 0? No: lock
        // acquisition orders release→acquire, and T0 released before T1
        // acquired, so yes — fully ordered, race free.
        assert!(FastTrack::new().run(&b.build()).races.is_empty());
    }

    #[test]
    fn write_read_race() {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32)
            .write(0u32, X, AccessSize::U32)
            .read(1u32, X, AccessSize::U32);
        let rep = FastTrack::new().run(&b.build());
        assert_eq!(rep.races.len(), 1);
        assert_eq!(rep.races[0].kind, RaceKind::WriteRead);
    }

    #[test]
    fn first_race_only_per_plane() {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32);
        for _ in 0..3 {
            b.write(0u32, X, AccessSize::U32)
                .release(0u32, 1u32)
                .write(1u32, X, AccessSize::U32)
                .release(1u32, 2u32);
        }
        let rep = FastTrack::new().run(&b.build());
        assert_eq!(rep.races.len(), 1);
    }

    #[test]
    fn same_epoch_fast_path_counted() {
        let mut b = TraceBuilder::new();
        for _ in 0..10 {
            b.read(0u32, X, AccessSize::U32);
        }
        let rep = FastTrack::new().run(&b.build());
        assert_eq!(rep.stats.same_epoch, 9);
        assert!((rep.stats.same_epoch_fraction() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn word_masks_but_byte_does_not() {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32)
            .write(0u32, 0x1001u64, AccessSize::U8)
            .write(1u32, 0x1002u64, AccessSize::U8);
        let trace = b.build();
        assert!(FastTrack::new().run(&trace).races.is_empty());
        let rep = FastTrack::with_granularity(Granularity::Word).run(&trace);
        assert_eq!(rep.races.len(), 1);
    }

    #[test]
    fn agrees_with_djit_on_simple_traces() {
        let traces = [racy_pair(), {
            let mut b = TraceBuilder::new();
            b.fork(0u32, 1u32)
                .locked(0u32, 0u32, |b| {
                    b.write(0u32, X, AccessSize::U32);
                })
                .locked(1u32, 0u32, |b| {
                    b.read(1u32, X, AccessSize::U32);
                })
                .read(1u32, X.wrapping_add(64), AccessSize::U32)
                .write(0u32, X.wrapping_add(64), AccessSize::U32);
            b.build()
        }];
        for t in &traces {
            let ft = FastTrack::new().run(t);
            let dj = Djit::new().run(t);
            assert_eq!(ft.race_addrs(), dj.race_addrs());
        }
    }

    #[test]
    fn free_then_reuse_is_clean() {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32)
            .write(0u32, X, AccessSize::U32)
            .free(0u32, X, 4)
            .release(0u32, 3u32)
            .acquire(1u32, 3u32)
            .write(1u32, X, AccessSize::U32);
        let rep = FastTrack::new().run(&b.build());
        assert!(rep.races.is_empty());
        assert_eq!(rep.stats.vc_frees, 2);
    }

    #[test]
    fn read_inflation_reflected_in_vc_bytes() {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32)
            .read(0u32, X, AccessSize::U32)
            .read(1u32, X, AccessSize::U32);
        let rep = FastTrack::new().run(&b.build());
        // Inflated read clock costs more than two epoch cells.
        assert!(rep.stats.peak_vc_bytes > 2 * vc_cell_bytes(0));
        assert!(rep.races.is_empty());
    }

    #[test]
    fn shadow_budget_evicts_and_flags_degraded() {
        // Touch many distinct chunks under a tight budget: the detector
        // must evict cold (lowest-addressed) chunks, flag the report, and
        // still catch a race on the warmest location.
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32);
        for i in 0..256u64 {
            b.write(0u32, 0x1000 + i * 128, AccessSize::U32);
        }
        b.write(0u32, 0x100000u64, AccessSize::U32)
            .write(1u32, 0x100000u64, AccessSize::U32);
        let mut d = FastTrack::new();
        d.set_shadow_budget(Some(16 * 1024));
        let rep = d.run(&b.build());
        assert!(rep.budget_degraded);
        assert!(rep.stats.evicted > 0);
        assert!(rep.is_degraded());
        assert_eq!(rep.races.len(), 1, "race on the warm location survives");
        assert_eq!(rep.races[0].addr, Addr(0x100000));
        // The budget (and only the budget) survives the finish reset.
        let clean = d.run(&racy_pair());
        assert_eq!(clean.races.len(), 1);
        assert!(!clean.budget_degraded, "tiny trace fits the budget");
    }

    #[test]
    fn without_budget_no_degradation() {
        let rep = FastTrack::new().run(&racy_pair());
        assert!(!rep.budget_degraded);
        assert_eq!(rep.stats.evicted, 0);
        assert!(!rep.is_degraded());
    }

    #[test]
    fn name_includes_granularity() {
        assert_eq!(FastTrack::new().name(), "fasttrack-byte");
        assert_eq!(
            FastTrack::with_granularity(Granularity::Word).name(),
            "fasttrack-word"
        );
    }
}
