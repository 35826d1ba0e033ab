//! The DJIT+ rule (§II.B): full per-location read/write vector clocks.

use dgrace_shadow::accounting::vc_cell_bytes;
use dgrace_trace::{SnapshotReader, SnapshotWriter, TraceError};
use dgrace_vc::{Epoch, Tid, VectorClock};

use crate::fixed::{CellRule, FixedOn};
use crate::snap::{decode_vc, encode_vc};
use crate::{AccessKind, RaceKind};

/// Shadow state of one location: a full read vector clock, a full write
/// vector clock, and whether the location's one race has been reported.
#[derive(Clone, Debug, Default)]
pub struct DjitCell {
    read: VectorClock,
    write: VectorClock,
    raced: bool,
}

impl CellRule for DjitCell {
    const FAMILY: &'static str = "djit";

    #[inline]
    fn access(
        &mut self,
        kind: AccessKind,
        tid: Tid,
        now: &VectorClock,
    ) -> Option<(RaceKind, Epoch)> {
        let mut race = None;
        if !self.raced {
            // A clock entry `now` does not cover is an access not known
            // to this thread: write-read, write-write or read-write.
            let unordered = |vc: &VectorClock, kind| {
                vc.first_exceeding(now)
                    .map(|(t, c)| (kind, Epoch::new(c, t)))
            };
            race = match kind {
                AccessKind::Read => unordered(&self.write, RaceKind::WriteRead),
                AccessKind::Write => unordered(&self.write, RaceKind::WriteWrite)
                    .or_else(|| unordered(&self.read, RaceKind::ReadWrite)),
            };
            self.raced = race.is_some();
        }
        match kind {
            AccessKind::Read => self.read.set(tid, now.get(tid)),
            AccessKind::Write => self.write.set(tid, now.get(tid)),
        }
        race
    }

    /// Two VC cells plus payloads.
    #[inline]
    fn bytes(&self) -> usize {
        vc_cell_bytes(self.read.width().max(1)) + vc_cell_bytes(self.write.width().max(1))
    }

    fn encode(&self, w: &mut SnapshotWriter) {
        encode_vc(w, &self.read);
        encode_vc(w, &self.write);
        w.bool(self.raced);
    }

    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, TraceError> {
        Ok(DjitCell {
            read: decode_vc(r)?,
            write: decode_vc(r)?,
            raced: r.bool()?,
        })
    }
}

/// DJIT+ (Pozniansky & Schuster): every location keeps a full read vector
/// clock and a full write vector clock; only the first read and first
/// write per epoch are checked; the first race per location is reported.
pub type Djit = FixedOn<DjitCell>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Detector, DetectorExt, Granularity};
    use dgrace_trace::{AccessSize, Addr, TraceBuilder};

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
