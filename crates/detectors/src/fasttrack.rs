//! The FastTrack rule (§II.C): a write epoch and an adaptive read clock.

use dgrace_shadow::accounting::vc_cell_bytes;
use dgrace_trace::{SnapshotReader, SnapshotWriter, TraceError};
use dgrace_vc::{Epoch, ReadClock, Tid, VectorClock};

use crate::fixed::{CellRule, FixedOn};
use crate::snap::{decode_epoch, decode_read_clock, encode_epoch, encode_read_clock};
use crate::{AccessKind, RaceKind};

/// Shadow state of one location: a write epoch (always `O(1)` — all
/// race-free writes are totally ordered) and an adaptive read clock. The
/// first race is reported per plane: once for reads, once for writes.
#[derive(Clone, Debug)]
pub struct FastTrackCell {
    write: Epoch,
    read: ReadClock,
    read_raced: bool,
    write_raced: bool,
}

impl Default for FastTrackCell {
    fn default() -> Self {
        FastTrackCell {
            write: Epoch::NONE,
            read: ReadClock::none(),
            read_raced: false,
            write_raced: false,
        }
    }
}

impl CellRule for FastTrackCell {
    const FAMILY: &'static str = "fasttrack";

    #[inline]
    fn access(
        &mut self,
        kind: AccessKind,
        tid: Tid,
        now: &VectorClock,
    ) -> Option<(RaceKind, Epoch)> {
        let mut race = None;
        match kind {
            AccessKind::Read => {
                // [READ] write-read race: the last write is concurrent.
                if !self.read_raced && !self.write.is_none() && !self.write.leq(now) {
                    race = Some((RaceKind::WriteRead, self.write));
                    self.read_raced = true;
                }
                self.read.record_read(tid, now);
            }
            AccessKind::Write => {
                if !self.write_raced {
                    if !self.write.is_none() && !self.write.leq(now) {
                        // [WRITE] write-write race.
                        race = Some((RaceKind::WriteWrite, self.write));
                        self.write_raced = true;
                    } else if let Some(r) = self.read.find_concurrent_read(now) {
                        // [WRITE] read-write race.
                        race = Some((RaceKind::ReadWrite, r));
                        self.write_raced = true;
                    }
                }
                self.write = Epoch::new(now.get(tid), tid);
                // [WRITE SHARED] → deflate the read history: the write now
                // dominates it (or raced with it, which was just reported).
                if !self.read.is_epoch() {
                    self.read.reset();
                }
            }
        }
        race
    }

    /// One epoch-form cell for the write clock plus the read clock (epoch
    /// form or inflated).
    #[inline]
    fn bytes(&self) -> usize {
        vc_cell_bytes(0)
            + match &self.read {
                ReadClock::Epoch(_) => vc_cell_bytes(0),
                ReadClock::Vc(vc) => vc_cell_bytes(vc.width().max(1)),
            }
    }

    fn encode(&self, w: &mut SnapshotWriter) {
        encode_epoch(w, self.write);
        encode_read_clock(w, &self.read);
        w.bool(self.read_raced);
        w.bool(self.write_raced);
    }

    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, TraceError> {
        Ok(FastTrackCell {
            write: decode_epoch(r)?,
            read: decode_read_clock(r)?,
            read_raced: r.bool()?,
            write_raced: r.bool()?,
        })
    }
}

/// FastTrack (Flanagan & Freund, PLDI 2009) with a fixed detection
/// granularity — the paper's byte- and word-granularity baselines.
pub type FastTrack = FixedOn<FastTrackCell>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Detector, DetectorExt, Djit, Granularity};
    use dgrace_trace::{AccessSize, Addr, Trace, TraceBuilder};

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

    /// Each thread's bitmap starts over when its own epoch ends, and only
    /// then: a write then a read of `X` by T1 is filtered within an epoch
    /// and checked again after each event that ticks T1's clock.
    #[test]
    fn the_same_epoch_bitmap_resets_when_the_thread_s_epoch_ends() {
        let enders: [fn(&mut TraceBuilder); 6] = [
            |b| {
                b.release(1u32, 7u32);
            },
            |b| {
                b.release_read(1u32, 7u32);
            },
            |b| {
                b.cv_signal(1u32, 7u32);
            },
            |b| {
                b.barrier_arrive(1u32, 7u32);
            },
            |b| {
                b.fork(1u32, 2u32);
            },
            |b| {
                b.join(0u32, 1u32);
            },
        ];
        for (i, end) in enders.into_iter().enumerate() {
            let mut b = TraceBuilder::new();
            b.fork(0u32, 1u32)
                .write(1u32, X, AccessSize::U32)
                .read(1u32, X, AccessSize::U32);
            end(&mut b);
            b.write(1u32, X, AccessSize::U32)
                .acquire(3u32, 8u32) // another thread's sync event
                .release(3u32, 8u32)
                .write(1u32, X, AccessSize::U32);
            let rep = FastTrack::new().run(&b.build());
            assert_eq!(rep.stats.same_epoch, 2, "epoch-ending event {i}");
        }
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
