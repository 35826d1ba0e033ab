//! Shared happens-before machinery: thread clocks, lock clocks, epochs,
//! fork/join edges, and per-thread same-epoch bitmaps.

use std::collections::HashMap;

use dgrace_shadow::EpochBitmap;
use dgrace_trace::{Addr, Event, LockId, SnapshotReader, SnapshotWriter, TraceError};
use dgrace_vc::{Epoch, Tid, VectorClock};

use crate::snap::{decode_vc, encode_vc};

#[derive(Clone, Debug)]
struct ThreadState {
    vc: VectorClock,
    bitmap: EpochBitmap,
}

/// Clocks of one synchronization object (mutex or reader-writer lock —
/// they share the id space, as pthreads addresses do).
#[derive(Clone, Debug, Default)]
struct LockClocks {
    /// Everything published by any release (read or write): what a
    /// *write* acquire must synchronize with.
    all: VectorClock,
    /// Everything published by write releases only: what a *read*
    /// acquire synchronizes with (readers do not order other readers).
    writer: VectorClock,
}

impl ThreadState {
    fn new(tid: Tid) -> Self {
        let mut vc = VectorClock::new();
        vc.set(tid, 1); // epochs start at 1; clock 0 means "never".
        ThreadState {
            vc,
            bitmap: EpochBitmap::new(),
        }
    }
}

/// The synchronization state of an execution, updated by sync events and
/// queried by detectors on every access.
///
/// Epoch semantics follow DJIT+ (§II.B): a thread's own clock is
/// incremented at every lock **release** (and at fork/join edges, which
/// also publish its clock), so a thread's execution is a sequence of
/// epochs delimited by release-like operations. The per-thread same-epoch
/// bitmap is reset whenever the thread's own clock ticks.
#[derive(Clone, Debug, Default)]
pub struct HbState {
    threads: Vec<Option<ThreadState>>,
    locks: HashMap<LockId, LockClocks>,
    /// Condition-variable clocks: signals publish, waits join.
    cvs: HashMap<LockId, VectorClock>,
    /// Barrier clocks: arrivals accumulate, departures join.
    ///
    /// A single accumulating clock per barrier conservatively orders a
    /// departure after *every* earlier arrival in observed order — exact
    /// within a generation, and at worst an extra edge across adjacent
    /// generations (which can hide a cross-generation race but never
    /// fabricates one).
    bars: HashMap<LockId, VectorClock>,
    bitmap_bytes: usize,
    peak_bitmap_bytes: usize,
}

impl HbState {
    /// Creates an empty state (threads materialize on first use).
    pub fn new() -> Self {
        Self::default()
    }

    fn thread_mut(&mut self, t: Tid) -> &mut ThreadState {
        let i = t.index();
        if i >= self.threads.len() {
            self.threads.resize_with(i + 1, || None);
        }
        self.threads[i].get_or_insert_with(|| ThreadState::new(t))
    }

    /// The current vector clock of thread `t`.
    pub fn clock(&mut self, t: Tid) -> &VectorClock {
        &self.thread_mut(t).vc
    }

    /// The current vector clock of thread `t`, borrowed through `&self` so
    /// a detector can hold it for the whole of an access while it mutates
    /// its own shadow state, instead of copying it out first.
    ///
    /// # Panics
    /// Panics if `t` has not materialized yet. The same-epoch filter
    /// ([`Self::first_read_in_epoch`] / [`Self::first_write_in_epoch`])
    /// that opens every access materializes it.
    #[inline]
    pub fn now(&self, t: Tid) -> &VectorClock {
        let slot = self.threads.get(t.index()).and_then(Option::as_ref);
        &slot
            .expect("thread materialized by the same-epoch filter")
            .vc
    }

    /// The current epoch `c@t` of thread `t`.
    pub fn epoch(&mut self, t: Tid) -> Epoch {
        let vc = &self.thread_mut(t).vc;
        Epoch::new(vc.get(t), t)
    }

    /// Ticks `t`'s own clock (starting a new epoch) and resets its bitmap.
    fn new_epoch(&mut self, t: Tid) {
        let ts = self.thread_mut(t);
        ts.vc.tick(t);
        let before = ts.bitmap.bytes();
        ts.bitmap.reset();
        self.bitmap_bytes -= before;
    }

    /// Handles a synchronization event; access events are ignored (they
    /// are the detectors' business). Returns `true` if the event was a
    /// sync event.
    pub fn on_sync(&mut self, ev: &Event) -> bool {
        match *ev {
            Event::Acquire { tid, lock } => {
                // T_i := T_i ⊔ L_s (everything any release published).
                if let Some(lc) = self.locks.get(&lock) {
                    let all = lc.all.clone();
                    self.thread_mut(tid).vc.join(&all);
                } else {
                    self.thread_mut(tid); // materialize
                }
                true
            }
            Event::Release { tid, lock } => {
                // L_s := L_s ⊔ T_i, then a new epoch for T_i. A write
                // release publishes to readers and writers alike.
                let tvc = self.thread_mut(tid).vc.clone();
                let lc = self.locks.entry(lock).or_default();
                lc.all.join(&tvc);
                lc.writer.join(&tvc);
                self.new_epoch(tid);
                true
            }
            Event::AcquireRead { tid, lock } => {
                // Readers synchronize with prior write releases only.
                if let Some(lc) = self.locks.get(&lock) {
                    let w = lc.writer.clone();
                    self.thread_mut(tid).vc.join(&w);
                } else {
                    self.thread_mut(tid);
                }
                true
            }
            Event::ReleaseRead { tid, lock } => {
                // A read release publishes to the *next writer* (via
                // `all`) but not to other readers.
                let tvc = self.thread_mut(tid).vc.clone();
                self.locks.entry(lock).or_default().all.join(&tvc);
                self.new_epoch(tid);
                true
            }
            Event::CvSignal { tid, cv } => {
                // C := C ⊔ T, then a new epoch (the signal publishes).
                let tvc = self.thread_mut(tid).vc.clone();
                self.cvs
                    .entry(cv)
                    .and_modify(|c| c.join(&tvc))
                    .or_insert(tvc);
                self.new_epoch(tid);
                true
            }
            Event::CvWait { tid, cv } => {
                // T := T ⊔ C (join every signaler seen so far).
                if let Some(c) = self.cvs.get(&cv) {
                    let c = c.clone();
                    self.thread_mut(tid).vc.join(&c);
                } else {
                    self.thread_mut(tid);
                }
                true
            }
            Event::BarrierArrive { tid, bar } => {
                // G := G ⊔ T, then a new epoch (the arrival publishes).
                let tvc = self.thread_mut(tid).vc.clone();
                self.bars
                    .entry(bar)
                    .and_modify(|g| g.join(&tvc))
                    .or_insert(tvc);
                self.new_epoch(tid);
                true
            }
            Event::BarrierDepart { tid, bar } => {
                // T := T ⊔ G (adopt every participant's arrival clock).
                if let Some(g) = self.bars.get(&bar) {
                    let g = g.clone();
                    self.thread_mut(tid).vc.join(&g);
                } else {
                    self.thread_mut(tid);
                }
                true
            }
            Event::Fork { parent, child } => {
                // C_child := C_child ⊔ C_parent ; new epoch for parent.
                let pvc = self.thread_mut(parent).vc.clone();
                self.thread_mut(child).vc.join(&pvc);
                self.new_epoch(parent);
                true
            }
            Event::Join { parent, child } => {
                // C_parent := C_parent ⊔ C_child ; new epoch for child.
                let cvc = self.thread_mut(child).vc.clone();
                self.thread_mut(parent).vc.join(&cvc);
                self.new_epoch(child);
                true
            }
            _ => false,
        }
    }

    /// Same-epoch filter for a **read** of `addr` by `t`: returns `false`
    /// (skip) if `t` already read *or wrote* this location in its current
    /// epoch; otherwise marks the read and returns `true`.
    pub fn first_read_in_epoch(&mut self, t: Tid, addr: Addr) -> bool {
        self.first_in_epoch(t, addr, false)
    }

    /// Same-epoch filter for a **write** of `addr` by `t`: returns `true`
    /// (first write this epoch) and marks it, or `false` if already
    /// written this epoch.
    pub fn first_write_in_epoch(&mut self, t: Tid, addr: Addr) -> bool {
        self.first_in_epoch(t, addr, true)
    }

    fn first_in_epoch(&mut self, t: Tid, addr: Addr, is_write: bool) -> bool {
        let ts = self.thread_mut(t);
        let before = ts.bitmap.bytes();
        let first = ts.bitmap.first_in_epoch(addr, is_write);
        // Only a first access can have added a chunk.
        if first {
            let after = ts.bitmap.bytes();
            self.grow_bitmap(after - before);
        }
        first
    }

    fn grow_bitmap(&mut self, delta: usize) {
        self.bitmap_bytes += delta;
        if self.bitmap_bytes > self.peak_bitmap_bytes {
            self.peak_bitmap_bytes = self.bitmap_bytes;
        }
    }

    /// Current modeled bytes of all per-thread bitmaps.
    pub fn bitmap_bytes(&self) -> usize {
        self.bitmap_bytes
    }

    /// Peak modeled bitmap bytes over the run.
    pub fn peak_bitmap_bytes(&self) -> usize {
        self.peak_bitmap_bytes
    }

    /// Number of threads materialized so far.
    pub fn thread_count(&self) -> usize {
        self.threads.iter().filter(|t| t.is_some()).count()
    }

    /// Serializes the complete synchronization state. Lock/cv/barrier
    /// tables are written sorted by id so equal states encode to equal
    /// bytes regardless of hash-map iteration order.
    pub fn encode(&self, w: &mut SnapshotWriter) {
        w.count(self.threads.len());
        for slot in &self.threads {
            match slot {
                Some(ts) => {
                    w.bool(true);
                    encode_vc(w, &ts.vc);
                    ts.bitmap.encode(w);
                }
                None => w.bool(false),
            }
        }
        let mut locks: Vec<_> = self.locks.iter().collect();
        locks.sort_unstable_by_key(|(id, _)| id.0);
        w.count(locks.len());
        for (id, lc) in locks {
            w.u32(id.0);
            encode_vc(w, &lc.all);
            encode_vc(w, &lc.writer);
        }
        for map in [&self.cvs, &self.bars] {
            let mut entries: Vec<_> = map.iter().collect();
            entries.sort_unstable_by_key(|(id, _)| id.0);
            w.count(entries.len());
            for (id, vc) in entries {
                w.u32(id.0);
                encode_vc(w, vc);
            }
        }
        w.u64(self.bitmap_bytes as u64);
        w.u64(self.peak_bitmap_bytes as u64);
    }

    /// Rebuilds a state from [`HbState::encode`]d bytes.
    pub fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, TraceError> {
        let n = r.count("thread slots")?;
        let mut threads = Vec::new();
        for _ in 0..n {
            threads.push(if r.bool()? {
                Some(ThreadState {
                    vc: decode_vc(r)?,
                    bitmap: EpochBitmap::decode(r)?,
                })
            } else {
                None
            });
        }
        let n = r.count("lock clocks")?;
        let mut locks = HashMap::new();
        for _ in 0..n {
            let id = LockId(r.u32()?);
            let all = decode_vc(r)?;
            let writer = decode_vc(r)?;
            locks.insert(id, LockClocks { all, writer });
        }
        let mut cvs = HashMap::new();
        let mut bars = HashMap::new();
        for map in [&mut cvs, &mut bars] {
            let n = r.count("sync clocks")?;
            for _ in 0..n {
                let id = LockId(r.u32()?);
                map.insert(id, decode_vc(r)?);
            }
        }
        let bitmap_bytes = r.u64()? as usize;
        let peak_bitmap_bytes = r.u64()? as usize;
        Ok(HbState {
            threads,
            locks,
            cvs,
            bars,
            bitmap_bytes,
            peak_bitmap_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_epoch_is_one() {
        let mut hb = HbState::new();
        assert_eq!(hb.epoch(Tid(0)), Epoch::new(1, Tid(0)));
        assert_eq!(hb.clock(Tid(0)).get(Tid(0)), 1);
    }

    #[test]
    fn now_borrows_the_clock_the_filter_materialized() {
        let mut hb = HbState::new();
        assert!(hb.first_write_in_epoch(Tid(2), Addr(0x40)));
        assert_eq!(hb.now(Tid(2)).get(Tid(2)), 1);
        hb.on_sync(&Event::Release {
            tid: Tid(2),
            lock: LockId(1),
        });
        assert_eq!(hb.now(Tid(2)).get(Tid(2)), 2);
    }

    #[test]
    fn release_starts_new_epoch_and_transfers_clock() {
        let mut hb = HbState::new();
        let l = LockId(1);
        // T0 releases: lock learns T0's clock, T0 enters epoch 2.
        hb.on_sync(&Event::Release {
            tid: Tid(0),
            lock: l,
        });
        assert_eq!(hb.epoch(Tid(0)), Epoch::new(2, Tid(0)));
        // T1 acquires: learns T0's epoch-1 clock.
        hb.on_sync(&Event::Acquire {
            tid: Tid(1),
            lock: l,
        });
        assert_eq!(hb.clock(Tid(1)).get(Tid(0)), 1);
        assert_eq!(hb.clock(Tid(1)).get(Tid(1)), 1);
    }

    #[test]
    fn fork_publishes_parent_clock() {
        let mut hb = HbState::new();
        hb.on_sync(&Event::Fork {
            parent: Tid(0),
            child: Tid(1),
        });
        assert_eq!(hb.clock(Tid(1)).get(Tid(0)), 1);
        // Parent has moved to a new epoch, so later parent work is not
        // ordered before the child's knowledge.
        assert_eq!(hb.epoch(Tid(0)), Epoch::new(2, Tid(0)));
    }

    #[test]
    fn join_publishes_child_clock() {
        let mut hb = HbState::new();
        hb.on_sync(&Event::Fork {
            parent: Tid(0),
            child: Tid(1),
        });
        hb.on_sync(&Event::Release {
            tid: Tid(1),
            lock: LockId(9),
        });
        hb.on_sync(&Event::Join {
            parent: Tid(0),
            child: Tid(1),
        });
        assert_eq!(hb.clock(Tid(0)).get(Tid(1)), 2);
    }

    #[test]
    fn same_epoch_bitmap_filters_and_resets() {
        let mut hb = HbState::new();
        let a = Addr(0x40);
        assert!(hb.first_read_in_epoch(Tid(0), a));
        assert!(!hb.first_read_in_epoch(Tid(0), a));
        assert!(hb.first_write_in_epoch(Tid(0), a));
        assert!(!hb.first_write_in_epoch(Tid(0), a));
        // A read after a write in the same epoch is also filtered.
        assert!(!hb.first_read_in_epoch(Tid(0), Addr(0x40)));
        assert!(hb.bitmap_bytes() > 0);
        // New epoch at release → bitmap reset.
        hb.on_sync(&Event::Release {
            tid: Tid(0),
            lock: LockId(0),
        });
        assert_eq!(hb.bitmap_bytes(), 0);
        assert!(hb.peak_bitmap_bytes() > 0);
        assert!(hb.first_read_in_epoch(Tid(0), a));
    }

    #[test]
    fn bitmaps_are_per_thread() {
        let mut hb = HbState::new();
        let a = Addr(0x40);
        assert!(hb.first_write_in_epoch(Tid(0), a));
        assert!(hb.first_write_in_epoch(Tid(1), a));
    }

    #[test]
    fn access_events_are_not_sync() {
        let mut hb = HbState::new();
        assert!(!hb.on_sync(&Event::Read {
            tid: Tid(0),
            addr: Addr(0),
            size: dgrace_trace::AccessSize::U8,
        }));
        assert!(!hb.on_sync(&Event::Alloc {
            tid: Tid(0),
            addr: Addr(0),
            size: 8,
        }));
    }

    #[test]
    fn rwlock_reader_sees_writer_only() {
        let mut hb = HbState::new();
        // T0 write-releases L (publishes epoch 1), T1 read-releases L
        // (publishes into `all` only).
        hb.on_sync(&Event::Release {
            tid: Tid(0),
            lock: LockId(5),
        });
        hb.on_sync(&Event::AcquireRead {
            tid: Tid(1),
            lock: LockId(5),
        });
        assert_eq!(
            hb.clock(Tid(1)).get(Tid(0)),
            1,
            "reader sees writer release"
        );
        hb.on_sync(&Event::ReleaseRead {
            tid: Tid(1),
            lock: LockId(5),
        });
        // Another reader: must NOT see T1's read-release...
        hb.on_sync(&Event::AcquireRead {
            tid: Tid(2),
            lock: LockId(5),
        });
        assert_eq!(hb.clock(Tid(2)).get(Tid(1)), 0, "readers unordered");
        // ...but a writer sees both the write and the read release.
        hb.on_sync(&Event::Acquire {
            tid: Tid(3),
            lock: LockId(5),
        });
        assert_eq!(hb.clock(Tid(3)).get(Tid(0)), 1);
        assert_eq!(hb.clock(Tid(3)).get(Tid(1)), 1);
    }

    #[test]
    fn condvar_signal_then_wait_orders() {
        let mut hb = HbState::new();
        hb.on_sync(&Event::CvSignal {
            tid: Tid(0),
            cv: LockId(9),
        });
        assert_eq!(hb.epoch(Tid(0)), Epoch::new(2, Tid(0)), "signal ticks");
        hb.on_sync(&Event::CvWait {
            tid: Tid(1),
            cv: LockId(9),
        });
        assert_eq!(hb.clock(Tid(1)).get(Tid(0)), 1, "waiter joined signaler");
        // Waiting on a never-signaled cv is a no-op.
        hb.on_sync(&Event::CvWait {
            tid: Tid(2),
            cv: LockId(8),
        });
        assert_eq!(hb.clock(Tid(2)).get(Tid(0)), 0);
    }

    #[test]
    fn barrier_departure_joins_all_arrivals() {
        let mut hb = HbState::new();
        for t in 0..3 {
            hb.on_sync(&Event::BarrierArrive {
                tid: Tid(t),
                bar: LockId(7),
            });
        }
        for t in 0..3 {
            hb.on_sync(&Event::BarrierDepart {
                tid: Tid(t),
                bar: LockId(7),
            });
        }
        // Every departing thread knows every arrival epoch (1 each).
        for t in 0..3 {
            for u in 0..3 {
                assert_eq!(
                    hb.clock(Tid(t)).get(Tid(u)),
                    if t == u { 2 } else { 1 },
                    "T{t} view of T{u}"
                );
            }
        }
    }

    #[test]
    fn barrier_arrive_resets_bitmap() {
        let mut hb = HbState::new();
        let a = Addr(0x20);
        assert!(hb.first_write_in_epoch(Tid(0), a));
        hb.on_sync(&Event::BarrierArrive {
            tid: Tid(0),
            bar: LockId(7),
        });
        assert!(hb.first_write_in_epoch(Tid(0), a), "new epoch after arrive");
    }

    #[test]
    fn snapshot_round_trip_preserves_behavior() {
        let mut hb = HbState::new();
        hb.on_sync(&Event::Fork {
            parent: Tid(0),
            child: Tid(1),
        });
        hb.on_sync(&Event::Release {
            tid: Tid(1),
            lock: LockId(3),
        });
        hb.on_sync(&Event::CvSignal {
            tid: Tid(0),
            cv: LockId(9),
        });
        hb.on_sync(&Event::BarrierArrive {
            tid: Tid(1),
            bar: LockId(7),
        });
        hb.first_read_in_epoch(Tid(0), Addr(0x40));

        let mut w = dgrace_trace::SnapshotWriter::new(*b"TEST", 1);
        hb.encode(&mut w);
        let bytes = w.finish();
        let mut r =
            dgrace_trace::SnapshotReader::new(&bytes, *b"TEST", 1, Default::default()).unwrap();
        let mut back = HbState::decode(&mut r).unwrap();
        r.expect_end().unwrap();

        assert_eq!(back.thread_count(), hb.thread_count());
        assert_eq!(back.bitmap_bytes(), hb.bitmap_bytes());
        assert_eq!(back.peak_bitmap_bytes(), hb.peak_bitmap_bytes());
        // Both copies behave identically on a shared event suffix.
        for st in [&mut hb, &mut back] {
            st.on_sync(&Event::Acquire {
                tid: Tid(2),
                lock: LockId(3),
            });
            st.on_sync(&Event::BarrierDepart {
                tid: Tid(2),
                bar: LockId(7),
            });
        }
        assert_eq!(back.clock(Tid(2)), hb.clock(Tid(2)));
        assert_eq!(
            back.first_read_in_epoch(Tid(0), Addr(0x40)),
            hb.first_read_in_epoch(Tid(0), Addr(0x40)),
            "same-epoch bitmap survived the round trip"
        );
    }

    #[test]
    fn transitive_hb_via_two_locks() {
        let mut hb = HbState::new();
        // T0 rel L1; T1 acq L1, rel L2; T2 acq L2 → T2 knows T0's epoch 1.
        hb.on_sync(&Event::Release {
            tid: Tid(0),
            lock: LockId(1),
        });
        hb.on_sync(&Event::Acquire {
            tid: Tid(1),
            lock: LockId(1),
        });
        hb.on_sync(&Event::Release {
            tid: Tid(1),
            lock: LockId(2),
        });
        hb.on_sync(&Event::Acquire {
            tid: Tid(2),
            lock: LockId(2),
        });
        assert_eq!(hb.clock(Tid(2)).get(Tid(0)), 1);
        assert_eq!(hb.clock(Tid(2)).get(Tid(1)), 1);
    }
}
