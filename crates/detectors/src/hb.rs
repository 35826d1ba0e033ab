//! Shared happens-before machinery: thread clocks, lock clocks, epochs and
//! fork/join edges.

use dgrace_trace::{Event, IdTable, LockId, SnapshotReader, SnapshotWriter, TraceError};
use dgrace_vc::{ClockView, Epoch, Tid, VectorClock};

use crate::snap::{decode_vc, encode_vc};

/// Clocks of one synchronization object (mutex or reader-writer lock —
/// they share the id space, as pthreads addresses do). A lock has a
/// record once something has been released into it.
#[derive(Clone, Debug, Default)]
struct LockClocks {
    /// Everything published by any release (read or write): what a
    /// *write* acquire must synchronize with.
    all: VectorClock,
    /// Everything published by write releases only: what a *read*
    /// acquire synchronizes with (readers do not order other readers).
    /// `None` until the first read release: write releases publish the
    /// same clock to both, so a mutex keeps — and every release of it
    /// updates — one clock, and `None` reads as "equal to `all`".
    writer: Option<VectorClock>,
    /// The thread whose write `Acquire` of this lock `on_sync` saw, with
    /// nothing published into the lock since: its clock has been `⊒ all`
    /// ever since (the acquire joined `all` into it, and a thread's clock
    /// only grows), so its write release is a copy, not a join. Any
    /// publish into the lock clears the mark. Not serialized: a restored
    /// state joins at the first release, which yields the same clock.
    holder: Option<Tid>,
}

impl LockClocks {
    /// What a read acquire joins.
    fn writer(&self) -> &VectorClock {
        self.writer.as_ref().unwrap_or(&self.all)
    }
}

/// Per-id records behind a pointer, so an unused id below the largest
/// one seen costs 8 bytes of table, not a record.
type Boxed<V> = IdTable<Option<Box<V>>>;

/// The synchronization state of an execution, updated by sync events and
/// queried by detectors on every access.
///
/// Epoch semantics follow DJIT+ (§II.B): a thread's own clock is
/// incremented at every lock **release** (and at fork/join edges, which
/// also publish its clock), so a thread's execution is a sequence of
/// epochs delimited by release-like operations. A detector answers "has
/// this thread already made this access in its current epoch?" from the
/// location's own shadow entry, by comparing one epoch (FastTrack's
/// `W == E` / `R == E` rule).
///
/// A sync event walks one clock once and, once its thread and its
/// synchronization object exist, allocates nothing: the tables are
/// disjoint fields, so clocks are joined in place from one into the
/// other.
#[derive(Clone, Debug, Default)]
pub struct HbState {
    /// Each thread's clock, materialized on first use.
    threads: Vec<Option<VectorClock>>,
    locks: Boxed<LockClocks>,
    /// Condition-variable clocks: signals publish, waits join.
    cvs: Boxed<VectorClock>,
    /// Barrier clocks: arrivals accumulate, departures join.
    ///
    /// A single accumulating clock per barrier conservatively orders a
    /// departure after *every* earlier arrival in observed order — exact
    /// within a generation, and at worst an extra edge across adjacent
    /// generations (which can hide a cross-generation race but never
    /// fabricates one).
    bars: Boxed<VectorClock>,
}

/// Thread `t`'s clock, materialized on first use: epochs start at 1, clock
/// 0 means "never". Takes the table, not the state, so the caller keeps
/// its other fields borrowable.
fn thread_mut(threads: &mut Vec<Option<VectorClock>>, t: Tid) -> &mut VectorClock {
    let i = t.index();
    if i >= threads.len() {
        threads.resize_with(i + 1, || None);
    }
    threads[i].get_or_insert_with(|| {
        let mut vc = VectorClock::new();
        vc.set(t, 1);
        vc
    })
}

/// Two distinct threads' clocks, both materialized; `None` if `a == b`.
fn thread_pair(
    threads: &mut Vec<Option<VectorClock>>,
    a: Tid,
    b: Tid,
) -> Option<(&mut VectorClock, &mut VectorClock)> {
    thread_mut(threads, a);
    thread_mut(threads, b);
    let [a, b] = threads.get_disjoint_mut([a.index(), b.index()]).ok()?;
    a.as_mut().zip(b.as_mut())
}

/// The record `id` has, if something was published into it.
fn published<V>(table: &Boxed<V>, id: LockId) -> Option<&V> {
    table.get(id.0)?.as_deref()
}

/// `C := C ⊔ T` for a condition variable or barrier; the first publish
/// creates the clock.
fn publish(table: &mut Boxed<VectorClock>, id: LockId, vc: &VectorClock) {
    match table.slot(id.0) {
        Some(c) => c.join(vc),
        slot => *slot = Some(Box::new(vc.clone())),
    }
}

impl HbState {
    /// Creates an empty state (threads materialize on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// The current vector clock of thread `t`.
    pub fn clock(&mut self, t: Tid) -> &VectorClock {
        thread_mut(&mut self.threads, t)
    }

    /// The current vector clock of thread `t`, borrowed through `&self` so
    /// a detector can hold it for the whole of an access while it mutates
    /// its own shadow state, instead of copying it out first.
    ///
    /// # Panics
    /// Panics if `t` has not materialized yet: a thread's first event may
    /// be an access, so an access materializes its thread through
    /// [`Self::clock`] or [`Self::epoch`] before it reads the clock here.
    #[inline]
    pub fn now(&self, t: Tid) -> &VectorClock {
        let slot = self.threads.get(t.index()).and_then(Option::as_ref);
        slot.expect("thread materialized before its clock is read")
    }

    /// The current epoch `c@t` of thread `t`, materializing `t` on its
    /// first event. Inlined into every access of the detectors that take
    /// it: a thread seen before costs one table load.
    #[inline]
    pub fn epoch(&mut self, t: Tid) -> Epoch {
        let now = match self.threads.get(t.index()).and_then(Option::as_ref) {
            Some(now) => now,
            None => self.clock(t),
        };
        Epoch::new(now.get(t), t)
    }

    /// Whether some epoch `c@t` in `clock` is thread `t`'s current one:
    /// the access it records was made in the epoch `t` is still in, so
    /// the cell holding `clock` answers a repeat of it. Budget eviction
    /// takes the cells this holds for last.
    pub fn holds_current(&self, clock: ClockView<'_>) -> bool {
        let current = |t: Tid, c| {
            let now = self.threads.get(t.index()).and_then(Option::as_ref);
            c != 0 && now.is_some_and(|now| now.get(t) == c)
        };
        match clock {
            ClockView::Epoch(e) => current(e.tid, e.clock),
            ClockView::Vc(vc) => vc.iter().any(|(t, c)| current(t, c)),
        }
    }

    /// The thread whose epoch `ev` ends — whose own clock
    /// [`Self::on_sync`] ticks after the event's joins — if any.
    fn epoch_ended_by(ev: &Event) -> Option<Tid> {
        match *ev {
            Event::Release { tid, .. }
            | Event::ReleaseRead { tid, .. }
            | Event::CvSignal { tid, .. }
            | Event::BarrierArrive { tid, .. } => Some(tid),
            Event::Fork { parent, .. } => Some(parent),
            Event::Join { child, .. } => Some(child),
            _ => None,
        }
    }

    /// Handles a synchronization event; access events are ignored (they
    /// are the detectors' business). Returns `true` if the event was a
    /// sync event.
    pub fn on_sync(&mut self, ev: &Event) -> bool {
        match *ev {
            Event::Acquire { tid, lock } => {
                // T_i := T_i ⊔ L_s (everything any release published).
                let ts = thread_mut(&mut self.threads, tid);
                if let Some(Some(lc)) = self.locks.get_mut(lock.0) {
                    ts.join(&lc.all);
                    lc.holder = Some(tid);
                }
            }
            Event::Release { tid, lock } => {
                // L_s := L_s ⊔ T_i, then a new epoch for T_i. A write
                // release publishes to readers and writers alike.
                let ts = thread_mut(&mut self.threads, tid);
                let lc = self.locks.slot(lock.0).get_or_insert_with(Box::default);
                let held = lc.holder.take() == Some(tid);
                let publish = |l: &mut VectorClock| {
                    if held {
                        l.clone_from(ts); // T_i ⊒ L_s: the join is T_i.
                    } else {
                        l.join(ts);
                    }
                };
                publish(&mut lc.all);
                if let Some(w) = &mut lc.writer {
                    publish(w);
                }
            }
            Event::AcquireRead { tid, lock } => {
                // Readers synchronize with prior write releases only.
                let ts = thread_mut(&mut self.threads, tid);
                if let Some(lc) = published(&self.locks, lock) {
                    ts.join(lc.writer());
                }
            }
            Event::ReleaseRead { tid, lock } => {
                // A read release publishes to the *next writer* (via
                // `all`) but not to other readers: from here on the lock
                // has two clocks.
                let ts = thread_mut(&mut self.threads, tid);
                let lc = self.locks.slot(lock.0).get_or_insert_with(Box::default);
                if lc.writer.is_none() {
                    lc.writer = Some(lc.all.clone());
                }
                lc.all.join(ts);
                lc.holder = None;
            }
            Event::CvSignal { tid, cv } => {
                // C := C ⊔ T, then a new epoch (the signal publishes).
                let ts = thread_mut(&mut self.threads, tid);
                publish(&mut self.cvs, cv, ts);
            }
            Event::CvWait { tid, cv } => {
                // T := T ⊔ C (join every signaler seen so far).
                let ts = thread_mut(&mut self.threads, tid);
                if let Some(c) = published(&self.cvs, cv) {
                    ts.join(c);
                }
            }
            Event::BarrierArrive { tid, bar } => {
                // G := G ⊔ T, then a new epoch (the arrival publishes).
                let ts = thread_mut(&mut self.threads, tid);
                publish(&mut self.bars, bar, ts);
            }
            Event::BarrierDepart { tid, bar } => {
                // T := T ⊔ G (adopt every participant's arrival clock).
                let ts = thread_mut(&mut self.threads, tid);
                if let Some(g) = published(&self.bars, bar) {
                    ts.join(g);
                }
            }
            Event::Fork { parent, child } => {
                // C_child := C_child ⊔ C_parent ; new epoch for parent.
                // (A thread that names itself joins nothing new.)
                if let Some((p, c)) = thread_pair(&mut self.threads, parent, child) {
                    c.join(p);
                }
            }
            Event::Join { parent, child } => {
                // C_parent := C_parent ⊔ C_child ; new epoch for child.
                if let Some((p, c)) = thread_pair(&mut self.threads, parent, child) {
                    p.join(c);
                }
            }
            _ => return false,
        }
        // The event published its thread's clock (or, for a join, the
        // child's): what that thread does next is a new epoch.
        if let Some(t) = Self::epoch_ended_by(ev) {
            thread_mut(&mut self.threads, t).tick(t);
        }
        true
    }

    /// Number of threads materialized so far.
    pub fn thread_count(&self) -> usize {
        self.threads.iter().filter(|t| t.is_some()).count()
    }

    /// Serializes the complete synchronization state. Lock/cv/barrier
    /// tables are written sorted by id so equal states encode to equal
    /// bytes regardless of table iteration order, and a lock writes both
    /// its clocks whether or not it keeps them apart.
    pub fn encode(&self, w: &mut SnapshotWriter) {
        w.count(self.threads.len());
        for slot in &self.threads {
            match slot {
                Some(vc) => {
                    w.bool(true);
                    encode_vc(w, vc);
                }
                None => w.bool(false),
            }
        }
        let locks = sorted(&self.locks);
        w.count(locks.len());
        for (id, lc) in locks {
            w.u32(id);
            encode_vc(w, &lc.all);
            encode_vc(w, lc.writer());
        }
        for table in [&self.cvs, &self.bars] {
            let entries = sorted(table);
            w.count(entries.len());
            for (id, vc) in entries {
                w.u32(id);
                encode_vc(w, vc);
            }
        }
    }

    /// Rebuilds a state from [`HbState::encode`]d bytes.
    pub fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, TraceError> {
        let n = r.count("thread slots")?;
        let mut threads = Vec::new();
        for _ in 0..n {
            threads.push(if r.bool()? { Some(decode_vc(r)?) } else { None });
        }
        let n = r.count("lock clocks")?;
        let mut locks = Boxed::new();
        for _ in 0..n {
            let id = r.u32()?;
            let all = decode_vc(r)?;
            let writer = Some(decode_vc(r)?).filter(|w| *w != all);
            *locks.slot(id) = Some(Box::new(LockClocks {
                all,
                writer,
                holder: None,
            }));
        }
        let mut cvs = Boxed::new();
        let mut bars = Boxed::new();
        for table in [&mut cvs, &mut bars] {
            let n = r.count("sync clocks")?;
            for _ in 0..n {
                let id = r.u32()?;
                *table.slot(id) = Some(Box::new(decode_vc(r)?));
            }
        }
        Ok(HbState {
            threads,
            locks,
            cvs,
            bars,
        })
    }
}

/// The published records of a table, by ascending id.
fn sorted<V>(table: &Boxed<V>) -> Vec<(u32, &V)> {
    let mut entries: Vec<_> = table
        .iter()
        .filter_map(|(id, v)| Some((id, v.as_deref()?)))
        .collect();
    entries.sort_unstable_by_key(|&(id, _)| id);
    entries
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use dgrace_trace::Addr;
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn initial_epoch_is_one() {
        let mut hb = HbState::new();
        assert_eq!(hb.epoch(Tid(0)), Epoch::new(1, Tid(0)));
        assert_eq!(hb.clock(Tid(0)).get(Tid(0)), 1);
    }

    #[test]
    fn now_borrows_the_clock_an_access_materialized() {
        let mut hb = HbState::new();
        assert_eq!(hb.epoch(Tid(2)), Epoch::new(1, Tid(2)));
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

        let mut back = restored(&hb);

        assert_eq!(back.thread_count(), hb.thread_count());
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
        assert_eq!(back.epoch(Tid(0)), hb.epoch(Tid(0)));
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

    /// The synchronization rules as first written — clone the source
    /// clock, then join; two clocks per lock; hash maps — kept as the
    /// model [`HbState`] is checked against. It assumes nothing about the
    /// schedule, so neither may the real one.
    #[derive(Default)]
    struct ReferenceHb {
        threads: Vec<Option<VectorClock>>,
        /// `(all, writer)` per lock.
        locks: HashMap<LockId, (VectorClock, VectorClock)>,
        cvs: HashMap<LockId, VectorClock>,
        bars: HashMap<LockId, VectorClock>,
    }

    impl ReferenceHb {
        fn thread_mut(&mut self, t: Tid) -> &mut VectorClock {
            let i = t.index();
            if i >= self.threads.len() {
                self.threads.resize_with(i + 1, || None);
            }
            self.threads[i].get_or_insert_with(|| VectorClock::from_pairs([(t, 1)]))
        }

        fn on_sync(&mut self, ev: &Event) {
            match *ev {
                Event::Acquire { tid, lock } => {
                    let all = self.locks.get(&lock).map(|lc| lc.0.clone());
                    self.thread_mut(tid).join(&all.unwrap_or_default());
                }
                Event::Release { tid, lock } => {
                    let tvc = self.thread_mut(tid).clone();
                    let lc = self.locks.entry(lock).or_default();
                    lc.0.join(&tvc);
                    lc.1.join(&tvc);
                    self.thread_mut(tid).tick(tid);
                }
                Event::AcquireRead { tid, lock } => {
                    let writer = self.locks.get(&lock).map(|lc| lc.1.clone());
                    self.thread_mut(tid).join(&writer.unwrap_or_default());
                }
                Event::ReleaseRead { tid, lock } => {
                    let tvc = self.thread_mut(tid).clone();
                    self.locks.entry(lock).or_default().0.join(&tvc);
                    self.thread_mut(tid).tick(tid);
                }
                Event::CvSignal { tid, cv: id } | Event::BarrierArrive { tid, bar: id } => {
                    let tvc = self.thread_mut(tid).clone();
                    let table = match ev {
                        Event::CvSignal { .. } => &mut self.cvs,
                        _ => &mut self.bars,
                    };
                    table.entry(id).or_default().join(&tvc);
                    self.thread_mut(tid).tick(tid);
                }
                Event::CvWait { tid, cv: id } | Event::BarrierDepart { tid, bar: id } => {
                    let table = match ev {
                        Event::CvWait { .. } => &self.cvs,
                        _ => &self.bars,
                    };
                    let c = table.get(&id).cloned();
                    self.thread_mut(tid).join(&c.unwrap_or_default());
                }
                Event::Fork { parent, child } => {
                    let pvc = self.thread_mut(parent).clone();
                    self.thread_mut(child).join(&pvc);
                    self.thread_mut(parent).tick(parent);
                }
                Event::Join { parent, child } => {
                    let cvc = self.thread_mut(child).clone();
                    self.thread_mut(parent).join(&cvc);
                    self.thread_mut(child).tick(child);
                }
                _ => unreachable!("the model is fed sync events only"),
            }
        }

        /// [`HbState::encode`]'s format.
        fn encode(&self, w: &mut SnapshotWriter) {
            w.count(self.threads.len());
            for slot in &self.threads {
                w.bool(slot.is_some());
                if let Some(vc) = slot {
                    encode_vc(w, vc);
                }
            }
            let mut locks: Vec<_> = self.locks.iter().collect();
            locks.sort_unstable_by_key(|(id, _)| id.0);
            w.count(locks.len());
            for (id, (all, writer)) in locks {
                w.u32(id.0);
                encode_vc(w, all);
                encode_vc(w, writer);
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
        }
    }

    fn bytes_of(encode: impl FnOnce(&mut SnapshotWriter)) -> Vec<u8> {
        let mut w = SnapshotWriter::new(*b"TEST", 1);
        encode(&mut w);
        w.finish()
    }

    fn restored(hb: &HbState) -> HbState {
        let bytes = bytes_of(|w| hb.encode(w));
        let mut r = SnapshotReader::new(&bytes, *b"TEST", 1, Default::default()).unwrap();
        let back = HbState::decode(&mut r).unwrap();
        r.expect_end().unwrap();
        back
    }

    const TIDS: u32 = 6;

    /// Any sync event over six threads and six ids on both sides of the
    /// dense-table limit — shared by locks, condvars and barriers, read
    /// and write events alike — with no regard for who holds what. (The
    /// limit itself is `IdTable`'s own test; a dense id of 65 535 here
    /// would spend the property's time zeroing tables.)
    fn arb_sync_event() -> impl Strategy<Value = Event> {
        const IDS: [u32; 6] = [0, 1, 2, 300, 65_536, 900_000];
        (0u8..10, 0..TIDS, 0..TIDS, 0usize..IDS.len()).prop_map(|(arm, t, u, id)| {
            let (tid, other, id) = (Tid(t), Tid(u), LockId(IDS[id]));
            match arm {
                0 => Event::Acquire { tid, lock: id },
                1 => Event::Release { tid, lock: id },
                2 => Event::AcquireRead { tid, lock: id },
                3 => Event::ReleaseRead { tid, lock: id },
                4 => Event::CvSignal { tid, cv: id },
                5 => Event::CvWait { tid, cv: id },
                6 => Event::BarrierArrive { tid, bar: id },
                7 => Event::BarrierDepart { tid, bar: id },
                8 => Event::Fork {
                    parent: tid,
                    child: other,
                },
                _ => Event::Join {
                    parent: tid,
                    child: other,
                },
            }
        })
    }

    /// Feeds `ev` to the model and to every state, then checks that each
    /// thread's clock is the model's in all of them.
    fn step_all(model: &mut ReferenceHb, states: &mut [&mut HbState], ev: &Event) {
        model.on_sync(ev);
        for hb in states.iter_mut() {
            assert!(hb.on_sync(ev));
            for t in (0..TIDS).map(Tid) {
                let expected = model.threads.get(t.index()).and_then(Option::as_ref);
                let got = hb.threads.get(t.index()).and_then(Option::as_ref);
                assert_eq!(got, expected, "T{} after {ev:?}", t.0);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// In-place joins, one clock per mutex, copy-on-release and the
        /// id tables change no clock on any event sequence, valid
        /// schedule or not, and a restore in the middle changes none
        /// either (the holder mark it drops only picks copy over join).
        #[test]
        fn on_sync_matches_the_reference_model(
            prefix in proptest::collection::vec(arb_sync_event(), 200..260),
            suffix in proptest::collection::vec(arb_sync_event(), 20..80),
        ) {
            let mut model = ReferenceHb::default();
            let mut hb = HbState::new();
            for ev in &prefix {
                step_all(&mut model, &mut [&mut hb], ev);
            }
            prop_assert_eq!(bytes_of(|w| hb.encode(w)), bytes_of(|w| model.encode(w)));

            let mut back = restored(&hb);
            for ev in &suffix {
                step_all(&mut model, &mut [&mut hb, &mut back], ev);
            }
            let expected = bytes_of(|w| model.encode(w));
            prop_assert_eq!(bytes_of(|w| hb.encode(w)), &expected[..]);
            prop_assert_eq!(bytes_of(|w| back.encode(w)), expected);
        }
    }

    /// Runs `events`, then has a fresh thread acquire `lock` and returns
    /// what it learned: the lock's `all` clock plus the thread's own 1.
    fn acquired_after(events: &[Event], lock: LockId) -> VectorClock {
        let mut hb = HbState::new();
        for ev in events {
            hb.on_sync(ev);
        }
        let tid = Tid(9);
        hb.on_sync(&Event::Acquire { tid, lock });
        hb.clock(tid).clone()
    }

    #[test]
    fn a_release_after_someone_elses_release_joins() {
        // T0 holds L by the book; T1 releases it without ever acquiring
        // (serve and --resync can deliver that). T0's own release must
        // not overwrite what T1 published.
        let lock = LockId(4);
        let (t0, t1) = (Tid(0), Tid(1));
        let seen = acquired_after(
            &[
                Event::Release { tid: t0, lock },
                Event::Acquire { tid: t0, lock },
                Event::Release { tid: t1, lock },
                Event::Release { tid: t0, lock },
            ],
            lock,
        );
        assert_eq!(seen.get(t1), 1, "T1's release survived T0's");
        assert_eq!(seen.get(t0), 2);
    }

    #[test]
    fn a_release_after_a_read_release_joins() {
        let lock = LockId(4);
        let (t0, t1) = (Tid(0), Tid(1));
        let seen = acquired_after(
            &[
                Event::Release { tid: t0, lock },
                Event::Acquire { tid: t0, lock },
                Event::ReleaseRead { tid: t1, lock },
                Event::Release { tid: t0, lock },
            ],
            lock,
        );
        assert_eq!(seen.get(t1), 1, "the reader's release survived T0's");
        // And it reached the next writer only: readers still see T0 alone.
        let mut hb = HbState::new();
        for ev in [
            Event::Release { tid: t0, lock },
            Event::Acquire { tid: t0, lock },
            Event::ReleaseRead { tid: t1, lock },
            Event::Release { tid: t0, lock },
            Event::AcquireRead { tid: Tid(2), lock },
        ] {
            hb.on_sync(&ev);
        }
        assert_eq!(hb.clock(Tid(2)).get(t1), 0);
        assert_eq!(hb.clock(Tid(2)).get(t0), 2);
    }

    #[test]
    fn a_restore_between_acquire_and_release_changes_no_clock() {
        let lock = LockId(70_000);
        let (t0, t1, t2) = (Tid(0), Tid(1), Tid(2));
        let before = [
            Event::Fork {
                parent: t0,
                child: t1,
            },
            Event::Fork {
                parent: t0,
                child: t2,
            },
            Event::Release { tid: t2, lock },
            Event::Acquire { tid: t1, lock },
        ];
        let after = [
            Event::Release { tid: t1, lock },
            Event::Acquire { tid: t0, lock },
        ];
        let mut straight = HbState::new();
        for ev in &before {
            straight.on_sync(ev);
        }
        let mut resumed = restored(&straight);
        for ev in &after {
            straight.on_sync(ev);
            resumed.on_sync(ev);
        }
        assert_eq!(resumed.clock(t0), straight.clock(t0));
        assert_eq!(
            bytes_of(|w| resumed.encode(w)),
            bytes_of(|w| straight.encode(w))
        );
    }
}
