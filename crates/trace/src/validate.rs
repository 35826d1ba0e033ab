//! Structural validation of traces.

use dgrace_vc::Tid;

use crate::{Event, IdTable, LockId, Trace};

/// A structural defect in a trace.
///
/// Validation checks well-formedness of the *schedule*, not race freedom:
/// a racy trace is perfectly valid; a trace where a thread releases a lock
/// it does not hold is not (it could never have been observed from a real
/// pthreads execution).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValidationError {
    /// A thread other than the main thread acted before being forked.
    UnforkedThread {
        /// The offending thread.
        tid: Tid,
        /// Index of the offending event.
        at: usize,
    },
    /// A thread was forked twice.
    DoubleFork {
        /// The twice-forked thread.
        tid: Tid,
        /// Index of the second fork.
        at: usize,
    },
    /// A thread acted after being joined.
    ActedAfterJoin {
        /// The offending thread.
        tid: Tid,
        /// Index of the offending event.
        at: usize,
    },
    /// A join of a thread that was never forked.
    JoinOfUnforked {
        /// The joined thread.
        tid: Tid,
        /// Index of the join.
        at: usize,
    },
    /// A release of a lock the thread does not hold.
    ReleaseWithoutAcquire {
        /// The releasing thread.
        tid: Tid,
        /// The lock.
        lock: LockId,
        /// Index of the release.
        at: usize,
    },
    /// An acquire of a lock that is already held (no recursion modeled).
    AcquireOfHeldLock {
        /// The acquiring thread.
        tid: Tid,
        /// The lock.
        lock: LockId,
        /// Index of the acquire.
        at: usize,
    },
    /// A memory access of zero length or an alloc of zero bytes.
    EmptyAccess {
        /// Index of the offending event.
        at: usize,
    },
    /// A read-release of a rwlock the thread holds no read lock on.
    ReadReleaseWithoutAcquire {
        /// The releasing thread.
        tid: Tid,
        /// The rwlock.
        lock: LockId,
        /// Index of the release.
        at: usize,
    },
    /// A write-acquire while readers hold the rwlock, or a read-acquire
    /// while a writer holds it.
    RwLockConflict {
        /// The acquiring thread.
        tid: Tid,
        /// The rwlock.
        lock: LockId,
        /// Index of the acquire.
        at: usize,
    },
    /// A barrier departure without a matching arrival by the thread.
    BarrierDepartWithoutArrive {
        /// The departing thread.
        tid: Tid,
        /// The barrier.
        bar: LockId,
        /// Index of the departure.
        at: usize,
    },
    /// A join of a thread that still holds a lock (or a rwlock read
    /// hold). A real pthread cannot return from its start routine with a
    /// mutex held and still be joinable in a well-formed schedule; a
    /// detector replaying such a trace would see a lock that can never be
    /// released.
    ThreadJoinedHoldingLock {
        /// The joined thread.
        tid: Tid,
        /// A lock it still holds.
        lock: LockId,
        /// Index of the join.
        at: usize,
    },
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::UnforkedThread { tid, at } => {
                write!(f, "event {at}: thread {tid} acts before being forked")
            }
            ValidationError::DoubleFork { tid, at } => {
                write!(f, "event {at}: thread {tid} forked twice")
            }
            ValidationError::ActedAfterJoin { tid, at } => {
                write!(f, "event {at}: thread {tid} acts after being joined")
            }
            ValidationError::JoinOfUnforked { tid, at } => {
                write!(f, "event {at}: join of never-forked thread {tid}")
            }
            ValidationError::ReleaseWithoutAcquire { tid, lock, at } => {
                write!(
                    f,
                    "event {at}: thread {tid} releases {lock:?} it does not hold"
                )
            }
            ValidationError::AcquireOfHeldLock { tid, lock, at } => {
                write!(f, "event {at}: thread {tid} acquires already-held {lock:?}")
            }
            ValidationError::EmptyAccess { at } => {
                write!(f, "event {at}: zero-sized alloc/free")
            }
            ValidationError::ReadReleaseWithoutAcquire { tid, lock, at } => {
                write!(
                    f,
                    "event {at}: thread {tid} read-releases {lock:?} it does not hold"
                )
            }
            ValidationError::RwLockConflict { tid, lock, at } => {
                write!(
                    f,
                    "event {at}: thread {tid} acquires {lock:?} against existing holders"
                )
            }
            ValidationError::BarrierDepartWithoutArrive { tid, bar, at } => {
                write!(
                    f,
                    "event {at}: thread {tid} departs {bar:?} without arriving"
                )
            }
            ValidationError::ThreadJoinedHoldingLock { tid, lock, at } => {
                write!(
                    f,
                    "event {at}: thread {tid} joined while still holding {lock:?}"
                )
            }
        }
    }
}

impl std::error::Error for ValidationError {}

#[derive(Clone, Copy, Default, PartialEq, Eq)]
enum ThreadState {
    #[default]
    Unforked,
    Running,
    Joined,
}

#[derive(Clone, Copy, Default)]
struct Thread {
    state: ThreadState,
    /// Lock holds, write and read, the thread has not released: what a
    /// join has to find at zero.
    holds: u32,
}

/// Who holds a lock right now (plain locks and rwlocks share an id
/// space).
#[derive(Default)]
struct LockState {
    writer: Option<Tid>,
    readers: Vec<Tid>,
}

/// The incremental form of [`validate`]: feed events in trace order and
/// the first defect comes back from the [`step`](Validator::step) that
/// reaches it, with the index of that event. State is a table slot per
/// thread, lock and barrier seen — independent of trace length — so a
/// trace can be validated as it streams past.
pub struct Validator {
    /// Index of the next event.
    at: usize,
    threads: IdTable<Thread>,
    locks: IdTable<LockState>,
    /// Pending arrivals at each barrier.
    arrived: IdTable<Vec<Tid>>,
}

impl Default for Validator {
    fn default() -> Self {
        Self::new()
    }
}

impl Validator {
    /// A validator that has seen no event: only the main thread runs.
    pub fn new() -> Self {
        let mut threads = IdTable::<Thread>::new();
        threads.slot(Tid::MAIN.0).state = ThreadState::Running;
        Validator {
            at: 0,
            threads,
            locks: IdTable::new(),
            arrived: IdTable::new(),
        }
    }

    fn thread(&self, tid: Tid) -> ThreadState {
        self.threads
            .get(tid.0)
            .map_or(ThreadState::Unforked, |t| t.state)
    }

    /// Checks the next event of the trace against the schedule so far.
    /// After an error the validator's state is unspecified.
    #[inline]
    pub fn step(&mut self, ev: &Event) -> Result<(), ValidationError> {
        let at = self.at;
        self.at += 1;
        let actor = ev.tid();
        match self.thread(actor) {
            ThreadState::Running => {}
            ThreadState::Unforked => {
                return Err(ValidationError::UnforkedThread { tid: actor, at })
            }
            ThreadState::Joined => return Err(ValidationError::ActedAfterJoin { tid: actor, at }),
        }
        // Most of a trace is accesses, which ask only for a live actor;
        // the rest of the rules stay out of the per-access path.
        if ev.is_access() {
            return Ok(());
        }
        self.step_schedule(ev, at)
    }

    /// The rules for everything that is not a `Read`/`Write`, for an
    /// event whose actor is known to be running.
    fn step_schedule(&mut self, ev: &Event, at: usize) -> Result<(), ValidationError> {
        match *ev {
            Event::Fork { child, .. } => {
                let thread = self.threads.slot(child.0);
                if thread.state != ThreadState::Unforked {
                    return Err(ValidationError::DoubleFork { tid: child, at });
                }
                thread.state = ThreadState::Running;
            }
            Event::Join { child, .. } => {
                if self.thread(child) == ThreadState::Unforked {
                    return Err(ValidationError::JoinOfUnforked { tid: child, at });
                }
                let thread = self.threads.slot(child.0);
                if thread.holds > 0 {
                    return Err(ValidationError::ThreadJoinedHoldingLock {
                        tid: child,
                        lock: self.smallest_hold(child),
                        at,
                    });
                }
                thread.state = ThreadState::Joined;
            }
            Event::Acquire { tid, lock } => {
                let state = self.locks.slot(lock.0);
                if state.writer.is_some() {
                    return Err(ValidationError::AcquireOfHeldLock { tid, lock, at });
                }
                if !state.readers.is_empty() {
                    return Err(ValidationError::RwLockConflict { tid, lock, at });
                }
                state.writer = Some(tid);
                self.threads.slot(tid.0).holds += 1;
            }
            Event::Release { tid, lock } => {
                let state = self.locks.slot(lock.0);
                if state.writer != Some(tid) {
                    return Err(ValidationError::ReleaseWithoutAcquire { tid, lock, at });
                }
                state.writer = None;
                self.threads.slot(tid.0).holds -= 1;
            }
            Event::AcquireRead { tid, lock } => {
                let state = self.locks.slot(lock.0);
                if state.writer.is_some() {
                    return Err(ValidationError::RwLockConflict { tid, lock, at });
                }
                state.readers.push(tid);
                self.threads.slot(tid.0).holds += 1;
            }
            Event::ReleaseRead { tid, lock } => {
                let holders = &mut self.locks.slot(lock.0).readers;
                match holders.iter().position(|&t| t == tid) {
                    Some(i) => {
                        holders.swap_remove(i);
                    }
                    None => {
                        return Err(ValidationError::ReadReleaseWithoutAcquire { tid, lock, at })
                    }
                }
                self.threads.slot(tid.0).holds -= 1;
            }
            Event::CvSignal { .. } | Event::CvWait { .. } => {
                // The waiter protocol (hold the mutex across the wait) is
                // the program's business; any signal/wait order is a
                // schedule some execution can produce.
            }
            Event::BarrierArrive { tid, bar } => {
                self.arrived.slot(bar.0).push(tid);
            }
            Event::BarrierDepart { tid, bar } => {
                let waiting = self.arrived.slot(bar.0);
                match waiting.iter().position(|&t| t == tid) {
                    Some(i) => {
                        waiting.swap_remove(i);
                    }
                    None => {
                        return Err(ValidationError::BarrierDepartWithoutArrive { tid, bar, at })
                    }
                }
            }
            Event::Alloc { size, .. } | Event::Free { size, .. } => {
                if size == 0 {
                    return Err(ValidationError::EmptyAccess { at });
                }
            }
            Event::Read { .. } | Event::Write { .. } => {}
        }
        Ok(())
    }

    /// The lock a joined thread with holds left is reported with: its
    /// smallest write hold, else its smallest read hold — one answer for
    /// one trace, whatever the table order. Walks every lock, which only
    /// the error path can afford.
    #[cold]
    fn smallest_hold(&self, tid: Tid) -> LockId {
        let smallest = |holds: fn(&LockState, Tid) -> bool| {
            let held = self.locks.iter().filter(|(_, l)| holds(l, tid));
            held.map(|(id, _)| id).min()
        };
        let lock = smallest(|l, t| l.writer == Some(t))
            .or_else(|| smallest(|l, t| l.readers.contains(&t)))
            .expect("a thread with a hold counted holds a lock");
        LockId(lock)
    }
}

/// Checks that a trace is a plausible pthreads schedule.
///
/// Returns the first defect found, or `Ok(())`.
pub fn validate(trace: &Trace) -> Result<(), ValidationError> {
    let mut v = Validator::new();
    trace.iter().try_for_each(|ev| v.step(ev))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccessSize, TraceBuilder};

    #[test]
    fn valid_program_passes() {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32)
            .acquire(1u32, 0u32)
            .write(1u32, 0x10u64, AccessSize::U32)
            .release(1u32, 0u32)
            .join(0u32, 1u32);
        assert_eq!(validate(&b.build()), Ok(()));
    }

    #[test]
    fn unforked_thread_rejected() {
        let mut b = TraceBuilder::new();
        b.read(3u32, 0u64, AccessSize::U8);
        assert_eq!(
            validate(&b.build()),
            Err(ValidationError::UnforkedThread { tid: Tid(3), at: 0 })
        );
    }

    #[test]
    fn release_without_acquire_rejected() {
        let mut b = TraceBuilder::new();
        b.release(0u32, 5u32);
        assert!(matches!(
            validate(&b.build()),
            Err(ValidationError::ReleaseWithoutAcquire { .. })
        ));
    }

    #[test]
    fn release_by_other_thread_rejected() {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32).acquire(0u32, 5u32).release(1u32, 5u32);
        assert!(matches!(
            validate(&b.build()),
            Err(ValidationError::ReleaseWithoutAcquire { .. })
        ));
    }

    #[test]
    fn double_acquire_rejected() {
        let mut b = TraceBuilder::new();
        b.acquire(0u32, 5u32).acquire(0u32, 5u32);
        assert!(matches!(
            validate(&b.build()),
            Err(ValidationError::AcquireOfHeldLock { .. })
        ));
    }

    #[test]
    fn act_after_join_rejected() {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32)
            .join(0u32, 1u32)
            .read(1u32, 0u64, AccessSize::U8);
        assert!(matches!(
            validate(&b.build()),
            Err(ValidationError::ActedAfterJoin { tid: Tid(1), at: 2 })
        ));
    }

    #[test]
    fn double_fork_rejected() {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32).fork(0u32, 1u32);
        assert!(matches!(
            validate(&b.build()),
            Err(ValidationError::DoubleFork { tid: Tid(1), at: 1 })
        ));
    }

    #[test]
    fn join_of_unforked_rejected() {
        let mut b = TraceBuilder::new();
        b.join(0u32, 7u32);
        assert!(matches!(
            validate(&b.build()),
            Err(ValidationError::JoinOfUnforked { tid: Tid(7), at: 0 })
        ));
    }

    #[test]
    fn zero_sized_alloc_rejected() {
        let mut b = TraceBuilder::new();
        b.alloc(0u32, 0x100u64, 0);
        assert_eq!(
            validate(&b.build()),
            Err(ValidationError::EmptyAccess { at: 0 })
        );
    }

    #[test]
    fn join_while_holding_lock_rejected() {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32).acquire(1u32, 5u32).join(0u32, 1u32);
        assert_eq!(
            validate(&b.build()),
            Err(ValidationError::ThreadJoinedHoldingLock {
                tid: Tid(1),
                lock: LockId(5),
                at: 2,
            })
        );
    }

    #[test]
    fn join_while_holding_read_lock_rejected() {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32).acquire_read(1u32, 5u32).join(0u32, 1u32);
        assert_eq!(
            validate(&b.build()),
            Err(ValidationError::ThreadJoinedHoldingLock {
                tid: Tid(1),
                lock: LockId(5),
                at: 2,
            })
        );
    }

    #[test]
    fn join_while_holding_several_locks_names_the_smallest() {
        // Write holds are reported before read holds, each smallest
        // first — including a lock id past the dense table — so one
        // invalid trace has one message.
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32)
            .acquire_read(1u32, 2u32)
            .acquire(1u32, 900_000u32)
            .acquire(1u32, 40u32)
            .acquire(1u32, 7u32)
            .acquire(0u32, 3u32)
            .join(0u32, 1u32);
        let held = |lock| {
            Err(ValidationError::ThreadJoinedHoldingLock {
                tid: Tid(1),
                lock: LockId(lock),
                at: 6,
            })
        };
        assert_eq!(validate(&b.build()), held(7));

        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32)
            .acquire_read(1u32, 900_000u32)
            .acquire_read(1u32, 9u32)
            .acquire_read(1u32, 5u32)
            .acquire_read(0u32, 1u32)
            .join(0u32, 1u32);
        assert_eq!(
            validate(&b.build()),
            Err(ValidationError::ThreadJoinedHoldingLock {
                tid: Tid(1),
                lock: LockId(5),
                at: 5,
            })
        );
    }

    #[test]
    fn sparse_thread_ids_follow_the_same_rules() {
        // Ids past the dense table take the map path.
        let big = 3_000_000u32;
        let mut b = TraceBuilder::new();
        b.fork(0u32, big)
            .write(big, 0x10u64, AccessSize::U8)
            .join(0u32, big)
            .read(big, 0x10u64, AccessSize::U8);
        assert_eq!(
            validate(&b.build()),
            Err(ValidationError::ActedAfterJoin {
                tid: Tid(big),
                at: 3
            })
        );
        let mut b = TraceBuilder::new();
        b.read(big, 0u64, AccessSize::U8);
        assert_eq!(
            validate(&b.build()),
            Err(ValidationError::UnforkedThread {
                tid: Tid(big),
                at: 0
            })
        );
    }

    #[test]
    fn join_after_release_passes() {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32)
            .acquire(1u32, 5u32)
            .release(1u32, 5u32)
            .acquire_read(1u32, 6u32)
            .release_read(1u32, 6u32)
            .join(0u32, 1u32);
        assert_eq!(validate(&b.build()), Ok(()));
    }

    #[test]
    fn a_join_costs_the_same_however_many_locks_there_are() {
        // One use of the largest dense lock id sizes the lock table at
        // 65 536 slots; a join that walked it (twice) made these 60 000
        // joins 8 × 10⁹ slot visits — minutes in this build — where the
        // per-thread hold count makes them 60 000 compares.
        let mut b = TraceBuilder::new();
        b.acquire(0u32, 65_535u32).release(0u32, 65_535u32);
        for child in 1..=60_000u32 {
            b.fork(0u32, child).join(0u32, child);
        }
        // A hold is still found — and named — at the end of all that.
        b.fork(0u32, 60_001u32)
            .acquire_read(60_001u32, 65_535u32)
            .join(0u32, 60_001u32);
        let trace = b.build();
        let start = std::time::Instant::now();
        assert_eq!(
            validate(&trace),
            Err(ValidationError::ThreadJoinedHoldingLock {
                tid: Tid(60_001),
                lock: LockId(65_535),
                at: trace.len() - 1,
            })
        );
        let took = start.elapsed();
        assert!(took.as_secs() < 20, "{took:?} for 60 000 joins");
    }

    #[test]
    fn join_while_other_thread_holds_lock_passes() {
        // Only the joined thread's holds matter, not unrelated holders.
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32).acquire(0u32, 5u32).join(0u32, 1u32);
        assert_eq!(validate(&b.build()), Ok(()));
    }
}
