//! Tracked reader-writer locks, condition variables and barriers.

use std::sync::Arc;

use dgrace_trace::{Event, LockId};
use parking_lot::{Condvar, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::runtime::{Inner, Runtime, ThreadHandle};
use crate::TrackedMutexGuard;

/// A reader-writer lock whose operations are reported to the detector
/// (`pthread_rwlock_*` wrappers).
pub struct TrackedRwLock<T> {
    inner: Arc<Inner>,
    id: LockId,
    data: RwLock<T>,
}

impl<T> TrackedRwLock<T> {
    /// Creates a tracked rwlock owned by `rt`.
    pub fn new(rt: &Runtime, value: T) -> Self {
        TrackedRwLock {
            inner: Arc::clone(&rt.inner),
            id: rt.inner.alloc_lock(),
            data: RwLock::new(value),
        }
    }

    /// The lock's id in the event stream.
    pub fn id(&self) -> LockId {
        self.id
    }

    /// Acquires a shared (read) hold as thread `h`.
    pub fn read<'a>(&'a self, h: &ThreadHandle) -> TrackedReadGuard<'a, T> {
        let guard = self.data.read();
        self.inner.emit(
            h.tid(),
            Event::AcquireRead {
                tid: h.tid(),
                lock: self.id,
            },
        );
        TrackedReadGuard {
            lock: self,
            tid: h.tid(),
            guard,
        }
    }

    /// Acquires an exclusive (write) hold as thread `h`.
    pub fn write<'a>(&'a self, h: &ThreadHandle) -> TrackedWriteGuard<'a, T> {
        let guard = self.data.write();
        self.inner.emit(
            h.tid(),
            Event::Acquire {
                tid: h.tid(),
                lock: self.id,
            },
        );
        TrackedWriteGuard {
            lock: self,
            tid: h.tid(),
            guard,
        }
    }
}

/// Shared guard from [`TrackedRwLock::read`].
pub struct TrackedReadGuard<'a, T> {
    lock: &'a TrackedRwLock<T>,
    tid: dgrace_trace::Tid,
    guard: RwLockReadGuard<'a, T>,
}

impl<T> std::ops::Deref for TrackedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> Drop for TrackedReadGuard<'_, T> {
    fn drop(&mut self) {
        // Emitted while the `guard` field is still held; it drops after
        // this body, so the release event precedes any later acquire.
        self.lock.inner.emit(
            self.tid,
            Event::ReleaseRead {
                tid: self.tid,
                lock: self.lock.id,
            },
        );
    }
}

/// Exclusive guard from [`TrackedRwLock::write`].
pub struct TrackedWriteGuard<'a, T> {
    lock: &'a TrackedRwLock<T>,
    tid: dgrace_trace::Tid,
    guard: RwLockWriteGuard<'a, T>,
}

impl<T> std::ops::Deref for TrackedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> std::ops::DerefMut for TrackedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T> Drop for TrackedWriteGuard<'_, T> {
    fn drop(&mut self) {
        // Emitted while the `guard` field is still held; it drops after
        // this body, so the release event precedes any later acquire.
        self.lock.inner.emit(
            self.tid,
            Event::Release {
                tid: self.tid,
                lock: self.lock.id,
            },
        );
    }
}

/// A condition variable whose signal/wait edges reach the detector.
pub struct TrackedCondvar {
    inner: Arc<Inner>,
    id: LockId,
    cv: Condvar,
}

impl TrackedCondvar {
    /// Creates a tracked condition variable owned by `rt`.
    pub fn new(rt: &Runtime) -> Self {
        TrackedCondvar {
            inner: Arc::clone(&rt.inner),
            id: rt.inner.alloc_lock(),
            cv: Condvar::new(),
        }
    }

    /// Signals one waiter (`pthread_cond_signal`).
    pub fn notify_one(&self, h: &ThreadHandle) {
        self.inner.emit(
            h.tid(),
            Event::CvSignal {
                tid: h.tid(),
                cv: self.id,
            },
        );
        self.cv.notify_one();
    }

    /// Signals all waiters (`pthread_cond_broadcast`).
    pub fn notify_all(&self, h: &ThreadHandle) {
        self.inner.emit(
            h.tid(),
            Event::CvSignal {
                tid: h.tid(),
                cv: self.id,
            },
        );
        self.cv.notify_all();
    }

    /// Waits on the condition as thread `h`, holding a tracked mutex
    /// guard. The release/re-acquire and the signal→wake edge all reach
    /// the detector in real order.
    pub fn wait<T>(&self, h: &ThreadHandle, guard: &mut TrackedMutexGuard<'_, T>) {
        guard.cv_wait(h, &self.cv, |tid| {
            self.inner.emit(tid, Event::CvWait { tid, cv: self.id });
        });
    }
}

/// A barrier whose arrive/depart edges reach the detector.
pub struct TrackedBarrier {
    inner: Arc<Inner>,
    id: LockId,
    state: Mutex<(usize, usize)>, // (waiting, generation)
    cv: Condvar,
    parties: usize,
}

impl TrackedBarrier {
    /// Creates a barrier for `parties` threads, owned by `rt`.
    pub fn new(rt: &Runtime, parties: usize) -> Self {
        assert!(parties > 0, "barrier needs at least one party");
        TrackedBarrier {
            inner: Arc::clone(&rt.inner),
            id: rt.inner.alloc_lock(),
            state: Mutex::new((0, 0)),
            cv: Condvar::new(),
            parties,
        }
    }

    /// Waits until all parties arrive (`pthread_barrier_wait`).
    pub fn wait(&self, h: &ThreadHandle) {
        let mut st = self.state.lock();
        // Arrival is published while holding the barrier's internal
        // mutex, so arrive events of one generation precede its departs.
        self.inner.emit(
            h.tid(),
            Event::BarrierArrive {
                tid: h.tid(),
                bar: self.id,
            },
        );
        st.0 += 1;
        let gen = st.1;
        if st.0 == self.parties {
            st.0 = 0;
            st.1 += 1;
            self.inner.emit(
                h.tid(),
                Event::BarrierDepart {
                    tid: h.tid(),
                    bar: self.id,
                },
            );
            drop(st);
            self.cv.notify_all();
        } else {
            while st.1 == gen {
                self.cv.wait(&mut st);
            }
            self.inner.emit(
                h.tid(),
                Event::BarrierDepart {
                    tid: h.tid(),
                    bar: self.id,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgrace_core::DynamicGranularity;
    use dgrace_detectors::FastTrack;
    use std::thread;

    #[test]
    fn rwlock_readers_share_writer_excludes() {
        let rt = Runtime::new(FastTrack::new());
        let main = rt.main();
        let lock = Arc::new(TrackedRwLock::new(&rt, ()));
        let data = rt.cell(7);

        // Writer fills under the write lock.
        {
            let _g = lock.write(&main);
            data.set(&main, 42);
        }
        // Two real reader threads read under read locks.
        let mut joins = Vec::new();
        let mut tickets = Vec::new();
        for _ in 0..2 {
            let (child, ticket) = main.fork();
            let lock = Arc::clone(&lock);
            let data = data.clone();
            tickets.push(ticket);
            joins.push(thread::spawn(move || {
                let _g = lock.read(&child);
                assert_eq!(data.get(&child), 42);
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        for t in tickets {
            main.join(t);
        }
        let rep = rt.finish();
        assert!(rep.races.is_empty(), "{:?}", rep.races);
    }

    #[test]
    fn condvar_handoff_is_race_free() {
        let rt = Runtime::new(DynamicGranularity::new());
        let main = rt.main();
        let data = rt.array(16);
        let m = Arc::new(rt.mutex(false)); // "ready" flag
        let cv = Arc::new(TrackedCondvar::new(&rt));

        let (child, ticket) = main.fork();
        let (m2, cv2, d2) = (Arc::clone(&m), Arc::clone(&cv), data.clone());
        let consumer = thread::spawn(move || {
            let mut g = m2.lock(&child);
            while !*g {
                cv2.wait(&child, &mut g);
            }
            drop(g);
            let mut sum = 0;
            for i in 0..16 {
                sum += d2.get(&child, i);
            }
            sum
        });

        // Producer fills without the lock, then signals readiness.
        data.fill(&main, 3);
        {
            let mut g = m.lock(&main);
            *g = true;
            cv.notify_one(&main);
        }
        assert_eq!(consumer.join().unwrap(), 48);
        main.join(ticket);
        let rep = rt.finish();
        assert!(rep.races.is_empty(), "{:?}", rep.races);
    }

    #[test]
    fn barrier_separates_phases() {
        let rt = Runtime::new(DynamicGranularity::new());
        let main = rt.main();
        let data = rt.array(2);
        let bar = Arc::new(TrackedBarrier::new(&rt, 2));

        let (child, ticket) = main.fork();
        let (b2, d2) = (Arc::clone(&bar), data.clone());
        let worker = thread::spawn(move || {
            d2.set(&child, 1, 11); // phase 1: own slot
            b2.wait(&child);
            d2.get(&child, 0) // phase 2: the other slot
        });
        data.set(&main, 0, 22);
        bar.wait(&main);
        let mine = data.get(&main, 1);
        assert_eq!(worker.join().unwrap(), 22);
        assert_eq!(mine, 11);
        main.join(ticket);
        let rep = rt.finish();
        assert!(rep.races.is_empty(), "{:?}", rep.races);
    }
}
