//! Tracked synchronization primitives.

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use dgrace_trace::{Event, LockId, Tid};
use parking_lot::{Mutex, MutexGuard};

use crate::runtime::{Inner, Runtime, ThreadHandle};

/// A mutex whose acquire/release operations are reported to the detector
/// (the `pthread_mutex_lock`/`unlock` wrappers of a PIN tool).
pub struct TrackedMutex<T> {
    inner: Arc<Inner>,
    id: LockId,
    data: Mutex<T>,
}

impl<T> TrackedMutex<T> {
    pub(crate) fn new(rt: &Runtime, value: T) -> Self {
        TrackedMutex {
            inner: Arc::clone(&rt.inner),
            id: rt.inner.alloc_lock(),
            data: Mutex::new(value),
        }
    }

    /// The lock's id in the event stream.
    pub fn id(&self) -> LockId {
        self.id
    }

    /// Acquires the lock as thread `h`. The `Acquire` event is emitted
    /// *after* the physical acquisition, so the event stream never shows
    /// two holders.
    pub fn lock<'a>(&'a self, h: &ThreadHandle) -> TrackedMutexGuard<'a, T> {
        let guard = self.data.lock();
        self.inner.emit(
            h.tid,
            Event::Acquire {
                tid: h.tid,
                lock: self.id,
            },
        );
        TrackedMutexGuard {
            mutex: self,
            tid: h.tid,
            guard,
        }
    }
}

/// Guard returned by [`TrackedMutex::lock`]; emits the `Release` event
/// (and then physically unlocks) on drop.
pub struct TrackedMutexGuard<'a, T> {
    mutex: &'a TrackedMutex<T>,
    tid: Tid,
    guard: MutexGuard<'a, T>,
}

impl<T> Deref for TrackedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for TrackedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T> TrackedMutexGuard<'_, T> {
    /// Blocks on `cv` with this guard's lock, emitting the real event
    /// order: `Release` (before blocking), the caller's wait event after
    /// waking, then `Acquire` (the physical lock is already re-held, so
    /// the stream never shows two holders).
    pub(crate) fn cv_wait(
        &mut self,
        h: &ThreadHandle,
        cv: &parking_lot::Condvar,
        emit_wait: impl FnOnce(Tid),
    ) {
        debug_assert_eq!(h.tid, self.tid, "guard used from a foreign thread");
        self.mutex.inner.emit(
            self.tid,
            Event::Release {
                tid: self.tid,
                lock: self.mutex.id,
            },
        );
        cv.wait(&mut self.guard);
        emit_wait(self.tid);
        self.mutex.inner.emit(
            self.tid,
            Event::Acquire {
                tid: self.tid,
                lock: self.mutex.id,
            },
        );
    }
}

impl<T> Drop for TrackedMutexGuard<'_, T> {
    fn drop(&mut self) {
        // Emit while still physically holding the lock (the `guard` field
        // drops after this body): the release event is ordered before any
        // subsequent acquire event.
        self.mutex.inner.emit(
            self.tid,
            Event::Release {
                tid: self.tid,
                lock: self.mutex.id,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgrace_detectors::NopDetector;
    use std::thread;

    #[test]
    fn guard_emits_paired_events() {
        let rt = Runtime::new(NopDetector::default());
        let main = rt.main();
        let m = rt.mutex(5u32);
        {
            let mut g = m.lock(&main);
            *g += 1;
            assert_eq!(*g, 6);
        }
        let rep = rt.finish();
        assert_eq!(rep.stats.events, 2); // acquire + release
    }

    #[test]
    fn contended_lock_stays_valid() {
        // Hammer a tracked mutex from 4 real threads; the resulting event
        // stream must be a structurally valid schedule.
        let rt = Runtime::new(dgrace_detectors::FastTrack::new());
        let main = rt.main();
        let m = Arc::new(rt.mutex(0u64));
        let mut handles = Vec::new();
        let mut tickets = Vec::new();
        for _ in 0..4 {
            let (child, ticket) = main.fork();
            let m = Arc::clone(&m);
            handles.push(thread::spawn(move || {
                for _ in 0..100 {
                    let mut g = m.lock(&child);
                    *g += 1;
                }
            }));
            tickets.push(ticket);
        }
        for jh in handles {
            jh.join().unwrap();
        }
        for t in tickets {
            main.join(t);
        }
        assert_eq!(*m.lock(&main), 400);
        let rep = rt.finish();
        assert!(rep.races.is_empty());
        // 4 forks + 4 joins + (400 + 1) * 2 lock ops
        assert_eq!(rep.stats.events, 8 + 802);
    }
}
