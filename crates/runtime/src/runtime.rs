//! The runtime core: thread handles, fork/join tracking, and the public
//! face of the sharded detection engine.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use dgrace_detectors::{Detector, Report, ShardableDetector};
use dgrace_trace::{Event, LockId, PruneSet, Tid};

use crate::engine::{mint, Engine, RuntimeOptions, ThreadBuf};

pub(crate) struct Inner {
    pub(crate) engine: Engine,
    next_tid: AtomicU32,
    next_lock: AtomicU32,
    next_addr: AtomicU64,
}

impl Inner {
    fn new(engine: Engine) -> Self {
        Inner {
            engine,
            next_tid: AtomicU32::new(1), // 0 is the main thread
            next_lock: AtomicU32::new(0),
            next_addr: AtomicU64::new(0x1000),
        }
    }

    /// Emits a sync event as `tid`: the thread's buffer is flushed first,
    /// then the event is broadcast to every shard.
    pub(crate) fn emit_sync(&self, tid: Tid, ev: Event) {
        self.engine.emit_sync(tid, ev);
    }

    /// Emits an allocation event (flushes `tid`'s buffer, then dispatches
    /// to the object's shard).
    pub(crate) fn emit_alloc(&self, tid: Tid, ev: Event) {
        self.engine.emit_alloc(tid, ev);
    }

    pub(crate) fn alloc_lock(&self) -> LockId {
        LockId(self.next_lock.fetch_add(1, Ordering::Relaxed))
    }

    /// Reserves `len` bytes of *virtual* tracked address space, aligned
    /// to 8 and padded so that distinct objects are never sharing-
    /// adjacent by accident. The padded range is registered with the
    /// shard router, so a whole object — and therefore every pair of
    /// sharing-adjacent locations — always lands in one shard.
    pub(crate) fn alloc_addr(&self, len: u64) -> u64 {
        let padded = (len.saturating_add(7) & !7).saturating_add(256);
        let addr = self.next_addr.fetch_add(padded, Ordering::Relaxed);
        self.engine.register_range(addr, padded);
        addr
    }
}

/// A live detector fed by real threads.
///
/// Cloning is cheap (the state is shared); [`Runtime::finish`] extracts
/// the report once all tracked threads are joined.
#[derive(Clone)]
pub struct Runtime {
    pub(crate) inner: Arc<Inner>,
}

impl Runtime {
    /// Wraps a detector for online use with a single shard and default
    /// batching — the drop-in replacement for the old serialized
    /// runtime.
    pub fn new<D: Detector + Send + 'static>(detector: D) -> Self {
        Self::with_options(detector, RuntimeOptions::default())
    }

    /// Wraps a detector for online use with explicit options, on one
    /// shard: an arbitrary detector cannot be replicated per shard — use
    /// [`Runtime::sharded`] for that.
    pub fn with_options<D: Detector + Send + 'static>(detector: D, opts: RuntimeOptions) -> Self {
        Self::over(vec![Box::new(detector)], opts)
    }

    /// Creates a sharded runtime: `shards` instances of the prototype
    /// detector, each owning a slice of the tracked address space.
    pub fn sharded<D: ShardableDetector + ?Sized>(prototype: &D, shards: usize) -> Self {
        Self::sharded_with_options(prototype, shards, RuntimeOptions::default())
    }

    /// Creates a sharded runtime of `shards` instances (at least one)
    /// with explicit options (buffer capacity and journal recording).
    pub fn sharded_with_options<D: ShardableDetector + ?Sized>(
        prototype: &D,
        shards: usize,
        opts: RuntimeOptions,
    ) -> Self {
        Self::over(mint(prototype, shards), opts)
    }

    fn over(detectors: Vec<Box<dyn Detector + Send>>, opts: RuntimeOptions) -> Self {
        let engine = Engine::build(detectors, opts, PruneSet::empty(), None);
        Runtime {
            inner: Arc::new(Inner::new(engine)),
        }
    }

    /// Number of detector shards.
    pub fn shard_count(&self) -> usize {
        self.inner.engine.shard_count()
    }

    /// The main thread's handle (tid 0).
    pub fn main(&self) -> ThreadHandle {
        let buf = self.inner.engine.buffer_for(Tid::MAIN);
        ThreadHandle {
            inner: Arc::clone(&self.inner),
            tid: Tid::MAIN,
            buf,
        }
    }

    /// Creates a tracked mutex protecting `value`.
    pub fn mutex<T>(&self, value: T) -> crate::TrackedMutex<T> {
        crate::TrackedMutex::new(self, value)
    }

    /// Creates a tracked shared cell holding `value`.
    pub fn cell(&self, value: u64) -> crate::TrackedCell {
        crate::TrackedCell::new(self, value)
    }

    /// Creates a tracked shared array of `len` 64-bit words.
    pub fn array(&self, len: usize) -> crate::TrackedArray {
        crate::TrackedArray::new(self, len)
    }

    /// Stops detection and returns the report. Call after every tracked
    /// thread has been joined.
    ///
    /// Every per-thread buffer is flushed before the shard reports are
    /// extracted and merged, so `report.stats.events` is the *exact*
    /// number of events emitted — never a lower bound.
    pub fn finish(&self) -> Report {
        self.inner.engine.finish()
    }

    /// Stops detection like [`Runtime::finish`], but returns an error
    /// when *every* shard was quarantined by a detector panic — the one
    /// case where the report carries no race information at all. A
    /// partially degraded report (some shards healthy) is returned as
    /// `Ok`; inspect [`Report::is_degraded`](dgrace_detectors::Report)
    /// and `report.failures` for the damage.
    pub fn try_finish(&self) -> Result<Report, crate::EngineError> {
        let rep = self.inner.engine.finish();
        if !rep.failures.is_empty() && rep.failures.len() == self.shard_count() {
            return Err(crate::EngineError::AllShardsFailed(rep.failures));
        }
        Ok(rep)
    }

    /// Takes the trace captured so far: a journaling runtime (built with
    /// [`RuntimeOptions::record`]) reconstructs the observed global
    /// serialization from the per-shard journals, at any shard count.
    /// Returns `None` otherwise. All thread buffers are flushed first.
    pub fn take_recorded(&self) -> Option<dgrace_trace::Trace> {
        self.inner.engine.take_recorded()
    }

    /// Like [`Runtime::take_recorded`], but explains a `None`: the
    /// engine was not journaling.
    pub fn try_take_recorded(&self) -> Result<dgrace_trace::Trace, crate::EngineError> {
        self.inner
            .engine
            .take_recorded()
            .ok_or(crate::EngineError::NotRecording)
    }
}

/// The identity of one tracked thread; every tracked operation takes a
/// `&ThreadHandle` to attribute the event (PIN's `tid` argument).
///
/// The handle owns the thread's private event buffer: accesses are
/// appended lock-free and only reach the detector shards in batches.
/// Dropping the handle flushes the buffer.
pub struct ThreadHandle {
    pub(crate) inner: Arc<Inner>,
    pub(crate) tid: Tid,
    buf: Arc<ThreadBuf>,
}

/// Proof that a child was forked; consumed by [`ThreadHandle::join`]
/// after the real thread has been joined.
#[must_use = "join() the child with this ticket"]
pub struct JoinTicket {
    child: Tid,
}

impl ThreadHandle {
    /// This thread's id.
    pub fn tid(&self) -> Tid {
        self.tid
    }

    /// Appends a memory-access event to this thread's private buffer —
    /// the lock-free fast path. The buffer is flushed on overflow and at
    /// every sync operation this thread performs.
    pub(crate) fn emit_access(&self, ev: Event) {
        self.inner.engine.push(&self.buf, ev);
    }

    /// Forks a tracked child thread: emits the `Fork` event and returns
    /// the child's handle (move it into the new thread) plus the ticket
    /// the parent uses to record the join.
    pub fn fork(&self) -> (ThreadHandle, JoinTicket) {
        let child = Tid(self.inner.next_tid.fetch_add(1, Ordering::Relaxed));
        self.inner.emit_sync(
            self.tid,
            Event::Fork {
                parent: self.tid,
                child,
            },
        );
        let buf = self.inner.engine.buffer_for(child);
        (
            ThreadHandle {
                inner: Arc::clone(&self.inner),
                tid: child,
                buf,
            },
            JoinTicket { child },
        )
    }

    /// Records that the child thread has been joined. Call *after* the
    /// real `std::thread::JoinHandle::join` returns, so the event order
    /// reflects the real schedule.
    ///
    /// The child's buffer is drained *before* the `Join` event is
    /// broadcast (the real thread has terminated, so the parent may
    /// drain it): the child's tail accesses must not appear ordered
    /// after the join edge.
    pub fn join(&self, ticket: JoinTicket) {
        self.inner.engine.flush_tid(ticket.child);
        self.inner.emit_sync(
            self.tid,
            Event::Join {
                parent: self.tid,
                child: ticket.child,
            },
        );
    }
}

impl Drop for ThreadHandle {
    fn drop(&mut self) {
        // Backstop flush: a child handle is dropped when the real thread
        // terminates, publishing its tail accesses before the join.
        self.inner.engine.flush_buf(&self.buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgrace_detectors::NopDetector;
    use std::thread;

    #[test]
    fn fork_join_produce_events() {
        let rt = Runtime::new(NopDetector::default());
        let main = rt.main();
        let (child, ticket) = main.fork();
        let jh = thread::spawn(move || child.tid().index());
        let idx = jh.join().unwrap();
        main.join(ticket);
        assert_eq!(idx, 1);
        let rep = rt.finish();
        assert_eq!(rep.stats.events, 2); // fork + join
    }

    #[test]
    fn tids_are_unique() {
        let rt = Runtime::new(NopDetector::default());
        let main = rt.main();
        let (c1, t1) = main.fork();
        let (c2, t2) = main.fork();
        assert_ne!(c1.tid(), c2.tid());
        main.join(t1);
        main.join(t2);
    }

    #[test]
    fn address_allocation_pads() {
        let rt = Runtime::new(NopDetector::default());
        let a = rt.inner.alloc_addr(8);
        let b = rt.inner.alloc_addr(8);
        assert!(b >= a + 8 + 256, "objects must not be sharing-adjacent");
    }

    #[test]
    fn sharded_runtime_counts_exactly() {
        let rt = Runtime::sharded(&NopDetector::default(), 4);
        assert_eq!(rt.shard_count(), 4);
        let main = rt.main();
        let cells: Vec<_> = (0..8).map(|i| rt.cell(i)).collect();
        for (i, c) in cells.iter().enumerate() {
            c.set(&main, i as u64 * 3);
        }
        let (child, ticket) = main.fork();
        let cs: Vec<_> = cells.iter().map(Clone::clone).collect();
        let jh = thread::spawn(move || {
            let mut sum = 0;
            for c in &cs {
                sum += c.get(&child);
            }
            sum
        });
        let sum = jh.join().unwrap();
        main.join(ticket);
        assert_eq!(sum, (0..8u64).map(|i| i * 3).sum::<u64>());
        let rep = rt.finish();
        // 8 writes + 8 reads + fork + join, each counted exactly once.
        assert_eq!(rep.stats.events, 18);
        assert_eq!(rep.stats.accesses, 16);
    }
}
