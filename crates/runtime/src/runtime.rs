//! The runtime core: thread handles, fork/join tracking, and the
//! per-thread buffers in front of the one replay driver.
//!
//! A live [`Runtime`] is one more caller of the driver that offline
//! replay and `serve` sessions step (`crate::replay`): it holds an
//! engine and a driver on inline lanes behind one mutex, the way the
//! paper's PIN tool serializes its analysis callbacks around one global
//! structure.
//!
//! * **Per-thread batching.** Every tracked thread owns a bounded
//!   per-thread queue of pending events. Memory accesses are appended to
//!   it without taking the driver lock; a flush takes the lock and steps
//!   the drained events, in program order, through the driver.
//! * **One serialization.** Everything the driver is stepped with is
//!   stamped in step order, so the step order is the run's serialization
//!   σ: what a recording runtime's [`take_recorded`](Runtime::take_recorded)
//!   returns, and what every shard sees its part of.
//!
//! ## Flush ordering rules (the part that is easy to get wrong)
//!
//! 1. A thread's buffer is flushed **before** any of its sync events (or
//!    an `Alloc`) is stepped, under the same lock acquisition —
//!    including lock *acquires*: the detector merges the lock's clock
//!    into the thread's clock at the acquire, so a buffered pre-acquire
//!    access processed after it would appear protected.
//! 2. A child's buffer is flushed **before** the parent's `Join` is
//!    stepped (the parent drains it; the real thread has already
//!    terminated), otherwise the child's tail accesses would appear
//!    ordered after the join edge and races would be missed or invented.
//! 3. `finish` flushes every registered buffer before collecting shard
//!    reports, so `stats.events` equals the exact number of emitted
//!    events.
//!
//! A buffer is also flushed when it overflows and when its
//! [`ThreadHandle`] drops. Lock order is always: driver lock → shard
//! locks; the router's lock is taken alone or under the driver lock, so
//! the runtime cannot deadlock against itself.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam::queue::ArrayQueue;
use dgrace_detectors::{Detector, Report, ShardableDetector};
use dgrace_trace::{Event, LockId, PruneSet, Tid};
use parking_lot::Mutex;

use crate::engine::{mint, Engine};
use crate::pipeline::Lanes;
use crate::replay::{Driver, INLINE_INFALLIBLE};

/// Tuning knobs for the online runtime.
#[derive(Clone, Copy, Debug)]
pub struct RuntimeOptions {
    /// Number of address-partitioned detector shards (`0` is treated as
    /// `1`).
    pub shards: usize,
    /// Capacity of each thread's event buffer. `1` disables batching
    /// (every access is stepped on its own — the per-event configuration
    /// of the scaling example).
    pub buffer_capacity: usize,
    /// When `true`, the engine journals every event with its sequence
    /// stamp; `take_recorded` then reconstructs the observed
    /// serialization as a [`Trace`](dgrace_trace::Trace).
    pub record: bool,
}

impl Default for RuntimeOptions {
    fn default() -> Self {
        RuntimeOptions {
            shards: 1,
            buffer_capacity: 256,
            record: false,
        }
    }
}

/// One thread's pending events, in program order.
type ThreadBuf = ArrayQueue<Event>;

/// What the driver lock guards: the driver and the buffer registry.
struct Live {
    driver: Driver<'static>,
    /// Per-tid buffers, indexed by `Tid::index()`.
    bufs: Vec<Option<Arc<ThreadBuf>>>,
}

/// Steps every event pending in `buf` through `driver`. Drains are
/// serialized by the driver lock, so each is a program-order prefix of
/// the owner's pending events.
fn drain(driver: &mut Driver<'static>, engine: &Engine, buf: &ThreadBuf) {
    while let Some(ev) = buf.pop() {
        driver.step(engine, &ev).expect(INLINE_INFALLIBLE);
    }
}

impl Live {
    /// Drains `tid`'s buffer, if it has one.
    fn drain_tid(&mut self, engine: &Engine, tid: Tid) {
        if let Some(Some(buf)) = self.bufs.get(tid.index()) {
            drain(&mut self.driver, engine, buf);
        }
    }

    /// Drains every registered buffer.
    fn drain_all(&mut self, engine: &Engine) {
        for buf in self.bufs.iter().flatten() {
            drain(&mut self.driver, engine, buf);
        }
    }

    /// Drains `tid`'s buffer, then steps `ev` right after it (rule 1).
    fn step_after(&mut self, engine: &Engine, tid: Tid, ev: &Event) {
        self.drain_tid(engine, tid);
        self.driver.step(engine, ev).expect(INLINE_INFALLIBLE);
    }
}

pub(crate) struct Inner {
    engine: Engine,
    live: Mutex<Live>,
    capacity: usize,
    next_tid: AtomicU32,
    next_lock: AtomicU32,
    next_addr: AtomicU64,
}

impl Inner {
    /// Emits a sync or `Alloc` event as `tid`: the thread's buffer is
    /// flushed first, then the event is stepped.
    pub(crate) fn emit(&self, tid: Tid, ev: Event) {
        self.live.lock().step_after(&self.engine, tid, &ev);
    }

    /// The buffer of `tid`, creating it on first use.
    fn buffer_for(&self, tid: Tid) -> Arc<ThreadBuf> {
        let bufs = &mut self.live.lock().bufs;
        let idx = tid.index();
        if bufs.len() <= idx {
            bufs.resize_with(idx + 1, || None);
        }
        Arc::clone(bufs[idx].get_or_insert_with(|| Arc::new(ArrayQueue::new(self.capacity.max(1)))))
    }

    /// Appends an access to `buf`, flushing first when the buffer is
    /// full.
    fn push(&self, buf: &ThreadBuf, mut ev: Event) {
        while let Err(back) = buf.push(ev) {
            self.flush(buf);
            ev = back;
        }
    }

    /// Steps everything pending in `buf`.
    fn flush(&self, buf: &ThreadBuf) {
        drain(&mut self.live.lock().driver, &self.engine, buf);
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
    /// Wraps any detector for online use: one shard, default options.
    pub fn new<D: Detector + Send + 'static>(detector: D) -> Self {
        let name = detector.name();
        Self::build(name, vec![Box::new(detector)], RuntimeOptions::default())
    }

    /// `opts.shards` instances of the prototype detector (at least one),
    /// each owning a slice of the tracked address space, with the
    /// options' buffer capacity and journal recording.
    pub fn with_options<D: ShardableDetector + ?Sized>(
        prototype: &D,
        opts: RuntimeOptions,
    ) -> Self {
        Self::build(prototype.name(), mint(prototype, opts.shards), opts)
    }

    fn build(
        det_name: String,
        detectors: Vec<Box<dyn Detector + Send>>,
        opts: RuntimeOptions,
    ) -> Self {
        let driver = Driver::new(Lanes::inline(detectors.len()), det_name, 0, None);
        Runtime {
            inner: Arc::new(Inner {
                engine: Engine::build(detectors, opts.record, PruneSet::empty(), None),
                live: Mutex::new(Live {
                    driver,
                    bufs: Vec::new(),
                }),
                capacity: opts.buffer_capacity,
                next_tid: AtomicU32::new(1), // 0 is the main thread
                next_lock: AtomicU32::new(0),
                next_addr: AtomicU64::new(0x1000),
            }),
        }
    }

    /// Number of detector shards.
    pub fn shard_count(&self) -> usize {
        self.inner.engine.shard_count()
    }

    /// The main thread's handle (tid 0).
    pub fn main(&self) -> ThreadHandle {
        ThreadHandle {
            inner: Arc::clone(&self.inner),
            tid: Tid::MAIN,
            buf: self.inner.buffer_for(Tid::MAIN),
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
        let mut live = self.inner.live.lock();
        live.drain_all(&self.inner.engine);
        live.driver
            .finish(&self.inner.engine)
            .expect(INLINE_INFALLIBLE)
    }

    /// Stops detection like [`Runtime::finish`], but returns an error
    /// when *every* shard was quarantined by a detector panic — the one
    /// case where the report carries no race information at all. A
    /// partially degraded report (some shards healthy) is returned as
    /// `Ok`; inspect [`Report::is_degraded`](dgrace_detectors::Report)
    /// and `report.failures` for the damage.
    pub fn try_finish(&self) -> Result<Report, crate::EngineError> {
        let rep = self.finish();
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
        let mut live = self.inner.live.lock();
        live.drain_all(&self.inner.engine);
        live.driver.lanes.flush(&self.inner.engine);
        self.inner.engine.take_recorded()
    }

    /// Like [`Runtime::take_recorded`], but explains a `None`: the
    /// engine was not journaling.
    pub fn try_take_recorded(&self) -> Result<dgrace_trace::Trace, crate::EngineError> {
        self.take_recorded().ok_or(crate::EngineError::NotRecording)
    }
}

/// The identity of one tracked thread; every tracked operation takes a
/// `&ThreadHandle` to attribute the event (PIN's `tid` argument).
///
/// The handle owns the thread's event buffer: accesses are appended
/// without taking the driver lock and only reach the detector shards in
/// batches. Dropping the handle flushes the buffer.
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

    /// Appends a memory-access event to this thread's buffer — the fast
    /// path. The buffer is flushed on overflow and at every sync
    /// operation this thread performs.
    pub(crate) fn emit_access(&self, ev: Event) {
        self.inner.push(&self.buf, ev);
    }

    /// Forks a tracked child thread: emits the `Fork` event and returns
    /// the child's handle (move it into the new thread) plus the ticket
    /// the parent uses to record the join.
    pub fn fork(&self) -> (ThreadHandle, JoinTicket) {
        let child = Tid(self.inner.next_tid.fetch_add(1, Ordering::Relaxed));
        self.inner.emit(
            self.tid,
            Event::Fork {
                parent: self.tid,
                child,
            },
        );
        (
            ThreadHandle {
                inner: Arc::clone(&self.inner),
                tid: child,
                buf: self.inner.buffer_for(child),
            },
            JoinTicket { child },
        )
    }

    /// Records that the child thread has been joined. Call *after* the
    /// real `std::thread::JoinHandle::join` returns, so the event order
    /// reflects the real schedule.
    ///
    /// The child's buffer is drained *before* the `Join` event is
    /// stepped (the real thread has terminated, so the parent may drain
    /// it): the child's tail accesses must not appear ordered after the
    /// join edge.
    pub fn join(&self, ticket: JoinTicket) {
        let engine = &self.inner.engine;
        let mut live = self.inner.live.lock();
        live.drain_tid(engine, ticket.child);
        live.step_after(
            engine,
            self.tid,
            &Event::Join {
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
        self.inner.flush(&self.buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgrace_detectors::NopDetector;
    use std::thread;

    #[test]
    fn overflow_flushes_and_nothing_is_lost() {
        let rt = Runtime::with_options(
            &NopDetector::default(),
            RuntimeOptions {
                shards: 2,
                buffer_capacity: 4,
                record: true,
            },
        );
        let main = rt.main();
        for i in 0..10u64 {
            main.emit_access(Event::Write {
                tid: Tid::MAIN,
                addr: dgrace_trace::Addr(0x1000 + i * 8),
                size: dgrace_trace::AccessSize::U64,
            });
            // Two full buffers were stepped before the tenth write.
            assert_eq!(main.buf.len() as u64, i % 4 + 1, "write {i}");
        }
        let trace = rt.take_recorded().expect("recording runtime");
        assert_eq!(trace.len(), 10);
        let rep = rt.finish();
        assert_eq!(rep.stats.events, 10);
    }

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
        let rt = Runtime::with_options(
            &NopDetector::default(),
            RuntimeOptions {
                shards: 4,
                ..RuntimeOptions::default()
            },
        );
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
