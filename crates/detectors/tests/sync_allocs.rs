//! A steady-state synchronisation event allocates nothing — counted, not
//! timed, so the gate holds on a host too noisy to time anything.
//!
//! The loop is the ledger's `sync` workload built in process: 32 workers
//! on 64 locks, each iteration `acquire / read / write / release` of the
//! one cache line the lock guards, plus one reader-writer-lock round and
//! one barrier round per pass. The first pass materialises every thread,
//! lock record and shadow location; the second pass must
//! then perform **0** allocations through `DynamicGranularity` and
//! through `FastTrack`.
//!
//! Before PR 22 the second pass allocated 6 275 times in either
//! detector: 3 for each of its 2 048 iterations — `on_sync` cloned a
//! 33-wide clock at the acquire and again at the release, and the release
//! freed the epoch's bitmap chunk, so the next access allocated one —
//! and 131 in the two rounds.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dgrace_core::DynamicGranularity;
use dgrace_detectors::{Detector, FastTrack, Granularity};
use dgrace_trace::{AccessSize, Addr, Event, LockId, Tid};

thread_local! {
    /// Allocations made by this thread (the test harness runs other
    /// threads, and they may allocate whenever they like).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is handed to `System` unchanged; the only addition
// is a bump of a `const`-initialised thread-local `Cell`, which neither
// allocates nor registers a destructor, and `try_with` declines instead
// of panicking on a thread that is being torn down.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract is `System.realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const WORKERS: u32 = 32;
const LOCKS: u32 = 64;
const LINES: u64 = 0x3000_0000;

/// The main thread forks the workers.
fn forks() -> Vec<Event> {
    let parent = Tid(0);
    (1..=WORKERS)
        .map(|w| Event::Fork {
            parent,
            child: Tid(w),
        })
        .collect()
}

/// One pass: every worker takes every lock once, in a scrambled but
/// fixed order, then a round on a reader-writer lock (every worker takes
/// it for reading, one for writing) and a round through a barrier.
fn pass() -> Vec<Event> {
    let mut events = Vec::new();
    let size = AccessSize::U64;
    let iterations = WORKERS * LOCKS;
    for i in 0..iterations {
        // 1 021 is odd, so coprime with the 2 048 (worker, lock) pairs:
        // the walk visits each once.
        let k = (i * 1021) % iterations;
        let (tid, line) = (Tid(1 + k % WORKERS), k / WORKERS);
        let (lock, addr) = (LockId(line), Addr(LINES + line as u64 * 64));
        events.extend([
            Event::Acquire { tid, lock },
            Event::Read { tid, addr, size },
            Event::Write { tid, addr, size },
            Event::Release { tid, lock },
        ]);
    }

    // The readers touch no memory: concurrent reads of one location
    // inflate FastTrack's read clock to a vector, an allocation of the
    // access path, which is not what this gate is about.
    let (lock, addr) = (LockId(LOCKS), Addr(LINES + LOCKS as u64 * 64));
    for tid in (1..=WORKERS).map(Tid) {
        events.extend([
            Event::AcquireRead { tid, lock },
            Event::ReleaseRead { tid, lock },
        ]);
    }
    let tid = Tid(1);
    events.extend([
        Event::Acquire { tid, lock },
        Event::Write { tid, addr, size },
        Event::Release { tid, lock },
    ]);

    let bar = LockId(0);
    events.extend((1..=WORKERS).map(|w| Event::BarrierArrive { tid: Tid(w), bar }));
    events.extend((1..=WORKERS).map(|w| Event::BarrierDepart { tid: Tid(w), bar }));
    events
}

/// Allocations `det` makes on its second pass.
fn steady_state_allocs(mut det: impl Detector) -> u64 {
    let pass = pass();
    for ev in forks().iter().chain(&pass) {
        det.on_event(ev);
    }
    let before = ALLOCS.with(Cell::get);
    for ev in &pass {
        det.on_event(ev);
    }
    let allocs = ALLOCS.with(Cell::get) - before;
    assert!(det.finish().races.is_empty(), "the loop is race-free");
    allocs
}

#[test]
fn dynamic_granularity_sync_path_is_allocation_free() {
    assert_eq!(steady_state_allocs(DynamicGranularity::new()), 0);
}

#[test]
fn fasttrack_sync_path_is_allocation_free() {
    let byte = FastTrack::with_granularity(Granularity::Byte);
    assert_eq!(steady_state_allocs(byte), 0);
}
