//! A sharing group costs the heap nothing per member — counted, not
//! timed, so the gate holds on a host too noisy to time anything.
//!
//! One thread initialises 2 048 consecutive 4-byte words, ascending and
//! then descending, in one epoch: every word joins its neighbour's cell,
//! so each run leaves one group of 2 048 members. The same addresses
//! written with an epoch boundary before each access share nothing: 2 048
//! cells that live in their slots. The chunk slot arrays are the same in
//! both, so the grouped run's peak of live heap bytes may exceed the
//! private run's only by what the group itself costs, which must be at
//! most 1 KiB.
//!
//! As a list of addresses the group's members would take a 16 KiB
//! vector; as a run `{base, stride}` they take none.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dgrace_core::DynamicGranularity;
use dgrace_detectors::Detector;
use dgrace_trace::{AccessSize, Addr, Event, LockId, Tid};

thread_local! {
    /// Heap bytes this thread holds now, and the most it has held since
    /// the last [`measure`] began (the test harness runs other threads,
    /// and they may allocate whenever they like).
    static LIVE: Cell<u64> = const { Cell::new(0) };
    static PEAK: Cell<u64> = const { Cell::new(0) };
}

/// Books `grown` more (or `shrunk` fewer) live bytes on this thread.
fn book(grown: u64, shrunk: u64) {
    let _ = LIVE.try_with(|live| {
        let now = live.get().wrapping_add(grown).wrapping_sub(shrunk);
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

struct Counting;

// SAFETY: every call is handed to `System` unchanged; the only addition
// is arithmetic on `const`-initialised thread-local `Cell`s, which
// neither allocates nor registers a destructor, and `try_with` declines
// instead of panicking on a thread that is being torn down. A block
// freed by another thread than the one that allocated it only skews that
// thread's count, which no assertion reads.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        book(layout.size() as u64, 0);
        // SAFETY: the caller's contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        book(0, layout.size() as u64);
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        book(new_size as u64, layout.size() as u64);
        // SAFETY: the caller's contract is `System.realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const WORDS: u64 = 2048;
const BASE: u64 = 0x4000_0000;
const LOCK: LockId = LockId(7);

/// The words in initialisation order.
fn words(descending: bool) -> Vec<Addr> {
    let offsets = (0..WORDS).map(|i| if descending { WORDS - 1 - i } else { i });
    offsets.map(|i| Addr(BASE + 4 * i)).collect()
}

/// One write to each word, with a lock round before each — which ends
/// the thread's epoch — when `private`.
fn trace(descending: bool, private: bool) -> Vec<Event> {
    let tid = Tid(0);
    let mut events = Vec::new();
    for addr in words(descending) {
        if private {
            events.push(Event::Acquire { tid, lock: LOCK });
            events.push(Event::Release { tid, lock: LOCK });
        }
        events.push(Event::Write {
            tid,
            addr,
            size: AccessSize::U32,
        });
    }
    events
}

/// Feeds `events` to a fresh detector and returns the peak of live heap
/// bytes it held above what was live before it was built, with the
/// number of members of the first word's group.
fn measure(events: &[Event]) -> (u64, usize) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(before));
    let mut det = DynamicGranularity::new();
    for ev in events {
        det.on_event(ev);
    }
    let peak = PEAK.with(Cell::get) - before;
    det.check_invariants();
    let group = det.write_group(Addr(BASE)).expect("the word was written");
    (peak, group.members.len())
}

#[test]
fn a_group_costs_no_heap_per_member() {
    for descending in [false, true] {
        let (grouped, members) = measure(&trace(descending, false));
        assert_eq!(members, WORDS as usize, "one group of every word");
        let (private, members) = measure(&trace(descending, true));
        assert_eq!(members, 1, "an epoch boundary before each word");
        let order = if descending {
            "descending"
        } else {
            "ascending"
        };
        println!("{order}: grouped peak {grouped} B, private peak {private} B");
        assert!(
            grouped <= private + 1024,
            "{order}: a group of {WORDS} held {grouped} B at its peak, the same \
             words unshared {private} B"
        );
    }
}
