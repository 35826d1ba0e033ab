//! Tracked shared memory.
//!
//! Payloads live in relaxed atomics so that a *modeled* race (which the
//! detector reports) is never an *actual* Rust data race. The addresses
//! reported to the detector are virtual — allocated from the runtime's
//! tracked address space, padded so distinct objects never become
//! sharing neighbors.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dgrace_trace::{AccessSize, Addr, Event};

use crate::runtime::{Inner, Runtime, ThreadHandle};

/// A tracked shared 64-bit cell.
#[derive(Clone)]
pub struct TrackedCell {
    addr: Addr,
    data: Arc<AtomicU64>,
}

impl TrackedCell {
    pub(crate) fn new(rt: &Runtime, value: u64) -> Self {
        TrackedCell {
            addr: Addr(rt.inner.alloc_addr(8)),
            data: Arc::new(AtomicU64::new(value)),
        }
    }

    /// The cell's tracked address.
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// Reads the cell as thread `h` (buffered fast path).
    pub fn get(&self, h: &ThreadHandle) -> u64 {
        h.emit_access(Event::Read {
            tid: h.tid,
            addr: self.addr,
            size: AccessSize::U64,
        });
        self.data.load(Ordering::Relaxed)
    }

    /// Writes the cell as thread `h` (buffered fast path).
    pub fn set(&self, h: &ThreadHandle, value: u64) {
        h.emit_access(Event::Write {
            tid: h.tid,
            addr: self.addr,
            size: AccessSize::U64,
        });
        self.data.store(value, Ordering::Relaxed);
    }

    /// Read-modify-write (two tracked accesses, like `x += 1` compiles
    /// to).
    pub fn update(&self, h: &ThreadHandle, f: impl FnOnce(u64) -> u64) {
        let v = self.get(h);
        self.set(h, f(v));
    }
}

/// A tracked shared array of 64-bit words (contiguous tracked addresses —
/// the dynamic detector can share clocks across its elements).
#[derive(Clone)]
pub struct TrackedArray {
    inner: Arc<Inner>,
    base: Addr,
    data: Arc<Vec<AtomicU64>>,
}

impl TrackedArray {
    pub(crate) fn new(rt: &Runtime, len: usize) -> Self {
        let base = Addr(rt.inner.alloc_addr(len as u64 * 8));
        let data = (0..len).map(|_| AtomicU64::new(0)).collect();
        let arr = TrackedArray {
            inner: Arc::clone(&rt.inner),
            base,
            data: Arc::new(data),
        };
        arr.inner.emit(
            dgrace_trace::Tid::MAIN,
            Event::Alloc {
                tid: dgrace_trace::Tid::MAIN,
                addr: base,
                size: len as u64 * 8,
            },
        );
        arr
    }

    /// Number of words.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the array is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The tracked address of element `i`.
    pub fn addr_of(&self, i: usize) -> Addr {
        Addr(self.base.0 + (i as u64) * 8)
    }

    /// Reads element `i` as thread `h` (buffered fast path).
    pub fn get(&self, h: &ThreadHandle, i: usize) -> u64 {
        h.emit_access(Event::Read {
            tid: h.tid,
            addr: self.addr_of(i),
            size: AccessSize::U64,
        });
        self.data[i].load(Ordering::Relaxed)
    }

    /// Writes element `i` as thread `h` (buffered fast path).
    pub fn set(&self, h: &ThreadHandle, i: usize, value: u64) {
        h.emit_access(Event::Write {
            tid: h.tid,
            addr: self.addr_of(i),
            size: AccessSize::U64,
        });
        self.data[i].store(value, Ordering::Relaxed);
    }

    /// Fills the whole array (the initialization pattern the `Init`
    /// state targets).
    pub fn fill(&self, h: &ThreadHandle, value: u64) {
        for i in 0..self.len() {
            self.set(h, i, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Runtime;
    use dgrace_core::DynamicGranularity;
    use dgrace_detectors::FastTrack;
    use std::thread;

    #[test]
    fn cell_roundtrip_and_race_detection() {
        let rt = Runtime::new(FastTrack::new());
        let main = rt.main();
        let cell = rt.cell(7);
        assert_eq!(cell.get(&main), 7);
        let (child, ticket) = main.fork();
        let c2 = cell.clone();
        let jh = thread::spawn(move || c2.set(&child, 9));
        // Unsynchronized parent write, concurrent with the child's: the
        // pre-fork read is ordered (fork edge), this write is not.
        cell.set(&main, 5);
        jh.join().unwrap();
        main.join(ticket);
        let last = cell.get(&main); // ordered after join — not a race
        assert!(last == 9 || last == 5);
        let rep = rt.finish();
        assert_eq!(rep.races.len(), 1, "{:?}", rep.races);
    }

    #[test]
    fn locked_array_is_race_free_and_groups() {
        let rt = Runtime::new(DynamicGranularity::new());
        let main = rt.main();
        let arr = rt.array(64);
        arr.fill(&main, 0);
        let m = Arc::new(rt.mutex(()));
        let arr2 = arr.clone();
        let m2 = Arc::clone(&m);
        let (child, ticket) = main.fork();
        let jh = thread::spawn(move || {
            let _g = m2.lock(&child);
            for i in 0..64 {
                arr2.set(&child, i, 1);
            }
        });
        {
            let _g = m.lock(&main);
            for i in 0..64 {
                arr.set(&main, i, 2);
            }
        }
        jh.join().unwrap();
        main.join(ticket);
        let rep = rt.finish();
        assert!(rep.races.is_empty(), "{:?}", rep.races);
        // The 64-element array never needs 128 write clocks.
        assert!(rep.stats.peak_vc_count < 64);
    }

    #[test]
    fn update_is_two_accesses() {
        let rt = Runtime::new(FastTrack::new());
        let main = rt.main();
        let cell = rt.cell(1);
        cell.update(&main, |v| v * 10);
        assert_eq!(cell.get(&main), 10);
        let rep = rt.finish();
        assert_eq!(rep.stats.accesses, 3);
    }
}
