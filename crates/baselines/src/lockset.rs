//! Eraser's LockSet algorithm.

use std::collections::{HashMap, HashSet};

use dgrace_detectors::{AccessKind, Detector, RaceKind, RaceReport, Report};
use dgrace_shadow::{MemClass, MemoryModel};
use dgrace_trace::{Addr, Event, LockId};
use dgrace_vc::{Epoch, Tid};

/// Per-thread held-lock bookkeeping, shared between the Eraser checker
/// here and the ahead-of-time analysis in `dgrace-analysis`.
///
/// Exclusive (write) holds and shared (read) holds are tracked
/// separately: Eraser's candidate sets use the union (a read hold is
/// still a discipline), while the analyzer's prune proof may only count
/// exclusive holds (two read holders do not order their accesses).
/// Storage is tid-indexed, each set a sorted `Vec`: the analyzer asks
/// per access and interns the slice (see its `locksets` module).
/// Re-acquiring a held lock is idempotent and one release drops it —
/// the events carry no recursion depth.
#[derive(Clone, Debug, Default)]
pub struct HeldLocks {
    exclusive: Vec<Vec<LockId>>,
    read: Vec<Vec<LockId>>,
}

impl HeldLocks {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Updates the tracker from one event; non-lock events are ignored.
    pub fn apply(&mut self, ev: &Event) {
        let (sets, tid, lock, acquire) = match *ev {
            Event::Acquire { tid, lock } => (&mut self.exclusive, tid, lock, true),
            Event::Release { tid, lock } => (&mut self.exclusive, tid, lock, false),
            Event::AcquireRead { tid, lock } => (&mut self.read, tid, lock, true),
            Event::ReleaseRead { tid, lock } => (&mut self.read, tid, lock, false),
            _ => return,
        };
        if sets.len() <= tid.index() {
            sets.resize_with(tid.index() + 1, Vec::new);
        }
        let set = &mut sets[tid.index()];
        match (set.binary_search(&lock), acquire) {
            (Err(at), true) => set.insert(at, lock),
            (Ok(at), false) => {
                set.remove(at);
            }
            _ => {}
        }
    }

    /// The locks `tid` currently holds exclusively, ascending.
    pub fn exclusive(&self, tid: Tid) -> &[LockId] {
        self.exclusive.get(tid.index()).map_or(&[], Vec::as_slice)
    }

    /// All locks `tid` holds in any mode (Eraser's candidate universe).
    pub fn any_mode(&self, tid: Tid) -> HashSet<LockId> {
        let read = self.read.get(tid.index()).map_or(&[][..], Vec::as_slice);
        self.exclusive(tid).iter().chain(read).copied().collect()
    }
}

/// Eraser's per-location ownership state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LocksetState {
    /// Never accessed.
    Virgin,
    /// Accessed by a single thread so far (no locking required).
    Exclusive(Tid),
    /// Read by several threads; writes all ordered (lockset tracked but
    /// empty lockset is not yet reported).
    Shared,
    /// Read and written by several threads; empty lockset ⇒ race report.
    SharedModified,
}

#[derive(Clone, Debug)]
struct LocEntry {
    state: LocksetState,
    /// Candidate lockset C(x).
    lockset: HashSet<LockId>,
    /// Last writer (for the report's "previous access" field).
    last_writer: Option<Tid>,
    reported: bool,
}

/// A faithful implementation of the Eraser LockSet discipline checker
/// ("data races are reported when shared variable accesses violate a
/// specified locking discipline", §I).
///
/// Being a discipline checker, it flags *potential* races — including
/// ones that did not happen in this execution — and produces false alarms
/// for synchronization expressed through fork/join or condition signaling
/// rather than a common lock. The paper's hybrid detectors exist
/// precisely to filter those.
#[derive(Debug, Default)]
pub struct LockSetDetector {
    held: HeldLocks,
    table: HashMap<Addr, LocEntry>,
    races: Vec<RaceReport>,
    model: MemoryModel,
    loc_bytes: usize,
    events: u64,
    accesses: u64,
    event_index: u64,
}

impl LockSetDetector {
    /// Creates a LockSet detector.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current Eraser state of a location (for tests/diagnostics).
    pub fn state_of(&self, addr: Addr) -> LocksetState {
        self.table
            .get(&addr)
            .map(|e| e.state)
            .unwrap_or(LocksetState::Virgin)
    }

    fn on_access(&mut self, tid: Tid, addr: Addr, kind: AccessKind) {
        self.accesses += 1;
        let held = self.held.any_mode(tid);
        let is_new = !self.table.contains_key(&addr);
        let entry = self.table.entry(addr).or_insert_with(|| LocEntry {
            state: LocksetState::Virgin,
            lockset: HashSet::new(),
            last_writer: None,
            reported: false,
        });
        let before = if is_new {
            0
        } else {
            32 + entry.lockset.len() * 4
        };

        // Eraser state machine.
        let new_state = match entry.state {
            LocksetState::Virgin => {
                entry.lockset = held.clone();
                LocksetState::Exclusive(tid)
            }
            LocksetState::Exclusive(owner) if owner == tid => LocksetState::Exclusive(tid),
            LocksetState::Exclusive(_) => {
                // First access from a second thread: start refining.
                entry.lockset = held.clone();
                if kind == AccessKind::Write {
                    LocksetState::SharedModified
                } else {
                    LocksetState::Shared
                }
            }
            LocksetState::Shared => {
                entry.lockset.retain(|l| held.contains(l));
                if kind == AccessKind::Write {
                    LocksetState::SharedModified
                } else {
                    LocksetState::Shared
                }
            }
            LocksetState::SharedModified => {
                entry.lockset.retain(|l| held.contains(l));
                LocksetState::SharedModified
            }
        };
        entry.state = new_state;

        if entry.state == LocksetState::SharedModified
            && entry.lockset.is_empty()
            && !entry.reported
        {
            entry.reported = true;
            let prev = entry.last_writer.unwrap_or(Tid(0));
            self.races.push(RaceReport {
                addr,
                kind: if kind == AccessKind::Write {
                    RaceKind::WriteWrite
                } else {
                    RaceKind::WriteRead
                },
                current: Epoch::new(0, tid),
                previous: Epoch::new(0, prev),
                event_index: Some(self.event_index),
                share_count: 1,
                tainted: false,
            });
        }

        if kind == AccessKind::Write {
            entry.last_writer = Some(tid);
        }
        // One lockset entry per location: header + lock ids.
        let after = 32 + entry.lockset.len() * 4;
        self.loc_bytes = self.loc_bytes + after - before;
        self.model.set(MemClass::Hash, self.loc_bytes);
    }
}

impl Detector for LockSetDetector {
    fn name(&self) -> String {
        "lockset-eraser".to_string()
    }

    fn on_event(&mut self, ev: &Event) {
        self.events += 1;
        match *ev {
            Event::Read { tid, addr, .. } => self.on_access(tid, addr, AccessKind::Read),
            Event::Write { tid, addr, .. } => self.on_access(tid, addr, AccessKind::Write),
            Event::Acquire { .. }
            | Event::AcquireRead { .. }
            | Event::Release { .. }
            | Event::ReleaseRead { .. } => {
                // Eraser counts read locks toward the candidate set too
                // (its refinement distinguishes read/write ownership; we
                // use the simpler common-lock form via `any_mode`).
                self.held.apply(ev);
            }
            Event::Free { addr, size, .. } => {
                let mut freed = 0usize;
                self.table.retain(|a, e| {
                    let keep = a.0 < addr.0 || a.0 >= addr.0 + size;
                    if !keep {
                        freed += 32 + e.lockset.len() * 4;
                    }
                    keep
                });
                self.loc_bytes -= freed;
                self.model.set(MemClass::Hash, self.loc_bytes);
            }
            _ => {}
        }
        self.event_index += 1;
    }

    fn finish(&mut self) -> Report {
        let mut rep = Report {
            detector: self.name(),
            races: std::mem::take(&mut self.races),
            ..Report::default()
        };
        rep.stats.events = self.events;
        rep.stats.accesses = self.accesses;
        rep.stats.peak_hash_bytes = self.model.peak(MemClass::Hash);
        rep.stats.peak_total_bytes = self.model.peak_total();
        *self = LockSetDetector::default();
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgrace_detectors::DetectorExt;
    use dgrace_trace::{AccessSize, TraceBuilder};

    const X: u64 = 0x4000;

    #[test]
    fn held_locks_are_sorted_sets_per_mode() {
        let (t, l, m) = (Tid(3), LockId(5), LockId(9));
        let mut held = HeldLocks::new();
        held.apply(&Event::Acquire { tid: t, lock: m });
        held.apply(&Event::Acquire { tid: t, lock: l });
        held.apply(&Event::Acquire { tid: t, lock: l }); // idempotent
        held.apply(&Event::AcquireRead {
            tid: t,
            lock: LockId(1),
        });
        assert_eq!(held.exclusive(t), [l, m], "ascending, read hold apart");
        assert_eq!(held.any_mode(t).len(), 3);
        held.apply(&Event::Release { tid: t, lock: l });
        held.apply(&Event::Release { tid: t, lock: l }); // already gone
        assert_eq!(held.exclusive(t), [m]);
        assert_eq!(held.exclusive(Tid(0)), [], "never seen: holds nothing");
        assert_eq!(held.exclusive(Tid(99)), []);
    }

    #[test]
    fn consistent_locking_passes() {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32);
        for t in [0u32, 1u32] {
            b.locked(t, 0u32, |b| {
                b.read(t, X, AccessSize::U32).write(t, X, AccessSize::U32);
            });
        }
        assert!(LockSetDetector::new().run(&b.build()).races.is_empty());
    }

    #[test]
    fn unprotected_sharing_reported() {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32)
            .write(0u32, X, AccessSize::U32)
            .write(1u32, X, AccessSize::U32);
        let rep = LockSetDetector::new().run(&b.build());
        assert_eq!(rep.races.len(), 1);
    }

    #[test]
    fn inconsistent_locks_reported() {
        // Eraser only starts refining the candidate set when the variable
        // leaves the Exclusive state, so the violation surfaces at the
        // *third* access: C(x) = {L1} ∩ {L0} = ∅.
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32)
            .locked(0u32, 0u32, |t| {
                t.write(0u32, X, AccessSize::U32);
            })
            .locked(1u32, 1u32, |t| {
                t.write(1u32, X, AccessSize::U32);
            })
            .locked(0u32, 0u32, |t| {
                t.write(0u32, X, AccessSize::U32);
            });
        let rep = LockSetDetector::new().run(&b.build());
        assert_eq!(rep.races.len(), 1, "different locks → empty lockset");
    }

    #[test]
    fn fork_join_false_alarm() {
        // The known Eraser weakness: fork/join ordering without locks is
        // reported even though it is perfectly race-free.
        let mut b = TraceBuilder::new();
        b.write(0u32, X, AccessSize::U32)
            .fork(0u32, 1u32)
            .write(1u32, X, AccessSize::U32)
            .join(0u32, 1u32)
            .write(0u32, X, AccessSize::U32);
        let rep = LockSetDetector::new().run(&b.build());
        assert_eq!(rep.races.len(), 1, "Eraser flags fork/join idioms");
    }

    #[test]
    fn exclusive_single_thread_never_reported() {
        let mut b = TraceBuilder::new();
        for _ in 0..10 {
            b.write(0u32, X, AccessSize::U32);
        }
        let rep = LockSetDetector::new().run(&b.build());
        assert!(rep.races.is_empty());
    }

    #[test]
    fn read_sharing_without_writes_ok() {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32)
            .read(0u32, X, AccessSize::U32)
            .read(1u32, X, AccessSize::U32);
        let mut det = LockSetDetector::new();
        let rep = det.run(&b.build());
        assert!(rep.races.is_empty());
    }

    #[test]
    fn state_machine_progression() {
        let mut det = LockSetDetector::new();
        assert_eq!(det.state_of(Addr(X)), LocksetState::Virgin);
        det.on_event(&Event::Write {
            tid: Tid(0),
            addr: Addr(X),
            size: AccessSize::U32,
        });
        assert_eq!(det.state_of(Addr(X)), LocksetState::Exclusive(Tid(0)));
        det.on_event(&Event::Read {
            tid: Tid(1),
            addr: Addr(X),
            size: AccessSize::U32,
        });
        assert_eq!(det.state_of(Addr(X)), LocksetState::Shared);
        det.on_event(&Event::Write {
            tid: Tid(1),
            addr: Addr(X),
            size: AccessSize::U32,
        });
        assert_eq!(det.state_of(Addr(X)), LocksetState::SharedModified);
    }

    #[test]
    fn free_resets_state() {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32)
            .write(0u32, X, AccessSize::U32)
            .free(0u32, X, 4)
            .write(1u32, X, AccessSize::U32);
        assert!(LockSetDetector::new().run(&b.build()).races.is_empty());
    }
}
