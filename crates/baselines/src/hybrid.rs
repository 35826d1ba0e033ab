//! A hybrid lockset + happens-before detector (Intel Inspector XE class).

use std::collections::{HashMap, HashSet};

use dgrace_detectors::{AccessKind, Detector, HbState, RaceKind, RaceReport, Report};
use dgrace_shadow::{MemClass, MemoryModel};
use dgrace_trace::{Addr, Event, LockId};
use dgrace_vc::{ClockValue, Epoch, Tid, VectorClock};

#[derive(Clone, Debug, Default)]
struct LocEntry {
    /// Full per-thread read history (DJIT+-style: heavier than epochs).
    reads: VectorClock,
    /// Full per-thread write history.
    writes: VectorClock,
    /// Candidate lockset (for classification, Eraser-style).
    lockset: HashSet<LockId>,
    lockset_valid: bool,
    /// Reported racing pairs `(prev_tid, cur_tid, is_prev_write)` — the
    /// stand-in for Inspector's instruction-pointer/timeline keying,
    /// which can report the same location several times.
    reported: Vec<(Tid, Tid, bool)>,
}

impl LocEntry {
    /// The same-epoch filter: thread `tid` already made this access in
    /// its current epoch `c` (a write also covers the epoch's reads).
    fn covers(&self, kind: AccessKind, tid: Tid, c: ClockValue) -> bool {
        self.writes.get(tid) == c || kind == AccessKind::Read && self.reads.get(tid) == c
    }

    fn bytes(&self) -> usize {
        // Two full VCs, a lockset, and the report key list: the heavy
        // footprint that gives Inspector its ~2.8× memory vs dynamic.
        64 + self.reads.payload_bytes()
            + self.writes.payload_bytes()
            + self.lockset.len() * 4
            + self.reported.len() * 12
    }
}

/// A hybrid detector in the mold the paper attributes to industrial
/// tools (§VI): happens-before race checks, with Eraser-style locksets
/// maintained for classification, full per-location vector clocks, and
/// race keying by *access pair* rather than by location.
///
/// Compared with FastTrack-dynamic it is slower (full-VC comparisons) and
/// heavier (full VCs + locksets per location) but equally precise on
/// actually-occurring races — matching Table 6's observed shape for
/// Inspector XE.
#[derive(Debug, Default)]
pub struct HybridDetector {
    hb: HbState,
    held: HashMap<Tid, HashSet<LockId>>,
    table: HashMap<Addr, LocEntry>,
    races: Vec<RaceReport>,
    model: MemoryModel,
    loc_bytes: usize,
    events: u64,
    accesses: u64,
    same_epoch: u64,
    event_index: u64,
}

impl HybridDetector {
    /// Creates a hybrid detector.
    pub fn new() -> Self {
        Self::default()
    }

    fn on_access(&mut self, tid: Tid, addr: Addr, kind: AccessKind) {
        self.accesses += 1;
        let now = self.hb.clock(tid);
        let my_epoch = Epoch::new(now.get(tid), tid);
        if self
            .table
            .get(&addr)
            .is_some_and(|e| e.covers(kind, tid, my_epoch.clock))
        {
            self.same_epoch += 1;
            return;
        }
        let held = self.held.entry(tid).or_default();

        let is_new = !self.table.contains_key(&addr);
        let entry = self.table.entry(addr).or_default();
        let before = if is_new { 0 } else { entry.bytes() };

        // Lockset refinement (classification metadata).
        if !entry.lockset_valid {
            entry.lockset = held.clone();
            entry.lockset_valid = true;
        } else {
            entry.lockset.retain(|l| held.contains(l));
        }

        // Happens-before race checks against the *full* histories; every
        // new racing pair is reported (not only the first per location).
        let mut new_races = Vec::new();
        {
            let mut check = |hist: &VectorClock, prev_is_write: bool| {
                for (t, c) in hist.iter() {
                    if t == tid || c <= now.get(t) {
                        continue;
                    }
                    let key = (t, tid, prev_is_write);
                    if entry.reported.contains(&key) {
                        continue;
                    }
                    entry.reported.push(key);
                    let race_kind = match (prev_is_write, kind) {
                        (true, AccessKind::Read) => RaceKind::WriteRead,
                        (true, AccessKind::Write) => RaceKind::WriteWrite,
                        (false, AccessKind::Write) => RaceKind::ReadWrite,
                        (false, AccessKind::Read) => continue,
                    };
                    new_races.push(RaceReport {
                        addr,
                        kind: race_kind,
                        current: my_epoch,
                        previous: Epoch::new(c, t),
                        event_index: None,
                        share_count: 1,
                        tainted: false,
                    });
                }
            };
            check(&entry.writes.clone(), true);
            if kind == AccessKind::Write {
                check(&entry.reads.clone(), false);
            }
        }
        for mut r in new_races {
            r.event_index = Some(self.event_index);
            self.races.push(r);
        }

        match kind {
            AccessKind::Read => entry.reads.set(tid, my_epoch.clock),
            AccessKind::Write => entry.writes.set(tid, my_epoch.clock),
        }
        let after = entry.bytes();
        self.loc_bytes = self.loc_bytes + after - before;
        self.update_model();
    }

    fn update_model(&mut self) {
        self.model.set(MemClass::VectorClock, self.loc_bytes);
        self.model.set_vc_count(self.table.len() * 2);
    }
}

impl Detector for HybridDetector {
    fn name(&self) -> String {
        "hybrid-inspector".to_string()
    }

    fn on_event(&mut self, ev: &Event) {
        self.events += 1;
        match *ev {
            Event::Read { tid, addr, .. } => self.on_access(tid, addr, AccessKind::Read),
            Event::Write { tid, addr, .. } => self.on_access(tid, addr, AccessKind::Write),
            Event::Acquire { tid, lock } => {
                self.held.entry(tid).or_default().insert(lock);
                self.hb.on_sync(ev);
            }
            Event::Release { tid, lock } => {
                self.held.entry(tid).or_default().remove(&lock);
                self.hb.on_sync(ev);
            }
            Event::Free { addr, size, .. } => {
                let mut freed = 0usize;
                self.table.retain(|a, e| {
                    let keep = a.0 < addr.0 || a.0 >= addr.0 + size;
                    if !keep {
                        freed += e.bytes();
                    }
                    keep
                });
                self.loc_bytes -= freed;
                self.update_model();
            }
            Event::Alloc { .. } => {}
            _ => {
                self.hb.on_sync(ev);
            }
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
        rep.stats.same_epoch = self.same_epoch;
        rep.stats.peak_vc_count = self.model.peak_vc_count();
        rep.stats.peak_vc_bytes = self.model.peak(MemClass::VectorClock);
        rep.stats.peak_total_bytes = self.model.peak_total();
        *self = HybridDetector::default();
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgrace_detectors::{DetectorExt, FastTrack};
    use dgrace_trace::{AccessSize, TraceBuilder};

    const X: u64 = 0x5000;

    #[test]
    fn detects_races_like_fasttrack() {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32)
            .write(0u32, X, AccessSize::U32)
            .write(1u32, X, AccessSize::U32)
            .locked(0u32, 0u32, |t| {
                t.write(0u32, X + 8, AccessSize::U32);
            })
            .locked(1u32, 0u32, |t| {
                t.read(1u32, X + 8, AccessSize::U32);
            });
        let trace = b.build();
        let hy = HybridDetector::new().run(&trace);
        let ft = FastTrack::new().run(&trace);
        assert_eq!(hy.race_addrs(), ft.race_addrs());
    }

    #[test]
    fn no_false_alarm_on_fork_join() {
        // Unlike pure LockSet, the happens-before component understands
        // fork/join ordering.
        let mut b = TraceBuilder::new();
        b.write(0u32, X, AccessSize::U32)
            .fork(0u32, 1u32)
            .write(1u32, X, AccessSize::U32)
            .join(0u32, 1u32)
            .write(0u32, X, AccessSize::U32);
        assert!(HybridDetector::new().run(&b.build()).races.is_empty());
    }

    #[test]
    fn may_report_same_location_multiple_times() {
        // Three threads race pairwise on one location: pair keying
        // reports more than one race for the address (Inspector's
        // multi-report behaviour).
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32)
            .fork(0u32, 2u32)
            .write(1u32, X, AccessSize::U32)
            .write(2u32, X, AccessSize::U32)
            .release(1u32, 7u32)
            .write(1u32, X, AccessSize::U32);
        let rep = HybridDetector::new().run(&b.build());
        assert!(
            rep.races.len() >= 2,
            "pair keying should report multiple races: {:?}",
            rep.races
        );
        assert!(rep.races.iter().all(|r| r.addr == Addr(X)));
    }

    #[test]
    fn heavier_memory_than_fasttrack() {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32);
        // Many locations accessed by both threads under a lock.
        for i in 0..64u64 {
            b.locked(0u32, 0u32, |t| {
                t.write(0u32, X + i * 4, AccessSize::U32);
            });
            b.locked(1u32, 0u32, |t| {
                t.read(1u32, X + i * 4, AccessSize::U32);
            });
        }
        let trace = b.build();
        let hy = HybridDetector::new().run(&trace);
        let ft = FastTrack::new().run(&trace);
        assert!(hy.races.is_empty());
        assert!(
            hy.stats.peak_vc_bytes > ft.stats.peak_vc_bytes,
            "hybrid {} vs fasttrack {}",
            hy.stats.peak_vc_bytes,
            ft.stats.peak_vc_bytes
        );
    }

    #[test]
    fn lockset_metadata_maintained() {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32);
        for t in [0u32, 1u32] {
            b.locked(t, 3u32, |bb| {
                bb.write(t, X, AccessSize::U32);
            });
        }
        let mut det = HybridDetector::new();
        for ev in b.build().iter() {
            det.on_event(ev);
        }
        let entry = det.table.get(&Addr(X)).unwrap();
        assert!(entry.lockset.contains(&LockId(3)));
    }
}
