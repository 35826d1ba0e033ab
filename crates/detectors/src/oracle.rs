//! An exact first-race oracle.
//!
//! Keeps the *entire* access history of every location (as epochs) and, on
//! each access, compares against every recorded prior access. This is the
//! textbook quadratic happens-before detector: too expensive for real use,
//! but an unimpeachable ground truth for property-testing FastTrack, DJIT+
//! and the dynamic-granularity detector.
//!
//! Key soundness fact used here: for two accesses `a` (earlier, by thread
//! `u` at clock `c`) and `b` (later, by thread `t`), `a happens-before b`
//! iff `c ≤ T_t[u]` at the time of `b`. So storing the epoch of every
//! access suffices for an exact answer.

use std::collections::HashMap;

use dgrace_trace::{Addr, Event};
use dgrace_vc::{Epoch, Tid};

use crate::{AccessKind, Detector, Granularity, HbState, RaceKind, RaceReport, Report};

#[derive(Clone, Debug, Default)]
struct History {
    reads: Vec<Epoch>,
    writes: Vec<Epoch>,
    raced: bool,
}

/// The exact oracle detector. Reports the first race for each location,
/// like every detector in the paper.
#[derive(Debug, Default)]
pub struct OracleDetector {
    granularity: Granularity,
    hb: HbState,
    history: HashMap<Addr, History>,
    races: Vec<RaceReport>,
    events: u64,
    accesses: u64,
    event_index: u64,
}

impl OracleDetector {
    /// Byte-granularity oracle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Oracle at a fixed granularity (for comparing with masked detectors).
    pub fn with_granularity(granularity: Granularity) -> Self {
        OracleDetector {
            granularity,
            ..Default::default()
        }
    }

    fn on_access(&mut self, tid: Tid, addr: Addr, kind: AccessKind) {
        self.accesses += 1;
        let loc = self.granularity.locate(addr);
        let my_epoch = self.hb.epoch(tid); // materializes `tid`
        let now = self.hb.now(tid);
        let hist = self.history.entry(loc).or_default();

        if !hist.raced {
            // Writes race with any concurrent prior access; reads race
            // only with concurrent prior writes.
            let conflicting: Box<dyn Iterator<Item = (&Epoch, RaceKind)>> = match kind {
                AccessKind::Read => Box::new(hist.writes.iter().map(|e| (e, RaceKind::WriteRead))),
                AccessKind::Write => Box::new(
                    hist.writes
                        .iter()
                        .map(|e| (e, RaceKind::WriteWrite))
                        .chain(hist.reads.iter().map(|e| (e, RaceKind::ReadWrite))),
                ),
            };
            let mut found: Option<(RaceKind, Epoch)> = None;
            for (e, k) in conflicting {
                if !e.leq(now) {
                    found = Some((k, *e));
                    break;
                }
            }
            if let Some((kind, previous)) = found {
                hist.raced = true;
                self.races.push(RaceReport {
                    addr: loc,
                    kind,
                    current: my_epoch,
                    previous,
                    event_index: Some(self.event_index),
                    share_count: 1,
                    tainted: false,
                });
            }
        }

        let list = match kind {
            AccessKind::Read => &mut hist.reads,
            AccessKind::Write => &mut hist.writes,
        };
        if !list.contains(&my_epoch) {
            list.push(my_epoch);
        }
    }
}

impl Detector for OracleDetector {
    fn name(&self) -> String {
        format!("oracle-{}", self.granularity.label())
    }

    fn on_event(&mut self, ev: &Event) {
        self.events += 1;
        match *ev {
            Event::Read { tid, addr, .. } => self.on_access(tid, addr, AccessKind::Read),
            Event::Write { tid, addr, .. } => self.on_access(tid, addr, AccessKind::Write),
            Event::Free { addr, size, .. } => {
                self.history
                    .retain(|a, _| a.0 < addr.0 || a.0 >= addr.0 + size);
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
        *self = OracleDetector::with_granularity(self.granularity);
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DetectorExt;
    use dgrace_trace::{AccessSize, TraceBuilder};

    const X: u64 = 0x2000;

    #[test]
    fn detects_basic_races() {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32)
            .write(0u32, X, AccessSize::U32)
            .write(1u32, X, AccessSize::U32);
        let rep = OracleDetector::new().run(&b.build());
        assert_eq!(rep.races.len(), 1);
        assert_eq!(rep.races[0].kind, RaceKind::WriteWrite);
    }

    #[test]
    fn no_false_positive_with_locks() {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32);
        for t in [0u32, 1u32, 0u32, 1u32] {
            b.locked(t, 0u32, |b| {
                b.read(t, X, AccessSize::U32).write(t, X, AccessSize::U32);
            });
        }
        assert!(OracleDetector::new().run(&b.build()).races.is_empty());
    }

    /// The oracle catches a race that pure last-access trackers could
    /// miss: an *older* write races with a read even when the most recent
    /// write is ordered.
    #[test]
    fn races_with_non_last_access() {
        let mut b = TraceBuilder::new();
        // T0 writes x (epoch 2 after fork tick).
        // T1 writes x racily? No: we want T1's read to race with T0's
        // FIRST write while a second, synchronized write is the last one.
        b.fork(0u32, 1u32)
            .write(0u32, X, AccessSize::U32) // w1, unordered w.r.t. T1
            .write(0u32, X, AccessSize::U32) // same epoch; dedup'd
            .release(0u32, 1u32)
            .acquire(1u32, 1u32)
            .read(1u32, X, AccessSize::U32); // ordered after both writes
        assert!(OracleDetector::new().run(&b.build()).races.is_empty());

        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32)
            .write(0u32, X, AccessSize::U32) // w1 at T0 epoch 2
            .release(0u32, 1u32) // T0 → epoch 3
            .write(0u32, X, AccessSize::U32) // w2 at epoch 3
            .read(1u32, X, AccessSize::U32); // races with both; first wins
        let rep = OracleDetector::new().run(&b.build());
        assert_eq!(rep.races.len(), 1);
        assert_eq!(rep.races[0].kind, RaceKind::WriteRead);
    }

    #[test]
    fn first_race_per_location_only() {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32)
            .write(0u32, X, AccessSize::U32)
            .write(1u32, X, AccessSize::U32)
            .read(1u32, X, AccessSize::U32)
            .write(0u32, X, AccessSize::U32);
        assert_eq!(OracleDetector::new().run(&b.build()).races.len(), 1);
    }

    #[test]
    fn free_clears_history() {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32)
            .write(0u32, X, AccessSize::U32)
            .free(0u32, X, 4)
            .release(0u32, 3u32)
            .acquire(1u32, 3u32)
            .write(1u32, X, AccessSize::U32);
        assert!(OracleDetector::new().run(&b.build()).races.is_empty());
    }
}
