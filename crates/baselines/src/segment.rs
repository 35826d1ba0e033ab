//! The segment-comparison detector (RecPlay / Valgrind DRD class).

use std::collections::HashSet;

use dgrace_detectors::{AccessKind, Detector, HbState, RaceKind, RaceReport, Report};
use dgrace_shadow::{MemClass, MemoryModel};
use dgrace_trace::{Addr, Event};
use dgrace_vc::{Epoch, Tid, VectorClock};

/// One segment: the accesses a thread performed between two successive
/// synchronization operations, plus the vector clock identifying the
/// segment's position in the happens-before order.
#[derive(Clone, Debug)]
struct Segment {
    tid: Tid,
    /// The owning thread's clock for the duration of the segment.
    vc: VectorClock,
    /// The thread's own epoch during this segment.
    epoch: Epoch,
    reads: HashSet<Addr>,
    writes: HashSet<Addr>,
}

impl Segment {
    fn new(tid: Tid, vc: VectorClock) -> Self {
        let epoch = Epoch::new(vc.get(tid), tid);
        Segment {
            tid,
            vc,
            epoch,
            reads: HashSet::new(),
            writes: HashSet::new(),
        }
    }

    /// Modeled bytes: header + VC payload + one byte per recorded
    /// address (bitmap-style storage, as in DRD).
    fn bytes(&self) -> usize {
        48 + self.vc.payload_bytes() + self.reads.len() + self.writes.len()
    }

    fn is_empty(&self) -> bool {
        self.reads.is_empty() && self.writes.is_empty()
    }
}

/// The first happens-before method of §I: "a segment is defined as a code
/// block between two successive synchronization operations and shared
/// memory accesses are collected in a bitmap for each segment ... If two
/// concurrent segments contain [conflicting] shared memory accesses, the
/// accesses are reported as data races."
///
/// This is the algorithm class of Valgrind DRD. It keeps **no**
/// per-location vector clocks — memory scales with the number of live
/// segments — but every access must be checked against the bitmaps of all
/// concurrent segments, which costs time.
#[derive(Debug, Default)]
pub struct SegmentDetector {
    hb: HbState,
    current: Vec<Option<Segment>>,
    finished: Vec<Segment>,
    /// Threads that may still perform accesses (forked or implicit main,
    /// not yet joined); only their knowledge matters for segment GC.
    alive: HashSet<Tid>,
    raced: HashSet<Addr>,
    races: Vec<RaceReport>,
    model: MemoryModel,
    events: u64,
    accesses: u64,
    same_epoch: u64,
    event_index: u64,
    /// Accumulated bytes of current+finished segments (kept incrementally
    /// where cheap; recomputed on segment retirement).
    seg_bytes: usize,
}

impl SegmentDetector {
    /// Creates a segment detector.
    pub fn new() -> Self {
        Self::default()
    }

    fn current_mut(&mut self, t: Tid) -> &mut Segment {
        let i = t.index();
        if i >= self.current.len() {
            self.current.resize_with(i + 1, || None);
        }
        if self.current[i].is_none() {
            let vc = self.hb.clock(t).clone();
            self.current[i] = Some(Segment::new(t, vc));
        }
        self.current[i].as_mut().expect("just created")
    }

    fn on_access(&mut self, tid: Tid, addr: Addr, kind: AccessKind) {
        self.accesses += 1;
        // Segment-local filter: an address already recorded in the
        // current segment needs no re-checking (same-epoch analog).
        {
            let seg = self.current_mut(tid);
            let seen = match kind {
                AccessKind::Read => seg.reads.contains(&addr) || seg.writes.contains(&addr),
                AccessKind::Write => seg.writes.contains(&addr),
            };
            if seen {
                self.same_epoch += 1;
                return;
            }
        }

        let my_epoch = self.hb.epoch(tid); // materializes `tid`
        let now = self.hb.now(tid);

        // Check against every concurrent segment of another thread.
        if !self.raced.contains(&addr) {
            let mut witness: Option<(RaceKind, Epoch)> = None;
            let iter = self.finished.iter().chain(self.current.iter().flatten());
            for seg in iter {
                if seg.tid == tid {
                    continue;
                }
                // seg happens-before us iff its clock is known to us.
                if seg.epoch.clock <= now.get(seg.tid) {
                    continue;
                }
                let conflict = match kind {
                    AccessKind::Read => seg.writes.contains(&addr).then_some(RaceKind::WriteRead),
                    AccessKind::Write => {
                        if seg.writes.contains(&addr) {
                            Some(RaceKind::WriteWrite)
                        } else if seg.reads.contains(&addr) {
                            Some(RaceKind::ReadWrite)
                        } else {
                            None
                        }
                    }
                };
                if let Some(k) = conflict {
                    witness = Some((k, seg.epoch));
                    break;
                }
            }
            if let Some((k, previous)) = witness {
                self.raced.insert(addr);
                self.races.push(RaceReport {
                    addr,
                    kind: k,
                    current: my_epoch,
                    previous,
                    event_index: Some(self.event_index),
                    share_count: 1,
                    tainted: false,
                });
            }
        }

        let seg = self.current_mut(tid);
        match kind {
            AccessKind::Read => seg.reads.insert(addr),
            AccessKind::Write => seg.writes.insert(addr),
        };
        self.seg_bytes += 1;
        self.update_model();
    }

    /// Ends the current segments of every thread whose clock advanced.
    fn retire_segments(&mut self, ev: &Event) {
        let ended: &[Tid] = match *ev {
            Event::Acquire { tid, .. }
            | Event::Release { tid, .. }
            | Event::AcquireRead { tid, .. }
            | Event::ReleaseRead { tid, .. }
            | Event::CvSignal { tid, .. }
            | Event::CvWait { tid, .. }
            | Event::BarrierArrive { tid, .. }
            | Event::BarrierDepart { tid, .. } => &[tid],
            Event::Fork { parent, child } => &[parent, child],
            Event::Join { parent, child } => &[parent, child],
            _ => &[],
        };
        for &t in ended {
            if let Some(seg) = self.current.get_mut(t.index()).and_then(Option::take) {
                if !seg.is_empty() {
                    self.finished.push(seg);
                }
            }
        }
        self.gc();
        self.recount_bytes();
    }

    /// Drops finished segments whose epoch is already known to every
    /// alive thread — they can never again participate in a race
    /// ("merging segments" / segment discarding, the optimization of
    /// [21, 22]).
    fn gc(&mut self) {
        let alive: Vec<Tid> = self.alive.iter().copied().collect();
        if alive.is_empty() {
            return;
        }
        let mut lower: Option<VectorClock> = None;
        for t in alive {
            let vc = self.hb.clock(t).clone();
            lower = Some(match lower {
                None => vc,
                Some(prev) => {
                    // Element-wise minimum.
                    let width = prev.width().max(vc.width());
                    let mut min = VectorClock::new();
                    for i in 0..width {
                        let ti = Tid::from(i);
                        min.set(ti, prev.get(ti).min(vc.get(ti)));
                    }
                    min
                }
            });
        }
        let lower = lower.expect("nonempty alive set");
        self.finished
            .retain(|seg| seg.epoch.clock > lower.get(seg.tid));
    }

    fn recount_bytes(&mut self) {
        self.seg_bytes = self
            .finished
            .iter()
            .chain(self.current.iter().flatten())
            .map(Segment::bytes)
            .sum();
        self.update_model();
    }

    fn update_model(&mut self) {
        // Segment bitmaps are this detector's dominant cost; its "vector
        // clock" budget is one VC per live segment (already included in
        // Segment::bytes, reported under Bitmap for Table 6's memory
        // column; Hash stays zero — there is no per-location index).
        self.model.set(MemClass::Bitmap, self.seg_bytes);
        self.model
            .set_vc_count(self.finished.len() + self.current.iter().flatten().count());
    }
}

impl Detector for SegmentDetector {
    fn name(&self) -> String {
        "segment-drd".to_string()
    }

    fn on_event(&mut self, ev: &Event) {
        self.events += 1;
        self.alive.insert(ev.tid());
        if let Event::Fork { child, .. } = *ev {
            self.alive.insert(child);
        }
        if let Event::Join { child, .. } = *ev {
            self.alive.remove(&child);
        }
        match *ev {
            Event::Read { tid, addr, .. } => self.on_access(tid, addr, AccessKind::Read),
            Event::Write { tid, addr, .. } => self.on_access(tid, addr, AccessKind::Write),
            Event::Free { addr, size, .. } => {
                for seg in self
                    .finished
                    .iter_mut()
                    .chain(self.current.iter_mut().flatten())
                {
                    seg.reads.retain(|a| a.0 < addr.0 || a.0 >= addr.0 + size);
                    seg.writes.retain(|a| a.0 < addr.0 || a.0 >= addr.0 + size);
                }
                self.recount_bytes();
            }
            Event::Alloc { .. } => {}
            _ => {
                self.hb.on_sync(ev);
                self.retire_segments(ev);
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
        rep.stats.peak_bitmap_bytes = self.model.peak(MemClass::Bitmap);
        rep.stats.peak_total_bytes = self.model.peak_total();
        *self = SegmentDetector::default();
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgrace_detectors::{DetectorExt, FastTrack};
    use dgrace_trace::{AccessSize, TraceBuilder};

    const X: u64 = 0x3000;

    #[test]
    fn detects_write_write_race() {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32)
            .write(0u32, X, AccessSize::U32)
            .write(1u32, X, AccessSize::U32);
        let rep = SegmentDetector::new().run(&b.build());
        assert_eq!(rep.races.len(), 1);
        assert_eq!(rep.races[0].kind, RaceKind::WriteWrite);
    }

    #[test]
    fn lock_discipline_is_race_free() {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32);
        for t in [0u32, 1u32, 0u32, 1u32] {
            b.locked(t, 0u32, |b| {
                b.read(t, X, AccessSize::U32).write(t, X, AccessSize::U32);
            });
        }
        assert!(SegmentDetector::new().run(&b.build()).races.is_empty());
    }

    #[test]
    fn racy_read_against_finished_segment() {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32)
            .write(0u32, X, AccessSize::U32)
            // T0 syncs with a third party; its write segment is finished
            // but still concurrent with T1.
            .release(0u32, 5u32)
            .read(1u32, X, AccessSize::U32);
        let rep = SegmentDetector::new().run(&b.build());
        assert_eq!(rep.races.len(), 1);
        assert_eq!(rep.races[0].kind, RaceKind::WriteRead);
    }

    #[test]
    fn agrees_with_fasttrack_on_location_sets() {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32)
            .write(0u32, X, AccessSize::U32)
            .write(1u32, X, AccessSize::U32)
            .locked(0u32, 0u32, |t| {
                t.write(0u32, X + 64, AccessSize::U32);
            })
            .locked(1u32, 0u32, |t| {
                t.read(1u32, X + 64, AccessSize::U32);
            })
            .read(0u32, X + 128, AccessSize::U32)
            .write(1u32, X + 128, AccessSize::U32);
        let trace = b.build();
        let seg = SegmentDetector::new().run(&trace);
        let ft = FastTrack::new().run(&trace);
        assert_eq!(seg.race_addrs(), ft.race_addrs());
    }

    #[test]
    fn gc_discards_ordered_segments() {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32);
        // Tight lock-step synchronization: segments must not accumulate.
        for _ in 0..50 {
            b.locked(0u32, 0u32, |t| {
                t.write(0u32, X, AccessSize::U32);
            });
            b.locked(1u32, 0u32, |t| {
                t.write(1u32, X, AccessSize::U32);
            });
        }
        let rep = SegmentDetector::new().run(&b.build());
        assert!(rep.races.is_empty());
        // Peak segment count stays small thanks to GC.
        assert!(
            rep.stats.peak_vc_count < 20,
            "peak segments = {}",
            rep.stats.peak_vc_count
        );
    }

    #[test]
    fn no_per_location_hash_cost() {
        let mut b = TraceBuilder::new();
        b.write_block(0u32, X, 1024, AccessSize::U32);
        let rep = SegmentDetector::new().run(&b.build());
        assert_eq!(rep.stats.peak_hash_bytes, 0);
        assert!(rep.stats.peak_bitmap_bytes > 0);
    }

    #[test]
    fn free_purges_addresses() {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32)
            .write(0u32, X, AccessSize::U32)
            .free(0u32, X, 4)
            .write(1u32, X, AccessSize::U32);
        assert!(SegmentDetector::new().run(&b.build()).races.is_empty());
    }
}
