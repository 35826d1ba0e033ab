//! Static pruning: accesses the ahead-of-time analysis (`dgrace-analysis`)
//! proved race-free are dropped before they reach the detector.
//!
//! [`StaticPruneFilter`] uses the [`PruneSet`] compiled from an
//! `AnalysisSummary` for this detector's granularity. The prune set comes
//! with a soundness argument — dropping the accesses cannot change the
//! detector's race set — and the dropped count is carried in the report
//! (`stats.pruned`) so runs stay auditable.

use dgrace_trace::{Event, PruneSet, SnapshotReader, SnapshotWriter};

use crate::shard::sort_races;
use crate::snap::{Section, SectionError};
use crate::{Detector, Report};

/// Drops accesses a static analysis proved race-free before they reach
/// the wrapped detector.
///
/// The [`PruneSet`] must have been compiled (via
/// `AnalysisSummary::prune_set`) for this detector's shadow granularity
/// and neighbor-influence margin; the filter itself only evaluates the
/// per-access predicate. All non-access events pass through unchanged, so
/// the detector's happens-before state stays exact.
pub struct StaticPruneFilter<D> {
    inner: D,
    prune: PruneSet,
    pruned: u64,
}

impl<D: Detector> StaticPruneFilter<D> {
    /// Wraps `inner` with a compiled prune set.
    pub fn new(inner: D, prune: PruneSet) -> Self {
        StaticPruneFilter {
            inner,
            prune,
            pruned: 0,
        }
    }

    /// Accesses dropped so far in the current run.
    pub fn pruned(&self) -> u64 {
        self.pruned
    }
}

impl<D: Detector> Detector for StaticPruneFilter<D> {
    fn name(&self) -> String {
        format!("{}+pruned", self.inner.name())
    }

    fn on_event(&mut self, ev: &Event) {
        if let Some((addr, size, _)) = ev.access() {
            if self.prune.prunes(addr, size.bytes()) {
                self.pruned += 1;
                return;
            }
        }
        self.inner.on_event(ev);
    }

    fn finish(&mut self) -> Report {
        let mut rep = self.inner.finish();
        // `events` keeps counting everything that arrived at the filter;
        // `accesses` counts only what was actually checked, with the
        // difference recorded in `pruned`.
        rep.stats.events += self.pruned;
        rep.stats.pruned = self.pruned;
        rep.detector = self.name();
        self.pruned = 0;
        sort_races(&mut rep.races);
        rep
    }

    fn inner(&self) -> Option<&dyn Detector> {
        Some(&self.inner)
    }

    fn inner_mut(&mut self) -> Option<&mut dyn Detector> {
        Some(&mut self.inner)
    }

    fn write_section(&self, w: &mut SnapshotWriter) -> bool {
        Section::PruneFilter.write(w);
        w.u64(self.pruned);
        self.inner.write_section(w)
    }

    fn read_section(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SectionError> {
        Section::PruneFilter.read(r)?;
        let pruned = r.u64()?;
        self.inner.read_section(r)?;
        self.pruned = pruned;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DetectorExt, FastTrack};
    use dgrace_trace::{AccessSize, Addr, TraceBuilder};

    fn prune_set_over(ranges: &[(u64, u64)], granule: u64) -> PruneSet {
        use dgrace_trace::{AnalysisSummary, ClassifiedRange, LocationClass};
        let summary = AnalysisSummary {
            ranges: ranges
                .iter()
                .map(|&(start, len)| ClassifiedRange {
                    start: Addr(start),
                    len,
                    class: LocationClass::ThreadLocal,
                })
                .collect(),
            ..Default::default()
        };
        summary.prune_set(granule, 0)
    }

    #[test]
    fn prune_filter_drops_and_counts() {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32)
            .write(0u32, 0x100u64, AccessSize::U32) // pruned
            .write(0u32, 0x900u64, AccessSize::U32) // racy, kept
            .write(1u32, 0x900u64, AccessSize::U32);
        let trace = b.build();
        let prune = prune_set_over(&[(0x100, 0x10)], 1);
        let mut det = StaticPruneFilter::new(FastTrack::new(), prune);
        let rep = det.run(&trace);
        assert_eq!(rep.races.len(), 1);
        assert_eq!(rep.races[0].addr, Addr(0x900));
        assert_eq!(rep.stats.pruned, 1);
        assert_eq!(rep.stats.accesses, 2, "only checked accesses counted");
        assert_eq!(
            rep.stats.events,
            trace.len() as u64,
            "events include pruned"
        );
        assert!(rep.detector.ends_with("+pruned"));
    }

    #[test]
    fn empty_prune_set_is_identity() {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32)
            .write(0u32, 0x100u64, AccessSize::U32)
            .write(1u32, 0x100u64, AccessSize::U32);
        let trace = b.build();
        let bare = FastTrack::new().run(&trace);
        let rep = StaticPruneFilter::new(FastTrack::new(), PruneSet::empty()).run(&trace);
        assert_eq!(rep.stats.pruned, 0);
        assert_eq!(rep.races.len(), bare.races.len());
        assert_eq!(rep.stats.accesses, bare.stats.accesses);
    }

    #[test]
    fn prune_filter_respects_granularity() {
        // Prunable bytes only partially cover the detector's granule:
        // nothing may be pruned at word granularity.
        use crate::Granularity;
        let prune4 = prune_set_over(&[(0x102, 2)], 4);
        assert!(prune4.is_empty());
        let mut det =
            StaticPruneFilter::new(FastTrack::with_granularity(Granularity::Word), prune4);
        let mut b = TraceBuilder::new();
        b.write(0u32, 0x102u64, AccessSize::U16);
        let rep = det.run(&b.build());
        assert_eq!(rep.stats.pruned, 0);
        assert_eq!(rep.stats.accesses, 1);
    }

    #[test]
    fn prune_filter_works_boxed() {
        let prune = prune_set_over(&[(0x100, 0x10)], 1);
        let boxed: Box<dyn Detector> = Box::new(FastTrack::new());
        let mut det = StaticPruneFilter::new(boxed, prune);
        let mut b = TraceBuilder::new();
        b.write(0u32, 0x100u64, AccessSize::U32);
        let rep = det.run(&b.build());
        assert_eq!(rep.stats.pruned, 1);
        assert_eq!(rep.stats.accesses, 0);
    }
}
