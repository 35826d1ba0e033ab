//! Address filtering: the `nonsharedread` fast-out of Fig. 3 and the
//! suppression rules of §V.C.
//!
//! The paper's tool does two kinds of filtering:
//!
//! * accesses to memory known not to be shared (each thread's stack) are
//!   dropped before any analysis — "if an instruction accesses non-shared
//!   memory (e.g., stack), the instrumentation routine returns
//!   immediately";
//! * races detected in suppressed modules (libc, ld) are removed from
//!   the report — "we applied the similar suppression rules as in DRD".
//!
//! [`AddressFilter`] expresses both as address-range sets, and
//! [`FilteredDetector`] wraps any detector with a skip-set (applied to
//! incoming access events) and a suppression-set (applied to outgoing
//! race reports).
//!
//! [`StaticPruneFilter`] is the third kind: it drops accesses the
//! ahead-of-time analysis (`dgrace-analysis`) proved race-free, using the
//! [`PruneSet`] compiled from an `AnalysisSummary` for this detector's
//! granularity. Unlike a skip-set, the prune set comes with a soundness
//! argument — dropping the accesses cannot change the detector's race
//! set — and the dropped count is carried in the report
//! (`stats.pruned`) so runs stay auditable.

use dgrace_trace::{
    Addr, Event, PruneSet, SnapshotLimits, SnapshotReader, SnapshotWriter, TraceError,
};

use crate::shard::sort_races;
use crate::{Detector, Report};

/// Magic prefix for the filter wrappers' snapshot envelope (mid-run
/// counter + inner detector blob).
const FILTER_MAGIC: [u8; 4] = *b"DGWF";
const FILTER_VERSION: u32 = 1;

/// Wraps one mid-run counter plus the inner detector's snapshot, so a
/// filtered/pruned run checkpoints and resumes byte-identically.
fn wrap_snapshot(counter: u64, inner: Option<Vec<u8>>) -> Option<Vec<u8>> {
    let inner = inner?;
    let mut w = SnapshotWriter::new(FILTER_MAGIC, FILTER_VERSION);
    w.u64(counter);
    w.blob(&inner);
    Some(w.finish())
}

/// Inverse of [`wrap_snapshot`]: returns `(counter, inner_bytes)`.
fn unwrap_snapshot(bytes: &[u8]) -> Result<(u64, Vec<u8>), String> {
    let fail = |e: TraceError| format!("filter snapshot: {e}");
    let mut r = SnapshotReader::new(
        bytes,
        FILTER_MAGIC,
        FILTER_VERSION,
        SnapshotLimits::default(),
    )
    .map_err(fail)?;
    let counter = r.u64().map_err(fail)?;
    let inner = r.blob().map_err(fail)?;
    r.expect_end().map_err(fail)?;
    Ok((counter, inner))
}

/// A set of half-open address ranges `[start, end)`.
#[derive(Clone, Debug, Default)]
pub struct AddressFilter {
    /// Sorted, disjoint ranges.
    ranges: Vec<(u64, u64)>,
}

impl AddressFilter {
    /// An empty filter (matches nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `[start, start+len)`, merging overlaps.
    pub fn add_range(&mut self, start: Addr, len: u64) -> &mut Self {
        if len == 0 {
            return self;
        }
        self.ranges.push((start.0, start.0.saturating_add(len)));
        self.normalize();
        self
    }

    fn normalize(&mut self) {
        self.ranges.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(self.ranges.len());
        for &(s, e) in &self.ranges {
            match merged.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }
        self.ranges = merged;
    }

    /// Does the filter contain `addr`?
    pub fn contains(&self, addr: Addr) -> bool {
        let i = self.ranges.partition_point(|&(s, _)| s <= addr.0);
        i > 0 && addr.0 < self.ranges[i - 1].1
    }

    /// Number of (merged) ranges.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Is the filter empty?
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }
}

/// Wraps a detector with access skipping and report suppression.
pub struct FilteredDetector<D> {
    inner: D,
    /// Accesses in these ranges never reach the detector (modeled thread
    /// stacks / known-private memory).
    pub skip: AddressFilter,
    /// Races at these locations are removed from the report (modeled
    /// libc/ld suppressions).
    pub suppress: AddressFilter,
    skipped: u64,
    suppressed: u64,
}

impl<D: Detector> FilteredDetector<D> {
    /// Wraps `inner` with empty filters.
    pub fn new(inner: D) -> Self {
        FilteredDetector {
            inner,
            skip: AddressFilter::new(),
            suppress: AddressFilter::new(),
            skipped: 0,
            suppressed: 0,
        }
    }

    /// Adds a skip range (builder style).
    pub fn skip_range(mut self, start: Addr, len: u64) -> Self {
        self.skip.add_range(start, len);
        self
    }

    /// Adds a suppression range (builder style).
    pub fn suppress_range(mut self, start: Addr, len: u64) -> Self {
        self.suppress.add_range(start, len);
        self
    }

    /// Accesses dropped by the skip filter so far.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// Races removed by the suppression filter in the last `finish`.
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }
}

impl<D: Detector> Detector for FilteredDetector<D> {
    fn name(&self) -> String {
        format!("{}+filtered", self.inner.name())
    }

    fn on_event(&mut self, ev: &Event) {
        if let Some((addr, _, _)) = ev.access() {
            if self.skip.contains(addr) {
                self.skipped += 1;
                return;
            }
        }
        self.inner.on_event(ev);
    }

    fn finish(&mut self) -> Report {
        let mut rep = self.inner.finish();
        let before = rep.races.len();
        rep.races.retain(|r| !self.suppress.contains(r.addr));
        self.suppressed = (before - rep.races.len()) as u64;
        rep.detector = self.name();
        self.skipped = 0;
        // Canonical order, so filtered reports compare byte-for-byte with
        // merged sharded reports regardless of configuration.
        sort_races(&mut rep.races);
        rep
    }

    // `races_so_far` is the inner detector's live view: suppressed
    // addresses are filtered only at finish(), so mid-run consumers may
    // see races finish() will drop; callers that need the filtered set
    // must use the final report.
    fn inner(&self) -> Option<&dyn Detector> {
        Some(&self.inner)
    }

    fn inner_mut(&mut self) -> Option<&mut dyn Detector> {
        Some(&mut self.inner)
    }

    fn snapshot(&self) -> Option<Vec<u8>> {
        wrap_snapshot(self.skipped, self.inner.snapshot())
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), String> {
        let (skipped, inner) = unwrap_snapshot(bytes)?;
        self.inner.restore(&inner)?;
        self.skipped = skipped;
        Ok(())
    }
}

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

    fn snapshot(&self) -> Option<Vec<u8>> {
        wrap_snapshot(self.pruned, self.inner.snapshot())
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), String> {
        let (pruned, inner) = unwrap_snapshot(bytes)?;
        self.inner.restore(&inner)?;
        self.pruned = pruned;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DetectorExt, FastTrack};
    use dgrace_trace::{AccessSize, TraceBuilder};

    #[test]
    fn ranges_merge_and_match() {
        let mut f = AddressFilter::new();
        f.add_range(Addr(100), 50).add_range(Addr(120), 100);
        assert_eq!(f.len(), 1, "overlapping ranges merge");
        assert!(f.contains(Addr(100)));
        assert!(f.contains(Addr(219)));
        assert!(!f.contains(Addr(220)));
        assert!(!f.contains(Addr(99)));
        f.add_range(Addr(1000), 8);
        assert_eq!(f.len(), 2);
        assert!(f.contains(Addr(1007)));
        assert!(!f.contains(Addr(1008)));
        assert!(AddressFilter::new().is_empty());
    }

    #[test]
    fn zero_length_range_ignored() {
        let mut f = AddressFilter::new();
        f.add_range(Addr(10), 0);
        assert!(f.is_empty());
        assert!(!f.contains(Addr(10)));
    }

    #[test]
    fn skip_prevents_detection_entirely() {
        // A racy pair inside the skip range is invisible — the paper's
        // stack-access fast-out.
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32)
            .write(0u32, 0x100u64, AccessSize::U32)
            .write(1u32, 0x100u64, AccessSize::U32)
            .write(0u32, 0x900u64, AccessSize::U32)
            .write(1u32, 0x900u64, AccessSize::U32);
        let trace = b.build();
        let mut det = FilteredDetector::new(FastTrack::new()).skip_range(Addr(0x100), 0x10);
        let rep = det.run(&trace);
        assert_eq!(rep.races.len(), 1, "only the unskipped race remains");
        assert_eq!(rep.races[0].addr, Addr(0x900));
        assert_eq!(rep.stats.accesses, 2, "skipped accesses never counted");
    }

    #[test]
    fn suppression_removes_reports_but_detection_ran() {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32)
            .write(0u32, 0x100u64, AccessSize::U32)
            .write(1u32, 0x100u64, AccessSize::U32)
            .write(0u32, 0x900u64, AccessSize::U32)
            .write(1u32, 0x900u64, AccessSize::U32);
        let trace = b.build();
        let mut det = FilteredDetector::new(FastTrack::new()).suppress_range(Addr(0x100), 0x10);
        let rep = det.run(&trace);
        assert_eq!(rep.races.len(), 1);
        assert_eq!(rep.races[0].addr, Addr(0x900));
        assert_eq!(det.suppressed(), 1);
        assert_eq!(rep.stats.accesses, 4, "suppression does not skip analysis");
        assert!(rep.detector.ends_with("+filtered"));
    }

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
