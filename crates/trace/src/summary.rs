//! The [`AnalysisSummary`] artifact: per-location classifications produced
//! by the ahead-of-time trace analysis (`dgrace-analysis`), consumed by
//! the detectors' static prune filter and the runtime's warm-start mode.
//!
//! The summary lives in this crate — the bottom of the dependency graph —
//! because every layer touches it: the analyzer emits it, `io` serializes
//! it (`DGAS` format), `dgrace-detectors::StaticPruneFilter` skips
//! accesses it proves race-free, and `dgrace-runtime` installs it into
//! the sharded engine's push fast path.
//!
//! A classification applies to a *byte range* of the traced address
//! space. The three prunable classes each carry a soundness argument
//! (spelled out in DESIGN.md §10) of the same shape: **every conflicting
//! access pair at a prunable byte is ordered by happens-before**, so no
//! HB-based detector can report a race there, and skipping those accesses
//! cannot change any HB detector's race set — provided granularity
//! effects are compensated, which is [`PruneSet`]'s job.

use crate::{Addr, Event, LockId, Trace};

/// What the analysis proved about one byte range.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LocationClass {
    /// All accesses are totally ordered by fork/join edges alone (this
    /// includes plain single-thread ownership and ownership hand-offs
    /// across fork or join).
    ThreadLocal,
    /// Every write happened while the writer was the only live thread;
    /// all later traffic is reads.
    ReadOnlyAfterInit,
    /// Every access held all locks in `lockset` (strict intersection over
    /// the whole trace, never relaxed by an Eraser-style state machine).
    ConsistentlyLocked {
        /// The common exclusively-held locks, sorted.
        lockset: Vec<LockId>,
    },
    /// None of the proofs applied; the dynamic detector must check it.
    Contended,
}

impl LocationClass {
    /// Whether accesses of this class can be dropped before HB detection.
    pub fn is_prunable(&self) -> bool {
        !matches!(self, LocationClass::Contended)
    }

    /// Stable display label (also used by the CLI table).
    pub fn label(&self) -> &'static str {
        match self {
            LocationClass::ThreadLocal => "thread-local",
            LocationClass::ReadOnlyAfterInit => "read-only",
            LocationClass::ConsistentlyLocked { .. } => "locked",
            LocationClass::Contended => "contended",
        }
    }
}

/// One classified byte range `[start, start+len)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClassifiedRange {
    /// First byte of the range.
    pub start: Addr,
    /// Length in bytes (never zero).
    pub len: u64,
    /// The proof class covering every byte of the range.
    pub class: LocationClass,
}

impl ClassifiedRange {
    /// One past the last byte.
    pub fn end(&self) -> u64 {
        self.start.0 + self.len
    }
}

/// Byte/access tallies for one classification.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassCounts {
    /// Distinct bytes classified this way.
    pub bytes: u64,
    /// Trace accesses that landed on such bytes.
    pub accesses: u64,
}

/// Aggregate prune statistics — the auditable side of the summary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SummaryStats {
    /// Fork/join-ordered locations.
    pub thread_local: ClassCounts,
    /// Read-only-after-initialization locations.
    pub read_only: ClassCounts,
    /// Consistently lock-protected locations.
    pub locked: ClassCounts,
    /// Everything the passes could not prove race-free.
    pub contended: ClassCounts,
}

impl SummaryStats {
    /// Accesses at provably race-free locations.
    pub fn prunable_accesses(&self) -> u64 {
        self.thread_local.accesses + self.read_only.accesses + self.locked.accesses
    }

    /// All classified accesses.
    pub fn total_accesses(&self) -> u64 {
        self.prunable_accesses() + self.contended.accesses
    }

    /// Fraction of accesses at prunable locations (0 when no accesses).
    pub fn prunable_fraction(&self) -> f64 {
        let total = self.total_accesses();
        if total == 0 {
            0.0
        } else {
            self.prunable_accesses() as f64 / total as f64
        }
    }
}

/// Format version of the serialized summary (`DGAS` container).
///
/// Version 2 adds the trace fingerprint and the planning sections
/// (affinity map, analysis warnings, heat histogram). Version-1 files are
/// still read: they decode with a zero fingerprint and empty sections.
pub const SUMMARY_VERSION: u32 = 2;

/// Deterministic content fingerprint of a trace (FNV-1a over every event
/// field, then the event count), folded in as the events stream past.
/// Binds an [`AnalysisSummary`] to the exact trace it was computed from:
/// `detect --prune-with`/`--plan-with` reject a summary whose fingerprint
/// disagrees with the trace being detected.
pub struct Fingerprint {
    h: u64,
    events: u64,
}

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

impl Fingerprint {
    /// The fingerprint of no events yet.
    pub fn new() -> Self {
        Fingerprint {
            h: 0xcbf2_9ce4_8422_2325,
            events: 0,
        }
    }

    fn fold(&mut self, v: u64) {
        const PRIME: u64 = 0x100_0000_01b3;
        for byte in v.to_le_bytes() {
            self.h ^= byte as u64;
            self.h = self.h.wrapping_mul(PRIME);
        }
    }

    /// Folds in the next events of the trace.
    pub fn update(&mut self, events: &[Event]) {
        self.events += events.len() as u64;
        for ev in events {
            self.event(ev);
        }
    }

    fn event(&mut self, ev: &Event) {
        let mut fold = |v| self.fold(v);
        match *ev {
            Event::Read { tid, addr, size } => {
                fold(1);
                fold(tid.0 as u64);
                fold(addr.0);
                fold(size.bytes());
            }
            Event::Write { tid, addr, size } => {
                fold(2);
                fold(tid.0 as u64);
                fold(addr.0);
                fold(size.bytes());
            }
            Event::Acquire { tid, lock } => {
                fold(3);
                fold(tid.0 as u64);
                fold(lock.0 as u64);
            }
            Event::Release { tid, lock } => {
                fold(4);
                fold(tid.0 as u64);
                fold(lock.0 as u64);
            }
            Event::Fork { parent, child } => {
                fold(5);
                fold(parent.0 as u64);
                fold(child.0 as u64);
            }
            Event::Join { parent, child } => {
                fold(6);
                fold(parent.0 as u64);
                fold(child.0 as u64);
            }
            Event::Alloc { tid, addr, size } => {
                fold(7);
                fold(tid.0 as u64);
                fold(addr.0);
                fold(size);
            }
            Event::Free { tid, addr, size } => {
                fold(8);
                fold(tid.0 as u64);
                fold(addr.0);
                fold(size);
            }
            Event::AcquireRead { tid, lock } => {
                fold(9);
                fold(tid.0 as u64);
                fold(lock.0 as u64);
            }
            Event::ReleaseRead { tid, lock } => {
                fold(10);
                fold(tid.0 as u64);
                fold(lock.0 as u64);
            }
            Event::CvSignal { tid, cv } => {
                fold(11);
                fold(tid.0 as u64);
                fold(cv.0 as u64);
            }
            Event::CvWait { tid, cv } => {
                fold(12);
                fold(tid.0 as u64);
                fold(cv.0 as u64);
            }
            Event::BarrierArrive { tid, bar } => {
                fold(13);
                fold(tid.0 as u64);
                fold(bar.0 as u64);
            }
            Event::BarrierDepart { tid, bar } => {
                fold(14);
                fold(tid.0 as u64);
                fold(bar.0 as u64);
            }
        }
    }

    /// The fingerprint of everything folded in.
    pub fn finish(mut self) -> u64 {
        self.fold(self.events);
        self.h
    }
}

/// The [`Fingerprint`] of a whole trace.
pub fn trace_fingerprint(trace: &Trace) -> u64 {
    let mut f = Fingerprint::new();
    f.update(&trace.events);
    f.finish()
}

/// One certified write-run: every write landing inside
/// `[start, start+len)` begins at `start + k·stride` and is exactly
/// `stride` bytes wide. The dynamic-granularity detector may therefore
/// treat a single probe at `addr − stride` as equivalent to its full
/// neighbor scan for any interior member (no populated write location can
/// exist strictly between two stride positions).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AffinityRange {
    /// First byte of the run.
    pub start: Addr,
    /// Length in bytes (a multiple of `stride`, at least `2·stride`).
    pub len: u64,
    /// Element stride in bytes (1, 2, 4, or 8).
    pub stride: u8,
}

impl AffinityRange {
    /// One past the last byte.
    pub fn end(&self) -> u64 {
        self.start.0 + self.len
    }
}

/// The sharing-affinity artifact: sorted, disjoint certified write-runs.
/// Consumed by the dynamic-granularity detector to pre-seed sharing
/// groups; a lookup that misses (or a certified probe that fails) falls
/// back to the unseeded path, so mispredictions degrade lazily and race
/// sets stay byte-identical.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AffinityMap {
    /// Sorted, disjoint certified runs.
    pub ranges: Vec<AffinityRange>,
}

impl AffinityMap {
    /// Whether a *write* of `size` bytes at `addr` is a certified
    /// interior run member: the run's stride equals the access size,
    /// `addr` sits on a stride position, and it has at least one stride
    /// slot of run before it (so `addr − stride` is the only possible
    /// populated predecessor within the gap).
    pub fn certified(&self, addr: Addr, size: u64) -> bool {
        self.certified_hinted(addr, size, usize::MAX).is_some()
    }

    /// [`certified`](Self::certified) with a locality memo: `hint` is the
    /// range index returned by a previous positive lookup, checked before
    /// the binary search. Access streams walk one run at a time, so the
    /// hint hits almost always and the per-access cost collapses from a
    /// binary search over the whole map to one bounds check. Because the
    /// ranges are sorted and disjoint, a hint hit is exactly the range
    /// the search would pick — the result is identical for any hint
    /// value (an out-of-bounds hint is simply ignored). Returns the
    /// certifying range's index, to be passed back as the next hint.
    pub fn certified_hinted(&self, addr: Addr, size: u64, hint: usize) -> Option<usize> {
        if let Some(r) = self.ranges.get(hint) {
            if Self::range_certifies(r, addr, size) {
                return Some(hint);
            }
        }
        let i = self
            .ranges
            .partition_point(|r| r.start.0 <= addr.0)
            .checked_sub(1)?;
        Self::range_certifies(&self.ranges[i], addr, size).then_some(i)
    }

    /// The certification predicate for a single run (see
    /// [`certified`](Self::certified)).
    fn range_certifies(r: &AffinityRange, addr: Addr, size: u64) -> bool {
        let g = r.stride as u64;
        g == size
            && addr.0 >= r.start.0 + g
            && addr.0 + size <= r.end()
            && (addr.0 - r.start.0).is_multiple_of(g)
    }

    /// Whether the map certifies nothing.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Number of certified runs.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Deterministic digest of the map contents. Stored in detector
    /// snapshots so a checkpointed run cannot resume under a different
    /// affinity map (the pre-seed counters would silently diverge).
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        for r in &self.ranges {
            fold(r.start.0);
            fold(r.len);
            fold(r.stride as u64);
        }
        fold(self.ranges.len() as u64);
        h
    }
}

/// A structured warning from the lock-graph pass: a *potential* hazard
/// beyond the observed schedule (this run need not have raced or
/// deadlocked for the warning to fire). Deterministically ordered.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AnalysisWarning {
    /// The static lock-order graph contains a cycle over these locks:
    /// some schedule of this program can deadlock. Locks are sorted.
    LockOrderCycle {
        /// The locks forming the cycle, sorted by id.
        locks: Vec<LockId>,
    },
    /// A multi-thread, written byte range was accessed at least once with
    /// no exclusive lock held — a potential race even if this schedule
    /// happened to order the accesses.
    UnlockedSharedRange {
        /// First byte of the range.
        start: Addr,
        /// Length in bytes.
        len: u64,
    },
}

/// One bucket of the address-range heat histogram: access traffic that
/// landed in `[start, start+len)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HeatBucket {
    /// First byte of the bucket.
    pub start: Addr,
    /// Length in bytes.
    pub len: u64,
    /// Access events that landed in the bucket.
    pub weight: u64,
}

/// The shard-routing artifact: a heat histogram compiled at warm start
/// into balanced router ranges for a concrete shard count.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoutingPlan {
    /// Sorted, disjoint heat buckets.
    pub buckets: Vec<HeatBucket>,
}

impl RoutingPlan {
    /// Whether the plan carries no heat information.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Compiles the histogram into sorted, disjoint
    /// `(start, end, shard)` router ranges for `shards` shards: greedy
    /// least-loaded assignment over buckets in descending weight (ties:
    /// ascending start; ties among shards: lowest index), then adjacent
    /// same-shard ranges merge. Deterministic for a given (plan, shards).
    pub fn compile(&self, shards: usize) -> Vec<(u64, u64, usize)> {
        if shards <= 1 || self.buckets.is_empty() {
            return Vec::new();
        }
        let mut order: Vec<&HeatBucket> = self.buckets.iter().collect();
        order.sort_by(|a, b| b.weight.cmp(&a.weight).then(a.start.0.cmp(&b.start.0)));
        let mut load = vec![0u64; shards];
        let mut routes: Vec<(u64, u64, usize)> = Vec::with_capacity(order.len());
        for b in order {
            let shard = (0..shards).min_by_key(|&s| (load[s], s)).unwrap_or(0);
            load[shard] += b.weight.max(1);
            routes.push((b.start.0, b.start.0 + b.len, shard));
        }
        routes.sort_unstable_by_key(|r| r.0);
        let mut merged: Vec<(u64, u64, usize)> = Vec::with_capacity(routes.len());
        for (s, e, shard) in routes {
            match merged.last_mut() {
                Some(last) if last.1 == s && last.2 == shard => last.1 = e,
                _ => merged.push((s, e, shard)),
            }
        }
        merged
    }
}

/// The versioned output of the ahead-of-time analysis over one trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AnalysisSummary {
    /// Number of events in the analyzed trace (provenance check).
    pub trace_events: u64,
    /// Number of access events in the analyzed trace.
    pub trace_accesses: u64,
    /// Content fingerprint of the analyzed trace
    /// ([`trace_fingerprint`]); zero for version-1 summaries.
    pub fingerprint: u64,
    /// Sorted, disjoint classified ranges. Bytes never accessed by the
    /// trace appear in no range.
    pub ranges: Vec<ClassifiedRange>,
    /// Per-class tallies.
    pub stats: SummaryStats,
    /// Certified write-runs for detector pre-seeding.
    pub affinity: AffinityMap,
    /// Lock-graph warnings (potential deadlocks / unprotected sharing).
    pub warnings: Vec<AnalysisWarning>,
    /// Address-range heat histogram for shard routing plans.
    pub plan: RoutingPlan,
}

impl AnalysisSummary {
    /// The classification of `addr`, if the trace accessed it.
    pub fn class_at(&self, addr: Addr) -> Option<&LocationClass> {
        let i = self.ranges.partition_point(|r| r.start.0 <= addr.0);
        let r = self.ranges.get(i.checked_sub(1)?)?;
        (addr.0 < r.end()).then_some(&r.class)
    }

    /// Maximal merged `[start, end)` intervals of prunable bytes.
    pub fn prunable_intervals(&self) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = Vec::new();
        for r in &self.ranges {
            if !r.class.is_prunable() {
                continue;
            }
            match out.last_mut() {
                Some(last) if last.1 == r.start.0 => last.1 = r.end(),
                _ => out.push((r.start.0, r.end())),
            }
        }
        out
    }

    /// Builds the access-time prune predicate for a detector with
    /// `granule` bytes of shadow granularity and `margin` bytes of
    /// neighbor influence (see [`PruneSet`]).
    pub fn prune_set(&self, granule: u64, margin: u64) -> PruneSet {
        PruneSet::new(self, granule, margin)
    }
}

/// The compiled prune predicate: decides per access whether the detector
/// may skip it without its race set changing.
///
/// Two compensations make the per-access decision sound for a *specific*
/// detector configuration, not just for exact byte-granularity HB:
///
/// * **Granule expansion.** A detector with granularity `g` folds an
///   access at `a` onto the shadow cell for the whole granule
///   `[align_down(a, g), +g)`. Skipping an access whose granule also
///   covers a *contended* byte would change that cell's history (it can
///   remove genuine coarse-granularity reports), so an access is pruned
///   only if every byte of every granule it touches is prunable.
///   Moreover each granule must lie inside a *single* classified range:
///   per-byte proofs do not compose across ranges (two neighboring bytes
///   can each be race-free under different ordering witnesses while the
///   word cell covering both still sees concurrent accesses), so at
///   `granule > 1` the set is compiled per range, never from the
///   cross-class merged intervals.
/// * **Margin shrinking.** The dynamic-granularity detector additionally
///   couples a location to neighbors within its sharing scan distance.
///   Each maximal prunable interval is shrunk by `margin` bytes on both
///   sides, so every skipped access is farther than the scan distance
///   from any still-checked location and can never have been its sharing
///   partner. (Sharing artifacts *between* pruned locations can still
///   disappear — those reports are `tainted` by construction, and the
///   prune-equivalence guarantee is stated over untainted reports; see
///   DESIGN.md §10.4.)
#[derive(Clone, Debug, Default)]
pub struct PruneSet {
    /// Sorted, disjoint, granule-aligned `[start, end)` intervals.
    intervals: Vec<(u64, u64)>,
    /// Shadow granularity the set was compiled for.
    granule: u64,
}

impl PruneSet {
    /// Compiles `summary` for a detector with `granule`-byte shadow cells
    /// and `margin` bytes of neighbor influence.
    pub fn new(summary: &AnalysisSummary, granule: u64, margin: u64) -> Self {
        let granule = granule.max(1);
        // At byte granularity the per-byte proofs apply verbatim, so the
        // cross-class merged intervals are sound (and shrink by `margin`
        // only at their outer edges). At coarser granularity every
        // granule must sit inside a single classified range, so compile
        // each prunable range separately — adjacency merging below then
        // only ever joins intervals at granule-aligned range boundaries,
        // which keeps the per-granule single-range property.
        let source: Vec<(u64, u64)> = if granule == 1 {
            summary.prunable_intervals()
        } else {
            summary
                .ranges
                .iter()
                .filter(|r| r.class.is_prunable())
                .map(|r| (r.start.0, r.end()))
                .collect()
        };
        let mut intervals = Vec::new();
        for (s, e) in source {
            // Shrink by the neighbor margin, then inward to granule
            // boundaries so only fully-prunable granules remain.
            let s = (s.saturating_add(margin)).div_ceil(granule) * granule;
            let e = (e.saturating_sub(margin) / granule) * granule;
            if s < e {
                intervals.push((s, e));
            }
        }
        // Margin shrinking keeps order and disjointness; merge adjacency
        // anyway for the containment query below.
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(intervals.len());
        for (s, e) in intervals {
            match merged.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }
        PruneSet {
            intervals: merged,
            granule,
        }
    }

    /// An empty set (prunes nothing) — the no-summary default.
    pub fn empty() -> Self {
        PruneSet::default()
    }

    /// Whether a detector of the compiled granularity may skip an access
    /// of `size` bytes at `addr`.
    pub fn prunes(&self, addr: Addr, size: u64) -> bool {
        if self.intervals.is_empty() {
            return false;
        }
        let g = self.granule.max(1);
        // Every granule the access touches must be inside one interval.
        let lo = (addr.0 / g) * g;
        let hi = (addr.0 + size.max(1)).div_ceil(g) * g;
        let i = self.intervals.partition_point(|&(s, _)| s <= lo);
        match i.checked_sub(1).and_then(|i| self.intervals.get(i)) {
            Some(&(_, end)) => hi <= end,
            None => false,
        }
    }

    /// Number of compiled intervals (diagnostics).
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// Whether the set prunes nothing.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(ranges: Vec<(u64, u64, LocationClass)>) -> AnalysisSummary {
        AnalysisSummary {
            ranges: ranges
                .into_iter()
                .map(|(start, len, class)| ClassifiedRange {
                    start: Addr(start),
                    len,
                    class,
                })
                .collect(),
            ..Default::default()
        }
    }

    #[test]
    fn class_at_finds_covering_range() {
        let s = summary(vec![
            (0x100, 8, LocationClass::ThreadLocal),
            (0x108, 8, LocationClass::Contended),
        ]);
        assert_eq!(s.class_at(Addr(0x100)), Some(&LocationClass::ThreadLocal));
        assert_eq!(s.class_at(Addr(0x107)), Some(&LocationClass::ThreadLocal));
        assert_eq!(s.class_at(Addr(0x108)), Some(&LocationClass::Contended));
        assert_eq!(s.class_at(Addr(0x110)), None);
        assert_eq!(s.class_at(Addr(0xff)), None);
    }

    #[test]
    fn prunable_intervals_merge_adjacent_classes() {
        let s = summary(vec![
            (0x100, 8, LocationClass::ThreadLocal),
            (0x108, 8, LocationClass::ReadOnlyAfterInit),
            (0x110, 8, LocationClass::Contended),
            (
                0x200,
                4,
                LocationClass::ConsistentlyLocked { lockset: vec![] },
            ),
        ]);
        assert_eq!(s.prunable_intervals(), vec![(0x100, 0x110), (0x200, 0x204)]);
    }

    #[test]
    fn prune_set_respects_granularity() {
        // Prunable bytes 0x102..0x10e: at granule 4 only [0x104, 0x10c)
        // is fully covered.
        let s = summary(vec![(0x102, 12, LocationClass::ThreadLocal)]);
        let p = s.prune_set(4, 0);
        assert!(p.prunes(Addr(0x104), 4));
        assert!(p.prunes(Addr(0x108), 4));
        assert!(!p.prunes(Addr(0x100), 4), "granule includes 0x100..0x102");
        assert!(!p.prunes(Addr(0x10c), 1), "granule includes 0x10e..0x110");
        // An access spanning out of the set is kept.
        assert!(!p.prunes(Addr(0x10a), 8));
        // Byte granularity prunes exactly the classified bytes.
        let pb = s.prune_set(1, 0);
        assert!(pb.prunes(Addr(0x102), 1));
        assert!(pb.prunes(Addr(0x10d), 1));
        assert!(!pb.prunes(Addr(0x10e), 1));
    }

    #[test]
    fn prune_set_margin_shrinks_both_sides() {
        let s = summary(vec![(0x1000, 0x100, LocationClass::ReadOnlyAfterInit)]);
        let p = s.prune_set(1, 0x40);
        assert!(!p.prunes(Addr(0x1000), 1));
        assert!(!p.prunes(Addr(0x103f), 1));
        assert!(p.prunes(Addr(0x1040), 1));
        assert!(p.prunes(Addr(0x10bf), 1));
        assert!(!p.prunes(Addr(0x10c0), 1));
        // A margin larger than the interval empties it.
        assert!(s.prune_set(1, 0x100).is_empty());
    }

    #[test]
    fn empty_prune_set_prunes_nothing() {
        let p = PruneSet::empty();
        assert!(p.is_empty());
        assert!(!p.prunes(Addr(0), 8));
    }

    #[test]
    fn fingerprint_is_content_sensitive() {
        use crate::{AccessSize, TraceBuilder};
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32).write(0u32, 0x100u64, AccessSize::U32);
        let t1 = b.build();
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32).write(0u32, 0x100u64, AccessSize::U32);
        let t2 = b.build();
        assert_eq!(trace_fingerprint(&t1), trace_fingerprint(&t2));
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32).write(0u32, 0x104u64, AccessSize::U32);
        let t3 = b.build();
        assert_ne!(trace_fingerprint(&t1), trace_fingerprint(&t3));
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32).write(1u32, 0x100u64, AccessSize::U32);
        let t4 = b.build();
        assert_ne!(trace_fingerprint(&t1), trace_fingerprint(&t4));
    }

    #[test]
    fn affinity_certifies_interior_stride_members_only() {
        let map = AffinityMap {
            ranges: vec![AffinityRange {
                start: Addr(0x1000),
                len: 0x40,
                stride: 4,
            }],
        };
        assert!(!map.certified(Addr(0x1000), 4), "run head has no gap proof");
        assert!(map.certified(Addr(0x1004), 4));
        assert!(map.certified(Addr(0x103c), 4));
        assert!(!map.certified(Addr(0x1040), 4), "past the end");
        assert!(!map.certified(Addr(0x1006), 4), "off-stride");
        assert!(!map.certified(Addr(0x1004), 8), "size != stride");
        assert!(!map.certified(Addr(0xfff), 4));
        assert!(AffinityMap::default().is_empty());
        assert_ne!(map.digest(), AffinityMap::default().digest());
    }

    #[test]
    fn routing_plan_compiles_balanced_disjoint_routes() {
        let plan = RoutingPlan {
            buckets: vec![
                HeatBucket {
                    start: Addr(0x0000),
                    len: 0x1000,
                    weight: 100,
                },
                HeatBucket {
                    start: Addr(0x1000),
                    len: 0x1000,
                    weight: 90,
                },
                HeatBucket {
                    start: Addr(0x2000),
                    len: 0x1000,
                    weight: 10,
                },
                HeatBucket {
                    start: Addr(0x3000),
                    len: 0x1000,
                    weight: 8,
                },
            ],
        };
        let routes = plan.compile(2);
        // Sorted, disjoint.
        for w in routes.windows(2) {
            assert!(w[0].1 <= w[1].0, "{routes:?}");
        }
        // Greedy least-loaded: 100→s0, 90→s1, 10→s1, 8→s1? no: after
        // 10→s1 load is (100, 100), tie → s0 gets 8.
        let shard_of = |a: u64| routes.iter().find(|r| r.0 <= a && a < r.1).unwrap().2;
        assert_eq!(shard_of(0x0000), 0);
        assert_eq!(shard_of(0x1000), 1);
        assert_eq!(shard_of(0x2000), 1);
        assert_eq!(shard_of(0x3000), 0);
        // Deterministic and shard-1 trivially empty.
        assert_eq!(routes, plan.compile(2));
        assert!(plan.compile(1).is_empty());
        // Adjacent buckets landing on one shard merge into one route:
        // 10 → s0, 9 → s1, then 1 → s1 (load 10 vs 9), adjacent to 9.
        let tail_heavy = RoutingPlan {
            buckets: vec![
                HeatBucket {
                    start: Addr(0x0000),
                    len: 0x1000,
                    weight: 10,
                },
                HeatBucket {
                    start: Addr(0x1000),
                    len: 0x1000,
                    weight: 9,
                },
                HeatBucket {
                    start: Addr(0x2000),
                    len: 0x1000,
                    weight: 1,
                },
            ],
        };
        assert_eq!(
            tail_heavy.compile(2),
            vec![(0x0000, 0x1000, 0), (0x1000, 0x3000, 1)]
        );
    }

    #[test]
    fn stats_fractions() {
        let mut st = SummaryStats::default();
        assert_eq!(st.prunable_fraction(), 0.0);
        st.thread_local.accesses = 30;
        st.read_only.accesses = 20;
        st.locked.accesses = 10;
        st.contended.accesses = 40;
        assert_eq!(st.prunable_accesses(), 60);
        assert_eq!(st.total_accesses(), 100);
        assert!((st.prunable_fraction() - 0.6).abs() < 1e-12);
    }
}
