//! Shard-partitionable detectors and per-shard report merging.
//!
//! The sharded online runtime runs N independent detector instances, each
//! owning a disjoint slice of the address space. A detector qualifies for
//! sharding by implementing [`ShardableDetector`]: it must be able to
//! clone a fresh instance of itself (same algorithm, same configuration,
//! empty state) for every shard. Each shard sees *all* synchronization
//! events (so its happens-before state is exact) but only the memory
//! accesses routed to it, which is sound because vector-clock analyses
//! keep no cross-address state besides the clocks themselves.
//!
//! After the run, [`merge_shard_reports`] folds the per-shard [`Report`]s
//! into one, imposing a *stable* race order — sorted by `(addr, kind)` —
//! so the merged output is identical regardless of shard count or the
//! interleaving of shard finishes.

use dgrace_trace::Addr;

use crate::{Detector, RaceKind, RaceReport, Report, SharingStats};

/// A detector that can be partitioned across address-space shards.
///
/// `new_shard` manufactures a fresh, empty detector configured like
/// `self` (same granularity, same dynamic-granularity config, …). The
/// runtime calls it once per shard; the prototype itself is never fed
/// events.
pub trait ShardableDetector: Detector {
    /// Creates an empty detector instance for one shard.
    fn new_shard(&self) -> Box<dyn Detector + Send>;
}

/// A boxed shardable prototype can itself be wrapped (e.g. by
/// [`crate::Sampled`]) and passed wherever a concrete
/// [`ShardableDetector`] is expected.
impl ShardableDetector for Box<dyn ShardableDetector + Send> {
    fn new_shard(&self) -> Box<dyn Detector + Send> {
        (**self).new_shard()
    }
}

/// Total order on race kinds used for the stable merged ordering.
fn kind_rank(kind: RaceKind) -> u8 {
    match kind {
        RaceKind::WriteWrite => 0,
        RaceKind::ReadWrite => 1,
        RaceKind::WriteRead => 2,
    }
}

/// Sorts races into the canonical merged order: by address, then kind,
/// then (for determinism when a group dissolution reports several races
/// on one address) by the involved epochs.
pub fn sort_races(races: &mut [RaceReport]) {
    let key = |r: &RaceReport| {
        (
            r.addr,
            kind_rank(r.kind),
            r.current.clock,
            r.current.tid.0,
            r.previous.clock,
            r.previous.tid.0,
        )
    };
    races.sort_by_key(key);
}

/// Merges per-shard reports into one canonical [`Report`].
///
/// * Races are concatenated and sorted by `(addr, kind, epochs)` — shard
///   count and shard finish order cannot affect the result. Event indices
///   are dropped: each shard numbers only the events it saw, so the
///   per-shard indices are not comparable.
/// * Counter statistics are summed. Peak statistics are summed too,
///   which makes the merged peaks an upper bound on the true
///   instantaneous peak (the shards peak at different moments).
/// * Sharing statistics are combined when any shard reports them.
///
/// Returns an empty report if `reports` is empty.
pub fn merge_shard_reports(reports: Vec<Report>) -> Report {
    let mut iter = reports.into_iter();
    let mut merged = match iter.next() {
        Some(first) => first,
        None => return Report::default(),
    };
    // Per-shard event numbering is meaningless after a merge.
    for race in merged.races.iter_mut() {
        race.event_index = None;
    }
    for rep in iter {
        merged.races.extend(rep.races.into_iter().map(|mut race| {
            race.event_index = None;
            race
        }));
        let s = &mut merged.stats;
        let o = rep.stats;
        s.events += o.events;
        s.accesses += o.accesses;
        s.pruned += o.pruned;
        s.same_epoch += o.same_epoch;
        s.vc_allocs += o.vc_allocs;
        s.vc_frees += o.vc_frees;
        s.peak_vc_count += o.peak_vc_count;
        s.peak_hash_bytes += o.peak_hash_bytes;
        s.peak_vc_bytes += o.peak_vc_bytes;
        s.peak_bitmap_bytes += o.peak_bitmap_bytes;
        s.peak_total_bytes += o.peak_total_bytes;
        s.dropped += o.dropped;
        s.events_lost += o.events_lost;
        s.evicted += o.evicted;
        s.sample_admitted += o.sample_admitted;
        s.sample_skipped += o.sample_skipped;
        s.sharing = match (s.sharing.take(), o.sharing) {
            (None, None) => None,
            (Some(a), None) | (None, Some(a)) => Some(a),
            (Some(a), Some(b)) => Some(merge_sharing(a, b)),
        };
        merged.failures.extend(rep.failures);
        merged.budget_degraded |= rep.budget_degraded;
        merged.checkpointing_degraded |= rep.checkpointing_degraded;
    }
    merged.failures.sort_by_key(|f| (f.shard, f.event_seq));
    sort_races(&mut merged.races);
    merged
}

fn merge_sharing(a: SharingStats, b: SharingStats) -> SharingStats {
    SharingStats {
        shares: a.shares + b.shares,
        splits: a.splits + b.splits,
        // Weight the averages by share volume; fall back to the plain
        // mean when neither shard shared anything.
        avg_share_count: {
            let wa = a.shares as f64;
            let wb = b.shares as f64;
            if wa + wb > 0.0 {
                (a.avg_share_count * wa + b.avg_share_count * wb) / (wa + wb)
            } else {
                (a.avg_share_count + b.avg_share_count) / 2.0
            }
        },
        max_group: a.max_group.max(b.max_group),
    }
}

/// The set of `(addr, kind)` pairs a report contains, sorted and
/// deduplicated — the comparison key the differential tests use.
pub fn race_signature(report: &Report) -> Vec<(Addr, RaceKind)> {
    let mut v: Vec<(Addr, RaceKind)> = report.races.iter().map(|r| (r.addr, r.kind)).collect();
    v.sort_by_key(|&(addr, kind)| (addr, kind_rank(kind)));
    v.dedup();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DetectorStats;
    use dgrace_vc::{Epoch, Tid};

    fn race(addr: u64, kind: RaceKind) -> RaceReport {
        RaceReport {
            addr: Addr(addr),
            kind,
            current: Epoch::new(2, Tid(1)),
            previous: Epoch::new(1, Tid(0)),
            event_index: Some(7),
            share_count: 1,
            tainted: false,
        }
    }

    fn report(races: Vec<RaceReport>, events: u64) -> Report {
        Report {
            detector: "dynamic".into(),
            races,
            stats: DetectorStats {
                events,
                accesses: events,
                peak_vc_count: 3,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn merge_is_order_independent() {
        let a = report(vec![race(0x200, RaceKind::WriteWrite)], 10);
        let b = report(vec![race(0x100, RaceKind::WriteRead)], 5);
        let ab = merge_shard_reports(vec![a.clone(), b.clone()]);
        let ba = merge_shard_reports(vec![b, a]);
        assert_eq!(ab.races, ba.races);
        assert_eq!(ab.stats.events, 15);
        assert_eq!(ab.stats.peak_vc_count, 6);
        assert_eq!(ab.races[0].addr, Addr(0x100));
        assert!(ab.races.iter().all(|r| r.event_index.is_none()));
    }

    #[test]
    fn merge_of_empty_is_default() {
        let merged = merge_shard_reports(Vec::new());
        assert!(merged.races.is_empty());
        assert_eq!(merged.stats.events, 0);
    }

    #[test]
    fn merge_carries_degradation_state() {
        use crate::ShardFailure;
        let a = report(vec![race(0x200, RaceKind::WriteWrite)], 10);
        let mut b = report(Vec::new(), 5);
        b.failures.push(ShardFailure::new(1, 3, "injected"));
        b.budget_degraded = true;
        b.stats.dropped = 4;
        b.stats.events_lost = 5;
        b.stats.evicted = 2;
        let merged = merge_shard_reports(vec![a, b]);
        assert_eq!(merged.failures.len(), 1);
        assert!(merged.budget_degraded);
        assert!(merged.is_degraded());
        assert_eq!(merged.stats.dropped, 4);
        assert_eq!(merged.stats.events_lost, 5);
        assert_eq!(merged.stats.evicted, 2);
    }

    #[test]
    fn signature_sorts_and_dedups() {
        let rep = report(
            vec![
                race(0x300, RaceKind::WriteRead),
                race(0x100, RaceKind::WriteWrite),
                race(0x300, RaceKind::WriteRead),
            ],
            3,
        );
        assert_eq!(
            race_signature(&rep),
            vec![
                (Addr(0x100), RaceKind::WriteWrite),
                (Addr(0x300), RaceKind::WriteRead)
            ]
        );
    }
}
