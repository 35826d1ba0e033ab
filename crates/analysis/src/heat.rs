//! Access-heat histogram for shard routing plans.
//!
//! The runtime's `Router` hashes 4 KiB regions round-robin onto shards,
//! which balances *address space*, not *work*: one hot page can pin a
//! shard at 100% while the rest idle. This pass counts accesses per
//! 4 KiB page and emits the histogram as [`HeatBucket`]s; the consumer
//! calls `RoutingPlan::compile(shards)` to turn it into a balanced
//! least-loaded assignment the engines preload at warm start. Routing
//! placement never changes what a shard *computes* for the locations it
//! owns, only which shard owns them, so a stale or empty plan degrades
//! balance — never detection.

use dgrace_trace::{Addr, AnalysisSummary, HeatBucket, RoutingPlan, Trace};

use crate::manager::AnalysisPass;

/// Page granularity of the histogram; matches the router's region size.
const PAGE: u64 = 4096;

/// Builds the per-page access-heat histogram.
pub struct HeatPass;

impl AnalysisPass for HeatPass {
    fn name(&self) -> &'static str {
        "heat"
    }

    fn run(&mut self, trace: &Trace, summary: &mut AnalysisSummary) -> u64 {
        // Consecutive hits on one page collapse into a `(page, count)`
        // run as they arrive, so code that stays on a page sorts one
        // entry for it rather than one per access.
        let mut runs: Vec<(u64, u64)> = Vec::new();
        for ev in trace {
            if let Some((addr, size, _)) = ev.access() {
                for p in addr.0 / PAGE..=(addr.0 + size.bytes() - 1) / PAGE {
                    match runs.last_mut() {
                        Some((page, count)) if *page == p => *count += 1,
                        _ => runs.push((p, 1)),
                    }
                }
            }
        }
        runs.sort_unstable_by_key(|&(page, _)| page);
        let buckets = runs
            .chunk_by(|a, b| a.0 == b.0)
            .map(|page| HeatBucket {
                start: Addr(page[0].0 * PAGE),
                len: PAGE,
                weight: page.iter().map(|&(_, count)| count).sum(),
            })
            .collect();
        summary.plan = RoutingPlan { buckets };
        summary.plan.buckets.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgrace_trace::{AccessSize, TraceBuilder};

    #[test]
    fn pages_accumulate_access_counts() {
        let mut b = TraceBuilder::new();
        for _ in 0..3 {
            b.write(0u32, 0x1000u64, AccessSize::U32);
        }
        b.read(0u32, 0x2000u64, AccessSize::U8);
        // A straddling access counts on both pages.
        b.write(0u32, 0x2ffcu64, AccessSize::U64);
        let mut s = AnalysisSummary::default();
        HeatPass.run(&b.build(), &mut s);
        let w: Vec<(u64, u64)> = s
            .plan
            .buckets
            .iter()
            .map(|b| (b.start.0, b.weight))
            .collect();
        assert_eq!(w, vec![(0x1000, 3), (0x2000, 2), (0x3000, 1)]);
    }
}
