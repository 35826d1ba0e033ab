//! Sharing-affinity inference.
//!
//! The dynamic-granularity detector discovers neighboring same-size
//! writes at *runtime* by probing the shadow space for up to two epochs
//! per location (paper §III). That probing cost is paid on every run,
//! yet the access-pattern it discovers — arrays written element-wise
//! with one stride — is a static property of the program. This pass
//! recovers it from the trace: maximal **write runs** `[start, end)`
//! where every write landing in the interval starts at `start + k·g`
//! with size `g`. The detector uses the map to shrink its first-epoch
//! neighbor scan to the certified stride and to transfer second-epoch
//! cells into a neighbor group without allocating a split clock.
//!
//! The map is advisory: the detector re-validates every prediction
//! against live shadow state and falls back to the unseeded path on any
//! mismatch, so a wrong (even adversarial) map costs probes, never
//! correctness. The pass still aims for true certification — a run is
//! closed or truncated whenever a stray write starts inside it or an
//! earlier write overlaps into it — because only correct predictions
//! convert into skipped work.

use dgrace_trace::{Addr, AffinityMap, AffinityRange, AnalysisSummary, Trace};

use crate::manager::AnalysisPass;

/// Infers per-range write strides (see the module docs).
pub struct AffinityPass;

/// An open write run while sweeping keys in ascending order.
struct Run {
    start: u64,
    g: u8,
    /// Expected start of the next member (`start + members · g`).
    next: u64,
    members: u64,
}

/// Closes `run`, truncating its last granule when the breaking key
/// starts inside it, and folds the run's reach into `reach` so later
/// runs cannot start under a member's extent.
fn close(run: Run, breaker: Option<u64>, ranges: &mut Vec<AffinityRange>, reach: &mut u64) {
    let (end, members) = match breaker {
        // The breaker starts inside the last granule: that granule's
        // member write is no longer certified, drop it.
        Some(k) if k < run.next => (run.next - run.g as u64, run.members - 1),
        _ => (run.next, run.members),
    };
    *reach = (*reach).max(run.next);
    if members >= 2 {
        ranges.push(AffinityRange {
            start: Addr(run.start),
            len: end - run.start,
            stride: run.g,
        });
    }
}

impl AnalysisPass for AffinityPass {
    fn name(&self) -> &'static str {
        "affinity"
    }

    fn run(&mut self, trace: &Trace, summary: &mut AnalysisSummary) -> u64 {
        // Every write as (start, size), sorted: the writes starting at one
        // address become adjacent, smallest size first.
        let mut writes: Vec<(u64, u8)> = trace
            .iter()
            .filter_map(|ev| match ev.access() {
                Some((addr, size, true)) => Some((addr.0, size.bytes() as u8)),
                _ => None,
            })
            .collect();
        writes.sort_unstable();
        // Per write start address: the consistent access size, or `None`
        // when writes of different sizes start there (poisoned), plus the
        // widest size seen for overlap tracking.
        let keys = writes.chunk_by(|a, b| a.0 == b.0).map(|at| {
            let (narrowest, widest) = (at[0].1, at[at.len() - 1].1);
            (at[0].0, (narrowest == widest).then_some(widest), widest)
        });

        let mut ranges = Vec::new();
        // Max end of any write outside the open run: a run may only
        // start past it, or an earlier write would overlap the range.
        let mut reach = 0u64;
        let mut run: Option<Run> = None;
        for (k, stride, widest) in keys {
            if let Some(r) = run.take() {
                if stride == Some(r.g) && k == r.next {
                    run = Some(Run {
                        next: r.next + r.g as u64,
                        members: r.members + 1,
                        ..r
                    });
                    continue;
                }
                close(r, Some(k), &mut ranges, &mut reach);
            }
            match stride {
                Some(g) if k >= reach => {
                    run = Some(Run {
                        start: k,
                        g,
                        next: k + g as u64,
                        members: 1,
                    });
                }
                _ => reach = reach.max(k + widest as u64),
            }
        }
        if let Some(r) = run.take() {
            close(r, None, &mut ranges, &mut reach);
        }

        summary.affinity = AffinityMap { ranges };
        summary.affinity.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgrace_trace::{AccessSize, TraceBuilder};

    fn affinity_of(trace: &Trace) -> AffinityMap {
        let mut s = AnalysisSummary::default();
        AffinityPass.run(trace, &mut s);
        s.affinity
    }

    #[test]
    fn strided_array_writes_form_one_run() {
        let mut b = TraceBuilder::new();
        for i in 0..8u64 {
            b.write(0u32, 0x1000 + i * 4, AccessSize::U32);
        }
        let m = affinity_of(&b.build());
        assert_eq!(
            m.ranges,
            vec![AffinityRange {
                start: Addr(0x1000),
                len: 32,
                stride: 4,
            }]
        );
        assert!(m.certified(Addr(0x1004), 4));
        assert!(!m.certified(Addr(0x1000), 4), "run head has no predecessor");
        assert!(!m.certified(Addr(0x1004), 8), "size must match stride");
    }

    #[test]
    fn conflicting_sizes_poison_the_key() {
        let mut b = TraceBuilder::new();
        b.write(0u32, 0x1000u64, AccessSize::U32)
            .write(0u32, 0x1004u64, AccessSize::U32)
            .write(0u32, 0x1004u64, AccessSize::U64); // conflicts
        let m = affinity_of(&b.build());
        assert!(m.is_empty());
    }

    #[test]
    fn stray_write_inside_last_granule_truncates_the_run() {
        let mut b = TraceBuilder::new();
        for i in 0..3u64 {
            b.write(0u32, 0x1000 + i * 4, AccessSize::U32);
        }
        b.write(0u32, 0x1009u64, AccessSize::U8); // inside [0x1008, 0x100c)
        let m = affinity_of(&b.build());
        assert_eq!(
            m.ranges,
            vec![AffinityRange {
                start: Addr(0x1000),
                len: 8,
                stride: 4,
            }]
        );
    }

    #[test]
    fn overlap_from_below_blocks_the_run() {
        let mut b = TraceBuilder::new();
        b.write(0u32, 0xffcu64, AccessSize::U64); // reaches into 0x1000..0x1004
        b.write(0u32, 0x1000u64, AccessSize::U32)
            .write(0u32, 0x1004u64, AccessSize::U32);
        let m = affinity_of(&b.build());
        assert!(m.is_empty(), "overlapped run must not be certified");
    }

    #[test]
    fn separate_arrays_form_separate_runs() {
        let mut b = TraceBuilder::new();
        for i in 0..2u64 {
            b.write(0u32, 0x1000 + i * 8, AccessSize::U64);
        }
        for i in 0..4u64 {
            b.write(1u32, 0x2000 + i * 2, AccessSize::U16);
        }
        let m = affinity_of(&b.build());
        assert_eq!(m.ranges.len(), 2);
        assert_eq!(m.ranges[0].stride, 8);
        assert_eq!(m.ranges[1].stride, 2);
    }

    #[test]
    fn reads_do_not_certify() {
        let mut b = TraceBuilder::new();
        for i in 0..4u64 {
            b.read(0u32, 0x1000 + i * 4, AccessSize::U32);
        }
        let m = affinity_of(&b.build());
        assert!(m.is_empty());
    }
}
