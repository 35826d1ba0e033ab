//! Lock-graph warnings: potential races and deadlocks beyond the
//! observed schedule.
//!
//! The detectors report races the *observed* interleaving exhibits;
//! "Dynamic Data-Race Detection through the Fine-Grained Lens"
//! (PAPERS.md) motivates also surfacing hazards that merely *could*
//! manifest under another schedule. Two cheap static signals qualify:
//!
//! * **Lock-order cycles** — on every acquire, an edge is drawn from
//!   each exclusively-held lock to the acquired one; a strongly
//!   connected component with more than one lock means two threads can
//!   interleave their acquisitions into a deadlock, even if this run
//!   happened to get away with it.
//! * **Unlocked shared ranges** — a `Contended`-classified range that
//!   several threads touch, at least once with a write, and at least
//!   once while holding *no* exclusive lock. The range survived this
//!   schedule without an HB race, but nothing orders the conflicting
//!   pair in general.
//!
//! Both are **warnings**, not race reports: they carry no per-access
//! evidence and may be false positives (e.g. a cycle guarded by an
//! outer gate lock). Output is deterministic — cycles sorted by their
//! lock sets, ranges in address order — so CI can diff JSON reports.

use std::collections::{BTreeMap, BTreeSet};

use dgrace_baselines::HeldLocks;
use dgrace_trace::{AnalysisSummary, AnalysisWarning, Event, LocationClass, Trace};

use crate::manager::AnalysisPass;

/// Emits lock-order-cycle and unlocked-shared-range warnings.
pub struct LockGraphPass;

/// Strongly connected components of the lock-order graph, via Kosaraju
/// with iterative DFS. Deterministic: nodes are visited in ascending
/// lock id order and adjacency lists are sorted.
fn components(edges: &BTreeSet<(u32, u32)>) -> Vec<Vec<u32>> {
    let mut fwd: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    let mut rev: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for &(a, b) in edges {
        fwd.entry(a).or_default().push(b);
        rev.entry(b).or_default().push(a);
        fwd.entry(b).or_default();
        rev.entry(a).or_default();
    }
    let nodes: Vec<u32> = fwd.keys().copied().collect();

    // Pass 1: forward DFS, recording finish order.
    let mut finished: Vec<u32> = Vec::with_capacity(nodes.len());
    let mut seen: BTreeSet<u32> = BTreeSet::new();
    for &root in &nodes {
        if seen.contains(&root) {
            continue;
        }
        let mut stack: Vec<(u32, usize)> = vec![(root, 0)];
        seen.insert(root);
        while let Some(&mut (n, ref mut i)) = stack.last_mut() {
            let succ = &fwd[&n];
            if *i < succ.len() {
                let next = succ[*i];
                *i += 1;
                if seen.insert(next) {
                    stack.push((next, 0));
                }
            } else {
                finished.push(n);
                stack.pop();
            }
        }
    }

    // Pass 2: reverse DFS in reverse finish order.
    let mut out: Vec<Vec<u32>> = Vec::new();
    let mut assigned: BTreeSet<u32> = BTreeSet::new();
    for &root in finished.iter().rev() {
        if assigned.contains(&root) {
            continue;
        }
        let mut comp = Vec::new();
        let mut stack = vec![root];
        assigned.insert(root);
        while let Some(n) = stack.pop() {
            comp.push(n);
            for &p in &rev[&n] {
                if assigned.insert(p) {
                    stack.push(p);
                }
            }
        }
        comp.sort_unstable();
        out.push(comp);
    }
    out
}

impl AnalysisPass for LockGraphPass {
    fn name(&self) -> &'static str {
        "lock-graph"
    }

    fn run(&mut self, trace: &Trace, summary: &mut AnalysisSummary) -> u64 {
        // Contended ranges from the classifier, in address order. Each
        // keeps (first_tid, multi-threaded?, wrote?, unlocked access?).
        let contended: Vec<(u64, u64)> = summary
            .ranges
            .iter()
            .filter(|r| matches!(r.class, LocationClass::Contended))
            .map(|r| (r.start.0, r.end()))
            .collect();
        let mut state = vec![(None::<u32>, false, false, false); contended.len()];

        let mut held = HeldLocks::new();
        let mut edges: BTreeSet<(u32, u32)> = BTreeSet::new();
        for ev in trace {
            if let Event::Acquire { tid, lock } = *ev {
                for l in held.exclusive(tid) {
                    if l.0 != lock.0 {
                        edges.insert((l.0, lock.0));
                    }
                }
            }
            held.apply(ev);
            if let Some((addr, size, is_write)) = ev.access() {
                let tid = ev.tid();
                let unlocked = held.exclusive(tid).is_empty();
                let end = addr.0 + size.bytes();
                // First contended range whose end exceeds the access
                // start; ranges are disjoint and sorted.
                let mut i = contended.partition_point(|&(_, e)| e <= addr.0);
                while i < contended.len() && contended[i].0 < end {
                    let s = &mut state[i];
                    match s.0 {
                        None => s.0 = Some(tid.0),
                        Some(t) if t != tid.0 => s.1 = true,
                        _ => {}
                    }
                    s.2 |= is_write;
                    s.3 |= unlocked;
                    i += 1;
                }
            }
        }

        let mut warnings: Vec<AnalysisWarning> = components(&edges)
            .into_iter()
            .filter(|c| c.len() > 1)
            .map(|c| AnalysisWarning::LockOrderCycle {
                locks: c.into_iter().map(dgrace_trace::LockId).collect(),
            })
            .collect();
        warnings.sort_by(|a, b| match (a, b) {
            (
                AnalysisWarning::LockOrderCycle { locks: la },
                AnalysisWarning::LockOrderCycle { locks: lb },
            ) => la.cmp(lb),
            _ => std::cmp::Ordering::Equal,
        });
        for (i, &(start, end)) in contended.iter().enumerate() {
            let (_, multi, wrote, unlocked) = state[i];
            if multi && wrote && unlocked {
                warnings.push(AnalysisWarning::UnlockedSharedRange {
                    start: dgrace_trace::Addr(start),
                    len: end - start,
                });
            }
        }

        summary.warnings = warnings;
        summary.warnings.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClassifyPass, PassManager};
    use dgrace_trace::{AccessSize, Addr, LockId, TraceBuilder};

    fn warnings_of(trace: &Trace) -> Vec<AnalysisWarning> {
        let mut m = PassManager::new();
        m.push(Box::new(ClassifyPass));
        m.push(Box::new(LockGraphPass));
        m.run(trace).0.warnings
    }

    #[test]
    fn ab_ba_inversion_is_one_cycle() {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32);
        b.locked(0u32, 1u32, |b| {
            b.locked(0u32, 2u32, |b| {
                b.write(0u32, 0x100u64, AccessSize::U32);
            });
        });
        b.locked(1u32, 2u32, |b| {
            b.locked(1u32, 1u32, |b| {
                b.write(1u32, 0x100u64, AccessSize::U32);
            });
        });
        b.join(0u32, 1u32);
        let w = warnings_of(&b.build());
        assert_eq!(
            w,
            vec![AnalysisWarning::LockOrderCycle {
                locks: vec![LockId(1), LockId(2)]
            }]
        );
    }

    #[test]
    fn consistent_order_has_no_cycle() {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32);
        for t in [0u32, 1u32] {
            b.locked(t, 1u32, |b| {
                b.locked(t, 2u32, |b| {
                    b.write(t, 0x100u64, AccessSize::U32);
                });
            });
        }
        b.join(0u32, 1u32);
        assert!(warnings_of(&b.build()).is_empty());
    }

    #[test]
    fn unlocked_shared_write_range_is_warned() {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32)
            .write(0u32, 0x200u64, AccessSize::U64)
            .read(1u32, 0x200u64, AccessSize::U64)
            .join(0u32, 1u32);
        let w = warnings_of(&b.build());
        assert_eq!(
            w,
            vec![AnalysisWarning::UnlockedSharedRange {
                start: Addr(0x200),
                len: 8,
            }]
        );
    }

    #[test]
    fn locked_contended_range_is_not_warned() {
        // Inconsistent locks (contended class) but never lock-free: the
        // range is suspicious, yet no unlocked access exists to warn on.
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32)
            .locked(0u32, 1u32, |t| {
                t.write(0u32, 0x200u64, AccessSize::U32);
            })
            .locked(1u32, 2u32, |t| {
                t.write(1u32, 0x200u64, AccessSize::U32);
            })
            .join(0u32, 1u32);
        assert!(warnings_of(&b.build()).is_empty());
    }
}
