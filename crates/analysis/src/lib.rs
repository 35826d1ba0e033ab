//! Ahead-of-time trace analysis for `dgrace`.
//!
//! Dynamic race detection pays its vector-clock cost at **every** shared
//! access, yet in real programs most locations are provably race-free
//! from the trace alone: thread-local buffers, tables written once
//! during single-threaded startup, counters always guarded by the same
//! mutex. This crate's classifier attempts three proofs at once, in one
//! sweep over a recorded trace, and classifies every accessed byte range
//! into one of the [`LocationClass`]es, emitting a versioned
//! [`AnalysisSummary`] that the detectors' `StaticPruneFilter` and the
//! runtime's warm-start mode use to skip the pruned accesses entirely.
//!
//! The proofs (the `classify` module carries their soundness arguments):
//!
//! 1. **Fork/join ownership** — accesses totally ordered by fork/join
//!    edges alone ⇒ [`LocationClass::ThreadLocal`];
//! 2. **Read-only epoch** — every write during a single-threaded phase
//!    ⇒ [`LocationClass::ReadOnlyAfterInit`];
//! 3. **Whole-trace lockset fixpoint** — a non-empty strict intersection
//!    of exclusively-held locks ⇒ [`LocationClass::ConsistentlyLocked`].
//!
//! Everything else is [`LocationClass::Contended`] and must be checked
//! dynamically. Classification is per *atom* (maximal intervals the
//! trace's accesses never split — see `atoms`, which also resolves each
//! access's atoms once for every later sweep), then adjacent atoms of
//! equal class merge into the summary's
//! [`ClassifiedRange`](dgrace_trace::ClassifiedRange)s.
//!
//! ```
//! use dgrace_analysis::analyze;
//! use dgrace_trace::{AccessSize, LocationClass, TraceBuilder, Addr};
//!
//! let mut b = TraceBuilder::new();
//! b.write(0u32, 0x100u64, AccessSize::U64) // before any fork: thread-local
//!     .fork(0u32, 1u32)
//!     .write(1u32, 0x200u64, AccessSize::U64) // only thread 1 touches it
//!     .join(0u32, 1u32);
//! let summary = analyze(&b.build());
//! assert_eq!(
//!     summary.class_at(Addr(0x100)),
//!     Some(&LocationClass::ThreadLocal)
//! );
//! assert_eq!(summary.stats.prunable_accesses(), 2);
//! ```
//!
//! [`LocationClass`]: dgrace_trace::LocationClass
//! [`LocationClass::ThreadLocal`]: dgrace_trace::LocationClass::ThreadLocal
//! [`LocationClass::ReadOnlyAfterInit`]: dgrace_trace::LocationClass::ReadOnlyAfterInit
//! [`LocationClass::ConsistentlyLocked`]: dgrace_trace::LocationClass::ConsistentlyLocked
//! [`LocationClass::Contended`]: dgrace_trace::LocationClass::Contended

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod atoms;
mod classify;
mod lockgraph;
mod locksets;

use std::time::Instant;

use dgrace_trace::{trace_fingerprint, AnalysisSummary, Trace};

/// Per-pass execution statistics reported by [`analyze_with_stats`].
#[derive(Clone, Debug)]
pub struct PassStats {
    /// The pass's stable name: `classify` or `lock-graph`.
    pub name: &'static str,
    /// Items the pass produced (ranges, warnings).
    pub items: u64,
    /// Wall-clock nanoseconds spent in the pass.
    pub nanos: u128,
}

/// Runs the analysis over `trace` and produces the full summary
/// (classification and lock-graph warnings), discarding per-pass stats.
/// Use [`analyze_with_stats`] to keep them.
///
/// The trace should be structurally valid (see `dgrace_trace::validate`);
/// on malformed traces the result is still well-formed but its proofs
/// are meaningless.
pub fn analyze(trace: &Trace) -> AnalysisSummary {
    analyze_with_stats(trace).0
}

/// Like [`analyze`], additionally returning per-pass item counts and
/// wall-clock timings. The summary is bound to its trace by the content
/// fingerprint before the passes run; classification runs first, then
/// the lock graph, which reads the classifier's `Contended` ranges.
pub fn analyze_with_stats(trace: &Trace) -> (AnalysisSummary, Vec<PassStats>) {
    let mut summary = AnalysisSummary {
        fingerprint: trace_fingerprint(trace),
        trace_events: trace.len() as u64,
        ..Default::default()
    };
    type Pass = fn(&Trace, &mut AnalysisSummary) -> u64;
    let passes: [(&'static str, Pass); 2] = [
        ("classify", classify::classify),
        ("lock-graph", lockgraph::lock_graph),
    ];
    let stats = passes
        .into_iter()
        .map(|(name, pass)| {
            let t0 = Instant::now();
            let items = pass(trace, &mut summary);
            PassStats {
                name,
                items,
                nanos: t0.elapsed().as_nanos(),
            }
        })
        .collect();
    (summary, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgrace_trace::{AccessSize, Addr, LocationClass, LockId, TraceBuilder};

    const X: u64 = 0x1000;
    const Y: u64 = 0x2000;

    #[test]
    fn empty_trace_empty_summary() {
        let s = analyze(&Trace::new());
        assert!(s.ranges.is_empty());
        assert_eq!(s.trace_events, 0);
        assert_eq!(s.stats.total_accesses(), 0);
    }

    #[test]
    fn single_thread_is_thread_local() {
        let mut b = TraceBuilder::new();
        b.write(0u32, X, AccessSize::U64)
            .read(0u32, X, AccessSize::U64);
        let s = analyze(&b.build());
        assert_eq!(s.class_at(Addr(X)), Some(&LocationClass::ThreadLocal));
        assert_eq!(s.stats.thread_local.accesses, 2);
        assert_eq!(s.stats.thread_local.bytes, 8);
    }

    #[test]
    fn fork_join_handoff_is_thread_local() {
        // Parent writes, forks child which writes, joins, writes again:
        // all ordered by fork/join edges (Eraser's classic false alarm).
        let mut b = TraceBuilder::new();
        b.write(0u32, X, AccessSize::U32)
            .fork(0u32, 1u32)
            .write(1u32, X, AccessSize::U32)
            .join(0u32, 1u32)
            .write(0u32, X, AccessSize::U32);
        let s = analyze(&b.build());
        assert_eq!(s.class_at(Addr(X)), Some(&LocationClass::ThreadLocal));
    }

    #[test]
    fn concurrent_unlocked_writes_are_contended() {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32)
            .write(0u32, X, AccessSize::U32)
            .write(1u32, X, AccessSize::U32)
            .join(0u32, 1u32);
        let s = analyze(&b.build());
        assert_eq!(s.class_at(Addr(X)), Some(&LocationClass::Contended));
        assert_eq!(s.stats.contended.accesses, 2);
        assert_eq!(s.stats.prunable_fraction(), 0.0);
    }

    #[test]
    fn init_then_shared_reads_is_read_only() {
        let mut b = TraceBuilder::new();
        b.write(0u32, X, AccessSize::U64) // single-threaded init
            .fork(0u32, 1u32)
            .fork(0u32, 2u32)
            .read(1u32, X, AccessSize::U64)
            .read(2u32, X, AccessSize::U64)
            .join(0u32, 1u32)
            .join(0u32, 2u32);
        let s = analyze(&b.build());
        // Concurrent reads are unordered, so not thread-local; but the
        // only write is single-threaded.
        assert_eq!(s.class_at(Addr(X)), Some(&LocationClass::ReadOnlyAfterInit));
        assert_eq!(s.stats.read_only.accesses, 3);
    }

    #[test]
    fn write_after_threads_exist_defeats_read_only() {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32)
            .write(0u32, X, AccessSize::U64)
            .read(1u32, X, AccessSize::U64)
            .join(0u32, 1u32);
        let s = analyze(&b.build());
        assert_eq!(s.class_at(Addr(X)), Some(&LocationClass::Contended));
    }

    #[test]
    fn consistent_locking_detected_with_lockset() {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32);
        for t in [0u32, 1u32] {
            b.locked(t, 7u32, |b| {
                b.read(t, X, AccessSize::U32).write(t, X, AccessSize::U32);
            });
        }
        b.join(0u32, 1u32);
        let s = analyze(&b.build());
        assert_eq!(
            s.class_at(Addr(X)),
            Some(&LocationClass::ConsistentlyLocked {
                lockset: vec![LockId(7)]
            })
        );
        assert_eq!(s.stats.locked.accesses, 4);
    }

    #[test]
    fn inconsistent_locks_are_contended() {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32)
            .locked(0u32, 1u32, |t| {
                t.write(0u32, X, AccessSize::U32);
            })
            .locked(1u32, 2u32, |t| {
                t.write(1u32, X, AccessSize::U32);
            })
            .join(0u32, 1u32);
        let s = analyze(&b.build());
        assert_eq!(s.class_at(Addr(X)), Some(&LocationClass::Contended));
    }

    #[test]
    fn read_mode_rwlock_holds_do_not_count() {
        // Two threads writing under only a *read* hold stay contended:
        // read holders run concurrently.
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32);
        for t in [0u32, 1u32] {
            b.acquire_read(t, 7u32)
                .write(t, X, AccessSize::U32)
                .release_read(t, 7u32);
        }
        b.join(0u32, 1u32);
        let s = analyze(&b.build());
        assert_eq!(s.class_at(Addr(X)), Some(&LocationClass::Contended));
    }

    #[test]
    fn mixed_classes_split_into_ranges() {
        let mut b = TraceBuilder::new();
        b.write(0u32, X, AccessSize::U64) // thread-local
            .fork(0u32, 1u32)
            .write(0u32, Y, AccessSize::U32) // contended
            .write(1u32, Y, AccessSize::U32)
            .join(0u32, 1u32);
        let s = analyze(&b.build());
        assert_eq!(s.ranges.len(), 2);
        assert!(s.class_at(Addr(X)).unwrap().is_prunable());
        assert!(!s.class_at(Addr(Y)).unwrap().is_prunable());
        assert_eq!(s.prunable_intervals(), vec![(X, X + 8)]);
    }

    #[test]
    fn partial_overlap_attributes_access_to_weakest_atom() {
        // A U64 write at X overlaps a contended U32 at X+4: the whole
        // U64 access counts as contended even though X..X+4 is private.
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32)
            .write(0u32, X, AccessSize::U64)
            .write(1u32, X + 4, AccessSize::U32)
            .join(0u32, 1u32);
        let s = analyze(&b.build());
        assert_eq!(s.class_at(Addr(X)), Some(&LocationClass::ThreadLocal));
        assert_eq!(s.class_at(Addr(X + 4)), Some(&LocationClass::Contended));
        // The U64 write spans both atoms → counted contended; the U32
        // write is contended.
        assert_eq!(s.stats.contended.accesses, 2);
        assert_eq!(s.stats.thread_local.accesses, 0);
        assert_eq!(s.stats.thread_local.bytes, 4);
        assert_eq!(s.stats.contended.bytes, 4);
    }

    #[test]
    fn adjacent_same_class_atoms_merge() {
        let mut b = TraceBuilder::new();
        b.write(0u32, X, AccessSize::U32)
            .write(0u32, X + 4, AccessSize::U32);
        let s = analyze(&b.build());
        assert_eq!(s.ranges.len(), 1);
        assert_eq!(s.ranges[0].start, Addr(X));
        assert_eq!(s.ranges[0].len, 8);
    }

    #[test]
    fn standard_pipeline_fills_all_artifacts_and_stats() {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32);
        for i in 0..4u64 {
            b.write(0u32, X + i * 4, AccessSize::U32);
            b.write(1u32, X + i * 4, AccessSize::U32);
        }
        b.join(0u32, 1u32);
        let t = b.build();
        let (s, stats) = analyze_with_stats(&t);
        assert_eq!(s.fingerprint, dgrace_trace::trace_fingerprint(&t));
        assert_ne!(s.fingerprint, 0);
        assert!(!s.ranges.is_empty());
        assert!(!s.warnings.is_empty());
        assert_eq!(
            stats.iter().map(|p| p.name).collect::<Vec<_>>(),
            vec!["classify", "lock-graph"]
        );
        assert_eq!(s, analyze(&t), "analyze and analyze_with_stats agree");
    }

    #[test]
    fn summary_counts_match_trace() {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32)
            .write(0u32, X, AccessSize::U32)
            .write(1u32, X, AccessSize::U32)
            .read(1u32, Y, AccessSize::U8)
            .join(0u32, 1u32);
        let t = b.build();
        let s = analyze(&t);
        assert_eq!(s.trace_events, t.len() as u64);
        assert_eq!(s.trace_accesses, 3);
        assert_eq!(s.stats.total_accesses(), 3);
    }
}
