//! The pass manager.
//!
//! `dgrace analyze` is a pipeline of independent passes, each
//! contributing one artifact to the shared [`AnalysisSummary`]:
//! classification feeds the prune filter and the lock graph emits
//! potential-race/deadlock warnings. The manager owns ordering, binds
//! the summary to its trace with a content fingerprint, and times every
//! pass so the CLI can report where analysis budget goes.
//!
//! Passes communicate only through the summary they build: a pass may
//! read what earlier passes wrote (the lock-graph pass consumes the
//! classifier's `Contended` ranges) but never mutates another pass's
//! artifact. That keeps the set pluggable — dropping a pass degrades
//! the run (fewer prunes, no warnings) without changing any other output.

use std::time::Instant;

use dgrace_trace::{trace_fingerprint, AnalysisSummary, Trace};

/// One ahead-of-time pass over a recorded trace.
///
/// A pass sweeps the trace (typically once, linearly) and writes its
/// artifact into the summary under construction. Passes run in the
/// order they were registered; the standard pipeline orders the
/// classifier first because later passes read its ranges.
pub trait AnalysisPass {
    /// Stable name used in stats and CLI output.
    fn name(&self) -> &'static str;

    /// Runs the pass, contributing to `summary`. Returns the number of
    /// items produced (ranges, warnings, buckets — the pass's natural
    /// unit), which the manager records in [`PassStats`].
    fn run(&mut self, trace: &Trace, summary: &mut AnalysisSummary) -> u64;
}

/// Per-pass execution statistics reported by [`PassManager::run`].
#[derive(Clone, Debug)]
pub struct PassStats {
    /// The pass's [`AnalysisPass::name`].
    pub name: &'static str,
    /// Items the pass produced.
    pub items: u64,
    /// Wall-clock nanoseconds spent in the pass.
    pub nanos: u128,
}

/// Runs a sequence of [`AnalysisPass`]es over one trace.
#[derive(Default)]
pub struct PassManager {
    passes: Vec<Box<dyn AnalysisPass>>,
}

impl PassManager {
    /// An empty manager; add passes with [`PassManager::push`].
    pub fn new() -> Self {
        Self::default()
    }

    /// The standard pipeline: classification, then the lock graph —
    /// everything `dgrace analyze` emits.
    pub fn standard() -> Self {
        let mut m = Self::new();
        m.push(Box::new(crate::ClassifyPass));
        m.push(Box::new(crate::LockGraphPass));
        m
    }

    /// Appends a pass to the pipeline.
    pub fn push(&mut self, pass: Box<dyn AnalysisPass>) {
        self.passes.push(pass);
    }

    /// Runs every pass in order and returns the finished summary plus
    /// per-pass stats. The summary is stamped with the trace's content
    /// fingerprint before any pass runs, so even an empty pipeline
    /// produces a summary bound to its trace.
    pub fn run(&mut self, trace: &Trace) -> (AnalysisSummary, Vec<PassStats>) {
        let mut summary = AnalysisSummary {
            fingerprint: trace_fingerprint(trace),
            trace_events: trace.len() as u64,
            ..Default::default()
        };
        let mut stats = Vec::with_capacity(self.passes.len());
        for pass in &mut self.passes {
            let t0 = Instant::now();
            let items = pass.run(trace, &mut summary);
            stats.push(PassStats {
                name: pass.name(),
                items,
                nanos: t0.elapsed().as_nanos(),
            });
        }
        (summary, stats)
    }
}
