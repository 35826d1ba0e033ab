//! The experiment harness: shared machinery for regenerating every table
//! and figure of the paper.
//!
//! Each `table*` binary in `src/bin/` prints one table in the paper's row
//! and column layout; absolute numbers come from this machine (and from
//! the synthetic workloads), but the *shapes* — who wins, by what factor,
//! where sharing does not help — are the reproduction targets recorded in
//! `EXPERIMENTS.md`.
//!
//! ```text
//! cargo run --release -p dgrace-bench --bin table1 [-- --scale 1.0]
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Instant;

use dgrace_baselines::{HybridDetector, SegmentDetector};
use dgrace_core::{DynamicConfig, DynamicGranularity};
use dgrace_detectors::{Detector, DetectorExt, FastTrack, Granularity, NopDetector, Report};
use dgrace_trace::{stats::stats, Trace};
use dgrace_workloads::{GroundTruth, Workload, WorkloadKind};

/// One timed detector run.
#[derive(Debug)]
pub struct RunResult {
    /// Detector name.
    pub detector: String,
    /// Wall-clock seconds for the whole trace.
    pub secs: f64,
    /// The detector's report.
    pub report: Report,
}

/// Runs `det` over `trace` three times and reports the median wall time
/// (single runs at millisecond scale are too noisy for stable ratios).
pub fn run_timed(det: &mut dyn Detector, trace: &Trace) -> RunResult {
    let mut times = Vec::with_capacity(3);
    let mut report = None;
    for _ in 0..3 {
        let start = Instant::now();
        let rep = det.run(trace);
        times.push(start.elapsed().as_secs_f64());
        report = Some(rep);
    }
    times.sort_by(f64::total_cmp);
    let report = report.expect("ran at least once");
    RunResult {
        detector: report.detector.clone(),
        secs: times[1],
        report,
    }
}

/// The "uninstrumented" base: replaying the trace through the no-op
/// detector. Returns seconds (median of three runs).
pub fn base_time(trace: &Trace) -> f64 {
    let mut times: Vec<f64> = (0..3)
        .map(|_| run_timed(&mut NopDetector::default(), trace).secs)
        .collect();
    times.sort_by(f64::total_cmp);
    times[1]
}

/// A generated workload with its base measurements.
pub struct Prepared {
    /// Which benchmark.
    pub kind: WorkloadKind,
    /// The generated trace.
    pub trace: Trace,
    /// Planted ground truth.
    pub truth: GroundTruth,
    /// Base (no-op replay) seconds.
    pub base_secs: f64,
    /// Base memory: the program's own touched bytes.
    pub base_bytes: u64,
    /// Total shared accesses.
    pub accesses: u64,
    /// Thread count (including main).
    pub threads: usize,
}

/// Generates a workload and measures its base costs.
pub fn prepare(kind: WorkloadKind, scale: f64) -> Prepared {
    let (trace, truth) = Workload::new(kind).with_scale(scale).generate();
    let s = stats(&trace);
    let base_secs = base_time(&trace);
    Prepared {
        kind,
        trace,
        truth,
        base_secs,
        base_bytes: s.distinct_bytes.max(1),
        accesses: s.accesses,
        threads: s.threads,
    }
}

impl Prepared {
    /// Slowdown of a run relative to the no-op base.
    pub fn slowdown(&self, r: &RunResult) -> f64 {
        r.secs / self.base_secs.max(1e-9)
    }

    /// Memory-overhead factor: (program bytes + detector peak bytes) /
    /// program bytes, the paper's "ratio to the maximum memory used in
    /// the un-instrumented program execution".
    pub fn mem_overhead(&self, r: &RunResult) -> f64 {
        1.0 + r.report.stats.peak_total_bytes as f64 / self.base_bytes as f64
    }
}

/// The three granularities of Tables 1–4.
pub fn granularity_suite() -> Vec<Box<dyn Detector>> {
    vec![
        Box::new(FastTrack::with_granularity(Granularity::Byte)),
        Box::new(FastTrack::with_granularity(Granularity::Word)),
        Box::new(DynamicGranularity::new()),
    ]
}

/// The Table 6 case-study suite: DRD-class, Inspector-class, dynamic.
pub fn case_study_suite() -> Vec<Box<dyn Detector>> {
    vec![
        Box::new(SegmentDetector::new()),
        Box::new(HybridDetector::new()),
        Box::new(DynamicGranularity::new()),
    ]
}

/// The Table 5 state-machine ablation suite.
pub fn ablation_suite() -> Vec<(String, DynamicConfig)> {
    vec![
        (
            "no-sharing-at-init".into(),
            DynamicConfig::no_sharing_at_init(),
        ),
        ("sharing-at-init".into(), DynamicConfig::paper_default()),
        ("no-init-state".into(), DynamicConfig::no_init_state()),
        ("with-init-state".into(), DynamicConfig::paper_default()),
    ]
}

/// Parses `--scale X` (default 0.3: tables finish in seconds; pass 1.0
/// for paper-sized runs) and `--bench <name>` filters from `args`.
pub fn parse_args() -> (f64, Option<WorkloadKind>) {
    let args: Vec<String> = std::env::args().collect();
    let mut scale = 0.3;
    let mut filter = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                scale = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .expect("--scale needs a positive number");
                i += 2;
            }
            "--bench" => {
                let name = args.get(i + 1).expect("--bench needs a name");
                filter = Some(
                    WorkloadKind::from_name(name)
                        .unwrap_or_else(|| panic!("unknown benchmark {name}")),
                );
                i += 2;
            }
            other => panic!("unknown argument {other} (use --scale X / --bench name)"),
        }
    }
    (scale, filter)
}

/// The workloads selected by a filter.
pub fn selected(filter: Option<WorkloadKind>) -> Vec<WorkloadKind> {
    match filter {
        Some(k) => vec![k],
        None => WorkloadKind::ALL.to_vec(),
    }
}

/// Plain-text table printer: pads each column to its widest cell.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:>w$}", c, w = widths[i]));
            }
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats a float with 2 decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats bytes as KiB with one decimal.
pub fn kib(bytes: usize) -> String {
    format!("{:.1}", bytes as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgrace_trace::{AccessSize, TraceBuilder};

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["prog", "x"]);
        t.row(vec!["facesim".into(), "1.25".into()]);
        t.row(vec!["x".into(), "10".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("prog"));
        assert!(lines[2].ends_with("1.25"));
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn table_rejects_bad_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["x".into()]);
    }

    #[test]
    fn run_timed_and_overheads() {
        let mut b = TraceBuilder::new();
        for i in 0..100u64 {
            b.write(0u32, 0x100 + i * 4, AccessSize::U32);
        }
        let trace = b.build();
        let mut det = FastTrack::new();
        let r = run_timed(&mut det, &trace);
        assert!(r.secs >= 0.0);
        assert_eq!(r.report.stats.accesses, 100);

        let p = prepare(WorkloadKind::Hmmsearch, 0.02);
        assert!(p.base_bytes > 0);
        assert!(p.accesses > 0);
        let mut det = FastTrack::new();
        let r = run_timed(&mut det, &p.trace);
        assert!(p.mem_overhead(&r) > 1.0);
    }

    #[test]
    fn suites_have_expected_sizes() {
        assert_eq!(granularity_suite().len(), 3);
        assert_eq!(case_study_suite().len(), 3);
        assert_eq!(ablation_suite().len(), 4);
    }
}
