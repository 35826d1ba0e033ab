//! # dgrace — dynamic-granularity data race detection
//!
//! A Rust reproduction of *"Efficient Data Race Detection for C/C++
//! Programs Using Dynamic Granularity"* (Song & Lee, IPDPS 2014).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`vc`] — vector clocks, epochs and adaptive read clocks;
//! * [`trace`] — the event model and trace format (the PIN-callback
//!   substitute);
//! * [`shadow`] — shadow memory and the memory-accounting model;
//! * [`detectors`] — the `Detector` trait, DJIT+, FastTrack at fixed
//!   granularities, and the exact oracle;
//! * [`core`] — the paper's contribution: the dynamic-granularity
//!   detector with its vector-clock sharing state machine;
//! * [`baselines`] — a segment-based detector (Valgrind DRD's class), an
//!   Eraser-style LockSet detector, and a hybrid detector (Intel
//!   Inspector XE's class);
//! * [`workloads`] — synthetic generators modeled on the paper's 11
//!   benchmark programs;
//! * [`runtime`] — an online instrumentation runtime for real Rust
//!   threads;
//! * [`analysis`] — the ahead-of-time trace analysis that proves
//!   locations race-free so detectors can prune them.
//!
//! ## Quick start
//!
//! ```
//! use dgrace::prelude::*;
//!
//! // Two threads write the same word without synchronization.
//! let mut b = TraceBuilder::new();
//! b.fork(0u32, 1u32)
//!     .write(0u32, 0x1000u64, AccessSize::U32)
//!     .write(1u32, 0x1000u64, AccessSize::U32);
//! let trace = b.build();
//!
//! let mut det = DynamicGranularity::new();
//! let report = det.run(&trace);
//! assert_eq!(report.races.len(), 1);
//! ```

pub use dgrace_analysis as analysis;
pub use dgrace_baselines as baselines;
pub use dgrace_core as core;
pub use dgrace_detectors as detectors;
pub use dgrace_runtime as runtime;
pub use dgrace_shadow as shadow;
pub use dgrace_trace as trace;
pub use dgrace_vc as vc;
pub use dgrace_workloads as workloads;

/// Commonly used items, importable with `use dgrace::prelude::*`.
pub mod prelude {
    pub use dgrace_analysis::analyze;
    pub use dgrace_baselines::{HybridDetector, LockSetDetector, SegmentDetector};
    pub use dgrace_core::{DynamicConfig, DynamicGranularity};
    pub use dgrace_detectors::{
        Detector, DetectorExt, Djit, FastTrack, Granularity, NopDetector, RaceReport, Report,
    };
    pub use dgrace_trace::{AccessSize, Addr, Event, LockId, Tid, Trace, TraceBuilder};
    pub use dgrace_workloads::{Workload, WorkloadKind};
}
