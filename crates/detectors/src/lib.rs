//! The `Detector` trait and the reference happens-before detectors.
//!
//! This crate hosts everything a vector-clock race detector needs besides
//! the dynamic-granularity algorithm itself (which lives in `dgrace-core`):
//!
//! * [`Detector`] / [`DetectorExt`] — the event-driven detector interface
//!   (the analysis side of the PIN callbacks), plus [`Report`] /
//!   [`RaceReport`] / [`DetectorStats`];
//! * [`HbState`] — shared happens-before machinery: per-thread vector
//!   clocks, lock clocks, fork/join edges and epoch numbering (a new epoch
//!   at every lock release, as in DJIT+);
//! * [`Granularity`] — byte/word/fixed-size address masking;
//! * [`Djit`] — the DJIT+ detector of §II.B (full per-location read/write
//!   vector clocks);
//! * [`FastTrack`] — FastTrack (§II.C) at a fixed granularity: epochs for
//!   writes, adaptive read clocks;
//! * [`OracleDetector`] — an exact, history-keeping first-race oracle used
//!   as ground truth in tests (quadratic memory; not for production);
//! * [`NopDetector`] — consumes events and does nothing; the "base time"
//!   measurement of the slowdown tables;
//! * [`Sampled`] — the always-on sampling tier: wraps any detector with
//!   per-location budgets (`loc:K`), trading recall for bounded
//!   overhead while keeping every decision deterministic and resumable.

//! ```
//! use dgrace_detectors::{DetectorExt, FastTrack, OracleDetector};
//! use dgrace_trace::{AccessSize, TraceBuilder};
//!
//! let mut b = TraceBuilder::new();
//! b.fork(0u32, 1u32)
//!     .write(0u32, 0x10u64, AccessSize::U32)
//!     .write(1u32, 0x10u64, AccessSize::U32); // unsynchronized
//! let trace = b.build();
//! let fast = FastTrack::new().run(&trace);
//! let exact = OracleDetector::new().run(&trace);
//! assert_eq!(fast.race_addrs(), exact.race_addrs());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod detector;
mod djit;
mod fasttrack;
mod filter;
mod fixed;
mod govern;
mod granularity;
mod hb;
mod nop;
mod oracle;
mod report;
mod sample;
mod shard;
pub mod snap;

pub use detector::{Detector, DetectorExt};
pub use djit::Djit;
pub use fasttrack::FastTrack;
pub use filter::StaticPruneFilter;
pub use govern::{Governed, GovernorSpec, DECISION_INTERVAL};
pub use granularity::Granularity;
pub use hb::HbState;
pub use nop::NopDetector;
pub use oracle::OracleDetector;
pub use report::{
    AccessKind, DetectorStats, GovernorReport, GovernorTransition, RaceKind, RaceReport, Report,
    ShardFailure, SharingStats,
};
pub use sample::{SampleSpec, SampleStrategy, Sampled, Sampler, LOC_GRANULE};
pub use shard::{merge_shard_reports, race_signature, sort_races, ShardableDetector};
