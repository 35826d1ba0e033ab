//! Vector clocks, epochs and adaptive read clocks for happens-before race
//! detection.
//!
//! This crate provides the logical-time substrate shared by every detector in
//! the `dgrace` workspace:
//!
//! * [`Tid`] — thread identifiers used to index vector clocks.
//! * [`VectorClock`] — a growable vector of logical clocks, one per thread,
//!   realizing Lamport's happens-before relation via the Fidge/Mattern
//!   construction.
//! * [`Epoch`] — FastTrack's `c@t` compressed representation of a single last
//!   access (one scalar clock plus the accessing thread).
//! * [`ReadClock`] — FastTrack's *adaptive* read representation: an epoch
//!   while reads are totally ordered, promoted to a full vector clock when a
//!   read is shared by concurrent threads.
//! * [`AccessClock`] — the unified "vector clock" of the dynamic-granularity
//!   paper, which treats both an epoch and a full vector clock as *a vector
//!   clock* for the purpose of the sharing decision (§III.A: "both a vector
//!   clock and an epoch representation are referred to as a vector clock").
//!
//! The types are deliberately small and allocation-conscious: an [`Epoch`]
//! is two machine words, and [`VectorClock`] only allocates when a clock for
//! a thread beyond its current capacity is touched.
//!
//! ```
//! use dgrace_vc::{Epoch, Tid, VectorClock};
//!
//! let mut t0 = VectorClock::new();
//! t0.set(Tid(0), 1);
//! let write = Epoch::new(1, Tid(0)); // "written by T0 at clock 1"
//!
//! // Another thread that never synchronized with T0:
//! let mut t1 = VectorClock::new();
//! t1.set(Tid(1), 1);
//! assert!(!write.leq(&t1), "the write is concurrent — a race witness");
//!
//! // After a release/acquire hand-off, T1 learns T0's clock:
//! t1.join(&t0);
//! assert!(write.leq(&t1), "now ordered");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod access;
mod epoch;
mod read_clock;
mod tid;
mod vector;

pub use access::{AccessClock, ClockView};
pub use epoch::Epoch;
pub use read_clock::ReadClock;
pub use tid::{ClockValue, Tid};
pub use vector::VectorClock;
