//! Event model and traces for `dgrace`.
//!
//! The paper instruments programs with Intel PIN: every shared memory access
//! and synchronization operation is delivered to the analysis as a callback
//! (`memoryRead(addr, size, tid)` in Fig. 3). Lacking a Rust dynamic-binary-
//! instrumentation substrate, `dgrace` preserves that interface as a stream
//! of [`Event`]s: a **trace** is the interleaved sequence of callbacks a PIN
//! tool would have observed for one execution.
//!
//! Detectors consume traces event-by-event (online), and the
//! `dgrace-runtime` crate produces the same events live from real threads.
//!
//! The crate provides:
//! * [`Event`], [`Addr`], [`LockId`], [`AccessSize`] — the event vocabulary;
//! * [`Trace`] and [`TraceBuilder`] — construction helpers;
//! * [`validate`] / [`Validator`] — structural well-formedness checks,
//!   over a whole trace or one event at a time;
//! * [`IdTable`] — per-id state without hashing, for the small ids
//!   traces use (the validator's tables and the detectors' lock clocks);
//! * [`io`] — a versioned binary on-disk format, its block decoder and
//!   [`BlockReader`], which validates a stream as it reads it;
//! * [`EventSource`] — a trace a block at a time, from memory or a file;
//! * [`stats`] — per-trace summary statistics (the "Total shared accesses"
//!   style columns of Table 1);
//! * [`summary`] — the [`AnalysisSummary`] artifact emitted by the
//!   ahead-of-time analysis and consumed by the prune filter/runtime.

//! ```
//! use dgrace_trace::{validate, AccessSize, TraceBuilder};
//!
//! let mut b = TraceBuilder::new();
//! b.fork(0u32, 1u32)
//!     .locked(1u32, 0u32, |b| {
//!         b.write(1u32, 0x100u64, AccessSize::U64);
//!     })
//!     .join(0u32, 1u32);
//! let trace = b.build();
//! assert!(validate(&trace).is_ok());
//! assert_eq!(trace.thread_count(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod event;
pub mod frame;
mod id_table;
pub mod io;
pub mod snapshot;
pub mod stats;
pub mod summary;
mod validate;

pub use builder::TraceBuilder;
pub use event::{AccessSize, Addr, Event, LockId};
pub use frame::{
    decode_event_at, decode_events, encode_events, read_frame, write_frame, DecodedBatch, Frame,
    MAX_FRAME_LEN,
};
pub use id_table::IdTable;
pub use io::{BlockReader, DecodeLimits, DecodeStats, ReadOptions, TraceError, TraceFacts};
pub use snapshot::{
    crc32, seal_crc, verify_crc, write_file_atomic, SnapshotLimits, SnapshotReader, SnapshotWriter,
    CHECKPOINT_MAGIC, CHECKPOINT_VERSION, STATE_MAGIC, STATE_VERSION,
};
pub use summary::{
    trace_fingerprint, AnalysisSummary, AnalysisWarning, ClassCounts, ClassifiedRange, Fingerprint,
    LocationClass, PruneSet, SummaryStats, SUMMARY_VERSION,
};
pub use validate::{validate, ValidationError, Validator};

pub use dgrace_vc::Tid;

/// An execution trace: the interleaved stream of instrumentation callbacks
/// for one program run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    /// The events in global interleaving order.
    pub events: Vec<Event>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace { events: Vec::new() }
    }

    /// Creates a trace from a list of events.
    pub fn from_events(events: Vec<Event>) -> Self {
        Trace { events }
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if the trace has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterates over the events.
    pub fn iter(&self) -> std::slice::Iter<'_, Event> {
        self.events.iter()
    }

    /// The number of threads appearing in the trace (max tid + 1).
    pub fn thread_count(&self) -> usize {
        self.events
            .iter()
            .flat_map(Event::tids)
            .map(|t| t.index() + 1)
            .max()
            .unwrap_or(0)
    }
}

/// A trace delivered a block of events at a time: what a replay walks.
///
/// The two sources are a [`Trace`] in memory (one block) and a
/// [`BlockReader`] decoding a `.dgrt` stream (a reused block of a few
/// thousand events, so the trace is never held whole).
pub trait EventSource {
    /// Events still to come, when known: a trace in memory knows its
    /// length, a stream only when an earlier pass counted it. Before the
    /// first block, the length of the whole trace.
    fn remaining(&self) -> Option<u64>;

    /// The next events in trace order; an empty block ends the trace.
    fn next_block(&mut self) -> Result<&[Event], TraceError>;
}

impl EventSource for &Trace {
    fn remaining(&self) -> Option<u64> {
        Some(self.events.len() as u64)
    }

    fn next_block(&mut self) -> Result<&[Event], TraceError> {
        static DRAINED: Trace = Trace { events: Vec::new() };
        Ok(&std::mem::replace(self, &DRAINED).events)
    }
}

/// A source lent to a run, so that its owner can read what the source
/// learned ([`BlockReader::finish`]) once the run is over.
impl<S: EventSource + ?Sized> EventSource for &mut S {
    fn remaining(&self) -> Option<u64> {
        (**self).remaining()
    }

    fn next_block(&mut self) -> Result<&[Event], TraceError> {
        (**self).next_block()
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a Event;
    type IntoIter = std::slice::Iter<'a, Event>;
    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

impl IntoIterator for Trace {
    type Item = Event;
    type IntoIter = std::vec::IntoIter<Event>;
    fn into_iter(self) -> Self::IntoIter {
        self.events.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_count_spans_all_event_kinds() {
        let mut b = TraceBuilder::new();
        b.fork(Tid(0), Tid(3));
        let t = b.build();
        assert_eq!(t.thread_count(), 4);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn empty_trace() {
        let t = Trace::new();
        assert_eq!(t.thread_count(), 0);
        assert!(t.is_empty());
    }
}
