//! Live ingestion sessions: the engine wrapper behind `dgrace serve`.
//!
//! Offline replay walks a [`dgrace_trace::EventSource`] of known length
//! to its end; a server session receives its events incrementally from
//! a socket and must interleave feeding with race streaming, checkpointing, and an
//! eventual finalize — without ever holding the whole stream in memory.
//! [`IngestSession`] packages the sharded [`Engine`](crate::engine) for
//! that shape:
//!
//! * **Replay-exact feeding.** A session *is* the replay driver on
//!   inline lanes, stepped from a socket instead of walked over a
//!   `Trace` (see [`crate::replay`] and [`crate::pipeline`]): accesses
//!   are routed and staged per shard, `Alloc` events register their
//!   range with the router first, and every sync event, full segment,
//!   [`IngestSession::flush`] and checkpoint feeds the staged segments
//!   to their shards. A live session that feeds the same event sequence
//!   as an offline replay produces a byte-identical report. A segment
//!   holds at most `SEGMENT_EVENTS` per shard, so a sync-free stream
//!   cannot grow what a session stages.
//! * **Incremental race streaming.** [`IngestSession::drain_new_races`]
//!   reads each shard's live accumulator (via
//!   `Detector::races_so_far`) past a per-shard watermark — nothing is
//!   removed, so detector snapshots and the final report are unaffected
//!   by how often the caller drains.
//! * **Crash durability.** [`IngestSession::checkpoint`] captures the
//!   engine into the same [`CheckpointManifest`] (`DGCP`) container the
//!   offline paths persist; [`IngestSession::resume`] restores one into
//!   a fresh session. For a live stream the trace length is unknown, so
//!   the manifest records `trace_len == trace_offset == events fed`; a
//!   resumed session reports how many events it already covers and the
//!   client replays only the suffix.
//! * **Memory cap.** A session built with a quota gives each shard its
//!   slice as the detector's own shadow budget, so the session holds its
//!   quota the way a capped `detect` run holds its `--memory-limit`: a
//!   capped 1-shard session reports what `detect --memory-limit quota`
//!   does on the same events.

use dgrace_detectors::{RaceReport, Report, ShardableDetector};
use dgrace_trace::{Event, PruneSet};

use crate::checkpoint::CheckpointManifest;
use crate::engine::{mint, Engine};
use crate::pipeline::Lanes;
use crate::replay::{resume_from, Driver, ReplayError, INLINE_INFALLIBLE};

/// One live detection session: a sharded engine fed incrementally.
///
/// Sessions are single-consumer (the server drives each from its
/// client's connection handler); the engine underneath still shards the
/// analysis by address exactly like offline replay.
pub struct IngestSession {
    engine: Engine,
    driver: Driver<'static>,
    /// Per-shard positions into `races_so_far()` already drained.
    watermarks: Vec<usize>,
}

impl IngestSession {
    /// Builds a session: `shards` instances of the prototype behind an
    /// address-routing engine. `quota` is the session's memory cap:
    /// `Some(q)` gives each shard `q / shards` as its shadow budget;
    /// `None` is uncapped.
    pub fn new<D: ShardableDetector + ?Sized>(
        prototype: &D,
        shards: usize,
        quota: Option<u64>,
    ) -> Self {
        let mut detectors = mint(prototype, shards);
        if let Some(q) = quota {
            let slice = q / detectors.len() as u64;
            for det in &mut detectors {
                det.set_shadow_budget(Some(slice.max(1)));
            }
        }
        let lanes = Lanes::inline(detectors.len());
        IngestSession {
            watermarks: vec![0; detectors.len()],
            engine: Engine::build(detectors, false, PruneSet::empty()),
            driver: Driver::new(lanes, prototype.name(), 0, None),
        }
    }

    /// The prototype detector's name (checkpoint identity).
    pub fn detector(&self) -> &str {
        &self.driver.det_name
    }

    /// Number of detector shards.
    pub fn shards(&self) -> usize {
        self.watermarks.len()
    }

    /// Logical events fed so far — the offset of the next event.
    pub fn events(&self) -> u64 {
        self.driver.offset
    }

    /// Feeds one event, preserving offline replay's ordering rules.
    pub fn feed(&mut self, ev: &Event) {
        self.driver.step(&self.engine, ev).expect(INLINE_INFALLIBLE);
    }

    /// Feeds a batch of events in order.
    pub fn feed_all(&mut self, events: &[Event]) {
        for ev in events {
            self.feed(ev);
        }
    }

    /// Feeds every staged event to its shard.
    pub fn flush(&mut self) {
        self.driver.lanes.flush(&self.engine);
    }

    /// Races reported since the last drain, across all shards. The
    /// detector accumulators are read, not consumed: snapshots and the
    /// final report are byte-identical no matter how often (or whether)
    /// this is called. Quarantined shards contribute nothing.
    pub fn drain_new_races(&mut self) -> Vec<RaceReport> {
        self.flush();
        self.engine.new_races(&mut self.watermarks)
    }

    /// Captures the session as a persistable [`CheckpointManifest`].
    /// The stream has no known end, so `trace_len` records the events
    /// covered so far (equal to `trace_offset`).
    pub fn checkpoint(&mut self) -> CheckpointManifest {
        self.driver.manifest(&self.engine).expect(INLINE_INFALLIBLE)
    }

    /// Restores a [`checkpoint`](IngestSession::checkpoint) into this
    /// freshly built session (same detector, same shard count). After a
    /// successful resume [`events`](IngestSession::events) reports the
    /// covered prefix; feeding the stream's suffix from that offset
    /// reproduces the uninterrupted run byte-identically. Races already
    /// drained by the previous incarnation are not re-drained (the
    /// final report still carries the complete set).
    pub fn resume(&mut self, m: &CheckpointManifest) -> Result<(), ReplayError> {
        if self.events() != 0 {
            return Err(ReplayError::Mismatch(
                "resume into a session that already fed events".to_string(),
            ));
        }
        self.driver.offset = resume_from(&self.engine, m, &self.driver.det_name, None)?;
        // Races inside the restored snapshots were streamed by the
        // previous incarnation; start watermarks past them.
        self.watermarks.fill(0);
        let _ = self.engine.new_races(&mut self.watermarks);
        Ok(())
    }

    /// Finishes the session: flushes, finalizes every shard, and merges
    /// the reports (exact event counts, quarantine accounting included).
    pub fn finalize(mut self) -> Report {
        self.driver.finish(&self.engine).expect(INLINE_INFALLIBLE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgrace_detectors::{race_signature, DetectorExt, FastTrack};
    use dgrace_trace::{AccessSize, Trace, TraceBuilder};

    fn racy_trace() -> Trace {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32)
            .write(0u32, 0x100u64, AccessSize::U64)
            .write(1u32, 0x100u64, AccessSize::U64)
            .locked(0u32, 0u32, |b| {
                b.write(0u32, 0x5000u64, AccessSize::U64);
            })
            .locked(1u32, 0u32, |b| {
                b.write(1u32, 0x5000u64, AccessSize::U64);
            })
            .join(0u32, 1u32);
        b.build()
    }

    #[test]
    fn session_matches_offline_run() {
        let trace = racy_trace();
        let solo = FastTrack::new().run(&trace);
        for shards in [1usize, 2, 4] {
            let mut s = IngestSession::new(&FastTrack::new(), shards, None);
            s.feed_all(&trace.events);
            let rep = s.finalize();
            assert_eq!(
                race_signature(&rep),
                race_signature(&solo),
                "shards={shards}"
            );
            assert_eq!(rep.stats.events, trace.len() as u64);
        }
    }

    #[test]
    fn incremental_drain_does_not_perturb_final_report() {
        let trace = racy_trace();
        let solo = FastTrack::new().run(&trace);
        let mut s = IngestSession::new(&FastTrack::new(), 2, None);
        let mut streamed = 0usize;
        for ev in trace.iter() {
            s.feed(ev);
            streamed += s.drain_new_races().len();
        }
        assert!(streamed > 0, "races streamed incrementally");
        // A second drain with no new events yields nothing.
        assert!(s.drain_new_races().is_empty());
        let rep = s.finalize();
        assert_eq!(race_signature(&rep), race_signature(&solo));
        assert_eq!(streamed, rep.races.len());
    }

    #[test]
    fn checkpoint_resume_is_byte_identical() {
        let trace = racy_trace();
        for shards in [1usize, 2] {
            let mut whole = IngestSession::new(&FastTrack::new(), shards, None);
            whole.feed_all(&trace.events);
            let want = whole.finalize();

            for cut in 0..trace.len() {
                let mut first = IngestSession::new(&FastTrack::new(), shards, None);
                first.feed_all(&trace.events[..cut]);
                let m = first.checkpoint();
                assert_eq!(m.trace_offset, cut as u64);
                drop(first);

                let mut second = IngestSession::new(&FastTrack::new(), shards, None);
                second.resume(&m).expect("resume");
                assert_eq!(second.events(), cut as u64);
                second.feed_all(&trace.events[cut..]);
                let got = second.finalize();
                assert_eq!(
                    race_signature(&got),
                    race_signature(&want),
                    "shards={shards} cut={cut}"
                );
                assert_eq!(got.stats.events, want.stats.events, "cut={cut}");
            }
        }
    }

    #[test]
    fn resume_rejects_mismatches() {
        let mut a = IngestSession::new(&FastTrack::new(), 2, None);
        a.feed(&Event::Fork {
            parent: dgrace_trace::Tid(0),
            child: dgrace_trace::Tid(1),
        });
        let m = a.checkpoint();
        let mut wrong_shards = IngestSession::new(&FastTrack::new(), 3, None);
        assert!(wrong_shards.resume(&m).is_err());
        let mut wrong_det = IngestSession::new(&dgrace_detectors::Djit::new(), 2, None);
        assert!(wrong_det.resume(&m).is_err());
        let mut used = IngestSession::new(&FastTrack::new(), 2, None);
        used.feed(&Event::Fork {
            parent: dgrace_trace::Tid(0),
            child: dgrace_trace::Tid(1),
        });
        assert!(used.resume(&m).is_err());
    }
}
