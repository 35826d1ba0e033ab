//! Race reports and detector statistics.

use std::fmt;

use dgrace_shadow::{MemClass, MemoryModel};
use dgrace_trace::{Addr, SnapshotReader, SnapshotWriter, TraceError};
use dgrace_vc::{Epoch, Tid};

/// Whether an access is a read or a write.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A memory read.
    Read,
    /// A memory write.
    Write,
}

impl AccessKind {
    /// `true` for writes.
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }

    /// Builds from a write flag.
    pub fn from_write(w: bool) -> Self {
        if w {
            AccessKind::Write
        } else {
            AccessKind::Read
        }
    }
}

/// The kind of a data race, named `<previous>-<current>` like the paper
/// ("a write-read data race is reported" when a read races a prior write).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RaceKind {
    /// Concurrent writes.
    WriteWrite,
    /// A write concurrent with a *previous* read.
    ReadWrite,
    /// A read concurrent with a *previous* write.
    WriteRead,
}

impl fmt::Display for RaceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RaceKind::WriteWrite => "write-write",
            RaceKind::ReadWrite => "read-write",
            RaceKind::WriteRead => "write-read",
        };
        f.write_str(s)
    }
}

/// One detected data race (the first race on its location).
///
/// Mirrors the information the paper's tool reports: "the location of a
/// race along with the previous access location, thread ids, and the race
/// memory address".
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RaceReport {
    /// The racy location (access base address after granularity masking).
    pub addr: Addr,
    /// Race classification.
    pub kind: RaceKind,
    /// The current (second) access: thread and epoch.
    pub current: Epoch,
    /// The previous access it races with.
    pub previous: Epoch,
    /// Index of the triggering event in the trace, when known.
    pub event_index: Option<u64>,
    /// For the dynamic-granularity detector: how many locations were
    /// sharing the vector clock when the race fired (1 = private). Fixed-
    /// granularity detectors always report 1.
    pub share_count: u32,
    /// For the dynamic-granularity detector: `true` if the witnessing
    /// clock was ever shared with neighbors — the report may then be a
    /// sharing artifact and deserves manual confirmation (the paper's
    /// x264/streamcluster discrepancies are exactly these).
    pub tainted: bool,
}

impl RaceReport {
    /// Serializes the race into a snapshot stream (races found before a
    /// checkpoint must survive a restore).
    pub fn encode(&self, w: &mut SnapshotWriter) {
        w.u64(self.addr.0);
        w.u8(match self.kind {
            RaceKind::WriteWrite => 0,
            RaceKind::ReadWrite => 1,
            RaceKind::WriteRead => 2,
        });
        for e in [self.current, self.previous] {
            w.u32(e.clock);
            w.u32(e.tid.0);
        }
        match self.event_index {
            Some(i) => {
                w.bool(true);
                w.u64(i);
            }
            None => w.bool(false),
        }
        w.u32(self.share_count);
        w.bool(self.tainted);
    }

    /// Rebuilds a race from [`RaceReport::encode`]d bytes.
    pub fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, TraceError> {
        let addr = Addr(r.u64()?);
        let at = r.offset();
        let kind = match r.u8()? {
            0 => RaceKind::WriteWrite,
            1 => RaceKind::ReadWrite,
            2 => RaceKind::WriteRead,
            tag => return Err(TraceError::BadTag { offset: at, tag }),
        };
        let current = Epoch::new(r.u32()?, Tid(r.u32()?));
        let previous = Epoch::new(r.u32()?, Tid(r.u32()?));
        let event_index = if r.bool()? { Some(r.u64()?) } else { None };
        let share_count = r.u32()?;
        let tainted = r.bool()?;
        Ok(RaceReport {
            addr,
            kind,
            current,
            previous,
            event_index,
            share_count,
            tainted,
        })
    }
}

/// Statistics a detector gathers over a run — the raw material for
/// Tables 1–4.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DetectorStats {
    /// All events processed.
    pub events: u64,
    /// Memory-access events processed.
    pub accesses: u64,
    /// Accesses dropped before detection by a static prune filter (so
    /// `accesses` counts only what was actually checked; the trace had
    /// `accesses + pruned` access events).
    pub pruned: u64,
    /// Accesses that took the same-epoch fast path (Table 4).
    pub same_epoch: u64,
    /// Vector-clock objects created.
    pub vc_allocs: u64,
    /// Vector-clock objects destroyed.
    pub vc_frees: u64,
    /// Peak number of simultaneously live vector-clock objects (Table 3).
    pub peak_vc_count: usize,
    /// Peak modeled bytes of hash/indexing structures (Table 2 "Hash").
    pub peak_hash_bytes: usize,
    /// Peak modeled bytes of vector clocks (Table 2 "Vector clock").
    pub peak_vc_bytes: usize,
    /// Peak modeled bytes of access bitmaps (Table 2 "Bitmap"): segment-drd
    /// charges its segment bitmaps here. 0 for the happens-before
    /// detectors, which answer the same-epoch test from the location's
    /// shadow entry instead of a per-thread bitmap.
    pub peak_bitmap_bytes: usize,
    /// Peak of the instantaneous total (Table 2 "Overhead total").
    pub peak_total_bytes: usize,
    /// Events that were *never* analyzed because their shard had been
    /// quarantined after a panic (see [`ShardFailure`]): the unprocessed
    /// remainder of the panicking batch plus everything that arrived
    /// after the quarantine.
    pub dropped: u64,
    /// Events a permanently quarantined shard had *analyzed* before it
    /// failed — analysis results that die with the shard. Strictly
    /// disjoint from `dropped`: `dropped + events_lost` is the exact
    /// total coverage forfeited by shard failures, with no event counted
    /// in both buckets (an event routed to a dead shard lands in exactly
    /// one of them, even when the shard was also under memory-budget
    /// eviction pressure).
    pub events_lost: u64,
    /// Shadow cells discarded by memory-budget eviction (see
    /// [`Report::budget_degraded`]).
    pub evicted: u64,
    /// Accesses the sampling tier admitted to the wrapped detector
    /// (0 when the run is unsampled; equals `accesses` at 100% budget).
    pub sample_admitted: u64,
    /// Accesses the sampling tier skipped without analysis. Like
    /// `pruned`, skipped accesses still count in `events` — the trace
    /// had `accesses + pruned + sample_skipped` access events.
    pub sample_skipped: u64,
    /// Dynamic-granularity sharing statistics, if applicable.
    pub sharing: Option<SharingStats>,
}

impl DetectorStats {
    /// Fills the five peak columns of Table 2/3 from a detector's memory
    /// model.
    pub fn set_peaks(&mut self, model: &MemoryModel) {
        self.peak_vc_count = model.peak_vc_count();
        self.peak_hash_bytes = model.peak(MemClass::Hash);
        self.peak_vc_bytes = model.peak(MemClass::VectorClock);
        self.peak_bitmap_bytes = model.peak(MemClass::Bitmap);
        self.peak_total_bytes = model.peak_total();
    }

    /// Fraction of accesses that hit the same-epoch fast path.
    pub fn same_epoch_fraction(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.same_epoch as f64 / self.accesses as f64
        }
    }
}

/// Sharing behaviour of the dynamic-granularity detector (Table 3).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SharingStats {
    /// Sharing decisions that joined a location to a neighbor's clock.
    pub shares: u64,
    /// Splits (copy-on-write un-sharings).
    pub splits: u64,
    /// Average locations per vector clock at the moment of peak VC count
    /// (Table 3 "Avg. sharing count").
    pub avg_share_count: f64,
    /// Largest sharing group observed.
    pub max_group: u32,
}

/// Diagnostic record for a detector shard that panicked and was
/// quarantined by the runtime.
///
/// The run continues without the shard: its accesses are counted in
/// [`DetectorStats::dropped`] and the final [`Report`] carries the healthy
/// shards' exact race set plus one of these per casualty.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardFailure {
    /// Index of the shard that panicked.
    pub shard: usize,
    /// Global event sequence number at which the panic fired.
    pub event_seq: u64,
    /// The panic payload rendered as text (the message for string
    /// payloads, a formatted value for common primitive payloads, a
    /// placeholder otherwise).
    pub payload: String,
    /// What the panic payload actually was: `"str"` for `&str`/`String`
    /// (the common case), a primitive type name like `"u64"` when the
    /// payload downcast to one, or `"opaque"` when it could not be
    /// rendered at all.
    pub payload_type: String,
    /// The event the shard was processing when it panicked, rendered as
    /// kind + address (e.g. `"write 0x1100 (4 bytes) by t2"`), when known.
    pub last_event: Option<String>,
}

impl ShardFailure {
    /// Builds a failure record for a plain string panic payload with no
    /// captured event context — the common case in tests and decoding.
    pub fn new(shard: usize, event_seq: u64, payload: impl Into<String>) -> Self {
        ShardFailure {
            shard,
            event_seq,
            payload: payload.into(),
            payload_type: "str".into(),
            last_event: None,
        }
    }
}

impl fmt::Display for ShardFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shard {} quarantined at event {}: {}",
            self.shard, self.event_seq, self.payload
        )?;
        if self.payload_type != "str" {
            write!(f, " [payload type: {}]", self.payload_type)?;
        }
        if let Some(ev) = &self.last_event {
            write!(f, " [last event: {ev}]")?;
        }
        Ok(())
    }
}

/// One rung change made by the memory governor, at a deterministic
/// decision point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GovernorTransition {
    /// Shard-local event count at the decision point that took the step.
    pub event: u64,
    /// Shard the transition happened on (stamped by
    /// [`crate::merge_shard_reports`]; 0 for unsharded runs).
    pub shard: usize,
    /// Rung before the step (0 = free, 1 = evicting).
    pub from: u8,
    /// Rung after the step.
    pub to: u8,
    /// Modeled shadow bytes the decision assessed.
    pub assessed_bytes: u64,
}

/// Memory-governor outcome for a run: only attached to a [`Report`] when
/// the governor actually engaged (climbed above rung 0), so an
/// all-headroom governed run reports byte-identically to an ungoverned
/// one.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GovernorReport {
    /// Per-shard byte quota the cap assessed against.
    pub limit: u64,
    /// Highest rung reached: 1 whenever this report is attached.
    pub peak_rung: u8,
    /// Rung at the end of the run.
    pub final_rung: u8,
    /// Decision points evaluated.
    pub decisions: u64,
    /// Highest assessed shadow-byte figure seen at a decision point.
    pub peak_assessed_bytes: u64,
    /// Times the cap engaged (steps onto rung 1).
    pub engaged: u64,
    /// Every rung change, in `(event, shard)` order after a merge.
    pub transitions: Vec<GovernorTransition>,
}

/// The outcome of a detector run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Report {
    /// Detector name (e.g. `fasttrack-byte`, `dynamic`).
    pub detector: String,
    /// Detected races, in detection order; first race per location.
    pub races: Vec<RaceReport>,
    /// Run statistics.
    pub stats: DetectorStats,
    /// Shards that panicked and were quarantined mid-run. Non-empty means
    /// the race set covers only the surviving shards' address slices.
    pub failures: Vec<ShardFailure>,
    /// True when the shadow-memory budget forced cold-state eviction:
    /// races whose prior access was evicted may be missed, but every race
    /// reported is still real.
    pub budget_degraded: bool,
    /// Memory-governor activity, when it engaged (see
    /// [`GovernorReport`]).
    pub governor: Option<GovernorReport>,
    /// True when a checkpoint write failed mid-run (disk full, I/O
    /// error): detection continued and the results are exact, but the
    /// resume point is stuck at the last manifest that *did* write.
    pub checkpointing_degraded: bool,
}

impl Report {
    /// The set of racy locations, sorted and deduplicated.
    pub fn race_addrs(&self) -> Vec<Addr> {
        let mut v: Vec<Addr> = self.races.iter().map(|r| r.addr).collect();
        v.sort();
        v.dedup();
        v
    }

    /// Number of reported races.
    pub fn race_count(&self) -> usize {
        self.races.len()
    }

    /// True when the run survived a fault and the race set is therefore a
    /// (still-sound) subset of what a clean run would report, or when
    /// checkpointing could not keep up with the run.
    pub fn is_degraded(&self) -> bool {
        !self.failures.is_empty()
            || self.budget_degraded
            || self.stats.dropped > 0
            || self.checkpointing_degraded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgrace_vc::Tid;

    #[test]
    fn access_kind_helpers() {
        assert!(AccessKind::Write.is_write());
        assert!(!AccessKind::Read.is_write());
        assert_eq!(AccessKind::from_write(true), AccessKind::Write);
        assert_eq!(AccessKind::from_write(false), AccessKind::Read);
    }

    #[test]
    fn race_kind_display() {
        assert_eq!(RaceKind::WriteWrite.to_string(), "write-write");
        assert_eq!(RaceKind::WriteRead.to_string(), "write-read");
        assert_eq!(RaceKind::ReadWrite.to_string(), "read-write");
    }

    #[test]
    fn race_addrs_sorted_dedup() {
        let race = |a: u64| RaceReport {
            addr: Addr(a),
            kind: RaceKind::WriteWrite,
            current: Epoch::new(1, Tid(1)),
            previous: Epoch::new(1, Tid(0)),
            event_index: None,
            share_count: 1,
            tainted: false,
        };
        let rep = Report {
            detector: "x".into(),
            races: vec![race(5), race(1), race(5)],
            ..Default::default()
        };
        assert_eq!(rep.race_addrs(), vec![Addr(1), Addr(5)]);
        assert_eq!(rep.race_count(), 3);
    }

    #[test]
    fn degraded_flags() {
        let mut rep = Report::default();
        assert!(!rep.is_degraded());
        rep.budget_degraded = true;
        assert!(rep.is_degraded());
        rep.budget_degraded = false;
        rep.failures.push(ShardFailure::new(2, 41, "boom"));
        assert!(rep.is_degraded());
        assert_eq!(
            rep.failures[0].to_string(),
            "shard 2 quarantined at event 41: boom"
        );
    }

    #[test]
    fn failure_display_includes_payload_type_and_last_event() {
        let fail = ShardFailure {
            shard: 1,
            event_seq: 7,
            payload: "42".into(),
            payload_type: "u64".into(),
            last_event: Some("write 0x1100 (4 bytes) by t2".into()),
        };
        assert_eq!(
            fail.to_string(),
            "shard 1 quarantined at event 7: 42 [payload type: u64] \
             [last event: write 0x1100 (4 bytes) by t2]"
        );
    }

    #[test]
    fn race_report_round_trips() {
        let race = RaceReport {
            addr: Addr(0x1234),
            kind: RaceKind::WriteRead,
            current: Epoch::new(9, Tid(2)),
            previous: Epoch::new(3, Tid(1)),
            event_index: Some(77),
            share_count: 4,
            tainted: true,
        };
        let mut w = SnapshotWriter::new(*b"TEST", 1);
        race.encode(&mut w);
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes, *b"TEST", 1, Default::default()).unwrap();
        assert_eq!(RaceReport::decode(&mut r).unwrap(), race);
        r.expect_end().unwrap();
    }

    #[test]
    fn same_epoch_fraction_handles_zero() {
        let mut s = DetectorStats::default();
        assert_eq!(s.same_epoch_fraction(), 0.0);
        s.accesses = 10;
        s.same_epoch = 9;
        assert!((s.same_epoch_fraction() - 0.9).abs() < 1e-12);
    }
}
