//! The sharded detection engine: N detector shards behind one feed.
//!
//! * **Address-sharded detectors.** The engine owns N detector shards,
//!   each a complete detector instance behind its own mutex. Accesses are
//!   routed by address: each allocated object (with its anti-sharing
//!   padding) is assigned wholly to one shard, so the dynamic-granularity
//!   neighbor-sharing machine sees every sharing-adjacent byte inside a
//!   single shard.
//! * **Sync events reach every shard.** The caller stamps each event
//!   once, in the order it walks them; a sync event's copies share the
//!   stamp and are fed to every shard, so each shard's happens-before
//!   state is exact and identical.
//! * **Quarantine.** A shard whose detector panics is dropped and
//!   reported as a structured [`ShardFailure`]; the other shards keep
//!   detecting. Every detector here is a deterministic function of the
//!   events it is fed, so a replacement replayed over the same stream
//!   would meet the same panic: the engine does not respawn.
//!
//! ## One feed, one journal
//!
//! Every event reaches a shard detector through one per-shard body,
//! [`Engine::feed`], as stamped `(stamp, event)` entries handed over by
//! the lanes of [`crate::pipeline`] ([`Engine::feed_segment`]) — for an
//! offline replay, a `serve` session and the live [`crate::Runtime`]
//! alike, all of which step the one replay driver. A recording engine's
//! shard journal is its whole stream in feed order — routed accesses
//! with every sync event inline — from which
//! [`take_recorded`](Engine::take_recorded) rebuilds the run.
//!
//! ## Why this is equivalent to the serialized detector
//!
//! The driver stamps events in the order it walks them, so for every
//! shard the feed order equals the stamp order, and the stamp order is
//! one serialization σ of the run: the driver's step order. Sorting the
//! journals by stamp (one copy per sync) yields σ, and its restriction
//! to each shard's addresses (plus all syncs) is exactly what that shard
//! processed. A vector-clock detector's verdict on an address depends
//! only on the sync events and the accesses to sharing-adjacent
//! addresses — and the router keeps sharing-adjacent addresses (same
//! padded object) in one shard — so replaying σ through one serialized
//! detector reproduces the union of the shards' race sets. The
//! differential tests in `tests/sharded_equivalence.rs` check this
//! end-to-end.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

use dgrace_detectors::{
    merge_shard_reports, Detector, DetectorExt, Report, ShardFailure, ShardableDetector,
};
use dgrace_trace::{Event, PruneSet, Trace};
use parking_lot::{Mutex, RwLock};

/// A recoverable engine-level failure, surfaced by the `try_*` variants
/// of the [`crate::Runtime`] extraction methods.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// Every detector shard panicked and was quarantined; no detector
    /// state survived to produce a report.
    AllShardsFailed(Vec<ShardFailure>),
    /// The engine was not built with journal recording, so no trace can
    /// be reconstructed.
    NotRecording,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::AllShardsFailed(fails) => {
                write!(f, "all {} detector shards failed", fails.len())?;
                if let Some(first) = fails.first() {
                    write!(f, " (first: {first})")?;
                }
                Ok(())
            }
            EngineError::NotRecording => {
                write!(f, "engine is not recording (enable RuntimeOptions::record)")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Renders a panic payload for a [`ShardFailure`] report, returning the
/// message and the payload's type name. Besides the common string
/// payloads, the primitive types `panic_any` is typically fed in tests
/// and assertion macros are rendered too, instead of collapsing to an
/// opaque placeholder.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> (String, &'static str) {
    if let Some(s) = payload.downcast_ref::<&str>() {
        return ((*s).to_string(), "str");
    }
    if let Some(s) = payload.downcast_ref::<String>() {
        return (s.clone(), "str");
    }
    macro_rules! try_prim {
        ($($t:ty),*) => {$(
            if let Some(v) = payload.downcast_ref::<$t>() {
                return (v.to_string(), stringify!($t));
            }
        )*};
    }
    try_prim!(i32, u32, i64, u64, usize, bool, char);
    ("non-string panic payload".to_string(), "opaque")
}

/// Renders an event as kind + operands for failure diagnostics, e.g.
/// `"write 0x1100 (4 bytes) by t2"`.
fn describe_event(ev: &Event) -> String {
    match *ev {
        Event::Read { tid, addr, size } => {
            format!("read {addr} ({} bytes) by t{}", size.bytes(), tid.0)
        }
        Event::Write { tid, addr, size } => {
            format!("write {addr} ({} bytes) by t{}", size.bytes(), tid.0)
        }
        Event::Acquire { tid, lock } => format!("acquire lock {} by t{}", lock.0, tid.0),
        Event::Release { tid, lock } => format!("release lock {} by t{}", lock.0, tid.0),
        Event::Fork { parent, child } => format!("fork t{} by t{}", child.0, parent.0),
        Event::Join { parent, child } => format!("join t{} by t{}", child.0, parent.0),
        Event::Alloc { tid, addr, size } => {
            format!("alloc {addr} ({size} bytes) by t{}", tid.0)
        }
        Event::Free { tid, addr, size } => {
            format!("free {addr} ({size} bytes) by t{}", tid.0)
        }
        Event::AcquireRead { tid, lock } => {
            format!("rd-acquire lock {} by t{}", lock.0, tid.0)
        }
        Event::ReleaseRead { tid, lock } => {
            format!("rd-release lock {} by t{}", lock.0, tid.0)
        }
        Event::CvSignal { tid, cv } => format!("cv-signal cv {} by t{}", cv.0, tid.0),
        Event::CvWait { tid, cv } => format!("cv-wait cv {} by t{}", cv.0, tid.0),
        Event::BarrierArrive { tid, bar } => {
            format!("barrier-arrive bar {} by t{}", bar.0, tid.0)
        }
        Event::BarrierDepart { tid, bar } => {
            format!("barrier-depart bar {} by t{}", bar.0, tid.0)
        }
    }
}

/// One fresh detector per shard (at least one), in shard order.
pub(crate) fn mint<D: ShardableDetector + ?Sized>(
    prototype: &D,
    shards: usize,
) -> Vec<Box<dyn Detector + Send>> {
    (0..shards.max(1)).map(|_| prototype.new_shard()).collect()
}

struct ShardState {
    /// `None` once the shard is quarantined: its detector panicked, was
    /// dropped, and the shard only counts dropped events from then on.
    det: Option<Box<dyn Detector + Send>>,
    /// The shard's whole stream as fed — routed accesses with every sync
    /// event inline — as `(stamp, event)` pairs in stamp order; only
    /// populated when recording. Quarantined shards keep journaling, so
    /// the recorded serialization stays exact.
    journal: Vec<(u64, Event)>,
    /// The panic that quarantined this shard, if any.
    failure: Option<ShardFailure>,
    /// Access events routed here but never processed (panicked mid-batch
    /// or arrived after quarantine). Sync events are not counted:
    /// healthy shards still process them.
    dropped: u64,
    /// Access events this shard's detector actually *processed* since
    /// the last finish/restore. Strictly disjoint from `dropped`: an
    /// event the detector never finished is counted there only, so a
    /// failed shard's forfeited coverage is exactly `routed + dropped`
    /// with no event counted twice. If the shard dies, `routed` is
    /// reported as `events_lost`.
    routed: u64,
    /// `events_lost` inherited from a restored checkpoint (events a
    /// previous incarnation of this shard had already lost).
    lost_base: u64,
}

impl ShardState {
    /// Quarantines the shard after a panic: records the failure (payload
    /// text, payload type, and the event being processed when known) and
    /// drops the (possibly corrupt) detector. The drop itself is
    /// contained too — a detector that panics again in `Drop` must not
    /// take the engine down with it.
    #[cold]
    fn quarantine(
        &mut self,
        shard: usize,
        event_seq: u64,
        payload: Box<dyn std::any::Any + Send>,
        last_event: Option<&Event>,
    ) {
        let (msg, payload_type) = panic_message(payload.as_ref());
        let det = self.det.take();
        let _ = catch_unwind(AssertUnwindSafe(move || drop(det)));
        self.failure = Some(ShardFailure {
            shard,
            event_seq,
            payload: msg,
            payload_type: payload_type.to_string(),
            last_event: last_event.map(describe_event),
        });
    }
}

/// Region size of the fallback router for addresses outside every
/// registered allocation (4 KiB). Offline traces that carry no `Alloc`
/// events are routed at this granularity; a region boundary can then
/// split sharing-adjacent addresses across shards, which is documented
/// as a limitation of offline sharded replay (the online runtime always
/// registers whole objects).
const REGION_BITS: u32 = 12;

/// Routes addresses to shards. Allocated objects are registered as whole
/// ranges (round-robin across shards) so neighbor sharing never crosses
/// a shard boundary; unregistered addresses fall back to hashing their
/// 4 KiB region.
struct Router {
    /// Sorted, disjoint `(base, end, shard)` ranges.
    ranges: Vec<(u64, u64, usize)>,
    next_shard: usize,
    shards: usize,
}

impl Router {
    fn new(shards: usize) -> Self {
        Router {
            ranges: Vec::new(),
            next_shard: 0,
            shards,
        }
    }

    fn route(&self, addr: u64) -> usize {
        if self.shards <= 1 {
            return 0;
        }
        use std::cmp::Ordering as O;
        match self.ranges.binary_search_by(|&(base, end, _)| {
            if end <= addr {
                O::Less
            } else if base > addr {
                O::Greater
            } else {
                O::Equal
            }
        }) {
            Ok(i) => self.ranges[i].2,
            Err(_) => ((addr >> REGION_BITS) as usize) % self.shards,
        }
    }

    fn register(&mut self, base: u64, len: u64) {
        if self.shards <= 1 {
            return;
        }
        // Like `routes_for_range`: a range running past the top of the
        // address space ends there, it does not wrap.
        let end = base.saturating_add(len.max(1));
        let pos = self.ranges.partition_point(|r| r.0 < base);
        // An allocation overlapping an already-routed range (a
        // re-registration after checkpoint resume) keeps the existing
        // routing: splitting an object across shards
        // would break the one-shard-per-object invariant, and consuming
        // a round-robin slot for a skipped insert would perturb the
        // placement of every later allocation.
        let overlaps = (pos > 0 && self.ranges[pos - 1].1 > base)
            || (pos < self.ranges.len() && self.ranges[pos].0 < end);
        if overlaps {
            return;
        }
        let shard = self.next_shard;
        self.next_shard = (self.next_shard + 1) % self.shards;
        self.ranges.insert(pos, (base, end, shard));
    }

    /// Collects into `out` every shard owning any byte of
    /// `[base, base+len)`: registered ranges overlapping it plus the
    /// region hash of each uncovered 4 KiB region. A `Free` event must
    /// reach all of them — routing it by base address alone would leave
    /// stale shadow state in the other shards, which resurfaces as
    /// phantom races when the address range is reused.
    fn routes_for_range(&self, base: u64, len: u64, out: &mut Vec<usize>) {
        out.clear();
        if self.shards <= 1 {
            out.push(0);
            return;
        }
        let end = base.saturating_add(len.max(1));
        let mut cursor = base;
        let start = self.ranges.partition_point(|r| r.1 <= base);
        for &(rb, re, shard) in &self.ranges[start..] {
            if rb >= end || out.len() == self.shards {
                break;
            }
            // Hash-routed gap before this registered range.
            while cursor < rb.min(end) && out.len() < self.shards {
                let s = ((cursor >> REGION_BITS) as usize) % self.shards;
                if !out.contains(&s) {
                    out.push(s);
                }
                cursor = ((cursor >> REGION_BITS) + 1) << REGION_BITS;
            }
            if !out.contains(&shard) {
                out.push(shard);
            }
            cursor = cursor.max(re);
        }
        while cursor < end && out.len() < self.shards {
            let s = ((cursor >> REGION_BITS) as usize) % self.shards;
            if !out.contains(&s) {
                out.push(s);
            }
            cursor = ((cursor >> REGION_BITS) + 1) << REGION_BITS;
        }
    }

    /// Collects into `out` every shard one access/alloc/free event goes
    /// to: `Free` fans out to every owning shard, anything else routes to
    /// exactly one.
    fn targets(&self, ev: &Event, out: &mut Vec<usize>) {
        if let Event::Free { addr, size, .. } = *ev {
            self.routes_for_range(addr.0, size, out);
        } else {
            out.clear();
            out.push(self.route(route_addr(ev)));
        }
    }
}

/// A point-in-time capture of the whole engine: detector snapshots plus
/// the routing and counter state needed to continue the run elsewhere.
/// Produced by [`Engine::capture`], consumed by [`Engine::restore`]; the
/// checkpoint codec persists it as the `DGCP` container.
pub(crate) struct EngineState {
    pub(crate) seq: u64,
    pub(crate) emitted: u64,
    pub(crate) pruned: u64,
    pub(crate) router_next_shard: usize,
    pub(crate) router_ranges: Vec<(u64, u64, usize)>,
    pub(crate) shards: Vec<ShardCapture>,
}

/// One shard's slice of an [`EngineState`]: its detector snapshot (or
/// its failure, for a permanently quarantined shard) plus the drop/loss
/// counters accumulated so far.
pub(crate) struct ShardCapture {
    pub(crate) snapshot: Option<Vec<u8>>,
    pub(crate) failure: Option<ShardFailure>,
    pub(crate) dropped: u64,
    pub(crate) lost: u64,
}

/// The sharded, batched detection engine. See the module docs for the
/// design and its ordering rules.
pub(crate) struct Engine {
    shards: Vec<Mutex<ShardState>>,
    /// The stamp the next walked event takes; the lanes stamp from here
    /// and commit at every barrier, so per-shard feed order equals stamp
    /// order.
    seq: AtomicU64,
    /// Exact count of logical events emitted (a sync event counts once).
    emitted: AtomicU64,
    record: bool,
    router: RwLock<Router>,
    /// Warm-start prune predicate: the replay driver drops the accesses
    /// it covers before its lanes (and before the journal — a recorded
    /// trace excludes pruned accesses). Empty by default.
    prune: PruneSet,
    /// Accesses dropped by the prune predicate.
    pruned: AtomicU64,
}

impl Engine {
    /// Builds an engine over `detectors` (one per shard) — the one
    /// constructor of the live runtime, the replay driver and a live
    /// session. With `record` every shard journals what it is fed, so
    /// [`take_recorded`](Engine::take_recorded) can rebuild the run.
    /// `prune` is the warm-start predicate the replay driver applies.
    pub(crate) fn build(
        detectors: Vec<Box<dyn Detector + Send>>,
        record: bool,
        prune: PruneSet,
    ) -> Self {
        assert!(!detectors.is_empty(), "engine needs at least one shard");
        let shards = detectors
            .into_iter()
            .map(|det| {
                Mutex::new(ShardState {
                    det: Some(det),
                    journal: Vec::new(),
                    failure: None,
                    dropped: 0,
                    routed: 0,
                    lost_base: 0,
                })
            })
            .collect::<Vec<_>>();
        let n = shards.len();
        Engine {
            shards,
            seq: AtomicU64::new(0),
            emitted: AtomicU64::new(0),
            record,
            router: RwLock::new(Router::new(n)),
            prune,
            pruned: AtomicU64::new(0),
        }
    }

    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Feeds one shard a stamped stretch of its stream: its routed
    /// accesses interleaved with every sync event, in stamp order. This
    /// is the one way an event reaches a detector. Each maximal run of
    /// accesses (or of syncs) is fed under one `catch_unwind`, so the
    /// clean-path cost is one landing pad per run, off the per-event hot
    /// path, and journaled once the detector has processed it (a
    /// quarantined shard keeps journaling, so a recorded run stays
    /// whole).
    fn feed(&self, st: &mut ShardState, shard: usize, entries: &[(u64, Event)]) {
        let mut rest = entries;
        while !rest.is_empty() {
            let len = self.feed_run(st, shard, rest);
            let (run, tail) = rest.split_at(len);
            if self.record {
                st.journal.extend_from_slice(run);
            }
            rest = tail;
        }
    }

    /// Feeds the leading run of `rest` — all accesses (counted as routed,
    /// or as dropped on a quarantined shard) or all syncs (never counted:
    /// healthy shards still process them) — and returns its length. The
    /// run ends where the detector meets the other kind, so the clean
    /// path walks the entries once.
    fn feed_run(&self, st: &mut ShardState, shard: usize, rest: &[(u64, Event)]) -> usize {
        let sync = rest[0].1.is_sync();
        let run_len = || {
            rest.iter()
                .position(|(_, ev)| ev.is_sync() != sync)
                .unwrap_or(rest.len())
        };
        let Some(det) = st.det.as_mut() else {
            // Never analyzed: counted as `dropped` only — `routed` holds
            // analyzed events, so the two stay disjoint (an event routed
            // to a quarantined shard must not surface in both `dropped`
            // and `events_lost`).
            let len = run_len();
            if !sync {
                st.dropped += len as u64;
            }
            return len;
        };
        let mut processed = 0usize;
        let result = catch_unwind(AssertUnwindSafe(|| {
            for (_, ev) in rest {
                if ev.is_sync() != sync {
                    break;
                }
                det.on_event(ev);
                processed += 1;
            }
        }));
        if !sync {
            st.routed += processed as u64;
        }
        match result {
            Ok(()) => processed,
            Err(payload) => {
                // Quarantine. The event that panicked and the rest of its
                // access run were never analyzed: they count as dropped,
                // not as routed, so `dropped` and `events_lost` stay
                // disjoint. The failure names the offending event's own
                // stamp, so it does not depend on how the stream was cut
                // into runs.
                let len = run_len();
                if !sync {
                    st.dropped += (len - processed) as u64;
                }
                let (stamp, offending) = &rest[processed];
                st.quarantine(shard, *stamp, payload, Some(offending));
                len
            }
        }
    }

    /// Registers an allocated object's (padded) range so all its bytes —
    /// and thus all its sharing-adjacent neighbors — route to one shard.
    pub(crate) fn register_range(&self, base: u64, len: u64) {
        self.router.write().register(base, len);
    }

    // ---- replay-driver and lane support --------------------------------

    /// Whether the warm-start prune predicate drops this event. The
    /// replay driver prunes before handing an event to its lanes.
    pub(crate) fn prunes_event(&self, ev: &Event) -> bool {
        !self.prune.is_empty()
            && ev
                .access()
                .is_some_and(|(addr, size, _)| self.prune.prunes(addr, size.bytes()))
    }

    /// The stamp the next walked event takes. The lanes stamp the events
    /// they walk from here and [`commit`](Engine::commit) the count at
    /// every barrier, so a stamp costs the walking thread no atomic.
    pub(crate) fn next_stamp(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Records `n` walked events, one stamp each, as stamped and emitted.
    pub(crate) fn commit(&self, n: u64) {
        self.seq.fetch_add(n, Ordering::Relaxed);
        self.emitted.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` accesses dropped by the prune predicate.
    pub(crate) fn note_pruned(&self, n: u64) {
        self.pruned.fetch_add(n, Ordering::Relaxed);
    }

    /// The shard an access or `Alloc` routes to. One shard needs no
    /// router.
    #[inline]
    pub(crate) fn route(&self, ev: &Event) -> usize {
        if self.shards.len() == 1 {
            0
        } else {
            self.router.read().route(route_addr(ev))
        }
    }

    /// Collects into `out` (cleared first) every shard a `Free` reaches.
    pub(crate) fn free_targets(&self, ev: &Event, out: &mut Vec<usize>) {
        self.router.read().targets(ev, out);
    }

    /// Feeds one shard a stamped segment of its stream (see
    /// [`feed`](Engine::feed)) under one acquisition of its lock — how
    /// the replay driver's lanes reach a shard, from a ring worker or
    /// inline on the walking thread.
    pub(crate) fn feed_segment(&self, shard: usize, entries: &[(u64, Event)]) {
        self.feed(&mut self.shards[shard].lock(), shard, entries);
    }

    /// Reads each healthy shard's live race accumulator past its
    /// watermark, returning the new races and advancing the watermarks.
    /// Purely observational: the accumulators are not drained, so
    /// `finish` and `capture` are unaffected. `watermarks` is resized to
    /// the shard count on first use.
    pub(crate) fn new_races(
        &self,
        watermarks: &mut Vec<usize>,
    ) -> Vec<dgrace_detectors::RaceReport> {
        watermarks.resize(self.shards.len(), 0);
        let mut out = Vec::new();
        for (st, mark) in self.shards.iter().zip(watermarks.iter_mut()) {
            let st = st.lock();
            let Some(det) = st.det.as_ref() else { continue };
            let races = det.races_so_far();
            if races.len() > *mark {
                out.extend_from_slice(&races[*mark..]);
                *mark = races.len();
            } else {
                // finish()/restore reset the accumulator; resynchronize.
                *mark = races.len();
            }
        }
        out
    }

    /// Captures the engine's complete state: per-shard detector
    /// snapshots, the router, and the counters.
    ///
    /// The caller must be quiescent — no thread concurrently emitting
    /// events — which holds for offline replay (single-threaded) and for
    /// `finish`-time captures. Shards that do not support snapshots
    /// capture `None` and can only be resumed as failures.
    pub(crate) fn capture(&self) -> EngineState {
        let mut shards = Vec::with_capacity(self.shards.len());
        for st in &self.shards {
            let st = st.lock();
            let snapshot = st.det.as_ref().and_then(|d| d.snapshot());
            let lost = st.lost_base + if st.failure.is_some() { st.routed } else { 0 };
            shards.push(ShardCapture {
                snapshot,
                failure: st.failure.clone(),
                dropped: st.dropped,
                lost,
            });
        }
        let router = self.router.read();
        EngineState {
            seq: self.seq.load(Ordering::Relaxed),
            emitted: self.emitted.load(Ordering::Relaxed),
            pruned: self.pruned.load(Ordering::Relaxed),
            router_next_shard: router.next_shard,
            router_ranges: router.ranges.clone(),
            shards,
        }
    }

    /// Restores a [`capture`](Engine::capture)d state into this engine,
    /// which must be freshly built with the same shard count and detector
    /// configuration. Quarantined shards stay quarantined (their failure
    /// and loss counters carry over); healthy shards restore their
    /// detector snapshots.
    pub(crate) fn restore(&self, state: &EngineState) -> Result<(), String> {
        if state.shards.len() != self.shards.len() {
            return Err(format!(
                "checkpoint has {} shards, engine has {}",
                state.shards.len(),
                self.shards.len()
            ));
        }
        self.seq.store(state.seq, Ordering::Relaxed);
        self.emitted.store(state.emitted, Ordering::Relaxed);
        self.pruned.store(state.pruned, Ordering::Relaxed);
        {
            let mut router = self.router.write();
            router.next_shard = state.router_next_shard;
            router.ranges = state.router_ranges.clone();
        }
        for (i, (s, cap)) in self.shards.iter().zip(&state.shards).enumerate() {
            let mut st = s.lock();
            match (&cap.snapshot, &cap.failure) {
                (Some(bytes), _) => {
                    let det = st
                        .det
                        .as_mut()
                        .ok_or_else(|| format!("shard {i}: engine has no detector"))?;
                    det.restore(bytes).map_err(|e| format!("shard {i}: {e}"))?;
                }
                (None, Some(_)) => {
                    let det = st.det.take();
                    let _ = catch_unwind(AssertUnwindSafe(move || drop(det)));
                }
                (None, None) => {
                    return Err(format!("shard {i}: checkpoint carries no snapshot"));
                }
            }
            st.failure = cap.failure.clone();
            st.dropped = cap.dropped;
            st.lost_base = cap.lost;
            st.routed = 0;
            st.journal.clear();
        }
        Ok(())
    }

    /// Flushes all buffers, finishes every shard, and merges the healthy
    /// shards' reports. `stats.events` of the merged report is the exact
    /// emitted count.
    ///
    /// Quarantined shards contribute a [`ShardFailure`], their
    /// dropped-event counts, and `events_lost` — the accesses the dead
    /// shard had *analyzed* before it failed (including events a
    /// pre-resume incarnation had analyzed), whose results die with it —
    /// instead of a report. `events_lost` and `dropped` are disjoint:
    /// their sum is the shard's total forfeited coverage, and no event
    /// is counted in both. The merged report is then *degraded* — its
    /// race set is exact for the healthy shards' addresses. A shard
    /// whose `finish` itself panics is quarantined the same way. With
    /// zero healthy shards the report carries only the failures and
    /// counters; it never hangs or poisons a lock.
    pub(crate) fn finish(&self) -> Report {
        let emitted = self.emitted.swap(0, Ordering::Relaxed);
        let pruned = self.pruned.swap(0, Ordering::Relaxed);
        let mut reports: Vec<Report> = Vec::new();
        let mut failures: Vec<ShardFailure> = Vec::new();
        let mut dropped = 0u64;
        let mut lost = 0u64;
        for (i, s) in self.shards.iter().enumerate() {
            let mut st = s.lock();
            dropped += std::mem::take(&mut st.dropped);
            let routed = std::mem::take(&mut st.routed);
            let lost_base = std::mem::take(&mut st.lost_base);
            if let Some(f) = st.failure.take() {
                failures.push(f);
                lost += lost_base + routed;
                continue;
            }
            let Some(det) = st.det.as_mut() else { continue };
            match catch_unwind(AssertUnwindSafe(|| det.finish())) {
                Ok(rep) => reports.push(rep),
                Err(payload) => {
                    let stamp = self.seq.load(Ordering::Relaxed);
                    st.quarantine(i, stamp, payload, None);
                    failures.extend(st.failure.take());
                    lost += lost_base + routed;
                }
            }
        }
        let healthy = reports.len();
        let mut rep = match healthy {
            0 => Report::default(),
            1 if self.shards.len() == 1 => reports.pop().unwrap_or_default(),
            _ => merge_shard_reports(reports),
        };
        if healthy != 1 || self.shards.len() != 1 {
            // Broadcasts reach every shard (the sum over-counts them) and
            // quarantined shards report nothing (the sum under-counts):
            // the atomic counter is the exact logical event count.
            rep.stats.events = emitted;
        }
        if healthy > 0 && !self.prune.is_empty() {
            // Named as the serial path's `StaticPruneFilter` names it.
            rep.detector = format!("{}+pruned", rep.detector);
        }
        // Same contract as the offline `StaticPruneFilter`: `events`
        // counts everything that arrived (including pruned accesses),
        // `accesses` only what was checked.
        rep.stats.events += pruned;
        rep.stats.pruned += pruned;
        rep.stats.dropped += dropped;
        rep.stats.events_lost += lost;
        rep.failures.extend(failures);
        rep.failures.sort_by_key(|f| (f.shard, f.event_seq));
        rep
    }

    /// Reconstructs the recorded serialization from the journals; `None`
    /// when the engine is not recording.
    pub(crate) fn take_recorded(&self) -> Option<Trace> {
        if !self.record {
            return None;
        }
        let mut entries: Vec<(u64, Event)> = Vec::new();
        for shard in &self.shards {
            entries.append(&mut shard.lock().journal);
        }
        // One stamp per walked event: a sync (or a `Free` fanned out to
        // several shards) is journaled once per shard under it, keep one.
        entries.sort_unstable_by_key(|&(stamp, _)| stamp);
        entries.dedup_by_key(|&mut (stamp, _)| stamp);
        Some(Trace::from_events(
            entries.into_iter().map(|(_, ev)| ev).collect(),
        ))
    }
}

/// The routing address of an access/alloc/free event. Sync events are
/// never routed, but routing them to shard 0 is still well-defined.
fn route_addr(ev: &Event) -> u64 {
    match *ev {
        Event::Read { addr, .. }
        | Event::Write { addr, .. }
        | Event::Alloc { addr, .. }
        | Event::Free { addr, .. } => addr.0,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Lanes;
    use crate::replay::{Driver, INLINE_INFALLIBLE};
    use dgrace_detectors::NopDetector;
    use dgrace_trace::{AccessSize, Addr, LockId, Tid};

    fn nop_shards(n: usize) -> Vec<Box<dyn Detector + Send>> {
        (0..n)
            .map(|_| Box::new(NopDetector::default()) as Box<dyn Detector + Send>)
            .collect()
    }

    fn w(tid: u32, addr: u64) -> Event {
        Event::Write {
            tid: Tid(tid),
            addr: Addr(addr),
            size: AccessSize::U64,
        }
    }

    /// A driver on inline lanes over `eng`, as a live runtime or a
    /// session holds one.
    fn driver(eng: &Engine) -> Driver<'static> {
        Driver::new(Lanes::inline(eng.shard_count()), "test".into(), 0, None)
    }

    /// Steps `batch` through `d`, then feeds everything staged to the
    /// shards — what a live thread's buffer flush does.
    fn step(eng: &Engine, d: &mut Driver<'_>, batch: &[Event]) {
        for ev in batch {
            d.step(eng, ev).expect(INLINE_INFALLIBLE);
        }
        d.lanes.flush(eng);
    }

    #[test]
    fn router_prefers_registered_ranges() {
        let mut r = Router::new(4);
        r.register(0x1000, 0x200);
        r.register(0x2000, 0x200);
        let a = r.route(0x1000);
        assert_eq!(r.route(0x11ff), a, "whole object in one shard");
        let b = r.route(0x2000);
        assert_ne!(a, b, "round-robin assigns distinct shards");
        // Unregistered addresses fall back to region hashing.
        let _ = r.route(0x9999_0000);
    }

    #[test]
    fn a_range_at_the_top_of_the_address_space_ends_there() {
        // `Alloc { addr: u64::MAX, size: 0 }` decodes (`addr + size` does
        // not wrap); its one-byte range must not wrap either.
        let mut r = Router::new(2);
        r.register(0x1000, 0x100);
        r.register(u64::MAX - 0xf, 0x100);
        r.register(u64::MAX, 0);
        assert!(r.ranges.iter().all(|&(base, end, _)| base <= end));
        assert!(
            r.ranges.windows(2).all(|w| w[0].1 <= w[1].0),
            "sorted and disjoint: {:x?}",
            r.ranges
        );
        assert_eq!(r.route(0x1080), 0);
        assert_eq!(r.route(u64::MAX - 1), 1);
    }

    #[test]
    fn overlapping_registration_is_skipped_without_consuming_a_slot() {
        let mut r = Router::new(4);
        r.register(0x1000, 0x200); // shard 0
        let before = r.ranges.clone();
        // Overlaps from below, inside, and above are all rejected.
        r.register(0x0F00, 0x200);
        r.register(0x1080, 0x10);
        r.register(0x11ff, 0x200);
        assert_eq!(r.ranges, before);
        // The round-robin cursor was untouched: next insert gets shard 1.
        r.register(0x8000, 0x100);
        assert_eq!(r.route(0x8000), 1);
    }

    #[test]
    fn free_spanning_region_boundary_reaches_every_owning_shard() {
        // Unregistered range straddling the 4 KiB region boundary at
        // 0x1000: region 0 hashes to shard 0, region 1 to shard 1.
        let r = Router::new(2);
        let mut out = Vec::new();
        r.routes_for_range(0xFE0, 0x40, &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![0, 1], "free covers both hash regions");
        // Entirely inside one region: single target.
        r.routes_for_range(0x100, 0x40, &mut out);
        assert_eq!(out, vec![0]);

        // Registered ranges interleaved with hash-routed gaps.
        let mut r = Router::new(4);
        r.register(0x1100, 0x100); // shard 0
        r.register(0x5000, 0x100); // shard 1
        let mut out = Vec::new();
        // Covers the gap before 0x1100 (region 1 → shard 1), the
        // registered object (shard 0), and the gap after it (region 1
        // again, already present).
        r.routes_for_range(0x1000, 0x300, &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![0, 1]);
        // A free of exactly the registered object hits only its shard.
        r.routes_for_range(0x5000, 0x100, &mut out);
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn journal_captures_the_stream_the_detector_reports_on() {
        let fork = Event::Fork {
            parent: Tid(0),
            child: Tid(1),
        };
        let trace = Trace::from_events(vec![fork, w(0, 0x10), w(1, 0x10)]);

        let live: Vec<Box<dyn Detector + Send>> =
            vec![Box::new(dgrace_detectors::FastTrack::new())];
        let eng = Engine::build(live, true, PruneSet::empty());
        assert!(
            eng.take_recorded().expect("recording engine").is_empty(),
            "nothing fed, nothing captured"
        );
        let mut d = driver(&eng);
        step(&eng, &mut d, &trace.events);
        assert_eq!(eng.take_recorded().expect("recording engine"), trace);
        let rep = d.finish(&eng).expect(INLINE_INFALLIBLE);
        assert_eq!(rep.races.len(), 1, "the live detector's races are reported");
        assert_eq!(rep.detector, "fasttrack-byte");

        let eng = Engine::build(nop_shards(1), false, PruneSet::empty());
        step(&eng, &mut driver(&eng), &[w(0, 0x10)]);
        assert!(eng.take_recorded().is_none(), "no journal, no trace");
    }

    #[test]
    fn a_free_fanned_out_to_several_shards_is_recorded_once() {
        // 0xFE0..0x1020 straddles the 4 KiB region boundary: regions 0
        // and 1 hash to shards 0 and 1, so the `Free` reaches both.
        let free = Event::Free {
            tid: Tid(0),
            addr: Addr(0xFE0),
            size: 0x40,
        };
        let trace = Trace::from_events(vec![w(0, 0xFE0), w(0, 0x1000), free]);
        let eng = Engine::build(nop_shards(2), true, PruneSet::empty());
        step(&eng, &mut driver(&eng), &trace.events);
        assert_eq!(eng.take_recorded().expect("recording engine"), trace);
    }

    #[test]
    fn panicking_shard_is_quarantined_not_fatal() {
        crate::silence_injected_panics();
        // Shard 1 dies at its first event; shard 0 keeps detecting.
        let proto = crate::PanicOnEvent::new(dgrace_detectors::FastTrack::new(), 1, 1);
        let eng = Engine::build(mint(&proto, 2), true, PruneSet::empty());
        let mut d = driver(&eng);
        // Region hash routing: 0x0000 → shard 0, 0x1000 → shard 1.
        step(&eng, &mut d, &[w(0, 0x100)]); // shard 0
        step(&eng, &mut d, &[w(0, 0x1100), w(0, 0x1108)]); // shard 1: dies at first
        step(&eng, &mut d, &[w(0, 0x1110)]); // shard 1: dropped post-quarantine
        step(&eng, &mut d, &[w(1, 0x100)]); // shard 0: races with the first write

        // The journal still covers every event, quarantined shard included.
        let trace = eng.take_recorded().expect("recording engine");
        assert_eq!(trace.len(), 5);
        let rep = d.finish(&eng).expect(INLINE_INFALLIBLE);
        assert!(rep.is_degraded());
        assert_eq!(rep.failures.len(), 1);
        assert_eq!(rep.failures[0].shard, 1);
        assert_eq!(
            rep.failures[0].event_seq, 1,
            "the offending event's own stamp"
        );
        assert!(rep.failures[0].payload.contains("fault-injection"));
        assert_eq!(rep.stats.dropped, 3, "panicking event + 1 tail + 1 late");
        assert_eq!(rep.stats.events, 5, "logical event count stays exact");
        assert_eq!(rep.races.len(), 1, "healthy shard's race survives");
        assert_eq!(rep.races[0].addr, Addr(0x100));
    }

    #[test]
    fn all_shards_failing_still_terminates() {
        crate::silence_injected_panics();
        let proto = crate::PanicOnEvent::new(dgrace_detectors::FastTrack::new(), 0, 1);
        let eng = Engine::build(mint(&proto, 1), false, PruneSet::empty());
        let mut d = driver(&eng);
        step(&eng, &mut d, &[w(0, 0x100)]);
        let rep = d.finish(&eng).expect(INLINE_INFALLIBLE);
        assert_eq!(rep.failures.len(), 1);
        assert!(rep.races.is_empty());
        assert_eq!(rep.stats.events, 1);
        assert_eq!(rep.stats.dropped, 1);
    }

    #[test]
    fn broadcast_panic_quarantines_without_drop_count() {
        crate::silence_injected_panics();
        let proto = crate::PanicOnEvent::new(dgrace_detectors::FastTrack::new(), 1, 1);
        let eng = Engine::build(mint(&proto, 2), false, PruneSet::empty());
        let mut d = driver(&eng);
        step(
            &eng,
            &mut d,
            &[Event::Acquire {
                tid: Tid(0),
                lock: LockId(0),
            }],
        );
        let rep = d.finish(&eng).expect(INLINE_INFALLIBLE);
        assert_eq!(rep.failures.len(), 1);
        assert_eq!(
            rep.stats.dropped, 0,
            "healthy shards processed the broadcast; nothing was lost"
        );
        assert_eq!(rep.stats.events, 1);
    }

    #[test]
    fn broadcast_counts_once() {
        let eng = Engine::build(nop_shards(4), false, PruneSet::empty());
        let mut d = driver(&eng);
        step(
            &eng,
            &mut d,
            &[Event::Acquire {
                tid: Tid(0),
                lock: LockId(0),
            }],
        );
        let rep = d.finish(&eng).expect(INLINE_INFALLIBLE);
        assert_eq!(rep.stats.events, 1, "a broadcast is one logical event");
    }

    #[test]
    fn lost_and_dropped_partition_a_dead_shards_traffic() {
        crate::silence_injected_panics();
        // Shard 1 analyzes one event, dies on its second, and receives
        // one more after quarantine. The dead shard's traffic must be
        // *partitioned* between the two counters — one analyzed-then-
        // lost, two never-analyzed — with no event in both buckets.
        let proto = crate::PanicOnEvent::new(dgrace_detectors::FastTrack::new(), 1, 2);
        let eng = Engine::build(mint(&proto, 2), false, PruneSet::empty());
        let mut d = driver(&eng);
        step(&eng, &mut d, &[w(2, 0x1100)]); // shard 1: analyzed
        step(&eng, &mut d, &[w(0, 0x1108)]); // shard 1: dies here
        step(&eng, &mut d, &[w(3, 0x1110)]); // shard 1: post-quarantine
        step(&eng, &mut d, &[w(1, 0x100)]); // shard 0: healthy
        let rep = d.finish(&eng).expect(INLINE_INFALLIBLE);
        assert_eq!(rep.stats.events_lost, 1, "one event was analyzed pre-panic");
        assert_eq!(rep.stats.dropped, 2, "killer + post-quarantine arrival");
        assert_eq!(
            rep.stats.events_lost + rep.stats.dropped,
            3,
            "disjoint counters partition the dead shard's three events"
        );
        assert_eq!(rep.stats.events, 4, "emitted count is exact");
        assert_eq!(rep.failures.len(), 1);
        assert_eq!(rep.failures[0].payload_type, "str");
        let last = rep.failures[0].last_event.as_deref().unwrap_or("");
        assert!(
            last.contains("write 0x1108"),
            "failure names the killing event: {last}"
        );
    }

    #[test]
    fn lost_dropped_and_evicted_stay_disjoint_under_budget_pressure() {
        crate::silence_injected_panics();
        // The overlap case from the counter-accounting fix: a shard that
        // is *both* under memory-budget eviction pressure *and* later
        // quarantined must not double-count any event. Shard 1 evicts
        // cells while alive, analyzes 64 accesses, dies on its 65th, and
        // receives 3 more after quarantine; shard 0 stays healthy under
        // the same budget.
        let mut inner = dgrace_detectors::FastTrack::new();
        inner.set_shadow_budget(Some(1024));
        let proto = crate::PanicOnEvent::new(inner, 1, 257);
        let eng = Engine::build(mint(&proto, 2), false, PruneSet::empty());
        let mut d = driver(&eng);
        // 256 distinct words inside the 4 KiB region 0x1000..0x2000 (all
        // of which routes to shard 1) force evictions under the 1 KiB
        // budget; mirrored traffic in region 0 keeps shard 0 busy,
        // healthy, and equally budget-pressured.
        for i in 0..256u64 {
            step(&eng, &mut d, &[w(0, 0x1000 + i * 16)]);
            step(&eng, &mut d, &[w(0, 0x0100 + i * 8)]);
        }
        step(&eng, &mut d, &[w(1, 0x1200)]); // shard 1: dies here (257th)
        for i in 0..3u64 {
            step(&eng, &mut d, &[w(2, 0x1f00 + i * 8)]); // post-quarantine
        }
        let rep = d.finish(&eng).expect(INLINE_INFALLIBLE);
        assert_eq!(rep.failures.len(), 1, "shard 1 quarantined");
        assert_eq!(
            rep.stats.events_lost, 256,
            "exactly the analyzed-then-lost accesses, none double-counted"
        );
        assert_eq!(rep.stats.dropped, 4, "killer + three post-quarantine");
        assert_eq!(
            rep.stats.events_lost + rep.stats.dropped,
            260,
            "lost + dropped partition the dead shard's 260 events exactly"
        );
        assert_eq!(rep.stats.events, 256 + 256 + 1 + 3);
        assert!(
            rep.stats.evicted > 0,
            "healthy shard still reports its budget evictions"
        );
        // Eviction counts shadow *cells* from live shards' reports only;
        // the dead shard's evictions die with it rather than leaking
        // into the event-loss accounting.
        assert!(rep.budget_degraded);
    }

    #[test]
    fn capture_restore_round_trips_mid_run() {
        let proto = dgrace_detectors::FastTrack::new();
        let acq = Event::Acquire {
            tid: Tid(0),
            lock: LockId(0),
        };
        let rel = Event::Release {
            tid: Tid(0),
            lock: LockId(0),
        };
        let before = [acq, w(0, 0x100), w(0, 0x1100)];
        let after = [rel, w(1, 0x100), w(1, 0x1100)];

        // Uninterrupted baseline.
        let clean = Engine::build(mint(&proto, 2), false, PruneSet::empty());
        let mut d = driver(&clean);
        step(&clean, &mut d, &before);
        step(&clean, &mut d, &after);
        let want = d.finish(&clean).expect(INLINE_INFALLIBLE);
        assert_eq!(want.races.len(), 2, "baseline sanity");

        // Same run split by a capture/restore across two engines.
        let first = Engine::build(mint(&proto, 2), false, PruneSet::empty());
        let mut d = driver(&first);
        step(&first, &mut d, &before);
        let state = d.manifest(&first).expect(INLINE_INFALLIBLE).state;
        let second = Engine::build(mint(&proto, 2), false, PruneSet::empty());
        second.restore(&state).expect("restore");
        let mut d = driver(&second);
        step(&second, &mut d, &after);
        let got = d.finish(&second).expect(INLINE_INFALLIBLE);
        assert_eq!(got, want, "capture/restore run equals the clean run");
    }
}
