//! The memory governor: a deterministic per-shard memory cap.
//!
//! [`Governed`] wraps any detector with a per-shard byte quota. Once the
//! detector's modeled bytes pass the quota's soft watermark, the
//! governor sets the inner detector's shadow budget
//! ([`crate::Detector::set_shadow_budget`]) to that watermark, so its own
//! cold-state eviction holds the footprint there; once they fall below
//! [`dgrace_shadow::Watermarks::release_floor`], it lifts the budget
//! again. Eviction is the only response: every event still reaches the
//! inner detector, so a cap can lose races whose prior access went cold
//! and was evicted (the report says so), never thin the access stream.
//! The report calls the two states rung 0 (free) and rung 1 (evicting).
//!
//! (Shedding and sampling new server sessions lives in `dgrace-server`,
//! driven by the process-wide [`dgrace_shadow::ProcessGauge`].)
//!
//! # Determinism
//!
//! The cap is evaluated only at **decision points**: every
//! [`GovernorSpec::interval`] shard-local events, against the inner
//! detector's *modeled* bytes (the sum of [`crate::Detector::mem_classes`]) —
//! never against `malloc` or the global gauge. Modeled bytes are a pure
//! function of the event prefix, so the same trace under the same
//! `--memory-limit` engages and releases at the same events on every
//! run, and the funnel and the pipeline (whose shards see identical
//! substreams) agree byte-for-byte.
//!
//! A governed run that never engages attaches **no** governor report and
//! perturbs nothing — it is byte-identical to an ungoverned run of the
//! same trace.

use dgrace_shadow::{process_gauge, MemComponent, Watermarks};
use dgrace_trace::{Event, SnapshotReader, SnapshotWriter, TraceError};

use crate::snap::{Section, SectionError};
use crate::{Detector, GovernorReport, GovernorTransition, Report, ShardableDetector};

/// Default decision interval, in shard-local events. Small enough that
/// a runaway allocation burst is caught within one ring segment, large
/// enough that the assessment (a few atomic loads) is noise.
pub const DECISION_INTERVAL: u64 = 512;

/// Configuration of one [`Governed`] wrapper: the per-shard quota and
/// the cap's deterministic decision clock.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GovernorSpec {
    /// Per-shard byte quota (the process `--memory-limit` divided by the
    /// shard count). Watermarks split this 60/80/95.
    pub limit: u64,
    /// Shard-local events between decision points.
    pub interval: u64,
}

impl GovernorSpec {
    /// The standard spec for a process-wide `limit` split across
    /// `shards` ways: quota = `limit / max(shards, 1)`, default decision
    /// interval.
    pub fn for_limit(limit: u64, shards: usize) -> Self {
        GovernorSpec {
            limit: limit / shards.max(1) as u64,
            interval: DECISION_INTERVAL,
        }
    }
}

/// Wraps a detector with the memory cap. See the module docs.
pub struct Governed<D> {
    inner: D,
    spec: GovernorSpec,
    marks: Watermarks,
    /// Whether the inner shadow budget is set (rung 1).
    evicting: bool,
    /// Shard-local events seen — the decision clock.
    events: u64,
    decisions: u64,
    peak_assessed: u64,
    /// Times the cap engaged.
    engaged: u64,
    transitions: Vec<GovernorTransition>,
    /// Last per-class figures pushed to the process gauge, so updates
    /// are deltas and concurrent shards don't clobber each other.
    pushed: [u64; 2],
}

impl<D: Detector> Governed<D> {
    /// Wraps `inner` under `spec`.
    pub fn new(inner: D, spec: GovernorSpec) -> Self {
        Governed {
            inner,
            marks: Watermarks::for_limit(spec.limit),
            spec: GovernorSpec {
                interval: spec.interval.max(1),
                ..spec
            },
            evicting: false,
            events: 0,
            decisions: 0,
            peak_assessed: 0,
            engaged: 0,
            transitions: Vec::new(),
            pushed: [0; 2],
        }
    }

    /// The spec this wrapper was built from.
    pub fn spec(&self) -> &GovernorSpec {
        &self.spec
    }

    /// Whether the cap is engaged: the inner detector is evicting down to
    /// the soft watermark.
    pub fn evicting(&self) -> bool {
        self.evicting
    }

    /// One evaluation: assess modeled bytes, engage at the soft
    /// watermark, release below the release floor.
    fn decide(&mut self) {
        self.decisions += 1;
        let classes = self.inner.mem_classes();
        let assessed = classes.iter().sum();
        self.peak_assessed = self.peak_assessed.max(assessed);
        let evict = if self.evicting {
            assessed >= self.marks.release_floor()
        } else {
            assessed >= self.marks.soft
        };
        if evict != self.evicting {
            self.transitions.push(GovernorTransition {
                event: self.events,
                shard: 0,
                from: self.evicting as u8,
                to: evict as u8,
                assessed_bytes: assessed,
            });
            self.engaged += evict as u64;
            self.evicting = evict;
            self.apply_budget();
        }
        self.push_gauge(classes);
    }

    /// (Re-)applies the current state's budget to the inner detector.
    /// Idempotent; also called after a snapshot restore.
    fn apply_budget(&mut self) {
        let budget = self.evicting.then(|| self.marks.soft.max(1));
        self.inner.set_shadow_budget(budget);
    }

    /// Publishes the inner detector's modeled bytes to the process-wide
    /// gauge as deltas. Reporting only — the gauge never feeds the cap.
    fn push_gauge(&mut self, [hash, clocks, bitmap]: [u64; 3]) {
        let now = [hash + bitmap, clocks];
        let g = process_gauge();
        for (i, comp) in [MemComponent::Shadow, MemComponent::VcClocks]
            .into_iter()
            .enumerate()
        {
            if now[i] >= self.pushed[i] {
                g.add(comp, now[i] - self.pushed[i]);
            } else {
                g.sub(comp, self.pushed[i] - now[i]);
            }
            self.pushed[i] = now[i];
        }
    }
}

impl<D> Governed<D> {
    /// Withdraws this wrapper's contribution from the process gauge.
    fn retract_gauge(&mut self) {
        let g = process_gauge();
        g.sub(MemComponent::Shadow, self.pushed[0]);
        g.sub(MemComponent::VcClocks, self.pushed[1]);
        self.pushed = [0; 2];
    }
}

impl<D> Drop for Governed<D> {
    fn drop(&mut self) {
        self.retract_gauge();
    }
}

impl<D: Detector> Detector for Governed<D> {
    /// The inner name, unchanged: governance is invisible until it
    /// engages, and engagement is reported through
    /// [`Report::governor`], not the name.
    fn name(&self) -> String {
        self.inner.name()
    }

    fn on_event(&mut self, ev: &Event) {
        self.inner.on_event(ev);
        self.events += 1;
        if self.events.is_multiple_of(self.spec.interval) {
            self.decide();
        }
    }

    fn finish(&mut self) -> Report {
        // One final assessment so short runs (fewer events than one
        // interval) still get governed accounting.
        if self.events > 0 {
            self.decide();
        }
        let mut rep = self.inner.finish();
        if self.engaged > 0 {
            rep.governor = Some(GovernorReport {
                limit: self.spec.limit,
                peak_rung: 1,
                final_rung: self.evicting as u8,
                decisions: self.decisions,
                peak_assessed_bytes: self.peak_assessed,
                engaged: self.engaged,
                transitions: std::mem::take(&mut self.transitions),
            });
        }
        // Reset to a fresh governed state: the budget lifted, gauge
        // contribution withdrawn.
        self.evicting = false;
        self.events = 0;
        self.decisions = 0;
        self.peak_assessed = 0;
        self.engaged = 0;
        self.transitions.clear();
        self.retract_gauge();
        self.apply_budget();
        rep
    }

    fn inner(&self) -> Option<&dyn Detector> {
        Some(&self.inner)
    }

    fn inner_mut(&mut self) -> Option<&mut dyn Detector> {
        Some(&mut self.inner)
    }

    fn write_section(&self, w: &mut SnapshotWriter) -> bool {
        Section::Governor.write(w);
        w.u64(self.spec.limit);
        w.u64(self.spec.interval);
        w.u8(self.evicting as u8);
        w.u64(self.events);
        w.u64(self.decisions);
        w.u64(self.peak_assessed);
        w.u64(self.engaged);
        w.count(self.transitions.len());
        for t in &self.transitions {
            w.u64(t.event);
            w.u8(t.from);
            w.u8(t.to);
            w.u64(t.assessed_bytes);
        }
        self.inner.write_section(w)
    }

    fn read_section(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SectionError> {
        Section::Governor.read(r)?;
        let limit = r.u64()?;
        let interval = r.u64()?;
        if limit != self.spec.limit || interval != self.spec.interval {
            return Err(SectionError::Mismatch(format!(
                "governor snapshot was taken under limit={limit} interval={interval}, \
                 this run uses limit={} interval={} — resume with the same --memory-limit",
                self.spec.limit, self.spec.interval
            )));
        }
        let offset = r.offset();
        let evicting = match r.u8()? {
            0 => false,
            1 => true,
            _ => {
                let what = "governor rung";
                return Err(TraceError::Malformed { offset, what }.into());
            }
        };
        let events = r.u64()?;
        let decisions = r.u64()?;
        let peak_assessed = r.u64()?;
        let engaged = r.u64()?;
        let n = r.count("governor transitions")?;
        let mut transitions = Vec::with_capacity(n);
        for _ in 0..n {
            transitions.push(GovernorTransition {
                event: r.u64()?,
                shard: 0,
                from: r.u8()?,
                to: r.u8()?,
                assessed_bytes: r.u64()?,
            });
        }
        self.inner.read_section(r)?;
        self.evicting = evicting;
        self.events = events;
        self.decisions = decisions;
        self.peak_assessed = peak_assessed;
        self.engaged = engaged;
        self.transitions = transitions;
        // Re-arm the resumed state's budget: the clamp is a run-time side
        // effect, not serialized inner state.
        self.apply_budget();
        Ok(())
    }
}

impl<D: ShardableDetector> ShardableDetector for Governed<D> {
    fn new_shard(&self) -> Box<dyn Detector + Send> {
        Box::new(Governed::new(self.inner.new_shard(), self.spec.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DetectorExt, FastTrack};
    use dgrace_trace::{AccessSize, Trace, TraceBuilder};

    /// A trace whose shadow footprint grows steadily: two threads touch
    /// many distinct addresses (racing, so there's something to report).
    fn hungry_trace(locs: u64) -> Trace {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32);
        for i in 0..locs {
            b.write(0u32, 0x1_0000 + i * 64, AccessSize::U64);
        }
        for i in 0..locs {
            b.write(1u32, 0x1_0000 + i * 64, AccessSize::U64);
        }
        b.join(0u32, 1u32);
        b.build()
    }

    fn spec(limit: u64) -> GovernorSpec {
        GovernorSpec {
            limit,
            interval: 64,
        }
    }

    #[test]
    fn full_headroom_is_identity() {
        let trace = hungry_trace(256);
        let bare = FastTrack::new().run(&trace);
        let mut gov = Governed::new(FastTrack::new(), spec(u64::MAX));
        let rep = gov.run(&trace);
        assert_eq!(rep, bare, "ungoverned and 100%-headroom reports match");
        assert!(rep.governor.is_none());
        assert_eq!(rep.detector, bare.detector, "name is unchanged");
    }

    #[test]
    fn ladder_climbs_under_pressure_and_reports() {
        let trace = hungry_trace(2048);
        let ungoverned = FastTrack::new().run(&trace);
        let peak: u64 = ungoverned.stats.peak_total_bytes as u64;
        let mut gov = Governed::new(FastTrack::new(), spec(peak / 2));
        let rep = gov.run(&trace);
        let g = rep.governor.as_ref().expect("governor engaged");
        assert_eq!(g.peak_rung, 1, "the evict rung: {g:?}");
        assert!(!g.transitions.is_empty());
        assert_eq!(g.limit, peak / 2);
        assert!(g.decisions > 0);
        assert!(g.peak_assessed_bytes > 0);
        // The engagement count agrees with the transition log.
        let engaged = g.transitions.iter().filter(|t| t.to == 1).count();
        assert_eq!(g.engaged, engaged as u64);
        // The evict rung flows through the inner budget machinery.
        assert!(rep.budget_degraded, "rung 1 clamps the shadow budget");
    }

    #[test]
    fn governed_runs_are_deterministic() {
        let trace = hungry_trace(2048);
        let peak = FastTrack::new().run(&trace).stats.peak_total_bytes as u64;
        let run = || {
            let mut gov = Governed::new(FastTrack::new(), spec(peak / 2));
            gov.run(&trace)
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b, "same trace + same limit = identical report");
        assert!(a.governor.is_some());
    }

    #[test]
    fn a_tiny_quota_evicts_and_never_thins() {
        // Build shadow state far past a tiny quota, then hammer a hot
        // working set: the cap evicts, and every access still reaches
        // the detector.
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32);
        for i in 0..4096u64 {
            b.write(0u32, 0x1_0000 + i * 64, AccessSize::U64);
        }
        for _pass in 0..8 {
            for i in 0..4096u64 {
                b.write(1u32, 0x1_0000 + i * 64, AccessSize::U64);
            }
        }
        b.join(0u32, 1u32);
        let trace = b.build();
        let bare = FastTrack::new().run(&trace);
        let mut gov = Governed::new(FastTrack::new(), spec(8 * 1024));
        let rep = gov.run(&trace);
        let g = rep.governor.as_ref().expect("governor engaged");
        assert_eq!(g.peak_rung, 1, "{g:?}");
        assert!(rep.stats.evicted > 0, "the cap evicted");
        assert_eq!(rep.stats.events, bare.stats.events);
        assert_eq!(rep.stats.accesses, bare.stats.accesses);
        assert_eq!(rep.stats.sample_admitted, 0);
        assert_eq!(rep.stats.sample_skipped, 0);
    }

    #[test]
    fn release_floor_steps_back_down() {
        // Grow shadow state past the soft watermark, then free it all
        // and keep running: the cap must let go.
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32);
        for i in 0..2048u64 {
            b.write(0u32, 0x1_0000 + i * 64, AccessSize::U64);
        }
        b.free(0u32, 0x1_0000u64, 2048 * 64);
        for i in 0..512u64 {
            b.write(0u32, 0x100_0000 + i * 8, AccessSize::U64);
        }
        b.join(0u32, 1u32);
        let trace = b.build();

        let peak = FastTrack::new().run(&trace).stats.peak_total_bytes as u64;
        let mut gov = Governed::new(FastTrack::new(), spec(peak / 2));
        let rep = gov.run(&trace);
        let g = rep.governor.as_ref().expect("governor engaged");
        assert_eq!(g.peak_rung, 1);
        assert_eq!(g.final_rung, 0, "freed state releases the cap: {g:?}");
        assert!(
            g.transitions.iter().any(|t| t.to < t.from),
            "a downward transition is logged"
        );
    }

    #[test]
    fn snapshot_round_trips_mid_pressure() {
        let trace = hungry_trace(2048);
        let peak = FastTrack::new().run(&trace).stats.peak_total_bytes as u64;
        let sp = spec(peak / 2);
        let mut a = Governed::new(FastTrack::new(), sp.clone());
        let split = trace.len() * 3 / 4;
        for ev in trace.iter().take(split) {
            a.on_event(ev);
        }
        assert!(a.evicting(), "pressure built before the split");
        let snap = a.snapshot().expect("fasttrack snapshots");
        let mut b = Governed::new(FastTrack::new(), sp);
        b.restore(&snap).unwrap();
        assert!(b.evicting(), "resumed evicting");
        for ev in trace.iter().skip(split) {
            a.on_event(ev);
            b.on_event(ev);
        }
        assert_eq!(a.finish(), b.finish(), "resumed run is byte-identical");
    }

    #[test]
    fn restore_rejects_a_different_limit() {
        let a = Governed::new(FastTrack::new(), spec(1 << 20));
        let snap = a.snapshot().unwrap();
        let mut b = Governed::new(FastTrack::new(), spec(1 << 21));
        let err = b.restore(&snap).unwrap_err();
        assert!(err.contains("--memory-limit"), "{err}");
    }

    #[test]
    fn sharded_clone_copies_spec() {
        let proto = Governed::new(FastTrack::new(), spec(1 << 20));
        let mut shard = proto.new_shard();
        let rep = shard.run(&hungry_trace(16));
        assert!(rep.governor.is_none(), "tiny run never engages");
        assert_eq!(rep.detector, "fasttrack-byte", "shard keeps the inner name");
    }

    #[test]
    fn finish_resets_for_reuse() {
        let trace = hungry_trace(2048);
        let peak = FastTrack::new().run(&trace).stats.peak_total_bytes as u64;
        let mut gov = Governed::new(FastTrack::new(), spec(peak / 2));
        let first = gov.run(&trace);
        assert!(first.governor.is_some());
        let second = gov.run(&trace);
        assert_eq!(first, second, "reused wrapper repeats the run exactly");
    }
}
