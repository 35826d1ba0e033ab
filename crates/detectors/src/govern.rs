//! The memory governor: pressure-tiered graceful degradation.
//!
//! [`Governed`] wraps any detector with a per-shard byte quota and walks
//! a deterministic **pressure ladder** instead of aborting when shadow
//! state outgrows memory:
//!
//! * **rung 1 — evict** ([`dgrace_shadow::PressureLevel::Soft`]): the
//!   inner detector's shadow budget is clamped to the soft watermark, so
//!   its own cold-state eviction machinery (`--shadow-budget`) engages;
//! * **rung 2 — coarsen** ([`dgrace_shadow::PressureLevel::High`]): the
//!   inner detector is told to share state more aggressively
//!   ([`crate::Detector::set_pressure`] — the dynamic-granularity family
//!   widens its first-epoch scan);
//! * **rung 3 — sample** ([`dgrace_shadow::PressureLevel::Critical`]):
//!   new *accesses* are gated through a deterministic admission
//!   [`Sampler`] so no new shadow state is created for thinned
//!   locations. Synchronization events always pass — vector clocks stay
//!   exact, exactly like the always-on sampling tier.
//!
//! (Rung 4 — shedding new server sessions — lives in `dgrace-server`,
//! driven by the process-wide [`dgrace_shadow::ProcessGauge`].)
//!
//! # Determinism
//!
//! The ladder is evaluated only at **decision points**: every
//! [`GovernorSpec::interval`] shard-local events, against the inner
//! detector's *modeled* bytes (the sum of [`crate::Detector::mem_classes`]) —
//! never against `malloc` or the global gauge. Modeled bytes are a pure
//! function of the event prefix, so the same trace under the same
//! `--memory-limit` takes the same rungs at the same events on every
//! run, and the funnel and the pipeline (whose shards see identical
//! substreams) agree byte-for-byte. De-escalation steps one rung per
//! decision point once assessed bytes fall below the rung's
//! [`dgrace_shadow::Watermarks::release_floor`] — hysteresis that
//! prevents flapping at a watermark.
//!
//! A governed run that never leaves rung 0 attaches **no** governor
//! report and perturbs nothing — it is byte-identical to an ungoverned
//! run of the same trace.

use dgrace_shadow::{process_gauge, MemComponent, PressureLevel, Watermarks};
use dgrace_trace::{Event, SnapshotReader, SnapshotWriter, TraceError};

use crate::snap::{Section, SectionError};
use crate::{
    Detector, GovernorReport, GovernorTransition, Report, SampleSpec, Sampler, ShardableDetector,
};

/// Default ladder decision interval, in shard-local events. Small
/// enough that a runaway allocation burst is caught within one ring
/// segment, large enough that the assessment (a few atomic loads) is
/// noise.
pub const DECISION_INTERVAL: u64 = 512;

/// Admission spec for the rung-3 sampler: per-location budgets keep
/// every granule's earliest accesses (where first epochs — and
/// therefore sharing decisions — happen) and thin the hot tail that
/// builds shadow state fastest.
pub const CRITICAL_SAMPLE: &str = "loc:4";

/// Configuration of one [`Governed`] wrapper: the per-shard quota and
/// the ladder's deterministic inputs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GovernorSpec {
    /// Per-shard byte quota (the process `--memory-limit` divided by the
    /// shard count). Watermarks split this 60/80/95.
    pub limit: u64,
    /// Shard-local events between decision points.
    pub interval: u64,
    /// Admission spec engaged at rung 3.
    pub sample: SampleSpec,
}

impl GovernorSpec {
    /// The standard spec for a process-wide `limit` split across
    /// `shards` ways: quota = `limit / max(shards, 1)`, default decision
    /// interval, default critical sampler.
    pub fn for_limit(limit: u64, shards: usize) -> Self {
        GovernorSpec {
            limit: limit / shards.max(1) as u64,
            interval: DECISION_INTERVAL,
            sample: SampleSpec::parse(CRITICAL_SAMPLE).expect("CRITICAL_SAMPLE parses"),
        }
    }
}

/// Wraps a detector with the pressure ladder. See the module docs.
pub struct Governed<D> {
    inner: D,
    spec: GovernorSpec,
    marks: Watermarks,
    /// The budget the *user* asked for (`--shadow-budget`), restored
    /// whenever the ladder steps back to rung 0. Run configuration, not
    /// state: never serialized.
    user_budget: Option<u64>,
    rung: PressureLevel,
    /// Shard-local events seen (admitted or not) — the decision clock.
    events: u64,
    decisions: u64,
    peak_rung: u8,
    peak_assessed: u64,
    engaged: [u64; 3],
    transitions: Vec<GovernorTransition>,
    /// Rung-3 admission gate. Only consulted while at
    /// [`PressureLevel::Critical`]; its counters freeze on lower rungs.
    sampler: Sampler,
    /// Last per-class figures pushed to the process gauge, so updates
    /// are deltas and concurrent shards don't clobber each other.
    pushed: [u64; 2],
}

impl<D: Detector> Governed<D> {
    /// Wraps `inner` under `spec`.
    pub fn new(inner: D, spec: GovernorSpec) -> Self {
        let marks = Watermarks::for_limit(spec.limit);
        let sampler = Sampler::new(spec.sample.clone());
        Governed {
            inner,
            spec: GovernorSpec {
                interval: spec.interval.max(1),
                ..spec
            },
            marks,
            user_budget: None,
            rung: PressureLevel::None,
            events: 0,
            decisions: 0,
            peak_rung: 0,
            peak_assessed: 0,
            engaged: [0; 3],
            transitions: Vec::new(),
            sampler,
            pushed: [0; 2],
        }
    }

    /// The spec this wrapper was built from.
    pub fn spec(&self) -> &GovernorSpec {
        &self.spec
    }

    /// The current rung.
    pub fn rung(&self) -> PressureLevel {
        self.rung
    }

    /// One ladder evaluation: assess modeled bytes, escalate straight to
    /// the watermark level when above, de-escalate one rung when below
    /// the release floor.
    fn decide(&mut self) {
        self.decisions += 1;
        let classes = self.inner.mem_classes();
        let assessed = classes.iter().sum();
        self.peak_assessed = self.peak_assessed.max(assessed);
        let target = self.marks.level(assessed);
        let next = if target > self.rung {
            target
        } else if self.rung > PressureLevel::None && assessed < self.marks.release_floor(self.rung)
        {
            PressureLevel::from_rung(self.rung.rung() - 1)
        } else {
            self.rung
        };
        if next != self.rung {
            self.transitions.push(GovernorTransition {
                event: self.events,
                shard: 0,
                from: self.rung.rung(),
                to: next.rung(),
                assessed_bytes: assessed,
            });
            for r in self.rung.rung() + 1..=next.rung() {
                self.engaged[(r - 1) as usize] += 1;
            }
            self.rung = next;
            self.peak_rung = self.peak_rung.max(next.rung());
            self.apply_rung();
        }
        self.push_gauge(classes);
    }

    /// (Re-)applies the current rung's mechanisms to the inner detector.
    /// Idempotent; also called after a snapshot restore.
    fn apply_rung(&mut self) {
        let budget = if self.rung >= PressureLevel::Soft {
            let clamp = self.marks.soft.max(1);
            Some(self.user_budget.map_or(clamp, |u| u.min(clamp)))
        } else {
            self.user_budget
        };
        self.inner.set_shadow_budget(budget);
        self.inner.set_pressure(self.rung);
    }

    /// Publishes the inner detector's modeled bytes to the process-wide
    /// gauge as deltas. Reporting only — the gauge never feeds the
    /// ladder.
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
        let g = process_gauge();
        g.sub(MemComponent::Shadow, self.pushed[0]);
        g.sub(MemComponent::VcClocks, self.pushed[1]);
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
        let mut admit = true;
        if self.rung == PressureLevel::Critical {
            if let Some((addr, _, _)) = ev.access() {
                admit = self.sampler.admit(addr.0);
            }
        }
        if admit {
            self.inner.on_event(ev);
        }
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
        rep.stats.events += self.sampler.skipped();
        rep.stats.sample_admitted += self.sampler.admitted();
        rep.stats.sample_skipped += self.sampler.skipped();
        if self.peak_rung > 0 {
            rep.governor = Some(GovernorReport {
                limit: self.spec.limit,
                peak_rung: self.peak_rung,
                final_rung: self.rung.rung(),
                decisions: self.decisions,
                peak_assessed_bytes: self.peak_assessed,
                engaged: self.engaged,
                transitions: std::mem::take(&mut self.transitions),
            });
        }
        // Reset to a fresh governed state: back to rung 0, the user's
        // own budget restored, gauge contribution withdrawn.
        self.rung = PressureLevel::None;
        self.events = 0;
        self.decisions = 0;
        self.peak_rung = 0;
        self.peak_assessed = 0;
        self.engaged = [0; 3];
        self.transitions.clear();
        self.sampler.reset();
        self.retract_gauge();
        self.apply_rung();
        rep
    }

    fn set_shadow_budget(&mut self, bytes: Option<u64>) {
        self.user_budget = bytes;
        self.apply_rung();
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
        w.u8(self.rung.rung());
        w.u64(self.events);
        w.u64(self.decisions);
        w.u8(self.peak_rung);
        w.u64(self.peak_assessed);
        for e in self.engaged {
            w.u64(e);
        }
        w.count(self.transitions.len());
        for t in &self.transitions {
            w.u64(t.event);
            w.u8(t.from);
            w.u8(t.to);
            w.u64(t.assessed_bytes);
        }
        self.sampler.encode(w);
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
        let rung = r.u8()?;
        if rung > PressureLevel::Critical.rung() {
            let what = "governor rung";
            return Err(TraceError::Malformed { offset, what }.into());
        }
        let events = r.u64()?;
        let decisions = r.u64()?;
        let peak_rung = r.u8()?;
        let peak_assessed = r.u64()?;
        let mut engaged = [0u64; 3];
        for e in engaged.iter_mut() {
            *e = r.u64()?;
        }
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
        self.sampler.decode(r)?;
        self.inner.read_section(r)?;
        self.rung = PressureLevel::from_rung(rung);
        self.events = events;
        self.decisions = decisions;
        self.peak_rung = peak_rung;
        self.peak_assessed = peak_assessed;
        self.engaged = engaged;
        self.transitions = transitions;
        // Re-arm the resumed rung's mechanisms: the budget clamp and the
        // pressure level are run-time side effects, not serialized inner
        // state.
        self.apply_rung();
        Ok(())
    }
}

impl<D: ShardableDetector> ShardableDetector for Governed<D> {
    fn new_shard(&self) -> Box<dyn Detector + Send> {
        let mut shard = Governed::new(self.inner.new_shard(), self.spec.clone());
        shard.user_budget = self.user_budget;
        Box::new(shard)
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
            sample: SampleSpec::parse(CRITICAL_SAMPLE).unwrap(),
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
        assert!(g.peak_rung >= 1, "at least the evict rung: {g:?}");
        assert!(!g.transitions.is_empty());
        assert_eq!(g.limit, peak / 2);
        assert!(g.decisions > 0);
        assert!(g.peak_assessed_bytes > 0);
        // Engagement counters agree with the transition log.
        let mut engaged = [0u64; 3];
        for t in &g.transitions {
            for r in t.from + 1..=t.to {
                engaged[(r - 1) as usize] += 1;
            }
        }
        assert_eq!(g.engaged, engaged);
        // The evict rung flows through the inner budget machinery.
        if g.peak_rung >= 1 {
            assert!(rep.budget_degraded, "rung 1 clamps the shadow budget");
        }
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
    fn critical_rung_engages_the_sampler() {
        // Build shadow state far past a tiny quota, then hammer a hot
        // working set: once critical, the loc:4 sampler's per-granule
        // budgets exhaust and later passes are thinned.
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32);
        for i in 0..4096u64 {
            b.write(0u32, 0x1_0000 + i * 64, AccessSize::U64);
        }
        for _pass in 0..8 {
            for i in 0..512u64 {
                b.write(1u32, 0x1_0000 + i * 64, AccessSize::U64);
            }
        }
        b.join(0u32, 1u32);
        let trace = b.build();
        let mut gov = Governed::new(FastTrack::new(), spec(8 * 1024));
        let rep = gov.run(&trace);
        let g = rep.governor.as_ref().expect("governor engaged");
        assert_eq!(g.peak_rung, 3, "tiny quota drives to critical: {g:?}");
        assert!(
            rep.stats.sample_skipped > 0,
            "critical rung thinned admissions"
        );
        // Event accounting still covers the whole trace.
        assert_eq!(rep.stats.events, trace.len() as u64);
    }

    #[test]
    fn release_floor_steps_back_down() {
        // Grow shadow state past the critical watermark, then free it
        // all and keep running: the ladder must walk back down.
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
        assert!(g.peak_rung >= 1);
        assert!(
            g.final_rung < g.peak_rung,
            "freed state de-escalates: {g:?}"
        );
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
        assert!(
            a.rung() > PressureLevel::None,
            "pressure built before the split"
        );
        let snap = a.snapshot().expect("fasttrack snapshots");
        let mut b = Governed::new(FastTrack::new(), sp);
        b.restore(&snap).unwrap();
        assert_eq!(b.rung(), a.rung(), "resumed at the same rung");
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
    fn sharded_clone_copies_spec_and_user_budget() {
        let mut proto = Governed::new(FastTrack::new(), spec(1 << 20));
        proto.set_shadow_budget(Some(1 << 16));
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
