//! The always-on sampling tier: bounded-overhead detection.
//!
//! Full happens-before tracking is too expensive to leave running across
//! a fleet; this module trades recall for throughput with two
//! strategies, both wrapped around an unmodified inner detector:
//!
//! * **`loc:K`** — per-location budgets in the style of "Dynamic Race
//!   Detection with O(1) Samples": every shadow granule (8 bytes by
//!   default, `granule:G` to coarsen) analyzes its first `K` accesses
//!   unconditionally, then admits access number `n` with probability
//!   `K/(n+1)` (a reservoir-shaped decay), so late races keep a
//!   detection chance instead of being cut off at a hard prefix;
//! * **`period:N`** — analyze one window in `N` of the access stream
//!   (window length `window:W` accesses, default 1024). Synchronization
//!   events are *always* processed, so the inner detector's vector
//!   clocks stay exact and every admitted access is judged against
//!   correct happens-before state.
//!
//! Every decision is a pure function of `(seed, counters, address)` —
//! there is no stateful RNG. Randomness comes from a splitmix64-style
//! hash of the seed and the per-shard access counter (or granule
//! count), which makes sampled runs deterministic, byte-identical
//! across repeats, and exactly resumable: a snapshot only needs the
//! counters. When the budget is 100% (`period:1` or `full`) every
//! access is admitted and the wrapped detector's report is
//! byte-identical to an unsampled run (modulo the detector name and the
//! sampling counters themselves).
//!
//! Accounting follows the [`crate::StaticPruneFilter`] contract:
//! `stats.events` keeps counting everything that *arrived*,
//! `stats.accesses` counts only what was analyzed, and the difference
//! is recorded in `stats.sample_skipped` (with `sample_admitted` as the
//! complement) so sampled runs stay auditable.

use std::fmt;

use dgrace_trace::{Event, SnapshotReader, SnapshotWriter};

use crate::snap::{Section, SectionError};
use crate::{Detector, Report, ShardableDetector};

/// Shadow granule for per-location budgets, in bytes.
pub const LOC_GRANULE: u64 = 8;
/// Default window length (accesses) for `period:` sampling.
pub const DEFAULT_WINDOW: u64 = 1024;
/// Slots in the per-location counter table (a direct-indexed 64 KiB
/// array, not a hash map — the counter update must cost a handful of
/// cycles or the sampler eats its own savings). Two granules hashing to
/// the same slot share a counter, which only makes their decay start
/// earlier; the decision stays deterministic.
pub const LOC_TABLE_SLOTS: usize = 1 << 16;

/// splitmix64 finalizer: the counter-hash behind every probabilistic
/// admission decision. Stateless, so sampler state is just counters.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One parsed `--sample` strategy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SampleStrategy {
    /// Admit everything. The disabled tier: the hot path is one branch
    /// on the strategy plus one counter increment.
    Full,
    /// Per-location budget: first `budget` accesses per granule, then
    /// reservoir-decayed admission.
    Location {
        /// Accesses analyzed per granule before decay starts.
        budget: u32,
        /// Counting granule in bytes (power of two). The default is the
        /// 8-byte shadow cell; coarser granules (`granule:256`) spend
        /// the budget on each *region's* earliest accesses, which thins
        /// hot streaming buffers aggressively while cold locations —
        /// where races hide — keep their full budget.
        granule: u64,
    },
    /// Analyze 1-in-`n` windows of `window` accesses each.
    Period {
        /// Window stride: 1 admits every window (100% budget).
        n: u64,
        /// Window length in accesses.
        window: u64,
    },
}

/// A parsed sampling specification: strategy plus decision seed.
///
/// Canonical text forms (also the `Display` output, embedded in the
/// detector name and in snapshots):
///
/// ```text
/// full
/// loc:8            loc:8,seed:42        loc:2,granule:256
/// period:4         period:4,window:512,seed:42
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SampleSpec {
    /// The admission strategy.
    pub strategy: SampleStrategy,
    /// Seed folded into every hash-based decision (and the period
    /// phase). Zero is a valid seed.
    pub seed: u64,
}

impl SampleSpec {
    /// The 100%-budget spec: admit everything.
    pub fn full() -> Self {
        SampleSpec {
            strategy: SampleStrategy::Full,
            seed: 0,
        }
    }

    /// Parses a `--sample` spec. See the type docs for the grammar.
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut parts = s.split(',');
        let head = parts.next().unwrap_or("");
        let mut spec = match head.split_once(':') {
            None if head == "full" => SampleSpec::full(),
            None => return Err(format!("sample spec `{s}`: expected `strategy:value`")),
            Some(("loc", v)) => {
                let budget: u32 = v
                    .parse()
                    .map_err(|_| format!("sample spec `{s}`: bad loc budget `{v}`"))?;
                if budget == 0 {
                    return Err(format!("sample spec `{s}`: loc budget must be positive"));
                }
                SampleSpec {
                    strategy: SampleStrategy::Location {
                        budget,
                        granule: LOC_GRANULE,
                    },
                    seed: 0,
                }
            }
            Some(("period", v)) => {
                let n: u64 = v
                    .parse()
                    .map_err(|_| format!("sample spec `{s}`: bad period `{v}`"))?;
                if n == 0 {
                    return Err(format!("sample spec `{s}`: period must be positive"));
                }
                SampleSpec {
                    strategy: SampleStrategy::Period {
                        n,
                        window: DEFAULT_WINDOW,
                    },
                    seed: 0,
                }
            }
            Some((other, _)) => {
                return Err(format!(
                    "sample spec `{s}`: unknown strategy `{other}` \
                     (use full, loc:K, period:N)"
                ))
            }
        };
        for part in parts {
            match part.split_once(':') {
                Some(("seed", v)) => {
                    spec.seed = v
                        .parse()
                        .map_err(|_| format!("sample spec `{s}`: bad seed `{v}`"))?;
                }
                Some(("window", v)) => match &mut spec.strategy {
                    SampleStrategy::Period { window, .. } => {
                        *window = v
                            .parse()
                            .map_err(|_| format!("sample spec `{s}`: bad window `{v}`"))?;
                        if *window == 0 {
                            return Err(format!("sample spec `{s}`: window must be positive"));
                        }
                    }
                    _ => {
                        return Err(format!(
                            "sample spec `{s}`: window only applies to period sampling"
                        ))
                    }
                },
                Some(("granule", v)) => match &mut spec.strategy {
                    SampleStrategy::Location { granule, .. } => {
                        *granule = v
                            .parse()
                            .map_err(|_| format!("sample spec `{s}`: bad granule `{v}`"))?;
                        if !granule.is_power_of_two() || *granule < LOC_GRANULE || *granule > 65536
                        {
                            return Err(format!(
                                "sample spec `{s}`: granule must be a power of two in \
                                 [{LOC_GRANULE}, 65536]"
                            ));
                        }
                    }
                    _ => {
                        return Err(format!(
                            "sample spec `{s}`: granule only applies to loc sampling"
                        ))
                    }
                },
                _ => return Err(format!("sample spec `{s}`: unknown option `{part}`")),
            }
        }
        Ok(spec)
    }

    /// Does this spec admit every access (a 100% budget)?
    pub fn is_full_budget(&self) -> bool {
        match self.strategy {
            SampleStrategy::Full => true,
            SampleStrategy::Location { .. } => false,
            SampleStrategy::Period { n, .. } => n == 1,
        }
    }
}

impl fmt::Display for SampleSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.strategy {
            SampleStrategy::Full => write!(f, "full")?,
            SampleStrategy::Location { budget, granule } => {
                write!(f, "loc:{budget}")?;
                if granule != LOC_GRANULE {
                    write!(f, ",granule:{granule}")?;
                }
            }
            SampleStrategy::Period { n, window } => {
                write!(f, "period:{n}")?;
                if window != DEFAULT_WINDOW {
                    write!(f, ",window:{window}")?;
                }
            }
        }
        if self.seed != 0 {
            write!(f, ",seed:{}", self.seed)?;
        }
        Ok(())
    }
}

/// The admission state machine. All fields are either configuration
/// (derived from the spec) or counters — the serialized state in a
/// snapshot is counters only.
#[derive(Clone, Debug)]
pub struct Sampler {
    spec: SampleSpec,
    /// Accesses observed (admitted + skipped).
    seen: u64,
    /// Accesses admitted to the inner detector.
    admitted: u64,
    /// Per-granule access counts (`loc:` strategy only): a
    /// direct-indexed table of [`LOC_TABLE_SLOTS`] saturating `u8`
    /// counters, keyed by the top bits of the granule's Fibonacci
    /// hash. Empty for every other strategy.
    loc_counts: Vec<u8>,
    /// Derived period phase: which window residue is analyzed.
    phase: u64,
}

impl Sampler {
    /// Builds a sampler for `spec`.
    pub fn new(spec: SampleSpec) -> Self {
        let phase = match spec.strategy {
            SampleStrategy::Period { n, .. } => mix(spec.seed) % n,
            _ => 0,
        };
        let loc_counts = match spec.strategy {
            SampleStrategy::Location { .. } => vec![0u8; LOC_TABLE_SLOTS],
            _ => Vec::new(),
        };
        Sampler {
            spec,
            seen: 0,
            admitted: 0,
            loc_counts,
            phase,
        }
    }

    /// The spec this sampler was built from.
    pub fn spec(&self) -> &SampleSpec {
        &self.spec
    }

    /// Accesses observed so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Accesses admitted so far.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Accesses skipped so far.
    pub fn skipped(&self) -> u64 {
        self.seen - self.admitted
    }

    /// A fresh sampler with the same configuration and zeroed counters —
    /// the per-shard clone.
    pub fn fresh(&self) -> Self {
        Sampler {
            spec: self.spec.clone(),
            seen: 0,
            admitted: 0,
            loc_counts: vec![0u8; self.loc_counts.len()],
            phase: self.phase,
        }
    }

    /// The admission decision for one access at `addr`. One branch (on
    /// the strategy) plus one counter increment when sampling is off.
    #[inline]
    pub fn admit(&mut self, addr: u64) -> bool {
        let i = self.seen;
        self.seen += 1;
        let ok = match self.spec.strategy {
            SampleStrategy::Full => true,
            SampleStrategy::Location { budget, granule } => {
                let granule = addr & !(granule - 1);
                let key = granule.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let slot = (key >> 48) as usize;
                let n = self.loc_counts[slot];
                self.loc_counts[slot] = n.saturating_add(1);
                let n = n as u64;
                // First `budget` accesses are certain; access n (0-based)
                // is then admitted with probability budget/(n+1) — the
                // reservoir decay that keeps late races detectable, with
                // a budget/256 floor once the u8 counter saturates. The
                // draw maps onto [0, n+1) by multiply-shift (Lemire);
                // an integer division here would dominate the decision.
                n < budget as u64
                    || ((mix(self.spec.seed ^ key ^ n) as u128 * (n as u128 + 1)) >> 64)
                        < budget as u128
            }
            SampleStrategy::Period { n, window } => (i / window) % n == self.phase,
        };
        self.admitted += ok as u64;
        ok
    }

    /// Resets all counters (configuration is kept) — called from
    /// `finish` so the wrapper is reusable like every detector.
    pub fn reset(&mut self) {
        self.seen = 0;
        self.admitted = 0;
        self.loc_counts.fill(0);
    }

    /// Serializes the sampler's spec and counters into `w` (canonical:
    /// nonzero counter slots in ascending order).
    pub(crate) fn encode(&self, w: &mut SnapshotWriter) {
        w.str(&self.spec.to_string());
        w.u64(self.seen);
        w.u64(self.admitted);
        let nonzero: Vec<(usize, u8)> = self
            .loc_counts
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(slot, &n)| (slot, n))
            .collect();
        w.count(nonzero.len());
        for (slot, n) in nonzero {
            w.u32(slot as u32);
            w.u8(n);
        }
    }

    /// Restores counters from [`Sampler::encode`]d state; the spec must
    /// match this sampler's configuration.
    pub(crate) fn decode(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SectionError> {
        let spec = r.str()?;
        if spec != self.spec.to_string() {
            return Err(SectionError::Mismatch(format!(
                "sampler snapshot was taken under spec `{spec}`, this run uses `{}`",
                self.spec
            )));
        }
        self.seen = r.u64()?;
        self.admitted = r.u64()?;
        let n = r.count("sampler counter slots")?;
        self.loc_counts.fill(0);
        for _ in 0..n {
            let slot = r.u32()? as usize;
            let count = r.u8()?;
            match self.loc_counts.get_mut(slot) {
                Some(c) => *c = count,
                None => {
                    return Err(SectionError::Mismatch(format!(
                        "sampler snapshot: counter slot {slot} out of range \
                         for this spec's table ({} slots)",
                        self.loc_counts.len()
                    )))
                }
            }
        }
        Ok(())
    }
}

/// Wraps any detector with an admission sampler: every sync, alloc, and
/// free event passes through (clocks stay exact), accesses are gated by
/// the [`Sampler`]. Composes with the other wrappers and with sharding —
/// [`ShardableDetector::new_shard`] clones the configuration so each
/// shard samples its own stream deterministically.
pub struct Sampled<D> {
    inner: D,
    sampler: Sampler,
}

impl<D: Detector> Sampled<D> {
    /// Wraps `inner` under `spec`.
    pub fn new(inner: D, spec: SampleSpec) -> Self {
        Sampled {
            inner,
            sampler: Sampler::new(spec),
        }
    }

    /// Wraps `inner` with an already-configured sampler.
    pub fn with_sampler(inner: D, sampler: Sampler) -> Self {
        Sampled { inner, sampler }
    }

    /// The sampler, for inspection in tests.
    pub fn sampler(&self) -> &Sampler {
        &self.sampler
    }
}

impl<D: Detector> Detector for Sampled<D> {
    fn name(&self) -> String {
        format!("{}+sampled@{}", self.inner.name(), self.sampler.spec)
    }

    fn on_event(&mut self, ev: &Event) {
        if let Some((addr, _, _)) = ev.access() {
            if !self.sampler.admit(addr.0) {
                return;
            }
        }
        self.inner.on_event(ev);
    }

    fn finish(&mut self) -> Report {
        let mut rep = self.inner.finish();
        // The StaticPruneFilter contract: `events` counts everything
        // that arrived, `accesses` only what was analyzed, with the
        // difference carried in the sampling counters.
        rep.stats.events += self.sampler.skipped();
        rep.stats.sample_admitted += self.sampler.admitted();
        rep.stats.sample_skipped += self.sampler.skipped();
        rep.detector = self.name();
        self.sampler.reset();
        // Race order is the inner detector's, untouched: at 100% budget
        // the report must be byte-identical to an unsampled run, and the
        // funnel/pipeline merge already canonicalizes multi-shard order.
        rep
    }

    fn inner(&self) -> Option<&dyn Detector> {
        Some(&self.inner)
    }

    fn inner_mut(&mut self) -> Option<&mut dyn Detector> {
        Some(&mut self.inner)
    }

    fn write_section(&self, w: &mut SnapshotWriter) -> bool {
        Section::Sampler.write(w);
        self.sampler.encode(w);
        self.inner.write_section(w)
    }

    fn read_section(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SectionError> {
        Section::Sampler.read(r)?;
        self.sampler.decode(r)?;
        self.inner.read_section(r)
    }
}

impl<D: ShardableDetector> ShardableDetector for Sampled<D> {
    fn new_shard(&self) -> Box<dyn Detector + Send> {
        Box::new(Sampled::with_sampler(
            self.inner.new_shard(),
            self.sampler.fresh(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DetectorExt, FastTrack};
    use dgrace_trace::{AccessSize, Trace, TraceBuilder};

    fn racy_trace() -> Trace {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32);
        for i in 0..64u64 {
            b.write(0u32, 0x1000 + i * 8, AccessSize::U64);
        }
        for i in 0..64u64 {
            b.write(1u32, 0x1000 + i * 8, AccessSize::U64);
        }
        b.join(0u32, 1u32);
        b.build()
    }

    #[test]
    fn spec_parse_and_display_round_trip() {
        for (input, canonical) in [
            ("full", "full"),
            ("loc:8", "loc:8"),
            ("loc:8,seed:42", "loc:8,seed:42"),
            ("period:4", "period:4"),
            ("period:4,window:512", "period:4,window:512"),
            ("period:4,window:512,seed:9", "period:4,window:512,seed:9"),
        ] {
            let spec = SampleSpec::parse(input).unwrap();
            assert_eq!(spec.to_string(), canonical);
            assert_eq!(SampleSpec::parse(&spec.to_string()).unwrap(), spec);
        }
        for bad in [
            "",
            "loc:0",
            "loc:x",
            "period:0",
            "adaptive:0.5",
            "nope:3",
            "loc:4,window:9",
            "loc:4,bogus:1",
        ] {
            assert!(SampleSpec::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn full_budget_specs_are_identity() {
        let trace = racy_trace();
        let bare = FastTrack::new().run(&trace);
        for spec in ["full", "period:1"] {
            let spec = SampleSpec::parse(spec).unwrap();
            assert!(spec.is_full_budget());
            let mut det = Sampled::new(FastTrack::new(), spec.clone());
            let rep = det.run(&trace);
            assert_eq!(rep.races, bare.races, "{spec}");
            assert_eq!(rep.stats.events, bare.stats.events, "{spec}");
            assert_eq!(rep.stats.accesses, bare.stats.accesses, "{spec}");
            assert_eq!(rep.stats.sample_skipped, 0, "{spec}");
            assert_eq!(rep.stats.sample_admitted, bare.stats.accesses, "{spec}");
            assert!(rep.detector.contains("+sampled@"), "{}", rep.detector);
        }
    }

    #[test]
    fn loc_budget_admits_first_k_per_granule() {
        let spec = SampleSpec::parse("loc:2").unwrap();
        let mut s = Sampler::new(spec);
        // First two accesses to a granule are always admitted.
        assert!(s.admit(0x1000));
        assert!(s.admit(0x1004), "same 8-byte granule");
        // A different granule starts its own budget.
        assert!(s.admit(0x2000));
        // Later accesses decay: over many, roughly budget-many admitted.
        let mut late = 0;
        for _ in 0..1000 {
            late += s.admit(0x1000) as u64;
        }
        assert!(late < 100, "decay keeps late admissions rare, got {late}");
        assert_eq!(s.seen(), 1003);
        assert_eq!(s.admitted(), s.seen() - s.skipped());
    }

    #[test]
    fn period_sampling_is_exact_rate_and_sync_exact() {
        let spec = SampleSpec::parse("period:4,window:16").unwrap();
        let mut s = Sampler::new(spec);
        let mut admitted = 0u64;
        for _ in 0..16 * 4 * 10 {
            admitted += s.admit(0x1000) as u64;
        }
        assert_eq!(admitted, 16 * 10, "exactly one window in four");
    }

    #[test]
    fn period_seed_rotates_phase_deterministically() {
        let a1: Vec<bool> = {
            let mut s = Sampler::new(SampleSpec::parse("period:4,window:4,seed:1").unwrap());
            (0..64).map(|_| s.admit(0x10)).collect()
        };
        let a2: Vec<bool> = {
            let mut s = Sampler::new(SampleSpec::parse("period:4,window:4,seed:1").unwrap());
            (0..64).map(|_| s.admit(0x10)).collect()
        };
        assert_eq!(a1, a2, "same seed, same decisions");
        let b: Vec<bool> = {
            let mut s = Sampler::new(SampleSpec::parse("period:4,window:4,seed:2").unwrap());
            (0..64).map(|_| s.admit(0x10)).collect()
        };
        assert_eq!(
            b.iter().filter(|&&x| x).count(),
            16,
            "different seed keeps the rate"
        );
    }

    #[test]
    fn sampled_snapshot_round_trips_mid_run() {
        use crate::FastTrack;
        let trace = racy_trace();
        let spec = SampleSpec::parse("loc:2,seed:9").unwrap();
        let mut a = Sampled::new(FastTrack::new(), spec.clone());
        let split = trace.len() / 2;
        for ev in trace.iter().take(split) {
            a.on_event(ev);
        }
        let snap = a.snapshot().expect("fasttrack supports snapshots");
        let mut b = Sampled::new(FastTrack::new(), spec);
        b.restore(&snap).unwrap();
        for ev in trace.iter().skip(split) {
            a.on_event(ev);
            b.on_event(ev);
        }
        let ra = a.finish();
        let rb = b.finish();
        assert_eq!(ra, rb, "restored run is byte-identical");
    }

    #[test]
    fn restore_rejects_wrong_spec() {
        use crate::FastTrack;
        let a = Sampled::new(FastTrack::new(), SampleSpec::parse("loc:2").unwrap());
        let snap = a.snapshot().unwrap();
        let mut b = Sampled::new(FastTrack::new(), SampleSpec::parse("loc:4").unwrap());
        let err = b.restore(&snap).unwrap_err();
        assert!(err.contains("loc:2"), "{err}");
    }

    #[test]
    fn sharded_clone_copies_configuration_not_counters() {
        use crate::FastTrack;
        let proto = Sampled::new(
            FastTrack::new(),
            SampleSpec::parse("period:2,seed:7").unwrap(),
        );
        let mut shard = proto.new_shard();
        let mut b = TraceBuilder::new();
        b.write(0u32, 0x1000u64, AccessSize::U64);
        let rep = shard.run(&b.build());
        assert!(rep.detector.contains("+sampled@period:2,seed:7"));
        assert_eq!(rep.stats.sample_admitted + rep.stats.sample_skipped, 1);
    }
}
