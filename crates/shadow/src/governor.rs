//! Process-wide memory governor primitives.
//!
//! Two cooperating layers share these types:
//!
//! * **Deterministic cap** (`dgrace_detectors::Governed`): each shard
//!   assesses *its own modeled bytes* against a per-shard quota at fixed
//!   event-count decision points and, past the soft watermark, has its
//!   detector evict cold shadow state down to that watermark. Only
//!   shard-local deterministic inputs feed those decisions, so governed
//!   runs replay byte-identically across the funnel and pipeline paths.
//! * **Process gauge** (this module's [`ProcessGauge`]): a global set of
//!   atomic byte counters. `Governed` publishes its detector's modeled
//!   shadow and clock bytes at each decision point, and the pipeline's
//!   ring lanes and the server's session buffers add their segment
//!   buffers. The gauge feeds the server's admission (sample past the
//!   high watermark, shed past the critical one), where cross-thread
//!   timing already makes determinism impossible; it is never consulted
//!   by the per-shard cap.
//!
//! [`Watermarks`] carve those thresholds out of a byte limit, with the
//! cap's hysteresis in [`Watermarks::release_floor`].

use std::sync::atomic::{AtomicU64, Ordering};

/// Soft watermark numerator over a limit of 100 (60%).
pub const SOFT_PCT: u64 = 60;
/// High watermark numerator over a limit of 100 (80%).
pub const HIGH_PCT: u64 = 80;
/// Critical watermark numerator over a limit of 100 (95%).
pub const CRITICAL_PCT: u64 = 95;

/// The three byte thresholds carved out of a limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Watermarks {
    /// The full byte limit the watermarks divide.
    pub limit: u64,
    /// 60% of the limit: a governed shard evicts cold state down to it.
    pub soft: u64,
    /// 80% of the limit: the server samples new sessions.
    pub high: u64,
    /// 95% of the limit: the server sheds new sessions.
    pub critical: u64,
}

impl Watermarks {
    /// Computes the standard 60/80/95 split of `limit`.
    pub fn for_limit(limit: u64) -> Self {
        Watermarks {
            limit,
            soft: limit / 100 * SOFT_PCT + limit % 100 * SOFT_PCT / 100,
            high: limit / 100 * HIGH_PCT + limit % 100 * HIGH_PCT / 100,
            critical: limit / 100 * CRITICAL_PCT + limit % 100 * CRITICAL_PCT / 100,
        }
    }

    /// The bytes below which an engaged cap lets go: the soft watermark
    /// minus a sixteenth of the limit: hysteresis against flapping when
    /// usage hovers at the watermark.
    pub fn release_floor(&self) -> u64 {
        self.soft.saturating_sub(self.limit / 16)
    }
}

/// Components whose bytes the process gauge accounts separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemComponent {
    /// Shadow stores + vector clocks, as modeled by each detector's
    /// `MemoryModel` (pushed at governor decision points).
    Shadow = 0,
    /// Copy-on-write vector-clock arenas (the `VectorClock` class of the
    /// memory model, broken out for reporting).
    VcClocks = 1,
    /// A replay's lane segment buffers, staged or in flight, at their
    /// capacity.
    RingLanes = 2,
    /// A live session's staged lane segment buffers, at their capacity.
    Sessions = 3,
}

const COMPONENTS: usize = 4;

/// Process-wide atomic byte accounting, one counter per
/// [`MemComponent`] plus a monotonic peak of the total.
///
/// Purely observational: the deterministic ladder never reads it (see
/// the module docs). `set`/`add`/`sub` are lock-free and may be called
/// from any thread.
#[derive(Debug)]
pub struct ProcessGauge {
    bytes: [AtomicU64; COMPONENTS],
    peak_total: AtomicU64,
}

impl ProcessGauge {
    /// An empty gauge (all counters zero).
    pub const fn new() -> Self {
        ProcessGauge {
            bytes: [
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
            ],
            peak_total: AtomicU64::new(0),
        }
    }

    /// Overwrites a component's byte count.
    pub fn set(&self, c: MemComponent, bytes: u64) {
        self.bytes[c as usize].store(bytes, Ordering::Relaxed);
        self.bump_peak();
    }

    /// Adds bytes to a component.
    pub fn add(&self, c: MemComponent, bytes: u64) {
        self.bytes[c as usize].fetch_add(bytes, Ordering::Relaxed);
        self.bump_peak();
    }

    /// Subtracts bytes from a component (saturating).
    pub fn sub(&self, c: MemComponent, bytes: u64) {
        let _ = self.bytes[c as usize].fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
            Some(v.saturating_sub(bytes))
        });
    }

    /// A component's current byte count.
    pub fn current(&self, c: MemComponent) -> u64 {
        self.bytes[c as usize].load(Ordering::Relaxed)
    }

    /// Sum over all components.
    pub fn total(&self) -> u64 {
        self.bytes.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Highest total ever observed at an update.
    pub fn peak_total(&self) -> u64 {
        self.peak_total.load(Ordering::Relaxed)
    }

    /// Zeroes every counter (tests and between CLI runs).
    pub fn reset(&self) {
        for b in &self.bytes {
            b.store(0, Ordering::Relaxed);
        }
        self.peak_total.store(0, Ordering::Relaxed);
    }

    fn bump_peak(&self) {
        let total = self.total();
        self.peak_total.fetch_max(total, Ordering::Relaxed);
    }
}

impl Default for ProcessGauge {
    fn default() -> Self {
        Self::new()
    }
}

static GAUGE: ProcessGauge = ProcessGauge::new();

/// The process-wide gauge singleton.
pub fn process_gauge() -> &'static ProcessGauge {
    &GAUGE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watermarks_split_the_limit() {
        let w = Watermarks::for_limit(1000);
        assert_eq!(w.soft, 600);
        assert_eq!(w.high, 800);
        assert_eq!(w.critical, 950);
    }

    #[test]
    fn watermarks_avoid_mul_overflow() {
        let w = Watermarks::for_limit(u64::MAX);
        assert!(w.soft < w.high && w.high < w.critical && w.critical <= w.limit);
    }

    #[test]
    fn release_floor_sits_below_the_watermark() {
        // limit/16 = 100 of slack under the soft watermark.
        assert_eq!(Watermarks::for_limit(1600).release_floor(), 960 - 100);
        assert_eq!(Watermarks::for_limit(10).release_floor(), 6);
    }

    #[test]
    fn gauge_accounts_per_component() {
        let g = ProcessGauge::new();
        g.set(MemComponent::Shadow, 100);
        g.add(MemComponent::RingLanes, 50);
        g.add(MemComponent::RingLanes, 25);
        assert_eq!(g.current(MemComponent::Shadow), 100);
        assert_eq!(g.current(MemComponent::RingLanes), 75);
        assert_eq!(g.total(), 175);
        assert_eq!(g.peak_total(), 175);
        g.sub(MemComponent::RingLanes, 80); // saturates at 0
        assert_eq!(g.current(MemComponent::RingLanes), 0);
        assert_eq!(g.total(), 100);
        assert_eq!(g.peak_total(), 175, "peak is monotonic");
        g.reset();
        assert_eq!(g.total(), 0);
        assert_eq!(g.peak_total(), 0);
    }
}
