//! Deterministic fault injection for the engine's containment tests.
//!
//! Three kinds of faults are modeled, matching the failure domains the
//! runtime hardens against:
//!
//! * **Shard panics** — [`PanicOnEvent`] wraps a detector prototype so
//!   that one chosen shard panics on its Nth event, deterministically.
//!   The panic message always contains the marker
//!   [`INJECTED_PANIC_MARKER`], which [`silence_injected_panics`] uses to
//!   keep test output readable without hiding real panics.
//! * **Trace corruption** — [`corrupt_byte`] flips a chosen byte of an
//!   encoded trace, for driving the hardened decoders.
//! * **Budget pressure** — no helper needed: set a tight shadow budget
//!   via `Detector::set_shadow_budget`.
//!
//! Everything here is deterministic: the same fault specification against
//! the same trace produces the same quarantine point, so the differential
//! assertions in `tests/fault_injection.rs` are exact, not statistical.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Once};

use dgrace_detectors::{Detector, Report, ShardableDetector};
use dgrace_trace::Event;

/// Marker substring present in every injected panic message; the panic
/// hook installed by [`silence_injected_panics`] suppresses only panics
/// carrying it.
pub const INJECTED_PANIC_MARKER: &str = "fault-injection";

/// A detector wrapper that panics deterministically: the shard spawned
/// `target_shard`-th (in `new_shard` order, 0-based) panics when it
/// receives its `panic_at`-th event (1-based, counting every event fed to
/// that shard — accesses and sync broadcasts alike).
///
/// The prototype itself never panics; only spawned shards count events.
/// Shard indices are handed out from a counter shared across all shards
/// spawned from one prototype, so the mapping is reproducible: the
/// engine constructs shards in index order.
#[derive(Debug)]
pub struct PanicOnEvent<D> {
    inner: D,
    target_shard: usize,
    panic_at: u64,
    /// This instance's shard index; `usize::MAX` marks the prototype.
    index: usize,
    seen: u64,
    next_index: Arc<AtomicUsize>,
}

impl<D> PanicOnEvent<D> {
    /// Wraps `inner` so the `target_shard`-th spawned shard panics at its
    /// `panic_at`-th event. `panic_at == 0` never fires.
    pub fn new(inner: D, target_shard: usize, panic_at: u64) -> Self {
        PanicOnEvent {
            inner,
            target_shard,
            panic_at,
            index: usize::MAX,
            seen: 0,
            next_index: Arc::new(AtomicUsize::new(0)),
        }
    }
}

impl<D: Detector> Detector for PanicOnEvent<D> {
    fn name(&self) -> String {
        format!("{}+fault", self.inner.name())
    }

    fn on_event(&mut self, ev: &Event) {
        if self.index == self.target_shard {
            self.seen += 1;
            if self.seen == self.panic_at {
                panic!(
                    "{INJECTED_PANIC_MARKER}: shard {} panicked at its event {}",
                    self.index, self.seen
                );
            }
        }
        self.inner.on_event(ev);
    }

    fn finish(&mut self) -> Report {
        self.seen = 0;
        self.inner.finish()
    }

    // Everything else — checkpointing included — passes through to the
    // wrapped detector: the fault specification is not part of the
    // analysis state, so a snapshot taken through the wrapper restores
    // into any detector of the same inner configuration (wrapped or not).
    fn inner(&self) -> Option<&dyn Detector> {
        Some(&self.inner)
    }

    fn inner_mut(&mut self) -> Option<&mut dyn Detector> {
        Some(&mut self.inner)
    }
}

impl<D: ShardableDetector> ShardableDetector for PanicOnEvent<D> {
    fn new_shard(&self) -> Box<dyn Detector + Send> {
        let index = self.next_index.fetch_add(1, Ordering::Relaxed);
        Box::new(PanicOnEvent {
            inner: self.inner.new_shard(),
            target_shard: self.target_shard,
            panic_at: self.panic_at,
            index,
            seen: 0,
            next_index: Arc::clone(&self.next_index),
        })
    }
}

/// Installs (once per process) a panic hook that suppresses the default
/// "thread panicked" stderr noise for *injected* panics — those whose
/// message contains [`INJECTED_PANIC_MARKER`] — while delegating every
/// other panic to the previously installed hook. The engine catches the
/// injected panics anyway; this only keeps test logs honest.
pub fn silence_injected_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied());
            if msg.is_some_and(|m| m.contains(INJECTED_PANIC_MARKER)) {
                return;
            }
            prev(info);
        }));
    });
}

/// Overwrites the byte at `offset` of an encoded trace with `value`,
/// returning the original byte. Panics if `offset` is out of range —
/// a fault specification pointing outside the trace is a test bug.
pub fn corrupt_byte(bytes: &mut [u8], offset: usize, value: u8) -> u8 {
    let old = bytes[offset];
    bytes[offset] = value;
    old
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgrace_detectors::NopDetector;
    use dgrace_trace::{AccessSize, Addr, Tid};

    #[test]
    fn prototype_never_panics_and_shards_get_indices() {
        silence_injected_panics();
        let proto = PanicOnEvent::new(NopDetector::default(), 1, 1);
        let ev = Event::Write {
            tid: Tid(0),
            addr: Addr(0x100),
            size: AccessSize::U64,
        };
        // Prototype is index usize::MAX: feeding it is safe.
        let mut p = PanicOnEvent::new(NopDetector::default(), 0, 1);
        p.on_event(&ev);
        // Shard 0 is not the target; shard 1 is.
        let mut s0 = proto.new_shard();
        s0.on_event(&ev);
        let mut s1 = proto.new_shard();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s1.on_event(&ev)));
        assert!(err.is_err(), "target shard must panic at event 1");
    }

    #[test]
    fn corrupt_byte_roundtrips() {
        let mut buf = vec![1u8, 2, 3];
        assert_eq!(corrupt_byte(&mut buf, 1, 0xFF), 2);
        assert_eq!(buf, vec![1, 0xFF, 3]);
    }
}
