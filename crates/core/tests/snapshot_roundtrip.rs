//! Property test for the checkpoint contract: for every detector family
//! and shadow-store backend, `snapshot()` taken at an arbitrary point in
//! an arbitrary (even racy) trace restores into a fresh detector that is
//! behaviorally indistinguishable from the original on any event suffix,
//! and whose own snapshot is byte-identical (canonical encoding).

use dgrace_core::DynamicGranularityOn;
use dgrace_detectors::{Detector, DjitOn, FastTrackOn};
use dgrace_shadow::{HashSelect, PagedSelect};
use dgrace_trace::{AccessSize, Addr, Event, LockId, Tid};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum TraceOp {
    Read(u8, u8),
    Write(u8, u8),
    Lock(u8, u8),
    Unlock(u8, u8),
    Free(u8, u8),
}

fn arb_trace_op() -> impl Strategy<Value = TraceOp> {
    prop_oneof![
        (0u8..3, 0u8..32).prop_map(|(t, a)| TraceOp::Read(t, a)),
        (0u8..3, 0u8..32).prop_map(|(t, a)| TraceOp::Write(t, a)),
        (0u8..3, 0u8..3).prop_map(|(t, l)| TraceOp::Lock(t, l)),
        (0u8..3, 0u8..3).prop_map(|(t, l)| TraceOp::Unlock(t, l)),
        (0u8..3, 0u8..32).prop_map(|(t, a)| TraceOp::Free(t, a)),
    ]
}

fn addr(slot: u8) -> Addr {
    Addr(0x100 + slot as u64 * 4)
}

/// Legalizes the op stream (forks first, only unlock what's held) into a
/// concrete event sequence; mirrors `plane_invariants.rs`.
fn legalize(ops: &[TraceOp]) -> Vec<Event> {
    let mut events = vec![
        Event::Fork {
            parent: Tid(0),
            child: Tid(1),
        },
        Event::Fork {
            parent: Tid(0),
            child: Tid(2),
        },
    ];
    let mut held: Vec<(u8, u8)> = Vec::new();
    for op in ops {
        let ev = match *op {
            TraceOp::Read(t, a) => Some(Event::Read {
                tid: Tid(t as u32),
                addr: addr(a),
                size: AccessSize::U32,
            }),
            TraceOp::Write(t, a) => Some(Event::Write {
                tid: Tid(t as u32),
                addr: addr(a),
                size: AccessSize::U32,
            }),
            TraceOp::Lock(t, l) => {
                if held.iter().any(|&(_, hl)| hl == l) {
                    None
                } else {
                    held.push((t, l));
                    Some(Event::Acquire {
                        tid: Tid(t as u32),
                        lock: LockId(l as u32),
                    })
                }
            }
            TraceOp::Unlock(t, l) => {
                if let Some(i) = held.iter().position(|&h| h == (t, l)) {
                    held.swap_remove(i);
                    Some(Event::Release {
                        tid: Tid(t as u32),
                        lock: LockId(l as u32),
                    })
                } else {
                    None
                }
            }
            TraceOp::Free(t, a) => Some(Event::Free {
                tid: Tid(t as u32),
                addr: addr(a),
                size: 8,
            }),
        };
        if let Some(ev) = ev {
            events.push(ev);
        }
    }
    events
}

/// One fresh instance per detector family × store backend.
/// `(name, a detector, a second instance to restore into)`.
type Pair = (&'static str, Box<dyn Detector>, Box<dyn Detector>);

fn fresh_detectors() -> Vec<Pair> {
    macro_rules! combo {
        ($name:expr, $ty:ty) => {
            (
                $name,
                Box::new(<$ty>::new()) as Box<dyn Detector>,
                Box::new(<$ty>::new()) as Box<dyn Detector>,
            )
        };
    }
    vec![
        combo!("fasttrack/hash", FastTrackOn<HashSelect>),
        combo!("fasttrack/paged", FastTrackOn<PagedSelect>),
        combo!("djit/hash", DjitOn<HashSelect>),
        combo!("djit/paged", DjitOn<PagedSelect>),
        combo!("dynamic/hash", DynamicGranularityOn<HashSelect>),
        combo!("dynamic/paged", DynamicGranularityOn<PagedSelect>),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// snapshot → restore at a random split point preserves all detector
    /// state: the restored instance matches the original on the remaining
    /// suffix (full report equality), and its own snapshot is
    /// byte-identical to the one it was built from.
    #[test]
    fn snapshot_restore_round_trips_at_any_point(
        ops in proptest::collection::vec(arb_trace_op(), 1..120),
        split in 0usize..120,
    ) {
        let events = legalize(&ops);
        let split = split.min(events.len());
        for (name, mut original, mut restored) in fresh_detectors() {
            for ev in &events[..split] {
                original.on_event(ev);
            }

            let snap = original
                .snapshot()
                .unwrap_or_else(|| panic!("{name}: snapshot supported"));
            restored
                .restore(&snap)
                .unwrap_or_else(|e| panic!("{name}: restore accepts own snapshot: {e}"));
            let resnap = restored
                .snapshot()
                .unwrap_or_else(|| panic!("{name}: restored instance snapshots"));
            prop_assert_eq!(
                &snap, &resnap,
                "{}: canonical encoding — restore(snapshot()) re-snapshots byte-identically",
                name
            );

            for ev in &events[split..] {
                original.on_event(ev);
                restored.on_event(ev);
            }
            prop_assert_eq!(
                original.finish(),
                restored.finish(),
                "{}: original and restored detectors agree on the suffix",
                name
            );
        }
    }

    /// A snapshot from one store backend must not restore into the other:
    /// the blob embeds the detector name, and configuration mismatches are
    /// rejected with a diagnostic instead of silently corrupting state.
    #[test]
    fn cross_backend_restore_is_rejected(
        ops in proptest::collection::vec(arb_trace_op(), 1..40),
    ) {
        let events = legalize(&ops);
        let mut hash = FastTrackOn::<HashSelect>::new();
        for ev in &events {
            hash.on_event(ev);
        }
        let snap = hash.snapshot().expect("snapshot supported");
        let mut paged = FastTrackOn::<PagedSelect>::new();
        prop_assert!(
            paged.restore(&snap).is_err(),
            "restoring a hash-store snapshot into a paged-store detector must fail"
        );
    }
}
