//! Property tests for the vector-clock algebra.

use dgrace_vc::{Epoch, ReadClock, Tid, VectorClock};
use proptest::prelude::*;

const MAX_THREADS: usize = 6;

fn arb_vc() -> impl Strategy<Value = VectorClock> {
    proptest::collection::vec(0u32..20, 0..MAX_THREADS).prop_map(|v| VectorClock::from_slice(&v))
}

fn arb_epoch() -> impl Strategy<Value = Epoch> {
    (1u32..20, 0u32..MAX_THREADS as u32).prop_map(|(c, t)| Epoch::new(c, Tid(t)))
}

proptest! {
    /// join is the least upper bound: both operands ⊑ join, and join ⊑ any
    /// common upper bound.
    #[test]
    fn join_is_lub(a in arb_vc(), b in arb_vc(), ub in arb_vc()) {
        let mut j = a.clone();
        j.join(&b);
        prop_assert!(a.leq(&j));
        prop_assert!(b.leq(&j));
        if a.leq(&ub) && b.leq(&ub) {
            prop_assert!(j.leq(&ub));
        }
    }

    /// join is commutative and idempotent.
    #[test]
    fn join_commutative_idempotent(a in arb_vc(), b in arb_vc()) {
        let mut ab = a.clone();
        ab.join(&b);
        let mut ba = b.clone();
        ba.join(&a);
        prop_assert_eq!(&ab, &ba);
        let mut aa = a.clone();
        aa.join(&a);
        prop_assert_eq!(&aa, &a);
    }

    /// leq is a partial order: reflexive, antisymmetric, transitive.
    #[test]
    fn leq_partial_order(a in arb_vc(), b in arb_vc(), c in arb_vc()) {
        prop_assert!(a.leq(&a));
        if a.leq(&b) && b.leq(&a) {
            prop_assert_eq!(&a, &b);
        }
        if a.leq(&b) && b.leq(&c) {
            prop_assert!(a.leq(&c));
        }
    }

    /// Epoch ⊑ VC agrees with the single-component definition and with
    /// treating the epoch as a one-entry vector clock.
    #[test]
    fn epoch_leq_agrees_with_vc_leq(e in arb_epoch(), v in arb_vc()) {
        let mut as_vc = VectorClock::new();
        as_vc.join_epoch(e);
        prop_assert_eq!(e.leq(&v), as_vc.leq(&v));
    }

    /// first_exceeding returns Some iff not leq, and the witness is valid.
    #[test]
    fn first_exceeding_is_leq_witness(a in arb_vc(), b in arb_vc()) {
        match a.first_exceeding(&b) {
            None => prop_assert!(a.leq(&b)),
            Some((t, c)) => {
                prop_assert!(!a.leq(&b));
                prop_assert_eq!(a.get(t), c);
                prop_assert!(c > b.get(t));
            }
        }
    }

    /// ReadClock::record_read preserves the invariant that the stored
    /// history ⊑ any clock that has observed all recorded reads.
    #[test]
    fn read_clock_records_all_reads(
        reads in proptest::collection::vec((0u32..MAX_THREADS as u32, arb_vc()), 1..10)
    ) {
        let mut rc = ReadClock::none();
        let mut everything = VectorClock::new();
        for (t, mut now) in reads {
            // A thread's own clock component must be positive.
            if now.get(Tid(t)) == 0 {
                now.set(Tid(t), 1);
            }
            rc.record_read(Tid(t), &now);
            everything.join(&now);
            // After recording, the latest read from t is remembered:
            prop_assert!(rc.find_concurrent_read(&everything).is_none());
        }
        prop_assert!(rc.leq(&everything));
    }
}

/// One past the widest clock the kernel property builds: past 33, the
/// `sync` workload's width, so the vectorised loop's scalar tail takes
/// every length.
const KERNEL_WIDTH: usize = 41;

/// A clock in a chosen representation, with its zero-padded model.
///
/// An inline clock keeps the first two non-zero entries of `values`; a
/// dense one stores every entry of `values`, zeros and trailing zeros
/// included, so its width is `values.len()`.
fn arb_clock_with_model() -> impl Strategy<Value = (VectorClock, Vec<u32>)> {
    let value = prop_oneof![Just(0u32), Just(0u32), 1u32..20, (u32::MAX - 2)..=u32::MAX];
    (
        any::<bool>(),
        proptest::collection::vec(value, 0..KERNEL_WIDTH),
    )
        .prop_map(|(dense, mut values)| {
            if dense {
                let mut vc = VectorClock::with_capacity(KERNEL_WIDTH);
                for (i, &v) in values.iter().enumerate() {
                    vc.set(Tid::from(i), 1);
                    vc.set(Tid::from(i), v);
                }
                assert!(!vc.is_inline());
                (vc, values)
            } else {
                let mut kept = 0;
                for v in values.iter_mut().filter(|v| **v != 0) {
                    if kept == 2 {
                        *v = 0;
                    } else {
                        kept += 1;
                    }
                }
                let vc = VectorClock::from_pairs(
                    values
                        .iter()
                        .enumerate()
                        .filter(|&(_, &v)| v != 0)
                        .map(|(i, &v)| (Tid::from(i), v)),
                );
                assert!(vc.is_inline());
                (vc, values)
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// `join` is the element-wise max of the zero-padded models, over all
    /// four inline/dense pairs, and keeps the representation rules: the
    /// result is inline only when both operands are and at most two
    /// entries are non-zero (a dense clock stays dense, a dense operand
    /// spills an inline one, and an inline one spills at its third
    /// thread), and its width is the wider operand's.
    #[test]
    fn join_matches_the_max_model(a in arb_clock_with_model(), b in arb_clock_with_model()) {
        let ((a, ma), (b, mb)) = (a, b);
        let mut model = vec![0u32; KERNEL_WIDTH];
        for (i, m) in model.iter_mut().enumerate() {
            *m = ma.get(i).copied().unwrap_or(0).max(mb.get(i).copied().unwrap_or(0));
        }
        let mut j = a.clone();
        j.join(&b);
        for (i, &m) in model.iter().enumerate() {
            prop_assert_eq!(j.get(Tid::from(i)), m, "entry {} of {:?} ⊔ {:?}", i, a, b);
        }
        prop_assert_eq!(&j, &VectorClock::from_slice(&model));
        let nonzero = model.iter().filter(|&&v| v != 0).count();
        prop_assert_eq!(j.is_inline(), a.is_inline() && b.is_inline() && nonzero <= 2);
        prop_assert_eq!(j.width(), a.width().max(b.width()));
    }
}
