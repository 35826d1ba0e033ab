//! The unified access clock used for the sharing decision.

use std::fmt;

use crate::{Epoch, ReadClock, Tid, VectorClock};

/// A location's access summary, in either the compressed epoch form or the
/// full vector clock form.
///
/// The dynamic-granularity paper compares "vector clocks" of neighboring
/// locations to decide sharing, and explicitly treats both representations
/// as vector clocks (§III.A). Two [`AccessClock`]s are equal exactly when
/// the paper considers them "the same vector clock":
///
/// * `Epoch(a) == Epoch(b)` iff `a == b` (same clock *and* same thread);
/// * `Vc(a) == Vc(b)` iff element-wise equal (trailing zeros ignored);
/// * an epoch is never equal to a full vector clock — they are different
///   representations with different sizes, and conflating them would merge
///   locations whose read histories differ.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum AccessClock {
    /// Compressed last-access representation.
    Epoch(Epoch),
    /// Full per-thread access history.
    Vc(VectorClock),
}

impl AccessClock {
    /// The "never accessed" clock.
    #[inline]
    pub fn none() -> Self {
        AccessClock::Epoch(Epoch::NONE)
    }

    /// `self ⊑ vc` — all summarized accesses happen-before the point `vc`.
    pub fn leq(&self, vc: &VectorClock) -> bool {
        match self {
            AccessClock::Epoch(e) => e.leq(vc),
            AccessClock::Vc(v) => v.leq(vc),
        }
    }

    /// Borrows the clock as a [`ClockView`].
    #[inline]
    pub fn view(&self) -> ClockView<'_> {
        match self {
            AccessClock::Epoch(e) => ClockView::Epoch(*e),
            AccessClock::Vc(v) => ClockView::Vc(v),
        }
    }

    /// Modeled heap payload in bytes (beyond the enum's inline size).
    pub fn payload_bytes(&self) -> usize {
        match self {
            AccessClock::Epoch(_) => 0,
            AccessClock::Vc(v) => v.payload_bytes(),
        }
    }

    /// Returns the epoch if in compressed form.
    pub fn as_epoch(&self) -> Option<Epoch> {
        match self {
            AccessClock::Epoch(e) => Some(*e),
            AccessClock::Vc(_) => None,
        }
    }

    /// Records a last-write: always collapses to the epoch form.
    #[inline]
    pub fn set_write(&mut self, t: Tid, clock: u32) {
        *self = AccessClock::Epoch(Epoch::new(clock, t));
    }

    /// Records a read by thread `t` (clock `now`), in place — the same
    /// protocol as [`ReadClock::record_read`] without any representation
    /// round-trip. Returns `true` if the clock *inflated* from the epoch
    /// form to a full vector clock (a "read-read conflict").
    pub fn record_read(&mut self, t: Tid, now: &VectorClock) -> bool {
        let c = now.get(t);
        match self {
            AccessClock::Epoch(e) => {
                if e.leq(now) {
                    *e = Epoch::new(c, t);
                    false
                } else {
                    let mut vc = VectorClock::new();
                    vc.join_epoch(*e);
                    vc.set(t, c);
                    *self = AccessClock::Vc(vc);
                    true
                }
            }
            AccessClock::Vc(vc) => {
                vc.set(t, c);
                false
            }
        }
    }
}

/// A borrowed [`AccessClock`]: the epoch form by value, the full vector
/// form by reference. Equality is [`AccessClock`]'s. A holder that keeps
/// epoch-form clocks somewhere cheaper than an `AccessClock` (the
/// dynamic-granularity plane stores them inline in the cell) hands out
/// this instead of `&AccessClock`, so reading an epoch never follows a
/// pointer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ClockView<'a> {
    /// Compressed last-access representation.
    Epoch(Epoch),
    /// Full per-thread access history.
    Vc(&'a VectorClock),
}

impl ClockView<'_> {
    /// Finds an access not ordered before `vc` (a race witness).
    #[inline]
    pub fn find_concurrent(self, vc: &VectorClock) -> Option<Epoch> {
        match self {
            ClockView::Epoch(e) => (!e.is_none() && !e.leq(vc)).then_some(e),
            ClockView::Vc(v) => v.first_exceeding(vc).map(|(t, c)| Epoch::new(c, t)),
        }
    }

    /// Copies the viewed clock out.
    pub fn to_clock(self) -> AccessClock {
        match self {
            ClockView::Epoch(e) => AccessClock::Epoch(e),
            ClockView::Vc(v) => AccessClock::Vc(v.clone()),
        }
    }
}

impl From<Epoch> for AccessClock {
    fn from(e: Epoch) -> Self {
        AccessClock::Epoch(e)
    }
}

impl From<VectorClock> for AccessClock {
    fn from(vc: VectorClock) -> Self {
        AccessClock::Vc(vc)
    }
}

impl From<ReadClock> for AccessClock {
    fn from(rc: ReadClock) -> Self {
        match rc {
            ReadClock::Epoch(e) => AccessClock::Epoch(e),
            ReadClock::Vc(vc) => AccessClock::Vc(vc),
        }
    }
}

impl From<AccessClock> for ReadClock {
    fn from(ac: AccessClock) -> Self {
        match ac {
            AccessClock::Epoch(e) => ReadClock::Epoch(e),
            AccessClock::Vc(vc) => ReadClock::Vc(vc),
        }
    }
}

impl fmt::Debug for AccessClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessClock::Epoch(e) => write!(f, "{e:?}"),
            AccessClock::Vc(v) => write!(f, "{v:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equality_distinguishes_representations() {
        let e = AccessClock::Epoch(Epoch::new(3, Tid(1)));
        let mut vc = VectorClock::new();
        vc.set(Tid(1), 3);
        let v = AccessClock::Vc(vc);
        assert_ne!(e, v);
        assert_eq!(e, AccessClock::Epoch(Epoch::new(3, Tid(1))));
        assert_ne!(e, AccessClock::Epoch(Epoch::new(3, Tid(2))));
    }

    #[test]
    fn leq_and_witness() {
        let now = VectorClock::from_slice(&[5, 1]);
        let e = AccessClock::Epoch(Epoch::new(2, Tid(1)));
        assert!(!e.leq(&now));
        assert_eq!(e.view().find_concurrent(&now), Some(Epoch::new(2, Tid(1))));
        let v = AccessClock::Vc(VectorClock::from_slice(&[4, 1]));
        assert!(v.leq(&now));
        assert_eq!(v.view().find_concurrent(&now), None);
    }

    #[test]
    fn view_compares_and_witnesses_like_the_clock() {
        let now = VectorClock::from_slice(&[5, 1]);
        let e = AccessClock::Epoch(Epoch::new(2, Tid(1)));
        let v = AccessClock::Vc(VectorClock::from_slice(&[0, 2]));
        assert_ne!(e.view(), v.view(), "representations stay distinct");
        assert_eq!(e.view(), ClockView::Epoch(Epoch::new(2, Tid(1))));
        for c in [&e, &v] {
            assert_eq!(c.view().find_concurrent(&now), Some(Epoch::new(2, Tid(1))));
            assert_eq!(&c.view().to_clock(), c);
        }
    }

    #[test]
    fn conversions_roundtrip() {
        let rc = ReadClock::Vc(VectorClock::from_slice(&[1, 2]));
        let ac: AccessClock = rc.clone().into();
        let back: ReadClock = ac.into();
        assert_eq!(rc, back);
    }

    #[test]
    fn set_write_collapses_to_epoch() {
        let mut ac = AccessClock::Vc(VectorClock::from_slice(&[1, 2]));
        ac.set_write(Tid(0), 9);
        assert_eq!(ac.as_epoch(), Some(Epoch::new(9, Tid(0))));
        assert_eq!(ac.payload_bytes(), 0);
    }
}
