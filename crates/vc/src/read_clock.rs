//! FastTrack's adaptive read representation.

use std::fmt;

use crate::{ClockView, Epoch, Tid, VectorClock};

/// The adaptive read clock of a location (FastTrack §"read operations").
///
/// Reads may be concurrent with one another (read-shared data is legal), so
/// a single epoch is not always enough. FastTrack keeps an [`Epoch`] while
/// reads stay totally ordered and *inflates* to a full [`VectorClock`] the
/// first time a read is concurrent with the previous read epoch. Once
/// inflated, a read clock may later be *deflated* back to an epoch after a
/// write (the write race check against every entry has then completed and
/// the history is reset).
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum ReadClock {
    /// Reads so far are totally ordered; only the last one matters.
    Epoch(Epoch),
    /// Read-shared: clock of the last read of every thread.
    Vc(VectorClock),
}

impl ReadClock {
    /// A read clock recording no reads at all.
    #[inline]
    pub fn none() -> Self {
        ReadClock::Epoch(Epoch::NONE)
    }

    /// Returns `true` if no read has been recorded.
    pub fn is_none(&self) -> bool {
        match self {
            ReadClock::Epoch(e) => e.is_none(),
            ReadClock::Vc(vc) => vc.active_threads() == 0,
        }
    }

    /// `self ⊑ vc`: every recorded read happens-before the point `vc`.
    pub fn leq(&self, vc: &VectorClock) -> bool {
        match self {
            ReadClock::Epoch(e) => e.leq(vc),
            ReadClock::Vc(r) => r.leq(vc),
        }
    }

    /// Records a read by thread `t` whose current vector clock is `now`.
    ///
    /// Implements FastTrack's read protocol:
    /// * same epoch → no-op (the caller usually filters this case first);
    /// * exclusive (previous read ⊑ now) → stay an epoch, overwrite;
    /// * shared (previous read ∥ now) → inflate to a vector clock and record
    ///   both the old epoch and the new read.
    pub fn record_read(&mut self, t: Tid, now: &VectorClock) {
        let c = now.get(t);
        match self {
            ReadClock::Epoch(e) => {
                if e.leq(now) {
                    *e = Epoch::new(c, t);
                } else {
                    let mut vc = VectorClock::new();
                    vc.join_epoch(*e);
                    vc.set(t, c);
                    *self = ReadClock::Vc(vc);
                }
            }
            ReadClock::Vc(vc) => {
                vc.set(t, c);
            }
        }
    }

    /// Finds a recorded read that is *not* ordered before `vc`, i.e. a
    /// read concurrent with the point `vc` — the witness of a read-write
    /// race. Returns the racing read as an epoch.
    pub fn find_concurrent_read(&self, vc: &VectorClock) -> Option<Epoch> {
        match self {
            ReadClock::Epoch(e) => (!e.is_none() && !e.leq(vc)).then_some(*e),
            ReadClock::Vc(r) => r.first_exceeding(vc).map(|(t, c)| Epoch::new(c, t)),
        }
    }

    /// Resets the history to "no reads" (used after a write when the write
    /// epoch now dominates the read history).
    pub fn reset(&mut self) {
        *self = ReadClock::none();
    }

    /// Modeled heap payload in bytes (0 for the epoch form).
    pub fn payload_bytes(&self) -> usize {
        match self {
            ReadClock::Epoch(_) => 0,
            ReadClock::Vc(vc) => vc.payload_bytes(),
        }
    }

    /// The clock as a [`ClockView`].
    pub fn view(&self) -> ClockView<'_> {
        match self {
            ReadClock::Epoch(e) => ClockView::Epoch(*e),
            ReadClock::Vc(vc) => ClockView::Vc(vc),
        }
    }

    /// Returns `true` if the representation is the compressed epoch form.
    pub fn is_epoch(&self) -> bool {
        matches!(self, ReadClock::Epoch(_))
    }
}

impl fmt::Debug for ReadClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadClock::Epoch(e) => write!(f, "R:{e:?}"),
            ReadClock::Vc(vc) => write!(f, "R:{vc:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vc(vals: &[u32]) -> VectorClock {
        VectorClock::from_slice(vals)
    }

    #[test]
    fn ordered_reads_stay_epoch() {
        let mut r = ReadClock::none();
        r.record_read(Tid(0), &vc(&[2, 0]));
        assert!(r.is_epoch());
        // T1 has seen T0's clock 2 (e.g. via a lock): read ordered after.
        r.record_read(Tid(1), &vc(&[2, 3]));
        assert!(r.is_epoch());
        assert_eq!(r, ReadClock::Epoch(Epoch::new(3, Tid(1))));
    }

    #[test]
    fn concurrent_reads_inflate() {
        let mut r = ReadClock::none();
        r.record_read(Tid(0), &vc(&[2, 0]));
        // T1 has NOT seen T0's read: concurrent, must inflate.
        r.record_read(Tid(1), &vc(&[0, 3]));
        assert!(!r.is_epoch());
        match &r {
            ReadClock::Vc(v) => {
                assert_eq!(v.get(Tid(0)), 2);
                assert_eq!(v.get(Tid(1)), 3);
            }
            _ => unreachable!(),
        }
        assert!(r.payload_bytes() > 0);
    }

    #[test]
    fn find_concurrent_read_epoch_form() {
        let r = ReadClock::Epoch(Epoch::new(4, Tid(1)));
        assert_eq!(
            r.find_concurrent_read(&vc(&[9, 3])),
            Some(Epoch::new(4, Tid(1)))
        );
        assert_eq!(r.find_concurrent_read(&vc(&[9, 4])), None);
        assert_eq!(ReadClock::none().find_concurrent_read(&vc(&[0, 0])), None);
    }

    #[test]
    fn find_concurrent_read_vc_form() {
        let r = ReadClock::Vc(vc(&[2, 3]));
        assert_eq!(
            r.find_concurrent_read(&vc(&[2, 2])),
            Some(Epoch::new(3, Tid(1)))
        );
        assert_eq!(r.find_concurrent_read(&vc(&[2, 3])), None);
    }

    #[test]
    fn reset_clears_history() {
        let mut r = ReadClock::Vc(vc(&[2, 3]));
        r.reset();
        assert!(r.is_none());
        assert!(r.is_epoch());
    }
}
