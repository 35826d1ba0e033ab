//! Full vector clocks.

use std::fmt;

use crate::{ClockValue, Epoch, Tid};

/// Number of threads a clock can touch before it spills to the heap.
///
/// Per the paper's §V observation (and SmartTrack's measurements), the
/// overwhelming majority of per-location clocks involve one or two
/// threads — the owner plus at most one reader — so two inline pairs
/// cover the common case without any heap allocation.
const INLINE_THREADS: usize = 2;

/// Internal representation of a [`VectorClock`].
#[derive(Clone)]
enum Repr {
    /// Sparse inline storage: up to [`INLINE_THREADS`] `(tid, clock)`
    /// pairs sorted by thread id, all clocks non-zero.
    Inline {
        len: u8,
        pairs: [(u32, ClockValue); INLINE_THREADS],
    },
    /// Dense per-thread storage indexed by thread id; entries beyond the
    /// length are implicitly zero.
    Dense(Vec<ClockValue>),
}

/// A vector of logical clocks indexed by thread id.
///
/// The vector is *sparse at the tail*: entries beyond the stored width are
/// implicitly zero, so two clocks of different lengths compare as if the
/// shorter one were zero-padded. This keeps clocks for programs that spawn
/// threads late small, and matches the paper's definition of equality
/// ("two vector clocks are the same when they are the same size and their
/// contents are of equal value" — we normalize by ignoring trailing zeros,
/// which is the same equivalence).
///
/// Clocks touching at most [`INLINE_THREADS`] threads are stored inline as
/// sorted `(tid, clock)` pairs and never allocate; wider clocks spill to a
/// dense heap vector. All observable behaviour (equality, hashing,
/// ordering, iteration, witnesses) is representation-independent.
pub struct VectorClock(Repr);

impl Default for VectorClock {
    #[inline]
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for VectorClock {
    #[inline]
    fn clone(&self) -> Self {
        VectorClock(self.0.clone())
    }

    fn clone_from(&mut self, source: &Self) {
        match (&mut self.0, &source.0) {
            (Repr::Dense(dst), Repr::Dense(src)) => dst.clone_from(src),
            (dst, src) => *dst = src.clone(),
        }
    }
}

impl VectorClock {
    /// Creates an empty (all-zero) vector clock.
    #[inline]
    pub fn new() -> Self {
        VectorClock(Repr::Inline {
            len: 0,
            pairs: [(0, 0); INLINE_THREADS],
        })
    }

    /// Creates a clock with capacity for `n` threads without touching values.
    ///
    /// A capacity within the inline budget stays inline (and allocation
    /// free); a larger one eagerly reserves dense storage.
    #[inline]
    pub fn with_capacity(n: usize) -> Self {
        if n <= INLINE_THREADS {
            Self::new()
        } else {
            VectorClock(Repr::Dense(Vec::with_capacity(n)))
        }
    }

    /// Creates a clock from explicit per-thread values.
    pub fn from_slice(values: &[ClockValue]) -> Self {
        Self::from_vec(values.to_vec())
    }

    /// Rebuilds a clock from `(Tid, value)` pairs, the inverse of
    /// [`VectorClock::iter`]. Zero values are ignored; duplicate tids keep
    /// the last value. Used when decoding serialized snapshots, so the
    /// chosen representation (inline vs dense) matches what a live clock
    /// with the same contents would use.
    pub fn from_pairs<I: IntoIterator<Item = (Tid, ClockValue)>>(pairs: I) -> Self {
        let mut vc = VectorClock::new();
        for (t, v) in pairs {
            vc.set(t, v);
        }
        vc
    }

    fn from_vec(mut values: Vec<ClockValue>) -> Self {
        while values.last() == Some(&0) {
            values.pop();
        }
        let nonzero = values.iter().filter(|&&v| v != 0).count();
        if nonzero <= INLINE_THREADS {
            let mut pairs = [(0u32, 0 as ClockValue); INLINE_THREADS];
            let mut len = 0u8;
            for (i, &v) in values.iter().enumerate() {
                if v != 0 {
                    pairs[len as usize] = (i as u32, v);
                    len += 1;
                }
            }
            VectorClock(Repr::Inline { len, pairs })
        } else {
            VectorClock(Repr::Dense(values))
        }
    }

    /// Returns `true` if this clock is held in the inline (allocation-free)
    /// representation. Exposed for tests and allocation statistics.
    #[inline]
    pub fn is_inline(&self) -> bool {
        matches!(self.0, Repr::Inline { .. })
    }

    /// The logical clock of thread `t` (zero if never set).
    #[inline]
    pub fn get(&self, t: Tid) -> ClockValue {
        match &self.0 {
            Repr::Inline { len, pairs } => {
                for &(pt, v) in &pairs[..*len as usize] {
                    if pt == t.0 {
                        return v;
                    }
                }
                0
            }
            Repr::Dense(vals) => vals.get(t.index()).copied().unwrap_or(0),
        }
    }

    /// Sets the logical clock of thread `t`.
    pub fn set(&mut self, t: Tid, value: ClockValue) {
        match &mut self.0 {
            Repr::Inline { len, pairs } => {
                let tid = t.0;
                let n = *len as usize;
                if let Some(pos) = pairs[..n].iter().position(|&(pt, _)| pt == tid) {
                    if value == 0 {
                        pairs.copy_within(pos + 1..n, pos);
                        *len -= 1;
                    } else {
                        pairs[pos].1 = value;
                    }
                    return;
                }
                if value == 0 {
                    return;
                }
                if n < INLINE_THREADS {
                    let pos = pairs[..n].iter().position(|&(pt, _)| pt > tid).unwrap_or(n);
                    pairs.copy_within(pos..n, pos + 1);
                    pairs[pos] = (tid, value);
                    *len += 1;
                    return;
                }
                // Third distinct thread: spill to dense storage.
                let width = pairs[..n]
                    .iter()
                    .map(|&(pt, _)| pt)
                    .chain(std::iter::once(tid))
                    .max()
                    .unwrap() as usize
                    + 1;
                let mut dense = vec![0; width];
                for &(pt, v) in &pairs[..n] {
                    dense[pt as usize] = v;
                }
                dense[tid as usize] = value;
                self.0 = Repr::Dense(dense);
            }
            Repr::Dense(vals) => {
                let i = t.index();
                if i >= vals.len() {
                    if value == 0 {
                        return;
                    }
                    vals.resize(i + 1, 0);
                }
                vals[i] = value;
            }
        }
    }

    /// Increments the clock of thread `t` by one and returns the new value.
    #[inline]
    pub fn tick(&mut self, t: Tid) -> ClockValue {
        let v = self.get(t) + 1;
        self.set(t, v);
        v
    }

    /// Element-wise maximum: `self := self ⊔ other`.
    ///
    /// This is the update performed by lock acquire (thread clock joins the
    /// lock clock) and lock release (lock clock joins the thread clock).
    ///
    /// The dense arm is an unconditional element-wise `max`, which compiles
    /// to a branch-free vector loop. Clock kernels keep to that rule: a
    /// conditional store per entry mispredicts once per changed entry, and
    /// an acquire changes a few entries at unpredictable positions.
    pub fn join(&mut self, other: &VectorClock) {
        match &other.0 {
            Repr::Inline { len, pairs } => {
                for &(pt, v) in &pairs[..*len as usize] {
                    let t = Tid(pt);
                    if v > self.get(t) {
                        self.set(t, v);
                    }
                }
            }
            Repr::Dense(o) => {
                let s = self.make_dense(o.len());
                if o.len() > s.len() {
                    s.resize(o.len(), 0);
                }
                for (sv, &ov) in s.iter_mut().zip(o.iter()) {
                    *sv = (*sv).max(ov);
                }
            }
        }
    }

    /// Spills to (or returns the existing) dense storage, reserving room
    /// for at least `min_cap` threads.
    fn make_dense(&mut self, min_cap: usize) -> &mut Vec<ClockValue> {
        if let Repr::Inline { len, pairs } = &self.0 {
            let n = *len as usize;
            let width = pairs[..n]
                .last()
                .map(|&(pt, _)| pt as usize + 1)
                .unwrap_or(0);
            let mut dense = Vec::with_capacity(min_cap.max(width));
            dense.resize(width, 0);
            for &(pt, v) in &pairs[..n] {
                dense[pt as usize] = v;
            }
            self.0 = Repr::Dense(dense);
        }
        match &mut self.0 {
            Repr::Dense(vals) => vals,
            Repr::Inline { .. } => unreachable!("just spilled"),
        }
    }

    /// Returns `true` if `self ⊑ other` (every component ≤).
    ///
    /// `a ⊑ b` means every operation summarized by `a` happens-before (or
    /// equals) the point summarized by `b`.
    pub fn leq(&self, other: &VectorClock) -> bool {
        match &self.0 {
            Repr::Inline { len, pairs } => pairs[..*len as usize]
                .iter()
                .all(|&(pt, v)| v <= other.get(Tid(pt))),
            Repr::Dense(s) => s
                .iter()
                .enumerate()
                .all(|(i, &v)| v <= other.get(Tid::from(i))),
        }
    }

    /// Returns `true` if the two clocks are concurrent (neither ⊑ the other).
    #[inline]
    pub fn concurrent_with(&self, other: &VectorClock) -> bool {
        !self.leq(other) && !other.leq(self)
    }

    /// Number of threads with a non-zero entry.
    pub fn active_threads(&self) -> usize {
        match &self.0 {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Dense(vals) => vals.iter().filter(|&&v| v != 0).count(),
        }
    }

    /// Logical width of the clock (highest thread id with a non-zero entry
    /// plus one for the inline representation; dense storage length — which
    /// may carry explicitly-zeroed tail entries — for the heap one).
    #[inline]
    pub fn width(&self) -> usize {
        match &self.0 {
            Repr::Inline { len, pairs } => pairs[..*len as usize]
                .last()
                .map(|&(pt, _)| pt as usize + 1)
                .unwrap_or(0),
            Repr::Dense(vals) => vals.len(),
        }
    }

    /// Modeled heap size in bytes of this clock's payload, used by the
    /// memory-accounting model (4 bytes per slot).
    ///
    /// The model charges the dense width even when the Rust representation
    /// is inline, so the Table 2 columns stay comparable with the paper's
    /// 32-bit C layout; the inline savings are reported separately via
    /// allocation counts ([`Self::is_inline`]).
    #[inline]
    pub fn payload_bytes(&self) -> usize {
        self.width() * std::mem::size_of::<ClockValue>()
    }

    /// Iterates `(Tid, clock)` pairs with non-zero clocks, in thread order.
    pub fn iter(&self) -> impl Iterator<Item = (Tid, ClockValue)> + '_ {
        let (pairs, dense): (&[(u32, ClockValue)], &[ClockValue]) = match &self.0 {
            Repr::Inline { len, pairs } => (&pairs[..*len as usize], &[]),
            Repr::Dense(vals) => (&[], vals.as_slice()),
        };
        pairs.iter().map(|&(pt, v)| (Tid(pt), v)).chain(
            dense
                .iter()
                .enumerate()
                .filter(|(_, &v)| v != 0)
                .map(|(i, &v)| (Tid::from(i), v)),
        )
    }

    /// Finds a thread whose entry in `self` exceeds its entry in `other`,
    /// i.e. a witness that `self ⋢ other`. Returns `None` if `self ⊑ other`.
    /// The witness is the lowest such thread id.
    pub fn first_exceeding(&self, other: &VectorClock) -> Option<(Tid, ClockValue)> {
        match &self.0 {
            Repr::Inline { len, pairs } => pairs[..*len as usize]
                .iter()
                .find(|&&(pt, v)| v > other.get(Tid(pt)))
                .map(|&(pt, v)| (Tid(pt), v)),
            Repr::Dense(s) => s
                .iter()
                .enumerate()
                .find(|(i, &v)| v > other.get(Tid::from(*i)))
                .map(|(i, &v)| (Tid::from(i), v)),
        }
    }

    /// Records an epoch into this clock: `self[e.tid] := max(self[e.tid], e.clock)`.
    #[inline]
    pub fn join_epoch(&mut self, e: Epoch) {
        if e.clock > self.get(e.tid) {
            self.set(e.tid, e.clock);
        }
    }
}

impl PartialEq for VectorClock {
    fn eq(&self, other: &Self) -> bool {
        // Two clocks are elementwise-equal exactly when their non-zero
        // (tid, clock) sequences match, independent of representation.
        self.iter().eq(other.iter())
    }
}

impl Eq for VectorClock {}

impl std::hash::Hash for VectorClock {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Hash must agree with the representation-independent equality, so
        // hash the normalized non-zero (tid, clock) sequence.
        for (t, v) in self.iter() {
            t.0.hash(state);
            v.hash(state);
        }
    }
}

impl PartialOrd for VectorClock {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for VectorClock {
    /// Lexicographic order over the zero-padded dense expansion, consistent
    /// with the trailing-zero-insensitive equality.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        let mut a = self.iter();
        let mut b = other.iter();
        let (mut na, mut nb) = (a.next(), b.next());
        loop {
            match (na, nb) {
                (None, None) => return Ordering::Equal,
                // The side with a non-zero entry at the earlier index is
                // greater (the other side is zero there).
                (Some(_), None) => return Ordering::Greater,
                (None, Some(_)) => return Ordering::Less,
                (Some((ta, va)), Some((tb, vb))) => {
                    if ta.0 < tb.0 {
                        return Ordering::Greater;
                    }
                    if tb.0 < ta.0 {
                        return Ordering::Less;
                    }
                    match va.cmp(&vb) {
                        Ordering::Equal => {
                            na = a.next();
                            nb = b.next();
                        }
                        ord => return ord,
                    }
                }
            }
        }
    }
}

impl fmt::Debug for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<")?;
        for i in 0..self.width() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", self.get(Tid::from(i)))?;
        }
        write!(f, ">")
    }
}

impl FromIterator<ClockValue> for VectorClock {
    fn from_iter<I: IntoIterator<Item = ClockValue>>(iter: I) -> Self {
        Self::from_vec(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vc(vals: &[u32]) -> VectorClock {
        VectorClock::from_slice(vals)
    }

    #[test]
    fn get_set_tick() {
        let mut c = VectorClock::new();
        assert_eq!(c.get(Tid(5)), 0);
        c.set(Tid(2), 7);
        assert_eq!(c.get(Tid(2)), 7);
        assert_eq!(c.tick(Tid(2)), 8);
        assert_eq!(c.tick(Tid(9)), 1);
        assert_eq!(c.get(Tid(9)), 1);
    }

    #[test]
    fn join_is_elementwise_max() {
        let mut a = vc(&[1, 5, 0]);
        let b = vc(&[3, 2, 0, 4]);
        a.join(&b);
        assert_eq!(a, vc(&[3, 5, 0, 4]));
    }

    #[test]
    fn leq_and_concurrency() {
        let a = vc(&[1, 2]);
        let b = vc(&[2, 2]);
        assert!(a.leq(&b));
        assert!(!b.leq(&a));
        let c = vc(&[0, 3]);
        assert!(b.concurrent_with(&c));
        assert!(!a.concurrent_with(&a));
    }

    #[test]
    fn equality_ignores_trailing_zeros() {
        assert_eq!(vc(&[1, 2]), vc(&[1, 2, 0, 0]));
        assert_ne!(vc(&[1, 2]), vc(&[1, 2, 1]));
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |v: &VectorClock| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&vc(&[1, 2])), h(&vc(&[1, 2, 0])));
    }

    #[test]
    fn set_zero_beyond_len_is_noop() {
        let mut c = VectorClock::new();
        c.set(Tid(10), 0);
        assert_eq!(c.width(), 0);
    }

    #[test]
    fn first_exceeding_finds_witness() {
        let a = vc(&[1, 5, 2]);
        let b = vc(&[1, 3, 2]);
        assert_eq!(a.first_exceeding(&b), Some((Tid(1), 5)));
        assert_eq!(b.first_exceeding(&a), None);
    }

    #[test]
    fn join_epoch_records_max() {
        let mut a = vc(&[2, 1]);
        a.join_epoch(Epoch::new(5, Tid(1)));
        assert_eq!(a.get(Tid(1)), 5);
        a.join_epoch(Epoch::new(1, Tid(0)));
        assert_eq!(a.get(Tid(0)), 2);
    }

    #[test]
    fn iter_skips_zero_entries() {
        let a = vc(&[0, 3, 0, 7]);
        let got: Vec<_> = a.iter().collect();
        assert_eq!(got, vec![(Tid(1), 3), (Tid(3), 7)]);
        assert_eq!(a.active_threads(), 2);
    }

    #[test]
    fn payload_bytes_tracks_width() {
        let a = vc(&[1, 2, 3]);
        assert_eq!(a.payload_bytes(), 12);
    }

    #[test]
    fn two_thread_clocks_stay_inline() {
        let mut c = VectorClock::new();
        assert!(c.is_inline());
        c.tick(Tid(0));
        c.set(Tid(7), 4);
        assert!(c.is_inline(), "two threads fit inline");
        assert_eq!(c.get(Tid(0)), 1);
        assert_eq!(c.get(Tid(7)), 4);
        assert_eq!(c.width(), 8);
        c.set(Tid(3), 2);
        assert!(!c.is_inline(), "third thread spills to dense");
        assert_eq!(c.get(Tid(0)), 1);
        assert_eq!(c.get(Tid(3)), 2);
        assert_eq!(c.get(Tid(7)), 4);
        assert_eq!(c.width(), 8);
    }

    #[test]
    fn inline_and_dense_compare_equal() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut inline = VectorClock::new();
        inline.set(Tid(1), 3);
        inline.set(Tid(3), 7);
        assert!(inline.is_inline());
        let dense = vc(&[0, 3, 0, 7]);
        assert!(!dense.is_inline() || dense.active_threads() <= 2);
        assert_eq!(inline, dense);
        let h = |v: &VectorClock| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&inline), h(&dense));
        assert_eq!(inline.cmp(&dense), std::cmp::Ordering::Equal);
    }

    #[test]
    fn inline_set_to_zero_removes_pair() {
        let mut c = VectorClock::new();
        c.set(Tid(2), 5);
        c.set(Tid(4), 1);
        c.set(Tid(2), 0);
        assert!(c.is_inline());
        assert_eq!(c.get(Tid(2)), 0);
        assert_eq!(c.get(Tid(4)), 1);
        assert_eq!(c.active_threads(), 1);
        c.set(Tid(4), 0);
        assert_eq!(c.active_threads(), 0);
        assert_eq!(c.width(), 0);
    }

    #[test]
    fn join_inline_into_dense_and_back() {
        let mut wide = vc(&[1, 2, 3]);
        let mut narrow = VectorClock::new();
        narrow.set(Tid(1), 9);
        wide.join(&narrow);
        assert_eq!(wide, vc(&[1, 9, 3]));
        narrow.join(&wide);
        assert!(!narrow.is_inline(), "joining a dense clock spills");
        assert_eq!(narrow, vc(&[1, 9, 3]));
    }

    #[test]
    fn from_pairs_inverts_iter() {
        for values in [
            &[][..],
            &[1, 0, 3][..],
            &[5][..],
            &[1, 2, 3, 4, 5, 0, 7][..],
        ] {
            let original = vc(values);
            let rebuilt = VectorClock::from_pairs(original.iter());
            assert_eq!(rebuilt, original);
            assert_eq!(rebuilt.is_inline(), original.is_inline());
        }
    }

    #[test]
    fn ord_is_consistent_across_representations() {
        use std::cmp::Ordering;
        // Non-zero at an earlier index wins.
        assert_eq!(vc(&[0, 1]).cmp(&vc(&[1])), Ordering::Less);
        assert_eq!(vc(&[2]).cmp(&vc(&[1, 9])), Ordering::Greater);
        assert_eq!(vc(&[1, 2]).cmp(&vc(&[1, 2, 0])), Ordering::Equal);
        let mut spilled = vc(&[1, 2, 3]);
        spilled.set(Tid(2), 0);
        assert_eq!(spilled.cmp(&vc(&[1, 2])), Ordering::Equal);
    }
}
