//! Lock sets as small integers.
//!
//! Eraser's representation: every distinct set of locks gets an id, and
//! intersections are memoised per id pair, so the classifier's per-access
//! lockset update is an integer compare in the common case. Both tables
//! grow with the distinct sets and pairs the trace actually exhibits,
//! never with its length.

use std::collections::HashMap;

use dgrace_trace::LockId;

/// Id of an interned lock set; [`LockSets::EMPTY`] is the empty set.
pub(crate) type SetId = u32;

/// The lock-set interner with its memoised intersection table.
pub(crate) struct LockSets {
    sets: Vec<Vec<LockId>>,
    ids: HashMap<Vec<LockId>, SetId>,
    meets: HashMap<(SetId, SetId), SetId>,
}

impl LockSets {
    /// The empty set: absorbing under [`LockSets::meet`].
    pub const EMPTY: SetId = 0;

    /// An interner holding only the empty set.
    pub fn new() -> Self {
        LockSets {
            sets: vec![Vec::new()],
            ids: HashMap::from([(Vec::new(), Self::EMPTY)]),
            meets: HashMap::new(),
        }
    }

    /// The id of `set` (sorted ascending, no duplicates); equal sets
    /// always get equal ids.
    pub fn intern(&mut self, set: &[LockId]) -> SetId {
        if let Some(&id) = self.ids.get(set) {
            return id;
        }
        let id = SetId::try_from(self.sets.len()).expect("fewer than 2^32 distinct lock sets");
        self.sets.push(set.to_vec());
        self.ids.insert(set.to_vec(), id);
        id
    }

    /// The id of the intersection of sets `a` and `b`.
    pub fn meet(&mut self, a: SetId, b: SetId) -> SetId {
        if a == b {
            return a;
        }
        if a == Self::EMPTY || b == Self::EMPTY {
            return Self::EMPTY;
        }
        let key = (a.min(b), a.max(b));
        if let Some(&id) = self.meets.get(&key) {
            return id;
        }
        let other = self.get(b);
        let common: Vec<LockId> = self
            .get(a)
            .iter()
            .copied()
            .filter(|l| other.binary_search(l).is_ok())
            .collect();
        let id = self.intern(&common);
        self.meets.insert(key, id);
        id
    }

    /// The locks of set `id`, ascending.
    pub fn get(&self, id: SetId) -> &[LockId] {
        &self.sets[id as usize]
    }

    /// `(distinct sets interned, intersections memoised)` so far; the
    /// empty set counts.
    #[cfg(test)]
    pub fn table_sizes(&self) -> (usize, usize) {
        (self.sets.len(), self.meets.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(locks: &[u32]) -> Vec<LockId> {
        locks.iter().copied().map(LockId).collect()
    }

    #[test]
    fn intersection_commutes() {
        let mut s = LockSets::new();
        let a = s.intern(&ids(&[1, 2, 3]));
        let b = s.intern(&ids(&[2, 3, 4]));
        let ab = s.meet(a, b);
        assert_eq!(s.get(ab), ids(&[2, 3]));
        // Asked the other way round on a fresh table too, so the answer
        // does not come from the memo.
        let mut t = LockSets::new();
        let (b2, a2) = (t.intern(&ids(&[2, 3, 4])), t.intern(&ids(&[1, 2, 3])));
        let ba = t.meet(b2, a2);
        assert_eq!(t.get(ba), s.get(ab));
        assert_eq!(s.meet(b, a), ab);
    }

    #[test]
    fn empty_set_is_absorbing() {
        let mut s = LockSets::new();
        let a = s.intern(&ids(&[7]));
        let b = s.intern(&ids(&[8]));
        assert_eq!(s.intern(&[]), LockSets::EMPTY);
        assert_eq!(s.meet(a, LockSets::EMPTY), LockSets::EMPTY);
        assert_eq!(s.meet(LockSets::EMPTY, a), LockSets::EMPTY);
        assert_eq!(s.meet(a, b), LockSets::EMPTY, "disjoint sets meet in ∅");
        assert_eq!(s.meet(a, a), a);
    }

    #[test]
    fn ids_are_stable_across_reacquire() {
        use dgrace_baselines::HeldLocks;
        use dgrace_trace::Event;
        use dgrace_vc::Tid;
        let (tid, l, m) = (Tid(3), LockId(5), LockId(9));
        let mut held = HeldLocks::new();
        let mut s = LockSets::new();
        held.apply(&Event::Acquire { tid, lock: m });
        held.apply(&Event::Acquire { tid, lock: l });
        let both = s.intern(held.exclusive(tid));
        held.apply(&Event::Release { tid, lock: l });
        let only_m = s.intern(held.exclusive(tid));
        assert_ne!(only_m, both);
        held.apply(&Event::Acquire { tid, lock: l });
        assert_eq!(s.intern(held.exclusive(tid)), both, "same set, same id");
        assert_eq!(s.table_sizes(), (3, 0));
    }
}
