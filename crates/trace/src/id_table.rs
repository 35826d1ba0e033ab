//! A table keyed by the small integer ids traces use for threads, locks,
//! condition variables and barriers.

use std::collections::HashMap;

/// Ids below this index a dense table; an id at or above it (possible in
/// a hand-built trace, or a lock named by address) goes to a map, so a
/// single huge id cannot size a table.
const DENSE_IDS: u32 = 1 << 16;

/// Per-id state keyed by thread, lock or barrier id: no hashing on the
/// per-event path for the small ids real traces use.
///
/// The dense part holds a `V` for *every* id up to the largest one seen,
/// so one event naming id 65 535 costs 65 536 × `size_of::<V>()`. A caller
/// with a large per-id record keeps it behind an `Option<Box<_>>` (8
/// bytes per unused id) instead of inline.
#[derive(Clone, Debug)]
pub struct IdTable<V> {
    dense: Vec<V>,
    sparse: HashMap<u32, V>,
}

impl<V> Default for IdTable<V> {
    fn default() -> Self {
        IdTable {
            dense: Vec::new(),
            sparse: HashMap::new(),
        }
    }
}

impl<V: Default> IdTable<V> {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The state of `id`, if the table has grown to hold one. A dense id
    /// below the largest one used reads as its default.
    #[inline]
    pub fn get(&self, id: u32) -> Option<&V> {
        if id < DENSE_IDS {
            self.dense.get(id as usize)
        } else {
            self.sparse.get(&id)
        }
    }

    /// [`Self::get`], mutably; like it, never grows the table.
    #[inline]
    pub fn get_mut(&mut self, id: u32) -> Option<&mut V> {
        if id < DENSE_IDS {
            self.dense.get_mut(id as usize)
        } else {
            self.sparse.get_mut(&id)
        }
    }

    /// The state of `id`, created at its default on first use.
    #[inline]
    pub fn slot(&mut self, id: u32) -> &mut V {
        if id < DENSE_IDS {
            let i = id as usize;
            if i >= self.dense.len() {
                self.dense.resize_with(i + 1, V::default);
            }
            &mut self.dense[i]
        } else {
            self.sparse.entry(id).or_default()
        }
    }

    /// Every id that has state, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &V)> {
        let dense = self.dense.iter().enumerate().map(|(i, v)| (i as u32, v));
        dense.chain(self.sparse.iter().map(|(&id, v)| (id, v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_on_both_sides_of_the_dense_limit_behave_alike() {
        let mut t: IdTable<u32> = IdTable::new();
        for id in [0, 7, DENSE_IDS - 1, DENSE_IDS, 3_000_000] {
            assert_eq!(t.get(id).copied().unwrap_or(0), 0, "unused id {id}");
            *t.slot(id) += id + 1;
            *t.slot(id) += 1;
            assert_eq!(t.get(id), Some(&(id + 2)));
        }
        let mut used: Vec<_> = t.iter().filter(|(_, &v)| v != 0).collect();
        used.sort_unstable();
        assert_eq!(
            used,
            [
                (0, &2),
                (7, &9),
                (DENSE_IDS - 1, &(DENSE_IDS + 1)),
                (DENSE_IDS, &(DENSE_IDS + 2)),
                (3_000_000, &3_000_002),
            ]
        );
    }

    #[test]
    fn a_huge_id_does_not_size_the_dense_part() {
        let mut t: IdTable<u64> = IdTable::new();
        *t.slot(u32::MAX) = 1;
        assert!(t.dense.is_empty());
        // A dense id below the largest one used reads as its default; a
        // read alone never grows the table.
        *t.slot(9) = 1;
        assert_eq!(t.get(3), Some(&0));
        assert_eq!(t.get(10), None);
        assert_eq!(t.dense.len(), 10);
    }
}
