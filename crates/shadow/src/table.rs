//! The chained-hash shadow table of Fig. 4.
//!
//! Addresses are split into an *upper* part (hashed to find the chunk
//! entry) and a *lower* part (index into the entry's slot array). What a
//! chunk entry is and does — word mode, byte mode, the expansion between
//! them, its lanes — is [`Chunk`]; this file is the directory over it: one
//! hash probe per chunk, present or absent.
//!
//! The directory is an open-addressing table whose entries hold the chunk
//! headers themselves, so a probe lands on the header, and the header
//! points at the slot array: two dependent loads from an address to its
//! cell. An entry's position is its [`ChunkId`], which reaches the chunk
//! with no probe at all.

use dgrace_trace::Addr;

use crate::chunk::{
    chunk_key, keys_in, low, scan, Chunk, KeySet, Totals, Victims, CHUNK_BYTES, CHUNK_SHIFT,
};
use crate::hash::FIB;
use crate::store::{ChunkId, ShadowStore};

/// A shadow table mapping *locations* (access base addresses) to `N`
/// lanes of cells of type `T`.
///
/// The table tracks each lane's modeled byte footprint (entry headers +
/// slot arrays) for the `Hash` column of Table 2.
#[derive(Clone, Debug)]
pub struct ShadowTable<T, const N: usize = 1> {
    entries: Entries<Chunk<T, N>>,
    totals: [Totals; N],
}

impl<T, const N: usize> Default for ShadowTable<T, N> {
    fn default() -> Self {
        ShadowTable {
            entries: Entries::default(),
            totals: [Totals::default(); N],
        }
    }
}

impl<T, const N: usize> ShadowTable<T, N> {
    /// The chunk a [`ChunkId`] names.
    #[inline]
    fn at(&mut self, at: ChunkId) -> &mut Chunk<T, N> {
        self.entries.value_mut(at.at)
    }

    /// Drops the chunk at `at` if no lane holds a cell in it, as `free()`
    /// does in §IV.B.
    fn drop_if_empty(&mut self, at: ChunkId) {
        if self.at(at).is_empty() {
            self.entries.remove(at.at);
        }
    }

    /// Every chunk with its key, in ascending key order — ascending
    /// address order for the cells, as each chunk yields its own.
    fn ascending(&self) -> Vec<(u64, &Chunk<T, N>)> {
        let mut chunks: Vec<_> = self.entries.iter().collect();
        chunks.sort_unstable_by_key(|&(key, _)| key);
        chunks
    }
}

impl<T: std::fmt::Debug, const N: usize> ShadowStore<T, N> for ShadowTable<T, N> {
    #[inline]
    fn chunk(&self, addr: Addr) -> Option<ChunkId> {
        let key = chunk_key(addr);
        let at = self.entries.find(key)?;
        Some(ChunkId { key, at })
    }

    #[inline]
    fn chunk_or_insert(&mut self, addr: Addr) -> ChunkId {
        let key = chunk_key(addr);
        let at = self.entries.find_or_insert_with(key, Chunk::new);
        ChunkId { key, at }
    }

    #[inline]
    fn cell(&self, at: ChunkId, lane: usize, addr: Addr) -> Option<&T> {
        debug_assert!(at.holds(addr));
        self.entries.value(at.at).get(lane, low(addr))
    }

    #[inline]
    fn entry(&self, at: ChunkId, addr: Addr) -> [Option<&T>; N] {
        debug_assert!(at.holds(addr));
        self.entries.value(at.at).entry(low(addr))
    }

    #[inline]
    fn cell_mut(&mut self, at: ChunkId, lane: usize, addr: Addr) -> Option<&mut T> {
        debug_assert!(at.holds(addr));
        self.at(at).get_mut(lane, low(addr))
    }

    #[inline]
    fn put(&mut self, at: ChunkId, lane: usize, addr: Addr, value: T) -> Option<T> {
        debug_assert!(at.holds(addr));
        let chunk = self.entries.value_mut(at.at);
        chunk.put(lane, low(addr), value, &mut self.totals)
    }

    fn take(&mut self, lane: usize, addr: Addr) -> Option<T> {
        let at = self.chunk(addr)?;
        let chunk = self.entries.value_mut(at.at);
        let removed = chunk.take(lane, low(addr), &mut self.totals)?;
        self.drop_if_empty(at);
        Some(removed)
    }

    fn drain(&mut self, base: Addr, len: u64, mut f: impl FnMut(Addr, usize, T)) {
        if len == 0 {
            return;
        }
        let last = base.0.saturating_add(len - 1);
        let (first_key, last_key) = (chunk_key(base), chunk_key(Addr(last)));
        for key in keys_in(first_key, last_key, &self.entries) {
            let Some(at) = self.entries.find(key) else {
                continue;
            };
            let chunk = self.entries.value_mut(at);
            chunk.drain(key << CHUNK_SHIFT, base.0, last, &mut self.totals, &mut f);
            self.drop_if_empty(ChunkId { key, at });
        }
    }

    fn nearest(
        &self,
        lane: usize,
        addr: Addr,
        max_dist: u64,
        up: bool,
        near: Option<ChunkId>,
    ) -> Option<(Addr, &T)> {
        // An absent chunk costs one hash probe and says nothing about
        // its neighbours.
        scan(lane, addr, max_dist, up, |key| {
            let at = match near {
                Some(at) if at.key == key => at.at,
                _ => self.entries.find(key).ok_or(key)?,
            };
            Ok(self.entries.value(at))
        })
    }

    #[inline]
    fn lane_len(&self, lane: usize) -> usize {
        self.totals[lane].live
    }

    #[inline]
    fn lane_bytes(&self, lane: usize) -> usize {
        self.totals[lane].bytes
    }

    /// The lowest chunk with no hot cell, else the lowest hot one.
    fn victim_region(
        &self,
        victims: &mut Victims,
        mut hot: impl FnMut(usize, Addr, &T) -> bool,
    ) -> Option<(Addr, u64)> {
        let key = victims.coldest(&self.entries, |key| {
            let at = self.entries.find(key).expect("a resident key is found");
            self.entries.value(at).any(key << CHUNK_SHIFT, &mut hot)
        })?;
        Some((Addr(key << CHUNK_SHIFT), CHUNK_BYTES))
    }

    fn lane_for_each(&self, lane: usize, mut f: impl FnMut(Addr, &T)) {
        for (key, chunk) in self.ascending() {
            chunk.for_each(lane, key << CHUNK_SHIFT, &mut f);
        }
    }

    fn lane_byte_mode_chunks(&self, lane: usize) -> Vec<Addr> {
        let chunks = self.ascending().into_iter();
        let byte_mode = chunks.filter(|(_, chunk)| chunk.is_byte_mode(lane));
        byte_mode.map(|(key, _)| Addr(key << CHUNK_SHIFT)).collect()
    }

    fn lane_force_byte_mode(&mut self, lane: usize, addr: Addr) {
        if let Some(at) = self.chunk(addr) {
            let chunk = self.entries.value_mut(at.at);
            chunk.expand(lane, &mut self.totals);
        }
    }
}

/// An open-addressing (linear probing) table keyed by chunk number, at
/// most three quarters full. An entry stays where it is until an insertion
/// grows the table or a removal shifts it back into the gap before it.
#[derive(Clone, Debug)]
struct Entries<V> {
    /// A power of two long (or empty), every run of entries unbroken from
    /// each one's home position to where it is.
    slots: Box<[Option<(u64, V)>]>,
    len: usize,
}

impl<V> Default for Entries<V> {
    fn default() -> Self {
        Entries {
            slots: Box::default(),
            len: 0,
        }
    }
}

impl<V> Entries<V> {
    /// Where `key`'s probe starts: Fibonacci hashing, the top bits of the
    /// key times 2^64 / φ.
    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(FIB) >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    #[inline]
    fn find(&self, key: u64) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            match &self.slots[i] {
                Some((k, _)) if *k == key => return Some(i),
                Some(_) => i = (i + 1) & mask,
                None => return None,
            }
        }
    }

    #[inline]
    fn find_or_insert_with(&mut self, key: u64, make: impl FnOnce() -> V) -> usize {
        if let Some(i) = self.find(key) {
            return i;
        }
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        self.len += 1;
        self.place(key, make())
    }

    /// Puts a new entry at the first free position of its probe.
    fn place(&mut self, key: u64, value: V) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        while self.slots[i].is_some() {
            i = (i + 1) & mask;
        }
        self.slots[i] = Some((key, value));
        i
    }

    #[cold]
    fn grow(&mut self) {
        let size = (self.slots.len() * 2).max(16);
        let old = std::mem::replace(&mut self.slots, (0..size).map(|_| None).collect());
        for (key, value) in old.into_vec().into_iter().flatten() {
            self.place(key, value);
        }
    }

    /// Removes the entry at `i`, shifting each later entry of the run
    /// back into the gap if its probe passes over it.
    fn remove(&mut self, mut hole: usize) -> V {
        let (_, value) = self.slots[hole].take().expect("a resident entry");
        self.len -= 1;
        let mask = self.slots.len() - 1;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let Some((key, _)) = &self.slots[j] else {
                return value;
            };
            let home = self.home(*key);
            if j.wrapping_sub(home) & mask >= j.wrapping_sub(hole) & mask {
                self.slots[hole] = self.slots[j].take();
                hole = j;
            }
        }
    }

    #[inline]
    fn value(&self, i: usize) -> &V {
        &self.slots[i].as_ref().expect("a resident entry").1
    }

    #[inline]
    fn value_mut(&mut self, i: usize) -> &mut V {
        &mut self.slots[i].as_mut().expect("a resident entry").1
    }

    fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.slots
            .iter()
            .flatten()
            .map(|(key, value)| (*key, value))
    }
}

impl<V> KeySet for Entries<V> {
    fn len(&self) -> usize {
        self.len
    }

    fn contains(&self, key: u64) -> bool {
        self.find(key).is_some()
    }

    fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.iter().map(|(key, _)| key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accounting::hash_entry_bytes;

    /// The directory against a `HashMap`, through growth and removals
    /// from the middle of long collision runs: every key stays reachable
    /// from its home position, and positions hold still between
    /// insertions and removals.
    #[test]
    fn entries_match_a_map_through_collisions_growth_and_removal() {
        let mut entries: Entries<u64> = Entries::default();
        let mut model = std::collections::HashMap::new();
        let mut state = 0x5eedu64;
        let mut next = |n: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        for step in 0..20_000u64 {
            // Keys from a small range crowd a small table; a few far ones
            // land anywhere.
            let key = if next(8) == 0 {
                u64::MAX >> next(8)
            } else {
                next(96)
            };
            if next(3) == 0 {
                if let Some(at) = entries.find(key) {
                    assert_eq!(
                        entries.remove(at),
                        model.remove(&key).expect("in the model")
                    );
                }
            } else {
                let at = entries.find_or_insert_with(key, || step);
                let value = *model.entry(key).or_insert(step);
                assert_eq!(*entries.value(at), value);
                assert_eq!(entries.find(key), Some(at), "a position holds still");
            }
            assert_eq!(entries.len, model.len());
            assert!(entries.len * 4 <= entries.slots.len() * 3);
            for (&key, &value) in &model {
                let at = entries.find(key).expect("a resident key is found");
                assert_eq!(*entries.value(at), value);
            }
            assert_eq!(entries.iter().count(), model.len());
        }
    }

    #[test]
    fn victim_region_is_lowest_chunk() {
        let victim =
            |t: &ShadowTable<u32>| t.victim_region(&mut Victims::default(), |_, _, _| false);
        let mut t: ShadowTable<u32> = ShadowTable::default();
        assert_eq!(victim(&t), None);
        t.insert(Addr(0x1000), 1);
        t.insert(Addr(0x200), 2);
        assert_eq!(victim(&t), Some((Addr(0x200), 128)));
        // A hot lower chunk is passed over: one hot cell is enough.
        t.insert(Addr(0x27c), 3);
        let hot = |lane: usize, a: Addr, _: &u32| (lane, a) == (0, Addr(0x27c));
        assert_eq!(
            t.victim_region(&mut Victims::default(), hot),
            Some((Addr(0x1000), 128))
        );
        t.remove_range(Addr(0x200), 128, |_, _| {});
        assert_eq!(victim(&t), Some((Addr(0x1000), 128)));
        // Evicting the victim empties the table.
        let (base, len) = victim(&t).unwrap();
        let mut removed = 0;
        t.remove_range(base, len, |_, _| removed += 1);
        assert_eq!(removed, 1);
        assert_eq!(victim(&t), None);
    }

    /// One eviction loop sorts the keys once and still names the lowest
    /// resident cold chunk at every step, whoever emptied the ones before
    /// it, and the hot ones after every cold one.
    #[test]
    fn victim_region_walks_one_loop_in_ascending_order() {
        let mut t: ShadowTable<u32> = ShadowTable::default();
        for a in [0x900, 0x100, 0x500, 0x300, 0x700, 0xb00] {
            t.insert(Addr(a), a as u32);
        }
        let mut victims = Victims::default();
        let mut order = Vec::new();
        while let Some((base, len)) = t.victim_region(&mut victims, |_, _, &v| v == 0x100) {
            order.push(base.0);
            t.remove_range(base, len, |_, _| {});
            // A paired eviction takes the next chunk away behind the
            // loop's back.
            t.remove(Addr(base.0 + 0x200));
        }
        assert_eq!(order, [0x300, 0x700, 0xb00, 0x100]);
    }

    #[test]
    fn distinct_chunks_are_independent() {
        let mut t: ShadowTable<u32> = ShadowTable::default();
        t.insert(Addr(0x0), 1);
        t.insert(Addr(0x80), 2); // next chunk for m=128
        t.insert(Addr(0x81), 3); // expands only the second chunk
        assert_eq!(
            t.index_bytes(),
            hash_entry_bytes(32) + hash_entry_bytes(128)
        );
        assert_eq!(t.get(Addr(0x0)), Some(&1));
        assert_eq!(t.get(Addr(0x80)), Some(&2));
        assert_eq!(t.get(Addr(0x81)), Some(&3));
    }

    #[test]
    fn scan_skips_absent_chunks_efficiently() {
        let mut t: ShadowTable<u32> = ShadowTable::default();
        t.insert(Addr(0x10000), 1);
        t.insert(Addr(0x0), 2);
        // Long-distance search still terminates and finds the neighbor.
        assert_eq!(
            t.nearest_predecessor(Addr(0x10000), 0x10000),
            Some((Addr(0x0), &2))
        );
        assert_eq!(
            t.nearest_successor(Addr(0x0), 0x10000),
            Some((Addr(0x10000), &1))
        );
    }
}
