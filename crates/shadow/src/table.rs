//! The chained-hash shadow table of Fig. 4.
//!
//! Addresses are split into an *upper* part (hashed to find the chunk
//! entry) and a *lower* part (index into the entry's slot array). What a
//! chunk entry is and does — word mode, byte mode, the expansion between
//! them — is [`Chunk`]; this file is the directory over it: one hash
//! probe per chunk, present or absent.

use dgrace_trace::Addr;

use crate::chunk::{
    chunk_key, keys_in, low, scan, Chunk, Victims, CHUNK_BYTES, CHUNK_SHIFT, EXPANSION_BYTES,
    NEW_CHUNK_BYTES,
};
use crate::hash::FastMap;
use crate::store::ShadowStore;

/// A shadow table mapping *locations* (access base addresses) to cells of
/// type `T`.
///
/// The table tracks its own modeled byte footprint (entry headers + slot
/// arrays) for the `Hash` column of Table 2.
#[derive(Clone, Debug)]
pub struct ShadowTable<T> {
    map: FastMap<u64, Chunk<T>>,
    live: usize,
    bytes: usize,
}

impl<T> Default for ShadowTable<T> {
    fn default() -> Self {
        ShadowTable {
            map: FastMap::default(),
            live: 0,
            bytes: 0,
        }
    }
}

impl<T> ShadowTable<T> {
    /// Drops the (emptied) chunk at `key`, as `free()` does in §IV.B.
    fn drop_chunk(&mut self, key: u64) {
        if let Some(chunk) = self.map.remove(&key) {
            self.bytes -= chunk.bytes();
        }
    }

    fn scan(&self, addr: Addr, max_dist: u64, up: bool) -> Option<(Addr, &T)> {
        // An absent chunk costs one hash probe and says nothing about
        // its neighbours.
        scan(addr, max_dist, up, |key| self.map.get(&key).ok_or(key))
    }
}

impl<T: std::fmt::Debug> ShadowStore<T> for ShadowTable<T> {
    #[inline]
    fn get(&self, addr: Addr) -> Option<&T> {
        self.map.get(&chunk_key(addr))?.get(low(addr))
    }

    #[inline]
    fn get_mut(&mut self, addr: Addr) -> Option<&mut T> {
        self.map.get_mut(&chunk_key(addr))?.get_mut(low(addr))
    }

    #[inline]
    fn insert(&mut self, addr: Addr, value: T) -> Option<T> {
        let bytes = &mut self.bytes;
        let chunk = self.map.entry(chunk_key(addr)).or_insert_with(|| {
            *bytes += NEW_CHUNK_BYTES;
            Chunk::new()
        });
        let (prev, expanded) = chunk.put(low(addr), value);
        if expanded {
            self.bytes += EXPANSION_BYTES;
        }
        if prev.is_none() {
            self.live += 1;
        }
        prev
    }

    fn remove(&mut self, addr: Addr) -> Option<T> {
        let key = chunk_key(addr);
        let chunk = self.map.get_mut(&key)?;
        let removed = chunk.take(low(addr))?;
        self.live -= 1;
        if chunk.is_empty() {
            self.drop_chunk(key);
        }
        Some(removed)
    }

    fn remove_range(&mut self, base: Addr, len: u64, mut f: impl FnMut(Addr, T)) {
        if len == 0 {
            return;
        }
        let last = base.0.saturating_add(len - 1);
        let (first_key, last_key) = (chunk_key(base), chunk_key(Addr(last)));
        for key in keys_in(first_key, last_key, &self.map) {
            let Some(chunk) = self.map.get_mut(&key) else {
                continue;
            };
            self.live -= chunk.drain(key << CHUNK_SHIFT, base.0, last, &mut f);
            if chunk.is_empty() {
                self.drop_chunk(key);
            }
        }
    }

    fn nearest_predecessor(&self, addr: Addr, max_dist: u64) -> Option<(Addr, &T)> {
        self.scan(addr, max_dist, false)
    }

    fn nearest_successor(&self, addr: Addr, max_dist: u64) -> Option<(Addr, &T)> {
        self.scan(addr, max_dist, true)
    }

    fn len(&self) -> usize {
        self.live
    }

    fn index_bytes(&self) -> usize {
        self.bytes
    }

    /// The lowest-keyed resident chunk: the hash table keeps no recency
    /// information, so "lowest address" stands in for "cold".
    fn victim_region(&self, victims: &mut Victims) -> Option<(Addr, u64)> {
        let key = victims.lowest(&self.map, None)?;
        Some((Addr(key << CHUNK_SHIFT), CHUNK_BYTES))
    }

    fn for_each(&self, mut f: impl FnMut(Addr, &T)) {
        for (key, chunk) in &self.map {
            chunk.for_each(key << CHUNK_SHIFT, &mut f);
        }
    }

    fn byte_mode_chunks(&self) -> Vec<Addr> {
        let mut out: Vec<Addr> = self
            .map
            .iter()
            .filter(|(_, chunk)| chunk.is_byte_mode())
            .map(|(key, _)| Addr(key << CHUNK_SHIFT))
            .collect();
        out.sort_unstable();
        out
    }

    fn force_byte_mode(&mut self, addr: Addr) {
        let chunk = self.map.get_mut(&chunk_key(addr));
        if chunk.is_some_and(Chunk::expand) {
            self.bytes += EXPANSION_BYTES;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accounting::hash_entry_bytes;

    #[test]
    fn victim_region_is_lowest_chunk() {
        let victim = |t: &ShadowTable<u32>| t.victim_region(&mut Victims::default());
        let mut t: ShadowTable<u32> = ShadowTable::default();
        assert_eq!(victim(&t), None);
        t.insert(Addr(0x1000), 1);
        t.insert(Addr(0x200), 2);
        assert_eq!(victim(&t), Some((Addr(0x200), 128)));
        t.remove(Addr(0x200));
        assert_eq!(victim(&t), Some((Addr(0x1000), 128)));
        // Evicting the victim empties the table.
        let (base, len) = victim(&t).unwrap();
        let mut removed = 0;
        t.remove_range(base, len, |_, _| removed += 1);
        assert_eq!(removed, 1);
        assert_eq!(victim(&t), None);
    }

    /// One eviction loop sorts the keys once and still names the lowest
    /// resident chunk at every step, whoever emptied the ones before it.
    #[test]
    fn victim_region_walks_one_loop_in_ascending_order() {
        let mut t: ShadowTable<u32> = ShadowTable::default();
        for a in [0x900, 0x100, 0x500, 0x300, 0x700] {
            t.insert(Addr(a), 0);
        }
        let mut victims = Victims::default();
        let mut order = Vec::new();
        while let Some((base, len)) = t.victim_region(&mut victims) {
            order.push(base.0);
            t.remove_range(base, len, |_, _| {});
            // A paired eviction takes the next chunk away behind the
            // loop's back.
            t.remove(Addr(base.0 + 0x200));
        }
        assert_eq!(order, [0x100, 0x500, 0x900]);
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
