//! The chained-hash shadow table of Fig. 4.
//!
//! Addresses are split into an *upper* part (hashed to find the chunk
//! entry) and a *lower* part (index into the entry's slot array). Entries
//! start in **word mode** — `m/4` slots, one per word-aligned address —
//! and are expanded to **byte mode** (`m` slots, one per byte address) when
//! the first non-word-aligned access reaches the chunk. This captures the
//! paper's observation that most C/C++ accesses are word-sized and aligned,
//! so most chunks never pay for byte-level indexing.

use dgrace_trace::Addr;

use crate::hash::FastMap;

use crate::accounting::hash_entry_bytes;

/// Default slots per chunk (the paper's example uses m = 128).
pub const DEFAULT_M: usize = 128;

#[derive(Clone, Debug)]
struct Entry<T> {
    /// `m/4` slots in word mode, `m` slots in byte mode.
    slots: Vec<Option<T>>,
    byte_mode: bool,
    /// Populated slots (O(1) emptiness checks on removal).
    live: u32,
}

impl<T> Entry<T> {
    /// Slot index of the chunk-relative offset `low`, or `None` if the
    /// offset is unaligned and the entry is still in word mode.
    #[inline]
    fn slot_of(&self, low: usize) -> Option<usize> {
        if self.byte_mode {
            Some(low)
        } else if low.is_multiple_of(4) {
            Some(low / 4)
        } else {
            None
        }
    }
}

/// A shadow table mapping *locations* (access base addresses) to cells of
/// type `T`.
///
/// The table tracks its own modeled byte footprint (entry headers + slot
/// arrays) for the `Hash` column of Table 2.
#[derive(Clone, Debug)]
pub struct ShadowTable<T> {
    m: usize,
    shift: u32,
    map: FastMap<u64, Entry<T>>,
    live: usize,
    bytes: usize,
}

impl<T> Default for ShadowTable<T> {
    fn default() -> Self {
        Self::new(DEFAULT_M)
    }
}

impl<T> ShadowTable<T> {
    /// Creates a table with `m` slots per chunk. `m` must be a power of two
    /// and at least 4.
    pub fn new(m: usize) -> Self {
        assert!(
            m.is_power_of_two() && m >= 4,
            "m must be a power of two >= 4"
        );
        ShadowTable {
            m,
            shift: m.trailing_zeros(),
            map: FastMap::default(),
            live: 0,
            bytes: 0,
        }
    }

    #[inline]
    fn key(&self, addr: Addr) -> u64 {
        addr.0 >> self.shift
    }

    #[inline]
    fn low(&self, addr: Addr) -> usize {
        (addr.0 & (self.m as u64 - 1)) as usize
    }

    /// Looks up the cell for `addr`.
    pub fn get(&self, addr: Addr) -> Option<&T> {
        let entry = self.map.get(&self.key(addr))?;
        let slot = entry.slot_of(self.low(addr))?;
        entry.slots[slot].as_ref()
    }

    /// Looks up the cell for `addr` mutably.
    pub fn get_mut(&mut self, addr: Addr) -> Option<&mut T> {
        let low = self.low(addr);
        let entry = self.map.get_mut(&self.key(addr))?;
        let slot = entry.slot_of(low)?;
        entry.slots[slot].as_mut()
    }

    /// Inserts a cell for `addr`, creating or expanding the chunk entry as
    /// needed. Returns the previous cell, if any.
    pub fn insert(&mut self, addr: Addr, value: T) -> Option<T> {
        let m = self.m;
        let key = self.key(addr);
        let aligned = addr.0.is_multiple_of(4);
        let mut created = false;
        let entry = self.map.entry(key).or_insert_with(|| {
            // "When a new hash entry is created, it starts with an array of
            // m/4 pointers since the most common access pattern is word
            // access."
            created = true;
            Entry {
                slots: (0..m / 4).map(|_| None).collect(),
                byte_mode: false,
                live: 0,
            }
        });
        if created {
            self.bytes += hash_entry_bytes(m / 4);
        }
        if !entry.byte_mode && !aligned {
            // "When a byte access is detected, the array is expanded to
            // have m pointers."
            let mut slots: Vec<Option<T>> = (0..m).map(|_| None).collect();
            for (i, cell) in entry.slots.drain(..).enumerate() {
                slots[i * 4] = cell;
            }
            entry.slots = slots;
            entry.byte_mode = true;
            self.bytes += hash_entry_bytes(m) - hash_entry_bytes(m / 4);
        }
        let slot = if entry.byte_mode {
            (addr.0 & (m as u64 - 1)) as usize
        } else {
            ((addr.0 & (m as u64 - 1)) / 4) as usize
        };
        let prev = entry.slots[slot].replace(value);
        if prev.is_none() {
            self.live += 1;
            entry.live += 1;
        }
        prev
    }

    /// Removes the cell at `addr`, dropping the chunk entry when it
    /// becomes empty (as `free()` does in §IV.B).
    pub fn remove(&mut self, addr: Addr) -> Option<T> {
        let key = self.key(addr);
        let low = self.low(addr);
        let entry = self.map.get_mut(&key)?;
        let slot = entry.slot_of(low)?;
        let removed = entry.slots[slot].take();
        if removed.is_some() {
            self.live -= 1;
            entry.live -= 1;
            if entry.live == 0 {
                let released = hash_entry_bytes(entry.slots.len());
                self.map.remove(&key);
                self.bytes -= released;
            }
        }
        removed
    }

    /// Removes every cell with address in `[base, base+len)`, invoking `f`
    /// on each removed `(addr, cell)` — used when a block is freed. A
    /// range that runs past the top of the address space ends there.
    pub fn remove_range(&mut self, base: Addr, len: u64, mut f: impl FnMut(Addr, T)) {
        if len == 0 {
            return;
        }
        let last = base.0.saturating_add(len - 1);
        for key in self.key(base)..=self.key(Addr(last)) {
            let Some(entry) = self.map.get_mut(&key) else {
                continue;
            };
            let stride = if entry.byte_mode { 1 } else { 4 };
            let mut removed_any = false;
            for slot in 0..entry.slots.len() {
                let addr = Addr((key << self.shift) + (slot as u64) * stride);
                if (base.0..=last).contains(&addr.0) {
                    if let Some(cell) = entry.slots[slot].take() {
                        self.live -= 1;
                        entry.live -= 1;
                        removed_any = true;
                        f(addr, cell);
                    }
                }
            }
            if removed_any && entry.live == 0 {
                let released = hash_entry_bytes(entry.slots.len());
                self.map.remove(&key);
                self.bytes -= released;
            }
        }
    }

    /// Collects the addresses of every populated cell in
    /// `[base, base+len)` by direct chunk iteration — the cheap way to
    /// enumerate a freed block's locations.
    pub fn addrs_in_range(&self, base: Addr, len: u64) -> Vec<Addr> {
        let mut out = Vec::new();
        if len == 0 {
            return out;
        }
        let last = base.0.saturating_add(len - 1);
        for key in self.key(base)..=self.key(Addr(last)) {
            let Some(entry) = self.map.get(&key) else {
                continue;
            };
            let stride = if entry.byte_mode { 1 } else { 4 };
            for (slot, cell) in entry.slots.iter().enumerate() {
                if cell.is_some() {
                    let addr = Addr((key << self.shift) + (slot as u64) * stride);
                    if (base.0..=last).contains(&addr.0) {
                        out.push(addr);
                    }
                }
            }
        }
        out
    }

    /// The nearest populated location strictly below `addr`, scanning at
    /// most `max_dist` bytes back. Used for the first-epoch neighbor search
    /// ("the nearest predecessor ... that has valid vector clocks").
    pub fn nearest_predecessor(&self, addr: Addr, max_dist: u64) -> Option<(Addr, &T)> {
        self.scan(addr, max_dist, -1)
    }

    /// The nearest populated location strictly above `addr`, scanning at
    /// most `max_dist` bytes forward.
    pub fn nearest_successor(&self, addr: Addr, max_dist: u64) -> Option<(Addr, &T)> {
        self.scan(addr, max_dist, 1)
    }

    /// Slot-wise directional scan: iterates chunk entries outward from
    /// `addr` and, within a present entry, walks its slot array directly
    /// (4-byte stride in word mode), so absent chunks cost one hash probe
    /// and dense chunks cost one probe per *slot*, not per byte.
    fn scan(&self, addr: Addr, max_dist: u64, dir: i64) -> Option<(Addr, &T)> {
        if max_dist == 0 {
            return None;
        }
        // Nothing lies beyond either end of the address space.
        let (lo, hi) = if dir > 0 {
            (addr.0.checked_add(1)?, addr.0.saturating_add(max_dist))
        } else {
            (addr.0.saturating_sub(max_dist), addr.0.checked_sub(1)?)
        };
        let first_key = self.key(Addr(if dir > 0 { lo } else { hi }));
        let last_key = self.key(Addr(if dir > 0 { hi } else { lo }));
        let mut key = first_key;
        loop {
            if let Some(e) = self.map.get(&key) {
                let stride = if e.byte_mode { 1u64 } else { 4 };
                let chunk_base = key << self.shift;
                let chunk_end = chunk_base + (self.m as u64 - 1);
                // Clamp the slot range to [lo, hi] within this chunk.
                let from = lo.max(chunk_base);
                let to = hi.min(chunk_end);
                if from <= to {
                    // Slot indices covering [from, to], rounded inward.
                    let s_lo = (from - chunk_base).div_ceil(stride);
                    let s_hi = (to - chunk_base) / stride;
                    if s_lo <= s_hi {
                        let found = if dir > 0 {
                            (s_lo..=s_hi).find(|&s| e.slots[s as usize].is_some())
                        } else {
                            (s_lo..=s_hi).rev().find(|&s| e.slots[s as usize].is_some())
                        };
                        if let Some(s) = found {
                            let a = Addr(chunk_base + s * stride);
                            return e.slots[s as usize].as_ref().map(|c| (a, c));
                        }
                    }
                }
            }
            if key == last_key {
                return None;
            }
            key = if dir > 0 { key + 1 } else { key - 1 };
        }
    }

    /// Number of populated cells.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Returns `true` if no cells are populated.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Picks a victim chunk for memory-budget eviction: the span of the
    /// lowest-keyed resident chunk. The hash table keeps no recency
    /// information, so "lowest address" stands in for "cold"; the choice
    /// is deterministic for a given table state.
    pub fn victim_region(&self) -> Option<(Addr, u64)> {
        let key = self.map.keys().min()?;
        Some((Addr(key << self.shift), self.m as u64))
    }

    /// Modeled bytes of the hash structure (entry headers + slot arrays).
    pub fn hash_bytes(&self) -> usize {
        self.bytes
    }

    /// Base addresses of chunks currently in byte mode, ascending.
    /// Snapshot restore replays these through
    /// [`ShadowTable::force_byte_mode`] so the rebuilt index matches the
    /// live one byte-for-byte (a byte-mode chunk whose only unaligned
    /// cells were removed stays expanded).
    pub fn byte_mode_chunks(&self) -> Vec<Addr> {
        let mut out: Vec<Addr> = self
            .map
            .iter()
            .filter(|(_, e)| e.byte_mode)
            .map(|(key, _)| Addr(key << self.shift))
            .collect();
        out.sort_unstable();
        out
    }

    /// Forces the chunk containing `addr` into byte mode, preserving
    /// existing cells exactly as an unaligned insert would. No-op when
    /// the chunk is absent or already expanded.
    pub fn force_byte_mode(&mut self, addr: Addr) {
        let key = self.key(addr);
        let m = self.m;
        let Some(entry) = self.map.get_mut(&key) else {
            return;
        };
        if entry.byte_mode {
            return;
        }
        let mut slots: Vec<Option<T>> = (0..m).map(|_| None).collect();
        for (i, cell) in entry.slots.drain(..).enumerate() {
            slots[i * 4] = cell;
        }
        entry.slots = slots;
        entry.byte_mode = true;
        self.bytes += hash_entry_bytes(m) - hash_entry_bytes(m / 4);
    }

    /// Iterates populated `(addr, cell)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (Addr, &T)> {
        self.map.iter().flat_map(move |(key, entry)| {
            let stride = if entry.byte_mode { 1 } else { 4 };
            entry
                .slots
                .iter()
                .enumerate()
                .filter_map(move |(slot, cell)| {
                    cell.as_ref()
                        .map(|c| (Addr((key << self.shift) + (slot as u64) * stride), c))
                })
        })
    }

    /// Applies `f` to every populated cell mutably.
    pub fn for_each_mut(&mut self, mut f: impl FnMut(Addr, &mut T)) {
        let shift = self.shift;
        for (key, entry) in self.map.iter_mut() {
            let stride = if entry.byte_mode { 1 } else { 4 };
            for (slot, cell) in entry.slots.iter_mut().enumerate() {
                if let Some(c) = cell.as_mut() {
                    f(Addr((key << shift) + (slot as u64) * stride), c);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_word_aligned() {
        let mut t: ShadowTable<u32> = ShadowTable::new(128);
        assert!(t.insert(Addr(0x100), 7).is_none());
        assert_eq!(t.get(Addr(0x100)), Some(&7));
        assert_eq!(t.get(Addr(0x104)), None);
        assert_eq!(t.insert(Addr(0x100), 9), Some(7));
        assert_eq!(t.remove(Addr(0x100)), Some(9));
        assert!(t.is_empty());
        assert_eq!(t.hash_bytes(), 0);
    }

    #[test]
    fn victim_region_is_lowest_chunk() {
        let mut t: ShadowTable<u32> = ShadowTable::new(128);
        assert_eq!(t.victim_region(), None);
        t.insert(Addr(0x1000), 1);
        t.insert(Addr(0x200), 2);
        assert_eq!(t.victim_region(), Some((Addr(0x200), 128)));
        t.remove(Addr(0x200));
        assert_eq!(t.victim_region(), Some((Addr(0x1000), 128)));
        // Evicting the victim empties the table.
        let (base, len) = t.victim_region().unwrap();
        let mut removed = 0;
        t.remove_range(base, len, |_, _| removed += 1);
        assert_eq!(removed, 1);
        assert_eq!(t.victim_region(), None);
    }

    #[test]
    fn word_mode_starts_small_and_expands_on_byte_access() {
        let mut t: ShadowTable<u32> = ShadowTable::new(128);
        t.insert(Addr(0x100), 1);
        // word mode: 32 slots
        assert_eq!(t.hash_bytes(), hash_entry_bytes(32));
        // An unaligned access expands the chunk to 128 slots...
        t.insert(Addr(0x103), 2);
        assert_eq!(t.hash_bytes(), hash_entry_bytes(128));
        // ...and preserves the existing cell.
        assert_eq!(t.get(Addr(0x100)), Some(&1));
        assert_eq!(t.get(Addr(0x103)), Some(&2));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn unaligned_lookup_in_word_mode_is_none() {
        let mut t: ShadowTable<u32> = ShadowTable::new(128);
        t.insert(Addr(0x100), 1);
        assert_eq!(t.get(Addr(0x101)), None);
        assert_eq!(t.remove(Addr(0x101)), None);
    }

    #[test]
    fn distinct_chunks_are_independent() {
        let mut t: ShadowTable<u32> = ShadowTable::new(128);
        t.insert(Addr(0x0), 1);
        t.insert(Addr(0x80), 2); // next chunk for m=128
        t.insert(Addr(0x81), 3); // expands only the second chunk
        assert_eq!(t.hash_bytes(), hash_entry_bytes(32) + hash_entry_bytes(128));
        assert_eq!(t.get(Addr(0x0)), Some(&1));
        assert_eq!(t.get(Addr(0x80)), Some(&2));
        assert_eq!(t.get(Addr(0x81)), Some(&3));
    }

    #[test]
    fn nearest_neighbors_within_and_across_chunks() {
        let mut t: ShadowTable<u32> = ShadowTable::new(128);
        t.insert(Addr(0x100), 10);
        t.insert(Addr(0x108), 11);
        // Predecessor of 0x108 is 0x100 (8 bytes back).
        assert_eq!(
            t.nearest_predecessor(Addr(0x108), 16),
            Some((Addr(0x100), &10))
        );
        // Successor of 0x100 is 0x108.
        assert_eq!(
            t.nearest_successor(Addr(0x100), 16),
            Some((Addr(0x108), &11))
        );
        // Bounded by max_dist.
        assert_eq!(t.nearest_predecessor(Addr(0x108), 4), None);
        // Across a chunk boundary (0x180 is in the next chunk).
        t.insert(Addr(0x180), 12);
        assert_eq!(
            t.nearest_successor(Addr(0x108), 256),
            Some((Addr(0x180), &12))
        );
        assert_eq!(
            t.nearest_predecessor(Addr(0x180), 256),
            Some((Addr(0x108), &11))
        );
    }

    #[test]
    fn predecessor_stops_at_zero() {
        let mut t: ShadowTable<u32> = ShadowTable::new(128);
        t.insert(Addr(0x0), 1);
        assert_eq!(t.nearest_predecessor(Addr(0x0), 64), None);
        assert_eq!(t.nearest_predecessor(Addr(0x4), 64), Some((Addr(0x0), &1)));
    }

    #[test]
    fn the_top_of_the_address_space_is_an_end_not_a_seam() {
        let top = u64::MAX;
        let mut t: ShadowTable<u32> = ShadowTable::new(128);
        t.insert(Addr(0x100), 1);
        t.insert(Addr(top), 2);
        t.insert(Addr(top - 3), 3);
        // No successor 2^64 bytes "after" the last address.
        assert_eq!(t.nearest_successor(Addr(top), 8), None);
        assert_eq!(t.nearest_successor(Addr(top), u64::MAX), None);
        assert_eq!(t.nearest_successor(Addr(top - 3), 8), Some((Addr(top), &2)));
        assert_eq!(
            t.nearest_predecessor(Addr(top), 8),
            Some((Addr(top - 3), &3))
        );
        assert_eq!(
            t.addrs_in_range(Addr(top - 3), 64),
            vec![Addr(top - 3), Addr(top)]
        );
        // A freed range that runs past the top ends there.
        let mut removed = Vec::new();
        t.remove_range(Addr(top - 3), 64, |a, v| removed.push((a, v)));
        assert_eq!(removed, vec![(Addr(top - 3), 3), (Addr(top), 2)]);
        assert_eq!(t.get(Addr(0x100)), Some(&1));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn remove_range_frees_blocks() {
        let mut t: ShadowTable<u32> = ShadowTable::new(128);
        for i in 0..8u64 {
            t.insert(Addr(0x100 + i * 4), i as u32);
        }
        let mut removed = Vec::new();
        t.remove_range(Addr(0x104), 12, |a, v| removed.push((a, v)));
        removed.sort();
        assert_eq!(
            removed,
            vec![(Addr(0x104), 1), (Addr(0x108), 2), (Addr(0x10c), 3)]
        );
        assert_eq!(t.len(), 5);
        assert_eq!(t.get(Addr(0x100)), Some(&0));
        assert_eq!(t.get(Addr(0x110)), Some(&4));
    }

    #[test]
    fn remove_range_across_chunks_and_modes() {
        let mut t: ShadowTable<u32> = ShadowTable::new(128);
        t.insert(Addr(0x7c), 1);
        t.insert(Addr(0x81), 2); // byte-mode chunk
        t.insert(Addr(0x100), 3);
        let mut n = 0;
        t.remove_range(Addr(0x70), 0x100, |_, _| n += 1);
        assert_eq!(n, 3);
        assert!(t.is_empty());
        assert_eq!(t.hash_bytes(), 0);
    }

    #[test]
    fn iter_visits_all_cells() {
        let mut t: ShadowTable<u32> = ShadowTable::new(16);
        t.insert(Addr(0x0), 1);
        t.insert(Addr(0x11), 2);
        t.insert(Addr(0x24), 3);
        let mut got: Vec<_> = t.iter().map(|(a, &v)| (a.0, v)).collect();
        got.sort();
        assert_eq!(got, vec![(0x0, 1), (0x11, 2), (0x24, 3)]);
    }

    #[test]
    fn for_each_mut_updates_cells() {
        let mut t: ShadowTable<u32> = ShadowTable::new(16);
        t.insert(Addr(0x0), 1);
        t.insert(Addr(0x4), 2);
        t.for_each_mut(|_, v| *v += 10);
        assert_eq!(t.get(Addr(0x0)), Some(&11));
        assert_eq!(t.get(Addr(0x4)), Some(&12));
    }

    #[test]
    fn scan_skips_absent_chunks_efficiently() {
        let mut t: ShadowTable<u32> = ShadowTable::new(128);
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
