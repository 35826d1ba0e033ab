//! A TSan-style two-level direct-mapped shadow table.
//!
//! Where [`ShadowTable`](crate::ShadowTable) hashes every access to find
//! its 128-byte chunk, the paged store splits the address once more: a
//! *directory* covers a 4 KiB span (32 chunks) and is found through a
//! small hash map keyed by `addr >> 12`, backed by a one-entry hot cache
//! that short-circuits the probe entirely while accesses stay within the
//! same 4 KiB page. Within a directory, chunk and slot are direct array
//! indices — no hashing, no chaining.
//!
//! This is the same locality bet ThreadSanitizer's shadow layout makes:
//! real access streams are page-local, so the common-case lookup is two
//! array indexes off a cached pointer. The sharded engine gives each shard
//! its own detector (and therefore its own store), so the hot cache is
//! per-shard state: each shard's streak locality is captured
//! independently, without any cross-thread invalidation.
//!
//! Chunks keep the paper's Fig. 4 behaviour exactly: they start in **word
//! mode** (32 slots, one per 4-aligned address; unaligned lookups miss)
//! and expand to **byte mode** (128 slots) on the first unaligned insert,
//! preserving existing cells at `slot * 4`. Because mode state is
//! per-chunk at the same 128-byte granularity as the hash table, every
//! observable behaviour — hits, misses, neighbor scans, range removal —
//! is identical between the two stores.

use std::cell::Cell;

use dgrace_trace::Addr;

use crate::accounting::{hash_entry_bytes, paged_dir_bytes};
use crate::hash::FastMap;

/// Bytes covered by one chunk (equals the hash table's default `m`).
const CHUNK_BYTES: u64 = 128;
const CHUNK_SHIFT: u32 = CHUNK_BYTES.trailing_zeros();
/// Chunks per directory; a directory spans 4 KiB.
const DIR_CHUNKS: u64 = 32;
const DIR_SHIFT: u32 = CHUNK_SHIFT + DIR_CHUNKS.trailing_zeros();

/// Word-mode slot count per chunk.
const WORD_SLOTS: usize = (CHUNK_BYTES / 4) as usize;
/// Byte-mode slot count per chunk.
const BYTE_SLOTS: usize = CHUNK_BYTES as usize;

#[derive(Debug)]
struct Chunk<T> {
    /// `m/4` slots in word mode, `m` slots in byte mode.
    slots: Vec<Option<T>>,
    byte_mode: bool,
    /// Populated slots (O(1) emptiness checks on removal).
    live: u32,
}

impl<T> Chunk<T> {
    fn new_word_mode() -> Box<Self> {
        Box::new(Chunk {
            slots: (0..WORD_SLOTS).map(|_| None).collect(),
            byte_mode: false,
            live: 0,
        })
    }

    #[inline]
    fn stride(&self) -> u64 {
        if self.byte_mode {
            1
        } else {
            4
        }
    }

    /// Slot index of the in-chunk offset `low`, or `None` if the address
    /// is unaligned and the chunk is still in word mode.
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

#[derive(Debug)]
struct Directory<T> {
    key: u64,
    /// Populated cells across all chunks (O(1) emptiness checks).
    live: u32,
    chunks: [Option<Box<Chunk<T>>>; DIR_CHUNKS as usize],
}

/// A two-level direct-mapped shadow store: directory map → chunk array →
/// slot array, with a one-entry hot-directory cache in front.
///
/// Like [`ShadowTable`](crate::ShadowTable), the store tracks its own
/// modeled byte footprint (directory nodes + slot arrays) for the `Hash`
/// column of Table 2.
#[derive(Debug)]
pub struct PagedShadow<T> {
    /// Directory key (`addr >> 12`) → index into `dirs`.
    map: FastMap<u64, u32>,
    /// Directory arena; freed slots are recycled through `free`.
    dirs: Vec<Option<Directory<T>>>,
    free: Vec<u32>,
    /// Last directory hit: `(key, index into dirs)`. Interior-mutable so
    /// read-only lookups refresh it too; invalidated when the cached
    /// directory is freed. One per store, i.e. one per shard.
    hot: Cell<Option<(u64, u32)>>,
    live: usize,
    bytes: usize,
}

impl<T> Default for PagedShadow<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> PagedShadow<T> {
    /// Creates an empty paged store.
    pub fn new() -> Self {
        PagedShadow {
            map: FastMap::default(),
            dirs: Vec::new(),
            free: Vec::new(),
            hot: Cell::new(None),
            live: 0,
            bytes: 0,
        }
    }

    #[inline]
    fn dir_key(addr: Addr) -> u64 {
        addr.0 >> DIR_SHIFT
    }

    #[inline]
    fn chunk_index(addr: Addr) -> usize {
        ((addr.0 >> CHUNK_SHIFT) & (DIR_CHUNKS - 1)) as usize
    }

    #[inline]
    fn low(addr: Addr) -> usize {
        (addr.0 & (CHUNK_BYTES - 1)) as usize
    }

    /// Arena index of the directory for `key`, going through the hot
    /// cache. A hit costs one compare; a miss costs one hash probe and
    /// refreshes the cache.
    #[inline]
    fn dir_index(&self, key: u64) -> Option<u32> {
        if let Some((k, i)) = self.hot.get() {
            if k == key {
                return Some(i);
            }
        }
        let i = *self.map.get(&key)?;
        self.hot.set(Some((key, i)));
        Some(i)
    }

    #[inline]
    fn dir(&self, key: u64) -> Option<&Directory<T>> {
        let i = self.dir_index(key)?;
        self.dirs[i as usize].as_ref()
    }

    /// Looks up the cell for `addr`.
    pub fn get(&self, addr: Addr) -> Option<&T> {
        let dir = self.dir(Self::dir_key(addr))?;
        let chunk = dir.chunks[Self::chunk_index(addr)].as_ref()?;
        let slot = chunk.slot_of(Self::low(addr))?;
        chunk.slots[slot].as_ref()
    }

    /// Looks up the cell for `addr` mutably.
    pub fn get_mut(&mut self, addr: Addr) -> Option<&mut T> {
        let i = self.dir_index(Self::dir_key(addr))?;
        let dir = self.dirs[i as usize].as_mut()?;
        let chunk = dir.chunks[Self::chunk_index(addr)].as_mut()?;
        let slot = chunk.slot_of(Self::low(addr))?;
        chunk.slots[slot].as_mut()
    }

    /// Inserts a cell for `addr`, creating the directory and chunk (and
    /// expanding word→byte mode) as needed. Returns the previous cell.
    pub fn insert(&mut self, addr: Addr, value: T) -> Option<T> {
        let key = Self::dir_key(addr);
        let di = match self.dir_index(key) {
            Some(i) => i,
            None => {
                let dir = Directory {
                    key,
                    live: 0,
                    chunks: std::array::from_fn(|_| None),
                };
                let i = match self.free.pop() {
                    Some(i) => {
                        self.dirs[i as usize] = Some(dir);
                        i
                    }
                    None => {
                        self.dirs.push(Some(dir));
                        (self.dirs.len() - 1) as u32
                    }
                };
                self.map.insert(key, i);
                self.bytes += paged_dir_bytes(DIR_CHUNKS as usize);
                self.hot.set(Some((key, i)));
                i
            }
        };
        let dir = self.dirs[di as usize].as_mut().expect("mapped directory");
        let ci = Self::chunk_index(addr);
        if dir.chunks[ci].is_none() {
            dir.chunks[ci] = Some(Chunk::new_word_mode());
            self.bytes += hash_entry_bytes(WORD_SLOTS);
        }
        let chunk = dir.chunks[ci].as_mut().expect("just ensured");
        if !chunk.byte_mode && !addr.0.is_multiple_of(4) {
            // First byte access: expand to m slots, existing word cells
            // move to `slot * 4` (Fig. 4).
            let mut slots: Vec<Option<T>> = (0..BYTE_SLOTS).map(|_| None).collect();
            for (i, cell) in chunk.slots.drain(..).enumerate() {
                slots[i * 4] = cell;
            }
            chunk.slots = slots;
            chunk.byte_mode = true;
            self.bytes += hash_entry_bytes(BYTE_SLOTS) - hash_entry_bytes(WORD_SLOTS);
        }
        let low = Self::low(addr);
        let slot = if chunk.byte_mode { low } else { low / 4 };
        let prev = chunk.slots[slot].replace(value);
        if prev.is_none() {
            chunk.live += 1;
            dir.live += 1;
            self.live += 1;
        }
        prev
    }

    /// Removes the cell at `addr`, dropping the chunk — and the directory —
    /// when they become empty.
    pub fn remove(&mut self, addr: Addr) -> Option<T> {
        let key = Self::dir_key(addr);
        let di = self.dir_index(key)?;
        let dir = self.dirs[di as usize].as_mut()?;
        let ci = Self::chunk_index(addr);
        let chunk = dir.chunks[ci].as_mut()?;
        let slot = chunk.slot_of(Self::low(addr))?;
        let removed = chunk.slots[slot].take()?;
        chunk.live -= 1;
        dir.live -= 1;
        self.live -= 1;
        if chunk.live == 0 {
            self.bytes -= hash_entry_bytes(chunk.slots.len());
            dir.chunks[ci] = None;
        }
        if dir.live == 0 {
            self.free_dir(key, di);
        }
        Some(removed)
    }

    fn free_dir(&mut self, key: u64, di: u32) {
        self.dirs[di as usize] = None;
        self.map.remove(&key);
        self.free.push(di);
        self.bytes -= paged_dir_bytes(DIR_CHUNKS as usize);
        if let Some((k, _)) = self.hot.get() {
            if k == key {
                self.hot.set(None);
            }
        }
    }

    /// Removes every cell with address in `[base, base+len)`, invoking `f`
    /// on each removed `(addr, cell)`. A range that runs past the top of
    /// the address space ends there.
    pub fn remove_range(&mut self, base: Addr, len: u64, mut f: impl FnMut(Addr, T)) {
        if len == 0 {
            return;
        }
        let last = base.0.saturating_add(len - 1);
        for key in Self::dir_key(base)..=Self::dir_key(Addr(last)) {
            let Some(di) = self.dir_index(key) else {
                continue;
            };
            let dir = self.dirs[di as usize].as_mut().expect("mapped directory");
            for ci in 0..DIR_CHUNKS as usize {
                let chunk_base = (key << DIR_SHIFT) + (ci as u64) * CHUNK_BYTES;
                if chunk_base + (CHUNK_BYTES - 1) < base.0 || chunk_base > last {
                    continue;
                }
                let Some(chunk) = dir.chunks[ci].as_mut() else {
                    continue;
                };
                let stride = chunk.stride();
                for slot in 0..chunk.slots.len() {
                    let addr = Addr(chunk_base + (slot as u64) * stride);
                    if (base.0..=last).contains(&addr.0) {
                        if let Some(cell) = chunk.slots[slot].take() {
                            chunk.live -= 1;
                            dir.live -= 1;
                            self.live -= 1;
                            f(addr, cell);
                        }
                    }
                }
                if chunk.live == 0 {
                    self.bytes -= hash_entry_bytes(chunk.slots.len());
                    dir.chunks[ci] = None;
                }
            }
            if dir.live == 0 {
                self.free_dir(key, di);
            }
        }
    }

    /// The nearest populated location strictly below `addr`, scanning at
    /// most `max_dist` bytes back.
    pub fn nearest_predecessor(&self, addr: Addr, max_dist: u64) -> Option<(Addr, &T)> {
        self.scan(addr, max_dist, -1)
    }

    /// The nearest populated location strictly above `addr`, scanning at
    /// most `max_dist` bytes forward.
    pub fn nearest_successor(&self, addr: Addr, max_dist: u64) -> Option<(Addr, &T)> {
        self.scan(addr, max_dist, 1)
    }

    /// Directional scan, chunk by chunk outward from `addr`. Absent
    /// *directories* are skipped 4 KiB at a time (one probe per 32
    /// chunks — cheaper than the hash table's probe per chunk), and the
    /// per-chunk slot walk is identical to the hash table's, so both
    /// stores report the same neighbor for the same query.
    fn scan(&self, addr: Addr, max_dist: u64, dir_sign: i64) -> Option<(Addr, &T)> {
        if max_dist == 0 {
            return None;
        }
        // Nothing lies beyond either end of the address space.
        let (lo, hi) = if dir_sign > 0 {
            (addr.0.checked_add(1)?, addr.0.saturating_add(max_dist))
        } else {
            (addr.0.saturating_sub(max_dist), addr.0.checked_sub(1)?)
        };
        // Global chunk numbers covering the scan window.
        let first_gc = (if dir_sign > 0 { lo } else { hi }) >> CHUNK_SHIFT;
        let last_gc = (if dir_sign > 0 { hi } else { lo }) >> CHUNK_SHIFT;
        let mut gc = first_gc;
        loop {
            let key = gc >> DIR_CHUNKS.trailing_zeros();
            match self.dir(key) {
                None => {
                    // Skip the remaining chunks of this absent directory —
                    // one probe covers its whole 4 KiB span.
                    let dir_first = key << DIR_CHUNKS.trailing_zeros();
                    let dir_last = dir_first + DIR_CHUNKS - 1;
                    if dir_sign > 0 {
                        if last_gc <= dir_last {
                            return None;
                        }
                        gc = dir_last + 1;
                    } else {
                        if last_gc >= dir_first {
                            return None;
                        }
                        gc = dir_first - 1;
                    }
                    continue;
                }
                Some(d) => {
                    let ci = (gc & (DIR_CHUNKS - 1)) as usize;
                    if let Some(chunk) = d.chunks[ci].as_ref() {
                        let stride = chunk.stride();
                        let chunk_base = gc << CHUNK_SHIFT;
                        let chunk_end = chunk_base + (CHUNK_BYTES - 1);
                        let from = lo.max(chunk_base);
                        let to = hi.min(chunk_end);
                        if from <= to {
                            let s_lo = (from - chunk_base).div_ceil(stride);
                            let s_hi = (to - chunk_base) / stride;
                            if s_lo <= s_hi {
                                let found = if dir_sign > 0 {
                                    (s_lo..=s_hi).find(|&s| chunk.slots[s as usize].is_some())
                                } else {
                                    (s_lo..=s_hi)
                                        .rev()
                                        .find(|&s| chunk.slots[s as usize].is_some())
                                };
                                if let Some(s) = found {
                                    let a = Addr(chunk_base + s * stride);
                                    return chunk.slots[s as usize].as_ref().map(|c| (a, c));
                                }
                            }
                        }
                    }
                }
            }
            if gc == last_gc {
                return None;
            }
            gc = if dir_sign > 0 { gc + 1 } else { gc - 1 };
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

    /// Modeled bytes of the paging structure (directory nodes + slot
    /// arrays) — the `Hash` column of Table 2 for this store.
    pub fn index_bytes(&self) -> usize {
        self.bytes
    }

    /// Picks a victim region for memory-budget eviction: the span of the
    /// lowest-keyed resident directory that is *not* the hot-cached one
    /// (the one most recently touched), falling back to the hot directory
    /// when it is the only resident. Deterministic for a given store
    /// state.
    pub fn victim_region(&self) -> Option<(Addr, u64)> {
        let hot_key = self.hot.get().map(|(k, _)| k);
        let key = match self.map.keys().filter(|&&k| Some(k) != hot_key).min() {
            Some(&k) => k,
            None => *self.map.keys().min()?,
        };
        Some((Addr(key << DIR_SHIFT), 1u64 << DIR_SHIFT))
    }

    /// Base addresses of chunks currently in byte mode, ascending.
    /// Snapshot restore replays these through
    /// [`PagedShadow::force_byte_mode`] so the rebuilt index matches the
    /// live one byte-for-byte.
    pub fn byte_mode_chunks(&self) -> Vec<Addr> {
        let mut out = Vec::new();
        for dir in self.dirs.iter().flatten() {
            for (ci, chunk) in dir.chunks.iter().enumerate() {
                if chunk.as_ref().is_some_and(|c| c.byte_mode) {
                    out.push(Addr((dir.key << DIR_SHIFT) + (ci as u64) * CHUNK_BYTES));
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Forces the chunk containing `addr` into byte mode, preserving
    /// existing cells exactly as an unaligned insert would. No-op when
    /// the chunk is absent or already expanded.
    pub fn force_byte_mode(&mut self, addr: Addr) {
        let Some(di) = self.dir_index(Self::dir_key(addr)) else {
            return;
        };
        let Some(dir) = self.dirs[di as usize].as_mut() else {
            return;
        };
        let Some(chunk) = dir.chunks[Self::chunk_index(addr)].as_mut() else {
            return;
        };
        if chunk.byte_mode {
            return;
        }
        let mut slots: Vec<Option<T>> = (0..BYTE_SLOTS).map(|_| None).collect();
        for (i, cell) in chunk.slots.drain(..).enumerate() {
            slots[i * 4] = cell;
        }
        chunk.slots = slots;
        chunk.byte_mode = true;
        self.bytes += hash_entry_bytes(BYTE_SLOTS) - hash_entry_bytes(WORD_SLOTS);
    }

    /// Applies `f` to every populated cell, in unspecified order.
    pub fn for_each(&self, mut f: impl FnMut(Addr, &T)) {
        for dir in self.dirs.iter().flatten() {
            for (ci, chunk) in dir.chunks.iter().enumerate() {
                let Some(chunk) = chunk.as_ref() else {
                    continue;
                };
                let stride = chunk.stride();
                let chunk_base = (dir.key << DIR_SHIFT) + (ci as u64) * CHUNK_BYTES;
                for (slot, cell) in chunk.slots.iter().enumerate() {
                    if let Some(c) = cell.as_ref() {
                        f(Addr(chunk_base + (slot as u64) * stride), c);
                    }
                }
            }
        }
    }

    /// Applies `f` to every populated cell mutably, in unspecified order.
    pub fn for_each_mut(&mut self, mut f: impl FnMut(Addr, &mut T)) {
        for dir in self.dirs.iter_mut().flatten() {
            for (ci, chunk) in dir.chunks.iter_mut().enumerate() {
                let Some(chunk) = chunk.as_mut() else {
                    continue;
                };
                let stride = if chunk.byte_mode { 1u64 } else { 4 };
                let chunk_base = (dir.key << DIR_SHIFT) + (ci as u64) * CHUNK_BYTES;
                for (slot, cell) in chunk.slots.iter_mut().enumerate() {
                    if let Some(c) = cell.as_mut() {
                        f(Addr(chunk_base + (slot as u64) * stride), c);
                    }
                }
            }
        }
    }
}

impl<T: std::fmt::Debug> crate::store::ShadowStore<T> for PagedShadow<T> {
    const LABEL: &'static str = "paged";

    #[inline]
    fn get(&self, addr: Addr) -> Option<&T> {
        PagedShadow::get(self, addr)
    }

    #[inline]
    fn get_mut(&mut self, addr: Addr) -> Option<&mut T> {
        PagedShadow::get_mut(self, addr)
    }

    #[inline]
    fn insert(&mut self, addr: Addr, value: T) -> Option<T> {
        PagedShadow::insert(self, addr, value)
    }

    #[inline]
    fn remove(&mut self, addr: Addr) -> Option<T> {
        PagedShadow::remove(self, addr)
    }

    #[inline]
    fn remove_range(&mut self, base: Addr, len: u64, f: impl FnMut(Addr, T)) {
        PagedShadow::remove_range(self, base, len, f)
    }

    #[inline]
    fn nearest_predecessor(&self, addr: Addr, max_dist: u64) -> Option<(Addr, &T)> {
        PagedShadow::nearest_predecessor(self, addr, max_dist)
    }

    #[inline]
    fn nearest_successor(&self, addr: Addr, max_dist: u64) -> Option<(Addr, &T)> {
        PagedShadow::nearest_successor(self, addr, max_dist)
    }

    #[inline]
    fn len(&self) -> usize {
        PagedShadow::len(self)
    }

    #[inline]
    fn index_bytes(&self) -> usize {
        PagedShadow::index_bytes(self)
    }

    #[inline]
    fn victim_region(&self) -> Option<(Addr, u64)> {
        PagedShadow::victim_region(self)
    }

    fn for_each(&self, f: impl FnMut(Addr, &T)) {
        PagedShadow::for_each(self, f)
    }

    fn for_each_mut(&mut self, f: impl FnMut(Addr, &mut T)) {
        PagedShadow::for_each_mut(self, f)
    }

    #[inline]
    fn byte_mode_chunks(&self) -> Vec<Addr> {
        PagedShadow::byte_mode_chunks(self)
    }

    #[inline]
    fn force_byte_mode(&mut self, addr: Addr) {
        PagedShadow::force_byte_mode(self, addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_word_aligned() {
        let mut t: PagedShadow<u32> = PagedShadow::new();
        assert!(t.insert(Addr(0x100), 7).is_none());
        assert_eq!(t.get(Addr(0x100)), Some(&7));
        assert_eq!(t.get(Addr(0x104)), None);
        assert_eq!(t.insert(Addr(0x100), 9), Some(7));
        assert_eq!(t.remove(Addr(0x100)), Some(9));
        assert!(t.is_empty());
        assert_eq!(t.index_bytes(), 0);
    }

    #[test]
    fn victim_region_avoids_hot_directory() {
        let mut t: PagedShadow<u32> = PagedShadow::new();
        assert_eq!(t.victim_region(), None);
        t.insert(Addr(0x1000), 1);
        t.insert(Addr(0x5000), 2);
        // The last touch cached directory 0x5000; the victim is the other.
        assert_eq!(t.victim_region(), Some((Addr(0x1000), 0x1000)));
        // With only the hot directory resident, it is the fallback victim.
        let (base, len) = t.victim_region().unwrap();
        t.remove_range(base, len, |_, _| {});
        assert_eq!(t.victim_region(), Some((Addr(0x5000), 0x1000)));
    }

    #[test]
    fn word_mode_starts_small_and_expands_on_byte_access() {
        let mut t: PagedShadow<u32> = PagedShadow::new();
        t.insert(Addr(0x100), 1);
        assert_eq!(
            t.index_bytes(),
            paged_dir_bytes(32) + hash_entry_bytes(WORD_SLOTS)
        );
        t.insert(Addr(0x103), 2);
        assert_eq!(
            t.index_bytes(),
            paged_dir_bytes(32) + hash_entry_bytes(BYTE_SLOTS)
        );
        assert_eq!(t.get(Addr(0x100)), Some(&1));
        assert_eq!(t.get(Addr(0x103)), Some(&2));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn unaligned_lookup_in_word_mode_is_none() {
        let mut t: PagedShadow<u32> = PagedShadow::new();
        t.insert(Addr(0x100), 1);
        assert_eq!(t.get(Addr(0x101)), None);
        assert_eq!(t.remove(Addr(0x101)), None);
    }

    #[test]
    fn expansion_is_per_chunk() {
        let mut t: PagedShadow<u32> = PagedShadow::new();
        t.insert(Addr(0x0), 1);
        t.insert(Addr(0x80), 2); // next chunk, same directory
        t.insert(Addr(0x81), 3); // expands only the second chunk
        assert_eq!(
            t.index_bytes(),
            paged_dir_bytes(32) + hash_entry_bytes(WORD_SLOTS) + hash_entry_bytes(BYTE_SLOTS)
        );
        assert_eq!(t.get(Addr(0x0)), Some(&1));
        assert_eq!(t.get(Addr(0x80)), Some(&2));
        assert_eq!(t.get(Addr(0x81)), Some(&3));
        // The word-mode chunk still misses unaligned addresses.
        assert_eq!(t.get(Addr(0x1)), None);
    }

    #[test]
    fn nearest_neighbors_within_and_across_chunks() {
        let mut t: PagedShadow<u32> = PagedShadow::new();
        t.insert(Addr(0x100), 10);
        t.insert(Addr(0x108), 11);
        assert_eq!(
            t.nearest_predecessor(Addr(0x108), 16),
            Some((Addr(0x100), &10))
        );
        assert_eq!(
            t.nearest_successor(Addr(0x100), 16),
            Some((Addr(0x108), &11))
        );
        assert_eq!(t.nearest_predecessor(Addr(0x108), 4), None);
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
        let mut t: PagedShadow<u32> = PagedShadow::new();
        t.insert(Addr(0x0), 1);
        assert_eq!(t.nearest_predecessor(Addr(0x0), 64), None);
        assert_eq!(t.nearest_predecessor(Addr(0x4), 64), Some((Addr(0x0), &1)));
    }

    #[test]
    fn scan_crosses_directory_boundaries() {
        let mut t: PagedShadow<u32> = PagedShadow::new();
        t.insert(Addr(0x10000), 1);
        t.insert(Addr(0x0), 2);
        assert_eq!(
            t.nearest_predecessor(Addr(0x10000), 0x10000),
            Some((Addr(0x0), &2))
        );
        assert_eq!(
            t.nearest_successor(Addr(0x0), 0x10000),
            Some((Addr(0x10000), &1))
        );
    }

    #[test]
    fn the_top_of_the_address_space_is_an_end_not_a_seam() {
        let top = u64::MAX;
        let mut t: PagedShadow<u32> = PagedShadow::new();
        t.insert(Addr(0x100), 1);
        t.insert(Addr(top), 2);
        t.insert(Addr(top - 3), 3);
        // No successor 2^64 bytes "after" the last address (and the scan
        // for one terminates).
        assert_eq!(t.nearest_successor(Addr(top), 8), None);
        assert_eq!(t.nearest_successor(Addr(top), u64::MAX), None);
        assert_eq!(t.nearest_successor(Addr(top - 3), 8), Some((Addr(top), &2)));
        assert_eq!(
            t.nearest_predecessor(Addr(top), 8),
            Some((Addr(top - 3), &3))
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
        let mut t: PagedShadow<u32> = PagedShadow::new();
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
    fn remove_range_across_directories_and_modes() {
        let mut t: PagedShadow<u32> = PagedShadow::new();
        t.insert(Addr(0xffc), 1);
        t.insert(Addr(0x1001), 2); // byte-mode chunk in the next directory
        t.insert(Addr(0x1100), 3);
        let mut n = 0;
        t.remove_range(Addr(0xff0), 0x200, |_, _| n += 1);
        assert_eq!(n, 3);
        assert!(t.is_empty());
        assert_eq!(t.index_bytes(), 0);
    }

    #[test]
    fn hot_cache_survives_directory_recycling() {
        let mut t: PagedShadow<u32> = PagedShadow::new();
        t.insert(Addr(0x1000), 1);
        assert_eq!(t.get(Addr(0x1000)), Some(&1)); // warms the cache
        t.remove(Addr(0x1000)); // frees the directory, must invalidate
        assert_eq!(t.get(Addr(0x1000)), None);
        // A different directory recycles the freed arena slot.
        t.insert(Addr(0x5000), 2);
        assert_eq!(t.get(Addr(0x1000)), None, "stale cache must not alias");
        assert_eq!(t.get(Addr(0x5000)), Some(&2));
    }

    #[test]
    fn for_each_visits_all_cells() {
        let mut t: PagedShadow<u32> = PagedShadow::new();
        t.insert(Addr(0x0), 1);
        t.insert(Addr(0x11), 2);
        t.insert(Addr(0x2024), 3);
        let mut got = Vec::new();
        t.for_each(|a, &v| got.push((a.0, v)));
        got.sort();
        assert_eq!(got, vec![(0x0, 1), (0x11, 2), (0x2024, 3)]);
        t.for_each_mut(|_, v| *v += 10);
        assert_eq!(t.get(Addr(0x11)), Some(&12));
    }
}
