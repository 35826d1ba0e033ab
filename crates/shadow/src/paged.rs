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
//! The chunks are the hash table's ([`Chunk`], Fig. 4: word mode, byte
//! mode, the expansion between them), so every observable behaviour —
//! hits, misses, neighbor scans, range removal — is identical between the
//! two stores; this file is only the directory over them.

use std::cell::Cell;

use dgrace_trace::Addr;

use crate::accounting::paged_dir_bytes;
use crate::chunk::{
    chunk_key, keys_in, low, scan, Chunk, Victims, CHUNK_SHIFT, EXPANSION_BYTES, NEW_CHUNK_BYTES,
};
use crate::hash::FastMap;
use crate::store::ShadowStore;

/// Chunks per directory; a directory spans 4 KiB.
const DIR_CHUNKS: u64 = 32;
const DIR_BITS: u32 = DIR_CHUNKS.trailing_zeros();
const DIR_SHIFT: u32 = CHUNK_SHIFT + DIR_BITS;
/// Modeled bytes of one directory node.
const DIR_BYTES: usize = paged_dir_bytes(DIR_CHUNKS as usize);

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
        PagedShadow {
            map: FastMap::default(),
            dirs: Vec::new(),
            free: Vec::new(),
            hot: Cell::new(None),
            live: 0,
            bytes: 0,
        }
    }
}

#[inline]
fn dir_key(addr: Addr) -> u64 {
    addr.0 >> DIR_SHIFT
}

/// Index of `addr`'s chunk within its directory.
#[inline]
fn chunk_index(addr: Addr) -> usize {
    (chunk_key(addr) & (DIR_CHUNKS - 1)) as usize
}

/// Base address of chunk `ci` of directory `key`.
#[inline]
fn chunk_base(key: u64, ci: usize) -> u64 {
    (key << DIR_SHIFT) + ((ci as u64) << CHUNK_SHIFT)
}

impl<T> PagedShadow<T> {
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

    #[inline]
    fn chunk_mut(&mut self, addr: Addr) -> Option<&mut Chunk<T>> {
        let i = self.dir_index(dir_key(addr))?;
        let dir = self.dirs[i as usize].as_mut()?;
        dir.chunks[chunk_index(addr)].as_deref_mut()
    }

    /// Maps an empty directory for `key` and makes it the hot one.
    fn new_dir(&mut self, key: u64) -> u32 {
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
        self.bytes += DIR_BYTES;
        self.hot.set(Some((key, i)));
        i
    }

    fn free_dir(&mut self, key: u64, di: u32) {
        self.dirs[di as usize] = None;
        self.map.remove(&key);
        self.free.push(di);
        self.bytes -= DIR_BYTES;
        if let Some((k, _)) = self.hot.get() {
            if k == key {
                self.hot.set(None);
            }
        }
    }

    /// Every resident chunk with its base address, in arena order.
    fn chunks(&self) -> impl Iterator<Item = (u64, &Chunk<T>)> {
        self.dirs.iter().flatten().flat_map(|dir| {
            let resident = dir.chunks.iter().enumerate();
            resident.filter_map(|(ci, chunk)| Some((chunk_base(dir.key, ci), chunk.as_deref()?)))
        })
    }

    fn scan(&self, addr: Addr, max_dist: u64, up: bool) -> Option<(Addr, &T)> {
        scan(addr, max_dist, up, |gc| match self.dir(gc >> DIR_BITS) {
            // One probe covers an absent directory's whole 4 KiB span —
            // cheaper than the hash table's probe per chunk.
            None if up => Err(gc | (DIR_CHUNKS - 1)),
            None => Err(gc & !(DIR_CHUNKS - 1)),
            Some(dir) => dir.chunks[(gc & (DIR_CHUNKS - 1)) as usize]
                .as_deref()
                .ok_or(gc),
        })
    }
}

impl<T: std::fmt::Debug> ShadowStore<T> for PagedShadow<T> {
    #[inline]
    fn get(&self, addr: Addr) -> Option<&T> {
        let dir = self.dir(dir_key(addr))?;
        dir.chunks[chunk_index(addr)].as_ref()?.get(low(addr))
    }

    #[inline]
    fn get_mut(&mut self, addr: Addr) -> Option<&mut T> {
        self.chunk_mut(addr)?.get_mut(low(addr))
    }

    #[inline]
    fn insert(&mut self, addr: Addr, value: T) -> Option<T> {
        let key = dir_key(addr);
        let di = match self.dir_index(key) {
            Some(i) => i,
            None => self.new_dir(key),
        };
        let dir = self.dirs[di as usize].as_mut().expect("mapped directory");
        let bytes = &mut self.bytes;
        let chunk = dir.chunks[chunk_index(addr)].get_or_insert_with(|| {
            *bytes += NEW_CHUNK_BYTES;
            Box::new(Chunk::new())
        });
        let (prev, expanded) = chunk.put(low(addr), value);
        if expanded {
            self.bytes += EXPANSION_BYTES;
        }
        if prev.is_none() {
            dir.live += 1;
            self.live += 1;
        }
        prev
    }

    /// Drops the chunk — and the directory — when they become empty.
    fn remove(&mut self, addr: Addr) -> Option<T> {
        let key = dir_key(addr);
        let di = self.dir_index(key)?;
        let dir = self.dirs[di as usize].as_mut()?;
        let slot = &mut dir.chunks[chunk_index(addr)];
        let chunk = slot.as_mut()?;
        let removed = chunk.take(low(addr))?;
        dir.live -= 1;
        self.live -= 1;
        if chunk.is_empty() {
            self.bytes -= chunk.bytes();
            *slot = None;
        }
        if dir.live == 0 {
            self.free_dir(key, di);
        }
        Some(removed)
    }

    fn remove_range(&mut self, base: Addr, len: u64, mut f: impl FnMut(Addr, T)) {
        if len == 0 {
            return;
        }
        let last = base.0.saturating_add(len - 1);
        let (first_key, last_key) = (dir_key(base), dir_key(Addr(last)));
        for key in keys_in(first_key, last_key, &self.map) {
            let Some(di) = self.dir_index(key) else {
                continue;
            };
            let dir = self.dirs[di as usize].as_mut().expect("mapped directory");
            for (ci, slot) in dir.chunks.iter_mut().enumerate() {
                let Some(chunk) = slot else {
                    continue;
                };
                let removed = chunk.drain(chunk_base(key, ci), base.0, last, &mut f);
                dir.live -= removed as u32;
                self.live -= removed;
                if chunk.is_empty() {
                    self.bytes -= chunk.bytes();
                    *slot = None;
                }
            }
            if dir.live == 0 {
                self.free_dir(key, di);
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

    /// The lowest-keyed resident directory that is *not* the hot-cached
    /// one (the one most recently touched), falling back to the hot
    /// directory when it is the only resident.
    fn victim_region(&self, victims: &mut Victims) -> Option<(Addr, u64)> {
        let hot_key = self.hot.get().map(|(k, _)| k);
        let key = victims.lowest(&self.map, hot_key)?;
        Some((Addr(key << DIR_SHIFT), 1u64 << DIR_SHIFT))
    }

    fn for_each(&self, mut f: impl FnMut(Addr, &T)) {
        for (base, chunk) in self.chunks() {
            chunk.for_each(base, &mut f);
        }
    }

    fn byte_mode_chunks(&self) -> Vec<Addr> {
        let byte_mode = self.chunks().filter(|(_, chunk)| chunk.is_byte_mode());
        let mut out: Vec<Addr> = byte_mode.map(|(base, _)| Addr(base)).collect();
        out.sort_unstable();
        out
    }

    fn force_byte_mode(&mut self, addr: Addr) {
        if self.chunk_mut(addr).is_some_and(Chunk::expand) {
            self.bytes += EXPANSION_BYTES;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accounting::hash_entry_bytes;

    #[test]
    fn victim_region_avoids_hot_directory() {
        let victim = |t: &PagedShadow<u32>| t.victim_region(&mut Victims::default());
        let mut t: PagedShadow<u32> = PagedShadow::default();
        assert_eq!(victim(&t), None);
        t.insert(Addr(0x1000), 1);
        t.insert(Addr(0x5000), 2);
        // The last touch cached directory 0x5000; the victim is the other.
        assert_eq!(victim(&t), Some((Addr(0x1000), 0x1000)));
        // With only the hot directory resident, it is the fallback victim.
        let (base, len) = victim(&t).unwrap();
        t.remove_range(base, len, |_, _| {});
        assert_eq!(victim(&t), Some((Addr(0x5000), 0x1000)));
    }

    /// Within one eviction loop the hot directory is passed over only
    /// while it is hot: evicting any other directory clears the cache,
    /// and the lowest key is the victim again even though the sorted
    /// walk has already gone past it.
    #[test]
    fn victim_region_returns_to_a_directory_it_passed_over_while_hot() {
        let mut t: PagedShadow<u32> = PagedShadow::default();
        for a in [0x5000, 0x9000, 0x1000] {
            t.insert(Addr(a), 0);
        }
        let mut victims = Victims::default();
        let mut order = Vec::new();
        while let Some((base, len)) = t.victim_region(&mut victims) {
            order.push(base.0);
            t.remove_range(base, len, |_, _| {});
        }
        assert_eq!(order, [0x5000, 0x1000, 0x9000]);
    }

    #[test]
    fn expansion_is_per_chunk() {
        let mut t: PagedShadow<u32> = PagedShadow::default();
        t.insert(Addr(0x0), 1);
        t.insert(Addr(0x80), 2); // next chunk, same directory
        t.insert(Addr(0x81), 3); // expands only the second chunk
        assert_eq!(
            t.index_bytes(),
            paged_dir_bytes(32) + hash_entry_bytes(32) + hash_entry_bytes(128)
        );
        assert_eq!(t.get(Addr(0x0)), Some(&1));
        assert_eq!(t.get(Addr(0x80)), Some(&2));
        assert_eq!(t.get(Addr(0x81)), Some(&3));
        // The word-mode chunk still misses unaligned addresses.
        assert_eq!(t.get(Addr(0x1)), None);
    }

    #[test]
    fn scan_crosses_directory_boundaries() {
        let mut t: PagedShadow<u32> = PagedShadow::default();
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
    fn hot_cache_survives_directory_recycling() {
        let mut t: PagedShadow<u32> = PagedShadow::default();
        t.insert(Addr(0x1000), 1);
        assert_eq!(t.get(Addr(0x1000)), Some(&1)); // warms the cache
        t.remove(Addr(0x1000)); // frees the directory, must invalidate
        assert_eq!(t.get(Addr(0x1000)), None);
        // A different directory recycles the freed arena slot.
        t.insert(Addr(0x5000), 2);
        assert_eq!(t.get(Addr(0x1000)), None, "stale cache must not alias");
        assert_eq!(t.get(Addr(0x5000)), Some(&2));
    }
}
