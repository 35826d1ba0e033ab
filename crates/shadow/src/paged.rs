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
//! mode, the expansion between them, lanes), so every observable behaviour
//! — hits, misses, neighbor scans, range removal — is identical between the
//! two stores; this file is only the directory over them.

use std::cell::Cell;

use dgrace_trace::Addr;

use crate::accounting::paged_dir_bytes;
use crate::chunk::{chunk_key, keys_in, low, scan, Chunk, Totals, Victims, CHUNK_SHIFT};
use crate::hash::FastMap;
use crate::store::{ChunkId, ShadowStore};

/// Chunks per directory; a directory spans 4 KiB.
const DIR_CHUNKS: u64 = 32;
const DIR_BITS: u32 = DIR_CHUNKS.trailing_zeros();
const DIR_SHIFT: u32 = CHUNK_SHIFT + DIR_BITS;
/// Modeled bytes of one directory node.
const DIR_BYTES: usize = paged_dir_bytes(DIR_CHUNKS as usize);

#[derive(Debug)]
struct Directory<T, const N: usize> {
    key: u64,
    /// Each lane's cells across all chunks: a lane's directory exists
    /// (and is charged) while it holds one.
    live: [u32; N],
    chunks: [Option<Box<Chunk<T, N>>>; DIR_CHUNKS as usize],
}

/// A two-level direct-mapped shadow store: directory map → chunk array →
/// slot array, with a one-entry hot-directory cache in front.
///
/// Like [`ShadowTable`](crate::ShadowTable), the store tracks each lane's
/// modeled byte footprint (directory nodes + slot arrays) for the `Hash`
/// column of Table 2.
#[derive(Debug)]
pub struct PagedShadow<T, const N: usize = 1> {
    /// Directory key (`addr >> 12`) → index into `dirs`.
    map: FastMap<u64, u32>,
    /// Directory arena; freed slots are recycled through `free`.
    dirs: Vec<Option<Directory<T, N>>>,
    free: Vec<u32>,
    /// Last directory hit: `(key, index into dirs)`. Interior-mutable so
    /// read-only lookups refresh it too; invalidated when the cached
    /// directory is freed. One per store, i.e. one per shard.
    hot: Cell<Option<(u64, u32)>>,
    totals: [Totals; N],
}

impl<T, const N: usize> Default for PagedShadow<T, N> {
    fn default() -> Self {
        PagedShadow {
            map: FastMap::default(),
            dirs: Vec::new(),
            free: Vec::new(),
            hot: Cell::new(None),
            totals: [Totals::default(); N],
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

/// The handle of chunk `ci` of the directory at `di` in the arena.
#[inline]
fn chunk_id(addr: Addr, di: u32, ci: usize) -> ChunkId {
    ChunkId {
        key: chunk_key(addr),
        at: (di as usize) << DIR_BITS | ci,
    }
}

/// The directory arena index and chunk index a handle names.
#[inline]
fn place(at: ChunkId) -> (u32, usize) {
    (
        (at.at >> DIR_BITS) as u32,
        at.at & (DIR_CHUNKS as usize - 1),
    )
}

impl<T, const N: usize> PagedShadow<T, N> {
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
    fn dir(&self, key: u64) -> Option<&Directory<T, N>> {
        let i = self.dir_index(key)?;
        self.dirs[i as usize].as_ref()
    }

    /// The chunk a [`ChunkId`] names.
    #[inline]
    fn chunk_at(&self, at: ChunkId) -> &Chunk<T, N> {
        let (di, ci) = place(at);
        let dir = self.dirs[di as usize].as_ref().expect("mapped directory");
        dir.chunks[ci].as_deref().expect("resident chunk")
    }

    /// Maps an empty directory for `key` and makes it the hot one.
    fn new_dir(&mut self, key: u64) -> u32 {
        let dir = Directory {
            key,
            live: [0; N],
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
        self.hot.set(Some((key, i)));
        i
    }

    fn free_dir(&mut self, key: u64, di: u32) {
        self.dirs[di as usize] = None;
        self.map.remove(&key);
        self.free.push(di);
        if let Some((k, _)) = self.hot.get() {
            if k == key {
                self.hot.set(None);
            }
        }
    }

    /// Runs `op` on chunk `ci` of the directory at `di` and books what it
    /// did to each lane — the store's totals, and the directory's own count
    /// (a lane is charged a directory node while it holds a cell under it).
    /// Then drops the chunk, and the directory, that no lane holds a cell
    /// in any more.
    fn booked<R>(
        &mut self,
        di: u32,
        ci: usize,
        op: impl FnOnce(&mut Chunk<T, N>, &mut [Totals; N]) -> R,
    ) -> R {
        let dir = self.dirs[di as usize].as_mut().expect("mapped directory");
        let slot = &mut dir.chunks[ci];
        let chunk = slot.as_deref_mut().expect("resident chunk");
        let before = chunk.live();
        let out = op(chunk, &mut self.totals);
        let after = chunk.live();
        if chunk.is_empty() {
            *slot = None;
        }
        for (lane, total) in self.totals.iter_mut().enumerate() {
            let had = dir.live[lane] > 0;
            dir.live[lane] = dir.live[lane] + after[lane] as u32 - before[lane] as u32;
            match (had, dir.live[lane] > 0) {
                (false, true) => total.bytes += DIR_BYTES,
                (true, false) => total.bytes -= DIR_BYTES,
                _ => {}
            }
        }
        if dir.live.iter().all(|&n| n == 0) {
            let key = dir.key;
            self.free_dir(key, di);
        }
        out
    }

    /// Every resident chunk with its base address, in ascending address
    /// order: the directories sorted by key, each one's chunks in place.
    fn chunks(&self) -> impl Iterator<Item = (u64, &Chunk<T, N>)> {
        let mut dirs: Vec<&Directory<T, N>> = self.dirs.iter().flatten().collect();
        dirs.sort_unstable_by_key(|dir| dir.key);
        dirs.into_iter().flat_map(|dir| {
            let resident = dir.chunks.iter().enumerate();
            resident.filter_map(|(ci, chunk)| Some((chunk_base(dir.key, ci), chunk.as_deref()?)))
        })
    }
}

impl<T: std::fmt::Debug, const N: usize> ShadowStore<T, N> for PagedShadow<T, N> {
    #[inline]
    fn chunk(&self, addr: Addr) -> Option<ChunkId> {
        let di = self.dir_index(dir_key(addr))?;
        let dir = self.dirs[di as usize].as_ref()?;
        let ci = chunk_index(addr);
        dir.chunks[ci].as_ref()?;
        Some(chunk_id(addr, di, ci))
    }

    #[inline]
    fn chunk_or_insert(&mut self, addr: Addr) -> ChunkId {
        let key = dir_key(addr);
        let di = match self.dir_index(key) {
            Some(i) => i,
            None => self.new_dir(key),
        };
        let dir = self.dirs[di as usize].as_mut().expect("mapped directory");
        let ci = chunk_index(addr);
        dir.chunks[ci].get_or_insert_with(|| Box::new(Chunk::new()));
        chunk_id(addr, di, ci)
    }

    #[inline]
    fn cell(&self, at: ChunkId, lane: usize, addr: Addr) -> Option<&T> {
        debug_assert!(at.holds(addr));
        self.chunk_at(at).get(lane, low(addr))
    }

    #[inline]
    fn entry(&self, at: ChunkId, addr: Addr) -> [Option<&T>; N] {
        debug_assert!(at.holds(addr));
        self.chunk_at(at).entry(low(addr))
    }

    #[inline]
    fn cell_mut(&mut self, at: ChunkId, lane: usize, addr: Addr) -> Option<&mut T> {
        debug_assert!(at.holds(addr));
        let (di, ci) = place(at);
        let dir = self.dirs[di as usize].as_mut().expect("mapped directory");
        let chunk = dir.chunks[ci].as_deref_mut().expect("resident chunk");
        chunk.get_mut(lane, low(addr))
    }

    #[inline]
    fn put(&mut self, at: ChunkId, lane: usize, addr: Addr, value: T) -> Option<T> {
        debug_assert!(at.holds(addr));
        let (di, ci) = place(at);
        self.booked(di, ci, |c, t| c.put(lane, low(addr), value, t))
    }

    /// Drops the chunk — and the directory — when they become empty.
    fn take(&mut self, lane: usize, addr: Addr) -> Option<T> {
        let (di, ci) = place(self.chunk(addr)?);
        self.booked(di, ci, |c, t| c.take(lane, low(addr), t))
    }

    fn drain(&mut self, base: Addr, len: u64, mut f: impl FnMut(Addr, usize, T)) {
        if len == 0 {
            return;
        }
        let last = base.0.saturating_add(len - 1);
        let (first_key, last_key) = (dir_key(base), dir_key(Addr(last)));
        for key in keys_in(first_key, last_key, &self.map) {
            let Some(di) = self.dir_index(key) else {
                continue;
            };
            for ci in 0..DIR_CHUNKS as usize {
                // The directory goes with the last chunk it held.
                let Some(dir) = self.dirs[di as usize].as_ref() else {
                    break;
                };
                if dir.chunks[ci].is_some() {
                    let lo = chunk_base(key, ci);
                    self.booked(di, ci, |c, t| c.drain(lo, base.0, last, t, &mut f));
                }
            }
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
        scan(lane, addr, max_dist, up, |gc| match near {
            Some(at) if at.key == gc => Ok(self.chunk_at(at)),
            _ => match self.dir(gc >> DIR_BITS) {
                // One probe covers an absent directory's whole 4 KiB span —
                // cheaper than the hash table's probe per chunk.
                None if up => Err(gc | (DIR_CHUNKS - 1)),
                None => Err(gc & !(DIR_CHUNKS - 1)),
                Some(dir) => dir.chunks[(gc & (DIR_CHUNKS - 1)) as usize]
                    .as_deref()
                    .ok_or(gc),
            },
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

    /// The lowest directory with no hot cell, else the lowest hot one.
    fn victim_region(
        &self,
        victims: &mut Victims,
        mut hot: impl FnMut(usize, Addr, &T) -> bool,
    ) -> Option<(Addr, u64)> {
        let key = victims.coldest(&self.map, |key| {
            let dir = self.dir(key).expect("a resident key is mapped");
            let mut chunks = dir.chunks.iter().enumerate();
            chunks.any(|(ci, chunk)| {
                let chunk = chunk.as_deref();
                chunk.is_some_and(|c| c.any(chunk_base(key, ci), &mut hot))
            })
        })?;
        Some((Addr(key << DIR_SHIFT), 1u64 << DIR_SHIFT))
    }

    fn lane_for_each(&self, lane: usize, mut f: impl FnMut(Addr, &T)) {
        for (base, chunk) in self.chunks() {
            chunk.for_each(lane, base, &mut f);
        }
    }

    fn lane_byte_mode_chunks(&self, lane: usize) -> Vec<Addr> {
        let byte_mode = self.chunks().filter(|(_, chunk)| chunk.is_byte_mode(lane));
        byte_mode.map(|(base, _)| Addr(base)).collect()
    }

    fn lane_force_byte_mode(&mut self, lane: usize, addr: Addr) {
        if let Some(at) = self.chunk(addr) {
            let (di, ci) = place(at);
            self.booked(di, ci, |c, t| c.expand(lane, t));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accounting::hash_entry_bytes;

    #[test]
    fn victim_region_is_lowest_directory() {
        let victim =
            |t: &PagedShadow<u32>| t.victim_region(&mut Victims::default(), |_, _, _| false);
        let mut t: PagedShadow<u32> = PagedShadow::default();
        assert_eq!(victim(&t), None);
        t.insert(Addr(0x5000), 2);
        t.insert(Addr(0x1000), 1);
        assert_eq!(victim(&t), Some((Addr(0x1000), 0x1000)));
        // A hot lower directory is passed over: one hot cell is enough,
        // in any chunk of it.
        t.insert(Addr(0x1f84), 3);
        let hot = |_: usize, a: Addr, _: &u32| a == Addr(0x1f84);
        assert_eq!(
            t.victim_region(&mut Victims::default(), hot),
            Some((Addr(0x5000), 0x1000))
        );
        // Evicting the victim empties its directory.
        let (base, len) = victim(&t).unwrap();
        t.remove_range(base, len, |_, _| {});
        assert_eq!(victim(&t), Some((Addr(0x5000), 0x1000)));
    }

    /// One eviction loop takes the cold directories in ascending order,
    /// then the hot ones, whatever the hot-directory cache holds.
    #[test]
    fn victim_region_takes_hot_directories_last() {
        let mut t: PagedShadow<u32> = PagedShadow::default();
        for (a, v) in [(0x5000, 1), (0x9000, 0), (0x1000, 1), (0x3000, 0)] {
            t.insert(Addr(a), v);
        }
        let mut victims = Victims::default();
        let mut order = Vec::new();
        while let Some((base, len)) = t.victim_region(&mut victims, |_, _, &v| v == 1) {
            order.push(base.0);
            t.remove_range(base, len, |_, _| {});
        }
        assert_eq!(order, [0x3000, 0x9000, 0x1000, 0x5000]);
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
