//! The [`ShadowStore`] abstraction: what a detector needs from its shadow
//! memory, independent of how locations are indexed.
//!
//! Two implementations exist:
//!
//! * [`ShadowTable`] — the paper's chained hash table (Fig. 4), compact
//!   for sparse address use. It is the only store a detector runs on.
//! * [`PagedShadow`](crate::PagedShadow) — a TSan-style two-level
//!   direct-mapped table (page directory → fixed slot arrays). No detector
//!   runs on it: it stays as a library type for the store-level
//!   measurements and the contract below.
//!
//! Both are directories over the same chunk (`chunk.rs`: word mode, byte
//! mode, the expansion between them, and the lanes of a slot), so an
//! unaligned lookup in a word-mode chunk misses identically in either
//! store; the contract at the bottom of this file holds both to it.
//!
//! The fixed-granularity detectors hold a `ShadowTable` directly. The
//! dynamic detector is generic over [`StoreSelect`], whose one production
//! impl is [`HashSelect`]: that parameter is the seam through which a test
//! puts a wrapping store (one that counts directory probes) under the
//! detector, and it cannot be a plain store type because the detector's
//! slot type is private.

use std::fmt::Debug;

use dgrace_trace::Addr;

use crate::chunk::{chunk_key, Victims};
use crate::table::ShadowTable;

/// A chunk a store has resolved: what one directory probe found for one
/// 128-byte span. Every lookup inside that span can go through it instead
/// of the directory. Valid until the store next creates a chunk
/// ([`chunk_or_insert`](ShadowStore::chunk_or_insert) of an absent one) or
/// drops one (a [`take`](ShadowStore::take) or [`drain`](ShadowStore::drain)
/// that empties it): either may move the directory's entries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkId {
    /// The chunk's number (`addr >> 7`).
    pub(crate) key: u64,
    /// Where the directory keeps it.
    pub(crate) at: usize,
}

impl ChunkId {
    /// Whether `addr` lies in this chunk.
    #[inline]
    pub fn holds(self, addr: Addr) -> bool {
        chunk_key(addr) == self.key
    }
}

/// Shadow memory: `N` **lanes** of cells per location behind one
/// directory.
///
/// A **location** is an access base address after granularity masking.
/// Chunks start in *word mode* (only 4-aligned locations exist;
/// unaligned lookups miss) and expand to *byte mode* on the first
/// unaligned insert, preserving existing cells at `slot * 4`.
///
/// Every fixed-granularity detector has one lane and uses the single-lane
/// forms at the end. The dynamic detector keeps its read and write planes
/// in lanes 0 and 1 — Fig. 4's entry holding a location's read and write
/// clock pointers — so one directory probe finds both. Each lane behaves
/// exactly like a one-lane store of its own cells: its own lookups, scans,
/// counts, word/byte mode and modeled bytes (see `chunk.rs`).
///
/// The hot path resolves a [`ChunkId`] once ([`chunk`](Self::chunk) or
/// [`chunk_or_insert`](Self::chunk_or_insert)) and then reads, writes and
/// inserts any lane of any address inside it with no further probe; a
/// neighbour scan handed the chunk goes back to the directory only for
/// the part of its window outside it.
pub trait ShadowStore<T, const N: usize = 1>: Default + Debug {
    /// The resident chunk holding `addr`: one directory probe.
    fn chunk(&self, addr: Addr) -> Option<ChunkId>;

    /// The chunk holding `addr`, created (holding no cell) if absent: one
    /// directory probe. An empty chunk is dropped by the next
    /// [`take`](Self::take) or [`drain`](Self::drain) that covers it.
    fn chunk_or_insert(&mut self, addr: Addr) -> ChunkId;

    /// `lane`'s cell at `addr`, in the resolved chunk `at` holding `addr`.
    fn cell(&self, at: ChunkId, lane: usize, addr: Addr) -> Option<&T>;

    /// Every lane's cell at `addr` — Fig. 4's entry — in the resolved
    /// chunk `at` holding `addr`.
    fn entry(&self, at: ChunkId, addr: Addr) -> [Option<&T>; N];

    /// `lane`'s cell at `addr` mutably, in the resolved chunk `at`.
    fn cell_mut(&mut self, at: ChunkId, lane: usize, addr: Addr) -> Option<&mut T>;

    /// Stores `value` as `lane`'s cell at `addr` in the resolved chunk
    /// `at`, expanding the lane to byte mode when `addr` is unaligned.
    /// Returns the previous cell, if any.
    fn put(&mut self, at: ChunkId, lane: usize, addr: Addr, value: T) -> Option<T>;

    /// Removes `lane`'s cell at `addr`, dropping the chunk when no lane
    /// holds a cell in it any more. Unaligned addresses of a lane in word
    /// mode remove nothing.
    fn take(&mut self, lane: usize, addr: Addr) -> Option<T>;

    /// Removes every cell of every lane with address in `[base, base+len)`,
    /// invoking `f` on each removed `(addr, lane, cell)` — used when a
    /// block is freed. Each lane's cells come in ascending address order.
    /// A range that runs past the top of the address space ends there;
    /// the walk costs the smaller of the range and the store.
    fn drain(&mut self, base: Addr, len: u64, f: impl FnMut(Addr, usize, T));

    /// The nearest location strictly above (`up`) or below `addr` where
    /// `lane` holds a cell, scanning at most `max_dist` bytes. `near`, a
    /// chunk resolved earlier, is read without the directory.
    fn nearest(
        &self,
        lane: usize,
        addr: Addr,
        max_dist: u64,
        up: bool,
        near: Option<ChunkId>,
    ) -> Option<(Addr, &T)>;

    /// Number of `lane`'s cells.
    fn lane_len(&self, lane: usize) -> usize;

    /// Modeled bytes of `lane`'s index, as if it were a store of its own
    /// (the Table 2 `Hash` column; for the paged store, directory headers
    /// + slot arrays).
    fn lane_bytes(&self, lane: usize) -> usize;

    /// Applies `f` to every cell of `lane`, in unspecified order.
    fn lane_for_each(&self, lane: usize, f: impl FnMut(Addr, &T));

    /// Base addresses of the chunks where `lane` is in byte mode, in
    /// ascending order. Together with the lane's cells this fully
    /// determines its index structure, so snapshot restore can rebuild a
    /// store whose modeled footprint and lookup behaviour match the
    /// original exactly.
    fn lane_byte_mode_chunks(&self, lane: usize) -> Vec<Addr>;

    /// Puts `lane` of the chunk containing `addr` in byte mode, preserving
    /// existing cells exactly as an unaligned insert would. No-op when the
    /// lane holds no cell there or is already expanded.
    fn lane_force_byte_mode(&mut self, lane: usize, addr: Addr);

    /// Picks a victim region for memory-budget eviction: the byte span of
    /// the lowest resident backing region (a chunk, or a directory of
    /// them), avoiding the most recently touched one where the store
    /// tracks it. Returns `None` when empty. The choice is deterministic
    /// for a given store state, so budget-degraded runs are reproducible;
    /// the caller evicts with [`ShadowStore::drain`], and hands every call
    /// of one eviction loop the same `victims` (`Victims::default()` at
    /// the loop's start, nothing inserted until its end) so the store
    /// orders its regions once per loop.
    fn victim_region(&self, victims: &mut Victims) -> Option<(Addr, u64)>;

    /// `lane`'s cell at `addr`, through the directory.
    fn get_in(&self, lane: usize, addr: Addr) -> Option<&T> {
        self.cell(self.chunk(addr)?, lane, addr)
    }

    // The single-lane forms: lane 0, all there is of a one-lane store.

    /// Looks up the cell for `addr`.
    fn get(&self, addr: Addr) -> Option<&T> {
        self.get_in(0, addr)
    }

    /// Looks up the cell for `addr` mutably.
    fn get_mut(&mut self, addr: Addr) -> Option<&mut T> {
        let at = self.chunk(addr)?;
        self.cell_mut(at, 0, addr)
    }

    /// Inserts a cell for `addr`, creating or expanding the chunk as
    /// needed. Returns the previous cell, if any.
    fn insert(&mut self, addr: Addr, value: T) -> Option<T> {
        let at = self.chunk_or_insert(addr);
        self.put(at, 0, addr, value)
    }

    /// Removes the cell at `addr`, releasing chunk storage when it becomes
    /// empty. Unaligned addresses in word-mode chunks remove nothing.
    fn remove(&mut self, addr: Addr) -> Option<T> {
        self.take(0, addr)
    }

    /// [`drain`](Self::drain) without the lane.
    fn remove_range(&mut self, base: Addr, len: u64, mut f: impl FnMut(Addr, T)) {
        self.drain(base, len, |addr, _, cell| f(addr, cell));
    }

    /// The nearest populated location strictly below `addr`, scanning at
    /// most `max_dist` bytes back.
    fn nearest_predecessor(&self, addr: Addr, max_dist: u64) -> Option<(Addr, &T)> {
        self.nearest(0, addr, max_dist, false, None)
    }

    /// The nearest populated location strictly above `addr`, scanning at
    /// most `max_dist` bytes forward.
    fn nearest_successor(&self, addr: Addr, max_dist: u64) -> Option<(Addr, &T)> {
        self.nearest(0, addr, max_dist, true, None)
    }

    /// Number of populated cells.
    fn len(&self) -> usize {
        self.lane_len(0)
    }

    /// Returns `true` if no cells are populated.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Modeled bytes of the indexing structure.
    fn index_bytes(&self) -> usize {
        self.lane_bytes(0)
    }

    /// Applies `f` to every populated cell, in unspecified order.
    fn for_each(&self, f: impl FnMut(Addr, &T)) {
        self.lane_for_each(0, f);
    }

    /// Base addresses of chunks currently in byte mode, in ascending
    /// order.
    fn byte_mode_chunks(&self) -> Vec<Addr> {
        self.lane_byte_mode_chunks(0)
    }

    /// Forces the chunk containing `addr` into byte mode. No-op when the
    /// chunk is absent or already expanded.
    fn force_byte_mode(&mut self, addr: Addr) {
        self.lane_force_byte_mode(0, addr);
    }
}

/// Zero-sized selector of the dynamic detector's shadow store.
///
/// The dynamic detector's cell type is private, so its store cannot be a
/// type parameter of its own; a selector names a store that can be
/// instantiated at any cell type instead. [`HashSelect`] is the one
/// production impl. The parameter stays so a test can put a wrapping
/// store under the detector (`crates/core/tests/probe_count.rs` counts
/// directory probes that way).
pub trait StoreSelect: Debug + Default + Send + Sync + 'static {
    /// The store this selector picks, with `N` lanes per location,
    /// instantiable at any cell type.
    type Store<T: Debug + Send, const N: usize>: ShadowStore<T, N> + Debug + Send;
}

/// Selects the chained-hash [`ShadowTable`].
#[derive(Debug, Default)]
pub struct HashSelect;

impl StoreSelect for HashSelect {
    type Store<T: Debug + Send, const N: usize> = ShadowTable<T, N>;
}

/// The store contract: every behaviour a detector can observe through
/// [`ShadowStore`], asserted once and run on both stores.
#[cfg(test)]
mod contract {
    use super::*;
    use crate::accounting::{hash_entry_bytes, paged_dir_bytes};
    use crate::paged::PagedShadow;

    fn insert_get_remove_word_aligned<S: ShadowStore<u32>>() {
        let mut t = S::default();
        assert!(t.insert(Addr(0x100), 7).is_none());
        assert_eq!(t.get(Addr(0x100)), Some(&7));
        assert_eq!(t.get(Addr(0x104)), None);
        assert_eq!(t.insert(Addr(0x100), 9), Some(7));
        assert_eq!(t.remove(Addr(0x100)), Some(9));
        assert!(t.is_empty());
        assert_eq!(t.index_bytes(), 0);
    }

    /// `dir_bytes` is what the store charges for finding one resident
    /// chunk, on top of the chunk itself.
    fn word_mode_starts_small_and_expands_on_byte_access<S: ShadowStore<u32>>(dir_bytes: usize) {
        let mut t = S::default();
        t.insert(Addr(0x100), 1);
        // word mode: 32 slots
        assert_eq!(t.index_bytes(), dir_bytes + hash_entry_bytes(32));
        // An unaligned access expands the chunk to 128 slots...
        t.insert(Addr(0x103), 2);
        assert_eq!(t.index_bytes(), dir_bytes + hash_entry_bytes(128));
        // ...and preserves the existing cell.
        assert_eq!(t.get(Addr(0x100)), Some(&1));
        assert_eq!(t.get(Addr(0x103)), Some(&2));
        assert_eq!(t.len(), 2);
        // A chunk whose first cell is unaligned is created expanded.
        t.insert(Addr(0x201), 3);
        assert_eq!(t.index_bytes(), dir_bytes + 2 * hash_entry_bytes(128));
    }

    fn unaligned_lookup_in_word_mode_is_none<S: ShadowStore<u32>>() {
        let mut t = S::default();
        t.insert(Addr(0x100), 1);
        assert_eq!(t.get(Addr(0x101)), None);
        assert_eq!(t.remove(Addr(0x101)), None);
    }

    /// The first unaligned insert expands its own chunk only: while a
    /// chunk is in word mode an unaligned lookup or remove misses, the
    /// expansion keeps every aligned cell, a chunk elsewhere stays in word
    /// mode, and neighbour scans read across the mix.
    fn expansion_is_per_chunk<S: ShadowStore<u32>>() {
        let mut t = S::default();
        let base = 0x2000u64;
        for i in 0..8u64 {
            t.insert(Addr(base + i * 4), i as u32);
        }
        for probe in [base + 1, base + 2, base + 7, base + 13] {
            assert_eq!(t.get(Addr(probe)), None, "{probe:#x}");
        }
        assert_eq!(t.remove(Addr(base + 2)), None);

        t.insert(Addr(base + 2), 99);
        for i in 0..8u64 {
            assert_eq!(t.get(Addr(base + i * 4)), Some(&(i as u32)));
        }
        assert_eq!(t.get(Addr(base + 2)), Some(&99));
        assert_eq!(t.len(), 9);

        let far = base + 0x4000;
        t.insert(Addr(far), 1);
        assert_eq!(t.get(Addr(far + 3)), None);

        assert_eq!(
            t.nearest_predecessor(Addr(base + 6), 64),
            Some((Addr(base + 4), &1))
        );
        assert_eq!(
            t.nearest_successor(Addr(base + 6), 64),
            Some((Addr(base + 8), &2))
        );
        assert_eq!(
            t.nearest_predecessor(Addr(base + 16), 64),
            Some((Addr(base + 12), &3))
        );
        assert_eq!(
            t.nearest_successor(Addr(base + 16), 64),
            Some((Addr(base + 20), &5))
        );
        assert_eq!(
            t.nearest_predecessor(Addr(far + 4), 64),
            Some((Addr(far), &1))
        );
        assert_eq!(t.nearest_successor(Addr(far + 4), 64), None);
    }

    fn nearest_neighbors_within_and_across_chunks<S: ShadowStore<u32>>() {
        let mut t = S::default();
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

    fn predecessor_stops_at_zero<S: ShadowStore<u32>>() {
        let mut t = S::default();
        t.insert(Addr(0x0), 1);
        assert_eq!(t.nearest_predecessor(Addr(0x0), 64), None);
        assert_eq!(t.nearest_predecessor(Addr(0x4), 64), Some((Addr(0x0), &1)));
    }

    fn the_top_of_the_address_space_is_an_end_not_a_seam<S: ShadowStore<u32>>() {
        let top = u64::MAX;
        let mut t = S::default();
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
        let mut high = Vec::new();
        t.for_each(|a, _| {
            if a.0 >= top - 3 {
                high.push(a)
            }
        });
        high.sort();
        assert_eq!(high, vec![Addr(top - 3), Addr(top)]);
        // A freed range that runs past the top ends there.
        let mut removed = Vec::new();
        t.remove_range(Addr(top - 3), 64, |a, v| removed.push((a, v)));
        assert_eq!(removed, vec![(Addr(top - 3), 3), (Addr(top), 2)]);
        assert_eq!(t.get(Addr(0x100)), Some(&1));
        assert_eq!(t.len(), 1);
    }

    fn remove_range_frees_blocks<S: ShadowStore<u32>>() {
        let mut t = S::default();
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

    /// Across a 128-byte chunk seam (`0x80`) and across a 4 KiB directory
    /// seam (`0x1000`), each with a byte-mode chunk on the far side.
    fn remove_range_across_seams_and_modes<S: ShadowStore<u32>>() {
        for (cells, base, len) in [
            ([0x7c, 0x81, 0x100], 0x70, 0x100),
            ([0xffc, 0x1001, 0x1100], 0xff0, 0x200),
        ] {
            let mut t = S::default();
            for (i, a) in cells.into_iter().enumerate() {
                t.insert(Addr(a), i as u32 + 1);
            }
            let mut n = 0;
            t.remove_range(Addr(base), len, |_, _| n += 1);
            assert_eq!(n, 3);
            assert!(t.is_empty());
            assert_eq!(t.index_bytes(), 0);
        }
    }

    fn for_each_visits_all_cells<S: ShadowStore<u32>>() {
        let mut t = S::default();
        t.insert(Addr(0x0), 1);
        t.insert(Addr(0x11), 2);
        t.insert(Addr(0x24), 3);
        t.insert(Addr(0x2024), 4);
        let mut got = Vec::new();
        t.for_each(|a, &v| got.push((a.0, v)));
        got.sort();
        assert_eq!(got, vec![(0x0, 1), (0x11, 2), (0x24, 3), (0x2024, 4)]);
    }

    /// A `Free` costs the store, not the address range: the widest one
    /// there is drains a three-cell store in ascending order and returns.
    /// Probing the range key by key does not finish, so the call runs on
    /// a thread this one gives up waiting for.
    fn a_free_of_the_whole_address_space_returns<S: ShadowStore<u32> + Send + 'static>() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut t = S::default();
            t.insert(Addr(u64::MAX - 4), 3);
            t.insert(Addr(0x2001), 2);
            t.insert(Addr(0x10), 1);
            let mut removed = Vec::new();
            t.remove_range(Addr(0), u64::MAX, |a, v| removed.push((a, v)));
            // `[0, u64::MAX)` ends one byte short of the top.
            t.insert(Addr(u64::MAX), 4);
            t.remove_range(Addr(1), u64::MAX, |a, v| removed.push((a, v)));
            tx.send((removed, t.len(), t.index_bytes())).ok();
        });
        let (removed, len, bytes) = rx
            .recv_timeout(std::time::Duration::from_secs(20))
            .expect("remove_range walks the resident chunks, not the address range");
        assert_eq!(
            removed,
            vec![
                (Addr(0x10), 1),
                (Addr(0x2001), 2),
                (Addr(u64::MAX - 4), 3),
                (Addr(u64::MAX), 4)
            ]
        );
        assert_eq!((len, bytes), (0, 0));
    }

    macro_rules! contract {
        ($($name:ident: $store:ty, $dir_bytes:expr;)*) => {$(
            mod $name {
                use super::*;

                #[test]
                fn insert_get_remove_word_aligned() {
                    super::insert_get_remove_word_aligned::<$store>();
                }
                #[test]
                fn word_mode_starts_small_and_expands_on_byte_access() {
                    super::word_mode_starts_small_and_expands_on_byte_access::<$store>($dir_bytes);
                }
                #[test]
                fn unaligned_lookup_in_word_mode_is_none() {
                    super::unaligned_lookup_in_word_mode_is_none::<$store>();
                }
                #[test]
                fn expansion_is_per_chunk() {
                    super::expansion_is_per_chunk::<$store>();
                }
                #[test]
                fn nearest_neighbors_within_and_across_chunks() {
                    super::nearest_neighbors_within_and_across_chunks::<$store>();
                }
                #[test]
                fn predecessor_stops_at_zero() {
                    super::predecessor_stops_at_zero::<$store>();
                }
                #[test]
                fn the_top_of_the_address_space_is_an_end_not_a_seam() {
                    super::the_top_of_the_address_space_is_an_end_not_a_seam::<$store>();
                }
                #[test]
                fn remove_range_frees_blocks() {
                    super::remove_range_frees_blocks::<$store>();
                }
                #[test]
                fn remove_range_across_seams_and_modes() {
                    super::remove_range_across_seams_and_modes::<$store>();
                }
                #[test]
                fn for_each_visits_all_cells() {
                    super::for_each_visits_all_cells::<$store>();
                }
                #[test]
                fn a_free_of_the_whole_address_space_returns() {
                    super::a_free_of_the_whole_address_space_returns::<$store>();
                }
            }
        )*};
    }

    contract! {
        hash: ShadowTable<u32>, 0;
        paged: PagedShadow<u32>, paged_dir_bytes(32);
    }
}
