//! The chunk of Fig. 4, written once.
//!
//! A chunk covers [`CHUNK_BYTES`] consecutive addresses (the paper's
//! m = 128) with an array of cell slots. It starts in **word mode** —
//! `m/4` slots, one per 4-aligned address, "since the most common access
//! pattern is word access" — and is expanded to **byte mode** (`m` slots,
//! one per address) by the first unaligned insert, existing cells moving
//! to `slot * 4`. While it is in word mode an unaligned address does not
//! exist: lookups and removals of one miss.
//!
//! Everything that happens *inside* a chunk lives here; the two stores
//! ([`ShadowTable`](crate::ShadowTable), [`PagedShadow`](crate::PagedShadow))
//! are two directories over it — how a chunk is found, created, dropped,
//! skipped over when absent, accounted and chosen for eviction — plus the
//! three drivers below that walk a directory chunk by chunk ([`scan`],
//! [`keys_in`], [`Victims`]).

use std::iter::Chain;
use std::ops::{Range, RangeInclusive};

use dgrace_trace::Addr;

use crate::accounting::hash_entry_bytes;
use crate::hash::FastMap;

/// Bytes covered by one chunk: the paper's m. A constant, not a field —
/// both stores, the snapshot format (`byte_mode_chunks`) and the modeled
/// `Hash` column are defined at 128.
pub(crate) const CHUNK_BYTES: u64 = 128;
pub(crate) const CHUNK_SHIFT: u32 = CHUNK_BYTES.trailing_zeros();

const WORD_SLOTS: usize = CHUNK_BYTES as usize / 4;
const BYTE_SLOTS: usize = CHUNK_BYTES as usize;

/// Modeled bytes of a chunk as created (word mode).
pub(crate) const NEW_CHUNK_BYTES: usize = hash_entry_bytes(WORD_SLOTS);
/// Modeled bytes an expansion adds to its chunk.
pub(crate) const EXPANSION_BYTES: usize = hash_entry_bytes(BYTE_SLOTS) - NEW_CHUNK_BYTES;

/// The global number of the chunk holding `addr` (its upper bits).
#[inline]
pub(crate) fn chunk_key(addr: Addr) -> u64 {
    addr.0 >> CHUNK_SHIFT
}

/// The offset of `addr` within its chunk (its lower bits).
#[inline]
pub(crate) fn low(addr: Addr) -> usize {
    (addr.0 & (CHUNK_BYTES - 1)) as usize
}

#[derive(Clone, Debug)]
pub(crate) struct Chunk<T> {
    /// `m/4` slots in word mode, `m` slots in byte mode.
    slots: Vec<Option<T>>,
    byte_mode: bool,
    /// Populated slots (O(1) emptiness checks on removal).
    live: u32,
}

impl<T> Chunk<T> {
    /// "When a new hash entry is created, it starts with an array of m/4
    /// pointers since the most common access pattern is word access."
    pub(crate) fn new() -> Self {
        Chunk {
            slots: (0..WORD_SLOTS).map(|_| None).collect(),
            byte_mode: false,
            live: 0,
        }
    }

    #[inline]
    fn stride(&self) -> u64 {
        if self.byte_mode {
            1
        } else {
            4
        }
    }

    /// Slot index of the in-chunk offset `low`, or `None` if the offset
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

    #[inline]
    pub(crate) fn get(&self, low: usize) -> Option<&T> {
        self.slots[self.slot_of(low)?].as_ref()
    }

    #[inline]
    pub(crate) fn get_mut(&mut self, low: usize) -> Option<&mut T> {
        let slot = self.slot_of(low)?;
        self.slots[slot].as_mut()
    }

    /// Stores `value` at offset `low`, expanding the chunk first when the
    /// offset is unaligned and the chunk in word mode. Returns the
    /// previous cell and whether the chunk expanded, so the store can
    /// book [`EXPANSION_BYTES`].
    #[inline]
    pub(crate) fn put(&mut self, low: usize, value: T) -> (Option<T>, bool) {
        let expanded = !self.byte_mode && !low.is_multiple_of(4);
        if expanded {
            self.expand();
        }
        let slot = if self.byte_mode { low } else { low / 4 };
        let prev = self.slots[slot].replace(value);
        if prev.is_none() {
            self.live += 1;
        }
        (prev, expanded)
    }

    /// Removes the cell at offset `low`.
    pub(crate) fn take(&mut self, low: usize) -> Option<T> {
        let slot = self.slot_of(low)?;
        let cell = self.slots[slot].take()?;
        self.live -= 1;
        Some(cell)
    }

    /// "When a byte access is detected, the array is expanded to have m
    /// pointers." Returns `false` when the chunk already was in byte mode.
    #[cold]
    pub(crate) fn expand(&mut self) -> bool {
        if self.byte_mode {
            return false;
        }
        let mut slots: Vec<Option<T>> = (0..BYTE_SLOTS).map(|_| None).collect();
        for (i, cell) in self.slots.drain(..).enumerate() {
            slots[i * 4] = cell;
        }
        self.slots = slots;
        self.byte_mode = true;
        true
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.live == 0
    }

    pub(crate) fn is_byte_mode(&self) -> bool {
        self.byte_mode
    }

    /// Modeled bytes of the chunk (entry header + slot array).
    pub(crate) fn bytes(&self) -> usize {
        hash_entry_bytes(self.slots.len())
    }

    /// The slots whose addresses lie in `[lo, hi]`, rounded inward, for
    /// the chunk at `chunk_base`; empty when the two do not meet.
    #[inline]
    fn window(&self, chunk_base: u64, lo: u64, hi: u64) -> Range<usize> {
        let from = lo.max(chunk_base);
        let to = hi.min(chunk_base + (CHUNK_BYTES - 1));
        if from > to {
            return 0..0;
        }
        let stride = self.stride();
        let first = (from - chunk_base).div_ceil(stride) as usize;
        let last = ((to - chunk_base) / stride) as usize;
        first..last + 1
    }

    /// The populated address of this chunk nearest to `lo` (`up`) or to
    /// `hi` (down) within `[lo, hi]`: one probe per *slot*, not per byte.
    #[inline]
    pub(crate) fn nearest(
        &self,
        chunk_base: u64,
        lo: u64,
        hi: u64,
        up: bool,
    ) -> Option<(Addr, &T)> {
        let window = self.window(chunk_base, lo, hi);
        let first = window.start;
        let slots = &self.slots[window];
        let hit = if up {
            slots.iter().position(Option::is_some)
        } else {
            slots.iter().rposition(Option::is_some)
        }?;
        let addr = Addr(chunk_base + (first + hit) as u64 * self.stride());
        slots[hit].as_ref().map(|cell| (addr, cell))
    }

    /// Removes every cell with address in `[lo, hi]`, handing each to `f`
    /// in ascending address order. Returns how many were removed.
    pub(crate) fn drain(
        &mut self,
        chunk_base: u64,
        lo: u64,
        hi: u64,
        f: &mut impl FnMut(Addr, T),
    ) -> usize {
        let stride = self.stride();
        let window = self.window(chunk_base, lo, hi);
        let first = window.start;
        let mut removed = 0;
        for (i, slot) in self.slots[window].iter_mut().enumerate() {
            if let Some(cell) = slot.take() {
                removed += 1;
                f(Addr(chunk_base + (first + i) as u64 * stride), cell);
            }
        }
        self.live -= removed as u32;
        removed
    }

    /// Applies `f` to every populated cell, in ascending address order.
    pub(crate) fn for_each(&self, chunk_base: u64, f: &mut impl FnMut(Addr, &T)) {
        let stride = self.stride();
        for (slot, cell) in self.slots.iter().enumerate() {
            if let Some(cell) = cell {
                f(Addr(chunk_base + slot as u64 * stride), cell);
            }
        }
    }
}

/// The nearest populated location strictly above (`up`) or below `addr`,
/// at most `max_dist` bytes away: the scan window is clamped to the
/// address space once, then walked chunk by chunk outward from `addr`.
///
/// `find(key)` is the directory: the chunk numbered `key`, or — when it
/// is absent — the last key in scan direction the directory knows to be
/// absent with it (`key` itself when it knows no more), which the walk
/// then skips to.
#[inline]
pub(crate) fn scan<'a, T: 'a>(
    addr: Addr,
    max_dist: u64,
    up: bool,
    find: impl Fn(u64) -> Result<&'a Chunk<T>, u64>,
) -> Option<(Addr, &'a T)> {
    if max_dist == 0 {
        return None;
    }
    // Nothing lies beyond either end of the address space.
    let (lo, hi) = if up {
        (addr.0.checked_add(1)?, addr.0.saturating_add(max_dist))
    } else {
        (addr.0.saturating_sub(max_dist), addr.0.checked_sub(1)?)
    };
    let (mut key, last) = if up {
        (lo >> CHUNK_SHIFT, hi >> CHUNK_SHIFT)
    } else {
        (hi >> CHUNK_SHIFT, lo >> CHUNK_SHIFT)
    };
    loop {
        match find(key) {
            Ok(chunk) => {
                if let Some(hit) = chunk.nearest(key << CHUNK_SHIFT, lo, hi, up) {
                    return Some(hit);
                }
            }
            Err(absent_through) => key = absent_through,
        }
        if up {
            if key >= last {
                return None;
            }
            key += 1;
        } else {
            if key <= last {
                return None;
            }
            key -= 1;
        }
    }
}

/// The keys of `[first, last]` worth probing in the directory `map`,
/// ascending: the range itself while it is narrower than the directory,
/// else the resident keys inside it, sorted — so a walk costs the smaller
/// of the address range and the store, and visits resident keys in the
/// same order either way.
pub(crate) fn keys_in<V>(
    first: u64,
    last: u64,
    map: &FastMap<u64, V>,
) -> Chain<RangeInclusive<u64>, std::vec::IntoIter<u64>> {
    if last - first < map.len() as u64 {
        return (first..=last).chain(Vec::new());
    }
    let inside = map.keys().filter(|k| (first..=last).contains(k));
    let mut keys: Vec<u64> = inside.copied().collect();
    keys.sort_unstable();
    RangeInclusive::new(1, 0).chain(keys)
}

/// The eviction order of one budget-enforcement loop: the directory's
/// resident region keys, sorted once at the loop's first
/// [`victim_region`](crate::ShadowStore::victim_region) call instead of
/// searched for their minimum at every call. Nothing is inserted inside
/// such a loop, so the first key of the list that is still resident *is*
/// the lowest resident key. Start each loop with `Victims::default()`.
#[derive(Debug, Default)]
pub struct Victims {
    /// Resident keys at the first call, ascending.
    keys: Option<Vec<u64>>,
    /// Every key before this one has been evicted since.
    next: usize,
}

impl Victims {
    /// The lowest key still resident in the directory `map` that is not
    /// `avoid`, or `avoid` itself when it is the only one left.
    pub(crate) fn lowest<V>(&mut self, map: &FastMap<u64, V>, avoid: Option<u64>) -> Option<u64> {
        let keys = self
            .keys
            .get_or_insert_with(|| keys_in(0, u64::MAX, map).collect());
        while keys.get(self.next).is_some_and(|k| !map.contains_key(k)) {
            self.next += 1;
        }
        let left = &keys[self.next..];
        let others = left.iter().filter(|&k| Some(*k) != avoid);
        others
            .copied()
            .find(|k| map.contains_key(k))
            .or(left.first().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drained(c: &mut Chunk<u32>, base: u64, lo: u64, hi: u64) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        let n = c.drain(base, lo, hi, &mut |a, v| out.push((a.0, v)));
        assert_eq!(n, out.len());
        out
    }

    #[test]
    fn expand_keeps_cells_at_slot_times_four() {
        let mut c: Chunk<u32> = Chunk::new();
        assert_eq!(c.bytes(), NEW_CHUNK_BYTES);
        for low in (0..128).step_by(4) {
            assert_eq!(c.put(low, low as u32), (None, false));
        }
        assert_eq!(c.get(5), None);
        assert_eq!(c.take(5), None);
        // The first unaligned put expands, and says so once.
        assert_eq!(c.put(5, 500), (None, true));
        assert_eq!(c.put(6, 600), (None, false));
        assert!(c.is_byte_mode());
        assert!(!c.expand());
        assert_eq!(c.bytes(), NEW_CHUNK_BYTES + EXPANSION_BYTES);
        for low in (0..128).step_by(4) {
            assert_eq!(c.get(low), Some(&(low as u32)));
            assert_eq!(c.get(low + 3), None);
        }
        assert_eq!(c.put(5, 501), (Some(500), false));
        assert_eq!(c.take(5), Some(501));
        assert_eq!(c.take(6), Some(600));
        let mut seen = Vec::new();
        c.for_each(0x80, &mut |a, &v| seen.push((a.0, v)));
        let expected: Vec<(u64, u32)> = (0..128).step_by(4).map(|l| (0x80 + l, l as u32)).collect();
        assert_eq!(seen, expected);
        assert_eq!(drained(&mut c, 0x80, 0, u64::MAX).len(), 32);
        assert!(c.is_empty());
    }

    #[test]
    fn nearest_and_drain_clamp_at_both_chunk_ends() {
        for byte_mode in [false, true] {
            let base = 0x1000;
            let mut c: Chunk<u32> = Chunk::new();
            if byte_mode {
                c.expand();
            }
            c.put(0, 1);
            c.put(124, 2);
            let hit = |lo, hi, up| c.nearest(base, lo, hi, up).map(|(a, &v)| (a.0, v));
            // A window wider than the chunk is cut to it, at either end.
            assert_eq!(hit(0, u64::MAX, true), Some((base, 1)));
            assert_eq!(hit(0, u64::MAX, false), Some((base + 124, 2)));
            // A window that ends inside it rounds inward to whole slots.
            assert_eq!(hit(base + 1, base + 123, true), None);
            assert_eq!(hit(base + 1, base + 124, true), Some((base + 124, 2)));
            assert_eq!(hit(base, base + 123, false), Some((base, 1)));
            assert_eq!(hit(base + 121, base + 123, true), None);
            // A window that misses the chunk on either side is empty.
            assert_eq!(hit(0, base - 1, true), None);
            assert_eq!(hit(base + 128, u64::MAX, false), None);
            assert_eq!(drained(&mut c, base, base + 128, u64::MAX), vec![]);
            assert_eq!(drained(&mut c, base, 0, base - 1), vec![]);
            assert_eq!(
                drained(&mut c, base, base + 1, base + 127),
                [(base + 124, 2)]
            );
            assert_eq!(drained(&mut c, base, 0, base), [(base, 1)]);
            assert!(c.is_empty());
        }
    }

    /// The last chunk's end is `u64::MAX` exactly; nothing may wrap.
    #[test]
    fn nearest_and_drain_clamp_at_the_top_of_the_address_space() {
        let top = u64::MAX;
        let base = top - 127;
        let mut c: Chunk<u32> = Chunk::new();
        c.put(124, 1);
        c.put(127, 2);
        let hit = |lo, hi, up| c.nearest(base, lo, hi, up).map(|(a, &v)| (a.0, v));
        assert_eq!(hit(0, top, false), Some((top, 2)));
        assert_eq!(hit(top - 2, top, true), Some((top, 2)));
        assert_eq!(hit(top - 3, top - 1, false), Some((top - 3, 1)));
        assert_eq!(hit(top, top, true), Some((top, 2)));
        assert_eq!(drained(&mut c, base, top, top), [(top, 2)]);
        assert_eq!(drained(&mut c, base, 0, top), [(top - 3, 1)]);
    }

    #[test]
    fn keys_in_lists_resident_keys_ascending_either_way() {
        let map: FastMap<u64, ()> = [9, 3, 1 << 56, 4].into_iter().map(|k| (k, ())).collect();
        // Narrower than the directory: the range itself.
        let probe: Vec<u64> = keys_in(2, 4, &map).collect();
        assert_eq!(probe, [2, 3, 4]);
        // Wider: the resident keys inside it, sorted.
        let sorted: Vec<u64> = keys_in(4, u64::MAX, &map).collect();
        assert_eq!(sorted, [4, 9, 1 << 56]);
        assert_eq!(
            keys_in(0, u64::MAX, &FastMap::<u64, ()>::default()).count(),
            0
        );
    }

    #[test]
    fn victims_are_the_lowest_still_resident_key_but_not_the_one_to_avoid() {
        let mut map: FastMap<u64, ()> = [7, 2, 5].into_iter().map(|k| (k, ())).collect();
        let mut v = Victims::default();
        assert_eq!(v.lowest(&map, Some(2)), Some(5));
        map.remove(&5);
        // The avoided key is again the lowest once nothing says to avoid it.
        assert_eq!(v.lowest(&map, None), Some(2));
        map.remove(&2);
        // ...and is the fallback when it is all that is left.
        assert_eq!(v.lowest(&map, Some(7)), Some(7));
        map.clear();
        assert_eq!(v.lowest(&map, None), None);
    }
}
