//! A small slab allocator for shadow cells.
//!
//! The dynamic-granularity detector shares one vector-clock cell among
//! many locations. Using arena indices instead of reference-counted
//! pointers keeps cells cache-friendly, keeps the detector `Send` (so the
//! online runtime can put it behind a lock), and makes reference counting
//! explicit — the paper's `count` field on each shared vector clock.

use std::num::NonZeroU32;

/// A handle to a slab slot. Stored as `index + 1` so the handle has a
/// niche: `Option<SlabId>` — and any index slot built around one — is
/// no larger than the handle itself.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SlabId(NonZeroU32);

impl SlabId {
    fn from_index(i: usize) -> Self {
        let raw = u32::try_from(i + 1).expect("slab holds fewer than 2^32 - 1 items");
        SlabId(NonZeroU32::new(raw).expect("index + 1 is nonzero"))
    }

    /// The raw index.
    pub fn index(self) -> usize {
        (self.0.get() - 1) as usize
    }

    /// The handle as its non-zero `index + 1`, for packing into a wider
    /// word alongside other fields.
    pub fn to_bits(self) -> NonZeroU32 {
        self.0
    }

    /// The handle [`SlabId::to_bits`] unpacked.
    pub fn from_bits(bits: NonZeroU32) -> Self {
        SlabId(bits)
    }
}

/// A slab of `T` with O(1) alloc/free and stable ids.
#[derive(Clone, Debug)]
pub struct Slab<T> {
    items: Vec<Option<T>>,
    free: Vec<SlabId>,
    live: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            items: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }
}

impl<T> Slab<T> {
    /// Creates an empty slab.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores `value`, returning its id.
    pub fn alloc(&mut self, value: T) -> SlabId {
        self.live += 1;
        if let Some(id) = self.free.pop() {
            debug_assert!(self.items[id.index()].is_none());
            self.items[id.index()] = Some(value);
            id
        } else {
            self.items.push(Some(value));
            SlabId::from_index(self.items.len() - 1)
        }
    }

    /// Removes and returns the value at `id`.
    ///
    /// # Panics
    /// Panics if `id` is not live.
    pub fn free(&mut self, id: SlabId) -> T {
        let v = self.items[id.index()].take().expect("double free in slab");
        self.free.push(id);
        self.live -= 1;
        v
    }

    /// Borrows the value at `id`.
    #[inline]
    pub fn get(&self, id: SlabId) -> &T {
        self.items[id.index()].as_ref().expect("stale slab id")
    }

    /// Mutably borrows the value at `id`.
    #[inline]
    pub fn get_mut(&mut self, id: SlabId) -> &mut T {
        self.items[id.index()].as_mut().expect("stale slab id")
    }

    /// Returns `true` if `id` refers to a live value.
    pub fn contains(&self, id: SlabId) -> bool {
        self.items.get(id.index()).is_some_and(Option::is_some)
    }

    /// Number of live values.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Returns `true` if no values are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Iterates over live `(id, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SlabId, &T)> {
        self.items
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.as_ref().map(|v| (SlabId::from_index(i), v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_get_free() {
        let mut s: Slab<String> = Slab::new();
        let a = s.alloc("a".into());
        let b = s.alloc("b".into());
        assert_eq!(s.get(a), "a");
        assert_eq!(s.get(b), "b");
        assert_eq!(s.len(), 2);
        assert_eq!(s.free(a), "a");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn ids_are_recycled() {
        let mut s: Slab<u32> = Slab::new();
        let a = s.alloc(1);
        s.free(a);
        let b = s.alloc(2);
        assert_eq!(a, b, "freed slot is reused");
        assert_eq!(*s.get(b), 2);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut s: Slab<u32> = Slab::new();
        let a = s.alloc(1);
        s.free(a);
        s.free(a);
    }

    #[test]
    fn get_mut_modifies() {
        let mut s: Slab<u32> = Slab::new();
        let a = s.alloc(1);
        *s.get_mut(a) += 10;
        assert_eq!(*s.get(a), 11);
    }

    #[test]
    fn id_has_a_niche() {
        assert_eq!(std::mem::size_of::<Option<SlabId>>(), 4);
        assert_eq!(std::mem::size_of::<Option<(SlabId, u32)>>(), 8);
    }

    #[test]
    fn iter_skips_freed() {
        let mut s: Slab<u32> = Slab::new();
        let a = s.alloc(1);
        let _b = s.alloc(2);
        s.free(a);
        let vals: Vec<u32> = s.iter().map(|(_, &v)| v).collect();
        assert_eq!(vals, vec![2]);
        assert!(!s.is_empty());
    }
}
