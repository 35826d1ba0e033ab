//! Per-thread same-epoch access bitmaps (§IV.A).
//!
//! DJIT+-family detectors only need to process the *first* read and the
//! first write of each location in an epoch. Answering "have I already
//! accessed this location in my current epoch?" from the global shadow
//! structure would require synchronized lookups, so the paper gives every
//! thread a private bitmap: the first access sets a bit, and the bitmap is
//! reset at every lock release (the start of the thread's next epoch).

use dgrace_trace::{Addr, SnapshotReader, SnapshotWriter, TraceError};

use crate::hash::FastMap;

use crate::accounting::bitmap_chunk_bytes;

/// Addresses covered by one chunk.
const CHUNK_SPAN: u64 = 2048;
/// Two bits (read, write) per address → payload bytes per chunk.
const CHUNK_PAYLOAD: usize = (CHUNK_SPAN as usize * 2) / 8;

/// Chunk boxes a bitmap keeps across [`EpochBitmap::reset`] for its next
/// epochs to reuse. A constant, not an option: a thread that once swept a
/// gigabyte in one epoch must not pin 250 MiB of spares for the rest of
/// the run, and the lock-delimited epochs the paper's workloads are made
/// of touch a handful of chunks each.
const SPARE_CHUNKS: usize = 16;

type Chunk = Box<[u8; CHUNK_PAYLOAD]>;

/// A per-thread bitmap recording which locations this thread has already
/// read / written during its current epoch.
///
/// Two bits are kept per byte address (one for reads, one for writes);
/// chunks are allocated lazily as 2048-address spans.
///
/// An epoch ends at every release, so the chunk boxes are recycled:
/// `reset` moves (a bounded number of) them to a spare list, and the
/// next first access to a chunk zeroes a spare instead of allocating.
/// Everything reported — [`Self::bytes`], [`Self::peak_bytes`], the
/// encoded form — is a function of the live chunks only.
#[derive(Clone, Debug, Default)]
pub struct EpochBitmap {
    /// This epoch's chunks.
    chunks: FastMap<u64, Chunk>,
    /// Boxes of earlier epochs, contents stale; at most [`SPARE_CHUNKS`].
    spares: Vec<Chunk>,
    /// High-water mark of simultaneously live chunks, for accounting.
    peak_chunks: usize,
}

impl EpochBitmap {
    /// Creates an empty bitmap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns `true` if `(addr, is_write)` is already marked.
    #[inline]
    pub fn test(&self, addr: Addr, is_write: bool) -> bool {
        let (key, byte, mask) = locate(addr, is_write);
        self.chunks.get(&key).is_some_and(|c| c[byte] & mask != 0)
    }

    /// Marks `(addr, is_write)`; returns `true` if it was already set.
    #[inline]
    pub fn test_and_set(&mut self, addr: Addr, is_write: bool) -> bool {
        let (key, byte, mask) = locate(addr, is_write);
        let spares = &mut self.spares;
        let chunk = self
            .chunks
            .entry(key)
            .or_insert_with(|| match spares.pop() {
                Some(mut spare) => {
                    spare.fill(0);
                    spare
                }
                None => Box::new([0u8; CHUNK_PAYLOAD]),
            });
        let was = chunk[byte] & mask != 0;
        chunk[byte] |= mask;
        if self.chunks.len() > self.peak_chunks {
            self.peak_chunks = self.chunks.len();
        }
        was
    }

    /// The first-access filter behind one probe of the chunk map: marks
    /// `(addr, is_write)` unless an earlier access this epoch already
    /// covers it, and returns whether this one was the first. A write is
    /// covered by a write; a read by a read *or a write* (a read after a
    /// write by the same thread in the same epoch cannot be the first of
    /// a new race), and a covered read leaves its own bit alone. Only the
    /// first access to a chunk in an epoch probes again, to add it.
    #[inline]
    pub fn first_in_epoch(&mut self, addr: Addr, is_write: bool) -> bool {
        let (key, byte, mask) = locate(addr, is_write);
        let covering = mask | write_mask(addr);
        match self.chunks.get_mut(&key) {
            Some(chunk) => {
                let first = chunk[byte] & covering == 0;
                if first {
                    chunk[byte] |= mask;
                }
                first
            }
            None => {
                self.first_in_chunk(addr, is_write);
                true
            }
        }
    }

    /// The first access an epoch makes to a chunk adds the chunk; kept out
    /// of [`EpochBitmap::first_in_epoch`]'s code.
    #[cold]
    fn first_in_chunk(&mut self, addr: Addr, is_write: bool) {
        self.test_and_set(addr, is_write);
    }

    /// Clears both bits of every address in `[base, base+len)` — the range
    /// was freed, so an access to it is the first of its location again —
    /// and keeps every chunk, so the modeled bytes do not move. A range
    /// that runs past the top of the address space ends there; the walk
    /// costs the smaller of the range and the live chunks.
    pub fn forget_range(&mut self, base: Addr, len: u64) {
        if len == 0 || self.chunks.is_empty() {
            return;
        }
        let last = base.0.saturating_add(len - 1);
        let (first_key, last_key) = (base.0 / CHUNK_SPAN, last / CHUNK_SPAN);
        let clear = |key: u64, chunk: &mut Chunk| {
            let lo = base.0.max(key * CHUNK_SPAN) - key * CHUNK_SPAN;
            let hi = last.min(key * CHUNK_SPAN + (CHUNK_SPAN - 1)) - key * CHUNK_SPAN;
            // Two bits per address, four addresses per byte: whole bytes
            // in the middle, single addresses at the ends.
            let (mut a, end) = (lo, hi + 1);
            while a < end {
                let byte = (a / 4) as usize;
                if a % 4 == 0 && a + 4 <= end {
                    let whole = ((end - a) / 4) as usize;
                    chunk[byte..byte + whole].fill(0);
                    a += 4 * whole as u64;
                } else {
                    chunk[byte] &= !(3 << ((a % 4) * 2));
                    a += 1;
                }
            }
        };
        if last_key - first_key < self.chunks.len() as u64 {
            for key in first_key..=last_key {
                if let Some(chunk) = self.chunks.get_mut(&key) {
                    clear(key, chunk);
                }
            }
        } else {
            for (&key, chunk) in self.chunks.iter_mut() {
                if (first_key..=last_key).contains(&key) {
                    clear(key, chunk);
                }
            }
        }
    }

    /// Resets the bitmap — called at every lock release, when the thread's
    /// next epoch begins.
    pub fn reset(&mut self) {
        let room = SPARE_CHUNKS - self.spares.len();
        let was_large = self.chunks.len() > SPARE_CHUNKS;
        self.spares
            .extend(self.chunks.drain().map(|(_, chunk)| chunk).take(room));
        if was_large {
            self.chunks.shrink_to(SPARE_CHUNKS);
        }
    }

    /// Current modeled bytes.
    pub fn bytes(&self) -> usize {
        self.chunks.len() * bitmap_chunk_bytes(CHUNK_PAYLOAD)
    }

    /// Peak modeled bytes over the bitmap's lifetime.
    pub fn peak_bytes(&self) -> usize {
        self.peak_chunks * bitmap_chunk_bytes(CHUNK_PAYLOAD)
    }

    /// Number of chunks live this epoch.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Serializes the bitmap: live chunks sorted by key (so two bitmaps
    /// with the same contents encode to the same bytes, whatever boxes
    /// they have spare), then the peak.
    pub fn encode(&self, w: &mut SnapshotWriter) {
        let mut keys: Vec<u64> = self.chunks.keys().copied().collect();
        keys.sort_unstable();
        w.count(keys.len());
        for key in keys {
            w.u64(key);
            w.raw(&self.chunks[&key][..]);
        }
        w.u64(self.peak_chunks as u64);
    }

    /// Rebuilds a bitmap from [`EpochBitmap::encode`]d bytes.
    pub fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, TraceError> {
        let n = r.count("bitmap chunks")?;
        let mut chunks = FastMap::default();
        for _ in 0..n {
            let key = r.u64()?;
            let mut payload = Box::new([0u8; CHUNK_PAYLOAD]);
            r.raw(&mut payload[..])?;
            chunks.insert(key, payload);
        }
        let peak_chunks = r.u64()? as usize;
        Ok(EpochBitmap {
            chunks,
            spares: Vec::new(),
            peak_chunks,
        })
    }
}

#[inline]
fn read_mask(addr: Addr) -> u8 {
    1 << (((addr.0 % 4) as u8) * 2)
}

#[inline]
fn write_mask(addr: Addr) -> u8 {
    2 << (((addr.0 % 4) as u8) * 2)
}

/// Maps `(addr, plane)` to `(chunk key, byte index, bit mask)`.
#[inline]
fn locate(addr: Addr, is_write: bool) -> (u64, usize, u8) {
    let key = addr.0 / CHUNK_SPAN;
    let off = (addr.0 % CHUNK_SPAN) as usize;
    let byte = off / 4;
    let mask = if is_write {
        write_mask(addr)
    } else {
        read_mask(addr)
    };
    (key, byte, mask)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_then_test() {
        let mut b = EpochBitmap::new();
        let a = Addr(0x1234);
        assert!(!b.test(a, false));
        assert!(!b.test_and_set(a, false));
        assert!(b.test(a, false));
        assert!(b.test_and_set(a, false));
        // The write plane is independent.
        assert!(!b.test(a, true));
        assert!(!b.test_and_set(a, true));
        assert!(b.test(a, true));
    }

    #[test]
    fn neighbors_do_not_alias() {
        let mut b = EpochBitmap::new();
        for off in 0..8u64 {
            assert!(!b.test_and_set(Addr(0x100 + off), false));
        }
        for off in 0..8u64 {
            assert!(b.test(Addr(0x100 + off), false));
            assert!(!b.test(Addr(0x100 + off), true));
        }
        assert!(!b.test(Addr(0xff), false));
        assert!(!b.test(Addr(0x108), false));
    }

    #[test]
    fn reset_clears_everything() {
        let mut b = EpochBitmap::new();
        b.test_and_set(Addr(7), true);
        b.test_and_set(Addr(70_000), false);
        assert_eq!(b.chunk_count(), 2);
        b.reset();
        assert!(!b.test(Addr(7), true));
        assert_eq!(b.chunk_count(), 0);
        assert_eq!(b.bytes(), 0);
        // Peak survives the reset.
        assert!(b.peak_bytes() >= 2 * bitmap_chunk_bytes(CHUNK_PAYLOAD));
    }

    #[test]
    fn a_huge_epoch_does_not_pin_its_chunks() {
        let mut b = EpochBitmap::new();
        for chunk in 0..10_000u64 {
            b.first_in_epoch(Addr(chunk * CHUNK_SPAN), true);
        }
        assert_eq!(b.chunk_count(), 10_000);
        b.reset();
        assert_eq!(b.spares.len(), SPARE_CHUNKS);
        assert!(b.spares.capacity() <= 2 * SPARE_CHUNKS);
        assert!(b.chunks.capacity() <= 4 * SPARE_CHUNKS);
        // Small epochs reuse the spares and add none.
        for epoch in 0..3u64 {
            for chunk in 0..SPARE_CHUNKS as u64 {
                assert!(b.first_in_epoch(Addr((epoch + chunk) * CHUNK_SPAN), false));
            }
            assert!(b.spares.is_empty());
            b.reset();
            assert_eq!(b.spares.len(), SPARE_CHUNKS);
        }
        assert_eq!(b.peak_bytes(), 10_000 * bitmap_chunk_bytes(CHUNK_PAYLOAD));
    }

    #[test]
    fn first_in_epoch_lets_a_write_cover_reads_but_not_the_reverse() {
        let mut b = EpochBitmap::new();
        assert!(b.first_in_epoch(Addr(0x40), true));
        assert!(!b.first_in_epoch(Addr(0x40), true));
        // The covered read is not first, and is not marked either.
        assert!(!b.first_in_epoch(Addr(0x40), false));
        assert!(!b.test(Addr(0x40), false));
        // A read covers later reads only.
        assert!(b.first_in_epoch(Addr(0x41), false));
        assert!(!b.first_in_epoch(Addr(0x41), false));
        assert!(b.first_in_epoch(Addr(0x41), true));
        assert!(b.test(Addr(0x41), false) && b.test(Addr(0x41), true));
        assert_eq!(b.chunk_count(), 1);
    }

    /// A freed range reads as untouched again in both planes, its
    /// neighbours keep their bits, and no chunk comes or goes.
    #[test]
    fn forget_range_clears_the_range_only() {
        let mut b = EpochBitmap::new();
        for a in 0..CHUNK_SPAN * 3 {
            b.test_and_set(Addr(a), true);
            b.test_and_set(Addr(a), false);
        }
        let bytes = b.bytes();
        // Unaligned at both ends and across both chunk seams.
        let (base, len) = (CHUNK_SPAN - 7, CHUNK_SPAN + 13);
        b.forget_range(Addr(base), len);
        for a in 0..CHUNK_SPAN * 3 {
            let freed = (base..base + len).contains(&a);
            assert_eq!(b.test(Addr(a), true), !freed, "write bit of {a}");
            assert_eq!(b.test(Addr(a), false), !freed, "read bit of {a}");
        }
        assert_eq!((b.chunk_count(), b.bytes()), (3, bytes));
        // A range past the top of the address space ends there.
        b.test_and_set(Addr(u64::MAX), true);
        b.forget_range(Addr(u64::MAX - 1), 16);
        assert!(!b.test(Addr(u64::MAX), true));
        assert_eq!(b.chunk_count(), 4);
    }

    #[test]
    fn chunk_boundaries() {
        let mut b = EpochBitmap::new();
        b.test_and_set(Addr(CHUNK_SPAN - 1), false);
        b.test_and_set(Addr(CHUNK_SPAN), false);
        assert_eq!(b.chunk_count(), 2);
        assert!(b.test(Addr(CHUNK_SPAN - 1), false));
        assert!(b.test(Addr(CHUNK_SPAN), false));
    }
}
