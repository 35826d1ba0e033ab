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
//! A chunk holds `N` **lanes**: one per shadow plane that shares the
//! index. A fixed-granularity detector has one; the dynamic detector's read
//! and write planes are lanes 0 and 1 of one chunk, as in Fig. 4, where one
//! chunk entry holds a location's read *and* write clock pointers, so one
//! directory probe finds both. To everything that observes it a lane is a
//! chunk of its own: it exists while it holds a cell, it is in word mode
//! until *its* first unaligned insert, and it is charged an entry header
//! and slot array of its own. So each lane of an N-lane store answers every
//! lookup, scan, count and modeled byte exactly as a one-lane store holding
//! only that lane's cells would.
//!
//! Physically the lanes share one cell array, sized by what they hold.
//! While one lane holds cells the array is that lane's alone — the read
//! plane of a block written and not yet read costs nothing. Once a second
//! lane holds one, the array widens to every lane's cell of a slot side by
//! side, so the read and write cells of a location share a cache line.
//! And its slots are only as fine as the addresses it has held: 8 bytes
//! apart while they were all 8-aligned (every access of the 8-byte
//! workloads), 4 once one was only 4-aligned, 1 once one was unaligned.
//! None of this shows: a lane holds nothing at an address finer than its
//! own mode, so a finer array holds no cell a lane's own chunk would not.
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

/// [`Chunk::shift`] of a chunk every address of which is 8-aligned.
const QWORD: u8 = 3;

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
pub(crate) struct Chunk<T, const N: usize> {
    /// Slot `i` of lane `l` is at `i` while `l` is the only lane with
    /// cells ([`Chunk::only`]), at `i * N + l` once the array is wide.
    /// `m >> shift` slots; empty while no lane holds a cell.
    cells: Box<[Option<T>]>,
    /// The lane the array belongs to while narrow, [`WIDE`] once every
    /// lane has a column, [`NONE`] while no lane holds a cell.
    only: u8,
    /// log2 of the bytes one slot covers: [`QWORD`] while every address
    /// the chunk has held is 8-aligned, 2 (the paper's word mode) once one
    /// was only 4-aligned, 0 (byte mode) once one was unaligned. A lane's
    /// own mode is [`Lane::byte_mode`]; the array only has to be at least
    /// as fine as every lane's, and an address finer than a lane's mode
    /// holds nothing in it, so the difference never shows.
    shift: u8,
    lanes: [Lane; N],
}

/// [`Chunk::only`] of a chunk whose array has a column per lane.
const WIDE: u8 = u8::MAX - 1;
/// [`Chunk::only`] of a chunk no lane holds a cell in.
const NONE: u8 = u8::MAX;

/// One lane's chunk, as the lane sees it.
#[derive(Clone, Copy, Debug, Default)]
struct Lane {
    /// Populated slots of this lane (at most `m`).
    live: u8,
    /// Expanded by an unaligned insert since the lane last held no cell.
    byte_mode: bool,
}

impl Lane {
    /// Modeled bytes: a lane that holds no cell has no chunk.
    fn bytes(self) -> usize {
        match (self.live, self.byte_mode) {
            (0, _) => 0,
            (_, false) => NEW_CHUNK_BYTES,
            (_, true) => NEW_CHUNK_BYTES + EXPANSION_BYTES,
        }
    }
}

/// What a store holds in one lane: its cells, and the modeled bytes of
/// their chunks (the lane's `Hash` column).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Totals {
    pub(crate) live: usize,
    pub(crate) bytes: usize,
}

impl Totals {
    fn book(&mut self, was: Lane, now: Lane) {
        self.live = self.live + now.live as usize - was.live as usize;
        self.bytes = self.bytes + now.bytes() - was.bytes();
    }
}

impl<T, const N: usize> Chunk<T, N> {
    /// A chunk no lane holds a cell in.
    pub(crate) fn new() -> Self {
        Chunk {
            cells: Box::default(),
            only: NONE,
            shift: QWORD,
            lanes: [Lane::default(); N],
        }
    }

    /// Cells per slot: one while the array is a single lane's.
    #[inline]
    fn width(&self) -> usize {
        if self.only == WIDE {
            N
        } else {
            1
        }
    }

    #[inline]
    fn stride(&self) -> u64 {
        1 << self.shift
    }

    /// The slot of offset `low`, or `None` if the array is coarser.
    #[inline]
    fn slot(&self, low: usize) -> Option<usize> {
        if low & ((1 << self.shift) - 1) != 0 {
            return None;
        }
        Some(low >> self.shift)
    }

    /// Where `lane`'s cell of offset `low` is in the array, or `None` if
    /// the lane has no column or the array is coarser than the offset.
    #[inline]
    fn index(&self, lane: usize, low: usize) -> Option<usize> {
        let slot = self.slot(low)?;
        if self.only == WIDE {
            Some(slot * N + lane)
        } else if self.only as usize == lane {
            Some(slot)
        } else {
            None
        }
    }

    #[inline]
    pub(crate) fn get(&self, lane: usize, low: usize) -> Option<&T> {
        self.cells[self.index(lane, low)?].as_ref()
    }

    /// Every lane's cell at offset `low`.
    #[inline]
    pub(crate) fn entry(&self, low: usize) -> [Option<&T>; N] {
        let Some(slot) = self.slot(low) else {
            return [None; N];
        };
        match self.only {
            WIDE => {
                let cells = &self.cells[slot * N..slot * N + N];
                std::array::from_fn(|lane| cells[lane].as_ref())
            }
            NONE => [None; N],
            only => std::array::from_fn(|lane| {
                if lane == only as usize {
                    self.cells[slot].as_ref()
                } else {
                    None
                }
            }),
        }
    }

    #[inline]
    pub(crate) fn get_mut(&mut self, lane: usize, low: usize) -> Option<&mut T> {
        let i = self.index(lane, low)?;
        self.cells[i].as_mut()
    }

    /// Stores `value` as `lane`'s cell at offset `low`, giving the lane a
    /// column first if it has none, and expanding the lane when the offset
    /// is unaligned. Returns the previous cell.
    #[inline]
    pub(crate) fn put(
        &mut self,
        lane: usize,
        low: usize,
        value: T,
        totals: &mut [Totals; N],
    ) -> Option<T> {
        if self.only != WIDE && self.only as usize != lane {
            self.make_room(lane);
        }
        if self.slot(low).is_none() {
            self.refine(low);
        }
        if !low.is_multiple_of(4) && !self.lanes[lane].byte_mode {
            self.expand_lane(lane, totals);
        }
        let i = self
            .index(lane, low)
            .expect("the lane has a column fine enough");
        let prev = self.cells[i].replace(value);
        if prev.is_none() {
            let state = &mut self.lanes[lane];
            if state.live == 0 {
                // The lane's chunk comes into being.
                totals[lane].bytes += Lane { live: 1, ..*state }.bytes();
            }
            state.live += 1;
            totals[lane].live += 1;
        }
        prev
    }

    /// Puts `lane` in byte mode — "when a byte access is detected, the
    /// array is expanded to have m pointers" — and books it.
    #[cold]
    fn expand_lane(&mut self, lane: usize, totals: &mut [Totals; N]) {
        let was = self.lanes[lane];
        self.lanes[lane].byte_mode = true;
        totals[lane].book(was, self.lanes[lane]);
    }

    /// A column for `lane`: the array itself when no lane has cells, a
    /// wide array once a second lane does.
    #[cold]
    fn make_room(&mut self, lane: usize) {
        if self.only == NONE {
            self.cells = (0..BYTE_SLOTS >> self.shift).map(|_| None).collect();
            self.only = lane as u8;
            return;
        }
        let column = self.only as usize;
        let mut wide: Box<[Option<T>]> = (0..self.cells.len() * N).map(|_| None).collect();
        for (slot, cell) in self.cells.iter_mut().enumerate() {
            wide[slot * N + column] = cell.take();
        }
        self.cells = wide;
        self.only = WIDE;
    }

    /// Makes the array fine enough for offset `low`: every lane's cells
    /// move to their slots of the finer array.
    #[cold]
    fn refine(&mut self, low: usize) {
        let shift = if low.is_multiple_of(4) { 2 } else { 0 };
        let (width, by) = (self.width(), self.shift - shift);
        let mut cells: Box<[Option<T>]> =
            (0..(BYTE_SLOTS >> shift) * width).map(|_| None).collect();
        for (i, cell) in self.cells.iter_mut().enumerate() {
            cells[((i / width) << by) * width + i % width] = cell.take();
        }
        self.cells = cells;
        self.shift = shift;
    }

    /// `n` of `lane`'s cells are gone. A lane left with none has no chunk,
    /// so its next cell starts a word-mode one; the array goes with the
    /// last cell of any lane.
    fn release(&mut self, lane: usize, n: usize) {
        let lane = &mut self.lanes[lane];
        lane.live -= n as u8;
        if lane.live == 0 {
            lane.byte_mode = false;
            if self.is_empty() {
                *self = Chunk::new();
            }
        }
    }

    /// Removes `lane`'s cell at offset `low`.
    pub(crate) fn take(&mut self, lane: usize, low: usize, totals: &mut [Totals; N]) -> Option<T> {
        let was = self.lanes[lane];
        let i = self.index(lane, low)?;
        let cell = self.cells[i].take()?;
        self.release(lane, 1);
        totals[lane].book(was, self.lanes[lane]);
        Some(cell)
    }

    /// Puts `lane` in byte mode as an unaligned insert would. A lane that
    /// holds no cell has no chunk to expand.
    pub(crate) fn expand(&mut self, lane: usize, totals: &mut [Totals; N]) {
        if self.lanes[lane].live > 0 && !self.lanes[lane].byte_mode {
            self.expand_lane(lane, totals);
        }
    }

    /// No lane holds a cell.
    pub(crate) fn is_empty(&self) -> bool {
        self.lanes.iter().all(|lane| lane.live == 0)
    }

    pub(crate) fn is_byte_mode(&self, lane: usize) -> bool {
        self.lanes[lane].byte_mode
    }

    /// Cells per lane.
    pub(crate) fn live(&self) -> [usize; N] {
        self.lanes.map(|lane| lane.live as usize)
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
        let shift = self.shift;
        let first = ((from - chunk_base + (1 << shift) - 1) >> shift) as usize;
        let last = ((to - chunk_base) >> shift) as usize;
        first..last + 1
    }

    /// `lane`'s column: `Some(None)` while the array is the lane's alone,
    /// `Some(Some(c))` when it is column `c` of a wide array, `None` when
    /// the lane has no cells here.
    #[inline]
    fn column(&self, lane: usize) -> Option<Option<usize>> {
        match self.only {
            WIDE => Some(Some(lane)),
            only if only as usize == lane => Some(None),
            _ => None,
        }
    }

    /// The address of this chunk nearest to `lo` (`up`) or to `hi` (down)
    /// within `[lo, hi]` where `lane` holds a cell: one probe per *slot*,
    /// not per byte.
    #[inline]
    pub(crate) fn nearest(
        &self,
        lane: usize,
        chunk_base: u64,
        lo: u64,
        hi: u64,
        up: bool,
    ) -> Option<(Addr, &T)> {
        let window = self.window(chunk_base, lo, hi);
        let first = window.start;
        let (hit, cell) = match self.column(lane)? {
            None => {
                let cells = &self.cells[window];
                let hit = if up {
                    cells.iter().position(Option::is_some)
                } else {
                    cells.iter().rposition(Option::is_some)
                }?;
                (hit, &cells[hit])
            }
            Some(c) => {
                let wide = self.cells[first * N..window.end * N].chunks_exact(N);
                let populated = |cells: &[Option<T>]| cells[c].is_some();
                let hit = if up {
                    wide.clone().position(populated)
                } else {
                    wide.clone().rposition(populated)
                }?;
                (hit, &self.cells[(first + hit) * N + c])
            }
        };
        let addr = Addr(chunk_base + (first + hit) as u64 * self.stride());
        cell.as_ref().map(|cell| (addr, cell))
    }

    /// Removes every cell of every lane with address in `[lo, hi]`,
    /// handing each to `f` with its lane, lane by lane in ascending
    /// address order, and books each lane into `totals`.
    pub(crate) fn drain(
        &mut self,
        chunk_base: u64,
        lo: u64,
        hi: u64,
        totals: &mut [Totals; N],
        f: &mut impl FnMut(Addr, usize, T),
    ) {
        let window = self.window(chunk_base, lo, hi);
        let (first, stride) = (window.start, self.stride());
        for (lane, total) in totals.iter_mut().enumerate() {
            let Some(column) = self.column(lane) else {
                continue;
            };
            let was = self.lanes[lane];
            let mut removed = 0;
            let mut take = |i: usize, cell: &mut Option<T>| {
                if let Some(cell) = cell.take() {
                    removed += 1;
                    f(Addr(chunk_base + (first + i) as u64 * stride), lane, cell);
                }
            };
            match column {
                None => {
                    for (i, cell) in self.cells[window.clone()].iter_mut().enumerate() {
                        take(i, cell);
                    }
                }
                Some(c) => {
                    let wide = &mut self.cells[window.start * N..window.end * N];
                    for (i, cells) in wide.chunks_exact_mut(N).enumerate() {
                        take(i, &mut cells[c]);
                    }
                }
            }
            self.release(lane, removed);
            total.book(was, self.lanes[lane]);
        }
    }

    /// Whether `f` holds for some `(lane, addr, cell)` of the chunk at
    /// `chunk_base`, stopping at the first that does.
    pub(crate) fn any(&self, chunk_base: u64, f: &mut impl FnMut(usize, Addr, &T) -> bool) -> bool {
        let (width, stride) = (self.width(), self.stride());
        self.cells.iter().enumerate().any(|(i, cell)| {
            let lane = if width == 1 {
                self.only as usize
            } else {
                i % N
            };
            let addr = Addr(chunk_base + (i / width) as u64 * stride);
            cell.as_ref().is_some_and(|cell| f(lane, addr, cell))
        })
    }

    /// Applies `f` to every cell of `lane`, in ascending address order.
    pub(crate) fn for_each(&self, lane: usize, chunk_base: u64, f: &mut impl FnMut(Addr, &T)) {
        let stride = self.stride();
        let mut visit = |slot: usize, cell: &Option<T>| {
            if let Some(cell) = cell {
                f(Addr(chunk_base + slot as u64 * stride), cell);
            }
        };
        match self.column(lane) {
            None => {}
            Some(None) => self.cells.iter().enumerate().for_each(|(i, c)| visit(i, c)),
            Some(Some(c)) => {
                let wide = self.cells.chunks_exact(N);
                wide.enumerate().for_each(|(i, cells)| visit(i, &cells[c]));
            }
        }
    }
}

/// The nearest address strictly above (`up`) or below `addr` where `lane`
/// holds a cell, at most `max_dist` bytes away: the scan window is clamped
/// to the address space once, then walked chunk by chunk outward from
/// `addr`.
///
/// `find(key)` is the directory: the chunk numbered `key`, or — when it
/// is absent — the last key in scan direction the directory knows to be
/// absent with it (`key` itself when it knows no more), which the walk
/// then skips to.
#[inline]
pub(crate) fn scan<'a, T: 'a, const N: usize>(
    lane: usize,
    addr: Addr,
    max_dist: u64,
    up: bool,
    find: impl Fn(u64) -> Result<&'a Chunk<T, N>, u64>,
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
                if let Some(hit) = chunk.nearest(lane, key << CHUNK_SHIFT, lo, hi, up) {
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

/// What the directory walks below need of a directory: its resident keys.
pub(crate) trait KeySet {
    fn len(&self) -> usize;
    fn contains(&self, key: u64) -> bool;
    fn keys(&self) -> impl Iterator<Item = u64> + '_;
}

impl<V> KeySet for FastMap<u64, V> {
    fn len(&self) -> usize {
        FastMap::len(self)
    }

    fn contains(&self, key: u64) -> bool {
        self.contains_key(&key)
    }

    fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        FastMap::keys(self).copied()
    }
}

/// The keys of `[first, last]` worth probing in the directory `dir`,
/// ascending: the range itself while it is narrower than the directory,
/// else the resident keys inside it, sorted — so a walk costs the smaller
/// of the address range and the store, and visits resident keys in the
/// same order either way.
pub(crate) fn keys_in(
    first: u64,
    last: u64,
    dir: &impl KeySet,
) -> Chain<RangeInclusive<u64>, std::vec::IntoIter<u64>> {
    if last - first < dir.len() as u64 {
        return (first..=last).chain(Vec::new());
    }
    let mut keys: Vec<u64> = dir.keys().filter(|k| (first..=last).contains(k)).collect();
    keys.sort_unstable();
    RangeInclusive::new(1, 0).chain(keys)
}

/// The eviction order of one budget-enforcement loop: first every region
/// none of whose cells is hot, by ascending key, then the hot ones, by
/// ascending key. The directory's resident keys are sorted once, at the
/// loop's first [`victim_region`](crate::ShadowStore::victim_region)
/// call, and each is judged hot or cold once, when the walk reaches it.
/// Nothing is inserted and nothing turns hot inside such a loop, so the
/// first still-resident key the walk finds cold *is* the lowest cold
/// resident key. Start each loop with `Victims::default()`.
#[derive(Debug, Default)]
pub struct Victims {
    /// Resident keys at the first call, ascending.
    keys: Option<Vec<u64>>,
    /// Every key before this one has been evicted or passed over since.
    next: usize,
    /// The keys passed over because they were hot, ascending.
    hot: Vec<u64>,
    /// Every hot key before this one has been evicted since.
    next_hot: usize,
}

impl Victims {
    /// The lowest key still resident in the directory `dir` for which
    /// `is_hot` is false, else the lowest hot one still resident.
    pub(crate) fn coldest(
        &mut self,
        dir: &impl KeySet,
        mut is_hot: impl FnMut(u64) -> bool,
    ) -> Option<u64> {
        let keys = self
            .keys
            .get_or_insert_with(|| keys_in(0, u64::MAX, dir).collect());
        while let Some(&key) = keys.get(self.next) {
            if dir.contains(key) {
                if !is_hot(key) {
                    return Some(key);
                }
                self.hot.push(key);
            }
            self.next += 1;
        }
        while let Some(&key) = self.hot.get(self.next_hot) {
            if dir.contains(key) {
                return Some(key);
            }
            self.next_hot += 1;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drained<const N: usize>(
        c: &mut Chunk<u32, N>,
        t: &mut [Totals; N],
        base: u64,
        lo: u64,
        hi: u64,
    ) -> Vec<(u64, usize, u32)> {
        let mut out = Vec::new();
        c.drain(base, lo, hi, t, &mut |a, lane, v| out.push((a.0, lane, v)));
        out
    }

    #[test]
    fn expand_keeps_cells_at_slot_times_four() {
        let mut c: Chunk<u32, 1> = Chunk::new();
        let mut t = [Totals::default()];
        for low in (0..128).step_by(4) {
            assert_eq!(c.put(0, low, low as u32, &mut t), None);
        }
        assert_eq!((t[0].live, t[0].bytes), (32, NEW_CHUNK_BYTES));
        assert_eq!(c.get(0, 5), None);
        assert_eq!(c.take(0, 5, &mut t), None);
        // The first unaligned put expands; the second costs nothing more.
        c.put(0, 5, 500, &mut t);
        assert_eq!(t[0].bytes, NEW_CHUNK_BYTES + EXPANSION_BYTES);
        c.put(0, 6, 600, &mut t);
        c.expand(0, &mut t);
        assert!(c.is_byte_mode(0));
        assert_eq!(
            (t[0].live, t[0].bytes),
            (34, NEW_CHUNK_BYTES + EXPANSION_BYTES)
        );
        for low in (0..128).step_by(4) {
            assert_eq!(c.get(0, low), Some(&(low as u32)));
            assert_eq!(c.get(0, low + 3), None);
        }
        assert_eq!(c.put(0, 5, 501, &mut t), Some(500));
        assert_eq!(c.take(0, 5, &mut t), Some(501));
        assert_eq!(c.take(0, 6, &mut t), Some(600));
        let mut seen = Vec::new();
        c.for_each(0, 0x80, &mut |a, &v| seen.push((a.0, v)));
        let expected: Vec<(u64, u32)> = (0..128).step_by(4).map(|l| (0x80 + l, l as u32)).collect();
        assert_eq!(seen, expected);
        assert_eq!(drained(&mut c, &mut t, 0x80, 0, u64::MAX).len(), 32);
        assert!(c.is_empty());
    }

    /// Each lane is a chunk of its own to its observers: it exists while
    /// it holds a cell, and is in word mode until its own first unaligned
    /// insert, whatever the array the lanes share has become — narrow,
    /// wide, or expanded for the other lane.
    #[test]
    fn a_lane_is_a_chunk_of_its_own() {
        let mut c: Chunk<u32, 2> = Chunk::new();
        let mut t = [Totals::default(); 2];
        c.put(0, 8, 1, &mut t);
        assert_eq!((t[0].bytes, t[1].bytes, c.width()), (NEW_CHUNK_BYTES, 0, 1));
        assert_eq!(c.get(1, 8), None);
        // Lane 1's cell widens the array; its unaligned one expands it, and
        // lane 1 alone is charged for that.
        c.put(1, 12, 2, &mut t);
        assert_eq!(c.width(), 2);
        c.put(1, 9, 3, &mut t);
        assert_eq!(t[1].bytes, NEW_CHUNK_BYTES + EXPANSION_BYTES);
        assert_eq!(t[0].bytes, NEW_CHUNK_BYTES);
        assert!(c.is_byte_mode(1) && !c.is_byte_mode(0));
        assert_eq!(
            (c.get(0, 8), c.get(1, 9), c.get(1, 12)),
            (Some(&1), Some(&3), Some(&2))
        );
        assert_eq!((c.get(0, 9), c.get(0, 12), c.get(1, 8)), (None, None, None));
        // A lane's scan sees its own cells only.
        assert_eq!(c.nearest(0, 0, 0, 127, false).map(|(a, _)| a.0), Some(8));
        assert_eq!(c.nearest(1, 0, 0, 127, false).map(|(a, _)| a.0), Some(12));
        assert_eq!(c.nearest(1, 0, 0, 11, false).map(|(a, _)| a.0), Some(9));
        assert_eq!(c.nearest(0, 0, 9, 127, true), None);
        // Emptied, lane 1 has no chunk; its next cell starts a word-mode one.
        c.take(1, 9, &mut t);
        c.take(1, 12, &mut t);
        assert_eq!((t[1].live, t[1].bytes), (0, 0));
        c.put(1, 16, 4, &mut t);
        assert_eq!(t[1].bytes, NEW_CHUNK_BYTES);
        assert!(!c.is_byte_mode(1) && !c.is_empty());
        // Forcing byte mode on a lane with no cell does nothing.
        c.take(0, 8, &mut t);
        c.expand(0, &mut t);
        assert_eq!((t[0].bytes, c.is_byte_mode(0)), (0, false));
        assert_eq!(drained(&mut c, &mut t, 0, 0, u64::MAX), [(16, 1, 4)]);
        assert!(c.is_empty() && c.cells.is_empty());
    }

    #[test]
    fn nearest_and_drain_clamp_at_both_chunk_ends() {
        for (byte_mode, wide) in [(false, false), (true, false), (false, true), (true, true)] {
            let base = 0x1000;
            let mut c: Chunk<u32, 2> = Chunk::new();
            let mut t = [Totals::default(); 2];
            c.put(0, 0, 1, &mut t);
            c.put(0, 124, 2, &mut t);
            if wide {
                c.put(1, 64, 9, &mut t);
            }
            if byte_mode {
                c.expand(0, &mut t);
            }
            let hit = |lo, hi, up| c.nearest(0, base, lo, hi, up).map(|(a, &v)| (a.0, v));
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
            assert_eq!(drained(&mut c, &mut t, base, base + 128, u64::MAX), vec![]);
            assert_eq!(drained(&mut c, &mut t, base, 0, base - 1), vec![]);
            assert_eq!(
                drained(&mut c, &mut t, base, base + 1, base + 127).first(),
                Some(&(base + 124, 0, 2))
            );
            assert_eq!(drained(&mut c, &mut t, base, 0, base), [(base, 0, 1)]);
            assert!(c.is_empty());
        }
    }

    /// The last chunk's end is `u64::MAX` exactly; nothing may wrap.
    #[test]
    fn nearest_and_drain_clamp_at_the_top_of_the_address_space() {
        let top = u64::MAX;
        let base = top - 127;
        let mut c: Chunk<u32, 1> = Chunk::new();
        let mut t = [Totals::default()];
        c.put(0, 124, 1, &mut t);
        c.put(0, 127, 2, &mut t);
        let hit = |lo, hi, up| c.nearest(0, base, lo, hi, up).map(|(a, &v)| (a.0, v));
        assert_eq!(hit(0, top, false), Some((top, 2)));
        assert_eq!(hit(top - 2, top, true), Some((top, 2)));
        assert_eq!(hit(top - 3, top - 1, false), Some((top - 3, 1)));
        assert_eq!(hit(top, top, true), Some((top, 2)));
        assert_eq!(drained(&mut c, &mut t, base, top, top), [(top, 0, 2)]);
        assert_eq!(drained(&mut c, &mut t, base, 0, top), [(top - 3, 0, 1)]);
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
    fn victims_are_the_cold_keys_ascending_then_the_hot_ones() {
        let mut map: FastMap<u64, ()> = [7, 2, 5, 3, 9].into_iter().map(|k| (k, ())).collect();
        let mut v = Victims::default();
        let mut judged = Vec::new();
        let mut order = Vec::new();
        while let Some(key) = v.coldest(&map, |k| {
            judged.push(k);
            k == 2 || k == 7
        }) {
            order.push(key);
            map.remove(&key);
            // A paired eviction takes a hot key away behind the loop's back.
            map.remove(&7);
        }
        assert_eq!(order, [3, 5, 9, 2]);
        // Each resident key is judged once, when the walk reaches it.
        assert_eq!(judged, [2, 3, 5, 9]);
    }

    #[test]
    fn any_sees_every_lane_at_its_address() {
        let mut c: Chunk<u32, 2> = Chunk::new();
        let mut t = [Totals::default(); 2];
        let seen = |c: &Chunk<u32, 2>| {
            let mut seen = Vec::new();
            let none = !c.any(0x80, &mut |lane, a, &v| {
                seen.push((lane, a.0, v));
                false
            });
            assert!(none);
            seen.sort();
            seen
        };
        assert_eq!(seen(&c), []);
        c.put(1, 8, 10, &mut t);
        assert_eq!(seen(&c), [(1, 0x88, 10)]);
        c.put(0, 5, 20, &mut t);
        assert_eq!(seen(&c), [(0, 0x85, 20), (1, 0x88, 10)]);
        assert!(c.any(0x80, &mut |lane, a, _| lane == 1 && a.0 == 0x88));
    }
}
