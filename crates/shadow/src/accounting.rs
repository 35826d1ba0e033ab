//! The memory-accounting model behind Tables 2 and 3.
//!
//! The paper measures detector memory "based on object size" (§V.A): the
//! bytes of the hash/indexing structures, of the vector clocks themselves,
//! and of the access bitmaps. We reproduce that model: every detector
//! reports its structure sizes through a [`MemoryModel`] gauge after each
//! event, and the model records the per-class and total peaks.
//!
//! Modeled object sizes (32-bit tool, as in the paper):
//!
//! | object                          | bytes                          |
//! |---------------------------------|--------------------------------|
//! | hash chain entry header         | 16 + 4·slots (pointer array)   |
//! | VC cell (epoch form)            | 16                             |
//! | VC cell full-VC payload         | 16 + 4·width                   |

/// Modeled byte size of a hash chain entry with `slots` pointers.
pub const fn hash_entry_bytes(slots: usize) -> usize {
    16 + 4 * slots
}

/// Modeled byte size of one paged-store directory node: a 16-byte header
/// plus a pointer array with one entry per chunk of the directory's span
/// (the slot arrays hanging off it are charged separately, with the same
/// `16 + 4·slots` model as hash chain entries).
pub const fn paged_dir_bytes(chunks: usize) -> usize {
    16 + 4 * chunks
}

/// Modeled byte size of a vector-clock cell whose payload (full vector
/// clock) spans `width` threads; `width == 0` means the compressed epoch
/// form with no out-of-line payload.
pub const fn vc_cell_bytes(width: usize) -> usize {
    if width == 0 {
        16
    } else {
        16 + 16 + 4 * width
    }
}

/// The accounting classes of Table 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MemClass {
    /// Hash tables + indexing arrays.
    Hash,
    /// Vector clocks (cells + full-VC payloads).
    VectorClock,
    /// Access bitmaps: segment-drd's segment bitmaps. No happens-before
    /// detector keeps a same-epoch bitmap.
    Bitmap,
}

impl MemClass {
    /// All classes, in Table 2 column order.
    pub const ALL: [MemClass; 3] = [MemClass::Hash, MemClass::VectorClock, MemClass::Bitmap];

    fn index(self) -> usize {
        match self {
            MemClass::Hash => 0,
            MemClass::VectorClock => 1,
            MemClass::Bitmap => 2,
        }
    }
}

/// Gauge-style memory model: detectors `set` the current size of each
/// class (cheap — they maintain running byte counters) and the model keeps
/// peaks.
///
/// Besides bytes, the model tracks the number of live vector-clock objects
/// (Table 3's "Max. # of vector clocks") via [`MemoryModel::set_vc_count`].
#[derive(Clone, Debug, Default)]
pub struct MemoryModel {
    current: [usize; 3],
    peak: [usize; 3],
    peak_total: usize,
    vc_count: usize,
    peak_vc_count: usize,
    /// Optional cap on the modeled total; `None` means unbounded.
    budget: Option<usize>,
    /// Sticky: set the first time the budget was exceeded.
    breached: bool,
}

impl MemoryModel {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the current byte size of `class` and updates peaks.
    #[inline]
    pub fn set(&mut self, class: MemClass, bytes: usize) {
        let i = class.index();
        self.current[i] = bytes;
        if bytes > self.peak[i] {
            self.peak[i] = bytes;
        }
        let total = self.current.iter().sum();
        if total > self.peak_total {
            self.peak_total = total;
        }
    }

    /// Adjusts the current byte size of `class` by a signed delta.
    #[inline]
    pub fn add(&mut self, class: MemClass, delta: isize) {
        let i = class.index();
        let cur = self.current[i] as isize + delta;
        debug_assert!(cur >= 0, "memory class went negative");
        self.set(class, cur.max(0) as usize);
    }

    /// Sets the current number of live vector-clock objects.
    #[inline]
    pub fn set_vc_count(&mut self, n: usize) {
        self.vc_count = n;
        if n > self.peak_vc_count {
            self.peak_vc_count = n;
        }
    }

    /// Current bytes of `class`.
    pub fn current(&self, class: MemClass) -> usize {
        self.current[class.index()]
    }

    /// Current bytes of every class, in [`MemClass::ALL`] order — what a
    /// detector answers `mem_classes` with.
    pub fn classes(&self) -> [u64; 3] {
        self.current.map(|b| b as u64)
    }

    /// Peak bytes of `class` over the run.
    pub fn peak(&self, class: MemClass) -> usize {
        self.peak[class.index()]
    }

    /// Peak of the *sum* of the three classes (Table 2 "Overhead total").
    ///
    /// Note the paper's observation on `dedup`: the peak of the total need
    /// not coincide with the peak of any class, so this is tracked
    /// separately rather than summing per-class peaks.
    pub fn peak_total(&self) -> usize {
        self.peak_total
    }

    /// Current total bytes.
    pub fn current_total(&self) -> usize {
        self.current.iter().sum()
    }

    /// Current number of live vector-clock objects.
    pub fn vc_count(&self) -> usize {
        self.vc_count
    }

    /// Peak number of live vector-clock objects (Table 3).
    pub fn peak_vc_count(&self) -> usize {
        self.peak_vc_count
    }

    /// Caps the modeled total at `bytes` (`None` removes the cap). The
    /// cap does not change accounting; detectors poll [`Self::over_budget`]
    /// off their hot path and react by evicting state.
    pub fn set_budget(&mut self, bytes: Option<usize>) {
        self.budget = bytes;
    }

    /// The configured cap, if any.
    pub fn budget(&self) -> Option<usize> {
        self.budget
    }

    /// True when the current modeled total exceeds the budget. Also
    /// latches the sticky [`Self::breached`] flag.
    #[inline]
    pub fn over_budget(&mut self) -> bool {
        match self.budget {
            Some(b) if self.current_total() > b => {
                self.breached = true;
                true
            }
            _ => false,
        }
    }

    /// True if the budget was ever exceeded during the run (sticky).
    pub fn breached(&self) -> bool {
        self.breached
    }

    /// Serializes the gauge state. The budget itself is *not* encoded —
    /// it is run configuration, reapplied by the caller after decode.
    pub fn encode(&self, w: &mut dgrace_trace::SnapshotWriter) {
        for v in self.current.iter().chain(self.peak.iter()) {
            w.u64(*v as u64);
        }
        w.u64(self.peak_total as u64);
        w.u64(self.vc_count as u64);
        w.u64(self.peak_vc_count as u64);
        w.bool(self.breached);
    }

    /// Rebuilds a gauge from [`MemoryModel::encode`]d bytes, with no
    /// budget set (the caller reapplies its configured budget).
    pub fn decode(
        r: &mut dgrace_trace::SnapshotReader<'_>,
    ) -> Result<Self, dgrace_trace::TraceError> {
        let mut m = MemoryModel::new();
        for v in m.current.iter_mut().chain(m.peak.iter_mut()) {
            *v = r.u64()? as usize;
        }
        m.peak_total = r.u64()? as usize;
        m.vc_count = r.u64()? as usize;
        m.peak_vc_count = r.u64()? as usize;
        m.breached = r.bool()?;
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peaks_track_maxima() {
        let mut m = MemoryModel::new();
        m.set(MemClass::Hash, 100);
        m.set(MemClass::VectorClock, 50);
        m.set(MemClass::Hash, 30);
        assert_eq!(m.current(MemClass::Hash), 30);
        assert_eq!(m.peak(MemClass::Hash), 100);
        assert_eq!(m.peak_total(), 150);
        assert_eq!(m.current_total(), 80);
    }

    #[test]
    fn peak_total_is_not_sum_of_peaks() {
        let mut m = MemoryModel::new();
        // Hash peaks while VC is small...
        m.set(MemClass::Hash, 100);
        m.set(MemClass::Hash, 0);
        // ...then VC peaks while Hash is empty.
        m.set(MemClass::VectorClock, 90);
        assert_eq!(m.peak(MemClass::Hash), 100);
        assert_eq!(m.peak(MemClass::VectorClock), 90);
        // Peak *total* is 100, not 190 — the dedup effect.
        assert_eq!(m.peak_total(), 100);
    }

    #[test]
    fn add_applies_deltas() {
        let mut m = MemoryModel::new();
        m.add(MemClass::Bitmap, 64);
        m.add(MemClass::Bitmap, 64);
        m.add(MemClass::Bitmap, -32);
        assert_eq!(m.current(MemClass::Bitmap), 96);
        assert_eq!(m.peak(MemClass::Bitmap), 128);
    }

    #[test]
    fn vc_count_peak() {
        let mut m = MemoryModel::new();
        m.set_vc_count(10);
        m.set_vc_count(4);
        assert_eq!(m.vc_count(), 4);
        assert_eq!(m.peak_vc_count(), 10);
    }

    #[test]
    fn budget_breach_is_sticky() {
        let mut m = MemoryModel::new();
        assert!(!m.over_budget(), "no budget, never over");
        m.set_budget(Some(100));
        m.set(MemClass::Hash, 80);
        assert!(!m.over_budget());
        m.set(MemClass::VectorClock, 40);
        assert!(m.over_budget());
        assert!(m.breached());
        // Shrinking back under budget clears the condition but not the
        // sticky flag.
        m.set(MemClass::VectorClock, 0);
        assert!(!m.over_budget());
        assert!(m.breached());
        assert_eq!(m.budget(), Some(100));
    }

    #[test]
    fn modeled_sizes() {
        assert_eq!(hash_entry_bytes(32), 16 + 128);
        assert_eq!(hash_entry_bytes(128), 16 + 512);
        assert_eq!(vc_cell_bytes(0), 16);
        assert_eq!(vc_cell_bytes(4), 48);
    }
}
