//! Address-space atomization.
//!
//! The classifier proves things about *byte ranges*, but accesses
//! overlap arbitrarily (a `U64` write over two `U32` reads, etc.).
//! Splitting the address space at every access boundary yields
//! **atoms**: maximal intervals that every access either fully contains
//! or does not intersect. The classifier keeps one state cell per atom,
//! and every access maps to a contiguous run of atoms — its *span*,
//! resolved here once and stored, so the sweeps index it instead of
//! searching the boundaries again.

use dgrace_trace::Trace;

/// The atomized address space of one trace.
pub(crate) struct Atoms {
    /// Sorted boundary addresses; atom `i` is `[bounds[i], bounds[i+1])`.
    /// Gaps between distant accesses are atoms too; no span covers them.
    pub bounds: Vec<u64>,
    /// The atoms `lo..hi` of the trace's `k`-th access, in trace order.
    pub spans: Vec<(u32, u32)>,
    /// One past the largest thread id any event mentions.
    pub threads: usize,
}

impl Atoms {
    /// Splits the address space at every access boundary of `trace`
    /// (first walk) and resolves every access's span (second walk).
    pub fn build(trace: &Trace) -> Self {
        // Streaming code starts each access where the previous one ended;
        // not pushing that boundary twice halves the sort below.
        let mut bounds: Vec<u64> = Vec::with_capacity(2 * trace.len());
        let mut accesses = 0;
        let mut threads = 0;
        for ev in trace {
            threads = ev.tids().fold(threads, |n, t| n.max(t.index() + 1));
            if let Some((addr, size, _)) = ev.access() {
                if bounds.last() != Some(&addr.0) {
                    bounds.push(addr.0);
                }
                bounds.push(addr.0 + size.bytes());
                accesses += 1;
            }
        }
        bounds.sort_unstable();
        bounds.dedup();
        bounds.shrink_to_fit();
        assert!(
            u32::try_from(bounds.len()).is_ok(),
            "atom indices are stored as u32"
        );

        // Access endpoints were all inserted above, so the search cannot
        // fail and the scan for the end stops at or before the last bound.
        // The previous span is tried first: the same streaming code starts
        // at its end, read-modify-write code at its start.
        let mut spans = Vec::with_capacity(accesses);
        let (mut lo, mut hi) = (0, 0);
        for ev in trace {
            if let Some((addr, size, _)) = ev.access() {
                lo = match [hi, lo].into_iter().find(|&i| bounds[i] == addr.0) {
                    Some(i) => i,
                    None => bounds
                        .binary_search(&addr.0)
                        .expect("access start is a boundary"),
                };
                let end = addr.0 + size.bytes();
                hi = lo + 1;
                while bounds[hi] < end {
                    hi += 1;
                }
                spans.push((lo as u32, hi as u32));
            }
        }
        Atoms {
            bounds,
            spans,
            threads,
        }
    }

    /// Number of atoms (covered or not).
    pub fn len(&self) -> usize {
        self.bounds.len().saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgrace_trace::{AccessSize, TraceBuilder};

    #[test]
    fn overlapping_accesses_split_into_atoms() {
        let mut b = TraceBuilder::new();
        b.write(0u32, 0x100u64, AccessSize::U64)
            .read(0u32, 0x104u64, AccessSize::U32)
            .fork(0u32, 2u32)
            .read(0u32, 0x200u64, AccessSize::U8);
        let atoms = Atoms::build(&b.build());
        // Boundaries: 0x100, 0x104, 0x108, 0x200, 0x201 → 4 atoms, one
        // of which (0x108..0x200) is a gap no span covers.
        assert_eq!(atoms.len(), 4);
        assert_eq!(atoms.bounds, [0x100, 0x104, 0x108, 0x200, 0x201]);
        assert_eq!(atoms.spans, vec![(0, 2), (1, 2), (3, 4)]);
        assert_eq!(atoms.threads, 3);
    }

    #[test]
    fn empty_trace_has_no_atoms() {
        let atoms = Atoms::build(&Trace::new());
        assert_eq!(atoms.len(), 0);
        assert!(atoms.spans.is_empty());
        assert_eq!(atoms.threads, 0);
    }
}
