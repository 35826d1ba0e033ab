//! Shared snapshot codec helpers for detector state.
//!
//! A `DGSS` snapshot is one stream: the header and the stack's name
//! ([`crate::DetectorExt::snapshot`]), then one section per layer, outermost
//! first, each opened by its [`Section`] tag. The checkpointing machinery
//! serializes vector clocks, epochs, and the adaptive FastTrack clocks in
//! several detectors; these helpers keep the wire format identical
//! everywhere. All formats are canonical: two semantically equal values
//! always encode to the same bytes (vector clocks enumerate only their
//! nonzero entries, in thread order), which is what makes the
//! byte-identical differential tests meaningful.

use std::fmt;

use dgrace_shadow::{MemoryModel, ShadowStore};
use dgrace_trace::{Addr, SnapshotReader, SnapshotWriter, TraceError};
use dgrace_vc::{AccessClock, Epoch, ReadClock, Tid, VectorClock};

use crate::RaceReport;

/// The layer a section of a `DGSS` snapshot belongs to, written as its
/// first byte. A stack restores only the sections of its own layers, in
/// its own order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Section {
    /// A detector that analyzes events itself: the last section.
    Detector,
    /// [`crate::Sampled`].
    Sampler,
    /// [`crate::StaticPruneFilter`].
    PruneFilter,
}

impl Section {
    const ALL: [Section; 3] = [Section::Detector, Section::Sampler, Section::PruneFilter];

    /// Opens this layer's section.
    pub fn write(self, w: &mut SnapshotWriter) {
        w.u8(self as u8);
    }

    /// Reads the next section's tag and refuses any but this layer's,
    /// naming both.
    pub fn read(self, r: &mut SnapshotReader<'_>) -> Result<(), SectionError> {
        let offset = r.offset();
        let tag = r.u8()?;
        match Section::ALL.get(tag as usize) {
            Some(&found) if found == self => Ok(()),
            Some(found) => Err(SectionError::Mismatch(format!(
                "snapshot has a {found} section where this stack has a {self} section"
            ))),
            None => Err(TraceError::BadTag { offset, tag }.into()),
        }
    }
}

impl fmt::Display for Section {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Section::Detector => "detector",
            Section::Sampler => "sampler",
            Section::PruneFilter => "prune filter",
        })
    }
}

/// Why a section of a snapshot did not restore.
#[derive(Debug)]
pub enum SectionError {
    /// The bytes do not decode.
    Corrupt(TraceError),
    /// The bytes decode, but another layer or configuration wrote them.
    Mismatch(String),
}

impl From<TraceError> for SectionError {
    fn from(e: TraceError) -> Self {
        SectionError::Corrupt(e)
    }
}

/// Serializes a vector clock as its nonzero `(tid, clock)` entries in
/// thread order.
pub fn encode_vc(w: &mut SnapshotWriter, vc: &VectorClock) {
    w.count(vc.active_threads());
    for (t, c) in vc.iter() {
        w.u32(t.0);
        w.u32(c);
    }
}

/// Rebuilds a vector clock from [`encode_vc`]'s format.
pub fn decode_vc(r: &mut SnapshotReader<'_>) -> Result<VectorClock, TraceError> {
    let n = r.count("vector clock entries")?;
    let mut vc = VectorClock::new();
    for _ in 0..n {
        let t = Tid(r.u32()?);
        let c = r.u32()?;
        vc.set(t, c);
    }
    Ok(vc)
}

/// Serializes an epoch as `clock` then `tid`.
pub fn encode_epoch(w: &mut SnapshotWriter, e: Epoch) {
    w.u32(e.clock);
    w.u32(e.tid.0);
}

/// Rebuilds an epoch from [`encode_epoch`]'s format.
pub fn decode_epoch(r: &mut SnapshotReader<'_>) -> Result<Epoch, TraceError> {
    let clock = r.u32()?;
    let tid = Tid(r.u32()?);
    Ok(Epoch::new(clock, tid))
}

/// Serializes an adaptive read clock: tag 0 = epoch form, 1 = inflated.
pub fn encode_read_clock(w: &mut SnapshotWriter, rc: &ReadClock) {
    match rc {
        ReadClock::Epoch(e) => {
            w.u8(0);
            encode_epoch(w, *e);
        }
        ReadClock::Vc(vc) => {
            w.u8(1);
            encode_vc(w, vc);
        }
    }
}

/// Rebuilds a read clock from [`encode_read_clock`]'s format.
pub fn decode_read_clock(r: &mut SnapshotReader<'_>) -> Result<ReadClock, TraceError> {
    let at = r.offset();
    match r.u8()? {
        0 => Ok(ReadClock::Epoch(decode_epoch(r)?)),
        1 => Ok(ReadClock::Vc(decode_vc(r)?)),
        tag => Err(TraceError::BadTag { offset: at, tag }),
    }
}

/// Serializes an access clock: tag 0 = epoch form, 1 = full vector clock.
pub fn encode_access_clock(w: &mut SnapshotWriter, ac: &AccessClock) {
    match ac {
        AccessClock::Epoch(e) => {
            w.u8(0);
            encode_epoch(w, *e);
        }
        AccessClock::Vc(vc) => {
            w.u8(1);
            encode_vc(w, vc);
        }
    }
}

/// Rebuilds an access clock from [`encode_access_clock`]'s format.
pub fn decode_access_clock(r: &mut SnapshotReader<'_>) -> Result<AccessClock, TraceError> {
    let at = r.offset();
    match r.u8()? {
        0 => Ok(AccessClock::Epoch(decode_epoch(r)?)),
        1 => Ok(AccessClock::Vc(decode_vc(r)?)),
        tag => Err(TraceError::BadTag { offset: at, tag }),
    }
}

/// Rebuilds a detector's memory model ([`MemoryModel::encode`]) and
/// refuses one taken under another budget than `budget`, this detector's
/// own: the budget is the per-shard slice of `--memory-limit`, and a run
/// resumed under another would evict at other events than the run that
/// wrote the snapshot.
pub fn decode_model(
    r: &mut SnapshotReader<'_>,
    budget: Option<usize>,
) -> Result<MemoryModel, SectionError> {
    let model = MemoryModel::decode(r)?;
    if model.budget() != budget {
        let limit = |b: Option<usize>| {
            b.map_or("no memory limit".into(), |b| {
                format!("a per-shard memory limit of {b} bytes")
            })
        };
        return Err(SectionError::Mismatch(format!(
            "snapshot was taken under {}, this run has {} — resume with the same --memory-limit",
            limit(model.budget()),
            limit(budget)
        )));
    }
    Ok(model)
}

/// Serializes a detector's race accumulator: a count, then each report.
pub fn encode_races(w: &mut SnapshotWriter, races: &[RaceReport]) {
    w.count(races.len());
    for race in races {
        race.encode(w);
    }
}

/// Rebuilds a race accumulator from [`encode_races`]'s format.
pub fn decode_races(r: &mut SnapshotReader<'_>) -> Result<Vec<RaceReport>, TraceError> {
    let n = r.count("race reports")?;
    let mut races = Vec::new();
    for _ in 0..n {
        races.push(RaceReport::decode(r)?);
    }
    Ok(races)
}

/// Serializes a shadow store: populated cells sorted by address, then the
/// byte-mode chunk list. `enc` writes one cell.
pub fn encode_store<T, S: ShadowStore<T>>(
    w: &mut SnapshotWriter,
    store: &S,
    mut enc: impl FnMut(&mut SnapshotWriter, &T),
) {
    let mut addrs: Vec<Addr> = Vec::with_capacity(store.len());
    store.for_each(|addr, _| addrs.push(addr));
    addrs.sort_unstable();
    w.count(addrs.len());
    for addr in addrs {
        w.u64(addr.0);
        enc(w, store.get(addr).expect("cell enumerated by for_each"));
    }
    let chunks = store.byte_mode_chunks();
    w.count(chunks.len());
    for chunk in chunks {
        w.u64(chunk.0);
    }
}

/// Rebuilds a shadow store from [`encode_store`]'s format. Cells are
/// reinserted in ascending address order and the recorded byte-mode
/// chunks are replayed through [`ShadowStore::force_byte_mode`], so the
/// restored store's index structure (and modeled footprint) matches the
/// original exactly.
pub fn decode_store<T, S: ShadowStore<T>>(
    r: &mut SnapshotReader<'_>,
    mut dec: impl FnMut(&mut SnapshotReader<'_>) -> Result<T, TraceError>,
) -> Result<S, TraceError> {
    let n = r.count("shadow cells")?;
    let mut store = S::default();
    for _ in 0..n {
        let addr = Addr(r.u64()?);
        let cell = dec(r)?;
        store.insert(addr, cell);
    }
    let chunks = r.count("byte-mode chunks")?;
    for _ in 0..chunks {
        store.force_byte_mode(Addr(r.u64()?));
    }
    Ok(store)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: [u8; 4] = *b"TSNP";

    fn round_trip<T, E, D>(value: &T, enc: E, dec: D) -> T
    where
        E: Fn(&mut SnapshotWriter, &T),
        D: Fn(&mut SnapshotReader<'_>) -> Result<T, TraceError>,
    {
        let mut w = SnapshotWriter::new(MAGIC, 1);
        enc(&mut w, value);
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes, MAGIC, 1, Default::default()).unwrap();
        let out = dec(&mut r).unwrap();
        r.expect_end().unwrap();
        out
    }

    #[test]
    fn vc_round_trips_both_reprs() {
        let mut small = VectorClock::new();
        small.set(Tid(1), 7);
        let mut wide = VectorClock::new();
        for t in 0..9u32 {
            wide.set(Tid(t), t + 1);
        }
        for vc in [VectorClock::new(), small, wide] {
            let back = round_trip(&vc, encode_vc, decode_vc);
            assert_eq!(back, vc);
            assert_eq!(back.is_inline(), vc.is_inline());
        }
    }

    #[test]
    fn adaptive_clocks_round_trip() {
        let e = Epoch::new(42, Tid(3));
        assert_eq!(round_trip(&e, |w, v| encode_epoch(w, *v), decode_epoch), e);

        let mut vc = VectorClock::new();
        vc.set(Tid(0), 2);
        vc.set(Tid(5), 9);
        for rc in [ReadClock::Epoch(e), ReadClock::Vc(vc.clone())] {
            assert_eq!(round_trip(&rc, encode_read_clock, decode_read_clock), rc);
        }
        for ac in [AccessClock::Epoch(e), AccessClock::Vc(vc)] {
            assert_eq!(
                round_trip(&ac, encode_access_clock, decode_access_clock),
                ac
            );
        }
    }

    #[test]
    fn bad_tag_is_rejected() {
        let mut w = SnapshotWriter::new(MAGIC, 1);
        w.u8(9);
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes, MAGIC, 1, Default::default()).unwrap();
        assert!(matches!(
            decode_read_clock(&mut r),
            Err(TraceError::BadTag { tag: 9, .. })
        ));
    }
}
