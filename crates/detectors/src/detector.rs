//! The detector interface.

use dgrace_trace::{
    Event, EventSource, SnapshotLimits, SnapshotReader, SnapshotWriter, Trace, TraceError,
    STATE_MAGIC, STATE_VERSION,
};

use crate::snap::SectionError;
use crate::Report;

/// An online race detector: consumes the instrumentation event stream and
/// produces a [`Report`].
///
/// Detectors are single-threaded state machines; the `dgrace-runtime`
/// crate serializes events from live threads into a detector behind a
/// lock, exactly as the paper's PIN tool serializes analysis callbacks
/// around its global structures.
///
/// Three methods are required. A wrapper additionally returns the
/// detector it wraps from [`Detector::inner`]/[`Detector::inner_mut`];
/// every optional capability below defaults to asking that detector and,
/// at the bottom of the stack, to a neutral answer — so a wrapper
/// overrides only the capabilities it changes, and a new capability
/// reaches through every existing wrapper without touching one.
///
/// Detectors own their state (`'static`): the engine moves them into
/// shard threads.
pub trait Detector: 'static {
    /// A short stable name (e.g. `"fasttrack-byte"`, `"dynamic"`).
    fn name(&self) -> String;

    /// Processes one event.
    fn on_event(&mut self, ev: &Event);

    /// Finishes the run and extracts the report. The detector is reset to
    /// a fresh state afterwards.
    fn finish(&mut self) -> Report;

    /// The detector this one wraps; `None` (the default) for a detector
    /// that analyzes events itself.
    fn inner(&self) -> Option<&dyn Detector> {
        None
    }

    /// [`Detector::inner`], mutably. A wrapper overrides both.
    fn inner_mut(&mut self) -> Option<&mut dyn Detector> {
        None
    }

    /// Caps the detector's modeled shadow-memory footprint at `bytes`
    /// (`None` removes the cap). Detectors that support graceful
    /// degradation evict cold shadow state once the cap is exceeded and
    /// flag their report as [`Report::budget_degraded`]; the rest ignore
    /// the cap.
    fn set_shadow_budget(&mut self, bytes: Option<u64>) {
        if let Some(d) = self.inner_mut() {
            d.set_shadow_budget(bytes);
        }
    }

    /// Appends this detector's section of a `DGSS` snapshot to `w` — a
    /// [`Section`](crate::snap::Section) tag, its own state, then the
    /// section of the detector it wraps — and returns whether the stack
    /// supports checkpointing. [`DetectorExt::snapshot`] writes the header
    /// around it.
    fn write_section(&self, w: &mut SnapshotWriter) -> bool {
        self.inner().is_some_and(|d| d.write_section(w))
    }

    /// Reads back what [`Detector::write_section`] wrote, replacing this
    /// detector's state; a section of another layer, or of a differently
    /// configured one, is a [`SectionError::Mismatch`].
    fn read_section(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SectionError> {
        match self.inner_mut() {
            Some(d) => d.read_section(r),
            None => Err(SectionError::Mismatch(format!(
                "{}: snapshot/restore not supported",
                self.name()
            ))),
        }
    }

    /// The races reported *so far*, without consuming them: a live view of
    /// the accumulator that [`Detector::finish`] will eventually drain.
    /// Incremental consumers (the ingestion server streaming races back to
    /// clients mid-run) read a watermark suffix of this slice; because
    /// nothing is removed, snapshots and the final report stay
    /// byte-identical to a run that never peeked. Empty for detectors
    /// without an accumulator.
    fn races_so_far(&self) -> &[crate::RaceReport] {
        self.inner().map_or(&[], |d| d.races_so_far())
    }
}

/// A boxed detector is the detector in the box. This is the one impl that
/// forwards every method: a `Box<D>` with `D` unsized cannot hand out
/// `&dyn Detector`, and `on_event` must stay a single virtual call.
impl<D: Detector + ?Sized> Detector for Box<D> {
    fn name(&self) -> String {
        (**self).name()
    }
    fn on_event(&mut self, ev: &Event) {
        (**self).on_event(ev)
    }
    fn finish(&mut self) -> Report {
        (**self).finish()
    }
    fn inner(&self) -> Option<&dyn Detector> {
        (**self).inner()
    }
    fn inner_mut(&mut self) -> Option<&mut dyn Detector> {
        (**self).inner_mut()
    }
    fn set_shadow_budget(&mut self, bytes: Option<u64>) {
        (**self).set_shadow_budget(bytes)
    }
    fn write_section(&self, w: &mut SnapshotWriter) -> bool {
        (**self).write_section(w)
    }
    fn read_section(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SectionError> {
        (**self).read_section(r)
    }
    fn races_so_far(&self) -> &[crate::RaceReport] {
        (**self).races_so_far()
    }
}

/// Convenience extensions: running whole traces, and a detector's state
/// as one `DGSS` snapshot.
pub trait DetectorExt: Detector {
    /// Feeds every event of `trace` and returns the final report.
    fn run(&mut self, trace: &Trace) -> Report {
        self.run_source(trace)
            .expect("a trace in memory has nothing left to decode")
    }

    /// Feeds every event of `source`, block by block, and returns the
    /// final report — or the source's failure, leaving the detector part
    /// way through the trace.
    fn run_source<S: EventSource>(&mut self, mut source: S) -> Result<Report, TraceError> {
        loop {
            let block = source.next_block()?;
            if block.is_empty() {
                return Ok(self.finish());
            }
            for ev in block {
                self.on_event(ev);
            }
        }
    }

    /// The detector's complete analysis state as a `DGSS` snapshot — the
    /// header, the stack's [`Detector::name`], then each layer's section —
    /// or `None` if the stack does not support checkpointing. It restores
    /// through [`DetectorExt::restore`] into a stack of the same layers
    /// and configuration, after which both behave identically on any
    /// event suffix.
    fn snapshot(&self) -> Option<Vec<u8>> {
        let mut w = SnapshotWriter::new(STATE_MAGIC, STATE_VERSION);
        w.str(&self.name());
        self.write_section(&mut w).then(|| w.finish())
    }

    /// Replaces the detector's state with a [`DetectorExt::snapshot`]'s.
    /// A snapshot of another format version, stack or configuration is
    /// refused with a diagnostic; after a refusal the detector's state is
    /// unspecified, and the caller discards it.
    fn restore(&mut self, bytes: &[u8]) -> Result<(), String> {
        let name = self.name();
        let corrupt = |e: TraceError| format!("{name}: corrupt snapshot: {e}");
        let mut r =
            SnapshotReader::new(bytes, STATE_MAGIC, STATE_VERSION, SnapshotLimits::default())
                .map_err(corrupt)?;
        let snap_name = r.str().map_err(corrupt)?;
        if snap_name != name {
            return Err(format!(
                "snapshot is for detector {snap_name:?}, not {name:?}"
            ));
        }
        match self.read_section(&mut r) {
            Ok(()) => r.expect_end().map_err(corrupt),
            Err(SectionError::Corrupt(e)) => Err(corrupt(e)),
            Err(SectionError::Mismatch(m)) => Err(m),
        }
    }
}

impl<D: Detector + ?Sized> DetectorExt for D {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NopDetector;
    use dgrace_trace::{AccessSize, TraceBuilder};

    #[test]
    fn run_feeds_all_events() {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32)
            .write(1u32, 0x10u64, AccessSize::U32)
            .join(0u32, 1u32);
        let trace = b.build();
        let mut d = NopDetector::default();
        let rep = d.run(&trace);
        assert_eq!(rep.stats.events, 3);
        assert_eq!(rep.stats.accesses, 1);
        assert!(rep.races.is_empty());
        // Detector is reusable after finish().
        let rep2 = d.run(&trace);
        assert_eq!(rep2.stats.events, 3);
    }

    #[test]
    fn trait_object_usable() {
        let mut d = NopDetector::default();
        let dyn_d: &mut dyn Detector = &mut d;
        assert_eq!(dyn_d.name(), "nop");
        let rep = dyn_d.run(&dgrace_trace::Trace::new());
        assert_eq!(rep.stats.events, 0);
    }
}
