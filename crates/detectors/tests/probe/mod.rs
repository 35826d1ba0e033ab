//! The probe behind `layer_contract.rs` (and the `PanicOnEvent` row in
//! `crates/runtime/tests/layer_contract.rs`, which includes this file).
//!
//! A [`Probe`] is a detector that records every capability set on it and
//! answers every query with a value nothing else would produce.
//! [`assert_reaches_the_probe`] wraps one in a layer and checks the
//! `Detector` contract from the outside: what is set on the layer arrives
//! at the probe, what the probe answers is seen through the layer.

use std::sync::{Arc, Mutex};

use dgrace_detectors::snap::SectionError;
use dgrace_detectors::{Detector, DetectorExt, RaceKind, RaceReport, Report, ShardableDetector};
use dgrace_trace::{Addr, Event, LockId, SnapshotReader, SnapshotWriter};
use dgrace_vc::{Epoch, Tid};

/// What a probe has been told, shared with the test that built it.
#[derive(Default)]
pub struct Seen {
    pub events: u64,
    pub budget: Option<Option<u64>>,
    pub restored: Option<Vec<u8>>,
}

pub struct Probe {
    seen: Arc<Mutex<Seen>>,
    races: Vec<RaceReport>,
}

pub const PROBE_STATE: &[u8] = b"probe state";
pub const PROBE_CLASSES: [u64; 3] = [11, 22, 33];

impl Probe {
    pub fn new() -> (Probe, Arc<Mutex<Seen>>) {
        let seen = Arc::new(Mutex::new(Seen::default()));
        (Probe::sharing(&seen), seen)
    }

    fn sharing(seen: &Arc<Mutex<Seen>>) -> Probe {
        Probe {
            seen: Arc::clone(seen),
            races: vec![RaceReport {
                addr: Addr(0xFACE),
                kind: RaceKind::WriteWrite,
                current: Epoch::new(2, Tid(1)),
                previous: Epoch::new(1, Tid(0)),
                event_index: None,
                share_count: 1,
                tainted: false,
            }],
        }
    }

    fn seen(&self) -> std::sync::MutexGuard<'_, Seen> {
        self.seen.lock().unwrap()
    }
}

impl Detector for Probe {
    fn name(&self) -> String {
        "probe".into()
    }
    fn on_event(&mut self, _: &Event) {
        self.seen().events += 1;
    }
    fn finish(&mut self) -> Report {
        Report {
            detector: self.name(),
            races: self.races.clone(),
            ..Report::default()
        }
    }
    fn set_shadow_budget(&mut self, bytes: Option<u64>) {
        self.seen().budget = Some(bytes);
    }
    fn write_section(&self, w: &mut SnapshotWriter) -> bool {
        w.blob(PROBE_STATE);
        true
    }
    fn read_section(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SectionError> {
        self.seen().restored = Some(r.blob()?);
        Ok(())
    }
    fn races_so_far(&self) -> &[RaceReport] {
        &self.races
    }
    fn mem_classes(&self) -> [u64; 3] {
        PROBE_CLASSES
    }
}

impl ShardableDetector for Probe {
    fn new_shard(&self) -> Box<dyn Detector + Send> {
        Box::new(Probe::sharing(&self.seen))
    }
}

/// Checks one layer (or nesting of layers) around a fresh probe.
pub fn assert_reaches_the_probe<W: Detector>(layer: &str, wrap: impl FnOnce(Probe) -> W) {
    let (probe, seen) = Probe::new();
    let mut det = wrap(probe);
    let seen = || seen.lock().unwrap();

    // Set on the outside, observed inside.
    det.set_shadow_budget(Some(77));
    assert_eq!(seen().budget, Some(Some(77)), "{layer}: set_shadow_budget");
    det.on_event(&Event::Acquire {
        tid: Tid(0),
        lock: LockId(0),
    });
    assert_eq!(seen().events, 1, "{layer}: on_event");

    // Answered inside, seen outside.
    assert_eq!(det.mem_classes(), PROBE_CLASSES, "{layer}: mem_classes");
    let live = det.races_so_far();
    assert_eq!(live.len(), 1, "{layer}: races_so_far");
    assert_eq!(live[0].addr, Addr(0xFACE), "{layer}: races_so_far");

    // A layer may write a section of its own before the probe's; restoring
    // the layer's snapshot must hand the probe its own bytes back.
    let snap = det
        .snapshot()
        .unwrap_or_else(|| panic!("{layer}: snapshot"));
    det.restore(&snap)
        .unwrap_or_else(|e| panic!("{layer}: restore: {e}"));
    assert_eq!(
        seen().restored.as_deref(),
        Some(PROBE_STATE),
        "{layer}: restore"
    );

    assert_eq!(det.finish().races.len(), 1, "{layer}: finish");
}
