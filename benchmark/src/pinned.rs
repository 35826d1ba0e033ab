//! The one file that calls into the dgrace libraries.
//!
//! Every other module of the ledger goes through the names below, so
//! the library surface the benchmark pins is exactly this file (it is
//! listed in `benchmark/README.md`). A refactor that renames or removes
//! one of these re-points it here, in a change to the benchmark of its
//! own, and nothing else in the harness moves.
//!
//! Each wrapper is one library call (or the loop a detector's
//! `DetectorExt::run` is) and nothing more: timing and spans belong to
//! `layers.rs`, which decides what a call costs.

use std::fs::File;
use std::io::BufReader;
use std::path::Path;

use dgrace::analysis::analyze_with_stats;
use dgrace::core::DynamicGranularity;
use dgrace::detectors::{
    merge_shard_reports, Detector, DetectorExt, FastTrack, Granularity, HbState, NopDetector,
    StaticPruneFilter,
};
use dgrace::runtime::{replay_pipelined, replay_sharded, IngestSession, Spsc};
use dgrace::shadow::{PagedShadow, ShadowStore, ShadowTable};
use dgrace::trace::io::{read_trace_with, summary_to_bytes, to_bytes};
use dgrace::trace::{decode_events, encode_events, validate, DecodeLimits, ReadOptions};
use dgrace::vc::VectorClock;
use dgrace::workloads::Workload;
use dgrace_server::Client;

pub use dgrace::detectors::{RaceKind, Report};
pub use dgrace::trace::{AccessSize, Addr, Event, LockId, Tid, Trace};
pub use dgrace::workloads::WorkloadKind;

/// A library generator at a scale and seed: the trace and the planted
/// racy addresses (`GroundTruth::racy_addrs`).
pub fn library_workload(kind: WorkloadKind, scale: f64, seed: u64) -> (Trace, Vec<u64>) {
    let (trace, truth) = Workload::new(kind)
        .with_scale(scale)
        .with_seed(seed)
        .generate();
    (trace, truth.racy_addrs.iter().map(|a| a.0).collect())
}

/// `trace::io::to_bytes`: the on-disk `.dgrt` encoding.
pub fn encode_trace(trace: &Trace) -> Vec<u8> {
    to_bytes(trace)
}

/// `trace::io::read_trace_with` through a `BufReader<File>` under
/// default options — the call `dgrace detect` makes to load its input.
pub fn decode_trace_file(path: &Path) -> Result<Trace, String> {
    let f = File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    read_trace_with(&mut BufReader::new(f), ReadOptions::default())
        .map(|(t, _)| t)
        .map_err(|e| format!("decode {}: {e}", path.display()))
}

/// `trace::validate`.
pub fn validate_trace(trace: &Trace) -> Result<(), String> {
    validate(trace).map_err(|e| e.to_string())
}

/// `trace::frame::encode_events`: one `EVENTS` frame payload.
pub fn frame_encode(events: &[Event]) -> Vec<u8> {
    encode_events(events)
}

/// `trace::frame::decode_events` under default limits; the decoded
/// events, or the decoder's error.
pub fn frame_decode(payload: &[u8]) -> Result<Vec<Event>, String> {
    let d = decode_events(payload, 0, &DecodeLimits::default());
    match d.error {
        None => Ok(d.events),
        Some(e) => Err(e.to_string()),
    }
}

/// `Detector::on_event` over the whole trace, then `finish`
/// (`DetectorExt::run`).
fn run(mut det: impl Detector, trace: &Trace) -> Report {
    det.run(trace)
}

/// `NopDetector`: the dispatch floor.
pub fn run_nop(trace: &Trace) -> Report {
    run(NopDetector::default(), trace)
}

/// `FastTrack` at byte granularity on the hash store: the paper's
/// baseline.
pub fn run_fasttrack_byte(trace: &Trace) -> Report {
    run(FastTrack::with_granularity(Granularity::Byte), trace)
}

/// `DynamicGranularity::new()`: what `dgrace detect dynamic` runs with
/// default flags, and the serial reference every run is verified against.
pub fn run_dynamic(trace: &Trace) -> Report {
    run(DynamicGranularity::new(), trace)
}

/// The result of `analyze_with_stats` the ledger needs.
pub struct Analysis {
    /// `(pass name, nanoseconds)` from `PassStats`.
    pub passes: Vec<(&'static str, u128)>,
    /// Length of the encoded `.dgas` summary.
    pub summary_bytes: usize,
    /// Share of accesses at provably race-free locations.
    pub pruned_share: f64,
    /// The dynamic detector behind the prune filter `dgrace detect
    /// dynamic --prune-with` compiles (granule 1, margin 256).
    pruned: StaticPruneFilter<DynamicGranularity>,
}

/// `analysis::analyze_with_stats`.
pub fn analyze(trace: &Trace) -> Analysis {
    let (summary, stats) = analyze_with_stats(trace);
    Analysis {
        passes: stats.iter().map(|p| (p.name, p.nanos)).collect(),
        summary_bytes: summary_to_bytes(&summary).len(),
        pruned_share: summary.stats.prunable_fraction(),
        pruned: StaticPruneFilter::new(DynamicGranularity::new(), summary.prune_set(1, 256)),
    }
}

impl Analysis {
    /// Detection behind the summary's prune set.
    pub fn run_pruned_dynamic(&mut self, trace: &Trace) -> Report {
        self.pruned.run(trace)
    }
}

/// The synchronisation events of a trace, for [`hb_sync`].
pub fn sync_events(trace: &Trace) -> Vec<Event> {
    trace.iter().filter(|e| e.is_sync()).copied().collect()
}

/// `HbState::on_sync` over pre-filtered sync events; the number handled.
pub fn hb_sync(sync: &[Event]) -> u64 {
    let mut hb = HbState::new();
    sync.iter().filter(|ev| hb.on_sync(ev)).count() as u64
}

/// Two vector clocks `width` threads wide, neither below the other, so a
/// join has to look at every entry.
pub fn clock_pair(width: usize) -> (VectorClock, VectorClock) {
    let a: Vec<u32> = (0..width as u32).map(|i| 2 + (i % 3)).collect();
    let b: Vec<u32> = (0..width as u32).map(|i| 4 - (i % 3)).collect();
    (VectorClock::from_slice(&a), VectorClock::from_slice(&b))
}

/// `VectorClock::join` into a fresh copy of `a`, `iters` times. The copy
/// keeps every join doing the same work; [`vc_clone`] prices it.
pub fn vc_join(a: &VectorClock, b: &VectorClock, iters: u64) {
    for _ in 0..iters {
        let mut c = a.clone();
        c.join(std::hint::black_box(b));
        std::hint::black_box(&c);
    }
}

/// `VectorClock::clone`, `iters` times.
pub fn vc_clone(a: &VectorClock, iters: u64) {
    for _ in 0..iters {
        std::hint::black_box(std::hint::black_box(a).clone());
    }
}

/// What replaying an address stream through a `ShadowStore` leaves.
pub struct ShadowTouch {
    pub peak_index_bytes: usize,
    pub peak_locations: usize,
}

fn touch<S: ShadowStore<u32>>(trace: &Trace) -> ShadowTouch {
    let mut store = S::default();
    let mut peak = ShadowTouch {
        peak_index_bytes: 0,
        peak_locations: 0,
    };
    let mut note = |s: &S| {
        peak.peak_index_bytes = peak.peak_index_bytes.max(s.index_bytes());
        peak.peak_locations = peak.peak_locations.max(s.len());
    };
    for ev in trace.iter() {
        match *ev {
            Event::Read { addr, .. } | Event::Write { addr, .. } => match store.get_mut(addr) {
                Some(cell) => *cell = cell.wrapping_add(1),
                None => {
                    store.insert(addr, 1);
                }
            },
            Event::Free { addr, size, .. } => {
                // Frees are where a store shrinks, so the peak is taken
                // just before each.
                note(&store);
                store.remove_range(addr, size, |_, _| {});
            }
            _ => {}
        }
    }
    note(&store);
    std::hint::black_box(&store);
    peak
}

/// The access/free address stream through `ShadowTable`: `get_mut` else
/// `insert` per access, `remove_range` per free.
pub fn shadow_touch_hash(trace: &Trace) -> ShadowTouch {
    touch::<ShadowTable<u32>>(trace)
}

/// The same stream through `PagedShadow`.
pub fn shadow_touch_paged(trace: &Trace) -> ShadowTouch {
    touch::<PagedShadow<u32>>(trace)
}

/// `merge_shard_reports` over `reports`.
pub fn merge_reports(reports: Vec<Report>) -> Report {
    merge_shard_reports(reports)
}

/// `replay_sharded` of the dynamic detector (the serial funnel at
/// `shards == 1`).
pub fn funnel(trace: &Trace, shards: usize) -> Report {
    replay_sharded(&DynamicGranularity::new(), trace, shards)
}

/// `replay_pipelined` of the dynamic detector: what `dgrace detect
/// dynamic --shards N --pipeline` runs.
pub fn pipeline(trace: &Trace, shards: usize) -> Report {
    replay_pipelined(&DynamicGranularity::new(), trace, shards)
}

/// Pushes `segments` through one `Spsc` of the pipeline's lane capacity
/// from a producer thread to this one; the number that arrived.
pub fn ring_transfer(segments: Vec<Vec<Event>>) -> usize {
    let ring: Spsc<Vec<Event>> = Spsc::new(64);
    std::thread::scope(|s| {
        s.spawn(|| {
            for seg in segments {
                if ring.push(seg).is_err() {
                    break;
                }
            }
            ring.close();
        });
        let mut arrived = 0;
        while let Some(seg) = ring.pop() {
            std::hint::black_box(&seg);
            arrived += 1;
        }
        arrived
    })
}

/// One `IngestSession` of the dynamic detector on one shard: what a
/// `dgrace serve` session feeds.
pub struct Ingest(IngestSession);

impl Ingest {
    pub fn new() -> Self {
        Ingest(IngestSession::new(&DynamicGranularity::new(), 1, None))
    }

    /// `IngestSession::feed_all`.
    pub fn feed(&mut self, events: &[Event]) {
        self.0.feed_all(events);
    }

    /// `IngestSession::checkpoint`: captures the engine.
    pub fn checkpoint(&mut self) -> Checkpoint {
        Checkpoint(self.0.checkpoint())
    }

    /// `IngestSession::finalize`.
    pub fn finalize(self) -> Report {
        self.0.finalize()
    }
}

/// A captured `CheckpointManifest`.
pub struct Checkpoint(dgrace::runtime::CheckpointManifest);

impl Checkpoint {
    /// `CheckpointManifest::encode`: the `DGCP` bytes.
    pub fn encode(&self) -> Vec<u8> {
        self.0.encode()
    }
}

/// One `dgrace_server::Client` session against a `dgrace serve` socket.
pub struct Session(Client);

impl Session {
    /// `Client::connect`: the handshake for `session` on the `dynamic`
    /// detector.
    pub fn connect(socket: &Path, session: &str) -> Result<Session, String> {
        Client::connect(socket, session, "dynamic")
            .map(Session)
            .map_err(|e| e.to_string())
    }

    /// `Client::send_events` then `Client::await_credits`: returns once
    /// the server has processed the batch.
    pub fn round_trip(&mut self, events: &[Event]) -> Result<(), String> {
        self.0.send_events(events).map_err(|e| e.to_string())?;
        self.0.await_credits().map_err(|e| e.to_string())
    }

    /// `Client::finish`: `FINISH`, then the server's `REPORT` JSON.
    pub fn finish(self) -> Result<String, String> {
        self.0
            .finish()
            .map(|end| end.report_json)
            .map_err(|e| e.to_string())
    }
}
