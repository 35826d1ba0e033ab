//! `dgrace` — the command-line interface.
//!
//! ```text
//! dgrace gen <workload> [--scale S] [--seed N] -o trace.dgrt
//! dgrace analyze <trace.dgrt> [-o summary.dgas] [--json]
//! dgrace detect <detector> <trace.dgrt> [--max-races N] [--shards N] [--pipeline] [--prune-with summary.dgas]
//!                                       [--memory-limit BYTES] [--resync] [--json]
//!                                       [--checkpoint-dir D] [--checkpoint-every N|Ns] [--resume D]
//!                                       [--sample full|loc:K]
//! dgrace serve <socket> [--shards N] [--max-sessions N] [--degrade-sessions N]
//!                       [--degrade-sample SPEC|off] [--idle-timeout SECS]
//!                       [--checkpoint-dir D] [--checkpoint-every N] [--resume]
//!                       [--memory-limit BYTES] [--credits N]
//! dgrace feed <detector> <trace.dgrt> <socket> [--session NAME] [--retry N] [--json] [--resync]
//! dgrace compare <detA> <detB> <trace.dgrt>
//! dgrace stats <trace.dgrt>
//! dgrace list
//! ```
//!
//! Exit codes are stable so scripts can triage failures (see the README
//! troubleshooting table): 0 success (possibly with a flagged degraded
//! report), 2 usage, 3 file i/o, 4 trace decode, 5 trace validation,
//! 6 all detector shards failed, 7 partial report (some shards failed),
//! 8 stale analysis summary (built from a different trace), 9 interrupted
//! by SIGINT/SIGTERM (partial report; final checkpoint written when
//! checkpointing is configured), 141 stdout's reader went away (`out`).

use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use dgrace_analysis::analyze_with_stats;
use dgrace_baselines::{HybridDetector, LockSetDetector, SegmentDetector};
use dgrace_core::{vc_detector, vc_detector_names, VC_DETECTORS};
use dgrace_detectors::{
    Detector, DetectorExt, OracleDetector, Report, SampleSpec, Sampled, ShardableDetector,
    StaticPruneFilter,
};
use dgrace_runtime::{
    replay, CheckpointInterval, CheckpointManifest, CheckpointOptions, ReplayError, RunPlan,
    Transport, CHECKPOINT_FILE,
};
use dgrace_server::{Client, ClientError, Server, ServerConfig};
use dgrace_trace::io::{
    read_trace_with, summary_from_bytes, summary_to_bytes, write_trace, EventReader,
};
use dgrace_trace::{
    stats::stats, validate, write_file_atomic, AnalysisSummary, BlockReader, DecodeLimits,
    DecodeStats, EventSource, LocationClass, PruneSet, ReadOptions, Trace, TraceError, TraceFacts,
    ValidationError,
};
use dgrace_workloads::{Workload, WorkloadKind};

#[macro_use]
mod out;

mod args;
mod json;
mod render;
mod signals;

use args::Parsed;

/// A CLI failure carrying its exit code. Every failure prints as a single
/// actionable line; decode failures name the file, the byte offset, and a
/// recovery hint.
enum Failure {
    /// Bad arguments (exit 2).
    Usage(String),
    /// File could not be opened/created/written (exit 3).
    Io(String),
    /// Trace or summary bytes failed to decode (exit 4).
    Decode(String),
    /// Decoded trace failed semantic validation (exit 5).
    Invalid(String),
    /// Every detector shard was lost; no report exists (exit 6).
    Engine(String),
    /// An analysis summary was built from a different trace than the one
    /// being detected; using it would be unsound (exit 8).
    Stale(String),
}

impl Failure {
    fn exit_code(&self) -> u8 {
        match self {
            Failure::Usage(_) => 2,
            Failure::Io(_) => 3,
            Failure::Decode(_) => 4,
            Failure::Invalid(_) => 5,
            Failure::Engine(_) => 6,
            Failure::Stale(_) => 8,
        }
    }

    fn message(&self) -> &str {
        match self {
            Failure::Usage(m)
            | Failure::Io(m)
            | Failure::Decode(m)
            | Failure::Invalid(m)
            | Failure::Engine(m)
            | Failure::Stale(m) => m,
        }
    }
}

/// Argument-parsing helpers return plain strings; they are all usage
/// errors.
impl From<String> for Failure {
    fn from(m: String) -> Self {
        Failure::Usage(m)
    }
}

impl From<&str> for Failure {
    fn from(m: &str) -> Self {
        Failure::Usage(m.to_string())
    }
}

/// Exit code for a degraded-but-usable report: some shards failed, the
/// printed races cover only the survivors.
const EXIT_PARTIAL: u8 = 7;

/// Exit code for a run wound down by SIGINT/SIGTERM: the report covers
/// the prefix processed so far, and (when checkpointing is configured) a
/// final checkpoint makes the run resumable.
const EXIT_INTERRUPTED: u8 = 9;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(_) if out::reader_gone() => ExitCode::from(out::EXIT_BROKEN_PIPE),
        Ok(code) => code,
        Err(e) => {
            eprintln!("dgrace: {}", e.message());
            if matches!(e, Failure::Usage(_)) {
                eprintln!("run `dgrace help` for usage");
            }
            ExitCode::from(e.exit_code())
        }
    }
}

fn run(argv: &[String]) -> Result<ExitCode, Failure> {
    let Some(cmd) = argv.first() else {
        return Err("missing subcommand".into());
    };
    let rest = &argv[1..];
    match cmd.as_str() {
        "gen" => cmd_gen(rest),
        "analyze" => cmd_analyze(rest),
        "detect" => return cmd_detect(rest),
        "serve" => cmd_serve(rest),
        "feed" => cmd_feed(rest),
        "compare" => cmd_compare(rest),
        "stats" => cmd_stats(rest),
        "list" => {
            cmd_list();
            Ok(())
        }
        "help" | "--help" | "-h" => {
            print_help();
            Ok(())
        }
        other => Err(Failure::Usage(format!("unknown subcommand `{other}`"))),
    }
    .map(|()| ExitCode::SUCCESS)
}

fn print_help() {
    outln!(
        "dgrace — dynamic-granularity data race detection\n\n\
         USAGE:\n\
         \x20 dgrace gen <workload> [--scale S] [--seed N] -o <file>   generate a workload trace\n\
         \x20 dgrace analyze <file> [-o <summary>] [--json]            run the AOT analysis (classify,\n\
         \x20                                                          lock-graph); -o saves a .dgas summary,\n\
         \x20                                                          --json prints a deterministic report\n\
         \x20 dgrace detect <detector> <file> [--max-races N] [--shards N] [--prune-with <summary>]\n\
         \x20                                 [--memory-limit BYTES]   run a detector over a trace,\n\
         \x20                                 [--resync] [--json]      optionally across N address shards,\n\
         \x20                                 [--checkpoint-dir D]     skipping provably race-free accesses;\n\
         \x20                                 [--checkpoint-every N|Ns] --memory-limit caps accounted memory\n\
         \x20                                 [--resume D]             by deterministic eviction of cold\n\
         \x20                                 [--pipeline]             shadow state (the run completes\n\
         \x20                                 [--sample <spec>]        instead of aborting; the cap needs\n\
         \x20                                                          a vector-clock detector); a tight\n\
         \x20                                                          cap can lose every race: at half a\n\
         \x20                                                          run's own peak it kept 0 of 6 races\n\
         \x20                                                          on streamcluster (byte 0 of 4), 0 of\n\
         \x20                                                          1 on pbzip2, 0 of 3 on dedup (scale\n\
         \x20                                                          1, seed 11),\n\
         \x20                                                          --resync skips damaged trace frames,\n\
         \x20                                                          --json prints a deterministic report,\n\
         \x20                                                          --pipeline feeds shards through\n\
         \x20                                                          per-shard SPSC rings (same report),\n\
         \x20                                                          --checkpoint-dir writes durable\n\
         \x20                                                          checkpoints every N events (or Ns\n\
         \x20                                                          seconds), --resume continues an\n\
         \x20                                                          interrupted run from one,\n\
         \x20                                                          --sample bounds overhead by analyzing\n\
         \x20                                                          a subset of accesses: full, or loc:K\n\
         \x20                                                          (K per location then decay) with\n\
         \x20                                                          optional ,granule:G and ,seed:S\n\
         \x20                                                          (sync events are always processed)\n\
         \x20 dgrace serve <socket> [--shards N]                        run the live ingestion server on a\n\
         \x20                       [--max-sessions N]                  Unix socket: hard admission watermark\n\
         \x20                       [--degrade-sessions N]              (shed with OVERLOADED past it), soft\n\
         \x20                       [--degrade-sample SPEC|off]         watermark (new sessions run sampled),\n\
         \x20                       [--idle-timeout SECS]               idle/slowloris quarantine deadline,\n\
         \x20                       [--checkpoint-dir D]                per-session durable checkpoints,\n\
         \x20                       [--checkpoint-every N] [--resume]   --resume reconstructs sessions after\n\
         \x20                       [--memory-limit BYTES]              a crash; SIGINT/SIGTERM stop\n\
         \x20                       [--credits N]                       gracefully (final checkpoints);\n\
         \x20                                                          --memory-limit gives each session\n\
         \x20                                                          limit/max-sessions as its shadow\n\
         \x20                                                          budget\n\
         \x20 dgrace feed <detector> <file> <socket> [--session NAME]   stream a trace into a running server\n\
         \x20                                 [--json] [--resync]       (races stream back live; reconnecting\n\
         \x20                                 [--retry N]               with the same --session resumes);\n\
         \x20                                                          --retry N reconnects with bounded\n\
         \x20                                                          backoff when the server is down or\n\
         \x20                                                          overloaded\n\
         \x20 dgrace compare <detA> <detB> <file>                      diff two detectors' findings\n\
         \x20 dgrace stats <file>                                      trace statistics\n\
         \x20 dgrace list                                              available workloads & detectors\n\n\
         DETECTORS:\n\
         \x20 {}",
        detectors()
            .map(|(name, _)| name)
            .collect::<Vec<_>>()
            .chunks(5)
            .map(|line| line.join(" | "))
            .collect::<Vec<_>>()
            .join(" |\n  ")
    );
}

fn cmd_list() {
    outln!("workloads (the paper's 11 benchmarks):");
    for k in WorkloadKind::ALL {
        outln!(
            "  {:<14} {} worker threads, {} planted races",
            k.name(),
            k.workers(),
            k.planted_races()
        );
    }
    outln!("\ndetectors:");
    for (name, what) in detectors() {
        outln!("  {name:<16} {what}");
    }
}

/// A detector outside the vector-clock family: name, description,
/// constructor. These run serially and have no memory cap.
type SerialOnly = (&'static str, &'static str, fn() -> Box<dyn Detector>);

const SERIAL_ONLY: [SerialOnly; 4] = [
    (
        "oracle",
        "exact first-race oracle (slow; ground truth)",
        || Box::new(OracleDetector::new()),
    ),
    ("segment", "segment comparison (Valgrind DRD class)", || {
        Box::new(SegmentDetector::new())
    }),
    (
        "hybrid",
        "lockset + happens-before (Inspector XE class)",
        || Box::new(HybridDetector::new()),
    ),
    ("lockset", "Eraser LockSet (discipline checker)", || {
        Box::new(LockSetDetector::new())
    }),
];

/// Every detector `detect` accepts, `(name, description)` in listing
/// order: the vector-clock family, then the serial-only ones.
fn detectors() -> impl Iterator<Item = (&'static str, &'static str)> {
    let serial_only = SERIAL_ONLY.iter().map(|&(name, what, _)| (name, what));
    VC_DETECTORS.into_iter().chain(serial_only)
}

/// A detector by name. `capped` says the run was given `--memory-limit`:
/// only the vector-clock family has a memory model to cap, so a
/// serial-only detector refuses it rather than run uncapped.
fn make_detector(name: &str, capped: bool) -> Result<Box<dyn Detector>, Failure> {
    if let Some(det) = vc_detector(name) {
        return Ok(det);
    }
    let Some((.., make)) = SERIAL_ONLY.iter().find(|(n, ..)| *n == name) else {
        return Err(Failure::Usage(format!(
            "unknown detector `{name}` (see `dgrace list`)"
        )));
    };
    if capped {
        return Err(Failure::Usage(format!(
            "detector `{name}` does not support --memory-limit (supported: {})",
            fixed_then_dynamic()
        )));
    }
    Ok(make())
}

/// The vector-clock family's names with the fixed-granularity detectors
/// first, then the dynamic ones — the order two "supported: …" messages
/// have always listed them in.
fn fixed_then_dynamic() -> String {
    let mut family = VC_DETECTORS.map(|(name, _)| name);
    family.sort_by_key(|name| name.starts_with("dynamic"));
    family.join(", ")
}

fn cmd_gen(rest: &[String]) -> Result<(), Failure> {
    let p = Parsed::parse(rest, &["--scale", "--seed", "-o"])?;
    let name = p.positional(0).ok_or("gen: missing workload name")?;
    let kind = WorkloadKind::from_name(name)
        .ok_or_else(|| format!("unknown workload `{name}` (see `dgrace list`)"))?;
    let scale: f64 = p.opt_parse("--scale")?.unwrap_or(1.0);
    let seed: u64 = p.opt_parse("--seed")?.unwrap_or(0);
    let out = p.opt("-o").ok_or("gen: missing -o <file>")?;

    let mut wl = Workload::new(kind).with_scale(scale);
    if seed != 0 {
        wl = wl.with_seed(seed);
    }
    let (trace, truth) = wl.generate();
    let mut w =
        BufWriter::new(File::create(out).map_err(|e| Failure::Io(format!("create {out}: {e}")))?);
    write_trace(&trace, &mut w).map_err(|e| Failure::Io(format!("write {out}: {e}")))?;
    outln!(
        "wrote {} events to {out} ({} planted racy locations)",
        trace.len(),
        truth.racy_addrs.len()
    );
    Ok(())
}

fn cmd_analyze(rest: &[String]) -> Result<(), Failure> {
    let p = Parsed::parse_with_flags(rest, &["-o"], &["--json"])?;
    let path = p.positional(0).ok_or("analyze: missing trace file")?;
    let trace = load_trace(path, false)?;
    let start = std::time::Instant::now();
    let (summary, passes) = analyze_with_stats(&trace);
    let secs = start.elapsed().as_secs_f64();

    if let Some(out) = p.opt("-o") {
        let mut f = File::create(out).map_err(|e| Failure::Io(format!("create {out}: {e}")))?;
        f.write_all(&summary_to_bytes(&summary))
            .map_err(|e| Failure::Io(format!("write {out}: {e}")))?;
    }
    if p.flag("--json") {
        // Deterministic machine-readable output (no wall-clock fields),
        // mirroring `detect --json`: same trace in, same bytes out.
        outln!("{}", json::analyze_report(&summary, &passes));
        return Ok(());
    }

    outln!(
        "analyzed      : {} events, {} access events ({:.1} ms, fingerprint {:#018x})",
        summary.trace_events,
        summary.trace_accesses,
        secs * 1e3,
        summary.fingerprint
    );
    for ps in &passes {
        outln!(
            "  pass {:<15} {:>10} items  {:>8.1} ms",
            ps.name,
            ps.items,
            ps.nanos as f64 / 1e6
        );
    }
    let s = &summary.stats;
    for (class, c) in [
        (LocationClass::ThreadLocal.label(), &s.thread_local),
        (LocationClass::ReadOnlyAfterInit.label(), &s.read_only),
        ("consistently-locked", &s.locked),
        (LocationClass::Contended.label(), &s.contended),
    ] {
        outln!(
            "  {class:<20} {:>10} bytes  {:>10} accesses",
            c.bytes,
            c.accesses
        );
    }
    outln!(
        "prunable      : {} of {} accesses ({:.1}%)",
        s.prunable_accesses(),
        s.total_accesses(),
        s.prunable_fraction() * 100.0
    );
    if summary.warnings.is_empty() {
        outln!("warnings      : none");
    } else {
        outln!("warnings      : {}", summary.warnings.len());
        for w in &summary.warnings {
            match w {
                dgrace_trace::AnalysisWarning::LockOrderCycle { locks } => {
                    let ids: Vec<String> = locks.iter().map(|l| l.0.to_string()).collect();
                    outln!(
                        "  lock-order cycle     : locks {{{}}} acquired in conflicting orders",
                        ids.join(", ")
                    );
                }
                dgrace_trace::AnalysisWarning::UnlockedSharedRange { start, len } => {
                    outln!(
                        "  unlocked shared range: {:#x} +{len} written by multiple threads \
                         without a common lock",
                        start.0
                    );
                }
            }
        }
    }
    if let Some(out) = p.opt("-o") {
        outln!("summary       : written to {out}");
    }
    Ok(())
}

/// Compiles a prune set matched to the detector: the granule is the
/// detector's location width (an access is only pruned when every
/// granule it touches is provably race-free), and the dynamic detector
/// gets a 256-byte safety margin so pruned accesses can never have been
/// clock-sharing neighbors of surviving ones.
fn compile_prune(det_name: &str, summary: &AnalysisSummary) -> Result<PruneSet, String> {
    let (granule, margin) = match det_name {
        "byte" | "djit" => (1, 0),
        "word" => (4, 0),
        "dynamic" | "dynamic-no-init" => (1, 256),
        other => {
            return Err(format!(
                "detector `{other}` does not support --prune-with (supported: {})",
                fixed_then_dynamic()
            ))
        }
    };
    Ok(summary.prune_set(granule, margin))
}

/// One-line decode failure: file, what went wrong (with the byte offset,
/// already part of the error's display), and a recovery hint.
fn decode_failure(path: &str, e: &TraceError, resync_available: bool) -> Failure {
    let hint =
        if resync_available && (e.is_corruption() || matches!(e, TraceError::Truncated { .. })) {
            " (hint: --resync skips damaged frames and keeps the decodable rest)"
        } else {
            ""
        };
    Failure::Decode(format!("decode {path}: {e}{hint}"))
}

/// The reader `detect` and `feed` decode from. Boxed: the decoder built
/// for a bare `File` ran the plain `sync` ledger input 4 % slower.
type Source = BlockReader<Box<dyn Read>>;

/// Opens the trace `detect` or `feed` was pointed at, as a validating
/// reader at its first event, header checked. The trace is read once, a
/// block at a time (DESIGN.md §9.2), so a pipe, `/dev/stdin` or a process
/// substitution costs what the file costs.
fn open_trace(path: &str, resync: bool) -> Result<Source, Failure> {
    let f = File::open(path).map_err(|e| Failure::Io(format!("open {path}: {e}")))?;
    EventReader::with_options(Box::new(f) as Box<dyn Read>, read_options(resync))
        .map(BlockReader::new)
        .map_err(|e| decode_failure(path, &e, !resync))
}

fn read_options(resync: bool) -> ReadOptions {
    ReadOptions {
        limits: DecodeLimits::default(),
        resync,
    }
}

/// What every way of reading a trace does once the whole file has
/// decoded: report resync loss on stderr, then pass the schedule's first
/// defect on — as a warning under `resync`, where a lossy recovery may
/// break well-formedness (e.g. a join whose fork was dropped) and the
/// detectors tolerate that.
fn check_decoded(
    path: &str,
    resync: bool,
    dstats: &DecodeStats,
    valid: &Result<(), ValidationError>,
) -> Result<(), Failure> {
    if dstats.lossy() {
        eprintln!(
            "dgrace: warning: {path}: resync dropped {} event(s) / {} corrupt byte(s); \
             races can only be missed, not invented",
            dstats.dropped_events, dstats.dropped_bytes
        );
    }
    match valid {
        Ok(()) => Ok(()),
        Err(e) if resync => {
            eprintln!(
                "dgrace: warning: {path}: recovered trace fails validation ({e}); continuing"
            );
            Ok(())
        }
        Err(e) => Err(Failure::Invalid(format!("{path}: invalid trace: {e}"))),
    }
}

/// Opens, decodes, and validates a `.dgrt` trace into memory, for the
/// commands that walk it several times. With `resync` the decoder skips
/// damaged byte regions instead of failing, and any loss is reported on
/// stderr; the recovered subset can only *miss* races, never invent
/// them.
fn load_trace(path: &str, resync: bool) -> Result<Trace, Failure> {
    let mut f = File::open(path).map_err(|e| Failure::Io(format!("open {path}: {e}")))?;
    let (trace, dstats) = read_trace_with(&mut f, read_options(resync))
        .map_err(|e| decode_failure(path, &e, !resync))?;
    check_decoded(path, resync, &dstats, &validate(&trace))?;
    Ok(trace)
}

/// What a run owes its trace once its one pass is over: everything a
/// read of the whole file before the run would have reported, in the
/// order it would have reported it, before anything is printed.
struct Checks<'a> {
    path: &'a str,
    resync: bool,
    /// The `--prune-with` summary, once loaded: its path, and the event
    /// count and fingerprint of the trace it was built from.
    summary: Option<(&'a str, u64, u64)>,
}

impl<'a> Checks<'a> {
    /// A decode error of the trace: the file, the offset, the hint.
    fn decode(&self, e: &TraceError) -> Failure {
        decode_failure(self.path, e, !self.resync)
    }

    /// Loads the `.dgas` summary at `path`, to be checked against the
    /// trace when the pass is over, and compiles its prune set.
    fn prune_with(&mut self, path: &'a str, det_name: &str) -> Result<PruneSet, Failure> {
        let bytes = std::fs::read(path).map_err(|e| Failure::Io(format!("open {path}: {e}")))?;
        let summary = summary_from_bytes(&bytes).map_err(|e| decode_failure(path, &e, false))?;
        self.summary = Some((path, summary.trace_events, summary.fingerprint));
        Ok(compile_prune(det_name, &summary)?)
    }

    /// Reads what is left of the trace (nothing, after a run fed it to
    /// the end) and hands its facts on once they pass: decode errors
    /// first, then `check_decoded`, then the summary's staleness — the
    /// event count, then the content fingerprint the pass took. A
    /// summary built from another trace would make pruning unsound; it
    /// is [`Failure::Stale`] (exit 8), so scripts can tell "re-run
    /// analyze" from a corrupt file or a bad invocation.
    fn settle(&self, mut source: Source) -> Result<TraceFacts, Failure> {
        source.drain().map_err(|e| self.decode(&e))?;
        let facts = source.finish();
        check_decoded(self.path, self.resync, &facts.dstats, &facts.valid)?;
        let Some((path, _, fingerprint)) = self.summary else {
            return Ok(facts);
        };
        if let Some(stale) = self.stale_count(facts.events) {
            return Err(stale);
        }
        let fp = facts
            .fingerprint
            .expect("a run given --prune-with fingerprints its trace");
        if fingerprint != fp {
            return Err(Failure::Stale(format!(
                "summary {path} was built from a different trace (fingerprint \
                 {fingerprint:#018x}, this trace is {fp:#018x}); re-run `dgrace analyze`"
            )));
        }
        Ok(facts)
    }

    /// The summary is stale if it was built from a trace of other than
    /// `events` events.
    fn stale_count(&self, events: u64) -> Option<Failure> {
        let (path, built, _) = self.summary?;
        (built != events).then(|| {
            Failure::Stale(format!(
                "summary {path} was built from a {built}-event trace, but this trace has \
                 {events} events (re-run `dgrace analyze`)"
            ))
        })
    }

    /// `e`, a failure to set up or run the detector, unless the trace has
    /// something to report first: the run meets its trace's defects only
    /// as it reads it, and they are reported as if it had been read
    /// before anything else.
    fn first(&self, e: Failure, source: Source) -> Failure {
        self.settle(source).err().unwrap_or(e)
    }

    /// A failed run: the trace's own error is reported as it is (the
    /// reader stops at it), any other gives way to [`Checks::first`].
    /// I/O trouble with checkpoints is exit 3, a torn or truncated
    /// manifest exit 4, and resuming against the wrong detector, shard
    /// count or trace exit 5.
    fn failed(&self, e: ReplayError, source: Source) -> Failure {
        let e = match e {
            ReplayError::Source(e) => return self.decode(&e),
            ReplayError::Io(m) => Failure::Io(m),
            ReplayError::Corrupt(m) => Failure::Decode(m),
            ReplayError::Mismatch(m) => Failure::Invalid(m),
        };
        self.first(e, source)
    }
}

/// What a checkpointed run takes back when it fails a check that a read
/// of its whole trace first would have failed before any manifest was
/// written (DESIGN.md §9.2).
enum Undo {
    /// Nothing: a directory that was there before the run keeps its
    /// manifest, which covers a valid prefix of the trace.
    Keep,
    /// The outermost directory the run created, with all it holds.
    Remove(PathBuf),
    /// A pruned run's manifests were built with a prune set that is only
    /// verified when the pass ends: the manifest file the directory held
    /// before the run, and its bytes (`None`: there was none).
    Restore(PathBuf, Option<Vec<u8>>),
}

impl Undo {
    /// How to undo a run checkpointing into `dir`, `pruned` or not.
    fn plan(dir: &Path, pruned: bool) -> Result<Undo, Failure> {
        let missing = dir
            .ancestors()
            .take_while(|d| !d.as_os_str().is_empty() && !d.exists());
        if let Some(top) = missing.last() {
            return Ok(Undo::Remove(top.to_path_buf()));
        }
        if !pruned {
            return Ok(Undo::Keep);
        }
        let file = dir.join(CHECKPOINT_FILE);
        match std::fs::read(&file) {
            Ok(bytes) => Ok(Undo::Restore(file, Some(bytes))),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Undo::Restore(file, None)),
            Err(e) => Err(Failure::Io(format!("read {}: {e}", file.display()))),
        }
    }

    fn apply(self) {
        let _ = match self {
            Undo::Keep => Ok(()),
            Undo::Remove(dir) => std::fs::remove_dir_all(dir),
            Undo::Restore(file, Some(bytes)) => write_file_atomic(&file, &bytes),
            Undo::Restore(file, None) => std::fs::remove_file(file),
        };
    }
}

/// Prototype for the sharded engine, for the detectors that support
/// address partitioning (the vector-clock family).
fn make_shardable(name: &str) -> Result<Box<dyn ShardableDetector + Send>, Failure> {
    vc_detector(name).ok_or_else(|| {
        Failure::Usage(format!(
            "detector `{name}` does not support --shards (shardable: {})",
            vc_detector_names()
        ))
    })
}

/// What `detect` makes of the bare detector: the sampling tier wrapped
/// around it, and `--memory-limit` as its shadow budget. The limit is a
/// whole-run cap: each shard holds a slice of the address space, so it
/// gets a slice, set on the prototype before any shard is minted (a
/// minted shard carries its prototype's budget). Each shard
/// evicts from its own substream and modeled bytes, never from global
/// allocator state, so the cap is deterministic. Pruning stays outside
/// all of it (the engine prunes upstream of the shards, the serial path
/// in an outermost filter): pruned accesses never reach the sampler, so
/// its budget is spent on the residue that actually needs analysis.
struct Stack {
    sample: Option<SampleSpec>,
    memory_limit: Option<u64>,
    shards: usize,
}

impl Stack {
    /// `B` is the box the stack is built in — a shardable prototype for
    /// the engine, any detector for the serial path — and `sampled` puts
    /// a wrapped detector back into one (`|d| Box::new(d)`).
    fn wrap<B: Detector>(&self, mut det: B, sampled: fn(Sampled<B>) -> B) -> B {
        if let Some(spec) = &self.sample {
            det = sampled(Sampled::new(det, spec.clone()));
        }
        if let Some(lim) = self.memory_limit {
            det.set_shadow_budget(Some((lim / self.shards as u64).max(1)));
        }
        det
    }
}

/// Maps a finished report onto the process exit code: success for clean
/// and budget-degraded runs (the report itself is flagged), `EXIT_PARTIAL`
/// when some shards were quarantined, and an engine failure when *no*
/// shard survived to report anything.
fn detect_exit(report: &Report, shards: usize) -> Result<ExitCode, Failure> {
    if report.failures.is_empty() {
        return Ok(ExitCode::SUCCESS);
    }
    if report.failures.len() >= shards {
        let f = &report.failures[0];
        return Err(Failure::Engine(format!(
            "all {shards} detector shard(s) failed (first: shard {} at event {}: {}); \
             no race report is available",
            f.shard, f.event_seq, f.payload
        )));
    }
    Ok(ExitCode::from(EXIT_PARTIAL))
}

/// Parses `--checkpoint-every`: a bare number is an event count, an
/// `s`-suffixed one is a wall-clock period in seconds.
fn parse_interval(v: &str) -> Result<CheckpointInterval, Failure> {
    let iv = match v.strip_suffix('s') {
        Some(secs) => CheckpointInterval::Secs(secs.parse().map_err(|_| {
            format!("--checkpoint-every: cannot parse `{v}` (use e.g. `65536` or `5s`)")
        })?),
        None => CheckpointInterval::Events(v.parse().map_err(|_| {
            format!("--checkpoint-every: cannot parse `{v}` (use e.g. `65536` or `5s`)")
        })?),
    };
    if matches!(
        iv,
        CheckpointInterval::Events(0) | CheckpointInterval::Secs(0)
    ) {
        return Err("--checkpoint-every must be positive".into());
    }
    Ok(iv)
}

fn cmd_detect(rest: &[String]) -> Result<ExitCode, Failure> {
    let p = Parsed::parse_with_flags(
        rest,
        &[
            "--max-races",
            "--shards",
            "--prune-with",
            "--checkpoint-dir",
            "--checkpoint-every",
            "--resume",
            "--sample",
            "--memory-limit",
        ],
        &["--resync", "--json", "--pipeline"],
    )?;
    let det_name = p.positional(0).ok_or("detect: missing detector name")?;
    let path = p.positional(1).ok_or("detect: missing trace file")?;
    let max_races: usize = p.opt_parse("--max-races")?.unwrap_or(25);
    let shards: usize = p.opt_parse("--shards")?.unwrap_or(1).max(1);
    let memory_limit: Option<u64> = p.opt_parse("--memory-limit")?;
    if memory_limit == Some(0) {
        return Err("--memory-limit must be positive (omit it for no cap)".into());
    }
    let json_out = p.flag("--json");
    let pipeline = p.flag("--pipeline");
    let ckpt_dir = p.opt("--checkpoint-dir").map(PathBuf::from);
    let resume_dir = p.opt("--resume").map(PathBuf::from);
    let every = p
        .opt("--checkpoint-every")
        .map(parse_interval)
        .transpose()?;
    if every.is_some() && ckpt_dir.is_none() && resume_dir.is_none() {
        return Err("--checkpoint-every needs --checkpoint-dir (or --resume) to write to".into());
    }

    let sample: Option<SampleSpec> = p
        .opt("--sample")
        .map(SampleSpec::parse)
        .transpose()
        .map_err(Failure::Usage)?;

    let resync = p.flag("--resync");
    let ckpt_some = ckpt_dir.is_some() || resume_dir.is_some();
    // Every mode reads its trace once (DESIGN.md §9.2). What a read of
    // the whole file first would have reported — a defect, a stale
    // summary — is reported when the pass is over, before any output.
    let mut source = open_trace(path, resync)?;
    let mut checks = Checks {
        path,
        resync,
        summary: None,
    };
    let prune = match p.opt("--prune-with") {
        Some(summary) => {
            source = source.fingerprinted();
            let prune = match checks.prune_with(summary, det_name) {
                Ok(prune) => prune,
                Err(e) => return Err(checks.first(e, source)),
            };
            // Without --resync the header's count is the trace's, so a
            // summary of another length is stale before anything runs.
            if let Some(e) = checks.stale_count(source.remaining()).filter(|_| !resync) {
                return Err(checks.first(e, source));
            }
            prune
        }
        None => PruneSet::empty(),
    };

    let stack = Stack {
        sample,
        memory_limit,
        shards,
    };

    let start = std::time::Instant::now();
    // What to undo in the checkpoint directory if the pass fails its
    // checks, and a `--resume` manifest that was not there (said once the
    // trace has passed).
    let (mut undo, mut missing) = (Undo::Keep, None);
    let run = if ckpt_some || shards > 1 || pipeline {
        // The engine path: sharded replay (1 shard is fine) on either
        // transport, with optional durable checkpoints and crash resume.
        let proto = match make_shardable(det_name) {
            Ok(proto) => stack.wrap(proto, |d| Box::new(d)),
            Err(e) => return Err(checks.first(e, source)),
        };
        let manifest = resume_dir.as_ref().map(|d| d.join(CHECKPOINT_FILE));
        let resume = match manifest.as_deref().map(CheckpointManifest::load) {
            None => None,
            Some(Ok(loaded)) => loaded,
            Some(Err(e)) => {
                let file = manifest.as_deref().expect("loaded").display();
                let e = Failure::Decode(format!("load checkpoint {file}: {e}"));
                return Err(checks.first(e, source));
            }
        };
        missing = manifest.filter(|_| resume.is_none());
        // `--resume D` without `--checkpoint-dir` keeps checkpointing
        // into D, so an interrupted resume is itself resumable.
        let ckpt = ckpt_dir.or(resume_dir).map(|dir| CheckpointOptions {
            dir,
            every: every.unwrap_or(CheckpointInterval::Events(65536)),
        });
        if let Some(c) = &ckpt {
            match Undo::plan(&c.dir, checks.summary.is_some()) {
                Ok(plan) => undo = plan,
                Err(e) => return Err(checks.first(e, source)),
            }
        }
        let plan = RunPlan {
            shards,
            transport: if pipeline {
                Transport::Rings
            } else {
                Transport::Funnel
            },
            prune,
            checkpoint: ckpt.as_ref(),
            resume: resume.as_ref(),
            // Graceful interruption of a durable run: SIGINT/SIGTERM
            // flip a flag the replay loop polls, so the run winds down
            // with a final checkpoint and a partial report (exit 9)
            // instead of dying mid-trace.
            stop: ckpt_some.then(signals::install_stop_flag),
        };
        replay(&proto, &mut source, &plan)
    } else {
        // The direct serial path: the only one the non-shardable
        // detectors (oracle, segment, hybrid, lockset) can run on.
        let mut det = match make_detector(det_name, memory_limit.is_some()) {
            Ok(det) => stack.wrap(det, |d| Box::new(d)),
            Err(e) => return Err(checks.first(e, source)),
        };
        if prune.is_empty() {
            det.run_source(&mut source)
        } else {
            StaticPruneFilter::new(det, prune).run_source(&mut source)
        }
        .map_err(ReplayError::Source)
    };
    let outcome = match run {
        Ok(report) => checks.settle(source).map(|facts| (report, facts)),
        Err(e) => Err(checks.failed(e, source)),
    };
    if let Err(Failure::Decode(_) | Failure::Invalid(_) | Failure::Stale(_)) = &outcome {
        undo.apply();
    }
    let (report, facts) = outcome?;
    if let Some(file) = missing {
        eprintln!(
            "dgrace: note: no checkpoint at {}; starting from the beginning",
            file.display()
        );
    }
    let secs = start.elapsed().as_secs_f64();
    if json_out {
        // Deterministic machine-readable output: no timing, so resumed
        // and uninterrupted runs over the same trace diff byte-equal.
        outln!("{}", json::report(&report, &facts.dstats));
    } else {
        if shards > 1 || pipeline {
            let path = if pipeline { "pipelined" } else { "sharded" };
            outln!("{path} replay: {shards} detector shards (merged report)");
        }
        render::report(&report, facts.events, facts.threads, secs, max_races);
    }
    if signals::stop_requested() && report.stats.events < facts.events {
        eprintln!(
            "dgrace: interrupted; report covers {} of {} events{}",
            report.stats.events,
            facts.events,
            if ckpt_some {
                " (final checkpoint written; rerun with --resume to continue)"
            } else {
                ""
            }
        );
        return Ok(ExitCode::from(EXIT_INTERRUPTED));
    }
    detect_exit(&report, shards)
}

/// Maps a `dgrace feed` client failure onto the stable exit-code
/// classes: transport trouble is i/o (3), a server that breaks protocol
/// is a decode failure (4), a refusal/quarantine is validation (5), and
/// an admission shed is an engine failure (6) — no report exists and
/// retrying later is the remedy.
fn client_failure(e: ClientError) -> Failure {
    match e {
        ClientError::Io(m) => Failure::Io(m),
        ClientError::Protocol(m) => Failure::Decode(format!("server protocol violation: {m}")),
        ClientError::Refused(m) => Failure::Invalid(format!("refused by server: {m}")),
        ClientError::Overloaded => {
            Failure::Engine("server overloaded (connection shed); retry later".to_string())
        }
    }
}

fn cmd_serve(rest: &[String]) -> Result<(), Failure> {
    let p = Parsed::parse_with_flags(
        rest,
        &[
            "--shards",
            "--max-sessions",
            "--degrade-sessions",
            "--degrade-sample",
            "--idle-timeout",
            "--checkpoint-dir",
            "--checkpoint-every",
            "--memory-limit",
            "--credits",
        ],
        &["--resume"],
    )?;
    let socket = p.positional(0).ok_or("serve: missing socket path")?;
    let mut cfg = ServerConfig::new(socket);
    if let Some(n) = p.opt_parse("--shards")? {
        cfg.shards_per_session = n;
    }
    if let Some(n) = p.opt_parse("--max-sessions")? {
        if n == 0 {
            return Err("--max-sessions must be positive".into());
        }
        cfg.max_sessions = n;
    }
    if let Some(n) = p.opt_parse("--degrade-sessions")? {
        cfg.degrade_sessions = n;
    }
    if let Some(spec) = p.opt("--degrade-sample") {
        cfg.degrade_sample = match spec {
            "off" => None,
            s => Some(SampleSpec::parse(s).map_err(Failure::Usage)?),
        };
    }
    if let Some(secs) = p.opt_parse::<u64>("--idle-timeout")? {
        if secs == 0 {
            return Err("--idle-timeout must be positive".into());
        }
        cfg.idle_timeout = std::time::Duration::from_secs(secs);
    }
    cfg.checkpoint_dir = p.opt("--checkpoint-dir").map(PathBuf::from);
    if let Some(n) = p.opt_parse("--checkpoint-every")? {
        if n == 0 {
            return Err("--checkpoint-every must be positive".into());
        }
        cfg.checkpoint_every = n;
    }
    cfg.memory_limit = p.opt_parse("--memory-limit")?;
    if cfg.memory_limit == Some(0) {
        return Err("--memory-limit must be positive (omit it for no cap)".into());
    }
    if let Some(n) = p.opt_parse("--credits")? {
        if n == 0 {
            return Err("--credits must be positive".into());
        }
        cfg.credits = n;
    }
    cfg.resume = p.flag("--resume");
    if cfg.resume && cfg.checkpoint_dir.is_none() {
        return Err("serve: --resume needs --checkpoint-dir to read manifests from".into());
    }

    // SIGINT/SIGTERM stop the accept loop; every live session winds
    // down with a final checkpoint (when durability is on) so a
    // restarted `serve --resume` reconstructs it. A graceful stop is the
    // server's normal lifecycle, so it exits 0.
    let stop = signals::install_stop_flag();
    let server = Server::bind(cfg).map_err(|e| Failure::Io(format!("bind {socket}: {e}")))?;
    eprintln!("dgrace serve: listening on {socket} (SIGINT/SIGTERM to stop gracefully)");
    let stats = server
        .run(Some(stop))
        .map_err(|e| Failure::Io(format!("serve: {e}")))?;
    outln!(
        "served        : {} session(s) finished, {} suspended, {} resumed",
        stats.finished,
        stats.suspended,
        stats.resumed
    );
    outln!(
        "degradation   : {} degraded to sampling, {} shed at admission",
        stats.degraded,
        stats.shed
    );
    outln!(
        "faults        : {} session(s) quarantined, {} event(s) lost (exact)",
        stats.quarantined,
        stats.events_lost
    );
    outln!(
        "throughput    : {} event(s) analyzed, {} race(s) streamed, {} checkpoint(s)",
        stats.events,
        stats.races_streamed,
        stats.checkpoints
    );
    Ok(())
}

/// Backoff before retry `attempt` (1-based): exponential from 100 ms,
/// capped at 5 s, plus a deterministic splitmix-derived jitter of up to
/// 25% so a fleet of clients kicked off together does not reconnect in
/// lockstep.
fn backoff_delay(attempt: u32) -> std::time::Duration {
    let base = 100u64
        .checked_shl(attempt.saturating_sub(1))
        .unwrap_or(u64::MAX)
        .min(5_000);
    let mut z = (attempt as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    std::time::Duration::from_millis(base + z % (base / 4 + 1))
}

/// Connects to the server, retrying transient failures — a socket that
/// is not (yet) accepting, or an `OVERLOADED` shed — up to `retries`
/// times with bounded exponential backoff. Refusals and protocol
/// violations are permanent and fail immediately.
fn connect_with_retry(
    socket: &str,
    session: &str,
    det_name: &str,
    retries: u32,
) -> Result<Client, Failure> {
    let mut attempt = 0u32;
    loop {
        match Client::connect(std::path::Path::new(socket), session, det_name) {
            Ok(c) => return Ok(c),
            Err(e @ (ClientError::Io(_) | ClientError::Overloaded)) if attempt < retries => {
                attempt += 1;
                let delay = backoff_delay(attempt);
                let why = match &e {
                    ClientError::Overloaded => "server overloaded".to_string(),
                    other => other.to_string(),
                };
                eprintln!(
                    "dgrace feed: {why}; retry {attempt}/{retries} in {} ms",
                    delay.as_millis()
                );
                std::thread::sleep(delay);
            }
            Err(e) => return Err(client_failure(e)),
        }
    }
}

fn cmd_feed(rest: &[String]) -> Result<(), Failure> {
    let p = Parsed::parse_with_flags(rest, &["--session", "--retry"], &["--json", "--resync"])?;
    let det_name = p.positional(0).ok_or("feed: missing detector name")?;
    let path = p.positional(1).ok_or("feed: missing trace file")?;
    let socket = p.positional(2).ok_or("feed: missing server socket path")?;
    let retries: u32 = p.opt_parse("--retry")?.unwrap_or(0);
    let resync = p.flag("--resync");
    // Read once, as `detect` reads (DESIGN.md §9.2): the header is
    // checked before connecting, the rest as it is sent. A defect found
    // on the way stops the send without `FINISH`, and the server
    // quarantines the session as it does any client that goes away.
    let mut source = open_trace(path, resync)?;
    let checks = Checks {
        path,
        resync,
        summary: None,
    };

    // The session name is the durable resume identity; default to the
    // trace's file stem so re-feeding the same file resumes it.
    let session = match p.opt("--session") {
        Some(s) => s.to_string(),
        None => std::path::Path::new(path)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "feed".to_string())
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                    c
                } else {
                    '-'
                }
            })
            .collect(),
    };

    let mut client = connect_with_retry(socket, &session, det_name, retries)?;
    let skip = client.start_offset();
    if skip > 0 {
        eprintln!("dgrace feed: resuming session `{session}`: server covers {skip} events");
    }
    if client.degraded() {
        eprintln!(
            "dgrace feed: warning: session admitted on the sampling tier (server under load); \
             recall may drop, every reported race is still real"
        );
    }
    let mut to_skip = skip;
    loop {
        let block = source.next_block().map_err(|e| checks.decode(&e))?;
        if block.is_empty() {
            break;
        }
        let skipped = to_skip.min(block.len() as u64);
        to_skip -= skipped;
        client
            .send_events(&block[skipped as usize..])
            .map_err(client_failure)?;
    }
    let facts = checks.settle(source)?;
    if skip > facts.events {
        return Err(Failure::Invalid(format!(
            "server already covers {skip} events for session `{session}`, but {path} has only \
             {} — wrong trace for this session?",
            facts.events
        )));
    }
    let end = client.finish().map_err(client_failure)?;
    if p.flag("--json") {
        outln!("{}", end.report_json);
    } else {
        outln!(
            "session `{session}`: {} race(s) streamed live; final report:",
            end.races.len()
        );
        outln!("{}", end.report_json);
    }
    Ok(())
}

fn cmd_compare(rest: &[String]) -> Result<(), Failure> {
    let p = Parsed::parse(rest, &[])?;
    let a_name = p.positional(0).ok_or("compare: missing first detector")?;
    let b_name = p.positional(1).ok_or("compare: missing second detector")?;
    let path = p.positional(2).ok_or("compare: missing trace file")?;
    let trace = load_trace(path, false)?;

    let run = |name: &str| -> Result<_, Failure> {
        let mut det = make_detector(name, false)?;
        let start = std::time::Instant::now();
        let rep = det.run(&trace);
        Ok((rep, start.elapsed().as_secs_f64()))
    };
    let (ra, ta) = run(a_name)?;
    let (rb, tb) = run(b_name)?;

    outln!(
        "{:<20} {:>8} races  {:>10.1} ms  {:>10.1} KiB peak",
        ra.detector,
        ra.races.len(),
        ta * 1e3,
        ra.stats.peak_total_bytes as f64 / 1024.0
    );
    outln!(
        "{:<20} {:>8} races  {:>10.1} ms  {:>10.1} KiB peak",
        rb.detector,
        rb.races.len(),
        tb * 1e3,
        rb.stats.peak_total_bytes as f64 / 1024.0
    );

    let sa = ra.race_addrs();
    let sb = rb.race_addrs();
    let only_a: Vec<_> = sa.iter().filter(|x| !sb.contains(x)).collect();
    let only_b: Vec<_> = sb.iter().filter(|x| !sa.contains(x)).collect();
    let both = sa.iter().filter(|x| sb.contains(x)).count();
    outln!("\nagreement: {both} locations in both reports");
    if only_a.is_empty() && only_b.is_empty() {
        outln!("the detectors agree exactly on racy locations");
    }
    if !only_a.is_empty() {
        outln!("only {}: {:?}", ra.detector, only_a);
    }
    if !only_b.is_empty() {
        outln!("only {}: {:?}", rb.detector, only_b);
    }
    // Taint annotations help triage disagreements with `dynamic`.
    for (rep, others) in [(&ra, &sb), (&rb, &sa)] {
        let tainted_extras = rep
            .races
            .iter()
            .filter(|r| r.tainted && !others.contains(&r.addr))
            .count();
        if tainted_extras > 0 {
            outln!(
                "{} flags {tainted_extras} of its extra reports as tainted (sharing artifacts)",
                rep.detector
            );
        }
    }
    Ok(())
}

fn cmd_stats(rest: &[String]) -> Result<(), Failure> {
    let p = Parsed::parse(rest, &[])?;
    let path = p.positional(0).ok_or("stats: missing trace file")?;
    let trace = load_trace(path, false)?;
    render::trace_stats(&stats(&trace), trace.len());
    Ok(())
}
