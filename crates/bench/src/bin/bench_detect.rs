//! End-to-end replay-throughput baseline: events/sec for each tracked
//! detector × shadow store × shard count, written to `BENCH_detect.json`
//! at the repo root in a stable schema so successive runs (and CI
//! artifacts) can be diffed. `bench_scaling_gate` validates the file.
//!
//! ```text
//! cargo run --release -p dgrace-bench --bin bench_detect [-- --scale 0.3]
//! ```
//!
//! Shard count 1 replays through the serial funnel (the correctness
//! reference); counts > 1 go through the SPSC-ring pipeline, so the
//! shard curve measures the parallel ingestion path end to end. The
//! schema lives in [`dgrace_bench::scaling`] (`schema_version` 4:
//! adds the `recall` column and the `sampled@<spec>` rows — the
//! dynamic detector behind the sampling tier at shards=1, with recall
//! measured against the full detector's race set on the same cell).

use std::time::Instant;

use dgrace_bench::scaling::{BenchFile, BenchRun, REQUIRED_SHARDS};
use dgrace_core::DynamicGranularityOn;
use dgrace_detectors::{
    DjitOn, FastTrackOn, Granularity, Report, SampleSpec, Sampled, ShardableDetector,
};
use dgrace_runtime::{replay_pipelined, replay_sharded};
use dgrace_shadow::{HashSelect, PagedSelect, StoreSelect};
use dgrace_trace::{AccessSize, Trace, TraceBuilder};
use dgrace_workloads::{Workload, WorkloadKind};

/// Workloads tracked by the baseline: the three the paper leans on for
/// its sharing argument, one byte-heavy outlier, and ffmpeg.
const WORKLOADS: [WorkloadKind; 5] = [
    WorkloadKind::Pbzip2,
    WorkloadKind::Streamcluster,
    WorkloadKind::Dedup,
    WorkloadKind::X264,
    WorkloadKind::Ffmpeg,
];

/// A synthetic sharing-churn stress: 64 firm groups of 256 words each
/// (two write passes separated by a lock release to force the firm
/// sharing decision), then a racing thread dissolves every group. The
/// dissolve path dominates clock allocation here, making `vc_allocs`
/// track the copy-on-write arena's savings directly.
fn sharing_churn_trace() -> Trace {
    let mut b = TraceBuilder::new();
    b.fork(0u32, 1u32);
    for pass in 0..2 {
        if pass == 1 {
            b.locked(0u32, 0u32, |_| {});
        }
        for g in 0..64u64 {
            let base = 0x10_0000 + g * 0x1000;
            for i in 0..256u64 {
                b.write(0u32, base + i * 4, AccessSize::U32);
            }
        }
    }
    for g in 0..64u64 {
        let base = 0x10_0000 + g * 0x1000;
        b.write(1u32, base + 512, AccessSize::U32);
    }
    b.join(0u32, 1u32);
    b.build()
}

const REPS: usize = 9;
const SEED: u64 = 7;

/// Sampling budgets charted by the recall-vs-overhead rows, highest to
/// lowest. All three are per-location reservoirs: the budget goes to
/// each region's earliest accesses — where races manifest — so hot
/// streaming buffers are thinned aggressively while cold racy flags
/// keep full coverage. Coarsening the counting granule (64 → 256 →
/// 16 KiB) and trimming the budget walks the admission rate down: a
/// coarser region spends its budget sooner and skips more of the
/// tail, trading recall on workloads whose races surface late in a
/// large region for throughput everywhere else.
const SAMPLE_SPECS: [&str; 3] = [
    "loc:8,granule:64",
    "loc:8,granule:256",
    "loc:5,granule:16384",
];

/// The tracked prototypes; their rows carry `variant` `cold`.
fn detector_suite<K: StoreSelect>() -> Vec<Box<dyn ShardableDetector>> {
    vec![
        Box::new(FastTrackOn::<K>::with_granularity(Granularity::Byte)),
        Box::new(DjitOn::<K>::new()),
        Box::new(DynamicGranularityOn::<K>::new()),
    ]
}

/// Best-of-[`REPS`] timed replay: funnel at shards=1, SPSC pipeline
/// otherwise. The replay work is deterministic, so external load can
/// only *add* time — the minimum is the least-contaminated estimate
/// (the usual throughput-benchmark estimator), and much more stable
/// than a median on a busy single-core host.
fn timed(proto: &dyn ShardableDetector, trace: &Trace, shards: usize) -> (f64, Report) {
    let mut times = Vec::with_capacity(REPS);
    let mut report = None;
    for _ in 0..REPS {
        let start = Instant::now();
        let rep = if shards == 1 {
            replay_sharded(proto, trace, shards)
        } else {
            replay_pipelined(proto, trace, shards)
        };
        times.push(start.elapsed().as_secs_f64());
        report = Some(rep);
    }
    times.sort_by(f64::total_cmp);
    (times[0], report.expect("ran at least once"))
}

fn bench_store<K: StoreSelect>(
    store: &'static str,
    workload: &str,
    trace: &Trace,
    runs: &mut Vec<BenchRun>,
) {
    for proto in detector_suite::<K>() {
        for shards in REQUIRED_SHARDS {
            let (secs, rep) = timed(proto.as_ref(), trace, shards);
            runs.push(BenchRun {
                workload: workload.to_string(),
                detector: rep.detector.clone(),
                variant: "cold".to_string(),
                store: store.to_string(),
                shards,
                events: rep.stats.events,
                best_secs: secs,
                races: rep.races.len(),
                vc_allocs: rep.stats.vc_allocs,
                peak_vc_bytes: rep.stats.peak_vc_bytes,
                peak_total_bytes: rep.stats.peak_total_bytes,
                recall: 1.0,
            });
        }
    }
}

/// The recall-vs-overhead rows: the dynamic detector behind the
/// sampling tier at each budget in [`SAMPLE_SPECS`], shards=1 on the
/// hash store. Recall is the fraction of the full detector's racy
/// locations the sampled run still reported; a raceless workload
/// scores 1.0 (nothing to miss).
fn bench_sampled(workload: &str, trace: &Trace, runs: &mut Vec<BenchRun>) {
    let full = DynamicGranularityOn::<HashSelect>::new();
    let (_, oracle) = timed(&full, trace, 1);
    let oracle_addrs = oracle.race_addrs();
    for spec_str in SAMPLE_SPECS {
        let spec = SampleSpec::parse(spec_str).expect("tracked spec parses");
        let proto = Sampled::new(DynamicGranularityOn::<HashSelect>::new(), spec.clone());
        let (secs, rep) = timed(&proto, trace, 1);
        let caught = rep
            .race_addrs()
            .iter()
            .filter(|a| oracle_addrs.contains(a))
            .count();
        let recall = if oracle_addrs.is_empty() {
            1.0
        } else {
            caught as f64 / oracle_addrs.len() as f64
        };
        runs.push(BenchRun {
            workload: workload.to_string(),
            detector: rep.detector.clone(),
            variant: format!("sampled@{spec}"),
            store: "hash".to_string(),
            shards: 1,
            events: rep.stats.events,
            best_secs: secs,
            races: rep.races.len(),
            vc_allocs: rep.stats.vc_allocs,
            peak_vc_bytes: rep.stats.peak_vc_bytes,
            peak_total_bytes: rep.stats.peak_total_bytes,
            recall,
        });
    }
}

fn parse_args() -> (f64, std::path::PathBuf) {
    let default_out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_detect.json");
    let args: Vec<String> = std::env::args().collect();
    let mut scale = 1.0;
    let mut out = default_out;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                scale = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .expect("--scale needs a positive number");
                i += 2;
            }
            "--out" => {
                out = args.get(i + 1).expect("--out needs a path").into();
                i += 2;
            }
            other => panic!("unknown argument {other} (use --scale X / --out PATH)"),
        }
    }
    (scale, out)
}

fn main() {
    let (scale, out_path) = parse_args();
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut runs = Vec::new();
    let mut traces: Vec<(String, Trace)> = WORKLOADS
        .iter()
        .map(|&kind| {
            let (trace, _) = Workload::new(kind)
                .with_scale(scale)
                .with_seed(SEED)
                .generate();
            (kind.name().to_string(), trace)
        })
        .collect();
    traces.push(("sharing-churn".to_string(), sharing_churn_trace()));
    for (name, trace) in &traces {
        eprintln!("{name}: {} events", trace.len());
        bench_store::<HashSelect>("hash", name, trace, &mut runs);
        bench_store::<PagedSelect>("paged", name, trace, &mut runs);
        bench_sampled(name, trace, &mut runs);
    }
    let file = BenchFile {
        schema_version: 4,
        scale,
        seed: SEED,
        host_cpus,
        runs,
    };
    std::fs::write(&out_path, file.to_json()).expect("write BENCH_detect.json");
    // Human-readable digest on stdout: serial throughput plus the
    // pipeline's shards=4 speedup per workload.
    println!("replay throughput (Mev/s), host_cpus={host_cpus}:");
    println!(
        "{:<14} {:<16} {:>8} {:>8} {:>9}",
        "workload", "detector", "hash", "paged", "x4/x1"
    );
    for (name, _) in &traces {
        for base in ["fasttrack-byte", "djit-byte", "dynamic"] {
            let find = |store: &str, shards: usize| {
                file.runs
                    .iter()
                    .find(|r| {
                        r.workload == *name
                            && r.shards == shards
                            && r.store == store
                            && r.variant == "cold"
                            && r.detector.starts_with(base)
                    })
                    .map(BenchRun::events_per_sec)
            };
            if let (Some(h1), Some(p1)) = (find("hash", 1), find("paged", 1)) {
                let speedup = find("hash", 4).map_or(0.0, |h4| h4 / h1.max(1e-9));
                println!(
                    "{:<14} {:<16} {:>8.1} {:>8.1} {:>8.2}x",
                    name,
                    base,
                    h1 / 1e6,
                    p1 / 1e6,
                    speedup
                );
            }
        }
    }
    // The sampling tier's recall-vs-overhead digest: throughput ratio
    // over the full dynamic detector (hash, shards=1) and recall.
    println!("\nsampling tier (dynamic, hash, shards=1):");
    println!(
        "{:<14} {:<16} {:>9} {:>8} {:>7}",
        "workload", "budget", "Mev/s", "vs full", "recall"
    );
    for (name, _) in &traces {
        let full = file
            .runs
            .iter()
            .find(|r| {
                r.workload == *name
                    && r.detector == "dynamic"
                    && r.variant == "cold"
                    && r.store == "hash"
                    && r.shards == 1
            })
            .map(BenchRun::events_per_sec);
        for r in file
            .runs
            .iter()
            .filter(|r| r.workload == *name && r.is_sampled())
        {
            println!(
                "{:<14} {:<16} {:>9.1} {:>7.2}x {:>7.2}",
                name,
                r.variant.trim_start_matches("sampled@"),
                r.events_per_sec() / 1e6,
                r.events_per_sec() / full.unwrap_or(f64::INFINITY),
                r.recall
            );
        }
    }
    println!("wrote {}", out_path.display());
}
