//! Sampling-tier equivalence acceptance tests.
//!
//! Three invariants, matching the CI `sampling-equivalence` gate:
//!
//! 1. **100% budget is free**: a `Sampled` wrapper whose spec admits
//!    every access (`full`; every `loc:` budget, at most 255, binds)
//!    produces byte-for-byte the report of an unwrapped run — for every
//!    detector family and shard counts 1/2/4 — on arbitrary traces.
//! 2. **Seeded runs are deterministic**: the same spec + seed gives the
//!    identical report on repeat runs, and the funnel and SPSC-pipeline
//!    engines agree event-for-event.
//! 3. **Sampling survives a resume**: a checkpointed sampled run
//!    resumed from its last on-disk manifest finishes with exactly the
//!    uninterrupted sampled report (the sampler's counters ride in its
//!    section of each shard's `DGSS` snapshot).

use std::path::PathBuf;

use dgrace_core::DynamicGranularity;
use dgrace_detectors::{Djit, FastTrack, Report, SampleSpec, Sampled, ShardableDetector};
use dgrace_runtime::{
    replay, replay_pipelined, replay_sharded, CheckpointInterval, CheckpointManifest,
    CheckpointOptions, RunPlan, CHECKPOINT_FILE,
};
use dgrace_trace::{AccessSize, Trace, TraceBuilder};
use proptest::prelude::*;

type Proto = Box<dyn ShardableDetector + Send>;

/// The three detector families: a bare prototype and a
/// sampled prototype wrapping the same detector under `spec`.
/// `(name, bare prototype, prototype sampled under a spec)`.
type Combo = (
    &'static str,
    Box<dyn Fn() -> Proto>,
    Box<dyn Fn(&str) -> Proto>,
);

fn prototypes() -> Vec<Combo> {
    macro_rules! combo {
        ($name:expr, $ty:ty) => {
            (
                $name,
                Box::new(|| Box::new(<$ty>::new()) as Proto) as Box<dyn Fn() -> Proto>,
                Box::new(|spec: &str| {
                    let spec = SampleSpec::parse(spec).expect("valid spec");
                    Box::new(Sampled::new(<$ty>::new(), spec)) as Proto
                }) as Box<dyn Fn(&str) -> Proto>,
            )
        };
    }
    vec![
        combo!("fasttrack", FastTrack),
        combo!("djit", Djit),
        combo!("dynamic", DynamicGranularity),
    ]
}

/// Specs that must admit every access: the wrapper's report may only
/// differ from the bare run in its name and sampling counters.
const FULL_BUDGET_SPECS: [&str; 1] = ["full"];

/// One generated trace operation; threads 1..=3 are forked from 0 and
/// joined at the end, so every op is concurrency-meaningful.
#[derive(Clone, Debug)]
enum Op {
    Read { tid: u32, addr: u64 },
    Write { tid: u32, addr: u64 },
    Locked { tid: u32, lock: u32, addr: u64 },
}

/// Addresses collide across a few 4 KiB regions so shard routing,
/// shadow-cell reuse, and real races are all exercised.
fn arb_addr() -> impl Strategy<Value = u64> {
    (1u64..=4, 0u64..16).prop_map(|(r, o)| (r << 12) | (o * 8))
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u32..4, arb_addr()).prop_map(|(tid, addr)| Op::Read { tid, addr }),
        (0u32..4, arb_addr()).prop_map(|(tid, addr)| Op::Write { tid, addr }),
        (0u32..4, 0u32..2, arb_addr()).prop_map(|(tid, lock, addr)| Op::Locked { tid, lock, addr }),
    ]
}

fn build_trace(ops: &[Op]) -> Trace {
    let mut b = TraceBuilder::new();
    for t in 1..=3u32 {
        b.fork(0u32, t);
    }
    for op in ops {
        match *op {
            Op::Read { tid, addr } => {
                b.read(tid, addr, AccessSize::U64);
            }
            Op::Write { tid, addr } => {
                b.write(tid, addr, AccessSize::U64);
            }
            Op::Locked { tid, lock, addr } => {
                b.locked(tid, lock, |t| {
                    t.write(tid, addr, AccessSize::U64);
                });
            }
        }
    }
    for t in 1..=3u32 {
        b.join(0u32, t);
    }
    b.build()
}

/// Strips what a sampled run is *allowed* to change at 100% budget:
/// the detector name (suffixed with `+sampled@<spec>`) and the two
/// sampling counters. Everything else must match byte-for-byte.
fn normalized(mut rep: Report) -> Report {
    rep.detector = "normalized".to_string();
    rep.stats.sample_admitted = 0;
    rep.stats.sample_skipped = 0;
    rep
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dgrace-sampling-{}-{}",
        std::process::id(),
        tag.replace([':', ','], "-").replace('/', "-")
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Invariant 1 on random traces: every full-budget spec, every
    /// detector family, shards 1/2/4.
    #[test]
    fn full_budget_sampling_is_byte_identical(
        ops in proptest::collection::vec(arb_op(), 1..48)
    ) {
        let trace = build_trace(&ops);
        for (name, bare, sampled) in prototypes() {
            for shards in [1usize, 2, 4] {
                let clean = normalized(replay_sharded(bare().as_ref(), &trace, shards));
                for spec in FULL_BUDGET_SPECS {
                    let rep = replay_sharded(sampled(spec).as_ref(), &trace, shards);
                    prop_assert_eq!(
                        normalized(rep),
                        clean.clone(),
                        "{} s{} spec {}: 100% budget must be invisible",
                        name, shards, spec
                    );
                }
            }
        }
    }
}

/// Invariant 2: a seeded sampled run is deterministic across repeats
/// and across the funnel / SPSC-pipeline engines, for every strategy.
#[test]
fn seeded_sampling_is_deterministic_across_engines() {
    let ops: Vec<Op> = (0..120)
        .map(|i| {
            let tid = (i % 4) as u32;
            let addr = ((1 + (i % 4) as u64) << 12) | (((i / 4) % 16) as u64 * 8);
            match i % 3 {
                0 => Op::Write { tid, addr },
                1 => Op::Read { tid, addr },
                _ => Op::Locked {
                    tid,
                    lock: (i % 2) as u32,
                    addr,
                },
            }
        })
        .collect();
    let trace = build_trace(&ops);
    for spec in [
        "loc:2,seed:42",
        "loc:2,granule:256,seed:42",
        "loc:255,seed:42",
    ] {
        for (name, _, sampled) in prototypes() {
            for shards in [2usize, 4] {
                let funnel = replay_sharded(sampled(spec).as_ref(), &trace, shards);
                let again = replay_sharded(sampled(spec).as_ref(), &trace, shards);
                assert_eq!(
                    funnel, again,
                    "{name} s{shards} {spec}: repeat runs must be identical"
                );
                let piped = replay_pipelined(sampled(spec).as_ref(), &trace, shards);
                assert_eq!(
                    funnel, piped,
                    "{name} s{shards} {spec}: funnel and pipeline must agree"
                );
            }
        }
    }
}

/// Invariant 3: checkpoint + resume in the middle of a *sampled* run.
/// The resumed report must equal the uninterrupted sampled report —
/// i.e. the sampler's counters really are restored, not reset (a reset
/// would re-admit the first `K` accesses of every granule and change
/// the race set).
#[test]
fn resumed_sampled_run_equals_uninterrupted_run() {
    let ops: Vec<Op> = (0..80)
        .map(|i| {
            let tid = (i % 4) as u32;
            let addr = ((1 + (i % 2) as u64) << 12) | (((i / 2) % 8) as u64 * 8);
            if i % 5 == 0 {
                Op::Read { tid, addr }
            } else {
                Op::Write { tid, addr }
            }
        })
        .collect();
    let trace = build_trace(&ops);
    let spec = "loc:1,seed:7";
    for (name, _, sampled) in prototypes() {
        for shards in [1usize, 2] {
            let clean = replay_sharded(sampled(spec).as_ref(), &trace, shards);
            let dir = scratch_dir(&format!("resume-{name}-s{shards}"));
            let ckpt = CheckpointOptions {
                dir: dir.clone(),
                every: CheckpointInterval::Events(7),
            };
            let full = replay(
                &sampled(spec),
                &trace,
                &RunPlan {
                    shards,
                    checkpoint: Some(&ckpt),
                    ..RunPlan::default()
                },
            )
            .expect("checkpointed sampled run");
            assert_eq!(full, clean, "{name} s{shards}: checkpointing is free");

            let manifest = CheckpointManifest::load(&dir.join(CHECKPOINT_FILE))
                .expect("manifest readable")
                .expect("manifest present");
            assert!(manifest.trace_offset > 0);
            let resumed = replay(
                &sampled(spec),
                &trace,
                &RunPlan {
                    shards,
                    resume: Some(&manifest),
                    ..RunPlan::default()
                },
            )
            .expect("resumed sampled run");
            assert_eq!(resumed, clean, "{name} s{shards}: resumed == uninterrupted");

            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
