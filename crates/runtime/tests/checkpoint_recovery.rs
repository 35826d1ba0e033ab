//! Self-healing and crash-resume acceptance tests.
//!
//! The invariant under test everywhere: a run that loses a detector to a
//! panic and respawns it, or that is interrupted and resumed from its
//! last checkpoint, produces **exactly** the report of an uninterrupted
//! run — same races, same counters — across all three detector families,
//! the wrapper stacks the CLI builds
//! (`--sample`, `--memory-limit`, both), and shard counts 1/2/4.

use std::path::PathBuf;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use dgrace_core::DynamicGranularity;
use dgrace_detectors::{
    Detector, DetectorExt, Djit, FastTrack, Report, SampleSpec, Sampled, ShardableDetector,
    StaticPruneFilter,
};
use dgrace_runtime::{
    replay, replay_sharded, silence_injected_panics, CheckpointInterval, CheckpointManifest,
    CheckpointOptions, PanicOnEvent, ReplayError, RunPlan, SupervisorPolicy, CHECKPOINT_FILE,
};
use dgrace_trace::{AccessSize, PruneSet, Trace, TraceBuilder};

type Proto = Box<dyn ShardableDetector + Send>;

/// The detector families of the matrix, and the dynamic
/// detector under the wrapper stacks a checkpointing CLI run persists
/// (`Sampled`, a shadow budget, both). Each entry
/// yields a fresh prototype and a fault-wrapped prototype whose
/// `target`-th spawned shard panics at its `panic_at`-th event.
/// `(name, bare prototype, prototype faulted at (shard, event))`.
type Combo = (
    &'static str,
    Box<dyn Fn() -> Proto>,
    Box<dyn Fn(usize, u64) -> Proto>,
);

fn prototypes() -> Vec<Combo> {
    macro_rules! combo {
        ($name:expr, $make:expr) => {
            (
                $name,
                Box::new(|| Box::new($make) as Proto) as Box<dyn Fn() -> Proto>,
                Box::new(|target, at| Box::new(PanicOnEvent::new($make, target, at)) as Proto)
                    as Box<dyn Fn(usize, u64) -> Proto>,
            )
        };
    }
    type Dynamic = DynamicGranularity;
    vec![
        combo!("fasttrack", FastTrack::new()),
        combo!("djit", Djit::new()),
        combo!("dynamic", Dynamic::new()),
        combo!("dynamic+sampled", sampled(Dynamic::new())),
        combo!("dynamic+capped", capped(Dynamic::new())),
        combo!("dynamic+capped+sampled", capped(sampled(Dynamic::new()))),
    ]
}

fn sampled<D: Detector>(d: D) -> Sampled<D> {
    Sampled::new(d, SampleSpec::parse("loc:2,seed:7").unwrap())
}

/// A per-shard shadow budget `matrix_trace` outgrows, so every capped
/// run below evicts. The dynamic detector keeps no same-epoch bitmap, so
/// the trace's modeled peak is its shadow alone: 864 bytes, where the
/// bitmaps once added 4 752.
fn capped<D: Detector>(mut d: D) -> D {
    d.set_shadow_budget(Some(256));
    d
}

/// Watchdog: a hang in a recovery path must fail the test, not wedge
/// the suite.
fn run_with_timeout<T: Send + 'static>(name: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let handle = thread::Builder::new()
        .name(name.to_string())
        .spawn(move || {
            let _ = tx.send(f());
        })
        .expect("spawn watchdog thread");
    match rx.recv_timeout(Duration::from_secs(60)) {
        Ok(v) => {
            let _ = handle.join();
            v
        }
        Err(_) => panic!("{name}: did not terminate within 60s"),
    }
}

/// Four racy pairs, one per 4 KiB region (regions 1..=4), plus
/// lock-protected traffic and fork/join edges. Region `r` routes to
/// shard `r % shards`, so every shard count exercises cross-shard
/// routing.
fn matrix_trace() -> Trace {
    let mut b = TraceBuilder::new();
    b.fork(0u32, 1u32);
    for r in 1..=4u64 {
        let addr = (r << 12) | 0x100;
        b.write(0u32, addr, AccessSize::U64)
            .write(1u32, addr, AccessSize::U64)
            .read(1u32, addr + 8, AccessSize::U64);
    }
    b.locked(0u32, 0u32, |t| {
        t.write(0u32, 0x6000u64, AccessSize::U64);
    })
    .locked(1u32, 0u32, |t| {
        t.write(1u32, 0x6000u64, AccessSize::U64);
    })
    .join(0u32, 1u32);
    b.build()
}

/// Reports are compared in full (races, stats, flags); only the
/// detector name is normalized, because the fault wrapper suffixes it.
fn normalized(mut rep: Report, name: &str) -> Report {
    rep.detector = name.to_string();
    rep
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dgrace-recovery-{}-{}",
        std::process::id(),
        tag.replace('/', "-")
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Tentpole matrix: a shard panic at event N is *healed* by the
/// supervisor — the recovered run's report is byte-for-byte the clean
/// run's report, for every detector family and shard count.
#[test]
fn respawn_matrix_equals_clean_run() {
    silence_injected_panics();
    let trace = matrix_trace();
    for (name, bare, faulty) in prototypes() {
        for shards in [1usize, 2, 4] {
            let clean = replay_sharded(bare().as_ref(), &trace, shards);
            assert!(!clean.races.is_empty(), "{name}: clean run finds races");
            for panic_at in [1u64, 3] {
                let target = shards - 1;
                let proto = faulty(target, panic_at);
                let trace2 = trace.clone();
                let healed = run_with_timeout(
                    &format!("respawn-{name}-s{shards}-n{panic_at}"),
                    move || {
                        replay(
                            proto,
                            &trace2,
                            &RunPlan {
                                shards,
                                supervisor: Some(SupervisorPolicy::default()),
                                ..RunPlan::default()
                            },
                        )
                        .expect("replay")
                    },
                );
                assert!(
                    healed.failures.is_empty(),
                    "{name} s{shards} n{panic_at}: shard must heal, got {:?}",
                    healed.failures
                );
                assert_eq!(
                    normalized(healed, &clean.detector),
                    clean,
                    "{name} s{shards} n{panic_at}: healed run == clean run"
                );
            }
        }
    }
}

/// Checkpoint + resume differential: a run checkpointing every few
/// events, then a second run resumed from the last on-disk manifest,
/// both produce exactly the clean report.
#[test]
fn checkpointed_and_resumed_runs_equal_clean_run() {
    let trace = matrix_trace();
    for (name, bare, _) in prototypes() {
        for shards in [1usize, 2] {
            let clean = replay_sharded(bare().as_ref(), &trace, shards);
            if name.contains("capped") {
                let s = &clean.stats;
                assert!(
                    clean.budget_degraded && s.evicted > 0,
                    "{name} s{shards}: {s:?}"
                );
            }
            let dir = scratch_dir(&format!("resume-{name}-s{shards}"));
            let ckpt = CheckpointOptions {
                dir: dir.clone(),
                every: CheckpointInterval::Events(3),
            };

            // Full run with periodic checkpoints: report unchanged.
            let full = replay(
                bare(),
                &trace,
                &RunPlan {
                    shards,
                    checkpoint: Some(&ckpt),
                    ..RunPlan::default()
                },
            )
            .expect("checkpointed run");
            assert_eq!(full, clean, "{name} s{shards}: checkpointing is free");

            // The manifest on disk is the *last* periodic checkpoint —
            // exactly what survives a kill -9 after that point. Resume
            // from it and finish the tail of the trace.
            let manifest = CheckpointManifest::load(&dir.join(CHECKPOINT_FILE))
                .expect("manifest readable")
                .expect("manifest present");
            assert!(manifest.trace_offset > 0);
            assert!(manifest.trace_offset <= trace.len() as u64);
            let resumed = replay(
                bare(),
                &trace,
                &RunPlan {
                    shards,
                    resume: Some(&manifest),
                    ..RunPlan::default()
                },
            )
            .expect("resumed run");
            assert_eq!(resumed, clean, "{name} s{shards}: resumed run == clean run");

            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Resuming from every checkpoint position — not just the last — lands
/// on the clean report, using an interval of one event so each prefix
/// length is exercised.
#[test]
fn resume_from_every_prefix_equals_clean_run() {
    let trace = matrix_trace();
    let bare = || Box::new(FastTrack::new()) as Proto;
    let shards = 2;
    let clean = replay_sharded(bare().as_ref(), &trace, shards);
    let dir = scratch_dir("every-prefix");
    for stop_after in 1..trace.len() as u64 {
        // Checkpoint exactly once, after `stop_after` events, by running
        // with that interval and keeping only the first manifest: replay
        // over the prefix-truncated trace.
        let prefix: Trace =
            Trace::from_events(trace.iter().take(stop_after as usize).copied().collect());
        let ckpt = CheckpointOptions {
            dir: dir.clone(),
            every: CheckpointInterval::Events(stop_after),
        };
        let _ = replay(
            bare(),
            &prefix,
            &RunPlan {
                shards,
                checkpoint: Some(&ckpt),
                ..RunPlan::default()
            },
        )
        .expect("prefix run");
        let mut manifest = CheckpointManifest::load(&dir.join(CHECKPOINT_FILE))
            .expect("manifest readable")
            .expect("manifest present");
        assert_eq!(manifest.trace_offset, stop_after);
        // The manifest recorded the prefix's length; patch it to the
        // full trace so the resume covers the tail (this mirrors a run
        // over the full trace killed right after this checkpoint).
        manifest.trace_len = trace.len() as u64;
        let resumed = replay(
            bare(),
            &trace,
            &RunPlan {
                shards,
                resume: Some(&manifest),
                ..RunPlan::default()
            },
        )
        .expect("resumed run");
        assert_eq!(
            resumed, clean,
            "resume after {stop_after} events == clean run"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A resume under the wrong configuration is rejected with a structured
/// mismatch, and a torn manifest is rejected at load time.
#[test]
fn mismatched_or_torn_checkpoints_are_rejected() {
    let trace = matrix_trace();
    let dir = scratch_dir("mismatch");
    let ckpt = CheckpointOptions {
        dir: dir.clone(),
        every: CheckpointInterval::Events(4),
    };
    let fasttrack = || Box::new(FastTrack::new()) as Proto;
    let _ = replay(
        fasttrack(),
        &trace,
        &RunPlan {
            shards: 2,
            checkpoint: Some(&ckpt),
            ..RunPlan::default()
        },
    )
    .expect("checkpointed run");
    let path = dir.join(CHECKPOINT_FILE);
    let manifest = CheckpointManifest::load(&path)
        .expect("manifest readable")
        .expect("manifest present");

    // Wrong detector.
    let djit = Box::new(Djit::new()) as Proto;
    let err = replay(
        djit,
        &trace,
        &RunPlan {
            shards: 2,
            resume: Some(&manifest),
            ..RunPlan::default()
        },
    )
    .expect_err("detector mismatch");
    assert!(matches!(err, ReplayError::Mismatch(_)), "{err}");

    // Wrong shard count.
    let err = replay(
        fasttrack(),
        &trace,
        &RunPlan {
            shards: 4,
            resume: Some(&manifest),
            ..RunPlan::default()
        },
    )
    .expect_err("shard mismatch");
    assert!(matches!(err, ReplayError::Mismatch(_)), "{err}");

    // Wrong trace.
    let mut b = TraceBuilder::new();
    b.write(0u32, 0x100u64, AccessSize::U64);
    let other = b.build();
    let err = replay(
        fasttrack(),
        &other,
        &RunPlan {
            shards: 2,
            resume: Some(&manifest),
            ..RunPlan::default()
        },
    )
    .expect_err("trace mismatch");
    assert!(matches!(err, ReplayError::Mismatch(_)), "{err}");

    // Torn file: any truncation fails loudly at load.
    let bytes = std::fs::read(&path).expect("manifest bytes");
    std::fs::write(&path, &bytes[..bytes.len() - 1]).expect("truncate");
    assert!(CheckpointManifest::load(&path).is_err(), "torn manifest");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A failing checkpoint *write* must not abort detection: the run keeps
/// going on the last complete checkpoint, flags the report as
/// `checkpointing_degraded`, and everything else — races, counters —
/// is exactly the clean run.
#[test]
fn checkpoint_write_failure_degrades_not_aborts() {
    let trace = matrix_trace();
    for (name, bare, _) in prototypes() {
        for shards in [1usize, 2] {
            let clean = replay_sharded(bare().as_ref(), &trace, shards);
            let dir = scratch_dir(&format!("wrfail-{name}-s{shards}"));
            std::fs::create_dir_all(&dir).expect("ckpt dir");
            // Squat the manifest path with a non-empty directory: every
            // atomic rename at commit time now fails, the same
            // observable failure as ENOSPC or EIO on the final rename.
            std::fs::create_dir_all(dir.join(CHECKPOINT_FILE).join("occupied"))
                .expect("squat manifest path");
            let ckpt = CheckpointOptions {
                dir: dir.clone(),
                every: CheckpointInterval::Events(3),
            };
            let mut rep = replay(
                bare(),
                &trace,
                &RunPlan {
                    shards,
                    checkpoint: Some(&ckpt),
                    ..RunPlan::default()
                },
            )
            .expect("write failure must not abort the run");
            assert!(
                rep.checkpointing_degraded,
                "{name} s{shards}: failed writes must be flagged"
            );
            // Beyond the flag, the report is untouched by the failure.
            rep.checkpointing_degraded = false;
            assert_eq!(rep, clean, "{name} s{shards}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Supervision composes with checkpoints: a panicking shard heals by
/// restoring its last snapshot and replaying only the journal delta,
/// and the final report still equals the clean run.
#[test]
fn supervised_checkpointed_run_heals_from_snapshot() {
    silence_injected_panics();
    let trace = matrix_trace();
    let shards = 2;
    let clean = replay_sharded(&FastTrack::new(), &trace, shards);
    let dir = scratch_dir("supervised-ckpt");
    let ckpt = CheckpointOptions {
        dir: dir.clone(),
        every: CheckpointInterval::Events(2),
    };
    // The target shard panics late (its 5th event), well after several
    // checkpoints have been taken, so the heal path exercises
    // snapshot-restore + delta replay rather than a from-scratch replay.
    let proto = Box::new(PanicOnEvent::new(FastTrack::new(), 1, 5)) as Proto;
    let trace2 = trace.clone();
    let healed = run_with_timeout("supervised-ckpt", move || {
        replay(
            proto,
            &trace2,
            &RunPlan {
                shards,
                supervisor: Some(SupervisorPolicy::default()),
                checkpoint: Some(&ckpt),
                ..RunPlan::default()
            },
        )
    })
    .expect("supervised checkpointed run");
    assert!(healed.failures.is_empty(), "{:?}", healed.failures);
    assert_eq!(normalized(healed, &clean.detector), clean);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A snapshot restores only into the stack that took it: each pair of
/// distinct stacks refuses the other's, naming both — by name where the
/// names differ, by the first layer whose section differs where they do
/// not.
#[test]
fn a_snapshot_restores_only_into_its_own_stack() {
    type Dynamic = DynamicGranularity;
    /// A stack's layers, outermost first, and how to build it.
    type Stack = (&'static [&'static str], fn() -> Box<dyn Detector>);
    let stacks: [Stack; 3] = [
        (&["detector"], || Box::new(Dynamic::new())),
        (&["sampler", "detector"], || {
            Box::new(sampled(Dynamic::new()))
        }),
        (&["prune filter", "detector"], || {
            Box::new(StaticPruneFilter::new(Dynamic::new(), PruneSet::empty()))
        }),
    ];
    let trace = matrix_trace();
    for (taken, take) in &stacks {
        let mut source = take();
        for ev in trace.iter().take(trace.len() / 2) {
            source.on_event(ev);
        }
        let snap = source.snapshot().expect("the stack snapshots");
        take().restore(&snap).expect("its own stack restores it");
        for (into, make) in stacks.iter().filter(|(into, _)| into != taken) {
            let mut target = make();
            let err = target.restore(&snap).expect_err("another stack refuses it");
            let (a, b) = (source.name(), target.name());
            let names = if a != b {
                [format!("{a:?}"), format!("{b:?}")]
            } else {
                let (x, y) = taken
                    .iter()
                    .zip(into.iter())
                    .find(|(x, y)| x != y)
                    .expect("distinct stacks differ in a layer");
                [format!("a {x} section"), format!("a {y} section")]
            };
            assert!(
                names.iter().all(|n| err.contains(n.as_str())),
                "{taken:?} into {into:?}: {err}"
            );
        }
    }
}

/// A snapshot records the shadow budget it was taken under, and restores
/// only under that budget: another `--memory-limit`, or none, is refused
/// with a message that names both limits.
#[test]
fn a_snapshot_restores_only_under_its_own_budget() {
    let budgets = [None, Some(256), Some(512)];
    let make = |budget: Option<u64>, sampler: bool| -> Box<dyn Detector> {
        let mut det: Box<dyn Detector> = if sampler {
            Box::new(sampled(DynamicGranularity::new()))
        } else {
            Box::new(DynamicGranularity::new())
        };
        det.set_shadow_budget(budget);
        det
    };
    let limit = |b: Option<u64>| b.map_or("no memory limit".into(), |b| format!("{b} bytes"));
    let trace = matrix_trace();
    for sampler in [false, true] {
        for taken in budgets {
            let mut source = make(taken, sampler);
            for ev in trace.iter().take(trace.len() / 2) {
                source.on_event(ev);
            }
            let snap = source.snapshot().expect("the stack snapshots");
            make(taken, sampler)
                .restore(&snap)
                .expect("its own budget restores it");
            for into in budgets.into_iter().filter(|&b| b != taken) {
                let err = make(into, sampler)
                    .restore(&snap)
                    .expect_err("another budget refuses it");
                let at = format!("{taken:?} into {into:?}, sampler {sampler}");
                assert!(err.contains(&limit(taken)), "{at}: {err}");
                assert!(err.contains(&limit(into)), "{at}: {err}");
                assert!(err.contains("--memory-limit"), "{at}: {err}");
            }
        }
    }
}
