//! Self-healing and crash-resume acceptance tests.
//!
//! The invariant under test everywhere: a run that loses a detector to a
//! panic and respawns it, or that is interrupted and resumed from its
//! last checkpoint, produces **exactly** the report of an uninterrupted
//! run — same races, same counters — across all three detector families,
//! both shadow-store backends, and shard counts 1/2/4.

use std::path::PathBuf;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use dgrace_core::DynamicGranularityOn;
use dgrace_detectors::{DjitOn, FastTrackOn, Report, ShardableDetector};
use dgrace_runtime::{
    replay, replay_sharded, silence_injected_panics, CheckpointInterval, CheckpointManifest,
    CheckpointOptions, PanicOnEvent, ReplayError, RunPlan, SupervisorPolicy, CHECKPOINT_FILE,
};
use dgrace_shadow::{HashSelect, PagedSelect};
use dgrace_trace::{AccessSize, Trace, TraceBuilder};

type Proto = Box<dyn ShardableDetector + Send>;

/// The six detector × store combinations of the matrix. Each entry
/// yields a fresh bare prototype and a fault-wrapped prototype whose
/// `target`-th spawned shard panics at its `panic_at`-th event.
/// `(name, bare prototype, prototype faulted at (shard, event))`.
type Combo = (
    &'static str,
    Box<dyn Fn() -> Proto>,
    Box<dyn Fn(usize, u64) -> Proto>,
);

fn prototypes() -> Vec<Combo> {
    macro_rules! combo {
        ($name:expr, $ty:ty) => {
            (
                $name,
                Box::new(|| Box::new(<$ty>::new()) as Proto) as Box<dyn Fn() -> Proto>,
                Box::new(|target, at| {
                    Box::new(PanicOnEvent::new(<$ty>::new(), target, at)) as Proto
                }) as Box<dyn Fn(usize, u64) -> Proto>,
            )
        };
    }
    vec![
        combo!("fasttrack/hash", FastTrackOn<HashSelect>),
        combo!("fasttrack/paged", FastTrackOn<PagedSelect>),
        combo!("djit/hash", DjitOn<HashSelect>),
        combo!("djit/paged", DjitOn<PagedSelect>),
        combo!("dynamic/hash", DynamicGranularityOn<HashSelect>),
        combo!("dynamic/paged", DynamicGranularityOn<PagedSelect>),
    ]
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
/// run's report, for every detector family, store backend, and shard
/// count.
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
    let bare = || Box::new(FastTrackOn::<HashSelect>::new()) as Proto;
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
    let fasttrack = || Box::new(FastTrackOn::<HashSelect>::new()) as Proto;
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
    let djit = Box::new(DjitOn::<HashSelect>::new()) as Proto;
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
    let clean = replay_sharded(&FastTrackOn::<HashSelect>::new(), &trace, shards);
    let dir = scratch_dir("supervised-ckpt");
    let ckpt = CheckpointOptions {
        dir: dir.clone(),
        every: CheckpointInterval::Events(2),
    };
    // The target shard panics late (its 5th event), well after several
    // checkpoints have been taken, so the heal path exercises
    // snapshot-restore + delta replay rather than a from-scratch replay.
    let proto = Box::new(PanicOnEvent::new(FastTrackOn::<HashSelect>::new(), 1, 5)) as Proto;
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
