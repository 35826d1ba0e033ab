//! The deterministic fault matrix (ISSUE 4 acceptance criteria):
//!
//! {shard panic at event N, corrupt byte at offset K, shadow budget at
//! ~50% of clean peak} × shard counts {1, 2, 4} — every run must
//! terminate (bounded by a watchdog), never deadlock, and produce a
//! structured degraded report whose race set equals the clean run's
//! races restricted to the healthy shards.
//!
//! Shard routing is predictable by construction: the traces carry no
//! `Alloc` events, so every address routes through the engine's fallback
//! region hash `(addr >> 12) % shards`, and each racy pair lives in its
//! own 4 KiB region.

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use dgrace_detectors::{race_signature, Detector, DetectorExt, FastTrack, RaceKind, Report};
use dgrace_runtime::{
    corrupt_byte, replay, replay_pipelined, replay_sharded, silence_injected_panics, PanicOnEvent,
    RunPlan, Runtime, RuntimeOptions, SupervisorPolicy, Transport,
};
use dgrace_trace::io::{from_bytes, read_trace_with, to_bytes};
use dgrace_trace::{AccessSize, Addr, DecodeLimits, ReadOptions, Trace, TraceBuilder, TraceError};

/// Watchdog: runs `f` on a helper thread and panics if it has not
/// terminated within 30 seconds — a hang or deadlock in a containment
/// path must fail the test, not wedge the suite.
fn run_with_timeout<T: Send + 'static>(name: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let handle = thread::Builder::new()
        .name(name.to_string())
        .spawn(move || {
            let _ = tx.send(f());
        })
        .expect("spawn watchdog thread");
    match rx.recv_timeout(Duration::from_secs(30)) {
        Ok(v) => {
            let _ = handle.join();
            v
        }
        Err(_) => panic!("{name}: did not terminate within 30s"),
    }
}

/// Four racy pairs, one per 4 KiB region (regions 1..=4), plus
/// lock-protected traffic. Region `r` routes to shard `r % shards`.
fn matrix_trace() -> Trace {
    let mut b = TraceBuilder::new();
    b.fork(0u32, 1u32);
    for r in 1..=4u64 {
        let addr = (r << 12) | 0x100;
        b.write(0u32, addr, AccessSize::U64)
            .write(1u32, addr, AccessSize::U64);
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

fn shard_of(addr: Addr, shards: usize) -> usize {
    ((addr.0 >> 12) as usize) % shards
}

/// The clean signature restricted to shards not named in `rep.failures`.
fn restrict_to_healthy(
    clean: &[(Addr, RaceKind)],
    rep: &Report,
    shards: usize,
) -> Vec<(Addr, RaceKind)> {
    let failed: Vec<usize> = rep.failures.iter().map(|f| f.shard).collect();
    clean
        .iter()
        .filter(|(a, _)| !failed.contains(&shard_of(*a, shards)))
        .cloned()
        .collect()
}

#[test]
fn shard_panic_matrix() {
    silence_injected_panics();
    let trace = matrix_trace();
    let clean = race_signature(&FastTrack::new().run(&trace));
    assert_eq!(clean.len(), 4, "clean run sees all four races");

    for shards in [1usize, 2, 4] {
        for target in 0..shards {
            for panic_at in [1u64, 3, 7] {
                let trace = trace.clone();
                let clean = clean.clone();
                let rep = run_with_timeout(
                    &format!("panic-s{shards}-t{target}-n{panic_at}"),
                    move || {
                        let proto = PanicOnEvent::new(FastTrack::new(), target, panic_at);
                        replay_sharded(&proto, &trace, shards)
                    },
                );
                assert_eq!(rep.failures.len(), 1, "s{shards} t{target} n{panic_at}");
                assert_eq!(rep.failures[0].shard, target);
                assert!(rep.failures[0].payload.contains("fault-injection"));
                assert!(rep.is_degraded());
                assert_eq!(
                    rep.stats.events,
                    trace_event_count(),
                    "logical event count stays exact (s{shards} t{target} n{panic_at})"
                );
                let expected = restrict_to_healthy(&clean, &rep, shards);
                assert_eq!(
                    race_signature(&rep),
                    expected,
                    "degraded = clean restricted to healthy shards \
                     (s{shards} t{target} n{panic_at})"
                );
            }
        }
    }
}

fn trace_event_count() -> u64 {
    matrix_trace().len() as u64
}

#[test]
fn corrupt_byte_matrix() {
    let trace = matrix_trace();
    let clean = race_signature(&FastTrack::new().run(&trace));
    let bytes = to_bytes(&trace);

    // Header corruption: strict decode reports a typed error, never
    // panics or hangs.
    for (offset, value) in [(0usize, 0x00u8), (4, 0xEE), (8, 0xFF)] {
        let mut corrupted = bytes.clone();
        corrupt_byte(&mut corrupted, offset, value);
        let err = from_bytes(&corrupted).expect_err("corrupt header must fail");
        match offset {
            0 => assert!(matches!(err, TraceError::BadMagic(_))),
            4 => assert!(matches!(err, TraceError::BadVersion(_))),
            _ => assert!(err.is_corruption() || matches!(err, TraceError::Truncated { .. })),
        }
    }

    // Body corruption on record *tag* bytes (events start at offset 16;
    // fork is 9 bytes, the first write 14): strict mode fails typed;
    // resync mode recovers an in-order subset that replays cleanly at
    // every shard count.
    for offset in [16usize, 25, 39] {
        let mut corrupted = bytes.clone();
        corrupt_byte(&mut corrupted, offset, 0xFF);
        let err = from_bytes(&corrupted).expect_err("corrupt tag must fail strict decode");
        assert!(
            err.is_corruption() || matches!(err, TraceError::Truncated { .. }),
            "offset {offset}: {err}"
        );

        let opts = ReadOptions {
            limits: DecodeLimits::default(),
            resync: true,
        };
        let (recovered, stats) =
            read_trace_with(&mut corrupted.as_slice(), opts).expect("resync decode succeeds");
        assert!(stats.lossy(), "offset {offset}: resync must report loss");
        assert!(stats.dropped_bytes > 0);

        for shards in [1usize, 2, 4] {
            let recovered = recovered.clone();
            let rep = run_with_timeout(&format!("corrupt-o{offset}-s{shards}"), move || {
                replay_sharded(&FastTrack::new(), &recovered, shards)
            });
            // A recovered subset can only miss races, never invent them.
            for sig in race_signature(&rep) {
                assert!(
                    clean.contains(&sig),
                    "offset {offset} s{shards}: phantom race {sig:?}"
                );
            }
        }
    }

    // Corruption inside a payload field (an address byte) may decode to a
    // *semantically different but structurally valid* trace — the decoder
    // cannot detect it. The contract is only: no panic, and the replay
    // still terminates.
    let mut silent = bytes.clone();
    corrupt_byte(&mut silent, 30, 0xFF);
    if let Ok(t) = from_bytes(&silent) {
        let rep = run_with_timeout("corrupt-silent", move || {
            replay_sharded(&FastTrack::new(), &t, 2)
        });
        assert_eq!(rep.failures.len(), 0);
    }
}

#[test]
fn budget_pressure_matrix() {
    // Cold sweep over 256 chunks, then a racy pair at the warmest
    // (highest) address: eviction under a ~50% budget removes cold
    // low-address chunks, so the race survives and the report is
    // flagged rather than aborted.
    let mut b = TraceBuilder::new();
    b.fork(0u32, 1u32);
    for i in 0..256u64 {
        b.write(0u32, 0x1000 + i * 128, AccessSize::U32);
    }
    b.write(0u32, 0x100000u64, AccessSize::U32)
        .write(1u32, 0x100000u64, AccessSize::U32)
        .join(0u32, 1u32);
    let trace = b.build();

    let clean = FastTrack::new().run(&trace);
    assert!(!clean.budget_degraded);
    let budget = (clean.stats.peak_total_bytes / 2) as u64;

    for shards in [1usize, 2, 4] {
        let trace = trace.clone();
        let rep = run_with_timeout(&format!("budget-s{shards}"), move || {
            let mut proto = FastTrack::new();
            // The budget is a whole-run cap: divide it across shards,
            // as the CLI does.
            proto.set_shadow_budget(Some(budget / shards as u64));
            replay_sharded(&proto, &trace, shards)
        });
        assert!(rep.is_degraded(), "s{shards}: budget breach must flag");
        assert!(rep.budget_degraded, "s{shards}");
        assert!(rep.stats.evicted > 0, "s{shards}");
        assert!(rep.failures.is_empty(), "s{shards}: degraded, not failed");
        let races = race_signature(&rep);
        assert!(
            races.contains(&(Addr(0x100000), RaceKind::WriteWrite)),
            "s{shards}: warm race survives eviction; got {races:?}"
        );
    }
}

#[test]
fn combined_faults_still_terminate() {
    silence_injected_panics();
    // Panic + budget pressure at once, across shard counts: the run must
    // still terminate with a structured report.
    let trace = matrix_trace();
    for shards in [1usize, 2, 4] {
        let trace = trace.clone();
        let rep = run_with_timeout(&format!("combined-s{shards}"), move || {
            let mut proto = PanicOnEvent::new(FastTrack::new(), 0, 2);
            proto.set_shadow_budget(Some(1024));
            replay_sharded(&proto, &trace, shards)
        });
        assert_eq!(rep.failures.len(), 1);
        assert!(rep.is_degraded());
    }
}

#[test]
fn online_runtime_contains_shard_panic() {
    silence_injected_panics();
    // The live (threaded) runtime path: a quarantined shard must not
    // poison the engine for the still-running instrumented threads.
    let rep = run_with_timeout("online-panic", || {
        let proto = PanicOnEvent::new(FastTrack::new(), 0, 1);
        let rt = Runtime::with_options(
            &proto,
            RuntimeOptions {
                shards: 2,
                buffer_capacity: 4,
                record: false,
            },
        );
        let main = rt.main();
        let cells: Vec<_> = (0..8).map(|_| rt.cell(0)).collect();
        let (child, ticket) = main.fork();
        let cs = cells.to_vec();
        let jh = thread::spawn(move || {
            for c in &cs {
                c.set(&child, 1);
            }
        });
        for c in &cells {
            c.set(&main, 2);
        }
        jh.join().unwrap();
        main.join(ticket);
        rt.finish()
    });
    assert_eq!(rep.failures.len(), 1, "{:?}", rep.failures);
    assert!(rep.is_degraded());
}

#[test]
fn try_finish_reports_total_failure() {
    silence_injected_panics();
    let proto = PanicOnEvent::new(FastTrack::new(), 0, 1);
    let rt = Runtime::with_options(&proto, RuntimeOptions::default());
    let main = rt.main();
    let c = rt.cell(0);
    c.set(&main, 1);
    drop(main);
    let err = rt.try_finish().expect_err("all shards failed");
    let msg = err.to_string();
    assert!(msg.contains("all 1 detector shards failed"), "{msg}");
}

/// Ring-pipeline fault coverage: a shard panics in its *first* segment
/// while the producer has run far ahead, so its SPSC lane holds many
/// queued segments at quarantine time. The supervisor must heal the
/// shard and every queued segment must be analyzed — zero events lost,
/// zero dropped, and a report equal to the clean funnel run.
#[test]
fn pipeline_panic_with_queued_segments_heals_without_loss() {
    silence_injected_panics();
    // Shard 1 (region 1) receives ~16k accesses — sixteen 1024-event
    // ring segments — including one racy pair; shard 0 (region 2) gets
    // mirrored healthy traffic. The panic fires on shard 1's 100th
    // event, inside its first segment.
    let mut b = TraceBuilder::new();
    b.fork(0u32, 1u32);
    for i in 0..8_000u64 {
        let off = (i % 250) * 16;
        b.write(0u32, 0x1000 + off, AccessSize::U64)
            .write(0u32, 0x2000 + off, AccessSize::U64);
    }
    b.write(0u32, 0x1F00u64, AccessSize::U64)
        .write(1u32, 0x1F00u64, AccessSize::U64)
        .write(0u32, 0x2F00u64, AccessSize::U64)
        .write(1u32, 0x2F00u64, AccessSize::U64)
        .join(0u32, 1u32);
    let trace = b.build();

    let shards = 2usize;
    let clean = replay_sharded(&FastTrack::new(), &trace, shards);
    assert_eq!(race_signature(&clean).len(), 2, "clean run sees both races");

    let trace2 = trace.clone();
    let healed = run_with_timeout("pipeline-queued-heal", move || {
        replay(
            PanicOnEvent::new(FastTrack::new(), 1, 100),
            &trace2,
            &RunPlan {
                shards,
                transport: Transport::Rings,
                supervisor: Some(SupervisorPolicy::default()),
                ..RunPlan::default()
            },
        )
        .expect("replay")
    });
    assert!(healed.failures.is_empty(), "{:?}", healed.failures);
    assert_eq!(healed.stats.events_lost, 0, "healed run loses nothing");
    assert_eq!(healed.stats.dropped, 0, "healed run drops nothing");
    let mut healed = healed;
    healed.detector = clean.detector.clone();
    assert_eq!(healed, clean, "healed pipeline == clean funnel");
}

/// An *unhealable* panic on the pipeline (respawn budget exhausted by a
/// detector that dies on every event) still terminates, quarantines
/// exactly one shard, and partitions that shard's traffic into
/// `events_lost` (analyzed before death) + `dropped` (never analyzed)
/// with nothing counted twice.
#[test]
fn pipeline_exhausted_respawns_partition_loss_exactly() {
    silence_injected_panics();
    let trace = matrix_trace();
    let shards = 2usize;
    let clean = race_signature(&replay_pipelined(&FastTrack::new(), &trace, shards));
    let trace2 = trace.clone();
    let rep = run_with_timeout("pipeline-unhealed", move || {
        replay(
            // Panics on its very first event, and again on every respawn.
            PanicOnEvent::new(FastTrack::new(), 1, 1),
            &trace2,
            &RunPlan {
                shards,
                transport: Transport::Rings,
                supervisor: Some(SupervisorPolicy {
                    max_respawns: 0,
                    window: 100,
                }),
                ..RunPlan::default()
            },
        )
        .expect("replay")
    });
    assert_eq!(rep.failures.len(), 1);
    assert_eq!(rep.failures[0].shard, 1);
    assert!(rep.is_degraded());
    // Logical event count stays exact; the dead shard's traffic is split
    // disjointly between the two loss buckets.
    assert_eq!(rep.stats.events, trace.len() as u64);
    assert!(rep.stats.events_lost + rep.stats.dropped > 0);
    let expected = restrict_to_healthy(&clean, &rep, shards);
    assert_eq!(race_signature(&rep), expected);
}
