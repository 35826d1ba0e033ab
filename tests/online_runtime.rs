//! End-to-end online detection with real threads.

use std::sync::Arc;
use std::thread;

use dgrace::core::DynamicGranularity;
use dgrace::detectors::FastTrack;
use dgrace::runtime::{Runtime, RuntimeOptions};

/// A correctly locked producer/consumer program is race-free under the
/// live dynamic detector.
#[test]
fn locked_pipeline_is_race_free() {
    let rt = Runtime::new(DynamicGranularity::new());
    let main = rt.main();
    let buf = rt.array(128);
    let m = Arc::new(rt.mutex(0usize)); // protects `buf` and the cursor

    let mut joins = Vec::new();
    let mut tickets = Vec::new();
    for _ in 0..4 {
        let (child, ticket) = main.fork();
        let buf = buf.clone();
        let m = Arc::clone(&m);
        tickets.push(ticket);
        joins.push(thread::spawn(move || {
            for _ in 0..64 {
                let mut cursor = m.lock(&child);
                let i = *cursor % buf.len();
                let v = buf.get(&child, i);
                buf.set(&child, i, v + 1);
                *cursor += 1;
            }
        }));
    }
    for jh in joins {
        jh.join().unwrap();
    }
    for t in tickets {
        main.join(t);
    }
    let report = rt.finish();
    assert!(report.races.is_empty(), "{:?}", report.races);
    // finish() flushes every per-thread buffer, so the count is exact:
    // 1 alloc + 4 forks + 4 joins + 4 threads x 64 iterations x
    // (acquire + read + write + release).
    assert_eq!(report.stats.events, 1 + 4 + 4 + 4 * 64 * 4);
}

/// Regression test for the finish protocol: with *no* sync operations at
/// all, every access sits in a per-thread buffer until `finish` — which
/// must flush them all, so the event count is exact, not a lower bound.
#[test]
fn finish_flushes_unsynced_buffers() {
    for shards in [1usize, 4] {
        let rt = Runtime::with_options(
            &DynamicGranularity::new(),
            RuntimeOptions {
                shards,
                ..RuntimeOptions::default()
            },
        );
        let main = rt.main();
        let cells: Vec<_> = (0..5).map(|_| rt.cell(0)).collect();
        // 5 cells x 7 writes each, all buffered (no sync, no overflow).
        for c in &cells {
            for v in 0..7 {
                c.set(&main, v);
            }
        }
        let report = rt.finish();
        assert_eq!(
            report.stats.events, 35,
            "shards={shards}: finish must flush all buffers"
        );
        assert_eq!(report.stats.accesses, 35, "shards={shards}");
        assert!(report.races.is_empty(), "single thread cannot race");
    }
}

/// A deliberately racy program is caught by the live detector, and the
/// racy address matches the shared cell.
#[test]
fn unlocked_writer_is_caught() {
    let rt = Runtime::new(FastTrack::new());
    let main = rt.main();
    let cell = rt.cell(0);

    let (child, ticket) = main.fork();
    let c2 = cell.clone();
    let jh = thread::spawn(move || {
        for i in 0..16 {
            c2.set(&child, i);
        }
    });
    for i in 0..16 {
        cell.set(&main, 100 + i);
    }
    jh.join().unwrap();
    main.join(ticket);

    let report = rt.finish();
    assert_eq!(report.races.len(), 1, "first race per location");
    assert_eq!(report.races[0].addr, cell.addr());
}

/// Fork/join edges order accesses: sequential handoff through join is
/// race-free even without locks.
#[test]
fn join_edge_orders_accesses() {
    let rt = Runtime::new(DynamicGranularity::new());
    let main = rt.main();
    let arr = rt.array(32);
    arr.fill(&main, 1);

    let (child, ticket) = main.fork();
    let a2 = arr.clone();
    let jh = thread::spawn(move || {
        for i in 0..32 {
            let v = a2.get(&child, i);
            a2.set(&child, i, v * 2);
        }
    });
    jh.join().unwrap();
    main.join(ticket);

    // Main reads everything back after the join — ordered.
    let mut sum = 0;
    for i in 0..32 {
        sum += arr.get(&main, i);
    }
    assert_eq!(sum, 64);
    let report = rt.finish();
    assert!(report.races.is_empty(), "{:?}", report.races);
}

/// The dynamic detector groups a tracked array's clocks online just as
/// it does offline.
#[test]
fn online_sharing_matches_offline_shape() {
    let rt = Runtime::new(DynamicGranularity::new());
    let main = rt.main();
    let arr = rt.array(256);
    arr.fill(&main, 0); // one epoch, one group
    let report = rt.finish();
    assert!(report.races.is_empty());
    let sh = report.stats.sharing.unwrap();
    assert!(sh.max_group >= 256, "max group {}", sh.max_group);
    assert!(report.stats.peak_vc_count < 16);
}

/// Many detectors work behind the runtime, not just the dynamic one.
#[test]
fn runtime_is_detector_agnostic() {
    let rt = Runtime::new(dgrace::baselines::SegmentDetector::new());
    let main = rt.main();
    let cell = rt.cell(1);
    let (child, ticket) = main.fork();
    let c2 = cell.clone();
    let jh = thread::spawn(move || c2.set(&child, 2));
    cell.set(&main, 3);
    jh.join().unwrap();
    main.join(ticket);
    let report = rt.finish();
    assert_eq!(report.detector, "segment-drd");
    assert_eq!(report.races.len(), 1);
}
