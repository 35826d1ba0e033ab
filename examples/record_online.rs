//! Record/replay workflow: run real threads under the live dynamic
//! detector with the engine's journal on (`RuntimeOptions::record`) —
//! races are caught online *and* the observed schedule is captured for
//! offline replay under every other detector.
//!
//! ```text
//! cargo run --release --example record_online
//! ```

use std::sync::Arc;
use std::thread;

use dgrace::baselines::SegmentDetector;
use dgrace::core::DynamicGranularity;
use dgrace::detectors::{Detector, DetectorExt, Djit, FastTrack, OracleDetector};
use dgrace::runtime::{Runtime, RuntimeOptions};
use dgrace::trace::io::{from_bytes, to_bytes};
use dgrace::trace::validate;

fn main() {
    // 1. Record AND detect live: the journal keeps every event the
    //    detector is fed, in the order it was fed.
    let rt = Runtime::with_options(
        &DynamicGranularity::new(),
        RuntimeOptions {
            record: true,
            ..RuntimeOptions::default()
        },
    );
    let main = rt.main();
    let table = rt.array(32);
    let guard = Arc::new(rt.mutex(()));

    let mut joins = Vec::new();
    let mut tickets = Vec::new();
    for w in 0..3u64 {
        let (child, ticket) = main.fork();
        let table = table.clone();
        let guard = Arc::clone(&guard);
        tickets.push(ticket);
        joins.push(thread::spawn(move || {
            for i in 0..64usize {
                if w == 2 && i % 16 == 0 {
                    // The bug: occasionally skips the lock.
                    let v = table.get(&child, i % 32);
                    table.set(&child, i % 32, v + 1);
                } else {
                    let _g = guard.lock(&child);
                    let v = table.get(&child, i % 32);
                    table.set(&child, i % 32, v + 1);
                }
            }
        }));
    }
    for jh in joins {
        jh.join().unwrap();
    }
    for t in tickets {
        main.join(t);
    }

    // Pull the captured execution out, then the live verdict.
    let captured = rt.take_recorded().expect("the runtime is recording");
    let live = rt.finish();
    validate(&captured).expect("recorded schedule is well-formed");
    println!(
        "live run: {} events captured, {} race location(s) found online",
        captured.len(),
        live.race_addrs().len()
    );
    assert!(!live.races.is_empty(), "the buggy worker must be caught");

    // 2. Persist and reload — the byte format is lossless.
    let bytes = to_bytes(&captured);
    let reloaded = from_bytes(&bytes).expect("lossless format");
    assert_eq!(captured, reloaded);
    println!("persisted {} KiB, reloaded identically", bytes.len() / 1024);

    // 3. Replay under the whole detector stack: one schedule, many
    //    analyses, identical verdicts.
    let mut detectors: Vec<Box<dyn Detector>> = vec![
        Box::new(OracleDetector::new()),
        Box::new(FastTrack::new()),
        Box::new(Djit::new()),
        Box::new(DynamicGranularity::new()),
        Box::new(SegmentDetector::new()),
    ];
    for det in detectors.iter_mut() {
        let rep = det.run(&reloaded);
        println!(
            "  {:<16} {} race location(s) at {:?}",
            rep.detector,
            rep.race_addrs().len(),
            rep.race_addrs()
        );
        assert_eq!(
            rep.race_addrs(),
            live.race_addrs(),
            "offline replay must agree with the live verdict"
        );
    }
    println!("\nrecord once, analyze many — all detectors agree on the schedule.");
}
