//! The live runtime is one more caller of the replay driver, so what it
//! reports is what an offline replay of its own recorded schedule
//! reports. At one shard the whole `Report` is equal — counters, peaks,
//! sharing statistics and races — not only the race set; at more shards
//! the live runtime routes whole tracked objects where the replay of a
//! trace without their padding falls back to region hashing, so the
//! race signature and the event and access counts are compared there.

use std::sync::Arc;
use std::thread;

use dgrace::core::DynamicGranularity;
use dgrace::detectors::{race_signature, FastTrack, ShardableDetector};
use dgrace::runtime::{replay_sharded, Runtime, RuntimeOptions};
use dgrace::trace::{validate, Trace};

/// Locked updates of a shared array, unsynchronized writes of one cell
/// per worker racing the main thread, and a small odd buffer so that
/// overflow flushes land between a thread's sync events.
fn drive(rt: &Runtime, workers: usize) {
    let main = rt.main();
    let table = rt.array(48);
    let m = Arc::new(rt.mutex(()));
    let racy: Vec<_> = (0..workers).map(|_| rt.cell(0)).collect();
    let mut joins = Vec::new();
    let mut tickets = Vec::new();
    for (w, cell) in racy.iter().enumerate() {
        let (child, ticket) = main.fork();
        let table = table.clone();
        let m = Arc::clone(&m);
        let cell = cell.clone();
        tickets.push(ticket);
        joins.push(thread::spawn(move || {
            for i in 0..60usize {
                {
                    let _g = m.lock(&child);
                    let slot = (w * 5 + i) % 48;
                    let v = table.get(&child, slot);
                    table.set(&child, slot, v + 1);
                }
                table.get(&child, w);
                cell.set(&child, i as u64);
            }
        }));
    }
    for c in &racy {
        c.set(&main, 7);
    }
    for jh in joins {
        jh.join().unwrap();
    }
    for t in tickets {
        main.join(t);
    }
}

fn recorded_run<D: ShardableDetector>(
    proto: &D,
    shards: usize,
) -> (dgrace::detectors::Report, Trace) {
    let rt = Runtime::with_options(
        proto,
        RuntimeOptions {
            shards,
            buffer_capacity: 5,
            record: true,
        },
    );
    drive(&rt, 3);
    let trace = rt.take_recorded().expect("recording runtime");
    validate(&trace).expect("the recorded schedule is well-formed");
    (rt.finish(), trace)
}

#[test]
fn one_shard_live_report_equals_the_replay_of_its_schedule() {
    let (live, trace) = recorded_run(&DynamicGranularity::new(), 1);
    assert!(!live.races.is_empty(), "the planted races are caught live");
    assert_eq!(live, replay_sharded(&DynamicGranularity::new(), &trace, 1));

    let (live, trace) = recorded_run(&FastTrack::new(), 1);
    assert_eq!(live, replay_sharded(&FastTrack::new(), &trace, 1));
}

#[test]
fn sharded_live_counts_and_races_equal_the_replay_of_its_schedule() {
    for shards in [2usize, 4] {
        let (live, trace) = recorded_run(&DynamicGranularity::new(), shards);
        let replayed = replay_sharded(&DynamicGranularity::new(), &trace, shards);
        assert_eq!(
            race_signature(&live),
            race_signature(&replayed),
            "shards={shards}"
        );
        assert_eq!(live.stats.events, trace.len() as u64, "shards={shards}");
        assert_eq!(live.stats.events, replayed.stats.events, "shards={shards}");
        assert_eq!(
            live.stats.accesses, replayed.stats.accesses,
            "shards={shards}"
        );
    }
}
