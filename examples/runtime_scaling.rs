//! Standalone scaling harness for the online detection engine: measures
//! events/sec at 1/2/4/8 producer threads, serialized baseline (one
//! shard, per-event dispatch — the old global-mutex funnel) vs the
//! sharded batched engine. The numbers land in EXPERIMENTS.md.
//!
//! ```text
//! cargo run --release --example runtime_scaling
//! ```

use std::sync::Arc;
use std::thread;
use std::time::Instant;

use dgrace::core::DynamicGranularity;
use dgrace::runtime::{Runtime, RuntimeOptions};

const WRITES_PER_PRODUCER: usize = 100_000;
const LOCK_EVERY: usize = 256;
const REPS: usize = 3;

fn drive(rt: &Runtime, producers: usize) -> u64 {
    let main = rt.main();
    let shared = Arc::new(rt.mutex(0u64));
    let arrays: Vec<_> = (0..producers).map(|_| rt.array(64)).collect();

    let mut joins = Vec::new();
    let mut tickets = Vec::new();
    for arr in arrays {
        let (child, ticket) = main.fork();
        let lock = Arc::clone(&shared);
        tickets.push(ticket);
        joins.push(thread::spawn(move || {
            for i in 0..WRITES_PER_PRODUCER {
                arr.set(&child, i % 64, i as u64);
                if i % LOCK_EVERY == 0 {
                    let mut g = lock.lock(&child);
                    *g += 1;
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
    rt.finish().stats.events
}

/// Best-of-`REPS` events/sec for one configuration.
fn measure(shards: usize, opts: RuntimeOptions, producers: usize) -> f64 {
    let proto = DynamicGranularity::new();
    let mut best = 0.0f64;
    for _ in 0..REPS {
        let rt = Runtime::sharded_with_options(&proto, shards, opts);
        let start = Instant::now();
        let events = drive(&rt, producers);
        let rate = events as f64 / start.elapsed().as_secs_f64();
        best = best.max(rate);
    }
    best
}

fn main() {
    let serialized = RuntimeOptions {
        buffer_capacity: 1,
        record: false,
    };
    let sharded = RuntimeOptions {
        buffer_capacity: 256,
        record: false,
    };

    println!("online runtime scaling (dynamic-granularity detector, best of {REPS})");
    println!(
        "{:>10} {:>18} {:>18} {:>9}",
        "producers", "serialized ev/s", "sharded-8 ev/s", "speedup"
    );
    for producers in [1usize, 2, 4, 8] {
        let base = measure(1, serialized, producers);
        let shrd = measure(8, sharded, producers);
        println!(
            "{:>10} {:>18.0} {:>18.0} {:>8.2}x",
            producers,
            base,
            shrd,
            shrd / base
        );
    }
}
