//! Standalone scaling harness for the online runtime: measures events/sec
//! at 1/2/4/8 producer threads in three configurations, so each effect
//! is read against its own baseline:
//!
//! * per-event: one shard, `buffer_capacity: 1` (every access takes the
//!   driver lock on its own);
//! * batched: one shard, the default 256-event thread buffers;
//! * batched-8: the same buffers over 8 address shards.
//!
//! Batched against per-event is what batching buys; batched-8 against
//! batched is what sharding buys. The numbers land in EXPERIMENTS.md.
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
fn measure(opts: RuntimeOptions, producers: usize) -> f64 {
    let proto = DynamicGranularity::new();
    let mut best = 0.0f64;
    for _ in 0..REPS {
        let rt = Runtime::with_options(&proto, opts);
        let start = Instant::now();
        let events = drive(&rt, producers);
        let rate = events as f64 / start.elapsed().as_secs_f64();
        best = best.max(rate);
    }
    best
}

fn main() {
    let configs = [
        (
            "per-event ev/s",
            RuntimeOptions {
                shards: 1,
                buffer_capacity: 1,
                record: false,
            },
        ),
        ("batched ev/s", RuntimeOptions::default()),
        (
            "batched-8 ev/s",
            RuntimeOptions {
                shards: 8,
                ..RuntimeOptions::default()
            },
        ),
    ];

    println!("online runtime scaling (dynamic-granularity detector, best of {REPS})");
    print!("{:>10}", "producers");
    for (name, _) in &configs {
        print!(" {name:>16}");
    }
    println!();
    for producers in [1usize, 2, 4, 8] {
        print!("{producers:>10}");
        for (_, opts) in &configs {
            print!(" {:>16.0}", measure(*opts, producers));
        }
        println!();
    }
}
