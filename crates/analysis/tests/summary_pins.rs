//! Pins the analysis summary, byte for byte, to literal values.
//!
//! The classifier was rewritten for speed (PR 14); what it and the
//! lock-graph pass emit must not move. Each literal below is the length
//! and CRC32 of `summary_to_bytes(&analyze(&trace))`.
//!
//! The literals moved once, with the format: `DGAS` version 3 has no
//! affinity and no heat section (the passes that filled them are gone),
//! so every summary lost those bytes and its version word changed. What
//! the two remaining passes emit did not: the values below were taken by
//! running the version-3 encoder over the summaries of the last build
//! that wrote version 2 (seven-walk classifier, per-access `BTreeMap`
//! passes and all), before this build's `analyze` was run against them.

use dgrace_analysis::analyze;
use dgrace_trace::io::summary_to_bytes;
use dgrace_trace::{crc32, AccessSize, Trace, TraceBuilder};
use dgrace_workloads::{Workload, WorkloadKind};

/// `(length, CRC32)` of the encoded summary of `trace`.
fn pin(trace: &Trace) -> (usize, u32) {
    let bytes = summary_to_bytes(&analyze(trace));
    (bytes.len(), crc32(&bytes))
}

#[test]
fn every_generator_at_half_scale() {
    let expected: [(&str, (usize, u32)); 11] = [
        ("facesim", (104721, 0xec32cbdd)),
        ("ferret", (2279, 0xe281287e)),
        ("fluidanimate", (265, 0xd5c76d30)),
        ("raytrace", (33228, 0x6b109f5b)),
        ("x264", (3299, 0xb3f3b6bd)),
        ("canneal", (65936, 0x3797b9c7)),
        ("dedup", (6409, 0x454634ba)),
        ("streamcluster", (209433, 0xf8880479)),
        ("ffmpeg", (1072, 0x6e8d017d)),
        ("pbzip2", (1286, 0x5e87437a)),
        ("hmmsearch", (139512, 0x3ee02760)),
    ];
    assert_eq!(
        WorkloadKind::ALL.map(|k| k.name()),
        expected.map(|(name, _)| name)
    );
    for (kind, (name, want)) in WorkloadKind::ALL.into_iter().zip(expected) {
        let (trace, _) = Workload::new(kind).with_scale(0.5).with_seed(1).generate();
        assert_eq!(pin(&trace), want, "{name}");
    }
}

/// 32 workers on 64 locks: nested exclusive holds in both orders (lock
/// sets of one and two, lock-order cycles), read-mode rwlock holds (which
/// must not count), per-thread private words, a table written before the
/// forks and only read after, words under one consistent lock, words
/// under inconsistent locks, sub-word accesses splitting atoms, and a
/// duplicate join of an already-joined worker while another still runs.
fn lock_heavy() -> Trace {
    const WORKERS: u32 = 32;
    const LOCKS: u32 = 64;
    const TABLE: u64 = 0x1_0000;
    const GUARDED: u64 = 0x2_0000;
    const MIXED: u64 = 0x3_0000;
    const PRIVATE: u64 = 0x4_0000;
    let mut b = TraceBuilder::new();
    for i in 0..64u64 {
        b.write(0u32, TABLE + i * 8, AccessSize::U64);
    }
    for t in 1..=WORKERS {
        b.fork(0u32, t);
    }
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x >> 33
    };
    for round in 0..48u64 {
        for t in 1..=WORKERS {
            let r = next();
            let outer = (r % u64::from(LOCKS)) as u32;
            let inner = ((r >> 8) % u64::from(LOCKS)) as u32;
            let slot = (r >> 16) % 64;
            b.read(t, TABLE + slot * 8, AccessSize::U64);
            b.write(
                t,
                PRIVATE + u64::from(t) * 64 + (round % 8) * 8,
                AccessSize::U64,
            );
            // GUARDED word `l` is only ever touched under lock `l`,
            // sometimes with a second lock nested inside or outside.
            b.acquire(t, outer);
            b.write(t, GUARDED + u64::from(outer) * 8, AccessSize::U32);
            if inner != outer {
                b.acquire(t, inner);
                b.read(t, GUARDED + u64::from(inner) * 8 + 4, AccessSize::U16);
                b.write(t, GUARDED + u64::from(outer) * 8 + 2, AccessSize::U16);
                b.release(t, inner);
            }
            b.release(t, outer);
            // MIXED words: whichever lock the draw picked, or only a
            // read-mode hold, or nothing.
            match r % 3 {
                0 => {
                    b.acquire(t, inner);
                    b.write(t, MIXED + slot * 4, AccessSize::U32);
                    b.release(t, inner);
                }
                1 => {
                    b.acquire_read(t, outer);
                    b.write(t, MIXED + slot * 4 + 1, AccessSize::U8);
                    b.release_read(t, outer);
                }
                _ => {
                    b.read(t, MIXED + slot * 4, AccessSize::U16);
                }
            }
        }
    }
    for t in 1..WORKERS {
        b.join(0u32, t);
    }
    // A duplicate join while the last worker still runs: two threads are
    // live, so main's write races with that worker's read.
    b.join(0u32, 1u32);
    b.write(0u32, MIXED + 0x1000, AccessSize::U64);
    b.read(WORKERS, MIXED + 0x1000, AccessSize::U64);
    b.join(0u32, WORKERS);
    b.write(0u32, PRIVATE + 64, AccessSize::U64); // worker 1's word, handed back
    b.read(0u32, TABLE, AccessSize::U64);
    b.build()
}

#[test]
fn lock_heavy_hand_built_trace() {
    assert_eq!(pin(&lock_heavy()), (7498, 0x91e80d66));
}
