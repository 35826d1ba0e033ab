//! Pins the reported clock and sharing counters to literal values.
//!
//! A logical clock may live in its cell or in the plane's arena
//! (`plane.rs`, "Where a clock lives"); where it lives must never show in
//! a report. These are the values the all-arena layout reported for four
//! traces that between them take every path a clock can: created inline,
//! promoted by a split, copied on write, demoted, inflated, freed.
//!
//! Only `peak_total_bytes` has moved since, once: the dynamic detector
//! stopped keeping per-thread same-epoch bitmaps (it answers a repeat
//! from the location's shadow entry), so the bitmap chunks (528 bytes
//! each) left the modeled total. The other six columns did not move.

use dgrace_core::DynamicGranularity;
use dgrace_detectors::DetectorExt;
use dgrace_trace::{AccessSize, Trace, TraceBuilder};

const X: u64 = 0x1000;

/// `[vc_allocs, vc_frees, peak_vc_count, peak_vc_bytes,
/// peak_total_bytes, shares, splits]` of a default-configuration run.
fn counters(trace: &Trace) -> [u64; 7] {
    let rep = DynamicGranularity::new().run(trace);
    let sharing = rep.stats.sharing.expect("dynamic reports sharing stats");
    [
        rep.stats.vc_allocs,
        rep.stats.vc_frees,
        rep.stats.peak_vc_count as u64,
        rep.stats.peak_vc_bytes as u64,
        rep.stats.peak_total_bytes as u64,
        sharing.shares,
        sharing.splits,
    ]
}

#[test]
fn array_reshared_in_a_second_epoch() {
    // Sixteen words initialized together (one first-epoch group), then
    // written again in a later epoch: each splits out, copies its clock
    // on write and rejoins its neighbor.
    let mut b = TraceBuilder::new();
    b.write_block(0u32, X, 64, AccessSize::U32)
        .release(0u32, 0u32)
        .write_block(0u32, X, 64, AccessSize::U32);
    assert_eq!(counters(&b.build()), [16, 15, 2, 32, 176, 30, 15]);
}

#[test]
fn steady_group_dissolved_by_a_race_and_touched_again() {
    // A Shared group of sixteen races with T1, freezes in `Race`, and
    // two members detach lazily when T1 comes back in a new epoch.
    let mut b = TraceBuilder::new();
    b.fork(0u32, 1u32)
        .write_block(0u32, X, 64, AccessSize::U32)
        .release(0u32, 0u32)
        .write_block(0u32, X, 64, AccessSize::U32)
        .write(1u32, X + 4, AccessSize::U32)
        .release(1u32, 1u32)
        .write(1u32, X + 4, AccessSize::U32)
        .write(1u32, X + 8, AccessSize::U32);
    assert_eq!(counters(&b.build()), [18, 15, 3, 48, 192, 30, 30]);
}

#[test]
fn dedup_style_alloc_touch_free() {
    let mut b = TraceBuilder::new();
    for i in 0..16u64 {
        let base = 0x10_0000 + i * 0x100;
        b.alloc(0u32, base, 64)
            .write_block(0u32, base, 64, AccessSize::U64)
            .free(0u32, base, 64);
    }
    assert_eq!(counters(&b.build()), [16, 16, 1, 16, 160, 112, 0]);
}

#[test]
fn read_clock_inflates_and_is_replaced_by_an_epoch() {
    // Concurrent readers inflate two adjacent read clocks to vectors
    // (which vetoes their sharing); a third epoch of T0 reads grows them
    // in place. The detector never deflates a read clock, so the vector
    // goes when the block is freed, and the next read starts from an
    // inline epoch again.
    let mut b = TraceBuilder::new();
    b.fork(0u32, 1u32)
        .read(0u32, X, AccessSize::U32)
        .read(0u32, X + 4, AccessSize::U32)
        .read(1u32, X, AccessSize::U32)
        .read(1u32, X + 4, AccessSize::U32)
        .release(0u32, 0u32)
        .read(0u32, X, AccessSize::U32)
        .free(0u32, X, 8)
        .release(1u32, 1u32)
        .read(1u32, X, AccessSize::U32)
        .read(1u32, X + 4, AccessSize::U32);
    assert_eq!(counters(&b.build()), [3, 2, 2, 80, 224, 2, 1]);
}
