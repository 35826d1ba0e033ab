//! Integration tests for the memory cap (DESIGN.md §18).
//!
//! `--memory-limit L` over `S` shards is the shadow budget `L / S` of
//! every shard: once a shard's modeled bytes pass it, the shard evicts
//! its coldest state. The cap's contract is *deterministic graceful
//! degradation*: a capped run must (a) complete instead of aborting,
//! (b) evict at the same events on every engine and every repetition,
//! (c) be invisible — bit for bit — when the limit gives full headroom,
//! (d) never thin the access stream, (e) stay near its cap, and (f) flag
//! any recall it loses. These tests drive the library API the CLI wraps,
//! across the funnel and SPSC-pipeline engines at 1/2/4 shards, over a
//! workload × detector × cap matrix.

use std::collections::BTreeSet;

use dgrace::detectors::{race_signature, Detector, FastTrack, Report, ShardableDetector};
use dgrace::prelude::DynamicGranularity;
use dgrace::runtime::{replay_pipelined, replay_sharded};
use dgrace::trace::{Addr, Trace};
use dgrace::workloads::{Workload, WorkloadKind};

fn gen(name: &str, scale: f64) -> Trace {
    let kind = WorkloadKind::from_name(name).expect("workload name");
    Workload::new(kind).with_scale(scale).generate().0
}

/// `det` under `--memory-limit limit` split `shards` ways, as `detect`
/// builds it: the budget is set on the prototype, and every minted shard
/// carries it.
fn capped<D: Detector>(mut det: D, limit: u64, shards: usize) -> D {
    det.set_shadow_budget(Some(limit / shards as u64));
    det
}

/// Uncapped modeled peak for a single serialized run — the reference
/// the caps in these tests are carved from.
fn uncapped_peak(trace: &Trace) -> u64 {
    replay_sharded(&FastTrack::new(), trace, 1)
        .stats
        .peak_total_bytes as u64
}

/// The cap did something: its budget was breached and cells evicted.
fn assert_evicted(rep: &Report, at: &str) {
    assert!(rep.budget_degraded, "{at}: the cap engages");
    assert!(rep.stats.evicted > 0, "{at}: the cap evicts");
}

#[test]
fn ladder_is_deterministic_across_runs_and_engines() {
    let trace = gen("pbzip2", 0.5);
    let limit = (uncapped_peak(&trace) / 2).max(1);
    for shards in [1usize, 2, 4] {
        let proto = capped(FastTrack::new(), limit, shards);
        let a = replay_sharded(&proto, &trace, shards);
        let b = replay_sharded(&proto, &trace, shards);
        assert_eq!(a, b, "funnel runs must be identical (shards={shards})");
        let c = replay_pipelined(&proto, &trace, shards);
        assert_eq!(a, c, "pipeline must reproduce the funnel (shards={shards})");
        assert_evicted(&a, &format!("a 50% cap, shards={shards}"));
    }
}

#[test]
fn full_headroom_is_bit_identical_to_ungoverned() {
    let trace = gen("dedup", 0.5);
    let limit = uncapped_peak(&trace).saturating_mul(100).max(1 << 30);
    for shards in [1usize, 2, 4] {
        let plain = replay_sharded(&FastTrack::new(), &trace, shards);
        let proto = capped(FastTrack::new(), limit, shards);
        let roomy = replay_sharded(&proto, &trace, shards);
        assert_eq!(
            plain, roomy,
            "a cap that is never reached must be invisible (shards={shards})"
        );
        assert!(!roomy.budget_degraded, "nothing evicted (shards={shards})");
    }
}

/// Workloads whose races stay hot (the racing cells are re-touched
/// throughout the run) must come through a 50% cap with the race set
/// fully intact: eviction only sheds cold state.
#[test]
fn half_cap_completes_with_hot_races_intact() {
    for name in ["facesim", "streamcluster", "canneal"] {
        let trace = gen(name, 0.5);
        let limit = (uncapped_peak(&trace) / 2).max(1);
        for shards in [1usize, 2, 4] {
            let plain = replay_sharded(&FastTrack::new(), &trace, shards);
            let proto = capped(FastTrack::new(), limit, shards);
            let rep = replay_sharded(&proto, &trace, shards);
            let at = format!("{name} shards={shards}");
            // The run completes: every event of the trace was processed.
            assert_eq!(rep.stats.events, trace.len() as u64, "{at}");
            assert_evicted(&rep, &at);
            assert!(
                !plain.races.is_empty(),
                "{name}: baseline must have races for this test to mean anything"
            );
            assert_eq!(
                race_signature(&rep),
                race_signature(&plain),
                "{at}: the cap lost or invented races"
            );
        }
    }
}

/// Eviction takes the regions none of whose cells holds its thread's
/// current epoch first, and the hot ones last, so a same-epoch repeat
/// finds its cell. Under a cap of half or a quarter of its own peak the
/// dynamic detector keeps `streamcluster`'s race at `0xe0000`, the lowest
/// region, on every engine and shard count; taking the lowest region
/// first lost it.
#[test]
fn cold_first_eviction_keeps_the_lowest_race() {
    let trace = gen("streamcluster", 0.5);
    let plain = replay_sharded(&DynamicGranularity::new(), &trace, 1);
    assert!(plain.race_addrs().contains(&Addr(0xe0000)));
    let peak = plain.stats.peak_total_bytes as u64;
    for div in [2u64, 4] {
        for shards in [1usize, 2, 4] {
            let proto = capped(DynamicGranularity::new(), peak / div, shards);
            let funnel = replay_sharded(&proto, &trace, shards);
            let at = format!("1/{div} cap, shards={shards}");
            assert_evicted(&funnel, &at);
            assert!(
                funnel.race_addrs().contains(&Addr(0xe0000)),
                "{at}: lost 0xe0000: {:?}",
                funnel.race_addrs()
            );
            assert_eq!(
                replay_pipelined(&proto, &trace, shards),
                funnel,
                "{at}: the pipeline reproduces the funnel"
            );
        }
    }
}

/// When pressure *does* cost recall — a race whose prior access went
/// cold and was evicted — the loss must be flagged, never silent: the
/// report carries `budget_degraded`, so both the human rendering and
/// `--json` surface the caveat.
#[test]
fn recall_loss_under_pressure_is_flagged_not_silent() {
    let trace = gen("pbzip2", 0.5);
    let plain = replay_sharded(&FastTrack::new(), &trace, 1);
    assert!(!plain.races.is_empty(), "baseline race exists");
    let limit = ((plain.stats.peak_total_bytes as u64) / 2).max(1);
    let proto = capped(FastTrack::new(), limit, 1);
    let rep = replay_sharded(&proto, &trace, 1);
    assert_eq!(rep.stats.events, trace.len() as u64, "still completes");
    if race_signature(&rep) != race_signature(&plain) {
        assert!(rep.stats.evicted > 0, "loss can only come from eviction");
        assert!(
            rep.budget_degraded,
            "a lossy capped run must carry the budget_degraded flag"
        );
        assert!(rep.is_degraded());
    }
}

/// The synthetic-pressure fault-injection matrix: workloads × detectors
/// × caps. Every cell must complete without abort, be deterministic
/// under repetition, and — for the fixed-granularity detector — never
/// *invent* a race the uncapped run did not report (pressure can only
/// lose recall, never soundness).
#[test]
fn synthetic_pressure_matrix_survives_tight_caps() {
    for name in ["pbzip2", "dedup", "ffmpeg"] {
        let trace = gen(name, 0.4);
        let peak = uncapped_peak(&trace);
        let plain_byte = replay_sharded(&FastTrack::new(), &trace, 2);
        let plain_addrs = plain_byte.race_addrs();
        for pct in [50u64, 30, 15] {
            let limit = (peak * pct / 100).max(1);

            let byte = capped(FastTrack::new(), limit, 2);
            let a = replay_sharded(&byte, &trace, 2);
            let b = replay_sharded(&byte, &trace, 2);
            assert_eq!(a, b, "{name} @{pct}%: byte runs must be identical");
            assert_eq!(a.stats.events, trace.len() as u64, "{name} @{pct}%");
            for r in &a.races {
                assert!(
                    plain_addrs.contains(&r.addr),
                    "{name} @{pct}%: capped byte run invented a race at {}",
                    r.addr
                );
            }

            let dynamic = capped(DynamicGranularity::new(), limit, 2);
            let c = replay_sharded(&dynamic, &trace, 2);
            let d = replay_sharded(&dynamic, &trace, 2);
            assert_eq!(c, d, "{name} @{pct}%: dynamic runs must be identical");
            assert_eq!(c.stats.events, trace.len() as u64, "{name} @{pct}%");
        }

        // The tightest cap must actually evict somewhere in the matrix —
        // otherwise the cells above proved nothing.
        let tight = capped(FastTrack::new(), (peak * 15 / 100).max(1), 2);
        assert_evicted(&replay_sharded(&tight, &trace, 2), &format!("{name} @15%"));
    }
}

/// A cap evicts; it never thins the access stream. At a quarter of the
/// uncapped peak every report of both detectors, on both transports and
/// every shard count, has sampled nothing, and `canneal`, whose races stay
/// hot, keeps its race set.
#[test]
fn a_cap_never_thins_the_access_stream() {
    for (name, scale) in [("canneal", 0.5), ("dedup", 0.4)] {
        let trace = gen(name, scale);
        let limit = (uncapped_peak(&trace) / 4).max(1);
        let keeps_races = name == "canneal";
        let at = format!("{name} byte");
        assert_never_thins(&at, &trace, limit, FastTrack::new, keeps_races);
        let at = format!("{name} dynamic");
        assert_never_thins(&at, &trace, limit, DynamicGranularity::new, keeps_races);
    }
}

fn assert_never_thins<D: ShardableDetector>(
    at: &str,
    trace: &Trace,
    limit: u64,
    make: impl Fn() -> D,
    keeps_races: bool,
) {
    for shards in [1usize, 2, 4] {
        let plain = replay_sharded(&make(), trace, shards);
        let proto = capped(make(), limit, shards);
        let funnel = replay_sharded(&proto, trace, shards);
        let rings = replay_pipelined(&proto, trace, shards);
        for (engine, rep) in [("funnel", funnel), ("rings", rings)] {
            let at = format!("{at} shards={shards} {engine}");
            assert_evicted(&rep, &at);
            assert_eq!(rep.stats.events, trace.len() as u64, "{at}");
            assert_eq!(rep.stats.accesses, plain.stats.accesses, "{at}");
            assert_eq!(rep.stats.sample_admitted, 0, "{at}");
            assert_eq!(rep.stats.sample_skipped, 0, "{at}");
            if keeps_races {
                assert_eq!(race_signature(&rep), race_signature(&plain), "{at}");
            }
        }
    }
}

/// A capped run stays near its cap. Under ½, ¼ and ⅛ of its own uncapped
/// peak, each run of both detectors at 1 and 2 shards peaks at no more
/// than 1.5× the cap (a shard overshoots its slice by at most what one
/// event adds before it evicts), says it evicted, and reports only races
/// the uncapped run reports.
#[test]
fn a_capped_run_stays_near_its_cap() {
    for name in ["dedup", "canneal"] {
        let trace = gen(name, 1.0);
        assert_stays_near(name, &trace, FastTrack::new);
        assert_stays_near(name, &trace, DynamicGranularity::new);
    }
}

fn assert_stays_near<D: ShardableDetector>(name: &str, trace: &Trace, make: impl Fn() -> D) {
    let addrs = |rep: &Report| rep.race_addrs().into_iter().collect::<BTreeSet<_>>();
    for shards in [1usize, 2] {
        let plain = replay_sharded(&make(), trace, shards);
        let peak = plain.stats.peak_total_bytes as u64;
        for div in [2u64, 4, 8] {
            let cap = peak / div;
            let rep = replay_sharded(&capped(make(), cap, shards), trace, shards);
            let at = format!("{name} {} shards={shards} 1/{div} cap", plain.detector);
            let capped_peak = rep.stats.peak_total_bytes as u64;
            assert!(
                capped_peak * 2 <= cap * 3,
                "{at}: peak {capped_peak} B against a {cap} B cap"
            );
            assert!(rep.budget_degraded, "{at}");
            assert!(addrs(&rep).is_subset(&addrs(&plain)), "{at}");
        }
    }
}
