//! Integration tests for the process memory governor (DESIGN.md §18).
//!
//! The governor's contract is *deterministic graceful degradation*: a
//! run under `--memory-limit` must (a) complete instead of aborting,
//! (b) engage and release its eviction at the same event offsets on
//! every engine and every repetition, (c) be invisible — bit for bit —
//! when the limit gives full headroom, and (d) never thin the access
//! stream. These tests drive the library API the CLI wraps, across the
//! funnel and SPSC-pipeline engines at 1/2/4 shards, over a workload ×
//! detector × cap matrix.

use dgrace::detectors::{race_signature, FastTrack, Governed, GovernorSpec, ShardableDetector};
use dgrace::prelude::DynamicGranularity;
use dgrace::runtime::{replay_pipelined, replay_sharded};
use dgrace::trace::{Addr, Trace};
use dgrace::workloads::{Workload, WorkloadKind};

fn gen(name: &str, scale: f64) -> Trace {
    let kind = WorkloadKind::from_name(name).expect("workload name");
    Workload::new(kind).with_scale(scale).generate().0
}

/// Ungoverned modeled peak for a single serialized run — the reference
/// the caps in these tests are carved from.
fn ungoverned_peak(trace: &Trace) -> u64 {
    replay_sharded(&FastTrack::new(), trace, 1)
        .stats
        .peak_total_bytes as u64
}

#[test]
fn ladder_is_deterministic_across_runs_and_engines() {
    let trace = gen("pbzip2", 0.5);
    let limit = (ungoverned_peak(&trace) / 2).max(1);
    for shards in [1usize, 2, 4] {
        let proto = Governed::new(FastTrack::new(), GovernorSpec::for_limit(limit, shards));
        let a = replay_sharded(&proto, &trace, shards);
        let b = replay_sharded(&proto, &trace, shards);
        assert_eq!(a, b, "funnel runs must be identical (shards={shards})");
        let c = replay_pipelined(&proto, &trace, shards);
        assert_eq!(
            a, c,
            "pipeline must reproduce the funnel, transitions included (shards={shards})"
        );

        let g = a.governor.as_ref().expect("a 50% cap engages the ladder");
        assert!(g.peak_rung >= 1, "shards={shards}");
        assert!(g.decisions > 0);
        assert!(!g.transitions.is_empty());
        // Transition logs are merged sorted by (event, shard) and every
        // transition actually changes the rung.
        for w in g.transitions.windows(2) {
            assert!((w[0].event, w[0].shard) <= (w[1].event, w[1].shard));
        }
        for t in &g.transitions {
            assert_ne!(t.from, t.to);
            assert!(t.shard < shards);
        }
    }
}

#[test]
fn full_headroom_is_bit_identical_to_ungoverned() {
    let trace = gen("dedup", 0.5);
    let limit = ungoverned_peak(&trace).saturating_mul(100).max(1 << 30);
    for shards in [1usize, 2, 4] {
        let plain = replay_sharded(&FastTrack::new(), &trace, shards);
        let proto = Governed::new(FastTrack::new(), GovernorSpec::for_limit(limit, shards));
        let governed = replay_sharded(&proto, &trace, shards);
        assert_eq!(
            plain, governed,
            "an unengaged governor must be invisible (shards={shards})"
        );
        assert!(governed.governor.is_none(), "no report without engagement");
    }
}

/// Workloads whose races stay hot (the racing cells are re-touched
/// throughout the run) must come through a 50% cap with the race set
/// fully intact: eviction only sheds cold state.
#[test]
fn half_cap_completes_with_hot_races_intact() {
    for name in ["facesim", "streamcluster", "canneal"] {
        let trace = gen(name, 0.5);
        let limit = (ungoverned_peak(&trace) / 2).max(1);
        for shards in [1usize, 2, 4] {
            let plain = replay_sharded(&FastTrack::new(), &trace, shards);
            let proto = Governed::new(FastTrack::new(), GovernorSpec::for_limit(limit, shards));
            let governed = replay_sharded(&proto, &trace, shards);
            // The run completes: every event of the trace was processed.
            assert_eq!(
                governed.stats.events,
                trace.len() as u64,
                "{name} shards={shards}"
            );
            let g = governed.governor.as_ref().expect("cap engages");
            assert!(g.peak_rung >= 1, "{name} shards={shards}");
            assert!(
                !plain.races.is_empty(),
                "{name}: baseline must have races for this test to mean anything"
            );
            assert_eq!(
                race_signature(&governed),
                race_signature(&plain),
                "{name}: peak rung {} lost or invented races (shards={shards})",
                g.peak_rung
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
            let spec = GovernorSpec::for_limit(peak / div, shards);
            let proto = Governed::new(DynamicGranularity::new(), spec);
            let funnel = replay_sharded(&proto, &trace, shards);
            let at = format!("1/{div} cap, shards={shards}");
            assert!(funnel.governor.is_some(), "{at}: the cap engages");
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
/// report carries `budget_degraded` and an attached governor block, so
/// both the human rendering and `--json` surface the caveat.
#[test]
fn recall_loss_under_pressure_is_flagged_not_silent() {
    let trace = gen("pbzip2", 0.5);
    let plain = replay_sharded(&FastTrack::new(), &trace, 1);
    assert!(!plain.races.is_empty(), "baseline race exists");
    let limit = ((plain.stats.peak_total_bytes as u64) / 2).max(1);
    let proto = Governed::new(FastTrack::new(), GovernorSpec::for_limit(limit, 1));
    let governed = replay_sharded(&proto, &trace, 1);
    assert_eq!(governed.stats.events, trace.len() as u64, "still completes");
    if race_signature(&governed) != race_signature(&plain) {
        assert!(
            governed.stats.evicted > 0,
            "loss can only come from eviction"
        );
        assert!(
            governed.budget_degraded,
            "a lossy governed run must carry the budget_degraded flag"
        );
        assert!(governed.is_degraded());
        assert!(governed.governor.is_some());
    }
}

/// The synthetic-pressure fault-injection matrix: workloads × detectors
/// × caps. Every cell must complete without abort, be deterministic
/// under repetition, and — for the fixed-granularity detector — never
/// *invent* a race the ungoverned run did not report (pressure can only
/// lose recall, never soundness).
#[test]
fn synthetic_pressure_matrix_survives_tight_caps() {
    for name in ["pbzip2", "dedup", "ffmpeg"] {
        let trace = gen(name, 0.4);
        let peak = ungoverned_peak(&trace);
        let plain_byte = replay_sharded(&FastTrack::new(), &trace, 2);
        let plain_addrs = plain_byte.race_addrs();
        for pct in [50u64, 30, 15] {
            let limit = (peak * pct / 100).max(1);

            let byte = Governed::new(FastTrack::new(), GovernorSpec::for_limit(limit, 2));
            let a = replay_sharded(&byte, &trace, 2);
            let b = replay_sharded(&byte, &trace, 2);
            assert_eq!(a, b, "{name} @{pct}%: byte runs must be identical");
            assert_eq!(a.stats.events, trace.len() as u64, "{name} @{pct}%");
            for r in &a.races {
                assert!(
                    plain_addrs.contains(&r.addr),
                    "{name} @{pct}%: governed byte run invented a race at {}",
                    r.addr
                );
            }

            let dynamic =
                Governed::new(DynamicGranularity::new(), GovernorSpec::for_limit(limit, 2));
            let c = replay_sharded(&dynamic, &trace, 2);
            let d = replay_sharded(&dynamic, &trace, 2);
            assert_eq!(c, d, "{name} @{pct}%: dynamic runs must be identical");
            assert_eq!(c.stats.events, trace.len() as u64, "{name} @{pct}%");
        }

        // The tightest cap must actually engage somewhere in the
        // matrix — otherwise the cells above proved nothing.
        let tight = Governed::new(
            FastTrack::new(),
            GovernorSpec::for_limit((peak * 15 / 100).max(1), 2),
        );
        let rep = replay_sharded(&tight, &trace, 2);
        let g = rep.governor.expect("15% cap engages the ladder");
        assert!(g.peak_rung >= 1, "{name}: tight cap never engaged");
    }
}

/// A cap evicts; it never thins the access stream. At a quarter of the
/// ungoverned peak every report of both detectors, on both transports and
/// every shard count, has sampled nothing, and `canneal`, whose races stay
/// hot, keeps its race set.
#[test]
fn a_cap_never_thins_the_access_stream() {
    for (name, scale) in [("canneal", 0.5), ("dedup", 0.4)] {
        let trace = gen(name, scale);
        let limit = (ungoverned_peak(&trace) / 4).max(1);
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
        let proto = Governed::new(make(), GovernorSpec::for_limit(limit, shards));
        let funnel = replay_sharded(&proto, trace, shards);
        let rings = replay_pipelined(&proto, trace, shards);
        for (engine, rep) in [("funnel", funnel), ("rings", rings)] {
            let at = format!("{at} shards={shards} {engine}");
            assert!(rep.governor.is_some(), "{at}: the cap engages");
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
