//! The metric tables: names, units, directions and bounds.
//!
//! `BENCHMARK.json` at the repository root repeats these tables for the
//! driver; `--smoke` checks that the two agree.

/// An end-to-end metric: what a user of `dgrace` sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the baseline's median by which the metric may worsen
    /// before `compare` (and the driver) call it a regression.
    pub bound: f64,
}

/// Reported by every workload with tracing off.
///
/// The two timed bounds are 0.2 where the issue asked for 0.08: on the
/// host they were set on, the medians of ten identical 10 s runs spread by
/// 2–7 % after calibration (more before), a bound has to be about three
/// times that, and the driver's time budget rules out longer runs.
///
/// The issue also listed `rtt_p50_us` (serve only) and `failed_share`.
/// The driver wants every end-to-end metric from every workload and none
/// that is ever 0, so the round-trip median is the per-layer metric
/// `server.rtt_p50_us`, and failures are the `attempted`/`failed` counts
/// of every result line (`failed` must be 0: its bound is absolute).
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "events_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.2,
    },
    EndToEnd {
        name: "cpu_s_per_mev",
        unit: "s/Mev",
        better: "lower",
        bound: 0.2,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: "lower",
        bound: 0.05,
    },
    EndToEnd {
        name: "shadow_peak_bytes",
        unit: "bytes",
        better: "lower",
        bound: 0.02,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// A per-layer metric `(name, unit, better)`; no bound.
pub type PerLayer = (&'static str, &'static str, &'static str);

/// Reported by every workload's traced layer replay, in this order.
pub const PER_LAYER: [PerLayer; 58] = [
    ("trace.decode_s", "s", "lower"),
    ("trace.decode_mb_per_s", "MB/s", "higher"),
    ("trace.validate_s", "s", "lower"),
    ("trace.bytes_per_event", "bytes", "lower"),
    ("trace.frame_encode_s", "s", "lower"),
    ("trace.frame_decode_s", "s", "lower"),
    ("vc.join_ns", "ns", "lower"),
    ("vc.clone_ns", "ns", "lower"),
    ("detectors.nop_s", "s", "lower"),
    ("detectors.hb_sync_s", "s", "lower"),
    ("detectors.hb_sync_events", "count", "lower"),
    ("detectors.fasttrack_byte_s", "s", "lower"),
    ("detectors.fasttrack_same_epoch_share", "ratio", "higher"),
    ("detectors.fasttrack_vc_allocs", "count", "lower"),
    ("detectors.fasttrack_peak_bytes", "bytes", "lower"),
    ("detectors.merge_s", "s", "lower"),
    ("shadow.hash_touch_s", "s", "lower"),
    ("shadow.paged_touch_s", "s", "lower"),
    ("shadow.hash_index_bytes", "bytes", "lower"),
    ("shadow.paged_index_bytes", "bytes", "lower"),
    ("shadow.distinct_locations", "count", "lower"),
    ("core.dynamic_s", "s", "lower"),
    ("core.same_epoch_share", "ratio", "higher"),
    ("core.slow_path_ns", "ns", "lower"),
    ("core.vc_allocs", "count", "lower"),
    ("core.shares", "count", "higher"),
    ("core.splits", "count", "lower"),
    ("core.avg_share_count", "count", "higher"),
    ("core.max_group", "count", "higher"),
    ("core.peak_bytes", "bytes", "lower"),
    ("core.speedup_vs_byte", "ratio", "higher"),
    ("core.mem_ratio_vs_byte", "ratio", "lower"),
    ("runtime.funnel1_s", "s", "lower"),
    ("runtime.funnel_overhead_s", "s", "lower"),
    ("runtime.pipeline2_s", "s", "lower"),
    ("runtime.pipeline2_speedup", "ratio", "higher"),
    ("runtime.ring_segments_per_s", "1/s", "higher"),
    ("runtime.ingest_feed_s", "s", "lower"),
    ("runtime.checkpoint_encode_s", "s", "lower"),
    ("runtime.checkpoint_bytes", "bytes", "lower"),
    ("analysis.total_s", "s", "lower"),
    ("analysis.pass_classify_s", "s", "lower"),
    ("analysis.pass_affinity_s", "s", "lower"),
    ("analysis.pass_lockgraph_s", "s", "lower"),
    ("analysis.pass_heat_s", "s", "lower"),
    ("analysis.summary_bytes", "bytes", "lower"),
    ("analysis.pruned_share", "ratio", "higher"),
    ("server.rtt_p50_us", "us", "lower"),
    ("server.rtt_p99_us", "us", "lower"),
    ("server.rtt_max_us", "us", "lower"),
    ("server.rtt_samples", "count", "higher"),
    ("server.connect_ms", "ms", "lower"),
    ("server.finish_ms", "ms", "lower"),
    ("server.transport_s", "s", "lower"),
    ("cli.startup_ms", "ms", "lower"),
    ("cli.residual_s", "s", "lower"),
    ("ledger.coverage", "ratio", "higher"),
    ("ledger.span_overhead_ns", "ns", "lower"),
];

/// The unit of a metric of either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.0 == name).map(|m| m.1))
}
