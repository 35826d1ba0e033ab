//! Human-readable report rendering.

use dgrace_detectors::Report;
use dgrace_trace::stats::TraceStats;

/// Prints a detector report over a trace of `events` events on `threads`
/// threads.
pub fn report(rep: &Report, events: u64, threads: usize, secs: f64, max_races: usize) {
    let s = &rep.stats;
    outln!("detector      : {}", rep.detector);
    outln!("trace         : {events} events, {threads} threads");
    outln!(
        "time          : {:.1} ms ({:.1}M events/s)",
        secs * 1e3,
        events as f64 / secs.max(1e-9) / 1e6
    );
    outln!(
        "accesses      : {} ({:.0}% same-epoch fast path)",
        s.accesses,
        s.same_epoch_fraction() * 100.0
    );
    if s.pruned > 0 {
        outln!(
            "pruned        : {} accesses skipped by ahead-of-time analysis ({:.0}% of {})",
            s.pruned,
            s.pruned as f64 / (s.pruned + s.accesses).max(1) as f64 * 100.0,
            s.pruned + s.accesses
        );
    }
    if s.sample_admitted + s.sample_skipped > 0 {
        outln!(
            "sampled       : {} of {} accesses analyzed ({:.1}% admitted)",
            s.sample_admitted,
            s.sample_admitted + s.sample_skipped,
            s.sample_admitted as f64 / (s.sample_admitted + s.sample_skipped).max(1) as f64 * 100.0
        );
    }
    outln!(
        "shadow peak   : {:.1} KiB (hash {:.1}, clocks {:.1}, bitmaps {:.1})",
        s.peak_total_bytes as f64 / 1024.0,
        s.peak_hash_bytes as f64 / 1024.0,
        s.peak_vc_bytes as f64 / 1024.0,
        s.peak_bitmap_bytes as f64 / 1024.0
    );
    outln!("peak clocks   : {}", s.peak_vc_count);
    if let Some(sh) = &s.sharing {
        outln!(
            "sharing       : {} shares, {} splits, avg {:.1} locations/clock, max group {}",
            sh.shares,
            sh.splits,
            sh.avg_share_count,
            sh.max_group
        );
    }
    if !rep.failures.is_empty() || s.dropped > 0 {
        outln!(
            "DEGRADED      : {} shard(s) quarantined, {} event(s) not analyzed",
            rep.failures.len(),
            s.dropped
        );
        for fail in &rep.failures {
            outln!("  {fail}");
        }
        if s.events_lost > 0 {
            outln!(
                "  {} event(s) total were routed to dead shards over the whole run",
                s.events_lost
            );
        }
        outln!("  races below cover only the surviving shards' address slices");
    }
    if rep.budget_degraded {
        outln!(
            "BUDGET        : shadow budget breached; {} cold shadow cell(s) evicted \
             (races whose prior access was evicted may be missed)",
            s.evicted
        );
    }
    if let Some(g) = &rep.governor {
        outln!(
            "GOVERNOR      : {} byte cap; eviction engaged ×{}, final rung {}, \
             {} decision(s), {} transition(s), peak assessed {:.1} KiB",
            g.limit,
            g.engaged,
            g.final_rung,
            g.decisions,
            g.transitions.len(),
            g.peak_assessed_bytes as f64 / 1024.0
        );
    }
    if rep.checkpointing_degraded {
        outln!(
            "CHECKPOINTING : degraded — one or more checkpoint writes failed; detection \
             continued on the last complete checkpoint"
        );
    }
    outln!("races         : {}", rep.races.len());
    for race in rep.races.iter().take(max_races) {
        outln!(
            "  {} at {}  current {}  previous {}{}{}",
            race.kind,
            race.addr,
            race.current,
            race.previous,
            if race.share_count > 1 {
                format!("  [group of {}]", race.share_count)
            } else {
                String::new()
            },
            if race.tainted {
                "  [tainted: verify]"
            } else {
                ""
            }
        );
    }
    if rep.races.len() > max_races {
        outln!(
            "  … {} more (raise --max-races)",
            rep.races.len() - max_races
        );
    }
}

/// Prints trace statistics.
pub fn trace_stats(s: &TraceStats, events: usize) {
    outln!("events        : {events}");
    outln!(
        "accesses      : {} ({} reads / {} writes)",
        s.accesses,
        s.reads,
        s.writes
    );
    outln!(
        "sizes 1/2/4/8 : {} / {} / {} / {}  (sub-word {:.0}%)",
        s.by_size[0],
        s.by_size[1],
        s.by_size[2],
        s.by_size[3],
        s.sub_word_fraction() * 100.0
    );
    outln!(
        "sync          : {} acquires, {} releases",
        s.acquires,
        s.releases
    );
    outln!(
        "threads       : {} ({} forks, {} joins)",
        s.threads,
        s.forks,
        s.joins
    );
    outln!("locks         : {}", s.locks);
    outln!(
        "heap churn    : {} allocs / {} frees, {:.1} KiB total",
        s.allocs,
        s.frees,
        s.alloc_bytes as f64 / 1024.0
    );
    outln!("distinct bytes: {}", s.distinct_bytes);
}
