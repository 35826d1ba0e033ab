//! Machine-readable report rendering (`detect --json`, `analyze --json`).
//!
//! Hand-rolled writer — the workspace has no serialization dependency,
//! and the schema is small and stable. Deliberately **no wall-clock
//! fields**: two runs over the same trace produce byte-identical JSON,
//! so crash-recovery CI can `diff` a resumed run against an
//! uninterrupted baseline (and the plan-equivalence CI job can `diff`
//! planned against unplanned detection).

use std::fmt::Write;

use dgrace_analysis::PassStats;
use dgrace_detectors::Report;
use dgrace_trace::{AnalysisSummary, AnalysisWarning, DecodeStats, LocationClass};

/// Escapes a string for a JSON string literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders the full report (plus trace decode-loss counters) as a single
/// deterministic JSON object.
pub fn report(rep: &Report, decode: &DecodeStats) -> String {
    let s = &rep.stats;
    let mut o = String::with_capacity(1024);
    o.push_str("{\n");
    let _ = writeln!(o, "  \"detector\": \"{}\",", esc(&rep.detector));

    o.push_str("  \"races\": [");
    for (i, r) in rep.races.iter().enumerate() {
        o.push_str(if i == 0 { "\n" } else { ",\n" });
        let _ = write!(
            o,
            "    {{\"addr\": \"{:#x}\", \"kind\": \"{}\", \
             \"current\": {{\"tid\": {}, \"clock\": {}}}, \
             \"previous\": {{\"tid\": {}, \"clock\": {}}}, \
             \"share_count\": {}, \"tainted\": {}}}",
            r.addr.0,
            r.kind,
            r.current.tid.0,
            r.current.clock,
            r.previous.tid.0,
            r.previous.clock,
            r.share_count,
            r.tainted
        );
    }
    o.push_str(if rep.races.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });
    let _ = writeln!(o, "  \"race_count\": {},", rep.races.len());

    let _ = writeln!(
        o,
        "  \"stats\": {{\"events\": {}, \"accesses\": {}, \"pruned\": {}, \
         \"same_epoch\": {}, \"dropped\": {}, \"events_lost\": {}, \"evicted\": {}, \
         \"sample_admitted\": {}, \"sample_skipped\": {}, \"peak_total_bytes\": {}}},",
        s.events,
        s.accesses,
        s.pruned,
        s.same_epoch,
        s.dropped,
        s.events_lost,
        s.evicted,
        s.sample_admitted,
        s.sample_skipped,
        s.peak_total_bytes
    );

    o.push_str("  \"failures\": [");
    for (i, f) in rep.failures.iter().enumerate() {
        o.push_str(if i == 0 { "\n" } else { ",\n" });
        let last = match &f.last_event {
            Some(ev) => format!("\"{}\"", esc(ev)),
            None => "null".to_string(),
        };
        let _ = write!(
            o,
            "    {{\"shard\": {}, \"event_seq\": {}, \"payload\": \"{}\", \
             \"payload_type\": \"{}\", \"last_event\": {}}}",
            f.shard,
            f.event_seq,
            esc(&f.payload),
            esc(&f.payload_type),
            last
        );
    }
    o.push_str(if rep.failures.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });

    let _ = writeln!(o, "  \"budget_degraded\": {},", rep.budget_degraded);
    let _ = writeln!(
        o,
        "  \"checkpointing_degraded\": {},",
        rep.checkpointing_degraded
    );
    if let Some(g) = &rep.governor {
        o.push_str("  \"governor\": {\n");
        let _ = writeln!(o, "    \"limit\": {},", g.limit);
        let _ = writeln!(o, "    \"peak_rung\": {},", g.peak_rung);
        let _ = writeln!(o, "    \"final_rung\": {},", g.final_rung);
        let _ = writeln!(o, "    \"decisions\": {},", g.decisions);
        let _ = writeln!(o, "    \"peak_assessed_bytes\": {},", g.peak_assessed_bytes);
        let _ = writeln!(o, "    \"engaged\": {},", g.engaged);
        o.push_str("    \"transitions\": [");
        for (i, t) in g.transitions.iter().enumerate() {
            o.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                o,
                "      {{\"event\": {}, \"shard\": {}, \"from\": {}, \"to\": {}, \
                 \"assessed_bytes\": {}}}",
                t.event, t.shard, t.from, t.to, t.assessed_bytes
            );
        }
        o.push_str(if g.transitions.is_empty() {
            "]\n"
        } else {
            "\n    ]\n"
        });
        o.push_str("  },\n");
    }
    let _ = writeln!(
        o,
        "  \"degraded\": {},",
        rep.is_degraded() || decode.lossy()
    );
    let _ = writeln!(
        o,
        "  \"decode\": {{\"dropped_events\": {}, \"dropped_bytes\": {}}}",
        decode.dropped_events, decode.dropped_bytes
    );
    o.push('}');
    o
}

/// Renders an analysis summary plus its per-pass statistics as a single
/// deterministic JSON object (`analyze --json`). Pass timings are
/// deliberately excluded — only the item counts, which are a pure
/// function of the trace — so the output diffs byte-equal across runs.
pub fn analyze_report(summary: &AnalysisSummary, passes: &[PassStats]) -> String {
    let mut o = String::with_capacity(1024);
    o.push_str("{\n");
    let _ = writeln!(o, "  \"fingerprint\": \"{:#018x}\",", summary.fingerprint);
    let _ = writeln!(o, "  \"trace_events\": {},", summary.trace_events);
    let _ = writeln!(o, "  \"trace_accesses\": {},", summary.trace_accesses);

    let s = &summary.stats;
    o.push_str("  \"classes\": {");
    for (i, (key, c)) in [
        (LocationClass::ThreadLocal.label(), &s.thread_local),
        (LocationClass::ReadOnlyAfterInit.label(), &s.read_only),
        ("consistently-locked", &s.locked),
        (LocationClass::Contended.label(), &s.contended),
    ]
    .into_iter()
    .enumerate()
    {
        o.push_str(if i == 0 { "\n" } else { ",\n" });
        let _ = write!(
            o,
            "    \"{key}\": {{\"bytes\": {}, \"accesses\": {}}}",
            c.bytes, c.accesses
        );
    }
    o.push_str("\n  },\n");
    let _ = writeln!(o, "  \"prunable_accesses\": {},", s.prunable_accesses());
    let _ = writeln!(o, "  \"total_accesses\": {},", s.total_accesses());

    o.push_str("  \"warnings\": [");
    for (i, w) in summary.warnings.iter().enumerate() {
        o.push_str(if i == 0 { "\n" } else { ",\n" });
        match w {
            AnalysisWarning::LockOrderCycle { locks } => {
                let ids: Vec<String> = locks.iter().map(|l| l.0.to_string()).collect();
                let _ = write!(
                    o,
                    "    {{\"kind\": \"lock-order-cycle\", \"locks\": [{}]}}",
                    ids.join(", ")
                );
            }
            AnalysisWarning::UnlockedSharedRange { start, len } => {
                let _ = write!(
                    o,
                    "    {{\"kind\": \"unlocked-shared-range\", \"start\": \"{:#x}\", \
                     \"len\": {len}}}",
                    start.0
                );
            }
        }
    }
    o.push_str(if summary.warnings.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });
    let _ = writeln!(o, "  \"warning_count\": {},", summary.warnings.len());

    o.push_str("  \"passes\": [");
    for (i, ps) in passes.iter().enumerate() {
        o.push_str(if i == 0 { "\n" } else { ",\n" });
        let _ = write!(
            o,
            "    {{\"name\": \"{}\", \"items\": {}}}",
            esc(ps.name),
            ps.items
        );
    }
    o.push_str(if passes.is_empty() { "]\n" } else { "\n  ]\n" });
    o.push('}');
    o
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgrace_detectors::{RaceKind, RaceReport, ShardFailure};
    use dgrace_trace::Addr;
    use dgrace_vc::{Epoch, Tid};

    #[test]
    fn escapes_control_and_quote_characters() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("\u{1}"), "\\u0001");
    }

    #[test]
    fn report_json_is_deterministic_and_complete() {
        let mut rep = Report {
            detector: "dynamic".into(),
            ..Report::default()
        };
        rep.races.push(RaceReport {
            addr: Addr(0x1100),
            kind: RaceKind::WriteWrite,
            current: Epoch::new(2, Tid(1)),
            previous: Epoch::new(1, Tid(0)),
            event_index: None,
            share_count: 1,
            tainted: false,
        });
        rep.stats.events = 10;
        rep.stats.events_lost = 3;
        rep.failures.push(ShardFailure::new(1, 7, "boom"));
        let decode = DecodeStats {
            declared: 10,
            decoded: 9,
            dropped_events: 1,
            dropped_bytes: 4,
        };
        let a = report(&rep, &decode);
        let b = report(&rep, &decode);
        assert_eq!(a, b, "same inputs render byte-identically");
        for needle in [
            "\"addr\": \"0x1100\"",
            "\"kind\": \"write-write\"",
            "\"events_lost\": 3",
            "\"payload\": \"boom\"",
            "\"payload_type\": \"str\"",
            "\"last_event\": null",
            "\"dropped_events\": 1",
            "\"degraded\": true",
            "\"sample_admitted\": 0",
            "\"sample_skipped\": 0",
        ] {
            assert!(a.contains(needle), "missing {needle} in:\n{a}");
        }
    }

    #[test]
    fn analyze_json_is_deterministic_and_complete() {
        use dgrace_trace::{AnalysisSummary, AnalysisWarning, LockId};
        let summary = AnalysisSummary {
            fingerprint: 0xabcd,
            trace_events: 12,
            trace_accesses: 9,
            warnings: vec![
                AnalysisWarning::LockOrderCycle {
                    locks: vec![LockId(1), LockId(2)],
                },
                AnalysisWarning::UnlockedSharedRange {
                    start: Addr(0x200),
                    len: 8,
                },
            ],
            ..Default::default()
        };
        let passes = [PassStats {
            name: "classify",
            items: 12,
            nanos: 1234,
        }];
        let a = analyze_report(&summary, &passes);
        let b = analyze_report(&summary, &passes);
        assert_eq!(a, b, "same inputs render byte-identically");
        for needle in [
            "\"fingerprint\": \"0x000000000000abcd\"",
            "\"trace_events\": 12",
            "\"kind\": \"lock-order-cycle\", \"locks\": [1, 2]",
            "\"kind\": \"unlocked-shared-range\", \"start\": \"0x200\"",
            "\"warning_count\": 2",
            "{\"name\": \"classify\", \"items\": 12}",
        ] {
            assert!(a.contains(needle), "missing {needle} in:\n{a}");
        }
        assert!(!a.contains("nanos"), "timings must stay out of JSON");
    }
}
