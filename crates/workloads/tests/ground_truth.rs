//! Ground-truth validation: the detectors must find exactly what each
//! workload plants.

use dgrace_core::{DynamicConfig, DynamicGranularity};
use dgrace_detectors::{DetectorExt, FastTrack, Granularity, OracleDetector};
use dgrace_trace::Addr;
use dgrace_workloads::{Workload, WorkloadKind};

const SCALE: f64 = 0.05;

fn gen(kind: WorkloadKind) -> (dgrace_trace::Trace, dgrace_workloads::GroundTruth) {
    Workload::new(kind).with_scale(SCALE).generate()
}

#[test]
fn oracle_finds_exactly_the_planted_races() {
    for kind in WorkloadKind::ALL {
        let (trace, truth) = gen(kind);
        let rep = OracleDetector::new().run(&trace);
        assert_eq!(
            rep.race_addrs(),
            truth.racy_addrs,
            "{}: oracle vs ground truth",
            kind.name()
        );
    }
}

#[test]
fn fasttrack_byte_matches_oracle_locations() {
    for kind in WorkloadKind::ALL {
        let (trace, truth) = gen(kind);
        let rep = FastTrack::new().run(&trace);
        assert_eq!(
            rep.race_addrs(),
            truth.racy_addrs,
            "{}: fasttrack-byte vs ground truth",
            kind.name()
        );
    }
}

#[test]
fn word_granularity_masks_and_fabricates_as_planted() {
    for kind in WorkloadKind::ALL {
        let (trace, truth) = gen(kind);
        let rep = FastTrack::with_granularity(Granularity::Word).run(&trace);
        let expected = truth.racy_addrs.len() - truth.word_masked_pairs + truth.word_false_alarms;
        // Word-masking may merge planted races; false alarms add reports.
        let word_locs: Vec<Addr> = {
            let mut v: Vec<Addr> = truth.racy_addrs.iter().map(|a| a.align_down(4)).collect();
            v.sort();
            v.dedup();
            v
        };
        assert_eq!(
            rep.race_addrs().len(),
            word_locs.len() + truth.word_false_alarms,
            "{}: word-granularity distinct locations",
            kind.name()
        );
        assert_eq!(
            rep.races.len(),
            expected,
            "{}: word-granularity race count",
            kind.name()
        );
    }
}

#[test]
fn dynamic_reports_planted_plus_expected_extras() {
    for kind in WorkloadKind::ALL {
        let (trace, truth) = gen(kind);
        let rep = DynamicGranularity::new().run(&trace);
        // Every planted race location must be reported...
        let got = rep.race_addrs();
        for a in &truth.racy_addrs {
            assert!(
                got.contains(a),
                "{}: dynamic missed planted race at {a}",
                kind.name()
            );
        }
        // ...and the only extras are the documented sharing artifacts.
        assert_eq!(
            rep.races.len(),
            truth.racy_addrs.len() + truth.dynamic_extra,
            "{}: dynamic race count (races: {:?})",
            kind.name(),
            rep.races
                .iter()
                .map(|r| (r.addr, r.share_count))
                .collect::<Vec<_>>()
        );
    }
}

#[test]
fn dynamic_without_group_reporting_matches_byte_counts_mostly() {
    // With report_group_races off, the only remaining source of extras
    // is a genuine sharing-induced false alarm *at the accessed
    // location* — at most one per dissolved group.
    for kind in WorkloadKind::ALL {
        let (trace, truth) = gen(kind);
        let cfg = DynamicConfig {
            report_group_races: false,
            ..DynamicConfig::default()
        };
        let rep = DynamicGranularity::with_config(cfg).run(&trace);
        assert!(
            rep.races.len() >= truth.racy_addrs.len(),
            "{}: must not miss planted races",
            kind.name()
        );
        assert!(
            rep.races.len() <= truth.racy_addrs.len() + 1,
            "{}: too many extras without group reporting: {}",
            kind.name(),
            rep.races.len()
        );
    }
}

#[test]
fn scales_do_not_change_detected_locations() {
    for kind in [
        WorkloadKind::Ferret,
        WorkloadKind::X264,
        WorkloadKind::Hmmsearch,
    ] {
        let (t1, _) = Workload::new(kind).with_scale(0.03).generate();
        let (t2, _) = Workload::new(kind).with_scale(0.08).generate();
        let r1 = FastTrack::new().run(&t1);
        let r2 = FastTrack::new().run(&t2);
        assert_eq!(r1.race_addrs(), r2.race_addrs(), "{}", kind.name());
    }
}

/// Past scale 12.8 pbzip2's input blocks would reach the fixed output
/// region; the generator moves the outputs instead of aliasing them, so
/// the workload still has exactly its one planted race.
#[test]
fn pbzip2_past_scale_12_8_does_not_alias_its_buffers() {
    let (trace, truth) = Workload::new(WorkloadKind::Pbzip2)
        .with_scale(16.0)
        .generate();
    let rep = FastTrack::new().run(&trace);
    assert_eq!(rep.race_addrs(), truth.racy_addrs);
    assert_eq!(rep.races.len(), truth.racy_addrs.len());
}
