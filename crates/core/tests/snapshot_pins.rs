//! Pins the bytes of mid-trace `snapshot()`s and the detector names.
//!
//! `snapshot_roundtrip.rs` checks that a snapshot restores; it cannot see
//! a refactor that changes the encoding on both sides at once. These are
//! FNV-1a digests of the snapshot each detector of the vector-clock family
//! takes two thirds of the way through one seeded trace — bare and under
//! each wrapper that writes a section of its own — and the `name()` of
//! every family member. A `.dgcp` checkpoint is made of exactly these
//! bytes, so a literal that moves breaks resuming older checkpoints.
//!
//! The table had 32 rows while every detector could also run on the
//! paged store; its 16 paged rows went with that option, and the 16 below
//! did not move. `data/dynamic-paged.dgss` is the snapshot of the old
//! `("dynamic", "paged", "bare")` pin (`0x3025ac4aee9ae5c7`), written by
//! the last build that had the option, at version 4: it is refused for
//! its version, and with its version word set to the current one, for its
//! stack name, `dynamic+paged`.
//!
//! All 16 digests were last regenerated when `DGSS` went to version 6:
//! the memory governor lost its coarsen and sample rungs, so its section
//! no longer carries a sampler or per-rung counters, only whether it is
//! evicting and one engagement count. The 12 digests of the other layers
//! moved with the version word alone. `data/byte-governed-v5.dgss` is the
//! version-5 snapshot of the `("byte", "governed")` pin, written by the
//! last version-5 build: it is refused.
//!
//! The 16 digests before that were regenerated when `DGSS` went to
//! version 5:
//! the fixed-granularity detectors lost their per-thread same-epoch
//! bitmaps and answer a repeat from the location's cell, as the dynamic
//! detector already did, so their section no longer carries the bitmaps.
//! The dynamic digests moved with the version word alone.
//! `data/byte-v4.dgss` is the version-4 snapshot of the `("byte",
//! "bare")` pin, written by the last version-4 build: it is refused. The
//! governed layer's limit went from 6 KiB to 5 KiB at the same time:
//! without the bitmap bytes the byte detector's modeled total on this
//! trace stays under the rung-one watermark of a 6 KiB limit, and a
//! governor that never engages pins a section of zeros.
//!
//! All 32 digests were regenerated when `DGSS` went to version 4:
//! the happens-before state lost its per-thread same-epoch bitmaps. The
//! dynamic detector answers a same-epoch repeat from the location's shadow
//! entry, and the fixed-granularity detectors keep their bitmaps in their
//! own section, after the happens-before state. `data/dynamic-v3.dgss` is
//! the version-3 snapshot of the `("dynamic", "hash", "bare")` pin, written
//! by the last version-3 build: it is refused. Without the bitmap the
//! dynamic detector re-checks two read repeats on this race-dense trace
//! that the bitmap had filtered (a racing write in between left the read
//! clock without the reader's epoch): two more `WriteRead` reports, at
//! `0x4104` and `0x4040`, both addresses already reported, 313 → 315
//! races and 116 → 111 same-epoch accesses.
//!
//! 24 of the 32 digests were regenerated before that, when `Free` began
//! clearing the freed range from every thread's same-epoch bitmap. The
//! seeded trace below frees 16-byte blocks of its 96 words and touches
//! them again, some in the same epoch; each such access used to be
//! filtered as a repeat of the one before the free, so the shadow the
//! free had dropped was never rebuilt. The state two thirds of the way
//! through now records those accesses. The eight `sampled` digests did not move (`loc:2` admits none
//! of them).
//!
//! All 32 digests were regenerated when `DGSS` went to version 3: one
//! header and the stack's name, then a one-byte-tagged section per layer
//! instead of a nested envelope per wrapper, and none of the words the
//! version-2 layout kept as constants for removed features (the dynamic
//! detector's two config bytes and three trailing words, each cell's
//! re-decision byte, the sampler's heat digest). Before that, the eight
//! `dynamic` digests had been regenerated once, when a private epoch cell
//! moved into its index slot. `data/dynamic-pr16.dgss` is a version-2
//! snapshot from before that move, taken at the `("dynamic", "hash",
//! "bare")` pin: it is refused, and the report its writer went on to
//! print differs from this build's only by the two races the `Free` fix
//! exposes and the two `WriteRead` repeats above.

use dgrace_core::{vc_detector, DynamicGranularity};
use dgrace_detectors::{
    Detector, DetectorExt, Governed, GovernorSpec, SampleSpec, Sampled, ShardableDetector,
    StaticPruneFilter,
};
use dgrace_trace::{
    AccessSize, Addr, AnalysisSummary, ClassifiedRange, Event, LocationClass, LockId, PruneSet,
    Tid, STATE_VERSION,
};

/// Three threads over 96 words and 3 locks, racy on purpose: reads,
/// writes, lock/unlock pairs and frees drawn from an xorshift stream.
fn seeded_trace(seed: u64, len: usize) -> Vec<Event> {
    let mut s = seed;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let mut events = vec![
        Event::Fork {
            parent: Tid(0),
            child: Tid(1),
        },
        Event::Fork {
            parent: Tid(0),
            child: Tid(2),
        },
    ];
    let mut holder: [Option<u32>; 3] = [None; 3];
    while events.len() < len {
        let r = next();
        let tid = Tid((r % 3) as u32);
        let addr = Addr(0x4000 + ((r >> 8) % 96) * 4);
        match (r >> 32) % 16 {
            0..=5 => events.push(Event::Read {
                tid,
                addr,
                size: AccessSize::U32,
            }),
            6..=11 => events.push(Event::Write {
                tid,
                addr,
                size: AccessSize::U32,
            }),
            12..=14 => {
                let l = ((r >> 40) % 3) as usize;
                match holder[l] {
                    None => {
                        holder[l] = Some(tid.0);
                        events.push(Event::Acquire {
                            tid,
                            lock: LockId(l as u32),
                        });
                    }
                    Some(t) => {
                        holder[l] = None;
                        events.push(Event::Release {
                            tid: Tid(t),
                            lock: LockId(l as u32),
                        });
                    }
                }
            }
            _ => events.push(Event::Free {
                tid,
                addr,
                size: 16,
            }),
        }
    }
    events
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The first sixteen words declared thread-local, so the prune filter
/// drops something and its counter is part of its section.
fn prune_set() -> PruneSet {
    AnalysisSummary {
        ranges: vec![ClassifiedRange {
            start: Addr(0x4000),
            len: 64,
            class: LocationClass::ThreadLocal,
        }],
        ..Default::default()
    }
    .prune_set(4, 0)
}

fn prototype(name: &str) -> Box<dyn ShardableDetector + Send> {
    vc_detector(name).expect("a family name")
}

fn layered(name: &str, layer: &str) -> Box<dyn Detector> {
    let det = prototype(name);
    match layer {
        "bare" => Box::new(det),
        "sampled" => Box::new(Sampled::new(det, SampleSpec::parse("loc:2").unwrap())),
        "governed" => Box::new(Governed::new(
            det,
            GovernorSpec {
                limit: 5 * 1024,
                interval: 64,
            },
        )),
        "pruned" => Box::new(StaticPruneFilter::new(det, prune_set())),
        _ => unreachable!(),
    }
}

const PINS: [(&str, &str, u64); 16] = [
    ("byte", "bare", 0xf0a38a5ef001e19a),
    ("byte", "sampled", 0xb7332946a3bf8777),
    ("byte", "governed", 0x6874a8a216d1d43c),
    ("byte", "pruned", 0x357aea1d6d4c45ef),
    ("word", "bare", 0x89c131128575bee4),
    ("word", "sampled", 0xcd9b2c17ef18d411),
    ("word", "governed", 0xbd464c54eb8b4a06),
    ("word", "pruned", 0x1a68fc48f5202e25),
    ("djit", "bare", 0x417644d0026ef44a),
    ("djit", "sampled", 0xbb8d96253317e91e),
    ("djit", "governed", 0x60fbe8cdcf380463),
    ("djit", "pruned", 0x0f292b3537f85963),
    ("dynamic", "bare", 0x2ac913527f31ed85),
    ("dynamic", "sampled", 0xb3a14c128aa6a8ff),
    ("dynamic", "governed", 0xb8e7d95bc9652574),
    ("dynamic", "pruned", 0xf197de077682e8f2),
];

#[test]
fn mid_trace_snapshot_bytes_are_pinned() {
    let trace = seeded_trace(0x5EED_D6CE, 3000);
    let actual: Vec<_> = PINS
        .iter()
        .map(|&(name, layer, _)| {
            let mut det = layered(name, layer);
            for ev in &trace[..2000] {
                det.on_event(ev);
            }
            let snap = det.snapshot().expect("the family snapshots");
            (name, layer, fnv1a(&snap))
        })
        .collect();
    if actual != PINS {
        for (name, layer, digest) in &actual {
            eprintln!("    ({name:?}, {layer:?}, {digest:#018x}),");
        }
        panic!("snapshot bytes moved; the table above is what this build writes");
    }
}

#[test]
fn a_version_2_snapshot_is_refused_and_its_writers_report_still_holds() {
    let snap = include_bytes!("data/dynamic-pr16.dgss");
    assert_eq!(fnv1a(snap), 0xc5d2_85ea_e9f8_835c, "the fixture itself");
    let err = prototype("dynamic").restore(snap).unwrap_err();
    assert!(err.contains("unsupported format version 2"), "{err}");
    // The report the snapshot's writer went on to print is the one this
    // build prints for the uninterrupted run.
    let trace = seeded_trace(0x5EED_D6CE, 3000);
    let mut straight = prototype("dynamic");
    for ev in &trace {
        straight.on_event(ev);
    }
    let report = straight.finish();
    // The two more are the `WriteRead` repeats the bitmap used to filter.
    assert_eq!(report.races.len(), 315);
    // Regenerated three times. When `DetectorStats` lost its two pre-seeding
    // counters, the digest became that of the writer's `{report:?}` with
    // `, preseed_hits: 0, preseed_misses: 0` cut out (before that cut it
    // was 0xb051_5a68_0610_6d27). Then `Free` began clearing the freed
    // range from the same-epoch bitmaps: the writer's report (311 races,
    // 0x3882_3118_1856_82e7) missed two races the oracle reports, at words
    // the trace frees and touches again in the same epoch. Then the
    // dynamic detector lost its same-epoch bitmap (313 races,
    // 0x5d50_2f2c_46f3_add7): see the module docs.
    assert_eq!(
        fnv1a(format!("{report:?}").as_bytes()),
        0x8de9_5ec5_4947_5782
    );
}

#[test]
fn a_version_3_snapshot_is_refused() {
    let snap = include_bytes!("data/dynamic-v3.dgss");
    let pin = 0xb8e8_90f8_6063_fef7; // the version-3 ("dynamic", "hash", "bare") pin
    assert_eq!(fnv1a(snap), pin, "the fixture itself");
    let err = prototype("dynamic").restore(snap).unwrap_err();
    assert!(err.contains("unsupported format version 3"), "{err}");
}

#[test]
fn a_version_4_snapshot_is_refused() {
    let snap = include_bytes!("data/byte-v4.dgss");
    let pin = 0x2b81_bd61_7ba1_56ed; // the version-4 ("byte", "bare") pin
    assert_eq!(fnv1a(snap), pin, "the fixture itself");
    let err = prototype("byte").restore(snap).unwrap_err();
    assert!(err.contains("unsupported format version 4"), "{err}");
}

#[test]
fn a_version_5_snapshot_is_refused() {
    let snap = include_bytes!("data/byte-governed-v5.dgss");
    let pin = 0x262e_c851_fab4_06f3; // the version-5 ("byte", "governed") pin
    assert_eq!(fnv1a(snap), pin, "the fixture itself");
    let err = layered("byte", "governed").restore(snap).unwrap_err();
    assert!(err.contains("unsupported format version 5"), "{err}");
}

#[test]
fn a_paged_store_snapshot_is_refused() {
    let snap = include_bytes!("data/dynamic-paged.dgss");
    assert_eq!(fnv1a(snap), 0x3025_ac4a_ee9a_e5c7, "the fixture itself");
    let err = DynamicGranularity::new().restore(snap).unwrap_err();
    assert!(err.contains("unsupported format version 4"), "{err}");
    // Written at version 4; at the current version its stack name is
    // what is refused.
    let mut snap = snap.to_vec();
    snap[4..8].copy_from_slice(&STATE_VERSION.to_le_bytes());
    let err = DynamicGranularity::new().restore(&snap).unwrap_err();
    assert!(
        err.contains(r#"snapshot is for detector "dynamic+paged", not "dynamic""#),
        "{err}"
    );
}

#[test]
fn the_governed_pin_is_taken_above_rung_zero() {
    // A governor that never engaged would pin a section of zeros.
    let trace = seeded_trace(0x5EED_D6CE, 3000);
    let mut det = layered("byte", "governed");
    for ev in &trace {
        det.on_event(ev);
    }
    assert!(det.finish().governor.is_some());
}

#[test]
fn family_names_are_pinned() {
    let names: Vec<String> = ["byte", "word", "dynamic", "dynamic-no-init", "djit"]
        .iter()
        .map(|n| prototype(n).name())
        .collect();
    assert_eq!(
        names,
        [
            "fasttrack-byte",
            "fasttrack-word",
            "dynamic",
            "dynamic-no-init-state",
            "djit-byte",
        ]
    );
}
