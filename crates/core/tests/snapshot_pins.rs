//! Pins the bytes of mid-trace `snapshot()`s and the detector names.
//!
//! `snapshot_roundtrip.rs` checks that a snapshot restores; it cannot see
//! a refactor that changes the encoding on both sides at once. These are
//! FNV-1a digests of the snapshot each detector of the vector-clock family
//! takes two thirds of the way through one seeded trace — bare and under
//! each wrapper that writes a section of its own — and the `name()` of
//! every family member on both stores. A `.dgcp` checkpoint is made of
//! exactly these bytes, so a literal that moves breaks resuming older
//! checkpoints.
//!
//! 24 of the 32 digests were last regenerated when `Free` began clearing
//! the freed range from every thread's same-epoch bitmap. The seeded trace
//! below frees 16-byte blocks of its 96 words and touches them again, some
//! in the same epoch; each such access used to be filtered as a repeat of
//! the one before the free, so the shadow the free had dropped was never
//! rebuilt. The state two thirds of the way through now records those
//! accesses. The eight `sampled` digests did not move (`loc:2` admits none
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
//! exposes.

use dgrace_core::vc_detector;
use dgrace_detectors::{
    Detector, DetectorExt, Governed, GovernorSpec, SampleSpec, Sampled, ShardableDetector,
    StaticPruneFilter,
};
use dgrace_shadow::{HashSelect, PagedSelect};
use dgrace_trace::{
    AccessSize, Addr, AnalysisSummary, ClassifiedRange, Event, LocationClass, LockId, PruneSet, Tid,
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

fn prototype(name: &str, store: &str) -> Box<dyn ShardableDetector + Send> {
    match store {
        "hash" => vc_detector::<HashSelect>(name),
        "paged" => vc_detector::<PagedSelect>(name),
        _ => unreachable!(),
    }
    .expect("a family name")
}

fn layered(name: &str, store: &str, layer: &str) -> Box<dyn Detector> {
    let det = prototype(name, store);
    match layer {
        "bare" => Box::new(det),
        "sampled" => Box::new(Sampled::new(det, SampleSpec::parse("loc:2").unwrap())),
        "governed" => Box::new(Governed::new(
            det,
            GovernorSpec {
                limit: 6 * 1024,
                interval: 64,
                sample: SampleSpec::parse("loc:4").unwrap(),
            },
        )),
        "pruned" => Box::new(StaticPruneFilter::new(det, prune_set())),
        _ => unreachable!(),
    }
}

const PINS: [(&str, &str, &str, u64); 32] = [
    ("byte", "hash", "bare", 0x0bfeb20cc1ed3ec9),
    ("byte", "hash", "sampled", 0x095d122bd7494a3e),
    ("byte", "hash", "governed", 0xc76f1e697a64a3ab),
    ("byte", "hash", "pruned", 0x20dc15b4f586121e),
    ("byte", "paged", "bare", 0xa0f3fb247b85a882),
    ("byte", "paged", "sampled", 0x0205122de3cf5e4b),
    ("byte", "paged", "governed", 0xbe6baca43bcf5e4b),
    ("byte", "paged", "pruned", 0x767989d11086540e),
    ("word", "hash", "bare", 0x729191f9eddebe5f),
    ("word", "hash", "sampled", 0xec9075ebb4b5a8dc),
    ("word", "hash", "governed", 0xad7a272c6f1e50c5),
    ("word", "hash", "pruned", 0xe7c857af7da1192c),
    ("word", "paged", "bare", 0x6428061bdf7fdecc),
    ("word", "paged", "sampled", 0x3865d0086d6f0629),
    ("word", "paged", "governed", 0x0e2f6e67de34ff39),
    ("word", "paged", "pruned", 0x96fa2241e04a1144),
    ("djit", "hash", "bare", 0xa2b64b92e0eba4da),
    ("djit", "hash", "sampled", 0x63da6dd384d0d6fb),
    ("djit", "hash", "governed", 0x31543d87bac81157),
    ("djit", "hash", "pruned", 0x576e15f7dfd7436d),
    ("djit", "paged", "bare", 0xd6ffcac16325694e),
    ("djit", "paged", "sampled", 0x728c8b12b2c3e7d2),
    ("djit", "paged", "governed", 0x183fe2ab3498ef70),
    ("djit", "paged", "pruned", 0x044efdff35d55de4),
    ("dynamic", "hash", "bare", 0xb8e890f86063fef7),
    ("dynamic", "hash", "sampled", 0xd7ecf29895279112),
    ("dynamic", "hash", "governed", 0x9db07f2611510e82),
    ("dynamic", "hash", "pruned", 0xa16092d8c668169d),
    ("dynamic", "paged", "bare", 0x5279447720dc69d3),
    ("dynamic", "paged", "sampled", 0xf148596e18597a17),
    ("dynamic", "paged", "governed", 0xbc5e83148b26bb8b),
    ("dynamic", "paged", "pruned", 0xa68f01809aed2c99),
];

#[test]
fn mid_trace_snapshot_bytes_are_pinned() {
    let trace = seeded_trace(0x5EED_D6CE, 3000);
    let actual: Vec<_> = PINS
        .iter()
        .map(|&(name, store, layer, _)| {
            let mut det = layered(name, store, layer);
            for ev in &trace[..2000] {
                det.on_event(ev);
            }
            let snap = det.snapshot().expect("the family snapshots");
            (name, store, layer, fnv1a(&snap))
        })
        .collect();
    if actual != PINS {
        for (name, store, layer, digest) in &actual {
            eprintln!("    ({name:?}, {store:?}, {layer:?}, {digest:#018x}),");
        }
        panic!("snapshot bytes moved; the table above is what this build writes");
    }
}

#[test]
fn a_version_2_snapshot_is_refused_and_its_writers_report_still_holds() {
    let snap = include_bytes!("data/dynamic-pr16.dgss");
    assert_eq!(fnv1a(snap), 0xc5d2_85ea_e9f8_835c, "the fixture itself");
    let err = prototype("dynamic", "hash").restore(snap).unwrap_err();
    assert!(err.contains("unsupported format version 2"), "{err}");
    // The report the snapshot's writer went on to print is the one this
    // build prints for the uninterrupted run.
    let trace = seeded_trace(0x5EED_D6CE, 3000);
    let mut straight = prototype("dynamic", "hash");
    for ev in &trace {
        straight.on_event(ev);
    }
    let report = straight.finish();
    assert_eq!(report.races.len(), 313);
    // Regenerated twice. When `DetectorStats` lost its two pre-seeding
    // counters, the digest became that of the writer's `{report:?}` with
    // `, preseed_hits: 0, preseed_misses: 0` cut out (before that cut it
    // was 0xb051_5a68_0610_6d27). Then `Free` began clearing the freed
    // range from the same-epoch bitmaps: the writer's report (311 races,
    // 0x3882_3118_1856_82e7) missed two races the oracle reports, at words
    // the trace frees and touches again in the same epoch.
    assert_eq!(
        fnv1a(format!("{report:?}").as_bytes()),
        0x5d50_2f2c_46f3_add7
    );
}

#[test]
fn the_governed_pin_is_taken_above_rung_zero() {
    // A governor that never engaged would pin a section of zeros.
    let trace = seeded_trace(0x5EED_D6CE, 3000);
    let mut det = layered("byte", "hash", "governed");
    for ev in &trace {
        det.on_event(ev);
    }
    assert!(det.finish().governor.is_some());
}

#[test]
fn family_names_are_pinned() {
    let names: Vec<String> = ["byte", "word", "dynamic", "dynamic-no-init", "djit"]
        .iter()
        .flat_map(|n| ["hash", "paged"].map(|s| prototype(n, s).name()))
        .collect();
    assert_eq!(
        names,
        [
            "fasttrack-byte",
            "fasttrack-byte+paged",
            "fasttrack-word",
            "fasttrack-word+paged",
            "dynamic",
            "dynamic+paged",
            "dynamic-no-init-state",
            "dynamic-no-init-state+paged",
            "djit-byte",
            "djit-byte+paged",
        ]
    );
}
