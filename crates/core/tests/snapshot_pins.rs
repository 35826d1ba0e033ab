//! Pins the bytes of mid-trace `snapshot()`s and the detector names.
//!
//! `snapshot_roundtrip.rs` checks that a snapshot restores; it cannot see
//! a refactor that changes the encoding on both sides at once. These are
//! FNV-1a digests of the snapshot each detector of the vector-clock family
//! takes two thirds of the way through one seeded trace — bare and under
//! each wrapper that adds an envelope — and the `name()` of every family
//! member on both stores. A `.dgcp` checkpoint is made of exactly these
//! bytes, so a literal that moves breaks resuming older checkpoints.
//!
//! The eight `dynamic` digests were regenerated once, when a private
//! epoch cell moved into its index slot: since then the plane numbers its
//! cells in ascending-address order of first reference instead of slab
//! order (`plane.rs`, `encode`). The decoder reads either numbering;
//! `data/dynamic-pr16.dgss` is the snapshot the last build with the old
//! numbering took at the `("dynamic", "hash", "bare")` pin, kept to hold
//! it to that.

use dgrace_core::vc_detector;
use dgrace_detectors::{
    Detector, Governed, GovernorSpec, SampleSpec, Sampled, ShardableDetector, StaticPruneFilter,
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
/// drops something and its counter is part of the envelope.
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
    ("byte", "hash", "bare", 0x9d3d_492a_fcba_6135),
    ("byte", "hash", "sampled", 0xe366_d593_d292_b6e9),
    ("byte", "hash", "governed", 0x9c96_affa_377a_14a4),
    ("byte", "hash", "pruned", 0x32b9_fe18_f1ce_7201),
    ("byte", "paged", "bare", 0x9ef9_92fe_3900_19ee),
    ("byte", "paged", "sampled", 0x0b95_99a8_843c_b3c6),
    ("byte", "paged", "governed", 0x72c5_2c65_294e_83d6),
    ("byte", "paged", "pruned", 0x7a08_c474_ba0c_38d7),
    ("word", "hash", "bare", 0x2571_dd2f_bb31_ad53),
    ("word", "hash", "sampled", 0xd7a1_917c_022e_cb63),
    ("word", "hash", "governed", 0xc12e_f81d_a5dc_f96e),
    ("word", "hash", "pruned", 0xb46e_76b7_4da2_902f),
    ("word", "paged", "bare", 0xa811_f880_703d_6ca0),
    ("word", "paged", "sampled", 0xce3e_65cc_b3bb_5ae0),
    ("word", "paged", "governed", 0xd551_6864_3f91_d1f0),
    ("word", "paged", "pruned", 0x9c4e_3c48_36c4_be75),
    ("djit", "hash", "bare", 0xf820_d86c_3a56_b390),
    ("djit", "hash", "sampled", 0x9963_2d1c_6eab_6d4c),
    ("djit", "hash", "governed", 0x378c_297a_dc4e_a85f),
    ("djit", "hash", "pruned", 0xf53d_8fa7_cd32_e6d5),
    ("djit", "paged", "bare", 0xfb89_b421_e60c_770c),
    ("djit", "paged", "sampled", 0x819b_fa16_e6ba_61b7),
    ("djit", "paged", "governed", 0x83c6_0a0d_3fbb_3cae),
    ("djit", "paged", "pruned", 0xb2f5_9b3f_154c_dcce),
    ("dynamic", "hash", "bare", 0xd07e_844c_ccd9_0c87),
    ("dynamic", "hash", "sampled", 0x906f_58d5_f537_b979),
    ("dynamic", "hash", "governed", 0x9477_27b6_dd89_fc6b),
    ("dynamic", "hash", "pruned", 0x9044_1c3d_200a_f785),
    ("dynamic", "paged", "bare", 0x4f94_3000_83c8_954b),
    ("dynamic", "paged", "sampled", 0x0819_5159_e66e_3d22),
    ("dynamic", "paged", "governed", 0xc60e_e8a2_9cf2_9335),
    ("dynamic", "paged", "pruned", 0x50e7_e81a_3f6b_b397),
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
fn a_snapshot_in_slab_order_restores_and_finishes_to_its_writers_report() {
    let snap = include_bytes!("data/dynamic-pr16.dgss");
    assert_eq!(fnv1a(snap), 0xc5d2_85ea_e9f8_835c, "the fixture itself");
    let trace = seeded_trace(0x5EED_D6CE, 3000);
    let mut resumed = prototype("dynamic", "hash");
    resumed.restore(snap).expect("the older numbering decodes");
    let mut straight = prototype("dynamic", "hash");
    for ev in &trace[..2000] {
        straight.on_event(ev);
    }
    // The state is the one this build reaches itself...
    assert_eq!(resumed.snapshot(), straight.snapshot());
    for ev in &trace[2000..] {
        resumed.on_event(ev);
        straight.on_event(ev);
    }
    // ...and the report the one the snapshot's writer went on to print.
    let report = resumed.finish();
    assert_eq!(report, straight.finish());
    assert_eq!(report.races.len(), 311);
    // Regenerated once, when `DetectorStats` lost its two pre-seeding
    // counters: this is the digest of the writer's `{report:?}` with
    // `, preseed_hits: 0, preseed_misses: 0` cut out (before that cut
    // it was 0xb051_5a68_0610_6d27).
    assert_eq!(
        fnv1a(format!("{report:?}").as_bytes()),
        0x3882_3118_1856_82e7
    );
}

#[test]
fn the_governed_pin_is_taken_above_rung_zero() {
    // A governor that never engaged would pin an envelope of zeros.
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
