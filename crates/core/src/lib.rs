//! The dynamic-granularity race detector — the contribution of
//! *"Efficient Data Race Detection for C/C++ Programs Using Dynamic
//! Granularity"* (Song & Lee, IPDPS 2014), §III–§IV.
//!
//! # The algorithm in one paragraph
//!
//! Detection starts at byte granularity on top of FastTrack. Read
//! locations and write locations are tracked separately; each location's
//! shadow state is a **vector-clock cell** that may be *shared* with
//! neighboring locations whose clocks are equal — so one cell covers a
//! whole array or struct, shrinking both memory and the number of clock
//! operations. Sharing is controlled by the per-location state machine of
//! Fig. 2 ([`VcState`]): during a location's **first epoch** it may share
//! *temporarily* with `Init`-state neighbors of equal clock
//! (initialization patterns); at its **second epoch access** the shared
//! clock is split and one *firm* decision is made — share with an
//! equal-clock `Shared`/`Private` neighbor at `L±size`, or stay private.
//! A data race terminates sharing: every location of the group gets a
//! private clock in the `Race` state. Hence at most two sharing decisions
//! per location, O(1) each.
//!
//! # Example
//!
//! ```
//! use dgrace_core::DynamicGranularity;
//! use dgrace_detectors::DetectorExt;
//! use dgrace_trace::{AccessSize, TraceBuilder};
//!
//! // One thread zeroes an array: 16 words, ONE shared vector clock.
//! let mut b = TraceBuilder::new();
//! b.write_block(0u32, 0x1000u64, 64, AccessSize::U32);
//! let report = DynamicGranularity::new().run(&b.build());
//! assert!(report.stats.peak_vc_count < 4);
//! assert_eq!(report.stats.sharing.unwrap().max_group, 16);
//! ```
//!
//! # Entry points
//!
//! * [`DynamicGranularity`] — the detector (implements
//!   `dgrace_detectors::Detector`).
//! * [`DynamicConfig`] — the Table 5 ablation switches
//!   (`share_at_init`, `init_state`) plus tuning knobs.
//! * [`VcState`] — the state machine, exposed for inspection and testing.
//! * [`vc_detector`] / [`VC_DETECTORS`] — the name → detector table of
//!   the whole vector-clock family (FastTrack, DJIT+, dynamic granularity).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod detector;
mod plane;
mod state;

pub use config::DynamicConfig;
pub use detector::{DynamicGranularity, DynamicGranularityOn};
pub use plane::{CellRef, CellView, GroupSnapshot, Index, IndexOn, Plane};
pub use state::VcState;

use dgrace_detectors::{Djit, FastTrack, Granularity, ShardableDetector};

/// The vector-clock detector family: `(CLI/wire name, one-line
/// description)` in listing order. Every message that enumerates the
/// family is built from this table, and [`vc_detector`] accepts exactly
/// these names.
pub const VC_DETECTORS: [(&str, &str); 5] = [
    ("byte", "FastTrack, byte granularity (paper baseline)"),
    ("word", "FastTrack, word granularity"),
    ("dynamic", "FastTrack + dynamic granularity (the paper)"),
    (
        "dynamic-no-init",
        "dynamic without the Init state (Table 5)",
    ),
    ("djit", "DJIT+ (full vector clocks)"),
];

/// The family's names joined with `", "`, for "supported: …" messages.
pub fn vc_detector_names() -> String {
    VC_DETECTORS.map(|(name, _)| name).join(", ")
}

/// The vector-clock detector family by name ([`VC_DETECTORS`]). `None`
/// means the name is not in the family. The box
/// is a shardable prototype and (being a `Detector` itself) a serial
/// detector; `Send` so a caller may hand it to another thread (a `serve`
/// session wraps its own in the sampler there).
pub fn vc_detector(name: &str) -> Option<Box<dyn ShardableDetector + Send>> {
    Some(match name {
        "byte" => Box::new(FastTrack::with_granularity(Granularity::Byte)),
        "word" => Box::new(FastTrack::with_granularity(Granularity::Word)),
        "dynamic" => Box::new(DynamicGranularity::new()),
        "dynamic-no-init" => Box::new(DynamicGranularity::with_config(
            DynamicConfig::no_init_state(),
        )),
        "djit" => Box::new(Djit::new()),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_table_and_the_constructor_agree() {
        for (name, _) in VC_DETECTORS {
            assert!(vc_detector(name).is_some(), "{name}");
        }
        assert!(vc_detector("oracle").is_none());
        assert_eq!(
            vc_detector_names(),
            "byte, word, dynamic, dynamic-no-init, djit"
        );
    }
}
