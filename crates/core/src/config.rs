//! Configuration of the dynamic-granularity detector.

/// Tuning and ablation switches for [`crate::DynamicGranularity`].
///
/// The two booleans are exactly the state-machine configurations compared
/// in Table 5:
///
/// | `init_state` | `share_at_init` | Table 5 column                   |
/// |--------------|-----------------|----------------------------------|
/// | `true`       | `true`          | "Sharing at Init" / "With Init state" (the paper's default) |
/// | `true`       | `false`         | "No sharing at Init"             |
/// | `false`      | n/a             | "No Init state" — the sharing decision is made only once, at the first access, and is never revisited (many false alarms) |
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DynamicConfig {
    /// Keep the `Init` state: make the *firm* sharing decision at the
    /// second epoch access rather than at the first access.
    pub init_state: bool,
    /// Temporarily share equal clocks with `Init` neighbors during the
    /// first epoch (saves peak memory for one-epoch data; no false-alarm
    /// risk because the decision is revisited).
    pub share_at_init: bool,
    /// Maximum distance (bytes) scanned for the nearest populated
    /// neighbor during first-epoch sharing. The paper scans within the
    /// indexing structure; 8 bytes covers every natural array stride
    /// (1–8 byte elements) at a fraction of the cost of scanning a whole
    /// 128-byte chunk.
    pub first_epoch_scan: u64,
    /// Master switch: disable *all* clock sharing (first-epoch and
    /// second-epoch). The detector then degenerates to byte-granularity
    /// FastTrack over two planes — used by property tests to verify the
    /// embedded FastTrack protocol against the exact oracle.
    pub enable_sharing: bool,
    /// Report a race for *every* location sharing the racy clock, not
    /// just the accessed one. This mirrors the paper's observed x264
    /// behaviour (4 extra reported races from locations that shared a
    /// vector clock with a racy location). Default `true`.
    pub report_group_races: bool,
}

impl Default for DynamicConfig {
    fn default() -> Self {
        DynamicConfig {
            init_state: true,
            share_at_init: true,
            first_epoch_scan: 8,
            enable_sharing: true,
            report_group_races: true,
        }
    }
}

impl DynamicConfig {
    /// The paper's default configuration.
    pub fn paper_default() -> Self {
        Self::default()
    }

    /// Table 5: "No sharing at Init" (Init state kept, but no temporary
    /// first-epoch sharing).
    pub fn no_sharing_at_init() -> Self {
        DynamicConfig {
            share_at_init: false,
            ..Self::default()
        }
    }

    /// Table 5: "No Init state" — one sharing decision, made at first
    /// access, never revisited.
    pub fn no_init_state() -> Self {
        DynamicConfig {
            init_state: false,
            ..Self::default()
        }
    }

    /// Sharing fully disabled: byte-granularity FastTrack behaviour
    /// (testing configuration).
    pub fn no_sharing() -> Self {
        DynamicConfig {
            enable_sharing: false,
            ..Self::default()
        }
    }

    /// A short label for table rows.
    pub fn label(&self) -> &'static str {
        match (self.init_state, self.share_at_init) {
            (true, true) => "dynamic",
            (true, false) => "dynamic-no-init-sharing",
            (false, _) => "dynamic-no-init-state",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_config() {
        let c = DynamicConfig::default();
        assert!(c.init_state);
        assert!(c.share_at_init);
        assert_eq!(c.label(), "dynamic");
    }

    #[test]
    fn ablation_constructors() {
        assert!(!DynamicConfig::no_sharing_at_init().share_at_init);
        assert!(DynamicConfig::no_sharing_at_init().init_state);
        assert!(!DynamicConfig::no_init_state().init_state);
        assert_eq!(
            DynamicConfig::no_sharing_at_init().label(),
            "dynamic-no-init-sharing"
        );
        assert_eq!(
            DynamicConfig::no_init_state().label(),
            "dynamic-no-init-state"
        );
    }
}
