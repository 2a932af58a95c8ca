//! Bumblebee configuration and the Fig. 7 ablation switches.

/// Where freshly touched pages are allocated (paper §III-D; the Alloc-D /
/// Alloc-H ablations of Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AllocPolicy {
    /// The paper's hotness-based remapping allocation: allocate in HBM when
    /// the most recently allocated page is still hot in HBM and free HBM
    /// space exists.
    #[default]
    Hotness,
    /// Always allocate in off-chip DRAM (Alloc-D).
    AllDram,
    /// Allocate in HBM while space remains (Alloc-H).
    AllHbm,
}

/// Rh at or above which a set counts as high-occupancy (paper: 1.0).
pub const HIGH_RH: f64 = 1.0;

/// Remapping sets whose cHBM is flushed per high-global-footprint event
/// (paper rule 5's batching).
pub const FLUSH_BATCH_SETS: u64 = 8;

/// Set-local accesses a set refrains from creating new cHBM pages after a
/// pressure flush ("until the OS memory footprint drops").
pub const CHBM_DISABLE_WINDOW: u64 = 4096;

/// Tuning knobs and ablation switches for the Bumblebee controller.
///
/// Defaults reproduce the paper's evaluated configuration (§IV-A):
/// 8-deep off-chip hot queue, `T` = smallest HBM hotness in the set,
/// majority mode-switch threshold, multiplexed cHBM/mHBM space, metadata
/// in SRAM, hotness-based allocation, and every high-memory-footprint
/// rule enabled. The rule thresholds no experiment varies are constants:
/// [`HIGH_RH`], [`FLUSH_BATCH_SETS`] and [`CHBM_DISABLE_WINDOW`].
#[derive(Debug, Clone, PartialEq)]
pub struct BumblebeeConfig {
    /// Depth of the hot-table queue for off-chip pages (paper: 8).
    pub hot_queue_len: usize,
    /// Fraction of a page's blocks that must be valid before a cHBM page is
    /// switched to mHBM / counted as spatially strong ("most blocks";
    /// paper-faithful default 0.5, strict majority).
    pub mode_switch_fraction: f64,
    /// Set-local accesses after which an unchanged LRU HBM entry is a
    /// zombie (paper: "a long time"; default 1024).
    pub zombie_window: u32,
    /// `Some(r)` pins the cHBM fraction of every set to `r` (Fig. 7's
    /// C-Only = 1.0, 50%-C = 0.5, 25%-C = 0.25, M-Only = 0.0);
    /// `None` = the paper's adaptive design.
    pub fixed_chbm_ratio: Option<f64>,
    /// `false` reproduces the No-Multi ablation: cHBM and mHBM spaces are
    /// separate, so every mode switch moves the page through off-chip DRAM.
    pub multiplexed: bool,
    /// `true` reproduces Meta-H: all metadata lives in HBM instead of SRAM.
    pub metadata_in_hbm: bool,
    /// Allocation policy (Alloc-D / Alloc-H ablations).
    pub alloc_policy: AllocPolicy,
    /// `false` reproduces No-HMF: disable all §III-E footprint-triggered
    /// movement (buffered eviction, zombies, swap mode, pressure flush) and
    /// simply evict popped-out pages.
    pub hmf_enabled: bool,
    /// On-chip SRAM budget for metadata in bytes (paper: 512 KB for every
    /// design). Scale together with the geometry so the fits-in-SRAM
    /// regime of each design is preserved at reduced capacities.
    pub sram_budget: u64,
}

impl Default for BumblebeeConfig {
    fn default() -> Self {
        BumblebeeConfig {
            hot_queue_len: 8,
            mode_switch_fraction: 0.5,
            zombie_window: 1024,
            fixed_chbm_ratio: None,
            multiplexed: true,
            metadata_in_hbm: false,
            alloc_policy: AllocPolicy::Hotness,
            hmf_enabled: true,
            sram_budget: 512 << 10,
        }
    }
}

impl BumblebeeConfig {
    /// The paper's full design (same as `Default`).
    pub fn paper() -> Self {
        BumblebeeConfig::default()
    }

    /// Fig. 7 `C-Only`: every HBM frame is cache.
    pub fn c_only() -> Self {
        BumblebeeConfig { fixed_chbm_ratio: Some(1.0), ..Self::default() }
    }

    /// Fig. 7 `M-Only`: every HBM frame is OS-visible memory.
    pub fn m_only() -> Self {
        BumblebeeConfig { fixed_chbm_ratio: Some(0.0), ..Self::default() }
    }

    /// Fig. 7 `25%-C`.
    pub fn fixed_25c() -> Self {
        BumblebeeConfig { fixed_chbm_ratio: Some(0.25), ..Self::default() }
    }

    /// Fig. 7 `50%-C`.
    pub fn fixed_50c() -> Self {
        BumblebeeConfig { fixed_chbm_ratio: Some(0.5), ..Self::default() }
    }

    /// Fig. 7 `No-Multi`.
    pub fn no_multi() -> Self {
        BumblebeeConfig { multiplexed: false, ..Self::default() }
    }

    /// Fig. 7 `Meta-H`.
    pub fn meta_h() -> Self {
        BumblebeeConfig { metadata_in_hbm: true, ..Self::default() }
    }

    /// Fig. 7 `Alloc-D`.
    pub fn alloc_d() -> Self {
        BumblebeeConfig { alloc_policy: AllocPolicy::AllDram, ..Self::default() }
    }

    /// Fig. 7 `Alloc-H`.
    pub fn alloc_h() -> Self {
        BumblebeeConfig { alloc_policy: AllocPolicy::AllHbm, ..Self::default() }
    }

    /// Fig. 7 `No-HMF`.
    pub fn no_hmf() -> Self {
        BumblebeeConfig { hmf_enabled: false, ..Self::default() }
    }

    /// cHBM frame quota for a set of `n` frames under a fixed ratio
    /// (`None` when adaptive).
    pub fn chbm_quota(&self, n: u32) -> Option<u32> {
        self.fixed_chbm_ratio.map(|r| (f64::from(n) * r).round() as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_settings() {
        let c = BumblebeeConfig::default();
        assert_eq!(c.hot_queue_len, 8);
        assert_eq!(HIGH_RH, 1.0);
        assert!(c.multiplexed && c.hmf_enabled && !c.metadata_in_hbm);
        assert_eq!(c.fixed_chbm_ratio, None);
        assert_eq!(c.alloc_policy, AllocPolicy::Hotness);
    }

    #[test]
    fn ablation_constructors_flip_one_knob() {
        assert_eq!(BumblebeeConfig::c_only().fixed_chbm_ratio, Some(1.0));
        assert_eq!(BumblebeeConfig::m_only().fixed_chbm_ratio, Some(0.0));
        assert!(!BumblebeeConfig::no_multi().multiplexed);
        assert!(BumblebeeConfig::meta_h().metadata_in_hbm);
        assert_eq!(BumblebeeConfig::alloc_d().alloc_policy, AllocPolicy::AllDram);
        assert_eq!(BumblebeeConfig::alloc_h().alloc_policy, AllocPolicy::AllHbm);
        assert!(!BumblebeeConfig::no_hmf().hmf_enabled);
    }

    #[test]
    fn quota_math() {
        let c = BumblebeeConfig::fixed_25c();
        assert_eq!(c.chbm_quota(8), Some(2));
        assert_eq!(BumblebeeConfig::fixed_50c().chbm_quota(8), Some(4));
        assert_eq!(BumblebeeConfig::c_only().chbm_quota(8), Some(8));
        assert_eq!(BumblebeeConfig::paper().chbm_quota(8), None);
    }
}
