//! Per-epoch time-series snapshots.

use memsim_types::CtrlStats;

/// Number of occupancy-heatmap buckets (Rh octiles).
pub const OCC_BUCKETS: usize = 8;

/// Instantaneous controller gauges sampled at an epoch boundary.
///
/// Counters (hits, fills, migrations…) are derived from [`CtrlStats`]
/// deltas by [`EpochSnapshot::from_delta`]; this struct carries
/// everything that is *state*, not a count. Designs without a concept
/// leave its field at the zero default.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EpochGauges {
    /// Fraction of HBM frames in cHBM (cache) mode.
    pub chbm_fraction: f64,
    /// Fraction of HBM frames in mHBM (memory) mode.
    pub mhbm_fraction: f64,
    /// Mean HBM occupancy ratio Rh across sets.
    pub rh: f64,
    /// Mean hotness threshold T across sets.
    pub threshold: f64,
    /// Over-fetch ratio so far (wasted / fetched bytes).
    pub overfetch_ratio: f64,
    /// Sets per Rh octile: `occupancy[k]` counts sets with
    /// `Rh ∈ [k/8, (k+1)/8)` (the last bucket includes 1.0).
    pub occupancy: [u32; OCC_BUCKETS],
}

impl EpochGauges {
    /// The octile bucket an occupancy ratio falls into.
    pub fn occ_bucket(rh: f64) -> usize {
        ((rh * OCC_BUCKETS as f64) as usize).min(OCC_BUCKETS - 1)
    }
}

/// One point of the epoch time-series.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochSnapshot {
    /// Epoch index (0-based).
    pub epoch: u64,
    /// Cumulative controller accesses at the sample.
    pub accesses: u64,
    /// HBM hit rate within this epoch alone.
    pub hit_rate: f64,
    /// Cumulative HBM hit rate up to the sample.
    pub cum_hit_rate: f64,
    /// Blocks filled into cHBM during this epoch.
    pub fills: u64,
    /// Pages migrated into mHBM during this epoch.
    pub migrations: u64,
    /// Evictions during this epoch.
    pub evictions: u64,
    /// Threshold rejections during this epoch.
    pub threshold_rejections: u64,
    /// Instantaneous gauges at the boundary.
    pub gauges: EpochGauges,
}

impl EpochSnapshot {
    /// Builds a snapshot from the cumulative stats at this boundary
    /// (`now`), the stats at the previous boundary (`prev`), and the
    /// instantaneous gauges.
    pub fn from_delta(
        epoch: u64,
        accesses: u64,
        now: &CtrlStats,
        prev: &CtrlStats,
        gauges: EpochGauges,
    ) -> EpochSnapshot {
        let d_hits = now.hbm_hits - prev.hbm_hits;
        let d_total = now.total_accesses() - prev.total_accesses();
        EpochSnapshot {
            epoch,
            accesses,
            hit_rate: if d_total == 0 { 0.0 } else { d_hits as f64 / d_total as f64 },
            cum_hit_rate: now.hbm_hit_rate(),
            fills: now.block_fills - prev.block_fills,
            migrations: now.page_migrations - prev.page_migrations,
            evictions: now.evictions - prev.evictions,
            threshold_rejections: now.threshold_rejections - prev.threshold_rejections,
            gauges,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occ_buckets_partition_unit_interval() {
        assert_eq!(EpochGauges::occ_bucket(0.0), 0);
        assert_eq!(EpochGauges::occ_bucket(0.124), 0);
        assert_eq!(EpochGauges::occ_bucket(0.125), 1);
        assert_eq!(EpochGauges::occ_bucket(0.5), 4);
        assert_eq!(EpochGauges::occ_bucket(0.999), 7);
        assert_eq!(EpochGauges::occ_bucket(1.0), 7, "full sets stay in the top octile");
    }

    #[test]
    fn delta_snapshot_subtracts_previous_boundary() {
        let mut prev = CtrlStats::new();
        prev.hbm_hits = 10;
        prev.offchip_serves = 10;
        prev.block_fills = 4;
        let mut now = prev.clone();
        now.hbm_hits = 25; // +15 hits
        now.offchip_serves = 15; // +5 misses
        now.block_fills = 6;
        now.page_migrations = 2;
        let s = EpochSnapshot::from_delta(3, 40, &now, &prev, EpochGauges::default());
        assert_eq!(s.epoch, 3);
        assert!((s.hit_rate - 0.75).abs() < 1e-12, "15 of 20 in-epoch");
        assert!((s.cum_hit_rate - 25.0 / 40.0).abs() < 1e-12);
        assert_eq!(s.fills, 2);
        assert_eq!(s.migrations, 2);
        assert_eq!(s.evictions, 0);
    }

    #[test]
    fn idle_epoch_has_zero_hit_rate() {
        let stats = CtrlStats::new();
        let s = EpochSnapshot::from_delta(0, 0, &stats, &stats, EpochGauges::default());
        assert_eq!(s.hit_rate, 0.0);
        assert_eq!(s.cum_hit_rate, 0.0);
    }
}
