//! Policy-side statistics.
//!
//! [`CtrlStats`] counts the events every controller reports identically so
//! that experiment code can compare designs without downcasting.
//! [`OverfetchTracker`] implements the paper's §IV-B over-fetching metric:
//! the fraction of data brought into HBM that is evicted without ever being
//! used.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Event counters shared by every hybrid-memory controller.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CtrlStats {
    /// Demand requests served from HBM (cHBM or mHBM).
    pub hbm_hits: u64, // audit: unit(accesses)
    /// Demand requests served from off-chip DRAM.
    pub offchip_serves: u64, // audit: unit(accesses)
    /// Blocks fetched into cHBM.
    pub block_fills: u64, // audit: unit(accesses)
    /// Whole pages migrated into mHBM.
    pub page_migrations: u64, // audit: unit(accesses)
    /// Pages (or blocks) evicted from HBM to off-chip DRAM.
    pub evictions: u64,
    /// cHBM→mHBM mode switches.
    pub switch_to_mhbm: u64,
    /// mHBM→cHBM mode switches (the buffered-eviction path).
    pub switch_to_chbm: u64,
    /// Zombie pages evicted (paper §III-E, footprint rule 3).
    pub zombie_evictions: u64,
    /// Batched cHBM flushes under global memory pressure (rule 5).
    pub pressure_flushes: u64,
    /// Hot-table threshold rejections (data kept out of HBM by `T`).
    pub threshold_rejections: u64,
    /// PRT misses (first-touch page allocations).
    pub allocations: u64,
    /// Pages allocated directly in HBM by the hotness-based allocator.
    pub alloc_in_hbm: u64,
}

impl CtrlStats {
    /// Creates zeroed counters.
    pub fn new() -> CtrlStats {
        CtrlStats::default()
    }

    /// Total demand requests observed.
    // audit: hot-path
    // audit: unit(accesses)
    pub fn total_accesses(&self) -> u64 {
        self.hbm_hits + self.offchip_serves
    }

    /// HBM hit rate over all demand requests (0 when idle).
    // audit: hot-path
    pub fn hbm_hit_rate(&self) -> f64 {
        let total = self.total_accesses();
        if total == 0 {
            0.0
        } else {
            self.hbm_hits as f64 / total as f64
        }
    }
}

impl fmt::Display for CtrlStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "accesses={} hbm_hit_rate={:.3} fills={} migrations={} evictions={} switches={}+{} \
             zombie_evictions={} pressure_flushes={} threshold_rejections={} alloc_in_hbm={}",
            self.total_accesses(),
            self.hbm_hit_rate(),
            self.block_fills,
            self.page_migrations,
            self.evictions,
            self.switch_to_mhbm,
            self.switch_to_chbm,
            self.zombie_evictions,
            self.pressure_flushes,
            self.threshold_rejections,
            self.alloc_in_hbm,
        )
    }
}

/// Tracks over-fetching: bytes brought into HBM that are evicted unused.
///
/// Controllers call [`fetched`](Self::fetched) when they move a chunk into
/// HBM, [`used`](Self::used) when a demand request touches it, and
/// [`evicted`](Self::evicted) when the chunk leaves HBM. Chunks still
/// resident at the end of a run can be drained with
/// [`evict_all`](Self::evict_all) so short runs do not under-report.
///
/// ```
/// use memsim_types::OverfetchTracker;
/// let mut t = OverfetchTracker::new();
/// t.fetched(1, 2048);
/// t.fetched(2, 2048);
/// t.used(1);
/// t.evicted(1);
/// t.evicted(2);
/// assert_eq!(t.fetched_bytes(), 4096);
/// assert_eq!(t.wasted_bytes(), 2048);
/// assert!((t.overfetch_ratio() - 0.5).abs() < 1e-12);
/// ```
/// Deterministic integer hasher for the tracker's `u64` chunk keys.
///
/// The tracker's outputs are order-independent byte sums, so hash quality
/// only affects speed, never results — and the default SipHash costs more
/// than the rest of the [`used`](OverfetchTracker::used) call combined on
/// the per-access demand-touch path. The splitmix64 finalizer gives full
/// avalanche over block/line numbers at a few arithmetic ops.
#[derive(Debug, Clone, Copy, Default)]
struct ChunkKeyHasher(u64);

impl Hasher for ChunkKeyHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // FNV-1a fallback; the map's keys are u64 so this is cold.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        let mut z = v.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = z ^ (z >> 31);
    }
}

/// Measures over-fetch: the fraction of bytes brought into HBM that were
/// evicted without a single use (the paper's §IV-E metric). Keys are any
/// stable chunk id the controller chooses; hashing is the deterministic
/// in-repo SplitMix64 mix, not `RandomState`.
#[derive(Debug, Clone, Default)]
pub struct OverfetchTracker {
    resident: HashMap<u64, (u32, bool), BuildHasherDefault<ChunkKeyHasher>>,
    fetched_bytes: u64,
    wasted_bytes: u64,
}

impl OverfetchTracker {
    /// Creates an empty tracker.
    pub fn new() -> OverfetchTracker {
        OverfetchTracker::default()
    }

    /// Records that the chunk identified by `key` (any stable id the
    /// controller chooses — e.g. a global block number) was brought into HBM.
    ///
    /// Re-fetching a resident chunk counts the new bytes but keeps its
    /// used/unused state.
    // audit: hot-path
    pub fn fetched(&mut self, key: u64, bytes: u32) {
        self.fetched_bytes += u64::from(bytes);
        self.resident
            .entry(key)
            .and_modify(|(b, _)| *b += bytes)
            .or_insert((bytes, false));
    }

    /// Records a demand touch of chunk `key` (no-op if not resident).
    // audit: hot-path
    pub fn used(&mut self, key: u64) {
        if let Some((_, used)) = self.resident.get_mut(&key) {
            *used = true;
        }
    }

    /// Records the eviction of chunk `key`; unused chunks add to the wasted
    /// byte count.
    // audit: hot-path
    pub fn evicted(&mut self, key: u64) {
        if let Some((bytes, used)) = self.resident.remove(&key) {
            if !used {
                self.wasted_bytes += u64::from(bytes);
            }
        }
    }

    /// Drains every resident chunk as if evicted (end-of-run accounting).
    pub fn evict_all(&mut self) {
        // audit: allow(det-unordered-iter) -- order-insensitive reduction; only summed counters survive
        let keys: Vec<u64> = self.resident.keys().copied().collect();
        for k in keys {
            self.evicted(k);
        }
    }

    /// Total bytes fetched into HBM.
    pub fn fetched_bytes(&self) -> u64 {
        self.fetched_bytes
    }

    /// Bytes evicted without a single use.
    pub fn wasted_bytes(&self) -> u64 {
        self.wasted_bytes
    }

    /// `wasted / fetched` (0 when nothing was fetched).
    // audit: hot-path
    pub fn overfetch_ratio(&self) -> f64 {
        if self.fetched_bytes == 0 {
            0.0
        } else {
            self.wasted_bytes as f64 / self.fetched_bytes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_totals_and_rates() {
        let mut s = CtrlStats::new();
        assert_eq!(s.hbm_hit_rate(), 0.0);
        s.hbm_hits = 3;
        s.offchip_serves = 1;
        assert_eq!(s.total_accesses(), 4);
        assert!((s.hbm_hit_rate() - 0.75).abs() < 1e-12);
        assert!(s.to_string().contains("hbm_hit_rate=0.750"));
    }

    #[test]
    fn display_includes_every_bumblebee_rule_counter() {
        let mut s = CtrlStats::new();
        s.zombie_evictions = 2;
        s.pressure_flushes = 3;
        s.threshold_rejections = 4;
        s.alloc_in_hbm = 5;
        let text = s.to_string();
        assert!(text.contains("zombie_evictions=2"), "{text}");
        assert!(text.contains("pressure_flushes=3"), "{text}");
        assert!(text.contains("threshold_rejections=4"), "{text}");
        assert!(text.contains("alloc_in_hbm=5"), "{text}");
    }

    #[test]
    fn evict_before_any_use_wastes_everything() {
        let mut t = OverfetchTracker::new();
        t.fetched(7, 256);
        t.evicted(7);
        assert_eq!(t.wasted_bytes(), 256);
        assert_eq!(t.overfetch_ratio(), 1.0);
        // Evicting an unknown key is a no-op, not an accounting error.
        t.evicted(99);
        assert_eq!(t.wasted_bytes(), 256);
    }

    #[test]
    fn refill_after_evict_starts_a_fresh_chunk() {
        let mut t = OverfetchTracker::new();
        t.fetched(1, 64);
        t.used(1);
        t.evicted(1); // used: nothing wasted
        assert_eq!(t.wasted_bytes(), 0);
        // The same key re-enters HBM; the earlier use must not carry over.
        t.fetched(1, 64);
        t.evicted(1);
        assert_eq!(t.wasted_bytes(), 64, "second residency was never touched");
        assert_eq!(t.fetched_bytes(), 128);
        assert!((t.overfetch_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_fill_runs_report_zero_ratio() {
        let mut t = OverfetchTracker::new();
        assert_eq!(t.overfetch_ratio(), 0.0);
        // Touching and evicting with no fetch ever recorded stays at zero.
        t.used(1);
        t.evicted(1);
        t.evict_all();
        assert_eq!(t.fetched_bytes(), 0);
        assert_eq!(t.wasted_bytes(), 0);
        assert_eq!(t.overfetch_ratio(), 0.0);
    }

    #[test]
    fn zero_byte_fetch_is_counted_but_harmless() {
        let mut t = OverfetchTracker::new();
        t.fetched(1, 0);
        t.evicted(1);
        assert_eq!(t.fetched_bytes(), 0);
        assert_eq!(t.wasted_bytes(), 0);
        assert_eq!(t.overfetch_ratio(), 0.0, "0/0 stays defined");
    }

    #[test]
    fn overfetch_counts_unused_only() {
        let mut t = OverfetchTracker::new();
        t.fetched(10, 64);
        t.fetched(11, 64);
        t.used(10);
        t.evicted(10);
        t.evicted(11);
        assert_eq!(t.wasted_bytes(), 64);
        assert_eq!(t.fetched_bytes(), 128);
    }

    #[test]
    fn refetch_accumulates_bytes_keeps_state() {
        let mut t = OverfetchTracker::new();
        t.fetched(1, 64);
        t.used(1);
        t.fetched(1, 64); // grow the same chunk (e.g. more blocks of a page)
        t.evicted(1);
        // Chunk was used at least once, so nothing is wasted.
        assert_eq!(t.wasted_bytes(), 0);
        assert_eq!(t.fetched_bytes(), 128);
    }

    #[test]
    fn evict_all_drains_everything() {
        let mut t = OverfetchTracker::new();
        for k in 0..8 {
            t.fetched(k, 32);
        }
        t.used(0);
        t.evict_all();
        assert_eq!(t.wasted_bytes(), 7 * 32);
        assert_eq!(t.overfetch_ratio(), 7.0 / 8.0);
        // Idempotent.
        t.evict_all();
        assert_eq!(t.wasted_bytes(), 7 * 32);
    }

    #[test]
    fn use_after_eviction_is_ignored() {
        let mut t = OverfetchTracker::new();
        t.fetched(1, 64);
        t.evicted(1);
        t.used(1);
        assert_eq!(t.wasted_bytes(), 64);
    }
}
