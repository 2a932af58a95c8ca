//! Policy-side statistics.
//!
//! [`CtrlStats`] counts the events every controller reports identically so
//! that experiment code can compare designs without downcasting.
//! [`OverfetchTracker`] implements the paper's §IV-B over-fetching metric:
//! the fraction of data brought into HBM that is evicted without ever being
//! used.

use std::collections::BTreeMap;
use std::fmt;

/// Event counters shared by every hybrid-memory controller.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CtrlStats {
    /// Demand requests served from HBM (cHBM or mHBM).
    pub hbm_hits: u64,
    /// Demand requests served from off-chip DRAM.
    pub offchip_serves: u64,
    /// Blocks fetched into cHBM.
    pub block_fills: u64,
    /// Whole pages migrated into mHBM.
    pub page_migrations: u64,
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
    pub fn total_accesses(&self) -> u64 {
        self.hbm_hits + self.offchip_serves
    }

    /// HBM hit rate over all demand requests (0 when idle).
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

/// Lines per leaf: the low six bits of a line number pick a bit in the
/// leaf's masks, the rest pick the leaf.
const LEAF_LINES: u64 = 64;

/// Bytes a resident line holds unless [`OverfetchTracker::odd`] lists it:
/// one 64 B line, the size every controller fills at.
const LINE_BYTES: u32 = 64;

/// The masks of 64 consecutive HBM lines: `[PRESENT]` has the lines
/// resident in HBM, `[USED]` the resident lines a demand request touched
/// (always a subset). An array, not a struct, so `vec!` can allocate the
/// table zeroed.
type Leaf = [u64; 2];
const PRESENT: usize = 0;
const USED: usize = 1;

/// The bit numbers set in `mask`, lowest first.
fn bits(mut mask: u64) -> impl Iterator<Item = u64> {
    std::iter::from_fn(move || {
        let bit = (mask != 0).then(|| u64::from(mask.trailing_zeros()));
        mask &= mask.wrapping_sub(1);
        bit
    })
}

/// Tracks over-fetching: bytes brought into HBM that are evicted unused
/// (the paper's §IV-B metric).
///
/// The ledger is keyed by HBM device line (`hbm_addr / 64`). A controller
/// calls a `fetched*` method when it moves lines into HBM, [`used`](Self::used)
/// when a demand request touches one, and an `evicted*` method when they
/// leave. Lines still resident at the end of a run can be drained with
/// [`evict_all`](Self::evict_all) so short runs do not under-report.
///
/// ```
/// use memsim_types::OverfetchTracker;
/// let mut t = OverfetchTracker::new(128);
/// t.fetched_lines(0, 32);
/// t.fetched_lines(64, 32);
/// t.used(0);
/// t.evicted_lines(0, 128);
/// assert_eq!(t.fetched_bytes(), 4096);
/// assert_eq!(t.wasted_bytes(), 31 * 64 + 2048);
/// assert_eq!(t.overfetch_ratio(), 63.0 / 64.0);
/// ```
///
/// The table holds one 16-byte leaf per 64 lines of the HBM range the
/// design fills, so a block or page fill or eviction is one mask operation
/// per leaf. It is allocated zeroed on the first fill and freed by
/// `evict_all`, so a tracker that never fills allocates nothing. A resident
/// line holds 64 B unless `odd` lists its byte count, and a running total
/// of the unused resident bytes makes `evict_all` a sum instead of a walk.
/// The default tracker covers no lines.
#[derive(Debug, Clone, Default)]
pub struct OverfetchTracker {
    /// HBM lines the table covers; a line at or past it panics.
    lines: u64,
    /// One leaf per 64 lines; empty until the first fill.
    leaves: Box<[Leaf]>,
    /// Byte count of each resident line that does not hold exactly 64 B:
    /// a fill of another size, or one a refetch grew while resident.
    odd: BTreeMap<u64, u32>,
    /// Bytes held by resident lines no demand request has touched.
    unused_bytes: u64,
    fetched_bytes: u64,
    wasted_bytes: u64,
}

impl OverfetchTracker {
    /// Creates an empty tracker for HBM lines `0..lines`.
    pub fn new(lines: u64) -> OverfetchTracker {
        OverfetchTracker { lines, ..OverfetchTracker::default() }
    }

    /// Bytes of the line table: 0 until the first fill.
    pub fn table_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.leaves)
    }

    /// The index of the leaf starting at line `base`, once the highest line
    /// of `mask` in it (`base` for an empty one) is checked against the
    /// tracked range.
    fn leaf_of(&self, base: u64, mask: u64) -> usize {
        let line = base + u64::from(63 - mask.leading_zeros().min(63));
        assert!(
            line < self.lines,
            "over-fetch line {line} is past the tracked HBM range of {} lines",
            self.lines
        );
        (base / LEAF_LINES) as usize
    }

    /// Records that `bytes` of HBM `line` were brought in.
    ///
    /// Re-fetching a resident line counts the new bytes but keeps its
    /// used/unused state.
    pub fn fetched(&mut self, line: u64, bytes: u32) {
        self.fetch_leaf(line - line % LEAF_LINES, 1 << (line % LEAF_LINES), bytes);
    }

    /// Records that the 64 B lines `first..first + count` were brought in.
    pub fn fetched_lines(&mut self, first: u64, count: u64) {
        self.each_leaf(first, count, |t, base, mask| t.fetch_leaf(base, mask, LINE_BYTES));
    }

    /// Records that the 64 B lines `first + i`, for each bit `i` set in
    /// `mask`, were brought in. `first` must begin a leaf (a multiple of
    /// 64).
    pub fn fetched_mask(&mut self, first: u64, mask: u64) {
        assert_eq!(first % LEAF_LINES, 0, "a fill mask starts at a leaf");
        self.fetch_leaf(first, mask, LINE_BYTES);
    }

    /// Records a demand touch of HBM `line` (no-op if not resident).
    pub fn used(&mut self, line: u64) {
        let bit = 1 << (line % LEAF_LINES);
        let i = self.leaf_of(line - line % LEAF_LINES, bit);
        let Some(leaf) = self.leaves.get_mut(i) else { return };
        if leaf[PRESENT] & !leaf[USED] & bit != 0 {
            leaf[USED] |= bit;
            self.unused_bytes -= u64::from(self.odd.get(&line).copied().unwrap_or(LINE_BYTES));
        }
    }

    /// Records the eviction of HBM `line`; an unused line adds to the
    /// wasted byte count.
    pub fn evicted(&mut self, line: u64) {
        self.evicted_lines(line, 1);
    }

    /// Records the eviction of HBM lines `first..first + count`.
    pub fn evicted_lines(&mut self, first: u64, count: u64) {
        self.each_leaf(first, count, Self::evict_leaf);
    }

    /// Calls `op(self, base, mask)` once per leaf that lines
    /// `first..first + count` touch, `base` the leaf's first line and
    /// `mask` the range's lines in it.
    fn each_leaf(&mut self, first: u64, count: u64, mut op: impl FnMut(&mut Self, u64, u64)) {
        let (mut line, end) = (first, first + count);
        while line < end {
            let (base, lo) = (line - line % LEAF_LINES, line % LEAF_LINES);
            let n = (end - line).min(LEAF_LINES - lo);
            op(self, base, (u64::MAX >> (LEAF_LINES - n)) << lo);
            line += n;
        }
    }

    /// `fetched(line, bytes)` on every line of `mask` in the leaf at `base`,
    /// allocating the zeroed table on the first fill.
    fn fetch_leaf(&mut self, base: u64, mask: u64, bytes: u32) {
        let i = self.leaf_of(base, mask);
        if self.leaves.is_empty() {
            self.leaves = vec![[0; 2]; self.lines.div_ceil(LEAF_LINES) as usize].into_boxed_slice();
        }
        let leaf = &mut self.leaves[i];
        let (fresh, again) = (mask & !leaf[PRESENT], mask & leaf[PRESENT]);
        // New lines arrive unused; a refetch of an unused line adds to its
        // unused bytes too.
        let unused = fresh | (again & !leaf[USED]);
        leaf[PRESENT] |= mask;
        self.fetched_bytes += u64::from(bytes) * u64::from(mask.count_ones());
        self.unused_bytes += u64::from(bytes) * u64::from(unused.count_ones());
        for b in bits(again) {
            *self.odd.entry(base + b).or_insert(LINE_BYTES) += bytes;
        }
        if bytes != LINE_BYTES {
            self.odd.extend(bits(fresh).map(|b| (base + b, bytes)));
        }
    }

    /// [`evicted`](Self::evicted) on every line of `mask` in the leaf at
    /// `base`.
    fn evict_leaf(&mut self, base: u64, mask: u64) {
        let i = self.leaf_of(base, mask);
        let Some(leaf) = self.leaves.get_mut(i) else { return };
        let gone = leaf[PRESENT] & mask;
        let unused = gone & !leaf[USED];
        leaf[PRESENT] &= !gone;
        leaf[USED] &= !gone;
        let mut bytes = u64::from(LINE_BYTES) * u64::from(unused.count_ones());
        // One range probe per leaf: `odd` is empty or nearly so.
        let mut from = base;
        while let Some((&line, &odd)) = self.odd.range(from..base + LEAF_LINES).next() {
            from = line + 1;
            let bit = 1 << (line - base);
            if gone & bit != 0 {
                self.odd.remove(&line);
                if unused & bit != 0 {
                    bytes = bytes - u64::from(LINE_BYTES) + u64::from(odd);
                }
            }
        }
        self.unused_bytes -= bytes;
        self.wasted_bytes += bytes;
    }

    /// Drains every resident line as if evicted (end-of-run accounting) and
    /// frees the table.
    pub fn evict_all(&mut self) {
        self.wasted_bytes += std::mem::take(&mut self.unused_bytes);
        self.leaves = Box::default();
        self.odd.clear();
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
        let mut t = OverfetchTracker::new(256);
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
        let mut t = OverfetchTracker::new(256);
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
        let mut t = OverfetchTracker::new(256);
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
        let mut t = OverfetchTracker::new(256);
        t.fetched(1, 0);
        t.evicted(1);
        assert_eq!(t.fetched_bytes(), 0);
        assert_eq!(t.wasted_bytes(), 0);
        assert_eq!(t.overfetch_ratio(), 0.0, "0/0 stays defined");
    }

    #[test]
    fn overfetch_counts_unused_only() {
        let mut t = OverfetchTracker::new(256);
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
        let mut t = OverfetchTracker::new(256);
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
        let mut t = OverfetchTracker::new(256);
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
        let mut t = OverfetchTracker::new(256);
        t.fetched(1, 64);
        t.evicted(1);
        t.used(1);
        assert_eq!(t.wasted_bytes(), 64);
    }

    #[test]
    fn leaf_is_two_masks() {
        assert_eq!(std::mem::size_of::<Leaf>(), 16);
    }

    #[test]
    fn table_is_allocated_by_the_first_fill_and_freed_by_the_drain() {
        let mut t = OverfetchTracker::new(1000);
        t.used(5);
        t.evicted_lines(0, 1000);
        assert_eq!(t.table_bytes(), 0, "touches and evictions allocate nothing");
        t.fetched_lines(999, 1);
        assert_eq!(t.table_bytes(), 16 * 16, "1000 lines round up to 16 leaves");
        t.evict_all();
        assert_eq!(t.table_bytes(), 0);
        assert_eq!(t.wasted_bytes(), 64);
    }

    #[test]
    #[should_panic(expected = "over-fetch line 128 is past the tracked HBM range of 128 lines")]
    fn a_line_past_the_range_panics_naming_it() {
        OverfetchTracker::new(128).fetched_lines(120, 9);
    }

    #[test]
    fn refetch_of_unused_key_wastes_both_fills() {
        let mut t = OverfetchTracker::new(256);
        t.fetched(5, 64);
        t.fetched(5, 64); // refetched while resident and still unused
        t.evicted(5);
        assert_eq!(t.wasted_bytes(), 128);
        assert_eq!(t.fetched_bytes(), 128);
        // The grown byte count left with the key: a new fill is one line.
        t.fetched(5, 64);
        t.evicted(5);
        assert_eq!(t.wasted_bytes(), 192);
    }

    #[test]
    fn evict_all_sums_line_and_odd_sized_keys() {
        let mut t = OverfetchTracker::new(256);
        for (key, bytes) in [(0, 64), (1, 256), (2, 64), (64, 0), (65, 4095), (130, 64)] {
            t.fetched(key, bytes);
        }
        t.fetched(2, 32); // grows a one-line key to 96 B
        t.used(1);
        t.used(130);
        t.evicted(0); // an unused line leaves before the drain
        t.evict_all();
        assert_eq!(t.fetched_bytes(), 64 + 256 + 64 + 4095 + 64 + 32);
        assert_eq!(t.wasted_bytes(), 64 + 96 + 4095);
        // Keys drained by evict_all leave no byte count behind.
        t.fetched(1, 64);
        t.evicted(1);
        assert_eq!(t.wasted_bytes(), 64 + 96 + 4095 + 64);
    }
}
