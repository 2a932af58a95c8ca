//! Hybrid2 (Vasilakis et al., HPCA 2020).
//!
//! The state-of-the-art hybrid design the paper compares against: a small,
//! statically fixed cHBM slice (64 MB of the 1 GB stack — 1/16 of HBM,
//! preserved under scaling) managed as an 8-way cache of 2 KB groups with
//! 256 B blocks, with the rest of HBM used as mHBM (part of memory) at
//! 2 KB migration granularity. The cHBM and mHBM spaces are **separate**:
//! promoting a hot cached group into mHBM must write it back to off-chip
//! DRAM first and then migrate it — the unnecessary mode-switch traffic
//! Bumblebee's multiplexed space eliminates. Metadata (block tags + remap
//! table) far exceeds the SRAM budget, so lookups frequently pay an in-HBM
//! metadata access.

use crate::common::{FaultModel, LruRanks};
use memsim_types::{
    Access, AccessKind, AccessPath, AccessPlan, Addr, CtrlStats, Geometry, HybridMemoryController,
    MetadataModel, OverfetchTracker, QuickDiv, TrafficCause, TrafficDevice,
};

const GROUP_BYTES: u64 = 2048;
const BLOCK_BYTES: u64 = 256;
/// 64 B lines per 256 B block and per 2 KB group: over-fetching is
/// measured at 64 B granularity.
const LINES_PER_BLOCK: u64 = BLOCK_BYTES / 64;
const LINES_PER_GROUP: u64 = GROUP_BYTES / 64;
const CACHE_WAYS: u32 = 8;
/// Fraction of HBM fixed as cHBM (64 MB of 1 GB).
const CHBM_FRACTION_DEN: u64 = 16;
const COUNTER_CAP: u32 = 255;
const SWAP_MARGIN: u32 = 2;
/// Valid blocks required before a cached group is promotion-eligible.
const PROMOTE_VALID: u32 = 5;
/// Counter required before promotion (Hybrid2 migrates only solidly hot
/// groups; promoting transients would pay the through-DRAM round trip for
/// nothing).
const PROMOTE_COUNT: u32 = 32;

#[derive(Debug, Clone, Copy, Default)]
struct CacheWay {
    tag: u64,
    valid_group: bool,
    valid: u8,
    dirty: u8,
    counter: u32,
}

/// The Hybrid2 controller; see the [module documentation](self).
#[derive(Debug)]
pub struct Hybrid2 {
    geometry: Geometry,
    chbm_bytes: u64,
    cache_sets: usize,
    cache_set_div: QuickDiv,
    cache: Vec<CacheWay>,
    cache_lru: LruRanks,
    /// The member of each mHBM frame's group currently resident in it.
    pom_resident: Vec<u32>,
    /// Access counter of every member of every mHBM frame, saturating at
    /// 255, row-major: frame `f`'s counters are
    /// `f * members..(f + 1) * members`.
    pom_counters: Vec<u8>,
    frame_div: QuickDiv,
    member_div: QuickDiv,
    dram_div: QuickDiv,
    metadata: MetadataModel,
    faults: FaultModel,
    stats: CtrlStats,
    overfetch: OverfetchTracker,
    mode_switch_bytes: u64,
}

impl Hybrid2 {
    /// Creates a Hybrid2 system over `geometry` with `sram_budget` bytes of
    /// on-chip metadata storage.
    pub fn new(geometry: Geometry, sram_budget: u64) -> Hybrid2 {
        let chbm_bytes = (geometry.hbm_bytes() / CHBM_FRACTION_DEN).max(GROUP_BYTES * CACHE_WAYS as u64);
        let mhbm_bytes = geometry.hbm_bytes() - chbm_bytes;
        let cache_sets = ((chbm_bytes / GROUP_BYTES) / u64::from(CACHE_WAYS)).max(1) as usize;
        let os_visible = geometry.dram_bytes() + mhbm_bytes;
        let mhbm_frames = (mhbm_bytes / GROUP_BYTES).max(1);
        let total_groups = (os_visible / GROUP_BYTES).max(1);
        let members = (total_groups / mhbm_frames).max(2) as u32;
        // Metadata: ~4 B per cache block tag + 2 B per 2 KB remap entry.
        let metadata_bytes = (chbm_bytes / BLOCK_BYTES) * 4 + total_groups * 2;
        Hybrid2 {
            cache: vec![CacheWay::default(); cache_sets * CACHE_WAYS as usize],
            cache_lru: LruRanks::new(cache_sets, CACHE_WAYS),
            pom_resident: vec![members - 1; mhbm_frames as usize],
            pom_counters: vec![0; mhbm_frames as usize * members as usize],
            metadata: MetadataModel::new(metadata_bytes, sram_budget),
            faults: FaultModel::with_default_table(os_visible),
            cache_set_div: QuickDiv::new(cache_sets as u64),
            frame_div: QuickDiv::new(mhbm_frames),
            member_div: QuickDiv::new(u64::from(members)),
            dram_div: QuickDiv::new(geometry.dram_bytes()),
            geometry,
            chbm_bytes,
            cache_sets,
            stats: CtrlStats::new(),
            // Keyed by cHBM device line: the cache ways tile `chbm_bytes`.
            overfetch: OverfetchTracker::new(chbm_bytes / 64),
            mode_switch_bytes: 0,
        }
    }

    /// The fixed cHBM capacity in bytes.
    pub fn chbm_bytes(&self) -> u64 {
        self.chbm_bytes
    }

    /// Mode-switch (cache→memory promotion) traffic in bytes (§IV-D).
    pub fn mode_switch_bytes(&self) -> u64 {
        self.mode_switch_bytes
    }

    fn cache_hbm_addr(&self, set: usize, way: u32, block: u32) -> Addr {
        Addr(
            (set as u64 * u64::from(CACHE_WAYS) + u64::from(way)) * GROUP_BYTES
                + u64::from(block) * BLOCK_BYTES,
        )
    }

    /// HBM address of mHBM frame `frame`. Frames tile the mHBM bytes above
    /// cHBM, so `frame < mhbm_frames` keeps the offset inside them.
    fn pom_hbm_addr(&self, frame: usize) -> Addr {
        Addr(self.chbm_bytes + frame as u64 * GROUP_BYTES)
    }

    fn pom_locate(&self, addr: Addr) -> (usize, u32) {
        let group2k = addr.0 / GROUP_BYTES;
        let (vgroup, frame) = self.frame_div.div_rem(group2k);
        (frame as usize, self.member_div.rem(vgroup) as u32)
    }

    /// Index of `member`'s counter of mHBM frame `frame` in `pom_counters`.
    fn pom_counter(&self, frame: usize, member: u32) -> usize {
        frame * self.member_div.divisor() as usize + member as usize
    }

    /// Off-chip address of the 64 B line holding `addr`.
    fn dram_line_addr(&self, addr: Addr) -> Addr {
        Addr(self.dram_div.rem(addr.0 & !63))
    }

    /// Off-chip address a block fill of `addr`'s 256 B block reads from.
    fn dram_block_addr(&self, addr: Addr) -> Addr {
        self.dram_group_addr(Addr(addr.0 & !(BLOCK_BYTES - 1)))
    }

    fn dram_group_addr(&self, addr: Addr) -> Addr {
        Addr(self.dram_div.rem(addr.0) & !(GROUP_BYTES - 1))
    }
}

impl HybridMemoryController for Hybrid2 {
    fn access(&mut self, req: &Access, plan: &mut AccessPlan) {
        plan.metadata_cycles += self.metadata.lookup(plan, req.addr);
        let addr = self.faults.translate(req.addr, plan);
        let is_read = req.kind == AccessKind::Read;

        // 1. mHBM residency check (POM region).
        let (pg, member) = self.pom_locate(addr);
        {
            let ci = self.pom_counter(pg, member);
            self.pom_counters[ci] = self.pom_counters[ci].saturating_add(1);
            if self.pom_resident[pg] == member {
                let hbm = Addr(self.pom_hbm_addr(pg).0 + ((addr.0 % GROUP_BYTES) & !63));
                plan.demand(req.kind, TrafficDevice::MHbm, hbm, 64);
                self.stats.hbm_hits += 1;
                plan.path = AccessPath::MhbmHit;
                return;
            }
        }

        // 2. cHBM lookup (the page's home is off-chip DRAM).
        let group = addr.0 / GROUP_BYTES;
        let block = ((addr.0 % GROUP_BYTES) / BLOCK_BYTES) as u32;
        let line = (addr.0 % BLOCK_BYTES) / 64;
        let (tag, set) = self.cache_set_div.div_rem(group);
        let set = set as usize;
        let base = set * CACHE_WAYS as usize;
        let hit_way = (0..CACHE_WAYS as usize)
            .find(|&w| self.cache[base + w].valid_group && self.cache[base + w].tag == tag);

        if let Some(w) = hit_way {
            self.cache_lru.touch(set, w as u32);
            self.cache[base + w].counter = (self.cache[base + w].counter + 1).min(COUNTER_CAP);
            if self.cache[base + w].valid & (1 << block) != 0 {
                let hbm = self.cache_hbm_addr(set, w as u32, block);
                plan.demand(req.kind, TrafficDevice::CHbm, hbm, 64);
                if !is_read {
                    self.cache[base + w].dirty |= 1 << block;
                }
                self.stats.hbm_hits += 1;
                plan.path = AccessPath::ChbmHit;
                self.overfetch.used(hbm.0 / 64 + line);
            } else {
                // Block miss within a cached group: fetch the block.
                plan.demand(req.kind, TrafficDevice::OffChip, self.dram_line_addr(addr), 64);
                self.stats.offchip_serves += 1;
                plan.copy(
                    (TrafficDevice::OffChip, self.dram_block_addr(addr)),
                    (TrafficDevice::CHbm, self.cache_hbm_addr(set, w as u32, block)),
                    BLOCK_BYTES as u32,
                    TrafficCause::MissFill,
                );
                self.cache[base + w].valid |= 1 << block;
                self.stats.block_fills += 1;
                let first = self.cache_hbm_addr(set, w as u32, block).0 / 64;
                self.overfetch.fetched_lines(first, LINES_PER_BLOCK);
                self.overfetch.used(first + line);
            }
            // Promotion: hot, mostly valid groups move to mHBM *through
            // off-chip DRAM* (separate cHBM/mHBM spaces).
            let cw = self.cache[base + w];
            if cw.valid.count_ones() >= PROMOTE_VALID && cw.counter >= PROMOTE_COUNT {
                self.promote(plan, addr, set, w as u32, pg, member);
            }
            return;
        }

        // 3. Full miss: serve off-chip, allocate a cache way.
        plan.demand(req.kind, TrafficDevice::OffChip, self.dram_line_addr(addr), 64);
        self.stats.offchip_serves += 1;

        let victim = self.cache_lru.lru(set);
        let vidx = base + victim as usize;
        let v = self.cache[vidx];
        if v.valid_group {
            let vgroup = v.tag * self.cache_sets as u64 + set as u64;
            let dirty = v.dirty.count_ones();
            if dirty > 0 {
                plan.copy(
                    (TrafficDevice::CHbm, self.cache_hbm_addr(set, victim, 0)),
                    (TrafficDevice::OffChip, Addr(self.dram_div.rem(vgroup * GROUP_BYTES))),
                    dirty * BLOCK_BYTES as u32,
                    TrafficCause::Writeback,
                );
            }
            let first = self.cache_hbm_addr(set, victim, 0).0 / 64;
            self.overfetch.evicted_lines(first, LINES_PER_GROUP);
            self.stats.evictions += 1;
        }
        plan.copy(
            (TrafficDevice::OffChip, self.dram_block_addr(addr)),
            (TrafficDevice::CHbm, self.cache_hbm_addr(set, victim, block)),
            BLOCK_BYTES as u32,
            TrafficCause::MissFill,
        );
        self.cache[vidx] = CacheWay {
            tag,
            valid_group: true,
            valid: 1 << block,
            dirty: 0,
            counter: 1,
        };
        self.cache_lru.touch(set, victim);
        self.stats.block_fills += 1;
        let first = self.cache_hbm_addr(set, victim, block).0 / 64;
        self.overfetch.fetched_lines(first, LINES_PER_BLOCK);
        self.overfetch.used(first + line);
    }

    fn name(&self) -> &'static str {
        "hybrid2"
    }

    fn metadata_bytes(&self) -> u64 {
        self.metadata.metadata_bytes()
    }

    fn os_visible_bytes(&self) -> u64 {
        self.geometry.dram_bytes() + (self.geometry.hbm_bytes() - self.chbm_bytes)
    }

    fn stats(&self) -> &CtrlStats {
        &self.stats
    }

    fn overfetch_ratio(&self) -> Option<f64> {
        Some(self.overfetch.overfetch_ratio())
    }

    fn finish(&mut self, _plan: &mut AccessPlan) {
        self.overfetch.evict_all();
    }
}

impl Hybrid2 {
    /// Promotes a hot cached group into mHBM. Separate spaces force the
    /// round trip the paper's motivation describes: write the group back to
    /// DRAM, evict it from cHBM, swap the mHBM resident out and migrate the
    /// group in from DRAM.
    fn promote(
        &mut self,
        plan: &mut AccessPlan,
        addr: Addr,
        set: usize,
        way: u32,
        pg: usize,
        member: u32,
    ) {
        let old_resident = self.pom_resident[pg];
        // Widened, so `resident_count + SWAP_MARGIN` cannot wrap.
        let resident_count = u32::from(self.pom_counters[self.pom_counter(pg, old_resident)]);
        let member_count = u32::from(self.pom_counters[self.pom_counter(pg, member)]);
        if member_count <= resident_count + SWAP_MARGIN {
            return;
        }
        let idx = set * CACHE_WAYS as usize + way as usize;
        let dram = self.dram_group_addr(addr);
        let hbm_cache = self.cache_hbm_addr(set, way, 0);
        let hbm_pom = self.pom_hbm_addr(pg);
        let dram_old = Addr(
            ((u64::from(old_resident) * self.pom_resident.len() as u64 + pg as u64) * GROUP_BYTES)
                % self.geometry.dram_bytes(),
        );
        // 1. Write the cached group back to DRAM (separate spaces).
        // 2. Swap: displaced resident → DRAM, promoted group DRAM → mHBM.
        let bytes = GROUP_BYTES as u32;
        let demote = TrafficCause::MigrationDemote;
        plan.copy((TrafficDevice::CHbm, hbm_cache), (TrafficDevice::OffChip, dram), bytes, demote);
        plan.copy(
            (TrafficDevice::MHbm, hbm_pom),
            (TrafficDevice::OffChip, dram_old),
            bytes,
            demote,
        );
        plan.copy(
            (TrafficDevice::OffChip, dram),
            (TrafficDevice::MHbm, hbm_pom),
            bytes,
            TrafficCause::MigrationPromote,
        );
        self.mode_switch_bytes += 6 * GROUP_BYTES;
        self.overfetch.evicted_lines(hbm_cache.0 / 64, LINES_PER_GROUP);
        self.cache[idx] = CacheWay::default();
        self.pom_resident[pg] = member;
        let (old_ci, new_ci) = (self.pom_counter(pg, old_resident), self.pom_counter(pg, member));
        self.pom_counters[old_ci] = 0;
        self.pom_counters[new_ci] = 1;
        self.stats.switch_to_mhbm += 1;
        self.stats.page_migrations += 1;
        // Promotion can fire from a cHBM-hit-served access too; only an
        // off-chip-served access reclassifies (keeps the hit/off-chip
        // partition exact for reconciliation).
        if plan.path == AccessPath::MissFill {
            plan.path = AccessPath::Migration;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim_types::Mem;

    fn geometry() -> Geometry {
        Geometry::paper(64)
    }

    fn hybrid2() -> Hybrid2 {
        Hybrid2::new(geometry(), (512 << 10) / 64)
    }

    #[test]
    fn fresh_controller_holds_no_overfetch_table() {
        let mut c = hybrid2();
        assert_eq!(c.overfetch.table_bytes(), 0, "construct-and-drop allocates no ledger");
        c.access(&Access::read(Addr(0)), &mut AccessPlan::new());
        assert_eq!(c.overfetch.table_bytes() as u64, c.chbm_bytes() / 64 / 64 * 16);
    }

    #[test]
    fn chbm_slice_is_one_sixteenth() {
        let g = geometry();
        let c = hybrid2();
        assert_eq!(c.chbm_bytes(), g.hbm_bytes() / 16);
        assert_eq!(c.os_visible_bytes(), g.dram_bytes() + g.hbm_bytes() - c.chbm_bytes());
    }

    #[test]
    fn cache_fill_then_block_hit() {
        let mut c = hybrid2();
        let mut plan = AccessPlan::new();
        c.access(&Access::read(Addr(0)), &mut plan);
        assert_eq!(c.stats().offchip_serves, 1);
        plan.clear();
        c.access(&Access::read(Addr(64)), &mut plan);
        // Same 256 B block → cHBM hit.
        assert_eq!(c.stats().hbm_hits, 1);
    }

    #[test]
    fn adjacent_block_of_cached_group_fetches_block() {
        let mut c = hybrid2();
        let mut plan = AccessPlan::new();
        c.access(&Access::read(Addr(0)), &mut plan);
        plan.clear();
        c.access(&Access::read(Addr(256)), &mut plan);
        assert_eq!(c.stats().block_fills, 2);
        assert_eq!(c.stats().offchip_serves, 2);
    }

    #[test]
    fn hot_mostly_valid_group_promotes_through_dram() {
        let mut c = hybrid2();
        let mut plan = AccessPlan::new();
        // Touch 5+ blocks repeatedly to satisfy both promotion conditions.
        for round in 0..8u64 {
            for b in 0..6u64 {
                plan.clear();
                c.access(&Access::read(Addr(b * 256 + round)), &mut plan);
            }
        }
        assert!(c.stats().switch_to_mhbm >= 1, "promotion must fire");
        assert!(c.mode_switch_bytes() >= 6 * 2048, "round trip through DRAM");
        // Served from mHBM afterwards.
        plan.clear();
        c.access(&Access::read(Addr(0)), &mut plan);
        assert!(plan
            .critical
            .iter()
            .any(|o| o.mem() == Mem::Hbm && o.cause == TrafficCause::DemandRead));
    }

    /// Touches the resident member of mHBM frame 0 `resident_touches`
    /// times, then 300 times cycles over six blocks of frame 0's member 0,
    /// which the cHBM caches. Checks each promotion decision against a
    /// `u32` model whose counters saturate with `min(255)`, and returns the
    /// number of promotions.
    fn promotions_after_saturation(resident_touches: u32) -> u64 {
        let mut c = hybrid2();
        let mut plan = AccessPlan::new();
        let frames = c.pom_resident.len() as u64;
        let members = c.member_div.divisor() as u32;
        let native = Addr(u64::from(members - 1) * frames * GROUP_BYTES);
        assert_eq!(c.pom_locate(native), (0, members - 1));
        assert_eq!(c.pom_locate(Addr(0)), (0, 0));
        for _ in 0..resident_touches {
            plan.clear();
            c.access(&Access::read(native), &mut plan);
        }
        let count = |c: &Hybrid2, m: u32| u32::from(c.pom_counters[c.pom_counter(0, m)]);
        let resident_count = resident_touches.min(255);
        assert_eq!(count(&c, members - 1), resident_count);
        let (mut member_count, mut promoted) = (0u32, false);
        for i in 0..300u64 {
            plan.clear();
            c.access(&Access::read(Addr((i % 6) * BLOCK_BYTES)), &mut plan);
            member_count = (member_count + 1).min(255);
            // From the 32nd touch on, the cached group has six valid blocks
            // and a way counter of at least PROMOTE_COUNT, so only the mHBM
            // counters decide.
            let cache_ready = i + 1 >= u64::from(PROMOTE_COUNT);
            if !promoted && cache_ready && member_count > resident_count + SWAP_MARGIN {
                promoted = true;
                member_count = 1;
            }
            assert_eq!(c.stats().switch_to_mhbm, u64::from(promoted));
        }
        assert_eq!(count(&c, 0), member_count);
        c.stats().switch_to_mhbm
    }

    #[test]
    fn pom_counters_saturate_at_255_without_wrapping() {
        // The resident's 255 plus the margin exceeds any u8 count: no
        // promotion, and the member's counter reads 255 after 300 touches.
        assert_eq!(promotions_after_saturation(300), 0);
        // 253 + 2 = 255: a saturated member still cannot overtake it.
        assert_eq!(promotions_after_saturation(253), 0);
        // 252 + 2 = 254: the member's 255th touch promotes it.
        assert_eq!(promotions_after_saturation(252), 1);
    }

    #[test]
    fn metadata_exceeds_scaled_sram_budget() {
        let c = hybrid2();
        assert!(c.metadata_bytes() > (512 << 10) / 64);
    }

    #[test]
    fn pom_region_serves_native_hbm_addresses() {
        let g = geometry();
        let mut c = hybrid2();
        let mut plan = AccessPlan::new();
        c.access(&Access::read(Addr(g.dram_bytes() + 4096)), &mut plan);
        assert_eq!(c.stats().hbm_hits, 1);
    }
}
