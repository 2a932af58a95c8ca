//! Unison Cache (Jevdjic et al., MICRO 2014).
//!
//! A scalable page-based (4 KB) die-stacked cache: way-associative with
//! tags *embedded in HBM* next to the data. A way predictor lets the
//! common case stream tag and data together (no serialized tag read);
//! page misses still burn an in-HBM probe discovering the absence. A
//! *footprint predictor* fetches only the blocks a page is predicted to
//! use rather than the whole page.

use crate::common::{FaultModel, LruRanks};
use memsim_types::{
    Access, AccessKind, AccessPath, AccessPlan, Addr, CtrlStats, DeviceOp, Geometry,
    HybridMemoryController, OpKind, OverfetchTracker, QuickDiv, TrafficCause, TrafficDevice,
};

const PAGE_BYTES: u64 = 4096;
const LINE_BYTES: u64 = 64;
const LINES_PER_PAGE: u64 = PAGE_BYTES / LINE_BYTES;
const WAYS: u32 = 4;
/// Footprint-history table entries (direct-mapped).
const PREDICTOR_ENTRIES: usize = 4096;

#[derive(Debug, Clone, Copy, Default)]
struct Way {
    tag: u64,
    valid_page: bool,
    /// 64-bit vector: blocks present.
    present: u64,
    /// Blocks dirtied.
    dirty: u64,
    /// Blocks touched since fill (trains the predictor).
    touched: u64,
}

/// The Unison Cache controller; see the [module documentation](self).
#[derive(Debug)]
pub struct UnisonCache {
    geometry: Geometry,
    sets: usize,
    set_div: QuickDiv,
    ways: Vec<Way>,
    lru: LruRanks,
    predictor: Vec<(u64, u64)>,
    faults: FaultModel,
    stats: CtrlStats,
    overfetch: OverfetchTracker,
}

impl UnisonCache {
    /// Creates a Unison cache filling the whole HBM of `geometry`.
    pub fn new(geometry: Geometry) -> UnisonCache {
        let pages = (geometry.hbm_bytes() / PAGE_BYTES) as usize;
        let sets = (pages / WAYS as usize).max(1);
        UnisonCache {
            ways: vec![Way::default(); sets * WAYS as usize],
            lru: LruRanks::new(sets, WAYS),
            predictor: vec![(u64::MAX, 0); PREDICTOR_ENTRIES],
            faults: FaultModel::with_default_table(geometry.dram_bytes()),
            geometry,
            sets,
            set_div: QuickDiv::new(sets as u64),
            stats: CtrlStats::new(),
            overfetch: OverfetchTracker::new((sets * WAYS as usize) as u64 * LINES_PER_PAGE),
        }
    }

    fn hbm_page_addr(&self, set: usize, way: u32) -> Addr {
        Addr((set as u64 * u64::from(WAYS) + u64::from(way)) * PAGE_BYTES)
    }

    /// The HBM line of `block` of `way` of `set`: its over-fetch key.
    fn hbm_line(&self, set: usize, way: u32, block: u32) -> u64 {
        self.hbm_page_addr(set, way).0 / LINE_BYTES + u64::from(block)
    }

    fn predict(&self, page: u64) -> u64 {
        let e = self.predictor[(page % PREDICTOR_ENTRIES as u64) as usize];
        if e.0 == page && e.1 != 0 {
            e.1
        } else {
            // Untrained: fetch the demanded half-page (a common static
            // default between whole-page over-fetch and single blocks).
            0xFFFF_FFFF
        }
    }

    fn train(&mut self, page: u64, touched: u64) {
        self.predictor[(page % PREDICTOR_ENTRIES as u64) as usize] = (page, touched);
    }

    fn fetch_blocks(
        &mut self,
        plan: &mut AccessPlan,
        page: u64,
        set: usize,
        way: u32,
        mask: u64,
        cause: TrafficCause,
    ) {
        let count = mask.count_ones();
        if count == 0 {
            return;
        }
        plan.copy(
            (TrafficDevice::OffChip, Addr(page * PAGE_BYTES)),
            (TrafficDevice::CHbm, self.hbm_page_addr(set, way)),
            count * LINE_BYTES as u32,
            cause,
        );
        self.stats.block_fills += u64::from(count);
        self.overfetch.fetched_mask(self.hbm_line(set, way, 0), mask);
    }

    fn evict(&mut self, plan: &mut AccessPlan, set: usize, way: u32) {
        let idx = set * WAYS as usize + way as usize;
        let w = self.ways[idx];
        if !w.valid_page {
            return;
        }
        let page = w.tag * self.sets as u64 + set as u64;
        let dirty = w.dirty.count_ones();
        if dirty > 0 {
            plan.copy(
                (TrafficDevice::CHbm, self.hbm_page_addr(set, way)),
                (TrafficDevice::OffChip, Addr(page * PAGE_BYTES)),
                dirty * LINE_BYTES as u32,
                TrafficCause::Writeback,
            );
        }
        self.train(page, w.touched);
        self.overfetch.evicted_lines(self.hbm_line(set, way, 0), LINES_PER_PAGE);
        self.ways[idx] = Way::default();
        self.stats.evictions += 1;
    }
}

impl HybridMemoryController for UnisonCache {
    fn access(&mut self, req: &Access, plan: &mut AccessPlan) {
        let addr = self.faults.translate(req.addr, plan);
        let page = addr.0 / PAGE_BYTES;
        let block = ((addr.0 % PAGE_BYTES) / LINE_BYTES) as u32;
        let demand_addr = Addr(page * PAGE_BYTES + u64::from(block) * LINE_BYTES);
        let (tag, set) = self.set_div.div_rem(page);
        let set = set as usize;
        let is_read = req.kind == AccessKind::Read;

        // Way-predicted hits stream the embedded tag with the data; only
        // the way-predictor SRAM lookup is on the critical path.
        plan.metadata_cycles += 2;

        // Way lookup.
        let hit_way = (0..WAYS).find(|&w| {
            let x = &self.ways[set * WAYS as usize + w as usize];
            x.valid_page && x.tag == tag
        });

        if let Some(w) = hit_way {
            let idx = set * WAYS as usize + w as usize;
            self.lru.touch(set, w);
            self.ways[idx].touched |= 1 << block;
            if self.ways[idx].present & (1 << block) != 0 {
                // Page and block present: HBM serves the demand.
                let hbm = Addr(self.hbm_page_addr(set, w).0 + u64::from(block) * LINE_BYTES);
                plan.demand(req.kind, TrafficDevice::CHbm, hbm, LINE_BYTES as u32);
                if !is_read {
                    self.ways[idx].dirty |= 1 << block;
                }
                self.stats.hbm_hits += 1;
                plan.path = AccessPath::ChbmHit;
                self.overfetch.used(self.hbm_line(set, w, block));
                return;
            }
            // Footprint under-prediction: fetch the missing block.
            plan.demand(req.kind, TrafficDevice::OffChip, demand_addr, LINE_BYTES as u32);
            self.stats.offchip_serves += 1;
            self.fetch_blocks(plan, page, set, w, 1 << block, TrafficCause::MissFill);
            self.ways[idx].present |= 1 << block;
            self.overfetch.used(self.hbm_line(set, w, block));
            return;
        }

        // Page miss: the in-HBM probe that discovered the absence burned
        // HBM bandwidth (off the critical path thanks to the predictor),
        // and the demand is served off-chip.
        plan.background.push(DeviceOp {
            at: TrafficDevice::CHbm,
            addr: self.hbm_page_addr(set, 0),
            bytes: 64,
            kind: OpKind::Read,
            cause: TrafficCause::Metadata,
        });
        plan.demand(req.kind, TrafficDevice::OffChip, demand_addr, LINE_BYTES as u32);
        self.stats.offchip_serves += 1;

        let victim = self.lru.lru(set);
        self.evict(plan, set, victim);
        let mask = self.predict(page) | (1u64 << block);
        self.fetch_blocks(plan, page, set, victim, mask, TrafficCause::MissFill);
        let idx = set * WAYS as usize + victim as usize;
        self.ways[idx] = Way {
            tag,
            valid_page: true,
            present: mask,
            dirty: 0,
            touched: 1 << block,
        };
        self.lru.touch(set, victim);
        self.overfetch.used(self.hbm_line(set, victim, block));
    }

    fn name(&self) -> &'static str {
        "unison"
    }

    fn metadata_bytes(&self) -> u64 {
        // Tags + footprint bits embedded in HBM: ~16 B per HBM page, plus
        // the SRAM footprint predictor.
        (self.geometry.hbm_bytes() / PAGE_BYTES) * 16 + PREDICTOR_ENTRIES as u64 * 16
    }

    fn os_visible_bytes(&self) -> u64 {
        self.geometry.dram_bytes()
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

#[cfg(test)]
mod tests {
    use super::*;
    use memsim_types::Mem;

    fn geometry() -> Geometry {
        Geometry::paper(256)
    }

    #[test]
    fn fresh_controller_holds_no_overfetch_table() {
        let mut c = UnisonCache::new(geometry());
        assert_eq!(c.overfetch.table_bytes(), 0, "construct-and-drop allocates no ledger");
        c.access(&Access::read(Addr(0)), &mut AccessPlan::new());
        assert_eq!(c.overfetch.table_bytes() as u64, geometry().hbm_bytes() / PAGE_BYTES * 16);
    }

    #[test]
    fn fill_then_hit_within_footprint() {
        let mut c = UnisonCache::new(geometry());
        let mut plan = AccessPlan::new();
        c.access(&Access::read(Addr(0)), &mut plan);
        assert_eq!(c.stats().offchip_serves, 1);
        plan.clear();
        // Untrained predictor fetched the first half page: block 5 present.
        c.access(&Access::read(Addr(5 * 64)), &mut plan);
        assert_eq!(c.stats().hbm_hits, 1);
    }

    #[test]
    fn page_misses_burn_a_probe_hits_do_not() {
        let mut c = UnisonCache::new(geometry());
        let mut plan = AccessPlan::new();
        c.access(&Access::read(Addr(0)), &mut plan);
        let metas = plan
            .background
            .iter()
            .filter(|o| o.cause == TrafficCause::Metadata && o.mem() == Mem::Hbm)
            .count();
        assert_eq!(metas, 1, "page miss pays the probe");
        plan.clear();
        c.access(&Access::read(Addr(0)), &mut plan);
        let metas = plan
            .critical
            .iter()
            .chain(&plan.background)
            .filter(|o| o.cause == TrafficCause::Metadata)
            .count();
        assert_eq!(metas, 0, "way-predicted hits stream tag with data");
        assert!(plan.metadata_cycles > 0);
    }

    #[test]
    fn predictor_trains_on_eviction() {
        let g = geometry();
        let mut c = UnisonCache::new(g);
        let mut plan = AccessPlan::new();
        // Touch exactly blocks 0 and 1 of page 0, then force eviction by
        // filling the set with conflicting pages.
        c.access(&Access::read(Addr(0)), &mut plan);
        c.access(&Access::read(Addr(64)), &mut plan);
        let sets = g.hbm_bytes() / 4096 / 4;
        for k in 1..=4u64 {
            plan.clear();
            c.access(&Access::read(Addr(k * sets * 4096)), &mut plan);
        }
        // Page 0 was evicted; the predictor remembers {0, 1}.
        assert_eq!(c.predict(0), 0b11);
        // Refill page 0: the fill mask must be the trained footprint.
        let fills_before = c.stats().block_fills;
        plan.clear();
        c.access(&Access::read(Addr(0)), &mut plan);
        assert_eq!(c.stats().block_fills - fills_before, 2, "fetch only the footprint");
    }

    #[test]
    fn under_prediction_fetches_missing_block() {
        let g = geometry();
        let mut c = UnisonCache::new(g);
        let mut plan = AccessPlan::new();
        c.access(&Access::read(Addr(0)), &mut plan);
        plan.clear();
        // Block 60 is outside the untrained half-page default.
        c.access(&Access::read(Addr(60 * 64)), &mut plan);
        assert_eq!(c.stats().offchip_serves, 2);
        plan.clear();
        c.access(&Access::read(Addr(60 * 64)), &mut plan);
        assert_eq!(c.stats().hbm_hits, 1);
    }

    #[test]
    fn dirty_eviction_writes_back_only_dirty_lines() {
        let g = geometry();
        let mut c = UnisonCache::new(g);
        let mut plan = AccessPlan::new();
        c.access(&Access::read(Addr(0)), &mut plan);
        c.access(&Access::write(Addr(0)), &mut plan);
        let sets = g.hbm_bytes() / 4096 / 4;
        plan.clear();
        for k in 1..=4u64 {
            c.access(&Access::read(Addr(k * sets * 4096)), &mut plan);
        }
        let wb: u64 = plan
            .background
            .iter()
            .filter(|o| o.cause == TrafficCause::Writeback && o.mem() == Mem::OffChip)
            .map(|o| u64::from(o.bytes))
            .sum();
        assert_eq!(wb, 64, "exactly one dirty line written back");
    }
}
