//! Banshee (Yu et al., MICRO 2017).
//!
//! A bandwidth-efficient page-based DRAM cache managed through the page
//! tables/TLBs: tag lookups cost no memory traffic (the translation carries
//! the mapping), replacement is *frequency-based* — a page is only cached
//! once its access counter beats the set's weakest resident by a sampled
//! threshold — and writebacks are lazy. This trades hit rate for a large
//! reduction in cache-fill and metadata traffic.

use crate::common::FaultModel;
use memsim_types::{
    Access, AccessKind, AccessPath, AccessPlan, Addr, CtrlStats, Geometry, HybridMemoryController,
    OverfetchTracker, QuickDiv, TrafficCause, TrafficDevice,
};

const PAGE_BYTES: u64 = 4096;
const LINES_PER_PAGE: u64 = PAGE_BYTES / 64;
const WAYS: u32 = 4;
/// Frequency counters decay/cap (Banshee samples; we count directly).
const COUNTER_CAP: u32 = 255;
/// A candidate must beat the weakest resident by this margin to displace it.
const REPLACE_MARGIN: u32 = 2;

#[derive(Debug, Clone, Copy, Default)]
struct WayState {
    tag: u64,
    valid: bool,
    dirty: bool,
    counter: u32,
}

/// Candidate-page frequency table entry (direct-mapped per set).
#[derive(Debug, Clone, Copy, Default)]
struct Candidate {
    tag: u64,
    counter: u32,
}

/// The Banshee controller; see the [module documentation](self).
#[derive(Debug)]
pub struct Banshee {
    geometry: Geometry,
    sets: usize,
    set_div: QuickDiv,
    ways: Vec<WayState>,
    candidates: Vec<Candidate>,
    faults: FaultModel,
    stats: CtrlStats,
    overfetch: OverfetchTracker,
}

impl Banshee {
    /// Creates a Banshee cache filling the whole HBM of `geometry`.
    pub fn new(geometry: Geometry) -> Banshee {
        let pages = (geometry.hbm_bytes() / PAGE_BYTES) as usize;
        let sets = (pages / WAYS as usize).max(1);
        Banshee {
            ways: vec![WayState::default(); sets * WAYS as usize],
            candidates: vec![Candidate::default(); sets * 4],
            faults: FaultModel::with_default_table(geometry.dram_bytes()),
            geometry,
            sets,
            set_div: QuickDiv::new(sets as u64),
            stats: CtrlStats::new(),
            overfetch: OverfetchTracker::new((sets * WAYS as usize) as u64 * LINES_PER_PAGE),
        }
    }

    fn hbm_addr(&self, set: usize, way: u32, offset: u64) -> Addr {
        Addr((set as u64 * u64::from(WAYS) + u64::from(way)) * PAGE_BYTES + offset)
    }
}

impl HybridMemoryController for Banshee {
    fn access(&mut self, req: &Access, plan: &mut AccessPlan) {
        let addr = self.faults.translate(req.addr, plan);
        let page = addr.0 / PAGE_BYTES;
        let offset = addr.0 % PAGE_BYTES;
        let (tag, set) = self.set_div.div_rem(page);
        let set = set as usize;
        let is_read = req.kind == AccessKind::Read;
        // Mapping rides in the TLB/PTE: SRAM-speed metadata.
        plan.metadata_cycles += 2;

        let base = set * WAYS as usize;
        if let Some(w) = (0..WAYS as usize).find(|&w| {
            self.ways[base + w].valid && self.ways[base + w].tag == tag
        }) {
            let ws = &mut self.ways[base + w];
            ws.counter = (ws.counter + 1).min(COUNTER_CAP);
            ws.dirty |= !is_read;
            let hbm = self.hbm_addr(set, w as u32, offset & !63);
            plan.demand(req.kind, TrafficDevice::CHbm, hbm, 64);
            self.stats.hbm_hits += 1;
            plan.path = AccessPath::ChbmHit;
            self.overfetch.used(self.hbm_addr(set, w as u32, offset).0 / 64);
            return;
        }

        // Serve from off-chip DRAM.
        plan.demand(req.kind, TrafficDevice::OffChip, Addr(addr.0 & !63), 64);
        self.stats.offchip_serves += 1;

        // Frequency-based replacement decision.
        let cidx = set * 4 + (tag % 4) as usize;
        let cand = &mut self.candidates[cidx];
        if cand.tag != tag {
            *cand = Candidate { tag, counter: 1 };
        } else {
            cand.counter = (cand.counter + 1).min(COUNTER_CAP);
        }
        let cand_count = cand.counter;
        // Weakest resident way (or an invalid one).
        let victim = (0..WAYS as usize)
            .min_by_key(|&w| {
                let ws = &self.ways[base + w];
                if ws.valid {
                    ws.counter + REPLACE_MARGIN
                } else {
                    0
                }
            })
            .expect("ways > 0"); // ways >= 1 is a constructor invariant; min over a non-empty range
        let vs = self.ways[base + victim];
        let should_fill = !vs.valid || cand_count > vs.counter + REPLACE_MARGIN;
        if !should_fill {
            self.stats.threshold_rejections += 1;
            plan.path = AccessPath::SlBypass;
            return;
        }
        // Evict the victim (lazy writeback: whole page if dirty).
        let first_line = self.hbm_addr(set, victim as u32, 0).0 / 64;
        if vs.valid {
            let vpage = vs.tag * self.sets as u64 + set as u64;
            if vs.dirty {
                plan.copy(
                    (TrafficDevice::CHbm, self.hbm_addr(set, victim as u32, 0)),
                    (TrafficDevice::OffChip, Addr(vpage * PAGE_BYTES)),
                    PAGE_BYTES as u32,
                    TrafficCause::Writeback,
                );
            }
            self.overfetch.evicted_lines(first_line, LINES_PER_PAGE);
            self.stats.evictions += 1;
        }
        // Fill the whole page.
        plan.copy(
            (TrafficDevice::OffChip, Addr(page * PAGE_BYTES)),
            (TrafficDevice::CHbm, self.hbm_addr(set, victim as u32, 0)),
            PAGE_BYTES as u32,
            TrafficCause::MissFill,
        );
        self.ways[base + victim] =
            WayState { tag, valid: true, dirty: !is_read, counter: cand_count };
        self.stats.block_fills += 1;
        self.overfetch.fetched_lines(first_line, LINES_PER_PAGE);
        self.overfetch.used(first_line + offset / 64);
    }

    fn name(&self) -> &'static str {
        "banshee"
    }

    fn metadata_bytes(&self) -> u64 {
        // PTE/TLB extensions + frequency counters: ~8 B per HBM page and
        // candidate entry.
        (self.geometry.hbm_bytes() / PAGE_BYTES) * 8 + self.candidates.len() as u64 * 8
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

    fn geometry() -> Geometry {
        Geometry::paper(256)
    }

    #[test]
    fn fresh_controller_holds_no_overfetch_table() {
        let mut c = Banshee::new(geometry());
        assert_eq!(c.overfetch.table_bytes(), 0, "construct-and-drop allocates no ledger");
        c.access(&Access::read(Addr(0)), &mut AccessPlan::new());
        assert_eq!(c.overfetch.table_bytes() as u64, geometry().hbm_bytes() / PAGE_BYTES * 16);
    }

    #[test]
    fn first_touch_fills_empty_way_then_hits() {
        let mut c = Banshee::new(geometry());
        let mut plan = AccessPlan::new();
        c.access(&Access::read(Addr(0)), &mut plan);
        assert_eq!(c.stats().offchip_serves, 1);
        assert_eq!(c.stats().block_fills, 1, "empty ways fill immediately");
        plan.clear();
        c.access(&Access::read(Addr(128)), &mut plan);
        assert_eq!(c.stats().hbm_hits, 1, "whole page was cached");
    }

    #[test]
    fn cold_candidates_do_not_displace_hot_residents() {
        let g = geometry();
        let mut c = Banshee::new(g);
        let sets = g.hbm_bytes() / 4096 / 4;
        let mut plan = AccessPlan::new();
        // Fill all 4 ways of set 0 and heat them up.
        for k in 0..4u64 {
            for _ in 0..10 {
                plan.clear();
                c.access(&Access::read(Addr(k * sets * 4096)), &mut plan);
            }
        }
        let evictions = c.stats().evictions;
        // A single-touch page must not displace anything.
        plan.clear();
        c.access(&Access::read(Addr(7 * sets * 4096)), &mut plan);
        assert_eq!(c.stats().evictions, evictions);
        assert!(c.stats().threshold_rejections > 0);
    }

    #[test]
    fn persistent_candidate_eventually_replaces() {
        let g = geometry();
        let mut c = Banshee::new(g);
        let sets = g.hbm_bytes() / 4096 / 4;
        let mut plan = AccessPlan::new();
        for k in 0..4u64 {
            plan.clear();
            c.access(&Access::read(Addr(k * sets * 4096)), &mut plan);
        }
        // Hammer one conflicting page until its counter wins.
        for _ in 0..8 {
            plan.clear();
            c.access(&Access::read(Addr(8 * sets * 4096)), &mut plan);
        }
        assert!(c.stats().evictions >= 1, "hot candidate displaced a resident");
    }

    #[test]
    fn no_metadata_traffic_in_memory() {
        let mut c = Banshee::new(geometry());
        let mut plan = AccessPlan::new();
        for i in 0..50u64 {
            plan.clear();
            c.access(&Access::read(Addr(i * 4096)), &mut plan);
            assert!(plan
                .critical
                .iter()
                .chain(&plan.background)
                .all(|o| o.cause != TrafficCause::Metadata));
            assert!(plan.metadata_cycles > 0);
        }
    }

    #[test]
    fn clean_eviction_writes_nothing_back() {
        let g = geometry();
        let mut c = Banshee::new(g);
        let sets = g.hbm_bytes() / 4096 / 4;
        let mut plan = AccessPlan::new();
        c.access(&Access::read(Addr(0)), &mut plan);
        // Heat a conflicting candidate to displace the clean page.
        for _ in 0..8 {
            plan.clear();
            c.access(&Access::read(Addr(4 * sets * 4096)), &mut plan);
        }
        assert!(plan.background.iter().all(|o| o.cause != TrafficCause::Writeback));
    }
}
