//! Alloy Cache (Qureshi & Loh, MICRO 2012).
//!
//! A latency-optimized, direct-mapped DRAM cache holding 64 B blocks, with
//! **T**ags **A**nd **D**ata (TAD) streamed out of HBM in one access — so
//! there is no separate metadata lookup on the critical path (the tag rides
//! along with the data burst), at the cost of block granularity (no spatial
//! locality exploitation) and direct-mapped conflicts. A memory access
//! predictor (the paper's MAP-I) issues the off-chip access in parallel
//! with the TAD probe when a miss is predicted, keeping predicted misses
//! off the serialized probe-then-DRAM path.

use crate::common::FaultModel;
use memsim_types::{
    Access, AccessKind, AccessPath, AccessPlan, Addr, CtrlStats, DeviceOp, Geometry,
    HybridMemoryController, OpKind, OverfetchTracker, QuickDiv, TrafficCause, TrafficDevice,
};

const LINE_BYTES: u64 = 64;
/// TAD burst: 64 B data + 8 B tag rounded up to the 72 B the paper's
/// design streams (we bill 72 B of HBM bandwidth per probe).
const TAD_BYTES: u32 = 72;

/// A line's state is one byte, `tag << 2 | dirty << 1 | valid`. Zero is an
/// invalid line, so a zeroed allocation is the empty line array.
const VALID: u8 = 1;
const DIRTY: u8 = 1 << 1;
const TAG_SHIFT: u32 = 2;

/// The state byte of a valid line holding `tag`.
fn line_word(tag: u64, dirty: bool) -> u8 {
    (tag as u8) << TAG_SHIFT | u8::from(dirty) << 1 | VALID
}

/// MAP-I style instruction/region-based hit-miss predictor: a table of
/// 3-bit saturating counters indexed by the access region.
#[derive(Debug, Clone)]
struct MapPredictor {
    counters: Vec<u8>,
}

impl MapPredictor {
    fn new() -> MapPredictor {
        MapPredictor { counters: vec![4; 1024] }
    }

    fn idx(addr: u64) -> usize {
        ((addr >> 12) % 1024) as usize
    }

    /// `true` = predict hit.
    fn predict(&self, addr: u64) -> bool {
        self.counters[Self::idx(addr)] >= 4
    }

    fn train(&mut self, addr: u64, hit: bool) {
        let c = &mut self.counters[Self::idx(addr)];
        if hit {
            *c = (*c + 1).min(7);
        } else {
            *c = c.saturating_sub(1);
        }
    }
}

/// The Alloy Cache controller; see the [module documentation](self).
#[derive(Debug)]
pub struct AlloyCache {
    geometry: Geometry,
    /// One state byte per HBM line; see [`line_word`].
    lines: Vec<u8>,
    line_div: QuickDiv,
    map: MapPredictor,
    faults: FaultModel,
    stats: CtrlStats,
    overfetch: OverfetchTracker,
}

impl AlloyCache {
    /// Creates an Alloy cache filling the whole HBM of `geometry`.
    ///
    /// # Panics
    ///
    /// If an off-chip line's tag, `line / (hbm_bytes / 64)`, would not fit
    /// in the 6 bits a line's state byte holds: that needs off-chip DRAM
    /// over 64 times the size of HBM (Table I's ratio is 10).
    pub fn new(geometry: Geometry) -> AlloyCache {
        let lines = (geometry.hbm_bytes() / LINE_BYTES) as usize;
        let max_tag = (geometry.dram_bytes() - 1) / LINE_BYTES / lines as u64;
        assert!(max_tag >> (u8::BITS - TAG_SHIFT) == 0, "Alloy tag {max_tag} exceeds 6 bits");
        AlloyCache {
            lines: vec![0; lines],
            line_div: QuickDiv::new(lines as u64),
            map: MapPredictor::new(),
            faults: FaultModel::with_default_table(geometry.dram_bytes()),
            geometry,
            stats: CtrlStats::new(),
            overfetch: OverfetchTracker::new(lines as u64),
        }
    }

    fn index(&self, line_addr: u64) -> (usize, u64) {
        let (tag, idx) = self.line_div.div_rem(line_addr);
        (idx as usize, tag)
    }
}

impl HybridMemoryController for AlloyCache {
    fn access(&mut self, req: &Access, plan: &mut AccessPlan) {
        let addr = self.faults.translate(req.addr, plan);
        let line_addr = addr.0 / LINE_BYTES;
        let (idx, tag) = self.index(line_addr);
        let hbm_addr = Addr(idx as u64 * LINE_BYTES);
        let dram_addr = Addr(line_addr * LINE_BYTES);
        let is_read = req.kind == AccessKind::Read;

        // One TAD probe always goes to HBM (tag + data in a single burst).
        let line = self.lines[idx];
        let predicted_hit = self.map.predict(addr.0);
        if line & VALID != 0 && u64::from(line >> TAG_SHIFT) == tag {
            // Hit: the probe *was* the data access.
            plan.demand(req.kind, TrafficDevice::CHbm, hbm_addr, TAD_BYTES);
            if !is_read {
                self.lines[idx] |= DIRTY;
            }
            self.stats.hbm_hits += 1;
            plan.path = AccessPath::ChbmHit;
            self.overfetch.used(idx as u64);
            self.map.train(addr.0, true);
            return;
        }

        // Miss. MAP-predicted misses issue the off-chip access in parallel
        // with the probe (probe off the critical path); mispredicted hits
        // pay the serialized probe first, exactly as the paper describes.
        self.map.train(addr.0, false);
        let probe = DeviceOp {
            at: TrafficDevice::CHbm,
            addr: hbm_addr,
            bytes: TAD_BYTES,
            kind: OpKind::Read,
            cause: TrafficCause::Metadata,
        };
        if predicted_hit {
            plan.critical.push(probe);
        } else {
            plan.background.push(probe);
        }
        plan.demand(req.kind, TrafficDevice::OffChip, dram_addr, LINE_BYTES as u32);
        self.stats.offchip_serves += 1;

        // Evict + fill (victim writeback only when dirty).
        if line & VALID != 0 {
            let victim_line = u64::from(line >> TAG_SHIFT) * self.lines.len() as u64 + idx as u64;
            if line & DIRTY != 0 {
                plan.background.push(DeviceOp {
                    at: TrafficDevice::OffChip,
                    addr: Addr(victim_line * LINE_BYTES),
                    bytes: LINE_BYTES as u32,
                    kind: OpKind::Write,
                    cause: TrafficCause::Writeback,
                });
            }
            self.overfetch.evicted(idx as u64);
            self.stats.evictions += 1;
        }
        plan.background.push(DeviceOp {
            at: TrafficDevice::CHbm,
            addr: hbm_addr,
            bytes: TAD_BYTES,
            kind: OpKind::Write,
            cause: TrafficCause::MissFill,
        });
        self.lines[idx] = line_word(tag, !is_read);
        self.stats.block_fills += 1;
        self.overfetch.fetched(idx as u64, LINE_BYTES as u32);
        self.overfetch.used(idx as u64); // demand-fetched, so Alloy's over-fetch is 0
    }

    fn name(&self) -> &'static str {
        "alloy"
    }

    fn metadata_bytes(&self) -> u64 {
        // Tags live in HBM alongside data; 8 B per line of bookkeeping,
        // plus the small SRAM MAP table.
        self.lines.len() as u64 * 8 + self.map.counters.len() as u64
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
    fn miss_then_hit() {
        let mut c = AlloyCache::new(geometry());
        let mut plan = AccessPlan::new();
        c.access(&Access::read(Addr(4096)), &mut plan);
        assert_eq!(c.stats().offchip_serves, 1);
        plan.clear();
        c.access(&Access::read(Addr(4096)), &mut plan);
        assert_eq!(c.stats().hbm_hits, 1);
        // Hit path: exactly one HBM op, no DRAM.
        assert_eq!(plan.critical.len(), 1);
        assert_eq!(plan.critical[0].mem(), Mem::Hbm);
    }

    #[test]
    fn adjacent_lines_are_distinct() {
        let mut c = AlloyCache::new(geometry());
        let mut plan = AccessPlan::new();
        c.access(&Access::read(Addr(0)), &mut plan);
        plan.clear();
        c.access(&Access::read(Addr(64)), &mut plan);
        // 64 B granularity: the neighbour missed (no spatial exploitation).
        assert_eq!(c.stats().offchip_serves, 2);
    }

    #[test]
    fn direct_mapped_conflicts_evict() {
        let g = geometry();
        let mut c = AlloyCache::new(g);
        let lines = g.hbm_bytes() / 64;
        let mut plan = AccessPlan::new();
        c.access(&Access::write(Addr(0)), &mut plan);
        plan.clear();
        // Same index, different tag.
        c.access(&Access::read(Addr(lines * 64)), &mut plan);
        assert_eq!(c.stats().evictions, 1);
        // Dirty victim produced a writeback.
        assert!(plan
            .background
            .iter()
            .any(|o| o.cause == TrafficCause::Writeback && o.mem() == Mem::OffChip));
    }

    #[test]
    fn demand_fetched_blocks_are_not_overfetch() {
        let mut c = AlloyCache::new(geometry());
        let mut plan = AccessPlan::new();
        for i in 0..32u64 {
            plan.clear();
            c.access(&Access::read(Addr(i * 64)), &mut plan);
        }
        plan.clear();
        c.finish(&mut plan);
        assert_eq!(c.overfetch_ratio(), Some(0.0));
    }

    #[test]
    fn fresh_controller_holds_no_overfetch_table() {
        let mut c = AlloyCache::new(geometry());
        assert_eq!(c.overfetch.table_bytes(), 0, "construct-and-drop allocates no ledger");
        c.access(&Access::read(Addr(0)), &mut AccessPlan::new());
        assert_eq!(c.overfetch.table_bytes() as u64, geometry().hbm_bytes() / 64 / 64 * 16);
    }

    #[test]
    fn line_word_round_trips() {
        for tag in [0, 1, 9, 63] {
            for dirty in [false, true] {
                let w = line_word(tag, dirty);
                assert_eq!(w & VALID, VALID, "a filled line is valid");
                assert_eq!(u64::from(w >> TAG_SHIFT), tag);
                assert_eq!(w & DIRTY != 0, dirty);
            }
        }
    }

    /// One 64 KB HBM page (1,024 lines) over `dram_bytes` of off-chip DRAM.
    fn tall_geometry(dram_bytes: u64) -> Geometry {
        Geometry::builder()
            .block_bytes(2 << 10)
            .page_bytes(64 << 10)
            .hbm_bytes(64 << 10)
            .dram_bytes(dram_bytes)
            .hbm_ways(1)
            .build()
            .expect("valid geometry")
    }

    #[test]
    fn six_bit_tags_fit() {
        // 64 off-chip lines per HBM line: the largest tag is 63.
        let g = tall_geometry((64 << 10) * 64);
        let mut c = AlloyCache::new(g);
        assert_eq!(c.metadata_bytes(), 1024 * 8 + 1024);
        // The last off-chip line holds tag 63: it hits once filled, and a
        // conflicting fill writes it back to its own address.
        let top = Addr(g.dram_bytes() - 64);
        let mut plan = AccessPlan::new();
        c.access(&Access::write(top), &mut plan);
        plan.clear();
        c.access(&Access::read(top), &mut plan);
        assert_eq!(c.stats().hbm_hits, 1);
        plan.clear();
        c.access(&Access::read(Addr(top.0 % g.hbm_bytes())), &mut plan);
        assert!(plan
            .background
            .iter()
            .any(|o| o.cause == TrafficCause::Writeback && o.addr == top));
    }

    #[test]
    #[should_panic(expected = "exceeds 6 bits")]
    fn tags_past_six_bits_panic() {
        // One page more than 64 off-chip lines per HBM line.
        AlloyCache::new(tall_geometry((64 << 10) * 64 + (64 << 10)));
    }
}
