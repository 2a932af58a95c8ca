//! The no-HBM reference system (the paper's normalization baseline).

use crate::common::FaultModel;
use memsim_types::{
    Access, AccessPath, AccessPlan, CtrlStats, Geometry, HybridMemoryController, TrafficDevice,
};

/// A system with off-chip DRAM only — HBM absent. Every result in the
/// paper's Fig. 6–8 is normalized to this configuration.
#[derive(Debug)]
pub struct OffChipOnly {
    geometry: Geometry,
    faults: FaultModel,
    stats: CtrlStats,
}

impl OffChipOnly {
    /// Creates the reference for `geometry` (only `dram_bytes` is used).
    pub fn new(geometry: Geometry) -> OffChipOnly {
        OffChipOnly {
            faults: FaultModel::with_default_table(geometry.dram_bytes()),
            geometry,
            stats: CtrlStats::new(),
        }
    }

    /// Major page faults absorbed.
    pub fn page_faults(&self) -> u64 {
        self.faults.faults()
    }
}

impl HybridMemoryController for OffChipOnly {
    fn access(&mut self, req: &Access, plan: &mut AccessPlan) {
        let addr = self.faults.translate(req.addr, plan);
        let addr = addr.align_down(64);
        self.stats.offchip_serves += 1;
        plan.path = AccessPath::MissFill; // no HBM: every access is the miss path
        plan.demand(req.kind, TrafficDevice::OffChip, addr, 64);
    }

    fn name(&self) -> &'static str {
        "no-hbm"
    }

    fn metadata_bytes(&self) -> u64 {
        0
    }

    fn os_visible_bytes(&self) -> u64 {
        self.geometry.dram_bytes()
    }

    fn stats(&self) -> &CtrlStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim_types::Addr;

    fn geometry() -> Geometry {
        Geometry::paper(256)
    }

    #[test]
    fn reads_are_critical_writes_posted() {
        let mut c = OffChipOnly::new(geometry());
        let mut plan = AccessPlan::new();
        c.access(&Access::read(Addr(128)), &mut plan);
        assert_eq!(plan.critical.len(), 1);
        plan.clear();
        c.access(&Access::write(Addr(128)), &mut plan);
        assert!(plan.critical.is_empty());
        assert_eq!(plan.background.len(), 1);
        assert_eq!(c.stats().offchip_serves, 2);
    }

    #[test]
    fn oversized_footprints_fault() {
        let g = geometry();
        let mut c = OffChipOnly::new(g);
        let mut plan = AccessPlan::new();
        c.access(&Access::read(Addr(g.dram_bytes() + 4096)), &mut plan);
        assert_eq!(c.page_faults(), 1);
        assert!(plan.stall_cycles > 0);
    }

    #[test]
    fn no_hbm_traffic_ever() {
        let mut c = OffChipOnly::new(geometry());
        let mut plan = AccessPlan::new();
        for i in 0..100u64 {
            plan.clear();
            c.access(&Access::read(Addr(i * 4096)), &mut plan);
            let mut ops = plan.critical.iter().chain(&plan.background);
            assert!(ops.all(|o| o.at == TrafficDevice::OffChip));
        }
    }
}
