//! Chameleon (Kotra et al., MICRO 2018).
//!
//! A dynamically reconfigurable part-of-memory (POM) design: all HBM is
//! OS-visible, organized in remapping *groups* that each contain exactly
//! **one HBM sector** and `k` off-chip sectors (the restriction the paper's
//! §IV-D calls out). A hot off-chip sector swaps with the group's HBM
//! resident when its access counter overtakes it; the remap table lives in
//! memory with only the hottest entries cached in the SRAM budget, so
//! lookups frequently pay an in-HBM metadata access.

use memsim_obs::{EpochGauges, Telemetry};
use memsim_types::{
    Access, AccessKind, AccessPath, AccessPlan, Addr, CtrlStats, DeviceOp, Geometry,
    HybridMemoryController, Mem, MetadataModel, OpKind, QuickDiv, TrafficCause,
};

const SECTOR_BYTES: u64 = 4096;
/// Hysteresis before swapping. Chameleon remaps on epoch boundaries with
/// competition between sectors; a sector must build a solid counter lead
/// before displacing the resident, which keeps transients out and makes
/// Chameleon the most bandwidth-frugal baseline (as the paper observes).
const SWAP_MARGIN: u32 = 24;

/// The Chameleon controller; see the [module documentation](self).
#[derive(Debug)]
pub struct Chameleon {
    geometry: Geometry,
    /// The member of each group currently occupying its HBM sector.
    resident: Vec<u32>,
    /// Access counter of every member of every group, saturating at 255,
    /// row-major: group `g`'s counters are `g * members..(g + 1) * members`.
    counters: Vec<u8>,
    group_div: QuickDiv,
    member_div: QuickDiv,
    hbm_div: QuickDiv,
    dram_div: QuickDiv,
    metadata: MetadataModel,
    stats: CtrlStats,
    swaps: u64,
    telemetry: Telemetry,
}

impl Chameleon {
    /// Creates a Chameleon system over `geometry`, granting `sram_budget`
    /// bytes of on-chip metadata cache (the paper grants 512 KB).
    pub fn new(geometry: Geometry, sram_budget: u64) -> Chameleon {
        let hbm_sectors = (geometry.hbm_bytes() / SECTOR_BYTES).max(1);
        let total_sectors = (geometry.flat_bytes() / SECTOR_BYTES).max(1);
        let members = (total_sectors / hbm_sectors).max(2) as u32;
        // Remap table: one entry (~2 B) per sector of the flat space.
        let metadata_bytes = total_sectors * 2;
        Chameleon {
            group_div: QuickDiv::new(hbm_sectors),
            member_div: QuickDiv::new(u64::from(members)),
            hbm_div: QuickDiv::new(geometry.hbm_bytes()),
            dram_div: QuickDiv::new(geometry.dram_bytes()),
            geometry,
            // Member `members - 1` denotes the HBM-native sector.
            resident: vec![members - 1; hbm_sectors as usize],
            counters: vec![0; hbm_sectors as usize * members as usize],
            metadata: MetadataModel::new(metadata_bytes, sram_budget, Mem::Hbm, 64),
            stats: CtrlStats::new(),
            swaps: 0,
            telemetry: Telemetry::default(),
        }
    }

    /// The controller's telemetry handle (install/remove a recorder).
    pub fn telemetry_mut(&mut self) -> &mut Telemetry {
        &mut self.telemetry
    }

    /// Sector swaps performed.
    pub fn swaps(&self) -> u64 {
        self.swaps
    }

    fn locate(&self, addr: Addr) -> (usize, u32, u64) {
        let sector = self.geometry.wrap_flat(addr).0 / SECTOR_BYTES;
        let (quot, group) = self.group_div.div_rem(sector);
        let member = self.member_div.rem(quot) as u32;
        (group as usize, member, addr.0 % SECTOR_BYTES)
    }

    /// Index of `member`'s counter of `group` in `counters`.
    fn counter(&self, group: usize, member: u32) -> usize {
        group * self.member_div.divisor() as usize + member as usize
    }

    fn hbm_sector_addr(&self, group: usize) -> Addr {
        Addr(self.hbm_div.rem(group as u64 * SECTOR_BYTES))
    }

    fn dram_member_addr(&self, group: usize, member: u32) -> Addr {
        let sector = u64::from(member) * self.resident.len() as u64 + group as u64;
        Addr(self.dram_div.rem(sector * SECTOR_BYTES))
    }
}

impl HybridMemoryController for Chameleon {
    fn access(&mut self, req: &Access, plan: &mut AccessPlan) {
        plan.metadata_cycles += self.metadata.lookup(plan, req.addr);
        let (group, member, offset) = self.locate(req.addr);
        let is_read = req.kind == AccessKind::Read;
        let resident = self.resident[group];
        let (resident_ci, member_ci) = (self.counter(group, resident), self.counter(group, member));
        self.counters[member_ci] = self.counters[member_ci].saturating_add(1);
        let in_hbm = resident == member;
        // Widened, so `resident_count + SWAP_MARGIN` cannot wrap.
        let resident_count = u32::from(self.counters[resident_ci]);
        let member_count = u32::from(self.counters[member_ci]);

        let target = if in_hbm {
            self.stats.hbm_hits += 1;
            // POM: the resident sector is OS-visible memory, not a cache.
            plan.path = AccessPath::MhbmHit;
            DeviceOp {
                mem: Mem::Hbm,
                addr: Addr(self.hbm_sector_addr(group).0 + (offset & !63)),
                bytes: 64,
                kind: if is_read { OpKind::Read } else { OpKind::Write },
                cause: if is_read { TrafficCause::DemandRead } else { TrafficCause::DemandWrite },
                // POM: the HBM sector is OS-visible (memory-mode) residency.
                mhbm: true,
            }
        } else {
            self.stats.offchip_serves += 1;
            DeviceOp {
                mem: Mem::OffChip,
                addr: Addr(self.dram_member_addr(group, member).0 + (offset & !63)),
                bytes: 64,
                kind: if is_read { OpKind::Read } else { OpKind::Write },
                cause: if is_read { TrafficCause::DemandRead } else { TrafficCause::DemandWrite },
                mhbm: false,
            }
        };
        if is_read {
            plan.critical.push(target);
        } else {
            plan.background.push(target);
        }

        // Swap decision: the touched off-chip sector overtakes the resident.
        if !in_hbm && member_count > resident_count + SWAP_MARGIN {
            let hbm = self.hbm_sector_addr(group);
            let dram_new = self.dram_member_addr(group, member);
            let dram_old = self.dram_member_addr(group, resident);
            // Swap legs: reading the old resident out of HBM and writing it
            // off-chip is the demotion; pulling the hot sector in is the
            // promotion (the HBM write lands in the OS-visible sector).
            for (mem, a, kind, cause, mhbm) in [
                (Mem::Hbm, hbm, OpKind::Read, TrafficCause::MigrationDemote, true),
                (Mem::OffChip, dram_new, OpKind::Read, TrafficCause::MigrationPromote, false),
                (Mem::Hbm, hbm, OpKind::Write, TrafficCause::MigrationPromote, true),
                (Mem::OffChip, dram_old, OpKind::Write, TrafficCause::MigrationDemote, false),
            ] {
                plan.background.push(DeviceOp {
                    mem,
                    addr: a,
                    bytes: SECTOR_BYTES as u32,
                    kind,
                    cause,
                    mhbm,
                });
            }
            self.resident[group] = member;
            // Decay both counters to re-arm the hysteresis.
            self.counters[resident_ci] = 0;
            self.counters[member_ci] = 1;
            self.swaps += 1;
            self.stats.page_migrations += 1;
            plan.path = AccessPath::Migration;
        }
        crate::common::tick_epoch(&mut self.telemetry, &self.stats, EpochGauges::default);
    }

    fn name(&self) -> &'static str {
        "chameleon"
    }

    fn metadata_bytes(&self) -> u64 {
        self.metadata.metadata_bytes()
    }

    fn os_visible_bytes(&self) -> u64 {
        self.geometry.flat_bytes()
    }

    fn stats(&self) -> &CtrlStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geometry() -> Geometry {
        Geometry::paper(256)
    }

    fn chameleon() -> Chameleon {
        Chameleon::new(geometry(), 512 << 10)
    }

    #[test]
    fn hbm_native_sectors_hit_hbm() {
        let g = geometry();
        let mut c = chameleon();
        let mut plan = AccessPlan::new();
        // Addresses in the HBM region map to the HBM-native member.
        c.access(&Access::read(Addr(g.dram_bytes())), &mut plan);
        assert_eq!(c.stats().hbm_hits, 1);
    }

    #[test]
    fn offchip_sector_swaps_in_when_hot() {
        let mut c = chameleon();
        let mut plan = AccessPlan::new();
        // Hammer one off-chip sector; the untouched resident has counter 0.
        // Touch SWAP_MARGIN + 1 times to clear the hysteresis and swap.
        for _ in 0..=SWAP_MARGIN {
            plan.clear();
            c.access(&Access::read(Addr(0)), &mut plan);
        }
        assert_eq!(c.swaps(), 1);
        // Swap traffic: 4 sector ops.
        assert_eq!(
            plan.background
                .iter()
                .filter(|o| matches!(
                    o.cause,
                    TrafficCause::MigrationPromote | TrafficCause::MigrationDemote
                ))
                .count(),
            4
        );
        // Now the sector serves from HBM.
        plan.clear();
        c.access(&Access::read(Addr(0)), &mut plan);
        assert!(plan
            .critical
            .iter()
            .any(|o| o.mem == Mem::Hbm && o.cause == TrafficCause::DemandRead));
    }

    #[test]
    fn one_hbm_sector_per_group_limits_residency() {
        let g = geometry();
        let mut c = chameleon();
        let mut plan = AccessPlan::new();
        let groups = g.hbm_bytes() / 4096;
        // Two off-chip sectors of the same group fight for one HBM slot.
        let a = Addr(0);
        let b = Addr(groups * 4096);
        for _ in 0..=SWAP_MARGIN {
            plan.clear();
            c.access(&Access::read(a), &mut plan);
        }
        assert_eq!(c.swaps(), 1);
        for _ in 0..=SWAP_MARGIN + 2 {
            plan.clear();
            c.access(&Access::read(b), &mut plan);
        }
        assert_eq!(c.swaps(), 2, "second sector displaced the first");
    }

    /// Touches group 0's HBM-native sector `resident_touches` times, then
    /// off-chip member 0 of the group 300 times. Checks each swap decision
    /// against a `u32` model whose counters saturate with `min(255)`, and
    /// returns the number of swaps.
    fn swaps_after_saturation(resident_touches: u32) -> u64 {
        let g = geometry();
        let mut c = chameleon();
        let mut plan = AccessPlan::new();
        let native = Addr(g.dram_bytes());
        let (group, resident, _) = c.locate(native);
        let (member_group, member, _) = c.locate(Addr(0));
        assert_eq!((member_group, member), (group, 0));
        for _ in 0..resident_touches {
            plan.clear();
            c.access(&Access::read(native), &mut plan);
        }
        let count = |c: &Chameleon, m: u32| u32::from(c.counters[c.counter(group, m)]);
        let mut resident_count = resident_touches.min(255);
        assert_eq!(count(&c, resident), resident_count);
        let (mut member_count, mut swapped) = (0u32, false);
        for _ in 0..300 {
            plan.clear();
            c.access(&Access::read(Addr(0)), &mut plan);
            member_count = (member_count + 1).min(255);
            if !swapped && member_count > resident_count + SWAP_MARGIN {
                swapped = true;
                (resident_count, member_count) = (0, 1);
            }
            assert_eq!(c.swaps(), u64::from(swapped));
        }
        assert_eq!(count(&c, member), member_count);
        assert_eq!(count(&c, resident), resident_count);
        c.swaps()
    }

    #[test]
    fn counters_saturate_at_255_without_wrapping() {
        // The resident's 255 plus the margin exceeds any u8 count: no swap,
        // and both counters read 255 after 300 touches.
        assert_eq!(swaps_after_saturation(300), 0);
        // 231 + 24 = 255: a saturated member still cannot overtake it.
        assert_eq!(swaps_after_saturation(231), 0);
        // 230 + 24 = 254: the member's 255th touch swaps it in.
        assert_eq!(swaps_after_saturation(230), 1);
    }

    #[test]
    fn pom_exposes_full_capacity() {
        let g = geometry();
        let c = chameleon();
        assert_eq!(c.os_visible_bytes(), g.flat_bytes());
    }

    #[test]
    fn metadata_spills_into_hbm() {
        let g = Geometry::paper(16);
        // 512 KB / 16 budget, as the scaled experiments use.
        let mut c = Chameleon::new(g, (512 << 10) / 16);
        assert!(c.metadata_bytes() > (512 << 10) / 16);
        let mut plan = AccessPlan::new();
        let mut metadata_ops = 0;
        for i in 0..1000u64 {
            plan.clear();
            c.access(&Access::read(Addr(i * 8192)), &mut plan);
            metadata_ops +=
                plan.background.iter().filter(|o| o.cause == TrafficCause::Metadata).count();
        }
        // With the ×8 locality boost the SRAM covers ~74% of lookups; the
        // remaining quarter pays the in-HBM remap read.
        assert!(metadata_ops > 200, "remap reads must reach HBM, got {metadata_ops}");
    }
}
