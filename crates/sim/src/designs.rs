//! The design registry: every memory system the paper evaluates.

use bumblebee_core::{BumblebeeConfig, BumblebeeController};
use memsim_baselines::{
    ablations, AlloyCache, Banshee, Chameleon, Hybrid2, OffChipOnly, UnisonCache,
};
use memsim_obs::{EpochGauges, Ring, TimedEvent};
use memsim_types::{
    Access, AccessBatch, AccessPlan, CtrlStats, Geometry, HybridMemoryController, PlanBuffer,
};

/// Every design of the paper's evaluation (Fig. 7 + Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Design {
    /// Off-chip DRAM only (normalization baseline).
    NoHbm,
    /// Alloy Cache (MICRO 2012).
    Alloy,
    /// Unison Cache (MICRO 2014).
    Unison,
    /// Banshee (MICRO 2017).
    Banshee,
    /// Chameleon (MICRO 2018).
    Chameleon,
    /// Hybrid2 (HPCA 2020).
    Hybrid2,
    /// Bumblebee, the paper's design.
    Bumblebee,
    /// A Fig. 7 ablation variant, by its figure label.
    Ablation(&'static str),
    /// Bumblebee with one §IV-A parameter off its paper default (the
    /// sensitivity sweeps); labelled `"Bumblebee"`.
    Tuned(Knob),
}

/// One Bumblebee parameter at a value of its own, the rest at the paper's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Knob {
    /// Hot-table off-chip queue depth (paper: 8).
    HotQueueLen(u32),
    /// Mode-switch fraction in thousandths (paper: 500, strict majority),
    /// so that every swept fraction is exact: `900 / 1000.0 == 0.9`.
    SwitchPermille(u32),
    /// Zombie-detection window in set-local accesses (paper: 1024).
    ZombieWindow(u32),
}

impl Knob {
    /// The paper configuration with this knob applied.
    pub(crate) fn config(self, sram_budget: u64) -> BumblebeeConfig {
        let paper = BumblebeeConfig { sram_budget, ..BumblebeeConfig::paper() };
        match self {
            Knob::HotQueueLen(n) => BumblebeeConfig { hot_queue_len: n as usize, ..paper },
            Knob::SwitchPermille(p) => {
                BumblebeeConfig { mode_switch_fraction: f64::from(p) / 1000.0, ..paper }
            }
            Knob::ZombieWindow(w) => BumblebeeConfig { zombie_window: w, ..paper },
        }
    }
}

impl Design {
    /// The five state-of-the-art comparators plus Bumblebee (Fig. 8 order).
    pub fn fig8() -> [Design; 6] {
        [
            Design::Banshee,
            Design::Alloy,
            Design::Unison,
            Design::Chameleon,
            Design::Hybrid2,
            Design::Bumblebee,
        ]
    }

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Design::NoHbm => "No-HBM",
            Design::Alloy => "AC",
            Design::Unison => "UC",
            Design::Banshee => "Banshee",
            Design::Chameleon => "Chameleon",
            Design::Hybrid2 => "Hybrid2",
            Design::Bumblebee | Design::Tuned(_) => "Bumblebee",
            Design::Ablation(label) => label,
        }
    }

    /// Whether the design uses the die-stacked HBM at all.
    pub fn uses_hbm(&self) -> bool {
        !matches!(self, Design::NoHbm)
    }

    /// Builds the controller for this design.
    pub fn build(&self, geometry: Geometry, sram_budget: u64) -> AnyController {
        match self {
            Design::NoHbm => AnyController::NoHbm(OffChipOnly::new(geometry)),
            Design::Alloy => AnyController::Alloy(AlloyCache::new(geometry)),
            Design::Unison => AnyController::Unison(UnisonCache::new(geometry)),
            Design::Banshee => AnyController::Banshee(Banshee::new(geometry)),
            Design::Chameleon => {
                AnyController::Chameleon(Chameleon::new(geometry, sram_budget))
            }
            Design::Hybrid2 => AnyController::Hybrid2(Hybrid2::new(geometry, sram_budget)),
            Design::Bumblebee => AnyController::Bumblebee(BumblebeeController::new(
                geometry,
                BumblebeeConfig { sram_budget, ..BumblebeeConfig::paper() },
            )),
            Design::Ablation(label) => AnyController::Bumblebee(ablations::controller_for(
                label, geometry, sram_budget,
            )),
            Design::Tuned(knob) => AnyController::Bumblebee(BumblebeeController::new(
                geometry,
                knob.config(sram_budget),
            )),
        }
    }
}

/// A concrete controller of any design, exposing the shared policy trait
/// plus the design-specific extras the experiments report (§IV-D
/// mode-switch traffic, page faults).
#[derive(Debug)]
pub enum AnyController {
    /// See [`OffChipOnly`].
    NoHbm(OffChipOnly),
    /// See [`AlloyCache`].
    Alloy(AlloyCache),
    /// See [`UnisonCache`].
    Unison(UnisonCache),
    /// See [`Banshee`].
    Banshee(Banshee),
    /// See [`Chameleon`].
    Chameleon(Chameleon),
    /// See [`Hybrid2`].
    Hybrid2(Hybrid2),
    /// See [`BumblebeeController`].
    Bumblebee(BumblebeeController),
}

macro_rules! delegate {
    ($self:ident, $c:ident => $e:expr) => {
        match $self {
            AnyController::NoHbm($c) => $e,
            AnyController::Alloy($c) => $e,
            AnyController::Unison($c) => $e,
            AnyController::Banshee($c) => $e,
            AnyController::Chameleon($c) => $e,
            AnyController::Hybrid2($c) => $e,
            AnyController::Bumblebee($c) => $e,
        }
    };
}

impl AnyController {
    /// cHBM↔mHBM mode-switch traffic, for designs that have the concept.
    pub fn mode_switch_bytes(&self) -> Option<u64> {
        match self {
            AnyController::Bumblebee(c) => Some(c.mode_switch_bytes()),
            AnyController::Hybrid2(c) => Some(c.mode_switch_bytes()),
            _ => None,
        }
    }

    /// Major page faults absorbed, where tracked.
    pub fn page_faults(&self) -> Option<u64> {
        match self {
            AnyController::NoHbm(c) => Some(c.page_faults()),
            AnyController::Bumblebee(c) => Some(c.page_faults()),
            _ => None,
        }
    }

    /// Installs a trace-event ring on a Bumblebee controller, the one
    /// design that emits events; a no-op for every other design.
    pub fn install_recorder(&mut self, ring: Ring<TimedEvent>) {
        if let AnyController::Bumblebee(c) = self {
            c.install_recorder(ring);
        }
    }

    /// Removes and returns the trace-event ring, if one was installed.
    pub fn take_recorder(&mut self) -> Option<Ring<TimedEvent>> {
        match self {
            AnyController::Bumblebee(c) => c.take_recorder(),
            _ => None,
        }
    }

    /// Instantaneous gauges for an epoch sample: Bumblebee's set walk, and
    /// the over-fetch ratio so far for every other design.
    pub fn gauges(&self) -> EpochGauges {
        match self {
            AnyController::Bumblebee(c) => c.gauges(),
            c => EpochGauges {
                overfetch_ratio: c.overfetch_ratio().unwrap_or(0.0),
                ..EpochGauges::default()
            },
        }
    }

    /// The inner Bumblebee controller, when this is one.
    pub fn as_bumblebee(&self) -> Option<&BumblebeeController> {
        match self {
            AnyController::Bumblebee(c) => Some(c),
            _ => None,
        }
    }
}

impl HybridMemoryController for AnyController {
    fn access(&mut self, req: &Access, plan: &mut AccessPlan) {
        delegate!(self, c => c.access(req, plan))
    }

    // One enum dispatch per CHUNK, not per access: the match devirtualizes
    // the whole batch loop, so the baselines' default (per-access) batch
    // implementation inlines their concrete `access` bodies.
    fn access_batch(&mut self, batch: &AccessBatch, plans: &mut PlanBuffer) {
        delegate!(self, c => c.access_batch(batch, plans))
    }

    fn name(&self) -> &'static str {
        delegate!(self, c => c.name())
    }

    fn metadata_bytes(&self) -> u64 {
        delegate!(self, c => c.metadata_bytes())
    }

    fn os_visible_bytes(&self) -> u64 {
        delegate!(self, c => c.os_visible_bytes())
    }

    fn stats(&self) -> &CtrlStats {
        delegate!(self, c => c.stats())
    }

    fn overfetch_ratio(&self) -> Option<f64> {
        delegate!(self, c => c.overfetch_ratio())
    }

    fn finish(&mut self, plan: &mut AccessPlan) {
        delegate!(self, c => c.finish(plan))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim_types::Addr;

    #[test]
    fn every_design_builds_and_serves() {
        let g = Geometry::paper(256);
        let mut plan = AccessPlan::new();
        for d in [
            Design::NoHbm,
            Design::Alloy,
            Design::Unison,
            Design::Banshee,
            Design::Chameleon,
            Design::Hybrid2,
            Design::Bumblebee,
            Design::Ablation("M-Only"),
        ] {
            let mut c = d.build(g, 512 << 10);
            plan.clear();
            c.access(&Access::read(Addr(4096)), &mut plan);
            assert!(!plan.is_empty() || plan.metadata_cycles > 0, "{}", d.label());
            assert_eq!(c.stats().total_accesses(), 1, "{}", d.label());
        }
    }

    #[test]
    fn fig8_order_matches_paper_legend() {
        let labels: Vec<_> = Design::fig8().iter().map(|d| d.label()).collect();
        assert_eq!(labels, ["Banshee", "AC", "UC", "Chameleon", "Hybrid2", "Bumblebee"]);
    }

    #[test]
    fn extras_only_where_meaningful() {
        let g = Geometry::paper(256);
        assert!(Design::Bumblebee.build(g, 1 << 20).mode_switch_bytes().is_some());
        assert!(Design::Alloy.build(g, 1 << 20).mode_switch_bytes().is_none());
        assert!(Design::NoHbm.build(g, 1 << 20).page_faults().is_some());
        assert!(!Design::NoHbm.uses_hbm());
        assert!(Design::Hybrid2.uses_hbm());
    }
}
