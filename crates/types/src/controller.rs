//! The hybrid-memory controller policy trait.

use crate::batch::{AccessBatch, PlanBuffer};
use crate::plan::{Access, AccessPlan};
use crate::stats::CtrlStats;

/// A hybrid die-stacked/off-chip memory management policy.
///
/// Implemented by Bumblebee, every baseline (Alloy, Unison, Banshee,
/// Chameleon, Hybrid2) and the trivial off-chip-only reference. The
/// controller owns all remapping/caching metadata; the timing simulator owns
/// the clock and the DRAM devices. See [`AccessPlan`] for the contract.
///
/// # Example
///
/// ```
/// use memsim_types::{Access, AccessPlan, Addr, CtrlStats, HybridMemoryController, TrafficDevice};
///
/// /// A controller that forwards everything to off-chip DRAM.
/// struct OffChipOnly {
///     stats: CtrlStats,
/// }
///
/// impl HybridMemoryController for OffChipOnly {
///     fn access(&mut self, req: &Access, plan: &mut AccessPlan) {
///         self.stats.offchip_serves += 1;
///         plan.demand(req.kind, TrafficDevice::OffChip, req.addr, 64);
///     }
///     fn name(&self) -> &'static str { "offchip-only" }
///     fn metadata_bytes(&self) -> u64 { 0 }
///     fn os_visible_bytes(&self) -> u64 { 0 }
///     fn stats(&self) -> &CtrlStats { &self.stats }
/// }
///
/// let mut c = OffChipOnly { stats: CtrlStats::new() };
/// let mut plan = AccessPlan::new();
/// c.access(&Access::read(Addr(0x40)), &mut plan);
/// assert_eq!(plan.critical.len(), 1);
/// ```
pub trait HybridMemoryController {
    /// Handles one LLC-miss request, filling `plan` (which arrives cleared).
    fn access(&mut self, req: &Access, plan: &mut AccessPlan);

    /// Short stable design name (used in reports).
    fn name(&self) -> &'static str;

    /// Total metadata footprint in bytes (PRTs, tags, trackers — everything
    /// the design needs beyond the data arrays).
    fn metadata_bytes(&self) -> u64;

    /// Bytes of HBM currently exposed to the OS as memory (0 for pure cache
    /// designs, full capacity for POM designs, dynamic for hybrids).
    fn os_visible_bytes(&self) -> u64;

    /// Common event counters.
    fn stats(&self) -> &CtrlStats;

    /// Handles one chunk of LLC-miss requests, sealing one plan per
    /// request into `plans` (the buffer is recycled here; callers need not
    /// clear it). The sealed entries must be byte-equivalent to calling
    /// [`access`](HybridMemoryController::access) once per request in
    /// stream order — the default implementation does exactly that, so
    /// every controller batches correctly out of the box; designs with a
    /// grouped fast path override it.
    fn access_batch(&mut self, batch: &AccessBatch, plans: &mut PlanBuffer) {
        plans.begin_chunk();
        for i in 0..batch.len() {
            let req = batch.get(i);
            self.access(&req, plans.plan_mut());
            plans.seal();
        }
    }

    /// Fraction of data brought into HBM and evicted unused, if the design
    /// tracks it (paper §IV-B). Defaults to `None`.
    fn overfetch_ratio(&self) -> Option<f64> {
        None
    }

    /// Finalizes end-of-run accounting (drain over-fetch trackers, flush
    /// dirty state into `plan` if the design wants writeback fairness).
    /// Defaults to a no-op.
    fn finish(&mut self, plan: &mut AccessPlan) {
        let _ = plan;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Addr;
    use crate::plan::TrafficDevice;

    struct Dummy {
        stats: CtrlStats,
    }

    impl HybridMemoryController for Dummy {
        fn access(&mut self, req: &Access, plan: &mut AccessPlan) {
            self.stats.offchip_serves += 1;
            plan.demand(req.kind, TrafficDevice::OffChip, req.addr, 64);
        }
        fn name(&self) -> &'static str {
            "dummy"
        }
        fn metadata_bytes(&self) -> u64 {
            0
        }
        fn os_visible_bytes(&self) -> u64 {
            0
        }
        fn stats(&self) -> &CtrlStats {
            &self.stats
        }
    }

    #[test]
    fn trait_is_object_safe_and_defaults_work() {
        let mut c: Box<dyn HybridMemoryController> = Box::new(Dummy { stats: CtrlStats::new() });
        let mut plan = AccessPlan::new();
        c.access(&Access::read(Addr(0)), &mut plan);
        assert_eq!(c.stats().offchip_serves, 1);
        assert_eq!(c.overfetch_ratio(), None);
        plan.clear();
        c.finish(&mut plan);
        assert!(plan.is_empty());
    }

    #[test]
    fn default_access_batch_matches_per_access_dispatch() {
        use crate::batch::{AccessBatch, PlanBuffer};
        use crate::plan::AccessKind;

        let mut batch = AccessBatch::new();
        for i in 0..5u64 {
            let kind = if i % 2 == 0 { AccessKind::Read } else { AccessKind::Write };
            batch.push(i * 64, kind, i as u32);
        }
        // Batched through the trait object (the method must stay
        // object-safe) …
        let mut batched: Box<dyn HybridMemoryController> =
            Box::new(Dummy { stats: CtrlStats::new() });
        let mut plans = PlanBuffer::new();
        batched.access_batch(&batch, &mut plans);
        // … against the one-at-a-time reference.
        let mut serial = Dummy { stats: CtrlStats::new() };
        let mut plan = AccessPlan::new();
        assert_eq!(plans.len(), batch.len());
        for (i, view) in plans.views().enumerate() {
            plan.clear();
            serial.access(&batch.get(i), &mut plan);
            assert_eq!(view.critical, plan.critical.as_slice());
            assert_eq!(view.background, plan.background.as_slice());
            assert_eq!(view.metadata_cycles, plan.metadata_cycles);
            assert_eq!(view.stall_cycles, plan.stall_cycles);
            assert_eq!(view.path, plan.path);
        }
        assert_eq!(batched.stats().offchip_serves, serial.stats().offchip_serves);
        // A second chunk recycles the buffer without leaking entries.
        batched.access_batch(&batch, &mut plans);
        assert_eq!(plans.len(), batch.len());
    }
}
