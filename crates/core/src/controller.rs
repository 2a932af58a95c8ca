//! The full Bumblebee HMMC.

use crate::config::BumblebeeConfig;
use crate::metadata::MetadataBreakdown;
use crate::set::{RemapSet, ServedFrom, SetCtx};
use memsim_obs::span::{self, Phase};
use memsim_obs::{EpochGauges, Telemetry, OCC_BUCKETS};
use memsim_types::{
    Access, AccessBatch, AccessPlan, Addr, CtrlStats, Geometry, HybridMemoryController, Mem,
    MetadataModel, OverfetchTracker, PageSlot, PlanBuffer,
};

/// Accesses between two global pressure-flush rounds (rule 5 batching).
const PRESSURE_COOLDOWN: u64 = 8192;

/// Bandwidth credit in bytes granted to the asynchronous data-movement
/// module per demand access (a finite mover, not an infinite DMA engine).
const MOVEMENT_CREDIT_PER_ACCESS: i64 = 512;

/// Credit accumulation cap (idle phases cannot bank unlimited bandwidth).
const MOVEMENT_CREDIT_CAP: i64 = 8 << 20;

/// The Bumblebee hybrid memory management controller (paper §III).
///
/// See the [crate documentation](crate) for an example and the
/// [`RemapSet`] documentation for the per-set mechanics.
#[derive(Debug)]
pub struct BumblebeeController {
    geometry: Geometry,
    cfg: BumblebeeConfig,
    /// One fixed-size header per remapping set, stored contiguously; each
    /// header owns its metadata (packed PRT words, BLE array, hot-table
    /// arena) in fixed boxed slices sized at construction. Sequential set
    /// walks (epoch gauges, finish) therefore stride through memory
    /// without chasing resizable-Vec indirections, and the per-access
    /// lookup touches exactly one header.
    sets: Box<[RemapSet]>,
    metadata: MetadataModel,
    metadata_breakdown: MetadataBreakdown,
    stats: CtrlStats,
    overfetch: Option<OverfetchTracker>,
    mode_switch_bytes: u64,
    metadata_spill_bytes: u64,
    flush_cursor: u64,
    next_flush_ok: u64,
    movement_credit: i64,
    accesses: u64,
    telemetry: Telemetry,
    /// Invariant-sweep schedule; see [`crate::checked`].
    #[cfg(feature = "checked")]
    checked: crate::checked::CheckedSweep,
}

impl BumblebeeController {
    /// Creates a controller for `geometry` with configuration `cfg`.
    pub fn new(geometry: Geometry, cfg: BumblebeeConfig) -> BumblebeeController {
        let breakdown = MetadataBreakdown::compute(&geometry, &cfg);
        let metadata = if cfg.metadata_in_hbm {
            MetadataModel::all_in_memory(breakdown.total(), Mem::Hbm, 64)
        } else {
            MetadataModel::new(breakdown.total(), cfg.sram_budget, Mem::Hbm, 64)
        };
        let sets: Box<[RemapSet]> = (0..geometry.num_sets())
            .map(|s| {
                RemapSet::new(geometry.dram_slots_in_set(s) as u16, geometry.hbm_ways() as u16, &cfg)
            })
            .collect();
        BumblebeeController {
            geometry,
            sets,
            metadata,
            metadata_breakdown: breakdown,
            stats: CtrlStats::new(),
            overfetch: cfg.track_overfetch.then(OverfetchTracker::new),
            mode_switch_bytes: 0,
            metadata_spill_bytes: 0,
            flush_cursor: 0,
            next_flush_ok: 0,
            movement_credit: MOVEMENT_CREDIT_CAP,
            accesses: 0,
            telemetry: Telemetry::default(),
            #[cfg(feature = "checked")]
            checked: crate::checked::CheckedSweep::from_env(),
            cfg,
        }
    }

    /// The controller's telemetry handle (install/remove a recorder).
    pub fn telemetry_mut(&mut self) -> &mut Telemetry {
        &mut self.telemetry
    }

    /// Instantaneous gauges for an epoch sample.
    // audit: hot-path
    fn gauges(&self) -> EpochGauges {
        let mut occupancy = [0u32; OCC_BUCKETS];
        let mut rh_sum = 0.0;
        let mut threshold_sum = 0u64;
        for s in &self.sets {
            let rh = s.rh();
            occupancy[EpochGauges::occ_bucket(rh)] += 1;
            rh_sum += rh;
            threshold_sum += u64::from(s.hot().threshold());
        }
        let n = self.sets.len().max(1) as f64;
        EpochGauges {
            chbm_fraction: self.chbm_fraction(),
            mhbm_fraction: self.mhbm_fraction(),
            rh: rh_sum / n,
            threshold: threshold_sum as f64 / n,
            overfetch_ratio: self
                .overfetch
                .as_ref()
                .map_or(0.0, OverfetchTracker::overfetch_ratio),
            occupancy,
        }
    }

    /// The geometry this controller manages.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// The active configuration.
    pub fn config(&self) -> &BumblebeeConfig {
        &self.cfg
    }

    /// Metadata breakdown (PRT / BLE array / hotness tracker bytes).
    pub fn metadata_breakdown(&self) -> MetadataBreakdown {
        self.metadata_breakdown
    }

    /// Bytes moved by cHBM↔mHBM mode switches so far (§IV-D accounting).
    pub fn mode_switch_bytes(&self) -> u64 {
        self.mode_switch_bytes
    }

    /// Total page faults absorbed (footprint exceeded a set's capacity).
    pub fn page_faults(&self) -> u64 {
        self.sets.iter().map(RemapSet::page_faults).sum()
    }

    /// Current fraction of HBM frames operating as cHBM.
    // audit: hot-path
    pub fn chbm_fraction(&self) -> f64 {
        let chbm: u32 = self.sets.iter().map(RemapSet::chbm_frames).sum();
        let total = self.geometry.hbm_pages();
        if total == 0 {
            0.0
        } else {
            f64::from(chbm) / total as f64
        }
    }

    /// Current fraction of HBM frames operating as mHBM.
    // audit: hot-path
    pub fn mhbm_fraction(&self) -> f64 {
        let mhbm: u32 = self.sets.iter().map(RemapSet::mhbm_frames).sum();
        let total = self.geometry.hbm_pages();
        if total == 0 {
            0.0
        } else {
            f64::from(mhbm) / total as f64
        }
    }

    /// Access to a specific remapping set (testing/inspection).
    pub fn set(&self, idx: u64) -> &RemapSet {
        &self.sets[idx as usize]
    }

    // audit: hot-path
    fn resolve(&self, addr: Addr) -> (u64, u16, u32, u32) {
        let wrapped = self.geometry.wrap_flat(addr);
        let page = self.geometry.page_of(wrapped);
        let set = self.geometry.set_of_page(page);
        let o = match self.geometry.slot_of_page(page) {
            PageSlot::OffChip(i) => i as u16,
            PageSlot::Hbm(i) => self.geometry.dram_slots_in_set(set) as u16 + i as u16,
        };
        let line = self.geometry.line_of(wrapped) as u32;
        (set, o, self.geometry.block_of(wrapped).0, line)
    }

    // audit: hot-path
    fn maybe_pressure_flush(&mut self, addr: Addr, plan: &mut AccessPlan) {
        if !self.cfg.hmf_enabled {
            return;
        }
        // Rule 5 trigger: the OS is handing out addresses beyond off-chip
        // capacity — the global footprint is high.
        let wrapped = self.geometry.wrap_flat(addr).0;
        self.pressure_flush_wrapped(wrapped, plan);
    }

    /// [`maybe_pressure_flush`](Self::maybe_pressure_flush) past the
    /// `hmf_enabled` check, on an already-wrapped address — the batched
    /// path hoists both the flag and the wrap out of its per-access loop.
    // audit: hot-path
    fn pressure_flush_wrapped(&mut self, wrapped: u64, plan: &mut AccessPlan) {
        if wrapped < self.geometry.dram_bytes() || self.accesses < self.next_flush_ok {
            return;
        }
        // Only the (rare) actual flush rounds are spanned, not the
        // per-access early-out above.
        let _swap = span::span(Phase::MigrationSwap);
        self.next_flush_ok = self.accesses + PRESSURE_COOLDOWN;
        let batch = u64::from(self.cfg.flush_batch_sets).min(self.geometry.num_sets());
        for i in 0..batch {
            let s = (self.flush_cursor + i) % self.geometry.num_sets();
            let set = &mut self.sets[s as usize];
            let mut ctx = SetCtx {
                geometry: &self.geometry,
                cfg: &self.cfg,
                set_id: s,
                plan,
                stats: &mut self.stats,
                overfetch: self.overfetch.as_mut(),
                mode_switch_bytes: &mut self.mode_switch_bytes,
                movement_credit: &mut self.movement_credit,
                telemetry: self.telemetry.active(),
            };
            set.pressure_flush(&mut ctx);
        }
        self.flush_cursor = (self.flush_cursor + batch) % self.geometry.num_sets();
    }
}

/// Checked-build invariant sweeps (`--features checked`); see
/// [`crate::checked`].
#[cfg(feature = "checked")]
impl BumblebeeController {
    /// Validates every remapping set's cross-structure invariants
    /// ([`RemapSet::validate`]), reporting the first violation.
    pub fn validate(&self) -> Result<(), String> {
        for (s, set) in self.sets.iter().enumerate() {
            set.validate().map_err(|e| format!("set {s}: {e}"))?;
        }
        Ok(())
    }

    /// Counts one access against the sweep schedule and, when a sweep is
    /// due, validates the whole controller — panicking with a precise
    /// diagnosis on the first violation. Read-only: results are
    /// byte-identical with and without the feature.
    // audit: allow(hot-transitive) -- compiled out unless --features checked; the invariant sweep is read-only and off the per-access path
    fn checked_tick(&mut self) {
        if !self.checked.due() {
            return;
        }
        if let Err(e) = self.validate() {
            panic!("checked build: invariant violation after {} accesses: {e}", self.accesses);
        }
    }
}

impl HybridMemoryController for BumblebeeController {
    // audit: hot-path
    fn access(&mut self, req: &Access, plan: &mut AccessPlan) {
        self.accesses += 1;
        self.movement_credit =
            (self.movement_credit + MOVEMENT_CREDIT_PER_ACCESS).min(MOVEMENT_CREDIT_CAP);
        let spills_before = plan.background.len();
        plan.metadata_cycles += self.metadata.lookup(plan, req.addr);
        self.metadata_spill_bytes +=
            plan.background[spills_before..].iter().map(|op| u64::from(op.bytes)).sum::<u64>();
        self.maybe_pressure_flush(req.addr, plan);
        let (set_id, o, block, line) = self.resolve(req.addr);
        let set = &mut self.sets[set_id as usize];
        let mut ctx = SetCtx {
            geometry: &self.geometry,
            cfg: &self.cfg,
            set_id,
            plan,
            stats: &mut self.stats,
            overfetch: self.overfetch.as_mut(),
            mode_switch_bytes: &mut self.mode_switch_bytes,
            movement_credit: &mut self.movement_credit,
            telemetry: self.telemetry.active(),
        };
        let _served: ServedFrom = set.access(o, block, line, req.kind, &mut ctx);
        #[cfg(feature = "checked")]
        self.checked_tick(); // audit: allow(hot-callee) -- compiled out unless --features checked; the sweep is read-only and off the per-access path
        if self.telemetry.tick() {
            let _sample = span::span(Phase::EpochSample);
            let gauges = self.gauges();
            self.telemetry.sample(&self.stats, gauges);
        }
    }

    /// The grouped batch fast path. Accesses are processed strictly in
    /// stream order (reordering would perturb the metadata spill schedule,
    /// the global pressure-flush cooldown, the shared movement-credit pool
    /// and mid-stream epoch samples — see DESIGN.md §10); the grouping win
    /// comes from detecting *consecutive same-page runs*, which the
    /// run-based workload generator makes long, and hoisting the page→set
    /// resolution, the set-header borrow and the pressure-flush gate out
    /// of the per-access loop while the set's PRT/BLE/hot-table metadata
    /// stays cache-resident.
    // audit: hot-path
    fn access_batch(&mut self, batch: &AccessBatch, plans: &mut PlanBuffer) {
        plans.begin_chunk();
        let n = batch.len();
        let flush_enabled = self.cfg.hmf_enabled;
        let mut i = 0;
        while i < n {
            // Resolve the group head's page once; the group extends while
            // subsequent accesses stay in the same page (same set, same
            // slot — only the block/line coordinates vary).
            let head = self.geometry.wrap_flat(Addr(batch.addrs[i]));
            let page = self.geometry.page_of(head);
            let set_id = self.geometry.set_of_page(page);
            let o = match self.geometry.slot_of_page(page) {
                PageSlot::OffChip(x) => x as u16,
                PageSlot::Hbm(x) => self.geometry.dram_slots_in_set(set_id) as u16 + x as u16,
            };
            let mut j = i;
            while j < n {
                let wrapped = if j == i {
                    head
                } else {
                    let w = self.geometry.wrap_flat(Addr(batch.addrs[j]));
                    if self.geometry.page_of(w) != page {
                        break;
                    }
                    w
                };
                // Exactly the per-access sequence of `access`, with the
                // resolution above hoisted.
                self.accesses += 1;
                self.movement_credit =
                    (self.movement_credit + MOVEMENT_CREDIT_PER_ACCESS).min(MOVEMENT_CREDIT_CAP);
                let plan = plans.plan_mut();
                let spills_before = plan.background.len();
                plan.metadata_cycles += self.metadata.lookup(plan, Addr(batch.addrs[j]));
                self.metadata_spill_bytes += plan.background[spills_before..]
                    .iter()
                    .map(|op| u64::from(op.bytes))
                    .sum::<u64>();
                if flush_enabled {
                    self.pressure_flush_wrapped(wrapped.0, plan);
                }
                let block = self.geometry.block_of(wrapped).0;
                let line = self.geometry.line_of(wrapped) as u32;
                let set = &mut self.sets[set_id as usize];
                let mut ctx = SetCtx {
                    geometry: &self.geometry,
                    cfg: &self.cfg,
                    set_id,
                    plan,
                    stats: &mut self.stats,
                    overfetch: self.overfetch.as_mut(),
                    mode_switch_bytes: &mut self.mode_switch_bytes,
                    movement_credit: &mut self.movement_credit,
                    telemetry: self.telemetry.active(),
                };
                let _served: ServedFrom = set.access(o, block, line, batch.kinds[j], &mut ctx);
                #[cfg(feature = "checked")]
                self.checked_tick(); // audit: allow(hot-callee) -- compiled out unless --features checked; the sweep is read-only and off the per-access path
                if self.telemetry.tick() {
                    let _sample = span::span(Phase::EpochSample);
                    let gauges = self.gauges();
                    self.telemetry.sample(&self.stats, gauges);
                }
                plans.seal();
                j += 1;
            }
            i = j;
        }
    }

    fn name(&self) -> &'static str {
        if self.cfg == BumblebeeConfig::default() {
            "bumblebee"
        } else {
            "bumblebee-variant"
        }
    }

    fn metadata_bytes(&self) -> u64 {
        self.metadata_breakdown.total()
    }

    fn os_visible_bytes(&self) -> u64 {
        let mhbm: u64 = self.sets.iter().map(|s| u64::from(s.mhbm_frames())).sum();
        self.geometry.dram_bytes() + mhbm * self.geometry.page_bytes()
    }

    fn stats(&self) -> &CtrlStats {
        &self.stats
    }

    // audit: hot-path
    fn overfetch_ratio(&self) -> Option<f64> {
        self.overfetch.as_ref().map(OverfetchTracker::overfetch_ratio)
    }

    fn finish(&mut self, plan: &mut AccessPlan) {
        let _swap = span::span(Phase::MigrationSwap);
        for s in 0..self.sets.len() {
            let set = &mut self.sets[s];
            let mut ctx = SetCtx {
                geometry: &self.geometry,
                cfg: &self.cfg,
                set_id: s as u64,
                plan,
                stats: &mut self.stats,
                overfetch: self.overfetch.as_mut(),
                mode_switch_bytes: &mut self.mode_switch_bytes,
                movement_credit: &mut self.movement_credit,
                telemetry: self.telemetry.active(),
            };
            set.finish(&mut ctx);
        }
        if let Some(t) = self.overfetch.as_mut() {
            t.evict_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim_types::AccessKind;

    fn tiny_geometry() -> Geometry {
        Geometry::builder()
            .block_bytes(2 << 10)
            .page_bytes(64 << 10)
            .hbm_bytes(2 << 20) // 32 frames → 4 sets
            .dram_bytes(20 << 20)
            .hbm_ways(8)
            .build()
            .unwrap()
    }

    #[test]
    fn accesses_route_to_correct_sets() {
        let g = tiny_geometry();
        let mut c = BumblebeeController::new(g, BumblebeeConfig::default());
        let mut plan = AccessPlan::new();
        // Touch one page per set.
        for s in 0..4u64 {
            plan.clear();
            c.access(&Access::read(Addr(s * g.page_bytes())), &mut plan);
        }
        assert_eq!(c.stats().allocations, 4);
        for s in 0..4 {
            assert!(c.set(s).prt().is_allocated(0), "set {s}");
        }
    }

    #[test]
    fn repeated_access_becomes_hbm_hit() {
        let mut c = BumblebeeController::new(tiny_geometry(), BumblebeeConfig::default());
        let mut plan = AccessPlan::new();
        c.access(&Access::read(Addr(0)), &mut plan);
        plan.clear();
        c.access(&Access::read(Addr(0)), &mut plan);
        assert_eq!(c.stats().hbm_hits, 1);
        assert!(plan.critical.iter().any(|op| op.mem == Mem::Hbm));
    }

    #[test]
    fn metadata_fits_in_sram_for_paper_scale() {
        let c = BumblebeeController::new(Geometry::paper(1), BumblebeeConfig::default());
        assert!(c.metadata_bytes() < 512 << 10);
        let b = c.metadata_breakdown();
        assert!(b.prt_bytes > 0 && b.ble_bytes > 0 && b.tracker_bytes > 0);
    }

    #[test]
    fn meta_h_spills_every_lookup() {
        let mut c = BumblebeeController::new(tiny_geometry(), BumblebeeConfig::meta_h());
        let mut plan = AccessPlan::new();
        c.access(&Access::read(Addr(0)), &mut plan);
        assert!(
            plan.background
                .iter()
                .any(|op| op.cause == memsim_types::TrafficCause::Metadata && op.mem == Mem::Hbm),
            "Meta-H must read metadata from HBM"
        );
        assert!(
            plan.metadata_cycles >= memsim_types::MetadataModel::IN_MEMORY_LOOKUP_CYCLES,
            "and pay the in-memory lookup latency"
        );
    }

    #[test]
    fn os_visible_grows_with_mhbm() {
        let g = tiny_geometry();
        let mut c = BumblebeeController::new(g, BumblebeeConfig::m_only());
        let base = c.os_visible_bytes();
        assert_eq!(base, g.dram_bytes());
        let mut plan = AccessPlan::new();
        c.access(&Access::read(Addr(0)), &mut plan);
        assert_eq!(c.os_visible_bytes(), g.dram_bytes() + g.page_bytes());
        assert!(c.mhbm_fraction() > 0.0);
        assert_eq!(c.chbm_fraction(), 0.0);
    }

    #[test]
    fn pressure_flush_triggers_on_hbm_region_addresses() {
        let g = tiny_geometry();
        let mut c = BumblebeeController::new(g, BumblebeeConfig::default());
        let mut plan = AccessPlan::new();
        // Build some cHBM state first.
        for i in 0..16u64 {
            plan.clear();
            c.access(&Access::read(Addr(i * g.page_bytes())), &mut plan);
        }
        // Now touch the HBM address region (OS footprint beyond off-chip).
        plan.clear();
        c.access(&Access::read(Addr(g.dram_bytes())), &mut plan);
        assert!(c.stats().pressure_flushes > 0);
    }

    #[test]
    fn finish_drains_overfetch() {
        let mut c = BumblebeeController::new(tiny_geometry(), BumblebeeConfig::m_only());
        let mut plan = AccessPlan::new();
        c.access(&Access::read(Addr(0)), &mut plan);
        plan.clear();
        c.finish(&mut plan);
        let r = c.overfetch_ratio().unwrap();
        assert!(r > 0.9, "one block of 32 used → ratio {r}");
    }

    #[test]
    fn write_request_is_posted() {
        let mut c = BumblebeeController::new(tiny_geometry(), BumblebeeConfig::default());
        let mut plan = AccessPlan::new();
        c.access(&Access { addr: Addr(0), kind: AccessKind::Write, insts: 0 }, &mut plan);
        assert!(plan.critical.is_empty());
        assert!(!plan.background.is_empty());
    }

    #[test]
    fn recorder_collects_epochs_and_events() {
        use memsim_obs::{MetricsConfig, RunRecorder};
        let mut c = BumblebeeController::new(tiny_geometry(), BumblebeeConfig::default());
        c.telemetry_mut().install(Box::new(RunRecorder::new(&MetricsConfig {
            epoch_interval: 4,
            event_capacity: 64,
            ..MetricsConfig::default()
        })));
        let mut plan = AccessPlan::new();
        for i in 0..10u64 {
            plan.clear();
            c.access(&Access::read(Addr(i * 64)), &mut plan);
        }
        let run = c.telemetry_mut().take().unwrap().into_run().unwrap();
        assert_eq!(run.epochs().len(), 2, "boundaries at accesses 4 and 8");
        assert_eq!(run.epochs()[0].accesses, 4);
        assert!(run.epochs()[1].cum_hit_rate > 0.0, "repeat touches hit HBM");
        assert!(!run.ring().is_empty(), "allocation/fill events were traced");
    }

    #[test]
    fn noop_recorder_leaves_stats_unchanged() {
        use memsim_obs::NoopRecorder;
        let run = |install: bool| {
            let mut c = BumblebeeController::new(tiny_geometry(), BumblebeeConfig::default());
            if install {
                c.telemetry_mut().install(Box::new(NoopRecorder));
            }
            let mut plan = AccessPlan::new();
            for i in 0..64u64 {
                plan.clear();
                c.access(&Access::read(Addr(i * 4096)), &mut plan);
            }
            c.stats().clone()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn access_batch_matches_serial_access_exactly() {
        use memsim_types::{AccessBatch, PlanBuffer};
        // A stream with long same-page runs, page switches, writes, and
        // addresses in the HBM region (to trip rule-5 pressure flushes) —
        // the batched grouping must replay the serial path byte for byte.
        let g = tiny_geometry();
        let mut addrs = Vec::new();
        for r in 0..40u64 {
            let base = (r % 7) * g.page_bytes() + (r / 7) * 64;
            for l in 0..((r % 9) + 1) {
                addrs.push(base + l * 64);
            }
            if r % 5 == 0 {
                addrs.push(g.dram_bytes() + r * 64);
            }
        }
        for cfg in [BumblebeeConfig::default(), BumblebeeConfig::m_only()] {
            let mut serial = BumblebeeController::new(g, cfg.clone());
            let mut batched = BumblebeeController::new(g, cfg);
            let mut plan = AccessPlan::new();
            let mut batch = AccessBatch::new();
            let mut plans = PlanBuffer::new();
            // Drive in chunks of 16 so chunk cuts land mid-run too.
            for chunk in addrs.chunks(16) {
                batch.clear();
                for (k, &a) in chunk.iter().enumerate() {
                    let kind = if k % 3 == 2 { AccessKind::Write } else { AccessKind::Read };
                    batch.push(a, kind, k as u32);
                }
                batched.access_batch(&batch, &mut plans);
                assert_eq!(plans.len(), batch.len());
                for (k, &addr) in chunk.iter().enumerate() {
                    plan.clear();
                    serial.access(&batch.get(k), &mut plan);
                    let v = plans.entry(k);
                    assert_eq!(v.critical, plan.critical.as_slice(), "addr {addr}");
                    assert_eq!(v.background, plan.background.as_slice(), "addr {addr}");
                    assert_eq!(v.metadata_cycles, plan.metadata_cycles);
                    assert_eq!(v.stall_cycles, plan.stall_cycles);
                    assert_eq!(v.path, plan.path);
                }
            }
            assert_eq!(batched.stats(), serial.stats());
            assert_eq!(batched.os_visible_bytes(), serial.os_visible_bytes());
            assert_eq!(batched.overfetch_ratio(), serial.overfetch_ratio());
            assert_eq!(batched.metadata_spill_bytes, serial.metadata_spill_bytes);
        }
    }

    #[test]
    fn name_distinguishes_variants() {
        let g = tiny_geometry();
        assert_eq!(BumblebeeController::new(g, BumblebeeConfig::default()).name(), "bumblebee");
        assert_eq!(
            BumblebeeController::new(g, BumblebeeConfig::c_only()).name(),
            "bumblebee-variant"
        );
    }
}
