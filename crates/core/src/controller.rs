//! The full Bumblebee HMMC.

use crate::config::{BumblebeeConfig, FLUSH_BATCH_SETS};
use crate::metadata::MetadataBreakdown;
use crate::set::{RemapSet, ServedFrom, SetCtx};
use memsim_obs::{EpochGauges, Ring, TimedEvent, OCC_BUCKETS};
use memsim_types::{
    Access, AccessBatch, AccessKind, AccessPlan, Addr, CtrlStats, Geometry,
    HybridMemoryController, MetadataModel, OverfetchTracker, PageIndex, PageSlot, PlanBuffer,
};

/// Accesses between two global pressure-flush rounds (rule 5 batching).
const PRESSURE_COOLDOWN: u64 = 8192;

/// Bandwidth credit in bytes granted to the asynchronous data-movement
/// module per demand access (a finite mover, not an infinite DMA engine).
const MOVEMENT_CREDIT_PER_ACCESS: i64 = 512;

/// Credit accumulation cap (idle phases cannot bank unlimited bandwidth).
const MOVEMENT_CREDIT_CAP: i64 = 8 << 20;

/// Accesses between two debug-build invariant sweeps.
const SWEEP_INTERVAL: u64 = 4096;

/// The Bumblebee hybrid memory management controller (paper §III).
///
/// See the [crate documentation](crate) for an example and the
/// [`RemapSet`] documentation for the per-set mechanics.
#[derive(Debug)]
pub struct BumblebeeController {
    geometry: Geometry,
    cfg: BumblebeeConfig,
    /// One fixed-size header per remapping set, stored contiguously; each
    /// header owns its metadata (packed PRT words, BLE array, cache map and
    /// the two hot-table queues), all sized at construction. Sequential set
    /// walks (epoch gauges) therefore stride through the headers, and the
    /// per-access lookup touches exactly one header.
    sets: Box<[RemapSet]>,
    metadata: MetadataModel,
    metadata_breakdown: MetadataBreakdown,
    stats: CtrlStats,
    overfetch: OverfetchTracker,
    mode_switch_bytes: u64,
    flush_cursor: u64,
    next_flush_ok: u64,
    movement_credit: i64,
    accesses: u64,
    /// The trace-event ring, when one is installed (boxed: one pointer
    /// while disabled).
    events: Option<Box<Ring<TimedEvent>>>,
}

impl BumblebeeController {
    /// Creates a controller for `geometry` with configuration `cfg`.
    pub fn new(geometry: Geometry, cfg: BumblebeeConfig) -> BumblebeeController {
        let breakdown = MetadataBreakdown::compute(&geometry, &cfg);
        let metadata = if cfg.metadata_in_hbm {
            MetadataModel::all_in_memory(breakdown.total())
        } else {
            MetadataModel::new(breakdown.total(), cfg.sram_budget)
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
            // Keyed by HBM device line over every frame of every set.
            overfetch: OverfetchTracker::new(geometry.hbm_pages() * geometry.page_bytes() / 64),
            mode_switch_bytes: 0,
            flush_cursor: 0,
            next_flush_ok: 0,
            movement_credit: MOVEMENT_CREDIT_CAP,
            accesses: 0,
            events: None,
            cfg,
        }
    }

    /// Installs a trace-event ring. Each later event is stamped with the
    /// number of accesses before the one that raised it.
    pub fn install_recorder(&mut self, ring: Ring<TimedEvent>) {
        self.events = Some(Box::new(ring));
    }

    /// Removes and returns the trace-event ring, if one was installed.
    pub fn take_recorder(&mut self) -> Option<Ring<TimedEvent>> {
        self.events.take().map(|r| *r)
    }

    /// Instantaneous gauges for an epoch sample: one walk over every set.
    pub fn gauges(&self) -> EpochGauges {
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
            overfetch_ratio: self.overfetch.overfetch_ratio(),
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

    /// Validates every remapping set's cross-structure invariants
    /// ([`RemapSet::validate`]), reporting the first violation. Debug
    /// builds run it every 4096 accesses and panic on an `Err`; release
    /// builds compile that call out.
    pub fn validate(&self) -> Result<(), String> {
        for (s, set) in self.sets.iter().enumerate() {
            set.validate().map_err(|e| format!("set {s}: {e}"))?;
        }
        Ok(())
    }

    /// The remapping set and original page slot of `page`.
    fn locate(&self, page: PageIndex) -> (u64, u16) {
        let set = self.geometry.set_of_page(page);
        let o = match self.geometry.slot_of_page(page) {
            PageSlot::OffChip(i) => i as u16,
            PageSlot::Hbm(i) => self.geometry.dram_slots_in_set(set) as u16 + i as u16,
        };
        (set, o)
    }

    /// One access through the controller, the sequence both
    /// [`access`](HybridMemoryController::access) and the grouped
    /// [`access_batch`](HybridMemoryController::access_batch) run: movement
    /// credit, metadata lookup and spill, the rule-5 pressure flush, the
    /// set access, the debug-build invariant sweep and the event clock.
    /// `wrapped` is `addr` wrapped into the flat address space and
    /// `(set_id, o)` its set and page slot, which the batched path resolves
    /// once per same-page run.
    #[inline]
    fn step(
        &mut self,
        addr: Addr,
        kind: AccessKind,
        wrapped: Addr,
        (set_id, o): (u64, u16),
        plan: &mut AccessPlan,
    ) {
        self.accesses += 1;
        self.movement_credit =
            (self.movement_credit + MOVEMENT_CREDIT_PER_ACCESS).min(MOVEMENT_CREDIT_CAP);
        plan.metadata_cycles += self.metadata.lookup(plan, addr);
        self.pressure_flush(wrapped, plan);
        let block = self.geometry.block_of(wrapped).0;
        let line = self.geometry.line_of(wrapped) as u32;
        let set = &mut self.sets[set_id as usize];
        let mut ctx = SetCtx {
            geometry: &self.geometry,
            cfg: &self.cfg,
            set_id,
            plan,
            stats: &mut self.stats,
            overfetch: &mut self.overfetch,
            mode_switch_bytes: &mut self.mode_switch_bytes,
            movement_credit: &mut self.movement_credit,
            events: self.events.as_deref_mut(),
            seq: self.accesses - 1,
        };
        let _served: ServedFrom = set.access(o, block, line, kind, &mut ctx);
        if cfg!(debug_assertions) && self.accesses.is_multiple_of(SWEEP_INTERVAL) {
            // Read-only, so a debug run simulates exactly what a release run does.
            if let Err(e) = self.validate() {
                panic!("debug build: invariant violation after {} accesses: {e}", self.accesses);
            }
        }
    }

    /// Rule 5: an address beyond off-chip capacity means the OS is handing
    /// out HBM-region addresses — the global footprint is high — so flush
    /// the next [`FLUSH_BATCH_SETS`] sets' cHBM frames, at most once per
    /// cooldown.
    fn pressure_flush(&mut self, wrapped: Addr, plan: &mut AccessPlan) {
        if !self.cfg.hmf_enabled
            || wrapped.0 < self.geometry.dram_bytes()
            || self.accesses < self.next_flush_ok
        {
            return;
        }
        self.next_flush_ok = self.accesses + PRESSURE_COOLDOWN;
        let batch = FLUSH_BATCH_SETS.min(self.geometry.num_sets());
        for i in 0..batch {
            let s = (self.flush_cursor + i) % self.geometry.num_sets();
            let set = &mut self.sets[s as usize];
            let mut ctx = SetCtx {
                geometry: &self.geometry,
                cfg: &self.cfg,
                set_id: s,
                plan,
                stats: &mut self.stats,
                overfetch: &mut self.overfetch,
                mode_switch_bytes: &mut self.mode_switch_bytes,
                movement_credit: &mut self.movement_credit,
                events: self.events.as_deref_mut(),
                seq: self.accesses - 1,
            };
            set.pressure_flush(&mut ctx);
        }
        self.flush_cursor = (self.flush_cursor + batch) % self.geometry.num_sets();
    }
}

impl HybridMemoryController for BumblebeeController {
    fn access(&mut self, req: &Access, plan: &mut AccessPlan) {
        let wrapped = self.geometry.wrap_flat(req.addr);
        let slot = self.locate(self.geometry.page_of(wrapped));
        self.step(req.addr, req.kind, wrapped, slot, plan);
    }

    /// The grouped batch fast path. Accesses are processed strictly in
    /// stream order (reordering would perturb the metadata spill schedule,
    /// the global pressure-flush cooldown, the shared movement-credit pool
    /// and the trace events' access stamps — see DESIGN.md §10); the
    /// grouping win comes from *consecutive same-page runs*, which the
    /// run-based workload generator makes long: the page→set/slot
    /// resolution is done once per run while the set's PRT/BLE/hot-table
    /// metadata stays cache-resident.
    fn access_batch(&mut self, batch: &AccessBatch, plans: &mut PlanBuffer) {
        plans.begin_chunk();
        let mut run: Option<(PageIndex, (u64, u16))> = None;
        for (&a, &kind) in batch.addrs.iter().zip(&batch.kinds) {
            let addr = Addr(a);
            let wrapped = self.geometry.wrap_flat(addr);
            let page = self.geometry.page_of(wrapped);
            let slot = match run {
                Some((p, slot)) if p == page => slot,
                _ => {
                    let slot = self.locate(page);
                    run = Some((page, slot));
                    slot
                }
            };
            self.step(addr, kind, wrapped, slot, plans.plan_mut());
            plans.seal();
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
    fn fresh_controller_holds_no_overfetch_table() {
        let g = tiny_geometry();
        let mut c = BumblebeeController::new(g, BumblebeeConfig::default());
        assert_eq!(c.overfetch.table_bytes(), 0, "construct-and-drop allocates no ledger");
        c.access(&Access::read(Addr(0)), &mut AccessPlan::new());
        assert_eq!(c.overfetch.table_bytes() as u64, g.hbm_bytes() / 64 / 64 * 16);
    }

    #[test]
    fn repeated_access_becomes_hbm_hit() {
        let mut c = BumblebeeController::new(tiny_geometry(), BumblebeeConfig::default());
        let mut plan = AccessPlan::new();
        c.access(&Access::read(Addr(0)), &mut plan);
        plan.clear();
        c.access(&Access::read(Addr(0)), &mut plan);
        assert_eq!(c.stats().hbm_hits, 1);
        assert!(plan.critical.iter().any(|op| op.mem() == Mem::Hbm));
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
                .any(|op| op.cause == memsim_types::TrafficCause::Metadata && op.mem() == Mem::Hbm),
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
    fn recorder_collects_events() {
        let mut c = BumblebeeController::new(tiny_geometry(), BumblebeeConfig::default());
        c.install_recorder(Ring::new(64));
        let mut plan = AccessPlan::new();
        for i in 0..10u64 {
            plan.clear();
            c.access(&Access::read(Addr(i * 64)), &mut plan);
        }
        let events = c.take_recorder().unwrap().into_vec();
        assert_eq!(events[0].event.kind(), "prt_miss", "the first touch allocates");
        assert_eq!(events[0].seq, 0, "stamped with the accesses before it");
        assert!(events.iter().any(|e| e.seq == 9), "the tenth access is traced too");
        assert!(c.take_recorder().is_none(), "taking the ring uninstalls it");
        // A ring installed mid-run stamps with the controller's own count.
        c.install_recorder(Ring::new(64));
        plan.clear();
        c.access(&Access::read(Addr(1 << 20)), &mut plan);
        let late = c.take_recorder().unwrap().into_vec();
        assert_eq!(late[0].event.kind(), "prt_miss", "a new page allocates");
        assert!(late.iter().all(|e| e.seq == 10), "{late:?}");
    }

    #[test]
    fn recorder_leaves_stats_unchanged() {
        let run = |install: bool| {
            let mut c = BumblebeeController::new(tiny_geometry(), BumblebeeConfig::default());
            if install {
                c.install_recorder(Ring::new(4096));
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
                for ((k, &addr), v) in chunk.iter().enumerate().zip(plans.views()) {
                    plan.clear();
                    serial.access(&batch.get(k), &mut plan);
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
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "invariant violation after 4096 accesses: set 0: mode counters")]
    fn debug_sweep_catches_a_corrupted_set_at_access_4096() {
        let g = tiny_geometry();
        let mut c = BumblebeeController::new(g, BumblebeeConfig::default());
        let mut plan = AccessPlan::new();
        c.access(&Access::read(Addr(0)), &mut plan);
        c.sets[0].skew_mode_counter();
        // Every later access goes to set 1, so nothing touches set 0
        // before the sweep at access 4096.
        for _ in 1..SWEEP_INTERVAL {
            plan.clear();
            c.access(&Access::read(Addr(g.page_bytes())), &mut plan);
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
