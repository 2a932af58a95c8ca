//! One remapping set: the access flow of Fig. 5 and the data-movement
//! rules of §III-E.
//!
//! A [`RemapSet`] owns the set's PRT, its BLE array (one [`Ble`] per HBM
//! frame), its hot table and the zombie/pressure bookkeeping. The
//! controller resolves addresses to `(set, original slot, block)` and calls
//! [`RemapSet::access`]; all resulting device traffic is pushed into the
//! [`AccessPlan`] through a [`SetCtx`].

use crate::ble::{Ble, FrameMode};
use crate::bitmap::BlockBitmap;
use crate::config::{AllocPolicy, BumblebeeConfig, CHBM_DISABLE_WINDOW, HIGH_RH};
use crate::hot_table::{HotEntry, HotTable};
use crate::prt::Prt;
use memsim_obs::{Ring, TimedEvent, TraceEvent};
use memsim_types::{
    AccessKind, AccessPath, AccessPlan, Addr, BlockIndex, CtrlStats, DeviceOp, Geometry, OpKind,
    OverfetchTracker, PageSlot, TrafficCause, TrafficDevice, FAULT_STALL_CYCLES,
};

/// Where a demand request was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedFrom {
    /// Die-stacked HBM (cHBM or mHBM).
    Hbm,
    /// Off-chip DRAM.
    OffChip,
}

/// Per-call context handed to [`RemapSet::access`] by the controller.
#[derive(Debug)]
pub struct SetCtx<'a> {
    /// Memory geometry (page/block math, device addresses).
    pub geometry: &'a Geometry,
    /// Controller configuration.
    pub cfg: &'a BumblebeeConfig,
    /// This set's index.
    pub set_id: u64,
    /// Plan receiving all device operations.
    pub plan: &'a mut AccessPlan,
    /// Shared statistics.
    pub stats: &'a mut CtrlStats,
    /// Over-fetch tracking (§IV-B).
    pub overfetch: &'a mut OverfetchTracker,
    /// Accumulator for §IV-D mode-switch traffic accounting.
    pub mode_switch_bytes: &'a mut u64,
    /// Remaining bandwidth credit of the asynchronous data-movement module
    /// in bytes (replenished per access by the controller). Page-scale
    /// movement (migrations, rule-4 swaps) is deferred when exhausted —
    /// the mover is a finite resource, not an infinite DMA engine.
    pub movement_credit: &'a mut i64,
    /// The trace-event ring when one is installed; `None` keeps the fast
    /// path free of even event-payload construction.
    pub events: Option<&'a mut Ring<TimedEvent>>,
    /// The stamp of this call's events: the accesses before the current one.
    pub seq: u64,
}

impl SetCtx<'_> {
    fn hbm_addr(&self, frame: u32, block: u32) -> Addr {
        self.geometry.hbm_device_addr(self.set_id, frame, BlockIndex(block))
    }

    fn dram_addr(&self, dram_slot: u16, block: u32) -> Addr {
        let page = self.geometry.page_of_slot(self.set_id, PageSlot::OffChip(u32::from(dram_slot)));
        self.geometry.dram_device_addr(page, BlockIndex(block))
    }

    /// Emits a trace event when a ring is installed; the closure keeps
    /// payload construction entirely off the disabled path.
    fn emit(&mut self, ev: impl FnOnce() -> TraceEvent) {
        if let Some(r) = self.events.as_deref_mut() {
            r.push(TimedEvent { seq: self.seq, event: ev() });
        }
    }

    /// The HBM device line of 64 B line `line` of `block` in `frame`: the
    /// over-fetch key. Over-fetching is measured at 64 B granularity, like
    /// the paper's "percentage of data brought in HBM but unused".
    fn of_line(&self, frame: u16, block: u32, line: u32) -> u64 {
        self.hbm_addr(u32::from(frame), block).0 / 64 + u64::from(line)
    }

    /// Records that every 64 B line of `block` of `frame` was brought into
    /// HBM.
    fn of_fetched_block(&mut self, frame: u16, block: u32) {
        self.overfetch.fetched_lines(self.of_line(frame, block, 0), self.geometry.block_bytes() / 64);
    }

    /// Records that the whole page of `frame` was brought into HBM.
    fn of_fetched_page(&mut self, frame: u16) {
        self.overfetch.fetched_lines(self.of_line(frame, 0, 0), self.geometry.page_bytes() / 64);
    }

    fn of_used(&mut self, frame: u16, block: u32, line: u32) {
        self.overfetch.used(self.of_line(frame, block, line));
    }

    /// Drains every 64 B line of `frame` from the tracker.
    fn of_evicted_page(&mut self, frame: u16) {
        self.overfetch.evicted_lines(self.of_line(frame, 0, 0), self.geometry.page_bytes() / 64);
    }
}

/// One remapping set; see the [module documentation](self).
///
/// All per-set metadata is sized at construction — fixed boxed slices for
/// the PRT words, BLE array and cache map, and hot-table queues reserved
/// past their capacities — so the steady-state access path performs no
/// heap allocation. Frame-mode counts and a free-frame bitmap are
/// maintained incrementally at every BLE mode transition, making
/// `rh`/`chbm_frames`/`mhbm_frames` O(1) and free-frame searches a word
/// scan.
#[derive(Debug, Clone)]
pub struct RemapSet {
    prt: Prt,
    bles: Box<[Ble]>,
    hot: HotTable,
    /// For DRAM-resident original pages: the cHBM frame caching them.
    cached_in: Box<[Option<u8>]>,
    /// Bit `f` set ⇔ `bles[f].mode == Free`.
    free_frames: BlockBitmap,
    /// Number of frames currently in cHBM mode.
    n_chbm: u16,
    /// Number of frames currently in mHBM mode.
    n_mhbm: u16,
    /// Reusable buffer for entries skipped by [`make_room`](Self::make_room)
    /// (capacity is retained across calls — no per-access allocation).
    skip_scratch: Vec<HotEntry>,
    last_allocs: [Option<u16>; 2],
    accesses: u64,
    zombie_head: Option<(u16, u32)>,
    zombie_stale: u32,
    /// cHBM creation disabled until this set-access count (pressure rule 5).
    chbm_disabled_until: u64,
    /// Set-access count of the last rule-4 swap (rate limiting).
    last_swap_at: u64,
    page_faults: u64,
}

impl RemapSet {
    /// Creates a set with `m` off-chip slots and `n` HBM frames.
    pub fn new(m: u16, n: u16, cfg: &BumblebeeConfig) -> RemapSet {
        assert!(u32::from(n) <= crate::bitmap::MAX_BLOCKS, "free-frame bitmap capacity");
        RemapSet {
            prt: Prt::new(m, n),
            bles: vec![Ble::default(); usize::from(n)].into_boxed_slice(),
            hot: HotTable::new(usize::from(n), cfg.hot_queue_len),
            cached_in: vec![None; usize::from(m) + usize::from(n)].into_boxed_slice(),
            free_frames: BlockBitmap::full(u32::from(n)),
            n_chbm: 0,
            n_mhbm: 0,
            skip_scratch: Vec::with_capacity(usize::from(n)),
            last_allocs: [None, None],
            accesses: 0,
            zombie_head: None,
            zombie_stale: 0,
            chbm_disabled_until: 0,
            last_swap_at: 0,
            page_faults: 0,
        }
    }

    /// The set's PRT (inspection/testing).
    pub fn prt(&self) -> &Prt {
        &self.prt
    }

    /// The set's BLE array (inspection/testing).
    pub fn bles(&self) -> &[Ble] {
        &self.bles
    }

    /// The set's hot table (inspection/testing).
    pub fn hot(&self) -> &HotTable {
        &self.hot
    }

    /// Page faults this set has absorbed (footprint exceeded capacity).
    pub fn page_faults(&self) -> u64 {
        self.page_faults
    }

    /// The cHBM frame caching original page `o`, if any (inspection).
    pub fn cached_frame(&self, o: u16) -> Option<u8> {
        self.cached_in[usize::from(o)]
    }

    fn n(&self) -> u16 {
        self.bles.len() as u16
    }

    fn m(&self) -> u16 {
        self.prt.m()
    }

    /// Maintains the frame-mode counts and free-frame bitmap across a BLE
    /// mode transition. Called by the `ble_*` wrappers below — BLE mode
    /// must never be changed without going through them.
    fn note_mode_change(&mut self, f: usize, old: FrameMode, new: FrameMode) {
        if old == new {
            return;
        }
        match old {
            FrameMode::Free => self.free_frames.clear(f as u32),
            FrameMode::Chbm => self.n_chbm -= 1,
            FrameMode::Mhbm => self.n_mhbm -= 1,
        }
        match new {
            FrameMode::Free => self.free_frames.set(f as u32),
            FrameMode::Chbm => self.n_chbm += 1,
            FrameMode::Mhbm => self.n_mhbm += 1,
        }
    }

    fn ble_begin_chbm(&mut self, f: usize, o: u16) {
        let old = self.bles[f].mode;
        self.bles[f].begin_chbm(o);
        self.note_mode_change(f, old, FrameMode::Chbm);
    }

    fn ble_begin_mhbm(&mut self, f: usize, o: u16, accessed: Option<u32>) {
        let old = self.bles[f].mode;
        self.bles[f].begin_mhbm(o, accessed);
        self.note_mode_change(f, old, FrameMode::Mhbm);
    }

    fn ble_switch_to_mhbm(&mut self, f: usize) {
        let old = self.bles[f].mode;
        self.bles[f].switch_to_mhbm();
        self.note_mode_change(f, old, FrameMode::Mhbm);
    }

    fn ble_switch_to_chbm(&mut self, f: usize, blocks_per_page: u32) {
        let old = self.bles[f].mode;
        self.bles[f].switch_to_chbm(blocks_per_page);
        self.note_mode_change(f, old, FrameMode::Chbm);
    }

    fn ble_reset(&mut self, f: usize) {
        let old = self.bles[f].mode;
        self.bles[f].reset();
        self.note_mode_change(f, old, FrameMode::Free);
    }

    /// HBM occupancy ratio Rh: frames in use (cHBM or mHBM) over `n`.
    /// O(1): frame-mode counts are maintained at every transition.
    pub fn rh(&self) -> f64 {
        f64::from(self.n_chbm + self.n_mhbm) / f64::from(self.n())
    }

    /// Rh as seen by a movement decision. Adaptive designs use the whole
    /// set; fixed-ratio designs use the occupancy of the partition the
    /// decision would consume, so a small cHBM slice saturates (and starts
    /// threshold-gating) independently of the mHBM side.
    fn rh_for(&self, for_chbm: bool, quota: Option<u32>) -> f64 {
        let Some(q) = quota else { return self.rh() };
        let (used, cap) = if for_chbm {
            (self.chbm_frames(), q)
        } else {
            (self.mhbm_frames(), u32::from(self.n()) - q)
        };
        if cap == 0 {
            1.0
        } else {
            f64::from(used) / f64::from(cap)
        }
    }

    /// The spatial-locality degree `SL = Na − Nn − Nc` (paper Eq. 1).
    pub fn spatial_locality(&self, blocks_per_page: u32, fraction: f64) -> i32 {
        let mut na = 0i32;
        let mut nn = 0i32;
        let mut nc = 0i32;
        for b in &self.bles {
            match b.mode {
                FrameMode::Mhbm => {
                    if b.mostly_valid(blocks_per_page, fraction) {
                        na += 1;
                    } else {
                        nn += 1;
                    }
                }
                FrameMode::Chbm => nc += 1,
                FrameMode::Free => {}
            }
        }
        na - nn - nc
    }

    /// Number of frames currently in cHBM mode. O(1).
    pub fn chbm_frames(&self) -> u32 {
        u32::from(self.n_chbm)
    }

    /// Number of frames currently in mHBM mode. O(1).
    pub fn mhbm_frames(&self) -> u32 {
        u32::from(self.n_mhbm)
    }

    /// Handles one demand access to original slot `o`, block `block`,
    /// 64 B line `line` within the block.
    pub fn access(
        &mut self,
        o: u16,
        block: u32,
        line: u32,
        kind: AccessKind,
        ctx: &mut SetCtx<'_>,
    ) -> ServedFrom {
        self.accesses += 1;
        // Path classification baselines: off-chip serves are classified by
        // which side effects this access produced (migration/swap vs
        // T-gate rejection vs plain miss). HBM hits set their path at the
        // serving site instead and never touch these counters.
        let migr0 = ctx.stats.page_migrations;
        let rej0 = ctx.stats.threshold_rejections;
        if !self.prt.is_allocated(o) {
            self.allocate(o, ctx);
        }
        let p = self.prt.location(o).expect("just allocated"); // allocate() on the line above guarantees a location; debug builds sweep this invariant
        let served = if self.prt.is_hbm_slot(p) {
            self.access_mhbm(o, p - self.m(), block, line, kind, ctx)
        } else {
            self.access_offchip_home(o, p, block, line, kind, ctx)
        };
        if served == ServedFrom::OffChip {
            ctx.plan.path = if ctx.stats.page_migrations > migr0 {
                AccessPath::Migration
            } else if ctx.stats.threshold_rejections > rej0 {
                AccessPath::SlBypass
            } else {
                AccessPath::MissFill
            };
        }
        if ctx.cfg.hmf_enabled {
            self.zombie_tick(ctx);
        }
        served
    }

    // ---- Fig. 5 paths -------------------------------------------------

    fn access_mhbm(
        &mut self,
        o: u16,
        frame: u16,
        block: u32,
        line: u32,
        kind: AccessKind,
        ctx: &mut SetCtx<'_>,
    ) -> ServedFrom {
        let f = usize::from(frame);
        debug_assert_eq!(self.bles[f].mode, FrameMode::Mhbm);
        debug_assert_eq!(self.bles[f].ple, o);
        self.bles[f].valid.set(block); // accessed-block tracking
        let addr = ctx.hbm_addr(u32::from(frame), block);
        ctx.plan.demand(kind, TrafficDevice::MHbm, addr, 64);
        self.hot.touch_hbm(o);
        ctx.stats.hbm_hits += 1;
        ctx.plan.path = AccessPath::MhbmHit;
        let set = ctx.set_id;
        ctx.emit(|| TraceEvent::BleHit { set, page: o, block });
        ctx.of_used(frame, block, line);
        ServedFrom::Hbm
    }

    fn access_offchip_home(
        &mut self,
        o: u16,
        home: u16,
        block: u32,
        line: u32,
        kind: AccessKind,
        ctx: &mut SetCtx<'_>,
    ) -> ServedFrom {
        if let Some(fi) = self.cached_in[usize::from(o)] {
            let f = usize::from(fi);
            debug_assert_eq!(self.bles[f].mode, FrameMode::Chbm);
            debug_assert_eq!(self.bles[f].ple, o);
            if self.bles[f].valid.get(block) {
                // ⑦ block cached: serve from cHBM.
                let addr = ctx.hbm_addr(u32::from(fi), block);
                ctx.plan.demand(kind, TrafficDevice::CHbm, addr, 64);
                if kind == AccessKind::Write {
                    self.bles[f].dirty.set(block);
                }
                self.hot.touch_hbm(o);
                ctx.stats.hbm_hits += 1;
                ctx.plan.path = AccessPath::ChbmHit;
                let set = ctx.set_id;
                ctx.emit(|| TraceEvent::BleHit { set, page: o, block });
                ctx.of_used(u16::from(fi), block, line);
                return ServedFrom::Hbm;
            }
            // ⑧ block not cached: serve off-chip, then cache the block.
            // The posted demand write already updated DRAM, so the fetched
            // copy is clean either way. Under high occupancy the paper
            // T-gates block fills too: "only blocks in a page whose hotness
            // value is larger than T are permitted to be cached in cHBM".
            self.serve_offchip(home, block, kind, ctx);
            let hotness = self.hot.touch_hbm(o);
            let quota = ctx.cfg.chbm_quota(u32::from(self.n()));
            let high_rh = self.rh_for(true, quota) >= HIGH_RH
                || self.hot.hbm_len() >= usize::from(self.n());
            if high_rh && hotness <= self.threshold_for(true, quota) {
                ctx.stats.threshold_rejections += 1;
                let set = ctx.set_id;
                ctx.emit(|| TraceEvent::ThresholdReject { set, page: o });
                return ServedFrom::OffChip;
            }
            self.fill_block(o, fi, home, block, ctx);
            ctx.of_used(u16::from(fi), block, line);
            self.maybe_switch_to_mhbm(o, fi, home, ctx);
            return ServedFrom::OffChip;
        }
        // ⑤ page not cached: serve off-chip, then run the movement decision.
        self.serve_offchip(home, block, kind, ctx);
        let hotness = self.hot.touch_dram(o);
        self.movement_decision(o, home, block, line, hotness, ctx);
        ServedFrom::OffChip
    }

    fn serve_offchip(&mut self, home: u16, block: u32, kind: AccessKind, ctx: &mut SetCtx<'_>) {
        let addr = ctx.dram_addr(home, block);
        ctx.plan.demand(kind, TrafficDevice::OffChip, addr, 64);
        ctx.stats.offchip_serves += 1;
    }

    // ---- §III-E data movement triggered by access ----------------------

    #[allow(clippy::too_many_arguments)]
    fn movement_decision(
        &mut self,
        o: u16,
        home: u16,
        block: u32,
        line: u32,
        hotness: u32,
        ctx: &mut SetCtx<'_>,
    ) {
        let bpp = ctx.geometry.blocks_per_page();
        let quota = ctx.cfg.chbm_quota(u32::from(self.n()));
        // Swap mode: all memory in the set is OS-occupied (rule 4).
        if self.prt.all_occupied() {
            if ctx.cfg.hmf_enabled {
                self.try_swap(o, block, line, hotness, ctx);
            }
            return;
        }
        let sl = self.spatial_locality(bpp, ctx.cfg.mode_switch_fraction);
        // Pressure rule 5: while cHBM creation is disabled, all HBM serves
        // as mHBM — movement goes through migration instead of caching.
        let chbm_disabled = self.accesses < self.chbm_disabled_until;
        let prefer_mhbm = match quota {
            Some(0) => true,                                 // M-Only
            Some(q) if q >= u32::from(self.n()) => false,    // C-Only
            _ => sl > 0 || chbm_disabled,
        };
        // High occupancy: the partition is full *or* the hot table's HBM
        // queue is — bringing anything new in would displace a tracked
        // resident, which is exactly when the paper's threshold T applies.
        // When the async mover cannot afford a page migration, degrade to
        // block caching (16× cheaper per entry) instead of doing nothing —
        // unless a fixed partition or the pressure rule forbids cHBM.
        let can_cache = !chbm_disabled && quota.is_none_or(|q| q > 0);
        let prefer_mhbm = if prefer_mhbm
            && *ctx.movement_credit < 2 * ctx.geometry.page_bytes() as i64
            && can_cache
        {
            false
        } else {
            prefer_mhbm
        };
        let high_rh = self.rh_for(!prefer_mhbm, quota) >= HIGH_RH
            || self.hot.hbm_len() >= usize::from(self.n());
        let threshold = self.threshold_for(!prefer_mhbm, quota);
        if prefer_mhbm {
            if high_rh && hotness <= threshold {
                ctx.stats.threshold_rejections += 1;
                let set = ctx.set_id;
                ctx.emit(|| TraceEvent::ThresholdReject { set, page: o });
                return;
            }
            self.try_migrate_to_mhbm(o, block, line, quota, ctx);
        } else {
            if chbm_disabled {
                return; // pressure rule 5: no new cHBM for a while
            }
            if high_rh && hotness <= threshold {
                ctx.stats.threshold_rejections += 1;
                let set = ctx.set_id;
                ctx.emit(|| TraceEvent::ThresholdReject { set, page: o });
                return;
            }
            self.try_cache_block(o, home, block, line, quota, ctx);
        }
    }

    /// The hotness threshold `T` as seen by a movement decision: the
    /// smallest counter among resident HBM pages (paper §IV-A), restricted
    /// to the partition the decision would displace under a fixed ratio.
    fn threshold_for(&self, for_chbm: bool, quota: Option<u32>) -> u32 {
        if quota.is_none() {
            return self.hot.threshold();
        }
        self.hot
            .iter_hbm()
            .filter(|e| {
                self.frame_of_entry(e.ple)
                    .is_some_and(|f| self.frame_eligible(f, for_chbm, quota))
            })
            .map(|e| e.counter)
            .min()
            .unwrap_or(0)
    }

    /// Frames eligible for cHBM under a fixed ratio are `[0, q)`; for mHBM
    /// `[q, n)`. Adaptive mode uses any frame.
    fn frame_eligible(&self, f: u16, for_chbm: bool, quota: Option<u32>) -> bool {
        match quota {
            None => true,
            Some(q) => {
                if for_chbm {
                    u32::from(f) < q
                } else {
                    u32::from(f) >= q
                }
            }
        }
    }

    /// Lowest Free frame whose PRT slot is also free (and, under a fixed
    /// ratio, on the right side of the partition). Walks only the set bits
    /// of the free-frame bitmap — in steady state (no free frames) this is
    /// four word tests.
    fn find_free_frame(&self, for_chbm: bool, quota: Option<u32>) -> Option<u16> {
        self.free_frames
            .iter_set(u32::from(self.n()))
            .map(|f| f as u16)
            .find(|&f| {
                !self.prt.occupied(self.m() + f) && self.frame_eligible(f, for_chbm, quota)
            })
    }

    fn try_migrate_to_mhbm(
        &mut self,
        o: u16,
        block: u32,
        line: u32,
        quota: Option<u32>,
        ctx: &mut SetCtx<'_>,
    ) {
        // The async mover must have bandwidth for a 2-page move (read +
        // write, possibly plus the displaced page's writeback).
        let move_cost = 2 * ctx.geometry.page_bytes() as i64;
        if *ctx.movement_credit < move_cost {
            return;
        }
        let frame = match self.find_free_frame(false, quota) {
            Some(f) => Some(f),
            None => self.make_room(false, quota, ctx),
        };
        let Some(f) = frame else { return };
        *ctx.movement_credit -= move_cost;
        let page_bytes = ctx.geometry.page_bytes() as u32;
        // Move the page: read the whole page from DRAM, write it to HBM.
        let home = self.prt.location(o).expect("allocated"); // caller migrates only allocated pages; debug builds sweep PRT<->BLE consistency
        debug_assert!(!self.prt.is_hbm_slot(home));
        let dram = (TrafficDevice::OffChip, ctx.dram_addr(home, 0));
        let mhbm = (TrafficDevice::MHbm, ctx.hbm_addr(u32::from(f), 0));
        ctx.plan.copy(dram, mhbm, page_bytes, TrafficCause::MigrationPromote);
        ctx.of_fetched_page(f);
        ctx.of_used(f, block, line);
        self.prt.relocate(o, self.m() + f);
        self.ble_begin_mhbm(usize::from(f), o, Some(block));
        if let Some(popped) = self.hot.promote(o) {
            // Promotion displaced the LRU page: the paper evicts it.
            self.handle_popped_entry(popped, ctx);
        }
        ctx.stats.page_migrations += 1;
        let set = ctx.set_id;
        ctx.emit(|| TraceEvent::Migrate { set, page: o });
    }

    #[allow(clippy::too_many_arguments)]
    fn try_cache_block(
        &mut self,
        o: u16,
        home: u16,
        block: u32,
        line: u32,
        quota: Option<u32>,
        ctx: &mut SetCtx<'_>,
    ) {
        let frame = match self.find_free_frame(true, quota) {
            Some(f) => Some(f),
            None => self.make_room(true, quota, ctx),
        };
        let Some(f) = frame else { return };
        self.ble_begin_chbm(usize::from(f), o);
        self.cached_in[usize::from(o)] = Some(f as u8);
        if let Some(popped) = self.hot.promote(o) {
            self.handle_popped_entry(popped, ctx);
        }
        self.fill_block(o, f as u8, home, block, ctx);
        ctx.of_used(f, block, line);
    }

    /// Fetches one block of off-chip page `o` into cHBM frame `fi` (the
    /// copy arrives clean; only cHBM write hits dirty it).
    fn fill_block(&mut self, o: u16, fi: u8, home: u16, block: u32, ctx: &mut SetCtx<'_>) {
        let f = usize::from(fi);
        let dram = (TrafficDevice::OffChip, ctx.dram_addr(home, block));
        let chbm = (TrafficDevice::CHbm, ctx.hbm_addr(u32::from(fi), block));
        ctx.plan.copy(dram, chbm, ctx.geometry.block_bytes() as u32, TrafficCause::MissFill);
        self.bles[f].valid.set(block);
        ctx.stats.block_fills += 1;
        let set = ctx.set_id;
        ctx.emit(|| TraceEvent::BlockFill { set, page: o, block });
        ctx.of_fetched_block(u16::from(fi), block);
    }

    /// §III-E access rule 2: a cHBM page whose blocks are mostly cached
    /// switches to mHBM, fetching only the missing blocks.
    fn maybe_switch_to_mhbm(&mut self, o: u16, fi: u8, home: u16, ctx: &mut SetCtx<'_>) {
        let f = usize::from(fi);
        let bpp = ctx.geometry.blocks_per_page();
        if !self.bles[f].mostly_valid(bpp, ctx.cfg.mode_switch_fraction) {
            return;
        }
        // Under a fixed partition a cache frame cannot become memory.
        if ctx.cfg.chbm_quota(u32::from(self.n())).is_some() {
            return;
        }
        let block_bytes = ctx.geometry.block_bytes() as u32;
        // Fetch only blocks not yet cached. `iter_clear` snapshots the
        // bitmap words (the bitmap is `Copy`), so no block list is
        // collected and `self` stays free for the loop body.
        for b in self.bles[f].valid.iter_clear(bpp) {
            let dram = (TrafficDevice::OffChip, ctx.dram_addr(home, b));
            let mhbm = (TrafficDevice::MHbm, ctx.hbm_addr(u32::from(fi), b));
            ctx.plan.copy(dram, mhbm, block_bytes, TrafficCause::MigrationPromote);
            *ctx.mode_switch_bytes += 2 * u64::from(block_bytes);
            ctx.of_fetched_block(u16::from(fi), b);
        }
        if !ctx.cfg.multiplexed {
            // No-Multi: separate cHBM/mHBM spaces force the page through
            // off-chip DRAM and back (eviction + re-migration): it leaves
            // the frame as cHBM and returns to it as mHBM.
            let page_bytes = ctx.geometry.page_bytes() as u32;
            let hbm = ctx.hbm_addr(u32::from(fi), 0);
            let dram = (TrafficDevice::OffChip, ctx.dram_addr(home, 0));
            let (chbm, mhbm) = ((TrafficDevice::CHbm, hbm), (TrafficDevice::MHbm, hbm));
            ctx.plan.copy(chbm, dram, page_bytes, TrafficCause::MigrationDemote);
            ctx.plan.copy(dram, mhbm, page_bytes, TrafficCause::MigrationPromote);
            *ctx.mode_switch_bytes += 4 * u64::from(page_bytes);
        }
        self.prt.relocate(o, self.m() + u16::from(fi));
        self.ble_switch_to_mhbm(f);
        self.cached_in[usize::from(o)] = None;
        ctx.stats.switch_to_mhbm += 1;
        let set = ctx.set_id;
        ctx.emit(|| TraceEvent::SwitchMode { set, page: o, to_mhbm: true });
    }

    // ---- §III-E data movement triggered by footprint --------------------

    /// Pops hot-table LRU pages until a free frame appears (or gives up).
    /// `for_chbm`/`quota` constrain which frames qualify. Buffered
    /// mHBM→cHBM switches (rule 2) do not free a frame by themselves — the
    /// converted page is re-inserted at the MRU position and only a later
    /// pop truly evicts it — so the loop runs up to `2n + 1` pops.
    fn make_room(&mut self, for_chbm: bool, quota: Option<u32>, ctx: &mut SetCtx<'_>) -> Option<u16> {
        // Entries whose frame cannot satisfy this request (wrong side of a
        // fixed partition) are skipped and re-inserted afterwards — evicting
        // an mHBM page to make room for one cache block would be pure waste.
        // The skip buffer is a reusable field: its capacity survives between
        // calls, so this path stays allocation-free in steady state.
        let mut skipped = std::mem::take(&mut self.skip_scratch);
        skipped.clear();
        let mut freed = None;
        for _ in 0..(2 * self.n() + 1) {
            let Some(popped) = self.hot.pop_lru_hbm() else { break };
            if quota.is_some() {
                if let Some(frame) = self.frame_of_entry(popped.ple) {
                    if !self.frame_eligible(frame, for_chbm, quota) {
                        skipped.push(popped);
                        continue;
                    }
                }
            }
            self.handle_popped_entry(popped, ctx);
            if let Some(f) = self.find_free_frame(for_chbm, quota) {
                freed = Some(f);
                break;
            }
        }
        // Restore skipped entries in their original recency order (they
        // were popped LRU-first, so push back LRU-last).
        for e in skipped.drain(..).rev() {
            self.hot.push_lru_hbm(e);
        }
        self.skip_scratch = skipped;
        freed
    }

    /// The HBM frame currently holding page `ple` (resident or cached).
    fn frame_of_entry(&self, ple: u16) -> Option<u16> {
        if let Some(f) = self.cached_in[usize::from(ple)] {
            return Some(u16::from(f));
        }
        match self.prt.location(ple) {
            Some(p) if self.prt.is_hbm_slot(p) => Some(p - self.m()),
            _ => None,
        }
    }

    /// Processes an entry popped out of the hot table's HBM queue (paper
    /// §III-E footprint rules 1 and 2): cHBM pages are evicted (dirty
    /// blocks written back, frame freed); mHBM pages take the buffered
    /// cHBM second chance when the HMF rules are on, otherwise a full page
    /// writeback. Returns `true` when a frame was freed.
    fn handle_popped_entry(&mut self, entry: HotEntry, ctx: &mut SetCtx<'_>) -> bool {
        let ple = entry.ple;
        if let Some(fi) = self.cached_in[usize::from(ple)] {
            // Rule 1: a popped cHBM page is evicted to off-chip DRAM.
            self.evict_chbm_frame(fi, TrafficCause::Writeback, ctx);
            self.hot.push_dram_front(entry);
            return true;
        }
        let Some(p) = self.prt.location(ple) else {
            return false; // freed page; drop the stale entry
        };
        if !self.prt.is_hbm_slot(p) {
            // Stale entry for an off-chip page; return it to the DRAM queue.
            self.hot.push_dram_front(entry);
            return false;
        }
        let frame = p - self.m();
        // Rule 2 applies only to the adaptive design: statically partitioned
        // variants (C-Only/M-Only/25%-C/50%-C) cannot repurpose an mHBM
        // frame as cache, which is exactly the separate-space cost the
        // paper's motivation describes.
        if ctx.cfg.hmf_enabled && ctx.cfg.fixed_chbm_ratio.is_none() {
            if let Some(dram_slot) = self.prt.find_free_dram(if ple < self.m() { ple } else { 0 }) {
                // Rule 2: buffered eviction — the page stays in HBM as a
                // fully dirty cHBM page; no data moves (multiplexed space).
                self.prt.relocate(ple, dram_slot);
                self.ble_switch_to_chbm(usize::from(frame), ctx.geometry.blocks_per_page());
                self.cached_in[usize::from(ple)] = Some(frame as u8);
                ctx.stats.switch_to_chbm += 1;
                let set = ctx.set_id;
                ctx.emit(|| TraceEvent::SwitchMode { set, page: ple, to_mhbm: false });
                if !ctx.cfg.multiplexed {
                    // Separate spaces: the page must actually be copied out.
                    let page_bytes = ctx.geometry.page_bytes() as u32;
                    let mhbm = (TrafficDevice::MHbm, ctx.hbm_addr(u32::from(frame), 0));
                    let dram = (TrafficDevice::OffChip, ctx.dram_addr(dram_slot, 0));
                    ctx.plan.copy(mhbm, dram, page_bytes, TrafficCause::MigrationDemote);
                    *ctx.mode_switch_bytes += 2 * u64::from(page_bytes);
                    // And the cHBM copy is now clean.
                    self.bles[usize::from(frame)].dirty.clear_all();
                }
                // Still resident in HBM: back into the HBM queue at MRU.
                self.hot.push_hbm_front(entry);
                return false;
            }
        }
        // Full eviction to off-chip DRAM.
        let Some(dram_slot) = self.prt.find_free_dram(if ple < self.m() { ple } else { 0 }) else {
            // Nowhere to evict to; leave the page and its entry in place.
            self.hot.push_hbm_front(entry);
            return false;
        };
        self.evict_mhbm_page(ple, frame, dram_slot, TrafficCause::Writeback, ctx);
        self.hot.push_dram_front(entry);
        true
    }

    /// Writes mHBM page `ple` back from `frame` to off-chip slot `slot` and
    /// frees the frame. `cause` names the rule (LRU pop or zombie).
    fn evict_mhbm_page(
        &mut self,
        ple: u16,
        frame: u16,
        slot: u16,
        cause: TrafficCause,
        ctx: &mut SetCtx<'_>,
    ) {
        let mhbm = (TrafficDevice::MHbm, ctx.hbm_addr(u32::from(frame), 0));
        let dram = (TrafficDevice::OffChip, ctx.dram_addr(slot, 0));
        ctx.plan.copy(mhbm, dram, ctx.geometry.page_bytes() as u32, cause);
        self.prt.relocate(ple, slot);
        ctx.of_evicted_page(frame);
        self.ble_reset(usize::from(frame));
        ctx.stats.evictions += 1;
        let set = ctx.set_id;
        ctx.emit(|| TraceEvent::Evict { set, page: ple });
    }

    /// Writes back a cHBM frame's dirty blocks and frees the frame.
    /// `cause` names the §III-E rule that triggered the eviction (rule-1
    /// LRU pop → writeback, rule-3 → zombie_evict, rule-5 →
    /// pressure_flush, capacity eviction on allocation → writeback), so
    /// the traffic breakdown attributes the same bytes to the right
    /// mechanism.
    fn evict_chbm_frame(&mut self, fi: u8, cause: TrafficCause, ctx: &mut SetCtx<'_>) {
        let f = usize::from(fi);
        debug_assert_eq!(self.bles[f].mode, FrameMode::Chbm);
        let o = self.bles[f].ple;
        let home = self.prt.location(o).expect("cached page is allocated"); // a Chbm-mode BLE always names an allocated home page; swept in debug builds
        debug_assert!(!self.prt.is_hbm_slot(home));
        let bpp = ctx.geometry.blocks_per_page();
        let block_bytes = ctx.geometry.block_bytes() as u32;
        // `iter_set` snapshots the bitmap words — no dirty-block list is
        // allocated on the writeback path.
        for b in self.bles[f].dirty.iter_set(bpp) {
            let chbm = (TrafficDevice::CHbm, ctx.hbm_addr(u32::from(fi), b));
            let dram = (TrafficDevice::OffChip, ctx.dram_addr(home, b));
            ctx.plan.copy(chbm, dram, block_bytes, cause);
        }
        ctx.of_evicted_page(u16::from(fi));
        self.ble_reset(f);
        self.cached_in[usize::from(o)] = None;
        ctx.stats.evictions += 1;
        let set = ctx.set_id;
        ctx.emit(|| TraceEvent::Evict { set, page: o });
    }

    /// Rule 3: evict the zombie page when the LRU HBM entry and its counter
    /// sit unchanged for `zombie_window` set accesses under high Rh.
    fn zombie_tick(&mut self, ctx: &mut SetCtx<'_>) {
        let head = self.hot.lru_hbm().map(|e| (e.ple, e.counter));
        if let Some((ple, _)) = head.filter(|_| head == self.zombie_head && self.rh() >= HIGH_RH) {
            self.zombie_stale += 1;
            if self.zombie_stale >= ctx.cfg.zombie_window {
                self.hot.demote(ple);
                // Zombies get no buffered second chance: force a real
                // eviction by taking the non-HMF path explicitly.
                if let Some(fi) = self.cached_in[usize::from(ple)] {
                    self.evict_chbm_frame(fi, TrafficCause::ZombieEvict, ctx);
                } else if let Some(p) = self.prt.location(ple) {
                    if self.prt.is_hbm_slot(p) {
                        if let Some(slot) =
                            self.prt.find_free_dram(if ple < self.m() { ple } else { 0 })
                        {
                            let frame = p - self.m();
                            self.evict_mhbm_page(ple, frame, slot, TrafficCause::ZombieEvict, ctx);
                        }
                    }
                }
                ctx.stats.zombie_evictions += 1;
                let set = ctx.set_id;
                ctx.emit(|| TraceEvent::ZombieEvict { set, page: ple });
                self.zombie_stale = 0;
                self.zombie_head = None;
            }
        } else {
            self.zombie_head = head;
            self.zombie_stale = 0;
        }
    }

    /// Minimum set accesses between two rule-4 swaps. A full-page swap
    /// moves 4 pages' worth of data; issuing one per qualifying access
    /// would saturate both memories on streaming phases, so swaps are
    /// epoch-batched the way real swap-based POM controllers operate.
    const SWAP_COOLDOWN: u64 = 64;

    /// Rule 4: every slot OS-occupied — swap a hot off-chip page with the
    /// coldest mHBM page.
    fn try_swap(&mut self, o: u16, block: u32, line: u32, hotness: u32, ctx: &mut SetCtx<'_>) {
        if hotness <= self.hot.threshold() {
            ctx.stats.threshold_rejections += 1;
            let set = ctx.set_id;
            ctx.emit(|| TraceEvent::ThresholdReject { set, page: o });
            return;
        }
        if self.accesses.saturating_sub(self.last_swap_at) < Self::SWAP_COOLDOWN {
            return;
        }
        let move_cost = 4 * ctx.geometry.page_bytes() as i64;
        if *ctx.movement_credit < move_cost {
            return;
        }
        *ctx.movement_credit -= move_cost;
        let Some(victim) = self.hot.pop_lru_hbm() else { return };
        let Some(vp) = self.prt.location(victim.ple) else {
            return;
        };
        if !self.prt.is_hbm_slot(vp) {
            // Stale entry; put it back in the DRAM queue and bail.
            self.hot.push_dram_front(victim);
            return;
        }
        let frame = vp - self.m();
        let home = self.prt.location(o).expect("allocated"); // swap candidates come from the hot table, which only holds allocated pages
        let page_bytes = ctx.geometry.page_bytes() as u32;
        // Full 2-page swap: read both, write both crosswise. The incoming
        // page's legs are promotion traffic, the victim's legs demotion.
        // Both reads issue before both writes, so the swap is not two
        // `copy`s.
        let (dram, hbm) = (ctx.dram_addr(home, 0), ctx.hbm_addr(u32::from(frame), 0));
        for (at, addr, kind, cause) in [
            (TrafficDevice::OffChip, dram, OpKind::Read, TrafficCause::MigrationPromote),
            (TrafficDevice::MHbm, hbm, OpKind::Read, TrafficCause::MigrationDemote),
            (TrafficDevice::MHbm, hbm, OpKind::Write, TrafficCause::MigrationPromote),
            (TrafficDevice::OffChip, dram, OpKind::Write, TrafficCause::MigrationDemote),
        ] {
            ctx.plan.background.push(DeviceOp { at, addr, bytes: page_bytes, kind, cause });
        }
        ctx.of_evicted_page(frame);
        ctx.of_fetched_page(frame);
        ctx.of_used(frame, block, line);
        self.prt.swap(o, victim.ple);
        self.ble_begin_mhbm(usize::from(frame), o, Some(block));
        self.hot.push_dram_front(victim);
        self.hot.promote(o);
        self.last_swap_at = self.accesses;
        ctx.stats.page_migrations += 1;
        let set = ctx.set_id;
        let victim_ple = victim.ple;
        ctx.emit(|| TraceEvent::Swap { set, page: o, victim: victim_ple });
    }

    /// Rule 5: flush every cHBM frame of this set to off-chip DRAM and
    /// refrain from creating new cHBM pages for a window.
    pub fn pressure_flush(&mut self, ctx: &mut SetCtx<'_>) {
        for fi in 0..self.bles.len() {
            if self.bles[fi].mode == FrameMode::Chbm {
                let o = self.bles[fi].ple;
                self.evict_chbm_frame(fi as u8, TrafficCause::PressureFlush, ctx);
                self.hot.demote(o);
            }
        }
        self.chbm_disabled_until = self.accesses + CHBM_DISABLE_WINDOW;
        ctx.stats.pressure_flushes += 1;
        let set = ctx.set_id;
        ctx.emit(|| TraceEvent::PressureFlush { set });
    }

    // ---- §III-D page allocation -----------------------------------------

    fn allocate(&mut self, o: u16, ctx: &mut SetCtx<'_>) {
        ctx.stats.allocations += 1;
        let set = ctx.set_id;
        ctx.emit(|| TraceEvent::PrtMiss { set, page: o });
        let want_hbm = match ctx.cfg.alloc_policy {
            AllocPolicy::AllDram => false,
            AllocPolicy::AllHbm => true,
            AllocPolicy::Hotness => {
                // "Recently allocated pages still reside in the hot table
                // queue for HBM pages" — both recent allocations, and
                // genuinely hot (above the set's threshold T). A streaming
                // phase keeps only its single in-flight page hot, so the
                // two-deep check keeps transients out of HBM; a truly hot
                // allocation phase keeps several recent pages resident.
                self.hot.hbm_len() < usize::from(self.n())
                    && self.last_allocs.iter().all(|la| {
                        la.is_some_and(|pl| {
                            self.hot.in_hbm(pl)
                                && self.hot.hbm_hotness(pl) > self.hot.threshold()
                        })
                    })
            }
        };
        let quota = ctx.cfg.chbm_quota(u32::from(self.n()));
        if want_hbm {
            if let Some(f) = self.find_free_frame(false, quota) {
                self.allocate_in_hbm(o, f, ctx);
                return;
            }
        }
        // Alloc-H allocates in HBM even when that means evicting: the
        // paper charges this ablation the resulting eviction bandwidth for
        // high-footprint workloads.
        if ctx.cfg.alloc_policy == AllocPolicy::AllHbm {
            if let Some(f) = self.make_room(false, quota, ctx) {
                self.allocate_in_hbm(o, f, ctx);
                return;
            }
        }
        let prefer = if o < self.m() { o } else { 0 };
        if let Some(p) = self.prt.find_free_dram(prefer) {
            self.prt.allocate(o, p);
            self.last_allocs = [Some(o), self.last_allocs[0]];
            return;
        }
        // DRAM full: fall back to a free HBM frame even for Alloc-D.
        if let Some(f) = self.find_free_frame(false, quota) {
            self.allocate_in_hbm(o, f, ctx);
            return;
        }
        // No Free frame and DRAM full: frames may be tied up as cHBM
        // caches — reclaim one before declaring a fault.
        if let Some(f) = self.make_room(false, quota, ctx) {
            // Eviction may also have freed a DRAM slot (cache writeback
            // does not, but a full mHBM eviction relocates into DRAM);
            // prefer DRAM if so, otherwise take the freed frame.
            if let Some(p) = self.prt.find_free_dram(prefer) {
                self.prt.allocate(o, p);
                self.last_allocs = [Some(o), self.last_allocs[0]];
            } else {
                self.allocate_in_hbm(o, f, ctx);
            }
            return;
        }
        // Nothing free anywhere: page fault — swap out a cold DRAM page.
        self.page_fault_alloc(o, ctx);
    }

    /// Allocates page `o` as an mHBM page in free frame `f` and tracks it
    /// in the HBM queue, evicting whatever the queue pops out.
    fn allocate_in_hbm(&mut self, o: u16, f: u16, ctx: &mut SetCtx<'_>) {
        self.prt.allocate(o, self.m() + f);
        self.ble_begin_mhbm(usize::from(f), o, None);
        if let Some(popped) = self.hot.promote(o) {
            self.handle_popped_entry(popped, ctx);
        }
        ctx.stats.alloc_in_hbm += 1;
        let set = ctx.set_id;
        ctx.emit(|| TraceEvent::AllocInHbm { set, page: o });
        self.last_allocs = [Some(o), self.last_allocs[0]];
    }

    fn page_fault_alloc(&mut self, o: u16, ctx: &mut SetCtx<'_>) {
        self.page_faults += 1;
        // OS swap penalty for faulting the page in.
        ctx.plan.stall_cycles += FAULT_STALL_CYCLES;
        // Pick a cold DRAM-resident victim (not tracked hot, not cached).
        let victim = (0..self.prt.slots()).find(|&v| {
            v != o
                && self
                    .prt
                    .location(v)
                    .is_some_and(|p| !self.prt.is_hbm_slot(p))
                && self.hot.dram_hotness(v) == 0
                && self.cached_in[usize::from(v)].is_none()
        });
        let victim = victim.or_else(|| {
            (0..self.prt.slots()).find(|&v| {
                v != o && self.prt.location(v).is_some_and(|p| !self.prt.is_hbm_slot(p))
            })
        });
        let Some(v) = victim else { return };
        if let Some(fi) = self.cached_in[usize::from(v)] {
            self.evict_chbm_frame(fi, TrafficCause::Writeback, ctx);
        }
        let p = self.prt.location(v).expect("victim allocated"); // eviction victims come from the hot table, which only holds allocated pages
        self.prt.free(v);
        self.hot.remove(v);
        self.prt.allocate(o, p);
        self.last_allocs = [Some(o), self.last_allocs[0]];
    }
}

/// Invariant validation, swept by [`BumblebeeController`](crate::BumblebeeController)
/// every 4096 accesses in debug builds.
impl RemapSet {
    /// Verifies the set's cross-structure invariants: the PRT and hot table
    /// pass their own validation, every BLE agrees bidirectionally with the
    /// PRT and the `cached_in` map, dirty blocks are a subset of valid
    /// blocks, the free-frame bitmap and the incremental mode counts match
    /// the BLE array, the hot table's HBM queue never outgrows the frame
    /// count, and set occupancy stays within `m + n` slots.
    pub fn validate(&self) -> Result<(), String> {
        self.prt.validate().map_err(|e| format!("PRT: {e}"))?;
        self.hot.validate().map_err(|e| format!("hot table: {e}"))?;
        let m = self.m();
        let (mut chbm, mut mhbm) = (0u16, 0u16);
        for (f, ble) in self.bles.iter().enumerate() {
            let slot = m + f as u16;
            let free_bit = self.free_frames.get(f as u32);
            match ble.mode {
                FrameMode::Free => {
                    if !free_bit {
                        return Err(format!("frame {f} is Free but its free-bitmap bit is clear"));
                    }
                    if self.prt.occupied(slot) {
                        return Err(format!("free frame {f} is OS-occupied in the PRT"));
                    }
                }
                FrameMode::Mhbm => {
                    mhbm += 1;
                    if free_bit {
                        return Err(format!("mHBM frame {f} is marked free in the bitmap"));
                    }
                    if self.prt.location(ble.ple) != Some(slot) {
                        return Err(format!(
                            "mHBM frame {f}: resident page {} does not map back to slot {slot}",
                            ble.ple
                        ));
                    }
                }
                FrameMode::Chbm => {
                    chbm += 1;
                    if free_bit {
                        return Err(format!("cHBM frame {f} is marked free in the bitmap"));
                    }
                    let home = self.prt.location(ble.ple);
                    if home.is_none_or(|p| p >= m) {
                        return Err(format!(
                            "cHBM frame {f}: cached page {} has home {home:?}, not off-chip",
                            ble.ple
                        ));
                    }
                    if self.cached_in[usize::from(ble.ple)] != Some(f as u8) {
                        return Err(format!(
                            "cHBM frame {f}: cached_in[{}] does not point back at it",
                            ble.ple
                        ));
                    }
                    if !ble.valid.contains_all(&ble.dirty) {
                        return Err(format!("cHBM frame {f}: dirty blocks not a subset of valid"));
                    }
                    if self.prt.occupied(slot) {
                        return Err(format!(
                            "cHBM frame {f}: its HBM slot {slot} is OS-occupied"
                        ));
                    }
                }
            }
        }
        if (chbm, mhbm) != (self.n_chbm, self.n_mhbm) {
            return Err(format!(
                "mode counters say {} cHBM / {} mHBM but the BLE array holds {chbm} / {mhbm}",
                self.n_chbm, self.n_mhbm
            ));
        }
        for o in 0..self.prt.slots() {
            if let Some(f) = self.cached_in[usize::from(o)] {
                let ble = &self.bles[usize::from(f)];
                if ble.mode != FrameMode::Chbm || ble.ple != o {
                    return Err(format!(
                        "cached_in[{o}] names frame {f}, which is not a cHBM frame caching it"
                    ));
                }
            }
        }
        if self.hot.hbm_len() > usize::from(self.n()) {
            return Err(format!(
                "hot table tracks {} HBM pages but the set has only {} frames",
                self.hot.hbm_len(),
                self.n()
            ));
        }
        Ok(())
    }
}

#[cfg(all(test, debug_assertions))]
impl RemapSet {
    /// Skews the cHBM mode counter off the BLE array, a corruption
    /// [`validate`](Self::validate) reports.
    pub(crate) fn skew_mode_counter(&mut self) {
        self.n_chbm += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim_types::Geometry;

    fn geometry() -> Geometry {
        // 2 KB blocks, 64 KB pages, 8 HBM frames/set, 1 set, 16 DRAM slots.
        Geometry::builder()
            .block_bytes(2 << 10)
            .page_bytes(64 << 10)
            .hbm_bytes(8 * (64 << 10))
            .dram_bytes(16 * (64 << 10))
            .hbm_ways(8)
            .build()
            .unwrap()
    }

    /// An over-fetch ledger over every HBM line of `g`.
    fn tracker(g: &Geometry) -> OverfetchTracker {
        OverfetchTracker::new(g.hbm_pages() * g.page_bytes() / 64)
    }

    struct Harness {
        geometry: Geometry,
        cfg: BumblebeeConfig,
        plan: AccessPlan,
        stats: CtrlStats,
        overfetch: OverfetchTracker,
        mode_switch_bytes: u64,
        movement_credit: i64,
        events: Option<Ring<TimedEvent>>,
        set: RemapSet,
    }

    impl Harness {
        fn new(cfg: BumblebeeConfig) -> Harness {
            let geometry = geometry();
            let set = RemapSet::new(16, 8, &cfg);
            Harness {
                geometry,
                cfg,
                plan: AccessPlan::new(),
                stats: CtrlStats::new(),
                overfetch: tracker(&geometry),
                mode_switch_bytes: 0,
                movement_credit: i64::MAX / 2,
                events: None,
                set,
            }
        }

        fn access(&mut self, o: u16, block: u32, kind: AccessKind) -> ServedFrom {
            self.plan.clear();
            let mut ctx = SetCtx {
                geometry: &self.geometry,
                cfg: &self.cfg,
                set_id: 0,
                plan: &mut self.plan,
                stats: &mut self.stats,
                overfetch: &mut self.overfetch,
                mode_switch_bytes: &mut self.mode_switch_bytes,
                movement_credit: &mut self.movement_credit,
                events: self.events.as_mut(),
                seq: 0,
            };
            self.set.access(o, block, 0, kind, &mut ctx)
        }
    }

    #[test]
    fn first_touch_allocates_and_serves() {
        let mut h = Harness::new(BumblebeeConfig::default());
        let served = h.access(0, 0, AccessKind::Read);
        assert_eq!(h.stats.allocations, 1);
        assert!(h.set.prt().is_allocated(0));
        // Fresh set: SL = 0 → cache path; data served from DRAM.
        assert_eq!(served, ServedFrom::OffChip);
    }

    #[test]
    fn cold_page_gets_cached_then_hits() {
        let mut h = Harness::new(BumblebeeConfig::default());
        h.access(0, 3, AccessKind::Read); // cache block 3
        assert_eq!(h.stats.block_fills, 1);
        let served = h.access(0, 3, AccessKind::Read);
        assert_eq!(served, ServedFrom::Hbm, "block was cached");
        assert_eq!(h.stats.hbm_hits, 1);
    }

    #[test]
    fn uncached_block_of_cached_page_is_fetched() {
        let mut h = Harness::new(BumblebeeConfig::default());
        h.access(0, 0, AccessKind::Read);
        let served = h.access(0, 1, AccessKind::Read);
        assert_eq!(served, ServedFrom::OffChip);
        assert_eq!(h.stats.block_fills, 2);
        assert!(h.access(0, 1, AccessKind::Read) == ServedFrom::Hbm);
    }

    #[test]
    fn mostly_cached_page_switches_to_mhbm() {
        let mut h = Harness::new(BumblebeeConfig::default());
        // 32 blocks/page; touch >16 distinct blocks.
        for b in 0..18 {
            h.access(0, b, AccessKind::Read);
        }
        assert!(h.stats.switch_to_mhbm >= 1, "page should have switched");
        // Page now lives in HBM: PRT points at an HBM slot.
        let p = h.set.prt().location(0).unwrap();
        assert!(h.set.prt().is_hbm_slot(p));
        assert_eq!(h.access(0, 31, AccessKind::Read), ServedFrom::Hbm);
        assert!(h.mode_switch_bytes > 0, "missing blocks moved");
    }

    #[test]
    fn strong_spatial_sets_prefer_migration() {
        // Alloc-D keeps the hotness allocator from pre-placing page 5 in
        // HBM, so the migration decision itself is what we observe.
        let mut h = Harness::new(BumblebeeConfig::alloc_d());
        // Build spatial-strong evidence: switch two pages to mHBM by
        // caching most blocks.
        for o in 0..2u16 {
            for b in 0..18 {
                h.access(o, b, AccessKind::Read);
            }
        }
        assert!(h.set.spatial_locality(32, 0.5) > 0);
        let migrations_before = h.stats.page_migrations;
        h.access(5, 0, AccessKind::Read); // new page: SL>0 → migrate
        assert_eq!(h.stats.page_migrations, migrations_before + 1);
        assert_eq!(h.access(5, 9, AccessKind::Read), ServedFrom::Hbm);
    }

    #[test]
    fn m_only_always_migrates() {
        let mut h = Harness::new(BumblebeeConfig::m_only());
        h.access(0, 0, AccessKind::Read);
        assert_eq!(h.stats.page_migrations, 1);
        assert_eq!(h.stats.block_fills, 0);
        assert_eq!(h.access(0, 5, AccessKind::Read), ServedFrom::Hbm);
    }

    #[test]
    fn c_only_never_migrates() {
        let mut h = Harness::new(BumblebeeConfig::c_only());
        for o in 0..8u16 {
            for b in 0..20 {
                h.access(o, b, AccessKind::Read);
            }
        }
        assert_eq!(h.stats.page_migrations, 0);
        assert_eq!(h.stats.switch_to_mhbm, 0);
        assert!(h.stats.block_fills > 0);
    }

    #[test]
    fn eviction_frees_room_when_hbm_full() {
        // Alloc-D so pages start off-chip and enter HBM only by migration.
        let mut h = Harness::new(BumblebeeConfig {
            alloc_policy: AllocPolicy::AllDram,
            ..BumblebeeConfig::m_only()
        });
        // 8 frames fill with pages 0..8.
        for o in 0..8u16 {
            h.access(o, 0, AccessKind::Read);
        }
        assert_eq!(h.stats.page_migrations, 8);
        // Once full (Rh = 1), a single-touch page is rejected by T.
        h.access(8, 0, AccessKind::Read);
        assert_eq!(h.stats.page_migrations, 8);
        assert!(h.stats.threshold_rejections >= 1);
        // A re-referenced page (touched, interleaved with another page,
        // touched again; every resident counter is 1) passes the threshold
        // and displaces the LRU page.
        h.access(9, 0, AccessKind::Read);
        h.access(10, 0, AccessKind::Read);
        h.access(9, 1, AccessKind::Read);
        assert_eq!(h.stats.page_migrations, 9);
        assert!(
            h.stats.evictions + h.stats.switch_to_chbm >= 1,
            "evictions {} switches {}",
            h.stats.evictions,
            h.stats.switch_to_chbm
        );
    }

    #[test]
    fn buffered_eviction_marks_all_dirty() {
        let mut h = Harness::new(BumblebeeConfig::m_only());
        for o in 0..9u16 {
            h.access(o, 0, AccessKind::Read);
        }
        // Page 0 was LRU; with HMF on it became cHBM with everything dirty.
        if h.stats.switch_to_chbm > 0 {
            let f = h
                .set
                .bles()
                .iter()
                .find(|b| b.mode == FrameMode::Chbm)
                .expect("buffered page");
            assert_eq!(f.dirty.count(), 32);
            assert_eq!(f.valid.count(), 32);
        }
    }

    #[test]
    fn no_hmf_evicts_directly() {
        // M-Only + No-HMF: migrations displace pages with full writebacks,
        // never the buffered mHBM→cHBM switch.
        let mut h = Harness::new(BumblebeeConfig {
            hmf_enabled: false,
            alloc_policy: AllocPolicy::AllDram,
            ..BumblebeeConfig::m_only()
        });
        for o in 0..8u16 {
            h.access(o, 0, AccessKind::Read);
        }
        // Re-referenced pages that beat the threshold displace residents.
        for round in 0..2u32 {
            for o in 8..10u16 {
                h.access(o, round, AccessKind::Read);
            }
        }
        assert_eq!(h.stats.switch_to_chbm, 0, "buffering disabled");
        assert!(h.stats.evictions >= 2, "evictions {}", h.stats.evictions);
    }

    #[test]
    fn write_to_cached_block_sets_dirty() {
        let mut h = Harness::new(BumblebeeConfig::default());
        h.access(0, 0, AccessKind::Read);
        h.access(0, 0, AccessKind::Write);
        let f = h.set.bles().iter().find(|b| b.mode == FrameMode::Chbm).unwrap();
        assert!(f.dirty.get(0));
        assert!(f.valid.contains_all(&f.dirty));
    }

    #[test]
    fn alloc_h_places_new_pages_in_hbm() {
        let mut h = Harness::new(BumblebeeConfig::alloc_h());
        for o in 0..4u16 {
            h.access(o, 0, AccessKind::Read);
        }
        assert_eq!(h.stats.alloc_in_hbm, 4);
        assert_eq!(h.stats.offchip_serves, 0);
    }

    #[test]
    fn every_hbm_allocation_emits_its_event() {
        // One off-chip slot and two frames under Alloc-D: page 0 takes the
        // slot, so page 1 finds DRAM full and falls back to a free frame.
        let mut h = Harness::new(BumblebeeConfig::alloc_d());
        h.set = RemapSet::new(1, 2, &h.cfg);
        h.events = Some(Ring::new(64));
        h.access(0, 0, AccessKind::Read);
        h.access(1, 0, AccessKind::Read);
        assert!(h.set.prt().is_hbm_slot(h.set.prt().location(1).unwrap()));
        assert_eq!(h.stats.alloc_in_hbm, 1);
        let ring = h.events.take().unwrap();
        let events = ring.iter().filter(|e| e.event.kind() == "alloc_in_hbm").count();
        assert_eq!(events as u64, h.stats.alloc_in_hbm, "one event per counted allocation");
    }

    #[test]
    fn alloc_d_places_new_pages_in_dram() {
        let mut h = Harness::new(BumblebeeConfig::alloc_d());
        h.access(0, 0, AccessKind::Read);
        let p = h.set.prt().location(0).unwrap();
        assert!(!h.set.prt().is_hbm_slot(p));
    }

    #[test]
    fn no_page_fault_within_capacity() {
        let mut h = Harness::new(BumblebeeConfig::alloc_d());
        // 16 DRAM slots + 8 HBM frames = capacity for all 24 identities.
        for o in 0..24u16 {
            h.access(o, 0, AccessKind::Read);
        }
        for o in 0..24u16 {
            h.access(o, 1, AccessKind::Read);
        }
        assert_eq!(h.set.page_faults(), 0, "no fault while capacity suffices");
        // Every identity stays allocated.
        for o in 0..24u16 {
            assert!(h.set.prt().is_allocated(o), "page {o}");
        }
    }

    #[test]
    fn pressure_flush_disables_chbm() {
        let mut h = Harness::new(BumblebeeConfig::default());
        h.access(0, 0, AccessKind::Read); // one cached block
        assert!(h.set.chbm_frames() > 0);
        h.plan.clear();
        let mut ctx = SetCtx {
            geometry: &h.geometry,
            cfg: &h.cfg,
            set_id: 0,
            plan: &mut h.plan,
            stats: &mut h.stats,
            overfetch: &mut h.overfetch,
            mode_switch_bytes: &mut h.mode_switch_bytes,
            movement_credit: &mut h.movement_credit,
            events: None,
            seq: 0,
        };
        h.set.pressure_flush(&mut ctx);
        assert_eq!(h.set.chbm_frames(), 0);
        assert_eq!(h.stats.pressure_flushes, 1);
        // New accesses do not create cHBM pages during the window.
        h.access(3, 0, AccessKind::Read);
        assert_eq!(h.set.chbm_frames(), 0);
    }

    #[test]
    fn sl_counts_na_nn_nc() {
        let mut h = Harness::new(BumblebeeConfig::default());
        assert_eq!(h.set.spatial_locality(32, 0.5), 0);
        h.access(0, 0, AccessKind::Read); // one cHBM frame → Nc = 1
        assert_eq!(h.set.spatial_locality(32, 0.5), -1);
    }

    #[test]
    fn rh_tracks_frame_usage() {
        let mut h = Harness::new(BumblebeeConfig::m_only());
        assert_eq!(h.set.rh(), 0.0);
        h.access(0, 0, AccessKind::Read);
        assert!((h.set.rh() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn demand_reads_are_critical_writes_are_posted() {
        let mut h = Harness::new(BumblebeeConfig::m_only());
        h.access(0, 0, AccessKind::Read);
        h.plan.clear();
        let mut overfetch = tracker(&h.geometry);
        let mut ctx = SetCtx {
            geometry: &h.geometry,
            cfg: &h.cfg,
            set_id: 0,
            plan: &mut h.plan,
            stats: &mut h.stats,
            overfetch: &mut overfetch,
            mode_switch_bytes: &mut h.mode_switch_bytes,
            movement_credit: &mut h.movement_credit,
            events: None,
            seq: 0,
        };
        h.set.access(0, 1, 0, AccessKind::Write, &mut ctx);
        assert!(h.plan.critical.is_empty(), "writes are posted");
        assert!(!h.plan.background.is_empty());
    }

    #[test]
    fn events_are_recorded_when_a_recorder_is_installed() {
        let mut h = Harness::new(BumblebeeConfig::default());
        h.events = Some(Ring::new(4096));
        h.access(0, 0, AccessKind::Read); // allocate + fill
        h.access(0, 0, AccessKind::Read); // cHBM hit
        let ring = h.events.take().unwrap();
        let kinds: Vec<&str> = ring.iter().map(|e| e.event.kind()).collect();
        assert!(kinds.contains(&"prt_miss"), "kinds {kinds:?}");
        assert!(kinds.contains(&"block_fill"), "kinds {kinds:?}");
        assert!(kinds.contains(&"ble_hit"), "kinds {kinds:?}");
    }

    #[test]
    fn overfetch_tracks_migrated_pages() {
        let mut h = Harness::new(BumblebeeConfig::m_only());
        h.access(0, 0, AccessKind::Read); // migrate whole page, use 1 block
        h.overfetch.evict_all();
        // 1023 of 1024 64 B lines of the migrated 64 KB page were unused.
        assert!((h.overfetch.overfetch_ratio() - 1023.0 / 1024.0).abs() < 1e-9);
    }

    #[test]
    fn zombie_mhbm_eviction_wastes_the_pages_unused_lines() {
        let mut h = Harness::new(BumblebeeConfig {
            alloc_policy: AllocPolicy::AllDram,
            zombie_window: 4,
            ..BumblebeeConfig::m_only()
        });
        // Pages 0..8 migrate into every frame, each using one of its lines.
        for o in 0..8u16 {
            h.access(o, 0, AccessKind::Read);
        }
        assert_eq!(h.stats.page_migrations, 8);
        let wasted = h.overfetch.wasted_bytes();
        // Hits on page 7 leave the LRU head, page 0, unchanged until it
        // turns zombie and leaves mHBM.
        for _ in 0..64 {
            if h.stats.zombie_evictions > 0 {
                break;
            }
            h.access(7, 1, AccessKind::Read);
        }
        assert_eq!(h.stats.zombie_evictions, 1);
        assert!(!h.set.prt().is_hbm_slot(h.set.prt().location(0).unwrap()));
        // The eviction itself wastes page 0's 1023 unused lines.
        assert_eq!(h.overfetch.wasted_bytes() - wasted, 1023 * 64);
    }

    #[test]
    fn rule4_swap_fetches_the_incoming_page() {
        let mut h = Harness::new(BumblebeeConfig {
            alloc_policy: AllocPolicy::AllDram,
            ..BumblebeeConfig::m_only()
        });
        // Pages 0..8 migrate into every frame; pages 8..24 are rejected by
        // T and fill every off-chip slot.
        for o in 0..24u16 {
            h.access(o, 0, AccessKind::Read);
        }
        assert!(h.set.prt().all_occupied());
        assert_eq!(h.stats.page_migrations, 8);
        let (fetched, wasted) = (h.overfetch.fetched_bytes(), h.overfetch.wasted_bytes());
        // Pages 8 and 9 take turns (a counter grows on re-reference) until
        // one beats T after the swap cooldown.
        for i in 0..128u16 {
            if h.stats.page_migrations > 8 {
                break;
            }
            h.access(8 + i % 2, 2, AccessKind::Read);
        }
        assert_eq!(h.stats.page_migrations, 9, "rule-4 swap");
        let in_hbm = |o| h.set.prt().is_hbm_slot(h.set.prt().location(o).unwrap());
        assert!(in_hbm(8) != in_hbm(9));
        // The whole incoming page counts as fetched, and the victim leaves
        // with its 1023 unused lines wasted.
        assert_eq!(h.overfetch.fetched_bytes() - fetched, 64 << 10);
        assert_eq!(h.overfetch.wasted_bytes() - wasted, 1023 * 64);
        // Draining wastes 1023 lines of each of the eight resident pages:
        // the incoming page's demanded line was used.
        h.overfetch.evict_all();
        assert_eq!(h.overfetch.wasted_bytes() - wasted, 9 * 1023 * 64);
    }

    #[test]
    fn validate_holds_through_mixed_traffic() {
        let mut h = Harness::new(BumblebeeConfig::paper());
        assert_eq!(h.set.validate(), Ok(()));
        // Enough skewed traffic to exercise caching, migration, eviction
        // and mode switches, validating along the way.
        for i in 0u32..600 {
            let o = (i % 11) as u16;
            let kind = if i % 3 == 0 { AccessKind::Write } else { AccessKind::Read };
            h.access(o, i % 32, kind);
            if i % 37 == 0 {
                assert_eq!(h.set.validate(), Ok(()), "after access {i}");
            }
        }
        assert_eq!(h.set.validate(), Ok(()));
    }

    #[test]
    fn validate_catches_cross_structure_corruption() {
        // A cached_in entry pointing at a frame that does not cache it.
        let mut h = Harness::new(BumblebeeConfig::paper());
        h.access(0, 0, AccessKind::Read);
        h.set.cached_in[9] = Some(7);
        assert!(h.set.validate().unwrap_err().contains("cached_in"));

        // Mode counters drifting from the BLE array.
        let mut h = Harness::new(BumblebeeConfig::paper());
        h.access(0, 0, AccessKind::Read);
        h.set.n_chbm += 1;
        assert!(h.set.validate().unwrap_err().contains("mode counters"));

        // Free-frame bitmap out of sync with a frame's mode.
        let mut h = Harness::new(BumblebeeConfig::paper());
        h.access(0, 0, AccessKind::Read);
        let f = h.set.cached_in.iter().position(|c| c.is_some()).unwrap();
        let frame = u32::from(h.set.cached_in[f].unwrap());
        h.set.free_frames.set(frame);
        assert!(h.set.validate().unwrap_err().contains("marked free"));
    }
}
