//! Plan execution: the clock, the devices, and cycle/traffic/energy
//! accounting.

use memsim_dram::{presets, DramDevice};
use memsim_obs::span::{self, Phase};
use memsim_obs::{sampled, AccessRecord, BwPoint, LatRing, TrafficAccum};
use memsim_types::{
    Access, AccessBatch, AccessKind, AccessPlan, Geometry, HybridMemoryController, Mem, PlanBuffer,
    QuickDiv, TrafficCause,
};

/// Core-side timing parameters, held as exact integer divisors so the
/// per-access clock update is integer-only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimParams {
    /// Issue width: non-miss instructions retired per cycle (an ARM A72
    /// sustains ~2 IPC on cache-resident code).
    pub issue_width: QuickDiv,
    /// Memory-level parallelism: concurrent outstanding demand misses the
    /// core overlaps (divides exposed demand latency).
    pub mlp: QuickDiv,
}

impl Default for SimParams {
    fn default() -> Self {
        // An ARM A72-class core: ~2 IPC on cache-resident code and a
        // modest out-of-order window that overlaps about two outstanding
        // demand misses.
        SimParams { issue_width: QuickDiv::new(2), mlp: QuickDiv::new(2) }
    }
}

impl SimParams {
    /// The core cycles one access adds to the clock besides OS stalls, as
    /// `(compute, exposed)`: the instruction gap `ceil(insts /
    /// issue_width)`, and for reads the MLP-overlapped critical-path
    /// latency `ceil(raw_latency / mlp)` (writes are buffered and expose
    /// nothing). Both are shifts for power-of-two parameters.
    #[inline]
    // audit: hot-path
    // audit: unit(cycles)
    pub fn core_cycles(&self, insts: u32, raw_latency: u64, kind: AccessKind) -> (u64, u64) {
        let compute = self.issue_width.div_ceil(u64::from(insts));
        let exposed = if kind == AccessKind::Read { self.mlp.div_ceil(raw_latency) } else { 0 };
        (compute, exposed)
    }
}

/// Per-run traffic/latency aggregates maintained by the [`System`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SystemCounters {
    /// Demand accesses executed.
    pub accesses: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// Total exposed demand latency (cycles, after MLP division).
    pub demand_cycles: u64,
    /// Metadata access latency: SRAM cycles plus in-memory metadata op
    /// latency on the critical path (the paper's MAL).
    pub mal_cycles: u64,
    /// OS stall cycles (page faults).
    pub stall_cycles: u64,
}

/// Executes [`AccessPlan`]s against the HBM2/DDR4 device models; see the
/// [crate documentation](crate).
#[derive(Debug)]
pub struct System<C> {
    controller: C,
    hbm: DramDevice,
    dram: DramDevice,
    params: SimParams,
    // Width-1 buffers that `step` recycles, so it allocates nothing.
    one: AccessBatch,
    one_plan: PlanBuffer,
    now: u64,
    counters: SystemCounters,
    path_counts: [u64; 5],
    uses_hbm: bool,
    traffic: Option<Box<TrafficAccum>>,
}

impl<C: HybridMemoryController> System<C> {
    /// Builds a system around `controller` with Table I devices sized by
    /// `geometry`. `uses_hbm` excludes HBM background energy for the no-HBM
    /// reference.
    pub fn new(controller: C, geometry: &Geometry, params: SimParams, uses_hbm: bool) -> System<C> {
        System {
            controller,
            hbm: DramDevice::new(presets::hbm2(geometry.hbm_bytes())),
            dram: DramDevice::new(presets::ddr4_3200(geometry.dram_bytes())),
            params,
            one: AccessBatch::with_capacity(1),
            one_plan: PlanBuffer::new(),
            now: 0,
            counters: SystemCounters::default(),
            path_counts: [0; 5],
            uses_hbm,
            traffic: None,
        }
    }

    /// Turns on cause-attributed traffic accounting: every subsequent
    /// device transaction is folded into a [`TrafficAccum`]. Off by
    /// default — the disabled path costs one `Option` discriminant check
    /// per access.
    pub fn enable_traffic_accounting(&mut self) {
        self.traffic = Some(Box::default());
    }

    /// The traffic accumulator, when accounting is enabled.
    pub fn traffic(&self) -> Option<&TrafficAccum> {
        self.traffic.as_deref()
    }

    /// Takes the traffic accumulator out (end-of-run harvest).
    pub fn take_traffic(&mut self) -> Option<TrafficAccum> {
        self.traffic.take().map(|b| *b)
    }

    /// The cumulative bandwidth snapshot right now: attributed class
    /// bytes, the clock, and per-channel data-bus busy cycles. Epoch
    /// boundaries sample this to build the `bw_epoch` series.
    pub fn bw_point(&self) -> BwPoint {
        BwPoint {
            class_bytes: self.traffic.as_deref().map_or([0; 3], |t| {
                let mut bytes = [0u64; 3];
                for d in memsim_types::TrafficDevice::ALL {
                    bytes[d.index()] = t.matrix.device_bytes(d);
                }
                bytes
            }),
            cycles: self.now,
            hbm_busy: self.hbm.channel_busy_cycles(),
            dram_busy: self.dram.channel_busy_cycles(),
        }
    }

    /// The wrapped controller.
    pub fn controller(&self) -> &C {
        &self.controller
    }

    /// The wrapped controller, mutably (recorder install/harvest).
    pub fn controller_mut(&mut self) -> &mut C {
        &mut self.controller
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Aggregates so far.
    pub fn counters(&self) -> &SystemCounters {
        &self.counters
    }

    /// Full (unsampled) per-path access counts, indexed by
    /// [`AccessPath::index`] — every access is counted, so these reconcile
    /// exactly against the controller's hit/off-chip counters at any
    /// sampling rate.
    pub fn path_counts(&self) -> &[u64; 5] {
        &self.path_counts
    }

    /// Runs one LLC-miss access through the controller and the devices:
    /// a width-1 [`step_batch`](Self::step_batch) on buffers the system
    /// owns, so it allocates nothing per call.
    // audit: hot-path
    pub fn step(&mut self, access: Access) {
        let mut one = std::mem::take(&mut self.one);
        let mut plans = std::mem::take(&mut self.one_plan);
        one.clear();
        one.push(access.addr.0, access.kind, access.insts);
        self.step_batch(&one, &mut plans, 0, None, 0);
        self.one = one;
        self.one_plan = plans;
    }

    /// Runs one chunk of accesses through the staged batch pipeline:
    /// the controller plans every access of `batch` into `plans`
    /// (CtrlLookup), then each access is serviced against the devices in
    /// strict stream order (DramService). This is the simulator's only
    /// service loop; cycles and every observability stream are
    /// byte-identical at any chunk width, width 1 included.
    ///
    /// `base_seq` is the global index of `batch`'s first access. When
    /// `ring` is given, every access the deterministic sampler selects at
    /// `rate` ([`sampled`]) gets an [`AccessRecord`]: its critical-path
    /// time split exactly into lookup / queue-wait / service / stall. The
    /// caller must cut chunks so no epoch boundary or warm-up snapshot
    /// point falls strictly inside one (the per-chunk plan staging would
    /// otherwise reorder controller work across the snapshot).
    ///
    /// Staging is legal because the controller never reads the clock or
    /// the devices, and servicing access `i` never mutates controller
    /// state — see DESIGN.md §10 for the full argument.
    // audit: hot-path
    pub fn step_batch(
        &mut self,
        batch: &AccessBatch,
        plans: &mut PlanBuffer,
        base_seq: u64,
        mut ring: Option<&mut LatRing>,
        rate: u64,
    ) {
        {
            let _lookup = span::span(Phase::CtrlLookup);
            self.controller.access_batch(batch, plans);
        }
        let service = span::span(Phase::DramService);
        for i in 0..batch.len() {
            let view = plans.entry(i);
            self.counters.accesses += 1;
            self.counters.instructions += u64::from(batch.insts[i]);
            self.path_counts[view.path.index()] += 1;
            if let Some(acc) = self.traffic.as_deref_mut() {
                acc.record_view(view.critical, view.background);
            }
            let seq = base_seq + i as u64;
            let probing = ring.is_some() && sampled(seq, rate);
            let mut t = self.now + u64::from(view.metadata_cycles);
            let mut mal = u64::from(view.metadata_cycles);
            // Bus-queue wait of non-metadata critical ops, measured only
            // for sampled accesses by snapshotting the device's exact
            // running queue-wait sum around each op.
            let mut queue = 0u64;
            for k in 0..view.critical.len() {
                let op = view.critical[k];
                let start = t;
                let q0 = if probing && op.cause != TrafficCause::Metadata {
                    self.device(op.mem).histograms().queue_wait.sum()
                } else {
                    0
                };
                t = self.device(op.mem).access(op.addr, op.bytes, op.kind, t);
                if op.cause == TrafficCause::Metadata {
                    mal += t - start;
                } else if probing {
                    queue += self.device(op.mem).histograms().queue_wait.sum() - q0;
                }
            }
            let raw_latency = t - self.now;
            if probing {
                if let Some(r) = ring.as_deref_mut() {
                    r.push(AccessRecord {
                        seq,
                        path: view.path,
                        lookup: mal,
                        queue,
                        service: raw_latency - mal - queue,
                        stall: view.stall_cycles,
                        total: raw_latency + view.stall_cycles,
                    });
                }
            }
            // Background movement consumes bandwidth/energy but does not
            // stall this request. It is issued at the current clock (not
            // at the raw completion time): the clock advances by the
            // MLP-overlapped exposed latency, so issuing background work
            // further in the future would let device cursors drift
            // unboundedly ahead of sim time and charge every later demand
            // for queueing that never happens in a real (reordering,
            // demand-first) memory controller.
            let background_at = self.now;
            for k in 0..view.background.len() {
                let op = view.background[k];
                self.device(op.mem).access(op.addr, op.bytes, op.kind, background_at);
            }
            let (compute, exposed) =
                self.params.core_cycles(batch.insts[i], raw_latency, batch.kinds[i]);
            self.counters.demand_cycles += exposed;
            self.counters.mal_cycles += mal;
            self.counters.stall_cycles += view.stall_cycles;
            self.now += compute + exposed + view.stall_cycles;
        }
        drop(service);
    }

    // audit: hot-path
    fn device(&mut self, mem: Mem) -> &mut DramDevice {
        match mem {
            Mem::Hbm => &mut self.hbm,
            Mem::OffChip => &mut self.dram,
        }
    }

    /// Finalizes the run (controller drain) and returns
    /// `(hbm, dram)` device references for reporting.
    pub fn finish(&mut self) -> (&DramDevice, &DramDevice) {
        let mut plan = AccessPlan::new();
        self.controller.finish(&mut plan);
        if let Some(acc) = self.traffic.as_deref_mut() {
            acc.record_drain(&plan);
        }
        let t = self.now;
        for op in &plan.background {
            self.device(op.mem).access(op.addr, op.bytes, op.kind, t);
        }
        (&self.hbm, &self.dram)
    }

    /// Memory dynamic energy in pJ (both devices).
    pub fn dynamic_energy_pj(&self) -> f64 {
        let hbm = if self.uses_hbm { self.hbm.dynamic_energy_pj() } else { 0.0 };
        hbm + self.dram.dynamic_energy_pj()
    }

    /// Memory background (static + refresh) energy in pJ over the run.
    pub fn background_energy_pj(&self) -> f64 {
        let hbm = if self.uses_hbm { self.hbm.background_energy_pj(self.now) } else { 0.0 };
        hbm + self.dram.background_energy_pj(self.now)
    }

    /// HBM device counters.
    pub fn hbm(&self) -> &DramDevice {
        &self.hbm
    }

    /// Off-chip device counters.
    pub fn dram(&self) -> &DramDevice {
        &self.dram
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bumblebee_core::{BumblebeeConfig, BumblebeeController};
    use memsim_types::{Addr, TrafficDevice};

    fn geometry() -> Geometry {
        Geometry::paper(256)
    }

    fn system() -> System<BumblebeeController> {
        let g = geometry();
        System::new(
            BumblebeeController::new(g, BumblebeeConfig::default()),
            &g,
            SimParams::default(),
            true,
        )
    }

    /// Steps one access as a width-1 chunk with a rate-1 latency ring
    /// (every access is sampled) and returns its record.
    fn traced(s: &mut System<BumblebeeController>, access: Access) -> AccessRecord {
        let mut batch = AccessBatch::new();
        batch.push(access.addr.0, access.kind, access.insts);
        let mut ring = LatRing::new(1);
        let seq = s.counters().accesses;
        s.step_batch(&batch, &mut PlanBuffer::new(), seq, Some(&mut ring), 1);
        ring.into_vec().pop().expect("rate 1 samples every access")
    }

    /// Raw critical-path latency of a record (its total minus OS stalls).
    fn raw(r: &AccessRecord) -> u64 {
        r.total - r.stall
    }

    /// A mixed read/write stream over a small footprint.
    fn stream() -> Vec<Access> {
        (0..500u64)
            .map(|i| Access {
                addr: Addr(((i * 37) % 300) * 64),
                kind: if i % 5 == 0 { AccessKind::Write } else { AccessKind::Read },
                insts: (i % 40) as u32,
            })
            .collect()
    }

    /// Feeds `accesses` through `step_batch` in chunks of `width`,
    /// sampling into `ring` at `rate` when one is given.
    fn run_chunks(
        s: &mut System<BumblebeeController>,
        accesses: &[Access],
        width: usize,
        mut ring: Option<&mut LatRing>,
        rate: u64,
    ) {
        let mut plans = PlanBuffer::new();
        let mut batch = AccessBatch::new();
        let mut base = 0u64;
        for chunk in accesses.chunks(width) {
            batch.clear();
            for a in chunk {
                batch.push(a.addr.0, a.kind, a.insts);
            }
            s.step_batch(&batch, &mut plans, base, ring.as_deref_mut(), rate);
            base += chunk.len() as u64;
        }
    }

    #[test]
    fn step_advances_clock_and_counts() {
        let mut s = system();
        s.step(Access { addr: Addr(0), kind: AccessKind::Read, insts: 100 });
        assert!(s.now() > 0);
        assert_eq!(s.counters().accesses, 1);
        assert_eq!(s.counters().instructions, 100);
        let r = traced(&mut s, Access::read(Addr(64)));
        assert!(raw(&r) > 0);
        assert_eq!(s.counters().accesses, 2);
    }

    #[test]
    fn hbm_hits_are_faster_than_offchip_misses() {
        let mut s = system();
        let miss = raw(&traced(&mut s, Access::read(Addr(0))));
        // The immediately following hit may wait for the in-flight block
        // fill (real bandwidth contention); once the fill drains, steady
        // HBM hits must be faster than the cold off-chip miss.
        let mut hit = u64::MAX;
        for _ in 0..8 {
            let again = Access { addr: Addr(0), kind: AccessKind::Read, insts: 1000 };
            hit = raw(&traced(&mut s, again));
        }
        assert!(hit < miss, "steady hit {hit} vs cold miss {miss}");
    }

    #[test]
    fn writes_expose_no_latency() {
        let mut s = system();
        s.step(Access::read(Addr(0)));
        let before = s.counters().demand_cycles;
        s.step(Access { addr: Addr(64), kind: AccessKind::Write, insts: 10 });
        assert_eq!(s.counters().demand_cycles, before);
    }

    #[test]
    fn background_traffic_reaches_devices() {
        let mut s = system();
        s.step(Access::read(Addr(0))); // triggers a block fill
        let (hbm, dram) = (s.hbm().counters(), s.dram().counters());
        assert!(hbm.write_bytes > 0, "fill wrote into HBM");
        assert!(dram.read_bytes > 0);
    }

    #[test]
    fn energy_accumulates() {
        let mut s = system();
        for i in 0..50u64 {
            s.step(Access::read(Addr(i * 64)));
        }
        assert!(s.dynamic_energy_pj() > 0.0);
        assert!(s.background_energy_pj() > 0.0);
    }

    #[test]
    fn sampled_decomposition_is_exact_and_paths_reconcile() {
        let mut s = system();
        let accesses: Vec<Access> =
            (0..200u64).map(|i| Access::read(Addr((i % 40) * 64))).collect();
        let mut ring = LatRing::new(1024);
        run_chunks(&mut s, &accesses, 16, Some(&mut ring), 1);
        let records = ring.into_vec();
        assert_eq!(records.len(), accesses.len(), "rate 1 samples every access");
        let mut demand = 0u64;
        for (seq, r) in records.iter().enumerate() {
            assert_eq!(r.seq, seq as u64);
            assert_eq!(r.lookup + r.queue + r.service + r.stall, r.total, "parts partition total");
            demand += SimParams::default().mlp.div_ceil(raw(r));
        }
        assert_eq!(demand, s.counters().demand_cycles, "records reproduce the exposed latency");
        assert_eq!(s.path_counts().iter().sum::<u64>(), s.counters().accesses);
        let st = s.controller().stats().clone();
        assert_eq!(s.path_counts()[0] + s.path_counts()[1], st.hbm_hits);
        assert_eq!(
            s.path_counts()[2] + s.path_counts()[3] + s.path_counts()[4],
            st.offchip_serves
        );
    }

    #[test]
    fn sampling_never_perturbs_the_cycle_domain() {
        let accesses = stream();
        let mut plain = system();
        let mut sampled = system();
        run_chunks(&mut plain, &accesses, 13, None, 0);
        let mut ring = LatRing::new(1024);
        run_chunks(&mut sampled, &accesses, 13, Some(&mut ring), 1);
        assert_eq!(ring.len(), accesses.len());
        assert_eq!(plain.now(), sampled.now(), "probing never perturbs the clock");
        assert_eq!(plain.counters(), sampled.counters());
        assert_eq!(plain.path_counts(), sampled.path_counts());
        assert_eq!(plain.hbm().counters(), sampled.hbm().counters());
        assert_eq!(plain.dram().counters(), sampled.dram().counters());
    }

    #[test]
    fn step_batch_matches_per_access_stepping() {
        let accesses = stream();
        let mut serial = system();
        let mut batched = system();
        let mut one_wide = system();
        for s in [&mut serial, &mut batched, &mut one_wide] {
            s.enable_traffic_accounting();
        }
        for a in &accesses {
            serial.step(*a);
        }
        // Awkward chunk width (ends mid-stream, short tail), sampled,
        // against the width-1 reference sampled at the same rate.
        let rate = 8u64;
        let mut ring_b = LatRing::new(1024);
        run_chunks(&mut batched, &accesses, 13, Some(&mut ring_b), rate);
        let mut ring_1 = LatRing::new(1024);
        run_chunks(&mut one_wide, &accesses, 1, Some(&mut ring_1), rate);
        for other in [&batched, &one_wide] {
            assert_eq!(serial.now(), other.now(), "clock domain identical");
            assert_eq!(serial.counters(), other.counters());
            assert_eq!(serial.path_counts(), other.path_counts());
            assert_eq!(serial.traffic(), other.traffic());
            assert_eq!(serial.hbm().histograms(), other.hbm().histograms());
            assert_eq!(serial.dram().histograms(), other.dram().histograms());
        }
        let (b, one) = (ring_b.into_vec(), ring_1.into_vec());
        assert!(!b.is_empty());
        assert_eq!(b, one, "sampled records identical");
    }

    #[test]
    fn bw_point_class_bytes_reconcile_with_the_devices() {
        let mut s = system();
        s.enable_traffic_accounting();
        for a in stream() {
            s.step(a);
        }
        let p = s.bw_point();
        let class = |d: TrafficDevice| p.class_bytes[d.index()];
        let hbm = class(TrafficDevice::MHbm) + class(TrafficDevice::CHbm);
        assert!(hbm > 0);
        assert_eq!(hbm, s.hbm().counters().total_bytes());
        assert_eq!(class(TrafficDevice::OffChip), s.dram().counters().total_bytes());
        assert_eq!(p.cycles, s.now());
        assert_eq!(p.hbm_busy, s.hbm().channel_busy_cycles());
    }

    #[test]
    fn finish_drains_controller() {
        let mut s = system();
        s.step(Access::read(Addr(0)));
        let (_, _) = s.finish();
        assert!(s.controller().overfetch_ratio().is_some());
    }
}
