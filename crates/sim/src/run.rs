//! Run configuration and the single-run entry point.

use crate::designs::{AnyController, Design};
use crate::engine::DEFAULT_BATCH;
use crate::report::SimReport;
use crate::system::{SimParams, System, SystemCounters};
use memsim_obs::span::{self, Phase};
use memsim_obs::{
    AccessRecord, BwPoint, DeviceHistograms, EpochSnapshot, LatRing, MetricsConfig, RunRecorder,
    TimedEvent, TrafficAccum,
};
use memsim_trace::{SpecProfile, Workload};
use memsim_types::{AccessBatch, Geometry, GeometryError, HybridMemoryController, PlanBuffer};

/// Scale, geometry, SRAM budget and access volume of one experiment.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Capacity divisor relative to Table I (1 = paper scale).
    pub scale: u64,
    /// Memory geometry (Table I scaled, possibly with Fig. 6 block/page
    /// overrides).
    pub geometry: Geometry,
    /// SRAM metadata budget (the paper's 512 KB, scaled with capacity).
    pub sram_budget: u64,
    /// LLC-miss accesses simulated per run.
    pub accesses: u64,
    /// Accesses before measurement starts (cache warm-up).
    pub warmup: u64,
    /// Core timing parameters.
    pub params: SimParams,
    /// Workload RNG seed.
    pub seed: u64,
}

impl RunConfig {
    /// A configuration at capacity divisor `scale` with `accesses`
    /// measured requests.
    ///
    /// # Panics
    ///
    /// Panics if the scaled geometry is invalid (power-of-two scales up to
    /// 1024 are always fine).
    pub fn at_scale(scale: u64, accesses: u64) -> RunConfig {
        RunConfig {
            scale,
            geometry: Geometry::paper(scale),
            sram_budget: (512 << 10) / scale,
            accesses,
            warmup: accesses / 5,
            params: SimParams::default(),
            seed: 0xB0B1_BEE5,
        }
    }

    /// Tiny scale for unit/integration tests (fast, still exercises every
    /// mechanism).
    pub fn tiny() -> RunConfig {
        RunConfig::at_scale(256, 20_000)
    }

    /// The default experiment scale (1/16 of Table I, as DESIGN.md
    /// documents).
    pub fn scaled() -> RunConfig {
        RunConfig::at_scale(16, 400_000)
    }

    /// Paper-scale geometry (slow; for `--full` runs).
    pub fn full() -> RunConfig {
        RunConfig::at_scale(1, 2_000_000)
    }

    /// The geometry in use.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// Replaces block/page sizes (Fig. 6 design-space points).
    ///
    /// # Errors
    ///
    /// Returns the underlying [`GeometryError`] if the combination is
    /// invalid.
    pub fn with_block_page(mut self, block_bytes: u64, page_bytes: u64) -> Result<RunConfig, GeometryError> {
        self.geometry = Geometry::builder()
            .block_bytes(block_bytes)
            .page_bytes(page_bytes)
            .hbm_bytes(self.geometry.hbm_bytes())
            .dram_bytes(self.geometry.dram_bytes())
            .hbm_ways(self.geometry.hbm_ways())
            .build()?;
        Ok(self)
    }

    /// Builds the workload stream for `profile` under this configuration
    /// (footprint scaled with the geometry, addresses bounded by the flat
    /// space).
    pub fn workload(&self, profile: &SpecProfile) -> Workload {
        let spec = profile.spec(self.scale);
        Workload::new(spec, self.geometry.flat_bytes(), self.seed)
    }
}

/// The deterministic observability harvest of one instrumented run: the
/// controller's epoch time-series and trace events plus the per-device
/// latency / queue-wait histograms. Everything here lives in the simulated
/// cycle domain, so it is byte-identical across `--jobs` widths — wall-clock
/// telemetry deliberately lives elsewhere (the engine).
#[derive(Debug, Clone)]
pub struct RunObservations {
    /// Epoch snapshots, in epoch order (warm-up accesses included).
    pub epochs: Vec<EpochSnapshot>,
    /// Newest trace events, oldest first.
    pub events: Vec<TimedEvent>,
    /// Events dropped because the ring was full.
    pub dropped_events: u64,
    /// Sampled per-access latency records, seq order (empty when
    /// `sample_rate` is 0).
    pub records: Vec<AccessRecord>,
    /// Sampled records dropped because the latency ring was full.
    pub dropped_records: u64,
    /// The sampling rate the records were taken at (0 = tracing disabled).
    pub sample_rate: u64,
    /// Full (unsampled) per-path access counts over the whole run
    /// (warm-up included), indexed by `AccessPath::index` — these
    /// reconcile exactly against `CtrlStats` hit/off-chip counters.
    pub path_counts: [u64; 5],
    /// HBM device distributions.
    pub hbm: DeviceHistograms,
    /// Off-chip DRAM device distributions.
    pub dram: DeviceHistograms,
    /// Cause-attributed traffic accounting over the whole run (warm-up,
    /// measurement and end-of-run drain): the per-device-class per-cause
    /// matrix plus op-size / MLP histograms. Reconciles exactly against
    /// the report's `hbm_bytes` / `dram_bytes` device totals.
    pub traffic: TrafficAccum,
    /// Cumulative bandwidth snapshots at each epoch boundary, epoch
    /// order (the `bw_epoch` utilization series source).
    pub bw_points: Vec<BwPoint>,
}

/// Runs `design` on `profile` under `cfg` and reports: the plain
/// (unobserved) case of [`run_design_batched`] at [`DEFAULT_BATCH`].
///
/// # Errors
///
/// Currently infallible in practice; the `Result` guards future
/// configuration validation.
pub fn run_design(
    design: Design,
    cfg: &RunConfig,
    profile: &SpecProfile,
) -> Result<SimReport, GeometryError> {
    run_design_batched(design, cfg, profile, None, DEFAULT_BATCH).map(|(report, _)| report)
}

/// Runs `design` on `profile` under `cfg` through the staged batch
/// pipeline, the simulator's one driver loop: the workload generates
/// chunks of up to `batch` accesses straight into a flat
/// [`AccessBatch`], the controller plans each whole chunk
/// ([`HybridMemoryController::access_batch`]) and the system services the
/// sealed plans in stream order ([`System::step_batch`]). Chunks are cut
/// at epoch boundaries and the warm-up snapshot point, so cycles and
/// every JSONL stream are byte-identical at any `batch ≥ 1` (enforced by
/// `tests/batch_differential.rs`).
///
/// When `metrics` is given, a [`RunRecorder`] is installed and the
/// harvested [`RunObservations`] are returned alongside the report. The
/// recorder counts from access 0, so warm-up epochs appear in the
/// time-series (useful: that is where the cache fills).
///
/// # Errors
///
/// See [`run_design`].
pub fn run_design_batched(
    design: Design,
    cfg: &RunConfig,
    profile: &SpecProfile,
    metrics: Option<&MetricsConfig>,
    batch: usize,
) -> Result<(SimReport, Option<RunObservations>), GeometryError> {
    // Root span of the whole cell: everything below nests under it, so the
    // collected tree's self times sum to (nearly all of) the cell's wall
    // time. Inert unless a `span` profiling session is active.
    let _cell = span::span(Phase::Cell);
    let controller = design.build(cfg.geometry, cfg.sram_budget);
    Ok(run_controller(controller, design, cfg, profile, metrics, batch))
}

/// The driver loop behind [`run_design_batched`], on an already-built
/// `controller` (`design` supplies the report label and whether HBM
/// background energy counts). Sweeps that build controllers from explicit
/// configurations run through here too.
pub(crate) fn run_controller(
    mut controller: AnyController,
    design: Design,
    cfg: &RunConfig,
    profile: &SpecProfile,
    metrics: Option<&MetricsConfig>,
    batch: usize,
) -> (SimReport, Option<RunObservations>) {
    if let Some(m) = metrics {
        controller.install_recorder(Box::new(RunRecorder::new(m)));
    }
    let mut system = System::new(controller, &cfg.geometry, cfg.params, design.uses_hbm());
    if metrics.is_some() {
        system.enable_traffic_accounting();
    }
    let mut workload = cfg.workload(profile);
    let sample_rate = metrics.map_or(0, |m| m.sample_rate);
    let mut lat_ring = metrics
        .filter(|m| m.sample_rate > 0)
        .map(|m| LatRing::new(m.record_capacity));
    // Epoch-boundary bandwidth snapshots: boundary B captures the state
    // after accesses 0..B.
    let interval = metrics.map_or(0, |m| m.epoch_interval);
    let mut next_boundary = if interval > 0 { interval } else { u64::MAX };
    let mut bw_points: Vec<BwPoint> = Vec::new();

    // `seq` is the 0-based global access index the sampler keys on.
    let total = cfg.warmup + cfg.accesses;
    let width = batch.max(1) as u64;
    let mut soa = AccessBatch::with_capacity(batch.max(1));
    let mut plans = PlanBuffer::new();
    let mut warm: Option<(SystemCounters, u64)> = None;
    let mut seq = 0u64;
    while seq < total {
        // Boundary catch-up and the warm snapshot happen only between
        // chunks: the chunk cut below guarantees neither point ever falls
        // strictly inside one.
        while next_boundary <= seq {
            bw_points.push(system.bw_point());
            next_boundary += interval;
        }
        if warm.is_none() && seq >= cfg.warmup {
            warm = Some((*system.counters(), system.now()));
        }
        let mut end = (seq + width).min(total).min(next_boundary);
        if seq < cfg.warmup {
            end = end.min(cfg.warmup);
        }
        {
            let _gen = span::span(Phase::TraceGen);
            workload.fill_batch(&mut soa, (end - seq) as usize);
        }
        system.step_batch(&soa, &mut plans, seq, lat_ring.as_mut(), sample_rate);
        seq = end;
    }
    while next_boundary <= seq {
        bw_points.push(system.bw_point());
        next_boundary += interval;
    }
    // Warm-up ends by snapshotting instruction/cycle accounting; the
    // report measures deltas against it.
    let (warm_counters, warm_cycles) =
        warm.unwrap_or_else(|| (*system.counters(), system.now()));
    harvest(
        system,
        design,
        cfg,
        profile,
        warm_counters,
        warm_cycles,
        lat_ring,
        sample_rate,
        bw_points,
    )
}

// End-of-run harvest: measured deltas against the warm snapshot,
// controller drain, observability assembly and the report.
#[allow(clippy::too_many_arguments)]
fn harvest(
    mut system: System<AnyController>,
    design: Design,
    cfg: &RunConfig,
    profile: &SpecProfile,
    warm: SystemCounters,
    warm_cycles: u64,
    mut lat_ring: Option<LatRing>,
    sample_rate: u64,
    bw_points: Vec<BwPoint>,
) -> (SimReport, Option<RunObservations>) {
    let instructions = system.counters().instructions - warm.instructions;
    let cycles = system.now() - warm_cycles;
    let mal_cycles = system.counters().mal_cycles - warm.mal_cycles;
    let stall_cycles = system.counters().stall_cycles - warm.stall_cycles;
    let (hbm, dram) = system.finish();
    let (hbm_counters, dram_counters) = (*hbm.counters(), *dram.counters());
    let (hbm_hist, dram_hist) = (hbm.histograms().clone(), dram.histograms().clone());
    let path_counts = *system.path_counts();
    let traffic = system.take_traffic();

    let observations = system.controller_mut().take_recorder().and_then(|rec| {
        let (epochs, events, dropped_events) = rec.into_run()?.into_parts();
        let (records, dropped_records) = match lat_ring.take() {
            Some(ring) => {
                let dropped = ring.dropped();
                (ring.into_vec(), dropped)
            }
            None => (Vec::new(), 0),
        };
        Some(RunObservations {
            epochs,
            events,
            dropped_events,
            records,
            dropped_records,
            sample_rate,
            path_counts,
            hbm: hbm_hist,
            dram: dram_hist,
            traffic: traffic.expect("metrics on, so traffic accounting was enabled"),
            bw_points,
        })
    });

    let controller = system.controller();
    let report = SimReport {
        design: design.label().to_string(),
        workload: profile.name.to_string(),
        instructions,
        cycles: cycles.max(1),
        ipc: instructions as f64 / cycles.max(1) as f64,
        accesses: cfg.accesses,
        hbm_bytes: hbm_counters.total_bytes(),
        dram_bytes: dram_counters.total_bytes(),
        dynamic_energy_pj: system.dynamic_energy_pj(),
        background_energy_pj: system.background_energy_pj(),
        mal_cycles,
        stall_cycles,
        overfetch: controller.overfetch_ratio(),
        metadata_bytes: controller.metadata_bytes(),
        os_visible_bytes: controller.os_visible_bytes(),
        mode_switch_bytes: controller.mode_switch_bytes(),
        page_faults: controller.page_faults(),
        stats: controller.stats().clone(),
    };
    (report, observations)
}

/// Runs the no-HBM reference on `profile` (the normalization denominator).
///
/// # Errors
///
/// See [`run_design`].
pub fn run_reference(cfg: &RunConfig, profile: &SpecProfile) -> Result<SimReport, GeometryError> {
    run_design(Design::NoHbm, cfg, profile)
}

/// A geometric mean together with how many inputs had to be clamped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Geomean {
    /// The mean (0 for an empty slice).
    pub value: f64,
    /// Inputs that were non-positive or NaN and got clamped to the epsilon.
    /// Anything above zero means a run produced a degenerate metric and the
    /// figure is quietly misleading — surface it.
    pub clamped: usize,
}

/// Geometric mean with clamp diagnostics: non-positive (or NaN) entries are
/// clamped to a tiny epsilon so a single broken run cannot zero the whole
/// figure, and the number of such entries is reported.
pub fn geomean_diag(values: &[f64]) -> Geomean {
    if values.is_empty() {
        return Geomean { value: 0.0, clamped: 0 };
    }
    let mut clamped = 0usize;
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            if v >= 1e-12 {
                v.ln()
            } else {
                clamped += 1;
                1e-12f64.ln()
            }
        })
        .sum();
    Geomean { value: (log_sum / values.len() as f64).exp(), clamped }
}

/// Geometric mean (0 for an empty slice). In debug builds, panics if any
/// entry had to be clamped — use [`geomean_diag`] where degenerate inputs
/// are expected and must be reported instead.
pub fn geomean(values: &[f64]) -> f64 {
    let g = geomean_diag(values);
    debug_assert_eq!(
        g.clamped, 0,
        "geomean clamped {} non-positive entr{} in {values:?}",
        g.clamped,
        if g.clamped == 1 { "y" } else { "ies" }
    );
    g.value
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim_obs::MetricsConfig;

    #[test]
    fn tiny_run_produces_consistent_report() {
        let cfg = RunConfig::tiny();
        let r = run_design(Design::Bumblebee, &cfg, &SpecProfile::mcf()).unwrap();
        assert_eq!(r.design, "Bumblebee");
        assert_eq!(r.workload, "mcf");
        assert!(r.cycles > 0 && r.instructions > 0);
        assert!(r.ipc > 0.0);
        assert!(r.hbm_bytes > 0, "Bumblebee must use HBM");
    }

    #[test]
    fn bumblebee_beats_no_hbm_on_mcf() {
        let cfg = RunConfig::tiny();
        let base = run_reference(&cfg, &SpecProfile::mcf()).unwrap();
        let bee = run_design(Design::Bumblebee, &cfg, &SpecProfile::mcf()).unwrap();
        assert!(
            bee.normalized_ipc(&base) > 1.0,
            "bumblebee {:.3} vs baseline 1.0",
            bee.normalized_ipc(&base)
        );
    }

    #[test]
    fn geomean_math() {
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_diag_counts_clamped_entries() {
        let clean = geomean_diag(&[2.0, 8.0]);
        assert_eq!(clean.clamped, 0);
        assert!((clean.value - 4.0).abs() < 1e-12);
        // Non-positive entries are clamped, not fatal, and counted.
        let dirty = geomean_diag(&[0.0, 4.0, -1.0, f64::NAN]);
        assert_eq!(dirty.clamped, 3);
        assert!(dirty.value >= 0.0);
        assert_eq!(geomean_diag(&[]).clamped, 0);
    }

    #[test]
    fn fig6_block_page_override() {
        let cfg = RunConfig::tiny().with_block_page(1 << 10, 96 << 10).unwrap();
        assert_eq!(cfg.geometry().block_bytes(), 1 << 10);
        assert_eq!(cfg.geometry().page_bytes(), 96 << 10);
        assert!(RunConfig::tiny().with_block_page(3000, 96 << 10).is_err());
    }

    #[test]
    fn instrumented_run_harvests_observations() {
        let cfg = RunConfig::tiny();
        let metrics =
            MetricsConfig { epoch_interval: 1000, event_capacity: 128, ..MetricsConfig::default() };
        let (report, obs) = run_design_batched(
            Design::Bumblebee,
            &cfg,
            &SpecProfile::mcf(),
            Some(&metrics),
            DEFAULT_BATCH,
        )
        .unwrap();
        let obs = obs.expect("metrics requested");
        // Epochs cover warm-up + measured accesses.
        assert_eq!(obs.epochs.len() as u64, (cfg.warmup + cfg.accesses) / 1000);
        assert!(!obs.events.is_empty());
        assert!(obs.records.is_empty(), "sampling off by default");
        assert_eq!(obs.sample_rate, 0);
        assert_eq!(obs.path_counts.iter().sum::<u64>(), cfg.warmup + cfg.accesses);
        assert!(obs.hbm.latency.total() > 0, "HBM saw traffic");
        assert!(obs.dram.latency.total() > 0, "DRAM saw traffic");
        // Instrumentation does not perturb the simulation itself.
        let plain = run_design(Design::Bumblebee, &cfg, &SpecProfile::mcf()).unwrap();
        assert_eq!(report.cycles, plain.cycles);
        assert_eq!(report.hbm_bytes, plain.hbm_bytes);
        // And without metrics there is nothing to harvest.
        let (_, none) =
            run_design_batched(Design::Bumblebee, &cfg, &SpecProfile::mcf(), None, DEFAULT_BATCH)
                .unwrap();
        assert!(none.is_none());
    }

    #[test]
    fn sampled_tracing_records_and_reconciles() {
        let cfg = RunConfig::tiny();
        let metrics = MetricsConfig {
            epoch_interval: 1000,
            event_capacity: 128,
            sample_rate: 64,
            record_capacity: 65536,
        };
        let (report, obs) = run_design_batched(
            Design::Bumblebee,
            &cfg,
            &SpecProfile::mcf(),
            Some(&metrics),
            DEFAULT_BATCH,
        )
        .unwrap();
        let obs = obs.expect("metrics requested");
        assert_eq!(obs.sample_rate, 64);
        assert!(!obs.records.is_empty(), "rate 64 over 24k accesses must sample");
        assert_eq!(obs.dropped_records, 0, "capacity covers the whole run");
        // Records are seq-sorted, components partition the total, and the
        // full path counts reconcile against the controller's counters.
        for w in obs.records.windows(2) {
            assert!(w[0].seq < w[1].seq);
        }
        for r in &obs.records {
            assert_eq!(r.lookup + r.queue + r.service + r.stall, r.total);
        }
        assert_eq!(obs.path_counts[0] + obs.path_counts[1], report.stats.hbm_hits);
        assert_eq!(
            obs.path_counts[2] + obs.path_counts[3] + obs.path_counts[4],
            report.stats.offchip_serves
        );
        // Probing on sampled accesses never perturbs the cycle domain.
        let plain = run_design(Design::Bumblebee, &cfg, &SpecProfile::mcf()).unwrap();
        assert_eq!(report.cycles, plain.cycles);
        assert_eq!(report.hbm_bytes, plain.hbm_bytes);
    }

    #[test]
    fn deterministic_reports() {
        let cfg = RunConfig::tiny();
        let a = run_design(Design::Alloy, &cfg, &SpecProfile::xz()).unwrap();
        let b = run_design(Design::Alloy, &cfg, &SpecProfile::xz()).unwrap();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.hbm_bytes, b.hbm_bytes);
    }
}
