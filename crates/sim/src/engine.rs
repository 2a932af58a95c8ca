//! The experiment engine: parallel execution of an [`ExperimentMatrix`].
//!
//! A shared-cursor executor over `std::thread::scope` (no external
//! dependencies): workers pop the next unclaimed cell from an atomic
//! cursor, run it with [`run_design_batched`], and slot the [`SimReport`]
//! into the cell's position, so the assembled [`ResultSet`] is independent
//! of worker count and scheduling. Width comes from `--jobs N`, the
//! `BUMBLEBEE_JOBS` environment variable, or the machine's available
//! parallelism; `1` reproduces the old sequential behavior exactly — and,
//! because per-cell seeds are derived in the matrix rather than at run
//! time, every width produces byte-identical reports.

use crate::jsonl::JsonObj;
use crate::matrix::{Cell, ExperimentMatrix};
use crate::report::SimReport;
use crate::run::{run_design_batched, RunObservations};
use memsim_dram::presets;
use memsim_obs::{span, BwPoint, LatCollector, MetricsConfig, Pow2Histogram, SpanTree};
use memsim_types::{AccessPath, GeometryError, TrafficCause, TrafficDevice};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Nanoseconds between two progress heartbeat lines (see
/// [`Engine::with_heartbeat_nanos`]).
const DEFAULT_HEARTBEAT_NANOS: u64 = 5_000_000_000;

/// Default access-pipeline chunk width ([`Engine::with_batch`]): large
/// enough to amortize per-chunk dispatch to noise, small enough that the
/// SoA buffers and plan arena stay cache-resident.
pub const DEFAULT_BATCH: usize = 4096;

/// Parallel executor for experiment matrices; see the module docs.
#[derive(Debug, Clone)]
pub struct Engine {
    jobs: usize,
    batch: usize,
    progress: bool,
    heartbeat_nanos: u64,
    metrics: Option<MetricsConfig>,
    spans: bool,
}

impl Engine {
    /// An engine running `jobs` cells concurrently (clamped to ≥ 1),
    /// without progress output or metrics recording, at the default batch
    /// width ([`DEFAULT_BATCH`]).
    pub fn new(jobs: usize) -> Engine {
        Engine {
            jobs: jobs.max(1),
            batch: DEFAULT_BATCH,
            progress: false,
            heartbeat_nanos: DEFAULT_HEARTBEAT_NANOS,
            metrics: None,
            spans: false,
        }
    }

    /// Widths from the environment: `BUMBLEBEE_JOBS` (cells run
    /// concurrently; defaults to the machine's available parallelism) and
    /// `BUMBLEBEE_BATCH` (access-pipeline chunk width; defaults to
    /// [`DEFAULT_BATCH`]).
    ///
    /// # Panics
    ///
    /// A set-but-unusable value (zero or non-numeric) of any variable
    /// panics with a message naming it — a silent fallback would run the
    /// wrong experiment shape without anyone noticing.
    pub fn from_env() -> Engine {
        let jobs = positive_env("BUMBLEBEE_JOBS", std::env::var("BUMBLEBEE_JOBS").ok().as_deref())
            .unwrap_or_else(available_parallelism);
        let batch =
            positive_env("BUMBLEBEE_BATCH", std::env::var("BUMBLEBEE_BATCH").ok().as_deref())
                .unwrap_or(DEFAULT_BATCH);
        Engine::new(jobs).with_batch(batch)
    }

    /// Sets the access-pipeline chunk width (clamped to ≥ 1): every cell
    /// generates, looks up, and services accesses in chunks of up to
    /// `batch`. Purely a performance knob — chunks are cut at epoch
    /// boundaries and the warm-up point, so every output stays
    /// byte-identical at any width (`1`, one access per chunk, is the
    /// unstaged reference wider chunks are compared against).
    pub fn with_batch(mut self, batch: usize) -> Engine {
        self.batch = batch.max(1);
        self
    }

    /// The configured access-pipeline chunk width.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Enables or disables per-cell progress lines on stderr. With
    /// progress on, the engine also emits a periodic heartbeat line
    /// (cells done, elapsed, ETA, accesses/sec, worker utilization).
    pub fn with_progress(mut self, progress: bool) -> Engine {
        self.progress = progress;
        self
    }

    /// Sets the minimum interval between two heartbeat lines (default 5 s);
    /// `0` disables heartbeats while keeping per-cell progress lines.
    pub fn with_heartbeat_nanos(mut self, nanos: u64) -> Engine {
        self.heartbeat_nanos = nanos;
        self
    }

    /// Enables the wall-clock span profiler for every cell: each run gets
    /// its own thread-local profiling session, and the per-cell
    /// [`SpanTree`]s land in [`EngineTelemetry::cell_spans`] (exported as
    /// `kind=span` lines by
    /// [`metrics_jsonl_lines`](ResultSet::metrics_jsonl_lines)).
    pub fn with_spans(mut self, spans: bool) -> Engine {
        self.spans = spans;
        self
    }

    /// Installs a [`RunRecorder`](memsim_obs::RunRecorder) in every cell's
    /// controller, sampling per `metrics`; the run's [`ResultSet`] then
    /// carries [`RunObservations`] and engine telemetry.
    pub fn with_metrics(mut self, metrics: MetricsConfig) -> Engine {
        self.metrics = Some(metrics);
        self
    }

    /// The configured width.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Applies `f` to every item, in parallel up to the engine width.
    /// Results keep item order regardless of scheduling.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let workers = self.jobs.min(items.len());
        if workers <= 1 {
            return items.iter().map(f).collect();
        }
        let cursor = AtomicUsize::new(0);
        let slots: Mutex<Vec<Option<R>>> =
            Mutex::new(std::iter::repeat_with(|| None).take(items.len()).collect());
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let r = f(&items[i]);
                    slots.lock().expect("no panics while holding results lock")[i] = Some(r);
                });
            }
        });
        slots
            .into_inner()
            .expect("workers joined")
            .into_iter()
            .map(|r| r.expect("every slot filled"))
            .collect()
    }

    /// Runs every cell of `matrix` and assembles the indexed result set.
    ///
    /// # Errors
    ///
    /// Returns the first configuration error any cell produced (by cell
    /// order, not completion order).
    pub fn run(&self, matrix: &ExperimentMatrix) -> Result<ResultSet, GeometryError> {
        let total = matrix.len();
        let done = AtomicUsize::new(0);
        let busy_nanos = AtomicU64::new(0);
        let accesses_done = AtomicU64::new(0);
        let last_beat = AtomicU64::new(0);
        let wall = Instant::now(); // audit: allow(det-clock) -- engine wall-time telemetry, excluded from determinism diffs
        let results = self.par_map(matrix.cells(), |cell| {
            if self.spans {
                span::enable();
            }
            let start = Instant::now(); // audit: allow(det-clock) -- per-cell wall-time telemetry, excluded from determinism diffs
            let outcome = run_design_batched(
                cell.design,
                &cell.cfg,
                &cell.profile,
                self.metrics.as_ref(),
                self.batch,
            );
            let nanos = start.elapsed().as_nanos() as u64;
            let tree = if self.spans { Some(span::collect()) } else { None };
            if self.progress {
                let n = done.fetch_add(1, Ordering::Relaxed) + 1;
                eprintln!(
                    "[{} {n}/{total}] {} {} ms",
                    matrix.name(),
                    cell.label(),
                    nanos / 1_000_000
                );
                let busy = busy_nanos.fetch_add(nanos, Ordering::Relaxed) + nanos;
                let accesses = cell.cfg.warmup + cell.cfg.accesses;
                let acc = accesses_done.fetch_add(accesses, Ordering::Relaxed) + accesses;
                let elapsed = wall.elapsed().as_nanos() as u64;
                let prev = last_beat.load(Ordering::Relaxed);
                // One worker wins the right to print each heartbeat.
                if self.heartbeat_nanos > 0
                    && n < total
                    && elapsed.saturating_sub(prev) >= self.heartbeat_nanos
                    && last_beat
                        .compare_exchange(prev, elapsed, Ordering::Relaxed, Ordering::Relaxed)
                        .is_ok()
                {
                    eprintln!(
                        "{}",
                        heartbeat_line(matrix.name(), n, total, elapsed, busy, self.jobs, acc)
                    );
                }
            }
            (outcome, nanos, tree)
        });
        let wall_nanos = wall.elapsed().as_nanos() as u64;
        let mut reports = Vec::with_capacity(total);
        let mut observations = self.metrics.map(|_| Vec::with_capacity(total));
        let mut cell_nanos = Vec::with_capacity(total);
        let mut cell_spans = self.spans.then(|| Vec::with_capacity(total));
        for (r, nanos, tree) in results {
            let (report, obs) = r?;
            if let Some(all) = observations.as_mut() {
                all.push(obs.expect("metrics requested, so every run observes"));
            }
            if let Some(all) = cell_spans.as_mut() {
                all.push(tree.expect("spans requested, so every run profiles"));
            }
            reports.push(report);
            cell_nanos.push(nanos);
        }
        let telemetry = EngineTelemetry { jobs: self.jobs, wall_nanos, cell_nanos, cell_spans };
        Ok(ResultSet::new(matrix, self.jobs, reports, observations, telemetry, self.metrics))
    }
}

/// Formats one progress heartbeat: completed cells, elapsed time, ETA
/// extrapolated from the mean cell rate, cumulative simulated accesses per
/// wall second, and worker utilization so far.
fn heartbeat_line(
    name: &str,
    done: usize,
    total: usize,
    elapsed_nanos: u64,
    busy_nanos: u64,
    jobs: usize,
    accesses_done: u64,
) -> String {
    let secs = elapsed_nanos as f64 / 1e9;
    let eta = if done == 0 { 0.0 } else { secs / done as f64 * (total - done) as f64 };
    let per_sec = if secs > 0.0 { accesses_done as f64 / secs } else { 0.0 };
    let span = jobs as u64 * elapsed_nanos;
    let util = if span == 0 { 0.0 } else { busy_nanos as f64 / span as f64 };
    format!(
        "[{name}] heartbeat: {done}/{total} cells, {secs:.1}s elapsed, eta {eta:.1}s, \
         {per_sec:.0} acc/s, util {:.0}%",
        util * 100.0
    )
}

/// The machine's available parallelism (≥ 1).
fn available_parallelism() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

/// Parses a width override (`BUMBLEBEE_JOBS` / `BUMBLEBEE_BATCH`).
/// `None` means the variable is unset and the caller's default applies.
///
/// # Panics
///
/// A set-but-unusable value (zero or non-numeric) panics with a message
/// naming the variable: silently substituting a different width would run
/// a differently-shaped experiment than the one the user asked for.
fn positive_env(name: &str, var: Option<&str>) -> Option<usize> {
    let raw = var?;
    match raw.trim().parse::<usize>() {
        Ok(v) if v > 0 => Some(v),
        _ => panic!("{name}={raw:?}: expected a positive integer (unset it to use the default)"),
    }
}

/// Wall-clock telemetry of one matrix run.
///
/// Nondeterministic by nature — the engine writes it to a separate
/// `.metrics.jsonl` artifact, never into the byte-compared deterministic
/// outputs.
#[derive(Debug, Clone)]
pub struct EngineTelemetry {
    /// Worker width the run used.
    pub jobs: usize,
    /// Wall time of the whole matrix, in nanoseconds.
    pub wall_nanos: u64,
    /// Per-cell wall time, in cell order, in nanoseconds.
    pub cell_nanos: Vec<u64>,
    /// Per-cell span profiler trees, in cell order, when the run was made
    /// with [`Engine::with_spans`].
    pub cell_spans: Option<Vec<SpanTree>>,
}

impl EngineTelemetry {
    /// Worker utilization: total cell compute time over `jobs × wall`.
    /// 1.0 means every worker was busy the whole run.
    pub fn utilization(&self) -> f64 {
        let busy: u64 = self.cell_nanos.iter().sum();
        let span = self.jobs as u64 * self.wall_nanos;
        if span == 0 {
            0.0
        } else {
            busy as f64 / span as f64
        }
    }
}

/// The reports of one matrix run, indexed by cell id and by
/// `(tag, design, workload)`.
#[derive(Debug, Clone)]
pub struct ResultSet {
    name: String,
    jobs: usize,
    cells: Vec<Cell>,
    reports: Vec<SimReport>,
    observations: Option<Vec<RunObservations>>,
    engine: EngineTelemetry,
    metrics: Option<MetricsConfig>,
    index: BTreeMap<(String, &'static str, String), usize>,
}

impl ResultSet {
    fn new(
        matrix: &ExperimentMatrix,
        jobs: usize,
        reports: Vec<SimReport>,
        observations: Option<Vec<RunObservations>>,
        engine: EngineTelemetry,
        metrics: Option<MetricsConfig>,
    ) -> ResultSet {
        let cells = matrix.cells().to_vec();
        let mut index = BTreeMap::new();
        for c in &cells {
            index.insert((c.tag.clone(), c.design.label(), c.profile.name.to_string()), c.id);
        }
        ResultSet {
            name: matrix.name().to_string(),
            jobs,
            cells,
            reports,
            observations,
            engine,
            metrics,
            index,
        }
    }

    /// The matrix name this set came from.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The width the run used.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Report of cell `id`.
    pub fn report(&self, id: usize) -> &SimReport {
        &self.reports[id]
    }

    /// All reports, in cell order.
    pub fn reports(&self) -> &[SimReport] {
        &self.reports
    }

    /// The cells, in order.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Looks up the report for `(tag, design label, workload)`.
    pub fn get(&self, tag: &str, design: &str, workload: &str) -> Option<&SimReport> {
        self.index
            .get(&(tag.to_string(), design, workload.to_string()))
            .map(|&id| &self.reports[id])
    }

    /// One JSONL line per cell: cell coordinates plus the full report.
    /// Byte-identical across `--jobs` widths for the same matrix.
    pub fn jsonl_lines(&self) -> Vec<String> {
        self.cells
            .iter()
            .zip(&self.reports)
            .map(|(c, r)| {
                let mut obj = JsonObj::new()
                    .str("kind", "report")
                    .str("figure", &self.name)
                    .str("tag", &c.tag)
                    .u64("cell", c.id as u64)
                    .u64("seed", c.cfg.seed)
                    .u64("scale", c.cfg.scale);
                r.append_json(&mut obj);
                obj.finish()
            })
            .collect()
    }

    /// Per-cell observations, when the run recorded metrics.
    pub fn observations(&self) -> Option<&[RunObservations]> {
        self.observations.as_deref()
    }

    /// Wall-clock telemetry of the run (always present).
    pub fn engine_telemetry(&self) -> &EngineTelemetry {
        &self.engine
    }

    fn cell_obj(&self, kind: &str, c: &Cell) -> JsonObj {
        JsonObj::new()
            .str("kind", kind)
            .str("figure", &self.name)
            .str("tag", &c.tag)
            .u64("cell", c.id as u64)
            .str("design", c.design.label())
            .str("workload", c.profile.name)
    }

    fn histogram_line(&self, c: &Cell, device: &str, metric: &str, h: &Pow2Histogram) -> String {
        let mut obj = self
            .cell_obj("histogram", c)
            .str("device", device)
            .str("metric", metric)
            .u64("total", h.total())
            .f64("mean", h.mean())
            .u64("max", h.max());
        for (k, _, count) in h.nonzero() {
            obj = obj.u64(&format!("b{k}"), count);
        }
        obj.finish()
    }

    /// The epoch time-series as JSONL: one `kind=epoch` line per epoch per
    /// cell, then the `kind=histogram` device-distribution lines. Purely
    /// cycle-domain — byte-identical across `--jobs` widths. Empty when the
    /// run recorded no metrics.
    pub fn epochs_jsonl_lines(&self) -> Vec<String> {
        let Some(all) = self.observations.as_deref() else { return Vec::new() };
        let mut lines = Vec::new();
        for (c, obs) in self.cells.iter().zip(all) {
            for s in &obs.epochs {
                let mut obj = self
                    .cell_obj("epoch", c)
                    .u64("epoch", s.epoch)
                    .u64("accesses", s.accesses)
                    .f64("hit_rate", s.hit_rate)
                    .f64("cum_hit_rate", s.cum_hit_rate)
                    .u64("fills", s.fills)
                    .u64("migrations", s.migrations)
                    .u64("evictions", s.evictions)
                    .u64("threshold_rejections", s.threshold_rejections)
                    .f64("chbm_fraction", s.gauges.chbm_fraction)
                    .f64("mhbm_fraction", s.gauges.mhbm_fraction)
                    .f64("rh", s.gauges.rh)
                    .f64("threshold", s.gauges.threshold)
                    .f64("overfetch_ratio", s.gauges.overfetch_ratio);
                for (k, count) in s.gauges.occupancy.iter().enumerate() {
                    obj = obj.u64(&format!("occ{k}"), u64::from(*count));
                }
                lines.push(obj.finish());
            }
            lines.push(self.histogram_line(c, "hbm", "latency", &obs.hbm.latency));
            lines.push(self.histogram_line(c, "hbm", "queue_wait", &obs.hbm.queue_wait));
            lines.push(self.histogram_line(c, "dram", "latency", &obs.dram.latency));
            lines.push(self.histogram_line(c, "dram", "queue_wait", &obs.dram.queue_wait));
        }
        lines
    }

    /// The event trace as JSONL: one `kind=event` line per ring entry per
    /// cell plus a `kind=trace_summary` line with the drop count. Purely
    /// cycle-domain — byte-identical across `--jobs` widths. Empty when the
    /// run recorded no metrics.
    pub fn trace_jsonl_lines(&self) -> Vec<String> {
        let Some(all) = self.observations.as_deref() else { return Vec::new() };
        let mut lines = Vec::new();
        for (c, obs) in self.cells.iter().zip(all) {
            for e in &obs.events {
                lines.push(
                    self.cell_obj("event", c)
                        .u64("seq", e.seq)
                        .str("event", e.event.kind())
                        .u64("set", e.event.set())
                        .opt_u64("page", e.event.page())
                        .opt_u64("block", e.event.block())
                        .opt_u64("victim", e.event.victim())
                        .finish(),
                );
            }
            lines.push(
                self.cell_obj("trace_summary", c)
                    .u64("events", obs.events.len() as u64)
                    .u64("dropped", obs.dropped_events)
                    .finish(),
            );
        }
        lines
    }

    /// The sampled latency-attribution stream as JSONL, per cell:
    /// one `kind=lat` line per sampled [`AccessRecord`](memsim_obs::AccessRecord)
    /// (cycle-domain `lookup`/`queue`/`service`/`stall` decomposition tagged
    /// with its serve path), `kind=lat_epoch` queue-depth gauges,
    /// `kind=lat_hist` per-path latency histograms with p50/p95/p99, and a
    /// closing `kind=lat_summary` line whose per-path totals reconcile
    /// exactly against the cell's controller counters. Purely cycle-domain —
    /// byte-identical across `--jobs` and `--batch` widths. Empty when the
    /// run recorded no metrics or sampling was disabled (`sample_rate` 0).
    pub fn lat_jsonl_lines(&self) -> Vec<String> {
        let Some(all) = self.observations.as_deref() else { return Vec::new() };
        let interval = self.metrics.map_or_else(
            || MetricsConfig::default().epoch_interval,
            |m| m.epoch_interval,
        );
        let mut lines = Vec::new();
        for (c, obs) in self.cells.iter().zip(all) {
            if obs.sample_rate == 0 {
                continue;
            }
            let mut coll = LatCollector::new(interval);
            for r in &obs.records {
                lines.push(
                    self.cell_obj("lat", c)
                        .u64("seq", r.seq)
                        .str("path", r.path.label())
                        .u64("lookup", r.lookup)
                        .u64("queue", r.queue)
                        .u64("service", r.service)
                        .u64("stall", r.stall)
                        .u64("total", r.total)
                        .finish(),
                );
                coll.push(r);
            }
            for g in coll.epochs() {
                lines.push(
                    self.cell_obj("lat_epoch", c)
                        .u64("epoch", g.epoch)
                        .u64("samples", g.samples)
                        .u64("queue_sum", g.queue_sum)
                        .u64("queue_max", g.queue_max)
                        .finish(),
                );
            }
            for path in AccessPath::ALL {
                let p = coll.path(path);
                if p.count == 0 {
                    continue;
                }
                let mut obj = self
                    .cell_obj("lat_hist", c)
                    .str("path", path.label())
                    .u64("count", p.count)
                    .u64("lookup", p.lookup)
                    .u64("queue", p.queue)
                    .u64("service", p.service)
                    .u64("stall", p.stall)
                    .u64("p50", p.hist.percentile(0.50))
                    .u64("p95", p.hist.percentile(0.95))
                    .u64("p99", p.hist.percentile(0.99));
                for (k, _, count) in p.hist.nonzero() {
                    obj = obj.u64(&format!("b{k}"), count);
                }
                lines.push(obj.finish());
            }
            let stats = &self.reports[c.id].stats;
            let mut sum = self
                .cell_obj("lat_summary", c)
                .u64("records", obs.records.len() as u64)
                .u64("dropped", obs.dropped_records)
                .u64("sample_rate", obs.sample_rate);
            for (path, &n) in AccessPath::ALL.iter().zip(&obs.path_counts) {
                sum = sum.u64(path.label(), n);
            }
            lines.push(
                sum.u64("hbm_hits", stats.hbm_hits)
                    .u64("offchip_serves", stats.offchip_serves)
                    .finish(),
            );
        }
        lines
    }

    /// One physical device's `kind=bw_epoch` line: the per-epoch byte and
    /// busy-cycle deltas between two cumulative [`BwPoint`]s plus the
    /// derived achieved-vs-peak utilization gauges.
    #[allow(clippy::too_many_arguments)]
    fn bw_epoch_line(
        &self,
        c: &Cell,
        epoch: u64,
        device: &str,
        bytes: u64,
        cycles: u64,
        peak_bpc: f64,
        prev_busy: &[u64],
        busy: &[u64],
    ) -> String {
        let bpc = if cycles == 0 { 0.0 } else { bytes as f64 / cycles as f64 };
        let util_pct = if peak_bpc == 0.0 { 0.0 } else { 100.0 * bpc / peak_bpc };
        let busy_sum: u64 = busy.iter().zip(prev_busy).map(|(b, p)| b - p).sum();
        let span = cycles * busy.len() as u64;
        let busy_pct = if span == 0 { 0.0 } else { 100.0 * busy_sum as f64 / span as f64 };
        let mut obj = self
            .cell_obj("bw_epoch", c)
            .u64("epoch", epoch)
            .str("device", device)
            .u64("bytes", bytes)
            .u64("cycles", cycles)
            .f64("bpc", bpc)
            .f64("peak_bpc", peak_bpc)
            .f64("util_pct", util_pct)
            .f64("busy_pct", busy_pct);
        for (ch, (b, p)) in busy.iter().zip(prev_busy).enumerate() {
            obj = obj.u64(&format!("ch{ch}"), b - p);
        }
        obj.finish()
    }

    /// The cause-attributed traffic accounting as JSONL, per cell: one
    /// `kind=bw` line per device class (mHBM / cHBM / off-chip) with
    /// per-[`TrafficCause`] byte counters, `kind=bw_epoch`
    /// bandwidth-utilization gauges per epoch per physical device
    /// (achieved bytes/cycle against the Table I theoretical peak, with
    /// per-channel data-bus busy cycles), `kind=bw_hist` op-size and
    /// plan-fan-out (MLP) histograms, and a closing `kind=bw_summary`
    /// line whose per-cause sums reconcile exactly against the report's
    /// `hbm_bytes` / `dram_bytes` device totals (`trace_tool bandwidth`
    /// enforces this). All counters are integers in the simulated cycle
    /// domain and every float is derived from them at emit time, so the
    /// stream is byte-identical across `--jobs` and `--batch` widths.
    /// Empty when the run recorded no metrics.
    pub fn bw_jsonl_lines(&self) -> Vec<String> {
        let Some(all) = self.observations.as_deref() else { return Vec::new() };
        let mut lines = Vec::new();
        for (c, obs) in self.cells.iter().zip(all) {
            let m = &obs.traffic.matrix;
            for device in TrafficDevice::ALL {
                let mut obj = self.cell_obj("bw", c).str("device", device.label());
                for cause in TrafficCause::ALL {
                    obj = obj.u64(cause.label(), m.bytes(device, cause));
                }
                lines.push(
                    obj.u64("bytes", m.device_bytes(device))
                        .u64("ops", m.device_ops(device))
                        .finish(),
                );
            }
            let hbm_cfg = presets::hbm2(c.cfg.geometry.hbm_bytes());
            let dram_cfg = presets::ddr4_3200(c.cfg.geometry.dram_bytes());
            let hbm_peak = hbm_cfg.peak_bytes_per_cpu_cycle();
            let dram_peak = dram_cfg.peak_bytes_per_cpu_cycle();
            let mut prev =
                BwPoint::zeroed(hbm_cfg.channels as usize, dram_cfg.channels as usize);
            for (e, p) in obs.bw_points.iter().enumerate() {
                let mhbm = TrafficDevice::MHbm.index();
                let chbm = TrafficDevice::CHbm.index();
                let off = TrafficDevice::OffChip.index();
                let hbm_bytes = (p.class_bytes[mhbm] + p.class_bytes[chbm])
                    - (prev.class_bytes[mhbm] + prev.class_bytes[chbm]);
                let off_bytes = p.class_bytes[off] - prev.class_bytes[off];
                let cycles = p.cycles - prev.cycles;
                lines.push(self.bw_epoch_line(
                    c,
                    e as u64,
                    "hbm",
                    hbm_bytes,
                    cycles,
                    hbm_peak,
                    &prev.hbm_busy,
                    &p.hbm_busy,
                ));
                lines.push(self.bw_epoch_line(
                    c,
                    e as u64,
                    "dram",
                    off_bytes,
                    cycles,
                    dram_peak,
                    &prev.dram_busy,
                    &p.dram_busy,
                ));
                prev = p.clone();
            }
            for device in TrafficDevice::ALL {
                let h = &obs.traffic.size[device.index()];
                if h.total() == 0 {
                    continue;
                }
                let mut obj = self
                    .cell_obj("bw_hist", c)
                    .str("metric", "op_size")
                    .str("device", device.label())
                    .u64("total", h.total())
                    .f64("mean", h.mean())
                    .u64("max", h.max());
                for (k, _, count) in h.nonzero() {
                    obj = obj.u64(&format!("b{k}"), count);
                }
                lines.push(obj.finish());
            }
            let mlp = &obs.traffic.mlp;
            let mut obj = self
                .cell_obj("bw_hist", c)
                .str("metric", "mlp")
                .str("device", "all")
                .u64("total", mlp.total())
                .f64("mean", mlp.mean())
                .u64("max", mlp.max())
                .u64("p50", mlp.percentile(0.50))
                .u64("p95", mlp.percentile(0.95));
            for (k, _, count) in mlp.nonzero() {
                obj = obj.u64(&format!("b{k}"), count);
            }
            lines.push(obj.finish());
            let r = &self.reports[c.id];
            let accesses = c.cfg.warmup + c.cfg.accesses;
            let total = m.total_bytes();
            let per_access =
                if accesses == 0 { 0.0 } else { total as f64 / accesses as f64 };
            let (hbm_util, dram_util) = obs.bw_points.last().map_or((0.0, 0.0), |p| {
                let mhbm = TrafficDevice::MHbm.index();
                let chbm = TrafficDevice::CHbm.index();
                let hbm_bpc = if p.cycles == 0 {
                    0.0
                } else {
                    (p.class_bytes[mhbm] + p.class_bytes[chbm]) as f64 / p.cycles as f64
                };
                let dram_bpc = if p.cycles == 0 {
                    0.0
                } else {
                    p.class_bytes[TrafficDevice::OffChip.index()] as f64 / p.cycles as f64
                };
                (100.0 * hbm_bpc / hbm_peak, 100.0 * dram_bpc / dram_peak)
            });
            let mut sum = self.cell_obj("bw_summary", c);
            for device in TrafficDevice::ALL {
                sum = sum.u64(&format!("{}_bytes", device.label()), m.device_bytes(device));
            }
            for cause in TrafficCause::ALL {
                sum = sum.u64(cause.label(), m.cause_bytes(cause));
            }
            lines.push(
                sum.u64("total_bytes", total)
                    .u64("hbm_bytes", r.hbm_bytes)
                    .u64("dram_bytes", r.dram_bytes)
                    .u64("accesses", accesses)
                    .f64("bytes_per_access", per_access)
                    .f64("hbm_util_pct", hbm_util)
                    .f64("dram_util_pct", dram_util)
                    .finish(),
            );
        }
        lines
    }

    /// Wall-clock engine telemetry as JSONL: one `kind=cell_metrics` line
    /// per cell (wall ms, accesses/sec), per-cell `kind=span` phase-tree
    /// lines and a `kind=span_summary` line when the run profiled spans,
    /// and a final `kind=engine` line (jobs, wall, worker utilization).
    /// Nondeterministic — write it to its own `.metrics.jsonl`, never a
    /// byte-compared artifact.
    pub fn metrics_jsonl_lines(&self) -> Vec<String> {
        let mut lines = Vec::new();
        for (c, &nanos) in self.cells.iter().zip(&self.engine.cell_nanos) {
            let accesses = c.cfg.warmup + c.cfg.accesses;
            let per_sec = if nanos == 0 {
                0.0
            } else {
                accesses as f64 / (nanos as f64 / 1e9)
            };
            lines.push(
                self.cell_obj("cell_metrics", c)
                    .f64("wall_ms", nanos as f64 / 1e6)
                    .u64("accesses", accesses)
                    .f64("accesses_per_sec", per_sec)
                    .finish(),
            );
        }
        if let Some(trees) = self.engine.cell_spans.as_deref() {
            for ((c, tree), &nanos) in
                self.cells.iter().zip(trees).zip(&self.engine.cell_nanos)
            {
                for (path, node) in tree.flatten() {
                    lines.push(
                        self.cell_obj("span", c)
                            .str("path", &path)
                            .str("phase", node.phase.name())
                            .u64("calls", node.calls)
                            .f64("total_ms", node.total_nanos as f64 / 1e6)
                            .f64("self_ms", node.self_nanos() as f64 / 1e6)
                            .finish(),
                    );
                }
                let coverage = if nanos == 0 {
                    0.0
                } else {
                    tree.self_nanos_sum() as f64 / nanos as f64
                };
                lines.push(
                    self.cell_obj("span_summary", c)
                        .u64("spans", tree.spans())
                        .f64("overhead_ms", tree.overhead_nanos() as f64 / 1e6)
                        .f64("self_coverage", coverage)
                        .finish(),
                );
            }
        }
        lines.push(
            JsonObj::new()
                .str("kind", "engine")
                .str("figure", &self.name)
                .u64("jobs", self.engine.jobs as u64)
                .f64("wall_ms", self.engine.wall_nanos as f64 / 1e6)
                .f64("utilization", self.engine.utilization())
                .finish(),
        );
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::designs::Design;
    use crate::run::RunConfig;
    use memsim_trace::SpecProfile;

    #[test]
    fn par_map_preserves_order_at_any_width() {
        let items: Vec<u64> = (0..37).collect();
        let serial: Vec<u64> = Engine::new(1).par_map(&items, |x| x * x);
        for jobs in [2, 4, 8] {
            let parallel = Engine::new(jobs).par_map(&items, |x| x * x);
            assert_eq!(serial, parallel, "jobs={jobs}");
        }
    }

    #[test]
    fn engine_from_env_is_at_least_one() {
        assert!(Engine::from_env().jobs() >= 1);
    }

    #[test]
    fn positive_env_accepts_positive_and_defers_when_unset() {
        assert_eq!(positive_env("BUMBLEBEE_JOBS", Some("3")), Some(3));
        assert_eq!(positive_env("BUMBLEBEE_BATCH", Some(" 8 ")), Some(8), "whitespace tolerated");
        assert_eq!(positive_env("BUMBLEBEE_JOBS", None), None, "unset means default");
    }

    #[test]
    #[should_panic(expected = "BUMBLEBEE_JOBS=\"zero\": expected a positive integer")]
    fn positive_env_rejects_non_numeric() {
        positive_env("BUMBLEBEE_JOBS", Some("zero"));
    }

    #[test]
    #[should_panic(expected = "BUMBLEBEE_JOBS=\"0\": expected a positive integer")]
    fn positive_env_rejects_zero() {
        positive_env("BUMBLEBEE_JOBS", Some("0"));
    }

    #[test]
    #[should_panic(expected = "BUMBLEBEE_JOBS=\"\": expected a positive integer")]
    fn positive_env_rejects_empty() {
        positive_env("BUMBLEBEE_JOBS", Some(""));
    }

    #[test]
    #[should_panic(expected = "BUMBLEBEE_BATCH=\"0\": expected a positive integer")]
    fn positive_env_rejects_zero_batch() {
        positive_env("BUMBLEBEE_BATCH", Some("0"));
    }

    #[test]
    #[should_panic(expected = "BUMBLEBEE_BATCH=\"many\": expected a positive integer")]
    fn positive_env_rejects_non_numeric_batch() {
        positive_env("BUMBLEBEE_BATCH", Some("many"));
    }

    #[test]
    fn engine_batch_defaults_and_clamps() {
        assert_eq!(Engine::new(1).batch(), DEFAULT_BATCH);
        assert_eq!(Engine::new(1).with_batch(0).batch(), 1);
        assert_eq!(Engine::new(1).with_batch(64).batch(), 64);
    }

    #[test]
    fn batched_engine_output_is_byte_identical_at_any_batch_width() {
        let cfg = MetricsConfig {
            epoch_interval: 1000,
            event_capacity: 256,
            sample_rate: 32,
            ..MetricsConfig::default()
        };
        let m = metrics_matrix();
        // batch=1, one access per chunk, is the unstaged reference.
        let serial = Engine::new(2).with_metrics(cfg).with_batch(1).run(&m).unwrap();
        assert!(!serial.lat_jsonl_lines().is_empty());
        assert!(!serial.bw_jsonl_lines().is_empty());
        for batch in [7usize, 64, DEFAULT_BATCH] {
            let b = Engine::new(2).with_metrics(cfg).with_batch(batch).run(&m).unwrap();
            assert_eq!(serial.jsonl_lines(), b.jsonl_lines(), "batch={batch}");
            assert_eq!(serial.epochs_jsonl_lines(), b.epochs_jsonl_lines(), "batch={batch}");
            assert_eq!(serial.trace_jsonl_lines(), b.trace_jsonl_lines(), "batch={batch}");
            assert_eq!(serial.lat_jsonl_lines(), b.lat_jsonl_lines(), "batch={batch}");
            assert_eq!(serial.bw_jsonl_lines(), b.bw_jsonl_lines(), "batch={batch}");
        }
    }

    fn metrics_matrix() -> ExperimentMatrix {
        let profiles = [SpecProfile::mcf(), SpecProfile::xz()];
        ExperimentMatrix::cross(
            "fig6-style",
            &[Design::Bumblebee, Design::Alloy],
            &profiles,
            &RunConfig::tiny(),
        )
    }

    #[test]
    fn observability_output_is_byte_identical_at_any_width() {
        let cfg = MetricsConfig {
            epoch_interval: 1000,
            event_capacity: 256,
            sample_rate: 32,
            ..MetricsConfig::default()
        };
        let m = metrics_matrix();
        let serial = Engine::new(1).with_metrics(cfg).run(&m).unwrap();
        assert!(!serial.epochs_jsonl_lines().is_empty());
        assert!(!serial.trace_jsonl_lines().is_empty());
        assert!(!serial.lat_jsonl_lines().is_empty());
        assert!(!serial.bw_jsonl_lines().is_empty());
        let wide = Engine::new(8).with_metrics(cfg).run(&m).unwrap();
        assert_eq!(serial.jsonl_lines(), wide.jsonl_lines());
        assert_eq!(serial.epochs_jsonl_lines(), wide.epochs_jsonl_lines());
        assert_eq!(serial.trace_jsonl_lines(), wide.trace_jsonl_lines());
        assert_eq!(serial.lat_jsonl_lines(), wide.lat_jsonl_lines());
        assert_eq!(serial.bw_jsonl_lines(), wide.bw_jsonl_lines());
    }

    #[test]
    fn lat_jsonl_carries_every_record_kind_and_reconciles() {
        use crate::jsonl::parse_flat;
        let cfg = MetricsConfig {
            epoch_interval: 1000,
            event_capacity: 256,
            sample_rate: 16,
            ..MetricsConfig::default()
        };
        let m = metrics_matrix();
        let rs = Engine::new(2).with_metrics(cfg).run(&m).unwrap();
        let lines = rs.lat_jsonl_lines();
        for kind in ["\"kind\":\"lat\"", "\"kind\":\"lat_epoch\"", "\"kind\":\"lat_hist\"", "\"kind\":\"lat_summary\""] {
            assert!(lines.iter().any(|l| l.contains(kind)), "missing {kind}");
        }
        let summaries: Vec<_> =
            lines.iter().filter(|l| l.contains("\"kind\":\"lat_summary\"")).collect();
        assert_eq!(summaries.len(), m.len(), "one summary per cell");
        for line in summaries {
            let row = parse_flat(line).unwrap();
            let get = |k: &str| {
                row.iter()
                    .find(|(key, _)| key == k)
                    .and_then(|(_, v)| v.as_u64())
                    .unwrap_or_else(|| panic!("field {k} in {line}"))
            };
            // Path-count totals reconcile EXACTLY against the controller's
            // hit/miss/bypass counters — the tentpole acceptance invariant.
            assert_eq!(get("mhbm_hit") + get("chbm_hit"), get("hbm_hits"), "{line}");
            assert_eq!(
                get("miss_fill") + get("sl_bypass") + get("migration"),
                get("offchip_serves"),
                "{line}"
            );
            assert!(get("records") > 0, "sampling enabled yet no records: {line}");
            assert_eq!(get("sample_rate"), 16);
        }
        // Disabled sampling compiles the whole stream away.
        let off = Engine::new(2).with_metrics(MetricsConfig::default()).run(&m).unwrap();
        assert!(off.lat_jsonl_lines().is_empty());
    }

    #[test]
    fn bw_jsonl_carries_every_record_kind_and_reconciles() {
        use crate::jsonl::parse_flat;
        let cfg = MetricsConfig {
            epoch_interval: 1000,
            event_capacity: 256,
            ..MetricsConfig::default()
        };
        let m = metrics_matrix();
        // Sampling disabled (`sample_rate` 0): traffic accounting is
        // independent of the latency sampler and still emits.
        let rs = Engine::new(2).with_metrics(cfg).run(&m).unwrap();
        assert!(rs.lat_jsonl_lines().is_empty());
        let lines = rs.bw_jsonl_lines();
        for kind in
            ["\"kind\":\"bw\"", "\"kind\":\"bw_epoch\"", "\"kind\":\"bw_hist\"", "\"kind\":\"bw_summary\""]
        {
            assert!(lines.iter().any(|l| l.contains(kind)), "missing {kind}");
        }
        let summaries: Vec<_> =
            lines.iter().filter(|l| l.contains("\"kind\":\"bw_summary\"")).collect();
        assert_eq!(summaries.len(), m.len(), "one summary per cell");
        for line in summaries {
            let row = parse_flat(line).unwrap();
            let get = |k: &str| {
                row.iter()
                    .find(|(key, _)| key == k)
                    .and_then(|(_, v)| v.as_u64())
                    .unwrap_or_else(|| panic!("field {k} in {line}"))
            };
            // The tentpole acceptance invariant: cause-attributed byte
            // sums reconcile EXACTLY against the devices' counters.
            assert_eq!(get("mhbm_bytes") + get("chbm_bytes"), get("hbm_bytes"), "{line}");
            assert_eq!(get("offchip_bytes"), get("dram_bytes"), "{line}");
            let cause_sum: u64 = [
                "demand_read",
                "demand_write",
                "miss_fill",
                "writeback",
                "migration_promote",
                "migration_demote",
                "zombie_evict",
                "pressure_flush",
                "metadata",
            ]
            .iter()
            .map(|c| get(c))
            .sum();
            assert_eq!(cause_sum, get("total_bytes"), "{line}");
            assert!(get("total_bytes") > 0, "no traffic recorded: {line}");
        }
        // The per-epoch series covers every physical device each epoch.
        let epochs: Vec<_> =
            lines.iter().filter(|l| l.contains("\"kind\":\"bw_epoch\"")).collect();
        assert!(epochs.iter().any(|l| l.contains("\"device\":\"hbm\"")));
        assert!(epochs.iter().any(|l| l.contains("\"device\":\"dram\"")));
        // No metrics, no stream.
        assert!(Engine::new(2).run(&m).unwrap().bw_jsonl_lines().is_empty());
    }

    #[test]
    fn metrics_recording_leaves_reports_unchanged() {
        let m = metrics_matrix();
        let plain = Engine::new(2).run(&m).unwrap();
        let observed =
            Engine::new(2).with_metrics(MetricsConfig::default()).run(&m).unwrap();
        assert_eq!(plain.jsonl_lines(), observed.jsonl_lines());
        assert!(plain.observations().is_none());
        assert!(plain.epochs_jsonl_lines().is_empty());
        assert!(plain.trace_jsonl_lines().is_empty());
        let obs = observed.observations().unwrap();
        assert_eq!(obs.len(), m.len());
        assert!(obs.iter().all(|o| o.hbm.latency.total() > 0 || o.dram.latency.total() > 0));
        // Wall-clock telemetry exists either way, one entry per cell.
        assert_eq!(plain.engine_telemetry().cell_nanos.len(), m.len());
        assert_eq!(plain.metrics_jsonl_lines().len(), m.len() + 1);
        let util = observed.engine_telemetry().utilization();
        assert!(util > 0.0, "workers did something: {util}");
    }

    #[test]
    fn epoch_jsonl_round_trips_through_parse_flat() {
        use crate::jsonl::parse_flat;
        let cfg = MetricsConfig {
            epoch_interval: 1000,
            event_capacity: 256,
            ..MetricsConfig::default()
        };
        let m = metrics_matrix();
        let rs = Engine::new(1).with_metrics(cfg).run(&m).unwrap();
        let lines = rs.epochs_jsonl_lines();
        assert!(!lines.is_empty());
        for line in &lines {
            assert!(parse_flat(line).is_some(), "emitted line must parse: {line}");
        }
        // The first line is the first cell's first epoch; every field must
        // survive the JSONL round-trip exactly (shortest-roundtrip floats).
        let snap = &rs.observations().unwrap()[0].epochs[0];
        let row = parse_flat(&lines[0]).unwrap();
        let get = |k: &str| {
            row.iter().find(|(key, _)| key == k).map(|(_, v)| v.clone()).unwrap()
        };
        assert_eq!(get("kind").as_str(), Some("epoch"));
        assert_eq!(get("epoch").as_u64(), Some(snap.epoch));
        assert_eq!(get("accesses").as_u64(), Some(snap.accesses));
        assert_eq!(get("hit_rate").as_f64(), Some(snap.hit_rate));
        assert_eq!(get("migrations").as_u64(), Some(snap.migrations));
        assert_eq!(get("rh").as_f64(), Some(snap.gauges.rh));
        assert_eq!(get("overfetch_ratio").as_f64(), Some(snap.gauges.overfetch_ratio));
        assert_eq!(get("occ0").as_u64(), Some(u64::from(snap.gauges.occupancy[0])));
    }

    #[test]
    fn span_profiling_collects_a_tree_per_cell() {
        let m = metrics_matrix();
        let rs = Engine::new(2).with_spans(true).run(&m).unwrap();
        let trees = rs.engine_telemetry().cell_spans.as_deref().unwrap();
        assert_eq!(trees.len(), m.len());
        for (tree, &nanos) in trees.iter().zip(&rs.engine_telemetry().cell_nanos) {
            let cell = tree.get("cell").expect("root span wraps the run");
            assert_eq!(cell.calls, 1);
            assert!(tree.get("cell/trace_gen").is_some());
            assert!(tree.get("cell/ctrl_lookup").is_some());
            assert!(tree.get("cell/dram_service").is_some());
            // Self times must cover the bulk of the measured cell wall time.
            let coverage = tree.self_nanos_sum() as f64 / nanos.max(1) as f64;
            assert!(coverage > 0.5, "coverage {coverage}");
        }
        // Span lines appear in the metrics JSONL.
        let lines = rs.metrics_jsonl_lines();
        assert!(lines.iter().any(|l| l.contains("\"kind\":\"span\"")));
        assert!(lines.iter().any(|l| l.contains("\"kind\":\"span_summary\"")));
        // And a plain run has neither trees nor span lines.
        let plain = Engine::new(2).run(&m).unwrap();
        assert!(plain.engine_telemetry().cell_spans.is_none());
        assert!(!plain.metrics_jsonl_lines().iter().any(|l| l.contains("\"kind\":\"span\"")));
    }

    #[test]
    fn span_profiling_leaves_reports_unchanged() {
        let m = metrics_matrix();
        let plain = Engine::new(1).run(&m).unwrap();
        let profiled = Engine::new(1).with_spans(true).run(&m).unwrap();
        assert_eq!(plain.jsonl_lines(), profiled.jsonl_lines());
    }

    #[test]
    fn heartbeat_line_reports_eta_rate_and_utilization() {
        // 4 of 16 cells after 8 s, 2 workers fully busy, 4 M accesses done.
        let line = heartbeat_line("fig8", 4, 16, 8_000_000_000, 16_000_000_000, 2, 4_000_000);
        assert_eq!(
            line,
            "[fig8] heartbeat: 4/16 cells, 8.0s elapsed, eta 24.0s, 500000 acc/s, util 100%"
        );
        // Degenerate inputs stay finite.
        let zero = heartbeat_line("t", 0, 5, 0, 0, 1, 0);
        assert!(zero.contains("0/5 cells"));
        assert!(zero.contains("eta 0.0s"));
    }

    #[test]
    fn result_set_indexes_by_design_and_workload() {
        let profiles = [SpecProfile::mcf()];
        let m = ExperimentMatrix::cross(
            "t",
            &[Design::NoHbm, Design::Bumblebee],
            &profiles,
            &RunConfig::tiny(),
        );
        let rs = Engine::new(2).run(&m).unwrap();
        assert_eq!(rs.len(), 2);
        let bee = rs.get("", "Bumblebee", "mcf").unwrap();
        assert_eq!(bee.design, "Bumblebee");
        assert!(rs.get("", "Hybrid2", "mcf").is_none());
        assert_eq!(rs.jsonl_lines().len(), 2);
        assert!(rs.jsonl_lines()[0].contains("\"figure\":\"t\""));
    }
}
