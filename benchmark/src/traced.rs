//! The traced run: per-layer host time, measured from outside the
//! simulator by wrapping timers around each layer's public call.
//!
//! One child per workload. It first runs the workload exactly as a timed
//! repeat does (the reference reports and engine utilization). A workload
//! with an `observed` configuration (`fig8`) is then regenerated once more
//! with observability recording on; that run gives the `obs` counts and
//! the JSONL emission/write times of all six streams, and must reconcile
//! with, and report the same as, the plain run. Last, every cell is
//! replayed serially through the same chunked loop as the engine's batched
//! runner: chunks of [`DEFAULT_BATCH`] accesses, cut at the warm-up mark.
//! A twin controller, built the same way, is fed the same chunks; its
//! `access_batch` time is the controller (`ctrl`) layer, and `step_batch`
//! minus that is the DRAM-service (`dram`) layer. The split is
//! approximate: the System's own controller runs on caches the twin has
//! just warmed.

use crate::json::Json;
use crate::timed::digest;
use crate::workloads::{paper_gap_pp, write_streams, Emitted, Workload};
use memsim_sim::{Cell, Design, Engine, ResultSet, SimReport, System, DEFAULT_BATCH};
use memsim_types::{AccessBatch, HybridMemoryController, PlanBuffer};
use std::path::Path;
use std::time::{Duration, Instant};

/// Host time and device counts of one cell's traced replay.
#[derive(Debug, Clone, Default)]
struct CellTrace {
    accesses: u64,
    setup: Duration,
    trace: Duration,
    ctrl: Duration,
    step: Duration,
    finish: Duration,
    /// The cell's wall time minus the twin controller's build and lookups.
    wall: Duration,
    chunks: u64,
    row_hits: u64,
    queue_wait_cycles: u64,
    /// Cycles, instructions, device bytes and `CtrlStats` equal the
    /// reference report's.
    matches_report: bool,
    /// The twin's `CtrlStats` equal the System controller's.
    twin_agrees: bool,
}

impl CellTrace {
    /// `step_batch` time not spent in the controller: the DRAM-service layer.
    fn dram_ns(&self) -> f64 {
        self.step.as_nanos() as f64 - self.ctrl.as_nanos() as f64
    }
}

fn trace_cell(cell: &Cell, reference: &SimReport) -> CellTrace {
    let cfg = &cell.cfg;
    let cell_start = Instant::now();
    let t = Instant::now();
    let mut system = System::new(
        cell.design.build(cfg.geometry, cfg.sram_budget),
        &cfg.geometry,
        cfg.params,
        cell.design.uses_hbm(),
    );
    let mut generator = cfg.workload(&cell.profile);
    let mut out = CellTrace {
        setup: t.elapsed(),
        ..CellTrace::default()
    };
    let t = Instant::now();
    let mut twin = cell.design.build(cfg.geometry, cfg.sram_budget);
    let twin_build = t.elapsed();

    let total = cfg.warmup + cfg.accesses;
    let mut batch = AccessBatch::with_capacity(DEFAULT_BATCH);
    let (mut plans, mut twin_plans) = (PlanBuffer::new(), PlanBuffer::new());
    let mut warm: Option<(u64, u64)> = None;
    let mut seq = 0u64;
    while seq < total {
        if warm.is_none() && seq >= cfg.warmup {
            warm = Some((system.counters().instructions, system.now()));
        }
        let mut end = (seq + DEFAULT_BATCH as u64).min(total);
        if seq < cfg.warmup {
            end = end.min(cfg.warmup);
        }
        let t0 = Instant::now();
        generator.fill_batch(&mut batch, (end - seq) as usize);
        let t1 = Instant::now();
        twin.access_batch(&batch, &mut twin_plans);
        let t2 = Instant::now();
        system.step_batch(&batch, &mut plans, seq, None, 0);
        let t3 = Instant::now();
        out.trace += t1 - t0;
        out.ctrl += t2 - t1;
        out.step += t3 - t2;
        seq = end;
    }
    out.twin_agrees = twin.stats() == system.controller().stats();
    let (warm_instructions, warm_cycles) =
        warm.unwrap_or((system.counters().instructions, system.now()));
    let t = Instant::now();
    system.finish();
    out.finish = t.elapsed();
    out.wall = cell_start.elapsed().saturating_sub(twin_build + out.ctrl);

    let (hbm, dram) = (system.hbm().counters(), system.dram().counters());
    out.accesses = total;
    out.chunks = hbm.chunk_accesses + dram.chunk_accesses;
    out.row_hits = hbm.row_hits + dram.row_hits;
    out.queue_wait_cycles =
        system.hbm().histograms().queue_wait.sum() + system.dram().histograms().queue_wait.sum();
    out.matches_report = system.counters().instructions - warm_instructions
        == reference.instructions
        && (system.now() - warm_cycles).max(1) == reference.cycles
        && hbm.total_bytes() == reference.hbm_bytes
        && dram.total_bytes() == reference.dram_bytes
        && system.controller().stats() == &reference.stats;
    out
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn nanos(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// The cells of an observed run whose observations do not reconcile with
/// their reports: per-path access counts against the controller's
/// `hbm_hits`/`offchip_serves`, and traffic-matrix bytes against the device
/// totals.
fn unreconciled_cells(results: &ResultSet) -> Vec<usize> {
    let Some(observations) = results.observations() else {
        return Vec::new();
    };
    observations
        .iter()
        .zip(results.reports())
        .enumerate()
        .filter(|(_, (obs, r))| {
            use memsim_types::TrafficDevice::{CHbm, MHbm, OffChip};
            let p = &obs.path_counts;
            let m = &obs.traffic.matrix;
            p[0] + p[1] != r.stats.hbm_hits
                || p[2] + p[3] + p[4] != r.stats.offchip_serves
                || m.device_bytes(MHbm) + m.device_bytes(CHbm) != r.hbm_bytes
                || m.device_bytes(OffChip) != r.dram_bytes
        })
        .map(|(i, _)| i)
        .collect()
}

/// What the observed regeneration recorded and wrote.
#[derive(Debug, Clone, Copy, Default)]
struct Observed {
    emitted: Emitted,
    lat_records: u64,
    events: u64,
    dropped: u64,
}

/// Regenerates `workload` with observability recording `metrics` on and
/// writes all six JSONL streams into `scratch` (removed afterwards).
/// Flags in `failed` each cell that does not reconcile or whose results
/// line differs from the plain run's `lines`: recording observations must
/// not change a single report byte.
fn observe(
    workload: &Workload,
    engine: &Engine,
    lines: &[String],
    scratch: &Path,
    failed: &mut [bool],
) -> Result<Observed, String> {
    let out = workload.run(engine).map_err(|e| e.to_string())?;
    let results = out.results();
    let written = write_streams(results, scratch);
    let _ = std::fs::remove_dir_all(scratch);
    let (observed_lines, emitted) = written.map_err(|e| format!("writing JSONL: {e}"))?;
    for i in unreconciled_cells(results) {
        failed[i] = true;
    }
    for (i, f) in failed.iter_mut().enumerate() {
        *f |= observed_lines.get(i) != lines.get(i);
    }
    let obs = results.observations().unwrap_or(&[]);
    Ok(Observed {
        emitted,
        lat_records: obs.iter().map(|o| o.records.len() as u64).sum(),
        events: obs.iter().map(|o| o.events.len() as u64).sum(),
        dropped: obs
            .iter()
            .map(|o| o.dropped_events + o.dropped_records)
            .sum(),
    })
}

/// Runs the traced pass for `workload` (JSONL into `scratch`, removed
/// afterwards) and returns the per-layer metrics, the per-cell table and
/// the failing cells as JSON for the parent.
pub fn run(workload: &Workload, jobs: usize, scratch: &Path) -> Json {
    let out = match workload.run(&Workload::engine(jobs)) {
        Ok(out) => out,
        Err(e) => return Json::obj().with("error", e.to_string()),
    };
    let results = out.results();
    let lines = results.jsonl_lines();
    let mut failed = vec![false; results.len()];
    let observed = match workload.observed {
        Some(m) => {
            let engine = Workload::engine(jobs).with_metrics(m);
            match observe(workload, &engine, &lines, scratch, &mut failed) {
                Ok(o) => o,
                Err(e) => return Json::obj().with("error", e),
            }
        }
        // Without an observed regeneration, the `jsonl` layer is the plain
        // run's results stream, which is all a timed repeat writes.
        None => {
            let written = write_streams(results, scratch);
            let _ = std::fs::remove_dir_all(scratch);
            match written {
                Ok((_, emitted)) => Observed {
                    emitted,
                    ..Observed::default()
                },
                Err(e) => return Json::obj().with("error", format!("writing JSONL: {e}")),
            }
        }
    };

    let cells = workload.matrix.cells();
    let traces: Vec<CellTrace> = cells
        .iter()
        .zip(results.reports())
        .map(|(c, r)| trace_cell(c, r))
        .collect();
    for (i, t) in traces.iter().enumerate() {
        failed[i] |= !t.matches_report || !t.twin_agrees;
    }

    // Sums of a per-cell quantity over one group of cells: `core` is the
    // bumblebee-core crate (Bumblebee cells), `hbm_baseline` the designs of
    // memsim-baselines that use HBM.
    // A fold from +0, where `sum` would give -0 for an empty group.
    let sum = |keep: fn(&Cell) -> bool, f: &dyn Fn(usize) -> f64| -> f64 {
        cells
            .iter()
            .filter(|c| keep(c))
            .fold(0.0, |total, c| total + f(c.id))
    };
    let all = |f: &dyn Fn(usize) -> f64| sum(|_| true, f);
    let core = |f: &dyn Fn(usize) -> f64| sum(|c| c.design == Design::Bumblebee, f);
    let hbm_baseline =
        |f: &dyn Fn(usize) -> f64| sum(|c| c.design != Design::Bumblebee && c.design.uses_hbm(), f);

    let reports = results.reports();
    let acc = |i: usize| traces[i].accesses as f64;
    let ctrl = |i: usize| nanos(traces[i].ctrl);
    let dram = |i: usize| traces[i].dram_ns();
    let chunks = |i: usize| traces[i].chunks as f64;
    let hits = |i: usize| reports[i].stats.hbm_hits as f64;
    let demands = |i: usize| reports[i].stats.total_accesses() as f64;
    let n_cells = cells.len() as f64;
    let n_core = core(&|_| 1.0);

    let metrics = Json::obj()
        .with(
            "trace.ns_per_access",
            ratio(all(&|i| nanos(traces[i].trace)), all(&acc)),
        )
        .with("ctrl.ns_per_access", ratio(all(&ctrl), all(&acc)))
        .with("core.ctrl_share", ratio(core(&ctrl), all(&ctrl)))
        .with("dram.ns_per_access", ratio(all(&dram), all(&acc)))
        .with("dram.ns_per_chunk", ratio(all(&dram), all(&chunks)))
        .with("dram.chunks_per_access", ratio(all(&chunks), all(&acc)))
        .with(
            "sim.step_ns_per_access",
            ratio(all(&|i| nanos(traces[i].step)), all(&acc)),
        )
        .with(
            "sim.setup_ms_per_cell",
            all(&|i| nanos(traces[i].setup)) / 1e6 / n_cells,
        )
        .with(
            "sim.finish_ms_per_cell",
            all(&|i| nanos(traces[i].finish)) / 1e6 / n_cells,
        )
        .with(
            "sim.traced_coverage",
            ratio(
                all(&|i| {
                    let t = &traces[i];
                    nanos(t.trace + t.step + t.setup + t.finish)
                }),
                all(&|i| nanos(traces[i].wall)),
            ),
        )
        .with(
            "sim.engine_utilization",
            results.engine_telemetry().utilization(),
        )
        .with("jsonl.emit_s", observed.emitted.emit_s)
        .with("jsonl.write_s", observed.emitted.write_s)
        .with(
            "jsonl.mb",
            observed.emitted.bytes as f64 / (1024.0 * 1024.0),
        )
        .with("obs.lat_records", observed.lat_records)
        .with("obs.events", observed.events)
        .with("obs.dropped", observed.dropped)
        .with("core.hbm_hit_rate", ratio(core(&hits), core(&demands)))
        .with(
            "core.overfetch",
            ratio(core(&|i| reports[i].overfetch.unwrap_or(0.0)), n_core),
        )
        .with(
            "core.mal_cycles_per_access",
            ratio(
                core(&|i| reports[i].mal_cycles as f64),
                core(&|i| reports[i].accesses as f64),
            ),
        )
        .with(
            "core.migrations_per_kacc",
            1000.0
                * ratio(
                    core(&|i| reports[i].stats.page_migrations as f64),
                    core(&demands),
                ),
        )
        .with(
            "baselines.hbm_hit_rate",
            ratio(hbm_baseline(&hits), hbm_baseline(&demands)),
        )
        .with(
            "dram.bytes_per_access",
            ratio(
                all(&|i| (reports[i].hbm_bytes + reports[i].dram_bytes) as f64),
                all(&acc),
            ),
        )
        .with(
            "dram.row_hit_rate",
            ratio(all(&|i| traces[i].row_hits as f64), all(&chunks)),
        )
        .with(
            "dram.queue_wait_cycles_per_chunk",
            ratio(all(&|i| traces[i].queue_wait_cycles as f64), all(&chunks)),
        )
        .with("paper_gap_pp", out.fig8().map_or(0.0, paper_gap_pp));

    let table: Vec<Json> = cells
        .iter()
        .zip(&traces)
        .map(|(c, t)| {
            Json::obj()
                .with("cell", c.id)
                .with("design", c.design.label())
                .with("workload", c.profile.name)
                .with("accesses", t.accesses)
                .with("setup_ms", nanos(t.setup) / 1e6)
                .with("trace_ms", nanos(t.trace) / 1e6)
                .with("ctrl_ms", nanos(t.ctrl) / 1e6)
                .with("dram_ms", t.dram_ns() / 1e6)
                .with("finish_ms", nanos(t.finish) / 1e6)
                .with("wall_ms", nanos(t.wall) / 1e6)
                .with("failed", failed[c.id])
        })
        .collect();
    let failed: Vec<usize> = (0..failed.len()).filter(|&i| failed[i]).collect();
    Json::obj()
        .with("metrics", metrics)
        .with("cells", Json::Arr(table))
        .with("digest", digest(&lines))
        .with("failed", failed)
}
