//! One timed repeat, run in a fresh child process with tracing off.

use crate::json::Json;
use crate::stats::{fnv1a, FNV_OFFSET};
use crate::workloads::{write_streams, Workload};
use memsim_sim::System;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Serially constructs and drops every cell's controller, system and
/// workload generator; returns the seconds taken.
pub fn setup_pass(workload: &Workload) -> f64 {
    let start = Instant::now();
    for cell in workload.matrix.cells() {
        let controller = cell.design.build(cell.cfg.geometry, cell.cfg.sram_budget);
        let system = System::new(
            controller,
            &cell.cfg.geometry,
            cell.cfg.params,
            cell.design.uses_hbm(),
        );
        black_box((system, cell.cfg.workload(&cell.profile)));
    }
    start.elapsed().as_secs_f64()
}

/// FNV-1a of each results line, as hex.
pub fn line_hashes(lines: &[String]) -> Vec<String> {
    lines
        .iter()
        .map(|l| format!("{:016x}", fnv1a(FNV_OFFSET, l.as_bytes())))
        .collect()
}

/// FNV-1a over every results line (newline-terminated), as hex.
pub fn digest(lines: &[String]) -> String {
    let h = lines
        .iter()
        .fold(FNV_OFFSET, |h, l| fnv1a(fnv1a(h, l.as_bytes()), b"\n"));
    format!("{h:016x}")
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Runs one timed repeat: the workload's set-up passes (`setup_s` is the
/// fastest repeat's median pass), then `Engine::run` through the
/// last `write_jsonl` into `scratch` (removed afterwards). Returns the
/// sample as JSON for the parent.
pub fn run(workload: &Workload, jobs: usize, scratch: &Path) -> Json {
    let setup_s: Vec<f64> = (0..workload.setup_passes)
        .map(|_| setup_pass(workload))
        .collect();
    let engine = Workload::engine(jobs);
    let start = Instant::now();
    let written = workload
        .run(&engine)
        .map_err(|e| e.to_string())
        .and_then(|out| {
            write_streams(out.results(), scratch)
                .map(|(lines, _)| (out, lines))
                .map_err(|e| format!("writing JSONL under {}: {e}", scratch.display()))
        });
    let wall_s = start.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(scratch);
    let (out, lines) = match written {
        Ok(w) => w,
        Err(e) => return Json::obj().with("error", e),
    };
    let cell_ms: Vec<f64> = out
        .results()
        .engine_telemetry()
        .cell_nanos
        .iter()
        .map(|&n| n as f64 / 1e6)
        .collect();
    Json::obj()
        .with("setup_s", setup_s)
        .with("wall_s", wall_s)
        .with("cell_ms", cell_ms)
        .with("peak_rss_mb", peak_rss_mb())
        .with("hashes", line_hashes(&lines))
        .with("digest", digest(&lines))
}
