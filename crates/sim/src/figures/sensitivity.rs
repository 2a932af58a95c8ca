//! Sensitivity sweeps over Bumblebee's design choices.
//!
//! The paper fixes several parameters with one-line justifications (§IV-A:
//! hot-table depth 8 "for a balance between performance and metadata size",
//! 8-way sets "for a balance between hardware overhead and performance",
//! T = smallest resident hotness, majority mode-switch threshold). These
//! sweeps regenerate the trade-off curves behind those choices.

use crate::designs::Design;
use crate::engine::{Engine, DEFAULT_BATCH};
use crate::report::{render_table, SimReport};
use crate::run::{geomean, run_controller, run_reference, RunConfig};
use bumblebee_core::BumblebeeConfig;
use memsim_trace::SpecProfile;
use memsim_types::json::JsonObj;
use memsim_types::{Geometry, GeometryError};

/// One swept parameter point.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Parameter label (e.g. `"hot_queue_len"`).
    pub parameter: &'static str,
    /// The value at this point, rendered.
    pub value: String,
    /// Geomean normalized IPC over the evaluated workloads.
    pub speedup: f64,
    /// Metadata footprint at this point in KB.
    pub metadata_kb: f64,
}

/// The no-HBM reference per profile, shared by every point of a sweep.
fn baselines_with(
    engine: &Engine,
    cfg: &RunConfig,
    profiles: &[SpecProfile],
) -> Result<Vec<SimReport>, GeometryError> {
    engine.par_map(profiles, |p| run_reference(cfg, p)).into_iter().collect()
}

/// Runs a Bumblebee controller configured by `bee` on `geometry` over
/// every profile, through the shared driver loop, and returns the geomean
/// normalized IPC and the metadata footprint in KB.
fn run_point(
    cfg: &RunConfig,
    geometry: Geometry,
    bee: &BumblebeeConfig,
    profiles: &[SpecProfile],
    baselines: &[SimReport],
) -> (f64, f64) {
    let point = RunConfig { geometry, ..cfg.clone() };
    let mut speedups = Vec::with_capacity(profiles.len());
    let mut metadata_kb = 0.0;
    for (p, base) in profiles.iter().zip(baselines) {
        let controller = Design::build_bumblebee(geometry, bee.clone());
        let (report, _) =
            run_controller(controller, Design::Bumblebee, &point, p, None, DEFAULT_BATCH);
        metadata_kb = report.metadata_bytes as f64 / 1024.0;
        speedups.push(report.ipc / base.ipc);
    }
    (geomean(&speedups), metadata_kb)
}

/// Sweeps the hot-table off-chip queue depth (paper default: 8).
///
/// # Errors
///
/// Propagates configuration errors.
pub fn sweep_hot_queue(cfg: &RunConfig, profiles: &[SpecProfile]) -> Result<Vec<SweepPoint>, GeometryError> {
    sweep_hot_queue_with(&Engine::new(1), cfg, profiles)
}

/// [`sweep_hot_queue`] on `engine` (one unit of work per swept value).
///
/// # Errors
///
/// Propagates configuration errors.
pub fn sweep_hot_queue_with(
    engine: &Engine,
    cfg: &RunConfig,
    profiles: &[SpecProfile],
) -> Result<Vec<SweepPoint>, GeometryError> {
    let baselines = baselines_with(engine, cfg, profiles)?;
    Ok(engine.par_map(&[2usize, 4, 8, 16, 32], |&depth| {
        let bee = BumblebeeConfig {
            hot_queue_len: depth,
            sram_budget: cfg.sram_budget,
            ..BumblebeeConfig::paper()
        };
        let (speedup, metadata_kb) = run_point(cfg, cfg.geometry, &bee, profiles, &baselines);
        SweepPoint { parameter: "hot_queue_len", value: depth.to_string(), speedup, metadata_kb }
    }))
}

/// Sweeps the "most blocks" mode-switch fraction (paper: strict majority).
///
/// # Errors
///
/// Propagates configuration errors.
pub fn sweep_switch_fraction(
    cfg: &RunConfig,
    profiles: &[SpecProfile],
) -> Result<Vec<SweepPoint>, GeometryError> {
    sweep_switch_fraction_with(&Engine::new(1), cfg, profiles)
}

/// [`sweep_switch_fraction`] on `engine`.
///
/// # Errors
///
/// Propagates configuration errors.
pub fn sweep_switch_fraction_with(
    engine: &Engine,
    cfg: &RunConfig,
    profiles: &[SpecProfile],
) -> Result<Vec<SweepPoint>, GeometryError> {
    let baselines = baselines_with(engine, cfg, profiles)?;
    Ok(engine.par_map(&[0.25f64, 0.375, 0.5, 0.75, 0.9], |&f| {
        let bee = BumblebeeConfig {
            mode_switch_fraction: f,
            sram_budget: cfg.sram_budget,
            ..BumblebeeConfig::paper()
        };
        let (speedup, metadata_kb) = run_point(cfg, cfg.geometry, &bee, profiles, &baselines);
        SweepPoint {
            parameter: "mode_switch_fraction",
            value: format!("{f}"),
            speedup,
            metadata_kb,
        }
    }))
}

/// Sweeps the remapping-set HBM associativity (paper: 8-way).
///
/// # Errors
///
/// Propagates geometry errors for invalid way counts.
pub fn sweep_ways(cfg: &RunConfig, profiles: &[SpecProfile]) -> Result<Vec<SweepPoint>, GeometryError> {
    sweep_ways_with(&Engine::new(1), cfg, profiles)
}

/// [`sweep_ways`] on `engine`.
///
/// # Errors
///
/// Propagates geometry errors for invalid way counts.
pub fn sweep_ways_with(
    engine: &Engine,
    cfg: &RunConfig,
    profiles: &[SpecProfile],
) -> Result<Vec<SweepPoint>, GeometryError> {
    let baselines = baselines_with(engine, cfg, profiles)?;
    // Validate every geometry up front so errors surface before any run.
    let points: Vec<(u32, Geometry)> = [2u32, 4, 8, 16]
        .into_iter()
        .map(|ways| {
            let geometry = Geometry::builder()
                .block_bytes(cfg.geometry.block_bytes())
                .page_bytes(cfg.geometry.page_bytes())
                .hbm_bytes(cfg.geometry.hbm_bytes())
                .dram_bytes(cfg.geometry.dram_bytes())
                .hbm_ways(ways)
                .build()?;
            Ok((ways, geometry))
        })
        .collect::<Result<_, GeometryError>>()?;
    Ok(engine.par_map(&points, |&(ways, geometry)| {
        let bee = BumblebeeConfig { sram_budget: cfg.sram_budget, ..BumblebeeConfig::paper() };
        let (speedup, metadata_kb) = run_point(cfg, geometry, &bee, profiles, &baselines);
        SweepPoint { parameter: "hbm_ways", value: ways.to_string(), speedup, metadata_kb }
    }))
}

/// Sweeps the zombie-detection window (paper: "a long time").
///
/// # Errors
///
/// Propagates configuration errors.
pub fn sweep_zombie_window(
    cfg: &RunConfig,
    profiles: &[SpecProfile],
) -> Result<Vec<SweepPoint>, GeometryError> {
    sweep_zombie_window_with(&Engine::new(1), cfg, profiles)
}

/// [`sweep_zombie_window`] on `engine`.
///
/// # Errors
///
/// Propagates configuration errors.
pub fn sweep_zombie_window_with(
    engine: &Engine,
    cfg: &RunConfig,
    profiles: &[SpecProfile],
) -> Result<Vec<SweepPoint>, GeometryError> {
    let baselines = baselines_with(engine, cfg, profiles)?;
    Ok(engine.par_map(&[128u32, 512, 1024, 4096, 16384], |&w| {
        let bee = BumblebeeConfig {
            zombie_window: w,
            sram_budget: cfg.sram_budget,
            ..BumblebeeConfig::paper()
        };
        let (speedup, metadata_kb) = run_point(cfg, cfg.geometry, &bee, profiles, &baselines);
        SweepPoint { parameter: "zombie_window", value: w.to_string(), speedup, metadata_kb }
    }))
}

/// Renders sweep points grouped by parameter.
pub fn render(points: &[SweepPoint]) -> String {
    let mut rows = vec![vec![
        "parameter".to_string(),
        "value".to_string(),
        "normalized IPC".to_string(),
        "metadata KB".to_string(),
    ]];
    for p in points {
        rows.push(vec![
            p.parameter.to_string(),
            p.value.clone(),
            format!("{:.3}", p.speedup),
            format!("{:.1}", p.metadata_kb),
        ]);
    }
    render_table(&rows)
}

/// One JSONL line per sweep point.
pub fn jsonl_lines(points: &[SweepPoint]) -> Vec<String> {
    points
        .iter()
        .map(|p| {
            JsonObj::new()
                .str("kind", "sensitivity")
                .str("parameter", p.parameter)
                .str("value", &p.value)
                .f64("speedup", p.speedup)
                .f64("metadata_kb", p.metadata_kb)
                .finish()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profiles() -> [SpecProfile; 2] {
        [SpecProfile::mcf(), SpecProfile::wrf()]
    }

    #[test]
    fn hot_queue_sweep_metadata_grows_with_depth() {
        let cfg = RunConfig::tiny();
        let pts = sweep_hot_queue(&cfg, &profiles()).unwrap();
        assert_eq!(pts.len(), 5);
        for w in pts.windows(2) {
            assert!(w[1].metadata_kb >= w[0].metadata_kb, "deeper queue = more metadata");
        }
        for p in &pts {
            assert!(p.speedup > 0.5, "{}", p.value);
        }
    }

    #[test]
    fn way_sweep_produces_valid_geometries() {
        let cfg = RunConfig::tiny();
        let pts = sweep_ways(&cfg, &profiles()).unwrap();
        assert_eq!(pts.len(), 4);
        let text = render(&pts);
        assert!(text.contains("hbm_ways"));
    }

    #[test]
    fn switch_fraction_sweep_runs() {
        let cfg = RunConfig::tiny();
        let pts = sweep_switch_fraction(&cfg, &profiles()).unwrap();
        assert_eq!(pts.len(), 5);
        assert!(pts.iter().all(|p| p.speedup > 0.5));
    }
}
