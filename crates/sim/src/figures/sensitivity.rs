//! Sensitivity sweeps over Bumblebee's design choices.
//!
//! The paper fixes several parameters with one-line justifications (§IV-A:
//! hot-table depth 8 "for a balance between performance and metadata size",
//! 8-way sets "for a balance between hardware overhead and performance",
//! T = smallest resident hotness, majority mode-switch threshold). These
//! sweeps regenerate the trade-off curves behind those choices.
//!
//! Every sweep runs in one [`ExperimentMatrix`] on the figures' own
//! per-workload streams. No-HBM and the paper-default Bumblebee run once
//! per workload (tag `""`), so each sweep's paper-default row is Fig. 8's
//! Bumblebee All; every other point's cells are tagged
//! `<parameter>=<value>`.

use crate::designs::{Design, Knob};
use crate::engine::{Engine, ResultSet};
use crate::matrix::ExperimentMatrix;
use crate::report::render_table;
use crate::run::{geomean, RunConfig};
use bumblebee_core::BumblebeeConfig;
use memsim_trace::SpecProfile;
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

/// One sweep over a §IV-A parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sweep {
    /// Hot-table off-chip queue depth (paper: 8).
    HotQueue,
    /// The "most blocks" mode-switch fraction (paper: strict majority).
    SwitchFraction,
    /// Remapping-set HBM associativity (paper: 8-way).
    Ways,
    /// Zombie-detection window (paper: "a long time").
    Zombie,
}

impl Sweep {
    /// Every sweep, in output order.
    pub const ALL: [Sweep; 4] =
        [Sweep::HotQueue, Sweep::SwitchFraction, Sweep::Ways, Sweep::Zombie];

    /// The name the `sensitivity` binary selects the sweep by.
    pub fn name(self) -> &'static str {
        match self {
            Sweep::HotQueue => "hot-queue",
            Sweep::SwitchFraction => "switch-fraction",
            Sweep::Ways => "ways",
            Sweep::Zombie => "zombie",
        }
    }

    /// The swept parameter, as its rows and tags name it.
    fn parameter(self) -> &'static str {
        match self {
            Sweep::HotQueue => "hot_queue_len",
            Sweep::SwitchFraction => "mode_switch_fraction",
            Sweep::Ways => "hbm_ways",
            Sweep::Zombie => "zombie_window",
        }
    }

    /// The swept values in row order; the fraction in thousandths.
    fn values(self) -> &'static [u32] {
        match self {
            Sweep::HotQueue => &[2, 4, 8, 16, 32],
            Sweep::SwitchFraction => &[250, 375, 500, 750, 900],
            Sweep::Ways => &[2, 4, 8, 16],
            Sweep::Zombie => &[128, 512, 1024, 4096, 16384],
        }
    }

    fn render(self, value: u32) -> String {
        match self {
            Sweep::SwitchFraction => format!("{}", f64::from(value) / 1000.0),
            _ => value.to_string(),
        }
    }

    /// The tag, design and configuration of the cells at `value`. The paper
    /// default is plain Bumblebee under `cfg`, tagged `""`: the matrix
    /// holds its cells once for every sweep.
    fn point(
        self,
        cfg: &RunConfig,
        value: u32,
    ) -> Result<(String, Design, RunConfig), GeometryError> {
        let mut point = cfg.clone();
        let knob = match self {
            Sweep::HotQueue => Some(Knob::HotQueueLen(value)),
            Sweep::SwitchFraction => Some(Knob::SwitchPermille(value)),
            Sweep::Zombie => Some(Knob::ZombieWindow(value)),
            Sweep::Ways => {
                let g = &cfg.geometry;
                point.geometry = Geometry::builder()
                    .block_bytes(g.block_bytes())
                    .page_bytes(g.page_bytes())
                    .hbm_bytes(g.hbm_bytes())
                    .dram_bytes(g.dram_bytes())
                    .hbm_ways(value)
                    .build()?;
                None
            }
        };
        let paper = BumblebeeConfig { sram_budget: cfg.sram_budget, ..BumblebeeConfig::paper() };
        let design = match knob {
            Some(k) if k.config(cfg.sram_budget) != paper => Design::Tuned(k),
            _ => Design::Bumblebee,
        };
        let tag = if design == Design::Bumblebee && point.geometry == cfg.geometry {
            String::new()
        } else {
            format!("{}={}", self.parameter(), self.render(value))
        };
        Ok((tag, design, point))
    }
}

/// The declarative cell list of `sweeps`: No-HBM and the paper-default
/// Bumblebee once per workload, then every other point's cells, in sweep
/// and value order.
///
/// # Errors
///
/// Propagates geometry errors for invalid way counts.
pub fn matrix(
    cfg: &RunConfig,
    profiles: &[SpecProfile],
    sweeps: &[Sweep],
) -> Result<ExperimentMatrix, GeometryError> {
    let mut m =
        ExperimentMatrix::cross("sensitivity", &[Design::NoHbm, Design::Bumblebee], profiles, cfg);
    for sweep in sweeps {
        for &value in sweep.values() {
            let (tag, design, point) = sweep.point(cfg, value)?;
            if !tag.is_empty() {
                for p in profiles {
                    m.push(tag.clone(), design, *p, point.clone());
                }
            }
        }
    }
    Ok(m)
}

/// Runs `sweeps` on `engine`: one row per swept value, also returning the
/// raw results for JSONL output.
///
/// # Errors
///
/// Propagates geometry errors for invalid way counts.
pub fn run_with(
    engine: &Engine,
    cfg: &RunConfig,
    profiles: &[SpecProfile],
    sweeps: &[Sweep],
) -> Result<(Vec<SweepPoint>, ResultSet), GeometryError> {
    let results = engine.run(&matrix(cfg, profiles, sweeps)?)?;
    let mut points = Vec::new();
    for &sweep in sweeps {
        for &value in sweep.values() {
            let (tag, design, _) = sweep.point(cfg, value)?;
            let mut speedups = Vec::with_capacity(profiles.len());
            let mut metadata_kb = 0.0;
            for p in profiles {
                let base = results.get("", Design::NoHbm.label(), p.name).expect("baseline cell");
                let r = results.get(&tag, design.label(), p.name).expect("sweep cell");
                metadata_kb = r.metadata_bytes as f64 / 1024.0;
                speedups.push(r.normalized_ipc(base));
            }
            points.push(SweepPoint {
                parameter: sweep.parameter(),
                value: sweep.render(value),
                speedup: geomean(&speedups),
                metadata_kb,
            });
        }
    }
    Ok((points, results))
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

#[cfg(test)]
mod tests {
    use super::*;

    fn run(sweep: Sweep) -> Vec<SweepPoint> {
        let profiles = [SpecProfile::mcf(), SpecProfile::wrf()];
        run_with(&Engine::new(1), &RunConfig::tiny(), &profiles, &[sweep]).unwrap().0
    }

    #[test]
    fn hot_queue_sweep_metadata_grows_with_depth() {
        let pts = run(Sweep::HotQueue);
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
        let pts = run(Sweep::Ways);
        assert_eq!(pts.len(), 4);
        let text = render(&pts);
        assert!(text.contains("hbm_ways"));
    }

    #[test]
    fn switch_fraction_sweep_runs() {
        let pts = run(Sweep::SwitchFraction);
        let values: Vec<&str> = pts.iter().map(|p| p.value.as_str()).collect();
        assert_eq!(values, ["0.25", "0.375", "0.5", "0.75", "0.9"]);
        assert!(pts.iter().all(|p| p.speedup > 0.5));
    }

    #[test]
    fn paper_defaults_share_one_untagged_cell_per_workload() {
        let cfg = RunConfig::tiny();
        let profiles = [SpecProfile::mcf(), SpecProfile::wrf()];
        let m = matrix(&cfg, &profiles, &Sweep::ALL).unwrap();
        // No-HBM, paper Bumblebee, then 4 + 4 + 3 + 4 off-default points.
        assert_eq!(m.len(), (2 + 15) * profiles.len());
        let untagged = m.cells().iter().filter(|c| c.tag.is_empty()).count();
        assert_eq!(untagged, 2 * profiles.len());
        let tags: Vec<&str> =
            m.cells().iter().step_by(profiles.len()).map(|c| c.tag.as_str()).collect();
        assert_eq!(tags[2..5], ["hot_queue_len=2", "hot_queue_len=4", "hot_queue_len=16"]);
        assert!(tags.contains(&"mode_switch_fraction=0.9") && tags.contains(&"hbm_ways=16"));
    }
}
