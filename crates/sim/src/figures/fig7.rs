//! Fig. 7: performance-factor breakdown — geomean speedup of every
//! Bumblebee ablation over the no-HBM baseline.

use crate::designs::Design;
use crate::engine::{Engine, ResultSet};
use crate::matrix::ExperimentMatrix;
use crate::report::render_table;
use crate::run::{geomean, RunConfig};
use memsim_baselines::ablations::FIG7_LABELS;
use memsim_trace::SpecProfile;
use memsim_types::GeometryError;

/// One Fig. 7 bar.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Bar {
    /// Figure label (e.g. `"No-Multi"`).
    pub label: &'static str,
    /// Geomean normalized IPC over the workloads.
    pub speedup: f64,
}

/// The declarative cell list: the no-HBM baseline plus every ablation,
/// crossed with `profiles`.
pub fn matrix(cfg: &RunConfig, profiles: &[SpecProfile]) -> ExperimentMatrix {
    let mut designs = vec![Design::NoHbm];
    designs.extend(FIG7_LABELS.iter().map(|l| Design::Ablation(l)));
    ExperimentMatrix::cross("fig7", &designs, profiles, cfg)
}

/// Runs the breakdown on `engine`, also returning the raw results for
/// JSONL output.
///
/// # Errors
///
/// Propagates configuration errors from [`crate::run::run_design`].
pub fn run_with(
    engine: &Engine,
    cfg: &RunConfig,
    profiles: &[SpecProfile],
) -> Result<(Vec<Fig7Bar>, ResultSet), GeometryError> {
    let results = engine.run(&matrix(cfg, profiles))?;
    let bars = FIG7_LABELS
        .iter()
        .map(|&label| {
            let speedups: Vec<f64> = profiles
                .iter()
                .map(|p| {
                    let base = results.get("", Design::NoHbm.label(), p.name).expect("baseline cell");
                    let r = results
                        .get("", Design::Ablation(label).label(), p.name)
                        .expect("ablation cell");
                    r.normalized_ipc(base)
                })
                .collect();
            Fig7Bar { label, speedup: geomean(&speedups) }
        })
        .collect();
    Ok((bars, results))
}

/// Renders the bars in figure order.
pub fn render(bars: &[Fig7Bar]) -> String {
    let mut rows = vec![vec!["variant".to_string(), "geomean speedup".to_string()]];
    for b in bars {
        rows.push(vec![b.label.to_string(), format!("{:.2}", b.speedup)]);
    }
    render_table(&rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_covers_every_label_and_bumblebee_wins() {
        // One workload per locality archetype so no single mode dominates.
        let cfg = RunConfig::tiny();
        let profiles = [SpecProfile::mcf(), SpecProfile::wrf(), SpecProfile::named("bwaves")];
        let (bars, _) = run_with(&Engine::new(1), &cfg, &profiles).unwrap();
        assert_eq!(bars.len(), FIG7_LABELS.len());
        let get = |l: &str| bars.iter().find(|b| b.label == l).unwrap().speedup;
        // The full design must beat both single modes (the paper's claim;
        // 2% tolerance for the tiny test scale).
        assert!(get("Bumblebee") >= get("C-Only") * 0.98, "vs C-Only");
        assert!(get("Bumblebee") >= get("M-Only") * 0.98, "vs M-Only");
        // Meta-H pays for its in-HBM metadata.
        assert!(get("Meta-H") < get("Bumblebee"), "Meta-H must lose");
        let text = render(&bars);
        assert!(text.contains("No-HMF") && text.contains("Bumblebee"));
    }
}
