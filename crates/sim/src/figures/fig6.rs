//! Fig. 6: normalized IPC for the block-page design space
//! (1/2/4 KB blocks × 64/96/128 KB pages).

use crate::designs::Design;
use crate::engine::{Engine, ResultSet};
use crate::matrix::ExperimentMatrix;
use crate::report::render_table;
use crate::run::{geomean, RunConfig};
use memsim_trace::SpecProfile;
use memsim_types::GeometryError;

/// The paper's nine configurations, `(block_kb, page_kb)` in figure order.
pub const CONFIGS: [(u64, u64); 9] = [
    (1, 64),
    (1, 96),
    (1, 128),
    (2, 64),
    (2, 96),
    (2, 128),
    (4, 64),
    (4, 96),
    (4, 128),
];

/// One design-space point: configuration and geomean normalized IPC.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Point {
    /// Block size in KB.
    pub block_kb: u64,
    /// Page size in KB.
    pub page_kb: u64,
    /// Geomean IPC over all Table II workloads, normalized to no-HBM.
    pub speedup: f64,
}

/// The declarative cell list: the no-HBM baseline once per workload
/// (tag `""`; it reads only the off-chip capacity, which no configuration
/// changes), then Bumblebee per workload, tagged `"<block>-<page>"`, for
/// each of the nine configurations.
///
/// # Errors
///
/// Propagates geometry errors from invalid block/page combinations.
pub fn matrix(cfg: &RunConfig, profiles: &[SpecProfile]) -> Result<ExperimentMatrix, GeometryError> {
    let mut m = ExperimentMatrix::cross("fig6", &[Design::NoHbm], profiles, cfg);
    for (block_kb, page_kb) in CONFIGS {
        let point_cfg = cfg.clone().with_block_page(block_kb << 10, page_kb << 10)?;
        let tag = format!("{block_kb}-{page_kb}");
        for p in profiles {
            m.push(tag.clone(), Design::Bumblebee, *p, point_cfg.clone());
        }
    }
    Ok(m)
}

/// Runs the exploration on `engine`, also returning the raw results for
/// JSONL output.
///
/// # Errors
///
/// Propagates geometry errors from invalid block/page combinations.
pub fn run_with(
    engine: &Engine,
    cfg: &RunConfig,
    profiles: &[SpecProfile],
) -> Result<(Vec<Fig6Point>, ResultSet), GeometryError> {
    let results = engine.run(&matrix(cfg, profiles)?)?;
    let points = CONFIGS
        .iter()
        .map(|&(block_kb, page_kb)| {
            let tag = format!("{block_kb}-{page_kb}");
            let speedups: Vec<f64> = profiles
                .iter()
                .map(|p| {
                    let base = results.get("", Design::NoHbm.label(), p.name).expect("baseline cell");
                    let bee =
                        results.get(&tag, Design::Bumblebee.label(), p.name).expect("bumblebee cell");
                    bee.normalized_ipc(base)
                })
                .collect();
            Fig6Point { block_kb, page_kb, speedup: geomean(&speedups) }
        })
        .collect();
    Ok((points, results))
}

/// Renders the figure as a text table (same order as the paper's bars).
pub fn render(points: &[Fig6Point]) -> String {
    let mut rows = vec![vec!["block-page (KB)".to_string(), "normalized IPC".to_string()]];
    for p in points {
        rows.push(vec![format!("{}-{}", p.block_kb, p.page_kb), format!("{:.2}", p.speedup)]);
    }
    render_table(&rows)
}

/// The best configuration (the paper finds 2 KB blocks / 64 KB pages).
pub fn best(points: &[Fig6Point]) -> Option<&Fig6Point> {
    points.iter().max_by(|a, b| a.speedup.total_cmp(&b.speedup))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_match_paper_axis() {
        assert_eq!(CONFIGS.len(), 9);
        assert!(CONFIGS.contains(&(2, 64)));
        assert!(CONFIGS.contains(&(4, 128)));
    }

    #[test]
    fn small_sweep_runs_and_orders() {
        // Two workloads, tiny scale: just shape-checks the plumbing.
        let cfg = RunConfig::tiny();
        let profiles = [SpecProfile::mcf(), SpecProfile::named("leela")];
        let (points, results) = run_with(&Engine::new(1), &cfg, &profiles).unwrap();
        assert_eq!(results.len(), (1 + CONFIGS.len()) * profiles.len(), "No-HBM once per workload");
        assert_eq!(points.len(), 9);
        for p in &points {
            assert!(p.speedup > 0.0, "{}-{}", p.block_kb, p.page_kb);
        }
        let b = best(&points).unwrap();
        assert!(b.speedup >= points[0].speedup);
        let text = render(&points);
        assert!(text.contains("2-64"));
    }
}
