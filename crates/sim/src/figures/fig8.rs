//! Fig. 8: Bumblebee vs. state-of-the-art designs — normalized IPC,
//! HBM traffic, off-chip DRAM traffic and memory dynamic energy, grouped
//! by MPKI class (plus the §IV-D auxiliary MAL/mode-switch comparison).

use crate::designs::Design;
use crate::engine::{Engine, ResultSet};
use crate::matrix::ExperimentMatrix;
use crate::report::{render_table, SimReport};
use crate::run::{geomean, RunConfig};
use memsim_trace::spec::MpkiGroup;
use memsim_trace::SpecProfile;
use memsim_types::GeometryError;

/// Which Fig. 8 panel to render.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Panel {
    /// Fig. 8(a): normalized IPC speedup.
    Ipc,
    /// Fig. 8(b): normalized HBM traffic.
    HbmTraffic,
    /// Fig. 8(c): normalized off-chip DRAM traffic.
    DramTraffic,
    /// Fig. 8(d): normalized memory dynamic energy.
    Energy,
}

impl Panel {
    /// All four panels in paper order.
    pub fn all() -> [Panel; 4] {
        [Panel::Ipc, Panel::HbmTraffic, Panel::DramTraffic, Panel::Energy]
    }

    /// Panel title as in the figure caption.
    pub fn title(&self) -> &'static str {
        match self {
            Panel::Ipc => "Normalized IPC speedup",
            Panel::HbmTraffic => "Normalized HBM traffic",
            Panel::DramTraffic => "Normalized off-chip DRAM traffic",
            Panel::Energy => "Normalized memory dynamic energy",
        }
    }
}

/// All per-workload reports of the comparison (designs × workloads), with
/// the baseline runs for normalization.
#[derive(Debug, Clone)]
pub struct Fig8Data {
    /// Reports indexed `[design][workload]`.
    pub reports: Vec<Vec<SimReport>>,
    /// Baseline (no-HBM) report per workload.
    pub baselines: Vec<SimReport>,
    /// The evaluated profiles.
    pub profiles: Vec<SpecProfile>,
    /// The raw engine results (for JSONL output and ad-hoc lookups).
    pub results: ResultSet,
}

/// The declarative cell list of the comparison: the no-HBM baseline plus
/// every [`Design::fig8`] design, crossed with `profiles`.
pub fn matrix(cfg: &RunConfig, profiles: &[SpecProfile]) -> ExperimentMatrix {
    let mut designs = vec![Design::NoHbm];
    designs.extend(Design::fig8());
    ExperimentMatrix::cross("fig8", &designs, profiles, cfg)
}

/// Runs the comparison on `engine` (parallel across cells at the engine's
/// `--jobs` width; identical results at any width); every panel reads from
/// the same data.
///
/// # Errors
///
/// Propagates configuration errors from [`crate::run::run_design`].
pub fn run_with(
    engine: &Engine,
    cfg: &RunConfig,
    profiles: &[SpecProfile],
) -> Result<Fig8Data, GeometryError> {
    let results = engine.run(&matrix(cfg, profiles))?;
    // Cell order is design-major: NoHbm first, then the fig8 designs.
    let n = profiles.len();
    let baselines = results.reports()[..n].to_vec();
    let reports = Design::fig8()
        .iter()
        .enumerate()
        .map(|(d, _)| results.reports()[(d + 1) * n..(d + 2) * n].to_vec())
        .collect();
    Ok(Fig8Data { reports, baselines, profiles: profiles.to_vec(), results })
}

/// The figure's x-axis groups.
pub const GROUPS: [&str; 4] = ["High", "Medium", "Low", "All"];

fn in_group(profile: &SpecProfile, group: &str) -> bool {
    match group {
        "High" => profile.group() == MpkiGroup::High,
        "Medium" => profile.group() == MpkiGroup::Medium,
        "Low" => profile.group() == MpkiGroup::Low,
        _ => true,
    }
}

impl Fig8Data {
    /// Panel value for `design` (row index into [`Design::fig8`]) over one
    /// MPKI group: geomean for IPC, arithmetic mean for traffic/energy
    /// ratios; 0 for a group none of the profiles falls in.
    pub fn cell(&self, design_idx: usize, group: &str, panel: Panel) -> f64 {
        let mut values = Vec::new();
        for (w, p) in self.profiles.iter().enumerate() {
            if !in_group(p, group) {
                continue;
            }
            let r = &self.reports[design_idx][w];
            let b = &self.baselines[w];
            values.push(match panel {
                Panel::Ipc => r.normalized_ipc(b),
                Panel::HbmTraffic => r.normalized_hbm_traffic(b),
                Panel::DramTraffic => r.normalized_dram_traffic(b),
                Panel::Energy => r.normalized_energy(b),
            });
        }
        match panel {
            Panel::Ipc => geomean(&values),
            _ => {
                if values.is_empty() {
                    0.0
                } else {
                    values.iter().sum::<f64>() / values.len() as f64
                }
            }
        }
    }

    /// Renders one panel as a text table (designs × groups). A group none
    /// of the profiles falls in reads `-`.
    pub fn render(&self, panel: Panel) -> String {
        let mut rows = vec![{
            let mut h = vec!["design".to_string()];
            h.extend(GROUPS.iter().map(|g| g.to_string()));
            h
        }];
        for (i, d) in Design::fig8().iter().enumerate() {
            let mut row = vec![d.label().to_string()];
            for g in GROUPS {
                if self.profiles.iter().any(|p| in_group(p, g)) {
                    row.push(format!("{:.2}", self.cell(i, g, panel)));
                } else {
                    row.push("-".to_string());
                }
            }
            rows.push(row);
        }
        format!("{}\n{}", panel.title(), render_table(&rows))
    }

    /// §IV-B over-fetch of `design` (row index into [`Design::fig8`]): the
    /// share of data brought into HBM but never used before eviction,
    /// averaged over the workloads; `None` for a design that does not
    /// track it.
    pub fn overfetch(&self, design_idx: usize) -> Option<f64> {
        let ratios: Vec<f64> = self.reports[design_idx].iter().filter_map(|r| r.overfetch).collect();
        (!ratios.is_empty()).then(|| ratios.iter().sum::<f64>() / ratios.len() as f64)
    }

    /// §IV-D auxiliary metrics: Bumblebee vs Hybrid2 MAL and mode-switch
    /// traffic reductions (averaged over workloads). Returns
    /// `(mal_reduction, mode_switch_reduction)` as fractions.
    pub fn aux_vs_hybrid2(&self) -> (f64, f64) {
        let hybrid2_idx = Design::fig8()
            .iter()
            .position(|d| *d == Design::Hybrid2)
            .expect("fig8 contains Hybrid2");
        let bee_idx = Design::fig8()
            .iter()
            .position(|d| *d == Design::Bumblebee)
            .expect("fig8 contains Bumblebee");
        let mut mal_h = 0.0;
        let mut mal_b = 0.0;
        let mut ms_h = 0u64;
        let mut ms_b = 0u64;
        for w in 0..self.profiles.len() {
            mal_h += self.reports[hybrid2_idx][w].mal_cycles as f64;
            mal_b += self.reports[bee_idx][w].mal_cycles as f64;
            ms_h += self.reports[hybrid2_idx][w].mode_switch_bytes.unwrap_or(0);
            ms_b += self.reports[bee_idx][w].mode_switch_bytes.unwrap_or(0);
        }
        let mal_red = if mal_h > 0.0 { 1.0 - mal_b / mal_h } else { 0.0 };
        let ms_red = if ms_h > 0 { 1.0 - ms_b as f64 / ms_h as f64 } else { 0.0 };
        (mal_red, ms_red)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_data() -> Fig8Data {
        let cfg = RunConfig::tiny();
        let profiles = [SpecProfile::mcf(), SpecProfile::wrf(), SpecProfile::xz()];
        run_with(&Engine::new(1), &cfg, &profiles).unwrap()
    }

    #[test]
    fn comparison_runs_and_bumblebee_leads_all_group() {
        let data = small_data();
        let bee = Design::fig8().iter().position(|d| *d == Design::Bumblebee).unwrap();
        let bee_ipc = data.cell(bee, "All", Panel::Ipc);
        assert!(bee_ipc > 1.0, "Bumblebee speedup {bee_ipc:.2}");
        for (i, d) in Design::fig8().iter().enumerate() {
            if i == bee {
                continue;
            }
            let other = data.cell(i, "All", Panel::Ipc);
            assert!(
                bee_ipc >= other * 0.9,
                "Bumblebee {bee_ipc:.2} should not lose badly to {} {other:.2}",
                d.label()
            );
        }
    }

    #[test]
    fn panels_render() {
        let data = small_data();
        for p in Panel::all() {
            let t = data.render(p);
            assert!(t.contains("Bumblebee"));
            assert!(t.contains("All"));
        }
    }

    #[test]
    fn empty_groups_print_a_dash() {
        let mut data = small_data();
        // Drop wrf, the one High profile.
        let wrf = data.profiles.iter().position(|p| p.name == "wrf").unwrap();
        data.profiles.remove(wrf);
        data.baselines.remove(wrf);
        for row in &mut data.reports {
            row.remove(wrf);
        }
        let table = data.render(Panel::Ipc);
        let header: Vec<&str> = table.lines().nth(1).unwrap().split_whitespace().collect();
        let high = header.iter().position(|&h| h == "High").unwrap();
        for line in table.lines().skip(3) {
            let cols: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(cols[high], "-", "{line}");
            assert_ne!(cols[high + 1], "-", "Medium holds mcf: {line}");
        }
    }

    #[test]
    fn overfetch_averages_the_tracked_reports() {
        let data = small_data();
        let idx = |d: Design| Design::fig8().iter().position(|&x| x == d).unwrap();
        for d in [Design::Hybrid2, Design::Bumblebee] {
            let ratios: Vec<f64> =
                data.reports[idx(d)].iter().map(|r| r.overfetch.unwrap()).collect();
            let mean = data.overfetch(idx(d)).unwrap();
            assert_eq!(mean, ratios.iter().sum::<f64>() / 3.0, "{}", d.label());
            assert!((0.0..=1.0).contains(&mean), "{}", d.label());
        }
        assert_eq!(data.overfetch(idx(Design::Chameleon)), None, "Chameleon tracks none");
    }

    #[test]
    fn aux_metrics_finite() {
        let data = small_data();
        let (mal, ms) = data.aux_vs_hybrid2();
        assert!(mal.is_finite() && ms.is_finite());
        assert!(mal <= 1.0 && ms <= 1.0);
    }
}
