//! The two benchmark workloads: which figure matrix each regenerates, and
//! how a run of it is driven through the simulator's public entry points.

use memsim_sim::figures::fig8::{self, Fig8Data, Panel};
use memsim_sim::{
    write_jsonl, Design, Engine, ExperimentMatrix, MetricsConfig, ResultSet, RunConfig,
};
use memsim_trace::SpecProfile;
use memsim_types::GeometryError;
use std::path::Path;
use std::time::Instant;

/// Workload names, in report order.
pub const NAMES: [&str; 2] = ["fig8", "offchip"];

/// The §IV claims `paper_gap_pp` compares against, in percent: Bumblebee's
/// All-group IPC gain over the best baseline, Bumblebee and Hybrid2
/// over-fetch, and the MAL and mode-switch traffic reductions vs Hybrid2.
pub const PAPER_CLAIMS_PCT: [f64; 5] = [35.2, 13.3, 13.7, 69.7, 44.6];

/// One workload, instantiated for a seed.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Benchmark name (one of [`NAMES`]).
    pub name: &'static str,
    /// The cells the run evaluates.
    pub matrix: ExperimentMatrix,
    /// Observability recording for one more regeneration in the traced
    /// pass, which measures the `obs` and `jsonl` layers (`fig8` only).
    /// Timed repeats always run with it off.
    pub observed: Option<MetricsConfig>,
    /// Fig. 8 inputs, for workloads that regenerate Fig. 8 through
    /// `fig8::run_with` (and so can score the paper claims).
    fig8: Option<(RunConfig, Vec<SpecProfile>)>,
    /// Set-up passes per timed repeat. A pass of `offchip` takes ~3 ms and
    /// swings with page-fault noise, so it makes more passes than `fig8`'s
    /// ~60 ms ones.
    pub setup_passes: usize,
}

/// What one run of a workload produced.
pub enum Output {
    /// A Fig. 8 regeneration.
    Fig8(Fig8Data),
    /// Any other matrix.
    Plain(ResultSet),
}

impl Output {
    /// The engine's result set.
    pub fn results(&self) -> &ResultSet {
        match self {
            Output::Fig8(d) => &d.results,
            Output::Plain(r) => r,
        }
    }

    /// The Fig. 8 data, when this run regenerated Fig. 8.
    pub fn fig8(&self) -> Option<&Fig8Data> {
        match self {
            Output::Fig8(d) => Some(d),
            Output::Plain(_) => None,
        }
    }
}

impl Workload {
    /// The workload called `name` under base seed `seed` (applied as
    /// `cfg.seed` before per-cell seed mixing). `smoke` shrinks every
    /// matrix to scale 256 and 20k accesses per cell. `None` for an
    /// unknown name.
    pub fn new(name: &str, seed: u64, smoke: bool) -> Option<Workload> {
        let cfg = |scale: u64, accesses: u64| {
            let mut cfg = if smoke {
                RunConfig::at_scale(256, 20_000)
            } else {
                RunConfig::at_scale(scale, accesses)
            };
            cfg.seed = seed;
            cfg
        };
        Some(match name {
            "fig8" => {
                let cfg = cfg(16, 400_000);
                let table2 = SpecProfile::table2();
                Workload {
                    name: "fig8",
                    matrix: fig8::matrix(&cfg, &table2),
                    // What `fig8 --metrics --trace-sample 64` records.
                    observed: Some(MetricsConfig {
                        sample_rate: 64,
                        ..MetricsConfig::default()
                    }),
                    fig8: Some((cfg, table2)),
                    setup_passes: 4,
                }
            }
            // The engine's workers take cells in matrix order, and these
            // eight take about half a second each. Longest first (Chameleon
            // before No-HBM, wrf and lbm first) makes the two workers finish
            // close together; shortest first left one idle for most of a
            // cell and `wall_s` swung with whichever cell ran last.
            "offchip" => {
                let profiles: Vec<SpecProfile> = ["wrf", "lbm", "bwaves", "roms"]
                    .iter()
                    .map(|n| SpecProfile::named(n))
                    .collect();
                Workload {
                    name: "offchip",
                    matrix: ExperimentMatrix::cross(
                        "offchip",
                        &[Design::Chameleon, Design::NoHbm],
                        &profiles,
                        &cfg(16, 4_000_000),
                    ),
                    observed: None,
                    fig8: None,
                    setup_passes: 16,
                }
            }
            _ => return None,
        })
    }

    /// The engine every run of a workload uses: `jobs` workers, default
    /// batch width, no progress output, metrics off.
    pub fn engine(jobs: usize) -> Engine {
        Engine::new(jobs).with_progress(false)
    }

    /// Runs the matrix on `engine`, the way the figure binaries do.
    ///
    /// # Errors
    ///
    /// Propagates the engine's configuration error.
    pub fn run(&self, engine: &Engine) -> Result<Output, GeometryError> {
        match &self.fig8 {
            Some((cfg, profiles)) => fig8::run_with(engine, cfg, profiles).map(Output::Fig8),
            None => engine.run(&self.matrix).map(Output::Plain),
        }
    }

    /// Simulated accesses per run, warm-up included.
    pub fn accesses(&self) -> u64 {
        self.matrix
            .cells()
            .iter()
            .map(|c| c.cfg.warmup + c.cfg.accesses)
            .sum()
    }
}

/// A `ResultSet` JSONL emitter.
type Emitter = fn(&ResultSet) -> Vec<String>;

/// The JSONL streams a figure binary writes, by file-name suffix: the
/// results stream always; with metrics on (`fig8 --metrics
/// --trace-sample 64`), all six.
const STREAMS: [(&str, Emitter); 6] = [
    ("", ResultSet::jsonl_lines),
    (".epochs", ResultSet::epochs_jsonl_lines),
    (".trace", ResultSet::trace_jsonl_lines),
    (".bw", ResultSet::bw_jsonl_lines),
    (".lat", ResultSet::lat_jsonl_lines),
    (".metrics", ResultSet::metrics_jsonl_lines),
];

/// Host time and volume of emitting and writing the JSONL streams.
#[derive(Debug, Clone, Copy, Default)]
pub struct Emitted {
    /// Seconds spent building lines.
    pub emit_s: f64,
    /// Seconds spent in `write_jsonl`.
    pub write_s: f64,
    /// Bytes written.
    pub bytes: u64,
}

/// Emits and writes every stream of `results` into `dir` (all six when it
/// holds observations), one stream at a time (as the figure binaries do,
/// so at most one stream's lines are alive). Returns the results-stream
/// lines and the timings.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_streams(results: &ResultSet, dir: &Path) -> std::io::Result<(Vec<String>, Emitted)> {
    let mut emitted = Emitted::default();
    let mut report_lines = Vec::new();
    let count = if results.observations().is_some() {
        STREAMS.len()
    } else {
        1
    };
    for (i, (suffix, emit)) in STREAMS.iter().take(count).enumerate() {
        let t = Instant::now();
        let lines = emit(results);
        emitted.emit_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let path = write_jsonl(dir, &format!("{}{suffix}", results.name()), &lines)?;
        emitted.write_s += t.elapsed().as_secs_f64();
        emitted.bytes += std::fs::metadata(path)?.len();
        if i == 0 {
            report_lines = lines;
        }
    }
    Ok((report_lines, emitted))
}

/// Mean absolute gap, in percentage points, between this run's Fig. 8
/// numbers and the paper's §IV claims ([`PAPER_CLAIMS_PCT`]).
pub fn paper_gap_pp(data: &Fig8Data) -> f64 {
    let designs = Design::fig8();
    let idx = |d: Design| {
        designs
            .iter()
            .position(|&x| x == d)
            .expect("a Fig. 8 design")
    };
    let (bee, hybrid2) = (idx(Design::Bumblebee), idx(Design::Hybrid2));
    let all_ipc = |i: usize| data.cell(i, "All", Panel::Ipc);
    let best_baseline = (0..designs.len())
        .filter(|&i| i != bee)
        .map(all_ipc)
        .fold(f64::MIN, f64::max);
    let overfetch = |i: usize| {
        let ratios: Vec<f64> = data.reports[i].iter().filter_map(|r| r.overfetch).collect();
        100.0 * ratios.iter().sum::<f64>() / ratios.len().max(1) as f64
    };
    let (mal, mode_switch) = data.aux_vs_hybrid2();
    let measured = [
        100.0 * (all_ipc(bee) / best_baseline - 1.0),
        overfetch(bee),
        overfetch(hybrid2),
        100.0 * mal,
        100.0 * mode_switch,
    ];
    measured
        .iter()
        .zip(PAPER_CLAIMS_PCT)
        .map(|(m, p)| (m - p).abs())
        .sum::<f64>()
        / PAPER_CLAIMS_PCT.len() as f64
}
