#![forbid(unsafe_code)]
#![deny(missing_docs)]
//! Shared harness plumbing for the figure/table binaries and the timing
//! benches.
//!
//! Every binary accepts the same flags:
//!
//! * `--full` — paper-scale geometry (1 GB HBM / 10 GB DRAM; slow);
//! * `--scale N` — capacity divisor (default 16);
//! * `--accesses N` — LLC-miss requests per run;
//! * `--workloads a,b,c` — subset of Table II benchmarks (default: all 14);
//! * `--jobs N` — parallel experiment cells (default: `BUMBLEBEE_JOBS`
//!   or the machine's available parallelism; `1` = serial);
//! * `--batch N` — access-pipeline chunk width (default: `BUMBLEBEE_BATCH`
//!   or 4096); a pure performance knob — every output is byte-identical
//!   at any width, `--batch 1` (one access per chunk) included;
//! * `--metrics` — record per-run observability (epoch time-series, event
//!   trace, device histograms) and write `<figure>.epochs.jsonl`,
//!   `<figure>.trace.jsonl` and `<figure>.metrics.jsonl` alongside the
//!   results;
//! * `--trace-sample N` — deterministically sample one in ~N accesses for
//!   full-lifecycle latency attribution (implies `--metrics`) and write the
//!   path-tagged records to `<figure>.lat.jsonl`; defaults to
//!   `BUMBLEBEE_TRACE_SAMPLE` when the flag is absent (the variable obeys
//!   the same strict positive-integer contract as `BUMBLEBEE_JOBS` /
//!   `BUMBLEBEE_BATCH` — empty, zero or non-numeric values are hard
//!   configuration errors);
//! * `--spans` — profile wall-clock phase spans per cell (trace-gen,
//!   controller lookup, migration/swap, DRAM service, epoch sampling) and
//!   write them as `kind=span` lines into `<figure>.metrics.jsonl`;
//! * `--out DIR` — directory for `*.jsonl` artifacts (default:
//!   `BUMBLEBEE_RESULTS_DIR` or `./results`).

use memsim_sim::{Engine, MetricsConfig, ResultSet, RunConfig};
use memsim_trace::SpecProfile;
use std::path::PathBuf;
use std::time::Instant;

pub mod perf;

/// Parsed harness options.
#[derive(Debug, Clone)]
pub struct HarnessOpts {
    /// The run configuration (scale, geometry, volume).
    pub cfg: RunConfig,
    /// Workloads to evaluate.
    pub profiles: Vec<SpecProfile>,
    /// Explicit `--jobs` width, if given.
    pub jobs: Option<usize>,
    /// Explicit `--batch` chunk width, if given (access-pipeline SoA
    /// chunking; outputs are byte-identical at any width).
    pub batch: Option<usize>,
    /// Whether `--metrics` observability recording is on.
    pub metrics: bool,
    /// `--trace-sample N`: sampled latency attribution at rate one in ~N
    /// accesses (implies `--metrics`); `None` disables the record stream.
    pub trace_sample: Option<u64>,
    /// Whether `--spans` wall-clock phase profiling is on.
    pub spans: bool,
    /// Directory for JSONL artifacts.
    pub out: PathBuf,
    /// Positional (non-flag) arguments left over.
    pub rest: Vec<String>,
}

impl HarnessOpts {
    /// The experiment engine these options select: `--jobs` if given,
    /// the environment otherwise, with progress lines enabled and metrics
    /// recording when `--metrics` was passed. An explicit `--batch`
    /// overrides `BUMBLEBEE_BATCH`.
    pub fn engine(&self) -> Engine {
        let mut engine = match self.jobs {
            Some(j) => Engine::new(j),
            None => Engine::from_env(),
        }
        .with_progress(true)
        .with_spans(self.spans);
        if let Some(b) = self.batch {
            engine = engine.with_batch(b);
        }
        if self.metrics {
            engine.with_metrics(MetricsConfig {
                sample_rate: self.trace_sample.unwrap_or(0),
                ..MetricsConfig::default()
            })
        } else {
            engine
        }
    }

    /// Writes the observability artifacts of `results`: with `--metrics`,
    /// `<figure>.epochs.jsonl`, `<figure>.trace.jsonl` and
    /// `<figure>.bw.jsonl` (deterministic, cycle-domain — the bw stream
    /// carries the cause-attributed traffic matrix and per-epoch
    /// bandwidth-utilization gauges); with `--trace-sample`,
    /// `<figure>.lat.jsonl` (sampled latency-attribution records, also
    /// deterministic); with `--metrics` or `--spans`,
    /// `<figure>.metrics.jsonl` (wall-clock engine telemetry and span
    /// phase trees).
    pub fn write_telemetry(&self, figure: &str, results: &ResultSet) {
        if self.metrics {
            self.write_jsonl(&format!("{figure}.epochs"), &results.epochs_jsonl_lines());
            self.write_jsonl(&format!("{figure}.trace"), &results.trace_jsonl_lines());
            self.write_jsonl(&format!("{figure}.bw"), &results.bw_jsonl_lines());
        }
        if self.trace_sample.is_some() {
            self.write_jsonl(&format!("{figure}.lat"), &results.lat_jsonl_lines());
        }
        if self.metrics || self.spans {
            self.write_jsonl(&format!("{figure}.metrics"), &results.metrics_jsonl_lines());
        }
    }

    /// Writes `lines` to `<out>/<figure>.jsonl` and reports the path on
    /// stderr; exits the process on I/O failure (these are leaf binaries).
    pub fn write_jsonl(&self, figure: &str, lines: &[String]) {
        match memsim_sim::write_jsonl(&self.out, figure, lines) {
            Ok(path) => eprintln!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("error: cannot write {figure}.jsonl under {}: {e}", self.out.display());
                std::process::exit(1);
            }
        }
    }
}

/// Parses command-line style arguments.
///
/// # Panics
///
/// Panics with a usage message on malformed flags — appropriate for the
/// experiment binaries these options drive.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> HarnessOpts {
    let mut scale = 16u64;
    let mut accesses: Option<u64> = None;
    let mut names: Option<Vec<String>> = None;
    let mut jobs: Option<usize> = None;
    let mut batch: Option<usize> = None;
    let mut metrics = false;
    let mut trace_sample: Option<u64> = None;
    let mut spans = false;
    let mut out: Option<PathBuf> = None;
    let mut rest = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--full" => scale = 1,
            "--scale" => {
                scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("--scale needs a number"));
            }
            "--accesses" => {
                accesses = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| panic!("--accesses needs a number")),
                );
            }
            "--workloads" => {
                let list = it.next().unwrap_or_else(|| panic!("--workloads needs a list"));
                names = Some(list.split(',').map(str::to_string).collect());
            }
            "--jobs" => {
                jobs = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&j| j > 0)
                        .unwrap_or_else(|| panic!("--jobs needs a positive number")),
                );
            }
            "--batch" => {
                batch = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&b| b > 0)
                        .unwrap_or_else(|| panic!("--batch needs a positive number")),
                );
            }
            "--metrics" => metrics = true,
            "--trace-sample" => {
                trace_sample = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&r| r > 0)
                        .unwrap_or_else(|| panic!("--trace-sample needs a positive rate")),
                );
                metrics = true; // records ride on the metrics pipeline
            }
            "--spans" => spans = true,
            "--out" => {
                out = Some(PathBuf::from(
                    it.next().unwrap_or_else(|| panic!("--out needs a directory")),
                ));
            }
            other => rest.push(other.to_string()),
        }
    }
    if trace_sample.is_none() {
        trace_sample = trace_sample_env(std::env::var("BUMBLEBEE_TRACE_SAMPLE").ok().as_deref());
        if trace_sample.is_some() {
            metrics = true; // same implication as the --trace-sample flag
        }
    }
    let default_accesses = if scale == 1 { 2_000_000 } else { 400_000 };
    let cfg = RunConfig::at_scale(scale, accesses.unwrap_or(default_accesses));
    let profiles = match names {
        Some(ns) => ns.iter().map(|n| SpecProfile::named(n)).collect(),
        None => SpecProfile::table2(),
    };
    HarnessOpts {
        cfg,
        profiles,
        jobs,
        batch,
        metrics,
        trace_sample,
        spans,
        out: out.unwrap_or_else(memsim_sim::results_dir),
        rest,
    }
}

/// Strict `BUMBLEBEE_TRACE_SAMPLE` parsing: unset defers to the
/// `--trace-sample` flag (`None`); anything else must be a positive
/// integer. Empty, zero or non-numeric values are hard configuration
/// errors, the same contract `BUMBLEBEE_JOBS` / `BUMBLEBEE_BATCH`
/// enforce — a silently ignored typo would silently disable tracing.
///
/// # Panics
///
/// Panics with the offending value on empty, zero or non-numeric input.
fn trace_sample_env(value: Option<&str>) -> Option<u64> {
    let v = value?;
    match v.trim().parse::<u64>() {
        Ok(r) if r > 0 => Some(r),
        _ => panic!("BUMBLEBEE_TRACE_SAMPLE={v:?}: expected a positive integer sampling rate"),
    }
}

/// Parses `std::env::args()` (skipping the binary name).
pub fn parse_env() -> HarnessOpts {
    parse_args(std::env::args().skip(1))
}

/// Times `f` over `iters` iterations after one warm-up call and prints a
/// `name  total  per-iter` line — the plain-`fn main()` replacement for
/// the former Criterion harness, keeping `cargo bench` registry-free.
pub fn bench_case<R>(name: &str, iters: u64, mut f: impl FnMut() -> R) {
    std::hint::black_box(f());
    let start = Instant::now(); // audit: allow(det-clock) -- bench timing is the product here, not simulated state
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    let total = start.elapsed();
    println!(
        "{name:40} {iters:>9} iters  {:>10.1} ms total  {:>12.0} ns/iter",
        total.as_secs_f64() * 1e3,
        total.as_secs_f64() * 1e9 / iters as f64
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> HarnessOpts {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let o = opts(&[]);
        assert_eq!(o.cfg.scale, 16);
        assert_eq!(o.cfg.accesses, 400_000);
        assert_eq!(o.profiles.len(), 14);
        assert_eq!(o.jobs, None);
        assert_eq!(o.batch, None);
        assert!(!o.metrics);
        assert_eq!(o.trace_sample, None);
        assert!(!o.spans);
        assert!(o.rest.is_empty());
    }

    #[test]
    fn trace_sample_implies_metrics() {
        let o = opts(&["--trace-sample", "64"]);
        assert_eq!(o.trace_sample, Some(64));
        assert!(o.metrics, "--trace-sample rides on the metrics pipeline");
    }

    #[test]
    #[should_panic(expected = "--trace-sample needs a positive rate")]
    fn zero_trace_sample_panics() {
        opts(&["--trace-sample", "0"]);
    }

    #[test]
    fn trace_sample_env_parses_strictly() {
        assert_eq!(trace_sample_env(None), None, "unset defers to the flag");
        assert_eq!(trace_sample_env(Some("64")), Some(64));
        assert_eq!(trace_sample_env(Some(" 8 ")), Some(8), "whitespace tolerated");
    }

    #[test]
    #[should_panic(expected = "BUMBLEBEE_TRACE_SAMPLE=\"0\": expected a positive integer")]
    fn trace_sample_env_rejects_zero() {
        trace_sample_env(Some("0"));
    }

    #[test]
    #[should_panic(expected = "BUMBLEBEE_TRACE_SAMPLE=\"\": expected a positive integer")]
    fn trace_sample_env_rejects_empty() {
        trace_sample_env(Some(""));
    }

    #[test]
    #[should_panic(expected = "BUMBLEBEE_TRACE_SAMPLE=\"often\": expected a positive integer")]
    fn trace_sample_env_rejects_non_numeric() {
        trace_sample_env(Some("often"));
    }

    #[test]
    fn metrics_flag_enables_recording() {
        let o = opts(&["--metrics", "--jobs", "2"]);
        assert!(o.metrics);
        assert_eq!(o.engine().jobs(), 2);
    }

    #[test]
    fn spans_flag_enables_profiling() {
        let o = opts(&["--spans"]);
        assert!(o.spans);
        assert!(!o.metrics, "--spans alone does not imply --metrics");
    }

    #[test]
    fn full_flag_switches_to_paper_scale() {
        let o = opts(&["--full"]);
        assert_eq!(o.cfg.scale, 1);
        assert_eq!(o.cfg.accesses, 2_000_000);
    }

    #[test]
    fn explicit_scale_accesses_workloads() {
        let o = opts(&["--scale", "64", "--accesses", "1234", "--workloads", "mcf,xz", "ipc"]);
        assert_eq!(o.cfg.scale, 64);
        assert_eq!(o.cfg.accesses, 1234);
        assert_eq!(o.profiles.len(), 2);
        assert_eq!(o.rest, vec!["ipc".to_string()]);
    }

    #[test]
    fn jobs_and_out_flags() {
        let o = opts(&["--jobs", "4", "--out", "/tmp/r"]);
        assert_eq!(o.jobs, Some(4));
        assert_eq!(o.engine().jobs(), 4);
        assert_eq!(o.out, PathBuf::from("/tmp/r"));
    }

    #[test]
    #[should_panic(expected = "--scale needs a number")]
    fn bad_scale_panics() {
        opts(&["--scale", "abc"]);
    }

    #[test]
    #[should_panic(expected = "--jobs needs a positive number")]
    fn zero_jobs_panics() {
        opts(&["--jobs", "0"]);
    }

    #[test]
    fn batch_flag_reaches_the_engine() {
        let o = opts(&["--batch", "64", "--jobs", "2"]);
        assert_eq!(o.batch, Some(64));
        assert_eq!(o.engine().batch(), 64);
        let default = opts(&["--jobs", "2"]);
        assert_eq!(default.engine().batch(), memsim_sim::DEFAULT_BATCH);
    }

    #[test]
    #[should_panic(expected = "--batch needs a positive number")]
    fn zero_batch_panics() {
        opts(&["--batch", "0"]);
    }
}
