//! Shared harness plumbing for the figure/table binaries.
//!
//! Every binary accepts the same flags:
//!
//! * `--full` — paper-scale geometry (1 GB HBM / 10 GB DRAM; slow);
//! * `--scale N` — capacity divisor (default 16; must be positive);
//! * `--accesses N` — LLC-miss requests per run (must be positive);
//! * `--workloads a,b,c` — subset of Table II benchmarks, each named once
//!   (default: all 14);
//! * `--jobs N` — parallel experiment cells (default: `BUMBLEBEE_JOBS`
//!   or the machine's available parallelism; `1` = serial);
//! * `--metrics` — record per-run observability (epoch time-series, event
//!   trace, device histograms) and write `<figure>.epochs.jsonl`,
//!   `<figure>.trace.jsonl` and `<figure>.metrics.jsonl` alongside the
//!   results;
//! * `--trace-sample N` — deterministically sample one in ~N accesses for
//!   full-lifecycle latency attribution (implies `--metrics`) and write the
//!   path-tagged records to `<figure>.lat.jsonl`;
//! * `--out DIR` — directory for `*.jsonl` artifacts (default:
//!   `BUMBLEBEE_RESULTS_DIR` or `./results`).
//!
//! Any other `--flag` is an error. So is a workload outside Table II, and a
//! positional argument, except for the one panel or sweep name that `fig8`
//! and `sensitivity` accept. An error prints its reason and the usage line
//! on stderr and exits with status 2.
//!
//! Each binary ends with [`report_peak_rss`], which prints the process's
//! peak resident set on stderr.

use memsim_sim::{Engine, MetricsConfig, ResultSet, RunConfig};
use memsim_trace::SpecProfile;
use std::path::PathBuf;

/// Parsed harness options.
#[derive(Debug, Clone)]
pub struct HarnessOpts {
    /// The run configuration (scale, geometry, volume).
    pub cfg: RunConfig,
    /// Workloads to evaluate.
    pub profiles: Vec<SpecProfile>,
    /// Explicit `--jobs` width, if given.
    pub jobs: Option<usize>,
    /// Whether `--metrics` observability recording is on.
    pub metrics: bool,
    /// `--trace-sample N`: sampled latency attribution at rate one in ~N
    /// accesses (implies `--metrics`); `None` disables the record stream.
    pub trace_sample: Option<u64>,
    /// Directory for JSONL artifacts.
    pub out: PathBuf,
    /// The positional argument, if any: one of the names the binary accepts.
    pub selection: Option<String>,
}

impl HarnessOpts {
    /// The experiment engine these options select: `--jobs` if given,
    /// the environment otherwise, with progress lines enabled and metrics
    /// recording when `--metrics` was passed. Prints the width on stderr,
    /// so the stdout tables read the same at every width.
    pub fn engine(&self) -> Engine {
        let engine = match self.jobs {
            Some(j) => Engine::new(j),
            None => Engine::from_env(),
        }
        .with_progress(true);
        eprintln!("jobs: {}", engine.jobs());
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
    /// deterministic); with `--metrics`, also `<figure>.metrics.jsonl`
    /// (wall-clock engine telemetry).
    pub fn write_telemetry(&self, figure: &str, results: &ResultSet) {
        if self.metrics {
            self.write_jsonl(&format!("{figure}.epochs"), &results.epochs_jsonl_lines());
            self.write_jsonl(&format!("{figure}.trace"), &results.trace_jsonl_lines());
            self.write_jsonl(&format!("{figure}.bw"), &results.bw_jsonl_lines());
        }
        if self.trace_sample.is_some() {
            self.write_jsonl(&format!("{figure}.lat"), &results.lat_jsonl_lines());
        }
        if self.metrics {
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

/// The next argument as a positive number, or `err` when it is missing,
/// malformed or zero.
fn positive<T: std::str::FromStr + Default + PartialOrd>(
    it: &mut impl Iterator<Item = String>,
    err: &str,
) -> Result<T, String> {
    it.next().and_then(|v| v.parse().ok()).filter(|v| *v > T::default()).ok_or_else(|| err.into())
}

/// Parses command-line style arguments. `selections` lists the positional
/// names the binary accepts (empty: none).
///
/// # Errors
///
/// A usage message on a malformed or unknown flag, on a workload that is
/// not in Table II or is named twice, and on a positional not in
/// `selections` or after another one.
pub fn parse_args<I: IntoIterator<Item = String>>(
    args: I,
    selections: &[&str],
) -> Result<HarnessOpts, String> {
    let mut scale = 16u64;
    let mut accesses: Option<u64> = None;
    let mut names: Option<Vec<String>> = None;
    let mut jobs: Option<usize> = None;
    let mut metrics = false;
    let mut trace_sample: Option<u64> = None;
    let mut out: Option<PathBuf> = None;
    let mut selection: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--full" => scale = 1,
            "--scale" => scale = positive(&mut it, "--scale needs a positive number")?,
            "--accesses" => {
                accesses = Some(positive(&mut it, "--accesses needs a positive number")?);
            }
            "--workloads" => {
                let list = it.next().ok_or("--workloads needs a list")?;
                let ns: Vec<String> = list.split(',').map(str::to_string).collect();
                for (i, n) in ns.iter().enumerate() {
                    if ns[..i].contains(n) {
                        return Err(format!("--workloads names {n} twice"));
                    }
                }
                names = Some(ns);
            }
            "--jobs" => jobs = Some(positive(&mut it, "--jobs needs a positive number")?),
            "--metrics" => metrics = true,
            "--trace-sample" => {
                trace_sample = Some(positive(&mut it, "--trace-sample needs a positive rate")?);
                metrics = true; // records ride on the metrics pipeline
            }
            "--out" => out = Some(PathBuf::from(it.next().ok_or("--out needs a directory")?)),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            name if selection.is_none() && selections.contains(&name) => {
                selection = Some(name.to_string());
            }
            name => {
                return Err(format!(
                    "unexpected argument {name:?}; accepted: at most one of {selections:?}"
                ));
            }
        }
    }
    let default_accesses = if scale == 1 { 2_000_000 } else { 400_000 };
    let cfg = RunConfig::at_scale(scale, accesses.unwrap_or(default_accesses));
    let table2 = SpecProfile::table2();
    let profiles = match names {
        Some(ns) => ns
            .iter()
            .map(|n| {
                table2.iter().find(|p| p.name == n).copied().ok_or_else(|| {
                    let known: Vec<&str> = table2.iter().map(|p| p.name).collect();
                    format!("unknown workload {n}; Table II names: {}", known.join(","))
                })
            })
            .collect::<Result<_, _>>()?,
        None => table2,
    };
    Ok(HarnessOpts {
        cfg,
        profiles,
        jobs,
        metrics,
        trace_sample,
        out: out.unwrap_or_else(memsim_sim::results_dir),
        selection,
    })
}

/// Parses `std::env::args()` (skipping the binary name); see
/// [`parse_args`]. On a usage error it prints `error: <reason>` and the
/// usage line on stderr and exits with status 2, before the binary runs a
/// cell or writes a file.
pub fn parse_env(selections: &[&str]) -> HarnessOpts {
    let mut args = std::env::args();
    let path = args.next().unwrap_or_default();
    parse_args(args, selections).unwrap_or_else(|e| {
        let bin = path.rsplit('/').next().unwrap_or_default();
        let positional = if selections.is_empty() {
            String::new()
        } else {
            format!(" [{}]", selections.join("|"))
        };
        eprintln!(
            "error: {e}\nusage: {bin} [--full] [--scale N] [--accesses N] [--workloads a,b] \
             [--jobs N] [--metrics] [--trace-sample N] [--out DIR]{positional}"
        );
        std::process::exit(2);
    })
}

/// Prints `peak_rss_mb <MB>` on stderr: the process's peak resident set
/// (`VmHWM` in `/proc/self/status`), in MB of 2^20 bytes. Prints nothing
/// where that file cannot be read or has no `VmHWM` line.
pub fn report_peak_rss() {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    if let Some(kb) = kb {
        eprintln!("peak_rss_mb {:.2}", kb / 1024.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses `args` for a binary whose positional is `ipc` or `all`,
    /// panicking with the usage error's text, so a `should_panic` test
    /// checks the `Err` message.
    fn opts(args: &[&str]) -> HarnessOpts {
        parse_args(args.iter().map(|s| s.to_string()), &["ipc", "all"])
            .unwrap_or_else(|e| panic!("{e}"))
    }

    #[test]
    fn defaults() {
        let o = opts(&[]);
        assert_eq!(o.cfg.scale, 16);
        assert_eq!(o.cfg.accesses, 400_000);
        assert_eq!(o.profiles.len(), 14);
        assert_eq!(o.jobs, None);
        assert!(!o.metrics);
        assert_eq!(o.trace_sample, None);
        assert_eq!(o.selection, None);
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
    fn metrics_flag_enables_recording() {
        let o = opts(&["--metrics", "--jobs", "2"]);
        assert!(o.metrics);
        assert_eq!(o.engine().jobs(), 2);
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
        assert_eq!(o.selection.as_deref(), Some("ipc"));
    }

    #[test]
    fn jobs_and_out_flags() {
        let o = opts(&["--jobs", "4", "--out", "/tmp/r"]);
        assert_eq!(o.jobs, Some(4));
        assert_eq!(o.engine().jobs(), 4);
        assert_eq!(o.out, PathBuf::from("/tmp/r"));
    }

    #[test]
    #[should_panic(expected = "--scale needs a positive number")]
    fn bad_scale_panics() {
        opts(&["--scale", "abc"]);
    }

    #[test]
    #[should_panic(expected = "--jobs needs a positive number")]
    fn zero_jobs_panics() {
        opts(&["--jobs", "0"]);
    }

    #[test]
    #[should_panic(expected = "--scale needs a positive number")]
    fn zero_scale_panics() {
        opts(&["--scale", "0"]);
    }

    #[test]
    #[should_panic(expected = "--accesses needs a positive number")]
    fn zero_accesses_panics() {
        opts(&["--accesses", "0"]);
    }

    #[test]
    #[should_panic(expected = "unknown flag --no-such-flag")]
    fn unknown_flag_panics() {
        opts(&["--no-such-flag"]);
    }

    #[test]
    #[should_panic(expected = "unexpected argument \"hotqueue\"")]
    fn unknown_selection_panics() {
        opts(&["hotqueue"]);
    }

    #[test]
    #[should_panic(expected = "unexpected argument \"all\"")]
    fn second_selection_panics() {
        opts(&["ipc", "all"]);
    }
}
