//! The benchmark's entry point. Runs each selected workload's timed repeats, each in
//! a fresh child process of this binary, interleaved round-robin across
//! workloads, then one traced child per workload; checks the outputs and
//! prints every metric.
//!
//! ```text
//! bumblebee-benchmark [--workload NAME] [--seed N] [--seconds S]
//!                     [--trace 0|1] [--out FILE.json] [--smoke]
//! ```
//!
//! Without `--workload` every workload runs; without `--trace` both the
//! timed (end-to-end) and the traced (per-layer) passes run. Each workload
//! gets timed repeats while another would end, on average, within `S`
//! seconds (at least two; exactly one with `--smoke`). Stdout carries `workload metric value unit`
//! lines, then one JSON result object per workload, the last line last.

use bumblebee_benchmark::json::Json;
use bumblebee_benchmark::stats::{median, quartiles, tail};
use bumblebee_benchmark::workloads::{Workload, NAMES};
use bumblebee_benchmark::{timed, traced, DEFAULT_SEED, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

const USAGE: &str = "usage: bumblebee-benchmark [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--out FILE.json] [--smoke]\n\
                     workloads: fig8, offchip";

/// Seconds of timed repeats per workload when `--seconds` is absent.
const DEFAULT_SECONDS: f64 = 55.0;

/// Timed repeats per workload however short `--seconds` is (one with
/// `--smoke`).
const MIN_REPEATS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Pass {
    Timed,
    Traced,
}

#[derive(Debug)]
struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    passes: Vec<Pass>,
    out: Option<PathBuf>,
    smoke: bool,
    /// Internal: run one pass of one workload and print its JSON sample.
    child: Option<Pass>,
}

fn parse_seed(v: &str) -> Option<u64> {
    match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => v.parse().ok(),
    }
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workloads: NAMES.to_vec(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        passes: vec![Pass::Timed, Pass::Traced],
        out: None,
        smoke: false,
        child: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                let name = NAMES
                    .iter()
                    .find(|&&n| n == v)
                    .ok_or(format!("unknown workload {v}"))?;
                args.workloads = vec![name];
            }
            "--seed" => {
                let v = value()?;
                args.seed = parse_seed(&v).ok_or(format!("--seed {v}: not an integer"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("--seconds {v}: not a non-negative number"))?;
            }
            "--trace" => {
                args.passes = match value()?.as_str() {
                    "0" => vec![Pass::Timed],
                    "1" => vec![Pass::Traced],
                    v => return Err(format!("--trace {v}: expected 0 or 1")),
                };
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--smoke" => args.smoke = true,
            "--child" => {
                args.child = Some(match value()?.as_str() {
                    "timed" => Pass::Timed,
                    "traced" => Pass::Traced,
                    v => return Err(format!("--child {v}: expected timed or traced")),
                });
            }
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unexpected argument {other}")),
        }
    }
    Ok(args)
}

/// Runs one pass of one workload in a fresh child process and returns its
/// JSON sample; `None` (with the reason on stderr) if the child failed.
fn spawn(pass: Pass, name: &str, args: &Args) -> Option<Json> {
    let exe = std::env::current_exe().ok()?;
    let kind = if pass == Pass::Timed {
        "timed"
    } else {
        "traced"
    };
    let mut cmd = Command::new(exe);
    cmd.args([
        "--child",
        kind,
        "--workload",
        name,
        "--seed",
        &args.seed.to_string(),
    ]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = match cmd.stdin(Stdio::null()).stderr(Stdio::inherit()).output() {
        Ok(out) => out,
        Err(e) => {
            eprintln!("[bench] {name} {kind}: cannot start child: {e}");
            return None;
        }
    };
    let sample = String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .and_then(Json::parse);
    match sample {
        Some(json) if out.status.success() && json.get("error").is_none() => Some(json),
        other => {
            let why = other
                .and_then(|j| j.get("error").cloned())
                .unwrap_or(Json::Null);
            eprintln!(
                "[bench] {name} {kind}: child failed ({}; error {why})",
                out.status
            );
            None
        }
    }
}

/// One workload's results across both passes.
#[derive(Default)]
struct Summary {
    name: &'static str,
    attempted: usize,
    failed: usize,
    /// `(name, value, unit)` in report order.
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Extra `workload key value unit` lines (digest, tail percentile, …).
    notes: Vec<(&'static str, String, &'static str)>,
    /// Raw samples and tables for `--out`.
    detail: Vec<(String, Json)>,
}

impl Summary {
    fn metrics_json(&self) -> Json {
        self.metrics.iter().fold(Json::obj(), |o, (n, v, u)| {
            o.with(n, Json::obj().with("value", *v).with("unit", *u))
        })
    }
}

fn timed_summary(w: &Workload, jobs: usize, samples: &[Option<Json>], s: &mut Summary) {
    let cells = w.matrix.len();
    let ok: Vec<&Json> = samples.iter().flatten().collect();
    let reference = ok.first().and_then(|j| j.get("hashes")).cloned();
    for sample in samples {
        s.attempted += cells;
        let Some(j) = sample else {
            s.failed += cells;
            continue;
        };
        let hashes = j.get("hashes").and_then(Json::as_arr).unwrap_or(&[]);
        let reference = reference.as_ref().and_then(Json::as_arr).unwrap_or(&[]);
        // A cell fails when its results line differs from the first
        // repeat's.
        s.failed += (0..cells)
            .filter(|&i| hashes.get(i) != reference.get(i))
            .count();
    }
    let each = |key: &str| -> Vec<f64> {
        ok.iter()
            .filter_map(|j| j.get(key).and_then(Json::as_f64))
            .collect()
    };
    let per_repeat = |key: &str| -> Vec<Vec<f64>> {
        ok.iter()
            .map(|j| j.get(key).and_then(Json::nums).unwrap_or_default())
            .collect()
    };
    let (wall, setup, cell_ms, rss) = (
        each("wall_s"),
        per_repeat("setup_s"),
        per_repeat("cell_ms"),
        each("peak_rss_mb"),
    );
    // Each cell's fastest repeat: its least-disturbed time. Other tenants
    // of the host slow every process on it by up to 1.9x, in phases of
    // seconds to minutes, so a median over a run follows the share of slow
    // phases in it, while each cell's fastest repeat stays near the
    // undisturbed speed as long as the run holds a few quiet seconds.
    let best: Vec<f64> = (0..cells)
        .map(|i| {
            cell_ms
                .iter()
                .filter_map(|r| r.get(i))
                .copied()
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    // A repeat's wall time beyond its cells' share of the workers: JSONL
    // emission and writing, engine glue and idle workers at the end.
    let rest = wall
        .iter()
        .zip(&cell_ms)
        .map(|(wall, ms)| wall - ms.iter().sum::<f64>() / 1e3 / jobs as f64)
        .fold(f64::INFINITY, f64::min);
    // The undisturbed wall time: the fastest repeat's, with every cell at
    // its fastest repeat's time.
    let wall_s = best.iter().sum::<f64>() / 1e3 / jobs as f64 + rest;
    // Set-up the same way: each repeat's median pass, at the fastest
    // repeat. A serial pass is page-fault bound, and a median over every
    // pass of a run moved by 40% between runs with the host's phases.
    let setup_s = setup
        .iter()
        .map(|passes| median(passes))
        .fold(f64::INFINITY, f64::min);
    let values = [wall_s, w.accesses() as f64 / wall_s, setup_s, median(&rss)];
    s.metrics
        .extend(END_TO_END.iter().zip(values).map(|(&(n, u), v)| (n, v, u)));
    let digest = ok
        .first()
        .and_then(|j| j.get("digest"))
        .and_then(Json::as_str)
        .unwrap_or("none");
    // The per-cell view of the same run: the engine's cells, each at its
    // fastest repeat. Printed, not part of the result object.
    let t = tail(&best);
    s.notes.extend([
        ("digest", digest.to_string(), "fnv64"),
        ("repeats", samples.len().to_string(), "count"),
        ("cell_ms_p50", median(&best).to_string(), "ms"),
        ("cell_ms_tail", t.value.to_string(), "ms"),
        (
            "cell_ms_tail.percentile",
            format!("{}", t.percentile * 100.0),
            "pct",
        ),
        ("cell_ms_tail.n", t.n.to_string(), "count"),
    ]);
    let raw = [
        ("wall_s", wall),
        ("setup_s", setup.concat()),
        ("cell_ms", cell_ms.concat()),
        ("cell_ms_best", best),
        ("peak_rss_mb", rss),
    ];
    let mut samples_json = Json::obj();
    let mut quartiles_json = Json::obj();
    for (key, values) in raw {
        quartiles_json = quartiles_json.with(key, quartiles(&values).to_vec());
        samples_json = samples_json.with(key, values);
    }
    let tail_json = Json::obj()
        .with("percentile", t.percentile)
        .with("n", t.n)
        .with("beyond", t.beyond);
    s.detail.extend([
        ("repeats".into(), samples.len().into()),
        ("digest".into(), digest.into()),
        ("samples".into(), samples_json),
        ("quartiles".into(), quartiles_json),
        ("cell_ms_tail".into(), tail_json),
    ]);
}

fn traced_summary(w: &Workload, sample: Option<Json>, s: &mut Summary) {
    s.attempted += w.matrix.len();
    let Some(j) = sample else {
        s.failed += w.matrix.len();
        s.metrics
            .extend(PER_LAYER.iter().map(|&(n, u)| (n, f64::NAN, u)));
        return;
    };
    s.failed += j
        .get("failed")
        .and_then(Json::as_arr)
        .map_or(0, <[Json]>::len);
    let m = j.get("metrics");
    s.metrics.extend(PER_LAYER.iter().map(|&(n, u)| {
        (
            n,
            m.and_then(|m| m.get(n))
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN),
            u,
        )
    }));
    let digest = j.get("digest").and_then(Json::as_str).unwrap_or("none");
    s.notes.push(("traced.digest", digest.to_string(), "fnv64"));
    s.detail.push((
        "traced_cells".into(),
        j.get("cells").cloned().unwrap_or(Json::Null),
    ));
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}");
            }
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    let jobs = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    let workloads: Vec<Workload> = args
        .workloads
        .iter()
        .map(|n| Workload::new(n, args.seed, args.smoke).expect("names are validated"))
        .collect();

    if let Some(pass) = args.child {
        // JSONL goes next to the executable: inside the build directory,
        // never outside the checkout.
        let exe = std::env::current_exe().expect("the running executable has a path");
        let scratch = exe.with_file_name(format!("bench-jsonl-{}", std::process::id()));
        let sample = match pass {
            Pass::Timed => timed::run(&workloads[0], jobs, &scratch),
            Pass::Traced => traced::run(&workloads[0], jobs, &scratch),
        };
        println!("{sample}");
        return;
    }

    let mut summaries: Vec<Summary> = args
        .workloads
        .iter()
        .map(|&name| Summary {
            name,
            ..Summary::default()
        })
        .collect();
    if args.passes.contains(&Pass::Timed) {
        // Round-robin while another repeat would end, on average, within
        // each workload's `--seconds`: one starts while at least half a
        // mean repeat is left, so runs average their budget however fast
        // the host is. Every workload gets at least `MIN_REPEATS` (the
        // fastest-repeat metrics need a choice), and exactly one with
        // `--smoke`. A failed repeat ends its workload's repeats.
        let (budget, min_repeats) = if args.smoke {
            (0.0, 1)
        } else {
            (args.seconds, MIN_REPEATS)
        };
        let mut spent = vec![0.0; workloads.len()];
        let mut samples: Vec<Vec<Option<Json>>> = vec![Vec::new(); workloads.len()];
        loop {
            let due: Vec<usize> = (0..workloads.len())
                .filter(|&i| {
                    let n = samples[i].len();
                    samples[i].last().is_none_or(Option::is_some)
                        && (n < min_repeats || spent[i] + spent[i] / n as f64 / 2.0 <= budget)
                })
                .collect();
            if due.is_empty() {
                break;
            }
            for i in due {
                let start = Instant::now();
                let sample = spawn(Pass::Timed, workloads[i].name, &args);
                spent[i] += start.elapsed().as_secs_f64();
                let wall = sample
                    .as_ref()
                    .and_then(|j| j.get("wall_s"))
                    .and_then(Json::as_f64);
                eprintln!(
                    "[bench] {} repeat {}: wall_s {wall:?}",
                    workloads[i].name,
                    samples[i].len() + 1
                );
                samples[i].push(sample);
            }
        }
        for ((w, s), samples) in workloads.iter().zip(&mut summaries).zip(&samples) {
            timed_summary(w, jobs, samples, s);
        }
    }
    if args.passes.contains(&Pass::Traced) {
        for (w, s) in workloads.iter().zip(&mut summaries) {
            eprintln!("[bench] {} traced pass", w.name);
            traced_summary(w, spawn(Pass::Traced, w.name, &args), s);
        }
    }

    println!(
        "# seed {} (0x{:X}), seconds {}, jobs {jobs}",
        args.seed, args.seed, args.seconds
    );
    for s in &summaries {
        for (metric, value, unit) in &s.metrics {
            println!("{} {metric} {value} {unit}", s.name);
        }
        let failed_frac = s.failed as f64 / s.attempted.max(1) as f64;
        println!("{} failed_frac {failed_frac} fraction", s.name);
        for (key, value, unit) in &s.notes {
            println!("{} {key} {value} {unit}", s.name);
        }
    }
    if let Some(path) = &args.out {
        let mut per_workload = Json::obj();
        for s in &summaries {
            let detail = Json::Obj(s.detail.clone())
                .with("attempted", s.attempted)
                .with("failed", s.failed)
                .with("metrics", s.metrics_json());
            per_workload = per_workload.with(s.name, detail);
        }
        let report = Json::obj()
            .with("seed", args.seed.to_string())
            .with("seconds", args.seconds)
            .with("smoke", args.smoke)
            .with("jobs", jobs)
            .with("workloads", per_workload);
        if let Err(e) = std::fs::write(path, format!("{report}\n")) {
            eprintln!("error: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    for s in &summaries {
        let result = Json::obj()
            .with(
                "correct",
                s.failed == 0 && s.metrics.iter().all(|(_, v, _)| v.is_finite()),
            )
            .with("attempted", s.attempted)
            .with("failed", s.failed)
            .with("metrics", s.metrics_json());
        println!("{result}");
    }
}
