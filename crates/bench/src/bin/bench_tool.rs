//! Inspect and diff `BENCH_*.json` performance reports.
//!
//! ```text
//! bench_tool show    A.json
//! bench_tool compare BASE.json NEW.json [--time-threshold-pct N]
//!                                       [--invariant-tolerance-pct N]
//!                                       [--tail-threshold-pct N]
//!                                       [--traffic-threshold-pct N]
//!                                       [--throughput-threshold-pct N]
//! ```
//!
//! `show` appends per-path p95 latency columns when the BENCH file
//! carries the folded tail fields; older files render without them.
//! `compare` prints the per-metric deltas of the candidate against the
//! baseline and exits `1` when any regression gate trips: wall time up by
//! more than the time threshold (default 30%), any cycle-domain
//! invariant (cycles, IPC, hit rate, migrations, over-fetch) drifting at
//! all, a per-path sampled tail latency (p95/p99) growing past the
//! tail threshold when both files carry it, or a cause-attributed
//! traffic invariant (`traffic_pa`, `peak_util_pct`) drifting past the
//! traffic threshold when both files carry it. The suite-aggregate
//! throughput delta is always reported; it only becomes a gate when
//! `--throughput-threshold-pct` is given (a drop past N% then fails,
//! a rise past N% counts as an improvement). Parse/usage problems exit
//! `2`. A report compared against itself always exits `0` —
//! `scripts/verify.sh` relies on that as its self-diff gate.

use bumblebee_bench::perf::{compare, BenchReport, Thresholds};
use memsim_analysis::exitcode;

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(exitcode::USAGE);
}

fn load(path: &str) -> BenchReport {
    let body = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    BenchReport::parse(&body).unwrap_or_else(|e| fail(&format!("{path}: {e}")))
}

fn pct_flag(args: &[String], flag: &str) -> Option<f64> {
    let pos = args.iter().position(|a| a == flag)?;
    let raw = args
        .get(pos + 1)
        .unwrap_or_else(|| fail(&format!("{flag} needs a percentage")));
    Some(raw.parse().unwrap_or_else(|_| fail(&format!("{flag} needs a number, got {raw:?}"))))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("show") => {
            let path = args.get(1).unwrap_or_else(|| fail("show needs a BENCH file"));
            let r = load(path);
            println!(
                "BENCH {} — suite {} (scale {}, {} accesses, workloads {}), \
                 median of {} repeat(s) at {} job(s)",
                r.sha,
                r.suite,
                r.scale,
                r.accesses,
                r.workloads,
                r.repeats,
                r.jobs
            );
            println!("{}", r.case_table());
            println!("{}", r.phase_table());
            println!(
                "phase self-times cover {:.1}% of {:.0} ms measured cell wall time",
                r.self_coverage * 100.0,
                r.busy_ms
            );
            println!(
                "suite wall {:.1} ms — {:.0} accesses/sec aggregate",
                r.suite_wall_ms(),
                r.suite_accesses_per_sec()
            );
        }
        Some("compare") => {
            let base = args.get(1).unwrap_or_else(|| fail("compare needs BASE and NEW files"));
            let new = args.get(2).unwrap_or_else(|| fail("compare needs BASE and NEW files"));
            let mut th = Thresholds::default();
            if let Some(t) = pct_flag(&args, "--time-threshold-pct") {
                th.time_pct = t;
            }
            if let Some(t) = pct_flag(&args, "--invariant-tolerance-pct") {
                th.invariant_pct = t;
            }
            if let Some(t) = pct_flag(&args, "--tail-threshold-pct") {
                th.tail_pct = t;
            }
            if let Some(t) = pct_flag(&args, "--traffic-threshold-pct") {
                th.traffic_pct = t;
            }
            if let Some(t) = pct_flag(&args, "--throughput-threshold-pct") {
                th.throughput_pct = Some(t);
            }
            let (base_report, new_report) = (load(base), load(new));
            let cmp = compare(&base_report, &new_report, th)
                .unwrap_or_else(|e| fail(&e));
            print!("{}", cmp.render());
            println!(
                "suite wall: {:.1} ms → {:.1} ms ({:.0} → {:.0} accesses/sec aggregate)",
                base_report.suite_wall_ms(),
                new_report.suite_wall_ms(),
                base_report.suite_accesses_per_sec(),
                new_report.suite_accesses_per_sec()
            );
            let regressions = cmp.regressions();
            let improvements = cmp.improvements();
            if improvements > 0 {
                println!(
                    "{improvements} case(s) improved wall time by more than {:.0}%",
                    th.time_pct
                );
            }
            if regressions > 0 {
                eprintln!(
                    "FAIL: {regressions} regression(s) of {} vs baseline {}",
                    new_report.sha, base_report.sha
                );
                std::process::exit(exitcode::FINDINGS);
            }
            println!(
                "ok: no regressions, {improvements} improvement(s) ({} vs baseline {}, \
                 time gate {:.0}%, invariant gate {:.4}%)",
                new_report.sha, base_report.sha, th.time_pct, th.invariant_pct
            );
        }
        _ => {
            fail(
                "usage: bench_tool show A.json\n\
                 \x20      bench_tool compare BASE.json NEW.json \
                 [--time-threshold-pct N] [--invariant-tolerance-pct N] \
                 [--tail-threshold-pct N] [--traffic-threshold-pct N] \
                 [--throughput-threshold-pct N]",
            );
        }
    }
}
