//! Regenerates the paper's Fig. 7: performance-factor breakdown
//! (ablation geomean speedups over the no-HBM baseline).

use memsim_sim::figures::fig7;

fn main() {
    let opts = bumblebee_bench::parse_env(&[]);
    let engine = opts.engine();
    println!(
        "Fig. 7 — performance factors over {} workloads (scale 1/{})",
        opts.profiles.len(),
        opts.cfg.scale
    );
    let (bars, results) =
        fig7::run_with(&engine, &opts.cfg, &opts.profiles).expect("runs complete");
    opts.write_jsonl("fig7", &results.jsonl_lines());
    opts.write_telemetry("fig7", &results);
    println!("{}", fig7::render(&bars));
    bumblebee_bench::report_peak_rss();
}
