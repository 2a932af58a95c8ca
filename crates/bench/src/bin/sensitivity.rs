//! Sensitivity sweeps over Bumblebee's design choices (§IV-A parameters).
//!
//! Positional argument selects the sweep: `hot-queue`, `switch-fraction`,
//! `ways`, `zombie`, or `all` (default).

use memsim_sim::figures::sensitivity::{self, Sweep};

fn main() {
    let opts =
        bumblebee_bench::parse_env(&["hot-queue", "switch-fraction", "ways", "zombie", "all"]);
    let which = opts.selection.as_deref().unwrap_or("all");
    let sweeps: Vec<Sweep> =
        Sweep::ALL.into_iter().filter(|s| which == "all" || s.name() == which).collect();
    let engine = opts.engine();
    println!(
        "Sensitivity sweeps over {} workloads (scale 1/{})",
        opts.profiles.len(),
        opts.cfg.scale
    );
    let (points, results) = sensitivity::run_with(&engine, &opts.cfg, &opts.profiles, &sweeps)
        .expect("valid sweep geometry");
    opts.write_jsonl("sensitivity", &results.jsonl_lines());
    opts.write_telemetry("sensitivity", &results);
    println!("{}", sensitivity::render(&points));
    bumblebee_bench::report_peak_rss();
}
