//! Sensitivity sweeps over Bumblebee's design choices (§IV-A parameters).
//!
//! Positional argument selects the sweep: `hot-queue`, `switch-fraction`,
//! `ways`, `zombie`, or `all` (default).

use memsim_sim::figures::sensitivity;

fn main() {
    let opts =
        bumblebee_bench::parse_env(&["hot-queue", "switch-fraction", "ways", "zombie", "all"]);
    let which = opts.selection.as_deref().unwrap_or("all");
    let engine = opts.engine();
    if opts.metrics {
        eprintln!("note: --metrics has no per-cell telemetry here; sweeps aggregate over many matrices");
    }
    println!(
        "Sensitivity sweeps over {} workloads (scale 1/{})",
        opts.profiles.len(),
        opts.cfg.scale
    );
    let mut points = Vec::new();
    if which == "hot-queue" || which == "all" {
        points.extend(
            sensitivity::sweep_hot_queue_with(&engine, &opts.cfg, &opts.profiles).expect("sweep"),
        );
    }
    if which == "switch-fraction" || which == "all" {
        points.extend(
            sensitivity::sweep_switch_fraction_with(&engine, &opts.cfg, &opts.profiles)
                .expect("sweep"),
        );
    }
    if which == "ways" || which == "all" {
        points.extend(
            sensitivity::sweep_ways_with(&engine, &opts.cfg, &opts.profiles).expect("sweep"),
        );
    }
    if which == "zombie" || which == "all" {
        points.extend(
            sensitivity::sweep_zombie_window_with(&engine, &opts.cfg, &opts.profiles)
                .expect("sweep"),
        );
    }
    opts.write_jsonl("sensitivity", &sensitivity::jsonl_lines(&points));
    println!("{}", sensitivity::render(&points));
    bumblebee_bench::report_peak_rss();
}
