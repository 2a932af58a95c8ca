//! Regenerates the paper's Fig. 6: normalized IPC for each block/page
//! configuration of the design-space exploration.

use memsim_sim::figures::fig6;

fn main() {
    let opts = bumblebee_bench::parse_env(&[]);
    let engine = opts.engine();
    println!(
        "Fig. 6 — design-space exploration over {} workloads (scale 1/{})",
        opts.profiles.len(),
        opts.cfg.scale
    );
    let (points, results) =
        fig6::run_with(&engine, &opts.cfg, &opts.profiles).expect("valid design-space geometry");
    opts.write_jsonl("fig6", &results.jsonl_lines());
    opts.write_telemetry("fig6", &results);
    println!("{}", fig6::render(&points));
    if let Some(best) = fig6::best(&points) {
        println!("best configuration: {}KB blocks / {}KB pages (paper: 2KB / 64KB)",
            best.block_kb, best.page_kb);
    }
}
