//! Regenerates the paper's Fig. 1: percentage of cache lines by per-64 B
//! access count before eviction vs cache-line size (mcf / wrf / xz).

use memsim_sim::figures::fig1;

fn main() {
    let mut opts = bumblebee_bench::parse_env(&[]);
    // Per-line reuse needs run lengths well beyond the figure-8 default
    // (the paper's slices run billions of instructions).
    opts.cfg.accesses = opts.cfg.accesses.max(4_000_000);
    let engine = opts.engine();
    if opts.metrics {
        eprintln!("note: --metrics has no per-cell telemetry here; Fig. 1 aggregates per-line reuse internally");
    }
    println!(
        "Fig. 1 — access counts per 64 B before eviction (scale 1/{})",
        opts.cfg.scale
    );
    let data = fig1::run_with(&engine, &opts.cfg);
    opts.write_jsonl("fig1", &fig1::jsonl_lines(&data));
    println!("{}", fig1::render(&data));
}
