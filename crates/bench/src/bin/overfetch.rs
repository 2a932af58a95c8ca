//! Prints the §IV-B over-fetching analysis (paper: 13.7% Hybrid2 vs
//! 13.3% Bumblebee).

use memsim_sim::figures::tables;

fn main() {
    let opts = bumblebee_bench::parse_env(&[]);
    let (rows, results) =
        tables::overfetch_with(&opts.engine(), &opts.cfg, &opts.profiles).expect("runs complete");
    opts.write_jsonl("overfetch", &results.jsonl_lines());
    println!("data brought into HBM but never used before eviction:");
    for (design, ratio) in rows {
        println!("  {design:10} {:5.1}%", ratio * 100.0);
    }
}
