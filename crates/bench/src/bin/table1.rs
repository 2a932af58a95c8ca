//! Prints Table I (system configuration) from the actual device presets.

use memsim_sim::figures::tables;

fn main() {
    let opts = bumblebee_bench::parse_env(&[]);
    opts.write_jsonl("table1", &tables::table1_jsonl(&opts.cfg));
    println!("{}", tables::table1(&opts.cfg));
}
