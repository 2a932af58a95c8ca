//! Prints Table II (benchmark characteristics), paper vs measured.

use memsim_sim::figures::tables;

fn main() {
    let opts = bumblebee_bench::parse_env(&[]);
    let rows = tables::table2_with(&opts.engine(), &opts.cfg);
    opts.write_jsonl("table2", &tables::table2_jsonl(&rows));
    println!("{}", tables::render_table2(&rows));
}
