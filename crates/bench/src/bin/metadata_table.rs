//! Prints the §IV-B metadata budget per design (Bumblebee breakdown:
//! paper reports 334 KB = 110 KB PRT + 136 KB BLE + 88 KB tracker at full
//! scale).

use memsim_sim::figures::tables;

fn main() {
    let opts = bumblebee_bench::parse_env(&[]);
    opts.write_jsonl("metadata", &tables::metadata_jsonl(&opts.cfg));
    println!("{}", tables::metadata_table(&opts.cfg));
    bumblebee_bench::report_peak_rss();
}
