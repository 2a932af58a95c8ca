//! Prints the §IV-B metadata budget per design (Bumblebee breakdown:
//! paper reports 334 KB = 110 KB PRT + 136 KB BLE + 88 KB tracker at full
//! scale).

use memsim_sim::figures::tables;

fn main() {
    let opts = bumblebee_bench::parse_env(&[]);
    let rows = tables::metadata_rows(&opts.cfg);
    opts.write_jsonl("metadata", &tables::metadata_jsonl(&rows, opts.cfg.sram_budget));
    println!("{}", tables::render_metadata(&rows, opts.cfg.sram_budget));
    bumblebee_bench::report_peak_rss();
}
