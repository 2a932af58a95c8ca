//! Regenerates the paper's Fig. 8: Bumblebee vs state-of-the-art designs.
//!
//! Positional argument selects the panel: `ipc`, `hbm-traffic`,
//! `dram-traffic`, `energy`, `aux` (the §IV-D reductions and the §IV-B
//! over-fetch), or `all` (default).

use memsim_sim::figures::fig8::{self, Panel};
use memsim_sim::Design;

fn main() {
    let opts =
        bumblebee_bench::parse_env(&["ipc", "hbm-traffic", "dram-traffic", "energy", "aux", "all"]);
    let which = opts.selection.as_deref().unwrap_or("all");
    let engine = opts.engine();
    println!(
        "Fig. 8 — comparison over {} workloads (scale 1/{})",
        opts.profiles.len(),
        opts.cfg.scale
    );
    let data = fig8::run_with(&engine, &opts.cfg, &opts.profiles).expect("runs complete");
    opts.write_jsonl("fig8", &data.results.jsonl_lines());
    opts.write_telemetry("fig8", &data.results);
    let panels: Vec<Panel> = match which {
        "ipc" => vec![Panel::Ipc],
        "hbm-traffic" => vec![Panel::HbmTraffic],
        "dram-traffic" => vec![Panel::DramTraffic],
        "energy" => vec![Panel::Energy],
        "aux" => vec![],
        _ => Panel::all().to_vec(),
    };
    for p in panels {
        println!("{}", data.render(p));
    }
    if which == "aux" || which == "all" {
        let (mal, ms) = data.aux_vs_hybrid2();
        println!("vs Hybrid2: metadata-access-latency reduction {:.1}%  (paper: 69.7%)", mal * 100.0);
        println!("vs Hybrid2: mode-switch traffic reduction      {:.1}%  (paper: 44.6%)", ms * 100.0);
        println!(
            "data brought into HBM but never used before eviction \
             (paper: Hybrid2 13.7%, Bumblebee 13.3%):"
        );
        for d in [Design::Hybrid2, Design::Bumblebee] {
            let i = Design::fig8().iter().position(|&x| x == d).expect("a Fig. 8 design");
            let ratio = data.overfetch(i).expect("both designs track over-fetch");
            println!("  {:10} {:5.1}%", d.label(), ratio * 100.0);
        }
    }
    bumblebee_bench::report_peak_rss();
}
