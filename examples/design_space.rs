//! Design-space exploration (the paper's Fig. 6 methodology): sweep block
//! and page sizes, print normalized IPC and metadata cost per point.
//!
//! ```text
//! cargo run --release --example design_space
//! ```

use bumblebee::core::{BumblebeeConfig, MetadataBreakdown};
use bumblebee::sim::figures::fig6;
use bumblebee::sim::{Engine, RunConfig};
use bumblebee::trace::SpecProfile;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = RunConfig::at_scale(64, 60_000);
    // A representative mix: one workload per locality archetype.
    let profiles =
        [SpecProfile::mcf(), SpecProfile::wrf(), SpecProfile::xz(), SpecProfile::named("lbm")];

    println!("block-page sweep on {} workloads:\n", profiles.len());
    let (points, _) = fig6::run_with(&Engine::new(1), &cfg, &profiles)?;
    println!("{:>14}  {:>8}  {:>12}", "block-page", "IPC", "metadata KB");
    for p in &points {
        let g = cfg
            .clone()
            .with_block_page(p.block_kb << 10, p.page_kb << 10)?
            .geometry;
        let meta = MetadataBreakdown::compute(&g, &BumblebeeConfig::default());
        println!(
            "{:>10}-{:<3}  {:8.2}  {:12.1}",
            format!("{}KB", p.block_kb),
            format!("{}KB", p.page_kb),
            p.speedup,
            meta.total() as f64 / 1024.0
        );
    }
    if let Some(best) = fig6::best(&points) {
        println!(
            "\nbest point: {}KB blocks / {}KB pages (paper finds 2KB/64KB at full scale)",
            best.block_kb, best.page_kb
        );
    }
    Ok(())
}
