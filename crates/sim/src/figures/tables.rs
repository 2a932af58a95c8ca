//! Table I, Table II and the §IV-B metadata budget. The §IV-B
//! over-fetching analysis reads Fig. 8's cells
//! ([`Fig8Data::overfetch`](super::fig8::Fig8Data::overfetch)).

use crate::designs::Design;
use crate::engine::Engine;
use crate::report::render_table;
use crate::run::RunConfig;
use bumblebee_core::MetadataBreakdown;
use memsim_dram::presets;
use memsim_trace::SpecProfile;
use memsim_types::json::JsonObj;
use memsim_types::HybridMemoryController;

/// Renders Table I (system configuration) from the actual presets.
pub fn table1(cfg: &RunConfig) -> String {
    let hbm = presets::hbm2(cfg.geometry().hbm_bytes());
    let dram = presets::ddr4_3200(cfg.geometry().dram_bytes());
    let rows = vec![
        vec!["component".to_string(), "configuration".to_string()],
        vec!["Core".to_string(), format!("ARM A72-class, {} MHz", presets::CPU_MHZ)],
        vec!["L1".to_string(), "64 KB/core, 4-way, LRU".to_string()],
        vec!["L2".to_string(), "256 KB/core, 8-way, SRRIP".to_string()],
        vec!["L3".to_string(), "8 MB shared, 16-way, DRRIP".to_string()],
        vec![
            "HBM2".to_string(),
            format!(
                "{} MB, {}x128-bit ch, {}B interleave, {} banks, tCAS-tRCD-tRP {}-{}-{}, {:.0} GB/s",
                hbm.capacity_bytes >> 20,
                hbm.channels,
                hbm.interleave_bytes,
                hbm.banks_per_channel,
                hbm.timing.t_cas,
                hbm.timing.t_rcd,
                hbm.timing.t_rp,
                hbm.peak_gbps()
            ),
        ],
        vec![
            "DDR4-3200".to_string(),
            format!(
                "{} MB, {}x64-bit ch, {} banks, tCAS-tRCD-tRP {}-{}-{}, {:.1} GB/s",
                dram.capacity_bytes >> 20,
                dram.channels,
                dram.banks_per_channel,
                dram.timing.t_cas,
                dram.timing.t_rcd,
                dram.timing.t_rp,
                dram.peak_gbps()
            ),
        ],
        vec![
            "Geometry".to_string(),
            format!(
                "{} KB pages, {} KB blocks, {}-way sets, scale 1/{}",
                cfg.geometry().page_bytes() >> 10,
                cfg.geometry().block_bytes() >> 10,
                cfg.geometry().hbm_ways(),
                cfg.scale
            ),
        ],
    ];
    render_table(&rows)
}

/// One Table II row, measured from the synthetic LLC-miss stream.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Paper-reported MPKI.
    pub paper_mpki: f64,
    /// Measured MPKI of the generated LLC-miss stream.
    pub measured_mpki: f64,
    /// Paper-reported footprint (GB).
    pub paper_footprint_gb: f64,
    /// Measured footprint at this run's scale, re-scaled to paper GB.
    pub measured_footprint_gb: f64,
}

/// Measures every Table II profile on `engine` (one unit of work per
/// profile). The generator emits LLC-miss streams directly, so MPKI comes
/// from the emitted instruction gaps; the footprint is the distinct 4 KB
/// pages touched, re-scaled to paper units.
pub fn table2_with(engine: &Engine, cfg: &RunConfig) -> Vec<Table2Row> {
    engine.par_map(&SpecProfile::table2(), |p| {
        let mut w = cfg.workload(p);
            let mut pages = std::collections::BTreeSet::new();
            for _ in 0..cfg.accesses {
                let a = w.next_access();
                pages.insert(a.addr.0 >> 12);
            }
            let measured_mpki =
                w.accesses_emitted() as f64 * 1000.0 / w.instructions_emitted() as f64;
            let measured_gb =
                (pages.len() as u64 * 4096 * cfg.scale) as f64 / (1u64 << 30) as f64;
            Table2Row {
                name: p.name,
                paper_mpki: p.mpki,
                measured_mpki,
                paper_footprint_gb: p.footprint_mb as f64 / 1024.0,
                measured_footprint_gb: measured_gb,
            }
        })
}

/// One JSONL line per Table II row.
pub fn table2_jsonl(rows: &[Table2Row]) -> Vec<String> {
    rows.iter()
        .map(|r| {
            JsonObj::new()
                .str("kind", "table2")
                .str("benchmark", r.name)
                .f64("paper_mpki", r.paper_mpki)
                .f64("measured_mpki", r.measured_mpki)
                .f64("paper_footprint_gb", r.paper_footprint_gb)
                .f64("measured_footprint_gb", r.measured_footprint_gb)
                .finish()
        })
        .collect()
}

/// Renders Table II with paper-vs-measured columns.
pub fn render_table2(rows: &[Table2Row]) -> String {
    let mut t = vec![vec![
        "benchmark".to_string(),
        "MPKI (paper)".to_string(),
        "MPKI (measured)".to_string(),
        "footprint GB (paper)".to_string(),
        "footprint GB (touched)".to_string(),
    ]];
    for r in rows {
        t.push(vec![
            r.name.to_string(),
            format!("{:.1}", r.paper_mpki),
            format!("{:.1}", r.measured_mpki),
            format!("{:.1}", r.paper_footprint_gb),
            format!("{:.1}", r.measured_footprint_gb),
        ]);
    }
    render_table(&t)
}

/// One §IV-B metadata budget row: a design built once at the run's
/// geometry.
#[derive(Debug, Clone)]
pub struct MetadataRow {
    /// The design.
    pub design: Design,
    /// Controller metadata in bytes.
    pub metadata_bytes: u64,
    /// Bumblebee's PRT/BLE/tracker split; `None` for the other designs.
    pub breakdown: Option<MetadataBreakdown>,
}

/// Builds each compared design once and measures its metadata (§IV-B).
pub fn metadata_rows(cfg: &RunConfig) -> Vec<MetadataRow> {
    [
        Design::Alloy,
        Design::Unison,
        Design::Banshee,
        Design::Chameleon,
        Design::Hybrid2,
        Design::Bumblebee,
    ]
    .into_iter()
    .map(|design| {
        let c = design.build(cfg.geometry, cfg.sram_budget);
        MetadataRow {
            design,
            metadata_bytes: c.metadata_bytes(),
            breakdown: c.as_bumblebee().map(|b| b.metadata_breakdown()),
        }
    })
    .collect()
}

/// Renders the metadata budget per design against `sram_budget` bytes.
pub fn render_metadata(rows: &[MetadataRow], sram_budget: u64) -> String {
    let mut t = vec![vec![
        "design".to_string(),
        "metadata (KB)".to_string(),
        "fits 512KB SRAM (scaled)".to_string(),
    ]];
    for r in rows {
        t.push(vec![
            r.design.label().to_string(),
            format!("{:.0}", r.metadata_bytes as f64 / 1024.0),
            if r.metadata_bytes <= sram_budget { "yes" } else { "no" }.to_string(),
        ]);
        // Bumblebee breakdown (paper: 110 KB PRT + 136 KB BLE + 88 KB tracker).
        if let Some(br) = r.breakdown {
            t.push(vec![
                "  (PRT/BLE/tracker)".to_string(),
                format!(
                    "{:.0}/{:.0}/{:.0}",
                    br.prt_bytes as f64 / 1024.0,
                    br.ble_bytes as f64 / 1024.0,
                    br.tracker_bytes as f64 / 1024.0
                ),
                String::new(),
            ]);
        }
    }
    render_table(&t)
}

/// One JSONL line per metadata row, against `sram_budget` bytes.
pub fn metadata_jsonl(rows: &[MetadataRow], sram_budget: u64) -> Vec<String> {
    rows.iter()
        .map(|r| {
            JsonObj::new()
                .str("kind", "metadata")
                .str("design", r.design.label())
                .u64("metadata_bytes", r.metadata_bytes)
                .u64("sram_budget", sram_budget)
                .bool("fits_sram", r.metadata_bytes <= sram_budget)
                .finish()
        })
        .collect()
}

/// Table I as JSONL (one line with the headline configuration numbers).
pub fn table1_jsonl(cfg: &RunConfig) -> Vec<String> {
    let hbm = presets::hbm2(cfg.geometry().hbm_bytes());
    let dram = presets::ddr4_3200(cfg.geometry().dram_bytes());
    vec![JsonObj::new()
        .str("kind", "table1")
        .u64("scale", cfg.scale)
        .u64("hbm_bytes", hbm.capacity_bytes)
        .f64("hbm_peak_gbps", hbm.peak_gbps())
        .u64("dram_bytes", dram.capacity_bytes)
        .f64("dram_peak_gbps", dram.peak_gbps())
        .u64("page_bytes", cfg.geometry().page_bytes())
        .u64("block_bytes", cfg.geometry().block_bytes())
        .u64("hbm_ways", u64::from(cfg.geometry().hbm_ways()))
        .finish()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_mentions_devices_and_geometry() {
        let t = table1(&RunConfig::tiny());
        assert!(t.contains("HBM2"));
        assert!(t.contains("DDR4-3200"));
        assert!(t.contains("64 KB pages"));
    }

    #[test]
    fn table2_mpki_tracks_paper() {
        let cfg = RunConfig::tiny();
        let rows = table2_with(&Engine::new(1), &cfg);
        assert_eq!(rows.len(), 14);
        for r in rows {
            let rel = (r.measured_mpki - r.paper_mpki).abs() / r.paper_mpki;
            assert!(rel < 0.15, "{}: measured {:.2} vs paper {:.2}", r.name, r.measured_mpki, r.paper_mpki);
        }
    }

    #[test]
    fn metadata_table_shows_bumblebee_smallest_hybrid() {
        let cfg = RunConfig::tiny();
        let t = render_metadata(&metadata_rows(&cfg), cfg.sram_budget);
        assert!(t.contains("Bumblebee"));
        assert!(t.contains("PRT/BLE/tracker"));
    }
}
