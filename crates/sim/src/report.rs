//! Run reports, text-table rendering and JSONL serialization.

use memsim_types::json::JsonObj;
use memsim_types::CtrlStats;

/// Everything one simulation run produces.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Design label (e.g. `"Bumblebee"`).
    pub design: String,
    /// Workload name (e.g. `"mcf"`).
    pub workload: String,
    /// Instructions retired.
    pub instructions: u64,
    /// Total cycles.
    pub cycles: u64,
    /// Raw instructions per cycle.
    pub ipc: f64,
    /// LLC-miss accesses executed.
    pub accesses: u64,
    /// Bytes moved on the HBM device.
    pub hbm_bytes: u64,
    /// Bytes moved on the off-chip DRAM device.
    pub dram_bytes: u64,
    /// Memory dynamic energy in pJ.
    pub dynamic_energy_pj: f64,
    /// Memory background (static + refresh) energy in pJ.
    pub background_energy_pj: f64,
    /// Metadata access latency on the critical path (cycles).
    pub mal_cycles: u64,
    /// OS stall cycles (page faults).
    pub stall_cycles: u64,
    /// Fraction of HBM-fetched data evicted unused, if tracked.
    pub overfetch: Option<f64>,
    /// Metadata footprint in bytes.
    pub metadata_bytes: u64,
    /// OS-visible memory at end of run.
    pub os_visible_bytes: u64,
    /// cHBM↔mHBM mode-switch traffic in bytes, if the design has modes.
    pub mode_switch_bytes: Option<u64>,
    /// Major page faults, if tracked.
    pub page_faults: Option<u64>,
    /// Controller event counters.
    pub stats: CtrlStats,
}

impl SimReport {
    /// IPC of this run relative to `baseline` (the paper's normalization).
    pub fn normalized_ipc(&self, baseline: &SimReport) -> f64 {
        if baseline.ipc == 0.0 {
            0.0
        } else {
            self.ipc / baseline.ipc
        }
    }

    /// Dynamic energy relative to `baseline`.
    pub fn normalized_energy(&self, baseline: &SimReport) -> f64 {
        if baseline.dynamic_energy_pj == 0.0 {
            0.0
        } else {
            self.dynamic_energy_pj / baseline.dynamic_energy_pj
        }
    }

    /// HBM traffic relative to the baseline's (DRAM-only) total traffic.
    pub fn normalized_hbm_traffic(&self, baseline: &SimReport) -> f64 {
        if baseline.dram_bytes == 0 {
            0.0
        } else {
            self.hbm_bytes as f64 / baseline.dram_bytes as f64
        }
    }

    /// Off-chip DRAM traffic relative to the baseline's.
    pub fn normalized_dram_traffic(&self, baseline: &SimReport) -> f64 {
        if baseline.dram_bytes == 0 {
            0.0
        } else {
            self.dram_bytes as f64 / baseline.dram_bytes as f64
        }
    }

    /// Appends every report field (flat keys, controller counters under
    /// `stats_*`) to a JSONL object under construction.
    pub fn append_json(&self, obj: &mut JsonObj) {
        let o = std::mem::take(obj)
            .str("design", &self.design)
            .str("workload", &self.workload)
            .u64("instructions", self.instructions)
            .u64("cycles", self.cycles)
            .f64("ipc", self.ipc)
            .u64("accesses", self.accesses)
            .u64("hbm_bytes", self.hbm_bytes)
            .u64("dram_bytes", self.dram_bytes)
            .f64("dynamic_energy_pj", self.dynamic_energy_pj)
            .f64("background_energy_pj", self.background_energy_pj)
            .u64("mal_cycles", self.mal_cycles)
            .u64("stall_cycles", self.stall_cycles)
            .opt_f64("overfetch", self.overfetch)
            .u64("metadata_bytes", self.metadata_bytes)
            .u64("os_visible_bytes", self.os_visible_bytes)
            .opt_u64("mode_switch_bytes", self.mode_switch_bytes)
            .opt_u64("page_faults", self.page_faults)
            .u64("stats_hbm_hits", self.stats.hbm_hits)
            .u64("stats_offchip_serves", self.stats.offchip_serves)
            .u64("stats_block_fills", self.stats.block_fills)
            .u64("stats_page_migrations", self.stats.page_migrations)
            .u64("stats_evictions", self.stats.evictions)
            .u64("stats_switch_to_mhbm", self.stats.switch_to_mhbm)
            .u64("stats_switch_to_chbm", self.stats.switch_to_chbm)
            .u64("stats_zombie_evictions", self.stats.zombie_evictions)
            .u64("stats_pressure_flushes", self.stats.pressure_flushes)
            .u64("stats_threshold_rejections", self.stats.threshold_rejections)
            .u64("stats_allocations", self.stats.allocations)
            .u64("stats_alloc_in_hbm", self.stats.alloc_in_hbm);
        *obj = o;
    }
}

/// Renders a simple aligned text table (first row = header).
pub fn render_table(rows: &[Vec<String>]) -> String {
    if rows.is_empty() {
        return String::new();
    }
    let cols = rows.iter().map(Vec::len).max().unwrap_or(0);
    let mut widths = vec![0usize; cols];
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    for (r, row) in rows.iter().enumerate() {
        for (i, cell) in row.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(&format!("{:width$}", cell, width = widths[i]));
        }
        out.push('\n');
        if r == 0 {
            let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
            out.push_str(&"-".repeat(total));
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(ipc: f64, dram: u64, energy: f64) -> SimReport {
        SimReport {
            design: "x".into(),
            workload: "w".into(),
            instructions: 1000,
            cycles: 100,
            ipc,
            accesses: 10,
            hbm_bytes: 512,
            dram_bytes: dram,
            dynamic_energy_pj: energy,
            background_energy_pj: 1.0,
            mal_cycles: 5,
            stall_cycles: 0,
            overfetch: None,
            metadata_bytes: 0,
            os_visible_bytes: 0,
            mode_switch_bytes: None,
            page_faults: None,
            stats: CtrlStats::new(),
        }
    }

    #[test]
    fn normalizations() {
        let base = report(1.0, 1000, 10.0);
        let fast = report(2.0, 500, 8.0);
        assert!((fast.normalized_ipc(&base) - 2.0).abs() < 1e-12);
        assert!((fast.normalized_energy(&base) - 0.8).abs() < 1e-12);
        assert!((fast.normalized_dram_traffic(&base) - 0.5).abs() < 1e-12);
        assert!((fast.normalized_hbm_traffic(&base) - 0.512).abs() < 1e-12);
    }

    #[test]
    fn zero_baseline_is_safe() {
        let zero = report(0.0, 0, 0.0);
        let x = report(1.0, 10, 1.0);
        assert_eq!(x.normalized_ipc(&zero), 0.0);
        assert_eq!(x.normalized_energy(&zero), 0.0);
        assert_eq!(x.normalized_dram_traffic(&zero), 0.0);
    }

    #[test]
    fn table_renders_aligned() {
        let t = render_table(&[
            vec!["design".into(), "ipc".into()],
            vec!["bumblebee".into(), "2.00".into()],
            vec!["ac".into(), "1.20".into()],
        ]);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("design"));
        assert!(lines[1].starts_with("---"));
        assert!(lines[2].contains("bumblebee"));
    }

    #[test]
    fn empty_table_is_empty() {
        assert_eq!(render_table(&[]), "");
    }
}
