//! Fig. 1: percentage of cache lines by per-64 B access count before
//! eviction, for line sizes 64 B – 64 KB, on the three locality archetypes.
//!
//! Reproduces the paper's motivation experiment: a 1 GB (scaled) cHBM is
//! modelled as an 8-way LRU cache of `line_bytes` lines; every eviction
//! records the victim's average access count per 64 B of line, bucketed as
//! in the figure's legend (N < 5, 5 ≤ N < 10, 10 ≤ N < 15, 15 ≤ N < 20,
//! 20 ≤ N).

use crate::engine::Engine;
use crate::report::render_table;
use crate::run::RunConfig;
use memsim_trace::SpecProfile;
use memsim_types::json::JsonObj;

/// The line sizes on the figure's x-axis.
pub const LINE_SIZES: [u64; 6] = [64, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10];

/// The legend buckets (upper bounds; last is unbounded).
pub const BUCKET_BOUNDS: [f64; 4] = [5.0, 10.0, 15.0, 20.0];

/// Bucket shares for one (workload, line size) cell, in legend order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BucketShares(pub [f64; 5]);

impl BucketShares {
    /// Shares sum to 1 (or all-zero when nothing was evicted).
    pub fn total(&self) -> f64 {
        self.0.iter().sum()
    }
}

/// An 8-way LRU line cache that records victim access statistics.
struct LineCache {
    ways: usize,
    sets: usize,
    // (tag, accesses) per line; tag == u64::MAX means invalid.
    lines: Vec<(u64, u64)>,
    ranks: Vec<u8>,
    line_bytes: u64,
    buckets: [u64; 5],
    evictions: u64,
}

impl LineCache {
    fn new(capacity_bytes: u64, line_bytes: u64) -> LineCache {
        let ways = 8usize;
        let sets = ((capacity_bytes / line_bytes) as usize / ways).max(1);
        LineCache {
            ways,
            sets,
            lines: vec![(u64::MAX, 0); sets * ways],
            ranks: (0..sets * ways).map(|i| (i % ways) as u8).collect(),
            line_bytes,
            buckets: [0; 5],
            evictions: 0,
        }
    }

    fn bucket_of(&self, accesses: u64) -> usize {
        let per64 = accesses as f64 / (self.line_bytes as f64 / 64.0);
        BUCKET_BOUNDS.iter().position(|&b| per64 < b).unwrap_or(4)
    }

    fn touch(&mut self, addr: u64) {
        let line = addr / self.line_bytes;
        let set = (line % self.sets as u64) as usize;
        let tag = line / self.sets as u64;
        let base = set * self.ways;
        if let Some(w) = (0..self.ways).find(|&w| self.lines[base + w].0 == tag) {
            self.lines[base + w].1 += 1;
            self.promote(base, w);
            return;
        }
        // Miss: evict LRU, record its bucket.
        let victim = (0..self.ways)
            .max_by_key(|&w| self.ranks[base + w])
            .expect("ways > 0");
        let (vtag, vaccesses) = self.lines[base + victim];
        if vtag != u64::MAX {
            let b = self.bucket_of(vaccesses);
            self.buckets[b] += 1;
            self.evictions += 1;
        }
        self.lines[base + victim] = (tag, 1);
        self.promote(base, victim);
    }

    fn promote(&mut self, base: usize, way: usize) {
        let old = self.ranks[base + way];
        for w in 0..self.ways {
            if self.ranks[base + w] < old {
                self.ranks[base + w] += 1;
            }
        }
        self.ranks[base + way] = 0;
    }

    fn drain(&mut self) {
        for i in 0..self.lines.len() {
            let (tag, accesses) = self.lines[i];
            if tag != u64::MAX {
                let b = self.bucket_of(accesses);
                self.buckets[b] += 1;
                self.evictions += 1;
                self.lines[i] = (u64::MAX, 0);
            }
        }
    }

    fn shares(&self) -> BucketShares {
        if self.evictions == 0 {
            return BucketShares([0.0; 5]);
        }
        let mut s = [0.0; 5];
        for (i, &c) in self.buckets.iter().enumerate() {
            s[i] = c as f64 / self.evictions as f64;
        }
        BucketShares(s)
    }
}

/// One Fig. 1 cell: `profile`'s access stream through a cache of
/// `line_bytes` lines.
fn run_cell(cfg: &RunConfig, profile: &SpecProfile, line_bytes: u64) -> BucketShares {
    // 1 GB cHBM in the paper; the scaled geometry's full HBM here.
    let mut cache = LineCache::new(cfg.geometry().hbm_bytes(), line_bytes);
    let mut workload = cfg.workload(profile);
    for _ in 0..cfg.accesses {
        cache.touch(workload.next_access().addr.0);
    }
    cache.drain();
    cache.shares()
}

/// Runs the Fig. 1 experiment for one workload at every line size.
pub fn run_workload(cfg: &RunConfig, profile: &SpecProfile) -> Vec<(u64, BucketShares)> {
    LINE_SIZES.iter().map(|&l| (l, run_cell(cfg, profile, l))).collect()
}

/// Runs Fig. 1 for the paper's three archetypes (mcf, wrf, xz) on
/// `engine`: one unit of work per (workload, line size) cell, so all 18
/// cells fill the available width.
pub fn run_with(engine: &Engine, cfg: &RunConfig) -> Vec<(SpecProfile, Vec<(u64, BucketShares)>)> {
    let profiles = [SpecProfile::mcf(), SpecProfile::wrf(), SpecProfile::xz()];
    let cells: Vec<(SpecProfile, u64)> = profiles
        .iter()
        .flat_map(|p| LINE_SIZES.iter().map(|&l| (*p, l)))
        .collect();
    let shares = engine.par_map(&cells, |(p, line_bytes)| run_cell(cfg, p, *line_bytes));
    profiles
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            let rows = LINE_SIZES
                .iter()
                .enumerate()
                .map(|(j, &l)| (l, shares[i * LINE_SIZES.len() + j]))
                .collect();
            (p, rows)
        })
        .collect()
}

/// One JSONL line per (workload, line size) cell.
pub fn jsonl_lines(data: &[(SpecProfile, Vec<(u64, BucketShares)>)]) -> Vec<String> {
    let mut lines = Vec::new();
    for (p, cells) in data {
        for (line_bytes, shares) in cells {
            lines.push(
                JsonObj::new()
                    .str("kind", "fig1")
                    .str("workload", p.name)
                    .u64("line_bytes", *line_bytes)
                    .f64("share_lt5", shares.0[0])
                    .f64("share_5_10", shares.0[1])
                    .f64("share_10_15", shares.0[2])
                    .f64("share_15_20", shares.0[3])
                    .f64("share_ge20", shares.0[4])
                    .finish(),
            );
        }
    }
    lines
}

/// Renders the figure data as a text table.
pub fn render(data: &[(SpecProfile, Vec<(u64, BucketShares)>)]) -> String {
    let mut rows = vec![vec![
        "workload".to_string(),
        "line".to_string(),
        "N<5".to_string(),
        "5-10".to_string(),
        "10-15".to_string(),
        "15-20".to_string(),
        "20+".to_string(),
    ]];
    for (p, cells) in data {
        for (line, shares) in cells {
            let mut row = vec![p.name.to_string(), human_size(*line)];
            row.extend(shares.0.iter().map(|v| format!("{:5.1}%", v * 100.0)));
            rows.push(row);
        }
    }
    render_table(&rows)
}

fn human_size(bytes: u64) -> String {
    if bytes >= 1 << 10 {
        format!("{}KB", bytes >> 10)
    } else {
        format!("{bytes}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_counts() {
        let c = LineCache::new(1 << 20, 64);
        assert_eq!(c.bucket_of(0), 0);
        assert_eq!(c.bucket_of(4), 0);
        assert_eq!(c.bucket_of(5), 1);
        assert_eq!(c.bucket_of(12), 2);
        assert_eq!(c.bucket_of(19), 3);
        assert_eq!(c.bucket_of(100), 4);
    }

    #[test]
    fn per64_average_scales_with_line_size() {
        // A 1 KB line touched 32 times averages 2 per 64 B → bucket 0.
        let c = LineCache::new(1 << 20, 1024);
        assert_eq!(c.bucket_of(32), 0);
        // Touched 160 times → 10 per 64 B → bucket 2.
        assert_eq!(c.bucket_of(160), 2);
    }

    #[test]
    fn shares_sum_to_one_after_traffic() {
        let mut c = LineCache::new(1 << 16, 64);
        for i in 0..10_000u64 {
            c.touch((i * 7919) % (1 << 22));
        }
        c.drain();
        let s = c.shares();
        assert!((s.total() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn hot_lines_land_in_high_buckets() {
        let mut c = LineCache::new(1 << 16, 64);
        // Touch one line 25 times, then flush.
        for _ in 0..25 {
            c.touch(0);
        }
        c.drain();
        assert_eq!(c.buckets[4], 1);
    }

    #[test]
    fn fig1_shape_wrf_degrades_with_line_size() {
        // The paper's key motivation: for wrf (weak spatial), the share of
        // hot (N ≥ 5) data shrinks as lines grow; for mcf it stays high.
        // Needs enough accesses for hot lines to accumulate real reuse
        // relative to the cHBM capacity.
        let mut cfg = RunConfig::tiny();
        cfg.accesses = 150_000;
        let wrf = run_workload(&cfg, &SpecProfile::wrf());
        let hot = |shares: &BucketShares| 1.0 - shares.0[0];
        let wrf_small = hot(&wrf[0].1);
        let wrf_large = hot(&wrf[5].1);
        assert!(
            wrf_small > wrf_large + 0.2,
            "wrf hot share must fall: 64B {wrf_small:.2} vs 64KB {wrf_large:.2}"
        );
        let mcf = run_workload(&cfg, &SpecProfile::mcf());
        let mcf_large = hot(&mcf[5].1);
        assert!(
            mcf_large > wrf_large,
            "mcf stays hot at 64KB: {mcf_large:.2} vs wrf {wrf_large:.2}"
        );
    }

    #[test]
    fn render_contains_all_cells() {
        let cfg = RunConfig::tiny();
        let mcf = SpecProfile::mcf();
        let data = vec![(mcf, run_workload(&cfg, &mcf))];
        let text = render(&data);
        assert!(text.contains("mcf"));
        assert!(text.contains("64KB"));
        assert!(text.contains('%'));
    }
}
