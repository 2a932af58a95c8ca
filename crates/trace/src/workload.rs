//! The synthetic access-stream generator.

use crate::rng::SplitMix64;
use crate::spec::WorkloadSpec;
use memsim_types::{Access, AccessBatch, AccessKind, Addr};

/// Region size used for hot-set bookkeeping (an OS page).
const REGION_BYTES: u64 = 4096;
/// Line granularity of generated accesses (an LLC line).
const LINE_BYTES: u64 = 64;

/// An infinite, deterministic stream of LLC-level memory accesses
/// realizing a [`WorkloadSpec`]; see the [crate documentation](crate).
///
/// The generator emits *runs*: a run starts at a page chosen by the
/// temporal-locality model (hot set with skew, or uniform cold pick) and
/// proceeds sequentially in 64 B lines for a geometrically distributed
/// length around `mean_run_bytes` — the spatial-locality model. Hot pages
/// are scattered over the footprint by a fixed odd-stride permutation so
/// hotness is uncorrelated with physical placement.
#[derive(Debug, Clone)]
pub struct Workload {
    spec: WorkloadSpec,
    /// Wrap modulus, clamped to ≥ 1 at construction.
    limit_bytes: u64,
    rng: SplitMix64,
    regions: u64,
    hot_regions: u64,
    perm_stride: u64,
    /// `spec.insts_per_miss()`, hoisted out of the per-access path.
    mean_gap: f64,
    /// Mean run length in lines, hoisted out of the per-run path.
    mean_lines: f64,
    run_remaining: u32,
    cursor: u64,
    accesses_emitted: u64,
    instructions_emitted: u64,
}

impl Workload {
    /// Creates a generator for `spec`, wrapping all addresses modulo
    /// `limit_bytes` (pass the OS-visible capacity, or `u64::MAX` for an
    /// unbounded virtual stream), seeded deterministically by `seed`.
    pub fn new(spec: WorkloadSpec, limit_bytes: u64, seed: u64) -> Workload {
        let regions = (spec.footprint_bytes / REGION_BYTES).max(1);
        let hot_regions = ((regions as f64 * spec.hot_fraction) as u64).max(1);
        // An odd stride coprime with `regions` scatters logical region ids.
        let mut perm_stride = 0x9E37_79B1 % regions;
        if perm_stride == 0 {
            perm_stride = 1;
        }
        while gcd(perm_stride, regions) != 1 {
            perm_stride += 1;
        }
        let mean_gap = spec.insts_per_miss();
        let mean_lines = (spec.mean_run_bytes / LINE_BYTES).max(1) as f64;
        Workload {
            spec,
            limit_bytes: limit_bytes.max(1),
            rng: SplitMix64::seed_from_u64(seed),
            regions,
            hot_regions,
            perm_stride,
            mean_gap,
            mean_lines,
            run_remaining: 0,
            cursor: 0,
            accesses_emitted: 0,
            instructions_emitted: 0,
        }
    }

    /// The spec this stream realizes.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Accesses generated so far.
    pub fn accesses_emitted(&self) -> u64 {
        self.accesses_emitted
    }

    /// Instructions represented so far (for MPKI verification).
    pub fn instructions_emitted(&self) -> u64 {
        self.instructions_emitted
    }

    /// Generates the next access.
    pub fn next_access(&mut self) -> Access {
        if self.run_remaining == 0 {
            self.start_run();
        }
        self.run_remaining -= 1;
        let addr = Addr(self.cursor % self.limit_bytes);
        self.cursor += LINE_BYTES;
        let kind = if self.rng.gen_f64() < self.spec.write_fraction {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let u: f64 = self.rng.gen_f64().max(1e-12);
        let gap = (-self.mean_gap * u.ln()).clamp(1.0, 4_000_000_000.0) as u32;
        self.accesses_emitted += 1;
        self.instructions_emitted += u64::from(gap);
        Access { addr, kind, insts: gap }
    }

    /// Generates the next `n` accesses of the stream into `batch` in SoA
    /// layout — the batched equivalent of calling
    /// [`next_access`](Workload::next_access) `n` times. The RNG draw
    /// sequence, emitted addresses/kinds/gaps and the
    /// `accesses_emitted`/`instructions_emitted` counters are identical to
    /// the one-at-a-time path for any `n`, including chunks that end
    /// mid-run (the run remainder carries over to the next call). `batch`
    /// is recycled here; no per-access `Access` value is constructed.
    pub fn fill_batch(&mut self, batch: &mut AccessBatch, n: usize) {
        batch.clear();
        let limit = self.limit_bytes;
        let write_fraction = self.spec.write_fraction;
        let mean_gap = self.mean_gap;
        let mut insts = 0u64;
        let mut left = n;
        while left > 0 {
            if self.run_remaining == 0 {
                self.start_run();
            }
            // Emit the sequential lines of the current run without
            // re-checking run state per access.
            let take = (self.run_remaining as usize).min(left);
            for _ in 0..take {
                let addr = self.cursor % limit;
                self.cursor += LINE_BYTES;
                let kind = if self.rng.gen_f64() < write_fraction {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                let u: f64 = self.rng.gen_f64().max(1e-12);
                let gap = (-mean_gap * u.ln()).clamp(1.0, 4_000_000_000.0) as u32;
                insts += u64::from(gap);
                batch.push(addr, kind, gap);
            }
            self.run_remaining -= take as u32;
            left -= take;
        }
        self.accesses_emitted += n as u64;
        self.instructions_emitted += insts;
    }

    fn start_run(&mut self) {
        let logical = if self.rng.gen_f64() < self.spec.hot_probability {
            // Skewed pick inside the hot set: u^skew concentrates on low ids.
            let u: f64 = self.rng.gen_f64();
            ((self.hot_regions as f64) * u.powf(self.spec.hot_skew)) as u64
        } else {
            self.rng.gen_below(self.regions)
        };
        let region = (logical % self.regions).wrapping_mul(self.perm_stride) % self.regions;
        let line_in_region = self.rng.gen_below(REGION_BYTES / LINE_BYTES);
        self.cursor = region * REGION_BYTES + line_in_region * LINE_BYTES;
        let u: f64 = self.rng.gen_f64().max(1e-12);
        self.run_remaining = (-self.mean_lines * u.ln()).clamp(1.0, 1e9) as u32;
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

impl Iterator for Workload {
    type Item = Access;

    fn next(&mut self) -> Option<Access> {
        Some(self.next_access())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SpecProfile;
    use std::collections::BTreeSet;

    fn stream(name: &str, n: usize) -> (Workload, Vec<Access>) {
        let spec = SpecProfile::named(name).spec(16);
        let mut w = Workload::new(spec, u64::MAX, 7);
        let v: Vec<Access> = (0..n).map(|_| w.next_access()).collect();
        (w, v)
    }

    #[test]
    fn deterministic_for_same_seed() {
        let spec = SpecProfile::mcf().spec(16);
        let a: Vec<Access> = Workload::new(spec.clone(), u64::MAX, 1).take(100).collect();
        let b: Vec<Access> = Workload::new(spec, u64::MAX, 1).take(100).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let spec = SpecProfile::mcf().spec(16);
        let a: Vec<Access> = Workload::new(spec.clone(), u64::MAX, 1).take(100).collect();
        let b: Vec<Access> = Workload::new(spec, u64::MAX, 2).take(100).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn mpki_converges_to_target() {
        let (w, _) = stream("mcf", 50_000);
        let mpki = w.accesses_emitted() as f64 * 1000.0 / w.instructions_emitted() as f64;
        let target = SpecProfile::mcf().mpki;
        assert!((mpki - target).abs() / target < 0.05, "mpki {mpki} vs {target}");
    }

    #[test]
    fn addresses_stay_within_footprint_ballpark() {
        let spec = SpecProfile::named("leela").spec(16);
        let fp = spec.footprint_bytes;
        let mut w = Workload::new(spec, u64::MAX, 3);
        for _ in 0..10_000 {
            let a = w.next_access();
            // Runs may stream slightly past the last region.
            assert!(a.addr.0 < fp + (1 << 20), "addr {} fp {fp}", a.addr.0);
        }
    }

    #[test]
    fn limit_wraps_addresses() {
        let spec = SpecProfile::named("roms").spec(16);
        let mut w = Workload::new(spec, 1 << 20, 3);
        for _ in 0..1000 {
            assert!(w.next_access().addr.0 < 1 << 20);
        }
    }

    #[test]
    fn strong_spatial_touches_more_of_each_page_than_weak() {
        // Fraction of 64 KB page touched per visit: xz (strong) ≫ wrf (weak).
        let coverage = |name: &str| {
            let (_, v) = stream(name, 40_000);
            let mut lines = BTreeSet::new();
            let mut pages = BTreeSet::new();
            for a in &v {
                lines.insert(a.addr.0 / 64);
                pages.insert(a.addr.0 / 65536);
            }
            lines.len() as f64 / (pages.len() as f64 * 1024.0)
        };
        let strong = coverage("xz");
        let weak = coverage("wrf");
        assert!(strong > 2.0 * weak, "strong {strong} weak {weak}");
    }

    #[test]
    fn strong_temporal_reuses_lines_more_than_weak() {
        let reuse = |name: &str| {
            let (_, v) = stream(name, 40_000);
            let distinct: BTreeSet<u64> = v.iter().map(|a| a.addr.0 / 64).collect();
            v.len() as f64 / distinct.len() as f64
        };
        let strong = reuse("wrf");
        let weak = reuse("xz");
        assert!(strong > 1.5 * weak, "strong {strong} weak {weak}");
    }

    #[test]
    fn write_fraction_close_to_spec() {
        let (_, v) = stream("lbm", 20_000);
        let writes = v.iter().filter(|a| a.kind == AccessKind::Write).count() as f64;
        let frac = writes / v.len() as f64;
        assert!((frac - 0.45).abs() < 0.03, "write fraction {frac}");
    }

    #[test]
    fn fill_batch_matches_serial_stream_at_any_chunking() {
        // Awkward chunk widths force chunks to end mid-run; the batched
        // stream must still replay the serial RNG sequence exactly,
        // counters included.
        for chunk in [1usize, 7, 64, 1000] {
            let spec = SpecProfile::named("mcf").spec(16);
            let mut serial = Workload::new(spec.clone(), 1 << 22, 9);
            let reference: Vec<Access> = (0..3000).map(|_| serial.next_access()).collect();
            let mut batched = Workload::new(spec, 1 << 22, 9);
            let mut batch = memsim_types::AccessBatch::new();
            let mut replay = Vec::new();
            while replay.len() < 3000 {
                let n = chunk.min(3000 - replay.len());
                batched.fill_batch(&mut batch, n);
                assert_eq!(batch.len(), n);
                for i in 0..batch.len() {
                    replay.push(batch.get(i));
                }
            }
            assert_eq!(replay, reference, "chunk width {chunk}");
            assert_eq!(batched.accesses_emitted(), serial.accesses_emitted());
            assert_eq!(batched.instructions_emitted(), serial.instructions_emitted());
        }
    }

    #[test]
    fn iterator_interface_works() {
        let spec = SpecProfile::mcf().spec(16);
        let n = Workload::new(spec, u64::MAX, 1).take(10).count();
        assert_eq!(n, 10);
    }
}
