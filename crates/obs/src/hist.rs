//! Power-of-two histograms.

/// A histogram with 64 power-of-two buckets: bucket `k` counts values `v`
/// with `v.ilog2() == k` (bucket 0 also takes `v == 0`), so the full `u64`
/// range is covered with a fixed 512-byte footprint and O(1) insertion —
/// cheap enough to stay always-on inside the DRAM channel model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pow2Histogram {
    buckets: [u64; 64],
    total: u64,
    sum: u64,
    max: u64,
}

impl Default for Pow2Histogram {
    fn default() -> Pow2Histogram {
        Pow2Histogram { buckets: [0; 64], total: 0, sum: 0, max: 0 }
    }
}

impl Pow2Histogram {
    /// An empty histogram.
    pub fn new() -> Pow2Histogram {
        Pow2Histogram::default()
    }

    /// The bucket index `v` falls into (0 and 1 share bucket 0): `v.ilog2()`
    /// for `v ≥ 1`, computed without a branch on zero.
    #[inline]
    pub fn bucket_of(v: u64) -> usize {
        (v | 1).ilog2() as usize
    }

    /// The half-open value range `[lo, hi)` of bucket `k`.
    pub fn bounds(k: usize) -> (u64, u64) {
        if k == 0 {
            (0, 2)
        } else {
            (1 << k, 1u64.checked_shl(k as u32 + 1).unwrap_or(u64::MAX))
        }
    }

    /// Records one value. Inlined across crates: the DRAM model records
    /// two values per scheduled chunk.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.total += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Raw bucket counts.
    pub fn buckets(&self) -> &[u64; 64] {
        &self.buckets
    }

    /// Values recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// The value at quantile `q` (e.g. `0.95`), resolved to the *upper*
    /// bound of the power-of-two bucket holding that rank (clamped to the
    /// recorded [`max`](Self::max)) — a deterministic, conservative
    /// estimate whose error is bounded by the bucket width. Returns 0 when
    /// empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let target = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (k, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bounds(k).1.saturating_sub(1).min(self.max);
            }
        }
        self.max
    }

    /// `(bucket, lo, count)` for every non-empty bucket, low to high.
    pub fn nonzero(&self) -> impl Iterator<Item = (usize, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(k, &c)| (k, Self::bounds(k).0, c))
    }
}

/// The two always-on distributions one DRAM device maintains.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeviceHistograms {
    /// Chunk completion latency in CPU cycles (`done_at − now`).
    pub latency: Pow2Histogram,
    /// Cycles a chunk's data burst waited for the shared channel bus after
    /// its column access was ready — the queueing-depth signal.
    pub queue_wait: Pow2Histogram,
}

impl DeviceHistograms {
    /// Empty histograms.
    pub fn new() -> DeviceHistograms {
        DeviceHistograms::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_follow_ilog2() {
        assert_eq!(Pow2Histogram::bucket_of(0), 0);
        assert_eq!(Pow2Histogram::bucket_of(1), 0);
        assert_eq!(Pow2Histogram::bucket_of(2), 1);
        assert_eq!(Pow2Histogram::bucket_of(3), 1);
        assert_eq!(Pow2Histogram::bucket_of(4), 2);
        assert_eq!(Pow2Histogram::bucket_of(u64::MAX), 63);
        // The branch-free form equals the zero-guarded `ilog2` at every
        // bucket edge.
        let guarded = |v: u64| if v == 0 { 0 } else { v.ilog2() as usize };
        for k in 0..64 {
            let p = 1u64 << k;
            for v in [p - 1, p, p + 1, p | (p >> 1)] {
                assert_eq!(Pow2Histogram::bucket_of(v), guarded(v), "{v}");
            }
        }
    }

    #[test]
    fn bounds_cover_the_range() {
        assert_eq!(Pow2Histogram::bounds(0), (0, 2));
        assert_eq!(Pow2Histogram::bounds(1), (2, 4));
        assert_eq!(Pow2Histogram::bounds(10), (1024, 2048));
        assert_eq!(Pow2Histogram::bounds(63).1, u64::MAX);
        for v in [0u64, 1, 2, 3, 100, 1 << 40] {
            let (lo, hi) = Pow2Histogram::bounds(Pow2Histogram::bucket_of(v));
            assert!(lo <= v && v < hi, "{v} in [{lo},{hi})");
        }
    }

    #[test]
    fn record_accumulates_aggregates() {
        let mut h = Pow2Histogram::new();
        for v in [1u64, 2, 3, 1000] {
            h.record(v);
        }
        assert_eq!(h.total(), 4);
        assert_eq!(h.sum(), 1006);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 251.5).abs() < 1e-12);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[1], 2);
        assert_eq!(h.buckets()[9], 1);
        let nz: Vec<_> = h.nonzero().collect();
        assert_eq!(nz, vec![(0, 0, 1), (1, 2, 2), (9, 512, 1)]);
    }

    #[test]
    fn empty_histogram_is_sane() {
        let h = Pow2Histogram::new();
        assert_eq!(h.total(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.nonzero().count(), 0);
        assert_eq!(h.percentile(0.5), 0);
    }

    #[test]
    fn percentiles_walk_buckets_and_clamp_to_max() {
        let mut h = Pow2Histogram::new();
        for _ in 0..90 {
            h.record(3); // bucket 1: [2,4)
        }
        for _ in 0..10 {
            h.record(700); // bucket 9: [512,1024)
        }
        assert_eq!(h.percentile(0.5), 3, "bucket upper bound, bucket 1");
        assert_eq!(h.percentile(0.9), 3);
        assert_eq!(h.percentile(0.95), 700, "top bucket clamps to max");
        assert_eq!(h.percentile(1.0), 700);
        let mut one = Pow2Histogram::new();
        one.record(5);
        assert_eq!(one.percentile(0.0), 5, "q=0 still resolves rank 1");
    }
}
