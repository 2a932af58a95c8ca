//! Order statistics over timing samples.

/// Percentiles tried for a tail, highest first.
const TAIL_PERCENTILES: [f64; 5] = [0.99, 0.95, 0.90, 0.80, 0.75];

/// The tail of a pool too small to keep ten samples beyond p75.
const SMALL_POOL_PERCENTILE: f64 = 0.90;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for even counts); NaN when
/// `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Quartiles `[q1, q2, q3]` by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
/// spreads in the report match the ones computed over whole runs.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    match v.len() {
        0 => [f64::NAN; 3],
        1 => [v[0]; 3],
        len => {
            let m = len + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            [q(1), q(2), q(3)]
        }
    }
}

/// A tail: the highest of p99/p95/p90/p80/p75 that leaves at least ten
/// samples beyond it; p90 for pools too small for any of them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, as a fraction (0.95 for p95).
    pub percentile: f64,
    /// The nearest-rank value at that percentile.
    pub value: f64,
    /// Pool size.
    pub n: usize,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// The [`Tail`] of `values`; NaN value when empty.
pub fn tail(values: &[f64]) -> Tail {
    let v = sorted(values);
    let n = v.len();
    let rank = |p: f64| ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    let percentile = TAIL_PERCENTILES
        .into_iter()
        .find(|&p| n >= rank(p) + 10)
        .unwrap_or(SMALL_POOL_PERCENTILE);
    let r = rank(percentile);
    Tail {
        percentile,
        value: v.get(r - 1).copied().unwrap_or(f64::NAN),
        n,
        beyond: n - r.min(n),
    }
}

/// 64-bit FNV-1a over `bytes`, continuing from `h` (start from
/// [`FNV_OFFSET`]).
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let pool = |n: usize| (1..=n).map(|x| x as f64).collect::<Vec<_>>();
        let t = tail(&pool(490));
        assert_eq!((t.percentile, t.beyond), (0.95, 24));
        assert_eq!(tail(&pool(40)).percentile, 0.75);
        assert_eq!(tail(&pool(50)).percentile, 0.80);
        assert_eq!(tail(&pool(98)).percentile, 0.80);
        let small = tail(&pool(10));
        assert_eq!(
            (small.percentile, small.value, small.beyond),
            (0.90, 9.0, 1)
        );
    }

    #[test]
    fn fnv_is_the_standard_hash() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), FNV_OFFSET);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
