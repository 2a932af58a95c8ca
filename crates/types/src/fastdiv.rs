//! Strength-reduced division by a divisor fixed at construction time.
//!
//! Nearly every divisor in the simulator's per-access path — page sizes,
//! interleave units, channel/bank counts, set counts — is a power of two
//! for real memory parts, but they are runtime values the compiler cannot
//! fold. [`QuickDiv`] captures the divisor once and turns each `div`/`rem`/
//! `div_ceil` into a shift/mask in the power-of-two case, falling back to
//! hardware division otherwise; results are exactly `v / d`, `v % d` and
//! `v.div_ceil(d)` either way (the paper's design-space sweep includes
//! non-power-of-two 96 KB pages, so the fallback is load-bearing, not
//! defensive).

/// Sentinel shift for "divisor is not a power of two — divide for real".
const NO_SHIFT: u32 = u32::MAX;

/// A divisor captured once for repeated exact `div`/`rem`/`div_ceil`; see the
/// [module documentation](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QuickDiv {
    divisor: u64,
    shift: u32,
}

// `div`/`rem` deliberately mirror the operator names; they cannot be the
// `Div`/`Rem` traits because the operand is a plain `u64`, not a `QuickDiv`.
#[allow(clippy::should_implement_trait)]
impl QuickDiv {
    /// Captures `divisor`.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    #[inline]
    pub fn new(divisor: u64) -> QuickDiv {
        assert!(divisor > 0, "QuickDiv divisor must be nonzero");
        let shift =
            if divisor.is_power_of_two() { divisor.trailing_zeros() } else { NO_SHIFT };
        QuickDiv { divisor, shift }
    }

    /// The captured divisor.
    #[inline]
    pub fn divisor(self) -> u64 {
        self.divisor
    }

    /// `v / divisor`.
    #[inline]
    pub fn div(self, v: u64) -> u64 {
        if self.shift == NO_SHIFT {
            v / self.divisor
        } else {
            v >> self.shift
        }
    }

    /// `v % divisor`.
    #[inline]
    pub fn rem(self, v: u64) -> u64 {
        if self.shift == NO_SHIFT {
            v % self.divisor
        } else {
            v & ((1u64 << self.shift) - 1)
        }
    }

    /// `(v / divisor, v % divisor)`.
    #[inline]
    pub fn div_rem(self, v: u64) -> (u64, u64) {
        (self.div(v), self.rem(v))
    }

    /// `v.div_ceil(divisor)`: the quotient rounded up, without overflow
    /// for any `v`.
    #[inline]
    pub fn div_ceil(self, v: u64) -> u64 {
        if self.shift == NO_SHIFT {
            v.div_ceil(self.divisor)
        } else {
            (v >> self.shift) + u64::from(v & ((1u64 << self.shift) - 1) != 0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_of_two_matches_hardware_division() {
        for d in [1u64, 2, 64, 512, 4096, 1 << 20, 1 << 40] {
            let q = QuickDiv::new(d);
            assert_eq!(q.divisor(), d);
            for v in [0u64, 1, d - 1, d, d + 1, 3 * d + 7, u64::MAX] {
                assert_eq!(q.div(v), v / d, "div {v} / {d}");
                assert_eq!(q.rem(v), v % d, "rem {v} % {d}");
                assert_eq!(q.div_rem(v), (v / d, v % d));
                assert_eq!(q.div_ceil(v), v.div_ceil(d), "div_ceil {v} / {d}");
            }
        }
    }

    #[test]
    fn non_power_of_two_falls_back_exactly() {
        // 96 KB pages and an 85-set geometry are the real fallback users.
        for d in [3u64, 85, 96 << 10, 10_000_000_007] {
            let q = QuickDiv::new(d);
            for v in [0u64, 1, d - 1, d, d + 1, 12345678901234567, u64::MAX] {
                assert_eq!(q.div(v), v / d, "div {v} / {d}");
                assert_eq!(q.rem(v), v % d, "rem {v} % {d}");
                assert_eq!(q.div_ceil(v), v.div_ceil(d), "div_ceil {v} / {d}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_divisor_panics() {
        QuickDiv::new(0);
    }
}
