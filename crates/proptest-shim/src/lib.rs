//! A minimal, dependency-free property-testing harness exposing the subset
//! of the `proptest` API this workspace's property tests use.
//!
//! The workspace must build and test without registry access (the default
//! feature set has zero external dependencies), so the real `proptest`
//! crate cannot be a dev-dependency. This shim is wired in under the
//! dependency name `proptest` and provides:
//!
//! * the [`Strategy`] trait with [`prop_map`](Strategy::prop_map) and
//!   [`prop_filter_map`](Strategy::prop_filter_map);
//! * integer-range, boolean, [`Just`], tuple, union and
//!   [`collection::vec`] strategies;
//! * the [`proptest!`], [`prop_assert!`], [`prop_assert_eq!`],
//!   [`prop_assert_ne!`] and [`prop_oneof!`] macros;
//! * [`ProptestConfig`] (`with_cases`) and [`TestCaseError`].
//!
//! Unlike the real crate there is **no shrinking** and no persistence of
//! failing cases; a failure reports the case number and the deterministic
//! seed. Set `PROPTEST_CASES` to change the case count and
//! `PROPTEST_SEED` to reproduce or vary a run.

use std::fmt;
use std::ops::{Range, RangeInclusive};

/// Deterministic SplitMix64 generator driving all strategies.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator from a 64-bit seed.
    pub fn from_seed(seed: u64) -> TestRng {
        TestRng { state: seed }
    }

    /// Next raw 64-bit value (SplitMix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, n)` (n > 0), via 128-bit widening multiply.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform boolean.
    pub fn gen_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

/// The seed for a test run: `PROPTEST_SEED` if set, else a fixed default so
/// CI runs are reproducible.
pub fn env_seed() -> u64 {
    std::env::var("PROPTEST_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0x5EED_B0B1_BEE5_0001)
}

/// The case count for a test run: `PROPTEST_CASES` if set, else the
/// configured count.
pub fn resolve_cases(configured: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(configured)
}

/// Run-time configuration for one `proptest!` block.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of successful cases required.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` cases.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 64 }
    }
}

/// Why a single test case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// The case failed an assertion.
    Fail(String),
    /// The case asked to be discarded (counts against the reject budget).
    Reject(String),
}

impl TestCaseError {
    /// A failed-assertion error.
    pub fn fail(msg: impl Into<String>) -> TestCaseError {
        TestCaseError::Fail(msg.into())
    }

    /// A discarded-case marker.
    pub fn reject(msg: impl Into<String>) -> TestCaseError {
        TestCaseError::Reject(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestCaseError::Fail(m) => write!(f, "{m}"),
            TestCaseError::Reject(m) => write!(f, "rejected: {m}"),
        }
    }
}

/// Result alias matching proptest's.
pub type TestCaseResult = Result<(), TestCaseError>;

/// A generator of random values. `generate` returns `None` when the drawn
/// candidate was rejected (e.g. by [`Strategy::prop_filter_map`]).
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value, or `None` on rejection.
    fn generate(&self, rng: &mut TestRng) -> Option<Self::Value>;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Maps through `f`, rejecting candidates for which it returns `None`.
    fn prop_filter_map<O, F>(self, whence: &'static str, f: F) -> FilterMap<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> Option<O>,
    {
        FilterMap { inner: self, f, _whence: whence }
    }

    /// Keeps only candidates satisfying `f`.
    fn prop_filter<F>(self, whence: &'static str, f: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter { inner: self, f, _whence: whence }
    }

    /// Type-erases the strategy (used by [`prop_oneof!`]).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy.
pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;

    fn generate(&self, rng: &mut TestRng) -> Option<V> {
        (**self).generate(rng)
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> Option<O> {
        self.inner.generate(rng).map(&self.f)
    }
}

/// See [`Strategy::prop_filter_map`].
#[derive(Debug, Clone)]
pub struct FilterMap<S, F> {
    inner: S,
    f: F,
    _whence: &'static str,
}

impl<S: Strategy, O, F: Fn(S::Value) -> Option<O>> Strategy for FilterMap<S, F> {
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> Option<O> {
        self.inner.generate(rng).and_then(&self.f)
    }
}

/// See [`Strategy::prop_filter`].
#[derive(Debug, Clone)]
pub struct Filter<S, F> {
    inner: S,
    f: F,
    _whence: &'static str,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
        self.inner.generate(rng).filter(|v| (self.f)(v))
    }
}

/// Always generates a clone of the wrapped value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> Option<T> {
        Some(self.0.clone())
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> Option<$t> {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                Some(self.start.wrapping_add(rng.below(span) as $t))
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> Option<$t> {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                // span == 0 means the full u64 domain.
                let off = if span == 0 { rng.next_u64() } else { rng.below(span) };
                Some(lo.wrapping_add(off as $t))
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! tuple_strategy {
    ($($s:ident/$v:ident),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Option<Self::Value> {
                let ($($s,)+) = self;
                $(let $v = $s.generate(rng)?;)+
                Some(($($v,)+))
            }
        }
    };
}

tuple_strategy!(A/a);
tuple_strategy!(A/a, B/b);
tuple_strategy!(A/a, B/b, C/c);
tuple_strategy!(A/a, B/b, C/c, D/d);
tuple_strategy!(A/a, B/b, C/c, D/d, E/e);
tuple_strategy!(A/a, B/b, C/c, D/d, E/e, F/f);

/// Uniform choice among type-erased alternatives (see [`prop_oneof!`]).
pub struct Union<V> {
    options: Vec<BoxedStrategy<V>>,
}

impl<V> Union<V> {
    /// A strategy choosing uniformly among `options`.
    ///
    /// # Panics
    ///
    /// Panics if `options` is empty.
    pub fn new(options: Vec<BoxedStrategy<V>>) -> Union<V> {
        assert!(!options.is_empty(), "prop_oneof! needs at least one option");
        Union { options }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;

    fn generate(&self, rng: &mut TestRng) -> Option<V> {
        let i = rng.below(self.options.len() as u64) as usize;
        self.options[i].generate(rng)
    }
}

/// Boolean strategies.
pub mod bool {
    use super::{Strategy, TestRng};

    /// Generates `true` and `false` with equal probability.
    #[derive(Debug, Clone, Copy)]
    pub struct AnyBool;

    /// The uniform boolean strategy (`prop::bool::ANY`).
    pub const ANY: AnyBool = AnyBool;

    impl Strategy for AnyBool {
        type Value = bool;

        fn generate(&self, rng: &mut TestRng) -> Option<bool> {
            Some(rng.gen_bool())
        }
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Generates `Vec`s of `element` values with a length in `size`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty vec-length range");
        VecStrategy { element, size }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Option<Vec<S::Value>> {
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + rng.below(span) as usize;
            let mut out = Vec::with_capacity(len);
            for _ in 0..len {
                out.push(self.element.generate(rng)?);
            }
            Some(out)
        }
    }
}

/// The `prop::` namespace mirrored from the real crate.
pub mod prop {
    pub use super::{bool, collection};
}

/// Everything the property tests import.
pub mod prelude {
    pub use super::{
        prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, BoxedStrategy,
        Just, ProptestConfig, Strategy, TestCaseError, TestCaseResult,
    };
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)));
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Fails the current case unless the two expressions compare equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: {:?} != {:?} ({} != {})",
            l, r, stringify!($left), stringify!($right)
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {:?} != {:?}: {}",
                l, r, format!($($fmt)*)
            )));
        }
    }};
}

/// Fails the current case if the two expressions compare equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: {:?} == {:?} ({} == {})",
            l, r, stringify!($left), stringify!($right)
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        if !(*l != *r) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {:?} == {:?}: {}",
                l, r, format!($($fmt)*)
            )));
        }
    }};
}

/// Uniform choice among heterogeneous strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($strategy)),+])
    };
}

/// Declares property tests; see the crate docs for the supported surface.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { config = ($config); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { config = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (config = ($config:expr); ) => {};
    (config = ($config:expr);
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $config;
            let cases = $crate::resolve_cases(config.cases);
            let seed = $crate::env_seed();
            let mut rng = $crate::TestRng::from_seed(seed);
            let strategy = ($($strategy,)+);
            let mut done = 0u32;
            let mut rejects = 0u32;
            while done < cases {
                match $crate::Strategy::generate(&strategy, &mut rng) {
                    ::core::option::Option::None => {
                        rejects += 1;
                        assert!(
                            rejects <= 65_536,
                            "proptest shim: strategy rejected 65536 candidates"
                        );
                    }
                    ::core::option::Option::Some(($($arg,)+)) => {
                        let result: ::core::result::Result<(), $crate::TestCaseError> =
                            (|| { $body ::core::result::Result::Ok(()) })();
                        match result {
                            ::core::result::Result::Ok(()) => done += 1,
                            ::core::result::Result::Err($crate::TestCaseError::Reject(_)) => {
                                rejects += 1;
                                assert!(
                                    rejects <= 65_536,
                                    "proptest shim: 65536 cases rejected"
                                );
                            }
                            ::core::result::Result::Err(e) => {
                                panic!(
                                    "proptest case {}/{} failed (PROPTEST_SEED={}): {}",
                                    done + 1, cases, seed, e
                                );
                            }
                        }
                    }
                }
            }
        }
        $crate::__proptest_items! { config = ($config); $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::TestRng;

    #[test]
    fn splitmix_is_deterministic_and_spread() {
        let mut a = TestRng::from_seed(1);
        let mut b = TestRng::from_seed(1);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(va, vb);
        let distinct: std::collections::BTreeSet<_> = va.iter().collect();
        assert_eq!(distinct.len(), 8);
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = TestRng::from_seed(7);
        for _ in 0..10_000 {
            assert!(r.below(13) < 13);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_respect_bounds(x in 5u64..100, y in 1u32..=8, z in 0usize..3) {
            prop_assert!((5..100).contains(&x));
            prop_assert!((1..=8).contains(&y));
            prop_assert!(z < 3, "z = {z}");
        }

        #[test]
        fn vec_and_oneof_compose(v in prop::collection::vec(
            (0u64..10, prop::bool::ANY).prop_map(|(n, b)| if b { n } else { n + 10 }),
            1..20,
        )) {
            prop_assert!(!v.is_empty() && v.len() < 20);
            for x in v {
                prop_assert!(x < 20);
            }
        }

        #[test]
        fn filter_map_rejects(v in (0u64..100).prop_filter_map("even", |n| {
            if n % 2 == 0 { Some(n) } else { None }
        })) {
            prop_assert_eq!(v % 2, 0);
        }

        #[test]
        fn oneof_hits_every_arm(picks in prop::collection::vec(
            prop_oneof![Just(1u8), Just(2), Just(3)],
            200..201,
        )) {
            for p in &picks {
                prop_assert!((1..=3).contains(p));
            }
            prop_assert!(picks.contains(&1));
            prop_assert!(picks.contains(&3));
        }
    }
}
