//! A minimal, dependency-free, offline drop-in for the subset of the
//! [`proptest`](https://crates.io/crates/proptest) API this workspace
//! uses.
//!
//! The build environment has no access to crates.io, so the real crate
//! cannot be vendored; this shim keeps every `proptest!` test in the
//! workspace compiling and *meaningfully running*: strategies really
//! sample pseudo-random values (from a deterministic SplitMix64 stream,
//! seeded per test so failures reproduce), `prop_assume!` really rejects,
//! and failures report the sampled inputs. What it does **not** do is
//! shrinking or regression-file persistence — a failing case prints its
//! seed instead.
//!
//! Supported surface:
//!
//! * `proptest! { #![proptest_config(..)] #[test] fn f(x in strat, ..) {..} }`
//! * `any::<T>()` for integers, `bool` and `[u8; N]`
//! * integer range strategies (`0u64..48`), tuple strategies, [`Just`]
//! * `prop::collection::vec(strat, len)` with range or exact sizes
//! * `prop_oneof![w => strat, ..]`, `.prop_map(..)`, `.boxed()`
//! * `prop_assert!`, `prop_assert_eq!`, `prop_assert_ne!`, `prop_assume!`
//!
//! Environment knobs: `PROPTEST_CASES` overrides every test's case count,
//! including one set by `cases:` in a `proptest_config` (see
//! [`effective_cases`]); `PROPTEST_SEED` pins the base seed for
//! reproduction.

use std::fmt::Debug;
use std::ops::Range;

/// Deterministic SplitMix64 sample stream.
///
/// Kept self-contained (rather than depending on `fsencr-sim`) so the shim
/// has no edges into the workspace it tests.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a stream from a seed.
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// Next raw 64-bit sample.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform sample in `[0, n)`. `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty sample range");
        // Rejection sampling to avoid modulo bias on wide ranges.
        let zone = u64::MAX - (u64::MAX % n);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % n;
            }
        }
    }
}

/// Why a single test case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// `prop_assume!` filtered the inputs; the case is not counted.
    Reject(String),
    /// A `prop_assert*!` failed; the test fails.
    Fail(String),
}

impl TestCaseError {
    /// Builds a failure, mirroring the real crate's constructor.
    pub fn fail(reason: impl Into<String>) -> Self {
        TestCaseError::Fail(reason.into())
    }

    /// Builds a rejection, mirroring the real crate's constructor.
    pub fn reject(reason: impl Into<String>) -> Self {
        TestCaseError::Reject(reason.into())
    }
}

/// Runner configuration, a subset of the real crate's.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of accepted cases to run per test.
    pub cases: u32,
    /// Abort after this many consecutive `prop_assume!` rejections.
    pub max_global_rejects: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: 64,
            max_global_rejects: 4096,
        }
    }
}

/// The number of cases a run accepts: `env` (the `PROPTEST_CASES`
/// value, if set) when it parses as a count, else `config.cases`.
pub fn effective_cases(config: &ProptestConfig, env: Option<&str>) -> u32 {
    env.and_then(|v| v.trim().parse().ok())
        .unwrap_or(config.cases)
}

/// A source of pseudo-random values of one type.
///
/// Unlike the real crate there is no shrinking: a strategy is just a
/// sampling function plus the combinators the workspace tests use.
pub trait Strategy: Clone {
    /// The sampled type.
    type Value: Debug;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps sampled values through `f`.
    fn prop_map<U: Debug, F>(self, f: F) -> Map<Self, F>
    where
        F: Fn(Self::Value) -> U + Clone,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy (needed by `prop_oneof!`).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

trait DynStrategy {
    type Value;
    fn sample_dyn(&self, rng: &mut TestRng) -> Self::Value;
    fn clone_dyn(&self) -> Box<dyn DynStrategy<Value = Self::Value>>;
}

impl<S: Strategy + 'static> DynStrategy for S {
    type Value = S::Value;
    fn sample_dyn(&self, rng: &mut TestRng) -> S::Value {
        self.sample(rng)
    }
    fn clone_dyn(&self) -> Box<dyn DynStrategy<Value = S::Value>> {
        Box::new(self.clone())
    }
}

/// A type-erased strategy.
pub struct BoxedStrategy<V>(Box<dyn DynStrategy<Value = V>>);

impl<V> Clone for BoxedStrategy<V> {
    fn clone(&self) -> Self {
        BoxedStrategy(self.0.clone_dyn())
    }
}

impl<V: Debug> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn sample(&self, rng: &mut TestRng) -> V {
        self.0.sample_dyn(rng)
    }
}

/// Strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone + Debug>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// The result of [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    U: Debug,
    F: Fn(S::Value) -> U + Clone,
{
    type Value = U;
    fn sample(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

/// Weighted union of same-valued strategies (built by `prop_oneof!`).
pub struct Union<V> {
    arms: Vec<(u32, BoxedStrategy<V>)>,
    total: u64,
}

impl<V> Union<V> {
    /// Builds a union; weights must not all be zero.
    pub fn new(arms: Vec<(u32, BoxedStrategy<V>)>) -> Self {
        let total: u64 = arms.iter().map(|(w, _)| u64::from(*w)).sum();
        assert!(total > 0, "prop_oneof! needs a positive total weight");
        Union { arms, total }
    }
}

impl<V> Clone for Union<V> {
    fn clone(&self) -> Self {
        Union {
            arms: self.arms.clone(),
            total: self.total,
        }
    }
}

impl<V: Debug> Strategy for Union<V> {
    type Value = V;
    fn sample(&self, rng: &mut TestRng) -> V {
        let mut pick = rng.below(self.total);
        for (w, s) in &self.arms {
            let w = u64::from(*w);
            if pick < w {
                return s.sample(rng);
            }
            pick -= w;
        }
        unreachable!("weights covered the whole range")
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let span = (self.end as i128) - (self.start as i128);
                assert!(span > 0, "empty range strategy");
                (self.start as i128 + rng.below(span as u64) as i128) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! tuple_strategy {
    ($(($($name:ident),+))*) => {$(
        #[allow(non_snake_case)]
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized + Debug {
    /// Draws an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! int_arbitrary {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for u128 {
    fn arbitrary(rng: &mut TestRng) -> u128 {
        (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())
    }
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl<const N: usize> Arbitrary for [u8; N] {
    fn arbitrary(rng: &mut TestRng) -> [u8; N] {
        let mut out = [0u8; N];
        for b in &mut out {
            *b = rng.next_u64() as u8;
        }
        out
    }
}

/// Strategy for [`Arbitrary`] types; build with [`any`].
pub struct Any<A>(std::marker::PhantomData<A>);

impl<A> Clone for Any<A> {
    fn clone(&self) -> Self {
        Any(std::marker::PhantomData)
    }
}

impl<A: Arbitrary> Strategy for Any<A> {
    type Value = A;
    fn sample(&self, rng: &mut TestRng) -> A {
        A::arbitrary(rng)
    }
}

/// The strategy of all values of `A`.
pub fn any<A: Arbitrary>() -> Any<A> {
    Any(std::marker::PhantomData)
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::fmt::Debug;
    use std::ops::Range;

    /// Length specification for [`vec`]: a range or an exact size.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        min: usize,
        max_exclusive: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.end > r.start, "empty size range");
            SizeRange {
                min: r.start,
                max_exclusive: r.end,
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                min: n,
                max_exclusive: n + 1,
            }
        }
    }

    /// Strategy producing `Vec`s of `element` samples.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S>
    where
        S::Value: Debug,
    {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.max_exclusive - self.size.min) as u64;
            let len = self.size.min + rng.below(span.max(1)) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// `vec(strategy, 1..200)` or `vec(strategy, 64)`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// Namespace mirror of the real crate's `prop::` prelude module.
pub mod prop {
    pub use crate::collection;
}

/// Drives one `proptest!`-generated test: samples until
/// [`effective_cases`] cases are accepted, panicking with the seed and
/// inputs on failure.
pub fn run_proptest<F>(config: ProptestConfig, name: &str, mut case: F)
where
    F: FnMut(&mut TestRng, &mut Vec<String>) -> Result<(), TestCaseError>,
{
    let base = std::env::var("PROPTEST_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xF5EC_2026_0000_0000u64);
    // Per-test-name offset so sibling tests explore different streams.
    let seed = name.bytes().fold(base, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    });
    let cases = effective_cases(&config, std::env::var("PROPTEST_CASES").ok().as_deref());
    let mut rng = TestRng::new(seed);
    let mut accepted = 0u32;
    let mut rejects = 0u32;
    while accepted < cases {
        let mut inputs = Vec::new();
        match case(&mut rng, &mut inputs) {
            Ok(()) => {
                accepted += 1;
                rejects = 0;
            }
            Err(TestCaseError::Reject(_)) => {
                rejects += 1;
                assert!(
                    rejects <= config.max_global_rejects,
                    "{name}: {rejects} consecutive prop_assume! rejections"
                );
            }
            Err(TestCaseError::Fail(msg)) => {
                panic!(
                    "proptest {name} failed after {accepted} cases \
                     (PROPTEST_SEED={base:#x}): {msg}\ninputs:\n  {}",
                    inputs.join("\n  ")
                );
            }
        }
    }
}

/// Defines property tests; see the crate docs for the supported grammar.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_fns {
    (($cfg:expr);) => {};
    (($cfg:expr);
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            $crate::run_proptest(config, stringify!($name), |rng, inputs| {
                $(
                    let sampled = $crate::Strategy::sample(&($strat), rng);
                    inputs.push(format!(
                        "{} = {:?}", stringify!($pat), sampled
                    ));
                    let $pat = sampled;
                )+
                let _ = &inputs;
                $body
                #[allow(unreachable_code)]
                Ok(())
            });
        }
        $crate::__proptest_fns! { ($cfg); $($rest)* }
    };
}

/// Fails the current case (with an optional formatted message).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::Fail(format!($($fmt)*)));
        }
    };
}

/// Fails the current case unless the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, $($fmt)*);
    }};
}

/// Fails the current case if the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l != r,
            "assertion failed: {} != {}\n  both: {:?}",
            stringify!($left), stringify!($right), l
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l != r, $($fmt)*);
    }};
}

/// Rejects the current case (not counted against `cases`).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::Reject(
                stringify!($cond).to_string(),
            ));
        }
    };
}

/// Weighted choice between strategies yielding the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $(($weight as u32, $crate::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::prop_oneof![$(1 => $strat),+]
    };
}

/// The glob-import surface mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::TestRng;

    #[test]
    fn env_case_count_overrides_the_config_literal() {
        use super::effective_cases;
        let literal = ProptestConfig {
            cases: 10,
            ..ProptestConfig::default()
        };
        assert_eq!(effective_cases(&literal, None), 10);
        assert_eq!(effective_cases(&literal, Some("300")), 300);
        assert_eq!(effective_cases(&literal, Some(" 7 ")), 7);
        assert_eq!(effective_cases(&ProptestConfig::default(), Some("5")), 5);
        // An unparsable value leaves the configured count in force.
        assert_eq!(effective_cases(&literal, Some("many")), 10);
        assert_eq!(effective_cases(&literal, Some("")), 10);
        assert_eq!(effective_cases(&literal, Some("-1")), 10);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::new(7);
        for _ in 0..1000 {
            let v = Strategy::sample(&(10u64..48), &mut rng);
            assert!((10..48).contains(&v));
        }
    }

    #[test]
    fn vec_sizes_respect_spec() {
        let mut rng = TestRng::new(9);
        for _ in 0..200 {
            let v = Strategy::sample(&prop::collection::vec(any::<u8>(), 3..9), &mut rng);
            assert!((3..9).contains(&v.len()));
        }
        let fixed = Strategy::sample(&prop::collection::vec(0u8..128, 64), &mut rng);
        assert_eq!(fixed.len(), 64);
    }

    #[test]
    fn oneof_honours_weights() {
        let s = prop_oneof![
            3 => Just(true),
            1 => Just(false),
        ];
        let mut rng = TestRng::new(11);
        let trues = (0..4000).filter(|_| Strategy::sample(&s, &mut rng)).count();
        assert!((2700..3300).contains(&trues), "{trues}");
    }

    proptest! {
        #[test]
        fn the_macro_itself_runs(a in any::<u8>(), b in 0u64..100) {
            prop_assume!(a != 0);
            prop_assert!(b < 100);
            prop_assert_ne!(u64::from(a) + 1000, b);
            prop_assert_eq!(a, a);
        }
    }
}
