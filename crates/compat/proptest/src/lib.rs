//! Offline stand-in for the `proptest` crate.
//!
//! The build container has no network access to crates.io, so the workspace
//! vendors the strategy/runner subset its property tests use: the
//! [`Strategy`] trait with `prop_map` / `prop_recursive` / `boxed`,
//! integer-range and tuple strategies, [`Just`], [`any`],
//! [`collection::vec`], the `prop_oneof!` / `proptest!` / `prop_assert!` /
//! `prop_assert_eq!` macros, and [`ProptestConfig`].
//!
//! Differences from upstream, deliberately accepted:
//!
//! * **No shrinking.** A failing case panics with the generated inputs in
//!   the assertion message instead of a minimised counterexample.
//! * **Derandomised.** Each `proptest!` test derives its RNG seed from the
//!   test's name, so runs are reproducible and CI-stable.
//! * **Default case count is 64** (upstream: 256) — chosen so the heavier
//!   BDD/netlist cross-validation suites stay fast on small containers.
//!   Tests that set an explicit `ProptestConfig::with_cases(n)` run `n`
//!   cases exactly as before.

use std::rc::Rc;

/// Deterministic generator feeding all strategies (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds the generator from an arbitrary label (e.g. the test name), so
    /// every test gets a distinct but reproducible stream.
    pub fn deterministic(label: &str) -> Self {
        // FNV-1a over the label.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng { state: h }
    }

    /// The next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `0..span` (`span` > 0), bias-corrected.
    pub fn below(&mut self, span: u64) -> u64 {
        debug_assert!(span > 0);
        let threshold = span.wrapping_neg() % span;
        loop {
            let wide = (self.next_u64() as u128) * (span as u128);
            if (wide as u64) >= threshold {
                return (wide >> 64) as u64;
            }
        }
    }
}

/// A generator of test values.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Builds recursive values: `recurse` receives a strategy for the
    /// previous depth and wraps it one level deeper. `_desired_size` and
    /// `_expected_branch` are accepted for upstream signature compatibility
    /// but unused — depth alone bounds recursion here.
    fn prop_recursive<R, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch: u32,
        recurse: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        R: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> R,
    {
        let base = self.boxed();
        let mut cur = base.clone();
        for _ in 0..depth {
            // Mix the base back in at every level so shallow values stay
            // reachable (the closure's strategy usually only recurses).
            let deeper = recurse(cur.clone()).boxed();
            cur = Union::weighted(vec![(1, base.clone()), (3, deeper)]).boxed();
        }
        cur
    }

    /// Type-erases the strategy (cheaply clonable).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
    {
        BoxedStrategy(Rc::new(self))
    }
}

/// Object-safe indirection for [`BoxedStrategy`].
trait DynStrategy<V> {
    fn dyn_generate(&self, rng: &mut TestRng) -> V;
}

impl<S: Strategy> DynStrategy<S::Value> for S {
    fn dyn_generate(&self, rng: &mut TestRng) -> S::Value {
        self.generate(rng)
    }
}

/// A type-erased, reference-counted strategy.
pub struct BoxedStrategy<V>(Rc<dyn DynStrategy<V>>);

impl<V> Clone for BoxedStrategy<V> {
    fn clone(&self) -> Self {
        BoxedStrategy(Rc::clone(&self.0))
    }
}

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        self.0.dyn_generate(rng)
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Always generates a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Weighted choice between strategies of a common value type
/// (the engine behind `prop_oneof!`).
pub struct Union<V> {
    options: Vec<(u32, BoxedStrategy<V>)>,
}

impl<V> Union<V> {
    /// Equal-weight union.
    pub fn new(options: Vec<BoxedStrategy<V>>) -> Self {
        Union {
            options: options.into_iter().map(|s| (1, s)).collect(),
        }
    }

    /// Weighted union.
    pub fn weighted(options: Vec<(u32, BoxedStrategy<V>)>) -> Self {
        assert!(!options.is_empty(), "empty union");
        Union { options }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        let total: u64 = self.options.iter().map(|&(w, _)| w as u64).sum();
        let mut pick = rng.below(total);
        for (w, s) in &self.options {
            if pick < *w as u64 {
                return s.generate(rng);
            }
            pick -= *w as u64;
        }
        unreachable!("weights cover the sampled range")
    }
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary {
    /// Draws one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

/// Strategy for any value of `T` (see [`any`]).
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// `any::<T>()` — the canonical whole-domain strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range strategy");
                let span = (end as i128 - start as i128 + 1) as u64;
                if span == 0 {
                    return rng.next_u64() as $t; // full domain
                }
                (start as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_tuple_strategy {
    ($(($($name:ident . $idx:tt),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};

    /// Generates `Vec`s whose length is drawn from `size` and whose elements
    /// come from `element`.
    pub fn vec<S: Strategy>(element: S, size: core::ops::Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty size range");
        VecStrategy { element, size }
    }

    /// See [`vec`].
    pub struct VecStrategy<S> {
        element: S,
        size: core::ops::Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Runner configuration (only the case count is honoured).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running exactly `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Everything the property tests import.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Any, BoxedStrategy,
        Just, ProptestConfig, Strategy, TestRng, Union,
    };
}

/// Equal-weight choice between strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($strategy)),+])
    };
}

/// Asserts a condition inside a property test (panics on failure — this
/// stand-in has no shrinking phase to report through).
#[macro_export]
macro_rules! prop_assert {
    ($($tokens:tt)*) => { assert!($($tokens)*) };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tokens:tt)*) => { assert_eq!($($tokens)*) };
}

/// Asserts inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tokens:tt)*) => { assert_ne!($($tokens)*) };
}

/// Declares property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running [`ProptestConfig::cases`] generated cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { config = $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = $config:expr; $(
        $(#[$meta:meta])*
        fn $name:ident( $($param:pat in $strategy:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __config = $config;
            let mut __rng = $crate::TestRng::deterministic(concat!(module_path!(), "::", stringify!($name)));
            for __case in 0..__config.cases {
                let ($($param,)+) = ($($crate::Strategy::generate(&($strategy), &mut __rng),)+);
                $body
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_and_tuples_generate_in_bounds() {
        let mut rng = TestRng::deterministic("bounds");
        let s = (0u32..5, 2usize..=4);
        for _ in 0..200 {
            let (a, b) = s.generate(&mut rng);
            assert!(a < 5);
            assert!((2..=4).contains(&b));
        }
    }

    #[test]
    fn union_covers_all_options() {
        let mut rng = TestRng::deterministic("union");
        let s = prop_oneof![Just(1u8), Just(2u8), Just(3u8)];
        let mut seen = [false; 4];
        for _ in 0..100 {
            seen[s.generate(&mut rng) as usize] = true;
        }
        assert!(seen[1] && seen[2] && seen[3]);
    }

    #[test]
    fn recursive_strategies_terminate() {
        #[derive(Debug)]
        enum Tree {
            Leaf(bool),
            Node(Box<Tree>, Box<Tree>),
        }
        fn depth(t: &Tree) -> u32 {
            match t {
                Tree::Leaf(_) => 0,
                Tree::Node(a, b) => 1 + depth(a).max(depth(b)),
            }
        }
        let leaf = any::<bool>().prop_map(Tree::Leaf);
        let tree = leaf.prop_recursive(4, 16, 2, |inner| {
            (inner.clone(), inner).prop_map(|(a, b)| Tree::Node(Box::new(a), Box::new(b)))
        });
        let mut rng = TestRng::deterministic("tree");
        let mut max = 0;
        for _ in 0..200 {
            max = max.max(depth(&tree.generate(&mut rng)));
        }
        assert!(max > 0, "never recursed");
        assert!(max <= 4, "depth bound violated: {max}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_binds_patterns((a, b) in (0u32..10, 0u32..10), c in any::<bool>()) {
            prop_assert!(a < 10 && b < 10);
            let _ = c;
            prop_assert_eq!(a + b, b + a);
        }
    }

    #[test]
    fn vec_strategy_respects_size() {
        let mut rng = TestRng::deterministic("vec");
        let s = collection::vec(0u32..3, 1..5);
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!((1..5).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 3));
        }
    }
}
