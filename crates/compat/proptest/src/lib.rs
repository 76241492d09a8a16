//! Workspace-local, API-compatible subset of `proptest`.
//!
//! The build environment has no access to crates.io, so the workspace vendors the
//! proptest surface its property tests use: the [`proptest!`] macro, range / `Just` /
//! tuple / [`collection::vec`] strategies, [`prop_oneof!`], and the `prop_assert*` /
//! [`prop_assume!`] macros. Unlike upstream there is **no shrinking**: a failing case
//! panics with the values that produced it (cases are deterministic per test name, so
//! failures reproduce exactly).

use std::ops::{Range, RangeInclusive};

pub mod test_runner {
    //! Test-case plumbing used by the [`crate::proptest!`] macro expansion.

    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// Controls how many accepted cases each property runs.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct ProptestConfig {
        /// Number of accepted (non-rejected) cases to run.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Creates a configuration running `cases` accepted cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    /// Why a single test case did not pass.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// `prop_assume!` rejected the inputs; the case is re-drawn.
        Reject,
        /// `prop_assert*!` failed; the whole property fails.
        Fail(String),
    }

    /// Deterministic generator used to draw test cases.
    #[derive(Debug, Clone)]
    pub struct TestRng(StdRng);

    impl TestRng {
        /// Seeds the generator from a test name, so each property has a stable but
        /// distinct case sequence.
        pub fn deterministic(name: &str) -> Self {
            let mut hash = 0xcbf2_9ce4_8422_2325u64;
            for b in name.bytes() {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
            }
            TestRng(StdRng::seed_from_u64(hash))
        }
    }

    impl RngCore for TestRng {
        fn next_u64(&mut self) -> u64 {
            self.0.next_u64()
        }
    }
}

pub mod strategy {
    //! Value-generation strategies.

    use super::*;
    use crate::test_runner::TestRng;
    use rand::Rng;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;
    }

    /// Strategy that always yields a clone of a fixed value.
    #[derive(Debug, Clone, Copy)]
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Boxes a strategy, pinning its value type (used by [`crate::prop_oneof!`] so that
    /// inference resolves eagerly instead of through an `as` cast).
    pub fn boxed<S: Strategy + 'static>(strategy: S) -> Box<dyn Strategy<Value = S::Value>> {
        Box::new(strategy)
    }

    /// Uniform choice between boxed strategies (built by [`crate::prop_oneof!`]).
    pub struct OneOf<T> {
        options: Vec<Box<dyn Strategy<Value = T>>>,
    }

    impl<T> OneOf<T> {
        /// Creates a union strategy. Panics if `options` is empty.
        pub fn new(options: Vec<Box<dyn Strategy<Value = T>>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! requires at least one option");
            OneOf { options }
        }
    }

    impl<T> Strategy for OneOf<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            let idx = rng.gen_range(0..self.options.len());
            self.options[idx].generate(rng)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;

        fn generate(&self, rng: &mut TestRng) -> S::Value {
            (**self).generate(rng)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for Box<S> {
        type Value = S::Value;

        fn generate(&self, rng: &mut TestRng) -> S::Value {
            (**self).generate(rng)
        }
    }

    macro_rules! impl_strategy_for_ranges {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }

    impl_strategy_for_ranges!(u8, u16, u32, u64, usize, f32, f64);

    macro_rules! impl_strategy_for_tuples {
        ($(($($name:ident . $idx:tt),+);)*) => {$(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }

    impl_strategy_for_tuples! {
        (A.0);
        (A.0, B.1);
        (A.0, B.1, C.2);
        (A.0, B.1, C.2, D.3);
        (A.0, B.1, C.2, D.3, E.4);
        (A.0, B.1, C.2, D.3, E.4, F.5);
        (A.0, B.1, C.2, D.3, E.4, F.5, G.6);
        (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7);
    }
}

pub mod collection {
    //! Collection strategies.

    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use rand::Rng;
    use std::ops::Range;

    /// Length specification for [`vec()`]: a fixed size or a half-open range.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "vec size range must be non-empty");
            SizeRange { lo: r.start, hi: r.end }
        }
    }

    /// Strategy producing vectors of values drawn from an element strategy.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generates vectors whose length is drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.lo..self.size.hi);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod prelude {
    //! Glob-import surface matching `proptest::prelude::*`.

    pub use crate::strategy::{Just, OneOf, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRng};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Rejects the current test case unless the condition holds (the case is re-drawn).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        $crate::prop_assume!($cond)
    };
}

/// Fails the property if the condition does not hold.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// Fails the property unless both sides compare equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(, $($fmt:tt)*)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: {} == {} (left: {:?}, right: {:?})",
            stringify!($left),
            stringify!($right),
            l,
            r
        );
    }};
}

/// Fails the property if both sides compare equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(, $($fmt:tt)*)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l != r,
            "assertion failed: {} != {} (both: {:?})",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
}

/// Uniform choice between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![$($crate::strategy::boxed($strategy),)+])
    };
}

/// Defines property tests: each `fn` runs its body for many generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@expand ($config) $($rest)*);
    };
    (@expand ($config:expr) $(#[test] fn $name:ident($($pat:pat in $strategy:expr),+ $(,)?) $body:block)*) => {
        $(
            #[test]
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $config;
                let mut rng = $crate::test_runner::TestRng::deterministic(concat!(
                    module_path!(), "::", stringify!($name)
                ));
                let mut accepted: u32 = 0;
                let mut attempts: u32 = 0;
                let max_attempts = config.cases.saturating_mul(20).max(64);
                while accepted < config.cases {
                    attempts += 1;
                    assert!(
                        attempts <= max_attempts,
                        "property {} rejected too many cases ({} attempts for {} accepted)",
                        stringify!($name), attempts, accepted
                    );
                    $(let $pat = $crate::strategy::Strategy::generate(&($strategy), &mut rng);)+
                    let outcome = (|| -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                    match outcome {
                        ::std::result::Result::Ok(()) => accepted += 1,
                        ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject) => {}
                        ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                            panic!("property {} failed on case {}: {}", stringify!($name), accepted, msg);
                        }
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@expand ($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn composite() -> impl Strategy<Value = (usize, f64)> {
        (1usize..5, 0.0f64..1.0)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 3usize..9, y in -2.0f64..2.0) {
            prop_assert!((3..9).contains(&x));
            prop_assert!((-2.0..2.0).contains(&y));
        }

        #[test]
        fn tuples_and_vecs((a, b) in composite(), v in crate::collection::vec(0u8..10, 1..6)) {
            prop_assert!((1..5).contains(&a));
            prop_assert!((0.0..1.0).contains(&b));
            prop_assert!(!v.is_empty() && v.len() < 6);
            prop_assert!(v.iter().all(|&x| x < 10));
        }

        #[test]
        fn oneof_and_assume(k in prop_oneof![Just(1usize), Just(3usize), Just(5usize)], n in 0usize..10) {
            prop_assume!(n > 0);
            prop_assert!(k == 1 || k == 3 || k == 5);
            prop_assert_ne!(n, 0);
            prop_assert_eq!(k % 2, 1);
        }
    }
}
