//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset of proptest this workspace's property tests use:
//! the [`strategy::Strategy`] trait with `prop_map`, range and tuple strategies,
//! [`collection::vec`], [`sample::select`], the [`proptest!`] macro with
//! `#![proptest_config(..)]`, and the `prop_assert*` / `prop_assume!`
//! assertion macros. Cases are generated from a per-test deterministic
//! seed (hash of the test name), so failures reproduce exactly.
//!
//! Differences from real proptest, by design:
//! * **no shrinking** — a failing case reports its inputs via the
//!   assertion message, but is not minimized;
//! * `prop_assume!` skips the current case rather than re-drawing it.

pub mod strategy {
    //! The [`Strategy`] trait and combinators.

    use crate::test_runner::TestRng;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Draws one value.
        fn new_value(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { source: self, f }
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        pub(crate) source: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;

        fn new_value(&self, rng: &mut TestRng) -> U {
            (self.f)(self.source.new_value(rng))
        }
    }

    /// Strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn new_value(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    impl Strategy for std::ops::Range<f64> {
        type Value = f64;

        fn new_value(&self, rng: &mut TestRng) -> f64 {
            rng.uniform_f64(self.start, self.end)
        }
    }

    impl Strategy for std::ops::RangeInclusive<f64> {
        type Value = f64;

        fn new_value(&self, rng: &mut TestRng) -> f64 {
            rng.uniform_f64(*self.start(), *self.end())
        }
    }

    macro_rules! impl_int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;

                fn new_value(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    (self.start as i128 + (rng.next_u64() as u128 % span) as i128) as $t
                }
            }

            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;

                fn new_value(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as i128 - lo as i128 + 1) as u128;
                    (lo as i128 + (rng.next_u64() as u128 % span) as i128) as $t
                }
            }
        )*};
    }

    impl_int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);

                #[allow(non_snake_case)]
                fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.new_value(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
    impl_tuple_strategy!(A, B, C, D, E, F);
    impl_tuple_strategy!(A, B, C, D, E, F, G);
    impl_tuple_strategy!(A, B, C, D, E, F, G, H);
}

pub mod collection {
    //! Collection strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy for `Vec<S::Value>` with a length drawn from `len`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: std::ops::Range<usize>,
    }

    /// Generates vectors whose length is uniform in `len` and whose
    /// elements come from `element`.
    pub fn vec<S: Strategy>(element: S, len: std::ops::Range<usize>) -> VecStrategy<S> {
        assert!(len.start < len.end, "empty length range");
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.clone().new_value(rng);
            (0..n).map(|_| self.element.new_value(rng)).collect()
        }
    }
}

pub mod sample {
    //! Sampling strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy drawing one element of a fixed set.
    #[derive(Debug, Clone)]
    pub struct Select<T> {
        options: Vec<T>,
    }

    /// Uniformly selects one of `options` (must be non-empty).
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select() needs at least one option");
        Select { options }
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;

        fn new_value(&self, rng: &mut TestRng) -> T {
            let i = (rng.next_u64() % self.options.len() as u64) as usize;
            self.options[i].clone()
        }
    }
}

pub mod test_runner {
    //! Case-count configuration and the deterministic test RNG.

    /// Per-test configuration (mirrors `proptest::test_runner::Config`).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of cases each property runs.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A configuration running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        /// 256 cases, or the `PROPTEST_CASES` environment variable when it
        /// holds a number — as in real proptest. An explicit
        /// [`ProptestConfig::with_cases`] still wins over both.
        fn default() -> Self {
            ProptestConfig {
                cases: cases_from_env(std::env::var("PROPTEST_CASES").ok().as_deref()),
            }
        }
    }

    /// The default case count for a `PROPTEST_CASES` value: the number it
    /// holds, else real proptest's default of 256.
    pub(crate) fn cases_from_env(value: Option<&str>) -> u32 {
        value.and_then(|v| v.trim().parse().ok()).unwrap_or(256)
    }

    /// Deterministic SplitMix64 stream seeded from the test name.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// RNG for the named test: same name → same case sequence.
        pub fn deterministic(test_name: &str) -> Self {
            // FNV-1a over the name gives distinct, stable seeds per test.
            let mut h: u64 = 0xCBF2_9CE4_8422_2325;
            for b in test_name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            TestRng { state: h }
        }

        /// Next raw 64-bit draw.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform draw from `[lo, hi)` (or exactly `lo` when `lo == hi`).
        pub fn uniform_f64(&mut self, lo: f64, hi: f64) -> f64 {
            assert!(lo <= hi, "empty f64 range strategy");
            let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            lo + u * (hi - lo)
        }
    }
}

pub mod prelude {
    //! One-stop imports, mirroring `proptest::prelude`.

    pub use crate as prop;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Defines property tests: each `fn` runs `cases` times with fresh random
/// inputs drawn from its argument strategies.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_cases! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_cases! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_cases {
    ( ($config:expr)
      $( $(#[$meta:meta])*
         fn $name:ident( $($arg:pat_param in $strat:expr),+ $(,)? ) $body:block )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::test_runner::ProptestConfig = $config;
                let mut __rng =
                    $crate::test_runner::TestRng::deterministic(stringify!($name));
                for __case in 0..__config.cases {
                    $(let $arg =
                        $crate::strategy::Strategy::new_value(&($strat), &mut __rng);)+
                    $body
                }
            }
        )*
    };
}

/// `assert!` for property bodies (no shrinking in this shim).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// `assert_eq!` for property bodies.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// `assert_ne!` for property bodies.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Skips the current case when the assumption does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(, $($fmt:tt)*)?) => {
        if !($cond) {
            continue;
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Pt {
        x: f64,
        y: f64,
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_and_maps(
            x in -10.0f64..10.0,
            n in 1usize..50,
            p in (0.0f64..1.0, 0.0f64..1.0).prop_map(|(x, y)| Pt { x, y }),
        ) {
            prop_assert!((-10.0..10.0).contains(&x));
            prop_assert!((1..50).contains(&n));
            prop_assert!(p.x >= 0.0 && p.y < 1.0);
        }

        #[test]
        fn collections_and_select(
            v in prop::collection::vec(0u32..100, 1..20),
            choice in prop::sample::select(vec![2usize, 3, 5]),
        ) {
            prop_assert!(!v.is_empty() && v.len() < 20);
            prop_assert!(v.iter().all(|&x| x < 100));
            prop_assert!([2, 3, 5].contains(&choice));
        }

        #[test]
        fn assume_skips_cases(a in 0u32..10, b in 0u32..10) {
            prop_assume!(a != b);
            prop_assert_ne!(a, b);
        }
    }

    #[test]
    fn default_case_count_follows_proptest_cases() {
        use crate::test_runner::cases_from_env;
        assert_eq!(cases_from_env(None), 256);
        assert_eq!(cases_from_env(Some("8")), 8);
        assert_eq!(cases_from_env(Some(" 2048 ")), 2048);
        assert_eq!(cases_from_env(Some("many")), 256);
        // No other test in this crate reads the variable, so setting it
        // here cannot race with them.
        std::env::set_var("PROPTEST_CASES", "3");
        assert_eq!(ProptestConfig::default().cases, 3);
        assert_eq!(ProptestConfig::with_cases(64).cases, 64);
        std::env::remove_var("PROPTEST_CASES");
        assert_eq!(ProptestConfig::default().cases, 256);
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = crate::test_runner::TestRng::deterministic("t");
        let mut b = crate::test_runner::TestRng::deterministic("t");
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
