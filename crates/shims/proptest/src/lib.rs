//! Offline stand-in for `proptest`: deterministic random sampling with the
//! same test-authoring surface, minus shrinking.
//!
//! The workspace's property tests use `proptest!` blocks with range, tuple,
//! `prop::bool::ANY` and `prop::collection::vec` strategies plus the
//! `prop_filter_map` combinator; this shim implements exactly that surface.
//! Each generated test runs `ProptestConfig::cases` samples from an RNG
//! seeded by the test's name, so failures reproduce across runs. On failure
//! the panic reports the assertion like a plain `assert!`; there is no
//! shrinking, so the failing inputs are whatever the sample produced (print
//! them from the test body if needed).

#![deny(missing_docs)]

/// Everything a `proptest!`-based test file needs in scope.
pub mod prelude {
    pub use crate::{
        prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, ProptestConfig,
        Strategy, TestCaseReject, TestRng,
    };
}

/// Run-time configuration for a `proptest!` block.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of successful (non-rejected) cases each test must run.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Matches real proptest's default.
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// A configuration running `cases` cases.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Marker returned through `?`/`return` by [`prop_assume!`] to reject a
/// sampled case without failing the test.
#[derive(Debug, Clone, Copy)]
pub struct TestCaseReject;

/// Deterministic xorshift64* RNG used for sampling.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds the RNG from a test name (FNV-1a hash), so every run of a
    /// given test draws the same sample sequence.
    #[must_use]
    pub fn from_name(name: &str) -> Self {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in name.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng { state: hash | 1 }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        self.state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `0..bound` (`bound` ≥ 1).
    pub fn below(&mut self, bound: u64) -> u64 {
        // Modulo bias is irrelevant at the magnitudes tests use.
        self.next_u64() % bound.max(1)
    }

    /// Uniform bool.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

/// A value generator. `sample` must be able to produce a value for any RNG
/// state (rejection happens through [`Strategy::prop_filter_map`] retries or
/// [`prop_assume!`]).
pub trait Strategy {
    /// The type of the generated values.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`, retrying (up to an internal limit)
    /// while `f` returns `None`.
    fn prop_filter_map<U, F>(self, reason: &'static str, f: F) -> FilterMap<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> Option<U>,
    {
        FilterMap {
            inner: self,
            f,
            reason,
        }
    }

    /// Maps generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }
}

/// See [`Strategy::prop_filter_map`].
#[derive(Debug, Clone)]
pub struct FilterMap<S, F> {
    inner: S,
    f: F,
    reason: &'static str,
}

impl<S: Strategy, U, F: Fn(S::Value) -> Option<U>> Strategy for FilterMap<S, F> {
    type Value = U;

    fn sample(&self, rng: &mut TestRng) -> U {
        for _ in 0..10_000 {
            if let Some(v) = (self.f)(self.inner.sample(rng)) {
                return v;
            }
        }
        panic!(
            "prop_filter_map `{}` rejected 10000 consecutive samples",
            self.reason
        );
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn sample(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }

        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range strategy");
                let span = (end as i128 - start as i128 + 1) as u64;
                (start as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_float_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                // 53 uniform mantissa bits scaled into the range.
                let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                let v = self.start as f64 + unit * (self.end as f64 - self.start as f64);
                v as $t
            }
        }

        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start() as f64, *self.end() as f64);
                assert!(start <= end, "empty range strategy");
                let unit = (rng.next_u64() >> 11) as f64 / ((1u64 << 53) - 1) as f64;
                (start + unit * (end - start)) as $t
            }
        }
    )*};
}

impl_float_range_strategy!(f32, f64);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            #[allow(non_snake_case)]
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
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
impl_tuple_strategy!(A, B, C, D, E, F, G, H, I);
impl_tuple_strategy!(A, B, C, D, E, F, G, H, I, J);
impl_tuple_strategy!(A, B, C, D, E, F, G, H, I, J, K);
impl_tuple_strategy!(A, B, C, D, E, F, G, H, I, J, K, L);

/// Always produces a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// The `prop::` namespace (`prop::bool::ANY`, `prop::collection::vec`).
pub mod prop {
    /// Boolean strategies.
    pub mod bool {
        /// Uniformly random booleans.
        #[derive(Debug, Clone, Copy)]
        pub struct Any;

        /// The any-boolean strategy value.
        pub const ANY: Any = Any;

        impl crate::Strategy for Any {
            type Value = bool;

            fn sample(&self, rng: &mut crate::TestRng) -> bool {
                rng.bool()
            }
        }
    }

    /// Collection strategies.
    pub mod collection {
        use crate::{Strategy, TestRng};

        /// Length distributions accepted by [`vec()`].
        pub trait SampleLen {
            /// Draws a length.
            fn sample_len(&self, rng: &mut TestRng) -> usize;
        }

        impl SampleLen for std::ops::Range<usize> {
            fn sample_len(&self, rng: &mut TestRng) -> usize {
                self.start + rng.below((self.end - self.start) as u64) as usize
            }
        }

        impl SampleLen for std::ops::RangeInclusive<usize> {
            fn sample_len(&self, rng: &mut TestRng) -> usize {
                self.start() + rng.below((self.end() - self.start() + 1) as u64) as usize
            }
        }

        impl SampleLen for usize {
            fn sample_len(&self, _rng: &mut TestRng) -> usize {
                *self
            }
        }

        /// Vectors of `element`-generated values with a length drawn from
        /// `len`.
        pub fn vec<S: Strategy, L: SampleLen>(element: S, len: L) -> VecStrategy<S, L> {
            VecStrategy { element, len }
        }

        /// See [`vec()`].
        #[derive(Debug, Clone)]
        pub struct VecStrategy<S, L> {
            element: S,
            len: L,
        }

        impl<S: Strategy, L: SampleLen> Strategy for VecStrategy<S, L> {
            type Value = Vec<S::Value>;

            fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let n = self.len.sample_len(rng);
                (0..n).map(|_| self.element.sample(rng)).collect()
            }
        }
    }
}

/// Asserts a condition inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Asserts inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Rejects the current sampled case (it does not count toward the case
/// budget) when the condition is false.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseReject);
        }
    };
}

/// Declares property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` that runs `config.cases` sampled cases.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_impl! { @cfg($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { @cfg($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (
        @cfg($cfg:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:pat in $strategy:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::TestRng::from_name(stringify!($name));
                let mut accepted: u32 = 0;
                let mut attempts: u32 = 0;
                let max_attempts = config.cases.saturating_mul(100).max(1000);
                while accepted < config.cases {
                    attempts += 1;
                    assert!(
                        attempts <= max_attempts,
                        "prop_assume rejected too many cases ({} accepted of {} wanted)",
                        accepted,
                        config.cases,
                    );
                    $(let $arg = $crate::Strategy::sample(&($strategy), &mut rng);)+
                    #[allow(clippy::redundant_closure_call)]
                    let outcome = (|| -> ::std::result::Result<(), $crate::TestCaseReject> {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                    if outcome.is_ok() {
                        accepted += 1;
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::from_name("ranges");
        for _ in 0..1000 {
            let v = Strategy::sample(&(3usize..10), &mut rng);
            assert!((3..10).contains(&v));
            let w = Strategy::sample(&(-64i8..=64), &mut rng);
            assert!((-64..=64).contains(&w));
        }
    }

    #[test]
    fn deterministic_per_name() {
        let mut a = TestRng::from_name("x");
        let mut b = TestRng::from_name("x");
        assert_eq!(a.next_u64(), b.next_u64());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_generates_runnable_tests(x in 1usize..=5, flip in prop::bool::ANY) {
            prop_assume!(x != 5);
            prop_assert!((1..5).contains(&x));
            let _ = flip;
        }

        #[test]
        fn vec_strategy_lengths(v in prop::collection::vec(0u8..=9, 1..4)) {
            prop_assert!((1..4).contains(&v.len()));
            prop_assert!(v.iter().all(|&d| d <= 9));
        }
    }
}
