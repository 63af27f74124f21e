//! Offline stand-in for `proptest`.
//!
//! Implements the strategy combinators and the `proptest!` macro surface
//! this workspace's property tests use, with two deliberate differences
//! from upstream:
//!
//! * **no shrinking** — a failing case panics with the generated inputs
//!   in the assertion message instead of minimizing them;
//! * **fixed deterministic seeding** — each test's RNG is seeded from a
//!   hash of its name (override with `PROPTEST_SEED=<u64>` to explore a
//!   different corpus), so CI failures reproduce locally byte-for-byte.
//!
//! Supported: `any::<T>()` for the integer primitives and `bool`, integer
//! range strategies (`lo..hi`, `lo..=hi`), tuple strategies up to arity
//! 12, `Just`, `prop_oneof!`, `prop::collection::vec`, `.prop_map`,
//! `.prop_flat_map`, `.prop_shuffle`, `ProptestConfig { cases, timeout }`
//! and `prop_assert!` / `prop_assert_eq!`.

use std::ops::{Range, RangeInclusive};

// ---------------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------------

/// Deterministic xoshiro256++ used by every strategy.
#[derive(Debug, Clone)]
pub struct TestRng {
    s: [u64; 4],
}

impl TestRng {
    /// Seed from a test name (FNV-1a), or from `PROPTEST_SEED` when set.
    pub fn for_test(name: &str) -> TestRng {
        let seed = match std::env::var("PROPTEST_SEED") {
            Ok(v) => v.parse::<u64>().unwrap_or(0x0DEF_A017),
            Err(_) => {
                let mut h = 0xcbf2_9ce4_8422_2325u64;
                for b in name.bytes() {
                    h ^= b as u64;
                    h = h.wrapping_mul(0x1000_0000_01b3);
                }
                h
            }
        };
        TestRng::seed_from_u64(seed)
    }

    pub fn seed_from_u64(mut state: u64) -> TestRng {
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        TestRng {
            s: [next(), next(), next(), next()],
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform draw in `[0, n)` via rejection sampling (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        let zone = u64::MAX - (u64::MAX % n + 1) % n;
        loop {
            let x = self.next_u64();
            if x <= zone {
                return x % n;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Strategy core
// ---------------------------------------------------------------------------

/// A recipe for generating values of one type.
pub trait Strategy {
    type Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S2: Strategy,
        F: Fn(Self::Value) -> S2,
    {
        FlatMap { inner: self, f }
    }

    /// Random permutation of a generated `Vec`.
    fn prop_shuffle<T>(self) -> Shuffle<Self>
    where
        Self: Sized + Strategy<Value = Vec<T>>,
    {
        Shuffle { inner: self }
    }

    /// Type-erase the strategy (parity with upstream's `boxed`).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy {
            gen_fn: Box::new(move |rng| self.generate(rng)),
        }
    }
}

/// Object-safe, type-erased strategy.
pub struct BoxedStrategy<V> {
    gen_fn: Box<dyn Fn(&mut TestRng) -> V>,
}

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        (self.gen_fn)(rng)
    }
}

/// Always produces a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, O> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, F, S2> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;
    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

pub struct Shuffle<S> {
    inner: S,
}

impl<S, T> Strategy for Shuffle<S>
where
    S: Strategy<Value = Vec<T>>,
{
    type Value = Vec<T>;
    fn generate(&self, rng: &mut TestRng) -> Vec<T> {
        let mut v = self.inner.generate(rng);
        // Fisher–Yates.
        for i in (1..v.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
        v
    }
}

/// Weighted-uniform choice between same-valued strategies (`prop_oneof!`).
pub struct Union<V> {
    arms: Vec<BoxedStrategy<V>>,
}

impl<V> Union<V> {
    pub fn new(arms: Vec<BoxedStrategy<V>>) -> Union<V> {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        let idx = rng.below(self.arms.len() as u64) as usize;
        self.arms[idx].generate(rng)
    }
}

// ---------------------------------------------------------------------------
// Primitive strategies: any::<T>() and ranges
// ---------------------------------------------------------------------------

/// Types with a canonical full-domain strategy.
pub trait Arbitrary: Sized {
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

impl Arbitrary for u128 {
    fn arbitrary(rng: &mut TestRng) -> u128 {
        ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
    }
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Full-domain strategy for `T` (the `any::<T>()` entry point).
pub struct Any<T>(std::marker::PhantomData<T>);

pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Integers sampleable from range strategies.
pub trait RangeSample: Copy {
    fn to_u64(self) -> u64;
    fn from_u64(v: u64) -> Self;
}

macro_rules! impl_range_sample {
    ($($t:ty),*) => {$(
        impl RangeSample for $t {
            fn to_u64(self) -> u64 { self as u64 }
            fn from_u64(v: u64) -> Self { v as $t }
        }
    )*};
}
impl_range_sample!(u8, u16, u32, u64, usize);

impl<T: RangeSample> Strategy for Range<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let (lo, hi) = (self.start.to_u64(), self.end.to_u64());
        assert!(lo < hi, "empty range strategy");
        T::from_u64(lo + rng.below(hi - lo))
    }
}

impl<T: RangeSample> Strategy for RangeInclusive<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let (lo, hi) = (self.start().to_u64(), self.end().to_u64());
        assert!(lo <= hi, "empty range strategy");
        let span = hi - lo;
        if span == u64::MAX {
            return T::from_u64(rng.next_u64());
        }
        T::from_u64(lo + rng.below(span + 1))
    }
}

// Tuple strategies up to arity 12.
macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
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

// ---------------------------------------------------------------------------
// Collections
// ---------------------------------------------------------------------------

pub mod collection {
    use super::{Strategy, TestRng};

    /// Length specification for [`vec()`].
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange {
                lo: n,
                hi_inclusive: n,
            }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi_inclusive: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> SizeRange {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange {
                lo: *r.start(),
                hi_inclusive: *r.end(),
            }
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `Vec` of `element`-generated values with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi_inclusive - self.size.lo) as u64;
            let len = self.size.lo + rng.below(span + 1) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

// ---------------------------------------------------------------------------
// Config and macros
// ---------------------------------------------------------------------------

/// Runner configuration (subset of upstream's fields).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
    /// Per-case timeout in milliseconds. Accepted for source parity;
    /// this runner does not enforce it (no shrinking marathons exist).
    pub timeout: u32,
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig {
            cases: 256,
            timeout: 0,
        }
    }
}

/// Random choice among strategy arms producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

/// Assertion macros: panic (with the message) instead of upstream's
/// `Err(TestCaseError)` — there is no shrinking phase to feed.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// The test-definition macro. Each `fn name(arg in strategy, ...)` body
/// runs `config.cases` times with freshly generated inputs; failures
/// panic with the case number and generated arguments.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!{@expand ($cfg) $($rest)*}
    };
    (@expand ($cfg:expr) $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::TestRng::for_test(stringify!($name));
                for case in 0..config.cases {
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                    let result = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(|| {
                        $(let $arg = $arg.clone();)+
                        $body
                    }));
                    if let Err(e) = result {
                        eprintln!(
                            concat!(
                                "proptest case {}/{} failed for ", stringify!($name), ":",
                                $("\n  ", stringify!($arg), " = {:?}",)+
                            ),
                            case + 1, config.cases, $(&$arg),+
                        );
                        ::std::panic::resume_unwind(e);
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!{@expand ($crate::ProptestConfig::default()) $($rest)*}
    };
}

pub mod prelude {
    /// Upstream exposes the crate under the `prop` alias in its prelude.
    pub use crate as prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Arbitrary,
        BoxedStrategy, Just, ProptestConfig, Strategy, TestRng,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::for_test("ranges");
        for _ in 0..1000 {
            let a = (3u32..10).generate(&mut rng);
            assert!((3..10).contains(&a));
            let b = (5u64..=5).generate(&mut rng);
            assert_eq!(b, 5);
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = TestRng::for_test("shuffle");
        let s = Just((0..50u32).collect::<Vec<_>>()).prop_shuffle();
        let mut v = s.generate(&mut rng);
        v.sort_unstable();
        assert_eq!(v, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn oneof_hits_every_arm() {
        let mut rng = TestRng::for_test("oneof");
        let s = prop_oneof![Just(1u8), Just(2u8), Just(3u8)];
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[s.generate(&mut rng) as usize] = true;
        }
        assert!(seen[1] && seen[2] && seen[3]);
    }

    #[test]
    fn vec_respects_size() {
        let mut rng = TestRng::for_test("vecsize");
        let s = prop::collection::vec(any::<u8>(), 2..=4);
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!((2..=4).contains(&v.len()));
        }
    }

    proptest! {
        #[test]
        fn macro_works(x in 1u32..100, flag in any::<bool>()) {
            prop_assert!((1..100).contains(&x));
            let _ = flag;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 7, ..ProptestConfig::default() })]
        #[test]
        fn macro_with_config(v in prop::collection::vec(any::<u16>(), 0..8)) {
            prop_assert!(v.len() < 8);
        }
    }
}
