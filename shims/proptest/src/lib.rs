//! Vendored offline stand-in for the `proptest` crate.
//!
//! Implements the subset of the proptest API this workspace's property tests
//! use: the [`Strategy`] trait with `prop_map` / `prop_perturb` /
//! `prop_recursive`, range and tuple strategies, `Just`, `any`,
//! `prop_oneof!`, `prop::collection::vec`, `prop::option::of`, and the
//! [`proptest!`] test macro with `#![proptest_config(...)]`.
//!
//! Differences from upstream, chosen for an offline build:
//! * generation is **deterministic** — each test case derives its RNG from
//!   the test's module path, name, and case index, so failures reproduce
//!   exactly on re-run;
//! * there is **no shrinking** — `prop_assert!` fails the case as-is;
//! * weighted `prop_oneof!` arms are not supported (the workspace does not
//!   use them);
//! * the `PROPTEST_CASES` environment variable overrides the case count of
//!   *every* config — including explicit `with_cases` — so CI can pin the
//!   generated workload globally.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::marker::PhantomData;
use std::ops::Range;
use std::rc::Rc;

/// Deterministic SplitMix64 stream driving every strategy.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// A stream seeded directly.
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// The stream for one test case, derived from the test's identity so
    /// each case is independent and reproducible.
    pub fn for_case(test_name: &str, case: u32) -> Self {
        // FNV-1a over the name, then mix in the case index.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng::new(h ^ (u64::from(case) << 1 | 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The next 32 random bits.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }
}

/// Runtime configuration for a [`proptest!`] block.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// How many generated cases each test runs.
    pub cases: u32,
}

/// Parses a `PROPTEST_CASES`-style value; `None` when absent or malformed
/// (a malformed value falls back to the in-code count rather than erroring,
/// matching upstream's lenient env handling).
fn parse_cases(raw: &str) -> Option<u32> {
    let n: u32 = raw.trim().parse().ok()?;
    (n > 0).then_some(n)
}

/// The process-wide case-count override from the `PROPTEST_CASES`
/// environment variable, if set.
fn env_cases() -> Option<u32> {
    std::env::var("PROPTEST_CASES").ok().as_deref().and_then(parse_cases)
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: env_cases().unwrap_or(64),
        }
    }
}

impl ProptestConfig {
    /// Default configuration with a specific case count.
    ///
    /// Divergence from upstream, on purpose: `PROPTEST_CASES` overrides even
    /// an explicit in-code count, so CI can pin the generated workload (and
    /// with it the deterministic RNG streams) across every suite with one
    /// environment variable.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig {
            cases: env_cases().unwrap_or(cases),
        }
    }
}

/// A generator of values for property tests.
///
/// Unlike upstream proptest there is no value tree or shrinking: a strategy
/// simply produces a value from the RNG. `depth` bounds
/// [`Strategy::prop_recursive`] nesting.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng, depth: u32) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { source: self, f }
    }

    /// Transforms generated values with access to a private RNG stream.
    fn prop_perturb<O, F>(self, f: F) -> Perturb<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value, TestRng) -> O,
    {
        Perturb { source: self, f }
    }

    /// Builds a recursive strategy: `recurse` receives a handle generating
    /// the recursive type and returns the composite strategy; recursion
    /// deeper than `depth` falls back to `self` (the leaf strategy).
    /// `_desired_size` and `_expected_branch_size` are accepted for
    /// API compatibility and ignored.
    fn prop_recursive<S2, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        recurse: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        S2: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> S2,
    {
        let node = Rc::new(Recursive {
            base: Rc::new(self) as Rc<dyn Strategy<Value = Self::Value>>,
            rec: RefCell::new(None),
            max_depth: depth,
        });
        let handle = BoxedStrategy(node.clone() as Rc<dyn Strategy<Value = Self::Value>>);
        let built = recurse(handle.clone());
        *node.rec.borrow_mut() = Some(Rc::new(built) as Rc<dyn Strategy<Value = Self::Value>>);
        handle
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
    {
        BoxedStrategy(Rc::new(self))
    }
}

/// A clonable, type-erased strategy.
pub struct BoxedStrategy<V: 'static>(Rc<dyn Strategy<Value = V>>);

impl<V> Clone for BoxedStrategy<V> {
    fn clone(&self) -> Self {
        BoxedStrategy(Rc::clone(&self.0))
    }
}

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng, depth: u32) -> V {
        self.0.generate(rng, depth)
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    source: S,
    f: F,
}

impl<S, F, O> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn generate(&self, rng: &mut TestRng, depth: u32) -> O {
        (self.f)(self.source.generate(rng, depth))
    }
}

/// See [`Strategy::prop_perturb`].
pub struct Perturb<S, F> {
    source: S,
    f: F,
}

impl<S, F, O> Strategy for Perturb<S, F>
where
    S: Strategy,
    F: Fn(S::Value, TestRng) -> O,
{
    type Value = O;
    fn generate(&self, rng: &mut TestRng, depth: u32) -> O {
        let v = self.source.generate(rng, depth);
        let sub = TestRng::new(rng.next_u64());
        (self.f)(v, sub)
    }
}

/// See [`Strategy::prop_recursive`].
struct Recursive<V> {
    base: Rc<dyn Strategy<Value = V>>,
    rec: RefCell<Option<Rc<dyn Strategy<Value = V>>>>,
    max_depth: u32,
}

impl<V> Strategy for Recursive<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng, depth: u32) -> V {
        let rec = if depth < self.max_depth {
            self.rec.borrow().clone()
        } else {
            None
        };
        match rec {
            Some(s) => s.generate(rng, depth + 1),
            None => self.base.generate(rng, depth + 1),
        }
    }
}

/// A strategy producing one fixed (cloned) value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng, _depth: u32) -> T {
        self.0.clone()
    }
}

/// Uniform choice between same-valued strategies; built by [`prop_oneof!`].
pub struct Union<V: 'static> {
    arms: Vec<BoxedStrategy<V>>,
}

impl<V> Union<V> {
    /// A union over the given arms (must be non-empty).
    pub fn new(arms: Vec<BoxedStrategy<V>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng, depth: u32) -> V {
        let idx = rng.below(self.arms.len() as u64) as usize;
        self.arms[idx].generate(rng, depth)
    }
}

/// Types with a canonical whole-domain strategy, used by [`any`].
pub trait Arbitrary: Sized {
    /// Draws one value uniformly from the type's domain.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
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

/// The canonical strategy for an [`Arbitrary`] type; see [`any`].
pub struct Any<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng, _depth: u32) -> T {
        T::arbitrary(rng)
    }
}

/// The whole-domain strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng, _depth: u32) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let offset = (rng.next_u64() as u128 % span) as i128;
                (self.start as i128 + offset) as $t
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_float_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng, _depth: u32) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                self.start + (self.end - self.start) * unit as $t
            }
        }
    )*};
}
impl_float_range_strategy!(f64);

macro_rules! impl_tuple_strategy {
    ($($s:ident . $idx:tt),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng, depth: u32) -> Self::Value {
                ($(self.$idx.generate(rng, depth),)+)
            }
        }
    };
}
impl_tuple_strategy!(A.0);
impl_tuple_strategy!(A.0, B.1);
impl_tuple_strategy!(A.0, B.1, C.2);
impl_tuple_strategy!(A.0, B.1, C.2, D.3);
impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4);
impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5);

/// Collection strategies (`prop::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Length specifications accepted by [`vec`]: an exact `usize` or a
    /// half-open `Range<usize>`.
    pub trait SizeRange {
        /// Bounds as a half-open `[lo, hi)` interval.
        fn bounds(self) -> (usize, usize);
    }

    impl SizeRange for usize {
        fn bounds(self) -> (usize, usize) {
            (self, self + 1)
        }
    }

    impl SizeRange for Range<usize> {
        fn bounds(self) -> (usize, usize) {
            (self.start, self.end)
        }
    }

    /// See [`vec`].
    pub struct VecStrategy<S> {
        element: S,
        lo: usize,
        hi: usize,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng, depth: u32) -> Vec<S::Value> {
            let span = (self.hi - self.lo).max(1) as u64;
            let len = self.lo + (rng.next_u64() % span) as usize;
            (0..len).map(|_| self.element.generate(rng, depth)).collect()
        }
    }

    /// A strategy for vectors whose elements come from `element` and whose
    /// length is drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl SizeRange) -> VecStrategy<S> {
        let (lo, hi) = size.bounds();
        assert!(hi > lo, "empty length range");
        VecStrategy { element, lo, hi }
    }
}

/// Option strategies (`prop::option`).
pub mod option {
    use super::{Strategy, TestRng};

    /// See [`of`].
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng, depth: u32) -> Option<S::Value> {
            if rng.next_u64().is_multiple_of(4) {
                None
            } else {
                Some(self.inner.generate(rng, depth))
            }
        }
    }

    /// A strategy producing `None` a quarter of the time and `Some` of the
    /// inner strategy's value otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }
}

/// Everything a property test usually imports.
pub mod prelude {
    pub use crate as prop;
    pub use crate::{any, Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Uniform choice between strategies producing the same type.
///
/// Weighted arms (`N => strategy`) are not supported by the shim.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

/// Asserts a condition inside a property test (fails the case by panicking;
/// the shim does not shrink).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => { assert_eq!($left, $right) };
    ($left:expr, $right:expr, $($fmt:tt)+) => { assert_eq!($left, $right, $($fmt)+) };
}

/// Asserts inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => { assert_ne!($left, $right) };
    ($left:expr, $right:expr, $($fmt:tt)+) => { assert_ne!($left, $right, $($fmt)+) };
}

/// Declares property tests: each `fn name(params) { body }` becomes a
/// `#[test]` that runs `body` once per generated case. Parameters are either
/// `pattern in strategy` or `name: Type` (sugar for `any::<Type>()`). An
/// optional leading `#![proptest_config(expr)]` sets the case count.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests!([$cfg] $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests!([$crate::ProptestConfig::default()] $($rest)*);
    };
}

/// Internal muncher for [`proptest!`]: expands one test fn per entry.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    ([$cfg:expr]) => {};
    ([$cfg:expr] $(#[$attr:meta])* fn $name:ident($($params:tt)*) $body:block $($rest:tt)*) => {
        $(#[$attr])*
        fn $name() {
            let __pv_config: $crate::ProptestConfig = $cfg;
            for __pv_case in 0..__pv_config.cases {
                let mut __pv_rng = $crate::TestRng::for_case(
                    concat!(module_path!(), "::", stringify!($name)),
                    __pv_case,
                );
                $crate::__proptest_body!(__pv_rng, $body; $($params)*);
            }
        }
        $crate::__proptest_tests!([$cfg] $($rest)*);
    };
}

/// Internal muncher for [`proptest!`] parameter lists.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    ($rng:ident, $body:block;) => { $body };
    ($rng:ident, $body:block; $pat:pat in $strat:expr, $($rest:tt)*) => {{
        let $pat = $crate::Strategy::generate(&($strat), &mut $rng, 0);
        $crate::__proptest_body!($rng, $body; $($rest)*)
    }};
    ($rng:ident, $body:block; $pat:pat in $strat:expr) => {{
        let $pat = $crate::Strategy::generate(&($strat), &mut $rng, 0);
        $body
    }};
    ($rng:ident, $body:block; $id:ident : $ty:ty, $($rest:tt)*) => {{
        let $id: $ty = $crate::Strategy::generate(&$crate::any::<$ty>(), &mut $rng, 0);
        $crate::__proptest_body!($rng, $body; $($rest)*)
    }};
    ($rng:ident, $body:block; $id:ident : $ty:ty) => {{
        let $id: $ty = $crate::Strategy::generate(&$crate::any::<$ty>(), &mut $rng, 0);
        $body
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};

    #[test]
    fn case_count_parsing() {
        assert_eq!(crate::parse_cases("128"), Some(128));
        assert_eq!(crate::parse_cases(" 16 "), Some(16));
        assert_eq!(crate::parse_cases("0"), None, "zero cases would skip every body");
        assert_eq!(crate::parse_cases(""), None);
        assert_eq!(crate::parse_cases("lots"), None);
        assert_eq!(crate::parse_cases("-3"), None);
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = TestRng::new(3);
        for _ in 0..200 {
            let v = Strategy::generate(&(10u64..20), &mut rng, 0);
            assert!((10..20).contains(&v));
            let s = Strategy::generate(&(-5i64..5), &mut rng, 0);
            assert!((-5..5).contains(&s));
        }
    }

    #[test]
    fn recursive_terminates() {
        #[derive(Debug)]
        enum Tree {
            Leaf(u64),
            Node(Box<Tree>, Box<Tree>),
        }
        fn tree_depth(t: &Tree) -> u32 {
            match t {
                Tree::Leaf(v) => {
                    assert!(*v < 8, "leaf {v} outside 0..8");
                    0
                }
                Tree::Node(a, b) => 1 + tree_depth(a).max(tree_depth(b)),
            }
        }
        let strat = (0u64..8).prop_map(Tree::Leaf).prop_recursive(3, 16, 2, |inner| {
            (inner.clone(), inner).prop_map(|(a, b)| Tree::Node(Box::new(a), Box::new(b)))
        });
        let mut rng = TestRng::new(9);
        for _ in 0..100 {
            let t = strat.generate(&mut rng, 0);
            assert!(tree_depth(&t) <= 4, "runaway recursion: {t:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_binds_patterns((a, b) in (0u32..10, 0u32..10), flag: bool, n in 1usize..4) {
            prop_assert!(a < 10 && b < 10);
            // Both values of `flag` turn up within the first 32 cases.
            static SEEN: AtomicU8 = AtomicU8::new(0);
            static CASES: AtomicU32 = AtomicU32::new(0);
            let seen = SEEN.fetch_or(1 << u8::from(flag), Ordering::Relaxed) | 1 << u8::from(flag);
            let case = CASES.fetch_add(1, Ordering::Relaxed) + 1;
            prop_assert!(case < 32 || seen == 0b11, "flag stuck at {flag} after {case} cases");
            prop_assert!((1..4).contains(&n));
        }

        #[test]
        fn vec_and_option(xs in prop::collection::vec(0i64..5, 0..6), o in prop::option::of(Just(7u8))) {
            prop_assert!(xs.len() < 6);
            if let Some(v) = o {
                prop_assert_eq!(v, 7);
            }
        }
    }
}
