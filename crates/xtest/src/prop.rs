//! A minimal property-testing layer: composable generators, macro-driven
//! case generation, greedy shrinking on failure, and fixed-seed
//! reproducibility.
//!
//! The design is a deliberately small subset of proptest's: a [`Gen`]
//! produces values and knows how to propose *smaller* variants of a
//! failing value. Plain range expressions are generators (`0.05f64..0.95`,
//! `1u32..20`), tuples of generators are generators, and [`vec()`] and
//! [`Gen::prop_map`] build aggregates. The [`crate::props!`] macro turns a
//! proptest-style block into ordinary `#[test]` functions.
//!
//! # Reproducibility
//!
//! Each property derives its stream from a fixed base seed combined with
//! the test name, so runs are deterministic across machines and reruns.
//! Set `XTEST_SEED=<u64>` to explore a different stream, and
//! `XTEST_CASES=<n>` to override every suite's case count (e.g. a CI
//! smoke run with `XTEST_CASES=8`).

use std::cell::RefCell;
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

use crate::rng::{splitmix64, RngExt, SeedableRng, SmallRng};

/// What one execution of a property body reports.
pub enum CaseResult {
    /// The property held.
    Pass,
    /// The inputs were outside the property's precondition ([`crate::xassume!`]).
    Discard,
    /// The property failed without panicking.
    Fail(String),
}

/// A generator of test values plus a shrinking strategy.
pub trait Gen: Clone {
    type Value: Clone + Debug;

    /// Draws one value.
    fn generate(&self, rng: &mut SmallRng) -> Self::Value;

    /// Proposes strictly "smaller" candidates for a failing value, in
    /// decreasing order of aggressiveness. An empty vector ends shrinking.
    fn shrink(&self, _value: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }

    /// Maps generated values through `f` (named like proptest's
    /// `prop_map` so it cannot shadow `Iterator::map` on ranges).
    ///
    /// Mapped generators do not shrink (the map is not invertible), so
    /// keep raw ranges at the property boundary where possible.
    fn prop_map<F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// See [`Gen::prop_map`].
#[derive(Clone)]
pub struct Map<G, F> {
    inner: G,
    f: F,
}

impl<G, U, F> Gen for Map<G, F>
where
    G: Gen,
    U: Clone + Debug,
    F: Fn(G::Value) -> U + Clone,
{
    type Value = U;

    fn generate(&self, rng: &mut SmallRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

impl Gen for std::ops::Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut SmallRng) -> f64 {
        rng.random_range(self.start, self.end)
    }

    fn shrink(&self, value: &f64) -> Vec<f64> {
        // Candidates walk from the low endpoint toward the failing value
        // (1/2, 3/4, 7/8, 15/16 of the way); the greedy acceptor in
        // `forall` then bisects onto the smallest failing region.
        let lo = self.start;
        let mut out = Vec::new();
        if *value > lo {
            out.push(lo);
            for frac in [0.5, 0.75, 0.875, 0.9375] {
                let cand = lo + (*value - lo) * frac;
                if cand > lo && cand < *value {
                    out.push(cand);
                }
            }
        }
        out
    }
}

macro_rules! int_range_gen {
    ($($t:ty),+) => {$(
        impl Gen for std::ops::Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut SmallRng) -> $t {
                debug_assert!(self.start < self.end, "empty integer range");
                let span = (self.end - self.start) as u64;
                self.start + rng.random_below(span) as $t
            }

            fn shrink(&self, value: &$t) -> Vec<$t> {
                let lo = self.start;
                let mut out = Vec::new();
                if *value > lo {
                    out.push(lo);
                    let mid = lo + (*value - lo) / 2;
                    if mid > lo && mid < *value {
                        out.push(mid);
                    }
                }
                out
            }
        }
    )+};
}

int_range_gen!(u8, u16, u32, u64, usize, i32, i64);

/// A fixed-length vector of draws from `elem`.
pub fn vec<G: Gen>(elem: G, len: usize) -> VecGen<G> {
    VecGen { elem, len }
}

/// See [`vec()`].
#[derive(Clone)]
pub struct VecGen<G> {
    elem: G,
    len: usize,
}

impl<G: Gen> Gen for VecGen<G> {
    type Value = Vec<G::Value>;

    fn generate(&self, rng: &mut SmallRng) -> Vec<G::Value> {
        (0..self.len).map(|_| self.elem.generate(rng)).collect()
    }

    fn shrink(&self, value: &Vec<G::Value>) -> Vec<Vec<G::Value>> {
        // One element at a time, first (most aggressive) candidate only,
        // capped so shrink rounds stay cheap for large vectors.
        let mut out = Vec::new();
        for (i, v) in value.iter().enumerate().take(64) {
            if let Some(cand) = self.elem.shrink(v).into_iter().next() {
                let mut next = value.clone();
                next[i] = cand;
                out.push(next);
            }
        }
        out
    }
}

/// Always produces the same value (a degenerate generator for pinning one
/// coordinate of a tuple).
pub fn just<T: Clone + Debug>(value: T) -> Just<T> {
    Just(value)
}

/// See [`just`].
#[derive(Clone)]
pub struct Just<T>(T);

impl<T: Clone + Debug> Gen for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut SmallRng) -> T {
        self.0.clone()
    }
}

macro_rules! tuple_gen {
    ($(($G:ident, $idx:tt)),+) => {
        impl<$($G: Gen),+> Gen for ($($G,)+) {
            type Value = ($($G::Value,)+);

            fn generate(&self, rng: &mut SmallRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }

            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for cand in self.$idx.shrink(&value.$idx) {
                        let mut next = value.clone();
                        next.$idx = cand;
                        out.push(next);
                    }
                )+
                out
            }
        }
    };
}

tuple_gen!((A, 0));
tuple_gen!((A, 0), (B, 1));
tuple_gen!((A, 0), (B, 1), (C, 2));
tuple_gen!((A, 0), (B, 1), (C, 2), (D, 3));
tuple_gen!((A, 0), (B, 1), (C, 2), (D, 3), (E, 4));
tuple_gen!((A, 0), (B, 1), (C, 2), (D, 3), (E, 4), (F, 5));
tuple_gen!((A, 0), (B, 1), (C, 2), (D, 3), (E, 4), (F, 5), (G, 6));
tuple_gen!(
    (A, 0),
    (B, 1),
    (C, 2),
    (D, 3),
    (E, 4),
    (F, 5),
    (G, 6),
    (H, 7)
);

/// Default base seed; combined with the property name per test.
const DEFAULT_BASE_SEED: u64 = 0x5EED_0FC5_C1E5_7EA1;

const MAX_SHRINK_STEPS: usize = 500;

thread_local! {
    static QUIET: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    static LAST_PANIC: RefCell<Option<String>> = const { RefCell::new(None) };
}

static HOOK: Once = Once::new();

/// Installs a panic hook that silences expected panics while a property
/// case executes (we re-raise a single summary panic instead), delegating
/// to the previous hook otherwise.
fn install_hook() {
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if QUIET.with(|q| q.get()) {
                let msg = payload_str(info.payload());
                let loc = info
                    .location()
                    .map(|l| format!(" at {}:{}", l.file(), l.line()))
                    .unwrap_or_default();
                LAST_PANIC.with(|p| *p.borrow_mut() = Some(format!("{msg}{loc}")));
            } else {
                prev(info);
            }
        }));
    });
}

fn payload_str(payload: &dyn std::any::Any) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

fn fnv1a(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_0000_01B3);
    }
    h
}

enum Outcome {
    Pass,
    Discard,
    Fail(String),
}

fn run_case<V: Clone, F: Fn(V) -> CaseResult>(f: &F, value: &V) -> Outcome {
    QUIET.with(|q| q.set(true));
    LAST_PANIC.with(|p| *p.borrow_mut() = None);
    let result = catch_unwind(AssertUnwindSafe(|| f(value.clone())));
    QUIET.with(|q| q.set(false));
    match result {
        Ok(CaseResult::Pass) => Outcome::Pass,
        Ok(CaseResult::Discard) => Outcome::Discard,
        Ok(CaseResult::Fail(msg)) => Outcome::Fail(msg),
        Err(payload) => {
            let msg = LAST_PANIC
                .with(|p| p.borrow_mut().take())
                .unwrap_or_else(|| payload_str(payload.as_ref()));
            Outcome::Fail(msg)
        }
    }
}

fn shrink_failure<G: Gen, F: Fn(G::Value) -> CaseResult>(
    gen: &G,
    f: &F,
    mut value: G::Value,
    mut msg: String,
) -> (G::Value, String, usize) {
    let mut steps = 0;
    'outer: while steps < MAX_SHRINK_STEPS {
        for cand in gen.shrink(&value) {
            if let Outcome::Fail(m) = run_case(f, &cand) {
                value = cand;
                msg = m;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    (value, msg, steps)
}

fn env_u64(name: &str) -> Option<u64> {
    let raw = std::env::var(name).ok()?;
    let raw = raw.trim();
    if let Some(hex) = raw.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        raw.parse().ok()
    }
}

/// Runs `f` against `cases` generated values, shrinking and panicking with
/// a reproducible report on the first failure.
///
/// Usually invoked through [`crate::props!`] rather than directly.
pub fn forall<G, F>(name: &str, cases: u32, gen: G, f: F)
where
    G: Gen,
    F: Fn(G::Value) -> CaseResult,
{
    install_hook();
    let cases = env_u64("XTEST_CASES")
        .map(|c| c as u32)
        .unwrap_or(cases)
        .max(1);
    let base = env_u64("XTEST_SEED").unwrap_or(DEFAULT_BASE_SEED);
    let mut seed_state = base ^ fnv1a(name);
    let mut rng = SmallRng::seed_from_u64(splitmix64(&mut seed_state));

    let mut passed = 0u32;
    let mut attempts = 0u64;
    let max_attempts = cases as u64 * 20;
    while passed < cases {
        attempts += 1;
        assert!(
            attempts <= max_attempts,
            "[xtest] property '{name}': gave up after {attempts} attempts \
             ({passed}/{cases} cases passed, rest discarded) — \
             the precondition rejects too much of the input space"
        );
        let value = gen.generate(&mut rng);
        match run_case(&f, &value) {
            Outcome::Pass => passed += 1,
            Outcome::Discard => {}
            Outcome::Fail(first_msg) => {
                let (min_value, min_msg, steps) =
                    shrink_failure(&gen, &f, value.clone(), first_msg);
                panic!(
                    "[xtest] property '{name}' falsified on case {n} \
                     (base seed {base:#x}; rerun reproduces it, XTEST_SEED=<u64> varies it)\n\
                     original input: {value:?}\n \
                     minimal input ({steps} shrink steps): {min_value:?}\n \
                     failure: {min_msg}",
                    n = passed + 1,
                );
            }
        }
    }
}

/// Declares property tests with proptest-like syntax.
///
/// ```
/// cyclesteal_xtest::props! {
///     cases = 32;
///
///     /// Addition on sampled reals commutes.
///     fn addition_commutes(a in 0.0f64..10.0, b in 0.0f64..10.0) {
///         assert_eq!(a + b, b + a);
///     }
/// }
/// ```
///
/// Each `fn` becomes a `#[test]`. Bodies use ordinary `assert!` /
/// `assert_eq!`; use [`crate::xassume!`] to discard inputs that miss a
/// precondition. The leading `cases = N;` is optional (default 64).
#[macro_export]
macro_rules! props {
    (cases = $cases:expr; $($rest:tt)*) => {
        $crate::__props_impl! { $cases; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__props_impl! { 64; $($rest)* }
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! __props_impl {
    ($cases:expr; $(
        $(#[$meta:meta])*
        fn $name:ident( $($pat:pat_param in $gen:expr),+ $(,)? ) $body:block
    )*) => {
        $(
            $(#[$meta])*
            #[test]
            fn $name() {
                $crate::prop::forall(
                    stringify!($name),
                    $cases,
                    ( $( $gen, )+ ),
                    |( $($pat,)+ )| {
                        $body
                        $crate::prop::CaseResult::Pass
                    },
                );
            }
        )*
    };
}

/// Discards the current case when a precondition does not hold
/// (the proptest `prop_assume!`).
#[macro_export]
macro_rules! xassume {
    ($cond:expr) => {
        if !($cond) {
            return $crate::prop::CaseResult::Discard;
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::props! {
        cases = 32;

        fn addition_commutes(a in 0.0f64..100.0, b in 0.0f64..100.0) {
            assert_eq!(a + b, b + a);
        }

        fn tuple_destructuring((a, b) in (1u32..10, 0.0f64..1.0), c in 0u64..5) {
            assert!((1..10).contains(&a));
            assert!((0.0..1.0).contains(&b));
            assert!(c < 5);
        }

        fn assume_discards(n in 0u32..100) {
            crate::xassume!(n % 2 == 0);
            assert_eq!(n % 2, 0);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let gen = (0.0f64..1.0, 0u32..1000);
        let draw = |_: ()| {
            let mut rng = SmallRng::seed_from_u64(77);
            (0..10).map(|_| gen.generate(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(()), draw(()));
    }

    #[test]
    fn failing_property_shrinks_and_reports() {
        install_hook();
        QUIET.with(|q| q.set(true));
        let result = catch_unwind(AssertUnwindSafe(|| {
            forall("shrink_demo", 64, (0.0f64..1.0,), |(x,)| {
                assert!(x < 0.5, "x too big: {x}");
                CaseResult::Pass
            });
        }));
        QUIET.with(|q| q.set(false));
        let msg = payload_str(result.unwrap_err().as_ref());
        assert!(msg.contains("falsified"), "{msg}");
        assert!(msg.contains("x too big"), "{msg}");
        // The shrinker must have moved the witness down toward the 0.5
        // boundary: the minimal reported input is a tuple "(x,)" with
        // x in [0.5, 0.75) (the lower endpoint 0.0 passes, so midpoint
        // bisection converges onto the boundary from above).
        let value: f64 = msg
            .split("shrink steps): (")
            .nth(1)
            .and_then(|s| s.split(',').next())
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or_else(|| panic!("unparseable report: {msg}"));
        assert!(
            (0.5..0.75).contains(&value),
            "poorly shrunk: {value} in {msg}"
        );
    }

    #[test]
    fn vec_and_map_generators_compose() {
        let gen = vec(0.0f64..1.0, 16).prop_map(|v: Vec<f64>| v.iter().sum::<f64>());
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..100 {
            let s = gen.generate(&mut rng);
            assert!((0.0..16.0).contains(&s));
        }
    }

    #[test]
    fn discard_starvation_gives_up_with_message() {
        install_hook();
        QUIET.with(|q| q.set(true));
        let result = catch_unwind(AssertUnwindSafe(|| {
            forall("starved", 16, (0u32..10,), |_| CaseResult::Discard);
        }));
        QUIET.with(|q| q.set(false));
        let msg = payload_str(result.unwrap_err().as_ref());
        assert!(msg.contains("gave up"), "{msg}");
    }
}
