//! Deterministic fault injection for robustness tests.
//!
//! Production code marks *named sites* with [`fault_point!`](crate::fault_point); tests arm a
//! seeded [`FaultPlan`] that decides — as a pure function of the plan seed
//! and the enclosing scope id — whether a site fires. Nothing here ever
//! consults wall-clock time, thread ids, or global counters, so an armed
//! sweep is exactly as deterministic as a clean one: the same points fault
//! the same way at every thread count and input order.
//!
//! # Model
//!
//! * A **site** is a short static name at a fault-able operation, e.g.
//!   `"qbd.solve"` or `"dist.busy.mg1"`.
//! * A **scope** is the unit of work faults are attributed to — for the
//!   sweep engine, the canonical point id. Workers wrap each unit in a
//!   [`Scope`] guard; the plan picks **at most one site per scope**
//!   (xoshiro-derived from `seed ⊕ fnv1a(scope)`), which gives tests an
//!   exact oracle: `plan.site_for(id)` says precisely which failure kind a
//!   row must report, independent of execution interleaving.
//! * [`fault_point!`](crate::fault_point) compiles to nothing in release builds
//!   (`cfg!(debug_assertions)` folds the check away) and to a cheap
//!   relaxed-atomic load in test builds while no plan is armed.
//!
//! # Arming
//!
//! [`arm`] installs a plan process-wide and returns an [`Armed`] guard;
//! dropping the guard disarms. Arming takes an exclusive lock so two armed
//! test sections never overlap (Rust runs tests concurrently by default).

use std::cell::RefCell;
use std::panic;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::rng::{splitmix64, Rng, SeedableRng, SmallRng};

/// FNV-1a over bytes — stable, dependency-free scope hashing.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Locks `m`, riding through poisoning: the guarded state is plain data
/// (no invariants spanning the critical section), so a panic elsewhere
/// must not cascade into every later lock.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A seeded, pure-function fault schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    /// Fault probability in parts-per-million (integer so the plan is
    /// hashable/comparable and the draw is exact).
    rate_ppm: u32,
    sites: Vec<String>,
}

impl FaultPlan {
    /// A plan that faults roughly `rate` (0.0..=1.0) of scopes, choosing
    /// uniformly among `sites` for each faulted scope.
    pub fn new(seed: u64, rate: f64, sites: &[&str]) -> Self {
        let rate_ppm = (rate.clamp(0.0, 1.0) * 1_000_000.0).round() as u32;
        FaultPlan {
            seed,
            rate_ppm,
            sites: sites.iter().map(|s| (*s).to_string()).collect(),
        }
    }

    /// The site this plan faults within `scope`, or `None` when the scope
    /// runs clean. Pure: depends only on the plan and the scope string, so
    /// tests can compute the full oracle before (or after) the sweep runs.
    pub fn site_for(&self, scope: &str) -> Option<&str> {
        if self.sites.is_empty() || self.rate_ppm == 0 {
            return None;
        }
        // Derive an independent-looking stream per (plan, scope) pair:
        // splitmix the combined hash, then draw from xoshiro256++.
        let mut state = self.seed ^ fnv1a64(scope.as_bytes());
        let mut rng = SmallRng::seed_from_u64(splitmix64(&mut state));
        if rng.next_u64() % 1_000_000 >= u64::from(self.rate_ppm) {
            return None;
        }
        let idx = (rng.next_u64() % self.sites.len() as u64) as usize;
        Some(&self.sites[idx])
    }
}

/// Fast global flag: is any plan armed? Checked (relaxed) on every
/// [`fault_point!`](crate::fault_point) in test builds before touching anything slower.
static ACTIVE: AtomicBool = AtomicBool::new(false);

/// The armed plan, if any.
static PLAN: Mutex<Option<FaultPlan>> = Mutex::new(None);

/// Serializes armed sections across concurrently-running tests.
static EXCLUSIVE: Mutex<()> = Mutex::new(());

thread_local! {
    /// The site chosen for the scope currently executing on this thread
    /// (resolved once at [`Scope::enter`], so site checks are string
    /// compares with no locking).
    static SCOPE_SITE: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// Guard returned by [`arm`]; the plan stays armed until it drops.
#[must_use = "the plan disarms when this guard drops"]
pub struct Armed {
    _exclusive: MutexGuard<'static, ()>,
}

impl Drop for Armed {
    fn drop(&mut self) {
        ACTIVE.store(false, Ordering::SeqCst);
        *lock(&PLAN) = None;
    }
}

/// Installs `plan` process-wide. Blocks until any other armed section has
/// finished; disarms when the returned guard drops.
pub fn arm(plan: FaultPlan) -> Armed {
    let exclusive = EXCLUSIVE.lock().unwrap_or_else(PoisonError::into_inner);
    *lock(&PLAN) = Some(plan);
    ACTIVE.store(true, Ordering::SeqCst);
    Armed {
        _exclusive: exclusive,
    }
}

/// The armed plan's chosen site for `scope` (`None` when disarmed or the
/// scope runs clean). Same purity as [`FaultPlan::site_for`].
pub fn planned_site(scope: &str) -> Option<String> {
    if !ACTIVE.load(Ordering::Relaxed) {
        return None;
    }
    lock(&PLAN)
        .as_ref()
        .and_then(|p| p.site_for(scope).map(str::to_string))
}

/// RAII guard marking "this thread is now executing `scope`".
///
/// Workers enter a scope per unit of work; [`fires`] only returns `true`
/// between `enter` and drop, and only for the one site the plan chose for
/// that scope.
pub struct Scope {
    entered: bool,
}

impl Scope {
    /// Resolves the plan's choice for `scope` into thread-local state.
    /// Cheap no-op when nothing is armed.
    pub fn enter(scope: &str) -> Self {
        if !ACTIVE.load(Ordering::Relaxed) {
            return Scope { entered: false };
        }
        let chosen = planned_site(scope);
        SCOPE_SITE.with(|s| *s.borrow_mut() = chosen);
        Scope { entered: true }
    }
}

impl Drop for Scope {
    fn drop(&mut self) {
        if self.entered {
            SCOPE_SITE.with(|s| *s.borrow_mut() = None);
        }
    }
}

/// Does the armed plan fire at `site` within the current scope?
///
/// Called via [`fault_point!`](crate::fault_point); false whenever disarmed, outside any
/// scope, or at a site the plan did not choose for this scope.
pub fn fires(site: &str) -> bool {
    if !ACTIVE.load(Ordering::Relaxed) {
        return false;
    }
    let hit = SCOPE_SITE.with(|s| s.borrow().as_deref() == Some(site));
    // Every actual injection is visible in telemetry, labeled with its
    // site; injection counts are pure functions of (plan, work), so they
    // stay inside the obs determinism contract.
    if hit && cyclesteal_obs::is_active() {
        cyclesteal_obs::record_counter_owned(format!("xtest.fault.injected:{site}"), 1);
    }
    hit
}

/// `true` while the current thread's scope has *any* fault planned.
///
/// The sweep engine uses this to route faulted points around shared
/// caches: a memoized sub-result could otherwise skip the injection site
/// (or leak a poisoned value), making which points fault depend on
/// execution order.
pub fn scope_is_faulted() -> bool {
    if !ACTIVE.load(Ordering::Relaxed) {
        return false;
    }
    SCOPE_SITE.with(|s| s.borrow().is_some())
}

/// The global panic hook's type, as `std::panic::take_hook` returns it.
type PanicHook = Box<dyn Fn(&panic::PanicHookInfo<'_>) + Sync + Send>;

/// Silences the default panic-hook backtrace spam while injected panics
/// are being caught; restores the previous hook on drop.
pub struct QuietPanics {
    prev: Option<PanicHook>,
}

impl QuietPanics {
    /// Replaces the global panic hook with a no-op.
    pub fn install() -> Self {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(|_| {}));
        QuietPanics { prev: Some(prev) }
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            panic::set_hook(prev);
        }
    }
}

/// Marks a named fault site. In release builds this compiles to nothing;
/// in test builds it runs `$on_fire` iff an armed [`FaultPlan`](crate::fault::FaultPlan)
/// chose `$site` for the current [`Scope`](crate::fault::Scope).
///
/// ```ignore
/// cyclesteal_xtest::fault_point!("qbd.solve" => return Err(injected()));
/// ```
#[macro_export]
macro_rules! fault_point {
    ($site:expr => $on_fire:expr) => {
        if cfg!(debug_assertions) && $crate::fault::fires($site) {
            $on_fire
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_for_is_pure_and_rate_shaped() {
        let plan = FaultPlan::new(7, 0.05, &["a", "b", "c"]);
        let scopes: Vec<String> = (0..10_000).map(|i| format!("scope-{i}")).collect();
        let first: Vec<Option<&str>> = scopes.iter().map(|s| plan.site_for(s)).collect();
        let second: Vec<Option<&str>> = scopes.iter().map(|s| plan.site_for(s)).collect();
        assert_eq!(first, second, "site_for must be pure");
        let hits = first.iter().filter(|s| s.is_some()).count();
        // 5% of 10,000 = 500; allow wide but meaningful slack.
        assert!((300..=700).contains(&hits), "hit count {hits}");
        for site in ["a", "b", "c"] {
            assert!(first.contains(&Some(site)), "site {site} never chosen");
        }
    }

    #[test]
    fn zero_rate_and_empty_sites_never_fire() {
        assert_eq!(FaultPlan::new(1, 0.0, &["a"]).site_for("x"), None);
        assert_eq!(FaultPlan::new(1, 1.0, &[]).site_for("x"), None);
    }

    #[test]
    fn fires_only_inside_matching_scope_and_while_armed() {
        let plan = FaultPlan::new(99, 1.0, &["only"]);
        assert_eq!(plan.site_for("work"), Some("only"));

        assert!(!fires("only"), "disarmed: must not fire");
        let armed = arm(plan);
        assert!(!fires("only"), "armed but no scope: must not fire");
        {
            let _scope = Scope::enter("work");
            assert!(fires("only"));
            assert!(!fires("other"));
            assert!(scope_is_faulted());
        }
        assert!(!fires("only"), "scope dropped: must not fire");
        assert!(!scope_is_faulted());
        drop(armed);
        assert_eq!(planned_site("work"), None, "disarmed plan is invisible");
    }

    #[test]
    fn fault_point_macro_runs_on_fire_only() {
        let armed = arm(FaultPlan::new(3, 1.0, &["macro.site"]));
        let _scope = Scope::enter("unit");
        let mut fired = false;
        fault_point!("macro.site" => fired = true);
        assert!(fired == cfg!(debug_assertions));
        let mut other = false;
        fault_point!("macro.other" => other = true);
        assert!(!other);
        drop(armed);
    }
}
