//! Deterministic retry/escalation ladders over the CS-CQ analysis.
//!
//! The regimes the paper cares about most — just inside the Theorem-1
//! stability frontier, high-`C²` long jobs — are exactly where the
//! numerics are most fragile: QBD iterations stall, Coxian three-moment
//! fits leave the feasible set, and truncated distributions drop real
//! probability mass. This module turns those failures into *recoveries*
//! where a cheaper-but-sound method exists, and into attributed failures
//! where it does not:
//!
//! * [`analyze_cached`] — degrades the busy-period fit order
//!   (three-moment → two-moment → mean-only) when a fit is infeasible or
//!   the QBD `R`-iteration exhausts both algorithms. Degraded results are
//!   flagged (`degraded: true`) so reports never pass an approximation off
//!   as the paper's method. One entry family serves every fleet shape
//!   (keyed by [`Hosts`]); [`analyze_cached_in`] runs the same ladder
//!   with or without a time budget.
//! * [`shorts_distribution`] — geometrically grows the truncation depth
//!   `n_max` up to a budget when the tail mass is still non-negligible.
//!
//! Every ladder is **deterministic**: budgets are iteration/size counts,
//! never wall-clock, and each rung is itself a pure function of its
//! inputs. Recovery metadata ([`Recovery`]) travels *next to* the result
//! rather than inside it, so cached values stay pure functions of their
//! keys — the sweep engine's bit-identical-reports guarantee survives
//! every escalation.

use crate::cache::SolveCache;
use crate::cs_cq::{self, BusyPeriodFit, CsCqReport};
use crate::cs_cq_km::{self, Hosts};
use crate::{AnalysisError, SystemParams};
use cyclesteal_dist::DistError;
use cyclesteal_linalg::Workspace;
use cyclesteal_markov::MarkovError;

/// What a ladder did to produce (or fail to produce) its result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recovery {
    /// Rungs tried, including the one that produced the final outcome
    /// (`1` = the primary method worked first try).
    pub attempts: u32,
    /// `true` when the result comes from a documented fallback rather
    /// than the primary method (e.g. a two-moment busy-period fit).
    pub degraded: bool,
    /// The busy-period fit order used on the final attempt.
    pub fit: BusyPeriodFit,
    /// `true` when a [`Deadline`] (rather than a numeric failure) made the
    /// ladder skip ahead to the cheapest rung because the remaining budget
    /// could not afford the next escalation. A steered success is always
    /// also `degraded`; without a deadline this is always `false`.
    pub steered: bool,
}

/// The fit-order escalation ladder, strongest first. Each rung is exact
/// for strictly fewer moments, so later rungs are *feasible* on strictly
/// larger parameter sets (a mean-only exponential fit always exists).
const FIT_LADDER: [BusyPeriodFit; 3] = [
    BusyPeriodFit::ThreeMoment,
    BusyPeriodFit::TwoMoment,
    BusyPeriodFit::MeanOnly,
];

/// A monotonic nanosecond source the deadline ladder reads time through.
///
/// Injectable so budget decisions can be made deterministic in tests: the
/// blanket impl lets any `Fn() -> u64` closure serve as a clock (e.g.
/// `cyclesteal_xtest::clock::StepClock::as_fn`), while production uses
/// [`MonotonicClock`]. Only *differences* of readings are ever used, so
/// the epoch is arbitrary.
pub trait Clock {
    /// Current time in nanoseconds since an arbitrary fixed epoch.
    fn now_ns(&self) -> u64;
}

impl<F: Fn() -> u64> Clock for F {
    fn now_ns(&self) -> u64 {
        self()
    }
}

/// The production clock: [`std::time::Instant`] nanoseconds since the
/// first reading taken through any `MonotonicClock`.
#[derive(Debug, Clone, Copy, Default)]
pub struct MonotonicClock;

impl Clock for MonotonicClock {
    fn now_ns(&self) -> u64 {
        use std::sync::OnceLock;
        use std::time::Instant;
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        let epoch = *EPOCH.get_or_init(Instant::now);
        u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A started budget: a clock, the reading at query admission, and the
/// total nanoseconds the caller is willing to spend. All arithmetic is
/// saturating, so a non-monotonic injected clock cannot panic the ladder.
#[derive(Clone, Copy)]
pub struct Deadline<'a> {
    clock: &'a dyn Clock,
    start_ns: u64,
    budget_ns: u64,
}

impl std::fmt::Debug for Deadline<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Deadline")
            .field("start_ns", &self.start_ns)
            .field("budget_ns", &self.budget_ns)
            .finish()
    }
}

impl<'a> Deadline<'a> {
    /// Starts the budget now (one clock reading).
    pub fn start(clock: &'a dyn Clock, budget_ns: u64) -> Self {
        Deadline {
            start_ns: clock.now_ns(),
            clock,
            budget_ns,
        }
    }

    /// The total budget this deadline was started with.
    pub fn budget_ns(&self) -> u64 {
        self.budget_ns
    }

    /// Nanoseconds spent since [`Deadline::start`].
    pub fn elapsed_ns(&self) -> u64 {
        self.clock.now_ns().saturating_sub(self.start_ns)
    }

    /// Budget not yet spent (`0` once expired).
    pub fn remaining_ns(&self) -> u64 {
        self.budget_ns.saturating_sub(self.elapsed_ns())
    }

    /// `true` once the budget is fully spent.
    pub fn expired(&self) -> bool {
        self.remaining_ns() == 0
    }
}

/// Is this failure worth retrying with a lower fit order? Infeasible
/// moment regions and exhausted `R`-iterations both depend on the fitted
/// busy-period Coxians; a lower-order fit changes the chain and can
/// succeed. Instability, truncation, and non-finite taints cannot be
/// fixed by refitting.
fn fit_retryable(e: &AnalysisError) -> bool {
    matches!(
        e,
        AnalysisError::Param(DistError::InfeasibleMoments { .. })
            | AnalysisError::Param(DistError::Inconsistent { .. })
            | AnalysisError::Chain(MarkovError::FallbackExhausted { .. })
            | AnalysisError::Chain(MarkovError::NoConvergence { .. })
    )
}

/// The fit-order ladder: on a retryable failure ([`fit_retryable`]) the
/// next, weaker fit is tried, until one succeeds or the last rung fails.
/// With `deadline: None` that is the whole story (and `steered` is always
/// `false`). A [`Deadline`] adds three behaviours:
///
/// 1. **Expired at a rung boundary** → `DeadlineExceeded { stage }`
///    naming the rung that could not start (so an expired-on-arrival
///    budget fails with `stage: "three_moment"` and `attempts: 0`).
/// 2. **Steering**: after a retryable failure, if the remaining budget is
///    smaller than what the failed attempt just cost — the best available
///    estimate of the next rung's cost — the ladder jumps straight to the
///    cheapest rung (mean-only) instead of walking through intermediate
///    orders it cannot afford. The result is served `degraded` +
///    `steered`.
/// 3. **Started work is finished**: an attempt that is already running
///    when the budget expires completes and, if successful, is served —
///    the answer is correct, merely late. Deadlines bound *scheduling*
///    decisions, never discard computed results.
///
/// Budget decisions depend only on the injected [`Clock`] readings, so a
/// scripted clock makes every branch of this ladder deterministic.
fn run_fit_ladder(
    deadline: Option<&Deadline<'_>>,
    mut attempt: impl FnMut(BusyPeriodFit) -> Result<CsCqReport, AnalysisError>,
) -> (Result<CsCqReport, AnalysisError>, Recovery) {
    let mut steered = false;
    let mut rung = 0usize;
    let mut attempts = 0u32;
    let last = FIT_LADDER.len() - 1;
    loop {
        let fit = FIT_LADDER[rung];
        if let Some(deadline) = deadline.filter(|d| d.expired()) {
            cyclesteal_obs::counter!("core.recover.deadline_exceeded");
            return (
                Err(AnalysisError::DeadlineExceeded {
                    stage: fit.name(),
                    budget_ns: deadline.budget_ns(),
                }),
                Recovery {
                    attempts,
                    degraded: false,
                    fit,
                    steered,
                },
            );
        }
        attempts += 1;
        let recovery = Recovery {
            attempts,
            degraded: rung > 0,
            fit,
            steered,
        };
        cyclesteal_obs::counter!("core.recover.attempts");
        let before = deadline.map(Deadline::elapsed_ns);
        match attempt(fit) {
            Ok(report) => {
                cyclesteal_obs::histogram!("core.recover.ladder_depth", u64::from(attempts));
                if recovery.degraded {
                    cyclesteal_obs::counter!("core.recover.degraded");
                }
                return (Ok(report), recovery);
            }
            Err(e) if rung < last && fit_retryable(&e) => {
                if let Some((deadline, before)) = deadline.zip(before) {
                    let cost = deadline.elapsed_ns().saturating_sub(before);
                    if rung + 1 < last && deadline.remaining_ns() < cost {
                        rung = last;
                        steered = true;
                        cyclesteal_obs::counter!("core.recover.deadline_steered");
                        continue;
                    }
                }
                rung += 1;
            }
            Err(e) => {
                cyclesteal_obs::counter!("core.recover.exhausted");
                return (Err(e), recovery);
            }
        }
    }
}

/// CS-CQ analysis of the `hosts` fleet through a [`SolveCache`] with
/// automatic fit-order degradation (see the [module docs](self)).
///
/// Returns the outcome *and* the [`Recovery`] describing how it was
/// reached; a degraded success reports `degraded: true` and the fit order
/// actually used. The cache is keyed on `(hosts, params, fit)` exactly as
/// [`cs_cq_km::analyze_cached`] keys it, so a degraded result can never
/// shadow a full-order one. This is [`analyze_cached_in`] without a
/// deadline.
///
/// # Examples
///
/// ```
/// use cyclesteal_core::cache::SolveCache;
/// use cyclesteal_core::cs_cq_km::Hosts;
/// use cyclesteal_core::{recover, SystemParams};
///
/// # fn main() -> Result<(), cyclesteal_core::AnalysisError> {
/// let cache = SolveCache::new();
/// let p = SystemParams::exponential(1.1, 1.0, 0.5, 1.0)?;
/// let (report, recovery) = recover::analyze_cached(Hosts::paper(), &p, &cache);
/// assert!(report?.short_response.is_finite());
/// assert_eq!(recovery.attempts, 1); // well-conditioned: no escalation
/// assert!(!recovery.degraded);
/// # Ok(())
/// # }
/// ```
pub fn analyze_cached(
    hosts: Hosts,
    params: &SystemParams,
    cache: &SolveCache,
) -> (Result<CsCqReport, AnalysisError>, Recovery) {
    analyze_cached_in(hosts, params, cache, &mut Workspace::new(), None)
}

/// [`analyze_cached`] solving out of a caller-owned scratch
/// [`Workspace`] (see [`cs_cq_km::analyze_cached_in`]), optionally under
/// a time budget. Every rung of the fit ladder reuses the same workspace;
/// results are bit-identical to the plain variant.
///
/// With `deadline: Some`, the ladder is steered by the [`Deadline`] (see
/// the fit ladder's rules — expired budgets fail with
/// [`AnalysisError::DeadlineExceeded`], tight budgets jump straight to
/// the mean-only rung and flag the result `steered` + `degraded`).
/// Results that *are* produced remain pure functions of
/// `(hosts, params, fit)`: the deadline picks which rung answers, never
/// what a rung computes, so cached bit-identity survives.
pub fn analyze_cached_in(
    hosts: Hosts,
    params: &SystemParams,
    cache: &SolveCache,
    ws: &mut Workspace,
    deadline: Option<&Deadline<'_>>,
) -> (Result<CsCqReport, AnalysisError>, Recovery) {
    run_fit_ladder(deadline, |fit| {
        cs_cq_km::analyze_cached_in(hosts, params, fit, cache, ws)
    })
}

/// Escalation budget for [`shorts_distribution`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TruncationBudget {
    /// Multiplicative growth per attempt (clamped to at least 2).
    pub growth: usize,
    /// Hard cap on `n_max`; the ladder never exceeds it.
    pub n_max_cap: usize,
}

impl Default for TruncationBudget {
    /// Quadruple per attempt up to 65,536 levels — from the default
    /// starting depths this is a handful of attempts, and 2¹⁶ levels
    /// covers tail decay rates within `~10⁻⁴` of the frontier.
    fn default() -> Self {
        TruncationBudget {
            growth: 4,
            n_max_cap: 1 << 16,
        }
    }
}

/// [`cs_cq::shorts_distribution`] with automatic truncation-depth
/// escalation: on [`AnalysisError::Truncated`], retry with `n_max`
/// multiplied by `budget.growth`, up to `budget.n_max_cap`. The returned
/// [`Recovery`] counts the attempts; `degraded` stays `false` because a
/// deeper truncation is *more* exact, not less.
///
/// # Examples
///
/// ```
/// use cyclesteal_core::{recover, SystemParams};
///
/// # fn main() -> Result<(), cyclesteal_core::AnalysisError> {
/// let p = SystemParams::exponential(0.9, 1.0, 0.5, 1.0)?;
/// let (dist, rec) = recover::shorts_distribution(&p, 200, Default::default());
/// assert!(dist?.iter().sum::<f64>() > 0.999);
/// assert_eq!(rec.attempts, 1);
/// # Ok(())
/// # }
/// ```
pub fn shorts_distribution(
    params: &SystemParams,
    n_max: usize,
    budget: TruncationBudget,
) -> (Result<Vec<f64>, AnalysisError>, Recovery) {
    let growth = budget.growth.max(2);
    let mut n = n_max.max(1).min(budget.n_max_cap);
    let mut attempts = 0;
    loop {
        attempts += 1;
        let recovery = Recovery {
            attempts,
            degraded: false,
            fit: BusyPeriodFit::ThreeMoment,
            steered: false,
        };
        match cs_cq::shorts_distribution(params, n) {
            Ok(dist) => return (Ok(dist), recovery),
            Err(AnalysisError::Truncated { .. }) if n < budget.n_max_cap => {
                n = n.saturating_mul(growth).min(budget.n_max_cap);
            }
            Err(e) => return (Err(e), recovery),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_point_needs_no_escalation_and_matches_direct() {
        let cache = SolveCache::new();
        let p = SystemParams::exponential(1.1, 1.0, 0.5, 1.0).unwrap();
        let (res, rec) = analyze_cached(Hosts::paper(), &p, &cache);
        let ladder = res.unwrap();
        assert_eq!(
            rec,
            Recovery {
                attempts: 1,
                degraded: false,
                fit: BusyPeriodFit::ThreeMoment,
                steered: false,
            }
        );
        let direct = cs_cq::analyze_cached(&p, BusyPeriodFit::ThreeMoment, &cache).unwrap();
        assert_eq!(
            ladder.short_response.to_bits(),
            direct.short_response.to_bits(),
            "the ladder's first rung must be exactly the primary method"
        );
    }

    #[test]
    fn unstable_point_fails_fast_without_escalating() {
        let cache = SolveCache::new();
        // rho_s = 1.8 > 2 - rho_l = 1.5: genuinely unstable for CS-CQ.
        let p = SystemParams::exponential(1.8, 1.0, 0.5, 1.0).unwrap();
        let (res, rec) = analyze_cached(Hosts::paper(), &p, &cache);
        assert!(matches!(res, Err(AnalysisError::Unstable { .. })));
        assert_eq!(rec.attempts, 1, "instability is not retryable");
        assert!(!rec.degraded);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn injected_no_convergence_walks_every_rung() {
        use cyclesteal_xtest::fault;

        let cache = SolveCache::new();
        let p = SystemParams::exponential(1.1, 1.0, 0.5, 1.0).unwrap();
        let armed = fault::arm(fault::FaultPlan::new(21, 1.0, &["qbd.solve"]));
        let _scope = fault::Scope::enter("recover-unit");
        let (res, rec) = analyze_cached(Hosts::paper(), &p, &cache);
        // Every rung's QBD solve is injected to fail, so the ladder must
        // exhaust all three fit orders and surface the chain error.
        assert!(matches!(
            res,
            Err(AnalysisError::Chain(
                cyclesteal_markov::MarkovError::FallbackExhausted { .. }
            ))
        ));
        assert_eq!(rec.attempts, 3);
        assert!(rec.degraded);
        assert_eq!(rec.fit, BusyPeriodFit::MeanOnly);
        drop(armed);
        let (res, rec) = analyze_cached(Hosts::paper(), &p, &cache);
        assert!(res.is_ok(), "disarmed: clean analysis");
        assert_eq!(rec.attempts, 1);
    }

    /// Regression for the frontier behaviour: this point previously
    /// (PR 2) *errored* with `Truncated` at `n_max = 30` and required the
    /// caller to guess a larger depth; the ladder now recovers on its own
    /// with the escalation recorded in `attempts`.
    #[test]
    fn frontier_point_recovers_via_depth_escalation() {
        let p = SystemParams::exponential(1.45, 1.0, 0.5, 1.0).unwrap();
        assert!(matches!(
            cs_cq::shorts_distribution(&p, 30),
            Err(AnalysisError::Truncated { .. })
        ));
        let (res, rec) = shorts_distribution(&p, 30, TruncationBudget::default());
        let dist = res.unwrap();
        assert!(rec.attempts > 1, "recovery must be recorded: {rec:?}");
        assert!(!rec.degraded);
        let mass: f64 = dist.iter().sum();
        assert!(mass > 1.0 - 2e-6, "escalated depth covers the tail: {mass}");
    }

    mod deadline {
        use super::*;
        use cyclesteal_dist::match3::MatchQuality;
        use cyclesteal_markov::MarkovError;
        use cyclesteal_xtest::clock::StepClock;

        /// A syntactically valid report whose `short_response` tags which
        /// mocked rung produced it.
        fn report_tagged(tag: f64) -> CsCqReport {
            CsCqReport {
                short_response: tag,
                long_response: 1.0,
                mean_shorts_in_system: 1.0,
                p_region1: 0.25,
                p_region2: 0.25,
                p_region5: 0.25,
                setup_probability: 0.5,
                bl_match: MatchQuality::ExactThree,
                bn_match: MatchQuality::ExactThree,
                total_mass: 1.0,
            }
        }

        fn retryable() -> AnalysisError {
            AnalysisError::Chain(MarkovError::NoConvergence {
                what: "mock",
                iterations: 1,
                residual: 1.0,
            })
        }

        #[test]
        fn expired_on_arrival_times_out_at_the_first_stage() {
            let clock = StepClock::new(0, 0);
            let f = clock.as_fn();
            let deadline = Deadline::start(&f, 0);
            let (res, rec) = run_fit_ladder(Some(&deadline), |_| {
                panic!("an expired budget must not start work")
            });
            assert!(matches!(
                res,
                Err(AnalysisError::DeadlineExceeded {
                    stage: "three_moment",
                    budget_ns: 0,
                })
            ));
            assert_eq!(rec.attempts, 0);
            assert!(!rec.steered);
        }

        #[test]
        fn ample_budget_serves_the_primary_rung() {
            let clock = StepClock::new(0, 0);
            let f = clock.as_fn();
            let deadline = Deadline::start(&f, 1_000);
            let (res, rec) = run_fit_ladder(Some(&deadline), |fit| {
                clock.advance(10);
                assert_eq!(fit, BusyPeriodFit::ThreeMoment);
                Ok(report_tagged(3.0))
            });
            assert_eq!(res.unwrap().short_response, 3.0);
            assert_eq!(rec.attempts, 1);
            assert!(!rec.degraded);
            assert!(!rec.steered);
        }

        #[test]
        fn tight_budget_steers_straight_to_mean_only() {
            // Budget 100: the three-moment attempt fails after costing 60.
            // Remaining 40 < 60 (the best estimate of the next rung's
            // cost), so the ladder must skip two-moment entirely.
            let clock = StepClock::new(0, 0);
            let f = clock.as_fn();
            let deadline = Deadline::start(&f, 100);
            let mut tried = Vec::new();
            let (res, rec) = run_fit_ladder(Some(&deadline), |fit| {
                tried.push(fit);
                match fit {
                    BusyPeriodFit::ThreeMoment => {
                        clock.advance(60);
                        Err(retryable())
                    }
                    BusyPeriodFit::MeanOnly => {
                        clock.advance(10);
                        Ok(report_tagged(1.0))
                    }
                    BusyPeriodFit::TwoMoment => panic!("steering must skip this rung"),
                }
            });
            assert_eq!(
                tried,
                vec![BusyPeriodFit::ThreeMoment, BusyPeriodFit::MeanOnly]
            );
            assert_eq!(res.unwrap().short_response, 1.0);
            assert!(rec.steered);
            assert!(rec.degraded);
            assert_eq!(rec.attempts, 2);
            assert_eq!(rec.fit, BusyPeriodFit::MeanOnly);
        }

        #[test]
        fn comfortable_budget_walks_every_rung_in_order() {
            // Budget 1000, each failed attempt costs 60: after the
            // three-moment failure 940 >= 60 remains, so the ladder walks
            // through two-moment normally (no steering).
            let clock = StepClock::new(0, 0);
            let f = clock.as_fn();
            let deadline = Deadline::start(&f, 1_000);
            let mut tried = Vec::new();
            let (res, rec) = run_fit_ladder(Some(&deadline), |fit| {
                tried.push(fit);
                clock.advance(60);
                if fit == BusyPeriodFit::MeanOnly {
                    Ok(report_tagged(1.0))
                } else {
                    Err(retryable())
                }
            });
            assert_eq!(tried, FIT_LADDER.to_vec());
            assert!(res.is_ok());
            assert!(!rec.steered, "nothing was skipped, only escalated");
            assert!(rec.degraded);
            assert_eq!(rec.attempts, 3);
        }

        #[test]
        fn budget_exhausted_before_mean_only_times_out_at_that_stage() {
            // The steered jump lands on mean-only with zero budget left:
            // even the cheapest rung cannot start.
            let clock = StepClock::new(0, 0);
            let f = clock.as_fn();
            let deadline = Deadline::start(&f, 100);
            let (res, rec) = run_fit_ladder(Some(&deadline), |fit| {
                assert_eq!(fit, BusyPeriodFit::ThreeMoment);
                clock.advance(100);
                Err(retryable())
            });
            assert!(matches!(
                res,
                Err(AnalysisError::DeadlineExceeded {
                    stage: "mean_only",
                    budget_ns: 100,
                })
            ));
            assert!(rec.steered);
            assert_eq!(rec.attempts, 1);
        }

        #[test]
        fn late_success_is_still_served() {
            // The only attempt blows through the whole budget but
            // succeeds: deadlines never discard computed answers.
            let clock = StepClock::new(0, 0);
            let f = clock.as_fn();
            let deadline = Deadline::start(&f, 50);
            let (res, rec) = run_fit_ladder(Some(&deadline), |_| {
                clock.advance(500);
                Ok(report_tagged(3.0))
            });
            assert_eq!(res.unwrap().short_response, 3.0);
            assert_eq!(rec.attempts, 1);
            assert!(!rec.degraded);
        }

        #[test]
        fn non_retryable_failure_ignores_the_remaining_budget() {
            let clock = StepClock::new(0, 0);
            let f = clock.as_fn();
            let deadline = Deadline::start(&f, 1_000);
            let (res, rec) = run_fit_ladder(Some(&deadline), |_| {
                Err(AnalysisError::Unstable {
                    policy: "CS-CQ",
                    rho_s: 1.9,
                    rho_l: 0.5,
                    rho_s_max: 1.5,
                })
            });
            assert!(matches!(res, Err(AnalysisError::Unstable { .. })));
            assert_eq!(rec.attempts, 1, "instability is terminal");
            assert!(!rec.steered);
        }

        #[test]
        fn end_to_end_deadline_analysis_is_bit_identical_to_unbudgeted() {
            let cache = SolveCache::new();
            let p = SystemParams::exponential(1.1, 1.0, 0.5, 1.0).unwrap();
            let clock = StepClock::new(0, 0);
            let f = clock.as_fn();
            let deadline = Deadline::start(&f, u64::MAX);
            let mut ws = Workspace::new();
            let (res, rec) =
                analyze_cached_in(Hosts::paper(), &p, &cache, &mut ws, Some(&deadline));
            let budgeted = res.unwrap();
            let direct = cs_cq::analyze_cached(&p, BusyPeriodFit::ThreeMoment, &cache).unwrap();
            assert_eq!(
                budgeted.short_response.to_bits(),
                direct.short_response.to_bits(),
                "the deadline picks rungs, never changes what a rung computes"
            );
            assert_eq!(rec.attempts, 1);
            assert!(!rec.steered);
        }
    }

    #[test]
    fn depth_escalation_respects_the_cap() {
        let p = SystemParams::exponential(1.45, 1.0, 0.5, 1.0).unwrap();
        let tight = TruncationBudget {
            growth: 2,
            n_max_cap: 60,
        };
        let (res, rec) = shorts_distribution(&p, 30, tight);
        assert!(
            matches!(res, Err(AnalysisError::Truncated { n_max: 60, .. })),
            "cap reached: the final error reports the deepest attempt"
        );
        assert_eq!(rec.attempts, 2);
    }
}
