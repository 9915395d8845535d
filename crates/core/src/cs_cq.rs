//! Cycle stealing with a central queue (CS-CQ) — the paper's headline
//! analysis, via **busy-period transitions**.
//!
//! # The chain (paper Figure 2)
//!
//! The number of short jobs in system is tracked exactly and forms the
//! *level* of a quasi-birth-death process; the long-job dynamics are
//! collapsed into phases:
//!
//! | phase | paper region | meaning | shorts served at |
//! |---|---|---|---|
//! | `W`  | 1 / 2 | no longs; every host free for shorts | `μ_S` (one short) or `2μ_S` (two+) |
//! | `BL*` | 3 | a long busy period `B_L` runs on one host | `μ_S` |
//! | `BN*` | 4 | a busy period `B_{N+1}` runs on one host | `μ_S` |
//! | `R5` | 5 | long(s) wait while two shorts occupy both hosts | exit at `2μ_S` |
//!
//! `B_L` is the M/G/1 busy period of long jobs started by one long (entered
//! when a long arrives in region 1, i.e. at most one short present). `R5` is
//! entered when a long arrives in region 2 (two+ shorts in service); after
//! `I ~ Exp(2μ_S)` one short completes and the freed host — renamed the long
//! host — starts `B_{N+1}`, a busy period started by the `N+1` longs that
//! accumulated (`N` arrivals during `I`). Both busy periods are summarized
//! by their first three moments (`cyclesteal_dist::busy`) and re-expanded
//! into Coxian/phase-type transitions (`cyclesteal_dist::match3`), exactly
//! the paper's approximation; a lower-order ablation is available through
//! [`BusyPeriodFit`].
//!
//! # Outputs
//!
//! * **Shorts**: `E[N_S]` from the QBD stationary vector, then Little's law.
//! * **Longs**: an M/G/1 queue with setup time `K`: the first long of a busy
//!   period arrives in region 1 (`K = 0`) or region 2
//!   (`K = Exp(2μ_S)`, the wait for the first of two exponential shorts),
//!   with probabilities read off the chain (PASTA). The waiting formula is
//!   Takagi's (`cyclesteal_mg1::mg1::mean_wait_with_setup`).
//!
//! The paper's further approximations are inherited and documented in
//! DESIGN.md: three-moment busy periods, and independence between the `R5`
//! sojourn and the subsequent `B_{N+1}`.
//!
//! # Implementation
//!
//! This chain is the `(k, m) = (1, 1)` instance of [`crate::cs_cq_km`],
//! which builds and solves it in the phase order of the table above (MAP
//! phase innermost); every function here is a facade at [`Hosts::paper`].

use cyclesteal_dist::match3::MatchQuality;
use cyclesteal_dist::{DistError, Map, Moments3};
use cyclesteal_linalg::Workspace;
use cyclesteal_markov::Qbd;

use crate::cache::{PlannedChain, SolveCache};
use crate::cs_cq_km::{self, Arrivals, Hosts};
use crate::stability::{self, Policy};
use crate::{AnalysisError, PolicyMeans, SystemParams};

/// How many moments of each busy period the chain models — the paper uses
/// three ("this approximation can be made as precise as desired by using
/// more moments"); lower orders exist for the accuracy ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BusyPeriodFit {
    /// Busy periods replaced by exponentials with the correct mean.
    MeanOnly,
    /// First two moments matched.
    TwoMoment,
    /// First three moments matched (the paper's method).
    #[default]
    ThreeMoment,
}

impl BusyPeriodFit {
    /// Stable discriminant for cache keys.
    pub(crate) fn tag(self) -> u8 {
        match self {
            BusyPeriodFit::MeanOnly => 1,
            BusyPeriodFit::TwoMoment => 2,
            BusyPeriodFit::ThreeMoment => 3,
        }
    }

    /// Stable snake_case name, used in failure/timeout stage labels and
    /// service responses.
    pub fn name(self) -> &'static str {
        match self {
            BusyPeriodFit::MeanOnly => "mean_only",
            BusyPeriodFit::TwoMoment => "two_moment",
            BusyPeriodFit::ThreeMoment => "three_moment",
        }
    }
}

/// Full CS-CQ analysis output.
#[derive(Debug, Clone)]
pub struct CsCqReport {
    /// Mean response time of short jobs (Little's law on `E[N_S]`).
    pub short_response: f64,
    /// Mean response time of long jobs (M/G/1 with setup).
    pub long_response: f64,
    /// Mean number of short jobs in system.
    pub mean_shorts_in_system: f64,
    /// Stationary probability of region 1 (no longs, at most one short).
    pub p_region1: f64,
    /// Stationary probability of region 2 (no longs, two or more shorts).
    pub p_region2: f64,
    /// Stationary probability of region 5 (longs waiting behind two shorts
    /// in service — longs in system but none in service).
    pub p_region5: f64,
    /// `P(region 2 | region 1 ∪ 2)` — the probability that the first long
    /// of a busy period pays the `Exp(2μ_S)` setup.
    pub setup_probability: f64,
    /// Quality of the `B_L` moment match.
    pub bl_match: MatchQuality,
    /// Quality of the `B_{N+1}` moment match.
    pub bn_match: MatchQuality,
    /// Total stationary mass (diagnostic; ≈ 1).
    pub total_mass: f64,
}

impl From<CsCqReport> for PolicyMeans {
    fn from(r: CsCqReport) -> Self {
        PolicyMeans {
            short_response: r.short_response,
            long_response: r.long_response,
        }
    }
}

/// Analyzes CS-CQ with the paper's three-moment busy-period transitions.
///
/// # Errors
///
/// [`AnalysisError::Unstable`] outside Theorem 1's region
/// (`ρ_L < 1`, `ρ_S < 2 − ρ_L`); [`AnalysisError::Chain`] if the QBD solver
/// fails (not expected for stable inputs).
///
/// # Examples
///
/// ```
/// use cyclesteal_core::{cs_cq, SystemParams};
///
/// # fn main() -> Result<(), cyclesteal_core::AnalysisError> {
/// // rho_s = 1.4 > 1: only the central queue keeps shorts stable here.
/// let p = SystemParams::exponential(1.4, 1.0, 0.3, 1.0)?;
/// let r = cs_cq::analyze(&p)?;
/// assert!(r.short_response.is_finite());
/// assert!(r.setup_probability > 0.0 && r.setup_probability < 1.0);
/// # Ok(())
/// # }
/// ```
pub fn analyze(params: &SystemParams) -> Result<CsCqReport, AnalysisError> {
    cs_cq_km::analyze(Hosts::paper(), params)
}

/// Analyzes CS-CQ with a chosen busy-period moment-matching order
/// (the accuracy ablation of the paper's Section 2.2 footnote).
///
/// # Errors
///
/// As for [`analyze`].
pub fn analyze_with(
    params: &SystemParams,
    fit: BusyPeriodFit,
) -> Result<CsCqReport, AnalysisError> {
    cs_cq_km::analyze_with(Hosts::paper(), params, fit)
}

/// Analyzes CS-CQ through a [`SolveCache`]: the workload is snapped onto
/// the cache's quantization grid and every expensive sub-solve (busy-period
/// Coxian fits, the QBD `R`-matrix iteration, the whole report) is
/// memoized. Because all cached values are pure functions of their
/// quantized keys, results are bit-identical regardless of which thread or
/// sweep order populated the cache — see the `crate::cache` module docs.
///
/// # Errors
///
/// As for [`analyze`]. Errors are never cached (they are cheap to
/// rediscover and equally deterministic).
///
/// # Examples
///
/// ```
/// use cyclesteal_core::cache::SolveCache;
/// use cyclesteal_core::{cs_cq, SystemParams};
///
/// # fn main() -> Result<(), cyclesteal_core::AnalysisError> {
/// let cache = SolveCache::new();
/// let p = SystemParams::exponential(1.1, 1.0, 0.5, 1.0)?;
/// let first = cs_cq::analyze_cached(&p, Default::default(), &cache)?;
/// let again = cs_cq::analyze_cached(&p, Default::default(), &cache)?;
/// assert_eq!(first.short_response.to_bits(), again.short_response.to_bits());
/// assert!(cache.stats().hits >= 1);
/// # Ok(())
/// # }
/// ```
pub fn analyze_cached(
    params: &SystemParams,
    fit: BusyPeriodFit,
    cache: &SolveCache,
) -> Result<CsCqReport, AnalysisError> {
    cs_cq_km::analyze_cached(Hosts::paper(), params, fit, cache)
}

/// [`analyze_cached`] solving out of a caller-owned scratch [`Workspace`].
///
/// The workspace holds the QBD solver's intermediate buffers; reusing one
/// per worker thread across a sweep removes nearly all per-point heap
/// traffic. Buffers are canonically reset on checkout, so the result is
/// bit-identical to [`analyze_cached`] no matter what the workspace held
/// before — prior solves, other chain sizes, or nothing at all.
///
/// # Errors
///
/// As for [`analyze`].
pub fn analyze_cached_in(
    params: &SystemParams,
    fit: BusyPeriodFit,
    cache: &SolveCache,
    ws: &mut Workspace,
) -> Result<CsCqReport, AnalysisError> {
    cs_cq_km::analyze_cached_in(Hosts::paper(), params, fit, cache, ws)
}

/// The [`crate::cache::ReportKey`] under which [`analyze_cached`] memoizes
/// (and the persistence layer stores) this workload: the *snapped*
/// parameter bits, the fit tag, and `(1, 1)` host counts. Snapping is
/// applied here, so callers may pass un-quantized parameters and still get
/// the exact key the cached analysis uses.
pub fn report_key(params: &SystemParams, fit: BusyPeriodFit) -> crate::cache::ReportKey {
    cs_cq_km::report_key(Hosts::paper(), params, fit)
}

/// Analyzes CS-CQ with **MAP short arrivals** — the generalization the
/// paper points to ("We assume a Poisson arrival process …, which can be
/// generalized to a MAP \[11\]"). The QBD's phase space becomes the product
/// of the chain phases and the MAP phases; long arrivals stay Poisson (the
/// busy-period transforms require it).
///
/// The MAP's rate must equal the `λ_S` recorded in `params` (which the
/// stability check and Little's law use).
///
/// # Errors
///
/// [`AnalysisError::Param`] if the MAP rate disagrees with
/// `params.lambda_s()`; otherwise as for [`analyze`].
///
/// # Examples
///
/// ```
/// use cyclesteal_core::{cs_cq, SystemParams};
/// use cyclesteal_dist::Map;
///
/// # fn main() -> Result<(), cyclesteal_core::AnalysisError> {
/// let p = SystemParams::exponential(0.9, 1.0, 0.5, 1.0)?;
/// let bursty = Map::bursty(0.9, 9.0, 10.0)?;
/// let burst = cs_cq::analyze_map(&p, &bursty)?;
/// let smooth = cs_cq::analyze(&p)?;
/// assert!(burst.short_response > smooth.short_response);
/// # Ok(())
/// # }
/// ```
pub fn analyze_map(params: &SystemParams, arrivals: &Map) -> Result<CsCqReport, AnalysisError> {
    check_map_rate(params, arrivals)?;
    let (hosts, fit) = (Hosts::paper(), BusyPeriodFit::ThreeMoment);
    let ws = &mut Workspace::new();
    cs_cq_km::analyze_inner(hosts, params, fit, Arrivals::Map(arrivals), ws)
}

fn check_map_rate(params: &SystemParams, arrivals: &Map) -> Result<(), AnalysisError> {
    if (arrivals.rate() - params.lambda_s()).abs() > 1e-9 * params.lambda_s() {
        return Err(AnalysisError::Param(DistError::Inconsistent {
            reason: "MAP arrival rate must equal params.lambda_s()",
        }));
    }
    Ok(())
}

/// Long-job mean response time in the *saturated-shorts* regime: when
/// `ρ_S ≥ 2 − ρ_L` the short queue grows without bound, every long busy
/// period starts from region 2, and the setup is `Exp(2μ_S)` with
/// probability one. Used for the Figure 6 long-job panels beyond the
/// short-class stability asymptote.
///
/// # Errors
///
/// [`AnalysisError::Param`] if `ρ_L ≥ 1`.
pub fn long_response_saturated(params: &SystemParams) -> Result<f64, AnalysisError> {
    cs_cq_km::long_response_with_setup(Hosts::paper(), params, 1.0)
}

/// Long-job mean response time, choosing the full chain solution when the
/// shorts are stable and the saturated limit otherwise.
///
/// # Errors
///
/// [`AnalysisError::Param`] if `ρ_L ≥ 1`.
pub fn long_response_auto(params: &SystemParams) -> Result<f64, AnalysisError> {
    if stability::is_stable(Policy::CsCq, params.rho_s(), params.rho_l()) {
        match analyze(params) {
            Ok(r) => return Ok(r.long_response),
            // Within roundoff of the stability frontier the chain solver can
            // still report instability or fail to converge; the saturated
            // limit is the correct continuous extension there.
            Err(AnalysisError::Unstable { .. }) | Err(AnalysisError::Chain(_)) => {}
            Err(e) => return Err(e),
        }
    }
    long_response_saturated(params)
}

/// The stationary distribution of the number of short jobs in system,
/// `P(N_S = n)` for `n = 0 ..= n_max`, read directly off the
/// matrix-geometric solution (level `k` of the QBD is `k + 2` shorts; the
/// boundary carries 0 and 1).
///
/// Useful for tail SLOs the mean can't answer ("how often are more than
/// ten short jobs pending?"); the returned vector undershoots 1 by exactly
/// the truncated tail `P(N_S > n_max)`, which is guaranteed below `1e-6`.
///
/// # Errors
///
/// As for [`analyze`]; additionally [`AnalysisError::Truncated`] when the
/// tail mass beyond `n_max` exceeds `1e-6` — near the stability frontier
/// (`ρ_S → 2 − ρ_L`) the level decay rate approaches one and a small
/// `n_max` would otherwise *silently* drop non-negligible probability,
/// corrupting any SLO computed from the result.
///
/// # Examples
///
/// ```
/// use cyclesteal_core::{cs_cq, SystemParams};
///
/// # fn main() -> Result<(), cyclesteal_core::AnalysisError> {
/// let p = SystemParams::exponential(0.9, 1.0, 0.5, 1.0)?;
/// let dist = cs_cq::shorts_distribution(&p, 200)?;
/// let total: f64 = dist.iter().sum();
/// assert!(total > 0.999 && total <= 1.0 + 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn shorts_distribution(params: &SystemParams, n_max: usize) -> Result<Vec<f64>, AnalysisError> {
    cs_cq_km::shorts_distribution(Hosts::paper(), params, n_max)
}

/// Builds the CS-CQ quasi-birth-death chain for `params` **without solving
/// it** — the busy-period fits, chain layout, and generator blocks exactly
/// as [`analyze_with`] constructs them (Poisson short arrivals).
///
/// This exists so benchmarks and diagnostics can isolate the QBD *solve*
/// from the model *construction*: the kernel micro-benchmark solves the
/// returned chain repeatedly through both the allocating and the
/// workspace-backed solver paths.
///
/// # Errors
///
/// As for [`analyze`], minus the solver errors (nothing is solved).
///
/// # Examples
///
/// ```
/// use cyclesteal_core::{cs_cq, SystemParams};
///
/// # fn main() -> Result<(), cyclesteal_core::AnalysisError> {
/// let p = SystemParams::exponential(1.2, 1.0, 0.5, 1.0)?;
/// let qbd = cs_cq::build_qbd_model(&p, Default::default())?;
/// assert!(qbd.solve().is_ok());
/// # Ok(())
/// # }
/// ```
pub fn build_qbd_model(params: &SystemParams, fit: BusyPeriodFit) -> Result<Qbd, AnalysisError> {
    cs_cq_km::build_qbd_model(Hosts::paper(), params, fit)
}

/// Builds the MAP-arrival CS-CQ QBD exactly as [`analyze_map`] constructs
/// it, **without solving it** — the chain the reduction suite compares,
/// bit for bit, against an independently written 2-host builder.
///
/// # Errors
///
/// As for [`analyze_map`], minus the solver errors.
pub fn build_qbd_model_map(params: &SystemParams, arrivals: &Map) -> Result<Qbd, AnalysisError> {
    check_map_rate(params, arrivals)?;
    let (hosts, fit) = (Hosts::paper(), BusyPeriodFit::ThreeMoment);
    cs_cq_km::build_model(hosts, params, fit, Arrivals::Map(arrivals))
}

/// Plans the CS-CQ QBD exactly as [`analyze_cached`] would on a report
/// miss, **without building it**, together with the report key it
/// answers — [`cs_cq_km::plan_qbd_cached`] at `(1, 1)`, which the
/// benchmark harness in `perfbench/` and tests call.
///
/// # Errors
///
/// [`AnalysisError::Unstable`] outside Theorem 1's region (judged on the
/// *snapped* loads, as the cached analysis does); otherwise as for
/// [`cs_cq_km::plan_qbd_cached`].
pub fn plan_qbd_cached(
    params: &SystemParams,
    fit: BusyPeriodFit,
    cache: &SolveCache,
) -> Result<PlannedChain, AnalysisError> {
    cs_cq_km::plan_qbd_cached(Hosts::paper(), params, fit, cache)
}

/// Moments of `B_L`: the ordinary M/G/1 busy period of long jobs.
///
/// # Errors
///
/// [`AnalysisError::Param`] if `ρ_L ≥ 1`.
pub fn bl_moments(params: &SystemParams) -> Result<Moments3, AnalysisError> {
    cs_cq_km::bl_moments(Hosts::paper(), params)
}

/// Moments of `B_{N+1}`: the busy period started by the work of `N+1` long
/// jobs, `N` counting long arrivals during `I ~ Exp(2μ_S)`.
///
/// # Errors
///
/// [`AnalysisError::Param`] if `ρ_L ≥ 1`.
pub fn bn_moments(params: &SystemParams) -> Result<Moments3, AnalysisError> {
    cs_cq_km::bn_moments(Hosts::paper(), params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclesteal_mg1::{mg1, mmc};

    fn exp_params(rho_s: f64, rho_l: f64) -> SystemParams {
        SystemParams::exponential(rho_s, 1.0, rho_l, 1.0).unwrap()
    }

    #[test]
    fn vanishing_longs_reduce_to_mm2_for_shorts() {
        // Paper Section 4 limiting case.
        let p = SystemParams::exponential(1.4, 1.0, 1e-7, 1.0).unwrap();
        let r = analyze(&p).unwrap();
        let want = mmc::mean_response(2, 1.4, 1.0).unwrap();
        assert!(
            (r.short_response - want).abs() / want < 1e-4,
            "{} vs M/M/2 {want}",
            r.short_response
        );
    }

    #[test]
    fn vanishing_shorts_reduce_to_mg1_for_longs() {
        // Paper Section 4 limiting case: lambda_s -> 0 kills the setup.
        let longs = Moments3::from_mean_scv_balanced(1.0, 8.0).unwrap();
        let p = SystemParams::from_loads(1e-7, 1.0, 0.7, longs).unwrap();
        let r = analyze(&p).unwrap();
        let want = mg1::mean_response(p.lambda_l(), longs).unwrap();
        assert!(
            (r.long_response - want).abs() / want < 1e-4,
            "{} vs M/G/1 {want}",
            r.long_response
        );
        assert!(r.setup_probability < 1e-5);
    }

    #[test]
    fn total_mass_is_one() {
        for (rho_s, rho_l) in [(0.5, 0.5), (1.2, 0.5), (1.45, 0.5), (0.9, 0.9)] {
            let r = analyze(&exp_params(rho_s, rho_l)).unwrap();
            assert!(
                (r.total_mass - 1.0).abs() < 1e-8,
                "({rho_s},{rho_l}): mass {}",
                r.total_mass
            );
        }
    }

    #[test]
    fn stability_boundary_enforced() {
        assert!(matches!(
            analyze(&exp_params(1.5, 0.5)),
            Err(AnalysisError::Unstable {
                policy: "CS-CQ",
                ..
            })
        ));
        assert!(analyze(&exp_params(1.49, 0.5)).is_ok());
        assert!(analyze(&exp_params(0.5, 1.1)).is_err());
    }

    #[test]
    fn short_response_monotone_in_rho_s() {
        let mut prev = 0.0;
        for rho_s in [0.2, 0.5, 0.8, 1.1, 1.3, 1.45] {
            let r = analyze(&exp_params(rho_s, 0.5)).unwrap();
            assert!(r.short_response > prev, "rho_s = {rho_s}");
            prev = r.short_response;
        }
    }

    #[test]
    fn paper_figure4a_anchor_shorts_at_rho_s_1() {
        // Figure 4 row 1 column (a): at rho_s = 1 (rho_l = 0.5, means 1)
        // the paper's graph reads CS-CQ at roughly 3 while Dedicated
        // diverges. Simulation of this exact point (3M jobs) gives
        // 2.586 +- 0.023; the analysis must sit within the paper's
        // reported few-percent band of that.
        let r = analyze(&exp_params(1.0, 0.5)).unwrap();
        assert!(
            (r.short_response - 2.586).abs() / 2.586 < 0.05,
            "E[T_s] = {}",
            r.short_response
        );
    }

    #[test]
    fn paper_figure4a_anchor_shorts_at_cs_id_asymptote() {
        // Figure 4 row 1 column (a): at CS-ID's stability asymptote
        // (rho_s ~ 1.28) CS-CQ stays finite — the paper's graph reads about
        // 7; simulation gives 6.03 +- 0.14. Allow the analysis a few
        // percent around simulation.
        let r = analyze(&exp_params(1.28, 0.5)).unwrap();
        assert!(
            (r.short_response - 6.03).abs() / 6.03 < 0.08,
            "E[T_s] = {}",
            r.short_response
        );
    }

    #[test]
    fn long_penalty_is_small_for_equal_means() {
        // Figure 4 row 2 column (a): at rho_s -> 1 the long penalty under
        // CS-CQ is about 10%.
        let p = exp_params(1.0, 0.5);
        let cq = analyze(&p).unwrap();
        let ded = crate::dedicated::long_response(&p).unwrap();
        let penalty = cq.long_response / ded - 1.0;
        assert!(
            penalty > 0.0 && penalty < 0.2,
            "penalty = {penalty} (cq {} vs ded {ded})",
            cq.long_response
        );
    }

    #[test]
    fn saturated_setup_bounds_the_stable_analysis() {
        let p = exp_params(1.2, 0.5);
        let stable = analyze(&p).unwrap().long_response;
        let saturated = long_response_saturated(&p).unwrap();
        assert!(stable <= saturated + 1e-12);
        // Auto picks the chain solution when stable...
        assert!((long_response_auto(&p).unwrap() - stable).abs() < 1e-12);
        // ...and the saturated limit when not.
        let p_unstable = exp_params(1.8, 0.5);
        assert!(
            (long_response_auto(&p_unstable).unwrap()
                - long_response_saturated(&p_unstable).unwrap())
            .abs()
                < 1e-12
        );
    }

    #[test]
    fn busy_period_fit_ablation_orders_sensibly() {
        let p = exp_params(1.2, 0.5);
        let three = analyze_with(&p, BusyPeriodFit::ThreeMoment).unwrap();
        let two = analyze_with(&p, BusyPeriodFit::TwoMoment).unwrap();
        let one = analyze_with(&p, BusyPeriodFit::MeanOnly).unwrap();
        // All finite; lower orders drift from the three-moment answer.
        for r in [&three, &two, &one] {
            assert!(r.short_response.is_finite());
        }
        let d2 = (two.short_response - three.short_response).abs();
        let d1 = (one.short_response - three.short_response).abs();
        assert!(d1 >= d2 * 0.5, "d1 = {d1}, d2 = {d2}");
    }

    #[test]
    fn region_probabilities_form_a_distribution_fragment() {
        let r = analyze(&exp_params(0.9, 0.5)).unwrap();
        assert!(r.p_region1 > 0.0 && r.p_region2 > 0.0);
        assert!(r.p_region1 + r.p_region2 < 1.0);
        assert!((0.0..=1.0).contains(&r.setup_probability));
    }

    #[test]
    fn shorts_distribution_consistent_with_mean() {
        let p = exp_params(0.9, 0.5);
        let r = analyze(&p).unwrap();
        let dist = shorts_distribution(&p, 400).unwrap();
        let total: f64 = dist.iter().sum();
        assert!(total > 1.0 - 1e-9 && total < 1.0 + 1e-9, "total {total}");
        let mean: f64 = dist.iter().enumerate().map(|(n, p)| n as f64 * p).sum();
        assert!(
            (mean - r.mean_shorts_in_system).abs() < 1e-6,
            "{mean} vs {}",
            r.mean_shorts_in_system
        );
        // All probabilities nonnegative, geometric-ish decay in the tail.
        assert!(dist.iter().all(|x| *x >= -1e-12));
        assert!(dist[300] < dist[100]);
    }

    #[test]
    fn shorts_distribution_mm2_limit() {
        // lambda_l -> 0: P(N = n) follows the M/M/2 birth-death solution.
        let p = SystemParams::exponential(1.0, 1.0, 1e-9, 1.0).unwrap();
        let dist = shorts_distribution(&p, 50).unwrap();
        // M/M/2 at rho = 0.5: p0 = (1-rho)/(1+rho) = 1/3, p1 = 2 rho p0,
        // p_n = p1 rho^{n-1}.
        let p0 = 1.0 / 3.0;
        assert!((dist[0] - p0).abs() < 1e-6, "{}", dist[0]);
        assert!((dist[1] - 2.0 * 0.5 * p0).abs() < 1e-6);
        assert!((dist[5] - dist[1] * 0.5f64.powi(4)).abs() < 1e-7);
    }

    #[test]
    fn shorts_distribution_errors_instead_of_truncating_near_frontier() {
        // Near the stability frontier (rho_s -> 2 - rho_l) the level decay
        // rate approaches 1 and a small n_max drops real mass; the query
        // must refuse rather than silently undershoot.
        let p = exp_params(1.45, 0.5);
        match shorts_distribution(&p, 30) {
            Err(AnalysisError::Truncated {
                n_max: 30,
                tail_mass,
                tolerance,
            }) => {
                assert!(tail_mass > tolerance, "{tail_mass} vs {tolerance}");
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
        // A generous truncation point at the same workload succeeds and
        // accounts for (almost) all the mass.
        let dist = shorts_distribution(&p, 2000).unwrap();
        let total: f64 = dist.iter().sum();
        assert!(total > 1.0 - 1e-6, "total {total}");
    }

    #[test]
    fn map_mmpp_equal_intensities_is_poisson() {
        // An MMPP whose two phases emit at the same rate is a Poisson
        // process; the product chain must give the same answer.
        let p = exp_params(0.9, 0.5);
        let mmpp = Map::mmpp2(0.3, 0.7, 0.9, 0.9).unwrap();
        let via_map = analyze_map(&p, &mmpp).unwrap();
        let base = analyze(&p).unwrap();
        assert!(
            (via_map.short_response - base.short_response).abs() < 1e-8,
            "{} vs {}",
            via_map.short_response,
            base.short_response
        );
        assert!((via_map.total_mass - 1.0).abs() < 1e-8);
    }

    #[test]
    fn map_burstiness_hurts_shorts_but_not_longs_much() {
        let p = exp_params(0.9, 0.5);
        let base = analyze(&p).unwrap();
        let bursty = Map::bursty(0.9, 9.0, 10.0).unwrap();
        let r = analyze_map(&p, &bursty).unwrap();
        assert!(r.short_response > 1.5 * base.short_response);
        // Long jobs only see the setup probability shift.
        assert!((r.long_response - base.long_response).abs() / base.long_response < 0.2);
    }

    #[test]
    fn map_rate_mismatch_rejected() {
        let p = exp_params(0.9, 0.5);
        let wrong = Map::poisson(0.5).unwrap();
        assert!(matches!(
            analyze_map(&p, &wrong),
            Err(AnalysisError::Param(_))
        ));
    }

    #[test]
    fn coxian_longs_solve_cleanly() {
        let longs = Moments3::from_mean_scv_balanced(1.0, 8.0).unwrap();
        let p = SystemParams::from_loads(1.0, 1.0, 0.5, longs).unwrap();
        let r = analyze(&p).unwrap();
        assert!(r.bl_match.is_exact());
        assert!(r.bn_match.is_exact());
        assert!((r.total_mass - 1.0).abs() < 1e-8);
    }
}
