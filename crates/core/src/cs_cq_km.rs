//! CS-CQ for a **fleet**: `k` short hosts plus `m` stealing (long) hosts
//! under one central queue — the many-server generalization of the paper's
//! 2-host chain, and the only CS-CQ chain builder in the crate
//! (`crate::cs_cq` is a thin facade over the `k = m = 1` instance).
//!
//! # The model
//!
//! Long jobs split uniformly at random over `m` *long slots* (one per
//! stealing host), so each slot sees an independent Poisson stream of rate
//! `λ_L / m` and its long dynamics collapse into per-slot busy periods
//! exactly as in the 2-host chain: `B_L` (entered when a long arrives at an
//! empty slot while a server is idle) and `B_{N+1}` (entered when the long
//! had to wait for a server), both three-moment-matched into Coxian
//! transitions. Servers are renamable and work-conserving: any of the
//! `k + m` servers may serve shorts or run a slot's busy period.
//!
//! # The chain
//!
//! * **Level** — number of short jobs in system (tracked exactly).
//! * **Phase** — the *multiset* of per-slot states over the `m` slots,
//!   times the phase of the short-arrival MAP (one phase for Poisson).
//!   Each slot is in one of `2 + k1 + k2` states: `F` (empty), a `B_L`
//!   Coxian stage, a `B_{N+1}` stage, or `R5` (a long waits for a server).
//!   Slot multisets are enumerated as **non-decreasing slot-state tuples
//!   in lexicographic order**, and the MAP phase is the **innermost**
//!   factor (index `multiset · ka + a`). At `m = 1` this is exactly the
//!   paper's phase order `[W, BL…, BN…, R5] ⊗ MAP`, so the `(1, 1)` chain
//!   is the paper's Figure-2 chain bit for bit; the enumeration order is
//!   part of the public contract (see DESIGN §11).
//! * **Boundary** — levels `0 .. k + m − 1`, each restricted to the phases
//!   reachable there: with `r` slots in `R5` and `b` slots busy on longs,
//!   all `k + m − b` short-capable servers are busy whenever a long waits,
//!   so a phase is valid at level `n` iff `r = 0` or `n ≥ (k + m − b)`.
//!
//! Work conservation fixes the instantaneous transitions:
//!
//! * a short completion while a long waits hands the freed server to the
//!   oldest waiting slot (`R5 → B_{N+1}` stage `j` w.p. `β_j`);
//! * a draining busy period while a long waits likewise rescues the oldest
//!   waiting slot (impossible at `(1, 1)`, where `b ≥ 1` and `r ≥ 1`
//!   cannot coexist);
//! * a long arriving at an empty slot starts `B_L` iff a server is idle
//!   (`n < k + f + r` with `f` free slots), else the slot enters `R5`.
//!
//! `m = 0` drops the long class entirely: the chain degenerates to the
//! M/M/`k` birth–death of the shorts (`long_response = 0`).
//!
//! # Outputs
//!
//! [`CsCqReport`]: shorts via `E[N_S]` and Little's law; longs as a
//! per-slot M/G/1 with arrival rate `λ_L / m` and an `Exp((k + m) μ_S)`
//! setup paid with the chain's conditional probability that an arriving
//! long finds its slot free but every server busy (PASTA — long arrivals
//! stay Poisson whatever the short-arrival MAP).
//!
//! MAP short arrivals on a fleet are internal: the only public MAP
//! analysis is `cs_cq::analyze_map` at `(1, 1)`, and fleet MAP chains are
//! not validated against the simulator. A MAP never travels with a cache
//! (see `Arrivals`), so a cached chain is a function of its report key.

use std::borrow::Cow;
use std::ops::Range;

use cyclesteal_dist::match3::{self, MatchQuality};
use cyclesteal_dist::{busy, DistError, Map, Moments3, Ph};
use cyclesteal_linalg::{Matrix, Workspace};
use cyclesteal_markov::{Qbd, QbdSolution};
use cyclesteal_mg1::mg1;

use crate::cache::{quantize, ReportKey, SolveCache};
use crate::cs_cq::{BusyPeriodFit, CsCqReport};
use crate::{stability, AnalysisError, SystemParams};

/// Fleet shape: `k` short hosts and `m` stealing (long) hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Hosts {
    k: usize,
    m: usize,
}

impl Hosts {
    /// Creates a fleet shape.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::Param`] if `k == 0` (the model needs at least one
    /// short host) or `k + m > 32` (a guard against accidental
    /// combinatorial blow-ups — the phase space grows as
    /// `C(m + k1 + k2 + 1, m)`).
    pub fn new(k: usize, m: usize) -> Result<Self, AnalysisError> {
        if k == 0 {
            return Err(AnalysisError::Param(DistError::Inconsistent {
                reason: "fleet needs at least one short host (k >= 1)",
            }));
        }
        if k + m > 32 {
            return Err(AnalysisError::Param(DistError::Inconsistent {
                reason: "fleet too large (k + m must be <= 32)",
            }));
        }
        Ok(Hosts { k, m })
    }

    /// The paper's 2-host system: one short host, one stealing host.
    pub fn paper() -> Self {
        Hosts { k: 1, m: 1 }
    }

    /// Number of short hosts.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of stealing (long) hosts.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Phases of this fleet's chain, its boundary levels plus one
    /// repeating level, when both busy-period fits have `order` stages
    /// (2 for the paper's Coxian-2 fits). A closed form over how many
    /// slots are free, waiting or busy, so a shape can be priced without
    /// building its chain.
    pub fn chain_phases(&self, order: usize) -> usize {
        let (k, m) = (self.k, self.m);
        let (mut boundary, mut repeating) = (0, 0);
        for free in 0..=m {
            for waiting in 0..=m - free {
                let busy = m - free - waiting;
                // Multisets of `busy` slots over the 2·order busy stages.
                let ways = choose((busy + 2 * order).saturating_sub(1), busy);
                // A phase with a waiting long exists only at boundary
                // levels n ≥ k + free + waiting (see `KmLayout::new`).
                boundary += ways * if waiting == 0 { k + m } else { busy };
                repeating += ways;
            }
        }
        boundary + repeating
    }
}

/// Analyzes the `(k, m)` fleet with the paper's three-moment busy-period
/// transitions.
///
/// # Errors
///
/// [`AnalysisError::Unstable`] outside the fleet stability region
/// (`ρ_L < m`, `ρ_S < (k + m) − ρ_L`); [`AnalysisError::Chain`] if the QBD
/// solver fails.
///
/// # Examples
///
/// ```
/// use cyclesteal_core::cs_cq_km::{analyze, Hosts};
/// use cyclesteal_core::SystemParams;
///
/// # fn main() -> Result<(), cyclesteal_core::AnalysisError> {
/// // rho_s = 2.5 needs more than two hosts; a (2, 1) fleet carries it.
/// let p = SystemParams::exponential(2.5, 1.0, 0.3, 1.0)?;
/// let r = analyze(Hosts::new(2, 1)?, &p)?;
/// assert!(r.short_response.is_finite());
/// # Ok(())
/// # }
/// ```
pub fn analyze(hosts: Hosts, params: &SystemParams) -> Result<CsCqReport, AnalysisError> {
    analyze_with(hosts, params, BusyPeriodFit::ThreeMoment)
}

/// Analyzes the fleet with a chosen busy-period moment-matching order.
///
/// # Errors
///
/// As for [`analyze`].
pub fn analyze_with(
    hosts: Hosts,
    params: &SystemParams,
    fit: BusyPeriodFit,
) -> Result<CsCqReport, AnalysisError> {
    let poisson = Map::poisson(params.lambda_s())?;
    let arrivals = Arrivals::Map(&poisson);
    analyze_inner(hosts, params, fit, arrivals, &mut Workspace::new())
}

/// [`analyze_with`] through a [`SolveCache`] (parameters snapped onto the
/// quantization grid; fits and whole reports memoized).
/// The report key carries `(k, m)` verbatim — host counts are integers and
/// are never quantized, so scenarios differing only in fleet shape cannot
/// collide.
///
/// # Errors
///
/// As for [`analyze`]. Errors are never cached.
pub fn analyze_cached(
    hosts: Hosts,
    params: &SystemParams,
    fit: BusyPeriodFit,
    cache: &SolveCache,
) -> Result<CsCqReport, AnalysisError> {
    analyze_cached_in(hosts, params, fit, cache, &mut Workspace::new())
}

/// [`analyze_cached`] solving out of a caller-owned scratch [`Workspace`].
///
/// # Errors
///
/// As for [`analyze`].
pub fn analyze_cached_in(
    hosts: Hosts,
    params: &SystemParams,
    fit: BusyPeriodFit,
    cache: &SolveCache,
    ws: &mut Workspace,
) -> Result<CsCqReport, AnalysisError> {
    let snapped = snap_params(params);
    let key = report_key(hosts, &snapped, fit);
    cache.report(key, || {
        analyze_inner(hosts, &snapped, fit, Arrivals::PoissonCached(cache), ws)
    })
}

/// The [`crate::cache::ReportKey`] under which [`analyze_cached`] memoizes
/// (and the persistence layer stores) this `(k, m)` workload. Parameters
/// are snapped here; host counts are carried verbatim.
pub fn report_key(hosts: Hosts, params: &SystemParams, fit: BusyPeriodFit) -> ReportKey {
    let snapped = snap_params(params);
    (
        [
            snapped.lambda_s().to_bits(),
            snapped.mu_s().to_bits(),
            snapped.lambda_l().to_bits(),
            snapped.long_moments().mean().to_bits(),
            snapped.long_moments().m2().to_bits(),
            snapped.long_moments().m3().to_bits(),
        ],
        fit.tag(),
        (hosts.k as u32, hosts.m as u32),
    )
}

/// Snaps every workload parameter onto the cache quantization grid; keeps
/// the original parameters if the snapped triple happens to fall outside
/// the feasible set (only possible exactly on a feasibility boundary).
fn snap_params(params: &SystemParams) -> SystemParams {
    let long = params.long_moments();
    Moments3::new(
        quantize(long.mean()),
        quantize(long.m2()),
        quantize(long.m3()),
    )
    .map_err(AnalysisError::from)
    .and_then(|m| {
        SystemParams::new(
            quantize(params.lambda_s()),
            quantize(params.mu_s()),
            quantize(params.lambda_l()),
            m,
        )
    })
    .unwrap_or(*params)
}

/// The stationary distribution `P(N_S = n)`, `n = 0 ..= n_max`, of the
/// fleet with Poisson arrivals and three-moment fits — the body of
/// [`crate::cs_cq::shorts_distribution`], which documents the contract.
/// Boundary level `n` holds `n` shorts; repeating level `j` holds
/// `k + m + j`.
pub(crate) fn shorts_distribution(
    hosts: Hosts,
    params: &SystemParams,
    n_max: usize,
) -> Result<Vec<f64>, AnalysisError> {
    check_stable(hosts, params)?;
    let poisson = Map::poisson(params.lambda_s())?;
    let fit = BusyPeriodFit::ThreeMoment;
    let (plan, qbd) = plan_and_build(hosts, params, fit, Arrivals::Map(&poisson))?;
    let sol = qbd.solve()?;
    let layout = &plan.layout;

    let levels = hosts.k + hosts.m;
    let mut dist: Vec<f64> = (0..levels.min(n_max + 1))
        .map(|n| sol.boundary()[layout.level_range(n)].iter().sum())
        .collect();
    if n_max >= levels {
        dist.extend(sol.level_masses(n_max + 1 - levels));
    }
    // Refuse to return a silently truncated distribution: the emitted mass
    // must account for everything but a negligible tail (relative to the
    // chain's own total mass, which is 1 up to solver roundoff).
    let emitted: f64 = dist.iter().sum();
    let tail = (sol.total_mass() - emitted).max(0.0);
    const TAIL_TOL: f64 = 1e-6;
    if tail > TAIL_TOL {
        return Err(AnalysisError::Truncated {
            n_max,
            tail_mass: tail,
            tolerance: TAIL_TOL,
        });
    }
    Ok(dist)
}

/// Builds the fleet QBD exactly as [`analyze_with`] constructs it,
/// **without solving** — so benchmarks and diagnostics can isolate the
/// QBD *solve* from the model *construction*.
///
/// # Errors
///
/// As for [`analyze`], minus the solver errors.
pub fn build_qbd_model(
    hosts: Hosts,
    params: &SystemParams,
    fit: BusyPeriodFit,
) -> Result<Qbd, AnalysisError> {
    let poisson = Map::poisson(params.lambda_s())?;
    build_model(hosts, params, fit, Arrivals::Map(&poisson))
}

/// Plans the fleet chain exactly as [`analyze_cached_in`] would on a
/// report miss — parameters snapped, fits served through the cache —
/// **without building it**, and returns the plan with its [`report_key`].
/// [`PlannedChain::build`] then assembles the blocks bit for bit as the
/// cached analysis path does, and the report
/// [`SolveCache::seed_qbd_solution`] reads off a solution is the one
/// evaluation would compute, filed under the key evaluation looks it up
/// by. Nothing about the chain itself is cached. The benchmark harness in
/// `perfbench/` and tests are its remaining callers; the presolve files
/// its questions through [`analyze_cached_in`] itself.
///
/// # Errors
///
/// [`AnalysisError::Unstable`] outside the fleet stability region (judged
/// on the snapped loads); otherwise as for [`build_qbd_model`], minus the
/// errors only block assembly can raise, which [`PlannedChain::build`]
/// returns.
pub fn plan_qbd_cached(
    hosts: Hosts,
    params: &SystemParams,
    fit: BusyPeriodFit,
    cache: &SolveCache,
) -> Result<PlannedChain, AnalysisError> {
    let snapped = snap_params(params);
    check_stable(hosts, &snapped)?;
    let arrivals = Map::poisson(snapped.lambda_s())?;
    let plan = Plan::new(hosts, &snapped, fit, Some(cache), arrivals.dim())?;
    Ok(PlannedChain {
        key: report_key(hosts, &snapped, fit),
        plan,
        arrivals,
    })
}

/// A chain planned for one question and not yet built, with the
/// [`ReportKey`] it answers: what [`plan_qbd_cached`] returns, and what
/// [`SolveCache::seed_qbd_solution`] finishes into that question's
/// report. It holds the busy-period fits and the phase layout;
/// [`PlannedChain::build`] assembles the blocks. Only
/// [`plan_qbd_cached`] makes one, so the key is always the key the cached
/// analysis looks the report up by.
#[derive(Debug, Clone)]
pub struct PlannedChain {
    key: ReportKey,
    plan: Plan,
    /// The Poisson short arrivals at the snapped `λ_S`.
    arrivals: Map,
}

impl PlannedChain {
    /// The question this chain answers.
    pub fn key(&self) -> ReportKey {
        self.key
    }

    /// Assembles the chain's generator blocks: the chain
    /// [`analyze_cached_in`] builds for this question, bit for bit.
    ///
    /// # Errors
    ///
    /// As for [`build_qbd_model`].
    pub fn build(&self) -> Result<Qbd, AnalysisError> {
        self.plan.build(&self.arrivals)
    }

    /// Builds the chain, solves it out of `ws` and drops it: the blocks
    /// live for this call only. The benchmark harness in `perfbench/`
    /// calls it.
    ///
    /// # Errors
    ///
    /// As for [`PlannedChain::build`], then the solver's errors.
    pub fn solve_in(&self, ws: &mut Workspace) -> Result<QbdSolution, AnalysisError> {
        Ok(self.build()?.solve_in(ws)?)
    }

    /// The question's report, read off `sol`, a solution of this chain.
    pub(crate) fn report(&self, sol: &QbdSolution) -> Result<CsCqReport, AnalysisError> {
        assemble_report(&self.plan, sol)
    }
}

/// Moments of a slot's `B_L`: the M/G/1 busy period of the slot's own
/// Poisson(`λ_L / m`) long stream.
///
/// # Errors
///
/// [`AnalysisError::Param`] if the slot load `ρ_L / m ≥ 1` or `m == 0`.
pub fn bl_moments(hosts: Hosts, params: &SystemParams) -> Result<Moments3, AnalysisError> {
    if hosts.m == 0 {
        return Err(AnalysisError::Param(DistError::Inconsistent {
            reason: "a fleet without stealing hosts has no long busy periods",
        }));
    }
    Ok(busy::mg1_busy(
        params.lambda_l() / hosts.m as f64,
        params.long_moments(),
    )?)
}

/// Moments of a slot's `B_{N+1}`: the busy period started by the longs
/// accumulated while waiting `I ~ Exp((k + m) μ_S)` for a short completion
/// (all `k + m` servers busy with shorts).
///
/// # Errors
///
/// As for [`bl_moments`].
pub fn bn_moments(hosts: Hosts, params: &SystemParams) -> Result<Moments3, AnalysisError> {
    if hosts.m == 0 {
        return Err(AnalysisError::Param(DistError::Inconsistent {
            reason: "a fleet without stealing hosts has no long busy periods",
        }));
    }
    Ok(busy::bn1(
        params.lambda_l() / hosts.m as f64,
        params.long_moments(),
        (hosts.k + hosts.m) as f64 * params.mu_s(),
    )?)
}

/// Long-job mean response time of a slot: an M/G/1 with arrival rate
/// `λ_L / m` whose busy periods start after a setup `K = Exp((k + m) μ_S)`
/// with probability `p_setup` (else `K = 0`). At `(1, 1)`, `λ_L / 1.0`
/// and `(1 + 1) as f64 · μ_S` are bitwise the paper's `λ_L` and `2μ_S`.
pub(crate) fn long_response_with_setup(
    hosts: Hosts,
    params: &SystemParams,
    p_setup: f64,
) -> Result<f64, AnalysisError> {
    let theta = (hosts.k + hosts.m) as f64 * params.mu_s();
    let k1 = p_setup / theta;
    let k2 = 2.0 * p_setup / (theta * theta);
    Ok(mg1::mean_response_with_setup(
        params.lambda_l() / hosts.m as f64,
        params.long_moments(),
        k1,
        k2,
    )?)
}

/// [`AnalysisError::Unstable`] outside the fleet stability region.
fn check_stable(hosts: Hosts, params: &SystemParams) -> Result<(), AnalysisError> {
    let (rho_s, rho_l) = (params.rho_s(), params.rho_l());
    if stability::is_stable_km(hosts.k, hosts.m, rho_s, rho_l) {
        return Ok(());
    }
    let rho_s_max = if hosts.m == 0 {
        hosts.k as f64
    } else {
        stability::max_rho_s_km(hosts.k, hosts.m, rho_l)
    };
    Err(AnalysisError::Unstable {
        policy: "CS-CQ",
        rho_s,
        rho_l,
        rho_s_max,
    })
}

type SlotFits = ((Ph, MatchQuality), (Ph, MatchQuality));

/// Fits both per-slot busy periods, or `None` for `m = 0` (no long class).
fn fit_slot_busy_periods(
    hosts: Hosts,
    params: &SystemParams,
    fit: BusyPeriodFit,
    cache: Option<&SolveCache>,
) -> Result<Option<SlotFits>, AnalysisError> {
    if hosts.m == 0 {
        return Ok(None);
    }
    let bl = fit_busy_period_cached(bl_moments(hosts, params)?, fit, cache)?;
    let bn = fit_busy_period_cached(bn_moments(hosts, params)?, fit, cache)?;
    Ok(Some((bl, bn)))
}

/// The fitted `(B_L, B_{N+1})` phase-type pair the builder consumes.
fn slot_phs(fits: &Option<SlotFits>) -> Option<(&Ph, &Ph)> {
    fits.as_ref().map(|((bl, _), (bn, _))| (bl, bn))
}

fn fit_busy_period_cached(
    m: Moments3,
    fit: BusyPeriodFit,
    cache: Option<&SolveCache>,
) -> Result<(Ph, MatchQuality), AnalysisError> {
    match cache {
        Some(c) => c.fit(m, fit.tag(), || fit_busy_period(m, fit)),
        None => fit_busy_period(m, fit),
    }
}

fn fit_busy_period(m: Moments3, fit: BusyPeriodFit) -> Result<(Ph, MatchQuality), AnalysisError> {
    match fit {
        BusyPeriodFit::MeanOnly => Ok((Ph::exponential(1.0 / m.mean())?, MatchQuality::MeanOnly)),
        BusyPeriodFit::TwoMoment => {
            // Re-derive a feasible triple with the right mean and scv but a
            // conventional third moment, then match it exactly.
            let doctored = Moments3::from_mean_scv_balanced(m.mean(), m.scv().max(1e-9))?;
            let f = match3::fit_ph(doctored)?;
            Ok((f.ph, MatchQuality::ExactTwo))
        }
        BusyPeriodFit::ThreeMoment => {
            let f = match3::fit_ph(m)?;
            Ok((f.ph, f.quality))
        }
    }
}

/// A chain's short arrivals and whether its sub-solves are cached: the
/// cache comes only with Poisson arrivals at the parameters' `λ_S`.
pub(crate) enum Arrivals<'a> {
    /// Poisson arrivals (built inside); fits cached.
    PoissonCached(&'a SolveCache),
    /// This MAP, nothing cached.
    Map(&'a Map),
}

impl<'a> Arrivals<'a> {
    /// The cache, if any, and the arrival process.
    fn split(
        self,
        params: &SystemParams,
    ) -> Result<(Option<&'a SolveCache>, Cow<'a, Map>), AnalysisError> {
        let poisson = || Map::poisson(params.lambda_s());
        Ok(match self {
            Arrivals::PoissonCached(c) => (Some(c), Cow::Owned(poisson()?)),
            Arrivals::Map(map) => (None, Cow::Borrowed(map)),
        })
    }
}

/// Fits the busy periods and assembles the chain, unsolved.
pub(crate) fn build_model(
    hosts: Hosts,
    params: &SystemParams,
    fit: BusyPeriodFit,
    arrivals: Arrivals,
) -> Result<Qbd, AnalysisError> {
    plan_and_build(hosts, params, fit, arrivals).map(|(_, qbd)| qbd)
}

/// The analysis behind every public entry point: build, solve, report.
pub(crate) fn analyze_inner(
    hosts: Hosts,
    params: &SystemParams,
    fit: BusyPeriodFit,
    arrivals: Arrivals,
    ws: &mut Workspace,
) -> Result<CsCqReport, AnalysisError> {
    check_stable(hosts, params)?;
    let (plan, qbd) = plan_and_build(hosts, params, fit, arrivals)?;
    let sol = qbd.solve_in(ws)?;
    assemble_report(&plan, &sol)
}

/// Plans the chain for `arrivals` and builds it.
fn plan_and_build(
    hosts: Hosts,
    params: &SystemParams,
    fit: BusyPeriodFit,
    arrivals: Arrivals,
) -> Result<(Plan, Qbd), AnalysisError> {
    let (cache, map) = arrivals.split(params)?;
    let plan = Plan::new(hosts, params, fit, cache, map.dim())?;
    let qbd = plan.build(&map)?;
    Ok((plan, qbd))
}

/// A fleet chain planned and not yet built: the busy-period fits and the
/// layout that sizes the generator blocks and indexes the stationary
/// vector, with the parameters and hosts they were made for. A report is
/// read off a solution by the plan alone, so the blocks
/// [`Plan::build`] assembles need live only for their solve.
#[derive(Debug, Clone)]
struct Plan {
    hosts: Hosts,
    params: SystemParams,
    layout: KmLayout,
    /// The `(B_L, B_{N+1})` fits with their qualities; `None` at `m = 0`.
    fits: Option<SlotFits>,
}

impl Plan {
    /// Fits the busy periods and lays out the phases of a chain whose
    /// short arrivals have `ka` phases.
    fn new(
        hosts: Hosts,
        params: &SystemParams,
        fit: BusyPeriodFit,
        cache: Option<&SolveCache>,
        ka: usize,
    ) -> Result<Self, AnalysisError> {
        let fits = fit_slot_busy_periods(hosts, params, fit, cache)?;
        let layout = KmLayout::new(hosts, slot_phs(&fits), ka);
        Ok(Plan {
            hosts,
            params: *params,
            layout,
            fits,
        })
    }

    /// Assembles the generator blocks for `arrivals`, a MAP with the
    /// plan's `ka` phases.
    fn build(&self, arrivals: &Map) -> Result<Qbd, AnalysisError> {
        debug_assert_eq!(arrivals.dim(), self.layout.ka);
        build_with_layout(&self.layout, &self.params, slot_phs(&self.fits), arrivals)
    }

    /// Qualities of the `(B_L, B_{N+1})` fits.
    fn quality(&self) -> (MatchQuality, MatchQuality) {
        match &self.fits {
            Some(((_, blq), (_, bnq))) => (*blq, *bnq),
            // m = 0: no busy periods exist; report the trivial quality.
            None => (MatchQuality::MeanOnly, MatchQuality::MeanOnly),
        }
    }
}

/// The one report-assembly body: reads the report of `plan`'s chain off
/// `sol`, a solution of it. Every analysis runs it once per report it
/// computes, the cached one (which the presolve calls) and the uncached
/// one alike.
fn assemble_report(plan: &Plan, sol: &QbdSolution) -> Result<CsCqReport, AnalysisError> {
    cyclesteal_obs::span!("core.cs_cq.analyze");
    cyclesteal_obs::counter!("core.cs_cq.analyze");
    let Plan {
        hosts,
        params,
        layout,
        ..
    } = plan;
    let (bl_match, bn_match) = plan.quality();
    // E[N_S]: boundary level n holds n shorts; repeating level j holds
    // (k + m) + j. At (1, 1) this is the paper's expression
    // `level1_mass + 2·repeating_mass + expected_level_index`.
    let (k, m, ka) = (hosts.k, hosts.m, layout.ka);
    let mut mean_shorts = 0.0;
    for n in 1..(k + m) {
        let mass: f64 = sol.boundary()[layout.level_range(n)].iter().sum();
        mean_shorts += n as f64 * mass;
    }
    mean_shorts += (k + m) as f64 * sol.repeating_mass();
    mean_shorts += sol.expected_level_index();
    let short_response = mean_shorts / params.lambda_s();

    // Region probabilities, slot-averaged (PASTA over the uniformly chosen
    // slot of an arriving long): region 1 = slot free and a server idle,
    // region 2 = slot free but every server busy, region 5 = a long waits
    // at the slot. Per arrival phase, boundary first and then the
    // repeating aggregate: at (1, 1) this accumulates term for term in the
    // paper chain's order.
    let mut p_region1 = 0.0;
    let mut p_region2 = 0.0;
    let mut p_region5 = 0.0;
    let (setup_probability, long_response) = if m == 0 {
        (0.0, 0.0)
    } else {
        let phase_mass = sol.phase_mass();
        for a in 0..ka {
            for n in 0..(k + m) {
                for (pos, &p) in layout.level(n).iter().enumerate() {
                    let x = sol.boundary()[(layout.offsets[n] + pos) * ka + a];
                    let info = layout.info[p];
                    if info.free >= 1 {
                        let w = info.free as f64 / m as f64;
                        if n < layout.avail(p) {
                            p_region1 += w * x;
                        } else {
                            p_region2 += w * x;
                        }
                    }
                    if info.r5 >= 1 {
                        p_region5 += info.r5 as f64 / m as f64 * x;
                    }
                }
            }
            for (p, info) in layout.info.iter().enumerate() {
                let x = phase_mass[p * ka + a];
                if info.free >= 1 {
                    // No server is ever idle at repeating levels (n ≥ k + m).
                    p_region2 += info.free as f64 / m as f64 * x;
                }
                if info.r5 >= 1 {
                    p_region5 += info.r5 as f64 / m as f64 * x;
                }
            }
        }
        let p_setup = p_region2 / (p_region1 + p_region2);
        (p_setup, long_response_with_setup(*hosts, params, p_setup)?)
    };

    Ok(CsCqReport {
        short_response,
        long_response,
        mean_shorts_in_system: mean_shorts,
        p_region1,
        p_region2,
        p_region5,
        setup_probability,
        bl_match,
        bn_match,
        total_mass: sol.total_mass(),
    })
}

/// Per-phase slot-state counts.
#[derive(Debug, Clone, Copy)]
struct PhaseInfo {
    /// Slots in `F` (empty).
    free: usize,
    /// Slots running a busy period (`BL` or `BN` stage).
    busy: usize,
    /// Slots with a waiting long (`R5`).
    r5: usize,
}

/// Phase enumeration and boundary layout of the `(k, m)` chain.
///
/// Slot-state ids: `F = 0`, `BL(i) = 1 + i`, `BN(j) = 1 + k1 + j`,
/// `R5 = 1 + k1 + k2`. Slot phases are the sorted (non-decreasing)
/// slot-state tuples of length `m`, in lexicographic order; each expands
/// into `ka` chain phases, one per short-arrival MAP phase, innermost —
/// the bit-identity contract with the paper's chain at `m = 1`. Every
/// index below (`levels`, `offsets`, `bidx`) counts slot phases; chain
/// index = slot-phase index · `ka` + MAP phase. Each table is one flat
/// allocation, and the transitions between phases ([`KmLayout::replace`],
/// [`KmLayout::replace2`]) edit a copy of the tuple on the stack
/// ([`Hosts::new`] caps `m` below [`MAX_SLOTS`]).
#[derive(Debug, Clone)]
struct KmLayout {
    k: usize,
    m: usize,
    k1: usize,
    k2: usize,
    /// Phases of the short-arrival MAP (1 for Poisson).
    ka: usize,
    /// The slot tuples, `m` states each, concatenated in phase order.
    phases: Vec<u8>,
    info: Vec<PhaseInfo>,
    /// Valid phase ids per boundary level, ascending within a level;
    /// level `n`'s are `levels[offsets[n] .. offsets[n + 1]]`.
    levels: Vec<usize>,
    /// `offsets[n]` = boundary index of level `n`'s first phase;
    /// `offsets[k + m]` = total boundary dimension.
    offsets: Vec<usize>,
    /// `level_pos[n · np + p]` = position of phase `p` within level `n`
    /// (`usize::MAX` when invalid there).
    level_pos: Vec<usize>,
}

/// Slots a phase tuple can hold: [`Hosts::new`] caps `k + m` at 32.
const MAX_SLOTS: usize = 32;

impl KmLayout {
    fn new(hosts: Hosts, phs: Option<(&Ph, &Ph)>, ka: usize) -> Self {
        let (k, m) = (hosts.k, hosts.m);
        let (k1, k2) = match phs {
            Some((bl, bn)) => (bl.dim(), bn.dim()),
            None => (0, 0),
        };
        let hs = if m == 0 { 0 } else { 2 + k1 + k2 };
        let np = if m == 0 { 1 } else { choose(hs + m - 1, m) };
        let phases = enumerate_multisets(np, m, hs as u8);

        let r5_id = (1 + k1 + k2) as u8;
        let info: Vec<PhaseInfo> = (0..np)
            .map(|p| {
                let t = &phases[p * m..(p + 1) * m];
                let free = t.iter().filter(|&&s| s == 0).count();
                let r5 = t.iter().filter(|&&s| s == r5_id).count();
                PhaseInfo {
                    free,
                    r5,
                    busy: m - free - r5,
                }
            })
            .collect();

        let mut levels = Vec::with_capacity((k + m) * np);
        let mut offsets = Vec::with_capacity(k + m + 1);
        let mut level_pos = vec![usize::MAX; (k + m) * np];
        for (n, pos) in level_pos.chunks_exact_mut(np).enumerate() {
            offsets.push(levels.len());
            for (p, i) in info.iter().enumerate() {
                if i.r5 == 0 || n >= k + i.free + i.r5 {
                    pos[p] = levels.len() - offsets[n];
                    levels.push(p);
                }
            }
        }
        offsets.push(levels.len());

        KmLayout {
            k,
            m,
            k1,
            k2,
            ka,
            phases,
            info,
            levels,
            offsets,
            level_pos,
        }
    }

    /// Number of slot phases.
    fn np(&self) -> usize {
        self.info.len()
    }

    /// Valid phase ids of boundary level `n`, ascending.
    fn level(&self, n: usize) -> &[usize] {
        &self.levels[self.offsets[n]..self.offsets[n + 1]]
    }

    /// Chain indices of boundary level `n` (all its phases × MAP phases).
    fn level_range(&self, n: usize) -> Range<usize> {
        self.offsets[n] * self.ka..self.offsets[n + 1] * self.ka
    }

    /// Servers available to shorts in phase `p`: `k + m` minus the slots
    /// busy running long work.
    fn avail(&self, p: usize) -> usize {
        self.k + self.m - self.info[p].busy
    }

    /// Slot-state id of `B_L` stage `i`.
    fn st_bl(&self, i: usize) -> u8 {
        (1 + i) as u8
    }

    /// Slot-state id of `B_{N+1}` stage `j`.
    fn st_bn(&self, j: usize) -> u8 {
        (1 + self.k1 + j) as u8
    }

    /// Slot-state id of `R5`.
    fn st_r5(&self) -> u8 {
        (1 + self.k1 + self.k2) as u8
    }

    /// Phase `p`'s sorted slot tuple.
    fn phase(&self, p: usize) -> &[u8] {
        &self.phases[p * self.m..(p + 1) * self.m]
    }

    /// The phase whose tuple is `t` (sorted), by binary search.
    fn index_of(&self, t: &[u8]) -> usize {
        let (mut lo, mut hi) = (0, self.np());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.phase(mid).cmp(t) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return mid,
            }
        }
        panic!("every sorted slot tuple is enumerated")
    }

    /// Phase reached from `p` by moving one slot `from → to`.
    fn replace(&self, p: usize, from: u8, to: u8) -> usize {
        let mut buf = [0u8; MAX_SLOTS];
        let t = &mut buf[..self.m];
        t.copy_from_slice(self.phase(p));
        let pos = t
            .iter()
            .position(|&s| s == from)
            .expect("slot state present in phase");
        t[pos] = to;
        t.sort_unstable();
        self.index_of(t)
    }

    /// Phase reached from `p` by moving two slots at once.
    fn replace2(&self, p: usize, from1: u8, to1: u8, from2: u8, to2: u8) -> usize {
        let mut buf = [0u8; MAX_SLOTS];
        let t = &mut buf[..self.m];
        t.copy_from_slice(self.phase(p));
        let pos1 = t
            .iter()
            .position(|&s| s == from1)
            .expect("first slot state present");
        t[pos1] = to1;
        let pos2 = t
            .iter()
            .enumerate()
            .position(|(i, &s)| s == from2 && i != pos1)
            .expect("second slot state present");
        t[pos2] = to2;
        t.sort_unstable();
        self.index_of(t)
    }

    /// Boundary column of phase `p` at level `n` (must be valid there).
    fn bidx(&self, n: usize, p: usize) -> usize {
        let pos = self.level_pos[n * self.np() + p];
        debug_assert_ne!(pos, usize::MAX, "phase invalid at boundary level");
        self.offsets[n] + pos
    }

    /// Distinct `(state, count)` runs of phase `p`'s sorted tuple.
    fn runs(&self, p: usize) -> impl Iterator<Item = (u8, usize)> + '_ {
        self.phase(p)
            .chunk_by(|a, b| a == b)
            .map(|r| (r[0], r.len()))
    }
}

/// The `count` non-decreasing tuples of length `m` over `0..hs`, in lex
/// order, concatenated: the next tuple bumps the last state that can grow
/// and copies it into every slot after it.
fn enumerate_multisets(count: usize, m: usize, hs: u8) -> Vec<u8> {
    let mut out = Vec::with_capacity(count * m);
    out.resize(m, 0);
    while out.len() < count * m {
        let last = out.len() - m;
        let i = out[last..]
            .iter()
            .rposition(|&s| s + 1 < hs)
            .expect("a tuple before the last can grow");
        let bumped = out[last + i] + 1;
        out.extend_from_within(last..last + i);
        out.resize(last + 2 * m, bumped);
    }
    out
}

/// The binomial coefficient `C(n, r)`.
fn choose(n: usize, r: usize) -> usize {
    (0..r).fold(1, |acc, i| acc * (n - i) / (i + 1))
}

/// Fills `diag` so that the row sums of the concatenated blocks vanish:
/// the off-diagonal entries of `local`'s row in ascending column, then
/// each other block's row sum.
fn fix_diagonal(local: &mut Matrix, others: &[&Matrix]) {
    for i in 0..local.rows() {
        let row = local.row_mut(i);
        let mut out: f64 = 0.0;
        for &v in row[..i].iter().chain(&row[i + 1..]) {
            out += v;
        }
        for b in others {
            out += b.row(i).iter().sum::<f64>();
        }
        row[i] = -out;
    }
}

/// Assembles the six generator blocks. Every rate expression is written so
/// that at `(k, m) = (1, 1)` it evaluates **bitwise** to the paper chain's
/// expression (`1.0 · x ≡ x`, `λ_L · (1/1) ≡ λ_L`,
/// `2 as f64 · μ_S ≡ 2.0 · μ_S`), and every entry is written once, so the
/// `(1, 1)` chain shares its [`Qbd::signature`] with the 2-host reference
/// builder kept in the `km_reduction` test suite.
fn build_with_layout(
    layout: &KmLayout,
    params: &SystemParams,
    phs: Option<(&Ph, &Ph)>,
    arrivals: &Map,
) -> Result<Qbd, AnalysisError> {
    if let Some((bl, bn)) = phs {
        for ph in [bl, bn] {
            let mass: f64 = ph.initial().iter().sum();
            if (mass - 1.0).abs() > 1e-9 {
                return Err(AnalysisError::Param(DistError::Inconsistent {
                    reason: "busy-period phase-type has an atom at zero",
                }));
            }
        }
    }

    let (k, m, ka) = (layout.k, layout.m, layout.ka);
    let (mu_s, lambda_l) = (params.mu_s(), params.lambda_l());
    let (d0, d1) = (arrivals.d0(), arrivals.d1());
    let np = layout.np();
    let nb = layout.offsets[k + m];
    let bn_initial = phs.map(|(_, bn)| bn.initial());

    // A slot-phase transition `row → col` that leaves the arrival phase
    // alone: `rate · I_ka`.
    let put = |mat: &mut Matrix, row: usize, col: usize, rate: f64| {
        for a in 0..ka {
            mat[(row * ka + a, col * ka + a)] += rate;
        }
    };
    // A short arrival `row → col`: the MAP's `D1` block (the arrival
    // phase may change).
    let arrive = |mat: &mut Matrix, row: usize, col: usize| {
        for a in 0..ka {
            for b in 0..ka {
                mat[(row * ka + a, col * ka + b)] += d1[(a, b)];
            }
        }
    };
    // The MAP's arrival-free phase changes (`D0` off-diagonals) within
    // slot phase `row`.
    let map_internal = |mat: &mut Matrix, row: usize| {
        for a in 0..ka {
            for b in 0..ka {
                if a != b {
                    mat[(row * ka + a, row * ka + b)] += d0[(a, b)];
                }
            }
        }
    };

    // Down-transitions from phase `p` with `s` shorts in service: the
    // completion frees a server, which rescues the oldest waiting slot
    // when one exists (`R5 → BN(j)` w.p. β_j). Emits at
    // `(row, col_of(target phase))`.
    let emit_completion =
        |mat: &mut Matrix, row: usize, p: usize, s: usize, col_of: &dyn Fn(usize) -> usize| {
            if s == 0 {
                return;
            }
            if layout.info[p].r5 == 0 {
                put(mat, row, col_of(p), s as f64 * mu_s);
            } else {
                let init = bn_initial.expect("R5 slots require a long class");
                for (j, &beta) in init.iter().enumerate().take(layout.k2) {
                    let q = layout.replace(p, layout.st_r5(), layout.st_bn(j));
                    put(mat, row, col_of(q), s as f64 * mu_s * beta);
                }
            }
        };

    // Within-level transitions of phase `p` at a level with `idle` servers
    // available (boundary levels can have idle servers; repeating cannot),
    // plus the arrival MAP's own phase changes.
    let emit_local =
        |mat: &mut Matrix, row: usize, p: usize, idle: bool, col_of: &dyn Fn(usize) -> usize| {
            let info = layout.info[p];
            if info.free >= 1 {
                let (bl, _) = phs.expect("free slots require a long class");
                if idle {
                    // A long starts B_L on an idle server (region 1 → 3).
                    for j in 0..layout.k1 {
                        let q = layout.replace(p, 0, layout.st_bl(j));
                        let rate = lambda_l * (info.free as f64 / m as f64) * bl.initial()[j];
                        put(mat, row, col_of(q), rate);
                    }
                } else {
                    // Every server is busy: the long waits (region 2 → 5).
                    let q = layout.replace(p, 0, layout.st_r5());
                    let rate = lambda_l * (info.free as f64 / m as f64);
                    put(mat, row, col_of(q), rate);
                }
            }
            // Busy-period Coxian dynamics, per distinct occupied stage.
            for (state, count) in layout.runs(p) {
                let (ph, i) = if state == 0 || state == layout.st_r5() {
                    continue;
                } else if (state as usize) <= layout.k1 {
                    let (bl, _) = phs.expect("BL slots require a long class");
                    (bl, state as usize - 1)
                } else {
                    let (_, bn) = phs.expect("BN slots require a long class");
                    (bn, state as usize - 1 - layout.k1)
                };
                for j in 0..ph.dim() {
                    if i != j {
                        let to = if (state as usize) <= layout.k1 {
                            layout.st_bl(j)
                        } else {
                            layout.st_bn(j)
                        };
                        let q = layout.replace(p, state, to);
                        let rate = count as f64 * ph.subgenerator()[(i, j)];
                        put(mat, row, col_of(q), rate);
                    }
                }
                // Busy period ends: the slot empties; the freed server
                // rescues the oldest waiting slot when one exists
                // (impossible at (1, 1), where b and r cannot coexist).
                if info.r5 == 0 {
                    let q = layout.replace(p, state, 0);
                    put(mat, row, col_of(q), count as f64 * ph.exit_rates()[i]);
                } else {
                    let init = bn_initial.expect("R5 slots require a long class");
                    for (j, &beta) in init.iter().enumerate().take(layout.k2) {
                        let q = layout.replace2(p, state, 0, layout.st_r5(), layout.st_bn(j));
                        let rate = count as f64 * ph.exit_rates()[i] * beta;
                        put(mat, row, col_of(q), rate);
                    }
                }
            }
            map_internal(mat, row);
        };

    // ---- Repeating blocks (levels n ≥ k + m: no server is ever idle) ----
    let mut a0 = Matrix::zeros(np * ka, np * ka);
    for p in 0..np {
        arrive(&mut a0, p, p);
    }

    let mut a2 = Matrix::zeros(np * ka, np * ka);
    for p in 0..np {
        emit_completion(&mut a2, p, p, layout.avail(p), &|q| q);
    }

    let mut a1 = Matrix::zeros(np * ka, np * ka);
    for p in 0..np {
        emit_local(&mut a1, p, p, false, &|q| q);
    }
    fix_diagonal(&mut a1, &[&a0, &a2]);

    // ---- Boundary blocks (levels 0 .. k + m − 1) ------------------------
    let mut b00 = Matrix::zeros(nb * ka, nb * ka);
    let mut b01 = Matrix::zeros(nb * ka, np * ka);
    let mut b10 = Matrix::zeros(np * ka, nb * ka);

    for n in 0..(k + m) {
        for &p in layout.level(n) {
            let row = layout.bidx(n, p);
            // Short arrival: up one level (into the repeating portion from
            // the last boundary level).
            if n + 1 < k + m {
                arrive(&mut b00, row, layout.bidx(n + 1, p));
            } else {
                arrive(&mut b01, row, p);
            }
            // Short completion: down one level.
            let s = n.min(layout.avail(p));
            if n >= 1 {
                emit_completion(&mut b00, row, p, s, &|q| layout.bidx(n - 1, q));
            }
            // Long arrivals and busy-period dynamics within the level; a
            // server is idle iff fewer shorts than short-capable servers.
            emit_local(&mut b00, row, p, n < layout.avail(p), &|q| {
                layout.bidx(n, q)
            });
        }
    }
    fix_diagonal(&mut b00, &[&b01]);

    // First repeating level (n = k + m) down to the last boundary level.
    for p in 0..np {
        emit_completion(&mut b10, p, p, layout.avail(p), &|q| {
            layout.bidx(k + m - 1, q)
        });
    }

    Ok(Qbd::new(b00, b01, b10, a0, a1, a2)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclesteal_mg1::mmc;

    fn exp_params(rho_s: f64, rho_l: f64) -> SystemParams {
        SystemParams::exponential(rho_s, 1.0, rho_l, 1.0).unwrap()
    }

    #[test]
    fn chain_phases_counts_the_phases_the_layout_enumerates() {
        let erlang = |k: u32| cyclesteal_dist::Erlang::new(k, 1.0).unwrap().to_ph();
        for order in 1..=3u32 {
            let ph = erlang(order);
            for (k, m) in [(1, 0), (1, 1), (2, 2), (1, 3), (3, 2), (2, 4), (5, 1)] {
                let hosts = Hosts::new(k, m).unwrap();
                let layout = KmLayout::new(hosts, Some((&ph, &ph)), 1);
                let enumerated = layout.offsets[k + m] + layout.np();
                assert_eq!(
                    hosts.chain_phases(order as usize),
                    enumerated,
                    "({k}, {m}) at order {order}"
                );
            }
        }
        // The paper's (1, 1) chain: 10 boundary and 6 repeating phases.
        assert_eq!(Hosts::paper().chain_phases(2), 16);
    }

    #[test]
    fn m_zero_reduces_to_mmk_of_the_shorts() {
        for k in [1usize, 2, 4] {
            let rho_s = 0.7 * k as f64;
            let p = exp_params(rho_s, 0.5);
            let r = analyze(Hosts::new(k, 0).unwrap(), &p).unwrap();
            let want = mmc::mean_response(k as u32, p.lambda_s(), p.mu_s()).unwrap();
            assert!(
                (r.short_response - want).abs() / want < 1e-9,
                "k = {k}: {} vs M/M/{k} {want}",
                r.short_response
            );
            assert_eq!(r.long_response, 0.0);
            assert_eq!(r.setup_probability, 0.0);
        }
    }

    #[test]
    fn fleet_chains_solve_with_unit_mass() {
        for (k, m) in [(2, 1), (1, 2), (2, 2), (3, 2)] {
            let hosts = Hosts::new(k, m).unwrap();
            let p = exp_params(0.6 * (k + m) as f64, 0.4 * m as f64);
            let r = analyze(hosts, &p).unwrap();
            assert!(
                (r.total_mass - 1.0).abs() < 1e-8,
                "({k},{m}): mass {}",
                r.total_mass
            );
            assert!(r.short_response.is_finite() && r.short_response > 0.0);
            assert!(r.long_response.is_finite() && r.long_response > 0.0);
            assert!((0.0..=1.0).contains(&r.setup_probability), "({k},{m})");
        }
    }

    #[test]
    fn fleet_stability_frontier_enforced() {
        let hosts = Hosts::new(2, 2).unwrap();
        // rho_s_max = (k + m) - rho_l = 3.5 at rho_l = 0.5.
        assert!(analyze(hosts, &exp_params(3.4, 0.5)).is_ok());
        assert!(matches!(
            analyze(hosts, &exp_params(3.6, 0.5)),
            Err(AnalysisError::Unstable { .. })
        ));
        // Long class needs rho_l < m.
        assert!(analyze(hosts, &exp_params(0.5, 1.5)).is_ok());
        assert!(analyze(hosts, &exp_params(0.5, 2.1)).is_err());
    }

    #[test]
    fn hosts_validation() {
        assert!(Hosts::new(0, 1).is_err());
        assert!(Hosts::new(1, 40).is_err());
        let h = Hosts::new(3, 2).unwrap();
        assert_eq!((h.k(), h.m()), (3, 2));
    }

    #[test]
    fn hosts_differing_scenarios_never_share_cache_entries() {
        let cache = SolveCache::new();
        let p = exp_params(1.1, 0.5);
        let fit = BusyPeriodFit::ThreeMoment;
        let a = analyze_cached(Hosts::new(1, 2).unwrap(), &p, fit, &cache).unwrap();
        let b = analyze_cached(Hosts::new(2, 1).unwrap(), &p, fit, &cache).unwrap();
        // Same workload, different fleet shape: genuinely different answers,
        // so a key collision would be observable — and the integer (k, m)
        // component makes one impossible.
        assert_ne!(
            a.short_response.to_bits(),
            b.short_response.to_bits(),
            "(1,2) and (2,1) must not collide in the report cache"
        );
        // Re-running both must hit the report layer, proving each (k, m)
        // got its own entry rather than overwriting the other's.
        let before = cache.stats();
        let a2 = analyze_cached(Hosts::new(1, 2).unwrap(), &p, fit, &cache).unwrap();
        let b2 = analyze_cached(Hosts::new(2, 1).unwrap(), &p, fit, &cache).unwrap();
        let after = cache.stats();
        assert_eq!(after.hits, before.hits + 2);
        assert_eq!(after.misses, before.misses);
        assert_eq!(a.short_response.to_bits(), a2.short_response.to_bits());
        assert_eq!(b.short_response.to_bits(), b2.short_response.to_bits());
    }

    #[test]
    fn planned_fleet_chain_signature_matches_the_cached_analysis_path() {
        // The (k, m) mirror of the 2-host seeded-solution test: the batch
        // planner's chain must carry the exact key the analysis path looks
        // up, and be the chain it would build, so a presolved report is
        // served, not recomputed.
        let cache = SolveCache::new();
        let hosts = Hosts::new(2, 2).unwrap();
        let p = exp_params(1.25, 0.5);
        let fit = BusyPeriodFit::ThreeMoment;
        let plan = plan_qbd_cached(hosts, &p, fit, &cache).unwrap();
        assert_eq!(plan.key(), report_key(hosts, &p, fit));
        let built = build_qbd_model(hosts, &p, fit).unwrap();
        assert_eq!(plan.build().unwrap().signature(), built.signature());
        assert!(!cache.has_report(&plan.key()));
        let sol = plan.build().unwrap().solve().unwrap();
        assert!(cache.seed_qbd_solution(&plan, sol));
        assert!(cache.has_report(&plan.key()));
        // Planner: 2 fit misses; seed: 1 report miss.
        let before = cache.stats();
        assert_eq!((before.hits, before.misses), (0, 3), "{before:?}");
        let via_cache = analyze_cached(hosts, &p, fit, &cache).unwrap();
        // Analysis: one hit on the seeded report.
        let after = cache.stats();
        assert_eq!((after.hits, after.misses), (1, 3), "{after:?}");
        let direct = analyze(hosts, &p).unwrap();
        assert_eq!(
            via_cache.short_response.to_bits(),
            direct.short_response.to_bits(),
            "a seeded fleet solve must not move the answer"
        );
    }

    #[test]
    fn adding_stealing_hosts_helps_the_shorts() {
        // Same absolute workload, growing m: shorts can only gain capacity.
        let p = exp_params(1.4, 0.5);
        let r1 = analyze(Hosts::new(1, 1).unwrap(), &p).unwrap();
        let r2 = analyze(Hosts::new(1, 2).unwrap(), &p).unwrap();
        let r3 = analyze(Hosts::new(1, 3).unwrap(), &p).unwrap();
        assert!(r2.short_response <= r1.short_response + 1e-9);
        assert!(r3.short_response <= r2.short_response + 1e-9);
    }
}
