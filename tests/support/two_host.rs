//! The paper's 2-host CS-CQ chain (Figure 2), built the way `core::cs_cq`
//! built it before the fleet chain of `core::cs_cq_km` became the only
//! production builder — kept, arithmetic unchanged, as the **independent
//! oracle** the reduction suites compare the production `(1, 1)` chain
//! against. It writes the phase order `[W, BL…, BN…, R5] ⊗ MAP` by hand,
//! so a slip in the fleet layout cannot hide behind shared code. Uncached
//! and unguarded (no stability or truncation checks): it is about bits.

#![allow(dead_code)]

use cyclesteal::core::cs_cq::{BusyPeriodFit, CsCqReport};
use cyclesteal::core::{AnalysisError, SystemParams};
use cyclesteal::dist::match3::{self, MatchQuality};
use cyclesteal::dist::{busy, DistError, Map, Moments3, Ph};
use cyclesteal::linalg::{Matrix, Workspace};
use cyclesteal::markov::Qbd;
use cyclesteal::mg1::mg1;

/// The QBD the paper's analysis solves for `params`, with the given fit
/// order and short-arrival MAP.
pub fn build_qbd_model(
    params: &SystemParams,
    fit: BusyPeriodFit,
    arrivals: &Map,
) -> Result<Qbd, AnalysisError> {
    let (bl_ph, _) = fit_busy_period(bl_moments(params)?, fit)?;
    let (bn_ph, _) = fit_busy_period(bn_moments(params)?, fit)?;
    let chain = ChainLayout::new(&bl_ph, &bn_ph);
    build_qbd(params, &chain, &bl_ph, &bn_ph, arrivals)
}

/// The paper's report for `params`, with the given fit order and
/// short-arrival MAP.
pub fn analyze(
    params: &SystemParams,
    fit: BusyPeriodFit,
    arrivals: &Map,
) -> Result<CsCqReport, AnalysisError> {
    let (bl_ph, bl_match) = fit_busy_period(bl_moments(params)?, fit)?;
    let (bn_ph, bn_match) = fit_busy_period(bn_moments(params)?, fit)?;
    let chain = ChainLayout::new(&bl_ph, &bn_ph);
    let qbd = build_qbd(params, &chain, &bl_ph, &bn_ph, arrivals)?;
    let sol = qbd.solve_in(&mut Workspace::new())?;

    // E[N_S]: boundary level 1 contributes one short per unit mass;
    // repeating level k corresponds to k + 2 shorts.
    let ka = arrivals.dim();
    let nl = chain.nl * ka;
    let level1_mass: f64 = sol.boundary()[nl..].iter().sum();
    let mean_shorts = level1_mass + 2.0 * sol.repeating_mass() + sol.expected_level_index();
    let short_response = mean_shorts / params.lambda_s();

    // Long jobs: M/G/1 with setup. The busy-period-starting long sees
    // region 1 (both W states of the boundary) or region 2 (the W phase of
    // any repeating level); sum over the arrival-MAP phases. Long arrivals
    // are Poisson, so PASTA applies regardless of the short-arrival MAP.
    let phase_mass = sol.phase_mass();
    let mut p_region1 = 0.0;
    let mut p_region2 = 0.0;
    let mut p_region5 = 0.0;
    for a in 0..ka {
        p_region1 += sol.boundary()[chain.bw(0) * ka + a];
        p_region1 += sol.boundary()[chain.bw(1) * ka + a];
        p_region2 += phase_mass[chain.w() * ka + a];
        p_region5 += phase_mass[chain.r5() * ka + a];
    }
    let setup_probability = p_region2 / (p_region1 + p_region2);
    let long_response = long_response_with_setup_prob(params, setup_probability)?;

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

/// `P(N_S = n)` for `n = 0 ..= n_max` with Poisson arrivals and
/// three-moment fits.
pub fn shorts_distribution(params: &SystemParams, n_max: usize) -> Result<Vec<f64>, AnalysisError> {
    let (bl_ph, _) = fit_busy_period(bl_moments(params)?, BusyPeriodFit::ThreeMoment)?;
    let (bn_ph, _) = fit_busy_period(bn_moments(params)?, BusyPeriodFit::ThreeMoment)?;
    let chain = ChainLayout::new(&bl_ph, &bn_ph);
    let arrivals = Map::poisson(params.lambda_s())?;
    let qbd = build_qbd(params, &chain, &bl_ph, &bn_ph, &arrivals)?;
    let sol = qbd.solve()?;

    let nl = chain.nl;
    let mut dist = Vec::with_capacity(n_max + 1);
    dist.push(sol.boundary()[..nl].iter().sum());
    if n_max >= 1 {
        dist.push(sol.boundary()[nl..].iter().sum());
    }
    if n_max >= 2 {
        dist.extend(sol.level_masses(n_max - 1));
    }
    Ok(dist)
}

/// Moments of `B_L`: the ordinary M/G/1 busy period of long jobs.
///
/// # Errors
///
/// [`AnalysisError::Param`] if `ρ_L ≥ 1`.
fn bl_moments(params: &SystemParams) -> Result<Moments3, AnalysisError> {
    Ok(busy::mg1_busy(params.lambda_l(), params.long_moments())?)
}

/// Moments of `B_{N+1}`: the busy period started by the work of `N+1` long
/// jobs, `N` counting long arrivals during `I ~ Exp(2μ_S)`.
///
/// # Errors
///
/// [`AnalysisError::Param`] if `ρ_L ≥ 1`.
fn bn_moments(params: &SystemParams) -> Result<Moments3, AnalysisError> {
    Ok(busy::bn1(
        params.lambda_l(),
        params.long_moments(),
        2.0 * params.mu_s(),
    )?)
}

fn long_response_with_setup_prob(
    params: &SystemParams,
    p_setup: f64,
) -> Result<f64, AnalysisError> {
    // K = I = Exp(2 mu_s) with probability p_setup, else 0.
    let theta = 2.0 * params.mu_s();
    let k1 = p_setup / theta;
    let k2 = 2.0 * p_setup / (theta * theta);
    Ok(mg1::mean_response_with_setup(
        params.lambda_l(),
        params.long_moments(),
        k1,
        k2,
    )?)
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

/// Phase indexing of the repeating levels and the boundary.
struct ChainLayout {
    /// Number of `B_L` phases.
    k1: usize,
    /// Number of `B_{N+1}` phases.
    k2: usize,
    /// Phases per boundary level (no `R5` at levels 0–1).
    nl: usize,
}

impl ChainLayout {
    fn new(bl: &Ph, bn: &Ph) -> Self {
        let (k1, k2) = (bl.dim(), bn.dim());
        ChainLayout {
            k1,
            k2,
            nl: 1 + k1 + k2,
        }
    }

    /// Repeating-phase count.
    fn m(&self) -> usize {
        2 + self.k1 + self.k2
    }

    /// Phase `W` (no longs).
    fn w(&self) -> usize {
        0
    }

    /// Phase of `B_L` stage `i`.
    fn bl(&self, i: usize) -> usize {
        1 + i
    }

    /// Phase of `B_{N+1}` stage `i`.
    fn bn(&self, i: usize) -> usize {
        1 + self.k1 + i
    }

    /// Phase `R5` (longs waiting behind two shorts).
    fn r5(&self) -> usize {
        1 + self.k1 + self.k2
    }

    /// Boundary index of the `W` state at boundary level 0 or 1.
    fn bw(&self, level: usize) -> usize {
        level * self.nl
    }

    /// Boundary index of `B_L` stage `i` at boundary level 0 or 1.
    fn bbl(&self, level: usize, i: usize) -> usize {
        level * self.nl + 1 + i
    }

    /// Boundary index of `B_{N+1}` stage `i` at boundary level 0 or 1.
    fn bbn(&self, level: usize, i: usize) -> usize {
        level * self.nl + 1 + self.k1 + i
    }
}

/// Fills `diag` so that the row sums of the concatenated blocks vanish.
fn fix_diagonal(local: &mut Matrix, others: &[&Matrix]) {
    for i in 0..local.rows() {
        let mut out: f64 = 0.0;
        for j in 0..local.cols() {
            if j != i {
                out += local[(i, j)];
            }
        }
        for b in others {
            out += b.row(i).iter().sum::<f64>();
        }
        local[(i, i)] = -out;
    }
}

/// Builds the CS-CQ QBD. The short arrival process is a MAP (`Poisson` is
/// the one-phase special case used by [`analyze`]); the full phase space is
/// the Kronecker product of the chain phases and the MAP phases. Long
/// arrivals remain Poisson — the busy-period transforms require it.
fn build_qbd(
    params: &SystemParams,
    chain: &ChainLayout,
    bl: &Ph,
    bn: &Ph,
    arrivals: &Map,
) -> Result<Qbd, AnalysisError> {
    for ph in [bl, bn] {
        let mass: f64 = ph.initial().iter().sum();
        if (mass - 1.0).abs() > 1e-9 {
            return Err(AnalysisError::Param(DistError::Inconsistent {
                reason: "busy-period phase-type has an atom at zero",
            }));
        }
    }

    let (mu_s, lambda_l) = (params.mu_s(), params.lambda_l());
    let (k1, k2) = (chain.k1, chain.k2);
    let ka = arrivals.dim();
    let m = chain.m() * ka;
    let nl = chain.nl * ka;
    let nb = 2 * nl;

    // Inserts `rate * I_ka` (a MAP-phase-preserving transition).
    let eye = |mat: &mut Matrix, from: usize, to: usize, rate: f64| {
        for a in 0..ka {
            mat[(from * ka + a, to * ka + a)] += rate;
        }
    };
    // Inserts a D1 block (short arrival; MAP phase may change).
    let arr = |mat: &mut Matrix, from: usize, to: usize| {
        for a in 0..ka {
            for b in 0..ka {
                mat[(from * ka + a, to * ka + b)] += arrivals.d1()[(a, b)];
            }
        }
    };
    // Inserts D0 off-diagonals (MAP internal moves) for the given phases.
    let map_internal = |mat: &mut Matrix, phases: &[usize]| {
        for &p in phases {
            for a in 0..ka {
                for b in 0..ka {
                    if a != b {
                        mat[(p * ka + a, p * ka + b)] += arrivals.d0()[(a, b)];
                    }
                }
            }
        }
    };

    // ---- Repeating blocks -------------------------------------------------
    let mut a0 = Matrix::zeros(m, m);
    for p in 0..chain.m() {
        arr(&mut a0, p, p);
    }

    let mut a2 = Matrix::zeros(m, m);
    eye(&mut a2, chain.w(), chain.w(), 2.0 * mu_s);
    for i in 0..k1 {
        eye(&mut a2, chain.bl(i), chain.bl(i), mu_s);
    }
    for i in 0..k2 {
        eye(&mut a2, chain.bn(i), chain.bn(i), mu_s);
    }
    // R5 exit: one of two shorts completes; the freed (renamed) host starts
    // B_{N+1} in its initial phase distribution.
    for j in 0..k2 {
        eye(
            &mut a2,
            chain.r5(),
            chain.bn(j),
            2.0 * mu_s * bn.initial()[j],
        );
    }

    let mut a1 = Matrix::zeros(m, m);
    eye(&mut a1, chain.w(), chain.r5(), lambda_l); // long arrival in region 2
    for (ph, base) in [(bl, 0), (bn, k1)] {
        for i in 0..ph.dim() {
            let from = 1 + base + i;
            for j in 0..ph.dim() {
                if i != j {
                    eye(&mut a1, from, 1 + base + j, ph.subgenerator()[(i, j)]);
                }
            }
            eye(&mut a1, from, chain.w(), ph.exit_rates()[i]);
        }
    }
    map_internal(&mut a1, &(0..chain.m()).collect::<Vec<_>>());
    fix_diagonal(&mut a1, &[&a0, &a2]);

    // ---- Boundary blocks --------------------------------------------------
    // Levels 0 and 1 (zero or one short); no R5 phase there.
    let mut b00 = Matrix::zeros(nb, nb);
    let mut b01 = Matrix::zeros(nb, m);
    let mut b10 = Matrix::zeros(m, nb);

    // Level 0, W (empty system): short arrival to level 1; a long arrival
    // starts B_L (region 1 -> region 3).
    arr(&mut b00, chain.bw(0), chain.bw(1));
    for j in 0..k1 {
        eye(
            &mut b00,
            chain.bw(0),
            chain.bbl(0, j),
            lambda_l * bl.initial()[j],
        );
    }
    // Level 0, busy-period phases: short arrivals move up; PH dynamics.
    for i in 0..k1 {
        arr(&mut b00, chain.bbl(0, i), chain.bbl(1, i));
        for j in 0..k1 {
            if i != j {
                eye(
                    &mut b00,
                    chain.bbl(0, i),
                    chain.bbl(0, j),
                    bl.subgenerator()[(i, j)],
                );
            }
        }
        eye(&mut b00, chain.bbl(0, i), chain.bw(0), bl.exit_rates()[i]);
    }
    for i in 0..k2 {
        arr(&mut b00, chain.bbn(0, i), chain.bbn(1, i));
        for j in 0..k2 {
            if i != j {
                eye(
                    &mut b00,
                    chain.bbn(0, i),
                    chain.bbn(0, j),
                    bn.subgenerator()[(i, j)],
                );
            }
        }
        eye(&mut b00, chain.bbn(0, i), chain.bw(0), bn.exit_rates()[i]);
    }

    // Level 1, W (one short in service, no longs).
    arr(&mut b01, chain.bw(1), chain.w()); // to level 2 (two shorts)
    eye(&mut b00, chain.bw(1), chain.bw(0), mu_s); // the short completes
    for j in 0..k1 {
        eye(
            &mut b00,
            chain.bw(1),
            chain.bbl(1, j),
            lambda_l * bl.initial()[j],
        );
    }
    // Level 1, busy-period phases: one short in service at the other host.
    for i in 0..k1 {
        arr(&mut b01, chain.bbl(1, i), chain.bl(i));
        eye(&mut b00, chain.bbl(1, i), chain.bbl(0, i), mu_s);
        for j in 0..k1 {
            if i != j {
                eye(
                    &mut b00,
                    chain.bbl(1, i),
                    chain.bbl(1, j),
                    bl.subgenerator()[(i, j)],
                );
            }
        }
        eye(&mut b00, chain.bbl(1, i), chain.bw(1), bl.exit_rates()[i]);
    }
    for i in 0..k2 {
        arr(&mut b01, chain.bbn(1, i), chain.bn(i));
        eye(&mut b00, chain.bbn(1, i), chain.bbn(0, i), mu_s);
        for j in 0..k2 {
            if i != j {
                eye(
                    &mut b00,
                    chain.bbn(1, i),
                    chain.bbn(1, j),
                    bn.subgenerator()[(i, j)],
                );
            }
        }
        eye(&mut b00, chain.bbn(1, i), chain.bw(1), bn.exit_rates()[i]);
    }
    // MAP internal transitions within every boundary state.
    map_internal(&mut b00, &(0..2 * chain.nl).collect::<Vec<_>>());

    // Level 2 -> level 1 (B10): mirrors A2 but lands in boundary indices.
    eye(&mut b10, chain.w(), chain.bw(1), 2.0 * mu_s);
    for i in 0..k1 {
        eye(&mut b10, chain.bl(i), chain.bbl(1, i), mu_s);
    }
    for i in 0..k2 {
        eye(&mut b10, chain.bn(i), chain.bbn(1, i), mu_s);
    }
    for j in 0..k2 {
        eye(
            &mut b10,
            chain.r5(),
            chain.bbn(1, j),
            2.0 * mu_s * bn.initial()[j],
        );
    }

    fix_diagonal(&mut b00, &[&b01]);

    Ok(Qbd::new(b00, b01, b10, a0, a1, a2)?)
}
