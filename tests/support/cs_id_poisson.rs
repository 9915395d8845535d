//! The Poisson-arrival CS-ID decomposition as `core::cs_id` built it before
//! the long-host × MAP-phase chain became its only builder — kept,
//! arithmetic unchanged, as the **bit oracle** the reduction suite compares
//! the production one-phase chain against. It writes the modulating chain
//! `[I, S, S', B…, B''…]` by hand and takes the setup probability from a
//! literal 2-state `{idle, short}` chain, so a slip in the product layout
//! cannot hide behind shared code.

#![allow(dead_code)]

use cyclesteal::core::cs_id::CsIdReport;
use cyclesteal::core::stability::{self, Policy};
use cyclesteal::core::{AnalysisError, SystemParams};
use cyclesteal::dist::{busy, match3, DistError, Moments3, Ph};
use cyclesteal::linalg::Matrix;
use cyclesteal::markov::{ctmc, Qbd};
use cyclesteal::mg1::{mg1, mm1};

/// The Markov-modulated CS-ID analysis with Poisson short arrivals.
pub fn analyze(params: &SystemParams) -> Result<CsIdReport, AnalysisError> {
    theorem1(params)?;
    let longs = long_host(params)?;
    let short_response = short_host_mmpp(params)?;
    Ok(CsIdReport {
        short_response: short_response.response,
        long_response: longs.response,
        steal_probability: short_response.q_idle,
        setup_probability: longs.p_setup,
    })
}

/// The thinned-Poisson ablation baseline.
pub fn analyze_thinned_poisson(params: &SystemParams) -> Result<CsIdReport, AnalysisError> {
    theorem1(params)?;
    let (rho_s, rho_l) = (params.rho_s(), params.rho_l());
    let longs = long_host(params)?;
    let q = (1.0 - rho_l) / (1.0 + rho_s);
    let overflow = params.lambda_s() * (1.0 - q);
    let short_response =
        q * params.mean_s() + (1.0 - q) * mm1::mean_response(overflow, params.mu_s())?;
    Ok(CsIdReport {
        short_response,
        long_response: longs.response,
        steal_probability: q,
        setup_probability: longs.p_setup,
    })
}

/// Mean long-job response time, defined for any `ρ_L < 1`.
pub fn long_response(params: &SystemParams) -> Result<f64, AnalysisError> {
    Ok(long_host(params)?.response)
}

fn theorem1(params: &SystemParams) -> Result<(), AnalysisError> {
    let (rho_s, rho_l) = (params.rho_s(), params.rho_l());
    if stability::is_stable(Policy::CsId, rho_s, rho_l) {
        return Ok(());
    }
    Err(AnalysisError::Unstable {
        policy: "CS-ID",
        rho_s,
        rho_l,
        rho_s_max: stability::max_rho_s(Policy::CsId, rho_l),
    })
}

struct LongHost {
    response: f64,
    p_setup: f64,
}

fn long_host(params: &SystemParams) -> Result<LongHost, AnalysisError> {
    let (lambda_s, mu_s, lambda_l) = (params.lambda_s(), params.mu_s(), params.lambda_l());
    if params.rho_l() >= 1.0 {
        return Err(AnalysisError::Param(DistError::Inconsistent {
            reason: "long host requires rho_l < 1",
        }));
    }

    // Two-state no-long chain {idle, short}, killed at rate lambda_l,
    // entered at idle.
    let q_chain =
        Matrix::from_rows(&[&[-lambda_s, lambda_s], &[mu_s, -mu_s]]).expect("2x2 literal");
    let killed = ctmc::killed_occupancy(&q_chain, lambda_l, &[1.0, 0.0])?;
    let p_setup = killed.kill_state_probs()[1];

    // Setup K = Exp(mu_s) with probability p_setup (memoryless residual).
    let k1 = p_setup / mu_s;
    let k2 = 2.0 * p_setup / (mu_s * mu_s);
    let response = mg1::mean_response_with_setup(lambda_l, params.long_moments(), k1, k2)?;

    Ok(LongHost { response, p_setup })
}

struct ShortHost {
    response: f64,
    q_idle: f64,
}

/// Long-host state indices inside the modulating chain.
struct ModLayout {
    kb: usize,
    kn: usize,
}

impl ModLayout {
    const IDLE: usize = 0;
    const SHORT: usize = 1;
    const SHORT_PENDING: usize = 2;

    fn b(&self, i: usize) -> usize {
        3 + i
    }

    fn bpp(&self, i: usize) -> usize {
        3 + self.kb + i
    }

    fn dim(&self) -> usize {
        3 + self.kb + self.kn
    }
}

/// Builds the autonomous long-host chain with PH-matched busy periods and
/// returns `(generator, layout)`.
fn modulating_chain(params: &SystemParams) -> Result<(Matrix, ModLayout), AnalysisError> {
    let (lambda_s, mu_s, lambda_l) = (params.lambda_s(), params.mu_s(), params.lambda_l());
    let bl = fit(busy::mg1_busy(lambda_l, params.long_moments())?)?;
    // Busy period started by the longs accumulated behind one short:
    // theta = mu_s (a single short occupies the host in CS-ID).
    let bpp = fit(busy::bn1(lambda_l, params.long_moments(), mu_s)?)?;
    let layout = ModLayout {
        kb: bl.dim(),
        kn: bpp.dim(),
    };
    let n = layout.dim();
    let mut q = Matrix::zeros(n, n);
    q[(ModLayout::IDLE, ModLayout::SHORT)] = lambda_s;
    for j in 0..layout.kb {
        q[(ModLayout::IDLE, layout.b(j))] = lambda_l * bl.initial()[j];
    }
    q[(ModLayout::SHORT, ModLayout::IDLE)] = mu_s;
    q[(ModLayout::SHORT, ModLayout::SHORT_PENDING)] = lambda_l;
    for j in 0..layout.kn {
        q[(ModLayout::SHORT_PENDING, layout.bpp(j))] = mu_s * bpp.initial()[j];
    }
    for i in 0..layout.kb {
        for j in 0..layout.kb {
            if i != j {
                q[(layout.b(i), layout.b(j))] = bl.subgenerator()[(i, j)];
            }
        }
        q[(layout.b(i), ModLayout::IDLE)] = bl.exit_rates()[i];
    }
    for i in 0..layout.kn {
        for j in 0..layout.kn {
            if i != j {
                q[(layout.bpp(i), layout.bpp(j))] = bpp.subgenerator()[(i, j)];
            }
        }
        q[(layout.bpp(i), ModLayout::IDLE)] = bpp.exit_rates()[i];
    }
    // Diagonal: conservative rows.
    for i in 0..n {
        let s: f64 = (0..n).filter(|&j| j != i).map(|j| q[(i, j)]).sum();
        q[(i, i)] = -s;
    }
    Ok((q, layout))
}

fn fit(m: Moments3) -> Result<Ph, AnalysisError> {
    Ok(match3::fit_ph(m)?.ph)
}

fn short_host_mmpp(params: &SystemParams) -> Result<ShortHost, AnalysisError> {
    let (lambda_s, mu_s) = (params.lambda_s(), params.mu_s());
    let (q, layout) = modulating_chain(params)?;
    let n = layout.dim();

    let q_idle = ctmc::stationary(&q)?[ModLayout::IDLE];

    // MMPP/M/1: arrivals at rate lambda_s in every phase except IDLE.
    let mut rates = vec![lambda_s; n];
    rates[ModLayout::IDLE] = 0.0;
    let a0 = Matrix::from_diag(&rates);
    let a2 = Matrix::from_diag(&vec![mu_s; n]);
    let mut a1 = q.clone();
    for i in 0..n {
        a1[(i, i)] -= rates[i] + mu_s;
    }
    // Boundary: empty short host; same phases, no departures.
    let mut b00 = q;
    for i in 0..n {
        b00[(i, i)] -= rates[i];
    }
    let b01 = a0.clone();
    let b10 = a2.clone();

    let qbd = Qbd::new(b00, b01, b10, a0, a1, a2)?;
    let sol = qbd.solve()?;
    // Repeating level k = k+1 jobs at the short host.
    let mean_jobs = sol.repeating_mass() + sol.expected_level_index();
    let overflow_rate = lambda_s * (1.0 - q_idle);
    let t_short_host = mean_jobs / overflow_rate;

    Ok(ShortHost {
        response: q_idle * params.mean_s() + (1.0 - q_idle) * t_short_host,
        q_idle,
    })
}
