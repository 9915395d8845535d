use std::error::Error;
use std::fmt;

use cyclesteal_dist::DistError;
use cyclesteal_markov::MarkovError;

/// Errors from the cycle-stealing analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisError {
    /// Invalid workload parameters or infeasible moment inputs.
    Param(DistError),
    /// The Markov-chain machinery failed (singular systems, divergent
    /// fixed points).
    Chain(MarkovError),
    /// A distribution query was asked for a truncation point that would
    /// silently drop more probability mass than the stated tolerance —
    /// e.g. `cs_cq::shorts_distribution` with a small `n_max` near the
    /// stability frontier, where the level decay rate approaches one.
    /// Retry with a larger truncation point.
    Truncated {
        /// The truncation point that was requested.
        n_max: usize,
        /// The probability mass beyond `n_max` that would have been lost.
        tail_mass: f64,
        /// The maximum tail mass the query is allowed to drop.
        tolerance: f64,
    },
    /// A deadline-budgeted analysis ran out of time before any rung of
    /// the degradation ladder could finish (see
    /// `recover::analyze_cached_in`). The answer is *not*
    /// wrong, merely unaffordable within the caller's budget; retry with a
    /// larger budget or no deadline.
    DeadlineExceeded {
        /// The ladder stage that could not be afforded (a
        /// `BusyPeriodFit::name()`, or `"admission"` when the budget was
        /// already exhausted before the first attempt).
        stage: &'static str,
        /// The total budget the query carried, in nanoseconds.
        budget_ns: u64,
    },
    /// The requested configuration violates the policy's stability
    /// condition (Theorem 1), so no stationary analysis exists.
    Unstable {
        /// Which policy's condition failed.
        policy: &'static str,
        /// Short-class load.
        rho_s: f64,
        /// Long-class load.
        rho_l: f64,
        /// The maximum stable `ρ_S` at this `ρ_L`.
        rho_s_max: f64,
    },
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::Param(e) => write!(f, "invalid parameters: {e}"),
            AnalysisError::Chain(e) => write!(f, "chain solver failure: {e}"),
            AnalysisError::Truncated {
                n_max,
                tail_mass,
                tolerance,
            } => write!(
                f,
                "distribution truncated at n_max = {n_max}: tail mass {tail_mass:.3e} \
                 exceeds tolerance {tolerance:.0e}; retry with a larger n_max"
            ),
            AnalysisError::DeadlineExceeded { stage, budget_ns } => write!(
                f,
                "deadline exceeded at stage `{stage}`: the {budget_ns} ns budget \
                 cannot afford another attempt; retry with a larger budget"
            ),
            AnalysisError::Unstable {
                policy,
                rho_s,
                rho_l,
                rho_s_max,
            } => write!(
                f,
                "{policy} is unstable at rho_s = {rho_s:.4}, rho_l = {rho_l:.4} \
                 (requires rho_s < {rho_s_max:.4})"
            ),
        }
    }
}

impl Error for AnalysisError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AnalysisError::Param(e) => Some(e),
            AnalysisError::Chain(e) => Some(e),
            AnalysisError::Truncated { .. }
            | AnalysisError::DeadlineExceeded { .. }
            | AnalysisError::Unstable { .. } => None,
        }
    }
}

impl From<DistError> for AnalysisError {
    fn from(e: DistError) -> Self {
        AnalysisError::Param(e)
    }
}

impl From<MarkovError> for AnalysisError {
    fn from(e: MarkovError) -> Self {
        AnalysisError::Chain(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        let e: AnalysisError = DistError::NonPositive {
            what: "rate",
            value: -1.0,
        }
        .into();
        assert!(e.to_string().contains("rate"));
        assert!(Error::source(&e).is_some());

        let e: AnalysisError = MarkovError::Unstable {
            spectral_radius: 1.5,
        }
        .into();
        assert!(e.to_string().contains("1.5"));

        let e = AnalysisError::Unstable {
            policy: "CS-CQ",
            rho_s: 1.8,
            rho_l: 0.5,
            rho_s_max: 1.5,
        };
        assert!(e.to_string().contains("CS-CQ"));
        assert!(Error::source(&e).is_none());

        let e = AnalysisError::Truncated {
            n_max: 50,
            tail_mass: 3.2e-4,
            tolerance: 1e-6,
        };
        assert!(e.to_string().contains("n_max = 50"));
        assert!(e.to_string().contains("larger n_max"));
        assert!(Error::source(&e).is_none());

        let e = AnalysisError::DeadlineExceeded {
            stage: "three_moment",
            budget_ns: 1_000,
        };
        assert!(e.to_string().contains("three_moment"));
        assert!(e.to_string().contains("1000 ns"));
        assert!(Error::source(&e).is_none());
    }
}
