//! Finite continuous-time Markov chains: stationary distributions and
//! killed-chain occupancy analysis.

use cyclesteal_linalg::{lu_factor_into, lu_solve_into, Matrix, Workspace};

use crate::MarkovError;

/// Validation slack for generator row sums, relative to the largest rate.
const GEN_TOL: f64 = 1e-8;

/// Checks that `q` is a CTMC generator: square, nonnegative off-diagonal,
/// rows summing to zero.
///
/// # Errors
///
/// [`MarkovError::InvalidGenerator`] describing the first violation found.
pub fn validate_generator(q: &Matrix) -> Result<(), MarkovError> {
    if !q.is_square() {
        return Err(MarkovError::InvalidGenerator {
            reason: format!("not square: {}x{}", q.rows(), q.cols()),
        });
    }
    let scale = q.max_abs().max(1.0);
    for i in 0..q.rows() {
        let mut sum = 0.0;
        for j in 0..q.cols() {
            let v = q[(i, j)];
            if i != j && v < -GEN_TOL * scale {
                return Err(MarkovError::InvalidGenerator {
                    reason: format!("negative off-diagonal at ({i},{j}): {v}"),
                });
            }
            sum += v;
        }
        if sum.abs() > GEN_TOL * scale {
            return Err(MarkovError::InvalidGenerator {
                reason: format!("row {i} sums to {sum}, expected 0"),
            });
        }
    }
    Ok(())
}

/// Stationary distribution `π` of an irreducible finite CTMC: solves
/// `π Q = 0`, `Σπ = 1`.
///
/// # Errors
///
/// [`MarkovError::InvalidGenerator`] if `q` fails validation, or
/// [`MarkovError::Linalg`] if the chain is reducible (singular system).
///
/// # Examples
///
/// A two-state flip-flop with rates 1 and 2 spends 2/3 of its time in the
/// slow-to-leave state:
///
/// ```
/// use cyclesteal_linalg::Matrix;
/// use cyclesteal_markov::ctmc::stationary;
///
/// # fn main() -> Result<(), cyclesteal_markov::MarkovError> {
/// let q = Matrix::from_rows(&[&[-1.0, 1.0], &[2.0, -2.0]])?;
/// let pi = stationary(&q)?;
/// assert!((pi[0] - 2.0 / 3.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn stationary(q: &Matrix) -> Result<Vec<f64>, MarkovError> {
    let mut pi = Vec::new();
    stationary_into(q, &mut Workspace::new(), &mut pi)?;
    Ok(pi)
}

/// [`stationary`] into `pi`, with its scratch borrowed from `ws`.
pub(crate) fn stationary_into(
    q: &Matrix,
    ws: &mut Workspace,
    pi: &mut Vec<f64>,
) -> Result<(), MarkovError> {
    validate_generator(q)?;
    let n = q.rows();
    // Solve pi Q = 0 with the last balance equation replaced by
    // normalization: transpose so unknowns are a column vector, then replace
    // the last row by all-ones.
    let mut sys = ws.take_mat(n, n);
    q.transpose_into(&mut sys);
    for j in 0..n {
        sys[(n - 1, j)] = 1.0;
    }
    let mut rhs = ws.take_vec(n);
    rhs[n - 1] = 1.0;
    let mut lu = ws.take_mat(n, n);
    let mut piv = ws.take_idx();
    let factored = lu_factor_into(&sys, &mut lu, &mut piv);
    if factored.is_ok() {
        pi.clear();
        pi.resize(n, 0.0);
        lu_solve_into(&lu, &piv, &rhs, pi);
    }
    ws.give_mat(sys);
    ws.give_vec(rhs);
    ws.give_mat(lu);
    ws.give_idx(piv);
    factored.map_err(MarkovError::from)
}

/// Occupancy analysis of a CTMC killed at a state-independent rate.
///
/// For a chain with generator `q` killed at rate `kappa`, entered with
/// initial distribution `start`, the row vector `start · (κI − Q)⁻¹` gives:
///
/// * entry `j` = expected total time spent in state `j` before the kill;
/// * scaled by `κ`, the probability that the kill happens while in `j`.
///
/// This is exactly what the CS-ID long-host decomposition needs: the no-long
/// period is an idle/serving-short chain (times the short-arrival phase),
/// entered where busy periods end and killed by the first long arrival. A
/// unit vector `e_i` starts the chain in state `i`.
///
/// # Errors
///
/// [`MarkovError::InvalidGenerator`] for invalid input (including
/// `kappa <= 0` and a `start` that is not a probability vector of length
/// `n`); [`MarkovError::Linalg`] if the resolvent is singular (cannot happen
/// for `kappa > 0` and a valid generator).
pub fn killed_occupancy(q: &Matrix, kappa: f64, start: &[f64]) -> Result<KilledChain, MarkovError> {
    validate_generator(q)?;
    if !(kappa > 0.0 && kappa.is_finite()) {
        return Err(MarkovError::InvalidGenerator {
            reason: format!("kill rate must be positive, got {kappa}"),
        });
    }
    let n = q.rows();
    let mass: f64 = start.iter().sum();
    if start.len() != n
        || start.iter().any(|p| !p.is_finite() || *p < 0.0)
        || (mass - 1.0).abs() > GEN_TOL
    {
        return Err(MarkovError::InvalidGenerator {
            reason: format!("start must be a distribution over {n} states, got {start:?}"),
        });
    }
    // (kappa I - Q)^T x = start: the row vector start (kappa I - Q)^-1.
    let mut m = q.scale(-1.0);
    for i in 0..n {
        m[(i, i)] += kappa;
    }
    let occupancy = m.transpose().solve(start)?;
    Ok(KilledChain { kappa, occupancy })
}

/// Transient state probabilities of a finite CTMC at time `t`, starting
/// from `start`, computed by uniformization (Jensen's method):
/// `p(t) = Σ_k e^{-Λt} (Λt)^k / k! · e_start Pᵏ` with `P = I + Q/Λ`.
///
/// Numerically robust for generators of any stiffness the analysis
/// produces; the series is truncated once the cumulative Poisson weight
/// exceeds `1 − 1e-12`.
///
/// # Errors
///
/// [`MarkovError::InvalidGenerator`] for an invalid generator, `t < 0`, or
/// `start` out of range.
///
/// # Examples
///
/// ```
/// use cyclesteal_linalg::Matrix;
/// use cyclesteal_markov::ctmc::transient;
///
/// # fn main() -> Result<(), cyclesteal_markov::MarkovError> {
/// // Two-state flip-flop; at t = 0 the chain is surely in its start state.
/// let q = Matrix::from_rows(&[&[-1.0, 1.0], &[2.0, -2.0]])?;
/// let p = transient(&q, 0.0, 1)?;
/// assert_eq!(p, vec![0.0, 1.0]);
/// # Ok(())
/// # }
/// ```
pub fn transient(q: &Matrix, t: f64, start: usize) -> Result<Vec<f64>, MarkovError> {
    validate_generator(q)?;
    let n = q.rows();
    if start >= n {
        return Err(MarkovError::InvalidGenerator {
            reason: format!("start state {start} out of range (n = {n})"),
        });
    }
    if !(t >= 0.0 && t.is_finite()) {
        return Err(MarkovError::InvalidGenerator {
            reason: format!("time must be nonnegative and finite, got {t}"),
        });
    }
    // Uniformization rate: the largest exit rate.
    let lambda = (0..n).map(|i| -q[(i, i)]).fold(0.0, f64::max).max(1e-300);
    let mut v = vec![0.0; n];
    v[start] = 1.0;
    if lambda * t == 0.0 {
        return Ok(v);
    }
    // P = I + Q / lambda.
    let mut p = q.scale(1.0 / lambda);
    for i in 0..n {
        p[(i, i)] += 1.0;
    }
    // Split the horizon so each chunk's Poisson parameter stays well inside
    // f64 range (e^{-200} ~ 1e-87); the chunk results compose by the
    // semigroup property.
    let chunks = (lambda * t / 200.0).ceil().max(1.0);
    let lt = lambda * t / chunks;
    for _ in 0..chunks as u64 {
        v = uniformization_step(&p, lt, &v);
    }
    Ok(v)
}

/// One uniformization step: `Σ_k Pois(lt; k) · v Pᵏ`, truncated once the
/// cumulative Poisson weight reaches `1 − 1e-13`, then renormalized.
fn uniformization_step(p: &Matrix, lt: f64, v: &[f64]) -> Vec<f64> {
    let mut term = v.to_vec();
    let mut weight = (-lt).exp();
    let mut out: Vec<f64> = term.iter().map(|x| x * weight).collect();
    let mut cum = weight;
    let mut k = 0u64;
    let max_terms = (lt + 12.0 * lt.sqrt() + 60.0) as u64;
    while cum < 1.0 - 1e-13 && k < max_terms {
        k += 1;
        term = p.vec_mul(&term);
        weight *= lt / k as f64;
        for (o, x) in out.iter_mut().zip(&term) {
            *o += weight * x;
        }
        cum += weight;
    }
    let total: f64 = out.iter().sum();
    if total > 0.0 {
        for o in &mut out {
            *o /= total;
        }
    }
    out
}

/// Result of [`killed_occupancy`].
#[derive(Debug, Clone, PartialEq)]
pub struct KilledChain {
    kappa: f64,
    occupancy: Vec<f64>,
}

impl KilledChain {
    /// Probability that the kill occurs while the chain is in each state.
    pub fn kill_state_probs(&self) -> Vec<f64> {
        self.occupancy.iter().map(|t| t * self.kappa).collect()
    }

    /// Expected total lifetime (should equal `1/κ` for a conservative
    /// chain — a useful internal consistency check).
    pub fn expected_lifetime(&self) -> f64 {
        self.occupancy.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_state(a: f64, b: f64) -> Matrix {
        Matrix::from_rows(&[&[-a, a], &[b, -b]]).unwrap()
    }

    #[test]
    fn validate_rejects_bad_generators() {
        assert!(validate_generator(&Matrix::zeros(2, 3)).is_err());
        let neg = Matrix::from_rows(&[&[-1.0, -1.0], &[1.0, -1.0]]).unwrap();
        assert!(validate_generator(&neg).is_err());
        let bad_sum = Matrix::from_rows(&[&[-1.0, 2.0], &[1.0, -1.0]]).unwrap();
        assert!(validate_generator(&bad_sum).is_err());
        assert!(validate_generator(&two_state(1.0, 2.0)).is_ok());
    }

    #[test]
    fn stationary_three_state_cycle() {
        // Cycle 0 -> 1 -> 2 -> 0 with unit rates: uniform stationary law.
        let q =
            Matrix::from_rows(&[&[-1.0, 1.0, 0.0], &[0.0, -1.0, 1.0], &[1.0, 0.0, -1.0]]).unwrap();
        let pi = stationary(&q).unwrap();
        for p in &pi {
            assert!((p - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn stationary_birth_death() {
        // Birth-death 0..3 with birth 1, death 2: pi_i ∝ (1/2)^i.
        let q = Matrix::from_rows(&[
            &[-1.0, 1.0, 0.0, 0.0],
            &[2.0, -3.0, 1.0, 0.0],
            &[0.0, 2.0, -3.0, 1.0],
            &[0.0, 0.0, 2.0, -2.0],
        ])
        .unwrap();
        let pi = stationary(&q).unwrap();
        let z = 1.0 + 0.5 + 0.25 + 0.125;
        for (i, p) in pi.iter().enumerate() {
            assert!((p - 0.5f64.powi(i as i32) / z).abs() < 1e-12, "state {i}");
        }
    }

    #[test]
    fn killed_chain_lifetime_is_one_over_kappa() {
        // Regardless of internal dynamics, a conservative chain killed at
        // rate kappa lives Exp(kappa).
        let q = two_state(3.0, 0.7);
        let k = killed_occupancy(&q, 2.5, &[1.0, 0.0]).unwrap();
        assert!((k.expected_lifetime() - 1.0 / 2.5).abs() < 1e-12);
        let probs = k.kill_state_probs();
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn killed_chain_closed_form_2x2() {
        // Idle/serving chain from the CS-ID decomposition:
        // start idle, kill = first long arrival.
        let (lambda_s, mu_s, lambda_l) = (0.8, 1.0, 0.4);
        let q = two_state(lambda_s, mu_s);
        let k = killed_occupancy(&q, lambda_l, &[1.0, 0.0]).unwrap();
        // P(killed while serving a short) = lambda_s / (lambda_l + lambda_s + mu_s)
        let p_short = k.kill_state_probs()[1];
        let expect = lambda_s / (lambda_l + lambda_s + mu_s);
        assert!((p_short - expect).abs() < 1e-12, "{p_short} vs {expect}");
    }

    #[test]
    fn transient_two_state_closed_form() {
        // P(in state 0 at t | start 0) = pi0 + pi1 e^{-(a+b)t} for the
        // flip-flop with rates a (0->1) and b (1->0).
        let (a, b) = (1.5, 0.5);
        let q = two_state(a, b);
        for t in [0.1, 0.5, 1.0, 3.0] {
            let p = transient(&q, t, 0).unwrap();
            let pi0 = b / (a + b);
            let want = pi0 + (1.0 - pi0) * (-(a + b) * t).exp();
            assert!((p[0] - want).abs() < 1e-10, "t = {t}: {} vs {want}", p[0]);
            assert!((p[0] + p[1] - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn transient_converges_to_stationary() {
        let q =
            Matrix::from_rows(&[&[-2.0, 1.0, 1.0], &[0.5, -1.0, 0.5], &[1.0, 1.0, -2.0]]).unwrap();
        let pi = stationary(&q).unwrap();
        let p = transient(&q, 100.0, 2).unwrap();
        for (a, b) in p.iter().zip(&pi) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn transient_matches_matrix_exponential() {
        let q =
            Matrix::from_rows(&[&[-3.0, 2.0, 1.0], &[0.1, -0.6, 0.5], &[2.0, 2.0, -4.0]]).unwrap();
        let t = 0.7;
        let e = q.scale(t).expm().unwrap();
        for start in 0..3 {
            let p = transient(&q, t, start).unwrap();
            for j in 0..3 {
                assert!(
                    (p[j] - e[(start, j)]).abs() < 1e-9,
                    "start {start}, j {j}: {} vs {}",
                    p[j],
                    e[(start, j)]
                );
            }
        }
    }

    #[test]
    fn transient_validation() {
        let q = two_state(1.0, 1.0);
        assert!(transient(&q, -1.0, 0).is_err());
        assert!(transient(&q, f64::INFINITY, 0).is_err());
        assert!(transient(&q, 1.0, 5).is_err());
        // t = 0 is the unit vector.
        assert_eq!(transient(&q, 0.0, 1).unwrap(), vec![0.0, 1.0]);
    }

    #[test]
    fn killed_chain_rejects_bad_inputs() {
        let q = two_state(1.0, 1.0);
        assert!(killed_occupancy(&q, 0.0, &[1.0, 0.0]).is_err());
        assert!(killed_occupancy(&q, 1.0, &[1.0]).is_err());
        assert!(killed_occupancy(&q, 1.0, &[0.5, 0.4]).is_err());
        assert!(killed_occupancy(&q, 1.0, &[1.5, -0.5]).is_err());
        assert!(killed_occupancy(&q, 1.0, &[f64::NAN, 1.0]).is_err());
    }
}
