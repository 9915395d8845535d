//! Property-based tests for the CTMC and QBD solvers over randomized
//! chains with known structure, on the in-tree `cyclesteal_xtest` layer.

use cyclesteal_linalg::Matrix;
use cyclesteal_markov::ctmc;
use cyclesteal_markov::qbd::{Qbd, RAlgorithm};
use cyclesteal_xtest::prop::{vec, Gen};
use cyclesteal_xtest::props;

/// A random irreducible generator: random nonnegative off-diagonals (plus a
/// cycle to guarantee irreducibility), diagonal fixed to conserve.
fn generator(n: usize) -> impl Gen<Value = Matrix> {
    vec(0.0f64..2.0, n * n).prop_map(move |rates: Vec<f64>| {
        let mut q = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    q[(i, j)] = rates[i * n + j];
                }
            }
            // Guarantee irreducibility with a ring of rate >= 0.1.
            let next = (i + 1) % n;
            if q[(i, next)] < 0.1 {
                q[(i, next)] = 0.1;
            }
        }
        for i in 0..n {
            let s: f64 = (0..n).filter(|&j| j != i).map(|j| q[(i, j)]).sum();
            q[(i, i)] = -s;
        }
        q
    })
}

fn mm1_qbd(lambda: f64, mu: f64) -> Qbd {
    let m1 = |v: f64| Matrix::from_vec(1, 1, vec![v]);
    Qbd::new(
        m1(-lambda),
        m1(lambda),
        m1(mu),
        m1(lambda),
        m1(-(lambda + mu)),
        m1(mu),
    )
    .unwrap()
}

props! {
    cases = 48;

    /// Stationary distributions are probability vectors satisfying balance.
    fn stationary_is_a_distribution(q in generator(5)) {
        let pi = ctmc::stationary(&q).unwrap();
        assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(pi.iter().all(|p| *p >= -1e-12));
        let balance = q.vec_mul(&pi);
        assert!(balance.iter().all(|b| b.abs() < 1e-9));
    }

    /// Transient probabilities are distributions for all t and converge to
    /// the stationary law.
    fn transient_is_a_distribution(q in generator(4), t in 0.0f64..20.0) {
        let p = ctmc::transient(&q, t, 0).unwrap();
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p.iter().all(|x| *x >= -1e-12));
        // Slow chains (ring rates as low as 0.1) can have spectral gaps of
        // order 1e-2; give them a long horizon and a modest tolerance.
        let pi = ctmc::stationary(&q).unwrap();
        let far = ctmc::transient(&q, 5_000.0, 0).unwrap();
        for (a, b) in far.iter().zip(&pi) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    /// Killed chains live Exp(kappa) regardless of internal structure, and
    /// the kill-state probabilities form a distribution.
    fn killed_chain_invariants(q in generator(4), kappa in 0.1f64..5.0) {
        let k = ctmc::killed_occupancy(&q, kappa, &[0.0, 1.0, 0.0, 0.0]).unwrap();
        assert!((k.expected_lifetime() - 1.0 / kappa).abs() < 1e-9);
        let probs = k.kill_state_probs();
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(probs.iter().all(|p| *p >= -1e-12));
    }

    /// The M/M/1 QBD reproduces the geometric solution for random loads.
    fn mm1_qbd_geometric(rho in 0.05f64..0.95) {
        let sol = mm1_qbd(rho, 1.0).solve().unwrap();
        assert!((sol.boundary()[0] - (1.0 - rho)).abs() < 1e-8);
        assert!((sol.r()[(0, 0)] - rho).abs() < 1e-8);
        let e_n = sol.repeating_mass() + sol.expected_level_index();
        assert!((e_n - rho / (1.0 - rho)).abs() < 1e-6 / (1.0 - rho));
    }

    /// Both R algorithms agree wherever the slower one converges.
    fn r_algorithms_agree(rho in 0.05f64..0.9) {
        let q = mm1_qbd(rho, 1.0);
        let r1 = q.r_logarithmic_reduction().unwrap();
        let r2 = q.r_functional_iteration().unwrap();
        assert!((r1.sub(&r2).unwrap()).max_abs() < 1e-9);
        let s1 = q.solve_with(RAlgorithm::LogarithmicReduction).unwrap();
        let s2 = q.solve_with(RAlgorithm::FunctionalIteration).unwrap();
        assert!((s1.total_mass() - s2.total_mass()).abs() < 1e-9);
    }

    /// Unstable random loads are rejected, stable ones are not.
    fn stability_detection(lambda in 0.05f64..2.0) {
        let result = mm1_qbd(lambda, 1.0).solve();
        if lambda < 0.999 {
            assert!(result.is_ok());
        } else if lambda > 1.001 {
            assert!(result.is_err());
        }
    }
}
