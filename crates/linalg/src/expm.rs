//! Matrix exponential and Kronecker products.
//!
//! `expm` uses scaling-and-squaring with a degree-6 Padé approximant —
//! ample accuracy for the small generator matrices this workspace works
//! with (phase-type densities, transient CTMC analysis). The Kronecker
//! product assembles product-space generators (e.g. chain ⊗ MAP phases).

use crate::lu::{lu_factor_into, lu_inverse_into};
use crate::{LinalgError, Matrix, Workspace};

/// Padé(6,6) numerator coefficients; the denominator uses the same
/// magnitudes with alternating signs. `c_k = (6! (12-k)!) / (12! k! (6-k)!)`.
const PADE_C: [f64; 7] = [
    1.0,
    0.5,
    5.0 / 44.0,
    1.0 / 66.0,
    1.0 / 792.0,
    1.0 / 15_840.0,
    1.0 / 665_280.0,
];

impl Matrix {
    /// Kronecker product `self ⊗ rhs`.
    ///
    /// # Examples
    ///
    /// ```
    /// use cyclesteal_linalg::Matrix;
    ///
    /// let a = Matrix::identity(2);
    /// let b = Matrix::from_vec(1, 1, vec![3.0]);
    /// let k = a.kron(&b);
    /// assert_eq!(k.rows(), 2);
    /// assert_eq!(k[(1, 1)], 3.0);
    /// ```
    pub fn kron(&self, rhs: &Matrix) -> Matrix {
        let (m, n) = (self.rows(), self.cols());
        let (p, q) = (rhs.rows(), rhs.cols());
        let mut out = Matrix::zeros(m * p, n * q);
        for i in 0..m {
            for j in 0..n {
                let a = self[(i, j)];
                if a == 0.0 {
                    continue;
                }
                for k in 0..p {
                    for l in 0..q {
                        out[(i * p + k, j * q + l)] = a * rhs[(k, l)];
                    }
                }
            }
        }
        out
    }

    /// Matrix exponential `e^self` by scaling-and-squaring with a Padé(6,6)
    /// approximant.
    ///
    /// # Errors
    ///
    /// [`LinalgError::NotSquare`] for rectangular input;
    /// [`LinalgError::NonFinite`] if the input carries NaN or ±∞ (the
    /// scaling heuristic compares norms, and NaN slips through every
    /// comparison, so a tainted generator must be rejected at the door);
    /// propagates a (theoretically impossible for finite input) singular
    /// Padé denominator.
    ///
    /// # Examples
    ///
    /// ```
    /// use cyclesteal_linalg::Matrix;
    ///
    /// # fn main() -> Result<(), cyclesteal_linalg::LinalgError> {
    /// let a = Matrix::from_diag(&[1.0, -2.0]);
    /// let e = a.expm()?;
    /// assert!((e[(0, 0)] - 1f64.exp()).abs() < 1e-12);
    /// assert!((e[(1, 1)] - (-2f64).exp()).abs() < 1e-12);
    /// # Ok(())
    /// # }
    /// ```
    pub fn expm(&self) -> Result<Matrix, LinalgError> {
        let mut ws = Workspace::new();
        self.expm_in(&mut ws)
    }

    /// Matrix exponential computed with scratch borrowed from `ws`.
    ///
    /// Bit-identical to [`Matrix::expm`] (same Padé evaluation, same
    /// inverse-then-multiply denominator handling, same squaring order);
    /// the returned matrix is itself a workspace buffer, so giving it back
    /// with [`Workspace::give_mat`] keeps repeated calls allocation-free.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Matrix::expm`].
    pub fn expm_in(&self, ws: &mut Workspace) -> Result<Matrix, LinalgError> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare {
                dims: (self.rows(), self.cols()),
            });
        }
        if !self.as_slice().iter().all(|v| v.is_finite()) {
            return Err(LinalgError::NonFinite {
                site: "linalg.expm",
            });
        }
        let n = self.rows();
        if n == 0 {
            return Ok(Matrix::zeros(0, 0));
        }

        // Scale so ||A/2^s||_inf <= 0.5.
        let norm = self.norm_inf();
        let s = if norm > 0.5 {
            (norm / 0.5).log2().ceil() as u32
        } else {
            0
        };
        cyclesteal_obs::counter!("linalg.expm");
        cyclesteal_obs::histogram!("linalg.expm.squarings", u64::from(s));
        let mut a = ws.take_mat(n, n);
        a.copy_from(self);
        a.scale_assign(0.5f64.powi(s as i32));

        // Padé(6,6): N(A) = sum c_k A^k, D(A) = sum c_k (-A)^k.
        // Seeding the diagonals directly is exact (1.0 * c = c), so it
        // matches the allocating `identity().scale(c)` bit for bit.
        let mut num = ws.take_mat(n, n);
        let mut den = ws.take_mat(n, n);
        let mut power = ws.take_mat(n, n);
        for i in 0..n {
            num[(i, i)] = PADE_C[0];
            den[(i, i)] = PADE_C[0];
            power[(i, i)] = 1.0;
        }
        let mut tmp = ws.take_mat(n, n);
        for (k, &c) in PADE_C.iter().enumerate().skip(1) {
            power.mul_into(&a, &mut tmp)?;
            std::mem::swap(&mut power, &mut tmp);
            num.axpy(c, &power)?;
            let sign = if k % 2 == 0 { 1.0 } else { -1.0 };
            den.axpy(sign * c, &power)?;
        }
        // Inverse-then-multiply (rather than a multi-RHS solve) is kept
        // deliberately: it reproduces `expm`'s exact operation sequence.
        let mut lu = ws.take_mat(n, n);
        let mut piv = ws.take_idx();
        lu_factor_into(&den, &mut lu, &mut piv)?;
        let mut inv = ws.take_mat(n, n);
        lu_inverse_into(&lu, &piv, &mut inv);
        let mut result = ws.take_mat(n, n);
        inv.mul_into(&num, &mut result)?;
        // Undo the scaling by repeated squaring.
        for _ in 0..s {
            result.mul_into(&result, &mut tmp)?;
            std::mem::swap(&mut result, &mut tmp);
        }
        debug_assert!(
            result.as_slice().iter().all(|v| v.is_finite()),
            "expm produced a non-finite entry from finite input"
        );
        ws.give_mat(a);
        ws.give_mat(num);
        ws.give_mat(den);
        ws.give_mat(power);
        ws.give_mat(tmp);
        ws.give_mat(lu);
        ws.give_idx(piv);
        ws.give_mat(inv);
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kron_dimensions_and_values() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[0.0, 5.0], &[6.0, 7.0]]).unwrap();
        let k = a.kron(&b);
        assert_eq!((k.rows(), k.cols()), (4, 4));
        assert_eq!(k[(0, 1)], 5.0); // a00 * b01
        assert_eq!(k[(3, 0)], 18.0); // a10 * b10
        assert_eq!(k[(3, 3)], 28.0); // a11 * b11
    }

    #[test]
    fn kron_mixed_product_property() {
        // (A ⊗ B)(C ⊗ D) = (AC) ⊗ (BD)
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0]]).unwrap();
        let b = Matrix::from_rows(&[&[2.0, 0.0], &[1.0, 1.0]]).unwrap();
        let c = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 0.0]]).unwrap();
        let d = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let lhs = a.kron(&b).mul(&c.kron(&d)).unwrap();
        let rhs = a.mul(&c).unwrap().kron(&b.mul(&d).unwrap());
        assert!((&lhs - &rhs).max_abs() < 1e-12);
    }

    #[test]
    fn expm_zero_is_identity() {
        let e = Matrix::zeros(3, 3).expm().unwrap();
        assert!((&e - &Matrix::identity(3)).max_abs() < 1e-14);
    }

    #[test]
    fn expm_diagonal() {
        let a = Matrix::from_diag(&[0.3, -1.7, 4.0]);
        let e = a.expm().unwrap();
        for (i, &d) in [0.3f64, -1.7, 4.0].iter().enumerate() {
            assert!((e[(i, i)] - d.exp()).abs() < 1e-11 * d.exp());
        }
        assert!(e[(0, 1)].abs() < 1e-14);
    }

    #[test]
    fn expm_nilpotent_closed_form() {
        // exp([[0,1],[0,0]]) = [[1,1],[0,1]]
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[0.0, 0.0]]).unwrap();
        let e = a.expm().unwrap();
        assert!((e[(0, 0)] - 1.0).abs() < 1e-14);
        assert!((e[(0, 1)] - 1.0).abs() < 1e-14);
        assert!((e[(1, 0)]).abs() < 1e-14);
    }

    #[test]
    fn expm_generator_rows_stay_stochastic() {
        // exp(Q t) of a generator is a stochastic matrix.
        let q =
            Matrix::from_rows(&[&[-2.0, 1.5, 0.5], &[0.3, -0.8, 0.5], &[1.0, 2.0, -3.0]]).unwrap();
        let p = q.scale(0.7).expm().unwrap();
        for i in 0..3 {
            let row_sum: f64 = p.row(i).iter().sum();
            assert!((row_sum - 1.0).abs() < 1e-12, "row {i}: {row_sum}");
            assert!(p.row(i).iter().all(|&x| x >= -1e-13));
        }
    }

    #[test]
    fn expm_additivity_for_commuting_matrices() {
        // exp(A) exp(A) = exp(2A)
        let a = Matrix::from_rows(&[&[-1.0, 0.7], &[0.2, -0.5]]).unwrap();
        let e1 = a.expm().unwrap();
        let lhs = e1.mul(&e1).unwrap();
        let rhs = a.scale(2.0).expm().unwrap();
        assert!((&lhs - &rhs).max_abs() < 1e-11);
    }

    #[test]
    fn expm_rejects_rectangular() {
        assert!(Matrix::zeros(2, 3).expm().is_err());
    }

    #[test]
    fn expm_in_is_bit_identical_across_workspace_reuse() {
        let q =
            Matrix::from_rows(&[&[-2.0, 1.5, 0.5], &[0.3, -0.8, 0.5], &[1.0, 2.0, -3.0]]).unwrap();
        let fresh = q.expm().unwrap();
        let mut ws = Workspace::new();
        // Dirty the pool with unrelated shapes and values first.
        let mut junk = ws.take_mat(5, 2);
        junk[(4, 1)] = 1234.5;
        ws.give_mat(junk);
        let mut junk_v = ws.take_vec(9);
        junk_v[3] = -7.0;
        ws.give_vec(junk_v);
        for _ in 0..3 {
            let e = q.expm_in(&mut ws).unwrap();
            assert_eq!(e.as_slice(), fresh.as_slice());
            ws.give_mat(e);
        }
    }

    #[test]
    fn expm_in_empty_matrix() {
        let mut ws = Workspace::new();
        let e = Matrix::zeros(0, 0).expm_in(&mut ws).unwrap();
        assert_eq!((e.rows(), e.cols()), (0, 0));
    }

    #[test]
    fn expm_rejects_non_finite_input() {
        let a = Matrix::from_rows(&[&[0.0, f64::NAN], &[0.0, 0.0]]).unwrap();
        assert_eq!(
            a.expm().unwrap_err(),
            LinalgError::NonFinite {
                site: "linalg.expm"
            }
        );
    }

    #[test]
    fn expm_large_norm_scaled_correctly() {
        // 50x the 2x2 rotation-ish generator: exercised squaring path.
        let a = Matrix::from_rows(&[&[-50.0, 50.0], &[50.0, -50.0]]).unwrap();
        let e = a.expm().unwrap();
        // Limit: uniform distribution over the two states.
        for i in 0..2 {
            for j in 0..2 {
                assert!((e[(i, j)] - 0.5).abs() < 1e-9);
            }
        }
    }
}
