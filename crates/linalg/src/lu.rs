//! LU factorization with partial pivoting, and the triangular solves on
//! its factors.
//!
//! One right-hand side ([`lu_solve_into`], [`Lu::solve`]) is substituted
//! by `substitute_in_place`, one dependent chain of `x[i] -= l · x[j]`
//! steps per row. A block of right-hand sides ([`lu_solve_cols_into`],
//! [`lu_solve_rows_into`], [`lu_inverse_into`], [`Lu::inverse`]) is
//! substituted by one row sweep, `sweep_rows_in_place`, which runs the
//! forward and back passes a row of the block at a time: every entry sees
//! the operations, in the order, that a one-column solve gives it, so the
//! bits are the same, and the inner loop along the row vectorizes.

use crate::{LinalgError, Matrix};

/// LU factorization with partial pivoting: `P * A = L * U`.
///
/// Stores `L` (unit lower triangular) and `U` packed into one matrix plus the
/// pivot permutation. Reuse one factorization across many [`Lu::solve`] calls —
/// the QBD boundary solve does exactly that.
///
/// # Examples
///
/// ```
/// use cyclesteal_linalg::Matrix;
///
/// # fn main() -> Result<(), cyclesteal_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[0.0, 2.0], &[1.0, 1.0]])?; // needs pivoting
/// let lu = a.lu()?;
/// let x = lu.solve(&[2.0, 2.0])?;
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Lu {
    lu: Matrix,
    pivots: Vec<usize>,
}

/// Pivots smaller than this (relative to the largest entry of the column)
/// are treated as exact zeros, i.e. the matrix is reported singular.
pub(crate) const PIVOT_TOL: f64 = 1e-300;

impl Lu {
    /// Factors `a` as `P A = L U` (through [`lu_factor_into`]).
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] if `a` is rectangular.
    /// * [`LinalgError::NonFinite`] if `a` contains NaN or ±∞ — pivot
    ///   selection compares magnitudes, and every comparison against NaN
    ///   is false, so factoring a tainted matrix would silently produce
    ///   garbage instead of failing.
    /// * [`LinalgError::Singular`] if a pivot vanishes.
    pub fn factor(a: &Matrix) -> Result<Self, LinalgError> {
        let mut lu = Matrix::zeros(0, 0);
        let mut pivots = Vec::new();
        lu_factor_into(a, &mut lu, &mut pivots)?;
        Ok(Lu { lu, pivots })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A x = b` using the stored factorization (through
    /// [`lu_solve_into`]).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "lu_solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        let mut x = vec![0.0; n];
        lu_solve_into(&self.lu, &self.pivots, b, &mut x);
        Ok(x)
    }

    /// Determinant of the factored matrix: the product of `U`'s diagonal,
    /// negated when the row permutation is odd.
    pub fn det(&self) -> f64 {
        // A permutation's parity is that of `n − (number of cycles)`.
        let n = self.dim();
        let mut seen = vec![false; n];
        let mut cycles = 0;
        for start in 0..n {
            if seen[start] {
                continue;
            }
            cycles += 1;
            let mut i = start;
            while !seen[i] {
                seen[i] = true;
                i = self.pivots[i];
            }
        }
        let mut d = if (n - cycles).is_multiple_of(2) {
            1.0
        } else {
            -1.0
        };
        for i in 0..n {
            d *= self.lu[(i, i)];
        }
        d
    }

    /// Inverse of the factored matrix (through [`lu_inverse_into`]).
    ///
    /// # Errors
    ///
    /// Never fails for a successfully constructed factorization, but keeps the
    /// `Result` signature for uniformity with the other solvers.
    pub fn inverse(&self) -> Result<Matrix, LinalgError> {
        let mut inv = Matrix::zeros(0, 0);
        lu_inverse_into(&self.lu, &self.pivots, &mut inv);
        Ok(inv)
    }
}

/// Forward substitution with unit lower-triangular `L`, then back
/// substitution with `U`, on one right-hand side that has already been
/// permuted: `x[i]` subtracts `L[i][j] · x[j]` in ascending `j < i`, then
/// `U[i][j] · x[j]` in ascending `j > i`, then divides by `U[i][i]`.
/// [`lu_solve_into`]'s body; [`sweep_rows_in_place`] gives every entry of
/// a multi-RHS block this same operation sequence.
fn substitute_in_place(lu: &Matrix, x: &mut [f64]) {
    let n = lu.rows();
    if n == 0 {
        return;
    }
    let rows = lu.as_slice().chunks_exact(n);
    for (i, row) in rows.clone().enumerate().skip(1) {
        let (done, rest) = x.split_at_mut(i);
        let mut xi = rest[0];
        for (&l, &xj) in row[..i].iter().zip(done.iter()) {
            xi -= l * xj;
        }
        rest[0] = xi;
    }
    for (i, row) in rows.enumerate().rev() {
        let (head, tail) = x.split_at_mut(i + 1);
        let mut xi = head[i];
        for (&u, &xj) in row[i + 1..].iter().zip(tail.iter()) {
            xi -= u * xj;
        }
        head[i] = xi / row[i];
    }
}

/// The multi-RHS substitution body: `x` is an `n × c` row-major block of
/// `c` permuted right-hand sides, solved in place against the packed
/// factors. The forward pass has row `i` subtract `L[i][j] · x[j, :]` for
/// ascending `j < i`; the back pass has row `i` subtract
/// `U[i][j] · x[j, :]` for ascending `j > i`, then divide by `U[i][i]`.
/// Each entry of `x` therefore sees exactly the operations, in the order,
/// that [`substitute_in_place`] gives its column, so the result is
/// bit-identical to solving the columns one at a time; the innermost loop
/// runs along a row of `x` with no dependency between its entries, so it
/// vectorizes.
fn sweep_rows_in_place(lu: &Matrix, x: &mut [f64], c: usize) {
    let n = lu.rows();
    debug_assert_eq!(x.len(), n * c);
    if n == 0 || c == 0 {
        return;
    }
    let rows = lu.as_slice().chunks_exact(n);
    for (i, row) in rows.clone().enumerate().skip(1) {
        let (done, rest) = x.split_at_mut(i * c);
        let x_i = &mut rest[..c];
        for (&l, x_j) in row[..i].iter().zip(done.chunks_exact(c)) {
            for (xi, &xj) in x_i.iter_mut().zip(x_j) {
                *xi -= l * xj;
            }
        }
    }
    for (i, row) in rows.enumerate().rev() {
        let (head, tail) = x.split_at_mut((i + 1) * c);
        let x_i = &mut head[i * c..];
        for (&u, x_j) in row[i + 1..].iter().zip(tail.chunks_exact(c)) {
            for (xi, &xj) in x_i.iter_mut().zip(x_j) {
                *xi -= u * xj;
            }
        }
        let d = row[i];
        for xi in x_i.iter_mut() {
            *xi /= d;
        }
    }
}

/// Factors `a` as `P A = L U` into caller-owned storage (factor once,
/// solve many with [`lu_solve_into`], [`lu_solve_cols_into`],
/// [`lu_solve_rows_into`], or [`lu_inverse_into`]).
///
/// [`Lu::factor`] is this kernel on fresh storage; here `lu` and
/// `pivots` reuse the caller's capacity instead of allocating. It copies
/// `a` into `lu` and runs [`lu_factor_in_place`] there, so both give the
/// same bits.
///
/// # Errors
///
/// Same conditions as [`Lu::factor`]: [`LinalgError::NotSquare`],
/// [`LinalgError::NonFinite`], or [`LinalgError::Singular`].
pub fn lu_factor_into(
    a: &Matrix,
    lu: &mut Matrix,
    pivots: &mut Vec<usize>,
) -> Result<(), LinalgError> {
    lu.copy_from(a);
    lu_factor_in_place(lu, pivots)
}

/// Factors `a` as `P A = L U` over its own storage, for a caller that has
/// no further use for `a`: on success `a` holds the factors
/// [`lu_factor_into`] would have written (the same bits), and on error
/// its contents are unspecified.
///
/// Step `k` picks the first row at or below `k` with the largest
/// `|entry|` in column `k`, swaps it up, and updates every row below as
/// `row_i[j] -= factor · row_k[j]` over row slices. A row whose factor is
/// zero skips its update where that is exact (see
/// `zero_factor_skips_are_exact`): the factors are the same bits as with
/// every update done.
///
/// # Errors
///
/// Same conditions as [`Lu::factor`]: [`LinalgError::NotSquare`],
/// [`LinalgError::NonFinite`], or [`LinalgError::Singular`].
pub fn lu_factor_in_place(a: &mut Matrix, pivots: &mut Vec<usize>) -> Result<(), LinalgError> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            dims: (a.rows(), a.cols()),
        });
    }
    if !a.as_slice().iter().all(|v| v.is_finite()) {
        return Err(LinalgError::NonFinite { site: "linalg.lu" });
    }
    cyclesteal_obs::counter!("linalg.lu.factor");
    cyclesteal_obs::histogram!("linalg.lu.dim", a.rows() as u64);
    let n = a.rows();
    pivots.clear();
    pivots.extend(0..n);
    let data = a.as_mut_slice();
    let skips = zero_factor_skips_are_exact(data);

    for k in 0..n {
        // Partial pivoting: the first row at/below k with the largest
        // |entry| in column k.
        let mut p = k;
        let mut best = data[k * n + k].abs();
        for (i, &v) in data[k * n + k..].iter().step_by(n).enumerate().skip(1) {
            let v = v.abs();
            if v > best {
                best = v;
                p = k + i;
            }
        }
        if best <= PIVOT_TOL {
            return Err(LinalgError::Singular);
        }
        if p != k {
            let (top, bottom) = data.split_at_mut(p * n);
            top[k * n..(k + 1) * n].swap_with_slice(&mut bottom[..n]);
            pivots.swap(k, p);
        }
        // Eliminate below the pivot: row_i[j] -= factor · row_k[j] for
        // j > k, each row in turn.
        let (top, bottom) = data.split_at_mut((k + 1) * n);
        let row_k = &top[k * n..];
        let pivot = row_k[k];
        let skip_zero = skips && row_k[k + 1..].iter().all(|u| u.is_finite());
        for row_i in bottom.chunks_exact_mut(n) {
            let factor = row_i[k] / pivot;
            row_i[k] = factor;
            if skip_zero && factor == 0.0 {
                continue;
            }
            for (x, &u) in row_i[k + 1..].iter_mut().zip(&row_k[k + 1..]) {
                *x -= factor * u;
            }
        }
    }
    Ok(())
}

/// Whether an LU elimination of `data` may skip the update of a row whose
/// factor is zero (at a step whose pivot row is finite) without changing
/// a bit. The update is `x - 0·u`, which equals `x` unless `x` is `-0.0`
/// and the product is `-0.0` (the difference is then `+0.0`). The
/// elimination never creates a `-0.0` — `x - y` is `-0.0` only when `x`
/// already is — so when the input holds no `-0.0`, no updated entry ever
/// does, and every such skip is exact. Structural zeros make these skips
/// the common case on the QBD blocks.
pub(crate) fn zero_factor_skips_are_exact(data: &[f64]) -> bool {
    const NEG_ZERO: u64 = 1 << 63;
    // A full fold rather than an early-exit search, so it vectorizes.
    !data
        .iter()
        .fold(false, |seen, x| seen | (x.to_bits() == NEG_ZERO))
}

/// Solves `A x = b` into caller storage using factors from
/// [`lu_factor_into`]; [`Lu::solve`] is this kernel on a fresh vector.
///
/// # Panics
///
/// Panics if `b.len()`, `x.len()`, or `pivots.len()` disagree with the
/// factored dimension.
pub fn lu_solve_into(lu: &Matrix, pivots: &[usize], b: &[f64], x: &mut [f64]) {
    let n = lu.rows();
    assert_eq!(b.len(), n, "lu_solve_into: rhs length mismatch");
    assert_eq!(x.len(), n, "lu_solve_into: output length mismatch");
    assert_eq!(pivots.len(), n, "lu_solve_into: pivot length mismatch");
    for (xi, &p) in x.iter_mut().zip(pivots) {
        *xi = b[p];
    }
    substitute_in_place(lu, x);
}

/// Multi-RHS solve `out = A⁻¹ B`, using factors of `A` from
/// [`lu_factor_into`]: the rows of `B` are gathered into `out` in pivot
/// order and every column is substituted at once, a row of `out` at a
/// time. `out` is reshaped to `B`'s shape. This replaces the
/// `inverse()`-then-`mul` pattern; each column's bits are those of a
/// one-column [`lu_solve_into`].
///
/// # Errors
///
/// Returns [`LinalgError::DimensionMismatch`] if `b.rows()` differs from
/// the factored dimension.
pub fn lu_solve_cols_into(
    lu: &Matrix,
    pivots: &[usize],
    b: &Matrix,
    out: &mut Matrix,
) -> Result<(), LinalgError> {
    let n = lu.rows();
    if b.rows() != n {
        return Err(LinalgError::DimensionMismatch {
            op: "lu_solve_cols",
            lhs: (n, n),
            rhs: (b.rows(), b.cols()),
        });
    }
    let c = b.cols();
    out.reshape(n, c);
    for (i, &p) in pivots.iter().enumerate() {
        out.row_mut(i).copy_from_slice(b.row(p));
    }
    sweep_rows_in_place(lu, out.as_mut_slice(), c);
    Ok(())
}

/// Multi-RHS right-division `out = B A⁻¹`, using factors of the
/// **transpose** `Aᵀ` from [`lu_factor_into`] (because
/// `X A = B  ⟺  Aᵀ Xᵀ = Bᵀ`, each row of `X` is one triangular solve
/// against the transposed factors). `Bᵀ` is gathered in pivot order into
/// the caller's scratch `x` (grown to `n × rows`, then reused), swept
/// like [`lu_solve_cols_into`], and transposed back into `out`, which is
/// reshaped to `B`'s shape.
///
/// # Errors
///
/// Returns [`LinalgError::DimensionMismatch`] if `b.cols()` differs from
/// the factored dimension.
pub fn lu_solve_rows_into(
    lu_t: &Matrix,
    pivots: &[usize],
    b: &Matrix,
    out: &mut Matrix,
    x: &mut Vec<f64>,
) -> Result<(), LinalgError> {
    let n = lu_t.rows();
    if b.cols() != n {
        return Err(LinalgError::DimensionMismatch {
            op: "lu_solve_rows",
            lhs: (n, n),
            rhs: (b.rows(), b.cols()),
        });
    }
    let r = b.rows();
    out.reshape(r, n);
    x.clear();
    x.resize(n * r, 0.0);
    if r == 0 {
        return Ok(());
    }
    let src = b.as_slice();
    for (x_k, &p) in x.chunks_exact_mut(r).zip(pivots) {
        for (xk, &v) in x_k.iter_mut().zip(src[p..].iter().step_by(n)) {
            *xk = v;
        }
    }
    sweep_rows_in_place(lu_t, x, r);
    for (k, x_k) in x.chunks_exact(r).enumerate() {
        for (o, &v) in out.as_mut_slice()[k..].iter_mut().step_by(n).zip(x_k) {
            *o = v;
        }
    }
    Ok(())
}

/// Inverse into caller storage using factors from [`lu_factor_into`];
/// [`Lu::inverse`] is this kernel on fresh storage. Row `i` of `out`
/// starts as the unit row `e_{pivots[i]}` (the permuted identity), and
/// the whole block is swept like [`lu_solve_cols_into`].
pub fn lu_inverse_into(lu: &Matrix, pivots: &[usize], out: &mut Matrix) {
    let n = lu.rows();
    out.reshape(n, n);
    for (i, &p) in pivots.iter().enumerate() {
        out.row_mut(i)[p] = 1.0;
    }
    sweep_rows_in_place(lu, out.as_mut_slice(), n);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_known_system() {
        let a =
            Matrix::from_rows(&[&[2.0, 1.0, -1.0], &[-3.0, -1.0, 2.0], &[-2.0, 1.0, 2.0]]).unwrap();
        let x = a.solve(&[8.0, -11.0, -3.0]).unwrap();
        let expect = [2.0, 3.0, -1.0];
        for (xi, ei) in x.iter().zip(expect) {
            assert!((xi - ei).abs() < 1e-12, "{x:?}");
        }
    }

    #[test]
    fn singular_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert_eq!(a.lu().unwrap_err(), LinalgError::Singular);
    }

    #[test]
    fn rectangular_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(a.lu(), Err(LinalgError::NotSquare { .. })));
    }

    #[test]
    fn determinant() {
        let a = Matrix::from_rows(&[&[3.0, 8.0], &[4.0, 6.0]]).unwrap();
        assert!((a.lu().unwrap().det() - (-14.0)).abs() < 1e-12);
        // Permutation flips the sign correctly.
        let p = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        assert!((p.lu().unwrap().det() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn inverse_roundtrip() {
        let a = Matrix::from_rows(&[&[4.0, 7.0], &[2.0, 6.0]]).unwrap();
        let inv = a.inverse().unwrap();
        let prod = &a * &inv;
        let id = Matrix::identity(2);
        assert!((&prod - &id).max_abs() < 1e-12);
    }

    #[test]
    fn non_finite_input_is_caught_at_the_boundary() {
        let a = Matrix::from_rows(&[&[1.0, f64::NAN], &[0.0, 1.0]]).unwrap();
        assert_eq!(
            a.lu().unwrap_err(),
            LinalgError::NonFinite { site: "linalg.lu" }
        );
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[f64::INFINITY, 1.0]]).unwrap();
        assert!(matches!(b.lu(), Err(LinalgError::NonFinite { .. })));
    }

    #[test]
    fn solve_wrong_rhs_len() {
        let a = Matrix::identity(3);
        let lu = a.lu().unwrap();
        assert!(matches!(
            lu.solve(&[1.0, 2.0]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    fn fixture() -> Matrix {
        Matrix::from_rows(&[&[0.0, 2.0, 1.0], &[1.0, 1.0, -1.0], &[3.0, 0.5, 2.0]]).unwrap()
    }

    #[test]
    fn factor_into_matches_factor_bitwise() {
        let a = fixture();
        let reference = Lu::factor(&a).unwrap();
        let mut lu = Matrix::zeros(1, 1);
        let mut piv = vec![99; 7]; // dirty, wrongly-sized scratch
        lu_factor_into(&a, &mut lu, &mut piv).unwrap();
        assert_eq!(lu.as_slice(), reference.lu.as_slice());
        assert_eq!(piv, reference.pivots);
        // Solves through the caller-owned factors are bit-identical too.
        let b = [1.0, -2.0, 0.5];
        let expect = reference.solve(&b).unwrap();
        let mut x = [0.0; 3];
        lu_solve_into(&lu, &piv, &b, &mut x);
        assert_eq!(x.to_vec(), expect);
    }

    #[test]
    fn factor_into_reports_same_errors_as_factor() {
        let mut lu = Matrix::zeros(1, 1);
        let mut piv = Vec::new();
        let rect = Matrix::zeros(2, 3);
        assert!(matches!(
            lu_factor_into(&rect, &mut lu, &mut piv),
            Err(LinalgError::NotSquare { .. })
        ));
        let sing = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert_eq!(
            lu_factor_into(&sing, &mut lu, &mut piv).unwrap_err(),
            LinalgError::Singular
        );
        let nan = Matrix::from_rows(&[&[1.0, f64::NAN], &[0.0, 1.0]]).unwrap();
        assert_eq!(
            lu_factor_into(&nan, &mut lu, &mut piv).unwrap_err(),
            LinalgError::NonFinite { site: "linalg.lu" }
        );
    }

    #[test]
    fn solve_cols_into_matches_inverse_mul() {
        let a = fixture();
        let b = Matrix::from_rows(&[&[1.0, 0.5], &[2.0, -1.0], &[0.0, 3.0]]).unwrap();
        let mut lu = Matrix::zeros(1, 1);
        let mut piv = Vec::new();
        lu_factor_into(&a, &mut lu, &mut piv).unwrap();
        let mut out = Matrix::zeros(1, 1);
        lu_solve_cols_into(&lu, &piv, &b, &mut out).unwrap();
        // out solves A X = B: residual check is exact up to roundoff.
        let back = a.mul(&out).unwrap();
        assert!(back.sub(&b).unwrap().max_abs() < 1e-12, "{back:?}");
        // Wrong-height rhs is rejected.
        let bad = Matrix::zeros(2, 2);
        assert!(lu_solve_cols_into(&lu, &piv, &bad, &mut out).is_err());
    }

    #[test]
    fn solve_rows_into_matches_right_division() {
        let a = fixture();
        let b = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[-0.5, 0.25, 4.0]]).unwrap();
        let at = a.transpose();
        let mut lu_t = Matrix::zeros(1, 1);
        let mut piv = Vec::new();
        lu_factor_into(&at, &mut lu_t, &mut piv).unwrap();
        let mut out = Matrix::zeros(1, 1);
        let mut x = Vec::new();
        lu_solve_rows_into(&lu_t, &piv, &b, &mut out, &mut x).unwrap();
        // out solves X A = B.
        let back = out.mul(&a).unwrap();
        assert!(back.sub(&b).unwrap().max_abs() < 1e-12, "{back:?}");
        let bad = Matrix::zeros(2, 2);
        assert!(lu_solve_rows_into(&lu_t, &piv, &bad, &mut out, &mut x).is_err());
    }

    #[test]
    fn inverse_into_is_bit_identical_to_inverse() {
        let a = fixture();
        let reference = Lu::factor(&a).unwrap();
        let expect = reference.inverse().unwrap();
        let mut lu = Matrix::zeros(1, 1);
        let mut piv = Vec::new();
        lu_factor_into(&a, &mut lu, &mut piv).unwrap();
        // Dirty, wrongly-shaped output storage must not influence the result.
        let mut out = Matrix::zeros(2, 5);
        out[(0, 0)] = 123.0;
        lu_inverse_into(&lu, &piv, &mut out);
        assert_eq!(out.as_slice(), expect.as_slice());
    }
}
