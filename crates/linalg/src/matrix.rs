use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

use crate::{LinalgError, Lu, Workspace};

/// A dense, row-major matrix of `f64`.
///
/// Sized for the small phase spaces of matrix-analytic queueing models;
/// all operations are `O(n³)` or better with no attempt at blocking.
///
/// # Examples
///
/// ```
/// use cyclesteal_linalg::Matrix;
///
/// # fn main() -> Result<(), cyclesteal_linalg::LinalgError> {
/// let a = Matrix::identity(3);
/// let b = &a + &a;
/// assert_eq!(b[(1, 1)], 2.0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a slice of row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::RaggedRows`] if the rows have different lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, LinalgError> {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        if rows.iter().any(|r| r.len() != ncols) {
            return Err(LinalgError::RaggedRows);
        }
        let mut data = Vec::with_capacity(nrows * ncols);
        for r in rows {
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: nrows,
            cols: ncols,
            data,
        })
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "from_vec: wrong data length");
        Matrix { rows, cols, data }
    }

    /// Creates a diagonal matrix from the given diagonal entries.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index out of bounds");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index out of bounds");
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The flat row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The flat row-major data, mutably.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Entries the buffer holds without reallocating.
    pub(crate) fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Sum of each row, as a vector of length `rows`.
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.rows).map(|i| self.row(i).iter().sum()).collect()
    }

    /// The transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        self.transpose_into(&mut t);
        t
    }

    /// Writes the transpose into `out`, reusing its capacity.
    pub fn transpose_into(&self, out: &mut Matrix) {
        out.reshape(self.cols, self.rows);
        if self.rows == 0 {
            return;
        }
        // Row `j` of the transpose is column `j` of `self`: a strided walk
        // down the source, written contiguously.
        for (j, out_row) in out.data.chunks_exact_mut(self.rows).enumerate() {
            for (o, &v) in out_row
                .iter_mut()
                .zip(self.data[j..].iter().step_by(self.cols))
            {
                *o = v;
            }
        }
    }

    /// Resizes to `rows x cols` and zero-fills, reusing the existing
    /// allocation when its capacity suffices.
    pub fn reshape(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Overwrites `self` with a copy of `src` (adopting its shape),
    /// reusing the existing allocation when its capacity suffices.
    pub fn copy_from(&mut self, src: &Matrix) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Multiplies by a scalar, returning a new matrix.
    pub fn scale(&self, k: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| x * k).collect(),
        }
    }

    /// Matrix-vector product `self * v` (treating `v` as a column).
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != cols`.
    pub fn mul_vec(&self, v: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.rows];
        self.mul_vec_into(v, &mut out);
        out
    }

    /// Matrix-vector product `self * v` written into `out`, with the same
    /// per-row dot products as [`Matrix::mul_vec`].
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != cols` or `out.len() != rows`.
    pub fn mul_vec_into(&self, v: &[f64], out: &mut [f64]) {
        assert_eq!(v.len(), self.cols, "mul_vec: length mismatch");
        assert_eq!(out.len(), self.rows, "mul_vec: output length mismatch");
        for (i, o) in out.iter_mut().enumerate() {
            *o = crate::dot(self.row(i), v);
        }
    }

    /// Row-vector-matrix product `v * self`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != rows`.
    pub fn vec_mul(&self, v: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.cols];
        self.vec_mul_into(v, &mut out);
        out
    }

    /// Row-vector-matrix product `v * self` written into `out`, with the
    /// same accumulation order as [`Matrix::vec_mul`].
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != rows` or `out.len() != cols`.
    pub fn vec_mul_into(&self, v: &[f64], out: &mut [f64]) {
        assert_eq!(v.len(), self.rows, "vec_mul: length mismatch");
        assert_eq!(out.len(), self.cols, "vec_mul: output length mismatch");
        out.fill(0.0);
        for (i, &vi) in v.iter().enumerate() {
            if vi == 0.0 {
                continue;
            }
            for (o, &m) in out.iter_mut().zip(self.row(i)) {
                *o += vi * m;
            }
        }
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `self.cols != rhs.rows`.
    pub fn mul(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != rhs.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "mul",
                lhs: (self.rows, self.cols),
                rhs: (rhs.rows, rhs.cols),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.mul_into(rhs, &mut out)?;
        Ok(out)
    }

    /// Matrix product `self * rhs` written into `out` (reusing its
    /// capacity); [`Matrix::mul`] is this kernel on a fresh output.
    ///
    /// Each `out[i][j]` starts at `0.0` and adds `a[i][k] * rhs[k][j]` in
    /// ascending `k`, skipping the `k` where `a[i][k] == 0.0`. The loops
    /// run `i → k → j` over row slices, so the innermost update is a
    /// bounds-check-free `axpy` of row `k` of `rhs` into row `i` of `out`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `self.cols != rhs.rows`.
    pub fn mul_into(&self, rhs: &Matrix, out: &mut Matrix) -> Result<(), LinalgError> {
        if self.cols != rhs.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "mul",
                lhs: (self.rows, self.cols),
                rhs: (rhs.rows, rhs.cols),
            });
        }
        out.reshape(self.rows, rhs.cols);
        if rhs.cols == 0 || self.cols == 0 {
            return Ok(());
        }
        let rhs_rows = rhs.data.chunks_exact(rhs.cols);
        for (out_row, a_row) in out
            .data
            .chunks_exact_mut(rhs.cols)
            .zip(self.data.chunks_exact(self.cols))
        {
            for (&a, r_row) in a_row.iter().zip(rhs_rows.clone()) {
                if a == 0.0 {
                    continue;
                }
                for (o, &r) in out_row.iter_mut().zip(r_row) {
                    *o += a * r;
                }
            }
        }
        Ok(())
    }

    /// Element-wise addition.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] on shape mismatch.
    pub fn add(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        self.zip_with(rhs, "add", |a, b| a + b)
    }

    /// In-place element-wise addition `self += rhs`, with the same
    /// per-element `a + b` evaluation as [`Matrix::add`].
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] on shape mismatch.
    pub fn add_assign(&mut self, rhs: &Matrix) -> Result<(), LinalgError> {
        if self.rows != rhs.rows || self.cols != rhs.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "add",
                lhs: (self.rows, self.cols),
                rhs: (rhs.rows, rhs.cols),
            });
        }
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
        Ok(())
    }

    /// Element-wise subtraction `self - rhs` written into `out` (reusing
    /// its capacity), with the same per-element `a - b` evaluation as
    /// [`Matrix::sub`].
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] on shape mismatch.
    pub fn sub_into(&self, rhs: &Matrix, out: &mut Matrix) -> Result<(), LinalgError> {
        if self.rows != rhs.rows || self.cols != rhs.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "sub",
                lhs: (self.rows, self.cols),
                rhs: (rhs.rows, rhs.cols),
            });
        }
        out.reshape(self.rows, self.cols);
        for (o, (&a, &b)) in out.data.iter_mut().zip(self.data.iter().zip(&rhs.data)) {
            *o = a - b;
        }
        Ok(())
    }

    /// In-place scalar multiplication, with the same per-element `x * k`
    /// evaluation as [`Matrix::scale`].
    pub fn scale_assign(&mut self, k: f64) {
        for x in &mut self.data {
            *x *= k;
        }
    }

    /// In-place scaled addition `self += alpha * rhs`. Each element is
    /// updated as `a + (b * alpha)`, which is bit-identical to
    /// `self.add(&rhs.scale(alpha))`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] on shape mismatch.
    pub fn axpy(&mut self, alpha: f64, rhs: &Matrix) -> Result<(), LinalgError> {
        if self.rows != rhs.rows || self.cols != rhs.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "add",
                lhs: (self.rows, self.cols),
                rhs: (rhs.rows, rhs.cols),
            });
        }
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b * alpha;
        }
        Ok(())
    }

    /// Element-wise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] on shape mismatch.
    pub fn sub(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        self.zip_with(rhs, "sub", |a, b| a - b)
    }

    fn zip_with(
        &self,
        rhs: &Matrix,
        op: &'static str,
        f: impl Fn(f64, f64) -> f64,
    ) -> Result<Matrix, LinalgError> {
        if self.rows != rhs.rows || self.cols != rhs.cols {
            return Err(LinalgError::DimensionMismatch {
                op,
                lhs: (self.rows, self.cols),
                rhs: (rhs.rows, rhs.cols),
            });
        }
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// LU factorization with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for rectangular input and
    /// [`LinalgError::Singular`] if a pivot vanishes.
    pub fn lu(&self) -> Result<Lu, LinalgError> {
        Lu::factor(self)
    }

    /// Solves `self * x = b`.
    ///
    /// # Errors
    ///
    /// Propagates factorization errors (non-square or singular matrices).
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        self.lu()?.solve(b)
    }

    /// Solves `x * self = b` (a left, row-vector system).
    ///
    /// # Errors
    ///
    /// Propagates factorization errors (non-square or singular matrices).
    pub fn solve_left(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        self.transpose().solve(b)
    }

    /// The matrix inverse.
    ///
    /// # Errors
    ///
    /// Propagates factorization errors (non-square or singular matrices).
    pub fn inverse(&self) -> Result<Matrix, LinalgError> {
        self.lu()?.inverse()
    }

    /// Infinity norm (maximum absolute row sum).
    pub fn norm_inf(&self) -> f64 {
        (0..self.rows)
            .map(|i| self.row(i).iter().map(|x| x.abs()).sum())
            .fold(0.0, f64::max)
    }

    /// Largest absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().map(|x| x.abs()).fold(0.0, f64::max)
    }

    /// Estimates the spectral radius by power iteration on `|A|`.
    ///
    /// Adequate for the nonnegative rate matrices `R` of QBD processes where
    /// it certifies `sp(R) < 1`. Returns 0 for an empty matrix. `iters` is
    /// a budget, not a mandate: the iteration exits early once the estimate
    /// stops moving (see [`Matrix::spectral_radius_estimate_converged`]).
    pub fn spectral_radius_estimate(&self, iters: usize) -> f64 {
        self.spectral_radius_estimate_converged(iters).0
    }

    /// Power-iteration spectral radius estimate with a relative-tolerance
    /// early exit, returning `(estimate, iterations_taken)`.
    ///
    /// The iteration stops as soon as two consecutive estimates agree to a
    /// relative tolerance of [`SPECTRAL_RADIUS_RTOL`], or when `max_iters`
    /// is exhausted, whichever comes first. Allocates three buffers per
    /// call (the two iteration vectors and `|A|ᵀ`); see
    /// [`Matrix::spectral_radius_estimate_in`] for the pooled form.
    ///
    /// Two agreeing estimates can be a transient, so the result is neither
    /// an upper nor a lower bound on the spectral radius. A 6 × 6 matrix
    /// with entries `1e200` on `0 → 1 → 2 → 3` (row 3 zero), `1e-200` on
    /// `4 → 0` and a self-loop of 1.5 on 4 has spectral radius 1.5, yet
    /// returns `(1e200, 3)`: the nilpotent chain's equal entries make the
    /// second and third estimates agree before its iterate dies out. The
    /// QBD solve's `sp(R) < 1` test rests on
    /// [`Matrix::spectral_radius_below_in`] whenever that certifies, which
    /// is a proof; only when it does not does this estimate decide.
    pub fn spectral_radius_estimate_converged(&self, max_iters: usize) -> (f64, usize) {
        self.spectral_radius_estimate_in(max_iters, &mut Workspace::new())
    }

    /// [`Matrix::spectral_radius_estimate_converged`] with its three
    /// buffers borrowed from `ws`, so a warm workspace allocates nothing.
    ///
    /// Each step forms `w = |A| v` with every `w[i]` summed in ascending
    /// `j` from `0.0`. The sum runs as `n` column sweeps — `w += v[j] ·
    /// |A|ᵀ[j]` — over a transposed copy of `|A|` made once per call, so
    /// the inner loop is a contiguous, vectorizable update of all of `w`
    /// while each `w[i]` still sees its terms in the same order.
    pub fn spectral_radius_estimate_in(
        &self,
        max_iters: usize,
        ws: &mut Workspace,
    ) -> (f64, usize) {
        match self.power_iterate_in(None, max_iters, ws) {
            SpectralBound::Estimate { value, iterations } => (value, iterations),
            SpectralBound::Below { .. } => unreachable!("no bound was asked for"),
        }
    }

    /// The power iteration of [`Matrix::spectral_radius_estimate_in`],
    /// stopped as soon as a Collatz–Wielandt bound proves that neither
    /// `sp(|A|)` nor any estimate the full iteration would return reaches
    /// `bound`. Without such a proof it runs on unchanged and returns the
    /// full estimate, bit for bit.
    ///
    /// # The certificate
    ///
    /// For a nonnegative `B = |A|` and a vector `v > 0`,
    /// `sp(B) ≤ max_i (Bv)_i / v_i` (Collatz–Wielandt). Each step already
    /// forms `w = fl(Bv)` from the current iterate `v`, so the bound
    /// costs `n` divisions. A row of `A` that is all zeros (`±0.0`) adds
    /// nothing to `sp(B)` and has `w_i = 0`, so it is left out. Any other
    /// row with `v_i` below the smallest normal number blocks the
    /// certificate at that step: with `v_i = 0` and `(Bv)_i > 0` the
    /// ratio is infinite.
    ///
    /// If `Bv ≤ c·v` componentwise, then `B(Bv) ≤ c·Bv`, so every later
    /// power iterate keeps the property, and each estimate the iteration
    /// returns, `max_i (By)_i` over an iterate `y` with `max_i y_i ≤ 1`,
    /// is at most `c`. Rounding loosens this. With `u = 2⁻⁵³`, a sum of
    /// `n` nonnegative products is within a factor `1 ± γ_n`,
    /// `γ_n = nu / (1 − nu)`, of its exact value, and the normalizing
    /// division adds `1 ± u`. So one step can raise `c` by a factor of at
    /// most `(1 + u)(1 + γ_n) / ((1 − u)(1 − γ_n)) ≈ 1 + 2(n + 1)u`, and
    /// the computed ratio may sit below the exact one by a factor
    /// `1 − γ_n − u`. Gradual underflow adds an absolute error: a product
    /// below `2⁻¹⁰²²` loses up to `2⁻¹⁰⁷⁵`, which a normal `v_i` turns
    /// into at most `u` of ratio, `(n + 1)u` per row. Over at most
    /// `max_iters` later steps, every estimate stays below
    /// `c·(1 + 2(n + 1)(max_iters + 1)u)` to first order (n·u per step,
    /// twice). The test uses twice that, `slack = 4(n + 2)(max_iters +
    /// 2)u`, and certifies once every computed ratio is below
    /// `bound / (1 + slack) − slack`; the `− slack` covers the absolute
    /// underflow term. For `n ≤ 1024` and 200 steps, `slack` is below
    /// `9.3e-11`, a tenth of the solver's `1e-9` margin, and the
    /// first-order terms dwarf the dropped ones. The argument assumes no
    /// product of a *later* step underflows: an iterate entry that decays
    /// past `2⁻¹⁰²²` loses its relative error bound.
    ///
    /// The buffers are the three of
    /// [`Matrix::spectral_radius_estimate_in`], borrowed from `ws`.
    pub fn spectral_radius_below_in(
        &self,
        bound: f64,
        max_iters: usize,
        ws: &mut Workspace,
    ) -> SpectralBound {
        self.power_iterate_in(Some(bound), max_iters, ws)
    }

    fn power_iterate_in(
        &self,
        bound: Option<f64>,
        max_iters: usize,
        ws: &mut Workspace,
    ) -> SpectralBound {
        if self.rows == 0 || !self.is_square() {
            return SpectralBound::Estimate {
                value: 0.0,
                iterations: 0,
            };
        }
        let n = self.rows;
        let mut abs_t = ws.take_mat(n, n);
        self.transpose_into(&mut abs_t);
        for x in &mut abs_t.data {
            *x = x.abs();
        }
        let mut v = ws.take_vec(n);
        v.fill(1.0 / n as f64);
        let mut w = ws.take_vec(n);
        let limit = bound.map(|bound| {
            let slack = 4.0 * (n as f64 + 2.0) * (max_iters as f64 + 2.0) * (f64::EPSILON / 2.0);
            bound / (1.0 + slack) - slack
        });
        let result = power_iterate(self, &abs_t, limit, max_iters, &mut v, &mut w);
        ws.give_mat(abs_t);
        ws.give_vec(v);
        ws.give_vec(w);
        result
    }
}

/// What [`Matrix::spectral_radius_below_in`] found.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpectralBound {
    /// After `steps` power steps, a Collatz–Wielandt bound proved the
    /// spectral radius, and every estimate the full iteration would
    /// return, below the bound.
    Below {
        /// Power steps taken (each one product `|A| v`).
        steps: usize,
    },
    /// No proof: the full estimate, the bits and iteration count of
    /// [`Matrix::spectral_radius_estimate_in`].
    Estimate {
        /// The spectral radius estimate.
        value: f64,
        /// Power steps taken.
        iterations: usize,
    },
}

/// The power iteration of [`Matrix::spectral_radius_estimate_in`] on a
/// precomputed `|A|ᵀ`, from the start vector in `v`. With a `limit`,
/// each step first checks the Collatz–Wielandt ratios of `w = |A| v`
/// against it (see [`Matrix::spectral_radius_below_in`]).
fn power_iterate(
    a: &Matrix,
    abs_t: &Matrix,
    limit: Option<f64>,
    max_iters: usize,
    v: &mut Vec<f64>,
    w: &mut Vec<f64>,
) -> SpectralBound {
    let n = abs_t.rows;
    let mut lambda = 0.0;
    let estimate = |value, iterations| SpectralBound::Estimate { value, iterations };
    for it in 0..max_iters {
        w.fill(0.0);
        for (col, &vj) in abs_t.data.chunks_exact(n).zip(v.iter()) {
            for (wi, &a) in w.iter_mut().zip(col) {
                *wi += a * vj;
            }
        }
        if limit.is_some_and(|limit| ratios_below(a, v, w, limit)) {
            return SpectralBound::Below { steps: it + 1 };
        }
        let norm: f64 = w.iter().map(|x| x.abs()).fold(0.0, f64::max);
        if norm == 0.0 {
            return estimate(0.0, it + 1);
        }
        for x in w.iter_mut() {
            *x /= norm;
        }
        let prev = lambda;
        lambda = norm;
        std::mem::swap(v, w);
        if it > 0 && (lambda - prev).abs() <= SPECTRAL_RADIUS_RTOL * lambda.abs() {
            return estimate(lambda, it + 1);
        }
    }
    estimate(lambda, max_iters)
}

/// Whether `w_i / v_i < limit` on every row of `a` that is not all zeros,
/// each such `v_i` being a normal number. A NaN ratio fails.
fn ratios_below(a: &Matrix, v: &[f64], w: &[f64], limit: f64) -> bool {
    v.iter().zip(w).enumerate().all(|(i, (&vi, &wi))| {
        if vi >= f64::MIN_POSITIVE {
            wi / vi < limit
        } else {
            a.row(i).iter().all(|&x| x == 0.0)
        }
    })
}

/// Relative tolerance for the early exit of
/// [`Matrix::spectral_radius_estimate_converged`]: consecutive estimates
/// agreeing to ~100 ULPs are considered converged. Tight enough that the
/// stability check `sp(R) < 1 - 1e-9` in the QBD solver is unaffected.
pub const SPECTRAL_RADIUS_RTOL: f64 = 1e-13;

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(i < self.rows && j < self.cols, "matrix index out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(i < self.rows && j < self.cols, "matrix index out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  [")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:>12.6}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        write!(f, "]")
    }
}

impl Add for &Matrix {
    type Output = Matrix;

    /// # Panics
    ///
    /// Panics on shape mismatch; use [`Matrix::add`] for a fallible version.
    fn add(self, rhs: &Matrix) -> Matrix {
        Matrix::add(self, rhs).expect("matrix add: shape mismatch")
    }
}

impl Sub for &Matrix {
    type Output = Matrix;

    /// # Panics
    ///
    /// Panics on shape mismatch; use [`Matrix::sub`] for a fallible version.
    fn sub(self, rhs: &Matrix) -> Matrix {
        Matrix::sub(self, rhs).expect("matrix sub: shape mismatch")
    }
}

impl Mul for &Matrix {
    type Output = Matrix;

    /// # Panics
    ///
    /// Panics on shape mismatch; use [`Matrix::mul`] for a fallible version.
    fn mul(self, rhs: &Matrix) -> Matrix {
        Matrix::mul(self, rhs).expect("matrix mul: shape mismatch")
    }
}

impl Neg for &Matrix {
    type Output = Matrix;

    fn neg(self) -> Matrix {
        self.scale(-1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m22(a: f64, b: f64, c: f64, d: f64) -> Matrix {
        Matrix::from_rows(&[&[a, b], &[c, d]]).unwrap()
    }

    #[test]
    fn construction_and_index() {
        let m = Matrix::identity(3);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(0, 1)], 0.0);
        assert!(m.is_square());
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 3);
    }

    #[test]
    fn ragged_rows_rejected() {
        let r = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
        assert_eq!(r.unwrap_err(), LinalgError::RaggedRows);
    }

    #[test]
    fn from_diag_places_entries() {
        let m = Matrix::from_diag(&[1.0, 2.0, 3.0]);
        assert_eq!(m[(1, 1)], 2.0);
        assert_eq!(m[(0, 1)], 0.0);
    }

    #[test]
    fn arithmetic() {
        let a = m22(1.0, 2.0, 3.0, 4.0);
        let b = m22(5.0, 6.0, 7.0, 8.0);
        let s = &a + &b;
        assert_eq!(s, m22(6.0, 8.0, 10.0, 12.0));
        let d = &b - &a;
        assert_eq!(d, m22(4.0, 4.0, 4.0, 4.0));
        let p = &a * &b;
        assert_eq!(p, m22(19.0, 22.0, 43.0, 50.0));
        assert_eq!((-&a)[(0, 0)], -1.0);
        assert_eq!(a.scale(2.0)[(1, 1)], 8.0);
    }

    #[test]
    fn mul_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.mul(&b),
            Err(LinalgError::DimensionMismatch { op: "mul", .. })
        ));
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let t = a.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn vector_products() {
        let a = m22(1.0, 2.0, 3.0, 4.0);
        assert_eq!(a.mul_vec(&[1.0, 1.0]), vec![3.0, 7.0]);
        assert_eq!(a.vec_mul(&[1.0, 1.0]), vec![4.0, 6.0]);
    }

    #[test]
    fn row_sums_and_norms() {
        let a = m22(1.0, -2.0, 3.0, 4.0);
        assert_eq!(a.row_sums(), vec![-1.0, 7.0]);
        assert_eq!(a.norm_inf(), 7.0);
        assert_eq!(a.max_abs(), 4.0);
    }

    #[test]
    fn solve_left_row_system() {
        // x * A = b  <=>  A^T x^T = b^T
        let a = m22(2.0, 0.0, 1.0, 3.0);
        let x = a.solve_left(&[5.0, 6.0]).unwrap();
        let back = a.vec_mul(&x);
        assert!((back[0] - 5.0).abs() < 1e-12);
        assert!((back[1] - 6.0).abs() < 1e-12);
    }

    #[test]
    fn spectral_radius_of_diagonal() {
        let a = Matrix::from_diag(&[0.5, 0.9]);
        let r = a.spectral_radius_estimate(100);
        assert!((r - 0.9).abs() < 1e-9, "r = {r}");
    }

    #[test]
    fn spectral_radius_zero_matrix() {
        assert_eq!(Matrix::zeros(3, 3).spectral_radius_estimate(10), 0.0);
    }

    #[test]
    fn spectral_radius_early_exit_takes_far_fewer_iterations_than_budget() {
        // A diagonal |A| converges in a handful of power iterations; with a
        // huge budget the early exit must fire long before it is exhausted.
        let a = Matrix::from_diag(&[0.5, 0.9]);
        let (r, iters) = a.spectral_radius_estimate_converged(1_000_000);
        assert!((r - 0.9).abs() < 1e-12, "r = {r}");
        assert!(iters < 200, "took {iters} iterations, expected early exit");
        // The budget is still honored as a hard cap.
        let (_, capped) = a.spectral_radius_estimate_converged(3);
        assert!(capped <= 3);
    }

    #[test]
    fn spectral_radius_estimate_unchanged_on_existing_fixtures() {
        // The early exit only fires once consecutive estimates agree to
        // ~1e-13 relative, so the values the solver sees are the same ones
        // the exhaustive iteration produced for the repo's fixtures.
        let diag = Matrix::from_diag(&[0.5, 0.9]);
        assert!((diag.spectral_radius_estimate(100) - 0.9).abs() < 1e-9);
        let dense = m22(0.2, 0.1, 0.05, 0.3);
        let budget = dense.spectral_radius_estimate(200);
        let huge = dense.spectral_radius_estimate(1_000_000);
        assert!(
            (budget - huge).abs() <= 1e-12 * budget.abs(),
            "estimate moved between budgets: {budget} vs {huge}"
        );
    }

    #[test]
    fn mul_into_is_bit_identical_to_mul() {
        let a = m22(1.5, -2.25, 0.0, 4.125);
        let b = m22(0.1, 0.2, 0.3, 0.4);
        let expect = a.mul(&b).unwrap();
        // A dirty, wrongly-shaped output buffer must not influence the result.
        let mut out = Matrix::from_rows(&[&[7.0, 7.0, 7.0]]).unwrap();
        a.mul_into(&b, &mut out).unwrap();
        assert_eq!(out.as_slice(), expect.as_slice());
        assert!(a.mul_into(&Matrix::zeros(3, 3), &mut out).is_err());
    }

    #[test]
    fn add_assign_sub_into_scale_assign_match_allocating_ops() {
        let a = m22(1.0, 2.0, 3.0, 4.0);
        let b = m22(0.5, -0.25, 0.125, 8.0);

        let mut acc = a.clone();
        acc.add_assign(&b).unwrap();
        assert_eq!(acc.as_slice(), a.add(&b).unwrap().as_slice());

        let mut out = Matrix::zeros(1, 1);
        a.sub_into(&b, &mut out).unwrap();
        assert_eq!(out.as_slice(), a.sub(&b).unwrap().as_slice());

        let mut sc = a.clone();
        sc.scale_assign(-3.5);
        assert_eq!(sc.as_slice(), a.scale(-3.5).as_slice());

        let wrong = Matrix::zeros(3, 2);
        assert!(acc.add_assign(&wrong).is_err());
        assert!(a.sub_into(&wrong, &mut out).is_err());
    }

    #[test]
    fn axpy_matches_add_of_scale() {
        let a = m22(1.0, 2.0, 3.0, 4.0);
        let b = m22(0.3, -0.7, 0.11, 5.0);
        let alpha = 1.0 / 3.0;
        let expect = a.add(&b.scale(alpha)).unwrap();
        let mut acc = a.clone();
        acc.axpy(alpha, &b).unwrap();
        assert_eq!(acc.as_slice(), expect.as_slice());
        assert!(acc.axpy(1.0, &Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn transpose_into_and_copy_from_reuse_buffers() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let mut t = Matrix::zeros(1, 1);
        a.transpose_into(&mut t);
        assert_eq!(t, a.transpose());

        let mut c = Matrix::zeros(5, 5);
        c.copy_from(&a);
        assert_eq!(c, a);

        let mut r = c;
        r.reshape(2, 2);
        assert_eq!(r.as_slice(), &[0.0; 4]);
    }

    #[test]
    fn vec_mul_into_matches_vec_mul() {
        let a = m22(1.0, 2.0, 0.0, 4.0);
        let v = [0.25, -1.5];
        let mut out = [9.0, 9.0];
        a.vec_mul_into(&v, &mut out);
        assert_eq!(out.to_vec(), a.vec_mul(&v));
    }

    #[test]
    fn debug_is_nonempty() {
        let s = format!("{:?}", Matrix::identity(2));
        assert!(s.contains("Matrix 2x2"));
    }
}
