//! Property-based tests for the dense linear algebra kernel, on the
//! in-tree `cyclesteal_xtest` property layer.
//!
//! The second half is a differential suite: the earlier indexed loop
//! nests of the hot kernels are kept below, verbatim up to using the
//! public accessors, as test-only oracles, and every slice- or
//! chunk-based kernel must reproduce its oracle **bit for bit** — over
//! shapes 0–90 (non-square products included), and matrices salted with
//! exact `0.0` and `-0.0` entries and unscaled rows that force pivot
//! swaps. The spectral-radius certificate is checked against the full
//! power iteration it stops early.

use cyclesteal_linalg::{
    dot, lu_factor_into, lu_inverse_into, lu_solve_cols_into, lu_solve_into, lu_solve_rows_into,
    max_abs_diff, LinalgError, Lu, Matrix, SpectralBound, Workspace, SPECTRAL_RADIUS_RTOL,
};
use cyclesteal_xtest::prop::{vec, Gen};
use cyclesteal_xtest::{props, RngExt, SeedableRng, SmallRng};

/// A generator producing well-conditioned square matrices: random entries
/// in [-1, 1] plus a dominant diagonal, which guarantees invertibility.
fn diag_dominant(n: usize) -> impl Gen<Value = Matrix> {
    vec(-1.0f64..1.0, n * n).prop_map(move |mut data: Vec<f64>| {
        for i in 0..n {
            data[i * n + i] += n as f64 + 1.0;
        }
        Matrix::from_vec(n, n, data)
    })
}

fn vector(n: usize) -> impl Gen<Value = Vec<f64>> {
    vec(-10.0f64..10.0, n)
}

props! {
    fn solve_then_multiply_recovers_rhs(a in diag_dominant(5), b in vector(5)) {
        let x = a.solve(&b).unwrap();
        let back = a.mul_vec(&x);
        assert!(max_abs_diff(&back, &b) < 1e-8);
    }

    fn inverse_is_two_sided(a in diag_dominant(4)) {
        let inv = a.inverse().unwrap();
        let id = Matrix::identity(4);
        assert!((&(&a * &inv) - &id).max_abs() < 1e-8);
        assert!((&(&inv * &a) - &id).max_abs() < 1e-8);
    }

    fn lu_det_matches_2x2_formula(a in -5.0f64..5.0, b in -5.0f64..5.0,
                                  c in -5.0f64..5.0, d in -5.0f64..5.0) {
        let m = Matrix::from_rows(&[&[a, b], &[c, d]]).unwrap();
        let expect = a * d - b * c;
        match m.lu() {
            Ok(lu) => assert!((lu.det() - expect).abs() < 1e-9 * (1.0 + expect.abs())),
            Err(_) => assert!(expect.abs() < 1e-6),
        }
    }

    fn transpose_preserves_mul(a in diag_dominant(3), b in diag_dominant(3)) {
        // (AB)^T = B^T A^T
        let lhs = (&a * &b).transpose();
        let rhs = &b.transpose() * &a.transpose();
        assert!((&lhs - &rhs).max_abs() < 1e-9);
    }

    fn vec_mul_matches_transpose_mul_vec(a in diag_dominant(4), v in vector(4)) {
        let left = a.vec_mul(&v);
        let right = a.transpose().mul_vec(&v);
        assert!(max_abs_diff(&left, &right) < 1e-9);
    }

    fn dot_commutes(v in vector(6), w in vector(6)) {
        assert_eq!(dot(&v, &w), dot(&w, &v));
    }

    fn solve_left_consistent(a in diag_dominant(4), b in vector(4)) {
        let x = a.solve_left(&b).unwrap();
        let back = a.vec_mul(&x);
        assert!(max_abs_diff(&back, &b) < 1e-8);
    }

    fn norm_inf_bounds_mul_vec(a in diag_dominant(4), v in vector(4)) {
        let vmax = v.iter().map(|x| x.abs()).fold(0.0, f64::max);
        let out = a.mul_vec(&v);
        let omax = out.iter().map(|x| x.abs()).fold(0.0, f64::max);
        assert!(omax <= a.norm_inf() * vmax + 1e-9);
    }
}

// ---------------------------------------------------------------------
// Oracles: the indexed loop nests the kernels had before they moved to
// row slices and lane chunks.
// ---------------------------------------------------------------------

fn oracle_mul(a: &Matrix, rhs: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), rhs.cols());
    for i in 0..a.rows() {
        for k in 0..a.cols() {
            let x = a[(i, k)];
            if x == 0.0 {
                continue;
            }
            for j in 0..rhs.cols() {
                out[(i, j)] += x * rhs[(k, j)];
            }
        }
    }
    out
}

fn oracle_transpose(a: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.cols(), a.rows());
    for i in 0..a.rows() {
        for j in 0..a.cols() {
            out[(j, i)] = a[(i, j)];
        }
    }
    out
}

/// The packed factors, the pivots and the permutation sign.
fn oracle_lu(a: &Matrix) -> Result<(Matrix, Vec<usize>, f64), LinalgError> {
    if !a.as_slice().iter().all(|v| v.is_finite()) {
        return Err(LinalgError::NonFinite { site: "linalg.lu" });
    }
    let n = a.rows();
    let mut lu = a.clone();
    let mut pivots: Vec<usize> = (0..n).collect();
    let mut sign = 1.0;
    for k in 0..n {
        let mut p = k;
        let mut best = lu[(k, k)].abs();
        for i in (k + 1)..n {
            let v = lu[(i, k)].abs();
            if v > best {
                best = v;
                p = i;
            }
        }
        if best <= 1e-300 {
            return Err(LinalgError::Singular);
        }
        if p != k {
            for j in 0..n {
                let tmp = lu[(k, j)];
                lu[(k, j)] = lu[(p, j)];
                lu[(p, j)] = tmp;
            }
            pivots.swap(k, p);
            sign = -sign;
        }
        let pivot = lu[(k, k)];
        for i in (k + 1)..n {
            let factor = lu[(i, k)] / pivot;
            lu[(i, k)] = factor;
            for j in (k + 1)..n {
                lu[(i, j)] -= factor * lu[(k, j)];
            }
        }
    }
    Ok((lu, pivots, sign))
}

fn oracle_substitute(lu: &Matrix, x: &mut [f64]) {
    let n = lu.rows();
    for i in 1..n {
        for j in 0..i {
            x[i] -= lu[(i, j)] * x[j];
        }
    }
    for i in (0..n).rev() {
        for j in (i + 1)..n {
            x[i] -= lu[(i, j)] * x[j];
        }
        x[i] /= lu[(i, i)];
    }
}

/// The multi-RHS solve one column at a time: each column of `b` gathered
/// in pivot order, substituted by [`oracle_substitute`], scattered back.
fn oracle_solve_cols(lu: &Matrix, pivots: &[usize], b: &Matrix) -> Matrix {
    let (n, c) = (lu.rows(), b.cols());
    let mut out = Matrix::zeros(n, c);
    let mut x = vec![0.0; n];
    for j in 0..c {
        for i in 0..n {
            x[i] = b[(pivots[i], j)];
        }
        oracle_substitute(lu, &mut x);
        for i in 0..n {
            out[(i, j)] = x[i];
        }
    }
    out
}

/// The right-division `B A⁻¹` one row at a time against the factors of
/// `Aᵀ`: each row of `b` gathered in pivot order and substituted.
fn oracle_solve_rows(lu_t: &Matrix, pivots: &[usize], b: &Matrix) -> Matrix {
    let (n, r) = (lu_t.rows(), b.rows());
    let mut out = Matrix::zeros(r, n);
    let mut x = vec![0.0; n];
    for i in 0..r {
        for k in 0..n {
            x[k] = b[(i, pivots[k])];
        }
        oracle_substitute(lu_t, &mut x);
        for k in 0..n {
            out[(i, k)] = x[k];
        }
    }
    out
}

fn oracle_spectral(a: &Matrix, max_iters: usize) -> (f64, usize) {
    if a.rows() == 0 || !a.is_square() {
        return (0.0, 0);
    }
    let n = a.rows();
    let mut v = vec![1.0 / n as f64; n];
    let mut w = vec![0.0; n];
    let mut lambda = 0.0;
    for it in 0..max_iters {
        w.fill(0.0);
        for i in 0..n {
            for j in 0..n {
                w[i] += a[(i, j)].abs() * v[j];
            }
        }
        let norm: f64 = w.iter().map(|x| x.abs()).fold(0.0, f64::max);
        if norm == 0.0 {
            return (0.0, it + 1);
        }
        for x in &mut w {
            *x /= norm;
        }
        let prev = lambda;
        lambda = norm;
        std::mem::swap(&mut v, &mut w);
        if it > 0 && (lambda - prev).abs() <= SPECTRAL_RADIUS_RTOL * lambda.abs() {
            return (lambda, it + 1);
        }
    }
    (lambda, max_iters)
}

// ---------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------

/// One entry: an exact `0.0` or `-0.0` a third of the time, otherwise a
/// value in [-2, 2).
fn entry(rng: &mut SmallRng) -> f64 {
    match rng.random_below(6) {
        0 => 0.0,
        1 => -0.0,
        _ => rng.random_range(-2.0, 2.0),
    }
}

/// A `rows x cols` matrix of [`entry`] draws. Nothing favours the
/// diagonal, so factorizations swap rows at most steps.
fn salted(rows: usize, cols: usize, rng: &mut SmallRng) -> Matrix {
    let data = (0..rows * cols).map(|_| entry(rng)).collect();
    Matrix::from_vec(rows, cols, data)
}

/// [`salted`] with every `-0.0` made `+0.0` and half the entries zero:
/// the input on which the LU kernels skip the updates of zero factors.
fn sparse(rows: usize, cols: usize, rng: &mut SmallRng) -> Matrix {
    let data = (0..rows * cols)
        .map(|_| {
            if rng.random_below(2) == 0 {
                0.0
            } else {
                entry(rng) + 0.0
            }
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// [`salted`] with a dominant diagonal: always factorizable.
fn dominant(n: usize, rng: &mut SmallRng) -> Matrix {
    let mut m = salted(n, n, rng);
    for i in 0..n {
        m[(i, i)] += 2.0 * n as f64 + 1.0;
    }
    m
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn assert_bits(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(bits(got), bits(want), "{what}");
}

// ---------------------------------------------------------------------
// Scalar kernels against their oracles
// ---------------------------------------------------------------------

props! {
    cases = 48;

    fn mul_into_matches_the_indexed_oracle(
        (rows, inner, cols, seed) in (0usize..91, 0usize..91, 0usize..91, 0u64..u64::MAX),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let a = salted(rows, inner, &mut rng);
        let b = salted(inner, cols, &mut rng);
        let want = oracle_mul(&a, &b);
        let mut out = salted(3, 5, &mut rng); // dirty, wrongly shaped
        a.mul_into(&b, &mut out).unwrap();
        assert_eq!((out.rows(), out.cols()), (rows, cols));
        assert_bits(out.as_slice(), want.as_slice(), "mul_into");
        assert_bits(a.mul(&b).unwrap().as_slice(), want.as_slice(), "mul");
    }

    fn transpose_into_matches_the_indexed_oracle(
        (rows, cols, seed) in (0usize..91, 0usize..91, 0u64..u64::MAX),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let a = salted(rows, cols, &mut rng);
        let mut out = salted(2, 2, &mut rng);
        a.transpose_into(&mut out);
        let want = oracle_transpose(&a);
        assert_eq!((out.rows(), out.cols()), (cols, rows));
        assert_bits(out.as_slice(), want.as_slice(), "transpose_into");
    }

    fn lu_kernels_match_the_indexed_oracle(
        (n, seed, kind) in (0usize..91, 0u64..u64::MAX, 0u8..3),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let a = match kind {
            0 => salted(n, n, &mut rng),
            1 => dominant(n, &mut rng),
            _ => sparse(n, n, &mut rng),
        };
        let (mut lu, mut piv) = (Matrix::zeros(1, 1), vec![7; 3]);
        let got = lu_factor_into(&a, &mut lu, &mut piv);
        match oracle_lu(&a) {
            Err(e) => assert_eq!(got.unwrap_err(), e),
            Ok((want_lu, want_piv, sign)) => {
                got.unwrap();
                assert_bits(lu.as_slice(), want_lu.as_slice(), "lu_factor_into");
                assert_eq!(piv, want_piv);
                // Forward/back substitution on a permuted right-hand side.
                let rhs: Vec<f64> = (0..n).map(|_| entry(&mut rng)).collect();
                let mut want_x: Vec<f64> = want_piv.iter().map(|&p| rhs[p]).collect();
                oracle_substitute(&want_lu, &mut want_x);
                let mut x = vec![0.0; n];
                lu_solve_into(&lu, &piv, &rhs, &mut x);
                assert_bits(&x, &want_x, "lu_solve_into");
                // The `Lu` wrappers run the same kernels.
                let wrapped = Lu::factor(&a).unwrap();
                assert_bits(&wrapped.solve(&rhs).unwrap(), &want_x, "Lu::solve");
                let mut inv = Matrix::zeros(1, 1);
                lu_inverse_into(&lu, &piv, &mut inv);
                assert_bits(wrapped.inverse().unwrap().as_slice(), inv.as_slice(), "Lu::inverse");
                let mut det = sign;
                for i in 0..n {
                    det *= want_lu[(i, i)];
                }
                assert_eq!(wrapped.det().to_bits(), det.to_bits(), "Lu::det");
            }
        }
    }

    fn spectral_radius_matches_the_indexed_oracle(
        (n, seed, budget) in (0usize..91, 0u64..u64::MAX, 0usize..300),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let a = salted(n, n, &mut rng);
        let want = oracle_spectral(&a, budget);
        let got = a.spectral_radius_estimate_converged(budget);
        assert_eq!((got.0.to_bits(), got.1), (want.0.to_bits(), want.1));
        let pooled = a.spectral_radius_estimate_in(budget, &mut Workspace::new());
        assert_eq!((pooled.0.to_bits(), pooled.1), (want.0.to_bits(), want.1));
    }
}

// ---------------------------------------------------------------------
// Multi-RHS solves against the per-column oracle
// ---------------------------------------------------------------------

/// [`salted`] with a tenth of the entries NaN, `+∞` or `-∞`.
fn tainted(rows: usize, cols: usize, rng: &mut SmallRng) -> Matrix {
    let mut m = salted(rows, cols, rng);
    for i in 0..rows {
        for j in 0..cols {
            m[(i, j)] = match rng.random_below(30) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                _ => m[(i, j)],
            };
        }
    }
    m
}

/// `lu_solve_cols_into`, `lu_solve_rows_into` and `lu_inverse_into` sweep
/// all right-hand sides at once; each entry must carry the bits of the
/// per-column solve. Factors come from salted, dominant and half-zero
/// matrices; right-hand sides hold `±0.0` and, on every other seed, NaN
/// and `±∞`; shapes cover `n = 0, 1` and `c = 0`, square and not.
#[test]
fn multi_rhs_solves_match_the_per_column_oracle() {
    let mut rng = SmallRng::seed_from_u64(0x5eed_50fe);
    let (mut lu, mut piv) = (Matrix::zeros(1, 1), Vec::new());
    let mut out = Matrix::zeros(1, 1);
    let mut x = vec![3.0; 2]; // dirty scratch
    for n in [0, 1, 2, 3, 6, 21, 40] {
        for c in [0, 1, 2, 5, 21, 33] {
            for seed in 0..6 {
                let a = match seed % 3 {
                    0 => salted(n, n, &mut rng),
                    1 => dominant(n, &mut rng),
                    _ => sparse(n, n, &mut rng),
                };
                if lu_factor_into(&a, &mut lu, &mut piv).is_err() {
                    continue;
                }
                let b = if seed % 2 == 0 {
                    salted(n, c, &mut rng)
                } else {
                    tainted(n, c, &mut rng)
                };
                let shape = format!("n = {n}, c = {c}, seed {seed}");
                lu_solve_cols_into(&lu, &piv, &b, &mut out).unwrap();
                assert_eq!((out.rows(), out.cols()), (n, c));
                let want = oracle_solve_cols(&lu, &piv, &b);
                assert_bits(out.as_slice(), want.as_slice(), &format!("cols, {shape}"));

                let b_t = b.transpose();
                lu_solve_rows_into(&lu, &piv, &b_t, &mut out, &mut x).unwrap();
                assert_eq!((out.rows(), out.cols()), (c, n));
                let want = oracle_solve_rows(&lu, &piv, &b_t);
                assert_bits(out.as_slice(), want.as_slice(), &format!("rows, {shape}"));

                lu_inverse_into(&lu, &piv, &mut out);
                let want = oracle_solve_cols(&lu, &piv, &Matrix::identity(n));
                assert_bits(
                    out.as_slice(),
                    want.as_slice(),
                    &format!("inverse, {shape}"),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// The spectral-radius certificate against the full power iteration
// ---------------------------------------------------------------------

/// The stability margin the QBD solver certifies `sp(R)` against.
const MARGIN: f64 = 1.0 - 1e-9;

/// Nonnegative `n x n` matrices of seven kinds: dense; salted with
/// `±0.0`; with zero rows and zero columns; reducible (block upper
/// triangular, either diagonal block the larger); equal row sums of
/// `radius`, so the uniform start vector is already the Perron vector and
/// only rounding tells the ratios apart; and a nilpotent chain of huge
/// entries beside a self-loop, whose start-up transient underflows the
/// self-loop's iterate entry to `0.0` while the chain still feeds it, with
/// distinct chain entries (kind 5) or equal ones (kind 6), on which the
/// full estimate stops on the transient and returns the chain's entry.
fn nonnegative(n: usize, kind: u8, radius: f64, rng: &mut SmallRng) -> Matrix {
    let mut a = Matrix::zeros(n, n);
    match kind {
        0 => {
            let data = (0..n * n).map(|_| rng.random_range(0.0, 1.0)).collect();
            a = Matrix::from_vec(n, n, data);
        }
        1 | 2 => {
            let data = (0..n * n)
                .map(|_| {
                    let e = entry(rng);
                    if e == 0.0 {
                        e
                    } else {
                        e.abs()
                    }
                })
                .collect();
            a = Matrix::from_vec(n, n, data);
            if kind == 2 {
                for _ in 0..n.div_ceil(3) {
                    let (i, j) = (rng.random_below(n as u64), rng.random_below(n as u64));
                    a.row_mut(i as usize).fill(0.0);
                    for r in 0..n {
                        a[(r, j as usize)] = if r % 2 == 0 { 0.0 } else { -0.0 };
                    }
                }
            }
        }
        3 => {
            let split = 1 + rng.random_below(n as u64) as usize;
            let heavy_first = rng.random_below(2) == 0;
            for i in 0..n {
                for j in 0..n {
                    if j < split && i >= split {
                        continue;
                    }
                    let light = if heavy_first { i >= split } else { i < split };
                    let scale = if light { 0.25 } else { 1.0 };
                    a[(i, j)] = scale * rng.random_range(0.0, 1.0);
                }
            }
        }
        4 => {
            for i in 0..n {
                let row = a.row_mut(i);
                for x in row.iter_mut() {
                    *x = rng.random_range(0.0, 1.0);
                }
                let sum: f64 = row.iter().sum();
                for x in row.iter_mut() {
                    *x *= radius / sum;
                }
            }
        }
        _ => {
            // 0 -> 1 -> 2 -> 3 with distinct entries near 1e200 (3 is a
            // zero row), and 4 -> 0 at 1e-200 beside the self-loop
            // 4 -> 4 that sets the radius. Four steps in,
            // v = (1, 0, 0, 0, 0, ..) while (|A| v)_4 = 1e-200: a
            // certificate that skipped v_i = 0 would find every ratio 0.
            assert!(n >= 6);
            let big = 1e200 * rng.random_range(1.0, 2.0);
            let scales = if kind == 5 { [1.0, 2.0, 4.0] } else { [1.0; 3] };
            for (i, scale) in scales.into_iter().enumerate() {
                a[(i, i + 1)] = scale * big;
            }
            a[(4, 0)] = 1e-200;
            a[(4, 4)] = radius.max(MARGIN) + rng.random_range(0.0, 2.0);
        }
    }
    a
}

/// Checks one matrix: when the certificate fires, the full 200-step
/// estimate is below [`MARGIN`] and took at least as many steps; when it
/// does not, the certified iteration returned the full estimate bit for
/// bit. Returns whether it fired.
fn check_certificate(a: &Matrix, ws: &mut Workspace) -> bool {
    let (value, iterations) = a.spectral_radius_estimate_in(200, ws);
    match a.spectral_radius_below_in(MARGIN, 200, ws) {
        SpectralBound::Below { steps } => {
            assert!(
                value < MARGIN,
                "certified after {steps} steps, but the full estimate is {value:e}"
            );
            assert!(
                steps <= iterations,
                "{steps} steps, {iterations} iterations"
            );
            true
        }
        SpectralBound::Estimate {
            value: got,
            iterations: taken,
        } => {
            assert_eq!((got.to_bits(), taken), (value.to_bits(), iterations));
            false
        }
    }
}

/// Equal row sums a few units in the last place from [`MARGIN`], and
/// `1e-10` below it, over many draws per size: the uniform start vector
/// is the Perron vector, so only rounding separates the Collatz–Wielandt
/// ratios from the full estimate, and the slack is what keeps a
/// certificate honest.
#[test]
fn the_spectral_certificate_holds_within_ulps_of_the_bound() {
    let mut rng = SmallRng::seed_from_u64(0xce27_5107);
    let mut ws = Workspace::new();
    let mut fired = 0;
    let offsets = (-3i32..=3).map(|ulps| f64::from(ulps) * f64::EPSILON / 2.0);
    for (n, draws) in [(1, 50), (2, 600), (6, 600), (21, 60), (85, 8)] {
        for offset in offsets.clone().chain([-1e-10]) {
            let radius = MARGIN * (1.0 + offset);
            for _ in 0..draws {
                let a = nonnegative(n, 4, radius, &mut rng);
                fired += usize::from(check_certificate(&a, &mut ws));
            }
        }
    }
    assert!(fired > 0, "no certificate fired near the bound");
}

props! {
    cases = 256;

    /// When the Collatz–Wielandt certificate fires, the full 200-step
    /// estimate is below the bound; when it does not, the certified
    /// iteration returned the full estimate bit for bit. Radii are scaled
    /// to within `1e-15`–`1e-10` of the bound, on both sides, and
    /// farther off; the underflow chains must never certify.
    fn the_spectral_certificate_never_outruns_the_full_estimate(
        (size, kind, offset, seed) in (0usize..5, 0u8..7, 0usize..13, 0u64..u64::MAX),
    ) {
        const SIZES: [usize; 5] = [1, 2, 6, 21, 85];
        const OFFSETS: [f64; 13] = [
            -0.5, -1e-3, -1e-10, -1e-12, -1e-15, -2e-16, 0.0, 2e-16, 1e-15, 1e-12, 1e-10, 1e-3,
            0.5,
        ];
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = SIZES[size].max(if kind >= 5 { 6 } else { 0 });
        let radius = MARGIN * (1.0 + OFFSETS[offset]);
        let mut a = nonnegative(n, kind, radius, &mut rng);
        if kind < 4 {
            // Put the radius `OFFSETS[offset]` away from the bound,
            // relatively, as far as a long power iteration can tell.
            let (estimate, _) = a.spectral_radius_estimate_converged(5000);
            if estimate > 0.0 {
                a.scale_assign(MARGIN / estimate * (1.0 + OFFSETS[offset]));
            }
        }
        let fired = check_certificate(&a, &mut Workspace::new());
        assert!(!(fired && kind >= 5), "an underflow chain certified");
    }
}

/// The transient of [`Matrix::spectral_radius_estimate_converged`]'s doc
/// comment: equal `1e200` entries on the nilpotent chain make the full
/// estimate stop after 3 steps at `1e200`, though the spectral radius is
/// the self-loop's 1.5, and the certificate must not fire on it.
#[test]
fn the_certificate_never_fires_where_the_estimate_stops_on_a_transient() {
    let mut a = Matrix::zeros(6, 6);
    for i in 0..3 {
        a[(i, i + 1)] = 1e200;
    }
    a[(4, 0)] = 1e-200;
    a[(4, 4)] = 1.5;
    assert_eq!(a.spectral_radius_estimate_converged(200), (1e200, 3));
    assert!(!check_certificate(&a, &mut Workspace::new()));
}
