//! Property-based tests for the dense linear algebra kernel, on the
//! in-tree `cyclesteal_xtest` property layer.
//!
//! The second half is a differential suite: the earlier indexed loop
//! nests of the hot kernels are kept below, verbatim up to using the
//! public accessors, as test-only oracles, and every slice- or
//! chunk-based kernel must reproduce its oracle **bit for bit** — over
//! shapes 0–90 (non-square products included), matrices salted with
//! exact `0.0` and `-0.0` entries and unscaled rows that force pivot
//! swaps, and panels of width 1, 2, 7, 16 and 64 whose zeros are shared
//! by every lane or sit in some lanes only.

use cyclesteal_linalg::{
    dot, lu_factor_into, lu_factor_many_in_place, lu_inverse_into, lu_solve_cols_into,
    lu_solve_into, lu_solve_many_into, lu_solve_rows_into, max_abs_diff, spectral_radius_many,
    BatchPanel, LinalgError, Lu, Matrix, Workspace, SPECTRAL_RADIUS_RTOL,
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

/// The panel product as a per-lane select over the `i → k → j` nest.
fn oracle_panel_mul(a: &BatchPanel, rhs: &BatchPanel) -> BatchPanel {
    let nb = a.batch();
    let mut out = BatchPanel::zeros(a.rows(), rhs.cols(), nb);
    for i in 0..a.rows() {
        for k in 0..a.cols() {
            for j in 0..rhs.cols() {
                for b in 0..nb {
                    let x = a.at(i, k, b);
                    let acc = out.at(i, j, b) + x * rhs.at(k, j, b);
                    *out.at_mut(i, j, b) = if x != 0.0 { acc } else { out.at(i, j, b) };
                }
            }
        }
    }
    out
}

/// The panel solve: gather, forward and back substitution, column by
/// column, lanes innermost.
fn oracle_panel_solve(lus: &BatchPanel, pivots: &[usize], b: &BatchPanel) -> BatchPanel {
    let n = lus.rows();
    let nb = lus.batch();
    let mut out = BatchPanel::zeros(n, b.cols(), nb);
    let mut x = vec![0.0; n * nb];
    for j in 0..b.cols() {
        for i in 0..n {
            for lane in 0..nb {
                x[i * nb + lane] = b.at(pivots[lane * n + i], j, lane);
            }
        }
        for i in 1..n {
            for k in 0..i {
                for lane in 0..nb {
                    x[i * nb + lane] -= lus.at(i, k, lane) * x[k * nb + lane];
                }
            }
        }
        for i in (0..n).rev() {
            for k in (i + 1)..n {
                for lane in 0..nb {
                    x[i * nb + lane] -= lus.at(i, k, lane) * x[k * nb + lane];
                }
            }
            for lane in 0..nb {
                x[i * nb + lane] /= lus.at(i, i, lane);
            }
        }
        for i in 0..n {
            for lane in 0..nb {
                *out.at_mut(i, j, lane) = x[i * nb + lane];
            }
        }
    }
    out
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

/// Panel widths the batched kernels must handle.
const WIDTHS: [usize; 5] = [1, 2, 7, 16, 64];

/// `width` lanes of `rows x cols` matrices. With `shared`, one zero
/// pattern is stamped on every lane (structural zeros) over lanes free of
/// `-0.0`; otherwise each lane draws its own zeros, of both signs.
fn lanes(rows: usize, cols: usize, width: usize, shared: bool, rng: &mut SmallRng) -> Vec<Matrix> {
    let pattern = sparse(rows, cols, rng);
    (0..width)
        .map(|_| {
            if !shared {
                return salted(rows, cols, rng);
            }
            // Zero exactly where the pattern is.
            let mut m = sparse(rows, cols, rng);
            for i in 0..rows {
                for j in 0..cols {
                    if pattern[(i, j)] == 0.0 {
                        m[(i, j)] = 0.0;
                    } else if m[(i, j)] == 0.0 {
                        m[(i, j)] = 1.0;
                    }
                }
            }
            m
        })
        .collect()
}

fn panel_of(mats: &[Matrix]) -> BatchPanel {
    let mut p = BatchPanel::zeros(mats[0].rows(), mats[0].cols(), mats.len());
    for (b, m) in mats.iter().enumerate() {
        p.load_lane(b, m);
    }
    p
}

/// Lane `b` of `p` through the kernel under test ([`BatchPanel::store_lane`]),
/// checked against an indexed read.
fn lane_of(p: &BatchPanel, b: usize) -> Matrix {
    let mut m = Matrix::zeros(1, 1);
    p.store_lane(b, &mut m);
    for i in 0..p.rows() {
        for j in 0..p.cols() {
            assert_eq!(m[(i, j)].to_bits(), p.at(i, j, b).to_bits(), "store_lane");
        }
    }
    m
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
// Panel kernels against their oracles
// ---------------------------------------------------------------------

props! {
    cases = 24;

    fn panel_mul_matches_the_per_lane_select_oracle(
        (rows, inner, cols, w, shared, seed) in
            (0usize..25, 0usize..25, 0usize..25, 0usize..5, 0u8..2, 0u64..u64::MAX),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let width = WIDTHS[w];
        let a = lanes(rows.max(1), inner.max(1), width, shared == 1, &mut rng);
        let b = lanes(inner.max(1), cols.max(1), width, shared == 1, &mut rng);
        let (pa, pb) = (panel_of(&a), panel_of(&b));
        let mut out = BatchPanel::zeros(2, 3, 1);
        pa.mul_into(&pb, &mut out);
        let want = oracle_panel_mul(&pa, &pb);
        assert_eq!(out, want);
        for lane in 0..width {
            // Per lane, the batched product is the scalar product.
            let scalar = oracle_mul(&a[lane], &b[lane]);
            assert_bits(lane_of(&out, lane).as_slice(), scalar.as_slice(), "panel lane");
        }
    }

    fn panel_lu_and_solve_match_their_oracles(
        (n, cols, w, shared, seed) in (1usize..25, 1usize..25, 0usize..5, 0u8..2, 0u64..u64::MAX),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let width = WIDTHS[w];
        let mats = lanes(n, n, width, shared == 1, &mut rng);
        let mut lus = panel_of(&mats);
        let (mut pivots, mut ok) = (Vec::new(), Vec::new());
        lu_factor_many_in_place(&mut lus, &mut pivots, &mut ok);
        for (lane, m) in mats.iter().enumerate() {
            match oracle_lu(m) {
                Err(_) => assert!(!ok[lane], "lane {lane} factored where the oracle failed"),
                Ok((want_lu, want_piv, _)) => {
                    assert!(ok[lane], "lane {lane} failed where the oracle factored");
                    assert_bits(lane_of(&lus, lane).as_slice(), want_lu.as_slice(), "lane LU");
                    assert_eq!(&pivots[lane * n..(lane + 1) * n], want_piv.as_slice());
                }
            }
        }
        // Solves need factorizable lanes: swap in dominant ones.
        let mats: Vec<Matrix> = mats
            .into_iter()
            .zip(&ok)
            .map(|(m, &fine)| if fine { m } else { dominant(n, &mut rng) })
            .collect();
        let mut lus = panel_of(&mats);
        lu_factor_many_in_place(&mut lus, &mut pivots, &mut ok);
        assert!(ok.iter().all(|&fine| fine));
        let rhs = panel_of(&lanes(n, cols, width, shared == 1, &mut rng));
        let mut out = BatchPanel::zeros(1, 1, 1);
        lu_solve_many_into(&lus, &pivots, &rhs, &mut out);
        assert_eq!(out, oracle_panel_solve(&lus, &pivots, &rhs));
    }

    fn panel_spectral_radius_and_lane_checks_match_their_oracles(
        (n, w, seed, budget) in (0usize..20, 0usize..5, 0u64..u64::MAX, 0usize..250),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let width = WIDTHS[w];
        let mut mats = lanes(n.max(1), n.max(1), width, seed % 2 == 0, &mut rng);
        if width > 1 {
            // A vanishing lane and a non-finite lane.
            mats[0] = Matrix::zeros(n.max(1), n.max(1));
            mats[1][(0, 0)] = f64::INFINITY;
        }
        let panel = panel_of(&mats);
        let (mut max_abs, mut finite) = (Vec::new(), Vec::new());
        panel.lanes_max_abs_into(&mut max_abs);
        panel.lanes_finite_into(&mut finite);
        for (lane, m) in mats.iter().enumerate() {
            let mut acc: f64 = 0.0;
            let mut fin = true;
            for i in 0..m.rows() {
                for j in 0..m.cols() {
                    acc = acc.max(m[(i, j)].abs());
                    fin &= m[(i, j)].is_finite();
                }
            }
            assert_eq!(max_abs[lane].to_bits(), acc.to_bits(), "lanes_max_abs_into");
            assert_eq!(finite[lane], fin, "lanes_finite_into");
        }
        let mut got = Vec::new();
        spectral_radius_many(&mut panel.clone(), budget, &mut got);
        for (lane, m) in mats.iter().enumerate() {
            if finite[lane] {
                let want = oracle_spectral(m, budget).0;
                assert_eq!(got[lane].to_bits(), want.to_bits(), "lane {lane}");
            }
        }
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
