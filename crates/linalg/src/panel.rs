//! Structure-of-arrays panels for batched small-matrix kernels.
//!
//! A [`BatchPanel`] stores `batch` same-shape matrices interleaved so that
//! entry `(i, j)` of every lane is contiguous in memory: the element of
//! lane `b` lives at `(i * cols + j) * batch + b`. Call those `batch`
//! consecutive values the *cell* `(i, j)`. Batched kernels run the
//! *scalar* kernel's loop nest over cells, with one innermost loop over
//! the lanes of a cell; they walk the panel as slices (`chunks_exact` of
//! one cell, or of one row of cells), so the lane loop carries no bounds
//! checks and no cross-lane dependency and the compiler vectorizes it.
//!
//! # Bit-identity contract
//!
//! Every kernel in this module replays, **per lane**, exactly the
//! floating-point operation sequence of its scalar counterpart in
//! [`crate::matrix`] / [`crate::lu`]:
//!
//! * [`BatchPanel::mul_into`] mirrors [`Matrix::mul_into`]: the `i → k → j`
//!   loop order and the `a == 0.0` skip are preserved per lane (the skip
//!   becomes a per-lane select that keeps the old accumulator, which
//!   elides exactly the additions the scalar kernel skips). A cell of `a`
//!   that is zero in **every** lane is skipped outright — the select would
//!   have kept every accumulator anyway — so the structural zeros of the
//!   QBD blocks cost nothing; a cell that is nonzero in every lane needs
//!   no select at all.
//! * [`BatchPanel::add_assign`] / [`BatchPanel::identity_minus_into`]
//!   mirror [`Matrix::add_assign`] and `identity.sub_into(..)`: pure
//!   elementwise maps per lane.
//! * [`lu_factor_many_in_place`] mirrors [`crate::lu_factor_into`] with
//!   per-lane partial pivoting: each lane picks and swaps its own pivot
//!   rows, then every lane eliminates with the scalar kernel's
//!   `row_i[j] -= factor · row_k[j]`. A row whose factor is zero in every
//!   lane is skipped under the scalar kernel's exactness condition (no
//!   `-0.0` in the input, a finite pivot row), where the update would
//!   leave it unchanged.
//! * [`lu_solve_many_into`] mirrors [`crate::lu_solve_cols_into`]: the
//!   permuted gather of the right-hand sides, then the row sweep of the
//!   forward and back substitution over all columns at once (no zero
//!   skips, division by the diagonal in the back pass), with the lanes
//!   innermost. At batch 1 a panel has [`Matrix`]'s layout and the loop
//!   nest is the scalar sweep's.
//! * [`spectral_radius_many`] mirrors
//!   [`Matrix::spectral_radius_estimate_converged`].
//!
//! No kernel here reassociates sums or introduces FMA, so batched results
//! are bit-identical to scalar results — the property the batched QBD
//! solver (`cyclesteal-markov`) and its differential test harness rely on.
//! If a future kernel ever trades that for speed, it must document a
//! pinned 1e-10 agreement bound here instead.
//!
//! Moving matrices in and out ([`BatchPanel::load_lane`],
//! [`BatchPanel::store_lane`], [`BatchPanel::load_lanes_transposed`]) and
//! the per-lane checks ([`BatchPanel::lanes_max_abs_into`],
//! [`BatchPanel::lanes_finite_into`]) involve no arithmetic that could
//! change a bit; the checks fold every lane in one pass over the cells.
//!
//! Lanes are fully independent: a kernel happily computes garbage in a
//! lane whose inputs are garbage (e.g. a batch member that already failed
//! and fell back to the scalar path) without affecting its neighbours.
//! Callers simply ignore dead lanes rather than masking them, keeping the
//! inner loops branch-free.

use crate::lu::{zero_factor_skips_are_exact, PIVOT_TOL};
use crate::Matrix;

/// `batch` same-shape matrices in structure-of-arrays (lane-interleaved)
/// layout. See the module docs for the layout and the bit-identity
/// contract of the kernels.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchPanel {
    rows: usize,
    cols: usize,
    batch: usize,
    data: Vec<f64>,
}

impl BatchPanel {
    /// A zero-filled `rows x cols` panel of `batch` lanes.
    pub fn zeros(rows: usize, cols: usize, batch: usize) -> Self {
        BatchPanel {
            rows,
            cols,
            batch,
            data: vec![0.0; rows * cols * batch],
        }
    }

    /// Rows of each lane matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns of each lane matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of lanes.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Entries the buffer holds without reallocating.
    pub(crate) fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Reshapes in place to a zero-filled `rows x cols x batch` panel,
    /// retaining capacity. The canonical reset mirrors
    /// [`Matrix::reshape`] so pooled panels can never leak state.
    pub fn reshape(&mut self, rows: usize, cols: usize, batch: usize) {
        self.rows = rows;
        self.cols = cols;
        self.batch = batch;
        self.data.clear();
        self.data.resize(rows * cols * batch, 0.0);
    }

    #[inline(always)]
    fn idx(&self, i: usize, j: usize, b: usize) -> usize {
        (i * self.cols + j) * self.batch + b
    }

    /// Entry `(i, j)` of lane `b`.
    #[inline(always)]
    pub fn at(&self, i: usize, j: usize, b: usize) -> f64 {
        self.data[self.idx(i, j, b)]
    }

    /// Mutable entry `(i, j)` of lane `b`.
    #[inline(always)]
    pub fn at_mut(&mut self, i: usize, j: usize, b: usize) -> &mut f64 {
        let idx = self.idx(i, j, b);
        &mut self.data[idx]
    }

    /// Copies `m` into lane `b`. Panics if shapes disagree.
    pub fn load_lane(&mut self, b: usize, m: &Matrix) {
        assert_eq!((m.rows(), m.cols()), (self.rows, self.cols));
        assert!(b < self.batch, "lane index out of bounds");
        for (dst, &v) in self.data[b..]
            .iter_mut()
            .step_by(self.batch)
            .zip(m.as_slice())
        {
            *dst = v;
        }
    }

    /// Reshapes to one lane per matrix of `mats` (all of one shape) and
    /// writes lane `b` as the transpose of `mats[b]`. Walks the sources in
    /// row-major order a cell (all lanes) at a time, so every source is
    /// read front to back. Panics if the shapes differ.
    pub fn load_lanes_transposed(&mut self, mats: &[&Matrix]) {
        let (rows, cols) = mats.first().map_or((0, 0), |m| (m.rows(), m.cols()));
        assert!(mats.iter().all(|m| (m.rows(), m.cols()) == (rows, cols)));
        self.reshape(cols, rows, mats.len());
        if mats.is_empty() {
            return;
        }
        let nb = mats.len();
        for i in 0..rows {
            for j in 0..cols {
                // Cell (j, i) of the panel is entry (i, j) of every matrix.
                let cell = &mut self.data[(j * rows + i) * nb..(j * rows + i + 1) * nb];
                for (x, m) in cell.iter_mut().zip(mats) {
                    *x = m.as_slice()[i * cols + j];
                }
            }
        }
    }

    /// Copies lane `b` out into `m` (reshaped to fit).
    pub fn store_lane(&self, b: usize, m: &mut Matrix) {
        assert!(b < self.batch, "lane index out of bounds");
        m.reshape(self.rows, self.cols);
        let lane = self.data[b..].iter().step_by(self.batch);
        for (dst, &v) in m.as_mut_slice().iter_mut().zip(lane) {
            *dst = v;
        }
    }

    /// Largest absolute entry of every lane, into `out` (index-aligned
    /// with lanes). Each lane folds its entries in the same row-major
    /// order as [`Matrix::max_abs`] (bit-identical for NaN-free lanes).
    pub fn lanes_max_abs_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.batch, 0.0);
        if self.batch == 0 {
            return;
        }
        for cell in self.data.chunks_exact(self.batch) {
            for (acc, &x) in out.iter_mut().zip(cell) {
                *acc = acc.max(x.abs());
            }
        }
    }

    /// Whether every entry of each lane is finite, into `out`
    /// (index-aligned with lanes).
    pub fn lanes_finite_into(&self, out: &mut Vec<bool>) {
        // `x · 0` is ±0 for a finite `x` and NaN otherwise, and a sum with
        // a NaN term is NaN: a branch-free test that vectorizes.
        let mut acc = vec![0.0f64; self.batch];
        if self.batch > 0 {
            for cell in self.data.chunks_exact(self.batch) {
                for (a, &x) in acc.iter_mut().zip(cell) {
                    *a += x * 0.0;
                }
            }
        }
        out.clear();
        out.extend(acc.iter().map(|&a| a == 0.0));
    }

    /// Batched matrix product `out = self * rhs`, lane by lane. Mirrors
    /// [`Matrix::mul_into`] per lane: `i → k → j` loop order with the
    /// `a == 0.0` skip, so every lane's result is bit-identical to the
    /// scalar product of its lane matrices. Cells of `self` that are zero
    /// in every lane are skipped whole. Panics on shape mismatch.
    pub fn mul_into(&self, rhs: &BatchPanel, out: &mut BatchPanel) {
        assert_eq!(self.cols, rhs.rows);
        assert_eq!(self.batch, rhs.batch);
        out.reshape(self.rows, rhs.cols, self.batch);
        let nb = self.batch;
        if nb == 0 || self.cols == 0 || rhs.cols == 0 {
            return;
        }
        let rhs_rows = rhs.data.chunks_exact(rhs.cols * nb);
        for (out_row, a_row) in out
            .data
            .chunks_exact_mut(rhs.cols * nb)
            .zip(self.data.chunks_exact(self.cols * nb))
        {
            for (a, r_row) in a_row.chunks_exact(nb).zip(rhs_rows.clone()) {
                let zeros = a.iter().filter(|&&x| x == 0.0).count();
                if zeros == nb {
                    continue;
                }
                let cells = out_row.chunks_exact_mut(nb).zip(r_row.chunks_exact(nb));
                if zeros == 0 {
                    for (o, r) in cells {
                        for ((o, &r), &a) in o.iter_mut().zip(r).zip(a) {
                            *o += a * r;
                        }
                    }
                } else {
                    // Branch-free form of the scalar skip: the product is
                    // computed unconditionally and a select keeps the old
                    // accumulator where `a == 0.0` — per lane exactly the
                    // additions the scalar kernel performs (an unused
                    // product in a garbage lane is discarded, never
                    // accumulated).
                    for (o, r) in cells {
                        for ((o, &r), &a) in o.iter_mut().zip(r).zip(a) {
                            let acc = *o + a * r;
                            *o = if a != 0.0 { acc } else { *o };
                        }
                    }
                }
            }
        }
    }

    /// Batched `self += other`, elementwise per lane in the same order as
    /// [`Matrix::add_assign`]. Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &BatchPanel) {
        assert_eq!(
            (self.rows, self.cols, self.batch),
            (other.rows, other.cols, other.batch)
        );
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += *b;
        }
    }

    /// Batched `self *= k`, elementwise per lane like
    /// [`Matrix::scale_assign`].
    pub fn scale_assign(&mut self, k: f64) {
        for x in &mut self.data {
            *x *= k;
        }
    }

    /// Batched transpose: lane `b` of `out` is the transpose of lane `b`
    /// of `self`. Moves whole cells; no arithmetic.
    pub fn transpose_into(&self, out: &mut BatchPanel) {
        out.reshape(self.cols, self.rows, self.batch);
        let nb = self.batch;
        if nb == 0 || self.rows == 0 {
            return;
        }
        for (j, out_row) in out.data.chunks_exact_mut(self.rows * nb).enumerate() {
            for (i, o) in out_row.chunks_exact_mut(nb).enumerate() {
                let src = (i * self.cols + j) * nb;
                o.copy_from_slice(&self.data[src..src + nb]);
            }
        }
    }

    /// Batched `out = I - self` per lane — the scalar path's
    /// `identity.sub_into(&u, &mut iu)` with the identity implicit.
    pub fn identity_minus_into(&self, out: &mut BatchPanel) {
        assert_eq!(self.rows, self.cols);
        out.reshape(self.rows, self.cols, self.batch);
        if self.batch == 0 {
            return;
        }
        let cells = out
            .data
            .chunks_exact_mut(self.batch)
            .zip(self.data.chunks_exact(self.batch));
        for (c, (o, x)) in cells.enumerate() {
            // Cell `c` sits on the diagonal when `c = i · (n + 1)`.
            let id = if c % (self.cols + 1) == 0 { 1.0 } else { 0.0 };
            for (o, &x) in o.iter_mut().zip(x) {
                *o = id - x;
            }
        }
    }
    /// Drops every lane whose `alive` flag is `false`, compacting the
    /// surviving lanes leftward **in their original order** and shrinking
    /// the panel's batch width to the survivor count.
    ///
    /// Lanes are independent in every kernel, so compaction never changes
    /// a surviving lane's bits — it only stops dead lanes from costing
    /// work. The batched QBD solver calls this as members converge, so an
    /// almost-drained batch iterates over a narrow panel instead of
    /// dragging frozen lanes through every remaining iteration.
    ///
    /// Panics if `alive.len()` differs from the batch width.
    pub fn retain_lanes(&mut self, alive: &[bool]) {
        assert_eq!(alive.len(), self.batch, "retain_lanes: mask width");
        let survivors = alive.iter().filter(|&&a| a).count();
        if survivors == self.batch {
            return;
        }
        // In-place forward compaction: the write cursor never overtakes
        // the read position because the new stride is strictly smaller.
        let cells = self.rows * self.cols;
        let mut w = 0;
        for cell in 0..cells {
            for (b, &keep) in alive.iter().enumerate() {
                if keep {
                    self.data[w] = self.data[cell * self.batch + b];
                    w += 1;
                }
            }
        }
        self.batch = survivors;
        self.data.truncate(cells * survivors);
    }

    /// Adopts `other`'s shape and contents (capacity-retaining copy).
    pub fn copy_from(&mut self, other: &BatchPanel) {
        self.rows = other.rows;
        self.cols = other.cols;
        self.batch = other.batch;
        self.data.clear();
        self.data.extend_from_slice(&other.data);
    }
}

/// Batched [`crate::lu_factor_into`]: factors every lane of the square
/// panel in place as `P A = L U` — packed factors, lane-interleaved — and
/// writes the pivots to `pivots` (lane `b`'s permutation at
/// `pivots[b * n .. (b + 1) * n]`, the layout [`lu_solve_many_into`]
/// reads), with per-lane partial pivoting.
///
/// `ok[b]` reports whether lane `b` factored: it is `false` where the
/// scalar kernel would have returned an error — a non-finite input
/// entry or a pivot at or below the singularity threshold. A failed
/// lane's factors are garbage confined to that lane. Each lane with
/// finite input records the scalar kernel's `linalg.lu.factor` counter
/// and `linalg.lu.dim` histogram.
///
/// Per lane this replays the scalar kernel exactly: at step `k` the lane
/// picks the first row at or below `k` with the largest `|entry|` in
/// column `k` and swaps it up; then every lane divides its column-`k`
/// entries below the pivot by its pivot and updates each row below with
/// `row_i[j] -= factor · row_k[j]`, lanes innermost.
///
/// Panics if the panel is not square.
pub fn lu_factor_many_in_place(lus: &mut BatchPanel, pivots: &mut Vec<usize>, ok: &mut Vec<bool>) {
    let n = lus.rows;
    let nb = lus.batch;
    assert_eq!(lus.cols, n, "lu_factor_many_in_place: square panel");
    pivots.clear();
    for _ in 0..nb {
        pivots.extend(0..n);
    }
    lus.lanes_finite_into(ok);
    for _ in ok.iter().filter(|&&finite| finite) {
        cyclesteal_obs::counter!("linalg.lu.factor");
        cyclesteal_obs::histogram!("linalg.lu.dim", n as u64);
    }
    if nb == 0 {
        return;
    }
    let row_len = n * nb;
    let skips = zero_factor_skips_are_exact(&lus.data);
    // Per lane: the largest |entry| seen in column k so far, and its row.
    let mut best = vec![0.0f64; nb];
    let mut best_row = vec![0usize; nb];
    for k in 0..n {
        // Pivot search, a row of cells at a time: every lane keeps the
        // first row holding its largest |entry| at or below row k.
        for (bst, &v) in best.iter_mut().zip(&lus.data[(k * n + k) * nb..]) {
            *bst = v.abs();
        }
        best_row.fill(k);
        for i in k + 1..n {
            let cell = &lus.data[(i * n + k) * nb..(i * n + k + 1) * nb];
            for ((bst, row), &v) in best.iter_mut().zip(best_row.iter_mut()).zip(cell) {
                let v = v.abs();
                if v > *bst {
                    *bst = v;
                    *row = i;
                }
            }
        }
        let lanes = ok.iter_mut().zip(&best).zip(&best_row).enumerate();
        for (b, ((lane_ok, &bst), &p)) in lanes {
            if bst <= PIVOT_TOL {
                *lane_ok = false;
            }
            if p != k {
                for j in 0..n {
                    lus.data.swap((k * n + j) * nb + b, (p * n + j) * nb + b);
                }
                pivots.swap(b * n + k, b * n + p);
            }
        }
        let (top, bottom) = lus.data.split_at_mut((k + 1) * row_len);
        let row_k = &top[k * row_len..];
        let pivot = &row_k[k * nb..(k + 1) * nb];
        let rest_k = &row_k[(k + 1) * nb..];
        let skip_zero = skips && rest_k.iter().all(|u| u.is_finite());
        for row_i in bottom.chunks_exact_mut(row_len) {
            let (head, rest_i) = row_i.split_at_mut((k + 1) * nb);
            let factor = &mut head[k * nb..];
            for (f, &d) in factor.iter_mut().zip(pivot) {
                *f /= d;
            }
            let factor = &*factor;
            // A row whose factor is zero in every lane keeps its values,
            // as in the scalar kernel.
            if skip_zero && factor.iter().all(|&f| f == 0.0) {
                continue;
            }
            for (x, u) in rest_i.chunks_exact_mut(nb).zip(rest_k.chunks_exact(nb)) {
                for ((x, &u), &f) in x.iter_mut().zip(u).zip(factor) {
                    *x -= f * u;
                }
            }
        }
    }
}

/// Batched `lu_solve_cols_into`: solves `A_b · X_b = B_b` for every lane
/// `b` given the panels of LU factors (`lus`, lane-interleaved like any
/// [`BatchPanel`]) and the flat pivot store (`pivots`, lane `b`'s pivots
/// at `pivots[b * n .. (b + 1) * n]`), writing `X` into `out`.
///
/// Per lane this replays exactly the scalar
/// [`crate::lu_solve_cols_into`] — permuted gather, then its row sweep of
/// the forward substitution and the back substitution with the diagonal
/// division — so each lane's solution is bit-identical to solving that
/// lane through the scalar kernel. All columns are substituted together
/// in place in `out`, so the innermost loop runs over a whole row of
/// cells.
///
/// Panics if shapes or the pivot store length disagree.
pub fn lu_solve_many_into(
    lus: &BatchPanel,
    pivots: &[usize],
    b: &BatchPanel,
    out: &mut BatchPanel,
) {
    let n = lus.rows();
    let nb = lus.batch();
    assert_eq!(lus.cols(), n);
    assert_eq!(b.rows(), n);
    assert_eq!(b.batch(), nb);
    assert_eq!(pivots.len(), n * nb);
    let cols = b.cols();
    out.reshape(n, cols, nb);
    let row_len = cols * nb;
    if row_len == 0 {
        return;
    }
    // Gather: row i of lane `lane` comes from row pivots[lane][i] of b.
    for (i, out_row) in out.data.chunks_exact_mut(row_len).enumerate() {
        for (lane, piv) in pivots.chunks_exact(n).enumerate() {
            let src = &b.data[piv[i] * row_len + lane..];
            for (dst, &v) in out_row[lane..]
                .iter_mut()
                .step_by(nb)
                .zip(src.iter().step_by(nb))
            {
                *dst = v;
            }
        }
    }
    // Forward substitution (unit lower triangle), then back substitution
    // — the scalar row sweep, per lane.
    let lu_rows = lus.data.chunks_exact(n * nb);
    for (i, lu_row) in lu_rows.clone().enumerate().skip(1) {
        let (done, rest) = out.data.split_at_mut(i * row_len);
        let x_i = &mut rest[..row_len];
        for (l, x_k) in lu_row[..i * nb]
            .chunks_exact(nb)
            .zip(done.chunks_exact(row_len))
        {
            for (x, xk) in x_i.chunks_exact_mut(nb).zip(x_k.chunks_exact(nb)) {
                for ((x, &xk), &l) in x.iter_mut().zip(xk).zip(l) {
                    *x -= l * xk;
                }
            }
        }
    }
    for (i, lu_row) in lu_rows.enumerate().rev() {
        let (head, tail) = out.data.split_at_mut((i + 1) * row_len);
        let x_i = &mut head[i * row_len..];
        for (u, x_k) in lu_row[(i + 1) * nb..]
            .chunks_exact(nb)
            .zip(tail.chunks_exact(row_len))
        {
            for (x, xk) in x_i.chunks_exact_mut(nb).zip(x_k.chunks_exact(nb)) {
                for ((x, &xk), &u) in x.iter_mut().zip(xk).zip(u) {
                    *x -= u * xk;
                }
            }
        }
        let diag = &lu_row[i * nb..(i + 1) * nb];
        for x in x_i.chunks_exact_mut(nb) {
            for (x, &d) in x.iter_mut().zip(diag) {
                *x /= d;
            }
        }
    }
}

/// Batched power-iteration spectral-radius estimate: one estimate per
/// lane of the square `panel`, written into `out` (index-aligned with
/// lanes). The panel is used as scratch: it is left holding `|A|` with
/// its lanes compacted away.
///
/// Per lane this replays exactly
/// [`Matrix::spectral_radius_estimate`](crate::Matrix::spectral_radius_estimate):
/// the `v₀ = 1/n` start, the `|A|·v` accumulation order (each `w[i]`
/// summed in ascending `j` from `0.0`), the max-abs norm fold, the
/// normalization division, and the
/// [`SPECTRAL_RADIUS_RTOL`](crate::SPECTRAL_RADIUS_RTOL) early exit with
/// the same `it > 0` guard — so each lane's estimate is bit-identical to
/// the scalar call on that lane's matrix. A lane latches its result at
/// the step where the scalar call would return; latched lanes are
/// compacted out of the panel and the iterates an eighth of the panel at
/// a time, so lanes that converge early stop costing work.
///
/// Panics if the panel is not square.
pub fn spectral_radius_many(panel: &mut BatchPanel, max_iters: usize, out: &mut Vec<f64>) {
    let n = panel.rows();
    let nb = panel.batch();
    assert_eq!(panel.cols(), n, "spectral_radius_many: square panel");
    out.clear();
    out.resize(nb, 0.0);
    if n == 0 || nb == 0 {
        return;
    }
    for x in &mut panel.data {
        *x = x.abs();
    }
    // `ids[lane]` is the `out` index of live lane `lane`.
    let mut ids: Vec<usize> = (0..nb).collect();
    let mut v = BatchPanel::zeros(n, 1, nb);
    v.data.fill(1.0 / n as f64);
    let mut w = BatchPanel::zeros(n, 1, nb);
    let mut norm = vec![0.0f64; nb];
    let mut lambda = vec![0.0f64; nb];
    let mut latched = vec![false; nb];
    for it in 0..max_iters {
        let live = ids.len();
        if live == 0 {
            return;
        }
        for (w_i, a_row) in w
            .data
            .chunks_exact_mut(live)
            .zip(panel.data.chunks_exact(n * live))
        {
            w_i.fill(0.0);
            for (a, v_j) in a_row.chunks_exact(live).zip(v.data.chunks_exact(live)) {
                for ((w, &a), &v) in w_i.iter_mut().zip(a).zip(v_j) {
                    *w += a * v;
                }
            }
        }
        norm.clear();
        norm.resize(live, 0.0);
        for w_i in w.data.chunks_exact(live) {
            for (nm, &x) in norm.iter_mut().zip(w_i) {
                *nm = nm.max(x.abs());
            }
        }
        for w_i in w.data.chunks_exact_mut(live) {
            for (x, &nm) in w_i.iter_mut().zip(&norm) {
                *x /= nm;
            }
        }
        std::mem::swap(&mut v, &mut w);
        let lanes = ids
            .iter()
            .zip(&norm)
            .zip(lambda.iter_mut())
            .zip(latched.iter_mut());
        for (((&id, &nm), prev), done) in lanes {
            // The scalar kernel returns 0 on a vanished iterate, and the
            // estimate once two consecutive ones agree.
            if *done {
                continue;
            }
            if nm == 0.0 {
                out[id] = 0.0;
                *done = true;
            } else if it > 0 && (nm - *prev).abs() <= crate::SPECTRAL_RADIUS_RTOL * nm.abs() {
                out[id] = nm;
                *done = true;
            }
            *prev = nm;
        }
        // Latched lanes keep iterating (harmlessly) until an eighth of the
        // panel has latched; then one compaction sheds them all.
        let dead = latched[..live].iter().filter(|&&d| d).count();
        if dead > 0 && dead * 8 >= live {
            let keep: Vec<bool> = latched[..live].iter().map(|&d| !d).collect();
            panel.retain_lanes(&keep);
            v.retain_lanes(&keep);
            w.retain_lanes(&keep);
            let mut k = keep.iter();
            ids.retain(|_| *k.next().expect("mask covers every lane"));
            let mut k = keep.iter();
            lambda.retain(|_| *k.next().expect("mask covers every lane"));
            latched.clear();
            latched.resize(ids.len(), false);
        }
    }
    for ((&id, &l), &done) in ids.iter().zip(&lambda).zip(&latched) {
        if !done {
            out[id] = l;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lu_factor_into, lu_solve_cols_into};

    /// Deterministic pseudo-random matrix (splitmix-style hash of the
    /// entry coordinates), well-conditioned via diagonal dominance.
    fn test_matrix(n: usize, seed: u64, dominant: bool) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let mut z = seed
                    .wrapping_add((i as u64) << 32)
                    .wrapping_add(j as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15);
                z ^= z >> 30;
                z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z ^= z >> 27;
                m[(i, j)] = (z % 2000) as f64 / 1000.0 - 1.0;
                // Sprinkle exact zeros so the mul kernel's skip branch is
                // exercised on both sides.
                if z.is_multiple_of(7) {
                    m[(i, j)] = 0.0;
                }
            }
            if dominant {
                m[(i, i)] += n as f64 + 2.0;
            }
        }
        m
    }

    fn load_all(mats: &[Matrix]) -> BatchPanel {
        let (n, c) = (mats[0].rows(), mats[0].cols());
        let mut p = BatchPanel::zeros(n, c, mats.len());
        for (b, m) in mats.iter().enumerate() {
            p.load_lane(b, m);
        }
        p
    }

    #[test]
    fn load_store_roundtrip() {
        let mats: Vec<Matrix> = (0..3).map(|s| test_matrix(4, s, false)).collect();
        let p = load_all(&mats);
        let mut back = Matrix::zeros(1, 1);
        for (b, m) in mats.iter().enumerate() {
            p.store_lane(b, &mut back);
            assert_eq!(back.as_slice(), m.as_slice());
        }
    }

    #[test]
    fn batched_mul_is_bit_identical_to_scalar() {
        for batch in [1usize, 2, 5] {
            let lhs: Vec<Matrix> = (0..batch as u64)
                .map(|s| test_matrix(6, s, false))
                .collect();
            let rhs: Vec<Matrix> = (0..batch as u64)
                .map(|s| test_matrix(6, s + 100, false))
                .collect();
            let (pl, pr) = (load_all(&lhs), load_all(&rhs));
            let mut po = BatchPanel::zeros(1, 1, 1);
            pl.mul_into(&pr, &mut po);
            let mut got = Matrix::zeros(1, 1);
            for b in 0..batch {
                let mut want = Matrix::zeros(6, 6);
                lhs[b].mul_into(&rhs[b], &mut want).unwrap();
                po.store_lane(b, &mut got);
                for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
                    assert_eq!(g.to_bits(), w.to_bits());
                }
            }
        }
    }

    #[test]
    fn add_and_identity_minus_match_scalar() {
        let a: Vec<Matrix> = (0..3).map(|s| test_matrix(5, s, false)).collect();
        let b: Vec<Matrix> = (0..3).map(|s| test_matrix(5, s + 7, false)).collect();
        let mut pa = load_all(&a);
        let pb = load_all(&b);
        pa.add_assign(&pb);
        let mut iu = BatchPanel::zeros(1, 1, 1);
        pa.identity_minus_into(&mut iu);
        let id = Matrix::identity(5);
        let mut got = Matrix::zeros(1, 1);
        for lane in 0..3 {
            let mut sum = a[lane].clone();
            sum.add_assign(&b[lane]).unwrap();
            let mut want = Matrix::zeros(5, 5);
            id.sub_into(&sum, &mut want).unwrap();
            iu.store_lane(lane, &mut got);
            for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
                assert_eq!(g.to_bits(), w.to_bits());
            }
        }
    }

    #[test]
    fn lu_solve_many_is_bit_identical_to_scalar() {
        let n = 5;
        for batch in [1usize, 2, 7] {
            let mats: Vec<Matrix> = (0..batch as u64).map(|s| test_matrix(n, s, true)).collect();
            let rhs: Vec<Matrix> = (0..batch as u64)
                .map(|s| test_matrix(n, s + 31, false))
                .collect();
            // Factor every lane through the scalar kernel; pack factors.
            let mut lus = BatchPanel::zeros(n, n, batch);
            let mut pivots = vec![0usize; n * batch];
            let mut lu = Matrix::zeros(n, n);
            let mut piv = Vec::new();
            for (b, m) in mats.iter().enumerate() {
                lu_factor_into(m, &mut lu, &mut piv).unwrap();
                lus.load_lane(b, &lu);
                pivots[b * n..(b + 1) * n].copy_from_slice(&piv);
            }
            let pb = load_all(&rhs);
            let mut out = BatchPanel::zeros(1, 1, 1);
            lu_solve_many_into(&lus, &pivots, &pb, &mut out);
            // Differential oracle: the scalar solve per lane.
            let mut got = Matrix::zeros(1, 1);
            for (b, m) in mats.iter().enumerate() {
                lu_factor_into(m, &mut lu, &mut piv).unwrap();
                let mut want = Matrix::zeros(n, n);
                lu_solve_cols_into(&lu, &piv, &rhs[b], &mut want).unwrap();
                out.store_lane(b, &mut got);
                for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
                    assert_eq!(g.to_bits(), w.to_bits());
                }
            }
        }
    }

    #[test]
    fn lane_checks_match_scalar_and_garbage_lanes_are_isolated() {
        let m = test_matrix(4, 3, false);
        let mut p = BatchPanel::zeros(4, 4, 2);
        p.load_lane(0, &m);
        *p.at_mut(1, 2, 1) = f64::NAN;
        let mut max_abs = Vec::new();
        p.lanes_max_abs_into(&mut max_abs);
        assert_eq!(max_abs[0].to_bits(), m.max_abs().to_bits());
        let mut finite = Vec::new();
        p.lanes_finite_into(&mut finite);
        assert_eq!(finite, [true, false]);
        // A NaN-poisoned lane must not leak into its neighbour through a
        // batched product.
        let mut out = BatchPanel::zeros(1, 1, 1);
        p.mul_into(&p, &mut out);
        out.lanes_finite_into(&mut finite);
        assert!(finite[0]);
    }

    #[test]
    fn lu_factor_many_is_bit_identical_to_scalar_and_flags_failures() {
        let n = 6;
        let mut mats: Vec<Matrix> = (0..5).map(|s| test_matrix(n, s, false)).collect();
        // A singular lane (two equal rows), a non-finite lane, and a lane
        // whose first pivot is zero.
        let mut sing = test_matrix(n, 9, false);
        for j in 0..n {
            sing[(3, j)] = sing[(1, j)];
        }
        mats.push(sing);
        let mut nan = test_matrix(n, 10, true);
        nan[(2, 4)] = f64::NAN;
        mats.push(nan);
        let mut zero_pivot = test_matrix(n, 11, true);
        zero_pivot[(0, 0)] = 0.0;
        mats.push(zero_pivot);
        let mut lus = load_all(&mats);
        let (mut pivots, mut ok) = (Vec::new(), Vec::new());
        lu_factor_many_in_place(&mut lus, &mut pivots, &mut ok);
        let (mut lu, mut piv, mut got) = (Matrix::zeros(1, 1), Vec::new(), Matrix::zeros(1, 1));
        for (b, m) in mats.iter().enumerate() {
            let want = lu_factor_into(m, &mut lu, &mut piv);
            assert_eq!(ok[b], want.is_ok(), "lane {b}: {want:?}");
            if want.is_ok() {
                lus.store_lane(b, &mut got);
                for (g, w) in got.as_slice().iter().zip(lu.as_slice()) {
                    assert_eq!(g.to_bits(), w.to_bits(), "lane {b}");
                }
                assert_eq!(&pivots[b * n..(b + 1) * n], piv.as_slice(), "lane {b}");
            }
        }
    }

    #[test]
    fn spectral_radius_many_is_bit_identical_to_scalar() {
        // Lanes converging at different speeds, a zero lane (norm-0 exit),
        // and a diagonal lane (instant convergence) all latch the exact
        // scalar estimate despite the batch iterating past their exits.
        let mut mats: Vec<Matrix> = (0..5).map(|s| test_matrix(6, s, false)).collect();
        mats.push(Matrix::zeros(6, 6));
        let mut diag = Matrix::zeros(6, 6);
        for i in 0..6 {
            diag[(i, i)] = 0.1 + i as f64 / 10.0;
        }
        mats.push(diag);
        let mut got = Vec::new();
        for budget in [0usize, 1, 3, 200] {
            spectral_radius_many(&mut load_all(&mats), budget, &mut got);
            for (b, m) in mats.iter().enumerate() {
                let want = m.spectral_radius_estimate(budget);
                assert_eq!(
                    got[b].to_bits(),
                    want.to_bits(),
                    "lane {b}, budget {budget}: {} vs {want}",
                    got[b]
                );
            }
        }
    }

    #[test]
    fn retain_lanes_compacts_survivors_in_order_and_bit_exact() {
        let mats: Vec<Matrix> = (0..5).map(|s| test_matrix(4, s, false)).collect();
        let mut p = load_all(&mats);
        p.retain_lanes(&[true, false, true, true, false]);
        assert_eq!(p.batch(), 3);
        let mut got = Matrix::zeros(1, 1);
        for (lane, orig) in [0usize, 2, 3].iter().enumerate() {
            p.store_lane(lane, &mut got);
            for (g, w) in got.as_slice().iter().zip(mats[*orig].as_slice()) {
                assert_eq!(g.to_bits(), w.to_bits());
            }
        }
        // Compacted panels multiply bit-identically to narrow-built ones.
        let narrow = load_all(&[mats[0].clone(), mats[2].clone(), mats[3].clone()]);
        let (mut a, mut b) = (BatchPanel::zeros(1, 1, 1), BatchPanel::zeros(1, 1, 1));
        p.mul_into(&p, &mut a);
        narrow.mul_into(&narrow, &mut b);
        assert_eq!(a, b);
        // All-survivor and no-survivor edges.
        p.retain_lanes(&[true, true, true]);
        assert_eq!(p.batch(), 3);
        p.retain_lanes(&[false, false, false]);
        assert_eq!(p.batch(), 0);
    }

    #[test]
    fn reshape_resets_to_canonical_zero() {
        let mut p = BatchPanel::zeros(2, 2, 2);
        *p.at_mut(0, 0, 0) = 9.0;
        p.reshape(3, 2, 4);
        assert_eq!((p.rows(), p.cols(), p.batch()), (3, 2, 4));
        assert!((0..3).all(|i| (0..2).all(|j| (0..4).all(|b| p.at(i, j, b) == 0.0))));
    }
}
