//! Reusable scratch buffers for the solver hot path.
//!
//! The matrix-analytic pipeline (logarithmic reduction, functional
//! iteration, the spectral-radius certificate, the QBD boundary solve,
//! `expm`) performs thousands of small
//! matrix operations per solve; with the plain [`Matrix`] API every
//! `mul`/`add`/`inverse` allocates a fresh `Vec`. A [`Workspace`] owns a
//! pool of buffers that callers borrow for the duration of one operation
//! and hand back, so a sweep evaluating thousands of nearby points reuses
//! the same scratch throughout — zero steady-state heap traffic.
//!
//! # Determinism
//!
//! Every buffer handed out by [`Workspace::take_mat`] / [`take_vec`]
//! (and the pivot lists from [`take_idx`]) is reset to a canonical state
//! (zero-filled / cleared), so the result of a computation can never
//! depend on what a previous borrower left behind. A solve through a
//! freshly created workspace and the same solve through a heavily reused
//! one produce **bit-identical** results — the property that lets the
//! sweep engine share one workspace per worker thread without touching
//! its bit-identical-reports guarantee.
//!
//! [`take_vec`]: Workspace::take_vec
//! [`take_idx`]: Workspace::take_idx

use crate::Matrix;

/// A pool of reusable matrices, index lists, and vectors.
///
/// Buffers are taken out (`take_*`), used as plain owned values, and
/// given back (`give_*`). Giving back is optional for correctness — a
/// buffer that is dropped instead is simply re-allocated on the next
/// take — but required for the allocation-free steady state.
///
/// # Examples
///
/// ```
/// use cyclesteal_linalg::{Matrix, Workspace};
///
/// # fn main() -> Result<(), cyclesteal_linalg::LinalgError> {
/// let mut ws = Workspace::new();
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// let mut out = ws.take_mat(2, 2);
/// a.mul_into(&a, &mut out)?;
/// assert_eq!(out[(0, 0)], 7.0);
/// ws.give_mat(out); // capacity is retained for the next borrower
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct Workspace {
    mats: Vec<Matrix>,
    idxs: Vec<Vec<usize>>,
    vecs: Vec<Vec<f64>>,
}

impl Workspace {
    /// An empty workspace. Buffers are grown lazily on first use.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Borrows a zero-filled `rows x cols` matrix from the pool
    /// (allocating only if the pool is empty or the largest pooled buffer
    /// is too small).
    pub fn take_mat(&mut self, rows: usize, cols: usize) -> Matrix {
        match best_fit(&mut self.mats, rows * cols, Matrix::capacity) {
            Some(mut m) => {
                m.reshape(rows, cols);
                m
            }
            None => Matrix::zeros(rows, cols),
        }
    }

    /// Returns a matrix to the pool, retaining its capacity.
    pub fn give_mat(&mut self, m: Matrix) {
        pool_insert(&mut self.mats, m, Matrix::capacity);
    }

    /// Borrows an empty pivot/index list from the pool.
    pub fn take_idx(&mut self) -> Vec<usize> {
        match self.idxs.pop() {
            Some(mut v) => {
                v.clear();
                v
            }
            None => Vec::new(),
        }
    }

    /// Returns an index list to the pool.
    pub fn give_idx(&mut self, v: Vec<usize>) {
        self.idxs.push(v);
    }

    /// Borrows a zero-filled vector of length `n` from the pool.
    pub fn take_vec(&mut self, n: usize) -> Vec<f64> {
        match best_fit(&mut self.vecs, n, Vec::capacity) {
            Some(mut v) => {
                v.clear();
                v.resize(n, 0.0);
                v
            }
            None => vec![0.0; n],
        }
    }

    /// Returns a vector to the pool.
    pub fn give_vec(&mut self, v: Vec<f64>) {
        pool_insert(&mut self.vecs, v, Vec::capacity);
    }

    /// Number of currently pooled (idle) buffers across all kinds.
    pub fn pooled(&self) -> usize {
        self.mats.len() + self.idxs.len() + self.vecs.len()
    }
}

/// Removes and returns the pooled buffer that best fits `len` entries:
/// the smallest whose capacity holds them, else the largest (which then
/// grows). Handing small requests small buffers keeps a few large
/// buffers from being grown — and kept resident — in every role. Pools
/// are kept sorted by capacity (see [`pool_insert`]), so this is a
/// binary search.
fn best_fit<T>(pool: &mut Vec<T>, len: usize, capacity: impl Fn(&T) -> usize) -> Option<T> {
    if pool.is_empty() {
        return None;
    }
    let fit = pool.partition_point(|b| capacity(b) < len);
    Some(pool.remove(fit.min(pool.len() - 1)))
}

/// Returns `buf` to `pool`, keeping the pool sorted by capacity.
fn pool_insert<T>(pool: &mut Vec<T>, buf: T, capacity: impl Fn(&T) -> usize) {
    let at = pool.partition_point(|b| capacity(b) < capacity(&buf));
    pool.insert(at, buf);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_mat_is_zeroed_even_after_dirty_give_back() {
        let mut ws = Workspace::new();
        let mut m = ws.take_mat(2, 2);
        m[(0, 0)] = 42.0;
        ws.give_mat(m);
        let again = ws.take_mat(2, 2);
        assert_eq!(again.as_slice(), &[0.0; 4]);
        ws.give_mat(again);
        // Reshaping to a different size also yields zeros.
        let other = ws.take_mat(3, 1);
        assert_eq!(other.as_slice(), &[0.0; 3]);
    }

    #[test]
    fn take_vec_resets_length_and_contents() {
        let mut ws = Workspace::new();
        let mut v = ws.take_vec(3);
        v[1] = 7.0;
        ws.give_vec(v);
        let v = ws.take_vec(5);
        assert_eq!(v, vec![0.0; 5]);
    }

    #[test]
    fn pool_is_reused() {
        let mut ws = Workspace::new();
        let m = ws.take_mat(4, 4);
        ws.give_mat(m);
        assert_eq!(ws.pooled(), 1);
        let _m = ws.take_mat(2, 2);
        assert_eq!(ws.pooled(), 0, "the pooled buffer was handed out again");
    }

    #[test]
    fn takes_pick_the_smallest_buffer_that_fits() {
        let mut ws = Workspace::new();
        let (big, small) = (ws.take_mat(40, 40), ws.take_mat(2, 2));
        ws.give_mat(big);
        ws.give_mat(small);
        // The small request gets the small buffer, not the last given.
        assert_eq!(ws.take_mat(2, 1).capacity(), 4);
        assert_eq!(ws.take_mat(30, 30).capacity(), 1600);
        let v = ws.take_vec(100);
        ws.give_vec(v);
        ws.give_vec(Vec::with_capacity(3));
        assert!(ws.take_vec(50).capacity() >= 100);
    }

    #[test]
    fn take_idx_is_cleared() {
        let mut ws = Workspace::new();
        let mut p = ws.take_idx();
        p.extend([3, 1, 2]);
        ws.give_idx(p);
        assert!(ws.take_idx().is_empty());
    }
}
