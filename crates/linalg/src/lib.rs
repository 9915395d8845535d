//! Small dense linear algebra for matrix-analytic queueing methods.
//!
//! The quasi-birth-death (QBD) chains arising in the cycle-stealing analysis
//! have phase counts below twenty, so a straightforward dense row-major
//! [`Matrix`] with LU factorization ([`Lu`]) is both the simplest and the
//! fastest tool for the job. This crate deliberately has no dependencies.
//!
//! # Examples
//!
//! Solving a linear system:
//!
//! ```
//! use cyclesteal_linalg::Matrix;
//!
//! # fn main() -> Result<(), cyclesteal_linalg::LinalgError> {
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[2.0, 3.0]])?;
//! let x = a.solve(&[1.0, 2.0])?;
//! assert!((x[0] - 0.1).abs() < 1e-12);
//! assert!((x[1] - 0.6).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod error;
mod expm;
mod lu;
mod matrix;
mod workspace;

pub use error::LinalgError;
pub use lu::{
    lu_factor_in_place, lu_factor_into, lu_inverse_into, lu_solve_cols_into, lu_solve_into,
    lu_solve_rows_into, Lu,
};
pub use matrix::{Matrix, SpectralBound, SPECTRAL_RADIUS_RTOL};
pub use workspace::Workspace;

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Examples
///
/// ```
/// assert_eq!(cyclesteal_linalg::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Sum of all entries of a slice.
///
/// # Examples
///
/// ```
/// assert_eq!(cyclesteal_linalg::sum(&[1.0, 2.0, 3.0]), 6.0);
/// ```
pub fn sum(a: &[f64]) -> f64 {
    a.iter().sum()
}

/// Maximum absolute difference between two equal-length slices.
///
/// Useful as a convergence criterion for fixed-point iterations.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "max_abs_diff: length mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_sum() {
        assert_eq!(dot(&[1.0, -2.0, 3.0], &[4.0, 5.0, 6.0]), 12.0);
        assert_eq!(sum(&[]), 0.0);
    }

    #[test]
    fn max_abs_diff_basic() {
        assert_eq!(max_abs_diff(&[1.0, 2.0], &[1.5, 1.0]), 1.0);
        assert_eq!(max_abs_diff(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }
}
