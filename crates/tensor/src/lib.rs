//! Dense row-major `f32` matrix kernels.
//!
//! This crate is the numerical substrate of the FakeDetector reproduction.
//! It provides a single owned matrix type, [`Matrix`], together with the
//! linear-algebra kernels the autograd engine (`fd-autograd`) and the
//! neural-network layers (`fd-nn`) are built from: matrix products,
//! element-wise arithmetic, reductions, numerically stable soft-max /
//! log-sum-exp, and seeded weight initialisers.
//!
//! # Design notes
//!
//! * Everything is `f32` and row-major. The models in this workspace are
//!   small (hidden widths of 8–64), so cache-friendly contiguous storage
//!   beats clever layouts.
//! * Shape mismatches are programmer errors and **panic** with a message
//!   naming the operation and both shapes. Fallible `try_*` constructors
//!   are provided where data arrives from outside the process.
//! * All randomness is injected through [`rand::Rng`] so callers control
//!   seeding and experiments stay bit-reproducible.
//!
//! # Example
//!
//! ```
//! use fd_tensor::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::identity(2);
//! assert_eq!(a.matmul(&b), a);
//! assert_eq!(a.sum(), 10.0);
//! ```

mod gather;
mod init;
mod matrix;
mod ops;
pub mod parallel;
mod reduce;
mod stable;

pub use gather::{gather_rows, mean_rows, scatter_add_mean_rows, scatter_add_rows};
pub use init::{he_normal, uniform_in, xavier_uniform};
pub use matrix::{Matrix, ShapeError};
pub use ops::{current_simd_level, simd_level, with_simd_level, SimdLevel};
pub use reduce::{argmax_slice, ArgMax};
pub use stable::{log_sum_exp, softmax_in_place, softmax_rows, stable_sigmoid};

/// Asserts two matrices are element-wise equal within `tol`.
///
/// Intended for tests; panics with the first offending coordinate.
pub fn assert_close(a: &Matrix, b: &Matrix, tol: f32) {
    assert_eq!(
        (a.rows(), a.cols()),
        (b.rows(), b.cols()),
        "assert_close: shape mismatch {}x{} vs {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    for r in 0..a.rows() {
        for c in 0..a.cols() {
            let (x, y) = (a[(r, c)], b[(r, c)]);
            assert!(
                (x - y).abs() <= tol,
                "assert_close: mismatch at ({r},{c}): {x} vs {y} (tol {tol})"
            );
        }
    }
}
