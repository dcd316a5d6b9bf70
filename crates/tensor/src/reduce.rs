//! Reductions: sums, means, norms, arg-max.

use crate::Matrix;

/// Result of an arg-max scan: the winning index and its value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArgMax {
    /// Index of the largest element.
    pub index: usize,
    /// Value of the largest element.
    pub value: f32,
}

/// Arg-max over a non-empty slice; ties resolve to the first maximum,
/// which keeps classification deterministic.
///
/// # Panics
/// Panics on an empty slice.
pub fn argmax_slice(values: &[f32]) -> ArgMax {
    assert!(!values.is_empty(), "argmax_slice: empty input");
    let mut best = ArgMax { index: 0, value: values[0] };
    for (i, &v) in values.iter().enumerate().skip(1) {
        if v > best.value {
            best = ArgMax { index: i, value: v };
        }
    }
    best
}

impl Matrix {
    /// Sum of all entries via the deterministic reduction tree: the
    /// result depends only on the data (bit-identical at any
    /// `FD_THREADS`), and matrices of at most
    /// [`crate::parallel::REDUCE_CHUNK`] entries sum in plain element
    /// order.
    pub fn sum(&self) -> f32 {
        crate::parallel::tree_sum(self.as_slice())
    }

    /// Mean of all entries.
    ///
    /// # Panics
    /// Panics on an empty matrix.
    pub fn mean(&self) -> f32 {
        assert!(!self.is_empty(), "mean: empty matrix");
        self.sum() / self.len() as f32
    }

    /// Per-column sums as a `1 x cols` row vector.
    pub fn col_sums(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols());
        for r in 0..self.rows() {
            for (acc, &v) in out.row_mut(0).iter_mut().zip(self.row(r)) {
                *acc += v;
            }
        }
        out
    }

    /// Column-wise mean as a `1 x cols` row vector.
    ///
    /// # Panics
    /// Panics when the matrix has no rows.
    pub fn col_means(&self) -> Matrix {
        assert!(self.rows() > 0, "col_means: matrix has no rows");
        self.col_sums().scale(1.0 / self.rows() as f32)
    }

    /// Frobenius norm (Euclidean norm of the flattened entries),
    /// computed over the deterministic reduction tree like [`Matrix::sum`].
    pub fn frobenius_norm(&self) -> f32 {
        crate::parallel::tree_sum_squares(self.as_slice()).sqrt()
    }

    /// Largest absolute entry; 0 for an empty matrix. Tree-reduced for
    /// the same thread-count invariance as [`Matrix::sum`].
    pub fn max_abs(&self) -> f32 {
        crate::parallel::tree_max_abs(self.as_slice())
    }

    /// Arg-max of row `r`.
    pub fn row_argmax(&self, r: usize) -> ArgMax {
        argmax_slice(self.row(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sums_and_means() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.sum(), 21.0);
        assert_eq!(m.mean(), 3.5);
        assert_eq!(m.col_sums(), Matrix::row_vector(&[5.0, 7.0, 9.0]));
        assert_eq!(m.col_means(), Matrix::row_vector(&[2.5, 3.5, 4.5]));
    }

    #[test]
    fn norms() {
        let m = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(m.frobenius_norm(), 5.0);
        let n = Matrix::from_rows(&[&[-7.0, 2.0]]);
        assert_eq!(n.max_abs(), 7.0);
        assert_eq!(Matrix::zeros(0, 0).max_abs(), 0.0);
    }

    #[test]
    fn argmax_prefers_first_tie() {
        let a = argmax_slice(&[1.0, 3.0, 3.0, 2.0]);
        assert_eq!(a, ArgMax { index: 1, value: 3.0 });
    }

    #[test]
    fn argmax_handles_negatives() {
        let a = argmax_slice(&[-5.0, -1.0, -3.0]);
        assert_eq!(a.index, 1);
    }

    #[test]
    #[should_panic(expected = "empty input")]
    fn argmax_empty_panics() {
        let _ = argmax_slice(&[]);
    }

    #[test]
    fn row_argmax_scans_correct_row() {
        let m = Matrix::from_rows(&[&[0.0, 9.0], &[8.0, 1.0]]);
        assert_eq!(m.row_argmax(0).index, 1);
        assert_eq!(m.row_argmax(1).index, 0);
    }
}
