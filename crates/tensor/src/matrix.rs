//! The owned dense matrix type and its constructors.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Index, IndexMut};

/// Error returned by the fallible constructors when the element count does
/// not match the requested shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    /// Requested number of rows.
    pub rows: usize,
    /// Requested number of columns.
    pub cols: usize,
    /// Number of elements actually supplied.
    pub len: usize,
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shape {}x{} requires {} elements, got {}",
            self.rows,
            self.cols,
            self.rows * self.cols,
            self.len
        )
    }
}

impl std::error::Error for ShapeError {}

/// A dense, row-major `f32` matrix.
///
/// Row vectors (`1 x n`) double as the vector type throughout the
/// workspace; there is deliberately no separate `Vector` struct.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// A `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// A `rows x cols` matrix with every entry set to `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// A `rows x cols` matrix of ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, 1.0)
    }

    /// The `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-major element vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`; use [`Matrix::try_from_vec`]
    /// for untrusted input.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        Self::try_from_vec(rows, cols, data)
            .unwrap_or_else(|e| panic!("Matrix::from_vec: {e}"))
    }

    /// Fallible version of [`Matrix::from_vec`].
    pub fn try_from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, ShapeError> {
        if data.len() != rows * cols {
            return Err(ShapeError { rows, cols, len: data.len() });
        }
        Ok(Self { rows, cols, data })
    }

    /// Builds a matrix from row slices; all rows must share a length.
    ///
    /// # Panics
    /// Panics if the rows are ragged or `rows` is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "Matrix::from_rows: no rows supplied");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), cols, "Matrix::from_rows: row {i} has length {} != {cols}", r.len());
            data.extend_from_slice(r);
        }
        Self { rows: rows.len(), cols, data }
    }

    /// A `1 x n` row vector copied from `slice`.
    pub fn row_vector(slice: &[f32]) -> Self {
        Self { rows: 1, cols: slice.len(), data: slice.to_vec() }
    }

    /// Builds a matrix by evaluating `f(row, col)` for every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The underlying row-major slice.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The underlying row-major slice, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Row `r` as a slice.
    ///
    /// # Panics
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "Matrix::row: index {r} out of {} rows", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "Matrix::row_mut: index {r} out of {} rows", self.rows);
        let cols = self.cols;
        &mut self.data[r * cols..(r + 1) * cols]
    }

    /// Copies row `r` out as a `1 x cols` matrix.
    pub fn row_matrix(&self, r: usize) -> Matrix {
        Matrix::row_vector(self.row(r))
    }

    /// Column `c` collected into a `Vec`.
    pub fn col(&self, c: usize) -> Vec<f32> {
        assert!(c < self.cols, "Matrix::col: index {c} out of {} cols", self.cols);
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// True when the matrix is a single row.
    #[inline]
    pub fn is_row_vector(&self) -> bool {
        self.rows == 1
    }

    /// True when every element is finite (no NaN / infinity).
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Checks that `self` and `other` share a shape, panicking with a
    /// message that names `op` otherwise. Used by the element-wise kernels.
    #[inline]
    pub(crate) fn require_same_shape(&self, other: &Matrix, op: &str) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "{op}: shape mismatch {}x{} vs {}x{}",
            self.rows,
            self.cols,
            other.rows,
            other.cols
        );
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        // Clamp output so debug prints of big weight matrices stay readable.
        const MAX_DIM: usize = 8;
        for r in 0..self.rows.min(MAX_DIM) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(MAX_DIM) {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:+.4}", self[(r, c)])?;
            }
            if self.cols > MAX_DIM {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > MAX_DIM {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_ones_filled() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let o = Matrix::ones(3, 2);
        assert!(o.as_slice().iter().all(|&v| v == 1.0));
        let f = Matrix::filled(1, 4, 2.5);
        assert_eq!(f.as_slice(), &[2.5; 4]);
    }

    #[test]
    fn identity_diagonal() {
        let i = Matrix::identity(4);
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(i[(r, c)], if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_vec_roundtrip() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn try_from_vec_reports_shape_error() {
        let err = Matrix::try_from_vec(2, 3, vec![0.0; 5]).unwrap_err();
        assert_eq!(err, ShapeError { rows: 2, cols: 3, len: 5 });
        assert!(err.to_string().contains("2x3"));
    }

    #[test]
    #[should_panic(expected = "Matrix::from_vec")]
    fn from_vec_panics_on_bad_len() {
        let _ = Matrix::from_vec(2, 2, vec![0.0; 3]);
    }

    #[test]
    fn from_rows_and_row_access() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(m.shape(), (3, 2));
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0, 5.0]);
        assert_eq!(m.row_matrix(2), Matrix::row_vector(&[5.0, 6.0]));
    }

    #[test]
    #[should_panic(expected = "row 1 has length 2")]
    fn from_rows_rejects_ragged() {
        let _ = Matrix::from_rows(&[&[1.0], &[1.0, 2.0]]);
    }

    #[test]
    fn from_fn_builds_expected_entries() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    fn row_mut_writes_through() {
        let mut m = Matrix::zeros(2, 2);
        m.row_mut(1).copy_from_slice(&[7.0, 8.0]);
        assert_eq!(m[(1, 0)], 7.0);
        assert_eq!(m[(1, 1)], 8.0);
    }

    #[test]
    fn all_finite_detects_nan_and_inf() {
        let mut m = Matrix::ones(2, 2);
        assert!(m.all_finite());
        m[(0, 0)] = f32::NAN;
        assert!(!m.all_finite());
        m[(0, 0)] = f32::INFINITY;
        assert!(!m.all_finite());
    }

    #[test]
    fn debug_output_is_bounded() {
        let m = Matrix::zeros(100, 100);
        let s = format!("{m:?}");
        assert!(s.lines().count() < 15, "debug print should clamp large matrices");
    }

    #[test]
    fn serde_roundtrip() {
        let m = Matrix::from_fn(3, 4, |r, c| r as f32 - c as f32);
        let json = serde_json::to_string(&m).unwrap();
        let back: Matrix = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }
}
