//! Dense row-major `f64` matrix.

use crate::{LinalgError, Result};
use std::ops::{Index, IndexMut};

/// A dense, row-major matrix of `f64` values.
///
/// This is the workhorse type of the workspace: ground-set kernels, gradients
/// and embedding blocks are all `Matrix` values. Storage is a single
/// contiguous `Vec<f64>` of length `rows * cols`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows × cols` matrix with every entry equal to `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Reshapes in place to `rows × cols`, zero-filling every entry.
    ///
    /// The backing buffer is reused whenever its capacity allows, so calling
    /// this on a scratch matrix in a hot loop performs no allocation once the
    /// matrix has reached its steady-state size.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Copies `other` into `self`, reshaping as needed (buffer reused).
    pub fn copy_from(&mut self, other: &Matrix) {
        self.rows = other.rows;
        self.cols = other.cols;
        self.data.clear();
        self.data.extend_from_slice(&other.data);
    }

    /// Creates a matrix from a closure evaluated at every `(row, col)` pair.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from row-major data. Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "from_vec: data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from nested row slices. Panics on ragged input.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "from_rows: ragged rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Creates an `n × n` diagonal matrix from `diag`.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m.data[i * n + i] = d;
        }
        m
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

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Whether the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow the raw row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Consume the matrix, returning the row-major data.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r` as a slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copy column `c` into a new vector.
    pub fn col(&self, c: usize) -> Vec<f64> {
        debug_assert!(c < self.cols);
        (0..self.rows)
            .map(|r| self.data[r * self.cols + c])
            .collect()
    }

    /// Copy the main diagonal into a new vector.
    pub fn diag(&self) -> Vec<f64> {
        let n = self.rows.min(self.cols);
        (0..n).map(|i| self.data[i * self.cols + i]).collect()
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        t
    }

    /// Matrix product `self * other`.
    ///
    /// Uses the classic i-k-j loop order so the inner loop walks both operands
    /// contiguously as straight-line axpy updates the compiler auto-vectorizes
    /// (no data-dependent branches in the inner loop).
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into(other, &mut out)?;
        Ok(out)
    }

    /// Matrix product `self * other` written into `out` (buffer reused).
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) -> Result<()> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch {
                expected: (self.cols, other.cols),
                got: (other.rows, other.cols),
            });
        }
        out.reset(self.rows, other.cols);
        for i in 0..self.rows {
            let a_row = &self.data[i * self.cols..(i + 1) * self.cols];
            let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
            for (k, &aik) in a_row.iter().enumerate() {
                let b_row = &other.data[k * other.cols..(k + 1) * other.cols];
                for (o, &bkj) in out_row.iter_mut().zip(b_row) {
                    *o += aik * bkj;
                }
            }
        }
        Ok(())
    }

    /// Matrix–vector product `self * v`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if self.cols != v.len() {
            return Err(LinalgError::DimensionMismatch {
                expected: (self.cols, 1),
                got: (v.len(), 1),
            });
        }
        Ok((0..self.rows)
            .map(|r| crate::ops::dot(self.row(r), v))
            .collect())
    }

    /// Gram product `selfᵀ * self` (always symmetric PSD).
    pub fn gram(&self) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.gram_into(&mut out);
        out
    }

    /// Gram product `selfᵀ * self` written into `out` (buffer reused).
    ///
    /// Straight-line rank-1 updates: the inner loop is a branch-free axpy the
    /// compiler auto-vectorizes.
    pub fn gram_into(&self, out: &mut Matrix) {
        out.reset(self.cols, self.cols);
        for r in 0..self.rows {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            for i in 0..self.cols {
                let ri = row[i];
                let out_row = &mut out.data[i * self.cols..(i + 1) * self.cols];
                for (o, &rj) in out_row.iter_mut().zip(row) {
                    *o += ri * rj;
                }
            }
        }
    }

    /// Principal submatrix indexed by `idx` (rows and columns).
    ///
    /// `idx` entries must be in-bounds; duplicates are allowed (useful for
    /// tests) and preserved.
    pub fn principal_submatrix(&self, idx: &[usize]) -> Result<Matrix> {
        for &i in idx {
            if i >= self.rows || i >= self.cols {
                return Err(LinalgError::IndexOutOfBounds {
                    index: i,
                    bound: self.rows.min(self.cols),
                });
            }
        }
        let mut out = Matrix::zeros(0, 0);
        self.principal_submatrix_into(idx, &mut out)?;
        Ok(out)
    }

    /// Principal submatrix written into `out` (buffer reused).
    pub fn principal_submatrix_into(&self, idx: &[usize], out: &mut Matrix) -> Result<()> {
        for &i in idx {
            if i >= self.rows || i >= self.cols {
                return Err(LinalgError::IndexOutOfBounds {
                    index: i,
                    bound: self.rows.min(self.cols),
                });
            }
        }
        let m = idx.len();
        out.reset(m, m);
        for (a, &i) in idx.iter().enumerate() {
            for (b, &j) in idx.iter().enumerate() {
                out.data[a * m + b] = self.data[i * self.cols + j];
            }
        }
        Ok(())
    }

    /// Gather the given rows into a new `idx.len() × cols` matrix.
    pub fn gather_rows(&self, idx: &[usize]) -> Result<Matrix> {
        let mut out = Matrix::zeros(0, 0);
        self.gather_rows_into(idx, &mut out)?;
        Ok(out)
    }

    /// Gather the given rows into `out` (buffer reused).
    pub fn gather_rows_into(&self, idx: &[usize], out: &mut Matrix) -> Result<()> {
        for &i in idx {
            if i >= self.rows {
                return Err(LinalgError::IndexOutOfBounds {
                    index: i,
                    bound: self.rows,
                });
            }
        }
        out.reset(idx.len(), self.cols);
        for (a, &i) in idx.iter().enumerate() {
            out.row_mut(a).copy_from_slice(self.row(i));
        }
        Ok(())
    }

    /// In-place `self += alpha * other`.
    pub fn add_scaled(&mut self, alpha: f64, other: &Matrix) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(LinalgError::DimensionMismatch {
                expected: self.shape(),
                got: other.shape(),
            });
        }
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// In-place scalar multiplication.
    pub fn scale(&mut self, alpha: f64) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Returns a new matrix with `f` applied element-wise.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Symmetrizes in place: `self = (self + selfᵀ) / 2`. Panics on non-square.
    pub fn symmetrize(&mut self) {
        assert!(self.is_square(), "symmetrize requires a square matrix");
        let n = self.rows;
        for i in 0..n {
            for j in (i + 1)..n {
                let avg = 0.5 * (self.data[i * n + j] + self.data[j * n + i]);
                self.data[i * n + j] = avg;
                self.data[j * n + i] = avg;
            }
        }
    }

    /// Maximum absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }

    /// Largest absolute difference between two same-shape matrices.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.shape(), other.shape(), "max_abs_diff: shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .fold(0.0_f64, |m, (&a, &b)| m.max((a - b).abs()))
    }

    /// Whether the matrix is symmetric to tolerance `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        let n = self.rows;
        for i in 0..n {
            for j in (i + 1)..n {
                if (self.data[i * n + j] - self.data[j * n + i]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Trace of a square matrix.
    pub fn trace(&self) -> f64 {
        assert!(self.is_square(), "trace requires a square matrix");
        self.diag().iter().sum()
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl std::fmt::Display for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for r in 0..self.rows {
            for c in 0..self.cols {
                write!(f, "{:>12.6}", self[(r, c)])?;
                if c + 1 < self.cols {
                    write!(f, " ")?;
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, Matrix::from_rows(&[&[58.0, 64.0], &[139.0, 154.0]]));
    }

    #[test]
    fn matmul_shape_mismatch_errors() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f64);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn gram_is_symmetric_and_correct() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let g = a.gram();
        let expected = a.transpose().matmul(&a).unwrap();
        assert!(g.max_abs_diff(&expected) < 1e-12);
        assert!(g.is_symmetric(0.0));
    }

    #[test]
    fn principal_submatrix_picks_rows_and_cols() {
        let a = Matrix::from_fn(4, 4, |r, c| (r * 10 + c) as f64);
        let s = a.principal_submatrix(&[1, 3]).unwrap();
        assert_eq!(s, Matrix::from_rows(&[&[11.0, 13.0], &[31.0, 33.0]]));
    }

    #[test]
    fn principal_submatrix_out_of_bounds() {
        let a = Matrix::identity(3);
        assert!(matches!(
            a.principal_submatrix(&[0, 5]),
            Err(LinalgError::IndexOutOfBounds { index: 5, .. })
        ));
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_rows(&[&[1.0, -1.0], &[2.0, 0.5]]);
        let v = vec![3.0, 4.0];
        assert_eq!(a.matvec(&v).unwrap(), vec![-1.0, 8.0]);
    }

    #[test]
    fn symmetrize_fixes_asymmetry() {
        let mut a = Matrix::from_rows(&[&[1.0, 2.0], &[4.0, 3.0]]);
        a.symmetrize();
        assert_eq!(a[(0, 1)], 3.0);
        assert_eq!(a[(1, 0)], 3.0);
        assert!(a.is_symmetric(0.0));
    }

    #[test]
    fn diag_and_trace() {
        let a = Matrix::from_rows(&[&[1.0, 9.0], &[9.0, 2.0]]);
        assert_eq!(a.diag(), vec![1.0, 2.0]);
        assert_eq!(a.trace(), 3.0);
    }

    #[test]
    fn gather_rows_copies() {
        let a = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f64);
        let g = a.gather_rows(&[2, 0]).unwrap();
        assert_eq!(g, Matrix::from_rows(&[&[4.0, 5.0], &[0.0, 1.0]]));
    }
}
