use std::fmt;
use std::ops::{Index, IndexMut};

use crate::{Cholesky, LinalgError};

/// A dense, row-major matrix of `f64` values.
///
/// This is the workhorse type of the workspace's numerical substrate. It is
/// intentionally simple: row-major storage in a single `Vec<f64>`, `O(1)`
/// indexing via `(row, col)` tuples, and a handful of dense kernels
/// (multiplication, transpose, solve) that the higher-level crates need.
///
/// # Example
///
/// ```
/// use utilcast_linalg::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// let c = a.mat_mul(&b).unwrap();
/// assert_eq!(c, a);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

/// The checkpoint container's form: rows, columns, the row-major values.
impl Matrix {
    /// Writes the matrix into a checkpoint container.
    pub fn encode_into(&self, out: &mut crate::container::Writer) {
        out.usize(self.rows);
        out.usize(self.cols);
        out.f64s(&self.data);
    }

    /// Reads a matrix written by [`Matrix::encode_into`].
    ///
    /// # Errors
    ///
    /// [`serde::DeError`] when the payload ends early or the values do not
    /// fill `rows x cols`.
    pub fn decode(input: &mut crate::container::Reader) -> Result<Self, serde::DeError> {
        let (rows, cols, data) = (input.usize()?, input.usize()?, input.f64s()?);
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(serde::DeError::new(format!(
                "matrix: {} values do not fill {rows} x {cols}",
                data.len()
            )));
        }
        Ok(Matrix { rows, cols, data })
    }
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    ///
    /// # Example
    ///
    /// ```
    /// use utilcast_linalg::Matrix;
    /// let m = Matrix::zeros(2, 3);
    /// assert_eq!(m.shape(), (2, 3));
    /// assert_eq!(m[(1, 2)], 0.0);
    /// ```
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    // lint:allow(panic-path): fn-scope audit: row-major offsets r * cols +
    // c stay within rows * cols buffers whose shape is established on
    // construction and debug_asserted in kernels; exemplar chain:
    // linalg::matrix::Matrix::identity
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a slice of row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have unequal lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(
                row.len(),
                ncols,
                "row {i} has length {} but expected {ncols}",
                row.len()
            );
            data.extend_from_slice(row);
        }
        Matrix {
            rows: nrows,
            cols: ncols,
            data,
        }
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match {rows}x{cols}",
            data.len()
        );
        Matrix { rows, cols, data }
    }

    /// Creates a diagonal matrix from the given diagonal entries.
    // lint:allow(panic-path): fn-scope audit: row-major offsets r * cols +
    // c stay within rows * cols buffers whose shape is established on
    // construction and debug_asserted in kernels; exemplar chain:
    // linalg::matrix::Matrix::from_diag
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &v) in diag.iter().enumerate() {
            m[(i, i)] = v;
        }
        m
    }

    /// Returns the shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Returns the number of rows.
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Returns the number of columns.
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Returns a view of row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= nrows()`.
    // lint:allow(panic-path): fn-scope audit: row-major offsets r * cols +
    // c stay within rows * cols buffers whose shape is established on
    // construction and debug_asserted in kernels; exemplar chain:
    // linalg::matrix::Matrix::row
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns a mutable view of row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= nrows()`.
    // lint:allow(panic-path): fn-scope audit: row-major offsets r * cols +
    // c stay within rows * cols buffers whose shape is established on
    // construction and debug_asserted in kernels; exemplar chain:
    // linalg::matrix::Matrix::row_mut
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns column `c` as an owned vector.
    ///
    /// # Panics
    ///
    /// Panics if `c >= ncols()`.
    // lint:allow(panic-path): fn-scope audit: row-major offsets r * cols +
    // c stay within rows * cols buffers whose shape is established on
    // construction and debug_asserted in kernels; exemplar chain:
    // linalg::matrix::Matrix::col
    pub fn col(&self, c: usize) -> Vec<f64> {
        assert!(
            c < self.cols,
            "column index {c} out of bounds ({})",
            self.cols
        );
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Returns the underlying row-major data slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Consumes the matrix and returns the underlying row-major data.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Returns the transpose.
    // lint:allow(panic-path): fn-scope audit: row-major offsets r * cols +
    // c stay within rows * cols buffers whose shape is established on
    // construction and debug_asserted in kernels; exemplar chain:
    // linalg::matrix::Matrix::transpose
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)];
            }
        }
        out
    }

    /// Dense matrix product `self * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.ncols() != rhs.nrows()`.
    pub fn mat_mul(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                left: self.shape(),
                right: rhs.shape(),
                op: "mat_mul",
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        // Blocked flat-buffer kernel; accumulation order per output element
        // (ascending k) matches the historical ikj loop bit for bit.
        crate::kernels::gemm_acc(
            &mut out.data,
            &self.data,
            &rhs.data,
            self.rows,
            self.cols,
            rhs.cols,
        );
        Ok(out)
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.ncols()`.
    pub fn mat_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(
            v.len(),
            self.cols,
            "vector length {} does not match column count {}",
            v.len(),
            self.cols
        );
        (0..self.rows)
            .map(|r| self.row(r).iter().zip(v).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// Element-wise sum `self + rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                left: self.shape(),
                right: rhs.shape(),
                op: "add",
            });
        }
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Element-wise difference `self - rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the shapes differ.
    pub fn sub(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                left: self.shape(),
                right: rhs.shape(),
                op: "sub",
            });
        }
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Returns `self` scaled by `factor`.
    pub fn scale(&self, factor: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|a| a * factor).collect(),
        }
    }

    /// Extracts the square submatrix with the given row/column indices
    /// (used for covariance conditioning in the Gaussian baselines).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    // lint:allow(panic-path): fn-scope audit: row-major offsets r * cols +
    // c stay within rows * cols buffers whose shape is established on
    // construction and debug_asserted in kernels; exemplar chain:
    // linalg::matrix::Matrix::select
    pub fn select(&self, row_idx: &[usize], col_idx: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(row_idx.len(), col_idx.len());
        for (ri, &r) in row_idx.iter().enumerate() {
            for (ci, &c) in col_idx.iter().enumerate() {
                out[(ri, ci)] = self[(r, c)];
            }
        }
        out
    }

    /// Computes the Cholesky factorization `A = L Lᵀ`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square input and
    /// [`LinalgError::NotPositiveDefinite`] if a pivot is non-positive.
    pub fn cholesky(&self) -> Result<Cholesky, LinalgError> {
        Cholesky::new(self)
    }

    /// Solves `A x = b` for square `A` by Gaussian elimination with partial
    /// pivoting. Use [`Matrix::cholesky`] when `A` is symmetric positive
    /// definite; this routine handles the general case.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square `A`,
    /// [`LinalgError::ShapeMismatch`] if `b.len() != nrows()`, and
    /// [`LinalgError::Singular`] if a pivot underflows working precision.
    // lint:allow(panic-path): fn-scope audit: row-major offsets r * cols +
    // c stay within rows * cols buffers whose shape is established on
    // construction and debug_asserted in kernels; exemplar chain:
    // linalg::matrix::Matrix::solve
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare {
                shape: self.shape(),
            });
        }
        let n = self.rows;
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                left: self.shape(),
                right: (b.len(), 1),
                op: "solve",
            });
        }
        let mut a = self.data.clone();
        let mut x = b.to_vec();
        for col in 0..n {
            // Partial pivoting: find the row with the largest magnitude pivot.
            let mut pivot_row = col;
            let mut pivot_val = a[col * n + col].abs();
            for r in col + 1..n {
                let v = a[r * n + col].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val < 1e-300 {
                return Err(LinalgError::Singular { pivot: col });
            }
            if pivot_row != col {
                for c in 0..n {
                    a.swap(col * n + c, pivot_row * n + c);
                }
                x.swap(col, pivot_row);
            }
            let pivot = a[col * n + col];
            for r in col + 1..n {
                let factor = a[r * n + col] / pivot;
                // lint:allow(float-eq): exact zero skip of a no-op
                // elimination row; an epsilon here would change the result
                if factor == 0.0 {
                    continue;
                }
                for c in col..n {
                    a[r * n + c] -= factor * a[col * n + c];
                }
                x[r] -= factor * x[col];
            }
        }
        // Back substitution.
        for col in (0..n).rev() {
            let mut sum = x[col];
            for c in col + 1..n {
                sum -= a[col * n + c] * x[c];
            }
            x[col] = sum / a[col * n + col];
        }
        Ok(x)
    }

    /// Computes the inverse of a square matrix by solving against the
    /// identity columns.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Matrix::solve`].
    // lint:allow(panic-path): fn-scope audit: row-major offsets r * cols +
    // c stay within rows * cols buffers whose shape is established on
    // construction and debug_asserted in kernels; exemplar chain:
    // linalg::matrix::Matrix::inverse
    pub fn inverse(&self) -> Result<Matrix, LinalgError> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare {
                shape: self.shape(),
            });
        }
        let n = self.rows;
        let mut out = Matrix::zeros(n, n);
        for c in 0..n {
            let mut e = vec![0.0; n];
            e[c] = 1.0;
            let col = self.solve(&e)?;
            for r in 0..n {
                out[(r, c)] = col[r];
            }
        }
        Ok(out)
    }

    /// Returns the trace (sum of diagonal entries).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    // lint:allow(panic-path): fn-scope audit: row-major offsets r * cols +
    // c stay within rows * cols buffers whose shape is established on
    // construction and debug_asserted in kernels; exemplar chain:
    // linalg::matrix::Matrix::trace
    pub fn trace(&self) -> f64 {
        assert!(self.is_square(), "trace requires a square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Returns the Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Returns the maximum absolute element difference to `rhs`, useful for
    /// approximate-equality assertions in tests.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn max_abs_diff(&self, rhs: &Matrix) -> f64 {
        assert_eq!(self.shape(), rhs.shape(), "shape mismatch in max_abs_diff");
        self.data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r}, {c}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r}, {c}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:10.4}", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::{Reader, Writer};

    /// [`Matrix::decode`] over a container holding `rows`, `cols` and
    /// `data` as [`Matrix::encode_into`] lays them out.
    fn decode_parts(rows: usize, cols: usize, data: &[f64]) -> Result<Matrix, serde::DeError> {
        let mut out = Writer::new();
        out.usize(rows);
        out.usize(cols);
        out.f64s(data);
        let bytes = out.seal();
        Matrix::decode(&mut Reader::open(&bytes)?)
    }

    #[test]
    fn decode_refuses_values_that_do_not_fill_the_shape() {
        let m = Matrix::from_rows(&[&[0.2], &[0.2], &[0.7], &[-0.0]]);
        let mut out = Writer::new();
        m.encode_into(&mut out);
        let bytes = out.seal();
        assert_eq!(Matrix::decode(&mut Reader::open(&bytes).unwrap()), Ok(m));
        for (rows, cols, data, fault) in [
            (4, 1, &[0.2, 0.2, 0.7][..], "3 values do not fill 4 x 1"),
            (
                2,
                2,
                &[0.2, 0.2, 0.7, 0.7, 0.1],
                "5 values do not fill 2 x 2",
            ),
            (0, 3, &[0.5], "1 values do not fill 0 x 3"),
            (usize::MAX, 2, &[], "0 values do not fill"),
        ] {
            match decode_parts(rows, cols, data) {
                Err(err) => assert!(err.to_string().contains(fault), "{fault}: {err}"),
                Ok(m) => panic!(
                    "{rows} x {cols} over {} values decoded to {m:?}",
                    data.len()
                ),
            }
        }
    }

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert_eq!(i.trace(), 3.0);
    }

    #[test]
    fn from_rows_and_indexing() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "row 1 has length")]
    fn from_rows_rejects_ragged_input() {
        let _ = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }

    #[test]
    fn transpose_round_trip() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn mat_mul_matches_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.mat_mul(&b).unwrap();
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn mat_mul_shape_mismatch_errors() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let err = a.mat_mul(&b).unwrap_err();
        assert!(matches!(
            err,
            LinalgError::ShapeMismatch { op: "mat_mul", .. }
        ));
    }

    #[test]
    fn mat_vec_matches_mat_mul() {
        let a = Matrix::from_rows(&[&[1.0, -1.0], &[2.0, 0.5]]);
        let v = vec![3.0, 4.0];
        assert_eq!(a.mat_vec(&v), vec![-1.0, 6.0 + 2.0]);
    }

    #[test]
    fn add_sub_scale() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 5.0]]);
        assert_eq!(a.add(&b).unwrap(), Matrix::from_rows(&[&[4.0, 7.0]]));
        assert_eq!(b.sub(&a).unwrap(), Matrix::from_rows(&[&[2.0, 3.0]]));
        assert_eq!(a.scale(2.0), Matrix::from_rows(&[&[2.0, 4.0]]));
    }

    #[test]
    fn solve_simple_system() {
        // 2x + y = 5, x + 3y = 10 -> x = 1, y = 3
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let x = a.solve(&[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Leading zero forces a row swap.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = a.solve(&[2.0, 3.0]).unwrap();
        assert_eq!(x, vec![3.0, 2.0]);
    }

    #[test]
    fn solve_detects_singular() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(
            a.solve(&[1.0, 2.0]),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn inverse_times_original_is_identity() {
        let a = Matrix::from_rows(&[&[4.0, 7.0], &[2.0, 6.0]]);
        let inv = a.inverse().unwrap();
        let prod = a.mat_mul(&inv).unwrap();
        assert!(prod.max_abs_diff(&Matrix::identity(2)) < 1e-12);
    }

    #[test]
    fn select_extracts_submatrix() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], &[7.0, 8.0, 9.0]]);
        let s = a.select(&[0, 2], &[1, 2]);
        assert_eq!(s, Matrix::from_rows(&[&[2.0, 3.0], &[8.0, 9.0]]));
    }

    #[test]
    fn from_diag_builds_diagonal() {
        let d = Matrix::from_diag(&[1.0, 2.0, 3.0]);
        assert_eq!(d.trace(), 6.0);
        assert_eq!(d[(0, 1)], 0.0);
        assert_eq!(d[(2, 2)], 3.0);
    }

    #[test]
    fn frobenius_norm_of_known_matrix() {
        let m = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn display_is_nonempty() {
        let m = Matrix::identity(2);
        let s = format!("{m}");
        assert!(s.contains("1.0000"));
    }
}
