//! Dense linear algebra for Markov dependability models.
//!
//! Everything the CTMC solver needs, self-contained: a row-major [`Matrix`]
//! with the usual operations, LU decomposition with partial pivoting for
//! linear solves (MTTF computations), and the scaling-and-squaring Padé-13
//! matrix exponential (Higham 2005) for transient solutions. The Padé
//! route matters here: the paper's models mix repair rates around 10³/h
//! with fault rates around 10⁻⁴/h over one-year horizons, which is far too
//! stiff for explicit integration and too long for plain uniformization.

use std::fmt;

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

/// Error from a linear solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinalgError {
    /// The matrix is singular (or numerically so) and cannot be factorised.
    Singular,
    /// Operand dimensions are incompatible.
    DimensionMismatch,
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::Singular => write!(f, "matrix is singular"),
            LinalgError::DimensionMismatch => write!(f, "dimension mismatch"),
        }
    }
}

impl std::error::Error for LinalgError {}

impl Matrix {
    /// Creates a zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix from a nested slice of rows.
    ///
    /// # Panics
    ///
    /// Panics if rows are empty or ragged.
    #[cfg(test)]
    pub(crate) fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "need at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "need at least one column");
        let mut m = Matrix::zeros(rows.len(), cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), cols, "ragged rows");
            for (j, &v) in r.iter().enumerate() {
                m.set(i, j, v);
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Element access.
    ///
    /// # Panics
    ///
    /// Panics when out of range.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "index out of range");
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    ///
    /// # Panics
    ///
    /// Panics when out of range.
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "index out of range");
        self.data[r * self.cols + c] = v;
    }

    /// Adds `v` to an element.
    pub(crate) fn add_to(&mut self, r: usize, c: usize, v: f64) {
        let cur = self.get(r, c);
        self.set(r, c, cur + v);
    }

    /// Matrix product `self * other`.
    ///
    /// # Panics
    ///
    /// Panics on incompatible dimensions.
    pub fn mul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "incompatible dimensions for mul");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out.data[i * other.cols + j] += a * other.get(k, j);
                }
            }
        }
        out
    }

    /// Row-vector times matrix: `v * self`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != rows`.
    pub(crate) fn vec_mul(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.rows, "vector length mismatch");
        let mut out = vec![0.0; self.cols];
        for (i, &vi) in v.iter().enumerate() {
            if vi == 0.0 {
                continue;
            }
            for (j, o) in out.iter_mut().enumerate() {
                *o += vi * self.get(i, j);
            }
        }
        out
    }

    /// Element-wise sum.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, other: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let mut out = self.clone();
        for (a, b) in out.data.iter_mut().zip(&other.data) {
            *a += b;
        }
        out
    }

    /// Element-wise difference.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let mut out = self.clone();
        for (a, b) in out.data.iter_mut().zip(&other.data) {
            *a -= b;
        }
        out
    }

    /// Scalar multiple.
    pub fn scale(&self, k: f64) -> Matrix {
        let mut out = self.clone();
        for a in &mut out.data {
            *a *= k;
        }
        out
    }

    /// 1-norm (maximum absolute column sum).
    pub(crate) fn one_norm(&self) -> f64 {
        (0..self.cols)
            .map(|j| (0..self.rows).map(|i| self.get(i, j).abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// Solves `self * X = b` for multiple right-hand sides via LU with
    /// partial pivoting.
    ///
    /// # Errors
    ///
    /// [`LinalgError::Singular`] when a pivot vanishes,
    /// [`LinalgError::DimensionMismatch`] when shapes disagree.
    pub fn solve(&self, b: &Matrix) -> Result<Matrix, LinalgError> {
        if self.rows != self.cols || b.rows != self.rows {
            return Err(LinalgError::DimensionMismatch);
        }
        let n = self.rows;
        let mut lu = self.clone();
        let mut perm: Vec<usize> = (0..n).collect();

        for col in 0..n {
            // Partial pivot.
            let mut pivot = col;
            let mut best = lu.get(col, col).abs();
            for r in col + 1..n {
                let v = lu.get(r, col).abs();
                if v > best {
                    best = v;
                    pivot = r;
                }
            }
            if best < 1e-300 {
                return Err(LinalgError::Singular);
            }
            if pivot != col {
                for j in 0..n {
                    let tmp = lu.get(col, j);
                    lu.set(col, j, lu.get(pivot, j));
                    lu.set(pivot, j, tmp);
                }
                perm.swap(col, pivot);
            }
            let d = lu.get(col, col);
            for r in col + 1..n {
                let factor = lu.get(r, col) / d;
                lu.set(r, col, factor);
                for j in col + 1..n {
                    let v = lu.get(r, j) - factor * lu.get(col, j);
                    lu.set(r, j, v);
                }
            }
        }

        // Apply to each RHS column.
        let mut x = Matrix::zeros(n, b.cols);
        for rhs in 0..b.cols {
            // Permuted forward substitution (Ly = Pb).
            let mut y = vec![0.0; n];
            for i in 0..n {
                let mut v = b.get(perm[i], rhs);
                for (j, &yj) in y.iter().enumerate().take(i) {
                    v -= lu.get(i, j) * yj;
                }
                y[i] = v;
            }
            // Back substitution (Ux = y).
            for i in (0..n).rev() {
                let mut v = y[i];
                for j in i + 1..n {
                    v -= lu.get(i, j) * x.get(j, rhs);
                }
                x.set(i, rhs, v / lu.get(i, i));
            }
        }
        Ok(x)
    }

    /// Matrix exponential `e^self` by scaling-and-squaring with a Padé-13
    /// approximant (Higham 2005). Exact to machine precision for the small,
    /// stiff generator matrices of dependability models.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square, contains non-finite entries, or
    /// has finite entries whose column sums overflow.
    pub fn expm(&self) -> Matrix {
        assert_eq!(self.rows, self.cols, "expm needs a square matrix");
        assert!(
            self.data.iter().all(|v| v.is_finite()),
            "expm needs finite entries"
        );
        const THETA_13: f64 = 5.371_920_351_148_152;
        #[rustfmt::skip]
        const B: [f64; 14] = [
            64_764_752_532_480_000.0, 32_382_376_266_240_000.0, 7_771_770_303_897_600.0,
            1_187_353_796_428_800.0, 129_060_195_264_000.0, 10_559_470_521_600.0,
            670_442_572_800.0, 33_522_128_640.0, 1_323_241_920.0, 40_840_800.0,
            960_960.0, 16_380.0, 182.0, 1.0,
        ];
        // A one-norm that overflows would ask for u32::MAX squarings below.
        let norm = self.one_norm();
        assert!(norm.is_finite(), "expm needs a finite one-norm");
        let s = if norm > THETA_13 {
            (norm / THETA_13).log2().ceil().max(0.0) as u32
        } else {
            0
        };
        let a = self.scale(0.5f64.powi(s as i32));
        let n = self.rows;
        let id = Matrix::identity(n);

        let a2 = a.mul(&a);
        let a4 = a2.mul(&a2);
        let a6 = a2.mul(&a4);

        // U = A [ A6 (b13 A6 + b11 A4 + b9 A2) + b7 A6 + b5 A4 + b3 A2 + b1 I ]
        let u_inner = a6.scale(B[13]).add(&a4.scale(B[11])).add(&a2.scale(B[9]));
        let u = a.mul(
            &a6.mul(&u_inner)
                .add(&a6.scale(B[7]))
                .add(&a4.scale(B[5]))
                .add(&a2.scale(B[3]))
                .add(&id.scale(B[1])),
        );
        // V = A6 (b12 A6 + b10 A4 + b8 A2) + b6 A6 + b4 A4 + b2 A2 + b0 I
        let v_inner = a6.scale(B[12]).add(&a4.scale(B[10])).add(&a2.scale(B[8]));
        let v = a6
            .mul(&v_inner)
            .add(&a6.scale(B[6]))
            .add(&a4.scale(B[4]))
            .add(&a2.scale(B[2]))
            .add(&id.scale(B[0]));

        // r13(A) = (V - U)^{-1} (V + U)
        let mut r = v
            .sub(&u)
            .solve(&v.add(&u))
            .expect("(V-U) is nonsingular for scaled matrices");
        for _ in 0..s {
            r = r.mul(&r);
        }
        r
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                write!(f, "{:>12.5e} ", self.get(i, j))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} != {b} (tol {tol})");
    }

    #[test]
    fn construction_and_access() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.rows(), 2);
        assert_eq!(Matrix::identity(3).get(2, 2), 1.0);
        assert_eq!(Matrix::identity(3).get(0, 2), 0.0);
    }

    #[test]
    fn multiplication() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.mul(&b);
        assert_eq!(c.get(0, 0), 19.0);
        assert_eq!(c.get(0, 1), 22.0);
        assert_eq!(c.get(1, 0), 43.0);
        assert_eq!(c.get(1, 1), 50.0);
    }

    #[test]
    fn vec_mul_is_row_vector_product() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.vec_mul(&[1.0, 1.0]), vec![4.0, 6.0]);
        assert_eq!(m.vec_mul(&[1.0, 0.0]), vec![1.0, 2.0]);
    }

    #[test]
    fn one_norm_is_max_col_sum() {
        let m = Matrix::from_rows(&[&[1.0, -7.0], &[-2.0, 3.0]]);
        assert_eq!(m.one_norm(), 10.0);
    }

    #[test]
    fn solve_known_system() {
        // x + 2y = 5; 3x + 4y = 11 → x=1, y=2
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0], &[11.0]]);
        let x = a.solve(&b).unwrap();
        assert_close(x.get(0, 0), 1.0, 1e-12);
        assert_close(x.get(1, 0), 2.0, 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero on the diagonal forces a row swap.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let b = Matrix::from_rows(&[&[3.0], &[7.0]]);
        let x = a.solve(&b).unwrap();
        assert_close(x.get(0, 0), 7.0, 1e-12);
        assert_close(x.get(1, 0), 3.0, 1e-12);
    }

    #[test]
    fn solve_detects_singularity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        let b = Matrix::from_rows(&[&[1.0], &[2.0]]);
        assert_eq!(a.solve(&b), Err(LinalgError::Singular));
    }

    #[test]
    fn expm_of_zero_is_identity() {
        let z = Matrix::zeros(4, 4);
        let e = z.expm();
        for i in 0..4 {
            for j in 0..4 {
                assert_close(e.get(i, j), if i == j { 1.0 } else { 0.0 }, 1e-14);
            }
        }
    }

    #[test]
    #[should_panic(expected = "expm needs a finite one-norm")]
    fn expm_rejects_an_overflowing_one_norm() {
        // Every entry is finite, but column 0 sums past f64::MAX.
        let q = Matrix::from_rows(&[&[-1e308, 1e308], &[1e308, -1e308]]);
        let _ = q.expm();
    }

    #[test]
    fn expm_of_diagonal() {
        let d = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, -2.0]]);
        let e = d.expm();
        assert_close(e.get(0, 0), 1.0f64.exp(), 1e-12);
        assert_close(e.get(1, 1), (-2.0f64).exp(), 1e-12);
        assert_close(e.get(0, 1), 0.0, 1e-12);
    }

    #[test]
    fn expm_of_nilpotent() {
        // N = [[0,1],[0,0]] → e^N = I + N.
        let n = Matrix::from_rows(&[&[0.0, 1.0], &[0.0, 0.0]]);
        let e = n.expm();
        assert_close(e.get(0, 0), 1.0, 1e-14);
        assert_close(e.get(0, 1), 1.0, 1e-14);
        assert_close(e.get(1, 1), 1.0, 1e-14);
    }

    #[test]
    fn expm_rotation_matches_trig() {
        // A = [[0,-θ],[θ,0]] → e^A = rotation by θ.
        let theta = 1.234;
        let a = Matrix::from_rows(&[&[0.0, -theta], &[theta, 0.0]]);
        let e = a.expm();
        assert_close(e.get(0, 0), theta.cos(), 1e-12);
        assert_close(e.get(0, 1), -theta.sin(), 1e-12);
        assert_close(e.get(1, 0), theta.sin(), 1e-12);
    }

    #[test]
    fn expm_handles_stiff_generator() {
        // 2-state birth-death with wildly separated rates, the shape of the
        // paper's models: λ = 1e-4, μ = 1e3, horizon 8760h.
        let lam = 1e-4;
        let mu = 1e3;
        let t = 8760.0;
        let q = Matrix::from_rows(&[&[-lam, lam], &[mu, -mu]]);
        let e = q.scale(t).expm();
        let p_up = e.get(0, 0);
        // Analytic: p_up(t) = μ/(λ+μ) + λ/(λ+μ) e^{-(λ+μ)t} → steady state.
        let expect = mu / (lam + mu);
        assert_close(p_up, expect, 1e-9);
        // Rows of a stochastic matrix sum to 1.
        assert_close(e.get(0, 0) + e.get(0, 1), 1.0, 1e-9);
        assert_close(e.get(1, 0) + e.get(1, 1), 1.0, 1e-9);
    }

    #[test]
    fn expm_semigroup_property() {
        let a = Matrix::from_rows(&[&[-0.3, 0.3, 0.0], &[0.1, -0.4, 0.3], &[0.0, 0.2, -0.2]]);
        let e2 = a.scale(2.0).expm();
        let e1 = a.expm();
        let e1e1 = e1.mul(&e1);
        for i in 0..3 {
            for j in 0..3 {
                assert_close(e2.get(i, j), e1e1.get(i, j), 1e-12);
            }
        }
    }

    #[test]
    #[should_panic(expected = "square")]
    fn expm_rejects_non_square() {
        Matrix::zeros(2, 3).expm();
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_dimension_rejected() {
        Matrix::zeros(0, 1);
    }
}
