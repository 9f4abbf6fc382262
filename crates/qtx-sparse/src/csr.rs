//! Compressed sparse row matrices over complex entries.

use qtx_linalg::{Complex64, ZMat};
use serde::{Deserialize, Serialize};

use crate::error::SparseShapeError;

/// A complex matrix in compressed sparse row format.
///
/// Entries within a row are kept sorted by column index; duplicate
/// insertions are summed at build time (useful when accumulating
/// two-centre integrals from overlapping neighbour shells).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Csr {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<Complex64>,
}

/// Builder accumulating COO triplets before compression.
#[derive(Debug, Clone, Default)]
pub struct CsrBuilder {
    rows: usize,
    cols: usize,
    triplets: Vec<(usize, usize, Complex64)>,
}

impl CsrBuilder {
    /// Creates a builder for a `rows × cols` matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        CsrBuilder { rows, cols, triplets: Vec::new() }
    }

    /// Accumulates `value` at `(row, col)`; duplicates are summed.
    pub fn push(&mut self, row: usize, col: usize, value: Complex64) {
        debug_assert!(row < self.rows && col < self.cols);
        if value != Complex64::ZERO {
            self.triplets.push((row, col, value));
        }
    }

    /// Like [`CsrBuilder::build`], but validates every accumulated triplet
    /// against the declared shape first — the entry point for assembly
    /// paths that must survive malformed input (neighbor lists feeding the
    /// block-sparse device builder) instead of relying on debug assertions.
    pub fn try_build(self) -> Result<Csr, SparseShapeError> {
        let dims = (self.rows, self.cols);
        for &(r, c, _) in &self.triplets {
            if r >= self.rows || c >= self.cols {
                return Err(SparseShapeError::IndexOutOfBounds { row: r, col: c, dims });
            }
        }
        Ok(self.build())
    }

    /// Compresses into CSR form, summing duplicate coordinates.
    pub fn build(mut self) -> Csr {
        self.triplets.sort_unstable_by_key(|&(r, c, _)| (r, c));
        let mut row_ptr = vec![0usize; self.rows + 1];
        let mut col_idx = Vec::with_capacity(self.triplets.len());
        let mut values: Vec<Complex64> = Vec::with_capacity(self.triplets.len());
        let mut last: Option<(usize, usize)> = None;
        for (r, c, v) in self.triplets {
            if last == Some((r, c)) {
                *values.last_mut().expect("non-empty on duplicate") += v;
            } else {
                col_idx.push(c);
                values.push(v);
                row_ptr[r + 1] += 1;
                last = Some((r, c));
            }
        }
        for r in 0..self.rows {
            row_ptr[r + 1] += row_ptr[r];
        }
        Csr { rows: self.rows, cols: self.cols, row_ptr, col_idx, values }
    }
}

impl Csr {
    /// An empty matrix with no stored entries.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Csr { rows, cols, row_ptr: vec![0; rows + 1], col_idx: Vec::new(), values: Vec::new() }
    }

    /// Identity in sparse form.
    pub fn identity(n: usize) -> Self {
        let mut b = CsrBuilder::new(n, n);
        for i in 0..n {
            b.push(i, i, Complex64::ONE);
        }
        b.build()
    }

    /// Builds from a dense matrix, dropping entries below `tol` in
    /// magnitude.
    pub fn from_dense(m: &ZMat, tol: f64) -> Self {
        let mut b = CsrBuilder::new(m.rows(), m.cols());
        for i in 0..m.rows() {
            for j in 0..m.cols() {
                let v = m[(i, j)];
                if v.abs() > tol {
                    b.push(i, j, v);
                }
            }
        }
        b.build()
    }

    /// Densifies (small matrices / tests only).
    pub fn to_dense(&self) -> ZMat {
        let mut m = ZMat::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                m[(r, self.col_idx[k])] = self.values[k];
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of explicitly stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Stored entries of row `r` as `(col, value)` pairs.
    pub fn row(&self, r: usize) -> impl Iterator<Item = (usize, Complex64)> + '_ {
        (self.row_ptr[r]..self.row_ptr[r + 1]).map(move |k| (self.col_idx[k], self.values[k]))
    }

    /// Random access (O(log nnz_row)); zero if not stored.
    pub fn get(&self, r: usize, c: usize) -> Complex64 {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        match self.col_idx[lo..hi].binary_search(&c) {
            Ok(k) => self.values[lo + k],
            Err(_) => Complex64::ZERO,
        }
    }

    /// Sparse matrix–vector product `y = A·x`.
    pub fn matvec(&self, x: &[Complex64]) -> Vec<Complex64> {
        assert_eq!(x.len(), self.cols);
        let mut y = vec![Complex64::ZERO; self.rows];
        for (r, yr) in y.iter_mut().enumerate() {
            let mut acc = Complex64::ZERO;
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                acc = acc.mul_add(self.values[k], x[self.col_idx[k]]);
            }
            *yr = acc;
        }
        qtx_linalg::flops::flops_add(8 * self.nnz() as u64);
        y
    }

    /// Extracts the dense sub-block `rows r0..r0+h, cols c0..c0+w`.
    pub fn dense_block(&self, r0: usize, c0: usize, h: usize, w: usize) -> ZMat {
        let mut m = ZMat::zeros(h, w);
        for i in 0..h {
            for (c, v) in self.row(r0 + i) {
                if c >= c0 && c < c0 + w {
                    m[(i, c - c0)] = v;
                }
            }
        }
        m
    }

    /// Hermitian defect `max |A_ij − conj(A_ji)|` over stored entries.
    pub fn hermitian_defect(&self) -> f64 {
        let mut worst: f64 = 0.0;
        for r in 0..self.rows {
            for (c, v) in self.row(r) {
                worst = worst.max((v - self.get(c, r).conj()).abs());
            }
        }
        worst
    }

    /// Returns `α·A + β·B` (pattern union), or a typed shape error when
    /// the operands disagree in dimension.
    pub fn linear_combination(
        alpha: Complex64,
        a: &Csr,
        beta: Complex64,
        b: &Csr,
    ) -> Result<Csr, SparseShapeError> {
        if (a.rows, a.cols) != (b.rows, b.cols) {
            return Err(SparseShapeError::DimensionMismatch {
                expected: (a.rows, a.cols),
                got: (b.rows, b.cols),
            });
        }
        let mut builder = CsrBuilder::new(a.rows, a.cols);
        for r in 0..a.rows {
            for (c, v) in a.row(r) {
                builder.push(r, c, alpha * v);
            }
            for (c, v) in b.row(r) {
                builder.push(r, c, beta * v);
            }
        }
        Ok(builder.build())
    }

    /// Maximum column distance from the diagonal (matrix bandwidth).
    pub fn bandwidth(&self) -> usize {
        let mut bw = 0usize;
        for r in 0..self.rows {
            for (c, _) in self.row(r) {
                bw = bw.max(r.abs_diff(c));
            }
        }
        bw
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtx_linalg::c64;

    #[test]
    fn build_and_access() {
        let mut b = CsrBuilder::new(3, 3);
        b.push(0, 0, c64(1.0, 0.0));
        b.push(2, 1, c64(0.0, -2.0));
        b.push(1, 2, c64(3.0, 0.0));
        let m = b.build();
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.get(2, 1), c64(0.0, -2.0));
        assert_eq!(m.get(0, 1), Complex64::ZERO);
    }

    #[test]
    fn duplicates_are_summed() {
        let mut b = CsrBuilder::new(2, 2);
        b.push(0, 0, c64(1.0, 0.0));
        b.push(0, 0, c64(2.5, 1.0));
        let m = b.build();
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.get(0, 0), c64(3.5, 1.0));
    }

    #[test]
    fn dense_roundtrip() {
        let d = ZMat::random(6, 5, 3);
        let s = Csr::from_dense(&d, 0.0);
        assert!(s.to_dense().max_diff(&d) < 1e-15);
        assert_eq!(s.nnz(), 30);
    }

    #[test]
    fn matvec_matches_dense() {
        let d = ZMat::random(7, 7, 4);
        let s = Csr::from_dense(&d, 0.5); // drop small entries
        let dd = s.to_dense();
        let x: Vec<Complex64> = (0..7).map(|i| c64(i as f64, 1.0)).collect();
        let ys = s.matvec(&x);
        let yd = dd.matvec(&x);
        for (a, b) in ys.iter().zip(&yd) {
            assert!((*a - *b).abs() < 1e-12);
        }
    }

    #[test]
    fn identity_matvec() {
        let id = Csr::identity(5);
        let x: Vec<Complex64> = (0..5).map(|i| c64(i as f64, -2.0)).collect();
        let y = id.matvec(&x);
        assert_eq!(x, y);
    }

    #[test]
    fn dense_block_extraction() {
        let d = ZMat::random(8, 8, 6);
        let s = Csr::from_dense(&d, 0.0);
        let blk = s.dense_block(2, 3, 4, 5);
        assert!(blk.max_diff(&d.block(2, 3, 4, 5)) < 1e-15);
    }

    #[test]
    fn linear_combination_energy_shift() {
        // T = E·S − H, the expression assembled before every solve.
        let h = ZMat::random(5, 5, 7);
        let s_mat = ZMat::identity(5);
        let hs = Csr::from_dense(&h, 0.0);
        let ss = Csr::from_dense(&s_mat, 0.0);
        let e = c64(0.35, 0.0);
        let t = Csr::linear_combination(e, &ss, c64(-1.0, 0.0), &hs).expect("same shape");
        let expected = &s_mat.scaled(e) - &h;
        assert!(t.to_dense().max_diff(&expected) < 1e-14);
        let short = Csr::zeros(5, 4);
        assert!(matches!(
            Csr::linear_combination(e, &ss, c64(-1.0, 0.0), &short),
            Err(SparseShapeError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn try_build_rejects_out_of_bounds_triplets() {
        let mut b = CsrBuilder::new(2, 2);
        b.push(0, 0, c64(1.0, 0.0));
        b.triplets.push((5, 0, c64(1.0, 0.0))); // bypass push's debug check
        assert!(matches!(
            b.try_build(),
            Err(SparseShapeError::IndexOutOfBounds { row: 5, col: 0, dims: (2, 2) })
        ));
    }

    #[test]
    fn bandwidth_of_tridiagonal() {
        let mut b = CsrBuilder::new(6, 6);
        for i in 0..6 {
            b.push(i, i, Complex64::ONE);
            if i + 1 < 6 {
                b.push(i, i + 1, Complex64::ONE);
                b.push(i + 1, i, Complex64::ONE);
            }
        }
        assert_eq!(b.build().bandwidth(), 1);
    }

    #[test]
    fn hermitian_defect_detects_asymmetry() {
        let mut b = CsrBuilder::new(2, 2);
        b.push(0, 1, c64(1.0, 1.0));
        b.push(1, 0, c64(1.0, -1.0)); // = conj → Hermitian
        let m = b.build();
        assert!(m.hermitian_defect() < 1e-15);
        let mut b2 = CsrBuilder::new(2, 2);
        b2.push(0, 1, c64(1.0, 1.0));
        let m2 = b2.build();
        assert!(m2.hermitian_defect() > 1.0);
    }
}
