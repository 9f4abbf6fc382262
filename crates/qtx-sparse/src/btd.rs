//! Block tri-diagonal matrices with dense blocks.
//!
//! The Schrödinger matrix `T = E·S − H − Σ^RB` of a layered device is block
//! tri-diagonal after grouping the atomistic layers into unit-cell slabs
//! (Fig. 4). SplitSolve, the RGF sweep, the MUMPS-like direct solver and
//! the BCR baseline all operate on this layout.

use qtx_linalg::{Complex64, ZMat};
use serde::{Deserialize, Serialize};

use crate::chain::es_minus_h_entry;
use crate::csr::Csr;
use crate::error::SparseShapeError;

/// A square block tri-diagonal matrix with `nb` diagonal blocks of equal
/// size `bs` (uniform block size — the transport slabs are homogeneous).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Btd {
    /// Diagonal blocks `A_{i,i}`, length `nb`.
    pub diag: Vec<ZMat>,
    /// Super-diagonal blocks `A_{i,i+1}`, length `nb − 1`.
    pub upper: Vec<ZMat>,
    /// Sub-diagonal blocks `A_{i+1,i}`, length `nb − 1`.
    pub lower: Vec<ZMat>,
}

impl Btd {
    /// Builds from block vectors, validating shapes. Malformed inputs are
    /// reported as [`SparseShapeError`] so a sweep can skip the offending
    /// point instead of aborting mid-run.
    pub fn new(
        diag: Vec<ZMat>,
        upper: Vec<ZMat>,
        lower: Vec<ZMat>,
    ) -> Result<Self, SparseShapeError> {
        if diag.is_empty() {
            return Err(SparseShapeError::EmptyDiag);
        }
        let bs = diag[0].rows();
        for (which, band) in [("upper", &upper), ("lower", &lower)] {
            if band.len() != diag.len() - 1 {
                return Err(SparseShapeError::BlockCountMismatch {
                    which,
                    expected: diag.len() - 1,
                    got: band.len(),
                });
            }
        }
        for (which, band) in [("diagonal", &diag), ("upper", &upper), ("lower", &lower)] {
            for (index, b) in band.iter().enumerate() {
                if (b.rows(), b.cols()) != (bs, bs) {
                    return Err(SparseShapeError::NonUniformBlock {
                        which,
                        index,
                        got: (b.rows(), b.cols()),
                        expected: (bs, bs),
                    });
                }
            }
        }
        Ok(Btd { diag, upper, lower })
    }

    /// Zero matrix with `nb` blocks of size `bs`.
    pub fn zeros(nb: usize, bs: usize) -> Self {
        Btd {
            diag: vec![ZMat::zeros(bs, bs); nb],
            upper: vec![ZMat::zeros(bs, bs); nb.saturating_sub(1)],
            lower: vec![ZMat::zeros(bs, bs); nb.saturating_sub(1)],
        }
    }

    /// Number of diagonal blocks.
    pub fn num_blocks(&self) -> usize {
        self.diag.len()
    }

    /// Size of each (square) block.
    pub fn block_size(&self) -> usize {
        self.diag[0].rows()
    }

    /// Total matrix dimension `nb·bs` (the paper's `N_SS`).
    pub fn dim(&self) -> usize {
        self.num_blocks() * self.block_size()
    }

    /// Builds a BTD matrix for a homogeneous chain: every diagonal block
    /// `d`, every coupling `u` (upper) / `l` (lower). This is the ideal
    /// lead/device of a periodic wire.
    pub fn uniform(nb: usize, d: &ZMat, u: &ZMat, l: &ZMat) -> Self {
        Btd {
            diag: vec![d.clone(); nb],
            upper: vec![u.clone(); nb - 1],
            lower: vec![l.clone(); nb - 1],
        }
    }

    /// Densifies (tests and small references only).
    pub fn to_dense(&self) -> ZMat {
        let bs = self.block_size();
        let n = self.dim();
        let mut m = ZMat::zeros(n, n);
        for (i, d) in self.diag.iter().enumerate() {
            m.set_block(i * bs, i * bs, d);
        }
        for (i, u) in self.upper.iter().enumerate() {
            m.set_block(i * bs, (i + 1) * bs, u);
        }
        for (i, l) in self.lower.iter().enumerate() {
            m.set_block((i + 1) * bs, i * bs, l);
        }
        m
    }

    /// Extracts the BTD structure from a CSR matrix. Any stored entry
    /// outside the block tri-diagonal envelope is reported as
    /// [`SparseShapeError::OutsideEnvelope`] — this is the chokepoint that
    /// makes the layout decision: once a matrix passes, every downstream
    /// solver may assume the envelope.
    pub fn from_csr(csr: &Csr, nb: usize, bs: usize) -> Result<Self, SparseShapeError> {
        if csr.rows() != nb * bs || csr.cols() != nb * bs {
            return Err(SparseShapeError::DimensionMismatch {
                expected: (nb * bs, nb * bs),
                got: (csr.rows(), csr.cols()),
            });
        }
        let mut btd = Btd::zeros(nb, bs);
        for r in 0..csr.rows() {
            let bi = r / bs;
            for (c, v) in csr.row(r) {
                let bj = c / bs;
                let (lr, lc) = (r % bs, c % bs);
                match bj as isize - bi as isize {
                    0 => btd.diag[bi][(lr, lc)] = v,
                    1 => btd.upper[bi][(lr, lc)] = v,
                    -1 => btd.lower[bj][(lr, lc)] = v,
                    _ => return Err(SparseShapeError::OutsideEnvelope { row: r, col: c }),
                }
            }
        }
        Ok(btd)
    }

    /// Block-level matrix–vector product `y = A·x`.
    pub fn matvec(&self, x: &[Complex64]) -> Vec<Complex64> {
        let bs = self.block_size();
        let nb = self.num_blocks();
        assert_eq!(x.len(), self.dim());
        let mut y = vec![Complex64::ZERO; self.dim()];
        for i in 0..nb {
            let xi = &x[i * bs..(i + 1) * bs];
            let yi = self.diag[i].matvec(xi);
            for (dst, v) in y[i * bs..(i + 1) * bs].iter_mut().zip(yi) {
                *dst += v;
            }
            if i + 1 < nb {
                let xn = &x[(i + 1) * bs..(i + 2) * bs];
                let yu = self.upper[i].matvec(xn);
                for (dst, v) in y[i * bs..(i + 1) * bs].iter_mut().zip(yu) {
                    *dst += v;
                }
                let yl = self.lower[i].matvec(xi);
                for (dst, v) in y[(i + 1) * bs..(i + 2) * bs].iter_mut().zip(yl) {
                    *dst += v;
                }
            }
        }
        y
    }

    /// Hermitian defect over the block structure.
    pub fn hermitian_defect(&self) -> f64 {
        let mut worst: f64 = 0.0;
        for d in &self.diag {
            worst = worst.max(d.hermitian_defect());
        }
        for (u, l) in self.upper.iter().zip(&self.lower) {
            worst = worst.max(u.max_diff(&l.adjoint()));
        }
        worst
    }

    /// Applies `self ← α·self` blockwise.
    pub fn scale(&mut self, alpha: Complex64) {
        for b in self.diag.iter_mut().chain(self.upper.iter_mut()).chain(self.lower.iter_mut()) {
            *b = b.scaled(alpha);
        }
    }

    /// `E·S − H` assembled blockwise: the matrix `A` of SplitSolve before
    /// boundary conditions are added (§3.B). One pass per block — each
    /// output entry is computed and written once; [`crate::EsMinusH`]
    /// streams the same blocks without assembling them.
    pub fn es_minus_h(energy: Complex64, s: &Btd, h: &Btd) -> Btd {
        assert_eq!(s.num_blocks(), h.num_blocks());
        let band = |s: &[ZMat], h: &[ZMat]| -> Vec<ZMat> {
            (s.iter().zip(h))
                .map(|(s, h)| ZMat::from_zip(s, h, |s, h| es_minus_h_entry(energy, s, h)))
                .collect()
        };
        Btd {
            diag: band(&s.diag, &h.diag),
            upper: band(&s.upper, &h.upper),
            lower: band(&s.lower, &h.lower),
        }
    }

    /// Memory footprint in complex entries (for the accelerator memory
    /// model — A is distributed over the GPUs and stored in their memory).
    pub fn storage_entries(&self) -> usize {
        let bs2 = self.block_size() * self.block_size();
        bs2 * (self.diag.len() + self.upper.len() + self.lower.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtx_linalg::c64;

    fn sample_btd(nb: usize, bs: usize) -> Btd {
        let mut btd = Btd::zeros(nb, bs);
        for i in 0..nb {
            btd.diag[i] = ZMat::random(bs, bs, 100 + i as u64);
            for d in 0..bs {
                btd.diag[i][(d, d)] += c64(4.0, 0.0);
            }
        }
        for i in 0..nb - 1 {
            btd.upper[i] = ZMat::random(bs, bs, 200 + i as u64);
            btd.lower[i] = ZMat::random(bs, bs, 300 + i as u64);
        }
        btd
    }

    #[test]
    fn dims_and_storage() {
        let b = Btd::zeros(5, 3);
        assert_eq!(b.dim(), 15);
        assert_eq!(b.num_blocks(), 5);
        assert_eq!(b.block_size(), 3);
        assert_eq!(b.storage_entries(), 9 * (5 + 4 + 4));
    }

    #[test]
    fn dense_roundtrip_via_csr() {
        let b = sample_btd(4, 3);
        let dense = b.to_dense();
        let csr = Csr::from_dense(&dense, 0.0);
        let back = Btd::from_csr(&csr, 4, 3).expect("inside envelope");
        assert!(back.to_dense().max_diff(&dense) < 1e-15);
    }

    #[test]
    fn from_csr_rejects_out_of_envelope() {
        let mut dense = ZMat::zeros(6, 6);
        dense[(0, 5)] = c64(1.0, 0.0); // far corner, outside tri-diagonal
        let csr = Csr::from_dense(&dense, 0.0);
        match Btd::from_csr(&csr, 3, 2) {
            Err(SparseShapeError::OutsideEnvelope { row: 0, col: 5 }) => {}
            other => panic!("expected OutsideEnvelope, got {other:?}"),
        }
    }

    #[test]
    fn new_reports_typed_shape_errors() {
        assert!(matches!(Btd::new(vec![], vec![], vec![]), Err(SparseShapeError::EmptyDiag)));
        let d = ZMat::zeros(2, 2);
        let err = Btd::new(vec![d.clone(), d.clone()], vec![], vec![ZMat::zeros(2, 2)]);
        assert!(matches!(err, Err(SparseShapeError::BlockCountMismatch { which: "upper", .. })));
        let err = Btd::new(vec![d.clone(), d], vec![ZMat::zeros(3, 2)], vec![ZMat::zeros(2, 2)]);
        assert!(matches!(
            err,
            Err(SparseShapeError::NonUniformBlock { which: "upper", index: 0, .. })
        ));
    }

    #[test]
    fn matvec_matches_dense() {
        let b = sample_btd(5, 2);
        let x: Vec<Complex64> = (0..10).map(|i| c64(i as f64 * 0.3, -0.1 * i as f64)).collect();
        let y_btd = b.matvec(&x);
        let y_dense = b.to_dense().matvec(&x);
        for (u, v) in y_btd.iter().zip(&y_dense) {
            assert!((*u - *v).abs() < 1e-12);
        }
    }

    #[test]
    fn hermitian_defect_zero_for_hermitian() {
        let mut b = sample_btd(3, 2);
        for d in b.diag.iter_mut() {
            d.hermitianize();
        }
        let lowers: Vec<ZMat> = b.upper.iter().map(|u| u.adjoint()).collect();
        b.lower = lowers;
        assert!(b.hermitian_defect() < 1e-15);
    }

    #[test]
    fn es_minus_h_identity_overlap() {
        let h = sample_btd(3, 2);
        let mut s = Btd::zeros(3, 2);
        for d in s.diag.iter_mut() {
            *d = ZMat::identity(2);
        }
        let e = c64(0.7, 0.0);
        let t = Btd::es_minus_h(e, &s, &h);
        let expected = &s.to_dense().scaled(e) - &h.to_dense();
        assert!(t.to_dense().max_diff(&expected) < 1e-14);
    }

    #[test]
    fn es_minus_h_is_bit_identical_to_scale_then_subtract() {
        // The fused single pass must reproduce `&s.scaled(e) - &h` exactly
        // (multiply, then subtract): sweep records depend on these bits.
        let h = sample_btd(4, 3);
        let mut s = sample_btd(4, 3);
        s.scale(c64(0.3, -0.2));
        for e in [c64(0.7, 0.0), c64(-1.3, 1e-6)] {
            let t = Btd::es_minus_h(e, &s, &h);
            for i in 0..4 {
                assert_eq!(t.diag[i], &s.diag[i].scaled(e) - &h.diag[i]);
            }
            for i in 0..3 {
                assert_eq!(t.upper[i], &s.upper[i].scaled(e) - &h.upper[i]);
                assert_eq!(t.lower[i], &s.lower[i].scaled(e) - &h.lower[i]);
            }
        }
    }

    #[test]
    fn uniform_chain_blocks_identical() {
        let d = ZMat::random(3, 3, 1);
        let u = ZMat::random(3, 3, 2);
        let l = u.adjoint();
        let b = Btd::uniform(6, &d, &u, &l);
        assert_eq!(b.num_blocks(), 6);
        for i in 0..5 {
            assert_eq!(b.upper[i], u);
        }
    }
}
