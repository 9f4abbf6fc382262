//! Rank-revealing compression for lead self-energies.
//!
//! Off resonance, the retarded self-energy `Σ = τ·g_s·τᴴ` of a
//! semi-infinite lead is numerically low-rank: only the handful of
//! propagating and slowly-decaying modes contribute, while the fast
//! evanescent ones fall below any sensible tolerance. [`CompressedSigma`]
//! measures that: it stores the truncated factor form `Σ ≈ U·Vᴴ` together
//! with an *honest* spectral-norm error bound (the Frobenius norm of the
//! discarded residual, which dominates its 2-norm).
//!
//! Nothing on the solve path consumes it. Σ travels from the OBC layer
//! through the cache into the interior kernels as the exact dense block;
//! this type reports the rank a lead would compress to
//! (`docs/sparsity.md`).
//!
//! What the transmission does take thin is the broadening
//! `Γ = i(Σ − Σᴴ)`: [`broadening_factor_ws`] splits it exactly through the
//! rows Σ occupies or the lead modes Σ was built from — no tolerance.

use crate::chain::BlockSupport;
use qtx_linalg::{gemm, gemm_into, orthonormalize_ws, Complex64, Op, Workspace, ZMat};
use serde::{Deserialize, Serialize};

/// A lead self-energy block, either dense (exact) or in truncated factor
/// form `Σ ≈ U·Vᴴ` with a recorded error bound `‖Σ − U·Vᴴ‖₂ ≤ bound`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum CompressedSigma {
    /// The exact dense block; `bound() == 0`.
    Dense(ZMat),
    /// Truncated factors: `u` is `n×r`, `v` is `n×r`, `Σ ≈ u·vᴴ`.
    Factored {
        /// Left factor (orthonormal columns).
        u: ZMat,
        /// Right factor.
        v: ZMat,
        /// Frobenius norm of the discarded residual — an upper bound on
        /// the spectral norm of the approximation error.
        bound: f64,
    },
}

impl CompressedSigma {
    /// Compresses `sigma` with relative tolerance `tol` (on the Frobenius
    /// norm). `tol ≤ 0` disables compression and stores the dense block
    /// bit-for-bit. Compression also falls back to dense when the revealed
    /// rank would not save memory (`r ≥ n/2`) — the factor form must never
    /// cost more than what it replaces.
    pub fn compress(sigma: &ZMat, tol: f64) -> CompressedSigma {
        let (n, m) = (sigma.rows(), sigma.cols());
        if tol <= 0.0 || n == 0 || m == 0 {
            return CompressedSigma::Dense(sigma.clone());
        }
        let threshold = tol * sigma.norm_fro();
        let max_rank = (n.min(m)) / 2;
        let mut resid = sigma.clone();
        let mut u_cols: Vec<Vec<Complex64>> = Vec::new();
        let mut v_cols: Vec<Vec<Complex64>> = Vec::new();
        loop {
            let rnorm = resid.norm_fro();
            if rnorm <= threshold {
                let r = u_cols.len();
                let u = ZMat::from_fn(n, r, |i, k| u_cols[k][i]);
                let v = ZMat::from_fn(m, r, |j, k| v_cols[k][j]);
                return CompressedSigma::Factored { u, v, bound: rnorm };
            }
            if u_cols.len() >= max_rank {
                return CompressedSigma::Dense(sigma.clone());
            }
            // Column-pivoted deflation: peel off the residual's dominant
            // column as the next left basis vector.
            let (mut pivot, mut best) = (0usize, -1.0f64);
            for j in 0..m {
                let nj: f64 = resid.col(j).iter().map(|z| z.norm_sqr()).sum();
                if nj > best {
                    best = nj;
                    pivot = j;
                }
            }
            if best <= 0.0 {
                // Residual is exactly zero columns beyond threshold — done.
                let r = u_cols.len();
                let u = ZMat::from_fn(n, r, |i, k| u_cols[k][i]);
                let v = ZMat::from_fn(m, r, |j, k| v_cols[k][j]);
                return CompressedSigma::Factored { u, v, bound: rnorm };
            }
            let scale = 1.0 / best.sqrt();
            let uk: Vec<Complex64> = resid.col(pivot).iter().map(|&z| z * scale).collect();
            // w = ukᴴ·R, then deflate R ← R − uk·w (rank-one update).
            let mut wk = vec![Complex64::ZERO; m];
            for (j, w) in wk.iter_mut().enumerate() {
                let mut acc = Complex64::ZERO;
                for (i, &ui) in uk.iter().enumerate() {
                    acc += ui.conj() * resid[(i, j)];
                }
                *w = acc;
            }
            for j in 0..m {
                let w = wk[j];
                for (i, &ui) in uk.iter().enumerate() {
                    resid[(i, j)] -= ui * w;
                }
            }
            u_cols.push(uk);
            v_cols.push(wk.iter().map(|w| w.conj()).collect());
        }
    }

    /// Recorded spectral-norm error bound (`0` for the dense form).
    pub fn bound(&self) -> f64 {
        match self {
            CompressedSigma::Dense(_) => 0.0,
            CompressedSigma::Factored { bound, .. } => *bound,
        }
    }

    /// Numerical rank of the stored representation.
    pub fn rank(&self) -> usize {
        match self {
            CompressedSigma::Dense(m) => m.rows().min(m.cols()),
            CompressedSigma::Factored { u, .. } => u.cols(),
        }
    }

    /// Bytes of complex storage held by this representation.
    pub fn bytes(&self) -> usize {
        let entries = match self {
            CompressedSigma::Dense(m) => m.rows() * m.cols(),
            CompressedSigma::Factored { u, v, .. } => u.rows() * u.cols() + v.rows() * v.cols(),
        };
        entries * std::mem::size_of::<Complex64>()
    }

    /// True when the factor form is in effect.
    pub fn is_compressed(&self) -> bool {
        matches!(self, CompressedSigma::Factored { .. })
    }

    /// Materializes the represented block.
    pub fn to_dense(&self) -> ZMat {
        match self {
            CompressedSigma::Dense(m) => m.clone(),
            CompressedSigma::Factored { u, v, .. } => {
                let mut out = ZMat::zeros(u.rows(), v.rows());
                gemm(Complex64::ONE, u, Op::None, v, Op::Adjoint, Complex64::ZERO, &mut out);
                out
            }
        }
    }
}

impl From<ZMat> for CompressedSigma {
    fn from(m: ZMat) -> Self {
        CompressedSigma::Dense(m)
    }
}

/// Thin factor `P` (`n × 2k`) of the broadening matrix of `sigma`,
/// `Γ = i(Σ − Σᴴ) = P·K·Pᴴ` with `K = [[0, iI], [−iI, 0]]`, the factor and
/// every temporary borrowed from `ws` (recycle the factor when spent).
///
/// Any `Σ = X·Yᴴ` gives `Γ = i(X·Yᴴ − Y·Xᴴ)`, which is the stated product
/// for `P = [X, Y]`. Σ has two such exact splits, and the thinner one is
/// returned:
///
/// * by rows: `X = E_R` (the unit columns of Σ's structurally non-zero
///   rows `R`) and `Y = Σ[R,:]ᴴ`, so `k = |R|`;
/// * by modes: a mode-built `Σ = −(T·U·Λ^{±1})·U⁺` is a product through
///   the `m` outgoing modes `U = modes`; with `Q = orth(U)` it satisfies
///   `Σ = (Σ·Q)·Qᴴ`, so `P = [Σ·Q, Q]`, `2m` columns wide whatever rows Σ
///   occupies. It is taken when `0 < m < |R|`.
///
/// Both are identities on the stored numbers — no rank decision, no
/// tolerance — and the choice reads nothing but the inputs, so equal
/// inputs give equal bits. `modes` must span the row space of Σ (the
/// modes it was assembled from do); nothing here can check that cheaply.
pub fn broadening_factor_ws(sigma: &ZMat, modes: Option<&ZMat>, ws: &Workspace) -> ZMat {
    let n = sigma.rows();
    let rows = BlockSupport::of(&[sigma]).rows;
    let k = rows.len();
    if let Some(u) = modes.filter(|u| u.cols() > 0 && u.cols() < k) {
        assert_eq!(u.rows(), n, "mode / self-energy size mismatch");
        let q = orthonormalize_ws(u, ws);
        let w = q.cols();
        let mut p = ws.take_scratch(n, 2 * w);
        let (one, zero) = (Complex64::ONE, Complex64::ZERO);
        gemm_into(
            one,
            sigma.view(),
            Op::None,
            q.view(),
            Op::None,
            zero,
            p.block_view_mut(0, 0, n, w),
        );
        p.set_block(0, w, &q);
        ws.recycle(q);
        return p;
    }
    let mut p = ws.take(n, 2 * k);
    for (j, &r) in rows.iter().enumerate() {
        p[(r, j)] = Complex64::ONE;
        for c in 0..sigma.cols() {
            p[(c, k + j)] = sigma[(r, c)].conj();
        }
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtx_linalg::c64;

    /// A numerically low-rank "self-energy": rank-3 outer products plus
    /// tiny noise, mimicking a lead off resonance.
    fn low_rank_sigma(n: usize, noise: f64) -> ZMat {
        let a = ZMat::random(n, 3, 17);
        let b = ZMat::random(n, 3, 23);
        let mut s = ZMat::zeros(n, n);
        gemm(Complex64::ONE, &a, Op::None, &b, Op::Adjoint, Complex64::ZERO, &mut s);
        let dust = ZMat::random(n, n, 31);
        s.axpy(c64(noise, 0.0), &dust);
        s
    }

    #[test]
    fn reconstruction_stays_within_recorded_bound() {
        let sigma = low_rank_sigma(16, 1e-9);
        let comp = CompressedSigma::compress(&sigma, 1e-6);
        assert!(comp.is_compressed(), "rank-3 + dust must compress");
        assert!(comp.rank() <= 5, "rank {} too high", comp.rank());
        let err = (&comp.to_dense() - &sigma).norm_fro();
        assert!(
            err <= comp.bound() * (1.0 + 1e-12) + 1e-14,
            "reconstruction error {err} exceeds recorded bound {}",
            comp.bound()
        );
        assert!(comp.bytes() < 16 * 16 * std::mem::size_of::<Complex64>());
    }

    #[test]
    fn tol_zero_is_bitwise_dense() {
        let sigma = low_rank_sigma(8, 0.1);
        let comp = CompressedSigma::compress(&sigma, 0.0);
        match &comp {
            CompressedSigma::Dense(m) => assert_eq!(m, &sigma),
            _ => panic!("tol = 0 must store dense"),
        }
        assert_eq!(comp.bound(), 0.0);
    }

    #[test]
    fn full_rank_input_falls_back_to_dense() {
        // A well-conditioned random matrix has no low-rank structure at
        // tight tolerance: compression must refuse rather than bloat.
        let sigma = ZMat::random(10, 10, 3);
        let comp = CompressedSigma::compress(&sigma, 1e-12);
        assert!(!comp.is_compressed());
        assert_eq!(comp.bound(), 0.0);
    }

    /// `P·K·Pᴴ` with `K = [[0, iI], [−iI, 0]]`, evaluated densely.
    fn p_k_ph(p: &ZMat) -> ZMat {
        let k = p.cols() / 2;
        let mut pk = ZMat::zeros(p.rows(), 2 * k);
        for j in 0..k {
            for i in 0..p.rows() {
                pk[(i, j)] = -Complex64::I * p[(i, k + j)];
                pk[(i, k + j)] = Complex64::I * p[(i, j)];
            }
        }
        let mut out = ZMat::zeros(p.rows(), p.rows());
        gemm(Complex64::ONE, &pk, Op::None, p, Op::Adjoint, Complex64::ZERO, &mut out);
        out
    }

    #[test]
    fn broadening_factor_reconstructs_gamma_without_a_tolerance() {
        let gamma = |sig: &ZMat| &sig.scaled(Complex64::I) - &sig.adjoint().scaled(Complex64::I);
        // Σ with structurally empty rows: k is the non-zero row count.
        let mut sigma = ZMat::random(7, 7, 5);
        for r in [0, 3, 4, 6] {
            for c in 0..7 {
                sigma[(r, c)] = Complex64::ZERO;
            }
        }
        let ws = Workspace::new();
        let p = broadening_factor_ws(&sigma, None, &ws);
        assert_eq!((p.rows(), p.cols()), (7, 6));
        assert!(p_k_ph(&p).max_diff(&gamma(&sigma)) < 1e-14);
        // Fully dense Σ: full support, same code.
        let full = ZMat::random(5, 5, 8);
        let p = broadening_factor_ws(&full, None, &ws);
        assert_eq!(p.cols(), 10);
        assert!(p_k_ph(&p).max_diff(&gamma(&full)) < 1e-14);
        // Σ = 0 has an empty factor.
        assert_eq!(broadening_factor_ws(&ZMat::zeros(4, 4), None, &ws).cols(), 0);
    }
}
