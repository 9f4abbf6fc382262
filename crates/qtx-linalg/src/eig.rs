//! Dense complex eigensolvers (`zgeev`/`zggev`-lite).
//!
//! The shift-and-invert OBC baseline and FEAST's Rayleigh–Ritz step both
//! end in a dense non-Hermitian eigenvalue problem (§3.A, Eq. 7). LAPACK's
//! `zggev` is unavailable here, so this module implements the classic
//! pipeline from scratch:
//!
//! 1. Householder reduction to upper Hessenberg form — **blocked** above
//!    the ~96 crossover shared with the LU stack: panels of 32
//!    reflectors are aggregated `zlahr2`-style (the panel loop maintains
//!    the compact-WY triangle `T` and the product `Y = A·V·T` so panel
//!    columns see their two-sided updates immediately while everything
//!    else is deferred), then the trailing matrix takes one `Y·Vᴴ`
//!    right-update gemm and one `I − V·Tᴴ·Vᴴ` left-update WY sweep on the
//!    same gemm/trsm kernels as the blocked QR — every `·T` product is a
//!    gemm on the zero-filled upper triangle — and `Q` accumulates one
//!    panel at a time through three more gemms,
//! 2. explicitly shifted QR iteration with Givens rotations and Wilkinson
//!    shifts to the (complex) Schur form `A = Z·T·Zᴴ`,
//! 3. eigenvector recovery by triangular back-substitution,
//! 4. generalized problems `A·x = λ·B·x` by a `B⁻¹A` reduction (the FEAST
//!    reduced matrices `QᴴBQ` are well conditioned by construction).
//!
//! Every stage has a workspace-borrowing `_ws` form ([`hessenberg_ws`],
//! [`schur_ws`], [`eig_ws`], [`eig_generalized_ws`]) whose dense
//! temporaries — working copies, `Q`/`Z` accumulators, panel staging,
//! eigenvector matrix — all cycle through the caller's pool, so the FEAST
//! Rayleigh–Ritz step inside a warm OBC iteration allocates no fresh
//! matrices.

use crate::complex::{c64, Complex64};
use crate::flops::{counts, flops_add};
use crate::gemm::{gemm_into_unc, Op};
use crate::lu::{lu_factor_owned_ws, lu_factor_ws};
use crate::qr::{apply_panel_wy, mul_upper_t, stage_v, zlarfg};
use crate::trsm::Side;
use crate::workspace::Workspace;
use crate::zmat::ZMat;
use crate::{LinalgError, Result};

/// Panel width of the blocked Hessenberg reduction (matches the QR/LU
/// stacks so the staging buffers tile identically).
const NB: usize = 32;

/// Smallest order that takes the blocked path (same crossover family as
/// `lu::BLOCK_MIN`; below it the `Y`/`T` bookkeeping costs more than the
/// trailing gemms save).
const BLOCK_MIN: usize = 96;

/// Once fewer than this many reflectors remain, the tail runs scalar
/// (LAPACK's `NX` switch): the shrinking trailing blocks no longer feed
/// the packed gemm path efficiently.
const NX: usize = 64;

/// A complex Schur decomposition `A = Z·T·Zᴴ` with unitary `Z` and upper
/// triangular `T`.
#[derive(Debug, Clone)]
pub struct SchurDecomposition {
    /// Upper triangular factor; eigenvalues on the diagonal.
    pub t: ZMat,
    /// Unitary Schur vectors.
    pub z: ZMat,
}

/// Eigenvalues and right eigenvectors of a dense complex matrix.
#[derive(Debug, Clone)]
pub struct EigDecomposition {
    /// Eigenvalues (unsorted).
    pub values: Vec<Complex64>,
    /// Right eigenvectors, column `k` pairs with `values[k]`, unit 2-norm.
    pub vectors: ZMat,
}

/// Reduces `a` to upper Hessenberg form `H = Qᴴ·A·Q`, returning `(H, Q)`.
pub fn hessenberg(a: &ZMat) -> (ZMat, ZMat) {
    hessenberg_ws(a, &Workspace::new())
}

/// [`hessenberg`] with `H`, `Q` and all panel staging borrowed from `ws`
/// (recycle both returned matrices when spent).
pub fn hessenberg_ws(a: &ZMat, ws: &Workspace) -> (ZMat, ZMat) {
    let n = a.rows();
    assert!(a.is_square());
    flops_add(counts::zgehrd(n));
    let mut h = ws.copy_of(a);
    let mut q = ws.take(n, n);
    for i in 0..n {
        q[(i, i)] = Complex64::ONE;
    }
    let kmax = n.saturating_sub(2);
    if n >= BLOCK_MIN {
        let k0 = hess_blocked_panels(&mut h, &mut q, kmax, ws);
        hess_scalar_steps(&mut h, &mut q, k0, kmax);
    } else {
        hess_scalar_steps(&mut h, &mut q, 0, kmax);
    }
    (h, q)
}

/// The scalar one-reflector-at-a-time loop at any size: what
/// [`hessenberg`] runs below the crossover, and the reference
/// `bench_qr_json` and the blocked-vs-unblocked tests compare against.
pub fn hessenberg_unblocked(a: &ZMat) -> (ZMat, ZMat) {
    let n = a.rows();
    assert!(a.is_square());
    flops_add(counts::zgehrd(n));
    let mut h = a.clone();
    let mut q = ZMat::identity(n);
    hess_scalar_steps(&mut h, &mut q, 0, n.saturating_sub(2));
    (h, q)
}

/// Scalar Hessenberg steps `k ∈ lo..hi`: generate the reflector zeroing
/// column `k` below the subdiagonal, apply it two-sided and accumulate
/// `Q` — the seed algorithm, used below the crossover and for the tail of
/// the blocked path (which leaves the matrix fully updated).
fn hess_scalar_steps(h: &mut ZMat, q: &mut ZMat, lo: usize, hi: usize) {
    let n = h.rows();
    for k in lo..hi {
        // Reflector zeroing column k below the subdiagonal (shared
        // zlarfg: β lands on the subdiagonal, the tail becomes v).
        let tau = zlarfg(&mut h.col_mut(k)[k + 1..n]);
        if tau == Complex64::ZERO {
            continue;
        }
        let colk = h.col_mut(k);
        let mut v = vec![Complex64::ONE; n - k - 1];
        v[1..].copy_from_slice(&colk[k + 2..n]);
        colk[k + 2..n].fill(Complex64::ZERO);
        // H ← Hᴴ_refl · H = (I − τ̄ v vᴴ) H  on rows k+1.., columns k+1..
        for j in k + 1..n {
            let mut w = Complex64::ZERO;
            for i in k + 1..n {
                w += v[i - k - 1].conj() * h[(i, j)];
            }
            let f = tau.conj() * w;
            for i in k + 1..n {
                let vi = v[i - k - 1];
                h[(i, j)] -= vi * f;
            }
        }
        // H ← H · H_refl = H (I − τ v vᴴ)  on columns k+1.., all rows.
        for i in 0..n {
            let mut w = Complex64::ZERO;
            for j in k + 1..n {
                w += h[(i, j)] * v[j - k - 1];
            }
            let f = w * tau;
            for j in k + 1..n {
                let vj = v[j - k - 1];
                h[(i, j)] -= f * vj.conj();
            }
        }
        // Accumulate Q ← Q · H_refl.
        for i in 0..n {
            let mut w = Complex64::ZERO;
            for j in k + 1..n {
                w += q[(i, j)] * v[j - k - 1];
            }
            let f = w * tau;
            for j in k + 1..n {
                let vj = v[j - k - 1];
                q[(i, j)] -= f * vj.conj();
            }
        }
    }
}

/// Runs compact-WY panels until fewer than [`NX`] reflectors remain;
/// returns the first unreduced column (where the scalar tail picks up).
fn hess_blocked_panels(h: &mut ZMat, q: &mut ZMat, kmax: usize, ws: &Workspace) -> usize {
    let n = h.rows();
    let mut vbuf = ws.take_scratch(n, NB);
    let mut ybuf = ws.take_scratch(n, NB);
    let mut ytbuf = ws.take_scratch(n, NB);
    let mut tbuf = ws.take_scratch(NB, NB);
    let mut bbuf = ws.take_scratch(n, 1);
    let mut wbuf = ws.take_scratch(NB, n);
    let mut k0 = 0;
    while kmax - k0 > NX {
        let ib = NB.min(kmax - k0);
        hess_panel(h, k0, ib, &mut tbuf, &mut ybuf, &mut bbuf);
        let rb = k0 + 1;
        let nv = n - rb;
        let pe = k0 + ib;
        // V = unit-lower-trapezoid of the panel (packed one row below the
        // diagonal: the source block's own diagonal is the subdiagonal β).
        stage_v(&h.block_view(rb, k0, nv, ib), &mut vbuf);
        let v = vbuf.block_view(0, 0, nv, ib);
        let t = tbuf.block_view(0, 0, ib, ib);
        // Top rows of Y (untouched so far): Y[0..rb] = (A[0..rb, rb..n]·V)·T.
        {
            let mut yt = ybuf.block_view_mut(0, 0, rb, ib);
            gemm_into_unc(
                Complex64::ONE,
                h.block_view(0, rb, rb, nv),
                Op::None,
                v,
                Op::None,
                Complex64::ZERO,
                yt.rb(),
            );
            mul_upper_t(Side::Right, Op::None, t, yt.rb());
        }
        // Right update of the trailing columns (all rows): A −= Y·Vᴴ,
        // restricted to the V rows owning columns pe..n.
        gemm_into_unc(
            -Complex64::ONE,
            ybuf.block_view(0, 0, n, ib),
            Op::None,
            vbuf.block_view(ib - 1, 0, nv - ib + 1, ib),
            Op::Adjoint,
            Complex64::ONE,
            h.block_view_mut(0, pe, n, n - pe),
        );
        // Right update of the panel columns' top rows (rows 0..rb of
        // columns rb..rb+ib−1; rows rb.. were updated inside the panel).
        if ib > 1 {
            let mut w = ytbuf.block_view_mut(0, 0, rb, ib);
            gemm_into_unc(
                Complex64::ONE,
                ybuf.block_view(0, 0, rb, ib),
                Op::None,
                vbuf.block_view(0, 0, ib, ib),
                Op::Adjoint,
                Complex64::ZERO,
                w.rb(),
            );
            for tcol in 0..ib - 1 {
                for (dst, s) in h.col_mut(rb + tcol)[..rb].iter_mut().zip(w.col(tcol)) {
                    *dst -= *s;
                }
            }
        }
        // Left update of the trailing block: A ← (I − V·Tᴴ·Vᴴ)·A.
        apply_panel_wy(v, t, true, h.block_view_mut(rb, pe, nv, n - pe), &mut wbuf);
        // Accumulate Q ← Q·(I − V·T·Vᴴ): W = Q·V, W ← W·T, Q −= W·Vᴴ.
        {
            let mut wq = ytbuf.block_view_mut(0, 0, n, ib);
            gemm_into_unc(
                Complex64::ONE,
                q.block_view(0, rb, n, nv),
                Op::None,
                v,
                Op::None,
                Complex64::ZERO,
                wq.rb(),
            );
            mul_upper_t(Side::Right, Op::None, t, wq.rb());
            gemm_into_unc(
                -Complex64::ONE,
                wq.as_ref(),
                Op::None,
                v,
                Op::Adjoint,
                Complex64::ONE,
                q.block_view_mut(0, rb, n, nv),
            );
        }
        // The packed reflector tails are spent (later panels never read
        // them): zero the below-subdiagonal storage so `h` leaves as a
        // genuine Hessenberg matrix, matching the unblocked path.
        for t in 0..ib {
            let sub = rb + t;
            h.col_mut(k0 + t)[sub + 1..n].fill(Complex64::ZERO);
        }
        k0 += ib;
    }
    ws.recycle(vbuf);
    ws.recycle(ybuf);
    ws.recycle(ytbuf);
    ws.recycle(tbuf);
    ws.recycle(bbuf);
    ws.recycle(wbuf);
    k0
}

/// `zlahr2`-style panel reduction: generates `ib` reflectors starting at
/// column `k0`, keeping only the panel columns current. On exit the panel
/// columns hold the reduced Hessenberg values on top and the packed
/// reflector tails below the subdiagonal, `t[0..ib, 0..ib]` holds the
/// compact-WY triangle (zeros below the diagonal, so dense gemms may read
/// it), and `y[rb..n, 0..ib]` holds the lower rows of `Y = A·V·T` — the
/// deferred right-update aggregate the caller turns into trailing gemms.
fn hess_panel(h: &mut ZMat, k0: usize, ib: usize, t: &mut ZMat, y: &mut ZMat, bbuf: &mut ZMat) {
    let n = h.rows();
    let rb = k0 + 1;
    let mut ei = Complex64::ZERO;
    let mut svec = [Complex64::ZERO; NB];
    let mut wvec = [Complex64::ZERO; NB];
    for j in 0..ib {
        let c = k0 + j;
        if j > 0 {
            // Work on a copy of column c so the V columns stay readable.
            bbuf.col_mut(0)[rb..n].copy_from_slice(&h.col(c)[rb..n]);
            let b = &mut bbuf.col_mut(0)[..n];
            // (a) pending right-updates: b[rb..n] −= Y[rb..n, 0..j]·w̄
            // with w = row rb+j−1 of the unit-lower V (last entry 1).
            for (s, w) in wvec[..j].iter_mut().enumerate() {
                *w = if s == j - 1 { Complex64::ONE } else { h[(rb + j - 1, k0 + s)].conj() };
            }
            for (s, &f) in wvec[..j].iter().enumerate() {
                if f == Complex64::ZERO {
                    continue;
                }
                for (bi, yi) in b[rb..n].iter_mut().zip(&y.col(s)[rb..n]) {
                    *bi -= *yi * f;
                }
            }
            // (b) pending left-updates: b ← (I − V·Tᴴ·Vᴴ)·b.
            //     w = V1ᴴ·b1 + V2ᴴ·b2  (V1 unit lower j×j — its diagonal
            //     is implicit in the `acc` seed — V2 the stored tails).
            for i in 0..j {
                let mut acc = b[rb + i];
                for r in i + 1..j {
                    acc = acc.mul_add(h[(rb + r, k0 + i)].conj(), b[rb + r]);
                }
                let tail = Complex64::dot_conj(&h.col(k0 + i)[rb + j..n], &b[rb + j..n]);
                wvec[i] = acc + tail;
            }
            // w ← Tᴴ·w (conjugate-transposed upper triangle).
            for i in (0..j).rev() {
                let mut acc = Complex64::ZERO;
                for (l, w) in wvec.iter().enumerate().take(i + 1) {
                    acc = acc.mul_add(t[(l, i)].conj(), *w);
                }
                svec[i] = acc;
            }
            wvec[..j].copy_from_slice(&svec[..j]);
            // b2 −= V2·w ; b1 −= V1·w.
            for (i, &w) in wvec[..j].iter().enumerate() {
                if w == Complex64::ZERO {
                    continue;
                }
                let col = &h.col(k0 + i)[rb + j..n];
                for (bi, vi) in b[rb + j..n].iter_mut().zip(col) {
                    *bi -= *vi * w;
                }
            }
            for r in (0..j).rev() {
                let mut acc = wvec[r]; // unit diagonal of V1
                for (i, &w) in wvec[..r].iter().enumerate() {
                    acc = acc.mul_add(h[(rb + r, k0 + i)], w);
                }
                b[rb + r] -= acc;
            }
            h.col_mut(c)[rb..n].copy_from_slice(&bbuf.col(0)[rb..n]);
            // Restore the previous column's subdiagonal β.
            h[(rb + j - 1, k0 + j - 1)] = ei;
        }
        // Generate reflector j on h[rb+j.., c] (shared zlarfg), saving
        // the subdiagonal β as `ei` and storing an explicit unit head for
        // the Y/T products below.
        let tau_j = {
            let col = &mut h.col_mut(c)[rb + j..n];
            let t = zlarfg(col);
            ei = col[0];
            col[0] = Complex64::ONE;
            t
        };
        // Y[rb..n, j] = A[rb..n, c+1..n]·v  (v has its unit stored).
        gemm_into_unc(
            Complex64::ONE,
            h.block_view(rb, c + 1, n - rb, n - c - 1),
            Op::None,
            h.block_view(rb + j, c, n - rb - j, 1),
            Op::None,
            Complex64::ZERO,
            y.block_view_mut(rb, j, n - rb, 1),
        );
        // s = V[j.., 0..j]ᴴ·v (tail dots, contiguous columns).
        for (i, s) in svec[..j].iter_mut().enumerate() {
            *s = Complex64::dot_conj(&h.col(k0 + i)[rb + j..n], &h.col(c)[rb + j..n]);
        }
        // Y[rb..n, j] ← τ_j·(Y[rb..n, j] − Y[rb..n, 0..j]·s).
        for (s_idx, &s) in svec[..j].iter().enumerate() {
            if s == Complex64::ZERO {
                continue;
            }
            let (ys, yj) = y.two_cols_mut(s_idx, j);
            for (yj, yi) in yj[rb..n].iter_mut().zip(&ys[rb..n]) {
                *yj -= *yi * s;
            }
        }
        for z in y.col_mut(j)[rb..n].iter_mut() {
            *z *= tau_j;
        }
        // T(0..j, j) = −τ_j·T(0..j,0..j)·s ; T(j,j) = τ_j; zeros below.
        for i in 0..j {
            let mut acc = Complex64::ZERO;
            for (l, &s) in svec.iter().enumerate().take(j).skip(i) {
                acc = acc.mul_add(t[(i, l)], s);
            }
            wvec[i] = acc;
        }
        let tcol = t.col_mut(j);
        tcol.fill(Complex64::ZERO);
        for (ti, &wi) in tcol[..j].iter_mut().zip(&wvec[..j]) {
            *ti = -(tau_j * wi);
        }
        tcol[j] = tau_j;
    }
    // Restore the last column's subdiagonal β.
    h[(rb + ib - 1, k0 + ib - 1)] = ei;
}

/// A complex Givens rotation `[[c, s], [-s̄, c]]` with real `c ≥ 0`.
#[derive(Clone, Copy)]
struct Givens {
    c: f64,
    s: Complex64,
}

impl Givens {
    /// Computes the rotation that maps `(f, g)` to `(r, 0)`.
    fn compute(f: Complex64, g: Complex64) -> (Givens, Complex64) {
        if g == Complex64::ZERO {
            return (Givens { c: 1.0, s: Complex64::ZERO }, f);
        }
        if f == Complex64::ZERO {
            return (Givens { c: 0.0, s: Complex64::ONE }, g);
        }
        let fa = f.abs();
        let d = (f.norm_sqr() + g.norm_sqr()).sqrt();
        let c = fa / d;
        let s = (f / fa) * g.conj() / d;
        let r = (f / fa) * d;
        (Givens { c, s }, r)
    }

    /// Applies the rotation to the row pair `(x, y)` element-wise.
    #[inline(always)]
    fn rotate(&self, x: Complex64, y: Complex64) -> (Complex64, Complex64) {
        (x.scale(self.c) + self.s * y, y.scale(self.c) - self.s.conj() * x)
    }
}

/// Computes the complex Schur decomposition of `a`.
pub fn schur(a: &ZMat) -> Result<SchurDecomposition> {
    schur_ws(a, &Workspace::new())
}

/// [`schur`] with `T`, `Z` and the Hessenberg staging borrowed from `ws`
/// (both are recycled back into the pool on a convergence failure).
pub fn schur_ws(a: &ZMat, ws: &Workspace) -> Result<SchurDecomposition> {
    assert!(a.is_square());
    let (mut t, mut z) = hessenberg_ws(a, ws);
    match schur_iterate(&mut t, &mut z) {
        Ok(()) => Ok(SchurDecomposition { t, z }),
        Err(e) => {
            ws.recycle(t);
            ws.recycle(z);
            Err(e)
        }
    }
}

/// The shifted-QR deflation loop, in place on the Hessenberg pair.
fn schur_iterate(t: &mut ZMat, z: &mut ZMat) -> Result<()> {
    let n = t.rows();
    if n <= 1 {
        return Ok(());
    }
    flops_add(25 * (n as u64).pow(3));
    let scale = t.norm_max().max(1e-300);
    let small = f64::EPSILON * scale;
    let max_total_iters = 60 * n;
    let mut hi = n - 1;
    let mut iters_here = 0usize;
    let mut total_iters = 0usize;
    while hi > 0 {
        if total_iters > max_total_iters {
            return Err(LinalgError::NoConvergence { remaining: hi + 1 });
        }
        // Deflation scan: find the start `lo` of the active block.
        let mut lo = hi;
        while lo > 0 {
            let sub = t[(lo, lo - 1)].abs();
            let local = t[(lo - 1, lo - 1)].abs() + t[(lo, lo)].abs();
            if sub <= f64::EPSILON * local.max(small) {
                t[(lo, lo - 1)] = Complex64::ZERO;
                break;
            }
            lo -= 1;
        }
        if lo == hi {
            // Eigenvalue at `hi` has converged.
            hi -= 1;
            iters_here = 0;
            continue;
        }
        iters_here += 1;
        total_iters += 1;
        // Wilkinson shift from the trailing 2×2 of the active block, with
        // an exceptional shift every 10 stalled iterations.
        let mu = if iters_here.is_multiple_of(10) {
            t[(hi, hi)] + c64(1.5 * t[(hi, hi - 1)].abs(), 0.5 * t[(hi, hi - 1)].abs())
        } else {
            let a11 = t[(hi - 1, hi - 1)];
            let a12 = t[(hi - 1, hi)];
            let a21 = t[(hi, hi - 1)];
            let a22 = t[(hi, hi)];
            let tr_half = (a11 + a22).scale(0.5);
            let disc = ((a11 - a22).scale(0.5).powi(2) + a12 * a21).sqrt();
            let l1 = tr_half + disc;
            let l2 = tr_half - disc;
            if (l1 - a22).abs() <= (l2 - a22).abs() {
                l1
            } else {
                l2
            }
        };
        // Explicit shifted QR sweep on the block [lo, hi].
        for k in lo..=hi {
            t[(k, k)] -= mu;
        }
        let mut rotations = Vec::with_capacity(hi - lo);
        for k in lo..hi {
            let (g, r) = Givens::compute(t[(k, k)], t[(k + 1, k)]);
            t[(k, k)] = r;
            t[(k + 1, k)] = Complex64::ZERO;
            for j in k + 1..n {
                let (x, y) = g.rotate(t[(k, j)], t[(k + 1, j)]);
                t[(k, j)] = x;
                t[(k + 1, j)] = y;
            }
            rotations.push(g);
        }
        // Right-multiply by the adjoint rotations: T ← T·Gᴴ, Z ← Z·Gᴴ.
        for (idx, g) in rotations.iter().enumerate() {
            let k = lo + idx;
            let row_end = (k + 2).min(hi + 1);
            for i in 0..row_end {
                let x = t[(i, k)];
                let y = t[(i, k + 1)];
                t[(i, k)] = x.scale(g.c) + y * g.s.conj();
                t[(i, k + 1)] = y.scale(g.c) - x * g.s;
            }
            for i in 0..n {
                let x = z[(i, k)];
                let y = z[(i, k + 1)];
                z[(i, k)] = x.scale(g.c) + y * g.s.conj();
                z[(i, k + 1)] = y.scale(g.c) - x * g.s;
            }
        }
        for k in lo..=hi {
            t[(k, k)] += mu;
        }
    }
    // Clean any numerically negligible subdiagonals.
    for k in 1..n {
        t[(k, k - 1)] = Complex64::ZERO;
    }
    Ok(())
}

/// Computes eigenvalues and right eigenvectors of a dense complex matrix.
pub fn eig(a: &ZMat) -> Result<EigDecomposition> {
    eig_ws(a, &Workspace::new())
}

/// [`eig`] over pooled scratch: the Schur factors are recycled into `ws`
/// after the eigenvector recovery and the returned `vectors` matrix is
/// itself pool-backed (recycle it when spent).
pub fn eig_ws(a: &ZMat, ws: &Workspace) -> Result<EigDecomposition> {
    let n = a.rows();
    let dec = schur_ws(a, ws)?;
    let t = &dec.t;
    let values: Vec<Complex64> = (0..n).map(|i| t[(i, i)]).collect();
    // Back-substitute for eigenvectors in the Schur basis, then rotate.
    let mut vecs = ws.take(n, n);
    let scale = t.norm_max().max(1.0);
    let smlnum = (f64::EPSILON * scale).max(1e-280);
    for k in 0..n {
        let lambda = values[k];
        let mut y = vec![Complex64::ZERO; n];
        y[k] = Complex64::ONE;
        for i in (0..k).rev() {
            // (T(i,i) − λ)·y_i = −Σ_{j>i} T(i,j)·y_j
            let mut rhs = Complex64::ZERO;
            for j in i + 1..=k {
                rhs += t[(i, j)] * y[j];
            }
            let mut denom = t[(i, i)] - lambda;
            if denom.abs() < smlnum {
                denom = c64(smlnum, smlnum);
            }
            y[i] = -rhs / denom;
        }
        // v = Z·y, normalized.
        let v = dec.z.matvec(&y);
        let norm = v.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
        for (i, zv) in v.into_iter().enumerate() {
            vecs[(i, k)] = zv / norm;
        }
    }
    ws.recycle(dec.t);
    ws.recycle(dec.z);
    Ok(EigDecomposition { values, vectors: vecs })
}

/// Eigenvalues only (skips eigenvector recovery).
pub fn eigenvalues(a: &ZMat) -> Result<Vec<Complex64>> {
    let ws = Workspace::new();
    let dec = schur_ws(a, &ws)?;
    Ok((0..a.rows()).map(|i| dec.t[(i, i)]).collect())
}

/// Solves the generalized problem `A·x = λ·B·x` by reduction to the
/// standard problem `B⁻¹A·x = λ·x` (LAPACK `zggev` replacement; valid for
/// invertible `B`, which holds for the FEAST reduced matrices and the
/// companion pencils with invertible leading coupling block).
pub fn eig_generalized(a: &ZMat, b: &ZMat) -> Result<EigDecomposition> {
    eig_generalized_ws(a, b, &Workspace::new())
}

/// [`eig_generalized`] with the `B` factorization, the reduced matrix and
/// the eigensolver scratch all borrowed from `ws`.
pub fn eig_generalized_ws(a: &ZMat, b: &ZMat, ws: &Workspace) -> Result<EigDecomposition> {
    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
    let f = match lu_factor_ws(b, ws) {
        Ok(f) => f,
        Err(_) => {
            // Regularize a numerically singular B: shift by ε·‖B‖ and warn
            // through the error path if that also fails.
            let eps = 1e-12 * b.norm_max().max(1.0);
            let mut b_reg = ws.copy_of(b);
            for i in 0..b.rows() {
                b_reg[(i, i)] += c64(eps, eps);
            }
            lu_factor_owned_ws(b_reg, ws)?
        }
    };
    let mut c = ws.take_scratch(a.rows(), a.cols());
    f.solve_into(a.view(), &mut c);
    f.recycle_into(ws);
    let result = eig_ws(&c, ws);
    ws.recycle(c);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{gemm, Op};

    fn residual(a: &ZMat, e: &EigDecomposition) -> f64 {
        let n = a.rows();
        let mut worst: f64 = 0.0;
        for k in 0..n {
            let v: Vec<Complex64> = (0..n).map(|i| e.vectors[(i, k)]).collect();
            let av = a.matvec(&v);
            let lv: Vec<Complex64> = v.iter().map(|&z| z * e.values[k]).collect();
            let r = av.iter().zip(&lv).map(|(x, y)| (*x - *y).norm_sqr()).sum::<f64>().sqrt();
            worst = worst.max(r);
        }
        worst
    }

    fn check_hessenberg_invariants(a: &ZMat, h: &ZMat, q: &ZMat, tol: f64) {
        let n = a.rows();
        // Q unitary.
        let mut qhq = ZMat::zeros(n, n);
        gemm(Complex64::ONE, q, Op::Adjoint, q, Op::None, Complex64::ZERO, &mut qhq);
        assert!(qhq.max_diff(&ZMat::identity(n)) < tol, "QᴴQ ≠ I");
        // Q H Qᴴ = A.
        let qh = q * h;
        let mut back = ZMat::zeros(n, n);
        gemm(Complex64::ONE, &qh, Op::None, q, Op::Adjoint, Complex64::ZERO, &mut back);
        assert!(back.max_diff(a) < tol, "QHQᴴ ≠ A: {:.2e}", back.max_diff(a));
        // Zero below the first subdiagonal.
        for j in 0..n {
            for i in j + 2..n {
                assert!(h[(i, j)].abs() < tol, "h[{i},{j}] = {}", h[(i, j)]);
            }
        }
    }

    #[test]
    fn hessenberg_is_similarity() {
        let a = ZMat::random(9, 9, 1);
        let (h, q) = hessenberg(&a);
        check_hessenberg_invariants(&a, &h, &q, 1e-10);
    }

    #[test]
    fn blocked_hessenberg_is_similarity() {
        // Above the crossover with a non-multiple-of-NB tail.
        for n in [120usize, 150] {
            let a = ZMat::random(n, n, 40 + n as u64);
            let (h, q) = hessenberg(&a);
            check_hessenberg_invariants(&a, &h, &q, 1e-8 * n as f64);
        }
    }

    #[test]
    fn blocked_hessenberg_matches_unblocked() {
        // The panels replay the scalar algorithm exactly, so the reduced
        // matrices agree entrywise up to roundoff reordering.
        let n = 140;
        let a = ZMat::random(n, n, 77);
        let (hb, qb) = hessenberg(&a);
        let (hu, qu) = hessenberg_unblocked(&a);
        let scale = a.norm_max().max(1.0) * n as f64;
        assert!(hb.max_diff(&hu) < 1e-10 * scale, "H drift {:.2e}", hb.max_diff(&hu));
        assert!(qb.max_diff(&qu) < 1e-10 * scale, "Q drift {:.2e}", qb.max_diff(&qu));
    }

    #[test]
    fn hessenberg_ws_recycled_pool_is_bit_identical() {
        let ws = Workspace::new();
        let a = ZMat::random(130, 130, 99);
        let (h_fresh, q_fresh) = hessenberg(&a);
        // Dirty the pool with a different-size reduction first.
        let (hd, qd) = hessenberg_ws(&ZMat::random(110, 110, 98), &ws);
        ws.recycle(hd);
        ws.recycle(qd);
        let (h, q) = hessenberg_ws(&a, &ws);
        assert!(h.max_diff(&h_fresh) == 0.0, "recycled pool changed H bits");
        assert!(q.max_diff(&q_fresh) == 0.0, "recycled pool changed Q bits");
    }

    #[test]
    fn schur_decomposes_random_matrix() {
        let a = ZMat::random(12, 12, 2);
        let d = schur(&a).unwrap();
        // T upper triangular.
        for j in 0..12 {
            for i in j + 1..12 {
                assert!(d.t[(i, j)].abs() < 1e-9, "t[{i},{j}] = {}", d.t[(i, j)]);
            }
        }
        // Z unitary, Z T Zᴴ = A.
        let zt = &d.z * &d.t;
        let mut back = ZMat::zeros(12, 12);
        gemm(Complex64::ONE, &zt, Op::None, &d.z, Op::Adjoint, Complex64::ZERO, &mut back);
        assert!(back.max_diff(&a) < 1e-8);
    }

    #[test]
    fn schur_on_blocked_hessenberg_path() {
        let n = 110;
        let a = ZMat::random(n, n, 3);
        let d = schur(&a).unwrap();
        let zt = &d.z * &d.t;
        let mut back = ZMat::zeros(n, n);
        gemm(Complex64::ONE, &zt, Op::None, &d.z, Op::Adjoint, Complex64::ZERO, &mut back);
        assert!(back.max_diff(&a) < 1e-7 * n as f64, "{:.2e}", back.max_diff(&a));
    }

    #[test]
    fn eig_of_diagonal_matrix() {
        let diag = [c64(1.0, 0.0), c64(-2.0, 0.5), c64(3.0, -1.0)];
        let a = ZMat::from_diag(&diag);
        let e = eig(&a).unwrap();
        let mut got: Vec<f64> = e.values.iter().map(|z| z.re).collect();
        got.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert!((got[0] + 2.0).abs() < 1e-10);
        assert!((got[1] - 1.0).abs() < 1e-10);
        assert!((got[2] - 3.0).abs() < 1e-10);
        assert!(residual(&a, &e) < 1e-9);
    }

    #[test]
    fn eig_known_2x2() {
        // [[0, 1], [-1, 0]] has eigenvalues ±i.
        let a = ZMat::from_rows(2, 2, &[(0.0, 0.0), (1.0, 0.0), (-1.0, 0.0), (0.0, 0.0)]);
        let e = eig(&a).unwrap();
        let mut ims: Vec<f64> = e.values.iter().map(|z| z.im).collect();
        ims.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert!((ims[0] + 1.0).abs() < 1e-12);
        assert!((ims[1] - 1.0).abs() < 1e-12);
        assert!(residual(&a, &e) < 1e-10);
    }

    #[test]
    fn eig_residual_random() {
        for seed in [3u64, 4, 5] {
            let a = ZMat::random(15, 15, seed);
            let e = eig(&a).unwrap();
            assert!(residual(&a, &e) < 1e-7, "seed {seed}: residual {}", residual(&a, &e));
        }
    }

    #[test]
    fn eig_ws_matches_fresh() {
        let ws = Workspace::new();
        let a = ZMat::random(20, 20, 55);
        let fresh = eig(&a).unwrap();
        // Warm the pool on a decoy, then solve through the dirty pool.
        let decoy = eig_ws(&ZMat::random(24, 24, 56), &ws).unwrap();
        ws.recycle(decoy.vectors);
        let pooled = eig_ws(&a, &ws).unwrap();
        for (x, y) in fresh.values.iter().zip(&pooled.values) {
            assert!(*x == *y, "recycled pool changed eigenvalue bits");
        }
        assert!(pooled.vectors.max_diff(&fresh.vectors) == 0.0);
        ws.recycle(pooled.vectors);
    }

    #[test]
    fn hermitian_matrix_has_real_eigenvalues() {
        let mut a = ZMat::random(10, 10, 6);
        a.hermitianize();
        let e = eig(&a).unwrap();
        for v in &e.values {
            assert!(v.im.abs() < 1e-8, "eigenvalue {v} not real");
        }
        assert!(residual(&a, &e) < 1e-8);
    }

    #[test]
    fn companion_matrix_roots() {
        // x³ − 6x² + 11x − 6 = (x−1)(x−2)(x−3); companion eigenvalues 1,2,3.
        let a = ZMat::from_rows(
            3,
            3,
            &[
                (6.0, 0.0),
                (-11.0, 0.0),
                (6.0, 0.0),
                (1.0, 0.0),
                (0.0, 0.0),
                (0.0, 0.0),
                (0.0, 0.0),
                (1.0, 0.0),
                (0.0, 0.0),
            ],
        );
        let e = eig(&a).unwrap();
        let mut roots: Vec<f64> = e.values.iter().map(|z| z.re).collect();
        roots.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert!((roots[0] - 1.0).abs() < 1e-8);
        assert!((roots[1] - 2.0).abs() < 1e-8);
        assert!((roots[2] - 3.0).abs() < 1e-8);
    }

    #[test]
    fn generalized_reduces_to_standard_for_identity_b() {
        let a = ZMat::random(8, 8, 7);
        let b = ZMat::identity(8);
        let eg = eig_generalized(&a, &b).unwrap();
        let es = eig(&a).unwrap();
        let mut g: Vec<f64> = eg.values.iter().map(|z| z.abs()).collect();
        let mut s: Vec<f64> = es.values.iter().map(|z| z.abs()).collect();
        g.sort_by(|x, y| x.partial_cmp(y).unwrap());
        s.sort_by(|x, y| x.partial_cmp(y).unwrap());
        for (x, y) in g.iter().zip(&s) {
            assert!((x - y).abs() < 1e-8);
        }
    }

    #[test]
    fn generalized_pencil_residual() {
        let a = ZMat::random(9, 9, 8);
        let mut b = ZMat::random(9, 9, 9);
        for i in 0..9 {
            b[(i, i)] += c64(9.0, 0.0); // keep B invertible
        }
        let e = eig_generalized(&a, &b).unwrap();
        for k in 0..9 {
            let v: Vec<Complex64> = (0..9).map(|i| e.vectors[(i, k)]).collect();
            let av = a.matvec(&v);
            let bv = b.matvec(&v);
            let r = av
                .iter()
                .zip(&bv)
                .map(|(x, y)| (*x - *y * e.values[k]).norm_sqr())
                .sum::<f64>()
                .sqrt();
            assert!(r < 1e-7, "pencil residual {r} for eigenvalue {}", e.values[k]);
        }
    }

    #[test]
    fn repeated_eigenvalues_converge() {
        // Jordan-like structure stresses deflation: diag(2,2,2) + nilpotent.
        let mut a = ZMat::from_diag(&[c64(2.0, 0.0); 3]);
        a[(0, 1)] = c64(1.0, 0.0);
        a[(1, 2)] = c64(1.0, 0.0);
        let vals = eigenvalues(&a).unwrap();
        for v in vals {
            assert!((v - c64(2.0, 0.0)).abs() < 1e-6);
        }
    }

    #[test]
    fn size_one_and_empty() {
        let a = ZMat::from_diag(&[c64(5.0, 1.0)]);
        let e = eig(&a).unwrap();
        assert_eq!(e.values.len(), 1);
        assert!((e.values[0] - c64(5.0, 1.0)).abs() < 1e-14);
    }
}
