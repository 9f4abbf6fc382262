//! Householder QR factorization, orthonormalization and least squares.
//!
//! FEAST needs two things from QR: an orthonormal basis of the contour
//! projector's range (subspace iteration hygiene) and least-squares
//! pseudo-inverses for the tall-skinny mode matrices `U` when assembling
//! boundary self-energies from an incomplete (annulus-only) mode set.
//!
//! # Blocked compact-WY factorization
//!
//! Above a measured crossover (~160 columns square, ~128 for tall-skinny
//! m ≥ 4n inputs; higher than the LU stack's 96 because the QR panel's
//! serial reflector dots amortize more slowly than LU's rank-1 axpys),
//! the factorization runs **blocked right-looking** on the gemm/trsm
//! substrate: 48-wide panels are factored **recursively**
//! (RGEQR3-style — the panel factorization halves each panel, applies
//! the left half's aggregated reflector to the right half through WY
//! gemms, and assembles the panel `T` from the halves' `T`s, so only the
//! 24-column leaves run the serial reflector loop), and the panel's
//! reflectors come out already aggregated into the compact-WY form
//!
//! ```text
//! Q_panel = H_0·H_1···H_{kb−1} = I − V·T·Vᴴ
//! ```
//!
//! with `V` the unit-lower-trapezoidal reflector matrix and `T` a small
//! upper-triangular factor. `T` is recovered from the Gram matrix
//! `S = VᴴV` through the identity `T⁻¹ = diag(1/τ) + strict_upper(S)` —
//! one [`mod@crate::trsm`] solve of the identity against that triangle
//! (with a scalar recurrence fallback when a τ vanishes, where the inverse
//! formulation breaks down). The trailing update is then three gemms:
//!
//! ```text
//! W = Vᴴ·B,    W ← Tᴴ·W,    B ← B − V·W
//! ```
//!
//! The middle one multiplies by the ≤ 48 × 48 triangle `T` as a dense
//! block with its lower half zeroed: at that size a triangle-aware kernel
//! saved nothing over the packed gemm (`docs/linalg.md`). So the bulk of
//! the `8·(m·n² − n³/3)` flops runs on the packed microkernel. The
//! per-panel `T` factors are retained in the returned [`QrFactors`], so
//! `Q`-applications (`apply_qh`, `q_thin`, least squares) replay the same
//! blocked WY updates instead of one reflector at a time, and the `R`
//! back-substitution is a blocked [`mod@crate::trsm`] sweep. Below the
//! crossover the unblocked reflector loop runs;
//! [`qr_factor_unblocked`] is that loop at any size, the reference the
//! tests and `bench_qr_json` compare the blocked path against. Every
//! entry point has a workspace-borrowing form ([`qr_factor_ws`],
//! [`QrFactors::apply_qh_into`], [`QrFactors::least_squares_into`],
//! [`QrFactors::q_thin_into`]) so warm factor/apply loops perform zero
//! fresh matrix allocations.

use crate::complex::{c64, Complex64};
use crate::flops::{counts, flops_add};
use crate::gemm::{gemm, gemm_into_unc, Op};
use crate::trsm::{trsm_unc, Diag, Side, UpLo};
use crate::workspace::{with_tri_scratch, Workspace};
use crate::zmat::{ZMat, ZMatMut, ZMatRef};

/// Panel width of the blocked factorization (wider than the LU
/// 32-panels: the QR panel amortizes its scalar dot products over two
/// trailing gemms, and 48 measured fastest on this container at 256–512).
const NB: usize = 48;

/// Sub-panel width below which the recursive panel factorization stops
/// splitting and runs the scalar reflector loop. One split of the
/// 48-wide panel (24-column leaves) measured fastest on this container:
/// the halves' WY applies and the `V₁ᴴV₂` cross product stay k = 24 deep
/// (the packed gemm's tall-panel regime), while deeper splits fragment
/// them into k ≤ 12 products that are overhead-bound.
const REC_BASE: usize = 24;

/// Smallest column count that takes the blocked path for general
/// shapes. The recursive sub-panel factorization plus the 4-lane
/// conjugated-dot direct gemm path lowered the measured square
/// break-even on this container from the pre-recursion n ≈ 200 to
/// ≈ 160 (still above the LU stack's 96 because the leaf reflector
/// dots remain serial).
const BLOCK_MIN: usize = 160;

/// Smallest column count that takes the blocked path for tall-skinny
/// inputs (m ≥ 4n, the FEAST `U⁺` least-squares shape): the recursion's
/// WY gemms amortize over the long columns much sooner — measured
/// 1.3–1.7× over unblocked at 528×128/1040×128, parity at 784×96.
const BLOCK_MIN_TALL: usize = 128;

/// Packed Householder QR factors of an m×n matrix (m ≥ n).
#[derive(Debug, Clone)]
pub struct QrFactors {
    /// Reflectors below the diagonal, R on and above.
    packed: ZMat,
    /// Scalar reflector coefficients τ (n×1 column).
    tau: ZMat,
    /// Compact-WY `T` factors, one `kb×kb` upper-triangular block per
    /// panel at `[0..kb, k0..k0+kb]`; empty for unblocked factors.
    ts: ZMat,
}

/// Computes the Householder QR factorization of `a` (requires m ≥ n).
pub fn qr_factor(a: &ZMat) -> QrFactors {
    factor_entry(a.clone(), None)
}

/// [`qr_factor`] with the working copy (and the τ/`T` stores) borrowed
/// from `ws` — the zero-churn form for factor loops; hand the buffers
/// back with [`QrFactors::recycle_into`] when the factors are spent.
pub fn qr_factor_ws(a: &ZMat, ws: &Workspace) -> QrFactors {
    factor_entry(ws.copy_of(a), Some(ws))
}

/// The unblocked one-reflector-at-a-time loop at any size: what
/// [`qr_factor`] runs below the crossover, and the reference the
/// blocked-vs-unblocked tests and `bench_qr_json` compare against.
pub fn qr_factor_unblocked(a: &ZMat) -> QrFactors {
    let (m, n) = (a.rows(), a.cols());
    assert!(m >= n, "qr_factor requires rows ≥ cols");
    flops_add(counts::zgeqrf(m, n));
    let mut p = a.clone();
    let mut tau = ZMat::zeros(n, 1);
    factor_panel(&mut p, &mut tau, 0, n, n);
    QrFactors { packed: p, tau, ts: ZMat::empty() }
}

/// Shared entry: counts, dispatches on size, pools scratch when possible.
fn factor_entry(mut p: ZMat, ws: Option<&Workspace>) -> QrFactors {
    let (m, n) = (p.rows(), p.cols());
    assert!(m >= n, "qr_factor requires rows ≥ cols");
    flops_add(counts::zgeqrf(m, n));
    let mut tau = match ws {
        Some(ws) => ws.take_scratch(n, 1),
        None => ZMat::zeros(n, 1),
    };
    let blocked = n >= BLOCK_MIN || (n >= BLOCK_MIN_TALL && m >= 4 * n);
    let ts = if !blocked {
        factor_panel(&mut p, &mut tau, 0, n, n);
        ZMat::empty()
    } else {
        let local;
        let scratch = match ws {
            Some(ws) => ws,
            None => {
                local = Workspace::new();
                &local
            }
        };
        let mut ts = scratch.take_scratch(NB, n);
        factor_blocked(&mut p, &mut tau, &mut ts, scratch);
        ts
    };
    QrFactors { packed: p, tau, ts }
}

/// LAPACK `zlarfg` on a column slice: `col[0]` holds α on entry and β on
/// exit, `col[1..]` the entries to annihilate on entry and the reflector
/// tail `v` on exit (implicit unit head). Returns τ — zero (leaving the
/// slice untouched) when the input is already reduced. **The single home
/// of the reflector sign/τ convention**, shared by the QR panels and
/// both Hessenberg reduction paths in [`mod@crate::eig`].
pub(crate) fn zlarfg(col: &mut [Complex64]) -> Complex64 {
    let alpha = col[0];
    let mut xnorm_sq = 0.0;
    for z in &col[1..] {
        xnorm_sq += z.norm_sqr();
    }
    if xnorm_sq == 0.0 && alpha.im == 0.0 {
        return Complex64::ZERO;
    }
    let beta_mag = (alpha.norm_sqr() + xnorm_sq).sqrt();
    let beta = if alpha.re >= 0.0 { -beta_mag } else { beta_mag };
    let scale = (alpha - c64(beta, 0.0)).inv();
    for z in col[1..].iter_mut() {
        *z *= scale;
    }
    col[0] = c64(beta, 0.0);
    c64((beta - alpha.re) / beta, -alpha.im / beta)
}

/// Generates the Householder reflector for column `k`: on exit the
/// diagonal holds β, the sub-column holds `v` (implicit unit head), and
/// `tau[k]` the coefficient. Returns the τ.
fn reflector(p: &mut ZMat, tau: &mut ZMat, k: usize) -> Complex64 {
    let m = p.rows();
    let tau_k = zlarfg(&mut p.col_mut(k)[k..m]);
    tau[(k, 0)] = tau_k;
    tau_k
}

/// Scalar panel factorization: reflectors for columns `k0..k1`, each
/// applied (as `Hᴴ`) to columns `k+1..col_hi` only — the full matrix for
/// the unblocked path, the panel itself for the blocked path.
fn factor_panel(p: &mut ZMat, tau: &mut ZMat, k0: usize, k1: usize, col_hi: usize) {
    let m = p.rows();
    for k in k0..k1 {
        let tau_k = reflector(p, tau, k);
        if tau_k == Complex64::ZERO {
            continue;
        }
        let tch = tau_k.conj();
        for j in k + 1..col_hi {
            // w = vᴴ·A(:, j) with v = [1, p[k+1.., k]] (column slices so
            // the dot/axpy pair vectorizes).
            let (ck, cj) = p.two_cols_mut(k, j);
            let w = cj[k] + Complex64::dot_conj(&ck[k + 1..m], &cj[k + 1..m]);
            let f = tch * w;
            cj[k] -= f;
            let neg = -f;
            for (xi, &vi) in cj[k + 1..m].iter_mut().zip(&ck[k + 1..m]) {
                *xi = xi.mul_add(vi, neg);
            }
        }
    }
}

/// Blocked right-looking factorization: recursively factored 48-wide
/// panels, `T` via trsm on the Gram triangle, compact-WY trailing
/// updates on gemm.
fn factor_blocked(p: &mut ZMat, tau: &mut ZMat, ts: &mut ZMat, ws: &Workspace) {
    let (m, n) = (p.rows(), p.cols());
    let mut vbuf = ws.take_scratch(m, NB);
    let mut wbuf = ws.take_scratch(NB, n);
    let mut sbuf = ws.take_scratch(NB, NB);
    let mut k0 = 0;
    while k0 < n {
        let kb = NB.min(n - k0);
        // The recursion leaves the panel's assembled `T` at
        // ts[0..kb, k0..k0+kb]; no full-panel Gram rebuild is needed.
        factor_panel_recursive(p, tau, k0, k0 + kb, 0, &mut vbuf, &mut wbuf, &mut sbuf, ts);
        let nr = n - k0 - kb;
        if nr > 0 {
            stage_v(&p.block_view(k0, k0, m - k0, kb), &mut vbuf);
            let v = vbuf.block_view(0, 0, m - k0, kb);
            let t = ts.block_view(0, k0, kb, kb);
            let b = p.block_view_mut(k0, k0 + kb, m - k0, nr);
            apply_panel_wy(v, t, true, b, &mut wbuf);
        }
        k0 += kb;
    }
    ws.recycle(vbuf);
    ws.recycle(wbuf);
    ws.recycle(sbuf);
}

/// Recursive sub-panel factorization of columns `k0..k1` (the ROADMAP's
/// "recursive/sub-panel factor" micro-optimization, RGEQR3-style):
/// halves the range, factors the left half, applies its aggregated
/// compact-WY reflector to the right half through [`apply_panel_wy`] —
/// instead of one serial reflector-dot sweep per column — recurses
/// right, then **assembles the whole range's `T` from
/// the halves'** through the block identity
///
/// ```text
/// T = [ T₁  −T₁·(V₁ᴴV₂)·T₂ ]
///     [ 0          T₂      ]
/// ```
///
/// so the caller gets the panel `T` for free (no full-panel Gram
/// rebuild; the identity holds for any `T₁`/`T₂`, τ = 0 cases included —
/// the leaves' [`build_t`] handles those). `V₁ᴴV₂` needs no staging of
/// `V₁`: rows `h..` of the unit-lower-trapezoid are the raw stored
/// reflector block. Leaves of [`REC_BASE`] columns run the scalar loop.
/// Same reflectors as the scalar panel up to summation order, so the
/// blocked-vs-unblocked equivalence properties are unchanged. On return
/// the `kb×kb` upper-triangular `T` of the range sits at
/// `ts[r0..r0+kb, k0..k0+kb]` (`r0` = the range's row offset within its
/// panel, so nested calls tile `ts` without moves).
#[allow(clippy::too_many_arguments)]
fn factor_panel_recursive(
    p: &mut ZMat,
    tau: &mut ZMat,
    k0: usize,
    k1: usize,
    r0: usize,
    vbuf: &mut ZMat,
    wbuf: &mut ZMat,
    sbuf: &mut ZMat,
    ts: &mut ZMat,
) {
    let m = p.rows();
    let kb = k1 - k0;
    if kb <= REC_BASE {
        factor_panel(p, tau, k0, k1, k1);
        stage_v(&p.block_view(k0, k0, m - k0, kb), vbuf);
        build_t(vbuf.block_view(0, 0, m - k0, kb), tau, sbuf, ts, r0, k0, kb);
        return;
    }
    let h = kb / 2;
    factor_panel_recursive(p, tau, k0, k0 + h, r0, vbuf, wbuf, sbuf, ts);
    // Left half's WY transform hits the right half: B ← (I − V₁T₁ᴴV₁ᴴ)B.
    stage_v(&p.block_view(k0, k0, m - k0, h), vbuf);
    {
        let v1 = vbuf.block_view(0, 0, m - k0, h);
        let t1 = ts.block_view(r0, k0, h, h);
        let b = p.block_view_mut(k0, k0 + h, m - k0, kb - h);
        apply_panel_wy(v1, t1, true, b, wbuf);
    }
    factor_panel_recursive(p, tau, k0 + h, k1, r0 + h, vbuf, wbuf, sbuf, ts);
    // Cross block: G = V₁ᴴV₂ over the rows below the split (the top h
    // rows of V₂'s frame are zero), then T₁₂ = −T₁·G·T₂ in place.
    stage_v(&p.block_view(k0 + h, k0 + h, m - k0 - h, kb - h), vbuf);
    let mut g = sbuf.block_view_mut(0, 0, h, kb - h);
    gemm_into_unc(
        Complex64::ONE,
        p.block_view(k0 + h, k0, m - k0 - h, h),
        Op::Adjoint,
        vbuf.block_view(0, 0, m - k0 - h, kb - h),
        Op::None,
        Complex64::ZERO,
        g.rb(),
    );
    mul_upper_t(Side::Left, Op::None, ts.block_view(r0, k0, h, h), g.rb());
    mul_upper_t(Side::Right, Op::None, ts.block_view(r0 + h, k0 + h, kb - h, kb - h), g.rb());
    for j in 0..kb - h {
        for (dst, &gij) in ts.col_mut(k0 + h + j)[r0..r0 + h].iter_mut().zip(g.rb().col(j).iter()) {
            *dst = -gij;
        }
    }
}

/// Materializes the unit-lower-trapezoidal `V` of one panel (packed
/// reflectors `src`, R entries on/above the diagonal) into the staging
/// buffer: zeros above, explicit unit diagonal, reflector tails below.
/// Shared with the blocked Hessenberg reduction in [`mod@crate::eig`], whose
/// packed panels have the same unit-lower-trapezoid shape one row below
/// the diagonal.
pub(crate) fn stage_v(src: &ZMatRef<'_>, vbuf: &mut ZMat) {
    let (mv, kb) = (src.rows(), src.cols());
    for t in 0..kb {
        let dst = &mut vbuf.col_mut(t)[..mv];
        dst[..t].fill(Complex64::ZERO);
        dst[t] = Complex64::ONE;
        dst[t + 1..].copy_from_slice(&src.col(t)[t + 1..]);
    }
}

/// Builds a reflector range's upper-triangular `T` into
/// `ts[r0..r0+kb, k0..k0+kb]` from `Q_range = I − V·T·Vᴴ`: the Gram
/// matrix `S = VᴴV` gives `T⁻¹ = diag(1/τ) + strict_upper(S)`, solved
/// against the identity with one trsm. A vanishing τ (exactly dependent
/// column) voids the inverse formulation, so that case falls back to the
/// `zlarft` column recurrence `T(0:j, j) = −τ_j·T·S(0:j, j)`. Shared
/// with the Hermitian eigensolver's back-transformation in
/// [`mod@crate::eigh`].
pub(crate) fn build_t(
    v: ZMatRef<'_>,
    tau: &ZMat,
    sbuf: &mut ZMat,
    ts: &mut ZMat,
    r0: usize,
    k0: usize,
    kb: usize,
) {
    let mut s = sbuf.block_view_mut(0, 0, kb, kb);
    gemm_into_unc(Complex64::ONE, v, Op::Adjoint, v, Op::None, Complex64::ZERO, s.rb());
    let all_nonzero = (0..kb).all(|t| tau[(k0 + t, 0)] != Complex64::ZERO);
    let mut tblk = ts.block_view_mut(r0, k0, kb, kb);
    if all_nonzero {
        // M = diag(1/τ) + strict_upper(S); T = M⁻¹ via trsm on I.
        for t in 0..kb {
            *s.at_mut(t, t) = tau[(k0 + t, 0)].inv();
        }
        for j in 0..kb {
            let col = tblk.col_mut(j);
            col.fill(Complex64::ZERO);
            col[j] = Complex64::ONE;
        }
        trsm_unc(Side::Left, UpLo::Upper, Op::None, Diag::NonUnit, s.as_ref(), tblk);
    } else {
        for j in 0..kb {
            let tau_j = tau[(k0 + j, 0)];
            // tmp_i = Σ_{l=i..j} T(i,l)·S(l,j), then T(0:j,j) = −τ_j·tmp.
            let mut tmp = [Complex64::ZERO; NB];
            for (i, t) in tmp[..j].iter_mut().enumerate() {
                let mut acc = Complex64::ZERO;
                for l in i..j {
                    acc = acc.mul_add(tblk.at(i, l), s.at(l, j));
                }
                *t = acc;
            }
            let col = tblk.col_mut(j);
            col.fill(Complex64::ZERO);
            for (ci, &ti) in col[..j].iter_mut().zip(&tmp[..j]) {
                *ci = -(tau_j * ti);
            }
            col[j] = tau_j;
        }
    }
}

/// Applies one panel's compact-WY block reflector in place:
/// `B ← (I − V·Tᴴ·Vᴴ)·B` when `adjoint` (the `Qᴴ` direction used by the
/// factorization and `apply_qh`), `B ← (I − V·T·Vᴴ)·B` otherwise (the `Q`
/// direction used by `q_thin`). Three gemms: `W = Vᴴ·B`,
/// `W ← op(T)·W` ([`mul_upper_t`]), `B −= V·W`.
pub(crate) fn apply_panel_wy(
    v: ZMatRef<'_>,
    t: ZMatRef<'_>,
    adjoint: bool,
    mut b: ZMatMut<'_>,
    wbuf: &mut ZMat,
) {
    let kb = v.cols();
    let nc = b.cols();
    if nc == 0 {
        return;
    }
    let mut w = wbuf.block_view_mut(0, 0, kb, nc);
    gemm_into_unc(Complex64::ONE, v, Op::Adjoint, b.as_ref(), Op::None, Complex64::ZERO, w.rb());
    let t_op = if adjoint { Op::Adjoint } else { Op::None };
    mul_upper_t(Side::Left, t_op, t, w.rb());
    gemm_into_unc(-Complex64::ONE, v, Op::None, w.as_ref(), Op::None, Complex64::ONE, b.rb());
}

/// `B ← op(T)·B` (`Side::Left`) or `B ← B·op(T)` (`Side::Right`) in place
/// for a compact-WY factor `T` (upper, non-unit, ≤ 48 wide; `op` `None` or
/// `Adjoint`): one gemm on a copy of `T` in warm scratch with its lower
/// half zeroed — `T`'s own storage there is unspecified (`take_scratch`) —
/// into a second scratch block, copied back over `B`. Uncounted: the
/// `zgeqrf`/`zgehrd` formulas cover it.
pub(crate) fn mul_upper_t(side: Side, op: Op, t: ZMatRef<'_>, mut b: ZMatMut<'_>) {
    let k = t.rows();
    let (m, n) = (b.rows(), b.cols());
    assert_eq!(t.cols(), k, "T must be square");
    assert_eq!(if side == Side::Left { m } else { n }, k, "B does not conform to T");
    if m == 0 || n == 0 {
        return;
    }
    with_tri_scratch(k * k + m * n, |scratch| {
        let (tbuf, wbuf) = scratch.split_at_mut(k * k);
        for (j, dst) in tbuf.chunks_exact_mut(k).enumerate() {
            dst[..=j].copy_from_slice(&t.col(j)[..=j]);
            dst[j + 1..].fill(Complex64::ZERO);
        }
        let t = ZMatRef::from_slice(tbuf, k, k, k);
        let w = ZMatMut::from_slice(wbuf, m, n, m);
        let (one, zero) = (Complex64::ONE, Complex64::ZERO);
        match side {
            Side::Left => gemm_into_unc(one, t, op, b.as_ref(), Op::None, zero, w),
            Side::Right => gemm_into_unc(one, b.as_ref(), Op::None, t, op, zero, w),
        }
        for (j, wcol) in wbuf.chunks_exact(m).enumerate() {
            b.col_mut(j).copy_from_slice(wcol);
        }
    });
}

impl QrFactors {
    /// The upper-triangular factor `R` (n×n).
    pub fn r(&self) -> ZMat {
        let n = self.packed.cols();
        let mut r = ZMat::zeros(n, n);
        for j in 0..n {
            for i in 0..=j.min(n - 1) {
                r[(i, j)] = self.packed[(i, j)];
            }
        }
        r
    }

    /// τ coefficient of reflector `k`.
    #[inline]
    fn tau_k(&self, k: usize) -> Complex64 {
        self.tau[(k, 0)]
    }

    /// The thin orthonormal factor `Q` (m×n, QᴴQ = I).
    pub fn q_thin(&self) -> ZMat {
        let (m, n) = (self.packed.rows(), self.packed.cols());
        let mut q = ZMat::zeros(m, n);
        self.q_thin_into(&mut q, &Workspace::new());
        q
    }

    /// Writes the thin `Q` into a caller-provided m×n buffer (typically
    /// borrowed from `ws`, which also supplies the WY staging scratch).
    pub fn q_thin_into(&self, q: &mut ZMat, ws: &Workspace) {
        let (m, n) = (self.packed.rows(), self.packed.cols());
        assert_eq!((q.rows(), q.cols()), (m, n), "q_thin_into output shape mismatch");
        flops_add(counts::zunmqr(m, n, n));
        q.as_mut_slice().fill(Complex64::ZERO);
        for k in 0..n {
            q[(k, k)] = Complex64::ONE;
        }
        if self.ts.cols() > 0 {
            // Blocked: Q = Q_p0·Q_p1···I applied in reverse panel order.
            let mut vbuf = ws.take_scratch(m, NB);
            let mut wbuf = ws.take_scratch(NB, n);
            let mut k0 = n - (n - 1) % NB - 1;
            loop {
                let kb = NB.min(n - k0);
                stage_v(&self.packed.block_view(k0, k0, m - k0, kb), &mut vbuf);
                let v = vbuf.block_view(0, 0, m - k0, kb);
                let t = self.ts.block_view(0, k0, kb, kb);
                let b = q.block_view_mut(k0, 0, m - k0, n);
                apply_panel_wy(v, t, false, b, &mut wbuf);
                if k0 == 0 {
                    break;
                }
                k0 -= NB;
            }
            ws.recycle(vbuf);
            ws.recycle(wbuf);
        } else {
            // Apply reflectors in reverse order: Q = H_0·H_1···H_{n−1}·I.
            for k in (0..n).rev() {
                let tau_k = self.tau_k(k);
                if tau_k == Complex64::ZERO {
                    continue;
                }
                for j in 0..n {
                    let mut w = q[(k, j)];
                    for i in k + 1..m {
                        w += self.packed[(i, k)].conj() * q[(i, j)];
                    }
                    let f = tau_k * w;
                    q[(k, j)] -= f;
                    for i in k + 1..m {
                        let vik = self.packed[(i, k)];
                        q[(i, j)] -= vik * f;
                    }
                }
            }
        }
    }

    /// Applies `Qᴴ` to a matrix (m×p → m×p, top n rows meaningful).
    pub fn apply_qh(&self, b: &ZMat) -> ZMat {
        let mut x = b.clone();
        self.apply_qh_mut(&mut x, &Workspace::new());
        x
    }

    /// [`QrFactors::apply_qh`] writing into a caller-provided buffer
    /// (fully overwritten) with WY staging scratch borrowed from `ws`.
    pub fn apply_qh_into(&self, b: ZMatRef<'_>, x: &mut ZMat, ws: &Workspace) {
        assert_eq!(
            (x.rows(), x.cols()),
            (b.rows(), b.cols()),
            "apply_qh_into output shape mismatch"
        );
        x.view_mut().copy_from_view(b);
        self.apply_qh_mut(x, ws);
    }

    /// In-place `X ← Qᴴ·X` — blocked WY sweeps when the factors carry
    /// panel `T`s, the scalar reflector loop otherwise.
    fn apply_qh_mut(&self, x: &mut ZMat, ws: &Workspace) {
        let (m, n) = (self.packed.rows(), self.packed.cols());
        assert_eq!(x.rows(), m, "apply_qh rhs row count mismatch");
        let nc = x.cols();
        flops_add(counts::zunmqr(m, nc, n));
        if self.ts.cols() > 0 {
            let mut vbuf = ws.take_scratch(m, NB);
            let mut wbuf = ws.take_scratch(NB, nc.max(1));
            let mut k0 = 0;
            while k0 < n {
                let kb = NB.min(n - k0);
                stage_v(&self.packed.block_view(k0, k0, m - k0, kb), &mut vbuf);
                let v = vbuf.block_view(0, 0, m - k0, kb);
                let t = self.ts.block_view(0, k0, kb, kb);
                let b = x.block_view_mut(k0, 0, m - k0, nc);
                apply_panel_wy(v, t, true, b, &mut wbuf);
                k0 += kb;
            }
            ws.recycle(vbuf);
            ws.recycle(wbuf);
        } else {
            for k in 0..n {
                let tau_k = self.tau_k(k);
                if tau_k == Complex64::ZERO {
                    continue;
                }
                let tch = tau_k.conj();
                for j in 0..nc {
                    let mut w = x[(k, j)];
                    for i in k + 1..m {
                        w += self.packed[(i, k)].conj() * x[(i, j)];
                    }
                    let f = tch * w;
                    x[(k, j)] -= f;
                    for i in k + 1..m {
                        let vik = self.packed[(i, k)];
                        x[(i, j)] -= vik * f;
                    }
                }
            }
        }
    }

    /// Solves the least-squares problem `min ‖A·x − b‖₂` via `R x = Qᴴ b`.
    pub fn least_squares(&self, b: &ZMat) -> ZMat {
        let n = self.packed.cols();
        let ws = Workspace::new();
        let mut x = ZMat::zeros(n, b.cols());
        self.least_squares_into(b.view(), &mut x, &ws);
        x
    }

    /// [`QrFactors::least_squares`] writing the n×nrhs solution into a
    /// caller-provided buffer, every temporary borrowed from `ws`.
    pub fn least_squares_into(&self, b: ZMatRef<'_>, x: &mut ZMat, ws: &Workspace) {
        let (m, n) = (self.packed.rows(), self.packed.cols());
        assert_eq!(b.rows(), m, "least_squares rhs row count mismatch");
        let nrhs = b.cols();
        assert_eq!((x.rows(), x.cols()), (n, nrhs), "least_squares_into output shape mismatch");
        let mut qhb = ws.take_scratch(m, nrhs);
        qhb.view_mut().copy_from_view(b);
        self.apply_qh_mut(&mut qhb, ws);
        for j in 0..nrhs {
            x.col_mut(j).copy_from_slice(&qhb.col(j)[..n]);
        }
        ws.recycle(qhb);
        // Back substitution with R: one blocked triangular sweep.
        flops_add(counts::ztrsm(n, nrhs));
        trsm_unc(
            Side::Left,
            UpLo::Upper,
            Op::None,
            Diag::NonUnit,
            self.packed.block_view(0, 0, n, n),
            x.view_mut(),
        );
    }

    /// Consumes the factors, returning every backing buffer — packed
    /// matrix, τ column and `T` store — to the pool.
    pub fn recycle_into(self, ws: &Workspace) {
        ws.recycle(self.packed);
        ws.recycle(self.tau);
        ws.recycle(self.ts);
    }
}

/// One-shot QR factorization.
pub fn qr(a: &ZMat) -> (ZMat, ZMat) {
    let f = qr_factor(a);
    (f.q_thin(), f.r())
}

/// Orthonormalizes the columns of `a` (thin Q of its QR factorization)
/// over pooled scratch: the returned `Q` and every internal temporary
/// are borrowed from `ws` (recycle `Q` when spent).
pub fn orthonormalize_ws(a: &ZMat, ws: &Workspace) -> ZMat {
    let f = qr_factor_ws(a, ws);
    let mut q = ws.take_scratch(a.rows(), a.cols());
    f.q_thin_into(&mut q, ws);
    f.recycle_into(ws);
    q
}

/// Least-squares solve `min ‖A·x − b‖₂` (A must be m×n with m ≥ n).
pub fn qr_least_squares(a: &ZMat, b: &ZMat) -> ZMat {
    qr_factor(a).least_squares(b)
}

/// Verifies column orthonormality: returns `‖QᴴQ − I‖_max`.
pub fn orthonormality_defect(q: &ZMat) -> f64 {
    let n = q.cols();
    let mut qhq = ZMat::zeros(n, n);
    gemm(Complex64::ONE, q, Op::Adjoint, q, Op::None, Complex64::ZERO, &mut qhq);
    qhq.max_diff(&ZMat::identity(n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qr_reconstructs_matrix() {
        let a = ZMat::random(10, 6, 3);
        let (q, r) = qr(&a);
        assert!((&q * &r).max_diff(&a) < 1e-10);
    }

    #[test]
    fn q_is_orthonormal() {
        let a = ZMat::random(12, 7, 5);
        let q = qr_factor(&a).q_thin();
        assert!(orthonormality_defect(&q) < 1e-11);
    }

    #[test]
    fn r_is_upper_triangular() {
        let a = ZMat::random(8, 8, 7);
        let (_, r) = qr(&a);
        for j in 0..8 {
            for i in j + 1..8 {
                assert!(r[(i, j)].abs() < 1e-13);
            }
        }
    }

    #[test]
    fn least_squares_exact_for_square_systems() {
        let a = ZMat::random(6, 6, 9);
        let x_true = ZMat::random(6, 2, 10);
        let b = &a * &x_true;
        let x = qr_least_squares(&a, &b);
        assert!(x.max_diff(&x_true) < 1e-9);
    }

    #[test]
    fn least_squares_minimizes_residual() {
        // Overdetermined system: residual must be orthogonal to range(A).
        let a = ZMat::random(10, 4, 11);
        let b = ZMat::random(10, 1, 12);
        let x = qr_least_squares(&a, &b);
        let r = &b - &(&a * &x);
        let mut proj = ZMat::zeros(4, 1);
        gemm(Complex64::ONE, &a, Op::Adjoint, &r, Op::None, Complex64::ZERO, &mut proj);
        assert!(proj.norm_max() < 1e-9, "Aᴴr = {:.3e}", proj.norm_max());
    }

    #[test]
    fn apply_qh_matches_explicit_q() {
        let a = ZMat::random(9, 5, 13);
        let b = ZMat::random(9, 3, 14);
        let f = qr_factor(&a);
        let explicit = {
            // Build the full 9×9 Q by applying reflectors to the identity.
            let mut full = ZMat::identity(9);
            // q_thin gives only the first 5 columns; build Qᴴb via reflectors.
            full = f.apply_qh(&full);
            &full * &b
        };
        let fast = f.apply_qh(&b);
        assert!(fast.max_diff(&explicit) < 1e-10);
    }

    #[test]
    fn handles_rank_deficient_direction_gracefully() {
        // Two identical columns: orthonormalize still returns orthonormal
        // columns (the second spans residual noise but QᴴQ = I must hold
        // for the leading independent part).
        let mut a = ZMat::random(8, 2, 15);
        let col0: Vec<Complex64> = a.col(0).to_vec();
        a.col_mut(1).copy_from_slice(&col0);
        let q = qr_factor(&a).q_thin();
        // First column must be normalized.
        let n0: f64 = q.col(0).iter().map(|z| z.norm_sqr()).sum();
        assert!((n0 - 1.0).abs() < 1e-12);
    }

    // ── blocked-path tests ───────────────────────────────────────────

    /// Reference reconstruction error ‖QR − A‖ and defect ‖QᴴQ − I‖.
    fn check_factorization(a: &ZMat, f: &QrFactors, tol: f64) {
        let q = f.q_thin();
        let r = f.r();
        assert!((&q * &r).max_diff(a) < tol, "QR ≠ A: {:.2e}", (&q * &r).max_diff(a));
        assert!(orthonormality_defect(&q) < tol, "QᴴQ ≠ I: {:.2e}", orthonormality_defect(&q));
    }

    #[test]
    fn blocked_matches_unblocked_across_crossover() {
        // Square shapes straddle BLOCK_MIN; (560, 130) takes the
        // tall-skinny dispatch (m ≥ 4n with n ≥ BLOCK_MIN_TALL).
        for (m, n, seed) in
            [(200, 200, 21u64), (230, 197, 22), (256, 224, 23), (192, 192, 24), (560, 130, 25)]
        {
            let a = ZMat::random(m, n, seed);
            let fb = qr_factor(&a);
            assert!(fb.ts.cols() > 0, "n = {n} must take the blocked path");
            let fu = qr_factor_unblocked(&a);
            check_factorization(&a, &fb, 1e-9 * m as f64);
            // Same reflectors and R up to roundoff (the panels reproduce
            // the scalar algorithm exactly; only summation order differs).
            let scale = a.norm_max().max(1.0);
            assert!(
                fb.packed.max_diff(&fu.packed) < 1e-10 * scale * m as f64,
                "packed drift {:.2e}",
                fb.packed.max_diff(&fu.packed)
            );
            let b = ZMat::random(m, 3, seed + 100);
            let xb = fb.least_squares(&b);
            let xu = fu.least_squares(&b);
            assert!(xb.max_diff(&xu) < 1e-8 * m as f64, "{:.2e}", xb.max_diff(&xu));
        }
    }

    #[test]
    fn blocked_tall_skinny() {
        // m ≫ n with n above the crossover: multiple panels, long tails.
        let a = ZMat::random(700, 224, 31);
        let f = qr_factor(&a);
        assert!(f.ts.cols() > 0);
        check_factorization(&a, &f, 1e-7);
        let b = ZMat::random(700, 2, 32);
        let x = f.least_squares(&b);
        // Residual orthogonal to range(A).
        let r = &b - &(&a * &x);
        let mut proj = ZMat::zeros(224, 2);
        gemm(Complex64::ONE, &a, Op::Adjoint, &r, Op::None, Complex64::ZERO, &mut proj);
        assert!(proj.norm_max() < 1e-7, "Aᴴr = {:.3e}", proj.norm_max());
    }

    #[test]
    fn blocked_rank_deficient() {
        // Duplicate a column band across a panel boundary and zero a few
        // columns outright: the exactly-zero columns produce τ = 0
        // reflectors, exercising the recurrence fallback for T (the
        // trsm-inverse formulation needs every τ nonzero).
        let mut a = ZMat::random(260, 200, 41);
        for j in 100..104 {
            let src: Vec<Complex64> = a.col(j - 100).to_vec();
            a.col_mut(j).copy_from_slice(&src);
        }
        for j in 60..62 {
            a.col_mut(j).fill(Complex64::ZERO);
        }
        let f = qr_factor(&a);
        assert!(f.ts.cols() > 0);
        assert!(f.tau_k(60) == Complex64::ZERO, "zero column must give τ = 0");
        let q = f.q_thin();
        // Q still reproduces A with R (rank-deficient R has ~zero rows).
        assert!((&q * &f.r()).max_diff(&a) < 1e-8);
    }

    #[test]
    fn ws_factor_is_bit_identical_to_fresh() {
        let a = ZMat::random(240, 200, 61);
        let b = ZMat::random(240, 4, 62);
        let fresh = qr_factor(&a);
        let x_fresh = fresh.least_squares(&b);
        // Dirty pool: recycled through a decoy factorization first.
        let ws = Workspace::new();
        let decoy = qr_factor_ws(&ZMat::random(250, 220, 63), &ws);
        decoy.recycle_into(&ws);
        let f = qr_factor_ws(&a, &ws);
        assert!(f.packed.max_diff(&fresh.packed) == 0.0, "recycled pool changed factor bits");
        let mut x = ws.take_scratch(200, 4);
        f.least_squares_into(b.view(), &mut x, &ws);
        assert!(x.max_diff(&x_fresh) == 0.0, "recycled pool changed solve bits");
        f.recycle_into(&ws);
        ws.recycle(x);
    }

    #[test]
    fn q_thin_into_matches_q_thin() {
        let a = ZMat::random(270, 220, 71);
        let f = qr_factor(&a);
        assert!(f.ts.cols() > 0);
        let q_ref = f.q_thin();
        let ws = Workspace::new();
        let mut q = ws.take_scratch(270, 220);
        f.q_thin_into(&mut q, &ws);
        assert!(q.max_diff(&q_ref) == 0.0);
    }

    #[test]
    fn orthonormalize_ws_matches_plain() {
        let ws = Workspace::new();
        for trial in 0..2 {
            let a = ZMat::random(40, 9, 81 + trial);
            let q_ref = qr_factor(&a).q_thin();
            let q = orthonormalize_ws(&a, &ws);
            assert!(q.max_diff(&q_ref) == 0.0, "trial {trial}");
            ws.recycle(q);
        }
    }

    #[test]
    fn counts_blocked_qr_by_formula() {
        let a = ZMat::random(224, 224, 91);
        let scope = crate::flops::FlopScope::start();
        let _ = qr_factor(&a);
        assert!(scope.elapsed() >= counts::zgeqrf(224, 224));
    }

    // ── the compact-WY `T` products ──────────────────────────────────

    /// `op(T)·B` (left) or `B·op(T)` (right) by the triple loop over the
    /// upper triangle of `T`.
    fn naive_upper_product(side: Side, op: Op, t: &ZMat, b: &ZMat) -> ZMat {
        let k = t.rows();
        let upper = ZMat::from_fn(k, k, |i, j| if i <= j { t[(i, j)] } else { Complex64::ZERO });
        let t = if op == Op::Adjoint { upper.adjoint() } else { upper };
        let (l, r) = if side == Side::Left { (&t, b) } else { (b, &t) };
        ZMat::from_fn(l.rows(), r.cols(), |i, j| {
            (0..l.cols()).fold(Complex64::ZERO, |s, q| s + l[(i, q)] * r[(q, j)])
        })
    }

    const SIDE_OPS: [(Side, Op); 4] = [
        (Side::Left, Op::None),
        (Side::Left, Op::Adjoint),
        (Side::Right, Op::None),
        (Side::Right, Op::Adjoint),
    ];

    /// A random `k × k` `T` with poison below the diagonal, which the
    /// product must never read.
    fn poisoned_upper(k: usize) -> ZMat {
        let mut t = ZMat::random(k, k, k as u64);
        (0..k).for_each(|j| t.col_mut(j)[j + 1..].fill(c64(1e30, -1e30)));
        t
    }

    #[test]
    fn upper_t_product_matches_the_naive_triangle() {
        // Every triangle a caller passes (1…48) against the widths the
        // deleted scalar sweep served (1…9) and panel widths.
        for k in 1..=48 {
            let t = poisoned_upper(k);
            for w in (1..=9).chain([48, 57]) {
                for (side, op) in SIDE_OPS {
                    let (rows, cols) = if side == Side::Left { (k, w) } else { (w, k) };
                    let mut b = ZMat::random(rows, cols, (100 * k + w) as u64);
                    let want = naive_upper_product(side, op, &t, &b);
                    mul_upper_t(side, op, t.view(), b.view_mut());
                    let diff = b.max_diff(&want);
                    assert!(diff < 1e-13 * k as f64, "{side:?} {op:?} k {k} width {w}: {diff:.1e}");
                }
            }
        }
    }

    #[test]
    fn upper_t_product_multiplies_in_place_on_a_sub_block() {
        // A view inside a larger buffer, as the callers pass it: the view
        // gets the product and nothing outside it is written.
        for k in [1, 7, 24, 48] {
            let t = poisoned_upper(k);
            for w in [1, 5, 9, 48] {
                for (side, op) in SIDE_OPS {
                    let (rows, cols) = if side == Side::Left { (k, w) } else { (w, k) };
                    let mut big = ZMat::random(rows + 3, cols + 2, (100 * k + w) as u64);
                    let before = big.clone();
                    let want = naive_upper_product(side, op, &t, &big.block(2, 1, rows, cols));
                    mul_upper_t(side, op, t.view(), big.block_view_mut(2, 1, rows, cols));
                    let diff = big.block(2, 1, rows, cols).max_diff(&want);
                    assert!(diff < 1e-13 * k as f64, "{side:?} {op:?} k {k} width {w}: {diff:.1e}");
                    let view = before.block_view(2, 1, rows, cols);
                    big.block_view_mut(2, 1, rows, cols).copy_from_view(view);
                    assert!(big == before, "{side:?} wrote outside its view");
                }
            }
        }
    }

    #[test]
    fn upper_t_product_allocation_free() {
        for k in [1, 9, 32, 48] {
            let t = poisoned_upper(k);
            for w in [1, 8, 57] {
                for (side, op) in SIDE_OPS {
                    let (rows, cols) = if side == Side::Left { (k, w) } else { (w, k) };
                    let mut b = ZMat::random(rows, cols, (100 * k + w) as u64);
                    let allocs = crate::zmat::alloc_count();
                    mul_upper_t(side, op, t.view(), b.view_mut());
                    assert_eq!(crate::zmat::alloc_count(), allocs, "{side:?} allocated a ZMat");
                }
            }
        }
    }
}
