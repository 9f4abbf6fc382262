//! Hermitian eigensolvers (`zheev`/`zhegv`-lite).
//!
//! The set-up of a transport run solves Hermitian-definite problems: the
//! lead bands `H(k)·c = E·S(k)·c` that place the energy grid, and the
//! charge loop of the DFT substrate that diagonalizes the cell's `H`
//! against its overlap `S` (SC'15 Fig. 2). [`mod@crate::eig`]'s general
//! solver answers them too, at about ten times the work and with complex
//! eigenvalues and unnormalized vectors to clean up. This module is the
//! LAPACK `zhegv` pipeline, from scratch:
//!
//! 1. Cholesky `S = L·Lᴴ` (right-looking, `NB`-wide panels: the panel
//!    below each diagonal block is one trsm, the trailing update one gemm
//!    per block column). A pivot that is not positive is
//!    [`LinalgError::NotPositiveDefinite`].
//! 2. Reduction to the standard problem `C = L⁻¹·H·L⁻ᴴ`: two trsms.
//! 3. Householder tridiagonalization `C = Q·T·Qᴴ`, one reflector at a
//!    time: a `zhemv` over the lower triangle builds `w`, and the trailing
//!    rank-2 update `C −= v·wᴴ + w·vᴴ` is one gemm of depth 2 on `[v | w]`
//!    and `[w | v]` staged side by side, block column by block column
//!    below the diagonal. Only `C`'s lower triangle is read. (LAPACK's
//!    `zlatrd` panels, which defer the update to a depth-`2·NB` gemm, lost
//!    to this at every order up to 252 and won only from about 320 on, an
//!    order no caller solves.)
//! 4. Implicit QL with Wilkinson shifts on the real tridiagonal `T` (its
//!    off-diagonal is real because every reflector leaves a real `β`).
//!    Rotations accumulate into `Z` only when vectors are asked for, and
//!    then `Q·Z` is formed `NB` reflectors at a time as the QR stack's
//!    compact-WY blocks (three gemms each) and, for the generalized
//!    problem, `L⁻ᴴ·(Q·Z)` by one more trsm.
//!
//! Eigenvalues come out real and ascending; vectors orthonormal for
//! [`eigh`] and `S`-orthonormal (`XᴴSX = I`) for [`eigh_generalized`].

use crate::complex::{c64, Complex64};
use crate::flops::{counts, flops_add};
use crate::gemm::{gemm_into_unc, Op};
use crate::qr::{apply_panel_wy, build_t, stage_v, zlarfg};
use crate::trsm::{trsm, trsm_unc, Diag, Side, UpLo};
use crate::zmat::{ZMat, ZMatRef};
use crate::{LinalgError, Result};

/// Panel width of the blocked Cholesky and back-transformation, and the
/// block-column width of the tridiagonalization's trailing update (the
/// LU/QR stacks' width, so the staging tiles alike).
const NB: usize = 32;

/// Whether a Hermitian solve returns eigenvectors besides the eigenvalues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Vectors {
    /// Eigenvalues only: no rotation is accumulated and nothing is
    /// back-transformed.
    Skip,
    /// Eigenvalues and eigenvectors.
    Compute,
}

/// Eigenvalues and (optionally) eigenvectors of a Hermitian problem.
#[derive(Debug, Clone)]
pub struct EighDecomposition {
    /// Eigenvalues, real and ascending.
    pub values: Vec<f64>,
    /// Column `k` pairs with `values[k]`: orthonormal for [`eigh`],
    /// `S`-orthonormal for [`eigh_generalized`]. `None` under
    /// [`Vectors::Skip`].
    pub vectors: Option<ZMat>,
}

/// Eigen-decomposition `A = X·Λ·Xᴴ` of a Hermitian matrix; only the lower
/// triangle of `a` is read (the diagonal's imaginary parts are taken as
/// zero).
pub fn eigh(a: &ZMat, vectors: Vectors) -> Result<EighDecomposition> {
    assert!(a.is_square(), "eigh wants a square matrix");
    solve_standard(a.clone(), vectors)
}

/// The Hermitian-definite problem `H·x = λ·S·x` (LAPACK `zhegv`, type 1):
/// `H` Hermitian, `S` Hermitian positive definite (only its lower triangle
/// is read). A non-positive-definite `S` is
/// [`LinalgError::NotPositiveDefinite`].
pub fn eigh_generalized(h: &ZMat, s: &ZMat, vectors: Vectors) -> Result<EighDecomposition> {
    assert!(h.is_square(), "eigh_generalized wants a square H");
    assert_eq!((h.rows(), h.cols()), (s.rows(), s.cols()), "H and S must have one shape");
    if is_identity(s) {
        // An orthogonal basis (every tight-binding lead and cell): the
        // Cholesky factor is I and both trsms would copy.
        return eigh(h, vectors);
    }
    let l = cholesky_lower(s)?;
    let mut c = h.clone();
    trsm(Side::Left, UpLo::Lower, Op::None, Diag::NonUnit, l.view(), c.view_mut());
    trsm(Side::Right, UpLo::Lower, Op::Adjoint, Diag::NonUnit, l.view(), c.view_mut());
    let mut dec = solve_standard(c, vectors)?;
    if let Some(x) = dec.vectors.as_mut() {
        trsm(Side::Left, UpLo::Lower, Op::Adjoint, Diag::NonUnit, l.view(), x.view_mut());
    }
    Ok(dec)
}

/// Whether the lower triangle of `s` is exactly the identity's.
fn is_identity(s: &ZMat) -> bool {
    (0..s.cols()).all(|j| {
        let col = s.col(j);
        col[j] == Complex64::ONE && col[j + 1..].iter().all(|&z| z == Complex64::ZERO)
    })
}

/// Lower Cholesky factor `L` of `S = L·Lᴴ`, read from `s`'s lower triangle
/// (the strict upper triangle of the result is unspecified).
fn cholesky_lower(s: &ZMat) -> Result<ZMat> {
    let n = s.rows();
    flops_add(counts::zpotrf(n));
    let mut l = s.clone();
    let mut k0 = 0;
    while k0 < n {
        let end = (k0 + NB).min(n);
        // The diagonal block, right-looking column by column.
        for j in k0..end {
            let pivot = l[(j, j)].re;
            if pivot.is_nan() || pivot <= 0.0 {
                return Err(LinalgError::NotPositiveDefinite { index: j, pivot });
            }
            let ljj = pivot.sqrt();
            let col = l.col_mut(j);
            col[j] = c64(ljj, 0.0);
            for z in &mut col[j + 1..end] {
                *z = z.scale(1.0 / ljj);
            }
            for c in j + 1..end {
                let (lj, lc) = l.two_cols_mut(j, c);
                let f = lj[c].conj();
                for (dst, src) in lc[c..end].iter_mut().zip(&lj[c..end]) {
                    *dst -= *src * f;
                }
            }
        }
        let below = n - end;
        if below > 0 {
            // L21 = A21·L11⁻ᴴ, then A22 −= L21·L21ᴴ on the lower block
            // columns only.
            let l11 = l.block_view(k0, k0, end - k0, end - k0).to_owned();
            let panel = l.block_view_mut(end, k0, below, end - k0);
            trsm_unc(Side::Right, UpLo::Lower, Op::Adjoint, Diag::NonUnit, l11.view(), panel);
            let (left, mut right) = l.view_mut().split_at_col(end);
            let l21 = left.as_ref().sub(end, k0, below, end - k0);
            for c0 in (0..below).step_by(NB) {
                let cb = NB.min(below - c0);
                gemm_into_unc(
                    -Complex64::ONE,
                    l21.sub(c0, 0, below - c0, end - k0),
                    Op::None,
                    l21.sub(c0, 0, cb, end - k0),
                    Op::Adjoint,
                    Complex64::ONE,
                    right.rb().sub_mut(end + c0, c0, below - c0, cb),
                );
            }
        }
        k0 = end;
    }
    Ok(l)
}

/// Steps 3 and 4 on the lower triangle of `c`.
fn solve_standard(mut c: ZMat, vectors: Vectors) -> Result<EighDecomposition> {
    let n = c.rows();
    let (mut d, mut e, tau) = tridiagonalize(&mut c);
    let mut z = (vectors == Vectors::Compute).then(|| {
        let mut z = vec![0.0; n * n];
        z.iter_mut().step_by(n + 1).for_each(|v| *v = 1.0);
        z
    });
    tridiagonal_ql(&mut d, &mut e, z.as_deref_mut())?;
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| d[i].total_cmp(&d[j]));
    let values = order.iter().map(|&i| d[i]).collect();
    let vectors = z.map(|z| {
        let mut x = ZMat::zeros(n, n);
        for (k, &i) in order.iter().enumerate() {
            for (dst, &src) in x.col_mut(k).iter_mut().zip(&z[i * n..(i + 1) * n]) {
                *dst = c64(src, 0.0);
            }
        }
        back_transform(&c, &tau, &mut x);
        x
    });
    Ok(EighDecomposition { values, vectors })
}

/// Householder reduction `C = Q·T·Qᴴ` in place, reading and updating the
/// lower triangle only (the diagonal's imaginary parts are taken as zero):
/// returns the diagonal, the off-diagonal (`e[k]` couples `k` and `k + 1`;
/// `e[n − 1] = 0`) and the reflector coefficients. On exit column `k` of
/// `c` holds reflector `k`'s tail below the subdiagonal (`Q = H₀·H₁⋯`,
/// `H_k = I − τ_k·v·vᴴ`, `v`'s unit head at row `k + 1`).
///
/// Step `k` builds `w = τ·C·v + α·v` with `α = −τ·(wᴴ·v)/2` (one
/// [`hemv_lower`]), and the two-sided update `C −= v·wᴴ + w·vᴴ` of the
/// trailing matrix is one gemm of depth 2 on `[v | w]` and `[w | v]`,
/// block column by block column on and below the diagonal.
fn tridiagonalize(c: &mut ZMat) -> (Vec<f64>, Vec<f64>, Vec<Complex64>) {
    let n = c.rows();
    flops_add(counts::zhetrd(n));
    let mut e = vec![0.0; n];
    let mut tau = vec![Complex64::ZERO; n];
    let (mut vw, mut wv) = (ZMat::zeros(n, 2), ZMat::zeros(n, 2));
    for k in 0..n.saturating_sub(1) {
        c[(k, k)].im = 0.0;
        tau[k] = zlarfg(&mut c.col_mut(k)[k + 1..n]);
        e[k] = c[(k + 1, k)].re;
        c[(k + 1, k)] = Complex64::ONE;
        let m = n - k - 1;
        let v = &c.col(k)[k + 1..n];
        let w = &mut vw.col_mut(1)[..m];
        hemv_lower(c.block_view(k + 1, k + 1, m, m), v, w);
        let t = tau[k];
        for x in w.iter_mut() {
            *x *= t;
        }
        let alpha = -(t * Complex64::dot_conj(w, v)).scale(0.5);
        for (x, &vi) in w.iter_mut().zip(v) {
            *x = x.mul_add(alpha, vi);
        }
        wv.col_mut(0)[..m].copy_from_slice(w);
        vw.col_mut(0)[..m].copy_from_slice(v);
        wv.col_mut(1)[..m].copy_from_slice(v);
        for c0 in (0..m).step_by(NB) {
            let cb = NB.min(m - c0);
            gemm_into_unc(
                -Complex64::ONE,
                vw.block_view(c0, 0, m - c0, 2),
                Op::None,
                wv.block_view(c0, 0, cb, 2),
                Op::Adjoint,
                Complex64::ONE,
                c.block_view_mut(k + 1 + c0, k + 1 + c0, m - c0, cb),
            );
        }
        c[(k + 1, k)] = c64(e[k], 0.0);
    }
    let d = (0..n).map(|i| c[(i, i)].re).collect();
    (d, e, tau)
}

/// `x = A·v` for a Hermitian `A` stored in its lower triangle (`zhemv`):
/// each column is read once, for a conjugated dot into `x[j]` and an axpy
/// into `x[j + 1..]`.
fn hemv_lower(a: ZMatRef<'_>, v: &[Complex64], x: &mut [Complex64]) {
    x.fill(Complex64::ZERO);
    for (j, &vj) in v.iter().enumerate() {
        let col = &a.col(j)[j..];
        let below = Complex64::dot_conj(&col[1..], &v[j + 1..]);
        x[j] += vj.scale(col[0].re) + below;
        for (xi, &aij) in x[j + 1..].iter_mut().zip(&col[1..]) {
            *xi = xi.mul_add(aij, vj);
        }
    }
}

/// `X ← Q·X` for the `Q` of [`tridiagonalize`], `NB` reflectors at a time
/// from the last block (`zunmtr`): each block is the compact-WY
/// `I − V·T·Vᴴ` of the QR stack, applied with three gemms.
fn back_transform(c: &ZMat, tau: &[Complex64], x: &mut ZMat) {
    let n = c.rows();
    if n < 2 {
        return;
    }
    flops_add(counts::zunmqr(n - 1, n, n - 1));
    let nr = n - 1;
    let mut taus = ZMat::zeros(nr, 1);
    for (dst, &t) in taus.col_mut(0).iter_mut().zip(tau) {
        *dst = t;
    }
    let (mut vbuf, mut sbuf) = (ZMat::zeros(nr, NB), ZMat::zeros(NB, NB));
    let (mut ts, mut wbuf) = (ZMat::zeros(NB, nr), ZMat::zeros(NB, n));
    let mut blocks: Vec<usize> = (0..nr).step_by(NB).collect();
    while let Some(k0) = blocks.pop() {
        let kb = NB.min(nr - k0);
        let mv = n - k0 - 1;
        // Reflector k's unit head sits at row k + 1: the block's V is the
        // unit-lower trapezoid one row below the diagonal.
        stage_v(&c.block_view(k0 + 1, k0, mv, kb), &mut vbuf);
        let v = vbuf.block_view(0, 0, mv, kb);
        build_t(v, &taus, &mut sbuf, &mut ts, 0, k0, kb);
        let t = ts.block_view(0, k0, kb, kb);
        apply_panel_wy(v, t, false, x.block_view_mut(k0 + 1, 0, mv, n), &mut wbuf);
    }
}

/// Implicit QL with Wilkinson shifts on the symmetric tridiagonal
/// `(d, e)` (`e[i]` couples `i` and `i + 1`), in place: `d` ends as the
/// eigenvalues (unsorted), and the rotations are applied to the columns of
/// the column-major `n × n` `z` when one is given.
fn tridiagonal_ql(d: &mut [f64], e: &mut [f64], mut z: Option<&mut [f64]>) -> Result<()> {
    let n = d.len();
    if n == 0 {
        return Ok(());
    }
    flops_add(counts::zsteqr(n, z.is_some()));
    e[n - 1] = 0.0;
    let max_sweeps = 30 * n;
    let mut sweeps = 0;
    for l in 0..n {
        loop {
            let mut m = l;
            while m + 1 < n && e[m].abs() > f64::EPSILON * (d[m].abs() + d[m + 1].abs()) {
                m += 1;
            }
            if m == l {
                break;
            }
            sweeps += 1;
            if sweeps > max_sweeps {
                return Err(LinalgError::NoConvergence { remaining: n - l });
            }
            // `hypot` spelled out: the band and cell spectra are O(10) eV,
            // far from overflow, and libm's hypot is most of a sweep's time.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = (g * g + 1.0).sqrt();
            g = d[m] - d[l] + e[l] / (g + r.copysign(g));
            let (mut s, mut c, mut p) = (1.0, 1.0, 0.0);
            let mut deflated = false;
            for i in (l..m).rev() {
                let f = s * e[i];
                let b = c * e[i];
                r = (f * f + g * g).sqrt();
                e[i + 1] = r;
                if r == 0.0 {
                    // An exact zero split the block: restart on it.
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    deflated = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                if let Some(z) = z.as_deref_mut() {
                    let (zi, zi1) = z[i * n..(i + 2) * n].split_at_mut(n);
                    for (a, b) in zi.iter_mut().zip(zi1.iter_mut()) {
                        let f = *b;
                        *b = s * *a + c * f;
                        *a = c * *a - s * f;
                    }
                }
            }
            if deflated {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tridiagonal_ql_on_a_known_spectrum() {
        // The n = 6 second-difference matrix: 2 − 2·cos(kπ/7).
        let n = 6;
        let mut d = vec![2.0; n];
        let mut e = vec![-1.0; n];
        let mut z = vec![0.0; n * n];
        z.iter_mut().step_by(n + 1).for_each(|v| *v = 1.0);
        tridiagonal_ql(&mut d, &mut e, Some(&mut z)).unwrap();
        let mut got = d.clone();
        got.sort_by(f64::total_cmp);
        for (k, g) in got.iter().enumerate() {
            let want = 2.0 - 2.0 * ((k + 1) as f64 * std::f64::consts::PI / 7.0).cos();
            assert!((g - want).abs() < 1e-14, "{g} vs {want}");
        }
        // Z stays orthogonal.
        for a in 0..n {
            for b in 0..n {
                let dot: f64 = (0..n).map(|r| z[a * n + r] * z[b * n + r]).sum();
                assert!((dot - f64::from(u8::from(a == b))).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn tridiagonalize_is_a_unitary_similarity() {
        // 90 crosses the 32-wide block columns of the trailing update and
        // the back-transformation's reflector blocks.
        for n in [5usize, 90] {
            let mut a = ZMat::random(n, n, 70 + n as u64);
            a.hermitianize();
            let mut c = a.clone();
            let (d, e, tau) = tridiagonalize(&mut c);
            let mut q = ZMat::identity(n);
            back_transform(&c, &tau, &mut q);
            let mut t = ZMat::zeros(n, n);
            for i in 0..n {
                t[(i, i)] = c64(d[i], 0.0);
                if i + 1 < n {
                    t[(i + 1, i)] = c64(e[i], 0.0);
                    t[(i, i + 1)] = c64(e[i], 0.0);
                }
            }
            let back = &(&q * &t) * &q.adjoint();
            let scale = a.norm_max() * n as f64;
            assert!(back.max_diff(&a) < 1e-13 * scale, "n = {n}: {:.2e}", back.max_diff(&a));
        }
    }

    #[test]
    fn cholesky_rebuilds_the_matrix_across_panels() {
        let n = 75;
        let b = ZMat::random(n, n, 5);
        let mut s = &b * &b.adjoint();
        for i in 0..n {
            s[(i, i)] += c64(1.0, 0.0);
        }
        let mut l = cholesky_lower(&s).unwrap();
        for j in 0..n {
            l.col_mut(j)[..j].fill(Complex64::ZERO);
        }
        let back = &l * &l.adjoint();
        assert!(back.max_diff(&s) < 1e-12 * s.norm_max(), "{:.2e}", back.max_diff(&s));
    }
}
