//! LU factorization with partial pivoting and linear solves (`zgesv`).
//!
//! The one general dense solver of the workspace: the FEAST/Beyn node
//! systems, every SplitSolve/BTD-LU/RGF/Caroli pivot block and the small
//! reduced systems all factor through here. (The paper's GPU runs use the
//! pivot-free MAGMA kernels `zgesv_nopiv`/`zhesv_nopiv`, §5.E; this code's
//! own measurements never showed them ahead of pivoted LU — see
//! `docs/linalg.md` — so their cost lives on only as labels and rates in
//! `qtx-machine::perfmodel` and `qtx-accel`.)
//!
//! Above a size crossover (`BLOCK_MIN` = 96) the factorization runs
//! **blocked right-looking**: column ranges split recursively (flat
//! `NB`-panel peeling below a strip width, halving above it), each merge
//! being a scalar-panel factor with full-row pivot interchanges
//! (`zlaswp`-style), a [`mod@crate::trsm`] solve of the `U₁₂` panel and one
//! gemm trailing update on the tiled [`mod@crate::gemm`] microkernel — the
//! same decomposition MAGMA's `zgetrf` uses on the paper's GPUs, with the
//! recursion pushing the large-`n` flops into large-`k` gemms. Below the
//! crossover the unblocked rank-1 loop runs; [`lu_factor_unblocked`] is
//! that loop at any size, the reference the tests and `bench_lu_json`
//! compare the blocked path against.
//!
//! Solves follow the same split: [`LuFactors::solve_in_place`] applies the
//! pivot sequence and two blocked triangular solves directly in the
//! caller's buffer, and [`LuFactors::solve_into`]/[`zgesv_into`] borrow
//! everything — including the factorization's own working copy, via
//! [`lu_factor_ws`] — from a [`Workspace`], so a factor+solve loop over
//! energy points performs zero fresh matrix allocations once the pool is
//! warm.

use crate::complex::Complex64;
use crate::flops::{counts, flops_add};
use crate::gemm::{gemm_into_unc, Op};
use crate::trsm::{trsm_unc, Diag, Side, UpLo};
use crate::workspace::Workspace;
use crate::zmat::{ZMat, ZMatMut, ZMatRef};
use crate::{LinalgError, Result};

/// Breakdown threshold relative to the matrix scale.
const PIVOT_TOL: f64 = 1e-300;

/// Panel width of the blocked factorization: strips this narrow are
/// factored with the scalar rank-1 loop.
const NB: usize = 32;

/// Column widths up to this peel `NB`-panels left to right (flat
/// blocking, whose trailing updates are wide enough for the packed gemm
/// path); wider ranges split in half recursively so the merge gemm runs
/// at large `k` (Toledo's recursive LU shape). The hybrid keeps every
/// update gemm on the packed microkernel: pure recursion would drown in
/// small `32×32×m` bottom-level merges below the packing threshold.
const STRIP: usize = 128;

/// Smallest order that takes the blocked path; below it the panel/trsm
/// bookkeeping costs more than the gemm saves (measured on this
/// container's 1-core AVX-512 CPU via `bench_lu_json`, crossover ≈ 96).
pub(crate) const BLOCK_MIN: usize = 96;

/// An LU factorization `P·A = L·U` stored packed in a single matrix.
#[derive(Debug, Clone)]
pub struct LuFactors {
    /// Packed L (unit lower, implicit diagonal) and U factors.
    pub lu: ZMat,
    /// LAPACK-style pivot sequence: at step `k`, rows `k` and `ipiv[k]`
    /// were interchanged.
    pub ipiv: Vec<usize>,
}

/// Applies a pivot interchange sequence to a right-hand side in place
/// (LAPACK `zlaswp`): for `k` ascending, swaps rows `k` and `ipiv[k]`.
fn laswp(x: &mut ZMatMut<'_>, ipiv: &[usize]) {
    for (k, &p) in ipiv.iter().enumerate() {
        if p != k {
            for j in 0..x.cols() {
                x.col_mut(j).swap(k, p);
            }
        }
    }
}

/// Factors `A` with partial pivoting.
pub fn lu_factor(a: &ZMat) -> Result<LuFactors> {
    factor_entry(a.clone(), None)
}

/// [`lu_factor`] with the working copy **and** the pivot index buffer
/// borrowed from `ws` — the zero-churn form for factor loops; hand
/// everything back with [`LuFactors::recycle_into`] when the factors are
/// spent.
pub fn lu_factor_ws(a: &ZMat, ws: &Workspace) -> Result<LuFactors> {
    factor_entry(ws.copy_of(a), Some(ws))
}

/// Factors a matrix the caller already owns, in place (no copy at all),
/// with the pivot index buffer borrowed from the `ws` index pool — the
/// form callers that already pooled the matrix itself (e.g.
/// `factor_poly_ws`) use so a warm factor loop allocates nothing at all;
/// return everything with [`LuFactors::recycle_into`].
pub fn lu_factor_owned_ws(a: ZMat, ws: &Workspace) -> Result<LuFactors> {
    factor_entry(a, Some(ws))
}

/// The unblocked rank-1-update loop at any size: what [`lu_factor`] runs
/// below the crossover, and the reference the blocked-vs-unblocked tests
/// and `bench_lu_json`'s kernel rows compare against.
pub fn lu_factor_unblocked(a: &ZMat) -> Result<LuFactors> {
    let n = a.rows();
    let mut lu = a.clone();
    flops_add(counts::zgetrf(n));
    let mut ipiv: Vec<usize> = (0..n).collect();
    factor_unblocked(&mut lu, &mut ipiv)?;
    Ok(LuFactors { lu, ipiv })
}

/// Shared entry: counts, dispatches on size, pools the pivot index
/// buffer when a workspace is supplied, recycles everything on error.
fn factor_entry(mut lu: ZMat, ws: Option<&Workspace>) -> Result<LuFactors> {
    let n = lu.rows();
    assert!(lu.is_square(), "LU requires a square matrix");
    flops_add(counts::zgetrf(n));
    let mut ipiv = match ws {
        Some(ws) => ws.take_index(n),
        None => (0..n).collect(),
    };
    let factored = if n < BLOCK_MIN {
        factor_unblocked(&mut lu, &mut ipiv)
    } else {
        // Staging buffer for U₁₂ (raw scratch, not a ZMat): the merge gemm
        // reads it while writing other rows of the same columns.
        factor_cols(&mut lu, 0, n, &mut ipiv, &mut Vec::new())
    };
    match factored {
        Ok(()) => Ok(LuFactors { lu, ipiv }),
        Err(e) => {
            if let Some(ws) = ws {
                ws.recycle(lu);
                ws.recycle_index(ipiv);
            }
            // Annotate with the op and operand shape so the failure
            // taxonomy upstairs (ObcError/SolveError) reports *which*
            // factorization of *what size* broke, not just "singular".
            Err(e.with_context("zgetrf", (n, n)))
        }
    }
}

/// The unblocked rank-1-update loop, filling the caller-provided pivot
/// buffer.
fn factor_unblocked(lu: &mut ZMat, ipiv: &mut [usize]) -> Result<()> {
    let n = lu.rows();
    for k in 0..n {
        pivot_step(lu, ipiv, k)?;
        // Rank-1 trailing update, column by column for cache friendliness.
        rank1_update(lu, k, k + 1, n);
    }
    Ok(())
}

/// Rank-1 trailing update `A[k+1.., j] −= L[k+1.., k]·U[k, j]` for columns
/// `j ∈ col_lo..col_hi`, run over contiguous column slices so the inner
/// loop vectorizes (the unblocked path's hottest loop).
#[inline]
fn rank1_update(lu: &mut ZMat, k: usize, col_lo: usize, col_hi: usize) {
    let n = lu.rows();
    for j in col_lo..col_hi {
        let ukj = lu[(k, j)];
        if ukj == Complex64::ZERO {
            continue;
        }
        let neg = -ukj;
        let (colk, colj) = lu.two_cols_mut(k, j);
        for (cj, &ck) in colj[k + 1..n].iter_mut().zip(&colk[k + 1..n]) {
            *cj = cj.mul_add(ck, neg);
        }
    }
}

/// One elimination step shared by the unblocked loop and the blocked
/// panel: pivot search/interchange (full rows), breakdown check,
/// multiplier scaling of column `k` below the diagonal.
#[inline]
fn pivot_step(lu: &mut ZMat, ipiv: &mut [usize], k: usize) -> Result<()> {
    let n = lu.rows();
    let mut p = k;
    let mut best = lu[(k, k)].norm_sqr();
    for i in k + 1..n {
        let mag = lu[(i, k)].norm_sqr();
        if mag > best {
            best = mag;
            p = i;
        }
    }
    if best.sqrt() < PIVOT_TOL {
        return Err(LinalgError::SingularPivot { index: k, magnitude: best.sqrt() });
    }
    if p != k {
        lu.swap_rows(k, p);
    }
    ipiv[k] = p;
    let pivot_inv = lu[(k, k)].inv();
    for lik in lu.col_mut(k)[k + 1..n].iter_mut() {
        *lik *= pivot_inv;
    }
    Ok(())
}

/// Recursive blocked right-looking factorization of columns `c0..c1`
/// (rows `c0..n`), assuming all columns left of `c0` are factored and
/// their updates applied to this range.
///
/// The column range splits in half until it reaches the `NB`-wide scalar
/// base case; each merge is one `trsm` on `U₁₂` plus one gemm trailing
/// update with `k` equal to the half-width — so the bulk of the flops run
/// through the packed microkernel at large `k` instead of the thin
/// panel-width `k` of flat blocking. Pivot interchanges are applied
/// across all `n` columns immediately, so the matrix state at every
/// recursion level matches the unblocked algorithm's.
fn factor_cols(
    lu: &mut ZMat,
    c0: usize,
    c1: usize,
    ipiv: &mut [usize],
    u12buf: &mut Vec<Complex64>,
) -> Result<()> {
    let n = lu.rows();
    let w = c1 - c0;
    if w <= NB {
        // Scalar strip: rank-1 updates restricted to the strip's columns.
        for k in c0..c1 {
            pivot_step(lu, ipiv, k)?;
            rank1_update(lu, k, k + 1, c1);
        }
        return Ok(());
    }
    // Narrow ranges peel one panel (flat blocking); wide ranges split in
    // half (rounded to a panel multiple) so the merge gemm gets large `k`.
    let h = if w <= STRIP { NB } else { (w / 2).div_ceil(NB) * NB };
    factor_cols(lu, c0, c0 + h, ipiv, u12buf)?;
    let mid = c0 + h;
    let nr = c1 - mid;
    let rows = n - mid;
    {
        // Split the storage at column `mid`: L₁₁/L₂₁ live left of the
        // split, U₁₂ and the trailing block right of it.
        let ld = n;
        let data = lu.as_mut_slice();
        let (left, right) = data.split_at_mut(mid * ld);
        let right = &mut right[..nr * ld];
        let l11 = ZMatRef::from_slice(&left[c0 * ld + c0..], h, h, ld);
        let u12 = ZMatMut::from_slice(&mut right[c0..], h, nr, ld);
        trsm_unc(Side::Left, UpLo::Lower, Op::None, Diag::Unit, l11, u12);
        // Stage U₁₂ for the gemm (it reads rows c0..mid of the columns
        // the update writes below).
        u12buf.resize(h * nr, Complex64::ZERO);
        for jj in 0..nr {
            u12buf[jj * h..(jj + 1) * h].copy_from_slice(&right[jj * ld + c0..jj * ld + c0 + h]);
        }
        let u12v = ZMatRef::from_slice(u12buf, h, nr, h);
        let l21 = ZMatRef::from_slice(&left[c0 * ld + mid..], rows, h, ld);
        let a22 = ZMatMut::from_slice(&mut right[mid..], rows, nr, ld);
        gemm_into_unc(-Complex64::ONE, l21, Op::None, u12v, Op::None, Complex64::ONE, a22);
    }
    factor_cols(lu, mid, c1, ipiv, u12buf)
}

impl LuFactors {
    /// Solves `A·X = B` for multiple right-hand sides using the factors.
    pub fn solve(&self, b: &ZMat) -> ZMat {
        let mut x = b.clone();
        self.solve_in_place(&mut x);
        x
    }

    /// Solves `A·X = B` writing the solution into a caller-provided buffer
    /// (typically borrowed from a [`Workspace`]); `x` is fully overwritten,
    /// so unzeroed scratch is fine.
    pub fn solve_into(&self, b: ZMatRef<'_>, x: &mut ZMat) {
        assert_eq!((x.rows(), x.cols()), (b.rows(), b.cols()), "solve_into output shape mismatch");
        x.view_mut().copy_from_view(b);
        self.solve_in_place(x);
    }

    /// Solves `A·X = B` in place: `x` holds `B` on entry and `X` on exit.
    /// Pivot interchanges (`zlaswp`) followed by two blocked triangular
    /// solves — the off-diagonal sweeps run on the gemm microkernel and
    /// the ≤64-block diagonal substitution is RHS-register-blocked
    /// (4-column panels in [`mod@crate::trsm`]), the sweep that dominates
    /// SplitSolve's per-block solves at s = 64.
    pub fn solve_in_place(&self, x: &mut ZMat) {
        self.solve_in_place_view(x.view_mut());
    }

    /// [`LuFactors::solve_in_place`] on a mutable view: solves a column
    /// range of a wider panel where it lies, so a sweep that keeps many
    /// thin solutions side by side in one buffer needs no staging copy.
    pub fn solve_in_place_view(&self, mut x: ZMatMut<'_>) {
        let n = self.lu.rows();
        assert_eq!(x.rows(), n, "rhs row count mismatch");
        flops_add(counts::zgetrs(n, x.cols()));
        laswp(&mut x, &self.ipiv);
        trsm_unc(Side::Left, UpLo::Lower, Op::None, Diag::Unit, self.lu.view(), x.rb());
        trsm_unc(Side::Left, UpLo::Upper, Op::None, Diag::NonUnit, self.lu.view(), x);
    }

    /// Solves `Aᴴ·X = B` in place on the factors of `A`: from `P·A = L·U`,
    /// `Aᴴ = Uᴴ·Lᴴ·P`, so two triangular solves with [`Op::Adjoint`] and
    /// the pivot interchanges undone in reverse order — the same flops as
    /// [`LuFactors::solve_in_place`], and no second factorization.
    pub fn solve_adjoint_in_place(&self, x: &mut ZMat) {
        let n = self.lu.rows();
        assert_eq!(x.rows(), n, "rhs row count mismatch");
        flops_add(counts::zgetrs(n, x.cols()));
        trsm_unc(Side::Left, UpLo::Upper, Op::Adjoint, Diag::NonUnit, self.lu.view(), x.view_mut());
        trsm_unc(Side::Left, UpLo::Lower, Op::Adjoint, Diag::Unit, self.lu.view(), x.view_mut());
        for (k, &p) in self.ipiv.iter().enumerate().rev() {
            if p != k {
                x.swap_rows(k, p);
            }
        }
    }

    /// Solves for a single right-hand-side vector.
    pub fn solve_vec(&self, b: &[Complex64]) -> Vec<Complex64> {
        let n = self.lu.rows();
        let mut bm = ZMat::zeros(n, 1);
        bm.col_mut(0).copy_from_slice(b);
        self.solve_in_place(&mut bm);
        bm.col(0).to_vec()
    }

    /// Determinant from the factorization; the sign comes from the parity
    /// of the pivot interchange sequence (`ipiv[k] ≠ k` counts one swap).
    pub fn determinant(&self) -> Complex64 {
        let n = self.lu.rows();
        let mut det = Complex64::ONE;
        for i in 0..n {
            det *= self.lu[(i, i)];
        }
        let swaps = self.ipiv.iter().enumerate().filter(|&(k, &p)| p != k).count();
        if swaps % 2 == 1 {
            det = -det;
        }
        det
    }

    /// Consumes the factors, returning both backing buffers — the packed
    /// matrix and the pivot index vector — to the pool, so warm factor
    /// loops recycle the `O(n)` pivot churn along with the `O(n²)` matrix.
    pub fn recycle_into(self, ws: &Workspace) {
        ws.recycle(self.lu);
        ws.recycle_index(self.ipiv);
    }
}

/// One-shot solve `A·X = B` with partial pivoting (LAPACK `zgesv`).
pub fn zgesv(a: &ZMat, b: &ZMat) -> Result<ZMat> {
    Ok(lu_factor(a)?.solve(b))
}

/// One-shot pivoted solve with **every** temporary — the factorization's
/// working copy included — borrowed from `ws`, writing the solution into
/// the caller's buffer. The zero-allocation form the per-block solves in
/// SplitSolve/RGF/BTD-LU call once per block per energy point.
pub fn zgesv_into(a: &ZMat, b: &ZMat, x: &mut ZMat, ws: &Workspace) -> Result<()> {
    let f = lu_factor_ws(a, ws)?;
    f.solve_into(b.view(), x);
    f.recycle_into(ws);
    Ok(())
}

/// Matrix inverse through LU (used for small reduced systems only; the
/// transport solvers never invert large matrices explicitly).
pub fn lu_inverse(a: &ZMat) -> Result<ZMat> {
    let f = lu_factor(a)?;
    let mut x = ZMat::identity(a.rows());
    f.solve_in_place(&mut x);
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;

    fn diag_dominant(n: usize, seed: u64) -> ZMat {
        let mut a = ZMat::random(n, n, seed);
        for i in 0..n {
            a[(i, i)] += c64(n as f64, n as f64 * 0.5);
        }
        a
    }

    /// The row gather map of `P` (row `i` of `P·A` is row `perm[i]` of
    /// `A`), replayed from the interchange sequence.
    fn gather_of(ipiv: &[usize]) -> Vec<usize> {
        let mut perm: Vec<usize> = (0..ipiv.len()).collect();
        for (k, &p) in ipiv.iter().enumerate() {
            perm.swap(k, p);
        }
        perm
    }

    #[test]
    fn pivoted_solve_reconstructs_rhs() {
        let a = ZMat::random(12, 12, 21);
        let x_true = ZMat::random(12, 3, 22);
        let b = &a * &x_true;
        let x = zgesv(&a, &b).unwrap();
        assert!(x.max_diff(&x_true) < 1e-9);
    }

    #[test]
    fn inverse_roundtrip() {
        let a = diag_dominant(9, 41);
        let inv = lu_inverse(&a).unwrap();
        let id = &a * &inv;
        assert!(id.max_diff(&ZMat::identity(9)) < 1e-9);
    }

    #[test]
    fn determinant_of_diagonal() {
        let d = ZMat::from_diag(&[c64(2.0, 0.0), c64(0.0, 3.0), c64(-1.0, 0.0)]);
        let f = lu_factor(&d).unwrap();
        // det = 2 * 3i * (-1) = -6i
        assert!((f.determinant() - c64(0.0, -6.0)).abs() < 1e-12);
    }

    #[test]
    fn determinant_sign_under_permutation() {
        // Permutation matrix swapping rows 0,1: determinant -1.
        let mut p = ZMat::zeros(2, 2);
        p[(0, 1)] = Complex64::ONE;
        p[(1, 0)] = Complex64::ONE;
        let f = lu_factor(&p).unwrap();
        assert!((f.determinant() - c64(-1.0, 0.0)).abs() < 1e-12);
    }

    #[test]
    fn determinant_consistent_across_blocked_and_unblocked() {
        // Large enough for the blocked path; the permutation-parity sign
        // must agree with the unblocked baseline.
        let n = BLOCK_MIN + 30;
        let a = diag_dominant(n, 71);
        let det_b = lu_factor(&a).unwrap().determinant();
        let det_u = lu_factor_unblocked(&a).unwrap().determinant();
        let rel = (det_b - det_u).abs() / det_u.abs().max(1e-300);
        assert!(rel < 1e-6, "blocked {det_b} vs unblocked {det_u}");
    }

    #[test]
    fn singular_matrix_rejected() {
        let mut a = ZMat::zeros(4, 4);
        a[(0, 0)] = Complex64::ONE; // rank 1
        assert!(matches!(
            lu_factor(&a),
            Err(ref e) if matches!(e.root(), LinalgError::SingularPivot { .. })
        ));
    }

    #[test]
    fn factors_reconstruct_matrix() {
        let a = ZMat::random(8, 8, 55);
        let f = lu_factor(&a).unwrap();
        let n = 8;
        // Rebuild P·A = L·U.
        let mut l = ZMat::identity(n);
        let mut u = ZMat::zeros(n, n);
        for j in 0..n {
            for i in 0..n {
                if i > j {
                    l[(i, j)] = f.lu[(i, j)];
                } else {
                    u[(i, j)] = f.lu[(i, j)];
                }
            }
        }
        let perm = gather_of(&f.ipiv);
        let pa = {
            let mut pa = ZMat::zeros(n, n);
            for j in 0..n {
                for i in 0..n {
                    pa[(i, j)] = a[(perm[i], j)];
                }
            }
            pa
        };
        assert!((&l * &u).max_diff(&pa) < 1e-10);
    }

    #[test]
    fn blocked_factors_reconstruct_matrix() {
        let n = BLOCK_MIN + 37; // straddles several panels with remainder
        let a = ZMat::random(n, n, 56);
        let f = lu_factor(&a).unwrap();
        let mut l = ZMat::identity(n);
        let mut u = ZMat::zeros(n, n);
        for j in 0..n {
            for i in 0..n {
                if i > j {
                    l[(i, j)] = f.lu[(i, j)];
                } else {
                    u[(i, j)] = f.lu[(i, j)];
                }
            }
        }
        let perm = gather_of(&f.ipiv);
        let mut pa = ZMat::zeros(n, n);
        for j in 0..n {
            for i in 0..n {
                pa[(i, j)] = a[(perm[i], j)];
            }
        }
        let diff = (&l * &u).max_diff(&pa);
        assert!(diff < 1e-8 * n as f64, "{diff:.2e}");
    }

    #[test]
    fn solve_into_matches_solve() {
        let a = diag_dominant(20, 91);
        let b = ZMat::random(20, 5, 92);
        let f = lu_factor(&a).unwrap();
        let x_ref = f.solve(&b);
        let ws = Workspace::new();
        let mut x = ws.take(20, 5);
        f.solve_into(b.view(), &mut x);
        assert!(x.max_diff(&x_ref) == 0.0, "same code path must be bit-identical");
        // And through the one-shot pooled entry.
        let mut x2 = ws.take(20, 5);
        zgesv_into(&a, &b, &mut x2, &ws).unwrap();
        assert!(x2.max_diff(&x_ref) < 1e-9);
    }

    #[test]
    fn adjoint_solve_matches_factoring_the_adjoint() {
        // Both sides of the blocking crossover, with and without row
        // interchanges to undo (a dominant matrix pivots on its diagonal);
        // the DFT lead's order at FEAST's 8 columns runs the packed
        // off-diagonal updates.
        for (n, nrhs) in [(1usize, 5usize), (7, 5), (64, 5), (97, 5), (200, 5), (252, 8)] {
            let b = ZMat::random(n, nrhs, 300 + n as u64);
            let general = ZMat::random(n, n, 200 + n as u64);
            let dominant = diag_dominant(n, 250 + n as u64);
            for a in [&general, &dominant] {
                let f = lu_factor(a).unwrap();
                let reference = lu_factor(&a.adjoint()).unwrap().solve(&b);
                let mut x = b.clone();
                f.solve_adjoint_in_place(&mut x);
                let scale = reference.norm_max().max(1.0);
                assert!(
                    x.max_diff(&reference) < 1e-9 * scale,
                    "n = {n}: {:.2e}",
                    x.max_diff(&reference)
                );
                // And it is a solve of Aᴴ, not merely close to one.
                assert!((&a.adjoint() * &x).max_diff(&b) < 1e-9 * scale, "n = {n}");
            }
        }
    }

    #[test]
    fn ws_factor_recycles_on_error() {
        let ws = Workspace::new();
        let a = ZMat::zeros(4, 4); // singular
        assert!(lu_factor_ws(&a, &ws).is_err());
        assert_eq!(ws.pooled(), 1, "working copy returned to the pool on error");
    }

    #[test]
    fn multiple_rhs_agree_with_vector_solves() {
        let a = diag_dominant(6, 77);
        let b = ZMat::random(6, 4, 78);
        let f = lu_factor(&a).unwrap();
        let x = f.solve(&b);
        for j in 0..4 {
            let xj = f.solve_vec(b.col(j));
            for i in 0..6 {
                assert!((x[(i, j)] - xj[i]).abs() < 1e-11);
            }
        }
    }

    #[test]
    fn blocked_matches_unblocked_solution() {
        let n = BLOCK_MIN + 60;
        let a = ZMat::random(n, n, 123);
        let b = ZMat::random(n, 3, 124);
        let xb = lu_factor(&a).unwrap().solve(&b);
        let xu = lu_factor_unblocked(&a).unwrap().solve(&b);
        assert!(xb.max_diff(&xu) < 1e-6 * n as f64, "{:.2e}", xb.max_diff(&xu));
    }
}
