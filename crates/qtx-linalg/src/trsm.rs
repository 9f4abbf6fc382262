//! Triangular solves with multiple right-hand sides (`ztrsm`).
//!
//! The blocked LU factorization and its solves decompose into two
//! kernels: gemm trailing updates and triangular solves against the
//! factor panels. This module provides the latter in full BLAS generality
//! — left/right application, lower/upper storage, `N`/`T`/`H` operand
//! transform, unit/non-unit diagonal — operating **in place** on a
//! [`ZMatMut`] view so a panel of a larger matrix can be solved without
//! copying it out.
//!
//! Cache blocking follows the same recipe as the factorizations: the
//! triangle is cut into `NB × NB` diagonal blocks solved with a scalar
//! forward/backward sweep, and everything off-diagonal becomes a rank-`NB`
//! [`mod@crate::gemm`] update that runs on the dispatched packed microkernel
//! (for a left-side solve against a triangle of order ≥ 96 with at least
//! four right-hand sides, below gemm's own packing cutoff too). For a
//! left-side solve the freshly solved block rows are staged through a
//! small scratch buffer (raw `Vec`, no [`crate::zmat::ZMat`] allocation)
//! because the trailing gemm writes other rows of the same columns; the
//! right-side solve splits `B` at a column boundary instead, which is
//! aliasing-free in column-major storage and needs no staging.

use crate::complex::Complex64;
use crate::flops::{counts, flops_add};
use crate::gemm::{gemm_into_unc, gemm_packed_unc, Op};
use crate::zmat::{ZMatMut, ZMatRef};

/// Which side the triangular matrix is applied from, as in BLAS `SIDE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Solve `op(A)·X = B`.
    Left,
    /// Solve `X·op(A) = B`.
    Right,
}

/// Which triangle of `A` holds the data, as in BLAS `UPLO`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpLo {
    /// The lower triangle of `A` is referenced.
    Lower,
    /// The upper triangle of `A` is referenced.
    Upper,
}

/// Whether the triangle has an implicit unit diagonal, as in BLAS `DIAG`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Diag {
    /// Diagonal entries are implicitly one (never read) — the `L` factor.
    Unit,
    /// Diagonal entries are read and divided by — the `U` factor.
    NonUnit,
}

/// Diagonal-block edge of the blocked sweep; matches the factorization
/// panel width so factor panels and solve blocks tile identically.
const NB: usize = 32;

/// Solves `op(A)·X = B` (left) or `X·op(A) = B` (right) in place,
/// overwriting `B` with `X`. Only the `uplo` triangle of `A` is read.
pub fn trsm(side: Side, uplo: UpLo, op: Op, diag: Diag, a: ZMatRef<'_>, b: ZMatMut<'_>) {
    let nrhs = match side {
        Side::Left => b.cols(),
        Side::Right => b.rows(),
    };
    flops_add(counts::ztrsm(a.rows(), nrhs));
    trsm_unc(side, uplo, op, diag, a, b);
}

/// [`trsm`] without FLOP accounting (the factorization-internal entry; the
/// factorizations and `zgetrs`-style solves count themselves by formula).
pub(crate) fn trsm_unc(side: Side, uplo: UpLo, op: Op, diag: Diag, a: ZMatRef<'_>, b: ZMatMut<'_>) {
    assert_eq!(a.rows(), a.cols(), "trsm triangle must be square");
    match side {
        Side::Left => {
            assert_eq!(b.rows(), a.rows(), "trsm left: B row count mismatch");
            trsm_left(uplo, op, diag, a, b);
        }
        Side::Right => {
            assert_eq!(b.cols(), a.rows(), "trsm right: B column count mismatch");
            trsm_right(uplo, op, diag, a, b);
        }
    }
}

/// Element `op(A)[i, j]` read through the view.
#[inline(always)]
fn aeff(a: ZMatRef<'_>, op: Op, i: usize, j: usize) -> Complex64 {
    match op {
        Op::None => a.at(i, j),
        Op::Transpose => a.at(j, i),
        Op::Adjoint => a.at(j, i).conj(),
    }
}

/// Whether `op(A)` is effectively lower triangular (forward sweep).
#[inline]
fn effectively_lower(uplo: UpLo, op: Op) -> bool {
    (uplo == UpLo::Lower) == (op == Op::None)
}

fn trsm_left(uplo: UpLo, op: Op, diag: Diag, a: ZMatRef<'_>, mut b: ZMatMut<'_>) {
    let n = a.rows();
    let m = b.cols();
    if n == 0 || m == 0 {
        return;
    }
    let forward = effectively_lower(uplo, op);
    // Against a dense factor of blocked-LU size, with at least one RHS
    // panel of the diagonal sweep, every off-diagonal update takes the
    // packed path, below gemm's volume cutoff too: the direct loop would
    // stream a tall panel of the triangle at scalar speed for a few
    // columns. Thinner solves and smaller triangles keep the product's
    // own dispatch (`docs/linalg.md` has the rows for both sides).
    let packed = n >= crate::lu::BLOCK_MIN && m >= RHS_BLK;
    let update = if packed { gemm_packed_unc } else { gemm_into_unc };
    // Staging buffer for solved block rows (the trailing gemm reads them
    // while writing the remaining rows of the same columns of B), carved
    // from the warm per-thread scratch — fully written before it is read.
    crate::workspace::with_tri_scratch(NB.min(n) * m, |xbuf| {
        let mut done = 0;
        while done < n {
            let kb = NB.min(n - done);
            let k0 = if forward { done } else { n - done - kb };
            solve_diag_left(a, op, diag, forward, k0, kb, &mut b);
            let (r0, rows) = if forward { (k0 + kb, n - k0 - kb) } else { (0, k0) };
            if rows > 0 {
                for j in 0..m {
                    xbuf[j * kb..(j + 1) * kb].copy_from_slice(&b.col(j)[k0..k0 + kb]);
                }
                let x = ZMatRef::from_slice(&xbuf[..kb * m], kb, m, kb);
                // Off-diagonal block op(A)[r0.., k0..k0+kb], addressed
                // through the stored triangle.
                let (asub, aop) = match op {
                    Op::None => (a.sub(r0, k0, rows, kb), Op::None),
                    _ => (a.sub(k0, r0, kb, rows), op),
                };
                let c = b.rb().sub_mut(r0, 0, rows, m);
                update(-Complex64::ONE, asub, aop, x, Op::None, Complex64::ONE, c);
            }
            done += kb;
        }
    });
}

/// RHS-panel width of the scalar substitution sweeps: each pass over the
/// diagonal triangle solves this many right-hand-side columns at once,
/// loading every `A` column once per panel instead of once per column and
/// keeping four independent `mul_add` chains in flight (the ≤64-block
/// sweep is latency-bound on a single chain otherwise — this is the
/// SplitSolve s = 64 hot loop through the LU solves).
const RHS_BLK: usize = 4;

/// Scalar sweep on one diagonal block for the left-side solve: rows
/// `k0..k0+kb` of `B`, forward (effectively lower) or backward, processed
/// in [`RHS_BLK`]-column panels (remainder columns one at a time).
fn solve_diag_left(
    a: ZMatRef<'_>,
    op: Op,
    diag: Diag,
    forward: bool,
    k0: usize,
    kb: usize,
    b: &mut ZMatMut<'_>,
) {
    let m = b.cols();
    let mut j = 0;
    while j + RHS_BLK <= m {
        let cols = b.cols_mut_array::<RHS_BLK>(j);
        solve_diag_left_panel(a, op, diag, forward, k0, kb, cols);
        j += RHS_BLK;
    }
    while j < m {
        let cols = b.cols_mut_array::<1>(j);
        solve_diag_left_panel(a, op, diag, forward, k0, kb, cols);
        j += 1;
    }
}

/// One [`RHS_BLK`]-wide (or remainder-width) panel of the substitution
/// sweep. Both branches walk **columns of the stored triangle** so the
/// inner loops run over contiguous slices: `Op::None` scatters the solved
/// entries down/up their own column (classic substitution), while the
/// transposed ops gather dot products against column `gt` of the storage
/// — the `Uᴴ`/`Lᴴ` sweeps of the adjoint LU solve stay contiguous this way.
/// Every `A` element is loaded once and fed to all `K` columns' FMA
/// chains.
fn solve_diag_left_panel<const K: usize>(
    a: ZMatRef<'_>,
    op: Op,
    diag: Diag,
    forward: bool,
    k0: usize,
    kb: usize,
    mut cols: [&mut [Complex64]; K],
) {
    for t in 0..kb {
        let t = if forward { t } else { kb - 1 - t };
        let gt = k0 + t;
        let acol = a.col(gt);
        match op {
            Op::None => {
                let mut neg = [Complex64::ZERO; K];
                if diag == Diag::NonUnit {
                    let dinv = acol[gt].inv();
                    for (c, n) in cols.iter_mut().zip(neg.iter_mut()) {
                        let x = c[gt] * dinv;
                        c[gt] = x;
                        *n = -x;
                    }
                } else {
                    for (c, n) in cols.iter().zip(neg.iter_mut()) {
                        *n = -c[gt];
                    }
                }
                if neg.iter().all(|n| *n == Complex64::ZERO) {
                    continue;
                }
                let (lo, hi) = if forward { (gt + 1, k0 + kb) } else { (k0, gt) };
                for (i, &ai) in (lo..hi).zip(&acol[lo..hi]) {
                    for (c, &n) in cols.iter_mut().zip(&neg) {
                        c[i] = c[i].mul_add(ai, n);
                    }
                }
            }
            Op::Transpose | Op::Adjoint => {
                let (lo, hi) = if forward { (k0, gt) } else { (gt + 1, k0 + kb) };
                let mut s = [Complex64::ZERO; K];
                if op == Op::Adjoint {
                    for (i, &ai) in (lo..hi).zip(&acol[lo..hi]) {
                        let ac = ai.conj();
                        for (c, sq) in cols.iter().zip(s.iter_mut()) {
                            *sq = sq.mul_add(ac, c[i]);
                        }
                    }
                } else {
                    for (i, &ai) in (lo..hi).zip(&acol[lo..hi]) {
                        for (c, sq) in cols.iter().zip(s.iter_mut()) {
                            *sq = sq.mul_add(ai, c[i]);
                        }
                    }
                }
                let dinv =
                    if diag == Diag::NonUnit { aeff(a, op, gt, gt).inv() } else { Complex64::ONE };
                for (c, &sq) in cols.iter_mut().zip(&s) {
                    let mut x = c[gt] - sq;
                    if diag == Diag::NonUnit {
                        x *= dinv;
                    }
                    c[gt] = x;
                }
            }
        }
    }
}

fn trsm_right(uplo: UpLo, op: Op, diag: Diag, a: ZMatRef<'_>, mut b: ZMatMut<'_>) {
    let n = a.rows();
    let m = b.rows();
    if n == 0 || m == 0 {
        return;
    }
    // X·op(A) = B with op(A) effectively *upper* solves column blocks
    // forward (X₁·A₁₁ = B₁ first), effectively lower backward.
    let forward = !effectively_lower(uplo, op);
    let mut done = 0;
    while done < n {
        let kb = NB.min(n - done);
        let k0 = if forward { done } else { n - done - kb };
        solve_diag_right(a, op, diag, forward, k0, kb, &mut b);
        let (c0, cols) = if forward { (k0 + kb, n - k0 - kb) } else { (0, k0) };
        if cols > 0 {
            // Columns of B split aliasing-free at a column boundary: the
            // solved block columns are read, the remaining ones updated.
            let (x, c) = if forward {
                let (left, right) = b.rb().split_at_col(k0 + kb);
                (left.sub_mut(0, k0, m, kb), right)
            } else {
                let (left, right) = b.rb().split_at_col(k0);
                (right.sub_mut(0, 0, m, kb), left)
            };
            let (asub, aop) = match op {
                Op::None => (a.sub(k0, c0, kb, cols), Op::None),
                _ => (a.sub(c0, k0, cols, kb), op),
            };
            gemm_into_unc(-Complex64::ONE, x.as_ref(), Op::None, asub, aop, Complex64::ONE, c);
        }
        done += kb;
    }
}

/// Scalar sweep on one diagonal block for the right-side solve: columns
/// `k0..k0+kb` of `B`, running column AXPYs (contiguous in memory).
fn solve_diag_right(
    a: ZMatRef<'_>,
    op: Op,
    diag: Diag,
    forward: bool,
    k0: usize,
    kb: usize,
    b: &mut ZMatMut<'_>,
) {
    for t in 0..kb {
        let t = if forward { t } else { kb - 1 - t };
        let gt = k0 + t;
        let (lo, hi) = if forward { (0, t) } else { (t + 1, kb) };
        for u in lo..hi {
            let gu = k0 + u;
            let f = aeff(a, op, gu, gt);
            if f == Complex64::ZERO {
                continue;
            }
            let (cu, ct) = if gu < gt {
                b.two_cols_mut(gu, gt)
            } else {
                let (ct, cu) = b.two_cols_mut(gt, gu);
                (cu, ct)
            };
            for (x, y) in ct.iter_mut().zip(cu.iter()) {
                *x -= *y * f;
            }
        }
        if diag == Diag::NonUnit {
            let inv = aeff(a, op, gt, gt).inv();
            for x in b.col_mut(gt).iter_mut() {
                *x *= inv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;
    use crate::gemm::matmul;
    use crate::zmat::ZMat;

    /// Well-conditioned triangle: random strict part, heavy diagonal.
    fn triangle(n: usize, uplo: UpLo, seed: u64) -> ZMat {
        let r = ZMat::random(n, n, seed);
        let mut t = ZMat::zeros(n, n);
        for j in 0..n {
            for i in 0..n {
                let keep = match uplo {
                    UpLo::Lower => i > j,
                    UpLo::Upper => i < j,
                };
                if keep {
                    t[(i, j)] = r[(i, j)].scale(0.5);
                }
            }
            t[(j, j)] = r[(j, j)] + c64(2.0 + n as f64 * 0.05, 0.3);
        }
        t
    }

    fn materialize(a: &ZMat, op: Op) -> ZMat {
        match op {
            Op::None => a.clone(),
            Op::Transpose => a.transpose(),
            Op::Adjoint => a.adjoint(),
        }
    }

    /// Reference check `op(A)·X = B` (left) or `X·op(A) = B` (right).
    fn check(side: Side, uplo: UpLo, op: Op, diag: Diag, n: usize, m: usize, seed: u64) {
        let mut a = triangle(n, uplo, seed);
        if diag == Diag::Unit {
            for i in 0..n {
                a[(i, i)] = c64(7.5, -2.0); // must never be read
            }
        }
        let b0 = match side {
            Side::Left => ZMat::random(n, m, seed + 1),
            Side::Right => ZMat::random(m, n, seed + 1),
        };
        let mut x = b0.clone();
        trsm(side, uplo, op, diag, a.view(), x.view_mut());
        // Rebuild B from X with a clean materialized triangle.
        let mut eff = a.clone();
        for j in 0..n {
            for i in 0..n {
                let stored = match uplo {
                    UpLo::Lower => i >= j,
                    UpLo::Upper => i <= j,
                };
                if !stored {
                    eff[(i, j)] = Complex64::ZERO;
                }
            }
        }
        if diag == Diag::Unit {
            for i in 0..n {
                eff[(i, i)] = Complex64::ONE;
            }
        }
        let eff = materialize(&eff, op);
        let rebuilt = match side {
            Side::Left => matmul(&eff, &x),
            Side::Right => matmul(&x, &eff),
        };
        let scale = b0.norm_max().max(1.0) * n as f64;
        assert!(
            rebuilt.max_diff(&b0) < 1e-10 * scale,
            "side {side:?} uplo {uplo:?} op {op:?} diag {diag:?} n {n}: {:.2e}",
            rebuilt.max_diff(&b0)
        );
    }

    #[test]
    fn all_variants_small() {
        for side in [Side::Left, Side::Right] {
            for uplo in [UpLo::Lower, UpLo::Upper] {
                for op in [Op::None, Op::Transpose, Op::Adjoint] {
                    for diag in [Diag::Unit, Diag::NonUnit] {
                        check(side, uplo, op, diag, 13, 5, 42);
                    }
                }
            }
        }
    }

    #[test]
    fn all_variants_blocked_path() {
        // n > NB exercises the block loop + gemm trailing updates,
        // deliberately not a multiple of the block edge.
        for side in [Side::Left, Side::Right] {
            for uplo in [UpLo::Lower, UpLo::Upper] {
                for op in [Op::None, Op::Adjoint] {
                    for diag in [Diag::Unit, Diag::NonUnit] {
                        check(side, uplo, op, diag, 150, 9, 77);
                    }
                }
            }
        }
    }

    #[test]
    fn strided_views_across_the_packed_update_boundary() {
        // Triangles of order 90–97 and the DFT lead's 252, at 1–16
        // right-hand sides: either side of `lu::BLOCK_MIN` and of the
        // four-column cutoff. Both operands are views into larger matrices
        // whose other entries — and the triangle's unstored half — are
        // garbage that must be neither read nor written.
        for n in [90usize, 95, 96, 97, 252] {
            for m in [1usize, 3, 8, 16] {
                for side in [Side::Left, Side::Right] {
                    for uplo in [UpLo::Lower, UpLo::Upper] {
                        for op in [Op::None, Op::Transpose, Op::Adjoint] {
                            for diag in [Diag::Unit, Diag::NonUnit] {
                                check_strided(side, uplo, op, diag, n, m, (n * 31 + m) as u64);
                            }
                        }
                    }
                }
            }
        }
    }

    /// [`check`] on views: `A` at (3, 2) of a larger host, `B` at (2, 1) of
    /// another; the result is held against the same materialized
    /// reference, and everything outside `B`'s view must be untouched.
    fn check_strided(side: Side, uplo: UpLo, op: Op, diag: Diag, n: usize, m: usize, seed: u64) {
        // A unit triangle with O(1) entries is exponentially ill-conditioned
        // at n = 252: shrink the strict part by √n so the residual measures
        // the solve, not the conditioning.
        let shrink = 1.0 / (n as f64).sqrt();
        let mut a = triangle(n, uplo, seed);
        for j in 0..n {
            for i in 0..n {
                if i == j {
                    if diag == Diag::Unit {
                        a[(i, i)] = c64(7.5, -2.0);
                    }
                } else {
                    a[(i, j)] = a[(i, j)].scale(shrink);
                }
            }
        }
        let mut host_a = ZMat::random(n + 7, n + 5, seed + 2);
        let junk = ZMat::random(n, n, seed + 3);
        for j in 0..n {
            for i in 0..n {
                let stored = match uplo {
                    UpLo::Lower => i >= j,
                    UpLo::Upper => i <= j,
                };
                host_a[(3 + i, 2 + j)] = if stored { a[(i, j)] } else { junk[(i, j)] };
            }
        }
        let (rows, cols) = match side {
            Side::Left => (n, m),
            Side::Right => (m, n),
        };
        let b0 = ZMat::random(rows, cols, seed + 1);
        let mut host_b = ZMat::random(rows + 5, cols + 4, seed + 4);
        host_b.set_block(2, 1, &b0);
        let before = host_b.clone();
        trsm(
            side,
            uplo,
            op,
            diag,
            host_a.block_view(3, 2, n, n),
            host_b.block_view_mut(2, 1, rows, cols),
        );
        for j in 0..cols + 4 {
            for i in 0..rows + 5 {
                if !((2..2 + rows).contains(&i) && (1..1 + cols).contains(&j)) {
                    assert_eq!(host_b[(i, j)], before[(i, j)], "({i},{j}) clobbered");
                }
            }
        }
        let x = host_b.block(2, 1, rows, cols);
        let mut eff = a.clone();
        for j in 0..n {
            for i in 0..n {
                let stored = match uplo {
                    UpLo::Lower => i >= j,
                    UpLo::Upper => i <= j,
                };
                if !stored {
                    eff[(i, j)] = Complex64::ZERO;
                } else if i == j && diag == Diag::Unit {
                    eff[(i, j)] = Complex64::ONE;
                }
            }
        }
        let eff = materialize(&eff, op);
        let rebuilt = match side {
            Side::Left => matmul(&eff, &x),
            Side::Right => matmul(&x, &eff),
        };
        let scale = b0.norm_max().max(1.0) * n as f64;
        assert!(
            rebuilt.max_diff(&b0) < 1e-10 * scale,
            "side {side:?} uplo {uplo:?} op {op:?} diag {diag:?} n {n} m {m}: {:.2e}",
            rebuilt.max_diff(&b0)
        );
    }

    #[test]
    fn solves_in_place_on_a_sub_block() {
        // The factorization use-case: solve only a panel of a larger
        // matrix through a block_view_mut.
        let a = triangle(6, UpLo::Lower, 5);
        let mut big = ZMat::random(10, 8, 6);
        let before = big.clone();
        let x_ref = {
            let mut x = big.block(2, 1, 6, 4);
            trsm(Side::Left, UpLo::Lower, Op::None, Diag::NonUnit, a.view(), x.view_mut());
            x
        };
        trsm(
            Side::Left,
            UpLo::Lower,
            Op::None,
            Diag::NonUnit,
            a.view(),
            big.block_view_mut(2, 1, 6, 4),
        );
        assert!(big.block(2, 1, 6, 4).max_diff(&x_ref) == 0.0, "panel solve differs");
        // Everything outside the panel is untouched.
        for j in 0..8 {
            for i in 0..10 {
                if (2..8).contains(&i) && (1..5).contains(&j) {
                    continue;
                }
                assert_eq!(big[(i, j)], before[(i, j)], "({i},{j}) clobbered");
            }
        }
    }

    #[test]
    fn counts_flops() {
        let a = triangle(20, UpLo::Upper, 9);
        let mut b = ZMat::random(20, 3, 10);
        let scope = crate::flops::FlopScope::start();
        trsm(Side::Left, UpLo::Upper, Op::None, Diag::NonUnit, a.view(), b.view_mut());
        assert!(scope.elapsed() >= counts::ztrsm(20, 3));
    }
}
