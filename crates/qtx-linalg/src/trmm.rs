//! Triangular matrix multiply (`ztrmm`), completing the BLAS-3 triangle
//! set next to [`crate::trsm`] and [`crate::herk`].
//!
//! The compact-WY machinery multiplies by small upper-triangular `T`
//! factors constantly — the blocked QR's `W ← op(T)·W` transform, the
//! Hessenberg reduction's `Y = (A·V)·T` and `Q`-accumulation products —
//! and until now paid full square-gemm flops for a matrix whose lower half
//! is zeros. `ztrmm` computes `B ← α·op(A)·B` (left) or `B ← α·B·op(A)`
//! (right) **in place** over a [`ZMatMut`] view, reading only the `uplo`
//! triangle of `A`, at half the operations of the gemm it replaces (and
//! without the second staging buffer the out-of-place product needed).
//!
//! Cache blocking mirrors [`crate::trsm`]: the triangle is cut into
//! `NB × NB` diagonal blocks, and everything off-diagonal becomes one
//! rank-`NB` [`crate::gemm`] update on the dispatched packed microkernel
//! ([`crate::kernel`]) — the exact half-of-gemm saving, realized at full
//! packed-kernel speed.
//! The diagonal blocks themselves dispatch on the panel width: against a
//! wide `B` they are **staged dense** (the stored triangle copied into a
//! small zeroed scratch, unit diagonal materialized) and multiplied
//! through the packed gemm too — a scalar triangular sweep runs at a
//! fraction of the packed kernel's throughput on this AoS complex layout,
//! so burning the NB²/2 zero-half flops at ~4× the flop rate wins well
//! before `NB` columns — while skinny panels (fewer than [`SMALL_RHS`]
//! columns, where packing can't amortize) take an RHS-register-blocked
//! scalar sweep sharing each loaded `A` element across four columns.
//! Processing order makes the in-place update safe: an effectively-lower
//! left multiply walks diagonal blocks bottom-up so the rows a block
//! reads (above it) are still unmodified, with each block's full
//! contribution staged through a small raw-`Vec` scratch (no
//! [`crate::zmat::ZMat`] allocation); the right side splits `B` at a
//! column boundary instead, which is aliasing-free in column-major
//! storage.

use crate::complex::Complex64;
use crate::flops::{counts, flops_add};
use crate::gemm::{gemm_into_unc, Op};
use crate::trsm::{aeff, effectively_lower, Diag, Side, UpLo};
use crate::zmat::{ZMatMut, ZMatRef};

/// Diagonal-block edge of the blocked sweep. 64 keeps the staged diagonal
/// gemms and the off-diagonal rank-`NB` updates above the packed-path
/// thresholds even against narrow (64-column) panels, and still covers
/// the 48-wide compact-WY `T` transforms with a single staged block.
const NB: usize = 64;

/// RHS-panel width of the scalar-sweep fallback (see the same constant
/// in [`crate::trsm`]): four independent accumulation chains per loaded
/// `A` element.
const RHS_BLK: usize = 4;

/// Panels narrower than this take the scalar sweep for the diagonal
/// blocks: below it the staged-dense path's cleanup copy and packing
/// setup cost more than the packed kernel saves.
const SMALL_RHS: usize = 8;

/// Copies the `uplo` triangle of the `kb×kb` diagonal block at `k0` into
/// the (pre-sized) scratch as a clean dense block — zeros in the other
/// half, explicit unit diagonal for `Diag::Unit` — so the packed gemm can
/// consume it without ever reading the unreferenced triangle.
fn stage_clean_diag(
    a: ZMatRef<'_>,
    uplo: UpLo,
    diag: Diag,
    k0: usize,
    kb: usize,
    dbuf: &mut [Complex64],
) {
    dbuf[..kb * kb].fill(Complex64::ZERO);
    for t in 0..kb {
        let src = a.col(k0 + t);
        let dst = &mut dbuf[t * kb..(t + 1) * kb];
        match uplo {
            UpLo::Lower => dst[t..kb].copy_from_slice(&src[k0 + t..k0 + kb]),
            UpLo::Upper => dst[..t + 1].copy_from_slice(&src[k0..k0 + t + 1]),
        }
        if diag == Diag::Unit {
            dst[t] = Complex64::ONE;
        }
    }
}

/// `B ← α·op(A)·B` (left) or `B ← α·B·op(A)` (right) in place. Only the
/// `uplo` triangle of `A` is read; `Diag::Unit` never reads the diagonal.
pub fn ztrmm(
    side: Side,
    uplo: UpLo,
    op: Op,
    diag: Diag,
    alpha: Complex64,
    a: ZMatRef<'_>,
    b: ZMatMut<'_>,
) {
    let nrhs = match side {
        Side::Left => b.cols(),
        Side::Right => b.rows(),
    };
    flops_add(counts::ztrmm(a.rows(), nrhs));
    trmm_unc(side, uplo, op, diag, alpha, a, b);
}

/// [`ztrmm`] without FLOP accounting — the entry the compact-WY kernels
/// in [`crate::qr`]/[`crate::eig`] call so their `zgeqrf`/`zgehrd`
/// formula counts aren't inflated by internal kernel traffic.
pub(crate) fn trmm_unc(
    side: Side,
    uplo: UpLo,
    op: Op,
    diag: Diag,
    alpha: Complex64,
    a: ZMatRef<'_>,
    mut b: ZMatMut<'_>,
) {
    assert_eq!(a.rows(), a.cols(), "trmm triangle must be square");
    if alpha == Complex64::ZERO {
        for j in 0..b.cols() {
            b.col_mut(j).fill(Complex64::ZERO);
        }
        return;
    }
    match side {
        Side::Left => {
            assert_eq!(b.rows(), a.rows(), "trmm left: B row count mismatch");
            trmm_left(uplo, op, diag, alpha, a, b);
        }
        Side::Right => {
            assert_eq!(b.cols(), a.rows(), "trmm right: B column count mismatch");
            trmm_right(uplo, op, diag, alpha, a, b);
        }
    }
}

fn trmm_left(uplo: UpLo, op: Op, diag: Diag, alpha: Complex64, a: ZMatRef<'_>, mut b: ZMatMut<'_>) {
    let n = a.rows();
    let m = b.cols();
    if n == 0 || m == 0 {
        return;
    }
    let lower = effectively_lower(uplo, op);
    let staged = m >= SMALL_RHS;
    let nb = NB.min(n);
    // Staging for the block's contribution (the gemms read rows of B that
    // the block result overwrites) plus the cleaned diagonal block, both
    // carved from the warm per-thread scratch — every element is written
    // before it is read.
    crate::workspace::with_tri_scratch(nb * m + if staged { nb * nb } else { 0 }, |scratch| {
        let (wbuf, dbuf) = scratch.split_at_mut(nb * m);
        trmm_left_body(uplo, op, diag, alpha, a, &mut b, lower, staged, wbuf, dbuf);
    });
}

#[allow(clippy::too_many_arguments)]
fn trmm_left_body(
    uplo: UpLo,
    op: Op,
    diag: Diag,
    alpha: Complex64,
    a: ZMatRef<'_>,
    b: &mut ZMatMut<'_>,
    lower: bool,
    staged: bool,
    wbuf: &mut [Complex64],
    dbuf: &mut [Complex64],
) {
    let n = a.rows();
    let m = b.cols();
    // Effectively-lower multiplies bottom-up (each block reads only rows
    // above itself, still old); effectively-upper top-down.
    let mut done = 0;
    while done < n {
        let kb = NB.min(n - done);
        let k0 = if lower { n - done - kb } else { done };
        let (r0, rows) = if lower { (0, k0) } else { (k0 + kb, n - k0 - kb) };
        if rows > 0 {
            // w = op(A)[k0..k0+kb, r0..r0+rows] · B[r0.., :], addressed
            // through the stored triangle.
            let (asub, aop) = match op {
                Op::None => (a.sub(k0, r0, kb, rows), Op::None),
                _ => (a.sub(r0, k0, rows, kb), op),
            };
            let bother = b.as_ref().sub(r0, 0, rows, m);
            let w = ZMatMut::from_slice(&mut wbuf[..kb * m], kb, m, kb);
            gemm_into_unc(Complex64::ONE, asub, aop, bother, Op::None, Complex64::ZERO, w);
        }
        if staged {
            // Wide panel: the diagonal triangle goes through the packed
            // gemm as a cleaned dense block, accumulating onto the staged
            // off-diagonal part; the block result is then α·w in one copy.
            stage_clean_diag(a, uplo, diag, k0, kb, dbuf);
            let dclean = ZMatRef::from_slice(&dbuf[..kb * kb], kb, kb, kb);
            let beta = if rows > 0 { Complex64::ONE } else { Complex64::ZERO };
            let bblock = b.as_ref().sub(k0, 0, kb, m);
            let w = ZMatMut::from_slice(&mut wbuf[..kb * m], kb, m, kb);
            gemm_into_unc(Complex64::ONE, dclean, op, bblock, Op::None, beta, w);
            for j in 0..m {
                let bcol = &mut b.col_mut(j)[k0..k0 + kb];
                for (x, &w) in bcol.iter_mut().zip(&wbuf[j * kb..(j + 1) * kb]) {
                    *x = w * alpha;
                }
            }
        } else {
            mult_diag_left(a, op, diag, lower, k0, kb, b);
            // B[block] = α·(diag result + staged off-diagonal part).
            for j in 0..m {
                let bcol = &mut b.col_mut(j)[k0..k0 + kb];
                if rows > 0 {
                    for (x, &w) in bcol.iter_mut().zip(&wbuf[j * kb..(j + 1) * kb]) {
                        *x += w;
                    }
                }
                if alpha != Complex64::ONE {
                    for x in bcol.iter_mut() {
                        *x *= alpha;
                    }
                }
            }
        }
        done += kb;
    }
}

/// In-place triangular multiply of one diagonal block against rows
/// `k0..k0+kb` of `B`, in [`RHS_BLK`]-column panels.
fn mult_diag_left(
    a: ZMatRef<'_>,
    op: Op,
    diag: Diag,
    lower: bool,
    k0: usize,
    kb: usize,
    b: &mut ZMatMut<'_>,
) {
    let m = b.cols();
    let mut j = 0;
    while j + RHS_BLK <= m {
        let cols = b.cols_mut_array::<RHS_BLK>(j);
        mult_diag_left_panel(a, op, diag, lower, k0, kb, cols);
        j += RHS_BLK;
    }
    while j < m {
        let cols = b.cols_mut_array::<1>(j);
        mult_diag_left_panel(a, op, diag, lower, k0, kb, cols);
        j += 1;
    }
}

/// One RHS panel of the diagonal-block multiply. Like the trsm sweep,
/// both branches walk **columns of the stored triangle**: `Op::None`
/// scatters `x[t]`'s contribution along its own (contiguous) column,
/// processed in an order that keeps every value it reads unmodified —
/// bottom-up for effectively-lower (row `t` reads rows above), top-down
/// for effectively-upper — while the transposed ops gather a contiguous
/// dot product against column `gt` of the storage.
fn mult_diag_left_panel<const K: usize>(
    a: ZMatRef<'_>,
    op: Op,
    diag: Diag,
    lower: bool,
    k0: usize,
    kb: usize,
    mut cols: [&mut [Complex64]; K],
) {
    for t in 0..kb {
        // Scatter order: lower walks its columns bottom-up (so row gt is
        // still old when used), upper top-down; the gather (transposed)
        // branches use the same order, which leaves their sources old.
        let t = if lower { kb - 1 - t } else { t };
        let gt = k0 + t;
        let acol = a.col(gt);
        match op {
            Op::None => {
                // x_old[gt] scatters down (lower) or up (upper) its own
                // column; gt's final value is d·x_old[gt], with later
                // steps adding the off-row contributions.
                let d = if diag == Diag::NonUnit { acol[gt] } else { Complex64::ONE };
                let mut x = [Complex64::ZERO; K];
                for (c, xq) in cols.iter_mut().zip(x.iter_mut()) {
                    *xq = c[gt];
                    c[gt] = *xq * d;
                }
                let (lo, hi) = if lower { (gt + 1, k0 + kb) } else { (k0, gt) };
                for (i, &ai) in (lo..hi).zip(&acol[lo..hi]) {
                    for (c, &xq) in cols.iter_mut().zip(&x) {
                        c[i] = c[i].mul_add(ai, xq);
                    }
                }
            }
            Op::Transpose | Op::Adjoint => {
                // result[gt] = d·x_old[gt] + Σ op(A)[gt, u]·x_old[u], the
                // sum gathered from the contiguous stored column gt.
                let (lo, hi) = if lower { (k0, gt) } else { (gt + 1, k0 + kb) };
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
                let d = if diag == Diag::NonUnit { aeff(a, op, gt, gt) } else { Complex64::ONE };
                for (c, &sq) in cols.iter_mut().zip(&s) {
                    c[gt] = sq.mul_add(c[gt], d);
                }
            }
        }
    }
}

fn trmm_right(
    uplo: UpLo,
    op: Op,
    diag: Diag,
    alpha: Complex64,
    a: ZMatRef<'_>,
    mut b: ZMatMut<'_>,
) {
    let n = a.rows();
    let m = b.rows();
    if n == 0 || m == 0 {
        return;
    }
    let lower = effectively_lower(uplo, op);
    let staged = m >= SMALL_RHS;
    let nb = NB.min(n);
    let need = if staged { m * nb + nb * nb } else { 0 };
    crate::workspace::with_tri_scratch(need, |scratch| {
        let (wbuf, dbuf) = scratch.split_at_mut(if staged { m * nb } else { 0 });
        trmm_right_body(uplo, op, diag, alpha, a, &mut b, lower, staged, wbuf, dbuf);
    });
}

#[allow(clippy::too_many_arguments)]
fn trmm_right_body(
    uplo: UpLo,
    op: Op,
    diag: Diag,
    alpha: Complex64,
    a: ZMatRef<'_>,
    b: &mut ZMatMut<'_>,
    lower: bool,
    staged: bool,
    wbuf: &mut [Complex64],
    dbuf: &mut [Complex64],
) {
    let n = a.rows();
    let m = b.rows();
    // B·op(A) with op(A) effectively lower: column j sums columns u ≥ j,
    // so blocks process left-to-right (sources to the right stay old);
    // effectively upper right-to-left.
    let mut done = 0;
    while done < n {
        let kb = NB.min(n - done);
        let k0 = if lower { done } else { n - done - kb };
        if staged {
            // Wide side: B[:, block]·op(tri) through the packed gemm on a
            // cleaned dense diagonal block, staged because the product
            // overwrites its own input columns.
            stage_clean_diag(a, uplo, diag, k0, kb, dbuf);
            let dclean = ZMatRef::from_slice(&dbuf[..kb * kb], kb, kb, kb);
            let bblock = b.as_ref().sub(0, k0, m, kb);
            let w = ZMatMut::from_slice(&mut wbuf[..m * kb], m, kb, m);
            gemm_into_unc(Complex64::ONE, bblock, Op::None, dclean, op, Complex64::ZERO, w);
            for (t, wcol) in wbuf[..m * kb].chunks_exact(m).enumerate() {
                b.col_mut(k0 + t).copy_from_slice(wcol);
            }
        } else {
            mult_diag_right(a, op, diag, lower, k0, kb, b);
        }
        let (c0, cols) = if lower { (k0 + kb, n - k0 - kb) } else { (0, k0) };
        if cols > 0 {
            // Aliasing-free column split: the block columns accumulate a
            // gemm against the (still old) other columns.
            let (x, c) = if lower {
                let (left, right) = b.rb().split_at_col(k0 + kb);
                (right, left.sub_mut(0, k0, m, kb))
            } else {
                let (left, right) = b.rb().split_at_col(k0);
                (left, right.sub_mut(0, 0, m, kb))
            };
            let (asub, aop) = match op {
                Op::None => (a.sub(c0, k0, cols, kb), Op::None),
                _ => (a.sub(k0, c0, kb, cols), op),
            };
            gemm_into_unc(Complex64::ONE, x.as_ref(), Op::None, asub, aop, Complex64::ONE, c);
        }
        if alpha != Complex64::ONE {
            for j in k0..k0 + kb {
                for x in b.col_mut(j).iter_mut() {
                    *x *= alpha;
                }
            }
        }
        done += kb;
    }
}

/// In-place diagonal-block multiply for the right side: columns
/// `k0..k0+kb` of `B`, running contiguous column AXPYs (the coefficient
/// is one strided [`aeff`] fetch per column pair). Column `gt` finalizes
/// as `d·col_old[gt] + Σ col_old[u]·op(A)[u, gt]`; the processing order
/// (left-to-right for effectively-lower, right-to-left for upper) keeps
/// every source column old when it is read.
fn mult_diag_right(
    a: ZMatRef<'_>,
    op: Op,
    diag: Diag,
    lower: bool,
    k0: usize,
    kb: usize,
    b: &mut ZMatMut<'_>,
) {
    for t in 0..kb {
        let t = if lower { t } else { kb - 1 - t };
        let gt = k0 + t;
        if diag == Diag::NonUnit {
            let d = aeff(a, op, gt, gt);
            for x in b.col_mut(gt).iter_mut() {
                *x *= d;
            }
        }
        let (lo, hi) = if lower { (t + 1, kb) } else { (0, t) };
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
            for (x, &y) in ct.iter_mut().zip(cu.iter()) {
                *x = x.mul_add(f, y);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;
    use crate::gemm::gemm;
    use crate::zmat::ZMat;

    /// Random triangle with garbage in the *other* triangle (and on the
    /// diagonal for `Diag::Unit`): trmm must never read either.
    fn triangle_with_garbage(n: usize, uplo: UpLo, diag: Diag, seed: u64) -> ZMat {
        let mut t = ZMat::random(n, n, seed);
        for j in 0..n {
            for i in 0..n {
                let stored = match uplo {
                    UpLo::Lower => i > j,
                    UpLo::Upper => i < j,
                };
                if !stored && i != j {
                    t[(i, j)] = c64(1e30, -1e30); // poison
                }
            }
            if diag == Diag::Unit {
                t[(j, j)] = c64(-7.5e20, 3.0e20); // poison: must never be read
            }
        }
        t
    }

    /// Materialized effective operand `op(tri(A))` for the gemm reference.
    fn effective(a: &ZMat, uplo: UpLo, op: Op, diag: Diag) -> ZMat {
        let n = a.rows();
        let mut eff = ZMat::zeros(n, n);
        for j in 0..n {
            for i in 0..n {
                let stored = match uplo {
                    UpLo::Lower => i >= j,
                    UpLo::Upper => i <= j,
                };
                if stored {
                    eff[(i, j)] = a[(i, j)];
                }
            }
        }
        if diag == Diag::Unit {
            for i in 0..n {
                eff[(i, i)] = Complex64::ONE;
            }
        }
        match op {
            Op::None => eff,
            Op::Transpose => eff.transpose(),
            Op::Adjoint => eff.adjoint(),
        }
    }

    fn check(side: Side, uplo: UpLo, op: Op, diag: Diag, n: usize, m: usize, seed: u64) {
        let a = triangle_with_garbage(n, uplo, diag, seed);
        let b0 = match side {
            Side::Left => ZMat::random(n, m, seed + 1),
            Side::Right => ZMat::random(m, n, seed + 1),
        };
        let alpha = c64(0.8, -0.3);
        let mut b = b0.clone();
        ztrmm(side, uplo, op, diag, alpha, a.view(), b.view_mut());
        let eff = effective(&a, uplo, op, diag);
        let mut expected = match side {
            Side::Left => ZMat::zeros(n, m),
            Side::Right => ZMat::zeros(m, n),
        };
        match side {
            Side::Left => {
                gemm(alpha, &eff, Op::None, &b0, Op::None, Complex64::ZERO, &mut expected)
            }
            Side::Right => {
                gemm(alpha, &b0, Op::None, &eff, Op::None, Complex64::ZERO, &mut expected)
            }
        }
        let scale = expected.norm_max().max(1.0);
        assert!(
            b.max_diff(&expected) < 1e-10 * scale * n as f64,
            "side {side:?} uplo {uplo:?} op {op:?} diag {diag:?} n {n}: {:.2e}",
            b.max_diff(&expected)
        );
    }

    #[test]
    fn all_variants_small() {
        for side in [Side::Left, Side::Right] {
            for uplo in [UpLo::Lower, UpLo::Upper] {
                for op in [Op::None, Op::Transpose, Op::Adjoint] {
                    for diag in [Diag::Unit, Diag::NonUnit] {
                        check(side, uplo, op, diag, 13, 5, 42);
                        check(side, uplo, op, diag, 1, 1, 43);
                    }
                }
            }
        }
    }

    #[test]
    fn all_variants_blocked_path() {
        // n > NB exercises the block loop + off-diagonal gemm updates,
        // deliberately not a multiple of the block edge; m straddles the
        // RHS panel width (4·2 + 1 remainder).
        for side in [Side::Left, Side::Right] {
            for uplo in [UpLo::Lower, UpLo::Upper] {
                for op in [Op::None, Op::Transpose, Op::Adjoint] {
                    for diag in [Diag::Unit, Diag::NonUnit] {
                        // m = 9 takes the staged-dense diagonal path,
                        // m = 5 the RHS-blocked scalar fallback (panel + 1).
                        check(side, uplo, op, diag, 150, 9, 77);
                        check(side, uplo, op, diag, 150, 5, 78);
                    }
                }
            }
        }
    }

    #[test]
    fn multiplies_in_place_on_a_sub_block() {
        // The compact-WY use-case: multiply only a panel of a larger
        // matrix through a block_view_mut.
        let a = triangle_with_garbage(6, UpLo::Upper, Diag::NonUnit, 5);
        let mut big = ZMat::random(10, 8, 6);
        let before = big.clone();
        let x_ref = {
            let mut x = big.block(2, 1, 6, 4);
            ztrmm(
                Side::Left,
                UpLo::Upper,
                Op::None,
                Diag::NonUnit,
                Complex64::ONE,
                a.view(),
                x.view_mut(),
            );
            x
        };
        ztrmm(
            Side::Left,
            UpLo::Upper,
            Op::None,
            Diag::NonUnit,
            Complex64::ONE,
            a.view(),
            big.block_view_mut(2, 1, 6, 4),
        );
        assert!(big.block(2, 1, 6, 4).max_diff(&x_ref) == 0.0, "panel product differs");
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
    fn alpha_zero_clears_output() {
        let a = triangle_with_garbage(7, UpLo::Lower, Diag::NonUnit, 9);
        let mut b = ZMat::random(7, 3, 10);
        ztrmm(
            Side::Left,
            UpLo::Lower,
            Op::None,
            Diag::NonUnit,
            Complex64::ZERO,
            a.view(),
            b.view_mut(),
        );
        assert!(b.as_slice().iter().all(|z| *z == Complex64::ZERO));
    }

    #[test]
    fn allocation_free() {
        use crate::zmat::alloc_count;
        // In-place over a borrowed view: trmm must not allocate a single
        // ZMat (the off-diagonal staging uses a raw Vec, like trsm).
        let a = triangle_with_garbage(96, UpLo::Lower, Diag::NonUnit, 11);
        let mut b = ZMat::random(96, 12, 12);
        let mut br = ZMat::random(12, 96, 13);
        let before = alloc_count();
        ztrmm(
            Side::Left,
            UpLo::Lower,
            Op::None,
            Diag::NonUnit,
            Complex64::ONE,
            a.view(),
            b.view_mut(),
        );
        ztrmm(
            Side::Right,
            UpLo::Lower,
            Op::Adjoint,
            Diag::Unit,
            Complex64::ONE,
            a.view(),
            br.view_mut(),
        );
        assert_eq!(alloc_count(), before, "ztrmm allocated a ZMat");
    }

    #[test]
    fn counts_half_the_gemm_flops() {
        let a = triangle_with_garbage(20, UpLo::Upper, Diag::NonUnit, 13);
        let mut b = ZMat::random(20, 6, 14);
        let scope = crate::flops::FlopScope::start();
        ztrmm(
            Side::Left,
            UpLo::Upper,
            Op::None,
            Diag::NonUnit,
            Complex64::ONE,
            a.view(),
            b.view_mut(),
        );
        assert!(scope.elapsed() >= counts::ztrmm(20, 6));
        assert!(counts::ztrmm(20, 6) * 2 == counts::zgemm(20, 6, 20));
    }
}
