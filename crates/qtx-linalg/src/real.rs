//! Real dense blocks (`f64`) and the kernels a real pencil's interior
//! solve runs on them.
//!
//! At `kz = 0` and a real energy `E·S − H` has no imaginary part, and
//! every pivot of an elimination that leaves Σ to the last step is a
//! Schur complement of real blocks. Such a block is a [`DMat`]: half the
//! bytes of a [`ZMat`](crate::ZMat), a quarter of the flops to factor. The kernels are
//! the complex ones' shapes on one plane:
//!
//! * [`dgemm`] (real × real) and [`dzgemm`] (real × complex) — the direct
//!   loop below gemm's packing break-even, above it the same packed tile
//!   loop as `zgemm` with the real operands flagged
//!   ([`crate::kernel`]: only their re plane is packed, the tile skips the
//!   FMA chains that would read the other);
//! * [`dtrsm`] — the left-side, untransposed triangular solves the LU
//!   needs: `NB`-row diagonal blocks by substitution, everything else a
//!   [`dgemm`] update;
//! * [`dgetrf`] / [`DLu::solve_in_place`] — partial-pivoting LU, the
//!   unblocked rank-1 loop below `BLOCK_MIN` and the recursive blocked
//!   factorization of [`crate::lu`] above it.
//!
//! Every kernel counts its flops by formula (`counts::dgemm`,
//! `counts::dzgemm`, `counts::dtrsm`, `counts::dgetrf`, `counts::dgetrs`);
//! `docs/linalg.md` has the rows that keep each one.

use crate::complex::{c64, Complex64};
use crate::flops::{counts, flops_add};
use crate::gemm::{gemm_tiled, packs, Out};
use crate::kernel::active_kernel;
use crate::lu::BLOCK_MIN;
use crate::trsm::{Diag, UpLo};
use crate::workspace::Workspace;
use crate::zmat::{ZMatMut, ZMatRef};
use crate::{LinalgError, Result};
use std::cell::RefCell;
use std::ops::{Index, IndexMut};

/// Breakdown threshold, as [`crate::lu`]'s.
const PIVOT_TOL: f64 = 1e-300;
/// Panel width of the blocked factorization and diagonal-block edge of
/// the triangular solves, as [`crate::lu`]'s and [`crate::trsm`]'s.
const NB: usize = 32;
/// Flat-then-recursive split of the blocked factorization, as
/// [`crate::lu`]'s.
const STRIP: usize = 128;

/// Column-major dense real matrix.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DMat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DMat {
    /// The `rows × cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DMat { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// A `rows × cols` matrix on a spent buffer; contents unspecified.
    pub fn from_recycled_buffer(rows: usize, cols: usize, mut data: Vec<f64>) -> Self {
        data.resize(rows * cols, 0.0);
        DMat { rows, cols, data }
    }

    /// The real parts of `z`.
    pub fn re_of(z: ZMatRef<'_>) -> Self {
        let mut out = DMat::zeros(z.rows(), z.cols());
        out.set_re_of(z);
        out
    }

    /// Overwrites `self` (re-dimensioned to the shape of `z`) with the real
    /// parts of `z`.
    pub fn set_re_of(&mut self, z: ZMatRef<'_>) {
        self.reshape(z.rows(), z.cols());
        for j in 0..z.cols() {
            for (d, s) in self.col_mut(j).iter_mut().zip(z.col(j)) {
                *d = s.re;
            }
        }
    }

    /// Re-dimensions in place; contents unspecified.
    pub fn reshape(&mut self, rows: usize, cols: usize) {
        self.data.resize(rows * cols, 0.0);
        (self.rows, self.cols) = (rows, cols);
    }

    /// The backing buffer (for a pool).
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Number of rows.
    #[inline(always)]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline(always)]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Column-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable column-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Column `j`.
    #[inline(always)]
    pub fn col(&self, j: usize) -> &[f64] {
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Mutable column `j`.
    #[inline(always)]
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        &mut self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// The whole matrix as a view.
    pub fn view(&self) -> DMatRef<'_> {
        DMatRef::from_slice(&self.data, self.rows, self.cols, self.rows.max(1))
    }

    /// The whole matrix as a mutable view.
    pub fn view_mut(&mut self) -> DMatMut<'_> {
        let ld = self.rows.max(1);
        DMatMut::from_slice(&mut self.data, self.rows, self.cols, ld)
    }

    /// The `rows × cols` block at `(r0, c0)` as a view.
    pub fn block_view(&self, r0: usize, c0: usize, rows: usize, cols: usize) -> DMatRef<'_> {
        self.view().sub(r0, c0, rows, cols)
    }

    /// Number of NaN/Inf entries.
    pub fn non_finite_count(&self) -> usize {
        self.data.iter().filter(|x| !x.is_finite()).count()
    }
}

impl Index<(usize, usize)> for DMat {
    type Output = f64;
    #[inline(always)]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[j * self.rows + i]
    }
}

impl IndexMut<(usize, usize)> for DMat {
    #[inline(always)]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[j * self.rows + i]
    }
}

/// Borrowed, possibly strided, column-major real view.
#[derive(Debug, Clone, Copy)]
pub struct DMatRef<'a> {
    data: &'a [f64],
    rows: usize,
    cols: usize,
    ld: usize,
}

impl<'a> DMatRef<'a> {
    /// Wraps a raw column-major slice with an explicit leading dimension.
    pub fn from_slice(data: &'a [f64], rows: usize, cols: usize, ld: usize) -> Self {
        assert!(ld >= rows, "leading dimension shorter than a column");
        if rows > 0 && cols > 0 {
            assert!(data.len() >= (cols - 1) * ld + rows, "slice too short for view shape");
        }
        DMatRef { data, rows, cols, ld }
    }

    /// Number of rows.
    #[inline(always)]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline(always)]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element `(i, j)`.
    #[inline(always)]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[j * self.ld + i]
    }

    /// Column `j`.
    #[inline(always)]
    pub fn col(&self, j: usize) -> &'a [f64] {
        &self.data[j * self.ld..j * self.ld + self.rows]
    }

    /// Sub-view (offsets relative to the view's origin).
    pub fn sub(&self, r0: usize, c0: usize, rows: usize, cols: usize) -> DMatRef<'a> {
        assert!(r0 + rows <= self.rows && c0 + cols <= self.cols, "sub-view out of range");
        if rows == 0 || cols == 0 {
            return DMatRef { data: &[], rows, cols, ld: self.ld };
        }
        let (start, end) = (c0 * self.ld + r0, (c0 + cols - 1) * self.ld + r0 + rows);
        DMatRef { data: &self.data[start..end], rows, cols, ld: self.ld }
    }
}

/// Borrowed, possibly strided, mutable column-major real view.
#[derive(Debug)]
pub struct DMatMut<'a> {
    data: &'a mut [f64],
    rows: usize,
    cols: usize,
    ld: usize,
}

impl<'a> DMatMut<'a> {
    /// Wraps a raw column-major slice with an explicit leading dimension.
    pub fn from_slice(data: &'a mut [f64], rows: usize, cols: usize, ld: usize) -> Self {
        assert!(ld >= rows, "leading dimension shorter than a column");
        if rows > 0 && cols > 0 {
            assert!(data.len() >= (cols - 1) * ld + rows, "slice too short for view shape");
        }
        DMatMut { data, rows, cols, ld }
    }

    /// Number of rows.
    #[inline(always)]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline(always)]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Reborrows as a shorter-lived mutable view.
    #[inline]
    pub fn rb(&mut self) -> DMatMut<'_> {
        DMatMut { data: self.data, rows: self.rows, cols: self.cols, ld: self.ld }
    }

    /// Column `j`.
    #[inline(always)]
    pub fn col(&self, j: usize) -> &[f64] {
        &self.data[j * self.ld..j * self.ld + self.rows]
    }

    /// Mutable column `j`.
    #[inline(always)]
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        &mut self.data[j * self.ld..j * self.ld + self.rows]
    }

    /// `K` consecutive mutable columns from `j0` (disjoint slices).
    fn cols_mut<const K: usize>(&mut self, j0: usize) -> [&mut [f64]; K] {
        let (ld, rows) = (self.ld, self.rows);
        let mut rest = &mut self.data[j0 * ld..];
        std::array::from_fn(|_| {
            let all = std::mem::take(&mut rest);
            let (col, tail) = all.split_at_mut(ld.min(all.len()));
            rest = tail;
            &mut col[..rows]
        })
    }

    /// Mutable sub-view (offsets relative to the view's origin).
    pub fn sub_mut(self, r0: usize, c0: usize, rows: usize, cols: usize) -> DMatMut<'a> {
        assert!(r0 + rows <= self.rows && c0 + cols <= self.cols, "sub-view out of range");
        if rows == 0 || cols == 0 {
            return DMatMut { data: &mut [], rows, cols, ld: self.ld };
        }
        let (start, end) = (c0 * self.ld + r0, (c0 + cols - 1) * self.ld + r0 + rows);
        DMatMut { data: &mut self.data[start..end], rows, cols, ld: self.ld }
    }

    fn into_out(self) -> Out<f64> {
        // SAFETY: the view exclusively borrows a `rows × cols` block with
        // leading dimension `ld` for as long as the product runs.
        unsafe { Out::from_raw(self.data.as_mut_ptr(), self.rows, self.cols, self.ld) }
    }
}

/// `C ← α·A·B + β·C` on real matrices (`dgemm`, untransposed).
pub fn dgemm(alpha: f64, a: DMatRef<'_>, b: DMatRef<'_>, beta: f64, c: DMatMut<'_>) {
    flops_add(counts::dgemm(a.rows(), b.cols(), a.cols()));
    dgemm_unc(alpha, a, b, beta, c);
}

/// [`dgemm`] without FLOP accounting (the factorization-internal entry).
pub(crate) fn dgemm_unc(alpha: f64, a: DMatRef<'_>, b: DMatRef<'_>, beta: f64, mut c: DMatMut<'_>) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    assert_eq!(b.rows(), k, "dgemm inner dimension mismatch");
    assert_eq!((c.rows(), c.cols()), (m, n), "dgemm output shape mismatch");
    if m == 0 || n == 0 {
        return;
    }
    if k > 0 && alpha != 0.0 && packs(m, n, k) {
        gemm_tiled(active_kernel(), alpha, a, b, beta, c.into_out());
        return;
    }
    for j in 0..n {
        let cj = c.col_mut(j);
        if beta == 0.0 {
            cj.fill(0.0);
        } else if beta != 1.0 {
            cj.iter_mut().for_each(|x| *x *= beta);
        }
        if alpha == 0.0 {
            continue;
        }
        for l in 0..k {
            let f = alpha * b.at(l, j);
            if f == 0.0 {
                continue;
            }
            for (x, &v) in cj.iter_mut().zip(a.col(l)) {
                *x = v.mul_add(f, *x);
            }
        }
    }
}

/// `C ← α·A·B + β·C` for a real `A` and complex `B` and `C` (`dzgemm`):
/// half the flops of the complex product.
pub fn dzgemm(alpha: f64, a: DMatRef<'_>, b: ZMatRef<'_>, beta: f64, mut c: ZMatMut<'_>) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    assert_eq!(b.rows(), k, "dzgemm inner dimension mismatch");
    assert_eq!((c.rows(), c.cols()), (m, n), "dzgemm output shape mismatch");
    flops_add(counts::dzgemm(m, n, k));
    if m == 0 || n == 0 {
        return;
    }
    if k > 0 && alpha != 0.0 && packs(m, n, k) {
        let (alpha, beta) = (c64(alpha, 0.0), c64(beta, 0.0));
        gemm_tiled(active_kernel(), alpha, a, (b, crate::gemm::Op::None), beta, c.into_out());
        return;
    }
    for j in 0..n {
        let cj = c.col_mut(j);
        if beta == 0.0 {
            cj.fill(Complex64::ZERO);
        } else if beta != 1.0 {
            cj.iter_mut().for_each(|x| *x = x.scale(beta));
        }
        if alpha == 0.0 {
            continue;
        }
        for l in 0..k {
            let f = b.at(l, j).scale(alpha);
            if f == Complex64::ZERO {
                continue;
            }
            for (x, &v) in cj.iter_mut().zip(a.col(l)) {
                *x = c64(v.mul_add(f.re, x.re), v.mul_add(f.im, x.im));
            }
        }
    }
}

thread_local! {
    /// Per-thread staging rows of [`dtrsm`] (the solved block rows its
    /// trailing update reads while writing other rows of the same
    /// columns), kept at its high-water size.
    static STAGE: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Solves `A·X = B` in place for a triangular `A` (left side,
/// untransposed; only the `uplo` triangle is read), overwriting `B`.
pub fn dtrsm(uplo: UpLo, diag: Diag, a: DMatRef<'_>, b: DMatMut<'_>) {
    flops_add(counts::dtrsm(a.rows(), b.cols()));
    dtrsm_unc(uplo, diag, a, b);
}

/// [`dtrsm`] without FLOP accounting.
pub(crate) fn dtrsm_unc(uplo: UpLo, diag: Diag, a: DMatRef<'_>, mut b: DMatMut<'_>) {
    let (n, m) = (a.rows(), b.cols());
    assert_eq!((a.cols(), b.rows()), (n, n), "dtrsm shapes");
    if n == 0 || m == 0 {
        return;
    }
    let forward = uplo == UpLo::Lower;
    // Below the blocked-LU order the whole triangle is one diagonal block.
    let nb = if n < BLOCK_MIN { n } else { NB };
    STAGE.with(|cell| {
        let mut stage = cell.borrow_mut();
        if stage.len() < nb.min(n) * m {
            stage.resize(nb.min(n) * m, 0.0);
        }
        let mut done = 0;
        while done < n {
            let kb = nb.min(n - done);
            let k0 = if forward { done } else { n - done - kb };
            let mut j = 0;
            while j + RHS_BLK <= m {
                substitute(a, diag, forward, k0, kb, b.cols_mut::<RHS_BLK>(j));
                j += RHS_BLK;
            }
            for j in j..m {
                substitute(a, diag, forward, k0, kb, b.cols_mut::<1>(j));
            }
            let (r0, rows) = if forward { (k0 + kb, n - k0 - kb) } else { (0, k0) };
            if rows > 0 {
                for j in 0..m {
                    stage[j * kb..(j + 1) * kb].copy_from_slice(&b.col(j)[k0..k0 + kb]);
                }
                let x = DMatRef::from_slice(&stage[..kb * m], kb, m, kb);
                let c = b.rb().sub_mut(r0, 0, rows, m);
                dgemm_unc(-1.0, a.sub(r0, k0, rows, kb), x, 1.0, c);
            }
            done += kb;
        }
    });
}

/// Right-hand-side columns one pass of the substitution solves at once:
/// each loaded column of the triangle feeds this many independent FMA
/// streams, as in [`crate::trsm`].
const RHS_BLK: usize = 4;

/// Substitution on the diagonal block `k0..k0+kb` of `K` columns.
fn substitute<const K: usize>(
    a: DMatRef<'_>,
    diag: Diag,
    forward: bool,
    k0: usize,
    kb: usize,
    mut cols: [&mut [f64]; K],
) {
    for t in 0..kb {
        let g = if forward { k0 + t } else { k0 + kb - 1 - t };
        let acol = a.col(g);
        let mut neg = [0.0; K];
        for (c, n) in cols.iter_mut().zip(&mut neg) {
            if diag == Diag::NonUnit {
                c[g] /= acol[g];
            }
            *n = -c[g];
        }
        if neg.iter().all(|&n| n == 0.0) {
            continue;
        }
        let (lo, hi) = if forward { (g + 1, k0 + kb) } else { (k0, g) };
        for (i, &v) in (lo..hi).zip(&acol[lo..hi]) {
            for (c, &n) in cols.iter_mut().zip(&neg) {
                c[i] = v.mul_add(n, c[i]);
            }
        }
    }
}

/// A real LU factorization `P·A = L·U`, packed as [`crate::LuFactors`].
#[derive(Debug, Clone)]
pub struct DLu {
    /// Packed `L` (unit lower, implicit diagonal) and `U`.
    pub lu: DMat,
    /// LAPACK-style pivot sequence: at step `k`, rows `k` and `ipiv[k]`
    /// were interchanged.
    pub ipiv: Vec<usize>,
}

/// Factors a real matrix the caller owns, in place, with partial pivoting
/// (`dgetrf`); the pivot buffer comes from `ws`. A breakdown recycles both
/// buffers and reports [`LinalgError::SingularPivot`] in `"dgetrf"`
/// context.
pub fn dgetrf(mut lu: DMat, ws: &Workspace) -> Result<DLu> {
    let n = lu.rows();
    assert_eq!(lu.cols(), n, "LU requires a square matrix");
    flops_add(counts::dgetrf(n));
    let mut ipiv = ws.take_index(n);
    let factored = if n < BLOCK_MIN {
        factor_strip(&mut lu, 0, n, &mut ipiv)
    } else {
        factor_cols(&mut lu, 0, n, &mut ipiv, &mut Vec::new())
    };
    match factored {
        Ok(()) => Ok(DLu { lu, ipiv }),
        Err(e) => {
            ws.recycle_real(lu);
            ws.recycle_index(ipiv);
            Err(e.with_context("dgetrf", (n, n)))
        }
    }
}

/// The rank-1 loop on columns `c0..c1` (all rows below `c0`), pivot rows
/// interchanged across the whole matrix.
fn factor_strip(lu: &mut DMat, c0: usize, c1: usize, ipiv: &mut [usize]) -> Result<()> {
    let n = lu.rows();
    for k in c0..c1 {
        let col = lu.col(k);
        let (mut p, mut best) = (k, col[k].abs());
        for (i, &v) in col.iter().enumerate().skip(k + 1) {
            if v.abs() > best {
                (p, best) = (i, v.abs());
            }
        }
        if best < PIVOT_TOL {
            return Err(LinalgError::SingularPivot { index: k, magnitude: best });
        }
        if p != k {
            for j in 0..n {
                lu.data.swap(j * n + k, j * n + p);
            }
        }
        ipiv[k] = p;
        let inv = 1.0 / lu[(k, k)];
        lu.col_mut(k)[k + 1..].iter_mut().for_each(|x| *x *= inv);
        let (left, right) = lu.data.split_at_mut((k + 1) * n);
        let lk = &left[k * n + k + 1..(k + 1) * n];
        for cj in right.chunks_exact_mut(n).take(c1 - k - 1) {
            let u = cj[k];
            if u == 0.0 {
                continue;
            }
            for (x, &l) in cj[k + 1..].iter_mut().zip(lk) {
                *x = l.mul_add(-u, *x);
            }
        }
    }
    Ok(())
}

/// Recursive blocked right-looking factorization of columns `c0..c1`, as
/// [`crate::lu`]'s: `NB`-wide strips by the rank-1 loop, each merge one
/// [`dtrsm`] on `U₁₂` and one [`dgemm`] trailing update.
fn factor_cols(
    lu: &mut DMat,
    c0: usize,
    c1: usize,
    ipiv: &mut [usize],
    u12buf: &mut Vec<f64>,
) -> Result<()> {
    let n = lu.rows();
    let w = c1 - c0;
    if w <= NB {
        return factor_strip(lu, c0, c1, ipiv);
    }
    let h = if w <= STRIP { NB } else { (w / 2).div_ceil(NB) * NB };
    factor_cols(lu, c0, c0 + h, ipiv, u12buf)?;
    let (mid, nr) = (c0 + h, c1 - c0 - h);
    {
        let (left, right) = lu.data.split_at_mut(mid * n);
        let right = &mut right[..nr * n];
        let l11 = DMatRef::from_slice(&left[c0 * n + c0..], h, h, n);
        dtrsm_unc(UpLo::Lower, Diag::Unit, l11, DMatMut::from_slice(&mut right[c0..], h, nr, n));
        u12buf.resize(h * nr, 0.0);
        for jj in 0..nr {
            u12buf[jj * h..(jj + 1) * h].copy_from_slice(&right[jj * n + c0..jj * n + c0 + h]);
        }
        let u12 = DMatRef::from_slice(u12buf, h, nr, h);
        let l21 = DMatRef::from_slice(&left[c0 * n + mid..], n - mid, h, n);
        dgemm_unc(-1.0, l21, u12, 1.0, DMatMut::from_slice(&mut right[mid..], n - mid, nr, n));
    }
    factor_cols(lu, mid, c1, ipiv, u12buf)
}

impl DLu {
    /// Solves `A·X = B` in place (`dgetrs`): `x` holds `B` on entry.
    pub fn solve_in_place(&self, mut x: DMatMut<'_>) {
        let n = self.lu.rows();
        assert_eq!(x.rows(), n, "rhs row count mismatch");
        flops_add(counts::dgetrs(n, x.cols()));
        for (k, &p) in self.ipiv.iter().enumerate() {
            if p != k {
                for j in 0..x.cols() {
                    x.col_mut(j).swap(k, p);
                }
            }
        }
        dtrsm_unc(UpLo::Lower, Diag::Unit, self.lu.view(), x.rb());
        dtrsm_unc(UpLo::Upper, Diag::NonUnit, self.lu.view(), x);
    }

    /// Hands the factor and pivot buffers back to `ws`.
    pub fn recycle_into(self, ws: &Workspace) {
        ws.recycle_real(self.lu);
        ws.recycle_index(self.ipiv);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lu::lu_factor;
    use crate::zmat::ZMat;

    /// `z ← re` entry for entry: the complex copy of a real matrix.
    fn to_complex_into(re: DMatRef<'_>, z: &mut ZMat) {
        assert_eq!((z.rows(), z.cols()), (re.rows(), re.cols()), "to_complex_into shape");
        for j in 0..re.cols() {
            for (d, &s) in z.col_mut(j).iter_mut().zip(re.col(j)) {
                *d = c64(s, 0.0);
            }
        }
    }

    fn random(rows: usize, cols: usize, seed: u64) -> DMat {
        DMat::re_of(ZMat::random(rows, cols, seed).view())
    }

    fn naive(a: &DMat, b: &DMat) -> DMat {
        let mut c = DMat::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                c[(i, j)] = (0..a.cols()).map(|l| a[(i, l)] * b[(l, j)]).sum();
            }
        }
        c
    }

    fn max_diff(a: &DMat, b: &DMat) -> f64 {
        a.as_slice().iter().zip(b.as_slice()).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
    }

    #[test]
    fn dgemm_matches_naive_on_both_paths() {
        for (m, n, k) in [(7, 5, 3), (67, 59, 97), (130, 3, 200), (1, 1, 1)] {
            let (a, b, c0) = (random(m, k, 1), random(k, n, 2), random(m, n, 3));
            let mut c = c0.clone();
            dgemm(-1.0, a.view(), b.view(), 1.0, c.view_mut());
            let mut expected = naive(&a, &b);
            for (e, &v) in expected.as_mut_slice().iter_mut().zip(c0.as_slice()) {
                *e = v - *e;
            }
            assert!(max_diff(&c, &expected) < 1e-11, "{m}x{n}x{k}");
        }
    }

    #[test]
    fn dzgemm_is_the_complex_product_with_a_real_factor() {
        for (m, n, k) in [(9, 4, 6), (90, 40, 90)] {
            let a = random(m, k, 4);
            let b = ZMat::random(k, n, 5);
            let mut c = ZMat::random(m, n, 6);
            let mut az = ZMat::zeros(m, k);
            to_complex_into(a.view(), &mut az);
            let mut expected = c.clone();
            crate::gemm::gemm(
                -Complex64::ONE,
                &az,
                crate::Op::None,
                &b,
                crate::Op::None,
                Complex64::ONE,
                &mut expected,
            );
            dzgemm(-1.0, a.view(), b.view(), 1.0, c.view_mut());
            assert!(c.max_diff(&expected) < 1e-11, "{m}x{n}x{k}");
        }
    }

    #[test]
    fn dgetrf_solves_like_the_complex_lu_on_a_real_matrix() {
        let ws = Workspace::new();
        for n in [1usize, 5, 26, 90, 97, 170, 252] {
            let a = random(n, n, n as u64);
            let b = random(n, 7, 99);
            let f = dgetrf(a.clone(), &ws).unwrap();
            let mut x = b.clone();
            f.solve_in_place(x.view_mut());
            let mut az = ZMat::zeros(n, n);
            to_complex_into(a.view(), &mut az);
            let mut bz = ZMat::zeros(n, 7);
            to_complex_into(b.view(), &mut bz);
            let xz = lu_factor(&az).unwrap().solve(&bz);
            let err = (0..7)
                .flat_map(|j| (0..n).map(move |i| (i, j)))
                .map(|(i, j)| (x[(i, j)] - xz[(i, j)].re).abs())
                .fold(0.0, f64::max);
            assert!(err < 1e-8, "n = {n}: {err:.2e}");
            f.recycle_into(&ws);
        }
    }

    #[test]
    fn a_singular_real_matrix_is_a_typed_error() {
        let ws = Workspace::new();
        let e = dgetrf(DMat::zeros(4, 4), &ws).unwrap_err();
        assert!(matches!(e.root(), LinalgError::SingularPivot { index: 0, .. }), "{e:?}");
    }

    #[test]
    fn the_kernels_count_their_formulas() {
        let ws = Workspace::new();
        let scope = crate::FlopScope::start();
        let f = dgetrf(random(100, 100, 7), &ws).unwrap();
        let mut x = random(100, 9, 8);
        f.solve_in_place(x.view_mut());
        let mut c = DMat::zeros(100, 9);
        dgemm(1.0, f.lu.view(), x.view(), 0.0, c.view_mut());
        let expected = counts::dgetrf(100) + counts::dgetrs(100, 9) + counts::dgemm(100, 9, 100);
        assert_eq!(scope.elapsed(), expected);
    }
}
