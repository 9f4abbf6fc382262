//! Complex matrix–matrix multiplication (`zgemm`), zero-copy and tiled.
//!
//! `zgemm` dominates both FEAST (Eq. 10 projector application) and
//! SplitSolve (the two block products per `Q_i` in Algorithm 1), so this is
//! the kernel the whole reproduction leans on. The implementation follows
//! the classic BLIS/GotoBLAS decomposition:
//!
//! * operands are [`ZMatRef`] borrowed views — the `Op::None` path never
//!   copies or clones a matrix, and transposed/adjoint operands are read
//!   *during packing* instead of being materialized up front;
//! * the output is partitioned into `MC×KC×NC` cache blocks; each block's
//!   `A`/`B` panels are packed once into small planar (split re/im)
//!   buffers laid out in `MR×NR` micro-panel order, which turns the inner
//!   loop into contiguous SIMD streams;
//! * the register-tiled microkernel comes from [`crate::kernel`]: AVX-512
//!   (8×8 tile, 8-double zmm lanes) or the portable scalar 8×4 loop,
//!   selected once by CPU-feature detection and by nothing else; the
//!   tiled path takes it as a parameter, so [`gemm_with`] runs the very
//!   same code on a variant a test or bench names;
//! * large products are parallelized over disjoint 2-D output tiles with
//!   rayon — each task owns a rectangle of `C` and its own packing
//!   buffers, so no synchronization happens inside the kernel.
//!
//! # Packing contract
//!
//! Every variant consumes the same planar packed layout, parameterized by
//! its own tile shape `(mr, nr)` (read from [`crate::kernel::Kernel`] at
//! run time, since the micro-panel stride *is* the tile shape):
//!
//! * A-panels are `mr`-row micro-panels — element `(i, l)` of micro-panel
//!   `p` lives at `(p·kc + l)·mr + i`, rows zero-padded to `mr`;
//! * B-panels are `nr`-column micro-panels — element `(l, j)` of
//!   micro-panel `q` lives at `(q·kc + l)·nr + j`, columns zero-padded;
//! * re/im planes are separate buffers, `Op::Transpose`/`Op::Adjoint` are
//!   folded in during packing (conjugation flips the im plane's sign), so
//!   the microkernel only ever multiplies two untransposed panels;
//! * α/β are applied at the output-tile write (`write_tile`), never
//!   inside the microkernel, and β is applied on the first k-panel only.
//!
//! Every variant also performs the per-lane reduction in the same fused
//! operation order (see the [`crate::kernel`] numerical contract), so the
//! SIMD paths are equivalent to the scalar baseline up to at most the
//! FMA-vs-separate-rounding difference of the portable fallback.
//!
//! Small products (reduced FEAST systems, SPIKE tips, block sizes of a few
//! dozen) skip packing entirely and run a direct view-based loop: the
//! break-even point where packing pays for itself is a few thousand output
//! elements. The kernel therefore only governs the packed path; the
//! direct path is scalar by construction.

use crate::complex::{c64, Complex64};
use crate::flops::{counts, flops_add};
use crate::kernel::{active_kernel, Acc, Kernel, Planes, MR_MAX, NR_MAX};
use crate::real::DMatRef;
use crate::zmat::{ZMat, ZMatMut, ZMatRef};
use rayon::prelude::*;

/// Operand transform applied before multiplication, mirroring BLAS `trans`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Use the matrix as stored.
    None,
    /// Use the plain transpose.
    Transpose,
    /// Use the conjugate (Hermitian) transpose.
    Adjoint,
}

impl Op {
    /// Shape of `op(M)` for a matrix of shape `rows × cols`.
    fn shape_of(self, rows: usize, cols: usize) -> (usize, usize) {
        match self {
            Op::None => (rows, cols),
            _ => (cols, rows),
        }
    }

    /// Element `op(M)[i, j]` read through a view (no materialization).
    #[inline(always)]
    fn at(self, m: ZMatRef<'_>, i: usize, j: usize) -> Complex64 {
        match self {
            Op::None => m.at(i, j),
            Op::Transpose => m.at(j, i),
            Op::Adjoint => m.at(j, i).conj(),
        }
    }
}

/// K-dimension cache block (panel depth); sized so an `MC×KC` A-panel
/// (planar f64) stays within L2.
const KC: usize = 192;
/// Row cache block.
const MC: usize = 64;
/// Column cache block: caps the packed B panel at `KC×NC` so it stays
/// cache-resident while the `ic` loop sweeps over it.
const NC: usize = 128;
/// Below this `m·n·k` volume the direct (non-packing) path wins: packing
/// scratch setup costs more than it saves on cache traffic.
pub(crate) const SMALL_MNK: usize = 64 * 64 * 64;
/// …except for panel shapes: with at least this panel depth and
/// [`TALL_MN`] output elements, each packed element feeds ≥ `8·TALL_K`
/// flops, so packing pays even under the volume cutoff (the blocked
/// factorizations' tall-skinny `m×32×32` trailing updates live here).
pub(crate) const TALL_K: usize = 24;
/// Minimum output-tile area for the panel-shape exception.
pub(crate) const TALL_MN: usize = 64 * 64;
/// Minimum `m·n·k` before the tile loop goes parallel; smaller products
/// run inline to avoid fork-join overhead.
const PAR_MNK: usize = 128 * 128 * 128;

/// `C ← α·op(A)·op(B) + β·C`, the full BLAS-3 form (owned-operand entry).
pub fn gemm(
    alpha: Complex64,
    a: &ZMat,
    op_a: Op,
    b: &ZMat,
    op_b: Op,
    beta: Complex64,
    c: &mut ZMat,
) {
    gemm_view(alpha, a.view(), op_a, b.view(), op_b, beta, c);
}

/// `C ← α·op(A)·op(B) + β·C` over borrowed views (zero-copy entry).
pub fn gemm_view(
    alpha: Complex64,
    a: ZMatRef<'_>,
    op_a: Op,
    b: ZMatRef<'_>,
    op_b: Op,
    beta: Complex64,
    c: &mut ZMat,
) {
    gemm_into(alpha, a, op_a, b, op_b, beta, c.view_mut());
}

/// `C ← α·op(A)·op(B) + β·C` where `C` is a possibly strided mutable view
/// — the entry the blocked LU trailing updates and [`mod@crate::trsm`]
/// use to accumulate straight into a panel of a larger matrix.
pub fn gemm_into(
    alpha: Complex64,
    a: ZMatRef<'_>,
    op_a: Op,
    b: ZMatRef<'_>,
    op_b: Op,
    beta: Complex64,
    c: ZMatMut<'_>,
) {
    let (m, ka) = op_a.shape_of(a.rows(), a.cols());
    let n = op_b.shape_of(b.rows(), b.cols()).1;
    flops_add(counts::zgemm(m, n, ka));
    gemm_into_unc(alpha, a, op_a, b, op_b, beta, c);
}

/// [`gemm_into`] without FLOP accounting. The factorization kernels call
/// this so their own `zgetrf`/`zgeqrf` formula counts aren't inflated by
/// the internal gemm traffic (the counters stay deterministic formulas,
/// matching the paper's §5.B methodology).
pub(crate) fn gemm_into_unc(
    alpha: Complex64,
    a: ZMatRef<'_>,
    op_a: Op,
    b: ZMatRef<'_>,
    op_b: Op,
    beta: Complex64,
    c: ZMatMut<'_>,
) {
    gemm_with(active_kernel(), alpha, a, op_a, b, op_b, beta, c);
}

/// The one product routine, uncounted: shape checks, degenerate cases,
/// then the direct loop below the packing break-even and the tiled path
/// on `kernel` above it. Every library product passes
/// [`active_kernel`]; it is public (hidden) so the equivalence battery and
/// `bench_gemm_json` can run a variant they name through
/// [`crate::kernel::kernel_of`] on the same code. Stores nothing.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn gemm_with(
    kernel: &'static Kernel,
    alpha: Complex64,
    a: ZMatRef<'_>,
    op_a: Op,
    b: ZMatRef<'_>,
    op_b: Op,
    beta: Complex64,
    mut c: ZMatMut<'_>,
) {
    let (m, ka) = op_a.shape_of(a.rows(), a.cols());
    let (kb, n) = op_b.shape_of(b.rows(), b.cols());
    assert_eq!(ka, kb, "gemm inner dimension mismatch: {ka} vs {kb}");
    assert_eq!((c.rows(), c.cols()), (m, n), "gemm output shape mismatch");
    let k = ka;

    if m == 0 || n == 0 {
        return;
    }
    if k == 0 || alpha == Complex64::ZERO {
        scale_in_place(&mut c, beta);
        return;
    }
    if packs(m, n, k) {
        gemm_tiled(kernel, alpha, (a, op_a), (b, op_b), beta, c.into_out());
    } else {
        gemm_direct(alpha, a, op_a, b, op_b, beta, &mut c);
    }
}

/// One side of [`gemm_with`]'s size dispatch at any (non-empty) shape: the
/// packed tile loop on the active kernel, or the direct loop. Public
/// (hidden) for `bench_gemm_json`'s `small` rows, which time the two
/// against each other on both sides of `SMALL_MNK`; no library code calls
/// it.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn gemm_on_path(
    packed: bool,
    alpha: Complex64,
    a: ZMatRef<'_>,
    op_a: Op,
    b: ZMatRef<'_>,
    op_b: Op,
    beta: Complex64,
    mut c: ZMatMut<'_>,
) {
    let (m, ka) = op_a.shape_of(a.rows(), a.cols());
    let (kb, n) = op_b.shape_of(b.rows(), b.cols());
    assert!(m * n * ka > 0 && ka == kb, "gemm_on_path wants a non-empty, conforming product");
    assert_eq!((c.rows(), c.cols()), (m, n), "gemm output shape mismatch");
    if packed {
        gemm_packed_unc(alpha, a, op_a, b, op_b, beta, c);
    } else {
        gemm_direct(alpha, a, op_a, b, op_b, beta, &mut c);
    }
}

/// The packed tile loop on the active kernel at any non-empty, conforming
/// shape, uncounted — below `SMALL_MNK` too. [`mod@crate::trsm`]'s
/// off-diagonal updates against a triangle of order ≥ `lu::BLOCK_MIN`
/// take it from four right-hand sides on: a thin update there is a tall
/// panel of the triangle times a few columns, which the direct loop
/// streams at scalar speed (`docs/linalg.md`).
pub(crate) fn gemm_packed_unc(
    alpha: Complex64,
    a: ZMatRef<'_>,
    op_a: Op,
    b: ZMatRef<'_>,
    op_b: Op,
    beta: Complex64,
    c: ZMatMut<'_>,
) {
    gemm_tiled(active_kernel(), alpha, (a, op_a), (b, op_b), beta, c.into_out());
}

/// Whether a non-empty `m×n×k` product takes the packed tile loop: above
/// the volume break-even, or as a panel shape (`TALL_K`/`TALL_MN`).
pub(crate) fn packs(m: usize, n: usize, k: usize) -> bool {
    m * n * k >= SMALL_MNK || (k >= TALL_K && m * n >= TALL_MN)
}

/// `C ← β·C` (handles the `β = 0`/`β = 1` fast cases). Large dense views
/// scale in parallel over mutable chunks — no intermediate collection;
/// strided views fall back to a per-column sweep.
fn scale_in_place(c: &mut ZMatMut<'_>, beta: Complex64) {
    if beta == Complex64::ONE {
        return;
    }
    if let Some(data) = c.contiguous_mut() {
        if beta == Complex64::ZERO {
            data.fill(Complex64::ZERO);
        } else if data.len() >= PAR_MNK / 64 && rayon::current_num_threads() > 1 {
            data.par_chunks_mut(16 * 1024).for_each(|chunk| {
                for z in chunk.iter_mut() {
                    *z *= beta;
                }
            });
        } else {
            for z in data.iter_mut() {
                *z *= beta;
            }
        }
        return;
    }
    for j in 0..c.cols() {
        let col = c.col_mut(j);
        if beta == Complex64::ZERO {
            col.fill(Complex64::ZERO);
        } else {
            for z in col.iter_mut() {
                *z *= beta;
            }
        }
    }
}

/// Direct view-based product for small shapes: no packing, no parallelism.
///
/// When `op(A) = A` the inner loop is the classic column AXPY over
/// contiguous columns of `A`; for transposed/adjoint `A` each output entry
/// is a dot product over a contiguous column of `A`. `B` is always read
/// through the `Op` accessor (strided at worst, and small by assumption).
fn gemm_direct(
    alpha: Complex64,
    a: ZMatRef<'_>,
    op_a: Op,
    b: ZMatRef<'_>,
    op_b: Op,
    beta: Complex64,
    c: &mut ZMatMut<'_>,
) {
    let (m, k) = op_a.shape_of(a.rows(), a.cols());
    let n = c.cols();
    for j in 0..n {
        let c_col = c.col_mut(j);
        if beta == Complex64::ZERO {
            c_col.fill(Complex64::ZERO);
        } else if beta != Complex64::ONE {
            for z in c_col.iter_mut() {
                *z *= beta;
            }
        }
        match op_a {
            Op::None => {
                for l in 0..k {
                    let factor = alpha * op_b.at(b, l, j);
                    if factor == Complex64::ZERO {
                        continue;
                    }
                    let a_col = a.col(l);
                    for (ci, &ail) in c_col.iter_mut().zip(a_col) {
                        *ci = ci.mul_add(ail, factor);
                    }
                }
            }
            Op::Adjoint if op_b == Op::None => {
                // Aᴴ·B with both columns contiguous: the 4-lane conjugated
                // dot keeps the per-output FMA chains pipelined instead of
                // serializing on one accumulator — the panel-shaped
                // (small m·n, deep k) products of the recursive QR panels
                // and the FEAST Gram blocks live here.
                let b_col = &b.col(j)[..k];
                for (i, ci) in c_col.iter_mut().enumerate().take(m) {
                    let s = Complex64::dot_conj(&a.col(i)[..k], b_col);
                    *ci = ci.mul_add(s, alpha);
                }
            }
            Op::Transpose | Op::Adjoint => {
                // op(A)[i, l] = (conj?) A[l, i]: column i of A is contiguous.
                for (i, ci) in c_col.iter_mut().enumerate().take(m) {
                    let a_col = a.col(i);
                    let mut s = Complex64::ZERO;
                    if op_a == Op::Transpose {
                        for (l, &ali) in a_col.iter().enumerate().take(k) {
                            s = s.mul_add(ali, op_b.at(b, l, j));
                        }
                    } else {
                        for (l, &ali) in a_col.iter().enumerate().take(k) {
                            s = s.mul_add(ali.conj(), op_b.at(b, l, j));
                        }
                    }
                    *ci = ci.mul_add(s, alpha);
                }
            }
        }
    }
}

/// Raw output pointer shared across tile tasks.
///
/// Safety contract: every task writes a distinct rectangle of `C`
/// (disjoint `[i0, i1) × [j0, j1)` ranges), so concurrent writes never
/// alias.
#[derive(Clone, Copy)]
pub(crate) struct SendPtr<T>(*mut T);
// SAFETY: the pointer is only dereferenced in `write_tile`, on the
// rectangle of `C` its task owns; the task grid of `gemm_tiled` partitions
// `[0, m) × [0, n)`, and the `&mut` view it came from outlives every task.
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

/// The output of the packed path: where tile `(i, j)` lands, as raw
/// parts of a mutable view (`rows × cols`, leading dimension `ld`).
pub(crate) struct Out<T> {
    ptr: *mut T,
    rows: usize,
    cols: usize,
    ld: usize,
}

impl<'a> ZMatMut<'a> {
    /// The view as the packed path's output.
    pub(crate) fn into_out(mut self) -> Out<Complex64> {
        Out { ptr: self.as_mut_ptr(), rows: self.rows(), cols: self.cols(), ld: self.ld() }
    }
}

impl<T> Out<T> {
    /// The packed path's output over raw view parts.
    ///
    /// # Safety
    /// `ptr` must address a writable `rows × cols` column-major block with
    /// leading dimension `ld`, exclusively borrowed for the product.
    pub(crate) unsafe fn from_raw(ptr: *mut T, rows: usize, cols: usize, ld: usize) -> Self {
        Out { ptr, rows, cols, ld }
    }
}

/// A packed-path operand, with its `Op`: a complex view packs both
/// planes, a real one only its re plane (the [`Planes`] flag).
pub(crate) trait Operand: Copy + Sync {
    /// Whether the im plane is absent.
    const REAL: bool;
    /// Shape of `op(M)`.
    fn shape(&self) -> (usize, usize);
    #[allow(clippy::too_many_arguments)]
    fn pack_a(
        &self,
        mr: usize,
        ic: usize,
        mc: usize,
        p0: usize,
        kc: usize,
        re: &mut [f64],
        im: &mut [f64],
    );
    #[allow(clippy::too_many_arguments)]
    fn pack_b(
        &self,
        nr: usize,
        p0: usize,
        kc: usize,
        j0: usize,
        nc: usize,
        re: &mut [f64],
        im: &mut [f64],
    );
}

impl Operand for (ZMatRef<'_>, Op) {
    const REAL: bool = false;
    fn shape(&self) -> (usize, usize) {
        self.1.shape_of(self.0.rows(), self.0.cols())
    }
    fn pack_a(
        &self,
        mr: usize,
        ic: usize,
        mc: usize,
        p0: usize,
        kc: usize,
        re: &mut [f64],
        im: &mut [f64],
    ) {
        pack_a(self.0, self.1, mr, ic, mc, p0, kc, re, im);
    }
    fn pack_b(
        &self,
        nr: usize,
        p0: usize,
        kc: usize,
        j0: usize,
        nc: usize,
        re: &mut [f64],
        im: &mut [f64],
    ) {
        pack_b(self.0, self.1, nr, p0, kc, j0, nc, re, im);
    }
}

impl Operand for DMatRef<'_> {
    const REAL: bool = true;
    fn shape(&self) -> (usize, usize) {
        (self.rows(), self.cols())
    }
    fn pack_a(
        &self,
        mr: usize,
        ic: usize,
        mc: usize,
        p0: usize,
        kc: usize,
        re: &mut [f64],
        _: &mut [f64],
    ) {
        for pm in 0..mc.div_ceil(mr) {
            let (r0, mr_eff) = (ic + pm * mr, mr.min(mc - pm * mr));
            for l in 0..kc {
                let dst = &mut re[(pm * kc + l) * mr..(pm * kc + l + 1) * mr];
                dst[..mr_eff].copy_from_slice(&self.col(p0 + l)[r0..r0 + mr_eff]);
                dst[mr_eff..].fill(0.0);
            }
        }
    }
    fn pack_b(
        &self,
        nr: usize,
        p0: usize,
        kc: usize,
        j0: usize,
        nc: usize,
        re: &mut [f64],
        _: &mut [f64],
    ) {
        for qm in 0..nc.div_ceil(nr) {
            let base = qm * kc * nr;
            for j in 0..nr {
                if qm * nr + j < nc {
                    let col = &self.col(j0 + qm * nr + j)[p0..p0 + kc];
                    for (l, &v) in col.iter().enumerate() {
                        re[base + l * nr + j] = v;
                    }
                } else {
                    for l in 0..kc {
                        re[base + l * nr + j] = 0.0;
                    }
                }
            }
        }
    }
}

/// An element the packed path writes: a complex tile from both
/// accumulator planes, a real one from the re plane.
pub(crate) trait OutElem: Copy + Send + Sync {
    /// [`write_tile`] for this element type.
    ///
    /// # Safety
    /// As [`write_tile`].
    #[allow(clippy::too_many_arguments)]
    unsafe fn write(
        c: SendPtr<Self>,
        ld: usize,
        at: (usize, usize),
        eff: (usize, usize),
        acc_re: &Acc,
        acc_im: &Acc,
        alpha: Self,
        beta: Self,
        first_panel: bool,
    );
}

impl OutElem for Complex64 {
    unsafe fn write(
        c: SendPtr<Self>,
        ld: usize,
        (gi, gj): (usize, usize),
        (mr_eff, nr_eff): (usize, usize),
        acc_re: &Acc,
        acc_im: &Acc,
        alpha: Self,
        beta: Self,
        first_panel: bool,
    ) {
        write_tile(c, ld, gi, gj, mr_eff, nr_eff, acc_re, acc_im, alpha, beta, first_panel);
    }
}

impl OutElem for f64 {
    unsafe fn write(
        c: SendPtr<Self>,
        ld: usize,
        (gi, gj): (usize, usize),
        (mr_eff, nr_eff): (usize, usize),
        acc_re: &Acc,
        _: &Acc,
        alpha: Self,
        beta: Self,
        first_panel: bool,
    ) {
        for (j, acc) in acc_re.iter().enumerate().take(nr_eff) {
            let col_base = c.0.add((gj + j) * ld + gi);
            for (i, &v) in acc.iter().enumerate().take(mr_eff) {
                let dst = col_base.add(i);
                let base = if !first_panel {
                    *dst
                } else if beta == 0.0 {
                    0.0
                } else {
                    beta * *dst
                };
                *dst = v.mul_add(alpha, base);
            }
        }
    }
}

/// Splits `total` into `parts` nearly equal strips aligned to `quantum`.
fn strips(total: usize, parts: usize, quantum: usize) -> Vec<(usize, usize)> {
    let parts = parts.clamp(1, total.div_ceil(quantum).max(1));
    let per = total.div_ceil(parts).div_ceil(quantum) * quantum;
    let mut out = Vec::with_capacity(parts);
    let mut lo = 0;
    while lo < total {
        let hi = (lo + per).min(total);
        out.push((lo, hi));
        lo = hi;
    }
    out
}

/// Cache-blocked, register-tiled, tile-parallel path on `kern`, for a
/// complex or real `A` and `B` (a real `B` only beside a real `A`) and an
/// output of the matching element type.
pub(crate) fn gemm_tiled<A: Operand, B: Operand, T: OutElem>(
    kern: &'static Kernel,
    alpha: T,
    a: A,
    b: B,
    beta: T,
    c: Out<T>,
) {
    let planes = match (A::REAL, B::REAL) {
        (false, false) => Planes::Complex,
        (true, false) => Planes::RealA,
        (true, true) => Planes::Real,
        (false, true) => unreachable!("a real B is packed only beside a real A"),
    };
    let (m, k) = a.shape();
    assert_eq!((b.shape(), (c.rows, c.cols)), ((k, c.cols), (m, c.cols)), "packed gemm shapes");
    let n = c.cols;
    let c_ld = c.ld;
    let c_ptr = SendPtr(c.ptr);
    let (mr, nr) = (kern.mr, kern.nr);
    let (a_planes, b_planes) = (if A::REAL { 0 } else { 1 }, if B::REAL { 0 } else { 1 });

    // 2-D task grid over C: prefer column strips (contiguous in memory),
    // add row strips when the matrix is tall and columns are scarce.
    let parallel = m * n * k >= PAR_MNK;
    let workers = if parallel { rayon::current_num_threads() } else { 1 };
    let target = workers * 2;
    let col_parts = target.min(n.div_ceil(2 * nr)).max(1);
    let row_parts =
        if col_parts >= target { 1 } else { target.div_ceil(col_parts).min(m.div_ceil(MC)) };
    let col_strips = strips(n, col_parts, nr);
    let row_strips = strips(m, row_parts, mr);
    let mut tasks: Vec<(usize, usize, usize, usize)> = Vec::new();
    for &(j0, j1) in &col_strips {
        for &(i0, i1) in &row_strips {
            tasks.push((i0, i1, j0, j1));
        }
    }

    let run_tile = |&(i0, i1, j0, j1): &(usize, usize, usize, usize)| {
        // Per-task packing buffers (planar split re/im), sized to the
        // panels this task actually touches — a small product must not pay
        // for full `MC×KC`/`KC×NC` blocks.
        let kc_cap = KC.min(k);
        let nc_cap = NC.min(j1 - j0).div_ceil(nr) * nr;
        let mc_cap = MC.min(i1 - i0).div_ceil(mr) * mr;
        let mut b_re = vec![0.0f64; nc_cap * kc_cap];
        let mut b_im = vec![0.0f64; nc_cap * kc_cap * b_planes];
        let mut a_re = vec![0.0f64; mc_cap * kc_cap];
        let mut a_im = vec![0.0f64; mc_cap * kc_cap * a_planes];
        // Accumulator blocks live outside the micro-tile loops: every
        // kernel fully overwrites its mr×nr corner and write_tile reads
        // only that corner, so re-zeroing per tile would be pure waste.
        let mut acc_re: Acc = [[0.0; MR_MAX]; NR_MAX];
        let mut acc_im: Acc = [[0.0; MR_MAX]; NR_MAX];
        let mut jc = j0;
        while jc < j1 {
            let nc_eff = NC.min(j1 - jc);
            let n_micro_b = nc_eff.div_ceil(nr);
            let mut p0 = 0usize;
            let mut first_panel = true;
            while p0 < k {
                let kc = KC.min(k - p0);
                b.pack_b(nr, p0, kc, jc, nc_eff, &mut b_re, &mut b_im);
                let mut ic = i0;
                while ic < i1 {
                    let mc = MC.min(i1 - ic);
                    a.pack_a(mr, ic, mc, p0, kc, &mut a_re, &mut a_im);
                    for pm in 0..mc.div_ceil(mr) {
                        let ap_re = &a_re[pm * kc * mr..(pm + 1) * kc * mr];
                        let ap_im =
                            if A::REAL { &[][..] } else { &a_im[pm * kc * mr..(pm + 1) * kc * mr] };
                        let mr_eff = mr.min(mc - pm * mr);
                        for qm in 0..n_micro_b {
                            let bp_re = &b_re[qm * kc * nr..(qm + 1) * kc * nr];
                            let bp_im = if B::REAL {
                                &[][..]
                            } else {
                                &b_im[qm * kc * nr..(qm + 1) * kc * nr]
                            };
                            let nr_eff = nr.min(nc_eff - qm * nr);
                            kern.run(
                                planes,
                                kc,
                                ap_re,
                                ap_im,
                                bp_re,
                                bp_im,
                                &mut acc_re,
                                &mut acc_im,
                            );
                            // SAFETY: this task owns rows [i0, i1) × cols
                            // [j0, j1) of C exclusively (disjoint task grid)
                            // and the tile lies inside both ranges, which
                            // the shape assert of `gemm_with` put inside `c`.
                            unsafe {
                                T::write(
                                    c_ptr,
                                    c_ld,
                                    (ic + pm * mr, jc + qm * nr),
                                    (mr_eff, nr_eff),
                                    &acc_re,
                                    &acc_im,
                                    alpha,
                                    beta,
                                    first_panel,
                                );
                            }
                        }
                    }
                    ic += mc;
                }
                p0 += kc;
                first_panel = false;
            }
            jc += nc_eff;
        }
    };

    if parallel && tasks.len() > 1 {
        tasks.par_iter().for_each(run_tile);
    } else {
        for t in &tasks {
            run_tile(t);
        }
    }
}

/// Packs `op(A)[ic..ic+mc, p0..p0+kc]` into planar `mr`-row micro-panels
/// (`mr` is the dispatched kernel's tile height), zero-padding the row
/// remainder. Layout: element `(i, l)` of micro-panel `p` lives at
/// `(p·kc + l)·mr + i`.
#[allow(clippy::too_many_arguments)]
fn pack_a(
    a: ZMatRef<'_>,
    op: Op,
    mr: usize,
    ic: usize,
    mc: usize,
    p0: usize,
    kc: usize,
    a_re: &mut [f64],
    a_im: &mut [f64],
) {
    for pm in 0..mc.div_ceil(mr) {
        let mr_eff = mr.min(mc - pm * mr);
        let base = pm * kc * mr;
        match op {
            Op::None => {
                for l in 0..kc {
                    let col = a.col(p0 + l);
                    let dst = base + l * mr;
                    for i in 0..mr_eff {
                        let z = col[ic + pm * mr + i];
                        a_re[dst + i] = z.re;
                        a_im[dst + i] = z.im;
                    }
                    for i in mr_eff..mr {
                        a_re[dst + i] = 0.0;
                        a_im[dst + i] = 0.0;
                    }
                }
            }
            Op::Transpose | Op::Adjoint => {
                // op(A)[gi, gl] = (conj?) A[gl, gi]: walk columns of A
                // (contiguous in l) one micro-row at a time.
                let sign = if op == Op::Adjoint { -1.0 } else { 1.0 };
                for i in 0..mr {
                    if i < mr_eff {
                        let col = a.col(ic + pm * mr + i);
                        for l in 0..kc {
                            let z = col[p0 + l];
                            a_re[base + l * mr + i] = z.re;
                            a_im[base + l * mr + i] = sign * z.im;
                        }
                    } else {
                        for l in 0..kc {
                            a_re[base + l * mr + i] = 0.0;
                            a_im[base + l * mr + i] = 0.0;
                        }
                    }
                }
            }
        }
    }
}

/// Packs `op(B)[p0..p0+kc, j0..j0+nc]` into planar `nr`-column
/// micro-panels (`nr` is the dispatched kernel's tile width),
/// zero-padding the column remainder. Layout: element `(l, j)` of
/// micro-panel `q` lives at `(q·kc + l)·nr + j`.
#[allow(clippy::too_many_arguments)]
fn pack_b(
    b: ZMatRef<'_>,
    op: Op,
    nr: usize,
    p0: usize,
    kc: usize,
    j0: usize,
    nc: usize,
    b_re: &mut [f64],
    b_im: &mut [f64],
) {
    for qm in 0..nc.div_ceil(nr) {
        let nr_eff = nr.min(nc - qm * nr);
        let base = qm * kc * nr;
        match op {
            Op::None => {
                for j in 0..nr {
                    if j < nr_eff {
                        let col = b.col(j0 + qm * nr + j);
                        for l in 0..kc {
                            let z = col[p0 + l];
                            b_re[base + l * nr + j] = z.re;
                            b_im[base + l * nr + j] = z.im;
                        }
                    } else {
                        for l in 0..kc {
                            b_re[base + l * nr + j] = 0.0;
                            b_im[base + l * nr + j] = 0.0;
                        }
                    }
                }
            }
            Op::Transpose | Op::Adjoint => {
                // op(B)[gl, gj] = (conj?) B[gj, gl]: column gj of B is the
                // contiguous direction — here that is the l index.
                let sign = if op == Op::Adjoint { -1.0 } else { 1.0 };
                for l in 0..kc {
                    let dst = base + l * nr;
                    for j in 0..nr_eff {
                        let z = b.at(j0 + qm * nr + j, p0 + l);
                        b_re[dst + j] = z.re;
                        b_im[dst + j] = sign * z.im;
                    }
                    for j in nr_eff..nr {
                        b_re[dst + j] = 0.0;
                        b_im[dst + j] = 0.0;
                    }
                }
            }
        }
    }
}

/// Writes one `mr_eff × nr_eff` accumulator tile into `C` at `(gi, gj)`,
/// applying `α` and (on the first k-panel only) `β`. The accumulators are
/// the full [`Acc`] blocks the dispatched microkernel filled — only the
/// `mr_eff × nr_eff` corner is read.
///
/// # Safety
/// The caller must own the written rectangle exclusively and `gi`/`gj`
/// must be in bounds for the `ld`-strided output buffer.
#[allow(clippy::too_many_arguments)]
unsafe fn write_tile(
    c_ptr: SendPtr<Complex64>,
    ld: usize,
    gi: usize,
    gj: usize,
    mr_eff: usize,
    nr_eff: usize,
    acc_re: &Acc,
    acc_im: &Acc,
    alpha: Complex64,
    beta: Complex64,
    first_panel: bool,
) {
    for j in 0..nr_eff {
        let col_base = c_ptr.0.add((gj + j) * ld + gi);
        for i in 0..mr_eff {
            let acc = c64(acc_re[j][i], acc_im[j][i]);
            let dst = col_base.add(i);
            let updated = if first_panel {
                if beta == Complex64::ZERO {
                    alpha * acc
                } else {
                    (beta * *dst).mul_add(alpha, acc)
                }
            } else {
                (*dst).mul_add(alpha, acc)
            };
            *dst = updated;
        }
    }
}

/// Convenience product `A·B` (the `&a * &b` operator routes here).
pub fn matmul(a: &ZMat, b: &ZMat) -> ZMat {
    let mut c = ZMat::zeros(a.rows(), b.cols());
    gemm(Complex64::ONE, a, Op::None, b, Op::None, Complex64::ZERO, &mut c);
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;
    use crate::zmat::alloc_count;

    fn naive(a: &ZMat, b: &ZMat) -> ZMat {
        let mut c = ZMat::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = Complex64::ZERO;
                for l in 0..a.cols() {
                    s += a[(i, l)] * b[(l, j)];
                }
                c[(i, j)] = s;
            }
        }
        c
    }

    fn apply(op: Op, m: &ZMat) -> ZMat {
        match op {
            Op::None => m.clone(),
            Op::Transpose => m.transpose(),
            Op::Adjoint => m.adjoint(),
        }
    }

    #[test]
    fn matches_naive_small() {
        let a = ZMat::random(7, 5, 1);
        let b = ZMat::random(5, 9, 2);
        assert!(matmul(&a, &b).max_diff(&naive(&a, &b)) < 1e-12);
    }

    #[test]
    fn matches_naive_large_parallel_path() {
        let a = ZMat::random(130, 140, 3);
        let b = ZMat::random(140, 150, 4);
        assert!(matmul(&a, &b).max_diff(&naive(&a, &b)) < 1e-10);
    }

    #[test]
    fn all_nine_op_combinations_match_naive() {
        // Small shapes (direct, non-packing path) with every op pairing
        // dimensionally distinct: op(A) is 13×17, op(B) is 17×11. The
        // packed/tiled path gets the same sweep in the test below.
        let ops = [Op::None, Op::Transpose, Op::Adjoint];
        for &op_a in &ops {
            for &op_b in &ops {
                let a = if op_a == Op::None {
                    ZMat::random(13, 17, 5)
                } else {
                    ZMat::random(17, 13, 5)
                };
                let b = if op_b == Op::None {
                    ZMat::random(17, 11, 6)
                } else {
                    ZMat::random(11, 17, 6)
                };
                let mut c = ZMat::zeros(13, 11);
                gemm(Complex64::ONE, &a, op_a, &b, op_b, Complex64::ZERO, &mut c);
                let expected = naive(&apply(op_a, &a), &apply(op_b, &b));
                assert!(
                    c.max_diff(&expected) < 1e-12,
                    "op_a {op_a:?} op_b {op_b:?}: {:.2e}",
                    c.max_diff(&expected)
                );
            }
        }
    }

    #[test]
    fn all_nine_op_combinations_match_naive_tiled_path() {
        // Big enough to hit the packed/tiled path (m·n·k ≥ SMALL_MNK)
        // with non-multiples of every block size.
        let ops = [Op::None, Op::Transpose, Op::Adjoint];
        let (m, n, k) = (67, 59, 97);
        for &op_a in &ops {
            for &op_b in &ops {
                let a =
                    if op_a == Op::None { ZMat::random(m, k, 7) } else { ZMat::random(k, m, 7) };
                let b =
                    if op_b == Op::None { ZMat::random(k, n, 8) } else { ZMat::random(n, k, 8) };
                let mut c = ZMat::zeros(m, n);
                gemm(Complex64::ONE, &a, op_a, &b, op_b, Complex64::ZERO, &mut c);
                let expected = naive(&apply(op_a, &a), &apply(op_b, &b));
                assert!(
                    c.max_diff(&expected) < 1e-10,
                    "op_a {op_a:?} op_b {op_b:?}: {:.2e}",
                    c.max_diff(&expected)
                );
            }
        }
    }

    #[test]
    fn awkward_shapes_match_naive() {
        // 1×1, prime dims, tall-skinny, short-wide, k = 1 — the shapes
        // that stress tile-remainder handling.
        let shapes = [
            (1usize, 1usize, 1usize),
            (2, 3, 5),
            (31, 37, 29),
            (97, 2, 53),
            (2, 97, 53),
            (200, 3, 1),
            (64, 64, 64),
            (65, 63, 193),
        ];
        for &(m, n, k) in &shapes {
            let a = ZMat::random(m, k, (m * 1000 + k) as u64);
            let b = ZMat::random(k, n, (k * 1000 + n) as u64);
            let prod = matmul(&a, &b);
            assert!(
                prod.max_diff(&naive(&a, &b)) < 1e-10,
                "shape {m}x{n}x{k}: {:.2e}",
                prod.max_diff(&naive(&a, &b))
            );
        }
    }

    #[test]
    fn op_none_path_performs_zero_matrix_allocations() {
        // The zero-copy claim: with borrowed views and a preallocated
        // output, an Op::None product must not allocate a single ZMat on
        // this thread (packing uses raw f64 scratch, not matrices).
        let a = ZMat::random(96, 96, 21);
        let b = ZMat::random(96, 96, 22);
        let mut c = ZMat::zeros(96, 96);
        let before = alloc_count();
        gemm(Complex64::ONE, &a, Op::None, &b, Op::None, Complex64::ZERO, &mut c);
        assert_eq!(alloc_count(), before, "Op::None gemm allocated a ZMat");
        // Transposed operands also stay allocation-free now: transforms
        // are folded into packing.
        gemm(Complex64::ONE, &a, Op::Adjoint, &b, Op::Transpose, Complex64::ZERO, &mut c);
        assert_eq!(alloc_count(), before, "packed transform path allocated a ZMat");
    }

    #[test]
    fn transpose_and_adjoint_ops() {
        let a = ZMat::random(6, 4, 5);
        let b = ZMat::random(6, 3, 6);
        // C = Aᴴ B
        let mut c = ZMat::zeros(4, 3);
        gemm(Complex64::ONE, &a, Op::Adjoint, &b, Op::None, Complex64::ZERO, &mut c);
        assert!(c.max_diff(&naive(&a.adjoint(), &b)) < 1e-12);
        // C = Aᵀ B
        let mut ct = ZMat::zeros(4, 3);
        gemm(Complex64::ONE, &a, Op::Transpose, &b, Op::None, Complex64::ZERO, &mut ct);
        assert!(ct.max_diff(&naive(&a.transpose(), &b)) < 1e-12);
    }

    #[test]
    fn alpha_beta_accumulation() {
        let a = ZMat::random(5, 5, 7);
        let b = ZMat::random(5, 5, 8);
        let c0 = ZMat::random(5, 5, 9);
        let alpha = c64(0.5, -1.0);
        let beta = c64(2.0, 0.25);
        let mut c = c0.clone();
        gemm(alpha, &a, Op::None, &b, Op::None, beta, &mut c);
        let expected = &naive(&a, &b).scaled(alpha) + &c0.scaled(beta);
        assert!(c.max_diff(&expected) < 1e-12);
    }

    #[test]
    fn alpha_beta_accumulation_tiled_path() {
        let (m, n, k) = (70, 66, 130);
        let a = ZMat::random(m, k, 17);
        let b = ZMat::random(k, n, 18);
        let c0 = ZMat::random(m, n, 19);
        let alpha = c64(0.5, -1.0);
        let beta = c64(2.0, 0.25);
        let mut c = c0.clone();
        gemm(alpha, &a, Op::None, &b, Op::None, beta, &mut c);
        let expected = &naive(&a, &b).scaled(alpha) + &c0.scaled(beta);
        assert!(c.max_diff(&expected) < 1e-10, "{:.2e}", c.max_diff(&expected));
    }

    #[test]
    fn block_views_multiply_without_copying() {
        let big_a = ZMat::random(40, 40, 30);
        let big_b = ZMat::random(40, 40, 31);
        let av = big_a.block_view(3, 5, 20, 17);
        let bv = big_b.block_view(1, 2, 17, 22);
        let mut c = ZMat::zeros(20, 22);
        let before = alloc_count();
        gemm_view(Complex64::ONE, av, Op::None, bv, Op::None, Complex64::ZERO, &mut c);
        assert_eq!(alloc_count(), before);
        let expected = naive(&big_a.block(3, 5, 20, 17), &big_b.block(1, 2, 17, 22));
        assert!(c.max_diff(&expected) < 1e-12);
    }

    #[test]
    fn identity_is_neutral() {
        let a = ZMat::random(8, 8, 10);
        let id = ZMat::identity(8);
        assert!(matmul(&a, &id).max_diff(&a) < 1e-14);
        assert!(matmul(&id, &a).max_diff(&a) < 1e-14);
    }

    #[test]
    fn gemm_counts_flops() {
        let before = crate::flops::flops_total();
        let a = ZMat::random(10, 12, 1);
        let b = ZMat::random(12, 14, 2);
        let _ = matmul(&a, &b);
        assert!(crate::flops::flops_total() - before >= counts::zgemm(10, 14, 12));
    }
}
