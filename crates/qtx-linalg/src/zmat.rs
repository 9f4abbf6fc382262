//! Column-major dense complex matrices.
//!
//! `ZMat` is the single dense container used across the workspace: FEAST
//! subspaces, SplitSolve block operands, reduced Rayleigh–Ritz systems and
//! lead coupling blocks are all `ZMat`s. Storage is column-major (like
//! LAPACK) so the factorization kernels translate directly.

use crate::complex::{c64, Complex64};
use crate::rng::Pcg64;
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

thread_local! {
    /// Fresh `ZMat` heap allocations made by this thread (see
    /// [`alloc_count`]). Thread-local so concurrent tests measuring
    /// allocation deltas don't pollute each other.
    static ZMAT_ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes currently held by live `ZMat` buffers on this thread (see
    /// [`live_bytes`]).
    static ZMAT_LIVE_BYTES: Cell<usize> = const { Cell::new(0) };
    /// High-water mark of [`ZMAT_LIVE_BYTES`] since the last
    /// [`reset_peak_bytes`].
    static ZMAT_PEAK_BYTES: Cell<usize> = const { Cell::new(0) };
}

/// Number of fresh `ZMat` buffer allocations (zeros/clones/materialized
/// transforms) performed by the current thread since it started. Take a
/// delta around a kernel call to verify its zero-copy claims — the tiled
/// `gemm` must not allocate on the `Op::None` fast path.
pub fn alloc_count() -> u64 {
    ZMAT_ALLOCS.with(|c| c.get())
}

#[inline]
fn note_alloc() {
    ZMAT_ALLOCS.with(|c| c.set(c.get() + 1));
}

/// Bytes currently held by live `ZMat` backing buffers on this thread
/// (capacity, not length — a recycled buffer counts in full). Buffers
/// parked in a [`crate::workspace::Workspace`] pool as raw `Vec`s are
/// *not* counted: the counter measures the matrices an algorithm holds
/// simultaneously, which is the footprint that scales with device size.
pub fn live_bytes() -> usize {
    ZMAT_LIVE_BYTES.with(|c| c.get())
}

/// High-water mark of [`live_bytes`] on this thread since the last
/// [`reset_peak_bytes`]. This is the counter the sparsity acceptance
/// tests assert on: a boundary-block-only transmission solve must peak at
/// `O(bandwidth · n)` bytes while a dense-staged solve peaks at `O(n²)`.
pub fn peak_bytes() -> usize {
    ZMAT_PEAK_BYTES.with(|c| c.get())
}

/// Resets the peak tracker to the current live footprint, so a subsequent
/// [`peak_bytes`] reads the high-water mark of the enclosed region only.
pub fn reset_peak_bytes() {
    ZMAT_PEAK_BYTES.with(|p| p.set(live_bytes()));
}

#[inline]
fn note_bytes_grow(bytes: usize) {
    if bytes == 0 {
        return;
    }
    ZMAT_LIVE_BYTES.with(|l| {
        let live = l.get() + bytes;
        l.set(live);
        ZMAT_PEAK_BYTES.with(|p| {
            if live > p.get() {
                p.set(live);
            }
        });
    });
}

#[inline]
fn note_bytes_shrink(bytes: usize) {
    // Saturating: matrices materialized outside the counted constructors
    // (e.g. serde deserialization) release bytes they never registered.
    ZMAT_LIVE_BYTES.with(|l| l.set(l.get().saturating_sub(bytes)));
}

#[inline]
fn buf_bytes(data: &Vec<Complex64>) -> usize {
    data.capacity() * std::mem::size_of::<Complex64>()
}

/// Dense complex matrix, column-major.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct ZMat {
    rows: usize,
    cols: usize,
    data: Vec<Complex64>,
}

impl Drop for ZMat {
    fn drop(&mut self) {
        note_bytes_shrink(buf_bytes(&self.data));
    }
}

impl Clone for ZMat {
    fn clone(&self) -> Self {
        note_alloc();
        let data = self.data.clone();
        note_bytes_grow(buf_bytes(&data));
        ZMat { rows: self.rows, cols: self.cols, data }
    }

    fn clone_from(&mut self, source: &Self) {
        self.rows = source.rows;
        self.cols = source.cols;
        let before = buf_bytes(&self.data);
        if self.data.capacity() < source.data.len() {
            note_alloc();
        }
        self.data.clear();
        self.data.extend_from_slice(&source.data);
        // `clear` + `extend_from_slice` never shrinks capacity.
        note_bytes_grow(buf_bytes(&self.data) - before);
    }
}

impl ZMat {
    /// Zero matrix of shape `rows × cols`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        note_alloc();
        let data = vec![Complex64::ZERO; rows * cols];
        note_bytes_grow(buf_bytes(&data));
        ZMat { rows, cols, data }
    }

    /// Zero-size placeholder matrix (0 × 0). Performs **no** heap
    /// allocation and therefore does not count against [`alloc_count`] —
    /// the factorization structs use it for optional payloads (e.g. the
    /// compact-WY `T` store of an unblocked QR) so zero-allocation warm
    /// loops stay zero-allocation.
    pub fn empty() -> Self {
        ZMat { rows: 0, cols: 0, data: Vec::new() }
    }

    /// Overwrites every entry with the same deterministic uniform stream
    /// [`ZMat::random`] produces for this `seed` — the in-place,
    /// pool-friendly counterpart used by the FEAST/Beyn probe matrices.
    pub fn randomize(&mut self, seed: u64) {
        let mut rng = Pcg64::new(seed);
        for j in 0..self.cols {
            for i in 0..self.rows {
                self[(i, j)] = c64(rng.uniform() * 2.0 - 1.0, rng.uniform() * 2.0 - 1.0);
            }
        }
    }

    /// Wraps a recycled scratch buffer as a `rows × cols` column-major
    /// matrix without allocating when its capacity suffices (the
    /// [`crate::workspace::Workspace`] recycle path). **Element contents
    /// are unspecified** — whatever the buffer previously held, resized to
    /// `rows·cols`; callers must either overwrite every element or zero it
    /// explicitly. Not a value constructor: use [`ZMat::from_fn`] /
    /// [`ZMat::from_rows`] to build a matrix from data.
    pub fn from_recycled_buffer(rows: usize, cols: usize, mut data: Vec<Complex64>) -> Self {
        if data.capacity() < rows * cols {
            note_alloc();
        }
        // Resize without clearing: only growth beyond the previous length
        // is written here; existing elements keep their stale values.
        data.resize(rows * cols, Complex64::ZERO);
        note_bytes_grow(buf_bytes(&data));
        ZMat { rows, cols, data }
    }

    /// Consumes the matrix, returning its backing buffer for reuse. The
    /// bytes leave the [`live_bytes`] ledger with the matrix; they re-enter
    /// when the buffer is wrapped again via [`ZMat::from_recycled_buffer`].
    pub fn into_vec(self) -> Vec<Complex64> {
        let mut this = std::mem::ManuallyDrop::new(self);
        let data = std::mem::take(&mut this.data);
        note_bytes_shrink(buf_bytes(&data));
        data
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Complex64::ONE;
        }
        m
    }

    /// Diagonal matrix from the given entries.
    pub fn from_diag(diag: &[Complex64]) -> Self {
        let n = diag.len();
        let mut m = Self::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Builds a matrix by evaluating `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> Complex64) -> Self {
        let mut m = Self::zeros(rows, cols);
        for j in 0..cols {
            for i in 0..rows {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Builds `out_ij = f(a_ij, b_ij)` in a single pass: every entry is
    /// written exactly once, with no zero-fill and no intermediate matrix
    /// (the fused form of `&a.scaled(x) - &b`-style expressions).
    pub fn from_zip(a: &ZMat, b: &ZMat, f: impl Fn(Complex64, Complex64) -> Complex64) -> Self {
        assert_eq!((a.rows, a.cols), (b.rows, b.cols), "from_zip shape mismatch");
        note_alloc();
        let data: Vec<Complex64> = a.data.iter().zip(&b.data).map(|(&x, &y)| f(x, y)).collect();
        note_bytes_grow(buf_bytes(&data));
        ZMat { rows: a.rows, cols: a.cols, data }
    }

    /// Builds from a row-major slice of `(re, im)` pairs — handy in tests.
    pub fn from_rows(rows: usize, cols: usize, entries: &[(f64, f64)]) -> Self {
        assert_eq!(entries.len(), rows * cols, "entry count mismatch");
        Self::from_fn(rows, cols, |i, j| {
            let (re, im) = entries[i * cols + j];
            c64(re, im)
        })
    }

    /// Random matrix with entries uniform in the unit square, deterministic
    /// under `seed`. Used for FEAST's `Y_F` matrix of random numbers (Eq. 10).
    pub fn random(rows: usize, cols: usize, seed: u64) -> Self {
        let mut rng = Pcg64::new(seed);
        Self::from_fn(rows, cols, |_, _| c64(rng.uniform() * 2.0 - 1.0, rng.uniform() * 2.0 - 1.0))
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

    /// True when the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Raw column-major data.
    #[inline(always)]
    pub fn as_slice(&self) -> &[Complex64] {
        &self.data
    }

    /// Mutable raw column-major data.
    #[inline(always)]
    pub fn as_mut_slice(&mut self) -> &mut [Complex64] {
        &mut self.data
    }

    /// Borrow of column `j` as a contiguous slice.
    #[inline(always)]
    pub fn col(&self, j: usize) -> &[Complex64] {
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Mutable borrow of column `j`.
    #[inline(always)]
    pub fn col_mut(&mut self, j: usize) -> &mut [Complex64] {
        &mut self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Two disjoint mutable columns (for in-place rotations).
    pub fn two_cols_mut(&mut self, j0: usize, j1: usize) -> (&mut [Complex64], &mut [Complex64]) {
        assert!(j0 < j1 && j1 < self.cols);
        let (a, b) = self.data.split_at_mut(j1 * self.rows);
        (&mut a[j0 * self.rows..(j0 + 1) * self.rows], &mut b[..self.rows])
    }

    /// Copies the rectangular block with top-left corner `(r0, c0)` and
    /// shape `rows × cols` into a new matrix.
    pub fn block(&self, r0: usize, c0: usize, rows: usize, cols: usize) -> ZMat {
        assert!(r0 + rows <= self.rows && c0 + cols <= self.cols, "block out of range");
        let mut out = ZMat::zeros(rows, cols);
        for j in 0..cols {
            let src = &self.col(c0 + j)[r0..r0 + rows];
            out.col_mut(j).copy_from_slice(src);
        }
        out
    }

    /// Writes `src` into the block with top-left corner `(r0, c0)`.
    pub fn set_block(&mut self, r0: usize, c0: usize, src: &ZMat) {
        assert!(r0 + src.rows <= self.rows && c0 + src.cols <= self.cols, "block out of range");
        for j in 0..src.cols {
            let dst_rows = self.rows;
            let dst = &mut self.data[(c0 + j) * dst_rows + r0..(c0 + j) * dst_rows + r0 + src.rows];
            dst.copy_from_slice(src.col(j));
        }
    }

    /// Writes a borrowed view into the block with top-left corner `(r0, c0)`.
    pub fn set_block_view(&mut self, r0: usize, c0: usize, src: ZMatRef<'_>) {
        assert!(r0 + src.rows() <= self.rows && c0 + src.cols() <= self.cols, "block out of range");
        let dst_rows = self.rows;
        for j in 0..src.cols() {
            let dst =
                &mut self.data[(c0 + j) * dst_rows + r0..(c0 + j) * dst_rows + r0 + src.rows()];
            dst.copy_from_slice(src.col(j));
        }
    }

    /// Adds `src` into the block with top-left corner `(r0, c0)`.
    pub fn add_block(&mut self, r0: usize, c0: usize, src: &ZMat) {
        assert!(r0 + src.rows <= self.rows && c0 + src.cols <= self.cols, "block out of range");
        for j in 0..src.cols {
            let dst_rows = self.rows;
            let dst = &mut self.data[(c0 + j) * dst_rows + r0..(c0 + j) * dst_rows + r0 + src.rows];
            for (d, s) in dst.iter_mut().zip(src.col(j)) {
                *d += *s;
            }
        }
    }

    /// Plain transpose.
    pub fn transpose(&self) -> ZMat {
        ZMat::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Conjugate (Hermitian) transpose `Aᴴ`.
    pub fn adjoint(&self) -> ZMat {
        ZMat::from_fn(self.cols, self.rows, |i, j| self[(j, i)].conj())
    }

    /// Element-wise conjugate.
    pub fn conj(&self) -> ZMat {
        let mut out = self.clone();
        for z in out.data.iter_mut() {
            *z = z.conj();
        }
        out
    }

    /// Scales every entry by a complex scalar.
    pub fn scaled(&self, s: Complex64) -> ZMat {
        let mut out = self.clone();
        for z in out.data.iter_mut() {
            *z *= s;
        }
        out
    }

    /// In-place scaling `self ← s·self` (no allocation, unlike [`Self::scaled`]).
    pub fn scale_assign(&mut self, s: Complex64) {
        for z in self.data.iter_mut() {
            *z *= s;
        }
    }

    /// In-place `self ← self + s·other` (complex AXPY over the whole matrix).
    pub fn axpy(&mut self, s: Complex64, other: &ZMat) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (d, o) in self.data.iter_mut().zip(&other.data) {
            *d = d.mul_add(s, *o);
        }
    }

    /// Frobenius norm.
    pub fn norm_fro(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Max-abs (Chebyshev) norm over entries.
    pub fn norm_max(&self) -> f64 {
        self.data.iter().map(|z| z.abs()).fold(0.0, f64::max)
    }

    /// Number of entries whose real or imaginary part is NaN/Inf — the
    /// solver-output health check of the fault-tolerance layer (`fold`
    /// over `abs` silently launders NaN, so this scans parts explicitly).
    pub fn non_finite_count(&self) -> usize {
        self.data.iter().filter(|z| !z.re.is_finite() || !z.im.is_finite()).count()
    }

    /// One-norm (max column sum), the norm used in condition estimates.
    pub fn norm_one(&self) -> f64 {
        (0..self.cols).map(|j| self.col(j).iter().map(|z| z.abs()).sum::<f64>()).fold(0.0, f64::max)
    }

    /// Hermitian deviation `‖A − Aᴴ‖_max`; zero for Hermitian matrices.
    pub fn hermitian_defect(&self) -> f64 {
        assert!(self.is_square());
        let mut worst: f64 = 0.0;
        for j in 0..self.cols {
            for i in 0..=j {
                worst = worst.max((self[(i, j)] - self[(j, i)].conj()).abs());
            }
        }
        worst
    }

    /// Symmetrizes in place: `A ← (A + Aᴴ)/2`.
    pub fn hermitianize(&mut self) {
        assert!(self.is_square());
        for j in 0..self.cols {
            for i in 0..j {
                let avg = (self[(i, j)] + self[(j, i)].conj()).scale(0.5);
                self[(i, j)] = avg;
                self[(j, i)] = avg.conj();
            }
            let d = self[(j, j)];
            self[(j, j)] = c64(d.re, 0.0);
        }
    }

    /// Trace of a square matrix.
    pub fn trace(&self) -> Complex64 {
        assert!(self.is_square());
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Horizontal concatenation `[self | other]`.
    pub fn hcat(&self, other: &ZMat) -> ZMat {
        assert_eq!(self.rows, other.rows);
        let mut out = ZMat::zeros(self.rows, self.cols + other.cols);
        out.set_block(0, 0, self);
        out.set_block(0, self.cols, other);
        out
    }

    /// Matrix–vector product `A·x`.
    pub fn matvec(&self, x: &[Complex64]) -> Vec<Complex64> {
        assert_eq!(x.len(), self.cols);
        let mut y = vec![Complex64::ZERO; self.rows];
        for (j, &xj) in x.iter().enumerate() {
            if xj == Complex64::ZERO {
                continue;
            }
            for (yi, &aij) in y.iter_mut().zip(self.col(j)) {
                *yi = yi.mul_add(aij, xj);
            }
        }
        crate::flops::flops_add(8 * (self.rows as u64) * (self.cols as u64));
        y
    }

    /// `Aᴴ·x` read off the columns of `A` where they lie: the sums
    /// [`ZMat::matvec`] forms on a materialized adjoint, term for term.
    pub fn matvec_adjoint(&self, x: &[Complex64]) -> Vec<Complex64> {
        assert_eq!(x.len(), self.rows);
        let dot = |col: &[Complex64]| {
            col.iter()
                .zip(x)
                .filter(|(_, &xj)| xj != Complex64::ZERO)
                .fold(Complex64::ZERO, |acc, (aji, &xj)| acc.mul_add(aji.conj(), xj))
        };
        let y = (0..self.cols).map(|i| dot(self.col(i))).collect();
        crate::flops::flops_add(8 * (self.rows as u64) * (self.cols as u64));
        y
    }

    /// Swap two rows in place (pivoting support).
    pub fn swap_rows(&mut self, i0: usize, i1: usize) {
        if i0 == i1 {
            return;
        }
        for j in 0..self.cols {
            let base = j * self.rows;
            self.data.swap(base + i0, base + i1);
        }
    }

    /// Maximum absolute difference to another matrix.
    pub fn max_diff(&self, other: &ZMat) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data.iter().zip(&other.data).map(|(a, b)| (*a - *b).abs()).fold(0.0, f64::max)
    }

    /// Borrowed view of the whole matrix (zero-copy).
    #[inline]
    pub fn view(&self) -> ZMatRef<'_> {
        ZMatRef { data: &self.data, rows: self.rows, cols: self.cols, ld: self.rows }
    }

    /// Mutable borrowed view of the whole matrix (zero-copy).
    #[inline]
    pub fn view_mut(&mut self) -> ZMatMut<'_> {
        ZMatMut { rows: self.rows, cols: self.cols, ld: self.rows, data: &mut self.data }
    }

    /// Mutable borrowed view of the rectangular block with top-left corner
    /// `(r0, c0)` — the writable counterpart of [`ZMat::block_view`], used
    /// by the blocked factorization kernels to address panels in place.
    #[inline]
    pub fn block_view_mut(
        &mut self,
        r0: usize,
        c0: usize,
        rows: usize,
        cols: usize,
    ) -> ZMatMut<'_> {
        self.view_mut().sub_mut(r0, c0, rows, cols)
    }

    /// Borrowed view of the rectangular block with top-left corner
    /// `(r0, c0)` and shape `rows × cols` — the zero-copy counterpart of
    /// [`ZMat::block`].
    #[inline]
    pub fn block_view(&self, r0: usize, c0: usize, rows: usize, cols: usize) -> ZMatRef<'_> {
        assert!(r0 + rows <= self.rows && c0 + cols <= self.cols, "block view out of range");
        if rows == 0 || cols == 0 {
            return ZMatRef { data: &[], rows, cols, ld: self.rows.max(1) };
        }
        let start = c0 * self.rows + r0;
        let end = (c0 + cols - 1) * self.rows + r0 + rows;
        ZMatRef { data: &self.data[start..end], rows, cols, ld: self.rows }
    }
}

/// Borrowed, possibly strided, column-major matrix view.
///
/// `ZMatRef` is the zero-copy operand type of the tiled [`mod@crate::gemm`]
/// kernels: `ld` (leading dimension, LAPACK's `lda`) is the distance
/// between column starts in `data`, so a view can alias a whole [`ZMat`]
/// (`ld == rows`) or any rectangular sub-block of one (`ld > rows`)
/// without materializing it.
#[derive(Debug, Clone, Copy)]
pub struct ZMatRef<'a> {
    data: &'a [Complex64],
    rows: usize,
    cols: usize,
    ld: usize,
}

impl<'a> ZMatRef<'a> {
    /// Wraps a raw column-major slice with an explicit leading dimension.
    pub fn from_slice(data: &'a [Complex64], rows: usize, cols: usize, ld: usize) -> Self {
        assert!(ld >= rows, "leading dimension shorter than a column");
        if cols > 0 {
            assert!(data.len() >= (cols - 1) * ld + rows, "slice too short for view shape");
        }
        ZMatRef { data, rows, cols, ld }
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

    /// Leading dimension (distance between column starts).
    #[inline(always)]
    pub fn ld(&self) -> usize {
        self.ld
    }

    /// Element at `(i, j)` (debug-asserted bounds).
    #[inline(always)]
    pub fn at(&self, i: usize, j: usize) -> Complex64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[j * self.ld + i]
    }

    /// Borrow of column `j` as a contiguous slice of length `rows`.
    #[inline(always)]
    pub fn col(&self, j: usize) -> &'a [Complex64] {
        &self.data[j * self.ld..j * self.ld + self.rows]
    }

    /// Sub-view of this view (offsets relative to the view's origin).
    pub fn sub(&self, r0: usize, c0: usize, rows: usize, cols: usize) -> ZMatRef<'a> {
        assert!(r0 + rows <= self.rows && c0 + cols <= self.cols, "sub-view out of range");
        if rows == 0 || cols == 0 {
            return ZMatRef { data: &[], rows, cols, ld: self.ld.max(1) };
        }
        let start = c0 * self.ld + r0;
        let end = (c0 + cols - 1) * self.ld + r0 + rows;
        ZMatRef { data: &self.data[start..end], rows, cols, ld: self.ld }
    }

    /// Materializes the view into an owned matrix (allocates).
    pub fn to_owned(&self) -> ZMat {
        let mut out = ZMat::zeros(self.rows, self.cols);
        for j in 0..self.cols {
            out.col_mut(j).copy_from_slice(self.col(j));
        }
        out
    }
}

/// Borrowed, possibly strided, **mutable** column-major matrix view.
///
/// The writable counterpart of [`ZMatRef`]: the blocked LU kernel and
/// [`mod@crate::trsm`] solve panels of a larger matrix in place through this
/// type, and [`crate::gemm::gemm_into`] accumulates trailing updates into
/// it without the output ever being a full owned matrix.
#[derive(Debug)]
pub struct ZMatMut<'a> {
    data: &'a mut [Complex64],
    rows: usize,
    cols: usize,
    ld: usize,
}

impl<'a> ZMatMut<'a> {
    /// Wraps a raw column-major slice with an explicit leading dimension.
    pub fn from_slice(data: &'a mut [Complex64], rows: usize, cols: usize, ld: usize) -> Self {
        assert!(ld >= rows, "leading dimension shorter than a column");
        if cols > 0 {
            assert!(data.len() >= (cols - 1) * ld + rows, "slice too short for view shape");
        }
        ZMatMut { data, rows, cols, ld }
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

    /// Leading dimension (distance between column starts).
    #[inline(always)]
    pub fn ld(&self) -> usize {
        self.ld
    }

    /// Reborrows as a shorter-lived mutable view (lets a caller pass the
    /// same view to several consuming calls in sequence).
    #[inline]
    pub fn rb(&mut self) -> ZMatMut<'_> {
        ZMatMut { data: self.data, rows: self.rows, cols: self.cols, ld: self.ld }
    }

    /// Read-only view of the same block.
    #[inline]
    pub fn as_ref(&self) -> ZMatRef<'_> {
        ZMatRef { data: self.data, rows: self.rows, cols: self.cols, ld: self.ld }
    }

    /// Element at `(i, j)`.
    #[inline(always)]
    pub fn at(&self, i: usize, j: usize) -> Complex64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[j * self.ld + i]
    }

    /// Mutable element at `(i, j)`.
    #[inline(always)]
    pub fn at_mut(&mut self, i: usize, j: usize) -> &mut Complex64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[j * self.ld + i]
    }

    /// Borrow of column `j` as a contiguous slice of length `rows`.
    #[inline(always)]
    pub fn col(&self, j: usize) -> &[Complex64] {
        &self.data[j * self.ld..j * self.ld + self.rows]
    }

    /// Mutable borrow of column `j`.
    #[inline(always)]
    pub fn col_mut(&mut self, j: usize) -> &mut [Complex64] {
        &mut self.data[j * self.ld..j * self.ld + self.rows]
    }

    /// Two disjoint mutable columns (`j0 < j1`).
    pub fn two_cols_mut(&mut self, j0: usize, j1: usize) -> (&mut [Complex64], &mut [Complex64]) {
        assert!(j0 < j1 && j1 < self.cols);
        let (a, b) = self.data.split_at_mut(j1 * self.ld);
        (&mut a[j0 * self.ld..j0 * self.ld + self.rows], &mut b[..self.rows])
    }

    /// `K` consecutive disjoint mutable columns starting at `j0` — the
    /// register-blocked substitution sweeps in [`mod@crate::trsm`] update
    /// a panel of right-hand-side columns per pass over the triangle, sharing each loaded `A` column across the panel.
    /// Columns of a column-major view occupy disjoint slice ranges, so the
    /// split is safe and allocation-free.
    pub fn cols_mut_array<const K: usize>(&mut self, j0: usize) -> [&mut [Complex64]; K] {
        assert!(K > 0 && j0 + K <= self.cols, "column panel out of range");
        let (rows, ld) = (self.rows, self.ld);
        let mut rest: &mut [Complex64] = &mut self.data[j0 * ld..];
        std::array::from_fn(|_| {
            let r = std::mem::take(&mut rest);
            let cut = ld.min(r.len());
            let (col, tail) = r.split_at_mut(cut);
            rest = tail;
            &mut col[..rows]
        })
    }

    /// Consuming sub-view (offsets relative to this view's origin).
    pub fn sub_mut(self, r0: usize, c0: usize, rows: usize, cols: usize) -> ZMatMut<'a> {
        assert!(r0 + rows <= self.rows && c0 + cols <= self.cols, "sub-view out of range");
        if rows == 0 || cols == 0 {
            return ZMatMut { data: &mut [], rows, cols, ld: self.ld.max(1) };
        }
        let start = c0 * self.ld + r0;
        let end = (c0 + cols - 1) * self.ld + r0 + rows;
        ZMatMut { data: &mut self.data[start..end], rows, cols, ld: self.ld }
    }

    /// Splits at column `j` into the views of columns `0..j` and `j..cols`
    /// — the aliasing-free split the right-side [`mod@crate::trsm`] and the
    /// blocked factorizations build on (columns of a column-major matrix
    /// occupy disjoint slice ranges).
    pub fn split_at_col(self, j: usize) -> (ZMatMut<'a>, ZMatMut<'a>) {
        assert!(j <= self.cols, "split column out of range");
        let (rows, cols, ld) = (self.rows, self.cols, self.ld);
        if j == 0 {
            return (ZMatMut { data: &mut [], rows, cols: 0, ld }, self);
        }
        if j == cols {
            return (self, ZMatMut { data: &mut [], rows, cols: 0, ld });
        }
        let (left, right) = self.data.split_at_mut(j * ld);
        (
            ZMatMut { data: left, rows, cols: j, ld },
            ZMatMut { data: right, rows, cols: cols - j, ld },
        )
    }

    /// Raw mutable pointer to the first element (for the tiled gemm's
    /// disjoint-tile writers).
    #[inline]
    pub fn as_mut_ptr(&mut self) -> *mut Complex64 {
        self.data.as_mut_ptr()
    }

    /// Whole backing slice when the view is dense (`ld == rows`), letting
    /// bulk operations skip the per-column loop.
    #[inline]
    pub fn contiguous_mut(&mut self) -> Option<&mut [Complex64]> {
        if self.ld == self.rows || self.cols <= 1 {
            Some(&mut self.data[..self.rows * self.cols])
        } else {
            None
        }
    }

    /// Copies `src` (same shape) into this view.
    pub fn copy_from_view(&mut self, src: ZMatRef<'_>) {
        assert_eq!((self.rows, self.cols), (src.rows(), src.cols()), "copy shape mismatch");
        for j in 0..self.cols {
            self.col_mut(j).copy_from_slice(src.col(j));
        }
    }
}

impl Index<(usize, usize)> for ZMat {
    type Output = Complex64;
    #[inline(always)]
    fn index(&self, (i, j): (usize, usize)) -> &Complex64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[j * self.rows + i]
    }
}

impl IndexMut<(usize, usize)> for ZMat {
    #[inline(always)]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut Complex64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[j * self.rows + i]
    }
}

impl Add for &ZMat {
    type Output = ZMat;
    fn add(self, rhs: &ZMat) -> ZMat {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        let mut out = self.clone();
        for (d, s) in out.data.iter_mut().zip(&rhs.data) {
            *d += *s;
        }
        out
    }
}

impl Sub for &ZMat {
    type Output = ZMat;
    fn sub(self, rhs: &ZMat) -> ZMat {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        let mut out = self.clone();
        for (d, s) in out.data.iter_mut().zip(&rhs.data) {
            *d -= *s;
        }
        out
    }
}

impl Neg for &ZMat {
    type Output = ZMat;
    fn neg(self) -> ZMat {
        let mut out = self.clone();
        for z in out.data.iter_mut() {
            *z = -*z;
        }
        out
    }
}

impl Mul for &ZMat {
    type Output = ZMat;
    fn mul(self, rhs: &ZMat) -> ZMat {
        crate::gemm::matmul(self, rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_ledger_tracks_live_and_peak() {
        let sz = std::mem::size_of::<Complex64>();
        let live0 = live_bytes();
        reset_peak_bytes();
        {
            let a = ZMat::zeros(8, 8);
            assert_eq!(live_bytes(), live0 + 64 * sz);
            let b = a.clone();
            assert_eq!(live_bytes(), live0 + 128 * sz);
            assert!(peak_bytes() >= live0 + 128 * sz);
            // Moving the buffer out hands the bytes back to the pool side
            // of the ledger; rewrapping re-registers them.
            let buf = b.into_vec();
            assert_eq!(live_bytes(), live0 + 64 * sz);
            let c = ZMat::from_recycled_buffer(8, 8, buf);
            assert_eq!(live_bytes(), live0 + 128 * sz);
            drop(c);
        }
        assert_eq!(live_bytes(), live0);
        // Peak survives the drops until explicitly reset.
        assert!(peak_bytes() >= live0 + 128 * sz);
        reset_peak_bytes();
        assert_eq!(peak_bytes(), live_bytes());
    }

    #[test]
    fn construction_and_indexing() {
        let m = ZMat::from_fn(3, 2, |i, j| c64(i as f64, j as f64));
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 2);
        assert_eq!(m[(2, 1)], c64(2.0, 1.0));
        let id = ZMat::identity(4);
        assert_eq!(id.trace(), c64(4.0, 0.0));
    }

    #[test]
    fn block_roundtrip() {
        let m = ZMat::random(6, 6, 7);
        let b = m.block(1, 2, 3, 4);
        let mut n = ZMat::zeros(6, 6);
        n.set_block(1, 2, &b);
        assert_eq!(n.block(1, 2, 3, 4), b);
        assert_eq!(n[(0, 0)], Complex64::ZERO);
    }

    #[test]
    fn adjoint_involution() {
        let m = ZMat::random(4, 3, 11);
        assert_eq!(m.adjoint().adjoint(), m);
        assert_eq!(m.adjoint().rows(), 3);
    }

    #[test]
    fn hermitianize_makes_hermitian() {
        let mut m = ZMat::random(5, 5, 3);
        assert!(m.hermitian_defect() > 0.1);
        m.hermitianize();
        assert!(m.hermitian_defect() < 1e-15);
    }

    #[test]
    fn norms_agree_on_identity() {
        let id = ZMat::identity(9);
        assert!((id.norm_fro() - 3.0).abs() < 1e-15);
        assert!((id.norm_max() - 1.0).abs() < 1e-15);
        assert!((id.norm_one() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn matvec_identity_is_noop() {
        let id = ZMat::identity(5);
        let x: Vec<Complex64> = (0..5).map(|i| c64(i as f64, -(i as f64))).collect();
        let y = id.matvec(&x);
        for (a, b) in x.iter().zip(&y) {
            assert!((*a - *b).abs() < 1e-15);
        }
    }

    #[test]
    fn swap_rows_permutes() {
        let mut m = ZMat::from_fn(3, 3, |i, _| c64(i as f64, 0.0));
        m.swap_rows(0, 2);
        assert_eq!(m[(0, 0)], c64(2.0, 0.0));
        assert_eq!(m[(2, 0)], c64(0.0, 0.0));
    }

    #[test]
    fn hcat_shapes() {
        let a = ZMat::zeros(3, 2);
        let b = ZMat::identity(3);
        let c = a.hcat(&b);
        assert_eq!((c.rows(), c.cols()), (3, 5));
        assert_eq!(c[(1, 3)], Complex64::ONE);
    }

    #[test]
    fn random_is_deterministic() {
        assert_eq!(ZMat::random(4, 4, 42), ZMat::random(4, 4, 42));
        assert_ne!(ZMat::random(4, 4, 42), ZMat::random(4, 4, 43));
    }
}
