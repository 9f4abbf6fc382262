//! Reusable scratch-matrix pool for the solver hot paths.
//!
//! RGF sweeps, SplitSolve's local column solves and FEAST's subspace
//! products all consume short-lived dense temporaries of a handful of
//! recurring shapes, once per block per energy point — thousands of
//! `ZMat::zeros`/`clone` calls per sweep in the seed implementation. A
//! [`Workspace`] turns that churn into buffer reuse: [`Workspace::take`]
//! hands out a zeroed matrix backed by a recycled buffer when one of
//! sufficient capacity is pooled, and [`Workspace::recycle`] returns a
//! spent temporary's buffer to the pool.
//!
//! The pool is internally synchronized (a mutex around a `Vec` of spare
//! buffers), so one `Workspace` can be shared across rayon tasks — e.g.
//! SplitSolve's per-partition sweeps recycle through the same pool. Lock
//! traffic is one uncontended acquire per take/recycle, far below the
//! cost of the gemm/LU work between them.
//!
//! Results produced with a recycled buffer are bit-identical to results
//! produced with fresh allocations: `take` zero-fills, and the gemm
//! `β = 0` path never reads the output. A property test
//! (`workspace_reuse_is_transparent` in the top-level `properties` suite)
//! asserts exactly this fresh-vs-recycled equality across whole solver
//! runs.

use crate::complex::Complex64;
use crate::gemm::{gemm_view, Op};
use crate::zmat::{ZMat, ZMatRef};
use std::cell::RefCell;
use std::sync::Mutex;

thread_local! {
    /// Per-thread raw staging scratch for the triangle kernels — `trsm`'s
    /// solved block rows and the compact-WY `T` products of `qr` (a dense
    /// copy of `T` plus the product): small per-call buffers that were
    /// freshly allocated and zero-filled on every call — measurable
    /// against a ≤64-sized solve. The high-water buffer is kept per
    /// thread, so repeat calls at steady-state sizes reuse warm memory
    /// with no synchronization.
    static TRI_SCRATCH: RefCell<Vec<Complex64>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` over a `need`-element slice of the calling thread's triangular
/// staging scratch. Contents are **unspecified** (whatever the previous
/// call left); callers must write before reading. Not reentrant: `f` must
/// not call back into a kernel that takes the scratch itself (its two
/// users never do — their inner calls are gemms).
pub(crate) fn with_tri_scratch<R>(need: usize, f: impl FnOnce(&mut [Complex64]) -> R) -> R {
    TRI_SCRATCH.with(|cell| {
        let mut buf = cell.borrow_mut();
        if buf.len() < need {
            buf.resize(need, Complex64::ZERO);
        }
        f(&mut buf[..need])
    })
}

/// A pool of reusable column-major buffers for dense temporaries.
///
/// Besides the complex matrix pool, the workspace also pools the
/// `Vec<usize>` index buffers the pivoted factorizations consume (one
/// `ipiv` interchange sequence per LU call):
/// [`Workspace::take_index`] hands out an identity-initialized index
/// vector from the spare pile and [`Workspace::recycle_index`] returns a
/// spent one, so the zero-allocation property of a warm factor+solve loop
/// covers the pivot bookkeeping too.
#[derive(Debug, Default)]
pub struct Workspace {
    pool: Mutex<Vec<Vec<Complex64>>>,
    fresh: Mutex<u64>,
    idx_pool: Mutex<Vec<Vec<usize>>>,
    idx_fresh: Mutex<u64>,
}

impl Workspace {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Hands out a zeroed `rows × cols` matrix, reusing the best-fitting
    /// pooled buffer (falling back to a fresh allocation).
    pub fn take(&self, rows: usize, cols: usize) -> ZMat {
        let mut m = self.take_scratch(rows, cols);
        m.as_mut_slice().fill(Complex64::ZERO);
        m
    }

    /// Like [`Workspace::take`] but **without zeroing**: element contents
    /// are unspecified. Only for callers that overwrite every element
    /// before reading (β = 0 products, full copies, the
    /// `solve_into`/`solve_in_place` factorization sinks) — skipping the
    /// zero-fill halves the memory traffic of the pool's hottest users.
    pub fn take_scratch(&self, rows: usize, cols: usize) -> ZMat {
        let need = rows * cols;
        if need == 0 {
            // An empty matrix owns no buffer: nothing to reuse, nothing
            // allocated, and nothing for `recycle` to keep.
            return ZMat::zeros(rows, cols);
        }
        let recycled = {
            let mut pool = self.pool.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            // Best fit: the smallest pooled buffer with enough capacity,
            // so a huge buffer isn't burned on a tiny tip solve.
            let mut best: Option<(usize, usize)> = None;
            for (idx, buf) in pool.iter().enumerate() {
                let cap = buf.capacity();
                if cap >= need && best.is_none_or(|(_, c)| cap < c) {
                    best = Some((idx, cap));
                }
            }
            best.map(|(idx, _)| pool.swap_remove(idx))
        };
        match recycled {
            Some(buf) => ZMat::from_recycled_buffer(rows, cols, buf),
            None => {
                *self.fresh.lock().unwrap_or_else(std::sync::PoisonError::into_inner) += 1;
                ZMat::zeros(rows, cols)
            }
        }
    }

    /// Returns a spent temporary's buffer to the pool.
    pub fn recycle(&self, m: ZMat) {
        let buf = m.into_vec();
        if buf.capacity() == 0 {
            return;
        }
        self.pool.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(buf);
    }

    /// Pool-backed copy of a matrix (the reusable counterpart of `clone`).
    pub fn copy_of(&self, src: &ZMat) -> ZMat {
        let mut out = self.take_scratch(src.rows(), src.cols());
        out.as_mut_slice().copy_from_slice(src.as_slice());
        out
    }

    /// Pool-backed materialization of a view (the reusable counterpart of
    /// `ZMat::block`).
    pub fn copy_of_view(&self, src: ZMatRef<'_>) -> ZMat {
        let mut out = self.take_scratch(src.rows(), src.cols());
        for j in 0..src.cols() {
            out.col_mut(j).copy_from_slice(src.col(j));
        }
        out
    }

    /// Pool-backed product `op(A)·op(B)` (β = 0, α = 1).
    pub fn matmul_op(&self, a: &ZMat, op_a: Op, b: &ZMat, op_b: Op) -> ZMat {
        self.matmul_op_view(a.view(), op_a, b.view(), op_b)
    }

    /// Pool-backed product over views.
    pub fn matmul_op_view(&self, a: ZMatRef<'_>, op_a: Op, b: ZMatRef<'_>, op_b: Op) -> ZMat {
        let m = match op_a {
            Op::None => a.rows(),
            _ => a.cols(),
        };
        let n = match op_b {
            Op::None => b.cols(),
            _ => b.rows(),
        };
        // β = 0: gemm never reads the output, so unzeroed scratch is safe.
        let mut c = self.take_scratch(m, n);
        gemm_view(Complex64::ONE, a, op_a, b, op_b, Complex64::ZERO, &mut c);
        c
    }

    /// Pool-backed plain product `A·B`.
    pub fn matmul(&self, a: &ZMat, b: &ZMat) -> ZMat {
        self.matmul_op(a, Op::None, b, Op::None)
    }

    /// Hands out an index buffer holding the identity permutation
    /// `0, 1, …, n−1`, reusing a pooled buffer's capacity when one is
    /// available — the pivot-vector counterpart of [`Workspace::take`],
    /// consumed by `lu_factor_ws`-style factorizations for their `ipiv`
    /// vector.
    pub fn take_index(&self, n: usize) -> Vec<usize> {
        let recycled = {
            let mut pool = self.idx_pool.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            let mut best: Option<(usize, usize)> = None;
            for (idx, buf) in pool.iter().enumerate() {
                let cap = buf.capacity();
                if cap >= n && best.is_none_or(|(_, c)| cap < c) {
                    best = Some((idx, cap));
                }
            }
            best.map(|(idx, _)| pool.swap_remove(idx))
        };
        match recycled {
            Some(mut buf) => {
                buf.clear();
                buf.extend(0..n);
                buf
            }
            None => {
                *self.idx_fresh.lock().unwrap_or_else(std::sync::PoisonError::into_inner) += 1;
                (0..n).collect()
            }
        }
    }

    /// Returns a spent index buffer to the pool.
    pub fn recycle_index(&self, v: Vec<usize>) {
        if v.capacity() == 0 {
            return;
        }
        self.idx_pool.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(v);
    }

    /// Fresh (non-recycled) allocations the pool has had to make — the
    /// steady-state value stays flat once the pool is warm, which the
    /// reuse tests assert.
    pub fn fresh_allocations(&self) -> u64 {
        *self.fresh.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Fresh index-buffer allocations (see [`Workspace::take_index`]).
    pub fn fresh_index_allocations(&self) -> u64 {
        *self.idx_fresh.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Number of currently pooled spare buffers.
    pub fn pooled(&self) -> usize {
        self.pool.lock().unwrap_or_else(std::sync::PoisonError::into_inner).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;

    #[test]
    fn take_recycle_reuses_capacity() {
        let ws = Workspace::new();
        let a = ws.take(8, 8);
        ws.recycle(a);
        assert_eq!(ws.pooled(), 1);
        let b = ws.take(4, 4); // smaller: reuses the 64-element buffer
        assert_eq!(ws.pooled(), 0);
        assert_eq!(ws.fresh_allocations(), 1);
        ws.recycle(b);
        let _c = ws.take(16, 16); // larger: needs a fresh allocation
        assert_eq!(ws.fresh_allocations(), 2);
    }

    #[test]
    fn take_zeroes_recycled_buffers() {
        let ws = Workspace::new();
        let mut a = ws.take(3, 3);
        for z in a.as_mut_slice().iter_mut() {
            *z = c64(7.0, -7.0);
        }
        ws.recycle(a);
        let b = ws.take(3, 3);
        assert!(b.as_slice().iter().all(|z| *z == Complex64::ZERO));
    }

    #[test]
    fn matmul_matches_operator() {
        let ws = Workspace::new();
        let a = ZMat::random(9, 7, 1);
        let b = ZMat::random(7, 5, 2);
        let direct = &a * &b;
        let pooled = ws.matmul(&a, &b);
        assert!(pooled.max_diff(&direct) < 1e-14);
        ws.recycle(pooled);
        // Second product through the recycled buffer is identical.
        let again = ws.matmul(&a, &b);
        assert!(again.max_diff(&direct) < 1e-14);
        assert_eq!(ws.fresh_allocations(), 1);
    }

    #[test]
    fn best_fit_prefers_smaller_buffer() {
        let ws = Workspace::new();
        let big = ws.take(32, 32);
        let small = ws.take(4, 4);
        ws.recycle(big);
        ws.recycle(small);
        let m = ws.take(4, 4);
        // The 16-element buffer was chosen, leaving the 1024-element one.
        assert_eq!(ws.pooled(), 1);
        assert!(ws.pool.lock().unwrap().iter().all(|b| b.capacity() >= 1024));
        drop(m);
    }

    #[test]
    fn index_pool_reuses_capacity() {
        let ws = Workspace::new();
        let a = ws.take_index(16);
        assert_eq!(a, (0..16).collect::<Vec<_>>());
        ws.recycle_index(a);
        // Smaller request reuses the 16-slot buffer, re-identity-filled.
        let b = ws.take_index(8);
        assert_eq!(b, (0..8).collect::<Vec<_>>());
        assert_eq!(ws.fresh_index_allocations(), 1);
        ws.recycle_index(b);
        let _c = ws.take_index(32); // larger: fresh allocation
        assert_eq!(ws.fresh_index_allocations(), 2);
    }

    #[test]
    fn shared_across_threads() {
        let ws = Workspace::new();
        std::thread::scope(|s| {
            for t in 0..4 {
                let ws = &ws;
                s.spawn(move || {
                    for i in 0..50 {
                        let m = ws.take(6 + t % 3, 6);
                        assert_eq!(m.rows(), 6 + t % 3);
                        let _ = i;
                        ws.recycle(m);
                    }
                });
            }
        });
        // Pool stabilizes at ≤ one buffer per concurrently live take.
        assert!(ws.pooled() <= 4);
    }
}
