//! # qtx-linalg — dense complex linear algebra substrate
//!
//! The paper's node-level kernels are BLAS/LAPACK (`zgemm`, `zggev`,
//! `zgesv`) on the CPUs and cuBLAS/MAGMA (`d/zgemm`, `zgesv_nopiv_gpu`,
//! `zhesv_nopiv_gpu`) on the GPUs (§3.C, §5.E). No BLAS/LAPACK binding is
//! available in this environment, so this crate implements the kernels the
//! transport stack calls from scratch — one path per kernel, selected by
//! what the code can observe (CPU features, operand shape) and by nothing
//! anyone can set; `docs/linalg.md` is the ledger of which measurement
//! keeps each one:
//!
//! * [`Complex64`] — a minimal, `#[repr(C)]` double-precision complex type.
//! * [`ZMat`] — column-major dense complex matrices with views and
//!   Hermitian helpers.
//! * [`mod@gemm`] — blocked, optionally rayon-parallel complex
//!   matrix-matrix multiplication with `N`/`T`/`H` operand transforms (the
//!   `zgemm` workhorse of both FEAST and SplitSolve), including the
//!   strided [`gemm::gemm_into`] entry the factorizations accumulate
//!   through. Every dense product in the crate runs through it.
//! * [`kernel`] — the register-tile microkernel under the packed gemm
//!   path: an explicit AVX-512 (8×8) `std::arch` variant where the CPU has
//!   it, the portable scalar 8×4 loop elsewhere; detected once, a value
//!   passed down, never a switch. Only `gemm` drives it.
//! * [`mod@trsm`] — triangular solves over borrowed views (left/right,
//!   lower/upper, `N`/`T`/`H`, unit/non-unit), cache-blocked on the gemm
//!   microkernel; the substrate of every factor/solve below.
//! * [`real`] — real blocks ([`DMat`]) and their kernels: `dgemm`
//!   (and `dzgemm`, real × complex) on the same packed tile loop with the
//!   real operands flagged, `dtrsm`, and the partial-pivoting `dgetrf` /
//!   `dgetrs` — what a real pencil's Σ-late interior solve factors.
//! * [`herk`] — Hermitian rank-k update (`zherk`): the FEAST/Beyn Gram
//!   matrices at half the flops of a general product.
//! * [`lu`] — partial-pivoting LU (`zgesv`) and inverses: blocked
//!   right-looking (panel + `zlaswp` + trsm + gemm trailing update) above a
//!   size crossover, with workspace-borrowing
//!   [`lu::LuFactors::solve_into`] / [`lu::zgesv_into`] solves. Every
//!   factorization pivots; the paper's pivot-free `zgesv_nopiv` /
//!   `zhesv_nopiv` are modelled (labels and rates in `qtx-machine`,
//!   `qtx-accel`), not implemented.
//! * [`mod@qr`] — blocked compact-WY Householder QR (panel + `T`-via-trsm +
//!   gemm trailing updates above a measured ~160 crossover, the scalar
//!   reflector loop below it), orthonormalization and least squares, with
//!   workspace-borrowing factor/apply entry points.
//! * [`mod@eig`] — blocked (`zlahr2`-style) Hessenberg reduction + implicitly
//!   shifted complex QR (Schur form), eigenvectors, and the generalized
//!   solver used by the FEAST Rayleigh–Ritz step (`zggev`-lite), all with
//!   pooled `_ws` forms.
//! * [`mod@eigh`] — the Hermitian(-definite) eigensolver (`zhegv`-lite):
//!   Cholesky, reduction on trsm, blocked Householder tridiagonalization
//!   whose trailing rank-2k update is two gemms, implicit QL on the real
//!   tridiagonal; real ascending eigenvalues, vectors only on request.
//!   The set-up's band scans and the DFT substrate's charge loop run on it.
//! * [`flops`] — deterministic FLOP accounting mirroring the paper's
//!   PAPI/CUPTI measurement methodology (§5.B).
//! * [`fault`] — the deterministic fault-injection chokepoints of the
//!   robustness battery (compiled only under the crate's one cargo
//!   feature, `fault-inject`).
//!
//! All kernels count their floating-point operations; the counters are
//! what the machine model in `qtx-machine` consumes.

pub mod complex;
pub mod eig;
pub mod eigh;
pub mod fault;
pub mod flops;
pub mod gemm;
pub mod herk;
pub mod kernel;
pub mod lu;
pub mod qr;
pub mod real;
pub mod rng;
pub mod trsm;
pub mod workspace;
pub mod zmat;

pub use complex::{c64, Complex64};
pub use eig::{
    eig, eig_generalized, eig_generalized_ws, eig_ws, eigenvalues, hessenberg,
    hessenberg_unblocked, hessenberg_ws, schur, schur_ws, EigDecomposition, SchurDecomposition,
};
pub use eigh::{eigh, eigh_generalized, EighDecomposition, Vectors};
pub use flops::{flops_reset, flops_thread, flops_total, FlopScope};
pub use gemm::{gemm, gemm_into, gemm_view, matmul, Op};
pub use herk::zherk;
pub use kernel::{active_variant, available_variants, KernelVariant};
pub use lu::{
    lu_factor, lu_factor_owned_ws, lu_factor_unblocked, lu_factor_ws, lu_inverse, zgesv,
    zgesv_into, LuFactors,
};
pub use qr::{
    orthonormality_defect, orthonormalize_ws, qr, qr_factor, qr_factor_unblocked, qr_factor_ws,
    qr_least_squares, QrFactors,
};
pub use real::{dgemm, dgetrf, dtrsm, dzgemm, DLu, DMat, DMatMut, DMatRef};
pub use rng::Pcg64;
pub use trsm::{trsm, Diag, Side, UpLo};
pub use workspace::Workspace;
pub use zmat::{alloc_count, live_bytes, peak_bytes, reset_peak_bytes, ZMat, ZMatMut, ZMatRef};

/// Machine epsilon for `f64`, re-exported for tolerance bookkeeping.
pub const EPS: f64 = f64::EPSILON;

/// Error type for linear-algebra failures (singular pivots, non-convergent
/// eigen-iterations, dimension mismatches caught at runtime).
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// A pivot fell below the breakdown threshold during factorization.
    SingularPivot { index: usize, magnitude: f64 },
    /// The QR eigen-iteration failed to deflate within the iteration cap.
    NoConvergence { remaining: usize },
    /// A Cholesky pivot (the Schur complement's diagonal at `index`) was
    /// `pivot ≤ 0` or NaN: the matrix is not Hermitian positive definite.
    NotPositiveDefinite { index: usize, pivot: f64 },
    /// Matrix dimensions are inconsistent for the requested operation.
    DimensionMismatch { expected: (usize, usize), got: (usize, usize) },
    /// A kernel produced NaN/Inf entries (`count` of them) where finite
    /// values were required.
    NonFinite { op: &'static str, count: usize },
    /// A deterministic fault-injection hit (see [`fault`]); only produced
    /// by `fault-inject` builds with an armed campaign.
    Injected { site: &'static str },
    /// A lower-level failure annotated with the operation and operand
    /// shape it occurred in (the matrix/size/pivot context the failure
    /// taxonomy carries up the solve stack).
    Context { op: &'static str, dim: (usize, usize), source: Box<LinalgError> },
}

impl LinalgError {
    /// Wraps the error with the operation name and operand shape.
    pub fn with_context(self, op: &'static str, dim: (usize, usize)) -> LinalgError {
        LinalgError::Context { op, dim, source: Box::new(self) }
    }

    /// Innermost cause, stripping any [`LinalgError::Context`] layers.
    pub fn root(&self) -> &LinalgError {
        match self {
            LinalgError::Context { source, .. } => source.root(),
            other => other,
        }
    }

    /// True for errors manufactured by fault injection (at any depth).
    pub fn is_injected(&self) -> bool {
        matches!(self.root(), LinalgError::Injected { .. })
    }
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::SingularPivot { index, magnitude } => {
                write!(f, "singular pivot at index {index} (|pivot| = {magnitude:.3e})")
            }
            LinalgError::NoConvergence { remaining } => {
                write!(f, "eigen-iteration failed to converge ({remaining} eigenvalues remaining)")
            }
            LinalgError::NotPositiveDefinite { index, pivot } => {
                write!(f, "not positive definite: Cholesky pivot {pivot:.3e} at index {index}")
            }
            LinalgError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected:?}, got {got:?}")
            }
            LinalgError::NonFinite { op, count } => {
                write!(f, "{op} produced {count} non-finite entries")
            }
            LinalgError::Injected { site } => {
                write!(f, "fault injected at site {site:?}")
            }
            LinalgError::Context { op, dim, source } => {
                write!(f, "{op} on a {}x{} matrix: {source}", dim.0, dim.1)
            }
        }
    }
}

impl std::error::Error for LinalgError {}

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, LinalgError>;
