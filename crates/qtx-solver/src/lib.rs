//! # qtx-solver — SplitSolve and the direct-solver baselines (§3.B)
//!
//! Solves the Schrödinger equation with open boundary conditions,
//! `T·x = (E·S − H − Σ^RB)·x = Inj` (Eq. 5), exploiting its structure:
//! block tri-diagonal `A = E·S − H`, low-rank boundary corners
//! `Σ^RB = B·C`, and a right-hand side with non-zeros only in the top and
//! bottom block rows (Fig. 4).
//!
//! * [`two_front`] — the wave-function solve the engine runs: Σ folded
//!   into the end blocks, one elimination front from each contact, each
//!   pivot block factored once, a small tip system at the cut and a thin
//!   back-substitution outward from it.
//! * [`splitsolve`] — the paper's contribution: Sherman–Morrison–Woodbury
//!   decoupling of the OBCs from the big solve (Steps 1–4), Algorithm 1's
//!   two elimination sweeps per partition — `Q = A⁻¹B` kept as thin
//!   multipliers on the coupling supports, never formed — and the
//!   SPIKE-style recursive partition merge of Fig. 6 on corner blocks
//!   carried on the columns their reader uses, all accounted on the
//!   virtual accelerators of `qtx-accel`.
//! * [`btd_lu`] — a MUMPS-like block tri-diagonal direct factorization,
//!   the sparse-direct baseline of Fig. 8.
//! * [`bcr`] — block cyclic reduction, OMEN's legacy tight-binding solver
//!   (ref. [33]).
//! * [`rgf`] — the recursive Green's function reference used for NEGF
//!   cross-checks (diagonal blocks for the spectral function, boundary
//!   blocks for the contacts).
//! * [`caroli`] — the NEGF/Caroli transmission from two elimination
//!   fronts that meet inside the device: thin broadening factors,
//!   support-aware Schur updates, an `O(s²)` working set independent of
//!   the device length.
//!
//! ## Scratch reuse
//!
//! Every solver comes in two flavors: the original entry point (which
//! allocates a private scratch pool per call) and a `*_ws` variant taking
//! a shared [`Workspace`]. Callers that loop — energy sweeps, SCF
//! iterations, bias points — should hold one `Workspace` and pass it down
//! so the per-block temporaries of RGF/SplitSolve/block-Thomas recycle
//! instead of churning the allocator. Solver results are identical either
//! way (a property test asserts fresh-vs-recycled equality).

pub mod bcr;
pub mod btd_lu;
pub mod caroli;
pub mod error;
mod front;
pub mod rgf;
pub mod splitsolve;
pub mod system;
pub mod two_front;

pub use bcr::bcr_solve;
pub use btd_lu::{btd_lu_factor, btd_lu_solve, btd_lu_solve_ws, BtdLuFactors};
pub use caroli::{caroli_sweep, caroli_sweep_contacts, CaroliContact};
pub use error::{SolveError, SolveOutcome};
pub use rgf::{
    rgf_boundary, rgf_boundary_ws, rgf_diagonal_and_corner, rgf_diagonal_and_corner_ws,
    RgfBoundary, RgfResult,
};
pub use splitsolve::{BoundaryTerms, SplitSolve, SplitSolveReport};
pub use system::ObcSystem;
pub use two_front::two_front_solve;
// The buffer pool itself lives in `qtx-linalg` (so the OBC layer can use
// it too); re-exported here because the solver hot paths are its home.
pub use qtx_linalg::Workspace;

/// Which solver handles Eq. 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverKind {
    /// The two-ended elimination of Fig. 6 with Σ known up front: the
    /// engine runs [`two_front_solve`] — one front from each contact, each
    /// pivot block factored once — rather than [`SplitSolve`]'s Σ-free
    /// sweeps, which factor every block twice to keep Step 1 independent
    /// of the OBC. `partitions` is how many fronts may run at once: `1`
    /// keeps both on the calling thread, `≥ 2` lets them go to two threads
    /// when each is worth one. The bits are the same either way.
    SplitSolve {
        /// Upper bound on the fronts running side by side.
        partitions: usize,
    },
    /// MUMPS-like block tri-diagonal LU.
    BtdLu,
    /// Block cyclic reduction.
    Bcr,
}
