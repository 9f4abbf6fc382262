//! Typed solver failure taxonomy.
//!
//! Interior-solve failures are rarer than OBC failures (the bulk blocks
//! are diagonally dominant away from resonances) but when they happen the
//! escalation ladder needs to know *which* solver failed and whether the
//! output silently went non-finite — a NaN block propagated through an
//! RGF sweep poisons every downstream observable without any factorization
//! ever erroring.

use qtx_linalg::LinalgError;

/// What went wrong while solving Eq. 5.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// Underlying dense factorization/solve failure (the `LinalgError`
    /// context chain records the kernel and operand shape).
    Linalg(LinalgError),
    /// The finished solution of `solver` contained `count` NaN/Inf
    /// entries.
    NonFinite { solver: &'static str, count: usize },
    /// A deterministic injected fault at a solver chokepoint.
    Injected { site: &'static str },
    /// `what` (a self-energy or an injection) has a non-zero entry in
    /// `row`, which the contact rows handed to the solver exclude — the
    /// structure and the boundary terms belong to different leads.
    OutsideContact { what: &'static str, row: usize },
}

impl SolveError {
    /// True when the root cause is a deterministic injected fault.
    pub fn is_injected(&self) -> bool {
        match self {
            SolveError::Linalg(e) => e.is_injected(),
            SolveError::Injected { .. } => true,
            SolveError::NonFinite { .. } | SolveError::OutsideContact { .. } => false,
        }
    }
}

impl From<LinalgError> for SolveError {
    fn from(e: LinalgError) -> Self {
        SolveError::Linalg(e)
    }
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::Linalg(e) => write!(f, "{e}"),
            SolveError::NonFinite { solver, count } => {
                write!(f, "{solver} solution has {count} non-finite entries")
            }
            SolveError::Injected { site } => write!(f, "fault injected at site {site:?}"),
            SolveError::OutsideContact { what, row } => {
                write!(f, "{what} occupies row {row}, outside the contact rows of the chain")
            }
        }
    }
}

impl std::error::Error for SolveError {}

/// Result alias for solver entry points.
pub type SolveOutcome<T> = std::result::Result<T, SolveError>;
