//! Typed OBC failure taxonomy.
//!
//! Boundary-condition failures are the dominant failure mode of a long
//! energy sweep — FEAST stalls when modes straddle the contour, Beyn's
//! single-shot moments go rank-deficient near band edges, Sancho–Rubio
//! decimation refuses to converge at in-band energies without broadening.
//! The escalation ladder in `qtx-core` decides *how to retry* based on
//! *what failed*, so every variant here carries the convergence
//! diagnostics of the algorithm that gave up: iteration counts, residuals,
//! ranks, and the underlying linear-algebra cause when there is one.

use qtx_linalg::LinalgError;

/// What went wrong while building lead modes or self-energies.
#[derive(Debug, Clone, PartialEq)]
pub enum ObcError {
    /// FEAST gave up after `iterations` subspace refinements and
    /// `linear_solves` quadrature solves; `max_residual` is the worst
    /// eigenpair residual it last accepted (0 when nothing converged).
    Feast { iterations: usize, linear_solves: usize, max_residual: f64, source: Box<ObcError> },
    /// Beyn's single-shot moments failed with `probes` probe columns and
    /// a revealed moment rank of `rank` (0 when the failure predates the
    /// rank-revealing step).
    Beyn { probes: usize, rank: usize, source: Box<ObcError> },
    /// Sancho–Rubio decimation exhausted `iterations` without the
    /// couplings decaying below tolerance; `defect` is the relative
    /// coupling norm still standing.
    SanchoRubio { iterations: usize, defect: f64 },
    /// The dense shift-and-invert route failed.
    ShiftInvert { source: Box<ObcError> },
    /// An eigensolver ran to completion but produced no usable modes
    /// where modes were required.
    NoModes { method: &'static str },
    /// An eigensolver stopped with `pending` Ritz values on the unit circle
    /// (propagating candidates) whose residuals never met its tolerance;
    /// `residual` is the smallest of theirs. Such a value is a mode, not
    /// quadrature leakage, so accepting the rest would drop a channel.
    StalledModes { method: &'static str, pending: usize, residual: f64 },
    /// A finished OBC output (`Σ`, injection, ...) contained `count`
    /// NaN/Inf entries.
    NonFinite { what: &'static str, count: usize },
    /// Underlying dense linear-algebra failure (factorization pivots,
    /// eigen-iteration stalls, injected faults).
    Linalg(LinalgError),
}

impl ObcError {
    /// True when the root cause is a deterministic injected fault (the
    /// ladder treats those exactly like organic failures; tests use this
    /// to separate the two).
    pub fn is_injected(&self) -> bool {
        match self {
            ObcError::Feast { source, .. }
            | ObcError::Beyn { source, .. }
            | ObcError::ShiftInvert { source } => source.is_injected(),
            ObcError::Linalg(e) => e.is_injected(),
            _ => false,
        }
    }

    /// True when the root cause is [`ObcError::StalledModes`]: propagating
    /// modes were seen but not resolved, which the escalation ladder must
    /// hear about rather than a fallback papering over it.
    pub fn is_stalled_modes(&self) -> bool {
        match self {
            ObcError::Feast { source, .. }
            | ObcError::Beyn { source, .. }
            | ObcError::ShiftInvert { source } => source.is_stalled_modes(),
            ObcError::StalledModes { .. } => true,
            _ => false,
        }
    }

    /// Innermost linear-algebra cause, if the failure has one.
    pub fn root_linalg(&self) -> Option<&LinalgError> {
        match self {
            ObcError::Feast { source, .. }
            | ObcError::Beyn { source, .. }
            | ObcError::ShiftInvert { source } => source.root_linalg(),
            ObcError::Linalg(e) => Some(e.root()),
            _ => None,
        }
    }
}

impl From<LinalgError> for ObcError {
    fn from(e: LinalgError) -> Self {
        ObcError::Linalg(e)
    }
}

impl std::fmt::Display for ObcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ObcError::Feast { iterations, linear_solves, max_residual, source } => write!(
                f,
                "FEAST failed after {iterations} refinements / {linear_solves} solves \
                 (last residual {max_residual:.3e}): {source}"
            ),
            ObcError::Beyn { probes, rank, source } => {
                write!(f, "Beyn failed ({probes} probes, moment rank {rank}): {source}")
            }
            ObcError::SanchoRubio { iterations, defect } => write!(
                f,
                "Sancho-Rubio decimation did not converge in {iterations} iterations \
                 (coupling defect {defect:.3e})"
            ),
            ObcError::ShiftInvert { source } => write!(f, "shift-invert route failed: {source}"),
            ObcError::NoModes { method } => {
                write!(f, "{method} produced no usable modes")
            }
            ObcError::StalledModes { method, pending, residual } => write!(
                f,
                "{method} left {pending} propagating Ritz values unconverged \
                 (best residual {residual:.3e})"
            ),
            ObcError::NonFinite { what, count } => {
                write!(f, "OBC output {what} has {count} non-finite entries")
            }
            ObcError::Linalg(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ObcError {}

/// Result alias for OBC computations.
pub type ObcOutcome<T> = std::result::Result<T, ObcError>;
