//! Top-level transport failure taxonomy.
//!
//! Every layer below reports typed, diagnostic-carrying errors
//! (`LinalgError` → `ObcError` / `SolveError`); this module folds them
//! into the one error the driver reasons about. The escalation ladder in
//! [`crate::transport`] consumes these to decide the next rung, and the
//! sweep health accounting in [`crate::sweep`] records what survived.

use qtx_linalg::LinalgError;
use qtx_obc::{ObcError, Side};
use qtx_solver::SolveError;

/// What went wrong at one (E, k) transport pixel.
#[derive(Debug)]
pub enum TransportError {
    /// The OBC algorithm failed for one contact.
    Obc {
        /// Which contact.
        side: Side,
        /// The diagnostic-carrying OBC error.
        source: ObcError,
    },
    /// The Eq. 5 solver failed.
    Solve(SolveError),
    /// A dense kernel failed outside the OBC/solver layers.
    Linalg(LinalgError),
    /// A stream of fixed-size records failed frame validation (a torn
    /// record in a checkpoint body).
    Payload(qtx_mpi::FrameError),
    /// A sweep checkpoint file was unreadable or inconsistent.
    Checkpoint(crate::checkpoint::CheckpointError),
    /// A scheduler worker caught a panicking point solve; the panic
    /// payload is preserved as text. Unlike the typed failures above this
    /// carries no ladder diagnostics — the solve never returned.
    Panic {
        /// The panic payload, rendered to text.
        what: String,
    },
    /// The request does not fit how the engine was set up, or is itself
    /// malformed — a caller mistake (a momentum a fixed-`DeviceK` engine
    /// was never seeded with, a sweep on an engine that has no
    /// [`crate::Device`] to fold, a sweep plan whose grids do not pair up
    /// with its momenta or hold non-finite values), not a numerical
    /// failure: nothing was solved and retrying cannot help.
    Config {
        /// What was asked for and why this engine cannot serve it.
        what: String,
    },
    /// Only the mode-free decimation rung answered: a transmission but no
    /// scattering states. Fatal where the states are the product (the
    /// Schrödinger–Poisson loop's charge), nowhere else.
    NoStates {
        /// Energy of the point (eV).
        e: f64,
        /// Transverse momentum of the point.
        kz: f64,
    },
    /// Every rung of the escalation ladder was exhausted.
    Exhausted {
        /// Energy of the abandoned point (eV).
        e: f64,
        /// Transverse momentum of the abandoned point.
        kz: f64,
        /// Total solve attempts across all rungs.
        attempts: u32,
        /// The failure of the last rung tried.
        last: Box<TransportError>,
    },
}

impl TransportError {
    /// True when the root cause is a deterministically injected fault.
    pub fn is_injected(&self) -> bool {
        match self {
            TransportError::Obc { source, .. } => source.is_injected(),
            TransportError::Solve(e) => e.is_injected(),
            TransportError::Linalg(e) => e.is_injected(),
            TransportError::Payload(_)
            | TransportError::Checkpoint(_)
            | TransportError::Config { .. }
            | TransportError::NoStates { .. } => false,
            // A panic may *originate* from the injected `sched_panic`
            // site, but it carries no typed provenance — the sweep health
            // counts panics separately from injected ladder faults.
            TransportError::Panic { .. } => false,
            TransportError::Exhausted { last, .. } => last.is_injected(),
        }
    }
}

impl From<SolveError> for TransportError {
    fn from(e: SolveError) -> Self {
        TransportError::Solve(e)
    }
}

impl From<LinalgError> for TransportError {
    fn from(e: LinalgError) -> Self {
        TransportError::Linalg(e)
    }
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Obc { side, source } => write!(f, "OBC failure ({side:?}): {source}"),
            TransportError::Solve(e) => write!(f, "solver failure: {e}"),
            TransportError::Linalg(e) => write!(f, "linear-algebra failure: {e}"),
            TransportError::Payload(e) => write!(f, "sweep record stream invalid: {e}"),
            TransportError::Checkpoint(e) => write!(f, "sweep checkpoint invalid: {e}"),
            TransportError::Panic { what } => write!(f, "worker caught a panicking solve: {what}"),
            TransportError::Config { what } => write!(f, "request does not fit the engine: {what}"),
            TransportError::NoStates { e, kz } => write!(
                f,
                "no scattering states at E={e} kz={kz}: only the mode-free decimation rung \
                 produced the point"
            ),
            TransportError::Exhausted { e, kz, attempts, last } => write!(
                f,
                "escalation ladder exhausted at E={e} kz={kz} after {attempts} attempts: {last}"
            ),
        }
    }
}

impl std::error::Error for TransportError {}

/// Result alias for the transport driver.
pub type TransportResult<T> = std::result::Result<T, TransportError>;
