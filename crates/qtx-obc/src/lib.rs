//! # qtx-obc — open boundary conditions (§3.A)
//!
//! Injecting electrons at the contacts of Eq. 5 requires the boundary
//! self-energy `Σ^RB(E)` and injection vector `Inj(E)`, both built from
//! the wave vectors `k_B` and eigenmodes `u_B` of the semi-infinite leads.
//! Those come from the polynomial eigenvalue problem Eq. 6, which this
//! crate linearizes into a quadratic companion pencil after folding `NBW`
//! unit cells into one superblock (the paper's "analytical block LU"
//! size reduction appears here as the `nf`-sized polynomial solve in
//! [`companion::CompanionPencil::solve_shifted`]).
//!
//! Three interchangeable algorithms produce the lead modes:
//!
//! * [`feast::feast_annulus`] — the paper's contribution: a contour
//!   integration (FEAST) projector on the annulus `1/R < |λ| < R` around
//!   the unit circle (Fig. 5), catching the propagating and slow-decaying
//!   modes while ignoring the numerically irrelevant fast-decaying ones;
//! * [`baselines::shift_invert_modes`] — the tight-binding-era baseline
//!   (ref. \[38\]): dense `(A − σB)⁻¹B` spectral transformation;
//! * [`baselines::sancho_rubio`] — the iterative decimation scheme of
//!   ref. \[40\], used here as an independent ground truth for `Σ^RB`.
//!
//! Conventions (fixed by the 1-D analytic chain and enforced by tests):
//! `T = E·S − H`; device cells are `q = 0..nb−1`; the left lead occupies
//! `q ≤ −1` and the right lead `q ≥ nb`; retarded boundary conditions keep
//! modes that propagate (group velocity) or decay *away* from the device.

pub mod baselines;
pub mod beyn;
pub mod companion;
pub mod error;
pub mod feast;
pub mod frame;
pub mod lead;
pub mod modes;
pub mod selfenergy;

pub use baselines::{dense_modes, sancho_rubio, shift_invert_modes};
pub use beyn::{beyn_annulus, beyn_annulus_ws, BeynConfig};
pub use companion::CompanionPencil;
pub use error::{ObcError, ObcOutcome};
pub use feast::{feast_annulus, feast_annulus_ws, FeastConfig, FeastStats};
pub use frame::{decode_obc_result, encode_obc_result, FrameDecodeError};
pub use lead::LeadBlocks;
pub use modes::{classify_modes, classify_modes_eta, LeadModes, ModeSet};
pub use selfenergy::{
    lead_modes, obc_solves_total, self_energy, self_energy_decimation, self_energy_pair, Eta,
    ObcResult, Side,
};

/// Which algorithm computes the lead modes / self-energies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ObcMethod {
    /// FEAST annulus contour integration (the paper's method).
    Feast(FeastConfig),
    /// Beyn's single-shot contour moments (the ref. \[43\] modification the
    /// paper suggests for further speedups).
    Beyn(BeynConfig),
    /// Dense shift-and-invert spectral transformation (baseline, ref. \[38\]).
    ShiftInvert,
    /// Sancho–Rubio decimation (NEGF-era baseline, ref. \[40\]); produces
    /// `Σ` directly, no modes — injection then falls back to shift-invert.
    Decimation,
}

impl Default for ObcMethod {
    fn default() -> Self {
        ObcMethod::Feast(FeastConfig::default())
    }
}
