//! # qtx-bench — reproduction harness
//!
//! One binary per paper table/figure (`repro_*`) plus criterion benches.
//! See `EXPERIMENTS.md` for the paper-vs-measured record. Shared helpers
//! live here.

pub mod harness;

pub use harness::{print_table, Row};

use qtx_core::DeviceK;
use qtx_obc::{self_energy_pair, Eta, ObcMethod};
use qtx_solver::ObcSystem;

/// The assembled Eq. 5 system of one energy point — `E·S − H`, both lead
/// self-energies and injections from `obc` — for the figures that run
/// SplitSolve on it themselves to draw its virtual-accelerator timeline.
pub fn point_system(dk: &DeviceK, e: f64, obc: ObcMethod) -> ObcSystem {
    let (left, right) = self_energy_pair(&dk.lead_l, &dk.lead_r, e, Eta::ZERO, obc)
        .unwrap_or_else(|(side, err)| panic!("{side:?} self-energy at E = {e}: {err:?}"));
    ObcSystem {
        a: dk.es_minus_h(e),
        sigma_l: left.sigma,
        sigma_r: right.sigma,
        rhs_top: left.injection,
        rhs_bottom: right.injection,
    }
}
