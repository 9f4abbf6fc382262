//! # qtx-core — the OMEN-like quantum transport driver (§2, §4)
//!
//! "OMEN is a massively parallel, one-, two-, and three-dimensional
//! quantum transport simulator that self-consistently solves the
//! Schrödinger and Poisson equations in nanostructures" (§4). This crate
//! is that driver:
//!
//! * [`Device`] — builds leads and block tri-diagonal device matrices from
//!   the CP2K-lite transfer data, including the in-OMEN `H(k)/S(k)`
//!   folding for periodic transverse directions (§2.B) and the per-slab
//!   electrostatic potential;
//! * [`transport`] — one (E, k) pixel: FEAST/shift-invert OBCs, the
//!   SplitSolve/BTD-LU/BCR solve of Eq. 5, wave-function transmission with
//!   the Caroli (RGF/NEGF, Eq. 4) cross-check;
//! * [`EnergyGrid`] — OMEN's automatic energy grid ("not an input
//!   parameter, but automatically generated based on the minimum and
//!   maximum allowed distance between two consecutive energy points",
//!   Fig. 11 caption);
//! * [`observables`] — charge density, current maps and spectral currents
//!   (Fig. 10);
//! * [`scf`] — the self-consistent Schrödinger–Poisson loop and Id–Vgs
//!   sweeps (Fig. 1(d)), [`TransportEngine::schrodinger_poisson`] /
//!   [`TransportEngine::id_vgs`]: a client of the sweep loop below;
//! * [`engine`] — [`TransportEngine`], the one front door: point solves
//!   under a [`PointPolicy`] and the sweeps below, over state (folded
//!   devices, scheduler pool, Σ-cache) it owns once;
//! * [`sweep`] — the momentum/energy levels of Fig. 9 as tasks on the
//!   work-stealing pool of [`scheduler`] (the spatial level is SplitSolve):
//!   one loop behind [`TransportEngine::sweep`], `sweep_resumable` and
//!   `sweep_refined`, with checkpoint/resume, adaptive refinement
//!   ([`refine`]) and the paper's dynamic node-per-k allocation
//!   (ref. \[45\]) priced by a pure gather-cost model instead of run.
//!
//! The crate holds no process-wide state and reads no environment
//! variable: a pool belongs to the engine that created it or to the caller
//! who passed it in, and a Σ-cache exists only where a caller passed one
//! ([`TransportEngineBuilder`], [`SweepOptionsBuilder`]).

pub mod cache;
pub mod checkpoint;
pub mod device;
pub mod energygrid;
pub mod engine;
pub mod error;
pub mod landauer;
pub mod observables;
pub mod refine;
pub mod scf;
pub mod scheduler;
pub mod sweep;
pub mod transport;

pub use cache::{CacheConfig, CachePolicy, CacheStats, SigmaCache};
pub use checkpoint::CheckpointError;
pub use device::{Device, DeviceK, TransportConfig};
pub use energygrid::EnergyGrid;
pub use engine::{PointPolicy, TransportEngine, TransportEngineBuilder};
pub use error::{TransportError, TransportResult};
pub use landauer::{
    fermi, landauer_current_counted_ua, landauer_current_ua, landauer_integrate,
    LandauerIntegration, CONDUCTANCE_QUANTUM_US,
};
pub use observables::{ChargeAndCurrent, SpectralData};
pub use refine::{refined_fingerprint, RefineConfig, RefinedSweep};
pub use scf::{id_vgs, schrodinger_poisson, IvPoint, ScfConfig, ScfResult};
pub use scheduler::{
    BatchOptions, BatchStats, Scheduler, SchedulerConfig, TaskAttempt, TaskReport,
};
pub use sweep::{
    Batching, PointRecord, SweepHealth, SweepOptions, SweepOptionsBuilder, SweepOptionsError,
    SweepPlan, SweepResult,
};
pub use transport::{
    caroli_transmission, EnergyPointResult, PointOutcome, RobustSolve, LADDER_METHOD_NAMES,
    METHOD_BOUNDARY, METHOD_FAILED,
};

/// Convenience one-shot ballistic transmission at a single energy with
/// default configuration (quickstart API), on the calling thread.
pub fn transmission(device: &Device, energy: f64) -> TransportResult<EnergyPointResult> {
    let dk = device.at_kz(0.0);
    transport::solve_point_direct(&dk, energy, &device.config, None)
}
