//! # qtx-mpi — simulated message passing (§4, Fig. 9)
//!
//! OMEN distributes its workload with MPI through "a hierarchical
//! organization of communicators": momentum `k` at the top, energy `E`
//! below it, and a 1-D spatial domain decomposition at the bottom. No MPI
//! runtime exists here, so this crate provides the documented
//! substitution: ranks run as OS threads and exchange messages through
//! crossbeam channels, with the same communicator semantics
//! (`split`, `barrier`, `bcast`, `allreduce`, `gather`, point-to-point)
//! plus a latency/bandwidth cost model feeding the virtual timeline.
//!
//! The transport sweeps of `qtx-core` do not run ranks: their points are
//! tasks on a scheduler pool, and the Fig. 9 gather is only priced, by
//! the pure [`CostModel::fig9_gather_seconds`]. The threaded fabric is the
//! reference that function is tested against
//! (`crates/core/tests/one_sweep_path.rs`); the 18 564-node experiments
//! replay through the analytic model in `qtx-machine`, mirroring how the
//! paper extrapolates from per-energy-point measurements.

pub mod comm;
pub mod frame;
pub mod world;

pub use comm::Comm;
pub use frame::{exact_frames, FrameError};
pub use world::{run_world, CostModel};
