//! # qtx-sparse — sparse matrix substrate
//!
//! DFT Hamiltonians in a contracted-Gaussian basis are "usually block
//! tri-diagonal" (§2.B) with roughly 100× more non-zero entries than their
//! tight-binding counterparts (Fig. 3). This crate provides the two
//! representations the transport stack uses:
//!
//! * [`Csr`] — classic compressed sparse row storage, the exchange format
//!   between the DFT substrate and the transport driver, plus sparsity
//!   analytics (Fig. 3) and spy-pattern rendering (Fig. 4).
//! * [`Btd`] — block tri-diagonal storage with dense blocks, the native
//!   layout of the Schrödinger matrix `T = E·S − H − Σ^RB` that SplitSolve
//!   and the RGF kernels consume.
//! * [`BlockChain`] — the same matrix read one block at a time, either
//!   from an assembled [`Btd`] or from the pencil [`EsMinusH`] evaluated
//!   on the fly, with the structural [`CouplingSupport`] of its coupling
//!   blocks: what a streaming elimination sweep consumes.
//!
//! The crate has no matrix-product kernel: products over these blocks go
//! through `qtx_linalg::gemm`.

pub mod btd;
pub mod chain;
pub mod csr;
pub mod error;
pub mod lowrank;
pub mod spy;
pub mod stats;

pub use btd::Btd;
pub use chain::{
    BlockChain, BlockSupport, ChainSupport, CouplingSupport, EsMinusH, Mirrored, Reversed,
};
pub use csr::{Csr, CsrBuilder};
pub use error::SparseShapeError;
pub use lowrank::CompressedSigma;
pub use spy::spy_string;
pub use stats::{
    btd_stats, dense_matrix_bytes, live_matrix_bytes, peak_matrix_bytes, reset_peak_matrix_bytes,
    sparsity_stats, BtdStats, SparsityStats,
};
