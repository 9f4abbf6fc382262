//! # qtx-cp2k — the DFT substrate ("CP2K-lite", §2.A, Fig. 2)
//!
//! In the paper, CP2K builds the nanostructure, relaxes it, solves the
//! Kohn–Sham equation (Eq. 1) in a contracted-Gaussian basis (Eq. 2) and
//! ships the Hamiltonian/overlap matrices to OMEN through binary files.
//! This crate is the documented substitution for Quickstep: it starts from
//! the two-centre parameterization of `qtx-atomistic`, runs a small
//! **self-consistent charge loop** (Mulliken charges → on-site Hartree
//! shifts → new H, mirroring the Kohn–Sham self-consistency at the level
//! transport actually sees), applies the **exchange-correlation
//! functional knob** (LDA baseline, PBE, HSE06-like hybrid gap opening —
//! Fig. 1(b)), and writes/reads the **binary H/S transfer files** of
//! Fig. 2.
//!
//! ```
//! use qtx_atomistic::{BasisKind, DeviceBuilder};
//! use qtx_cp2k::{Cp2kRun, Functional};
//!
//! let spec = DeviceBuilder::nanowire(0.8).cells(6).basis(BasisKind::TightBinding).build();
//! let hs = Cp2kRun::new(spec).functional(Functional::Lda).generate().unwrap();
//! assert!(hs.unit_cell.n_orb > 0);
//! ```

pub mod functional;
pub mod hsfile;
pub mod scf;

pub use functional::Functional;
pub use hsfile::HsFile;
pub use scf::{Cp2kError, Cp2kRun, ScfReport};
