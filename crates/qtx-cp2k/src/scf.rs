//! Self-consistent charge loop ("Quickstep-lite").
//!
//! The Kohn–Sham self-consistency that matters to transport is the
//! feedback between occupation and on-site potential: Mulliken populations
//! shift the on-site energies through the Hartree term, which shifts the
//! populations back. This loop implements exactly that cycle on the
//! unit-cell Hamiltonian:
//!
//! 1. diagonalize the folded `H(k=0)` against `S`,
//! 2. occupy the lowest half of the spectrum (charge neutrality),
//! 3. compute Mulliken charges `q_a = Σ_{µ∈a} (P·S)_{µµ}`,
//! 4. shift on-site energies by `U·(q_a − q⁰_a)` with damping,
//! 5. repeat until the charges stop moving.
//!
//! The final matrices — plus the functional's gap correction — are what
//! OMEN imports (Fig. 2).

use crate::functional::Functional;
use crate::hsfile::HsFile;
use qtx_atomistic::assemble::assemble_unit_cell;
use qtx_atomistic::devices::DeviceSpec;
use qtx_linalg::{c64, eigh_generalized, gemm, gemm_view, Complex64, Op, Result, Vectors, ZMat};
use serde::{Deserialize, Serialize};

/// Convergence record of the charge self-consistency.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScfReport {
    /// Iterations executed.
    pub iterations: usize,
    /// Final max |Δq| (electrons).
    pub charge_residual: f64,
    /// Whether the loop met its tolerance.
    pub converged: bool,
    /// Mulliken charge per atom at exit.
    pub mulliken: Vec<f64>,
}

/// A CP2K-lite run: structure + basis → self-consistent H/S + transfer file.
#[derive(Debug, Clone)]
pub struct Cp2kRun {
    spec: DeviceSpec,
    functional: Functional,
    /// On-site Hartree kernel U (eV per electron of charge imbalance).
    pub hubbard_u: f64,
    /// Linear mixing factor.
    pub mixing: f64,
    /// Charge tolerance (electrons).
    pub tol: f64,
    /// Iteration cap.
    pub max_iter: usize,
    /// Skip the SCF loop (large cells / benchmarking).
    pub skip_scf: bool,
}

impl Cp2kRun {
    /// Creates a run with production-ish defaults.
    pub fn new(spec: DeviceSpec) -> Self {
        Cp2kRun {
            spec,
            functional: Functional::Lda,
            hubbard_u: 1.2,
            mixing: 0.4,
            tol: 1e-6,
            max_iter: 60,
            skip_scf: false,
        }
    }

    /// Selects the exchange-correlation functional.
    pub fn functional(mut self, f: Functional) -> Self {
        self.functional = f;
        self
    }

    /// Disables the self-consistency (matrices straight from the
    /// parameterization) — used by the performance benchmarks where only
    /// the matrix structure matters.
    pub fn without_scf(mut self) -> Self {
        self.skip_scf = true;
        self
    }

    /// Runs the charge loop and produces the OMEN transfer file.
    pub fn generate(&self) -> Result<HsFile> {
        let mut ucm = assemble_unit_cell(&self.spec.unit_cell, self.spec.basis, 0.0);
        let n_orb_atom = self.spec.basis.orbitals_per_atom();
        let n_atoms = self.spec.unit_cell.len();
        let mut report = ScfReport {
            iterations: 0,
            charge_residual: 0.0,
            converged: true,
            mulliken: vec![0.0; n_atoms],
        };
        if !self.skip_scf {
            // Reference (neutral) populations: half filling per atom.
            let q0 = n_orb_atom as f64 / 2.0;
            let mut shifts = vec![0.0; n_atoms];
            let mut converged = false;
            for it in 0..self.max_iter {
                report.iterations = it + 1;
                let q = mulliken_charges(&ucm.h[0], &ucm.s[0], n_atoms, n_orb_atom, &shifts)?;
                let residual = q.iter().map(|&qi| (qi - q0).abs()).fold(0.0f64, f64::max);
                report.charge_residual = residual;
                report.mulliken = q.clone();
                if residual < self.tol {
                    converged = true;
                    break;
                }
                for (a, &qa) in q.iter().enumerate() {
                    // Hartree: excess electrons push on-site energies up.
                    let target = self.hubbard_u * (qa - q0);
                    shifts[a] += self.mixing * (target - shifts[a]);
                }
            }
            report.converged = converged;
            // Fold the converged shifts into the stored Hamiltonian.
            apply_onsite_shifts(&mut ucm.h[0], &ucm.s[0], &report.mulliken, n_orb_atom, {
                let q0v = q0;
                let u = self.hubbard_u;
                move |qa| u * (qa - q0v)
            });
        }
        // Functional correction: rigid shift of the conduction manifold.
        let dg = self.functional.gap_correction();
        if dg != 0.0 {
            if let Some(block) = ucm.h.first_mut() {
                // On-site (H_0) block only; conduction orbitals are the
                // upper half of each atom's set.
                for a in 0..n_atoms {
                    for o in n_orb_atom / 2..n_orb_atom {
                        let idx = a * n_orb_atom + o;
                        block[(idx, idx)] += c64(dg, 0.0);
                    }
                }
            }
        }
        Ok(HsFile {
            label: self.spec.unit_cell.label.clone(),
            functional: self.functional,
            geometry: self.spec.geometry.clone(),
            basis: self.spec.basis,
            unit_cell: ucm,
            scf: report,
        })
    }
}

/// Mulliken populations `q_a = Σ_{µ∈a} Re(P·S)_{µµ}` with the density
/// matrix built from the lowest-half eigenvectors of the Hermitian-definite
/// `(H + diag(shifts))·c = E·S·c`.
fn mulliken_charges(
    h0: &ZMat,
    s0: &ZMat,
    n_atoms: usize,
    n_orb_atom: usize,
    shifts: &[f64],
) -> Result<Vec<f64>> {
    let n = h0.rows();
    let mut h = h0.clone();
    for (a, &shift) in shifts.iter().enumerate().take(n_atoms) {
        for o in 0..n_orb_atom {
            let i = a * n_orb_atom + o;
            h[(i, i)] += c64(shift, 0.0);
        }
    }
    // States come out ascending and S-orthonormal (cᴴ·S·c = 1): occupy the
    // lowest half (spin-degenerate neutrality at half filling of the model
    // basis), P = C_occ·C_occᴴ.
    let dec = eigh_generalized(&h, s0, Vectors::Compute)?;
    let c = dec.vectors.expect("vectors were asked for");
    let c_occ = c.block_view(0, 0, n, n / 2);
    let mut p = ZMat::zeros(n, n);
    gemm_view(Complex64::ONE, c_occ, Op::None, c_occ, Op::Adjoint, Complex64::ZERO, &mut p);
    // q_a = Σ_{µ∈a} (P·S)_{µµ}.
    let mut ps = ZMat::zeros(n, n);
    gemm(Complex64::ONE, &p, Op::None, s0, Op::None, Complex64::ZERO, &mut ps);
    let mut q = vec![0.0; n_atoms];
    for (a, qa) in q.iter_mut().enumerate().take(n_atoms) {
        for o in 0..n_orb_atom {
            let i = a * n_orb_atom + o;
            *qa += ps[(i, i)].re;
        }
    }
    Ok(q)
}

/// Adds the converged Hartree shifts to the on-site block.
fn apply_onsite_shifts(
    h0: &mut ZMat,
    _s0: &ZMat,
    mulliken: &[f64],
    n_orb_atom: usize,
    shift_of: impl Fn(f64) -> f64,
) {
    for (a, &qa) in mulliken.iter().enumerate() {
        let dv = shift_of(qa);
        for o in 0..n_orb_atom {
            let i = a * n_orb_atom + o;
            h0[(i, i)] += c64(dv, 0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtx_atomistic::{BasisKind, DeviceBuilder};

    fn small_spec() -> DeviceSpec {
        DeviceBuilder::nanowire(0.8).cells(4).basis(BasisKind::TightBinding).build()
    }

    #[test]
    fn scf_converges_on_homogeneous_cell() {
        let hs = Cp2kRun::new(small_spec()).generate().unwrap();
        assert!(hs.scf.converged, "residual {}", hs.scf.charge_residual);
        // Homogeneous Si: every atom stays neutral (1 e per orbital pair).
        for &q in &hs.scf.mulliken {
            assert!((q - 1.0).abs() < 0.2, "Mulliken {q}");
        }
    }

    #[test]
    fn skip_scf_matches_raw_assembly() {
        let spec = small_spec();
        let raw = assemble_unit_cell(&spec.unit_cell, spec.basis, 0.0);
        let hs = Cp2kRun::new(spec).without_scf().generate().unwrap();
        assert!(hs.unit_cell.h[0].max_diff(&raw.h[0]) < 1e-12);
    }

    #[test]
    fn hse06_widens_gap_relative_to_lda() {
        let lda = Cp2kRun::new(small_spec()).without_scf().generate().unwrap();
        let hse = Cp2kRun::new(small_spec())
            .without_scf()
            .functional(Functional::Hse06)
            .generate()
            .unwrap();
        // Conduction on-site entries move up by the gap correction.
        let n_orb_atom = 2;
        let idx = n_orb_atom / 2; // first conduction orbital of atom 0
        let d = (hse.unit_cell.h[0][(idx, idx)] - lda.unit_cell.h[0][(idx, idx)]).re;
        assert!((d - 0.65).abs() < 1e-12, "shift {d}");
        // Valence entries untouched.
        assert!((hse.unit_cell.h[0][(0, 0)] - lda.unit_cell.h[0][(0, 0)]).abs() < 1e-12);
    }

    #[test]
    fn scf_keeps_hamiltonian_hermitian() {
        let hs = Cp2kRun::new(small_spec()).generate().unwrap();
        assert!(hs.unit_cell.h[0].hermitian_defect() < 1e-10);
    }
}
