//! Self-consistent charge loop ("Quickstep-lite").
//!
//! The Kohn–Sham self-consistency that matters to transport is the
//! feedback between occupation and on-site potential: Mulliken populations
//! shift the on-site energies through the Hartree term, which shifts the
//! populations back. This loop implements exactly that cycle on the
//! unit-cell Hamiltonian:
//!
//! 1. diagonalize the folded `H(k=0) + diag(V)` against `S`,
//! 2. occupy the lowest half of the spectrum (charge neutrality),
//! 3. compute Mulliken charges `q_a = Σ_{µ∈a} (P·S)_{µµ}`,
//! 4. mix the on-site shifts `V_a` towards `U·(q_a − q⁰_a)`,
//! 5. repeat until the charges reproduce the potential that made them:
//!    `max_a |U·(q_a − q⁰_a) − V_a| < tol`, in eV (like CP2K's `EPS_SCF`,
//!    a self-consistency test, not a distance from neutrality).
//!
//! The final matrices — plus the functional's gap correction — are what
//! OMEN imports (Fig. 2).

use crate::functional::Functional;
use crate::hsfile::HsFile;
use qtx_atomistic::assemble::assemble_unit_cell;
use qtx_atomistic::devices::DeviceSpec;
use qtx_linalg::{c64, eigh_generalized, gemm_view, Complex64, LinalgError, Op, Vectors, ZMat};
use serde::{Deserialize, Serialize};

/// Convergence record of the charge self-consistency.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScfReport {
    /// Iterations executed.
    pub iterations: usize,
    /// Final self-consistency residual `max_a |U·(q_a − q⁰_a) − V_a|` (eV).
    pub charge_residual: f64,
    /// Whether the loop met its tolerance (always, in a file
    /// [`Cp2kRun::generate`] returned: a loop that does not is an error).
    pub converged: bool,
    /// Mulliken charge per atom at exit.
    pub mulliken: Vec<f64>,
}

/// Why a CP2K-lite run produced no transfer file.
#[derive(Debug)]
pub enum Cp2kError {
    /// A charge-loop eigensolve failed (an overlap that is not positive
    /// definite, say).
    Linalg(LinalgError),
    /// The charge loop ran `max_iter` iterations without meeting `tol`.
    NotConverged {
        /// Iterations executed.
        iterations: usize,
        /// The last self-consistency residual (eV).
        residual: f64,
    },
}

impl From<LinalgError> for Cp2kError {
    fn from(e: LinalgError) -> Self {
        Cp2kError::Linalg(e)
    }
}

impl std::fmt::Display for Cp2kError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Cp2kError::Linalg(e) => write!(f, "charge-loop eigensolve failed: {e}"),
            Cp2kError::NotConverged { iterations, residual } => write!(
                f,
                "charge loop not self-consistent after {iterations} iterations \
                 (residual {residual:e} eV)"
            ),
        }
    }
}

impl std::error::Error for Cp2kError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Cp2kError::Linalg(e) => Some(e),
            Cp2kError::NotConverged { .. } => None,
        }
    }
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
    /// Self-consistency tolerance on `max_a |U·(q_a − q⁰_a) − V_a|` (eV).
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

    /// Runs the charge loop and produces the OMEN transfer file. A loop
    /// that is not self-consistent after `max_iter` iterations is
    /// [`Cp2kError::NotConverged`].
    pub fn generate(&self) -> Result<HsFile, Cp2kError> {
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
            let hartree = |q: &[f64]| -> Vec<f64> {
                // Excess electrons push on-site energies up.
                q.iter().map(|&qa| self.hubbard_u * (qa - q0)).collect()
            };
            let mut shifts = vec![0.0; n_atoms];
            report.converged = false;
            report.charge_residual = f64::INFINITY;
            for it in 0..self.max_iter {
                report.iterations = it + 1;
                report.mulliken = mulliken_charges(&ucm.h[0], &ucm.s[0], n_orb_atom, &shifts)?;
                let target = hartree(&report.mulliken);
                report.charge_residual =
                    target.iter().zip(&shifts).map(|(t, v)| (t - v).abs()).fold(0.0, f64::max);
                if report.charge_residual < self.tol {
                    report.converged = true;
                    break;
                }
                for (v, t) in shifts.iter_mut().zip(&target) {
                    *v += self.mixing * (t - *v);
                }
            }
            if !report.converged {
                return Err(Cp2kError::NotConverged {
                    iterations: report.iterations,
                    residual: report.charge_residual,
                });
            }
            // Fold the Hartree potential of the last charges into the stored
            // Hamiltonian: it is within `charge_residual` of the shifts
            // those charges came from.
            apply_onsite_shifts(&mut ucm.h[0], &hartree(&report.mulliken), n_orb_atom);
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

/// Mulliken populations `q_a = Σ_{µ∈a} Re(P·S)_{µµ}` of the lowest-half
/// eigenvectors of the Hermitian-definite `(H + diag(shifts))·c = E·S·c`,
/// one per entry of `shifts`.
fn mulliken_charges(
    h0: &ZMat,
    s0: &ZMat,
    n_orb_atom: usize,
    shifts: &[f64],
) -> qtx_linalg::Result<Vec<f64>> {
    let n = h0.rows();
    let mut h = h0.clone();
    apply_onsite_shifts(&mut h, shifts, n_orb_atom);
    // States come out ascending and S-orthonormal (cᴴ·S·c = 1): occupy the
    // lowest half (spin-degenerate neutrality at half filling of the model
    // basis), P = C_occ·C_occᴴ. With S = Sᴴ the diagonal of P·S is
    // (P·S)_{µµ} = Σ_k C_{µk}·conj((S·C_occ)_{µk}): one n × n/2 product.
    let dec = eigh_generalized(&h, s0, Vectors::Compute)?;
    let c = dec.vectors.expect("vectors were asked for");
    let mut sc = ZMat::zeros(n, n / 2);
    let c_occ = c.block_view(0, 0, n, n / 2);
    gemm_view(Complex64::ONE, s0.view(), Op::None, c_occ, Op::None, Complex64::ZERO, &mut sc);
    let mut q = vec![0.0; shifts.len()];
    for k in 0..n / 2 {
        for (i, (x, y)) in c.col(k).iter().zip(sc.col(k)).enumerate() {
            q[i / n_orb_atom] += x.re * y.re + x.im * y.im;
        }
    }
    Ok(q)
}

/// Adds `shifts[a]` to the on-site energies of atom `a`'s orbitals.
fn apply_onsite_shifts(h0: &mut ZMat, shifts: &[f64], n_orb_atom: usize) {
    for (a, &dv) in shifts.iter().enumerate() {
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
    fn occupied_charges_equal_the_density_matrix_diagonal() {
        // The DFT cell (non-orthogonal basis) at a potential that is not
        // flat, against q_a = Σ_{µ∈a} Re(P·S)_{µµ} with P = C_occ·C_occᴴ
        // formed in full.
        let spec = DeviceBuilder::nanowire(1.0).cells(12).basis(BasisKind::Dft3sp).build();
        let ucm = assemble_unit_cell(&spec.unit_cell, spec.basis, 0.0);
        let (h0, s0) = (&ucm.h[0], &ucm.s[0]);
        let n_orb_atom = spec.basis.orbitals_per_atom();
        let shifts: Vec<f64> = (0..spec.unit_cell.len()).map(|a| 0.01 * (a % 5) as f64).collect();
        let q = mulliken_charges(h0, s0, n_orb_atom, &shifts).unwrap();

        let n = h0.rows();
        let mut h = h0.clone();
        apply_onsite_shifts(&mut h, &shifts, n_orb_atom);
        let c = eigh_generalized(&h, s0, Vectors::Compute).unwrap().vectors.unwrap();
        let c_occ = c.block_view(0, 0, n, n / 2);
        let mut p = ZMat::zeros(n, n);
        gemm_view(Complex64::ONE, c_occ, Op::None, c_occ, Op::Adjoint, Complex64::ZERO, &mut p);
        let mut ps = ZMat::zeros(n, n);
        qtx_linalg::gemm(Complex64::ONE, &p, Op::None, s0, Op::None, Complex64::ZERO, &mut ps);
        for (a, &qa) in q.iter().enumerate() {
            let full: f64 =
                (0..n_orb_atom).map(|o| ps[(a * n_orb_atom + o, a * n_orb_atom + o)].re).sum();
            assert!((qa - full).abs() < 1e-12, "atom {a}: {qa} against {full}");
        }
    }

    #[test]
    fn scf_keeps_hamiltonian_hermitian() {
        let hs = Cp2kRun::new(small_spec()).generate().unwrap();
        assert!(hs.unit_cell.h[0].hermitian_defect() < 1e-10);
    }
}
