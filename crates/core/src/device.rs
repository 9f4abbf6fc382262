//! Device assembly: leads + BTD matrices + electrostatics hooks.

use qtx_atomistic::assemble::assemble_unit_cell;
use qtx_atomistic::devices::DeviceSpec;
use qtx_cp2k::{Cp2kError, Cp2kRun, Functional, HsFile};
use qtx_linalg::{c64, Complex64, ZMat};
use qtx_obc::{LeadBlocks, ObcMethod};
use qtx_solver::SolverKind;
use qtx_sparse::{
    BlockChain, BlockSupport, Btd, ChainSupport, CouplingSupport, EsMinusH, PencilStore,
};

/// Runtime configuration of the transport engine.
#[derive(Debug, Clone, Copy)]
pub struct TransportConfig {
    /// OBC algorithm (FEAST by default — the production path).
    pub obc: ObcMethod,
    /// Eq. 5 solver (SplitSolve on at most two partitions by default; the
    /// chain's shape decides whether it is cut at all).
    pub solver: SolverKind,
    /// Electron temperature (K).
    pub temperature: f64,
    /// Left contact chemical potential (eV).
    pub mu_l: f64,
    /// Right contact chemical potential (eV).
    pub mu_r: f64,
    /// Transverse momentum points (1 for confined cross-sections).
    pub n_kz: usize,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            obc: ObcMethod::default(),
            solver: SolverKind::SplitSolve { partitions: 2 },
            temperature: 300.0,
            mu_l: 0.0,
            mu_r: 0.0,
            n_kz: 1,
        }
    }
}

/// A transport device: CP2K-lite matrices + geometry + potential profile.
#[derive(Debug, Clone)]
pub struct Device {
    /// Structure + basis specification (kept for H(k) regeneration).
    pub spec: DeviceSpec,
    /// CP2K-lite output at `kz = 0` (SCF + functional corrections).
    pub base: HsFile,
    /// Diagonal correction (SCF + functional) to re-apply at `kz ≠ 0`.
    onsite_delta: Vec<Complex64>,
    /// Folded superblocks along transport (`n_cells / NBW`).
    pub n_slabs: usize,
    /// Per-slab electrostatic potential energy (eV) added to the diagonal.
    pub potential: Vec<f64>,
    /// Engine configuration.
    pub config: TransportConfig,
}

/// Momentum-resolved device: leads + BTD Hamiltonian/overlap at fixed kz.
#[derive(Debug, Clone)]
pub struct DeviceK {
    /// Left lead (with the left-contact potential folded in).
    pub lead_l: LeadBlocks,
    /// Right lead.
    pub lead_r: LeadBlocks,
    /// Device Hamiltonian (folded superblocks, potential applied).
    pub h: Btd,
    /// Device overlap.
    pub s: Btd,
    /// Transverse momentum (phase per z-period).
    pub kz: f64,
}

impl Device {
    /// Builds a device by running CP2K-lite with the given functional.
    /// CP2K-lite's error comes back as it happened: a failed charge-loop
    /// eigensolve (an overlap that is not positive definite, say) or a loop
    /// that did not reach self-consistency.
    pub fn build_with_functional(
        spec: DeviceSpec,
        functional: Functional,
    ) -> Result<Device, Cp2kError> {
        let base = Cp2kRun::new(spec.clone()).functional(functional).generate()?;
        Ok(Self::from_hsfile(spec, base))
    }

    /// Builds with the default LDA functional.
    pub fn build(spec: DeviceSpec) -> Result<Device, Cp2kError> {
        Self::build_with_functional(spec, Functional::Lda)
    }

    /// Wraps precomputed CP2K-lite output (the OMEN import path, Fig. 2).
    pub fn from_hsfile(spec: DeviceSpec, base: HsFile) -> Device {
        // Diagonal delta between the self-consistent H and the raw
        // parameterized assembly: on-site terms are kz-independent, so
        // storing the difference lets `at_kz` regenerate H(k) exactly.
        let raw = assemble_unit_cell(&spec.unit_cell, spec.basis, 0.0);
        let n = raw.n_orb;
        let onsite_delta: Vec<Complex64> =
            (0..n).map(|i| base.unit_cell.h[0][(i, i)] - raw.h[0][(i, i)]).collect();
        let nbw = base.unit_cell.nbw;
        let n_slabs = (spec.geometry.n_cells / nbw).max(2);
        Device {
            spec,
            base,
            onsite_delta,
            n_slabs,
            potential: vec![0.0; n_slabs],
            config: TransportConfig::default(),
        }
    }

    /// Folded superblock size (`NBW · n_orb`).
    pub fn block_size(&self) -> usize {
        self.base.unit_cell.nbw * self.base.unit_cell.n_orb
    }

    /// Total Schrödinger dimension `N_SS`.
    pub fn n_ss(&self) -> usize {
        self.block_size() * self.n_slabs
    }

    /// Total atoms in the transport region.
    pub fn n_atoms(&self) -> usize {
        self.base.unit_cell.atoms_per_cell * self.base.unit_cell.nbw * self.n_slabs
    }

    /// Sets the per-slab potential profile (length `n_slabs`).
    pub fn set_potential(&mut self, v: &[f64]) {
        assert_eq!(v.len(), self.n_slabs, "potential length mismatch");
        self.potential.copy_from_slice(v);
    }

    /// Transverse momentum points `(kz, weight)` (Monkhorst-Pack-like line
    /// for the UTB's periodic z, a single Γ point for nanowires).
    pub fn kz_points(&self) -> Vec<(f64, f64)> {
        if !self.spec.geometry.z_periodic || self.config.n_kz <= 1 {
            return vec![(0.0, 1.0)];
        }
        let nk = self.config.n_kz;
        // Sample [0, π] exploiting time-reversal symmetry; end points get
        // half weight.
        (0..nk)
            .map(|i| {
                let k = std::f64::consts::PI * i as f64 / (nk - 1) as f64;
                let w = if i == 0 || i == nk - 1 { 0.5 } else { 1.0 };
                (k, w)
            })
            .collect()
    }

    /// Builds the momentum-resolved lead/device matrices at `kz`.
    pub fn at_kz(&self, kz: f64) -> DeviceK {
        let ucm = if kz == 0.0 {
            self.base.unit_cell.clone()
        } else {
            let mut u = assemble_unit_cell(&self.spec.unit_cell, self.spec.basis, kz);
            for (i, &d) in self.onsite_delta.iter().enumerate() {
                u.h[0][(i, i)] += d;
            }
            u
        };
        let (d, up, lo) = ucm.folded();
        let (ds, us, ls) = ucm.folded_overlap();
        // Leads sit at the contact potentials (flat extensions).
        let v_l = *self.potential.first().unwrap_or(&0.0);
        let v_r = *self.potential.last().unwrap_or(&0.0);
        let shift = |h: &ZMat, s: &ZMat, v: f64| -> ZMat {
            let mut out = h.clone();
            out.axpy(c64(v, 0.0), s);
            out
        };
        let lead_l =
            LeadBlocks::new(shift(&d, &ds, v_l), shift(&up, &us, v_l), ds.clone(), us.clone());
        let lead_r =
            LeadBlocks::new(shift(&d, &ds, v_r), shift(&up, &us, v_r), ds.clone(), us.clone());
        // Device: H_qq += V_q·S_qq ; H_{q,q+1} += (V_q+V_{q+1})/2 · S_{q,q+1}.
        let mut h = Btd::uniform(self.n_slabs, &d, &up, &lo);
        let s = Btd::uniform(self.n_slabs, &ds, &us, &ls);
        for q in 0..self.n_slabs {
            h.diag[q].axpy(c64(self.potential[q], 0.0), &s.diag[q]);
            if q + 1 < self.n_slabs {
                let vm = 0.5 * (self.potential[q] + self.potential[q + 1]);
                h.upper[q].axpy(c64(vm, 0.0), &s.upper[q]);
                h.lower[q].axpy(c64(vm, 0.0), &s.lower[q]);
            }
        }
        DeviceK { lead_l, lead_r, h, s, kz }
    }

    /// Fermi window `(E_lo, E_hi)` covering both contacts ± `n_kt` thermal
    /// widths.
    pub fn fermi_window(&self, n_kt: f64) -> (f64, f64) {
        let kt = crate::landauer::KB_EV * self.config.temperature;
        let lo = self.config.mu_l.min(self.config.mu_r) - n_kt * kt;
        let hi = self.config.mu_l.max(self.config.mu_r) + n_kt * kt;
        (lo, hi)
    }
}

impl DeviceK {
    /// Dimension of the full Schrödinger matrix.
    pub fn n_ss(&self) -> usize {
        self.h.dim()
    }

    /// Builds the OBC-free part `A = E·S − H` of Eq. 5.
    pub fn es_minus_h(&self, e: f64) -> Btd {
        Btd::es_minus_h(c64(e, 0.0), &self.s, &self.h)
    }

    /// `A = (E + iη)·S − H`: the broadened system the escalation ladder
    /// retries with when the exact-energy solve hits a resonance pole.
    pub fn es_minus_h_eta(&self, e: f64, eta: f64) -> Btd {
        Btd::es_minus_h(c64(e, eta), &self.s, &self.h)
    }

    /// `A = (E + iη)·S − H` streamed block by block from the dense `S` and
    /// `H` instead of assembled ([`Self::es_minus_h_eta`] bit for bit).
    pub fn pencil(&self, e: f64, eta: f64) -> EsMinusH<'_> {
        EsMinusH::dense(c64(e, eta), &self.s, &self.h)
    }

    /// [`Self::pencil`] streamed from the compact copy of `S` and `H` in
    /// `memo` (built by [`Self::chain_memo`] on this device): what both
    /// interior routes hand their elimination fronts and the residual.
    /// Same entries, same bits, a fraction of the bytes read.
    pub fn pencil_on<'a>(&'a self, memo: &'a ChainMemo, e: f64, eta: f64) -> EsMinusH<'a> {
        EsMinusH { store: Some(&memo.store), ..self.pencil(e, eta) }
    }

    /// Structural supports of the inter-slab coupling blocks of
    /// [`Self::pencil`] — the same for every energy and broadening, so a
    /// caller solving many points computes them once.
    pub fn coupling_support(&self) -> Vec<CouplingSupport> {
        self.pencil(0.0, 0.0).coupling_support()
    }

    /// Everything structural an interior solve reads, for every energy and
    /// broadening: [`Self::coupling_support`] plus the rows of the first
    /// and last slab the contacts can touch. `Σ_L = T10·X` and
    /// `Inj_L = −T10·λ⁻¹u − Σ_L·u` live on the rows of
    /// `T10 = z·S01ᴴ − H01ᴴ` of the left lead, i.e. the columns `S01` and
    /// `H01` occupy; `Σ_R` and `Inj_R` on the rows of the right lead's
    /// `T01`.
    pub fn chain_support(&self) -> ChainSupport {
        let lead_coupling = |lead: &LeadBlocks| BlockSupport::of(&[&lead.s01, &lead.h01]);
        ChainSupport {
            coupling: self.coupling_support(),
            contact_l: lead_coupling(&self.lead_l).cols,
            contact_r: lead_coupling(&self.lead_r).rows,
        }
    }

    /// [`Self::chain_support`] plus the compact copy of `S` and `H` on
    /// their non-zeros ([`PencilStore`]): everything an interior solve
    /// reads of this device besides Σ, for every energy and broadening.
    /// The engine builds it once per folded device, at its first point.
    pub fn chain_memo(&self) -> ChainMemo {
        let support = self.chain_support();
        let store = PencilStore::build(&self.s, &self.h, &support.coupling);
        let real = [&self.s, &self.h].iter().all(|m| {
            let blocks = m.diag.iter().chain(&m.upper).chain(&m.lower);
            blocks.flat_map(|b| b.as_slice()).all(|z| z.im == 0.0)
        });
        ChainMemo { support, store, real }
    }
}

/// The energy-independent part of a folded device's interior solves
/// ([`DeviceK::chain_memo`]): the chain's structure and the non-zeros of
/// its `S` and `H`.
#[derive(Debug, Clone)]
pub struct ChainMemo {
    /// Coupling supports and contact rows.
    pub support: ChainSupport,
    /// `S` and `H` on their non-zeros, read by [`DeviceK::pencil_on`].
    pub store: PencilStore,
    /// Whether every entry of `S` and `H` has an imaginary part of exactly
    /// `0.0` (`kz = 0` on a real basis): at a real energy the pencil
    /// `E·S − H` is then real, and the interior solve runs its real path.
    pub real: bool,
}

/// Which contact a quantity refers to (re-export sugar).
pub use qtx_obc::Side;

#[cfg(test)]
mod tests {
    use super::*;
    use qtx_atomistic::{BasisKind, DeviceBuilder};

    fn small_device() -> Device {
        let spec = DeviceBuilder::nanowire(0.8).cells(8).basis(BasisKind::TightBinding).build();
        Device::build(spec).unwrap()
    }

    #[test]
    fn device_shapes_are_consistent() {
        let d = small_device();
        assert_eq!(d.n_slabs, 8); // TB: NBW = 1 → one cell per slab
        let dk = d.at_kz(0.0);
        assert_eq!(dk.h.num_blocks(), 8);
        assert_eq!(dk.h.block_size(), d.block_size());
        assert_eq!(dk.n_ss(), d.n_ss());
        assert!(dk.h.hermitian_defect() < 1e-10);
    }

    #[test]
    fn potential_shifts_diagonal_by_v_times_s() {
        let mut d = small_device();
        let dk0 = d.at_kz(0.0);
        let v = vec![0.25; d.n_slabs];
        d.set_potential(&v);
        let dk1 = d.at_kz(0.0);
        // H' − H = 0.25·S on the diagonal blocks.
        let expected = {
            let mut m = dk0.h.diag[3].clone();
            m.axpy(c64(0.25, 0.0), &dk0.s.diag[3]);
            m
        };
        assert!(dk1.h.diag[3].max_diff(&expected) < 1e-12);
        // Leads follow their contact potentials.
        assert!(dk1.lead_l.h00.max_diff(&expected) < 1e-12);
    }

    #[test]
    fn nanowire_has_single_kz_point() {
        let d = small_device();
        assert_eq!(d.kz_points(), vec![(0.0, 1.0)]);
    }

    #[test]
    fn utb_generates_kz_line() {
        let spec = DeviceBuilder::utb(0.8).cells(8).basis(BasisKind::TightBinding).build();
        let mut d = Device::build(spec).unwrap();
        d.config.n_kz = 5;
        let ks = d.kz_points();
        assert_eq!(ks.len(), 5);
        assert_eq!(ks[0].0, 0.0);
        assert!((ks[4].0 - std::f64::consts::PI).abs() < 1e-12);
        assert_eq!(ks[0].1, 0.5);
        // H(k) differs from H(0) but stays Hermitian.
        let dk = d.at_kz(ks[2].0);
        assert!(dk.h.hermitian_defect() < 1e-10);
        assert!(dk.h.diag[0].max_diff(&d.at_kz(0.0).h.diag[0]) > 1e-9);
    }

    #[test]
    fn scf_delta_survives_kz_regeneration() {
        // The kz≠0 path must re-apply the CP2K-lite on-site corrections.
        let spec = DeviceBuilder::utb(0.8).cells(8).basis(BasisKind::TightBinding).build();
        let d = Device::build_with_functional(spec, Functional::Hse06).unwrap();
        let dk = d.at_kz(0.7);
        // Conduction on-site of atom 0 must carry the +0.65 eV correction:
        // compare against a plain rebuild without corrections.
        let raw = assemble_unit_cell(&d.spec.unit_cell, d.spec.basis, 0.7);
        let diff = (dk.h.diag[0][(1, 1)] - raw.h[0][(1, 1)]).re;
        assert!(diff > 0.5, "correction lost: {diff}");
    }

    #[test]
    fn atom_and_orbital_counts() {
        let d = small_device();
        assert_eq!(d.n_atoms(), d.base.unit_cell.atoms_per_cell * 8);
        assert_eq!(d.n_ss(), d.base.unit_cell.n_orb * 8);
    }
}
