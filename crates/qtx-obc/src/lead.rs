//! Folded lead blocks.
//!
//! After grouping `NBW` unit cells into one superblock of size
//! `nf = NBW · n`, the semi-infinite lead is nearest-neighbour at the
//! superblock level: on-site `H00/S00` and coupling `H01/S01` blocks fully
//! describe it. All OBC algorithms work on the energy-shifted blocks
//! `T = E·S − H`.

use qtx_linalg::{c64, Vectors, ZMat};
use serde::{Deserialize, Serialize};

/// Folded nearest-neighbour lead description.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LeadBlocks {
    /// On-site superblock Hamiltonian (`nf × nf`, Hermitian).
    pub h00: ZMat,
    /// Coupling to the next superblock along +x.
    pub h01: ZMat,
    /// On-site overlap.
    pub s00: ZMat,
    /// Coupling overlap.
    pub s01: ZMat,
}

impl LeadBlocks {
    /// Builds from explicit blocks (validated).
    pub fn new(h00: ZMat, h01: ZMat, s00: ZMat, s01: ZMat) -> Self {
        let nf = h00.rows();
        assert!(h00.is_square() && h01.is_square() && s00.is_square() && s01.is_square());
        assert_eq!(h01.rows(), nf);
        assert_eq!(s00.rows(), nf);
        assert_eq!(s01.rows(), nf);
        assert!(h00.hermitian_defect() < 1e-8 * h00.norm_max().max(1.0), "H00 must be Hermitian");
        LeadBlocks { h00, h01, s00, s01 }
    }

    /// A 1-D single-orbital chain with on-site `eps` and hopping `t`
    /// (orthogonal basis): the analytic reference of every OBC test.
    pub fn chain_1d(eps: f64, t: f64) -> Self {
        LeadBlocks {
            h00: ZMat::from_diag(&[c64(eps, 0.0)]),
            h01: ZMat::from_diag(&[c64(t, 0.0)]),
            s00: ZMat::identity(1),
            s01: ZMat::zeros(1, 1),
        }
    }

    /// Superblock dimension `nf`.
    pub fn nf(&self) -> usize {
        self.h00.rows()
    }

    /// Stable content address of the lead: FNV-1a over the block
    /// dimensions and the exact f64 bit patterns of all four blocks.
    /// Two leads hash equal iff they are bit-identical, so the hash is a
    /// sound cache key for anything that is a pure function of the lead
    /// (self-energies, mode sets). Not a cryptographic digest — collisions
    /// are astronomically unlikely but not adversarially hard.
    pub fn content_hash(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bits: u64| {
            for b in bits.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for m in [&self.h00, &self.h01, &self.s00, &self.s01] {
            eat(m.rows() as u64);
            eat(m.cols() as u64);
            for z in m.as_slice() {
                eat(z.re.to_bits());
                eat(z.im.to_bits());
            }
        }
        h
    }

    /// Whether `other` is this lead byte for byte: same block shapes and
    /// the same f64 bit patterns in all four blocks. Everything that is a
    /// pure function of the lead (modes, self-energies) is then the same
    /// for both — the test behind sharing one mode solve between contacts.
    pub fn same_bits(&self, other: &LeadBlocks) -> bool {
        let same = |a: &ZMat, b: &ZMat| {
            (a.rows(), a.cols()) == (b.rows(), b.cols())
                && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| {
                    x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits()
                })
        };
        same(&self.h00, &other.h00)
            && same(&self.h01, &other.h01)
            && same(&self.s00, &other.s00)
            && same(&self.s01, &other.s01)
    }

    /// Energy-shifted blocks `(T00, T01, T10) = (E·S − H)` at energy `e`
    /// with broadening `eta` (retarded: `E + iη`).
    pub fn t_blocks(&self, e: f64, eta: f64) -> (ZMat, ZMat, ZMat) {
        let (nf, z) = (self.nf(), c64(e, eta));
        // T10 = E·S01ᴴ − H01ᴴ (Hermitian lead ⇒ S10 = S01ᴴ, H10 = H01ᴴ);
        // with a complex shift this is (z·S01 − H01) conjugate-transposed
        // entrywise in S/H but the shift stays z (retarded convention).
        // One pass writes all three: column j of S01/H01 is row j of T10.
        let (mut t00, mut t01, mut t10) =
            (ZMat::zeros(nf, nf), ZMat::zeros(nf, nf), ZMat::zeros(nf, nf));
        for j in 0..nf {
            let (s00, h00) = (self.s00.col(j), self.h00.col(j));
            for (t, (&s, &h)) in t00.col_mut(j).iter_mut().zip(s00.iter().zip(h00)) {
                *t = s * z - h;
            }
            let (s01, h01) = (self.s01.col(j), self.h01.col(j));
            for (i, (t, (&s, &h))) in t01.col_mut(j).iter_mut().zip(s01.iter().zip(h01)).enumerate()
            {
                *t = s * z - h;
                t10[(j, i)] = s.conj() * z - h.conj();
            }
        }
        (t00, t01, t10)
    }

    /// Band structure sample: eigenvalues of
    /// `H(k) = H00 + H01·e^{ik} + H01ᴴ·e^{−ik}` against
    /// `S(k)`, ascending — used to place energy grids and to locate band
    /// edges. A Hermitian-definite pencil, solved for its eigenvalues only
    /// ([`qtx_linalg::eigh_generalized`]).
    pub fn bands_at(&self, k: f64) -> Vec<f64> {
        let phase = qtx_linalg::Complex64::from_phase(k);
        let hk = {
            let mut m = self.h00.clone();
            m.axpy(phase, &self.h01);
            m.axpy(phase.conj(), &self.h01.adjoint());
            m
        };
        let sk = {
            let mut m = self.s00.clone();
            m.axpy(phase, &self.s01);
            m.axpy(phase.conj(), &self.s01.adjoint());
            m
        };
        qtx_linalg::eigh_generalized(&hk, &sk, Vectors::Skip)
            .expect("band eigensolve: S(k) must be positive definite")
            .values
    }

    /// First dispersive band energy above `lo` at momentum `k`: bands are
    /// matched between `k` and `k + dk` by sorted index and kept only when
    /// the local slope exceeds `min_slope` (eV per unit phase). Flat
    /// (surface/passivation) bands carry no current and are skipped.
    pub fn dispersive_energy(&self, k: f64, lo: f64, min_slope: f64) -> Option<f64> {
        let dk = 0.08;
        let b0 = self.bands_at(k);
        let b1 = self.bands_at(k + dk);
        b0.iter()
            .zip(&b1)
            .filter(|(e0, e1)| (**e1 - **e0).abs() / dk > min_slope)
            .map(|(e0, _)| *e0)
            .find(|&e| e > lo)
    }

    /// Minimum energy of any dispersive band above `lo` over a k-scan —
    /// the conducting band edge (ignores flat passivation bands).
    pub fn dispersive_band_min(&self, lo: f64, min_slope: f64) -> Option<f64> {
        let nk = 24;
        let mut best: Option<f64> = None;
        for i in 0..nk {
            let k = 0.05 + (std::f64::consts::PI - 0.1) * i as f64 / (nk - 1) as f64;
            if let Some(e) = self.dispersive_energy(k, lo, min_slope) {
                best = Some(best.map_or(e, |b: f64| b.min(e)));
            }
        }
        best
    }

    /// Scans the Brillouin zone and returns `(E_min, E_max)` over all
    /// bands — the energy window that brackets every propagating mode.
    pub fn band_window(&self, nk: usize) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for i in 0..nk {
            let k = std::f64::consts::PI * i as f64 / (nk.max(2) - 1) as f64;
            for b in self.bands_at(k) {
                lo = lo.min(b);
                hi = hi.max(b);
            }
        }
        (lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_dispersion_is_cosine() {
        // E(k) = eps + 2 t cos k for the 1-D chain.
        let lead = LeadBlocks::chain_1d(0.5, -1.0);
        for &k in &[0.0, 0.7, 1.5, std::f64::consts::PI] {
            let bands = lead.bands_at(k);
            assert_eq!(bands.len(), 1);
            let expected = 0.5 - 2.0 * k.cos();
            assert!((bands[0] - expected).abs() < 1e-10, "k={k}: {} vs {expected}", bands[0]);
        }
    }

    #[test]
    fn band_window_of_chain() {
        let lead = LeadBlocks::chain_1d(0.0, -1.0);
        let (lo, hi) = lead.band_window(64);
        assert!((lo + 2.0).abs() < 1e-6);
        assert!((hi - 2.0).abs() < 1e-6);
    }

    #[test]
    fn fused_t_blocks_are_the_blockwise_expressions_bit_for_bit() {
        let mut h00 = ZMat::random(7, 7, 11);
        h00.hermitianize();
        let mut s00 = ZMat::random(7, 7, 12).scaled(c64(0.1, 0.0));
        s00.hermitianize();
        for i in 0..7 {
            s00[(i, i)] += c64(1.0, 0.0);
        }
        let (h01, s01) = (ZMat::random(7, 7, 13), ZMat::random(7, 7, 14).scaled(c64(0.2, 0.0)));
        let lead = LeadBlocks::new(h00, h01, s00, s01);
        let bits = |m: &ZMat| {
            m.as_slice().iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect::<Vec<_>>()
        };
        for (e, eta) in [(0.37, 0.0), (-1.3, 1e-3)] {
            let z = c64(e, eta);
            let blockwise = [
                &lead.s00.scaled(z) - &lead.h00,
                &lead.s01.scaled(z) - &lead.h01,
                &lead.s01.adjoint().scaled(z) - &lead.h01.adjoint(),
            ];
            let (t00, t01, t10) = lead.t_blocks(e, eta);
            for (fused, reference) in [t00, t01, t10].iter().zip(&blockwise) {
                assert_eq!(bits(fused), bits(reference), "E = {e}, η = {eta}");
            }
        }
    }

    #[test]
    fn t_blocks_shift() {
        let lead = LeadBlocks::chain_1d(1.0, -0.5);
        let (t00, t01, t10) = lead.t_blocks(2.0, 0.0);
        assert!((t00[(0, 0)] - c64(1.0, 0.0)).abs() < 1e-14); // 2·1 − 1
        assert!((t01[(0, 0)] - c64(0.5, 0.0)).abs() < 1e-14); // −(−0.5)
        assert!((t10[(0, 0)] - t01[(0, 0)].conj()).abs() < 1e-14);
    }

    #[test]
    fn content_hash_is_stable_and_bit_sensitive() {
        let a = LeadBlocks::chain_1d(0.5, -1.0);
        let b = LeadBlocks::chain_1d(0.5, -1.0);
        assert_eq!(a.content_hash(), b.content_hash(), "identical leads hash equal");
        // A one-ULP perturbation of a single entry must change the address.
        let mut c = LeadBlocks::chain_1d(0.5, -1.0);
        let v = c.h00[(0, 0)];
        c.h00[(0, 0)] = c64(f64::from_bits(v.re.to_bits() + 1), v.im);
        assert_ne!(a.content_hash(), c.content_hash(), "one-bit change must rekey");
        // Different dimensions never collide with the tiny chain by shape.
        let two = LeadBlocks::new(
            ZMat::identity(2),
            ZMat::zeros(2, 2),
            ZMat::identity(2),
            ZMat::zeros(2, 2),
        );
        assert_ne!(a.content_hash(), two.content_hash());
    }

    #[test]
    fn two_band_lead_has_gap() {
        // Two decoupled orbitals at ±1.5 with weak hopping: gap around 0.
        let h00 = ZMat::from_diag(&[c64(-1.5, 0.0), c64(1.5, 0.0)]);
        let h01 = ZMat::from_diag(&[c64(0.3, 0.0), c64(-0.3, 0.0)]);
        let lead = LeadBlocks::new(h00, h01, ZMat::identity(2), ZMat::zeros(2, 2));
        let (lo, hi) = lead.band_window(32);
        assert!(lo < -1.0 && hi > 1.0);
        // No band touches zero.
        for i in 0..32 {
            let k = std::f64::consts::PI * i as f64 / 31.0;
            for b in lead.bands_at(k) {
                assert!(b.abs() > 0.5, "gap state at k={k}: E={b}");
            }
        }
    }
}
