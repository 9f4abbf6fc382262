//! Lead mode classification and flux normalization.
//!
//! Every finite eigenpair `(λ, u)` of the companion pencil is a Bloch or
//! evanescent lead state `ψ_q = λ^q·u`. Retarded boundary conditions sort
//! them by where they travel or decay:
//!
//! * `|λ| = 1` — propagating; the group velocity
//!   `v = 2·Im(uᴴ·T01·λ·u) / (uᴴ·S(λ)·u)` decides the direction
//!   (derived by differentiating the Bloch condition; `v > 0` moves
//!   towards +x). Propagating modes are normalized to unit flux so
//!   transmission amplitudes square directly to probabilities.
//! * `|λ| < 1` — decays towards +x (right-outgoing);
//! * `|λ| > 1` — decays towards −x (left-outgoing).

use crate::companion::CompanionPencil;
use crate::lead::LeadBlocks;
use qtx_linalg::{Complex64, Workspace, ZMat};

/// Tolerance band around `|λ| = 1` classifying propagating modes.
pub const PROP_TOL: f64 = 1e-6;

/// Half-width in `ln|λ|` of the ring around the unit circle where a mode
/// of a broadened pencil may still be propagating (`|λ| = e^{−η/|v|}`);
/// [`classify_modes_eta`] decides each candidate in it by its velocity.
const NEAR_LN: f64 = 0.05;

/// Whether a mode with `|λ| = mag` of the pencil at `E + iη` can be
/// propagating: on the unit circle or, broadened, inside the
/// [`NEAR_LN`] ring. FEAST never drops an unconverged Ritz value of
/// which this holds.
pub(crate) fn may_propagate(mag: f64, eta: f64) -> bool {
    (mag - 1.0).abs() < PROP_TOL || near_circle(mag, eta)
}

fn near_circle(mag: f64, eta: f64) -> bool {
    eta > 0.0 && mag.ln().abs() < NEAR_LN
}

/// One classified lead mode.
#[derive(Debug, Clone)]
pub struct ModeSet {
    /// Bloch factor `λ = e^{i·k_B}`.
    pub lambda: Complex64,
    /// Mode vector (folded superblock, flux-normalized when propagating).
    pub u: Vec<Complex64>,
    /// Group velocity (`dE/dk` units); 0 for evanescent modes.
    pub velocity: f64,
    /// True when `|λ| ≈ 1`.
    pub propagating: bool,
}

/// All modes of a lead at one energy, classified for retarded BCs.
#[derive(Debug, Clone)]
pub struct LeadModes {
    /// Modes moving/decaying towards −x (outgoing into the left lead).
    pub left_going: Vec<ModeSet>,
    /// Modes moving/decaying towards +x (outgoing into the right lead).
    pub right_going: Vec<ModeSet>,
}

impl LeadModes {
    /// Count of propagating modes per direction `(left, right)`.
    pub fn propagating_counts(&self) -> (usize, usize) {
        (
            self.left_going.iter().filter(|m| m.propagating).count(),
            self.right_going.iter().filter(|m| m.propagating).count(),
        )
    }

    /// Matrix whose columns are the modes of one direction set.
    pub fn mode_matrix(modes: &[ModeSet], nf: usize) -> ZMat {
        let mut m = ZMat::zeros(nf, modes.len());
        Self::fill_mode_matrix(modes, nf, &mut m);
        m
    }

    /// [`LeadModes::mode_matrix`] over a pooled buffer — the self-energy
    /// assembly builds one of these per contact per energy point, so the
    /// `U` blocks cycle through the workspace like every other temporary.
    pub fn mode_matrix_ws(modes: &[ModeSet], nf: usize, ws: &Workspace) -> ZMat {
        let mut m = ws.take_scratch(nf, modes.len());
        Self::fill_mode_matrix(modes, nf, &mut m);
        m
    }

    fn fill_mode_matrix(modes: &[ModeSet], nf: usize, m: &mut ZMat) {
        for (j, mode) in modes.iter().enumerate() {
            for i in 0..nf {
                m[(i, j)] = mode.u[i];
            }
        }
    }
}

/// Bloch-overlap norm `uᴴ·S(λ)·u` with
/// `S(λ) = S00 + λ·S01 + λ̄⁻¹... = S00 + λ·S01 + λ^{-1}·S01ᴴ` (for
/// propagating modes `λ^{-1} = λ̄`, making the norm real positive).
fn bloch_overlap(lead: &LeadBlocks, lambda: Complex64, u: &[Complex64]) -> f64 {
    let s00u = lead.s00.matvec(u);
    let s01u = lead.s01.matvec(u);
    let s10u = lead.s01.matvec_adjoint(u);
    let mut acc = Complex64::ZERO;
    let li = lambda.inv();
    for i in 0..u.len() {
        acc += u[i].conj() * (s00u[i] + lambda * s01u[i] + li * s10u[i]);
    }
    acc.re.max(1e-12)
}

/// Group velocity of a candidate propagating mode
/// (2·Im(uᴴT01λu)/‖u‖²_S) with `ns` its [`bloch_overlap`] norm `‖u‖²_S`.
fn group_velocity(pencil: &CompanionPencil, lambda: Complex64, u: &[Complex64], ns: f64) -> f64 {
    let t01u = pencil.t01.matvec(u);
    let mut c = Complex64::ZERO;
    for i in 0..u.len() {
        c += u[i].conj() * t01u[i];
    }
    2.0 * (lambda * c).im / ns
}

/// Classifies raw eigenpairs into retarded left-/right-going mode sets,
/// flux-normalizing the propagating ones.
///
/// `pairs` holds `(λ, u)` with `u` the bottom block of the companion
/// eigenvector; non-finite or out-of-range λ are ignored by the caller.
pub fn classify_modes(
    lead: &LeadBlocks,
    pencil: &CompanionPencil,
    pairs: &[(Complex64, Vec<Complex64>)],
) -> LeadModes {
    classify_modes_eta(lead, pencil, pairs, 0.0)
}

/// [`classify_modes`] at finite broadening. A propagating mode of the
/// pencil at `E + iη` sits at `|λ| = e^{−η/|v|}`, not on the unit circle;
/// the fixed [`PROP_TOL`] band would misread it as evanescent (killing
/// its injection and silently zeroing the transmission), so candidates
/// just off the circle are re-tested against the decay their own group
/// velocity predicts.
pub fn classify_modes_eta(
    lead: &LeadBlocks,
    pencil: &CompanionPencil,
    pairs: &[(Complex64, Vec<Complex64>)],
    eta: f64,
) -> LeadModes {
    let mut left = Vec::new();
    let mut right = Vec::new();
    for (lambda, u_raw) in pairs {
        let mag = lambda.abs();
        if !lambda.is_finite() || mag < 1e-12 {
            continue;
        }
        let norm = u_raw.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
        if norm < 1e-12 {
            continue;
        }
        let mut u: Vec<Complex64> = u_raw.iter().map(|&z| z / norm).collect();
        // Norm and velocity of a mode on the circle or, broadened, near it —
        // once: the η test and the flux normalization read the same two.
        let on_circle = (mag - 1.0).abs() < PROP_TOL;
        let near = near_circle(mag, eta);
        let (v, ns) = if on_circle || near {
            let ns = bloch_overlap(lead, *lambda, &u);
            (group_velocity(pencil, *lambda, &u, ns), ns)
        } else {
            (0.0, 0.0)
        };
        let propagating = on_circle
            || (near && v.abs() > 1e-9 && mag.ln().abs() <= 2.0 * eta / v.abs() + PROP_TOL);
        if propagating {
            // Flux normalization: scale so |v|·‖u‖²_S = 1.
            let scale = 1.0 / (v.abs() * ns).sqrt().max(1e-12);
            for z in u.iter_mut() {
                *z = z.scale(scale);
            }
            let mode = ModeSet { lambda: *lambda, u, velocity: v, propagating: true };
            if v >= 0.0 {
                right.push(mode);
            } else {
                left.push(mode);
            }
        } else {
            let mode = ModeSet { lambda: *lambda, u, velocity: 0.0, propagating: false };
            if mag < 1.0 {
                right.push(mode); // decays towards +x
            } else {
                left.push(mode); // decays towards −x
            }
        }
    }
    // Deterministic ordering: propagating first, by |Im k| then phase.
    let key = |m: &ModeSet| {
        (
            if m.propagating { 0 } else { 1 },
            ((m.lambda.abs().ln().abs()) * 1e9) as i64,
            (m.lambda.arg() * 1e9) as i64,
        )
    };
    left.sort_by_key(|a| key(a));
    right.sort_by_key(|a| key(a));
    LeadModes { left_going: left, right_going: right }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::dense_modes;

    #[test]
    fn chain_in_band_has_one_mode_each_way() {
        let lead = LeadBlocks::chain_1d(0.0, -1.0);
        let pencil = CompanionPencil::at_energy(&lead, 0.3, 0.0);
        let pairs = dense_modes(&pencil).unwrap();
        let modes = classify_modes(&lead, &pencil, &pairs);
        assert_eq!(modes.propagating_counts(), (1, 1));
        // Velocities are opposite and equal in magnitude.
        let vl = modes.left_going[0].velocity;
        let vr = modes.right_going[0].velocity;
        assert!(vl < 0.0 && vr > 0.0);
        assert!((vl + vr).abs() < 1e-9);
        // E = −2 cos k ⇒ v = dE/dk = 2 sin k with k = acos(−E/2).
        let k = (0.3f64 / 2.0).acos();
        assert!((vr - 2.0 * k.sin()).abs() < 1e-6, "v = {vr}");
    }

    #[test]
    fn chain_outside_band_has_only_evanescent() {
        let lead = LeadBlocks::chain_1d(0.0, -1.0);
        let pencil = CompanionPencil::at_energy(&lead, 3.0, 0.0);
        let pairs = dense_modes(&pencil).unwrap();
        let modes = classify_modes(&lead, &pencil, &pairs);
        assert_eq!(modes.propagating_counts(), (0, 0));
        assert_eq!(modes.left_going.len(), 1);
        assert_eq!(modes.right_going.len(), 1);
        assert!(modes.left_going[0].lambda.abs() > 1.0);
        assert!(modes.right_going[0].lambda.abs() < 1.0);
        // λ_left · λ_right = 1 (reciprocal pair).
        let prod = modes.left_going[0].lambda * modes.right_going[0].lambda;
        assert!((prod - Complex64::ONE).abs() < 1e-8);
    }

    #[test]
    fn flux_normalization_sets_unit_flux() {
        let lead = LeadBlocks::chain_1d(0.0, -1.0);
        let pencil = CompanionPencil::at_energy(&lead, -0.7, 0.0);
        let pairs = dense_modes(&pencil).unwrap();
        let modes = classify_modes(&lead, &pencil, &pairs);
        let m = &modes.right_going[0];
        // Flux = 2·Im(uᴴ T01 λ u) must be ±1 after normalization.
        let t01u = pencil.t01.matvec(&m.u);
        let mut c = Complex64::ZERO;
        for (ui, ti) in m.u.iter().zip(&t01u) {
            c += ui.conj() * *ti;
        }
        let flux = 2.0 * (m.lambda * c).im;
        assert!((flux.abs() - 1.0).abs() < 1e-9, "flux = {flux}");
    }

    #[test]
    fn broadened_propagating_modes_are_rescued() {
        // At E + iη a propagating mode sits at |λ| = e^{−η/|v|} ≉ 1; the
        // η-aware classification must still see it as propagating (the
        // escalation ladder's η rung depends on this — losing the mode
        // silently zeroes the injection and the transmission).
        let lead = LeadBlocks::chain_1d(0.0, -1.0);
        let eta = 1e-5; // well past PROP_TOL·|v|
        let pencil = CompanionPencil::at_energy(&lead, 0.3, eta);
        let pairs = dense_modes(&pencil).unwrap();
        // The fixed band misclassifies...
        let strict = classify_modes(&lead, &pencil, &pairs);
        assert_eq!(strict.propagating_counts(), (0, 0), "premise: η pushed λ off the circle");
        // ...the η-aware one recovers both directions with sane velocities.
        let modes = classify_modes_eta(&lead, &pencil, &pairs, eta);
        assert_eq!(modes.propagating_counts(), (1, 1));
        let vr = modes.right_going[0].velocity;
        let k = (0.3f64 / 2.0).acos();
        assert!((vr - 2.0 * k.sin()).abs() < 1e-3, "v = {vr}");
        // Genuinely evanescent modes stay evanescent under broadening.
        let pencil_gap = CompanionPencil::at_energy(&lead, 3.0, eta);
        let pairs_gap = dense_modes(&pencil_gap).unwrap();
        let gap = classify_modes_eta(&lead, &pencil_gap, &pairs_gap, eta);
        assert_eq!(gap.propagating_counts(), (0, 0));
    }

    #[test]
    fn two_band_lead_mode_count_matches_bands() {
        // At an energy crossed by exactly one band, one propagating pair.
        let h00 = ZMat::from_diag(&[qtx_linalg::c64(-1.5, 0.0), qtx_linalg::c64(1.5, 0.0)]);
        let h01 = ZMat::from_diag(&[qtx_linalg::c64(0.4, 0.0), qtx_linalg::c64(-0.4, 0.0)]);
        let lead = LeadBlocks::new(h00, h01, ZMat::identity(2), ZMat::zeros(2, 2));
        // Band 1 spans [−2.3, −0.7]; band 2 spans [0.7, 2.3].
        let pencil = CompanionPencil::at_energy(&lead, -1.0, 0.0);
        let pairs = dense_modes(&pencil).unwrap();
        let modes = classify_modes(&lead, &pencil, &pairs);
        assert_eq!(modes.propagating_counts(), (1, 1));
        // In the gap: nothing propagates.
        let pencil_gap = CompanionPencil::at_energy(&lead, 0.0, 0.0);
        let pairs_gap = dense_modes(&pencil_gap).unwrap();
        let modes_gap = classify_modes(&lead, &pencil_gap, &pairs_gap);
        assert_eq!(modes_gap.propagating_counts(), (0, 0));
    }

    /// `classify_modes_eta` as it stood before the norm was computed once
    /// and `S01ᴴ·u` read in place: two `bloch_overlap` calls per
    /// propagating mode, each materializing `S01ᴴ`.
    fn classify_reference(
        lead: &LeadBlocks,
        pencil: &CompanionPencil,
        pairs: &[(Complex64, Vec<Complex64>)],
        eta: f64,
    ) -> Vec<(Complex64, Vec<Complex64>, f64, bool)> {
        let overlap = |lambda: Complex64, u: &[Complex64]| -> f64 {
            let s00u = lead.s00.matvec(u);
            let s01u = lead.s01.matvec(u);
            let s10u = lead.s01.adjoint().matvec(u);
            let mut acc = Complex64::ZERO;
            let li = lambda.inv();
            for i in 0..u.len() {
                acc += u[i].conj() * (s00u[i] + lambda * s01u[i] + li * s10u[i]);
            }
            acc.re.max(1e-12)
        };
        let velocity = |lambda: Complex64, u: &[Complex64]| -> f64 {
            let t01u = pencil.t01.matvec(u);
            let mut c = Complex64::ZERO;
            for i in 0..u.len() {
                c += u[i].conj() * t01u[i];
            }
            2.0 * (lambda * c).im / overlap(lambda, u)
        };
        let mut out = Vec::new();
        for (lambda, u_raw) in pairs {
            let mag = lambda.abs();
            let norm = u_raw.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
            if !lambda.is_finite() || mag < 1e-12 || norm < 1e-12 {
                continue;
            }
            let mut u: Vec<Complex64> = u_raw.iter().map(|&z| z / norm).collect();
            let mut propagating = (mag - 1.0).abs() < PROP_TOL;
            if !propagating && eta > 0.0 && mag.ln().abs() < 0.05 {
                let v = velocity(*lambda, &u);
                propagating = v.abs() > 1e-9 && mag.ln().abs() <= 2.0 * eta / v.abs() + PROP_TOL;
            }
            let mut v = 0.0;
            if propagating {
                v = velocity(*lambda, &u);
                let scale = 1.0 / (v.abs() * overlap(*lambda, &u)).sqrt().max(1e-12);
                for z in u.iter_mut() {
                    *z = z.scale(scale);
                }
            }
            out.push((*lambda, u, v, propagating));
        }
        out
    }

    #[test]
    fn modes_are_bit_identical_to_the_two_overlap_routine() {
        // A non-orthogonal three-orbital lead (S01 ≠ 0, complex couplings)
        // scanned through its bands, exactly and with broadening.
        let c = qtx_linalg::c64;
        let mut h00 = ZMat::from_diag(&[c(-1.0, 0.0), c(0.2, 0.0), c(1.3, 0.0)]);
        h00[(0, 1)] = c(0.1, 0.05);
        h00[(1, 0)] = c(0.1, -0.05);
        let mut h01 = ZMat::from_diag(&[c(0.5, 0.0), c(-0.4, 0.1), c(0.3, 0.0)]);
        h01[(0, 2)] = c(0.07, -0.02);
        let s01 = ZMat::random(3, 3, 5).scaled(c(0.04, 0.0));
        let lead = LeadBlocks::new(h00, h01, ZMat::identity(3), s01);
        let mut propagating = 0;
        for eta in [0.0, 1e-6, 1e-4] {
            for step in 0..40 {
                let e = -2.0 + 0.1 * step as f64;
                let pencil = CompanionPencil::at_energy(&lead, e, eta);
                let pairs = dense_modes(&pencil).unwrap();
                let modes = classify_modes_eta(&lead, &pencil, &pairs, eta);
                let reference = classify_reference(&lead, &pencil, &pairs, eta);
                let got = modes.left_going.iter().chain(&modes.right_going);
                assert_eq!(got.clone().count(), reference.len(), "E={e} η={eta}");
                for m in got {
                    let (_, u, v, prop) = reference
                        .iter()
                        .find(|r| r.0 == m.lambda && r.3 == m.propagating && r.1 == m.u)
                        .unwrap_or_else(|| panic!("E={e} η={eta}: mode λ={} moved", m.lambda));
                    assert_eq!((m.velocity.to_bits(), m.propagating), (v.to_bits(), *prop));
                    assert_eq!(&m.u, u);
                    propagating += m.propagating as usize;
                }
            }
        }
        assert!(propagating > 20, "the scan crossed no band: {propagating} propagating modes");
    }
}
