//! Boundary self-energies `Σ^RB` and injection vectors `Inj` (Eq. 5).
//!
//! With the retarded mode sets of a lead, the Bloch propagator of the
//! outgoing subspace is `F = U·Λ·U⁺` (pseudo-inverse because FEAST only
//! returns the annulus modes — the fast-decaying remainder is negligible,
//! §3.A). The scattered wave in the left lead obeys `ψ_{q−1} = F_L⁻¹·ψ_q`,
//! which folds the semi-infinite lead into
//!
//! ```text
//! Σ_L = −T10·U_L·Λ_L⁻¹·U_L⁺          (added to the first diagonal block)
//! Σ_R = −T01·U_R·Λ_R·U_R⁺            (added to the last diagonal block)
//! ```
//!
//! and an incoming propagating mode `(λ_i, u_i)` injects
//!
//! ```text
//! Inj_i^L = −T10·λ_i⁻¹·u_i − Σ_L·u_i     (top block rows only)
//! Inj_i^R = −T01·λ_i·u_i   − Σ_R·u_i     (bottom block rows only)
//! ```
//!
//! reproducing the sparse right-hand-side structure of Fig. 4. The NEGF
//! identity `Σ_L = T10·g_L·T01` with the decimated surface Green's
//! function `g_L` provides an independent cross-check (tests below).

use crate::baselines::{sancho_rubio, shift_invert_modes};
use crate::beyn::beyn_annulus_ws;
use crate::companion::CompanionPencil;
use crate::error::{ObcError, ObcOutcome};
use crate::feast::{feast_annulus_ws, FeastStats};
use crate::lead::LeadBlocks;
use crate::modes::{classify_modes_eta, LeadModes, ModeSet};
use crate::ObcMethod;
use qtx_linalg::{c64, fault, gemm, qr_factor_ws, Complex64, LinalgError, Op, Workspace, ZMat};
use std::sync::atomic::{AtomicU64, Ordering};

/// Which contact the self-energy belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Lead occupying `q ≤ −1` (electrons enter moving towards +x).
    Left,
    /// Lead occupying `q ≥ nb` (electrons enter moving towards −x).
    Right,
}

/// Imaginary broadening `η` of a retarded evaluation at `E + iη`.
///
/// A dedicated newtype (instead of a bare `f64` trailing parameter) so
/// that [`self_energy`]'s one merged signature reads unambiguously at the
/// call site: `self_energy(&lead, e, Eta::ZERO, Side::Left, method)`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Eta(pub f64);

impl Eta {
    /// No broadening — the exact-energy production evaluation.
    pub const ZERO: Eta = Eta(0.0);
}

impl From<f64> for Eta {
    fn from(v: f64) -> Eta {
        Eta(v)
    }
}

/// Process-wide count of *actual* self-energy builds performed by
/// [`self_energy`] (any method: FEAST, Beyn, shift-invert, Sancho–Rubio).
/// Fault-injected calls that never reach the solve are not counted.
/// Cache layers assert against deltas of this counter to prove a warm
/// sweep performed zero OBC solves.
static OBC_SOLVES: AtomicU64 = AtomicU64::new(0);

/// Total self-energy solves performed by this process.
pub fn obc_solves_total() -> u64 {
    OBC_SOLVES.load(Ordering::Relaxed)
}

/// Self-energy + injection data for one contact at one energy.
#[derive(Debug, Clone)]
pub struct ObcResult {
    /// Boundary self-energy block (`nf × nf`).
    pub sigma: ZMat,
    /// Injection columns, one per incoming propagating mode (flux
    /// normalized); rows span the contact block.
    pub injection: ZMat,
    /// The incoming propagating modes pairing with `injection` columns.
    pub inc_modes: Vec<ModeSet>,
    /// The outgoing mode set used to build `Σ` (needed to project
    /// transmitted amplitudes).
    pub out_modes: Vec<ModeSet>,
    /// FEAST statistics when that method ran.
    pub stats: Option<FeastStats>,
}

/// `−T·U·diag(λ^pow)·U⁺` for the outgoing mode set `U` and the coupling
/// block `T` of its side — Σ assembled thin: `(T·U·Λ^pow)` is `nf × m` and
/// `U⁺` is `m × nf`, so the two products cost `nf²·m` each and the
/// `nf × nf` propagator `U·Λ^pow·U⁺` is never formed. Every temporary —
/// the mode blocks, the QR factors of `U`, the pseudo-inverse solve — is
/// borrowed from `ws`.
fn sigma_of_modes(coupling: &ZMat, modes: &[ModeSet], pow: i32, ws: &Workspace) -> ZMat {
    let nf = coupling.rows();
    let mut sigma = ZMat::zeros(nf, nf);
    if modes.is_empty() {
        return sigma;
    }
    let m = modes.len();
    let mut u = ws.take_scratch(nf, m);
    let mut ul = ws.take_scratch(nf, m);
    for (j, mode) in modes.iter().enumerate() {
        let lp = mode.lambda.powi(pow);
        for i in 0..nf {
            u[(i, j)] = mode.u[i];
            ul[(i, j)] = mode.u[i] * lp;
        }
    }
    // U⁺ = least-squares solve U·W = I (annulus-truncated pseudo-inverse)
    // through the blocked compact-WY QR over the same pool.
    let f = qr_factor_ws(&u, ws);
    let mut eye = ws.take(nf, nf);
    for i in 0..nf {
        eye[(i, i)] = Complex64::ONE;
    }
    let mut u_pinv = ws.take_scratch(m, nf);
    f.least_squares_into(eye.view(), &mut u_pinv, ws);
    f.recycle_into(ws);
    ws.recycle(eye);
    ws.recycle(u);
    let tul = ws.matmul(coupling, &ul);
    ws.recycle(ul);
    gemm(-Complex64::ONE, &tul, Op::None, &u_pinv, Op::None, Complex64::ZERO, &mut sigma);
    ws.recycle(tul);
    ws.recycle(u_pinv);
    sigma
}

/// Computes lead modes with the requested algorithm (zero broadening).
pub fn lead_modes(
    lead: &LeadBlocks,
    e: f64,
    method: ObcMethod,
) -> ObcOutcome<(LeadModes, Option<FeastStats>)> {
    lead_modes_eta(lead, e, 0.0, method)
}

/// [`lead_modes`] with an explicit broadening: the pencil is built at
/// `E + iη`, which pushes unit-circle eigenvalues off contours and
/// regularizes band-edge degeneracies — the escalation ladder's first
/// retry knob.
pub fn lead_modes_eta(
    lead: &LeadBlocks,
    e: f64,
    eta: f64,
    method: ObcMethod,
) -> ObcOutcome<(LeadModes, Option<FeastStats>)> {
    let pencil = CompanionPencil::at_energy(lead, e, eta);
    pencil_modes(lead, &pencil, eta, method, &Workspace::new())
}

/// The mode solve behind [`lead_modes_eta`] and [`self_energy`], on a
/// pencil and a buffer pool the caller already holds.
fn pencil_modes(
    lead: &LeadBlocks,
    pencil: &CompanionPencil,
    eta: f64,
    method: ObcMethod,
    ws: &Workspace,
) -> ObcOutcome<(LeadModes, Option<FeastStats>)> {
    let (pairs, stats) = match method {
        ObcMethod::Feast(cfg) => match feast_annulus_ws(pencil, cfg, ws) {
            Ok((p, s)) => (p, Some(s)),
            // Injected faults must surface — the robustness battery drives
            // the escalation ladder through exactly this path — and so must
            // propagating modes FEAST saw but could not resolve: the
            // ladder's broadened rung is the answer to those, and the
            // point's record says it escalated. Other organic FEAST stalls
            // (modes straddling the contour at band edges) keep the
            // exact-but-slower dense fallback.
            Err(e) if e.is_injected() || e.is_stalled_modes() => return Err(e),
            Err(_) => (shift_invert_modes(pencil, c64(0.83, 0.41))?, None),
        },
        ObcMethod::Beyn(cfg) => (beyn_annulus_ws(pencil, cfg, ws)?, None),
        ObcMethod::ShiftInvert | ObcMethod::Decimation => {
            (shift_invert_modes(pencil, c64(0.83, 0.41))?, None)
        }
    };
    Ok((classify_modes_eta(lead, pencil, &pairs, eta), stats))
}

/// The whole-contact chokepoint of one Σ build: the fault-injection draw,
/// then the build counter. The key mixes everything an escalation can
/// change — energy, broadening, side, method and its quadrature size — so
/// a plain retry fails identically while any ladder rung gets a fresh draw.
fn draw_contact(e: f64, eta: f64, side: Side, method: ObcMethod) -> ObcOutcome<()> {
    let (tag, knob) = match method {
        ObcMethod::Feast(c) => (1.0, c.np as f64),
        ObcMethod::Beyn(c) => (2.0, c.np as f64),
        ObcMethod::ShiftInvert => (3.0, 0.0),
        ObcMethod::Decimation => (4.0, 0.0),
    };
    let side_f = match side {
        Side::Left => 0.0,
        Side::Right => 1.0,
    };
    if fault::should_fail("self_energy", fault::key_of(&[e, eta, side_f, tag, knob])) {
        return Err(ObcError::Linalg(LinalgError::Injected { site: "self_energy" }));
    }
    OBC_SOLVES.fetch_add(1, Ordering::Relaxed);
    Ok(())
}

/// The mode decomposition of one lead at `E + iη` — a function of the lead,
/// not of the contact: either side's Σ and injection assemble from it.
struct SolvedLead {
    pencil: CompanionPencil,
    modes: LeadModes,
    stats: Option<FeastStats>,
    /// The buffer pool of the mode solve, reused by the assemblies.
    ws: Workspace,
}

impl SolvedLead {
    fn solve(lead: &LeadBlocks, e: f64, eta: f64, method: ObcMethod) -> ObcOutcome<SolvedLead> {
        let pencil = CompanionPencil::at_energy(lead, e, eta);
        let ws = Workspace::new();
        let (modes, stats) = pencil_modes(lead, &pencil, eta, method, &ws)?;
        Ok(SolvedLead { pencil, modes, stats, ws })
    }

    /// Σ and injection of the contact on `side`.
    fn contact(&self, side: Side) -> ObcOutcome<ObcResult> {
        let nf = self.pencil.nf;
        let (coupling, outgoing, incoming, lam_pow) = match side {
            // Outgoing into the left lead; F_L⁻¹ = U Λ⁻¹ U⁺.
            Side::Left => (&self.pencil.t10, &self.modes.left_going, &self.modes.right_going, -1),
            // Outgoing into the right lead; F_R = U Λ U⁺.
            Side::Right => (&self.pencil.t01, &self.modes.right_going, &self.modes.left_going, 1),
        };
        let sigma = sigma_of_modes(coupling, outgoing, lam_pow, &self.ws);
        let inc_modes: Vec<ModeSet> = incoming.iter().filter(|m| m.propagating).cloned().collect();
        // Injection columns: −T·λ^{±1}·u − Σ·u.
        let mut injection = ZMat::zeros(nf, inc_modes.len());
        for (j, mode) in inc_modes.iter().enumerate() {
            let lp = mode.lambda.powi(lam_pow);
            let tu = coupling.matvec(&mode.u);
            let su = sigma.matvec(&mode.u);
            for i in 0..nf {
                injection[(i, j)] = -(tu[i] * lp) - su[i];
            }
        }
        // Non-finite outputs poison every downstream solve silently (the
        // max-norms drop NaN); catch them at the boundary-condition seam.
        let bad = sigma.non_finite_count() + injection.non_finite_count();
        if bad > 0 {
            return Err(ObcError::NonFinite { what: "self-energy", count: bad });
        }
        Ok(ObcResult {
            sigma,
            injection,
            inc_modes,
            out_modes: outgoing.clone(),
            stats: self.stats.clone(),
        })
    }
}

/// Boundary self-energy and injection for one side (mode-based, the
/// FEAST+SplitSolve production path): pencil and coupling blocks are both
/// built at `E + iη`. Pass [`Eta::ZERO`] for the exact-energy evaluation;
/// the escalation ladder passes its per-rung broadening.
pub fn self_energy(
    lead: &LeadBlocks,
    e: f64,
    eta: Eta,
    side: Side,
    method: ObcMethod,
) -> ObcOutcome<ObcResult> {
    let Eta(eta) = eta;
    draw_contact(e, eta, side, method)?;
    if let ObcMethod::Decimation = method {
        let sigma = self_energy_decimation(lead, e, eta.max(1e-8), side)?;
        let bad = sigma.non_finite_count();
        if bad > 0 {
            return Err(ObcError::NonFinite { what: "decimation sigma", count: bad });
        }
        let nf = lead.nf();
        return Ok(ObcResult {
            sigma,
            injection: ZMat::zeros(nf, 0),
            inc_modes: Vec::new(),
            out_modes: Vec::new(),
            stats: None,
        });
    }
    SolvedLead::solve(lead, e, eta, method)?.contact(side)
}

/// Both contacts of one energy point, `(left, right)`: bit for bit what
/// [`self_energy`] returns for `(lead_l, Side::Left)` and then
/// `(lead_r, Side::Right)`, chokepoint draws and [`obc_solves_total`]
/// counts included — on one mode solve when the two leads are the same
/// bytes ([`LeadBlocks::same_bits`]; the modes are a function of the lead
/// and `E + iη`, not of the contact), on two otherwise. Decimation has no
/// modes to share. A failure names the contact it belongs to, the order
/// being left chokepoint, modes, left Σ, right chokepoint, right Σ.
pub fn self_energy_pair(
    lead_l: &LeadBlocks,
    lead_r: &LeadBlocks,
    e: f64,
    eta: Eta,
    method: ObcMethod,
) -> Result<(ObcResult, ObcResult), (Side, ObcError)> {
    let left = |source| (Side::Left, source);
    let right = |source| (Side::Right, source);
    if method == ObcMethod::Decimation || !lead_l.same_bits(lead_r) {
        let obc_l = self_energy(lead_l, e, eta, Side::Left, method).map_err(left)?;
        let obc_r = self_energy(lead_r, e, eta, Side::Right, method).map_err(right)?;
        return Ok((obc_l, obc_r));
    }
    draw_contact(e, eta.0, Side::Left, method).map_err(left)?;
    let solved = SolvedLead::solve(lead_l, e, eta.0, method).map_err(left)?;
    let obc_l = solved.contact(Side::Left).map_err(left)?;
    draw_contact(e, eta.0, Side::Right, method).map_err(right)?;
    let obc_r = solved.contact(Side::Right).map_err(right)?;
    Ok((obc_l, obc_r))
}

/// Self-energy through Sancho–Rubio decimation (ref. \[40\]) — the
/// independent NEGF-era route: `Σ_L = T10·g_L·T01`, `Σ_R = T01·g_R·T10`.
pub fn self_energy_decimation(lead: &LeadBlocks, e: f64, eta: f64, side: Side) -> ObcOutcome<ZMat> {
    let (t00, t01, t10) = lead.t_blocks(e, eta);
    match side {
        Side::Left => {
            // Left lead grows towards −x: swap the coupling roles.
            let g = sancho_rubio(&t00, &t10, &t01, 1e-13, 500)?;
            Ok(&(&t10 * &g) * &t01)
        }
        Side::Right => {
            let g = sancho_rubio(&t00, &t01, &t10, 1e-13, 500)?;
            Ok(&(&t01 * &g) * &t10)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feast::FeastConfig;
    use qtx_linalg::Complex64;

    fn chain() -> LeadBlocks {
        LeadBlocks::chain_1d(0.0, -1.0)
    }

    #[test]
    fn sigma_matches_analytic_chain() {
        // Σ_L = t·e^{ik} with E = 2t·cos k, t = −1 (module docs derivation).
        let e = 0.5;
        let k = (-e / 2.0f64).acos(); // E = −2 cos k
        let expected = c64(-k.cos(), -k.sin()); // t e^{ik} = −e^{ik}... sign check below
        let obc = self_energy(&chain(), e, Eta::ZERO, Side::Left, ObcMethod::ShiftInvert).unwrap();
        let got = obc.sigma[(0, 0)];
        // Retarded: Im Σ < 0 and |Σ| = |t| = 1.
        assert!(got.im < 0.0, "retarded self-energy, got {got}");
        assert!((got.abs() - 1.0).abs() < 1e-8);
        assert!((got - expected).abs() < 1e-6, "{got} vs {expected}");
    }

    #[test]
    fn mode_sigma_equals_decimation_sigma() {
        for &e in &[0.3f64, -0.8, 1.4] {
            let modes_sigma =
                self_energy(&chain(), e, Eta::ZERO, Side::Left, ObcMethod::ShiftInvert)
                    .unwrap()
                    .sigma;
            let dec_sigma = self_energy_decimation(&chain(), e, 1e-9, Side::Left).unwrap();
            assert!(
                modes_sigma.max_diff(&dec_sigma) < 1e-5,
                "E = {e}: {} vs {}",
                modes_sigma[(0, 0)],
                dec_sigma[(0, 0)]
            );
        }
    }

    #[test]
    fn feast_sigma_equals_shift_invert_sigma() {
        let h00 = ZMat::from_diag(&[c64(-1.5, 0.0), c64(1.5, 0.0)]);
        let h01 = ZMat::from_diag(&[c64(0.4, 0.0), c64(-0.4, 0.0)]);
        let lead = LeadBlocks::new(h00, h01, ZMat::identity(2), ZMat::zeros(2, 2));
        let cfg = FeastConfig { r_outer: 12.0, np: 16, ..FeastConfig::default() };
        for &e in &[-1.2f64, 1.1] {
            let s_feast =
                self_energy(&lead, e, Eta::ZERO, Side::Left, ObcMethod::Feast(cfg)).unwrap();
            let s_si =
                self_energy(&lead, e, Eta::ZERO, Side::Left, ObcMethod::ShiftInvert).unwrap();
            assert!(
                s_feast.sigma.max_diff(&s_si.sigma) < 1e-5,
                "E = {e}: diff {:.2e}",
                s_feast.sigma.max_diff(&s_si.sigma)
            );
            assert_eq!(s_feast.inc_modes.len(), s_si.inc_modes.len());
        }
    }

    #[test]
    fn right_side_mirrors_left_for_symmetric_lead() {
        let e = 0.7;
        let l = self_energy(&chain(), e, Eta::ZERO, Side::Left, ObcMethod::ShiftInvert).unwrap();
        let r = self_energy(&chain(), e, Eta::ZERO, Side::Right, ObcMethod::ShiftInvert).unwrap();
        assert!((l.sigma[(0, 0)] - r.sigma[(0, 0)]).abs() < 1e-8, "inversion-symmetric chain");
    }

    #[test]
    fn injection_vanishes_in_gap() {
        let e = 3.5; // outside the band |E| ≤ 2
        let obc = self_energy(&chain(), e, Eta::ZERO, Side::Left, ObcMethod::ShiftInvert).unwrap();
        assert_eq!(obc.injection.cols(), 0);
        assert_eq!(obc.inc_modes.len(), 0);
        // And Σ is real (no broadening without open channels).
        assert!(obc.sigma[(0, 0)].im.abs() < 1e-7);
    }

    #[test]
    fn broadening_matrix_is_positive_semidefinite() {
        // Γ = i(Σ − Σᴴ) ⪰ 0 for retarded self-energies.
        let h00 = ZMat::from_diag(&[c64(-1.0, 0.0), c64(1.0, 0.0)]);
        let mut h01 = ZMat::from_diag(&[c64(0.45, 0.0), c64(-0.45, 0.0)]);
        h01[(0, 1)] = c64(0.1, 0.0);
        let lead = LeadBlocks::new(h00, h01, ZMat::identity(2), ZMat::zeros(2, 2));
        for &e in &[-1.1f64, 1.3] {
            let obc = self_energy(&lead, e, Eta::ZERO, Side::Left, ObcMethod::ShiftInvert).unwrap();
            let gamma = &obc.sigma.scaled(Complex64::I) - &obc.sigma.adjoint().scaled(Complex64::I);
            // Positive semidefinite ⇔ all eigenvalues ≥ −tol (Hermitian Γ).
            let dec = qtx_linalg::eig(&gamma).unwrap();
            for v in dec.values {
                assert!(v.re > -1e-7, "Γ eigenvalue {v} negative at E = {e}");
            }
        }
    }

    #[test]
    fn feast_stall_falls_back_to_dense_route() {
        // max_refine = 0 guarantees a FEAST stall at an in-band energy
        // (the annulus holds modes it never gets to refine towards)...
        let cfg = FeastConfig { max_refine: 0, ..FeastConfig::default() };
        let pencil = crate::companion::CompanionPencil::at_energy(&chain(), 0.4, 0.0);
        assert!(crate::feast::feast_annulus(&pencil, cfg).is_err());
        // ...but self_energy still succeeds through the shift-invert
        // fallback and lands on the exact dense answer.
        let obc = self_energy(&chain(), 0.4, Eta::ZERO, Side::Left, ObcMethod::Feast(cfg)).unwrap();
        let reference =
            self_energy(&chain(), 0.4, Eta::ZERO, Side::Left, ObcMethod::ShiftInvert).unwrap();
        assert!(obc.sigma.max_diff(&reference.sigma) < 1e-6);
    }

    #[test]
    fn beyn_method_matches_shift_invert_sigma() {
        let e = 0.6;
        let beyn = self_energy(
            &chain(),
            e,
            Eta::ZERO,
            Side::Left,
            ObcMethod::Beyn(crate::beyn::BeynConfig::default()),
        )
        .unwrap();
        let si = self_energy(&chain(), e, Eta::ZERO, Side::Left, ObcMethod::ShiftInvert).unwrap();
        assert!(beyn.sigma.max_diff(&si.sigma) < 1e-5);
        assert_eq!(beyn.inc_modes.len(), si.inc_modes.len());
    }

    #[test]
    fn broadened_self_energy_approaches_unbroadened() {
        let e = 0.5;
        let s0 = self_energy(&chain(), e, Eta::ZERO, Side::Left, ObcMethod::ShiftInvert).unwrap();
        let s1 = self_energy(&chain(), e, Eta(1e-6), Side::Left, ObcMethod::ShiftInvert).unwrap();
        assert!(s0.sigma.max_diff(&s1.sigma) < 1e-3);
        // Broadening keeps the retarded character.
        assert!(s1.sigma[(0, 0)].im < 0.0);
    }

    #[test]
    fn solve_counter_counts_real_builds_only() {
        let before = obc_solves_total();
        self_energy(&chain(), 0.3, Eta::ZERO, Side::Left, ObcMethod::ShiftInvert).unwrap();
        self_energy(&chain(), 0.3, Eta::ZERO, Side::Right, ObcMethod::Decimation).unwrap();
        assert!(obc_solves_total() - before >= 2, "every real build increments the counter");
    }

    #[test]
    fn decimation_method_variant_returns_sigma_only() {
        let obc = self_energy(&chain(), 0.2, Eta::ZERO, Side::Left, ObcMethod::Decimation).unwrap();
        assert_eq!(obc.injection.cols(), 0);
        let reference = self_energy_decimation(&chain(), 0.2, 1e-8, Side::Left).unwrap();
        assert!(obc.sigma.max_diff(&reference) < 1e-12);
    }
}
