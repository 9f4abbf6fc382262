//! Baseline OBC algorithms: dense solves, shift-and-invert, decimation.
//!
//! These are the methods the paper's Fig. 8 compares FEAST against:
//!
//! * [`shift_invert_modes`] — ref. \[38\]'s spectral transformation
//!   `M = (A − σB)⁻¹·B`: every finite eigenvalue `λ` of the pencil maps to
//!   `μ = 1/(λ − σ)` of `M`, so a single dense eigensolve of `M` recovers
//!   the whole finite spectrum (infinite λ land harmlessly at μ = 0). The
//!   cost is a dense `NBC × NBC` factorization *and* eigendecomposition —
//!   "the difficulty to parallelize the shift-and-invert method" is what
//!   motivated FEAST.
//! * [`dense_modes`] — direct `zggev` on the companion (used in tests as
//!   ground truth for small pencils).
//! * [`sancho_rubio`] — the decimation scheme of ref. \[40\]: an iterative
//!   surface Green's function independent of any eigensolver, used to
//!   cross-validate the mode-based self-energies.

use crate::companion::CompanionPencil;
use crate::error::{ObcError, ObcOutcome};
use qtx_linalg::{c64, eig, lu_factor, lu_factor_ws, zgesv, Complex64, Workspace, ZMat};

/// Directly solves the companion pencil with the dense generalized
/// eigensolver. Returns finite `(λ, u)` pairs (`u` = bottom block).
pub fn dense_modes(pencil: &CompanionPencil) -> ObcOutcome<Vec<(Complex64, Vec<Complex64>)>> {
    // Shift-and-invert with σ well inside the annulus is the most robust
    // dense route (B is singular whenever T01 is): reuse it with σ = 0.83
    // + a fallback shift when σ collides with an eigenvalue.
    shift_invert_modes(pencil, c64(0.83, 0.41))
}

/// Shift-and-invert spectral transformation at shift `σ` (ref. \[38\]).
///
/// Computes `M = (A − σB)⁻¹·B`, takes its dense eigendecomposition and
/// maps `μ → λ = σ + 1/μ`. All finite pencil eigenvalues are recovered;
/// companion structure gives the quadratic eigenvector as the bottom block.
pub fn shift_invert_modes(
    pencil: &CompanionPencil,
    sigma: Complex64,
) -> ObcOutcome<Vec<(Complex64, Vec<Complex64>)>> {
    let wrap = |e: qtx_linalg::LinalgError| ObcError::ShiftInvert {
        source: Box::new(ObcError::Linalg(e)),
    };
    let nf = pencil.nf;
    let a = pencil.a_dense();
    let b = pencil.b_dense();
    let shifted = &a - &b.scaled(sigma);
    let f = match lu_factor(&shifted) {
        Ok(f) => f,
        Err(_) => {
            // σ hit an eigenvalue: nudge it.
            let sigma2 = sigma + c64(0.017, 0.013);
            lu_factor(&(&a - &b.scaled(sigma2))).map_err(wrap)?
        }
    };
    let m = f.solve(&b);
    let dec = eig(&m).map_err(wrap)?;
    let mut out = Vec::new();
    for (j, &mu) in dec.values.iter().enumerate() {
        if mu.abs() < 1e-10 {
            continue; // λ = ∞: fast-decaying mode, out of every annulus
        }
        let lambda = sigma + mu.inv();
        let u: Vec<Complex64> = (nf..2 * nf).map(|i| dec.vectors[(i, j)]).collect();
        let un = u.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
        if un < 1e-10 {
            continue; // degenerate companion direction
        }
        // Keep only vectors that actually solve the quadratic pencil; the
        // eigensolver can return junk for clustered μ ≈ 0.
        if pencil.residual(lambda, &u) < 1e-6 {
            out.push((lambda, u));
        }
    }
    if out.is_empty() {
        return Err(ObcError::NoModes { method: "shift-invert" });
    }
    Ok(out)
}

/// Sancho–Rubio decimation: surface block of `A⁻¹` for the semi-infinite
/// block-tridiagonal matrix with diagonal `t00`, upper coupling `t01` and
/// lower coupling `t10` (chain grows away from the surface). Needs a
/// finite broadening (`t00` built at `E + iη`) to converge at in-band
/// energies.
pub fn sancho_rubio(
    t00: &ZMat,
    t01: &ZMat,
    t10: &ZMat,
    tol: f64,
    max_iter: usize,
) -> ObcOutcome<ZMat> {
    // Iteration derived by eliminating odd layers of A·G = 1:
    //   g = δ⁻¹
    //   δs ← δs − α·g·β
    //   δ  ← δ − α·g·β − β·g·α
    //   α  ← −α·g·α,   β ← −β·g·β
    let mut delta_s = t00.clone();
    let mut delta = t00.clone();
    let mut alpha = t01.clone();
    let mut beta = t10.clone();
    let scale = t00.norm_max().max(1.0);
    // All per-iteration temporaries cycle through one pool: each decimation
    // step reuses the buffers the previous one released.
    let ws = Workspace::new();
    for _ in 0..max_iter {
        if alpha.norm_max() < tol * scale && beta.norm_max() < tol * scale {
            return Ok(zgesv(&delta_s, &ZMat::identity(t00.rows()))?);
        }
        let f = lu_factor_ws(&delta, &ws)?;
        let mut g_alpha = ws.take_scratch(alpha.rows(), alpha.cols());
        f.solve_into(alpha.view(), &mut g_alpha); // δ⁻¹ α
        let mut g_beta = ws.take_scratch(beta.rows(), beta.cols());
        f.solve_into(beta.view(), &mut g_beta); // δ⁻¹ β
        f.recycle_into(&ws);
        let a_g_b = ws.matmul(&alpha, &g_beta);
        let b_g_a = ws.matmul(&beta, &g_alpha);
        delta_s.axpy(-Complex64::ONE, &a_g_b);
        delta.axpy(-Complex64::ONE, &a_g_b);
        delta.axpy(-Complex64::ONE, &b_g_a);
        ws.recycle(a_g_b);
        ws.recycle(b_g_a);
        let mut next_alpha = ws.matmul(&alpha, &g_alpha);
        next_alpha.scale_assign(-Complex64::ONE);
        ws.recycle(std::mem::replace(&mut alpha, next_alpha));
        let mut next_beta = ws.matmul(&beta, &g_beta);
        next_beta.scale_assign(-Complex64::ONE);
        ws.recycle(std::mem::replace(&mut beta, next_beta));
        ws.recycle(g_alpha);
        ws.recycle(g_beta);
    }
    // Report how far from converged the couplings still are — the
    // escalation ladder reads the defect to decide whether a broadening
    // bump is worth a retry.
    Err(ObcError::SanchoRubio {
        iterations: max_iter,
        defect: alpha.norm_max().max(beta.norm_max()) / scale,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lead::LeadBlocks;

    #[test]
    fn dense_modes_of_chain() {
        let lead = LeadBlocks::chain_1d(0.0, -1.0);
        let pencil = CompanionPencil::at_energy(&lead, 0.5, 0.0);
        let modes = dense_modes(&pencil).unwrap();
        assert_eq!(modes.len(), 2);
        for (lam, u) in &modes {
            assert!((lam.abs() - 1.0).abs() < 1e-8, "in-band roots on unit circle");
            assert!(pencil.residual(*lam, u) < 1e-9);
        }
    }

    #[test]
    fn shift_invert_agrees_with_dense_for_random_lead() {
        let mut h00 = ZMat::random(3, 3, 21);
        h00.hermitianize();
        let h01 = ZMat::random(3, 3, 22).scaled(c64(0.5, 0.0));
        let lead = LeadBlocks::new(h00, h01, ZMat::identity(3), ZMat::zeros(3, 3));
        let pencil = CompanionPencil::at_energy(&lead, 0.2, 0.0);
        let m1 = shift_invert_modes(&pencil, c64(1.0, 0.3)).unwrap();
        let m2 = shift_invert_modes(&pencil, c64(0.6, -0.8)).unwrap();
        // Same finite spectrum independent of shift (compare annulus part).
        let in_annulus = |v: &Vec<(Complex64, Vec<Complex64>)>| {
            let mut l: Vec<f64> =
                v.iter().map(|(z, _)| z.abs()).filter(|m| (0.25..4.0).contains(m)).collect();
            l.sort_by(|a, b| a.partial_cmp(b).unwrap());
            l
        };
        let l1 = in_annulus(&m1);
        let l2 = in_annulus(&m2);
        assert_eq!(l1.len(), l2.len());
        for (a, b) in l1.iter().zip(&l2) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn sancho_rubio_matches_analytic_1d() {
        // Surface GF of the semi-infinite chain: g = (z − ε − t²g)⁻¹ ⇒
        // g = (z − ε − sqrt((z−ε)² − 4t²)) / (2t²) on the retarded branch.
        let (eps, t) = (0.0, -1.0);
        let e = 0.5;
        let eta = 1e-8;
        let lead = LeadBlocks::chain_1d(eps, t);
        let (t00, t01, t10) = lead.t_blocks(e, eta);
        let g = sancho_rubio(&t00, &t01, &t10, 1e-14, 200).unwrap();
        let z = c64(e - eps, eta);
        let disc = (z * z - c64(4.0 * t * t, 0.0)).sqrt();
        // Retarded branch: Im g < 0.
        let g1 = (z - disc) / (2.0 * t * t);
        let g2 = (z + disc) / (2.0 * t * t);
        let analytic = if g1.im < 0.0 { g1 } else { g2 };
        assert!((g[(0, 0)] - analytic).abs() < 1e-6, "{} vs {analytic}", g[(0, 0)]);
    }

    #[test]
    fn sancho_rubio_out_of_band_is_real() {
        let lead = LeadBlocks::chain_1d(0.0, -1.0);
        let (t00, t01, t10) = lead.t_blocks(5.0, 1e-10);
        let g = sancho_rubio(&t00, &t01, &t10, 1e-14, 200).unwrap();
        assert!(g[(0, 0)].im.abs() < 1e-6, "no DOS outside the band");
        // 1/g must satisfy the fixed point: z − t² g = 1/g.
        let z = c64(5.0, 0.0);
        let lhs = z - g[(0, 0)];
        assert!((lhs - g[(0, 0)].inv()).abs() < 1e-6);
    }

    #[test]
    fn sancho_rubio_reports_iterations_and_defect_at_max_iter() {
        // In-band energy at zero broadening: the couplings decay only
        // algebraically, so a 3-iteration cap cannot reach 1e-14.
        let lead = LeadBlocks::chain_1d(0.0, -1.0);
        let (t00, t01, t10) = lead.t_blocks(0.5, 0.0);
        match sancho_rubio(&t00, &t01, &t10, 1e-14, 3) {
            Err(ObcError::SanchoRubio { iterations, defect }) => {
                assert_eq!(iterations, 3, "diagnostics carry the exhausted cap");
                assert!(defect.is_finite() && defect > 1e-14, "defect {defect}");
            }
            other => panic!("expected SanchoRubio non-convergence, got {other:?}"),
        }
        // The same system converges once broadened — the ladder's η bump.
        let (t00, t01, t10) = lead.t_blocks(0.5, 1e-6);
        assert!(sancho_rubio(&t00, &t01, &t10, 1e-10, 500).is_ok());
    }

    #[test]
    fn decimation_handles_matrix_leads() {
        let mut h00 = ZMat::random(4, 4, 31);
        h00.hermitianize();
        let h01 = ZMat::random(4, 4, 32).scaled(c64(0.4, 0.0));
        let lead = LeadBlocks::new(h00.clone(), h01.clone(), ZMat::identity(4), ZMat::zeros(4, 4));
        let (t00, t01, t10) = lead.t_blocks(0.1, 1e-7);
        let g = sancho_rubio(&t00, &t01, &t10, 1e-13, 300).unwrap();
        // The surface GF satisfies g = (T00 − T01·g·T10)⁻¹ — fixed point.
        let inner = &(&t01 * &g) * &t10;
        let rebuilt = zgesv(&(&t00 - &inner), &ZMat::identity(4)).unwrap();
        assert!(g.max_diff(&rebuilt) < 1e-7);
    }
}
