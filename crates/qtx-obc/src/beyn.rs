//! Beyn's integral method for the lead eigenproblem (ref. \[43\]).
//!
//! §3.A closes with: "FEAST can be modified according to Ref. \[43\] to
//! further reduce the calculation time". Beyn's method is that
//! modification — instead of FEAST's Rayleigh–Ritz + subspace iteration it
//! extracts the eigenpairs *directly* from two contour moments of the
//! resolvent:
//!
//! ```text
//! A₀ = (1/2πi) ∮ P(z)⁻¹·V̂ dz          A₁ = (1/2πi) ∮ z·P(z)⁻¹·V̂ dz
//! ```
//!
//! With the rank-revealing SVD-like factorization `A₀ = Q·Σ·Wᴴ`, the
//! `m × m` matrix `B = Qᴴ·A₁·W·Σ⁻¹` has exactly the eigenvalues enclosed
//! by the contour, and its eigenvectors lift to the pencil's. One pass —
//! no refinement loop — at the same per-node cost as FEAST's quadrature,
//! which is the claimed saving.
//!
//! The moments are taken of the *companion* resolvent `(z·B − A)⁻¹` (size
//! `2·nf`, so up to `2·nf` enclosed eigenvalues fit in the first moment
//! pair), but each application still reduces to one `nf`-sized polynomial
//! solve through [`CompanionPencil::solve_shifted`] — the same per-node
//! cost as the FEAST quadrature. The annulus is outer-minus-inner circle
//! like the FEAST contour.

use crate::companion::CompanionPencil;
use crate::error::{ObcError, ObcOutcome};
use qtx_linalg::flops::{counts, map_counted};
use qtx_linalg::{eig_ws, gemm, zherk, Complex64, Op, Workspace, ZMat};

/// Beyn configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BeynConfig {
    /// Quadrature points per circle.
    pub np: usize,
    /// Outer annulus radius (inner = 1/R).
    pub r_outer: f64,
    /// Probe columns (must exceed the enclosed eigen-count).
    pub probes: usize,
    /// Relative singular-value cutoff for the rank truncation.
    pub rank_tol: f64,
    /// Eigenpair residual acceptance threshold.
    pub residual_tol: f64,
}

impl Default for BeynConfig {
    fn default() -> Self {
        BeynConfig { np: 16, r_outer: 16.0, probes: 0, rank_tol: 1e-10, residual_tol: 1e-7 }
    }
}

/// Runs Beyn's method on the annulus of the quadratic pencil. Returns
/// `(λ, u)` pairs like [`crate::feast::feast_annulus`].
///
/// Contour placement caveat: Beyn is a *single-shot* method — eigenvalues
/// sitting close to the integration contour leak into the moments with
/// only `(distance ratio)^{N_p}` suppression and are not cleaned up by a
/// subspace iteration as in FEAST. Keep a factor ≥ ~1.5 between `r_outer`
/// and the nearest excluded eigenvalue (the polish pass rescues mild
/// leakage, not on-contour eigenvalues).
pub fn beyn_annulus(
    pencil: &CompanionPencil,
    cfg: BeynConfig,
) -> ObcOutcome<Vec<(Complex64, Vec<Complex64>)>> {
    beyn_annulus_ws(pencil, cfg, &Workspace::new())
}

/// [`beyn_annulus`] over a caller-supplied buffer pool: the probe block,
/// the two contour moments, the Gram-matrix rank revealer (the "SVD
/// prefactorization" of `A₀`), the small `B` eigenproblem and the polish
/// solves all recycle through `ws`, so repeated calls against one warm
/// pool allocate no fresh matrices (the energy-point path starts a fresh
/// pool per mode solve; see [`crate::feast::feast_annulus_ws`]).
pub fn beyn_annulus_ws(
    pencil: &CompanionPencil,
    cfg: BeynConfig,
    ws: &Workspace,
) -> ObcOutcome<Vec<(Complex64, Vec<Complex64>)>> {
    let nbc = pencil.nbc();
    let probes = if cfg.probes == 0 { (pencil.nf + 8).min(nbc) } else { cfg.probes.min(nbc) };
    let mut rank = 0usize;
    // Failures leave carrying the probe count and the revealed moment
    // rank (0 when the quadrature itself failed) — the diagnostics the
    // escalation ladder reads before trying more nodes.
    beyn_core(pencil, cfg, ws, &mut rank).map_err(|source| ObcError::Beyn {
        probes,
        rank,
        source: Box::new(source),
    })
}

/// The quadrature + moment-processing body of [`beyn_annulus_ws`],
/// separated so the entry point can wrap failures with the revealed rank.
fn beyn_core(
    pencil: &CompanionPencil,
    cfg: BeynConfig,
    ws: &Workspace,
    rank_out: &mut usize,
) -> ObcOutcome<Vec<(Complex64, Vec<Complex64>)>> {
    let nf = pencil.nf;
    let nbc = 2 * nf;
    let probes = if cfg.probes == 0 { (nf + 8).min(nbc) } else { cfg.probes.min(nbc) };
    let mut v_hat = ws.take_scratch(nbc, probes);
    v_hat.randomize(0xbe_11);
    // Quadrature nodes: outer circle (+) and inner circle (−), half-step
    // offset to dodge band-edge eigenvalues at ±1.
    let nodes: Vec<(Complex64, f64)> = (0..cfg.np)
        .flat_map(|p| {
            let theta = 2.0 * std::f64::consts::PI * (p as f64 + 0.5) / cfg.np as f64;
            [
                (Complex64::from_polar(cfg.r_outer, theta), 1.0),
                (Complex64::from_polar(1.0 / cfg.r_outer, theta), -1.0),
            ]
        })
        .collect();
    // Moments: A_k = Σ_p w_p (z_p^{k+1}/N_p)·P(z_p)⁻¹·V̂  (the extra z
    // comes from dz = i·z·dθ on the circle). Per-node temporaries —
    // polynomial evaluation, factorization copy, solve buffers — all
    // cycle through the shared pool.
    let work = nodes.len() as u64 * (counts::zgetrf(nf) + counts::zgetrs(nf, probes));
    let partials: Vec<(ZMat, ZMat)> = map_counted(&nodes, work, |_, &(z, w)| {
        let f = pencil.factor_poly_ws(z, ws)?;
        let mut s0 = pencil.solve_shifted_ws(&f, z, &v_hat, ws);
        f.recycle_into(ws);
        let mut s1 = ws.copy_of(&s0);
        s0.scale_assign(z.scale(w / cfg.np as f64));
        s1.scale_assign((z * z).scale(w / cfg.np as f64));
        Ok((s0, s1))
    })
    .into_iter()
    .collect::<qtx_linalg::Result<Vec<_>>>()?;
    let mut a0 = ws.take(nbc, probes);
    let mut a1 = ws.take(nbc, probes);
    for (s0, s1) in partials {
        a0.axpy(Complex64::ONE, &s0);
        a1.axpy(Complex64::ONE, &s1);
        ws.recycle(s0);
        ws.recycle(s1);
    }
    ws.recycle(v_hat);
    // Rank-revealing factorization of A₀ through its Gram matrix
    // (A₀ = Q·Σ·Wᴴ with Q = A₀·W·Σ⁻¹): eigen-decompose A₀ᴴA₀ = W·Σ²·Wᴴ
    // with the Hermitian rank-k update (half the flops of a full gemm).
    let mut gram = ws.take(probes, probes);
    zherk(1.0, a0.view(), Op::Adjoint, 0.0, &mut gram);
    let dec = match eig_ws(&gram, ws) {
        Ok(dec) => dec,
        Err(e) => {
            for m in [gram, a0, a1] {
                ws.recycle(m);
            }
            return Err(e.into());
        }
    };
    ws.recycle(gram);
    let smax = dec.values.iter().map(|v| v.re).fold(0.0f64, f64::max);
    let keep: Vec<usize> =
        (0..probes).filter(|&j| dec.values[j].re > cfg.rank_tol * smax).collect();
    let m = keep.len();
    *rank_out = m;
    if smax <= 0.0 || m == 0 {
        ws.recycle(dec.vectors);
        ws.recycle(a0);
        ws.recycle(a1);
        return Ok(Vec::new()); // empty annulus
    }
    // W_m (probes × m) and Σ_m⁻¹.
    let mut w_m = ws.take(probes, m);
    let mut sig_inv = vec![0.0; m];
    for (jj, &j) in keep.iter().enumerate() {
        for i in 0..probes {
            w_m[(i, jj)] = dec.vectors[(i, j)];
        }
        sig_inv[jj] = 1.0 / dec.values[j].re.sqrt();
    }
    ws.recycle(dec.vectors);
    // Q = A₀·W·Σ⁻¹ (nbc × m). Its columns are orthonormal to roundoff by
    // construction; re-orthonormalizing with QR would rotate Q against the
    // SVD factor and destroy the exact similarity of B below.
    let mut q = ws.matmul(&a0, &w_m);
    for (jj, &si) in sig_inv.iter().enumerate() {
        for i in 0..nbc {
            q[(i, jj)] = q[(i, jj)].scale(si);
        }
    }
    // B = Qᴴ·A₁·W·Σ⁻¹ = Σ⁻¹·Wᴴ·(A₀ᴴ·A₁)·W·Σ⁻¹ (m × m): associating
    // through the probes-sized cross moment A₀ᴴ·A₁ replaces the two
    // nbc-tall products this used to take (A₁·W then Qᴴ·(A₁WΣ⁻¹)) with
    // one nbc-deep gemm plus probes-sized small products — roughly half
    // the moment-processing flops when m ≈ probes.
    let mut cross = ws.take_scratch(probes, probes);
    gemm(Complex64::ONE, &a0, Op::Adjoint, &a1, Op::None, Complex64::ZERO, &mut cross);
    ws.recycle(a0);
    ws.recycle(a1);
    let cw = ws.matmul(&cross, &w_m);
    ws.recycle(cross);
    let mut b = ws.take_scratch(m, m);
    gemm(Complex64::ONE, &w_m, Op::Adjoint, &cw, Op::None, Complex64::ZERO, &mut b);
    ws.recycle(cw);
    ws.recycle(w_m);
    for (jj, &sj) in sig_inv.iter().enumerate() {
        for (i, &si) in sig_inv.iter().enumerate() {
            b[(i, jj)] = b[(i, jj)].scale(si * sj);
        }
    }
    // Eigenpairs of B are the enclosed (λ, lifted u).
    let small = match eig_ws(&b, ws) {
        Ok(small) => small,
        Err(e) => {
            ws.recycle(b);
            ws.recycle(q);
            return Err(e.into());
        }
    };
    ws.recycle(b);
    let lifted = ws.matmul(&q, &small.vectors);
    ws.recycle(q);
    ws.recycle(small.vectors);
    let mut out = Vec::new();
    let lo = 1.0 / cfg.r_outer * 0.999;
    let hi = cfg.r_outer * 1.001;
    for (j, &lam) in small.values.iter().enumerate() {
        let mag = lam.abs();
        if !lam.is_finite() || mag < lo || mag > hi {
            continue;
        }
        // Quadratic eigenvector = bottom block of the companion vector.
        let mut u: Vec<Complex64> = (nf..nbc).map(|i| lifted[(i, j)]).collect();
        let norm = u.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
        if norm < 1e-12 {
            continue;
        }
        for z in u.iter_mut() {
            *z = *z / norm;
        }
        let mut lam = lam;
        // Quadrature leakage from eigenvalues just outside the contour
        // perturbs the single-shot moments; polish each candidate with
        // shifted-inverse-iteration steps (one nf-sized solve each) and a
        // quadratic Rayleigh-quotient eigenvalue update. The update is
        // kept only while the residual strictly improves — the Rayleigh
        // roots can be ill-conditioned and throw a near-converged pair
        // away otherwise.
        let mut best_res = pencil.residual(lam, &u);
        for _ in 0..5 {
            if best_res < cfg.residual_tol {
                break;
            }
            match polish(pencil, lam, &u, ws) {
                Some((l2, u2)) => {
                    let r2 = pencil.residual(l2, &u2);
                    if r2 < best_res {
                        lam = l2;
                        u = u2;
                        best_res = r2;
                    } else {
                        break;
                    }
                }
                None => break,
            }
        }
        let mag = lam.abs();
        if mag < lo || mag > hi {
            continue;
        }
        // Accept with a leakage allowance: single-shot quadrature limits
        // the attainable residual (contour-placement caveat above).
        if best_res < cfg.residual_tol.max(1e-4) {
            out.push((lam, u));
        }
    }
    ws.recycle(lifted);
    // Deduplicate eigenpairs that polished onto the same root.
    out.sort_by(|a, b| {
        (a.0.re, a.0.im).partial_cmp(&(b.0.re, b.0.im)).unwrap_or(std::cmp::Ordering::Equal)
    });
    out.dedup_by(|a, b| {
        (a.0 - b.0).abs() < 1e-9
            && a.1.iter().zip(&b.1).map(|(x, y)| x.conj() * *y).sum::<Complex64>().abs() > 0.999
    });
    Ok(out)
}

/// One inverse-iteration + Rayleigh-quotient polish step on a quadratic
/// eigenpair candidate.
fn polish(
    pencil: &CompanionPencil,
    lam: Complex64,
    u: &[Complex64],
    ws: &Workspace,
) -> Option<(Complex64, Vec<Complex64>)> {
    let nf = pencil.nf;
    // Shift slightly off the eigenvalue so P(z) stays invertible.
    let z = lam * Complex64::new(1.0 + 1e-7, 1e-7);
    let f = pencil.factor_poly_ws(z, ws).ok()?;
    let mut rhs = ws.take(2 * nf, 1);
    for i in 0..nf {
        rhs[(i, 0)] = u[i] * lam; // companion top block = λ·u
        rhs[(nf + i, 0)] = u[i];
    }
    let y = pencil.solve_shifted_ws(&f, z, &rhs, ws);
    f.recycle_into(ws);
    ws.recycle(rhs);
    let mut u2: Vec<Complex64> = (nf..2 * nf).map(|i| y[(i, 0)]).collect();
    ws.recycle(y);
    let norm = u2.iter().map(|v| v.norm_sqr()).sum::<f64>().sqrt();
    if norm < 1e-300 {
        return None;
    }
    for v in u2.iter_mut() {
        *v = *v / norm;
    }
    // Quadratic Rayleigh quotient: uᴴT01u·λ² + uᴴT00u·λ + uᴴT10u = 0.
    let quad = |m: &ZMat| -> Complex64 {
        let mv = m.matvec(&u2);
        u2.iter().zip(&mv).map(|(a, b)| a.conj() * *b).sum()
    };
    let (a, b, c) = (quad(&pencil.t01), quad(&pencil.t00), quad(&pencil.t10));
    if a.abs() < 1e-300 {
        return Some((lam, u2));
    }
    let disc = (b * b - a * c * 4.0).sqrt();
    let r1 = (-b + disc) / (a * 2.0);
    let r2 = (-b - disc) / (a * 2.0);
    let lam2 = if (r1 - lam).abs() <= (r2 - lam).abs() { r1 } else { r2 };
    Some((lam2, u2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::dense_modes;
    use crate::feast::{feast_annulus, FeastConfig};
    use crate::lead::LeadBlocks;
    use qtx_linalg::{c64, ZMat};

    fn sorted_mags(v: &[(Complex64, Vec<Complex64>)], lo: f64, hi: f64) -> Vec<f64> {
        let mut m: Vec<f64> =
            v.iter().map(|(z, _)| z.abs()).filter(|m| (lo..=hi).contains(m)).collect();
        m.sort_by(|a, b| a.partial_cmp(b).unwrap());
        m
    }

    #[test]
    fn beyn_finds_chain_modes() {
        let lead = LeadBlocks::chain_1d(0.0, -1.0);
        let pencil = CompanionPencil::at_energy(&lead, 0.4, 0.0);
        let modes = beyn_annulus(&pencil, BeynConfig::default()).unwrap();
        assert_eq!(modes.len(), 2);
        for (lam, u) in &modes {
            assert!((lam.abs() - 1.0).abs() < 1e-7);
            assert!(pencil.residual(*lam, u) < 1e-9);
        }
    }

    #[test]
    fn beyn_matches_feast_spectrum() {
        let mut h00 = ZMat::random(4, 4, 71);
        h00.hermitianize();
        let h01 = ZMat::random(4, 4, 72).scaled(c64(0.45, 0.0));
        let lead = LeadBlocks::new(h00, h01, ZMat::identity(4), ZMat::zeros(4, 4));
        let pencil = CompanionPencil::at_energy(&lead, 0.2, 0.0);
        // The lead spectrum has magnitudes {0.154, 0.511, 1, 1, 1, 1,
        // 1.958, 6.512}: R = 3 keeps a ≥2× margin between the contours and
        // every excluded eigenvalue (see the contour-placement caveat).
        let beyn =
            beyn_annulus(&pencil, BeynConfig { r_outer: 3.0, ..Default::default() }).unwrap();
        let feast =
            feast_annulus(&pencil, FeastConfig { r_outer: 3.0, np: 16, ..FeastConfig::default() })
                .unwrap()
                .0;
        let (lo, hi) = (1.0 / 2.9, 2.9);
        let b = sorted_mags(&beyn, lo, hi);
        let f = sorted_mags(&feast, lo, hi);
        assert_eq!(b.len(), f.len(), "beyn {b:?} vs feast {f:?}");
        for (x, y) in b.iter().zip(&f) {
            // Single-shot quadrature accuracy (leakage allowance ~1e-4).
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn beyn_matches_dense_annulus() {
        let lead = LeadBlocks::chain_1d(0.3, -0.8);
        let pencil = CompanionPencil::at_energy(&lead, 1.1, 0.0);
        let beyn =
            beyn_annulus(&pencil, BeynConfig { r_outer: 8.0, ..Default::default() }).unwrap();
        let dense = dense_modes(&pencil).unwrap();
        let b = sorted_mags(&beyn, 1.0 / 8.0, 8.0);
        let d = sorted_mags(&dense, 1.0 / 8.0, 8.0);
        assert_eq!(b.len(), d.len());
        for (x, y) in b.iter().zip(&d) {
            assert!((x - y).abs() < 1e-7, "{x} vs {y}");
        }
    }

    #[test]
    fn beyn_empty_annulus_far_outside_band() {
        let lead = LeadBlocks::chain_1d(0.0, -0.1);
        // E/t = −50 → |λ| ≈ 50 outside R = 8.
        let pencil = CompanionPencil::at_energy(&lead, 5.0, 0.0);
        let modes =
            beyn_annulus(&pencil, BeynConfig { r_outer: 8.0, ..Default::default() }).unwrap();
        assert!(modes.is_empty());
    }
}
