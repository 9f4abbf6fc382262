//! One-sweep Caroli transmission: `T(E) = Tr[Γ_L·G_{0,n−1}·Γ_R·G_{0,n−1}ᴴ]`
//! from a single right-to-left block elimination.
//!
//! `Σ^RB` touches only the corner blocks, so the transmission needs one
//! block of `G = (A − Σ^RB)⁻¹`, and of that block only its action on the
//! thin factors of the broadening matrices. With `Γ = P·K·Pᴴ`
//! ([`CompressedSigma::broadening_factor`], exact) the trace collapses to
//!
//! ```text
//! T = tr[K·M·K·Mᴴ],   M = P_Lᴴ·G_{0,n−1}·P_R   (2k_L × 2k_R)
//! ```
//!
//! and `C_0 = G_{0,n−1}·P_R` comes out of the recurrences
//!
//! ```text
//! D̃_{n−1} = D_{n−1} − Σ_R            C_{n−1} = D̃_{n−1}⁻¹·P_R
//! D̃_i = D_i − U_i·D̃_{i+1}⁻¹·L_i      C_i = −D̃_i⁻¹·U_i·C_{i+1}
//! ```
//!
//! (`Σ_L` joins `D̃_0`). Each block is LU-factored once and solved once,
//! against the right-hand side `[L_{i−1}[:, C_l] | −U_i·C_{i+1}]`: only the
//! structurally non-zero columns `C_l` of the coupling below, plus the
//! `2k_R` panel columns. The Schur update and the panel product touch the
//! coupling above only on its non-zero rows and columns. Nothing is
//! inverted explicitly, no chain of blocks is kept, there is no backward
//! pass: the working set is one `s × s` pivot block and one
//! `s × (|C_l| + 2k_R)` right-hand side, whatever the device length.
//!
//! Supports and factors are exact properties of the inputs, so a dense
//! coupling or a dense Σ takes the same code at full width.

use crate::error::{SolveError, SolveOutcome};
use qtx_linalg::{lu_factor_owned_ws, Complex64, Op, Workspace, ZMat};
use qtx_sparse::{BlockChain, CompressedSigma, CouplingSupport};

/// Name this kernel reports in [`SolveError::NonFinite`].
const SOLVER: &str = "caroli-sweep";

/// Caroli transmission of the open system `chain − Σ_L ⊕ Σ_R`.
///
/// `support` holds the coupling supports of `chain`
/// ([`BlockChain::coupling_support`]; energy-independent for a pencil, so
/// callers sweeping energies compute it once). Every temporary comes from
/// and returns to `ws`: warm calls neither grow nor drain the pool.
///
/// A non-finite pivot block or result surfaces as
/// [`SolveError::NonFinite`], a singular pivot block as
/// [`SolveError::Linalg`].
pub fn caroli_sweep<C: BlockChain>(
    chain: &C,
    sigma_l: &CompressedSigma,
    sigma_r: &CompressedSigma,
    support: &[CouplingSupport],
    ws: &Workspace,
) -> SolveOutcome<f64> {
    let nb = chain.num_blocks();
    let s = chain.block_size();
    assert_eq!(support.len() + 1, nb, "one coupling support per adjacent block pair");
    assert_eq!((sigma_l.dim(), sigma_r.dim()), (s, s), "self-energy / block size mismatch");
    let p_l = sigma_l.broadening_factor();
    let p_r = sigma_r.broadening_factor();
    let wr = p_r.cols();

    // `U_i[R_u, C_u]·Z[C_u, :]` for the solved right-hand side `Z` of
    // block `i + 1`: its leading columns are the Schur correction of
    // `D_i`, its trailing `wr` columns the next panel (up to sign).
    let mut carry: Option<ZMat> = None;
    let mut c0 = None;
    for i in (0..nb).rev() {
        let mut d = ws.take_scratch(s, s);
        chain.diag_into(i, &mut d);
        if i == nb - 1 {
            sigma_r.add_scaled_into(-Complex64::ONE, &mut d);
        }
        if i == 0 {
            sigma_l.add_scaled_into(-Complex64::ONE, &mut d);
        }
        let below = i.checked_sub(1).map(|b| &support[b]);
        let kc = below.map_or(0, |b| b.lower.cols.len());
        let mut rhs = ws.take(s, kc + wr);
        match carry.take() {
            Some(y) => {
                let above = &support[i];
                let kc_above = above.lower.cols.len();
                for (a, &r) in above.upper.rows.iter().enumerate() {
                    for (b, &c) in above.lower.cols.iter().enumerate() {
                        d[(r, c)] -= y[(a, b)];
                    }
                    for j in 0..wr {
                        rhs[(r, kc + j)] = -y[(a, kc_above + j)];
                    }
                }
                ws.recycle(y);
            }
            None => {
                for j in 0..wr {
                    rhs.col_mut(kc + j).copy_from_slice(p_r.col(j));
                }
            }
        }
        if let Some(b) = below {
            for (j, &c) in b.lower.cols.iter().enumerate() {
                for &r in &b.lower.rows {
                    rhs[(r, j)] = chain.lower_at(i - 1, r, c);
                }
            }
        }
        // A NaN pivot block factors without an error and would only show
        // up in the final trace; name it here, where it enters.
        let bad = d.non_finite_count();
        if bad > 0 {
            ws.recycle(d);
            ws.recycle(rhs);
            return Err(SolveError::NonFinite { solver: SOLVER, count: bad });
        }
        let f = match lu_factor_owned_ws(d, true, ws) {
            Ok(f) => f,
            Err(e) => {
                ws.recycle(rhs);
                return Err(e.into());
            }
        };
        f.solve_in_place(&mut rhs);
        f.recycle_into(ws);
        match below {
            Some(b) => {
                let (rows, cols) = (&b.upper.rows, &b.upper.cols);
                let mut u = ws.take_scratch(rows.len(), cols.len());
                chain.upper_on(i - 1, &b.upper, &mut u);
                let mut z = ws.take_scratch(cols.len(), kc + wr);
                for j in 0..kc + wr {
                    for (q, &c) in cols.iter().enumerate() {
                        z[(q, j)] = rhs[(c, j)];
                    }
                }
                ws.recycle(rhs);
                carry = Some(ws.matmul(&u, &z));
                ws.recycle(u);
                ws.recycle(z);
            }
            None => c0 = Some(rhs),
        }
    }
    let c0 = c0.expect("a chain has at least one block");
    let m = ws.matmul_op(&p_l, Op::Adjoint, &c0, Op::None);
    ws.recycle(c0);
    let bad = m.non_finite_count();
    let t = trace_kmkmh(&m);
    ws.recycle(m);
    if bad > 0 {
        return Err(SolveError::NonFinite { solver: SOLVER, count: bad });
    }
    Ok(t)
}

/// `tr[K_L·M·K_R·Mᴴ]` for `K = [[0, iI], [−iI, 0]]`. With `M` split into
/// `k_L × k_R` quadrants, `K_L·M·K_R = [[M₂₂, −M₂₁], [−M₁₂, M₁₁]]`, so the
/// trace is `2·Re⟨M₁₁, M₂₂⟩ − 2·Re⟨M₁₂, M₂₁⟩` — real by construction.
fn trace_kmkmh(m: &ZMat) -> f64 {
    let (kl, kr) = (m.rows() / 2, m.cols() / 2);
    let mut acc = 0.0;
    for b in 0..kr {
        for a in 0..kl {
            acc += (m[(a, b)] * m[(kl + a, kr + b)].conj()).re;
            acc -= (m[(a, kr + b)] * m[(kl + a, b)].conj()).re;
        }
    }
    2.0 * acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::ObcSystem;
    use qtx_linalg::flops::counts;
    use qtx_linalg::{c64, gemm, lu_inverse, FlopScope};
    use qtx_sparse::Btd;

    fn sweep(sys: &ObcSystem, ws: &Workspace) -> SolveOutcome<f64> {
        caroli_sweep(&sys.a, &sys.sigma_l, &sys.sigma_r, &sys.a.coupling_support(), ws)
    }

    /// `Tr[Γ_L·G·Γ_R·Gᴴ]` with `G` the corner block of the dense inverse.
    fn dense_caroli(sys: &ObcSystem) -> f64 {
        let (n, s) = (sys.dim(), sys.block_size());
        let g = lu_inverse(&sys.t_dense()).unwrap().block(0, n - s, s, s);
        let gamma = |sig: &CompressedSigma| {
            let sig = sig.dense();
            &sig.scaled(Complex64::I) - &sig.adjoint().scaled(Complex64::I)
        };
        let t = &(&gamma(&sys.sigma_l) * &g) * &(&gamma(&sys.sigma_r) * &g.adjoint());
        t.trace().re
    }

    fn random_system(nb: usize, s: usize, seed: u64) -> ObcSystem {
        let mut a = Btd::zeros(nb, s);
        for i in 0..nb {
            a.diag[i] = ZMat::random(s, s, seed + i as u64);
            for dd in 0..s {
                a.diag[i][(dd, dd)] += c64(4.0, 0.8);
            }
        }
        for i in 0..nb - 1 {
            a.upper[i] = ZMat::random(s, s, seed + 60 + i as u64).scaled(c64(0.4, 0.0));
            a.lower[i] = ZMat::random(s, s, seed + 95 + i as u64).scaled(c64(0.4, 0.0));
        }
        ObcSystem {
            a,
            sigma_l: ZMat::random(s, s, seed + 200).scaled(c64(0.3, 0.1)).into(),
            sigma_r: ZMat::random(s, s, seed + 201).scaled(c64(0.3, -0.1)).into(),
            rhs_top: ZMat::zeros(s, 0),
            rhs_bottom: ZMat::zeros(s, 0),
        }
    }

    #[test]
    fn matches_dense_inverse_on_dense_systems() {
        let ws = Workspace::new();
        for (nb, s, seed) in [(1, 4, 13), (2, 3, 5), (5, 3, 7), (8, 2, 21)] {
            let sys = random_system(nb, s, seed);
            let (t, reference) = (sweep(&sys, &ws).unwrap(), dense_caroli(&sys));
            assert!((t - reference).abs() < 1e-10, "nb={nb} s={s}: {t} vs {reference}");
        }
    }

    #[test]
    fn clean_chain_transmits_one_unit_per_open_channel() {
        // Two uncoupled nearest-neighbour chains with on-site energies 0
        // and 3, hopping −1: bands [−2, 2] and [1, 5]. The analytic lead
        // self-energy of a chain is t²·g_s with the retarded surface
        // Green's function g_s = (x − i·√(4 − x²))/2, x = E − ε, in band.
        let surface = |x: f64| -> Complex64 {
            if x.abs() < 2.0 {
                c64(x / 2.0, -(4.0 - x * x).sqrt() / 2.0)
            } else {
                c64((x - x.signum() * (x * x - 4.0).sqrt()) / 2.0, 0.0)
            }
        };
        let ws = Workspace::new();
        for (e, channels) in [(-1.0, 1.0), (1.5, 2.0), (4.0, 1.0), (6.0, 0.0)] {
            let nb = 6;
            let mut a = Btd::zeros(nb, 2);
            for d in a.diag.iter_mut() {
                d[(0, 0)] = c64(e, 0.0);
                d[(1, 1)] = c64(e - 3.0, 0.0);
            }
            // A = E − H, so the couplings of A are −(−1) = +1.
            for b in a.upper.iter_mut().chain(a.lower.iter_mut()) {
                *b = ZMat::identity(2);
            }
            let sigma = ZMat::from_diag(&[surface(e), surface(e - 3.0)]);
            let sys = ObcSystem {
                a,
                sigma_l: sigma.clone().into(),
                sigma_r: sigma.into(),
                rhs_top: ZMat::zeros(2, 0),
                rhs_bottom: ZMat::zeros(2, 0),
            };
            let t = sweep(&sys, &ws).unwrap();
            assert!((t - channels).abs() < 1e-12, "E={e}: T={t}, expected {channels}");
        }
    }

    #[test]
    fn non_finite_blocks_are_reported_not_panicked() {
        let ws = Workspace::new();
        for poison in [f64::NAN, f64::INFINITY] {
            for block in [0, 2, 3] {
                let mut sys = random_system(4, 3, 31);
                sys.a.diag[block][(1, 1)] = c64(poison, 0.0);
                match sweep(&sys, &ws) {
                    Err(SolveError::NonFinite { solver: SOLVER, count }) => assert!(count > 0),
                    other => panic!("block {block} poisoned with {poison}: got {other:?}"),
                }
            }
        }
        // Through a coupling or a self-energy the poison reaches the next
        // pivot block (or the trace) and is named there.
        let mut sys = random_system(4, 3, 31);
        sys.a.upper[1][(0, 2)] = c64(f64::NAN, 0.0);
        assert!(matches!(sweep(&sys, &ws), Err(SolveError::NonFinite { solver: SOLVER, .. })));
        let mut sys = random_system(4, 3, 31);
        let mut sig = sys.sigma_l.to_dense();
        sig[(2, 0)] = c64(f64::NAN, 0.0);
        sys.sigma_l = sig.into();
        assert!(matches!(sweep(&sys, &ws), Err(SolveError::NonFinite { solver: SOLVER, .. })));
        // An exactly singular pivot block is a typed factorization error.
        let mut sys = random_system(3, 2, 9);
        sys.a.diag[2] = sys.sigma_r.to_dense();
        assert!(matches!(sweep(&sys, &ws), Err(SolveError::Linalg(_))));
    }

    #[test]
    fn flop_count_is_the_closed_formula() {
        // Sparse couplings and a low-rank Σ on one side, dense on the
        // other: the ledger must equal the formula term by term.
        let (nb, s) = (5, 6);
        let mut sys = random_system(nb, s, 17);
        for i in 0..nb - 1 {
            let (u, l) = (sys.a.upper[i].clone(), sys.a.lower[i].clone());
            sys.a.upper[i] = ZMat::from_fn(s, s, |r, c| {
                if r < 2 + i % 2 && c >= 3 {
                    u[(r, c)]
                } else {
                    Complex64::ZERO
                }
            });
            sys.a.lower[i] = ZMat::from_fn(s, s, |r, c| {
                if r >= 3 && c < 2 + i % 2 {
                    l[(r, c)]
                } else {
                    Complex64::ZERO
                }
            });
        }
        let (u, v) = (ZMat::random(s, 2, 41), ZMat::random(s, 2, 43));
        sys.sigma_l = CompressedSigma::Factored { u, v, bound: 0.0 };
        let mut sig_r = sys.sigma_r.to_dense();
        for c in 0..s {
            sig_r[(0, c)] = Complex64::ZERO;
            sig_r[(4, c)] = Complex64::ZERO;
        }
        sys.sigma_r = sig_r.into();
        let support = sys.a.coupling_support();
        let ws = Workspace::new();
        let scope = FlopScope::start();
        let t = caroli_sweep(&sys.a, &sys.sigma_l, &sys.sigma_r, &support, &ws).unwrap();
        let counted = scope.elapsed();
        assert!((t - dense_caroli(&sys)).abs() < 1e-10);
        let couplings =
            support.iter().map(|c| (c.upper.rows.len(), c.upper.cols.len(), c.lower.cols.len()));
        let (wl, wr) = (4, 2 * (s - 2));
        // The factored Σ_L is folded into D̃_0 by one rank-2 gemm.
        let expected = counts::caroli_sweep(s, couplings, wl, wr) + counts::zgemm(s, s, 2);
        assert_eq!(counted, expected);
    }

    #[test]
    fn warm_calls_leave_the_pool_flat() {
        let ws = Workspace::new();
        let sys = random_system(12, 5, 3);
        let first = sweep(&sys, &ws).unwrap();
        sweep(&sys, &ws).unwrap();
        let (pooled, fresh) = (ws.pooled(), ws.fresh_allocations());
        for _ in 0..10 {
            assert_eq!(sweep(&sys, &ws).unwrap(), first);
        }
        assert_eq!((ws.pooled(), ws.fresh_allocations()), (pooled, fresh));
        // The working set is independent of the chain length: a few
        // buffers, not one per block.
        assert!(pooled <= 8, "{pooled} buffers pooled for a 12-block chain");
    }

    #[test]
    fn factored_sigma_needs_no_dense_expansion() {
        let mut sys = random_system(6, 4, 17);
        let (u, v) = (ZMat::random(4, 1, 31), ZMat::random(4, 1, 37));
        let mut dense = ZMat::zeros(4, 4);
        gemm(Complex64::ONE, &u, Op::None, &v, Op::Adjoint, Complex64::ZERO, &mut dense);
        let ws = Workspace::new();
        sys.sigma_l = CompressedSigma::Factored { u, v, bound: 0.0 };
        let factored = sweep(&sys, &ws).unwrap();
        sys.sigma_l = dense.into();
        let expanded = sweep(&sys, &ws).unwrap();
        assert!((factored - expanded).abs() < 1e-12);
        assert!((factored - dense_caroli(&sys)).abs() < 1e-10);
    }
}
