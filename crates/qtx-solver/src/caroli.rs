//! Caroli transmission `T(E) = Tr[Γ_L·G_{0,n−1}·Γ_R·G_{0,n−1}ᴴ]` from two
//! block elimination fronts that start at the contacts and meet inside the
//! device.
//!
//! `Σ^RB` touches only the corner blocks, so the transmission needs one
//! block of `G = (A − Σ^RB)⁻¹`, and of that block only its action on thin
//! factors of the broadening matrices: with `Γ = P·K·Pᴴ`
//! ([`qtx_sparse::broadening_factor_ws`], exact),
//! `T = tr[K·M·K·Mᴴ]` for `M = P_Lᴴ·G_{0,n−1}·P_R` (`2k_L × 2k_R`).
//!
//! A *front* (`front.rs`) eliminates a chain from its last block
//! towards its first, carrying the Schur complement and a thin panel:
//!
//! ```text
//! D̃_{n−1} = D_{n−1} − Σ              C_{n−1} = D̃_{n−1}⁻¹·P
//! D̃_i = D_i − U_i·D̃_{i+1}⁻¹·L_i      C_i = −D̃_i⁻¹·U_i·C_{i+1}
//! ```
//!
//! Each block is LU-factored once and solved once, against
//! `[L_{i−1}[:, C_l] | −U_i·C_{i+1}]` — the structurally non-zero columns
//! `C_l` of the coupling below plus the panel; the coupling above acts on
//! its non-zero rows and columns only. Here a front keeps only its last
//! block's solve (`Keep::Last`): no inverse, no stored chain, no backward
//! pass.
//!
//! The chain is cut after the block `c` that [`counts::caroli_cut`] derives
//! from the block size, the supports and the panel widths. The right front
//! runs on blocks `n−1 … c+1` carrying `P_R`; the left front is the same
//! code on the block-reversed adjoint of blocks `0 … c` ([`Mirrored`])
//! carrying `P_L` — independent sweeps from both ends (SC'15 §3.B, Fig. 6),
//! side by side when each is worth a thread. With `U`, `L` the couplings
//! of the cut pair (supports `R_u × C_u`, `R_l × C_l`), `g_a`, `g_b` the
//! inverses of the two sub-chains, `y = g_b[c+1, n−1]·P_R` and
//! `x_L = g_a[0, c]ᴴ·P_L`, one small system joins the fronts' last blocks:
//!
//! ```text
//! (1 − g_b[C_u, R_l]·L·g_a[C_l, R_u]·U)·x = y[C_u]
//! M = −x_Lᴴ[:, R_u]·U[R_u, C_u]·x
//! ```
//!
//! A single block is one front and no tip. The working set is a pivot block
//! and a few `s × (|C_l| + 2k)` panels per front, whatever the device
//! length; a dense coupling or a dense Σ is the same code at full width.

use crate::error::{SolveError, SolveOutcome};
use crate::front::{gather_rows_into, trace_kmkmh, Front, Keep};
use qtx_linalg::flops::{counts, fans_out, join_counted};
use qtx_linalg::{gemm_into, lu_factor_owned_ws, Complex64, Op, Workspace, ZMat};
use qtx_sparse::{broadening_factor_ws, BlockChain, CouplingSupport, Mirrored};

/// Name this kernel reports in [`SolveError::NonFinite`].
const SOLVER: &str = "caroli-sweep";

/// One contact of the open system as the kernel takes it.
#[derive(Debug, Clone, Copy)]
pub struct CaroliContact<'a> {
    /// The self-energy, subtracted from the contact's corner block.
    pub sigma: &'a ZMat,
    /// An exact thin factor `P` of its broadening, `i(Σ − Σᴴ) = P·K·Pᴴ`
    /// ([`broadening_factor_ws`]).
    pub panel: &'a ZMat,
}

/// Caroli transmission of the open system `chain − Σ_L ⊕ Σ_R`, each
/// broadening through the factor [`broadening_factor_ws`] derives from Σ
/// alone (its rows).
///
/// `support` holds the coupling supports of `chain`
/// ([`BlockChain::coupling_support`]; energy-independent for a pencil, so
/// callers sweeping energies compute it once). Every temporary comes from
/// and returns to `ws`: warm calls neither grow nor drain the pool.
///
/// A non-finite pivot block or result surfaces as
/// [`SolveError::NonFinite`], a singular pivot block as
/// [`SolveError::Linalg`].
pub fn caroli_sweep<C: BlockChain + Sync>(
    chain: &C,
    sigma_l: &ZMat,
    sigma_r: &ZMat,
    support: &[CouplingSupport],
    ws: &Workspace,
) -> SolveOutcome<f64> {
    let p_l = broadening_factor_ws(sigma_l, None, ws);
    let p_r = broadening_factor_ws(sigma_r, None, ws);
    let left = CaroliContact { sigma: sigma_l, panel: &p_l };
    let right = CaroliContact { sigma: sigma_r, panel: &p_r };
    let t = caroli_sweep_contacts(chain, left, right, support, ws);
    ws.recycle(p_l);
    ws.recycle(p_r);
    t
}

/// [`caroli_sweep`] with the broadening factors chosen by the caller — a
/// Σ assembled from a few lead modes has an exact factor thinner than the
/// one its rows give. Same bits whether the fronts ran one after the other
/// or side by side: every buffer is taken on the calling thread first, and
/// neither front reads what the other writes.
pub fn caroli_sweep_contacts<C: BlockChain + Sync>(
    chain: &C,
    left: CaroliContact<'_>,
    right: CaroliContact<'_>,
    support: &[CouplingSupport],
    ws: &Workspace,
) -> SolveOutcome<f64> {
    let (nb, s) = (chain.num_blocks(), chain.block_size());
    check_contacts(chain, left, right, support);
    let minus = -Complex64::ONE;
    let m = if nb == 1 {
        let both = |d: &mut ZMat| {
            d.axpy(minus, right.sigma);
            d.axpy(minus, left.sigma);
        };
        let mut only =
            Front::new(chain, support, 0, both, right.panel, Keep::Last(&[]), SOLVER, ws);
        let ran = only.run(ws);
        let c0 = only.into_last_block(ws);
        let m = ran.map(|_| ws.matmul_op(left.panel, Op::Adjoint, &c0, Op::None));
        ws.recycle(c0);
        m?
    } else {
        let dims: Vec<_> = support.iter().map(CouplingSupport::dims).collect();
        let (c, flops_r, flops_l) =
            counts::caroli_cut(s, &dims, left.panel.cols(), right.panel.cols());
        let pair = &support[c];
        let mirror = Mirrored::new(chain, c + 1);
        let mirrored = Mirrored::<C>::support_of(&support[..c]);
        let fold_r = |d: &mut ZMat| d.axpy(minus, right.sigma);
        let fold_l = |d: &mut ZMat| fold_adjoint(left.sigma, d);
        let tip_r = Keep::Last(&pair.lower.rows);
        let mut front_r = Front::new(chain, support, c + 1, fold_r, right.panel, tip_r, SOLVER, ws);
        let tip_l = Keep::Last(&pair.lower.cols);
        let mut front_l = Front::new(&mirror, &mirrored, 0, fold_l, left.panel, tip_l, SOLVER, ws);
        let (ran_r, ran_l) = if fans_out((flops_r + flops_l) / 2) {
            join_counted(|| front_r.run(ws), || front_l.run(ws))
        } else {
            (front_r.run(ws), front_l.run(ws))
        };
        let (z_r, z_l) = (front_r.into_last_block(ws), front_l.into_last_block(ws));
        let m = ran_r.and(ran_l).and_then(|_| join_fronts(chain, c, pair, &z_l, &z_r, ws));
        ws.recycle(z_r);
        ws.recycle(z_l);
        m?
    };
    let bad = m.non_finite_count();
    let t = trace_kmkmh(&m);
    ws.recycle(m);
    if bad > 0 {
        return Err(SolveError::NonFinite { solver: SOLVER, count: bad });
    }
    Ok(t)
}

/// Panics unless the chain has a block, one coupling support per adjacent
/// pair, and both contacts' Σ and broadening factor fit its block size.
pub(crate) fn check_contacts<C: BlockChain>(
    chain: &C,
    left: CaroliContact<'_>,
    right: CaroliContact<'_>,
    support: &[CouplingSupport],
) {
    let (nb, s) = (chain.num_blocks(), chain.block_size());
    assert!(nb >= 1, "a chain has at least one block");
    assert_eq!(support.len() + 1, nb, "one coupling support per adjacent block pair");
    for contact in [left, right] {
        let shape = (contact.sigma.rows(), contact.sigma.cols());
        assert_eq!(shape, (s, s), "self-energy / block size mismatch");
        assert_eq!(contact.panel.rows(), s, "broadening factor / block size mismatch");
    }
}

/// `d ← d − Σᴴ`: the mirrored left front's last block is `D_0ᴴ`, so Σ
/// enters it adjoint, read transposed where it lies.
fn fold_adjoint(sigma: &ZMat, d: &mut ZMat) {
    assert_eq!((d.rows(), d.cols()), (sigma.cols(), sigma.rows()), "Σᴴ shape");
    let minus = -Complex64::ONE;
    for c in 0..sigma.cols() {
        for (r, &z) in sigma.col(c).iter().enumerate() {
            d[(c, r)] += minus * z.conj();
        }
    }
}

/// `M = P_Lᴴ·G_{0,n−1}·P_R` from the two fronts' last blocks `z_l`, `z_r`
/// (tip columns, then panel) through the tip system on the cut pair `c`
/// (module docs).
fn join_fronts<C: BlockChain>(
    chain: &C,
    c: usize,
    pair: &CouplingSupport,
    z_l: &ZMat,
    z_r: &ZMat,
    ws: &Workspace,
) -> SolveOutcome<ZMat> {
    let CouplingSupport { upper: up, lower: lo } = pair;
    let (ru, cu, rl, cl) = pair.dims();
    let (wl, wr) = (z_l.cols() - cl, z_r.cols() - rl);
    let (one, zero) = (Complex64::ONE, Complex64::ZERO);
    let mut u = ws.take_scratch(ru, cu);
    chain.upper_on(c, up, &mut u);
    let mut l = ws.take_scratch(rl, cl);
    chain.lower_on(c, lo, &mut l);
    // `[g_b[C_u, R_l] | y[C_u]]` and `[g_a[C_l, R_u]ᴴ | x_L[R_u]]`.
    let mut zr = ws.take_scratch(cu, rl + wr);
    gather_rows_into(&mut zr, z_r.view(), &up.cols);
    let mut zl = ws.take_scratch(ru, cl + wl);
    gather_rows_into(&mut zl, z_l.view(), &up.rows);
    let gb_l = ws.matmul_op_view(zr.block_view(0, 0, cu, rl), Op::None, l.view(), Op::None);
    let ga_u = ws.matmul_op_view(zl.block_view(0, 0, ru, cl), Op::Adjoint, u.view(), Op::None);
    let mut tip = ws.take_scratch(cu, cu);
    gemm_into(-one, gb_l.view(), Op::None, ga_u.view(), Op::None, zero, tip.view_mut());
    for i in 0..cu {
        tip[(i, i)] += one;
    }
    let xl_u = ws.matmul_op_view(zl.block_view(0, cl, ru, wl), Op::Adjoint, u.view(), Op::None);
    for spent in [u, l, zl, gb_l, ga_u] {
        ws.recycle(spent);
    }
    let bad = tip.non_finite_count();
    let m = if bad > 0 {
        ws.recycle(tip);
        Err(SolveError::NonFinite { solver: SOLVER, count: bad })
    } else {
        lu_factor_owned_ws(tip, ws).map_err(SolveError::from).map(|f| {
            f.solve_in_place_view(zr.block_view_mut(0, rl, cu, wr));
            f.recycle_into(ws);
            let x = zr.block_view(0, rl, cu, wr);
            let mut m = ws.take_scratch(wl, wr);
            gemm_into(-one, xl_u.view(), Op::None, x, Op::None, zero, m.view_mut());
            m
        })
    };
    ws.recycle(zr);
    ws.recycle(xl_u);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::ObcSystem;
    use qtx_linalg::flops::counts;
    use qtx_linalg::{c64, lu_inverse, FlopScope};
    use qtx_sparse::Btd;

    fn sweep(sys: &ObcSystem, ws: &Workspace) -> SolveOutcome<f64> {
        caroli_sweep(&sys.a, &sys.sigma_l, &sys.sigma_r, &sys.a.coupling_support(), ws)
    }

    /// `Tr[Γ_L·G·Γ_R·Gᴴ]` with `G` the corner block of the dense inverse.
    fn dense_caroli(sys: &ObcSystem) -> f64 {
        let (n, s) = (sys.dim(), sys.block_size());
        let g = lu_inverse(&sys.t_dense()).unwrap().block(0, n - s, s, s);
        let gamma = |sig: &ZMat| &sig.scaled(Complex64::I) - &sig.adjoint().scaled(Complex64::I);
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
            sigma_l: ZMat::random(s, s, seed + 200).scaled(c64(0.3, 0.1)),
            sigma_r: ZMat::random(s, s, seed + 201).scaled(c64(0.3, -0.1)),
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
                sigma_l: sigma.clone(),
                sigma_r: sigma,
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
        sys.sigma_l[(2, 0)] = c64(f64::NAN, 0.0);
        assert!(matches!(sweep(&sys, &ws), Err(SolveError::NonFinite { solver: SOLVER, .. })));
        // An exactly singular pivot block is a typed factorization error.
        let mut sys = random_system(3, 2, 9);
        sys.a.diag[2] = sys.sigma_r.clone();
        assert!(matches!(sweep(&sys, &ws), Err(SolveError::Linalg(_))));
    }

    #[test]
    fn flop_count_is_the_closed_formula() {
        // Sparse couplings and a Σ on two rows on one side, on four on the
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
        for c in 0..s {
            for r in [0, 2, 3, 5] {
                sys.sigma_l[(r, c)] = Complex64::ZERO;
            }
            sys.sigma_r[(0, c)] = Complex64::ZERO;
            sys.sigma_r[(4, c)] = Complex64::ZERO;
        }
        let support = sys.a.coupling_support();
        let ws = Workspace::new();
        let scope = FlopScope::start();
        let t = caroli_sweep(&sys.a, &sys.sigma_l, &sys.sigma_r, &support, &ws).unwrap();
        let counted = scope.elapsed();
        assert!((t - dense_caroli(&sys)).abs() < 1e-10);
        let couplings: Vec<_> = support.iter().map(CouplingSupport::dims).collect();
        let (wl, wr) = (4, 2 * (s - 2));
        assert_eq!(counted, counts::caroli_sweep(s, &couplings, wl, wr));
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
        // The working set is independent of the chain length: two fronts
        // of five buffers, two panels and the tip's handful — not one per
        // block.
        assert!(pooled <= 16, "{pooled} buffers pooled for a 12-block chain");
    }
}
