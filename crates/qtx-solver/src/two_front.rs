//! The wave-function solve of Eq. 5, `(A − Σ^RB)·ψ = Inj`, from two
//! elimination fronts with Σ folded in: each pivot block factored once.
//!
//! SplitSolve ([`crate::splitsolve`]) keeps its Step 1 free of Σ so the
//! OBC can run beside it (SC'15 §3.B, goal (ii)), and pays for that with a
//! second factorization of every pivot block. Where Σ is known before the
//! interior solve starts, the chain can be eliminated the way the Caroli
//! kernel does it: the chain is cut after block `c`
//! ([`counts::two_front_cut`], a function of shapes and widths), the right
//! `Front` runs on blocks `n−1 … c+1` with Σ_R folded into its first
//! pivot and the right-injected columns carried, the left one on blocks
//! `c … 0` (the [`Reversed`] view — `A` itself, not its adjoint) with Σ_L
//! and the left-injected columns. Both keep every block's solve
//! `[X̂_i | y_i]` (`Keep::Every`); each head is solved against the
//! coupling across the cut, so with `U`, `L` the couplings of the cut pair
//! (supports `R_u × C_u`, `R_l × C_l`):
//!
//! ```text
//! ψ_{c+1} = ŷ_{c+1} − X̂_{c+1}·ψ_c[C_l, :]       X̂_{c+1} = D̃_{c+1}⁻¹·L[:, C_l]
//! ψ_c     = ŷ_c     − X̂′_c·ψ_{c+1}[C_u, :]       X̂′_c    = D̃_c⁻¹·U[:, C_u]
//! (1 − X̂′_c[C_l, :]·X̂_{c+1}[C_u, :])·ψ_c[C_l, :] = ŷ_c[C_l, :] − X̂′_c[C_l, :]·ŷ_{c+1}[C_u, :]
//! ```
//!
//! (`ŷ`: a front's `y` in its own injection columns, zero in the other
//! side's). One `|C_l| × |C_l|` tip system joins the fronts, and
//! `ψ_i = ŷ_i − X̂_i·ψ_{i∓1}[C, :]` back-substitutes outward from the cut,
//! one `s × m` product a block. The count is [`counts::two_front_solve`].

use crate::error::{SolveError, SolveOutcome};
use crate::front::{Front, Keep};
use crate::splitsolve::{fans_out, gather_rows_into, reshape, BoundaryTerms};
use qtx_linalg::flops::{counts, join_counted};
use qtx_linalg::{fault, gemm_into, lu_factor_owned_ws, Complex64, Op, Workspace, ZMat};
use qtx_sparse::{BlockChain, CouplingSupport, Reversed};

/// Name this kernel reports in [`SolveError::NonFinite`].
const SOLVER: &str = "two-front";

/// `d ← d − Σ`.
fn fold(sigma: &ZMat) -> impl Fn(&mut ZMat) + '_ {
    move |d: &mut ZMat| {
        for (x, &v) in d.as_mut_slice().iter_mut().zip(sigma.as_slice()) {
            *x -= v;
        }
    }
}

/// Solves Eq. 5 on a streamed chain: `chain` is `A` read block by block
/// (an assembled [`qtx_sparse::Btd`] or the pencil `z·S − H`, bit for bit
/// the same result), `support` its coupling supports
/// ([`BlockChain::coupling_support`], energy-independent for a pencil).
/// Returns `ψ` (`N_SS × (m_L + m_R)`, left-injected columns first).
///
/// With `partitions ≥ 2` the two fronts run side by side when each is
/// worth a thread (the rule SplitSolve's sweeps and the Caroli fronts
/// share); `1` keeps both on the calling thread. The bits are the same
/// either way: every buffer is taken on the calling thread first, and
/// neither front reads what the other writes. Every temporary comes from
/// and returns to `ws`.
///
/// A non-finite pivot block, tip system or result surfaces as
/// [`SolveError::NonFinite`], a singular pivot block as
/// [`SolveError::Linalg`]; the fault-injection site is `"splitsolve"`,
/// keyed on the system's content as SplitSolve's is.
pub fn two_front_solve<C: BlockChain + Sync>(
    chain: &C,
    support: &[CouplingSupport],
    boundary: &BoundaryTerms<'_>,
    partitions: usize,
    ws: &Workspace,
) -> SolveOutcome<ZMat> {
    let (nb, s) = (chain.num_blocks(), chain.block_size());
    assert!(nb >= 1, "a chain has at least one block");
    assert_eq!(support.len() + 1, nb, "one coupling support per adjacent block pair");
    for sigma in [boundary.sigma_l, boundary.sigma_r] {
        assert_eq!((sigma.rows(), sigma.cols()), (s, s), "self-energy / block size mismatch");
    }
    for rhs in [boundary.rhs_top, boundary.rhs_bottom] {
        assert_eq!(rhs.rows(), s, "injection / block size mismatch");
    }
    // Fault-injection chokepoint, SplitSolve's site and key: the diagonal
    // carries E·S − H, the corner Σ(E + iη), so a bit-identical retry fails
    // identically while any escalation draws fresh.
    let (a00, sigma00) = (chain.diag_at(0, 0, 0), boundary.sigma_l[(0, 0)]);
    let key = fault::key_of(&[a00.re, a00.im, sigma00.re, sigma00.im, (nb * s) as f64]);
    if fault::should_fail("splitsolve", key) {
        return Err(SolveError::Injected { site: "splitsolve" });
    }
    let (ml, mr) = (boundary.rhs_top.cols(), boundary.rhs_bottom.cols());
    let mut psi = ZMat::zeros(nb * s, ml + mr);
    if nb == 1 {
        let mut inj = ws.take_scratch(s, ml + mr);
        inj.set_block(0, 0, boundary.rhs_top);
        inj.set_block(0, ml, boundary.rhs_bottom);
        let (fold_r, fold_l) = (fold(boundary.sigma_r), fold(boundary.sigma_l));
        let both = |d: &mut ZMat| {
            fold_r(d);
            fold_l(d);
        };
        let mut only = Front::new(chain, support, 0, both, &inj, Keep::Last(&[]), SOLVER, ws);
        let ran = only.run(ws);
        let solved = only.into_last_block(ws);
        if ran.is_ok() {
            psi.as_mut_slice().copy_from_slice(solved.as_slice());
        }
        ws.recycle(solved);
        ws.recycle(inj);
        ran?;
    } else {
        let dims: Vec<_> = support.iter().map(CouplingSupport::dims).collect();
        let (c, flops_r, flops_l) = counts::two_front_cut(s, &dims, ml, mr);
        // The left front runs on blocks c+1 … 0 reversed and stops before
        // block c+1, so its head is solved against `U_c` like the right
        // front's against `L_c`.
        let view = Reversed::new(chain, c + 2);
        let view_support = Reversed::<C>::support_of(&support[..=c]);
        let (sigma_l, sigma_r) = (boundary.sigma_l, boundary.sigma_r);
        let mut right = Front::new(
            chain,
            support,
            c + 1,
            fold(sigma_r),
            boundary.rhs_bottom,
            Keep::Every,
            SOLVER,
            ws,
        );
        let mut left = Front::new(
            &view,
            &view_support,
            1,
            fold(sigma_l),
            boundary.rhs_top,
            Keep::Every,
            SOLVER,
            ws,
        );
        let mut incoming = ws.take_scratch(s, ml + mr);
        let (ran_r, ran_l) = if partitions >= 2 && fans_out((flops_r + flops_l) / 2) {
            join_counted(|| right.run(ws), || left.run(ws))
        } else {
            (right.run(ws), left.run(ws))
        };
        let joined = ran_r.and(ran_l).and_then(|_| {
            join_fronts(&right, &left, &support[c], (ml, mr), &mut incoming, ws)?;
            // Outward from the cut: the right front from ψ_c[C_l], the left
            // one from ψ_{c+1}[C_u].
            right.back_substitute(&mut incoming, &mut psi, ml, |i| i);
            let rows = psi.block_view((c + 1) * s, 0, s, ml + mr);
            gather_rows_into(&mut incoming, rows, &support[c].upper.cols);
            left.back_substitute(&mut incoming, &mut psi, 0, |j| c + 1 - j);
            Ok(())
        });
        right.recycle(ws);
        left.recycle(ws);
        ws.recycle(incoming);
        joined?;
    }
    // A singular-looking chain can survive the pivoted factorizations and
    // still emit garbage; catch it before it reaches the projections.
    let bad = psi.non_finite_count();
    if bad > 0 {
        return Err(SolveError::NonFinite { solver: SOLVER, count: bad });
    }
    Ok(psi)
}

/// The tip system on the cut pair (module docs): leaves `ψ_c[C_l, :]` in
/// `eta` (all `m_L + m_R` columns), from the heads `[X̂_{c+1} | y_{c+1}]`
/// of `right` and `[X̂′_c | y_c]` of `left`.
fn join_fronts<A, B, F, G>(
    right: &Front<'_, A, F>,
    left: &Front<'_, B, G>,
    pair: &CouplingSupport,
    (ml, mr): (usize, usize),
    eta: &mut ZMat,
    ws: &Workspace,
) -> SolveOutcome<()>
where
    A: BlockChain,
    B: BlockChain,
    F: Fn(&mut ZMat),
    G: Fn(&mut ZMat),
{
    let (_, cu, _, cl) = pair.dims();
    let (one, zero) = (Complex64::ONE, Complex64::ZERO);
    // `[X̂′_c[C_l, :] | y_c[C_l, :]]` and `[X̂_{c+1}[C_u, :] | y_{c+1}[C_u, :]]`.
    let mut near_l = ws.take_scratch(cl, cu + ml);
    gather_rows_into(&mut near_l, left.head(), &pair.lower.cols);
    let mut near_r = ws.take_scratch(cu, cl + mr);
    gather_rows_into(&mut near_r, right.head(), &pair.upper.cols);
    let p = near_l.block_view(0, 0, cl, cu);
    let mut tip = ws.take_scratch(cl, cl);
    gemm_into(-one, p, Op::None, near_r.block_view(0, 0, cu, cl), Op::None, zero, tip.view_mut());
    for i in 0..cl {
        tip[(i, i)] += one;
    }
    reshape(eta, cl, ml + mr);
    for j in 0..ml {
        eta.col_mut(j).copy_from_slice(near_l.col(cu + j));
    }
    let y_r = near_r.block_view(0, cl, cu, mr);
    gemm_into(-one, p, Op::None, y_r, Op::None, zero, eta.block_view_mut(0, ml, cl, mr));
    ws.recycle(near_l);
    ws.recycle(near_r);
    let bad = tip.non_finite_count();
    if bad > 0 {
        ws.recycle(tip);
        return Err(SolveError::NonFinite { solver: SOLVER, count: bad });
    }
    let lu = lu_factor_owned_ws(tip, ws)?;
    lu.solve_in_place(eta);
    lu.recycle_into(ws);
    Ok(())
}
