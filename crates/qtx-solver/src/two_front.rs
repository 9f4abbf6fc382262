//! The wave-function solve of Eq. 5, `(A − Σ^RB)·ψ = Inj`, from two
//! elimination fronts with Σ folded in: each pivot block factored once;
//! and on a real pencil the same solve's corner block for a transmission.
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
//!
//! # Σ-late fronts on a real pencil
//!
//! Folding Σ into the first pivot makes every later Schur complement
//! complex. When `A`'s entries have no imaginary part ([`Pencil::Real`]:
//! `kz = 0` at a real energy), each side of the same cut eliminates the
//! other way, *outward* from the cut (SC'15's Σ-free Step 1): a real
//! `Front` on blocks `c … 1` (the left side; the right one on the
//! `Reversed` chain) carrying the cut coupling `U_c[:, C_u]`, so every
//! pivot, multiplier and carried column is real. Only the contact block
//! is complex: `D̃₀ = D₀ − Σ − U₀·X̂₁[C_u, :]`, solved against
//! `[−U₀·y₁[C_u, :] | Inj]` into `Z₀ = [W₀ | ŷ₀]`. A thin sweep carries the
//! contact's solve to the cut rows,
//!
//! ```text
//! [P | a]_0 = Z₀[C_l(0), :]      [P | a]_i = [y_i | 0][C_l(i), :] − X̂_i[C_l(i), :]·[P | a]_{i−1}
//! ```
//!
//! which leaves `ψ_c[C_l] = a − P·ψ_{c+1}[C_u]` on each side: the tip
//! system above, with `P` in place of `X̂′_c[C_l, :]`. Each side then
//! back-substitutes from its contact, `ψ_0 = ŷ₀ − W₀·ψ_cut` and
//! `ψ_i = −[X̂_i | y_i]·[ψ_{i−1}[C_l(i−1), :]; ψ_cut]` (one real × complex
//! product a block). The count is [`counts::two_front_late_solve`].
//!
//! # The corner on a real pencil
//!
//! A transmission reads `G = (A − Σ)⁻¹` only through
//! `M = P_Lᴴ·G_{0,n−1}·P_R` (`Γ = P·K·Pᴴ`, [`crate::caroli`]), and
//! `G_{0,n−1}·P_R` is block 0 of the solution with `P_R` injected at the
//! right contact and nothing at the left. [`two_front_corner`] runs the
//! same two sides on exactly that right-hand side: no left-injected
//! column, `P_R` as the right side's. The tip system gives `ψ_c[C_l]`, the
//! right side's map gives `ψ_{c+1}[C_u] = a_R − P·ψ_c[C_l]`, and the left
//! contact's solve gives `ψ₀ = −W₀·ψ_{c+1}[C_u]` and `M = P_Lᴴ·ψ₀`. No
//! `N × w` ψ is formed and nothing is back-substituted past block 0. The
//! count is [`counts::two_front_late_corner`].

use crate::caroli::{caroli_sweep_contacts, check_contacts, CaroliContact};
use crate::error::{SolveError, SolveOutcome};
use crate::front::{gather_rows_into, reshape, trace_kmkmh, Front, Keep};
use qtx_linalg::flops::{counts, fans_out, join_counted};
use qtx_linalg::{
    c64, dzgemm, fault, gemm_into, lu_factor_owned_ws, Complex64, DMat, LuFactors, Op, Workspace,
    ZMat, ZMatMut,
};
use qtx_sparse::{BlockChain, CouplingSupport, Reversed};

/// Name this kernel reports in [`SolveError::NonFinite`].
const SOLVER: &str = "two-front";

/// What the boundary adds to the chain: the self-energies on the corner
/// blocks and the injection columns in the first and last block rows.
#[derive(Debug, Clone, Copy)]
pub struct BoundaryTerms<'a> {
    /// Left self-energy, subtracted from the first diagonal block.
    pub sigma_l: &'a ZMat,
    /// Right self-energy, subtracted from the last diagonal block.
    pub sigma_r: &'a ZMat,
    /// Left-injected right-hand-side columns (`s × m_L`).
    pub rhs_top: &'a ZMat,
    /// Right-injected right-hand-side columns (`s × m_R`).
    pub rhs_bottom: &'a ZMat,
}

/// The arithmetic of a chain's entries, as its caller established it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pencil {
    /// Complex entries: Σ-first fronts (the Caroli kernel for a
    /// transmission), every pivot complex.
    Complex,
    /// Every entry of every block has an imaginary part of exactly `0.0`
    /// (the caller's exact test; the solver reads only real parts): Σ-late
    /// fronts (the Σ-late corner for a transmission), every pivot but the
    /// two contact ones real.
    Real,
}

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
/// `pencil` picks the arithmetic: [`Pencil::Complex`] runs the Σ-first
/// fronts of the module docs, [`Pencil::Real`] the Σ-late ones
/// (`docs/solver.md`, "Σ-late fronts on a real pencil"), whose count is
/// [`counts::two_front_late_solve`]. A chain of one block is one complex
/// solve either way. A Σ-late solve that fails — a real pivot that is
/// singular to within 10⁻⁶ of its block, at an eigenvalue of the closed
/// sub-chain behind it — is redone by the Σ-first fronts, which also
/// report any error the chain itself causes.
///
/// With `partitions ≥ 2` the two fronts run side by side when each is
/// worth a thread (`qtx_linalg::flops::fans_out`, the library's one
/// fan-out rule); `1` keeps both on the calling thread. The bits are the same
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
    pencil: Pencil,
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
    } else if pencil == Pencil::Real
        && late_fronts(chain, support, boundary, partitions, &mut psi, ws).is_ok()
    {
        // Solved in real arithmetic. A failed Σ-late solve — a real pivot
        // past `REAL_PIVOT_TOL`, or whatever would fail the complex fronts
        // too — falls through to them: they fold Σ first, so their pivots
        // are not the closed sub-chains', and they report what stays wrong.
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

/// Caroli transmission `T = tr[Γ_L·G_{0,n−1}·Γ_R·G_{0,n−1}ᴴ]` of the open
/// system `chain − Σ_L ⊕ Σ_R`, each `Γ = P·K·Pᴴ` through the exact factor
/// its contact carries ([`CaroliContact`]), in the arithmetic `pencil`
/// names.
///
/// [`Pencil::Real`] on a chain of two or more blocks takes
/// `M = P_Lᴴ·G_{0,n−1}·P_R` from the Σ-late sides (module docs, "The
/// corner on a real pencil"); its count is
/// [`counts::two_front_late_corner`]. Every complex pencil, every
/// one-block chain and every Σ-late corner that fails — a real pivot
/// singular to within 10⁻⁶ of its block — runs the Caroli kernel instead,
/// [`caroli_sweep_contacts`], bit for bit, which also reports any error the
/// chain itself causes. The sides fan out under the library's one rule
/// (`qtx_linalg::flops::fans_out`), like the Caroli fronts; the bits are
/// the same either way, and every temporary comes from and returns to
/// `ws`.
pub fn two_front_corner<C: BlockChain + Sync>(
    chain: &C,
    left: CaroliContact<'_>,
    right: CaroliContact<'_>,
    support: &[CouplingSupport],
    pencil: Pencil,
    ws: &Workspace,
) -> SolveOutcome<f64> {
    check_contacts(chain, left, right, support);
    if pencil == Pencil::Real && chain.num_blocks() >= 2 {
        if let Ok(t) = late_corner(chain, left, right, support, ws) {
            return Ok(t);
        }
    }
    caroli_sweep_contacts(chain, left, right, support, ws)
}

/// The Σ-late corner of [`two_front_corner`] (`nb ≥ 2`): the sides of
/// [`late_sides`] with no left-injected column and `P_R` injected at the
/// right contact, then `ψ₀ = −W₀·ψ_{c+1}[C_u, :]` on the left contact alone
/// and `M = P_Lᴴ·ψ₀`.
fn late_corner<C: BlockChain + Sync>(
    chain: &C,
    left: CaroliContact<'_>,
    right: CaroliContact<'_>,
    support: &[CouplingSupport],
    ws: &Workspace,
) -> SolveOutcome<f64> {
    let s = chain.block_size();
    let uninjected = ZMat::zeros(s, 0);
    let boundary = BoundaryTerms {
        sigma_l: left.sigma,
        sigma_r: right.sigma,
        rhs_top: &uninjected,
        rhs_bottom: right.panel,
    };
    let m = late_sides(chain, support, &boundary, 2, ws, |side_l, _, _, at_c1| {
        let mut psi0 = ws.take_scratch(s, at_c1.cols());
        side_l.contact(at_c1, psi0.view_mut(), 0);
        let m = ws.matmul_op(left.panel, Op::Adjoint, &psi0, Op::None);
        ws.recycle(psi0);
        m
    })?;
    let bad = m.non_finite_count();
    let t = trace_kmkmh(&m);
    ws.recycle(m);
    if bad > 0 {
        return Err(SolveError::NonFinite { solver: SOLVER, count: bad });
    }
    Ok(t)
}

/// The tip system on the cut pair (module docs): leaves `ψ_c[C_l, :]` in
/// `eta` (all `m_L + m_R` columns), from the heads `[X̂_{c+1} | y_{c+1}]`
/// of `right` and `[X̂′_c | y_c]` of `left`.
fn join_fronts<A, B, F, G>(
    right: &Front<'_, A, F>,
    left: &Front<'_, B, G>,
    pair: &CouplingSupport,
    widths: (usize, usize),
    eta: &mut ZMat,
    ws: &Workspace,
) -> SolveOutcome<()>
where
    A: BlockChain,
    B: BlockChain,
    F: Fn(&mut ZMat),
    G: Fn(&mut ZMat),
{
    let (ml, mr) = widths;
    let (_, cu, _, cl) = pair.dims();
    // `[X̂′_c[C_l, :] | y_c[C_l, :]]` and `[X̂_{c+1}[C_u, :] | y_{c+1}[C_u, :]]`.
    let mut near_l = ws.take_scratch(cl, cu + ml);
    gather_rows_into(&mut near_l, left.head(), &pair.lower.cols);
    let mut near_r = ws.take_scratch(cu, cl + mr);
    gather_rows_into(&mut near_r, right.head(), &pair.upper.cols);
    let tip = tip_system(&near_l, &near_r, widths, eta, ws);
    ws.recycle(near_l);
    ws.recycle(near_r);
    tip
}

/// `(1 − P_L·P_R)·η = a_L − P_L·a_R` on the cut rows, with
/// `near_l = [P_L | a_L]` (`|C_l| × (|C_u| + m_L)`) and
/// `near_r = [P_R | a_R]` (`|C_u| × (|C_l| + m_R)`) the affine maps
/// `ψ_c[C_l] = a_L − P_L·ψ_{c+1}[C_u]` and
/// `ψ_{c+1}[C_u] = a_R − P_R·ψ_c[C_l]` each side leaves at the cut; `η`
/// (`eta`, all `m_L + m_R` columns) is `ψ_c[C_l, :]`.
fn tip_system(
    near_l: &ZMat,
    near_r: &ZMat,
    (ml, mr): (usize, usize),
    eta: &mut ZMat,
    ws: &Workspace,
) -> SolveOutcome<()> {
    let (cl, cu) = (near_l.rows(), near_r.rows());
    let (one, zero) = (Complex64::ONE, Complex64::ZERO);
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

/// The Σ-late solve of a real pencil into `psi` (`nb ≥ 2`): the two
/// sides of [`late_sides`], then each back-substitutes from its contact
/// towards the cut.
fn late_fronts<C: BlockChain + Sync>(
    chain: &C,
    support: &[CouplingSupport],
    boundary: &BoundaryTerms<'_>,
    partitions: usize,
    psi: &mut ZMat,
    ws: &Workspace,
) -> SolveOutcome<()> {
    let nb = chain.num_blocks();
    let ml = boundary.rhs_top.cols();
    late_sides(chain, support, boundary, partitions, ws, |left, right, at_c, at_c1| {
        left.back_substitute(at_c1, psi, 0, |i| i, ws);
        right.back_substitute(at_c, psi, ml, |j| nb - 1 - j, ws);
    })
}

/// The two Σ-late sides of a real pencil (`nb ≥ 2`) at the cut `c` of
/// [`counts::two_front_late_cut`], run and joined: each side eliminates
/// outward from the cut, in real arithmetic up to its contact block, which
/// alone folds Σ, and the tip system joins the two sides' affine maps on
/// the cut rows. `finish` gets the left side, the right one (on the
/// [`Reversed`] chain), `ψ_c[C_l, :]` and `ψ_{c+1}[C_u, :]` (all
/// `m_L + m_R` columns); every buffer returns to `ws` after it.
fn late_sides<C: BlockChain + Sync, R>(
    chain: &C,
    support: &[CouplingSupport],
    boundary: &BoundaryTerms<'_>,
    partitions: usize,
    ws: &Workspace,
    finish: impl FnOnce(&LateSide<'_, C>, &LateSide<'_, Reversed<'_, C>>, &ZMat, &ZMat) -> R,
) -> SolveOutcome<R> {
    let nb = chain.num_blocks();
    let (ml, mr) = (boundary.rhs_top.cols(), boundary.rhs_bottom.cols());
    let dims: Vec<_> = support.iter().map(CouplingSupport::dims).collect();
    let (c, flops_r, flops_l) = counts::two_front_late_cut(chain.block_size(), &dims, ml, mr);
    // The right side sees the chain from its own contact: block `j` of the
    // view is block `nb − 1 − j`, and the cut pair is its pair `nb − 2 − c`.
    let view = Reversed::new(chain, nb);
    let view_support = Reversed::<C>::support_of(support);
    let carried_l = cut_columns(chain, support, c, ws);
    let carried_r = cut_columns(&view, &view_support, nb - 2 - c, ws);
    let (sigma_l, sigma_r) = (boundary.sigma_l, boundary.sigma_r);
    let mut left = LateSide::new((chain, support, c), &carried_l, sigma_l, boundary.rhs_top, ws);
    let right_side = (&view, &view_support[..], nb - 2 - c);
    let mut right = LateSide::new(right_side, &carried_r, sigma_r, boundary.rhs_bottom, ws);
    let (ran_l, ran_r) = if partitions >= 2 && fans_out((flops_r + flops_l) / 2) {
        join_counted(|| left.run(ws), || right.run(ws))
    } else {
        (left.run(ws), right.run(ws))
    };
    let (cl, cu) = (support[c].lower.cols.len(), support[c].upper.cols.len());
    let mut eta = ws.take_scratch(cl, ml + mr);
    let mut across = ws.take_scratch(cu, ml + mr);
    let joined = ran_l.and(ran_r).and_then(|_| {
        tip_system(&left.near, &right.near, (ml, mr), &mut eta, ws)?;
        // `ψ_{c+1}[C_u] = a_R − P_R·ψ_c[C_l]`, `a_R` in the right-injected
        // columns.
        across.as_mut_slice().fill(Complex64::ZERO);
        for j in 0..mr {
            across.col_mut(ml + j).copy_from_slice(right.near.col(cl + j));
        }
        let p_r = right.near.block_view(0, 0, cu, cl);
        gemm_into(
            -Complex64::ONE,
            p_r,
            Op::None,
            eta.view(),
            Op::None,
            Complex64::ONE,
            across.view_mut(),
        );
        Ok(finish(&left, &right, &eta, &across))
    });
    for m in [eta, across] {
        ws.recycle(m);
    }
    left.recycle(ws);
    right.recycle(ws);
    ws.recycle_real(carried_l);
    ws.recycle_real(carried_r);
    joined
}

/// The cut coupling a side carries: `A_{t,t+1}[:, C_u]` of its pair `t`,
/// dense in the block's `s` rows.
fn cut_columns<C: BlockChain>(
    chain: &C,
    support: &[CouplingSupport],
    t: usize,
    ws: &Workspace,
) -> DMat {
    let on = &support[t].upper;
    let mut gathered = ws.take_scratch(on.rows.len(), on.cols.len());
    chain.upper_on(t, on, &mut gathered);
    let mut out = ws.take_real(chain.block_size(), on.cols.len());
    out.as_mut_slice().fill(0.0);
    for j in 0..on.cols.len() {
        for (&r, v) in on.rows.iter().zip(gathered.col(j)) {
            out[(r, j)] = v.re;
        }
    }
    ws.recycle(gathered);
    out
}

/// No fold: a real front never meets Σ.
fn no_fold(_: &mut DMat) {}

/// One side of the Σ-late solve, on a chain whose block 0 is its contact
/// and whose last pair is the cut: the real front on blocks `t … 1`, the
/// contact's complex solve `Z₀ = D̃₀⁻¹·[carried | Inj]`, and `[P | a]` on
/// the cut rows, `ψ_t[C_l] = a − P·ψ_{t+1}[C_u]`.
struct LateSide<'a, C> {
    front: Front<'a, C, fn(&mut DMat), DMat>,
    chain: &'a C,
    support: &'a [CouplingSupport],
    /// The cut pair (the contact is block 0).
    t: usize,
    carried: &'a DMat,
    sigma: &'a ZMat,
    inj: &'a ZMat,
    z0: ZMat,
    near: ZMat,
    /// Scratch: the contact block, one step of the sweep, and a solve's
    /// cut rows — taken with the rest on the calling thread, so a side may
    /// run on any other.
    d: ZMat,
    next: ZMat,
    rows: DMat,
}

impl<'a, C: BlockChain> LateSide<'a, C> {
    /// The side whose cut is pair `t` of `chain`, its buffers taken.
    fn new(
        (chain, support, t): (&'a C, &'a [CouplingSupport], usize),
        carried: &'a DMat,
        sigma: &'a ZMat,
        inj: &'a ZMat,
        ws: &Workspace,
    ) -> Self {
        let no: fn(&mut DMat) = no_fold;
        let front = Front::on(chain, support, (1, t), no, carried, Keep::Every, SOLVER, ws);
        let (s, w) = (chain.block_size(), carried.cols());
        let near = ws.take_scratch(s, w + inj.cols());
        let z0 = ws.take_scratch(s, w + inj.cols());
        let widest = (1..=t).map(|i| front.solved_at(i).1).max().unwrap_or(0);
        let (d, next, rows) =
            (ws.take_scratch(s, s), ws.take_scratch(s, w + inj.cols()), ws.take_real(s, widest));
        LateSide { front, chain, support, t, carried, sigma, inj, z0, near, d, next, rows }
    }

    /// The front, the contact block and the sweep to the cut rows.
    fn run(&mut self, ws: &Workspace) -> SolveOutcome<()> {
        self.front.run(ws)?;
        let (s, w, ms) = (self.chain.block_size(), self.carried.cols(), self.inj.cols());
        let d = &mut self.d;
        reshape(d, s, s);
        self.chain.diag_into(0, d);
        fold(self.sigma)(d);
        let z0 = &mut self.z0;
        z0.as_mut_slice().fill(Complex64::ZERO);
        if self.t == 0 {
            // The contact block is the cut block: it carries the cut
            // coupling itself.
            for j in 0..w {
                for (z, &v) in z0.col_mut(j).iter_mut().zip(self.carried.col(j)) {
                    *z = c64(v, 0.0);
                }
            }
        } else {
            let pair = &self.support[0];
            let y = self.front.carry_past_head();
            let kc = pair.lower.cols.len();
            for (a, &r) in pair.upper.rows.iter().enumerate() {
                for (b, &c) in pair.lower.cols.iter().enumerate() {
                    d[(r, c)] -= c64(y[(a, b)], 0.0);
                }
                for j in 0..w {
                    z0[(r, j)] = c64(-y[(a, kc + j)], 0.0);
                }
            }
        }
        for j in 0..ms {
            z0.col_mut(w + j).copy_from_slice(self.inj.col(j));
        }
        let bad = d.non_finite_count();
        if bad > 0 {
            return Err(SolveError::NonFinite { solver: SOLVER, count: bad });
        }
        let lu = lu_factor_owned_ws(std::mem::replace(d, ZMat::empty()), ws)?;
        lu.solve_in_place(z0);
        let LuFactors { lu, ipiv } = lu;
        ws.recycle_index(ipiv);
        *d = lu;
        // `[P | a]` on the rows each block hands to the next, contact to cut:
        // `[P | a]_i = [y_i | 0][C_l(i)] − X̂_i[C_l(i), :]·[P | a]_{i−1}`.
        gather_rows_into(&mut self.near, z0.view(), &self.support[0].lower.cols);
        let (next, rows) = (&mut self.next, &mut self.rows);
        for i in 1..=self.t {
            let (off, width) = self.front.solved_at(i);
            let kc = width - w;
            let cut_rows = &self.support[i].lower.cols;
            let solved = self.front.store();
            rows.reshape(cut_rows.len(), width);
            for j in 0..width {
                let col = &solved.col(off + j);
                for (p, &r) in cut_rows.iter().enumerate() {
                    rows[(p, j)] = col[r];
                }
            }
            reshape(next, cut_rows.len(), w + ms);
            next.as_mut_slice().fill(Complex64::ZERO);
            for j in 0..w {
                for (z, &v) in next.col_mut(j).iter_mut().zip(rows.col(kc + j)) {
                    *z = c64(v, 0.0);
                }
            }
            let x_hat = rows.block_view(0, 0, cut_rows.len(), kc);
            dzgemm(-1.0, x_hat, self.near.view(), 1.0, next.view_mut());
            std::mem::swap(&mut self.near, next);
        }
        Ok(())
    }

    /// `ψ₀ = Z₀[:, inj] − Z₀[:, carried]·ext` into `out` (`s × m`, the
    /// injected columns from `col0` on), given the other side's cut values
    /// `ext` (`w × m`).
    fn contact(&self, ext: &ZMat, mut out: ZMatMut<'_>, col0: usize) {
        let (s, w) = (self.chain.block_size(), self.carried.cols());
        let z_cut = self.z0.block_view(0, 0, s, w);
        gemm_into(
            -Complex64::ONE,
            z_cut,
            Op::None,
            ext.view(),
            Op::None,
            Complex64::ZERO,
            out.rb(),
        );
        for j in 0..self.inj.cols() {
            for (o, &v) in out.col_mut(col0 + j).iter_mut().zip(self.z0.col(w + j)) {
                *o += v;
            }
        }
    }

    /// `ψ` on this side's blocks (block `i` is block row `row_of(i)` of
    /// `psi`, the injected columns from `col0` on), given the other side's
    /// cut values `ext` (`w × m`): [`Self::contact`] for `ψ_0`, then
    /// `ψ_i = −[X̂_i | y_i]·[ψ_{i−1}[C_l(i−1), :]; ext]` towards the cut.
    fn back_substitute(
        &self,
        ext: &ZMat,
        psi: &mut ZMat,
        col0: usize,
        row_of: impl Fn(usize) -> usize,
        ws: &Workspace,
    ) {
        let (s, w, m) = (self.chain.block_size(), self.carried.cols(), psi.cols());
        self.contact(ext, psi.block_view_mut(row_of(0) * s, 0, s, m), col0);
        let mut incoming = ws.take_scratch(s + w, m);
        for i in 1..=self.t {
            let (off, width) = self.front.solved_at(i);
            let from = &self.support[i - 1].lower.cols;
            reshape(&mut incoming, width, m);
            for j in 0..m {
                let prev = &psi.col(j)[row_of(i - 1) * s..(row_of(i - 1) + 1) * s];
                let dst = incoming.col_mut(j);
                for (d, &r) in dst.iter_mut().zip(from) {
                    *d = prev[r];
                }
                dst[from.len()..].copy_from_slice(ext.col(j));
            }
            let solved = self.front.store().block_view(0, off, s, width);
            let out = psi.block_view_mut(row_of(i) * s, 0, s, m);
            dzgemm(-1.0, solved, incoming.view(), 0.0, out);
        }
        ws.recycle(incoming);
    }

    fn recycle(self, ws: &Workspace) {
        self.front.recycle(ws);
        for m in [self.z0, self.near, self.d, self.next] {
            ws.recycle(m);
        }
        ws.recycle_real(self.rows);
    }
}
