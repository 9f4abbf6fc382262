//! Block cyclic reduction — OMEN's legacy tight-binding solver (ref. \[33\]).
//!
//! "A parallel direct sparse linear solver such as MUMPS or a custom-made
//! block cyclic reduction (BCR) are typically needed to solve the
//! Schrödinger equation with OBCs. ... Since our BCR method relies on the
//! sparsity provided by a tight-binding basis, it does not work with DFT"
//! (§3.B) — meaning it stays affordable only while the blocks are small.
//! The implementation here is exact for any BTD system; its cost scales
//! with the same `s³` block kernels as the other solvers, which is exactly
//! why the DFT-sized blocks kill it in the Fig. 8 comparison.

use crate::error::{SolveError, SolveOutcome};
use crate::system::ObcSystem;
use qtx_linalg::{lu_factor_ws, zgesv_into, Complex64, Result, Workspace, ZMat};
use qtx_sparse::Btd;

/// Solves `T·x = b` by block cyclic reduction. `T` is the BTD matrix of
/// `sys` with the boundary self-energies folded into the corner blocks.
pub fn bcr_solve(sys: &ObcSystem) -> SolveOutcome<ZMat> {
    let nb = sys.num_blocks();
    let s = sys.block_size();
    let m = sys.num_rhs();
    // Assemble working block arrays.
    let mut diag: Vec<ZMat> = sys.a.diag.clone();
    diag[0].axpy(-Complex64::ONE, &sys.sigma_l);
    diag[nb - 1].axpy(-Complex64::ONE, &sys.sigma_r);
    let upper = sys.a.upper.clone();
    let lower = sys.a.lower.clone();
    let b = sys.b_dense();
    let rhs: Vec<ZMat> = (0..nb).map(|i| b.block(i * s, 0, s, m)).collect();
    let ws = Workspace::new();
    let x_blocks = bcr_recurse(&diag, &upper, &lower, &rhs, &ws)?;
    let mut x = ZMat::zeros(nb * s, m);
    for (i, xb) in x_blocks.into_iter().enumerate() {
        x.set_block(i * s, 0, &xb);
    }
    let bad = x.non_finite_count();
    if bad > 0 {
        return Err(SolveError::NonFinite { solver: "bcr", count: bad });
    }
    Ok(x)
}

/// Pool-backed one-shot solve: factor copy, factors and solution all
/// borrow from `ws`; the solution is handed back owned.
fn pooled_solve(a: &ZMat, b: &ZMat, ws: &Workspace) -> Result<ZMat> {
    let mut x = ws.take_scratch(b.rows(), b.cols());
    zgesv_into(a, b, &mut x, ws)?;
    Ok(x)
}

/// One level of cyclic reduction: eliminate the odd-indexed blocks,
/// recurse on the evens, back-substitute. Every elimination temporary
/// cycles through `ws` — one pool serves all recursion levels.
fn bcr_recurse(
    diag: &[ZMat],
    upper: &[ZMat],
    lower: &[ZMat],
    rhs: &[ZMat],
    ws: &Workspace,
) -> Result<Vec<ZMat>> {
    let nb = diag.len();
    if nb == 1 {
        return pooled_solve(&diag[0], &rhs[0], ws).map(|x| vec![x]);
    }
    if nb == 2 {
        // Direct 2×2 block solve via Schur complement on the second block.
        let f0 = lu_factor_ws(&diag[0], ws)?;
        let mut d0_inv_u = ws.take_scratch(upper[0].rows(), upper[0].cols());
        f0.solve_into(upper[0].view(), &mut d0_inv_u);
        let mut d0_inv_b = ws.take_scratch(rhs[0].rows(), rhs[0].cols());
        f0.solve_into(rhs[0].view(), &mut d0_inv_b);
        f0.recycle_into(ws);
        let mut schur = ws.copy_of(&diag[1]);
        let prod = ws.matmul(&lower[0], &d0_inv_u);
        schur.axpy(-Complex64::ONE, &prod);
        ws.recycle(prod);
        let mut r1 = ws.copy_of(&rhs[1]);
        let lb = ws.matmul(&lower[0], &d0_inv_b);
        r1.axpy(-Complex64::ONE, &lb);
        ws.recycle(lb);
        let x1 = pooled_solve(&schur, &r1, ws)?;
        ws.recycle(schur);
        ws.recycle(r1);
        let mut x0 = d0_inv_b;
        let corr = ws.matmul(&d0_inv_u, &x1);
        x0.axpy(-Complex64::ONE, &corr);
        ws.recycle(corr);
        ws.recycle(d0_inv_u);
        return Ok(vec![x0, x1]);
    }
    // Eliminate odd blocks: for odd i,
    //   x_i = D_i⁻¹·(b_i − L_{i−1}ᵀ... − lower[i−1]·x_{i−1} − upper[i]·x_{i+1})
    // substituting into the even rows produces a coarse BTD system on the
    // even indices.
    let evens: Vec<usize> = (0..nb).step_by(2).collect();
    let ne = evens.len();
    let mut c_diag = Vec::with_capacity(ne);
    let mut c_upper = Vec::with_capacity(ne - 1);
    let mut c_lower = Vec::with_capacity(ne - 1);
    let mut c_rhs = Vec::with_capacity(ne);
    // Precompute D_odd⁻¹ applied to its couplings and RHS.
    let mut odd_inv_low: Vec<Option<ZMat>> = vec![None; nb]; // D_i⁻¹·lower[i−1]
    let mut odd_inv_up: Vec<Option<ZMat>> = vec![None; nb]; // D_i⁻¹·upper[i]
    let mut odd_inv_rhs: Vec<Option<ZMat>> = vec![None; nb];
    for i in (1..nb).step_by(2) {
        let f = lu_factor_ws(&diag[i], ws)?;
        let mut low = ws.take_scratch(lower[i - 1].rows(), lower[i - 1].cols());
        f.solve_into(lower[i - 1].view(), &mut low);
        odd_inv_low[i] = Some(low);
        if i + 1 < nb {
            let mut up = ws.take_scratch(upper[i].rows(), upper[i].cols());
            f.solve_into(upper[i].view(), &mut up);
            odd_inv_up[i] = Some(up);
        }
        let mut r = ws.take_scratch(rhs[i].rows(), rhs[i].cols());
        f.solve_into(rhs[i].view(), &mut r);
        odd_inv_rhs[i] = Some(r);
        f.recycle_into(ws);
    }
    for (e, &i) in evens.iter().enumerate() {
        let mut d = ws.copy_of(&diag[i]);
        let mut r = ws.copy_of(&rhs[i]);
        // Left odd neighbour i−1 feeds into row i through lower[i−1]... the
        // coupling from even row i to odd i−1 is lower[i−1] (A_{i,i−1}).
        if i >= 1 {
            let il = &odd_inv_up[i - 1];
            // x_{i−1} = D⁻¹(b − lower[i−2]x_{i−2} − upper[i−1]x_i)
            // row i: + lower[i−1]·x_{i−1}
            if let Some(inv_up) = il {
                let prod = ws.matmul(&lower[i - 1], inv_up);
                d.axpy(-Complex64::ONE, &prod);
                ws.recycle(prod);
            }
            let rb = ws.matmul(&lower[i - 1], odd_inv_rhs[i - 1].as_ref().expect("odd rhs"));
            r.axpy(-Complex64::ONE, &rb);
            ws.recycle(rb);
            if i >= 2 {
                // coarse lower coupling to even i−2
                let mut prod =
                    ws.matmul(&lower[i - 1], odd_inv_low[i - 1].as_ref().expect("odd low"));
                prod.scale_assign(-Complex64::ONE);
                c_lower.push(prod);
            }
        }
        if i + 1 < nb {
            // Right odd neighbour i+1 through upper[i].
            let inv_low = odd_inv_low[i + 1].as_ref().expect("odd low");
            let prod = ws.matmul(&upper[i], inv_low);
            d.axpy(-Complex64::ONE, &prod);
            ws.recycle(prod);
            let rb = ws.matmul(&upper[i], odd_inv_rhs[i + 1].as_ref().expect("odd rhs"));
            r.axpy(-Complex64::ONE, &rb);
            ws.recycle(rb);
            if i + 2 < nb {
                let mut coarse_up =
                    ws.matmul(&upper[i], odd_inv_up[i + 1].as_ref().expect("odd up"));
                coarse_up.scale_assign(-Complex64::ONE);
                c_upper.push(coarse_up);
            }
        }
        let _ = e;
        c_diag.push(d);
        c_rhs.push(r);
    }
    let x_even = bcr_recurse(&c_diag, &c_upper, &c_lower, &c_rhs, ws)?;
    for m in c_diag.into_iter().chain(c_upper).chain(c_lower).chain(c_rhs) {
        ws.recycle(m);
    }
    // Back-substitute the odd blocks; the even solutions move (not clone)
    // into the output slots.
    let mut x = vec![ZMat::zeros(0, 0); nb];
    for (&i, xe) in evens.iter().zip(x_even) {
        x[i] = xe;
    }
    for i in (1..nb).step_by(2) {
        let mut xi = odd_inv_rhs[i].take().expect("odd rhs");
        let low = odd_inv_low[i].take().expect("odd low");
        let corr = ws.matmul(&low, &x[i - 1]);
        xi.axpy(-Complex64::ONE, &corr);
        ws.recycle(corr);
        ws.recycle(low);
        if i + 1 < nb {
            let up = odd_inv_up[i].take().expect("odd up");
            let corr2 = ws.matmul(&up, &x[i + 1]);
            xi.axpy(-Complex64::ONE, &corr2);
            ws.recycle(corr2);
            ws.recycle(up);
        }
        x[i] = xi;
    }
    Ok(x)
}

/// Convenience: solve a raw BTD system (no boundary terms) — used by the
/// legacy tight-binding path and tests.
pub fn bcr_solve_raw(a: &Btd, b: &ZMat) -> SolveOutcome<ZMat> {
    let s = a.block_size();
    let sys = ObcSystem {
        a: a.clone(),
        sigma_l: ZMat::zeros(s, s),
        sigma_r: ZMat::zeros(s, s),
        rhs_top: b.block(0, 0, s, b.cols()),
        rhs_bottom: ZMat::zeros(s, 0),
    };
    // bcr_solve builds its RHS from the corner blocks only; for a general
    // RHS run the recursion directly.
    let nb = a.num_blocks();
    let diag = a.diag.clone();
    let rhs: Vec<ZMat> = (0..nb).map(|i| b.block(i * s, 0, s, b.cols())).collect();
    let xb = bcr_recurse(&diag, &a.upper, &a.lower, &rhs, &Workspace::new())?;
    let mut x = ZMat::zeros(nb * s, b.cols());
    for (i, blk) in xb.into_iter().enumerate() {
        x.set_block(i * s, 0, &blk);
    }
    let _ = sys;
    let bad = x.non_finite_count();
    if bad > 0 {
        return Err(SolveError::NonFinite { solver: "bcr", count: bad });
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtx_linalg::{c64, zgesv};

    fn random_btd(nb: usize, s: usize, seed: u64) -> Btd {
        let mut a = Btd::zeros(nb, s);
        for i in 0..nb {
            a.diag[i] = ZMat::random(s, s, seed + i as u64);
            for d in 0..s {
                a.diag[i][(d, d)] += c64(4.0, 0.5);
            }
        }
        for i in 0..nb - 1 {
            a.upper[i] = ZMat::random(s, s, seed + 60 + i as u64).scaled(c64(0.35, 0.0));
            a.lower[i] = ZMat::random(s, s, seed + 95 + i as u64).scaled(c64(0.35, 0.0));
        }
        a
    }

    #[test]
    fn matches_dense_various_sizes() {
        for nb in [1usize, 2, 3, 5, 8, 9, 16] {
            let a = random_btd(nb, 2, 1000 + nb as u64);
            let b = ZMat::random(a.dim(), 2, 7);
            let x = bcr_solve_raw(&a, &b).unwrap();
            let x_ref = zgesv(&a.to_dense(), &b).unwrap();
            assert!(x.max_diff(&x_ref) < 1e-8, "nb={nb}: {:.2e}", x.max_diff(&x_ref));
        }
    }

    #[test]
    fn obc_system_solve() {
        let a = random_btd(6, 3, 71);
        let s = 3;
        let sys = ObcSystem {
            a,
            sigma_l: ZMat::random(s, s, 72).scaled(c64(0.2, 0.1)),
            sigma_r: ZMat::random(s, s, 73).scaled(c64(0.2, -0.1)),
            rhs_top: ZMat::random(s, 2, 74),
            rhs_bottom: ZMat::random(s, 1, 75),
        };
        let x = bcr_solve(&sys).unwrap();
        assert!(sys.residual(&x) < 1e-9, "residual {:.2e}", sys.residual(&x));
    }
}
