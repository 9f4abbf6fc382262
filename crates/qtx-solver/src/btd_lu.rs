//! MUMPS-like block tri-diagonal direct solver (the Fig. 8 baseline).
//!
//! MUMPS factorizes the whole sparse matrix; on a BTD-ordered transport
//! matrix its elimination tree degenerates into the block Thomas
//! recursion implemented here (dense frontal blocks, full fill inside the
//! band). The cost profile — one `s³` factorization plus two `s³` GEMMs
//! per block row, all sequential along the chain, executed on the CPU —
//! is what makes it "slow when the number of non-zero entries increases
//! drastically" (§3.B) compared to SplitSolve's accelerator pipeline.

use crate::error::{SolveError, SolveOutcome};
use crate::system::ObcSystem;
use qtx_linalg::{lu_factor_owned_ws, Complex64, LuFactors, Workspace, ZMat};
use qtx_sparse::Btd;

/// Factorization state of the block Thomas elimination.
pub struct BtdLuFactors {
    /// LU factors of the pivot blocks `D̃_i`.
    pivots: Vec<LuFactors>,
    /// Elimination multipliers `L_i·D̃_{i-1}⁻¹... stored as D̃⁻¹·U` blocks.
    dinv_upper: Vec<ZMat>,
    /// Copy of the sub-diagonal blocks (back-substitution needs them).
    lower: Vec<ZMat>,
}

/// Factors `T` with a private scratch pool.
pub fn btd_lu_factor(a: &Btd, sigma_l: &ZMat, sigma_r: &ZMat) -> SolveOutcome<BtdLuFactors> {
    btd_lu_factor_ws(a, sigma_l, sigma_r, &Workspace::new())
}

/// Factors `T` (BTD with boundary self-energies folded into the corner
/// diagonal blocks) by block Gaussian elimination without pivoting across
/// blocks. Everything — elimination temporaries and the factor blocks
/// themselves — borrows from `ws`; the factors adopt their buffers for
/// their lifetime and hand them back through
/// [`BtdLuFactors::recycle_into`].
pub fn btd_lu_factor_ws(
    a: &Btd,
    sigma_l: &ZMat,
    sigma_r: &ZMat,
    ws: &Workspace,
) -> SolveOutcome<BtdLuFactors> {
    let nb = a.num_blocks();
    let mut pivots = Vec::with_capacity(nb);
    let mut dinv_upper = Vec::with_capacity(nb - 1);
    let mut carry: Option<ZMat> = None; // L_{i-1}·(D̃_{i-1}⁻¹·U_{i-1})
    for i in 0..nb {
        let mut d = ws.copy_of(&a.diag[i]);
        if i == 0 {
            d.axpy(-Complex64::ONE, sigma_l);
        }
        if i == nb - 1 {
            d.axpy(-Complex64::ONE, sigma_r);
        }
        if let Some(c) = carry.take() {
            d.axpy(-Complex64::ONE, &c);
            ws.recycle(c);
        }
        // The eliminated block is factored in place: the factors adopt the
        // buffer, so no second copy is made (the factors outlive the call
        // and own their storage, as before).
        let f = lu_factor_owned_ws(d, ws)?;
        if i + 1 < nb {
            let mut du = ws.take_scratch(a.upper[i].rows(), a.upper[i].cols());
            f.solve_into(a.upper[i].view(), &mut du);
            carry = Some(ws.matmul(&a.lower[i], &du));
            dinv_upper.push(du);
        }
        pivots.push(f);
    }
    let lower = a.lower.iter().map(|l| ws.copy_of(l)).collect();
    Ok(BtdLuFactors { pivots, dinv_upper, lower })
}

impl BtdLuFactors {
    /// Solves `T·x = b` for a dense multi-column RHS (private scratch).
    pub fn solve(&self, b: &ZMat) -> ZMat {
        self.solve_ws(b, &Workspace::new())
    }

    /// Solves `T·x = b` borrowing all sweep temporaries from `ws`.
    pub fn solve_ws(&self, b: &ZMat, ws: &Workspace) -> ZMat {
        let nb = self.pivots.len();
        let s = self.lower.first().map_or(b.rows(), |l| l.rows());
        let m = b.cols();
        // Forward: ỹ_i = D̃_i⁻¹·(b_i − L_{i-1}·ỹ_{i-1}).
        let mut y: Vec<ZMat> = Vec::with_capacity(nb);
        for i in 0..nb {
            let mut rhs = ws.copy_of_view(b.block_view(i * s, 0, s, m));
            if i > 0 {
                let prod = ws.matmul(&self.lower[i - 1], &y[i - 1]);
                rhs.axpy(-Complex64::ONE, &prod);
                ws.recycle(prod);
            }
            // The forward solve lands straight in a pooled buffer; the RHS
            // staging buffer goes back to the pool immediately.
            let mut yi = ws.take_scratch(s, m);
            self.pivots[i].solve_into(rhs.view(), &mut yi);
            y.push(yi);
            ws.recycle(rhs);
        }
        // Backward: x_i = ỹ_i − (D̃_i⁻¹·U_i)·x_{i+1}.
        let mut x = ZMat::zeros(nb * s, m);
        x.set_block((nb - 1) * s, 0, &y[nb - 1]);
        for i in (0..nb - 1).rev() {
            let corr = ws.matmul_op_view(
                self.dinv_upper[i].view(),
                qtx_linalg::Op::None,
                x.block_view((i + 1) * s, 0, s, m),
                qtx_linalg::Op::None,
            );
            y[i].axpy(-Complex64::ONE, &corr);
            ws.recycle(corr);
            x.set_block(i * s, 0, &y[i]);
        }
        for yi in y {
            ws.recycle(yi);
        }
        x
    }

    /// Returns every buffer the factorization adopted — pivot blocks,
    /// `D̃⁻¹·U` panels and the sub-diagonal copies — to the pool, so a
    /// factor/solve loop over energy points reaches a zero-allocation
    /// steady state.
    pub fn recycle_into(self, ws: &Workspace) {
        for f in self.pivots {
            f.recycle_into(ws);
        }
        for m in self.dinv_upper.into_iter().chain(self.lower) {
            ws.recycle(m);
        }
    }
}

/// One-shot baseline solve of Eq. 5.
pub fn btd_lu_solve(sys: &ObcSystem) -> SolveOutcome<ZMat> {
    btd_lu_solve_ws(sys, &Workspace::new())
}

/// One-shot baseline solve of Eq. 5 over a shared workspace.
pub fn btd_lu_solve_ws(sys: &ObcSystem, ws: &Workspace) -> SolveOutcome<ZMat> {
    let f = btd_lu_factor_ws(&sys.a, &sys.sigma_l, &sys.sigma_r, ws)?;
    let x = f.solve_ws(&sys.b_dense(), ws);
    f.recycle_into(ws);
    let bad = x.non_finite_count();
    if bad > 0 {
        return Err(SolveError::NonFinite { solver: "btd-lu", count: bad });
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtx_linalg::{c64, zgesv};

    fn random_system(nb: usize, s: usize, m: usize, seed: u64) -> ObcSystem {
        let mut a = Btd::zeros(nb, s);
        for i in 0..nb {
            a.diag[i] = ZMat::random(s, s, seed + i as u64);
            for d in 0..s {
                a.diag[i][(d, d)] += c64(4.0, 1.0);
            }
        }
        for i in 0..nb - 1 {
            a.upper[i] = ZMat::random(s, s, seed + 50 + i as u64).scaled(c64(0.4, 0.0));
            a.lower[i] = ZMat::random(s, s, seed + 90 + i as u64).scaled(c64(0.4, 0.0));
        }
        ObcSystem {
            a,
            sigma_l: ZMat::random(s, s, seed + 130).scaled(c64(0.2, 0.1)),
            sigma_r: ZMat::random(s, s, seed + 131).scaled(c64(0.2, -0.2)),
            rhs_top: ZMat::random(s, m, seed + 150),
            rhs_bottom: ZMat::random(s, m, seed + 151),
        }
    }

    #[test]
    fn matches_dense_solver() {
        let sys = random_system(6, 3, 2, 41);
        let x_ref = zgesv(&sys.t_dense(), &sys.b_dense()).unwrap();
        let x = btd_lu_solve(&sys).unwrap();
        assert!(x.max_diff(&x_ref) < 1e-9);
    }

    #[test]
    fn factors_are_reusable_across_rhs() {
        let sys = random_system(5, 2, 1, 43);
        let f = btd_lu_factor(&sys.a, &sys.sigma_l, &sys.sigma_r).unwrap();
        let b1 = sys.b_dense();
        let b2 = ZMat::random(sys.dim(), 3, 99);
        let x1 = f.solve(&b1);
        let x2 = f.solve(&b2);
        assert!(x1.max_diff(&zgesv(&sys.t_dense(), &b1).unwrap()) < 1e-9);
        assert!(x2.max_diff(&zgesv(&sys.t_dense(), &b2).unwrap()) < 1e-9);
    }

    #[test]
    fn two_block_system() {
        let sys = random_system(2, 4, 2, 47);
        let x = btd_lu_solve(&sys).unwrap();
        assert!(sys.residual(&x) < 1e-9);
    }
}
