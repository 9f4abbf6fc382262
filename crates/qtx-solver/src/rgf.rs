//! Recursive Green's function reference (ref. \[47\]).
//!
//! The NEGF route to Eq. 4 computes retarded Green's function blocks of
//! `T = E·S − H − Σ^RB` rather than wave functions. `qtx-core` uses the
//! diagonal blocks for the spectral function / local density of states and
//! the top-right corner block for the Caroli transmission
//! `T(E) = Tr[Γ_L·G_{0,n−1}·Γ_R·G_{0,n−1}ᴴ]` — the independent
//! cross-check of the wave-function (SplitSolve) transmission.

use crate::error::{SolveError, SolveOutcome};
use crate::system::ObcSystem;
use qtx_linalg::{lu_factor_owned_ws, Complex64, Workspace, ZMat};

/// Green's function blocks produced by one RGF pass.
#[derive(Debug, Clone)]
pub struct RgfResult {
    /// Diagonal blocks `G_{i,i}` of the retarded Green's function.
    pub diag: Vec<ZMat>,
    /// Corner block `G_{0,n−1}` (transmission).
    pub corner: ZMat,
}

/// Runs the two-pass RGF on the open system with a private scratch pool.
pub fn rgf_diagonal_and_corner(sys: &ObcSystem) -> SolveOutcome<RgfResult> {
    rgf_diagonal_and_corner_ws(sys, &Workspace::new())
}

/// Forward (left-connected) pass shared by both RGF variants:
/// `gL_i = (D_i − L_{i−1}·gL_{i−1}·U_{i−1})⁻¹`, with the boundary
/// self-energies folded into the corner blocks. The retained
/// `gL` chain is the variants' whole working set: `n_B` blocks of
/// `s × s`, i.e. bandwidth·n storage.
fn rgf_forward_pass(sys: &ObcSystem, ws: &Workspace) -> SolveOutcome<Vec<ZMat>> {
    let nb = sys.num_blocks();
    let s = sys.block_size();
    let id = ZMat::identity(s);
    let mut g_left: Vec<ZMat> = Vec::with_capacity(nb);
    for i in 0..nb {
        let mut m = ws.copy_of(&sys.a.diag[i]);
        if i == 0 {
            m.axpy(-Complex64::ONE, &sys.sigma_l);
        }
        if i == nb - 1 {
            m.axpy(-Complex64::ONE, &sys.sigma_r);
        }
        if i > 0 {
            let lg = ws.matmul(&sys.a.lower[i - 1], &g_left[i - 1]);
            let lgu = ws.matmul(&lg, &sys.a.upper[i - 1]);
            ws.recycle(lg);
            m.axpy(-Complex64::ONE, &lgu);
            ws.recycle(lgu);
        }
        // Factor the shifted block in place (it is spent either way) and
        // solve the identity RHS straight into a pooled buffer.
        let f = lu_factor_owned_ws(m, ws)?;
        let mut g = ws.take_scratch(s, s);
        f.solve_into(id.view(), &mut g);
        f.recycle_into(ws);
        g_left.push(g);
    }
    Ok(g_left)
}

/// Corner column recursion `G_{i,n−1} = −gL_i·U_i·G_{i+1,n−1}` walked up
/// from the seed `G_{n−1,n−1} = gL_{n−1}` — exact with left-connected
/// functions only, and shared verbatim by both variants so their corner
/// blocks are bit-identical. Every temporary is pooled; the result is the
/// caller's own allocation.
fn rgf_corner(g_left: &[ZMat], sys: &ObcSystem, ws: &Workspace) -> ZMat {
    let nb = g_left.len();
    let mut corner = ws.copy_of(&g_left[nb - 1]);
    for i in (0..nb - 1).rev() {
        let t = ws.matmul(&sys.a.upper[i], &corner);
        let mut next = ws.matmul(&g_left[i], &t);
        ws.recycle(t);
        next.scale_assign(-Complex64::ONE);
        ws.recycle(std::mem::replace(&mut corner, next));
    }
    let out = corner.clone();
    ws.recycle(corner);
    out
}

/// One step of the backward Dyson recursion, shared by both variants:
/// on entry `g` holds `gL_i`, on exit
/// `G_{i,i} = gL_i + gL_i·U_i·G_{i+1,i+1}·L_i·gL_i`.
fn dyson_step(
    g: &mut ZMat,
    i: usize,
    g_left: &ZMat,
    g_next: &ZMat,
    sys: &ObcSystem,
    ws: &Workspace,
) {
    let u_g = ws.matmul(&sys.a.upper[i], g_next);
    let u_g_l = ws.matmul(&u_g, &sys.a.lower[i]);
    ws.recycle(u_g);
    let g_ugl = ws.matmul(g_left, &u_g_l);
    ws.recycle(u_g_l);
    let corr = ws.matmul(&g_ugl, g_left);
    ws.recycle(g_ugl);
    g.axpy(Complex64::ONE, &corr);
    ws.recycle(corr);
}

/// Runs the two-pass RGF borrowing every block temporary from `ws`, so a
/// sweep over energy points recycles the same handful of `s × s` buffers
/// instead of allocating ~5 fresh matrices per block per point.
pub fn rgf_diagonal_and_corner_ws(sys: &ObcSystem, ws: &Workspace) -> SolveOutcome<RgfResult> {
    let nb = sys.num_blocks();
    let g_left = rgf_forward_pass(sys, ws)?;
    // Backward pass from G_{n−1,n−1} = gL_{n−1}; the returned blocks are
    // the caller's own allocations, never the pool's.
    let mut diag = vec![ZMat::zeros(0, 0); nb];
    diag[nb - 1] = g_left[nb - 1].clone();
    for i in (0..nb - 1).rev() {
        let mut gi = g_left[i].clone();
        dyson_step(&mut gi, i, &g_left[i], &diag[i + 1], sys, ws);
        diag[i] = gi;
    }
    let corner = rgf_corner(&g_left, sys, ws);
    for g in g_left {
        ws.recycle(g);
    }
    // The Caroli formula consumes the corner block and the LDOS path the
    // diagonal — a NaN in either silently zeros/poisons an observable.
    let bad = corner.non_finite_count() + diag.iter().map(|g| g.non_finite_count()).sum::<usize>();
    if bad > 0 {
        return Err(SolveError::NonFinite { solver: "rgf", count: bad });
    }
    Ok(RgfResult { diag, corner })
}

/// The three Green's function blocks at the contacts.
#[derive(Debug, Clone)]
pub struct RgfBoundary {
    /// First diagonal block `G_{0,0}`.
    pub first: ZMat,
    /// Corner block `G_{0,n−1}`, bit-identical to [`RgfResult::corner`].
    pub corner: ZMat,
    /// Last diagonal block `G_{n−1,n−1}`.
    pub last: ZMat,
}

/// Boundary-block-only RGF with a private scratch pool.
pub fn rgf_boundary(sys: &ObcSystem) -> SolveOutcome<RgfBoundary> {
    rgf_boundary_ws(sys, &Workspace::new())
}

/// Boundary-block-only RGF: the full RGF's passes with only `G_{0,0}`,
/// `G_{0,n−1}` and `G_{n−1,n−1}` retained — the contact spectral
/// functions' inputs. The backward recursion streams through the interior
/// diagonal blocks in one pooled buffer, so beyond the forward `gL` chain
/// the working set is a few `s × s` blocks. Block values match
/// [`rgf_diagonal_and_corner_ws`] bit-for-bit. The transmission alone is
/// cheaper through [`crate::caroli_sweep`], which needs none of the three.
pub fn rgf_boundary_ws(sys: &ObcSystem, ws: &Workspace) -> SolveOutcome<RgfBoundary> {
    let nb = sys.num_blocks();
    let g_left = rgf_forward_pass(sys, ws)?;
    let last = g_left[nb - 1].clone();
    let mut g_cur = ws.copy_of(&g_left[nb - 1]);
    for i in (0..nb - 1).rev() {
        let mut gi = ws.copy_of(&g_left[i]);
        dyson_step(&mut gi, i, &g_left[i], &g_cur, sys, ws);
        ws.recycle(std::mem::replace(&mut g_cur, gi));
    }
    let first = g_cur.clone();
    ws.recycle(g_cur);
    let corner = rgf_corner(&g_left, sys, ws);
    for g in g_left {
        ws.recycle(g);
    }
    let bad = first.non_finite_count() + corner.non_finite_count() + last.non_finite_count();
    if bad > 0 {
        return Err(SolveError::NonFinite { solver: "rgf-boundary", count: bad });
    }
    Ok(RgfBoundary { first, corner, last })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtx_linalg::{c64, lu_inverse};
    use qtx_sparse::Btd;

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
    fn diagonal_blocks_match_dense_inverse() {
        let sys = random_system(5, 3, 7);
        let r = rgf_diagonal_and_corner(&sys).unwrap();
        let ginv = lu_inverse(&sys.t_dense()).unwrap();
        for i in 0..5 {
            let reference = ginv.block(3 * i, 3 * i, 3, 3);
            assert!(
                r.diag[i].max_diff(&reference) < 1e-9,
                "block {i}: {:.2e}",
                r.diag[i].max_diff(&reference)
            );
        }
    }

    #[test]
    fn corner_block_matches_dense_inverse() {
        let sys = random_system(6, 2, 11);
        let r = rgf_diagonal_and_corner(&sys).unwrap();
        let ginv = lu_inverse(&sys.t_dense()).unwrap();
        let reference = ginv.block(0, 10, 2, 2);
        assert!(r.corner.max_diff(&reference) < 1e-9);
    }

    #[test]
    fn single_block_degenerate_case() {
        let sys = random_system(1, 4, 13);
        let r = rgf_diagonal_and_corner(&sys).unwrap();
        let ginv = lu_inverse(&sys.t_dense()).unwrap();
        assert!(r.diag[0].max_diff(&ginv) < 1e-9);
        assert!(r.corner.max_diff(&ginv) < 1e-9);
    }

    #[test]
    fn boundary_variant_is_bit_identical_to_full_rgf() {
        for (nb, s, seed) in [(1, 4, 13), (5, 3, 7), (8, 2, 21)] {
            let sys = random_system(nb, s, seed);
            let full = rgf_diagonal_and_corner(&sys).unwrap();
            let b = rgf_boundary(&sys).unwrap();
            assert_eq!(b.first.max_diff(&full.diag[0]), 0.0, "nb={nb}");
            assert_eq!(b.last.max_diff(&full.diag[nb - 1]), 0.0, "nb={nb}");
            assert_eq!(b.corner.max_diff(&full.corner), 0.0, "nb={nb}");
        }
    }

    #[test]
    fn warm_calls_leave_the_pool_flat() {
        // Regression: the boundary variant used to recycle `clone()`d
        // blocks, growing the pool by one buffer per block per call.
        let sys = random_system(10, 4, 19);
        let ws = Workspace::new();
        for _ in 0..2 {
            rgf_diagonal_and_corner_ws(&sys, &ws).unwrap();
            rgf_boundary_ws(&sys, &ws).unwrap();
        }
        let (pooled, fresh) = (ws.pooled(), ws.fresh_allocations());
        for _ in 0..10 {
            rgf_diagonal_and_corner_ws(&sys, &ws).unwrap();
            rgf_boundary_ws(&sys, &ws).unwrap();
        }
        assert_eq!((ws.pooled(), ws.fresh_allocations()), (pooled, fresh));
    }
}
