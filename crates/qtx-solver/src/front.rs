//! One block elimination front: the recurrence both two-ended kernels run
//! from each contact towards a cut inside the device.
//!
//! A front eliminates a chain from its last block towards block `first`,
//! carrying the Schur complement and `w` columns (a broadening factor for
//! the Caroli kernel, injection columns for the wave-function solve):
//!
//! ```text
//! D̃_{n−1} = D_{n−1} − Σ                  B_{n−1} = carried columns
//! D̃_i = D_i − U_i·D̃_{i+1}⁻¹·L_i          B_i = −U_i·(D̃_{i+1}⁻¹·B_{i+1})
//! ```
//!
//! Each block is LU-factored once and solved once, against
//! `[L_{i−1}[:, C_l] | B_i]` — the structurally non-zero columns `C_l` of
//! the coupling below plus the carried columns, so the solve is
//! `[X̂_i | y_i]` with `X̂_i = D̃_i⁻¹·L_{i−1}[:, C_l]` the thin multiplier and
//! `y_i = D̃_i⁻¹·B_i`; the coupling above acts on its non-zero rows and
//! columns only. What [`Keep`] says is left behind: the Caroli kernel keeps
//! the solve of block `first` only (against unit columns, for its tip
//! system), the wave-function solve keeps every block's for the
//! back-substitution `ψ_i = y_i − X̂_i·ψ_{i−1}[C_l, :]`.

use crate::error::{SolveError, SolveOutcome};
use qtx_linalg::{
    gemm_into, lu_factor_owned_ws, Complex64, LuFactors, Op, Workspace, ZMat, ZMatRef,
};
use qtx_sparse::{BlockChain, CouplingSupport};

/// Re-dimensions a scratch matrix in place; contents are unspecified.
pub(crate) fn reshape(m: &mut ZMat, rows: usize, cols: usize) {
    let buf = std::mem::replace(m, ZMat::empty()).into_vec();
    *m = ZMat::from_recycled_buffer(rows, cols, buf);
}

/// `out ← src[rows, :]`, re-dimensioning `out`.
pub(crate) fn gather_rows_into(out: &mut ZMat, src: ZMatRef<'_>, rows: &[usize]) {
    reshape(out, rows.len(), src.cols());
    for j in 0..src.cols() {
        let (dst, from) = (out.col_mut(j), src.col(j));
        for (d, &r) in dst.iter_mut().zip(rows) {
            *d = from[r];
        }
    }
}

/// What a front leaves behind of its block solves.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Keep<'a> {
    /// Only block `first`'s solve, against unit columns on these rows of
    /// the block ahead of the carried columns (`D̃_first⁻¹·[E_rows | B]`).
    Last(&'a [usize]),
    /// Every block's `[X̂_i | y_i]`, block `first` included: it is solved
    /// against the coupling to block `first − 1`, which the front does not
    /// eliminate, like any other block.
    Every,
}

/// Columns of block `i`'s right-hand side ahead of the carried ones: the
/// coupling below, or the unit columns of [`Keep::Last`] at the head.
fn lead(keep: Keep<'_>, first: usize, support: &[CouplingSupport], i: usize) -> usize {
    match keep {
        Keep::Last(rows) if i == first => rows.len(),
        _ => support[i - 1].lower.cols.len(),
    }
}

/// One elimination front over blocks `num_blocks − 1 … first` of `chain`,
/// last to first, with its buffers — every one taken when the front is
/// built, so fronts built on the calling thread may run on any other.
pub(crate) struct Front<'a, C, F> {
    chain: &'a C,
    /// Coupling supports of `chain`, one per adjacent pair.
    support: &'a [CouplingSupport],
    first: usize,
    /// Subtracts the contact's Σ from the last block of `chain`.
    fold: F,
    carried: &'a ZMat,
    keep: Keep<'a>,
    /// Name reported in [`SolveError::NonFinite`].
    solver: &'static str,
    /// Pivot block.
    d: ZMat,
    /// The block solves: the current one ([`Keep::Last`]) or all of them
    /// side by side, block `first` leftmost ([`Keep::Every`]).
    store: ZMat,
    /// Gathered coupling (the one above a block, and the one below it while
    /// it is copied into the right-hand side), gathered solution rows, and
    /// their product.
    u: ZMat,
    z: ZMat,
    y: ZMat,
}

impl<'a, C: BlockChain, F: Fn(&mut ZMat)> Front<'a, C, F> {
    /// Takes the front's buffers, sized for the widest pair it crosses.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        chain: &'a C,
        support: &'a [CouplingSupport],
        first: usize,
        fold: F,
        carried: &'a ZMat,
        keep: Keep<'a>,
        solver: &'static str,
        ws: &Workspace,
    ) -> Self {
        let s = chain.block_size();
        let mut front = Front {
            chain,
            support,
            first,
            fold,
            carried,
            keep,
            solver,
            d: ZMat::empty(),
            store: ZMat::empty(),
            u: ZMat::empty(),
            z: ZMat::empty(),
            y: ZMat::empty(),
        };
        let blocks = first..chain.num_blocks();
        let widest = blocks.clone().map(|i| front.width(i)).max().unwrap_or(0);
        let stored = match keep {
            Keep::Last(_) => widest,
            Keep::Every => blocks.map(|i| front.width(i)).sum(),
        };
        let above = |len: fn(&CouplingSupport) -> usize| {
            support[first..].iter().map(len).max().unwrap_or(0)
        };
        let (ru, cu) = (above(|p| p.upper.rows.len()), above(|p| p.upper.cols.len()));
        let below = (support[first.saturating_sub(1)..].iter())
            .map(|p| p.lower.rows.len() * p.lower.cols.len())
            .max()
            .unwrap_or(0);
        front.d = ws.take_scratch(s, s);
        front.store = ws.take_scratch(s, stored);
        front.u = ws.take_scratch((ru * cu).max(below), 1);
        front.z = ws.take_scratch(cu, widest);
        front.y = ws.take_scratch(ru, widest);
        front
    }

    /// Columns of block `i`'s right-hand side ahead of the carried ones.
    fn lead(&self, i: usize) -> usize {
        lead(self.keep, self.first, self.support, i)
    }

    fn width(&self, i: usize) -> usize {
        self.lead(i) + self.carried.cols()
    }

    pub(crate) fn run(&mut self, ws: &Workspace) -> SolveOutcome<()> {
        let Front { chain, support, first, fold, carried, keep, solver, d, store, u, z, y } = self;
        let (s, nb, w) = (chain.block_size(), chain.num_blocks(), carried.cols());
        let (first, keep, solver) = (*first, *keep, *solver);
        let (one, zero) = (Complex64::ONE, Complex64::ZERO);
        let mut end = store.cols();
        for i in (first..nb).rev() {
            reshape(d, s, s);
            chain.diag_into(i, d);
            if i == nb - 1 {
                fold(d);
            }
            let kc = lead(keep, first, support, i);
            let off = match keep {
                Keep::Last(_) => {
                    reshape(store, s, kc + w);
                    0
                }
                Keep::Every => {
                    end -= kc + w;
                    end
                }
            };
            let mut rhs = store.block_view_mut(0, off, s, kc + w);
            for j in 0..kc + w {
                rhs.col_mut(j).fill(zero);
            }
            if i == nb - 1 {
                for j in 0..w {
                    rhs.col_mut(kc + j).copy_from_slice(carried.col(j));
                }
            } else {
                // `y = U_i[R_u, C_u]·Z[C_u, :]` for the solved right-hand
                // side `Z` of block `i + 1`: its leading columns are the
                // Schur correction of `D_i`, its trailing `w` columns the
                // next carried block (up to sign).
                let above = &support[i];
                let kc_above = above.lower.cols.len();
                for (a, &r) in above.upper.rows.iter().enumerate() {
                    for (b, &c) in above.lower.cols.iter().enumerate() {
                        d[(r, c)] -= y[(a, b)];
                    }
                    for j in 0..w {
                        *rhs.at_mut(r, kc + j) = -y[(a, kc_above + j)];
                    }
                }
            }
            match keep {
                Keep::Last(rows) if i == first => {
                    for (j, &r) in rows.iter().enumerate() {
                        *rhs.at_mut(r, j) = one;
                    }
                }
                _ => {
                    let below = &support[i - 1].lower;
                    reshape(u, below.rows.len(), below.cols.len());
                    chain.lower_on(i - 1, below, u);
                    for j in 0..below.cols.len() {
                        for (&r, &v) in below.rows.iter().zip(u.col(j)) {
                            *rhs.at_mut(r, j) = v;
                        }
                    }
                }
            }
            // A NaN pivot block factors without an error and would only
            // show up in the final result; name it here, where it enters.
            let bad = d.non_finite_count();
            if bad > 0 {
                return Err(SolveError::NonFinite { solver, count: bad });
            }
            let f = lu_factor_owned_ws(std::mem::replace(d, ZMat::empty()), ws)?;
            f.solve_in_place_view(rhs.rb());
            // The pivot block's buffer serves the next block.
            let LuFactors { lu, ipiv } = f;
            ws.recycle_index(ipiv);
            *d = lu;
            if i > first {
                let b = &support[i - 1];
                reshape(u, b.upper.rows.len(), b.upper.cols.len());
                chain.upper_on(i - 1, &b.upper, u);
                gather_rows_into(z, rhs.as_ref(), &b.upper.cols);
                reshape(y, b.upper.rows.len(), kc + w);
                gemm_into(one, u.view(), Op::None, z.view(), Op::None, zero, y.view_mut());
            }
        }
        Ok(())
    }

    /// The solve of block `first` ([`Keep::Every`]): `[X̂_first | y_first]`.
    pub(crate) fn head(&self) -> ZMatRef<'_> {
        self.store.block_view(0, 0, self.store.rows(), self.width(self.first))
    }

    /// The back-substitution of a [`Keep::Every`] front, outward from its
    /// head: `ψ_i = y_i − X̂_i·ψ_{i−1}[C_l, :]` for `i = first … n−1`, with
    /// `incoming` holding `ψ_{first−1}[C_l, :]` on entry (a buffer of at
    /// least `s × m` entries). Block `i` of the front is block row
    /// `row_of(i)` of `psi` (all `m` columns, the carried ones from `col0`
    /// on), and each block's `C_l` rows pass through `incoming` to the
    /// next.
    pub(crate) fn back_substitute(
        &self,
        incoming: &mut ZMat,
        psi: &mut ZMat,
        col0: usize,
        row_of: impl Fn(usize) -> usize,
    ) {
        let (s, w, m) = (self.chain.block_size(), self.carried.cols(), psi.cols());
        let mut off = 0;
        for i in self.first..self.chain.num_blocks() {
            let kc = self.lead(i);
            let (x_hat, y) =
                (self.store.block_view(0, off, s, kc), self.store.block_view(0, off + kc, s, w));
            let mut out = psi.block_view_mut(row_of(i) * s, 0, s, m);
            let minus = -Complex64::ONE;
            gemm_into(minus, x_hat, Op::None, incoming.view(), Op::None, Complex64::ZERO, out.rb());
            for j in 0..w {
                for (o, &v) in out.col_mut(col0 + j).iter_mut().zip(y.col(j)) {
                    *o += v;
                }
            }
            if let Some(next) = self.support.get(i) {
                gather_rows_into(incoming, out.as_ref(), &next.lower.cols);
            }
            off += kc + w;
        }
    }

    /// Hands the scratch buffers back and keeps the solved right-hand side
    /// of block `first` ([`Keep::Last`]).
    pub(crate) fn into_last_block(self, ws: &Workspace) -> ZMat {
        for m in [self.d, self.u, self.z, self.y] {
            ws.recycle(m);
        }
        self.store
    }

    /// Hands every buffer back.
    pub(crate) fn recycle(self, ws: &Workspace) {
        ws.recycle(self.into_last_block(ws));
    }
}
