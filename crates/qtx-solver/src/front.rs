//! One block elimination front: the recurrence both two-ended kernels run
//! from each contact towards a cut inside the device.
//!
//! A front eliminates a chain from block `tail` (its last block unless it
//! is built with [`Front::on`]) towards block `first`, carrying the Schur
//! complement and `w` columns (a broadening factor for the Caroli kernel,
//! injection columns for the wave-function solve, the cut coupling for a
//! Σ-late side of it):
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
//!
//! The loop runs in the arithmetic of its [`Block`] type: complex blocks
//! with Σ folded into block `tail`, or — on a pencil with no imaginary
//! part, where a Σ-late side leaves Σ to a contact block beyond `first` —
//! real ones, read from the chain's complex blocks and factored by
//! `dgetrf`. One loop serves both.

use crate::error::{SolveError, SolveOutcome};
use qtx_linalg::{
    dgetrf, gemm_into, lu_factor_owned_ws, Complex64, DMat, DMatMut, LinalgError, LuFactors, Op,
    Workspace, ZMat, ZMatMut, ZMatRef,
};
use qtx_sparse::{BlockChain, BlockSupport, CouplingSupport};
use std::ops::{Index, IndexMut, Neg, SubAssign};

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

/// `tr[K_L·M·K_R·Mᴴ]` for `K = [[0, iI], [−iI, 0]]`. With `M` split into
/// `k_L × k_R` quadrants, `K_L·M·K_R = [[M₂₂, −M₂₁], [−M₁₂, M₁₁]]`, so the
/// trace is `2·Re⟨M₁₁, M₂₂⟩ − 2·Re⟨M₁₂, M₂₁⟩` — real by construction.
pub(crate) fn trace_kmkmh(m: &ZMat) -> f64 {
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

/// The arithmetic a front runs in: complex blocks ([`ZMat`]), or real ones
/// ([`DMat`]) on a pencil whose entries have no imaginary part. Everything
/// the elimination loop does to a block goes through here, so one loop
/// serves both.
pub(crate) trait Block:
    Sized + Index<(usize, usize), Output = Self::T> + IndexMut<(usize, usize)>
{
    /// The entry type.
    type T: Copy + PartialEq + Neg<Output = Self::T> + SubAssign;
    const ZERO: Self::T;
    const ONE: Self::T;
    /// Whether the chain's blocks reach this arithmetic through a complex
    /// buffer.
    const VIA: bool;
    /// A buffer from `ws`, contents unspecified.
    fn take(ws: &Workspace, rows: usize, cols: usize) -> Self;
    fn give(self, ws: &Workspace);
    fn reshape(&mut self, rows: usize, cols: usize);
    fn cols(&self) -> usize;
    fn col(&self, j: usize) -> &[Self::T];
    fn as_mut_slice(&mut self) -> &mut [Self::T];
    fn non_finite_count(&self) -> usize;
    /// `out ← A_{i,i}` (`s × s`); a real block reads the chain's complex
    /// block through `via`.
    fn diag<C: BlockChain>(chain: &C, i: usize, out: &mut Self, via: &mut ZMat);
    /// `out ← A_{i,i+1}[on]` (`upper`) or `A_{i+1,i}[on]`, re-dimensioned.
    fn coupling<C: BlockChain>(
        chain: &C,
        i: usize,
        on: &BlockSupport,
        upper: bool,
        out: &mut Self,
        via: &mut ZMat,
    );
    /// Factors `d` (`s × s`) and solves the `s`-row columns of `rhs` against
    /// it in place; `d`'s buffer stays in `d`.
    fn factor_solve(d: &mut Self, rhs: &mut [Self::T], ws: &Workspace) -> Result<(), LinalgError>;
    /// `y ← u·z`.
    fn product(u: &Self, z: &Self, y: &mut Self);
}

impl Block for ZMat {
    type T = Complex64;
    const ZERO: Complex64 = Complex64::ZERO;
    const ONE: Complex64 = Complex64::ONE;
    const VIA: bool = false;
    fn take(ws: &Workspace, rows: usize, cols: usize) -> Self {
        ws.take_scratch(rows, cols)
    }
    fn give(self, ws: &Workspace) {
        ws.recycle(self);
    }
    fn reshape(&mut self, rows: usize, cols: usize) {
        reshape(self, rows, cols);
    }
    fn cols(&self) -> usize {
        ZMat::cols(self)
    }
    fn col(&self, j: usize) -> &[Complex64] {
        ZMat::col(self, j)
    }
    fn as_mut_slice(&mut self) -> &mut [Complex64] {
        ZMat::as_mut_slice(self)
    }
    fn non_finite_count(&self) -> usize {
        ZMat::non_finite_count(self)
    }
    fn diag<C: BlockChain>(chain: &C, i: usize, out: &mut Self, _: &mut ZMat) {
        chain.diag_into(i, out);
    }
    fn coupling<C: BlockChain>(
        chain: &C,
        i: usize,
        on: &BlockSupport,
        upper: bool,
        out: &mut Self,
        _: &mut ZMat,
    ) {
        reshape(out, on.rows.len(), on.cols.len());
        if upper {
            chain.upper_on(i, on, out);
        } else {
            chain.lower_on(i, on, out);
        }
    }
    fn factor_solve(
        d: &mut Self,
        rhs: &mut [Complex64],
        ws: &Workspace,
    ) -> Result<(), LinalgError> {
        let s = d.rows();
        let f = lu_factor_owned_ws(std::mem::replace(d, ZMat::empty()), ws)?;
        f.solve_in_place_view(ZMatMut::from_slice(rhs, s, rhs.len() / s.max(1), s.max(1)));
        // The pivot block's buffer serves the next block.
        let LuFactors { lu, ipiv } = f;
        ws.recycle_index(ipiv);
        *d = lu;
        Ok(())
    }
    fn product(u: &Self, z: &Self, y: &mut Self) {
        let (one, zero) = (Complex64::ONE, Complex64::ZERO);
        gemm_into(one, u.view(), Op::None, z.view(), Op::None, zero, y.view_mut());
    }
}

/// The smallest `|U_kk|` a real pivot may have, relative to its largest
/// entry. A Σ-late pivot is the Schur complement of a closed sub-chain and
/// is singular at that sub-chain's eigenvalues; past this ratio the
/// elimination's growth (≈ ε over the ratio) would reach the records'
/// 10⁻¹⁰, so the front reports the pivot instead of using it. On the
/// 0.8 nm and 1.5 nm wires, 400 energies each put the smallest ratio at
/// 5·10⁻⁵ (`docs/solver.md`).
const REAL_PIVOT_TOL: f64 = 1e-6;

impl Block for DMat {
    type T = f64;
    const ZERO: f64 = 0.0;
    const ONE: f64 = 1.0;
    const VIA: bool = true;
    fn take(ws: &Workspace, rows: usize, cols: usize) -> Self {
        ws.take_real(rows, cols)
    }
    fn give(self, ws: &Workspace) {
        ws.recycle_real(self);
    }
    fn reshape(&mut self, rows: usize, cols: usize) {
        DMat::reshape(self, rows, cols);
    }
    fn cols(&self) -> usize {
        DMat::cols(self)
    }
    fn col(&self, j: usize) -> &[f64] {
        DMat::col(self, j)
    }
    fn as_mut_slice(&mut self) -> &mut [f64] {
        DMat::as_mut_slice(self)
    }
    fn non_finite_count(&self) -> usize {
        DMat::non_finite_count(self)
    }
    fn diag<C: BlockChain>(chain: &C, i: usize, out: &mut Self, via: &mut ZMat) {
        let s = chain.block_size();
        reshape(via, s, s);
        chain.diag_into(i, via);
        out.set_re_of(via.view());
    }
    fn coupling<C: BlockChain>(
        chain: &C,
        i: usize,
        on: &BlockSupport,
        upper: bool,
        out: &mut Self,
        via: &mut ZMat,
    ) {
        <ZMat as Block>::coupling(chain, i, on, upper, via, &mut ZMat::empty());
        out.set_re_of(via.view());
    }
    fn factor_solve(d: &mut Self, rhs: &mut [f64], ws: &Workspace) -> Result<(), LinalgError> {
        let s = d.rows();
        let big = d.as_slice().iter().fold(0.0f64, |m, x| m.max(x.abs()));
        let f = dgetrf(std::mem::take(d), ws)?;
        let (index, small) = (0..s)
            .map(|k| (k, f.lu[(k, k)].abs()))
            .fold((0, f64::INFINITY), |a, b| if b.1 < a.1 { b } else { a });
        if small < REAL_PIVOT_TOL * big {
            let magnitude = small / big;
            *d = f.lu;
            ws.recycle_index(f.ipiv);
            let e = LinalgError::SingularPivot { index, magnitude };
            return Err(e.with_context("real pivot", (s, s)));
        }
        f.solve_in_place(DMatMut::from_slice(rhs, s, rhs.len() / s.max(1), s.max(1)));
        ws.recycle_index(f.ipiv);
        *d = f.lu;
        Ok(())
    }
    fn product(u: &Self, z: &Self, y: &mut Self) {
        qtx_linalg::dgemm(1.0, u.view(), z.view(), 0.0, y.view_mut());
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

/// One elimination front over blocks `tail … first` of `chain` (`tail`
/// is the last block unless the front is built with [`Front::on`]), last
/// to first, in the arithmetic of `M`, with its buffers — every one taken
/// when the front is built, so fronts built on the calling thread may run
/// on any other.
pub(crate) struct Front<'a, C, F, M: Block = ZMat> {
    chain: &'a C,
    /// Coupling supports of `chain`, one per adjacent pair.
    support: &'a [CouplingSupport],
    first: usize,
    tail: usize,
    /// Folds the contact's Σ into block `tail` (a no-op where none is).
    fold: F,
    carried: &'a M,
    keep: Keep<'a>,
    /// Name reported in [`SolveError::NonFinite`].
    solver: &'static str,
    /// Pivot block.
    d: M,
    /// The block solves: the current one ([`Keep::Last`]) or all of them
    /// side by side, block `first` leftmost ([`Keep::Every`]).
    store: M,
    /// Gathered coupling (the one above a block, and the one below it while
    /// it is copied into the right-hand side), gathered solution rows, and
    /// their product.
    u: M,
    z: M,
    y: M,
    /// The chain's complex blocks on their way into a real front.
    via: ZMat,
}

impl<'a, C: BlockChain, F: Fn(&mut M), M: Block> Front<'a, C, F, M> {
    /// Takes the front's buffers, sized for the widest pair it crosses.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        chain: &'a C,
        support: &'a [CouplingSupport],
        first: usize,
        fold: F,
        carried: &'a M,
        keep: Keep<'a>,
        solver: &'static str,
        ws: &Workspace,
    ) -> Self {
        let tail = chain.num_blocks() - 1;
        Self::on(chain, support, (first, tail), fold, carried, keep, solver, ws)
    }

    /// [`Front::new`] on blocks `tail … first` (`tail + 1 == first`: no
    /// block at all); `carried` enters at block `tail`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on(
        chain: &'a C,
        support: &'a [CouplingSupport],
        (first, tail): (usize, usize),
        fold: F,
        carried: &'a M,
        keep: Keep<'a>,
        solver: &'static str,
        ws: &Workspace,
    ) -> Self {
        let s = chain.block_size();
        let mut front = Front {
            chain,
            support,
            first,
            tail,
            fold,
            carried,
            keep,
            solver,
            d: M::take(ws, 0, 0),
            store: M::take(ws, 0, 0),
            u: M::take(ws, 0, 0),
            z: M::take(ws, 0, 0),
            y: M::take(ws, 0, 0),
            via: ZMat::empty(),
        };
        let blocks = first..tail + 1;
        let widest = blocks.clone().map(|i| front.width(i)).max().unwrap_or(0);
        let stored = match keep {
            Keep::Last(_) => widest,
            Keep::Every => blocks.clone().map(|i| front.width(i)).sum(),
        };
        if blocks.is_empty() {
            return front;
        }
        // The pairs the Schur updates read (`first … tail − 1`) and the
        // lower couplings copied into right-hand sides (from `first − 1`).
        let above = |len: fn(&CouplingSupport) -> usize| {
            support[first..tail].iter().map(len).max().unwrap_or(0)
        };
        let (ru, cu) = (above(|p| p.upper.rows.len()), above(|p| p.upper.cols.len()));
        let below = (support[first.saturating_sub(1)..tail].iter())
            .map(|p| p.lower.rows.len() * p.lower.cols.len())
            .max()
            .unwrap_or(0);
        front.d = M::take(ws, s, s);
        front.store = M::take(ws, s, stored);
        front.u = M::take(ws, (ru * cu).max(below), 1);
        front.z = M::take(ws, cu, widest);
        front.y = M::take(ws, ru, widest);
        if M::VIA {
            front.via = ws.take_scratch(s, s);
        }
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
        let s = self.chain.block_size();
        let w = self.carried.cols();
        let mut end = self.store.cols();
        for i in (self.first..=self.tail).rev() {
            let Front {
                chain, support, first, tail, fold, carried, keep, d, store, u, y, via, ..
            } = self;
            let (first, tail, keep) = (*first, *tail, *keep);
            d.reshape(s, s);
            M::diag(*chain, i, d, via);
            if i == tail {
                fold(d);
            }
            let kc = lead(keep, first, support, i);
            let off = match keep {
                Keep::Last(_) => {
                    store.reshape(s, kc + w);
                    0
                }
                Keep::Every => {
                    end -= kc + w;
                    end
                }
            };
            let rhs = &mut store.as_mut_slice()[off * s..(off + kc + w) * s];
            rhs.fill(M::ZERO);
            if i == tail {
                for j in 0..w {
                    rhs[(kc + j) * s..(kc + j + 1) * s].copy_from_slice(carried.col(j));
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
                        rhs[(kc + j) * s + r] = -y[(a, kc_above + j)];
                    }
                }
            }
            match keep {
                Keep::Last(rows) if i == first => {
                    for (j, &r) in rows.iter().enumerate() {
                        rhs[j * s + r] = M::ONE;
                    }
                }
                _ => {
                    let below = &support[i - 1].lower;
                    M::coupling(*chain, i - 1, below, false, u, via);
                    for j in 0..below.cols.len() {
                        for (a, &r) in below.rows.iter().enumerate() {
                            rhs[j * s + r] = u[(a, j)];
                        }
                    }
                }
            }
            // A NaN pivot block factors without an error and would only
            // show up in the final result; name it here, where it enters.
            let bad = d.non_finite_count();
            if bad > 0 {
                return Err(SolveError::NonFinite { solver: self.solver, count: bad });
            }
            M::factor_solve(d, rhs, ws)?;
            if i > first {
                self.carry(i, off, kc + w);
            }
        }
        Ok(())
    }

    /// Where block `i`'s solve `[X̂_i | y_i]` sits in a [`Keep::Every`]
    /// front's store: `(column offset, width)`.
    pub(crate) fn solved_at(&self, i: usize) -> (usize, usize) {
        ((self.first..i).map(|j| self.width(j)).sum(), self.width(i))
    }

    /// The block solves side by side ([`Keep::Every`], block `first`
    /// leftmost).
    pub(crate) fn store(&self) -> &M {
        &self.store
    }

    /// What the block below `first` receives from the front's head:
    /// `y = U_{first−1}[R_u, C_u]·[X̂_first | y_first][C_u, :]`, whose
    /// leading columns are its Schur correction and trailing `w` its
    /// carried block (up to sign) — the step the loop would take next.
    pub(crate) fn carry_past_head(&mut self) -> &M {
        let (off, width) = self.solved_at(self.first);
        self.carry(self.first, off, width);
        &self.y
    }

    /// `y ← U_{i−1}[R_u, C_u]·Z[C_u, :]` for the solved right-hand side `Z`
    /// of block `i` (`width` columns from column `off` of the store): what
    /// block `i − 1` subtracts and carries.
    fn carry(&mut self, i: usize, off: usize, width: usize) {
        let s = self.chain.block_size();
        let b = &self.support[i - 1];
        M::coupling(self.chain, i - 1, &b.upper, true, &mut self.u, &mut self.via);
        let z = &mut self.z;
        z.reshape(b.upper.cols.len(), width);
        let solved = &self.store.as_mut_slice()[off * s..(off + width) * s];
        for j in 0..width {
            for (p, &r) in b.upper.cols.iter().enumerate() {
                z[(p, j)] = solved[j * s + r];
            }
        }
        self.y.reshape(b.upper.rows.len(), width);
        M::product(&self.u, &self.z, &mut self.y);
    }

    /// Hands every buffer back.
    pub(crate) fn recycle(self, ws: &Workspace) {
        self.into_last_block(ws).give(ws);
    }

    /// Hands the scratch buffers back and keeps the solved right-hand side
    /// of block `first` ([`Keep::Last`]).
    pub(crate) fn into_last_block(self, ws: &Workspace) -> M {
        for m in [self.d, self.u, self.z, self.y] {
            m.give(ws);
        }
        ws.recycle(self.via);
        self.store
    }
}

impl<C: BlockChain, F: Fn(&mut ZMat)> Front<'_, C, F> {
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
        for i in self.first..=self.tail {
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
}
