//! SplitSolve (§3.B, Fig. 6, Algorithm 1) — without ever forming `Q`.
//!
//! The goals, quoting the paper: "(i) efficiently computing only the
//! required parts of T⁻¹ and (ii) decoupling the calculation of the open
//! boundary conditions Σ^RB from the solution of T⁻¹". With
//! `T = A − B·C` (`B` the unit columns of the rows `Σ^RB` touches, `C` the
//! matching rows of `Σ^RB`), the Sherman–Morrison–Woodbury identity gives
//!
//! ```text
//! x = Q·(b′ + z),   (1 − C·Q)·z = C·Q·b′,   Q = A⁻¹·B
//! ```
//!
//! where `Q` is made of the first and last block columns of `G = A⁻¹` —
//! and of those only the columns `κ_l`, `κ_r` the contacts occupy
//! ([`ChainSupport::contact_l`], [`ChainSupport::contact_r`]: the row
//! support of the lead coupling, which `Σ` and `Inj` cannot leave). The
//! scheme only ever *reads* the four corner blocks `G_00[:, κ_l]`,
//! `G_0N[:, κ_r]`, `G_N0[:, κ_l]`, `G_NN[:, κ_r]` (to build `R = 1 − C·Q`
//! and `C·Q·b′`) and only ever *applies* the columns to the `m` injection
//! vectors. So `Q` stays factored, and nothing is carried on a column no
//! one reads:
//!
//! 1. **Step 1** (preprocessing, independent of `Σ^RB` and `Inj`: the
//!    contact sets are structural): per partition, two mirrored
//!    elimination sweeps — Fig. 6's "two independent sweeps per
//!    partition". The right-connected sweep
//!    (`D̃_i = D_i − U_i·D̃_{i+1}⁻¹·L_i`, for the first block column) and
//!    the left-connected one (`D̃_i = D_i − L_{i−1}·D̃_{i−1}⁻¹·U_{i−1}`,
//!    for the last) factor every pivot block once with pivoted LU and
//!    keep only the thin multipliers `X̂_i = D̃_i⁻¹·L_{i−1}[:, C_l]` /
//!    `Ŷ_i = D̃_i⁻¹·U_i[:, C_u]` on the structural column support of the
//!    coupling ([`CouplingSupport`]); the Schur update touches
//!    `U_i[R_u, C_u]·X̂_{i+1}[C_u, :]` only. Each sweep knows the one column
//!    set `cols` its corner blocks are ever read on — `κ` for the two
//!    outermost sweeps, the row support `R_l` / `R_u` of the coupling to
//!    the neighbour partition for the others — so its head inverse is
//!    `D̃_head⁻¹·E_cols` (`s × |cols|`, not a solve against the identity)
//!    and `G_{i,0}[:, cols] = −X̂_i·G_{i−1,0}[C_l, cols]` gives the far
//!    corner through a `|C| × |C| × |cols|` row-restricted chain.
//!    Partitions are merged SPIKE-style on these corner blocks alone: one
//!    `|C_l| × |C_l|` tip system and a few `s × |support| × |cols|`
//!    products per level, whatever the partition length. A one-partition
//!    run has no merge at all.
//! 2. **Steps 2–3**: `R` and `C·Q·b′` from the root's corner blocks, on
//!    the contact rows; one small solve.
//! 3. **Step 4**: `Q·(b′ + z)` walks the merge tree top-down — each node
//!    turns the panels entering its first and last rows (held on their
//!    column sets) into the panels entering its children's — and every
//!    leaf finishes with one `m`-wide panel sweep per column,
//!    `x_i = −X̂_i·x_{i−1}[C_l, :]`.
//!
//! [`counts::splitsolve_factored`] is the kernel's count at a given
//! partition count. A dense coupling is the same code at full width.
//! The chain is read through [`BlockChain`], so the pencil
//! `(E + iη)·S − H` streams in block by block and `A` is never assembled.
//! See `docs/solver.md` for the ledger. The engine's wave-function path
//! does not run this kernel: its Σ is known before the solve, so it folds
//! Σ in and factors each block once ([`crate::two_front`]).

use crate::error::{SolveError, SolveOutcome};
use crate::front::{gather_rows_into, reshape};
use crate::system::ObcSystem;
use crate::two_front::BoundaryTerms;
use qtx_accel::{AccelRuntime, KernelClass};
use qtx_linalg::flops::{counts, fans_out};
use qtx_linalg::{
    fault, gemm_into, lu_factor_owned_ws, Complex64, FlopScope, LuFactors, Op, Workspace, ZMat,
    ZMatRef,
};
use qtx_sparse::{BlockChain, BlockSupport, ChainSupport, CouplingSupport};
use rayon::prelude::*;
use std::ops::Range;

/// Name this kernel reports in [`SolveError::NonFinite`].
const SOLVER: &str = "splitsolve";

/// SplitSolve driver.
#[derive(Debug, Clone)]
pub struct SplitSolve {
    /// Number of horizontal partitions (power of two, ≥ 1).
    pub partitions: usize,
}

/// Cost/shape report of one SplitSolve run.
#[derive(Debug, Clone, Default)]
pub struct SplitSolveReport {
    /// Virtual accelerator makespan (seconds) when a runtime was attached.
    pub virtual_seconds: f64,
    /// Real double-precision operations this solve executed, on whichever
    /// threads its sweeps ran — and no one else's.
    pub flops: u64,
    /// Partitions the chain was cut into: the solver's count, or the
    /// chain's block count when that is smaller.
    pub partitions: usize,
    /// SPIKE merge levels performed (⌈log₂ `partitions`⌉).
    pub spike_levels: usize,
}

impl SplitSolve {
    /// Creates a solver over exactly `partitions` partitions (power of
    /// two; a chain with fewer blocks is cut into one partition a block).
    pub fn new(partitions: usize) -> Self {
        assert!(partitions >= 1 && partitions.is_power_of_two(), "partitions must be 2^k");
        SplitSolve { partitions }
    }

    /// Solves Eq. 5 and returns the dense solution (`N_SS × m`) plus the
    /// cost report. `rt` attaches the virtual accelerators (2 devices per
    /// partition, Fig. 6).
    pub fn solve(
        &self,
        sys: &ObcSystem,
        rt: Option<&AccelRuntime>,
    ) -> SolveOutcome<(ZMat, SplitSolveReport)> {
        self.solve_ws(sys, rt, &Workspace::new())
    }

    /// [`SplitSolve::solve`] borrowing every temporary from `ws`: callers
    /// looping over energy points hand in one workspace and warm solves
    /// allocate nothing. The structure is derived from the system itself
    /// ([`ObcSystem::chain_support`]: the coupling supports of `sys.a`,
    /// the rows its own Σ and Inj occupy); a caller that sweeps energies
    /// over one device computes it once and calls
    /// [`SplitSolve::solve_chain_ws`].
    pub fn solve_ws(
        &self,
        sys: &ObcSystem,
        rt: Option<&AccelRuntime>,
        ws: &Workspace,
    ) -> SolveOutcome<(ZMat, SplitSolveReport)> {
        let boundary = BoundaryTerms {
            sigma_l: &sys.sigma_l,
            sigma_r: &sys.sigma_r,
            rhs_top: &sys.rhs_top,
            rhs_bottom: &sys.rhs_bottom,
        };
        self.solve_chain_ws(&sys.a, &sys.chain_support(), &boundary, rt, ws)
    }

    /// Eq. 5 on a streamed chain: `chain` is `A` read block by block (an
    /// assembled [`qtx_sparse::Btd`] or the pencil `z·S − H`, bit for bit
    /// the same result), `support` its structure — the coupling supports
    /// and the contact rows, energy-independent for a pencil. A
    /// self-energy or injection entry outside its contact rows is
    /// [`SolveError::OutsideContact`].
    pub fn solve_chain_ws<C: BlockChain + Sync>(
        &self,
        chain: &C,
        support: &ChainSupport,
        boundary: &BoundaryTerms<'_>,
        rt: Option<&AccelRuntime>,
        ws: &Workspace,
    ) -> SolveOutcome<(ZMat, SplitSolveReport)> {
        let (nb, s) = (chain.num_blocks(), chain.block_size());
        assert!(nb >= 1, "a chain has at least one block");
        assert_eq!(support.num_blocks(), nb, "one coupling support per adjacent block pair");
        for sigma in [boundary.sigma_l, boundary.sigma_r] {
            assert_eq!((sigma.rows(), sigma.cols()), (s, s), "self-energy / block size mismatch");
        }
        for contact in [&support.contact_l, &support.contact_r] {
            let sorted = contact.windows(2).all(|w| w[0] < w[1]);
            assert!(sorted && contact.last().is_none_or(|&r| r < s), "contact rows: {contact:?}");
        }
        // Fault-injection chokepoint: keyed on the system content (the
        // diagonal carries E·S − H, the corners carry Σ(E + iη)), so a
        // bit-identical retry fails identically while any escalation —
        // η bump, different OBC method — draws fresh.
        let (a00, sigma00) = (chain.diag_at(0, 0, 0), boundary.sigma_l[(0, 0)]);
        let key = fault::key_of(&[a00.re, a00.im, sigma00.re, sigma00.im, (nb * s) as f64]);
        if fault::should_fail("splitsolve", key) {
            return Err(SolveError::Injected { site: "splitsolve" });
        }
        let ctx = Ctx { chain, support, rt, ws, s };
        let partitions = self.partitions.min(nb);
        let (root, step1_flops) = factor(&ctx, partitions)?;
        // Steps 2–4 start once Σ/Inj are available.
        let scope = FlopScope::start();
        let x = woodbury_panels(&ctx, root.corners(), boundary).map(|(w_top, w_bot)| {
            let mut x = ZMat::zeros(nb * s, w_top.cols());
            root.apply(&ctx, w_top, w_bot, &mut x);
            x
        });
        root.recycle(ws);
        let x = x?;
        let report = SplitSolveReport {
            virtual_seconds: rt.map_or(0.0, AccelRuntime::sync),
            flops: step1_flops + scope.elapsed(),
            partitions,
            spike_levels: partitions.next_power_of_two().trailing_zeros() as usize,
        };
        // A singular-looking A can survive the pivoted factorizations and
        // still emit garbage; catch it before it reaches the transmission
        // assembly.
        let bad = x.non_finite_count();
        if bad > 0 {
            return Err(SolveError::NonFinite { solver: SOLVER, count: bad });
        }
        Ok((x, report))
    }
}

/// Step 1 — preprocessing, independent of Σ and Inj — over `p` partitions:
/// the partition sweeps (phases P1–P4 of Fig. 6: the first-column sweep of
/// partition `k` on device `2k`, the last-column sweep on `2k + 1`) and the
/// recursive SPIKE merge. Returns the merge tree and the operations spent,
/// summed over the threads the sweeps ran on.
fn factor<C: BlockChain + Sync>(ctx: &Ctx<'_, C>, p: usize) -> SolveOutcome<(Node, u64)> {
    let (nb, s, rt, ws) = (ctx.chain.num_blocks(), ctx.s, ctx.rt, ctx.ws);
    // Every matrix buffer is taken here, on the calling thread, so the
    // pool sees the same request sequence whichever thread runs which
    // sweep.
    let n_dev = rt.map_or(1, AccelRuntime::len);
    let mut sweeps: Vec<Sweep> = (0..p)
        .flat_map(|k| {
            let blocks = k * nb / p..(k + 1) * nb / p;
            [
                Sweep::new(ctx, Column::First, blocks.clone(), (2 * k) % n_dev),
                Sweep::new(ctx, Column::Last, blocks, (2 * k + 1) % n_dev),
            ]
        })
        .collect();
    if let Some(rt) = rt {
        // Memory model: each partition's share of A plus its
        // multipliers live on its pair of devices ("A is distributed
        // over all the available GPUs and stored in their memory").
        for sw in &sweeps {
            let a_bytes = 3 * sw.span.len() as u64 * (s * s * 16) as u64 / 2;
            rt.alloc(sw.dev, a_bytes + (sw.mult.rows() * sw.mult.cols() * 16) as u64);
            rt.account_overlapped(sw.dev, KernelClass::H2D, a_bytes);
        }
    }
    let dims = ctx.support.dims();
    let estimate: u64 = sweeps.iter().map(|sw| sw.estimated_flops(s, &dims)).sum();
    let ran: SolveOutcome<Vec<u64>> = if fans_out(estimate / sweeps.len() as u64) {
        sweeps.par_iter_mut().map(|sw| sw.run(ctx)).collect()
    } else {
        sweeps.iter_mut().map(|sw| sw.run(ctx)).collect()
    };
    let sweep_flops: u64 = match ran {
        Ok(counts) => counts.iter().sum(),
        Err(e) => {
            sweeps.into_iter().for_each(|sw| sw.recycle(ws));
            return Err(e);
        }
    };
    if let Some(rt) = rt {
        rt.sync();
    }
    // Recursive SPIKE merge: ⌈log₂ p⌉ levels of constant work each, on
    // this thread.
    let scope = FlopScope::start();
    let mut layer: Vec<Node> = Vec::with_capacity(p);
    let mut it = sweeps.into_iter();
    while let (Some(first), Some(last)) = (it.next(), it.next()) {
        layer.push(Node::Leaf { first, last });
    }
    while layer.len() > 1 {
        let mut merged = Vec::with_capacity(layer.len().div_ceil(2));
        let mut it = layer.into_iter();
        while let Some(left) = it.next() {
            merged.push(match it.next() {
                Some(right) => match Node::merge(ctx, left, right) {
                    Ok(node) => node,
                    Err(e) => {
                        merged.into_iter().chain(it).for_each(|n| n.recycle(ws));
                        return Err(e);
                    }
                },
                None => left,
            });
        }
        layer = merged;
        if let Some(rt) = rt {
            rt.sync();
        }
    }
    let root = layer.pop().expect("at least one partition");
    Ok((root, sweep_flops + scope.elapsed()))
}

/// What every phase of one solve shares.
struct Ctx<'a, C> {
    chain: &'a C,
    support: &'a ChainSupport,
    rt: Option<&'a AccelRuntime>,
    ws: &'a Workspace,
    /// Block size.
    s: usize,
}

impl<C> Ctx<'_, C> {
    /// Charges `flops` of class `class` to virtual device `dev`.
    fn account(&self, dev: usize, class: KernelClass, flops: u64) {
        if let Some(rt) = self.rt {
            rt.account(dev, class, flops, 0);
        }
    }

    /// Pooled product `α·A·B`.
    fn product(&self, alpha: Complex64, a: ZMatRef<'_>, b: ZMatRef<'_>) -> ZMat {
        let mut c = self.ws.take_scratch(a.rows(), b.cols());
        gemm_into(alpha, a, Op::None, b, Op::None, Complex64::ZERO, c.view_mut());
        c
    }

    /// Pooled copy of `src[rows, :]`.
    fn rows_of(&self, src: &ZMat, rows: &[usize]) -> ZMat {
        let mut out = self.ws.take_scratch(rows.len(), src.cols());
        gather_rows_into(&mut out, src.view(), rows);
        out
    }
}

/// Which block column of a partition's inverse a sweep serves. The first
/// column comes from the right-connected elimination (last block to
/// first), the last column from the left-connected one; everything else
/// is the same code with the two coupling blocks of a pair swapping roles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Column {
    First,
    Last,
}

impl Column {
    /// Supports of the pair's `(inner, outer)` coupling: `inner` sits in
    /// the row of the block eliminated later and enters its Schur update,
    /// `outer` sits in the row of the block eliminated first and is the
    /// right-hand side of its multiplier.
    fn sides(self, pair: &CouplingSupport) -> (&BlockSupport, &BlockSupport) {
        match self {
            Column::First => (&pair.upper, &pair.lower),
            Column::Last => (&pair.lower, &pair.upper),
        }
    }

    /// `out ← Inner[inner.rows, inner.cols]` of the pair.
    fn inner_on<C: BlockChain>(self, chain: &C, pair: usize, inner: &BlockSupport, out: &mut ZMat) {
        match self {
            Column::First => chain.upper_on(pair, inner, out),
            Column::Last => chain.lower_on(pair, inner, out),
        }
    }

    fn outer_at<C: BlockChain>(self, chain: &C, pair: usize, r: usize, c: usize) -> Complex64 {
        match self {
            Column::First => chain.lower_at(pair, r, c),
            Column::Last => chain.upper_at(pair, r, c),
        }
    }
}

/// The blocks one sweep eliminates, in which order.
///
/// Positions `k = 0..n` count blocks in elimination order; the *head* is
/// the block eliminated last (the partition's first block for
/// [`Column::First`], its last for [`Column::Last`]).
struct Span {
    column: Column,
    blocks: Range<usize>,
}

impl Span {
    fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Block index at elimination position `k`.
    fn block(&self, k: usize) -> usize {
        match self.column {
            Column::First => self.blocks.end - 1 - k,
            Column::Last => self.blocks.start + k,
        }
    }

    /// Coupling pair between positions `k` and `k + 1`.
    fn pair(&self, k: usize) -> usize {
        self.block(k).min(self.block(k + 1))
    }

    /// `C_k`: the rows of position `k + 1` that position `k` reads.
    fn cols<'a, C>(&self, ctx: &Ctx<'a, C>, k: usize) -> &'a [usize] {
        &self.column.sides(&ctx.support.coupling[self.pair(k)]).1.cols
    }

    /// The columns the corner blocks of this block column are read on:
    /// the contact rows when the head is an end of the chain, else the row
    /// support of the coupling that reaches the head from the neighbour
    /// partition (`L` for a first column, `U` for a last one).
    fn corner_cols<'a, C>(&self, ctx: &Ctx<'a, C>) -> &'a [usize] {
        let support = ctx.support;
        match self.column {
            Column::First => match self.blocks.start.checked_sub(1) {
                None => &support.contact_l,
                Some(pair) => &support.coupling[pair].lower.rows,
            },
            Column::Last => match support.coupling.get(self.blocks.end - 1) {
                None => &support.contact_r,
                Some(pair) => &pair.upper.rows,
            },
        }
    }
}

/// One elimination sweep over a partition and what it leaves behind: the
/// factored form of the columns `cols` ([`Span::corner_cols`]) of one
/// block column of the partition's inverse. With `M_k = D̃_k⁻¹·Outer_k[:, C_k]` the column's
/// block at position `k` is `−M_k` times rows `C_k` of its block at
/// position `k + 1`.
struct Sweep {
    span: Span,
    /// Virtual accelerator charged with this sweep.
    dev: usize,
    /// The multipliers `M_0 … M_{n−2}` side by side; `M_k` occupies
    /// columns `offs[k]..offs[k + 1]`.
    mult: ZMat,
    offs: Vec<usize>,
    /// `D̃_head⁻¹[:, cols]`: the column's corner block on the head's side.
    near: ZMat,
    /// The column's corner block at the other end of the partition, on
    /// `cols`.
    far: ZMat,
    /// Pivot block, `s²` entries.
    d: ZMat,
    /// Three gather/product buffers, each as large as the widest coupling
    /// support of the span times the wider of it and `cols`.
    tmp: [ZMat; 3],
}

/// `M_k` inside the multiplier panel.
fn multiplier<'a>(mult: &'a ZMat, offs: &[usize], k: usize) -> ZMatRef<'a> {
    mult.block_view(0, offs[k], mult.rows(), offs[k + 1] - offs[k])
}

impl Sweep {
    fn new<C>(ctx: &Ctx<'_, C>, column: Column, blocks: Range<usize>, dev: usize) -> Self {
        let s = ctx.s;
        let span = Span { column, blocks };
        let cols = span.corner_cols(ctx);
        let mut offs = vec![0];
        let mut side = 0;
        for k in 0..span.len() - 1 {
            offs.push(offs[k] + span.cols(ctx, k).len());
            let (ru, cu, rl, cl) = ctx.support.coupling[span.pair(k)].dims();
            side = side.max(ru).max(cu).max(rl).max(cl);
        }
        Sweep {
            mult: ctx.ws.take_scratch(s, offs[span.len() - 1]),
            span,
            dev,
            offs,
            near: ctx.ws.take_scratch(s, cols.len()),
            far: ctx.ws.take_scratch(s, cols.len()),
            d: ctx.ws.take_scratch(s, s),
            tmp: std::array::from_fn(|_| ctx.ws.take_scratch(side, side.max(cols.len()))),
        }
    }

    /// The sweep's operation count, for the fan-out decision; `dims` is
    /// [`ChainSupport::dims`] of the whole chain.
    fn estimated_flops(&self, s: usize, dims: &[(usize, usize, usize, usize)]) -> u64 {
        let Range { start, end } = self.span.blocks;
        let first = self.span.column == Column::First;
        counts::splitsolve_sweep(s, &dims[start..end - 1], first, self.near.cols())
    }

    /// Runs the sweep and returns the operations it executed (counted on
    /// the thread it ran on).
    fn run<C: BlockChain>(&mut self, ctx: &Ctx<'_, C>) -> SolveOutcome<u64> {
        let scope = FlopScope::start();
        let Sweep { span, dev, mult, offs, near, far, d, tmp: [u, z, y] } = self;
        let cols = span.corner_cols(ctx);
        let (s, n, w, dev, column) = (ctx.s, span.len(), cols.len(), *dev, span.column);
        let (one, zero) = (Complex64::ONE, Complex64::ZERO);
        let coupling = &ctx.support.coupling;
        for k in 0..n {
            reshape(d, s, s);
            ctx.chain.diag_into(span.block(k), d);
            if k > 0 {
                // D̃_k = D_k − Inner[R, C]·M_{k−1}[C, :], on the supports.
                let pair = span.pair(k - 1);
                let (inner, outer) = column.sides(&coupling[pair]);
                reshape(u, inner.rows.len(), inner.cols.len());
                column.inner_on(ctx.chain, pair, inner, u);
                gather_rows_into(z, multiplier(mult, offs, k - 1), &inner.cols);
                reshape(y, inner.rows.len(), outer.cols.len());
                gemm_into(one, u.view(), Op::None, z.view(), Op::None, zero, y.view_mut());
                for (b, &c) in outer.cols.iter().enumerate() {
                    for (a, &r) in inner.rows.iter().enumerate() {
                        d[(r, c)] -= y[(a, b)];
                    }
                }
                ctx.account(
                    dev,
                    KernelClass::Gemm,
                    counts::zgemm(inner.rows.len(), outer.cols.len(), inner.cols.len()),
                );
            }
            let f = lu_factor_owned_ws(std::mem::replace(d, ZMat::empty()), ctx.ws)?;
            let width = if k + 1 < n {
                let pair = span.pair(k);
                let outer = column.sides(&coupling[pair]).1;
                let mut m = mult.block_view_mut(0, offs[k], s, outer.cols.len());
                for (j, &c) in outer.cols.iter().enumerate() {
                    let col = m.col_mut(j);
                    col.fill(zero);
                    for &r in &outer.rows {
                        col[r] = column.outer_at(ctx.chain, pair, r, c);
                    }
                }
                f.solve_in_place_view(m);
                outer.cols.len()
            } else {
                // The head inverse on the columns someone reads.
                near.as_mut_slice().fill(zero);
                for (j, &c) in cols.iter().enumerate() {
                    near[(c, j)] = one;
                }
                f.solve_in_place(near);
                w
            };
            ctx.account(dev, KernelClass::Solve, counts::zgetrf(s) + counts::zgetrs(s, width));
            // The pivot block's buffer serves the next block.
            let LuFactors { lu, ipiv } = f;
            ctx.ws.recycle_index(ipiv);
            *d = lu;
        }
        // Far corner: the head inverse carried to the tail, keeping at
        // each position only the rows the next one reads.
        if n == 1 {
            far.as_mut_slice().copy_from_slice(near.as_slice());
        } else {
            gather_rows_into(z, near.view(), span.cols(ctx, n - 2));
            for k in (1..n - 1).rev() {
                let rows = span.cols(ctx, k - 1);
                gather_rows_into(u, multiplier(mult, offs, k), rows);
                reshape(y, rows.len(), w);
                gemm_into(-one, u.view(), Op::None, z.view(), Op::None, zero, y.view_mut());
                ctx.account(dev, KernelClass::Gemm, counts::zgemm(rows.len(), w, z.rows()));
                std::mem::swap(z, y);
            }
            let m0 = multiplier(mult, offs, 0);
            gemm_into(-one, m0, Op::None, z.view(), Op::None, zero, far.view_mut());
            ctx.account(dev, KernelClass::Gemm, counts::zgemm(s, w, z.rows()));
        }
        Ok(scope.elapsed())
    }

    /// Adds this column applied to the panel `w` (entering the head block
    /// row, held on `cols`) to the partition's rows of `x`.
    fn apply<C>(&self, ctx: &Ctx<'_, C>, w: &ZMat, x: &mut ZMat) {
        let Sweep { span, dev, mult, offs, near, .. } = self;
        let (s, n, m) = (ctx.s, span.len(), w.cols());
        let mut v = ctx.product(Complex64::ONE, near.view(), w.view());
        let mut next = ctx.ws.take_scratch(s, m);
        let widest = (0..n - 1).map(|k| span.cols(ctx, k).len()).max().unwrap_or(0);
        let mut z = ctx.ws.take_scratch(widest, m);
        ctx.account(*dev, KernelClass::Gemm, counts::zgemm(s, m, near.cols()));
        for k in (0..n).rev() {
            if k + 1 < n {
                let cols = span.cols(ctx, k);
                gather_rows_into(&mut z, v.view(), cols);
                gemm_into(
                    -Complex64::ONE,
                    multiplier(mult, offs, k),
                    Op::None,
                    z.view(),
                    Op::None,
                    Complex64::ZERO,
                    next.view_mut(),
                );
                std::mem::swap(&mut v, &mut next);
                ctx.account(*dev, KernelClass::Gemm, counts::zgemm(s, m, cols.len()));
            }
            let row0 = span.block(k) * s;
            for j in 0..m {
                for (xi, &vi) in x.col_mut(j)[row0..row0 + s].iter_mut().zip(v.col(j)) {
                    *xi += vi;
                }
            }
        }
        for m in [v, next, z] {
            ctx.ws.recycle(m);
        }
    }

    fn recycle(self, ws: &Workspace) {
        let Sweep { mult, near, far, d, tmp, .. } = self;
        for m in [mult, near, far, d].into_iter().chain(tmp) {
            ws.recycle(m);
        }
    }
}

/// Corner blocks `[G_00, G_0N, G_N0, G_NN]` of a (sub-)chain inverse: the
/// first-column ones on the first sweep's column set, the last-column ones
/// on the last sweep's.
type Corners<'a> = [&'a ZMat; 4];

/// The SPIKE merge tree over the partitions.
enum Node {
    Leaf { first: Sweep, last: Sweep },
    Merged { left: Box<Node>, right: Box<Node>, tip: Tip, corners: [ZMat; 4] },
}

/// The interface between two merged sub-chains `a` (left) and `c`
/// (right), coupled by `U = A_{e,e+1}` (support `R_u × C_u`) and
/// `L = A_{e+1,e}` (support `R_l × C_l`). `a`'s last block column is held
/// on the columns `R_u`, `c`'s first on `R_l` — the only ones a neighbour
/// can excite. With `ξ` rows `C_l` of the solution's last block in `a` and
/// `η` rows `C_u` of its first block in `c`, a right-hand side `w_t` /
/// `w_b` entering the merged chain's first / last block row (on the outer
/// column sets) gives
///
/// ```text
/// (1 − P·Q)·ξ = a_N0[C_l, :]·w_t − P·c_0N[C_u, :]·w_b
///           η = c_0N[C_u, :]·w_b − Q·ξ
/// P = a_NN[C_l, R_u]·U[R_u, C_u],   Q = c_00[C_u, R_l]·L[R_l, C_l]
/// ```
///
/// and the children see `−U·η` entering `a`'s last block row on `R_u` and
/// `−L·ξ` entering `c`'s first on `R_l`.
struct Tip {
    /// The device charged with the merge.
    dev: usize,
    p: ZMat,
    q: ZMat,
    /// LU of `1 − P·Q`.
    lu: LuFactors,
    /// `a_N0[C_l, :]` and `c_0N[C_u, :]`.
    a_n0: ZMat,
    c_0n: ZMat,
    /// `U[R_u, C_u]` and `L[R_l, C_l]`.
    u: ZMat,
    l: ZMat,
}

impl Tip {
    /// `(ξ, η)` for the panels `a_N0[C_l, :]·w_t` and `c_0N[C_u, :]·w_b`
    /// (consumed).
    fn solve<C>(&self, ctx: &Ctx<'_, C>, from_top: ZMat, from_bot: ZMat) -> (ZMat, ZMat) {
        let (mut xi, mut eta) = (from_top, from_bot);
        let one = Complex64::ONE;
        gemm_into(-one, self.p.view(), Op::None, eta.view(), Op::None, one, xi.view_mut());
        self.lu.solve_in_place(&mut xi);
        gemm_into(-one, self.q.view(), Op::None, xi.view(), Op::None, one, eta.view_mut());
        let (kl, ku, w) = (xi.rows(), eta.rows(), xi.cols());
        ctx.account(self.dev, KernelClass::Gemm, 2 * counts::zgemm(kl, w, ku));
        ctx.account(self.dev, KernelClass::Solve, counts::zgetrs(kl, w));
        (xi, eta)
    }

    fn recycle(self, ws: &Workspace) {
        let Tip { p, q, lu, a_n0, c_0n, u, l, .. } = self;
        lu.recycle_into(ws);
        for m in [p, q, a_n0, c_0n, u, l] {
            ws.recycle(m);
        }
    }
}

impl Node {
    fn corners(&self) -> Corners<'_> {
        match self {
            Node::Leaf { first, last } => [&first.near, &last.far, &first.far, &last.near],
            Node::Merged { corners: [g00, g0n, gn0, gnn], .. } => [g00, g0n, gn0, gnn],
        }
    }

    fn blocks(&self) -> Range<usize> {
        match self {
            Node::Leaf { first, .. } => first.span.blocks.clone(),
            Node::Merged { left, right, .. } => left.blocks().start..right.blocks().end,
        }
    }

    /// SPIKE merge of two adjacent sub-chains (Fig. 6's recursive step)
    /// from their corner blocks: one tip system of the size of the
    /// coupling's support and four `s × |support| × |cols|` products on
    /// the merged node's outer column sets, whatever the sub-chains'
    /// lengths.
    fn merge<C: BlockChain>(ctx: &Ctx<'_, C>, left: Node, right: Node) -> SolveOutcome<Self> {
        let ws = ctx.ws;
        let pair = left.blocks().end - 1;
        let dev = (2 * left.blocks().start) % ctx.rt.map_or(1, AccelRuntime::len);
        let CouplingSupport { upper: up, lower: lo } = &ctx.support.coupling[pair];
        // `a`'s last column lives on the columns R_u, `c`'s first on R_l.
        let [a_00, a_0n, a_n0, a_nn] = left.corners();
        let [c_00, c_0n, c_n0, c_nn] = right.corners();
        let (kl, ku) = (lo.cols.len(), up.cols.len());
        let (w_top, w_bot) = (a_00.cols(), c_nn.cols());
        let one = Complex64::ONE;

        let mut u = ws.take_scratch(up.rows.len(), ku);
        ctx.chain.upper_on(pair, up, &mut u);
        let mut l = ws.take_scratch(lo.rows.len(), kl);
        ctx.chain.lower_on(pair, lo, &mut l);
        let a_tip = ctx.rows_of(a_nn, &lo.cols);
        let p = ctx.product(one, a_tip.view(), u.view());
        ws.recycle(a_tip);
        let c_tip = ctx.rows_of(c_00, &up.cols);
        let q = ctx.product(one, c_tip.view(), l.view());
        ws.recycle(c_tip);
        // 1 − P·Q, factored once for the merge and for Step 4.
        let mut t = ctx.product(-one, p.view(), q.view());
        for i in 0..kl {
            t[(i, i)] += one;
        }
        let a_n0_rows = ctx.rows_of(a_n0, &lo.cols);
        let c_0n_rows = ctx.rows_of(c_0n, &up.cols);
        ctx.account(
            dev,
            KernelClass::Gemm,
            counts::zgemm(kl, ku, up.rows.len())
                + counts::zgemm(ku, kl, lo.rows.len())
                + counts::zgemm(kl, kl, ku),
        );
        ctx.account(dev, KernelClass::Solve, counts::zgetrf(kl));
        let lu = match lu_factor_owned_ws(t, ws) {
            Ok(lu) => lu,
            Err(e) => {
                for m in [u, l, p, q, a_n0_rows, c_0n_rows] {
                    ws.recycle(m);
                }
                left.recycle(ws);
                right.recycle(ws);
                return Err(e.into());
            }
        };
        let tip = Tip { dev, p, q, lu, a_n0: a_n0_rows, c_0n: c_0n_rows, u, l };

        // Both block columns at once: the unit panel of the first column
        // set enters the first block row, that of the last the last, so
        // `a_N0[C_l, :]·w_t = [a_N0 | 0]` and `c_0N[C_u, :]·w_b = [0 | c_0N]`.
        let mut from_top = ws.take(kl, w_top + w_bot);
        from_top.set_block(0, 0, &tip.a_n0);
        let mut from_bot = ws.take(ku, w_top + w_bot);
        from_bot.set_block(0, w_top, &tip.c_0n);
        let (xi, eta) = tip.solve(ctx, from_top, from_bot);
        let u_eta = ctx.product(one, tip.u.view(), eta.view());
        let l_xi = ctx.product(one, tip.l.view(), xi.view());
        ws.recycle(xi);
        ws.recycle(eta);
        // [G_00 | G_0N] = [a_00 | 0] − a_0N·U·η and
        // [G_N0 | G_NN] = [0 | c_NN] − c_N0·L·ξ.
        let corner = |cols: &ZMat, prod: &ZMat, j0: usize, w: usize, base: Option<&ZMat>| {
            let mut g = match base {
                Some(b) => ws.copy_of(b),
                None => ws.take(ctx.s, w),
            };
            let part = prod.block_view(0, j0, prod.rows(), w);
            gemm_into(-one, cols.view(), Op::None, part, Op::None, one, g.view_mut());
            g
        };
        let corners = [
            corner(a_0n, &u_eta, 0, w_top, Some(a_00)),
            corner(a_0n, &u_eta, w_top, w_bot, None),
            corner(c_n0, &l_xi, 0, w_top, None),
            corner(c_n0, &l_xi, w_top, w_bot, Some(c_nn)),
        ];
        ctx.account(
            dev,
            KernelClass::Gemm,
            counts::zgemm(up.rows.len(), w_top + w_bot, ku)
                + counts::zgemm(lo.rows.len(), w_top + w_bot, kl)
                + counts::zgemm(ctx.s, w_top + w_bot, up.rows.len())
                + counts::zgemm(ctx.s, w_top + w_bot, lo.rows.len()),
        );
        if let Some(rt) = ctx.rt {
            rt.account_overlapped(dev, KernelClass::D2D, (2 * ctx.s * (w_top + w_bot) * 16) as u64);
        }
        ws.recycle(u_eta);
        ws.recycle(l_xi);
        Ok(Node::Merged { left: Box::new(left), right: Box::new(right), tip, corners })
    }

    /// Step 4: adds the solution of `A_node·x = e_first·w_top + e_last·w_bot`
    /// to the node's rows of `x` (panels held on the node's outer column
    /// sets; consumed).
    fn apply<C: BlockChain>(&self, ctx: &Ctx<'_, C>, w_top: ZMat, w_bot: ZMat, x: &mut ZMat) {
        let ws = ctx.ws;
        match self {
            Node::Leaf { first, last } => {
                first.apply(ctx, &w_top, x);
                last.apply(ctx, &w_bot, x);
                if let Some(rt) = ctx.rt {
                    // The partition's rows of x travel back to the host.
                    let bytes = (first.span.len() * ctx.s * w_top.cols() * 16) as u64;
                    rt.account_overlapped(first.dev, KernelClass::D2H, bytes);
                }
                ws.recycle(w_top);
                ws.recycle(w_bot);
            }
            Node::Merged { left, right, tip, .. } => {
                let one = Complex64::ONE;
                let from_top = ctx.product(one, tip.a_n0.view(), w_top.view());
                let from_bot = ctx.product(one, tip.c_0n.view(), w_bot.view());
                let (xi, eta) = tip.solve(ctx, from_top, from_bot);
                // −U·η enters the left child's last block row on R_u,
                // −L·ξ the right child's first on R_l.
                let left_bot = ctx.product(-one, tip.u.view(), eta.view());
                let right_top = ctx.product(-one, tip.l.view(), xi.view());
                let m = w_top.cols();
                ctx.account(
                    tip.dev,
                    KernelClass::Gemm,
                    counts::zgemm(xi.rows(), m, w_top.rows())
                        + counts::zgemm(eta.rows(), m, w_bot.rows())
                        + counts::zgemm(tip.u.rows(), m, eta.rows())
                        + counts::zgemm(tip.l.rows(), m, xi.rows()),
                );
                ws.recycle(xi);
                ws.recycle(eta);
                left.apply(ctx, w_top, left_bot, x);
                right.apply(ctx, right_top, w_bot, x);
            }
        }
    }

    fn recycle(self, ws: &Workspace) {
        match self {
            Node::Leaf { first, last } => {
                first.recycle(ws);
                last.recycle(ws);
            }
            Node::Merged { left, right, tip, corners } => {
                left.recycle(ws);
                right.recycle(ws);
                tip.recycle(ws);
                corners.into_iter().for_each(|m| ws.recycle(m));
            }
        }
    }
}

/// `Err` unless every entry of `block` outside `rows` (sorted) is an exact
/// zero: the contact rows bound what `what` may occupy, and an entry
/// beyond them would otherwise be dropped without a trace.
fn within_contact(what: &'static str, block: &ZMat, rows: &[usize]) -> SolveOutcome<()> {
    if rows.len() == block.rows() {
        return Ok(());
    }
    for j in 0..block.cols() {
        let mut inside = rows.iter().peekable();
        for (row, z) in block.col(j).iter().enumerate() {
            if inside.next_if_eq(&&row).is_none() && (z.re != 0.0 || z.im != 0.0) {
                return Err(SolveError::OutsideContact { what, row });
            }
        }
    }
    Ok(())
}

/// Steps 2–3: the panels `b′ + z` entering the first and last block rows,
/// on the contact rows `κ_l` / `κ_r`, from the root's corner blocks.
///
/// `Σ^RB = B·C` with `B` the unit columns of the contact rows and
/// `C = Σ[κ, :]`, so `R = 1 − C·G·B` has one row per contact row —
/// `2s` at most, fewer when the leads couple through part of a slab only.
fn woodbury_panels<C>(
    ctx: &Ctx<'_, C>,
    [g_00, g_0n, g_n0, g_nn]: Corners<'_>,
    boundary: &BoundaryTerms<'_>,
) -> SolveOutcome<(ZMat, ZMat)> {
    let (s, ws) = (ctx.s, ctx.ws);
    let one = Complex64::ONE;
    let (kappa_l, kappa_r) = (&ctx.support.contact_l[..], &ctx.support.contact_r[..]);
    within_contact("left self-energy", boundary.sigma_l, kappa_l)?;
    within_contact("left injection", boundary.rhs_top, kappa_l)?;
    within_contact("right self-energy", boundary.sigma_r, kappa_r)?;
    within_contact("right injection", boundary.rhs_bottom, kappa_r)?;
    let (m_l, m_r) = (boundary.rhs_top.cols(), boundary.rhs_bottom.cols());
    let m = m_l + m_r;
    let (k_l, k_r) = (kappa_l.len(), kappa_r.len());
    let c_l = ctx.rows_of(boundary.sigma_l, kappa_l);
    let c_r = ctx.rows_of(boundary.sigma_r, kappa_r);
    // b′ on the contact rows: left-injected columns first.
    let mut w_top = ws.take(k_l, m);
    let mut w_bot = ws.take(k_r, m);
    for (w, rhs, rows, j0) in [
        (&mut w_top, boundary.rhs_top, kappa_l, 0),
        (&mut w_bot, boundary.rhs_bottom, kappa_r, m_l),
    ] {
        for j in 0..rhs.cols() {
            for (d, &r) in w.col_mut(j0 + j).iter_mut().zip(rows) {
                *d = rhs.col(j)[r];
            }
        }
    }

    // y = G·b at the boundary blocks.
    let mut y_0 = ws.take_scratch(s, m);
    let mut y_n = ws.take_scratch(s, m);
    for (y, from_top, from_bot) in [(&mut y_0, g_00, g_0n), (&mut y_n, g_n0, g_nn)] {
        for (g, w, j0, width) in [(from_top, &w_top, 0, m_l), (from_bot, &w_bot, m_l, m_r)] {
            let (b, out) =
                (w.block_view(0, j0, w.rows(), width), y.block_view_mut(0, j0, s, width));
            gemm_into(one, g.view(), Op::None, b, Op::None, Complex64::ZERO, out);
        }
    }
    // C·y and R = 1 − C·G·B, block by block.
    let mut z = ws.take_scratch(k_l + k_r, m);
    let mut r = ws.take(k_l + k_r, k_l + k_r);
    for i in 0..k_l + k_r {
        r[(i, i)] = one;
    }
    for (c, r0, k, y, g_left, g_right) in
        [(&c_l, 0, k_l, &y_0, g_00, g_0n), (&c_r, k_l, k_r, &y_n, g_n0, g_nn)]
    {
        let out = z.block_view_mut(r0, 0, k, m);
        gemm_into(one, c.view(), Op::None, y.view(), Op::None, Complex64::ZERO, out);
        for (g, c0) in [(g_left, 0), (g_right, k_l)] {
            let out = r.block_view_mut(r0, c0, k, g.cols());
            gemm_into(-one, c.view(), Op::None, g.view(), Op::None, one, out);
        }
    }
    for m in [y_0, y_n, c_l, c_r] {
        ws.recycle(m);
    }
    // R·z = C·y — "a system of comparably small size", on the two
    // boundary devices.
    ctx.account(
        0,
        KernelClass::Gemm,
        2 * (counts::zgemm(s, m_l, k_l) + counts::zgemm(s, m_r, k_r))
            + counts::zgemm(k_l + k_r, m + k_l + k_r, s),
    );
    ctx.account(0, KernelClass::Solve, counts::zgetrf(k_l + k_r) + counts::zgetrs(k_l + k_r, m));
    if let Some(rt) = ctx.rt {
        rt.account_overlapped(0, KernelClass::D2D, ((k_l + k_r) * m * 16) as u64);
    }
    let lu = match lu_factor_owned_ws(r, ws) {
        Ok(lu) => lu,
        Err(e) => {
            for m in [z, w_top, w_bot] {
                ws.recycle(m);
            }
            return Err(e.into());
        }
    };
    lu.solve_in_place(&mut z);
    lu.recycle_into(ws);
    // b′ + z.
    for j in 0..m {
        for (w, zi) in w_top.col_mut(j).iter_mut().zip(&z.col(j)[..k_l]) {
            *w += *zi;
        }
        for (w, zi) in w_bot.col_mut(j).iter_mut().zip(&z.col(j)[k_l..]) {
            *w += *zi;
        }
    }
    ws.recycle(z);
    Ok((w_top, w_bot))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtx_accel::GpuSpec;
    use qtx_linalg::{c64, lu_inverse, matmul, zgesv};
    use qtx_sparse::Btd;

    fn random_system(nb: usize, s: usize, m: usize, seed: u64) -> ObcSystem {
        let mut a = Btd::zeros(nb, s);
        for i in 0..nb {
            a.diag[i] = ZMat::random(s, s, seed + i as u64);
            for d in 0..s {
                a.diag[i][(d, d)] += c64(4.0 + s as f64, 1.0);
            }
        }
        for i in 0..nb - 1 {
            a.upper[i] = ZMat::random(s, s, seed + 100 + i as u64).scaled(c64(0.4, 0.0));
            a.lower[i] = ZMat::random(s, s, seed + 200 + i as u64).scaled(c64(0.4, 0.0));
        }
        ObcSystem {
            a,
            sigma_l: ZMat::random(s, s, seed + 300).scaled(c64(0.3, 0.1)),
            sigma_r: ZMat::random(s, s, seed + 301).scaled(c64(0.3, -0.1)),
            rhs_top: ZMat::random(s, m, seed + 400),
            rhs_bottom: ZMat::random(s, m, seed + 401),
        }
    }

    /// The structure of `a` with the given contact rows.
    fn support_of(a: &Btd, contact_l: &[usize], contact_r: &[usize]) -> ChainSupport {
        ChainSupport {
            coupling: a.coupling_support(),
            contact_l: contact_l.to_vec(),
            contact_r: contact_r.to_vec(),
        }
    }

    /// Columns `contact_l` of the first and `contact_r` of the last block
    /// column of `A⁻¹` through Step 1 and the Step 4 walk: the unit panel
    /// of the column set enters the first (last) block row.
    fn inverse_block_columns(a: &Btd, support: &ChainSupport, partitions: usize) -> (ZMat, ZMat) {
        let (ws, s) = (Workspace::new(), a.block_size());
        let ctx = Ctx { chain: a, support, rt: None, ws: &ws, s };
        let (root, _) = factor(&ctx, partitions).unwrap();
        let (k_l, k_r) = (support.contact_l.len(), support.contact_r.len());
        let mut first = ZMat::zeros(a.dim(), k_l);
        root.apply(&ctx, ZMat::identity(k_l), ZMat::zeros(k_r, k_l), &mut first);
        let mut last = ZMat::zeros(a.dim(), k_r);
        root.apply(&ctx, ZMat::zeros(k_l, k_r), ZMat::identity(k_r), &mut last);
        (first, last)
    }

    /// `m[:, cols]`.
    fn columns(m: &ZMat, cols: &[usize]) -> ZMat {
        ZMat::from_fn(m.rows(), cols.len(), |r, j| m[(r, cols[j])])
    }

    #[test]
    fn single_partition_matches_dense_inverse_columns() {
        let sys = random_system(5, 3, 1, 1);
        let inv = lu_inverse(&sys.a.to_dense()).unwrap();
        for (kappa_l, kappa_r) in [(vec![0, 1, 2], vec![0, 1, 2]), (vec![1], vec![0, 2])] {
            let support = support_of(&sys.a, &kappa_l, &kappa_r);
            let (first, last) = inverse_block_columns(&sys.a, &support, 1);
            let want_first = columns(&inv.block(0, 0, 15, 3), &kappa_l);
            let want_last = columns(&inv.block(0, 12, 15, 3), &kappa_r);
            assert!(first.max_diff(&want_first) < 1e-9, "first block column on {kappa_l:?}");
            assert!(last.max_diff(&want_last) < 1e-9, "last block column on {kappa_r:?}");
        }
    }

    #[test]
    fn spike_merge_matches_single_partition() {
        let sys = random_system(8, 2, 1, 3);
        for (kappa_l, kappa_r) in [(vec![0, 1], vec![0, 1]), (vec![1], vec![0])] {
            let support = support_of(&sys.a, &kappa_l, &kappa_r);
            let (first_1, last_1) = inverse_block_columns(&sys.a, &support, 1);
            for p in [2usize, 4, 8] {
                let (first, last) = inverse_block_columns(&sys.a, &support, p);
                assert!(first.max_diff(&first_1) < 1e-8, "p={p}: {:.2e}", first.max_diff(&first_1));
                assert!(last.max_diff(&last_1) < 1e-8, "p={p}: {:.2e}", last.max_diff(&last_1));
            }
        }
    }

    #[test]
    fn merged_corners_are_the_corners_of_the_dense_inverse() {
        let mut sys = random_system(7, 3, 1, 5);
        // A coupling on part of the block, so the corners facing a
        // neighbour partition are narrower than the block too.
        for i in 0..6 {
            sys.a.upper[i] =
                ZMat::from_fn(
                    3,
                    3,
                    |r, c| {
                        if r == 2 {
                            sys.a.upper[i][(r, c)]
                        } else {
                            Complex64::ZERO
                        }
                    },
                );
        }
        let inv = lu_inverse(&sys.a.to_dense()).unwrap();
        for (kappa_l, kappa_r) in [(vec![0, 1, 2], vec![0, 1, 2]), (vec![0, 2], vec![1])] {
            let (ws, support) = (Workspace::new(), support_of(&sys.a, &kappa_l, &kappa_r));
            let ctx = Ctx { chain: &sys.a, support: &support, rt: None, ws: &ws, s: 3 };
            for p in [1usize, 2, 4] {
                let (root, _) = factor(&ctx, p).unwrap();
                for (g, (r0, c0, kappa)) in root.corners().into_iter().zip([
                    (0, 0, &kappa_l),
                    (0, 18, &kappa_r),
                    (18, 0, &kappa_l),
                    (18, 18, &kappa_r),
                ]) {
                    // The corner is carried on its reader's columns only.
                    assert_eq!((g.rows(), g.cols()), (3, kappa.len()), "p={p} ({r0},{c0})");
                    let want = columns(&inv.block(r0, c0, 3, 3), kappa);
                    assert!(g.max_diff(&want) < 1e-10, "p={p} corner ({r0},{c0}) on {kappa:?}");
                }
            }
        }
    }

    #[test]
    fn full_solve_matches_dense_for_all_partition_counts() {
        let sys = random_system(8, 3, 2, 7);
        let x_ref = zgesv(&sys.t_dense(), &sys.b_dense()).unwrap();
        for p in [1usize, 2, 4] {
            let (x, report) = SplitSolve::new(p).solve(&sys, None).unwrap();
            assert!(x.max_diff(&x_ref) < 1e-8, "p={p}: {:.2e}", x.max_diff(&x_ref));
            assert_eq!((report.partitions, report.spike_levels), (p, p.trailing_zeros() as usize));
            assert!(report.flops > 0);
        }
    }

    #[test]
    fn the_report_says_what_ran_not_what_was_asked_for() {
        // Four partitions requested of a two-block chain: two ran, merged
        // in one level; of a three-block chain: three ran, in two levels.
        for (nb, ran, levels) in [(2, 2, 1), (3, 3, 2), (1, 1, 0)] {
            let sys = random_system(nb, 3, 1, 41);
            let (x, report) = SplitSolve::new(4).solve(&sys, None).unwrap();
            assert!(sys.residual(&x) < 1e-9);
            assert_eq!((report.partitions, report.spike_levels), (ran, levels), "nb={nb}");
        }
    }

    #[test]
    fn residual_is_small() {
        let sys = random_system(6, 4, 3, 13);
        let (x, _) = SplitSolve::new(2).solve(&sys, None).unwrap();
        assert!(sys.residual(&x) < 1e-9, "residual {:.2e}", sys.residual(&x));
    }

    #[test]
    fn uneven_partition_sizes_work() {
        // 7 blocks over 4 partitions → sizes 1/2/2/2.
        let sys = random_system(7, 2, 1, 17);
        let x_ref = zgesv(&sys.t_dense(), &sys.b_dense()).unwrap();
        let (x, _) = SplitSolve::new(4).solve(&sys, None).unwrap();
        assert!(x.max_diff(&x_ref) < 1e-8);
    }

    #[test]
    fn boundary_terms_outside_the_contact_rows_are_refused() {
        // One entry of Σ, then of Inj, on a row the contact set excludes:
        // a typed error naming the term and the row — never a silently
        // dropped entry.
        let sys = random_system(4, 3, 2, 19);
        let on_row_0 = |m: &ZMat| {
            ZMat::from_fn(
                m.rows(),
                m.cols(),
                |r, c| if r == 0 { m[(r, c)] } else { Complex64::ZERO },
            )
        };
        let (sigma_l, sigma_r) = (on_row_0(&sys.sigma_l), on_row_0(&sys.sigma_r));
        let (rhs_top, rhs_bottom) = (on_row_0(&sys.rhs_top), on_row_0(&sys.rhs_bottom));
        let support = support_of(&sys.a, &[0], &[0]);
        let ws = Workspace::new();
        let solve = |sigma_l: &ZMat, sigma_r: &ZMat, rhs_top: &ZMat, rhs_bottom: &ZMat| {
            let boundary = BoundaryTerms { sigma_l, sigma_r, rhs_top, rhs_bottom };
            SplitSolve::new(2).solve_chain_ws(&sys.a, &support, &boundary, None, &ws).map(|r| r.0)
        };
        let inside = solve(&sigma_l, &sigma_r, &rhs_top, &rhs_bottom).unwrap();
        let full = ObcSystem {
            sigma_l: sigma_l.clone(),
            sigma_r: sigma_r.clone(),
            rhs_top: rhs_top.clone(),
            rhs_bottom: rhs_bottom.clone(),
            ..sys.clone()
        };
        assert!(full.residual(&inside) < 1e-9);
        let stray = |m: &ZMat, r: usize, c: usize| {
            let mut m = m.clone();
            m[(r, c)] = c64(1e-300, 0.0);
            m
        };
        for (what, row, got) in [
            ("left self-energy", 2, solve(&stray(&sigma_l, 2, 1), &sigma_r, &rhs_top, &rhs_bottom)),
            (
                "right self-energy",
                1,
                solve(&sigma_l, &stray(&sigma_r, 1, 0), &rhs_top, &rhs_bottom),
            ),
            ("left injection", 1, solve(&sigma_l, &sigma_r, &stray(&rhs_top, 1, 1), &rhs_bottom)),
            ("right injection", 2, solve(&sigma_l, &sigma_r, &rhs_top, &stray(&rhs_bottom, 2, 0))),
        ] {
            assert_eq!(got.unwrap_err(), SolveError::OutsideContact { what, row });
        }
    }

    #[test]
    fn accel_runtime_traces_phases() {
        let sys = random_system(8, 3, 2, 23);
        let rt = AccelRuntime::new(4, GpuSpec::k20x());
        let (x, report) = SplitSolve::new(2).solve(&sys, Some(&rt)).unwrap();
        let x_ref = zgesv(&sys.t_dense(), &sys.b_dense()).unwrap();
        assert!(x.max_diff(&x_ref) < 1e-8);
        assert!(report.virtual_seconds > 0.0);
        let traces = rt.traces();
        assert!(traces.iter().any(|t| t.label == "zgemm"));
        assert!(traces.iter().any(|t| t.label == "zgesv_nopiv"));
        assert!(traces.iter().any(|t| t.label == "H-to-D"), "A upload recorded");
        // All four devices did compute work.
        for d in 0..4 {
            assert!(traces.iter().any(|t| t.device == d && t.flops > 0), "device {d} idle");
        }
        // The devices are charged what really ran: the kernels' own count.
        assert_eq!(rt.total_flops(), report.flops);
    }

    #[test]
    fn more_partitions_cost_more_flops_spike_overhead() {
        // The weak-scaling efficiency drop of Fig. 7(a) comes from the
        // extra spike work: verify the FLOP count grows with partitions.
        let sys = random_system(16, 3, 1, 31);
        let f = |p: usize| SplitSolve::new(p).solve(&sys, None).unwrap().1.flops;
        let (f1, f4) = (f(1), f(4));
        assert!(f4 > f1, "spikes add work: {f4} vs {f1}");
    }

    #[test]
    fn report_counts_this_solve_only() {
        // A neighbour hammering gemms on another thread (the second worker
        // of a sweep) must not show up in the report, whether or not the
        // partition sweeps fan out (s = 40 does, s = 3 does not).
        for (nb, s) in [(6, 3), (8, 40)] {
            let sys = random_system(nb, s, 2, 37);
            let solo = SplitSolve::new(2).solve(&sys, None).unwrap().1.flops;
            let (started_tx, started_rx) = std::sync::mpsc::channel();
            let (stop_tx, stop_rx) = std::sync::mpsc::channel::<()>();
            std::thread::scope(|scope| {
                scope.spawn(move || {
                    let (a, b) = (ZMat::random(32, 32, 1), ZMat::random(32, 32, 2));
                    let mut announced = false;
                    while stop_rx.try_recv() == Err(std::sync::mpsc::TryRecvError::Empty) {
                        let _ = matmul(&a, &b);
                        if !announced {
                            started_tx.send(()).unwrap();
                            announced = true;
                        }
                    }
                });
                started_rx.recv().unwrap();
                let beside = SplitSolve::new(2).solve(&sys, None).unwrap().1.flops;
                stop_tx.send(()).unwrap();
                assert_eq!(beside, solo, "nb={nb} s={s}");
            });
        }
    }

    #[test]
    #[should_panic(expected = "partitions must be 2^k")]
    fn rejects_non_power_of_two() {
        let _ = SplitSolve::new(3);
    }
}
