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
//! where `Q` is made of the first and last block columns of `G = A⁻¹`.
//! Those columns are `2·n_b` dense `s × s` blocks, but the scheme only
//! ever *reads* the four corner blocks `G_00, G_0N, G_N0, G_NN` (to build
//! `R = 1 − C·Q` and `C·Q·b′`) and only ever *applies* the columns to the
//! `m` injection vectors. So `Q` stays factored:
//!
//! 1. **Step 1** (preprocessing, independent of `Σ^RB` and `Inj`): per
//!    partition, two mirrored elimination sweeps — Fig. 6's "two
//!    independent sweeps per partition". The right-connected sweep
//!    (`D̃_i = D_i − U_i·D̃_{i+1}⁻¹·L_i`, for the first block column) and
//!    the left-connected one (`D̃_i = D_i − L_{i−1}·D̃_{i−1}⁻¹·U_{i−1}`,
//!    for the last) factor every pivot block once with pivoted LU and
//!    keep only the thin multipliers `X̂_i = D̃_i⁻¹·L_{i−1}[:, C_l]` /
//!    `Ŷ_i = D̃_i⁻¹·U_i[:, C_u]` on the structural column support of the
//!    coupling ([`CouplingSupport`]); the Schur update touches
//!    `U_i[R_u, C_u]·X̂_{i+1}[C_u, :]` only. `G_{i,0} = −X̂_i·G_{i−1,0}[C_l, :]`
//!    then gives the far corner from the head inverse through a
//!    `|C| × |C| × s` row-restricted chain. Partitions are merged
//!    SPIKE-style on their corner blocks alone: one `|C_l| × |C_l|` tip
//!    system and a few `s × |C| × s` products per level, whatever the
//!    partition length.
//! 2. **Steps 2–3**: `R` and `C·Q·b′` from the root's corner blocks,
//!    restricted to the rows `Σ^RB` really occupies; one small solve.
//! 3. **Step 4**: `Q·(b′ + z)` walks the merge tree top-down — each node
//!    turns the panels entering its first and last rows into the panels
//!    entering its children's — and every leaf finishes with one `m`-wide
//!    panel sweep per column, `x_i = −X̂_i·x_{i−1}[C_l, :]`.
//!
//! A dense coupling is the same code at full width. The chain is read
//! through [`BlockChain`], so the pencil `(E + iη)·S − H` streams in block
//! by block and `A` is never assembled. See `docs/solver.md` for the
//! ledger.

use crate::error::{SolveError, SolveOutcome};
use crate::system::ObcSystem;
use qtx_accel::{AccelRuntime, KernelClass};
use qtx_linalg::flops::counts;
use qtx_linalg::{
    fault, gemm_into, lu_factor_owned_ws, Complex64, FlopScope, LuFactors, Op, Workspace, ZMat,
    ZMatRef,
};
use qtx_sparse::{BlockChain, BlockSupport, CouplingSupport};
use rayon::prelude::*;
use std::ops::Range;

/// Name this kernel reports in [`SolveError::NonFinite`].
const SOLVER: &str = "splitsolve";

/// Estimated work below which independent sweeps run one after the other
/// on the calling thread: a thread hand-off costs tens of microseconds,
/// about what one sweep of this size takes.
const FAN_OUT_MIN_FLOPS: u64 = 8_000_000;

/// Whether sweeps of `flops_each` estimated operations go to threads — the
/// one fan-out rule of this crate (SplitSolve's partition sweeps, the
/// Caroli kernel's two fronts).
pub(crate) fn fans_out(flops_each: u64) -> bool {
    flops_each >= FAN_OUT_MIN_FLOPS
}

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
    /// Number of SPIKE merge levels (log₂ partitions).
    pub spike_levels: usize,
}

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

impl SplitSolve {
    /// Creates a solver over `partitions` partitions (power of two).
    pub fn new(partitions: usize) -> Self {
        assert!(partitions >= 1 && partitions.is_power_of_two(), "partitions must be 2^k");
        SplitSolve { partitions }
    }

    /// The solver a request for `requested` partitions runs as on a chain
    /// of `nb` blocks: the largest power of two that is at most
    /// `requested` and leaves room for the merge (half the chain length,
    /// rounded up to a power of two), and at least one.
    pub fn for_chain(requested: usize, nb: usize) -> Self {
        let p = requested.min(nb.next_power_of_two() / 2).max(1);
        let p = if p.is_power_of_two() { p } else { 1 };
        SplitSolve::new(p.min(nb.max(1)))
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
    /// allocate nothing. The coupling supports are derived from `sys.a`;
    /// a caller that sweeps energies over one device computes them once
    /// and calls [`SplitSolve::solve_chain_ws`].
    pub fn solve_ws(
        &self,
        sys: &ObcSystem,
        rt: Option<&AccelRuntime>,
        ws: &Workspace,
    ) -> SolveOutcome<(ZMat, SplitSolveReport)> {
        // A factored Σ is expanded here: the wave-function path applies it
        // to dense blocks (the Caroli sweep is the one that keeps factors).
        let (sigma_l, sigma_r) = (sys.sigma_l.dense(), sys.sigma_r.dense());
        let boundary = BoundaryTerms {
            sigma_l: &sigma_l,
            sigma_r: &sigma_r,
            rhs_top: &sys.rhs_top,
            rhs_bottom: &sys.rhs_bottom,
        };
        self.solve_chain_ws(&sys.a, &sys.a.coupling_support(), &boundary, rt, ws)
    }

    /// Eq. 5 on a streamed chain: `chain` is `A` read block by block (an
    /// assembled [`qtx_sparse::Btd`] or the pencil `z·S − H`, bit for bit
    /// the same result), `support` its coupling supports
    /// ([`BlockChain::coupling_support`], energy-independent for a
    /// pencil).
    pub fn solve_chain_ws<C: BlockChain + Sync>(
        &self,
        chain: &C,
        support: &[CouplingSupport],
        boundary: &BoundaryTerms<'_>,
        rt: Option<&AccelRuntime>,
        ws: &Workspace,
    ) -> SolveOutcome<(ZMat, SplitSolveReport)> {
        let (nb, s) = (chain.num_blocks(), chain.block_size());
        assert!(nb >= 1, "a chain has at least one block");
        assert_eq!(support.len() + 1, nb, "one coupling support per adjacent block pair");
        for sigma in [boundary.sigma_l, boundary.sigma_r] {
            assert_eq!((sigma.rows(), sigma.cols()), (s, s), "self-energy / block size mismatch");
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
        let (mut root, step1_flops) = self.factor(&ctx)?;
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
            spike_levels: self.partitions.trailing_zeros() as usize,
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

    /// Step 1 — preprocessing, independent of Σ and Inj: the partition
    /// sweeps (phases P1–P4 of Fig. 6: the first-column sweep of partition
    /// `k` on device `2k`, the last-column sweep on `2k + 1`) and the
    /// recursive SPIKE merge. Returns the merge tree and the operations
    /// spent, summed over the threads the sweeps ran on.
    fn factor<C: BlockChain + Sync>(&self, ctx: &Ctx<'_, C>) -> SolveOutcome<(Node, u64)> {
        let (nb, s, rt, ws) = (ctx.chain.num_blocks(), ctx.s, ctx.rt, ctx.ws);
        let p = self.partitions.min(nb);
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
        let estimate: u64 = sweeps.iter().map(|sw| sw.estimated_flops(ctx)).sum();
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
        // Recursive SPIKE merge: log₂ p levels of constant work each, on
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
}

/// What every phase of one solve shares.
struct Ctx<'a, C> {
    chain: &'a C,
    support: &'a [CouplingSupport],
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

    /// Pooled copy of `src[rows, cols]`.
    fn gather(&self, src: &ZMat, rows: &[usize], cols: &[usize]) -> ZMat {
        let mut out = self.ws.take_scratch(rows.len(), cols.len());
        for (j, &c) in cols.iter().enumerate() {
            for (d, &r) in out.col_mut(j).iter_mut().zip(rows) {
                *d = src.col(c)[r];
            }
        }
        out
    }

    /// Pooled copy of `src[rows, :]`.
    fn rows_of(&self, src: &ZMat, rows: &[usize]) -> ZMat {
        let mut out = self.ws.take_scratch(rows.len(), src.cols());
        gather_rows_into(&mut out, src.view(), rows);
        out
    }

    /// Pooled copy of `src[:, cols]`.
    fn cols_of(&self, src: &ZMat, cols: &[usize]) -> ZMat {
        let mut out = self.ws.take_scratch(src.rows(), cols.len());
        for (j, &c) in cols.iter().enumerate() {
            out.col_mut(j).copy_from_slice(src.col(c));
        }
        out
    }
}

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
        &self.column.sides(&ctx.support[self.pair(k)]).1.cols
    }
}

/// One elimination sweep over a partition and what it leaves behind: the
/// factored form of one block column of the partition's inverse. With
/// `M_k = D̃_k⁻¹·Outer_k[:, C_k]` the column's block at position `k` is
/// `−M_k` times rows `C_k` of its block at position `k + 1`.
struct Sweep {
    span: Span,
    /// Virtual accelerator charged with this sweep.
    dev: usize,
    /// The multipliers `M_0 … M_{n−2}` side by side; `M_k` occupies
    /// columns `offs[k]..offs[k + 1]`.
    mult: ZMat,
    offs: Vec<usize>,
    /// `D̃_head⁻¹`: the column's corner block on the head's side.
    near: ZMat,
    /// The column's corner block at the other end of the partition.
    far: ZMat,
    /// Pivot block and three gather/product buffers, `s²` entries each.
    d: ZMat,
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
        let mut offs = vec![0];
        for k in 0..span.len() - 1 {
            offs.push(offs[k] + span.cols(ctx, k).len());
        }
        Sweep {
            mult: ctx.ws.take_scratch(s, offs[span.len() - 1]),
            span,
            dev,
            offs,
            near: ctx.ws.take_scratch(s, s),
            far: ctx.ws.take_scratch(s, s),
            d: ctx.ws.take_scratch(s, s),
            tmp: std::array::from_fn(|_| ctx.ws.take_scratch(s, s)),
        }
    }

    /// Factorization and multiplier work of the sweep, for the fan-out
    /// decision.
    fn estimated_flops<C>(&self, ctx: &Ctx<'_, C>) -> u64 {
        let n = self.span.len();
        n as u64 * counts::zgetrf(ctx.s) + counts::zgetrs(ctx.s, self.offs[n - 1] + ctx.s)
    }

    /// Runs the sweep and returns the operations it executed (counted on
    /// the thread it ran on).
    fn run<C: BlockChain>(&mut self, ctx: &Ctx<'_, C>) -> SolveOutcome<u64> {
        let scope = FlopScope::start();
        let Sweep { span, dev, mult, offs, near, far, d, tmp: [u, z, y] } = self;
        let (s, n, dev, column) = (ctx.s, span.len(), *dev, span.column);
        let (one, zero) = (Complex64::ONE, Complex64::ZERO);
        for k in 0..n {
            reshape(d, s, s);
            ctx.chain.diag_into(span.block(k), d);
            if k > 0 {
                // D̃_k = D_k − Inner[R, C]·M_{k−1}[C, :], on the supports.
                let pair = span.pair(k - 1);
                let (inner, outer) = column.sides(&ctx.support[pair]);
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
                let outer = column.sides(&ctx.support[pair]).1;
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
                near.as_mut_slice().fill(zero);
                for i in 0..s {
                    near[(i, i)] = one;
                }
                f.solve_in_place(near);
                s
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
                reshape(y, rows.len(), s);
                gemm_into(-one, u.view(), Op::None, z.view(), Op::None, zero, y.view_mut());
                ctx.account(dev, KernelClass::Gemm, counts::zgemm(rows.len(), s, z.rows()));
                std::mem::swap(z, y);
            }
            let m0 = multiplier(mult, offs, 0);
            gemm_into(-one, m0, Op::None, z.view(), Op::None, zero, far.view_mut());
            ctx.account(dev, KernelClass::Gemm, counts::zgemm(s, s, z.rows()));
        }
        Ok(scope.elapsed())
    }

    /// Adds this column applied to the panel `w` (entering the head block
    /// row) to the partition's rows of `x`.
    fn apply<C>(&mut self, ctx: &Ctx<'_, C>, w: &ZMat, x: &mut ZMat) {
        let Sweep { span, dev, mult, offs, near, tmp: [z, ..], .. } = self;
        let (s, n, m) = (ctx.s, span.len(), w.cols());
        let mut v = ctx.product(Complex64::ONE, near.view(), w.view());
        let mut next = ctx.ws.take_scratch(s, m);
        ctx.account(*dev, KernelClass::Gemm, counts::zgemm(s, m, s));
        for k in (0..n).rev() {
            if k + 1 < n {
                let cols = span.cols(ctx, k);
                gather_rows_into(z, v.view(), cols);
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
        ctx.ws.recycle(v);
        ctx.ws.recycle(next);
    }

    fn recycle(self, ws: &Workspace) {
        let Sweep { mult, near, far, d, tmp, .. } = self;
        for m in [mult, near, far, d].into_iter().chain(tmp) {
            ws.recycle(m);
        }
    }
}

/// Corner blocks `[G_00, G_0N, G_N0, G_NN]` of a (sub-)chain inverse.
type Corners<'a> = [&'a ZMat; 4];

/// The SPIKE merge tree over the partitions.
enum Node {
    Leaf { first: Sweep, last: Sweep },
    Merged { left: Box<Node>, right: Box<Node>, tip: Tip, corners: [ZMat; 4] },
}

/// The interface between two merged sub-chains `a` (left) and `c`
/// (right), coupled by `U = A_{e,e+1}` (support `R_u × C_u`) and
/// `L = A_{e+1,e}` (support `R_l × C_l`). With `ξ` rows `C_l` of the
/// solution's last block in `a` and `η` rows `C_u` of its first block in
/// `c`, a right-hand side `w_t` / `w_b` entering the merged chain's first
/// / last block row gives
///
/// ```text
/// (1 − P·Q)·ξ = a_N0[C_l, :]·w_t − P·c_0N[C_u, :]·w_b
///           η = c_0N[C_u, :]·w_b − Q·ξ
/// P = a_NN[C_l, R_u]·U[R_u, C_u],   Q = c_00[C_u, R_l]·L[R_l, C_l]
/// ```
///
/// and the children see `−U·η` entering `a`'s last block row and `−L·ξ`
/// entering `c`'s first.
struct Tip {
    /// Coupling pair `e` and the device charged with the merge.
    pair: usize,
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
    /// coupling's support and four `s × |support| × s` products,
    /// whatever the sub-chains' lengths.
    fn merge<C: BlockChain>(ctx: &Ctx<'_, C>, left: Node, right: Node) -> SolveOutcome<Node> {
        let (s, ws) = (ctx.s, ctx.ws);
        let pair = left.blocks().end - 1;
        let dev = (2 * left.blocks().start) % ctx.rt.map_or(1, AccelRuntime::len);
        let CouplingSupport { upper: up, lower: lo } = &ctx.support[pair];
        let [a_00, a_0n, a_n0, a_nn] = left.corners();
        let [c_00, c_0n, c_n0, c_nn] = right.corners();
        let (kl, ku) = (lo.cols.len(), up.cols.len());
        let one = Complex64::ONE;

        let mut u = ws.take_scratch(up.rows.len(), ku);
        ctx.chain.upper_on(pair, up, &mut u);
        let mut l = ws.take_scratch(lo.rows.len(), kl);
        ctx.chain.lower_on(pair, lo, &mut l);
        let a_tip = ctx.gather(a_nn, &lo.cols, &up.rows);
        let p = ctx.product(one, a_tip.view(), u.view());
        ws.recycle(a_tip);
        let c_tip = ctx.gather(c_00, &up.cols, &lo.rows);
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
        let tip = Tip { pair, dev, p, q, lu, a_n0: a_n0_rows, c_0n: c_0n_rows, u, l };

        // Both block columns at once: the panel [1 | 0] enters the first
        // block row, [0 | 1] the last, so `a_N0[C_l, :]·w_t = [a_N0 | 0]`
        // and `c_0N[C_u, :]·w_b = [0 | c_0N]`.
        let mut from_top = ws.take(kl, 2 * s);
        from_top.set_block(0, 0, &tip.a_n0);
        let mut from_bot = ws.take(ku, 2 * s);
        from_bot.set_block(0, s, &tip.c_0n);
        let (xi, eta) = tip.solve(ctx, from_top, from_bot);
        let u_eta = ctx.product(one, tip.u.view(), eta.view());
        let l_xi = ctx.product(one, tip.l.view(), xi.view());
        ws.recycle(xi);
        ws.recycle(eta);
        // [G_00 | G_0N] = [a_00 | 0] − a_0N[:, R_u]·U·η and
        // [G_N0 | G_NN] = [0 | c_NN] − c_N0[:, R_l]·L·ξ.
        let a_cols = ctx.cols_of(a_0n, &up.rows);
        let c_cols = ctx.cols_of(c_n0, &lo.rows);
        let corner = |cols: &ZMat, prod: &ZMat, j0: usize, base: Option<&ZMat>| -> ZMat {
            let mut g = match base {
                Some(b) => ws.copy_of(b),
                None => ws.take(s, s),
            };
            gemm_into(
                -one,
                cols.view(),
                Op::None,
                prod.block_view(0, j0, prod.rows(), s),
                Op::None,
                one,
                g.view_mut(),
            );
            g
        };
        let corners = [
            corner(&a_cols, &u_eta, 0, Some(a_00)),
            corner(&a_cols, &u_eta, s, None),
            corner(&c_cols, &l_xi, 0, None),
            corner(&c_cols, &l_xi, s, Some(c_nn)),
        ];
        ctx.account(
            dev,
            KernelClass::Gemm,
            counts::zgemm(up.rows.len(), 2 * s, ku)
                + counts::zgemm(lo.rows.len(), 2 * s, kl)
                + 2 * counts::zgemm(s, s, up.rows.len())
                + 2 * counts::zgemm(s, s, lo.rows.len()),
        );
        if let Some(rt) = ctx.rt {
            rt.account_overlapped(dev, KernelClass::D2D, (4 * s * s * 16) as u64);
        }
        for m in [u_eta, l_xi, a_cols, c_cols] {
            ws.recycle(m);
        }
        Ok(Node::Merged { left: Box::new(left), right: Box::new(right), tip, corners })
    }

    /// Step 4: adds the solution of `A_node·x = e_first·w_top + e_last·w_bot`
    /// to the node's rows of `x` (panels consumed).
    fn apply<C: BlockChain>(&mut self, ctx: &Ctx<'_, C>, w_top: ZMat, w_bot: ZMat, x: &mut ZMat) {
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
                let CouplingSupport { upper: up, lower: lo } = &ctx.support[tip.pair];
                let from_top = ctx.product(one, tip.a_n0.view(), w_top.view());
                let from_bot = ctx.product(one, tip.c_0n.view(), w_bot.view());
                let (xi, eta) = tip.solve(ctx, from_top, from_bot);
                // −U·η enters the left child's last block row, −L·ξ the
                // right child's first.
                let scatter = |block: &ZMat, inner: &ZMat, rows: &[usize]| -> ZMat {
                    let prod = ctx.product(-one, block.view(), inner.view());
                    let mut w = ws.take(ctx.s, prod.cols());
                    for j in 0..prod.cols() {
                        for (p, &r) in rows.iter().enumerate() {
                            w[(r, j)] = prod[(p, j)];
                        }
                    }
                    ws.recycle(prod);
                    w
                };
                let left_bot = scatter(&tip.u, &eta, &up.rows);
                let right_top = scatter(&tip.l, &xi, &lo.rows);
                let m = w_top.cols();
                ctx.account(
                    tip.dev,
                    KernelClass::Gemm,
                    counts::zgemm(lo.cols.len(), m, ctx.s)
                        + counts::zgemm(up.cols.len(), m, ctx.s)
                        + counts::zgemm(up.rows.len(), m, up.cols.len())
                        + counts::zgemm(lo.rows.len(), m, lo.cols.len()),
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

/// Steps 2–3: the panels `b′ + z` entering the first and last block rows,
/// from the root's corner blocks.
///
/// `Σ^RB = B·C` with `B` the unit columns of the rows `ρ` the
/// self-energies occupy and `C = Σ[ρ, :]`, so `R = 1 − C·G·B` has one row
/// per occupied row of `Σ_L` and `Σ_R` — `2s` at most, fewer when the
/// leads couple through part of a slab only.
fn woodbury_panels<C>(
    ctx: &Ctx<'_, C>,
    [g_00, g_0n, g_n0, g_nn]: Corners<'_>,
    boundary: &BoundaryTerms<'_>,
) -> SolveOutcome<(ZMat, ZMat)> {
    let (s, ws) = (ctx.s, ctx.ws);
    let one = Complex64::ONE;
    let (m_l, m_r) = (boundary.rhs_top.cols(), boundary.rhs_bottom.cols());
    let m = m_l + m_r;
    let rho_l = BlockSupport::of(&[boundary.sigma_l]).rows;
    let rho_r = BlockSupport::of(&[boundary.sigma_r]).rows;
    let (k_l, k_r) = (rho_l.len(), rho_r.len());
    let c_l = ctx.rows_of(boundary.sigma_l, &rho_l);
    let c_r = ctx.rows_of(boundary.sigma_r, &rho_r);

    // y = G·b at the boundary blocks: left-injected columns first.
    let mut y_0 = ws.take_scratch(s, m);
    let mut y_n = ws.take_scratch(s, m);
    for (y, from_top, from_bot) in [(&mut y_0, g_00, g_0n), (&mut y_n, g_n0, g_nn)] {
        for (g, rhs, j0) in [(from_top, boundary.rhs_top, 0), (from_bot, boundary.rhs_bottom, m_l)]
        {
            let out = y.block_view_mut(0, j0, s, rhs.cols());
            gemm_into(one, g.view(), Op::None, rhs.view(), Op::None, Complex64::ZERO, out);
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
        for (g, rho, c0) in [(g_left, &rho_l, 0), (g_right, &rho_r, k_l)] {
            let g_cols = ctx.cols_of(g, rho);
            let out = r.block_view_mut(r0, c0, k, rho.len());
            gemm_into(-one, c.view(), Op::None, g_cols.view(), Op::None, one, out);
            ws.recycle(g_cols);
        }
    }
    ws.recycle(y_0);
    ws.recycle(y_n);
    ws.recycle(c_l);
    ws.recycle(c_r);
    // R·z = C·y — "a system of comparably small size", on the two
    // boundary devices.
    ctx.account(
        0,
        KernelClass::Gemm,
        2 * counts::zgemm(s, m, s) + counts::zgemm(k_l + k_r, m + k_l + k_r, s),
    );
    ctx.account(0, KernelClass::Solve, counts::zgetrf(k_l + k_r) + counts::zgetrs(k_l + k_r, m));
    if let Some(rt) = ctx.rt {
        rt.account_overlapped(0, KernelClass::D2D, ((k_l + k_r) * m * 16) as u64);
    }
    let lu = match lu_factor_owned_ws(r, ws) {
        Ok(lu) => lu,
        Err(e) => {
            ws.recycle(z);
            return Err(e.into());
        }
    };
    lu.solve_in_place(&mut z);
    lu.recycle_into(ws);
    // b′ + z, with z scattered back to the rows it lives on.
    let mut w_top = ws.take(s, m);
    let mut w_bot = ws.take(s, m);
    w_top.set_block(0, 0, boundary.rhs_top);
    w_bot.set_block(0, m_l, boundary.rhs_bottom);
    for j in 0..m {
        for (i, &r) in rho_l.iter().enumerate() {
            w_top[(r, j)] += z[(i, j)];
        }
        for (i, &r) in rho_r.iter().enumerate() {
            w_bot[(r, j)] += z[(k_l + i, j)];
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
            sigma_l: ZMat::random(s, s, seed + 300).scaled(c64(0.3, 0.1)).into(),
            sigma_r: ZMat::random(s, s, seed + 301).scaled(c64(0.3, -0.1)).into(),
            rhs_top: ZMat::random(s, m, seed + 400),
            rhs_bottom: ZMat::random(s, m, seed + 401),
        }
    }

    /// First and last block columns of `A⁻¹` through Step 1 and the Step 4
    /// walk: the unit panel enters the first (last) block row.
    fn inverse_block_columns(a: &Btd, partitions: usize) -> (ZMat, ZMat) {
        let (ws, s) = (Workspace::new(), a.block_size());
        let support = a.coupling_support();
        let ctx = Ctx { chain: a, support: &support, rt: None, ws: &ws, s };
        let (mut root, _) = SplitSolve::new(partitions).factor(&ctx).unwrap();
        let mut column = |first: bool| {
            let (unit, zero) = (ZMat::identity(s), ZMat::zeros(s, s));
            let mut x = ZMat::zeros(a.dim(), s);
            let (top, bot) = if first { (unit, zero) } else { (zero, unit) };
            root.apply(&ctx, top, bot, &mut x);
            x
        };
        (column(true), column(false))
    }

    #[test]
    fn single_partition_matches_dense_inverse_columns() {
        let sys = random_system(5, 3, 1, 1);
        let (first, last) = inverse_block_columns(&sys.a, 1);
        let inv = lu_inverse(&sys.a.to_dense()).unwrap();
        assert!(first.max_diff(&inv.block(0, 0, 15, 3)) < 1e-9, "first block column");
        assert!(last.max_diff(&inv.block(0, 12, 15, 3)) < 1e-9, "last block column");
    }

    #[test]
    fn spike_merge_matches_single_partition() {
        let sys = random_system(8, 2, 1, 3);
        let (first_1, last_1) = inverse_block_columns(&sys.a, 1);
        for p in [2usize, 4, 8] {
            let (first, last) = inverse_block_columns(&sys.a, p);
            assert!(first.max_diff(&first_1) < 1e-8, "p={p}: {:.2e}", first.max_diff(&first_1));
            assert!(last.max_diff(&last_1) < 1e-8, "p={p}: {:.2e}", last.max_diff(&last_1));
        }
    }

    #[test]
    fn merged_corners_are_the_corners_of_the_dense_inverse() {
        let sys = random_system(7, 3, 1, 5);
        let (ws, support) = (Workspace::new(), sys.a.coupling_support());
        let ctx = Ctx { chain: &sys.a, support: &support, rt: None, ws: &ws, s: 3 };
        let inv = lu_inverse(&sys.a.to_dense()).unwrap();
        for p in [1usize, 2, 4] {
            let (root, _) = SplitSolve::new(p).factor(&ctx).unwrap();
            for (g, (r0, c0)) in
                root.corners().into_iter().zip([(0, 0), (0, 18), (18, 0), (18, 18)])
            {
                assert!(g.max_diff(&inv.block(r0, c0, 3, 3)) < 1e-10, "p={p} corner ({r0},{c0})");
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
            assert_eq!(report.spike_levels, p.trailing_zeros() as usize);
            assert!(report.flops > 0);
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
    fn for_chain_clamps_the_request_to_the_chain() {
        for (requested, nb, expect) in [
            (2, 128, 2),
            (2, 6, 2),
            (2, 3, 2),
            (2, 2, 1),
            (2, 1, 1),
            (8, 5, 4),
            (3, 16, 1),
            (0, 4, 1),
        ] {
            assert_eq!(SplitSolve::for_chain(requested, nb).partitions, expect, "{requested}/{nb}");
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
