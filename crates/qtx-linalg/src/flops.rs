//! Deterministic FLOP accounting.
//!
//! The paper measures CPU FLOPs with PAPI and GPU FLOPs with CUPTI device
//! counters (§5.B), noting that SplitSolve's operation count is
//! deterministic. We reproduce that methodology in software: every kernel
//! in this crate reports its double-precision operation count, and scoped
//! counters ([`FlopScope`]) measure individual phases (e.g. "OBC on CPUs"
//! vs "Eq. 5 on GPUs") exactly the way
//! `PAPI_start_counters`/`PAPI_stop_counters` bracket the production run.
//!
//! # Counter topology
//!
//! Counts accumulate in **two places at once**: a per-thread counter (a
//! plain `Cell`, no synchronization) and the process-wide relaxed atomic
//! total. A [`FlopScope`] started with [`FlopScope::start`] reads the
//! per-thread counter, so its `elapsed()` reports only work executed on
//! the scope's own thread — exactly like PAPI, whose hardware counters
//! are per-core. Concurrent FEAST/Beyn quadrature workers therefore no
//! longer leak their operations into whichever scope happens to be open
//! on another thread, and work a kernel hands to borrowed threads through
//! [`join_counted`] or [`map_counted`] is credited back to the caller's
//! counter, so its scope reads the same inline and fanned out. Phases
//! that *fan out* over worker threads (the
//! SplitSolve partition sweeps, a whole-device makespan) opt into the
//! process-wide total with [`FlopScope::start_process`], mirroring how
//! the paper aggregates per-node counters into machine totals.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static GLOBAL_FLOPS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Operations reported by this thread since it started. `FlopScope`
    /// deltas against this, so the absolute value never needs resetting.
    static THREAD_FLOPS: Cell<u64> = const { Cell::new(0) };
}

/// Adds `n` double-precision operations to this thread's counter and the
/// process-wide total.
#[inline]
pub fn flops_add(n: u64) {
    THREAD_FLOPS.with(|c| c.set(c.get() + n));
    GLOBAL_FLOPS.fetch_add(n, Ordering::Relaxed);
}

/// Estimated work per side below which independent pieces of work run one
/// after the other on the calling thread.
///
/// A fan-out hands work to freshly spawned scoped threads (the `rayon`
/// shim has no standing pool). Measured on the 2-core benchmark VM
/// (Xeon, AVX-512), medians of 2001 calls in five runs: an empty `join`
/// costs 44–72 µs and an ordered map of 24 empty items 65–102 µs, against
/// under 0.1 µs inline. Timing FEAST's two loops both ways (12 node LUs;
/// 24 solves against 8 columns; five runs each), fanning out lost 18 of
/// 20 runs at 0.13–0.52 MF per side (`nf` = 20, 26: 47–250 µs inline,
/// 100–334 µs fanned out), split 5 of 10 at 1.77 MF (`nf` = 48), won 8 of
/// 10 at 3.2–4.2 MF (`nf` = 64) and all 10 at 6.2–11.7 MF (`nf` = 90).
/// The cutoff sits at the tie. The benchmark's loops keep clear of it:
/// FEAST's are 0.13–0.52 MF per side on the `nf` ≤ 26 leads and 6.2–256 MF
/// on the `nf` ≥ 90 ones, and every front and SplitSolve decision the
/// seven workloads made (seed 1, traced and untraced) was 0.15–0.52 MF or
/// 219–1019 MF per side, so none changed when this rule replaced the 8 MF
/// one they ran at before.
pub const FAN_OUT_MIN_FLOPS: u64 = 2_000_000;

/// Whether work of `flops_each` estimated operations per side goes to
/// threads — the one fan-out rule of the library: SplitSolve's partition
/// sweeps, the two fronts of the Caroli kernel and of the wave-function
/// solve, and (through [`map_counted`]) FEAST's and Beyn's quadrature
/// loops. It reads an operation count only, and fanning out never
/// changes a bit of the result, only where it is computed.
pub fn fans_out(flops_each: u64) -> bool {
    flops_each >= FAN_OUT_MIN_FLOPS
}

/// Runs `f`, returning what it counted on this thread and where it ran.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64, std::thread::ThreadId) {
    let scope = FlopScope::start();
    let ran = f();
    (ran, scope.elapsed(), std::thread::current().id())
}

/// Credits to the calling thread the operations a closure executed on a
/// borrowed thread `on` (already in the process-wide total through
/// [`flops_add`]).
fn credit_borrowed(flops: u64, on: std::thread::ThreadId) {
    if on != std::thread::current().id() {
        THREAD_FLOPS.with(|c| c.set(c.get() + flops));
    }
}

/// [`rayon::join`] that keeps the caller's thread-scoped [`FlopScope`]
/// whole: the operations either closure executed on a borrowed thread are
/// credited to the calling thread's counter once both have returned, so a
/// kernel that fans two halves of its work out counts the same inline,
/// fanned out, and whichever half the helper thread took. Callers decide
/// with [`fans_out`] whether to join at all.
pub fn join_counted<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let ((ran_a, flops_a, on_a), (ran_b, flops_b, on_b)) =
        rayon::join(|| counted(a), || counted(b));
    credit_borrowed(flops_a, on_a);
    credit_borrowed(flops_b, on_b);
    (ran_a, ran_b)
}

/// `f(i, &items[i])` for every item, in order, on borrowed threads when
/// half of `flops` — the estimated work of all items together, split two
/// ways like a [`join_counted`] — [`fans_out`], on the calling thread
/// otherwise. Like [`join_counted`] it credits what ran elsewhere to the
/// caller's thread counter, so a thread-scoped [`FlopScope`] reads the
/// same either way; the results come back in item order, so a caller
/// that reduces them in that order gets the same bits either way too.
pub fn map_counted<T, U, F>(items: &[T], flops: u64, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    use rayon::prelude::*;
    if !fans_out(flops / 2) {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let ran: Vec<(U, u64, std::thread::ThreadId)> =
        items.par_iter().enumerate().map(|(i, t)| counted(|| f(i, t))).collect();
    ran.into_iter()
        .map(|(u, flops, on)| {
            credit_borrowed(flops, on);
            u
        })
        .collect()
}

/// Total double-precision operations counted **process-wide** since
/// start/reset (every thread's contributions aggregated).
#[inline]
pub fn flops_total() -> u64 {
    GLOBAL_FLOPS.load(Ordering::Relaxed)
}

/// Operations counted by the **current thread** since it started. Scopes
/// delta against this; it is monotone and never reset.
#[inline]
pub fn flops_thread() -> u64 {
    THREAD_FLOPS.with(|c| c.get())
}

/// Resets the process-wide counter (used between benchmark phases).
/// Per-thread counters are monotone and unaffected — [`FlopScope`] works
/// on deltas, so thread-scoped measurements never need a reset.
#[inline]
pub fn flops_reset() {
    GLOBAL_FLOPS.store(0, Ordering::Relaxed);
}

/// A scoped FLOP measurement: records the counter at construction and
/// reports the delta on [`FlopScope::elapsed`]. Mirrors the PAPI
/// start/stop bracketing of §5.B.
///
/// [`FlopScope::start`] brackets the **current thread only** — work done
/// by concurrently running threads (other quadrature nodes, unrelated
/// phases) is excluded, so per-phase counts stay honest under
/// parallelism. [`FlopScope::start_process`] brackets the process-wide
/// total instead, for phases whose work intentionally fans out over a
/// thread pool.
pub struct FlopScope {
    start: u64,
    process: bool,
}

impl FlopScope {
    /// Starts a thread-scoped measurement: `elapsed()` reports only
    /// operations executed on the calling thread inside the bracket.
    pub fn start() -> Self {
        FlopScope { start: flops_thread(), process: false }
    }

    /// Starts a **process-wide** measurement (explicit opt-in): `elapsed()`
    /// reports operations from every thread, including work the bracketed
    /// phase fans out to rayon workers. Only meaningful when nothing else
    /// runs concurrently — the caller owns that guarantee.
    pub fn start_process() -> Self {
        FlopScope { start: flops_total(), process: true }
    }

    /// Operations executed since the scope started (on this scope's
    /// thread, or process-wide for [`FlopScope::start_process`]).
    pub fn elapsed(&self) -> u64 {
        let now = if self.process { flops_total() } else { flops_thread() };
        now.saturating_sub(self.start)
    }
}

/// Standard operation-count formulas (real FLOPs, complex arithmetic
/// counted as 8 real ops per multiply-add pair, 2 per add).
pub mod counts {
    /// `C ← A·B` for complex matrices: 8·m·n·k real operations.
    #[inline]
    pub fn zgemm(m: usize, n: usize, k: usize) -> u64 {
        8 * (m as u64) * (n as u64) * (k as u64)
    }

    /// Complex LU factorization of an n×n matrix: (8/3)·n³.
    #[inline]
    pub fn zgetrf(n: usize) -> u64 {
        (8 * (n as u64).pow(3)) / 3
    }

    /// Complex triangular solve with `nrhs` right-hand sides: 8·n²·nrhs.
    #[inline]
    pub fn zgetrs(n: usize, nrhs: usize) -> u64 {
        8 * (n as u64).pow(2) * nrhs as u64
    }

    /// One complex triangular solve (`ztrsm`) against an n×n triangle with
    /// `nrhs` right-hand sides: half of [`zgetrs`] (one sweep, not two).
    #[inline]
    pub fn ztrsm(n: usize, nrhs: usize) -> u64 {
        4 * (n as u64).pow(2) * nrhs as u64
    }

    /// `C ← A·B` for real matrices: 2·m·n·k.
    #[inline]
    pub fn dgemm(m: usize, n: usize, k: usize) -> u64 {
        2 * (m as u64) * (n as u64) * (k as u64)
    }

    /// `C ← A·B` for a real `A` and a complex `B`: 4·m·n·k (each real
    /// entry multiplies both planes).
    #[inline]
    pub fn dzgemm(m: usize, n: usize, k: usize) -> u64 {
        4 * (m as u64) * (n as u64) * (k as u64)
    }

    /// Real LU factorization of an n×n matrix: (2/3)·n³.
    #[inline]
    pub fn dgetrf(n: usize) -> u64 {
        (2 * (n as u64).pow(3)) / 3
    }

    /// Real LU solve with `nrhs` right-hand sides: 2·n²·nrhs.
    #[inline]
    pub fn dgetrs(n: usize, nrhs: usize) -> u64 {
        2 * (n as u64).pow(2) * nrhs as u64
    }

    /// One real triangular solve against an n×n triangle with `nrhs`
    /// right-hand sides: n²·nrhs, half of [`dgetrs`].
    #[inline]
    pub fn dtrsm(n: usize, nrhs: usize) -> u64 {
        (n as u64).pow(2) * nrhs as u64
    }

    /// Hermitian rank-k update `C ← α·A·Aᴴ + β·C` for an n×n output:
    /// half of [`zgemm`]`(n, n, k)` — only one triangle is computed.
    #[inline]
    pub fn zherk(n: usize, k: usize) -> u64 {
        4 * (n as u64).pow(2) * k as u64
    }

    /// Householder QR of an m×n matrix: 8·(m·n² − n³/3) complex-op-equivalent.
    #[inline]
    pub fn zgeqrf(m: usize, n: usize) -> u64 {
        let (m, n) = (m as u64, n as u64);
        8 * (m * n * n - n * n * n / 3).max(1)
    }

    /// Applying `Q` (or `Qᴴ`) built from `k` Householder reflectors of
    /// length m to an m×n matrix from the left (`zunmqr`): each reflector
    /// touches the full n columns twice (dot + axpy), shrinking by one row
    /// per step — 8·n·k·(2m − k) real operations. The same formula counts
    /// `zungqr`-style explicit-Q assembly (n columns of the identity).
    #[inline]
    pub fn zunmqr(m: usize, n: usize, k: usize) -> u64 {
        let (m, n, k) = (m as u64, n as u64, k as u64);
        (8 * n * k * (2 * m).saturating_sub(k).max(1)).max(1)
    }

    /// What one coupling pair adds to an elimination front of the Caroli
    /// kernel that carries `w` panel columns: a pivot factorization, a solve
    /// against the `|C_l|` non-zero columns of the coupling below plus the
    /// panel, and the `|R_u| × (|C_l| + w) × |C_u|` product with the
    /// coupling above.
    fn caroli_pair(s: usize, (ru, cu, cl): (usize, usize, usize), w: usize) -> u64 {
        zgetrf(s) + zgetrs(s, cl + w) + zgemm(ru, cl + w, cu)
    }

    /// The first cut `c` of a chain of `couplings.len() + 1 ≥ 2` blocks that
    /// minimizes the larger of two fronts, and what they cost there:
    /// `(c, right, left)`. `pair` prices a coupling pair inside each front
    /// (right, left) and `head` the pair the two heads meet on.
    fn balanced_cut(
        couplings: &[(usize, usize, usize, usize)],
        pair: impl Fn((usize, usize, usize, usize)) -> (u64, u64),
        head: impl Fn((usize, usize, usize, usize)) -> (u64, u64),
    ) -> (usize, u64, u64) {
        let mut right: u64 = couplings.iter().map(|&p| pair(p).0).sum();
        let mut left = 0;
        let mut best = (0, u64::MAX, u64::MAX);
        for (c, &p) in couplings.iter().enumerate() {
            right -= pair(p).0;
            let at_cut = (right + head(p).0, left + head(p).1);
            if at_cut.0.max(at_cut.1) < best.1.max(best.2) {
                best = (c, at_cut.0, at_cut.1);
            }
            left += pair(p).1;
        }
        best
    }

    /// Where the Caroli kernel cuts a chain of `couplings.len() + 1 ≥ 2`
    /// blocks, and what its two fronts cost there: `(c, right, left)`. The
    /// right front eliminates blocks `n−1 … c+1` carrying `wr` columns, the
    /// left front the block-reversed adjoint of blocks `0 … c` (every
    /// coupling seen transposed) carrying `wl`; each ends in a block solved
    /// against the unit columns of the cut pair's support plus its panel.
    /// `c` is the first cut that minimizes the larger front — a function of
    /// the block size, the coupling supports and the panel widths alone.
    pub fn caroli_cut(
        s: usize,
        couplings: &[(usize, usize, usize, usize)],
        wl: usize,
        wr: usize,
    ) -> (usize, u64, u64) {
        balanced_cut(
            couplings,
            |(ru, cu, rl, cl)| (caroli_pair(s, (ru, cu, cl), wr), caroli_pair(s, (cu, ru, rl), wl)),
            |(_, _, rl, cl)| (zgetrf(s) + zgetrs(s, rl + wr), zgetrf(s) + zgetrs(s, cl + wl)),
        )
    }

    /// Where the two-front wave-function solve cuts a chain of
    /// `couplings.len() + 1 ≥ 2` blocks, and what its fronts cost there:
    /// `(c, right, left)`. The right front eliminates blocks `n−1 … c+1`
    /// carrying the `mr` right-injected columns, the left front the
    /// block-reversed (not adjoint) blocks `c … 0` carrying the `ml`
    /// left-injected ones, so a pair's upper coupling is the left front's
    /// lower one. Each head is solved against the coupling across the cut
    /// like any other block (`L_c[:, C_l]`, `U_c[:, C_u]`). Like
    /// [`caroli_cut`], a function of shapes and widths alone.
    pub fn two_front_cut(
        s: usize,
        couplings: &[(usize, usize, usize, usize)],
        ml: usize,
        mr: usize,
    ) -> (usize, u64, u64) {
        balanced_cut(
            couplings,
            |(ru, cu, rl, cl)| (caroli_pair(s, (ru, cu, cl), mr), caroli_pair(s, (rl, cl, cu), ml)),
            |(_, cu, _, cl)| (zgetrf(s) + zgetrs(s, cl + mr), zgetrf(s) + zgetrs(s, cu + ml)),
        )
    }

    /// The two-front wave-function solve (`qtx_solver::two_front_solve`) of
    /// `(A − Σ)·ψ = Inj` on a chain of `s × s` blocks with `ml` left- and
    /// `mr` right-injected columns: both fronts of [`two_front_cut`] (each
    /// block factored once, Σ folded into the end blocks); at the cut pair
    /// the `|C_l| × |C_l|` tip system `1 − X̂′_c[C_l, :]·X̂_{c+1}[C_u, :]`
    /// (one product to build, one factorization, one product for the
    /// right-injected part of its right-hand side, one solve against all
    /// `m = ml + mr` columns); then one `s × m` product a block for the
    /// back-substitution `ψ_i = y_i − X̂_i·ψ_{i∓1}[C, :]` outward from the
    /// cut. A single block is one factorization and one `m`-wide solve.
    pub fn two_front_solve(
        s: usize,
        couplings: &[(usize, usize, usize, usize)],
        ml: usize,
        mr: usize,
    ) -> u64 {
        let m = ml + mr;
        if couplings.is_empty() {
            return zgetrf(s) + zgetrs(s, m);
        }
        let (c, right, left) = two_front_cut(s, couplings, ml, mr);
        let (_, cu, _, cl) = couplings[c];
        let tip = zgemm(cl, cl, cu) + zgemm(cl, mr, cu) + zgetrf(cl) + zgetrs(cl, m);
        let back: u64 = couplings[c..].iter().map(|&(_, _, _, cl)| zgemm(s, m, cl)).sum::<u64>()
            + couplings[..=c].iter().map(|&(_, cu, _, _)| zgemm(s, m, cu)).sum::<u64>();
        right + left + tip + back
    }

    /// One side of the Σ-late two-front solve on a real pencil, from the
    /// contact (block 0) to the cut (the side's last pair, `pairs[t]`),
    /// with every pair seen from this side (`(|R_u|, |C_u|, |R_l|, |C_l|)`
    /// with "upper" pointing away from the contact): the real front on
    /// blocks `t … 1` carrying the `w = |C_u(t)|` cut columns (a `dgetrf`,
    /// a `dgetrs` against `|C_l(i−1)| + w` columns and one Schur product a
    /// block, the last of them into the contact), the complex contact block
    /// (a `zgetrf`, a `zgetrs` against `w + ms`), and the thin sweep that
    /// carries the contact's solve to the cut rows (one real × complex
    /// product a block). Returns the side's flops before the tip system.
    fn late_side(s: usize, pairs: &[(usize, usize, usize, usize)], ms: usize) -> u64 {
        let t = pairs.len() - 1;
        let w = pairs[t].1;
        let front: u64 = (1..=t)
            .map(|i| {
                let (ru, cu, _, kc) = pairs[i - 1];
                dgetrf(s) + dgetrs(s, kc + w) + dgemm(ru, kc + w, cu)
            })
            .sum();
        let sweep: u64 = (1..=t).map(|i| dzgemm(pairs[i].3, w + ms, pairs[i - 1].3)).sum();
        front + zgetrf(s) + zgetrs(s, w + ms) + sweep
    }

    /// The back-substitution of one Σ-late side (as [`late_side`]) on all
    /// `m` columns: the contact block's `zgemm(s, m, w)` and one
    /// `s × (|C_l(i−1)| + w) × m` real × complex product a real block.
    fn late_back(s: usize, pairs: &[(usize, usize, usize, usize)], m: usize) -> u64 {
        let t = pairs.len() - 1;
        let w = pairs[t].1;
        zgemm(s, m, w) + (1..=t).map(|i| dzgemm(s, m, pairs[i - 1].3 + w)).sum::<u64>()
    }

    /// The pairs of a chain seen from its right contact: in reverse order,
    /// upper and lower exchanged.
    fn from_right(pairs: &[(usize, usize, usize, usize)]) -> Vec<(usize, usize, usize, usize)> {
        pairs.iter().rev().map(|&(ru, cu, rl, cl)| (rl, cl, ru, cu)).collect()
    }

    /// The two sides of the Σ-late solve at the cut of [`two_front_cut`]:
    /// `(c, right, left)`, each side priced as the front, contact block and sweep of one Σ-late side (what the
    /// fan-out rule weighs).
    pub fn two_front_late_cut(
        s: usize,
        couplings: &[(usize, usize, usize, usize)],
        ml: usize,
        mr: usize,
    ) -> (usize, u64, u64) {
        let c = two_front_cut(s, couplings, ml, mr).0;
        (c, late_side(s, &from_right(&couplings[c..]), mr), late_side(s, &couplings[..=c], ml))
    }

    /// The two-front wave-function solve on a *real* pencil
    /// (`qtx_solver::two_front_solve` with `Pencil::Real`): Σ enters only
    /// the two contact pivots, so every other pivot is factored and solved
    /// in real arithmetic. Both sides of [`two_front_late_cut`]; the tip
    /// system of [`two_front_solve`] on the cut rows, plus the
    /// `|C_u| × m × |C_l|` product that carries its solution across the
    /// cut; both back-substitutions (the contact's `zgemm(s, m, w)` and one real × complex `s × (|C_l(i−1)| + w) × m` product a real block). A single block is the
    /// complex solve of [`two_front_solve`].
    pub fn two_front_late_solve(
        s: usize,
        couplings: &[(usize, usize, usize, usize)],
        ml: usize,
        mr: usize,
    ) -> u64 {
        let m = ml + mr;
        if couplings.is_empty() {
            return zgetrf(s) + zgetrs(s, m);
        }
        let (c, right, left) = two_front_late_cut(s, couplings, ml, mr);
        let (_, cu, _, cl) = couplings[c];
        let tip = zgemm(cl, cl, cu) + zgemm(cl, mr, cu) + zgetrf(cl) + zgetrs(cl, m);
        let back =
            late_back(s, &from_right(&couplings[c..]), m) + late_back(s, &couplings[..=c], m);
        right + left + tip + zgemm(cu, m, cl) + back
    }

    /// The Σ-late corner (`qtx_solver::two_front_corner` on a real pencil):
    /// `M = P_Lᴴ·G_{0,n−1}·P_R` for the Caroli trace, with `wl`/`wr` the
    /// widths of the broadening factors. The two sides of
    /// [`two_front_late_cut`] with no left-injected column and `P_R` as the
    /// right injection, the tip system of [`two_front_late_solve`] and the
    /// product across the cut at `m = wr`; then only the contact block of
    /// the left side, `ψ₀ = −W₀·ψ_{c+1}[C_u, :]` (`zgemm(s, wr, |C_u|)`),
    /// and `M = P_Lᴴ·ψ₀` — no other back-substitution. A single block is
    /// the Caroli kernel's count, [`caroli_sweep`].
    pub fn two_front_late_corner(
        s: usize,
        couplings: &[(usize, usize, usize, usize)],
        wl: usize,
        wr: usize,
    ) -> u64 {
        if couplings.is_empty() {
            return caroli_sweep(s, couplings, wl, wr);
        }
        let (c, right, left) = two_front_late_cut(s, couplings, 0, wr);
        let (_, cu, _, cl) = couplings[c];
        let tip = zgemm(cl, cl, cu) + zgemm(cl, wr, cu) + zgetrf(cl) + zgetrs(cl, wr);
        right + left + tip + zgemm(cu, wr, cl) + zgemm(s, wr, cu) + zgemm(wl, wr, s)
    }

    /// The two-front Caroli transmission kernel
    /// (`qtx_solver::caroli_sweep`) on a chain of `s × s` blocks.
    /// `couplings` lists, per adjacent block pair,
    /// `(|R_u|, |C_u|, |R_l|, |C_l|)`: the non-zero rows and columns of the
    /// coupling above the diagonal and of the one below; `wl`/`wr` are the
    /// widths of the left/right broadening factors. The chain is cut at
    /// [`caroli_cut`]. Each front factors every one of its blocks once and
    /// solves it once, against the non-zero columns of the coupling towards
    /// the cut plus its panel, and pays one thin product per coupling; the
    /// fronts meet in one `|C_u| × |C_u|` tip system on the cut pair's
    /// supports (three products to build it, one factorization, one solve
    /// against `wr` columns) and two more products give the `wl × wr` trace
    /// matrix. A single block is one front and one `wl × wr × s` product.
    /// Folding a *factored* Σ of rank `r` into its corner block adds
    /// [`zgemm`]`(s, s, r)` on top.
    pub fn caroli_sweep(
        s: usize,
        couplings: &[(usize, usize, usize, usize)],
        wl: usize,
        wr: usize,
    ) -> u64 {
        if couplings.is_empty() {
            return zgetrf(s) + zgetrs(s, wr) + zgemm(wl, wr, s);
        }
        let (c, right, left) = caroli_cut(s, couplings, wl, wr);
        let (ru, cu, rl, cl) = couplings[c];
        let tip = zgemm(cu, cl, rl) + zgemm(cl, cu, ru) + zgemm(cu, cu, cl);
        let join = zgetrf(cu) + zgetrs(cu, wr) + zgemm(wl, cu, ru) + zgemm(wl, wr, cu);
        right + left + tip + join
    }

    /// One elimination sweep of `qtx_solver::SplitSolve` over a partition
    /// whose interior coupling pairs are `couplings` (chain order,
    /// `(|R_u|, |C_u|, |R_l|, |C_l|)` each), for the partition's first
    /// block column (`first`: right-connected, eliminating towards the
    /// first block) or its last. Every block is factored once; every block
    /// but the head is solved against the non-zero columns of the coupling
    /// towards the head and pays one Schur product on the supports; the
    /// head is solved against the `w` unit columns its corner blocks are
    /// read on; the far corner is carried to the other end on those `w`
    /// columns, keeping at each block the rows the next one reads.
    pub fn splitsolve_sweep(
        s: usize,
        couplings: &[(usize, usize, usize, usize)],
        first: bool,
        w: usize,
    ) -> u64 {
        let pairs = couplings.len();
        // Pair `k` in elimination order: rows and columns of the coupling
        // entering the Schur update, columns of the one being solved for.
        let at = |k: usize| {
            let (ru, cu, rl, cl) = couplings[if first { pairs - 1 - k } else { k }];
            if first {
                (ru, cu, cl)
            } else {
                (rl, cl, cu)
            }
        };
        let mut total = (pairs as u64 + 1) * zgetrf(s) + zgetrs(s, w);
        for k in 0..pairs {
            let (r_in, c_in, c_out) = at(k);
            total += zgetrs(s, c_out) + zgemm(r_in, c_out, c_in);
            total += match k {
                0 => zgemm(s, w, c_out),
                _ => zgemm(at(k - 1).2, w, c_out),
            };
        }
        total
    }

    /// The factored-`Q` SplitSolve kernel (`qtx_solver::SplitSolve`) on a
    /// chain of `couplings.len() + 1` blocks of size `s` cut into
    /// `partitions` partitions, up to the terms that grow with the number
    /// of injected columns (Step 4 and the right-hand side of `R`, a few
    /// percent): per partition the two [`splitsolve_sweep`]s — the
    /// outermost ones carrying the `contacts = (|κ_l|, |κ_r|)` columns the
    /// self-energies occupy, the ones facing a neighbour the row support
    /// of the coupling between them — then per SPIKE merge the tip system
    /// on the cut pair's supports and the corner products on the merged
    /// node's `w` outer columns, and `R` on the contact rows. What
    /// `SplitSolveReport::flops` is held against.
    pub fn splitsolve_factored(
        s: usize,
        couplings: &[(usize, usize, usize, usize)],
        contacts: (usize, usize),
        partitions: usize,
    ) -> u64 {
        let nb = couplings.len() + 1;
        let p = partitions.clamp(1, nb);
        // One node per partition: widths of its first and last corner
        // column sets and the block it ends before.
        let mut layer: Vec<(usize, usize, usize)> = Vec::with_capacity(p);
        let mut total = 0;
        for k in 0..p {
            let (start, end) = (k * nb / p, (k + 1) * nb / p);
            let w_first = if k == 0 { contacts.0 } else { couplings[start - 1].2 };
            let w_last = if k + 1 == p { contacts.1 } else { couplings[end - 1].0 };
            let inner = &couplings[start..end - 1];
            total += splitsolve_sweep(s, inner, true, w_first)
                + splitsolve_sweep(s, inner, false, w_last);
            layer.push((w_first, w_last, end));
        }
        while layer.len() > 1 {
            let mut merged = Vec::with_capacity(layer.len().div_ceil(2));
            for pair in layer.chunks(2) {
                merged.push(match *pair {
                    [(w_first, _, cut), (_, w_last, end)] => {
                        let (ru, cu, rl, cl) = couplings[cut - 1];
                        let w = w_first + w_last;
                        total += zgemm(cl, cu, ru)
                            + zgemm(cu, cl, rl)
                            + zgemm(cl, cl, cu)
                            + zgetrf(cl)
                            + 2 * zgemm(cl, w, cu)
                            + zgetrs(cl, w)
                            + zgemm(ru, w, cu)
                            + zgemm(rl, w, cl)
                            + zgemm(s, w, ru)
                            + zgemm(s, w, rl);
                        (w_first, w_last, end)
                    }
                    // An odd node out moves up a level unmerged.
                    _ => pair[0],
                });
            }
            layer = merged;
        }
        let k = contacts.0 + contacts.1;
        total + zgemm(k, k, s) + zgetrf(k)
    }

    /// What SplitSolve cost while it materialized `Q = A⁻¹·B` as `2·n_b`
    /// dense `s × s` blocks — kept as the historical baseline of
    /// `bench_sparse_json`'s `interior` row, which the factored-`Q` kernel
    /// ([`splitsolve_factored`]) is gated against. Per block row: two
    /// pivot factorizations, two `s`-wide solves and four `s³` products
    /// (Algorithm 1 for the first and the last block column), two more
    /// products per SPIKE merge level, and the `s × 2s × m` expansion of
    /// Step 4. The tip and `R` solves are left out, so this bounds from
    /// below what that code executed: 6 569 164 800 at `n_b` = 128,
    /// `s` = 90, `m` = 6, one level, where the benchmark's ledger counted
    /// 6 570 201 600.
    pub fn splitsolve_dense_q(nb: usize, s: usize, m: usize, levels: usize) -> u64 {
        let per_row = 2 * zgetrf(s)
            + 2 * zgetrs(s, s)
            + (4 + 2 * levels as u64) * zgemm(s, s, s)
            + zgemm(s, m, 2 * s);
        nb as u64 * per_row
    }

    /// Householder reduction of an n×n matrix to upper Hessenberg form
    /// (`zgehrd`): (10/3)·n³ complex multiply-adds (both-side updates plus
    /// the Q accumulation) ≈ (80/3)·n³ real operations.
    #[inline]
    pub fn zgehrd(n: usize) -> u64 {
        80 * (n as u64).pow(3) / 3
    }

    /// Cholesky factorization of an n×n Hermitian matrix (`zpotrf`):
    /// n³/6 complex multiply-adds ≈ (4/3)·n³ real operations.
    #[inline]
    pub fn zpotrf(n: usize) -> u64 {
        (4 * (n as u64).pow(3) / 3).max(1)
    }

    /// Householder reduction of an n×n Hermitian matrix to real symmetric
    /// tridiagonal form (`zhetrd`): (2/3)·n³ complex multiply-adds ≈
    /// (16/3)·n³ real operations.
    #[inline]
    pub fn zhetrd(n: usize) -> u64 {
        (16 * (n as u64).pow(3) / 3).max(1)
    }

    /// Implicit QL on an n×n real symmetric tridiagonal (`zsteqr`): about
    /// 30·n² operations for the eigenvalues, plus 6·n³ for rotating the
    /// eigenvector matrix (about 3 sweeps an eigenvalue, 6·n per rotation).
    #[inline]
    pub fn zsteqr(n: usize, vectors: bool) -> u64 {
        let n = n as u64;
        30 * n * n + if vectors { 6 * n.pow(3) } else { 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_measures_exact_thread_delta() {
        let scope = FlopScope::start();
        flops_add(123);
        // Thread-scoped: concurrent tests in the same binary cannot leak
        // into this bracket, so the delta is exact, not a lower bound.
        assert_eq!(scope.elapsed(), 123);
        flops_add(7);
        assert_eq!(scope.elapsed(), 130);
    }

    #[test]
    fn formulas_are_consistent() {
        assert_eq!(counts::zgemm(2, 3, 4), 8 * 24);
        assert_eq!(counts::zgetrf(3), 72);
        assert_eq!(counts::zgetrs(4, 2), 8 * 16 * 2);
        // Triangle kernels are half their square counterparts.
        assert_eq!(counts::ztrsm(10, 4) * 2, counts::zgemm(10, 4, 10));
        assert_eq!(counts::zherk(12, 5) * 2, counts::zgemm(12, 12, 5));
        // Q-application: 8·n·k·(2m − k).
        assert_eq!(counts::zunmqr(10, 3, 4), 8 * 3 * 4 * 16);
        // Hessenberg: (80/3)·n³; degenerate sizes stay nonzero.
        assert_eq!(counts::zgehrd(3), 720);
        assert!(counts::zunmqr(1, 1, 0) >= 1 && counts::zgeqrf(1, 0) >= 1);
        // The dense-Q SplitSolve row of the long wire: the measured
        // 6 570 201 600 less the tip and R solves.
        assert_eq!(counts::splitsolve_dense_q(128, 90, 6, 1), 6_569_164_800);
    }

    #[test]
    fn thread_scope_excludes_concurrent_worker_flops() {
        // The §5.B regression: a worker thread hammers the counters with
        // real gemm work while a scope on this thread brackets a no-op.
        // The scope must see exactly zero — before the per-thread split,
        // the worker's operations leaked into every open scope.
        use crate::gemm::matmul;
        use crate::zmat::ZMat;
        use std::sync::mpsc;
        let (started_tx, started_rx) = mpsc::channel();
        let (stop_tx, stop_rx) = mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(move || {
                let a = ZMat::random(48, 48, 1);
                let b = ZMat::random(48, 48, 2);
                let mut done_one = false;
                loop {
                    let _ = matmul(&a, &b);
                    if !done_one {
                        started_tx.send(()).unwrap();
                        done_one = true;
                    }
                    // Stop on the signal *or* a disconnected channel: if
                    // the main thread's assertion panics before sending,
                    // the sender is dropped and the worker must still
                    // exit (otherwise the scope join hangs the unwind and
                    // the test times out with no diagnostic).
                    if stop_rx.try_recv() != Err(std::sync::mpsc::TryRecvError::Empty) {
                        break;
                    }
                }
            });
            // Wait until the worker demonstrably adds flops, then bracket
            // a no-op on this thread.
            started_rx.recv().unwrap();
            let scope = FlopScope::start();
            std::thread::sleep(std::time::Duration::from_millis(5));
            assert_eq!(scope.elapsed(), 0, "concurrent worker leaked into the scope");
            stop_tx.send(()).unwrap();
        });
    }

    #[test]
    fn process_scope_aggregates_across_threads() {
        let scope = FlopScope::start_process();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| flops_add(1000));
            }
        });
        // Whole-process opt-in: worker contributions are visible (other
        // concurrent tests may add more, so this is a lower bound).
        assert!(scope.elapsed() >= 4000);
        // The same bracket viewed thread-scoped sees none of it.
        let local = FlopScope::start();
        std::thread::scope(|s| {
            s.spawn(|| flops_add(500));
        });
        assert_eq!(local.elapsed(), 0);
    }

    #[test]
    fn join_counted_credits_the_borrowed_thread_to_the_caller() {
        let before = flops_total();
        let scope = FlopScope::start();
        let (a, b) = join_counted(
            || {
                flops_add(300);
                'a'
            },
            || {
                flops_add(45);
                'b'
            },
        );
        assert_eq!((a, b), ('a', 'b'));
        // Whichever closure ran elsewhere, this thread's bracket sees both,
        // and the process-wide total saw each operation once.
        assert_eq!(scope.elapsed(), 345);
        assert!(flops_total() - before >= 345);
    }

    #[test]
    fn map_counted_keeps_order_and_credits_the_caller_either_way() {
        let items: Vec<u64> = (1..=6).collect();
        for flops in [0, 2 * FAN_OUT_MIN_FLOPS] {
            let scope = FlopScope::start();
            let out = map_counted(&items, flops, |i, &v| {
                flops_add(v * 100);
                (i, v)
            });
            assert_eq!(out, items.iter().copied().enumerate().collect::<Vec<_>>());
            assert_eq!(scope.elapsed(), 2100, "estimate {flops}");
        }
    }

    #[test]
    fn map_counted_stays_on_the_calling_thread_under_the_cutoff() {
        // Whether a fan-out finds a free worker depends on what else runs
        // in this binary; staying inline under the cutoff does not.
        let here = std::thread::current().id();
        let on =
            map_counted(&[(); 4], 2 * FAN_OUT_MIN_FLOPS - 2, |_, _| std::thread::current().id());
        assert!(on.iter().all(|&id| id == here), "half the estimate is under the cutoff");
        assert!(!fans_out(FAN_OUT_MIN_FLOPS - 1) && fans_out(FAN_OUT_MIN_FLOPS));
    }

    #[test]
    fn global_total_still_aggregates_thread_work() {
        let before = flops_total();
        std::thread::scope(|s| {
            s.spawn(|| flops_add(250));
        });
        flops_add(1);
        assert!(flops_total() >= before + 251);
    }
}
