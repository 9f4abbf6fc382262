//! FEAST contour-integration eigensolver on an annulus (Fig. 5, Eq. 10).
//!
//! Only the `m` eigenvalues inside an annulus around `|λ| = 1` matter for
//! the boundary conditions: propagating modes sit on the unit circle and
//! slowly decaying evanescent modes just off it, while fast-decaying modes
//! (`|λ| < 1/R` or `|λ| > R`) contribute negligibly (§3.A). The spectral
//! projector onto that annulus is the contour integral
//!
//! ```text
//! Q_F = (1/2πi) [ ∮_{|z|=R} − ∮_{|z|=1/R} ] (z·B − A)⁻¹·B · Y_F  dz
//!     ≈ Σ_p  (z_p / N_p) (z_p·B − A)⁻¹·B·Y_F            (trapezoid rule)
//! ```
//!
//! exactly Eq. 10. Each integration point costs one LU of the `nf`-sized
//! polynomial `P(z_p)` (the paper's block-LU size reduction) and the
//! points are independent — the parallelism the paper exploits across
//! CPU cores. Here the factor loop and the projector loop go to threads
//! only when their counted work covers the hand-off
//! ([`qtx_linalg::flops::map_counted`], the library's one fan-out rule):
//! the `nf` ≤ 26 leads of small devices stay on the calling thread, the
//! `nf` ≥ 90 ones fan out, and the node partials are summed in node order
//! either way, so the modes do not depend on it. Rayleigh–Ritz
//! on the orthonormalized subspace (Eq. 7) plus residual-driven subspace
//! iteration refine the eigenpairs.
//!
//! The inner-circle node at angle `θ` is `1/z̄` of the outer one, and for
//! the pencil of a Hermitian lead at a real energy
//! ([`CompanionPencil::is_hermitian`]) `P(1/z̄) = z̄⁻²·P(z)ᴴ` exactly: only
//! the outer circle is factored there and the inner nodes solve through
//! the adjoints of those factors. A broadened (`η > 0`) or non-Hermitian
//! pencil factors both circles through the same loop; which of the two
//! happens is read off the pencil, never configured.
//!
//! The nodes at angles `θ` and `2π − θ` are complex conjugates on both
//! circles, and for a real pencil ([`CompanionPencil::is_real`]: a lead
//! with real blocks at a real energy) `P(z̄) = conj(P(z))`, so the
//! projector is a real matrix: a real block `Y_F` gives
//! `x(z̄) = conj(x(z))` and the pair sums to `2·Re(w·x)`. Such a pencil is
//! integrated on the upper half plane's nodes only, a complex block split
//! into its real and imaginary parts first. This too is read off the
//! pencil: every broadened rung and every complex lead takes the full
//! contour.
//!
//! Only `m ≪ N_BC` modes live in the annulus, so the random block `Y_F`
//! starts a few columns wide and is sized by the projector itself: while
//! the rank-truncated `Q_F` fills the block (`rank + 2 ≥ columns`) as many
//! fresh columns of the same seeded stream are appended and projected
//! against the node factorizations already held. The width is therefore a
//! pure function of the pencil — no timing, no neighbouring energy — and
//! ends within a factor two of the projector's numerical rank (annulus
//! modes plus the quadrature's leakage from just outside it), which is
//! what `qtx-machine`'s `perfmodel::feast_flops` budgets as
//! `max(nf/8, 64)` columns. `docs/obc.md` has the cost ledger.

use crate::companion::{CompanionPencil, NodeFactors};
use crate::error::{ObcError, ObcOutcome};
use crate::modes::may_propagate;
use qtx_linalg::flops::{counts, map_counted};
use qtx_linalg::{
    eig_generalized_ws, eig_ws, gemm_view, orthonormalize_ws, zherk, Complex64, LuFactors, Op,
    Workspace, ZMat,
};

/// Orthonormalizes the contour projector output with rank truncation.
///
/// The annulus projector is a low-rank operator (its rank is the number of
/// enclosed eigenvalues), so `P·Y` with a generous random `Y` is strongly
/// rank-deficient; a plain QR would manufacture junk directions out of
/// roundoff and flood the Rayleigh–Ritz step with spurious Ritz values.
/// Diagonalizing the Gram matrix `(P·Y)ᴴ(P·Y)` and dropping directions
/// below `rel_tol·λ_max` keeps exactly the numerically meaningful
/// subspace. Every temporary — the Gram matrix, the eigenvector basis,
/// the cleaned `Q` itself — cycles through the caller's pool.
fn orthonormalize_rank(p: &ZMat, rel_tol: f64, ws: &Workspace) -> ObcOutcome<ZMat> {
    let m = p.cols();
    let mut g = ws.take(m, m);
    // Gram matrix through the Hermitian rank-k update: half the flops of
    // the general product, Hermitian by construction (no symmetrization).
    zherk(1.0, p.view(), Op::Adjoint, 0.0, &mut g);
    let dec = match eig_ws(&g, ws) {
        Ok(dec) => {
            ws.recycle(g);
            dec
        }
        Err(e) => {
            ws.recycle(g);
            return Err(e.into());
        }
    };
    let lmax = dec.values.iter().map(|v| v.re).fold(0.0, f64::max);
    if lmax <= 0.0 {
        ws.recycle(dec.vectors);
        return Ok(ZMat::zeros(p.rows(), 0));
    }
    let keep: Vec<usize> = (0..m).filter(|&j| dec.values[j].re > rel_tol * lmax).collect();
    let mut v = ws.take(m, keep.len());
    for (jj, &j) in keep.iter().enumerate() {
        let scale = 1.0 / dec.values[j].re.sqrt();
        for i in 0..m {
            v[(i, jj)] = dec.vectors[(i, j)].scale(scale);
        }
    }
    ws.recycle(dec.vectors);
    // One QR pass cleans residual non-orthogonality (blocked compact-WY
    // QR over the same pool).
    let pv = ws.matmul(p, &v);
    ws.recycle(v);
    let q = orthonormalize_ws(&pv, ws);
    ws.recycle(pv);
    Ok(q)
}

/// FEAST configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeastConfig {
    /// Trapezoid integration points per circle (`N_p` in Eq. 10).
    pub np: usize,
    /// Outer annulus radius `R` (inner radius is `1/R`).
    pub r_outer: f64,
    /// Starting width of the random block `Y_F`. Whatever the start, the
    /// block grows until the projector's rank no longer fills it, so this
    /// is not a cap; 0 (the default) starts from a few columns and lets the
    /// measured rank pick the size — see the module docs.
    pub subspace: usize,
    /// Maximum subspace-iteration refinements.
    pub max_refine: usize,
    /// Relative eigenpair residual tolerance.
    pub tol: f64,
}

impl Default for FeastConfig {
    fn default() -> Self {
        // R = 16 keeps the slowly decaying DFT-basis mode clusters inside
        // the annulus; the residual truncation error on transmission is
        // ~1e-4 (the paper's "contribution from fast decaying modes is
        // negligible" approximation, tunable through `r_outer`).
        FeastConfig { np: 12, r_outer: 16.0, subspace: 0, max_refine: 8, tol: 1e-8 }
    }
}

/// Counters reported by a FEAST run (feeds the Fig. 8 cost accounting).
#[derive(Debug, Clone, Default)]
pub struct FeastStats {
    /// Subspace iterations executed.
    pub iterations: usize,
    /// Eigenpairs found inside the annulus.
    pub m_found: usize,
    /// Columns of the random block once the sizing loop stopped growing it
    /// (a report: setting it changes nothing).
    pub subspace: usize,
    /// Factorizations of `P(z_p)` held by the run (a report): `2·np` in
    /// general; `np` when the pencil is Hermitian and the inner circle runs
    /// on the outer factors' adjoints; `⌈np/2⌉` when it is also real and
    /// only the upper half plane's angles are solved (`2·⌈np/2⌉` for a real
    /// pencil that is not Hermitian).
    pub factorizations: usize,
    /// Block back-substitutions: one per quadrature node solved per
    /// projector application (every subspace iteration and every growth
    /// step of the sizing loop), each against all columns projected at that
    /// step — `2·np` nodes, or `2·⌈np/2⌉` on a real pencil, where a complex
    /// block is solved as its real and imaginary parts side by side.
    pub linear_solves: usize,
    /// Worst accepted eigenpair residual.
    pub max_residual: f64,
}

/// FEAST output: `(λ, u)` pairs with `u` the quadratic eigenvector
/// (bottom block of the companion vector).
pub type FeastModes = Vec<(Complex64, Vec<Complex64>)>;

/// Runs FEAST on the annulus `1/R ≤ |λ| ≤ R` of the companion pencil.
/// Returns `(λ, u)` pairs (`u` = quadratic eigenvector, bottom block) and
/// run statistics.
pub fn feast_annulus(
    pencil: &CompanionPencil,
    cfg: FeastConfig,
) -> ObcOutcome<(FeastModes, FeastStats)> {
    feast_annulus_ws(pencil, cfg, &Workspace::new())
}

/// [`feast_annulus`] over a caller-supplied buffer pool: subspaces,
/// quadrature solves, Rayleigh–Ritz reductions, the QR orthonormalization
/// and the dense eigensolver all recycle through `ws`, so repeated calls
/// against one warm pool allocate no fresh matrices (property-tested in
/// the top-level suite). The energy-point path does not give it one: the
/// `self_energy*` entries build a fresh [`Workspace`] per mode solve, so
/// every point's pool starts cold.
pub fn feast_annulus_ws(
    pencil: &CompanionPencil,
    cfg: FeastConfig,
    ws: &Workspace,
) -> ObcOutcome<(FeastModes, FeastStats)> {
    let mut stats = FeastStats::default();
    let result = Contour::factor(pencil, cfg, ws).map_err(ObcError::from).and_then(|contour| {
        stats.factorizations = contour.factors.iter().flatten().count();
        let r = feast_core(pencil, cfg, &contour, ws, &mut stats);
        contour.recycle_into(ws);
        r
    });
    match result {
        Ok(modes) => Ok((modes, stats)),
        // Carry the run's cost and residual diagnostics out with the
        // failure: the escalation ladder keys off them.
        Err(source) => Err(ObcError::Feast {
            iterations: stats.iterations,
            linear_solves: stats.linear_solves,
            max_residual: stats.max_residual,
            source: Box::new(source),
        }),
    }
}

/// Columns of the seeded random stream FEAST starts from when
/// [`FeastConfig::subspace`] is 0; the sizing loop in [`feast_core`] widens
/// the block while the projector's rank fills it.
const START_BLOCK: usize = 8;

/// Seed of the random block. [`ZMat::randomize`] fills column-major, so a
/// wider block drawn from the same seed extends a narrower one bit for bit.
const BLOCK_SEED: u64 = 0x0f_ea_57;

/// Fills `y` from the seeded stream, its imaginary parts zeroed on a real
/// pencil: a real block's projection needs no split.
fn random_block(y: &mut ZMat, real: bool) {
    y.randomize(BLOCK_SEED);
    if real {
        keep_real_part(y);
    }
}

fn keep_real_part(m: &mut ZMat) {
    for v in m.as_mut_slice() {
        v.im = 0.0;
    }
}

/// The trapezoid rule of Eq. 10 with the node factorizations it holds.
struct Contour {
    /// The nodes the projector solves at, with their weights, in (outer,
    /// inner) pairs by angle: all `2·np`, or on a real pencil the upper half
    /// plane's, each weight then carrying its node's multiplicity.
    nodes: Vec<(Complex64, Complex64)>,
    /// One per node: the LU of `P(z)`, or `None` for an inner node of a
    /// Hermitian pencil, which borrows its outer neighbour's factors.
    factors: Vec<Option<LuFactors>>,
    /// The pencil is real: every node contributes `Re(w·x)`.
    real: bool,
}

impl Contour {
    /// Places the nodes and factors `P(z)` at those that need their own LU.
    fn factor(
        pencil: &CompanionPencil,
        cfg: FeastConfig,
        ws: &Workspace,
    ) -> qtx_linalg::Result<Contour> {
        let np = cfg.np;
        // Integration nodes `z_p` with their trapezoid weights `±z_p/N_p`
        // (Eq. 10; the inner circle is traversed backwards): offset
        // half-steps avoid band-edge eigenvalues at λ = ±1 landing exactly
        // on a node.
        let all: Vec<(Complex64, Complex64)> = (0..np)
            .flat_map(|p| {
                let theta = 2.0 * std::f64::consts::PI * (p as f64 + 0.5) / np as f64;
                [(cfg.r_outer, 1.0), (1.0 / cfg.r_outer, -1.0)].map(|(r, sign)| {
                    let z = Complex64::from_polar(r, theta);
                    (z, z.scale(sign / np as f64))
                })
            })
            .collect();
        // Angles `p` and `np − 1 − p` are conjugate. A real pencil keeps
        // `p < np − 1 − p` at twice its weight and, for an odd `np`, the
        // self-conjugate `θ = π` once: a prefix of the node list.
        let real = pencil.is_real();
        let kept = if real { np.div_ceil(2) } else { np };
        let nodes: Vec<(Complex64, Complex64)> = all[..2 * kept]
            .iter()
            .enumerate()
            .map(|(i, &(z, w))| {
                let pair = real && i / 2 < np - 1 - i / 2;
                (z, if pair { w.scale(2.0) } else { w })
            })
            .collect();
        // One LU of P(z_p) per node, reused across refinements and RHS; the
        // polynomial evaluations cycle through the shared pool and the
        // factors adopt their buffers (handed back by `recycle_into`). An
        // inner node of a Hermitian pencil holds `None` and borrows its
        // outer neighbour's factors. Every node of the full contour draws
        // its fault chokepoint, solved or not, so a campaign fails the
        // runs it fails on the full contour.
        let reciprocal = pencil.is_hermitian();
        let factored = if reciprocal { kept } else { nodes.len() };
        let work = factored as u64 * counts::zgetrf(pencil.nf);
        let factors = map_counted(&nodes, work, |i, &(z, _)| {
            if reciprocal && i % 2 == 1 {
                pencil.draw_factor_fault(z).map(|()| None)
            } else {
                pencil.factor_poly_ws(z, ws).map(Some)
            }
        });
        // Every draw is made, none short-circuited: a campaign counts the
        // faults it injects.
        let lower: Vec<_> =
            all[nodes.len()..].iter().map(|&(z, _)| pencil.draw_factor_fault(z)).collect();
        let factors = factors.into_iter().collect::<qtx_linalg::Result<_>>()?;
        let contour = Contour { nodes, factors, real };
        if let Some(e) = lower.into_iter().find_map(Result::err) {
            contour.recycle_into(ws);
            return Err(e);
        }
        Ok(contour)
    }

    /// Hands the node factorizations back to the pool.
    fn recycle_into(self, ws: &Workspace) {
        for f in self.factors.into_iter().flatten() {
            f.recycle_into(ws);
        }
    }

    /// Applies the quadrature projector of Eq. 10 to columns `c0..` of `y`:
    /// `Σ_p w_p (z_p/N_p)(z_p B − A)⁻¹ B Y`. On a real pencil the projector
    /// is real, so a complex block is projected as `P·Re Y + i·P·Im Y`:
    /// both parts side by side in one real block of twice the columns.
    fn apply(
        &self,
        pencil: &CompanionPencil,
        y: &ZMat,
        c0: usize,
        ws: &Workspace,
        stats: &mut FeastStats,
    ) -> ZMat {
        let n = y.rows();
        let cols = &y.as_slice()[c0 * n..];
        if !self.real || cols.iter().all(|v| v.im == 0.0) {
            return self.sum_nodes(pencil, y, c0, ws, stats);
        }
        let m = y.cols() - c0;
        let mut parts = ws.take_scratch(n, 2 * m);
        let (re, im) = parts.as_mut_slice().split_at_mut(n * m);
        for ((r, i), v) in re.iter_mut().zip(im).zip(cols) {
            *r = Complex64::new(v.re, 0.0);
            *i = Complex64::new(v.im, 0.0);
        }
        let both = self.sum_nodes(pencil, &parts, 0, ws, stats);
        ws.recycle(parts);
        let mut out = ws.take_scratch(n, m);
        let (re, im) = both.as_slice().split_at(n * m);
        for ((o, r), i) in out.as_mut_slice().iter_mut().zip(re).zip(im) {
            *o = Complex64::new(r.re, i.re);
        }
        ws.recycle(both);
        out
    }

    /// The node sum of [`Contour::apply`], the partials summed in node
    /// order so the result does not depend on which thread solved which
    /// node.
    fn sum_nodes(
        &self,
        pencil: &CompanionPencil,
        y: &ZMat,
        c0: usize,
        ws: &Workspace,
        stats: &mut FeastStats,
    ) -> ZMat {
        let rhs = pencil.projector_rhs_ws(y, c0, ws);
        let work = self.nodes.len() as u64 * counts::zgetrs(pencil.nf, y.cols() - c0);
        let partials = map_counted(&self.nodes, work, |i, &(z, w)| {
            let f = match &self.factors[i] {
                Some(own) => NodeFactors::Own(own),
                None => NodeFactors::Reciprocal(
                    self.factors[i - 1].as_ref().expect("the outer node of the pair is factored"),
                ),
            };
            let mut x = pencil.solve_projector_ws(f, z, &rhs, ws);
            x.scale_assign(w);
            if self.real {
                // The conjugate node adds conj(w·x); the 2 is in `w`.
                keep_real_part(&mut x);
            }
            x
        });
        rhs.recycle_into(ws);
        stats.linear_solves += self.nodes.len();
        let mut acc = ws.take(y.rows(), y.cols() - c0);
        for p in partials {
            acc.axpy(Complex64::ONE, &p);
            ws.recycle(p);
        }
        acc
    }
}

/// The refinement loop of [`feast_annulus_ws`], separated so the node
/// factorizations can be recycled on every exit path.
fn feast_core(
    pencil: &CompanionPencil,
    cfg: FeastConfig,
    contour: &Contour,
    ws: &Workspace,
    stats: &mut FeastStats,
) -> ObcOutcome<FeastModes> {
    let nf = pencil.nf;
    let nbc = 2 * nf;
    let scale = pencil.scale();
    let start = if cfg.subspace == 0 { START_BLOCK } else { cfg.subspace };
    let mut y = ws.take_scratch(nbc, start.min(nbc));
    random_block(&mut y, contour.real);
    let mut accepted: Vec<(Complex64, Vec<Complex64>)> = Vec::new();
    let mut prev_accepted = usize::MAX;
    let mut prev_inside = usize::MAX;
    // Ritz values the last iteration placed inside the annulus.
    let mut last_inside = 0usize;
    // Ritz values that may be propagating (on the unit circle or, on a
    // broadened pencil, near it) the last iteration left above `tol`, and
    // the smallest residual among them.
    let mut pending = (0usize, f64::INFINITY);
    for it in 0..cfg.max_refine {
        stats.iterations += 1;
        let mut p = contour.apply(pencil, &y, 0, ws, stats);
        let q = loop {
            let q = match orthonormalize_rank(&p, 1e-13, ws) {
                Ok(q) => q,
                Err(e) => {
                    // Keep the pool's steady state across transiently
                    // failing energy points: recycle everything live.
                    ws.recycle(p);
                    ws.recycle(y);
                    return Err(e);
                }
            };
            // Sizing: a random block whose projection has (almost) full
            // rank may be hiding annulus modes, so append as many fresh
            // columns again and project only those — what is already
            // projected is kept. Only the random block of the first
            // iteration can saturate: later blocks are Ritz vectors
            // spanning a range that already passed this test.
            let m = y.cols();
            if it > 0 || m == nbc || q.cols() + 2 < m {
                break q;
            }
            ws.recycle(q);
            let mut wider = ws.take_scratch(nbc, (2 * m).min(nbc));
            random_block(&mut wider, contour.real);
            ws.recycle(std::mem::replace(&mut y, wider));
            let appended = contour.apply(pencil, &y, m, ws, stats);
            let mut both = ws.take_scratch(nbc, y.cols());
            let (head, tail) = both.as_mut_slice().split_at_mut(nbc * m);
            head.copy_from_slice(p.as_slice());
            tail.copy_from_slice(appended.as_slice());
            ws.recycle(appended);
            ws.recycle(std::mem::replace(&mut p, both));
        };
        ws.recycle(p);
        if it == 0 {
            stats.subspace = y.cols();
        }
        let k = q.cols();
        if k == 0 {
            ws.recycle(q);
            last_inside = 0;
            break; // empty annulus
        }
        // Reduced pencil (Eq. 7): [QᴴAQ]·y = λ·[QᴴBQ]·y, assembled
        // blockwise from the companion structure instead of through
        // materialized A·Q/B·Q products: with Q = [Q₁; Q₂],
        //   QᴴAQ = −Q₁ᴴ·(T00·Q₁ + T10·Q₂) + Q₂ᴴ·Q₁
        //   QᴴBQ =  Q₁ᴴ·(T01·Q₁) + Q₂ᴴ·Q₂
        // so every inner dimension is nf (not 2·nf), the 2nf-tall
        // temporaries are gone, and the Hermitian Q₂ᴴQ₂ term of the
        // B-projection runs on the half-flop rank-k update.
        let q1 = q.block_view(0, 0, nf, k);
        let q2 = q.block_view(nf, 0, nf, k);
        let mut tq = ws.take_scratch(nf, k);
        gemm_view(
            Complex64::ONE,
            pencil.t00.view(),
            Op::None,
            q1,
            Op::None,
            Complex64::ZERO,
            &mut tq,
        );
        gemm_view(
            Complex64::ONE,
            pencil.t10.view(),
            Op::None,
            q2,
            Op::None,
            Complex64::ONE,
            &mut tq,
        );
        let mut ar = ws.take_scratch(k, k);
        gemm_view(-Complex64::ONE, q1, Op::Adjoint, tq.view(), Op::None, Complex64::ZERO, &mut ar);
        gemm_view(Complex64::ONE, q2, Op::Adjoint, q1, Op::None, Complex64::ONE, &mut ar);
        let mut br = ws.take(k, k);
        zherk(1.0, q2, Op::Adjoint, 0.0, &mut br);
        gemm_view(
            Complex64::ONE,
            pencil.t01.view(),
            Op::None,
            q1,
            Op::None,
            Complex64::ZERO,
            &mut tq,
        );
        gemm_view(Complex64::ONE, q1, Op::Adjoint, tq.view(), Op::None, Complex64::ONE, &mut br);
        ws.recycle(tq);
        let ritz = match eig_generalized_ws(&ar, &br, ws) {
            Ok(ritz) => ritz,
            Err(e) => {
                for m in [ar, br, q, y] {
                    ws.recycle(m);
                }
                return Err(e.into());
            }
        };
        ws.recycle(ar);
        ws.recycle(br);
        // Lift Ritz vectors, classify, and measure residuals.
        let x = ws.matmul(&q, &ritz.vectors);
        ws.recycle(q);
        ws.recycle(ritz.vectors);
        accepted.clear();
        let mut max_res: f64 = 0.0;
        let mut inside = 0usize;
        pending = (0, f64::INFINITY);
        let lo = 1.0 / cfg.r_outer * 0.999;
        let hi = cfg.r_outer * 1.001;
        for (j, &lam) in ritz.values.iter().enumerate() {
            if !lam.is_finite() {
                continue;
            }
            let mag = lam.abs();
            if mag < lo || mag > hi {
                continue;
            }
            inside += 1;
            let mut u: Vec<Complex64> = (nf..nbc).map(|i| x[(i, j)]).collect();
            let norm = u.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
            if norm < 1e-12 {
                continue;
            }
            for z in u.iter_mut() {
                *z = *z / norm;
            }
            let res = pencil.residual_scaled(lam, &u, scale);
            if res < cfg.tol {
                accepted.push((lam, u));
                max_res = max_res.max(res);
            } else if may_propagate(mag, pencil.eta) {
                pending = (pending.0 + 1, pending.1.min(res));
            }
        }
        stats.max_residual = max_res;
        last_inside = inside;
        // Converged (every Ritz value inside passed), or stabilized
        // acceptance: if the converged count repeats across two
        // refinements, the stragglers are quadrature leakage from outside
        // the annulus, not missing modes. A straggler that may propagate is
        // never leakage: on the unit circle, or at `E + iη` within the ring
        // `e^{−η/|v|}` puts a propagating mode in, it is a mode whose
        // residual has not (yet) met `tol`, and it keeps the iteration
        // going.
        let converged = inside > 0 && accepted.len() == inside;
        let stabilized =
            it >= 1 && !accepted.is_empty() && accepted.len() == prev_accepted && pending.0 == 0;
        // The mirror rule for gaps: no Ritz value inside on two consecutive
        // iterations leaves nothing to refine towards.
        let empty = inside == 0 && prev_inside == 0;
        if converged || stabilized || empty || it + 1 == cfg.max_refine {
            ws.recycle(x);
            break;
        }
        prev_accepted = accepted.len();
        prev_inside = inside;
        // Subspace iteration: feed the Ritz vectors back, letting the pool
        // reclaim the previous subspace.
        ws.recycle(std::mem::replace(&mut y, x));
    }
    ws.recycle(y);
    // Converged, stabilized, or out of refinements: return what passed the
    // residual filter — unless a propagating mode is still unresolved, when
    // what passed is short a channel and no answer. (Modes were found, so
    // this is not `NoModes`.)
    stats.m_found = accepted.len();
    if !accepted.is_empty() {
        let (stalled, residual) = pending;
        if stalled > 0 {
            return Err(ObcError::StalledModes { method: "feast", pending: stalled, residual });
        }
        return Ok(accepted);
    }
    // Nothing passed the residual filter: the annulus is empty (legitimate
    // deep in a gap with only fast-decaying modes) or FEAST failed. On
    // small pencils the dense baseline arbitrates.
    if pencil.nbc() <= 64 {
        let all = crate::baselines::dense_modes(pencil)?;
        let lo = 1.0 / cfg.r_outer;
        let hi = cfg.r_outer;
        if all.iter().any(|(l, _)| (lo..=hi).contains(&l.abs())) {
            return Err(ObcError::NoModes { method: "feast" });
        }
        return Ok(Vec::new());
    }
    // On large ones, Ritz values the last iteration still placed inside
    // the annulus are a stall, not an empty annulus: say so, and the
    // caller's exact dense route (then the ladder) takes over instead of a
    // silent Σ = 0.
    if last_inside > 0 {
        return Err(ObcError::NoModes { method: "feast" });
    }
    Ok(Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::dense_modes;
    use crate::lead::LeadBlocks;
    use qtx_linalg::c64;

    fn sorted_mags(v: &[(Complex64, Vec<Complex64>)], lo: f64, hi: f64) -> Vec<f64> {
        let mut m: Vec<f64> =
            v.iter().map(|(z, _)| z.abs()).filter(|m| (lo..=hi).contains(m)).collect();
        m.sort_by(|a, b| a.partial_cmp(b).unwrap());
        m
    }

    #[test]
    fn feast_finds_chain_modes_in_band() {
        let lead = LeadBlocks::chain_1d(0.0, -1.0);
        let pencil = CompanionPencil::at_energy(&lead, 0.4, 0.0);
        let (modes, stats) = feast_annulus(&pencil, FeastConfig::default()).unwrap();
        assert_eq!(modes.len(), 2, "both unit-circle roots");
        assert!(stats.m_found == 2);
        for (lam, u) in &modes {
            assert!((lam.abs() - 1.0).abs() < 1e-7);
            assert!(pencil.residual(*lam, u) < 1e-8);
        }
    }

    #[test]
    fn feast_matches_dense_annulus_spectrum() {
        let mut h00 = ZMat::random(4, 4, 41);
        h00.hermitianize();
        let h01 = ZMat::random(4, 4, 42).scaled(c64(0.45, 0.0));
        let lead = LeadBlocks::new(h00, h01, ZMat::identity(4), ZMat::zeros(4, 4));
        let pencil = CompanionPencil::at_energy(&lead, 0.15, 0.0);
        let cfg = FeastConfig { np: 12, r_outer: 3.0, ..FeastConfig::default() };
        let (feast_modes, _) = feast_annulus(&pencil, cfg).unwrap();
        let dense = dense_modes(&pencil).unwrap();
        // Use a slightly shrunk window so boundary-straddling eigenvalues
        // don't flip membership between the two methods.
        let (lo, hi) = (1.0 / 2.9, 2.9);
        let f = sorted_mags(&feast_modes, lo, hi);
        let d = sorted_mags(&dense, lo, hi);
        assert_eq!(f.len(), d.len(), "feast {f:?} vs dense {d:?}");
        for (a, b) in f.iter().zip(&d) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn feast_ignores_fast_decaying_modes() {
        // Far outside the band every mode decays fast: the annulus with a
        // modest R sees nothing, and that is the expected behaviour.
        let lead = LeadBlocks::chain_1d(0.0, -0.2);
        let pencil = CompanionPencil::at_energy(&lead, 3.0, 0.0);
        // λ + 1/λ = E/t = −15 ⇒ |λ| ≈ 15 ≫ R.
        let cfg = FeastConfig { r_outer: 3.0, ..FeastConfig::default() };
        let (modes, _) = feast_annulus(&pencil, cfg).unwrap();
        assert!(modes.is_empty());
    }

    #[test]
    fn hermitian_pencil_factors_one_circle_and_broadened_pencil_both() {
        let mut h00 = ZMat::random(6, 6, 51);
        h00.hermitianize();
        let h01 = ZMat::random(6, 6, 52).scaled(c64(0.45, 0.0));
        let lead = LeadBlocks::new(h00, h01, ZMat::identity(6), ZMat::zeros(6, 6));
        let cfg = FeastConfig { r_outer: 3.0, ..FeastConfig::default() };
        let exact = CompanionPencil::at_energy(&lead, 0.15, 0.0);
        let broadened = CompanionPencil::at_energy(&lead, 0.15, 1e-6);
        let (modes_exact, stats_exact) = feast_annulus(&exact, cfg).unwrap();
        let (modes_broad, stats_broad) = feast_annulus(&broadened, cfg).unwrap();
        assert_eq!(stats_exact.factorizations, cfg.np, "outer circle only");
        assert_eq!(stats_broad.factorizations, 2 * cfg.np, "η > 0 fails the Hermitian test");
        // Same quadrature either way: every node is solved every pass.
        assert_eq!(stats_exact.linear_solves % (2 * cfg.np), 0);
        // And the same answer, to what η = 1e-6 moves the modes.
        let (a, b) = (sorted_mags(&modes_exact, 0.0, 4.0), sorted_mags(&modes_broad, 0.0, 4.0));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn feast_counts_linear_solves() {
        // The chain's companion space is two columns wide, so the start
        // block fills it and every projector application is an iteration.
        let cfg = FeastConfig { np: 6, ..FeastConfig::default() };
        let real = CompanionPencil::at_energy(&LeadBlocks::chain_1d(0.0, -1.0), -0.9, 0.0);
        assert!(real.is_real());
        let (_, stats) = feast_annulus(&real, cfg).unwrap();
        assert!(stats.iterations >= 1);
        // np/2 angles × 2 circles per application, on np/2 factorizations.
        assert_eq!(stats.linear_solves, stats.iterations * (cfg.np / 2) * 2, "{stats:?}");
        assert_eq!(stats.factorizations, cfg.np / 2, "{stats:?}");
        // A complex hopping keeps the lead Hermitian but the pencil complex:
        // the full contour, 2·np solves per application on np factorizations.
        let phase = ZMat::from_diag(&[Complex64::from_polar(-1.0, 0.4)]);
        let lead = LeadBlocks::new(ZMat::zeros(1, 1), phase, ZMat::identity(1), ZMat::zeros(1, 1));
        let complex = CompanionPencil::at_energy(&lead, -0.9, 0.0);
        assert!(!complex.is_real() && complex.is_hermitian());
        let (_, stats) = feast_annulus(&complex, cfg).unwrap();
        assert!(stats.iterations >= 1);
        assert_eq!(stats.linear_solves, stats.iterations * 2 * cfg.np, "{stats:?}");
        assert_eq!(stats.factorizations, cfg.np, "{stats:?}");
    }

    /// The four benchmark devices' left leads at momentum `kz`, rebuilt as
    /// this crate's lead type: the UTB film, the 0.8 nm and 1.5 nm
    /// tight-binding wires and the 1.0 nm DFT wire.
    fn benchmark_leads(kz: f64) -> Vec<(&'static str, LeadBlocks)> {
        use qtx_atomistic::{BasisKind, DeviceBuilder};
        let tb = BasisKind::TightBinding;
        [
            ("utb", DeviceBuilder::utb(0.8), tb),
            ("nw08", DeviceBuilder::nanowire(0.8), tb),
            ("nw15", DeviceBuilder::nanowire(1.5), tb),
            ("dft10", DeviceBuilder::nanowire(1.0), BasisKind::Dft3sp),
        ]
        .into_iter()
        .map(|(name, builder, basis)| {
            let spec = builder.cells(4).basis(basis).build();
            let l = qtx_core::Device::build(spec).expect("device build").at_kz(kz).lead_l;
            (name, LeadBlocks { h00: l.h00, h01: l.h01, s00: l.s00, s01: l.s01 })
        })
        .collect()
    }

    /// Every node of the full `2·np`-node contour with its weight and its
    /// own factorization.
    type FullContour = Vec<(Complex64, Complex64, LuFactors)>;

    fn full_contour(pencil: &CompanionPencil, cfg: FeastConfig) -> FullContour {
        let mut nodes = Vec::new();
        for p in 0..cfg.np {
            let theta = 2.0 * std::f64::consts::PI * (p as f64 + 0.5) / cfg.np as f64;
            for (r, sign) in [(cfg.r_outer, 1.0), (1.0 / cfg.r_outer, -1.0)] {
                let z = Complex64::from_polar(r, theta);
                nodes.push((z, z.scale(sign / cfg.np as f64), pencil.factor_poly(z).unwrap()));
            }
        }
        nodes
    }

    /// Eq. 10 on `y`, summed over every node of the full contour.
    fn full_contour_sum(pencil: &CompanionPencil, nodes: &FullContour, y: &ZMat) -> ZMat {
        let by = pencil.apply_b(y);
        let mut acc = ZMat::zeros(y.rows(), y.cols());
        for (z, w, f) in nodes {
            acc.axpy(*w, &pencil.solve_shifted(f, *z, &by));
        }
        acc
    }

    #[test]
    fn half_contour_of_a_real_pencil_is_the_full_sum() {
        let mut pencils: Vec<(&str, CompanionPencil)> = benchmark_leads(0.0)
            .into_iter()
            .map(|(name, lead)| {
                let e = lead.dispersive_energy(1.1, 0.3, 0.3).expect("a dispersive band");
                (name, CompanionPencil::at_energy(&lead, e, 0.0))
            })
            .collect();
        pencils.push((
            "chain",
            CompanionPencil::at_energy(&LeadBlocks::chain_1d(0.0, -1.0), 0.4, 0.0),
        ));
        let ws = Workspace::new();
        for (name, pencil) in &pencils {
            assert!(pencil.is_real(), "{name}: kz = 0 and η = 0 give a real pencil");
            let mut real = ws.take_scratch(pencil.nbc(), 3);
            random_block(&mut real, true);
            let complex = ZMat::random(pencil.nbc(), 2, 8);
            for np in [12, 7] {
                let cfg = FeastConfig { np, ..FeastConfig::default() };
                let contour = Contour::factor(pencil, cfg, &ws).unwrap();
                assert_eq!(contour.nodes.len(), 2 * np.div_ceil(2), "{name}");
                let full = full_contour(pencil, cfg);
                for y in [&real, &complex] {
                    let mut stats = FeastStats::default();
                    let half = contour.apply(pencil, y, 0, &ws, &mut stats);
                    let reference = full_contour_sum(pencil, &full, y);
                    let rel = half.max_diff(&reference) / reference.norm_max();
                    assert!(rel < 1e-12, "{name}, np = {np}, {} columns: {rel:.2e}", y.cols());
                    assert_eq!(stats.linear_solves, contour.nodes.len());
                }
                contour.recycle_into(&ws);
            }
        }
    }

    #[test]
    fn broadened_momentum_and_complex_leads_are_not_real() {
        let chain = LeadBlocks::chain_1d(0.0, -1.0);
        assert!(CompanionPencil::at_energy(&chain, 0.4, 0.0).is_real());
        assert!(!CompanionPencil::at_energy(&chain, 0.4, 1e-6).is_real(), "η > 0");
        let (_, utb) = benchmark_leads(0.7).swap_remove(0);
        let e = utb.dispersive_energy(1.1, 0.3, 0.3).expect("a dispersive band");
        let pencil = CompanionPencil::at_energy(&utb, e, 0.0);
        assert!(pencil.is_hermitian() && !pencil.is_real(), "UTB film at kz = 0.7");
        let mut h00 = ZMat::random(5, 5, 61);
        h00.hermitianize();
        let lead =
            LeadBlocks::new(h00, ZMat::random(5, 5, 62), ZMat::identity(5), ZMat::zeros(5, 5));
        let pencil = CompanionPencil::at_energy(&lead, 0.1, 0.0);
        assert!(pencil.is_hermitian() && !pencil.is_real(), "random complex Hermitian lead");
    }

    #[test]
    fn feast_on_gapped_two_band_lead() {
        let h00 = ZMat::from_diag(&[c64(-1.5, 0.0), c64(1.5, 0.0)]);
        let h01 = ZMat::from_diag(&[c64(0.35, 0.0), c64(-0.35, 0.0)]);
        let lead = LeadBlocks::new(h00, h01, ZMat::identity(2), ZMat::zeros(2, 2));
        // Mid-gap: only evanescent pairs, still inside a generous annulus.
        let pencil = CompanionPencil::at_energy(&lead, 0.0, 0.0);
        let cfg = FeastConfig { r_outer: 8.0, np: 16, ..FeastConfig::default() };
        let (modes, _) = feast_annulus(&pencil, cfg).unwrap();
        assert!(!modes.is_empty(), "slow evanescent modes live in the annulus");
        for (lam, _) in &modes {
            assert!((lam.abs() - 1.0).abs() > 1e-3, "gap has no propagating modes");
        }
        // Reciprocal pairing λ ↔ 1/λ̄ of a Hermitian pencil.
        for (lam, _) in &modes {
            let partner = lam.conj().inv();
            assert!(
                modes.iter().any(|(l2, _)| (*l2 - partner).abs() < 1e-6),
                "missing reciprocal partner of {lam}"
            );
        }
    }
}
