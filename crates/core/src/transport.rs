//! One (E, k) transport pixel: OBCs + Eq. 5 solve + observables.
//!
//! A point runs in sequence on the thread that picked it up: first the OBC
//! layer produces `Σ^RB` and `Inj` for both contacts (one lead-mode solve
//! when the two leads are the same bytes — [`qtx_obc::self_energy_pair`]),
//! then the interior solve consumes them. The paper overlaps the two —
//! Step 1 of SplitSolve only needs `A = E·S − H`, so it runs on the GPUs
//! while FEAST produces the boundary conditions on the CPUs (Fig. 6's
//! timeline) — this code does not: on the two cores it is measured on
//! FEAST already spreads its quadrature nodes over both and a sweep
//! already runs two points abreast, so there is no idle core for a second
//! stage to fill. With Σ in hand before the interior solve starts, that
//! solve folds Σ in and factors each pivot block once instead of keeping a
//! Σ-free Step 1 that factors it twice (below). The only
//! overlap is between points: a batched sweep with a Σ-cache splits each
//! chunk into a Σ-prefetch task and a dependent interior task, so one
//! chunk's OBC work runs beside another's interior solves on the pool
//! (`sweep.rs`).
//!
//! Neither route to the transmission assembles `A`: the pencil
//! `(E + iη)·S − H` is streamed block by block ([`DeviceK::pencil`]) into
//! an elimination that touches each coupling block on its structural
//! support only and each contact on the rows its lead coupling reaches
//! ([`DeviceK::chain_support`], energy-independent — the engine computes
//! it once per folded device and hands it down):
//!
//! * **Wave function** (Eq. 5): `SolverKind::SplitSolve { partitions }`
//!   runs [`qtx_solver::two_front_solve`] — Σ folded into the end blocks,
//!   one elimination front from each contact carrying its own injection
//!   columns, each pivot block factored once, a small tip system at a cut
//!   derived from the chain's shape alone (so a record stays a function of
//!   its point), and a thin back-substitution outward from it. SplitSolve
//!   proper keeps its Step 1 free of Σ and factors every block twice for
//!   it; here Σ is known before the solve starts, so that buys nothing.
//!   `partitions` only says whether the two fronts may run side by side.
//!   The outgoing block is projected on the lead modes and `|t|²` summed
//!   over propagating channels (flux-normalized modes make the amplitudes
//!   probabilities directly). The residual `‖T·ψ − Inj‖_max` is read off
//!   the same streamed chain. The BTD-LU and BCR baselines are the
//!   exception: they factor an assembled copy of `A`.
//! * **NEGF/Caroli** (Eq. 4): `T = Tr[Γ_L·G_{0,n−1}·Γ_R·G_{0,n−1}ᴴ]` via
//!   the two-front kernel [`qtx_solver::caroli_sweep_contacts`]: one
//!   elimination front from each contact, each block factored once, the
//!   two joined in a small system inside the device. Each `Γ = P·K·Pᴴ`
//!   enters through the thinner of its two exact factors — `2m` columns
//!   through the `m` outgoing lead modes Σ was assembled from, or the rows
//!   Σ occupies ([`CompressedSigma::broadening_factor_ws`]). The
//!   cross-check used throughout the test suite, and the whole of a
//!   transmission-only point — which this makes cheaper than a
//!   wave-function point of the same device.

use crate::cache::{self, CacheHandle};
use crate::device::{DeviceK, TransportConfig};
use crate::error::{TransportError, TransportResult};
use qtx_accel::AccelRuntime;
use qtx_linalg::{gemm_into, qr_least_squares, Complex64, LinalgError, Op, ZMat};
use qtx_obc::{self_energy_pair, BeynConfig, Eta, LeadModes, ModeSet, ObcMethod, ObcResult};
use qtx_solver::{
    bcr_solve, btd_lu_solve_ws, caroli_sweep_contacts, two_front_solve, BoundaryTerms,
    CaroliContact, ObcSystem, SolverKind, Workspace,
};
use qtx_sparse::{BlockChain, ChainSupport, CompressedSigma, CouplingSupport};
use std::time::Instant;

thread_local! {
    /// Per-thread solver scratch pool: energy points swept on the same
    /// thread (the common sweep layout) recycle one set of block
    /// temporaries instead of reallocating them every point.
    static SOLVER_WS: Workspace = Workspace::new();
}

/// Everything computed at one (E, k) pixel.
#[derive(Debug, Clone)]
pub struct EnergyPointResult {
    /// Energy (eV).
    pub e: f64,
    /// Transverse momentum.
    pub kz: f64,
    /// Total left→right transmission (sum over incoming left modes).
    pub transmission: f64,
    /// Right→left transmission (= `transmission` at equilibrium symmetry).
    pub transmission_rl: f64,
    /// Total reflection of left-injected modes.
    pub reflection: f64,
    /// Propagating channel counts `(left lead, right lead)`.
    pub channels: (usize, usize),
    /// Scattering wave functions, one column per injected mode
    /// (left-injected columns first), `N_SS × (m_L + m_R)`.
    pub psi: ZMat,
    /// Number of left-injected columns inside `psi`.
    pub m_left: usize,
    /// The assembled system (kept for observable post-processing).
    pub sigma_l: ZMat,
    /// Right self-energy.
    pub sigma_r: ZMat,
}

impl EnergyPointResult {
    /// A point the mode-free Caroli route produced: one transmission for
    /// both directions, no reflection and no scattering states.
    pub(crate) fn caroli_only(
        e: f64,
        kz: f64,
        t: f64,
        channels: (usize, usize),
        sigma_l: ZMat,
        sigma_r: ZMat,
    ) -> EnergyPointResult {
        EnergyPointResult {
            e,
            kz,
            transmission: t,
            transmission_rl: t,
            reflection: 0.0,
            channels,
            psi: ZMat::zeros(0, 0),
            m_left: 0,
            sigma_l,
            sigma_r,
        }
    }
}

/// Expansion coefficients of a boundary block over a mode set.
fn project_onto_modes(modes: &[ModeSet], block: &[Complex64]) -> Vec<Complex64> {
    if modes.is_empty() {
        return Vec::new();
    }
    let nf = block.len();
    let mut u = ZMat::zeros(nf, modes.len());
    for (j, m) in modes.iter().enumerate() {
        for i in 0..nf {
            u[(i, j)] = m.u[i];
        }
    }
    let mut b = ZMat::zeros(nf, 1);
    b.col_mut(0).copy_from_slice(block);
    let c = qr_least_squares(&u, &b);
    c.col(0).to_vec()
}

/// The raw single-attempt entry: builds both lead self-energies (through
/// the cache when a handle is given) and runs the Eq. 5 solve with the
/// configured method at exact energy. `support` is
/// [`DeviceK::chain_support`] of `dk`.
pub(crate) fn solve_point_direct_on(
    dk: &DeviceK,
    support: &ChainSupport,
    e: f64,
    cfg: &TransportConfig,
    cache: Option<&CacheHandle>,
) -> TransportResult<EnergyPointResult> {
    let (obc_l, obc_r) = cache::self_energy_pair(cache, dk, e, 0.0, cfg.obc, 0.0)?;
    let (obc_l, obc_r) = (obc_l.into_result(), obc_r.into_result());
    let states = scattering_states(dk, support, e, 0.0, cfg, &obc_l, &obc_r)?;
    Ok(states.into_point(obc_l.sigma, obc_r.sigma).0)
}

/// [`solve_point_direct_on`] deriving the chain's structure on the spot —
/// for one-shot callers; anything solving many points on one folded
/// device computes them once.
pub(crate) fn solve_point_direct(
    dk: &DeviceK,
    e: f64,
    cfg: &TransportConfig,
    cache: Option<&CacheHandle>,
) -> TransportResult<EnergyPointResult> {
    solve_point_direct_on(dk, &dk.chain_support(), e, cfg, cache)
}

/// Inner solve with precomputed OBCs (lets the sweep reuse them and lets
/// tests swap algorithms).
///
/// `_rt` is not read: no interior solve the engine runs is accounted on
/// the virtual accelerators (`repro_fig6`/`repro_fig12` draw SplitSolve's
/// timeline themselves). The argument stays only because the frozen
/// benchmark calls this entry with it, until the benchmark is re-frozen
/// and the virtual hardware leaves the hot path.
pub fn solve_with_obc(
    dk: &DeviceK,
    e: f64,
    cfg: &TransportConfig,
    obc_l: &ObcResult,
    obc_r: &ObcResult,
    _rt: Option<&AccelRuntime>,
) -> TransportResult<EnergyPointResult> {
    Ok(solve_with_obc_eta(dk, e, 0.0, cfg, obc_l, obc_r)?.0)
}

/// [`solve_with_obc`] at finite broadening `η` (the system becomes
/// `(E + iη)S − H − Σ`), additionally returning the max-norm residual of
/// the scattering states — the quality figure the escalation ladder and
/// the sweep health report record. Derives the chain's structure on the
/// spot; the engine memoizes it per folded device instead.
pub fn solve_with_obc_eta(
    dk: &DeviceK,
    e: f64,
    eta: f64,
    cfg: &TransportConfig,
    obc_l: &ObcResult,
    obc_r: &ObcResult,
) -> TransportResult<(EnergyPointResult, f64)> {
    let states = scattering_states(dk, &dk.chain_support(), e, eta, cfg, obc_l, obc_r)?;
    Ok(states.into_point(obc_l.sigma.clone(), obc_r.sigma.clone()))
}

/// Everything the Eq. 5 solve produces at one point, short of the
/// self-energies the caller already holds.
struct ScatteringStates {
    e: f64,
    kz: f64,
    t_lr: f64,
    t_rl: f64,
    r_l: f64,
    channels: (usize, usize),
    psi: ZMat,
    residual: f64,
}

impl ScatteringStates {
    /// The point's result (which owns its self-energies) and residual.
    fn into_point(self, sigma_l: ZMat, sigma_r: ZMat) -> (EnergyPointResult, f64) {
        let point = EnergyPointResult {
            e: self.e,
            kz: self.kz,
            transmission: self.t_lr,
            transmission_rl: self.t_rl,
            reflection: self.r_l,
            channels: self.channels,
            psi: self.psi,
            m_left: self.channels.0,
            sigma_l,
            sigma_r,
        };
        (point, self.residual)
    }
}

/// The Eq. 5 solve at `(E + iη)` and what is read off its solution: the
/// mode-projected transmissions and reflection, and the residual. The
/// two-front solve streams the pencil; the BTD-LU and BCR baselines factor
/// an assembled copy.
fn scattering_states(
    dk: &DeviceK,
    support: &ChainSupport,
    e: f64,
    eta: f64,
    cfg: &TransportConfig,
    obc_l: &ObcResult,
    obc_r: &ObcResult,
) -> TransportResult<ScatteringStates> {
    let pencil = dk.pencil(e, eta);
    let boundary = BoundaryTerms {
        sigma_l: &obc_l.sigma,
        sigma_r: &obc_r.sigma,
        rhs_top: &obc_l.injection,
        rhs_bottom: &obc_r.injection,
    };
    // The baselines factor an assembled copy of `A`.
    let assembled = || ObcSystem {
        a: dk.es_minus_h_eta(e, eta),
        sigma_l: obc_l.sigma.clone().into(),
        sigma_r: obc_r.sigma.clone().into(),
        rhs_top: obc_l.injection.clone(),
        rhs_bottom: obc_r.injection.clone(),
    };
    let (psi, residual) = SOLVER_WS.with(|ws| -> TransportResult<(ZMat, f64)> {
        let psi = match cfg.solver {
            SolverKind::SplitSolve { partitions } => {
                two_front_solve(&pencil, &support.coupling, &boundary, partitions, ws)?
            }
            SolverKind::BtdLu => btd_lu_solve_ws(&assembled(), ws)?,
            SolverKind::Bcr => bcr_solve(&assembled())?,
        };
        let residual = chain_residual(&pencil, &support.coupling, &boundary, &psi, ws);
        Ok((psi, residual))
    })?;
    let s = pencil.block_size();
    let n = psi.rows();
    let m_left = obc_l.injection.cols();
    let m_right = obc_r.injection.cols();
    // Left→right: project the last block on the right-going mode set.
    let mut t_lr = 0.0;
    let mut r_l = 0.0;
    for j in 0..m_left {
        let last: Vec<Complex64> = (0..s).map(|i| psi[(n - s + i, j)]).collect();
        let coeffs = project_onto_modes(&obc_r.out_modes, &last);
        for (c, m) in coeffs.iter().zip(&obc_r.out_modes) {
            if m.propagating {
                t_lr += c.norm_sqr();
            }
        }
        // Reflection: scattered part of the first block over left-going
        // modes (subtract the incident mode).
        let inc = &obc_l.inc_modes[j];
        let first: Vec<Complex64> = (0..s).map(|i| psi[(i, j)] - inc.u[i]).collect();
        let rc = project_onto_modes(&obc_l.out_modes, &first);
        for (c, m) in rc.iter().zip(&obc_l.out_modes) {
            if m.propagating {
                r_l += c.norm_sqr();
            }
        }
    }
    // Right→left: right-injected columns projected on left-going modes at
    // the first block.
    let mut t_rl = 0.0;
    for j in 0..m_right {
        let col = m_left + j;
        let first: Vec<Complex64> = (0..s).map(|i| psi[(i, col)]).collect();
        let coeffs = project_onto_modes(&obc_l.out_modes, &first);
        for (c, m) in coeffs.iter().zip(&obc_l.out_modes) {
            if m.propagating {
                t_rl += c.norm_sqr();
            }
        }
    }
    if !(t_lr.is_finite() && t_rl.is_finite() && r_l.is_finite()) {
        return Err(TransportError::Linalg(LinalgError::NonFinite {
            op: "transmission",
            count: 1,
        }));
    }
    Ok(ScatteringStates {
        e,
        kz: dk.kz,
        t_lr,
        t_rl,
        r_l,
        channels: (m_left, m_right),
        psi,
        residual,
    })
}

/// Max-norm residual `‖T·ψ − b‖_max` evaluated block row by block row on
/// the streamed chain; `T` is never assembled, let alone densified (the
/// `ObcSystem::residual` check does, which is fine for tests but not for
/// every sweep point). The couplings act on their supports only, and every
/// block acts entry by entry with the exact zeros skipped: a tight-binding
/// slab fills a few percent of its diagonal block, so most of the
/// `n_b·s²·m` products never happen.
fn chain_residual<C: BlockChain>(
    chain: &C,
    support: &[CouplingSupport],
    boundary: &BoundaryTerms<'_>,
    x: &ZMat,
    ws: &Workspace,
) -> f64 {
    let (s, nb, m) = (chain.block_size(), chain.num_blocks(), x.cols());
    if m == 0 {
        return 0.0;
    }
    let mut d = ws.take_scratch(s, s);
    let mut r = ws.take_scratch(s, m);
    // Row `c` of a block of `x`, contiguous.
    let mut x_row = vec![Complex64::ZERO; m];
    let load_row = |x_row: &mut [Complex64], block: usize, c: usize| {
        for (k, xk) in x_row.iter_mut().enumerate() {
            *xk = x.col(k)[block * s + c];
        }
    };
    // `r[row, :] += a·x_row` unless `a` is an exact zero.
    let add = |r: &mut ZMat, row: usize, a: Complex64, x_row: &[Complex64]| {
        if a.re != 0.0 || a.im != 0.0 {
            for (k, &xk) in x_row.iter().enumerate() {
                r[(row, k)] += a * xk;
            }
        }
    };
    let mut worst_sqr = 0.0f64;
    for i in 0..nb {
        chain.diag_into(i, &mut d);
        r.as_mut_slice().fill(Complex64::ZERO);
        for c in 0..s {
            load_row(&mut x_row, i, c);
            for (row, &a) in d.col(c).iter().enumerate() {
                add(&mut r, row, a, &x_row);
            }
        }
        if i + 1 < nb {
            let on = &support[i].upper;
            for &c in &on.cols {
                load_row(&mut x_row, i + 1, c);
                for &row in &on.rows {
                    add(&mut r, row, chain.upper_at(i, row, c), &x_row);
                }
            }
        }
        if i > 0 {
            let on = &support[i - 1].lower;
            for &c in &on.cols {
                load_row(&mut x_row, i - 1, c);
                for &row in &on.rows {
                    add(&mut r, row, chain.lower_at(i - 1, row, c), &x_row);
                }
            }
        }
        for (edge, sigma, rhs, col0) in [
            (0, boundary.sigma_l, boundary.rhs_top, 0),
            (nb - 1, boundary.sigma_r, boundary.rhs_bottom, boundary.rhs_top.cols()),
        ] {
            if i != edge {
                continue;
            }
            let xi = x.block_view(i * s, 0, s, m);
            gemm_into(
                -Complex64::ONE,
                sigma.view(),
                Op::None,
                xi,
                Op::None,
                Complex64::ONE,
                r.view_mut(),
            );
            for c in 0..rhs.cols() {
                for (ri, &bi) in r.col_mut(col0 + c).iter_mut().zip(rhs.col(c)) {
                    *ri -= bi;
                }
            }
        }
        // One square root at the end instead of a `hypot` per entry.
        worst_sqr = r.as_slice().iter().map(|z| z.norm_sqr()).fold(worst_sqr, f64::max);
    }
    ws.recycle(d);
    ws.recycle(r);
    worst_sqr.sqrt()
}

/// NEGF/Caroli transmission through the two-front kernel (Eq. 4 route).
pub fn caroli_transmission(dk: &DeviceK, e: f64, obc: ObcMethod) -> TransportResult<f64> {
    let (obc_l, obc_r) = self_energy_pair(&dk.lead_l, &dk.lead_r, e, Eta::ZERO, obc)
        .map_err(|(side, source)| TransportError::Obc { side, source })?;
    let (sigma_l, sigma_r) = (obc_l.sigma.into(), obc_r.sigma.into());
    let contacts = [(&sigma_l, &obc_l.out_modes[..]), (&sigma_r, &obc_r.out_modes[..])];
    caroli_streamed(dk, e, 0.0, contacts, &dk.coupling_support())
}

/// Caroli transmission from already-computed self-energies that come
/// without lead modes (decimation, interpolation, an outside source): each
/// broadening enters through the rows its Σ occupies. Derives the coupling
/// supports on the spot; the engine memoizes them per folded device
/// instead.
pub fn caroli_from_sigmas(
    dk: &DeviceK,
    e: f64,
    eta: f64,
    sigma_l: &CompressedSigma,
    sigma_r: &CompressedSigma,
) -> TransportResult<f64> {
    caroli_streamed(dk, e, eta, [(sigma_l, &[]), (sigma_r, &[])], &dk.coupling_support())
}

/// One contact of the Caroli route: Σ as it travelled, and the outgoing
/// lead modes it was assembled from (none for a mode-free Σ).
pub(crate) type CaroliSide<'a> = (&'a CompressedSigma, &'a [ModeSet]);

/// The one Caroli route: `(E + iη)·S − H` streamed block by block into
/// the two elimination fronts of [`caroli_sweep_contacts`] — no `A` is
/// assembled, no Green's function block is formed, a factored Σ is never
/// expanded, and every temporary cycles through the per-thread pool. Each
/// broadening enters through the thinner of its exact factors
/// ([`CompressedSigma::broadening_factor_ws`]), a choice the inputs fix:
/// a cache hit, a miss and an uncached solve hand in the same Σ and modes
/// and get the same bits. `contacts` is `[left, right]`, `support` is
/// [`DeviceK::coupling_support`] of `dk`.
pub(crate) fn caroli_streamed(
    dk: &DeviceK,
    e: f64,
    eta: f64,
    contacts: [CaroliSide<'_>; 2],
    support: &[CouplingSupport],
) -> TransportResult<f64> {
    let t = SOLVER_WS.with(|ws| {
        let [p_l, p_r] = contacts.map(|(sigma, out_modes)| {
            let modes = LeadModes::mode_matrix_ws(out_modes, sigma.dim(), ws);
            let panel = sigma.broadening_factor_ws(Some(&modes), ws);
            ws.recycle(modes);
            panel
        });
        let left = CaroliContact { sigma: contacts[0].0, panel: &p_l };
        let right = CaroliContact { sigma: contacts[1].0, panel: &p_r };
        let t = caroli_sweep_contacts(&dk.pencil(e, eta), left, right, support, ws);
        ws.recycle(p_l);
        ws.recycle(p_r);
        t
    })?;
    if !t.is_finite() {
        return Err(TransportError::Linalg(LinalgError::NonFinite { op: "caroli", count: 1 }));
    }
    Ok(t)
}

/// Transmission-only solve through the two-front Caroli kernel: Σ flows
/// from the cache (or a fresh OBC solve) in its compressed representation
/// straight into the kernel, no scattering-state system and no `A` is ever
/// formed, and the dense working set is a few `s × s` blocks whatever the
/// device length. Returns the point plus the worse of the two
/// Σ-compression bounds (0 when compression is off — then the
/// transmission is bit-identical to [`caroli_transmission`] over the same
/// self-energies).
pub(crate) fn solve_point_transmission_only(
    dk: &DeviceK,
    e: f64,
    cfg: &TransportConfig,
    cache: Option<&CacheHandle>,
    compress_tol: f64,
    support: &ChainSupport,
) -> TransportResult<(EnergyPointResult, f64)> {
    let (parts_l, parts_r) = cache::self_energy_pair(cache, dk, e, 0.0, cfg.obc, compress_tol)?;
    let bound = parts_l.sigma.bound().max(parts_r.sigma.bound());
    let channels = (
        parts_l.inc_modes.iter().filter(|m| m.propagating).count(),
        parts_r.inc_modes.iter().filter(|m| m.propagating).count(),
    );
    let contacts =
        [(&parts_l.sigma, &parts_l.out_modes[..]), (&parts_r.sigma, &parts_r.out_modes[..])];
    let t = caroli_streamed(dk, e, 0.0, contacts, &support.coupling)?;
    let (sigma_l, sigma_r) = (parts_l.sigma.into_dense(), parts_r.sigma.into_dense());
    Ok((EnergyPointResult::caroli_only(e, dk.kz, t, channels, sigma_l, sigma_r), bound))
}

// ---------------------------------------------------------------------------
// Per-point escalation ladder.
// ---------------------------------------------------------------------------

/// Broadening applied from the second rung on: large enough to step off a
/// resonance pole, small enough that `|T(E+iη) − T(E)|` stays far below
/// the transmission tolerances used throughout the test suite.
pub const ETA_BUMP: f64 = 1e-6;

/// Human-readable names of the ladder rungs, indexed by
/// [`PointOutcome::method_used`]. `cache-interp` sits *after* `failed` so
/// the rung codes of existing checkpoints stay valid — it is not a ladder
/// rung but the engine's interpolated-Σ fast path.
pub const LADDER_METHOD_NAMES: [&str; 9] = [
    "configured",
    "configured+eta",
    "feast-wide",
    "beyn",
    "shift-invert",
    "decimation-caroli",
    "failed",
    "cache-interp",
    "boundary-caroli",
];

/// `method_used` value of the mode-free last-resort rung: a transmission,
/// no scattering states.
pub(crate) const METHOD_DECIMATION: u8 = 5;

/// `method_used` value marking a point every rung gave up on.
pub const METHOD_FAILED: u8 = 6;

/// `method_used` value of a point served from interpolated cached
/// self-energies (engine-only; never appears in sweep records).
pub const METHOD_CACHE_INTERP: u8 = 7;

/// `method_used` value of a transmission-only point solved through the
/// two-front Caroli kernel with compressed self-energies (engine-only;
/// never appears in sweep records).
pub const METHOD_BOUNDARY: u8 = 8;

/// Robustness record of one (E, k) point: which rung produced the
/// result, how hard the ladder had to work, and how good the answer is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointOutcome {
    /// Index into [`LADDER_METHOD_NAMES`] of the method that succeeded
    /// ([`METHOD_FAILED`] when none did).
    pub method_used: u8,
    /// Total solve attempts, the first one included.
    pub attempts: u16,
    /// Ladder steps taken beyond the configured method.
    pub escalations: u16,
    /// Max-norm residual of the accepted scattering states
    /// (`+inf` for a failed point, `0` for the mode-free Caroli rung).
    pub residual: f64,
    /// Broadening η the accepted attempt ran with.
    pub eta: f64,
    /// Recorded error bound of the interpolated self-energies when
    /// `method_used == METHOD_CACHE_INTERP` (the worse of the two sides);
    /// `0` for every real solve.
    pub interp_bound: f64,
    /// Wall time spent on the point, all attempts included (ms). Excluded
    /// from checkpoint identity — timing is not physics.
    pub wall_ms: f64,
}

impl PointOutcome {
    /// Rung name for logs and health reports.
    pub fn method_name(&self) -> &'static str {
        LADDER_METHOD_NAMES[(self.method_used as usize).min(LADDER_METHOD_NAMES.len() - 1)]
    }

    /// True when the configured method did not produce this point.
    pub fn escalated(&self) -> bool {
        self.method_used != 0
    }

    /// True when no rung produced the point.
    pub fn failed(&self) -> bool {
        self.method_used == METHOD_FAILED
    }
}

/// Result of a robust (escalation-ladder) solve: the point (if any rung
/// succeeded), the ladder record, and the terminal error when exhausted.
#[derive(Debug)]
pub struct RobustSolve {
    /// The accepted solve, `None` when every rung failed.
    pub result: Option<EnergyPointResult>,
    /// The ladder record — always present, success or not.
    pub outcome: PointOutcome,
    /// The last rung's error when `result` is `None`.
    pub error: Option<TransportError>,
}

/// Milliseconds since `start`, the unit of [`PointOutcome::wall_ms`].
pub(crate) fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

impl RobustSolve {
    /// A point `method_used` produced in one attempt at exact energy
    /// (`η = 0`, no residual or interpolation bound on record), over
    /// `wall_ms` of wall time.
    pub fn solved(result: EnergyPointResult, method_used: u8, wall_ms: f64) -> RobustSolve {
        RobustSolve {
            result: Some(result),
            outcome: PointOutcome {
                method_used,
                attempts: 1,
                escalations: 0,
                residual: 0.0,
                eta: 0.0,
                interp_bound: 0.0,
                wall_ms,
            },
            error: None,
        }
    }

    /// A point nothing produced: [`METHOD_FAILED`] after `attempts` solve
    /// attempts over `wall_ms`, with the error that ended it.
    pub fn failed(error: TransportError, attempts: u16, wall_ms: f64) -> RobustSolve {
        RobustSolve {
            result: None,
            outcome: PointOutcome {
                method_used: METHOD_FAILED,
                attempts,
                escalations: 0,
                residual: f64::INFINITY,
                eta: 0.0,
                interp_bound: 0.0,
                wall_ms,
            },
            error: Some(error),
        }
    }

    /// Collapses into a plain `Result`, discarding the ladder record.
    pub fn into_result(self) -> TransportResult<EnergyPointResult> {
        match self.result {
            Some(r) => Ok(r),
            None => Err(self.error.unwrap_or(TransportError::Panic {
                what: "robust solve failed without error".into(),
            })),
        }
    }
}

/// The rungs tried in order: configured method at exact energy, the same
/// with broadening, a wider FEAST quadrature (when FEAST is configured),
/// the Beyn single-shot contour, then dense shift-invert. Rungs equal to
/// an earlier one are skipped. The Sancho–Rubio + Caroli last resort is
/// handled separately (it produces no scattering states).
fn ladder_rungs(cfg: &TransportConfig) -> Vec<(u8, f64, ObcMethod)> {
    let mut rungs = vec![(0u8, 0.0, cfg.obc), (1, ETA_BUMP, cfg.obc)];
    if let ObcMethod::Feast(fc) = cfg.obc {
        let mut wide = fc;
        wide.np *= 2;
        wide.max_refine = fc.max_refine.max(1) * 2;
        rungs.push((2, ETA_BUMP, ObcMethod::Feast(wide)));
    }
    if !matches!(cfg.obc, ObcMethod::Beyn(_)) {
        rungs.push((3, ETA_BUMP, ObcMethod::Beyn(BeynConfig::default())));
    }
    if cfg.obc != ObcMethod::ShiftInvert {
        rungs.push((4, ETA_BUMP, ObcMethod::ShiftInvert));
    }
    rungs
}

/// One ladder attempt: OBCs and Eq. 5 with the given method/broadening.
/// Each rung consults the cache at its *own* (η, method) key, so an
/// escalated re-solve never aliases the exact-energy entry.
fn try_rung(
    dk: &DeviceK,
    support: &ChainSupport,
    e: f64,
    eta: f64,
    method: ObcMethod,
    cfg: &TransportConfig,
    cache: Option<&CacheHandle>,
) -> TransportResult<(EnergyPointResult, f64)> {
    let (obc_l, obc_r) = cache::self_energy_pair(cache, dk, e, eta, method, 0.0)?;
    let (obc_l, obc_r) = (obc_l.into_result(), obc_r.into_result());
    let states = scattering_states(dk, support, e, eta, cfg, &obc_l, &obc_r)?;
    Ok(states.into_point(obc_l.sigma, obc_r.sigma))
}

/// Last-resort rung: Sancho–Rubio decimation Σ (no modes, so no
/// injection) + the NEGF/Caroli transmission. The returned point carries
/// an empty `psi`; observables needing wave functions see zero columns.
fn decimation_caroli_rung(
    dk: &DeviceK,
    support: &ChainSupport,
    e: f64,
    cache: Option<&CacheHandle>,
) -> TransportResult<EnergyPointResult> {
    let (obc_l, obc_r) =
        cache::self_energy_pair(cache, dk, e, ETA_BUMP, ObcMethod::Decimation, 0.0)?;
    let contacts = [(&obc_l.sigma, &[][..]), (&obc_r.sigma, &[][..])];
    let t = caroli_streamed(dk, e, ETA_BUMP, contacts, &support.coupling)?;
    let (sigma_l, sigma_r) = (obc_l.sigma.into_dense(), obc_r.sigma.into_dense());
    Ok(EnergyPointResult::caroli_only(e, dk.kz, t, (0, 0), sigma_l, sigma_r))
}

/// The escalation ladder behind [`crate::PointPolicy::robust`] and every
/// sweep point: walks the rungs until one produces a finite answer,
/// recording every attempt. The first rung is bit-identical to
/// [`solve_point_direct`], so a healthy sweep matches the plain solve
/// exactly. Exhausted points and any rung that errors are never cached —
/// only accepted solves are.
pub(crate) fn solve_point_robust_raw(
    dk: &DeviceK,
    support: &ChainSupport,
    e: f64,
    cfg: &TransportConfig,
    cache: Option<&CacheHandle>,
) -> RobustSolve {
    let start = Instant::now();
    let mut attempts: u16 = 0;
    let mut last_err: Option<TransportError> = None;
    for (code, eta, method) in ladder_rungs(cfg) {
        attempts += 1;
        match try_rung(dk, support, e, eta, method, cfg, cache) {
            Ok((result, residual)) => {
                let mut rs = RobustSolve::solved(result, code, ms_since(start));
                rs.outcome = PointOutcome {
                    attempts,
                    escalations: attempts - 1,
                    residual,
                    eta,
                    ..rs.outcome
                };
                return rs;
            }
            Err(err) => last_err = Some(err),
        }
    }
    attempts += 1;
    let mut rs = match decimation_caroli_rung(dk, support, e, cache) {
        Ok(result) => RobustSolve::solved(result, METHOD_DECIMATION, ms_since(start)),
        Err(err) => RobustSolve::failed(
            TransportError::Exhausted {
                e,
                kz: dk.kz,
                attempts: attempts as u32,
                last: Box::new(last_err.unwrap_or(err)),
            },
            attempts,
            ms_since(start),
        ),
    };
    rs.outcome = PointOutcome { attempts, escalations: attempts - 1, eta: ETA_BUMP, ..rs.outcome };
    rs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;
    use qtx_atomistic::{BasisKind, DeviceBuilder};
    use qtx_obc::FeastConfig;

    fn chain_device() -> Device {
        let spec = DeviceBuilder::nanowire(0.8).cells(8).basis(BasisKind::TightBinding).build();
        Device::build(spec).unwrap()
    }

    /// Energies guaranteed to cross a *dispersive* conduction band
    /// (flat passivation bands carry no current and are skipped).
    fn probe_energies(lead: &qtx_obc::LeadBlocks, n: usize) -> Vec<f64> {
        let mut out = Vec::new();
        for i in 0..n {
            let k = 0.6 + 0.5 * i as f64;
            if let Some(e) = lead.dispersive_energy(k, 0.2, 0.3) {
                out.push(e);
            }
        }
        assert!(!out.is_empty(), "no conduction band found");
        out
    }

    #[test]
    fn clean_device_transmission_is_integer_channels() {
        // Ballistic homogeneous wire: T(E) equals the number of
        // propagating channels and reflection vanishes.
        let d = chain_device();
        let dk = d.at_kz(0.0);
        for e in probe_energies(&dk.lead_l, 2) {
            let r = solve_point_direct(&dk, e, &d.config, None).unwrap();
            assert!(r.channels.0 > 0, "E={e} should propagate");
            assert!(
                (r.transmission - r.channels.0 as f64).abs() < 1e-6,
                "E={e}: T={} vs channels {}",
                r.transmission,
                r.channels.0
            );
            assert!(r.reflection < 1e-6, "E={e}: R={}", r.reflection);
        }
    }

    #[test]
    fn gap_energy_transmits_nothing() {
        let d = chain_device();
        let dk = d.at_kz(0.0);
        let r = solve_point_direct(&dk, 0.0, &d.config, None).unwrap();
        assert_eq!(r.channels.0, 0);
        assert_eq!(r.transmission, 0.0);
    }

    #[test]
    fn wavefunction_matches_caroli() {
        let mut d = chain_device();
        // A potential barrier makes the comparison non-trivial (T < N).
        let mut v = vec![0.0; d.n_slabs];
        for (q, vq) in v.iter_mut().enumerate() {
            if (3..5).contains(&q) {
                *vq = 0.3;
            }
        }
        d.set_potential(&v);
        let dk = d.at_kz(0.0);
        for e in probe_energies(&dk.lead_l, 3) {
            let wf = solve_point_direct(&dk, e, &d.config, None).unwrap();
            let neg = caroli_transmission(&dk, e, d.config.obc).unwrap();
            assert!(
                (wf.transmission - neg).abs() < 1e-5,
                "E={e}: WF {} vs Caroli {neg}",
                wf.transmission
            );
            if wf.channels.0 > 0 {
                assert!(wf.transmission < wf.channels.0 as f64, "barrier must reflect");
                // Unitarity: T + R = channel count.
                assert!(
                    (wf.transmission + wf.reflection - wf.channels.0 as f64).abs() < 1e-6,
                    "E={e}: T+R = {}",
                    wf.transmission + wf.reflection
                );
            }
        }
    }

    #[test]
    fn transmission_only_points_keep_the_thread_pool_flat() {
        // Regression for the ≈ nb·s² bytes a transmission-only point used
        // to leave in this thread's pool: the pool's population and its
        // fresh-allocation count must not move over 50 warm points, for a
        // dense and for a factored Σ.
        let d = chain_device();
        let dk = d.at_kz(0.0);
        let support = dk.chain_support();
        let e0 = probe_energies(&dk.lead_l, 1)[0];
        for tol in [0.0, 1e-8] {
            let point = |i: usize| {
                let e = e0 + 1e-3 * (i % 7) as f64;
                solve_point_transmission_only(&dk, e, &d.config, None, tol, &support).unwrap().0
            };
            let first = point(0);
            point(1);
            let before = SOLVER_WS.with(|ws| (ws.pooled(), ws.fresh_allocations()));
            for i in 0..50 {
                let r = point(i);
                if i % 7 == 0 {
                    assert_eq!(r.transmission, first.transmission, "point {i}");
                }
            }
            let after = SOLVER_WS.with(|ws| (ws.pooled(), ws.fresh_allocations()));
            assert_eq!(after, before, "tol={tol}");
        }
    }

    #[test]
    fn wave_function_points_keep_the_thread_pool_flat() {
        // The streamed SplitSolve and the residual borrow every temporary
        // from this thread's pool and hand it back: warm points neither
        // grow nor drain it.
        let d = chain_device();
        let dk = d.at_kz(0.0);
        let support = dk.chain_support();
        let e0 = probe_energies(&dk.lead_l, 1)[0];
        let point = |i: usize| {
            let e = e0 + 1e-3 * (i % 5) as f64;
            solve_point_robust_raw(&dk, &support, e, &d.config, None).result.unwrap()
        };
        let first = point(0);
        point(1);
        let before = SOLVER_WS.with(|ws| (ws.pooled(), ws.fresh_allocations()));
        for i in 0..20 {
            let r = point(i);
            if i % 5 == 0 {
                assert_eq!(r.transmission, first.transmission, "point {i}");
                assert_eq!(r.psi, first.psi, "point {i}");
            }
        }
        assert_eq!(SOLVER_WS.with(|ws| (ws.pooled(), ws.fresh_allocations())), before);
        // The public entry scans the supports itself: same bits.
        let (obc_l, obc_r) = self_energy_pair(&dk.lead_l, &dk.lead_r, e0, Eta::ZERO, d.config.obc)
            .map_err(|(_, e)| e)
            .unwrap();
        let public = solve_with_obc(&dk, e0, &d.config, &obc_l, &obc_r, None).unwrap();
        assert_eq!(public.psi, first.psi);
    }

    #[test]
    fn solver_kinds_agree() {
        let mut d = chain_device();
        let v: Vec<f64> = (0..d.n_slabs).map(|q| 0.05 * q as f64).collect();
        d.set_potential(&v);
        let dk = d.at_kz(0.0);
        let e = probe_energies(&dk.lead_l, 1)[0] + 0.11;
        let mut results = Vec::new();
        for solver in [SolverKind::SplitSolve { partitions: 2 }, SolverKind::BtdLu, SolverKind::Bcr]
        {
            let mut cfg = d.config;
            cfg.solver = solver;
            results.push(solve_point_direct(&dk, e, &cfg, None).unwrap().transmission);
        }
        assert!((results[0] - results[1]).abs() < 1e-8, "{results:?}");
        assert!((results[0] - results[2]).abs() < 1e-8, "{results:?}");
    }

    #[test]
    fn feast_obc_matches_shift_invert_end_to_end() {
        let d = chain_device();
        let dk = d.at_kz(0.0);
        let e = probe_energies(&dk.lead_l, 1)[0];
        let mut cfg_feast = d.config;
        cfg_feast.obc = qtx_obc::ObcMethod::Feast(FeastConfig::default());
        let mut cfg_si = d.config;
        cfg_si.obc = qtx_obc::ObcMethod::ShiftInvert;
        let t_feast = solve_point_direct(&dk, e, &cfg_feast, None).unwrap().transmission;
        let t_si = solve_point_direct(&dk, e, &cfg_si, None).unwrap().transmission;
        assert!((t_feast - t_si).abs() < 1e-6, "{t_feast} vs {t_si}");
    }

    #[test]
    fn left_right_symmetry_at_zero_bias() {
        let mut d = chain_device();
        let mut v = vec![0.0; d.n_slabs];
        v[4] = 0.2;
        d.set_potential(&v);
        let dk = d.at_kz(0.0);
        let e = probe_energies(&dk.lead_l, 1)[0] + 0.07;
        let r = solve_point_direct(&dk, e, &d.config, None).unwrap();
        assert!(
            (r.transmission - r.transmission_rl).abs() < 1e-6,
            "L→R {} vs R→L {}",
            r.transmission,
            r.transmission_rl
        );
    }
}
