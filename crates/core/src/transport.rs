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
//! Σ-free Step 1 that factors it twice (below). Nothing overlaps the two
//! stages between points either: a sweep's pool runs whole points (or
//! chunks of them, `sweep.rs`) side by side, one per worker, each OBC then
//! interior solve in turn.
//!
//! Neither route to the transmission assembles `A`: the pencil
//! `(E + iη)·S − H` is streamed block by block ([`DeviceK::pencil_on`],
//! from the compact copy of `S` and `H` on their non-zeros) into an
//! elimination that touches each coupling block on its structural support
//! only and each contact on the rows its lead coupling reaches — all of it
//! energy-independent ([`DeviceK::chain_memo`]; the engine builds it once
//! per folded device and hands it down):
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
//!   the same streamed chain. The BTD-LU baseline is the exception: it
//!   factors an assembled copy of `A`.
//!   On a real pencil (`kz = 0` on a real basis at a real energy: one
//!   decision, `ChainMemo::real` and `z.im == 0.0`) the fronts run Σ-late,
//!   in real arithmetic up to the two contact blocks.
//! * **NEGF/Caroli** (Eq. 4): `T = Tr[Γ_L·G_{0,n−1}·Γ_R·G_{0,n−1}ᴴ]`
//!   through [`qtx_solver::two_front_corner`], with each `Γ = P·K·Pᴴ`
//!   entering through the thinner of its two exact factors — `2m` columns
//!   through the `m` outgoing lead modes Σ was assembled from, or the rows
//!   Σ occupies ([`qtx_sparse::broadening_factor_ws`]). Which kernel runs
//!   when:
//!   - a transmission-only point on a real pencil runs the Σ-late corner:
//!     `M = P_Lᴴ·G_{0,n−1}·P_R` from the wave-function solve's real sides,
//!     with no left injection and `P_R` injected on the right, and no ψ,
//!     back-substitution, residual or mode projection;
//!   - a transmission-only point on a complex pencil (`kz ≠ 0`), on a
//!     one-block chain, or where a real pivot is refused, runs the Caroli
//!     kernel ([`qtx_solver::caroli_sweep_contacts`]): one complex
//!     elimination front from each contact joined in a small system;
//!   - the reference routes ([`caroli_transmission`],
//!     [`caroli_from_sigmas`]) and the decimation rung always run the
//!     Caroli kernel, so the cross-check used throughout the test suite
//!     never shares the transmission-only point's real path.
//!
//!   Either way a transmission-only point is cheaper than a wave-function
//!   point of the same device (`docs/solver.md`, "Transmission-only on a
//!   real pencil").

use crate::cache::{self, CacheHandle};
use crate::device::{ChainMemo, DeviceK, TransportConfig};
use crate::error::{TransportError, TransportResult};
use qtx_accel::AccelRuntime;
use qtx_linalg::{c64, gemm_into, qr_factor_ws, Complex64, LinalgError, Op, QrFactors, ZMat};
use qtx_obc::{BeynConfig, LeadModes, ModeSet, ObcMethod, ObcResult};
use qtx_solver::{
    btd_lu_solve_ws, two_front_corner, two_front_solve, BoundaryTerms, CaroliContact, ObcSystem,
    Pencil, SolverKind, Workspace,
};
use qtx_sparse::{broadening_factor_ws, BlockChain, CouplingSupport, EsMinusH};
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
    /// A point a mode-free transmission route produced — the Σ-late corner
    /// or the Caroli kernel of a transmission-only point, or the decimation
    /// rung's Caroli kernel: one transmission for both directions, no
    /// reflection and no scattering states.
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

/// Expansion of boundary blocks over one lead's mode set: the set is
/// QR-factored once, on pooled scratch, and each block is a one-column
/// least-squares solve against the factors — the bits of factoring the
/// set anew for every block, without the factorization and the
/// allocations per block.
struct ModeProjection<'a> {
    modes: &'a [ModeSet],
    /// Factors of the `s × |modes|` mode matrix; `None` for no modes.
    qr: Option<QrFactors>,
    /// The block being projected (`s × 1`) and its coefficients.
    block: ZMat,
    coeffs: ZMat,
}

impl<'a> ModeProjection<'a> {
    fn new(modes: &'a [ModeSet], s: usize, ws: &Workspace) -> Self {
        let qr = (!modes.is_empty()).then(|| {
            let u = LeadModes::mode_matrix_ws(modes, s, ws);
            let qr = qr_factor_ws(&u, ws);
            ws.recycle(u);
            qr
        });
        let (block, coeffs) = (ws.take_scratch(s, 1), ws.take_scratch(modes.len(), 1));
        ModeProjection { modes, qr, block, coeffs }
    }

    /// `total += Σ |c_j|²` over the propagating modes `j` of the expansion
    /// `Σ_j c_j·u_j` of `block`, in mode order.
    fn add_propagating(
        &mut self,
        block: impl Iterator<Item = Complex64>,
        total: &mut f64,
        ws: &Workspace,
    ) {
        let Some(qr) = &self.qr else { return };
        for (b, v) in self.block.col_mut(0).iter_mut().zip(block) {
            *b = v;
        }
        qr.least_squares_into(self.block.view(), &mut self.coeffs, ws);
        for (c, m) in self.coeffs.col(0).iter().zip(self.modes) {
            if m.propagating {
                *total += c.norm_sqr();
            }
        }
    }

    fn recycle(self, ws: &Workspace) {
        if let Some(qr) = self.qr {
            qr.recycle_into(ws);
        }
        ws.recycle(self.block);
        ws.recycle(self.coeffs);
    }
}

/// The raw single-attempt entry: builds both lead self-energies (through
/// the cache when a handle is given) and runs the Eq. 5 solve with the
/// configured method at exact energy. `memo` is
/// [`DeviceK::chain_memo`] of `dk`.
pub(crate) fn solve_point_direct_on(
    dk: &DeviceK,
    memo: &ChainMemo,
    e: f64,
    cfg: &TransportConfig,
    cache: Option<&CacheHandle>,
) -> TransportResult<EnergyPointResult> {
    let (obc_l, obc_r) = cache::self_energy_pair_exact(cache, dk, e, cfg.obc)?;
    let states = scattering_states(dk, memo, e, 0.0, cfg, &obc_l, &obc_r)?;
    Ok(states.into_point(obc_l.sigma, obc_r.sigma).0)
}

/// [`solve_point_direct_on`] building the chain memo on the spot — for
/// one-shot callers; anything solving many points on one folded device
/// builds it once.
pub(crate) fn solve_point_direct(
    dk: &DeviceK,
    e: f64,
    cfg: &TransportConfig,
    cache: Option<&CacheHandle>,
) -> TransportResult<EnergyPointResult> {
    solve_point_direct_on(dk, &dk.chain_memo(), e, cfg, cache)
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
/// the sweep health report record. Builds the chain memo
/// ([`DeviceK::chain_memo`]) on the spot; the engine memoizes it per
/// folded device instead.
pub fn solve_with_obc_eta(
    dk: &DeviceK,
    e: f64,
    eta: f64,
    cfg: &TransportConfig,
    obc_l: &ObcResult,
    obc_r: &ObcResult,
) -> TransportResult<(EnergyPointResult, f64)> {
    let states = scattering_states(dk, &dk.chain_memo(), e, eta, cfg, obc_l, obc_r)?;
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
/// two-front solve streams the pencil; the BTD-LU baseline factors an
/// assembled copy.
fn scattering_states(
    dk: &DeviceK,
    memo: &ChainMemo,
    e: f64,
    eta: f64,
    cfg: &TransportConfig,
    obc_l: &ObcResult,
    obc_r: &ObcResult,
) -> TransportResult<ScatteringStates> {
    let pencil = dk.pencil_on(memo, e, eta);
    let boundary = BoundaryTerms {
        sigma_l: &obc_l.sigma,
        sigma_r: &obc_r.sigma,
        rhs_top: &obc_l.injection,
        rhs_bottom: &obc_r.injection,
    };
    // The baseline factors an assembled copy of `A`.
    let assembled = || ObcSystem {
        a: dk.es_minus_h_eta(e, eta),
        sigma_l: obc_l.sigma.clone(),
        sigma_r: obc_r.sigma.clone(),
        rhs_top: obc_l.injection.clone(),
        rhs_bottom: obc_r.injection.clone(),
    };
    let (psi, residual) = SOLVER_WS.with(|ws| -> TransportResult<(ZMat, f64)> {
        let psi = match cfg.solver {
            SolverKind::SplitSolve { partitions } => {
                let arith = arithmetic(memo, pencil.z);
                let coupling = &memo.support.coupling;
                two_front_solve(&pencil, coupling, &boundary, arith, partitions, ws)?
            }
            SolverKind::BtdLu => btd_lu_solve_ws(&assembled(), ws)?,
        };
        let residual = chain_residual(&pencil, &memo.support.coupling, &boundary, &psi, ws);
        Ok((psi, residual))
    })?;
    let s = pencil.block_size();
    let n = psi.rows();
    let m_left = obc_l.injection.cols();
    let m_right = obc_r.injection.cols();
    let (mut t_lr, mut r_l, mut t_rl) = (0.0, 0.0, 0.0);
    SOLVER_WS.with(|ws| {
        let mut onto_r = ModeProjection::new(&obc_r.out_modes, s, ws);
        let mut onto_l = ModeProjection::new(&obc_l.out_modes, s, ws);
        for j in 0..m_left {
            // Left→right: the last block on the right-going modes.
            onto_r.add_propagating(psi.col(j)[n - s..].iter().copied(), &mut t_lr, ws);
            // Reflection: the scattered part of the first block (the
            // incident mode subtracted) on the left-going modes.
            let inc = &obc_l.inc_modes[j];
            let first = psi.col(j)[..s].iter().zip(&inc.u).map(|(&p, &u)| p - u);
            onto_l.add_propagating(first, &mut r_l, ws);
        }
        // Right→left: right-injected columns on the left-going modes at the
        // first block.
        for j in 0..m_right {
            onto_l.add_propagating(psi.col(m_left + j)[..s].iter().copied(), &mut t_rl, ws);
        }
        onto_r.recycle(ws);
        onto_l.recycle(ws);
    });
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

/// The one decision between the arithmetics, read off the chain: a real
/// `S` and `H` ([`ChainMemo::real`]) at a real `z = E + iη` make a real
/// pencil.
fn arithmetic(memo: &ChainMemo, z: Complex64) -> Pencil {
    match memo.real && z.im == 0.0 {
        true => Pencil::Real,
        false => Pencil::Complex,
    }
}

/// Max-norm residual `‖T·ψ − b‖_max` evaluated block row by block row on
/// the streamed pencil; `T` is never assembled, let alone densified (the
/// `ObcSystem::residual` check does, which is fine for tests but not for
/// every sweep point).
///
/// A block acts column by column: each column's entries are evaluated
/// once — from the pencil's stored non-zeros ([`EsMinusH::diag_pattern`]),
/// or from the whole streamed column of a block too dense to store — and
/// applied to every right-hand side, exact zeros skipped. The couplings
/// act on their supports, gathered with `upper_on` / `lower_on`. Each
/// residual entry accumulates in a fixed order: the diagonal block's
/// columns ascending, then the upper and the lower coupling's support
/// columns ascending, then Σ and the injection — so it is the same bits
/// whether the pencil has a store or not. What this costs is reading `S`
/// and `H`, not the multiply-adds: at the benchmark's `m = 2` right-hand
/// sides a 1.5 nm wire point spends 8–10 ms here streaming the dense
/// blocks, 1.5 ms reading the store.
fn chain_residual(
    pencil: &EsMinusH<'_>,
    support: &[CouplingSupport],
    boundary: &BoundaryTerms<'_>,
    x: &ZMat,
    ws: &Workspace,
) -> f64 {
    let (s, nb, m) = (pencil.block_size(), pencil.num_blocks(), x.cols());
    if m == 0 {
        return 0.0;
    }
    let mut d = ws.take_scratch(s, s);
    let mut r = ws.take_scratch(s, m);
    let mut entries: Vec<(usize, Complex64)> = Vec::with_capacity(s);
    // `r[row, k] += a·x[xrow, k]` for every `(row, a)` of a column that is
    // not an exact zero, every right-hand side `k`.
    let apply = |r: &mut ZMat, xrow: usize, entries: &[(usize, Complex64)]| {
        for k in 0..m {
            let (xk, rk) = (x.col(k)[xrow], r.col_mut(k));
            for &(row, a) in entries {
                if a.re != 0.0 || a.im != 0.0 {
                    rk[row] += a * xk;
                }
            }
        }
    };
    let mut worst_sqr = 0.0f64;
    for i in 0..nb {
        r.as_mut_slice().fill(Complex64::ZERO);
        let pattern = pencil.diag_pattern(i);
        if pattern.is_none() {
            pencil.diag_into(i, &mut d);
        }
        for c in 0..s {
            entries.clear();
            match &pattern {
                Some(p) => entries.extend(p.column(c)),
                None => entries.extend(d.col(c).iter().copied().enumerate()),
            }
            apply(&mut r, i * s + c, &entries);
        }
        let couplings = [
            (i + 1 < nb).then(|| (&support[i].upper, i + 1)),
            (i > 0).then(|| (&support[i - 1].lower, i - 1)),
        ];
        for (on, from) in couplings.into_iter().flatten().filter(|(on, _)| !on.cols.is_empty()) {
            let mut u = ws.take_scratch(on.rows.len(), on.cols.len());
            if from > i {
                pencil.upper_on(i, on, &mut u);
            } else {
                pencil.lower_on(from, on, &mut u);
            }
            for (q, &c) in on.cols.iter().enumerate() {
                entries.clear();
                entries.extend(on.rows.iter().copied().zip(u.col(q).iter().copied()));
                apply(&mut r, from * s + c, &entries);
            }
            ws.recycle(u);
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
/// A FEAST solve that leaves a propagating mode unresolved is answered by
/// dense shift-invert at the same energy: there is no ladder here to
/// escalate to.
pub fn caroli_transmission(dk: &DeviceK, e: f64, obc: ObcMethod) -> TransportResult<f64> {
    let (obc_l, obc_r) = cache::self_energy_pair_exact(None, dk, e, obc)?;
    let contacts = [(&obc_l.sigma, &obc_l.out_modes[..]), (&obc_r.sigma, &obc_r.out_modes[..])];
    transmission_streamed(dk, e, 0.0, contacts, &dk.chain_memo(), Pencil::Complex)
}

/// Caroli transmission from already-computed self-energies that come
/// without lead modes (decimation, an outside source): each broadening
/// enters through the rows its Σ occupies. Builds the chain memo
/// ([`DeviceK::chain_memo`]) on the spot; the engine memoizes it per
/// folded device instead.
pub fn caroli_from_sigmas(
    dk: &DeviceK,
    e: f64,
    eta: f64,
    sigma_l: &ZMat,
    sigma_r: &ZMat,
) -> TransportResult<f64> {
    let contacts = [(sigma_l, &[][..]), (sigma_r, &[][..])];
    transmission_streamed(dk, e, eta, contacts, &dk.chain_memo(), Pencil::Complex)
}

/// One contact of the Caroli route: Σ, and the outgoing lead modes it was
/// assembled from (none for a mode-free Σ).
pub(crate) type CaroliSide<'a> = (&'a ZMat, &'a [ModeSet]);

/// The one streamed transmission route: `(E + iη)·S − H` streamed block
/// by block into [`two_front_corner`] in the arithmetic `arith` — the
/// Caroli kernel's two fronts under [`Pencil::Complex`], the Σ-late corner
/// under [`Pencil::Real`] — no `A` is assembled, no Green's function block
/// is formed, and every temporary cycles through the per-thread pool. Each broadening enters through the
/// thinner of its exact factors ([`broadening_factor_ws`]), a choice the
/// inputs fix: a cache hit, a miss and an uncached solve hand in the same
/// Σ and modes and get the same bits. `contacts` is `[left, right]`, `memo`
/// is [`DeviceK::chain_memo`] of `dk`. The reference routes
/// ([`caroli_transmission`], [`caroli_from_sigmas`]) and the decimation
/// rung pass [`Pencil::Complex`] whatever the chain, so the oracle never
/// shares the transmission-only point's kernel.
pub(crate) fn transmission_streamed(
    dk: &DeviceK,
    e: f64,
    eta: f64,
    contacts: [CaroliSide<'_>; 2],
    memo: &ChainMemo,
    arith: Pencil,
) -> TransportResult<f64> {
    let t = SOLVER_WS.with(|ws| {
        let [p_l, p_r] = contacts.map(|(sigma, out_modes)| {
            let modes = LeadModes::mode_matrix_ws(out_modes, sigma.rows(), ws);
            let panel = broadening_factor_ws(sigma, Some(&modes), ws);
            ws.recycle(modes);
            panel
        });
        let left = CaroliContact { sigma: contacts[0].0, panel: &p_l };
        let right = CaroliContact { sigma: contacts[1].0, panel: &p_r };
        let pencil = dk.pencil_on(memo, e, eta);
        let t = two_front_corner(&pencil, left, right, &memo.support.coupling, arith, ws);
        ws.recycle(p_l);
        ws.recycle(p_r);
        t
    })?;
    if !t.is_finite() {
        return Err(TransportError::Linalg(LinalgError::NonFinite { op: "caroli", count: 1 }));
    }
    Ok(t)
}

/// Transmission-only solve: Σ flows from the cache (or a fresh OBC solve)
/// straight into [`two_front_corner`], no scattering-state system and no
/// `A` is ever formed, and there is no residual and no mode projection. On
/// a real pencil (the [`arithmetic`] decision: `kz = 0` on a real basis)
/// the kernel is the Σ-late corner, `M = P_Lᴴ·G_{0,n−1}·P_R` from real
/// fronts: [`caroli_transmission`]'s `T` over the same self-energies to
/// rounding (≤ 2·10⁻¹¹ over band scans of the 0.8 and 1.5 nm wires); on a
/// complex pencil, on a one-block chain and where a
/// real pivot is refused it is the Caroli kernel, bit-identical to
/// [`caroli_transmission`]. The Caroli kernel's working set is a few
/// `s × s` blocks whatever the device length; the corner's sides keep each
/// real block's thin solve `[X̂_i | y_i]` (`s × (|C_l| + |C_u|)` reals), so
/// theirs grows with the length, at a fraction of one copy of `A`.
pub(crate) fn solve_point_transmission_only(
    dk: &DeviceK,
    e: f64,
    cfg: &TransportConfig,
    cache: Option<&CacheHandle>,
    memo: &ChainMemo,
) -> TransportResult<EnergyPointResult> {
    let (obc_l, obc_r) = cache::self_energy_pair_exact(cache, dk, e, cfg.obc)?;
    let channels = (
        obc_l.inc_modes.iter().filter(|m| m.propagating).count(),
        obc_r.inc_modes.iter().filter(|m| m.propagating).count(),
    );
    let contacts = [(&obc_l.sigma, &obc_l.out_modes[..]), (&obc_r.sigma, &obc_r.out_modes[..])];
    let arith = arithmetic(memo, c64(e, 0.0));
    let t = transmission_streamed(dk, e, 0.0, contacts, memo, arith)?;
    Ok(EnergyPointResult::caroli_only(e, dk.kz, t, channels, obc_l.sigma, obc_r.sigma))
}

// ---------------------------------------------------------------------------
// Per-point escalation ladder.
// ---------------------------------------------------------------------------

/// Broadening applied from the second rung on: large enough to step off a
/// resonance pole, small enough that `|T(E+iη) − T(E)|` stays far below
/// the transmission tolerances used throughout the test suite.
pub const ETA_BUMP: f64 = 1e-6;

/// Human-readable names of the ladder rungs, indexed by
/// [`PointOutcome::method_used`]. `boundary-caroli` sits *after* `failed`
/// so the rung codes of existing checkpoints stay valid — it is not a
/// ladder rung but the engine's transmission-only path, whichever kernel
/// ran it: the Σ-late corner on a real pencil, the Caroli kernel
/// otherwise (the name predates the corner and stays, like the code).
pub const LADDER_METHOD_NAMES: [&str; 8] = [
    "configured",
    "configured+eta",
    "feast-wide",
    "beyn",
    "shift-invert",
    "decimation-caroli",
    "failed",
    "boundary-caroli",
];

/// `method_used` value of the mode-free last-resort rung: a transmission,
/// no scattering states.
pub(crate) const METHOD_DECIMATION: u8 = 5;

/// `method_used` value marking a point every rung gave up on.
pub const METHOD_FAILED: u8 = 6;

/// `method_used` value of a transmission-only point, solved through
/// [`qtx_solver::two_front_corner`] (engine-only; never appears in sweep
/// records).
pub const METHOD_BOUNDARY: u8 = 7;

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
    /// (`η = 0`, no residual on record), over `wall_ms` of wall time.
    pub fn solved(result: EnergyPointResult, method_used: u8, wall_ms: f64) -> RobustSolve {
        RobustSolve {
            result: Some(result),
            outcome: PointOutcome {
                method_used,
                attempts: 1,
                escalations: 0,
                residual: 0.0,
                eta: 0.0,
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
    memo: &ChainMemo,
    e: f64,
    eta: f64,
    method: ObcMethod,
    cfg: &TransportConfig,
    cache: Option<&CacheHandle>,
) -> TransportResult<(EnergyPointResult, f64)> {
    let (obc_l, obc_r) = cache::self_energy_pair(cache, dk, e, eta, method)?;
    let states = scattering_states(dk, memo, e, eta, cfg, &obc_l, &obc_r)?;
    Ok(states.into_point(obc_l.sigma, obc_r.sigma))
}

/// Last-resort rung: Sancho–Rubio decimation Σ (no modes, so no
/// injection) + the NEGF/Caroli transmission. The returned point carries
/// an empty `psi`; observables needing wave functions see zero columns.
fn decimation_caroli_rung(
    dk: &DeviceK,
    memo: &ChainMemo,
    e: f64,
    cache: Option<&CacheHandle>,
) -> TransportResult<EnergyPointResult> {
    let (obc_l, obc_r) = cache::self_energy_pair(cache, dk, e, ETA_BUMP, ObcMethod::Decimation)?;
    let contacts = [(&obc_l.sigma, &[][..]), (&obc_r.sigma, &[][..])];
    let t = transmission_streamed(dk, e, ETA_BUMP, contacts, memo, Pencil::Complex)?;
    Ok(EnergyPointResult::caroli_only(e, dk.kz, t, (0, 0), obc_l.sigma, obc_r.sigma))
}

/// The escalation ladder behind [`crate::PointPolicy::robust`] and every
/// sweep point: walks the rungs until one produces a finite answer,
/// recording every attempt. The first rung is bit-identical to
/// [`solve_point_direct`], so a healthy sweep matches the plain solve
/// exactly. Exhausted points and any rung that errors are never cached —
/// only accepted solves are.
pub(crate) fn solve_point_robust_raw(
    dk: &DeviceK,
    memo: &ChainMemo,
    e: f64,
    cfg: &TransportConfig,
    cache: Option<&CacheHandle>,
) -> RobustSolve {
    let start = Instant::now();
    let mut attempts: u16 = 0;
    let mut last_err: Option<TransportError> = None;
    for (code, eta, method) in ladder_rungs(cfg) {
        attempts += 1;
        match try_rung(dk, memo, e, eta, method, cfg, cache) {
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
    let mut rs = match decimation_caroli_rung(dk, memo, e, cache) {
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
    use qtx_obc::{self_energy_pair, Eta, FeastConfig};

    /// The residual loop before the compact store: every diagonal block
    /// streamed dense and read entry by entry, the couplings entry by entry
    /// on their supports. The store-backed residual must keep its bits.
    fn chain_residual_reference<C: BlockChain>(
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

    /// The benchmark's four device shapes under a small potential ripple:
    /// the UTB film, the 0.8 nm wire, the 1.5 nm wire of 128 cells and the
    /// DFT 1.0 nm wire of 12 cells. Built once for the tests that read them.
    fn benchmark_shapes() -> &'static [(&'static str, DeviceK)] {
        static SHAPES: std::sync::OnceLock<Vec<(&'static str, DeviceK)>> =
            std::sync::OnceLock::new();
        SHAPES.get_or_init(|| {
            let tb = BasisKind::TightBinding;
            let specs = [
                ("utb", DeviceBuilder::utb(0.8).cells(8).basis(tb).build()),
                ("nw08", DeviceBuilder::nanowire(0.8).cells(8).basis(tb).build()),
                ("nw15x128", DeviceBuilder::nanowire(1.5).cells(128).basis(tb).build()),
                ("dft10", DeviceBuilder::nanowire(1.0).cells(12).basis(BasisKind::Dft3sp).build()),
            ];
            let fold = |(name, spec)| {
                let mut dev = Device::build(spec).unwrap();
                let v: Vec<f64> = (0..dev.n_slabs).map(|q| 0.02 * (0.7 * q as f64).sin()).collect();
                dev.set_potential(&v);
                (name, dev.at_kz(0.0))
            };
            specs.into_iter().map(fold).collect()
        })
    }

    /// `‖T·ψ − b‖_max` from the assembled blocks, every product dense.
    fn dense_residual(a: &qtx_sparse::Btd, boundary: &BoundaryTerms<'_>, x: &ZMat) -> f64 {
        let (s, nb, m) = (a.block_size(), a.num_blocks(), x.cols());
        let block = |j: usize| ZMat::from_fn(s, m, |r, c| x[(j * s + r, c)]);
        let b = ZMat::from_fn(nb * s, m, |r, c| {
            let (top, bottom, mt) =
                (boundary.rhs_top, boundary.rhs_bottom, boundary.rhs_top.cols());
            match (r < s, r >= (nb - 1) * s, c < mt) {
                (true, _, true) => top[(r, c)],
                (_, true, false) => bottom[(r - (nb - 1) * s, c - mt)],
                _ => Complex64::ZERO,
            }
        });
        let mut worst = 0.0f64;
        for i in 0..nb {
            let mut r = &a.diag[i] * &block(i);
            if i + 1 < nb {
                r = &r + &(&a.upper[i] * &block(i + 1));
            }
            if i > 0 {
                r = &r + &(&a.lower[i - 1] * &block(i - 1));
            }
            if i == 0 {
                r = &r - &(boundary.sigma_l * &block(0));
            }
            if i == nb - 1 {
                r = &r - &(boundary.sigma_r * &block(nb - 1));
            }
            let bi = ZMat::from_fn(s, m, |row, c| b[(i * s + row, c)]);
            worst = worst.max((&r - &bi).norm_max());
        }
        worst
    }

    #[test]
    fn the_residual_on_the_store_is_the_dense_loops_bits() {
        let ws = Workspace::new();
        for (name, dk) in benchmark_shapes() {
            let (s, n) = (dk.h.block_size(), dk.n_ss());
            let memo = dk.chain_memo();
            for (k, (e, eta, ml, mr)) in
                [(-0.3, 0.0, 1, 1), (1.7, 0.0, 2, 1), (0.9, 1e-6, 0, 2)].into_iter().enumerate()
            {
                let seed = 40 + 10 * k as u64;
                let (sigma_l, sigma_r) = (ZMat::random(s, s, seed), ZMat::random(s, s, seed + 1));
                let (top, bottom) = (ZMat::random(s, ml, seed + 2), ZMat::random(s, mr, seed + 3));
                let boundary = BoundaryTerms {
                    sigma_l: &sigma_l,
                    sigma_r: &sigma_r,
                    rhs_top: &top,
                    rhs_bottom: &bottom,
                };
                let psi = ZMat::random(n, ml + mr, seed + 4);
                let coupling = &memo.support.coupling;
                let got =
                    chain_residual(&dk.pencil_on(&memo, e, eta), coupling, &boundary, &psi, &ws);
                let want =
                    chain_residual_reference(&dk.pencil(e, eta), coupling, &boundary, &psi, &ws);
                assert_eq!(got.to_bits(), want.to_bits(), "{name} E={e} η={eta}");
                let dense = dense_residual(&dk.es_minus_h_eta(e, eta), &boundary, &psi);
                assert!((got - dense).abs() <= 1e-12 * dense, "{name}: {got} vs {dense}");
            }
        }
    }

    #[test]
    fn the_store_is_a_fraction_of_the_dense_blocks() {
        let shapes = benchmark_shapes();
        let memo_of = |name: &str| {
            let (_, dk) = shapes.iter().find(|(n, _)| *n == name).unwrap();
            let (nb, s) = (dk.h.num_blocks(), dk.h.block_size());
            // `S` and `H`: `nb` diagonal and `2·(nb − 1)` coupling blocks each.
            let dense = 2 * (3 * nb - 2) * s * s * std::mem::size_of::<Complex64>();
            (dk.chain_memo().store, nb, dense)
        };
        let (long, nb, dense) = memo_of("nw15x128");
        assert_eq!(long.diag_blocks_held(), nb);
        assert_eq!(long.coupling_blocks_held(), 2 * (nb - 1));
        assert!(10 * long.bytes() <= dense, "{} of {dense} bytes", long.bytes());
        // The DFT wire's diagonal blocks are 68 % non-zero: it builds no copy.
        let (dft, _, _) = memo_of("dft10");
        assert_eq!((dft.diag_blocks_held(), dft.coupling_blocks_held(), dft.bytes()), (0, 0, 0));
    }

    /// The projection before [`ModeProjection`]: the mode set copied and
    /// QR-factored anew for every block.
    fn project_onto_modes(modes: &[ModeSet], block: &[Complex64]) -> Vec<Complex64> {
        if modes.is_empty() {
            return Vec::new();
        }
        let u = ZMat::from_fn(block.len(), modes.len(), |i, j| modes[j].u[i]);
        let b = ZMat::from_fn(block.len(), 1, |i, _| block[i]);
        qtx_linalg::qr_least_squares(&u, &b).col(0).to_vec()
    }

    #[test]
    fn a_mode_set_factored_once_projects_in_the_per_block_bits() {
        let ws = Workspace::new();
        for (s, n_modes, seed) in [(90, 3, 1), (26, 8, 2), (252, 20, 3), (20, 0, 4), (12, 12, 5)] {
            let modes: Vec<ModeSet> = (0..n_modes)
                .map(|j| ModeSet {
                    lambda: Complex64::ONE,
                    u: ZMat::random(s, 1, seed * 100 + j as u64).col(0).to_vec(),
                    velocity: 0.0,
                    propagating: j % 3 != 1,
                })
                .collect();
            let mut projection = ModeProjection::new(&modes, s, &ws);
            let (mut got, mut want) = (0.0, 0.0);
            for k in 0..5 {
                let block = ZMat::random(s, 1, seed * 100 + 50 + k);
                projection.add_propagating(block.col(0).iter().copied(), &mut got, &ws);
                let coeffs = project_onto_modes(&modes, block.col(0));
                for (c, m) in coeffs.iter().zip(&modes) {
                    if m.propagating {
                        want += c.norm_sqr();
                    }
                }
                assert_eq!(got.to_bits(), want.to_bits(), "s={s} modes={n_modes} block {k}");
            }
            projection.recycle(&ws);
        }
    }

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
        // fresh-allocation count must not move over 50 warm points.
        let d = chain_device();
        let dk = d.at_kz(0.0);
        let memo = dk.chain_memo();
        let e0 = probe_energies(&dk.lead_l, 1)[0];
        let point = |i: usize| {
            let e = e0 + 1e-3 * (i % 7) as f64;
            solve_point_transmission_only(&dk, e, &d.config, None, &memo).unwrap()
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
        assert_eq!(after, before);
    }

    #[test]
    fn wave_function_points_keep_the_thread_pool_flat() {
        // The streamed SplitSolve and the residual borrow every temporary
        // from this thread's pool and hand it back: warm points neither
        // grow nor drain it.
        let d = chain_device();
        let dk = d.at_kz(0.0);
        let memo = dk.chain_memo();
        let e0 = probe_energies(&dk.lead_l, 1)[0];
        let point = |i: usize| {
            let e = e0 + 1e-3 * (i % 5) as f64;
            solve_point_robust_raw(&dk, &memo, e, &d.config, None).result.unwrap()
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
        // The public entry builds its memo itself: same bits.
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
        for solver in [SolverKind::SplitSolve { partitions: 2 }, SolverKind::BtdLu] {
            let mut cfg = d.config;
            cfg.solver = solver;
            results.push(solve_point_direct(&dk, e, &cfg, None).unwrap().transmission);
        }
        assert!((results[0] - results[1]).abs() < 1e-8, "{results:?}");
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
