//! The two-front battery's engine-level cases for a real pencil: at
//! `kz = 0` and a real energy the interior solve runs the Σ-late fronts,
//! whose real pivots are Schur complements of *closed* sub-chains. The
//! first one each front factors is a bare cell, `E·S_cc − H_cc`, so at an
//! eigenvalue of one cell (`eigh_generalized` of its real `H` and `S`) that
//! pivot is singular to rounding. The point must still come back solved —
//! by the pivoted factorization or by the ladder's broadened rung — with
//! the BTD-LU reference's transmission, on the 0.8 nm and the 1.5 nm wire.
//! A transmission-only point there runs the Σ-late corner, whose first
//! real pivots are the same bare cells: it must come back solved through
//! the Caroli kernel it falls back to. Away from them the corner, the
//! Caroli kernel and a BTD-LU solve for `G_{0,n−1}·P_R` give one `T` over
//! band scans of both wires and the DFT wire's ladder.

use qtx_atomistic::{BasisKind, DeviceBuilder};
use qtx_core::transport::{METHOD_BOUNDARY, METHOD_FAILED};
use qtx_core::{caroli_transmission, CachePolicy, Device, DeviceK, PointPolicy, TransportEngine};
use qtx_linalg::{eigh_generalized, Op, Vectors, ZMat};
use qtx_obc::{self_energy_pair, Eta, LeadModes};
use qtx_solver::{
    btd_lu_solve_ws, caroli_sweep_contacts, two_front_corner, CaroliContact, ObcSystem, Pencil,
    SolverKind, Workspace,
};
use qtx_sparse::broadening_factor_ws;

fn wire(diameter: f64) -> Device {
    let spec = DeviceBuilder::nanowire(diameter).cells(8).basis(BasisKind::TightBinding).build();
    Device::build(spec).unwrap()
}

/// `(T, method_used)` of a robust point at `e` on an engine over `device`.
fn point(device: &Device, e: f64) -> (f64, u8) {
    let engine = TransportEngine::builder(device.clone()).cache(CachePolicy::Off).build();
    let rs = engine.solve_point(e, 0.0, &PointPolicy::robust());
    let t = rs.result.map_or(f64::NAN, |r| r.transmission);
    (t, rs.outcome.method_used)
}

/// `(T, method_used)` of a transmission-only point at `e`.
fn tonly_point(device: &Device, e: f64) -> (f64, u8) {
    let engine = TransportEngine::builder(device.clone()).cache(CachePolicy::Off).build();
    let rs = engine.solve_point(e, 0.0, &PointPolicy::transmission_only());
    let t = rs.result.map_or(f64::NAN, |r| r.transmission);
    (t, rs.outcome.method_used)
}

#[test]
fn a_singular_cell_pivot_still_gives_the_reference_transmission() {
    for diameter in [0.8, 1.5] {
        let device = wire(diameter);
        let dk = device.at_kz(0.0);
        assert!(dk.chain_memo().real, "premise: the {diameter} nm wire's pencil is real at kz = 0");
        let mut reference = device.clone();
        reference.config.solver = SolverKind::BtdLu;
        // Every cell is the same cell: the middle one's eigenvalues are
        // the energies where each front's first pivot is singular,
        // wherever the cut falls.
        let mid = dk.h.num_blocks() / 2;
        let cell = eigh_generalized(&dk.h.diag[mid], &dk.s.diag[mid], Vectors::Skip).unwrap();
        let mut checked = 0;
        for &e in &cell.values {
            let (t_ref, _) = point(&reference, e);
            if t_ref.is_nan() || t_ref <= 0.5 {
                continue; // no open channel here: nothing for T to show
            }
            let (t, method) = point(&device, e);
            assert_ne!(method, METHOD_FAILED, "{diameter} nm at E = {e}: the point failed");
            assert!((t - t_ref).abs() < 1e-4, "{diameter} nm at E = {e}: T = {t} against {t_ref}");
            // The transmission-only point is solved (what a sweep records
            // as `STATUS_OK`), by the Caroli kernel the corner falls back
            // to: the very bits of the Caroli reference.
            let (t, method) = tonly_point(&device, e);
            assert_eq!(method, METHOD_BOUNDARY, "{diameter} nm at E = {e}: T-only point");
            assert!((t - t_ref).abs() < 1e-4, "{diameter} nm at E = {e}: T-only {t} vs {t_ref}");
            let caroli = caroli_transmission(&dk, e, device.config.obc).unwrap();
            assert_eq!(t.to_bits(), caroli.to_bits(), "{diameter} nm at E = {e}: no fallback");
            checked += 1;
            if checked == 3 {
                break;
            }
        }
        assert!(checked > 0, "{diameter} nm: no cell eigenvalue inside a band");
    }
}

/// `tr[K·M·K·Mᴴ]` for `K = [[0, iI], [−iI, 0]]`, written out.
fn trace_kmkmh(m: &ZMat) -> f64 {
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

/// `T` at `e` three ways over the same Σ and broadening factors (the
/// engine's: through the outgoing modes): the Σ-late corner, the Caroli
/// kernel, and `M = P_Lᴴ·ψ₀` from a BTD-LU solve with `P_R` injected at
/// the right contact. `None` where the lead solve fails.
fn three_routes(dk: &DeviceK, e: f64, device: &Device, ws: &Workspace) -> Option<[f64; 3]> {
    let (obc_l, obc_r) =
        self_energy_pair(&dk.lead_l, &dk.lead_r, e, Eta::ZERO, device.config.obc).ok()?;
    let s = dk.h.block_size();
    let [p_l, p_r] = [&obc_l, &obc_r].map(|obc| {
        let modes = LeadModes::mode_matrix(&obc.out_modes, s);
        broadening_factor_ws(&obc.sigma, Some(&modes), ws)
    });
    let left = CaroliContact { sigma: &obc_l.sigma, panel: &p_l };
    let right = CaroliContact { sigma: &obc_r.sigma, panel: &p_r };
    let memo = dk.chain_memo();
    let pencil = dk.pencil_on(&memo, e, 0.0);
    let support = &memo.support.coupling;
    let corner = two_front_corner(&pencil, left, right, support, Pencil::Real, ws).unwrap();
    let caroli = caroli_sweep_contacts(&pencil, left, right, support, ws).unwrap();
    let sys = ObcSystem {
        a: dk.es_minus_h(e),
        sigma_l: obc_l.sigma.clone(),
        sigma_r: obc_r.sigma.clone(),
        rhs_top: ZMat::zeros(s, 0),
        rhs_bottom: p_r.clone(),
    };
    let psi = btd_lu_solve_ws(&sys, ws).unwrap();
    let m = ws.matmul_op(&p_l, Op::Adjoint, &psi.block(0, 0, s, psi.cols()), Op::None);
    Some([corner, caroli, trace_kmkmh(&m)])
}

/// Energies a band scan solves: 400 across the lead's bands in an
/// optimized build (`cargo test --release`); every 25th of them in a debug
/// build, where the 1.5 nm wire's 400 would take about ten minutes.
const SCAN: usize = 400;
const SCAN_STRIDE: usize = if cfg!(debug_assertions) { 25 } else { 1 };

#[test]
fn the_corner_caroli_and_btd_lu_agree_over_band_scans() {
    const BOUND: f64 = 1e-10;
    let ws = Workspace::new();
    for diameter in [0.8, 1.5] {
        let spec = DeviceBuilder::nanowire(diameter).cells(32).basis(BasisKind::TightBinding);
        let device = Device::build(spec.build()).unwrap();
        let dk = device.at_kz(0.0);
        assert!(dk.chain_memo().real);
        let (lo, hi) = dk.lead_l.band_window(32);
        let (mut worst, mut solved) = (0.0f64, 0);
        for i in (0..SCAN).step_by(SCAN_STRIDE) {
            let e = lo + (hi - lo) * (i as f64 + 0.5) / SCAN as f64;
            let Some([corner, caroli, btd]) = three_routes(&dk, e, &device, &ws) else {
                continue;
            };
            let apart = (corner - caroli).abs().max((corner - btd).abs());
            assert!(apart <= BOUND, "{diameter} nm at E = {e}: {corner} {caroli} {btd}");
            worst = worst.max(apart);
            solved += 1;
        }
        let scanned = SCAN.div_ceil(SCAN_STRIDE);
        assert!(
            solved + scanned / 40 >= scanned,
            "{diameter} nm: {solved} of {scanned} lead solves"
        );
        println!("{diameter} nm wire: max |ΔT| {worst:.1e} over {solved} energies");
    }
    // The DFT wire's ladder (`record_digest`'s energies, without the ripple).
    let spec = DeviceBuilder::nanowire(1.0).cells(12).basis(BasisKind::Dft3sp).build();
    let device = Device::build(spec).unwrap();
    let dk = device.at_kz(0.0);
    assert!(dk.chain_memo().real);
    let e0 = dk.lead_l.dispersive_energy(1.1, 0.3, 0.3).expect("a dispersive band");
    for e in [e0, e0 + 0.02] {
        let [corner, caroli, btd] = three_routes(&dk, e, &device, &ws).expect("lead solve");
        let apart = (corner - caroli).abs().max((corner - btd).abs());
        assert!(apart <= BOUND, "DFT wire at E = {e}: {corner} {caroli} {btd}");
        assert!(corner > 0.5, "DFT wire at E = {e}: a conducting energy");
    }
}
