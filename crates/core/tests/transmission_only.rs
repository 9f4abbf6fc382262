//! Acceptance battery for the transmission-only path: T(E) bit-identical
//! to the Caroli reference on a complex pencil and within
//! [`REAL_PENCIL_TOL`] of it on a real one (where the point runs the
//! Σ-late corner), a working set independent of the device length, a pool
//! that stays flat over many points, and bit-identical results on any
//! thread, cache hit or miss.

use qtx_atomistic::{BasisKind, DeviceBuilder};
use qtx_core::engine::{PointPolicy, TransportEngine};
use qtx_core::{
    caroli_transmission, transport, BatchOptions, Device, DeviceK, Scheduler, SchedulerConfig,
    SweepPlan, TaskAttempt, TransportConfig, TransportError, METHOD_BOUNDARY,
};
use qtx_linalg::{c64, gemm, Complex64, Op, ZMat};
use qtx_obc::{LeadBlocks, LeadModes, ObcMethod};
use qtx_solver::{
    caroli_sweep, caroli_sweep_contacts, two_front_corner, CaroliContact, Pencil, Workspace,
};
use qtx_sparse::{
    broadening_factor_ws, live_matrix_bytes, peak_matrix_bytes, reset_peak_matrix_bytes, Btd,
};
use std::sync::{Arc, Mutex, MutexGuard};

/// How far a transmission-only point on a real pencil (`kz = 0` on a real
/// basis: the Σ-late corner) may sit from the Caroli kernel's `T` over the
/// same self-energies. Named before it was measured.
const REAL_PENCIL_TOL: f64 = 1e-12;

/// The peak-byte counter is process-global; every test that reads it (or
/// allocates heavily enough to disturb a concurrent reader) serializes
/// here.
static PEAK_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    PEAK_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn nanowire(cells: usize) -> Device {
    let spec = DeviceBuilder::nanowire(0.8).cells(cells).basis(BasisKind::TightBinding).build();
    Device::build(spec).unwrap()
}

/// An 8-orbital lead whose inter-cell coupling has rank 2, so
/// `Σ = τ·g·τᴴ` is genuinely low-rank and compression has something to
/// shed (a full-rank coupling would only exercise the dense fallback).
fn block_lead() -> LeadBlocks {
    let nf = 8;
    let mut h00 = ZMat::zeros(nf, nf);
    let r = ZMat::random(nf, nf, 11);
    for i in 0..nf {
        for j in 0..nf {
            h00[(i, j)] = 0.1 * (r[(i, j)] + r[(j, i)].conj());
        }
        h00[(i, i)] += c64(2.0 + i as f64 * 0.1, 0.0);
    }
    let a = ZMat::random(nf, 2, 13);
    let b = ZMat::random(nf, 2, 17);
    let mut h01 = ZMat::zeros(nf, nf);
    gemm(c64(0.2, 0.0), &a, Op::None, &b, Op::Adjoint, Complex64::ZERO, &mut h01);
    LeadBlocks::new(h00, h01, ZMat::identity(nf), ZMat::zeros(nf, nf))
}

/// A homogeneous chain of `nb` copies of the block lead's unit cell,
/// assembled by hand the way external pipelines feed `from_device_k`.
fn block_device_k(nb: usize) -> DeviceK {
    let lead = block_lead();
    let s = lead.h00.rows();
    let mut h = Btd::zeros(nb, s);
    let mut ov = Btd::zeros(nb, s);
    for i in 0..nb {
        h.diag[i] = lead.h00.clone();
        ov.diag[i] = ZMat::identity(s);
    }
    for i in 0..nb - 1 {
        h.upper[i] = lead.h01.clone();
        h.lower[i] = lead.h01.adjoint();
    }
    DeviceK { lead_l: lead.clone(), lead_r: lead, h, s: ov, kz: 0.0 }
}

#[test]
fn uncompressed_boundary_path_is_bit_identical_to_caroli() {
    let _guard = lock();
    // A complex pencil (the UTB film off Γ) runs the Caroli kernel itself:
    // the very bits of the reference. A real one (the wire at Γ) runs the
    // Σ-late corner: the reference's T to rounding.
    let utb =
        Device::build(DeviceBuilder::utb(0.8).cells(8).basis(BasisKind::TightBinding).build())
            .unwrap();
    for (d, kz) in [(utb, 0.7), (nanowire(8), 0.0)] {
        let dk = d.at_kz(kz);
        let real = dk.chain_memo().real;
        assert_eq!(real, kz == 0.0, "premise: kz = {kz} makes the pencil real or complex");
        let e = dk.lead_l.dispersive_energy(1.0, 0.2, 0.3).expect("conduction band");
        let reference = caroli_transmission(&dk, e, d.config.obc).unwrap();
        let engine = TransportEngine::builder(d).cache(qtx_core::CachePolicy::Off).build();
        let rs = engine.solve_point(e, kz, &PointPolicy::transmission_only());
        assert_eq!(rs.outcome.method_used, METHOD_BOUNDARY);
        assert_eq!(rs.outcome.method_name(), "boundary-caroli");
        let r = rs.into_result().unwrap();
        if real {
            let off = (r.transmission - reference).abs();
            assert!(off <= REAL_PENCIL_TOL, "{} against {reference}", r.transmission);
        } else {
            assert_eq!(r.transmission, reference, "a complex pencil's point is the Caroli bits");
        }
        assert!(r.transmission > 0.5, "conduction band must transmit");
        // The transmission-only point carries no scattering states.
        assert_eq!(r.psi.rows(), 0);
    }
}

#[test]
fn clean_wire_transmits_its_channel_count() {
    let _guard = lock();
    let d = nanowire(8);
    let lead = d.at_kz(0.0).lead_l;
    let engine = TransportEngine::builder(d).cache(qtx_core::CachePolicy::Off).build();
    let mut open_channels = 0;
    for k in [0.7, 1.2, 1.7] {
        let Some(e) = lead.dispersive_energy(k, 0.2, 0.3) else { continue };
        let r = engine.solve_point(e, 0.0, &PointPolicy::transmission_only());
        let r = r.into_result().unwrap();
        assert_eq!(r.channels.0, r.channels.1, "homogeneous wire");
        assert!(
            (r.transmission - r.channels.0 as f64).abs() < 1e-6,
            "E={e}: T={} with {} open channels",
            r.transmission,
            r.channels.0
        );
        open_channels += r.channels.0;
    }
    assert!(open_channels > 0, "no probe energy hit a conducting band");
}

#[test]
fn streamed_point_matches_the_assembled_system_bit_for_bit() {
    let _guard = lock();
    // The engine streams E·S − H block by block; handing the kernel the
    // assembled A with the same boundary inputs — Σ and the broadening
    // factor through the outgoing modes it was built from — must give the
    // very same bits.
    let mut d = nanowire(8);
    let v: Vec<f64> = (0..d.n_slabs).map(|q| 0.03 * q as f64).collect();
    d.set_potential(&v);
    let dk = d.at_kz(0.0);
    let e = dk.lead_l.dispersive_energy(1.0, 0.2, 0.3).expect("conduction band") + 0.05;
    let obc = d.config.obc;
    let engine = TransportEngine::builder(d).cache(qtx_core::CachePolicy::Off).build();
    let r = engine.solve_point(e, 0.0, &PointPolicy::transmission_only()).into_result().unwrap();
    let ws = Workspace::new();
    let (obc_l, obc_r) =
        qtx_obc::self_energy_pair(&dk.lead_l, &dk.lead_r, e, qtx_obc::Eta::ZERO, obc).unwrap();
    assert_eq!((&obc_l.sigma, &obc_r.sigma), (&r.sigma_l, &r.sigma_r));
    let s = dk.h.block_size();
    let [(sigma_l, p_l), (sigma_r, p_r)] = [obc_l, obc_r].map(|obc| {
        let modes = LeadModes::mode_matrix(&obc.out_modes, s);
        let panel = broadening_factor_ws(&obc.sigma, Some(&modes), &ws);
        (obc.sigma, panel)
    });
    // The FEAST modes are fewer than the rows Σ occupies: the engine ran on
    // the mode-thin factor, and so does this.
    assert!(p_l.cols() < broadening_factor_ws(&sigma_l, None, &ws).cols());
    // The wire's pencil at Γ is real: the point ran the Σ-late corner.
    assert!(dk.chain_memo().real);
    let (left, right) = (
        CaroliContact { sigma: &sigma_l, panel: &p_l },
        CaroliContact { sigma: &sigma_r, panel: &p_r },
    );
    let support = dk.coupling_support();
    let a = dk.es_minus_h(e);
    let assembled = two_front_corner(&a, left, right, &support, Pencil::Real, &ws).unwrap();
    assert_eq!(r.transmission, assembled);
    let caroli = caroli_sweep_contacts(&a, left, right, &support, &ws).unwrap();
    assert!((caroli - assembled).abs() <= REAL_PENCIL_TOL, "{caroli} vs {assembled}");
    assert!(r.transmission > 0.0 && r.transmission < r.channels.0 as f64, "ramp must reflect");
    // The factor the rows of Σ give is the same Γ, hence the same T to
    // rounding.
    let by_rows = caroli_sweep(&a, &sigma_l, &sigma_r, &support, &ws).unwrap();
    assert!((by_rows - assembled).abs() < 1e-12, "{by_rows} vs {assembled}");
}

#[test]
fn point_is_bit_identical_on_any_thread() {
    let _guard = lock();
    let d = nanowire(8);
    let lead = d.at_kz(0.0).lead_l;
    let e0 = lead.dispersive_energy(1.0, 0.2, 0.3).expect("conduction band");
    let energies: Vec<f64> = (0..6).map(|i| e0 + 0.01 * i as f64).collect();
    let engine = Arc::new(TransportEngine::builder(d).cache(qtx_core::CachePolicy::Off).build());
    let solve = |engine: &TransportEngine, e: f64| -> u64 {
        let rs = engine.solve_point(e, 0.0, &PointPolicy::transmission_only());
        rs.into_result().unwrap().transmission.to_bits()
    };
    let here: Vec<u64> = energies.iter().map(|&e| solve(&engine, e)).collect();
    for workers in [1, 2, 4] {
        let pool = Scheduler::new(SchedulerConfig { workers });
        let engine = engine.clone();
        let reports = pool.execute(
            energies.clone(),
            &BatchOptions::default(),
            move |_, &e, _| TaskAttempt::Done(solve(&engine, e)),
            |_, _, _, _| 0,
        );
        let there: Vec<u64> = reports.iter().map(|r| r.value).collect();
        assert_eq!(there, here, "{workers}-worker pool");
    }
}

#[test]
fn off_momentum_query_is_a_config_error_not_a_panic() {
    let _guard = lock();
    let cfg = TransportConfig { obc: ObcMethod::Decimation, ..TransportConfig::default() };
    let engine = TransportEngine::from_device_k(block_device_k(4), cfg);
    for policy in [PointPolicy::transmission_only(), PointPolicy::robust()] {
        let rs = engine.solve_point(0.3, 0.5, &policy);
        assert!(rs.result.is_none());
        assert_eq!(rs.outcome.attempts, 0, "nothing was solved");
        match rs.error {
            Some(TransportError::Config { what }) => assert!(what.contains("kz=0.5"), "{what}"),
            other => panic!("expected a Config error, got {other:?}"),
        }
    }
    // Sweeps on the same engine are the same class of mistake.
    let plan = SweepPlan { k_points: vec![(0.0, 1.0)], energies: vec![vec![0.3]] };
    assert!(matches!(engine.sweep(&plan, 1), Err(TransportError::Config { .. })));
    // The seeded momentum still solves.
    assert!(engine.solve_point(0.3, 0.0, &PointPolicy::transmission_only()).error.is_none());
}

#[test]
fn boundary_path_agrees_with_wave_function_route() {
    let _guard = lock();
    let d = nanowire(8);
    let e = d.at_kz(0.0).lead_l.dispersive_energy(1.0, 0.2, 0.3).expect("conduction band");
    let engine = TransportEngine::builder(d).cache(qtx_core::CachePolicy::Off).build();
    let wf = engine.solve_point(e, 0.0, &PointPolicy::direct()).into_result().unwrap();
    let bd = engine.solve_point(e, 0.0, &PointPolicy::transmission_only()).into_result().unwrap();
    assert!(
        (wf.transmission - bd.transmission).abs() < 1e-6,
        "WF {} vs boundary {}",
        wf.transmission,
        bd.transmission
    );
}

#[test]
fn decimation_point_is_the_caroli_route_over_its_sigmas() {
    let _guard = lock();
    // A mode-free Σ (decimation) enters through the rows it occupies: the
    // engine's transmission-only point is the public Caroli entry over the
    // same two self-energies, bit for bit.
    let dk = block_device_k(12);
    let cfg = TransportConfig { obc: ObcMethod::Decimation, ..TransportConfig::default() };
    let e = 0.3;
    let engine = TransportEngine::from_device_k(block_device_k(12), cfg);
    let t = engine.solve_point(e, 0.0, &PointPolicy::transmission_only());
    let t = t.into_result().unwrap().transmission;
    let sigma = |lead: &LeadBlocks, side| {
        qtx_obc::self_energy(lead, e, qtx_obc::Eta(0.0), side, cfg.obc).unwrap().sigma
    };
    let (sig_l, sig_r) =
        (sigma(&dk.lead_l, qtx_obc::Side::Left), sigma(&dk.lead_r, qtx_obc::Side::Right));
    let t_dense = transport::caroli_from_sigmas(&dk, e, 0.0, &sig_l, &sig_r).unwrap();
    assert_eq!(t_dense, t, "engine pass must match the dense Caroli route");
}

#[test]
fn peak_matrix_bytes_scale_with_bandwidth_times_n() {
    let _guard = lock();
    let lengths = [16usize, 64];
    // Per length: bytes the device itself holds, and the high-water mark
    // of what one warm transmission-only point adds on top.
    let mut held = [0usize; 2];
    let mut working_set = [0usize; 2];
    for (slot, &nb) in lengths.iter().enumerate() {
        let cfg = TransportConfig { obc: ObcMethod::Decimation, ..TransportConfig::default() };
        let before = live_matrix_bytes();
        let engine = TransportEngine::from_device_k(block_device_k(nb), cfg);
        held[slot] = live_matrix_bytes() - before;
        // Warm up the thread-local workspace and the OBC machinery so the
        // measured pass sees steady-state allocation behavior.
        engine.solve_point(0.3, 0.0, &PointPolicy::transmission_only()).into_result().unwrap();
        reset_peak_matrix_bytes();
        let floor = live_matrix_bytes();
        engine.solve_point(0.3, 0.0, &PointPolicy::transmission_only()).into_result().unwrap();
        working_set[slot] = peak_matrix_bytes() - floor;
    }
    // The device (H, S and the leads) is the bandwidth·n part …
    let linear = (lengths[1] / lengths[0]) as f64;
    let held_ratio = held[1] as f64 / held[0] as f64;
    assert!(
        (0.8 * linear..1.2 * linear).contains(&held_ratio),
        "device bytes grew {held_ratio:.2}× over a {linear}× device (held: {held:?})"
    );
    // … and a point adds a working set that does not depend on n at all:
    // no assembled A, no chain of Green's function blocks.
    assert_eq!(
        working_set[0], working_set[1],
        "a transmission-only point's working set depends on the device length"
    );
    // It is a handful of s × s blocks (s = 8: 1 KiB each) — the OBC
    // solve's temporaries included — far below one copy of A (3·nb blocks).
    let block = 8 * 8 * std::mem::size_of::<Complex64>();
    assert!(working_set[1] > block, "the counter is not seeing the solve: {working_set:?}");
    assert!(
        working_set[1] < 3 * lengths[0] * block,
        "working set {} B reaches the size of an assembled A for nb = {}",
        working_set[1],
        lengths[0]
    );
}

/// `‖P·K·Pᴴ − i(Σ − Σᴴ)‖_max / ‖Σ‖_max` with `K = [[0, iI], [−iI, 0]]`.
fn gamma_defect(p: &ZMat, sigma: &ZMat) -> f64 {
    let (n, k) = (p.rows(), p.cols() / 2);
    let pk = ZMat::from_fn(n, 2 * k, |i, j| {
        if j < k {
            -Complex64::I * p[(i, k + j)]
        } else {
            Complex64::I * p[(i, j - k)]
        }
    });
    let mut rebuilt = ZMat::zeros(n, n);
    gemm(Complex64::ONE, &pk, Op::None, p, Op::Adjoint, Complex64::ZERO, &mut rebuilt);
    let gamma = &sigma.scaled(Complex64::I) - &sigma.adjoint().scaled(Complex64::I);
    rebuilt.max_diff(&gamma) / sigma.norm_max()
}

#[test]
fn mode_factor_is_exact_on_the_device_leads() {
    let _guard = lock();
    // The leads of the benchmark's devices (the DFT-basis one at the
    // smoke run's diameter): in band, at the band edge, and broadened.
    use BasisKind::{Dft3sp, TightBinding};
    let specs = [
        ("utb", DeviceBuilder::utb(0.8).cells(2).basis(TightBinding).build()),
        ("0.8 nm wire", DeviceBuilder::nanowire(0.8).cells(2).basis(TightBinding).build()),
        ("1.5 nm wire", DeviceBuilder::nanowire(1.5).cells(2).basis(TightBinding).build()),
        ("dft wire", DeviceBuilder::nanowire(0.6).cells(2).basis(Dft3sp).build()),
    ];
    let ws = Workspace::new();
    let mut thinner = 0;
    for (name, spec) in specs {
        let d = Device::build(spec).unwrap();
        let lead = d.at_kz(0.0).lead_l;
        let edge = lead.dispersive_band_min(0.1, 0.3).expect("conduction band");
        for (e, eta) in [(edge + 0.05, 0.0), (edge, 0.0), (edge + 0.05, 1e-6)] {
            let (obc_l, obc_r) =
                qtx_obc::self_energy_pair(&lead, &lead, e, qtx_obc::Eta(eta), d.config.obc)
                    .unwrap();
            for (side, obc) in [("left", obc_l), ("right", obc_r)] {
                let modes = LeadModes::mode_matrix(&obc.out_modes, lead.nf());
                let sigma = obc.sigma;
                let by_rows = broadening_factor_ws(&sigma, None, &ws).cols();
                let p = broadening_factor_ws(&sigma, Some(&modes), &ws);
                let case = format!("{name} {side} E={e} η={eta}: {} modes", modes.cols());
                if (1..by_rows / 2).contains(&modes.cols()) {
                    assert_eq!(p.cols(), 2 * modes.cols(), "{case}");
                    thinner += 1;
                } else {
                    assert_eq!(p.cols(), by_rows, "{case}");
                }
                let defect = gamma_defect(&p, &sigma);
                assert!(defect < 1e-12, "{case}: defect {defect:.1e}");
                ws.recycle(p);
            }
        }
    }
    assert!(thinner >= 16, "the mode factor was the thinner one {thinner} times of 24");
    // A shift-invert mode set is wider than FEAST's annulus: on the long
    // wire's lead the left contact (18 rows) keeps its row factor, the right
    // one (24 rows) still gains from the modes. Thinner of two, per side.
    // Its fast-decaying modes make `U` ill-conditioned, and `Σ = (Σ·Q)·Qᴴ`
    // then holds to the accuracy `U⁺` — and with it Σ itself — was computed
    // to (2.4e-11 here) instead of to the last bits.
    let d = Device::build(DeviceBuilder::nanowire(1.5).cells(2).basis(TightBinding).build());
    let lead = d.unwrap().at_kz(0.0).lead_l;
    let e = lead.dispersive_band_min(0.1, 0.3).unwrap() + 0.05;
    let (obc_l, obc_r) =
        qtx_obc::self_energy_pair(&lead, &lead, e, qtx_obc::Eta::ZERO, ObcMethod::ShiftInvert)
            .unwrap();
    let cols = [obc_l, obc_r].map(|obc| {
        let modes = LeadModes::mode_matrix(&obc.out_modes, lead.nf());
        let p = broadening_factor_ws(&obc.sigma, Some(&modes), &ws);
        assert!(gamma_defect(&p, &obc.sigma) < 1e-9);
        (modes.cols(), broadening_factor_ws(&obc.sigma, None, &ws).cols(), p.cols())
    });
    assert_eq!(cols, [(20, 36, 36), (20, 48, 40)]);
}

#[test]
fn hit_miss_and_cache_off_points_are_the_same_bits() {
    let _guard = lock();
    let d = nanowire(8);
    let dk = d.at_kz(0.0);
    let e = dk.lead_l.dispersive_energy(1.0, 0.2, 0.3).expect("conduction band") + 0.02;
    let caroli = caroli_transmission(&dk, e, d.config.obc).unwrap();
    let tonly = |engine: &TransportEngine| {
        let rs = engine.solve_point(e, 0.0, &PointPolicy::transmission_only());
        rs.into_result().unwrap().transmission
    };
    let off = TransportEngine::builder(nanowire(8)).cache(qtx_core::CachePolicy::Off).build();
    let reference = tonly(&off);
    // A real pencil: the Σ-late corner, the Caroli kernel's T to rounding.
    assert!((reference - caroli).abs() <= REAL_PENCIL_TOL, "cache off: {reference} vs {caroli}");
    let cache = Arc::new(qtx_core::SigmaCache::new(qtx_core::CacheConfig::default()));
    let cached = TransportEngine::builder(d).cache(qtx_core::CachePolicy::Shared(cache)).build();
    assert_eq!(tonly(&cached).to_bits(), reference.to_bits(), "miss ≡ cache off");
    assert_eq!(tonly(&cached).to_bits(), reference.to_bits(), "hit ≡ cache off");
    let stats = cached.cache_stats().unwrap();
    assert_eq!((stats.misses, stats.hits), (2, 2));
}

#[test]
fn fanned_out_fronts_do_not_change_a_point() {
    let _guard = lock();
    // Sixteen cells of the 1.5 nm wire: each front of a point is worth a
    // thread. On this thread the fronts fan out; under saturated pool
    // guards and on the workers of a busy pool they run inline.
    let spec = DeviceBuilder::nanowire(1.5).cells(16).basis(BasisKind::TightBinding).build();
    let d = Device::build(spec).unwrap();
    let e = d.at_kz(0.0).lead_l.dispersive_band_min(0.1, 0.3).expect("conduction band") + 0.05;
    let engine = Arc::new(TransportEngine::builder(d).cache(qtx_core::CachePolicy::Off).build());
    let solve = |engine: &TransportEngine, e: f64| -> u64 {
        let rs = engine.solve_point(e, 0.0, &PointPolicy::transmission_only());
        rs.into_result().unwrap().transmission.to_bits()
    };
    let energies = vec![e, e + 0.01];
    let fanned: Vec<u64> = energies.iter().map(|&e| solve(&engine, e)).collect();
    let inline: Vec<u64> = {
        let _busy = (rayon::enter_pool_worker(), rayon::enter_pool_worker());
        energies.iter().map(|&e| solve(&engine, e)).collect()
    };
    assert_eq!(inline, fanned);
    let pool = Scheduler::new(SchedulerConfig { workers: 2 });
    let worker_engine = engine.clone();
    let reports = pool.execute(
        energies,
        &BatchOptions::default(),
        move |_, &e, _| TaskAttempt::Done(solve(&worker_engine, e)),
        |_, _, _, _| 0,
    );
    assert_eq!(reports.iter().map(|r| r.value).collect::<Vec<_>>(), fanned);
    assert!((f64::from_bits(fanned[0]) - 1.0).abs() < 1e-6, "one open channel at the band edge");
}

#[test]
fn the_cases_hold_on_a_thrashing_64k_shared_cache() {
    let _guard = lock();
    // The battery above once more on an engine whose explicit cache evicts
    // constantly — the least favourable budget: every point mixes misses,
    // hits and re-solves of evicted frames, and must be the bits of the
    // uncached engine whatever the mix.
    let mut d = nanowire(8);
    let v: Vec<f64> = (0..d.n_slabs).map(|q| 0.03 * q as f64).collect();
    d.set_potential(&v);
    let dk = d.at_kz(0.0);
    let e0 = dk.lead_l.dispersive_energy(1.0, 0.2, 0.3).expect("conduction band") + 0.05;
    let energies: Vec<f64> = (0..6).map(|i| e0 + 0.01 * i as f64).collect();
    let cache = Arc::new(qtx_core::SigmaCache::new(qtx_core::CacheConfig { max_bytes: 64 << 10 }));
    let off = TransportEngine::builder(d.clone()).cache(qtx_core::CachePolicy::Off).build();
    let thrash = Arc::new(
        TransportEngine::builder(d.clone())
            .cache(qtx_core::CachePolicy::Shared(cache.clone()))
            .build(),
    );
    let policies = [
        ("transmission-only", PointPolicy::transmission_only()),
        ("direct", PointPolicy::direct()),
        ("robust", PointPolicy::robust()),
    ];
    for pass in 0..2 {
        for (label, policy) in &policies {
            for &e in &energies {
                let (want, got) =
                    (off.solve_point(e, 0.0, policy), thrash.solve_point(e, 0.0, policy));
                assert_eq!(got.outcome.method_used, want.outcome.method_used, "{label}, E={e}");
                let (want, got) = (want.into_result().unwrap(), got.into_result().unwrap());
                assert_eq!(
                    got.transmission.to_bits(),
                    want.transmission.to_bits(),
                    "{label}, pass {pass}, E={e}"
                );
                assert_eq!(got.psi.max_diff(&want.psi), 0.0, "{label}, pass {pass}, E={e}");
                assert_eq!((&got.sigma_l, &got.sigma_r), (&want.sigma_l, &want.sigma_r));
            }
        }
    }
    // Points are the Caroli reference to rounding (a real pencil: the
    // Σ-late corner), cache or no cache.
    let reference = caroli_transmission(&dk, e0, d.config.obc).unwrap();
    let rs = thrash.solve_point(e0, 0.0, &PointPolicy::transmission_only());
    let t = rs.into_result().unwrap().transmission;
    assert!((t - reference).abs() <= REAL_PENCIL_TOL, "{t} vs {reference}");
    // The budget really serves: a point solved again at once finds both
    // of its sides still held. (The loops above cycle six energies through
    // a budget of fewer frames, so they only ever miss.)
    let before = cache.stats().hits;
    let again = thrash.solve_point(e0, 0.0, &PointPolicy::transmission_only());
    assert_eq!(again.into_result().unwrap().transmission.to_bits(), t.to_bits());
    let stats = cache.stats();
    assert!(stats.hits >= before + 2, "second solve must hit both sides: {stats:?}");
    // Any thread, same bits, while the workers race each other's evictions.
    let solve = |engine: &TransportEngine, e: f64| -> u64 {
        let rs = engine.solve_point(e, 0.0, &PointPolicy::transmission_only());
        rs.into_result().unwrap().transmission.to_bits()
    };
    let here: Vec<u64> = energies.iter().map(|&e| solve(&off, e)).collect();
    let pool = Scheduler::new(SchedulerConfig { workers: 4 });
    let worker_engine = thrash.clone();
    let reports = pool.execute(
        energies.clone(),
        &BatchOptions::default(),
        move |_, &e, _| TaskAttempt::Done(solve(&worker_engine, e)),
        |_, _, _, _| 0,
    );
    assert_eq!(reports.iter().map(|r| r.value).collect::<Vec<_>>(), here);
    // The budget really thrashed, and stayed within its bytes.
    let stats = cache.stats();
    assert!(stats.evictions > 0 && stats.bytes <= 64 << 10, "{stats:?}");
}
