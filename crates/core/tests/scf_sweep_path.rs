//! Pins the Schrödinger–Poisson loop as a client of the one sweep loop:
//!
//! * the free-function wrappers are the engine methods, bit for bit;
//! * the SCF joins the scheduler-determinism contract (fresh pools of 1,
//!   2 and 4 workers give the same bits) and keeps the bits it had when
//!   it fanned its points out itself;
//! * `set_potential` drops the folded-device memo, nothing else does;
//! * a malformed `ScfConfig` is a typed error, never a panic;
//! * the leads move every iteration — the fact behind "the SCF runs
//!   without a Σ-cache" (`docs/cache.md`, "What does not cache").

use qtx_atomistic::{BasisKind, DeviceBuilder};
use qtx_core::{
    id_vgs, schrodinger_poisson, Device, PointPolicy, ScfConfig, ScfResult, Scheduler,
    SchedulerConfig, SweepPlan, TransportEngine, TransportError,
};
use std::sync::Arc;

/// The FET of `scf.rs`'s unit tests (and of the benchmark's
/// `nw_scf_idvgs`): n-type contacts just above the conduction edge.
fn fet() -> Device {
    let spec = DeviceBuilder::nanowire(0.8).cells(8).basis(BasisKind::TightBinding).build();
    let mut d = Device::build(spec).unwrap();
    let dk = d.at_kz(0.0);
    let edge = dk.lead_l.dispersive_band_min(0.1, 0.3).expect("conduction edge");
    d.config.mu_l = edge + 0.05;
    d
}

fn fast_cfg() -> ScfConfig {
    ScfConfig { max_iter: 8, n_energy: 14, tol: 5e-3, vd: 0.05, ..ScfConfig::default() }
}

fn pool(workers: usize) -> Arc<Scheduler> {
    Arc::new(Scheduler::new(SchedulerConfig { workers }))
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_same_scf(a: &ScfResult, b: &ScfResult, label: &str) {
    assert_eq!(bits(&a.potential), bits(&b.potential), "{label}: potential");
    assert_eq!(a.current_ua.to_bits(), b.current_ua.to_bits(), "{label}: current");
    assert_eq!(a.iterations, b.iterations, "{label}: iterations");
    assert_eq!(a.spectrum.len(), b.spectrum.len(), "{label}: spectrum length");
    for (x, y) in a.spectrum.iter().zip(&b.spectrum) {
        assert_eq!((x.0.to_bits(), x.1.to_bits()), (y.0.to_bits(), y.1.to_bits()), "{label}");
    }
}

#[test]
fn free_function_wrappers_are_the_engine_methods_bit_for_bit() {
    let cfg = ScfConfig { vg: 0.15, ..fast_cfg() };
    let mut dev = fet();
    let wrapped = schrodinger_poisson(&mut dev, &cfg).unwrap();
    let mut engine = TransportEngine::new(fet());
    let direct = engine.schrodinger_poisson(&cfg).unwrap();
    assert_same_scf(&wrapped, &direct, "schrodinger_poisson");
    assert!(wrapped.iterations >= 2 && !wrapped.spectrum.is_empty());
    // The wrapper leaves `dev` where the engine's device ended.
    let moved = engine.device().unwrap();
    assert_eq!(bits(&dev.potential), bits(&moved.potential));
    assert_eq!(bits(&dev.potential), bits(&wrapped.potential));
    assert_eq!(dev.config.mu_r, dev.config.mu_l - cfg.vd);
    assert_eq!(engine.config().mu_r, dev.config.mu_r);
    assert_eq!(moved.config.mu_r, dev.config.mu_r);

    let vgs = [-0.3, 0.1];
    let mut dev = fet();
    let wrapped = id_vgs(&mut dev, &fast_cfg(), &vgs).unwrap();
    let mut engine = TransportEngine::new(fet());
    let direct = engine.id_vgs(&fast_cfg(), &vgs).unwrap();
    assert_eq!(wrapped.len(), vgs.len());
    for (w, d) in wrapped.iter().zip(&direct) {
        assert_eq!((w.vgs, w.id_ua.to_bits()), (d.vgs, d.id_ua.to_bits()));
    }
    assert_eq!(bits(&dev.potential), bits(&engine.device().unwrap().potential));
}

#[test]
fn scf_is_bit_identical_on_fresh_pools_of_1_2_and_4_workers() {
    let cfg = ScfConfig { vg: 0.1, ..fast_cfg() };
    let run = |workers: usize| {
        let mut engine = TransportEngine::builder(fet()).scheduler(pool(workers)).build();
        engine.schrodinger_poisson(&cfg).unwrap()
    };
    let reference = run(1);
    for workers in [2, 4] {
        assert_same_scf(&reference, &run(workers), &format!("{workers} workers"));
    }
}

#[test]
fn id_ua_keeps_the_bits_of_the_direct_fan_out() {
    // A pin against unintended drift: a refactor of the sweep loop, the
    // pool or the SCF driver must keep these bits (the first ladder rung
    // is the direct solve). Re-pinned once, where the partition plan
    // began to run this 8-block chain as one partition instead of two:
    // the transmissions moved in their last bits and the damped SCF
    // carried that to 1·10⁻¹⁴ / 5·10⁻¹¹ of the two currents. Re-pinned
    // again where the wave-function solve became two Σ-folded fronts that
    // factor each pivot block once instead of SplitSolve's Σ-free sweeps
    // plus Woodbury: the same algebra in another order, so the currents
    // moved by 6 and 1 units in the last place. Re-pinned a third time
    // where FEAST began to integrate the real leads of η = 0 over the upper
    // half of the contour only: the same quadrature sum, its conjugate half
    // taken as 2·Re of the other, so Σ moved within FEAST's tolerance and
    // the currents by 14 and 97 units in the last place (1.9·10⁻¹⁵ and
    // 1.1·10⁻¹⁴ relative). Re-pinned a fourth time where the set-up's
    // Hermitian eigenproblems moved to `eigh`: CP2K-lite's Mulliken charges
    // and the band edge that places the grid move in their last bits, and
    // the currents by 258 and 10 units in the last place (3.5·10⁻¹⁴ and
    // 1.2·10⁻¹⁵ relative). Re-pinned a fifth time where CP2K-lite's
    // Mulliken charges became row-wise dot products of the occupied vectors
    // with `S·C_occ` instead of the diagonal of a full `P·S`: the charges
    // moved by about 10⁻¹⁶, and the currents by 167 and 25 units in the
    // last place (2.3·10⁻¹⁴ and 2.9·10⁻¹⁵ relative); the old product in
    // the new loop gives back the old bits. Re-pinned a sixth time where
    // this FET's real pencil (kz = 0, η = 0) began to run the Σ-late
    // fronts, whose pivots are factored in real arithmetic: the currents
    // moved by 10 and 72 units in the last place (1.3·10⁻¹⁵ and 8.4·10⁻¹⁵
    // relative). The literal bits are those of the `avx512` kernels;
    // elsewhere the values are checked.
    let iv = TransportEngine::new(fet()).id_vgs(&ScfConfig::default(), &[-0.2, 0.1]).unwrap();
    let want = [0x3fea_2f33_ac0e_07b4_u64, 0x400e_5335_74d9_8e55];
    for (p, bits) in iv.iter().zip(want) {
        let reference = f64::from_bits(bits);
        if qtx_linalg::active_variant().name() == "avx512" {
            assert_eq!(p.id_ua.to_bits(), bits, "Vg = {}: {} vs {reference}", p.vgs, p.id_ua);
        } else {
            assert!((p.id_ua - reference).abs() < 1e-9 * reference, "Vg = {}: {}", p.vgs, p.id_ua);
        }
    }
}

#[test]
fn set_potential_drops_the_memo_and_nothing_else_does() {
    let dev = fet();
    let e = dev.at_kz(0.0).lead_l.dispersive_energy(1.0, 0.2, 0.3).expect("band") + 0.02;
    let plan = SweepPlan { k_points: vec![(0.0, 1.0)], energies: vec![vec![e, e + 0.01]] };
    let mut engine = TransportEngine::new(dev.clone());

    // Unchanged potential: point solves and sweeps share one fold.
    let first = engine.device_k(0.0).unwrap();
    let flat = engine.sweep(&plan, 1).unwrap();
    engine.sweep(&plan, 1).unwrap();
    assert!(Arc::ptr_eq(&first, &engine.device_k(0.0).unwrap()), "a sweep must not refold");

    // Moved potential: the memo is dropped, the next sweep folds anew …
    let ramp: Vec<f64> = (0..dev.n_slabs).map(|q| 0.02 * q as f64).collect();
    engine.set_potential(&ramp);
    assert_eq!(engine.device().unwrap().potential, ramp);
    let ramped = engine.sweep(&plan, 1).unwrap();
    let refolded = engine.device_k(0.0).unwrap();
    assert!(!Arc::ptr_eq(&first, &refolded), "set_potential must drop the folded memo");
    assert_ne!(flat.records[0].t.to_bits(), ramped.records[0].t.to_bits(), "the ramp reflects");
    engine.sweep(&plan, 1).unwrap();
    assert!(Arc::ptr_eq(&refolded, &engine.device_k(0.0).unwrap()), "… and only once");

    // … and every point is the point of a fresh engine on the moved device.
    let mut moved = dev;
    moved.set_potential(&ramp);
    let fresh = TransportEngine::new(moved);
    for policy in [PointPolicy::direct(), PointPolicy::robust(), PointPolicy::transmission_only()] {
        let a = engine.solve_point(e, 0.0, &policy).into_result().unwrap();
        let b = fresh.solve_point(e, 0.0, &policy).into_result().unwrap();
        assert_eq!(a.transmission.to_bits(), b.transmission.to_bits(), "{policy:?}");
        assert_eq!(a.psi.max_diff(&b.psi), 0.0, "{policy:?}");
    }
    assert_eq!(
        ramped.records[0].t.to_bits(),
        fresh.sweep(&plan, 1).unwrap().records[0].t.to_bits()
    );
}

#[test]
fn malformed_scf_configs_are_config_errors_not_panics() {
    let ok = fast_cfg();
    let bad = [
        ("empty gate window", ScfConfig { gate_window: (0.5, 0.5), ..ok.clone() }),
        ("inverted gate window", ScfConfig { gate_window: (0.7, 0.3), ..ok.clone() }),
        ("window below 0", ScfConfig { gate_window: (-0.2, 0.5), ..ok.clone() }),
        ("window beyond 1", ScfConfig { gate_window: (0.5, 1.5), ..ok.clone() }),
        ("NaN window", ScfConfig { gate_window: (f64::NAN, 0.6), ..ok.clone() }),
        ("window inside one slab", ScfConfig { gate_window: (0.51, 0.52), ..ok.clone() }),
        ("zero mixing", ScfConfig { mixing: 0.0, ..ok.clone() }),
        ("negative mixing", ScfConfig { mixing: -0.5, ..ok.clone() }),
        ("NaN mixing", ScfConfig { mixing: f64::NAN, ..ok.clone() }),
        ("zero tol", ScfConfig { tol: 0.0, ..ok.clone() }),
        ("NaN tol", ScfConfig { tol: f64::NAN, ..ok.clone() }),
        ("zero lambda", ScfConfig { lambda: 0.0, ..ok.clone() }),
        ("infinite lambda", ScfConfig { lambda: f64::INFINITY, ..ok.clone() }),
        ("NaN gate voltage", ScfConfig { vg: f64::NAN, ..ok.clone() }),
        ("infinite drain bias", ScfConfig { vd: f64::INFINITY, ..ok.clone() }),
    ];
    let mut engine = TransportEngine::new(fet());
    let flat = engine.device().unwrap().potential.clone();
    for (label, cfg) in &bad {
        let err = engine.schrodinger_poisson(cfg).unwrap_err();
        assert!(matches!(err, TransportError::Config { .. }), "{label}: {err:?}");
        let err = engine.id_vgs(cfg, &[cfg.vg]).unwrap_err();
        assert!(matches!(err, TransportError::Config { .. }), "{label}, id_vgs: {err:?}");
        let err = schrodinger_poisson(&mut fet(), cfg).unwrap_err();
        assert!(matches!(err, TransportError::Config { .. }), "{label}, wrapper: {err:?}");
    }
    // Rejected before anything moved or any thread was spawned.
    assert_eq!(engine.device().unwrap().potential, flat);
    assert_eq!(engine.config().mu_r, fet().config.mu_r);
    assert!(engine.scheduler().is_none());
    // An engine without a device has no potential to iterate on.
    let dev = fet();
    let mut fixed = TransportEngine::from_device_k(dev.at_kz(0.0), dev.config);
    assert!(matches!(fixed.schrodinger_poisson(&ok), Err(TransportError::Config { .. })));
}

#[test]
fn both_leads_move_every_scf_iteration() {
    // Why the SCF carries no Σ-cache: the leads sit at the potential of
    // the contact slabs, and slab 0 / slab n−1 are interior nodes of the
    // Poisson solve, so every iteration shifts both leads and every
    // content hash — the cache key — changes. Whoever pins the contacts
    // at their Dirichlet values (19× fewer OBC solves, different
    // currents) flips this test on purpose.
    let one_iteration = ScfConfig { max_iter: 1, vg: -0.2, ..ScfConfig::default() };
    let mut engine = TransportEngine::new(fet());
    let hashes = |engine: &TransportEngine| {
        let dk = engine.device_k(0.0).unwrap();
        (dk.lead_l.content_hash(), dk.lead_r.content_hash())
    };
    let mut seen = vec![hashes(&engine)];
    for _ in 0..4 {
        engine.schrodinger_poisson(&one_iteration).unwrap();
        seen.push(hashes(&engine));
    }
    for pair in seen.windows(2) {
        assert_ne!(pair[0].0, pair[1].0, "left lead unchanged between iterations: {seen:x?}");
        assert_ne!(pair[0].1, pair[1].1, "right lead unchanged between iterations: {seen:x?}");
    }
}

#[test]
fn a_default_engine_owns_a_full_width_pool_from_its_first_sweep() {
    let dev = fet();
    let e = dev.at_kz(0.0).lead_l.dispersive_energy(1.0, 0.2, 0.3).expect("band");
    let plan = SweepPlan { k_points: vec![(0.0, 1.0)], energies: vec![vec![e, e + 0.01]] };
    let (a, b) = (TransportEngine::new(dev.clone()), TransportEngine::new(dev.clone()));
    // Point solves never need a pool …
    a.solve_point(e, 0.0, &PointPolicy::robust()).into_result().unwrap();
    assert!(a.scheduler().is_none() && a.cache().is_none(), "a point-only engine stays bare");
    // … the first sweep creates the engine's own, one worker per core …
    a.sweep(&plan, 1).unwrap();
    b.sweep(&plan, 1).unwrap();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (pool_a, pool_b) = (a.scheduler().unwrap().clone(), b.scheduler().unwrap().clone());
    assert_eq!((pool_a.workers(), pool_b.workers()), (cores, cores));
    // … kept for the next sweep and shared with nobody.
    a.sweep(&plan, 1).unwrap();
    assert!(Arc::ptr_eq(&pool_a, a.scheduler().unwrap()));
    assert!(!Arc::ptr_eq(&pool_a, &pool_b), "two default engines must not share a pool");
    // A pool passed in is the engine's pool from the start.
    let shared = pool(1);
    let c = TransportEngine::builder(dev).scheduler(shared.clone()).build();
    assert!(Arc::ptr_eq(&shared, c.scheduler().unwrap()));
}
