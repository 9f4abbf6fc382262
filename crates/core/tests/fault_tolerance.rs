//! Fault-injection battery for the per-point escalation ladder, the sweep
//! health accounting, graceful degradation, and checkpoint/resume.
//!
//! Builds only with the `fault-inject` feature:
//! `cargo test -p qtx-core --features fault-inject --test fault_tolerance`.
//!
//! The injection campaign configuration is process-global, so every test
//! that arms it runs under one mutex; this file is its own test process,
//! which keeps the campaigns away from the (parallel) unit tests.

#![cfg(feature = "fault-inject")]

use qtx_atomistic::{BasisKind, DeviceBuilder};
use qtx_core::cache::CacheConfig;
use qtx_core::transport::{ETA_BUMP, METHOD_FAILED};
use qtx_core::{
    landauer_current_counted_ua, Batching, CachePolicy, Device, PointPolicy, PointRecord,
    ScfConfig, SigmaCache, SweepOptions, SweepPlan, SweepResult, TransportEngine, TransportError,
    CONDUCTANCE_QUANTUM_US,
};
use qtx_core::{Scheduler, SchedulerConfig};
use qtx_linalg::fault::{self, FaultConfig};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A fresh pinned-width pool (an engine built without one creates its
/// own, as wide as the machine).
fn pool(workers: usize) -> Arc<Scheduler> {
    Arc::new(Scheduler::new(SchedulerConfig { workers }))
}

static FAULT_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` with the given campaign armed, disarming afterwards even on
/// panic-free early returns. Serializes all campaign users.
fn with_faults<T>(cfg: Option<FaultConfig>, f: impl FnOnce() -> T) -> T {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::set_config(cfg);
    let out = f();
    fault::set_config(None);
    out
}

fn small_device() -> Device {
    let spec = DeviceBuilder::nanowire(0.8).cells(6).basis(BasisKind::TightBinding).build();
    let mut d = Device::build(spec).unwrap();
    let dk = d.at_kz(0.0);
    let edge = dk.lead_l.dispersive_band_min(0.1, 0.3).expect("conduction edge");
    d.config.mu_l = edge + 0.15;
    d.config.mu_r = edge + 0.10;
    d
}

fn small_plan(dev: &Device) -> SweepPlan {
    SweepPlan::from_device(dev, 0.05, 0.15)
}

/// Engine over a clone of the device (the one entry for points and
/// sweeps; the fault chokepoints sit below it).
fn engine(dev: &Device) -> TransportEngine {
    TransportEngine::new(dev.clone())
}

fn by_point(result: &SweepResult) -> HashMap<(u32, u32), PointRecord> {
    result.records.iter().map(|r| ((r.k_idx, r.e_idx), *r)).collect()
}

#[test]
fn eta_bump_rung_recovers_points() {
    // Fail half of all self-energy builds: the η-bump retry draws a fresh
    // key (η enters the injection key), so rung 1 rescues points whose
    // exact-energy OBC build was hit.
    let dev = small_device();
    let plan = small_plan(&dev);
    let mut cfg = FaultConfig::new(0.5, 11);
    cfg.sites.factor_poly = false;
    cfg.sites.splitsolve = false;
    let outcomes = with_faults(Some(cfg), || {
        plan.energies[0]
            .iter()
            .map(|&e| (e, engine(&dev).solve_point(e, 0.0, &PointPolicy::robust())))
            .collect::<Vec<_>>()
    });
    let mut rung1 = 0;
    for (e, rs) in &outcomes {
        let Some(rs_result) = rs.result.as_ref() else {
            // Every rung (the decimation one included) draws its own
            // self_energy key, so at 50% a point can legitimately exhaust
            // the whole ladder — but then it must say so, typed.
            assert!(rs.outcome.failed());
            assert!(rs.error.as_ref().is_some_and(|err| err.is_injected()));
            continue;
        };
        let clean = with_faults(None, || {
            engine(&dev).solve_point(*e, 0.0, &PointPolicy::direct()).into_result().unwrap()
        })
        .transmission;
        match rs.outcome.method_used {
            0 => assert_eq!(
                rs_result.transmission.to_bits(),
                clean.to_bits(),
                "untouched rung 0 must be bit-identical to the plain solve"
            ),
            1 => {
                rung1 += 1;
                assert_eq!(rs.outcome.eta, ETA_BUMP);
                assert_eq!(rs.outcome.attempts, 2);
                assert!(
                    (rs_result.transmission - clean).abs() < 1e-3,
                    "η = {ETA_BUMP} must barely move T: {} vs {clean}",
                    rs_result.transmission
                );
            }
            _ => {} // deeper rungs are legitimate at 50% too
        }
    }
    assert!(rung1 > 0, "no point recovered on the configured+eta rung at 50%/seed 11");
}

#[test]
fn ladder_escalates_to_shift_invert_when_contours_fail() {
    // Kill every contour-quadrature factorization: FEAST (configured,
    // broadened, widened) and Beyn all die, the dense shift-invert rung
    // does not use factor_poly and lands the point.
    let dev = small_device();
    let plan = small_plan(&dev);
    let e = plan.energies[0][plan.energies[0].len() / 2];
    let clean = with_faults(None, || {
        engine(&dev).solve_point(e, 0.0, &PointPolicy::direct()).into_result().unwrap()
    })
    .transmission;
    let mut cfg = FaultConfig::new(1.0, 3);
    cfg.sites.self_energy = false;
    cfg.sites.splitsolve = false;
    let rs = with_faults(Some(cfg), || engine(&dev).solve_point(e, 0.0, &PointPolicy::robust()));
    let result = rs.result.expect("shift-invert rung must recover the point");
    assert_eq!(rs.outcome.method_used, 4, "expected the shift-invert rung");
    assert_eq!(rs.outcome.method_name(), "shift-invert");
    assert!(rs.outcome.escalated());
    assert!(rs.outcome.escalations >= 3, "FEAST×3 and Beyn rungs must have been burned");
    assert_eq!(rs.outcome.eta, ETA_BUMP);
    assert!(rs.error.is_none());
    assert!((result.transmission - clean).abs() < 1e-3, "{} vs {clean}", result.transmission);
}

#[test]
fn total_blackout_degrades_gracefully() {
    // Every chokepoint fails every call: no rung can succeed, the sweep
    // must flag the points instead of inventing T = 0 samples.
    let dev = small_device();
    let mut plan = small_plan(&dev);
    plan.energies[0].truncate(3);
    let result =
        with_faults(Some(FaultConfig::new(1.0, 5)), || engine(&dev).sweep(&plan, 2).unwrap());
    assert_eq!(result.health.total_points, 3);
    assert_eq!(result.health.failed, 3, "nothing can be interpolated when every point died");
    assert_eq!(result.health.interpolated, 0);
    assert!(result.health.faults_injected > 0);
    assert!(result.spectrum.is_empty(), "failed points must not enter the spectrum");
    assert!(result.samples.iter().all(|s| s.3.is_nan()), "failed samples stay NaN, never 0");
    assert!(result.records.iter().all(|r| r.method == METHOD_FAILED));
    // The degraded spectrum integrates to zero current, loudly countable.
    let (i, skipped) = landauer_current_counted_ua(
        &result.samples.iter().map(|s| (s.2, s.3)).collect::<Vec<_>>(),
        dev.config.mu_l,
        dev.config.mu_r,
        300.0,
    );
    assert_eq!(skipped, 3);
    assert_eq!(i, 0.0);
}

#[test]
fn faulty_sweep_matches_clean_within_bounds() {
    // The acceptance scenario: a 20% seeded campaign across all three
    // chokepoints. The sweep must finish, count every injected fault, and
    // stay within the recorded interpolation bounds of the fault-free run.
    let dev = small_device();
    let plan = small_plan(&dev);
    let clean = with_faults(None, || engine(&dev).sweep(&plan, 3).unwrap());
    assert_eq!(clean.health.escalated + clean.health.failed + clean.health.interpolated, 0);
    // The process-global injection counter is read under the campaign
    // lock: another test's campaign must not land in the delta.
    let (faulty, observed) = with_faults(Some(FaultConfig::new(0.2, 7)), || {
        let before = fault::injected_total();
        let faulty = engine(&dev).sweep(&plan, 3).unwrap();
        (faulty, fault::injected_total() - before)
    });
    assert!(observed > 0, "a 20% campaign over a full sweep must fire");
    assert_eq!(faulty.health.faults_injected, observed, "health must count every injected fault");
    assert!(
        faulty.health.escalated + faulty.health.interpolated > 0,
        "20% injection must visibly exercise the ladder"
    );
    assert_eq!(faulty.health.total_points, plan.total_points());
    assert_eq!(
        faulty.health.failed, 0,
        "with healthy neighbors available nothing should stay failed"
    );

    // Point-by-point: untouched points are bit-identical, recovered points
    // close, interpolated points within their recorded bound.
    let clean_map = by_point(&clean);
    let mut bound_integral = 0.0;
    let de_max = plan.energies[0].windows(2).map(|w| w[1] - w[0]).fold(0.0f64, f64::max);
    for r in &faulty.records {
        let c = clean_map[&(r.k_idx, r.e_idx)];
        match (r.status, r.method) {
            (qtx_core::sweep::STATUS_OK, 0) => {
                assert_eq!(r.t.to_bits(), c.t.to_bits(), "rung 0 is bit-identical");
            }
            (qtx_core::sweep::STATUS_OK, _) => {
                assert!((r.t - c.t).abs() < 1e-3, "escalated point strayed: {} vs {}", r.t, c.t);
            }
            (qtx_core::sweep::STATUS_INTERPOLATED, _) => {
                // The recorded bound covers the interpolation error; the
                // neighbor sources themselves were solved at η = 1e-6 and
                // carry the same O(η) deviation the escalated points do.
                assert!(
                    (r.t - c.t).abs() <= r.interp_bound + 1e-3,
                    "interpolated point outside its own bound: |{} - {}| > {}",
                    r.t,
                    c.t,
                    r.interp_bound
                );
                bound_integral += r.w * r.interp_bound * de_max;
            }
            _ => unreachable!("no failed points in this campaign"),
        }
    }

    // Current-level acceptance: the faulty current matches the fault-free
    // one within the accumulated interpolation bound (plus the tiny η and
    // trapezoid slack of the escalated points).
    let current = |r: &SweepResult| {
        landauer_current_counted_ua(&r.spectrum, dev.config.mu_l, dev.config.mu_r, 300.0).0
    };
    let (i_clean, i_faulty) = (current(&clean), current(&faulty));
    let tolerance = CONDUCTANCE_QUANTUM_US * bound_integral + 1e-3;
    assert!(
        (i_faulty - i_clean).abs() <= tolerance,
        "current off: {i_faulty} vs {i_clean} µA (tolerance {tolerance})"
    );
}

#[test]
fn checkpoint_resume_is_bit_identical_under_faults() {
    // Kill a sweep a third of the way through (deterministically, via the
    // canonical-order point limit), then resume from its checkpoint. The
    // union must be bit-identical (modulo wall time) to an uninterrupted
    // run under the same campaign — injection decisions are keyed on the
    // math, not on call order, so the resumed half sees the same faults.
    let dev = small_device();
    let plan = small_plan(&dev);
    let campaign = FaultConfig::new(0.2, 7);
    let uninterrupted = with_faults(Some(campaign), || engine(&dev).sweep(&plan, 3).unwrap());

    let dir = std::env::temp_dir().join("qtx-fault-resume-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sweep.qtxswp");
    std::fs::remove_file(&path).ok();

    let kill_after = plan.total_points() / 3;
    assert!(kill_after > 0);
    let partial = with_faults(Some(campaign), || {
        let opts = SweepOptions::builder()
            .checkpoint(path.clone())
            .max_new_points(kill_after)
            .scheduler(pool(2))
            .build()
            .unwrap();
        engine(&dev).sweep_resumable(&plan, 3, &opts).unwrap()
    });
    assert_eq!(partial.records.len(), kill_after, "the kill limit bounds the partial run");
    assert!(path.exists(), "killed run must leave its checkpoint behind");

    let resumed = with_faults(Some(campaign), || {
        let opts =
            SweepOptions::builder().checkpoint(path.clone()).scheduler(pool(2)).build().unwrap();
        engine(&dev).sweep_resumable(&plan, 3, &opts).unwrap()
    });
    assert_eq!(resumed.records.len(), uninterrupted.records.len());
    for (a, b) in resumed.records.iter().zip(&uninterrupted.records) {
        assert!(
            a.identity_eq(b),
            "resumed point (k={}, e={}) diverged from the uninterrupted run:\n{a:?}\nvs\n{b:?}",
            a.k_idx,
            a.e_idx
        );
    }
    assert_eq!(resumed.health, {
        let mut h = uninterrupted.health.clone();
        // The run-scoped fields (faults drawn, scheduler accounting) only
        // cover the points each process actually computed; everything
        // derived from the records themselves must agree.
        h.faults_injected = resumed.health.faults_injected;
        h.panics = resumed.health.panics;
        h.sched_retries = resumed.health.sched_retries;
        h.quarantined = resumed.health.quarantined;
        h
    });

    // Resuming a *complete* checkpoint is a no-op: no new faults drawn,
    // same records again.
    let (replay, drawn) = with_faults(Some(campaign), || {
        let before = fault::injected_total();
        let opts =
            SweepOptions::builder().checkpoint(path.clone()).scheduler(pool(2)).build().unwrap();
        let replay = engine(&dev).sweep_resumable(&plan, 3, &opts).unwrap();
        (replay, fault::injected_total() - before)
    });
    assert_eq!(drawn, 0, "a cached resume must not recompute");
    assert!(replay.records.iter().zip(&resumed.records).all(|(a, b)| a.identity_eq(b)));
    std::fs::remove_file(&path).ok();
}

/// A campaign that only arms the opt-in scheduler-panic site.
fn panic_campaign(rate: f64, seed: u64) -> FaultConfig {
    let mut cfg = FaultConfig::new(rate, seed);
    cfg.sites.factor_poly = false;
    cfg.sites.self_energy = false;
    cfg.sites.splitsolve = false;
    cfg.sites.sched_panic = true;
    cfg
}

#[test]
fn injected_panics_are_isolated_counted_and_quarantined() {
    // Every scheduler attempt at every point panics (rate 1.0): the pool
    // must absorb each one, burn the retry budget, quarantine the points,
    // and hand the sweep failed records — never unwind into the caller.
    let dev = small_device();
    let mut plan = small_plan(&dev);
    plan.energies[0].truncate(3);
    let sched = pool(2);
    let opts = SweepOptions::builder().scheduler(sched.clone()).build().unwrap();
    let result = with_faults(Some(panic_campaign(1.0, 13)), || {
        engine(&dev).sweep_resumable(&plan, 2, &opts).unwrap()
    });
    assert_eq!(result.health.total_points, 3);
    assert_eq!(result.health.failed, 3, "all-panic points cannot be interpolated");
    assert_eq!(result.health.quarantined, 3);
    // Default budget: 1 first try + 2 retries, each one a caught panic.
    assert_eq!(result.health.panics, 9);
    assert!(result.samples.iter().all(|s| s.3.is_nan()));
    assert_eq!(sched.poisoned_count(), 3, "exhausted keys enter the poison set");

    // The pool survives the barrage: the same sweep, disarmed, on the
    // same pool is clean — a poisoned key only loses its retries, the
    // first attempt still runs.
    let clean = with_faults(None, || engine(&dev).sweep_resumable(&plan, 2, &opts).unwrap());
    assert_eq!(clean.health.failed, 0);
    assert_eq!(clean.health.panics, 0);
    assert_eq!(clean.health.quarantined, 0);
}

#[test]
fn two_default_engines_do_not_share_a_quarantine_set() {
    // Each engine built without a pool owns one, so the keys one engine's
    // all-panic sweep poisons cost the other engine's sweep of the very
    // same plan nothing — no process-wide pool carries them over.
    let dev = small_device();
    let mut plan = small_plan(&dev);
    plan.energies[0].truncate(3);
    let (hit, spared) = (engine(&dev), engine(&dev));
    let result = with_faults(Some(panic_campaign(1.0, 13)), || hit.sweep(&plan, 2).unwrap());
    assert_eq!(result.health.quarantined, 3);
    assert_eq!(hit.scheduler().unwrap().poisoned_count(), 3);
    // Same keys, same campaign, the other engine: the full retry budget
    // is still there (9 panics, not 3), and it fills its own set.
    let result = with_faults(Some(panic_campaign(1.0, 13)), || spared.sweep(&plan, 2).unwrap());
    assert_eq!(result.health.panics, 9, "a foreign quarantine must not cut this engine's retries");
    assert_eq!(spared.scheduler().unwrap().poisoned_count(), 3);
    // The poisoned engine, disarmed, spends one attempt a point.
    let clean = with_faults(None, || hit.sweep(&plan, 2).unwrap());
    assert_eq!((clean.health.failed, clean.health.sched_retries), (0, 0));
}

#[test]
fn scf_surfaces_an_energy_without_states_as_a_typed_error() {
    // The SCF rides the sweep loop, so it inherits the ladder — and must
    // not inherit the sweep's tolerance for holes: the charge needs the
    // scattering states of every energy.
    let dev = small_device();
    let cfg = ScfConfig { max_iter: 3, n_energy: 6, ..ScfConfig::default() };
    let flat = dev.potential.clone();
    // Every interior solve fails on every mode-producing rung; the
    // mode-free decimation rung still returns a transmission. A sweep
    // would call that point healthy — the SCF cannot.
    let mut interior = FaultConfig::new(1.0, 3);
    interior.sites.factor_poly = false;
    interior.sites.self_energy = false;
    let mut scf = engine(&dev);
    let err = with_faults(Some(interior), || scf.schrodinger_poisson(&cfg)).unwrap_err();
    assert!(matches!(err, TransportError::NoStates { kz, .. } if kz == 0.0), "{err:?}");
    assert_eq!(scf.device().unwrap().potential, flat, "no charge, no potential update");
    // Every chokepoint fails: the point is failed, the sweep's records
    // would at best interpolate it, and the SCF reports the ladder's own
    // exhaustion with the injected root cause.
    let mut scf = engine(&dev);
    let err =
        with_faults(Some(FaultConfig::new(1.0, 5)), || scf.schrodinger_poisson(&cfg)).unwrap_err();
    assert!(matches!(err, TransportError::Exhausted { .. }) && err.is_injected(), "{err:?}");
    // Panicking workers: the panic is the error.
    let mut scf = engine(&dev);
    let err =
        with_faults(Some(panic_campaign(1.0, 13)), || scf.schrodinger_poisson(&cfg)).unwrap_err();
    assert!(matches!(err, TransportError::Panic { .. }), "{err:?}");
    // Disarmed, the same engine converges as if nothing had happened
    // (its poisoned keys only cost retries).
    let healthy = with_faults(None, || scf.schrodinger_poisson(&cfg)).unwrap();
    assert!(healthy.iterations >= 1 && healthy.current_ua.is_finite());
}

#[test]
fn partial_panic_campaign_recovers_via_retry() {
    // A 40% panic rate: the attempt number enters the injection key, so a
    // scheduler retry re-draws and most points land. Recovered points are
    // bit-identical to the fault-free sweep — a panicked attempt leaves
    // no trace in the math.
    let dev = small_device();
    let plan = small_plan(&dev);
    let clean = with_faults(None, || engine(&dev).sweep(&plan, 3).unwrap());
    let opts = SweepOptions::builder().scheduler(pool(2)).build().unwrap();
    let faulty = with_faults(Some(panic_campaign(0.4, 17)), || {
        engine(&dev).sweep_resumable(&plan, 3, &opts).unwrap()
    });
    assert!(faulty.health.panics > 0, "a 40% campaign over a full sweep must fire");
    assert_eq!(faulty.health.total_points, plan.total_points());
    let clean_map = by_point(&clean);
    for r in &faulty.records {
        if r.status == qtx_core::sweep::STATUS_OK {
            let c = clean_map[&(r.k_idx, r.e_idx)];
            assert_eq!(
                r.t.to_bits(),
                c.t.to_bits(),
                "point (k={}, e={}) solved after a panic must be bit-identical",
                r.k_idx,
                r.e_idx
            );
        }
    }
}

#[test]
fn sweep_is_bit_identical_across_worker_counts_under_faults() {
    // The acceptance invariant, under both the ladder campaign and the
    // panic site at once: fresh pools of width 1, 2, and 4 produce
    // identical record sets and identical health.
    let dev = small_device();
    let plan = small_plan(&dev);
    let mut campaign = FaultConfig::new(0.2, 7);
    campaign.sites.sched_panic = true;
    let runs: Vec<_> = [1usize, 2, 4]
        .iter()
        .map(|&w| {
            with_faults(Some(campaign), || {
                let opts = SweepOptions::builder().scheduler(pool(w)).build().unwrap();
                engine(&dev).sweep_resumable(&plan, 3, &opts).unwrap()
            })
        })
        .collect();
    for r in &runs[1..] {
        assert_eq!(r.records.len(), runs[0].records.len());
        for (a, b) in r.records.iter().zip(&runs[0].records) {
            assert!(
                a.identity_eq(b),
                "worker-count changed a record (k={}, e={}):\n{a:?}\nvs\n{b:?}",
                a.k_idx,
                a.e_idx
            );
        }
        assert_eq!(r.health, runs[0].health, "health must not depend on pool width");
    }
}

#[test]
fn batched_sweeps_on_a_shared_cache_draw_the_per_point_faults() {
    // A chunk is one task whose points read Σ through the cache, whatever
    // the batching: under a campaign (which bypasses the cache) a chunked
    // sweep must solve each Σ pair exactly as often as a per-point one,
    // so its records and its whole health — the faults drawn included —
    // are the per-point sweep's.
    let dev = small_device();
    let plan = small_plan(&dev);
    let run = |batching| {
        with_faults(Some(FaultConfig::new(0.2, 7)), || {
            let opts = SweepOptions::builder()
                .scheduler(pool(2))
                .cache(CachePolicy::Shared(Arc::new(SigmaCache::new(CacheConfig::default()))))
                .batching(batching)
                .build()
                .unwrap();
            engine(&dev).sweep_resumable(&plan, 3, &opts).unwrap()
        })
    };
    let per_point = run(Batching::PerPoint);
    let chunked = run(Batching::Fixed(1));
    assert!(per_point.health.faults_injected > 0, "the campaign must fire");
    assert_eq!(chunked.records.len(), per_point.records.len());
    for (a, b) in chunked.records.iter().zip(&per_point.records) {
        assert!(
            a.identity_eq(b),
            "batching changed a record (k={}, e={}):\n{a:?}\nvs\n{b:?}",
            a.k_idx,
            a.e_idx
        );
    }
    assert_eq!(chunked.health, per_point.health, "batching must not change the health");
}

#[test]
fn env_hook_format_matches_acceptance_string() {
    // The documented campaign syntax (`repro_fig9 --fault-inject <spec>`,
    // the CI fault-inject job's smoke) parses to the acceptance campaign.
    let cfg = FaultConfig::parse("rate=0.2,seed=7,sites=factor_poly|self_energy|splitsolve")
        .expect("documented format must parse");
    assert_eq!(cfg.rate, 0.2);
    assert_eq!(cfg.seed, 7);
    assert!(cfg.sites.factor_poly && cfg.sites.self_energy && cfg.sites.splitsolve);
    assert_eq!(FaultConfig::parse("0.2").map(|c| c.rate), Some(0.2));
    assert!(FaultConfig::parse("sites=bogus").is_none());
}
