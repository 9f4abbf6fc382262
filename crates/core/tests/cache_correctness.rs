//! Correctness battery for the content-addressed self-energy cache behind
//! [`TransportEngine`] (`docs/cache.md`).
//!
//! The contracts under test:
//!
//! * a warm engine replays a whole sweep with **zero** OBC solves
//!   (`qtx_obc::obc_solves_total` delta) and bit-identical records;
//! * cache-on and cache-off runs are bit-identical at any worker count —
//!   the cache is invisible in the results, only in the wall clock;
//! * a byte budget small enough to thrash still never corrupts a value;
//! * fault-injected solves are never cached (`fault-inject` builds).
//!
//! `obc_solves_total()` is process-global, so every test serializes on
//! one file-local lock.

use qtx_atomistic::{BasisKind, DeviceBuilder};
use qtx_core::{
    CacheConfig, CachePolicy, Device, PointPolicy, Scheduler, SchedulerConfig, SigmaCache,
    SweepOptions, SweepOptionsError, SweepPlan, SweepResult, TransportEngine,
};
use qtx_obc::obc_solves_total;
use std::sync::{Arc, Mutex};

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn pool(workers: usize) -> Arc<Scheduler> {
    Arc::new(Scheduler::new(SchedulerConfig { workers }))
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

fn assert_identity(a: &SweepResult, b: &SweepResult, label: &str) {
    assert_eq!(a.records.len(), b.records.len(), "{label}: record count");
    for (x, y) in a.records.iter().zip(&b.records) {
        assert!(
            x.identity_eq(y),
            "{label}: record (k={}, e={}) diverged:\n{x:?}\nvs\n{y:?}",
            x.k_idx,
            x.e_idx
        );
    }
}

/// The PR's acceptance criterion: a second identical sweep through a warm
/// engine performs **zero** self-energy solves and reproduces every
/// record bit for bit.
#[test]
fn warm_sweep_performs_zero_obc_solves_and_is_bit_identical() {
    let _g = lock();
    let dev = small_device();
    let plan = small_plan(&dev);
    let engine = TransportEngine::builder(dev)
        .cache(CachePolicy::Shared(Arc::new(SigmaCache::new(CacheConfig::default()))))
        .scheduler(pool(2))
        .build();
    let cold = engine.sweep(&plan, 3).expect("cold sweep");
    assert!(cold.health.cache_misses > 0, "cold sweep must populate the cache");

    let before = obc_solves_total();
    let warm = engine.sweep(&plan, 3).expect("warm sweep");
    let solves = obc_solves_total() - before;
    assert_eq!(solves, 0, "warm sweep must perform zero self-energy solves, did {solves}");
    assert_identity(&cold, &warm, "warm replay");
    assert_eq!(warm.spectrum, cold.spectrum, "spectrum");
    assert!(warm.health.cache_hits > 0, "warm sweep must report its hits");
    assert_eq!(warm.health.cache_misses, 0, "warm sweep must not miss");
}

/// Cache-on and cache-off cold runs are bit-identical for any worker
/// count: a hit replays the stored frame, so the cache can never move a
/// result — not even by one ULP.
#[test]
fn cached_runs_are_bit_identical_to_uncached_at_any_worker_count() {
    let _g = lock();
    let dev = small_device();
    let plan = small_plan(&dev);
    // One engine under every policy: the sweeps share its folded device,
    // each binds it to its own cache (or to none).
    let engine = TransportEngine::new(dev);
    let uncached = {
        let opts =
            SweepOptions::builder().scheduler(pool(1)).cache(CachePolicy::Off).build().unwrap();
        engine.sweep_resumable(&plan, 3, &opts).expect("uncached")
    };
    for workers in [1usize, 2, 4] {
        let cache = Arc::new(SigmaCache::new(CacheConfig::default()));
        let opts = SweepOptions::builder()
            .scheduler(pool(workers))
            .cache(CachePolicy::Shared(cache))
            .build()
            .unwrap();
        let cached = engine.sweep_resumable(&plan, 3, &opts).expect("cached");
        assert_identity(&uncached, &cached, &format!("cached w={workers}"));
    }
}

/// Exact point hits through the engine replay the stored solve
/// bit-identically.
#[test]
fn point_hits_replay_bit_identically() {
    let _g = lock();
    let dev = small_device();
    let dk = dev.at_kz(0.0);
    let e = dk.lead_l.dispersive_energy(1.0, 0.2, 0.3).expect("band");
    let engine = TransportEngine::builder(dev)
        .cache(CachePolicy::Shared(Arc::new(SigmaCache::new(CacheConfig::default()))))
        .build();
    let miss = engine.solve_point(e, 0.0, &PointPolicy::direct()).into_result().unwrap();
    let hit = engine.solve_point(e, 0.0, &PointPolicy::direct()).into_result().unwrap();
    assert_eq!(miss.transmission.to_bits(), hit.transmission.to_bits());
    assert_eq!(hit.sigma_l.max_diff(&miss.sigma_l), 0.0);
    assert_eq!(hit.sigma_r.max_diff(&miss.sigma_r), 0.0);
    let stats = engine.cache_stats().expect("cache on");
    assert!(stats.hits >= 2, "second solve must hit both sides: {stats:?}");
}

/// A budget so small the sweep constantly evicts: slower, never wrong.
#[test]
fn thrashing_byte_budget_never_corrupts_a_sweep() {
    let _g = lock();
    let dev = small_device();
    let plan = small_plan(&dev);
    // One engine under every policy: the sweeps share its folded device,
    // each binds it to its own cache (or to none).
    let engine = TransportEngine::new(dev);
    let uncached = {
        let opts =
            SweepOptions::builder().scheduler(pool(1)).cache(CachePolicy::Off).build().unwrap();
        engine.sweep_resumable(&plan, 3, &opts).expect("uncached")
    };
    // A handful of frames at most.
    let cache = Arc::new(SigmaCache::new(CacheConfig { max_bytes: 4 << 10 }));
    let opts = SweepOptions::builder()
        .scheduler(pool(2))
        .cache(CachePolicy::Shared(cache.clone()))
        .build()
        .unwrap();
    let thrashed = engine.sweep_resumable(&plan, 3, &opts).expect("thrashed");
    assert_identity(&uncached, &thrashed, "thrashing budget");
    let stats = cache.stats();
    assert!(stats.evictions > 0, "budget must actually thrash: {stats:?}");
    assert!(stats.bytes <= 4 << 10, "budget overrun: {stats:?}");
}

/// Builder validation: the incompatible-knob combinations are typed
/// errors, not silent misconfigurations.
#[test]
fn sweep_options_builder_rejects_incompatible_knobs() {
    match SweepOptions::builder().max_new_points(4).build() {
        Err(SweepOptionsError::MaxNewPointsWithoutCheckpoint { max_new_points: 4 }) => {}
        other => panic!("expected MaxNewPointsWithoutCheckpoint, got {other:?}"),
    }
    match SweepOptions::builder().checkpoint("x.ckpt").max_new_points(0).build() {
        Err(SweepOptionsError::ZeroMaxNewPoints) => {}
        other => panic!("expected ZeroMaxNewPoints, got {other:?}"),
    }
    // The error type round-trips through Display for operator logs.
    let err = SweepOptions::builder().max_new_points(7).build().unwrap_err();
    assert!(err.to_string().contains("checkpoint"), "{err}");
    // And the valid combinations build.
    assert!(SweepOptions::builder().checkpoint("x.ckpt").max_new_points(1).build().is_ok());
    assert!(SweepOptions::builder().build().is_ok());
}

/// While a fault campaign is armed the cache stands down entirely:
/// nothing is consulted, nothing is stored — a later hit must never
/// replay a solve that went through the injection chokepoints.
#[cfg(feature = "fault-inject")]
#[test]
fn fault_injected_solves_are_never_cached() {
    use qtx_linalg::fault::{self, FaultConfig};
    let _g = lock();
    let dev = small_device();
    let dk = dev.at_kz(0.0);
    let e = dk.lead_l.dispersive_energy(1.0, 0.2, 0.3).expect("band");
    let cache = Arc::new(SigmaCache::new(CacheConfig::default()));
    let engine = TransportEngine::builder(dev).cache(CachePolicy::Shared(cache.clone())).build();
    // Campaign armed with every chokepoint disabled: no fault can fire,
    // but the bypass must still keep the cache untouched.
    let mut campaign = FaultConfig::new(1.0, 1);
    campaign.sites.factor_poly = false;
    campaign.sites.self_energy = false;
    campaign.sites.splitsolve = false;
    campaign.sites.sched_panic = false;
    fault::set_config(Some(campaign));
    let under_campaign = engine.solve_point(e, 0.0, &PointPolicy::robust());
    fault::set_config(None);
    assert!(under_campaign.result.is_some(), "site-free campaign must still solve");
    let stats = cache.stats();
    assert_eq!(
        (stats.entries, stats.hits, stats.misses),
        (0, 0, 0),
        "campaign solves must bypass the cache entirely: {stats:?}"
    );
    // Disarmed: the same solve now populates the cache.
    engine.solve_point(e, 0.0, &PointPolicy::robust());
    assert!(cache.stats().entries > 0, "disarmed solves must cache again");
}
