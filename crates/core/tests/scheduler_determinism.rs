//! Determinism battery for the supervised work-stealing scheduler.
//!
//! The scheduler's contract (`docs/scheduler.md`): a sweep's records are a
//! pure function of the plan — the pool's width, steal order, and timing
//! never leak into the results. These properties drive randomized sweep
//! plans through fresh pools of 1, 2, and 4 workers and require the
//! record sets to be `identity_eq` and the health accounting equal.
//!
//! The same invariance *under fault campaigns* (including the injected
//! `sched_panic` site) lives in `fault_tolerance.rs`, which owns the
//! process-global campaign configuration.

use proptest::prelude::*;
use qtx_atomistic::{BasisKind, DeviceBuilder};
use qtx_core::cache::CacheConfig;
use qtx_core::{
    Batching, CachePolicy, Device, RefineConfig, RefinedSweep, Scheduler, SchedulerConfig,
    SigmaCache, SweepOptions, SweepPlan, SweepResult, TransportEngine,
};
use std::sync::Arc;

fn small_device() -> Device {
    let spec = DeviceBuilder::nanowire(0.8).cells(6).basis(BasisKind::TightBinding).build();
    let mut d = Device::build(spec).unwrap();
    let dk = d.at_kz(0.0);
    let edge = dk.lead_l.dispersive_band_min(0.1, 0.3).expect("conduction edge");
    d.config.mu_l = edge + 0.15;
    d.config.mu_r = edge + 0.10;
    d
}

fn engine(dev: &Device) -> TransportEngine {
    TransportEngine::new(dev.clone())
}

fn sweep_on_fresh_pool(dev: &Device, plan: &SweepPlan, workers: usize) -> SweepResult {
    let opts = SweepOptions::builder()
        .scheduler(Arc::new(Scheduler::new(SchedulerConfig { workers })))
        .build()
        .unwrap();
    engine(dev).sweep_resumable(plan, 3, &opts).unwrap()
}

fn assert_runs_identical(reference: &SweepResult, other: &SweepResult, label: &str) {
    assert_eq!(other.records.len(), reference.records.len(), "{label}: record count");
    for (a, b) in other.records.iter().zip(&reference.records) {
        assert!(
            a.identity_eq(b),
            "{label}: record (k={}, e={}) diverged:\n{a:?}\nvs\n{b:?}",
            a.k_idx,
            a.e_idx
        );
    }
    assert_eq!(other.health, reference.health, "{label}: health accounting");
    assert_eq!(other.spectrum, reference.spectrum, "{label}: spectrum");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Randomized energy windows: the 1-worker pool defines the reference
    /// ordering; 2- and 4-worker pools must reproduce it bit-for-bit.
    #[test]
    fn sweep_records_are_invariant_under_worker_count(
        d_min_milli in 20usize..45,
        width_milli in 60usize..120,
    ) {
        let dev = small_device();
        let d_min = d_min_milli as f64 * 1e-3;
        let d_max = d_min + width_milli as f64 * 1e-3;
        let plan = SweepPlan::from_device(&dev, d_min, d_max);
        prop_assert!(plan.total_points() > 0);
        let reference = sweep_on_fresh_pool(&dev, &plan, 1);
        for workers in [2usize, 4] {
            let run = sweep_on_fresh_pool(&dev, &plan, workers);
            assert_runs_identical(&reference, &run, &format!("{workers} workers"));
        }
    }
}

/// The non-randomized smoke version stays cheap enough for every CI leg.
#[test]
fn default_plan_is_invariant_under_worker_count() {
    let dev = small_device();
    let plan = SweepPlan::from_device(&dev, 0.05, 0.15);
    let reference = sweep_on_fresh_pool(&dev, &plan, 1);
    for workers in [2usize, 4] {
        let run = sweep_on_fresh_pool(&dev, &plan, workers);
        assert_runs_identical(&reference, &run, &format!("{workers} workers"));
    }
}

/// Fresh pool + fresh shared Σ-cache: batched/overlapped sweeps and
/// refined sweeps must not let cache races or chunk boundaries leak into
/// the records.
fn options_on_fresh_pool(workers: usize, batching: Batching) -> SweepOptions {
    SweepOptions::builder()
        .scheduler(Arc::new(Scheduler::new(SchedulerConfig { workers })))
        .cache(CachePolicy::Shared(Arc::new(SigmaCache::new(CacheConfig::default()))))
        .batching(batching)
        .build()
        .unwrap()
}

fn refine_cfg() -> RefineConfig {
    // Tight tolerance on a coarse base grid: refinement must actually
    // fire for these tests to mean anything (asserted below).
    RefineConfig { tol: 1e-4, budget: 24, max_rounds: 3, min_de: 1e-3, flag_escalated: true }
}

fn refined_on_fresh_pool(dev: &Device, plan: &SweepPlan, workers: usize) -> RefinedSweep {
    let opts = options_on_fresh_pool(workers, Batching::Auto);
    engine(dev).sweep_refined(plan, 3, &opts, &refine_cfg()).unwrap()
}

fn assert_refined_identical(reference: &RefinedSweep, other: &RefinedSweep, label: &str) {
    assert_runs_identical(&reference.result, &other.result, label);
    assert_eq!(other.rounds, reference.rounds, "{label}: rounds");
    assert_eq!(other.points_added, reference.points_added, "{label}: points added");
    assert_eq!(other.plan.energies.len(), reference.plan.energies.len(), "{label}: momenta");
    for (a, b) in other.plan.energies.iter().zip(&reference.plan.energies) {
        let a_bits: Vec<u64> = a.iter().map(|e| e.to_bits()).collect();
        let b_bits: Vec<u64> = b.iter().map(|e| e.to_bits()).collect();
        assert_eq!(a_bits, b_bits, "{label}: refined grid energies (bitwise)");
    }
}

/// Batching is a scheduling concern only: chunked tasks on a shared
/// Σ-cache must reproduce the per-point records bit-for-bit.
#[test]
fn batched_sweeps_match_per_point_bit_for_bit() {
    let dev = small_device();
    let plan = SweepPlan::from_device(&dev, 0.05, 0.15);
    let reference = engine(&dev)
        .sweep_resumable(&plan, 3, &options_on_fresh_pool(2, Batching::PerPoint))
        .unwrap();
    for (workers, batching) in
        [(1, Batching::Auto), (4, Batching::Auto), (2, Batching::Fixed(3)), (4, Batching::Fixed(7))]
    {
        let run = engine(&dev)
            .sweep_resumable(&plan, 3, &options_on_fresh_pool(workers, batching))
            .unwrap();
        assert_runs_identical(&reference, &run, &format!("{workers} workers, {batching:?}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Adaptive refinement composed over randomized base grids: the
    /// refined grid and every record must be invariant under the worker
    /// count, including the refinement-inserted points.
    #[test]
    fn refined_sweep_is_invariant_under_worker_count(
        d_min_milli in 30usize..50,
        width_milli in 80usize..140,
    ) {
        let dev = small_device();
        let d_min = d_min_milli as f64 * 1e-3;
        let d_max = d_min + width_milli as f64 * 1e-3;
        let plan = SweepPlan::from_device(&dev, d_min, d_max);
        prop_assert!(plan.total_points() > 0);
        let reference = refined_on_fresh_pool(&dev, &plan, 1);
        prop_assert!(reference.points_added > 0, "refinement must fire to be tested");
        for workers in [2usize, 4] {
            let run = refined_on_fresh_pool(&dev, &plan, workers);
            assert_refined_identical(&reference, &run, &format!("{workers} workers"));
        }
    }
}

/// A refined sweep killed mid-refinement and resumed must converge to the
/// bit-identical grid and records of an uninterrupted run.
#[test]
fn refined_sweep_kill_resume_is_bit_identical() {
    let dev = small_device();
    let plan = SweepPlan::from_device(&dev, 0.05, 0.15);
    let reference = refined_on_fresh_pool(&dev, &plan, 2);
    assert!(reference.points_added > 0, "refinement must fire to be tested");

    let dir = std::env::temp_dir().join("qtx-refine-resume-test");
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("refined.qtxswp");
    std::fs::remove_file(&ckpt).ok();

    // Kill three points into the first refinement round.
    let kill_after = plan.total_points() + 3;
    assert!(
        kill_after < plan.total_points() + reference.points_added,
        "kill must land mid-refinement"
    );
    let kill_opts = SweepOptions::builder()
        .scheduler(Arc::new(Scheduler::new(SchedulerConfig { workers: 2 })))
        .cache(CachePolicy::Shared(Arc::new(SigmaCache::new(CacheConfig::default()))))
        .batching(Batching::Auto)
        .checkpoint(&ckpt)
        .max_new_points(kill_after)
        .build()
        .unwrap();
    let partial = engine(&dev).sweep_refined(&plan, 3, &kill_opts, &refine_cfg()).unwrap();
    assert!(partial.truncated, "the kill budget must actually truncate the run");
    assert_eq!(partial.result.records.len(), kill_after);

    // Resume on a different worker count, no kill budget.
    let resume_opts = SweepOptions::builder()
        .scheduler(Arc::new(Scheduler::new(SchedulerConfig { workers: 4 })))
        .cache(CachePolicy::Shared(Arc::new(SigmaCache::new(CacheConfig::default()))))
        .batching(Batching::Auto)
        .checkpoint(&ckpt)
        .build()
        .unwrap();
    let resumed = engine(&dev).sweep_refined(&plan, 3, &resume_opts, &refine_cfg()).unwrap();
    assert!(!resumed.truncated);
    assert_refined_identical(&reference, &resumed, "kill/resume");
    std::fs::remove_file(&ckpt).ok();
}

/// The checkpoint fingerprint must cover the refinement config: a
/// checkpoint written under one tolerance is rejected under another
/// (and by the flat sweep) instead of silently mixing schedules.
#[test]
fn refined_checkpoint_fingerprint_covers_refine_config() {
    let dev = small_device();
    let plan = SweepPlan::from_device(&dev, 0.05, 0.15);
    let dir = std::env::temp_dir().join("qtx-refine-fingerprint-test");
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("refined-fp.qtxswp");
    std::fs::remove_file(&ckpt).ok();

    let opts = SweepOptions::builder().checkpoint(&ckpt).build().unwrap();
    let cfg = refine_cfg();
    engine(&dev).sweep_refined(&plan, 3, &opts, &cfg).unwrap();
    assert!(ckpt.exists());

    // Same plan, different tolerance: loudly rejected.
    let other = RefineConfig { tol: cfg.tol * 0.5, ..cfg };
    let err = engine(&dev).sweep_refined(&plan, 3, &opts, &other).unwrap_err();
    assert!(
        matches!(
            &err,
            qtx_core::TransportError::Checkpoint(qtx_core::CheckpointError::PlanMismatch { .. })
        ),
        "expected PlanMismatch, got {err:?}"
    );
    // The flat sweep must reject a refined checkpoint too.
    let flat_err = engine(&dev).sweep_resumable(&plan, 3, &opts).unwrap_err();
    assert!(matches!(
        &flat_err,
        qtx_core::TransportError::Checkpoint(qtx_core::CheckpointError::PlanMismatch { .. })
    ));
    std::fs::remove_file(&ckpt).ok();
}
