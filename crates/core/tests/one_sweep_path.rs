//! Pins the merge of the sweep drivers into the one engine-owned loop:
//!
//! * the pure Fig. 9 gather-cost function prices exactly what the
//!   threaded rank replay it replaced accumulated on the virtual clock
//!   (the replay survives here, as the reference);
//! * a refined sweep that never refines *is* the flat sweep, except for
//!   the checkpoint identity;
//! * engine sweeps run on the engine's folded-device memo;
//! * a malformed plan is a typed error, not an out-of-bounds panic.

use qtx_atomistic::{BasisKind, DeviceBuilder};
use qtx_core::sweep::POINT_RECORD_BYTES;
use qtx_core::{
    CheckpointError, Device, RefineConfig, SweepOptions, SweepPlan, SweepResult, TransportEngine,
    TransportError,
};
use qtx_mpi::{run_world, Comm, CostModel};
use std::collections::HashSet;
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

/// What the sweep did after every solve phase before the gather cost
/// became a pure function: spawn `n_ranks` threads, deal the `todo`
/// records over the Fig. 9 hierarchy (or, rank-starved, over one pooled
/// stride), gather them at world rank 0, and report the largest virtual
/// clock. Only the payload sizes matter, so records travel as zeros.
fn threaded_replay_seconds(plan: &SweepPlan, n_ranks: usize, todo: &[(u32, u32)]) -> f64 {
    if todo.is_empty() {
        return 0.0;
    }
    let todo: Arc<HashSet<(u32, u32)>> = Arc::new(todo.iter().copied().collect());
    let energies: Arc<Vec<usize>> = Arc::new(plan.energies.iter().map(Vec::len).collect());
    let non_empty = energies.iter().filter(|&&n| n > 0).count();
    let clocks = if n_ranks < non_empty.max(1) {
        // Pooled: every rank strides the flattened (k, E) list.
        run_world(n_ranks.max(1), CostModel::gemini(), move |comm: Comm| {
            let mut payload = Vec::new();
            let mut idx = 0usize;
            for (k_idx, &n_e) in energies.iter().enumerate() {
                for e_idx in 0..n_e {
                    let point = (k_idx as u32, e_idx as u32);
                    if idx % comm.size() == comm.rank() && todo.contains(&point) {
                        payload.extend_from_slice(&[0u8; POINT_RECORD_BYTES]);
                    }
                    idx += 1;
                }
            }
            comm.gather(0, payload);
            comm.comm_time()
        })
    } else {
        // Hierarchical: k-groups sized by workload, energies round-robin
        // inside each group, two-level gather to world root.
        let alloc = plan.allocate_ranks(n_ranks);
        let owner: Vec<usize> =
            alloc.iter().enumerate().flat_map(|(k, &n)| std::iter::repeat_n(k, n)).collect();
        assert_eq!(owner.len(), n_ranks);
        run_world(n_ranks, CostModel::gemini(), move |comm: Comm| {
            let k_idx = owner[comm.rank()];
            let k_comm = comm.split(k_idx, comm.rank());
            let mut payload = Vec::new();
            for i in 0..energies[k_idx] {
                if i % k_comm.size() == k_comm.rank() && todo.contains(&(k_idx as u32, i as u32)) {
                    payload.extend_from_slice(&[0u8; POINT_RECORD_BYTES]);
                }
            }
            let group_payload = k_comm.gather(0, payload).map(|v| v.concat()).unwrap_or_default();
            comm.gather(0, group_payload);
            comm.comm_time()
        })
    };
    clocks.into_iter().fold(0.0, f64::max)
}

fn priced_seconds(plan: &SweepPlan, n_ranks: usize, todo: &[(u32, u32)]) -> f64 {
    let points: Vec<usize> = plan.energies.iter().map(Vec::len).collect();
    CostModel::gemini().fig9_gather_seconds(
        n_ranks,
        &plan.allocate_ranks(n_ranks),
        &points,
        todo,
        POINT_RECORD_BYTES,
    )
}

#[test]
fn gather_cost_function_matches_the_threaded_rank_replay() {
    // Three momenta, the middle one empty; 8 points in all, so 16 ranks
    // over-subscribe and 0 or 1 rank falls into the pooled regime.
    let plan = SweepPlan {
        k_points: vec![(0.0, 0.5), (0.3, 1.0), (0.6, 0.5)],
        energies: vec![vec![0.1, 0.2, 0.3, 0.4, 0.5], Vec::new(), vec![0.1, 0.2, 0.3]],
    };
    let all = plan.canonical_points();
    // A full sweep; a resume after a kill at 3 points; a scattered subset,
    // like a refinement round; a resume of a complete checkpoint.
    let todos: [Vec<(u32, u32)>; 4] =
        [all.clone(), all[3..].to_vec(), all.iter().copied().step_by(3).collect(), Vec::new()];
    for n_ranks in [0usize, 1, 2, 5, 16] {
        for todo in &todos {
            let priced = priced_seconds(&plan, n_ranks, todo);
            let replayed = threaded_replay_seconds(&plan, n_ranks, todo);
            assert!(
                (priced - replayed).abs() <= 1e-12 * replayed,
                "{n_ranks} ranks, {} todo points: priced {priced:e} vs replayed {replayed:e}",
                todo.len()
            );
        }
    }
    // One rank gathers nothing from nobody; a second one makes it cost.
    assert_eq!(priced_seconds(&plan, 1, &all), 0.0);
    assert!(priced_seconds(&plan, 2, &all) > 0.0);
}

fn assert_same_run(a: &SweepResult, b: &SweepResult, label: &str) {
    assert_eq!(a.records.len(), b.records.len(), "{label}: record count");
    for (x, y) in a.records.iter().zip(&b.records) {
        assert!(x.identity_eq(y), "{label}: records diverged:\n{x:?}\nvs\n{y:?}");
    }
    assert_eq!(a.health, b.health, "{label}: health");
    assert_eq!(a.spectrum, b.spectrum, "{label}: spectrum");
}

fn is_plan_mismatch(err: &TransportError) -> bool {
    matches!(err, TransportError::Checkpoint(CheckpointError::PlanMismatch { .. }))
}

#[test]
fn a_refined_sweep_with_no_rounds_is_the_flat_sweep() {
    let dev = small_device();
    let plan = SweepPlan::from_device(&dev, 0.05, 0.15);
    let engine = TransportEngine::new(dev);
    let no_rounds = RefineConfig { max_rounds: 0, ..RefineConfig::default() };

    let dir = std::env::temp_dir().join("qtx-one-sweep-path-test");
    std::fs::create_dir_all(&dir).unwrap();
    let (flat_ckpt, refined_ckpt) = (dir.join("flat.qtxswp"), dir.join("refined.qtxswp"));
    for path in [&flat_ckpt, &refined_ckpt] {
        std::fs::remove_file(path).ok();
    }
    let flat_opts = SweepOptions::builder().checkpoint(&flat_ckpt).build().unwrap();
    let refined_opts = SweepOptions::builder().checkpoint(&refined_ckpt).build().unwrap();

    let flat = engine.sweep_resumable(&plan, 3, &flat_opts).unwrap();
    let refined = engine.sweep_refined(&plan, 3, &refined_opts, &no_rounds).unwrap();
    assert_eq!((refined.rounds, refined.points_added, refined.truncated), (0, 0, false));
    assert_eq!(refined.base_points, plan.total_points());
    assert_same_run(&flat, &refined.result, "max_rounds = 0");
    assert_eq!(flat.comm_seconds, refined.result.comm_seconds);
    assert_eq!(flat.comm_seconds, priced_seconds(&plan, 3, &plan.canonical_points()));

    // Same loop, different checkpoint identity: neither resumes the other.
    let err = engine.sweep_refined(&plan, 3, &flat_opts, &no_rounds).unwrap_err();
    assert!(is_plan_mismatch(&err), "refined resume of a flat checkpoint: {err:?}");
    let err = engine.sweep_resumable(&plan, 3, &refined_opts).unwrap_err();
    assert!(is_plan_mismatch(&err), "flat resume of a refined checkpoint: {err:?}");

    // A complete checkpoint resumes to the same run and prices no gather.
    let replay = engine.sweep_resumable(&plan, 3, &flat_opts).unwrap();
    assert_same_run(&flat, &replay, "complete resume");
    assert_eq!(replay.comm_seconds, 0.0);
    for path in [&flat_ckpt, &refined_ckpt] {
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn engine_sweeps_run_on_the_folded_device_memo() {
    let dev = small_device();
    let plan = SweepPlan::from_device(&dev, 0.05, 0.15);
    let engine = TransportEngine::new(dev);
    let before = engine.device_k(0.0).expect("device-backed engine");
    let first = engine.sweep(&plan, 3).unwrap();
    let second = engine.sweep(&plan, 3).unwrap();
    assert_same_run(&first, &second, "second sweep");
    let after = engine.device_k(0.0).expect("device-backed engine");
    assert!(Arc::ptr_eq(&before, &after), "a sweep must use the memo, not replace it");
}

#[test]
fn malformed_plans_are_config_errors_not_panics() {
    let dev = small_device();
    let good = SweepPlan::from_device(&dev, 0.05, 0.15);
    let engine = TransportEngine::new(dev);
    let e0 = good.energies[0][0];
    let malformed = [
        ("more grids than momenta", {
            let mut p = good.clone();
            p.energies.push(vec![e0]);
            p
        }),
        ("fewer grids than momenta", {
            let mut p = good.clone();
            p.energies.clear();
            p
        }),
        ("NaN energy", {
            let mut p = good.clone();
            p.energies[0][1] = f64::NAN;
            p
        }),
        ("infinite energy", {
            let mut p = good.clone();
            p.energies[0].push(f64::INFINITY);
            p
        }),
        ("NaN kz", {
            let mut p = good.clone();
            p.k_points[0].0 = f64::NAN;
            p
        }),
        ("infinite weight", {
            let mut p = good.clone();
            p.k_points[0].1 = f64::INFINITY;
            p
        }),
    ];
    for (label, plan) in &malformed {
        // Total even on the mismatched lengths the sweeps reject.
        plan.allocate_ranks(4);
        let err = engine.sweep(plan, 2).unwrap_err();
        assert!(matches!(err, TransportError::Config { .. }), "{label}, sweep: {err:?}");
        let err = engine
            .sweep_refined(plan, 2, &SweepOptions::default(), &RefineConfig::default())
            .unwrap_err();
        assert!(matches!(err, TransportError::Config { .. }), "{label}, sweep_refined: {err:?}");
    }
}
