//! The traced run: replays a fixed sample of the workload's points through
//! the layers' public functions on identical inputs, one span per call,
//! and reads the layers' own ledgers at the same boundaries.
//!
//! Everything here runs one call after the other on the calling thread
//! (the library may fan a kernel out over its own threads); only the two
//! sweeps behind `scheduler.speedup_2w` use a pool.

use crate::stats::{median, p90_if_supported};
use crate::trace::{Cost, Tracer};
use crate::workloads::{
    all_points, current_of, engine_on, pool, reference, refined_options, setup, Inputs, Kind,
    Sample, Sizes, Tally, Workload, N_RANKS, POOL_WORKERS, T_TOL,
};
use qtx::core::checkpoint;
use qtx::core::observables::accumulate;
use qtx::core::transport::solve_with_obc;
use qtx::core::{
    landauer_integrate, schrodinger_poisson, CacheConfig, CachePolicy, Device, DeviceK,
    PointPolicy, PointRecord, RefineConfig, Scheduler, SigmaCache, SweepPlan, TransportEngine,
};
use qtx::linalg::{eig_generalized, gemm, lu_factor, qr_factor, Complex64, Op, ZMat};
use qtx::obc::{
    decode_obc_result, encode_obc_result, obc_solves_total, self_energy, BeynConfig, Eta,
    FeastConfig, ObcMethod, Side,
};
use qtx::poisson::{gated_poisson_1d, GateSpec};
use qtx::solver::{
    bcr_solve, btd_lu_solve_ws, rgf_boundary_ws, ObcSystem, SolverKind, SplitSolve, Workspace,
};
use qtx::sparse::{btd_stats, CompressedSigma};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

const MB: f64 = 1.0 / (1u64 << 20) as f64;
/// Replayed points per workload, at most.
const REPLAY_POINTS: usize = 16;
/// Relative tolerance the Σ-compression span runs at.
const SIGMA_TOL: f64 = 1e-8;
/// Seconds of solve time the sweep-level plan is thinned to.
const SWEEP_BUDGET_S: f64 = 2.0;

pub struct Traced {
    pub metrics: BTreeMap<&'static str, f64>,
    pub tally: Tally,
}

/// What one replayed point cost, layer by layer.
#[derive(Default, Clone, Copy)]
struct PointCosts {
    assemble: Cost,
    obc: Cost,
    solve_with_obc: Cost,
    splitsolve: Cost,
    btd_lu: Cost,
    bcr: Cost,
    rgf: Cost,
    compress: Cost,
    encode: Cost,
    decode: Cost,
    solve_point: Cost,
    tonly: Cost,
    workload_point_ms: f64,
    fresh_allocs: f64,
    modes: f64,
    sigma_rank: f64,
    frame_bytes: f64,
    t_err: f64,
}

fn med(points: &[PointCosts], f: impl Fn(&PointCosts) -> f64) -> f64 {
    median(&points.iter().map(f).collect::<Vec<_>>())
}

fn mean(points: &[PointCosts], f: impl Fn(&PointCosts) -> f64) -> f64 {
    points.iter().map(f).sum::<f64>() / points.len() as f64
}

/// The partition count `solve_with_obc` gives SplitSolve for this system.
fn splitsolve_partitions(requested: usize, nb: usize) -> usize {
    let p = requested.min(nb.next_power_of_two() / 2).max(1);
    let p = if p.is_power_of_two() { p } else { 1 };
    p.min(nb)
}

fn both_sides(
    dk: &DeviceK,
    e: f64,
    method: ObcMethod,
) -> (qtx::obc::ObcOutcome<qtx::obc::ObcResult>, qtx::obc::ObcOutcome<qtx::obc::ObcResult>) {
    (
        self_energy(&dk.lead_l, e, Eta::ZERO, Side::Left, method),
        self_energy(&dk.lead_r, e, Eta::ZERO, Side::Right, method),
    )
}

fn plan_of(dev: &Device, points: &[Sample]) -> SweepPlan {
    let k_points = dev.kz_points();
    let mut energies = vec![Vec::new(); k_points.len()];
    for p in points {
        energies[p.k_idx as usize].push(p.e);
    }
    SweepPlan { k_points, energies }
}

/// Every `stride`-th point of the plan, so that about `cap` remain.
fn thinned(dev: &Device, plan: &SweepPlan, cap: usize) -> SweepPlan {
    let all = all_points(plan);
    let stride = all.len().div_ceil(cap.max(1)).max(1);
    let kept: Vec<Sample> = all.into_iter().step_by(stride).collect();
    plan_of(dev, &kept)
}

/// Runs `f` until it has taken `min_s` seconds and returns the process-wide
/// operation rate it sustained, in GFLOP/s.
fn sustained(min_s: f64, mut f: impl FnMut()) -> f64 {
    f(); // warm caches and buffers
    let flops0 = qtx::linalg::flops_total();
    let t0 = Instant::now();
    let mut calls = 0u32;
    while calls == 0 || t0.elapsed().as_secs_f64() < min_s {
        f();
        calls += 1;
    }
    let secs = t0.elapsed().as_secs_f64();
    let flops = (qtx::linalg::flops_total() - flops0) as f64;
    flops / secs * 1e-9
}

pub fn run(w: Workload, inp: &Inputs, sizes: Sizes, corrupt: bool, tr: &mut Tracer) -> Traced {
    let mut metrics: BTreeMap<&'static str, f64> =
        crate::spec::PER_LAYER.iter().map(|m| (m.name, 0.0)).collect();
    let mut put = |name: &'static str, value: f64| {
        let slot = metrics.get_mut(name).unwrap_or_else(|| panic!("{name} is not in PER_LAYER"));
        *slot = value;
    };
    let mut tally = Tally::default();

    // ── cp2k / device: the set-up path, once, with spans on ──
    let s = setup(w, inp, sizes, tr);
    let span_ms = |tr: &Tracer, layer: &str, name: &str| {
        tr.spans().iter().find(|sp| sp.layer == layer && sp.name == name).map_or(0.0, |sp| sp.ms())
    };
    put("cp2k.build_ms", span_ms(tr, "cp2k", "build"));
    put("device.fold_ms", span_ms(tr, "device", "fold"));
    put("device.plan_ms", span_ms(tr, "device", "plan"));
    let r = reference(&s, sizes, corrupt);
    put("bench.reference_s", r.secs);

    let cfg = s.device.config;
    let sample: Vec<Sample> = s.sample.iter().copied().take(REPLAY_POINTS).collect();
    let dks: Vec<DeviceK> = s.plan.k_points.iter().map(|&(kz, _)| s.device.at_kz(kz)).collect();
    let block = dks[0].h.block_size();
    put("sparse.btd_mb", btd_stats(&dks[0].h).bytes as f64 * MB);

    // ── linalg: the machine's own kernel rates at this block size ──
    let (gemm_gflops, lu_gflops, qr_gflops, eig_ms) = {
        let a = ZMat::random(block, block, 11);
        let b = ZMat::random(block, block, 12);
        let mut c = ZMat::zeros(block, block);
        let one = Complex64::new(1.0, 0.0);
        let open = tr.begin("linalg", "kernels");
        let g = sustained(0.2, || gemm(one, &a, Op::None, &b, Op::None, Complex64::ZERO, &mut c));
        let l = sustained(0.2, || drop(std::hint::black_box(lu_factor(&a))));
        let q = sustained(0.2, || drop(std::hint::black_box(qr_factor(&a))));
        // The companion pencil of the lead problem is 2s × 2s.
        let (pa, pb) =
            (ZMat::random(2 * block, 2 * block, 13), ZMat::random(2 * block, 2 * block, 14));
        let t0 = Instant::now();
        drop(std::hint::black_box(eig_generalized(&pa, &pb)));
        let eig = t0.elapsed().as_secs_f64() * 1e3;
        tr.end(open);
        (g, l, q, eig)
    };
    put("linalg.gemm_gflops", gemm_gflops);
    put("linalg.lu_gflops", lu_gflops);
    put("linalg.qr_gflops", qr_gflops);
    put("linalg.eig_ms", eig_ms);

    // ── the replay: one point after the other through every layer ──
    // Layer split of a cold point, so always with the cache off; the
    // workload's own point path (cache hits on `_warm`, boundary RGF on
    // `_tonly`) is timed beside it as `point.solve_ms`.
    let cold_engine: Arc<TransportEngine> = if s.cache.is_some() {
        engine_on(&s.device, None, CachePolicy::Off)
    } else {
        s.engine.clone()
    };
    let same_path = s.cache.is_none() && !s.policy.transmission_only;
    let ws = Workspace::new();
    let mut costs: Vec<PointCosts> = Vec::new();
    let mut last_solved = Vec::new();
    for (i, p) in sample.iter().enumerate() {
        tr.set_point(i as u32);
        let dk = &dks[p.k_idx as usize];
        let mut c = PointCosts::default();
        let point = tr.begin("bench", "replay_point");
        let (a, cost) = tr.time("device", "assemble", || dk.es_minus_h(p.e));
        c.assemble = cost;
        let ((obc_l, obc_r), cost) = tr.time("obc", "self_energy", || both_sides(dk, p.e, cfg.obc));
        c.obc = cost;
        let (obc_l, obc_r) = (obc_l.expect("left self-energy"), obc_r.expect("right self-energy"));
        c.modes = (obc_l.out_modes.len() + obc_r.out_modes.len()) as f64;
        let (solved, cost) = tr.time("transport", "solve_with_obc", || {
            solve_with_obc(dk, p.e, &cfg, &obc_l, &obc_r, None)
        });
        c.solve_with_obc = cost;
        let solved = solved.expect("solve_with_obc");

        // The three Eq. 5 solvers on the very same system.
        let mut sys = ObcSystem {
            a,
            sigma_l: obc_l.sigma.clone().into(),
            sigma_r: obc_r.sigma.clone().into(),
            rhs_top: obc_l.injection.clone(),
            rhs_bottom: obc_r.injection.clone(),
        };
        let SolverKind::SplitSolve { partitions } = cfg.solver else {
            panic!("every workload runs the default SplitSolve configuration");
        };
        let split = SplitSolve::new(splitsolve_partitions(partitions, sys.num_blocks()));
        if i == 0 {
            // Fill the workspace pool: the sweep's workers solve warm too.
            let _ = split.solve_ws(&sys, None, &ws).expect("splitsolve");
            let _ = btd_lu_solve_ws(&sys, &ws).expect("btd_lu");
        }
        let fresh0 = ws.fresh_allocations();
        let (x, cost) = tr.time("solver", "splitsolve", || split.solve_ws(&sys, None, &ws));
        c.splitsolve = cost;
        c.fresh_allocs = (ws.fresh_allocations() - fresh0) as f64;
        drop(x.expect("splitsolve"));
        let (x, cost) = tr.time("solver", "btd_lu", || btd_lu_solve_ws(&sys, &ws));
        c.btd_lu = cost;
        drop(x.expect("btd_lu"));
        let (x, cost) = tr.time("solver", "bcr", || bcr_solve(&sys));
        c.bcr = cost;
        drop(x.expect("bcr"));
        // Boundary-block RGF: same A and Σ, no right-hand side.
        sys.rhs_top = ZMat::zeros(block, 0);
        sys.rhs_bottom = ZMat::zeros(block, 0);
        let (g, cost) = tr.time("solver", "rgf_boundary", || rgf_boundary_ws(&sys, &ws));
        c.rgf = cost;
        drop(g.expect("rgf_boundary"));

        let (sigma, cost) =
            tr.time("sparse", "compress", || CompressedSigma::compress(&obc_l.sigma, SIGMA_TOL));
        c.compress = cost;
        c.sigma_rank = sigma.rank() as f64;
        let (frame, cost) = tr.time("obc", "frame_encode", || encode_obc_result(&obc_l));
        c.encode = cost;
        c.frame_bytes = frame.len() as f64;
        let (decoded, cost) = tr.time("obc", "frame_decode", || decode_obc_result(&frame));
        c.decode = cost;
        drop(decoded.expect("frame decode"));
        tr.end(point);

        // The engine's own route through the same point.
        let (rs, cost) = tr.time("transport", "solve_point", || {
            cold_engine.solve_point(p.e, p.kz, &PointPolicy::robust())
        });
        c.solve_point = cost;
        let t = rs.result.as_ref().map_or(f64::NAN, |res| res.transmission);
        c.t_err = (t - r.t[i]).abs();
        tally.attempted += 1;
        tally.failed += u64::from(rs.error.is_some() || c.t_err.is_nan() || c.t_err > T_TOL);
        let (rs, cost) = tr.time("transport", "solve_point_tonly", || {
            cold_engine.solve_point(p.e, p.kz, &PointPolicy::transmission_only())
        });
        c.tonly = cost;
        let t = rs.result.as_ref().map_or(f64::NAN, |res| res.transmission);
        tally.attempted += 1;
        tally.failed += u64::from(rs.error.is_some() || t.is_nan() || (t - r.t[i]).abs() > T_TOL);
        c.workload_point_ms = if same_path {
            c.solve_point.ms
        } else {
            tr.time("transport", "solve_point_workload", || {
                s.engine.solve_point(p.e, p.kz, &s.policy)
            })
            .1
            .ms
        };
        costs.push(c);
        if matches!(s.kind, Kind::Scf { .. }) {
            last_solved.push(solved);
        }
    }
    let configured = |c: &PointCosts| c.splitsolve;
    put("device.assemble_ms", med(&costs, |c| c.assemble.ms));
    put("obc.self_energy_ms", med(&costs, |c| c.obc.ms));
    put("obc.flops", mean(&costs, |c| c.obc.flops as f64));
    put("obc.modes", mean(&costs, |c| c.modes));
    put("obc.frame_encode_ms", med(&costs, |c| c.encode.ms));
    put("obc.frame_decode_ms", med(&costs, |c| c.decode.ms));
    put("obc.frame_bytes", mean(&costs, |c| c.frame_bytes));
    put("solver.splitsolve_ms", med(&costs, |c| c.splitsolve.ms));
    put("solver.btd_lu_ms", med(&costs, |c| c.btd_lu.ms));
    put("solver.bcr_ms", med(&costs, |c| c.bcr.ms));
    put("solver.flops", mean(&costs, |c| configured(c).flops as f64));
    put("solver.fresh_allocs", mean(&costs, |c| c.fresh_allocs));
    put("solver.rgf_boundary_ms", med(&costs, |c| c.rgf.ms));
    put("solver.rgf_peak_mb", costs.iter().map(|c| c.rgf.bytes).max().unwrap_or(0) as f64 * MB);
    put("sparse.sigma_rank", mean(&costs, |c| c.sigma_rank));
    put("sparse.compress_ms", med(&costs, |c| c.compress.ms));
    put("transport.solve_with_obc_ms", med(&costs, |c| c.solve_with_obc.ms));
    put(
        "transport.self_ms",
        med(&costs, |c| c.solve_with_obc.ms - c.assemble.ms - configured(c).ms),
    );
    put(
        "transport.ladder_overhead_ms",
        med(&costs, |c| c.solve_point.ms - c.obc.ms - c.solve_with_obc.ms),
    );
    put(
        "transport.unattributed_frac",
        med(&costs, |c| 1.0 - (c.obc.ms + c.solve_with_obc.ms) / c.solve_point.ms),
    );
    put("transport.t_err_max", costs.iter().map(|c| c.t_err).fold(0.0, f64::max));
    put("point.solve_ms", med(&costs, |c| c.workload_point_ms));
    put("point.tonly_ms", med(&costs, |c| c.tonly.ms));
    put("linalg.flops_per_point", mean(&costs, |c| c.solve_point.flops as f64));
    put("linalg.allocs_per_point", mean(&costs, |c| c.solve_point.allocs as f64));
    put(
        "linalg.peak_matrix_mb",
        costs.iter().map(|c| c.solve_point.bytes).max().unwrap_or(0) as f64 * MB,
    );
    // Achieved rate of a layer over the gemm rate measured above.
    let rate = |flops: f64, ms: f64| flops / (ms * 1e-3) * 1e-9 / gemm_gflops;
    put("obc.roofline_frac", med(&costs, |c| rate(c.obc.flops as f64, c.obc.ms)));
    put(
        "solver.roofline_frac",
        med(&costs, |c| rate(configured(c).flops as f64, configured(c).ms)),
    );

    // ── obc: the ladder's rungs on one point, left lead ──
    {
        let (p, dk) = (sample[0], &dks[sample[0].k_idx as usize]);
        tr.set_point(0);
        for (name, key, method) in [
            ("feast", "obc.ms.feast", ObcMethod::Feast(FeastConfig::default())),
            ("beyn", "obc.ms.beyn", ObcMethod::Beyn(BeynConfig::default())),
            ("shift_invert", "obc.ms.shift_invert", ObcMethod::ShiftInvert),
            ("decimation", "obc.ms.decimation", ObcMethod::Decimation),
        ] {
            let (_, cost) = tr
                .time("obc", name, || self_energy(&dk.lead_l, p.e, Eta::ZERO, Side::Left, method));
            put(key, cost.ms);
        }
    }

    // ── cache: the miss and the hit path on a private cache ──
    let replay_cache = SigmaCache::new(CacheConfig::default());
    {
        let per_point_s = (med(&costs, |c| c.obc.ms) * 1e-3).max(1e-6);
        let n = ((1.0 / per_point_s) as usize).clamp(1, sample.len());
        let mut hit_ms = Vec::new();
        let mut miss_over_ms = Vec::new();
        for (i, p) in sample.iter().take(n).enumerate() {
            tr.set_point(i as u32);
            let dk = &dks[p.k_idx as usize];
            let (hash_l, hash_r) = (dk.lead_l.content_hash(), dk.lead_r.content_hash());
            let lookup = |tr: &mut Tracer, name: &'static str| {
                tr.time("cache", name, || {
                    let l =
                        replay_cache.self_energy(&dk.lead_l, hash_l, p.e, 0.0, Side::Left, cfg.obc);
                    let r = replay_cache.self_energy(
                        &dk.lead_r,
                        hash_r,
                        p.e,
                        0.0,
                        Side::Right,
                        cfg.obc,
                    );
                    (l.is_ok(), r.is_ok())
                })
                .1
                .ms
            };
            let miss = lookup(tr, "miss");
            hit_ms.push(lookup(tr, "hit"));
            miss_over_ms.push(miss - costs[i].obc.ms);
        }
        put("cache.hit_ms", median(&hit_ms));
        put("cache.miss_overhead_ms", median(&miss_over_ms));
    }

    // ── sweep / scheduler / checkpoint ──
    // The sweep-level plan: the workload's own plan thinned to about
    // SWEEP_BUDGET_S of solve time. Where that leaves no more points than
    // were replayed, it is the replayed points themselves, and the loop
    // they are compared with has already been timed above.
    let point_s = (med(&costs, |c| c.workload_point_ms) * 1e-3).max(1e-6);
    let cap = ((SWEEP_BUDGET_S / point_s) as usize).clamp(2, 128);
    let replayed_loop_ms = |n: usize| -> f64 {
        costs[..n]
            .iter()
            .map(|c| if s.cache.is_some() { c.workload_point_ms } else { c.solve_point.ms })
            .sum()
    };
    let (sweep_plan, loop_ms) = if cap <= sample.len() {
        (plan_of(&s.device, &sample[..cap]), Some(replayed_loop_ms(cap)))
    } else {
        (thinned(&s.device, &s.plan, cap), None)
    };
    let n_points = sweep_plan.total_points();
    // Engines with the workload's own cache policy on a pool of our choosing.
    let engine_with = |sched: Option<&Arc<Scheduler>>| {
        let policy = s.cache.clone().map_or(CachePolicy::Off, CachePolicy::Shared);
        engine_on(&s.device, sched, policy)
    };
    // The workload's own two-worker pool where it has one, so that no
    // second pool of that size exists beside it.
    let two_workers = s.pool.clone().unwrap_or_else(|| pool(POOL_WORKERS));
    let one_worker = {
        let engine = engine_with(Some(&pool(1)));
        let solves0 = obc_solves_total();
        let stats0 = s.cache.as_ref().map(|c| c.stats());
        let (res, cost) = tr.time("sweep", "sweep_1w", || engine.sweep(&sweep_plan, N_RANKS));
        let res = res.expect("one-worker sweep");
        // Per sweep of the workload's own plan.
        let scale = s.plan.total_points() as f64 / n_points as f64;
        put("obc.solves", (obc_solves_total() - solves0) as f64 * scale);
        if let (Some(c), Some(s0)) = (&s.cache, stats0) {
            let s1 = c.stats();
            let (hits, misses) = ((s1.hits - s0.hits) as f64, (s1.misses - s0.misses) as f64);
            put("cache.hits", hits * scale);
            put("cache.misses", misses * scale);
            put("cache.hit_ratio", hits / (hits + misses).max(1.0));
            put("cache.bytes", s1.bytes as f64);
            put("cache.evictions", s1.evictions as f64);
        }
        put("sweep.escalated", res.health.escalated as f64);
        put("sweep.attempts", res.health.attempts as f64);
        put("sweep.sched_retries", res.health.sched_retries as f64);
        put("sweep.stragglers", res.health.stragglers as f64);
        tally.attempted += n_points as u64;
        tally.failed += (res.health.failed + res.health.interpolated) as u64;
        (res, cost.ms)
    };
    {
        let engine = engine_with(Some(&two_workers));
        let (res, cost) = tr.time("sweep", "sweep_2w", || engine.sweep(&sweep_plan, N_RANKS));
        drop(res.expect("two-worker sweep"));
        put("scheduler.speedup_2w", one_worker.1 / cost.ms);
        // The same points, one after the other on the calling thread.
        let loop_ms = loop_ms.unwrap_or_else(|| {
            let engine = engine_with(None);
            let points = all_points(&sweep_plan);
            tr.time("sweep", "point_loop", || {
                for p in &points {
                    std::hint::black_box(engine.solve_point(p.e, p.kz, &PointPolicy::robust()));
                }
            })
            .1
            .ms
        });
        put("sweep.overhead_ms_per_point", (one_worker.1 - loop_ms) / n_points as f64);
    }
    {
        let records: &[PointRecord] = &one_worker.0.records;
        let (buf, cost) =
            tr.time("checkpoint", "encode", || checkpoint::encode(&sweep_plan, records));
        put("checkpoint.encode_ms", cost.ms);
        put("checkpoint.bytes", buf.len() as f64);
        let (parsed, cost) =
            tr.time("checkpoint", "parse", || checkpoint::parse(&buf, &sweep_plan));
        put("checkpoint.parse_ms", cost.ms);
        tally.attempted += 1;
        tally.failed += u64::from(!parsed.is_ok_and(|p| p.len() == records.len()));
        let open = tr.begin("sweep", "record_codec");
        let rounds = 2000usize.div_ceil(records.len().max(1));
        let mut frame = Vec::with_capacity(128);
        let t0 = Instant::now();
        for _ in 0..rounds {
            for rec in records {
                frame.clear();
                rec.encode_into(&mut frame);
                std::hint::black_box(PointRecord::decode(&frame).expect("record frame"));
            }
        }
        let ns = t0.elapsed().as_secs_f64() * 1e9 / (rounds * records.len().max(1)) as f64;
        tr.end(open);
        put("sweep.record_codec_ns", ns);
    }
    {
        const TASKS: usize = 10_000;
        let (_, cost) = tr.time("scheduler", "noop_tasks", || {
            two_workers.execute(
                vec![0u8; TASKS],
                &Default::default(),
                |_, _, _| qtx::core::TaskAttempt::Done(()),
                |_, _, _, _| (),
            )
        });
        put("scheduler.task_us", cost.ms * 1e3 / TASKS as f64);
    }

    // ── point loop as the end-to-end run drives it, spans on and off ──
    {
        // About a second per side; one point of each at the least.
        let per_pass = ((0.5 / point_s) as usize).clamp(1, sample.len());
        let loop_once = |tr: &mut Tracer, lat: &mut Vec<f64>| {
            for p in &sample[..per_pass] {
                let (_, cost) = tr.time("transport", "solve_point_loop", || {
                    s.engine.solve_point(p.e, p.kz, &s.policy)
                });
                lat.push(cost.ms);
            }
        };
        let mut off = Tracer::new(false, w.name());
        let (mut traced_ms, mut plain_ms) = (Vec::new(), Vec::new());
        let passes = ((1.0 / (point_s * per_pass as f64)) as usize).clamp(1, 200);
        for _ in 0..passes {
            loop_once(tr, &mut traced_ms);
            loop_once(&mut off, &mut plain_ms);
        }
        put("trace.overhead_frac", median(&traced_ms) / median(&plain_ms) - 1.0);
        put("point.samples", plain_ms.len() as f64);
        put("point.ms_p90", p90_if_supported(&plain_ms).unwrap_or(0.0));
    }

    // ── refine ──
    if let Kind::Refined { cfg: refine_cfg, .. } = &s.kind {
        let pool = s.pool.as_ref().expect("refined sweeps run on a pool");
        let opts = || refined_options(pool);
        let (refined, cost) = tr.time("refine", "sweep_refined", || {
            s.engine.sweep_refined(&s.plan, N_RANKS, &opts(), refine_cfg)
        });
        let refined = refined.expect("refined sweep");
        // The same final grid, same options, no refinement rounds.
        let flat_cfg = RefineConfig { max_rounds: 0, ..*refine_cfg };
        let (flat, flat_cost) = tr.time("refine", "flat_final_plan", || {
            s.engine.sweep_refined(&refined.plan, N_RANKS, &opts(), &flat_cfg)
        });
        drop(flat.expect("flat sweep over the refined plan"));
        let current = current_of(&s.device, &refined.result.spectrum);
        put("refine.rounds", refined.rounds as f64);
        put("refine.points_added", refined.points_added as f64);
        put("refine.points_total", refined.result.records.len() as f64);
        put("refine.round_overhead_ms", (cost.ms - flat_cost.ms) / refined.rounds.max(1) as f64);
        put("refine.current_rel_err", ((current - r.current_ua) / r.current_ua).abs());
    }

    // ── scf / observables / poisson / landauer ──
    if let Kind::Scf { vgs, cfg: scf_cfg } = &s.kind {
        let mut dev = s.device.clone();
        let mut iterations = 0usize;
        let mut spectrum = Vec::new();
        let (_, cost) = tr.time("scf", "id_vgs", || {
            for &vg in vgs {
                let mut c = scf_cfg.clone();
                c.vg = vg;
                let out = schrodinger_poisson(&mut dev, &c).expect("Schrödinger–Poisson");
                iterations += out.iterations;
                spectrum = out.spectrum;
            }
        });
        put("scf.iterations", iterations as f64);
        put("scf.iter_ms", cost.ms / iterations.max(1) as f64);
        // One iteration's post-processing on the replayed points.
        let dk = &dks[0];
        let weights = vec![0.02; last_solved.len()];
        let (charge, cost) = tr.time("observables", "accumulate", || {
            accumulate(dk, &last_solved, &weights, cfg.mu_l, cfg.mu_l - scf_cfg.vd, cfg.temperature)
        });
        put("observables.accumulate_ms", cost.ms);
        let nb = s.device.n_slabs;
        let gate = GateSpec {
            start: (nb as f64 * scf_cfg.gate_window.0) as usize,
            end: ((nb as f64 * scf_cfg.gate_window.1) as usize).min(nb),
            vg: vgs[0],
            lambda: scf_cfg.lambda,
        };
        let rho: Vec<f64> = charge.density.iter().map(|n| -scf_cfg.charge_coupling * n).collect();
        // A nominal 0.5 nm slab; the solve's cost does not depend on it.
        let (_, cost) = tr.time("poisson", "gated_poisson_1d", || {
            gated_poisson_1d(&rho, 0.5, &gate, 0.0, scf_cfg.vd, 1e-10)
        });
        put("poisson.solve_ms", cost.ms);
        let (_, cost) = tr.time("landauer", "integrate", || {
            landauer_integrate(&spectrum, cfg.mu_l, cfg.mu_l - scf_cfg.vd, cfg.temperature)
        });
        put("landauer.integrate_ms", cost.ms);
    }

    Traced { metrics, tally }
}
