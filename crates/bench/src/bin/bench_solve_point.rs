//! Per-energy-point solve timing + workspace-reuse accounting.
//!
//! Measures the Eq. 5 solver stack the way a sweep drives it — many energy
//! points against one shared [`qtx_solver::Workspace`] — and reports the
//! cold-vs-warm pool effect: wall time per point and fresh buffer
//! allocations per point (which collapse to ~0 once the pool is warm).

use qtx_bench::{print_table, Row};
use qtx_linalg::{c64, ZMat};
use qtx_solver::{btd_lu_solve_ws, ObcSystem, SplitSolve, Workspace};
use qtx_sparse::Btd;
use std::time::Instant;

fn random_system(nb: usize, s: usize, m: usize, seed: u64) -> ObcSystem {
    let mut a = Btd::zeros(nb, s);
    for i in 0..nb {
        a.diag[i] = ZMat::random(s, s, seed + i as u64);
        for d in 0..s {
            a.diag[i][(d, d)] += c64(4.0 + s as f64, 1.0);
        }
    }
    for i in 0..nb - 1 {
        a.upper[i] = ZMat::random(s, s, seed + 100 + i as u64).scaled(c64(0.4, 0.0));
        a.lower[i] = ZMat::random(s, s, seed + 200 + i as u64).scaled(c64(0.4, 0.0));
    }
    ObcSystem {
        a,
        sigma_l: ZMat::random(s, s, seed + 300).scaled(c64(0.3, 0.1)),
        sigma_r: ZMat::random(s, s, seed + 301).scaled(c64(0.3, -0.1)),
        rhs_top: ZMat::random(s, m, seed + 400),
        rhs_bottom: ZMat::random(s, m, seed + 401),
    }
}

fn main() {
    let points = 32usize;
    let mut rows = Vec::new();
    for &(nb, s) in &[(32usize, 16usize), (16, 32), (8, 64)] {
        let systems: Vec<ObcSystem> =
            (0..points).map(|p| random_system(nb, s, s / 2, 7 + p as u64)).collect();
        let solver = SplitSolve::new(2);

        // Cold: a fresh private pool every point (the pre-workspace shape).
        let t0 = Instant::now();
        let mut cold_allocs = 0;
        for sys in &systems {
            let ws = Workspace::new();
            let _ = solver.solve_ws(sys, None, &ws).unwrap();
            cold_allocs += ws.fresh_allocations();
        }
        let cold = t0.elapsed().as_secs_f64() / points as f64;

        // Warm: one shared pool across the sweep.
        let ws = Workspace::new();
        let t0 = Instant::now();
        for sys in &systems {
            let _ = solver.solve_ws(sys, None, &ws).unwrap();
        }
        let warm = t0.elapsed().as_secs_f64() / points as f64;
        let warm_allocs = ws.fresh_allocations();

        rows.push(Row::new(
            format!("splitsolve nb={nb} s={s}"),
            vec![
                cold * 1e3,
                warm * 1e3,
                (1.0 - warm / cold) * 100.0,
                cold_allocs as f64 / points as f64,
                warm_allocs as f64 / points as f64,
            ],
        ));

        // Same comparison for the block-Thomas baseline.
        let t0 = Instant::now();
        for sys in &systems {
            let _ = btd_lu_solve_ws(sys, &Workspace::new()).unwrap();
        }
        let cold_lu = t0.elapsed().as_secs_f64() / points as f64;
        let ws = Workspace::new();
        let t0 = Instant::now();
        for sys in &systems {
            let _ = btd_lu_solve_ws(sys, &ws).unwrap();
        }
        let warm_lu = t0.elapsed().as_secs_f64() / points as f64;
        rows.push(Row::new(
            format!("btd_lu     nb={nb} s={s}"),
            vec![
                cold_lu * 1e3,
                warm_lu * 1e3,
                (1.0 - warm_lu / cold_lu) * 100.0,
                f64::NAN,
                f64::NAN,
            ],
        ));
    }
    print_table(
        "per-energy-point solve: cold pool vs shared warm pool",
        &["config", "cold ms/pt", "warm ms/pt", "saved %", "allocs/pt cold", "allocs/pt warm"],
        &rows,
    );
}
