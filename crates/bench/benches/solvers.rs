//! Eq. 5 solver benchmark: SplitSolve (1/2/4 partitions) vs the
//! MUMPS-like BTD-LU vs block cyclic reduction — the green bars of Fig. 8
//! and the partition study of Fig. 7, at laptop scale with real kernels.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qtx_linalg::{c64, ZMat};
use qtx_solver::{bcr_solve, btd_lu_solve, ObcSystem, SplitSolve};
use qtx_sparse::Btd;
use std::hint::black_box;

fn system(nb: usize, s: usize, m: usize) -> ObcSystem {
    let mut a = Btd::zeros(nb, s);
    for i in 0..nb {
        a.diag[i] = ZMat::random(s, s, 10 + i as u64);
        for d in 0..s {
            a.diag[i][(d, d)] += c64(6.0, 1.0);
        }
    }
    for i in 0..nb - 1 {
        a.upper[i] = ZMat::random(s, s, 60 + i as u64).scaled(c64(0.35, 0.0));
        a.lower[i] = ZMat::random(s, s, 90 + i as u64).scaled(c64(0.35, 0.0));
    }
    ObcSystem {
        a,
        sigma_l: ZMat::random(s, s, 300).scaled(c64(0.25, 0.1)),
        sigma_r: ZMat::random(s, s, 301).scaled(c64(0.25, -0.1)),
        rhs_top: ZMat::random(s, m, 302),
        rhs_bottom: ZMat::random(s, m, 303),
    }
}

fn bench_solvers(c: &mut Criterion) {
    let sys = system(16, 48, 8);
    let mut g = c.benchmark_group("eq5_solvers");
    g.sample_size(10);
    for p in [1usize, 2, 4] {
        g.bench_with_input(BenchmarkId::new("splitsolve", p), &p, |b, &p| {
            let solver = SplitSolve::new(p);
            b.iter(|| black_box(solver.solve(&sys, None).unwrap()));
        });
    }
    g.bench_function("btd_lu (MUMPS-like)", |b| b.iter(|| black_box(btd_lu_solve(&sys).unwrap())));
    g.bench_function("bcr (legacy OMEN)", |b| b.iter(|| black_box(bcr_solve(&sys).unwrap())));
    g.finish();
}

fn bench_block_size_scaling(c: &mut Criterion) {
    // The Fig. 3 consequence: DFT blocks are bigger, and the s³ kernels
    // dominate — measure the block-size scaling of one SplitSolve run.
    let mut g = c.benchmark_group("splitsolve_block_scaling");
    g.sample_size(10);
    for s in [16usize, 32, 64] {
        let sys = system(8, s, 4);
        g.bench_with_input(BenchmarkId::from_parameter(s), &s, |b, _| {
            let solver = SplitSolve::new(2);
            b.iter(|| black_box(solver.solve(&sys, None).unwrap()));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_solvers, bench_block_size_scaling);
criterion_main!(benches);
