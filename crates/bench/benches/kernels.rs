//! Node-level kernel benchmarks: the `zgemm`/`zgesv` workloads of §3.C.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qtx_linalg::{lu_factor, matmul, qr_factor, ZMat};
use std::hint::black_box;

fn hermitian_pd(n: usize, seed: u64) -> ZMat {
    let g = ZMat::random(n, n, seed);
    let mut a = &g * &g.adjoint();
    for i in 0..n {
        a[(i, i)] += qtx_linalg::c64(n as f64, 0.0);
    }
    a.hermitianize();
    a
}

fn bench_gemm(c: &mut Criterion) {
    let mut g = c.benchmark_group("zgemm");
    g.sample_size(10);
    for n in [32usize, 64, 128, 256, 384] {
        let a = ZMat::random(n, n, 1);
        let b = ZMat::random(n, n, 2);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| black_box(matmul(&a, &b)));
        });
    }
    // Transform paths: packing folds the transpose/adjoint in, so these
    // should track the Op::None numbers closely.
    let n = 256;
    let a = ZMat::random(n, n, 3);
    let b = ZMat::random(n, n, 4);
    for (label, op_a, op_b) in [
        ("NT", qtx_linalg::Op::None, qtx_linalg::Op::Transpose),
        ("HN", qtx_linalg::Op::Adjoint, qtx_linalg::Op::None),
    ] {
        g.bench_with_input(BenchmarkId::new(label, n), &n, |bench, _| {
            let mut c_out = ZMat::zeros(n, n);
            bench.iter(|| {
                qtx_linalg::gemm(
                    qtx_linalg::Complex64::ONE,
                    &a,
                    op_a,
                    &b,
                    op_b,
                    qtx_linalg::Complex64::ZERO,
                    &mut c_out,
                );
                black_box(&c_out);
            });
        });
    }
    g.finish();
}

fn bench_factorizations(c: &mut Criterion) {
    let mut g = c.benchmark_group("factorization");
    g.sample_size(20);
    for n in [48usize, 96, 192] {
        let a = hermitian_pd(n, 3);
        g.bench_with_input(BenchmarkId::new("zgesv (pivoted LU)", n), &n, |bench, _| {
            bench.iter(|| black_box(lu_factor(&a).unwrap()));
        });
        g.bench_with_input(BenchmarkId::new("zgetrf unblocked baseline", n), &n, |bench, _| {
            bench.iter(|| black_box(qtx_linalg::lu_factor_unblocked(&a).unwrap()));
        });
    }
    // The blocked solve path: trsm-powered multi-RHS back-substitution.
    let n = 192;
    let a = hermitian_pd(n, 7);
    let b = ZMat::random(n, 64, 8);
    let f = lu_factor(&a).unwrap();
    let ws = qtx_linalg::Workspace::new();
    g.bench_function("zgetrs 192x64 solve_into (pooled)", |bench| {
        bench.iter(|| {
            let mut x = ws.take_scratch(n, 64);
            f.solve_into(b.view(), &mut x);
            black_box(&x);
            ws.recycle(x);
        });
    });
    g.finish();
}

fn bench_qr_eig(c: &mut Criterion) {
    let mut g = c.benchmark_group("qr_eig");
    g.sample_size(10);
    let a = ZMat::random(64, 32, 5);
    g.bench_function("qr_64x32", |bench| bench.iter(|| black_box(qr_factor(&a))));
    // Blocked compact-WY path (n above the crossover) vs the scalar
    // baseline on the same input.
    let big = ZMat::random(256, 256, 7);
    g.bench_function("qr_256 blocked", |bench| bench.iter(|| black_box(qr_factor(&big))));
    g.bench_function("qr_256 unblocked", |bench| {
        bench.iter(|| black_box(qtx_linalg::qr_factor_unblocked(&big)))
    });
    g.bench_function("hessenberg_192 blocked", |bench| {
        let h = ZMat::random(192, 192, 8);
        bench.iter(|| black_box(qtx_linalg::hessenberg(&h)))
    });
    let m = ZMat::random(32, 32, 6);
    g.bench_function("eig_32", |bench| bench.iter(|| black_box(qtx_linalg::eig(&m).unwrap())));
    g.finish();
}

criterion_group!(benches, bench_gemm, bench_factorizations, bench_qr_eig);
criterion_main!(benches);
