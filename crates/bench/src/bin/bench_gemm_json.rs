//! Emits `BENCH_gemm.json`: tiled zero-copy zgemm vs the seed kernel,
//! plus a per-variant sweep of the register-tile microkernels.
//!
//! The seed implementation (cloned operands + column-panel triple loop) is
//! reproduced here verbatim as the baseline; the measured speedups and the
//! machine fingerprint land in a JSON report so `CHANGES.md` numbers stay
//! reproducible. The `kind: "ukr"` entries run each kernel variant the
//! host has on the same inputs, through `gemm_with` (the library's packed
//! path with the kernel passed down), and gate the within-binary
//! `kernel_speedup` (variant vs scalar) through `check_bench` — the row
//! that keeps the explicit AVX-512 tile; the absolute GF/s are not gated.
//! The `kind: "small"` entries are a ledger, not a gate: the shapes the
//! interior solvers' small products have, dense and 10 %-filled, through
//! the direct loop and through the packed path (`gemm_on_path`) — what
//! `docs/linalg.md` cites for leaving `SMALL_MNK` where it is.
//! The `kind: "herk"` entries time `zherk` against the full gemm it
//! replaces (`AᴴA`, `A` m × n) at the Gram shapes FEAST and Beyn pass:
//! `herk_speedup` is that within-binary ratio, the row `docs/linalg.md`
//! keeps `zherk` on. The paths of every ratio are timed in interleaved
//! rounds (`medians_interleaved`), so a slow phase of a shared host lands
//! on both sides of it. Run with `cargo run --release -p qtx-bench --bin
//! bench_gemm_json [output-path] [--quick]`.

use qtx_bench::{medians_interleaved, print_table, Row};
use qtx_linalg::gemm::{gemm_on_path, gemm_with};
use qtx_linalg::kernel::kernel_of;
use qtx_linalg::{available_variants, gemm, zherk, Complex64, KernelVariant, Op, ZMat};
use std::fmt::Write as _;

/// The seed's gemm: materialize both operands, then a column-panel loop.
fn seed_gemm(a: &ZMat, op_a: Op, b: &ZMat, op_b: Op, c: &mut ZMat) {
    let a_eff = match op_a {
        Op::None => a.clone(),
        Op::Transpose => a.transpose(),
        Op::Adjoint => a.adjoint(),
    };
    let b_eff = match op_b {
        Op::None => b.clone(),
        Op::Transpose => b.transpose(),
        Op::Adjoint => b.adjoint(),
    };
    let m = a_eff.rows();
    let k = a_eff.cols();
    let a_data = a_eff.as_slice();
    for j in 0..b_eff.cols() {
        let c_col = c.col_mut(j);
        c_col.fill(Complex64::ZERO);
        for (l, &blj) in b_eff.col(j).iter().enumerate().take(k) {
            let a_col = &a_data[l * m..(l + 1) * m];
            for (ci, &ail) in c_col.iter_mut().zip(a_col) {
                *ci = ci.mul_add(ail, blj);
            }
        }
    }
}

fn main() {
    let mut out_path = "BENCH_gemm.json".to_string();
    let mut quick = false;
    for arg in std::env::args().skip(1) {
        if arg == "--quick" {
            quick = true;
        } else {
            out_path = arg;
        }
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let sizes: &[usize] = if quick { &[64, 128, 256] } else { &[64, 128, 256, 384, 512] };
    let mut entries = String::new();
    let mut rows = Vec::new();
    for &n in sizes {
        let a = ZMat::random(n, n, 1);
        let b = ZMat::random(n, n, 2);
        let mut c_new = ZMat::zeros(n, n);
        let mut c_old = ZMat::zeros(n, n);
        let reps = (256 / (n / 32)).clamp(3, 31);
        for (op_a, op_b, tag) in [
            (Op::None, Op::None, "NN"),
            (Op::Adjoint, Op::None, "HN"),
            (Op::None, Op::Transpose, "NT"),
        ] {
            let [t_new, t_old] = medians_interleaved(
                [
                    &mut || gemm(Complex64::ONE, &a, op_a, &b, op_b, Complex64::ZERO, &mut c_new),
                    &mut || seed_gemm(&a, op_a, &b, op_b, &mut c_old),
                ],
                reps,
            );
            assert!(
                c_new.max_diff(&c_old) < 1e-9 * n as f64,
                "kernel mismatch at n = {n} ops {tag}"
            );
            let gflops = 8.0 * (n as f64).powi(3) / t_new / 1e9;
            let _ = writeln!(
                entries,
                "    {{\"n\": {n}, \"ops\": \"{tag}\", \"tiled_ms\": {:.4}, \"seed_ms\": {:.4}, \"speedup\": {:.3}, \"tiled_gflops\": {:.2}}},",
                t_new * 1e3,
                t_old * 1e3,
                t_old / t_new,
                gflops
            );
            if tag == "NN" {
                rows.push(Row::new(
                    format!("zgemm {n}x{n}"),
                    vec![t_new * 1e3, t_old * 1e3, t_old / t_new, gflops],
                ));
            }
        }
    }
    // Per-variant microkernel sweep: each available variant on the same
    // NN product, timed in rounds interleaved with the scalar tile, the
    // in-binary baseline. kernel_speedup is dimensionless → gated by
    // check_bench.
    for &n in sizes {
        if n < 128 {
            continue; // below the packed-path thresholds the ukr barely runs
        }
        let a = ZMat::random(n, n, 5);
        let b = ZMat::random(n, n, 6);
        let (mut c_scalar, mut c) = (ZMat::zeros(n, n), ZMat::zeros(n, n));
        let reps = (256 / (n / 32)).clamp(3, 31);
        let product = |v: KernelVariant, c: &mut ZMat| {
            let kernel = kernel_of(v).expect("listed as available");
            let (one, zero) = (Complex64::ONE, Complex64::ZERO);
            gemm_with(kernel, one, a.view(), Op::None, b.view(), Op::None, zero, c.view_mut())
        };
        for v in available_variants() {
            let [t_scalar, t] = medians_interleaved(
                [&mut || product(KernelVariant::Scalar, &mut c_scalar), &mut || product(v, &mut c)],
                reps,
            );
            let gflops = 8.0 * (n as f64).powi(3) / t / 1e9;
            let _ = writeln!(
                entries,
                "    {{\"kind\": \"ukr\", \"name\": \"{}\", \"n\": {n}, \"optional\": true, \"ms\": {:.4}, \"gflops\": {:.2}, \"kernel_speedup\": {:.3}}},",
                v.name(),
                t * 1e3,
                gflops,
                t_scalar / t
            );
            rows.push(Row::new(
                format!("ukr {} {n}x{n}", v.name()),
                vec![t * 1e3, t_scalar * 1e3, t_scalar / t, gflops],
            ));
        }
    }
    // Small products as the interior solvers issue them (m × n × k): the
    // direct loop against the packed path, on dense operands and on ones
    // with one entry in ten kept — the direct loop skips exact zeros of B.
    for (m, n, k) in
        [(16, 16, 16), (20, 20, 20), (24, 30, 18), (58, 58, 32), (90, 27, 90), (252, 16, 252)]
    {
        for (fill, tag) in [(1.0, "dense"), (0.1, "fill10")] {
            let thin = |rows: usize, cols: usize, seed: u64| {
                let (dense, keep) =
                    (ZMat::random(rows, cols, seed), ZMat::random(rows, cols, seed + 50));
                // `random` draws from [−1, 1): keep an entry with probability `fill`.
                ZMat::from_fn(rows, cols, |r, c| {
                    if (keep[(r, c)].re + 1.0) / 2.0 < fill {
                        dense[(r, c)]
                    } else {
                        Complex64::ZERO
                    }
                })
            };
            let (a, b) = (thin(m, k, 11), thin(k, n, 12));
            let (mut c_direct, mut c_packed) = (ZMat::zeros(m, n), ZMat::zeros(m, n));
            // Enough repetitions of a µs-scale product for the clock.
            let inner = (4_000_000 / (m * n * k)).max(1);
            let products = |packed: bool, c: &mut ZMat| {
                let (one, zero) = (Complex64::ONE, Complex64::ZERO);
                for _ in 0..inner {
                    gemm_on_path(
                        packed,
                        one,
                        a.view(),
                        Op::None,
                        b.view(),
                        Op::None,
                        zero,
                        c.view_mut(),
                    );
                }
            };
            let [t_direct, t_packed] = medians_interleaved(
                [&mut || products(false, &mut c_direct), &mut || products(true, &mut c_packed)],
                15,
            )
            .map(|t| t / inner as f64);
            let gflops = |t: f64| 8.0 * (m * n * k) as f64 / t / 1e9;
            let _ = writeln!(
                entries,
                "    {{\"kind\": \"small\", \"name\": \"{m}x{n}x{k}-{tag}\", \"optional\": true, \"direct_us\": {:.3}, \"packed_us\": {:.3}, \"direct_gflops\": {:.2}, \"packed_gflops\": {:.2}, \"direct_over_packed\": {:.3}}},",
                t_direct * 1e6,
                t_packed * 1e6,
                gflops(t_direct),
                gflops(t_packed),
                t_direct / t_packed
            );
            rows.push(Row::new(
                format!("small {m}x{n}x{k} {tag}"),
                vec![t_packed * 1e3, t_direct * 1e3, t_direct / t_packed, gflops(t_packed)],
            ));
        }
    }
    // Gram matrices AᴴA (A m × n): FEAST's projector block P (2·nf × the
    // 8–32-column subspace) and Beyn's moment A₀ (2·nf × nf + 8), at the
    // UTB film (nf = 20), the 1.5 nm wire (90) and the DFT wire (252).
    for (m, n) in [(40, 8), (40, 28), (180, 32), (180, 98), (504, 32), (504, 260)] {
        let a = ZMat::random(m, n, 13);
        let (mut c, mut c_gemm) = (ZMat::zeros(n, n), ZMat::zeros(n, n));
        let inner = (8_000_000 / (m * n * n)).max(1);
        let (one, zero) = (Complex64::ONE, Complex64::ZERO);
        let [t_herk, t_gemm] = medians_interleaved(
            [
                &mut || (0..inner).for_each(|_| zherk(1.0, a.view(), Op::Adjoint, 0.0, &mut c)),
                &mut || {
                    (0..inner)
                        .for_each(|_| gemm(one, &a, Op::Adjoint, &a, Op::None, zero, &mut c_gemm))
                },
            ],
            15,
        )
        .map(|t| t / inner as f64);
        assert!(c.max_diff(&c_gemm) < 1e-10 * m as f64, "zherk drift at {m}x{n}");
        let gflops = 4.0 * (n * n * m) as f64 / t_herk / 1e9;
        let _ = writeln!(
            entries,
            "    {{\"kind\": \"herk\", \"m\": {m}, \"n\": {n}, \"herk_us\": {:.3}, \"gemm_us\": {:.3}, \"herk_speedup\": {:.3}, \"herk_gflops\": {:.2}}},",
            t_herk * 1e6,
            t_gemm * 1e6,
            t_gemm / t_herk,
            gflops
        );
        rows.push(Row::new(
            format!("zherk {m}x{n}"),
            vec![t_herk * 1e3, t_gemm * 1e3, t_gemm / t_herk, gflops],
        ));
    }
    let entries = entries.trim_end().trim_end_matches(',').to_string();
    let json = format!(
        "{{\n  \"bench\": \"zgemm tiled vs seed\",\n  \"cores\": {cores},\n  \"target_cpu\": \"native\",\n  \"flags_note\": \"speedup = seed_ms / tiled_ms, medians of interleaved rounds on this machine\",\n  \"results\": [\n{entries}\n  ]\n}}\n"
    );
    std::fs::write(&out_path, &json).expect("write BENCH_gemm.json");
    print_table(
        "zgemm: tiled (new) vs seed panel loop",
        &["size", "tiled ms", "seed ms", "speedup", "GF/s"],
        &rows,
    );
    println!("\nwrote {out_path}");
}
