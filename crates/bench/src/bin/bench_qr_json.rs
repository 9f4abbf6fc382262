//! Emits `BENCH_qr.json`: blocked compact-WY Householder QR + blocked
//! Hessenberg reduction vs the unblocked scalar baselines, at the kernel
//! level (zgeqrf square + tall-skinny, least-squares apply, zgehrd), and
//! the Hermitian-definite eigensolver against the general one on the same
//! pencil (`kind: "eigh"`, eigenvalues only and with vectors, at the lead
//! and cell orders the set-up solves: 90, 126, 252).
//!
//! The seed's element-indexed `qr_factor` is reproduced verbatim as the
//! fixed before-this-PR baseline; the in-library `qr_factor_unblocked` is
//! the same algorithm after the column-slice rewrite (and what the
//! blocked factorization dispatches to below the crossover), so the A/B
//! runs in one process on identical inputs, the paths of one ratio timed
//! in interleaved rounds (`qtx_bench::medians_interleaved`). Run with
//! `cargo run --release -p qtx-bench --bin bench_qr_json [output-path]
//! [--quick]`; `--quick` shrinks sizes and repetitions for
//! the CI smoke/regression-gate profile.

use qtx_bench::{medians_interleaved, print_table, Row};
use qtx_linalg::{
    c64, eig_generalized, eigh_generalized, hessenberg, hessenberg_unblocked, qr_factor,
    qr_factor_unblocked, Complex64, Vectors, ZMat,
};
use std::fmt::Write as _;

/// The seed's Householder QR: element-indexed reflector generation and
/// per-column dot/axpy application, reproduced verbatim as the fixed
/// before-this-PR baseline (packed factors + τ, like LAPACK zgeqr2).
fn seed_geqrf(a: &ZMat) -> (ZMat, Vec<Complex64>) {
    let (m, n) = (a.rows(), a.cols());
    let mut p = a.clone();
    let mut tau = vec![Complex64::ZERO; n];
    for k in 0..n {
        let alpha = p[(k, k)];
        let mut xnorm_sq = 0.0;
        for i in k + 1..m {
            xnorm_sq += p[(i, k)].norm_sqr();
        }
        if xnorm_sq == 0.0 && alpha.im == 0.0 {
            tau[k] = Complex64::ZERO;
            continue;
        }
        let beta_mag = (alpha.norm_sqr() + xnorm_sq).sqrt();
        let beta = if alpha.re >= 0.0 { -beta_mag } else { beta_mag };
        let tau_k = c64((beta - alpha.re) / beta, -alpha.im / beta);
        tau[k] = tau_k;
        let scale = (alpha - c64(beta, 0.0)).inv();
        for i in k + 1..m {
            p[(i, k)] *= scale;
        }
        p[(k, k)] = c64(beta, 0.0);
        for j in k + 1..n {
            let mut w = p[(k, j)];
            for i in k + 1..m {
                w += p[(i, k)].conj() * p[(i, j)];
            }
            let f = tau_k.conj() * w;
            p[(k, j)] -= f;
            for i in k + 1..m {
                let vik = p[(i, k)];
                p[(i, j)] -= vik * f;
            }
        }
    }
    (p, tau)
}

fn main() {
    let mut out_path = "BENCH_qr.json".to_string();
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
    let tall: &[(usize, usize)] = if quick { &[(512, 128)] } else { &[(512, 128), (1024, 256)] };
    let hess_sizes: &[usize] = if quick { &[128] } else { &[128, 256, 384] };
    let eigh_sizes: &[usize] = if quick { &[90, 126] } else { &[90, 126, 252] };

    let mut entries = String::new();
    let mut rows = Vec::new();

    // ── Square zgeqrf + least-squares apply, blocked vs baselines ──
    for &n in sizes {
        let a = ZMat::random(n, n, 1);
        let b = ZMat::random(n, n.min(64), 2);
        let reps = (2048 / n).clamp(3, 31);
        let [t_blk, t_unb, t_seed] = medians_interleaved(
            [&mut || drop(qr_factor(&a)), &mut || drop(qr_factor_unblocked(&a)), &mut || {
                drop(seed_geqrf(&a))
            }],
            reps,
        );
        // Correctness cross-check: both paths reproduce A = Q·R.
        let fb = qr_factor(&a);
        let fu = qr_factor_unblocked(&a);
        let qr_diff = (&fb.q_thin() * &fb.r()).max_diff(&a);
        assert!(qr_diff < 1e-8 * n as f64, "blocked QR drift {qr_diff:.2e} at n = {n}");
        let [t_ls_blk, t_ls_unb] = medians_interleaved(
            [&mut || drop(fb.least_squares(&b)), &mut || drop(fu.least_squares(&b))],
            reps,
        );
        let x_diff = fb.least_squares(&b).max_diff(&fu.least_squares(&b));
        assert!(x_diff < 1e-6 * n as f64, "least-squares mismatch at n = {n}");
        let gflops = 8.0 * ((n * n * n) as f64 - (n * n * n) as f64 / 3.0) / t_blk / 1e9;
        let _ = writeln!(
            entries,
            "    {{\"kind\": \"kernel\", \"n\": {n}, \"nrhs\": {}, \
             \"zgeqrf_blocked_ms\": {:.4}, \"zgeqrf_seed_ms\": {:.4}, \"zgeqrf_speedup\": {:.3}, \
             \"zgeqrf_unblocked_ms\": {:.4}, \"zgeqrf_speedup_vs_tuned_unblocked\": {:.3}, \
             \"zgeqrf_blocked_gflops\": {:.2}, \
             \"least_squares_blocked_ms\": {:.4}, \"least_squares_unblocked_ms\": {:.4}, \
             \"least_squares_speedup\": {:.3}}},",
            b.cols(),
            t_blk * 1e3,
            t_seed * 1e3,
            t_seed / t_blk,
            t_unb * 1e3,
            t_unb / t_blk,
            gflops,
            t_ls_blk * 1e3,
            t_ls_unb * 1e3,
            t_ls_unb / t_ls_blk,
        );
        rows.push(Row::new(
            format!("zgeqrf {n}x{n}"),
            vec![t_blk * 1e3, t_seed * 1e3, t_seed / t_blk, gflops],
        ));
        rows.push(Row::new(
            format!("lstsq {n}x{}", b.cols()),
            vec![t_ls_blk * 1e3, t_ls_unb * 1e3, t_ls_unb / t_ls_blk, f64::NAN],
        ));
    }

    // ── Tall-skinny zgeqrf (the FEAST/Beyn mode-matrix shape) ──
    for &(m, n) in tall {
        let a = ZMat::random(m, n, 3);
        let reps = (262_144 / (m * n / 64)).clamp(3, 15);
        let [t_blk, t_seed] =
            medians_interleaved([&mut || drop(qr_factor(&a)), &mut || drop(seed_geqrf(&a))], reps);
        let flops = 8.0 * ((m * n * n) as f64 - (n * n * n) as f64 / 3.0);
        let gflops = flops / t_blk / 1e9;
        let _ = writeln!(
            entries,
            "    {{\"kind\": \"tall\", \"m\": {m}, \"n\": {n}, \
             \"zgeqrf_blocked_ms\": {:.4}, \"zgeqrf_seed_ms\": {:.4}, \"zgeqrf_speedup\": {:.3}, \
             \"zgeqrf_blocked_gflops\": {:.2}}},",
            t_blk * 1e3,
            t_seed * 1e3,
            t_seed / t_blk,
            gflops,
        );
        rows.push(Row::new(
            format!("zgeqrf {m}x{n}"),
            vec![t_blk * 1e3, t_seed * 1e3, t_seed / t_blk, gflops],
        ));
    }

    // ── Hessenberg reduction (eig's front half), blocked vs scalar ──
    for &n in hess_sizes {
        let a = ZMat::random(n, n, 4);
        let reps = (384 / n * 4).clamp(3, 11);
        let [t_blk, t_unb] = medians_interleaved(
            [&mut || drop(hessenberg(&a)), &mut || drop(hessenberg_unblocked(&a))],
            reps,
        );
        let (hb, _) = hessenberg(&a);
        let (hu, _) = hessenberg_unblocked(&a);
        assert!(
            hb.max_diff(&hu) < 1e-8 * a.norm_max().max(1.0) * n as f64,
            "blocked Hessenberg drift at n = {n}"
        );
        let gflops = 80.0 / 3.0 * (n as f64).powi(3) / t_blk / 1e9;
        let _ = writeln!(
            entries,
            "    {{\"kind\": \"hessenberg\", \"n\": {n}, \
             \"zgehrd_blocked_ms\": {:.4}, \"zgehrd_unblocked_ms\": {:.4}, \
             \"zgehrd_speedup\": {:.3}, \"zgehrd_blocked_gflops\": {:.2}}},",
            t_blk * 1e3,
            t_unb * 1e3,
            t_unb / t_blk,
            gflops,
        );
        rows.push(Row::new(
            format!("zgehrd {n}x{n}"),
            vec![t_blk * 1e3, t_unb * 1e3, t_unb / t_blk, gflops],
        ));
    }

    // ── Hermitian-definite pencils: eigh against the general solver ──
    for &n in eigh_sizes {
        let mut h = ZMat::random(n, n, 5);
        h.hermitianize();
        let b = ZMat::random(n, n, 6);
        let mut s = (&b * &b.adjoint()).scaled(c64(0.25 / n as f64, 0.0));
        for i in 0..n {
            s[(i, i)] += c64(1.0, 0.0);
        }
        s.hermitianize();
        let reps = (4096 / n).clamp(15, 45);
        let [t_gen, t_values, t_vectors] = medians_interleaved(
            [
                &mut || drop(eig_generalized(&h, &s).unwrap()),
                &mut || drop(eigh_generalized(&h, &s, Vectors::Skip).unwrap()),
                &mut || drop(eigh_generalized(&h, &s, Vectors::Compute).unwrap()),
            ],
            reps,
        );
        let mut want: Vec<f64> =
            eig_generalized(&h, &s).unwrap().values.iter().map(|z| z.re).collect();
        want.sort_by(f64::total_cmp);
        for (name, vectors, t) in
            [("values", Vectors::Skip, t_values), ("vectors", Vectors::Compute, t_vectors)]
        {
            let got = eigh_generalized(&h, &s, vectors).unwrap().values;
            let drift = got.iter().zip(&want).map(|(g, w)| (g - w).abs()).fold(0.0, f64::max);
            assert!(drift < 1e-10 * n as f64, "eigh drift {drift:.2e} at n = {n}");
            let _ = writeln!(
                entries,
                "    {{\"kind\": \"eigh\", \"name\": \"{name}\", \"n\": {n}, \
                 \"eigh_ms\": {:.4}, \"eig_generalized_ms\": {:.4}, \"eigh_speedup\": {:.3}}},",
                t * 1e3,
                t_gen * 1e3,
                t_gen / t,
            );
            rows.push(Row::new(
                format!("eigh {name} {n}"),
                vec![t * 1e3, t_gen * 1e3, t_gen / t, f64::NAN],
            ));
        }
    }

    let entries = entries.trim_end().trim_end_matches(',').to_string();
    let json = format!(
        "{{\n  \"bench\": \"blocked compact-WY QR + Hessenberg vs unblocked baseline\",\n  \
         \"cores\": {cores},\n  \"target_cpu\": \"native\",\n  \"quick\": {quick},\n  \
         \"flags_note\": \"speedup = seed_ms / blocked_ms (seed = verbatim pre-PR scalar QR); \
         speedup_vs_tuned_unblocked compares against the slice-rewritten unblocked path the \
         blocked factorization dispatches to below the measured n=192 crossover; \
         eigh_speedup = eig_generalized_ms / eigh_ms on one Hermitian-definite pencil\",\n  \
         \"results\": [\n{entries}\n  ]\n}}\n"
    );
    std::fs::write(&out_path, &json).expect("write BENCH_qr.json");
    print_table(
        "QR/Hessenberg: blocked (new) vs unblocked baseline",
        &["case", "new ms", "baseline ms", "speedup", "GF/s"],
        &rows,
    );
    println!("\nwrote {out_path}");
}
