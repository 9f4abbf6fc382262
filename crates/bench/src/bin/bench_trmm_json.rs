//! Emits `BENCH_trmm.json`: the in-place triangular multiply (`ztrmm`)
//! vs the full-gemm emulation it replaced, the RHS-blocked ≤64
//! triangular substitution sweep vs the seed's scalar column-at-a-time
//! substitution, and the SplitSolve nb=8/s=64 ms-per-point figure that
//! sweep dominates (PR 1 recorded 17.2, PR 2 15.2).
//!
//! All gated ratios are within-binary A/Bs on identical inputs, so they
//! are hardware-independent properties of the code: `ztrmm` against a
//! dense gemm of the same (zero-padded) triangle, and the blocked `zgetrs` solve against a verbatim
//! reproduction of the seed's scalar substitution. Run with `cargo run
//! --release -p qtx-bench --bin bench_trmm_json [output-path] [--quick]`;
//! `--quick` shrinks sizes and repetitions for the CI smoke/regression
//! profile.

use qtx_bench::{print_table, Row};
use qtx_linalg::{c64, gemm, lu_factor, ztrmm, Complex64, Diag, LuFactors, Op, Side, UpLo, ZMat};
use qtx_solver::{ObcSystem, SplitSolve, Workspace};
use qtx_sparse::Btd;
use std::fmt::Write as _;
use std::time::Instant;

/// Reference ms/pt recorded by earlier PRs on this container (nb=8, s=64).
const PR1_SPLITSOLVE_MS_PER_PT: f64 = 17.2;
const PR2_SPLITSOLVE_MS_PER_PT: f64 = 15.2;

fn median_secs(mut f: impl FnMut(), reps: usize) -> f64 {
    let mut samples: Vec<f64> = (0..reps.max(3))
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|x, y| x.partial_cmp(y).unwrap());
    samples[samples.len() / 2]
}

/// Well-conditioned triangle: random strict part, heavy diagonal.
fn triangle(n: usize, uplo: UpLo, seed: u64) -> ZMat {
    let r = ZMat::random(n, n, seed);
    let mut t = ZMat::zeros(n, n);
    for j in 0..n {
        for i in 0..n {
            let keep = match uplo {
                UpLo::Lower => i > j,
                UpLo::Upper => i < j,
            };
            if keep {
                t[(i, j)] = r[(i, j)].scale(0.5);
            }
        }
        t[(j, j)] = r[(j, j)] + c64(2.0 + n as f64 * 0.05, 0.3);
    }
    t
}

/// The pre-PR emulation of a triangular multiply: one dense gemm of the
/// (zero-padded) triangle into a second staging buffer plus the copy
/// back — exactly what the compact-WY `T` transforms used to do.
fn gemm_emulated_trmm(t: &ZMat, b: &mut ZMat, scratch: &mut ZMat) {
    gemm(Complex64::ONE, t, Op::None, b, Op::None, Complex64::ZERO, scratch);
    b.as_mut_slice().copy_from_slice(scratch.as_slice());
}

/// The seed's scalar forward/backward substitution (`zgetrs` baseline),
/// verbatim column-at-a-time — the pre-RHS-blocking small-solve path.
fn seed_getrs(f: &LuFactors, b: &ZMat) -> ZMat {
    let n = f.lu.rows();
    let mut x = b.clone();
    for (k, &p) in f.ipiv.iter().enumerate() {
        x.swap_rows(k, p);
    }
    for j in 0..x.cols() {
        for k in 0..n {
            let xkj = x[(k, j)];
            if xkj == Complex64::ZERO {
                continue;
            }
            for i in k + 1..n {
                let lik = f.lu[(i, k)];
                x[(i, j)] -= lik * xkj;
            }
        }
        for k in (0..n).rev() {
            let ukk_inv = f.lu[(k, k)].inv();
            let xkj = x[(k, j)] * ukk_inv;
            x[(k, j)] = xkj;
            for i in 0..k {
                let uik = f.lu[(i, k)];
                x[(i, j)] -= uik * xkj;
            }
        }
    }
    x
}

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
        sigma_l: ZMat::random(s, s, seed + 300).scaled(c64(0.3, 0.1)).into(),
        sigma_r: ZMat::random(s, s, seed + 301).scaled(c64(0.3, -0.1)).into(),
        rhs_top: ZMat::random(s, m, seed + 400),
        rhs_bottom: ZMat::random(s, m, seed + 401),
    }
}

fn main() {
    let mut out_path = "BENCH_trmm.json".to_string();
    let mut quick = false;
    for arg in std::env::args().skip(1) {
        if arg == "--quick" {
            quick = true;
        } else {
            out_path = arg;
        }
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut entries = String::new();
    let mut rows = Vec::new();

    // ── ztrmm vs the dense-gemm emulation (the compact-WY `T` shapes:
    // a kb-sized upper triangle against a wide panel, plus square-ish) ──
    let trmm_shapes: &[(usize, usize)] = if quick {
        &[(48, 256), (128, 128)]
    } else {
        &[(48, 256), (48, 512), (128, 128), (256, 64)]
    };
    for &(n, m) in trmm_shapes {
        let t = triangle(n, UpLo::Upper, 1);
        let b0 = ZMat::random(n, m, 2);
        let mut scratch = ZMat::zeros(n, m);
        let reps = (1 << 20) / (n * m).max(1);
        let reps = reps.clamp(5, 201);
        let t_trmm = median_secs(
            || {
                let mut b = b0.clone();
                ztrmm(
                    Side::Left,
                    UpLo::Upper,
                    Op::None,
                    Diag::NonUnit,
                    Complex64::ONE,
                    t.view(),
                    b.view_mut(),
                );
            },
            reps,
        );
        let t_gemm = median_secs(
            || {
                let mut b = b0.clone();
                gemm_emulated_trmm(&t, &mut b, &mut scratch);
            },
            reps,
        );
        // Correctness cross-check on the measured inputs.
        let mut b1 = b0.clone();
        ztrmm(
            Side::Left,
            UpLo::Upper,
            Op::None,
            Diag::NonUnit,
            Complex64::ONE,
            t.view(),
            b1.view_mut(),
        );
        let mut b2 = b0.clone();
        gemm_emulated_trmm(&t, &mut b2, &mut scratch);
        assert!(b1.max_diff(&b2) < 1e-9 * n as f64, "ztrmm drift at {n}x{m}");
        let gflops = 4.0 * (n * n * m) as f64 / t_trmm / 1e9;
        let _ = writeln!(
            entries,
            "    {{\"kind\": \"trmm\", \"n\": {n}, \"nrhs\": {m}, \
             \"ztrmm_ms\": {:.4}, \"gemm_emulation_ms\": {:.4}, \"ztrmm_speedup\": {:.3}, \
             \"ztrmm_gflops\": {:.2}}},",
            t_trmm * 1e3,
            t_gemm * 1e3,
            t_gemm / t_trmm,
            gflops,
        );
        rows.push(Row::new(
            format!("ztrmm {n}x{m}"),
            vec![t_trmm * 1e3, t_gemm * 1e3, t_gemm / t_trmm, gflops],
        ));
    }

    // ── RHS-blocked small substitution: the blocked zgetrs solve vs the
    // seed's scalar column sweep, at the SplitSolve block sizes ──
    let subst_sizes: &[usize] = if quick { &[32, 64] } else { &[32, 64, 96] };
    for &n in subst_sizes {
        let mut a = ZMat::random(n, n, 5);
        for i in 0..n {
            a[(i, i)] += c64(n as f64, n as f64 * 0.5);
        }
        let b = ZMat::random(n, n, 6);
        let f = lu_factor(&a).unwrap();
        let reps = ((1 << 22) / (n * n * n).max(1)).clamp(7, 301);
        let t_new = median_secs(|| drop(f.solve(&b)), reps);
        let t_seed = median_secs(|| drop(seed_getrs(&f, &b)), reps);
        let diff = f.solve(&b).max_diff(&seed_getrs(&f, &b));
        assert!(diff < 1e-8 * n as f64, "substitution mismatch at n = {n}");
        let _ = writeln!(
            entries,
            "    {{\"kind\": \"small_subst\", \"n\": {n}, \"nrhs\": {n}, \
             \"zgetrs_blocked_ms\": {:.4}, \"zgetrs_seed_ms\": {:.4}, \
             \"small_subst_speedup\": {:.3}}},",
            t_new * 1e3,
            t_seed * 1e3,
            t_seed / t_new,
        );
        rows.push(Row::new(
            format!("zgetrs {n}x{n}"),
            vec![t_new * 1e3, t_seed * 1e3, t_seed / t_new, f64::NAN],
        ));
    }

    // ── SplitSolve ms/pt at the PR 1/PR 2 reference configuration ──
    {
        let (nb, s) = (8, 64);
        let points = if quick { 4 } else { 16 };
        let systems: Vec<ObcSystem> =
            (0..points).map(|p| random_system(nb, s, s / 2, 7 + p as u64)).collect();
        let solver = SplitSolve::new(2);
        let ws = Workspace::new();
        let run = |sys: &ObcSystem| drop(solver.solve_ws(sys, None, &ws).unwrap());
        run(&systems[0]); // warm the pool
        let t0 = Instant::now();
        for sys in &systems {
            run(sys);
        }
        let ms = t0.elapsed().as_secs_f64() / systems.len() as f64 * 1e3;
        let _ = writeln!(
            entries,
            "    {{\"kind\": \"solver\", \"name\": \"splitsolve\", \"nb\": {nb}, \"s\": {s}, \
             \"ms_per_point\": {:.3}, \"pr1_ms_per_point\": {PR1_SPLITSOLVE_MS_PER_PT}, \
             \"pr2_ms_per_point\": {PR2_SPLITSOLVE_MS_PER_PT}}},",
            ms,
        );
        rows.push(Row::new(
            format!("splitsolve nb={nb} s={s}"),
            vec![ms, PR2_SPLITSOLVE_MS_PER_PT, PR2_SPLITSOLVE_MS_PER_PT / ms, f64::NAN],
        ));
    }

    let entries = entries.trim_end().trim_end_matches(',').to_string();
    let json = format!(
        "{{\n  \"bench\": \"ztrmm + RHS-blocked small substitution\",\n  \
         \"cores\": {cores},\n  \"target_cpu\": \"native\",\n  \"quick\": {quick},\n  \
         \"flags_note\": \"ztrmm_speedup = dense-gemm-emulation ms / ztrmm ms (within-binary, \
         identical inputs); small_subst_speedup = seed scalar column substitution / blocked RHS-panel zgetrs; solver row records warm-pool \
         ms/pt against the PR 1 (17.2) and PR 2 (15.2) figures on this container\",\n  \
         \"results\": [\n{entries}\n  ]\n}}\n"
    );
    std::fs::write(&out_path, &json).expect("write BENCH_trmm.json");
    print_table(
        "triangle kernels: new vs full-gemm baselines",
        &["case", "new ms", "baseline ms", "speedup", "GF/s"],
        &rows,
    );
    println!("\nwrote {out_path}");
}
