//! Emits `BENCH_sparse.json`: matrix-byte footprint and ms per energy
//! point of the three transmission routes — dense staging (`t_dense` +
//! `zgesv`, the pre-sparsity layout), BTD-native full RGF, and the
//! two-front Caroli kernel the transmission-only path runs ("boundary")
//! — at two device lengths; plus the `interior` row: the wave-function
//! solve (SplitSolve) at the long-wire shape, its operation count against
//! what materializing `Q` cost and its time against block-Thomas LU; and
//! the `tonly` row: the Caroli kernel at the same shape with each Σ built
//! from three lead modes, its operation count on the mode-thin broadening
//! factor against the row-support one; and the `pencil_bytes` rows: the
//! bytes of `S` and `H` a wave-function point reads from the dense blocks
//! and from the compact store of their non-zeros, at the long wire's and
//! the DFT wire's shapes.
//!
//! The gated ratios are the footprint speedups (dense peak bytes over
//! BTD / boundary peak bytes) and the interior and tonly flop ratios, which
//! are allocation and operation counts and therefore deterministic; the
//! wall-clock rows are emitted `"optional": true` so a narrow CI runner
//! gates them when present without owing the kind coverage, and the paths
//! of each are timed in interleaved rounds (`medians_interleaved`). All three
//! routes compute the same Caroli trace on the same systems and are
//! cross-checked in-process before anything is written.
//! Run with `cargo run --release -p qtx-bench --bin bench_sparse_json
//! [output-path] [--quick]`; `--quick` keeps the short device only.

use qtx_atomistic::{BasisKind, DeviceBuilder};
use qtx_bench::{medians_interleaved, print_table, Row};
use qtx_core::Device;
use qtx_linalg::flops::counts;
use qtx_linalg::{c64, gemm, qr_least_squares, zgesv, Complex64, FlopScope, Op, ZMat};
use qtx_solver::{
    btd_lu_solve_ws, caroli_sweep, caroli_sweep_contacts, rgf_diagonal_and_corner_ws,
    CaroliContact, ObcSystem, SplitSolve, Workspace,
};
use qtx_sparse::{
    broadening_factor_ws, btd_stats, dense_matrix_bytes, peak_matrix_bytes,
    reset_peak_matrix_bytes, BlockChain, Btd, CouplingSupport, EsMinusH,
};
use std::fmt::Write as _;

/// Diagonally dominant random BTD system with dense boundary Σ — the
/// same shape the LU bench times, so the ms/pt rows are comparable.
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

/// The `nw_long_interior` shape: `s` = 90, each coupling on a 24 × 18
/// support (the last 24 orbitals of a slab reach the first 18 of the
/// next), each Σ and its three injection columns on the rows its lead's
/// coupling touches.
fn long_wire_system(nb: usize) -> ObcSystem {
    let s = 90;
    let mut sys = random_system(nb, s, 3, 7);
    let keep = |m: &ZMat, rows: std::ops::Range<usize>, cols: std::ops::Range<usize>| {
        ZMat::from_fn(s, m.cols(), |r, c| {
            if rows.contains(&r) && cols.contains(&c) {
                m[(r, c)]
            } else {
                Complex64::ZERO
            }
        })
    };
    for i in 0..nb - 1 {
        sys.a.upper[i] = keep(&sys.a.upper[i], s - 24..s, 0..18);
        sys.a.lower[i] = keep(&sys.a.lower[i], 0..18, s - 24..s);
    }
    sys.sigma_l = keep(&sys.sigma_l, 0..18, 0..s);
    sys.sigma_r = keep(&sys.sigma_r, s - 24..s, 0..s);
    sys.rhs_top = keep(&sys.rhs_top, 0..18, 0..s);
    sys.rhs_bottom = keep(&sys.rhs_bottom, s - 24..s, 0..s);
    sys
}

/// The `interior` rows: SplitSolve with `Q` kept as elimination factors on
/// the coupling supports, against the operation count of the dense-`Q`
/// algorithm it replaced (deterministic, gated) and against block-Thomas
/// LU on the clock (optional).
fn interior_rows(reps: usize, entries: &mut String, rows: &mut Vec<Row>) {
    let (nb, s) = (32, 90);
    let sys = long_wire_system(nb);
    let (ws, solver) = (Workspace::new(), SplitSolve::new(2));
    let (x, report) = solver.solve_ws(&sys, None, &ws).expect("splitsolve");
    let reference = btd_lu_solve_ws(&sys, &ws).expect("btd_lu");
    assert!(x.max_diff(&reference) < 1e-10, "SplitSolve vs BTD-LU: {:.2e}", x.max_diff(&reference));
    let dense_q = counts::splitsolve_dense_q(nb, s, sys.num_rhs(), 1);
    let flop_speedup = dense_q as f64 / report.flops as f64;
    let _ = writeln!(
        entries,
        "    {{\"kind\": \"interior\", \"nb\": {nb}, \"s\": {s}, \"support_rows\": 24, \
         \"support_cols\": 18, \"dense_q_flops\": {dense_q}, \"support_flops\": {}, \
         \"flop_speedup_support_vs_dense_q\": {flop_speedup:.3}}},",
        report.flops,
    );
    let [split_ms, btd_ms] = medians_interleaved(
        [&mut || drop(solver.solve_ws(&sys, None, &ws)), &mut || drop(btd_lu_solve_ws(&sys, &ws))],
        reps,
    )
    .map(|t| t * 1e3);
    let _ = writeln!(
        entries,
        "    {{\"kind\": \"interior_latency\", \"nb\": {nb}, \"s\": {s}, \"optional\": true, \
         \"splitsolve_ms_per_point\": {split_ms:.4}, \"btd_lu_ms_per_point\": {btd_ms:.4}, \
         \"time_speedup_splitsolve_vs_btd_lu\": {:.3}}},",
        btd_ms / split_ms,
    );
    let mflop = report.flops as f64 * 1e-6;
    rows.push(Row::new(format!("splitsolve nb={nb} s={s}"), vec![mflop, split_ms, flop_speedup]));
    rows.push(Row::new(format!("btd-lu nb={nb} s={s}"), vec![f64::NAN, btd_ms, f64::NAN]));
}

/// The `tonly` rows: the Caroli kernel at the `nw_long_tonly` shape, each
/// Σ assembled from three lead modes (`Σ = X·U⁺` on the rows its lead's
/// coupling touches, as FEAST builds it). Carrying `Γ` through the modes
/// (6 columns a side) against carrying it through the rows Σ occupies (36
/// and 48): operation counts, panel construction included (deterministic,
/// gated), and warm time (optional).
fn tonly_rows(reps: usize, entries: &mut String, rows: &mut Vec<Row>) {
    let (nb, s, modes) = (32, 90, 3);
    let mut sys = long_wire_system(nb);
    let through_modes = |sigma: &ZMat, seed: u64| {
        let u = ZMat::random(s, modes, seed);
        let x = sigma * &u;
        (&x * &qr_least_squares(&u, &ZMat::identity(s)), u)
    };
    let (sigma_l, u_l) = through_modes(&sys.sigma_l, 501);
    let (sigma_r, u_r) = through_modes(&sys.sigma_r, 502);
    (sys.sigma_l, sys.sigma_r) = (sigma_l, sigma_r);
    let support = sys.a.coupling_support();
    let ws = Workspace::new();
    let by_rows = || boundary_route(&sys, &support, &ws);
    let by_modes = || {
        let p_l = broadening_factor_ws(&sys.sigma_l, Some(&u_l), &ws);
        let p_r = broadening_factor_ws(&sys.sigma_r, Some(&u_r), &ws);
        assert_eq!((p_l.cols(), p_r.cols()), (2 * modes, 2 * modes));
        let left = CaroliContact { sigma: &sys.sigma_l, panel: &p_l };
        let right = CaroliContact { sigma: &sys.sigma_r, panel: &p_r };
        let t = caroli_sweep_contacts(&sys.a, left, right, &support, &ws).expect("Caroli sweep");
        ws.recycle(p_l);
        ws.recycle(p_r);
        t
    };
    let counted = |f: &dyn Fn() -> f64| {
        let scope = FlopScope::start();
        (f(), scope.elapsed())
    };
    let ((t_rows, row_flops), (t_modes, mode_flops)) = (counted(&by_rows), counted(&by_modes));
    assert!((t_rows - t_modes).abs() < 1e-10, "row factor {t_rows} vs mode factor {t_modes}");
    let flop_speedup = row_flops as f64 / mode_flops as f64;
    let _ = writeln!(
        entries,
        "    {{\"kind\": \"tonly\", \"nb\": {nb}, \"s\": {s}, \"support_rows\": 24, \
         \"support_cols\": 18, \"modes\": {modes}, \"row_support_flops\": {row_flops}, \
         \"mode_panel_flops\": {mode_flops}, \
         \"flop_speedup_mode_panel_vs_row_support\": {flop_speedup:.3}}},",
    );
    let [rows_ms, modes_ms] =
        medians_interleaved([&mut || _ = by_rows(), &mut || _ = by_modes()], reps).map(|t| t * 1e3);
    let _ = writeln!(
        entries,
        "    {{\"kind\": \"tonly_latency\", \"nb\": {nb}, \"s\": {s}, \"optional\": true, \
         \"row_support_ms_per_point\": {rows_ms:.4}, \"mode_panel_ms_per_point\": {modes_ms:.4}, \
         \"time_speedup_mode_panel_vs_row_support\": {:.3}}},",
        rows_ms / modes_ms,
    );
    let mf = 1e-6;
    rows.push(Row::new("row-support factor", vec![row_flops as f64 * mf, rows_ms, 1.0]));
    rows.push(Row::new("mode-thin factor", vec![mode_flops as f64 * mf, modes_ms, flop_speedup]));
}

/// The `pencil_bytes` rows: the bytes of `S` and `H` one wave-function
/// point reads — two passes over the pencil (the fronts, then the
/// residual), each over every diagonal block and every coupling support
/// rectangle — from the dense blocks and from the compact `PencilStore`,
/// at the long wire's and the DFT wire's shapes (both devices built, not
/// modelled). Byte counts, hence deterministic and gated like the
/// footprint rows. The `pencil_latency` row times, at the long wire's
/// shape, the diagonal stream and the residual's diagonal products (two
/// right-hand sides) on both; optional and ungated.
fn pencil_rows(reps: usize, entries: &mut String, rows: &mut Vec<Row>) {
    let tb = BasisKind::TightBinding;
    let devices = [
        ("1.5 nm wire", DeviceBuilder::nanowire(1.5).cells(128).basis(tb).build()),
        (
            "1.0 nm DFT wire",
            DeviceBuilder::nanowire(1.0).cells(12).basis(BasisKind::Dft3sp).build(),
        ),
    ];
    for (k, (name, spec)) in devices.into_iter().enumerate() {
        let dk = Device::build(spec).expect("device build").at_kz(0.0);
        let memo = dk.chain_memo();
        let (nb, s, store) = (dk.h.num_blocks(), dk.h.block_size(), &memo.store);
        // Both shapes hold all their coupling blocks or none of them.
        let couplings_held = store.coupling_blocks_held() > 0;
        assert!(!couplings_held || store.coupling_blocks_held() == 2 * (nb - 1), "{name}");
        // `S` and `H` at one entry.
        let entry = 2 * std::mem::size_of::<Complex64>();
        let nonzero = |z: &Complex64| z.re != 0.0 || z.im != 0.0;
        let nnz: usize = (dk.s.diag.iter().zip(&dk.h.diag))
            .map(|(s, h)| {
                let pairs = s.as_slice().iter().zip(h.as_slice());
                pairs.filter(|&(s, h)| nonzero(s) || nonzero(h)).count()
            })
            .sum();
        let fill = nnz as f64 / (nb * s * s) as f64;
        let rects: usize =
            (memo.support.dims().iter()).map(|&(ru, cu, rl, cl)| ru * cu + rl * cl).sum();
        let dense = 2 * (nb * s * s + rects) * entry;
        let streamed =
            (nb - store.diag_blocks_held()) * s * s + if couplings_held { 0 } else { rects };
        let stored = 2 * (store.bytes() + streamed * entry);
        let speedup = dense as f64 / stored as f64;
        let (ru, cu, _, _) = memo.support.dims()[0];
        let _ = writeln!(
            entries,
            "    {{\"kind\": \"pencil_bytes\", \"nb\": {nb}, \"s\": {s}, \"diag_fill\": {fill:.4}, \
             \"support_rows\": {ru}, \"support_cols\": {cu}, \
             \"diag_blocks_stored\": {}, \"dense_bytes_per_point\": {dense}, \
             \"store_bytes_per_point\": {stored}, \"bytes_speedup_store_vs_dense\": {speedup:.3}}},",
            store.diag_blocks_held(),
        );
        let mb = 1.0 / (1024.0 * 1024.0);
        let label = format!("{name} nb={nb} s={s}, bytes (MB)");
        rows.push(Row::new(label, vec![fill, dense as f64 * mb, stored as f64 * mb, speedup]));
        if k > 0 {
            continue;
        }
        let x = ZMat::random(nb * s, 2, 5);
        let (dense, with_store) = (dk.pencil(1.3, 0.0), dk.pencil_on(&memo, 1.3, 0.0));
        let [dense_ms, store_ms] = medians_interleaved(
            [&mut || diag_passes(&dense, &x), &mut || diag_passes(&with_store, &x)],
            reps,
        )
        .map(|t| t * 1e3);
        let _ = writeln!(
            entries,
            "    {{\"kind\": \"pencil_latency\", \"nb\": {nb}, \"s\": {s}, \"optional\": true, \
             \"dense_ms_per_point\": {dense_ms:.4}, \"store_ms_per_point\": {store_ms:.4}}},",
        );
        let label = format!("{name}, diagonal stream + residual (ms)");
        rows.push(Row::new(label, vec![fill, dense_ms, store_ms, dense_ms / store_ms]));
    }
}

/// What a wave-function point does with the diagonal blocks of `pencil`:
/// streams each into a pivot buffer, then applies it to `x` column by
/// column with exact zeros skipped, as the residual does — from the stored
/// non-zeros when the pencil has them.
fn diag_passes(pencil: &EsMinusH<'_>, x: &ZMat) {
    let (nb, s, m) = (pencil.num_blocks(), pencil.block_size(), x.cols());
    let (mut d, mut r) = (ZMat::zeros(s, s), ZMat::zeros(s, m));
    let mut column: Vec<(usize, Complex64)> = Vec::with_capacity(s);
    for i in 0..nb {
        pencil.diag_into(i, &mut d);
        let pattern = pencil.diag_pattern(i);
        for c in 0..s {
            column.clear();
            match &pattern {
                Some(p) => column.extend(p.column(c)),
                None => column.extend(d.col(c).iter().copied().enumerate()),
            }
            for k in 0..m {
                let xk = x[(i * s + c, k)];
                for &(row, a) in &column {
                    if a.re != 0.0 || a.im != 0.0 {
                        r[(row, k)] += a * xk;
                    }
                }
            }
        }
    }
    std::hint::black_box(&r);
}

/// `Γ = i(Σ − Σᴴ)` of a boundary self-energy.
fn gamma_of(sigma: &ZMat) -> ZMat {
    &sigma.scaled(Complex64::I) - &sigma.adjoint().scaled(Complex64::I)
}

/// Caroli trace `T = Tr[Γ_L · G_{0,n−1} · Γ_R · G_{0,n−1}ᴴ]` from the
/// corner Green's block.
fn caroli_of_corner(corner: &ZMat, gamma_l: &ZMat, gamma_r: &ZMat) -> f64 {
    let s = corner.rows();
    let mut ggr = ZMat::zeros(s, s);
    gemm(Complex64::ONE, corner, Op::None, gamma_r, Op::None, Complex64::ZERO, &mut ggr);
    let mut sandwich = ZMat::zeros(s, s);
    gemm(Complex64::ONE, &ggr, Op::None, corner, Op::Adjoint, Complex64::ZERO, &mut sandwich);
    let mut full = ZMat::zeros(s, s);
    gemm(Complex64::ONE, gamma_l, Op::None, &sandwich, Op::None, Complex64::ZERO, &mut full);
    (0..s).map(|i| full[(i, i)].re).sum()
}

/// The retired layout: stage `A` densely, factor it, and read the corner
/// block of `A⁻¹` from an `n × s` identity-column solve. Peaks at
/// `O(n²)` bytes by construction.
fn dense_route(sys: &ObcSystem, gamma_l: &ZMat, gamma_r: &ZMat) -> f64 {
    let (n, s) = (sys.dim(), sys.block_size());
    let t = sys.t_dense();
    let mut e_last = ZMat::zeros(n, s);
    for j in 0..s {
        e_last[(n - s + j, j)] = Complex64::ONE;
    }
    let x = zgesv(&t, &e_last).expect("dense staging solve");
    let mut corner = ZMat::zeros(s, s);
    for i in 0..s {
        for j in 0..s {
            corner[(i, j)] = x[(i, j)];
        }
    }
    caroli_of_corner(&corner, gamma_l, gamma_r)
}

fn btd_route(sys: &ObcSystem, gamma_l: &ZMat, gamma_r: &ZMat, ws: &Workspace) -> f64 {
    let g = rgf_diagonal_and_corner_ws(sys, ws).expect("full RGF");
    caroli_of_corner(&g.corner, gamma_l, gamma_r)
}

/// The transmission-only route: no Green's function block is formed, the
/// trace comes straight out of the elimination sweep.
fn boundary_route(sys: &ObcSystem, support: &[CouplingSupport], ws: &Workspace) -> f64 {
    caroli_sweep(&sys.a, &sys.sigma_l, &sys.sigma_r, support, ws).expect("Caroli sweep")
}

/// Peak matrix bytes of one warm run of `f` (warm-up pass first so the
/// measurement sees steady-state pools, not cold-start allocation).
fn peak_of(mut f: impl FnMut()) -> usize {
    f();
    reset_peak_matrix_bytes();
    f();
    peak_matrix_bytes()
}

fn main() {
    let mut out_path = "BENCH_sparse.json".to_string();
    let mut quick = false;
    for arg in std::env::args().skip(1) {
        if arg == "--quick" {
            quick = true;
        } else {
            out_path = arg;
        }
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Two device lengths at a fixed block size: the footprint ratio must
    // widen with `nb` (dense is n², the sparse routes are bandwidth·n).
    // The quick CI profile keeps the short device — a strict subset of
    // the committed baseline, so check_bench skips the long entries.
    let configs: &[(usize, usize)] = if quick { &[(16, 16)] } else { &[(16, 16), (64, 16)] };
    let reps = if quick { 3 } else { 5 };

    let mut entries = String::new();
    let mut rows = Vec::new();

    for &(nb, s) in configs {
        let sys = random_system(nb, s, 1, 40 + nb as u64);
        let gamma_l = gamma_of(&sys.sigma_l);
        let gamma_r = gamma_of(&sys.sigma_r);

        // The coupling supports are a property of the device, computed
        // once per sweep — outside the per-point routes, like Γ.
        let support = sys.a.coupling_support();

        // Cross-check the three routes on this system before timing: they
        // are three different eliminations of the same matrix and agree
        // to factorization roundoff.
        let ws = Workspace::new();
        let t_dense_val = dense_route(&sys, &gamma_l, &gamma_r);
        let t_btd_val = btd_route(&sys, &gamma_l, &gamma_r, &ws);
        let t_bnd_val = boundary_route(&sys, &support, &ws);
        let scale = t_dense_val.abs().max(1.0);
        for (name, t) in [("BTD", t_btd_val), ("boundary", t_bnd_val)] {
            assert!(
                (t_dense_val - t).abs() < 1e-8 * scale,
                "dense vs {name} Caroli mismatch at nb={nb}: {t_dense_val} vs {t}"
            );
        }

        // ── Footprint: peak matrix bytes of one warm solve per route ──
        let dense_peak = peak_of(|| {
            dense_route(&sys, &gamma_l, &gamma_r);
        });
        let ws_btd = Workspace::new();
        let btd_peak = peak_of(|| {
            btd_route(&sys, &gamma_l, &gamma_r, &ws_btd);
        });
        let ws_bnd = Workspace::new();
        let bnd_peak = peak_of(|| {
            boundary_route(&sys, &support, &ws_bnd);
        });
        let stored = btd_stats(&sys.a);
        let fp_btd = dense_peak as f64 / btd_peak as f64;
        let fp_bnd = dense_peak as f64 / bnd_peak as f64;
        let _ = writeln!(
            entries,
            "    {{\"kind\": \"footprint\", \"nb\": {nb}, \"s\": {s}, \
             \"dense_matrix_bytes\": {}, \"btd_stored_bytes\": {}, \
             \"dense_peak_bytes\": {dense_peak}, \"btd_peak_bytes\": {btd_peak}, \
             \"boundary_peak_bytes\": {bnd_peak}, \
             \"footprint_speedup_btd_vs_dense\": {fp_btd:.3}, \
             \"footprint_speedup_boundary_vs_dense\": {fp_bnd:.3}}},",
            dense_matrix_bytes(sys.dim()),
            stored.bytes,
        );

        // ── Latency: warm ms per energy point per route ──
        let [dense_ms, btd_ms, bnd_ms] = medians_interleaved(
            [
                &mut || _ = dense_route(&sys, &gamma_l, &gamma_r),
                &mut || _ = btd_route(&sys, &gamma_l, &gamma_r, &ws_btd),
                &mut || _ = boundary_route(&sys, &support, &ws_bnd),
            ],
            reps,
        )
        .map(|t| t * 1e3);
        let _ = writeln!(
            entries,
            "    {{\"kind\": \"latency\", \"nb\": {nb}, \"s\": {s}, \"optional\": true, \
             \"dense_ms_per_point\": {dense_ms:.4}, \"btd_ms_per_point\": {btd_ms:.4}, \
             \"boundary_ms_per_point\": {bnd_ms:.4}, \
             \"time_speedup_btd_vs_dense\": {:.3}, \
             \"time_speedup_boundary_vs_dense\": {:.3}}},",
            dense_ms / btd_ms,
            dense_ms / bnd_ms,
        );

        let mb = 1.0 / (1024.0 * 1024.0);
        rows.push(Row::new(
            format!("dense nb={nb} s={s}"),
            vec![dense_peak as f64 * mb, dense_ms, 1.0],
        ));
        rows.push(Row::new(
            format!("btd nb={nb} s={s}"),
            vec![btd_peak as f64 * mb, btd_ms, dense_ms / btd_ms],
        ));
        rows.push(Row::new(
            format!("boundary nb={nb} s={s}"),
            vec![bnd_peak as f64 * mb, bnd_ms, dense_ms / bnd_ms],
        ));
    }

    let mut interior = Vec::new();
    interior_rows(reps, &mut entries, &mut interior);
    let mut tonly = Vec::new();
    tonly_rows(reps, &mut entries, &mut tonly);
    let mut pencil = Vec::new();
    pencil_rows(reps, &mut entries, &mut pencil);

    let entries = entries.trim_end().trim_end_matches(',').to_string();
    let json = format!(
        "{{\n  \"bench\": \"sparsity end-to-end: dense staging vs BTD RGF vs boundary-only\",\n  \
         \"cores\": {cores},\n  \"target_cpu\": \"native\",\n  \"quick\": {quick},\n  \
         \"flags_note\": \"footprint speedups are peak matrix-byte ratios (deterministic, \
         allocation-counter based); the pencil bytes speedup is the bytes of S and H a wave-function point reads from the dense blocks over those it reads from the compact store (deterministic); the interior flop speedup is the dense-Q operation count \
         over the counted operations of SplitSolve on the coupling supports, the tonly one the \
         Caroli kernel's count with each broadening carried on the rows Σ occupies over its \
         count on three lead modes a side (both deterministic); latency rows are warm ms/pt on the same systems and are optional for narrow runners\",\n  \"results\": [\n{entries}\n  ]\n}}\n"
    );
    std::fs::write(&out_path, &json).expect("write BENCH_sparse.json");
    print_table(
        "Sparsity: dense staging vs BTD vs boundary-only",
        &["route", "peak MB", "ms/pt", "vs dense x"],
        &rows,
    );
    print_table(
        "Interior solve at the long-wire shape (24 x 18 coupling support)",
        &["solver", "MFLOP", "ms/pt", "flops vs dense Q x"],
        &interior,
    );
    print_table(
        "Caroli kernel at the long-wire shape, 3 lead modes a side",
        &["broadening factor", "MFLOP", "ms/pt", "flops vs row support x"],
        &tonly,
    );
    print_table(
        "Bytes of S and H a wave-function point reads: dense blocks vs compact store",
        &["device", "diag fill", "dense", "store", "dense / store x"],
        &pencil,
    );
    println!("\nwrote {out_path}");
}
