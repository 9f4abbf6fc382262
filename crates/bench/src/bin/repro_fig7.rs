//! Fig. 7: SplitSolve weak and strong scaling on Piz Daint.
//!
//! (a) weak: 2560 atoms per GPU (N_SS = N_GPU × 30 720); the efficiency
//!     drop comes from the extra spike computations (~10 s per recursive
//!     merge level, 30 s on 2 GPUs → 70 s on 32).
//! (b) strong: 10 240 atoms (N_SS = 122 880) — the largest structure two
//!     GPUs can hold, too little work for ≥ 8 GPUs.
//!
//! Also runs a real downscaled weak/strong scaling with the actual
//! SplitSolve kernels on virtual accelerators to show the same shape.

use qtx_accel::{AccelRuntime, GpuSpec};
use qtx_bench::{print_table, Row};
use qtx_linalg::{c64, ZMat};
use qtx_machine::{fig7_strong, fig7_weak};
use qtx_solver::{ObcSystem, SplitSolve};
use qtx_sparse::Btd;

fn model_tables() {
    let weak = fig7_weak(&[2, 4, 8, 16, 32]);
    let rows: Vec<Row> = weak
        .iter()
        .map(|r| Row::new(format!("{} GPUs", r.nodes), vec![r.time_s, r.efficiency_pct]))
        .collect();
    print_table(
        "Fig. 7(a) — weak scaling (model, paper: 30 s -> 70 s)",
        &["config", "time (s)", "eff (%)"],
        &rows,
    );

    let strong = fig7_strong(&[2, 4, 8, 16]);
    let rows: Vec<Row> = strong
        .iter()
        .map(|r| Row::new(format!("{} GPUs", r.nodes), vec![r.time_s, r.efficiency_pct]))
        .collect();
    print_table("Fig. 7(b) — strong scaling (model)", &["config", "time (s)", "eff (%)"], &rows);
}

fn real_downscaled() {
    // Real kernels, virtual clocks: weak scaling with 4 blocks per
    // partition, block size 48.
    let s = 48;
    println!("\nreal downscaled weak scaling (block {s}, 4 blocks/partition):");
    let mut rows = Vec::new();
    for p in [1usize, 2, 4] {
        let nb = 4 * p;
        let mut a = Btd::zeros(nb, s);
        for i in 0..nb {
            a.diag[i] = ZMat::random(s, s, 10 + i as u64);
            for d in 0..s {
                a.diag[i][(d, d)] += c64(8.0, 1.0);
            }
        }
        for i in 0..nb - 1 {
            a.upper[i] = ZMat::random(s, s, 50 + i as u64).scaled(c64(0.3, 0.0));
            a.lower[i] = ZMat::random(s, s, 90 + i as u64).scaled(c64(0.3, 0.0));
        }
        let sys = ObcSystem {
            a,
            sigma_l: ZMat::random(s, s, 400).scaled(c64(0.2, 0.1)),
            sigma_r: ZMat::random(s, s, 401).scaled(c64(0.2, -0.1)),
            rhs_top: ZMat::random(s, 4, 402),
            rhs_bottom: ZMat::random(s, 4, 403),
        };
        let rt = AccelRuntime::new(2 * p, GpuSpec::k20x());
        let (_, report) = SplitSolve::new(p).solve(&sys, Some(&rt)).expect("solve");
        rows.push(Row::new(
            format!("{} GPUs ({} partitions)", 2 * p, p),
            vec![
                report.virtual_seconds * 1e3,
                report.spike_levels as f64,
                report.flops as f64 / 1e6,
            ],
        ));
    }
    print_table(
        "real kernels on virtual GPUs (weak)",
        &["config", "virtual ms", "spike levels", "MFLOP"],
        &rows,
    );
}

fn main() {
    model_tables();
    real_downscaled();
    println!("\npaper: weak efficiency drops with the spike levels; strong scaling saturates");
}
