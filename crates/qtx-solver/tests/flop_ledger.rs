//! Operation-count ledger of the interior solve at the long-wire shape:
//! 1.5 nm tight-binding wire, `s` = 90, couplings on a 24 × 18 support.
//! SplitSolve keeps `Q = A⁻¹·B` as elimination factors on that support;
//! the count must stay at a quarter of what materializing `Q` cost, and
//! must not depend on which thread ran which sweep.

use qtx_linalg::flops::counts;
use qtx_linalg::{c64, Complex64, ZMat};
use qtx_solver::{btd_lu_solve_ws, ObcSystem, SplitSolve, Workspace};
use qtx_sparse::{BlockChain, Btd};

const S: usize = 90;

/// A coupling block with entries on `rows × cols` only.
fn on_support(rows: std::ops::Range<usize>, cols: std::ops::Range<usize>, seed: u64) -> ZMat {
    let dense = ZMat::random(S, S, seed).scaled(c64(0.4, 0.0));
    ZMat::from_fn(S, S, |r, c| {
        if rows.contains(&r) && cols.contains(&c) {
            dense[(r, c)]
        } else {
            Complex64::ZERO
        }
    })
}

/// The long wire's shape: the upper coupling reaches from the last 24
/// orbitals of a slab to the first 18 of the next, the lower one is its
/// mirror, and each lead touches the rows its coupling does.
fn long_wire_shape(nb: usize, m: usize) -> ObcSystem {
    let mut a = Btd::zeros(nb, S);
    for i in 0..nb {
        a.diag[i] = ZMat::random(S, S, 7 + i as u64);
        for d in 0..S {
            a.diag[i][(d, d)] += c64(4.0 + S as f64, 1.0);
        }
    }
    for i in 0..nb - 1 {
        a.upper[i] = on_support(S - 24..S, 0..18, 300 + i as u64);
        a.lower[i] = on_support(0..18, S - 24..S, 600 + i as u64);
    }
    let sigma = |rows: std::ops::Range<usize>, seed: u64| {
        let dense = ZMat::random(S, S, seed).scaled(c64(0.3, 0.1));
        ZMat::from_fn(S, S, |r, c| if rows.contains(&r) { dense[(r, c)] } else { Complex64::ZERO })
    };
    ObcSystem {
        a,
        sigma_l: sigma(0..18, 901).into(),
        sigma_r: sigma(S - 24..S, 902).into(),
        rhs_top: ZMat::random(S, m / 2, 903),
        rhs_bottom: ZMat::random(S, m - m / 2, 904),
    }
}

#[test]
fn long_wire_interior_costs_under_a_quarter_of_the_dense_q_solve() {
    let (nb, m) = (32, 6);
    let sys = long_wire_shape(nb, m);
    let support = sys.a.coupling_support();
    assert_eq!((support[0].upper.rows.len(), support[0].upper.cols.len()), (24, 18));
    let ws = Workspace::new();
    let reference = btd_lu_solve_ws(&sys, &ws).unwrap();
    for partitions in [1usize, 2] {
        let (x, report) = SplitSolve::new(partitions).solve_ws(&sys, None, &ws).unwrap();
        assert!(x.max_diff(&reference) < 1e-10, "p={partitions}: {:.2e}", x.max_diff(&reference));
        let dense_q = counts::splitsolve_dense_q(nb, S, m, partitions.trailing_zeros() as usize);
        assert!(
            4 * report.flops <= dense_q,
            "p={partitions}: {} operations against {dense_q} with a dense Q",
            report.flops
        );
        // The ledger is a property of the system, not of the schedule: a
        // second run — its sweeps on whichever threads — counts the same.
        let again = SplitSolve::new(partitions).solve_ws(&sys, None, &ws).unwrap().1.flops;
        assert_eq!(again, report.flops);
    }
}
