//! Operation-count ledger of the interior solve at the benchmark's device
//! shapes. The engine's two-front solve factors each pivot block once: its
//! count is exactly `counts::two_front_solve`, at most 0.6 × SplitSolve's
//! on the long wire and the DFT wire, the same from one thread or two, and
//! warm calls allocate nothing. SplitSolve keeps `Q = A⁻¹·B` as
//! elimination factors on the coupling support and its corner blocks on
//! the contact rows; its count must stay at a quarter of what
//! materializing `Q` cost on the long wire, under the parent's on the long
//! wire and the DFT wire, within a tenth of its model, and must not depend
//! on which thread ran which sweep.

use qtx_linalg::flops::counts;
use qtx_linalg::{c64, Complex64, FlopScope, ZMat};
use qtx_solver::{
    btd_lu_solve_ws, two_front_solve, BoundaryTerms, ObcSystem, SplitSolve, Workspace,
};
use qtx_sparse::{BlockChain, Btd, CouplingSupport};

/// A random `s × cols` block with entries on `rows × cols` only.
fn on_support(
    s: usize,
    width: usize,
    rows: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
    seed: u64,
) -> ZMat {
    let dense = ZMat::random(s, width, seed).scaled(c64(0.4, 0.1));
    ZMat::from_fn(s, width, |r, c| {
        if rows.contains(&r) && cols.contains(&c) {
            dense[(r, c)]
        } else {
            Complex64::ZERO
        }
    })
}

/// A wire of `nb` slabs of `s` orbitals as the tight-binding and DFT
/// devices shape it: the upper coupling reaches from the last `ru`
/// orbitals of a slab to the first `cu` of the next, the lower one is its
/// mirror, and each lead touches the rows its coupling does — Σ and the
/// `m` injection columns alike.
fn wire_shape(nb: usize, s: usize, (ru, cu): (usize, usize), m: usize) -> ObcSystem {
    let mut a = Btd::zeros(nb, s);
    for i in 0..nb {
        a.diag[i] = ZMat::random(s, s, 7 + i as u64);
        for d in 0..s {
            a.diag[i][(d, d)] += c64(4.0 + s as f64, 1.0);
        }
    }
    for i in 0..nb - 1 {
        a.upper[i] = on_support(s, s, s - ru..s, 0..cu, 300 + i as u64);
        a.lower[i] = on_support(s, s, 0..cu, s - ru..s, 600 + i as u64);
    }
    ObcSystem {
        a,
        sigma_l: on_support(s, s, 0..cu, 0..s, 901).into(),
        sigma_r: on_support(s, s, s - ru..s, 0..s, 902).into(),
        rhs_top: on_support(s, m / 2, 0..cu, 0..m, 903),
        rhs_bottom: on_support(s, m - m / 2, s - ru..s, 0..m, 904),
    }
}

#[test]
fn long_wire_interior_costs_under_a_quarter_of_the_dense_q_solve() {
    const S: usize = 90;
    let (nb, m) = (32, 6);
    let sys = wire_shape(nb, S, (24, 18), m);
    let support = sys.chain_support();
    assert_eq!(support.dims()[0], (24, 18, 18, 24));
    assert_eq!((support.contact_l.len(), support.contact_r.len()), (18, 24));
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

#[test]
fn the_four_device_shapes_cost_what_the_model_says_and_less_than_before() {
    // (device, s, n_b, |R_u| × |C_u|, injected modes, SplitSolve's
    // partitions on it, the count in operations of SplitSolve{2} with
    // s-wide corners, `docs/solver.md` — and the share of it allowed now).
    let ws = Workspace::new();
    for (name, s, nb, coupling, m, partitions, before, share) in [
        ("utb", 20, 8, (4, 6), 4, 1, 1.15e6, 1.0),
        ("0.8 nm wire", 26, 8, (4, 6), 2, 1, 2.08e6, 1.0),
        ("long wire", 90, 128, (24, 18), 10, 2, 1021e6, 0.95),
        ("dft wire", 252, 6, (162, 156), 6, 1, 3741e6, 0.70),
    ] {
        let sys = wire_shape(nb, s, coupling, m);
        let support = sys.chain_support();
        let (_, report) = SplitSolve::new(partitions).solve_ws(&sys, None, &ws).unwrap();
        assert_eq!(report.partitions, partitions, "{name}");
        let contacts = (support.contact_l.len(), support.contact_r.len());
        let model = counts::splitsolve_factored(s, &support.dims(), contacts, partitions);
        // The model leaves out what grows with m — Step 4 and R's
        // right-hand side.
        assert!(model <= report.flops && 10 * (report.flops - model) <= report.flops, "{name}");
        assert!(
            report.flops as f64 <= share * before,
            "{name}: {} operations against {before} before",
            report.flops
        );
    }
}

#[test]
fn the_two_front_solve_factors_each_block_once() {
    // (device, s, n_b, |R_u| × |C_u|, injected modes, SplitSolve's count on
    // the shape as the engine ran it before, in operations: two partitions
    // on the long wire, one on the DFT wire, `docs/solver.md`).
    for (name, s, nb, coupling, m, splitsolve) in
        [("long wire", 90, 128, (24, 18), 10, 935e6), ("dft wire", 252, 6, (162, 156), 6, 2487e6)]
    {
        let sys = wire_shape(nb, s, coupling, m);
        let support = sys.a.coupling_support();
        let (sigma_l, sigma_r) = (sys.sigma_l.dense(), sys.sigma_r.dense());
        let boundary = BoundaryTerms {
            sigma_l: &sigma_l,
            sigma_r: &sigma_r,
            rhs_top: &sys.rhs_top,
            rhs_bottom: &sys.rhs_bottom,
        };
        let ws = Workspace::new();
        let counted = |partitions: usize| {
            let scope = FlopScope::start();
            let psi = two_front_solve(&sys.a, &support, &boundary, partitions, &ws).unwrap();
            (psi, scope.elapsed())
        };
        let (psi, flops) = counted(2);
        let reference = btd_lu_solve_ws(&sys, &Workspace::new()).unwrap();
        assert!(psi.max_diff(&reference) < 1e-10, "{name}: {:.2e}", psi.max_diff(&reference));
        let dims: Vec<_> = support.iter().map(CouplingSupport::dims).collect();
        let (ml, mr) = (sys.rhs_top.cols(), sys.rhs_bottom.cols());
        assert_eq!(flops, counts::two_front_solve(s, &dims, ml, mr), "{name}");
        assert!(flops as f64 <= 0.6 * splitsolve, "{name}: {flops} operations");
        // One thread or two: the same bits and the same count; and once
        // warm, the pool serves every buffer.
        let fresh = ws.fresh_allocations();
        assert_eq!(counted(1), (psi, flops), "{name}");
        assert_eq!(ws.fresh_allocations(), fresh, "{name}");
    }
}
