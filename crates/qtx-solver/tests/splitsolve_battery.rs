//! Property battery for the factored-`Q` SplitSolve kernel: every
//! combination of chain length, partition count (uneven splits included),
//! coupling-support pattern, contact rows, right-hand-side width and
//! broadening is checked against a dense `zgesv` of the assembled system
//! — with the corner blocks carried on the rows the contacts occupy and
//! at full width — and the streamed pencil against the assembled matrix
//! bit for bit.

use qtx_linalg::flops::counts;
use qtx_linalg::{c64, zgesv, Complex64, ZMat};
use qtx_solver::{BoundaryTerms, ObcSystem, SplitSolve, Workspace};
use qtx_sparse::{BlockChain, Btd, ChainSupport, EsMinusH};

/// Row/column ranges the couplings of pair `i` live on, per pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Pattern {
    /// No coupling at all: the chain is block diagonal.
    Empty,
    /// Dense couplings: full-width supports.
    Full,
    /// `upper` and `lower` on unrelated supports (`upper ≠ lowerᴴ`).
    Asymmetric,
    /// Supports that change from pair to pair, a single entry at times.
    Varying,
}

impl Pattern {
    /// Whether entry `(r, c)` of pair `i`'s upper (or lower) coupling is
    /// structurally present.
    fn couples(self, s: usize, i: usize, upper: bool, r: usize, c: usize) -> bool {
        match (self, upper) {
            (Pattern::Empty, _) => false,
            (Pattern::Full, _) => true,
            (Pattern::Asymmetric, true) => r >= s / 2 && c < s.div_ceil(3),
            (Pattern::Asymmetric, false) => r.is_multiple_of(2) && c + 1 >= s.saturating_sub(1),
            (Pattern::Varying, true) => r <= i % s && c >= (i + 1) % s,
            (Pattern::Varying, false) => r == (2 * i) % s && c <= (i + 2) % s,
        }
    }
}

fn masked(s: usize, seed: u64, keep: impl Fn(usize, usize) -> bool) -> ZMat {
    let dense = ZMat::random(s, s, seed).scaled(c64(0.35, 0.1));
    ZMat::from_fn(s, s, |r, c| if keep(r, c) { dense[(r, c)] } else { Complex64::ZERO })
}

/// Hamiltonian and overlap of a chain whose pencil `z·S − H` is block
/// diagonally dominant for `|z| ≲ 1`.
fn device(nb: usize, s: usize, pattern: Pattern, seed: u64) -> (Btd, Btd) {
    let (mut h, mut ov) = (Btd::zeros(nb, s), Btd::zeros(nb, s));
    for i in 0..nb {
        h.diag[i] = ZMat::random(s, s, seed + i as u64);
        ov.diag[i] = ZMat::random(s, s, seed + 50 + i as u64).scaled(c64(0.1, 0.0));
        for d in 0..s {
            h.diag[i][(d, d)] -= c64(4.0 + s as f64, 0.5);
            ov.diag[i][(d, d)] += Complex64::ONE;
        }
    }
    for i in 0..nb.saturating_sub(1) {
        let seed = seed + 100 + 7 * i as u64;
        let up = |r, c| pattern.couples(s, i, true, r, c);
        let lo = |r, c| pattern.couples(s, i, false, r, c);
        h.upper[i] = masked(s, seed, up);
        h.lower[i] = masked(s, seed + 1, lo);
        // The overlap couples a subset of what the Hamiltonian does.
        ov.upper[i] =
            masked(s, seed + 2, |r, c| up(r, c) && (r + c).is_multiple_of(2)).scaled(c64(0.2, 0.0));
        ov.lower[i] = masked(s, seed + 3, |r, c| lo(r, c) && r != c).scaled(c64(0.2, 0.0));
    }
    (h, ov)
}

/// A random `s × cols` block scaled by `scale`, on `rows` only (all of
/// them when `None`; the zero matrix for an empty list).
fn on_rows(s: usize, cols: usize, seed: u64, scale: Complex64, rows: Option<&[usize]>) -> ZMat {
    let dense = ZMat::random(s, cols, seed).scaled(scale);
    ZMat::from_fn(s, cols, |r, c| match rows {
        Some(rows) if !rows.contains(&r) => Complex64::ZERO,
        _ => dense[(r, c)],
    })
}

/// A self-energy on `rows`.
fn sigma(s: usize, seed: u64, rows: Option<&[usize]>) -> ZMat {
    on_rows(s, s, seed, c64(0.3, -0.2), rows)
}

/// The worst `max |x − x_dense|` the battery accepts, relative to
/// `max(1, ‖x_dense‖_max)` — the parent's bound.
const TOLERANCE: f64 = 1e-10;

#[test]
fn streamed_kernel_matches_dense_solve_over_the_whole_grid() {
    let ws = Workspace::new();
    let mut cases = 0;
    for nb in [1usize, 2, 3, 7, 8] {
        for (pi, pattern) in [Pattern::Empty, Pattern::Full, Pattern::Asymmetric, Pattern::Varying]
            .into_iter()
            .enumerate()
        {
            for s in [1usize, 4] {
                let seed = (1000 * nb + 100 * pi + s) as u64;
                let (h, ov) = device(nb, s, pattern, seed);
                // (η, m, rows of the left contact, rows of the right one):
                // Σ on every row; both contacts on one row each, Σ and Inj
                // alike; no injection at all; a zero Σ_L whose contact rows
                // come from the injection alone.
                for (eta, m, rows_l, inj_l, rows_r) in [
                    (0.0, s, None, None, None),
                    (1e-6, 1, Some(vec![0]), Some(vec![0]), Some(vec![s - 1])),
                    (0.0, 0, Some(vec![s - 1]), None, None),
                    (1e-6, s, Some(vec![]), None, Some(vec![0, s / 2])),
                ] {
                    let z = c64(0.37, eta);
                    let one = Complex64::ONE;
                    let sys = ObcSystem {
                        a: Btd::es_minus_h(z, &ov, &h),
                        sigma_l: sigma(s, seed + 11, rows_l.as_deref()),
                        sigma_r: sigma(s, seed + 12, rows_r.as_deref()),
                        rhs_top: on_rows(s, m, seed + 13, one, inj_l.as_deref()),
                        rhs_bottom: on_rows(s, m.min(1), seed + 14, one, rows_r.as_deref()),
                    };
                    let reference = zgesv(&sys.t_dense(), &sys.b_dense()).unwrap();
                    let pencil = EsMinusH::dense(z, &ov, &h);
                    // The contact rows the system occupies, and all of them.
                    let occupied =
                        ChainSupport { coupling: pencil.coupling_support(), ..sys.chain_support() };
                    if let (Some(rows), Some(_)) = (&rows_l, &inj_l) {
                        assert_eq!(&occupied.contact_l, rows);
                    }
                    let full_width = ChainSupport {
                        contact_l: (0..s).collect(),
                        contact_r: (0..s).collect(),
                        ..occupied.clone()
                    };
                    let boundary = BoundaryTerms {
                        sigma_l: &sys.sigma_l,
                        sigma_r: &sys.sigma_r,
                        rhs_top: &sys.rhs_top,
                        rhs_bottom: &sys.rhs_bottom,
                    };
                    for partitions in [1usize, 2, 4] {
                        let solver = SplitSolve::new(partitions);
                        let case = format!(
                            "nb={nb} s={s} {pattern:?} p={partitions} m={m} η={eta} \
                             contacts={:?}/{:?}",
                            occupied.contact_l, occupied.contact_r
                        );
                        let (x, report) = solver
                            .solve_chain_ws(&pencil, &occupied, &boundary, None, &ws)
                            .unwrap();
                        assert_eq!(report.partitions, partitions.min(nb), "{case}");
                        let scale = reference.norm_max().max(1.0);
                        let err = x.max_diff(&reference);
                        assert!(err < TOLERANCE * scale, "{case}: {err:.2e}");
                        // Corners at full width: the same solution from
                        // more columns than anyone reads.
                        let (wide, wide_report) = solver
                            .solve_chain_ws(&pencil, &full_width, &boundary, None, &ws)
                            .unwrap();
                        let err = wide.max_diff(&reference);
                        assert!(err < TOLERANCE * scale, "{case}, full width: {err:.2e}");
                        assert!(report.flops <= wide_report.flops, "{case}");
                        // Without injection columns the model counts every
                        // operation of the kernel: no solve against an
                        // identity wider than its reader's columns, no
                        // product nobody asked for.
                        if m == 0 {
                            let contacts = (occupied.contact_l.len(), occupied.contact_r.len());
                            let dims = occupied.dims();
                            let model = counts::splitsolve_factored(s, &dims, contacts, partitions);
                            assert_eq!(report.flops, model, "{case}");
                        }
                        // Same entries whether A is streamed or assembled,
                        // and whether the supports come from the pencil or
                        // from the assembled blocks.
                        let (assembled, _) = solver.solve_ws(&sys, None, &ws).unwrap();
                        assert_eq!(x, assembled, "{case}");
                        cases += 1;
                    }
                }
            }
        }
    }
    assert_eq!(cases, 5 * 4 * 2 * 4 * 3);
}

#[test]
fn pencil_supports_wider_than_the_assembled_ones_change_no_entry() {
    // `z·S − H` can cancel an entry the union support of S and H keeps
    // (here: S = H on the couplings and z = 1): the streamed solve then
    // works on a wider support than the assembled matrix has, the extra
    // multiplier columns carrying zeros.
    let (nb, s) = (5, 3);
    let (mut h, mut ov) = device(nb, s, Pattern::Asymmetric, 77);
    for i in 0..nb - 1 {
        ov.upper[i] = h.upper[i].clone();
        ov.lower[i] = h.lower[i].clone();
        h.upper[i][(s - 1, 0)] += c64(0.25, 0.0);
        h.lower[i][(0, s - 1)] += c64(0.25, 0.0);
    }
    let z = c64(1.0, 0.0);
    let sys = ObcSystem {
        a: Btd::es_minus_h(z, &ov, &h),
        sigma_l: sigma(s, 5, None),
        sigma_r: sigma(s, 6, None),
        rhs_top: ZMat::random(s, 2, 7),
        rhs_bottom: ZMat::random(s, 1, 8),
    };
    let pencil = EsMinusH::dense(z, &ov, &h);
    let support = ChainSupport { coupling: pencil.coupling_support(), ..sys.chain_support() };
    assert!(support.coupling[0].lower.cols.len() > sys.a.coupling_support()[0].lower.cols.len());
    let boundary = BoundaryTerms {
        sigma_l: &sys.sigma_l,
        sigma_r: &sys.sigma_r,
        rhs_top: &sys.rhs_top,
        rhs_bottom: &sys.rhs_bottom,
    };
    let ws = Workspace::new();
    let x = SplitSolve::new(2).solve_chain_ws(&pencil, &support, &boundary, None, &ws).unwrap().0;
    let reference = zgesv(&sys.t_dense(), &sys.b_dense()).unwrap();
    assert!(x.max_diff(&reference) < 1e-10);
}

#[test]
fn warm_calls_leave_the_pool_flat() {
    // Small enough to run on the calling thread, and large enough for the
    // partition sweeps to fan out: either way every matrix buffer is
    // taken and returned on the calling thread, in the same order.
    for (nb, s, pattern) in [(7, 4, Pattern::Asymmetric), (16, 48, Pattern::Full)] {
        let (h, ov) = device(nb, s, pattern, 3);
        let sys = ObcSystem {
            a: Btd::es_minus_h(c64(0.2, 0.0), &ov, &h),
            sigma_l: sigma(s, 21, Some(&[0, 1])),
            sigma_r: sigma(s, 22, None),
            rhs_top: ZMat::random(s, 2, 23),
            rhs_bottom: ZMat::random(s, 3, 24),
        };
        let (ws, solver) = (Workspace::new(), SplitSolve::new(2));
        let first = solver.solve_ws(&sys, None, &ws).unwrap().0;
        solver.solve_ws(&sys, None, &ws).unwrap();
        let before = (ws.pooled(), ws.fresh_allocations());
        for _ in 0..5 {
            assert_eq!(solver.solve_ws(&sys, None, &ws).unwrap().0, first);
        }
        assert_eq!((ws.pooled(), ws.fresh_allocations()), before, "nb={nb} s={s}");
    }
}

#[test]
fn results_do_not_depend_on_which_thread_ran_which_sweep() {
    // Large enough for the partition sweeps to fan out. Under two pool
    // worker guards — a sweep with every core busy — the same call runs
    // them one after the other on this thread: same bits, same count.
    let (h, ov) = device(16, 48, Pattern::Full, 5);
    let sys = ObcSystem {
        a: Btd::es_minus_h(c64(0.2, 1e-6), &ov, &h),
        sigma_l: sigma(48, 31, None),
        sigma_r: sigma(48, 32, Some(&[3, 40])),
        rhs_top: ZMat::random(48, 3, 33),
        rhs_bottom: ZMat::random(48, 2, 34),
    };
    let ws = Workspace::new();
    for partitions in [1usize, 2, 4] {
        let solver = SplitSolve::new(partitions);
        let (fanned, report) = solver.solve_ws(&sys, None, &ws).unwrap();
        let (inline, inline_report) = {
            let _busy = (rayon::enter_pool_worker(), rayon::enter_pool_worker());
            solver.solve_ws(&sys, None, &ws).unwrap()
        };
        assert_eq!(fanned, inline, "p={partitions}");
        assert_eq!(report.flops, inline_report.flops, "p={partitions}");
    }
}

#[test]
fn singular_and_poisoned_chains_are_typed_errors() {
    use qtx_solver::SolveError;
    let (h, ov) = device(4, 3, Pattern::Full, 9);
    let mut sys = ObcSystem {
        a: Btd::es_minus_h(c64(0.2, 0.0), &ov, &h),
        sigma_l: sigma(3, 1, None),
        sigma_r: sigma(3, 2, None),
        rhs_top: ZMat::random(3, 1, 3),
        rhs_bottom: ZMat::random(3, 1, 4),
    };
    let ws = Workspace::new();
    let healthy = sys.a.diag[3].clone();
    sys.a.diag[3] = ZMat::zeros(3, 3);
    sys.a.upper[2] = ZMat::zeros(3, 3);
    assert!(matches!(SplitSolve::new(2).solve_ws(&sys, None, &ws), Err(SolveError::Linalg(_))));
    sys.a.diag[3] = healthy;
    sys.a.diag[1][(0, 2)] = c64(f64::NAN, 0.0);
    match SplitSolve::new(1).solve_ws(&sys, None, &ws) {
        Err(SolveError::NonFinite { solver: "splitsolve", count }) => assert!(count > 0),
        other => panic!("poisoned block: {other:?}"),
    }
}
