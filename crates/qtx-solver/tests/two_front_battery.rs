//! Property battery for the two-front wave-function solve: every
//! combination of chain length, coupling-support pattern, contact rows,
//! injection widths (none at all, both sides, one side un-injected) and
//! broadening is checked against a dense `zgesv` of the assembled system;
//! each case also holds the streamed pencil to the assembled matrix bit for
//! bit, one thread to two in bits and counted flops, the count to
//! `counts::two_front_solve`, and warm calls to a flat pool.

use qtx_linalg::flops::counts;
use qtx_linalg::{c64, zgesv, Complex64, FlopScope, ZMat};
use qtx_solver::{two_front_solve, BoundaryTerms, ObcSystem, SolveError, Workspace};
use qtx_sparse::{BlockChain, Btd, CouplingSupport, EsMinusH};

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

const PATTERNS: [Pattern; 4] =
    [Pattern::Empty, Pattern::Full, Pattern::Asymmetric, Pattern::Varying];

impl Pattern {
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
        ov.upper[i] =
            masked(s, seed + 2, |r, c| up(r, c) && (r + c).is_multiple_of(2)).scaled(c64(0.2, 0.0));
        ov.lower[i] = masked(s, seed + 3, |r, c| lo(r, c) && r != c).scaled(c64(0.2, 0.0));
    }
    (h, ov)
}

/// A random `s × cols` block scaled by `scale`, on `rows` only (all of
/// them when `None`).
fn on_rows(s: usize, cols: usize, seed: u64, scale: Complex64, rows: Option<usize>) -> ZMat {
    let dense = ZMat::random(s, cols, seed).scaled(scale);
    ZMat::from_fn(s, cols, |r, c| match rows {
        Some(row) if row != r => Complex64::ZERO,
        _ => dense[(r, c)],
    })
}

/// The worst `max |ψ − ψ_dense|` the battery accepts, relative to
/// `max(1, ‖ψ_dense‖_max)`.
const TOLERANCE: f64 = 1e-10;

/// The solve on `chain` through `system`'s boundary terms, and the
/// operations it counted on this thread.
fn solve<C: BlockChain + Sync>(
    chain: &C,
    support: &[CouplingSupport],
    sys: &ObcSystem,
    partitions: usize,
    ws: &Workspace,
) -> Result<(ZMat, u64), SolveError> {
    let (sigma_l, sigma_r) = (sys.sigma_l.dense(), sys.sigma_r.dense());
    let boundary = BoundaryTerms {
        sigma_l: &sigma_l,
        sigma_r: &sigma_r,
        rhs_top: &sys.rhs_top,
        rhs_bottom: &sys.rhs_bottom,
    };
    let scope = FlopScope::start();
    let psi = two_front_solve(chain, support, &boundary, partitions, ws)?;
    Ok((psi, scope.elapsed()))
}

#[test]
fn two_front_solve_matches_dense_solve_over_the_whole_grid() {
    let s = 4;
    let mut cases = 0;
    for nb in [1usize, 2, 3, 7, 8] {
        for (pi, pattern) in PATTERNS.into_iter().enumerate() {
            let seed = (1000 * nb + 100 * pi) as u64;
            let (h, ov) = device(nb, s, pattern, seed);
            // Σ and Inj on every row of their block, or on one row a side.
            for (rows_l, rows_r) in [(None, None), (Some(0), Some(s - 1))] {
                // Injected columns: none, both sides, the right side un-injected.
                for (ml, mr) in [(0, 0), (2, 1), (3, 0)] {
                    for eta in [0.0, 1e-6] {
                        let z = c64(0.37, eta);
                        let one = Complex64::ONE;
                        let sys = ObcSystem {
                            a: Btd::es_minus_h(z, &ov, &h),
                            sigma_l: on_rows(s, s, seed + 11, c64(0.3, -0.2), rows_l).into(),
                            sigma_r: on_rows(s, s, seed + 12, c64(0.3, -0.2), rows_r).into(),
                            rhs_top: on_rows(s, ml, seed + 13, one, rows_l),
                            rhs_bottom: on_rows(s, mr, seed + 14, one, rows_r),
                        };
                        let case = format!(
                            "nb={nb} {pattern:?} rows={rows_l:?}/{rows_r:?} m={ml}+{mr} η={eta}"
                        );
                        let reference = zgesv(&sys.t_dense(), &sys.b_dense()).unwrap();
                        let pencil = EsMinusH { z, s: &ov, h: &h };
                        let support = pencil.coupling_support();
                        let ws = Workspace::new();
                        let (psi, flops) = solve(&pencil, &support, &sys, 2, &ws).unwrap();
                        let scale = reference.norm_max().max(1.0);
                        let err = psi.max_diff(&reference);
                        assert!(err < TOLERANCE * scale, "{case}: {err:.2e}");
                        // Same bits streamed or assembled, on the pencil's
                        // supports or the assembled blocks'.
                        let assembled = solve(&sys.a, &sys.a.coupling_support(), &sys, 2, &ws);
                        assert_eq!(assembled.unwrap().0, psi, "{case}");
                        // Same bits and count on one thread.
                        let inline = solve(&pencil, &support, &sys, 1, &ws).unwrap();
                        assert_eq!(inline, (psi.clone(), flops), "{case}");
                        // The count is the model, term by term.
                        let dims: Vec<_> = support.iter().map(CouplingSupport::dims).collect();
                        assert_eq!(flops, counts::two_front_solve(s, &dims, ml, mr), "{case}");
                        // Warm calls neither grow nor drain the pool.
                        let warm = (ws.pooled(), ws.fresh_allocations());
                        assert_eq!(solve(&pencil, &support, &sys, 2, &ws).unwrap().0, psi);
                        assert_eq!((ws.pooled(), ws.fresh_allocations()), warm, "{case}");
                        cases += 1;
                    }
                }
            }
        }
    }
    assert_eq!(cases, 5 * 4 * 2 * 3 * 2);
}

/// A chain of 48 × 48 blocks: from a dozen blocks on, each front is worth
/// a thread.
fn wide_system(nb: usize) -> ObcSystem {
    let s = 48;
    let (h, ov) = device(nb, s, Pattern::Full, 5);
    ObcSystem {
        a: Btd::es_minus_h(c64(0.2, 1e-6), &ov, &h),
        sigma_l: on_rows(s, s, 31, c64(0.3, -0.2), None).into(),
        sigma_r: on_rows(s, s, 32, c64(0.3, -0.2), Some(40)).into(),
        rhs_top: on_rows(s, 3, 33, Complex64::ONE, None),
        rhs_bottom: on_rows(s, 2, 34, Complex64::ONE, Some(40)),
    }
}

#[test]
fn fanned_out_fronts_give_the_inline_bits_and_flops() {
    // Sixteen dense 48 × 48 blocks: tens of MF a front, so the fronts go
    // to two threads. Under two pool worker guards — a sweep with every
    // core busy — the same call runs them one after the other on this
    // thread; so does `partitions = 1`. Same bits and the same count in a
    // thread-scoped bracket, which is the closed formula.
    let sys = wide_system(16);
    let support = sys.a.coupling_support();
    let ws = Workspace::new();
    let fanned = solve(&sys.a, &support, &sys, 2, &ws).unwrap();
    let busy = {
        let _busy = (rayon::enter_pool_worker(), rayon::enter_pool_worker());
        solve(&sys.a, &support, &sys, 2, &ws).unwrap()
    };
    assert_eq!(busy, fanned);
    assert_eq!(solve(&sys.a, &support, &sys, 1, &ws).unwrap(), fanned);
    // A cold pool changes nothing either.
    assert_eq!(solve(&sys.a, &support, &sys, 2, &Workspace::new()).unwrap(), fanned);
    let dims: Vec<_> = support.iter().map(CouplingSupport::dims).collect();
    let (_, front_r, front_l) = counts::two_front_cut(48, &dims, 3, 2);
    assert!(front_r.min(front_l) >= 8_000_000, "fronts too small to fan out: {front_r} {front_l}");
    assert_eq!(fanned.1, counts::two_front_solve(48, &dims, 3, 2));
    let reference = zgesv(&sys.t_dense(), &sys.b_dense()).unwrap();
    assert!(fanned.0.max_diff(&reference) < TOLERANCE * reference.norm_max().max(1.0));
}

#[test]
fn warm_calls_leave_the_pool_flat_on_long_chains() {
    // Inline and fanned out, every matrix buffer is taken and returned on
    // the calling thread: a warm call allocates nothing.
    for nb in [6usize, 16, 40] {
        let sys = wide_system(nb);
        let support = sys.a.coupling_support();
        let ws = Workspace::new();
        let first = solve(&sys.a, &support, &sys, 2, &ws).unwrap();
        solve(&sys.a, &support, &sys, 2, &ws).unwrap();
        let before = (ws.pooled(), ws.fresh_allocations());
        for _ in 0..5 {
            assert_eq!(solve(&sys.a, &support, &sys, 2, &ws).unwrap(), first);
        }
        assert_eq!((ws.pooled(), ws.fresh_allocations()), before, "nb={nb}");
    }
}

#[test]
fn poisoned_and_singular_chains_are_typed_errors() {
    let (nb, s) = (6, 4);
    let (h, ov) = device(nb, s, Pattern::Full, 9);
    let healthy = ObcSystem {
        a: Btd::es_minus_h(c64(0.2, 0.0), &ov, &h),
        sigma_l: on_rows(s, s, 1, c64(0.3, -0.2), None).into(),
        sigma_r: on_rows(s, s, 2, c64(0.3, -0.2), Some(1)).into(),
        rhs_top: on_rows(s, 2, 3, Complex64::ONE, None),
        rhs_bottom: on_rows(s, 1, 4, Complex64::ONE, Some(1)),
    };
    let ws = Workspace::new();
    let run = |sys: &ObcSystem| solve(&sys.a, &sys.a.coupling_support(), sys, 2, &ws);
    run(&healthy).unwrap();
    let warm = ws.pooled();
    let non_finite = |got: &Result<(ZMat, u64), SolveError>| matches!(got, Err(SolveError::NonFinite { solver: "two-front", count }) if *count > 0);
    // A poisoned pivot block is named by whichever front meets it; a
    // poisoned coupling reaches the next pivot block, the tip system or
    // the back-substitution.
    for poison in [f64::NAN, f64::INFINITY] {
        for block in 0..nb {
            let mut sys = healthy.clone();
            sys.a.diag[block][(1, 2)] = c64(poison, 0.0);
            let got = run(&sys);
            assert!(non_finite(&got), "block {block} poisoned with {poison}: {got:?}");
        }
        for pair in 0..nb - 1 {
            for upper in [true, false] {
                let mut sys = healthy.clone();
                let block = if upper { &mut sys.a.upper[pair] } else { &mut sys.a.lower[pair] };
                block[(0, 1)] = c64(poison, 0.0);
                let got = run(&sys);
                assert!(non_finite(&got), "pair {pair} upper={upper} with {poison}: {got:?}");
            }
        }
        for side in [0, 1] {
            let mut sys = healthy.clone();
            let sigma = if side == 0 { &mut sys.sigma_l } else { &mut sys.sigma_r };
            let mut dense = sigma.to_dense();
            dense[(1, 0)] = c64(poison, 0.0);
            *sigma = dense.into();
            let got = run(&sys);
            assert!(non_finite(&got), "Σ of side {side} with {poison}: {got:?}");
        }
    }
    // An exactly singular pivot block is a typed factorization error, at
    // either end and in the middle of either front.
    for block in 0..nb {
        let mut sys = healthy.clone();
        sys.a.diag[block] = match block {
            0 => sys.sigma_l.to_dense(),
            b if b == nb - 1 => sys.sigma_r.to_dense(),
            _ => ZMat::zeros(s, s),
        };
        for pair in [block.checked_sub(1), (block + 1 < nb).then_some(block)].into_iter().flatten()
        {
            sys.a.upper[pair] = ZMat::zeros(s, s);
            sys.a.lower[pair] = ZMat::zeros(s, s);
        }
        let got = run(&sys);
        assert!(matches!(got, Err(SolveError::Linalg(_))), "singular block {block}: {got:?}");
    }
    // Every failed call handed its buffers back.
    assert_eq!(ws.pooled(), warm);
    assert_eq!(run(&healthy).unwrap(), run(&healthy).unwrap());
}
