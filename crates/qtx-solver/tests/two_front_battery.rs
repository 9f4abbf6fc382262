//! Property battery for the two-front wave-function solve: every
//! combination of chain length, coupling-support pattern, contact rows,
//! injection widths (none at all, both sides, one side un-injected) and
//! broadening is checked against a dense `zgesv` of the assembled system;
//! each case also holds the streamed pencil to the assembled matrix bit for
//! bit, one thread to two in bits and counted flops, the count to
//! `counts::two_front_solve`, and warm calls to a flat pool. The pencil
//! streamed from its compact store of `S` and `H` gives the dense pencil's
//! bits, on blocks the store holds and on blocks it leaves dense. A real
//! pencil takes the Σ-late fronts (`Pencil::Real`): the same grid holds
//! them to the dense solve and their count to
//! `counts::two_front_late_solve`. The Σ-late corner a transmission-only
//! point runs on a real pencil (`two_front_corner`) is held on the same
//! real grid to the Caroli kernel and to the dense trace, its count to
//! `counts::two_front_late_corner`; on a complex pencil it is the Caroli
//! kernel's bits.

use qtx_linalg::flops::{counts, fans_out};
use qtx_linalg::{c64, lu_inverse, zgesv, Complex64, FlopScope, ZMat};
use qtx_solver::{
    caroli_sweep_contacts, two_front_corner, two_front_solve, BoundaryTerms, CaroliContact,
    ObcSystem, Pencil, SolveError, Workspace,
};
use qtx_sparse::{broadening_factor_ws, BlockChain, Btd, CouplingSupport, EsMinusH, PencilStore};

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

/// [`device`] with every imaginary part dropped: a real `S` and `H`.
fn real_device(nb: usize, s: usize, pattern: Pattern, seed: u64) -> (Btd, Btd) {
    let (mut h, mut ov) = device(nb, s, pattern, seed);
    for m in [&mut h, &mut ov] {
        for b in m.diag.iter_mut().chain(&mut m.upper).chain(&mut m.lower) {
            b.as_mut_slice().iter_mut().for_each(|z| *z = c64(z.re, 0.0));
        }
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
    solve_as(Pencil::Complex, chain, support, sys, partitions, ws)
}

/// [`solve`] in the arithmetic `pencil` names.
fn solve_as<C: BlockChain + Sync>(
    pencil: Pencil,
    chain: &C,
    support: &[CouplingSupport],
    sys: &ObcSystem,
    partitions: usize,
    ws: &Workspace,
) -> Result<(ZMat, u64), SolveError> {
    let boundary = BoundaryTerms {
        sigma_l: &sys.sigma_l,
        sigma_r: &sys.sigma_r,
        rhs_top: &sys.rhs_top,
        rhs_bottom: &sys.rhs_bottom,
    };
    let scope = FlopScope::start();
    let psi = two_front_solve(chain, support, &boundary, pencil, partitions, ws)?;
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
                            sigma_l: on_rows(s, s, seed + 11, c64(0.3, -0.2), rows_l),
                            sigma_r: on_rows(s, s, seed + 12, c64(0.3, -0.2), rows_r),
                            rhs_top: on_rows(s, ml, seed + 13, one, rows_l),
                            rhs_bottom: on_rows(s, mr, seed + 14, one, rows_r),
                        };
                        let case = format!(
                            "nb={nb} {pattern:?} rows={rows_l:?}/{rows_r:?} m={ml}+{mr} η={eta}"
                        );
                        let reference = zgesv(&sys.t_dense(), &sys.b_dense()).unwrap();
                        let pencil = EsMinusH::dense(z, &ov, &h);
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
                        // Same bits and count from the compact store.
                        let store = PencilStore::build(&ov, &h, &support);
                        let stored = EsMinusH { store: Some(&store), ..pencil };
                        let from_store = solve(&stored, &support, &sys, 2, &ws).unwrap();
                        assert_eq!(from_store, (psi.clone(), flops), "{case}");
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

#[test]
fn real_pencils_take_sigma_late_fronts_over_the_whole_grid() {
    let s = 4;
    let mut cases = 0;
    for nb in [1usize, 2, 3, 7, 8] {
        for (pi, pattern) in PATTERNS.into_iter().enumerate() {
            let seed = (3000 * nb + 100 * pi) as u64;
            let (h, ov) = real_device(nb, s, pattern, seed);
            for (rows_l, rows_r) in [(None, None), (Some(0), Some(s - 1))] {
                for (ml, mr) in [(0, 0), (2, 1), (3, 0), (0, 2)] {
                    for e in [-0.4, 0.37] {
                        let z = c64(e, 0.0);
                        let one = Complex64::ONE;
                        let sys = ObcSystem {
                            a: Btd::es_minus_h(z, &ov, &h),
                            sigma_l: on_rows(s, s, seed + 11, c64(0.3, -0.2), rows_l),
                            sigma_r: on_rows(s, s, seed + 12, c64(0.3, -0.2), rows_r),
                            rhs_top: on_rows(s, ml, seed + 13, one, rows_l),
                            rhs_bottom: on_rows(s, mr, seed + 14, one, rows_r),
                        };
                        let case = format!(
                            "nb={nb} {pattern:?} rows={rows_l:?}/{rows_r:?} m={ml}+{mr} E={e}"
                        );
                        let reference = zgesv(&sys.t_dense(), &sys.b_dense()).unwrap();
                        let pencil = EsMinusH::dense(z, &ov, &h);
                        let support = pencil.coupling_support();
                        let ws = Workspace::new();
                        let real = Pencil::Real;
                        let (psi, flops) = solve_as(real, &pencil, &support, &sys, 2, &ws).unwrap();
                        let scale = reference.norm_max().max(1.0);
                        let err = psi.max_diff(&reference);
                        assert!(err < TOLERANCE * scale, "{case}: {err:.2e}");
                        let assembled =
                            solve_as(real, &sys.a, &sys.a.coupling_support(), &sys, 2, &ws);
                        assert_eq!(assembled.unwrap().0, psi, "{case}");
                        let store = PencilStore::build(&ov, &h, &support);
                        let stored = EsMinusH { store: Some(&store), ..pencil };
                        let from_store = solve_as(real, &stored, &support, &sys, 2, &ws).unwrap();
                        assert_eq!(from_store, (psi.clone(), flops), "{case}");
                        let inline = solve_as(real, &pencil, &support, &sys, 1, &ws).unwrap();
                        assert_eq!(inline, (psi.clone(), flops), "{case}");
                        let dims: Vec<_> = support.iter().map(CouplingSupport::dims).collect();
                        assert_eq!(flops, counts::two_front_late_solve(s, &dims, ml, mr), "{case}");
                        // The complex fronts on the same chain agree to roundoff.
                        let complex = solve(&pencil, &support, &sys, 2, &ws).unwrap().0;
                        assert!(complex.max_diff(&psi) < TOLERANCE * scale, "{case}");
                        let warm = (ws.pooled(), ws.fresh_allocations());
                        assert_eq!(solve_as(real, &pencil, &support, &sys, 2, &ws).unwrap().0, psi);
                        assert_eq!((ws.pooled(), ws.fresh_allocations()), warm, "{case}");
                        cases += 1;
                    }
                }
            }
        }
    }
    assert_eq!(cases, 5 * 4 * 2 * 4 * 2);
}

/// `tr[Γ_L·G_{0,n−1}·Γ_R·G_{0,n−1}ᴴ]` from the dense inverse of `A − Σ`.
fn dense_trace(sys: &ObcSystem) -> f64 {
    let s = sys.block_size();
    let g = lu_inverse(&sys.t_dense()).unwrap().block(0, sys.dim() - s, s, s);
    let gamma = |sig: &ZMat| &sig.scaled(Complex64::I) - &sig.adjoint().scaled(Complex64::I);
    (&(&gamma(&sys.sigma_l) * &g) * &(&gamma(&sys.sigma_r) * &g.adjoint())).trace().re
}

/// The corner (or, for `None`, the Caroli kernel) on `chain` with each
/// contact's row-support broadening factor, and the operations it counted
/// on this thread.
fn transmission<C: BlockChain + Sync>(
    pencil: Option<Pencil>,
    chain: &C,
    support: &[CouplingSupport],
    sys: &ObcSystem,
    ws: &Workspace,
) -> Result<(f64, u64), SolveError> {
    let p_l = broadening_factor_ws(&sys.sigma_l, None, ws);
    let p_r = broadening_factor_ws(&sys.sigma_r, None, ws);
    let left = CaroliContact { sigma: &sys.sigma_l, panel: &p_l };
    let right = CaroliContact { sigma: &sys.sigma_r, panel: &p_r };
    let scope = FlopScope::start();
    let t = match pencil {
        Some(pencil) => two_front_corner(chain, left, right, support, pencil, ws),
        None => caroli_sweep_contacts(chain, left, right, support, ws),
    };
    let counted = scope.elapsed();
    ws.recycle(p_l);
    ws.recycle(p_r);
    Ok((t?, counted))
}

/// The widths of `sys`'s row-support broadening factors.
fn panel_widths(sys: &ObcSystem) -> (usize, usize) {
    let ws = Workspace::new();
    let [wl, wr] =
        [&sys.sigma_l, &sys.sigma_r].map(|sigma| broadening_factor_ws(sigma, None, &ws).cols());
    (wl, wr)
}

#[test]
fn the_corner_matches_caroli_and_the_dense_trace_over_the_real_grid() {
    let s = 4;
    let mut cases = 0;
    for nb in [1usize, 2, 3, 7, 8] {
        for (pi, pattern) in PATTERNS.into_iter().enumerate() {
            let seed = (4000 * nb + 100 * pi) as u64;
            let (h, ov) = real_device(nb, s, pattern, seed);
            for (rows_l, rows_r) in [(None, None), (Some(0), Some(s - 1)), (Some(1), None)] {
                for e in [-0.4, 0.37] {
                    let z = c64(e, 0.0);
                    let sys = ObcSystem {
                        a: Btd::es_minus_h(z, &ov, &h),
                        sigma_l: on_rows(s, s, seed + 11, c64(0.3, -0.2), rows_l),
                        sigma_r: on_rows(s, s, seed + 12, c64(0.3, -0.2), rows_r),
                        rhs_top: ZMat::zeros(s, 0),
                        rhs_bottom: ZMat::zeros(s, 0),
                    };
                    let case = format!("nb={nb} {pattern:?} rows={rows_l:?}/{rows_r:?} E={e}");
                    let pencil = EsMinusH::dense(z, &ov, &h);
                    let support = pencil.coupling_support();
                    let ws = Workspace::new();
                    let real = Some(Pencil::Real);
                    let (t, flops) = transmission(real, &pencil, &support, &sys, &ws).unwrap();
                    let reference = dense_trace(&sys);
                    let scale = reference.abs().max(1.0);
                    assert!(
                        (t - reference).abs() < TOLERANCE * scale,
                        "{case}: {t} vs {reference}"
                    );
                    let caroli = transmission(None, &pencil, &support, &sys, &ws).unwrap().0;
                    assert!((t - caroli).abs() < TOLERANCE * scale, "{case}: {t} vs {caroli}");
                    // The count is the model, term by term (one block: Caroli's).
                    let dims: Vec<_> = support.iter().map(CouplingSupport::dims).collect();
                    let (wl, wr) = panel_widths(&sys);
                    let model = counts::two_front_late_corner(s, &dims, wl, wr);
                    assert_eq!(flops, model, "{case}");
                    // Streamed, assembled or from the store: the same bits.
                    let assembled =
                        transmission(real, &sys.a, &sys.a.coupling_support(), &sys, &ws).unwrap();
                    assert_eq!(assembled, (t, flops), "{case}");
                    let store = PencilStore::build(&ov, &h, &support);
                    let stored = EsMinusH { store: Some(&store), ..pencil };
                    let from_store = transmission(real, &stored, &support, &sys, &ws).unwrap();
                    assert_eq!(from_store, (t, flops), "{case}");
                    // A complex pencil is the Caroli kernel, bit for bit.
                    let complex =
                        transmission(Some(Pencil::Complex), &pencil, &support, &sys, &ws).unwrap();
                    assert_eq!(complex.0.to_bits(), caroli.to_bits(), "{case}");
                    // Warm calls neither grow nor drain the pool.
                    let warm = (ws.pooled(), ws.fresh_allocations());
                    assert_eq!(transmission(real, &pencil, &support, &sys, &ws).unwrap().0, t);
                    assert_eq!((ws.pooled(), ws.fresh_allocations()), warm, "{case}");
                    cases += 1;
                }
            }
        }
    }
    assert_eq!(cases, 5 * 4 * 3 * 2);
}

#[test]
fn fanned_out_corner_sides_give_the_inline_bits_and_flops() {
    // Sixteen dense 48 × 48 real blocks: each side is worth a thread. Under
    // two pool worker guards the same call runs them on this thread.
    let sys = ObcSystem { rhs_top: ZMat::zeros(48, 0), ..wide_real_system(16) };
    let support = sys.a.coupling_support();
    let ws = Workspace::new();
    let real = Some(Pencil::Real);
    let fanned = transmission(real, &sys.a, &support, &sys, &ws).unwrap();
    let busy = {
        let _busy = (rayon::enter_pool_worker(), rayon::enter_pool_worker());
        transmission(real, &sys.a, &support, &sys, &ws).unwrap()
    };
    assert_eq!(busy, fanned);
    assert_eq!(transmission(real, &sys.a, &support, &sys, &Workspace::new()).unwrap(), fanned);
    let dims: Vec<_> = support.iter().map(CouplingSupport::dims).collect();
    let (wl, wr) = panel_widths(&sys);
    let (_, side_r, side_l) = counts::two_front_late_cut(48, &dims, 0, wr);
    assert!(fans_out(side_r.min(side_l)), "sides too small to fan out: {side_r} {side_l}");
    assert_eq!(fanned.1, counts::two_front_late_corner(48, &dims, wl, wr));
    let reference = dense_trace(&sys);
    assert!((fanned.0 - reference).abs() < TOLERANCE * reference.abs().max(1.0));
    // Warm calls allocate nothing.
    let before = (ws.pooled(), ws.fresh_allocations());
    for _ in 0..3 {
        assert_eq!(transmission(real, &sys.a, &support, &sys, &ws).unwrap(), fanned);
    }
    assert_eq!((ws.pooled(), ws.fresh_allocations()), before);
}

#[test]
fn a_refused_real_pivot_leaves_the_corner_to_caroli() {
    // A real chain whose block at the cut is singular to rounding: it is
    // the first pivot of one Σ-late side, a bare block, which the side
    // refuses; the corner is then the Caroli kernel's result, bit for bit.
    let (nb, s) = (6, 4);
    let (h, ov) = real_device(nb, s, Pattern::Full, 9);
    let healthy = ObcSystem {
        a: Btd::es_minus_h(c64(0.2, 0.0), &ov, &h),
        sigma_l: on_rows(s, s, 1, c64(0.3, -0.2), None),
        sigma_r: on_rows(s, s, 2, c64(0.3, -0.2), Some(1)),
        rhs_top: ZMat::zeros(s, 0),
        rhs_bottom: ZMat::zeros(s, 0),
    };
    let ws = Workspace::new();
    let run = |sys: &ObcSystem, pencil| {
        transmission(pencil, &sys.a, &sys.a.coupling_support(), sys, &ws).map(|(t, _)| t.to_bits())
    };
    let dims: Vec<_> = healthy.a.coupling_support().iter().map(CouplingSupport::dims).collect();
    let (_, wr) = panel_widths(&healthy);
    let c = counts::two_front_late_cut(s, &dims, 0, wr).0;
    for block in [c, c + 1] {
        // Rank one: singular to rounding, which pivoted LU survives but
        // the real front must refuse.
        let mut sys = healthy.clone();
        let u = ZMat::random(s, 1, 40 + block as u64);
        let v = ZMat::random(s, 1, 50 + block as u64);
        let mut d = &u * &v.adjoint();
        d.as_mut_slice().iter_mut().for_each(|z| *z = c64(z.re, 0.0));
        sys.a.diag[block] = d;
        let caroli = run(&sys, None).unwrap();
        assert_eq!(run(&sys, Some(Pencil::Real)).unwrap(), caroli, "block {block}");
        // The healthy chain's corner is not the Caroli bits: the fallback
        // above is what made them equal.
        assert_ne!(run(&healthy, Some(Pencil::Real)).unwrap(), run(&healthy, None).unwrap());
    }
    // A poisoned block is named by the Caroli kernel the corner falls to.
    let mut sys = healthy.clone();
    sys.a.diag[2][(1, 2)] = c64(f64::NAN, 0.0);
    let got = run(&sys, Some(Pencil::Real));
    assert!(matches!(got, Err(SolveError::NonFinite { solver: "caroli-sweep", .. })), "{got:?}");
}

/// `device` with its diagonal blocks cut to a band of three diagonals, a
/// third of each block: blocks the store holds, with `-0.0` entries in `S`
/// off the band.
fn banded_device(nb: usize, s: usize, pattern: Pattern, seed: u64) -> (Btd, Btd) {
    let (mut h, mut ov) = device(nb, s, pattern, seed);
    for (hd, sd) in h.diag.iter_mut().zip(&mut ov.diag) {
        for c in 0..s {
            for r in (0..s).filter(|r| r.abs_diff(c) > 1) {
                hd[(r, c)] = Complex64::ZERO;
                sd[(r, c)] = c64(-0.0, if (r + c) % 2 == 0 { -0.0 } else { 0.0 });
            }
        }
    }
    (h, ov)
}

#[test]
fn the_store_backed_pencil_solves_in_the_dense_pencils_bits() {
    let s = 8;
    let ws = Workspace::new();
    for nb in [1usize, 2, 3, 7] {
        for (pi, pattern) in PATTERNS.into_iter().enumerate() {
            let seed = (2000 * nb + 100 * pi) as u64;
            let (h, ov) = banded_device(nb, s, pattern, seed);
            for (e, eta) in [(-0.4, 0.0), (0.37, 0.0), (0.37, 1e-6)] {
                let z = c64(e, eta);
                let sys = ObcSystem {
                    a: Btd::es_minus_h(z, &ov, &h),
                    sigma_l: on_rows(s, s, seed + 11, c64(0.3, -0.2), Some(0)),
                    sigma_r: on_rows(s, s, seed + 12, c64(0.3, -0.2), None),
                    rhs_top: on_rows(s, 2, seed + 13, Complex64::ONE, Some(0)),
                    rhs_bottom: on_rows(s, 1, seed + 14, Complex64::ONE, None),
                };
                let case = format!("nb={nb} {pattern:?} z={z:?}");
                let dense = EsMinusH::dense(z, &ov, &h);
                let support = dense.coupling_support();
                let store = PencilStore::build(&ov, &h, &support);
                assert_eq!(store.diag_blocks_held(), nb, "{case}");
                let stored = EsMinusH { store: Some(&store), ..dense };
                let want = solve(&dense, &support, &sys, 2, &ws).unwrap();
                assert_eq!(solve(&stored, &support, &sys, 2, &ws).unwrap(), want, "{case}");
                assert_eq!(solve(&stored, &support, &sys, 1, &ws).unwrap(), want, "{case}");
                let reference = zgesv(&sys.t_dense(), &sys.b_dense()).unwrap();
                let err = want.0.max_diff(&reference);
                assert!(err < TOLERANCE * reference.norm_max().max(1.0), "{case}: {err:.2e}");
            }
        }
    }
}

/// A chain of 48 × 48 blocks: from a dozen blocks on, each front is worth
/// a thread.
fn wide_system(nb: usize) -> ObcSystem {
    let s = 48;
    let (h, ov) = device(nb, s, Pattern::Full, 5);
    ObcSystem {
        a: Btd::es_minus_h(c64(0.2, 1e-6), &ov, &h),
        sigma_l: on_rows(s, s, 31, c64(0.3, -0.2), None),
        sigma_r: on_rows(s, s, 32, c64(0.3, -0.2), Some(40)),
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
    assert!(fans_out(front_r.min(front_l)), "fronts too small to fan out: {front_r} {front_l}");
    assert_eq!(fanned.1, counts::two_front_solve(48, &dims, 3, 2));
    let reference = zgesv(&sys.t_dense(), &sys.b_dense()).unwrap();
    assert!(fanned.0.max_diff(&reference) < TOLERANCE * reference.norm_max().max(1.0));
}

/// [`wide_system`] on a real chain at a real energy.
fn wide_real_system(nb: usize) -> ObcSystem {
    let s = 48;
    let (h, ov) = real_device(nb, s, Pattern::Full, 5);
    ObcSystem { a: Btd::es_minus_h(c64(0.2, 0.0), &ov, &h), ..wide_system(1) }
}

#[test]
fn fanned_out_real_fronts_give_the_inline_bits_and_flops() {
    let sys = wide_real_system(16);
    let support = sys.a.coupling_support();
    let ws = Workspace::new();
    let real = Pencil::Real;
    let fanned = solve_as(real, &sys.a, &support, &sys, 2, &ws).unwrap();
    let busy = {
        let _busy = (rayon::enter_pool_worker(), rayon::enter_pool_worker());
        solve_as(real, &sys.a, &support, &sys, 2, &ws).unwrap()
    };
    assert_eq!(busy, fanned);
    assert_eq!(solve_as(real, &sys.a, &support, &sys, 1, &ws).unwrap(), fanned);
    assert_eq!(solve_as(real, &sys.a, &support, &sys, 2, &Workspace::new()).unwrap(), fanned);
    let dims: Vec<_> = support.iter().map(CouplingSupport::dims).collect();
    let (_, side_r, side_l) = counts::two_front_late_cut(48, &dims, 3, 2);
    assert!(fans_out(side_r.min(side_l)), "sides too small to fan out: {side_r} {side_l}");
    assert_eq!(fanned.1, counts::two_front_late_solve(48, &dims, 3, 2));
    let reference = zgesv(&sys.t_dense(), &sys.b_dense()).unwrap();
    assert!(fanned.0.max_diff(&reference) < TOLERANCE * reference.norm_max().max(1.0));
    // Warm calls allocate nothing.
    let before = (ws.pooled(), ws.fresh_allocations());
    for _ in 0..3 {
        assert_eq!(solve_as(real, &sys.a, &support, &sys, 2, &ws).unwrap(), fanned);
    }
    assert_eq!((ws.pooled(), ws.fresh_allocations()), before);
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
    // The complex fronts on a complex chain, the Σ-late ones on a real one.
    let (nb, s) = (6, 4);
    for (pencil, build) in [(Pencil::Complex, device as Device), (Pencil::Real, real_device)] {
        let (h, ov) = build(nb, s, Pattern::Full, 9);
        let mut healthy = ObcSystem {
            a: Btd::es_minus_h(c64(0.2, 0.0), &ov, &h),
            sigma_l: on_rows(s, s, 1, c64(0.3, -0.2), None),
            sigma_r: on_rows(s, s, 2, c64(0.3, -0.2), Some(1)),
            rhs_top: on_rows(s, 2, 3, Complex64::ONE, None),
            rhs_bottom: on_rows(s, 1, 4, Complex64::ONE, Some(1)),
        };
        if pencil == Pencil::Real {
            // A real Σ, so that a contact block equal to it stays real.
            for sigma in [&mut healthy.sigma_l, &mut healthy.sigma_r] {
                sigma.as_mut_slice().iter_mut().for_each(|z| *z = c64(z.re, 0.0));
            }
        }
        poisoned_and_singular_chains_fail_typed(pencil, &healthy, nb, s);
    }
}

/// A chain builder: [`device`] or [`real_device`].
type Device = fn(usize, usize, Pattern, u64) -> (Btd, Btd);

fn poisoned_and_singular_chains_fail_typed(
    pencil: Pencil,
    healthy: &ObcSystem,
    nb: usize,
    s: usize,
) {
    let ws = Workspace::new();
    let run = |sys: &ObcSystem| solve_as(pencil, &sys.a, &sys.a.coupling_support(), sys, 2, &ws);
    run(healthy).unwrap();
    // A failed Σ-late solve is redone by the complex fronts: warm their
    // buffers too.
    solve_as(Pencil::Complex, &healthy.a, &healthy.a.coupling_support(), healthy, 2, &ws).unwrap();
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
            sigma[(1, 0)] = c64(poison, 0.0);
            let got = run(&sys);
            assert!(non_finite(&got), "Σ of side {side} with {poison}: {got:?}");
        }
    }
    // An exactly singular pivot block is a typed factorization error, at
    // either end and in the middle of either front.
    for block in 0..nb {
        let mut sys = healthy.clone();
        sys.a.diag[block] = match block {
            0 => sys.sigma_l.clone(),
            b if b == nb - 1 => sys.sigma_r.clone(),
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
    assert_eq!(ws.pooled(), warm, "{pencil:?}");
    assert_eq!(run(healthy).unwrap(), run(healthy).unwrap());
}
