//! Property battery for the two-front Caroli kernel: every combination of
//! chain length, coupling-support pattern, self-energy representation per
//! side (and with it the broadening factor the kernel carries) and
//! broadening is checked against `tr[Γ_L·G·Γ_R·Gᴴ]` from the dense inverse,
//! the streamed pencil against the assembled matrix bit for bit, the
//! pencil streamed from its compact store of `S` and `H` against the dense
//! one bit for bit, and the fanned-out fronts against the same call run
//! inline.

use qtx_linalg::flops::{counts, fans_out};
use qtx_linalg::{c64, gemm, lu_inverse, qr_least_squares, Complex64, FlopScope, Op, ZMat};
use qtx_solver::{
    caroli_sweep, caroli_sweep_contacts, CaroliContact, ObcSystem, SolveError, Workspace,
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

/// How a contact's Σ reaches the kernel, and which exact broadening factor
/// goes with it.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Form {
    /// Dense Σ on a few rows: the factor its row support gives.
    RowSupport,
    /// Dense `Σ = X·U⁺` through one mode: the mode-thin factor `[Σ·Q | Q]`.
    ModeThin,
    /// Dense `Σ = U·Vᴴ` of rank 2 on every row, no modes: the row factor
    /// at full width.
    LowRank,
    /// Σ = 0: an empty factor.
    Zero,
}

const FORMS: [Form; 4] = [Form::RowSupport, Form::ModeThin, Form::LowRank, Form::Zero];

/// A contact in `form`: Σ and the outgoing modes it was assembled from
/// (only the mode-thin form has any).
fn contact(s: usize, seed: u64, form: Form) -> (ZMat, Option<ZMat>) {
    let scale = c64(0.3, -0.2);
    match form {
        Form::RowSupport => {
            let dense = ZMat::random(s, s, seed).scaled(scale);
            let sigma =
                ZMat::from_fn(
                    s,
                    s,
                    |r, c| {
                        if r % 2 == 0 {
                            dense[(r, c)]
                        } else {
                            Complex64::ZERO
                        }
                    },
                );
            (sigma, None)
        }
        Form::ModeThin => {
            // Σ = X·U⁺ on every row but the last, through one mode.
            let u = ZMat::random(s, 1, seed);
            let u_pinv = qr_least_squares(&u, &ZMat::identity(s));
            let mut x = ZMat::random(s, 1, seed + 1).scaled(scale);
            x[(s - 1, 0)] = Complex64::ZERO;
            (&x * &u_pinv, Some(u))
        }
        Form::LowRank => {
            let u = ZMat::random(s, 2, seed).scaled(scale);
            (&u * &ZMat::random(s, 2, seed + 1).adjoint(), None)
        }
        Form::Zero => (ZMat::zeros(s, s), None),
    }
}

fn gamma(sigma: &ZMat) -> ZMat {
    &sigma.scaled(Complex64::I) - &sigma.adjoint().scaled(Complex64::I)
}

/// `tr[Γ_L·G_{0,n−1}·Γ_R·G_{0,n−1}ᴴ]` from the dense inverse of `A − Σ`.
fn dense_trace(a: &Btd, sigma_l: &ZMat, sigma_r: &ZMat) -> f64 {
    let s = a.block_size();
    let sys = ObcSystem {
        a: a.clone(),
        sigma_l: sigma_l.clone(),
        sigma_r: sigma_r.clone(),
        rhs_top: ZMat::zeros(s, 0),
        rhs_bottom: ZMat::zeros(s, 0),
    };
    let g = lu_inverse(&sys.t_dense()).unwrap().block(0, sys.dim() - s, s, s);
    (&(&gamma(sigma_l) * &g) * &(&gamma(sigma_r) * &g.adjoint())).trace().re
}

/// The kernel on `chain` with each contact's thinner exact factor.
fn sweep<C: BlockChain + Sync>(
    chain: &C,
    support: &[CouplingSupport],
    left: &(ZMat, Option<ZMat>),
    right: &(ZMat, Option<ZMat>),
    ws: &Workspace,
) -> Result<f64, SolveError> {
    let p_l = broadening_factor_ws(&left.0, left.1.as_ref(), ws);
    let p_r = broadening_factor_ws(&right.0, right.1.as_ref(), ws);
    let t = caroli_sweep_contacts(
        chain,
        CaroliContact { sigma: &left.0, panel: &p_l },
        CaroliContact { sigma: &right.0, panel: &p_r },
        support,
        ws,
    );
    ws.recycle(p_l);
    ws.recycle(p_r);
    t
}

#[test]
fn two_front_kernel_matches_the_dense_trace_over_the_whole_grid() {
    let ws = Workspace::new();
    let s = 4;
    let mut cases = 0;
    for nb in [1usize, 2, 3, 7, 8] {
        for (pi, pattern) in [Pattern::Empty, Pattern::Full, Pattern::Asymmetric, Pattern::Varying]
            .into_iter()
            .enumerate()
        {
            let seed = (1000 * nb + 100 * pi) as u64;
            let (h, ov) = device(nb, s, pattern, seed);
            for (fl, form_l) in FORMS.into_iter().enumerate() {
                for (fr, form_r) in FORMS.into_iter().enumerate() {
                    let left = contact(s, seed + 11 + fl as u64, form_l);
                    let right = contact(s, seed + 31 + fr as u64, form_r);
                    for eta in [0.0, 1e-6] {
                        let z = c64(0.37, eta);
                        let a = Btd::es_minus_h(z, &ov, &h);
                        let pencil = EsMinusH::dense(z, &ov, &h);
                        let support = pencil.coupling_support();
                        let t = sweep(&pencil, &support, &left, &right, &ws).unwrap();
                        let reference = dense_trace(&a, &left.0, &right.0);
                        let case = format!("nb={nb} {pattern:?} {form_l:?}/{form_r:?} η={eta}");
                        assert!((t - reference).abs() < 1e-10, "{case}: {t} vs {reference}");
                        // Same bits whether A is streamed or assembled, on
                        // the pencil's supports or the assembled blocks'.
                        let assembled =
                            sweep(&a, &a.coupling_support(), &left, &right, &ws).unwrap();
                        assert_eq!(t, assembled, "{case}");
                        // Same bits from the compact store.
                        let store = PencilStore::build(&ov, &h, &support);
                        let stored = EsMinusH { store: Some(&store), ..pencil };
                        let from_store = sweep(&stored, &support, &left, &right, &ws).unwrap();
                        assert_eq!(t.to_bits(), from_store.to_bits(), "{case}");
                        // A mode-free Σ through `caroli_sweep` is this call.
                        if left.1.is_none() && right.1.is_none() {
                            let plain = caroli_sweep(&pencil, &left.0, &right.0, &support, &ws);
                            assert_eq!(plain.unwrap(), t, "{case}");
                        }
                        cases += 1;
                    }
                }
            }
        }
    }
    assert_eq!(cases, 5 * 4 * 16 * 2);
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
fn the_store_backed_pencil_gives_the_dense_pencils_bits() {
    let (s, ws) = (8, Workspace::new());
    for nb in [1usize, 2, 3, 7] {
        for (pi, pattern) in [Pattern::Empty, Pattern::Full, Pattern::Asymmetric, Pattern::Varying]
            .into_iter()
            .enumerate()
        {
            let seed = (2000 * nb + 100 * pi) as u64;
            let (h, ov) = banded_device(nb, s, pattern, seed);
            let left = contact(s, seed + 11, Form::ModeThin);
            let right = contact(s, seed + 31, Form::RowSupport);
            for (e, eta) in [(-0.4, 0.0), (0.37, 0.0), (0.37, 1e-6)] {
                let z = c64(e, eta);
                let case = format!("nb={nb} {pattern:?} z={z:?}");
                let dense = EsMinusH::dense(z, &ov, &h);
                let support = dense.coupling_support();
                let store = PencilStore::build(&ov, &h, &support);
                assert_eq!(store.diag_blocks_held(), nb, "{case}");
                let stored = EsMinusH { store: Some(&store), ..dense };
                let t = sweep(&dense, &support, &left, &right, &ws).unwrap();
                let from_store = sweep(&stored, &support, &left, &right, &ws).unwrap();
                assert_eq!(t.to_bits(), from_store.to_bits(), "{case}");
                let reference = dense_trace(&Btd::es_minus_h(z, &ov, &h), &left.0, &right.0);
                assert!((t - reference).abs() < 1e-10, "{case}: {t} vs {reference}");
            }
        }
    }
}

#[test]
fn the_mode_factor_is_the_thinner_exact_one() {
    let (s, ws) = (6, Workspace::new());
    let (sigma, modes) = contact(s, 9, Form::ModeThin);
    let by_rows = broadening_factor_ws(&sigma, None, &ws);
    let by_modes = broadening_factor_ws(&sigma, modes.as_ref(), &ws);
    assert_eq!((by_rows.cols(), by_modes.cols()), (2 * (s - 1), 2));
    // Both are exact factors of the same Γ = P·K·Pᴴ, K = [[0, iI], [−iI, 0]].
    let rebuilt = |p: &ZMat| {
        let k = p.cols() / 2;
        let pk = ZMat::from_fn(s, 2 * k, |i, j| {
            if j < k {
                -Complex64::I * p[(i, k + j)]
            } else {
                Complex64::I * p[(i, j - k)]
            }
        });
        let mut out = ZMat::zeros(s, s);
        gemm(Complex64::ONE, &pk, Op::None, p, Op::Adjoint, Complex64::ZERO, &mut out);
        out
    };
    assert!(rebuilt(&by_rows).max_diff(&gamma(&sigma)) < 1e-14);
    assert!(rebuilt(&by_modes).max_diff(&gamma(&sigma)) < 1e-14);
    // A mode set as wide as the rows (or wider) keeps the row factor, as
    // does an empty one.
    let wide = ZMat::random(s, s - 1, 3);
    assert_eq!(broadening_factor_ws(&sigma, Some(&wide), &ws), by_rows);
    assert_eq!(broadening_factor_ws(&sigma, Some(&ZMat::zeros(s, 0)), &ws), by_rows);
}

/// A chain of 48 × 48 blocks: from a dozen blocks on, each front is worth
/// a thread.
fn wide_chain(nb: usize) -> (Btd, [(ZMat, Option<ZMat>); 2]) {
    let s = 48;
    let (h, ov) = device(nb, s, Pattern::Full, 5);
    let a = Btd::es_minus_h(c64(0.2, 1e-6), &ov, &h);
    (a, [contact(s, 41, Form::RowSupport), contact(s, 42, Form::ModeThin)])
}

#[test]
fn fanned_out_fronts_give_the_inline_bits_and_flops() {
    // Sixteen dense 48 × 48 blocks: tens of MF a front, so the fronts go
    // to two threads. Under two pool worker guards — a sweep
    // with every core busy — the same call runs them one after the other
    // on this thread: same bits, and the same count in a thread-scoped
    // bracket, which is the closed formula.
    let (a, [left, right]) = wide_chain(16);
    let support = a.coupling_support();
    let ws = Workspace::new();
    let counted = |ws: &Workspace| {
        let scope = FlopScope::start();
        let t = sweep(&a, &support, &left, &right, ws).unwrap();
        (t.to_bits(), scope.elapsed())
    };
    let fanned = counted(&ws);
    let inline = {
        let _busy = (rayon::enter_pool_worker(), rayon::enter_pool_worker());
        counted(&ws)
    };
    assert_eq!(fanned, inline);
    // A cold pool changes nothing either.
    assert_eq!(counted(&Workspace::new()), fanned);
    let dims: Vec<_> = support.iter().map(CouplingSupport::dims).collect();
    let (wl, wr) = (2 * 24, 2);
    let (_, front_r, front_l) = counts::caroli_cut(48, &dims, wl, wr);
    assert!(fans_out(front_r.min(front_l)), "fronts too small to fan out: {front_r} {front_l}");
    // Building the mode factor is outside the kernel: one thin QR, its
    // explicit Q and Σ·Q.
    let panel = counts::zgeqrf(48, 1) + counts::zunmqr(48, 1, 1) + counts::zgemm(48, 1, 48);
    assert_eq!(fanned.1, counts::caroli_sweep(48, &dims, wl, wr) + panel);
}

#[test]
fn warm_calls_leave_the_pool_flat_whatever_the_length() {
    // Small enough to run on the calling thread, and large enough for the
    // fronts to fan out: either way every matrix buffer is taken and
    // returned on the calling thread, and how many there are does not grow
    // with the number of blocks.
    let mut populations = Vec::new();
    for nb in [6usize, 16, 40] {
        let (a, [left, right]) = wide_chain(nb);
        let support = a.coupling_support();
        let ws = Workspace::new();
        let first = sweep(&a, &support, &left, &right, &ws).unwrap();
        sweep(&a, &support, &left, &right, &ws).unwrap();
        let before = (ws.pooled(), ws.fresh_allocations());
        for _ in 0..10 {
            assert_eq!(sweep(&a, &support, &left, &right, &ws).unwrap(), first);
        }
        assert_eq!((ws.pooled(), ws.fresh_allocations()), before, "nb={nb}");
        populations.push(before);
    }
    // Two fronts of five buffers, two panels and the tip's handful (a front
    // of a single block needs fewer).
    assert_eq!(populations[1], populations[2], "{populations:?}");
    assert!(populations.iter().all(|p| p.0 <= 16), "{populations:?}");
}

#[test]
fn poisoned_and_singular_chains_are_typed_errors() {
    let (nb, s) = (6, 4);
    let (h, ov) = device(nb, s, Pattern::Full, 9);
    let healthy = Btd::es_minus_h(c64(0.2, 0.0), &ov, &h);
    let (left, right) = (contact(s, 1, Form::ModeThin), contact(s, 2, Form::RowSupport));
    let ws = Workspace::new();
    let run = |a: &Btd, left, right| sweep(a, &a.coupling_support(), left, right, &ws);
    run(&healthy, &left, &right).unwrap();
    let warm = ws.pooled();
    // A poisoned pivot block is named by whichever front meets it; a
    // poisoned coupling reaches the next pivot block or the tip system.
    for poison in [f64::NAN, f64::INFINITY] {
        for block in 0..nb {
            let mut a = healthy.clone();
            a.diag[block][(1, 2)] = c64(poison, 0.0);
            match run(&a, &left, &right) {
                Err(SolveError::NonFinite { solver: "caroli-sweep", count }) => assert!(count > 0),
                other => panic!("block {block} poisoned with {poison}: {other:?}"),
            }
        }
        for pair in 0..nb - 1 {
            for upper in [true, false] {
                let mut a = healthy.clone();
                let block = if upper { &mut a.upper[pair] } else { &mut a.lower[pair] };
                block[(0, 1)] = c64(poison, 0.0);
                let got = run(&a, &left, &right);
                assert!(
                    matches!(got, Err(SolveError::NonFinite { solver: "caroli-sweep", .. })),
                    "pair {pair} upper={upper} poisoned with {poison}: {got:?}"
                );
            }
        }
    }
    let mut poisoned_left = left.clone();
    poisoned_left.0[(2, 0)] = c64(f64::NAN, 0.0);
    let got = run(&healthy, &poisoned_left, &right);
    assert!(matches!(got, Err(SolveError::NonFinite { solver: "caroli-sweep", .. })), "{got:?}");
    // An exactly singular pivot block is a typed factorization error, at
    // either end and at the tip block of either front.
    for block in 0..nb {
        let mut a = healthy.clone();
        a.diag[block] = match block {
            0 => left.0.clone(),
            b if b == nb - 1 => right.0.clone(),
            _ => ZMat::zeros(s, s),
        };
        for pair in [block.checked_sub(1), (block + 1 < nb).then_some(block)].into_iter().flatten()
        {
            a.upper[pair] = ZMat::zeros(s, s);
            a.lower[pair] = ZMat::zeros(s, s);
        }
        let got = run(&a, &left, &right);
        assert!(matches!(got, Err(SolveError::Linalg(_))), "singular block {block}: {got:?}");
    }
    // Every failed call handed its buffers back.
    assert_eq!(ws.pooled(), warm);
    assert_eq!(run(&healthy, &left, &right).unwrap(), run(&healthy, &left, &right).unwrap());
}
