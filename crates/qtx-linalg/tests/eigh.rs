//! `eigh` / `eigh_generalized` against the general solver.
//!
//! Random Hermitian-definite pencils at orders on both sides of the
//! Cholesky's and the back-transformation's 32-wide panels and of the
//! tridiagonalization's 32-wide block columns: the eigenvalues
//! are `eig_generalized`'s, each pair satisfies `H·x = λ·S·x`, the vectors
//! are `S`-orthonormal, and an indefinite `S` is a typed error.

use proptest::prelude::*;
use qtx_linalg::{c64, eig_generalized, eigh, eigh_generalized, LinalgError, Vectors, ZMat};

/// `H` Hermitian with entries of order one, `S = I + B·Bᴴ/(4n)` Hermitian
/// positive definite with a condition number of a few.
fn pencil(n: usize, seed: u64) -> (ZMat, ZMat) {
    let mut h = ZMat::random(n, n, seed);
    h.hermitianize();
    let b = ZMat::random(n, n, seed + 1);
    let mut s = (&b * &b.adjoint()).scaled(c64(0.25 / n as f64, 0.0));
    for i in 0..n {
        s[(i, i)] += c64(1.0, 0.0);
    }
    s.hermitianize();
    (h, s)
}

fn check_pencil(n: usize, seed: u64) {
    let (h, s) = pencil(n, seed);
    let scale = h.norm_max().max(1.0) * n as f64;
    let dec = eigh_generalized(&h, &s, Vectors::Compute).unwrap();
    assert_eq!(dec.values.len(), n);
    assert!(dec.values.windows(2).all(|w| w[0] <= w[1]), "n = {n}: not ascending");
    // The general solver's eigenvalues, sorted by real part.
    let general = eig_generalized(&h, &s).unwrap();
    let mut reference: Vec<f64> = general.values.iter().map(|z| z.re).collect();
    reference.sort_by(f64::total_cmp);
    for (got, want) in dec.values.iter().zip(&reference) {
        assert!((got - want).abs() < 1e-12 * scale, "n = {n}, seed {seed}: {got} vs {want}");
    }
    // The same values without vectors, bit for bit: the QL iteration does
    // not depend on whether rotations are accumulated.
    let values_only = eigh_generalized(&h, &s, Vectors::Skip).unwrap();
    assert!(values_only.vectors.is_none());
    assert_eq!(values_only.values, dec.values, "n = {n}: values moved with the job");
    // ‖H·x − λ·S·x‖ and XᴴSX = I.
    let x = dec.vectors.unwrap();
    let hx = &h * &x;
    let sx = &s * &x;
    for (k, &lam) in dec.values.iter().enumerate() {
        let r = hx
            .col(k)
            .iter()
            .zip(sx.col(k))
            .map(|(a, b)| (*a - b.scale(lam)).abs())
            .fold(0.0, f64::max);
        assert!(r < 1e-12 * scale, "n = {n}, seed {seed}: residual {r:.2e} at λ = {lam}");
    }
    let gram = &x.adjoint() * &sx;
    let defect = gram.max_diff(&ZMat::identity(n));
    assert!(defect < 1e-12 * n as f64, "n = {n}, seed {seed}: XᴴSX − I = {defect:.2e}");
}

#[test]
fn generalized_pencils_across_the_panel_crossover() {
    for (n, seed) in [(1usize, 1u64), (2, 2), (7, 3), (48, 4), (90, 5), (130, 6)] {
        check_pencil(n, seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn random_pencils_match_the_general_solver(n in 1usize..40, seed in 0u64..1_000_000) {
        check_pencil(n, seed);
    }
}

#[test]
fn standard_problem_is_unitary_and_ascending() {
    for n in [1usize, 3, 64, 150] {
        let mut a = ZMat::random(n, n, 90 + n as u64);
        a.hermitianize();
        let dec = eigh(&a, Vectors::Compute).unwrap();
        let x = dec.vectors.unwrap();
        let defect = (&x.adjoint() * &x).max_diff(&ZMat::identity(n));
        assert!(defect < 1e-12 * n as f64, "n = {n}: XᴴX − I = {defect:.2e}");
        let lam = ZMat::from_diag(&dec.values.iter().map(|&v| c64(v, 0.0)).collect::<Vec<_>>());
        let back = &(&x * &lam) * &x.adjoint();
        assert!(back.max_diff(&a) < 1e-12 * a.norm_max() * n as f64, "n = {n}");
        assert!(dec.values.windows(2).all(|w| w[0] <= w[1]));
    }
}

#[test]
fn only_the_lower_triangles_are_read() {
    let (h, s) = pencil(33, 17);
    let (mut h_lower, mut s_lower) = (h.clone(), s.clone());
    for j in 0..33 {
        for i in 0..j {
            s_lower[(i, j)] = c64(f64::NAN, 7.0);
            h_lower[(i, j)] = c64(f64::NAN, -3.0);
        }
    }
    let want = eigh(&h, Vectors::Skip).unwrap().values;
    assert_eq!(eigh(&h_lower, Vectors::Skip).unwrap().values, want);
    // The generalized form reads all of H (two trsms) but only S's lower
    // triangle.
    let want = eigh_generalized(&h, &s, Vectors::Skip).unwrap().values;
    assert_eq!(eigh_generalized(&h, &s_lower, Vectors::Skip).unwrap().values, want);
}

#[test]
fn an_indefinite_overlap_is_a_typed_error() {
    for n in [1usize, 5, 40, 100] {
        let (h, mut s) = pencil(n, 40 + n as u64);
        // A negative direction at the last index: the first failing pivot.
        s[(n - 1, n - 1)] = c64(-5.0, 0.0);
        match eigh_generalized(&h, &s, Vectors::Compute) {
            Err(LinalgError::NotPositiveDefinite { index, pivot }) => {
                assert_eq!(index, n - 1, "n = {n}");
                assert!(pivot < 0.0, "n = {n}: {pivot}");
            }
            other => panic!("n = {n}: expected NotPositiveDefinite, got {other:?}"),
        }
    }
    let mut nan = ZMat::identity(3);
    nan[(1, 1)] = c64(f64::NAN, 0.0);
    let err = eigh_generalized(&ZMat::identity(3), &nan, Vectors::Skip).unwrap_err();
    assert!(matches!(err, LinalgError::NotPositiveDefinite { index: 1, .. }), "{err:?}");
    // Zero is not positive either.
    let err = eigh_generalized(&ZMat::identity(2), &ZMat::zeros(2, 2), Vectors::Skip);
    assert!(matches!(err, Err(LinalgError::NotPositiveDefinite { index: 0, .. })));
}
