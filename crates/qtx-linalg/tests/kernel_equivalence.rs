//! Kernel-equivalence battery: every microkernel variant the host can run
//! must agree with the scalar baseline on the full gemm surface.
//!
//! The comparison is run at the gemm level (not just the raw tile) so
//! packing, edge-tile handling and the α/β write-back are covered too:
//! all 9 `Op` combinations, ragged shapes (m, n, k not multiples of any
//! variant's MR/NR or of the 2× k-unroll), 0/1/odd dimensions, strided
//! sub-view operands and outputs inside poisoned storage, the α/β edge
//! cases (0, 1, complex) and the product shapes the compact-WY `T`
//! products, `zherk` and `trsm` issue. Each variant runs through [`gemm_with`] — the library's
//! own packed path with the kernel passed down as a value — so nothing
//! here is process-wide and the tests run in parallel.
//!
//! # Tolerance
//!
//! Every variant performs the per-lane reduction in the same fused
//! operation order as the scalar kernel (see the `kernel` module's
//! numerical contract), so when the scalar path itself compiles with
//! hardware FMA — the repo default, `target-cpu=native` — the results
//! must be **bit-identical**, and that is what is asserted. A build whose
//! scalar fallback lacks FMA rounds each multiply and add separately,
//! which shifts every k-step by at most one ulp per fused pair; there the
//! elementwise difference is bounded by `2k·ε·max|a|·max|b|·|α|` and the
//! checks use `8k·ε·scale` for slack and nothing looser.

use proptest::prelude::*;
use qtx_linalg::gemm::gemm_with;
use qtx_linalg::kernel::{active_kernel, kernel_of, Kernel};
use qtx_linalg::{
    alloc_count, available_variants, c64, gemm, Complex64, KernelVariant, Op, ZMat, EPS,
};

const OPS: [Op; 3] = [Op::None, Op::Transpose, Op::Adjoint];
const POISON: Complex64 = Complex64 { re: 1e30, im: f64::NAN };

fn scalar() -> &'static Kernel {
    kernel_of(KernelVariant::Scalar).unwrap()
}

/// The non-scalar kernels of this host (empty on a scalar-only one, where
/// every comparison below is vacuous).
fn simd_kernels() -> Vec<&'static Kernel> {
    available_variants()
        .into_iter()
        .filter(|&v| v != KernelVariant::Scalar)
        .map(|v| kernel_of(v).unwrap())
        .collect()
}

/// One product `C ← α·op(A)·op(B) + β·C`. With `embedded`, both operands
/// and the output are sub-views at odd offsets of larger storage filled
/// with [`POISON`], which must be neither read nor written.
#[derive(Debug, Clone, Copy)]
struct Case {
    m: usize,
    n: usize,
    k: usize,
    op_a: Op,
    op_b: Op,
    alpha: Complex64,
    beta: Complex64,
    embedded: bool,
    seed: u64,
}

impl Case {
    fn new(m: usize, n: usize, k: usize) -> Case {
        Case {
            m,
            n,
            k,
            op_a: Op::None,
            op_b: Op::None,
            alpha: c64(0.7, -0.4),
            beta: c64(-0.2, 0.9),
            embedded: false,
            seed: 7,
        }
    }

    fn ops(self, op_a: Op, op_b: Op) -> Case {
        Case { op_a, op_b, ..self }
    }

    fn scalars(self, alpha: Complex64, beta: Complex64) -> Case {
        Case { alpha, beta, ..self }
    }

    fn embedded(self) -> Case {
        Case { embedded: true, ..self }
    }
}

/// `rows × cols` random values at offset `(3, 5)` of poisoned storage
/// (or filling plain storage exactly when not `embedded`).
fn stored(rows: usize, cols: usize, embedded: bool, seed: u64) -> (ZMat, usize, usize) {
    if !embedded {
        return (ZMat::random(rows, cols, seed), 0, 0);
    }
    let values = ZMat::random(rows, cols, seed);
    let mut big = ZMat::from_fn(rows + 7, cols + 9, |_, _| POISON);
    for j in 0..cols {
        big.col_mut(5 + j)[3..3 + rows].copy_from_slice(values.col(j));
    }
    (big, 3, 5)
}

/// `A`, `B` and `C` of `case` as stored, each with the offset of its view.
fn operands(case: &Case) -> [(ZMat, usize, usize); 3] {
    let Case { m, n, k, op_a, op_b, embedded, seed, .. } = *case;
    let (ar, ac) = if op_a == Op::None { (m, k) } else { (k, m) };
    let (br, bc) = if op_b == Op::None { (k, n) } else { (n, k) };
    [
        stored(ar, ac, embedded, seed),
        stored(br, bc, embedded, seed + 1),
        stored(m, n, embedded, seed + 2),
    ]
}

/// Runs `case` on `kernel`, returning the output's whole storage (so the
/// poison frame is compared too).
fn run(kernel: &'static Kernel, case: &Case) -> ZMat {
    let Case { m, n, k, op_a, op_b, alpha, beta, embedded, .. } = *case;
    let (ar, ac) = if op_a == Op::None { (m, k) } else { (k, m) };
    let (br, bc) = if op_b == Op::None { (k, n) } else { (n, k) };
    let [(a, a_i, a_j), (b, b_i, b_j), (mut c, c_i, c_j)] = operands(case);
    if beta == Complex64::ZERO {
        // β = 0 must overwrite, never read: the output starts as garbage.
        let mut out = c.block_view_mut(c_i, c_j, m, n);
        (0..n).for_each(|j| out.col_mut(j).fill(POISON));
    }
    gemm_with(
        kernel,
        alpha,
        a.block_view(a_i, a_j, ar, ac),
        op_a,
        b.block_view(b_i, b_j, br, bc),
        op_b,
        beta,
        c.block_view_mut(c_i, c_j, m, n),
    );
    if embedded {
        for j in 0..c.cols() {
            for i in 0..c.rows() {
                let inside = (c_i..c_i + m).contains(&i) && (c_j..c_j + n).contains(&j);
                let z = c[(i, j)];
                assert!(
                    inside || (z.re == POISON.re && z.im.is_nan()),
                    "{:?} wrote outside its view at ({i},{j}): {case:?}",
                    kernel.variant
                );
                assert!(!inside || z.is_finite(), "{:?} read poison: {case:?}", kernel.variant);
            }
        }
    }
    c
}

fn bits(m: &ZMat) -> Vec<(u64, u64)> {
    m.as_slice().iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
}

/// `case` on every SIMD kernel against the scalar one: bit for bit under
/// hardware FMA, within the documented bound without it.
fn check(case: &Case) -> Result<(), String> {
    let reference = run(scalar(), case);
    for kernel in simd_kernels() {
        let got = run(kernel, case);
        let same = if cfg!(target_feature = "fma") {
            bits(&got) == bits(&reference)
        } else {
            // Entries are within [−1, 1]² (`ZMat::random`), so max|a|·max|b| ≤ 2.
            let bound = 16.0 * EPS * case.k as f64 * case.alpha.abs().max(1.0);
            got.as_slice().iter().zip(reference.as_slice()).all(|(x, y)| {
                (x.re.to_bits(), x.im.to_bits()) == (y.re.to_bits(), y.im.to_bits())
                    || (*x - *y).abs() <= bound
            })
        };
        if !same {
            return Err(format!("{:?} differs from scalar on {case:?}", kernel.variant));
        }
    }
    Ok(())
}

fn check_all(cases: impl IntoIterator<Item = Case>) {
    for case in cases {
        check(&case).unwrap_or_else(|e| panic!("{e}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomized sweep: every available SIMD variant against the scalar
    /// baseline, across all 9 op pairings and ragged shapes, with the
    /// general complex α/β accumulation form. (k ≥ 25 with m·n ≥ 64·64
    /// engages the tall-panel packing exception even below the volume
    /// cutoff, so the microkernel really runs.)
    #[test]
    fn dispatched_matches_scalar_randomized(
        m in 64usize..100,
        n in 64usize..100,
        k in 25usize..120,
        opsel in 0u32..9,
        seed in 0u64..1_000_000,
    ) {
        let (op_a, op_b) = (OPS[(opsel / 3) as usize], OPS[(opsel % 3) as usize]);
        let case = Case { seed, ..Case::new(m, n, k).ops(op_a, op_b) };
        if let Err(e) = check(&case) {
            prop_assert!(false, "{}", e);
        }
    }
}

/// Ragged edge tiles: shapes chosen to straddle every variant's MR (8),
/// NR (4, 8) and the 2× k-unroll — remainder rows, remainder columns and
/// an odd trailing k-step all at once.
#[test]
fn ragged_edge_tiles_match_scalar() {
    for (m, n, k) in [
        (64usize, 64usize, 25usize), // exact 8× tiles, odd k (unroll tail)
        (65, 64, 48),                // one remainder row
        (71, 67, 49),                // remainder rows + cols for both nr
        (72, 66, 47),                // multiple of 8 rows, ragged columns
        (79, 65, 26),                // worst-case row tail (7) and col tail
    ] {
        for op_a in OPS {
            for op_b in OPS {
                let case =
                    Case::new(m, n, k).ops(op_a, op_b).scalars(c64(0.5, 1.0), c64(1.5, -0.5));
                check_all([case, case.embedded()]);
            }
        }
    }
}

/// 0, 1 and odd dimensions, and panel depths straddling the 2× unroll,
/// the packing threshold (k = 24) and the `KC = 192` cache block — on
/// both sides of the direct/packed cutoff, so the degenerate branches of
/// `gemm_with` are compared as well as the tile loop.
#[test]
fn degenerate_and_odd_dimensions_match_scalar() {
    let mut cases = Vec::new();
    for (m, n, k) in [
        (0usize, 5usize, 7usize),
        (5, 0, 7),
        (5, 7, 0),
        (1, 1, 1),
        (1, 601, 437),  // one row, packed
        (601, 1, 437),  // one column, packed
        (3, 3, 29_131), // tiny tile, very deep
        (129, 131, 17), // packed by volume, shallow odd k
    ] {
        cases.push(Case::new(m, n, k));
        cases.push(Case::new(m, n, k).ops(Op::Adjoint, Op::Transpose).embedded());
    }
    for k in [23usize, 24, 25, 26, 27, 191, 192, 193, 385] {
        cases.push(Case::new(67, 69, k));
        cases.push(Case::new(67, 69, k).ops(Op::Transpose, Op::Adjoint).embedded());
    }
    check_all(cases);
}

/// α/β edge cases (0, 1, complex) in all 16 pairings: β = 0 must ignore
/// a poisoned C, α = 0 must reduce to the β-scaling, and the mixed
/// complex cases must accumulate identically to the scalar baseline.
#[test]
fn alpha_beta_edges_match_scalar() {
    let specials = [Complex64::ZERO, Complex64::ONE, c64(0.5, -1.0), c64(2.0, 0.25)];
    for alpha in specials {
        for beta in specials {
            let case = Case::new(67, 66, 33).ops(Op::None, Op::Adjoint).scalars(alpha, beta);
            check_all([case, case.embedded()]);
        }
    }
}

/// β = 0 with NaN-poisoned C: the packed path must never read the output
/// under β = 0, whichever kernel runs — through `gemm_with` on every
/// variant and through the library entry on the detected one.
#[test]
fn beta_zero_ignores_poisoned_output() {
    let (m, n, k) = (64, 64, 40);
    let a = ZMat::random(m, k, 3);
    let b = ZMat::random(k, n, 4);
    let poisoned = || ZMat::from_fn(m, n, |_, _| c64(f64::NAN, f64::INFINITY));
    for v in available_variants() {
        let mut c = poisoned();
        let (one, zero) = (Complex64::ONE, Complex64::ZERO);
        gemm_with(
            kernel_of(v).unwrap(),
            one,
            a.view(),
            Op::None,
            b.view(),
            Op::None,
            zero,
            c.view_mut(),
        );
        assert!(c.as_slice().iter().all(|z| z.is_finite()), "{v:?}: β = 0 read the output");
    }
    let mut c = poisoned();
    gemm(Complex64::ONE, &a, Op::None, &b, Op::None, Complex64::ZERO, &mut c);
    assert!(c.as_slice().iter().all(|z| z.is_finite()), "gemm: β = 0 read the output");
}

/// The products the BLAS-3 layer issues, with its operand layouts:
/// `trsm`'s rank-32 trailing updates (α = −1, β = 1, a strided triangle
/// block against a dense staged panel, into a strided row range), the
/// compact-WY `T` products of QR and Hessenberg (a dense k ≤ 48 triangle
/// block, `op` ∈ {`None`, `Adjoint`}, β = 0 into scratch: from the left
/// against a WY panel, from the right under the `Y`/`Q` rows), and
/// `zherk`'s 64-tiles (`A_i·A_jᴴ` / `A_iᴴ·A_j` on strided row/column
/// ranges, β = 0 over garbage). Embedded, so every operand is a strided
/// view with poison around it.
#[test]
fn blas3_caller_shapes_match_scalar() {
    let (one, zero) = (Complex64::ONE, Complex64::ZERO);
    let mut cases = Vec::new();
    for op in OPS {
        // trsm, left (A block · staged X) and right (X · A block).
        cases.push(Case::new(118, 70, 32).ops(op, Op::None).scalars(-one, one));
        cases.push(Case::new(70, 118, 32).ops(Op::None, op).scalars(-one, one));
    }
    for op in [Op::None, Op::Adjoint] {
        // T products: QR's and Hessenberg's left k × k · k × w, and the
        // Hessenberg's right m × 32 · 32 × 32 (the 24-wide recursive-panel
        // products fall under the packing cutoff).
        for (k, w) in [(48, 203), (32, 129)] {
            cases.push(Case::new(k, w, k).ops(op, Op::None).scalars(one, zero));
        }
        for m in [161, 504] {
            cases.push(Case::new(m, 32, 32).ops(Op::None, op).scalars(one, zero));
        }
    }
    // zherk tiles of a 97 × 33 operand (full and remainder tile).
    for (ib, jb) in [(64, 64), (33, 64)] {
        cases.push(Case::new(ib, jb, 33).ops(Op::None, Op::Adjoint).scalars(c64(0.7, 0.0), zero));
        cases.push(Case::new(ib, jb, 33).ops(Op::Adjoint, Op::None).scalars(c64(0.7, 0.0), zero));
        cases.push(Case::new(ib, jb, 160).ops(Op::None, Op::Adjoint).scalars(one, c64(0.3, 0.0)));
    }
    check_all(cases.into_iter().map(Case::embedded));
}

/// The library entry runs the detected kernel through the same routine
/// `gemm_with` exposes: `gemm` and `gemm_with(active_kernel())` agree bit
/// for bit, and both agree with the scalar kernel. Vacuous (with a note)
/// on a scalar-only host.
#[test]
fn forced_scalar_and_best_available_agree() {
    if simd_kernels().is_empty() {
        eprintln!("note: host has no SIMD kernel variant (scalar only)");
    }
    for trial in 0..8usize {
        let case = Case {
            seed: trial as u64,
            ..Case::new(64 + trial * 13 % 40, 64 + trial * 29 % 40, 25 + trial * 41 % 100)
                .ops(OPS[trial % 3], OPS[trial / 3 % 3])
                .scalars(c64(0.9, 0.2), c64(0.1, -0.7))
        };
        check(&case).unwrap_or_else(|e| panic!("{e}"));
        let [(a, ..), (b, ..), (mut c, ..)] = operands(&case);
        let Case { op_a, op_b, alpha, beta, .. } = case;
        gemm(alpha, &a, op_a, &b, op_b, beta, &mut c);
        assert_eq!(bits(&c), bits(&run(active_kernel(), &case)), "gemm ≠ gemm_with(active)");
    }
}

/// Naming an ISA the host lacks is a soft no — `kernel_of` answers `None`
/// and the detected kernel is whatever it was — which is what lets the
/// per-variant loops above skip gracefully on narrower machines.
#[test]
fn forcing_an_absent_isa_is_a_soft_no() {
    let before = qtx_linalg::active_variant();
    for v in [KernelVariant::Scalar, KernelVariant::Avx512] {
        let listed = available_variants().contains(&v);
        assert_eq!(kernel_of(v).is_some(), listed, "{v:?}: kernel_of and the ladder disagree");
        assert_eq!(qtx_linalg::active_variant(), before, "asking for {v:?} moved the dispatch");
    }
    assert!(available_variants().contains(&before), "dispatch picked an absent ISA");
}

/// Packing scratch is raw `f64` buffers whatever the tile shape: a warm
/// packed product allocates no `ZMat` on any variant.
#[test]
fn warm_call_is_allocation_free_per_variant() {
    let a = ZMat::random(96, 96, 21);
    let b = ZMat::random(96, 96, 22);
    let mut c = ZMat::zeros(96, 96);
    for v in available_variants() {
        let kernel = kernel_of(v).unwrap();
        let mut call = |op_a, op_b| {
            let (one, zero) = (Complex64::ONE, Complex64::ZERO);
            gemm_with(kernel, one, a.view(), op_a, b.view(), op_b, zero, c.view_mut());
        };
        call(Op::None, Op::None);
        let before = alloc_count();
        call(Op::None, Op::None);
        call(Op::Adjoint, Op::Transpose);
        assert_eq!(alloc_count(), before, "{v:?}: packed gemm allocated a ZMat");
    }
}
