//! Property battery for the sparse substrate: CSR round-trips, spy/stats
//! goldens, and honesty of the Σ-compression error bound.

use proptest::prelude::*;
use qtx_sparse::{btd_stats, sparsity_stats, spy_string, Btd, CompressedSigma, Csr, CsrBuilder};

use qtx_linalg::{c64, gemm, Complex64, Op, ZMat};

/// Deterministically thins a random dense matrix so the sparse paths see
/// genuinely ragged strips (keep fraction in `(0, 1]`).
fn sparse_random(rows: usize, cols: usize, keep: f64, seed: u64) -> Csr {
    let dense = ZMat::random(rows, cols, seed);
    let mut b = CsrBuilder::new(rows, cols);
    for i in 0..rows {
        for j in 0..cols {
            let v = dense[(i, j)];
            if (v.re + 1.0) / 2.0 < keep {
                b.push(i, j, v);
            }
        }
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// CSR ↔ dense round-trip is exact: `from_dense` at zero tolerance
    /// stores every entry bit-for-bit and `to_dense` restores them, with
    /// the nnz count matching the number of non-zeros.
    #[test]
    fn csr_dense_roundtrip(
        rows in 1usize..24,
        cols in 1usize..24,
        keep in 0.05f64..1.0,
        seed in 0u64..1_000_000,
    ) {
        let s = sparse_random(rows, cols, keep, seed);
        let d = s.to_dense();
        let back = Csr::from_dense(&d, 0.0);
        prop_assert!(back.nnz() == s.nnz());
        prop_assert!(back.to_dense().max_diff(&d) == 0.0);
    }

    /// Σ-compression bound honesty: whatever representation `compress`
    /// chooses, the reconstruction error never exceeds the recorded bound,
    /// and the bound itself respects the requested relative tolerance.
    #[test]
    fn sigma_compression_bound_is_honest(
        n in 2usize..20,
        rank in 1usize..4,
        log_noise in -12.0f64..-6.0,
        log_tol in -9.0f64..-3.0,
        seed in 0u64..1_000_000,
    ) {
        let noise = 10f64.powf(log_noise);
        let tol = 10f64.powf(log_tol);
        let a = ZMat::random(n, rank, seed);
        let b = ZMat::random(n, rank, seed + 7);
        let mut sigma = ZMat::zeros(n, n);
        gemm(Complex64::ONE, &a, Op::None, &b, Op::Adjoint, Complex64::ZERO, &mut sigma);
        sigma.axpy(c64(noise, 0.0), &ZMat::random(n, n, seed + 13));
        let comp = CompressedSigma::compress(&sigma, tol);
        let err = (&comp.to_dense() - &sigma).norm_fro();
        prop_assert!(
            err <= comp.bound() * (1.0 + 1e-12) + 1e-14,
            "reconstruction error {err} exceeds recorded bound {}", comp.bound()
        );
        prop_assert!(
            comp.bound() <= tol * sigma.norm_fro() * (1.0 + 1e-12),
            "bound {} exceeds requested tolerance {}", comp.bound(), tol * sigma.norm_fro()
        );
        if comp.is_compressed() {
            // The factor form must never cost more than the dense block.
            prop_assert!(comp.bytes() <= n * n * std::mem::size_of::<Complex64>());
            prop_assert!(comp.rank() <= n / 2);
        }
        // tol = 0 is always the exact dense block, bit-for-bit.
        let exact = CompressedSigma::compress(&sigma, 0.0);
        prop_assert!(exact.bound() == 0.0);
        prop_assert!(exact.to_dense().max_diff(&sigma) == 0.0);
    }
}

/// Golden spy render of a block tri-diagonal pattern: the band must light
/// up exactly the diagonal and its neighbors at one cell per block.
#[test]
fn spy_golden_btd_band() {
    let nb = 6;
    let bs = 4;
    let mut b = CsrBuilder::new(nb * bs, nb * bs);
    for blk in 0..nb {
        for i in 0..bs {
            for j in 0..bs {
                b.push(blk * bs + i, blk * bs + j, Complex64::ONE);
                if blk + 1 < nb {
                    b.push(blk * bs + i, (blk + 1) * bs + j, Complex64::ONE);
                    b.push((blk + 1) * bs + i, blk * bs + j, Complex64::ONE);
                }
            }
        }
    }
    let s = spy_string(&b.build(), nb, nb);
    let golden = concat!("██    \n", "███   \n", " ███  \n", "  ███ \n", "   ███\n", "    ██\n",);
    assert_eq!(s, golden, "spy render drifted:\n{s}");
}

/// Golden sparsity statistics of the same BTD band, cross-checked against
/// the closed-form entry count `bs²·(3·nb − 2)`.
#[test]
fn stats_golden_btd_band() {
    let nb = 8;
    let bs = 3;
    let mut b = CsrBuilder::new(nb * bs, nb * bs);
    for blk in 0..nb {
        for i in 0..bs {
            for j in 0..bs {
                b.push(blk * bs + i, blk * bs + j, Complex64::ONE);
                if blk + 1 < nb {
                    b.push(blk * bs + i, (blk + 1) * bs + j, Complex64::ONE);
                    b.push((blk + 1) * bs + i, blk * bs + j, Complex64::ONE);
                }
            }
        }
    }
    let s = sparsity_stats(&b.build(), bs);
    assert_eq!(s.dim, nb * bs);
    assert_eq!(s.nnz, bs * bs * (3 * nb - 2));
    assert_eq!(s.bandwidth, 2 * bs - 1);
    assert_eq!(s.coupling_range_blocks, 2);
    let btd = btd_stats(&Btd::zeros(nb, bs));
    assert_eq!(btd.entries, bs * bs * (3 * nb - 2));
    assert_eq!(btd.bytes, btd.entries * std::mem::size_of::<Complex64>());
    assert_eq!(btd.dense_bytes, (nb * bs) * (nb * bs) * std::mem::size_of::<Complex64>());
}
