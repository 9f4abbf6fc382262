//! Hermitian rank-k update (`zherk`).
//!
//! The FEAST pipeline builds several Gram matrices — `PᴴP` for the
//! rank-revealing orthonormalization of the contour projector output and
//! `A₀ᴴA₀` in Beyn's moment factorization — whose results are Hermitian by
//! construction. A general `zgemm` computes both triangles; `zherk`
//! computes only the lower one through the tiled gemm kernel and mirrors
//! it, halving the flops exactly as the ROADMAP's "dedicated `zherk` for
//! the FEAST Gram matrix" item asks. (The Rayleigh–Ritz reductions `QᴴAQ`
//! / `QᴴBQ` are not Hermitian as wholes — the companion pencil's `A` and
//! `B` are not Hermitian — but FEAST assembles them blockwise from the
//! companion structure, and the `Q₂ᴴQ₂` term of the `B`-projection does
//! come through this kernel.)

use crate::complex::c64;
use crate::flops::{counts, flops_add};
use crate::gemm::{gemm_into_unc, Op};
use crate::zmat::{ZMat, ZMatRef};

/// Block edge of the triangle tiling (matches the factorization panels).
const NB: usize = 64;

/// `C ← α·A·Aᴴ + β·C` (`op = Op::None`) or `C ← α·Aᴴ·A + β·C`
/// (`op = Op::Adjoint`), with real `α`, `β` — BLAS `zherk`.
///
/// Only the lower triangle of `C` is read (like BLAS); the full Hermitian
/// result is written back, diagonal forced real. `Op::Transpose` is
/// rejected: `AᵀA` is complex-symmetric, not Hermitian.
pub fn zherk(alpha: f64, a: ZMatRef<'_>, op: Op, beta: f64, c: &mut ZMat) {
    assert!(op != Op::Transpose, "zherk: use Op::None (A·Aᴴ) or Op::Adjoint (Aᴴ·A)");
    let (n, k) = match op {
        Op::None => (a.rows(), a.cols()),
        _ => (a.cols(), a.rows()),
    };
    assert_eq!((c.rows(), c.cols()), (n, n), "zherk output shape mismatch");
    flops_add(counts::zherk(n, k));
    let (alpha, beta) = (c64(alpha, 0.0), c64(beta, 0.0));
    // Lower-triangle block grid: each (i ≥ j) block is one gemm on the
    // packed microkernel; diagonal blocks are computed in full (the waste
    // is NB²/2 per diagonal block, negligible against the n²k/2 saved).
    let mut j0 = 0;
    while j0 < n {
        let jb = NB.min(n - j0);
        let mut i0 = j0;
        while i0 < n {
            let ib = NB.min(n - i0);
            let (ai, aj) = match op {
                Op::None => (a.sub(i0, 0, ib, k), a.sub(j0, 0, jb, k)),
                _ => (a.sub(0, i0, k, ib), a.sub(0, j0, k, jb)),
            };
            let (op_i, op_j) = match op {
                Op::None => (Op::None, Op::Adjoint),
                _ => (Op::Adjoint, Op::None),
            };
            gemm_into_unc(alpha, ai, op_i, aj, op_j, beta, c.block_view_mut(i0, j0, ib, jb));
            i0 += ib;
        }
        j0 += jb;
    }
    // Mirror the strict lower triangle up and pin the diagonal real.
    for j in 0..n {
        for i in 0..j {
            c[(i, j)] = c[(j, i)].conj();
        }
        let d = c[(j, j)];
        c[(j, j)] = c64(d.re, 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Complex64;
    use crate::gemm::gemm;
    use crate::zmat::{alloc_count, ZMat};

    fn reference(alpha: f64, a: &ZMat, op: Op, beta: f64, c0: &ZMat) -> ZMat {
        let mut c = c0.clone();
        // Make the β·C term Hermitian the way zherk reads it (lower only).
        c.hermitianize();
        gemm(c64(alpha, 0.0), a, op, a, flip(op), c64(beta, 0.0), &mut c);
        c
    }

    fn flip(op: Op) -> Op {
        match op {
            Op::None => Op::Adjoint,
            _ => Op::None,
        }
    }

    #[test]
    fn matches_gemm_both_transposes() {
        for op in [Op::None, Op::Adjoint] {
            for (n, k) in [(5usize, 9usize), (9, 5), (97, 33), (130, 70)] {
                let a = match op {
                    Op::None => ZMat::random(n, k, 3),
                    _ => ZMat::random(k, n, 3),
                };
                let mut c = ZMat::random(n, n, 4);
                c.hermitianize();
                let expected = reference(0.7, &a, op, 0.3, &c);
                zherk(0.7, a.view(), op, 0.3, &mut c);
                assert!(
                    c.max_diff(&expected) < 1e-9,
                    "op {op:?} n {n} k {k}: {:.2e}",
                    c.max_diff(&expected)
                );
                assert!(c.hermitian_defect() < 1e-12, "result must be Hermitian");
            }
        }
    }

    #[test]
    fn beta_zero_ignores_garbage_upper_triangle() {
        let a = ZMat::random(40, 20, 7);
        let mut c = ZMat::random(40, 40, 8); // arbitrary contents, β = 0
        zherk(1.0, a.view(), Op::None, 0.0, &mut c);
        let mut expected = ZMat::zeros(40, 40);
        gemm(Complex64::ONE, &a, Op::None, &a, Op::Adjoint, Complex64::ZERO, &mut expected);
        assert!(c.max_diff(&expected) < 1e-10);
    }

    #[test]
    fn allocation_free() {
        // With borrowed operands and a preallocated output, zherk must not
        // allocate a single ZMat (packing uses raw scratch, like gemm).
        let a = ZMat::random(96, 64, 11);
        let mut c = ZMat::zeros(64, 64);
        let before = alloc_count();
        zherk(1.0, a.view(), Op::Adjoint, 0.0, &mut c);
        assert_eq!(alloc_count(), before, "zherk allocated a ZMat");
    }

    #[test]
    fn counts_half_the_gemm_flops() {
        let a = ZMat::random(30, 12, 13);
        let mut c = ZMat::zeros(30, 30);
        let scope = crate::flops::FlopScope::start();
        zherk(1.0, a.view(), Op::None, 0.0, &mut c);
        let herk_flops = scope.elapsed();
        assert!(herk_flops >= counts::zherk(30, 12));
        assert!(counts::zherk(30, 12) * 2 == counts::zgemm(30, 30, 12));
    }
}
