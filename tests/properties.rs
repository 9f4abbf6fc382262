//! Property-based tests (proptest) on the core numerical invariants.

use proptest::prelude::*;
use qtx::linalg::{
    c64, gemm, hessenberg, hessenberg_unblocked, lu_factor, lu_factor_unblocked, lu_inverse,
    orthonormality_defect, qr_factor, qr_factor_unblocked, zgesv, zgesv_into, Complex64, Op,
    Workspace, ZMat,
};
use qtx::solver::{bcr::bcr_solve_raw, rgf_diagonal_and_corner_ws, ObcSystem, SplitSolve};
use qtx::sparse::Btd;

/// Reference triple loop the tiled kernel is checked against.
fn naive_matmul(a: &ZMat, b: &ZMat) -> ZMat {
    let mut c = ZMat::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut s = Complex64::ZERO;
            for l in 0..a.cols() {
                s += a[(i, l)] * b[(l, j)];
            }
            c[(i, j)] = s;
        }
    }
    c
}

fn apply_op(op: Op, m: &ZMat) -> ZMat {
    match op {
        Op::None => m.clone(),
        Op::Transpose => m.transpose(),
        Op::Adjoint => m.adjoint(),
    }
}

/// Diagonal shift that keeps a random decoy system factorable.
fn lu_shift(a: &ZMat) -> ZMat {
    let mut s = a.clone();
    for i in 0..s.rows() {
        s[(i, i)] += c64(4.0, 1.0);
    }
    s
}

fn random_btd(nb: usize, s: usize, seed: u64, dominance: f64) -> Btd {
    let mut a = Btd::zeros(nb, s);
    for i in 0..nb {
        a.diag[i] = ZMat::random(s, s, seed.wrapping_add(i as u64));
        for d in 0..s {
            a.diag[i][(d, d)] += c64(dominance, 1.0);
        }
    }
    for i in 0..nb - 1 {
        a.upper[i] = ZMat::random(s, s, seed.wrapping_add(1000 + i as u64)).scaled(c64(0.35, 0.0));
        a.lower[i] = ZMat::random(s, s, seed.wrapping_add(2000 + i as u64)).scaled(c64(0.35, 0.0));
    }
    a
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// SplitSolve solves random well-conditioned BTD systems for every
    /// partition count, matching the dense reference.
    #[test]
    fn splitsolve_matches_dense(
        nb in 2usize..10,
        s in 1usize..5,
        m in 1usize..4,
        seed in 0u64..1_000_000,
        partitions_pow in 0u32..3,
    ) {
        let partitions = (1usize << partitions_pow).min(nb);
        let partitions = if partitions.is_power_of_two() { partitions } else { 1 };
        let sys = ObcSystem {
            a: random_btd(nb, s, seed, 4.0 + s as f64),
            sigma_l: ZMat::random(s, s, seed + 31).scaled(c64(0.25, 0.1)),
            sigma_r: ZMat::random(s, s, seed + 32).scaled(c64(0.25, -0.1)),
            rhs_top: ZMat::random(s, m, seed + 33),
            rhs_bottom: ZMat::random(s, m, seed + 34),
        };
        let x_ref = zgesv(&sys.t_dense(), &sys.b_dense()).unwrap();
        let (x, _) = SplitSolve::new(partitions).solve(&sys, None).unwrap();
        prop_assert!(x.max_diff(&x_ref) < 1e-7, "diff {:.2e}", x.max_diff(&x_ref));
    }

    /// BCR agrees with dense solves on arbitrary block counts (including
    /// non-powers of two).
    #[test]
    fn bcr_matches_dense(
        nb in 1usize..12,
        s in 1usize..4,
        seed in 0u64..1_000_000,
    ) {
        let a = random_btd(nb.max(1), s, seed, 5.0);
        let b = ZMat::random(a.dim(), 2, seed + 77);
        let x = bcr_solve_raw(&a, &b).unwrap();
        let x_ref = zgesv(&a.to_dense(), &b).unwrap();
        prop_assert!(x.max_diff(&x_ref) < 1e-7);
    }

    /// The tiled/packed gemm agrees with the naive triple loop for every
    /// `Op` pairing on arbitrary (non-tile-multiple) shapes, including
    /// the α/β accumulation form.
    #[test]
    fn tiled_gemm_matches_naive(
        m in 1usize..90,
        n in 1usize..90,
        k in 1usize..70,
        opsel in 0u32..9,
        seed in 0u64..1_000_000,
    ) {
        let ops = [Op::None, Op::Transpose, Op::Adjoint];
        let op_a = ops[(opsel / 3) as usize];
        let op_b = ops[(opsel % 3) as usize];
        let a = match op_a { Op::None => ZMat::random(m, k, seed), _ => ZMat::random(k, m, seed) };
        let b = match op_b { Op::None => ZMat::random(k, n, seed + 1), _ => ZMat::random(n, k, seed + 1) };
        let c0 = ZMat::random(m, n, seed + 2);
        let alpha = c64(0.7, -0.4);
        let beta = c64(-0.2, 0.9);
        let mut c = c0.clone();
        gemm(alpha, &a, op_a, &b, op_b, beta, &mut c);
        let mut expected = naive_matmul(&apply_op(op_a, &a), &apply_op(op_b, &b)).scaled(alpha);
        expected.axpy(beta, &c0);
        prop_assert!(
            c.max_diff(&expected) < 1e-9,
            "m={m} n={n} k={k} ops={op_a:?}/{op_b:?}: {:.2e}",
            c.max_diff(&expected)
        );
    }

    /// Solver results are bit-for-bit independent of workspace history: a
    /// freshly created pool and a pool recycled through a previous solve
    /// of a *different* system produce identical outputs.
    #[test]
    fn workspace_reuse_is_transparent(
        nb in 2usize..8,
        s in 1usize..5,
        m in 1usize..3,
        seed in 0u64..1_000_000,
    ) {
        let sys = ObcSystem {
            a: random_btd(nb, s, seed, 4.0 + s as f64),
            sigma_l: ZMat::random(s, s, seed + 41).scaled(c64(0.25, 0.1)),
            sigma_r: ZMat::random(s, s, seed + 42).scaled(c64(0.25, -0.1)),
            rhs_top: ZMat::random(s, m, seed + 43),
            rhs_bottom: ZMat::random(s, m, seed + 44),
        };
        let decoy = ObcSystem {
            a: random_btd(nb + 1, s, seed + 99, 5.0 + s as f64),
            sigma_l: ZMat::random(s, s, seed + 51).scaled(c64(0.2, 0.1)),
            sigma_r: ZMat::random(s, s, seed + 52).scaled(c64(0.2, -0.1)),
            rhs_top: ZMat::random(s, m, seed + 53),
            rhs_bottom: ZMat::random(s, m, seed + 54),
        };
        let solver = SplitSolve::new(2.min(nb));
        // Fresh pool.
        let fresh_ws = Workspace::new();
        let (x_fresh, _) = solver.solve_ws(&sys, None, &fresh_ws).unwrap();
        let g_fresh = rgf_diagonal_and_corner_ws(&sys, &Workspace::new()).unwrap();
        // Dirty pool: recycled through a different system first.
        let dirty_ws = Workspace::new();
        let _ = solver.solve_ws(&decoy, None, &dirty_ws).unwrap();
        let _ = rgf_diagonal_and_corner_ws(&decoy, &dirty_ws).unwrap();
        let (x_dirty, _) = solver.solve_ws(&sys, None, &dirty_ws).unwrap();
        let g_dirty = rgf_diagonal_and_corner_ws(&sys, &dirty_ws).unwrap();
        prop_assert!(x_fresh.max_diff(&x_dirty) == 0.0, "SplitSolve differs after recycle");
        prop_assert!(g_fresh.corner.max_diff(&g_dirty.corner) == 0.0, "RGF corner differs");
        for (df, dd) in g_fresh.diag.iter().zip(&g_dirty.diag) {
            prop_assert!(df.max_diff(dd) == 0.0, "RGF diagonal differs");
        }
        // And the pool really was exercised: fresh allocations happened on
        // the decoy, reuse on the second pass kept the count flat.
        prop_assert!(dirty_ws.fresh_allocations() > 0);
    }

    /// Blocked (panel + trsm + gemm) and unblocked LU agree across sizes
    /// straddling the blocking crossover (96): same solutions, same
    /// determinant (pivot-parity sign included).
    #[test]
    fn blocked_lu_matches_unblocked(n in 60usize..160, seed in 0u64..1_000_000) {
        let a = ZMat::random(n, n, seed);
        let b = ZMat::random(n, 2, seed + 1);
        let fb = lu_factor(&a).unwrap();
        let fu = lu_factor_unblocked(&a).unwrap();
        let xb = fb.solve(&b);
        let xu = fu.solve(&b);
        prop_assert!(
            xb.max_diff(&xu) < 1e-6 * n as f64,
            "n={n}: {:.2e}",
            xb.max_diff(&xu)
        );
        let (db, du) = (fb.determinant(), fu.determinant());
        let rel = (db - du).abs() / du.abs().max(1e-300);
        prop_assert!(rel < 1e-6, "determinant drift {rel:.2e} (sign bug?)");
    }

    /// `solve_into` through a recycled pool is bit-identical to a fresh
    /// pool: factor+solve results must not depend on buffer history.
    #[test]
    fn factor_solve_into_recycled_pool_is_bit_identical(
        n in 30usize..140,
        m in 1usize..4,
        seed in 0u64..1_000_000,
    ) {
        let a = {
            let mut a = ZMat::random(n, n, seed);
            for i in 0..n {
                a[(i, i)] += c64(3.0, 1.0);
            }
            a
        };
        let b = ZMat::random(n, m, seed + 1);
        // Fresh pool.
        let ws_fresh = Workspace::new();
        let mut x_fresh = ws_fresh.take_scratch(n, m);
        zgesv_into(&a, &b, &mut x_fresh, &ws_fresh).unwrap();
        // Dirty pool: recycled through solves of a different system first.
        let ws_dirty = Workspace::new();
        let decoy_a = ZMat::random(n + 3, n + 3, seed + 7);
        let decoy_b = ZMat::random(n + 3, m + 1, seed + 8);
        let mut decoy_x = ws_dirty.take_scratch(n + 3, m + 1);
        let _ = zgesv_into(&lu_shift(&decoy_a), &decoy_b, &mut decoy_x, &ws_dirty);
        ws_dirty.recycle(decoy_x);
        let mut x_dirty = ws_dirty.take_scratch(n, m);
        zgesv_into(&a, &b, &mut x_dirty, &ws_dirty).unwrap();
        prop_assert!(x_fresh.max_diff(&x_dirty) == 0.0, "recycled pool changed bits");
    }

    /// Blocked compact-WY QR and the unblocked reflector loop agree on
    /// sizes straddling the blocking crossovers (160 columns square, 128
    /// for the tall-skinny m = 4n shape — both lowered by the recursive
    /// sub-panel factorization), including tall-skinny m ≫ n shapes:
    /// same packed factors, same least-squares solutions, orthonormal
    /// thin Q.
    #[test]
    fn blocked_qr_matches_unblocked(
        n in 110usize..260,
        extra in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        // extra = 0: square; 1: mildly rectangular; 2: tall-skinny 4×.
        let m = match extra {
            0 => n,
            1 => n + 17,
            _ => 4 * n,
        };
        let a = ZMat::random(m, n, seed);
        let fb = qr_factor(&a);
        let fu = qr_factor_unblocked(&a);
        let scale = a.norm_max().max(1.0) * m as f64;
        // Same reflectors and R entrywise up to summation reordering.
        let q = fb.q_thin();
        prop_assert!(orthonormality_defect(&q) < 1e-10 * n as f64);
        prop_assert!((&q * &fb.r()).max_diff(&a) < 1e-9 * scale);
        let b = ZMat::random(m, 2, seed + 1);
        let xb = fb.least_squares(&b);
        let xu = fu.least_squares(&b);
        prop_assert!(
            xb.max_diff(&xu) < 1e-7 * scale,
            "m={m} n={n}: {:.2e}",
            xb.max_diff(&xu)
        );
    }

    /// Rank-deficient inputs (duplicated columns) keep the blocked path
    /// consistent with the unblocked one: Q·R still reproduces A.
    #[test]
    fn blocked_qr_rank_deficient(n in 192usize..240, seed in 0u64..1_000_000) {
        let mut a = ZMat::random(n + 20, n, seed);
        // Duplicate a band of columns across a panel boundary.
        for j in 0..6 {
            let src: Vec<Complex64> = a.col(j).to_vec();
            a.col_mut(90 + j).copy_from_slice(&src);
        }
        let fb = qr_factor(&a);
        let q = fb.q_thin();
        prop_assert!((&q * &fb.r()).max_diff(&a) < 1e-8 * n as f64);
    }

    /// Blocked Hessenberg reduction is a similarity transform matching
    /// the unblocked baseline across the crossover.
    #[test]
    fn blocked_hessenberg_matches_unblocked(n in 90usize..150, seed in 0u64..1_000_000) {
        let a = ZMat::random(n, n, seed);
        let (hb, qb) = hessenberg(&a);
        let (hu, qu) = hessenberg_unblocked(&a);
        let scale = a.norm_max().max(1.0) * n as f64;
        prop_assert!(hb.max_diff(&hu) < 1e-9 * scale, "H drift {:.2e}", hb.max_diff(&hu));
        prop_assert!(qb.max_diff(&qu) < 1e-9 * scale, "Q drift {:.2e}", qb.max_diff(&qu));
        // Similarity invariants: Q unitary, Q·H·Qᴴ = A, Hessenberg shape.
        prop_assert!(orthonormality_defect(&qb) < 1e-8 * n as f64);
        let qh = &qb * &hb;
        let mut back = ZMat::zeros(n, n);
        gemm(Complex64::ONE, &qh, Op::None, &qb, Op::Adjoint, Complex64::ZERO, &mut back);
        prop_assert!(back.max_diff(&a) < 1e-8 * scale);
        for j in 0..n {
            for i in j + 2..n {
                prop_assert!(hb[(i, j)].abs() < 1e-10 * scale);
            }
        }
    }

    /// The dense inverse round-trips: A·A⁻¹ = 1 for diagonally dominant A.
    #[test]
    fn inverse_roundtrip(n in 1usize..12, seed in 0u64..1_000_000) {
        let mut a = ZMat::random(n, n, seed);
        for i in 0..n {
            a[(i, i)] += c64(n as f64 + 2.0, 1.0);
        }
        let inv = lu_inverse(&a).unwrap();
        let id = &a * &inv;
        prop_assert!(id.max_diff(&ZMat::identity(n)) < 1e-8);
    }

    /// Eigen-pairs of random matrices satisfy A·v = λ·v.
    #[test]
    fn eigenpairs_satisfy_definition(n in 2usize..10, seed in 0u64..1_000_000) {
        let a = ZMat::random(n, n, seed);
        let dec = qtx::linalg::eig(&a).unwrap();
        for k in 0..n {
            let v: Vec<Complex64> = (0..n).map(|i| dec.vectors[(i, k)]).collect();
            let av = a.matvec(&v);
            let r: f64 = av
                .iter()
                .zip(&v)
                .map(|(x, y)| (*x - *y * dec.values[k]).norm_sqr())
                .sum::<f64>()
                .sqrt();
            prop_assert!(r < 1e-6, "residual {r} for eigenvalue {}", dec.values[k]);
        }
    }
}

mod factorization_edges {
    use super::*;
    use qtx::linalg::alloc_count;

    /// Adversarial pivot patterns on both sides of the blocking crossover:
    /// every elimination step needs an interchange (row-reversed systems)
    /// or the natural pivot starts at zero (shifted-cycle permutations).
    #[test]
    fn adversarial_pivot_patterns() {
        for n in [90usize, 130] {
            // Row-reversal: the in-place pivot search must chase the
            // bottom row at every step.
            let base = {
                let mut a = ZMat::random(n, n, 1000 + n as u64);
                for i in 0..n {
                    a[(i, i)] += c64(3.0, 0.5);
                }
                a
            };
            let mut reversed = ZMat::zeros(n, n);
            for j in 0..n {
                for i in 0..n {
                    reversed[(i, j)] = base[(n - 1 - i, j)];
                }
            }
            // Cycle: zero diagonal everywhere (a[i][i] = 0, weight on the
            // shifted band), unsolvable without pivoting.
            let mut cycle = ZMat::random(n, n, 2000 + n as u64).scaled(c64(0.01, 0.0));
            for i in 0..n {
                cycle[(i, i)] = qtx::linalg::Complex64::ZERO;
                cycle[((i + 1) % n, i)] = c64(2.0, -1.0);
            }
            for (label, a) in [("reversed", &reversed), ("cycle", &cycle)] {
                let b = ZMat::random(n, 3, 3000 + n as u64);
                let fb = lu_factor(a).unwrap_or_else(|e| panic!("{label} n={n}: {e}"));
                let fu = lu_factor_unblocked(a).unwrap();
                let diff = fb.solve(&b).max_diff(&fu.solve(&b));
                assert!(diff < 1e-6 * n as f64, "{label} n={n}: {diff:.2e}");
                // And the solution actually solves the system.
                let x = fb.solve(&b);
                let residual = (&(a * &x) - &b).norm_max();
                assert!(residual < 1e-7 * n as f64, "{label} n={n}: residual {residual:.2e}");
            }
        }
    }

    /// The PR 1 allocation-counter test, extended to the factorization
    /// stack: once the pool is warm, a factor+solve loop — working copy,
    /// factors, staging and solution all included — performs **zero**
    /// fresh `ZMat` allocations, on both sides of the crossover.
    #[test]
    fn factor_solve_loop_is_allocation_free_once_warm() {
        for n in [48usize, 160] {
            let ws = Workspace::new();
            let a = {
                let mut a = ZMat::random(n, n, 7);
                for i in 0..n {
                    a[(i, i)] += c64(4.0, 1.0);
                }
                a
            };
            let b = ZMat::random(n, n / 2, 8);
            // Warm-up pass fills the pool.
            let mut x = ws.take_scratch(n, n / 2);
            zgesv_into(&a, &b, &mut x, &ws).unwrap();
            ws.recycle(x);
            let before = alloc_count();
            for _ in 0..3 {
                let mut x = ws.take_scratch(n, n / 2);
                zgesv_into(&a, &b, &mut x, &ws).unwrap();
                ws.recycle(x);
            }
            assert_eq!(alloc_count(), before, "factor+solve loop at n={n} allocated a fresh ZMat");
        }
    }
}

mod obc_zero_alloc {
    use super::*;
    use qtx::linalg::alloc_count;
    use qtx::obc::{
        beyn_annulus_ws, feast_annulus_ws, BeynConfig, CompanionPencil, FeastConfig, LeadBlocks,
    };

    fn sample_pencil() -> CompanionPencil {
        let mut h00 = ZMat::random(4, 4, 41);
        h00.hermitianize();
        let h01 = ZMat::random(4, 4, 42).scaled(c64(0.45, 0.0));
        let lead = LeadBlocks::new(h00, h01, ZMat::identity(4), ZMat::zeros(4, 4));
        CompanionPencil::at_energy(&lead, 0.15, 0.0)
    }

    /// Leaves one spare pivot buffer per quadrature worker in the pool.
    /// The nodes of `sample_pencil` factor in microseconds, so whether two
    /// workers ever hold a factorization at the same instant during the
    /// warm-up passes is up to the OS scheduler; the warm pool's worst
    /// case (every worker mid-factorization) is set up here instead.
    fn prime_index_pool(ws: &Workspace) {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        let held: Vec<Vec<usize>> = (0..workers).map(|_| ws.take_index(8)).collect();
        held.into_iter().for_each(|v| ws.recycle_index(v));
    }

    /// The ISSUE-3 tentpole property: once the pool is warm, one full OBC
    /// iteration — FEAST quadrature factorizations, subspace products,
    /// QR orthonormalization, Rayleigh–Ritz eigensolver, pivot vectors —
    /// performs zero fresh `ZMat` allocations (on this thread and, via
    /// the pool's own fresh-allocation counters, on the quadrature worker
    /// threads too), with results bit-identical to a fresh pool.
    #[test]
    fn warm_feast_iteration_is_allocation_free_and_bit_identical() {
        let pencil = sample_pencil();
        let cfg = FeastConfig { np: 8, r_outer: 3.0, ..FeastConfig::default() };
        let fresh = feast_annulus_ws(&pencil, cfg, &Workspace::new()).unwrap();
        let ws = Workspace::new();
        // Two warm-up passes let the pool reach its steady-state capacity.
        let _ = feast_annulus_ws(&pencil, cfg, &ws).unwrap();
        let _ = feast_annulus_ws(&pencil, cfg, &ws).unwrap();
        prime_index_pool(&ws);
        let mat_allocs = alloc_count();
        let pool_fresh = ws.fresh_allocations();
        let idx_fresh = ws.fresh_index_allocations();
        let warm = feast_annulus_ws(&pencil, cfg, &ws).unwrap();
        assert_eq!(alloc_count(), mat_allocs, "warm FEAST iteration allocated a fresh ZMat");
        assert_eq!(ws.fresh_allocations(), pool_fresh, "warm FEAST iteration grew the matrix pool");
        assert_eq!(
            ws.fresh_index_allocations(),
            idx_fresh,
            "warm FEAST iteration allocated fresh pivot vectors"
        );
        // Bit-identical to the fresh-pool run: recycled buffer history
        // must never leak into results.
        assert_eq!(fresh.0.len(), warm.0.len());
        for ((l1, u1), (l2, u2)) in fresh.0.iter().zip(&warm.0) {
            assert!(*l1 == *l2, "eigenvalue bits differ: {l1} vs {l2}");
            for (a, b) in u1.iter().zip(u2) {
                assert!(*a == *b, "eigenvector bits differ");
            }
        }
    }

    /// Same property for Beyn's single-shot method (moments, Gram-matrix
    /// rank revealer, polish solves).
    #[test]
    fn warm_beyn_iteration_is_allocation_free_and_bit_identical() {
        let pencil = sample_pencil();
        let cfg = BeynConfig { r_outer: 3.0, ..BeynConfig::default() };
        let fresh = beyn_annulus_ws(&pencil, cfg, &Workspace::new()).unwrap();
        let ws = Workspace::new();
        let _ = beyn_annulus_ws(&pencil, cfg, &ws).unwrap();
        let _ = beyn_annulus_ws(&pencil, cfg, &ws).unwrap();
        prime_index_pool(&ws);
        let mat_allocs = alloc_count();
        let pool_fresh = ws.fresh_allocations();
        let idx_fresh = ws.fresh_index_allocations();
        let warm = beyn_annulus_ws(&pencil, cfg, &ws).unwrap();
        assert_eq!(alloc_count(), mat_allocs, "warm Beyn iteration allocated a fresh ZMat");
        assert_eq!(ws.fresh_allocations(), pool_fresh, "warm Beyn iteration grew the pool");
        assert_eq!(
            ws.fresh_index_allocations(),
            idx_fresh,
            "warm Beyn iteration allocated fresh pivot vectors"
        );
        assert_eq!(fresh.len(), warm.len());
        for ((l1, u1), (l2, u2)) in fresh.iter().zip(&warm) {
            assert!(*l1 == *l2, "eigenvalue bits differ: {l1} vs {l2}");
            for (a, b) in u1.iter().zip(u2) {
                assert!(*a == *b, "eigenvector bits differ");
            }
        }
    }

    /// The pivot-pool ROADMAP item: a warm pivoted factor+solve loop
    /// allocates no fresh index vectors either.
    #[test]
    fn warm_factor_loop_allocates_no_index_buffers() {
        let ws = Workspace::new();
        let n = 130;
        let a = {
            let mut a = ZMat::random(n, n, 17);
            for i in 0..n {
                a[(i, i)] += c64(4.0, 1.0);
            }
            a
        };
        let b = ZMat::random(n, 8, 18);
        let mut x = ws.take_scratch(n, 8);
        zgesv_into(&a, &b, &mut x, &ws).unwrap();
        ws.recycle(x);
        let idx_fresh = ws.fresh_index_allocations();
        assert!(idx_fresh >= 1, "pivoted factorization must pool its ipiv");
        for _ in 0..3 {
            let mut x = ws.take_scratch(n, 8);
            zgesv_into(&a, &b, &mut x, &ws).unwrap();
            ws.recycle(x);
        }
        assert_eq!(
            ws.fresh_index_allocations(),
            idx_fresh,
            "warm factor loop allocated fresh pivot vectors"
        );
    }
}

mod caroli_kernel {
    //! The one-sweep Caroli kernel against the dense trace, over random
    //! coupling supports and self-energies on a row subset or of low rank.

    use proptest::prelude::*;
    use qtx::linalg::{c64, gemm, lu_inverse, Complex64, Op, Workspace, ZMat};
    use qtx::solver::{caroli_sweep, ObcSystem};
    use qtx::sparse::{broadening_factor_ws, BlockChain, Btd};

    /// Deterministic coin for "is row/column `i` of coupling `block`
    /// structurally empty" under a support `pattern`:
    /// 0 dense · 1 one zero column · 2 one zero row · 3 one all-zero
    /// coupling block · 4 random rows and columns knocked out.
    fn masked(pattern: u32, seed: u64, block: usize, is_row: bool, i: usize, s: usize) -> bool {
        let pick = (seed as usize + block) % s;
        match pattern {
            1 => !is_row && i == pick,
            2 => is_row && i == pick,
            3 => block == (seed as usize) % 7,
            4 => {
                let h = seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(((block * 2 + is_row as usize) * 64 + i) as u64)
                    .wrapping_mul(0xBF58_476D_1CE4_E5B9);
                (h >> 40).is_multiple_of(3)
            }
            _ => false,
        }
    }

    fn coupling(s: usize, pattern: u32, seed: u64, block: usize, salt: u64) -> ZMat {
        let dense =
            ZMat::random(s, s, seed.wrapping_add(salt + block as u64)).scaled(c64(0.4, 0.0));
        ZMat::from_fn(s, s, |r, c| {
            if masked(pattern, seed, block, true, r, s) || masked(pattern, seed, block, false, c, s)
            {
                Complex64::ZERO
            } else {
                dense[(r, c)]
            }
        })
    }

    /// A diagonally dominant chain; Hermitian (`L_i = U_iᴴ`, Hermitian
    /// diagonal blocks) on request, otherwise with independent `L_i`.
    fn chain(nb: usize, s: usize, pattern: u32, seed: u64, hermitian: bool) -> Btd {
        let mut a = Btd::zeros(nb, s);
        for i in 0..nb {
            let mut d = ZMat::random(s, s, seed.wrapping_add(i as u64));
            if hermitian {
                d.hermitianize();
            }
            for k in 0..s {
                d[(k, k)] += c64(4.0 + s as f64, if hermitian { 0.0 } else { 0.7 });
            }
            a.diag[i] = d;
        }
        for i in 0..nb - 1 {
            a.upper[i] = coupling(s, pattern, seed, i, 1000);
            a.lower[i] = if hermitian {
                a.upper[i].adjoint()
            } else {
                // Masks transposed, so row and column supports differ.
                coupling(s, pattern, seed, i, 2000).transpose()
            };
        }
        a
    }

    fn sigma(s: usize, seed: u64, low_rank: bool) -> ZMat {
        if low_rank {
            // `Σ = U·Vᴴ` of rank ≤ ⌈s/2⌉ on every row.
            let r = 1 + (seed as usize) % s.div_ceil(2);
            let u = ZMat::random(s, r, seed).scaled(c64(0.5, 0.0));
            &u * &ZMat::random(s, r, seed + 1).scaled(c64(0.3, 0.4)).adjoint()
        } else {
            // A dense Σ whose first row is empty when there is room: the
            // structural row support is then a strict subset.
            let mut m = ZMat::random(s, s, seed).scaled(c64(0.3, -0.2));
            if s > 2 {
                for c in 0..s {
                    m[(0, c)] = Complex64::ZERO;
                }
            }
            m
        }
    }

    fn gamma(sig: &ZMat) -> ZMat {
        &sig.scaled(Complex64::I) - &sig.adjoint().scaled(Complex64::I)
    }

    fn system(a: Btd, sigma_l: ZMat, sigma_r: ZMat) -> ObcSystem {
        let s = a.block_size();
        ObcSystem { a, sigma_l, sigma_r, rhs_top: ZMat::zeros(s, 0), rhs_bottom: ZMat::zeros(s, 0) }
    }

    fn sweep(sys: &ObcSystem) -> f64 {
        let support = sys.a.coupling_support();
        caroli_sweep(&sys.a, &sys.sigma_l, &sys.sigma_r, &support, &Workspace::new()).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// `T` agrees with `tr[Γ_L·G·Γ_R·Gᴴ]` from the dense inverse for
        /// every chain length from a single block up, every coupling
        /// support pattern and a Σ on a strict row subset or of low rank on
        /// either side; on a
        /// Hermitian chain, swapping the contacts and reversing the chain
        /// gives the same `T` (reciprocity).
        #[test]
        fn sweep_matches_dense_trace_and_is_reciprocal(
            nb in 1usize..9,
            s in 1usize..7,
            pattern in 0u32..5,
            forms in 0u32..4,
            hermitian in 0u32..2,
            seed in 0u64..1_000_000,
        ) {
            let hermitian = hermitian == 1;
            let sys = system(
                chain(nb, s, pattern, seed, hermitian),
                sigma(s, seed + 31, forms & 1 == 1),
                sigma(s, seed + 47, forms & 2 == 2),
            );
            let (n, t) = (sys.dim(), sweep(&sys));
            let g = lu_inverse(&sys.t_dense()).unwrap().block(0, n - s, s, s);
            let reference =
                (&(&gamma(&sys.sigma_l) * &g) * &(&gamma(&sys.sigma_r) * &g.adjoint())).trace().re;
            prop_assert!(
                (t - reference).abs() < 1e-10,
                "nb={nb} s={s} pattern={pattern} forms={forms}: {t} vs {reference}"
            );
            if hermitian {
                let mut rev = Btd::zeros(nb, s);
                for i in 0..nb {
                    rev.diag[i] = sys.a.diag[nb - 1 - i].clone();
                }
                for i in 0..nb - 1 {
                    rev.upper[i] = sys.a.lower[nb - 2 - i].clone();
                    rev.lower[i] = sys.a.upper[nb - 2 - i].clone();
                }
                let t_rev = sweep(&system(rev, sys.sigma_r.clone(), sys.sigma_l.clone()));
                prop_assert!((t - t_rev).abs() < 1e-10, "reciprocity: {t} vs {t_rev}");
            }
        }

        /// `Γ = P·K·Pᴴ` holds to rounding for both kinds of Σ.
        #[test]
        fn broadening_factor_reconstructs_gamma(
            s in 1usize..9,
            low_rank in 0u32..2,
            seed in 0u64..1_000_000,
        ) {
            let sig = sigma(s, seed, low_rank == 1);
            let p = broadening_factor_ws(&sig, None, &Workspace::new());
            let k = p.cols() / 2;
            prop_assert!(p.cols() == 2 * k && k <= s);
            // P·K = [−i·Y, i·X] for P = [X, Y].
            let pk = ZMat::from_fn(s, 2 * k, |i, j| {
                if j < k { -Complex64::I * p[(i, k + j)] } else { Complex64::I * p[(i, j - k)] }
            });
            let mut rebuilt = ZMat::zeros(s, s);
            gemm(Complex64::ONE, &pk, Op::None, &p, Op::Adjoint, Complex64::ZERO, &mut rebuilt);
            prop_assert!(rebuilt.max_diff(&gamma(&sig)) < 1e-14);
        }
    }
}

mod transport_properties {
    use super::*;
    use qtx::core::{Device, PointPolicy, TransportEngine};
    use qtx::prelude::*;

    fn device_with_barrier(height: f64) -> Device {
        let spec = DeviceBuilder::nanowire(0.8).cells(8).basis(BasisKind::TightBinding).build();
        let mut dev = Device::build(spec).expect("device");
        let mut v = vec![0.0; dev.n_slabs];
        v[3] = height;
        v[4] = height;
        dev.set_potential(&v);
        dev
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Transmission is bounded by the channel count and unitarity
        /// holds for arbitrary barrier heights and probe positions.
        #[test]
        fn transmission_bounds_and_unitarity(
            height in 0.0f64..0.6,
            kprobe in 0.5f64..2.5,
        ) {
            let dev = device_with_barrier(height);
            let dk = dev.at_kz(0.0);
            if let Some(e) = dk.lead_l.dispersive_energy(kprobe, 0.2, 0.3) {
                let r = TransportEngine::new(dev.clone())
                    .solve_point(e, 0.0, &PointPolicy::direct())
                    .into_result()
                    .unwrap();
                prop_assert!(r.transmission >= -1e-9);
                prop_assert!(r.transmission <= r.channels.0 as f64 + 1e-6);
                if r.channels.0 > 0 {
                    prop_assert!(
                        (r.transmission + r.reflection - r.channels.0 as f64).abs() < 1e-5
                    );
                }
                // Reciprocity at zero bias.
                prop_assert!((r.transmission - r.transmission_rl).abs() < 1e-5);
            }
        }

        /// In the tunneling regime (probe energy below every barrier top)
        /// a higher barrier never increases the transmission. Above the
        /// barrier this would be false — over-the-barrier transmission
        /// oscillates (Fabry–Pérot) — so the probe is pinned under both
        /// barrier tops.
        #[test]
        fn barrier_monotonicity_in_tunneling_regime(h1 in 0.15f64..0.35) {
            let h2 = h1 + 0.25;
            let d1 = device_with_barrier(h1);
            let d2 = device_with_barrier(h2);
            let dk1 = d1.at_kz(0.0);
            if let Some(edge) = dk1.lead_l.dispersive_band_min(0.1, 0.3) {
                // E − h1 < edge ⇒ evanescent inside the lower barrier too.
                let e = edge + 0.4 * h1;
                let solve = |d: &Device| {
                    TransportEngine::new(d.clone())
                        .solve_point(e, 0.0, &PointPolicy::direct())
                        .into_result()
                        .unwrap()
                        .transmission
                };
                let (t1, t2) = (solve(&d1), solve(&d2));
                prop_assert!(t2 <= t1 + 1e-6, "T({h2}) = {t2} > T({h1}) = {t1}");
            }
        }
    }
}
