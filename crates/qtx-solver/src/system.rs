//! The open-boundary linear system `T·x = b` of Eq. 5 and Fig. 4.

use qtx_linalg::ZMat;
use qtx_sparse::{BlockChain, Btd, ChainSupport};

/// `T·x = Inj` with `T = A − B·C`:
///
/// * `a` — the block tri-diagonal `E·S − H` *before* boundary terms;
/// * `sigma_l`/`sigma_r` — the boundary self-energies subtracted from the
///   first/last diagonal blocks (the low-rank `B·C` product of §3.B with
///   `B` holding identity sub-blocks and `C` the self-energies), each the
///   exact dense `s × s` block the OBC layer produced;
/// * `rhs_top`/`rhs_bottom` — injection columns living in the first/last
///   block rows only.
#[derive(Debug, Clone)]
pub struct ObcSystem {
    /// Block tri-diagonal bulk matrix `A = E·S − H`.
    pub a: Btd,
    /// Left boundary self-energy (`s × s`, `s` = block size).
    pub sigma_l: ZMat,
    /// Right boundary self-energy.
    pub sigma_r: ZMat,
    /// Left-injected right-hand-side columns (`s × m_L`).
    pub rhs_top: ZMat,
    /// Right-injected right-hand-side columns (`s × m_R`).
    pub rhs_bottom: ZMat,
}

impl ObcSystem {
    /// Block size `s`.
    pub fn block_size(&self) -> usize {
        self.a.block_size()
    }

    /// Number of diagonal blocks `n_B`.
    pub fn num_blocks(&self) -> usize {
        self.a.num_blocks()
    }

    /// Total dimension `N_SS`.
    pub fn dim(&self) -> usize {
        self.a.dim()
    }

    /// Total right-hand-side columns.
    pub fn num_rhs(&self) -> usize {
        self.rhs_top.cols() + self.rhs_bottom.cols()
    }

    /// The structure a streaming solver reads, derived from the system
    /// itself: the coupling supports of `a` and, per contact, the rows its
    /// own self-energy and injection occupy.
    pub fn chain_support(&self) -> ChainSupport {
        let occupied = |sigma: &ZMat, rhs: &ZMat| -> Vec<usize> {
            let mut hit = vec![false; sigma.rows()];
            for m in [sigma, rhs] {
                for j in 0..m.cols() {
                    for (h, z) in hit.iter_mut().zip(m.col(j)) {
                        *h |= z.re != 0.0 || z.im != 0.0;
                    }
                }
            }
            hit.iter().enumerate().filter_map(|(row, &h)| h.then_some(row)).collect()
        };
        ChainSupport {
            coupling: self.a.coupling_support(),
            contact_l: occupied(&self.sigma_l, &self.rhs_top),
            contact_r: occupied(&self.sigma_r, &self.rhs_bottom),
        }
    }

    /// The full matrix `T = A − BC` densified (small tests only).
    pub fn t_dense(&self) -> ZMat {
        let mut t = self.a.to_dense();
        let s = self.block_size();
        let n = self.dim();
        let (sl, sr) = (&self.sigma_l, &self.sigma_r);
        for i in 0..s {
            for j in 0..s {
                let tl = t[(i, j)];
                t[(i, j)] = tl - sl[(i, j)];
                let br = t[(n - s + i, n - s + j)];
                t[(n - s + i, n - s + j)] = br - sr[(i, j)];
            }
        }
        t
    }

    /// The dense right-hand side with the Fig. 4 sparsity (top block rows
    /// carry left-injection columns, bottom rows right-injection columns).
    pub fn b_dense(&self) -> ZMat {
        let s = self.block_size();
        let n = self.dim();
        let m = self.num_rhs();
        let mut b = ZMat::zeros(n, m);
        b.set_block(0, 0, &self.rhs_top);
        b.set_block(n - s, self.rhs_top.cols(), &self.rhs_bottom);
        b
    }

    /// Stacked boundary blocks `b' = [b_top; b_bottom]` (`2s × m`) — the
    /// compressed RHS Steps 2–4 operate on.
    pub fn b_prime(&self) -> ZMat {
        let mut bp = ZMat::zeros(2 * self.block_size(), self.num_rhs());
        self.b_prime_into(&mut bp);
        bp
    }

    /// Writes `b'` into a caller-provided (zeroed) `2s × m` matrix — the
    /// single place encoding the boundary-RHS layout (left-injected
    /// columns first, right-injected columns at offset `rhs_top.cols()`).
    pub fn b_prime_into(&self, bp: &mut ZMat) {
        let s = self.block_size();
        assert_eq!((bp.rows(), bp.cols()), (2 * s, self.num_rhs()), "b_prime shape");
        bp.set_block(0, 0, &self.rhs_top);
        bp.set_block(s, self.rhs_top.cols(), &self.rhs_bottom);
    }

    /// Residual `‖T·x − b‖_max` of a candidate solution (dense check).
    pub fn residual(&self, x: &ZMat) -> f64 {
        let t = self.t_dense();
        let b = self.b_dense();
        (&(&t * x) - &b).norm_max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtx_linalg::{c64, Complex64};

    pub fn random_system(nb: usize, s: usize, m: usize, seed: u64) -> ObcSystem {
        let mut a = Btd::zeros(nb, s);
        for i in 0..nb {
            a.diag[i] = ZMat::random(s, s, seed + i as u64);
            for d in 0..s {
                a.diag[i][(d, d)] += c64(3.0 + s as f64, 1.0);
            }
        }
        for i in 0..nb - 1 {
            a.upper[i] = ZMat::random(s, s, seed + 100 + i as u64).scaled(c64(0.4, 0.0));
            a.lower[i] = ZMat::random(s, s, seed + 200 + i as u64).scaled(c64(0.4, 0.0));
        }
        ObcSystem {
            a,
            sigma_l: ZMat::random(s, s, seed + 300).scaled(c64(0.3, 0.1)),
            sigma_r: ZMat::random(s, s, seed + 301).scaled(c64(0.3, -0.1)),
            rhs_top: ZMat::random(s, m, seed + 400),
            rhs_bottom: ZMat::random(s, m, seed + 401),
        }
    }

    #[test]
    fn dense_forms_are_consistent() {
        let sys = random_system(4, 3, 2, 9);
        let t = sys.t_dense();
        // Corners carry −Σ.
        let d0 = sys.a.diag[0].clone();
        assert!((t[(0, 0)] - (d0[(0, 0)] - sys.sigma_l[(0, 0)])).abs() < 1e-14);
        let b = sys.b_dense();
        assert_eq!(b.cols(), 4);
        // Middle block rows of b are zero (Fig. 4).
        for i in 3..9 {
            for j in 0..4 {
                assert_eq!(b[(i, j)], Complex64::ZERO);
            }
        }
    }

    #[test]
    fn b_prime_stacks_boundary_blocks() {
        let sys = random_system(3, 2, 1, 11);
        let bp = sys.b_prime();
        assert_eq!((bp.rows(), bp.cols()), (4, 2));
        assert_eq!(bp[(0, 0)], sys.rhs_top[(0, 0)]);
        assert_eq!(bp[(2, 1)], sys.rhs_bottom[(0, 0)]);
    }
}
