//! Companion linearization of the lead polynomial eigenvalue problem.
//!
//! Folding (lead.rs) reduces Eq. 6 to the quadratic pencil
//!
//! ```text
//! (T10 + λ·T00 + λ²·T01) u = 0,      T = E·S − H,  λ = e^{i·k_B}
//! ```
//!
//! linearized as `A·x = λ·B·x` with `x = [λu; u]`,
//!
//! ```text
//! A = ⎡−T00  −T10⎤        B = ⎡T01  0⎤
//!     ⎣  I     0 ⎦            ⎣ 0   I⎦
//! ```
//!
//! of size `NBC = 2·nf = 2·NBW·n` (the paper's Eq. 8–9 companion). The
//! linear systems `(z·B − A)·x = y` that dominate FEAST (Eq. 10) reduce
//! analytically to one `nf`-sized solve of the polynomial evaluated at `z`
//! — the paper's "through an analytical block LU decomposition, their size
//! can be decreased" remark — implemented in [`CompanionPencil::solve_shifted`].

use crate::lead::LeadBlocks;
use qtx_linalg::{
    gemm_into, gemm_view, lu_factor, lu_factor_owned_ws, Complex64, LuFactors, Op, Result,
    Workspace, ZMat, ZMatMut, ZMatRef,
};

/// The quadratic companion pencil of a lead at fixed energy.
#[derive(Debug, Clone)]
pub struct CompanionPencil {
    /// `T00 = E·S00 − H00`.
    pub t00: ZMat,
    /// `T01 = E·S01 − H01`.
    pub t01: ZMat,
    /// `T10 = E·S01ᴴ − H01ᴴ`.
    pub t10: ZMat,
    /// Superblock dimension `nf`.
    pub nf: usize,
    /// The broadening `η` the blocks were built at (`E + iη`): FEAST's
    /// test for a Ritz value that may still be propagating reads it.
    pub(crate) eta: f64,
}

/// Node-independent operands of one projector application, built by
/// [`CompanionPencil::projector_rhs_ws`] and shared by all quadrature nodes.
#[derive(Debug)]
pub struct ProjectorRhs<'a> {
    /// `nf × 2m`: column `2j` holds `T01·y1ⱼ + T00·y2ⱼ`, column `2j + 1`
    /// holds `T01·y2ⱼ`.
    terms: ZMat,
    y2: ZMatRef<'a>,
}

impl ProjectorRhs<'_> {
    /// Hands the pooled products back.
    pub fn recycle_into(self, ws: &Workspace) {
        ws.recycle(self.terms);
    }
}

/// The factorization a shifted solve at node `z` runs on.
#[derive(Debug, Clone, Copy)]
pub enum NodeFactors<'a> {
    /// The LU of `P(z)` itself.
    Own(&'a LuFactors),
    /// The LU of `P(1/z̄)` of a pencil that [`CompanionPencil::is_hermitian`]:
    /// there `P(z) = z²·P(1/z̄)ᴴ`, so `P(z)⁻¹·r` is `z⁻²` times an adjoint
    /// solve on the reciprocal node's factors.
    Reciprocal(&'a LuFactors),
}

impl CompanionPencil {
    /// Builds the pencil at energy `e` (+iη broadening).
    pub fn at_energy(lead: &LeadBlocks, e: f64, eta: f64) -> Self {
        let (t00, t01, t10) = lead.t_blocks(e, eta);
        CompanionPencil { nf: t00.rows(), t00, t01, t10, eta }
    }

    /// Companion size `NBC = 2·nf`.
    pub fn nbc(&self) -> usize {
        2 * self.nf
    }

    /// Dense companion matrix `A` (tests and Rayleigh–Ritz products).
    pub fn a_dense(&self) -> ZMat {
        let nf = self.nf;
        let mut a = ZMat::zeros(2 * nf, 2 * nf);
        a.set_block(0, 0, &(-&self.t00));
        a.set_block(0, nf, &(-&self.t10));
        a.set_block(nf, 0, &ZMat::identity(nf));
        a
    }

    /// Dense companion matrix `B`.
    pub fn b_dense(&self) -> ZMat {
        let nf = self.nf;
        let mut b = ZMat::zeros(2 * nf, 2 * nf);
        b.set_block(0, 0, &self.t01);
        b.set_block(nf, nf, &ZMat::identity(nf));
        b
    }

    /// Applies `B` to a block vector without materializing it.
    pub fn apply_b(&self, y: &ZMat) -> ZMat {
        self.apply_b_ws(y, &Workspace::new())
    }

    /// [`CompanionPencil::apply_b`] over pooled scratch: the halves of `y`
    /// are read through zero-copy block views and the only product writes
    /// into a recycled buffer.
    pub fn apply_b_ws(&self, y: &ZMat, ws: &Workspace) -> ZMat {
        let nf = self.nf;
        assert_eq!(y.rows(), 2 * nf);
        let m = y.cols();
        let y1 = y.block_view(0, 0, nf, m);
        let y2 = y.block_view(nf, 0, nf, m);
        let top = ws.matmul_op_view(self.t01.view(), Op::None, y1, Op::None);
        let mut out = ws.take(2 * nf, m);
        out.set_block(0, 0, &top);
        ws.recycle(top);
        out.set_block_view(nf, 0, y2);
        out
    }

    /// Applies `A` to a block vector without materializing it.
    pub fn apply_a(&self, y: &ZMat) -> ZMat {
        self.apply_a_ws(y, &Workspace::new())
    }

    /// [`CompanionPencil::apply_a`] over pooled scratch.
    pub fn apply_a_ws(&self, y: &ZMat, ws: &Workspace) -> ZMat {
        let nf = self.nf;
        assert_eq!(y.rows(), 2 * nf);
        let m = y.cols();
        let y1 = y.block_view(0, 0, nf, m);
        let y2 = y.block_view(nf, 0, nf, m);
        // top = −T00·y1 − T10·y2, accumulated in one pooled buffer.
        let mut top = ws.take(nf, m);
        let minus_one = -Complex64::ONE;
        gemm_view(minus_one, self.t00.view(), Op::None, y1, Op::None, Complex64::ZERO, &mut top);
        gemm_view(minus_one, self.t10.view(), Op::None, y2, Op::None, Complex64::ONE, &mut top);
        let mut out = ws.take(2 * nf, m);
        out.set_block(0, 0, &top);
        ws.recycle(top);
        out.set_block_view(nf, 0, y1);
        out
    }

    /// Evaluates the quadratic matrix polynomial `P(z) = z²·T01 + z·T00 + T10`.
    pub fn poly_at(&self, z: Complex64) -> ZMat {
        let mut p = self.t01.scaled(z * z);
        p.axpy(z, &self.t00);
        p.axpy(Complex64::ONE, &self.t10);
        p
    }

    /// Whether this is the pencil of a Hermitian lead at a real energy,
    /// entry for entry: `T00 = T00ᴴ` and `T10 = T01ᴴ` as stored numbers.
    /// Then `P(1/z̄) = z̄⁻²·(z̄²·T10 + z̄·T00 + T01) = z̄⁻²·P(z)ᴴ` is an
    /// identity, not an approximation, and the two circles of the annulus
    /// contour (nodes `z` and `1/z̄`) can share one factorization per angle
    /// ([`NodeFactors::Reciprocal`]). Any broadening `η > 0` puts `iη·S00`
    /// on the diagonal of `T00` and fails the test.
    pub fn is_hermitian(&self) -> bool {
        let nf = self.nf;
        (0..nf).all(|j| {
            (0..nf).all(|i| {
                self.t10[(i, j)] == self.t01[(j, i)].conj()
                    && (i > j || self.t00[(i, j)] == self.t00[(j, i)].conj())
            })
        })
    }

    /// Whether the three blocks are real as stored numbers (`im == 0.0`
    /// entry for entry, no tolerance): a lead with real `H` and `S` at a
    /// real energy. Then `P(z̄) = conj(P(z))` is an identity, the contour
    /// projector is a real matrix and FEAST integrates over the upper half
    /// plane only. Any broadening `η > 0` puts `iη·S00` on the diagonal of
    /// `T00`, and a Bloch phase `kz ≠ 0` complex couplings, and fails it.
    pub fn is_real(&self) -> bool {
        [&self.t00, &self.t01, &self.t10].iter().all(|t| t.as_slice().iter().all(|v| v.im == 0.0))
    }

    /// Deterministic fault-injection key for this pencil's quadrature
    /// factorizations: mixes the node `z` with pencil content (which
    /// carries `E`, `η` and the lead), so an escalation that changes the
    /// broadening or the quadrature draws a fresh fault decision while a
    /// plain retry of the identical computation fails identically.
    fn injection_key(&self, z: Complex64) -> u64 {
        let t = self.t00[(0, 0)];
        qtx_linalg::fault::key_of(&[z.re, z.im, t.re, t.im])
    }

    /// The `factor_poly` fault chokepoint of quadrature node `z`, drawn once
    /// per node whether the node factors `P(z)` itself, borrows the
    /// reciprocal node's factors or, on a real pencil, is the conjugate of a
    /// solved node and never solved — so a campaign fails the same nodes
    /// either way.
    pub(crate) fn draw_factor_fault(&self, z: Complex64) -> Result<()> {
        if qtx_linalg::fault::should_fail("factor_poly", self.injection_key(z)) {
            return Err(qtx_linalg::LinalgError::Injected { site: "factor_poly" });
        }
        Ok(())
    }

    /// Factorizes `P(z)` once; reused across all FEAST right-hand sides at
    /// the same integration point.
    pub fn factor_poly(&self, z: Complex64) -> Result<LuFactors> {
        self.draw_factor_fault(z)?;
        lu_factor(&self.poly_at(z))
    }

    /// [`CompanionPencil::factor_poly`] with the polynomial evaluation
    /// borrowed from `ws` and factored in place (zero copies), pivot
    /// index buffers included; hand everything back via
    /// [`LuFactors::recycle_into`] when the factors are spent.
    pub fn factor_poly_ws(&self, z: Complex64, ws: &Workspace) -> Result<LuFactors> {
        self.draw_factor_fault(z)?;
        let mut p = ws.copy_of(&self.t01);
        p.scale_assign(z * z);
        p.axpy(z, &self.t00);
        p.axpy(Complex64::ONE, &self.t10);
        lu_factor_owned_ws(p, ws)
    }

    /// Solves `(z·B − A)·x = y` through the `nf`-sized polynomial solve:
    ///
    /// with `x = [x1; x2]`, `y = [y1; y2]`:
    /// `x1 = z·x2 − y2` and `P(z)·x2 = y1 + (z·T01 + T00)·y2`.
    pub fn solve_shifted(&self, factors: &LuFactors, z: Complex64, y: &ZMat) -> ZMat {
        self.solve_shifted_ws(factors, z, y, &Workspace::new())
    }

    /// [`CompanionPencil::solve_shifted`] over pooled scratch (Beyn's moment
    /// and polish solves; FEAST's quadrature loop shares its products across
    /// nodes through [`CompanionPencil::solve_projector_ws`]).
    pub fn solve_shifted_ws(
        &self,
        factors: &LuFactors,
        z: Complex64,
        y: &ZMat,
        ws: &Workspace,
    ) -> ZMat {
        let nf = self.nf;
        assert_eq!(y.rows(), 2 * nf);
        let m = y.cols();
        let y1 = y.block_view(0, 0, nf, m);
        let y2 = y.block_view(nf, 0, nf, m);
        // rhs = y1 + (z·T01 + T00)·y2
        let mut zt01_t00 = ws.copy_of(&self.t01);
        zt01_t00.scale_assign(z);
        zt01_t00.axpy(Complex64::ONE, &self.t00);
        let mut rhs = ws.copy_of_view(y1);
        gemm_view(
            Complex64::ONE,
            zt01_t00.view(),
            Op::None,
            y2,
            Op::None,
            Complex64::ONE,
            &mut rhs,
        );
        ws.recycle(zt01_t00);
        self.finish_shifted(NodeFactors::Own(factors), z, rhs, y2, ws)
    }

    /// Tail shared by both shifted solves: back-substitutes `P(z)·x2 = rhs`
    /// in place (the pooled right-hand side becomes `x2`) and assembles
    /// `x = [z·x2 − y2; x2]`.
    fn finish_shifted(
        &self,
        factors: NodeFactors<'_>,
        z: Complex64,
        mut x2: ZMat,
        y2: ZMatRef<'_>,
        ws: &Workspace,
    ) -> ZMat {
        let nf = self.nf;
        let m = x2.cols();
        match factors {
            NodeFactors::Own(f) => f.solve_in_place(&mut x2),
            NodeFactors::Reciprocal(f) => {
                f.solve_adjoint_in_place(&mut x2);
                x2.scale_assign((z * z).inv());
            }
        }
        let mut x = ws.take_scratch(2 * nf, m);
        for j in 0..m {
            let x2col = x2.col(j);
            let y2col = y2.col(j);
            let (top, bottom) = x.col_mut(j).split_at_mut(nf);
            for i in 0..nf {
                top[i] = z * x2col[i] - y2col[i];
            }
            bottom.copy_from_slice(x2col);
        }
        ws.recycle(x2);
        x
    }

    /// The node-independent half of FEAST's quadrature right-hand sides
    /// for columns `c0..` of the block `y = [y1; y2]`.
    ///
    /// Every node solves `(z·B − A)·x = B·y`, i.e.
    /// `P(z)·x2 = T01·(y1 + z·y2) + T00·y2`: only the scalar `z` changes
    /// from node to node, so `T01·y1 + T00·y2` and `T01·y2` are formed once
    /// (two gemms) and each node combines them in O(nf·m). A column-major
    /// `2nf × m` block read as `nf × 2m` interleaves `y1`/`y2` column by
    /// column, so one gemm against `T01` yields both products.
    pub fn projector_rhs_ws<'a>(&self, y: &'a ZMat, c0: usize, ws: &Workspace) -> ProjectorRhs<'a> {
        let nf = self.nf;
        assert_eq!(y.rows(), 2 * nf);
        let m = y.cols() - c0;
        let cols = ZMatRef::from_slice(&y.as_slice()[c0 * 2 * nf..], nf, 2 * m, nf);
        let mut terms = ws.matmul_op_view(self.t01.view(), Op::None, cols, Op::None);
        let y2 = y.block_view(nf, c0, nf, m);
        // Even columns (the `T01·y1` half) additionally take `T00·y2`.
        let even = ZMatMut::from_slice(terms.as_mut_slice(), nf, m, 2 * nf);
        gemm_into(Complex64::ONE, self.t00.view(), Op::None, y2, Op::None, Complex64::ONE, even);
        ProjectorRhs { terms, y2 }
    }

    /// Solves `(z·B − A)·x = B·y` for the columns prepared by
    /// [`CompanionPencil::projector_rhs_ws`] — the same `x` as
    /// `solve_shifted_ws(factors, z, &apply_b(y), ws)` without the per-node
    /// `z·T01 + T00` temporary and product.
    pub fn solve_projector_ws(
        &self,
        factors: NodeFactors<'_>,
        z: Complex64,
        rhs: &ProjectorRhs<'_>,
        ws: &Workspace,
    ) -> ZMat {
        let nf = self.nf;
        let m = rhs.y2.cols();
        let mut x2 = ws.take_scratch(nf, m);
        for j in 0..m {
            let fixed = rhs.terms.col(2 * j);
            let linear = rhs.terms.col(2 * j + 1);
            for (i, out) in x2.col_mut(j).iter_mut().enumerate() {
                *out = fixed[i] + z * linear[i];
            }
        }
        self.finish_shifted(factors, z, x2, rhs.y2, ws)
    }

    /// The pencil magnitude [`CompanionPencil::residual`] measures against:
    /// the sum of the three blocks' max-norms (three `nf²` scans — callers
    /// with many eigenpairs take it once).
    pub fn scale(&self) -> f64 {
        (self.t00.norm_max() + self.t01.norm_max() + self.t10.norm_max()).max(1e-300)
    }

    /// Residual of a quadratic eigenpair: `‖(T10 + λT00 + λ²T01)u‖₂ / ‖u‖₂`
    /// scaled by the pencil magnitude.
    pub fn residual(&self, lambda: Complex64, u: &[Complex64]) -> f64 {
        self.residual_scaled(lambda, u, self.scale())
    }

    /// [`CompanionPencil::residual`] against a [`CompanionPencil::scale`]
    /// the caller already holds.
    pub fn residual_scaled(&self, lambda: Complex64, u: &[Complex64], scale: f64) -> f64 {
        let mut p = self.t10.matvec(u);
        let t00u = self.t00.matvec(u);
        let t01u = self.t01.matvec(u);
        let l2 = lambda * lambda;
        for i in 0..p.len() {
            p[i] = p[i] + lambda * t00u[i] + l2 * t01u[i];
        }
        let num = p.iter().map(|v| v.norm_sqr()).sum::<f64>().sqrt();
        let den =
            u.iter().map(|v| v.norm_sqr()).sum::<f64>().sqrt() * scale * (1.0 + lambda.norm_sqr());
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtx_linalg::{c64, zgesv};

    fn sample_pencil() -> CompanionPencil {
        // Small Hermitian lead with invertible couplings.
        let mut h00 = ZMat::random(3, 3, 11);
        h00.hermitianize();
        let h01 = ZMat::random(3, 3, 12);
        let lead = LeadBlocks::new(h00, h01, ZMat::identity(3), ZMat::zeros(3, 3));
        CompanionPencil::at_energy(&lead, 0.37, 0.0)
    }

    #[test]
    fn apply_matches_dense() {
        let p = sample_pencil();
        let y = ZMat::random(p.nbc(), 2, 5);
        let a = p.a_dense();
        let b = p.b_dense();
        assert!(p.apply_a(&y).max_diff(&(&a * &y)) < 1e-12);
        assert!(p.apply_b(&y).max_diff(&(&b * &y)) < 1e-12);
    }

    #[test]
    fn shifted_solve_matches_dense_solve() {
        let p = sample_pencil();
        let z = c64(0.8, 0.6); // on the unit circle
        let y = ZMat::random(p.nbc(), 3, 7);
        // Dense reference: (zB − A) x = y.
        let zb_a = &p.b_dense().scaled(z) - &p.a_dense();
        let x_ref = zgesv(&zb_a, &y).unwrap();
        let f = p.factor_poly(z).unwrap();
        let x = p.solve_shifted(&f, z, &y);
        assert!(x.max_diff(&x_ref) < 1e-9, "diff = {:.3e}", x.max_diff(&x_ref));
    }

    #[test]
    fn hoisted_projector_rhs_matches_per_node_shifted_solve() {
        let mut h00 = ZMat::random(7, 7, 21);
        h00.hermitianize();
        let lead =
            LeadBlocks::new(h00, ZMat::random(7, 7, 22), ZMat::identity(7), ZMat::zeros(7, 7));
        let p = CompanionPencil::at_energy(&lead, -0.21, 0.0);
        let ws = Workspace::new();
        let y = ZMat::random(p.nbc(), 5, 23);
        let by = p.apply_b(&y);
        // All columns, and the appended tail a growing block solves alone.
        for c0 in [0, 3] {
            let rhs = p.projector_rhs_ws(&y, c0, &ws);
            for z in [c64(0.8, 0.6), Complex64::from_polar(16.0, 2.1), c64(0.03, -0.05)] {
                let f = p.factor_poly(z).unwrap();
                let reference = p.solve_shifted_ws(&f, z, &by, &ws);
                let x = p.solve_projector_ws(NodeFactors::Own(&f), z, &rhs, &ws);
                let tail = reference.block(0, c0, p.nbc(), 5 - c0);
                let scale = reference.norm_max().max(1.0);
                assert!(x.max_diff(&tail) < 1e-12 * scale, "c0 = {c0}, z = {z}");
            }
            rhs.recycle_into(&ws);
        }
    }

    #[test]
    fn reciprocal_node_solves_on_the_adjoint_of_the_outer_factors() {
        // Hermitian lead with a non-trivial overlap, real energy: the
        // pencil passes the entrywise test and the inner-circle node 1/z̄
        // solves through P(z)'s factors to the accuracy of a fresh LU.
        let n = 9;
        let mut h00 = ZMat::random(n, n, 31);
        h00.hermitianize();
        let mut s00 = ZMat::random(n, n, 33).scaled(c64(0.05, 0.0));
        s00.hermitianize();
        s00.axpy(Complex64::ONE, &ZMat::identity(n));
        let s01 = ZMat::random(n, n, 34).scaled(c64(0.05, 0.0));
        let lead = LeadBlocks::new(h00, ZMat::random(n, n, 32), s00, s01);
        let p = CompanionPencil::at_energy(&lead, 0.23, 0.0);
        assert!(p.is_hermitian());
        let ws = Workspace::new();
        let y = ZMat::random(p.nbc(), 4, 35);
        let rhs = p.projector_rhs_ws(&y, 0, &ws);
        for z_outer in [Complex64::from_polar(16.0, 0.3), Complex64::from_polar(1.7, -2.2)] {
            let z_inner = z_outer.conj().inv();
            let outer = p.factor_poly(z_outer).unwrap();
            let fresh = p.factor_poly(z_inner).unwrap();
            let reference = p.solve_projector_ws(NodeFactors::Own(&fresh), z_inner, &rhs, &ws);
            let x = p.solve_projector_ws(NodeFactors::Reciprocal(&outer), z_inner, &rhs, &ws);
            let scale = reference.norm_max().max(1.0);
            assert!(
                x.max_diff(&reference) < 1e-12 * scale,
                "|z| = {}: {:.2e}",
                z_outer.abs(),
                x.max_diff(&reference) / scale
            );
        }
        rhs.recycle_into(&ws);
        // Any broadening breaks the identity, and the test says so.
        assert!(!CompanionPencil::at_energy(&lead, 0.23, 1e-6).is_hermitian());
        // So does a coupling that is not the adjoint of its partner.
        let mut skew = p.clone();
        skew.t10[(0, 1)] += c64(1e-14, 0.0);
        assert!(!skew.is_hermitian());
    }

    #[test]
    fn chain_pencil_roots_on_unit_circle_in_band() {
        // 1-D chain at an in-band energy: quadratic roots are e^{±ik}.
        let lead = LeadBlocks::chain_1d(0.0, -1.0);
        let p = CompanionPencil::at_energy(&lead, 0.5, 0.0);
        // P(λ) u = 0 reduces to −λ²·(−1)... : t01 = 1, t00 = E, t10 = 1
        // λ² + Eλ/t + 1 → roots with |λ| = 1 for |E| < 2|t|.
        let a = p.a_dense();
        let b = p.b_dense();
        let dec = qtx_linalg::eig_generalized(&a, &b).unwrap();
        for v in &dec.values {
            assert!((v.abs() - 1.0).abs() < 1e-8, "root {v} not on unit circle");
        }
        // Product of roots is 1 (λ·λ* pair e^{ik}·e^{−ik}).
        let prod = dec.values[0] * dec.values[1];
        assert!((prod - Complex64::ONE).abs() < 1e-8);
    }

    #[test]
    fn companion_eigenvector_structure() {
        // For every companion eigenpair, the top block equals λ·(bottom).
        let p = sample_pencil();
        let dec = qtx_linalg::eig_generalized(&p.a_dense(), &p.b_dense()).unwrap();
        let nf = p.nf;
        let mut checked = 0;
        for (j, &lam) in dec.values.iter().enumerate() {
            if !lam.is_finite() || lam.abs() > 1e6 || lam.abs() < 1e-6 {
                continue;
            }
            let top: Vec<Complex64> = (0..nf).map(|i| dec.vectors[(i, j)]).collect();
            let bot: Vec<Complex64> = (0..nf).map(|i| dec.vectors[(nf + i, j)]).collect();
            let bot_norm = bot.iter().map(|v| v.norm_sqr()).sum::<f64>().sqrt();
            if bot_norm < 1e-8 {
                continue;
            }
            for i in 0..nf {
                assert!((top[i] - lam * bot[i]).abs() < 1e-6 * (1.0 + lam.abs()));
            }
            // And the bottom block solves the quadratic pencil.
            assert!(p.residual(lam, &bot) < 1e-8, "pencil residual too large");
            checked += 1;
        }
        assert!(checked >= 2, "need at least a couple of finite eigenpairs");
    }
}
