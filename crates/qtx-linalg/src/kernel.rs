//! The register-tile complex microkernel (`std::arch` SIMD + scalar).
//!
//! The packed gemm path in [`mod@crate::gemm`] bottoms out in one inner
//! routine: an `MR×NR` register tile accumulating `Σ_l a(i,l)·b(l,j)`
//! over a pair of planar (split re/im) micro-panels. This module owns
//! that routine and picks the widest implementation the host supports
//! **once, at first use, from CPU detection alone**:
//!
//! | variant  | tile  | ISA requirement      | k-loop                      |
//! |----------|-------|----------------------|-----------------------------|
//! | `avx512` | 8×8   | AVX-512F             | 2×-unrolled, 8-double lanes |
//! | `scalar` | 8×4   | none (portable)      | auto-vectorized             |
//!
//! The scalar kernel is the portable path (auto-vectorized to the host's
//! width under the repo's `target-cpu=native`) and the baseline the
//! equivalence battery compares the SIMD variant against. Because the
//! register-tile shape is part of the packing contract (panels are laid
//! out in `MR`-row / `NR`-column micro-panel order), [`Kernel`] carries
//! its `mr`/`nr` and the packing routines in [`mod@crate::gemm`] read them at
//! run time.
//!
//! # Numerical contract
//!
//! Every variant performs, per accumulator lane `(i, j)` and per k-step,
//! the same fused operation sequence as the scalar baseline:
//!
//! ```text
//! cr ← fma(−ai, bi, fma(ar, br, cr))    ci ← fma(ai, br, fma(ar, bi, ci))
//! ```
//!
//! so the variant never changes the *order* of the per-lane reduction —
//! only the hardware register width. When the scalar path itself compiles
//! with hardware FMA (the repo pins `target-cpu=native`), scalar and SIMD
//! results agree to the last bit on identical inputs; without hardware
//! FMA the scalar fallback rounds each multiply and add separately, which
//! the equivalence battery accommodates with a documented
//! `O(k·ε)`-per-element tolerance (one extra rounding per fused pair).
//!
//! # A kernel is a value
//!
//! Nothing selects the kernel but the CPU: there is no setter and no
//! environment variable. A test or bench that wants a *named* variant
//! asks [`kernel_of`] for it (`None` when the host lacks the ISA) and
//! passes the `&'static Kernel` to [`crate::gemm::gemm_with`], which runs
//! the same packed path the library does with that kernel handed down.

use std::sync::OnceLock;

/// Tallest register tile any variant uses (rows of C).
pub(crate) const MR_MAX: usize = 8;
/// Widest register tile any variant uses (columns of C).
pub(crate) const NR_MAX: usize = 8;

/// Accumulator block handed to a microkernel: `acc[j][i]` receives
/// element `(i, j)` of the register tile (column-major like the output).
pub(crate) type Acc = [[f64; MR_MAX]; NR_MAX];

/// One selectable microkernel implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelVariant {
    /// Portable auto-vectorized loop (always available; the baseline).
    Scalar,
    /// AVX-512F, 8-double lanes, widened 8×8 tile.
    Avx512,
}

impl KernelVariant {
    /// Stable lower-case name (what the benchmark's host record prints).
    pub fn name(self) -> &'static str {
        match self {
            KernelVariant::Scalar => "scalar",
            KernelVariant::Avx512 => "avx512",
        }
    }
}

/// The inner-routine signature every variant implements:
/// `(kc, ap_re, ap_im, bp_re, bp_im, acc_re, acc_im)` over the packed
/// planar panels described in [`Kernel::run`].
type MicroKernelFn = unsafe fn(usize, &[f64], &[f64], &[f64], &[f64], &mut Acc, &mut Acc);

/// A dispatched microkernel: the register-tile shape the packing layer
/// must honor plus the inner routine itself.
pub struct Kernel {
    /// Which implementation this is.
    pub variant: KernelVariant,
    /// Register-tile rows — the A-panel micro-row height.
    pub mr: usize,
    /// Register-tile columns — the B-panel micro-column width.
    pub nr: usize,
    ukr: MicroKernelFn,
}

impl Kernel {
    /// Runs the microkernel over one packed panel pair: `ap_*` hold the
    /// `mr`-row A micro-panel (element `(i, l)` at `l·mr + i`), `bp_*`
    /// the `nr`-column B micro-panel (element `(l, j)` at `l·nr + j`),
    /// both `kc` deep. The tile result lands in `acc[j][i]` for
    /// `i < mr`, `j < nr`; lanes outside the tile are left untouched.
    ///
    /// # Panics
    /// When a panel is shorter than `kc·mr` (A) or `kc·nr` (B): the SIMD
    /// variants read the panels through raw pointers.
    #[inline]
    #[allow(clippy::too_many_arguments)] // mirrors the BLIS ukr signature
    pub(crate) fn run(
        &self,
        kc: usize,
        ap_re: &[f64],
        ap_im: &[f64],
        bp_re: &[f64],
        bp_im: &[f64],
        acc_re: &mut Acc,
        acc_im: &mut Acc,
    ) {
        assert!(ap_re.len() >= kc * self.mr && ap_im.len() >= kc * self.mr, "A panel too short");
        assert!(bp_re.len() >= kc * self.nr && bp_im.len() >= kc * self.nr, "B panel too short");
        // SAFETY: each panel holds at least `kc·mr` (A) / `kc·nr` (B)
        // doubles (asserted above; four compares per ≥ `kc·256`-flop
        // tile), which is every element the routine reads, and `Acc` is
        // `MR_MAX × NR_MAX ≥ mr × nr`. The ISA the routine was compiled
        // for was detected before this `Kernel` became reachable: the only
        // ways to one are `kernel_of` and `active_kernel`, which check.
        unsafe { (self.ukr)(kc, ap_re, ap_im, bp_re, bp_im, acc_re, acc_im) }
    }
}

/// The portable baseline (the pre-dispatch 8×4 kernel, verbatim).
static SCALAR: Kernel = Kernel { variant: KernelVariant::Scalar, mr: 8, nr: 4, ukr: ukr_scalar };

#[cfg(target_arch = "x86_64")]
static AVX512: Kernel = Kernel { variant: KernelVariant::Avx512, mr: 8, nr: 8, ukr: ukr_avx512 };

/// The kernel of a named variant, `None` when the host cannot run it
/// (scalar always can). The only constructor of a non-scalar `&Kernel`,
/// so holding one proves its ISA is present.
pub fn kernel_of(v: KernelVariant) -> Option<&'static Kernel> {
    match v {
        KernelVariant::Scalar => Some(&SCALAR),
        #[cfg(target_arch = "x86_64")]
        KernelVariant::Avx512 => std::arch::is_x86_feature_detected!("avx512f").then_some(&AVX512),
        #[cfg(not(target_arch = "x86_64"))]
        KernelVariant::Avx512 => None,
    }
}

/// Every variant the host can run, widest last.
pub fn available_variants() -> Vec<KernelVariant> {
    [KernelVariant::Scalar, KernelVariant::Avx512]
        .into_iter()
        .filter(|&v| kernel_of(v).is_some())
        .collect()
}

/// The microkernel every library gemm runs on: the widest variant the
/// CPU supports, detected at the first call and fixed for the process.
pub fn active_kernel() -> &'static Kernel {
    static ACTIVE: OnceLock<&'static Kernel> = OnceLock::new();
    ACTIVE.get_or_init(|| kernel_of(KernelVariant::Avx512).unwrap_or(&SCALAR))
}

/// The variant [`active_kernel`] selected.
pub fn active_variant() -> KernelVariant {
    active_kernel().variant
}

// ── scalar baseline ─────────────────────────────────────────────────────

/// 8×4 register tile, separate re/im scalar accumulators — the exact
/// pre-dispatch kernel. The `MR`-wide inner loops auto-vectorize to
/// full-width FMAs when the target has them.
///
/// # Safety
/// None needed (every access is a checked slice index); `unsafe` only to
/// share [`MicroKernelFn`] with the `std::arch` variant.
unsafe fn ukr_scalar(
    kc: usize,
    ap_re: &[f64],
    ap_im: &[f64],
    bp_re: &[f64],
    bp_im: &[f64],
    acc_re: &mut Acc,
    acc_im: &mut Acc,
) {
    const MR: usize = 8;
    const NR: usize = 4;
    let mut cr = [[0.0f64; MR]; NR];
    let mut ci = [[0.0f64; MR]; NR];
    let a_iter = ap_re[..kc * MR].chunks_exact(MR).zip(ap_im[..kc * MR].chunks_exact(MR));
    let b_iter = bp_re[..kc * NR].chunks_exact(NR).zip(bp_im[..kc * NR].chunks_exact(NR));
    for ((ar, ai), (br, bi)) in a_iter.zip(b_iter) {
        for j in 0..NR {
            let brj = br[j];
            let bij = bi[j];
            let crj = &mut cr[j];
            let cij = &mut ci[j];
            #[cfg(target_feature = "fma")]
            for i in 0..MR {
                // Explicit mul_add: Rust never contracts `a*b + c` into an
                // FMA on its own; with the `fma` target feature these
                // lower to single vfmadd instructions and vectorize.
                crj[i] = ai[i].mul_add(-bij, ar[i].mul_add(brj, crj[i]));
                cij[i] = ai[i].mul_add(brj, ar[i].mul_add(bij, cij[i]));
            }
            #[cfg(not(target_feature = "fma"))]
            for i in 0..MR {
                // Without hardware FMA `mul_add` is a slow libm call;
                // plain multiply-add keeps the loop vectorizable.
                crj[i] += ar[i] * brj - ai[i] * bij;
                cij[i] += ar[i] * bij + ai[i] * brj;
            }
        }
    }
    for j in 0..NR {
        acc_re[j][..MR].copy_from_slice(&cr[j]);
        acc_im[j][..MR].copy_from_slice(&ci[j]);
    }
}

// ── AVX-512 ─────────────────────────────────────────────────────────────

/// Widened 8×8 tile on 8-double zmm lanes: 16 accumulators + 2 operand
/// vectors + 2 broadcast registers use 20 of the 32-register AVX-512
/// file, and the 16 independent fmadd→fnmadd chains keep both FMA ports
/// saturated. The k-loop is 2×-unrolled with both steps' A-vectors loaded
/// up front, so the loads of step `l+1` overlap the FMA chains of step
/// `l` (software pipelining; per-lane reduction order identical to the
/// scalar baseline).
///
/// # Safety
/// The CPU must support AVX-512F, `ap_*` must hold at least `kc·8` and
/// `bp_*` at least `kc·8` doubles: the loads below go through raw
/// pointers at offsets `< kc·MR` / `< kc·NR`. [`Kernel::run`] asserts the
/// lengths and [`kernel_of`] the ISA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn ukr_avx512(
    kc: usize,
    ap_re: &[f64],
    ap_im: &[f64],
    bp_re: &[f64],
    bp_im: &[f64],
    acc_re: &mut Acc,
    acc_im: &mut Acc,
) {
    use core::arch::x86_64::*;
    const MR: usize = 8;
    const NR: usize = 8;
    let apr = ap_re.as_ptr();
    let api = ap_im.as_ptr();
    let bpr = bp_re.as_ptr();
    let bpi = bp_im.as_ptr();
    let mut cr = [_mm512_setzero_pd(); NR];
    let mut ci = [_mm512_setzero_pd(); NR];
    let mut l = 0usize;
    while l + 2 <= kc {
        let ar0 = _mm512_loadu_pd(apr.add(l * MR));
        let ai0 = _mm512_loadu_pd(api.add(l * MR));
        let ar1 = _mm512_loadu_pd(apr.add((l + 1) * MR));
        let ai1 = _mm512_loadu_pd(api.add((l + 1) * MR));
        for j in 0..NR {
            let br = _mm512_set1_pd(*bpr.add(l * NR + j));
            let bi = _mm512_set1_pd(*bpi.add(l * NR + j));
            cr[j] = _mm512_fnmadd_pd(ai0, bi, _mm512_fmadd_pd(ar0, br, cr[j]));
            ci[j] = _mm512_fmadd_pd(ai0, br, _mm512_fmadd_pd(ar0, bi, ci[j]));
        }
        for j in 0..NR {
            let br = _mm512_set1_pd(*bpr.add((l + 1) * NR + j));
            let bi = _mm512_set1_pd(*bpi.add((l + 1) * NR + j));
            cr[j] = _mm512_fnmadd_pd(ai1, bi, _mm512_fmadd_pd(ar1, br, cr[j]));
            ci[j] = _mm512_fmadd_pd(ai1, br, _mm512_fmadd_pd(ar1, bi, ci[j]));
        }
        l += 2;
    }
    if l < kc {
        let ar0 = _mm512_loadu_pd(apr.add(l * MR));
        let ai0 = _mm512_loadu_pd(api.add(l * MR));
        for j in 0..NR {
            let br = _mm512_set1_pd(*bpr.add(l * NR + j));
            let bi = _mm512_set1_pd(*bpi.add(l * NR + j));
            cr[j] = _mm512_fnmadd_pd(ai0, bi, _mm512_fmadd_pd(ar0, br, cr[j]));
            ci[j] = _mm512_fmadd_pd(ai0, br, _mm512_fmadd_pd(ar0, bi, ci[j]));
        }
    }
    for j in 0..NR {
        _mm512_storeu_pd(acc_re[j].as_mut_ptr(), cr[j]);
        _mm512_storeu_pd(acc_im[j].as_mut_ptr(), ci[j]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_is_always_available_and_ladder_is_ordered() {
        let avail = available_variants();
        assert_eq!(avail.first().copied(), Some(KernelVariant::Scalar));
        assert_eq!(avail.last().copied(), Some(active_variant()));
    }

    #[test]
    fn tile_shapes_fit_the_declared_maxima() {
        for v in available_variants() {
            let k = kernel_of(v).unwrap();
            assert!(k.mr <= MR_MAX && k.nr <= NR_MAX, "{:?} tile exceeds Acc", v);
            assert_eq!(k.variant, v);
        }
    }

    /// `run` is safe: panels shorter than `kc` steps must panic before any
    /// raw load, in release builds too.
    fn run_on_empty_panels(v: KernelVariant) {
        // A host without the ISA has only the scalar tile to protect.
        let kern = kernel_of(v).unwrap_or(&SCALAR);
        let (mut re, mut im) = ([[0.0; MR_MAX]; NR_MAX], [[0.0; MR_MAX]; NR_MAX]);
        kern.run(1000, &[], &[], &[], &[], &mut re, &mut im);
    }

    #[test]
    #[should_panic(expected = "panel too short")]
    fn scalar_tile_rejects_short_panels() {
        run_on_empty_panels(KernelVariant::Scalar);
    }

    #[test]
    #[should_panic(expected = "panel too short")]
    fn avx512_tile_rejects_short_panels() {
        run_on_empty_panels(KernelVariant::Avx512);
    }

    /// Naive complex reference over the packed-panel layout.
    fn reference(
        kern: &Kernel,
        kc: usize,
        ap: &(Vec<f64>, Vec<f64>),
        bp: &(Vec<f64>, Vec<f64>),
    ) -> (Acc, Acc) {
        let (mut er, mut ei) = ([[0.0; MR_MAX]; NR_MAX], [[0.0; MR_MAX]; NR_MAX]);
        for l in 0..kc {
            for j in 0..kern.nr {
                for i in 0..kern.mr {
                    let (ar, ai) = (ap.0[l * kern.mr + i], ap.1[l * kern.mr + i]);
                    let (br, bi) = (bp.0[l * kern.nr + j], bp.1[l * kern.nr + j]);
                    er[j][i] += ar * br - ai * bi;
                    ei[j][i] += ar * bi + ai * br;
                }
            }
        }
        (er, ei)
    }

    #[test]
    fn every_available_variant_matches_the_naive_tile() {
        // kc values straddle the 2× unroll (odd remainders included).
        for v in available_variants() {
            let kern = kernel_of(v).unwrap();
            for kc in [1usize, 2, 3, 7, 32, 33] {
                let mut state = 0x9E37u64.wrapping_add(kc as u64);
                let mut next = move || {
                    state =
                        state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
                };
                let ap: (Vec<f64>, Vec<f64>) = (
                    (0..kc * kern.mr).map(|_| next()).collect(),
                    (0..kc * kern.mr).map(|_| next()).collect(),
                );
                let bp = (
                    (0..kc * kern.nr).map(|_| next()).collect::<Vec<_>>(),
                    (0..kc * kern.nr).map(|_| next()).collect::<Vec<_>>(),
                );
                let (mut ar, mut ai) = ([[0.0; MR_MAX]; NR_MAX], [[0.0; MR_MAX]; NR_MAX]);
                kern.run(kc, &ap.0, &ap.1, &bp.0, &bp.1, &mut ar, &mut ai);
                let (er, ei) = reference(kern, kc, &ap, &bp);
                for j in 0..kern.nr {
                    for i in 0..kern.mr {
                        let tol = 1e-14 * (kc as f64 + 1.0);
                        assert!(
                            (ar[j][i] - er[j][i]).abs() < tol && (ai[j][i] - ei[j][i]).abs() < tol,
                            "{v:?} kc={kc} ({i},{j}): {} vs {}",
                            ar[j][i],
                            er[j][i]
                        );
                    }
                }
            }
        }
    }
}
