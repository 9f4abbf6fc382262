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
//! A real operand is a packing flag, not a kernel family: `Planes` says
//! which operands are real, the packing layer then fills only their re
//! plane, and each variant is instantiated once per `Planes` value with
//! the FMA chains that would read the missing im planes compiled out —
//! two of four for a real `A` against a complex `B`, three of four for
//! two real operands (whose tile has no im part at all).
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

/// Which operands of a packed product are real: their im plane is never
/// packed nor read, and the tile skips the FMA chains it would feed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Planes {
    /// Both operands complex: four FMA chains per lane.
    Complex = 0,
    /// `A` real, `B` complex: `cr += ar·br`, `ci += ar·bi`.
    RealA = 1,
    /// Both real: `cr += ar·br`; the im accumulators are not written.
    Real = 2,
}

const COMPLEX: u8 = Planes::Complex as u8;
const REAL_A: u8 = Planes::RealA as u8;
const REAL: u8 = Planes::Real as u8;

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
    /// The inner routine per [`Planes`] value (indexed by its discriminant).
    ukr: [MicroKernelFn; 3],
}

impl Kernel {
    /// Runs the microkernel over one packed panel pair: `ap_*` hold the
    /// `mr`-row A micro-panel (element `(i, l)` at `l·mr + i`), `bp_*`
    /// the `nr`-column B micro-panel (element `(l, j)` at `l·nr + j`),
    /// both `kc` deep. The tile result lands in `acc[j][i]` for
    /// `i < mr`, `j < nr`; lanes outside the tile are left untouched.
    /// The im plane of a real operand (`planes`) is never read, and with
    /// both operands real neither is `acc_im`.
    ///
    /// # Panics
    /// When a panel that is read is shorter than `kc·mr` (A) or `kc·nr`
    /// (B): the SIMD variants read the panels through raw pointers.
    #[inline]
    #[allow(clippy::too_many_arguments)] // mirrors the BLIS ukr signature
    pub(crate) fn run(
        &self,
        planes: Planes,
        kc: usize,
        ap_re: &[f64],
        ap_im: &[f64],
        bp_re: &[f64],
        bp_im: &[f64],
        acc_re: &mut Acc,
        acc_im: &mut Acc,
    ) {
        let (a_im, b_im) = match planes {
            Planes::Complex => (kc * self.mr, kc * self.nr),
            Planes::RealA => (0, kc * self.nr),
            Planes::Real => (0, 0),
        };
        assert!(ap_re.len() >= kc * self.mr && ap_im.len() >= a_im, "A panel too short");
        assert!(bp_re.len() >= kc * self.nr && bp_im.len() >= b_im, "B panel too short");
        // SAFETY: each panel the `planes` instantiation reads holds at
        // least `kc·mr` (A) / `kc·nr` (B) doubles (asserted above; four
        // compares per ≥ `kc·64`-flop tile), which is every element the
        // routine reads, and `Acc` is
        // `MR_MAX × NR_MAX ≥ mr × nr`. The ISA the routine was compiled
        // for was detected before this `Kernel` became reachable: the only
        // ways to one are `kernel_of` and `active_kernel`, which check.
        unsafe { (self.ukr[planes as usize])(kc, ap_re, ap_im, bp_re, bp_im, acc_re, acc_im) }
    }
}

/// The portable baseline (the pre-dispatch 8×4 kernel, verbatim).
static SCALAR: Kernel = Kernel {
    variant: KernelVariant::Scalar,
    mr: 8,
    nr: 4,
    ukr: [ukr_scalar::<COMPLEX>, ukr_scalar::<REAL_A>, ukr_scalar::<REAL>],
};

#[cfg(target_arch = "x86_64")]
static AVX512: Kernel = Kernel {
    variant: KernelVariant::Avx512,
    mr: 8,
    nr: 8,
    ukr: [ukr_avx512::<COMPLEX>, ukr_avx512::<REAL_A>, ukr_avx512::<REAL>],
};

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
/// pre-dispatch kernel at `P = COMPLEX`. The `MR`-wide inner loops
/// auto-vectorize to full-width FMAs when the target has them.
///
/// # Safety
/// None needed (every access is a checked slice index); `unsafe` only to
/// share [`MicroKernelFn`] with the `std::arch` variant.
unsafe fn ukr_scalar<const P: u8>(
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
    let a_re = ap_re[..kc * MR].chunks_exact(MR);
    let b_re = bp_re[..kc * NR].chunks_exact(NR);
    if P == REAL {
        for (ar, br) in a_re.zip(b_re) {
            for j in 0..NR {
                let brj = br[j];
                let crj = &mut cr[j];
                for i in 0..MR {
                    #[cfg(target_feature = "fma")]
                    {
                        crj[i] = ar[i].mul_add(brj, crj[i]);
                    }
                    #[cfg(not(target_feature = "fma"))]
                    {
                        crj[i] += ar[i] * brj;
                    }
                }
            }
        }
        for j in 0..NR {
            acc_re[j][..MR].copy_from_slice(&cr[j]);
        }
        return;
    }
    let b_iter = b_re.zip(bp_im[..kc * NR].chunks_exact(NR));
    for (l, (ar, (br, bi))) in a_re.zip(b_iter).enumerate() {
        // A real `A` has no im plane: its chains are compiled out.
        let ai = if P == REAL_A { ar } else { &ap_im[l * MR..(l + 1) * MR] };
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
                if P == REAL_A {
                    crj[i] = ar[i].mul_add(brj, crj[i]);
                    cij[i] = ar[i].mul_add(bij, cij[i]);
                } else {
                    crj[i] = ai[i].mul_add(-bij, ar[i].mul_add(brj, crj[i]));
                    cij[i] = ai[i].mul_add(brj, ar[i].mul_add(bij, cij[i]));
                }
            }
            #[cfg(not(target_feature = "fma"))]
            for i in 0..MR {
                // Without hardware FMA `mul_add` is a slow libm call;
                // plain multiply-add keeps the loop vectorizable.
                if P == REAL_A {
                    crj[i] += ar[i] * brj;
                    cij[i] += ar[i] * bij;
                } else {
                    crj[i] += ar[i] * brj - ai[i] * bij;
                    cij[i] += ar[i] * bij + ai[i] * brj;
                }
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
/// scalar baseline). With a real operand (`P`) the chains that would read
/// its im plane are not emitted: 16 single-FMA chains for a real `A`; two
/// real operands keep 16 chains by splitting the k-steps between the re
/// and the (otherwise unused) im accumulators, summed at the end.
///
/// # Safety
/// The CPU must support AVX-512F, `ap_re` must hold at least `kc·8` and
/// `bp_re` at least `kc·8` doubles, and so must the im planes `P` reads:
/// the loads below go through raw pointers at offsets `< kc·MR` /
/// `< kc·NR`. [`Kernel::run`] asserts the lengths and [`kernel_of`] the
/// ISA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn ukr_avx512<const P: u8>(
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
    // One k-step on loaded A vectors (a macro, not a closure, so it is
    // compiled with this function's target features); the branches on
    // `P` are constants.
    macro_rules! step {
        ($l:expr, $ar:expr, $ai:expr) => {
            for j in 0..NR {
                let br = _mm512_set1_pd(*bpr.add($l * NR + j));
                if P == REAL {
                    cr[j] = _mm512_fmadd_pd($ar, br, cr[j]);
                    continue;
                }
                let bi = _mm512_set1_pd(*bpi.add($l * NR + j));
                if P == REAL_A {
                    cr[j] = _mm512_fmadd_pd($ar, br, cr[j]);
                    ci[j] = _mm512_fmadd_pd($ar, bi, ci[j]);
                } else {
                    cr[j] = _mm512_fnmadd_pd($ai, bi, _mm512_fmadd_pd($ar, br, cr[j]));
                    ci[j] = _mm512_fmadd_pd($ai, br, _mm512_fmadd_pd($ar, bi, ci[j]));
                }
            }
        };
    }
    macro_rules! load_im {
        ($l:expr) => {
            if P == COMPLEX {
                _mm512_loadu_pd(api.add($l * MR))
            } else {
                _mm512_setzero_pd()
            }
        };
    }
    let mut l = 0usize;
    if P == REAL {
        // One FMA chain a lane would leave the FMA ports half idle: odd
        // k-steps accumulate into the unused im registers, summed below.
        while l + 2 <= kc {
            let ar0 = _mm512_loadu_pd(apr.add(l * MR));
            let ar1 = _mm512_loadu_pd(apr.add((l + 1) * MR));
            for j in 0..NR {
                cr[j] = _mm512_fmadd_pd(ar0, _mm512_set1_pd(*bpr.add(l * NR + j)), cr[j]);
                ci[j] = _mm512_fmadd_pd(ar1, _mm512_set1_pd(*bpr.add((l + 1) * NR + j)), ci[j]);
            }
            l += 2;
        }
        for j in 0..NR {
            cr[j] = _mm512_add_pd(cr[j], ci[j]);
        }
    }
    while l + 2 <= kc {
        let ar0 = _mm512_loadu_pd(apr.add(l * MR));
        let ai0 = load_im!(l);
        let ar1 = _mm512_loadu_pd(apr.add((l + 1) * MR));
        let ai1 = load_im!(l + 1);
        step!(l, ar0, ai0);
        step!(l + 1, ar1, ai1);
        l += 2;
    }
    if l < kc {
        let ar0 = _mm512_loadu_pd(apr.add(l * MR));
        let ai0 = load_im!(l);
        step!(l, ar0, ai0);
    }
    for j in 0..NR {
        _mm512_storeu_pd(acc_re[j].as_mut_ptr(), cr[j]);
        if P != REAL {
            _mm512_storeu_pd(acc_im[j].as_mut_ptr(), ci[j]);
        }
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
        kern.run(Planes::Complex, 1000, &[], &[], &[], &[], &mut re, &mut im);
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

    /// A real `A` is the complex tile with a zero im plane, in bits (the
    /// skipped chains would only have added `±0·x`); two real operands
    /// agree with it to rounding (their k-steps are summed in two chains).
    #[test]
    fn real_planes_match_the_complex_tile_on_zero_im_planes() {
        for v in available_variants() {
            let kern = kernel_of(v).unwrap();
            for kc in [1usize, 2, 5, 32] {
                let fill = |n: usize, seed: u64| -> Vec<f64> {
                    (0..n)
                        .map(|i| ((i as u64 * 2654435761 + seed) % 1000) as f64 / 997.0 - 0.5)
                        .collect()
                };
                let (ar, br, bi) =
                    (fill(kc * kern.mr, 1), fill(kc * kern.nr, 2), fill(kc * kern.nr, 3));
                let (zero_a, zero_b) = (vec![0.0; kc * kern.mr], vec![0.0; kc * kern.nr]);
                let acc = || ([[0.0; MR_MAX]; NR_MAX], [[0.0; MR_MAX]; NR_MAX]);
                let (mut er, mut ei) = acc();
                kern.run(Planes::Complex, kc, &ar, &zero_a, &br, &bi, &mut er, &mut ei);
                let (mut rr, mut ri) = acc();
                kern.run(Planes::RealA, kc, &ar, &[], &br, &bi, &mut rr, &mut ri);
                assert_eq!((rr, ri), (er, ei), "{v:?} kc={kc} real A");
                let (mut er, mut ei) = acc();
                kern.run(Planes::Complex, kc, &ar, &zero_a, &br, &zero_b, &mut er, &mut ei);
                let (mut rr, mut ri) = acc();
                kern.run(Planes::Real, kc, &ar, &[], &br, &[], &mut rr, &mut ri);
                for (r, e) in rr.iter().flatten().zip(er.iter().flatten()) {
                    assert!((r - e).abs() <= 1e-15 * kc as f64, "{v:?} kc={kc} real: {r} vs {e}");
                }
                assert_eq!(ri, [[0.0; MR_MAX]; NR_MAX], "{v:?} kc={kc}: a real tile leaves acc_im");
            }
        }
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
                kern.run(Planes::Complex, kc, &ap.0, &ap.1, &bp.0, &bp.1, &mut ar, &mut ai);
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
