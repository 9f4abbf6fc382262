//! FEAST sizes its own subspace: the oracle battery that pins the rule.
//!
//! With `FeastConfig::subspace == 0` the random block starts small and
//! grows while the contour projector's rank fills it. These tests hold that
//! rule to the dense eigensolver and to the run that starts from the whole
//! companion space (`subspace: nbc`), over the leads the benchmark sweeps:
//! real pencils at `kz = 0`, which FEAST integrates over half the contour,
//! and the UTB film at a momentum, which takes the full one.

use proptest::prelude::*;
use qtx_atomistic::{BasisKind, DeviceBuilder};
use qtx_core::transport::ETA_BUMP;
use qtx_core::Device;
use qtx_linalg::{c64, Complex64, Workspace, ZMat};
use qtx_obc::{
    dense_modes, feast_annulus, feast_annulus_ws, self_energy, CompanionPencil, Eta, FeastConfig,
    LeadBlocks, ObcMethod, Side,
};

/// Sorted `|λ|` of the modes strictly inside the annulus: modes within
/// 0.5 % of either contour may legitimately fall on different sides for
/// two solvers and are left out of the count.
fn annulus_mags(modes: &[(Complex64, Vec<Complex64>)], r: f64) -> Vec<f64> {
    let (lo, hi) = (1.005 / r, r / 1.005);
    let mut mags: Vec<f64> =
        modes.iter().map(|(l, _)| l.abs()).filter(|m| (lo..=hi).contains(m)).collect();
    mags.sort_by(f64::total_cmp);
    mags
}

/// The oracle at one energy: auto-sized FEAST finds the annulus modes the
/// dense eigensolver finds, and builds the Σ the full-width run builds —
/// or it says it left propagating modes unresolved, and then FEAST on the
/// escalation ladder's next rung (`E + iη`) finds all of them.
fn check_energy(lead: &LeadBlocks, e: f64) {
    let cfg = FeastConfig::default();
    let pencil = CompanionPencil::at_energy(lead, e, 0.0);
    let dense = annulus_mags(&dense_modes(&pencil).expect("dense modes"), cfg.r_outer);
    let (modes, stats) = match feast_annulus(&pencil, cfg) {
        Ok(run) => run,
        Err(err) if err.is_stalled_modes() => {
            let broadened = CompanionPencil::at_energy(lead, e, ETA_BUMP);
            let (modes, stats) = feast_annulus(&broadened, cfg).expect("FEAST at E + iη");
            let found = annulus_mags(&modes, cfg.r_outer);
            assert_eq!(
                found.len(),
                dense.len(),
                "E = {e} + iη: {found:?} vs {dense:?} ({stats:?})"
            );
            for (f, d) in found.iter().zip(&dense) {
                assert!((f - d).abs() < 1e-4, "E = {e} + iη: |λ| {f} vs {d}");
            }
            return;
        }
        Err(err) => panic!("E = {e}: auto-sized FEAST failed: {err}"),
    };
    let found = annulus_mags(&modes, cfg.r_outer);
    assert_eq!(found.len(), dense.len(), "E = {e}: feast {found:?} vs dense {dense:?} ({stats:?})");
    for (f, d) in found.iter().zip(&dense) {
        assert!((f - d).abs() < 1e-6, "E = {e}: |λ| {f} vs {d}");
    }
    let full = FeastConfig { subspace: pencil.nbc(), ..cfg };
    let sigma =
        |cfg| self_energy(lead, e, Eta::ZERO, Side::Left, ObcMethod::Feast(cfg)).expect("Σ").sigma;
    let diff = sigma(cfg).max_diff(&sigma(full));
    assert!(diff < 1e-6, "E = {e}: Σ moved by {diff:.2e} against subspace = nbc");
}

/// Scans `n` energies across the lead's band window ± 0.2 eV, so band
/// edges and gaps are part of the scan.
fn scan(lead: &LeadBlocks, n: usize) {
    let (lo, hi) = lead.band_window(16);
    let (lo, hi) = (lo - 0.2, hi + 0.2);
    for i in 0..n {
        // Irrational-ish offset: no energy sits exactly on a band edge.
        check_energy(lead, lo + (hi - lo) * (i as f64 + 0.37) / n as f64);
    }
}

fn left_lead(builder: DeviceBuilder) -> LeadBlocks {
    left_lead_at(builder, 0.0)
}

fn left_lead_at(builder: DeviceBuilder, kz: f64) -> LeadBlocks {
    let spec = builder.cells(4).basis(BasisKind::TightBinding).build();
    Device::build(spec).expect("device build").at_kz(kz).lead_l
}

#[test]
fn utb_lead_energy_scan_matches_dense() {
    scan(&left_lead(DeviceBuilder::utb(0.8)), 96);
}

/// The other scans' leads are real at `kz = 0`, so FEAST integrates them
/// over half the contour; a Bloch phase makes the pencil complex (still
/// Hermitian) and keeps the full contour under the same oracle.
#[test]
fn utb_lead_at_a_momentum_energy_scan_matches_dense() {
    let lead = left_lead_at(DeviceBuilder::utb(0.8), 0.7);
    let pencil = CompanionPencil::at_energy(&lead, 0.0, 0.0);
    assert!(!pencil.is_real() && pencil.is_hermitian(), "premise: a complex Hermitian pencil");
    scan(&lead, 96);
}

#[test]
fn thin_wire_lead_energy_scan_matches_dense() {
    scan(&left_lead(DeviceBuilder::nanowire(0.8)), 96);
}

#[test]
fn long_wire_lead_energy_scan_matches_dense() {
    scan(&left_lead(DeviceBuilder::nanowire(1.5)), 12);
}

/// Three energies 0.18–0.2 eV above the 1.5 nm wire's conduction edge
/// (1.299168 eV) where the propagating pair `λ = −0.347 ± 0.938i` stalls at
/// a residual of 1.8–2.6·10⁻⁸ against `tol = 10⁻⁸` while the four evanescent
/// modes reach 10⁻¹⁵. Taking the repeated count of four as final dropped
/// both channels (and T read 0 at `E = 1.498154`); FEAST must find all six
/// or say it did not.
#[test]
fn long_wire_lead_stalled_propagating_pair_is_never_dropped() {
    let lead = left_lead(DeviceBuilder::nanowire(1.5));
    for e in [1.479668, 1.498154, 1.498668] {
        check_energy(&lead, e);
        let pencil = CompanionPencil::at_energy(&lead, e, 0.0);
        match feast_annulus(&pencil, FeastConfig::default()) {
            Ok((modes, _)) => {
                let on_circle = modes.iter().filter(|(l, _)| (l.abs() - 1.0).abs() < 1e-6);
                assert_eq!(on_circle.count(), 2, "E = {e}: the propagating pair");
            }
            Err(err) => assert!(err.is_stalled_modes(), "E = {e}: {err}"),
        }
    }
}

/// The same energies on budgets short of the pair's convergence, exact and
/// at the escalation ladder's `E + iη`: broadened, the pair sits at
/// `|λ| = e^{−η/|v|}`, off the unit circle, and is pending all the same.
/// FEAST returns every annulus mode the dense solver finds on that pencil,
/// or says it did not; a short set is never `Ok`.
#[test]
fn short_budgets_never_return_a_short_mode_set() {
    let lead = left_lead(DeviceBuilder::nanowire(1.5));
    let cfg = FeastConfig::default();
    let mut stalled = 0;
    for e in [1.479668, 1.498154, 1.498668] {
        for eta in [0.0, ETA_BUMP] {
            let pencil = CompanionPencil::at_energy(&lead, e, eta);
            let dense = annulus_mags(&dense_modes(&pencil).expect("dense modes"), cfg.r_outer);
            for max_refine in 2..=4 {
                match feast_annulus(&pencil, FeastConfig { max_refine, ..cfg }) {
                    Ok((modes, _)) => {
                        let found = annulus_mags(&modes, cfg.r_outer);
                        assert_eq!(
                            found.len(),
                            dense.len(),
                            "E = {e} + {eta}i, max_refine {max_refine}: {found:?} vs {dense:?}"
                        );
                    }
                    Err(err) => {
                        assert!(err.is_stalled_modes(), "E = {e} + {eta}i: {err}");
                        stalled += 1;
                    }
                }
            }
        }
    }
    assert!(stalled > 0, "premise: some budget is short of the pair");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn random_hermitian_leads_match_dense(
        n in 2usize..12,
        seed in 0u64..1_000_000,
        coupling in 0.2f64..0.9,
        e in -1.0f64..1.0,
    ) {
        let mut h00 = ZMat::random(n, n, seed);
        h00.hermitianize();
        let h01 = ZMat::random(n, n, seed + 1).scaled(c64(coupling, 0.0));
        let lead = LeadBlocks::new(h00, h01, ZMat::identity(n), ZMat::zeros(n, n));
        check_energy(&lead, e);
    }
}

/// `in_band` decoupled chains with distinct on-site energies, all
/// propagating at `E = 0`, plus `gapped` chains whose modes sit far
/// outside the annulus (`|λ| ≈ 100`).
fn decoupled_chains(in_band: usize, gapped: usize) -> LeadBlocks {
    let n = in_band + gapped;
    let eps: Vec<Complex64> = (0..n)
        .map(|i| {
            if i < in_band {
                c64(-1.5 + 3.0 * (i as f64 + 0.5) / in_band as f64, 0.0)
            } else {
                c64(100.0, 0.0)
            }
        })
        .collect();
    let hop = vec![c64(-1.0, 0.0); n];
    LeadBlocks::new(
        ZMat::from_diag(&eps),
        ZMat::from_diag(&hop),
        ZMat::identity(n),
        ZMat::zeros(n, n),
    )
}

#[test]
fn more_modes_than_the_start_block_are_found_through_growth() {
    // 48 unit-circle modes against a start block of a few columns.
    let lead = decoupled_chains(24, 40);
    let pencil = CompanionPencil::at_energy(&lead, 0.0, 0.0);
    let cfg = FeastConfig::default();
    let (modes, stats) = feast_annulus(&pencil, cfg).unwrap();
    assert_eq!(modes.len(), 48, "{stats:?}");
    for (lam, u) in &modes {
        assert!((lam.abs() - 1.0).abs() < 1e-7);
        assert!(pencil.residual(*lam, u) < cfg.tol);
    }
    assert!(stats.subspace > 16, "the block must have grown: {stats:?}");
    assert!(stats.subspace < pencil.nbc(), "and stopped short of the full space: {stats:?}");
    // A non-zero `subspace` only moves the start of the same path.
    let (small, narrow) = feast_annulus(&pencil, FeastConfig { subspace: 2, ..cfg }).unwrap();
    assert_eq!(small.len(), 48);
    assert!(narrow.subspace >= 50, "a 2-column start grows past the mode count: {narrow:?}");
    let (all, full) =
        feast_annulus(&pencil, FeastConfig { subspace: pencil.nbc(), ..cfg }).unwrap();
    assert_eq!(all.len(), 48);
    assert_eq!(full.subspace, pencil.nbc());
    assert!(stats.iterations <= full.iterations, "{stats:?} vs {full:?}");
}

#[test]
fn grown_subspace_is_bit_reproducible_across_calls_and_pools() {
    let lead = decoupled_chains(24, 40);
    let pencil = CompanionPencil::at_energy(&lead, 0.0, 0.0);
    let cfg = FeastConfig::default();
    let (first, _) = feast_annulus(&pencil, cfg).unwrap();
    let (second, _) = feast_annulus(&pencil, cfg).unwrap();
    let warm = Workspace::new();
    let _ = feast_annulus_ws(&pencil, cfg, &warm).unwrap();
    let (pooled, _) = feast_annulus_ws(&pencil, cfg, &warm).unwrap();
    for other in [&second, &pooled] {
        assert_eq!(first.len(), other.len());
        for ((l1, u1), (l2, u2)) in first.iter().zip(other) {
            assert!(l1 == l2, "eigenvalue bits differ: {l1} vs {l2}");
            assert!(u1 == u2, "eigenvector bits differ");
        }
    }
}

#[test]
fn gap_energy_stops_after_two_empty_iterations() {
    let lead = left_lead(DeviceBuilder::utb(0.8));
    let cfg = FeastConfig::default();
    // Mid-gap: between the valence and conduction edges of the film.
    let pencil = CompanionPencil::at_energy(&lead, 0.0, 0.0);
    let dense = dense_modes(&pencil).unwrap();
    assert!(
        annulus_mags(&dense, cfg.r_outer * 1.01).is_empty(),
        "premise: E = 0 lies in the gap with no mode near the annulus"
    );
    let (modes, stats) = feast_annulus(&pencil, cfg).unwrap();
    assert!(modes.is_empty());
    assert!(stats.iterations <= 2, "an empty annulus must not burn the budget: {stats:?}");
}
