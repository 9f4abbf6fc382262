//! A stalled FEAST on a large pencil must say so.
//!
//! Pencils up to 64 rows settle "nothing accepted" against the dense
//! eigensolver. Above that FEAST's own evidence decides: Ritz values the
//! last iteration still placed inside the annulus mean a stall
//! (`ObcError::NoModes`, so `self_energy` takes its exact dense route),
//! none inside on two consecutive iterations mean an empty annulus (no
//! modes, FEAST's answer stands).

use qtx_atomistic::{BasisKind, DeviceBuilder};
use qtx_core::Device;
use qtx_obc::{
    feast_annulus, self_energy, CompanionPencil, Eta, FeastConfig, LeadBlocks, ObcError, ObcMethod,
    Side,
};

/// The 1.5 nm-wire lead of `nw_long_*` (`nf = 90`, a 180-row pencil).
fn long_wire_lead() -> LeadBlocks {
    let spec = DeviceBuilder::nanowire(1.5).cells(4).basis(BasisKind::TightBinding).build();
    let lead = Device::build(spec).expect("device build").at_kz(0.0).lead_l;
    assert_eq!(lead.nf(), 90);
    lead
}

#[test]
fn stalled_feast_reports_no_modes_and_sigma_takes_the_dense_route() {
    let lead = long_wire_lead();
    let e = -5.8;
    // An unmeetable tolerance: every Ritz value inside the annulus fails
    // the residual filter on both iterations.
    let stalled = FeastConfig { tol: 0.0, max_refine: 2, ..FeastConfig::default() };
    let pencil = CompanionPencil::at_energy(&lead, e, 0.0);
    match feast_annulus(&pencil, stalled) {
        Err(ObcError::Feast { source, iterations: 2, .. }) => {
            assert!(matches!(*source, ObcError::NoModes { method: "feast" }), "{source:?}")
        }
        other => panic!("a stall must be an error, got {other:?}"),
    }
    let reference = self_energy(&lead, e, Eta::ZERO, Side::Left, ObcMethod::ShiftInvert).unwrap();
    assert!(reference.out_modes.len() >= 16 && !reference.inc_modes.is_empty());
    let obc = self_energy(&lead, e, Eta::ZERO, Side::Left, ObcMethod::Feast(stalled)).unwrap();
    assert!(obc.stats.is_none(), "the dense fallback answered, not FEAST");
    assert_eq!(obc.out_modes.len(), reference.out_modes.len());
    assert_eq!(obc.inc_modes.len(), reference.inc_modes.len());
    let diff = obc.sigma.max_diff(&reference.sigma);
    assert!(diff < 1e-6, "Σ off the shift-invert answer by {diff:.2e}");
    assert!(obc.sigma.norm_max() > 0.1, "and it is not the silent Σ = 0");
}

#[test]
fn recognised_empty_annulus_stays_feasts_own_answer() {
    let lead = long_wire_lead();
    for (e, r_outer) in [(-1.0, 1.05), (1.0, 1.1)] {
        let cfg = FeastConfig { r_outer, ..FeastConfig::default() };
        let pencil = CompanionPencil::at_energy(&lead, e, 0.0);
        let (modes, stats) = feast_annulus(&pencil, cfg).expect("an empty annulus is an answer");
        assert!(modes.is_empty());
        assert!(stats.iterations <= 2, "E = {e}: {stats:?}");
        let obc = self_energy(&lead, e, Eta::ZERO, Side::Left, ObcMethod::Feast(cfg)).unwrap();
        assert!(obc.stats.is_some(), "E = {e}: FEAST answered, no dense fallback");
        assert_eq!(obc.out_modes.len(), 0);
        assert_eq!(obc.sigma.norm_max(), 0.0);
    }
}
