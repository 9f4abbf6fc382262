//! A propagating mode FEAST sees but cannot resolve escalates the point.
//!
//! On the 1.5 nm wire's lead at `E = 1.498` eV the propagating pair of
//! the annulus stalls just above FEAST's residual tolerance while the four
//! evanescent modes converge. Taking the four as the answer gave a contact
//! with no channel: T read 0, with residual 0 and no escalation on record.
//! FEAST now refines on while a unit-circle Ritz value is pending, and
//! when its budget runs out first it says so: the ladder's broadened rung
//! answers a robust point, and a caller without a ladder gets the exact
//! dense shift-invert modes at the same energy.
//!
//! The stall is marginal: whether three refinements leave the pair at one
//! energy depends on the last bits of the lead (a ~10⁻¹⁶ move of
//! CP2K-lite's charges once moved it from 1.498154 to 1.498 eV). A scan of
//! 1.40–1.60 eV in 0.5 meV steps found it at 1.4745–1.475, 1.480–1.4815,
//! 1.489, 1.492 and 1.498 eV, so the tests do not pin an energy: they scan
//! that window, 1.4745–1.4985 eV in 0.5 meV steps, for the first energy
//! where three refinements leave the left lead's pair pending, require
//! one, and make their assertions there.

use qtx_atomistic::{BasisKind, DeviceBuilder};
use qtx_core::transport::ETA_BUMP;
use qtx_core::{
    caroli_transmission, CachePolicy, Device, PointOutcome, PointPolicy, TransportEngine,
};
use qtx_obc::{Eta, FeastConfig, ObcMethod, Side};

/// `(T, channels, outcome)` of a point at `e` under `policy` on an engine
/// over `device` whose FEAST runs at most `max_refine` refinements.
fn point_under(
    device: &Device,
    e: f64,
    max_refine: usize,
    policy: &PointPolicy<'_>,
) -> (f64, (usize, usize), PointOutcome) {
    let engine =
        TransportEngine::builder(with_budget(device, max_refine)).cache(CachePolicy::Off).build();
    let rs = engine.solve_point(e, 0.0, policy);
    let point = rs.result.expect("the point was solved");
    (point.transmission, point.channels, rs.outcome)
}

fn robust_point(device: &Device, e: f64, max_refine: usize) -> (f64, (usize, usize), PointOutcome) {
    point_under(device, e, max_refine, &PointPolicy::robust())
}

fn with_budget(device: &Device, max_refine: usize) -> Device {
    let mut device = device.clone();
    device.config.obc = ObcMethod::Feast(feast(max_refine));
    device
}

fn feast(max_refine: usize) -> FeastConfig {
    FeastConfig { max_refine, ..FeastConfig::default() }
}

fn long_wire() -> Device {
    let spec = DeviceBuilder::nanowire(1.5).cells(8).basis(BasisKind::TightBinding).build();
    Device::build(spec).unwrap()
}

/// The first energy of the stall window (1.4745–1.4985 eV, 0.5 meV steps)
/// at which three FEAST refinements leave the left lead's propagating
/// pair pending.
fn stall_energy(device: &Device) -> f64 {
    let dk = device.at_kz(0.0);
    let short = ObcMethod::Feast(feast(3));
    (0..=48)
        .map(|k| 1.4745 + 0.0005 * k as f64)
        .find(|&e| {
            let got = qtx_obc::self_energy(&dk.lead_l, e, Eta::ZERO, Side::Left, short);
            got.is_err_and(|err| err.is_stalled_modes())
        })
        .expect("three refinements leave the pair pending somewhere in 1.4745–1.4985 eV")
}

#[test]
fn stalled_propagating_pair_is_resolved_or_escalated_never_read_as_zero() {
    let device = long_wire();
    let e = stall_energy(&device);
    let reference = caroli_transmission(&device.at_kz(0.0), e, ObcMethod::ShiftInvert).unwrap();
    assert!((reference - 1.0).abs() < 1e-4, "premise at {e}: one open channel, T = {reference}");
    // The default budget: refining past the repeated count of four
    // resolves the pair on the configured rung.
    let (t, channels, outcome) = robust_point(&device, e, FeastConfig::default().max_refine);
    assert!((t - reference).abs() < 1e-4, "T = {t} against shift-invert {reference}");
    assert_eq!(channels, (1, 1), "both contacts keep their channel");
    assert_eq!(outcome.method_name(), "configured", "{outcome:?}");
    // Three refinements (where the old rule stopped) leave the pair
    // pending: FEAST says so, and the broadened rung answers the point.
    let (t, channels, outcome) = robust_point(&device, e, 3);
    assert!((t - reference).abs() < 1e-4, "T = {t} against shift-invert {reference}");
    assert_eq!(channels, (1, 1), "both contacts keep their channel");
    assert!(outcome.escalated(), "the record must say FEAST did not answer: {outcome:?}");
    assert_eq!(outcome.method_name(), "configured+eta", "{outcome:?}");
    assert_eq!((outcome.attempts, outcome.eta), (2, ETA_BUMP), "{outcome:?}");
    assert!(outcome.residual > 0.0, "{outcome:?}");
}

/// The same stall with no ladder behind the call: the direct and the
/// transmission-only points and one-shot Caroli answer it with the dense
/// shift-invert modes at the exact energy instead of failing.
#[test]
fn stalled_pair_without_a_ladder_is_answered_by_shift_invert() {
    let device = long_wire();
    let e = stall_energy(&device);
    let dk = device.at_kz(0.0);
    let reference = caroli_transmission(&dk, e, ObcMethod::ShiftInvert).unwrap();
    let short = ObcMethod::Feast(feast(3));
    let stalled = qtx_obc::self_energy(&dk.lead_l, e, Eta::ZERO, Side::Left, short).unwrap_err();
    assert!(stalled.is_stalled_modes(), "premise: three refinements leave the pair: {stalled}");
    for policy in [PointPolicy::direct(), PointPolicy::transmission_only()] {
        let (t, channels, outcome) = point_under(&device, e, 3, &policy);
        assert!((t - reference).abs() < 1e-4, "{policy:?}: T = {t} against {reference}");
        assert_eq!(channels, (1, 1), "{policy:?}: both contacts keep their channel");
        assert_eq!((outcome.attempts, outcome.eta), (1, 0.0), "{policy:?}: {outcome:?}");
    }
    let t = caroli_transmission(&dk, e, short).unwrap();
    assert!((t - reference).abs() < 1e-4, "one-shot Caroli: T = {t} against {reference}");
}
