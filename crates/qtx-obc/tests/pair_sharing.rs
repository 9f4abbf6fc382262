//! `self_energy_pair` ≡ `self_energy(left)` then `self_energy(right)`.
//!
//! One test in a process of its own: it compares deltas of the
//! process-wide [`obc_solves_total`] counter, so nothing else may build a
//! Σ beside it.

use qtx_atomistic::{BasisKind, DeviceBuilder};
use qtx_core::Device;
use qtx_linalg::ZMat;
use qtx_obc::{
    obc_solves_total, self_energy, self_energy_pair, BeynConfig, Eta, FeastConfig, LeadBlocks,
    ModeSet, ObcMethod, ObcResult, Side,
};

fn assert_same_bits(a: &ZMat, b: &ZMat, what: &str) {
    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "{what}: shape");
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        assert!(
            x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
            "{what}: {x} vs {y}"
        );
    }
}

fn assert_same_modes(a: &[ModeSet], b: &[ModeSet], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: count");
    for (x, y) in a.iter().zip(b) {
        assert!(x.lambda == y.lambda && x.u == y.u, "{what}: (λ, u) bits");
        assert_eq!(x.velocity.to_bits(), y.velocity.to_bits(), "{what}: velocity");
        assert_eq!(x.propagating, y.propagating, "{what}: class");
    }
}

fn assert_same_result(a: &ObcResult, b: &ObcResult, what: &str) {
    assert_same_bits(&a.sigma, &b.sigma, &format!("{what} Σ"));
    assert_same_bits(&a.injection, &b.injection, &format!("{what} injection"));
    assert_same_modes(&a.inc_modes, &b.inc_modes, &format!("{what} inc_modes"));
    assert_same_modes(&a.out_modes, &b.out_modes, &format!("{what} out_modes"));
    assert_eq!(format!("{:?}", a.stats), format!("{:?}", b.stats), "{what} stats");
}

/// The two contact leads of a 0.8 nm UTB film whose last slab sits at
/// `drain` eV: the same bytes at 0, different leads otherwise.
fn contact_leads(drain: f64) -> (LeadBlocks, LeadBlocks) {
    let spec = DeviceBuilder::utb(0.8).cells(4).basis(BasisKind::TightBinding).build();
    let mut dev = Device::build(spec).expect("device build");
    let ramp: Vec<f64> =
        (0..dev.n_slabs).map(|q| drain * q as f64 / (dev.n_slabs - 1) as f64).collect();
    dev.set_potential(&ramp);
    let dk = dev.at_kz(0.0);
    (dk.lead_l, dk.lead_r)
}

#[test]
fn pair_is_the_two_call_sequence_bit_for_bit() {
    let (same_l, same_r) = contact_leads(0.0);
    assert!(same_l.same_bits(&same_r), "equal contact potentials build one lead twice");
    let (biased_l, biased_r) = contact_leads(-0.15);
    assert!(!biased_l.same_bits(&biased_r));
    let (lo, hi) = same_l.band_window(16);
    // In-band, near an edge, and in the gap (no modes at all).
    let energies = [lo + 0.31 * (hi - lo), lo + 0.02, 0.0];
    let methods = [
        ObcMethod::Feast(FeastConfig::default()),
        ObcMethod::Beyn(BeynConfig::default()),
        ObcMethod::ShiftInvert,
        ObcMethod::Decimation,
    ];
    let mut channel_counts = Vec::new();
    for (lead_l, lead_r, label) in [(&same_l, &same_r, "shared"), (&biased_l, &biased_r, "biased")]
    {
        for method in methods {
            // The exact-energy rung and a broadened ladder rung.
            for eta in [Eta::ZERO, Eta(1e-6)] {
                for e in energies {
                    let what = format!("{label} {method:?} E = {e} η = {}", eta.0);
                    let before = obc_solves_total();
                    let (pair_l, pair_r) =
                        self_energy_pair(lead_l, lead_r, e, eta, method).expect(&what);
                    let pair_solves = obc_solves_total() - before;
                    let single_l = self_energy(lead_l, e, eta, Side::Left, method).expect(&what);
                    let single_r = self_energy(lead_r, e, eta, Side::Right, method).expect(&what);
                    let single_solves = obc_solves_total() - before - pair_solves;
                    assert_same_result(&pair_l, &single_l, &format!("{what} left"));
                    assert_same_result(&pair_r, &single_r, &format!("{what} right"));
                    assert_eq!((pair_solves, single_solves), (2, 2), "{what}: Σ builds counted");
                    channel_counts.push(pair_l.inc_modes.len());
                }
            }
        }
    }
    assert!(
        channel_counts.contains(&0) && channel_counts.iter().any(|&c| c > 0),
        "the scan must cover open and closed energies: {channel_counts:?}"
    );
}
