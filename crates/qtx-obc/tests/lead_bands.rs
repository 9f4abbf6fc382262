//! The band scans on the Hermitian solver give the general solver's bands.
//!
//! `LeadBlocks::bands_at` solves `H(k)·c = E·S(k)·c` for its eigenvalues
//! with `eigh_generalized`; before, it ran `eig_generalized` (LU of `S(k)`,
//! Hessenberg, shifted QR and eigenvectors it threw away). On the four
//! benchmark leads the bands equal the general solver's, and the band edge
//! and dispersive energy that place every benchmark grid equal the values
//! the general solver gave, to within 10⁻¹⁰ eV.

use qtx_atomistic::{BasisKind, DeviceBuilder};
use qtx_core::Device;
use qtx_linalg::{eig_generalized, Complex64, ZMat};
use qtx_obc::LeadBlocks;

/// The left lead at `kz = 0` of a benchmark device shape.
fn left_lead(builder: DeviceBuilder, basis: BasisKind) -> LeadBlocks {
    let spec = builder.cells(4).basis(basis).build();
    Device::build(spec).expect("device build").at_kz(0.0).lead_l
}

/// The bands as the general solver computes them: real parts, sorted.
fn general_bands(lead: &LeadBlocks, k: f64) -> Vec<f64> {
    let phase = Complex64::from_phase(k);
    let bloch = |on: &ZMat, off: &ZMat| {
        let mut m = on.clone();
        m.axpy(phase, off);
        m.axpy(phase.conj(), &off.adjoint());
        m
    };
    let dec = eig_generalized(&bloch(&lead.h00, &lead.h01), &bloch(&lead.s00, &lead.s01)).unwrap();
    let mut bands: Vec<f64> = dec.values.iter().map(|z| z.re).collect();
    bands.sort_by(f64::total_cmp);
    bands
}

/// `edge` and `energy` are `dispersive_band_min(0.1, 0.3)` and
/// `dispersive_energy(1.1, 0.3, 0.3)` as the general solver computed them.
fn check_lead(name: &str, lead: &LeadBlocks, edge: f64, energy: f64) {
    for k in [0.0, 0.7, std::f64::consts::PI] {
        let (got, want) = (lead.bands_at(k), general_bands(lead, k));
        assert_eq!(got.len(), lead.nf(), "{name}");
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-10, "{name}, k = {k}: band {g} vs {w}");
        }
    }
    let got = lead.dispersive_energy(1.1, 0.3, 0.3).expect("a dispersive band");
    assert!((got - energy).abs() < 1e-10, "{name}: dispersive energy {got} vs {energy}");
    let got = lead.dispersive_band_min(0.1, 0.3).expect("a conduction edge");
    assert!((got - edge).abs() < 1e-10, "{name}: band edge {got} vs {edge}");
}

#[test]
fn utb_film_bands() {
    let lead = left_lead(DeviceBuilder::utb(0.8), BasisKind::TightBinding);
    check_lead("utb", &lead, 1.626_466_789_946_365_6, 4.069_314_743_997_173_5);
}

#[test]
fn thin_wire_bands() {
    let lead = left_lead(DeviceBuilder::nanowire(0.8), BasisKind::TightBinding);
    check_lead("0.8 nm wire", &lead, 3.381_662_413_430_271_3, 4.213_450_126_974_431);
}

#[test]
fn long_wire_bands() {
    let lead = left_lead(DeviceBuilder::nanowire(1.5), BasisKind::TightBinding);
    check_lead("1.5 nm wire", &lead, 1.299_167_704_655_136_7, 3.825_730_250_000_079);
}

/// The DFT wire's `H` comes out of the charge loop, which runs on `eigh`
/// too: these pins hold the whole set-up chain, not the band scan alone.
#[test]
fn dft_wire_bands() {
    let lead = left_lead(DeviceBuilder::nanowire(1.0), BasisKind::Dft3sp);
    check_lead("DFT wire", &lead, 2.261_855_510_989_015_7, 3.347_365_959_832_248_7);
}
