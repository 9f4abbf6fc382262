//! The flop ledger of one boundary self-energy.
//!
//! One test in a process of its own: [`FlopScope::start_process`] counts
//! every thread (the quadrature solves fan out), so nothing else may run
//! beside it.

use qtx_atomistic::{BasisKind, DeviceBuilder};
use qtx_core::Device;
use qtx_linalg::FlopScope;
use qtx_obc::{self_energy, Eta, FeastConfig, ObcMethod, Side};

/// What the same Σ cost with the `nf + 8`-column subspace and the per-node
/// `z·T01 + T00` products this ledger replaced (nf = 90, 16 modes).
const NF_PLUS_8_FLOPS: f64 = 4.45e8;

#[test]
fn long_wire_sigma_costs_under_half_of_the_fixed_width_subspace() {
    let spec = DeviceBuilder::nanowire(1.5).cells(4).basis(BasisKind::TightBinding).build();
    let lead = Device::build(spec).expect("device build").at_kz(0.0).lead_l;
    assert_eq!(lead.nf(), 90);
    let scope = FlopScope::start_process();
    let obc =
        self_energy(&lead, -5.8, Eta::ZERO, Side::Left, ObcMethod::Feast(FeastConfig::default()))
            .expect("Σ");
    let flops = scope.elapsed() as f64;
    let stats = obc.stats.expect("FEAST ran");
    assert_eq!(stats.m_found, 16, "{stats:?}");
    assert!(flops <= 0.5 * NF_PLUS_8_FLOPS, "Σ took {flops:.3e} flops ({stats:?})");
}
