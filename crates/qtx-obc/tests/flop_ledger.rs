//! The flop ledger of one boundary self-energy, and Beyn's against
//! FEAST's on one pencil.
//!
//! A test binary of its own, its tests serialized: [`FlopScope::start_process`]
//! counts every thread (the quadrature solves fan out), so nothing else may
//! run beside a measurement.

use qtx_atomistic::{BasisKind, DeviceBuilder};
use qtx_core::Device;
use qtx_linalg::FlopScope;
use qtx_obc::{
    beyn_annulus, feast_annulus, self_energy, self_energy_pair, BeynConfig, CompanionPencil, Eta,
    FeastConfig, LeadBlocks, ObcMethod, Side,
};
use std::sync::Mutex;

/// What the same Σ cost with the `nf + 8`-column subspace and the per-node
/// `z·T01 + T00` products this ledger replaced (nf = 90, 16 modes).
const NF_PLUS_8_FLOPS: f64 = 4.45e8;

/// What one contact's Σ cost once FEAST sized its own subspace, with 24
/// factorizations, a dense Bloch propagator and one mode solve per contact.
const ONE_SOLVE_PER_CONTACT_FLOPS: f64 = 1.275e8;

static ONE_MEASUREMENT_AT_A_TIME: Mutex<()> = Mutex::new(());

fn long_wire_lead() -> LeadBlocks {
    let spec = DeviceBuilder::nanowire(1.5).cells(4).basis(BasisKind::TightBinding).build();
    let lead = Device::build(spec).expect("device build").at_kz(0.0).lead_l;
    assert_eq!(lead.nf(), 90);
    lead
}

#[test]
fn long_wire_sigma_costs_under_half_of_the_fixed_width_subspace() {
    let _alone = ONE_MEASUREMENT_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let lead = long_wire_lead();
    let scope = FlopScope::start_process();
    let obc =
        self_energy(&lead, -5.8, Eta::ZERO, Side::Left, ObcMethod::Feast(FeastConfig::default()))
            .expect("Σ");
    let flops = scope.elapsed() as f64;
    let stats = obc.stats.expect("FEAST ran");
    assert_eq!(stats.m_found, 16, "{stats:?}");
    assert!(flops <= 0.5 * NF_PLUS_8_FLOPS, "Σ took {flops:.3e} flops ({stats:?})");
}

#[test]
fn long_wire_pair_costs_about_half_of_two_single_contacts() {
    let _alone = ONE_MEASUREMENT_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let lead = long_wire_lead();
    let scope = FlopScope::start_process();
    let method = ObcMethod::Feast(FeastConfig::default());
    let (obc_l, obc_r) = self_energy_pair(&lead, &lead, -5.8, Eta::ZERO, method).expect("Σ pair");
    let flops = scope.elapsed() as f64;
    let stats = obc_l.stats.expect("FEAST ran");
    assert_eq!(stats.m_found, 16, "{stats:?}");
    // A real Hermitian pencil: the upper half plane's angles, one LU each.
    assert_eq!(stats.factorizations, FeastConfig::default().np / 2, "{stats:?}");
    assert_eq!(obc_l.out_modes.len() + obc_r.out_modes.len(), 16);
    assert!(
        flops <= 0.55 * 2.0 * ONE_SOLVE_PER_CONTACT_FLOPS,
        "the pair took {flops:.3e} flops ({stats:?})"
    );
}

#[test]
fn beyn_is_single_pass() {
    let _alone = ONE_MEASUREMENT_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    // The ref. [43] claim: no refinement iterations. This is structural
    // (the function has no loop), so assert the cost side: one
    // factorization per node only.
    let lead = LeadBlocks::chain_1d(0.0, -1.0);
    let pencil = CompanionPencil::at_energy(&lead, 0.9, 0.0);
    // Process-wide totals, like the Σ ledgers above (this one-orbital
    // pencil's nodes run on the calling thread either way).
    let scope = FlopScope::start_process();
    let _ = beyn_annulus(&pencil, BeynConfig { np: 8, ..Default::default() }).unwrap();
    let beyn_flops = scope.elapsed();
    let scope = FlopScope::start_process();
    let _ = feast_annulus(&pencil, FeastConfig { np: 8, ..FeastConfig::default() }).unwrap();
    let feast_flops = scope.elapsed();
    assert!(
        beyn_flops <= feast_flops * 2,
        "beyn {beyn_flops} should not exceed feast {feast_flops} by much"
    );
}
