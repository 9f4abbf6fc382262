//! The library's one fan-out rule (`qtx_linalg::flops::fans_out`) against
//! the shapes the benchmark runs: FEAST's quadrature loops stay on the
//! calling thread on the `nf` = 20 and 26 leads and fan out on the
//! `nf` = 90 and 252 ones, and no front, Caroli or SplitSolve decision on
//! the seven workloads' chains differs from the 8 MF-per-side cutoff they
//! ran at before the rule moved to `qtx-linalg`.

use qtx_atomistic::devices::DeviceSpec;
use qtx_atomistic::{BasisKind, DeviceBuilder};
use qtx_core::Device;
use qtx_linalg::flops::{counts, fans_out};
use qtx_obc::FeastConfig;
use qtx_sparse::CouplingSupport;

/// The fronts' and sweeps' cutoff before the rule moved, per side.
const BEFORE: u64 = 8_000_000;

/// The benchmark's devices at their full sizes (`benchmark/src/workloads.rs`):
/// the UTB film of `utb_kgrid_*`, the DFT wire of `nw_dft_obc`, the
/// 1.5 nm wire of `nw_long_*`, the double-barrier wire of
/// `resonance_refined` and the FET of `nw_scf_idvgs`.
fn workload_devices() -> Vec<(&'static str, DeviceSpec, bool)> {
    let tb = BasisKind::TightBinding;
    vec![
        ("utb_kgrid", DeviceBuilder::utb(0.8).cells(8).basis(tb).build(), false),
        (
            "nw_dft_obc",
            DeviceBuilder::nanowire(1.0).cells(12).basis(BasisKind::Dft3sp).build(),
            true,
        ),
        ("nw_long", DeviceBuilder::nanowire(1.5).cells(128).basis(tb).build(), true),
        ("resonance_refined", DeviceBuilder::nanowire(0.8).cells(6).basis(tb).build(), false),
        ("nw_scf_idvgs", DeviceBuilder::nanowire(0.8).cells(8).basis(tb).build(), false),
    ]
}

/// Estimated work per side of the Caroli kernel's and the wave-function
/// solve's two fronts with `w` columns carried from each contact, and the
/// mean of SplitSolve's four two-partition sweeps.
fn per_side(
    s: usize,
    dims: &[(usize, usize, usize, usize)],
    contacts: (usize, usize),
    w: usize,
) -> [u64; 3] {
    let (_, r, l) = counts::caroli_cut(s, dims, w, w);
    let caroli = (r + l) / 2;
    let (_, r, l) = counts::two_front_cut(s, dims, w, w);
    let two_front = (r + l) / 2;
    let nb = dims.len() + 1;
    let half = nb / 2;
    let (ru, _, rl, _) = dims[half - 1];
    let sweeps = counts::splitsolve_sweep(s, &dims[..half - 1], true, contacts.0)
        + counts::splitsolve_sweep(s, &dims[..half - 1], false, ru)
        + counts::splitsolve_sweep(s, &dims[half..], true, rl)
        + counts::splitsolve_sweep(s, &dims[half..], false, contacts.1);
    [caroli, two_front, sweeps / 4]
}

#[test]
fn feast_loops_and_fronts_decide_as_the_ledger_says() {
    let np = FeastConfig::default().np as u64;
    for (name, spec, large) in workload_devices() {
        let dk = Device::build(spec).expect("device build").at_kz(0.0);
        let nf = dk.lead_l.nf();
        // FEAST on a real Hermitian pencil (η = 0, kz = 0): the outer LUs of
        // the upper half plane's np/2 angles, and 2·(np/2) solves against
        // the 8 columns of the first projector pass.
        let factor = np / 2 * counts::zgetrf(nf);
        let projector = 2 * (np / 2) * counts::zgetrs(nf, 8);
        assert_eq!(fans_out(factor / 2), large, "{name}: FEAST factor loop at nf = {nf}");
        assert_eq!(fans_out(projector / 2), large, "{name}: FEAST projector loop at nf = {nf}");

        let support = dk.chain_support();
        let s = dk.h.block_size();
        let dims: Vec<_> = support.coupling.iter().map(CouplingSupport::dims).collect();
        let contacts = (support.contact_l.len(), support.contact_r.len());
        // The work grows with the carried columns: a broadening factor is
        // at most twice the contact rows wide (the row-support factor),
        // an injection block one column per incoming mode, at most `nf`.
        let widest = (2 * contacts.0.max(contacts.1)).max(nf);
        for w in [0, widest] {
            let work = per_side(s, &dims, contacts, w);
            for (kernel, flops) in ["caroli", "two_front", "splitsolve"].iter().zip(work) {
                assert_eq!(fans_out(flops), flops >= BEFORE, "{name} {kernel} at w = {w}: {flops}");
                assert_eq!(fans_out(flops), large, "{name} {kernel} at w = {w}: {flops}");
            }
        }
    }
}
