//! FEAST's and Beyn's quadrature loops count the same, and find the same
//! modes bit for bit, whether their nodes ran on borrowed threads or on
//! the calling one.
//!
//! A test binary of its own: the inline runs hold two pool-worker guards,
//! which saturate the `rayon` shim's worker cap for the whole process, and
//! the fanned-out runs need that cap free.

use qtx_atomistic::{BasisKind, DeviceBuilder};
use qtx_core::Device;
use qtx_linalg::flops::{counts, fans_out};
use qtx_linalg::{Complex64, FlopScope};
use qtx_obc::{beyn_annulus, feast_annulus, BeynConfig, CompanionPencil, FeastConfig};

/// The 1.5 nm wire's lead (`nf` = 90) at the energy `flop_ledger.rs`
/// measures, where FEAST finds 16 modes.
fn long_wire_pencil() -> CompanionPencil {
    let spec = DeviceBuilder::nanowire(1.5).cells(4).basis(BasisKind::TightBinding).build();
    let lead = Device::build(spec).expect("device build").at_kz(0.0).lead_l;
    assert_eq!(lead.nf(), 90);
    CompanionPencil::at_energy(&lead, -5.8, 0.0)
}

/// Every eigenvalue and eigenvector entry as bits, or the error's text.
fn bits<E: std::fmt::Display>(modes: Result<Vec<(Complex64, Vec<Complex64>)>, E>) -> Vec<u64> {
    match modes {
        Ok(modes) => modes
            .iter()
            .flat_map(|(l, u)| std::iter::once(l).chain(u))
            .flat_map(|z| [z.re.to_bits(), z.im.to_bits()])
            .collect(),
        Err(e) => e.to_string().bytes().map(u64::from).collect(),
    }
}

/// Runs `solve` once with the worker cap free and once with it saturated,
/// each under a thread-scoped [`FlopScope`].
fn inline_and_fanned_out<R>(solve: impl Fn() -> R) -> [(R, u64); 2] {
    let counted = || {
        let scope = FlopScope::start();
        let ran = solve();
        (ran, scope.elapsed())
    };
    let fanned = counted();
    let inline = {
        let _busy = (rayon::enter_pool_worker(), rayon::enter_pool_worker());
        counted()
    };
    [fanned, inline]
}

#[test]
fn quadrature_loops_count_and_solve_the_same_inline_and_fanned_out() {
    let pencil = long_wire_pencil();
    let (feast_cfg, beyn_cfg) = (FeastConfig::default(), BeynConfig::default());
    // Both loops of both methods are above the cutoff on this lead, so the
    // first run of each pair fans out.
    let nf = pencil.nf;
    let probes = nf + 8;
    assert!(fans_out(feast_cfg.np as u64 * counts::zgetrf(nf) / 2));
    assert!(fans_out(2 * feast_cfg.np as u64 * counts::zgetrs(nf, 8) / 2));
    assert!(fans_out(
        2 * beyn_cfg.np as u64 * (counts::zgetrf(nf) + counts::zgetrs(nf, probes)) / 2
    ));

    let [(fanned, fanned_flops), (inline, inline_flops)] =
        inline_and_fanned_out(|| feast_annulus(&pencil, feast_cfg).map(|(modes, _)| modes));
    assert_eq!(fanned.as_ref().map(Vec::len).ok(), Some(16), "FEAST finds the 16 modes");
    assert_eq!(fanned_flops, inline_flops, "FEAST's thread-scoped count");
    assert_eq!(bits(fanned), bits(inline), "FEAST's modes");

    let [(fanned, fanned_flops), (inline, inline_flops)] =
        inline_and_fanned_out(|| beyn_annulus(&pencil, beyn_cfg));
    assert_eq!(fanned_flops, inline_flops, "Beyn's thread-scoped count");
    assert_eq!(bits(fanned), bits(inline), "Beyn's modes");
}
