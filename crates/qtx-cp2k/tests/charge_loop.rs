//! CP2K-lite's charge loop stops when it is self-consistent.
//!
//! The stop test is `max_a |U·(q_a − q⁰_a) − V_a| < tol` (eV), the distance
//! between the Hartree potential of the charges and the shifts that made
//! them. The loop contracts it by `1 − mixing` an iteration, so every
//! benchmark cell passes it within a few iterations, the Hamiltonian
//! folded at the default stop sits within `tol` of the fixed point, and a
//! loop cut short is a typed error rather than a file marked unconverged.

use qtx_atomistic::devices::DeviceSpec;
use qtx_atomistic::{BasisKind, DeviceBuilder};
use qtx_cp2k::{Cp2kError, Cp2kRun};

fn dft_wire(d: f64, cells: usize) -> DeviceSpec {
    DeviceBuilder::nanowire(d).cells(cells).basis(BasisKind::Dft3sp).build()
}

#[test]
fn every_benchmark_cell_is_self_consistent_within_ten_iterations() {
    let tb = BasisKind::TightBinding;
    let cells = [
        ("utb 0.8 x 8", DeviceBuilder::utb(0.8).cells(8).basis(tb).build()),
        ("wire 0.8 x 8", DeviceBuilder::nanowire(0.8).cells(8).basis(tb).build()),
        ("wire 1.5 x 128", DeviceBuilder::nanowire(1.5).cells(128).basis(tb).build()),
        ("dft 1.0 x 12", dft_wire(1.0, 12)),
    ];
    for (name, spec) in cells {
        let run = Cp2kRun::new(spec);
        let hs = run.generate().unwrap_or_else(|e| panic!("{name}: {e}"));
        let scf = &hs.scf;
        assert!(scf.converged, "{name}: {scf:?}");
        assert!(scf.iterations <= 10, "{name}: {} iterations", scf.iterations);
        assert!(scf.charge_residual < run.tol, "{name}: residual {}", scf.charge_residual);
    }
}

#[test]
fn the_default_stop_agrees_with_the_fixed_point_to_tol() {
    let default = Cp2kRun::new(dft_wire(1.0, 12));
    let mut tight = default.clone();
    (tight.tol, tight.max_iter) = (1e-13, 200);
    let (a, b) = (default.generate().unwrap(), tight.generate().unwrap());
    assert!(b.scf.iterations > a.scf.iterations, "{} vs {}", b.scf.iterations, a.scf.iterations);
    let (ha, hb) = (&a.unit_cell.h[0], &b.unit_cell.h[0]);
    let apart = (0..ha.rows()).map(|i| (ha[(i, i)] - hb[(i, i)]).abs()).fold(0.0, f64::max);
    assert!(apart < default.tol, "folded H₀₀ diagonals {apart:e} eV apart");
    // Only the diagonal carries the charge loop.
    assert_eq!(ha.max_diff(hb), apart, "an off-diagonal entry moved");
}

#[test]
fn a_loop_cut_short_is_a_typed_error() {
    let run = Cp2kRun::new(dft_wire(0.6, 4));
    let full = run.generate().expect("the 0.6 nm DFT wire converges");
    assert!(full.scf.iterations > 2, "{:?}", full.scf);
    let mut short = run.clone();
    short.max_iter = 2;
    match short.generate() {
        Err(Cp2kError::NotConverged { iterations, residual }) => {
            assert_eq!(iterations, 2);
            assert!(residual >= run.tol && residual.is_finite(), "residual {residual}");
        }
        other => panic!("expected NotConverged, got {other:?}"),
    }
}
