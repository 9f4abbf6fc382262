//! The two-front battery's engine-level cases for a real pencil: at
//! `kz = 0` and a real energy the interior solve runs the Σ-late fronts,
//! whose real pivots are Schur complements of *closed* sub-chains. The
//! first one each front factors is a bare cell, `E·S_cc − H_cc`, so at an
//! eigenvalue of one cell (`eigh_generalized` of its real `H` and `S`) that
//! pivot is singular to rounding. The point must still come back solved —
//! by the pivoted factorization or by the ladder's broadened rung — with
//! the BTD-LU reference's transmission, on the 0.8 nm and the 1.5 nm wire.

use qtx_atomistic::{BasisKind, DeviceBuilder};
use qtx_core::transport::METHOD_FAILED;
use qtx_core::{CachePolicy, Device, PointPolicy, TransportEngine};
use qtx_linalg::{eigh_generalized, Vectors};
use qtx_solver::SolverKind;

fn wire(diameter: f64) -> Device {
    let spec = DeviceBuilder::nanowire(diameter).cells(8).basis(BasisKind::TightBinding).build();
    Device::build(spec).unwrap()
}

/// `(T, method_used)` of a robust point at `e` on an engine over `device`.
fn point(device: &Device, e: f64) -> (f64, u8) {
    let engine = TransportEngine::builder(device.clone()).cache(CachePolicy::Off).build();
    let rs = engine.solve_point(e, 0.0, &PointPolicy::robust());
    let t = rs.result.map_or(f64::NAN, |r| r.transmission);
    (t, rs.outcome.method_used)
}

#[test]
fn a_singular_cell_pivot_still_gives_the_reference_transmission() {
    for diameter in [0.8, 1.5] {
        let device = wire(diameter);
        let dk = device.at_kz(0.0);
        assert!(dk.chain_memo().real, "premise: the {diameter} nm wire's pencil is real at kz = 0");
        let mut reference = device.clone();
        reference.config.solver = SolverKind::BtdLu;
        // Every cell is the same cell: the middle one's eigenvalues are
        // the energies where each front's first pivot is singular,
        // wherever the cut falls.
        let mid = dk.h.num_blocks() / 2;
        let cell = eigh_generalized(&dk.h.diag[mid], &dk.s.diag[mid], Vectors::Skip).unwrap();
        let mut checked = 0;
        for &e in &cell.values {
            let (t_ref, _) = point(&reference, e);
            if t_ref.is_nan() || t_ref <= 0.5 {
                continue; // no open channel here: nothing for T to show
            }
            let (t, method) = point(&device, e);
            assert_ne!(method, METHOD_FAILED, "{diameter} nm at E = {e}: the point failed");
            assert!((t - t_ref).abs() < 1e-4, "{diameter} nm at E = {e}: T = {t} against {t_ref}");
            checked += 1;
            if checked == 3 {
                break;
            }
        }
        assert!(checked > 0, "{diameter} nm: no cell eigenvalue inside a band");
    }
}
