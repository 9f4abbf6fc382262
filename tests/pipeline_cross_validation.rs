//! Integration: all algorithm combinations must agree on the physics.
//!
//! This is the repository's strongest correctness statement: the FEAST
//! and shift-and-invert OBCs, combined with SplitSolve (1, 2, 4
//! partitions) and the MUMPS-like BTD-LU, all produce the same
//! transmission, which itself matches the independent NEGF/Caroli (RGF)
//! route — in the DFT-like basis with NBW = 2, the regime the paper
//! targets. Block cyclic reduction, which no engine path runs, checks the
//! engine's wave function on the same assembled system.

use qtx::core::transport::caroli_transmission;
use qtx::core::{Device, PointPolicy, TransportEngine};
use qtx::obc::{self_energy_pair, Eta, FeastConfig, ObcMethod};
use qtx::prelude::*;
use qtx::solver::{bcr_solve, ObcSystem, SolverKind};

fn dft_device() -> Device {
    let spec = DeviceBuilder::nanowire(1.0).cells(12).basis(BasisKind::Dft3sp).build();
    let mut dev = Device::build(spec).expect("device");
    // A gentle barrier makes the comparison non-trivial.
    let mut v = vec![0.0; dev.n_slabs];
    let mid = dev.n_slabs / 2;
    v[mid - 1] = 0.15;
    v[mid] = 0.15;
    dev.set_potential(&v);
    dev
}

#[test]
fn every_pipeline_agrees_in_the_dft_basis() {
    let dev = dft_device();
    let dk = dev.at_kz(0.0);
    assert!(dk.h.block_size() >= 2 * 6, "NBW=2 folded blocks");
    let e = dk.lead_l.dispersive_energy(1.1, 0.3, 0.3).expect("band");

    let mut results: Vec<(String, f64)> = Vec::new();
    let mut psi_btd_lu = None;
    for (obc_name, obc) in [
        ("feast", ObcMethod::Feast(FeastConfig::default())),
        ("shift-invert", ObcMethod::ShiftInvert),
    ] {
        for (solver_name, solver) in [
            ("splitsolve-1", SolverKind::SplitSolve { partitions: 1 }),
            ("splitsolve-2", SolverKind::SplitSolve { partitions: 2 }),
            ("btd-lu", SolverKind::BtdLu),
        ] {
            let mut d = dev.clone();
            d.config.obc = obc;
            d.config.solver = solver;
            let r = TransportEngine::new(d)
                .solve_point(e, 0.0, &PointPolicy::direct())
                .into_result()
                .expect("solve");
            results.push((format!("{obc_name}+{solver_name}"), r.transmission));
            if obc_name == "shift-invert" && solver == SolverKind::BtdLu {
                psi_btd_lu = Some(r.psi);
            }
        }
    }
    let reference = results[0].1;
    assert!(reference > 1e-3, "probe energy must conduct, T = {reference}");
    // FEAST carries the annulus-truncation approximation (~1e-4 on T, the
    // paper's "fast decaying modes are negligible"); exact methods agree
    // to solver precision among themselves.
    for (name, t) in &results {
        assert!((t - reference).abs() < 5e-3, "{name}: T = {t} deviates from {reference}");
    }
    let exact: Vec<&(String, f64)> =
        results.iter().filter(|(n, _)| n.starts_with("shift-invert")).collect();
    for (name, t) in &exact {
        assert!(
            (t - exact[0].1).abs() < 1e-8,
            "{name}: exact pipelines must agree to 1e-8, {t} vs {}",
            exact[0].1
        );
    }
    // BCR on the system the BTD-LU engine path assembled.
    let (obc_l, obc_r) =
        self_energy_pair(&dk.lead_l, &dk.lead_r, e, Eta::ZERO, ObcMethod::ShiftInvert)
            .map_err(|(_, source)| source)
            .expect("obc");
    let sys = ObcSystem {
        a: dk.es_minus_h(e),
        sigma_l: obc_l.sigma,
        sigma_r: obc_r.sigma,
        rhs_top: obc_l.injection,
        rhs_bottom: obc_r.injection,
    };
    let psi_bcr = bcr_solve(&sys).expect("bcr");
    let psi_btd_lu = psi_btd_lu.expect("shift-invert+btd-lu ran");
    let scale = psi_btd_lu.norm_max();
    assert!(
        psi_bcr.max_diff(&psi_btd_lu) < 1e-8 * scale,
        "BCR ψ deviates from the engine's BTD-LU ψ by {:.2e} (|ψ|max {scale:.2e})",
        psi_bcr.max_diff(&psi_btd_lu)
    );
    // Independent NEGF route.
    let caroli = caroli_transmission(&dk, e, ObcMethod::ShiftInvert).expect("caroli");
    assert!((caroli - exact[0].1).abs() < 1e-6, "Caroli {caroli} vs wave-function {}", exact[0].1);
}

#[test]
fn unitarity_in_the_dft_basis() {
    let mut dev = dft_device();
    // Exact OBCs: unitarity to solver precision even in the DFT basis.
    dev.config.obc = ObcMethod::ShiftInvert;
    let dk = dev.at_kz(0.0);
    let engine = TransportEngine::new(dev.clone());
    for k in [0.7f64, 1.3, 2.2] {
        if let Some(e) = dk.lead_l.dispersive_energy(k, 0.3, 0.3) {
            let r =
                engine.solve_point(e, 0.0, &PointPolicy::direct()).into_result().expect("solve");
            if r.channels.0 > 0 {
                assert!(
                    (r.transmission + r.reflection - r.channels.0 as f64).abs() < 1e-6,
                    "T + R = {} vs {} channels at E = {e}",
                    r.transmission + r.reflection,
                    r.channels.0
                );
            }
        }
    }
}
