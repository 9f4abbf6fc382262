//! Fig. 10: electron distribution (a), current map (b) and spectral
//! current (c) of a gate-all-around Si nanowire FET at one bias point.
//!
//! Paper: d = 3.2 nm, Lg = 64.3 nm, 55 488 atoms, Vds = 0.6 V, Id = 1.5 µA.
//! Downscaled wire, same pipeline: SCF potential, energy sweep, then the
//! occupied-state sums for n(x), J(x) and j(E, x).

use qtx_atomistic::{BasisKind, DeviceBuilder};
use qtx_bench::{print_table, Row};
use qtx_core::observables::{accumulate, spectral_map};
use qtx_core::{landauer_current_ua, Device, EnergyGrid, ScfConfig};
use qtx_core::{PointPolicy, TransportEngine};

fn main() {
    let spec = DeviceBuilder::nanowire(0.8).cells(10).basis(BasisKind::TightBinding).build();
    let mut dev = Device::build(spec).expect("device");
    let dk0 = dev.at_kz(0.0);
    let edge = dk0.lead_l.dispersive_band_min(0.1, 0.3).expect("edge");
    dev.config.mu_l = edge + 0.10;
    let vds = 0.3;
    let cfg = ScfConfig {
        max_iter: 8,
        n_energy: 20,
        vd: vds,
        vg: 0.2,
        gate_window: (0.3, 0.7),
        ..ScfConfig::default()
    };
    let mut engine = TransportEngine::new(dev);
    let scf = engine.schrodinger_poisson(&cfg).expect("SCF");
    println!(
        "bias point: Vds = {vds} V, Vg = {} V; SCF {} iterations (residual {:.1e} V)",
        cfg.vg, scf.iterations, scf.residual
    );

    // Energy sweep for the maps, on the engine's converged device.
    let dev = engine.device().expect("device-backed engine");
    let dk = engine.device_k(0.0).expect("device-backed engine");
    let (lo, hi) = dev.fermi_window(8.0);
    let (blo, bhi) = dk.lead_l.band_window(24);
    let grid = EnergyGrid::uniform(lo.max(blo), hi.min(bhi), 24);
    let points: Vec<_> = grid
        .points
        .iter()
        .map(|&e| engine.solve_point(e, 0.0, &PointPolicy::direct()).into_result().expect("point"))
        .collect();
    let de = grid.points[1] - grid.points[0];
    let weights = vec![de; points.len()];
    let cc = accumulate(
        &dk,
        &points,
        &weights,
        dev.config.mu_l,
        dev.config.mu_r,
        dev.config.temperature,
    );

    // (a) electron distribution along the wire.
    let rows: Vec<Row> = cc
        .density
        .iter()
        .enumerate()
        .map(|(q, n)| Row::new(format!("slab {q}"), vec![*n, scf.potential[q]]))
        .collect();
    print_table("Fig. 10(a) — electron distribution", &["position", "n(x)", "U(x) eV"], &rows);

    // (b) current map: bond currents (conserved along x).
    let rows: Vec<Row> = cc
        .bond_current
        .iter()
        .enumerate()
        .map(|(q, j)| Row::new(format!("slab {q}->{}", q + 1), vec![*j]))
        .collect();
    print_table("Fig. 10(b) — current map", &["segment", "J(x)"], &rows);
    let jmax = cc.bond_current.iter().cloned().fold(f64::MIN, f64::max);
    let jmin = cc.bond_current.iter().cloned().fold(f64::MAX, f64::min);
    println!("current conservation: max deviation {:.2e}", (jmax - jmin).abs());

    // (c) spectral current (energy-resolved, coarse ASCII heat map).
    let sm = spectral_map(&dk, &points, dev.config.mu_l, dev.config.mu_r, dev.config.temperature);
    println!("\nFig. 10(c) — spectral current j(E, x):  (rows: E, cols: x; '#' = strong)");
    let jpeak =
        sm.current.iter().flat_map(|r| r.iter().map(|v| v.abs())).fold(0.0f64, f64::max).max(1e-12);
    for (ei, row) in sm.current.iter().enumerate().rev() {
        let line: String = row
            .iter()
            .map(|v| match (v.abs() / jpeak * 4.0) as usize {
                0 => ' ',
                1 => '.',
                2 => ':',
                3 => '+',
                _ => '#',
            })
            .collect();
        println!("E={:+.3} |{}|", sm.energies[ei], line);
    }
    let id = landauer_current_ua(
        &scf.spectrum,
        dev.config.mu_l,
        dev.config.mu_r,
        dev.config.temperature,
    );
    println!("\nId = {id:.3} µA (paper device: 1.5 µA at Vds = 0.6 V)");
    assert!((jmax - jmin).abs() < 1e-6 * jmax.abs().max(1e-9), "current must be conserved");
}
