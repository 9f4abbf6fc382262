//! Fig. 1(d): transfer characteristics Id–Vgs of a Si double-gate
//! ultra-thin-body FET.
//!
//! Paper: t_body = 5 nm, Ls = Ld = 20 nm, Lg = 10 nm. Downscaled body and
//! length; the self-consistent Schrödinger–Poisson loop, gate
//! electrostatics and Landauer current are the production code path. The
//! shape to match: exponential subthreshold slope followed by turn-on.

use qtx_atomistic::{BasisKind, DeviceBuilder};
use qtx_bench::{print_table, Row};
use qtx_core::{Device, ScfConfig, TransportEngine};

fn main() {
    let spec = DeviceBuilder::utb(0.8).cells(10).basis(BasisKind::TightBinding).build();
    let mut dev = Device::build(spec).expect("device");
    let dk = dev.at_kz(0.0);
    let edge = dk.lead_l.dispersive_band_min(0.1, 0.3).expect("edge");
    dev.config.mu_l = edge + 0.05;
    let cfg = ScfConfig { max_iter: 10, n_energy: 24, vd: 0.05, tol: 3e-3, ..ScfConfig::default() };
    let vgs: Vec<f64> = (0..9).map(|i| -0.45 + i as f64 * 0.1).collect();
    let iv = TransportEngine::new(dev).id_vgs(&cfg, &vgs).expect("Id-Vgs sweep");
    let rows: Vec<Row> = iv
        .iter()
        .map(|p| {
            Row::new(format!("Vgs = {:+.2} V", p.vgs), vec![p.id_ua, p.id_ua.max(1e-9).log10()])
        })
        .collect();
    print_table(
        "Fig. 1(d) — DG UTBFET transfer characteristic",
        &["bias", "Id (µA)", "log10 Id"],
        &rows,
    );
    let on = iv.last().expect("points").id_ua;
    let off = iv.first().expect("points").id_ua;
    println!("\non/off ratio = {:.1}", on / off.max(1e-12));
    println!("paper: Id-Vgs with subthreshold slope and on-state saturation");
    assert!(on > 10.0 * off.max(1e-12), "FET must switch");
}
