//! Gate-all-around nanowire FET: self-consistent Schrödinger–Poisson
//! Id–Vgs transfer characteristic (the Fig. 1(d) workflow on a nanowire).
//!
//! Run with: `cargo run --release --example nanowire_iv`

use qtx::core::ScfConfig;
use qtx::prelude::*;

fn main() {
    let spec = DeviceBuilder::nanowire(0.8).cells(10).basis(BasisKind::TightBinding).build();
    let mut dev = Device::build(spec).expect("device");

    // n-type contacts: Fermi level slightly above the lowest subband.
    let dk = dev.at_kz(0.0);
    let edge = dk.lead_l.dispersive_band_min(0.1, 0.3).expect("conduction edge");
    dev.config.mu_l = edge + 0.05;
    println!("conduction edge at {edge:.3} eV; contacts at µ = {:.3} eV", dev.config.mu_l);

    let cfg = ScfConfig {
        max_iter: 10,
        n_energy: 24,
        vd: 0.05,
        gate_window: (0.3, 0.7),
        ..ScfConfig::default()
    };
    let vgs: Vec<f64> = (0..8).map(|i| -0.40 + i as f64 * 0.08).collect();
    let iv = TransportEngine::new(dev).id_vgs(&cfg, &vgs).expect("sweep");

    println!("\n{:>10} {:>14} {:>10}", "Vgs (V)", "Id (µA)", "log10 Id");
    for p in &iv {
        println!("{:>10.2} {:>14.5} {:>10.2}", p.vgs, p.id_ua, p.id_ua.max(1e-12).log10());
    }
    let on = iv.last().expect("points").id_ua;
    let off = iv.first().expect("points").id_ua;
    println!("\non/off ratio ≈ {:.0} over {:.2} V of gate swing", on / off.max(1e-12), 0.56);
}
