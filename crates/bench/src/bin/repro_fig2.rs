//! Fig. 2: the OMEN+CP2K coupling scheme — H/S generated by the DFT
//! substrate, transferred as binary files, imported by the transport
//! driver, which then solves Schrödinger+Poisson self-consistently.

use qtx_atomistic::{BasisKind, DeviceBuilder};
use qtx_core::{Device, ScfConfig, TransportEngine};
use qtx_cp2k::{Cp2kRun, Functional, HsFile};

fn main() {
    // CP2K side: build structure, run the charge SCF, export binaries.
    let spec = DeviceBuilder::nanowire(0.8).cells(8).basis(BasisKind::TightBinding).build();
    let hs = Cp2kRun::new(spec.clone()).functional(Functional::Lda).generate().expect("CP2K-lite");
    let dir = std::env::temp_dir().join("qtx_fig2");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("nanowire.qtxhs");
    hs.save(&path).expect("write transfer file");
    let bytes = std::fs::metadata(&path).expect("stat").len();
    println!(
        "CP2K-lite  : '{}' SCF converged = {} ({} iterations)",
        hs.label, hs.scf.converged, hs.scf.iterations
    );
    println!("transfer   : {} ({} KiB binary H/S file)", path.display(), bytes / 1024);

    // OMEN side: import, build the device, run one self-consistent
    // Schrödinger–Poisson bias point.
    let imported = HsFile::load(&path).expect("read transfer file");
    let mut dev = Device::from_hsfile(spec, imported);
    let dk = dev.at_kz(0.0);
    let edge = dk.lead_l.dispersive_band_min(0.1, 0.3).expect("edge");
    dev.config.mu_l = edge + 0.05;
    let cfg = ScfConfig { max_iter: 6, n_energy: 16, vg: 0.1, ..ScfConfig::default() };
    let (n_ss, n_slabs) = (dev.n_ss(), dev.n_slabs);
    let r = TransportEngine::new(dev).schrodinger_poisson(&cfg).expect("SCF");
    println!(
        "OMEN       : N_SS = {}, {} slabs; SCF {} iterations, residual {:.2e} V, Id = {:.3} µA",
        n_ss, n_slabs, r.iterations, r.residual, r.current_ua
    );
    println!("\npaper: >99% of the simulation time is spent in the transport stage");
    std::fs::remove_file(&path).ok();
}
