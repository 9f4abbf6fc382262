//! Ultra-thin-body FET with a transverse momentum sweep: the 2-D device
//! of Fig. 1(c), periodic out-of-plane, swept over (k, E) on the
//! scheduler pool; the Fig. 9 rank topology is priced, not run.
//!
//! Run with: `cargo run --release --example utb_kpoints`

use qtx::core::{SweepPlan, TransportEngine};
use qtx::prelude::*;

fn main() {
    let spec = DeviceBuilder::utb(0.8).cells(8).basis(BasisKind::TightBinding).build();
    let mut dev = Device::build(spec).expect("device");
    dev.config.n_kz = 5; // transverse momentum line (paper runs used 21)
    let dk = dev.at_kz(0.0);
    let edge = dk.lead_l.dispersive_band_min(0.1, 0.3).expect("conduction edge");
    dev.config.mu_l = edge + 0.15;
    dev.config.mu_r = edge + 0.10;

    let plan = SweepPlan::from_device(&dev, 0.02, 0.06);
    println!("momentum points: {}", plan.k_points.len());
    println!("total energy points: {}", plan.total_points());
    let n_ranks = 8;
    println!("rank allocation over {n_ranks} ranks: {:?}", plan.allocate_ranks(n_ranks));

    let result = TransportEngine::new(dev).sweep(&plan, n_ranks).expect("sweep");
    println!("\nk-summed transmission spectrum:");
    println!("{:>10} {:>12}", "E (eV)", "Σ_k w_k T");
    for (e, t) in result.spectrum.iter().step_by((result.spectrum.len() / 20).max(1)) {
        let bar: String = std::iter::repeat_n('#', (t * 3.0) as usize).collect();
        println!("{e:>10.3} {t:>12.4}  {bar}");
    }
    println!("\nmodelled gather time over {n_ranks} ranks: {:.3} ms", result.comm_seconds * 1e3);
}
