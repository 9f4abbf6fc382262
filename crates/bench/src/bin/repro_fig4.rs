//! Fig. 4: structure of Eq. 5 — the block tri-diagonal matrix
//! `T = E·S − H − Σ^RB` with low-rank boundary corners and a right-hand
//! side whose non-zeros live only in the top and bottom block rows.

use qtx_atomistic::{BasisKind, DeviceBuilder};
use qtx_core::Device;
use qtx_obc::{self_energy, Eta, ObcMethod, Side};
use qtx_solver::ObcSystem;
use qtx_sparse::{spy_string, Csr};

fn main() {
    let spec = DeviceBuilder::nanowire(0.8).cells(8).basis(BasisKind::TightBinding).build();
    let dev = Device::build(spec).expect("device");
    let dk = dev.at_kz(0.0);
    let e = dk.lead_l.dispersive_energy(1.0, 0.2, 0.3).expect("band");
    let obc_l =
        self_energy(&dk.lead_l, e, Eta::ZERO, Side::Left, ObcMethod::ShiftInvert).expect("L");
    let obc_r =
        self_energy(&dk.lead_r, e, Eta::ZERO, Side::Right, ObcMethod::ShiftInvert).expect("R");
    let sys = ObcSystem {
        a: dk.es_minus_h(e),
        sigma_l: obc_l.sigma.clone(),
        sigma_r: obc_r.sigma.clone(),
        rhs_top: obc_l.injection.clone(),
        rhs_bottom: obc_r.injection.clone(),
    };
    let t = Csr::from_dense(&sys.t_dense(), 1e-10);
    let b = Csr::from_dense(&sys.b_dense(), 1e-10);
    println!("T = (E·S − H − Σ^RB), dim {} x {}, nnz {}:", t.rows(), t.cols(), t.nnz());
    println!("{}", spy_string(&t, 20, 40));
    println!("Inj (RHS), {} columns (left + right injected modes):", b.cols());
    println!("{}", spy_string(&b, 20, 12));
    println!("paper: block tri-diagonal T with self-energy corners; RHS non-zero only in the");
    println!("top and bottom block rows — the structure SplitSolve exploits (Fig. 6).");
}
