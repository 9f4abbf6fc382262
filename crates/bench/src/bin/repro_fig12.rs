//! Fig. 12: (a) machine- and GPU-level power profiles of the 15 PFlop/s
//! run; (b) per-GPU kernel activity during one energy point.

use qtx_accel::{power_profile, AccelRuntime, GpuSpec, TraceSummary};
use qtx_atomistic::{BasisKind, DeviceBuilder};
use qtx_bench::{point_system, print_table, Row};
use qtx_core::Device;
use qtx_machine::fig12_power;
use qtx_solver::SplitSolve;

fn main() {
    // (a) power report of the full-machine run (model).
    let p = fig12_power();
    let rows = vec![
        Row::new("machine avg (MW)", vec![7.6, p.machine_avg_mw]),
        Row::new("machine peak (MW)", vec![8.8, p.machine_peak_mw]),
        Row::new("GPU avg (W)", vec![146.0, p.gpu_avg_w]),
        Row::new("machine MFLOPS/W", vec![1975.0, p.machine_mflops_per_w]),
        Row::new("GPU MFLOPS/W", vec![5396.0, p.gpu_mflops_per_w]),
        Row::new("sustained PFlop/s", vec![15.01, p.sustained_pflops]),
    ];
    print_table(
        "Fig. 12(a) — power figures (paper vs model)",
        &["quantity", "paper", "model"],
        &rows,
    );

    // (b) real kernel activity of one energy point on 4 virtual GPUs: a
    // 48-cell wire, its system solved by SplitSolve on two partitions.
    let spec = DeviceBuilder::nanowire(1.0).cells(48).basis(BasisKind::TightBinding).build();
    let dev = Device::build(spec).expect("device");
    let dk = dev.at_kz(0.0);
    let e = dk.lead_l.dispersive_energy(1.0, 0.2, 0.3).expect("band");
    let rt = AccelRuntime::new(4, GpuSpec::k20x_titan());
    SplitSolve::new(2).solve(&point_system(&dk, e, dev.config.obc), Some(&rt)).expect("solve");
    let records = rt.traces();
    println!("\nFig. 12(b) — GPU activity during one energy point (4 GPUs):");
    println!("{}", TraceSummary::activity_chart(&records, 4, 64));
    let horizon = rt.max_clock();
    let spec_gpu = rt.spec();
    println!("per-GPU utilization and simulated power draw:");
    for d in 0..4 {
        let u = rt.utilization(d, horizon);
        let profile = power_profile(&records, &spec_gpu, d, horizon, 16);
        let avg = qtx_accel::power::mean_power(&profile);
        println!("  GPU{d}: utilization {:5.1}%  avg power {avg:6.1} W", u * 100.0);
    }
    println!("\npaper: high utilization with overlapped compute + H-to-D/D-to-H/D-to-D transfers");
}
