//! Fig. 6: SplitSolve on p accelerators — partition-local RGF sweeps
//! (phases P1–P4), recursive SPIKE merges, then the post-processing once
//! Σ^RB and Inj arrive. Runs a real solve on 4 virtual devices and prints
//! the recorded kernel timeline (the Fig. 12(b)-style view of Fig. 6).

use qtx_accel::{AccelRuntime, GpuSpec, TraceSummary};
use qtx_atomistic::{BasisKind, DeviceBuilder};
use qtx_bench::{print_table, Row};
use qtx_core::{Device, PointPolicy, TransportEngine};
use qtx_solver::SolverKind;

fn main() {
    // 48 cells: long enough that the partition plan
    // (`SplitSolve::for_chain`) leaves the chain at the two partitions the
    // figure shows — at 16 it would run one and print no merge phase.
    let spec = DeviceBuilder::nanowire(1.0).cells(48).basis(BasisKind::TightBinding).build();
    let mut dev = Device::build(spec).expect("device");
    dev.config.solver = SolverKind::SplitSolve { partitions: 2 };
    let dk = dev.at_kz(0.0);
    let e = dk.lead_l.dispersive_energy(1.0, 0.2, 0.3).expect("band");
    let rt = AccelRuntime::new(4, GpuSpec::k20x());
    let r = TransportEngine::new(dev)
        .solve_point(e, 0.0, &PointPolicy::direct().with_runtime(&rt))
        .into_result()
        .expect("solve");
    println!(
        "device: {} blocks of size {}, T(E) = {:.4}",
        dk.h.num_blocks(),
        dk.h.block_size(),
        r.transmission
    );

    let records = rt.traces();
    println!(
        "\nvirtual GPU activity (2 partitions x 2 accelerators, phases P1-P4 + merge + post):"
    );
    println!("{}", TraceSummary::activity_chart(&records, 4, 64));
    let summary = TraceSummary::from_records(&records);
    let rows: Vec<Row> = summary
        .rows
        .iter()
        .map(|(label, secs, flops, bytes, count)| {
            Row::new(
                label.clone(),
                vec![*secs * 1e3, *flops as f64 / 1e6, *bytes as f64 / 1024.0, *count as f64],
            )
        })
        .collect();
    print_table(
        "Fig. 6 — kernel breakdown of one SplitSolve energy point",
        &["kernel", "virtual ms", "MFLOP", "KiB moved", "calls"],
        &rows,
    );
    println!("\nmakespan: {:.3} virtual ms on 4 accelerators", rt.max_clock() * 1e3);
    println!("paper: each partition is processed by two accelerators with perfect parallelism;");
    println!("merges are recursive with logarithmically many constant-cost steps");
}
