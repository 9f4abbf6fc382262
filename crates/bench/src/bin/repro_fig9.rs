//! Fig. 9: OMEN's three-level parallelization — momentum (top), energy
//! (middle), spatial domain decomposition (bottom) — on a UTB device with
//! a transverse k-grid. The (k, E) points run as tasks on the scheduler
//! pool; the rank hierarchy is priced by the pure gather-cost model
//! (`CostModel::fig9_gather_seconds`), not run.
//!
//! `--fault-inject <spec>` (builds with `--features fault-inject` only)
//! arms a deterministic fault campaign for the sweep, e.g.
//! `rate=0.2,seed=7,sites=factor_poly|self_energy|splitsolve` — the CI
//! fault-inject job's smoke; the health lines at the end report what the
//! escalation ladder and the pool absorbed.

use qtx_atomistic::{BasisKind, DeviceBuilder};
use qtx_bench::{print_table, Row};
use qtx_core::{Device, SweepPlan, TransportEngine};

fn usage(problem: &str) -> ! {
    eprintln!("repro_fig9: {problem}\nusage: repro_fig9 [--fault-inject <spec>]");
    std::process::exit(2)
}

/// Installs the campaign `spec` describes (see `qtx_linalg::fault`).
#[cfg(feature = "fault-inject")]
fn arm_faults(spec: &str) {
    use qtx_linalg::fault::{set_config, FaultConfig};
    match FaultConfig::parse(spec) {
        Some(cfg) => set_config(Some(cfg)),
        None => usage(&format!("unparsable fault campaign {spec:?}")),
    }
}

#[cfg(not(feature = "fault-inject"))]
fn arm_faults(_spec: &str) {
    usage("--fault-inject needs a build with `--features fault-inject`");
}

fn main() {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fault-inject" => match args.next() {
                Some(spec) => arm_faults(&spec),
                None => usage("--fault-inject needs a campaign spec"),
            },
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    let spec = DeviceBuilder::utb(0.8).cells(8).basis(BasisKind::TightBinding).build();
    let mut dev = Device::build(spec).expect("device");
    dev.config.n_kz = 3;
    let dk = dev.at_kz(0.0);
    let edge = dk.lead_l.dispersive_band_min(0.1, 0.3).expect("edge");
    dev.config.mu_l = edge + 0.15;
    dev.config.mu_r = edge + 0.10;

    let plan = SweepPlan::from_device(&dev, 0.03, 0.08);
    println!("momentum points: {}", plan.k_points.len());
    for (i, es) in plan.energies.iter().enumerate() {
        println!("  k[{i}] = {:.3}: {} energy points", plan.k_points[i].0, es.len());
    }
    let n_ranks = 6;
    let alloc = plan.allocate_ranks(n_ranks);
    println!("dynamic rank allocation over {n_ranks} ranks (ref. [45]): {alloc:?}");

    let result = TransportEngine::new(dev).sweep(&plan, n_ranks).expect("sweep");
    let rows: Vec<Row> = result
        .spectrum
        .iter()
        .step_by((result.spectrum.len() / 12).max(1))
        .map(|&(e, t)| Row::new(format!("E = {e:+.3}"), vec![t]))
        .collect();
    print_table(
        "Fig. 9 — k-summed transmission from the 3-level parallel sweep",
        &["energy", "sum_k w_k T(E,k)"],
        &rows,
    );
    println!(
        "\n{} samples; modelled gather over {} ranks {:.3} ms",
        result.samples.len(),
        n_ranks,
        result.comm_seconds * 1e3
    );
    let h = &result.health;
    println!(
        "health: {} points, {} escalated, {} interpolated, {} failed, \
         {} attempts, {} faults injected, worst residual {:.2e}",
        h.total_points,
        h.escalated,
        h.interpolated,
        h.failed,
        h.attempts,
        h.faults_injected,
        h.worst_residual
    );
    println!(
        "scheduler: {} caught panics, {} retries, {} quarantined, {} stragglers",
        h.panics, h.sched_retries, h.quarantined, h.stragglers
    );
    println!("paper: k and E are almost embarrassingly parallel; the spatial level is SplitSolve");
}
