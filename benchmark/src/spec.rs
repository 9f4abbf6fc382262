//! The metric tables: every name the benchmark prints, with its unit and
//! the direction that is better. `BENCHMARK.json` lists the same names; a
//! unit test holds the two against each other.

use crate::stats::Better::{self, Higher, Lower};

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// Written into `BENCHMARK.json`; `compare` reads it from there.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

/// What a user of the system sees. Printed by the run with tracing off.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", Lower),
    m("wall_s", "s", Lower),
    m("point_ms_p50", "ms", Lower),
    m("peak_rss_mb", "MB", Lower),
];

/// Single layers, named `<module>.<metric>`. Printed by the traced run.
/// A count that no layer call of the workload produces reads 0.
pub const PER_LAYER: &[Metric] = &[
    m("cp2k.build_ms", "ms", Lower),
    m("device.fold_ms", "ms", Lower),
    m("device.plan_ms", "ms", Lower),
    m("device.assemble_ms", "ms", Lower),
    m("obc.self_energy_ms", "ms", Lower),
    m("obc.flops", "count", Lower),
    m("obc.roofline_frac", "ratio", Higher),
    m("obc.solves", "count", Lower),
    m("obc.modes", "count", Lower),
    m("obc.ms.feast", "ms", Lower),
    m("obc.ms.beyn", "ms", Lower),
    m("obc.ms.shift_invert", "ms", Lower),
    m("obc.ms.decimation", "ms", Lower),
    m("obc.frame_encode_ms", "ms", Lower),
    m("obc.frame_decode_ms", "ms", Lower),
    m("obc.frame_bytes", "count", Lower),
    m("solver.splitsolve_ms", "ms", Lower),
    m("solver.btd_lu_ms", "ms", Lower),
    m("solver.bcr_ms", "ms", Lower),
    m("solver.flops", "count", Lower),
    m("solver.roofline_frac", "ratio", Higher),
    m("solver.fresh_allocs", "count", Lower),
    m("solver.rgf_boundary_ms", "ms", Lower),
    m("solver.rgf_peak_mb", "MB", Lower),
    m("sparse.btd_mb", "MB", Lower),
    m("sparse.sigma_rank", "count", Lower),
    m("sparse.compress_ms", "ms", Lower),
    m("transport.solve_with_obc_ms", "ms", Lower),
    m("transport.self_ms", "ms", Lower),
    m("transport.ladder_overhead_ms", "ms", Lower),
    m("transport.unattributed_frac", "ratio", Lower),
    m("transport.t_err_max", "ratio", Lower),
    m("point.solve_ms", "ms", Lower),
    m("point.tonly_ms", "ms", Lower),
    m("point.ms_p90", "ms", Lower),
    m("point.samples", "count", Higher),
    m("cache.hit_ms", "ms", Lower),
    m("cache.miss_overhead_ms", "ms", Lower),
    m("cache.hits", "count", Higher),
    m("cache.misses", "count", Lower),
    m("cache.hit_ratio", "ratio", Higher),
    m("cache.bytes", "count", Lower),
    m("cache.evictions", "count", Lower),
    m("sweep.overhead_ms_per_point", "ms", Lower),
    m("sweep.escalated", "count", Lower),
    m("sweep.attempts", "count", Lower),
    m("sweep.sched_retries", "count", Lower),
    m("sweep.stragglers", "count", Lower),
    m("sweep.record_codec_ns", "ns", Lower),
    m("scheduler.task_us", "us", Lower),
    m("scheduler.speedup_2w", "ratio", Higher),
    m("checkpoint.encode_ms", "ms", Lower),
    m("checkpoint.parse_ms", "ms", Lower),
    m("checkpoint.bytes", "count", Lower),
    m("refine.rounds", "count", Lower),
    m("refine.points_added", "count", Lower),
    m("refine.points_total", "count", Lower),
    m("refine.round_overhead_ms", "ms", Lower),
    m("refine.current_rel_err", "ratio", Lower),
    m("scf.iterations", "count", Lower),
    m("scf.iter_ms", "ms", Lower),
    m("observables.accumulate_ms", "ms", Lower),
    m("poisson.solve_ms", "ms", Lower),
    m("landauer.integrate_ms", "ms", Lower),
    m("linalg.gemm_gflops", "GFLOP/s", Higher),
    m("linalg.lu_gflops", "GFLOP/s", Higher),
    m("linalg.qr_gflops", "GFLOP/s", Higher),
    m("linalg.eig_ms", "ms", Lower),
    m("linalg.flops_per_point", "count", Lower),
    m("linalg.peak_matrix_mb", "MB", Lower),
    m("linalg.allocs_per_point", "count", Lower),
    m("trace.overhead_frac", "ratio", Lower),
    m("bench.reference_s", "s", Lower),
];

/// The counts that must read exactly the same on two runs of one seed.
pub const EXACT_COUNTS: &[&str] = &[
    "obc.solves",
    "obc.flops",
    "solver.flops",
    "linalg.flops_per_point",
    "refine.points_total",
    "refine.rounds",
    "scf.iterations",
    "cache.hits",
    "cache.misses",
    "checkpoint.bytes",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::Workload;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
    }

    fn check(list: &Json, table: &[Metric], bounded: bool) {
        let list = list.as_arr().unwrap();
        assert_eq!(list.len(), table.len());
        for (j, t) in list.iter().zip(table) {
            assert_eq!(j.get("name").unwrap().as_str(), Some(t.name));
            assert_eq!(j.get("unit").unwrap().as_str(), Some(t.unit), "{}", t.name);
            let better = Better::parse(j.get("better").unwrap().as_str().unwrap());
            assert_eq!(better, Some(t.better), "{}", t.name);
            assert_eq!(j.get("bound").is_some(), bounded, "{}", t.name);
        }
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics_and_workloads() {
        let b = benchmark_json();
        check(b.get("end_to_end").unwrap(), END_TO_END, true);
        check(b.get("per_layer").unwrap(), PER_LAYER, false);
        let names: Vec<&str> = b
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
        assert_eq!(
            b.get("run_seconds").unwrap().as_f64(),
            Some(crate::DEFAULT_SECONDS),
            "run.sh without --seconds measures as long as the driver does"
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "{} twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
        for c in EXACT_COUNTS {
            assert!(PER_LAYER.iter().any(|m| m.name == *c), "{c}");
        }
    }
}
