//! # qtx-bench — reproduction harness
//!
//! One binary per paper table/figure (`repro_*`) plus criterion benches.
//! See `EXPERIMENTS.md` for the paper-vs-measured record. Shared helpers
//! live here.

pub mod harness;

pub use harness::{print_table, Row};

use qtx_core::DeviceK;
use qtx_obc::{self_energy_pair, Eta, ObcMethod};
use qtx_solver::ObcSystem;
use std::time::Instant;

/// Medians of the run times of `fs` (seconds) over `reps` rounds (at least
/// 3), each round calling every closure once in turn: a slow phase of a
/// shared host lands on both sides of a gated ratio instead of on one. The
/// `bench_*_json` generators time both paths of every ratio through it.
pub fn medians_interleaved<const K: usize>(mut fs: [&mut dyn FnMut(); K], reps: usize) -> [f64; K] {
    let mut samples: [Vec<f64>; K] = std::array::from_fn(|_| Vec::new());
    for _ in 0..reps.max(3) {
        for (f, times) in fs.iter_mut().zip(&mut samples) {
            let t0 = Instant::now();
            f();
            times.push(t0.elapsed().as_secs_f64());
        }
    }
    samples.map(|mut times| {
        times.sort_by(f64::total_cmp);
        times[times.len() / 2]
    })
}

/// The assembled Eq. 5 system of one energy point — `E·S − H`, both lead
/// self-energies and injections from `obc` — for the figures that run
/// SplitSolve on it themselves to draw its virtual-accelerator timeline.
pub fn point_system(dk: &DeviceK, e: f64, obc: ObcMethod) -> ObcSystem {
    let (left, right) = self_energy_pair(&dk.lead_l, &dk.lead_r, e, Eta::ZERO, obc)
        .unwrap_or_else(|(side, err)| panic!("{side:?} self-energy at E = {e}: {err:?}"));
    ObcSystem {
        a: dk.es_minus_h(e),
        sigma_l: left.sigma,
        sigma_r: right.sigma,
        rhs_top: left.injection,
        rhs_bottom: right.injection,
    }
}
