//! Integration: the (k, E) sweep (Fig. 9) is independent of the rank
//! count of its gather-cost model and matches the serial reference.

use qtx::core::{PointPolicy, SweepPlan, TransportEngine};
use qtx::prelude::*;

fn utb_device() -> Device {
    let spec = DeviceBuilder::utb(0.8).cells(6).basis(BasisKind::TightBinding).build();
    let mut dev = Device::build(spec).expect("device");
    dev.config.n_kz = 3;
    let dk = dev.at_kz(0.0);
    let edge = qtx::core::energygrid::subband_edges(&dk.lead_l, 0.0, 6.0)[0];
    dev.config.mu_l = edge + 0.12;
    dev.config.mu_r = edge + 0.08;
    dev
}

#[test]
fn sweep_is_rank_count_invariant() {
    let dev = utb_device();
    let plan = SweepPlan::from_device(&dev, 0.05, 0.12);
    assert_eq!(plan.k_points.len(), 3);
    assert!(plan.total_points() > 0);
    let engine = TransportEngine::new(dev);
    let [two, five] = [2usize, 5].map(|n| engine.sweep(&plan, n).expect("sweep"));
    assert_eq!(two.records.len(), five.records.len());
    for (a, b) in two.records.iter().zip(&five.records) {
        assert!(a.identity_eq(b), "{a:?} vs {b:?}");
    }
    assert_eq!(two.spectrum, five.spectrum);
    assert!(five.comm_seconds > two.comm_seconds, "only the priced topology grows with ranks");
}

#[test]
fn sweep_matches_serial_per_k_reference() {
    let dev = utb_device();
    let plan = SweepPlan::from_device(&dev, 0.08, 0.15);
    let engine = TransportEngine::new(dev);
    let result = engine.sweep(&plan, 4).expect("sweep");
    // Pick a handful of samples and recompute serially.
    for &(kz, _w, e, t) in result.samples.iter().take(5) {
        let reference = engine
            .solve_point(e, kz, &PointPolicy::direct())
            .into_result()
            .expect("serial")
            .transmission;
        assert!((t - reference).abs() < 1e-9, "kz={kz} E={e}: {t} vs {reference}");
    }
}

#[test]
fn weights_halve_at_zone_boundary() {
    let dev = utb_device();
    let ks = dev.kz_points();
    assert_eq!(ks.len(), 3);
    assert_eq!(ks[0].1, 0.5);
    assert_eq!(ks[1].1, 1.0);
    assert_eq!(ks[2].1, 0.5);
}
