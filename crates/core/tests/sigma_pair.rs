//! The pair chokepoint is the two-call sequence it replaced.
//!
//! Every transport path asks for both contacts of a point at once
//! (`SigmaCache::self_energy_pair` under `cache::self_energy_pair`), and
//! leads that are the same bytes share one mode solve. The contract: Σ,
//! injection and mode sets, cache hits, misses and stored frames, the
//! process-wide Σ-build counter and every sweep record are what a left
//! `self_energy` followed by a right one produce — whether the leads are
//! equal (sharing on) or differ by a contact potential (sharing off).
//!
//! `obc_solves_total()` is process-global, so every test serializes on
//! one file-local lock.

use qtx_atomistic::{BasisKind, DeviceBuilder};
use qtx_core::transport::solve_with_obc_eta;
use qtx_core::{
    CacheConfig, CachePolicy, Device, Scheduler, SchedulerConfig, SigmaCache, SweepOptions,
    SweepPlan, TransportEngine,
};
use qtx_obc::{
    obc_solves_total, self_energy, BeynConfig, Eta, FeastConfig, ObcFrameParts, ObcMethod, Side,
};
use std::sync::{Arc, Mutex};

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A 0.8 nm wire whose slabs ramp linearly down to `drain` eV at the right
/// contact: `drain = 0` leaves the two leads the same bytes, anything else
/// makes them differ by the contact potential.
fn ramped_device(drain: f64) -> Device {
    let spec = DeviceBuilder::nanowire(0.8).cells(6).basis(BasisKind::TightBinding).build();
    let mut d = Device::build(spec).unwrap();
    let edge = d.at_kz(0.0).lead_l.dispersive_band_min(0.1, 0.3).expect("conduction edge");
    d.config.mu_l = edge + 0.15;
    d.config.mu_r = edge + 0.10;
    let ramp: Vec<f64> =
        (0..d.n_slabs).map(|q| drain * q as f64 / (d.n_slabs - 1) as f64).collect();
    d.set_potential(&ramp);
    d
}

fn assert_same_parts(a: &ObcFrameParts, b: &ObcFrameParts, what: &str) {
    let bits = |m: &qtx_linalg::ZMat| -> Vec<(u64, u64)> {
        m.as_slice().iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    };
    assert_eq!(bits(&a.sigma.to_dense()), bits(&b.sigma.to_dense()), "{what}: Σ");
    assert_eq!(bits(&a.injection), bits(&b.injection), "{what}: injection");
    for (x, y, set) in
        [(&a.inc_modes, &b.inc_modes, "inc_modes"), (&a.out_modes, &b.out_modes, "out_modes")]
    {
        assert_eq!(x.len(), y.len(), "{what}: {set} count");
        for (m, n) in x.iter().zip(y) {
            assert!(m.lambda == n.lambda && m.u == n.u, "{what}: {set} bits");
            assert_eq!(m.velocity.to_bits(), n.velocity.to_bits(), "{what}: {set} velocity");
            assert_eq!(m.propagating, n.propagating, "{what}: {set} class");
        }
    }
}

#[test]
fn cache_pair_books_and_stores_what_two_single_lookups_do() {
    let _g = lock();
    let methods = [
        ObcMethod::Feast(FeastConfig::default()),
        ObcMethod::Beyn(BeynConfig::default()),
        ObcMethod::ShiftInvert,
        ObcMethod::Decimation,
    ];
    for drain in [0.0, -0.12] {
        let dev = ramped_device(drain);
        let dk = dev.at_kz(0.0);
        let (hash_l, hash_r) = (dk.lead_l.content_hash(), dk.lead_r.content_hash());
        assert_eq!(hash_l == hash_r, drain == 0.0);
        let e = dev.config.mu_l;
        for method in methods {
            // Nothing cached, the left contact cached, the right one cached.
            for warm in [None, Some(Side::Left), Some(Side::Right)] {
                let what = format!("drain {drain} {method:?} warm {warm:?}");
                let paired = SigmaCache::new(CacheConfig::default());
                let single = SigmaCache::new(CacheConfig::default());
                let one = |cache: &SigmaCache, side| {
                    let (lead, hash) = match side {
                        Side::Left => (&dk.lead_l, hash_l),
                        Side::Right => (&dk.lead_r, hash_r),
                    };
                    cache.self_energy_parts(lead, hash, e, 0.0, side, method).expect(&what)
                };
                if let Some(side) = warm {
                    one(&paired, side);
                    one(&single, side);
                }
                let pair = |cache: &SigmaCache| {
                    cache
                        .self_energy_pair(&dk.lead_l, hash_l, &dk.lead_r, hash_r, e, 0.0, method)
                        .expect(&what)
                };
                let before = obc_solves_total();
                let (pair_l, pair_r) = pair(&paired);
                let pair_solves = obc_solves_total() - before;
                let (single_l, single_r) = (one(&single, Side::Left), one(&single, Side::Right));
                let single_solves = obc_solves_total() - before - pair_solves;
                assert_same_parts(&pair_l, &single_l, &format!("{what} left"));
                assert_same_parts(&pair_r, &single_r, &format!("{what} right"));
                assert_eq!(pair_solves, single_solves, "{what}: Σ builds");
                assert_eq!(pair_solves, if warm.is_some() { 1 } else { 2 }, "{what}");
                assert_eq!(paired.stats(), single.stats(), "{what}: hits, misses, frames");
                // Warm on both sides now: the pair replays, nothing is built.
                let before = obc_solves_total();
                let (hit_l, hit_r) = pair(&paired);
                assert_eq!(obc_solves_total(), before, "{what}: a warm pair builds nothing");
                assert_same_parts(&hit_l, &single_l, &format!("{what} left hit"));
                assert_same_parts(&hit_r, &single_r, &format!("{what} right hit"));
                let s = paired.stats();
                assert_eq!((s.hits, s.entries), (2 + warm.is_some() as u64, 2), "{what}");
            }
        }
    }
}

#[test]
fn sweep_records_equal_the_two_call_sequence_with_and_without_bias() {
    let _g = lock();
    let pool = Arc::new(Scheduler::new(SchedulerConfig { workers: 2 }));
    for drain in [0.0, -0.08] {
        let dev = ramped_device(drain);
        let plan = SweepPlan::from_device(&dev, 0.05, 0.15);
        let dk = dev.at_kz(0.0);
        assert_eq!(dk.lead_l.same_bits(&dk.lead_r), drain == 0.0);
        let cfg = dev.config;
        // The parent's point: one `self_energy` per contact, then Eq. 5.
        let reference: Vec<(u64, u64)> = plan.energies[0]
            .iter()
            .map(|&e| {
                let obc_l = self_energy(&dk.lead_l, e, Eta::ZERO, Side::Left, cfg.obc).unwrap();
                let obc_r = self_energy(&dk.lead_r, e, Eta::ZERO, Side::Right, cfg.obc).unwrap();
                let (point, residual) =
                    solve_with_obc_eta(&dk, e, 0.0, &cfg, &obc_l, &obc_r).unwrap();
                (point.transmission.to_bits(), residual.to_bits())
            })
            .collect();
        let engine = TransportEngine::builder(dev).scheduler(pool.clone()).build();
        for cache in [
            CachePolicy::Off,
            CachePolicy::Shared(Arc::new(SigmaCache::new(CacheConfig::default()))),
        ] {
            let label = format!("drain {drain}, {cache:?}");
            let opts = SweepOptions::builder().cache(cache).build().unwrap();
            let before = obc_solves_total();
            let swept = engine.sweep_resumable(&plan, 2, &opts).expect(&label);
            let solves = obc_solves_total() - before;
            assert_eq!(swept.records.len(), reference.len(), "{label}");
            assert_eq!(solves, 2 * reference.len() as u64, "{label}: two Σ builds per point");
            for r in &swept.records {
                assert_eq!(r.method, 0, "{label}: E = {} escalated", r.e);
                assert_eq!(
                    (r.t.to_bits(), r.residual.to_bits()),
                    reference[r.e_idx as usize],
                    "{label}: E = {}",
                    r.e
                );
            }
        }
    }
}
