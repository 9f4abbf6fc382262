//! Self-energy cache benchmark: the Fig. 9 sweep, cold vs warm.
//!
//! The OBC solves dominate the per-point budget (Fig. 8), and in any
//! bias/gate sweep their inputs repeat exactly — so a warm
//! [`TransportEngine`] replays the whole sweep from stored Σ frames.
//! This bin measures that: one cold pass populating the cache, one warm
//! pass through the same engine, with the byte-level store stats and the
//! process-global OBC solve counter before/after each pass. The bench
//! builds its own shared cache, so the numbers are self-contained.

use qtx_atomistic::{BasisKind, DeviceBuilder};
use qtx_bench::{print_table, Row};
use qtx_core::{CacheConfig, CachePolicy, Device, SigmaCache, SweepPlan, TransportEngine};
use qtx_obc::obc_solves_total;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let spec = DeviceBuilder::utb(0.8).cells(8).basis(BasisKind::TightBinding).build();
    let mut dev = Device::build(spec).expect("device");
    dev.config.n_kz = 3;
    let dk = dev.at_kz(0.0);
    let edge = dk.lead_l.dispersive_band_min(0.1, 0.3).expect("edge");
    dev.config.mu_l = edge + 0.15;
    dev.config.mu_r = edge + 0.10;

    let plan = SweepPlan::from_device(&dev, 0.03, 0.08);
    println!("plan: {} k-points, {} energy points total", plan.k_points.len(), plan.total_points());

    let cache = Arc::new(SigmaCache::new(CacheConfig::default()));
    let engine = TransportEngine::builder(dev).cache(CachePolicy::Shared(cache.clone())).build();

    let mut rows = Vec::new();
    let mut reference = None;
    for pass in ["cold", "warm"] {
        let solves_before = obc_solves_total();
        let t0 = Instant::now();
        let result = engine.sweep(&plan, 6).expect("sweep");
        let secs = t0.elapsed().as_secs_f64();
        let solves = obc_solves_total() - solves_before;
        let h = &result.health;
        rows.push(Row::new(
            pass,
            vec![secs * 1e3, solves as f64, h.cache_hits as f64, h.cache_misses as f64],
        ));
        match &reference {
            None => reference = Some(result),
            Some(cold) => {
                let identical =
                    cold.records.iter().zip(&result.records).all(|(a, b)| a.identity_eq(b));
                assert!(identical, "warm sweep must be bit-identical to the cold sweep");
                assert_eq!(solves, 0, "warm sweep must perform zero OBC solves, did {solves}");
            }
        }
    }
    print_table(
        "OBC self-energy cache — same sweep, cold vs warm engine",
        &["pass", "wall ms", "obc solves", "cache hits", "cache misses"],
        &rows,
    );
    let s = cache.stats();
    println!(
        "store: {} entries, {} bytes, {} evictions; warm records verified bit-identical",
        s.entries, s.bytes, s.evictions
    );
}
