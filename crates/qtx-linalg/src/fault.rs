//! Deterministic fault injection for the robustness test battery.
//!
//! Long (k × E × bias) sweeps only earn trust if the recovery machinery —
//! the per-point escalation ladder, the sweep health accounting and the
//! checkpoint/resume path in `qtx-core` — is exercised against *actual*
//! failures. Real OBC failures cluster near band edges and resonances and
//! are hard to provoke on demand, so this module fails a configurable
//! fraction of calls at three chokepoints instead:
//!
//! * `factor_poly` — the per-quadrature-node factorization inside
//!   FEAST/Beyn ([`crate::lu`] through `CompanionPencil::factor_poly_ws`);
//! * `self_energy` — the whole OBC build of one contact;
//! * `splitsolve` — the Eq. 5 interior solve.
//!
//! Decisions are **deterministic and order-free**: whether a call fails
//! depends only on `(seed, site, key)` where `key` hashes the call's
//! mathematical identity (energy, shift, broadening, operand bits) — never
//! on a global call counter. Parallel quadrature workers, re-ordered
//! sweeps and checkpoint resumes therefore see byte-identical fault
//! patterns, which is what lets the battery assert bit-identical recovery.
//! A retry of the *same* computation fails again; an escalation that
//! changes the broadening, the quadrature or the method changes the key
//! and gets a fresh draw — exactly the contract the escalation ladder is
//! built against.
//!
//! Everything here is compiled only under the `fault-inject` cargo
//! feature; without it [`should_fail`] is a `const false` the optimizer
//! deletes. With the feature on, injection still stays dormant until a
//! campaign is installed with `set_config` — the only way in: tests call
//! it directly, and `repro_fig9 --fault-inject <spec>` parses its flag
//! (`rate=0.2,seed=7,sites=factor_poly|self_energy|splitsolve`) with
//! `FaultConfig::parse` and calls it. No environment variable is read.

#[cfg(feature = "fault-inject")]
mod imp {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::RwLock;

    /// Which chokepoints a configuration arms.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct FaultSites {
        /// `CompanionPencil::factor_poly_ws` (FEAST/Beyn quadrature LU).
        pub factor_poly: bool,
        /// `qtx_obc::self_energy` (whole-contact OBC build).
        pub self_energy: bool,
        /// `SplitSolve::solve_ws` (interior solve).
        pub splitsolve: bool,
        /// Pre-solve panic in `qtx-core`'s scheduler workers. Unlike the
        /// three chokepoints above, a hit here *panics* instead of
        /// returning a typed error, bypassing the escalation ladder —
        /// it exercises the pool's `catch_unwind` isolation. Opt-in only:
        /// never armed by [`FaultSites::all`] or `sites=all`.
        pub sched_panic: bool,
    }

    impl FaultSites {
        /// Every error-returning site armed (`sched_panic` stays off —
        /// see its field docs).
        pub fn all() -> Self {
            FaultSites {
                factor_poly: true,
                self_energy: true,
                splitsolve: true,
                sched_panic: false,
            }
        }

        fn armed(&self, site: &str) -> bool {
            match site {
                "factor_poly" => self.factor_poly,
                "self_energy" => self.self_energy,
                "splitsolve" => self.splitsolve,
                "sched_panic" => self.sched_panic,
                _ => false,
            }
        }
    }

    /// One injection campaign.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct FaultConfig {
        /// Fraction of calls to fail in `[0, 1]`.
        pub rate: f64,
        /// Seed decorrelating campaigns.
        pub seed: u64,
        /// Armed chokepoints.
        pub sites: FaultSites,
    }

    impl FaultConfig {
        /// All sites at `rate` under `seed`.
        pub fn new(rate: f64, seed: u64) -> Self {
            FaultConfig { rate, seed, sites: FaultSites::all() }
        }

        /// Parses a campaign spec (the `repro_fig9 --fault-inject` flag):
        /// `rate=0.2,seed=7,sites=factor_poly|self_energy|splitsolve`
        /// (a bare number is shorthand for `rate=<x>` with all sites).
        pub fn parse(s: &str) -> Option<FaultConfig> {
            let s = s.trim();
            if s.is_empty() {
                return None;
            }
            if let Ok(rate) = s.parse::<f64>() {
                return Some(FaultConfig::new(rate, 0));
            }
            let mut cfg = FaultConfig::new(0.0, 0);
            for kv in s.split(',') {
                let (k, v) = kv.split_once('=')?;
                match k.trim() {
                    "rate" => cfg.rate = v.trim().parse().ok()?,
                    "seed" => cfg.seed = v.trim().parse().ok()?,
                    "sites" => {
                        let mut sites = FaultSites {
                            factor_poly: false,
                            self_energy: false,
                            splitsolve: false,
                            sched_panic: false,
                        };
                        for site in v.split('|') {
                            match site.trim() {
                                "factor_poly" => sites.factor_poly = true,
                                "self_energy" => sites.self_energy = true,
                                "splitsolve" => sites.splitsolve = true,
                                "sched_panic" => sites.sched_panic = true,
                                "all" => {
                                    let keep = sites.sched_panic;
                                    sites = FaultSites::all();
                                    sites.sched_panic = keep;
                                }
                                _ => return None,
                            }
                        }
                        cfg.sites = sites;
                    }
                    _ => return None,
                }
            }
            Some(cfg)
        }
    }

    static CONFIG: RwLock<Option<FaultConfig>> = RwLock::new(None);
    static INJECTED: AtomicU64 = AtomicU64::new(0);

    /// Installs (or clears) the active campaign — the only way one is
    /// ever armed.
    pub fn set_config(cfg: Option<FaultConfig>) {
        *CONFIG.write().expect("fault config lock") = cfg;
    }

    /// Active campaign (`None` until [`set_config`] installs one).
    pub fn config() -> Option<FaultConfig> {
        *CONFIG.read().expect("fault config lock")
    }

    /// Total faults injected by this process (across every site/thread).
    pub fn injected_total() -> u64 {
        INJECTED.load(Ordering::Relaxed)
    }

    /// True while a campaign with a positive rate is installed. Layers
    /// whose *caching* could change how often the chokepoints are reached
    /// (and therefore how many faults a run draws) consult this to stand
    /// down for the duration of a campaign, keeping fault batteries
    /// byte-identical to the uncached path.
    pub fn armed() -> bool {
        config().is_some_and(|c| c.rate > 0.0)
    }

    fn splitmix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// FNV-1a over a site name (compile-time-constant strings).
    fn site_hash(site: &str) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in site.as_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    /// Deterministic draw: does this `(site, key)` call fail under the
    /// active campaign? Increments the process-wide counter on a hit.
    pub fn should_fail(site: &'static str, key: u64) -> bool {
        let Some(cfg) = config() else { return false };
        if cfg.rate <= 0.0 || !cfg.sites.armed(site) {
            return false;
        }
        let draw = splitmix(cfg.seed ^ site_hash(site) ^ key.rotate_left(17));
        let frac = (draw >> 11) as f64 / (1u64 << 53) as f64;
        let hit = frac < cfg.rate;
        if hit {
            INJECTED.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Mixes f64 bit patterns into an injection key (order-sensitive, so
    /// `key(&[e, eta])` ≠ `key(&[eta, e])`).
    pub fn key_of(parts: &[f64]) -> u64 {
        let mut h = 0x51_7c_c1_b7_27_22_0a_95u64;
        for p in parts {
            h = splitmix(h ^ p.to_bits());
        }
        h
    }
}

#[cfg(feature = "fault-inject")]
pub use imp::{
    armed, config, injected_total, key_of, set_config, should_fail, FaultConfig, FaultSites,
};

/// No-op twin compiled without the `fault-inject` feature: the call sites
/// stay unconditional and the optimizer removes them.
#[cfg(not(feature = "fault-inject"))]
#[inline(always)]
pub fn should_fail(_site: &'static str, _key: u64) -> bool {
    false
}

/// See the feature-gated twin; always 0 without `fault-inject`.
#[cfg(not(feature = "fault-inject"))]
#[inline(always)]
pub fn injected_total() -> u64 {
    0
}

/// See the feature-gated twin; constant without `fault-inject`.
#[cfg(not(feature = "fault-inject"))]
#[inline(always)]
pub fn key_of(_parts: &[f64]) -> u64 {
    0
}

/// See the feature-gated twin; never armed without `fault-inject`.
#[cfg(not(feature = "fault-inject"))]
#[inline(always)]
pub fn armed() -> bool {
    false
}

#[cfg(all(test, feature = "fault-inject"))]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_rate_bounded() {
        set_config(Some(FaultConfig::new(0.25, 42)));
        let first: Vec<bool> =
            (0..4000).map(|i| should_fail("factor_poly", key_of(&[i as f64]))).collect();
        let second: Vec<bool> =
            (0..4000).map(|i| should_fail("factor_poly", key_of(&[i as f64]))).collect();
        assert_eq!(first, second, "same (site, key) must draw identically");
        let hits = first.iter().filter(|&&b| b).count();
        // 4000 draws at 25%: a ±5σ band around 1000.
        assert!((850..1150).contains(&hits), "hit rate off: {hits}/4000");
        set_config(None);
        assert!(!should_fail("factor_poly", 123), "disarmed campaign must not fire");
    }

    #[test]
    fn sites_gate_independently_and_counter_accumulates() {
        let mut cfg = FaultConfig::new(1.0, 7);
        cfg.sites.splitsolve = false;
        set_config(Some(cfg));
        let before = injected_total();
        assert!(should_fail("self_energy", 1));
        assert!(!should_fail("splitsolve", 1));
        assert!(!should_fail("unknown_site", 1));
        assert_eq!(injected_total() - before, 1, "only the armed hit counts");
        set_config(None);
    }

    #[test]
    fn env_format_parses() {
        let cfg = FaultConfig::parse("rate=0.2,seed=7,sites=factor_poly|splitsolve").unwrap();
        assert_eq!(cfg.rate, 0.2);
        assert_eq!(cfg.seed, 7);
        assert!(cfg.sites.factor_poly && cfg.sites.splitsolve && !cfg.sites.self_energy);
        let bare = FaultConfig::parse("0.5").unwrap();
        assert_eq!(bare.rate, 0.5);
        assert!(bare.sites.self_energy);
        assert!(FaultConfig::parse("rate=x").is_none());
        assert!(FaultConfig::parse("sites=bogus").is_none());
    }

    #[test]
    fn sched_panic_site_is_strictly_opt_in() {
        // Neither the programmatic `all()` nor the `sites=all` shorthand
        // may arm the panic site: it bypasses the escalation ladder and
        // must only fire in campaigns that asked for it by name.
        assert!(!FaultSites::all().sched_panic);
        assert!(!FaultConfig::new(1.0, 0).sites.sched_panic);
        let all = FaultConfig::parse("rate=1.0,sites=all").unwrap();
        assert!(all.sites.factor_poly && !all.sites.sched_panic);
        let explicit = FaultConfig::parse("rate=1.0,sites=sched_panic").unwrap();
        assert!(explicit.sites.sched_panic && !explicit.sites.splitsolve);
        let mixed = FaultConfig::parse("rate=1.0,sites=sched_panic|all").unwrap();
        assert!(mixed.sites.sched_panic && mixed.sites.splitsolve);
        set_config(Some(explicit));
        let before = injected_total();
        assert!(should_fail("sched_panic", 1), "rate 1.0 must fire the armed site");
        assert!(!should_fail("splitsolve", 1), "unarmed sites stay quiet");
        assert_eq!(injected_total() - before, 1);
        set_config(None);
    }
}
