//! The transport front door.
//!
//! [`TransportEngine`] is the one way to solve points and run sweeps. It
//! owns, once, the state every solve shares:
//!
//! * the device and its [`TransportConfig`];
//! * the momentum-folded `DeviceK` builds, memoized per `kz` and shared
//!   by point solves and sweeps alike (a sweep folds no device of its
//!   own);
//! * the scheduler pool its sweeps run on — the one passed to
//!   [`TransportEngineBuilder::scheduler`], else its own, created at the
//!   first sweep (a point-only engine spawns no thread);
//! * the content-addressed self-energy cache
//!   ([`crate::cache::SigmaCache`]) with the lead hashes computed once —
//!   only if the caller passed one to [`TransportEngineBuilder::cache`].
//!
//! Nothing is ambient: two engines share a pool or a cache exactly when
//! the caller handed both the same `Arc`.
//!
//! Point solves go through [`TransportEngine::solve_point`] with a
//! [`PointPolicy`] (direct / robust ladder / transmission-only). Sweeps
//! go through [`TransportEngine::sweep`],
//! [`TransportEngine::sweep_resumable`] and
//! [`TransportEngine::sweep_refined`] — three views of the single loop in
//! [`crate::sweep`] — and inherit the engine's scheduler and cache unless
//! the options override them; so does the Schrödinger–Poisson loop
//! ([`TransportEngine::schrodinger_poisson`]), which moves the potential
//! between passes with [`TransportEngine::set_potential`].

use crate::cache::{CacheHandle, CachePolicy, CacheStats, SigmaCache};
use crate::device::{ChainMemo, Device, DeviceK, TransportConfig};
use crate::error::{TransportError, TransportResult};
use crate::refine::{RefineConfig, RefinedSweep};
use crate::scheduler::{Scheduler, SchedulerConfig};
use crate::sweep::{SweepOptions, SweepPlan, SweepResult};
use crate::transport::{self, ms_since, RobustSolve, METHOD_BOUNDARY};
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// How [`TransportEngine::solve_point`] attacks one (E, kz) pixel.
///
/// `#[non_exhaustive]`: build through the constructors
/// ([`PointPolicy::direct`], [`PointPolicy::robust`],
/// [`PointPolicy::transmission_only`]).
/// The lifetime borrows nothing; it stays because callers name
/// `PointPolicy<'static>`.
#[derive(Clone, Copy, Default)]
#[non_exhaustive]
pub struct PointPolicy<'rt> {
    /// Walk the escalation ladder on failure instead of returning the
    /// first error.
    pub robust: bool,
    /// Skip the scattering-state solve entirely and compute T(E) as the
    /// Caroli trace: from the Σ-late corner on a real pencil, through the
    /// two-front Caroli kernel otherwise (see `docs/sparsity.md` and
    /// `docs/solver.md`). The result carries no wave functions.
    pub transmission_only: bool,
    lifetime: PhantomData<&'rt ()>,
}

impl PointPolicy<'static> {
    /// Single attempt with the configured method; errors surface as-is.
    pub fn direct() -> Self {
        PointPolicy::default()
    }

    /// Full escalation ladder (the sweep's per-point behavior).
    pub fn robust() -> Self {
        PointPolicy { robust: true, ..PointPolicy::default() }
    }

    /// Transmission-only NEGF: two elimination fronts over the streamed
    /// blocks of `E·S − H`, one from each contact, meet inside the device
    /// and yield the Caroli trace directly — on a real pencil the Σ-late
    /// corner (real fronts outward from a cut, Σ only in the contact
    /// blocks), otherwise the Caroli kernel; each block factored once,
    /// each broadening carried through the thinner of its exact factors
    /// (a few lead modes wide when Σ was built from modes), the fronts on
    /// two threads when each is worth one. No Green's function block and
    /// no copy of `A` is materialized, Σ is the exact block the OBC layer
    /// (or the cache) produced, and the working set is a few `s × s`
    /// blocks whatever the device length. The point reports
    /// [`transport::METHOD_BOUNDARY`].
    pub fn transmission_only() -> Self {
        PointPolicy { transmission_only: true, ..PointPolicy::default() }
    }
}

impl std::fmt::Debug for PointPolicy<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PointPolicy")
            .field("robust", &self.robust)
            .field("transmission_only", &self.transmission_only)
            .finish()
    }
}

/// Builder of [`TransportEngine`]; see [`TransportEngine::builder`].
pub struct TransportEngineBuilder {
    device: Device,
    config: Option<TransportConfig>,
    scheduler: Option<Arc<Scheduler>>,
    cache: CachePolicy,
}

impl TransportEngineBuilder {
    /// Overrides the device's transport configuration.
    pub fn config(mut self, cfg: TransportConfig) -> Self {
        self.config = Some(cfg);
        self
    }

    /// Scheduler pool the engine's sweeps run on (default: its own,
    /// [`SchedulerConfig::default`], created at its first sweep).
    pub fn scheduler(mut self, sched: Arc<Scheduler>) -> Self {
        self.scheduler = Some(sched);
        self
    }

    /// The engine's cache: [`CachePolicy::Shared`] arms one; the default
    /// is none.
    pub fn cache(mut self, policy: CachePolicy) -> Self {
        self.cache = policy;
        self
    }

    /// Finishes the engine. Infallible — every knob combination is
    /// meaningful — and thread-free: no pool is spawned here.
    pub fn build(self) -> TransportEngine {
        let mut device = self.device;
        if let Some(cfg) = self.config {
            device.config = cfg;
        }
        TransportEngine {
            config: device.config,
            device: Some(device),
            scheduler: self.scheduler.map(OnceLock::from).unwrap_or_default(),
            cache: self.cache.resolve(None),
            dks: Mutex::new(HashMap::new()),
        }
    }
}

/// A folded device at one `kz` with what the engine derives from it once:
/// its per-lead cache handle and, on first use by a point, the
/// energy-independent [`ChainMemo`] — coupling supports, contact rows and
/// the compact copy of `S` and `H` — the one memo every interior solve on
/// this device reads, wave-function and Caroli route, point solve and
/// sweep alike.
#[derive(Clone)]
pub(crate) struct FoldedK {
    pub(crate) dk: Arc<DeviceK>,
    handle: Option<CacheHandle>,
    memo: Arc<OnceLock<ChainMemo>>,
}

impl FoldedK {
    fn new(dk: Arc<DeviceK>, cache: Option<&Arc<SigmaCache>>) -> FoldedK {
        let handle = cache.map(|c| CacheHandle::for_dk(c.clone(), &dk));
        FoldedK { dk, handle, memo: Arc::default() }
    }

    pub(crate) fn memo(&self) -> &ChainMemo {
        self.memo.get_or_init(|| self.dk.chain_memo())
    }
}

/// A transport session over one device: the single front door for point
/// solves and sweeps. Cheap to share behind an `Arc`; all interior state
/// is synchronized.
pub struct TransportEngine {
    /// `None` for an engine fixed on pre-folded `DeviceK`s
    /// ([`TransportEngine::from_device_k`]): point solves work on the
    /// seeded momenta, sweeps (whose plans name arbitrary kz) are unavailable.
    device: Option<Device>,
    config: TransportConfig,
    /// The pool passed at build time, else created by the first sweep.
    scheduler: OnceLock<Arc<Scheduler>>,
    cache: Option<Arc<SigmaCache>>,
    /// Folded `DeviceK`s, memoized per `kz` bit pattern.
    dks: Mutex<HashMap<u64, FoldedK>>,
}

impl std::fmt::Debug for TransportEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransportEngine")
            .field("config", &self.config)
            .field("cache", &self.cache)
            .finish_non_exhaustive()
    }
}

impl TransportEngine {
    /// Starts building an engine over `device`.
    pub fn builder(device: Device) -> TransportEngineBuilder {
        TransportEngineBuilder {
            device,
            config: None,
            scheduler: None,
            cache: CachePolicy::Inherit,
        }
    }

    /// An engine with all defaults: no cache, and from its first sweep on
    /// a pool of its own, one worker per available core.
    pub fn new(device: Device) -> TransportEngine {
        TransportEngine::builder(device).build()
    }

    /// An engine fixed on one pre-folded [`DeviceK`] — the migration path
    /// for pipelines that assemble lead/device blocks by hand and never
    /// had a [`Device`]. Point solves work at the seeded `kz` (and any
    /// other `kz` the caller seeds through additional `from_device_k`
    /// engines); [`Self::sweep`] is unavailable and errors. No cache and
    /// no pool, like [`Self::new`] before its first sweep.
    pub fn from_device_k(dk: DeviceK, config: TransportConfig) -> TransportEngine {
        let folded = FoldedK::new(Arc::new(dk), None);
        let dks = Mutex::new(HashMap::from([(folded.dk.kz.to_bits(), folded)]));
        TransportEngine { device: None, config, scheduler: OnceLock::new(), cache: None, dks }
    }

    /// The device this engine solves on — `None` for a fixed-`DeviceK`
    /// engine ([`Self::from_device_k`]).
    pub fn device(&self) -> Option<&Device> {
        self.device.as_ref()
    }

    /// The device, or the error of the entries (`what`) that need one.
    pub(crate) fn full_device(&self, what: &str) -> TransportResult<&Device> {
        self.device.as_ref().ok_or_else(|| TransportError::Config {
            what: format!(
                "{what} need a full Device; this engine is fixed on a pre-folded DeviceK \
                 (TransportEngine::from_device_k)"
            ),
        })
    }

    /// The active transport configuration.
    pub fn config(&self) -> &TransportConfig {
        &self.config
    }

    /// Replaces the per-slab potential ([`Device::set_potential`]) and
    /// drops every memoized folded [`DeviceK`]: the next point or sweep
    /// folds anew. A no-op on an engine fixed on pre-folded `DeviceK`s.
    pub fn set_potential(&mut self, v: &[f64]) {
        if let Some(device) = &mut self.device {
            device.set_potential(v);
            self.dks.get_mut().expect("engine dk map").clear();
        }
    }

    /// Moves the right contact's chemical potential (occupations only).
    pub(crate) fn set_mu_r(&mut self, mu_r: f64) {
        self.config.mu_r = mu_r;
        if let Some(device) = &mut self.device {
            device.config.mu_r = mu_r;
        }
    }

    /// Counter snapshot of the engine's cache, `None` when caching is off.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// The engine's cache, if any (share it across engines via
    /// [`CachePolicy::Shared`] to keep Σ warm between sessions).
    pub fn cache(&self) -> Option<&Arc<SigmaCache>> {
        self.cache.as_ref()
    }

    /// The engine's pool — `None` until built with one or a sweep ran.
    pub fn scheduler(&self) -> Option<&Arc<Scheduler>> {
        self.scheduler.get()
    }

    /// The folded [`DeviceK`] at `kz`: always available on a device-backed
    /// engine (folding and memoizing on first use), only at seeded momenta
    /// on a fixed-`DeviceK` engine. Observable post-processing
    /// (`bond_current_of_state` and friends) borrows the blocks from here
    /// instead of keeping a second copy outside the engine.
    pub fn device_k(&self, kz: f64) -> Option<Arc<DeviceK>> {
        self.dk_at(kz).map(|folded| folded.dk)
    }

    pub(crate) fn dk_at(&self, kz: f64) -> Option<FoldedK> {
        let mut dks = self.dks.lock().expect("engine dk map");
        match (dks.get(&kz.to_bits()), &self.device) {
            (Some(found), _) => Some(found.clone()),
            (None, Some(device)) => {
                let folded = FoldedK::new(Arc::new(device.at_kz(kz)), self.cache.as_ref());
                dks.insert(kz.to_bits(), folded.clone());
                Some(folded)
            }
            // Fixed-`DeviceK` engine queried off its seeded momentum:
            // nothing to fold from.
            (None, None) => None,
        }
    }

    /// Solves one (E, kz) pixel under `policy`. Always returns a
    /// [`RobustSolve`] so callers see the same record shape whichever
    /// path produced the point; collapse with [`RobustSolve::into_result`]
    /// when only the result matters.
    pub fn solve_point(&self, e: f64, kz: f64, policy: &PointPolicy<'_>) -> RobustSolve {
        let Some(folded) = self.dk_at(kz) else {
            let what = format!(
                "kz={kz} was never seeded and an engine fixed on pre-folded DeviceKs \
                 (TransportEngine::from_device_k) has no device to fold it from"
            );
            return RobustSolve::failed(TransportError::Config { what }, 0, 0.0);
        };
        let (dk, handle) = (&folded.dk, folded.handle.as_ref());
        let cfg = &self.config;
        if policy.transmission_only {
            return self.boundary_point(&folded, e);
        }
        if policy.robust {
            return transport::solve_point_robust_raw(dk, folded.memo(), e, cfg, handle);
        }
        let start = Instant::now();
        match transport::solve_point_direct_on(dk, folded.memo(), e, cfg, handle) {
            Ok(result) => RobustSolve::solved(result, 0, ms_since(start)),
            Err(error) => RobustSolve::failed(error, 1, ms_since(start)),
        }
    }

    /// Transmission-only path: Σ flows from the cache (or a fresh solve)
    /// into `qtx_solver::two_front_corner` — the Σ-late corner on a real
    /// pencil, the Caroli kernel otherwise — which streams the device
    /// blocks and reuses the folded device's memoized coupling supports.
    fn boundary_point(&self, folded: &FoldedK, e: f64) -> RobustSolve {
        let start = Instant::now();
        let (dk, handle) = (&folded.dk, folded.handle.as_ref());
        match transport::solve_point_transmission_only(dk, e, &self.config, handle, folded.memo()) {
            Ok(result) => RobustSolve::solved(result, METHOD_BOUNDARY, ms_since(start)),
            Err(error) => RobustSolve::failed(error, 1, ms_since(start)),
        }
    }

    /// Sweeps `plan` with default options (the engine's pool and cache).
    ///
    /// `n_ranks` is a cost-model input, never a thread count: the points
    /// solve on the scheduler pool, and `n_ranks` only sizes the Fig. 9
    /// rank topology whose virtual gather cost lands in
    /// [`SweepResult::comm_seconds`]. Records do not depend on it.
    pub fn sweep(&self, plan: &SweepPlan, n_ranks: usize) -> TransportResult<SweepResult> {
        self.sweep_resumable(plan, n_ranks, &SweepOptions::default())
    }

    /// [`Self::sweep`] with explicit options: checkpoint/resume, the
    /// deterministic kill, batching, and pool or cache overrides
    /// (`opts.scheduler = None` and `opts.cache = Inherit` inherit the
    /// engine's). The union of a killed run's checkpoint and its resumed
    /// completion is bit-identical (modulo wall time) to an uninterrupted
    /// sweep.
    pub fn sweep_resumable(
        &self,
        plan: &SweepPlan,
        n_ranks: usize,
        opts: &SweepOptions,
    ) -> TransportResult<SweepResult> {
        Ok(self.run(plan, n_ranks, opts, None, None)?.result)
    }

    /// [`Self::sweep_resumable`] with adaptive energy-grid refinement:
    /// sweeps the base plan, then repeatedly bisects the intervals whose
    /// estimated integration error exceeds `cfg.tol` until every interval
    /// clears it, the point budget is spent, or `cfg.max_rounds` rounds
    /// ran (see [`crate::refine`]). Checkpoint/resume and
    /// `max_new_points` kills work across round boundaries: the
    /// checkpoint holds the solved records under the
    /// [`crate::refined_fingerprint`] identity, and a resumed run
    /// re-derives the same refined grid from them bit-identically.
    pub fn sweep_refined(
        &self,
        base: &SweepPlan,
        n_ranks: usize,
        opts: &SweepOptions,
        cfg: &RefineConfig,
    ) -> TransportResult<RefinedSweep> {
        self.run(base, n_ranks, opts, Some(cfg), None)
    }

    /// The pool and Σ-cache a sweep under `opts` runs on: an unset
    /// scheduler means the engine's (its own is spawned here, on first
    /// use); `cache = Inherit` the engine's cache (off when it has none).
    pub(crate) fn sweep_resources(
        &self,
        opts: &SweepOptions,
    ) -> (Arc<Scheduler>, Option<Arc<SigmaCache>>) {
        let sched = opts.scheduler.clone().unwrap_or_else(|| {
            let own = || Arc::new(Scheduler::new(SchedulerConfig::default()));
            self.scheduler.get_or_init(own).clone()
        });
        (sched, opts.cache.resolve(self.cache.as_ref()))
    }
}
