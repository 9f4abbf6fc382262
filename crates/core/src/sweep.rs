//! The (k, E) sweep: one loop, owned by [`TransportEngine`].
//!
//! "The momentum k and energy E points are almost embarrassingly parallel,
//! while FEAST+SplitSolve provides a 1-D spatial domain decomposition"
//! (§4, Fig. 9). Here the momentum and energy levels are tasks on the
//! persistent work-stealing pool of [`crate::scheduler`] (panic isolation,
//! retry/backoff, deadlines, quarantine — see `docs/scheduler.md`), and
//! the spatial level is SplitSolve's partitions inside each point. The
//! compute threads are the workers of the engine's pool (or of
//! [`SweepOptions::scheduler`]).
//!
//! Every sweep — flat, resumed, or adaptively refined
//! ([`TransportEngine::sweep`], [`TransportEngine::sweep_resumable`],
//! [`TransportEngine::sweep_refined`]) — is the same private loop: load
//! the checkpoint, solve what it lacks, save, optionally bisect
//! ([`crate::refine`]) and go round again, then interpolate and
//! aggregate ([`crate::scf`] drives it once per iteration and reads the
//! solved points back). Each momentum's folded device comes from the memo,
//! so sweeps and point solves share one copy. Every point walks the
//! escalation ladder of [`crate::PointPolicy::robust`]; its
//! [`crate::PointOutcome`] becomes an 80-byte [`PointRecord`], the unit
//! of the checkpoint file. Unrecoverable points are interpolated from
//! their healthy neighbors in energy (with an explicit error bound)
//! instead of silently contributing `T = 0`, and the aggregate
//! [`SweepHealth`] reports what the ladder had to do. A sweep can
//! checkpoint completed records and resume bit-identically (see
//! [`crate::checkpoint`]).
//!
//! The `n_ranks` argument of a sweep is a cost-model input, never a
//! thread count: the ranks of the paper's dynamic node-per-k allocation
//! (ref. \[45\]: [`SweepPlan::allocate_ranks`] sizes each momentum group by
//! its energy-point count, energies deal round-robin inside a group) are
//! not run, only priced — [`SweepResult::comm_seconds`] is what gathering
//! the freshly solved records through that topology would cost on the
//! interconnect of [`qtx_mpi::CostModel::gemini`], computed by the pure
//! [`qtx_mpi::CostModel::fig9_gather_seconds`]. Records never depend on
//! `n_ranks`.

use crate::cache::{CacheHandle, CachePolicy, SigmaCache};
use crate::checkpoint::{self, plan_fingerprint};
use crate::device::Device;
use crate::energygrid::EnergyGrid;
use crate::engine::TransportEngine;
use crate::error::{TransportError, TransportResult};
use crate::refine::{refined_fingerprint, select_refinements, RefineConfig, RefinedSweep};
use crate::scheduler::{self, BatchStats, Scheduler};
use crate::transport::{solve_point_robust_raw, RobustSolve, METHOD_FAILED};
use qtx_mpi::CostModel;
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;

/// Work description of one sweep.
#[derive(Debug, Clone)]
pub struct SweepPlan {
    /// Momentum points `(kz, weight)`.
    pub k_points: Vec<(f64, f64)>,
    /// Energy grid per momentum (k-dependent sizes allowed, §5.D:
    /// "the total number of energy points ... varies with the momentum").
    pub energies: Vec<Vec<f64>>,
}

impl SweepPlan {
    /// Builds a plan from a device: its kz set and an automatic grid per k.
    pub fn from_device(dev: &Device, d_min: f64, d_max: f64) -> SweepPlan {
        let k_points = dev.kz_points();
        let (lo_w, hi_w) = dev.fermi_window(10.0);
        let energies = k_points
            .iter()
            .map(|&(kz, _)| {
                let dk = dev.at_kz(kz);
                let (band_lo, band_hi) = dk.lead_l.band_window(16);
                let lo = lo_w.max(band_lo - 0.02);
                let hi = hi_w.min(band_hi + 0.02);
                if hi <= lo {
                    Vec::new()
                } else {
                    EnergyGrid::auto(&dk.lead_l, lo, hi, d_min, d_max).points
                }
            })
            .collect();
        SweepPlan { k_points, energies }
    }

    /// Total energy points across momenta (the Table III workload count).
    pub fn total_points(&self) -> usize {
        self.energies.iter().map(Vec::len).sum()
    }

    /// Dynamic node allocation (ref. \\[45\\]): ranks per momentum
    /// proportional to its energy-point count, with at least one rank per
    /// non-empty momentum.
    ///
    /// Contract (so shard-sizing callers need no edge-case guards):
    ///
    /// * empty momenta always get 0 ranks — ranks are never parked on
    ///   workless groups;
    /// * a plan with zero total points (or `n_ranks == 0`) allocates
    ///   all-zero;
    /// * with `n_ranks ≥` the number of non-empty momenta the allocation
    ///   sums to exactly `n_ranks` (more ranks than points simply
    ///   over-subscribe the largest groups);
    /// * with fewer ranks than non-empty momenta the minimum-one rule
    ///   wins and the sum equals the non-empty count (the sweep's pooled
    ///   fallback path handles that regime instead).
    pub fn allocate_ranks(&self, n_ranks: usize) -> Vec<usize> {
        // Sized by the longer list so a malformed plan (rejected by every
        // sweep) still allocates instead of indexing out of bounds.
        let mut alloc = vec![0usize; self.k_points.len().max(self.energies.len())];
        let total = self.total_points();
        if n_ranks == 0 || total == 0 {
            return alloc;
        }
        let mut assigned = 0usize;
        for (i, es) in self.energies.iter().enumerate() {
            if es.is_empty() {
                continue;
            }
            let share = ((es.len() as f64 / total as f64) * n_ranks as f64).floor() as usize;
            alloc[i] = share.max(1);
            assigned += alloc[i];
        }
        // Distribute leftovers to the largest non-empty groups.
        let mut order: Vec<usize> =
            (0..self.energies.len()).filter(|&i| !self.energies[i].is_empty()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(self.energies[i].len()));
        let mut idx = 0;
        while assigned < n_ranks {
            alloc[order[idx % order.len()]] += 1;
            assigned += 1;
            idx += 1;
        }
        while assigned > n_ranks {
            // Trim over-assignment (when minimums exceeded the budget).
            if let Some(&i) = order.iter().find(|&&i| alloc[i] > 1) {
                alloc[i] -= 1;
                assigned -= 1;
            } else {
                break;
            }
        }
        alloc
    }

    /// Canonical work list: every `(k_idx, e_idx)` pair in `(k, E)` order.
    /// Checkpoints, resume skipping, and deterministic kill limits are all
    /// defined against this ordering.
    pub fn canonical_points(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::with_capacity(self.total_points());
        for (k_idx, es) in self.energies.iter().enumerate() {
            for e_idx in 0..es.len() {
                out.push((k_idx as u32, e_idx as u32));
            }
        }
        out
    }

    /// Rejects what the public fields allow but no sweep can run: grids
    /// that do not pair up with the momenta, and non-finite momenta,
    /// weights or energies (which have no place in an energy order).
    fn validate(&self) -> TransportResult<()> {
        let finite = self.k_points.iter().all(|&(kz, w)| kz.is_finite() && w.is_finite())
            && self.energies.iter().flatten().all(|e| e.is_finite());
        if finite && self.energies.len() == self.k_points.len() {
            return Ok(());
        }
        Err(TransportError::Config {
            what: format!(
                "malformed sweep plan: {} energy grids for {} momenta (must pair up), \
                 every kz, weight and energy finite: {finite}",
                self.energies.len(),
                self.k_points.len()
            ),
        })
    }
}

/// Point status: the ladder produced it directly.
pub const STATUS_OK: u8 = 0;
/// Point status: every rung failed and no neighbor could patch it.
pub const STATUS_FAILED: u8 = 1;
/// Point status: failed, then interpolated from healthy neighbors.
pub const STATUS_INTERPOLATED: u8 = 2;

/// Serialized size of one [`PointRecord`].
pub const POINT_RECORD_BYTES: usize = 80;

/// One sweep point with its full robustness record — the 80-byte unit of
/// the checkpoint file and of the priced Fig. 9 gather.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointRecord {
    /// Momentum index into [`SweepPlan::k_points`].
    pub k_idx: u32,
    /// Energy index into that momentum's grid.
    pub e_idx: u32,
    /// Transverse momentum.
    pub kz: f64,
    /// Momentum weight.
    pub w: f64,
    /// Energy (eV).
    pub e: f64,
    /// Transmission (`NaN` while `status == STATUS_FAILED`).
    pub t: f64,
    /// Ladder rung that produced the point ([`crate::transport::LADDER_METHOD_NAMES`]).
    pub method: u8,
    /// One of [`STATUS_OK`], [`STATUS_FAILED`], [`STATUS_INTERPOLATED`].
    pub status: u8,
    /// Solve attempts spent on the point.
    pub attempts: u16,
    /// Ladder escalations spent on the point.
    pub escalations: u32,
    /// Max-norm residual of the accepted solve.
    pub residual: f64,
    /// Broadening η of the accepted solve.
    pub eta: f64,
    /// Wall time (ms) — excluded from checkpoint identity.
    pub wall_ms: f64,
    /// Error bound of the interpolated value (0 for solved points).
    pub interp_bound: f64,
}

impl PointRecord {
    /// Appends the little-endian 80-byte frame.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.k_idx.to_le_bytes());
        out.extend_from_slice(&self.e_idx.to_le_bytes());
        for v in [self.kz, self.w, self.e, self.t] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.push(self.method);
        out.push(self.status);
        out.extend_from_slice(&self.attempts.to_le_bytes());
        out.extend_from_slice(&self.escalations.to_le_bytes());
        for v in [self.residual, self.eta, self.wall_ms, self.interp_bound] {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Decodes one exact 80-byte frame. Truncated or oversized frames are
    /// a typed [`qtx_mpi::FrameError`] (mirroring
    /// [`qtx_mpi::exact_frames`]) instead of a panic — a crafted or torn
    /// record stream must never unwind a sweep or a checkpoint load.
    pub fn decode(frame: &[u8]) -> Result<PointRecord, qtx_mpi::FrameError> {
        if frame.len() != POINT_RECORD_BYTES {
            return Err(qtx_mpi::FrameError {
                frame_size: POINT_RECORD_BYTES,
                payload_len: frame.len(),
            });
        }
        use qtx_mpi::frame::{read_f64, read_u16, read_u32};
        Ok(PointRecord {
            k_idx: read_u32(frame, 0),
            e_idx: read_u32(frame, 4),
            kz: read_f64(frame, 8),
            w: read_f64(frame, 16),
            e: read_f64(frame, 24),
            t: read_f64(frame, 32),
            method: frame[40],
            status: frame[41],
            attempts: read_u16(frame, 42),
            escalations: read_u32(frame, 44),
            residual: read_f64(frame, 48),
            eta: read_f64(frame, 56),
            wall_ms: read_f64(frame, 64),
            interp_bound: read_f64(frame, 72),
        })
    }

    /// Bit-level identity of everything except wall time (timing differs
    /// between a killed-and-resumed run and an uninterrupted one; the
    /// physics must not).
    pub fn identity_eq(&self, other: &PointRecord) -> bool {
        self.k_idx == other.k_idx
            && self.e_idx == other.e_idx
            && self.kz.to_bits() == other.kz.to_bits()
            && self.w.to_bits() == other.w.to_bits()
            && self.e.to_bits() == other.e.to_bits()
            && self.t.to_bits() == other.t.to_bits()
            && self.method == other.method
            && self.status == other.status
            && self.attempts == other.attempts
            && self.escalations == other.escalations
            && self.residual.to_bits() == other.residual.to_bits()
            && self.eta.to_bits() == other.eta.to_bits()
            && self.interp_bound.to_bits() == other.interp_bound.to_bits()
    }
}

/// Aggregate robustness accounting of one sweep.
///
/// The per-record counters (`total_points` … `max_interp_bound`) are
/// derived from the canonical record set and are bit-identical across
/// resumes and worker counts. The scheduler counters (`panics`,
/// `sched_retries`, `quarantined`, `faults_injected`) are **run-scoped**:
/// they count what *this process* did, so a resumed run reports only its
/// own share. `stragglers` is wall-time-derived and therefore excluded
/// from equality.
#[derive(Debug, Clone, Default)]
pub struct SweepHealth {
    /// Points the sweep produced (solved + interpolated + failed).
    pub total_points: usize,
    /// Points solved by a rung above the configured method.
    pub escalated: usize,
    /// Points no rung and no neighbor could produce.
    pub failed: usize,
    /// Points patched by neighbor interpolation.
    pub interpolated: usize,
    /// Solve attempts summed over all points.
    pub attempts: u64,
    /// Deterministically injected faults observed during this run
    /// (0 unless the `fault-inject` harness is armed).
    pub faults_injected: u64,
    /// Panicking point solves caught by the scheduler this run.
    pub panics: u64,
    /// Scheduler-level retries (full extra ladder walks) this run.
    pub sched_retries: u64,
    /// Points whose scheduler retry budget ran out this run — handed to
    /// the interpolation path as poison points.
    pub quarantined: usize,
    /// Scheduler tasks (points, or chunks under batching) with an attempt
    /// that ended past the soft deadline this run (wall-time-derived —
    /// excluded from [`PartialEq`]).
    pub stragglers: usize,
    /// Self-energy cache hits this run (0 when no cache is armed).
    /// Hit/miss splits are scheduling-dependent — two workers racing the
    /// same key may both miss — so all three cache counters are excluded
    /// from [`PartialEq`], like `stragglers`.
    pub cache_hits: u64,
    /// Self-energy cache misses (real OBC solves) this run.
    pub cache_misses: u64,
    /// Interpolated self-energies served this run (always 0 on the sweep
    /// path, which never interpolates Σ; present for engine-level sweeps
    /// sharing a cache with interpolating point queries).
    pub cache_interp: u64,
    /// Worst accepted residual across solved points.
    pub worst_residual: f64,
    /// Largest interpolation error bound.
    pub max_interp_bound: f64,
}

/// Everything except `stragglers` (wall-time-derived) and the cache
/// counters (scheduling-dependent): both may legitimately differ between
/// two otherwise bit-identical schedules.
impl PartialEq for SweepHealth {
    fn eq(&self, other: &Self) -> bool {
        self.total_points == other.total_points
            && self.escalated == other.escalated
            && self.failed == other.failed
            && self.interpolated == other.interpolated
            && self.attempts == other.attempts
            && self.faults_injected == other.faults_injected
            && self.panics == other.panics
            && self.sched_retries == other.sched_retries
            && self.quarantined == other.quarantined
            && self.worst_residual == other.worst_residual
            && self.max_interp_bound == other.max_interp_bound
    }
}

impl SweepHealth {
    pub(crate) fn from_records(
        records: &[PointRecord],
        faults_injected: u64,
        stats: scheduler::BatchStats,
        cache: (u64, u64, u64),
    ) -> SweepHealth {
        let mut h = SweepHealth {
            total_points: records.len(),
            faults_injected,
            panics: stats.panics,
            sched_retries: stats.retries,
            quarantined: stats.quarantined,
            stragglers: stats.stragglers,
            cache_hits: cache.0,
            cache_misses: cache.1,
            cache_interp: cache.2,
            ..Default::default()
        };
        for r in records {
            h.attempts += r.attempts as u64;
            match r.status {
                STATUS_FAILED => h.failed += 1,
                STATUS_INTERPOLATED => h.interpolated += 1,
                _ => {
                    if r.method != 0 {
                        h.escalated += 1;
                    }
                    if r.residual.is_finite() {
                        h.worst_residual = h.worst_residual.max(r.residual);
                    }
                }
            }
            if r.interp_bound.is_finite() {
                h.max_interp_bound = h.max_interp_bound.max(r.interp_bound);
            }
        }
        h
    }
}

/// Aggregated sweep output.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// `(kz, weight, energy, transmission)` tuples in canonical
    /// `(k_idx, e_idx)` order (`NaN` transmission for failed points).
    pub samples: Vec<(f64, f64, f64, f64)>,
    /// k-summed transmission spectrum, sorted by energy (failed points
    /// excluded).
    pub spectrum: Vec<(f64, f64)>,
    /// Virtual seconds (max over ranks) that gathering this run's freshly
    /// solved records through the Fig. 9 topology of the sweep's `n_ranks`
    /// would cost ([`qtx_mpi::CostModel::fig9_gather_seconds`]), summed
    /// over refinement rounds. A model output: nothing is sent.
    pub comm_seconds: f64,
    /// Per-point robustness records, canonical order.
    pub records: Vec<PointRecord>,
    /// Aggregate robustness accounting.
    pub health: SweepHealth,
}

/// How the sweep groups energy points into scheduler tasks.
///
/// Batching amortizes the per-task fixed costs (deque traffic, inflight
/// bookkeeping, one warm Σ-cache anchor and workspace pool per chunk) over
/// neighboring energy points of the same momentum — the
/// factorization-structure reuse of §5.B: consecutive points share the
/// same block structure, so their solves profit from staying on one
/// worker. Batching never changes *what* is computed: every point still
/// solves independently, in canonical order within its chunk, and results
/// are bit-identical to [`Batching::PerPoint`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Batching {
    /// One scheduler task per energy point — the PR-6/7 fault-tolerance
    /// semantics (per-point retries, quarantine and panic fallbacks) that
    /// the fault battery pins. The default.
    #[default]
    PerPoint,
    /// Chunk size from the `qtx-machine` FLOP ledger
    /// ([`qtx_machine::DeadlineModel::batch_points`]): enough points per
    /// task to fill the deadline floor, so paper-scale devices stay
    /// per-point while small devices batch aggressively.
    Auto,
    /// Fixed number of points per task (clamped to ≥ 1).
    Fixed(usize),
}

/// Knobs of [`TransportEngine::sweep_resumable`] and
/// [`TransportEngine::sweep_refined`]. Construct through
/// [`SweepOptions::builder`] — the struct is `#[non_exhaustive]` so new
/// knobs (like `cache`) can land without breaking downstream literals,
/// and the builder rejects incompatible combinations with a typed error
/// instead of letting them silently misbehave at sweep time.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct SweepOptions {
    /// Checkpoint file: loaded (if present) before sweeping, written
    /// after. Completed points are never recomputed.
    pub checkpoint: Option<PathBuf>,
    /// Stop after at most this many *new* points, in canonical order —
    /// the deterministic "kill" used by the resume property tests.
    pub max_new_points: Option<usize>,
    /// Pool to solve on; `None` uses the engine's (the one it was built
    /// with, else its own). Tests pass explicit pools to pin worker
    /// counts.
    pub scheduler: Option<Arc<Scheduler>>,
    /// Self-energy cache policy for the point solves.
    pub cache: CachePolicy,
    /// Energy-point batching (see [`Batching`]). With a cache armed and
    /// any non-[`Batching::PerPoint`] mode, each chunk additionally
    /// splits into an OBC Σ-prefetch task and a dependent interior-solve
    /// task, overlapping boundary and interior work across chunks.
    pub batching: Batching,
}

impl SweepOptions {
    /// Starts a validated builder.
    pub fn builder() -> SweepOptionsBuilder {
        SweepOptionsBuilder::default()
    }
}

/// Invalid knob combinations [`SweepOptionsBuilder::build`] rejects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepOptionsError {
    /// `max_new_points` caps how much *new* work lands in the checkpoint
    /// before the sweep stops; without a checkpoint the capped run's
    /// remainder would simply be discarded.
    MaxNewPointsWithoutCheckpoint {
        /// The offending cap.
        max_new_points: usize,
    },
    /// A zero cap would checkpoint forever without progressing.
    ZeroMaxNewPoints,
}

impl std::fmt::Display for SweepOptionsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepOptionsError::MaxNewPointsWithoutCheckpoint { max_new_points } => write!(
                f,
                "max_new_points ({max_new_points}) requires a checkpoint: the capped run's \
                 progress would otherwise be discarded"
            ),
            SweepOptionsError::ZeroMaxNewPoints => {
                write!(f, "max_new_points must be at least 1")
            }
        }
    }
}

impl std::error::Error for SweepOptionsError {}

/// Builder of [`SweepOptions`]; see [`SweepOptions::builder`].
#[derive(Debug, Clone, Default)]
pub struct SweepOptionsBuilder(SweepOptions);

impl SweepOptionsBuilder {
    /// Checkpoint file to resume from / persist to.
    pub fn checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.0.checkpoint = Some(path.into());
        self
    }

    /// Deterministic kill: stop after this many new points.
    pub fn max_new_points(mut self, n: usize) -> Self {
        self.0.max_new_points = Some(n);
        self
    }

    /// Explicit scheduler pool (tests pin worker counts with this).
    pub fn scheduler(mut self, sched: Arc<Scheduler>) -> Self {
        self.0.scheduler = Some(sched);
        self
    }

    /// Self-energy cache policy.
    pub fn cache(mut self, policy: CachePolicy) -> Self {
        self.0.cache = policy;
        self
    }

    /// Energy-point batching mode (see [`Batching`]).
    pub fn batching(mut self, batching: Batching) -> Self {
        self.0.batching = batching;
        self
    }

    /// Validates and produces the options.
    pub fn build(self) -> Result<SweepOptions, SweepOptionsError> {
        match self.0.max_new_points {
            Some(0) => Err(SweepOptionsError::ZeroMaxNewPoints),
            Some(n) if self.0.checkpoint.is_none() => {
                Err(SweepOptionsError::MaxNewPointsWithoutCheckpoint { max_new_points: n })
            }
            _ => Ok(self.0),
        }
    }
}

impl TransportEngine {
    /// The one sweep loop behind [`Self::sweep`], [`Self::sweep_resumable`]
    /// and [`Self::sweep_refined`]: load the checkpoint, solve what the
    /// current plan wants and the checkpoint lacks, persist, and — with
    /// `refine` — bisect and go round again. A flat sweep is the loop with
    /// no refinement step, pinned to the plan's own fingerprint, so a
    /// refined sweep inherits every robustness and determinism property
    /// of the flat one.
    ///
    /// `solved`, when given, receives the [`RobustSolve`] behind every
    /// record this run solved (not those a checkpoint supplied), canonical
    /// order within each round — what the SCF accumulates its charge from.
    pub(crate) fn run(
        &self,
        base: &SweepPlan,
        n_ranks: usize,
        opts: &SweepOptions,
        refine: Option<&RefineConfig>,
        mut solved: Option<&mut Vec<RobustSolve>>,
    ) -> TransportResult<RefinedSweep> {
        self.full_device("sweeps")?;
        base.validate()?;
        let fp = match refine {
            Some(cfg) => refined_fingerprint(base, cfg),
            None => plan_fingerprint(base),
        };
        // Resume: load completed records, skip their (k, E) pairs — once
        // each is a record this plan's sweep could have written.
        let mut done: Vec<PointRecord> = match &opts.checkpoint {
            Some(path) if path.exists() => checkpoint::load_with_fingerprint(path, fp)?,
            _ => Vec::new(),
        };
        checkpoint::validate_records(&done, base.k_points.len())?;
        let mut plan = base.clone();
        let (sched, cache) = self.sweep_resources(opts);

        // Run-scoped accounting: fault draws and cache counters are deltas
        // around the whole run, so a resumed run reports only its share.
        let cache_counts = || {
            cache.as_ref().map_or((0, 0, 0), |c| {
                let s = c.stats();
                (s.hits, s.misses, s.interp_hits)
            })
        };
        let cache_before = cache_counts();
        let injected_before = qtx_linalg::fault::injected_total();
        let mut stats = BatchStats::default();
        let mut comm_seconds = 0.0f64;
        let mut rounds = 0usize;
        let mut points_added = 0usize;
        let mut new_solved = 0usize;
        let mut truncated = false;

        loop {
            let done_set: HashSet<(u32, u32)> = done.iter().map(|r| (r.k_idx, r.e_idx)).collect();
            let mut todo: Vec<(u32, u32)> =
                plan.canonical_points().into_iter().filter(|p| !done_set.contains(p)).collect();
            // The deterministic kill: at most `max_new_points` new points
            // per run, in canonical order.
            if let Some(limit) = opts.max_new_points {
                let remaining = limit.saturating_sub(new_solved);
                if todo.len() > remaining {
                    todo.truncate(remaining);
                    truncated = true;
                }
            }
            if !todo.is_empty() {
                let on = (sched.as_ref(), cache.as_ref());
                let (records, solves, round_stats) =
                    compute_records(self, &plan, &todo, on, opts.batching, solved.is_some());
                stats += round_stats;
                if let Some(out) = solved.as_mut() {
                    out.extend(solves);
                }
                let points: Vec<usize> = plan.energies.iter().map(Vec::len).collect();
                comm_seconds += CostModel::gemini().fig9_gather_seconds(
                    n_ranks,
                    &plan.allocate_ranks(n_ranks),
                    &points,
                    &todo,
                    POINT_RECORD_BYTES,
                );
                new_solved += records.len();
                done.extend(records);
                done.sort_by_key(|r| (r.k_idx, r.e_idx));
                // Persist raw (pre-interpolation) records: the resumed run
                // re-derives interpolations over the full set, keeping the
                // union bit-identical.
                if let Some(path) = &opts.checkpoint {
                    checkpoint::save_with_fingerprint(path, fp, &done)?;
                }
            }
            // Killed mid-round: derive nothing from the partial record set
            // — the resumed run completes the round first and then replays
            // the same derivation an uninterrupted run makes.
            let Some(cfg) = refine.filter(|cfg| !truncated && rounds < cfg.max_rounds) else {
                break;
            };
            let mids = select_refinements(&plan, &done, cfg, cfg.budget - points_added);
            if mids.is_empty() {
                break;
            }
            for &(k_idx, mid) in &mids {
                plan.energies[k_idx as usize].push(mid);
            }
            points_added += mids.len();
            rounds += 1;
        }

        if refine.is_some() {
            // Refinement-inserted `e_idx` values count past the base grid,
            // so index order interleaves wrong — interpolation and the
            // spectrum both want energy neighbors adjacent.
            done.sort_by(|a, b| a.k_idx.cmp(&b.k_idx).then(a.e.total_cmp(&b.e)));
        }
        interpolate_failures(&mut done);
        let cache_after = cache_counts();
        let cache_delta = (
            cache_after.0 - cache_before.0,
            cache_after.1 - cache_before.1,
            cache_after.2 - cache_before.2,
        );
        let faults_injected = qtx_linalg::fault::injected_total() - injected_before;
        let health = SweepHealth::from_records(&done, faults_injected, stats, cache_delta);
        let result = finalize(done, health, comm_seconds);
        Ok(RefinedSweep {
            result,
            plan,
            rounds,
            points_added,
            base_points: base.total_points(),
            truncated,
        })
    }
}

/// One scheduler chunk: a run of consecutive energy points of one
/// momentum, plus the shared structure they solve against. With
/// [`Batching::PerPoint`] every chunk holds exactly one point and the
/// scheduler semantics reduce to the historical per-point contract.
struct ChunkSpec {
    k_idx: u32,
    kz: f64,
    w: f64,
    /// `(e_idx, energy)` pairs, canonical (ascending `e_idx`) order.
    points: Vec<(u32, f64)>,
    /// The engine's folded device and its memoized coupling supports.
    folded: crate::engine::FoldedK,
    cfg: crate::device::TransportConfig,
    cache: Option<CacheHandle>,
}

impl ChunkSpec {
    /// Warms the Σ-cache for every point of the chunk at the first-rung
    /// parameters (η = 0, the configured OBC method) — exactly the keys
    /// the interior solve's ladder hits first. Failures are ignored: the
    /// solve task re-derives (and properly reports) any Σ this pass could
    /// not produce.
    fn prefetch_sigma(&self) {
        for &(_, e) in &self.points {
            let _ = crate::cache::self_energy_pair(
                self.cache.as_ref(),
                &self.folded.dk,
                e,
                0.0,
                self.cfg.obc,
                0.0,
            );
        }
    }
}

/// The two task flavors of the compute phase. A `Sigma` task prefetches a
/// chunk's boundary self-energies into the shared cache; its dependent
/// `Solve` task then runs the interior solves with warm Σ anchors —
/// overlapping one chunk's OBC work with another's interior work.
enum SweepTask {
    Sigma(Arc<ChunkSpec>),
    Solve(Arc<ChunkSpec>),
}

/// A point's record and, only when the caller of [`TransportEngine::run`]
/// asked for the solved points, the solve behind it.
type Solved = (PointRecord, Option<Box<RobustSolve>>);

/// One robust point solve as its record. A point whose every scheduler
/// attempt panicked arrives as [`RobustSolve::failed`] (no ladder
/// diagnostics exist) and the interpolation path takes over.
fn record_of(c: &ChunkSpec, e_idx: u32, e: f64, rs: RobustSolve, keep: bool) -> Solved {
    let o = rs.outcome;
    let record = PointRecord {
        k_idx: c.k_idx,
        e_idx,
        kz: c.kz,
        w: c.w,
        e,
        t: rs.result.as_ref().map_or(f64::NAN, |r| r.transmission),
        method: o.method_used,
        status: if o.method_used == METHOD_FAILED { STATUS_FAILED } else { STATUS_OK },
        attempts: o.attempts,
        escalations: o.escalations as u32,
        residual: o.residual,
        eta: o.eta,
        wall_ms: o.wall_ms,
        interp_bound: 0.0,
    };
    (record, keep.then(|| Box::new(rs)))
}

/// Soft per-point deadline from the `qtx-machine` FLOP ledger over this
/// device's actual block dimensions (§5.B: per-point work is
/// deterministic, so overdue means straggler, not noise).
fn point_deadline_ms(dk: &crate::device::DeviceK) -> f64 {
    let s = dk.h.block_size();
    qtx_machine::DeadlineModel::default().soft_deadline_ms(s, dk.h.num_blocks(), s)
}

/// Solves every point of a non-empty `todo` on `sched`, in canonical
/// order, returning the records, the solves behind them when `keep` asks,
/// and the run-scoped scheduler accounting.
///
/// Escalation-ladder exhaustion surfaces as a scheduler retry (a fresh
/// full ladder walk, after backoff); a point that also exhausts the
/// scheduler budget — or whose key was quarantined by an earlier batch —
/// keeps its last failed record and flows into the interpolation path.
fn compute_records(
    engine: &TransportEngine,
    plan: &SweepPlan,
    todo: &[(u32, u32)],
    (sched, cache): (&Scheduler, Option<&Arc<SigmaCache>>),
    batching: Batching,
    keep: bool,
) -> (Vec<PointRecord>, Vec<RobustSolve>, BatchStats) {
    // Consecutive same-k runs of the canonical todo list chunk into
    // scheduler tasks. Each momentum's folded device comes from the
    // engine's memo; the lead hashes bind it to this sweep's own cache.
    let mut chunks: Vec<Arc<ChunkSpec>> = Vec::new();
    for run in todo.chunk_by(|a, b| a.0 == b.0) {
        let k_idx = run[0].0;
        let (kz, w) = plan.k_points[k_idx as usize];
        let folded = engine.dk_at(kz).expect("a device-backed engine folds any kz");
        let dk = &folded.dk;
        let handle = cache.map(|c| CacheHandle::for_dk(c.clone(), dk));
        let size = match batching {
            Batching::PerPoint => 1,
            Batching::Fixed(n) => n.max(1),
            Batching::Auto => {
                let s = dk.h.block_size();
                qtx_machine::DeadlineModel::default().batch_points(s, dk.h.num_blocks(), s)
            }
        };
        for chunk in run.chunks(size) {
            let points = chunk
                .iter()
                .map(|&(_, e_idx)| (e_idx, plan.energies[k_idx as usize][e_idx as usize]))
                .collect();
            chunks.push(Arc::new(ChunkSpec {
                k_idx,
                kz,
                w,
                points,
                folded: folded.clone(),
                cfg: *engine.config(),
                cache: handle.clone(),
            }));
        }
    }
    // OBC/interior overlap: with a cache to carry the prefetched Σ and any
    // batching beyond the pinned per-point contract, every chunk splits
    // into a Σ-prefetch task and a dependent interior-solve task.
    let overlap = !matches!(batching, Batching::PerPoint) && cache.is_some();
    /// Salts Σ-task keys away from their solve task's quarantine key.
    const SIGMA_KEY_SALT: u64 = 0x0051_063A_0BC0_FFEE;
    let mut items: Vec<SweepTask> = Vec::with_capacity(chunks.len() * if overlap { 2 } else { 1 });
    let mut keys: Vec<u64> = Vec::with_capacity(items.capacity());
    let mut deps: Vec<Option<u32>> = Vec::with_capacity(items.capacity());
    let mut max_len = 1usize;
    for c in &chunks {
        max_len = max_len.max(c.points.len());
        // Quarantine keys on the chunk's math identity (not plan indices),
        // matching how the fault harness keys its draws; a 1-point chunk
        // reproduces the historical per-point key exactly.
        let mut parts = vec![c.kz];
        parts.extend(c.points.iter().map(|&(_, e)| e));
        let solve_key = scheduler::stable_key(&parts);
        if overlap {
            items.push(SweepTask::Sigma(c.clone()));
            keys.push(solve_key ^ SIGMA_KEY_SALT);
            deps.push(None);
            let sigma_idx = (items.len() - 1) as u32;
            items.push(SweepTask::Solve(c.clone()));
            keys.push(solve_key);
            deps.push(Some(sigma_idx));
        } else {
            items.push(SweepTask::Solve(c.clone()));
            keys.push(solve_key);
            deps.push(None);
        }
    }
    let batch = scheduler::BatchOptions {
        deadline_ms: Some(point_deadline_ms(&chunks[0].folded.dk) * max_len as f64),
        keys: Some(keys),
        deps: if overlap { Some(deps) } else { None },
    };
    let reports = sched.execute(
        items,
        &batch,
        move |_, task, attempt| match task {
            SweepTask::Sigma(c) => {
                c.prefetch_sigma();
                scheduler::TaskAttempt::Done(Vec::new())
            }
            SweepTask::Solve(c) => {
                let mut records = Vec::with_capacity(c.points.len());
                let mut any_failed = false;
                for &(e_idx, e) in &c.points {
                    // Opt-in injected panic site: fires *before* the
                    // ladder so the pool's catch_unwind is what must
                    // absorb it. The attempt number enters the key — a
                    // retry re-draws.
                    if qtx_linalg::fault::should_fail(
                        "sched_panic",
                        qtx_linalg::fault::key_of(&[c.kz, e, attempt as f64]),
                    ) {
                        panic!("injected scheduler panic at E={e} kz={} attempt {attempt}", c.kz);
                    }
                    let (dk, support) = (&c.folded.dk, c.folded.support());
                    let rs = solve_point_robust_raw(dk, support, e, &c.cfg, c.cache.as_ref());
                    let solved = record_of(c, e_idx, e, rs, keep);
                    any_failed |= solved.0.status == STATUS_FAILED;
                    records.push(solved);
                }
                if any_failed {
                    scheduler::TaskAttempt::Retry(records)
                } else {
                    scheduler::TaskAttempt::Done(records)
                }
            }
        },
        move |_, task, attempts, err| match task {
            SweepTask::Sigma(_) => Vec::new(),
            SweepTask::Solve(c) => {
                let attempts = attempts.min(u16::MAX as u32) as u16;
                let what = match err {
                    TransportError::Panic { what } => what.clone(),
                    other => other.to_string(),
                };
                let failed = |&(e_idx, e)| {
                    let panic = TransportError::Panic { what: what.clone() };
                    record_of(c, e_idx, e, RobustSolve::failed(panic, attempts, 0.0), keep)
                };
                c.points.iter().map(failed).collect()
            }
        },
    );
    let stats = scheduler::stats_of(&reports);
    let (records, solves): (Vec<_>, Vec<_>) = reports.into_iter().flat_map(|r| r.value).unzip();
    (records, solves.into_iter().flatten().map(|rs| *rs).collect(), stats)
}

/// Patches failed points from their healthy neighbors along the energy
/// axis of the same momentum: linear interpolation between the bracketing
/// solved points, nearest-value extrapolation at the grid edges. The
/// recorded bound is the transmission variation between the sources —
/// honest for the smooth-between-resonances spectra these grids resolve.
pub(crate) fn interpolate_failures(records: &mut [PointRecord]) {
    let n = records.len();
    let mut i = 0;
    while i < n {
        let k = records[i].k_idx;
        let mut j = i;
        while j < n && records[j].k_idx == k {
            j += 1;
        }
        let oks: Vec<usize> = (i..j).filter(|&x| records[x].status == STATUS_OK).collect();
        for x in i..j {
            if records[x].status != STATUS_FAILED {
                continue;
            }
            let prev = oks.iter().rev().filter(|&&o| o < x).copied().collect::<Vec<_>>();
            let next = oks.iter().filter(|&&o| o > x).copied().collect::<Vec<_>>();
            let (t, bound) = match (prev.first(), next.first()) {
                (Some(&p), Some(&q)) => {
                    let (e0, t0) = (records[p].e, records[p].t);
                    let (e1, t1) = (records[q].e, records[q].t);
                    let t = if e1 > e0 {
                        t0 + (t1 - t0) * (records[x].e - e0) / (e1 - e0)
                    } else {
                        0.5 * (t0 + t1)
                    };
                    (t, (t1 - t0).abs())
                }
                (Some(&p), None) | (None, Some(&p)) => {
                    // One-sided: copy the nearest healthy value; bound it
                    // by the variation to the next-nearest when available.
                    let second = if prev.first() == Some(&p) { prev.get(1) } else { next.get(1) };
                    let bound =
                        second.map_or(records[p].t.abs(), |&s| (records[p].t - records[s].t).abs());
                    (records[p].t, bound)
                }
                (None, None) => continue, // whole momentum failed — stays failed
            };
            records[x].t = t;
            records[x].interp_bound = bound;
            records[x].status = STATUS_INTERPOLATED;
        }
        i = j;
    }
}

pub(crate) fn finalize(
    records: Vec<PointRecord>,
    health: SweepHealth,
    comm_seconds: f64,
) -> SweepResult {
    let samples: Vec<(f64, f64, f64, f64)> =
        records.iter().map(|r| (r.kz, r.w, r.e, r.t)).collect();
    // k-summed spectrum over usable (solved or interpolated) points.
    let mut spectrum: Vec<(f64, f64)> = Vec::new();
    let mut sorted: Vec<(f64, f64, f64)> = records
        .iter()
        .filter(|r| r.status != STATUS_FAILED && r.t.is_finite())
        .map(|r| (r.e, r.w, r.t))
        .collect();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    for (e, w, t) in sorted {
        match spectrum.last_mut() {
            Some((le, lt)) if (*le - e).abs() < 1e-12 => *lt += w * t,
            _ => spectrum.push((e, w * t)),
        }
    }
    SweepResult { samples, spectrum, comm_seconds, records, health }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::solve_point_direct;
    use qtx_atomistic::{BasisKind, DeviceBuilder};

    fn small_device() -> Device {
        let spec = DeviceBuilder::nanowire(0.8).cells(6).basis(BasisKind::TightBinding).build();
        let mut d = Device::build(spec).unwrap();
        // Park the Fermi level in the conduction band so the window has
        // propagating states.
        let dk = d.at_kz(0.0);
        let edge = dk.lead_l.dispersive_band_min(0.1, 0.3).expect("edge");
        d.config.mu_l = edge + 0.15;
        d.config.mu_r = edge + 0.10;
        d
    }

    #[test]
    fn plan_counts_and_allocation() {
        let d = small_device();
        let plan = SweepPlan::from_device(&d, 0.02, 0.1);
        assert_eq!(plan.k_points.len(), 1, "nanowire: Γ only");
        assert!(plan.total_points() > 5);
        let alloc = plan.allocate_ranks(4);
        assert_eq!(alloc.iter().sum::<usize>(), 4);
        assert_eq!(plan.canonical_points().len(), plan.total_points());
    }

    #[test]
    fn allocation_is_proportional_to_workload() {
        let plan = SweepPlan {
            k_points: vec![(0.0, 1.0), (1.0, 1.0), (2.0, 1.0)],
            energies: vec![vec![0.0; 60], vec![0.0; 30], vec![0.0; 10]],
        };
        let alloc = plan.allocate_ranks(10);
        assert_eq!(alloc.iter().sum::<usize>(), 10);
        assert!(alloc[0] > alloc[1]);
        assert!(alloc[1] > alloc[2]);
        assert!(alloc[2] >= 1);
    }

    #[test]
    fn allocation_edge_cases_honor_the_contract() {
        // More ranks than points: everything still sums to n_ranks, and
        // empty momenta stay at zero.
        let plan = SweepPlan {
            k_points: vec![(0.0, 1.0), (1.0, 1.0), (2.0, 1.0)],
            energies: vec![vec![0.0; 2], Vec::new(), vec![0.0; 1]],
        };
        let alloc = plan.allocate_ranks(16);
        assert_eq!(alloc.iter().sum::<usize>(), 16);
        assert_eq!(alloc[1], 0, "empty momentum never parks ranks");
        assert!(alloc[0] >= 1 && alloc[2] >= 1);
        // Fewer ranks than non-empty momenta: minimum-one wins.
        let alloc = plan.allocate_ranks(1);
        assert_eq!(alloc, vec![1, 0, 1]);
        // Zero ranks allocates nothing.
        assert_eq!(plan.allocate_ranks(0), vec![0, 0, 0]);
        // Zero total points allocates nothing regardless of ranks.
        let empty = SweepPlan {
            k_points: vec![(0.0, 1.0), (1.0, 1.0)],
            energies: vec![Vec::new(), Vec::new()],
        };
        assert_eq!(empty.allocate_ranks(8), vec![0, 0]);
        // Degenerate plan with no momenta at all.
        let none = SweepPlan { k_points: Vec::new(), energies: Vec::new() };
        assert!(none.allocate_ranks(4).is_empty());
        assert!(none.canonical_points().is_empty());
    }

    #[test]
    fn sweep_matches_serial_reference() {
        let d = small_device();
        let plan = SweepPlan::from_device(&d, 0.05, 0.15);
        let result = TransportEngine::new(d.clone()).sweep(&plan, 3).unwrap();
        assert_eq!(result.samples.len(), plan.total_points());
        // A healthy sweep reports a clean bill.
        assert_eq!(result.health.failed, 0);
        assert_eq!(result.health.interpolated, 0);
        assert_eq!(result.health.escalated, 0);
        assert_eq!(result.health.attempts, plan.total_points() as u64);
        // Serial reference for a few points.
        let dk = d.at_kz(0.0);
        for &(kz, _w, e, t) in result.samples.iter().take(4) {
            assert_eq!(kz, 0.0);
            let reference = solve_point_direct(&dk, e, &d.config, None).unwrap().transmission;
            assert!((t - reference).abs() < 1e-9, "E={e}: {t} vs {reference}");
        }
        assert!(result.comm_seconds > 0.0);
    }

    #[test]
    fn spectrum_is_sorted_and_weighted() {
        let d = small_device();
        let plan = SweepPlan::from_device(&d, 0.05, 0.15);
        let result = TransportEngine::new(d).sweep(&plan, 2).unwrap();
        for w in result.spectrum.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
        assert_eq!(result.spectrum.len(), plan.total_points());
    }

    #[test]
    fn point_record_roundtrips_through_wire_format() {
        let r = PointRecord {
            k_idx: 3,
            e_idx: 41,
            kz: 0.7,
            w: 0.5,
            e: -0.125,
            t: 1.996,
            method: 4,
            status: STATUS_INTERPOLATED,
            attempts: 5,
            escalations: 4,
            residual: 3.5e-12,
            eta: 1e-6,
            wall_ms: 17.25,
            interp_bound: 0.03,
        };
        let mut buf = Vec::new();
        r.encode_into(&mut buf);
        assert_eq!(buf.len(), POINT_RECORD_BYTES);
        let back = PointRecord::decode(&buf).unwrap();
        assert_eq!(back, r);
        assert!(back.identity_eq(&r));
        // Crafted payloads: truncated and oversized frames are typed
        // errors, never a panic or a silently-garbled record.
        for bad in [&buf[..buf.len() - 1], &[buf.as_slice(), &[0u8]].concat()[..]] {
            let err = PointRecord::decode(bad).unwrap_err();
            assert_eq!(err.frame_size, POINT_RECORD_BYTES);
            assert_eq!(err.payload_len, bad.len());
        }
        assert!(PointRecord::decode(&[]).is_err());
    }

    #[test]
    fn interpolation_patches_interior_and_edge_failures() {
        let mk = |e_idx: u32, e: f64, t: f64, status: u8| PointRecord {
            k_idx: 0,
            e_idx,
            kz: 0.0,
            w: 1.0,
            e,
            t,
            method: if status == STATUS_FAILED { METHOD_FAILED } else { 0 },
            status,
            attempts: 1,
            escalations: 0,
            residual: 0.0,
            eta: 0.0,
            wall_ms: 0.0,
            interp_bound: 0.0,
        };
        let mut records = vec![
            mk(0, 0.0, f64::NAN, STATUS_FAILED), // leading edge
            mk(1, 0.1, 1.0, STATUS_OK),
            mk(2, 0.2, f64::NAN, STATUS_FAILED), // interior
            mk(3, 0.3, 2.0, STATUS_OK),
            mk(4, 0.4, f64::NAN, STATUS_FAILED), // trailing edge
        ];
        interpolate_failures(&mut records);
        // Interior: linear midpoint between 1.0 and 2.0.
        assert_eq!(records[2].status, STATUS_INTERPOLATED);
        assert!((records[2].t - 1.5).abs() < 1e-12);
        assert!((records[2].interp_bound - 1.0).abs() < 1e-12);
        // Edges: nearest healthy value, bounded by neighbor variation.
        assert_eq!(records[0].status, STATUS_INTERPOLATED);
        assert_eq!(records[0].t, 1.0);
        assert_eq!(records[4].status, STATUS_INTERPOLATED);
        assert_eq!(records[4].t, 2.0);
        assert!((records[0].interp_bound - 1.0).abs() < 1e-12);
        let health =
            SweepHealth::from_records(&records, 0, scheduler::BatchStats::default(), (0, 0, 0));
        assert_eq!(health.interpolated, 3);
        assert_eq!(health.failed, 0);
        assert!((health.max_interp_bound - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fully_failed_momentum_stays_failed() {
        let mk = |e_idx: u32| PointRecord {
            k_idx: 0,
            e_idx,
            kz: 0.0,
            w: 1.0,
            e: e_idx as f64 * 0.1,
            t: f64::NAN,
            method: METHOD_FAILED,
            status: STATUS_FAILED,
            attempts: 6,
            escalations: 5,
            residual: f64::INFINITY,
            eta: 1e-6,
            wall_ms: 0.0,
            interp_bound: 0.0,
        };
        let mut records = vec![mk(0), mk(1)];
        interpolate_failures(&mut records);
        assert!(records.iter().all(|r| r.status == STATUS_FAILED));
        let health =
            SweepHealth::from_records(&records, 0, scheduler::BatchStats::default(), (0, 0, 0));
        assert_eq!(health.failed, 2);
        let result = finalize(records, health, 0.0);
        assert!(result.spectrum.is_empty(), "failed points never enter the spectrum");
        assert!(result.samples.iter().all(|s| s.3.is_nan()));
    }
}
