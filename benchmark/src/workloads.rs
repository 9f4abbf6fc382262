//! The seven workloads: input generation from the seed, set-up, the
//! reference each one is checked against, one timed repetition and one
//! pass of the single-client point loop.
//!
//! Every workload is a closed loop driven from this one process: the next
//! sweep (or point) starts when the previous one has returned.

use crate::trace::Tracer;
use qtx::core::transport::caroli_transmission;
use qtx::core::{
    id_vgs, landauer_integrate, Batching, CacheConfig, CachePolicy, Device, DeviceK, PointPolicy,
    PointRecord, RefineConfig, ScfConfig, Scheduler, SchedulerConfig, SigmaCache, SweepOptions,
    SweepPlan, TransportEngine,
};
use qtx::obc::{obc_solves_total, ObcMethod};
use qtx::prelude::{BasisKind, DeviceBuilder};
use qtx::solver::SolverKind;
use std::sync::Arc;
use std::time::Instant;

/// Simulated MPI ranks of every sweep (the Fig. 9 gather topology).
pub const N_RANKS: usize = 2;
/// Compute threads of every pool the benchmark creates or arms.
pub const POOL_WORKERS: usize = 2;
/// |T − T_ref| allowed at a checked point.
pub const T_TOL: f64 = 5e-3;
/// Refined current vs the uniform reference.
pub const CURRENT_REL_TOL: f64 = 1e-3;
/// Id–V_gs vs the `ShiftInvert` + `BtdLu` reference.
pub const IDVGS_REL_TOL: f64 = 1e-2;
/// `PointRecord::status` of a point that came straight off the ladder.
const STATUS_OK: u8 = 0;
/// 2e²/h in µS; converts a current budget into a transmission·eV budget.
const CONDUCTANCE_QUANTUM_US: f64 = 77.480_917;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    UtbKgridCold,
    UtbKgridWarm,
    NwDftObc,
    NwLongInterior,
    NwLongTonly,
    ResonanceRefined,
    NwScfIdvgs,
}

impl Workload {
    pub const ALL: [Workload; 7] = [
        Workload::UtbKgridCold,
        Workload::UtbKgridWarm,
        Workload::NwDftObc,
        Workload::NwLongInterior,
        Workload::NwLongTonly,
        Workload::ResonanceRefined,
        Workload::NwScfIdvgs,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::UtbKgridCold => "utb_kgrid_cold",
            Workload::UtbKgridWarm => "utb_kgrid_warm",
            Workload::NwDftObc => "nw_dft_obc",
            Workload::NwLongInterior => "nw_long_interior",
            Workload::NwLongTonly => "nw_long_tonly",
            Workload::ResonanceRefined => "resonance_refined",
            Workload::NwScfIdvgs => "nw_scf_idvgs",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Everything the seed decides. The program under test never sees the
/// seed, only the energies and potentials made from these numbers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Inputs {
    /// Fraction in `[0, 1)` of one grid spacing every energy is shifted by.
    pub grid_shift: f64,
    /// Channel ripple: amplitude (eV, 5–20 meV), whole waves along the
    /// device, phase.
    pub ripple_amp: f64,
    pub ripple_waves: u32,
    pub ripple_phase: f64,
}

impl Inputs {
    pub fn from_seed(seed: u64) -> Inputs {
        let mut state = seed;
        let mut unit = || {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
        };
        Inputs {
            grid_shift: unit(),
            ripple_amp: 0.005 + 0.015 * unit(),
            ripple_waves: 1 + (unit() * 3.0) as u32,
            ripple_phase: std::f64::consts::TAU * unit(),
        }
    }

    /// Smooth potential ripple on the interior slabs. The first and last
    /// slab stay at zero: the leads extend them, so lead blocks — and with
    /// them mode counts and Σ-cache keys — are the same for every seed.
    pub fn ripple(&self, n_slabs: usize) -> Vec<f64> {
        (0..n_slabs)
            .map(|q| {
                if q == 0 || q + 1 == n_slabs {
                    return 0.0;
                }
                let x = q as f64 / (n_slabs - 1) as f64;
                self.ripple_amp
                    * (std::f64::consts::TAU * f64::from(self.ripple_waves) * x + self.ripple_phase)
                        .sin()
            })
            .collect()
    }
}

/// Problem sizes. `smoke` shrinks them about tenfold for a quick sanity
/// run whose numbers compare with nothing.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub smoke: bool,
}

impl Sizes {
    fn pick(self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// One point the workload's output is checked at and the point loop runs.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub k_idx: u32,
    pub e_idx: u32,
    pub kz: f64,
    pub e: f64,
}

pub enum Kind {
    /// `engine.sweep(plan)`; cache off.
    Sweep,
    /// `engine.sweep(plan)` on a cache filled in set-up; `cold` are the
    /// records of the sweep that filled it.
    Warm { cold: Vec<PointRecord> },
    /// `solve_point(transmission_only)` over the plan's energies, one
    /// after the other on the calling thread.
    PointLoop,
    /// `engine.sweep_refined(base = plan)` with a fresh shared cache and
    /// `Batching::Auto` every repetition.
    Refined { cfg: RefineConfig, rel_tol: f64 },
    /// `id_vgs` over `vgs`.
    Scf { vgs: Vec<f64>, cfg: ScfConfig },
}

pub struct Setup {
    pub device: Device,
    pub plan: SweepPlan,
    /// The engine of the timed repetition and of the point loop. Its
    /// cache is off except on `utb_kgrid_warm`; `resonance_refined` makes a
    /// fresh cache per repetition and `id_vgs` takes no engine, so their
    /// point loops run with the cache off.
    pub engine: Arc<TransportEngine>,
    pub policy: PointPolicy<'static>,
    pub pool: Option<Arc<Scheduler>>,
    pub cache: Option<Arc<SigmaCache>>,
    pub sample: Vec<Sample>,
    pub kind: Kind,
}

pub struct Reference {
    /// Caroli/`ShiftInvert` transmission at each sample point.
    pub t: Vec<f64>,
    /// `resonance_refined`: current on the uniform reference grid (µA).
    pub current_ua: f64,
    /// `nw_scf_idvgs`: drain currents under `ShiftInvert` + `BtdLu` (µA).
    pub id_ua: Vec<f64>,
    pub secs: f64,
}

/// Checked operations of one repetition or loop pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

pub fn pool(workers: usize) -> Arc<Scheduler> {
    Arc::new(Scheduler::new(SchedulerConfig { workers, ..SchedulerConfig::default() }))
}

pub fn engine_on(
    device: &Device,
    pool: Option<&Arc<Scheduler>>,
    cache: CachePolicy,
) -> Arc<TransportEngine> {
    let mut b = TransportEngine::builder(device.clone()).cache(cache);
    if let Some(p) = pool {
        b = b.scheduler(p.clone());
    }
    Arc::new(b.build())
}

fn uniform_grid(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    (0..n).map(|i| lo + (hi - lo) * i as f64 / (n - 1) as f64).collect()
}

/// `n` energies `first + (i + shift)·step`.
fn ladder(first: f64, step: f64, n: usize, shift: f64) -> Vec<f64> {
    (0..n).map(|i| first + (i as f64 + shift) * step).collect()
}

fn single_k_plan(dev: &Device, energies: Vec<f64>) -> SweepPlan {
    let k_points = dev.kz_points();
    let energies = k_points.iter().map(|_| energies.clone()).collect();
    SweepPlan { k_points, energies }
}

/// Every point of the plan in canonical `(k, E)` order.
pub fn all_points(plan: &SweepPlan) -> Vec<Sample> {
    let mut out = Vec::with_capacity(plan.total_points());
    for (k_idx, (&(kz, _), es)) in plan.k_points.iter().zip(&plan.energies).enumerate() {
        for (e_idx, &e) in es.iter().enumerate() {
            out.push(Sample { k_idx: k_idx as u32, e_idx: e_idx as u32, kz, e });
        }
    }
    out
}

/// `n` points spread evenly over the plan's canonical order.
fn spread_sample(plan: &SweepPlan, n: usize) -> Vec<Sample> {
    let all = all_points(plan);
    let n = n.min(all.len());
    (0..n).map(|i| all[(2 * i + 1) * all.len() / (2 * n)]).collect()
}

fn conduction_edge(dk: &DeviceK) -> f64 {
    dk.lead_l.dispersive_band_min(0.1, 0.3).expect("the lead has a dispersive conduction band")
}

/// What every refined sweep runs under: chunked tasks and a cache of its own.
pub fn refined_options(pool: &Arc<Scheduler>) -> SweepOptions {
    SweepOptions::builder()
        .scheduler(pool.clone())
        .cache(CachePolicy::Shared(Arc::new(SigmaCache::new(CacheConfig::default()))))
        .batching(Batching::Auto)
        .build()
        .expect("sweep options")
}

/// Builds the workload from generated inputs: device, plan, engine, and
/// for `utb_kgrid_warm` the cache fill. Every call into a layer goes
/// through `tr`, so the traced run gets `cp2k`/`device` spans from the
/// same code the end-to-end run times as `setup_s`.
pub fn setup(w: Workload, inp: &Inputs, sizes: Sizes, tr: &mut Tracer) -> Setup {
    let build = |tr: &mut Tracer, spec| {
        tr.time("cp2k", "build", || Device::build(spec).expect("CP2K-lite device build")).0
    };
    let fold = |tr: &mut Tracer, dev: &Device| tr.time("device", "fold", || dev.at_kz(0.0)).0;
    match w {
        Workload::UtbKgridCold | Workload::UtbKgridWarm => {
            let spec = DeviceBuilder::utb(0.8).cells(8).basis(BasisKind::TightBinding).build();
            let mut dev = build(tr, spec);
            dev.config.n_kz = sizes.pick(8, 2);
            dev.set_potential(&inp.ripple(dev.n_slabs));
            let edge = conduction_edge(&fold(tr, &dev));
            dev.config.mu_l = edge + 0.15;
            dev.config.mu_r = edge + 0.10;
            let (d_min, d_max) = if sizes.smoke { (0.04, 0.10) } else { (0.006, 0.015) };
            let mut plan =
                tr.time("device", "plan", || SweepPlan::from_device(&dev, d_min, d_max)).0;
            for es in &mut plan.energies {
                for e in es {
                    *e += inp.grid_shift * d_min;
                }
            }
            let pool = pool(POOL_WORKERS);
            let sample = spread_sample(&plan, sizes.pick(32, 4));
            let (cache, kind, engine) = if w == Workload::UtbKgridWarm {
                let cache = Arc::new(SigmaCache::new(CacheConfig::default()));
                let engine = engine_on(&dev, Some(&pool), CachePolicy::Shared(cache.clone()));
                let fill = tr
                    .time("sweep", "cache_fill", || engine.sweep(&plan, N_RANKS))
                    .0
                    .expect("the sweep that fills the cache");
                (Some(cache), Kind::Warm { cold: fill.records }, engine)
            } else {
                (None, Kind::Sweep, engine_on(&dev, Some(&pool), CachePolicy::Off))
            };
            Setup {
                device: dev,
                plan,
                engine,
                policy: PointPolicy::robust(),
                pool: Some(pool),
                cache,
                sample,
                kind,
            }
        }
        Workload::NwDftObc => {
            // The cross-validation device of tests/pipeline_cross_validation.rs.
            let spec = if sizes.smoke {
                DeviceBuilder::nanowire(0.6).cells(4).basis(BasisKind::Dft3sp).build()
            } else {
                DeviceBuilder::nanowire(1.0).cells(12).basis(BasisKind::Dft3sp).build()
            };
            let mut dev = build(tr, spec);
            let mut v = inp.ripple(dev.n_slabs);
            let mid = dev.n_slabs / 2;
            v[mid - 1] += 0.15;
            v[mid] += 0.15;
            dev.set_potential(&v);
            let dk = fold(tr, &dev);
            let e0 = dk
                .lead_l
                .dispersive_energy(1.1, 0.3, 0.3)
                .expect("a dispersive band above the conduction edge");
            let plan = single_k_plan(&dev, ladder(e0, 0.02, sizes.pick(4, 2), inp.grid_shift));
            let pool = pool(POOL_WORKERS);
            let engine = engine_on(&dev, Some(&pool), CachePolicy::Off);
            Setup {
                sample: spread_sample(&plan, 2),
                device: dev,
                plan,
                engine,
                policy: PointPolicy::robust(),
                pool: Some(pool),
                cache: None,
                kind: Kind::Sweep,
            }
        }
        Workload::NwLongInterior | Workload::NwLongTonly => {
            let spec = DeviceBuilder::nanowire(1.5)
                .cells(sizes.pick(128, 16))
                .basis(BasisKind::TightBinding)
                .build();
            let mut dev = build(tr, spec);
            dev.set_potential(&inp.ripple(dev.n_slabs));
            let edge = conduction_edge(&fold(tr, &dev));
            let tonly = w == Workload::NwLongTonly;
            let n_e = if tonly { sizes.pick(4, 2) } else { sizes.pick(8, 2) };
            let plan = single_k_plan(&dev, ladder(edge + 0.05, 0.02, n_e, inp.grid_shift));
            // The transmission-only loop runs on the calling thread and
            // needs no pool.
            let pool = (!tonly).then(|| pool(POOL_WORKERS));
            let engine = engine_on(&dev, pool.as_ref(), CachePolicy::Off);
            Setup {
                sample: spread_sample(&plan, 4),
                device: dev,
                plan,
                engine,
                policy: if tonly {
                    PointPolicy::transmission_only()
                } else {
                    PointPolicy::robust()
                },
                pool,
                cache: None,
                kind: if tonly { Kind::PointLoop } else { Kind::Sweep },
            }
        }
        Workload::ResonanceRefined => {
            // BENCH_refine's double-barrier wire: a dot level between two
            // 3 eV barriers, 100 K, ±20 mV around the level.
            let spec = DeviceBuilder::nanowire(0.8).cells(6).basis(BasisKind::TightBinding).build();
            let mut dev = build(tr, spec);
            let mut v = inp.ripple(dev.n_slabs);
            v[1] = 3.0;
            v[dev.n_slabs - 2] = 3.0;
            dev.set_potential(&v);
            dev.config.temperature = 100.0;
            let edge = conduction_edge(&fold(tr, &dev));
            let pool = pool(POOL_WORKERS);
            // Locate the level: argmax of T over the band's interior.
            let scan =
                single_k_plan(&dev, uniform_grid(edge + 0.05, edge + 0.95, sizes.pick(241, 61)));
            let spectrum = tr
                .time("sweep", "locate_resonance", || {
                    engine_on(&dev, Some(&pool), CachePolicy::Off).sweep(&scan, N_RANKS)
                })
                .0
                .expect("resonance scan")
                .spectrum;
            let e_res = spectrum
                .iter()
                .fold(
                    (0.0, f64::NEG_INFINITY),
                    |best, &(e, t)| if t > best.1 { (e, t) } else { best },
                )
                .0;
            dev.config.mu_l = e_res + 0.02;
            dev.config.mu_r = e_res - 0.02;
            let (lo, hi) = dev.fermi_window(5.0);
            // The window's ends stay put (the reference integrates over the
            // same window); the 15 interior points shift by up to a quarter
            // spacing either way.
            let mut base = uniform_grid(lo, hi, 17);
            let shift = (inp.grid_shift - 0.5) * 0.5 * (hi - lo) / 16.0;
            for e in &mut base[1..16] {
                *e += shift;
            }
            let plan = single_k_plan(&dev, base);
            // BENCH_refine's `eps0p1pct` target (`eps1pct` at smoke sizes):
            // a share of the nominal 0.0692 µA reference current, and a
            // per-interval tolerance of 32 (128) times that over G0.
            let (rel_tol, tol_mult) =
                if sizes.smoke { (1e-2, 128.0) } else { (CURRENT_REL_TOL, 32.0) };
            let cfg = RefineConfig {
                tol: tol_mult * rel_tol * 0.0692 / CONDUCTANCE_QUANTUM_US,
                budget: 2052,
                max_rounds: 16,
                min_de: 1e-5,
                flag_escalated: false,
            };
            let engine = engine_on(&dev, Some(&pool), CachePolicy::Off);
            Setup {
                sample: spread_sample(&plan, sizes.pick(16, 4)),
                device: dev,
                plan,
                engine,
                policy: PointPolicy::robust(),
                pool: Some(pool),
                cache: None,
                kind: Kind::Refined { cfg, rel_tol },
            }
        }
        Workload::NwScfIdvgs => {
            // The FET of crates/core/src/scf.rs's tests.
            let spec = DeviceBuilder::nanowire(0.8).cells(8).basis(BasisKind::TightBinding).build();
            let mut dev = build(tr, spec);
            let edge = conduction_edge(&fold(tr, &dev));
            dev.config.mu_l = edge + 0.05 + 0.002 * inp.grid_shift;
            let mu = dev.config.mu_l;
            let plan = single_k_plan(&dev, ladder(mu - 0.04, 0.02, 8, inp.grid_shift));
            let engine = engine_on(&dev, None, CachePolicy::Off);
            let cfg = ScfConfig {
                n_energy: sizes.pick(ScfConfig::default().n_energy, 8),
                ..ScfConfig::default()
            };
            Setup {
                sample: spread_sample(&plan, sizes.pick(8, 2)),
                device: dev,
                plan,
                engine,
                policy: PointPolicy::robust(),
                pool: None,
                cache: None,
                kind: Kind::Scf { vgs: vec![-0.2, 0.1], cfg },
            }
        }
    }
}

/// What the workload's outputs are held against. Computed once per run,
/// after set-up and outside `setup_s`: it is the benchmark's oracle, not
/// work the program does for a user. `corrupt` is the test hook that
/// proves a wrong answer fails the run.
pub fn reference(s: &Setup, sizes: Sizes, corrupt: bool) -> Reference {
    let t0 = Instant::now();
    let bias = if corrupt { 0.25 } else { 0.0 };
    let dks: Vec<DeviceK> = s.plan.k_points.iter().map(|&(kz, _)| s.device.at_kz(kz)).collect();
    let t = s
        .sample
        .iter()
        .map(|p| {
            caroli_transmission(&dks[p.k_idx as usize], p.e, ObcMethod::ShiftInvert)
                .expect("Caroli reference")
                + bias
        })
        .collect();
    let mut current_ua = 0.0;
    let mut id_ua = Vec::new();
    match &s.kind {
        Kind::Refined { .. } => {
            let (lo, hi) = s.device.fermi_window(5.0);
            let grid = single_k_plan(&s.device, uniform_grid(lo, hi, sizes.pick(1025, 513)));
            let spectrum =
                s.engine.sweep(&grid, N_RANKS).expect("uniform reference sweep").spectrum;
            current_ua = current_of(&s.device, &spectrum) * (1.0 + bias);
        }
        Kind::Scf { vgs, cfg } => {
            let mut exact = s.device.clone();
            exact.config.obc = ObcMethod::ShiftInvert;
            exact.config.solver = SolverKind::BtdLu;
            id_ua = id_vgs(&mut exact, cfg, vgs)
                .expect("reference Id-Vgs")
                .iter()
                .map(|p| p.id_ua * (1.0 + bias))
                .collect();
        }
        _ => {}
    }
    Reference { t, current_ua, id_ua, secs: t0.elapsed().as_secs_f64() }
}

/// Landauer current (µA) of a spectrum at the device's contacts.
pub fn current_of(dev: &Device, spectrum: &[(f64, f64)]) -> f64 {
    landauer_integrate(spectrum, dev.config.mu_l, dev.config.mu_r, dev.config.temperature)
        .current_ua
}

fn relative_ok(x: f64, reference: f64, tol: f64) -> bool {
    x.is_finite() && (x - reference).abs() <= tol * reference.abs() + 1e-12
}

/// Checks a sweep's records: every point must have come straight off the
/// ladder (not failed, not interpolated), and the sampled ones must match
/// the reference transmission.
fn check_records(s: &Setup, r: &Reference, records: &[PointRecord], tally: &mut Tally) {
    for rec in records {
        let reference = s
            .sample
            .iter()
            .position(|p| p.k_idx == rec.k_idx && p.e_idx == rec.e_idx)
            .map(|i| r.t[i]);
        let ok = rec.status == STATUS_OK
            && rec.t.is_finite()
            && reference.is_none_or(|t_ref| (rec.t - t_ref).abs() <= T_TOL);
        tally.check(ok);
    }
    // A sweep that drops points is as wrong as one that botches them.
    let missing = s.plan.total_points().saturating_sub(records.len()) as u64;
    tally.attempted += missing;
    tally.failed += missing;
}

/// Result of one timed repetition.
pub struct Rep {
    pub secs: f64,
    pub tally: Tally,
    /// Per-point latencies, when the repetition is itself a point loop.
    pub point_ms: Vec<f64>,
    /// Points the repetition solved (differs from the plan when refined).
    pub points: usize,
}

/// One complete solve of the workload, timed, with its output checked.
pub fn run_rep(s: &Setup, r: &Reference) -> Rep {
    let mut tally = Tally::default();
    let mut point_ms = Vec::new();
    let t0 = Instant::now();
    let (secs, points) = match &s.kind {
        Kind::Sweep => {
            let res = s.engine.sweep(&s.plan, N_RANKS).expect("sweep");
            let secs = t0.elapsed().as_secs_f64();
            check_records(s, r, &res.records, &mut tally);
            (secs, res.records.len())
        }
        Kind::Warm { cold } => {
            let solves0 = obc_solves_total();
            let res = s.engine.sweep(&s.plan, N_RANKS).expect("warm sweep");
            let secs = t0.elapsed().as_secs_f64();
            let extra_solves = obc_solves_total() - solves0;
            check_records(s, r, &res.records, &mut tally);
            // Warm ≡ cold, bit for bit, and without a single OBC solve.
            let differing =
                res.records.iter().zip(cold).filter(|(a, b)| !a.identity_eq(b)).count() as u64;
            tally.failed = (tally.failed + differing + extra_solves).min(tally.attempted);
            (secs, res.records.len())
        }
        Kind::PointLoop => {
            // The plan's energies are the checked sample.
            let secs = point_pass(s, r, &mut point_ms, &mut tally);
            (secs, s.sample.len())
        }
        Kind::Refined { cfg, rel_tol } => {
            let opts = refined_options(s.pool.as_ref().expect("refined sweeps run on a pool"));
            let refined =
                s.engine.sweep_refined(&s.plan, N_RANKS, &opts, cfg).expect("refined sweep");
            let secs = t0.elapsed().as_secs_f64();
            for rec in &refined.result.records {
                tally.check(rec.status == STATUS_OK && rec.t.is_finite());
            }
            let current = current_of(&s.device, &refined.result.spectrum);
            if refined.truncated || !relative_ok(current, r.current_ua, *rel_tol) {
                // A wrong integral makes every point of the sweep useless.
                tally.failed = tally.attempted;
            }
            (secs, refined.result.records.len())
        }
        Kind::Scf { vgs, cfg } => {
            let mut dev = s.device.clone();
            let iv = id_vgs(&mut dev, cfg, vgs).expect("Id-Vgs");
            let secs = t0.elapsed().as_secs_f64();
            for (p, &id_ref) in iv.iter().zip(&r.id_ua) {
                tally.check(relative_ok(p.id_ua, id_ref, IDVGS_REL_TOL));
            }
            (secs, vgs.len())
        }
    };
    Rep { secs, tally, point_ms, points }
}

/// One pass of the single-client closed loop: `solve_point` for one sample
/// point after the other on the calling thread, each timed by the benchmark
/// and checked against its reference. Returns the pass's total seconds.
pub fn point_pass(s: &Setup, r: &Reference, lat_ms: &mut Vec<f64>, tally: &mut Tally) -> f64 {
    let mut total = 0.0;
    for (p, &t_ref) in s.sample.iter().zip(&r.t) {
        let t0 = Instant::now();
        let solved = std::hint::black_box(s.engine.solve_point(p.e, p.kz, &s.policy));
        let secs = t0.elapsed().as_secs_f64();
        total += secs;
        lat_ms.push(secs * 1e3);
        let ok = solved.error.is_none()
            && solved.result.as_ref().is_some_and(|res| (res.transmission - t_ref).abs() <= T_TOL);
        tally.check(ok);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_between_seeds() {
        assert_eq!(Inputs::from_seed(7), Inputs::from_seed(7));
        assert_ne!(Inputs::from_seed(7).grid_shift, Inputs::from_seed(8).grid_shift);
        for seed in 0..50 {
            let i = Inputs::from_seed(seed);
            assert!((0.0..1.0).contains(&i.grid_shift));
            assert!((0.005..=0.02).contains(&i.ripple_amp));
            assert!((1..=3).contains(&i.ripple_waves));
        }
    }

    #[test]
    fn ripple_leaves_the_contact_slabs_alone() {
        let v = Inputs::from_seed(3).ripple(12);
        assert_eq!(v.len(), 12);
        assert_eq!((v[0], v[11]), (0.0, 0.0));
        assert!(v.iter().all(|x| x.abs() <= 0.02));
        assert!(v.iter().any(|x| x.abs() > 1e-4));
    }

    #[test]
    fn spread_sample_is_even_and_in_range() {
        let plan = SweepPlan {
            k_points: vec![(0.0, 1.0), (1.0, 1.0)],
            energies: vec![ladder(0.0, 0.1, 5, 0.0), ladder(0.0, 0.1, 3, 0.0)],
        };
        assert_eq!(all_points(&plan).len(), 8);
        let four = spread_sample(&plan, 4);
        let idx: Vec<(u32, u32)> = four.iter().map(|p| (p.k_idx, p.e_idx)).collect();
        assert_eq!(idx, vec![(0, 1), (0, 3), (1, 0), (1, 2)]);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
