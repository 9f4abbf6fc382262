//! Self-consistent Schrödinger–Poisson loop and Id–Vgs sweeps (Fig. 1(d)).
//!
//! OMEN "self-consistently solves the Schrödinger and Poisson equations"
//! (§4): each iteration sweeps the energy grid, accumulates the transport
//! charge, feeds it to the gated 1-D Poisson solver of `qtx-poisson`, and
//! damps the potential update until the profile stops moving. "An entire
//! simulation involves roughly 40-50 iterations for 10 bias points"
//! (§5.B) — the same loop at laptop scale drives the transfer
//! characteristics of Fig. 1(d).
//!
//! Each iteration's energy pass is a single-momentum [`SweepPlan`] through
//! the loop behind [`TransportEngine::sweep`] on the engine's pool: ladder,
//! retry/quarantine and worker-count determinism as in every other sweep.
//! It runs without a Σ-cache — the leads sit at the contact slabs'
//! potential ([`Device::at_kz`]), which moves every iteration, so no two
//! iterations ask for the same Σ(E) (`docs/cache.md`, "What does not
//! cache"). The free functions wrap the engine methods around an engine
//! scoped to the call.

use crate::cache::CachePolicy;
use crate::device::Device;
use crate::energygrid::EnergyGrid;
use crate::engine::TransportEngine;
use crate::error::{TransportError, TransportResult};
use crate::landauer::landauer_current_ua;
use crate::observables::accumulate;
use crate::sweep::{SweepOptions, SweepPlan};
use crate::transport::METHOD_DECIMATION;
use qtx_poisson::{gated_poisson_1d, GateSpec};

/// SCF controls.
#[derive(Debug, Clone)]
pub struct ScfConfig {
    /// Maximum Schrödinger–Poisson iterations.
    pub max_iter: usize,
    /// Convergence threshold on `max|ΔV|` (V).
    pub tol: f64,
    /// Damping factor for the potential update.
    pub mixing: f64,
    /// Gate window as slab-index fractions `(start, end)` of the device.
    pub gate_window: (f64, f64),
    /// Gate voltage (V), work function already folded in.
    pub vg: f64,
    /// Drain bias (V) applied to the right contact.
    pub vd: f64,
    /// Electrostatic screening length (nm).
    pub lambda: f64,
    /// Charge-to-potential coupling (V·slab per accumulated electron) —
    /// absorbs `q/ε` and the cross-section area of the model.
    pub charge_coupling: f64,
    /// Energy grid resolution (points).
    pub n_energy: usize,
}

impl Default for ScfConfig {
    fn default() -> Self {
        ScfConfig {
            max_iter: 25,
            tol: 2e-3,
            mixing: 0.5,
            gate_window: (0.375, 0.625),
            vg: 0.0,
            vd: 0.05,
            // Thin-body electrostatic screening length: strong gate
            // control needs λ below the grid spacing (~a/2 for GAA).
            lambda: 0.25,
            charge_coupling: 0.15,
            n_energy: 40,
        }
    }
}

/// Outcome of a self-consistent solve.
#[derive(Debug, Clone)]
pub struct ScfResult {
    /// Converged (or last) potential profile (eV, electron energy).
    pub potential: Vec<f64>,
    /// Ballistic current at the final iteration (µA).
    pub current_ua: f64,
    /// Transmission spectrum `(E, T)` of the final iteration.
    pub spectrum: Vec<(f64, f64)>,
    /// Iterations executed.
    pub iterations: usize,
    /// Final `max|ΔV|`.
    pub residual: f64,
    /// Converged flag.
    pub converged: bool,
}

/// One Id(Vgs) sample.
#[derive(Debug, Clone, Copy)]
pub struct IvPoint {
    /// Gate voltage (V).
    pub vgs: f64,
    /// Drain current (µA).
    pub id_ua: f64,
}

impl ScfConfig {
    /// The gate window in slab indices on an `nb`-slab device — or a
    /// [`TransportError::Config`] for everything [`gated_poisson_1d`]
    /// would assert on and every knob the damped iteration cannot run on.
    fn gate_on(&self, nb: usize) -> TransportResult<GateSpec> {
        let (w0, w1) = self.gate_window;
        let gate = GateSpec {
            start: (nb as f64 * w0) as usize,
            end: ((nb as f64 * w1) as usize).min(nb),
            // Electron potential energy: a positive gate voltage *lowers*
            // the electron barrier, so the electrostatic solve works in
            // volts and the sign flip happens when applying to H.
            vg: self.vg,
            lambda: self.lambda,
        };
        let positive = |v: f64| v > 0.0 && v.is_finite();
        let finite = [self.vg, self.vd, self.charge_coupling].iter().all(|v| v.is_finite());
        let window = 0.0 <= w0 && w0 < w1 && w1 <= 1.0 && gate.start < gate.end;
        if positive(self.tol) && positive(self.mixing) && positive(self.lambda) && finite && window
        {
            return Ok(gate);
        }
        Err(TransportError::Config {
            what: format!(
                "malformed ScfConfig for a {nb}-slab device: tol, mixing and lambda must be \
                 positive, vg, vd and charge_coupling finite, and gate_window satisfy \
                 0 ≤ start < end ≤ 1 over at least one slab: {self:?}"
            ),
        })
    }
}

impl TransportEngine {
    /// Runs the Schrödinger–Poisson loop on the engine's device, moving
    /// its potential ([`Self::set_potential`]) and its right contact's
    /// chemical potential (`mu_l − cfg.vd`) as it goes.
    ///
    /// Errors: a malformed `cfg` or an engine without a [`Device`] is
    /// [`TransportError::Config`]; an energy point without scattering
    /// states — failed (a sweep would interpolate it), or rescued by the
    /// mode-free decimation rung alone — ends the loop with that point's
    /// error instead of leaving a hole in the charge.
    pub fn schrodinger_poisson(&mut self, cfg: &ScfConfig) -> TransportResult<ScfResult> {
        let nb = self.full_device("Schrödinger–Poisson iterations")?.n_slabs;
        let gate = cfg.gate_on(nb)?;
        let kt_window = 10.0;
        let mut residual = f64::INFINITY;
        let mut iterations = 0;
        let mut spectrum = Vec::new();
        // Contact electrostatics: source grounded, drain at +Vd.
        let (v_s, v_d) = (0.0, cfg.vd);
        // Bias enters the occupations too.
        self.set_mu_r(self.config().mu_l - cfg.vd);
        let tc = *self.config();
        let opts = SweepOptions { cache: CachePolicy::Off, ..SweepOptions::default() };
        for it in 0..cfg.max_iter {
            iterations = it + 1;
            // 1. Transport sweep on the current potential.
            let dev = self.device().expect("checked above");
            let dx = dev.base.unit_cell.cell_len * dev.base.unit_cell.nbw as f64;
            let mut u = dev.potential.clone();
            let dk = self.device_k(0.0).expect("device-backed");
            let (e_lo, e_hi) = {
                let (lo, hi) = dev.fermi_window(kt_window);
                // Clip to where the leads actually conduct.
                let (band_lo, band_hi) = dk.lead_l.band_window(24);
                (lo.max(band_lo - 0.05), hi.min(band_hi + 0.05))
            };
            if e_hi <= e_lo {
                // Gap fully covers the bias window: no current flows.
                (spectrum, residual) = (Vec::new(), 0.0);
                break;
            }
            let n_energy = cfg.n_energy.max(2);
            let grid = EnergyGrid::uniform(e_lo, e_hi, n_energy);
            let plan = SweepPlan { k_points: vec![(0.0, 1.0)], energies: vec![grid.points] };
            let mut solved = Vec::with_capacity(n_energy);
            self.run(&plan, 1, &opts, None, Some(&mut solved))?;
            let points = solved
                .into_iter()
                .map(|rs| {
                    let has_states = rs.outcome.method_used != METHOD_DECIMATION;
                    let point = rs.into_result()?;
                    if has_states {
                        Ok(point)
                    } else {
                        Err(TransportError::NoStates { e: point.e, kz: point.kz })
                    }
                })
                .collect::<TransportResult<Vec<_>>>()?;
            spectrum = points.iter().map(|p| (p.e, p.transmission)).collect();
            // 2. Charge per slab.
            let de = (e_hi - e_lo) / (n_energy - 1) as f64;
            let weights = vec![de; points.len()];
            let cc = accumulate(&dk, &points, &weights, tc.mu_l, tc.mu_r, tc.temperature);
            // 3. Electrostatics: electrons screen the gate (negative charge).
            let rho: Vec<f64> = cc.density.iter().map(|n| -cfg.charge_coupling * n).collect();
            let v_new = gated_poisson_1d(&rho, dx, &gate, v_s, v_d, 1e-10);
            // 4. Electron potential energy U = −V, damped update.
            let mut worst: f64 = 0.0;
            for q in 0..nb {
                let delta = -v_new[q] - u[q];
                worst = worst.max(delta.abs());
                u[q] += cfg.mixing * delta;
            }
            self.set_potential(&u);
            residual = worst;
            if worst < cfg.tol {
                break;
            }
        }
        Ok(ScfResult {
            potential: self.device().expect("checked above").potential.clone(),
            current_ua: landauer_current_ua(&spectrum, tc.mu_l, tc.mu_r, tc.temperature),
            spectrum,
            iterations,
            residual,
            converged: residual < cfg.tol,
        })
    }

    /// Sweeps the gate voltage and returns the transfer characteristic
    /// Id–Vgs of Fig. 1(d). Each bias point restarts from the previous
    /// converged potential (the production continuation strategy).
    pub fn id_vgs(&mut self, cfg: &ScfConfig, vgs_list: &[f64]) -> TransportResult<Vec<IvPoint>> {
        vgs_list
            .iter()
            .map(|&vg| {
                let r = self.schrodinger_poisson(&ScfConfig { vg, ..cfg.clone() })?;
                Ok(IvPoint { vgs: vg, id_ua: r.current_ua })
            })
            .collect()
    }
}

/// Runs `scf` on an engine scoped to the call and writes the potential and
/// `mu_r` it ended on back to `dev`, whether the loop succeeded or not.
fn on_scoped_engine<T>(dev: &mut Device, scf: impl FnOnce(&mut TransportEngine) -> T) -> T {
    let mut engine = TransportEngine::new(dev.clone());
    let out = scf(&mut engine);
    let moved = engine.device().expect("built on a device");
    dev.set_potential(&moved.potential);
    dev.config.mu_r = moved.config.mu_r;
    out
}

/// [`TransportEngine::schrodinger_poisson`] on an engine scoped to the
/// call; `dev` ends on the loop's potential and `mu_r`.
pub fn schrodinger_poisson(dev: &mut Device, cfg: &ScfConfig) -> TransportResult<ScfResult> {
    on_scoped_engine(dev, |engine| engine.schrodinger_poisson(cfg))
}

/// [`TransportEngine::id_vgs`] on an engine scoped to the call; `dev` ends
/// on the last gate point's potential and `mu_r`.
pub fn id_vgs(
    dev: &mut Device,
    cfg: &ScfConfig,
    vgs_list: &[f64],
) -> TransportResult<Vec<IvPoint>> {
    on_scoped_engine(dev, |engine| engine.id_vgs(cfg, vgs_list))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtx_atomistic::{BasisKind, DeviceBuilder};

    fn fet() -> Device {
        let spec = DeviceBuilder::nanowire(0.8).cells(8).basis(BasisKind::TightBinding).build();
        let mut d = Device::build(spec).unwrap();
        // Fermi level just above the lowest *dispersive* conduction edge
        // (n-type contacts); flat passivation bands carry no current.
        let dk = d.at_kz(0.0);
        let edge = dk.lead_l.dispersive_band_min(0.1, 0.3).expect("conduction edge");
        d.config.mu_l = edge + 0.05;
        d
    }

    fn fast_cfg() -> ScfConfig {
        ScfConfig { max_iter: 8, n_energy: 14, tol: 5e-3, vd: 0.05, ..ScfConfig::default() }
    }

    #[test]
    fn scf_converges_and_reports_positive_current() {
        let mut d = fet();
        let mut cfg = fast_cfg();
        cfg.vg = 0.3; // on-state
        let r = schrodinger_poisson(&mut d, &cfg).unwrap();
        assert!(r.iterations >= 2);
        assert!(r.current_ua >= 0.0, "forward bias drives positive current");
        assert!(!r.spectrum.is_empty());
        assert!(r.residual < 0.1, "potential motion {}", r.residual);
    }

    #[test]
    fn gate_modulates_current() {
        // The FET behaviour of Fig. 1(d): a negative gate raises the
        // channel barrier and chokes the current; near flat-band the wire
        // conducts ballistically. (Far positive gates dig a well that
        // itself reflects — the ON state sits near flat-band here.)
        let off = {
            let mut d = fet();
            let mut cfg = fast_cfg();
            cfg.vg = -0.4;
            schrodinger_poisson(&mut d, &cfg).unwrap().current_ua
        };
        let on = {
            let mut d = fet();
            let mut cfg = fast_cfg();
            cfg.vg = 0.15;
            schrodinger_poisson(&mut d, &cfg).unwrap().current_ua
        };
        assert!(on > 5.0 * off.max(1e-12), "gate must modulate: on = {on} µA, off = {off} µA");
    }

    #[test]
    fn id_vgs_is_monotone_for_nfet() {
        // Subthreshold-to-on branch of the transfer characteristic.
        let mut d = fet();
        let cfg = fast_cfg();
        let iv = id_vgs(&mut d, &cfg, &[-0.4, -0.15, 0.1]).unwrap();
        assert_eq!(iv.len(), 3);
        assert!(iv[0].id_ua <= iv[1].id_ua + 1e-9, "{iv:?}");
        assert!(iv[1].id_ua <= iv[2].id_ua + 1e-9, "{iv:?}");
    }

    #[test]
    fn gate_pulls_channel_potential_down() {
        let mut d = fet();
        let mut cfg = fast_cfg();
        cfg.vg = 0.5;
        let r = schrodinger_poisson(&mut d, &cfg).unwrap();
        let mid = d.n_slabs / 2;
        // Electron potential energy in the gated channel goes negative
        // (barrier lowered) for positive Vg.
        assert!(r.potential[mid] < 0.0, "channel U = {}", r.potential[mid]);
    }
}
