//! Self-consistent Schrödinger–Poisson loop and Id–Vgs sweeps (Fig. 1(d)).
//!
//! OMEN "self-consistently solves the Schrödinger and Poisson equations"
//! (§4): each iteration sweeps the energy grid, accumulates the transport
//! charge, feeds it to the gated 1-D Poisson solver of `qtx-poisson`, and
//! damps the potential update until the profile stops moving. "An entire
//! simulation involves roughly 40-50 iterations for 10 bias points"
//! (§5.B) — the same loop at laptop scale drives the transfer
//! characteristics of Fig. 1(d).

use crate::device::Device;
use crate::energygrid::EnergyGrid;
use crate::error::TransportResult;
use crate::landauer::landauer_current_ua;
use crate::observables::accumulate;
use crate::scheduler::{self, BatchOptions, TaskAttempt};
use crate::transport::solve_point_direct_on;
use qtx_poisson::{gated_poisson_1d, GateSpec};
use std::sync::Arc;

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

/// Runs the Schrödinger–Poisson loop on a device (modifies its potential).
pub fn schrodinger_poisson(dev: &mut Device, cfg: &ScfConfig) -> TransportResult<ScfResult> {
    let nb = dev.n_slabs;
    let gate = GateSpec {
        start: ((nb as f64) * cfg.gate_window.0) as usize,
        end: (((nb as f64) * cfg.gate_window.1) as usize).min(nb),
        // Electron potential energy: a positive gate voltage *lowers* the
        // electron barrier, so the electrostatic solve works in volts and
        // the sign flip happens when applying to H.
        vg: cfg.vg,
        lambda: cfg.lambda,
    };
    let kt_window = 10.0;
    let mut residual = f64::INFINITY;
    let mut iterations = 0;
    let mut spectrum = Vec::new();
    let dx = dev.base.unit_cell.cell_len * dev.base.unit_cell.nbw as f64;
    // Contact electrostatics: source grounded, drain at +Vd.
    let (v_s, v_d) = (0.0, cfg.vd);
    // Bias enters the occupations too.
    dev.config.mu_r = dev.config.mu_l - cfg.vd;
    for it in 0..cfg.max_iter {
        iterations = it + 1;
        // 1. Transport sweep on the current potential.
        let dk = dev.at_kz(0.0);
        let (e_lo, e_hi) = {
            let (lo, hi) = dev.fermi_window(kt_window);
            // Clip to where the leads actually conduct.
            let (band_lo, band_hi) = dk.lead_l.band_window(24);
            (lo.max(band_lo - 0.05), hi.min(band_hi + 0.05))
        };
        if e_hi <= e_lo {
            // Gap fully covers the bias window: no current flows.
            let pot = dev.potential.clone();
            return Ok(ScfResult {
                potential: pot,
                current_ua: 0.0,
                spectrum: Vec::new(),
                iterations,
                residual: 0.0,
                converged: true,
            });
        }
        let grid = EnergyGrid::uniform(e_lo, e_hi, cfg.n_energy.max(2));
        let cfg_t = dev.config;
        // Panic-isolated solves on the supervised pool: typed errors
        // propagate as before (no retries — the SCF loop owns recovery),
        // a panicking point surfaces as `TransportError::Panic` instead of
        // tearing down the whole iteration.
        let dk_shared = Arc::new(dk);
        let run_dk = Arc::clone(&dk_shared);
        // Env-armed self-energy cache: the gate potential folds into the
        // channel, not the leads, so Σ(E) survives across SCF iterations
        // and bias points — exactly the reuse the cache is for. (The
        // handle re-hashes the leads each iteration; if a model ever does
        // shift them, the content address changes and nothing stale is
        // served.)
        let cache = crate::cache::env_handle(&dk_shared);
        // One structural scan per iteration, not one per energy point.
        let support = dk_shared.coupling_support();
        let reports = scheduler::global().execute(
            grid.points.clone(),
            &BatchOptions { max_retries: Some(0), ..Default::default() },
            move |_, &e, _| {
                TaskAttempt::Done(solve_point_direct_on(
                    &run_dk,
                    &support,
                    e,
                    &cfg_t,
                    None,
                    cache.as_ref(),
                ))
            },
            |_, _, _, err| Err(crate::error::TransportError::Panic { what: err.to_string() }),
        );
        let points: Vec<_> =
            reports.into_iter().map(|r| r.value).collect::<TransportResult<Vec<_>>>()?;
        let dk = Arc::try_unwrap(dk_shared).unwrap_or_else(|arc| (*arc).clone());
        spectrum = points.iter().map(|p| (p.e, p.transmission)).collect();
        // 2. Charge per slab.
        let de = (e_hi - e_lo) / (cfg.n_energy.max(2) - 1) as f64;
        let weights = vec![de; points.len()];
        let cc = accumulate(
            &dk,
            &points,
            &weights,
            dev.config.mu_l,
            dev.config.mu_r,
            dev.config.temperature,
        );
        // 3. Electrostatics: electrons screen the gate (negative charge).
        let rho: Vec<f64> = cc.density.iter().map(|n| -cfg.charge_coupling * n).collect();
        let v_new = gated_poisson_1d(&rho, dx, &gate, v_s, v_d, 1e-10);
        // 4. Electron potential energy U = −V, damped update.
        let mut worst: f64 = 0.0;
        let mut u = dev.potential.clone();
        for q in 0..nb {
            let target = -v_new[q];
            let delta = target - u[q];
            worst = worst.max(delta.abs());
            u[q] += cfg.mixing * delta;
        }
        dev.set_potential(&u);
        residual = worst;
        if worst < cfg.tol {
            break;
        }
    }
    let current =
        landauer_current_ua(&spectrum, dev.config.mu_l, dev.config.mu_r, dev.config.temperature);
    Ok(ScfResult {
        potential: dev.potential.clone(),
        current_ua: current,
        spectrum,
        iterations,
        residual,
        converged: residual < cfg.tol,
    })
}

/// Sweeps the gate voltage and returns the transfer characteristic
/// Id–Vgs of Fig. 1(d). Each bias point restarts from the previous
/// converged potential (the production continuation strategy).
pub fn id_vgs(
    dev: &mut Device,
    cfg: &ScfConfig,
    vgs_list: &[f64],
) -> TransportResult<Vec<IvPoint>> {
    let mut out = Vec::with_capacity(vgs_list.len());
    for &vg in vgs_list {
        let mut c = cfg.clone();
        c.vg = vg;
        let r = schrodinger_poisson(dev, &c)?;
        out.push(IvPoint { vgs: vg, id_ua: r.current_ua });
    }
    Ok(out)
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
