//! Charge density, current maps and spectral currents (Fig. 10).
//!
//! From the flux-normalized scattering states `ψ^i(E)` of Eq. 5, the
//! occupied-state sums give the atomically resolved observables the paper
//! plots for the 55 488-atom nanowire:
//!
//! * electron distribution `n_q` (Fig. 10(a)),
//! * current map: bond currents `J_q` between slabs (Fig. 10(b)),
//! * spectral current `j(E, x)` (Fig. 10(c)).
//!
//! Each propagating injection carries `dE/2π` of current per unit
//! transmission (flux normalization), occupied by its source contact.

use crate::device::DeviceK;
use crate::landauer::fermi;
use crate::transport::EnergyPointResult;
use qtx_linalg::{c64, Complex64};

/// Aggregated charge/current data over an energy grid.
#[derive(Debug, Clone)]
pub struct ChargeAndCurrent {
    /// Electrons per slab (arbitrary normalization of the model basis).
    pub density: Vec<f64>,
    /// Bond current between slab `q` and `q+1`, energy-integrated.
    pub bond_current: Vec<f64>,
}

/// Energy- and position-resolved spectral current (Fig. 10(c)).
#[derive(Debug, Clone)]
pub struct SpectralData {
    /// Energies (rows).
    pub energies: Vec<f64>,
    /// `current[e][q]` = spectral current between slabs q, q+1.
    pub current: Vec<Vec<f64>>,
    /// `density[e][q]` = spectral electron density.
    pub density: Vec<Vec<f64>>,
}

/// Bond current carried by one scattering state between slabs `q`,`q+1`:
/// `j_q(ψ) = 2·Im[ψ_qᴴ·T_{q,q+1}·ψ_{q+1}]` with `T = E·S − H` (the sign
/// convention is pinned by the conservation test: for a left-injected
/// mode, `j_q` equals its transmission at every `q`).
pub fn bond_current_of_state(
    dk: &DeviceK,
    e: f64,
    psi: &qtx_linalg::ZMat,
    col: usize,
    q: usize,
) -> f64 {
    let s = dk.h.block_size();
    let t01 = {
        let mut t = dk.s.upper[q].scaled(c64(e, 0.0));
        t.axpy(-Complex64::ONE, &dk.h.upper[q]);
        t
    };
    let psi_q: Vec<Complex64> = (0..s).map(|i| psi[(q * s + i, col)]).collect();
    let psi_q1: Vec<Complex64> = (0..s).map(|i| psi[((q + 1) * s + i, col)]).collect();
    let t_psi = t01.matvec(&psi_q1);
    let mut acc = Complex64::ZERO;
    for i in 0..s {
        acc += psi_q[i].conj() * t_psi[i];
    }
    2.0 * acc.im
}

/// Slab-resolved density of one scattering state (`ψᴴ·S·ψ` per slab).
pub fn density_of_state(dk: &DeviceK, psi: &qtx_linalg::ZMat, col: usize, q: usize) -> f64 {
    let s = dk.h.block_size();
    let psi_q: Vec<Complex64> = (0..s).map(|i| psi[(q * s + i, col)]).collect();
    let s_psi = dk.s.diag[q].matvec(&psi_q);
    let mut acc = 0.0;
    for i in 0..s {
        acc += (psi_q[i].conj() * s_psi[i]).re;
    }
    acc
}

/// Accumulates charge and current over solved energy points with contact
/// occupations `(μ_L, μ_R, T)`.
pub fn accumulate(
    dk: &DeviceK,
    points: &[EnergyPointResult],
    energies_weights: &[f64],
    mu_l: f64,
    mu_r: f64,
    temp: f64,
) -> ChargeAndCurrent {
    let nb = dk.h.num_blocks();
    let mut density = vec![0.0; nb];
    let mut bond = vec![0.0; nb.saturating_sub(1)];
    let norm = 1.0 / (2.0 * std::f64::consts::PI);
    for (p, &we) in points.iter().zip(energies_weights) {
        for col in 0..p.psi.cols() {
            let from_left = col < p.m_left;
            let f = if from_left { fermi(p.e, mu_l, temp) } else { fermi(p.e, mu_r, temp) };
            if f < 1e-14 {
                continue;
            }
            for (q, dq) in density.iter_mut().enumerate() {
                *dq += we * norm * f * density_of_state(dk, &p.psi, col, q);
            }
            for (q, bq) in bond.iter_mut().enumerate() {
                let j = bond_current_of_state(dk, p.e, &p.psi, col, q);
                // Right-injected states flow leftwards: their own f
                // multiplies a negative j, so signs come out naturally.
                *bq += we * norm * f * j;
            }
        }
    }
    ChargeAndCurrent { density, bond_current: bond }
}

/// Builds the spectral map of Fig. 10(c).
pub fn spectral_map(
    dk: &DeviceK,
    points: &[EnergyPointResult],
    mu_l: f64,
    mu_r: f64,
    temp: f64,
) -> SpectralData {
    let nb = dk.h.num_blocks();
    let mut energies = Vec::with_capacity(points.len());
    let mut current = Vec::with_capacity(points.len());
    let mut density = Vec::with_capacity(points.len());
    for p in points {
        energies.push(p.e);
        let mut jrow = vec![0.0; nb.saturating_sub(1)];
        let mut nrow = vec![0.0; nb];
        for col in 0..p.psi.cols() {
            let from_left = col < p.m_left;
            let f = if from_left { fermi(p.e, mu_l, temp) } else { fermi(p.e, mu_r, temp) };
            for (q, j) in jrow.iter_mut().enumerate() {
                *j += f * bond_current_of_state(dk, p.e, &p.psi, col, q);
            }
            for (q, n) in nrow.iter_mut().enumerate() {
                *n += f * density_of_state(dk, &p.psi, col, q);
            }
        }
        current.push(jrow);
        density.push(nrow);
    }
    SpectralData { energies, current, density }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;
    use crate::transport::solve_point_direct;
    use qtx_atomistic::{BasisKind, DeviceBuilder};

    fn device_with_barrier() -> (Device, f64) {
        let spec = DeviceBuilder::nanowire(0.8).cells(8).basis(BasisKind::TightBinding).build();
        let mut d = Device::build(spec).unwrap();
        let mut v = vec![0.0; d.n_slabs];
        v[3] = 0.25;
        v[4] = 0.25;
        d.set_potential(&v);
        // A conduction-band energy crossed at k = 1.0.
        let dk = d.at_kz(0.0);
        let e = dk.lead_l.dispersive_energy(1.0, 0.2, 0.3).expect("conduction band");
        (d, e)
    }

    #[test]
    fn bond_current_is_conserved_and_equals_transmission() {
        let (d, e) = device_with_barrier();
        let dk = d.at_kz(0.0);
        let r = solve_point_direct(&dk, e, &d.config, None).unwrap();
        assert!(r.m_left >= 1);
        // Sum over left-injected columns.
        let nb = dk.h.num_blocks();
        for q in 0..nb - 1 {
            let j: f64 =
                (0..r.m_left).map(|col| bond_current_of_state(&dk, e, &r.psi, col, q)).sum();
            assert!(
                (j - r.transmission).abs() < 1e-6,
                "slab {q}: J = {j} vs T = {}",
                r.transmission
            );
        }
    }

    #[test]
    fn right_injection_carries_negative_current() {
        let (d, e) = device_with_barrier();
        let dk = d.at_kz(0.0);
        let r = solve_point_direct(&dk, e, &d.config, None).unwrap();
        let m_r = r.psi.cols() - r.m_left;
        assert!(m_r >= 1);
        let j: f64 =
            (r.m_left..r.psi.cols()).map(|col| bond_current_of_state(&dk, e, &r.psi, col, 2)).sum();
        assert!(j < 0.0, "right-injected current flows to −x: {j}");
        assert!((j + r.transmission_rl).abs() < 1e-6);
    }

    #[test]
    fn equilibrium_net_current_vanishes() {
        let (d, e) = device_with_barrier();
        let dk = d.at_kz(0.0);
        let r = solve_point_direct(&dk, e, &d.config, None).unwrap();
        let cc = accumulate(&dk, &[r], &[1.0], 0.0, 0.0, 300.0);
        for j in &cc.bond_current {
            assert!(j.abs() < 1e-9, "equilibrium current {j}");
        }
    }

    #[test]
    fn bias_drives_positive_current_and_charge_piles_at_source() {
        let (d, e) = device_with_barrier();
        let dk = d.at_kz(0.0);
        let r = solve_point_direct(&dk, e, &d.config, None).unwrap();
        // μ_L above the probe energy, μ_R far below: only left injection.
        let cc = accumulate(&dk, std::slice::from_ref(&r), &[1.0], e + 0.3, e - 1.0, 300.0);
        for j in &cc.bond_current {
            assert!(*j > 0.0, "forward bias current {j}");
        }
        // Density must be higher before the barrier than after it.
        assert!(cc.density[1] > cc.density[6], "{:?}", cc.density);
    }

    #[test]
    fn spectral_map_shapes() {
        let (d, e) = device_with_barrier();
        let dk = d.at_kz(0.0);
        let r1 = solve_point_direct(&dk, e, &d.config, None).unwrap();
        let r2 = solve_point_direct(&dk, e + 0.05, &d.config, None).unwrap();
        let sm = spectral_map(&dk, &[r1, r2], 5.0, 5.0, 300.0);
        assert_eq!(sm.energies.len(), 2);
        assert_eq!(sm.current[0].len(), dk.h.num_blocks() - 1);
        assert_eq!(sm.density[0].len(), dk.h.num_blocks());
    }
}
