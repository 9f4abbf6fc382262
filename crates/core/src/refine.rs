//! Adaptive energy-grid refinement.
//!
//! The automatic grid of [`crate::EnergyGrid`] refines *a priori* around
//! lead subband edges. This module refines *a posteriori*: after a sweep
//! round solves its points, the integrator inspects the records — local
//! transmission jumps, curvature, and the ladder's own escalation flags —
//! and feeds bisection points back into the plan until every interval's
//! error estimate clears the tolerance or the point budget is spent.
//! Resonances the edge heuristic cannot see (a quantum-dot level in the
//! middle of a band) get resolved with a handful of extra points instead
//! of a uniformly finer grid.
//!
//! # Determinism
//!
//! Each round's refinement set is a pure function of the solved record
//! set, which is itself bit-identical for any worker count (the
//! [`crate::scheduler`] contract). Candidate intervals are scored and
//! selected in a canonical order, so the refined grid — and therefore the
//! whole refined sweep — is bit-identical across worker counts *and*
//! across kill/resume: a resumed run replays the same derivations from
//! the same checkpointed records. Checkpoints are pinned to
//! [`refined_fingerprint`] (base plan ⊕ refinement config), so a flat
//! sweep's checkpoint can never silently resume a refined one or vice
//! versa, and two refined sweeps with different tolerances never mix.

use crate::checkpoint::plan_fingerprint;
use crate::sweep::{PointRecord, SweepPlan, SweepResult, STATUS_OK};

/// Knobs of [`crate::TransportEngine::sweep_refined`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefineConfig {
    /// Per-interval error tolerance (transmission·eV): an interval whose
    /// estimated integration error exceeds this gets bisected.
    pub tol: f64,
    /// Total refinement-point budget across all rounds and momenta.
    pub budget: usize,
    /// Maximum refinement rounds (each round sweeps, estimates, bisects).
    pub max_rounds: usize,
    /// Never bisect an interval at or below twice this spacing — the
    /// resolution floor, mirroring the automatic grid's `d_min`.
    pub min_de: f64,
    /// Force refinement next to points the escalation ladder struggled
    /// with (escalated rung, interpolated, or failed): trouble spots are
    /// where the integrand is least trustworthy.
    pub flag_escalated: bool,
}

impl Default for RefineConfig {
    fn default() -> Self {
        RefineConfig { tol: 1e-4, budget: 256, max_rounds: 8, min_de: 1e-4, flag_escalated: true }
    }
}

impl RefineConfig {
    /// FNV-1a over every knob's bit pattern — any config change changes
    /// it, so checkpoints pin the refinement schedule, not just the grid.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |bits: u64| {
            h ^= bits;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        mix(self.tol.to_bits());
        mix(self.budget as u64);
        mix(self.max_rounds as u64);
        mix(self.min_de.to_bits());
        mix(u64::from(self.flag_escalated));
        h
    }
}

/// Checkpoint fingerprint of a refined sweep: the base plan's fingerprint
/// chained with the refinement config's. Refinement-inserted points are
/// deliberately *not* part of it — they are re-derived on resume, and
/// mid-refinement checkpoints must stay loadable under one stable
/// identity.
pub fn refined_fingerprint(base: &SweepPlan, cfg: &RefineConfig) -> u64 {
    let mut h = plan_fingerprint(base);
    h ^= cfg.fingerprint();
    h = h.wrapping_mul(0x0000_0100_0000_01b3);
    h
}

/// Output of [`crate::TransportEngine::sweep_refined`].
#[derive(Debug, Clone)]
pub struct RefinedSweep {
    /// The aggregated sweep over the refined grid. `samples` and
    /// `records` are in `(k, E)` energy order (refinement-inserted points
    /// interleave their base neighbors), not `(k_idx, e_idx)` order.
    pub result: SweepResult,
    /// The refined plan: the base grids plus every inserted point.
    /// Inserted energies are *appended* to their momentum's grid, so
    /// `e_idx` keeps counting past the base grid — index order is
    /// insertion order, not energy order.
    pub plan: SweepPlan,
    /// Refinement rounds that ran (0 = the base sweep already met `tol`).
    pub rounds: usize,
    /// Points inserted beyond the base plan.
    pub points_added: usize,
    /// Points of the base plan.
    pub base_points: usize,
    /// The run stopped early on [`crate::SweepOptions::max_new_points`] (the
    /// deterministic kill); resume with the same checkpoint to finish.
    pub truncated: bool,
}

/// One scored bisection candidate.
struct Candidate {
    k_idx: u32,
    /// Lower-endpoint energy (tie-break key, unique within a momentum).
    e0: f64,
    mid: f64,
    est: f64,
}

/// Scores every interval of every momentum against the solved records and
/// returns the midpoints to insert, best-first, capped at `limit`.
///
/// Pure function of `(records, cfg)`: records are compared and sorted by
/// energy bit patterns only, so any two runs holding bit-identical
/// records derive bit-identical refinements.
pub(crate) fn select_refinements(
    plan: &SweepPlan,
    records: &[PointRecord],
    cfg: &RefineConfig,
    limit: usize,
) -> Vec<(u32, f64)> {
    if limit == 0 {
        return Vec::new();
    }
    let mut candidates: Vec<Candidate> = Vec::new();
    for k_idx in 0..plan.k_points.len() as u32 {
        // Energy-sorted view of this momentum's records (e_idx order is
        // insertion order once refinement points append). Records beyond
        // the current plan are ignored: a resumed run's checkpoint may
        // hold points from rounds the replay has not re-derived yet, and
        // the derivation must see exactly what the uninterrupted run's
        // did at the same round.
        let n_e = plan.energies[k_idx as usize].len() as u32;
        let mut rs: Vec<&PointRecord> =
            records.iter().filter(|r| r.k_idx == k_idx && r.e_idx < n_e).collect();
        rs.sort_by(|a, b| a.e.total_cmp(&b.e));
        for i in 0..rs.len().saturating_sub(1) {
            let (r0, r1) = (rs[i], rs[i + 1]);
            let de = r1.e - r0.e;
            if de <= 2.0 * cfg.min_de {
                continue; // at the resolution floor
            }
            // Base estimate: ΔE·(½|ΔT| + ΔE·|T″|/12) — the unresolved
            // transmission jump plus the trapezoid curvature error, both
            // in transmission·eV. Curvature from the flanking divided
            // differences where the neighbors exist and are finite.
            let mut est = 0.0f64;
            if r0.t.is_finite() && r1.t.is_finite() {
                let slope = (r1.t - r0.t).abs();
                let tdd = curvature(rs.get(i.wrapping_sub(1)).copied(), r0, r1).max(curvature(
                    rs.get(i + 2).copied(),
                    r1,
                    r0,
                ));
                est = de * (0.5 * slope + de * tdd / 12.0);
            }
            // Trouble flags: an endpoint the ladder escalated on (or that
            // failed outright, or arrived via interpolation) forces the
            // interval above the tolerance — the integrand there is least
            // trustworthy exactly where refinement is cheapest to justify.
            let troubled = |r: &PointRecord| r.status != STATUS_OK || r.method != 0;
            if cfg.flag_escalated && (troubled(r0) || troubled(r1)) {
                est = est.max(2.0 * cfg.tol);
            }
            if est > cfg.tol {
                candidates.push(Candidate { k_idx, e0: r0.e, mid: 0.5 * (r0.e + r1.e), est });
            }
        }
    }
    // Canonical selection order: worst interval first; ties broken on the
    // (unique) momentum/lower-endpoint identity so the cut at `limit` is
    // schedule-independent.
    candidates.sort_by(|a, b| {
        b.est
            .partial_cmp(&a.est)
            .expect("finite estimates")
            .then(a.k_idx.cmp(&b.k_idx))
            .then(a.e0.to_bits().cmp(&b.e0.to_bits()))
    });
    candidates.truncate(limit);
    candidates.into_iter().map(|c| (c.k_idx, c.mid)).collect()
}

/// |T″| from the second divided difference over `(flank, a, b)`; 0 when
/// no finite flanking point exists.
fn curvature(flank: Option<&PointRecord>, a: &PointRecord, b: &PointRecord) -> f64 {
    match flank {
        Some(f) if f.t.is_finite() => {
            let d_ab = (b.t - a.t) / (b.e - a.e);
            let d_fa = (a.t - f.t) / (a.e - f.e);
            (2.0 * (d_ab - d_fa) / (b.e - f.e)).abs()
        }
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(k_idx: u32, e_idx: u32, e: f64, t: f64) -> PointRecord {
        PointRecord {
            k_idx,
            e_idx,
            kz: 0.0,
            w: 1.0,
            e,
            t,
            method: 0,
            status: STATUS_OK,
            attempts: 1,
            escalations: 0,
            residual: 0.0,
            eta: 0.0,
            wall_ms: 0.0,
            interp_bound: 0.0,
        }
    }

    fn flat_plan(n: usize) -> SweepPlan {
        SweepPlan {
            k_points: vec![(0.0, 1.0)],
            energies: vec![(0..n).map(|i| i as f64 * 0.1).collect()],
        }
    }

    #[test]
    fn smooth_records_need_no_refinement() {
        let plan = flat_plan(5);
        let records: Vec<PointRecord> = (0..5).map(|i| record(0, i, i as f64 * 0.1, 1.0)).collect();
        let cfg = RefineConfig::default();
        assert!(select_refinements(&plan, &records, &cfg, 100).is_empty());
    }

    #[test]
    fn a_jump_is_bisected_at_the_midpoint() {
        let plan = flat_plan(4);
        let mut records: Vec<PointRecord> =
            (0..4).map(|i| record(0, i, i as f64 * 0.1, 0.0)).collect();
        records[2].t = 1.0; // spike at e = 0.2
        let cfg = RefineConfig { tol: 1e-3, ..Default::default() };
        let mids = select_refinements(&plan, &records, &cfg, 100);
        assert!(mids.iter().any(|&(_, m)| (m - 0.15).abs() < 1e-12), "{mids:?}");
        assert!(mids.iter().any(|&(_, m)| (m - 0.25).abs() < 1e-12), "{mids:?}");
        // The spike's two slope intervals outrank the curvature-only
        // flank, and the limit cuts the canonical order deterministically.
        let one = select_refinements(&plan, &records, &cfg, 1);
        assert_eq!(one.len(), 1);
        assert!((one[0].1 - 0.15).abs() < 1e-12 || (one[0].1 - 0.25).abs() < 1e-12);
    }

    #[test]
    fn resolution_floor_stops_refinement() {
        let plan = flat_plan(2);
        let records = vec![record(0, 0, 0.0, 0.0), record(0, 1, 0.1, 1.0)];
        let cfg = RefineConfig { tol: 1e-6, min_de: 0.06, ..Default::default() };
        assert!(
            select_refinements(&plan, &records, &cfg, 100).is_empty(),
            "ΔE = 0.1 ≤ 2·min_de never bisects"
        );
    }

    #[test]
    fn escalated_endpoints_force_refinement() {
        let plan = flat_plan(3);
        let mut records: Vec<PointRecord> =
            (0..3).map(|i| record(0, i, i as f64 * 0.1, 1.0)).collect();
        records[1].method = 2; // the ladder escalated here
        let cfg = RefineConfig::default();
        let mids = select_refinements(&plan, &records, &cfg, 100);
        assert_eq!(mids.len(), 2, "both intervals touching the trouble spot: {mids:?}");
        let off = RefineConfig { flag_escalated: false, ..cfg };
        assert!(select_refinements(&plan, &records, &off, 100).is_empty());
    }

    #[test]
    fn fingerprints_pin_config_and_plan() {
        let plan = flat_plan(4);
        let cfg = RefineConfig::default();
        let fp = refined_fingerprint(&plan, &cfg);
        assert_ne!(fp, plan_fingerprint(&plan), "refined identity ≠ flat identity");
        let tighter = RefineConfig { tol: 1e-5, ..cfg };
        assert_ne!(fp, refined_fingerprint(&plan, &tighter));
        let other_plan = flat_plan(5);
        assert_ne!(fp, refined_fingerprint(&other_plan, &cfg));
    }
}
