//! Rank spawning and the communication cost model.

use crate::comm::{Comm, Fabric};
use std::sync::Arc;

/// Latency/bandwidth model of the interconnect (Cray Gemini/Aries class).
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Per-message latency (s).
    pub latency: f64,
    /// Link bandwidth (bytes/s).
    pub bandwidth: f64,
}

impl CostModel {
    /// Cray Gemini (Titan-era) figures: ~1.5 µs latency, ~6 GB/s per link.
    pub fn gemini() -> Self {
        CostModel { latency: 1.5e-6, bandwidth: 6.0e9 }
    }

    /// Time to move one message of `bytes`.
    pub fn msg_time(&self, bytes: usize) -> f64 {
        self.latency + bytes as f64 / self.bandwidth
    }

    /// Time of a binary-tree collective over `ranks` with `bytes` payload.
    pub fn collective_time(&self, ranks: usize, bytes: usize) -> f64 {
        (ranks.max(1) as f64).log2().ceil().max(1.0) * self.msg_time(bytes)
    }

    /// Virtual seconds — the largest [`Comm::comm_time`] of any rank — of
    /// gathering the records of a sweep's `todo` points at world rank 0
    /// through the Fig. 9 topology, from the message sizes alone: no rank
    /// is spawned and no byte moves.
    ///
    /// `points[k]` is the energy-point count of momentum `k`, `alloc[k]`
    /// the ranks it owns (world ranks number the momenta in order),
    /// `todo` the `(k_idx, e_idx)` pairs whose `record_bytes`-byte records
    /// travel. With at least one rank per non-empty momentum the ranks
    /// [`Comm::split`] by momentum, each group deals its energies
    /// round-robin and gathers at its local root, and the group roots'
    /// concatenations (an empty message from every other rank) gather at
    /// world rank 0; `alloc` must then sum to `n_ranks` and give every
    /// momentum of `todo` a rank. With fewer ranks all `n_ranks.max(1)` of
    /// them stride the flattened `(k, E)` list and gather once, and
    /// `alloc` is not read.
    pub fn fig9_gather_seconds(
        &self,
        n_ranks: usize,
        alloc: &[usize],
        points: &[usize],
        todo: &[(u32, u32)],
        record_bytes: usize,
    ) -> f64 {
        if todo.is_empty() {
            return 0.0;
        }
        // Where momentum `k` starts in a list that `sizes` lays end to end.
        let starts = |sizes: &[usize]| -> Vec<usize> {
            sizes.iter().scan(0, |next, &n| Some(std::mem::replace(next, *next + n))).collect()
        };
        // One rooted `Comm::gather` over consecutive ranks: a sender pays
        // for its own message, the root for every message it receives.
        let gather = |clock: &mut [f64], bytes: &[usize]| {
            for r in 1..bytes.len() {
                let t = self.msg_time(bytes[r]);
                clock[r] += t;
                clock[0] += t;
            }
        };
        let non_empty = points.iter().filter(|&&p| p > 0).count();
        let n = n_ranks.max(1);
        let mut clock = vec![0.0f64; n];
        let mut bytes = vec![0usize; n];
        if n_ranks < non_empty.max(1) {
            let offset = starts(points);
            for &(k, e) in todo {
                bytes[(offset[k as usize] + e as usize) % n] += record_bytes;
            }
            gather(&mut clock, &bytes);
        } else {
            assert_eq!(alloc.iter().sum::<usize>(), n, "every rank belongs to one momentum");
            // `Comm::split`: a gather of one 24-byte triple per rank, then
            // a bcast of all `n` of them.
            let per_msg = self.msg_time(24) + self.msg_time(24 * n);
            let collective = self.collective_time(n, 24 * n);
            clock.fill(per_msg + collective);
            clock[0] = (n - 1) as f64 * per_msg + collective;
            let first = starts(alloc);
            for &(k, e) in todo {
                let k = k as usize;
                bytes[first[k] + e as usize % alloc[k]] += record_bytes;
            }
            let mut to_world = vec![0usize; n];
            for (&start, &size) in first.iter().zip(alloc).filter(|(_, &size)| size > 0) {
                let group = start..start + size;
                gather(&mut clock[group.clone()], &bytes[group.clone()]);
                to_world[start] = bytes[group].iter().sum();
            }
            gather(&mut clock, &to_world);
        }
        clock.into_iter().fold(0.0, f64::max)
    }
}

/// Spawns `n` ranks, each running `f(comm)`, and returns their outputs in
/// rank order. Panics in any rank propagate (failing tests loudly rather
/// than deadlocking).
pub fn run_world<T, F>(n: usize, cost: CostModel, f: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(Comm) -> T + Send + Sync + 'static,
{
    assert!(n >= 1);
    let fabric = Arc::new(Fabric::new(n, cost));
    let f = Arc::new(f);
    let mut handles = Vec::with_capacity(n);
    for rank in 0..n {
        let fabric = Arc::clone(&fabric);
        let f = Arc::clone(&f);
        handles.push(
            std::thread::Builder::new()
                .name(format!("rank-{rank}"))
                .spawn(move || {
                    let comm = Comm::world(fabric, rank, n);
                    f(comm)
                })
                .expect("spawn rank"),
        );
    }
    handles.into_iter().map(|h| h.join().expect("rank panicked")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_runs_all_ranks() {
        let out = run_world(4, CostModel::gemini(), |c| c.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30]);
    }

    #[test]
    fn cost_model_scales() {
        let m = CostModel::gemini();
        assert!(m.msg_time(1_000_000) > m.msg_time(10));
        assert!(m.collective_time(1024, 8) > m.collective_time(2, 8));
    }
}
