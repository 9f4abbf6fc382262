//! Content-addressed lead self-energy cache.
//!
//! Across sweeps at one potential the leads never change, so `Σ(E)` per
//! lead is recomputed for identical inputs — the SC'15 paper spends most
//! of its per-point budget on exactly this OBC work. (Not so in the SCF:
//! every iteration moves both leads — `docs/cache.md`, "What does not
//! cache".) This module amortizes the repeats: every self-energy build is
//! keyed by the **content hash of the lead blocks**
//! ([`qtx_obc::LeadBlocks::content_hash`]) ×
//! energy × broadening η × contact side × a fingerprint of the OBC method
//! and its numerical knobs. A hit replays the stored
//! [`qtx_obc::frame`] byte frame and is therefore *bit-identical* to the
//! solve it replaced; downstream transmission, residuals and records do
//! not move by a single bit.
//!
//! Two layers:
//!
//! * **Exact store** — serialized [`ObcResult`] frames under an LRU
//!   byte budget ([`CacheConfig::max_bytes`]). Errors and fault-injected
//!   solves are never cached. Σ is only ever replayed, never
//!   interpolated: every point gets the exact OBC of its own energy.
//! * **Fault-campaign bypass** — while a `fault-inject` campaign is
//!   armed, the cache stands down entirely (no lookups, no inserts):
//!   cached hits would skip the chokepoint draws inside the solves and
//!   change the campaign's injection accounting, breaking the fault
//!   battery's bit-identity contracts.
//!
//! See `docs/cache.md` for the full key-derivation and error-contract
//! write-up.

use crate::device::DeviceK;
use crate::error::{TransportError, TransportResult};
use qtx_obc::{
    decode_obc_result, encode_obc_result, Eta, LeadBlocks, ObcError, ObcMethod, ObcOutcome,
    ObcResult, Side,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Construction knobs of a [`SigmaCache`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfig {
    /// Byte budget of the stored frames; the least-recently-used entry is
    /// evicted when an insert would exceed it.
    pub max_bytes: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig { max_bytes: 256 << 20 }
    }
}

/// Counter snapshot of one cache (monotone process-lifetime totals plus
/// the current store occupancy).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Exact hits served from stored frames.
    pub hits: u64,
    /// Lookups that fell through to a real solve.
    pub misses: u64,
    /// Entries evicted under the byte budget.
    pub evictions: u64,
    /// Entries currently stored.
    pub entries: usize,
    /// Bytes currently stored.
    pub bytes: usize,
}

fn mix(mut h: u64, v: u64) -> u64 {
    h ^= v;
    h = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

/// Stable fingerprint of an OBC method *and* every numerical knob that
/// changes its output: two configurations hash equal iff an identical
/// lead/energy/η input is guaranteed the identical Σ.
fn method_fingerprint(method: ObcMethod) -> u64 {
    match method {
        ObcMethod::Feast(c) => {
            let mut h = mix(0, 1);
            for v in [
                c.np as u64,
                c.r_outer.to_bits(),
                c.subspace as u64,
                c.max_refine as u64,
                c.tol.to_bits(),
            ] {
                h = mix(h, v);
            }
            h
        }
        ObcMethod::Beyn(c) => {
            let mut h = mix(0, 2);
            for v in [
                c.np as u64,
                c.r_outer.to_bits(),
                c.probes as u64,
                c.rank_tol.to_bits(),
                c.residual_tol.to_bits(),
            ] {
                h = mix(h, v);
            }
            h
        }
        ObcMethod::ShiftInvert => mix(0, 3),
        ObcMethod::Decimation => mix(0, 4),
    }
}

fn side_tag(side: Side) -> u8 {
    match side {
        Side::Left => 0,
        Side::Right => 1,
    }
}

/// Full content address of one stored self-energy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    lead: u64,
    e: u64,
    eta: u64,
    side: u8,
    fp: u64,
}

impl Key {
    fn new(lead_hash: u64, e: f64, eta: f64, side: Side, method: ObcMethod) -> Key {
        Key {
            lead: lead_hash,
            e: e.to_bits(),
            eta: eta.to_bits(),
            side: side_tag(side),
            fp: method_fingerprint(method),
        }
    }
}

struct Entry {
    frame: Vec<u8>,
    stamp: u64,
}

#[derive(Default)]
struct Inner {
    map: HashMap<Key, Entry>,
    bytes: usize,
    tick: u64,
}

/// Shared, thread-safe, content-addressed store of lead self-energies.
/// Cheap to share (`Arc`); one coarse mutex guards the store — the guarded
/// work is map bookkeeping and frame decode, orders of magnitude below the
/// dense solves it elides.
pub struct SigmaCache {
    cfg: CacheConfig,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for SigmaCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SigmaCache").field("cfg", &self.cfg).field("stats", &self.stats()).finish()
    }
}

impl SigmaCache {
    /// An empty cache with the given knobs.
    pub fn new(cfg: CacheConfig) -> SigmaCache {
        SigmaCache {
            cfg,
            inner: Mutex::new(Inner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("sigma cache lock");
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: inner.map.len(),
            bytes: inner.bytes,
        }
    }

    /// Cache-fronted self-energy: an exact hit replays the stored frame
    /// (bit-identical to the solve it replaced, `stats: None`); a miss
    /// runs the real [`qtx_obc::self_energy`] and stores the result.
    /// Errors are returned untouched and never cached.
    ///
    /// `lead_hash` must be `lead.content_hash()` (hoisted out so sweeps
    /// hash each lead once, not once per energy point).
    pub fn self_energy(
        &self,
        lead: &LeadBlocks,
        lead_hash: u64,
        e: f64,
        eta: f64,
        side: Side,
        method: ObcMethod,
    ) -> ObcOutcome<ObcResult> {
        let key = Key::new(lead_hash, e, eta, side, method);
        if let Some(found) = self.lookup_counted(&key) {
            return Ok(found);
        }
        let fresh = qtx_obc::self_energy(lead, e, Eta(eta), side, method)?;
        self.insert(key, &fresh);
        Ok(fresh)
    }

    /// Both contacts of one energy point, `(left, right)`: each key is
    /// looked up, what is missing is solved and stored, and every hit,
    /// miss, key and stored frame is what two [`SigmaCache::self_energy`]
    /// calls (left, then right) produce.
    /// When both sides miss on leads with one content hash the two fresh
    /// solves are one [`qtx_obc::self_energy_pair`], which shares the mode
    /// solve between the contacts. A failure names its contact (both
    /// lookups are booked before anything is solved, so a failing left
    /// solve leaves the right lookup counted where the two-call sequence
    /// would not have reached it).
    #[allow(clippy::too_many_arguments)]
    pub fn self_energy_pair(
        &self,
        lead_l: &LeadBlocks,
        hash_l: u64,
        lead_r: &LeadBlocks,
        hash_r: u64,
        e: f64,
        eta: f64,
        method: ObcMethod,
    ) -> Result<(ObcResult, ObcResult), (Side, ObcError)> {
        let key_l = Key::new(hash_l, e, eta, Side::Left, method);
        let key_r = Key::new(hash_r, e, eta, Side::Right, method);
        let (found_l, found_r) = (self.lookup_counted(&key_l), self.lookup_counted(&key_r));
        if found_l.is_none() && found_r.is_none() && hash_l == hash_r {
            let (obc_l, obc_r) = qtx_obc::self_energy_pair(lead_l, lead_r, e, Eta(eta), method)?;
            return Ok((self.store(key_l, obc_l), self.store(key_r, obc_r)));
        }
        let one = |found, key, lead, side| match found {
            Some(found) => Ok(found),
            None => qtx_obc::self_energy(lead, e, Eta(eta), side, method)
                .map(|fresh| self.store(key, fresh))
                .map_err(|source| (side, source)),
        };
        Ok((one(found_l, key_l, lead_l, Side::Left)?, one(found_r, key_r, lead_r, Side::Right)?))
    }

    /// [`SigmaCache::lookup`] that books the outcome as a hit or a miss.
    fn lookup_counted(&self, key: &Key) -> Option<ObcResult> {
        let found = self.lookup(key);
        let counter = if found.is_some() { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Stores a fresh solve and hands it back: a later hit on `key`
    /// replays these very bits.
    fn store(&self, key: Key, fresh: ObcResult) -> ObcResult {
        self.insert(key, &fresh);
        fresh
    }

    fn lookup(&self, key: &Key) -> Option<ObcResult> {
        let mut inner = self.inner.lock().expect("sigma cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner.map.get_mut(key)?;
        entry.stamp = tick;
        match decode_obc_result(&entry.frame) {
            Ok(r) => Some(r),
            Err(_) => {
                // A frame we encoded ourselves cannot fail to decode; if
                // it somehow does (memory corruption), drop the entry and
                // fall back to a fresh solve rather than panicking.
                debug_assert!(false, "sigma cache frame failed to decode");
                let entry = inner.map.remove(key).expect("entry present");
                inner.bytes -= entry.frame.len();
                None
            }
        }
    }

    /// Stores a fresh solve, then evicts least-recently-used entries down
    /// to the byte budget.
    fn insert(&self, key: Key, fresh: &ObcResult) {
        let frame = encode_obc_result(fresh);
        let mut inner = self.inner.lock().expect("sigma cache lock");
        if inner.map.contains_key(&key) {
            return; // concurrent identical solve already landed
        }
        inner.tick += 1;
        let stamp = inner.tick;
        inner.bytes += frame.len();
        inner.map.insert(key, Entry { frame, stamp });
        while inner.bytes > self.cfg.max_bytes && !inner.map.is_empty() {
            let victim =
                *inner.map.iter().min_by_key(|(_, v)| v.stamp).map(|(k, _)| k).expect("non-empty");
            let entry = inner.map.remove(&victim).expect("victim present");
            inner.bytes -= entry.frame.len();
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Which cache an engine or a sweep solves against: one exists only
/// where a caller passed it.
#[derive(Debug, Clone, Default)]
pub enum CachePolicy {
    /// A sweep inherits its engine's cache (on the engine builder: none).
    #[default]
    Inherit,
    /// Never cache (forces the exact pre-cache code path).
    Off,
    /// Use this specific cache (share one across engines/sweeps to keep
    /// Σ warm between them).
    Shared(Arc<SigmaCache>),
}

impl CachePolicy {
    /// The cache this policy denotes, `inherited` standing in for
    /// [`CachePolicy::Inherit`].
    pub(crate) fn resolve(&self, inherited: Option<&Arc<SigmaCache>>) -> Option<Arc<SigmaCache>> {
        match self {
            CachePolicy::Inherit => inherited.cloned(),
            CachePolicy::Off => None,
            CachePolicy::Shared(c) => Some(c.clone()),
        }
    }
}

/// A cache bound to one momentum-resolved device: the two lead hashes are
/// computed once and reused for every energy point solved against `dk`.
#[derive(Clone)]
pub(crate) struct CacheHandle {
    cache: Arc<SigmaCache>,
    hash_l: u64,
    hash_r: u64,
}

impl CacheHandle {
    pub(crate) fn for_dk(cache: Arc<SigmaCache>, dk: &DeviceK) -> CacheHandle {
        CacheHandle { hash_l: dk.lead_l.content_hash(), hash_r: dk.lead_r.content_hash(), cache }
    }
}

/// The one chokepoint every transport path funnels its self-energy builds
/// through — both contacts of a point at once, so leads that are the same
/// bytes pay for one mode solve ([`qtx_obc::self_energy_pair`]). Consults
/// `handle` when caching is on, falls back to the plain pair when it is
/// not — and **always** bypasses the cache while a fault-injection
/// campaign is armed, so fault batteries observe exactly the uncached
/// sequence of chokepoint draws.
///
/// A hit, a miss and an uncached solve hand back the same exact Σ.
pub(crate) fn self_energy_pair(
    handle: Option<&CacheHandle>,
    dk: &DeviceK,
    e: f64,
    eta: f64,
    method: ObcMethod,
) -> TransportResult<(ObcResult, ObcResult)> {
    match handle {
        Some(h) if !qtx_linalg::fault::armed() => {
            h.cache.self_energy_pair(&dk.lead_l, h.hash_l, &dk.lead_r, h.hash_r, e, eta, method)
        }
        _ => qtx_obc::self_energy_pair(&dk.lead_l, &dk.lead_r, e, Eta(eta), method),
    }
    .map_err(|(side, source)| TransportError::Obc { side, source })
}

/// [`self_energy_pair`] at the exact energy for a caller without the
/// escalation ladder (the direct and transmission-only points, one-shot
/// [`crate::caroli_transmission`]). FEAST that leaves a propagating mode
/// unresolved ([`ObcError::StalledModes`]) fails the ladder's first rung so
/// the broadened one answers; with no ladder to climb, the exact dense
/// shift-invert modes at the same energy answer instead.
pub(crate) fn self_energy_pair_exact(
    handle: Option<&CacheHandle>,
    dk: &DeviceK,
    e: f64,
    method: ObcMethod,
) -> TransportResult<(ObcResult, ObcResult)> {
    match self_energy_pair(handle, dk, e, 0.0, method) {
        Err(TransportError::Obc { source, .. }) if source.is_stalled_modes() => {
            self_energy_pair(handle, dk, e, 0.0, ObcMethod::ShiftInvert)
        }
        solved => solved,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtx_obc::FeastConfig;

    fn chain() -> LeadBlocks {
        LeadBlocks::chain_1d(0.0, -1.0)
    }

    #[test]
    fn hit_replays_the_stored_solve_bit_identically() {
        let cache = SigmaCache::new(CacheConfig::default());
        let lead = chain();
        let h = lead.content_hash();
        let fresh = qtx_obc::self_energy(&lead, 0.5, Eta::ZERO, Side::Left, ObcMethod::ShiftInvert)
            .unwrap();
        let miss =
            cache.self_energy(&lead, h, 0.5, 0.0, Side::Left, ObcMethod::ShiftInvert).unwrap();
        let hit =
            cache.self_energy(&lead, h, 0.5, 0.0, Side::Left, ObcMethod::ShiftInvert).unwrap();
        assert_eq!(miss.sigma.max_diff(&fresh.sigma), 0.0);
        assert_eq!(hit.sigma.max_diff(&fresh.sigma), 0.0);
        assert_eq!(hit.injection.max_diff(&fresh.injection), 0.0);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!(s.bytes > 0);
    }

    #[test]
    fn key_separates_energy_eta_side_and_method() {
        let cache = SigmaCache::new(CacheConfig::default());
        let lead = chain();
        let h = lead.content_hash();
        for (e, eta, side, m) in [
            (0.5, 0.0, Side::Left, ObcMethod::ShiftInvert),
            (0.6, 0.0, Side::Left, ObcMethod::ShiftInvert),
            (0.5, 1e-6, Side::Left, ObcMethod::ShiftInvert),
            (0.5, 0.0, Side::Right, ObcMethod::ShiftInvert),
            (0.5, 0.0, Side::Left, ObcMethod::Feast(FeastConfig::default())),
        ] {
            cache.self_energy(&lead, h, e, eta, side, m).unwrap();
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 5, 5));
        // A knob change re-fingerprints even within one method.
        let wide = FeastConfig { np: FeastConfig::default().np * 2, ..FeastConfig::default() };
        cache.self_energy(&lead, h, 0.5, 0.0, Side::Left, ObcMethod::Feast(wide)).unwrap();
        assert_eq!(cache.stats().entries, 6);
    }

    #[test]
    fn tiny_budget_evicts_lru_without_corruption() {
        let one_frame = {
            let r =
                qtx_obc::self_energy(&chain(), 0.5, Eta::ZERO, Side::Left, ObcMethod::ShiftInvert)
                    .unwrap();
            qtx_obc::encode_obc_result(&r).len()
        };
        // Room for roughly two frames: the third insert must evict.
        let cache = SigmaCache::new(CacheConfig { max_bytes: 2 * one_frame + one_frame / 2 });
        let lead = chain();
        let h = lead.content_hash();
        let energies = [0.4, 0.5, 0.6, 0.7];
        for &e in &energies {
            cache.self_energy(&lead, h, e, 0.0, Side::Left, ObcMethod::ShiftInvert).unwrap();
        }
        let s = cache.stats();
        assert!(s.evictions > 0, "four frames through a two-frame budget must evict");
        assert!(s.bytes <= cache.config().max_bytes);
        // Every energy — evicted and resident alike — still returns the
        // exact solve.
        for &e in &energies {
            let got =
                cache.self_energy(&lead, h, e, 0.0, Side::Left, ObcMethod::ShiftInvert).unwrap();
            let fresh =
                qtx_obc::self_energy(&lead, e, Eta::ZERO, Side::Left, ObcMethod::ShiftInvert)
                    .unwrap();
            assert_eq!(got.sigma.max_diff(&fresh.sigma), 0.0, "E = {e}");
        }
    }
}
