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
//! Three layers:
//!
//! * **Exact store** — serialized [`ObcResult`] frames under an LRU
//!   byte budget ([`CacheConfig::max_bytes`]). Errors and fault-injected
//!   solves are never cached.
//! * **Interpolation** (opt-in, [`CacheConfig::interp_max_de`] > 0) —
//!   linear interpolation of Σ between two cached *anchor* energies of
//!   the same (lead, η, side, method) family. An interval becomes usable
//!   only after a **validation solve**: the first fresh solve landing
//!   strictly inside it doubles as ground truth, the observed error is
//!   inflated to a whole-interval bound (parabolic error model of linear
//!   interpolation, clamped to [1, 64]×) and recorded; intervals whose
//!   bound exceeds [`CacheConfig::interp_tol`] stay unusable — e.g. a
//!   grid straddling a resonance or band edge. Interpolation is never
//!   used on the sweep path (records must stay bit-identical); the
//!   [`crate::engine::TransportEngine`] exposes it behind
//!   [`crate::engine::PointPolicy`].
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
use qtx_linalg::ZMat;
use qtx_obc::{
    decode_obc_result_parts, encode_obc_result_compressed, Eta, LeadBlocks, ObcError,
    ObcFrameParts, ObcMethod, ObcOutcome, ObcResult, Side,
};
use qtx_sparse::CompressedSigma;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Construction knobs of a [`SigmaCache`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfig {
    /// Byte budget of the stored frames; the least-recently-used entry is
    /// evicted when an insert would exceed it.
    pub max_bytes: usize,
    /// Maximum anchor spacing (eV) an interpolation interval may span;
    /// `0.0` (the default) disables the interpolation layer entirely.
    pub interp_max_de: f64,
    /// Largest recorded error bound an interval may carry and still be
    /// served by [`SigmaCache::try_interpolate`].
    pub interp_tol: f64,
    /// Relative tolerance for storing Σ as truncated `U·Vᴴ` factors
    /// (`QTXOBC02` frames). `0.0` (the default) keeps every frame exact
    /// and bit-identical; a positive value shrinks entries with the
    /// numerical rank of the lead at the recorded error bound.
    pub sigma_compress_tol: f64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            max_bytes: 256 << 20,
            interp_max_de: 0.0,
            interp_tol: 1e-6,
            sigma_compress_tol: 0.0,
        }
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
    /// Queries served by the interpolation layer.
    pub interp_hits: u64,
    /// Interval validation solves performed.
    pub validations: u64,
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

/// Interpolation family: everything of the key except the energy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct FamKey {
    lead: u64,
    eta: u64,
    side: u8,
    fp: u64,
}

/// Full content address of one stored self-energy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    fam: FamKey,
    e: u64,
}

impl Key {
    fn new(lead_hash: u64, e: f64, eta: f64, side: Side, method: ObcMethod) -> Key {
        Key {
            fam: FamKey {
                lead: lead_hash,
                eta: eta.to_bits(),
                side: side_tag(side),
                fp: method_fingerprint(method),
            },
            e: e.to_bits(),
        }
    }
}

struct Entry {
    frame: Vec<u8>,
    stamp: u64,
    /// Anchors define interpolation intervals; validation solves are
    /// stored non-anchor so existing brackets stay stable.
    anchor: bool,
}

/// Validation state of one anchor interval `(e0, e1)`.
#[derive(Debug, Clone, Copy)]
struct Interval {
    bound: f64,
    usable: bool,
}

#[derive(Default)]
struct Inner {
    map: HashMap<Key, Entry>,
    /// Sorted anchor energies per family.
    families: HashMap<FamKey, Vec<f64>>,
    /// `(family, e0 bits, e1 bits)` → validation state. Entries are pure
    /// functions of content-addressed inputs, so a state recorded once
    /// stays valid even if its anchors are later evicted and re-solved.
    intervals: HashMap<(FamKey, u64, u64), Interval>,
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
    interp_hits: AtomicU64,
    validations: AtomicU64,
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
            interp_hits: AtomicU64::new(0),
            validations: AtomicU64::new(0),
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
            interp_hits: self.interp_hits.load(Ordering::Relaxed),
            validations: self.validations.load(Ordering::Relaxed),
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
            return Ok(found.into_result());
        }
        let fresh = qtx_obc::self_energy(lead, e, Eta(eta), side, method)?;
        self.insert(key, e, &fresh);
        Ok(fresh)
    }

    /// Like [`SigmaCache::self_energy`] but keeps Σ in its stored
    /// representation: a compressed (`QTXOBC02`) hit returns the factors
    /// without expanding them, so a boundary-block solver that consumes
    /// `U·Vᴴ` directly never pays for the dense block. The returned
    /// parts always match what a subsequent exact hit would serve.
    pub fn self_energy_parts(
        &self,
        lead: &LeadBlocks,
        lead_hash: u64,
        e: f64,
        eta: f64,
        side: Side,
        method: ObcMethod,
    ) -> ObcOutcome<ObcFrameParts> {
        let key = Key::new(lead_hash, e, eta, side, method);
        match self.lookup_counted(&key) {
            Some(found) => Ok(found),
            None => Ok(self.store(key, e, qtx_obc::self_energy(lead, e, Eta(eta), side, method)?)),
        }
    }

    /// Both contacts of one energy point, `(left, right)`: each key is
    /// looked up, what is missing is solved and stored, and every hit,
    /// miss, key and stored frame is what two
    /// [`SigmaCache::self_energy_parts`] calls (left, then right) produce.
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
    ) -> Result<(ObcFrameParts, ObcFrameParts), (Side, ObcError)> {
        let key_l = Key::new(hash_l, e, eta, Side::Left, method);
        let key_r = Key::new(hash_r, e, eta, Side::Right, method);
        let (found_l, found_r) = (self.lookup_counted(&key_l), self.lookup_counted(&key_r));
        if found_l.is_none() && found_r.is_none() && hash_l == hash_r {
            let (obc_l, obc_r) = qtx_obc::self_energy_pair(lead_l, lead_r, e, Eta(eta), method)?;
            return Ok((self.store(key_l, e, obc_l), self.store(key_r, e, obc_r)));
        }
        let one = |found, key, lead, side| match found {
            Some(parts) => Ok(parts),
            None => qtx_obc::self_energy(lead, e, Eta(eta), side, method)
                .map(|fresh| self.store(key, e, fresh))
                .map_err(|source| (side, source)),
        };
        Ok((one(found_l, key_l, lead_l, Side::Left)?, one(found_r, key_r, lead_r, Side::Right)?))
    }

    /// Exact lookup without a solve fallback (the engine's interpolating
    /// pre-pass uses this to prefer stored frames over interpolants).
    pub fn lookup_exact(
        &self,
        lead_hash: u64,
        e: f64,
        eta: f64,
        side: Side,
        method: ObcMethod,
    ) -> Option<ObcResult> {
        let key = Key::new(lead_hash, e, eta, side, method);
        let found = self.lookup(&key)?;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(found.into_result())
    }

    /// [`SigmaCache::lookup`] that books the outcome as a hit or a miss.
    fn lookup_counted(&self, key: &Key) -> Option<ObcFrameParts> {
        let found = self.lookup(key);
        let counter = if found.is_some() { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Stores a fresh solve and hands it back as the parts a later hit on
    /// `key` would serve: the same deterministic compression the frame
    /// encoder applied (none — Σ moves through untouched — at the default
    /// tolerance 0).
    fn store(&self, key: Key, e: f64, fresh: ObcResult) -> ObcFrameParts {
        self.insert(key, e, &fresh);
        fresh_parts(fresh, self.cfg.sigma_compress_tol)
    }

    fn lookup(&self, key: &Key) -> Option<ObcFrameParts> {
        let mut inner = self.inner.lock().expect("sigma cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner.map.get_mut(key)?;
        entry.stamp = tick;
        match decode_obc_result_parts(&entry.frame) {
            Ok(r) => Some(r),
            Err(_) => {
                // A frame we encoded ourselves cannot fail to decode; if
                // it somehow does (memory corruption), drop the entry and
                // fall back to a fresh solve rather than panicking.
                debug_assert!(false, "sigma cache frame failed to decode");
                let entry = inner.map.remove(key).expect("entry present");
                inner.bytes -= entry.frame.len();
                if entry.anchor {
                    Self::drop_anchor(&mut inner, key);
                }
                None
            }
        }
    }

    fn drop_anchor(inner: &mut Inner, key: &Key) {
        if let Some(fam) = inner.families.get_mut(&key.fam) {
            let e = f64::from_bits(key.e);
            if let Some(pos) = fam.iter().position(|a| a.to_bits() == e.to_bits()) {
                fam.remove(pos);
            }
            if fam.is_empty() {
                inner.families.remove(&key.fam);
            }
        }
    }

    /// Stores a fresh solve. When the new energy lands strictly inside an
    /// existing unvalidated anchor interval of its family, the solve
    /// doubles as that interval's validation (and is stored *non-anchor*
    /// so the bracket stays in place); otherwise it becomes a new anchor.
    fn insert(&self, key: Key, e: f64, fresh: &ObcResult) {
        let frame = encode_obc_result_compressed(fresh, self.cfg.sigma_compress_tol);
        let mut inner = self.inner.lock().expect("sigma cache lock");
        if inner.map.contains_key(&key) {
            return; // concurrent identical solve already landed
        }
        let mut anchor = true;
        if self.cfg.interp_max_de > 0.0 {
            if let Some((e0, e1)) = bracket(inner.families.get(&key.fam), e) {
                if e1 - e0 <= self.cfg.interp_max_de {
                    let ikey = (key.fam, e0.to_bits(), e1.to_bits());
                    anchor = false; // inside a bracket: never re-anchor
                    if !inner.intervals.contains_key(&ikey) {
                        if let Some(iv) = self.validate(&inner, key.fam, e0, e1, e, fresh) {
                            inner.intervals.insert(ikey, iv);
                            self.validations.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
        }
        if anchor {
            let fam = inner.families.entry(key.fam).or_default();
            let pos = fam.partition_point(|&a| a < e);
            if fam.get(pos).is_none_or(|&a| a.to_bits() != e.to_bits()) {
                fam.insert(pos, e);
            }
        }
        inner.tick += 1;
        let stamp = inner.tick;
        inner.bytes += frame.len();
        inner.map.insert(key, Entry { frame, stamp, anchor });
        // LRU eviction down to the byte budget. Evicting an anchor removes
        // it from its family bracket list; recorded interval states stay
        // (they remain valid — the inputs are content-addressed).
        while inner.bytes > self.cfg.max_bytes && !inner.map.is_empty() {
            let victim =
                *inner.map.iter().min_by_key(|(_, v)| v.stamp).map(|(k, _)| k).expect("non-empty");
            let entry = inner.map.remove(&victim).expect("victim present");
            inner.bytes -= entry.frame.len();
            if entry.anchor {
                Self::drop_anchor(&mut inner, &victim);
            }
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// First-use validation of interval `(e0, e1)`: compares the linear
    /// interpolant at `e` against the fresh ground-truth Σ and inflates
    /// the observed error to a whole-interval bound with the parabolic
    /// error profile of linear interpolation —
    /// `err(x) ≈ c·(x−e0)·(e1−x)` peaks at mid-interval, so
    /// `bound = err(e) · h²/(4·(e−e0)·(e1−e))`, clamped to `[1, 64]×`
    /// (the cap guards against a validation point so close to an anchor
    /// that the inflation explodes on noise).
    fn validate(
        &self,
        inner: &Inner,
        fam: FamKey,
        e0: f64,
        e1: f64,
        e: f64,
        fresh: &ObcResult,
    ) -> Option<Interval> {
        let s0 = self.peek_sigma(inner, fam, e0)?;
        let s1 = self.peek_sigma(inner, fam, e1)?;
        let interp = lerp_sigma(&s0, &s1, (e - e0) / (e1 - e0))?;
        let observed = interp.max_diff(&fresh.sigma);
        let h = e1 - e0;
        let inflate = (h * h / (4.0 * (e - e0) * (e1 - e))).clamp(1.0, 64.0);
        let bound = observed * inflate;
        Some(Interval { bound, usable: bound.is_finite() && bound <= self.cfg.interp_tol })
    }

    fn peek_sigma(&self, inner: &Inner, fam: FamKey, e: f64) -> Option<ZMat> {
        let entry = inner.map.get(&Key { fam, e: e.to_bits() })?;
        decode_obc_result_parts(&entry.frame).ok().map(|p| p.into_result().sigma)
    }

    /// Pure interpolation lookup: serves Σ only from a **validated,
    /// usable** interval whose both anchors are still stored, together
    /// with the interval's recorded error bound. Never solves, never
    /// validates — a query that cannot be served returns `None` and the
    /// caller falls back to [`SigmaCache::self_energy`].
    pub fn try_interpolate(
        &self,
        lead_hash: u64,
        e: f64,
        eta: f64,
        side: Side,
        method: ObcMethod,
    ) -> Option<(ZMat, f64)> {
        let fam = Key::new(lead_hash, e, eta, side, method).fam;
        let inner = self.inner.lock().expect("sigma cache lock");
        let (e0, e1) = bracket(inner.families.get(&fam), e)?;
        if e1 - e0 > self.cfg.interp_max_de {
            return None;
        }
        let iv = *inner.intervals.get(&(fam, e0.to_bits(), e1.to_bits()))?;
        if !iv.usable {
            return None;
        }
        let s0 = self.peek_sigma(&inner, fam, e0)?;
        let s1 = self.peek_sigma(&inner, fam, e1)?;
        let sigma = lerp_sigma(&s0, &s1, (e - e0) / (e1 - e0))?;
        self.interp_hits.fetch_add(1, Ordering::Relaxed);
        Some((sigma, iv.bound))
    }
}

/// Anchors strictly bracketing `e` (`e0 < e < e1`), if any.
fn bracket(anchors: Option<&Vec<f64>>, e: f64) -> Option<(f64, f64)> {
    let anchors = anchors?;
    let pos = anchors.partition_point(|&a| a < e);
    if pos == 0 || pos >= anchors.len() {
        return None;
    }
    let (e0, e1) = (anchors[pos - 1], anchors[pos]);
    if e0 < e && e < e1 {
        Some((e0, e1))
    } else {
        None // exact anchor energy: not an interpolation query
    }
}

fn lerp_sigma(s0: &ZMat, s1: &ZMat, t: f64) -> Option<ZMat> {
    if s0.rows() != s1.rows() || s0.cols() != s1.cols() {
        return None;
    }
    let data = s0
        .as_slice()
        .iter()
        .zip(s1.as_slice())
        .map(|(a, b)| *a * (1.0 - t) + *b * t)
        .collect::<Vec<_>>();
    Some(ZMat::from_recycled_buffer(s0.rows(), s0.cols(), data))
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

    pub(crate) fn cache(&self) -> &Arc<SigmaCache> {
        &self.cache
    }

    pub(crate) fn hash_of(&self, side: Side) -> u64 {
        match side {
            Side::Left => self.hash_l,
            Side::Right => self.hash_r,
        }
    }
}

/// A fresh solve as frame parts, Σ compressed at `tol` exactly as
/// [`encode_obc_result_compressed`] would store it (`tol ≤ 0`: the dense
/// block moves through untouched).
fn fresh_parts(fresh: ObcResult, tol: f64) -> ObcFrameParts {
    let parts = ObcFrameParts {
        sigma: CompressedSigma::Dense(fresh.sigma),
        injection: fresh.injection,
        inc_modes: fresh.inc_modes,
        out_modes: fresh.out_modes,
    };
    compressed_at(parts, tol)
}

/// `parts` with a dense Σ compressed at `tol` (`tol ≤ 0` and a Σ already
/// in factors: untouched).
fn compressed_at(parts: ObcFrameParts, tol: f64) -> ObcFrameParts {
    match parts.sigma {
        CompressedSigma::Dense(ref dense) if tol > 0.0 => {
            ObcFrameParts { sigma: CompressedSigma::compress(dense, tol), ..parts }
        }
        _ => parts,
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
/// Σ comes back in frame *parts*: a Σ that compressed inside the cache
/// reaches a boundary-block solver still factored, and dense callers
/// expand with [`ObcFrameParts::into_result`] (a move when Σ is dense).
/// `tol` is the caller's own Σ-compression tolerance (0 keeps Σ dense and
/// exact): it is applied to whatever comes back dense, from a fresh solve
/// or from a cache that stores exact frames alike — a cache configured
/// with a tolerance of its own has already decided and wins.
pub(crate) fn self_energy_pair(
    handle: Option<&CacheHandle>,
    dk: &DeviceK,
    e: f64,
    eta: f64,
    method: ObcMethod,
    tol: f64,
) -> TransportResult<(ObcFrameParts, ObcFrameParts)> {
    let (cache_tol, pair) = match handle {
        Some(h) if !qtx_linalg::fault::armed() => (
            h.cache.cfg.sigma_compress_tol,
            h.cache.self_energy_pair(&dk.lead_l, h.hash_l, &dk.lead_r, h.hash_r, e, eta, method),
        ),
        _ => (
            0.0,
            qtx_obc::self_energy_pair(&dk.lead_l, &dk.lead_r, e, Eta(eta), method)
                .map(|(l, r)| (fresh_parts(l, 0.0), fresh_parts(r, 0.0))),
        ),
    };
    let (parts_l, parts_r) = pair.map_err(|(side, source)| TransportError::Obc { side, source })?;
    let tol = if cache_tol > 0.0 { 0.0 } else { tol };
    Ok((compressed_at(parts_l, tol), compressed_at(parts_r, tol)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtx_obc::FeastConfig;

    fn chain() -> LeadBlocks {
        LeadBlocks::chain_1d(0.0, -1.0)
    }

    /// An 8-orbital lead with a rank-2 inter-cell coupling, so
    /// `Σ = τ·g·τᴴ` is genuinely low-rank and the compressed frame path
    /// has something to shed (a 1×1 chain Σ can never compress).
    fn block_lead() -> LeadBlocks {
        use qtx_linalg::{c64, gemm, Op};
        let nf = 8;
        let mut h00 = ZMat::zeros(nf, nf);
        let r = ZMat::random(nf, nf, 11);
        for i in 0..nf {
            for j in 0..nf {
                h00[(i, j)] = 0.1 * (r[(i, j)] + r[(j, i)].conj());
            }
            h00[(i, i)] += c64(2.0 + i as f64 * 0.1, 0.0);
        }
        let a = ZMat::random(nf, 2, 13);
        let b = ZMat::random(nf, 2, 17);
        let mut h01 = ZMat::zeros(nf, nf);
        gemm(c64(0.2, 0.0), &a, Op::None, &b, Op::Adjoint, qtx_linalg::Complex64::ZERO, &mut h01);
        LeadBlocks::new(h00, h01, ZMat::identity(nf), ZMat::zeros(nf, nf))
    }

    #[test]
    fn compressed_entries_shrink_and_parts_stay_lazy() {
        let lead = block_lead();
        let h = lead.content_hash();
        let tol = 1e-8;
        let exact = SigmaCache::new(CacheConfig::default());
        let packed =
            SigmaCache::new(CacheConfig { sigma_compress_tol: tol, ..CacheConfig::default() });
        let args = (0.3, 1e-6, Side::Left, ObcMethod::Decimation);
        let truth =
            exact.self_energy(&lead, h, args.0, args.1, args.2, args.3).expect("exact solve");
        let miss =
            packed.self_energy_parts(&lead, h, args.0, args.1, args.2, args.3).expect("miss");
        let hit = packed.self_energy_parts(&lead, h, args.0, args.1, args.2, args.3).expect("hit");
        for (label, parts) in [("miss", &miss), ("hit", &hit)] {
            assert!(parts.sigma.is_compressed(), "{label} must carry factors");
            let err = (&parts.sigma.to_dense() - &truth.sigma).norm_fro();
            assert!(err <= parts.sigma.bound() + 1e-14, "{label}: err {err} beyond bound");
        }
        assert!(
            packed.stats().bytes < exact.stats().bytes,
            "compressed frames must occupy fewer bytes ({} vs {})",
            packed.stats().bytes,
            exact.stats().bytes
        );
        // The dense-facing API still works off the same compressed entry,
        // expanding within the recorded bound.
        let dense_hit =
            packed.self_energy(&lead, h, args.0, args.1, args.2, args.3).expect("dense hit");
        let err = (&dense_hit.sigma - &truth.sigma).norm_fro();
        assert!(err <= hit.sigma.bound() + 1e-14);
        // Default tolerance stays bit-identical through the parts API too.
        let exact_hit =
            exact.self_energy_parts(&lead, h, args.0, args.1, args.2, args.3).expect("hit");
        assert!(!exact_hit.sigma.is_compressed());
        assert_eq!(exact_hit.sigma.to_dense().max_diff(&truth.sigma), 0.0);
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
        let cache = SigmaCache::new(CacheConfig {
            max_bytes: 2 * one_frame + one_frame / 2,
            ..CacheConfig::default()
        });
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

    #[test]
    fn interpolation_validates_then_serves_within_bound() {
        let cache = SigmaCache::new(CacheConfig {
            interp_max_de: 0.05,
            interp_tol: 1e-3,
            ..CacheConfig::default()
        });
        let lead = chain();
        let h = lead.content_hash();
        let m = ObcMethod::ShiftInvert;
        let (e0, e1) = (0.50, 0.52);
        // Two anchors; nothing to interpolate from yet.
        cache.self_energy(&lead, h, e0, 0.0, Side::Left, m).unwrap();
        cache.self_energy(&lead, h, e1, 0.0, Side::Left, m).unwrap();
        assert!(cache.try_interpolate(h, 0.51, 0.0, Side::Left, m).is_none(), "unvalidated");
        // Mid-interval solve doubles as the validation.
        cache.self_energy(&lead, h, 0.51, 0.0, Side::Left, m).unwrap();
        assert_eq!(cache.stats().validations, 1);
        // Off-center query: served, and the recorded bound covers the
        // true error against a fresh solve.
        let eq = e0 + 0.25 * (e1 - e0);
        let (sigma, bound) = cache.try_interpolate(h, eq, 0.0, Side::Left, m).expect("usable");
        assert!(bound <= 1e-3, "smooth mid-band interval must validate usable");
        let fresh = qtx_obc::self_energy(&lead, eq, Eta::ZERO, Side::Left, m).unwrap();
        let err = sigma.max_diff(&fresh.sigma);
        assert!(err <= bound, "interpolant strayed outside its recorded bound: {err} > {bound}");
        assert_eq!(cache.stats().interp_hits, 1);
        // The validation solve was stored non-anchor: the bracket still
        // spans (e0, e1), not (e0, 0.51).
        let (sigma2, _) =
            cache.try_interpolate(h, 0.515, 0.0, Side::Left, m).expect("same interval");
        assert!(sigma2.max_diff(&fresh.sigma) < 1.0, "sane values");
    }

    #[test]
    fn band_edge_straddling_interval_is_rejected() {
        // The 1-D chain band edge sits at |E| = 2: Σ switches character
        // (propagating ↔ evanescent) across it, so a linear interpolant
        // across the edge is garbage and the validation must say so.
        let cache = SigmaCache::new(CacheConfig {
            interp_max_de: 0.5,
            interp_tol: 1e-3,
            ..CacheConfig::default()
        });
        let lead = chain();
        let h = lead.content_hash();
        let m = ObcMethod::ShiftInvert;
        cache.self_energy(&lead, h, 1.9, 0.0, Side::Left, m).unwrap();
        cache.self_energy(&lead, h, 2.1, 0.0, Side::Left, m).unwrap();
        cache.self_energy(&lead, h, 2.0, 0.0, Side::Left, m).unwrap(); // validation
        assert_eq!(cache.stats().validations, 1);
        assert!(
            cache.try_interpolate(h, 1.95, 0.0, Side::Left, m).is_none(),
            "edge-straddling interval must be unusable"
        );
    }
}
