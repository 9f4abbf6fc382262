//! In-memory spans around the benchmark's calls into each layer.
//!
//! The traced run wraps every call into a layer's public function in a
//! span; spans stay in memory and are written when the run ends, as Chrome
//! trace-event JSON (load it in `chrome://tracing` or Perfetto) and as a
//! per-layer self-time table. A disabled tracer records nothing, which is
//! how the end-to-end run goes through the same code with tracing off.

use crate::json::Json;
use qtx::linalg::{alloc_count, flops_total, peak_bytes, reset_peak_bytes};
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    /// The span that was open when this one began.
    pub parent: Option<u32>,
    /// `(workload, point index)`: spans of one replayed point share it.
    pub request: (String, u32),
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Process-wide operations counted inside the span (`flops_total`).
    pub flops: u64,
    /// High-water mark of the calling thread's live matrix bytes above
    /// their level at the start of the span (`peak_bytes`).
    pub bytes: u64,
    /// Fresh matrix allocations on the calling thread (`alloc_count`).
    pub allocs: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-6
    }
}

/// What one call into a layer cost (see [`Tracer::time`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cost {
    pub ms: f64,
    pub flops: u64,
    pub allocs: u64,
    pub bytes: u64,
}

/// Handle of an open span; pass it back to [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

struct Pending {
    index: usize,
    flops0: u64,
    allocs0: u64,
    bytes_floor: usize,
    /// Highest absolute byte level seen while this span was open; child
    /// spans reset the library's high-water mark, so each level keeps its
    /// own and hands it up on `end`.
    bytes_top: usize,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    request: (String, u32),
    spans: Vec<Span>,
    open: Vec<Pending>,
}

impl Tracer {
    pub fn new(enabled: bool, workload: &str) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            request: (workload.to_string(), 0),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Spans begun from here on belong to replayed point `point`.
    pub fn set_point(&mut self, point: u32) {
        self.request.1 = point;
    }

    pub fn begin(&mut self, layer: &'static str, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        if let Some(parent) = self.open.last_mut() {
            parent.bytes_top = parent.bytes_top.max(peak_bytes());
        }
        reset_peak_bytes();
        let floor = peak_bytes();
        let index = self.spans.len();
        self.spans.push(Span {
            id: index as u32,
            parent: self.open.last().map(|p| p.index as u32),
            request: self.request.clone(),
            layer,
            name,
            start_ns: 0,
            end_ns: 0,
            flops: 0,
            bytes: 0,
            allocs: 0,
        });
        self.open.push(Pending {
            index,
            flops0: flops_total(),
            allocs0: alloc_count(),
            bytes_floor: floor,
            bytes_top: floor,
        });
        // Read the clock last so the bookkeeping above is outside the span.
        self.spans[index].start_ns = self.epoch.elapsed().as_nanos() as u64;
        Open(Some(index))
    }

    /// Closes `open` and returns the finished span (`None` when disabled).
    pub fn end(&mut self, open: Open) -> Option<&Span> {
        let index = open.0?;
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let pending = self.open.pop().expect("a span is open");
        assert_eq!(pending.index, index, "spans must close in the order they nest");
        let top = pending.bytes_top.max(peak_bytes());
        if let Some(parent) = self.open.last_mut() {
            parent.bytes_top = parent.bytes_top.max(top);
        }
        let span = &mut self.spans[index];
        span.end_ns = end_ns;
        span.flops = flops_total() - pending.flops0;
        span.allocs = alloc_count() - pending.allocs0;
        span.bytes = (top - pending.bytes_floor) as u64;
        Some(&self.spans[index])
    }

    /// Runs `f` inside a span and returns its value with what the call
    /// cost. Time and counts are taken whether or not tracing is on;
    /// `bytes` needs the library's high-water mark reset and is 0 when off.
    pub fn time<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, Cost) {
        let open = self.begin(layer, name);
        let (flops0, allocs0) = (flops_total(), alloc_count());
        let t0 = Instant::now();
        let r = f();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let flops = flops_total() - flops0;
        let allocs = alloc_count() - allocs0;
        let bytes = self.end(open).map_or(0, |s| s.bytes);
        (r, Cost { ms, flops, allocs, bytes })
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome trace-event JSON: one complete (`"X"`) event per span, the
    /// layer as the category, one row (`tid`) per replayed point.
    pub fn chrome_trace(&self) -> Json {
        let events = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::Str(format!("{}.{}", s.layer, s.name))),
                    ("cat", Json::Str(s.layer.to_string())),
                    ("ph", Json::Str("X".into())),
                    ("ts", Json::Num(s.start_ns as f64 * 1e-3)),
                    ("dur", Json::Num((s.end_ns - s.start_ns) as f64 * 1e-3)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(f64::from(s.request.1))),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::Num(f64::from(s.id))),
                            ("parent", s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p)))),
                            ("workload", Json::Str(s.request.0.clone())),
                            ("point", Json::Num(f64::from(s.request.1))),
                            ("flops", Json::Num(s.flops as f64)),
                            ("bytes", Json::Num(s.bytes as f64)),
                            ("allocs", Json::Num(s.allocs as f64)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([("traceEvents", Json::Arr(events)), ("displayTimeUnit", Json::Str("ms".into()))])
    }
}

/// Per-layer totals of [`self_times`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotal {
    pub spans: usize,
    pub total_ms: f64,
    pub self_ms: f64,
    pub flops: u64,
}

/// A span's self time is its duration minus the part of that interval its
/// child spans cover (children of one parent never overlap here: the
/// replay is single-threaded). Summed per layer.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTotal> {
    let mut child_ns = vec![0u64; spans.len()];
    let mut child_flops = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end_ns - s.start_ns;
            child_flops[p as usize] += s.flops;
        }
    }
    let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let t = out.entry(s.layer).or_default();
        t.spans += 1;
        t.total_ms += dur as f64 * 1e-6;
        t.self_ms += dur.saturating_sub(child_ns[s.id as usize]) as f64 * 1e-6;
        t.flops += s.flops.saturating_sub(child_flops[s.id as usize]);
    }
    out
}

/// The self-time table as text, widest layer first.
pub fn self_time_table(spans: &[Span]) -> String {
    let totals = self_times(spans);
    let mut rows: Vec<_> = totals.into_iter().collect();
    rows.sort_by(|a, b| b.1.self_ms.total_cmp(&a.1.self_ms));
    let all: f64 = rows.iter().map(|r| r.1.self_ms).sum();
    let mut out = format!(
        "{:<12} {:>6} {:>12} {:>12} {:>7} {:>14}\n",
        "layer", "spans", "total_ms", "self_ms", "share", "self_flops"
    );
    for (layer, t) in rows {
        out += &format!(
            "{:<12} {:>6} {:>12.3} {:>12.3} {:>6.1}% {:>14}\n",
            layer,
            t.spans,
            t.total_ms,
            t.self_ms,
            100.0 * t.self_ms / all.max(f64::MIN_POSITIVE),
            t.flops
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request: ("w".into(), 0),
            layer,
            name: "n",
            start_ns: start,
            end_ns: end,
            flops: 10 * (end - start),
            bytes: 0,
            allocs: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        // point [0, 100ms) ⊃ obc [10, 50) ⊃ linalg [20, 30); solver [50, 90).
        let ms = 1_000_000;
        let spans = vec![
            span(0, None, "bench", 0, 100 * ms),
            span(1, Some(0), "obc", 10 * ms, 50 * ms),
            span(2, Some(1), "linalg", 20 * ms, 30 * ms),
            span(3, Some(0), "solver", 50 * ms, 90 * ms),
        ];
        let t = self_times(&spans);
        assert!((t["bench"].self_ms - 20.0).abs() < 1e-9);
        assert!((t["obc"].self_ms - 30.0).abs() < 1e-9);
        assert!((t["obc"].total_ms - 40.0).abs() < 1e-9);
        assert!((t["linalg"].self_ms - 10.0).abs() < 1e-9);
        assert!((t["solver"].self_ms - 40.0).abs() < 1e-9);
        let sum: f64 = t.values().map(|l| l.self_ms).sum();
        assert!((sum - 100.0).abs() < 1e-9, "self times partition the root span");
    }

    #[test]
    fn tracer_nests_and_disabled_records_nothing() {
        let mut tr = Tracer::new(true, "w");
        tr.set_point(3);
        let outer = tr.begin("bench", "point");
        let ((), cost) = tr.time("obc", "self_energy", || {
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        tr.end(outer);
        assert!(cost.ms >= 2.0);
        let s = tr.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].request, ("w".to_string(), 3));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let chrome = tr.chrome_trace();
        assert_eq!(chrome.get("traceEvents").unwrap().as_arr().unwrap().len(), 2);

        let mut off = Tracer::new(false, "w");
        let (v, _) = off.time("obc", "self_energy", || 7);
        assert_eq!(v, 7);
        assert!(off.spans().is_empty());
    }
}
