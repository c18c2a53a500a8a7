//! In-memory spans around calls into the program's layers.
//!
//! A span has a layer name, a start, an end, the span that caused it
//! and, for serve requests, the request id its spans share. Spans stay
//! in memory while the workload runs and are written out once at the
//! end ([`Tracer::to_json`]), so recording one costs two clock reads
//! and a vector push.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    /// Index of this span in [`Tracer::spans`].
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Layer name (`partition`, `plan`, `kernel`, ...).
    pub layer: &'static str,
    /// The public function the span wraps.
    pub call: &'static str,
    /// Request id shared by the spans of one serve request.
    pub req: Option<u64>,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Records nested spans; [`Tracer::span`] keeps the parent stack.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span of `layer`/`call`, child of the innermost
    /// open span. `f` gets the tracer back so it can open child spans.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        call: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let id = self.spans.len();
        let parent = self.stack.last().copied();
        let start = self.ns(Instant::now());
        self.spans.push(Span { id, parent, layer, call, req: None, start, end: start });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end = self.ns(Instant::now());
        out
    }

    /// Records a span whose bounds were taken elsewhere (another
    /// thread), as a child of the innermost open span.
    pub fn record(
        &mut self,
        layer: &'static str,
        call: &'static str,
        req: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let id = self.spans.len();
        let parent = self.stack.last().copied();
        let (start, end) = (self.ns(start), self.ns(end));
        self.spans.push(Span { id, parent, layer, call, req, start, end });
        id
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span with this `call`.
    pub fn durations(&self, call: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.call == call).map(|s| s.duration() as f64 * 1e-9).collect()
    }

    /// Self time per layer in seconds: each span's duration minus the
    /// part of it its children cover, summed over the layer's spans.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        let mut out = BTreeMap::new();
        for s in &self.spans {
            let own = self_time((s.start, s.end), &mut children[s.id]);
            *out.entry(s.layer).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// All spans as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let req = s.req.map_or("null".to_string(), |r| r.to_string());
            let _ = write!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"layer\":\"{}\",\"call\":\"{}\",\"req\":{req},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.layer, s.call, s.start, s.end
            );
        }
        out.push_str("]}");
        out
    }
}

/// Nanoseconds of `span` not covered by the union of `children`
/// (children are clipped to the span; overlapping children count once).
/// Sorts `children` in place.
pub fn self_time(span: (u64, u64), children: &mut [(u64, u64)]) -> u64 {
    let (lo, hi) = span;
    children.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = lo;
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    hi.saturating_sub(lo).saturating_sub(covered)
}
