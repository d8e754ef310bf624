//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a layer name, the function it wraps, start and end
//! (nanoseconds since the tracer started), its parent span and the
//! request it belongs to. Spans stay in memory and are written out when
//! the run ends. A layer's self time is its spans' durations minus the
//! time their child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer (`protocol`, `journal`, `engine`, `resolver`, `timeidx`,
    /// `rounding`, `validate`).
    pub layer: &'static str,
    /// The public function the span wraps.
    pub op: &'static str,
    /// Start, ns since the tracer started.
    pub start: u64,
    /// End, ns since the tracer started.
    pub end: u64,
    /// Enclosing span.
    pub parent: Option<usize>,
    /// Request the span serves.
    pub request: u64,
}

/// Span recorder for one single-threaded traced pass.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Starts a new request id for the spans that follow.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    /// Opens a span as a child of the innermost open one and returns
    /// its id.
    pub fn begin(&mut self, layer: &'static str, op: &'static str) -> usize {
        let start = self.now();
        self.spans.push(Span {
            layer,
            op,
            start,
            end: start,
            parent: self.open.last().copied(),
            request: self.request,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// If no span is open (a bug in the benchmark).
    pub fn end(&mut self) {
        let id = self.open.pop().expect("end() without begin()");
        self.spans[id].end = self.now();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, layer: &'static str, op: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(layer, op);
        let out = f();
        self.end();
        out
    }

    /// Records a child of the closed span `parent`, `ms` long, for work
    /// the program times itself inside a call the benchmark cannot split
    /// (the resolver epochs inside `TenantEngine::admit`). It is placed
    /// at the start of its parent and clamped to the parent's length.
    pub fn inner(&mut self, parent: usize, layer: &'static str, op: &'static str, ms: f64) {
        let p = &self.spans[parent];
        let len = ((ms * 1e6).max(0.0) as u64).min(p.end - p.start);
        let span = Span {
            layer,
            op,
            start: p.start,
            end: p.start + len,
            parent: Some(parent),
            request: p.request,
        };
        self.spans.push(span);
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time in ns per `(layer, op)`: duration minus the time the
    /// span's children cover.
    pub fn self_ns(&self) -> BTreeMap<(&'static str, &'static str), u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            *out.entry((s.layer, s.op)).or_insert(0) += (s.end - s.start).saturating_sub(c);
        }
        out
    }

    /// Total self time of one layer, in ns.
    pub fn layer_ns(&self, layer: &str) -> u64 {
        self.self_ns()
            .iter()
            .filter(|((l, _), _)| *l == layer)
            .map(|(_, v)| v)
            .sum()
    }

    /// Summed inclusive duration of the spans of `(layer, op)`, in ns,
    /// and how many there were.
    pub fn inclusive(&self, layer: &str, op: &str) -> (u64, usize) {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.op == op)
            .fold((0, 0), |(t, n), s| (t + (s.end - s.start), n + 1))
    }

    /// Spans as tab-separated lines: id, layer, op, start, end, parent,
    /// request.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\tlayer\top\tstart_ns\tend_ns\tparent\trequest\n");
        for (k, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{k}\t{}\t{}\t{}\t{}\t{parent}\t{}",
                s.layer, s.op, s.start, s.end, s.request
            );
        }
        out
    }
}

/// Runs `f` inside a span when tracing, and plainly otherwise.
pub fn maybe<T>(
    tracer: &mut Option<&mut Tracer>,
    layer: &'static str,
    op: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    maybe_id(tracer, layer, op, f).0
}

/// [`maybe`], also returning the span's id when tracing.
pub fn maybe_id<T>(
    tracer: &mut Option<&mut Tracer>,
    layer: &'static str,
    op: &'static str,
    f: impl FnOnce() -> T,
) -> (T, Option<usize>) {
    match tracer {
        Some(t) => {
            let id = t.begin(layer, op);
            let out = f();
            t.end();
            (out, Some(id))
        }
        None => (f(), None),
    }
}
