//! In-memory spans around the calls the harness makes into each layer.
//!
//! A traced run records one [`Span`] per call (name, start, end, parent,
//! pass); nothing inside the program is instrumented. Spans are kept in a
//! vector and written out once, when the benchmark ends. A span's *layer*
//! is the part of its name before the first `.`; a layer's *self time* is
//! the sum over its spans of the span's duration minus the part of it its
//! child spans cover. An untraced run holds a disabled [`Tracer`], on which
//! every method returns at once and records nothing.

use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span in the tracer's vector; `NO_PARENT` marks a root.
pub type SpanId = u32;
pub const NO_PARENT: SpanId = u32::MAX;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    pub pass: u32,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    pass: u32,
    spans: Vec<Span>,
    /// Open spans, innermost last; the top is the parent of the next span.
    open: Vec<SpanId>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            pass: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    fn parent(&self) -> SpanId {
        self.open.last().copied().unwrap_or(NO_PARENT)
    }

    /// Opens a span that will contain the spans recorded until the matching
    /// [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let now = self.ns(Instant::now());
        let id = self.spans.len() as SpanId;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.parent(),
            pass: self.pass,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id as usize].end_ns = self.ns(Instant::now());
    }

    /// Records a closed leaf span from two instants the caller has already
    /// taken — the latency sample's own clock reads, so tracing a sample
    /// adds no clock read to it.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.parent(),
            pass: self.pass,
        };
        self.spans.push(span);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// The layer a span belongs to: its name up to the first `.`.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self time per layer in nanoseconds: each span's duration minus the time
/// its direct children cover, summed over the spans of the layer.
pub fn self_time_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if span.parent != NO_PARENT {
            child_ns[span.parent as usize] += span.end_ns - span.start_ns;
        }
    }
    let mut by_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_ns) {
        let own = (span.end_ns - span.start_ns).saturating_sub(children);
        *by_layer.entry(layer_of(span.name)).or_default() += own;
    }
    by_layer
}

/// Number of spans per span name — the counts taken at the call sites.
pub fn counts(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut by_name: BTreeMap<&'static str, u64> = BTreeMap::new();
    for span in spans {
        *by_name.entry(span.name).or_default() += 1;
    }
    by_name
}

/// Renders the trace file: per-layer self time, per-name counts, and every
/// span as `[name index, start ns, end ns, parent, pass]`.
pub fn render(workload: &str, spans: &[Span]) -> String {
    let mut names: Vec<&'static str> = Vec::new();
    let mut index: BTreeMap<&'static str, usize> = BTreeMap::new();
    for span in spans {
        index.entry(span.name).or_insert_with(|| {
            names.push(span.name);
            names.len() - 1
        });
    }
    let mut out = String::with_capacity(64 + spans.len() * 40);
    out.push_str(&format!("{{\"workload\": \"{workload}\",\n"));
    out.push_str(" \"self_time_ms\": {");
    let self_times: Vec<String> = self_time_ns(spans)
        .iter()
        .map(|(layer, ns)| format!("\"{layer}\": {}", *ns as f64 / 1e6))
        .collect();
    out.push_str(&self_times.join(", "));
    out.push_str("},\n \"span_counts\": {");
    let span_counts: Vec<String> = counts(spans)
        .iter()
        .map(|(name, n)| format!("\"{name}\": {n}"))
        .collect();
    out.push_str(&span_counts.join(", "));
    out.push_str("},\n \"names\": [");
    let quoted: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
    out.push_str(&quoted.join(", "));
    out.push_str("],\n \"span_fields\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"pass\"],\n \"spans\": [\n");
    for (i, span) in spans.iter().enumerate() {
        let parent = if span.parent == NO_PARENT {
            -1
        } else {
            i64::from(span.parent)
        };
        out.push_str(&format!(
            "  [{}, {}, {}, {}, {}]{}\n",
            index[span.name],
            span.start_ns,
            span.end_ns,
            parent,
            span.pass,
            if i + 1 == spans.len() { "" } else { "," }
        ));
    }
    out.push_str(" ]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: SpanId) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            pass: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span("harness.pass", 0, 1000, NO_PARENT),
            span("workloads.generate", 100, 300, 0),
            span("harness.measured", 300, 900, 0),
            span("engine.apply_block", 300, 500, 2),
            span("engine.apply_block", 500, 850, 2),
        ];
        let by_layer = self_time_ns(&spans);
        // pass: 1000 - (200 + 600) = 200; measured: 600 - 550 = 50.
        assert_eq!(by_layer["harness"], 250);
        assert_eq!(by_layer["workloads"], 200);
        assert_eq!(by_layer["engine"], 550);
        // Self times partition the root span exactly.
        assert_eq!(by_layer.values().sum::<u64>(), 1000);
        assert_eq!(counts(&spans)["engine.apply_block"], 2);
    }

    #[test]
    fn tracer_nests_recorded_spans_under_the_open_one() {
        let mut t = Tracer::new(true);
        t.set_pass(3);
        t.enter("harness.pass");
        let a = Instant::now();
        let b = Instant::now();
        t.record("engine.apply", a, b);
        t.enter("harness.measured");
        t.record("engine.apply", a, b);
        t.exit();
        t.exit();
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 0);
        assert_eq!(spans[3].parent, 2);
        assert!(spans.iter().all(|s| s.pass == 3 && s.end_ns >= s.start_ns));
        assert!(render("w", spans).contains("\"engine.apply\": 2"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.enter("harness.pass");
        t.record("engine.apply", Instant::now(), Instant::now());
        t.exit();
        assert!(t.spans().is_empty());
    }

    #[test]
    fn layer_is_the_name_prefix() {
        assert_eq!(layer_of("service.request"), "service");
        assert_eq!(layer_of("harness"), "harness");
    }
}
