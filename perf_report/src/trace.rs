//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer; the
//! crates themselves are not instrumented. Everything stays in a `Vec` until the
//! run ends, so recording costs two clock reads and a push per span.

use std::time::Instant;

use crate::json::Value;

/// The workspace crate a span's call went into; `Bench` marks grouping spans
/// the harness opens around several calls (their self time is harness cost).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Tensor,
    Models,
    Imaging,
    Projpeg,
    Data,
    Oracle,
    Hwsim,
    Core,
    Bench,
}

impl Layer {
    pub const CRATES: [Layer; 8] = [
        Layer::Tensor,
        Layer::Models,
        Layer::Imaging,
        Layer::Projpeg,
        Layer::Data,
        Layer::Oracle,
        Layer::Hwsim,
        Layer::Core,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Tensor => "tensor",
            Layer::Models => "models",
            Layer::Imaging => "imaging",
            Layer::Projpeg => "projpeg",
            Layer::Data => "data",
            Layer::Oracle => "oracle",
            Layer::Hwsim => "hwsim",
            Layer::Core => "core",
            Layer::Bench => "bench",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<u32>,
    /// Spans of one request (image, drain, ticket) share this.
    pub request: Option<u64>,
}

/// Handle returned by [`Tracer::enter`]; `None` inside when tracing is off.
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct SpanId(Option<u32>);

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn ns_since_epoch(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, layer: Layer, request: Option<u64>) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.ns_since_epoch(Instant::now());
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let end_ns = self.ns_since_epoch(Instant::now());
        self.spans[id as usize].end_ns = end_ns;
        // Spans close innermost first; anything still open above `id` was
        // abandoned by an early return and is closed with it.
        while let Some(top) = self.open.pop() {
            self.spans[top as usize].end_ns = end_ns;
            if top == id {
                break;
            }
        }
    }

    /// Runs one call into a layer, returning its result and wall milliseconds.
    /// The time is measured whether or not spans are kept, so probes use this
    /// for their numbers and the trace shows exactly the calls that were timed.
    pub fn timed<R>(
        &mut self,
        name: &'static str,
        layer: Layer,
        request: Option<u64>,
        call: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.enter(name, layer, request);
        let start = Instant::now();
        let result = call();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        self.exit(id);
        (result, ms)
    }

    /// Adds a finished root span whose ends were observed on other threads
    /// (a server request from submission to delivered completion).
    pub fn record(
        &mut self,
        name: &'static str,
        layer: Layer,
        request: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled {
            let start_ns = self.ns_since_epoch(start);
            let end_ns = self.ns_since_epoch(end).max(start_ns);
            self.spans.push(Span { name, layer, start_ns, end_ns, parent: None, request });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: its duration minus the part of that interval its
    /// child spans cover (children are clipped to the parent and overlapping
    /// children are counted once).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let p = &self.spans[parent as usize];
                let start = span.start_ns.max(p.start_ns);
                let end = span.end_ns.min(p.end_ns);
                if end > start {
                    children[parent as usize].push((start, end));
                }
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(span, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = span.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.max(reach);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                (span.end_ns - span.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Self time summed per layer, in milliseconds, in [`Layer::CRATES`] order.
    pub fn layer_self_ms(&self) -> [f64; 8] {
        let mut totals = [0.0; 8];
        for (span, self_ns) in self.spans.iter().zip(self.self_ns()) {
            if let Some(slot) = Layer::CRATES.iter().position(|layer| *layer == span.layer) {
                totals[slot] += self_ns as f64 / 1e6;
            }
        }
        totals
    }

    pub fn to_json(&self) -> Value {
        let self_ns = self.self_ns();
        Value::Arr(
            self.spans
                .iter()
                .zip(self_ns)
                .map(|(span, self_ns)| {
                    Value::obj([
                        ("name", Value::str(span.name)),
                        ("layer", Value::str(span.layer.name())),
                        ("start_ns", Value::Num(span.start_ns as f64)),
                        ("end_ns", Value::Num(span.end_ns as f64)),
                        ("self_ns", Value::Num(self_ns as f64)),
                        ("parent", span.parent.map_or(Value::Null, |p| Value::Num(f64::from(p)))),
                        ("request", span.request.map_or(Value::Null, |r| Value::Num(r as f64))),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<u32>, layer: Layer) -> Span {
        Span { name: "t", layer, start_ns, end_ns, parent, request: None }
    }

    #[test]
    fn self_time_is_duration_minus_covered_children() {
        let mut tracer = Tracer::new(true);
        tracer.spans = vec![
            span(0, 100, None, Layer::Core),
            // Two overlapping children cover 10..50 once, a third 60..70.
            span(10, 40, Some(0), Layer::Projpeg),
            span(30, 50, Some(0), Layer::Imaging),
            span(60, 70, Some(0), Layer::Imaging),
            // A grandchild only reduces its own parent.
            span(12, 20, Some(1), Layer::Tensor),
            // A child reaching past its parent is clipped to it.
            span(90, 130, Some(0), Layer::Data),
        ];
        assert_eq!(tracer.self_ns(), vec![40, 22, 20, 10, 8, 40]);
        let by_layer = tracer.layer_self_ms();
        let core = Layer::CRATES.iter().position(|l| *l == Layer::Core).unwrap();
        assert!((by_layer[core] - 40e-6).abs() < 1e-12);
    }

    #[test]
    fn nesting_follows_enter_and_exit_and_off_records_nothing() {
        let mut tracer = Tracer::new(true);
        let outer = tracer.enter("outer", Layer::Bench, Some(3));
        let (value, ms) = tracer.timed("inner", Layer::Core, Some(3), || 7);
        tracer.exit(outer);
        assert_eq!(value, 7);
        assert!(ms >= 0.0);
        assert_eq!(tracer.spans().len(), 2);
        assert_eq!(tracer.spans()[1].parent, Some(0));
        assert!(tracer.spans()[0].end_ns >= tracer.spans()[1].end_ns);

        let mut off = Tracer::new(false);
        let id = off.enter("outer", Layer::Bench, None);
        let _ = off.timed("inner", Layer::Core, None, || ());
        off.exit(id);
        assert!(off.spans().is_empty());
    }
}
