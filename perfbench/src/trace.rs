//! In-memory spans for the traced run: one span per layer call, with
//! name, start, end, parent and request id. Nothing is recorded when the
//! tracer is off, so untraced runs carry no spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

/// A per-thread span buffer. Threads of one run share the epoch, so their
/// buffers merge into one timeline.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

/// Handle of an open span (`None` when tracing is off).
pub type SpanId = Option<usize>;

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
        }
    }

    /// A new, empty buffer for another thread of the same run.
    pub fn sibling(&self) -> Tracer {
        Tracer::new(self.on, self.epoch)
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records an already-timed span.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: SpanId,
        req: u64,
    ) -> SpanId {
        if !self.on {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            req,
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a span now; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, parent: SpanId, req: u64) -> SpanId {
        if !self.on {
            return None;
        }
        let now = self.now_ns();
        self.record(name, now, now, parent, req)
    }

    pub fn exit(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.enter(name, parent, req);
        let out = f();
        self.exit(id);
        out
    }

    /// Appends another thread's spans, re-basing their parent links.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: call count, total duration and total self time (the
    /// duration minus the time its child spans cover).
    pub fn summary(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child);
        }
        out
    }

    /// Writes every span as one JSON document.
    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96 + 16);
        out.push_str("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"req\": {}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns,
                s.end_ns,
                s.req
            );
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Totals {
    /// Mean self time per call in microseconds (0 when never called).
    pub fn self_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e3
        }
    }

    /// Mean duration per call in microseconds (0 when never called).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }
}
