//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span has a name, start and end (ns since the run's epoch), the
//! request id it belongs to, and the index of its parent span. Spans
//! stay in memory and are written out as JSON lines when the run ends.
//! With tracing off, [`Tracer::record`] is one branch.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use tigr_server::json::{obj, Json};

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call, e.g. `client.query` or `engine.solo.sssp`.
    pub name: String,
    /// Request id shared by every span of one request.
    pub req: u64,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Index of the causing span in the same trace.
    pub parent: Option<usize>,
}

/// A span log owned by one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A log whose times count from `epoch`.
    pub fn new(epoch: Instant, on: bool) -> Tracer {
        Tracer {
            epoch,
            on,
            spans: Vec::new(),
        }
    }

    /// Switches recording on or off.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Records a finished span and returns its index (`None` when off).
    pub fn record(
        &mut self,
        name: &str,
        req: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            req,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
        });
        Some(self.spans.len() - 1)
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &str,
        req: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, req, parent, start, Instant::now());
        out
    }

    /// Opens a parent span whose end is filled in by [`Tracer::close`].
    pub fn open(&mut self, name: &str, req: u64) -> Option<usize> {
        let now = Instant::now();
        self.record(name, req, None, now, now)
    }

    /// Ends a span opened by [`Tracer::open`].
    pub fn close(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end_ns = Instant::now()
                .saturating_duration_since(self.epoch)
                .as_nanos() as u64;
        }
    }

    /// Moves `other`'s spans into this log, keeping parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let line = obj([
                ("id", i.into()),
                ("name", s.name.as_str().into()),
                ("req", s.req.into()),
                ("start_ns", s.start_ns.into()),
                ("end_ns", s.end_ns.into()),
                ("parent", s.parent.map_or(Json::Null, Json::from)),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}
