//! Span recording for traced runs: a preallocated in-memory buffer, written
//! out as JSON lines when the run ends.
//!
//! Each line is `{id, parent, req, name, start_ns, end_ns}`: `id` names the
//! span, `parent` the span that caused it (0 for a root), and `req` is the
//! number of the request or burst the span belongs to (0 for spans of no
//! request), shared by `driver.request` and its `driver.write`,
//! `driver.wait` and `driver.read` children. Times are nanoseconds since
//! the tracer was made.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Spans kept per run. A full buffer drops further spans and counts them.
const CAPACITY: usize = 1 << 18;

#[derive(Debug, Clone, Copy)]
struct Span {
    id: u64,
    parent: u64,
    req: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    next_id: u64,
    dropped: u64,
    /// Ids of the phases open now, outermost first.
    open: Vec<u64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(CAPACITY),
            next_id: 1,
            dropped: 0,
            open: Vec::new(),
        }
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// Nanoseconds from the tracer's epoch to `at`.
    pub fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&mut self, span: Span) {
        if self.spans.len() < CAPACITY {
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
    }

    /// Record a finished span under `parent` (0: under the innermost open
    /// phase); returns its id for children to name.
    pub fn span(
        &mut self,
        parent: u64,
        req: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let parent = if parent == 0 {
            self.open.last().copied().unwrap_or(0)
        } else {
            parent
        };
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.push(Span {
            id,
            parent,
            req,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Spans that did not fit the buffer.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Write `header` (a rendered JSON object) and one line per span.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Run `f` as a phase: when tracing, a span that the spans recorded inside
/// it take as their parent; when not, just `f`.
pub fn phase<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    f: impl FnOnce(&mut Option<&mut Tracer>) -> T,
) -> T {
    let Some(tr) = tracer.as_deref_mut() else {
        return f(tracer);
    };
    let id = tr.next_id;
    tr.next_id += 1;
    let parent = tr.open.last().copied().unwrap_or(0);
    tr.open.push(id);
    let start_ns = tr.ns(Instant::now());
    let out = f(tracer);
    let tr = tracer.as_deref_mut().expect("still tracing");
    tr.open.pop();
    let end_ns = tr.ns(Instant::now());
    tr.push(Span {
        id,
        parent,
        req: 0,
        name,
        start_ns,
        end_ns,
    });
    out
}
