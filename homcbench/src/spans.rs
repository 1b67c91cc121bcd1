//! In-memory span recorder for the traced run.
//!
//! Each span records its name, the submission it belongs to, the span that
//! encloses it, and its start and end relative to the recorder's origin.
//! Spans stay in memory while the benchmark runs and are written out once,
//! at the end, so recording costs two clock reads and a push per call.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed call.
struct Span {
    /// Layer-qualified name, e.g. `abs.abstract`.
    name: &'static str,
    /// The submission the span belongs to.
    sub: u64,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
    /// Start, relative to the recorder's origin.
    start: Duration,
    /// End, relative to the recorder's origin.
    end: Duration,
}

/// Closes span `id` when dropped.
struct Close<'a> {
    spans: &'a Spans,
    id: usize,
}

impl Drop for Close<'_> {
    fn drop(&mut self) {
        // No borrow of either cell is live here: `span` holds none while
        // its closure runs.
        self.spans.open.borrow_mut().pop();
        self.spans.spans.borrow_mut()[self.id].end = self.spans.origin.elapsed();
    }
}

/// Records nested spans on one thread.
pub struct Spans {
    origin: Instant,
    sub: Cell<u64>,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            sub: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Stamps the spans recorded from now on with submission `sub`.
    pub fn set_submission(&self, sub: u64) {
        self.sub.set(sub);
    }

    /// Runs `f` inside a span named `name`. Spans opened by `f` become its
    /// children. The span is closed even if `f` panics.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = {
            let mut spans = self.spans.borrow_mut();
            let mut open = self.open.borrow_mut();
            spans.push(Span {
                name,
                sub: self.sub.get(),
                parent: open.last().copied(),
                start: self.origin.elapsed(),
                end: Duration::ZERO,
            });
            open.push(spans.len() - 1);
            spans.len() - 1
        };
        let _close = Close { spans: self, id };
        f()
    }

    /// Self time per span name, in seconds: each span's duration minus the
    /// part its child spans cover.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.borrow();
        let mut child = vec![Duration::ZERO; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in spans.iter().zip(child) {
            *out.entry(s.name).or_insert(0.0) += (s.end - s.start - c).as_secs_f64();
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut text = String::new();
        for (id, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\":{id},\"sub\":{},\"name\":\"{}\",\"parent\":{parent},\"start_us\":{},\"end_us\":{}}}",
                s.sub,
                s.name,
                s.start.as_micros(),
                s.end.as_micros()
            );
        }
        std::fs::write(path, text)
    }
}
