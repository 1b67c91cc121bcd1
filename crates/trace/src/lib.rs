//! Structured tracing for the homc pipeline.
//!
//! A [`Tracer`] is a cheap, cloneable handle to a shared line-oriented sink.
//! Every emitted event is one self-contained JSON object per line (JSONL):
//!
//! ```text
//! {"ts":1234,"ev":"span","phase":"abs","iter":0,"dur_us":812}
//! {"ts":1240,"ev":"iter","iter":0,"outcome":"refined",...}
//! ```
//!
//! Design constraints (see DESIGN.md, "Observability architecture"):
//!
//! * **Zero-cost when disabled.** A disabled tracer is a `None` — [`Tracer::emit`]
//!   returns before touching its closure, so no field is formatted and no
//!   allocation happens on the hot path.
//! * **Thread-aware.** The sink is a mutex around an ordinary writer; each
//!   event is formatted off-lock into its own buffer and written as one
//!   atomic line, so events from concurrent batch jobs sharing a sink
//!   interleave per line, never mid-line.
//! * **Deterministic option.** In *logical-clock* mode `ts` is a global
//!   sequence number and every duration field is forced to `0`, so a trace
//!   of a deterministic run is byte-for-byte reproducible (the golden-trace
//!   tests diff exact bytes).
//! * **Observation only.** Emitting never checkpoints the shared budget and
//!   never influences derivation order; verdicts, stats, and `--inject`
//!   schedules are identical with tracing on or off.
//!
//! The crate also carries the *consumer* side — a dependency-free JSON
//! subset parser ([`parse_json`]), the event-schema validator
//! ([`validate_trace`]), and the `homc trace-report` renderer
//! ([`render_report`]) — so the emitted format and its checkers can never
//! drift apart.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod json;
mod report;
mod schema;

pub use json::{escape_json, parse_json, JsonError, JsonValue};
pub use report::render_report;
pub use schema::{validate_line, validate_trace, SchemaError};

pub use homc_budget::Phase;

use std::fmt::Write as _;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A stable 64-bit FNV-1a hash, used to key SMT queries in trace events
/// (`std`'s hasher is seeded per process and would break byte-diffability).
pub fn stable_hash64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Where emitted lines go.
enum Sink {
    /// Any writer (a buffered file for `homc --trace`).
    Writer(Box<dyn Write + Send>),
    /// An in-memory buffer, readable back via [`Tracer::snapshot`] (used by
    /// the bench harness and the tests).
    Memory(Vec<u8>),
}

struct Inner {
    sink: Mutex<Sink>,
    /// Logical-clock mode: `ts` is a sequence number, durations are 0.
    logical: bool,
    /// Wall-clock origin (`ts` = microseconds since this instant).
    origin: Instant,
    /// The logical clock.
    seq: AtomicU64,
}

/// A handle to a trace sink; clone freely (clones share the sink).
///
/// The default handle is *disabled*: every operation is a no-op and
/// [`Tracer::emit`] never calls its closure.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "Tracer(disabled)"),
            Some(i) if i.logical => write!(f, "Tracer(logical)"),
            Some(_) => write!(f, "Tracer(wall)"),
        }
    }
}

impl Tracer {
    /// The disabled tracer (same as `Tracer::default()`).
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    /// A tracer writing JSONL lines to `writer`.
    pub fn to_writer(writer: Box<dyn Write + Send>, logical: bool) -> Tracer {
        Tracer {
            inner: Some(Arc::new(Inner {
                sink: Mutex::new(Sink::Writer(writer)),
                logical,
                origin: Instant::now(),
                seq: AtomicU64::new(0),
            })),
        }
    }

    /// A tracer writing to a freshly created (buffered) file.
    pub fn to_file(path: &Path, logical: bool) -> std::io::Result<Tracer> {
        let f = std::fs::File::create(path)?;
        Ok(Tracer::to_writer(
            Box::new(std::io::BufWriter::new(f)),
            logical,
        ))
    }

    /// A tracer accumulating lines in memory (read back with
    /// [`Tracer::snapshot`]).
    pub fn memory(logical: bool) -> Tracer {
        Tracer {
            inner: Some(Arc::new(Inner {
                sink: Mutex::new(Sink::Memory(Vec::new())),
                logical,
                origin: Instant::now(),
                seq: AtomicU64::new(0),
            })),
        }
    }

    /// `true` when events are actually recorded.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// `true` in deterministic logical-clock mode.
    pub fn is_logical(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.logical)
    }

    /// The duration since `started` in microseconds — forced to `0` in
    /// logical-clock mode (and when disabled) so deterministic traces carry
    /// no wall-clock noise.
    pub fn dur_us(&self, started: Instant) -> u64 {
        match &self.inner {
            Some(i) if !i.logical => started.elapsed().as_micros() as u64,
            _ => 0,
        }
    }

    /// Emits one event line. `fill` adds the event's fields; it is only
    /// called when the tracer is enabled, so callers may format freely
    /// inside it without guarding the hot path.
    pub fn emit(&self, ev: &str, fill: impl FnOnce(&mut EventBuilder)) {
        let Some(inner) = &self.inner else { return };
        let ts = if inner.logical {
            inner.seq.fetch_add(1, Ordering::Relaxed)
        } else {
            inner.origin.elapsed().as_micros() as u64
        };
        let mut b = EventBuilder::new(ts, ev);
        fill(&mut b);
        let line = b.finish();
        let mut sink = inner.sink.lock().expect("trace sink poisoned");
        match &mut *sink {
            Sink::Writer(w) => {
                let _ = w.write_all(line.as_bytes());
            }
            Sink::Memory(buf) => buf.extend_from_slice(line.as_bytes()),
        }
    }

    /// Flushes the underlying writer (file sinks buffer).
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            let mut sink = inner.sink.lock().expect("trace sink poisoned");
            if let Sink::Writer(w) = &mut *sink {
                let _ = w.flush();
            }
        }
    }

    /// The accumulated contents of a memory sink (`None` for disabled or
    /// writer-backed tracers).
    pub fn snapshot(&self) -> Option<String> {
        let inner = self.inner.as_ref()?;
        let sink = inner.sink.lock().expect("trace sink poisoned");
        match &*sink {
            Sink::Memory(buf) => Some(String::from_utf8_lossy(buf).into_owned()),
            Sink::Writer(_) => None,
        }
    }
}

/// Builds one JSONL event line. Obtained inside [`Tracer::emit`]'s closure;
/// every method appends one `"key":value` field.
pub struct EventBuilder {
    buf: String,
}

impl EventBuilder {
    fn new(ts: u64, ev: &str) -> EventBuilder {
        let mut buf = String::with_capacity(96);
        let _ = write!(buf, "{{\"ts\":{ts},\"ev\":{}", escape_json(ev));
        EventBuilder { buf }
    }

    /// Appends a string field (JSON-escaped).
    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        let _ = write!(self.buf, ",{}:{}", escape_json(key), escape_json(v));
        self
    }

    /// Appends an unsigned integer field.
    pub fn num(&mut self, key: &str, v: u64) -> &mut Self {
        let _ = write!(self.buf, ",{}:{v}", escape_json(key));
        self
    }

    /// Appends a signed integer field.
    pub fn int(&mut self, key: &str, v: i64) -> &mut Self {
        let _ = write!(self.buf, ",{}:{v}", escape_json(key));
        self
    }

    /// Appends a boolean field.
    pub fn bool(&mut self, key: &str, v: bool) -> &mut Self {
        let _ = write!(self.buf, ",{}:{v}", escape_json(key));
        self
    }

    /// Appends a nested object of integer-valued entries (e.g. the
    /// per-binding predicate counts). Entries are written in the order
    /// given; pass a sorted iterator for deterministic traces.
    pub fn map_num<'e>(
        &mut self,
        key: &str,
        entries: impl IntoIterator<Item = (&'e str, u64)>,
    ) -> &mut Self {
        let _ = write!(self.buf, ",{}:{{", escape_json(key));
        for (i, (k, v)) in entries.into_iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            let _ = write!(self.buf, "{}:{v}", escape_json(k));
        }
        self.buf.push('}');
        self
    }

    fn finish(mut self) -> String {
        self.buf.push_str("}\n");
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_never_calls_closure() {
        let t = Tracer::disabled();
        t.emit("x", |_| panic!("must not be called"));
        assert!(!t.enabled());
        assert!(t.snapshot().is_none());
    }

    #[test]
    fn logical_clock_is_sequential_and_durations_zero() {
        let t = Tracer::memory(true);
        let started = Instant::now();
        t.emit("a", |e| {
            e.num("dur_us", t.dur_us(started));
        });
        t.emit("b", |e| {
            e.str("k", "v");
        });
        let s = t.snapshot().expect("memory sink");
        assert_eq!(
            s,
            "{\"ts\":0,\"ev\":\"a\",\"dur_us\":0}\n{\"ts\":1,\"ev\":\"b\",\"k\":\"v\"}\n"
        );
    }

    #[test]
    fn escaping_and_nested_maps() {
        let t = Tracer::memory(true);
        t.emit("e", |e| {
            e.str("s", "a\"b\\c\nd");
            e.map_num("m", [("f%1", 2u64), ("g", 0)]);
            e.int("i", -3);
            e.bool("b", true);
        });
        let s = t.snapshot().expect("memory sink");
        let v = parse_json(s.trim()).expect("line parses");
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("a\"b\\c\nd"));
        assert_eq!(
            v.get("m")
                .and_then(|m| m.get("f%1"))
                .and_then(JsonValue::as_num),
            Some(2)
        );
        assert_eq!(v.get("i").and_then(JsonValue::as_num), Some(-3));
    }

    #[test]
    fn wall_clock_timestamps_are_monotone() {
        let t = Tracer::memory(false);
        for _ in 0..5 {
            t.emit("tick", |_| {});
        }
        let s = t.snapshot().expect("memory sink");
        let mut last = 0i128;
        for line in s.lines() {
            let ts = parse_json(line)
                .expect("parses")
                .get("ts")
                .and_then(JsonValue::as_num)
                .expect("ts");
            assert!(ts >= last);
            last = ts;
        }
    }

    #[test]
    fn stable_hash_is_stable() {
        assert_eq!(stable_hash64(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(stable_hash64("abc"), stable_hash64("abc"));
        assert_ne!(stable_hash64("abc"), stable_hash64("abd"));
    }
}
