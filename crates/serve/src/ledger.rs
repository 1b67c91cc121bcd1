//! The persistent run ledger: one append-only run file (`run-NNNNNN.led`)
//! of the framed-file store per verification run — a `homc --suite`,
//! `homc batch`, or `table1` invocation. Payloads are stable-field-order JSON
//! [`RunRecord`] encodings, each carrying its own `schema` version so the
//! trend layer can refuse to compare across incompatible record generations
//! instead of guessing.

use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

use homc_budget::{columns, shown, Surface};
use homc_metrics::{Counter, Metrics};
use homc_trace::{escape_json, parse_json, JsonValue};

use crate::store::{Format, Naming, Store};

/// First bytes of every run file.
pub const LEDGER_MAGIC: &str = "homc-ledger";
/// Container format version; bump on any framing change.
pub const LEDGER_VERSION: u32 = 1;
/// Schema version of [`RunRecord`] payloads; bump on any field change.
pub const RECORD_SCHEMA: u64 = 1;

/// History cannot be rebuilt, so stale run files are kept. A run file is
/// all-or-nothing for trend math: a skipped record could drop the slowest
/// program of a run and flip a regression verdict, so one bad record
/// quarantines the whole file.
static FORMAT: Format = Format {
    magic: LEDGER_MAGIC,
    version: LEDGER_VERSION,
    naming: Naming::Sequenced {
        prefix: "run",
        ext: "led",
        skip_bad_records: false,
    },
    reclaim_stale: false,
    counter: Counter::LedgerQuarantine,
};

/// One program's outcome within one run. Field order here is the JSON
/// field order (stable across builds — the encoder is hand-rolled).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunRecord {
    /// Record schema version ([`RECORD_SCHEMA`] when written by this build).
    pub schema: u64,
    /// Run id, assigned at append time (the run file's sequence number).
    pub run: u64,
    /// What produced the run: `suite`, `batch`, or `table1`.
    pub kind: String,
    /// Program name.
    pub program: String,
    /// Final verdict string (`safe`, `unsafe`, `unknown (...)`).
    pub verdict: String,
    /// Whether the verdict matched the expected one.
    pub ok: bool,
    /// End-to-end wall time for this program, µs.
    pub wall_us: u64,
    /// Time per Table 1 column the ledger shows (`abst`, `mc`, `cegar`:
    /// `homc_budget::columns(shown(Surface::Ledger))`), µs, encoded as
    /// `<column>_us` keys. A column missing here encodes as 0.
    pub phase_us: BTreeMap<&'static str, u64>,
    /// Verifier-internal total, µs.
    pub total_us: u64,
    /// Peak heap while verifying, bytes (0 when accounting is off).
    pub peak_bytes: u64,
    /// FNV-1a 64 digest of the run's trace (0 when tracing is off).
    pub trace_digest: u64,
    /// Counter snapshot (name → value), sorted by name in the encoding.
    pub counters: BTreeMap<String, u64>,
}

impl RunRecord {
    /// Stable-field-order JSON encoding. `ok` is encoded as `0`/`1` and the
    /// trace digest as a 16-hex-digit string (the in-tree JSON parser is
    /// integer-only and `u64::MAX` overflows an `i128`-safe reading less
    /// readably than hex).
    pub fn encode(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(256);
        let _ = write!(
            s,
            "{{\"schema\":{},\"run\":{},\"kind\":{},\"program\":{},\"verdict\":{},\"ok\":{},\
             \"wall_us\":{},",
            self.schema,
            self.run,
            escape_json(&self.kind),
            escape_json(&self.program),
            escape_json(&self.verdict),
            u8::from(self.ok),
            self.wall_us,
        );
        for col in columns(shown(Surface::Ledger)) {
            let v = self.phase_us.get(col).copied().unwrap_or(0);
            let _ = write!(s, "\"{col}_us\":{v},");
        }
        let _ = write!(
            s,
            "\"total_us\":{},\"peak_bytes\":{},\"trace_digest\":\"{:016x}\",\"counters\":{{",
            self.total_us, self.peak_bytes, self.trace_digest,
        );
        for (i, (k, v)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(s, "{sep}{}:{v}", escape_json(k));
        }
        s.push_str("}}");
        s
    }

    /// Decodes one payload. A record from a *different* schema version is
    /// not corruption: it decodes to a best-effort record carrying its
    /// `schema` field so the trend layer can refuse the comparison
    /// explicitly (exit 3) instead of this loader silently dropping it.
    pub fn decode(payload: &str) -> Result<RunRecord, String> {
        let v = parse_json(payload).map_err(|e| e.to_string())?;
        if v.as_obj().is_none() {
            return Err("record is not a JSON object".to_string());
        }
        let num = |key: &str| -> Option<u64> {
            v.get(key)
                .and_then(JsonValue::as_num)
                .and_then(|n| u64::try_from(n).ok())
        };
        let text = |key: &str| v.get(key).and_then(JsonValue::as_str).map(str::to_string);
        let schema = num("schema").ok_or("missing \"schema\"")?;
        let mut r = RunRecord {
            schema,
            run: num("run").unwrap_or(0),
            kind: text("kind").unwrap_or_default(),
            program: text("program").unwrap_or_default(),
            verdict: text("verdict").unwrap_or_default(),
            ok: num("ok").unwrap_or(0) != 0,
            ..RunRecord::default()
        };
        if schema != RECORD_SCHEMA {
            return Ok(r); // foreign generation: carry the version, no more
        }
        r.wall_us = num("wall_us").ok_or("missing \"wall_us\"")?;
        for col in columns(shown(Surface::Ledger)) {
            let key = format!("{col}_us");
            let v = num(&key).ok_or_else(|| format!("missing {key:?}"))?;
            r.phase_us.insert(col, v);
        }
        r.total_us = num("total_us").ok_or("missing \"total_us\"")?;
        r.peak_bytes = num("peak_bytes").ok_or("missing \"peak_bytes\"")?;
        if r.program.is_empty() {
            return Err("missing \"program\"".to_string());
        }
        let digest = text("trace_digest").ok_or("missing \"trace_digest\"")?;
        r.trace_digest =
            u64::from_str_radix(&digest, 16).map_err(|_| "bad \"trace_digest\"".to_string())?;
        if let Some(counters) = v.get("counters").and_then(JsonValue::as_obj) {
            for (k, cv) in counters {
                let n = cv
                    .as_num()
                    .and_then(|n| u64::try_from(n).ok())
                    .ok_or_else(|| format!("counter {k:?} is not a count"))?;
                r.counters.insert(k.clone(), n);
            }
        } else {
            return Err("missing \"counters\"".to_string());
        }
        Ok(r)
    }
}

/// What [`Ledger::load`] found and did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LedgerLoad {
    /// Run files scanned (including rejected ones).
    pub segments: usize,
    /// Records decoded.
    pub records: usize,
    /// Records rejected by checksum, framing, or decode.
    pub bad_records: usize,
    /// Run files renamed to `.quarantined`.
    pub quarantined: usize,
    /// Run files from another container version, kept but skipped.
    pub stale: usize,
}

impl fmt::Display for LedgerLoad {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} records from {} runs ({} bad, {} quarantined, {} stale)",
            self.records, self.segments, self.bad_records, self.quarantined, self.stale
        )
    }
}

/// What [`Ledger::append`] wrote.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AppendReport {
    /// Final path of the published run file.
    pub path: PathBuf,
    /// The run id assigned to every record of this append.
    pub run: u64,
    /// Records written.
    pub records: usize,
}

impl fmt::Display for AppendReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (run, n, path) = (self.run, self.records, self.path.display());
        write!(f, "run {run} ({n} record(s)) -> {path}")
    }
}

/// Handle to one ledger directory.
#[derive(Clone, Debug)]
pub struct Ledger {
    store: Store,
}

impl Ledger {
    /// A ledger rooted at `dir` (created on first append).
    pub fn new(dir: impl Into<PathBuf>) -> Ledger {
        Ledger {
            store: Store::new(dir, &FORMAT),
        }
    }

    /// Attaches a metrics registry ([`Counter::LedgerQuarantine`]).
    pub fn with_metrics(self, metrics: Metrics) -> Ledger {
        Ledger {
            store: self.store.with_metrics(metrics),
        }
    }

    /// The ledger directory.
    pub fn dir(&self) -> &Path {
        self.store.dir()
    }

    /// Appends one run: stamps every record with [`RECORD_SCHEMA`], the next
    /// run id, and `kind`, then publishes them as one run file — readers
    /// never observe a torn run, and concurrent appends get distinct ids.
    pub fn append(&self, kind: &str, records: &mut [RunRecord]) -> io::Result<AppendReport> {
        let (path, run) = self.store.publish_next(|run| {
            let payloads = records.iter_mut().map(|r| {
                r.schema = RECORD_SCHEMA;
                r.run = run;
                r.kind = kind.to_string();
                r.encode()
            });
            FORMAT.compose(payloads).into_bytes()
        })?;
        Ok(AppendReport {
            path,
            run,
            records: records.len(),
        })
    }

    /// Reads every valid record of every valid run file, in run order.
    /// Never fails on file *content* — only on directory I/O errors;
    /// corrupt run files are quarantined and counted.
    pub fn load(&self) -> io::Result<(Vec<RunRecord>, LedgerLoad)> {
        let (records, r) = self.store.load_all(RunRecord::decode)?;
        let report = LedgerLoad {
            segments: r.segments,
            records: r.records,
            bad_records: r.bad_records,
            quarantined: r.quarantined,
            stale: r.stale,
        };
        Ok((records, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("homc-ledger-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn record(program: &str, wall_us: u64) -> RunRecord {
        let mut counters = BTreeMap::new();
        counters.insert("smt_solves".to_string(), 12);
        counters.insert("cache_hits".to_string(), 7);
        RunRecord {
            program: program.to_string(),
            verdict: "safe".to_string(),
            ok: true,
            wall_us,
            phase_us: [
                ("abst", wall_us / 2),
                ("mc", wall_us / 4),
                ("cegar", wall_us / 8),
            ]
            .into(),
            total_us: wall_us,
            peak_bytes: 1 << 20,
            trace_digest: 0xdead_beef_0000_0001,
            counters,
            ..RunRecord::default()
        }
    }

    #[test]
    fn encode_decode_roundtrips() {
        let mut r = record("mc91", 1234);
        r.schema = RECORD_SCHEMA;
        r.run = 3;
        r.kind = "batch".to_string();
        let payload = r.encode();
        assert_eq!(RunRecord::decode(&payload).unwrap(), r);
        // Encoding is stable: counters come out sorted by name.
        let hits = payload.find("\"cache_hits\"").unwrap();
        let solves = payload.find("\"smt_solves\"").unwrap();
        assert!(hits < solves, "{payload}");
    }

    #[test]
    fn append_assigns_monotonic_run_ids() {
        let dir = tmpdir("runids");
        let ledger = Ledger::new(&dir);
        let mut first = [record("sum", 100), record("mc91", 900)];
        let mut second = [record("sum", 110)];
        assert_eq!(ledger.append("batch", &mut first).unwrap().run, 1);
        assert_eq!(ledger.append("batch", &mut second).unwrap().run, 2);
        let (records, load) = ledger.load().unwrap();
        assert_eq!(load.records, 3);
        assert_eq!(load.quarantined, 0);
        assert_eq!(records[0].run, 1);
        assert_eq!(records[2].run, 2);
        assert_eq!(records[2].kind, "batch");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_run_file_is_quarantined_whole() {
        let dir = tmpdir("corrupt");
        let metrics = Metrics::new(true);
        let ledger = Ledger::new(&dir).with_metrics(metrics.clone());
        ledger
            .append("suite", &mut [record("a", 10), record("b", 20)])
            .unwrap();
        ledger.append("suite", &mut [record("a", 11)]).unwrap();
        // Flip one payload byte inside run 1; the whole file must go — a
        // surviving partial run could skew the baseline median.
        let path = dir.join("run-000001.led");
        let mut bytes = fs::read(&path).unwrap();
        bytes[40] ^= 0x01;
        fs::write(&path, bytes).unwrap();
        let (records, load) = ledger.load().unwrap();
        assert_eq!(load.quarantined, 1);
        assert_eq!(load.records, 1, "only run 2 survives");
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].run, 2);
        assert!(dir.join("run-000001.led.quarantined").exists());
        assert!(metrics.snapshot().counter(Counter::LedgerQuarantine) >= 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_container_version_is_kept_not_deleted() {
        let dir = tmpdir("stale");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run-000001.led");
        fs::write(&path, "homc-ledger v999\nwhatever").unwrap();
        let ledger = Ledger::new(&dir);
        let (records, load) = ledger.load().unwrap();
        assert_eq!(load.stale, 1);
        assert_eq!(load.quarantined, 0);
        assert!(records.is_empty());
        assert!(path.exists(), "history is never deleted");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_record_schema_decodes_with_version() {
        let payload =
            r#"{"schema":999,"run":9,"kind":"batch","program":"x","verdict":"safe","ok":1}"#;
        let r = RunRecord::decode(payload).unwrap();
        assert_eq!(r.schema, 999);
        assert_eq!(r.program, "x");
        assert_eq!(r.wall_us, 0, "foreign fields are not guessed");
    }
}
