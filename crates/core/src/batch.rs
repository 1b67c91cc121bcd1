//! Batch verification: many programs through the `homc-serve` job pool.
//! It is the only way the `homc` CLI runs programs: a file or suite run is
//! a batch with one worker.
//!
//! Each job runs once, under its own budget (deadline, fuel) against a
//! **private** query cache, so one job's failure — panic, exhaustion — can
//! neither poison another job's state nor abort the batch: an exhausted
//! job reports the verifier's `Unknown`, a panicking one a structured
//! `Unknown` entry. With a cache dir, the disk tier is loaded once,
//! undecoded, into one read-only [`DiskTier`](homc_serve::DiskTier) that
//! every job's cache asks on a private miss: a record is decoded only when
//! a query hits it, and no job holds a copy of the tier. After the fleet
//! drains, the union of every job's freshly solved queries is published
//! back to disk as one new append-only segment.
//!
//! Determinism: per-job fault injection ([`JobFault`]) covers job-thread
//! panics and fuel exhaustion; the disk tier's [`DiskFault`] covers torn
//! writes, truncation and checksum flips. Under a logical trace clock each
//! job's event stream is byte-identical to a solo run of the same program
//! (fresh caches, no disk dir), which the batch degradation test asserts.

use std::io;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use homc_metrics::{Counter, Counts, Surface};
use homc_serve::{run_jobs, DiskCache, DiskFault, Job, LoadReport, PoolConfig, PublishReport};
use homc_smt::QueryCache;
use homc_trace::{stable_hash64, Tracer};

use crate::suite::Expected;
use crate::verifier::{
    self_check, verify, ArtifactConfig, EvidenceConfig, UnknownReason, Verdict, VerifierOptions,
    VerifyStats,
};

/// A deterministic fault injected into one batch job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobFaultKind {
    /// The job body panics (trapped by the pool).
    Panic,
    /// The job runs with `fuel = 1`: retryable exhaustion, exercising the
    /// verifier's escalation retry before settling on a degraded `Unknown`.
    Exhaust,
}

/// `<job-index>:<panic|exhaust>`, as accepted by `homc batch --inject-job`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobFault {
    /// 0-based index of the target job in the submitted batch.
    pub job: usize,
    /// What goes wrong.
    pub kind: JobFaultKind,
}

impl FromStr for JobFault {
    type Err = String;

    fn from_str(s: &str) -> Result<JobFault, String> {
        let err = || format!("invalid job fault {s:?} (want <index>:panic or <index>:exhaust)");
        let (idx, kind) = s.split_once(':').ok_or_else(err)?;
        let job: usize = idx.parse().map_err(|_| err())?;
        let kind = match kind {
            "panic" => JobFaultKind::Panic,
            "exhaust" => JobFaultKind::Exhaust,
            _ => return Err(err()),
        };
        Ok(JobFault { job, kind })
    }
}

/// One unit of batch work.
#[derive(Clone, Debug)]
pub struct BatchJob {
    /// Display name (suite program name or file path).
    pub name: String,
    /// Source text.
    pub source: String,
    /// Expected verdict, when known (suite programs).
    pub expected: Option<Expected>,
}

/// Options for [`run_batch`].
#[derive(Clone)]
pub struct BatchOptions {
    /// Worker threads for the job pool.
    pub workers: usize,
    /// Directory of the persistent cache tier. `None` runs memory-only.
    pub cache_dir: Option<PathBuf>,
    /// Directory of the cross-run artifact store. Each job loads/publishes
    /// the artifact keyed by its own name, so a resubmitted batch re-verifies
    /// only the edited dependency cones. `None` runs cold.
    pub artifacts_dir: Option<PathBuf>,
    /// Directory of the verdict-evidence store. Each decisive job exports a
    /// certificate keyed by its own name and immediately *self-checks* it
    /// with the independent checker; a failed self-check demotes the job to
    /// `Failed` (the verdict cannot be trusted as recorded). `None` exports
    /// nothing.
    pub evidence_dir: Option<PathBuf>,
    /// Deterministic disk fault applied to the segment published at the end.
    pub disk_fault: Option<DiskFault>,
    /// Deterministic per-job faults.
    pub job_faults: Vec<JobFault>,
    /// When set, each job writes its trace to `<dir>/<name>.jsonl`; the
    /// directory is created on demand.
    pub trace_dir: Option<PathBuf>,
    /// Capture each job's trace in memory and return it in the report
    /// (ignored when `trace_dir` is set). Used by the degradation tests.
    pub capture_traces: bool,
    /// Logical trace clock (byte-deterministic streams).
    pub logical: bool,
    /// Live progress sink shared by the driver (`batch_start`/`job_queued`/
    /// `batch_job`/`batch_end`), the pool (`pool_job`/`pool_hb`) and every
    /// job's verifier (`job_phase`). Separate from the per-job trace sinks,
    /// so job traces are byte-identical with progress on or off.
    pub progress: Tracer,
    /// Base verifier options cloned for every job. The driver overrides
    /// `cache`, `progress`, `job`, `artifacts` and `evidence`,
    /// and `tracer` under `trace_dir` or `capture_traces` (otherwise every
    /// job shares this tracer, which suits one worker); `fuel` is
    /// overridden for jobs under an `Exhaust` fault.
    pub verify: VerifierOptions,
}

impl Default for BatchOptions {
    fn default() -> BatchOptions {
        BatchOptions {
            workers: 2,
            cache_dir: None,
            artifacts_dir: None,
            evidence_dir: None,
            disk_fault: None,
            job_faults: Vec::new(),
            trace_dir: None,
            capture_traces: false,
            logical: false,
            progress: Tracer::disabled(),
            verify: VerifierOptions::default(),
        }
    }
}

/// How one job is tallied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Decisive verdict matching the expectation (or any decisive verdict
    /// when there is none).
    Passed,
    /// Wrong decisive verdict or a hard (front-end) error.
    Failed,
    /// The job degraded: budget, injected fault, panic.
    Unknown,
}

impl JobStatus {
    /// The wire spelling used by progress events and `--json` output.
    pub fn as_str(self) -> &'static str {
        match self {
            JobStatus::Passed => "passed",
            JobStatus::Failed => "failed",
            JobStatus::Unknown => "unknown",
        }
    }
}

/// One job's terminal report. Every submitted job gets exactly one.
#[derive(Clone, Debug)]
pub struct JobReport {
    /// Job name.
    pub name: String,
    /// Tally bucket.
    pub status: JobStatus,
    /// The verdict, phrased like the CLI (`safe`, `unsafe`,
    /// `unknown (...)`), or the hard error text.
    pub verdict: String,
    /// Wall-clock time of the job (zero for a panicked one).
    pub wall: Duration,
    /// Program size `S` of the paper's Table 1 (0 without an outcome).
    pub size: usize,
    /// Program order `O` of the paper's Table 1 (0 without an outcome).
    pub order: usize,
    /// Effort counters, when verification produced an outcome at all.
    pub stats: Option<VerifyStats>,
    /// Digest of the exported evidence certificate (0 when none).
    pub evidence_digest: u64,
    /// Outcome of the in-run evidence self-check: `Some(true)` validated,
    /// `Some(false)` rejected (the job is demoted to `Failed`), `None` when
    /// no evidence was exported.
    pub check: Option<bool>,
    /// Captured in-memory trace (only with `capture_traces`).
    pub trace: Option<String>,
}

impl JobReport {
    /// The job's run counters (all zero without an outcome).
    fn counts(&self) -> Counts {
        self.stats
            .as_ref()
            .map(VerifyStats::counts)
            .unwrap_or_default()
    }
}

/// The complete batch report: one entry per job plus the tier summary.
/// `passed + failed + unknown == jobs.len()` always holds.
#[derive(Clone, Debug, Default)]
pub struct BatchReport {
    /// Per-job reports, in submission order.
    pub jobs: Vec<JobReport>,
    /// Jobs whose verdict matched.
    pub passed: usize,
    /// Jobs with a wrong verdict or hard error.
    pub failed: usize,
    /// Jobs that degraded to `unknown`.
    pub unknown: usize,
    /// Disk-tier load summary, when a cache dir was configured.
    pub load: Option<LoadReport>,
    /// Disk-tier publish summary, when a new segment was written.
    pub publish: Option<PublishReport>,
    /// Total lookups the disk tier answered (each job's first hit on a
    /// key), across all jobs.
    pub disk_hits: u64,
}

/// What one verification job carries through the pool.
struct Settled {
    status: JobStatus,
    verdict: String,
    wall: Duration,
    size: usize,
    order: usize,
    stats: Option<VerifyStats>,
    evidence_digest: u64,
    check: Option<bool>,
    trace: Option<String>,
}

impl Settled {
    /// A settlement without a verification outcome: a hard error or a
    /// trapped panic.
    fn without_outcome(status: JobStatus, verdict: String, wall: Duration) -> Settled {
        Settled {
            status,
            verdict,
            wall,
            size: 0,
            order: 0,
            stats: None,
            evidence_digest: 0,
            check: None,
            trace: None,
        }
    }
}

fn tally(verdict: &Verdict, expected: Option<Expected>) -> JobStatus {
    match (verdict, expected) {
        (Verdict::Unknown { .. }, _) => JobStatus::Unknown,
        (_, None) => JobStatus::Passed,
        (_, Some(Expected::Safe)) if verdict.is_safe() => JobStatus::Passed,
        (_, Some(Expected::Unsafe)) if verdict.is_unsafe() => JobStatus::Passed,
        (_, Some(Expected::Diverges)) if !verdict.is_unsafe() => JobStatus::Passed,
        _ => JobStatus::Failed,
    }
}

/// A trace-file name that cannot escape the trace dir.
fn trace_file_name(name: &str) -> String {
    let safe: String = name
        .chars()
        .map(|c| {
            if c.is_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    format!("{safe}.jsonl")
}

/// Runs every job to a terminal state and returns the complete report.
///
/// Fails only on environment-level I/O errors (unreadable cache directory,
/// unwritable trace dir) detected *before* any job starts; once the pool is
/// running, every failure mode degrades to a per-job report entry.
pub fn run_batch(jobs: Vec<BatchJob>, opts: &BatchOptions) -> io::Result<BatchReport> {
    let named = |path: &Path, e: io::Error| {
        io::Error::new(e.kind(), format!("cannot create {}: {e}", path.display()))
    };
    if let Some(dir) = &opts.trace_dir {
        std::fs::create_dir_all(dir).map_err(|e| named(dir, e))?;
    }
    let progress = &opts.progress;
    let batch_started = Instant::now();
    progress.emit("batch_start", |e| {
        e.num("jobs", jobs.len() as u64)
            .num("workers", opts.workers as u64)
            .str(
                "clock",
                if progress.is_logical() {
                    "logical"
                } else {
                    "wall"
                },
            );
    });
    for (i, job) in jobs.iter().enumerate() {
        progress.emit("job_queued", |e| {
            e.num("job", i as u64).str("name", &job.name);
        });
    }
    let disk = opts.cache_dir.as_ref().map(|dir| {
        let mut d = DiskCache::new(dir).with_metrics(opts.verify.metrics.clone());
        if opts.disk_fault.is_some() {
            d = d.with_fault(opts.disk_fault);
        }
        d
    });
    // An empty directory attaches no tier: a miss would render its key
    // for nothing.
    let (tier, load) = match &disk {
        Some(d) => {
            let (tier, rep) = d.load_tier()?;
            ((rep.records > 0).then(|| Arc::new(tier)), Some(rep))
        }
        None => (None, None),
    };

    // With a cache dir, each job's freshly solved queries move into one
    // union as the job ends, and the union is published after the fleet
    // drains. A job's private cache goes when the job settles, so no job's
    // memory (or `peak_bytes`) carries an earlier job's cache.
    let union = disk.as_ref().map(|_| Arc::new(QueryCache::new()));
    let mut pool_jobs: Vec<Job<Settled>> = Vec::with_capacity(jobs.len());
    for (i, job) in jobs.iter().enumerate() {
        let cache = Arc::new(QueryCache::new());
        if let Some(tier) = &tier {
            cache.attach_tier(tier.clone());
        }

        let fault = opts.job_faults.iter().find(|f| f.job == i).map(|f| f.kind);
        let mut vopts = opts.verify.clone();
        vopts.cache = Some(cache);
        vopts.progress = progress.clone();
        vopts.job = i as u64;
        vopts.artifacts = opts.artifacts_dir.as_ref().map(|dir| ArtifactConfig {
            dir: dir.clone(),
            key: job.name.clone(),
        });
        vopts.evidence = opts.evidence_dir.as_ref().map(|dir| EvidenceConfig {
            dir: Some(dir.clone()),
            key: job.name.clone(),
            source_hash: stable_hash64(&job.source),
        });
        if fault == Some(JobFaultKind::Exhaust) {
            vopts.fuel = Some(1);
        }
        let tracer = match &opts.trace_dir {
            Some(dir) => {
                let path = dir.join(trace_file_name(&job.name));
                Tracer::to_file(&path, opts.logical).map_err(|e| named(&path, e))?
            }
            None if opts.capture_traces => Tracer::memory(opts.logical),
            None => opts.verify.tracer.clone(),
        };
        vopts.tracer = tracer.clone();
        let capture = opts.capture_traces;

        let name = job.name.clone();
        let source = job.source.clone();
        let expected = job.expected;
        let union = union.clone();
        pool_jobs.push(Box::new(move || {
            if fault == Some(JobFaultKind::Panic) {
                panic!("injected fault: batch job body");
            }
            tracer.emit("run_start", |e| {
                e.str("name", &name).str(
                    "clock",
                    if tracer.is_logical() {
                        "logical"
                    } else {
                        "wall"
                    },
                );
            });
            let t = Instant::now();
            let mut result = verify(&source, &vopts);
            // The trust loop closes in-run: the certificate just exported
            // is handed straight to the independent checker, as the run's
            // `check` phase, inside its `total` and the job's `wall`.
            let check = result
                .as_mut()
                .ok()
                .and_then(|out| self_check(&source, &vopts, out));
            let wall = t.elapsed();
            if let (Some(union), Some(cache)) = (&union, &vopts.cache) {
                // `export_new_*` never returns a key the tier answered, so
                // only entries missing from disk reach the union.
                for (k, v) in cache.export_new_check() {
                    union.store_check(k, v);
                }
                for (k, v) in cache.export_new_cubes() {
                    union.store_cube(k, v);
                }
            }
            if let Err(e) = &result {
                tracer.emit("fault", |ev| {
                    ev.str("phase", "frontend")
                        .str("kind", "error")
                        .str("detail", &e.to_string());
                });
            }
            tracer.emit("run_end", |e| {
                e.num("dur_us", tracer.dur_us(t));
            });
            tracer.flush();
            // Only a per-job memory sink is snapshot: a tracer shared by
            // every job would be copied once per job.
            let trace = if capture { tracer.snapshot() } else { None };
            match result {
                Ok(out) => {
                    let mut status = tally(&out.verdict, expected);
                    let mut verdict = match &out.verdict {
                        Verdict::Safe => "safe".to_string(),
                        Verdict::Unsafe { .. } => "unsafe".to_string(),
                        Verdict::Unknown { reason } => format!("unknown ({reason})"),
                    };
                    // A rejected certificate is a *failure* — the recorded
                    // verdict has no standing evidence — and is spelled out
                    // in the verdict text so ledgers and `homc regress`
                    // flag the run.
                    if check == Some(false) {
                        status = JobStatus::Failed;
                        verdict.push_str(" (evidence check FAILED)");
                    }
                    Settled {
                        status,
                        verdict,
                        wall,
                        size: out.size,
                        order: out.order,
                        evidence_digest: out.stats.evidence_digest,
                        check,
                        stats: Some(out.stats),
                        trace,
                    }
                }
                Err(e) => Settled {
                    trace,
                    ..Settled::without_outcome(JobStatus::Failed, format!("error: {e}"), wall)
                },
            }
        }));
    }

    let config = PoolConfig {
        workers: opts.workers,
        metrics: opts.verify.metrics.clone(),
        progress: progress.clone(),
    };
    let results = run_jobs(pool_jobs, &config);

    let mut report = BatchReport {
        load,
        ..BatchReport::default()
    };
    for (job, res) in jobs.iter().zip(results) {
        let s = res.unwrap_or_else(|detail| {
            Settled::without_outcome(
                JobStatus::Unknown,
                format!("unknown ({})", UnknownReason::InternalFault(detail)),
                Duration::ZERO,
            )
        });
        let entry = JobReport {
            name: job.name.clone(),
            status: s.status,
            verdict: s.verdict,
            wall: s.wall,
            size: s.size,
            order: s.order,
            stats: s.stats,
            evidence_digest: s.evidence_digest,
            check: s.check,
            trace: s.trace,
        };
        match entry.status {
            JobStatus::Passed => report.passed += 1,
            JobStatus::Failed => report.failed += 1,
            JobStatus::Unknown => {
                report.unknown += 1;
                opts.verify.metrics.incr(Counter::JobsUnknown);
            }
        }
        if let Some(s) = &entry.stats {
            report.disk_hits += s.disk_hits;
        }
        report.jobs.push(entry);
    }

    // Settlement events go out after the drain, in submission order, so the
    // tail of the progress stream is deterministic (snapshot-testable) even
    // though the pool finished jobs in racy order. Wall times are zeroed
    // under a logical clock for the same reason.
    for (i, entry) in report.jobs.iter().enumerate() {
        progress.emit("batch_job", |e| {
            e.num("job", i as u64)
                .str("name", &entry.name)
                .str("status", entry.status.as_str())
                .str("verdict", &entry.verdict)
                .num(
                    "wall_us",
                    if progress.is_logical() {
                        0
                    } else {
                        entry.wall.as_micros() as u64
                    },
                );
            for (c, v) in entry.counts().on(Surface::Batch) {
                e.num(c.name(), v);
            }
        });
    }
    progress.emit("batch_end", |e| {
        e.num("passed", report.passed as u64)
            .num("failed", report.failed as u64)
            .num("unknown", report.unknown as u64)
            .num("dur_us", progress.dur_us(batch_started));
    });
    progress.flush();

    // Publish the union of every job's freshly solved queries as one new
    // segment.
    if let (Some(d), Some(union)) = (&disk, &union) {
        report.publish = d.publish(union)?;
    }
    Ok(report)
}

/// Schema version of [`render_batch_json`] output; bump on any field change.
/// Schema 2 added the per-job `evidence_digest` (hex string, null when no
/// certificate was exported) and `check` (self-check outcome) fields.
/// Schema 3 dropped the per-job retry fields (a job runs once); a job's
/// counters are the counter table's `Batch` rows.
pub const BATCH_SCHEMA: u64 = 3;

/// Machine-readable `homc batch --json` rendering: stable field order,
/// schema-versioned, newline-terminated. Wall times are zeroed when
/// `logical` so deterministic pipelines can golden the output.
pub fn render_batch_json(report: &BatchReport, workers: usize, logical: bool) -> String {
    use std::fmt::Write as _;
    let esc = homc_trace::escape_json;
    let mut s = String::with_capacity(1024);
    let _ = writeln!(s, "{{");
    let _ = writeln!(
        s,
        "  \"meta\": {{\"schema\": {BATCH_SCHEMA}, \"kind\": \"batch\", \"workers\": {workers}, \"clock\": \"{}\"}},",
        if logical { "logical" } else { "wall" }
    );
    let _ = writeln!(s, "  \"jobs\": [");
    for (i, j) in report.jobs.iter().enumerate() {
        let comma = if i + 1 == report.jobs.len() { "" } else { "," };
        let counters: String = j
            .counts()
            .on(Surface::Batch)
            .map(|(c, v)| format!("\"{}\": {v}, ", c.name()))
            .collect();
        // The digest is a full-width u64: emitted as a hex *string* so JSON
        // consumers limited to f64 numbers cannot corrupt it.
        let digest = if j.evidence_digest == 0 {
            "null".to_string()
        } else {
            format!("\"{:016x}\"", j.evidence_digest)
        };
        let check = match j.check {
            Some(true) => "\"pass\"",
            Some(false) => "\"fail\"",
            None => "null",
        };
        let _ = writeln!(
            s,
            "    {{\"name\": {}, \"status\": \"{}\", \"verdict\": {}, \"wall_us\": {}, \
             {counters}\"evidence_digest\": {digest}, \"check\": {check}}}{comma}",
            esc(&j.name),
            j.status.as_str(),
            esc(&j.verdict),
            if logical {
                0
            } else {
                j.wall.as_micros() as u64
            },
        );
    }
    let _ = writeln!(s, "  ],");
    let _ = writeln!(
        s,
        "  \"totals\": {{\"passed\": {}, \"failed\": {}, \"unknown\": {}, \"disk_hits\": {}}}",
        report.passed, report.failed, report.unknown, report.disk_hits
    );
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite;

    fn job(name: &str) -> BatchJob {
        let p = suite::find(name).expect("suite program");
        BatchJob {
            name: p.name.to_string(),
            source: p.source.to_string(),
            expected: Some(p.expected),
        }
    }

    #[test]
    fn job_fault_parses() {
        assert_eq!(
            "3:panic".parse::<JobFault>().unwrap(),
            JobFault {
                job: 3,
                kind: JobFaultKind::Panic
            }
        );
        assert_eq!(
            "0:exhaust".parse::<JobFault>().unwrap(),
            JobFault {
                job: 0,
                kind: JobFaultKind::Exhaust
            }
        );
        assert!("panic".parse::<JobFault>().is_err());
        assert!("x:panic".parse::<JobFault>().is_err());
        assert!("1:hang".parse::<JobFault>().is_err());
    }

    #[test]
    fn small_batch_all_pass() {
        let jobs = vec![job("sum"), job("max"), job("mult")];
        let n = jobs.len();
        let report = run_batch(jobs, &BatchOptions::default()).unwrap();
        assert_eq!(report.jobs.len(), n);
        assert_eq!(report.passed + report.failed + report.unknown, n);
        assert_eq!(report.failed, 0);
        assert!(report.load.is_none());
        assert!(report.publish.is_none());
    }

    #[test]
    fn progress_stream_is_schema_valid_with_deterministic_tail() {
        let progress = Tracer::memory(true);
        let opts = BatchOptions {
            progress: progress.clone(),
            logical: true,
            ..BatchOptions::default()
        };
        let report = run_batch(vec![job("sum"), job("max")], &opts).unwrap();
        let text = progress.snapshot().unwrap();
        homc_trace::validate_trace(&text).unwrap_or_else(|(n, e)| panic!("line {n}: {e}"));
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains("\"ev\":\"batch_start\""), "{}", lines[0]);
        assert!(lines[1].contains("\"ev\":\"job_queued\""), "{}", lines[1]);
        // The tail is settlement in submission order, then the tally.
        let tail = &lines[lines.len() - 3..];
        assert!(
            tail[0].contains("\"name\":\"sum\"") && tail[0].contains("\"wall_us\":0"),
            "{}",
            tail[0]
        );
        assert!(tail[1].contains("\"name\":\"max\""), "{}", tail[1]);
        assert!(tail[2].contains("\"ev\":\"batch_end\""), "{}", tail[2]);
        // Jobs entered CEGAR phases under the progress sink's eye.
        assert!(text.contains("\"ev\":\"job_phase\""), "{text}");

        let json = render_batch_json(&report, 2, true);
        assert_eq!(json, render_batch_json(&report, 2, true));
        assert!(json.contains("\"schema\": 3"), "{json}");
        assert!(json.contains("\"wall_us\": 0"), "{json}");
        assert!(
            !json.contains("attempts") && !json.contains("retry"),
            "{json}"
        );
        // No evidence dir was configured, so both new fields are null.
        assert!(json.contains("\"evidence_digest\": null"), "{json}");
        assert!(json.contains("\"check\": null"), "{json}");
    }

    #[test]
    fn evidence_dir_exports_and_self_checks() {
        let dir = std::env::temp_dir().join(format!("homc-batch-evd-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = BatchOptions {
            evidence_dir: Some(dir.clone()),
            ..BatchOptions::default()
        };
        let report = run_batch(vec![job("sum"), job("sum-e")], &opts).unwrap();
        assert_eq!(report.failed, 0, "self-check must not demote sound runs");
        for j in &report.jobs {
            assert_eq!(j.check, Some(true), "{} failed its self-check", j.name);
            assert_ne!(j.evidence_digest, 0, "{} exported no digest", j.name);
        }
        let json = render_batch_json(&report, 1, true);
        assert!(json.contains("\"check\": \"pass\""), "{json}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn progress_sink_leaves_job_traces_untouched() {
        // The acceptance bar: logical job traces must be byte-identical with
        // progress on or off, because progress events go to a separate sink.
        let base = BatchOptions {
            capture_traces: true,
            logical: true,
            ..BatchOptions::default()
        };
        let quiet = run_batch(vec![job("sum"), job("mc91")], &base).unwrap();
        let noisy_opts = BatchOptions {
            progress: Tracer::memory(true),
            ..base
        };
        let noisy = run_batch(vec![job("sum"), job("mc91")], &noisy_opts).unwrap();
        for (q, n) in quiet.jobs.iter().zip(&noisy.jobs) {
            assert_eq!(
                q.trace, n.trace,
                "trace of {} changed under progress",
                q.name
            );
        }
    }

    #[test]
    fn warm_disk_rerun_hits() {
        let dir = std::env::temp_dir().join(format!("homc-batch-warm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = BatchOptions {
            cache_dir: Some(dir.clone()),
            ..BatchOptions::default()
        };
        let cold = run_batch(vec![job("sum"), job("max")], &opts).unwrap();
        assert_eq!(cold.disk_hits, 0);
        assert!(cold.publish.is_some(), "cold run must publish a segment");
        let warm = run_batch(vec![job("sum"), job("max")], &opts).unwrap();
        assert!(warm.disk_hits > 0, "warm rerun must hit the disk tier");
        assert_eq!(warm.failed, 0);
        for (c, w) in cold.jobs.iter().zip(&warm.jobs) {
            assert_eq!(c.verdict, w.verdict, "warm verdict flip on {}", c.name);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
