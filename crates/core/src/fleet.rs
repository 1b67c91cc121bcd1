//! Fleet-view rendering (`homc top`) and run-ledger record assembly.
//!
//! [`render_top`] replays a progress event stream (the `--progress` sink:
//! `batch_start`, `job_queued`, `pool_job`, `pool_hb`, `job_phase`,
//! `batch_job`, `batch_end`) into a point-in-time fleet summary. It is a
//! pure function of the stream prefix it is given — the live `homc top`
//! loop re-reads the file and redraws, the deterministic `--snapshot` mode
//! renders once — so snapshot tests golden it directly. No ANSI here; the
//! CLI owns the screen.
//!
//! [`ledger_record`] folds one batch job's report into a
//! [`RunRecord`] for the persistent ledger, with the
//! counter snapshot from [`stats_counters`]; [`append_ledger`] appends a
//! run's records. The CLI's `--ledger` and `table1 --ledger` both write
//! through it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

use homc_budget::shown;
use homc_metrics::Surface;
use homc_serve::{AppendReport, Ledger, RunRecord};
use homc_trace::{parse_json, stable_hash64, JsonValue};

use crate::batch::{JobReport, JobStatus};
use crate::verifier::VerifyStats;

#[derive(Default)]
struct JobView {
    name: String,
    state: &'static str,
    worker: Option<u64>,
    phase: Option<String>,
    iter: Option<u64>,
    verdict: Option<String>,
}

#[derive(Default)]
struct FleetView {
    jobs_total: u64,
    workers: u64,
    clock: String,
    queued: u64,
    running: u64,
    done: u64,
    jobs: BTreeMap<u64, JobView>,
    tally: Option<(u64, u64, u64, u64)>,
}

fn num(v: &JsonValue, key: &str) -> u64 {
    v.get(key)
        .and_then(JsonValue::as_num)
        .and_then(|n| u64::try_from(n).ok())
        .unwrap_or(0)
}

fn text(v: &JsonValue, key: &str) -> String {
    v.get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or("")
        .to_string()
}

fn parse_view(stream: &str) -> FleetView {
    let mut view = FleetView::default();
    for line in stream.lines() {
        let Ok(v) = parse_json(line) else { continue };
        match v.get("ev").and_then(JsonValue::as_str).unwrap_or("") {
            "batch_start" => {
                view.jobs_total = num(&v, "jobs");
                view.workers = num(&v, "workers");
                view.clock = text(&v, "clock");
                view.queued = view.jobs_total;
            }
            "job_queued" => {
                let job = view.jobs.entry(num(&v, "job")).or_default();
                job.name = text(&v, "name");
                job.state = "queued";
            }
            "pool_hb" => {
                view.queued = num(&v, "queued");
                view.running = num(&v, "running");
                view.done = num(&v, "done");
            }
            "pool_job" => {
                let job = view.jobs.entry(num(&v, "job")).or_default();
                job.worker = Some(num(&v, "worker"));
                job.state = match v.get("state").and_then(JsonValue::as_str) {
                    Some("start") => "running",
                    Some("done") => "done",
                    Some("panic") => "panicked",
                    _ => job.state,
                };
                if job.state != "running" {
                    job.phase = None;
                    job.iter = None;
                }
            }
            "job_phase" => {
                let job = view.jobs.entry(num(&v, "job")).or_default();
                job.phase = Some(text(&v, "phase"));
                job.iter = Some(num(&v, "iter"));
            }
            "batch_job" => {
                let job = view.jobs.entry(num(&v, "job")).or_default();
                job.state = match text(&v, "status").as_str() {
                    "passed" => "passed",
                    "failed" => "failed",
                    _ => "unknown",
                };
                job.verdict = Some(text(&v, "verdict"));
            }
            "batch_end" => {
                view.tally = Some((
                    num(&v, "passed"),
                    num(&v, "failed"),
                    num(&v, "unknown"),
                    num(&v, "dur_us"),
                ));
            }
            _ => {}
        }
    }
    view
}

/// True once the stream carries a `batch_end` event — the live renderer's
/// stop condition.
pub fn progress_complete(stream: &str) -> bool {
    parse_view(stream).tally.is_some()
}

/// Renders the fleet summary for a progress-stream prefix. Plain text, one
/// deterministic layout; same prefix, same output.
pub fn render_top(stream: &str) -> String {
    let view = parse_view(stream);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fleet: {} job(s), {} worker(s), {} clock",
        view.jobs_total,
        view.workers,
        if view.clock.is_empty() {
            "wall"
        } else {
            &view.clock
        }
    );
    let _ = writeln!(
        out,
        "queued {}  running {}  done {}",
        view.queued, view.running, view.done
    );
    let _ = writeln!(
        out,
        "{:>4} {:<16} {:<10} {:>3} {:<8} verdict",
        "job", "name", "state", "wk", "phase"
    );
    for (id, job) in &view.jobs {
        let phase = match (&job.phase, job.iter) {
            (Some(p), Some(i)) => format!("{p}#{i}"),
            (Some(p), None) => p.clone(),
            _ => "-".to_string(),
        };
        let _ = writeln!(
            out,
            "{:>4} {:<16} {:<10} {:>3} {:<8} {}",
            id,
            job.name,
            if job.state.is_empty() {
                "queued"
            } else {
                job.state
            },
            job.worker.map_or("-".to_string(), |w| w.to_string()),
            phase,
            job.verdict.as_deref().unwrap_or("-")
        );
    }
    match view.tally {
        Some((passed, failed, unknown, dur_us)) => {
            let _ = writeln!(
                out,
                "tally: {passed} passed, {failed} failed, {unknown} unknown ({:.1}s)",
                dur_us as f64 / 1e6
            );
        }
        None => {
            let _ = writeln!(out, "tally: (batch still running)");
        }
    }
    out
}

/// The counter snapshot a ledger record carries: the run's headline facts
/// plus every [`Surface::Ledger`] counter, keyed by its `--stats` name.
pub fn stats_counters(stats: &VerifyStats) -> BTreeMap<String, u64> {
    let facts = [
        ("cycles", stats.cycles as u64),
        ("predicates", stats.predicates as u64),
        ("final_hbp_size", stats.final_hbp_size as u64),
        ("evidence_digest", stats.evidence_digest),
    ];
    let counts = stats.counts();
    let counters = counts.on(Surface::Ledger).map(|(c, v)| (c.name(), v));
    facts
        .into_iter()
        .chain(counters)
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

/// Builds one ledger record from a settled job. `schema`, `run` and `kind`
/// are stamped by `Ledger::append`; the job's trace (when captured) is
/// digested so two runs can be compared for behavioural identity without
/// storing the stream, and its certificate self-check, when it ran, is the
/// `evidence_check_pass` counter.
pub fn ledger_record(job: &JobReport) -> RunRecord {
    let mut r = RunRecord {
        program: job.name.clone(),
        verdict: job.verdict.clone(),
        ok: job.status == JobStatus::Passed,
        wall_us: job.wall.as_micros() as u64,
        trace_digest: job.trace.as_deref().map_or(0, stable_hash64),
        ..RunRecord::default()
    };
    if let Some(s) = &job.stats {
        let columns = s.time.columns(shown(Surface::Ledger)).into_iter();
        r.phase_us = columns.map(|(c, d)| (c, d.as_micros() as u64)).collect();
        r.total_us = s.total.as_micros() as u64;
        r.peak_bytes = s.peak_bytes;
        r.counters = stats_counters(s);
    }
    if let Some(ok) = job.check {
        r.counters
            .insert("evidence_check_pass".to_string(), u64::from(ok));
    }
    r
}

/// Appends one [`ledger_record`] per job to the run ledger in `dir`, as one
/// run of `kind` (`suite`, `file`, `batch` or `table1`).
pub fn append_ledger<'a>(
    dir: &Path,
    kind: &str,
    jobs: impl IntoIterator<Item = &'a JobReport>,
) -> io::Result<AppendReport> {
    let mut records: Vec<RunRecord> = jobs.into_iter().map(ledger_record).collect();
    Ledger::new(dir).append(kind, &mut records)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STREAM: &str = "\
{\"ts\":0,\"ev\":\"batch_start\",\"jobs\":2,\"workers\":2,\"clock\":\"logical\"}\n\
{\"ts\":1,\"ev\":\"job_queued\",\"job\":0,\"name\":\"sum\"}\n\
{\"ts\":2,\"ev\":\"job_queued\",\"job\":1,\"name\":\"mc91\"}\n\
{\"ts\":3,\"ev\":\"pool_job\",\"job\":0,\"worker\":0,\"state\":\"start\"}\n\
{\"ts\":4,\"ev\":\"pool_hb\",\"queued\":1,\"running\":1,\"done\":0}\n\
{\"ts\":5,\"ev\":\"job_phase\",\"job\":0,\"iter\":2,\"phase\":\"mc\"}\n";

    #[test]
    fn mid_run_snapshot_shows_live_state() {
        let out = render_top(STREAM);
        assert!(
            out.contains("fleet: 2 job(s), 2 worker(s), logical clock"),
            "{out}"
        );
        assert!(out.contains("queued 1  running 1  done 0"), "{out}");
        assert!(out.contains("mc#2"), "{out}");
        assert!(out.contains("mc91"), "{out}");
        assert!(out.contains("batch still running"), "{out}");
        assert!(!progress_complete(STREAM));
        // Pure over the prefix: same input, same render.
        assert_eq!(out, render_top(STREAM));
    }

    #[test]
    fn settled_stream_renders_tally() {
        let settled = format!(
            "{STREAM}\
{{\"ts\":6,\"ev\":\"pool_job\",\"job\":0,\"worker\":0,\"state\":\"done\"}}\n\
{{\"ts\":7,\"ev\":\"batch_job\",\"job\":0,\"name\":\"sum\",\"status\":\"passed\",\"verdict\":\"safe\",\"wall_us\":0,\"cache_hits\":4,\"disk_hits\":0}}\n\
{{\"ts\":8,\"ev\":\"batch_job\",\"job\":1,\"name\":\"mc91\",\"status\":\"unknown\",\"verdict\":\"unknown (deadline)\",\"wall_us\":0,\"cache_hits\":0,\"disk_hits\":0}}\n\
{{\"ts\":9,\"ev\":\"batch_end\",\"passed\":1,\"failed\":0,\"unknown\":1,\"dur_us\":2500000}}\n"
        );
        let out = render_top(&settled);
        assert!(progress_complete(&settled));
        assert!(
            out.contains("tally: 1 passed, 0 failed, 1 unknown (2.5s)"),
            "{out}"
        );
        assert!(out.contains("passed"), "{out}");
        assert!(out.contains("unknown (deadline)"), "{out}");
        // Phase column resets once the job leaves the running state.
        let sum_row = out.lines().find(|l| l.contains(" sum ")).unwrap();
        assert!(sum_row.contains(" - "), "{sum_row}");
    }

    #[test]
    fn ledger_record_carries_counters_and_digest() {
        let job = JobReport {
            name: "sum".to_string(),
            status: JobStatus::Passed,
            verdict: "safe".to_string(),
            wall: std::time::Duration::from_micros(1234),
            size: 0,
            order: 0,
            stats: Some(VerifyStats {
                cycles: 3,
                cache_hits: 17,
                ..VerifyStats::default()
            }),
            evidence_digest: 0,
            check: None,
            trace: Some("trace".to_string()),
        };
        let r = ledger_record(&job);
        assert_eq!(r.counters["cycles"], 3);
        assert_eq!(r.counters["cache_hits"], 17);
        assert_eq!(r.trace_digest, stable_hash64("trace"));
        assert_eq!(r.wall_us, 1234);
        assert!(r.ok);
        let bare = ledger_record(&JobReport {
            stats: None,
            trace: None,
            ..job
        });
        assert_eq!(bare.trace_digest, 0);
        assert!(bare.counters.is_empty());
    }
}
