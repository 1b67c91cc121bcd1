//! The `homc` command-line verifier.
//!
//! ```text
//! homc [options] <file.ml>       verify a source file
//! homc [options] --suite [name]  run the paper's Table 1 suite (or one program)
//! homc batch [batch-options] [program|file.ml ...]
//!                                   run many jobs through the work-stealing
//!                                   pool, each isolated under its own budget;
//!                                   failed/hung jobs degrade to `unknown`,
//!                                   never a process abort. With --cache-dir,
//!                                   SMT query results persist across runs in
//!                                   a versioned, checksummed segment store.
//! homc profile (<file.ml> | --suite [name]) [-o <out.folded>]
//!                                   self-profile: verify under a wall-clock
//!                                   tracer, fold the spans into
//!                                   flamegraph.pl-compatible stacks
//! homc trace-report <file.jsonl>    render a trace as a per-iteration timeline
//! homc trace-validate <file.jsonl>  check every line against the event schema
//! homc trace-diff <old.jsonl> <new.jsonl> [--threshold n=r[:s]]... [--gate]
//! homc bench-diff <old.json> <new.json>   [--threshold n=r[:s]]... [--gate]
//!                                   compare two runs; exit 1 on a threshold
//!                                   breach, 2 on a verdict flip, 3 when the
//!                                   inputs are incomparable (the exit codes
//!                                   of `regress` too)
//! homc top <progress.jsonl> [--snapshot] [--interval <secs>]
//!                                   tail a --progress stream and redraw a
//!                                   live fleet summary (worker state, queue
//!                                   depth, per-job phase); --snapshot renders
//!                                   the current state once, deterministically
//! homc history <ledger-dir> [program]
//!                                   per-program latency/verdict trends and
//!                                   p50/p90 summaries from the run ledger
//! homc regress <ledger-dir> [--window <n>] [--threshold n=r[:s]]...
//!                                   gate the newest ledger run against the
//!                                   median of the last <n> (default 5) runs
//!                                   of its kind; wall_us=1.5:100000 always
//!                                   applies
//! homc check (<file.ml> | --suite [program]) --evidence-dir <dir>
//!                                   independently re-establish recorded
//!                                   verdicts from exported evidence: safe
//!                                   certificates are proof-checked and
//!                                   their invariants re-closed, unsafe
//!                                   counterexamples replayed through the
//!                                   interpreter; no CEGAR, no SMT search
//! homc explain (<file.ml> | --suite <program>)
//!                                   verify one program and narrate the
//!                                   verdict: certificate summary, per-
//!                                   iteration predicate provenance, dead-
//!                                   predicate census, heaviest refuted
//!                                   queries (byte-deterministic output)
//!
//! options:
//!   --timeout <secs>      per-program wall-clock deadline (fractions allowed)
//!   --inject <phase:n[:kind]>  deterministically fail the n-th checkpoint of a
//!                         phase (abs|mc|feas|interp|smt); kind is error|panic
//!   --stats               print per-program effort counters (SMT queries,
//!                         query-cache hits/misses, worklist pops, rescans
//!                         avoided), peak heap bytes per phase, and the
//!                         metrics registry's histograms under each line
//!   --trace <file.jsonl>  write one JSON event per line: phase spans, one
//!                         record per CEGAR iteration, SMT solves, faults
//!   --trace-logical <file.jsonl>  same, under a logical clock (sequence
//!                         numbers instead of timestamps, durations zeroed):
//!                         byte-identical across runs and machines
//!   --progress <file.jsonl>  stream live fleet telemetry (queue depth, worker
//!                         state, per-job CEGAR phase) to a second sink that
//!                         `homc top` can tail; job traces are byte-identical
//!                         with progress on or off
//!   --ledger <dir>        append one checksummed record per program (verdict,
//!                         per-phase latencies, peak heap, counters, trace
//!                         digest) to the persistent run ledger that `homc
//!                         history` and `homc regress` read
//!   --metrics-out <file>  dump the metrics registry in Prometheus text
//!                         exposition format after the run
//!   --artifacts-dir <dir> persist each program's winning predicate
//!                         environment, per-definition abstractions, and
//!                         interpolants; a re-run after an edit diffs the
//!                         per-definition manifest and re-verifies only the
//!                         changed dependency cones (seeding is candidate-
//!                         only, so it can speed a run up but never change
//!                         its verdict)
//!   --evidence-dir <dir>  export a verdict-evidence certificate per decisive
//!                         program: safe runs record the final predicate
//!                         environment, the saturated invariant, and one
//!                         refutation proof per UNSAT query it depends on;
//!                         unsafe runs record the replayable counterexample.
//!                         `homc check` re-establishes the verdicts from the
//!                         directory alone
//! ```
//!
//! Every program reports exactly one of `safe`, `unsafe`, or `unknown`; the
//! suite ends with a `passed/failed/unknown` tally and the exit code is
//! non-zero iff some program *failed* (wrong verdict or hard error) —
//! `unknown` under a tight budget is a reported outcome, not a failure.

use std::io::Write;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use homc::{
    bench_diff, check_evidence, fold_trace, ledger_record, parse_threshold, progress_complete,
    regress, render_batch_json, render_explain, render_history, render_report, render_top,
    run_batch, stable_hash64, suite, trace_diff, validate_folded, validate_trace, verify,
    ArtifactConfig, BatchJob, BatchOptions, Counts, DiffOptions, DiskFault, EvidenceConfig,
    EvidenceStore, Expected, Fault, FaultPlan, JobFault, JobStatus, Ledger, Metrics, RunRecord,
    Surface, Tracer, TrendOptions, Verdict, VerifierOptions, VerifyStats,
};

// The binary (not the library) installs the counting allocator: tests and
// downstream crates see a plain [`std::alloc::System`], so their golden
// traces never grow `peak_bytes` fields, while `homc` runs report real
// per-phase heap watermarks.
#[global_allocator]
static COUNTING_ALLOC: homc_metrics::mem::CountingAlloc = homc_metrics::mem::CountingAlloc::new();

/// Indent of the `--stats` lines under a program's line (past its name).
const STATS_INDENT: &str = "             ";

fn fmt_d(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64())
}

/// Prints a report line, tolerating a closed stdout (`homc … | head` must
/// not panic on the broken pipe).
fn say(line: std::fmt::Arguments) {
    let _ = writeln!(std::io::stdout(), "{line}");
}

/// How one program's run is tallied.
#[derive(Clone, Copy, PartialEq, Eq)]
enum RunStatus {
    /// The verdict matched the expectation (or any decisive verdict, when
    /// there is no expectation).
    Passed,
    /// Wrong verdict or a hard error.
    Failed,
    /// The verifier gave up (budget, fault, inconclusive solver).
    Unknown,
}

/// What one program's run contributes to the suite tally.
struct RunReport {
    status: RunStatus,
    /// The verdict as printed (`safe`, `unsafe`, `unknown (...)`, or the
    /// hard error text) — what the ledger record carries.
    verdict: String,
    /// Wall-clock time for the whole run, including the front end (the
    /// per-phase `total` in [`VerifyStats`] covers only the CEGAR loop).
    wall: Duration,
    /// Effort counters, when verification produced an outcome at all.
    stats: Option<VerifyStats>,
}

fn run_one(
    name: &str,
    source: &str,
    expected: Option<Expected>,
    opts: &VerifierOptions,
    show_stats: bool,
) -> RunReport {
    let tracer = &opts.tracer;
    tracer.emit("run_start", |e| {
        e.str("name", name).str(
            "clock",
            if tracer.is_logical() {
                "logical"
            } else {
                "wall"
            },
        );
    });
    // The registry accumulates across the suite; the per-program report is
    // the delta against this pre-run snapshot.
    let metrics_before = opts.metrics.enabled().then(|| opts.metrics.snapshot());
    let t = Instant::now();
    let result = verify(source, opts);
    let wall = t.elapsed();
    let report = match result {
        Ok(out) => {
            let v = match &out.verdict {
                Verdict::Safe => "safe".to_string(),
                Verdict::Unsafe { .. } => "unsafe".to_string(),
                Verdict::Unknown { reason } => format!("unknown ({reason})"),
            };
            let status = match (&out.verdict, expected) {
                (Verdict::Unknown { .. }, _) => RunStatus::Unknown,
                (_, None) => RunStatus::Passed,
                (_, Some(Expected::Safe)) if out.verdict.is_safe() => RunStatus::Passed,
                (_, Some(Expected::Unsafe)) if out.verdict.is_unsafe() => RunStatus::Passed,
                (_, Some(Expected::Diverges)) if !out.verdict.is_unsafe() => RunStatus::Passed,
                _ => RunStatus::Failed,
            };
            say(format_args!(
                "{name:12} S={:4} O={} C={:2}  abst={} mc={} cegar={} total={} wall={}  -> {v}{}",
                out.size,
                out.order,
                out.stats.cycles,
                fmt_d(out.stats.abst),
                fmt_d(out.stats.mc),
                fmt_d(out.stats.cegar),
                fmt_d(out.stats.total),
                fmt_d(wall),
                if status == RunStatus::Failed {
                    "  ** UNEXPECTED **"
                } else {
                    ""
                },
            ));
            // An `unknown` run is precisely the one whose effort is worth
            // inspecting (what was it doing when the budget hit?), so its
            // partial counters are surfaced even without --stats.
            if show_stats || status == RunStatus::Unknown {
                let counts = out.stats.counts().render(Surface::Stats, STATS_INDENT);
                say(format_args!("{}", counts.trim_end()));
                if out.stats.evidence_digest != 0 {
                    say(format_args!(
                        "{:12} evidence_digest={:016x}",
                        "", out.stats.evidence_digest,
                    ));
                }
            }
            if show_stats && out.stats.peak_bytes > 0 {
                say(format_args!(
                    "{:12} peak_bytes={} (abs={} mc={} feas={} interp={})",
                    "",
                    out.stats.peak_bytes,
                    out.stats.peak_abs_bytes,
                    out.stats.peak_mc_bytes,
                    out.stats.peak_feas_bytes,
                    out.stats.peak_interp_bytes,
                ));
            }
            if show_stats {
                if let Some(before) = &metrics_before {
                    let delta = opts.metrics.snapshot().delta(before).registry_only();
                    let rendered = delta.render(STATS_INDENT);
                    if !rendered.is_empty() {
                        say(format_args!("{}", rendered.trim_end()));
                    }
                }
            }
            RunReport {
                status,
                verdict: v,
                wall,
                stats: Some(out.stats),
            }
        }
        Err(e) => {
            eprintln!("{name}: error: {e}");
            tracer.emit("fault", |ev| {
                ev.str("phase", "frontend")
                    .str("kind", "error")
                    .str("detail", &e.to_string());
            });
            RunReport {
                status: RunStatus::Failed,
                verdict: format!("error: {e}"),
                wall,
                stats: None,
            }
        }
    };
    tracer.emit("run_end", |e| {
        e.num("dur_us", tracer.dur_us(t));
    });
    tracer.flush();
    report
}

/// Emits the `batch_job` settlement event for one program to the progress
/// sink. The suite runner is a fleet of one worker, but it speaks the same
/// progress dialect as `homc batch`, so `homc top` reads either.
fn emit_settlement(progress: &Tracer, job: u64, name: &str, report: &RunReport) {
    progress.emit("batch_job", |e| {
        e.num("job", job)
            .str("name", name)
            .str(
                "status",
                match report.status {
                    RunStatus::Passed => "passed",
                    RunStatus::Failed => "failed",
                    RunStatus::Unknown => "unknown",
                },
            )
            .str("verdict", &report.verdict)
            .num(
                "wall_us",
                if progress.is_logical() {
                    0
                } else {
                    report.wall.as_micros() as u64
                },
            )
            .num("attempts", 1)
            .num(
                "cache_hits",
                report.stats.as_ref().map_or(0, |s| s.cache_hits),
            )
            .num(
                "disk_hits",
                report.stats.as_ref().map_or(0, |s| s.disk_hits),
            );
    });
}

struct Cli {
    timeout: Option<Duration>,
    faults: FaultPlan,
    suite: bool,
    stats: bool,
    trace: Option<(String, bool)>,
    progress: Option<String>,
    ledger: Option<String>,
    metrics_out: Option<String>,
    artifacts_dir: Option<String>,
    evidence_dir: Option<String>,
    target: Option<String>,
}

/// Every subcommand `main` dispatches on. The usage text and the dispatch
/// match are audited against this list by the `usage_audit` tests, so the
/// three can never drift apart silently.
const SUBCOMMANDS: &[&str] = &[
    "batch",
    "profile",
    "trace-report",
    "trace-validate",
    "trace-diff",
    "bench-diff",
    "top",
    "history",
    "regress",
    "check",
    "explain",
];

const USAGE: &str = "\
usage: homc [--timeout <secs>] [--inject <phase:n[:kind]>] [--stats] \
[--trace <out.jsonl> | --trace-logical <out.jsonl>]\n\
\x20           [--progress <out.jsonl>] [--ledger <dir>] [--metrics-out <file>] \
[--artifacts-dir <dir>] [--evidence-dir <dir>] (<file.ml> | --suite [program])\n\
\x20      homc batch [--workers <n>] [--cache-dir <dir>] [--artifacts-dir <dir>] \
[--evidence-dir <dir>] [--trace-dir <dir>] [--logical]\n\
\x20                 [--timeout <secs>] [--watchdog <secs>] [--stats] [--json]\n\
\x20                 [--progress <out.jsonl>] [--ledger <dir>] [--metrics-out <file>]\n\
\x20                 [--inject-job <idx:panic|exhaust>]\n\
\x20                 [--inject-disk <torn:b|trunc:r|flipsum:r|flip:o>] [program|file ...]\n\
\x20      homc profile (<file.ml> | --suite [program]) [-o <out.folded>]\n\
\x20      homc trace-report <file.jsonl>\n\
\x20      homc trace-validate <file.jsonl>\n\
\x20      homc trace-diff <old.jsonl> <new.jsonl> [--threshold <n=r[:s]>]... [--gate]\n\
\x20      homc bench-diff <old.json> <new.json> [--threshold <n=r[:s]>]... [--gate]\n\
\x20      homc top <progress.jsonl> [--snapshot] [--interval <secs>]\n\
\x20      homc history <ledger-dir> [program]\n\
\x20      homc regress <ledger-dir> [--window <n>] [--threshold <n=r[:s]>]...\n\
\x20      homc check (<file.ml> | --suite [program]) --evidence-dir <dir>\n\
\x20      homc explain (<file.ml> | --suite <program>) [--evidence-dir <dir>] \
[--trace-logical <out.jsonl>]";

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::FAILURE
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        timeout: None,
        faults: FaultPlan::none(),
        suite: false,
        stats: false,
        trace: None,
        progress: None,
        ledger: None,
        metrics_out: None,
        artifacts_dir: None,
        evidence_dir: None,
        target: None,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--timeout" => {
                let v = args.get(i + 1).ok_or("--timeout needs a value")?;
                let secs: f64 = v
                    .parse()
                    .map_err(|_| format!("invalid --timeout value {v:?}"))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err(format!("--timeout must be positive, got {v:?}"));
                }
                cli.timeout = Some(Duration::from_secs_f64(secs));
                i += 2;
            }
            "--inject" => {
                let v = args.get(i + 1).ok_or("--inject needs a value")?;
                let fault: Fault = v.parse().map_err(|e| format!("{e}"))?;
                cli.faults.push(fault);
                i += 2;
            }
            "--suite" => {
                cli.suite = true;
                i += 1;
            }
            "--stats" => {
                cli.stats = true;
                i += 1;
            }
            flag @ ("--trace" | "--trace-logical") => {
                let v = args
                    .get(i + 1)
                    .ok_or_else(|| format!("{flag} needs a path"))?;
                if cli.trace.is_some() {
                    return Err("at most one of --trace/--trace-logical".to_string());
                }
                cli.trace = Some((v.clone(), flag == "--trace-logical"));
                i += 2;
            }
            flag @ ("--progress" | "--ledger" | "--metrics-out" | "--artifacts-dir"
            | "--evidence-dir") => {
                let v = args
                    .get(i + 1)
                    .ok_or_else(|| format!("{flag} needs a path"))?;
                let slot = match flag {
                    "--progress" => &mut cli.progress,
                    "--ledger" => &mut cli.ledger,
                    "--artifacts-dir" => &mut cli.artifacts_dir,
                    "--evidence-dir" => &mut cli.evidence_dir,
                    _ => &mut cli.metrics_out,
                };
                *slot = Some(v.clone());
                i += 2;
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            other => {
                if cli.target.is_some() {
                    return Err(format!("unexpected extra argument {other:?}"));
                }
                cli.target = Some(other.to_string());
                i += 1;
            }
        }
    }
    Ok(cli)
}

/// `homc trace-validate <file.jsonl>`: every line must parse and satisfy the
/// event schema; exit non-zero (with the first offending line) otherwise.
fn cmd_trace_validate(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("homc: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match validate_trace(&text) {
        Ok(n) => {
            say(format_args!("{path}: {n} events, schema-valid"));
            ExitCode::SUCCESS
        }
        Err((line, e)) => {
            eprintln!("homc: {path}:{line}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `homc trace-report <file.jsonl>`: per-run iteration timeline plus the
/// top-k hottest SMT queries.
fn cmd_trace_report(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("homc: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    say(format_args!("{}", render_report(&text).trim_end()));
    ExitCode::SUCCESS
}

/// `homc trace-diff` / `bench-diff` / `regress`: distill the inputs, gate
/// them in the one engine, and exit by severity (0 clean, 1 threshold
/// breach, 2 verdict flip, 3 incomparable).
fn cmd_diff(kind: &str, args: &[String]) -> ExitCode {
    let ledger = kind == "regress";
    let mut opts = DiffOptions::default();
    let mut window = TrendOptions::default().window;
    let mut paths: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--gate" if !ledger => {
                opts.gate = true;
                i += 1;
            }
            // `--window` belongs to `regress` alone.
            flag @ ("--threshold" | "--window") if flag == "--threshold" || ledger => {
                let Some(v) = args.get(i + 1) else {
                    eprintln!("homc: {flag} needs a value");
                    return usage();
                };
                let parsed = if flag == "--threshold" {
                    parse_threshold(v).map(|rule| opts.thresholds.push(rule))
                } else {
                    let n = v.parse::<usize>().ok().filter(|&n| n > 0);
                    n.map(|n| window = n)
                        .ok_or(format!("--window must be a positive integer, got {v:?}"))
                };
                if let Err(e) = parsed {
                    eprintln!("homc: {e}");
                    return ExitCode::FAILURE;
                }
                i += 2;
            }
            flag if flag.starts_with("--") => {
                eprintln!("homc: unknown {kind} flag {flag}");
                return usage();
            }
            other => {
                paths.push(other.to_string());
                i += 1;
            }
        }
    }
    let report = match paths.as_slice() {
        [dir] if ledger => {
            let Some(records) = load_ledger(dir) else {
                return ExitCode::from(3);
            };
            let thresholds = opts.thresholds;
            regress(&records, &TrendOptions { window, thresholds })
        }
        [old_path, new_path] if !ledger => {
            let read = |p: &String| match std::fs::read_to_string(p) {
                Ok(t) => Some(t),
                Err(e) => {
                    eprintln!("homc: cannot read {p}: {e}");
                    None
                }
            };
            let (Some(old), Some(new)) = (read(old_path), read(new_path)) else {
                return ExitCode::from(3);
            };
            match kind {
                "trace-diff" => trace_diff(&old, &new, &opts),
                _ => bench_diff(&old, &new, &opts),
            }
        }
        _ => {
            let inputs = if ledger { "one ledger dir" } else { "exactly two input files" };
            eprintln!("homc: {kind} needs {inputs}");
            return usage();
        }
    };
    say(format_args!("{}", report.text.trim_end()));
    ExitCode::from(report.exit_code())
}

/// `homc profile`: verify under an in-memory wall-clock tracer, fold the
/// span events into flamegraph-compatible stacks, and verify telescoping.
fn cmd_profile(args: &[String]) -> ExitCode {
    let mut out_path: Option<String> = None;
    let mut suite_mode = false;
    let mut target: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-o" => {
                let Some(v) = args.get(i + 1) else {
                    eprintln!("homc: -o needs a path");
                    return usage();
                };
                out_path = Some(v.clone());
                i += 2;
            }
            "--suite" => {
                suite_mode = true;
                i += 1;
            }
            flag if flag.starts_with("--") => {
                eprintln!("homc: unknown profile flag {flag}");
                return usage();
            }
            other => {
                if target.is_some() {
                    eprintln!("homc: unexpected extra argument {other:?}");
                    return usage();
                }
                target = Some(other.to_string());
                i += 1;
            }
        }
    }
    // Wall clock (the profiler needs real durations), one abstraction
    // thread (clean span nesting), events buffered in memory.
    let tracer = Tracer::memory(false);
    let mut opts = VerifierOptions {
        tracer: tracer.clone(),
        ..VerifierOptions::default()
    };
    opts.abs.threads = 1;
    if suite_mode {
        let filter = target;
        let mut matched = false;
        for p in suite::SUITE {
            if let Some(f) = &filter {
                if p.name != f {
                    continue;
                }
            }
            matched = true;
            run_one(p.name, p.source, Some(p.expected), &opts, false);
        }
        if !matched {
            eprintln!(
                "homc: no suite program named {:?}",
                filter.as_deref().unwrap_or("")
            );
            return ExitCode::FAILURE;
        }
    } else {
        let Some(path) = target else {
            return usage();
        };
        let src = match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("homc: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if run_one(&path, &src, None, &opts, false).status == RunStatus::Failed {
            return ExitCode::FAILURE;
        }
    }
    let trace_text = tracer.snapshot().unwrap_or_default();
    let profile = fold_trace(&trace_text);
    say(format_args!("{}", profile.render_tree().trim_end()));
    if let Err(e) = profile.check_telescoping() {
        eprintln!("homc: profile: {e}");
        return ExitCode::FAILURE;
    }
    let folded = profile.folded();
    if let Err(e) = validate_folded(&folded) {
        eprintln!("homc: profile: malformed folded output: {e}");
        return ExitCode::FAILURE;
    }
    if let Some(out) = out_path {
        if let Err(e) = std::fs::write(&out, &folded) {
            eprintln!("homc: cannot write {out}: {e}");
            return ExitCode::FAILURE;
        }
        say(format_args!(
            "wrote {} folded stack(s) to {out}",
            folded.lines().count()
        ));
    }
    ExitCode::SUCCESS
}

/// Writes the metrics registry in Prometheus text exposition format.
/// Best-effort by design: a failed dump warns on stderr but never changes
/// the exit code of the run that produced it.
fn write_metrics_out(path: &str, metrics: &Metrics) {
    if let Err(e) = std::fs::write(path, metrics.snapshot().render_prometheus()) {
        eprintln!("homc: cannot write --metrics-out {path}: {e}");
    }
}

/// Appends one run's records to the ledger. Ledger trouble is reported but
/// never changes the run's exit code: observability must not fail the run
/// it observes.
fn append_ledger(dir: &str, kind: &str, mut records: Vec<RunRecord>) {
    if records.is_empty() {
        return;
    }
    // Narration goes to stderr so `--json` stdout stays a pure document.
    match Ledger::new(dir).append(kind, &mut records) {
        Ok(r) => eprintln!(
            "homc: ledger: run {} ({} record(s)) -> {}",
            r.run,
            r.records,
            r.path.display()
        ),
        Err(e) => eprintln!("homc: ledger append failed: {e}"),
    }
}

/// Loads a ledger directory, narrating quarantines/stale segments on
/// stderr (they are diagnostics, not data).
fn load_ledger(dir: &str) -> Option<Vec<RunRecord>> {
    match Ledger::new(dir).load() {
        Ok((records, load)) => {
            if load.quarantined > 0 || load.stale > 0 || load.bad_records > 0 {
                eprintln!("homc: ledger: {load}");
            }
            Some(records)
        }
        Err(e) => {
            eprintln!("homc: cannot load ledger {dir}: {e}");
            None
        }
    }
}

/// `homc top <progress.jsonl>`: render a live fleet view of a `--progress`
/// stream. `--snapshot` renders the current state once (deterministic, for
/// tests and scripts); otherwise the screen is redrawn every `--interval`
/// seconds until the stream carries `batch_end`.
fn cmd_top(args: &[String]) -> ExitCode {
    let mut snapshot = false;
    let mut interval = Duration::from_millis(500);
    let mut path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--snapshot" => {
                snapshot = true;
                i += 1;
            }
            "--interval" => {
                let Some(v) = args.get(i + 1) else {
                    eprintln!("homc: --interval needs a value");
                    return usage();
                };
                match v.parse::<f64>() {
                    Ok(s) if s.is_finite() && s > 0.0 => interval = Duration::from_secs_f64(s),
                    _ => {
                        eprintln!("homc: --interval must be positive seconds, got {v:?}");
                        return ExitCode::FAILURE;
                    }
                }
                i += 2;
            }
            flag if flag.starts_with("--") => {
                eprintln!("homc: unknown top flag {flag}");
                return usage();
            }
            other => {
                if path.is_some() {
                    eprintln!("homc: unexpected extra argument {other:?}");
                    return usage();
                }
                path = Some(other.to_string());
                i += 1;
            }
        }
    }
    let Some(path) = path else {
        return usage();
    };
    loop {
        let stream = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("homc: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if snapshot {
            say(format_args!("{}", render_top(&stream).trim_end()));
            return ExitCode::SUCCESS;
        }
        // Home + clear-to-end, then the frame: plain ANSI, no terminal
        // library. A dumb pipe just sees the frames separated by escapes.
        let mut out = std::io::stdout();
        let _ = write!(out, "\x1b[H\x1b[2J{}", render_top(&stream));
        let _ = out.flush();
        if progress_complete(&stream) {
            return ExitCode::SUCCESS;
        }
        std::thread::sleep(interval);
    }
}

/// `homc history <ledger-dir> [program]`: per-program latency/verdict
/// trends across every recorded run.
fn cmd_history(args: &[String]) -> ExitCode {
    let (Some(dir), filter) = (args.first(), args.get(1)) else {
        return usage();
    };
    if args.len() > 2 {
        eprintln!("homc: history takes at most a ledger dir and a program filter");
        return usage();
    }
    let Some(records) = load_ledger(dir) else {
        return ExitCode::FAILURE;
    };
    say(format_args!(
        "{}",
        render_history(&records, filter.map(String::as_str)).trim_end()
    ));
    ExitCode::SUCCESS
}

/// Shared target resolution for `check`/`explain`: suite names (all of the
/// suite, or one filtered program) or a readable source file. Each entry is
/// `(key, source)` where the key matches what a verifying run with
/// `--evidence-dir` published under.
fn resolve_targets(
    suite_mode: bool,
    target: Option<&str>,
) -> Result<Vec<(String, String)>, String> {
    if suite_mode {
        let picked: Vec<(String, String)> = suite::SUITE
            .iter()
            .filter(|p| target.is_none_or(|f| p.name == f))
            .map(|p| (p.name.to_string(), p.source.to_string()))
            .collect();
        if picked.is_empty() {
            return Err(format!(
                "no suite program named {:?}",
                target.unwrap_or("")
            ));
        }
        Ok(picked)
    } else {
        let Some(path) = target else {
            return Err("check/explain need a source file or --suite".to_string());
        };
        let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Ok(vec![(path.to_string(), src)])
    }
}

/// `homc check`: re-establish verdicts from exported evidence, without the
/// CEGAR/SMT search path. Every certificate is validated independently —
/// proofs re-verified by arithmetic, the invariant re-closed, unsafe
/// witnesses replayed through the interpreter. A full-suite sweep tolerates
/// programs with no evidence on disk (an undecided run exports none); an
/// explicitly named target must have evidence. Exit is non-zero on any
/// failed (or quarantined) certificate.
fn cmd_check(args: &[String]) -> ExitCode {
    let mut evidence_dir: Option<String> = None;
    let mut suite_mode = false;
    let mut target: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--evidence-dir" => {
                let Some(v) = args.get(i + 1) else {
                    eprintln!("homc: --evidence-dir needs a path");
                    return usage();
                };
                evidence_dir = Some(v.clone());
                i += 2;
            }
            "--suite" => {
                suite_mode = true;
                i += 1;
            }
            flag if flag.starts_with("--") => {
                eprintln!("homc: unknown check flag {flag}");
                return usage();
            }
            other => {
                if target.is_some() {
                    eprintln!("homc: unexpected extra argument {other:?}");
                    return usage();
                }
                target = Some(other.to_string());
                i += 1;
            }
        }
    }
    let Some(dir) = evidence_dir else {
        eprintln!("homc: check needs --evidence-dir <dir>");
        return usage();
    };
    let targets = match resolve_targets(suite_mode, target.as_deref()) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("homc: {e}");
            return ExitCode::FAILURE;
        }
    };
    // A full-suite sweep may legitimately skip evidence-less programs; an
    // explicitly named target may not.
    let explicit = !suite_mode || target.is_some();
    let store = EvidenceStore::new(dir.as_str());
    let (mut passed, mut failed, mut missing) = (0usize, 0usize, 0usize);
    for (key, src) in &targets {
        let t = Instant::now();
        let line = match store.load(key) {
            Err(e) => {
                failed += 1;
                format!("fail (evidence store: {e})")
            }
            Ok(load) if load.quarantined => {
                failed += 1;
                "fail (evidence quarantined: integrity violation)".to_string()
            }
            Ok(load) => match load.evidence {
                None => {
                    missing += 1;
                    "no evidence".to_string()
                }
                Some(ev) => match check_evidence(src, &ev, &Metrics::disabled()) {
                    Ok(rep) if rep.claimed == "safe" => {
                        passed += 1;
                        format!(
                            "pass (safe: {} proof(s), {} typing(s){})",
                            rep.proofs_verified,
                            rep.invariant_typings,
                            if rep.unproved > 0 {
                                format!(", {} unproved", rep.unproved)
                            } else {
                                String::new()
                            },
                        )
                    }
                    Ok(_) => {
                        passed += 1;
                        "pass (unsafe: counterexample replays to fail)".to_string()
                    }
                    Err(e) => {
                        failed += 1;
                        format!("fail ({e})")
                    }
                },
            },
        };
        say(format_args!(
            "{key:12} check={} -> {line}",
            fmt_d(t.elapsed())
        ));
    }
    say(format_args!(
        "checked: {passed} pass, {failed} fail, {missing} missing"
    ));
    if failed > 0 || (missing > 0 && explicit) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `homc explain`: verify one program with evidence capture and render the
/// human narrative — verdict and certificate summary, per-iteration
/// predicate provenance, dead-predicate census, heaviest refuted queries.
/// The narrative is a pure function of the evidence, so two runs of the
/// same build render byte-identically (the tier-1 determinism smoke).
fn cmd_explain(args: &[String]) -> ExitCode {
    let mut evidence_dir: Option<String> = None;
    let mut suite_mode = false;
    let mut target: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            flag @ ("--evidence-dir" | "--trace-logical") => {
                let Some(v) = args.get(i + 1) else {
                    eprintln!("homc: {flag} needs a path");
                    return usage();
                };
                if flag == "--evidence-dir" {
                    evidence_dir = Some(v.clone());
                } else {
                    trace_out = Some(v.clone());
                }
                i += 2;
            }
            "--suite" => {
                suite_mode = true;
                i += 1;
            }
            flag if flag.starts_with("--") => {
                eprintln!("homc: unknown explain flag {flag}");
                return usage();
            }
            other => {
                if target.is_some() {
                    eprintln!("homc: unexpected extra argument {other:?}");
                    return usage();
                }
                target = Some(other.to_string());
                i += 1;
            }
        }
    }
    if suite_mode && target.is_none() {
        eprintln!("homc: explain --suite needs one program name");
        return usage();
    }
    let mut targets = match resolve_targets(suite_mode, target.as_deref()) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("homc: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (key, source) = targets.remove(0);
    let tracer = match &trace_out {
        None => Tracer::disabled(),
        Some(path) => match Tracer::to_file(std::path::Path::new(path), true) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("homc: cannot open trace file {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    let opts = VerifierOptions {
        tracer: tracer.clone(),
        evidence: Some(EvidenceConfig {
            dir: evidence_dir.map(Into::into),
            key: key.clone(),
            source_hash: stable_hash64(&source),
        }),
        ..VerifierOptions::default()
    };
    let out = match verify(&source, &opts) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("homc: {key}: error: {e}");
            return ExitCode::FAILURE;
        }
    };
    tracer.flush();
    match out.evidence {
        Some(ev) => {
            print!("{}", render_explain(&ev, out.stats.preds_dead));
            let _ = std::io::stdout().flush();
            ExitCode::SUCCESS
        }
        None => {
            let v = match &out.verdict {
                Verdict::Unknown { reason } => format!("unknown ({reason})"),
                _ => "decisive but evidence-less".to_string(),
            };
            eprintln!("homc: explain: no evidence to narrate — verdict {v}");
            ExitCode::FAILURE
        }
    }
}

/// `homc batch`: the crash-safe fleet runner. Every job gets exactly one
/// report line; the exit code reflects only *failed* (wrong-verdict) jobs.
fn cmd_batch(args: &[String]) -> ExitCode {
    let mut opts = BatchOptions::default();
    let mut targets: Vec<String> = Vec::new();
    let mut stats_on = false;
    let mut json = false;
    let mut progress_path: Option<String> = None;
    let mut ledger_dir: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let need = |flag: &str| format!("homc: {flag} needs a value");
        match args[i].as_str() {
            "--workers" => {
                let Some(v) = args.get(i + 1) else {
                    eprintln!("{}", need("--workers"));
                    return usage();
                };
                match v.parse::<usize>() {
                    Ok(n) if n > 0 => opts.workers = n,
                    _ => {
                        eprintln!("homc: --workers must be a positive integer, got {v:?}");
                        return ExitCode::FAILURE;
                    }
                }
                i += 2;
            }
            "--cache-dir" => {
                let Some(v) = args.get(i + 1) else {
                    eprintln!("{}", need("--cache-dir"));
                    return usage();
                };
                opts.cache_dir = Some(std::path::PathBuf::from(v));
                i += 2;
            }
            "--artifacts-dir" => {
                let Some(v) = args.get(i + 1) else {
                    eprintln!("{}", need("--artifacts-dir"));
                    return usage();
                };
                opts.artifacts_dir = Some(std::path::PathBuf::from(v));
                i += 2;
            }
            "--trace-dir" => {
                let Some(v) = args.get(i + 1) else {
                    eprintln!("{}", need("--trace-dir"));
                    return usage();
                };
                opts.trace_dir = Some(std::path::PathBuf::from(v));
                i += 2;
            }
            "--evidence-dir" => {
                let Some(v) = args.get(i + 1) else {
                    eprintln!("{}", need("--evidence-dir"));
                    return usage();
                };
                opts.evidence_dir = Some(std::path::PathBuf::from(v));
                i += 2;
            }
            "--logical" => {
                opts.logical = true;
                i += 1;
            }
            flag @ ("--timeout" | "--watchdog") => {
                let Some(v) = args.get(i + 1) else {
                    eprintln!("{}", need(flag));
                    return usage();
                };
                let secs: f64 = match v.parse() {
                    Ok(s) => s,
                    Err(_) => {
                        eprintln!("homc: invalid {flag} value {v:?}");
                        return ExitCode::FAILURE;
                    }
                };
                if !secs.is_finite() || secs <= 0.0 {
                    eprintln!("homc: {flag} must be positive, got {v:?}");
                    return ExitCode::FAILURE;
                }
                let d = Duration::from_secs_f64(secs);
                if flag == "--timeout" {
                    opts.verify.timeout = Some(d);
                } else {
                    opts.watchdog = Some(d);
                }
                i += 2;
            }
            "--inject-job" => {
                let Some(v) = args.get(i + 1) else {
                    eprintln!("{}", need("--inject-job"));
                    return usage();
                };
                match v.parse::<JobFault>() {
                    Ok(f) => opts.job_faults.push(f),
                    Err(e) => {
                        eprintln!("homc: {e}");
                        return ExitCode::FAILURE;
                    }
                }
                i += 2;
            }
            "--inject-disk" => {
                let Some(v) = args.get(i + 1) else {
                    eprintln!("{}", need("--inject-disk"));
                    return usage();
                };
                match v.parse::<DiskFault>() {
                    Ok(f) => opts.disk_fault = Some(f),
                    Err(e) => {
                        eprintln!("homc: {e}");
                        return ExitCode::FAILURE;
                    }
                }
                i += 2;
            }
            "--stats" => {
                stats_on = true;
                i += 1;
            }
            "--json" => {
                json = true;
                i += 1;
            }
            flag @ ("--progress" | "--ledger" | "--metrics-out") => {
                let Some(v) = args.get(i + 1) else {
                    eprintln!("{}", need(flag));
                    return usage();
                };
                let slot = match flag {
                    "--progress" => &mut progress_path,
                    "--ledger" => &mut ledger_dir,
                    _ => &mut metrics_out,
                };
                *slot = Some(v.clone());
                i += 2;
            }
            flag if flag.starts_with("--") => {
                eprintln!("homc: unknown batch flag {flag}");
                return usage();
            }
            other => {
                targets.push(other.to_string());
                i += 1;
            }
        }
    }
    // No targets: the whole Table 1 suite. Otherwise each target is a suite
    // program name or a source file path.
    let mut jobs: Vec<BatchJob> = Vec::new();
    if targets.is_empty() {
        for p in suite::SUITE {
            jobs.push(BatchJob {
                name: p.name.to_string(),
                source: p.source.to_string(),
                expected: Some(p.expected),
            });
        }
    } else {
        for t in &targets {
            if let Some(p) = suite::find(t) {
                jobs.push(BatchJob {
                    name: p.name.to_string(),
                    source: p.source.to_string(),
                    expected: Some(p.expected),
                });
            } else {
                match std::fs::read_to_string(t) {
                    Ok(src) => jobs.push(BatchJob {
                        name: t.clone(),
                        source: src,
                        expected: None,
                    }),
                    Err(e) => {
                        eprintln!(
                            "homc: {t:?} is neither a suite program nor a readable file: {e}"
                        );
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
    }
    // Flags are order-insensitive: metrics and progress sinks are built
    // only after the whole command line (notably --logical) is parsed.
    if stats_on || metrics_out.is_some() {
        opts.verify.metrics = Metrics::new(opts.logical);
    }
    if let Some(p) = &progress_path {
        opts.progress = match Tracer::to_file(std::path::Path::new(p), opts.logical) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("homc: cannot open progress file {p}: {e}");
                return ExitCode::FAILURE;
            }
        };
    }
    let report = match run_batch(jobs, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("homc: batch: {e}");
            return ExitCode::FAILURE;
        }
    };
    if json {
        // Machine mode: stdout carries exactly one JSON document.
        print!("{}", render_batch_json(&report, opts.workers, opts.logical));
        let _ = std::io::stdout().flush();
    } else {
        for j in &report.jobs {
            let retried = if j.attempts > 1 {
                format!(
                    "  (attempts={}{})",
                    j.attempts,
                    match &j.retry_detail {
                        Some(d) => format!(", retried after {d}"),
                        None => String::new(),
                    }
                )
            } else {
                String::new()
            };
            let evidence = match j.check {
                Some(true) => "  evidence=ok",
                Some(false) => "  evidence=FAIL",
                None => "",
            };
            say(format_args!(
                "{:12} wall={} -> {}{}{}{}",
                j.name,
                fmt_d(j.wall),
                j.verdict,
                if j.status == JobStatus::Failed {
                    "  ** UNEXPECTED **"
                } else {
                    ""
                },
                evidence,
                retried,
            ));
        }
        say(format_args!(
            "passed {}, failed {}, unknown {}  ({} jobs, {} workers)",
            report.passed,
            report.failed,
            report.unknown,
            report.jobs.len(),
            opts.workers,
        ));
        if let Some(load) = &report.load {
            say(format_args!(
                "cache load: {load}  disk hits {}",
                report.disk_hits
            ));
        }
        if let Some(p) = &report.publish {
            say(format_args!(
                "cache publish: {} record(s), {} bytes -> {}",
                p.records,
                p.bytes,
                p.path.display()
            ));
        }
        if stats_on {
            let rendered = opts.verify.metrics.snapshot().render("  ");
            if !rendered.is_empty() {
                say(format_args!("{}", rendered.trim_end()));
            }
        }
    }
    if let Some(dir) = &ledger_dir {
        let records: Vec<RunRecord> = report
            .jobs
            .iter()
            .map(|j| {
                let mut r = ledger_record(
                    &j.name,
                    &j.verdict,
                    j.status == JobStatus::Passed,
                    j.wall.as_micros() as u64,
                    j.stats.as_ref(),
                    j.trace.as_deref(),
                );
                if let Some(ok) = j.check {
                    r.counters
                        .insert("evidence_check_pass".to_string(), u64::from(ok));
                }
                r
            })
            .collect();
        append_ledger(dir, "batch", records);
    }
    if let Some(path) = &metrics_out {
        write_metrics_out(path, &opts.verify.metrics);
    }
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return usage();
    }
    match args[0].as_str() {
        "trace-validate" => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            return cmd_trace_validate(path);
        }
        "trace-report" => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            return cmd_trace_report(path);
        }
        kind @ ("trace-diff" | "bench-diff" | "regress") => {
            return cmd_diff(kind, &args[1..]);
        }
        "profile" => {
            return cmd_profile(&args[1..]);
        }
        "batch" => {
            return cmd_batch(&args[1..]);
        }
        "top" => {
            return cmd_top(&args[1..]);
        }
        "history" => {
            return cmd_history(&args[1..]);
        }
        "check" => {
            return cmd_check(&args[1..]);
        }
        "explain" => {
            return cmd_explain(&args[1..]);
        }
        _ => {}
    }
    debug_assert!(
        !SUBCOMMANDS.contains(&args[0].as_str()),
        "subcommand {:?} listed but not dispatched",
        args[0]
    );
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("homc: {e}");
            return usage();
        }
    };
    let tracer = match &cli.trace {
        None => Tracer::disabled(),
        Some((path, logical)) => match Tracer::to_file(std::path::Path::new(path), *logical) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("homc: cannot open trace file {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    // The progress sink is separate from the job tracer by construction:
    // that separation is what keeps --trace-logical streams byte-identical
    // with progress on or off. It inherits the job tracer's clock so a
    // logical run stays deterministic end to end.
    let progress = match &cli.progress {
        None => Tracer::disabled(),
        Some(path) => match Tracer::to_file(std::path::Path::new(path), tracer.is_logical()) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("homc: cannot open progress file {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    // The budget (deadline + fault plan) is per program: each run_one call
    // builds a fresh Budget from these options. The metrics registry only
    // exists when --stats or --metrics-out will render it; under a logical
    // tracer it zeroes durations so the run stays reproducible.
    let metrics = if cli.stats || cli.metrics_out.is_some() {
        Metrics::new(tracer.is_logical())
    } else {
        Metrics::disabled()
    };
    let opts = VerifierOptions {
        timeout: cli.timeout,
        faults: cli.faults.clone(),
        tracer: tracer.clone(),
        metrics,
        progress: progress.clone(),
        ..VerifierOptions::default()
    };

    if cli.suite {
        let filter = cli.target;
        let programs: Vec<_> = suite::SUITE
            .iter()
            .filter(|p| filter.as_deref().is_none_or(|f| p.name == f))
            .collect();
        if programs.is_empty() {
            eprintln!(
                "homc: no suite program named {:?}",
                filter.as_deref().unwrap_or("")
            );
            return ExitCode::FAILURE;
        }
        // The suite is a fleet of one worker: frame it like a batch so the
        // progress stream replays in `homc top`.
        progress.emit("batch_start", |e| {
            e.num("jobs", programs.len() as u64).num("workers", 1).str(
                "clock",
                if progress.is_logical() {
                    "logical"
                } else {
                    "wall"
                },
            );
        });
        for (i, p) in programs.iter().enumerate() {
            progress.emit("job_queued", |e| {
                e.num("job", i as u64).str("name", p.name);
            });
        }
        let suite_start = Instant::now();
        let (mut passed, mut failed, mut unknown) = (0usize, 0usize, 0usize);
        let mut wall = Duration::ZERO;
        let mut totals = Counts::default();
        let mut ledger_records: Vec<RunRecord> = Vec::new();
        for (i, p) in programs.iter().enumerate() {
            let mut per = opts.clone();
            per.job = i as u64;
            per.artifacts = cli.artifacts_dir.as_ref().map(|dir| ArtifactConfig {
                dir: dir.into(),
                key: p.name.to_string(),
            });
            per.evidence = cli.evidence_dir.as_ref().map(|dir| EvidenceConfig {
                dir: Some(dir.into()),
                key: p.name.to_string(),
                source_hash: stable_hash64(p.source),
            });
            let report = run_one(p.name, p.source, Some(p.expected), &per, cli.stats);
            emit_settlement(&progress, i as u64, p.name, &report);
            match report.status {
                RunStatus::Passed => passed += 1,
                RunStatus::Failed => failed += 1,
                RunStatus::Unknown => unknown += 1,
            }
            wall += report.wall;
            if cli.ledger.is_some() {
                ledger_records.push(ledger_record(
                    p.name,
                    &report.verdict,
                    report.status == RunStatus::Passed,
                    report.wall.as_micros() as u64,
                    report.stats.as_ref(),
                    None,
                ));
            }
            if let Some(s) = &report.stats {
                totals.merge(&s.counts());
            }
        }
        progress.emit("batch_end", |e| {
            e.num("passed", passed as u64)
                .num("failed", failed as u64)
                .num("unknown", unknown as u64)
                .num("dur_us", progress.dur_us(suite_start));
        });
        progress.flush();
        say(format_args!(
            "passed {passed}, failed {failed}, unknown {unknown}  wall={}",
            fmt_d(wall)
        ));
        say(format_args!(
            "suite totals:\n{}",
            totals.render(Surface::Stats, "  ").trim_end()
        ));
        if let Some(dir) = &cli.ledger {
            append_ledger(dir, "suite", ledger_records);
        }
        if let Some(path) = &cli.metrics_out {
            write_metrics_out(path, &opts.metrics);
        }
        if failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    } else {
        let Some(path) = cli.target else {
            return usage();
        };
        let src = match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("homc: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        progress.emit("batch_start", |e| {
            e.num("jobs", 1).num("workers", 1).str(
                "clock",
                if progress.is_logical() {
                    "logical"
                } else {
                    "wall"
                },
            );
        });
        progress.emit("job_queued", |e| {
            e.num("job", 0).str("name", &path);
        });
        // A file is keyed by its path: re-running `homc <file>` after an
        // edit is exactly the warm diff-and-seed scenario.
        let mut opts = opts;
        opts.artifacts = cli.artifacts_dir.as_ref().map(|dir| ArtifactConfig {
            dir: dir.into(),
            key: path.clone(),
        });
        opts.evidence = cli.evidence_dir.as_ref().map(|dir| EvidenceConfig {
            dir: Some(dir.into()),
            key: path.clone(),
            source_hash: stable_hash64(&src),
        });
        let t = Instant::now();
        let report = run_one(&path, &src, None, &opts, cli.stats);
        emit_settlement(&progress, 0, &path, &report);
        progress.emit("batch_end", |e| {
            e.num("passed", u64::from(report.status == RunStatus::Passed))
                .num("failed", u64::from(report.status == RunStatus::Failed))
                .num("unknown", u64::from(report.status == RunStatus::Unknown))
                .num("dur_us", progress.dur_us(t));
        });
        progress.flush();
        if let Some(dir) = &cli.ledger {
            append_ledger(
                dir,
                "file",
                vec![ledger_record(
                    &path,
                    &report.verdict,
                    report.status == RunStatus::Passed,
                    report.wall.as_micros() as u64,
                    report.stats.as_ref(),
                    None,
                )],
            );
        }
        if let Some(p) = &cli.metrics_out {
            write_metrics_out(p, &opts.metrics);
        }
        match report.status {
            RunStatus::Failed => ExitCode::FAILURE,
            RunStatus::Passed | RunStatus::Unknown => ExitCode::SUCCESS,
        }
    }
}

#[cfg(test)]
mod usage_audit {
    use super::{SUBCOMMANDS, USAGE};

    /// Forward direction: every dispatched subcommand is documented.
    #[test]
    fn every_subcommand_is_in_the_usage_text() {
        for cmd in SUBCOMMANDS {
            assert!(
                USAGE.contains(&format!("homc {cmd} ")),
                "subcommand {cmd:?} missing from the usage text"
            );
        }
    }

    /// Reverse direction: every `homc <word>` the usage text advertises is
    /// actually dispatched. Together with the forward test (and the
    /// debug_assert in main over the same const), renaming or removing a
    /// subcommand without updating the usage string fails the build's tests
    /// instead of shipping stale help.
    #[test]
    fn every_advertised_subcommand_is_dispatched() {
        let mut advertised = Vec::new();
        for line in USAGE.lines() {
            let mut words = line.split_whitespace().skip_while(|w| *w != "homc");
            let (Some(_), Some(next)) = (words.next(), words.next()) else {
                continue;
            };
            // `homc [--timeout ...]` is the main mode, not a subcommand.
            if !next.starts_with(['-', '[', '(', '<']) {
                advertised.push(next.to_string());
            }
        }
        assert!(!advertised.is_empty(), "usage text lost its homc lines");
        for cmd in &advertised {
            assert!(
                SUBCOMMANDS.contains(&cmd.as_str()),
                "usage advertises {cmd:?} but main() does not dispatch it"
            );
        }
        // The audit is meaningful only if it sees every subcommand.
        for cmd in SUBCOMMANDS {
            assert!(
                advertised.iter().any(|a| a == cmd),
                "usage line for {cmd:?} not parsed by the audit"
            );
        }
    }

    /// The cross-run artifact flag must be advertised for both modes that
    /// accept it (main and `batch`) and actually parsed by the main mode.
    #[test]
    fn artifacts_dir_flag_is_advertised_and_parsed() {
        assert!(
            USAGE.matches("--artifacts-dir").count() >= 2,
            "--artifacts-dir must appear in both the main and batch usage lines"
        );
        let cli = super::parse_args(&[
            "--artifacts-dir".to_string(),
            "store".to_string(),
            "prog.ml".to_string(),
        ])
        .expect("parses");
        assert_eq!(cli.artifacts_dir.as_deref(), Some("store"));
        assert_eq!(cli.target.as_deref(), Some("prog.ml"));
    }
}
