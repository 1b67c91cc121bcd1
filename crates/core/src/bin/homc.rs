//! The `homc` command-line verifier. `USAGE` below lists every command and
//! every option.
//!
//! Three commands run programs, and they are one driver: `homc [options]
//! <target>...`, `homc batch` and `homc profile` parse the same run options,
//! resolve their targets to suite programs or source files, verify them
//! through [`homc::run_batch`] (each job under its own budget; a panicking
//! or exhausted job degrades to `unknown`, never a process abort) and print
//! one report. They differ only in defaults: `batch` runs two workers, and
//! the whole suite when it is given no target; `profile` runs one worker
//! under a wall-clock trace, then prints the span tree and writes
//! flamegraph-compatible folded stacks.
//!
//! The other commands read what runs leave behind: traces (`trace-report`,
//! `trace-validate`, `trace-diff`), `table1 --json` baselines
//! (`bench-diff`), progress streams (`top`), the run ledger (`history`,
//! `regress`) and verdict evidence (`check`, `explain`).
//!
//! Every program reports exactly one of `safe`, `unsafe`, or `unknown`; a
//! run ends with a `passed/failed/unknown` tally and the exit code is
//! non-zero iff some program *failed* (wrong verdict or hard error) —
//! `unknown` under a tight budget is a reported outcome, not a failure.

use std::io::Write;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use homc::{
    append_ledger, bench_diff, check_evidence, fold_trace, parse_threshold, progress_complete,
    regress, render_batch_json, render_explain, render_history, render_report, render_top,
    run_batch, shown, stable_hash64, suite, trace_diff, validate_folded, validate_trace, verify,
    BatchJob, BatchOptions, BatchReport, Counts, DiffOptions, EvidenceConfig, EvidenceStore, Fault,
    JobStatus, Ledger, Metrics, RunRecord, Surface, Tracer, TrendOptions, Verdict, VerifierOptions,
};

// The binary (not the library) installs the counting allocator: tests and
// downstream crates see a plain [`std::alloc::System`], so their golden
// traces never grow `peak_bytes` fields, while `homc` runs report real
// per-phase heap watermarks.
#[global_allocator]
static COUNTING_ALLOC: homc_metrics::mem::CountingAlloc = homc_metrics::mem::CountingAlloc::new();

/// Indent of the `--stats` lines under a job's line (past its name).
const STATS_INDENT: &str = "             ";

fn fmt_d(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64())
}

/// Prints a report line, tolerating a closed stdout (`homc … | head` must
/// not panic on the broken pipe).
fn say(line: std::fmt::Arguments) {
    let _ = writeln!(std::io::stdout(), "{line}");
}

/// Prints a diagnostic, tolerating a closed stderr: a bad flag must exit 1
/// with the usage text even when nothing reads it (`homc --bogus 2>&1 |
/// head -1`), not panic with exit 101.
fn warn(line: std::fmt::Arguments) {
    let _ = writeln!(std::io::stderr(), "{line}");
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

const USAGE: &str = "usage: homc [run-options] (<file.ml|program>... | --suite [program...])
       homc batch [run-options] [<file.ml|program>...]
       homc profile [run-options] (<file.ml|program>... | --suite [program...]) [-o <out.folded>]
       homc trace-report <file.jsonl>
       homc trace-validate <file.jsonl>
       homc trace-diff <old.jsonl> <new.jsonl> [--threshold <n=r[:s]>]... [--gate]
       homc bench-diff <old.json> <new.json> [--threshold <n=r[:s]>]... [--gate]
       homc top <progress.jsonl> [--snapshot] [--interval <secs>]
       homc history <ledger-dir> [program]
       homc regress <ledger-dir> [--window <n>] [--threshold <n=r[:s]>]...
       homc check (<file.ml|program>... | --suite [program...]) --evidence-dir <dir>
       homc explain (<file.ml|program> | --suite <program>) [--evidence-dir <dir>] \
[--trace-logical <out.jsonl>]
run options (a target is a suite program name or a source file; batch alone runs the
whole suite without one):
  --suite                    targets are suite program names; none means the whole suite
  --timeout <secs>           per-program wall-clock deadline (fractions allowed)
  --inject <phase:n[:kind]>  fail the n-th checkpoint of abs|mc|feas|interp|smt (error|panic)
  --inject-job <idx:panic|exhaust>  fault one job of the run
  --workers <n>              pool workers (default 1, 2 under batch; profile takes 1)
  --stats                    per-job counters and peak heap, run totals, metrics registry
  --json                     print the report as one schema-versioned JSON document
  --trace <out.jsonl>        one JSONL event trace of the whole run (one worker)
  --trace-logical <out.jsonl>  the same under a logical clock: byte-identical across runs
  --trace-dir <dir>          one JSONL trace per job, <dir>/<name>.jsonl
  --logical                  logical clock for every trace, progress and metrics sink
  --progress <out.jsonl>     live fleet telemetry that the top command tails
  --ledger <dir>             append one record per program to the run ledger
  --metrics-out <file>       dump the metrics registry in Prometheus text format
  --cache-dir <dir>          persist SMT query results across runs
  --artifacts-dir <dir>      persist abstractions; a re-run re-verifies only edited cones
  --evidence-dir <dir>       export and self-check a certificate per decided program";

fn usage() -> ExitCode {
    warn(format_args!("{USAGE}"));
    ExitCode::FAILURE
}

/// A positive number of seconds, as `--timeout` and `--interval` take.
fn seconds(flag: &str, v: &str) -> Result<Duration, String> {
    let secs: f64 = v
        .parse()
        .map_err(|_| format!("invalid {flag} value {v:?}"))?;
    if !secs.is_finite() || secs <= 0.0 {
        return Err(format!("{flag} must be positive, got {v:?}"));
    }
    Ok(Duration::from_secs_f64(secs))
}

/// `homc trace-validate <file.jsonl>`: every line must parse and satisfy the
/// event schema; exit non-zero (with the first offending line) otherwise.
fn cmd_trace_validate(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            warn(format_args!("homc: cannot read {path}: {e}"));
            return ExitCode::FAILURE;
        }
    };
    match validate_trace(&text) {
        Ok(n) => {
            say(format_args!("{path}: {n} events, schema-valid"));
            ExitCode::SUCCESS
        }
        Err((line, e)) => {
            warn(format_args!("homc: {path}:{line}: {e}"));
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
            warn(format_args!("homc: cannot read {path}: {e}"));
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
                    warn(format_args!("homc: {flag} needs a value"));
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
                    warn(format_args!("homc: {e}"));
                    return ExitCode::FAILURE;
                }
                i += 2;
            }
            flag if flag.starts_with("--") => {
                warn(format_args!("homc: unknown {kind} flag {flag}"));
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
                    warn(format_args!("homc: cannot read {p}: {e}"));
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
            let inputs = if ledger {
                "one ledger dir"
            } else {
                "exactly two input files"
            };
            warn(format_args!("homc: {kind} needs {inputs}"));
            return usage();
        }
    };
    say(format_args!("{}", report.text.trim_end()));
    ExitCode::from(report.exit_code())
}

/// Writes the metrics registry in Prometheus text exposition format.
/// Best-effort by design: a failed dump warns on stderr but never changes
/// the exit code of the run that produced it.
fn write_metrics_out(path: &str, metrics: &Metrics) {
    if let Err(e) = std::fs::write(path, metrics.snapshot().render_prometheus()) {
        warn(format_args!("homc: cannot write --metrics-out {path}: {e}"));
    }
}

/// Loads a ledger directory, narrating quarantines/stale segments on
/// stderr (they are diagnostics, not data).
fn load_ledger(dir: &str) -> Option<Vec<RunRecord>> {
    match Ledger::new(dir).load() {
        Ok((records, load)) => {
            if load.quarantined > 0 || load.stale > 0 || load.bad_records > 0 {
                warn(format_args!("homc: ledger: {load}"));
            }
            Some(records)
        }
        Err(e) => {
            warn(format_args!("homc: cannot load ledger {dir}: {e}"));
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
                    warn(format_args!("homc: --interval needs a value"));
                    return usage();
                };
                match seconds("--interval", v) {
                    Ok(d) => interval = d,
                    Err(e) => {
                        warn(format_args!("homc: {e}"));
                        return ExitCode::FAILURE;
                    }
                }
                i += 2;
            }
            flag if flag.starts_with("--") => {
                warn(format_args!("homc: unknown top flag {flag}"));
                return usage();
            }
            other => {
                if path.is_some() {
                    warn(format_args!("homc: unexpected extra argument {other:?}"));
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
                warn(format_args!("homc: cannot read {path}: {e}"));
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
        warn(format_args!(
            "homc: history takes at most a ledger dir and a program filter"
        ));
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
    let mut targets: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--evidence-dir" => {
                let Some(v) = args.get(i + 1) else {
                    warn(format_args!("homc: --evidence-dir needs a path"));
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
                warn(format_args!("homc: unknown check flag {flag}"));
                return usage();
            }
            other => {
                targets.push(other.to_string());
                i += 1;
            }
        }
    }
    let Some(dir) = evidence_dir else {
        warn(format_args!("homc: check needs --evidence-dir <dir>"));
        return usage();
    };
    if !suite_mode && targets.is_empty() {
        warn(format_args!(
            "homc: check needs a source file, a program or --suite"
        ));
        return usage();
    }
    let jobs = match resolve_jobs(suite_mode, &targets) {
        Ok(jobs) => jobs,
        Err(e) => {
            warn(format_args!("homc: {e}"));
            return ExitCode::FAILURE;
        }
    };
    // A full-suite sweep may legitimately skip evidence-less programs; an
    // explicitly named target may not.
    let explicit = !targets.is_empty();
    let store = EvidenceStore::new(dir.as_str());
    let (mut passed, mut failed, mut missing) = (0usize, 0usize, 0usize);
    for BatchJob {
        name: key, source, ..
    } in &jobs
    {
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
                Some(ev) => match check_evidence(source, &ev, &Metrics::disabled()) {
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
    let mut targets: Vec<String> = Vec::new();
    let mut trace_out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            flag @ ("--evidence-dir" | "--trace-logical") => {
                let Some(v) = args.get(i + 1) else {
                    warn(format_args!("homc: {flag} needs a path"));
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
                warn(format_args!("homc: unknown explain flag {flag}"));
                return usage();
            }
            other => {
                targets.push(other.to_string());
                i += 1;
            }
        }
    }
    if targets.len() != 1 {
        warn(format_args!(
            "homc: explain needs one source file or program"
        ));
        return usage();
    }
    let BatchJob {
        name: key, source, ..
    } = match resolve_jobs(suite_mode, &targets) {
        Ok(mut jobs) => jobs.remove(0),
        Err(e) => {
            warn(format_args!("homc: {e}"));
            return ExitCode::FAILURE;
        }
    };
    let tracer = match &trace_out {
        None => Tracer::disabled(),
        Some(path) => match Tracer::to_file(Path::new(path), true) {
            Ok(t) => t,
            Err(e) => {
                warn(format_args!("homc: cannot open trace file {path}: {e}"));
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
            warn(format_args!("homc: {key}: error: {e}"));
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
            warn(format_args!(
                "homc: explain: no evidence to narrate — verdict {v}"
            ));
            ExitCode::FAILURE
        }
    }
}

/// The jobs that targets name. With `--suite` each target is a suite
/// program name; otherwise each is a suite program name or a readable
/// source file, keyed by its path. No target means the whole suite.
fn resolve_jobs(suite_mode: bool, targets: &[String]) -> Result<Vec<BatchJob>, String> {
    let program = |p: &suite::SuiteProgram| BatchJob {
        name: p.name.to_string(),
        source: p.source.to_string(),
        expected: Some(p.expected),
    };
    if targets.is_empty() {
        return Ok(suite::SUITE.iter().map(program).collect());
    }
    targets
        .iter()
        .map(|t| match suite::find(t) {
            Some(p) => Ok(program(p)),
            None if suite_mode => Err(format!("no suite program named {t:?}")),
            None => std::fs::read_to_string(t)
                .map(|source| BatchJob {
                    name: t.clone(),
                    source,
                    expected: None,
                })
                .map_err(|e| format!("{t:?} is neither a suite program nor a readable file: {e}")),
        })
        .collect()
}

/// A command that runs programs. All three take the same run options and
/// differ only in defaults and in what follows the report.
#[derive(Clone, Copy, PartialEq, Eq)]
enum RunCmd {
    /// `homc [options] <target>...`: needs a target or `--suite`.
    Plain,
    /// `homc batch`: two workers by default; no target runs the suite.
    Batch,
    /// `homc profile`: one worker under its own wall-clock trace, folded
    /// into a span tree and flamegraph stacks after the report.
    Profile,
}

/// A parsed run command line.
struct RunArgs {
    /// Pool, store and verifier options, as [`run_batch`] takes them.
    batch: BatchOptions,
    suite: bool,
    targets: Vec<String>,
    stats: bool,
    json: bool,
    /// `--trace`/`--trace-logical`: one trace file that every job writes.
    trace: Option<String>,
    progress: Option<String>,
    ledger: Option<String>,
    metrics_out: Option<String>,
    /// Profile's `-o`: where the folded stacks go.
    out: Option<String>,
}

/// The one run-option parser. Flags are order-insensitive: sinks are
/// opened only once the whole command line (notably `--logical`) is known.
fn parse_run(cmd: RunCmd, args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        batch: BatchOptions {
            workers: if cmd == RunCmd::Batch { 2 } else { 1 },
            ..BatchOptions::default()
        },
        suite: false,
        targets: Vec::new(),
        stats: false,
        json: false,
        trace: None,
        progress: None,
        ledger: None,
        metrics_out: None,
        out: None,
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let flag = arg.as_str();
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        let opts = &mut run.batch;
        match flag {
            "--suite" => run.suite = true,
            "--stats" => run.stats = true,
            "--json" => run.json = true,
            "--logical" => opts.logical = true,
            "--timeout" => opts.verify.timeout = Some(seconds(flag, value()?)?),
            "--workers" => {
                let v = value()?;
                opts.workers =
                    v.parse().ok().filter(|&n| n > 0).ok_or_else(|| {
                        format!("--workers must be a positive integer, got {v:?}")
                    })?;
            }
            "--inject" => {
                let fault: Fault = value()?.parse().map_err(|e| format!("{e}"))?;
                opts.verify.faults.push(fault);
            }
            "--inject-job" => opts.job_faults.push(value()?.parse()?),
            "--trace" | "--trace-logical" => {
                if run.trace.is_some() {
                    return Err("at most one of --trace/--trace-logical".to_string());
                }
                run.trace = Some(value()?.clone());
                opts.logical |= flag == "--trace-logical";
            }
            "--trace-dir" => opts.trace_dir = Some(value()?.into()),
            "--cache-dir" => opts.cache_dir = Some(value()?.into()),
            "--artifacts-dir" => opts.artifacts_dir = Some(value()?.into()),
            "--evidence-dir" => opts.evidence_dir = Some(value()?.into()),
            "--progress" => run.progress = Some(value()?.clone()),
            "--ledger" => run.ledger = Some(value()?.clone()),
            "--metrics-out" => run.metrics_out = Some(value()?.clone()),
            "-o" if cmd == RunCmd::Profile => run.out = Some(value()?.clone()),
            _ if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            _ => run.targets.push(arg.clone()),
        }
    }
    let opts = &run.batch;
    if cmd == RunCmd::Profile {
        if run.trace.is_some() || opts.trace_dir.is_some() || opts.logical {
            return Err("profile records its own wall-clock trace: --trace, \
                        --trace-logical, --trace-dir and --logical do not apply"
                .to_string());
        }
        if opts.workers != 1 {
            return Err("profile runs one worker".to_string());
        }
    }
    if run.trace.is_some() && (opts.trace_dir.is_some() || opts.workers > 1) {
        return Err(
            "--trace and --trace-logical write one file for one worker; \
             use --trace-dir <dir> for a file per job"
                .to_string(),
        );
    }
    if cmd != RunCmd::Batch && !run.suite && run.targets.is_empty() {
        return Err("a source file, a program or --suite is needed".to_string());
    }
    Ok(run)
}

/// `homc`, `homc batch` and `homc profile`: parse, run every job through
/// [`run_batch`], print the one report. Exit is non-zero iff a job failed
/// (or a profile does not telescope).
fn cmd_run(cmd: RunCmd, args: &[String]) -> ExitCode {
    let run = match parse_run(cmd, args) {
        Ok(run) => run,
        Err(e) => {
            warn(format_args!("homc: {e}"));
            return usage();
        }
    };
    execute(cmd, run).unwrap_or_else(|e| {
        warn(format_args!("homc: {e}"));
        ExitCode::FAILURE
    })
}

/// Resolves the targets, opens the sinks, runs the jobs and reports them.
fn execute(cmd: RunCmd, run: RunArgs) -> Result<ExitCode, String> {
    let jobs = resolve_jobs(run.suite, &run.targets)?;
    let mut opts = run.batch;
    let logical = opts.logical;
    let open = |path: &str, what: &str| {
        Tracer::to_file(Path::new(path), logical)
            .map_err(|e| format!("cannot open {what} file {path}: {e}"))
    };
    // The progress sink is separate from the job tracers by construction:
    // that separation keeps logical job traces byte-identical with progress
    // on or off.
    if let Some(path) = &run.progress {
        opts.progress = open(path, "progress")?;
    }
    if let Some(path) = &run.trace {
        opts.verify.tracer = open(path, "trace")?;
    }
    if cmd == RunCmd::Profile {
        // Wall clock (the profiler needs real durations), events buffered
        // in memory.
        opts.verify.tracer = Tracer::memory(false);
    }
    // The registry exists only when --stats or --metrics-out renders it;
    // under a logical clock it zeroes durations so the run stays
    // reproducible.
    if run.stats || run.metrics_out.is_some() {
        opts.verify.metrics = Metrics::new(logical);
    }
    let report = run_batch(jobs, &opts).map_err(|e| e.to_string())?;
    if run.json {
        // Machine mode: stdout carries exactly one JSON document.
        print!("{}", render_batch_json(&report, opts.workers, logical));
        let _ = std::io::stdout().flush();
    } else {
        print_report(&report, &opts, run.stats);
    }
    if let Some(dir) = &run.ledger {
        let kind = match cmd {
            RunCmd::Batch => "batch",
            _ if run.suite => "suite",
            _ => "file",
        };
        // Narration goes to stderr so `--json` stdout stays a pure document,
        // and ledger trouble never changes the exit code: observability
        // must not fail the run it observes.
        match append_ledger(Path::new(dir), kind, &report.jobs) {
            Ok(r) => warn(format_args!("homc: ledger: {r}")),
            Err(e) => warn(format_args!("homc: ledger append failed: {e}")),
        }
    }
    if let Some(path) = &run.metrics_out {
        write_metrics_out(path, &opts.verify.metrics);
    }
    if cmd == RunCmd::Profile {
        report_profile(&opts.verify.tracer, run.out.as_deref())?;
    }
    Ok(if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The one report of a run: a line per job, each followed by its `--stats`
/// block, then the tally, the disk-cache lines and, under `--stats`, the
/// run's totals and the metrics registry.
fn print_report(report: &BatchReport, opts: &BatchOptions, stats: bool) {
    let mut totals = Counts::default();
    for j in &report.jobs {
        let evidence = match j.check {
            Some(true) => "  evidence=ok",
            Some(false) => "  evidence=FAIL",
            None => "",
        };
        say(format_args!(
            "{:12} wall={} -> {}{}{evidence}",
            j.name,
            fmt_d(j.wall),
            j.verdict,
            if j.status == JobStatus::Failed {
                "  ** UNEXPECTED **"
            } else {
                ""
            },
        ));
        let Some(s) = &j.stats else {
            continue;
        };
        let counts = s.counts();
        totals.merge(&counts);
        // An `unknown` run is precisely the one whose effort is worth
        // inspecting (what was it doing when the budget hit?), so its
        // partial counters are surfaced even without --stats.
        if !stats && j.status != JobStatus::Unknown {
            continue;
        }
        // The paper's Table 1 columns: size, order, CEGAR cycles, phases.
        let columns: Vec<String> = s
            .time
            .columns(shown(Surface::Stats))
            .into_iter()
            .map(|(c, d)| format!("{c}={}", fmt_d(d)))
            .collect();
        say(format_args!(
            "{STATS_INDENT}S={:4} O={} C={:2}  {} total={}",
            j.size,
            j.order,
            s.cycles,
            columns.join(" "),
            fmt_d(s.total),
        ));
        let rendered = counts.render(Surface::Stats, STATS_INDENT);
        say(format_args!("{}", rendered.trim_end()));
        if j.evidence_digest != 0 {
            say(format_args!(
                "{STATS_INDENT}evidence_digest={:016x}",
                j.evidence_digest
            ));
        }
        if stats && s.peak_bytes > 0 {
            let peaks: Vec<String> = shown(Surface::Stats)
                .map(|p| format!("{}={}", p.name(), s.peak[p]))
                .collect();
            say(format_args!(
                "{STATS_INDENT}peak_bytes={} ({})",
                s.peak_bytes,
                peaks.join(" ")
            ));
        }
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
    if stats {
        say(format_args!(
            "totals:\n{}",
            totals.render(Surface::Stats, "  ").trim_end()
        ));
        // Jobs share one registry, so it prints once per run; its run
        // counters are the totals above.
        let registry = opts.verify.metrics.snapshot().registry_only().render("  ");
        if !registry.is_empty() {
            say(format_args!("{}", registry.trim_end()));
        }
    }
}

/// Folds a profile run's wall-clock trace into a span tree (printed) and
/// folded stacks (written to `out`), failing unless children telescope
/// into their parents.
fn report_profile(trace: &Tracer, out: Option<&str>) -> Result<(), String> {
    let profile = fold_trace(&trace.snapshot().unwrap_or_default());
    say(format_args!("{}", profile.render_tree().trim_end()));
    profile
        .check_telescoping()
        .map_err(|e| format!("profile: {e}"))?;
    let folded = profile.folded();
    validate_folded(&folded).map_err(|e| format!("profile: malformed folded output: {e}"))?;
    if let Some(out) = out {
        std::fs::write(out, &folded).map_err(|e| format!("cannot write {out}: {e}"))?;
        say(format_args!(
            "wrote {} folded stack(s) to {out}",
            folded.lines().count()
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(first) = args.first() else {
        return usage();
    };
    let rest = &args[1..];
    match first.as_str() {
        cmd @ ("trace-validate" | "trace-report") => match rest.first() {
            Some(path) if cmd == "trace-validate" => cmd_trace_validate(path),
            Some(path) => cmd_trace_report(path),
            None => usage(),
        },
        kind @ ("trace-diff" | "bench-diff" | "regress") => cmd_diff(kind, rest),
        "batch" => cmd_run(RunCmd::Batch, rest),
        "profile" => cmd_run(RunCmd::Profile, rest),
        "top" => cmd_top(rest),
        "history" => cmd_history(rest),
        "check" => cmd_check(rest),
        "explain" => cmd_explain(rest),
        other => {
            debug_assert!(
                !SUBCOMMANDS.contains(&other),
                "subcommand {other:?} listed but not dispatched"
            );
            cmd_run(RunCmd::Plain, &args)
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

    /// The cross-run artifact flag must be advertised in the run options
    /// and actually parsed by the run parser.
    #[test]
    fn artifacts_dir_flag_is_advertised_and_parsed() {
        assert!(
            USAGE.contains("--artifacts-dir <dir>"),
            "--artifacts-dir must appear in the run options"
        );
        let run = super::parse_run(
            super::RunCmd::Plain,
            &[
                "--artifacts-dir".to_string(),
                "store".to_string(),
                "prog.ml".to_string(),
            ],
        )
        .expect("parses");
        assert_eq!(
            run.batch.artifacts_dir.as_deref(),
            Some(std::path::Path::new("store"))
        );
        assert_eq!(run.targets, ["prog.ml"]);
    }
}
