//! The phase table (`homc_budget::phase_table!`) is the one declaration of
//! every phase of a run: these tests walk it and check that each phase
//! reaches exactly the surfaces its row names, and that the timed phases
//! leave no dark time in a run.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::process::Command;
use std::time::Duration;

use homc::{
    ledger_record, parse_json, render_report, run_batch, stable_hash64, suite, validate_line,
    verify, ArtifactConfig, BatchJob, BatchOptions, EvidenceConfig, Fault, JsonValue, Phase,
    Surface, Tracer, VerifierOptions, TIMED,
};
use homc_bench::{baseline_json, Row};
use homc_budget::PHASES;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("homc-phase-table-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// The `name=` keys of whitespace-separated `name=value` tokens.
fn keys(line: &str) -> BTreeSet<String> {
    line.split_whitespace()
        .filter_map(|t| Some(t.trim_start_matches('(').split_once('=')?.0.to_string()))
        .collect()
}

/// The keys of a JSON object.
fn json_keys(v: &JsonValue) -> BTreeSet<String> {
    v.as_obj()
        .expect("object")
        .iter()
        .map(|(k, _)| k.clone())
        .collect()
}

#[test]
fn every_phase_reaches_its_surfaces() {
    let program = suite::find("l-zipmap").expect("present");
    let dir = tmpdir("surfaces");

    // `--stats` and the trace, through the CLI, with every timed phase
    // running: the certificate self-check (`check`) runs only there.
    let cli_trace = dir.join("cli.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_homc"))
        .args(["--suite", program.name, "--stats", "--evidence-dir"])
        .arg(dir.join("evd"))
        .arg("--artifacts-dir")
        .arg(dir.join("cli-art"))
        .arg("--trace")
        .arg(&cli_trace)
        .output()
        .expect("homc runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(out.status.success(), "{stdout}");
    let line = |prefix: &str| {
        let found = stdout
            .lines()
            .map(str::trim)
            .find(|l| l.starts_with(prefix));
        keys(found.unwrap_or_else(|| panic!("no {prefix:?} line in {stdout}")))
    };
    let (stats_columns, stats_peaks) = (line("S="), line("peak_bytes="));

    // The ledger record, the table1 row and the trace, in process from one
    // wall-clock run with every timed phase running.
    let tracer = Tracer::memory(false);
    let opts = VerifierOptions {
        tracer: tracer.clone(),
        evidence: Some(EvidenceConfig {
            dir: None,
            key: program.name.to_string(),
            source_hash: stable_hash64(program.source),
        }),
        artifacts: Some(ArtifactConfig {
            dir: dir.join("art"),
            key: program.name.to_string(),
        }),
        ..VerifierOptions::default()
    };
    let outcome = verify(program.source, &opts).expect("verifies");
    let ledger = ledger_record(program.name, "safe", true, 0, Some(&outcome.stats), None);
    let ledger_keys = json_keys(&parse_json(&ledger.encode()).expect("ledger json"));
    let row = Row {
        name: program.name,
        outcome,
        verdict_ok: true,
        paper_cycles: 0,
        iterations: 0,
        peak_hbp: 0,
        warm_total_s: 0.0,
        warm_disk_hits: 0,
        incr_total_s: 0.0,
    };
    let doc = parse_json(&baseline_json(&[row])).expect("baseline json");
    let table1_keys = json_keys(
        &doc.get("programs")
            .and_then(JsonValue::as_arr)
            .expect("rows")[0],
    );
    let span_phases = |trace: &str| -> BTreeSet<String> {
        trace
            .lines()
            .map(|l| parse_json(l).expect("json line"))
            .filter(|v| v.get("ev").and_then(JsonValue::as_str) == Some("span"))
            .filter_map(|v| Some(v.get("phase")?.as_str()?.to_string()))
            .collect()
    };
    let cli_trace = std::fs::read_to_string(&cli_trace).expect("CLI trace");
    let mut spans = span_phases(&tracer.snapshot().expect("memory sink"));
    spans.extend(span_phases(&cli_trace));
    let report = render_report(&cli_trace);
    let totals = report
        .lines()
        .find(|l| l.trim_start().starts_with("phase totals:"))
        .unwrap_or_else(|| panic!("no phase totals in {report}"));

    for p in PHASES.into_iter().chain(TIMED) {
        let (name, column) = (p.name(), p.column());
        let timed = TIMED.contains(&p);
        assert_eq!(
            name.parse::<Phase>().is_ok(),
            PHASES.contains(&p),
            "{name}: --inject"
        );
        assert_eq!(
            format!("{name}:1").parse::<Fault>().is_ok(),
            PHASES.contains(&p),
            "{name}"
        );
        // A column shared by several phases shows when any of them does.
        let column_shows = |s: Surface| TIMED.iter().any(|q| q.column() == column && q.shows(s));
        assert_eq!(
            stats_columns.contains(column),
            column_shows(Surface::Stats),
            "{name}: --stats"
        );
        assert_eq!(
            stats_peaks.contains(name),
            p.shows(Surface::Stats),
            "{name}: --stats peak"
        );
        let ledger_key = format!("{column}_us");
        assert_eq!(
            ledger_keys.contains(&ledger_key),
            column_shows(Surface::Ledger),
            "{name}: ledger"
        );
        let table1_key = format!("{column}_s");
        assert_eq!(
            table1_keys.contains(&table1_key),
            column_shows(Surface::Table1),
            "{name}: table1"
        );
        let peak_key = format!("peak_{name}_bytes");
        assert_eq!(
            table1_keys.contains(&peak_key),
            p.shows(Surface::Table1),
            "{name}: table1 peak"
        );
        for ev in [
            format!(r#"{{"ts":0,"ev":"span","phase":"{name}","iter":0,"dur_us":0}}"#),
            format!(r#"{{"ts":0,"ev":"job_phase","job":0,"iter":0,"phase":"{name}"}}"#),
        ] {
            assert_eq!(
                validate_line(&ev).is_ok(),
                timed,
                "{name}: trace-validate {ev}"
            );
        }
        assert_eq!(spans.contains(name), timed, "{name}: span in the trace");
        assert_eq!(
            totals.contains(&format!(" {name} ")),
            timed,
            "{name}: {totals}"
        );
        assert_eq!(
            report.contains(&format!("{name}_ms")),
            timed,
            "{name}: trace-report column"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// No dark time: over the suite with evidence export, the timed phases add
/// up to at least 95% of each run's `total` once it is long enough for the
/// bookkeeping between phases to be noise. The machine's scheduler can
/// stall a run between two phases, so a program gets up to three runs and
/// keeps its best share; work left out of every phase is dark in each run.
#[test]
fn phases_cover_the_run_total() {
    let dir = tmpdir("coverage");
    let jobs: Vec<BatchJob> = suite::SUITE
        .iter()
        .map(|p| BatchJob {
            name: p.name.to_string(),
            source: p.source.to_string(),
            expected: Some(p.expected),
        })
        .collect();
    let opts = BatchOptions {
        workers: 1,
        evidence_dir: Some(dir.join("evd")),
        ..BatchOptions::default()
    };
    // Each program's best share so far, and the run that gave it.
    let mut best: BTreeMap<String, (f64, String)> = BTreeMap::new();
    for _ in 0..3 {
        let report = run_batch(jobs.clone(), &opts).expect("batch runs");
        assert_eq!(report.failed, 0);
        for job in &report.jobs {
            let s = job.stats.as_ref().expect("every suite job verifies");
            if s.total < Duration::from_millis(10) {
                continue;
            }
            let phases: Duration = TIMED.iter().map(|&p| s.time[p]).sum();
            let share = phases.as_secs_f64() / s.total.as_secs_f64();
            let seen = format!("phases {phases:?} of total {:?}", s.total);
            let entry = best.entry(job.name.clone()).or_default();
            if share > entry.0 {
                *entry = (share, seen);
            }
        }
        if best.values().all(|(share, _)| *share >= 0.95) {
            break;
        }
    }
    for (name, (share, seen)) in &best {
        assert!(*share >= 0.95, "{name}: {seen}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
