//! End-to-end fleet-observability tests through the real `homc` binary:
//!
//! * a `--progress` stream is schema-valid and replayable by `homc top
//!   --snapshot` (deterministically),
//! * enabling `--progress` does **not** perturb the logical job trace — the
//!   acceptance criterion for the separate-sink design,
//! * `homc batch --json` emits a stable, schema-versioned document,
//! * `--ledger` appends records that `homc history` renders, and
//! * `--metrics-out` writes well-formed Prometheus text exposition.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

use homc::{parse_json, validate_trace, JsonValue};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("homc-fleet-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    fs::create_dir_all(&d).expect("mkdir");
    d
}

fn homc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_homc"))
}

fn run_ok(cmd: &mut Command) -> String {
    let out = cmd.output().expect("homc runs");
    assert!(
        out.status.success(),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn progress_stream_is_schema_valid_and_top_replays_it() {
    let dir = tmpdir("progress");
    let progress = dir.join("progress.jsonl");
    run_ok(
        homc()
            .args(["--suite", "sum", "--progress"])
            .arg(&progress)
            .args(["--trace-logical"])
            .arg(dir.join("trace.jsonl")),
    );
    let stream = fs::read_to_string(&progress).expect("progress written");
    let n = validate_trace(&stream).unwrap_or_else(|(l, e)| panic!("line {l}: {e}"));
    assert!(
        n >= 4,
        "batch_start, job_queued, batch_job, batch_end: {stream}"
    );
    assert!(stream.contains("\"ev\":\"job_phase\""), "{stream}");

    // `homc top --snapshot` renders the settled stream, deterministically.
    let snap = run_ok(homc().args(["top", "--snapshot"]).arg(&progress));
    assert!(snap.contains("fleet: 1 job(s), 1 worker(s)"), "{snap}");
    assert!(
        snap.contains("tally: 1 passed, 0 failed, 0 unknown"),
        "{snap}"
    );
    assert_eq!(
        snap,
        run_ok(homc().args(["top", "--snapshot"]).arg(&progress))
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn progress_sink_does_not_perturb_logical_traces() {
    let dir = tmpdir("identity");
    let quiet = dir.join("quiet.jsonl");
    let observed = dir.join("observed.jsonl");
    run_ok(
        homc()
            .args(["--suite", "sum", "--trace-logical"])
            .arg(&quiet),
    );
    run_ok(
        homc()
            .args(["--suite", "sum", "--trace-logical"])
            .arg(&observed)
            .arg("--progress")
            .arg(dir.join("progress.jsonl")),
    );
    let quiet = fs::read_to_string(&quiet).expect("quiet trace");
    let observed = fs::read_to_string(&observed).expect("observed trace");
    assert!(!quiet.is_empty());
    assert_eq!(
        quiet, observed,
        "logical job traces must be byte-identical with progress on or off"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn batch_json_is_stable_and_schema_versioned() {
    let dir = tmpdir("json");
    let args = ["batch", "sum", "--logical", "--json", "--workers", "1"];
    let doc = run_ok(homc().args(args));
    let v = parse_json(doc.trim()).expect("stdout is one JSON document");
    let meta = v.get("meta").expect("meta");
    assert_eq!(meta.get("schema").and_then(JsonValue::as_num), Some(3));
    assert_eq!(
        meta.get("clock").and_then(JsonValue::as_str),
        Some("logical")
    );
    let jobs = v.get("jobs").and_then(JsonValue::as_arr).expect("jobs");
    assert_eq!(jobs.len(), 1);
    assert_eq!(jobs[0].get("name").and_then(JsonValue::as_str), Some("sum"));
    assert_eq!(jobs[0].get("wall_us").and_then(JsonValue::as_num), Some(0));
    assert!(jobs[0].get("attempts").is_none(), "{doc}");
    assert!(jobs[0].get("retry_detail").is_none(), "{doc}");
    // Stable: a logical rerun produces the identical document.
    assert_eq!(doc, run_ok(homc().args(args)));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn ledger_accumulates_and_history_renders() {
    let dir = tmpdir("ledger");
    let ledger = dir.join("ledger");
    for _ in 0..2 {
        run_ok(
            homc()
                .args(["batch", "sum", "--workers", "1", "--ledger"])
                .arg(&ledger),
        );
    }
    assert!(ledger.join("run-000001.led").exists());
    assert!(ledger.join("run-000002.led").exists());

    let history = run_ok(homc().arg("history").arg(&ledger));
    assert!(history.contains("sum"), "{history}");
    assert!(history.contains("2 run(s)"), "{history}");
    let filtered = run_ok(homc().arg("history").arg(&ledger).arg("sum"));
    assert!(filtered.contains("batch"), "{filtered}");

    // Two steady runs: the gate is clean.
    let out = homc()
        .arg("regress")
        .arg(&ledger)
        .output()
        .expect("regress");
    assert_eq!(out.status.code(), Some(0));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn metrics_out_is_wellformed_prometheus_exposition() {
    let dir = tmpdir("prom");
    let prom = dir.join("metrics.prom");
    run_ok(homc().args(["--suite", "sum", "--metrics-out"]).arg(&prom));
    let text = fs::read_to_string(&prom).expect("metrics written");
    assert!(text.contains("# HELP"), "{text}");
    assert!(text.contains("# TYPE"), "{text}");
    assert!(text.contains("homc_smt_solves_total"), "{text}");
    let name_ok = |name: &str| {
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
            && !name.starts_with(|c: char| c.is_ascii_digit())
    };
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let name = line.split(['{', ' ']).next().unwrap_or("");
        assert!(name_ok(name), "bad metric name in {line:?}");
        assert!(
            line.rsplit(' ').next().unwrap_or("").parse::<u64>().is_ok(),
            "sample value must be an integer: {line:?}"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}
