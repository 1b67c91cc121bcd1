//! The run commands — `homc <file>`, `homc --suite`, `homc batch` and
//! `homc profile` — are one driver over `run_batch`. These tests drive the
//! real binary and check that what one command used to do alone, every one
//! of them now does: the evidence self-check (a timed phase of the job),
//! the JSON report, every run flag under `profile`, the front-end `fault`
//! event in per-job traces, the one-worker rule of a single trace file, an
//! on-demand trace dir, and per-job heap peaks that carry neither an
//! earlier job's cache nor a copy of the disk tier for each queued job.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use homc::{parse_json, JsonValue};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("homc-run-commands-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    fs::create_dir_all(&d).expect("mkdir");
    d
}

fn homc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_homc"))
}

fn run(cmd: &mut Command) -> Output {
    cmd.output().expect("homc runs")
}

/// Stdout and stderr, for assertion messages.
fn both(out: &Output) -> String {
    format!(
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    )
}

/// The files in `dir` with extension `ext`.
fn files_with(dir: &Path, ext: &str) -> Vec<PathBuf> {
    fs::read_dir(dir)
        .expect("dir readable")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == ext))
        .collect()
}

#[test]
fn suite_run_self_checks_its_evidence() {
    let dir = tmpdir("evidence");
    let out = run(homc()
        .args(["--suite", "sum", "sum-e", "--evidence-dir"])
        .arg(dir.join("evd")));
    assert_eq!(out.status.code(), Some(0), "{}", both(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let jobs: Vec<&str> = stdout.lines().filter(|l| l.contains(" -> ")).collect();
    assert_eq!(jobs.len(), 2, "{stdout}");
    for line in jobs {
        assert!(line.ends_with("evidence=ok"), "{line}");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn evidence_self_check_is_a_timed_phase() {
    // The self-check runs inside the job as the `check` phase: `--stats`
    // gives it a column, and the profile a frame under the job's root.
    let dir = tmpdir("check-phase");
    let out = run(homc()
        .args(["--suite", "l-zipmap", "--stats", "--evidence-dir"])
        .arg(dir.join("evd")));
    assert_eq!(out.status.code(), Some(0), "{}", both(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let check = stdout
        .lines()
        .map(str::trim)
        .filter(|l| l.starts_with("S="))
        .flat_map(str::split_whitespace)
        .find_map(|t| t.strip_prefix("check="))
        .unwrap_or_else(|| panic!("no check= column: {stdout}"));
    assert!(check.parse::<f64>().expect("seconds") > 0.0, "{stdout}");
    let folded = dir.join("p.folded");
    let out = run(homc()
        .args(["profile", "--suite", "l-zipmap", "--evidence-dir"])
        .arg(dir.join("evd-profile"))
        .arg("-o")
        .arg(&folded));
    assert_eq!(out.status.code(), Some(0), "{}", both(&out));
    let stacks = fs::read_to_string(&folded).expect("folded stacks written");
    assert!(
        stacks.lines().any(|l| l.starts_with("l-zipmap;check ")),
        "no check frame under the root:\n{stacks}"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn suite_json_is_the_batch_json() {
    let suite = run(homc().args(["--suite", "sum", "--json", "--logical"]));
    assert!(suite.status.success(), "{}", both(&suite));
    let batch = run(homc().args(["batch", "sum", "--workers", "1", "--json", "--logical"]));
    assert!(batch.status.success(), "{}", both(&batch));
    assert_eq!(
        String::from_utf8_lossy(&suite.stdout),
        String::from_utf8_lossy(&batch.stdout)
    );
}

#[test]
fn profile_accepts_run_flags() {
    let dir = tmpdir("profile");
    let (evd, folded) = (dir.join("evd"), dir.join("p.folded"));
    let out = run(homc()
        .args(["profile", "--suite", "intro1", "--evidence-dir"])
        .arg(&evd)
        .args(["--timeout", "5", "-o"])
        .arg(&folded));
    assert_eq!(out.status.code(), Some(0), "{}", both(&out));
    let stacks = fs::read_to_string(&folded).expect("folded stacks written");
    assert!(!stacks.is_empty(), "no folded stacks");
    assert_eq!(files_with(&evd, "evd").len(), 1, "one certificate");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn batch_job_trace_records_a_frontend_fault() {
    let dir = tmpdir("fault");
    let src = dir.join("bad.ml");
    fs::write(&src, "let x = in").expect("write source");
    let traces = dir.join("traces");
    let out = run(homc()
        .arg("batch")
        .arg(&src)
        .arg("--trace-dir")
        .arg(&traces)
        .arg("--logical"));
    assert_eq!(out.status.code(), Some(1), "{}", both(&out));
    let files = files_with(&traces, "jsonl");
    assert_eq!(files.len(), 1, "{files:?}");
    let trace = fs::read_to_string(&files[0]).expect("job trace");
    let events: Vec<String> = trace
        .lines()
        .map(|l| {
            let v = parse_json(l).expect("json line");
            v.get("ev")
                .and_then(JsonValue::as_str)
                .expect("ev")
                .to_string()
        })
        .collect();
    assert_eq!(events, ["run_start", "fault", "run_end"], "{trace}");
    assert!(trace.contains("\"phase\":\"frontend\""), "{trace}");

    // A plain file run writes the same events.
    let solo = dir.join("solo.jsonl");
    let out = run(homc().arg(&src).arg("--trace-logical").arg(&solo));
    assert_eq!(out.status.code(), Some(1), "{}", both(&out));
    assert_eq!(fs::read_to_string(&solo).expect("solo trace"), trace);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn one_trace_file_needs_one_worker() {
    let dir = tmpdir("one-file");
    let out = run(homc()
        .args(["--suite", "sum", "--trace"])
        .arg(dir.join("t.jsonl"))
        .args(["--workers", "2"]));
    assert_eq!(out.status.code(), Some(1), "{}", both(&out));
    // The error line itself, not the usage text after it, names the fix.
    let stderr = String::from_utf8_lossy(&out.stderr);
    let error = stderr.lines().next().unwrap_or("");
    assert!(error.contains("--trace-dir"), "{stderr}");
    let _ = fs::remove_dir_all(&dir);
}

/// A bad flag exits 1 even when stderr is a pipe nobody reads: the usage
/// text's write fails, and that must not turn into a panic (exit 101).
#[test]
fn bad_flag_exits_1_on_a_closed_stderr() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let status = homc()
        .arg("--bogus")
        .stdout(std::process::Stdio::null())
        .stderr(writer)
        .status()
        .expect("homc runs");
    assert_eq!(status.code(), Some(1), "{status}");
}

#[test]
fn trace_dir_is_created_on_demand() {
    let dir = tmpdir("trace-dir");
    let traces = dir.join("missing").join("t");
    let out = run(homc()
        .arg("batch")
        .arg("--trace-dir")
        .arg(&traces)
        .arg("sum"));
    assert_eq!(out.status.code(), Some(0), "{}", both(&out));
    assert!(traces.join("sum.jsonl").exists(), "no sum.jsonl");
    let _ = fs::remove_dir_all(&dir);
}

/// `job`'s `peak_bytes` in a `--stats` run's output.
fn job_peak(stdout: &str, job: &str) -> u64 {
    let peak = stdout
        .lines()
        .skip_while(|l| !l.starts_with(&format!("{job} ")))
        .find_map(|l| l.trim().strip_prefix("peak_bytes="))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok());
    peak.unwrap_or_else(|| panic!("no {job} peak_bytes in {stdout}"))
}

/// A job's `peak_bytes` counts its own heap, not what earlier jobs of the
/// same run left behind: a job's query cache goes when the job settles.
#[test]
fn a_job_peak_excludes_earlier_jobs() {
    let fhnhn_peak = |programs: &[&str]| -> u64 {
        let out = run(homc().arg("--suite").args(programs).arg("--stats"));
        assert_eq!(out.status.code(), Some(0), "{}", both(&out));
        job_peak(&String::from_utf8_lossy(&out.stdout), "fhnhn")
    };
    let solo = fhnhn_peak(&["fhnhn"]);
    let after = fhnhn_peak(&["l-zipmap", "fhnhn"]);
    assert!(solo > 0, "the homc binary counts its allocations");
    assert!(
        after <= 2 * solo,
        "fhnhn peaks at {after} bytes after l-zipmap, {solo} alone"
    );
}

/// Nor does it count the jobs queued behind it: on a filled disk cache the
/// jobs of a warm batch share one tier, and no job's cache holds a copy of
/// it before the job runs.
#[test]
fn a_warm_job_peak_excludes_queued_jobs() {
    let dir = tmpdir("warm-peak");
    let programs = ["sum", "max", "mult", "mc91"];
    let batch = |programs: &[&str]| {
        let out = run(homc()
            .args(["batch", "--workers", "1", "--stats", "--cache-dir"])
            .arg(&dir)
            .args(programs));
        assert_eq!(out.status.code(), Some(0), "{}", both(&out));
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    batch(&programs);
    let solo = job_peak(&batch(&["sum"]), "sum");
    let first = job_peak(&batch(&programs), "sum");
    assert!(solo > 0, "the homc binary counts its allocations");
    assert!(
        first as f64 <= 1.25 * solo as f64,
        "sum peaks at {first} bytes as the first of {} warm jobs, {solo} alone",
        programs.len()
    );
    let _ = fs::remove_dir_all(&dir);
}
