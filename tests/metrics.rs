//! Metrics-layer tests: the metrics-on/off differential across the whole
//! suite (identical verdicts, byte-identical logical traces), the folded
//! self-profile's structural invariants, and CLI-level exit-code goldens
//! for `homc trace-diff` / `homc bench-diff`.

use std::process::Command;

use homc::{
    fold_trace, suite, validate_folded, verify, Counter, Hist, Metrics, Tracer, VerifierOptions,
};

/// Verifies `src` under a logical-clock memory tracer with the given
/// metrics handle and returns `(verdict, trace)`.
fn logical_run(src: &str, metrics: Metrics) -> (homc::Verdict, String) {
    let tracer = Tracer::memory(true);
    let opts = VerifierOptions {
        tracer: tracer.clone(),
        metrics,
        ..VerifierOptions::default()
    };
    let out = verify(src, &opts).expect("no hard error");
    (out.verdict, tracer.snapshot().expect("memory sink"))
}

/// Metrics must be a pure observer: attaching an enabled registry to every
/// suite program changes neither the verdict nor a single byte of the
/// logical trace. This is the load-bearing guarantee that lets `--stats`
/// ride along with golden-trace comparisons.
#[test]
fn metrics_on_off_differential_across_suite() {
    for p in suite::SUITE {
        let (v_off, t_off) = logical_run(p.source, Metrics::disabled());
        let (v_on, t_on) = logical_run(p.source, Metrics::new(true));
        assert_eq!(v_off, v_on, "{}: verdict changed under metrics", p.name);
        assert_eq!(
            t_off, t_on,
            "{}: logical trace not byte-identical under metrics",
            p.name
        );
    }
}

/// The golden logical trace from the tracing layer must survive metrics
/// collection unchanged — byte-for-byte.
#[test]
fn golden_trace_unchanged_with_metrics_enabled() {
    const GOLDEN: &str = include_str!("golden/assert_n_pos.trace.jsonl");
    let (verdict, got) = logical_run("assert (n > 0)", Metrics::new(true));
    assert!(verdict.is_unsafe());
    assert_eq!(got, GOLDEN, "metrics perturbed the golden logical trace");
}

/// An enabled registry actually counts: a multi-iteration safe program
/// must record SMT solves, abstraction definitions, model-checking rounds,
/// and per-iteration histogram mass. Under the logical clock, duration
/// histograms stay empty (observe_dur zeroes them) while size histograms
/// fill — the same split the tracer makes.
#[test]
fn enabled_registry_counts_and_logical_zeroes_durations() {
    let p = suite::find("intro1").expect("present");
    let metrics = Metrics::new(true);
    let (_, _) = logical_run(p.source, metrics.clone());
    let snap = metrics.snapshot();
    assert!(
        snap.counter(Counter::SmtSolves) > 0,
        "no SMT solves counted"
    );
    assert!(
        snap.counter(Counter::AbsDefs) > 0,
        "no abstractions counted"
    );
    assert!(snap.counter(Counter::McRounds) > 0, "no MC rounds counted");
    assert!(snap.hist(Hist::HbpRules).count > 0, "empty hbp_rules hist");
    assert!(snap.hist(Hist::IterUs).count > 0, "empty iter hist");
    assert_eq!(
        snap.hist(Hist::IterUs).max,
        0,
        "logical-clock durations must be zeroed"
    );
    // And two enabled runs agree exactly on every deterministic counter.
    let again = Metrics::new(true);
    let (_, _) = logical_run(p.source, again.clone());
    assert_eq!(
        snap.counters,
        again.snapshot().counters,
        "counters must be run-to-run deterministic under the logical clock"
    );
}

/// A wall-clock run's trace folds into a telescoping profile whose folded
/// output round-trips the validator — the structural claims behind
/// `homc profile`.
#[test]
fn folded_profile_telescopes_and_validates() {
    let p = suite::find("intro3").expect("present");
    let tracer = Tracer::memory(false);
    let opts = VerifierOptions {
        tracer: tracer.clone(),
        ..VerifierOptions::default()
    };
    verify(p.source, &opts).expect("no hard error");
    let profile = fold_trace(&tracer.snapshot().expect("memory sink"));
    profile
        .check_telescoping()
        .expect("children fit in parents");
    let folded = profile.folded();
    let stacks = validate_folded(&folded).expect("folded output is well-formed");
    assert!(stacks > 0, "profile produced no stacks:\n{folded}");
}

// ---------------------------------------------------------------------------
// CLI exit-code goldens for the diff subcommands. `CARGO_BIN_EXE_homc` is
// provided because this integration test lives in the crate that builds the
// `homc` binary.

fn homc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_homc"))
}

fn write_tmp(dir: &std::path::Path, name: &str, text: &str) -> String {
    let path = dir.join(name);
    std::fs::write(&path, text).expect("write temp file");
    path.to_string_lossy().into_owned()
}

/// A directory under the system temp dir, removed when dropped, so
/// a failing test cleans up too.
struct TempDir(std::path::PathBuf);

impl std::ops::Deref for TempDir {
    type Target = std::path::Path;
    fn deref(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn tmpdir(tag: &str) -> TempDir {
    let dir = std::env::temp_dir().join(format!("homc-metrics-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    TempDir(dir)
}

const META: &str =
    "  \"meta\": {\"schema\": 2, \"suite\": \"table1\", \"threads\": 4, \"clock\": \"wall\"},\n";

fn bench_doc(meta: &str, total_s: f64, verdict: &str, verdict_ok: bool) -> String {
    format!(
        "{{\n{meta}  \"programs\": [\n    {{\"name\": \"p1\", \"verdict\": {verdict:?}, \
         \"verdict_ok\": {verdict_ok}, \"total_s\": {total_s:.4}, \"smt_queries\": 100}}\n  ],\n  \
         \"totals\": {{\"wall_s\": {total_s:.4}, \"smt_queries\": 100}}\n}}\n"
    )
}

#[test]
fn bench_diff_cli_exit_codes() {
    let dir = tmpdir("bench");
    let base = write_tmp(&dir, "base.json", &bench_doc(META, 1.0, "safe", true));

    // Identical baselines: exit 0.
    let ok = homc()
        .args(["bench-diff", &base, &base])
        .output()
        .expect("runs");
    assert_eq!(
        ok.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&ok.stdout)
    );

    // A 3x wall-time regression breaches the --gate thresholds: exit 1.
    let slow = write_tmp(&dir, "slow.json", &bench_doc(META, 3.0, "safe", true));
    let breach = homc()
        .args(["bench-diff", &base, &slow, "--gate"])
        .output()
        .expect("runs");
    assert_eq!(
        breach.status.code(),
        Some(1),
        "{}",
        String::from_utf8_lossy(&breach.stdout)
    );

    // A verdict flip is a hard error even without --gate: exit 2.
    let flip = write_tmp(&dir, "flip.json", &bench_doc(META, 1.0, "unsafe", false));
    let flipped = homc()
        .args(["bench-diff", &base, &flip])
        .output()
        .expect("runs");
    assert_eq!(
        flipped.status.code(),
        Some(2),
        "{}",
        String::from_utf8_lossy(&flipped.stdout)
    );

    // Meta disagreement on a strict key refuses the comparison: exit 3.
    let other_meta =
        "  \"meta\": {\"schema\": 1, \"suite\": \"table1\", \"threads\": 4, \"clock\": \"wall\"},\n";
    let old_schema = write_tmp(
        &dir,
        "old_schema.json",
        &bench_doc(other_meta, 1.0, "safe", true),
    );
    let refused = homc()
        .args(["bench-diff", &base, &old_schema])
        .output()
        .expect("runs");
    assert_eq!(
        refused.status.code(),
        Some(3),
        "{}",
        String::from_utf8_lossy(&refused.stdout)
    );

    // Unreadable input: exit 3.
    let missing = dir.join("nope.json").to_string_lossy().into_owned();
    let unreadable = homc()
        .args(["bench-diff", &base, &missing])
        .output()
        .expect("runs");
    assert_eq!(unreadable.status.code(), Some(3));
}

#[test]
fn trace_diff_cli_exit_codes() {
    let dir = tmpdir("trace");
    let (_, trace) = logical_run(
        suite::find("intro1").expect("present").source,
        Metrics::disabled(),
    );
    let a = write_tmp(&dir, "a.jsonl", &trace);

    // A trace against itself: no differences, exit 0.
    let same = homc().args(["trace-diff", &a, &a]).output().expect("runs");
    assert_eq!(
        same.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&same.stdout)
    );

    // Flip the verdict in the second trace: exit 2.
    let flipped_text = trace.replace("\"verdict\":\"safe\"", "\"verdict\":\"unsafe\"");
    assert_ne!(flipped_text, trace, "fixture must contain a safe verdict");
    let b = write_tmp(&dir, "b.jsonl", &flipped_text);
    let flip = homc().args(["trace-diff", &a, &b]).output().expect("runs");
    assert_eq!(
        flip.status.code(),
        Some(2),
        "{}",
        String::from_utf8_lossy(&flip.stdout)
    );
}
