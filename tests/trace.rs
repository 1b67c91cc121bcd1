//! Observability-layer tests: the golden logical trace, trace determinism,
//! the tracing-on/off differential, schema validation, and structured fault
//! events under `--inject`.

use homc::{
    stable_hash64, suite, validate_trace, verify, Fault, FaultPlan, JsonValue, Tracer, Verdict,
    VerifierOptions,
};

/// Verifies `src` with an in-memory tracer and returns the trace text.
fn traced_run(src: &str, logical: bool, faults: FaultPlan) -> (Verdict, String) {
    let tracer = Tracer::memory(logical);
    let opts = VerifierOptions {
        tracer: tracer.clone(),
        faults,
        ..VerifierOptions::default()
    };
    let out = verify(src, &opts).expect("no hard error");
    (out.verdict, tracer.snapshot().expect("memory sink"))
}

/// The exact logical-clock trace of the simplest unsafe program. Every
/// event is deterministic under the logical clock (sequence numbers for
/// timestamps, zeroed durations, sequential abstraction), so this is a
/// byte-level regression test for the entire event vocabulary: renaming a
/// field, reordering emission, or changing derivation order breaks it.
const GOLDEN: &str = include_str!("golden/assert_n_pos.trace.jsonl");

#[test]
fn golden_logical_trace_for_simplest_unsafe() {
    let (verdict, got) = traced_run("assert (n > 0)", true, FaultPlan::none());
    assert!(verdict.is_unsafe());
    validate_trace(&got).expect("golden run must be schema-valid");
    if got != GOLDEN {
        // Dump the actual bytes for regeneration before failing legibly.
        let _ = std::fs::write("/tmp/assert_n_pos.trace.actual.jsonl", &got);
        assert_eq!(
            got, GOLDEN,
            "logical trace drifted (actual written to \
             /tmp/assert_n_pos.trace.actual.jsonl)"
        );
    }
}

#[test]
fn logical_trace_is_byte_deterministic() {
    let p = suite::find("intro3").expect("present");
    let (v1, t1) = traced_run(p.source, true, FaultPlan::none());
    let (v2, t2) = traced_run(p.source, true, FaultPlan::none());
    assert_eq!(v1, v2);
    assert_eq!(t1, t2, "two logical-clock runs must be byte-identical");
    validate_trace(&t1).expect("schema-valid");
}

/// The whole suite's logical traces, concatenated in suite order, hash to
/// one pinned value. The traces carry every predicate refinement learned
/// and every abstraction and feasibility answer, so this pins the
/// arithmetic kernel's models and Farkas multipliers across all 30
/// programs: a change to the solver that is meant to be invisible must
/// leave it unedited.
const SUITE_TRACE_HASH: u64 = 0x1258_8104_4d12_9599;

#[test]
fn suite_logical_trace_is_pinned() {
    let mut all = String::new();
    for p in suite::SUITE {
        let (_, trace) = traced_run(p.source, true, FaultPlan::none());
        all.push_str(&trace);
    }
    let hash = stable_hash64(&all);
    assert_eq!(
        hash,
        SUITE_TRACE_HASH,
        "suite logical trace drifted: {hash:#018x} ({} bytes)",
        all.len()
    );
}

/// Tracing must be an observer: same verdicts, same effort counters,
/// whether or not a tracer is attached.
#[test]
fn tracing_on_off_differential_across_suite() {
    for p in suite::SUITE {
        let opts_off = VerifierOptions::default();
        let tracer = Tracer::memory(false);
        let opts_on = VerifierOptions {
            tracer: tracer.clone(),
            ..VerifierOptions::default()
        };

        let off = verify(p.source, &opts_off).expect("no hard error");
        let on = verify(p.source, &opts_on).expect("no hard error");

        assert_eq!(off.verdict, on.verdict, "{}: verdict changed", p.name);
        assert_eq!(off.stats.cycles, on.stats.cycles, "{}: cycles", p.name);
        assert_eq!(
            off.stats.predicates, on.stats.predicates,
            "{}: predicates",
            p.name
        );
        assert_eq!(
            off.stats.final_hbp_size, on.stats.final_hbp_size,
            "{}: hbp size",
            p.name
        );
        assert_eq!(
            off.stats.smt_queries, on.stats.smt_queries,
            "{}: smt queries",
            p.name
        );
        assert_eq!(
            (off.stats.cache_hits, off.stats.cache_misses),
            (on.stats.cache_hits, on.stats.cache_misses),
            "{}: cache counters",
            p.name
        );
        assert_eq!(
            (off.stats.worklist_pops, off.stats.rescans_avoided),
            (on.stats.worklist_pops, on.stats.rescans_avoided),
            "{}: worklist counters",
            p.name
        );

        // Every traced line is schema-valid, and the trace carries exactly
        // one `iter` record per CEGAR iteration.
        let trace = tracer.snapshot().expect("memory sink");
        let events = validate_trace(&trace)
            .unwrap_or_else(|(line, e)| panic!("{}: line {line}: {e}", p.name));
        assert!(events > 0, "{}: empty trace", p.name);
        let iters = trace
            .lines()
            .filter(|l| {
                homc::parse_json(l)
                    .ok()
                    .and_then(|v| v.get("ev").and_then(JsonValue::as_str).map(String::from))
                    .as_deref()
                    == Some("iter")
            })
            .count();
        assert_eq!(
            iters, on.stats.cycles,
            "{}: one iter record per CEGAR iteration",
            p.name
        );
    }
}

/// `--inject` fault plans must surface as structured `fault` events with
/// the right phase and kind, while the run degrades to `unknown`.
#[test]
fn injected_faults_emit_structured_events() {
    let intro1 = suite::find("intro1").expect("present").source;
    for (spec, phase, kind) in [
        ("mc:3:panic", "mc", "panic"),
        ("interp:2:error", "interp", "error"),
        ("abs:5:panic", "abs", "panic"),
    ] {
        let mut faults = FaultPlan::none();
        faults.push(spec.parse::<Fault>().expect("valid fault spec"));
        let (verdict, trace) = traced_run(intro1, true, faults);
        assert!(
            matches!(verdict, Verdict::Unknown { .. }),
            "{spec}: expected unknown, got {verdict}"
        );
        validate_trace(&trace).expect("schema-valid");
        let fault_line = trace
            .lines()
            .find(|l| l.contains("\"ev\":\"fault\""))
            .unwrap_or_else(|| panic!("{spec}: no fault event in:\n{trace}"));
        let v = homc::parse_json(fault_line).expect("parses");
        assert_eq!(
            v.get("phase").and_then(JsonValue::as_str),
            Some(phase),
            "{spec}"
        );
        assert_eq!(
            v.get("kind").and_then(JsonValue::as_str),
            Some(kind),
            "{spec}"
        );
    }
}

/// A disabled tracer snapshots to nothing and a wall-clock memory tracer
/// reports real durations (the `iter` record's `dur_us` is non-zero for a
/// multi-phase run) — the two clock modes are genuinely different.
#[test]
fn wall_clock_records_durations_logical_zeroes_them() {
    let intro1 = suite::find("intro1").expect("present").source;
    let (_, wall) = traced_run(intro1, false, FaultPlan::none());
    let (_, logical) = traced_run(intro1, true, FaultPlan::none());
    let dur_of = |trace: &str| -> Vec<i128> {
        trace
            .lines()
            .filter_map(|l| homc::parse_json(l).ok())
            .filter(|v| v.get("ev").and_then(JsonValue::as_str) == Some("iter"))
            .filter_map(|v| v.get("dur_us").and_then(JsonValue::as_num))
            .collect()
    };
    assert!(
        dur_of(&wall).iter().any(|&d| d > 0),
        "wall-clock iter durations must be measured"
    );
    assert!(
        dur_of(&logical).iter().all(|&d| d == 0),
        "logical-clock durations must be zeroed"
    );
}
