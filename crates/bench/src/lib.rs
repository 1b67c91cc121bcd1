//! `homc-bench`: the harness that regenerates the paper's Table 1.
//!
//! The binary `table1` prints, for each of the 28 benchmark programs, the
//! same columns the paper reports — S (source words), O (order), C (CEGAR
//! cycles), and the per-phase times `abst` / `mc` / `cegar` / `total` — side
//! by side with the paper's published values, plus a verdict check. The
//! Criterion benches (`benches/`) measure the same pipeline for stable
//! statistics, and `benches/ablation.rs` quantifies the design choices
//! called out in DESIGN.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

use homc::{
    escape_json, parse_json, self_check, shown, stable_hash64, suite::SuiteProgram, verify,
    ArtifactConfig, Counts, DiskCache, EvidenceConfig, Expected, JsonValue, Phase, QueryCache,
    Surface, Tracer, Verdict, VerifierOptions, VerifyOutcome, VerifyStats, LOOP, TIMED,
};

/// One row of the regenerated Table 1.
#[derive(Clone, Debug)]
pub struct Row {
    /// Program name.
    pub name: &'static str,
    /// The verification outcome.
    pub outcome: VerifyOutcome,
    /// Whether the verdict matches the paper's.
    pub verdict_ok: bool,
    /// The paper's cycle count for comparison.
    pub paper_cycles: usize,
    /// CEGAR iterations observed by the trace layer (count of `iter`
    /// events — includes exhausted/faulted iterations).
    pub iterations: usize,
    /// Peak boolean-program size (AST nodes) across iterations, from the
    /// trace layer's per-iteration `hbp_terms`.
    pub peak_hbp: usize,
    /// CEGAR-loop seconds of a *warm* rerun: the cold run's query cache is
    /// round-tripped through a temporary disk segment (exercising the full
    /// persistence codec) and the program verified again against it.
    pub warm_total_s: f64,
    /// Lookups the warm rerun answered from the disk tier.
    pub warm_disk_hits: u64,
    /// `total` seconds of the *edit-resubmit* incremental rerun (artifact
    /// load and seeding, the loop, the publish): a seeding pass publishes
    /// the program's abstraction artifact to a temporary store, one
    /// integer literal of the source is wrapped as `(0 + k)` (semantics
    /// preserved, one definition's manifest cone perturbed), and the edited
    /// program is verified against the store with a fresh query cache.
    /// `0.0` when the rerun could not be measured.
    pub incr_total_s: f64,
}

/// The baseline document's schema version. `bench-diff` refuses to compare
/// documents whose schema (or suite, or clock mode) disagrees. Schema 5
/// added the cross-run incremental column (`incr_total_s` per row,
/// `incr_wall_s` in the totals); schema 6 added the evidence-checker
/// column (`check_s` per row, `check_wall_s` in the totals); schema 7 took
/// the phase columns from the phase table, which added the evidence-export
/// column (`evidence_s`) and its peak (`peak_evidence_bytes`) to each row;
/// schema 8 made the certificate check the `check` phase, so `check_s` is
/// that phase's column, `peak_check_bytes` its peak, and `total_s`
/// includes it.
const SCHEMA: u64 = 8;

/// The [`Surface::Table1`] counter columns, as `"name": value, ` pairs.
fn counter_columns(counts: &Counts) -> String {
    let mut out = String::new();
    for (c, v) in counts.on(Surface::Table1) {
        let _ = write!(out, "\"{}\": {v}, ", c.name());
    }
    out
}

/// Renders rows as the `table1 --json` baseline document: a `meta` header
/// (schema version, suite name, program count, clock mode), one object per
/// program (verdict, cycles, the [`Surface::Table1`] phase columns and
/// counters, peak heap bytes, the warm, incremental and check reruns) and
/// the suite totals.
pub fn baseline_json(rows: &[Row]) -> String {
    let mut total = 0.0f64;
    let mut totals = Counts::default();
    let mut peak = 0u64;
    let (mut warm_total, mut disk_hits) = (0.0f64, 0u64);
    let mut incr_total = 0.0f64;
    let mut check_total = 0.0f64;
    let mut body = String::from("{\n");
    let _ = writeln!(
        body,
        "  \"meta\": {{\"schema\": {SCHEMA}, \"suite\": \"table1\", \"programs\": {}, \
         \"clock\": \"wall\"}},",
        rows.len(),
    );
    body.push_str("  \"programs\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let s = &r.outcome.stats;
        let counts = s.counts();
        let verdict = match &r.outcome.verdict {
            Verdict::Safe => "safe",
            Verdict::Unsafe { .. } => "unsafe",
            Verdict::Unknown { .. } => "unknown",
        };
        total += s.total.as_secs_f64();
        totals.merge(&counts);
        peak = peak.max(s.peak_bytes);
        warm_total += r.warm_total_s;
        disk_hits += r.warm_disk_hits;
        incr_total += r.incr_total_s;
        check_total += s.time[Phase::Check].as_secs_f64();
        // The phase columns: each column's seconds, then each phase's peak.
        let mut phases = String::new();
        for (col, d) in s.time.columns(shown(Surface::Table1)) {
            let _ = write!(phases, "\"{col}_s\": {:.4}, ", d.as_secs_f64());
        }
        for p in shown(Surface::Table1) {
            let _ = write!(phases, "\"peak_{}_bytes\": {}, ", p.name(), s.peak[p]);
        }
        let _ = writeln!(
            body,
            "    {{\"name\": {}, \"verdict\": {}, \"verdict_ok\": {}, \"cycles\": {}, \
             \"iterations\": {}, \"peak_hbp\": {}, {phases}\"total_s\": {:.4}, \
             {}\"peak_bytes\": {}, \"warm_total_s\": {:.4}, \"warm_disk_hits\": {}, \
             \"incr_total_s\": {:.4}}}{}",
            escape_json(r.name),
            escape_json(verdict),
            r.verdict_ok,
            s.cycles,
            r.iterations,
            r.peak_hbp,
            s.total.as_secs_f64(),
            counter_columns(&counts),
            s.peak_bytes,
            r.warm_total_s,
            r.warm_disk_hits,
            r.incr_total_s,
            if i + 1 == rows.len() { "" } else { "," },
        );
    }
    let _ = write!(
        body,
        "  ],\n  \"totals\": {{\"wall_s\": {total:.4}, {}\"peak_bytes\": {peak}, \
         \"warm_wall_s\": {warm_total:.4}, \"warm_disk_hits\": {disk_hits}, \
         \"incr_wall_s\": {incr_total:.4}, \"check_wall_s\": {check_total:.4}}}\n}}\n",
        counter_columns(&totals),
    );
    body
}

/// Distills `(iterations, peak HBP size)` from a run's trace.
fn trace_metrics(trace: &str) -> (usize, usize) {
    let (mut iters, mut peak) = (0usize, 0usize);
    for line in trace.lines() {
        let Ok(v) = parse_json(line) else { continue };
        if v.get("ev").and_then(JsonValue::as_str) != Some("iter") {
            continue;
        }
        iters += 1;
        if let Some(h) = v.get("hbp_terms").and_then(JsonValue::as_num) {
            peak = peak.max(h as usize);
        }
    }
    (iters, peak)
}

/// Runs one suite program and checks its verdict against the paper's. The
/// run carries an in-memory tracer so the row can report iteration counts
/// and peak HBP size; the overhead (a few dozen formatted events) is noise
/// at the suite's time scales.
pub fn run_program(p: &SuiteProgram) -> Row {
    let tracer = Tracer::memory(false);
    let cache = Arc::new(QueryCache::new());
    let opts = VerifierOptions {
        tracer: tracer.clone(),
        cache: Some(cache.clone()),
        evidence: Some(EvidenceConfig {
            dir: None,
            key: p.name.to_string(),
            source_hash: stable_hash64(p.source),
        }),
        ..VerifierOptions::default()
    };
    let mut outcome = verify(p.source, &opts).unwrap_or_else(|e| panic!("{}: {e}", p.name));
    // The independent checker must re-establish every decisive verdict
    // from the exported certificate alone, as the run's `check` phase; a
    // rejection fails the row. The row keeps no certificate, so a later
    // row's peak heap does not count it.
    let checked = self_check(p.source, &opts, &mut outcome).unwrap_or(true);
    outcome.evidence = None;
    let verdict_ok = checked
        && match p.expected {
            Expected::Safe => outcome.verdict.is_safe(),
            Expected::Unsafe => outcome.verdict.is_unsafe(),
            Expected::Diverges => !outcome.verdict.is_unsafe(),
        };
    let (iterations, peak_hbp) = trace_metrics(&tracer.snapshot().unwrap_or_default());
    let (warm_total_s, warm_disk_hits) = warm_rerun(p, &cache);
    // A verdict flip on the edit-resubmit path fails the row outright: the
    // edit is semantics-preserving, so the incremental verdict must agree
    // with the cold one.
    let (incr_total_s, incr_ok) = incr_rerun(p, &outcome.verdict);
    let verdict_ok = verdict_ok && incr_ok;
    Row {
        name: p.name,
        outcome,
        verdict_ok,
        paper_cycles: p.paper_cycles,
        iterations,
        peak_hbp,
        warm_total_s,
        warm_disk_hits,
        incr_total_s,
    }
}

/// Wraps the *last* standalone integer literal `k` of `src` as `(0 + k)`.
/// The value of every expression is unchanged, but the enclosing
/// definition's body — and therefore its manifest cone hash — is not: this
/// is the canonical "warm edit" a resubmitting user makes, a tweak at the
/// use site (the suite programs end in their main expression, so the last
/// literal perturbs only main's cone — editing an early literal instead
/// lands inside the recursive workers whose predicates carry the proof,
/// which is the degenerate case no incremental scheme can skip). Digit
/// runs inside identifiers (`mc91`) are skipped. `None` when the source
/// has no standalone literal.
pub fn edit_one_literal(src: &str) -> Option<String> {
    let b = src.as_bytes();
    let is_word = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    let mut last = None;
    let mut i = 0;
    while i < b.len() {
        if b[i].is_ascii_digit() && (i == 0 || !is_word(b[i - 1])) {
            let mut j = i;
            while j < b.len() && b[j].is_ascii_digit() {
                j += 1;
            }
            if j == b.len() || !is_word(b[j]) {
                last = Some((i, j));
            }
            i = j;
        } else {
            i += 1;
        }
    }
    let (i, j) = last?;
    Some(format!("{}(0 + {}){}", &src[..i], &src[i..j], &src[j..]))
}

/// The edit-resubmit measurement behind [`Row::incr_total_s`]: a seeding
/// pass verifies `p` with a temporary artifact store (publishing its
/// manifest, predicate environment, per-definition abstractions, and
/// interpolants), then the single-literal edit of the source is verified
/// against that store. Returns the edited run's `total` seconds and
/// whether its verdict kind matches `cold` (`(0.0, true)` if the
/// measurement could not be set up — the cold row is still valid then).
fn incr_rerun(p: &SuiteProgram, cold: &Verdict) -> (f64, bool) {
    let dir = std::env::temp_dir().join(format!(
        "homc-bench-incr-{}-{}",
        std::process::id(),
        p.name.replace(|c: char| !c.is_alphanumeric(), "_")
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let artifacts = Some(ArtifactConfig {
        dir: dir.clone(),
        key: p.name.to_string(),
    });
    let seeded = verify(
        p.source,
        &VerifierOptions {
            artifacts: artifacts.clone(),
            ..VerifierOptions::default()
        },
    );
    if seeded.is_err() {
        let _ = std::fs::remove_dir_all(&dir);
        return (0.0, true);
    }
    let edited = edit_one_literal(p.source).unwrap_or_else(|| p.source.to_string());
    let out = verify(
        &edited,
        &VerifierOptions {
            artifacts,
            ..VerifierOptions::default()
        },
    );
    let _ = std::fs::remove_dir_all(&dir);
    match out {
        Ok(out) => {
            let same = matches!(
                (&out.verdict, cold),
                (Verdict::Safe, Verdict::Safe)
                    | (Verdict::Unsafe { .. }, Verdict::Unsafe { .. })
                    | (Verdict::Unknown { .. }, Verdict::Unknown { .. })
            );
            (out.stats.total.as_secs_f64(), same)
        }
        Err(_) => (0.0, false),
    }
}

/// Round-trips the cold run's query cache through a temporary on-disk
/// segment, then verifies `p` again against the reloaded cache. Returns the
/// warm run's CEGAR-loop seconds and disk-hit count (`(0.0, 0)` if the rerun
/// could not be measured — the cold row is still valid then).
fn warm_rerun(p: &SuiteProgram, cold_cache: &QueryCache) -> (f64, u64) {
    let dir = std::env::temp_dir().join(format!(
        "homc-bench-warm-{}-{}",
        std::process::id(),
        p.name.replace(|c: char| !c.is_alphanumeric(), "_")
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let disk = DiskCache::new(&dir);
    let warm_cache = Arc::new(QueryCache::new());
    let round_trip = disk
        .publish(cold_cache)
        .and_then(|_| disk.load_into(&warm_cache));
    let _ = std::fs::remove_dir_all(&dir);
    if round_trip.is_err() {
        return (0.0, 0);
    }
    let opts = VerifierOptions {
        cache: Some(warm_cache),
        ..VerifierOptions::default()
    };
    match verify(p.source, &opts) {
        Ok(out) => (out.stats.total.as_secs_f64(), out.stats.disk_hits),
        Err(_) => (0.0, 0),
    }
}

/// A run's `total` as the paper times it: without the phases around the
/// CEGAR loop (certificate export, artifact I/O).
pub fn paper_total(s: &VerifyStats) -> Duration {
    let around = TIMED.into_iter().filter(|p| !LOOP.contains(p));
    around.fold(s.total, |t, p| t.saturating_sub(s.time[p]))
}

/// Formats a row in the paper's column layout: the Table 1 columns of the
/// CEGAR loop's phases, then the [`paper_total`].
pub fn format_row(r: &Row) -> String {
    let v = match &r.outcome.verdict {
        Verdict::Safe => "safe",
        Verdict::Unsafe { .. } => "unsafe",
        Verdict::Unknown { .. } => "-",
    };
    let paper_c = if r.paper_cycles == usize::MAX {
        "-".to_string()
    } else {
        r.paper_cycles.to_string()
    };
    let s = &r.outcome.stats;
    let columns: String = s
        .time
        .columns(LOOP)
        .into_iter()
        .map(|(_, d)| format!("{:6.2} ", d.as_secs_f64()))
        .collect();
    format!(
        "{:12} {:4} {:2} {:>4} ({:>2})  {columns}{:6.2}   {}{}",
        r.name,
        r.outcome.size,
        r.outcome.order,
        s.cycles,
        paper_c,
        paper_total(s).as_secs_f64(),
        v,
        if r.verdict_ok { "" } else { "  ** MISMATCH **" },
    )
}

/// A minimal timing loop for the `benches/` targets (plain `harness =
/// false` binaries — no external statistics crate on the air-gapped CI):
/// a warmup pass, `iters` measured runs, and a `name: min/mean/max` line.
pub fn time_it<R>(name: &str, iters: usize, mut f: impl FnMut() -> R) {
    use std::time::Instant;
    std::hint::black_box(f());
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        std::hint::black_box(f());
        samples.push(t.elapsed());
    }
    let min = samples.iter().min().expect("iters > 0");
    let max = samples.iter().max().expect("iters > 0");
    let mean = samples.iter().sum::<std::time::Duration>() / iters as u32;
    println!(
        "{name:32} min {:9.3}ms  mean {:9.3}ms  max {:9.3}ms  ({iters} iters)",
        min.as_secs_f64() * 1e3,
        mean.as_secs_f64() * 1e3,
        max.as_secs_f64() * 1e3,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use homc::suite;

    #[test]
    fn literal_edit_wraps_standalone_digits_only() {
        assert_eq!(
            edit_one_literal("mc91 x9 + 12").as_deref(),
            Some("mc91 x9 + (0 + 12)")
        );
        assert_eq!(
            edit_one_literal("if x = 0 then 1 else 2").as_deref(),
            Some("if x = 0 then 1 else (0 + 2)")
        );
        assert_eq!(edit_one_literal("no literals here"), None);
        // The acceptance program must be genuinely edited (a program with
        // no literal, like `max`, falls back to an unchanged resubmit), and
        // the edit must stay parseable.
        let z = suite::find("l-zipmap").expect("present");
        let edited = edit_one_literal(z.source).expect("l-zipmap has literals");
        assert_ne!(edited, z.source);
        homc::verify(&edited, &homc::VerifierOptions::default()).expect("edited source compiles");
    }

    #[test]
    fn harness_reproduces_a_known_row() {
        let p = suite::find("intro1").expect("present");
        let row = run_program(p);
        assert!(row.verdict_ok);
        assert!(row.outcome.verdict.is_safe());
        let line = format_row(&row);
        assert!(line.contains("intro1") && line.contains("safe"));
    }
}
