//! `homc-bench`: the harness that regenerates the paper's Table 1.
//!
//! The binary `table1` prints, for each of the 30 benchmark programs, the
//! same columns the paper reports — S (source words), O (order), C (CEGAR
//! cycles), and the per-phase times `abst` / `mc` / `cegar` / `total` — side
//! by side with the paper's published values, plus a verdict check. The
//! table is a report over [`run_batch`], the one driver of every `homc` run
//! command: [`run_table`] runs the programs as four batches and builds each
//! [`Row`] from the jobs' reports. The benches (`benches/`, plain `harness
//! = false` timing loops) measure the same pipeline, and
//! `benches/ablation.rs` quantifies the design choices called out in
//! DESIGN.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Duration;

use homc::{
    escape_json, run_batch, shown, BatchJob, BatchOptions, Counts, Expected, JobReport, JobStatus,
    Phase, SuiteProgram, Surface, VerifyStats, LOOP, TIMED,
};

/// One row of the regenerated Table 1.
#[derive(Clone, Debug)]
pub struct Row {
    /// The cold run's job: verdict, size, order, stats and certificate
    /// self-check.
    pub cold: JobReport,
    /// Whether the verdict matches the paper's, the certificate checked and
    /// the edit resubmit reached the same verdict.
    pub verdict_ok: bool,
    /// The paper's cycle count for comparison.
    pub paper_cycles: usize,
    /// `total` seconds of the *warm* rerun: the program verified again
    /// against the cache directory the cold batch published, through the
    /// shared disk tier, as `homc batch --cache-dir` runs it.
    pub warm_total_s: f64,
    /// Lookups the warm rerun answered from the disk tier.
    pub warm_disk_hits: u64,
    /// `total` seconds of the *edit-resubmit* rerun (artifact load and
    /// seeding, the loop, the publish): one integer literal of the source
    /// is wrapped as `(0 + k)` (semantics preserved, one definition's
    /// manifest cone perturbed), and the edited program is verified
    /// against the artifact a seeding run published, as `homc
    /// --artifacts-dir` runs it. `0.0` when the rerun produced no outcome.
    pub incr_total_s: f64,
}

impl Row {
    /// The cold run's stats (all zero for a job without an outcome).
    pub fn stats(&self) -> VerifyStats {
        self.cold.stats.clone().unwrap_or_default()
    }
}

/// The first word of a job's verdict: `safe`, `unsafe` or `unknown`.
fn verdict_kind(verdict: &str) -> &str {
    verdict.split(' ').next().unwrap_or(verdict)
}

/// Runs `programs` as four one-worker [`run_batch`] batches in the scratch
/// directory `dir` (emptied first, removed after) and builds one [`Row`]
/// per program from the jobs' reports:
///
/// 1. *cold*, with an evidence and a cache directory: each certificate is
///    exported and self-checked as the run's `check` phase, and the union
///    of the jobs' solved queries is published after the drain;
/// 2. *warm*, against that cache directory;
/// 3. *seed*, publishing each program's artifact;
/// 4. *resubmit*: each program's [`edit_one_literal`] against those
///    artifacts.
pub fn run_table(programs: &[SuiteProgram], dir: &Path) -> io::Result<Vec<Row>> {
    let jobs = |edited: bool| -> Vec<BatchJob> {
        let job = |p: &SuiteProgram| BatchJob {
            name: p.name.to_string(),
            source: (edited.then(|| edit_one_literal(p.source)).flatten())
                .unwrap_or_else(|| p.source.to_string()),
            expected: Some(p.expected),
        };
        programs.iter().map(job).collect()
    };
    let batch = |jobs, opts| run_batch(jobs, &BatchOptions { workers: 1, ..opts });
    let cache = Some(dir.join("cache"));
    let seeded = BatchOptions {
        artifacts_dir: Some(dir.join("artifacts")),
        ..BatchOptions::default()
    };
    let _ = std::fs::remove_dir_all(dir);
    let runs = (|| -> io::Result<_> {
        let cold = BatchOptions {
            evidence_dir: Some(dir.join("evidence")),
            cache_dir: cache.clone(),
            ..BatchOptions::default()
        };
        let cold = batch(jobs(false), cold)?;
        let warm = BatchOptions {
            cache_dir: cache.clone(),
            ..BatchOptions::default()
        };
        let warm = batch(jobs(false), warm)?;
        batch(jobs(false), seeded.clone())?;
        let incr = batch(jobs(true), seeded.clone())?;
        Ok((cold.jobs, warm.jobs, incr.jobs))
    })();
    let _ = std::fs::remove_dir_all(dir);
    let (cold, warm, incr) = runs?;
    let total_s = |j: &JobReport| j.stats.as_ref().map_or(0.0, |s| s.total.as_secs_f64());
    let rows = programs.iter().zip(cold).zip(warm.iter().zip(&incr));
    Ok(rows
        .map(|((p, cold), (warm, incr))| Row {
            // A verdict flip on the edit-resubmit path fails the row: the
            // edit preserves semantics, so the verdicts must agree.
            verdict_ok: match cold.status {
                JobStatus::Passed => true,
                JobStatus::Unknown => p.expected == Expected::Diverges,
                JobStatus::Failed => false,
            } && verdict_kind(&incr.verdict) == verdict_kind(&cold.verdict),
            paper_cycles: p.paper_cycles,
            warm_total_s: total_s(warm),
            warm_disk_hits: warm.stats.as_ref().map_or(0, |s| s.disk_hits),
            incr_total_s: total_s(incr),
            cold,
        })
        .collect())
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
/// includes it; schema 9 made the table a report over `run_batch`, which
/// dropped `iterations` (equal to `cycles` now that a job runs once) and
/// replaced the trace-derived `peak_hbp` with the verifier's
/// `final_hbp_size`.
const SCHEMA: u64 = 9;

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
/// counters, peak heap bytes, the warm and incremental reruns) and the
/// suite totals.
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
        let s = r.stats();
        let counts = s.counts();
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
             \"final_hbp_size\": {}, {phases}\"total_s\": {:.4}, \
             {}\"peak_bytes\": {}, \"warm_total_s\": {:.4}, \"warm_disk_hits\": {}, \
             \"incr_total_s\": {:.4}}}{}",
            escape_json(&r.cold.name),
            escape_json(verdict_kind(&r.cold.verdict)),
            r.verdict_ok,
            s.cycles,
            s.final_hbp_size,
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

/// A run's `total` as the paper times it: without the phases around the
/// CEGAR loop (certificate export, artifact I/O).
pub fn paper_total(s: &VerifyStats) -> Duration {
    let around = TIMED.into_iter().filter(|p| !LOOP.contains(p));
    around.fold(s.total, |t, p| t.saturating_sub(s.time[p]))
}

/// Formats a row in the paper's column layout: the Table 1 columns of the
/// CEGAR loop's phases, then the [`paper_total`].
pub fn format_row(r: &Row) -> String {
    let v = match verdict_kind(&r.cold.verdict) {
        "unknown" => "-",
        kind => kind,
    };
    let paper_c = if r.paper_cycles == usize::MAX {
        "-".to_string()
    } else {
        r.paper_cycles.to_string()
    };
    let s = r.stats();
    let columns: String = s
        .time
        .columns(LOOP)
        .into_iter()
        .map(|(_, d)| format!("{:6.2} ", d.as_secs_f64()))
        .collect();
    format!(
        "{:12} {:4} {:2} {:>4} ({:>2})  {columns}{:6.2}   {}{}",
        r.cold.name,
        r.cold.size,
        r.cold.order,
        s.cycles,
        paper_c,
        paper_total(&s).as_secs_f64(),
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
        homc_lang::frontend(&edited).expect("edited source compiles");
    }

    #[test]
    fn harness_reproduces_a_known_row() {
        let p = suite::find("intro1").expect("present");
        let dir = std::env::temp_dir().join(format!("homc-bench-row-{}", std::process::id()));
        let rows = run_table(std::slice::from_ref(p), &dir).expect("batches run");
        let row = &rows[0];
        assert!(row.verdict_ok);
        assert_eq!(row.cold.verdict, "safe");
        assert_eq!(row.cold.check, Some(true), "cold run self-checks");
        assert!(row.warm_disk_hits > 0, "warm run must hit the disk tier");
        assert!(row.incr_total_s > 0.0, "resubmit must be measured");
        assert!(!dir.exists(), "scratch directory left behind");
        let line = format_row(row);
        assert!(line.contains("intro1") && line.contains("safe"));
    }
}
