//! Trend analytics over the run ledger: `homc history` and `homc regress`.
//!
//! `history` renders per-program latency trends and percentile summaries
//! (log2-bucket quantiles from `homc-metrics`, so the numbers line up with
//! every other latency report in the tree). `regress` is the ledger's
//! distiller for the gate engine ([`homc_metrics::diff`]), so it shares
//! `bench-diff`'s rules, report and exit codes: the newest run is compared
//! with the per-metric median over a trailing window of earlier runs of the
//! same kind, and with the verdict of the most recent of them. Kinds never
//! mix because their runs do different work: every record's wall is its
//! job's wall, but a `table1` job always exports and checks a certificate
//! and feeds a published cache, which suite, file and batch jobs do only
//! when asked. CI can thus gate on history, not just the one checked-in
//! baseline file.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use homc_budget::{columns, shown, Surface};
use homc_metrics::diff::{compare, rules, DiffReport, Sides, Summary, Threshold};
use homc_metrics::HistSnapshot;

use crate::ledger::{RunRecord, RECORD_SCHEMA};

/// Options of [`regress`].
#[derive(Clone, Debug)]
pub struct TrendOptions {
    /// Trailing runs of the newest run's kind forming the baseline.
    pub window: usize,
    /// `--threshold` rules, applied after (so winning over) the built-in
    /// `wall_us` rule.
    pub thresholds: Vec<(String, Threshold)>,
}

impl Default for TrendOptions {
    fn default() -> TrendOptions {
        TrendOptions {
            window: 5,
            thresholds: Vec::new(),
        }
    }
}

/// The rule `regress` always applies: wall time within 1.5x the baseline
/// median plus 100 ms, so micro-benchmark jitter does not gate.
const WALL_RULE: &str = "wall_us=1.5:100000";

fn ms(us: u64) -> String {
    format!("{:.1}", us as f64 / 1000.0)
}

fn by_run(records: &[RunRecord]) -> BTreeMap<u64, Vec<&RunRecord>> {
    let mut runs: BTreeMap<u64, Vec<&RunRecord>> = BTreeMap::new();
    for r in records {
        runs.entry(r.run).or_default().push(r);
    }
    runs
}

/// Every numeric field of a record, counters included.
fn metrics(r: &RunRecord) -> BTreeMap<String, f64> {
    let fields = [
        ("wall_us", r.wall_us),
        ("total_us", r.total_us),
        ("peak_bytes", r.peak_bytes),
    ];
    let fields = fields.into_iter().map(|(k, v)| (k.to_string(), v));
    let phases = r.phase_us.iter().map(|(col, &v)| (format!("{col}_us"), v));
    let counters = r.counters.iter().map(|(k, &v)| (k.clone(), v));
    fields
        .chain(phases)
        .chain(counters)
        .map(|(k, v)| (k, v as f64))
        .collect()
}

/// Gates the newest run against the trailing-window baseline. Pure over its
/// inputs: the same ledger records and options always produce the same
/// report.
pub fn regress(records: &[RunRecord], opts: &TrendOptions) -> DiffReport {
    let rules = rules(&[WALL_RULE], &opts.thresholds);
    compare("regress", ledger_sides(records, opts.window), &rules)
}

/// Distills the ledger: the newest run's programs on the new side; on the
/// old side, each one's per-metric median over the baseline window and
/// the verdict of its most recent baseline record. Programs the newest run
/// lacks are not compared, and a program without a baseline is noted as
/// new rather than gated.
fn ledger_sides(records: &[RunRecord], window: usize) -> Result<Sides, String> {
    if let Some(foreign) = records.iter().find(|r| r.schema != RECORD_SCHEMA) {
        return Err(format!(
            "run {} record {:?} has schema {} but this build reads schema {}",
            foreign.run, foreign.program, foreign.schema, RECORD_SCHEMA
        ));
    }
    let runs = by_run(records);
    let mut sides = Sides::default();
    let Some((&newest_id, newest)) = runs.iter().next_back() else {
        sides.notes = "  note: insufficient history (empty ledger)\n".to_string();
        return Ok(sides);
    };
    let kind = &newest[0].kind;
    // Baseline runs, most recent first.
    let baseline: Vec<&Vec<&RunRecord>> = runs
        .range(..newest_id)
        .rev()
        .map(|(_, run)| run)
        .filter(|run| run[0].kind == *kind)
        .take(window.max(1))
        .collect();
    if baseline.is_empty() {
        let why = format!("no {kind} run before run {newest_id}");
        sides.notes = format!("  note: insufficient history ({why})\n");
        return Ok(sides);
    }
    let _ = writeln!(
        sides.notes,
        "  note: run {newest_id} vs the median of {} earlier {kind} run(s)",
        baseline.len()
    );
    for rec in newest {
        let samples: Vec<&RunRecord> = baseline
            .iter()
            .flat_map(|run| run.iter().copied())
            .filter(|b| b.program == rec.program)
            .collect();
        let Some(last) = samples.first() else {
            let _ = writeln!(
                sides.notes,
                "  note: {}: new program, no baseline",
                rec.program
            );
            continue;
        };
        let mut columns: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for (key, value) in samples.iter().flat_map(|s| metrics(s)) {
            columns.entry(key).or_default().push(value);
        }
        let medians = columns.into_iter().map(|(key, mut values)| {
            values.sort_by(f64::total_cmp);
            (key, values[values.len() / 2])
        });
        let summary = |r: &RunRecord, metrics| Summary {
            verdict: r.verdict.clone(),
            ok: Some(r.ok),
            metrics,
        };
        sides
            .old
            .insert(rec.program.clone(), summary(last, medians.collect()));
        sides
            .new
            .insert(rec.program.clone(), summary(rec, metrics(rec)));
    }
    Ok(sides)
}

/// Renders per-program history. Without a filter: one row per program with
/// run count, latest verdict, latest wall time, p50/p90 quantile bounds, and
/// the trailing wall-time trend. With a filter: one row per run of that
/// program.
pub fn render_history(records: &[RunRecord], filter: Option<&str>) -> String {
    let mut text = String::new();
    if records.is_empty() {
        text.push_str("history: ledger is empty\n");
        return text;
    }
    if let Some(program) = filter {
        let cols = columns(shown(Surface::Ledger));
        let mut head = format!(
            "{:<6} {:<8} {:<10} {:>10}",
            "run", "kind", "verdict", "wall ms"
        );
        for col in &cols {
            let _ = write!(head, " {:>10}", format!("{col} ms"));
        }
        let _ = writeln!(text, "{head} {:>12}", "peak KiB");
        let mut seen = 0;
        for r in records.iter().filter(|r| r.program == program) {
            seen += 1;
            let mut row = format!(
                "{:<6} {:<8} {:<10} {:>10}",
                r.run,
                r.kind,
                r.verdict,
                ms(r.wall_us)
            );
            for col in &cols {
                let us = r.phase_us.get(col).copied().unwrap_or(0);
                let _ = write!(row, " {:>10}", ms(us));
            }
            let _ = writeln!(text, "{row} {:>12}", r.peak_bytes / 1024);
        }
        if seen == 0 {
            let _ = writeln!(text, "history: no records for {program:?}");
        }
        return text;
    }
    let mut by_program: BTreeMap<&str, Vec<&RunRecord>> = BTreeMap::new();
    for r in records {
        by_program.entry(&r.program).or_default().push(r);
    }
    let runs = by_run(records).len();
    let _ = writeln!(
        text,
        "history: {} program(s) over {} run(s)",
        by_program.len(),
        runs
    );
    let _ = writeln!(
        text,
        "{:<14} {:>5} {:<10} {:>9} {:>8} {:>8}  trend (ms)",
        "program", "runs", "verdict", "last ms", "p50 ms", "p90 ms"
    );
    for (program, recs) in &by_program {
        let mut hist = HistSnapshot::default();
        for r in recs {
            hist.observe(r.wall_us);
        }
        let last = recs.last().expect("non-empty group");
        let trend: Vec<String> = recs
            .iter()
            .rev()
            .take(8)
            .rev()
            .map(|r| ms(r.wall_us))
            .collect();
        let _ = writeln!(
            text,
            "{:<14} {:>5} {:<10} {:>9} {:>8} {:>8}  {}",
            program,
            recs.len(),
            last.verdict,
            ms(last.wall_us),
            ms(hist.quantile_bound(0.5)),
            ms(hist.quantile_bound(0.9)),
            trend.join(" ")
        );
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use homc_metrics::diff::{bench_diff, parse_threshold, trace_diff, DiffOptions};

    fn rec(run: u64, program: &str, wall_us: u64, verdict: &str) -> RunRecord {
        RunRecord {
            schema: RECORD_SCHEMA,
            run,
            kind: "batch".to_string(),
            program: program.to_string(),
            verdict: verdict.to_string(),
            ok: verdict == "safe",
            wall_us,
            total_us: wall_us,
            ..RunRecord::default()
        }
    }

    #[test]
    fn stable_run_passes_gate() {
        let records = vec![
            rec(1, "sum", 1_000_000, "safe"),
            rec(2, "sum", 1_050_000, "safe"),
            rec(3, "sum", 980_000, "safe"),
        ];
        let report = regress(&records, &TrendOptions::default());
        assert_eq!(report.exit_code(), 0, "{}", report.text);
        // Deterministic: a second evaluation renders identically.
        let again = regress(&records, &TrendOptions::default());
        assert_eq!(report.text, again.text);
    }

    #[test]
    fn double_wall_time_breaches() {
        let records = vec![
            rec(1, "sum", 1_000_000, "safe"),
            rec(2, "sum", 1_000_000, "safe"),
            rec(3, "sum", 2_000_000, "safe"),
        ];
        let report = regress(&records, &TrendOptions::default());
        assert_eq!(report.exit_code(), 1, "{}", report.text);
        assert_eq!(report.breaches, 1);
        assert!(
            report.text.contains("sum wall_us: 1000000 -> 2000000"),
            "{}",
            report.text
        );
    }

    #[test]
    fn verdict_flip_outranks_breach() {
        let records = vec![
            rec(1, "sum", 1_000_000, "safe"),
            rec(2, "sum", 3_000_000, "unsafe"),
        ];
        let report = regress(&records, &TrendOptions::default());
        assert_eq!(report.exit_code(), 2, "{}", report.text);
        assert_eq!(report.flips, 1);
        assert!(
            report.text.contains("sum: VERDICT FLIP safe -> unsafe"),
            "{}",
            report.text
        );
    }

    #[test]
    fn foreign_schema_is_incompatible() {
        let mut foreign = rec(1, "sum", 1_000, "safe");
        foreign.schema = 999;
        let records = vec![foreign, rec(2, "sum", 1_000, "safe")];
        let report = regress(&records, &TrendOptions::default());
        assert_eq!(report.exit_code(), 3, "{}", report.text);
    }

    #[test]
    fn short_history_is_clean() {
        let report = regress(&[rec(1, "sum", 1_000, "safe")], &TrendOptions::default());
        assert_eq!(report.exit_code(), 0);
        assert!(
            report.text.contains("insufficient history"),
            "{}",
            report.text
        );
    }

    #[test]
    fn window_excludes_ancient_runs() {
        // Five fast baseline runs, then an ancient slow run that must age
        // out of the window: the new run matches recent history, no breach.
        let mut records = vec![rec(1, "sum", 10_000_000, "safe")];
        for run in 2..=6 {
            records.push(rec(run, "sum", 1_000_000, "safe"));
        }
        records.push(rec(7, "sum", 1_100_000, "safe"));
        let report = regress(&records, &TrendOptions::default());
        assert_eq!(report.exit_code(), 0, "{}", report.text);
    }

    #[test]
    fn history_renders_percentiles_and_trend() {
        let records = vec![
            rec(1, "sum", 1_000, "safe"),
            rec(1, "mc91", 9_000, "safe"),
            rec(2, "sum", 1_200, "safe"),
        ];
        let text = render_history(&records, None);
        assert!(text.contains("2 program(s) over 2 run(s)"), "{text}");
        assert!(text.contains("mc91"), "{text}");
        let filtered = render_history(&records, Some("sum"));
        assert!(filtered.contains("1.2"), "{filtered}");
        assert!(!filtered.contains("mc91"), "{filtered}");
    }

    #[test]
    fn baseline_runs_are_of_the_newest_runs_kind() {
        // Suite records time l-zipmap's whole run; a table1 record's wall
        // time is the verifier-internal total, evidence export included.
        let run_of = |run, kind: &str, wall_us| RunRecord {
            kind: kind.to_string(),
            ..rec(run, "l-zipmap", wall_us, "safe")
        };
        let mut records = vec![
            run_of(1, "suite", 201_300),
            run_of(2, "suite", 201_300),
            run_of(3, "table1", 641_800),
        ];
        let report = regress(&records, &TrendOptions::default());
        assert_eq!(report.exit_code(), 0, "{}", report.text);
        assert!(
            report.text.contains("insufficient history"),
            "{}",
            report.text
        );
        // A faster second table1 run is measured against the first only.
        records.push(run_of(4, "table1", 601_000));
        let report = regress(&records, &TrendOptions::default());
        assert_eq!(report.exit_code(), 0, "{}", report.text);
        assert!(
            report.text.contains("l-zipmap wall_us: 641800 -> 601000"),
            "{}",
            report.text
        );
    }

    #[test]
    fn new_programs_are_noted_and_missing_ones_skipped() {
        let records = vec![
            rec(1, "sum", 1_000, "safe"),
            rec(1, "mc91", 1_000, "safe"),
            rec(2, "sum", 1_000, "safe"),
            rec(2, "max", 9_000_000, "unsafe"),
        ];
        let report = regress(&records, &TrendOptions::default());
        assert_eq!(report.exit_code(), 0, "{}", report.text);
        assert!(report.text.contains("max: new program"), "{}", report.text);
        assert!(!report.text.contains("mc91"), "{}", report.text);
    }

    #[test]
    fn differing_unknown_reasons_are_not_a_flip() {
        let unknown = |phase: &str| {
            format!(
                "unknown (budget exhausted in {phase}: injected fault \
                 (planned fault at {phase} checkpoint 1))"
            )
        };
        let records = vec![
            rec(1, "sum", 700, &unknown("abs")),
            rec(2, "sum", 1_000, &unknown("mc")),
        ];
        let report = regress(&records, &TrendOptions::default());
        assert_eq!(report.exit_code(), 0, "{}", report.text);
        assert_eq!(report.flips, 0);
        assert!(
            report.text.contains("sum: verdict change unknown"),
            "{}",
            report.text
        );
    }

    #[test]
    fn failed_evidence_check_is_a_flip() {
        // The verdict kind stays `safe`, but batch fails the job: ok drops.
        let failed = rec(2, "sum", 1_000, "safe (evidence check FAILED)");
        assert!(!failed.ok);
        let report = regress(
            &[rec(1, "sum", 1_000, "safe"), failed],
            &TrendOptions::default(),
        );
        assert_eq!(report.exit_code(), 2, "{}", report.text);
        assert_eq!(report.flips, 1);
        assert!(
            report
                .text
                .contains("sum: VERDICT FLIP safe -> safe (evidence check FAILED)"),
            "{}",
            report.text
        );
    }

    #[test]
    fn threshold_rules_win_over_the_wall_rule() {
        let records = vec![
            rec(1, "sum", 1_000_000, "safe"),
            rec(2, "sum", 2_000_000, "safe"),
        ];
        let loose = TrendOptions {
            thresholds: vec![parse_threshold("wall_us=3.0").expect("parses")],
            ..TrendOptions::default()
        };
        assert_eq!(regress(&records, &loose).exit_code(), 0);
        let pinned = TrendOptions {
            thresholds: vec![parse_threshold("sum.total_us=1.5").expect("parses")],
            ..loose
        };
        assert_eq!(regress(&records, &pinned).exit_code(), 1);
    }

    /// One contract for the three gate commands: the same scenario gives
    /// the same exit code and the same closing line from each of them.
    #[test]
    fn the_three_gate_commands_share_one_contract() {
        let gate = DiffOptions {
            thresholds: Vec::new(),
            gate: true,
        };
        let trace = |verdict: &str, smt_queries: u64| {
            format!(
                "{{\"ts\":0,\"ev\":\"run_start\",\"name\":\"p1\",\"clock\":\"logical\"}}\n\
                 {{\"ts\":1,\"ev\":\"iter\",\"iter\":0,\"smt_queries\":{smt_queries}}}\n\
                 {{\"ts\":2,\"ev\":\"verdict\",\"verdict\":\"{verdict}\",\"cycles\":1}}\n"
            )
        };
        let bench = |verdict: &str, total_s: f64| {
            format!(
                "{{\"meta\": {{\"schema\": 6, \"suite\": \"table1\", \"clock\": \"wall\"}}, \
                 \"programs\": [{{\"name\": \"p1\", \"verdict\": \"{verdict}\", \
                 \"verdict_ok\": {}, \"total_s\": {total_s:.4}}}]}}",
                verdict == "safe"
            )
        };
        let ledger = |verdict: &str, wall_us: u64| {
            let mut newest = rec(2, "p1", wall_us, verdict);
            newest.total_us = 1_000_000;
            vec![rec(1, "p1", 1_000_000, "safe"), newest]
        };
        // Clean, over threshold, and flip plus breach: the new side's
        // verdict and its slowdown, then the exit code and closing line.
        let cases = [
            ("safe", 1, 0, "ok, no differences"),
            (
                "safe",
                10,
                1,
                "FAILED, 1 change(s), 1 over threshold, 0 verdict flip(s)",
            ),
            (
                "unsafe",
                10,
                2,
                "FAILED, 2 change(s), 1 over threshold, 1 verdict flip(s)",
            ),
        ];
        for (verdict, factor, code, closing) in cases {
            let reports = [
                (
                    "trace-diff",
                    trace_diff(&trace("safe", 100), &trace(verdict, 100 * factor), &gate),
                ),
                (
                    "bench-diff",
                    bench_diff(
                        &bench("safe", 0.5),
                        &bench(verdict, 0.5 * factor as f64),
                        &gate,
                    ),
                ),
                (
                    "regress",
                    regress(
                        &ledger(verdict, 1_000_000 * factor),
                        &TrendOptions::default(),
                    ),
                ),
            ];
            for (tool, report) in reports {
                assert_eq!(report.exit_code(), code, "{tool}: {}", report.text);
                let last = report.text.lines().last().unwrap_or("");
                assert_eq!(last, format!("{tool}: {closing}"), "{}", report.text);
            }
        }
    }
}
