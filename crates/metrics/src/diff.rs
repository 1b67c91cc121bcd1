//! The one gate engine, behind `homc trace-diff`, `homc bench-diff` and
//! `homc regress`.
//!
//! Each command is a *distiller*: it reduces its input to per-program
//! [`Summary`]s (a verdict, an optional pass flag and a flat `name → f64`
//! metric map) and hands both sides to [`compare`], which diffs them under
//! one rule list and renders one report. The severity is the exit code:
//!
//! | exit | meaning                                        |
//! |------|------------------------------------------------|
//! | 0    | no differences beyond thresholds               |
//! | 1    | a metric regressed past its threshold          |
//! | 2    | a verdict flipped (hard error, beats 1)        |
//! | 3    | inputs are incompatible / unreadable (beats 2) |
//!
//! A threshold `name=ratio[:slack]` flags a metric when
//! `new > old * ratio + slack` — only *increases* gate, shrinkage is
//! reported but never fails. Lookup tries the qualified
//! `<program>.<metric>` name first, then the bare metric name, and later
//! rules win, so `--threshold total_s=2.0` covers every program while
//! `--threshold totals.wall_s=1.25` pins the suite aggregate. A verdict
//! flips when its kind (the first word: `safe`, `unsafe`, `unknown`)
//! changes or its pass flag goes from true to false; any other verdict
//! change is reported without gating.
//!
//! `trace-diff` distills JSONL traces: counters aggregated from `iter`
//! records (every [`crate::Surface::Iter`] counter of the counter table,
//! plus the records' fixed effort fields) and event counts, and histogram
//! summaries (p50/p90/max per [`crate::Hist`] vocabulary) rebuilt from the
//! `smt`, `interp_cut`, `mc_round`, and `iter` events; both sides must run
//! under the same clock. `bench-diff` distills two table1 `--json`
//! baselines (`verdict_ok` is the pass flag) and first checks their `meta`
//! headers (schema, suite, clock) — mismatches refuse to diff rather than
//! produce noise. `regress` distills the run ledger (`homc-serve`'s
//! `trend` module).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use homc_trace::{parse_json, JsonValue};

use crate::{Agg, HistSnapshot, Surface, COUNTERS};

/// One gate rule: flag a metric when `new > old * ratio + slack`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Threshold {
    /// Multiplicative allowance on the old value.
    pub ratio: f64,
    /// Absolute allowance on top (absorbs jitter near zero).
    pub slack: f64,
}

/// Options of `trace-diff` and `bench-diff`.
#[derive(Clone, Debug, Default)]
pub struct DiffOptions {
    /// `(metric name, rule)` pairs; later entries win on name collisions.
    pub thresholds: Vec<(String, Threshold)>,
    /// Apply the built-in bench gate rules (tier1's regression guard).
    pub gate: bool,
}

/// Parses a `--threshold` argument: `name=ratio` or `name=ratio:slack`.
pub fn parse_threshold(s: &str) -> Result<(String, Threshold), String> {
    let (name, rest) = s
        .split_once('=')
        .ok_or_else(|| format!("threshold {s:?}: expected name=ratio[:slack]"))?;
    if name.is_empty() {
        return Err(format!("threshold {s:?}: empty metric name"));
    }
    let (ratio_s, slack_s) = match rest.split_once(':') {
        Some((r, sl)) => (r, Some(sl)),
        None => (rest, None),
    };
    let ratio: f64 = ratio_s
        .parse()
        .map_err(|_| format!("threshold {s:?}: bad ratio {ratio_s:?}"))?;
    if !ratio.is_finite() || ratio < 1.0 {
        return Err(format!("threshold {s:?}: ratio must be >= 1.0"));
    }
    let slack: f64 = match slack_s {
        Some(sl) => sl
            .parse()
            .map_err(|_| format!("threshold {s:?}: bad slack {sl:?}"))?,
        None => 0.0,
    };
    if !slack.is_finite() || slack < 0.0 {
        return Err(format!("threshold {s:?}: slack must be >= 0"));
    }
    Ok((name.to_string(), Threshold { ratio, slack }))
}

/// The built-in `--gate` rules (the tier1 bench guard): suite wall time
/// within 1.25x (+0.2 s jitter), per-program total time within 2x (+0.1 s),
/// per-program SMT query count within 1.5x (+200 queries).
const GATE_RULES: &[&str] = &[
    "totals.wall_s=1.25:0.2",
    "total_s=2.0:0.1",
    "smt_queries=1.5:200",
];

/// A rule list for [`compare`]: built-in `defaults`, written in the
/// `--threshold` form, then `extra`, whose rules win on a collision.
pub fn rules(defaults: &[&str], extra: &[(String, Threshold)]) -> Vec<(String, Threshold)> {
    let parsed = defaults
        .iter()
        .map(|r| parse_threshold(r).expect("built-in rules parse"));
    parsed.chain(extra.iter().cloned()).collect()
}

/// The outcome of a diff: rendered report plus severity tallies.
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    /// The human-readable report; its closing line is `<tool>: ok, ...`,
    /// `<tool>: FAILED, ...` or `<tool>: incompatible: <why>`.
    pub text: String,
    /// Metrics and verdicts that differ at all (informational).
    pub changes: usize,
    /// Metrics past a threshold, plus structural mismatches.
    pub breaches: usize,
    /// Programs whose verdict flipped.
    pub flips: usize,
    /// Set when the inputs must not be compared (meta mismatch, clock
    /// mismatch, unparseable input, foreign ledger schema).
    pub incompatible: Option<String>,
}

impl DiffReport {
    /// The process exit code for this report (see the module table).
    pub fn exit_code(&self) -> u8 {
        if self.incompatible.is_some() {
            3
        } else if self.flips > 0 {
            2
        } else if self.breaches > 0 {
            1
        } else {
            0
        }
    }
}

/// One program as a distiller sees it.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    /// Verdict text; its first word is the kind a flip is judged on.
    pub verdict: String,
    /// Whether the verdict was the expected one, where the input says so.
    pub ok: Option<bool>,
    /// Flat metrics, diffed key by key.
    pub metrics: BTreeMap<String, f64>,
}

/// Both sides of a comparison, as a distiller hands them to [`compare`].
#[derive(Clone, Debug, Default)]
pub struct Sides {
    /// Context lines printed above the diff.
    pub notes: String,
    /// Program name → summary, old side.
    pub old: BTreeMap<String, Summary>,
    /// Program name → summary, new side.
    pub new: BTreeMap<String, Summary>,
}

fn text_of<'v>(v: &'v JsonValue, key: &str) -> &'v str {
    v.get(key).and_then(JsonValue::as_str).unwrap_or("")
}

fn f64_of(v: &JsonValue, key: &str) -> f64 {
    v.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0)
}

fn u64_of(v: &JsonValue, key: &str) -> u64 {
    v.get(key)
        .and_then(JsonValue::as_num)
        .and_then(|n| u64::try_from(n).ok())
        .unwrap_or(0)
}

/// Flattens a histogram into `p50`/`p90`/`max` summary metrics (skipped
/// entirely when empty so absent instrumentation does not read as zeros).
fn hist_metrics(metrics: &mut BTreeMap<String, f64>, name: &str, h: &HistSnapshot) {
    if h.count == 0 {
        return;
    }
    metrics.insert(format!("{name}.p50"), h.quantile_bound(0.50) as f64);
    metrics.insert(format!("{name}.p90"), h.quantile_bound(0.90) as f64);
    metrics.insert(format!("{name}.max"), h.max as f64);
}

/// Per-run summaries of a JSONL trace, plus each run's clock.
type TraceRuns = (BTreeMap<String, Summary>, BTreeMap<String, String>);

/// Summarizes a JSONL trace into per-run metric maps. Counters aggregate
/// across `iter` records (summed, or the last value of an [`Agg::Last`]
/// counter); histograms are rebuilt from the raw events using the
/// [`crate::Hist`] vocabulary.
fn summarize_trace(trace: &str) -> Result<TraceRuns, String> {
    let mut runs: BTreeMap<String, Summary> = BTreeMap::new();
    let mut clocks: BTreeMap<String, String> = BTreeMap::new();
    let mut current: Option<String> = None;
    let mut hists: BTreeMap<String, BTreeMap<&'static str, HistSnapshot>> = BTreeMap::new();
    let mut bad = 0usize;
    for line in trace.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let Ok(v) = parse_json(line) else {
            bad += 1;
            continue;
        };
        let ev = text_of(&v, "ev");
        if ev == "run_start" {
            let name = text_of(&v, "name").to_string();
            runs.entry(name.clone()).or_default();
            clocks.insert(name.clone(), text_of(&v, "clock").to_string());
            current = Some(name);
            continue;
        }
        let name = current.clone().unwrap_or_else(|| "<trace>".to_string());
        let run = runs.entry(name.clone()).or_default();
        let hs = hists.entry(name).or_default();
        fn add(m: &mut BTreeMap<String, f64>, key: &str, delta: f64) {
            *m.entry(key.to_string()).or_insert(0.0) += delta;
        }
        match ev {
            "iter" => {
                add(&mut run.metrics, "iters", 1.0);
                for key in [
                    "typings",
                    "pops",
                    "rescans",
                    "new_interp",
                    "new_seeded",
                    "fuel",
                ] {
                    add(&mut run.metrics, key, f64_of(&v, key));
                }
                // Counters aggregate over iterations as the table says.
                for c in COUNTERS.into_iter().filter(|c| c.shows(Surface::Iter)) {
                    let x = f64_of(&v, c.name());
                    match c.agg() {
                        Agg::Last => {
                            run.metrics.insert(c.name().to_string(), x);
                        }
                        _ => add(&mut run.metrics, c.name(), x),
                    }
                }
                let peak = run.metrics.entry("peak_bytes".to_string()).or_insert(0.0);
                *peak = peak.max(f64_of(&v, "peak_bytes"));
                hs.entry("hbp_rules")
                    .or_default()
                    .observe(u64_of(&v, "hbp_rules"));
                hs.entry("hbp_terms")
                    .or_default()
                    .observe(u64_of(&v, "hbp_terms"));
            }
            "smt" => {
                add(&mut run.metrics, "smt_solves", 1.0);
                hs.entry("smt_solve_us")
                    .or_default()
                    .observe(u64_of(&v, "dur_us"));
            }
            "interp_cut" => {
                add(&mut run.metrics, "interp_cuts", 1.0);
                hs.entry("interp_size")
                    .or_default()
                    .observe(u64_of(&v, "size"));
            }
            "mc_round" => {
                add(&mut run.metrics, "mc_rounds", 1.0);
                hs.entry("worklist_depth")
                    .or_default()
                    .observe(u64_of(&v, "dirty"));
            }
            "abs_def" => add(&mut run.metrics, "abs_defs", 1.0),
            "fault" => add(&mut run.metrics, "faults", 1.0),
            "verdict" => {
                run.verdict = text_of(&v, "verdict").to_string();
                add(&mut run.metrics, "cycles", f64_of(&v, "cycles"));
            }
            _ => {}
        }
    }
    if bad > 0 && runs.is_empty() {
        return Err(format!("{bad} unparseable line(s) and no events"));
    }
    for (name, hs) in hists {
        let run = runs.get_mut(&name).expect("run exists for its hists");
        for (hname, h) in hs {
            hist_metrics(&mut run.metrics, hname, &h);
        }
    }
    // A run with peak_bytes 0 never had the allocator installed: drop the
    // zero so it does not read as "0 bytes" against an instrumented run.
    for run in runs.values_mut() {
        if run.metrics.get("peak_bytes") == Some(&0.0) {
            run.metrics.remove("peak_bytes");
        }
    }
    Ok((runs, clocks))
}

/// Formats a metric value: integers without decoration, fractions at 4
/// decimal places (matching the bench baseline's own precision).
fn fmt_val(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.4}")
    }
}

/// Looks up the rule for `prog.metric`: qualified name first, then bare.
fn rule_for<'t>(
    thresholds: &'t [(String, Threshold)],
    prog: &str,
    metric: &str,
) -> Option<&'t Threshold> {
    let qualified = format!("{prog}.{metric}");
    // Later entries win: user-supplied rules are pushed after defaults.
    thresholds
        .iter()
        .rev()
        .find(|(n, _)| *n == qualified)
        .or_else(|| thresholds.iter().rev().find(|(n, _)| *n == metric))
        .map(|(_, t)| t)
}

/// Diffs one program's metric maps, appending report lines.
fn diff_metrics(
    report: &mut DiffReport,
    thresholds: &[(String, Threshold)],
    prog: &str,
    old: &BTreeMap<String, f64>,
    new: &BTreeMap<String, f64>,
) {
    let keys: BTreeSet<&String> = old.keys().chain(new.keys()).collect();
    for key in keys {
        let o = old.get(key).copied().unwrap_or(0.0);
        let n = new.get(key).copied().unwrap_or(0.0);
        if (o - n).abs() < 1e-9 {
            continue;
        }
        report.changes += 1;
        let rule = rule_for(thresholds, prog, key);
        let breached = rule.is_some_and(|t| n > o * t.ratio + t.slack);
        let marker = if breached {
            report.breaches += 1;
            "  ** OVER THRESHOLD **"
        } else {
            ""
        };
        let pct = if o.abs() > 1e-9 {
            format!(" ({:+.1}%)", (n - o) / o * 100.0)
        } else {
            String::new()
        };
        let _ = writeln!(
            report.text,
            "  {prog} {key}: {} -> {}{pct}{marker}",
            fmt_val(o),
            fmt_val(n),
        );
    }
}

/// Diffs one program's verdict and pass flag. A flip is a change of
/// verdict kind (the first word) or the pass flag going from true to
/// false; any other change is reported but does not gate.
fn diff_verdicts(report: &mut DiffReport, prog: &str, old: &Summary, new: &Summary) {
    let shown = |s: &str| {
        if s.is_empty() {
            "<none>".to_string()
        } else {
            s.to_string()
        }
    };
    let flag = |ok: Option<bool>| ok.map_or("<none>".to_string(), |b| b.to_string());
    let detail = if old.verdict != new.verdict {
        format!("{} -> {}", shown(&old.verdict), shown(&new.verdict))
    } else if old.ok != new.ok {
        format!("verdict_ok {} -> {}", flag(old.ok), flag(new.ok))
    } else {
        return;
    };
    report.changes += 1;
    let kind_changed =
        old.verdict.split_whitespace().next() != new.verdict.split_whitespace().next();
    let what = if kind_changed || (old.ok == Some(true) && new.ok == Some(false)) {
        report.flips += 1;
        "VERDICT FLIP"
    } else {
        "verdict change"
    };
    let _ = writeln!(report.text, "  {prog}: {what} {detail}");
}

/// The engine: diffs two sets of per-program summaries under `rules` and
/// renders `tool`'s report, ending in its closing line. An `Err` from
/// the distiller is a refusal to compare (exit 3), reported with its
/// reason.
pub fn compare(
    tool: &str,
    sides: Result<Sides, String>,
    rules: &[(String, Threshold)],
) -> DiffReport {
    let sides = match sides {
        Ok(sides) => sides,
        Err(why) => {
            return DiffReport {
                text: format!("{tool}: incompatible: {why}\n"),
                incompatible: Some(why),
                ..DiffReport::default()
            }
        }
    };
    let mut report = DiffReport {
        text: sides.notes,
        ..DiffReport::default()
    };
    let names: BTreeSet<&String> = sides.old.keys().chain(sides.new.keys()).collect();
    for name in names {
        match (sides.old.get(name), sides.new.get(name)) {
            (Some(o), Some(n)) => {
                diff_verdicts(&mut report, name, o, n);
                diff_metrics(&mut report, rules, name, &o.metrics, &n.metrics);
            }
            (o, _) => {
                report.breaches += 1;
                report.changes += 1;
                let side = if o.is_some() { "old" } else { "new" };
                let _ = writeln!(report.text, "  {name}: only in {side} run");
            }
        }
    }
    let status = if report.exit_code() == 0 {
        "ok"
    } else {
        "FAILED"
    };
    if report.changes == 0 {
        let _ = writeln!(report.text, "{tool}: ok, no differences");
    } else {
        let _ = writeln!(
            report.text,
            "{tool}: {status}, {} change(s), {} over threshold, {} verdict flip(s)",
            report.changes, report.breaches, report.flips
        );
    }
    report
}

/// Diffs two JSONL traces (`homc trace-diff`). Both sides must use the
/// same clock per run — wall durations against logical zeros would read as
/// a total collapse.
pub fn trace_diff(old: &str, new: &str, opts: &DiffOptions) -> DiffReport {
    let gate = if opts.gate { GATE_RULES } else { &[] };
    compare(
        "trace-diff",
        trace_sides(old, new),
        &rules(gate, &opts.thresholds),
    )
}

fn trace_sides(old: &str, new: &str) -> Result<Sides, String> {
    let (old, old_clocks) = summarize_trace(old).map_err(|e| format!("old trace: {e}"))?;
    let (new, new_clocks) = summarize_trace(new).map_err(|e| format!("new trace: {e}"))?;
    for (name, o) in &old_clocks {
        match new_clocks.get(name) {
            Some(n) if n != o => {
                return Err(format!("run {name:?}: clock mismatch ({o:?} vs {n:?})"))
            }
            _ => {}
        }
    }
    Ok(Sides {
        notes: String::new(),
        old,
        new,
    })
}

/// Reads the bench baseline's `meta` header into sorted `(key, value)`
/// pairs (numbers and strings only).
fn meta_fields(doc: &JsonValue) -> Option<Vec<(String, String)>> {
    let meta = doc.get("meta")?;
    let fields = meta.as_obj()?;
    let mut out: Vec<(String, String)> = fields
        .iter()
        .filter_map(|(k, v)| {
            let rendered = v
                .as_str()
                .map(str::to_string)
                .or_else(|| v.as_num().map(|n| n.to_string()))?;
            Some((k.clone(), rendered))
        })
        .collect();
    out.sort();
    Some(out)
}

/// Summarizes a table1 `--json` baseline: per-program numeric columns plus
/// a synthetic `totals` program.
fn summarize_bench(doc: &JsonValue) -> Result<BTreeMap<String, Summary>, String> {
    let numeric = |v: &JsonValue| -> BTreeMap<String, f64> {
        let fields = v.as_obj().unwrap_or(&[]).iter();
        fields
            .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
            .collect()
    };
    let mut out = BTreeMap::new();
    let programs = doc
        .get("programs")
        .and_then(|p| match p {
            JsonValue::Arr(items) => Some(items.as_slice()),
            _ => None,
        })
        .ok_or("missing \"programs\" array")?;
    for p in programs {
        let name = text_of(p, "name");
        if name.is_empty() {
            return Err("program row without a name".to_string());
        }
        let summary = Summary {
            verdict: text_of(p, "verdict").to_string(),
            ok: match p.get("verdict_ok") {
                Some(JsonValue::Bool(b)) => Some(*b),
                _ => None,
            },
            metrics: numeric(p),
        };
        out.insert(name.to_string(), summary);
    }
    if let Some(totals) = doc.get("totals") {
        let summary = Summary {
            metrics: numeric(totals),
            ..Summary::default()
        };
        out.insert("totals".to_string(), summary);
    }
    Ok(out)
}

/// Keys on which a `meta` disagreement makes two baselines incomparable.
const META_STRICT: &[&str] = &["schema", "suite", "clock"];

/// Diffs two table1 `--json` baselines (`homc bench-diff`).
pub fn bench_diff(old: &str, new: &str, opts: &DiffOptions) -> DiffReport {
    let gate = if opts.gate { GATE_RULES } else { &[] };
    compare(
        "bench-diff",
        bench_sides(old, new),
        &rules(gate, &opts.thresholds),
    )
}

fn bench_sides(old: &str, new: &str) -> Result<Sides, String> {
    let old_doc = parse_json(old.trim()).map_err(|e| format!("old baseline: {e}"))?;
    let new_doc = parse_json(new.trim()).map_err(|e| format!("new baseline: {e}"))?;
    let mut notes = String::new();
    match (meta_fields(&old_doc), meta_fields(&new_doc)) {
        (Some(om), Some(nm)) => {
            let get = |m: &[(String, String)], k: &str| {
                m.iter().find(|(n, _)| n == k).map(|(_, v)| v.clone())
            };
            for key in META_STRICT {
                let (ov, nv) = (get(&om, key), get(&nm, key));
                if ov != nv {
                    return Err(format!(
                        "meta mismatch on {key:?}: {} vs {} — refusing to compare",
                        ov.as_deref().unwrap_or("<absent>"),
                        nv.as_deref().unwrap_or("<absent>"),
                    ));
                }
            }
        }
        (None, None) => notes.push_str("  note: no meta headers (pre-schema baselines)\n"),
        (old_meta, _) => {
            return Err(format!(
                "only the {} baseline has a meta header — refusing to compare",
                if old_meta.is_some() { "old" } else { "new" },
            ))
        }
    }
    Ok(Sides {
        notes,
        old: summarize_bench(&old_doc).map_err(|e| format!("old baseline: {e}"))?,
        new: summarize_bench(&new_doc).map_err(|e| format!("new baseline: {e}"))?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(verdict: &str, hits: u64, dur: u64) -> String {
        format!(
            concat!(
                "{{\"ts\":0,\"ev\":\"run_start\",\"name\":\"p1\",\"clock\":\"logical\"}}\n",
                "{{\"ts\":1,\"ev\":\"smt\",\"key\":\"aa\",\"size\":3,\"result\":\"unsat\",\"dur_us\":{dur},\"q\":\"\"}}\n",
                "{{\"ts\":2,\"ev\":\"iter\",\"iter\":0,\"outcome\":\"safe\",\"cache_hits\":{hits},\"hbp_terms\":40}}\n",
                "{{\"ts\":3,\"ev\":\"verdict\",\"verdict\":\"{v}\",\"cycles\":1}}\n",
                "{{\"ts\":4,\"ev\":\"run_end\",\"dur_us\":0}}\n",
            ),
            v = verdict,
            hits = hits,
            dur = dur,
        )
    }

    #[test]
    fn identical_traces_diff_empty() {
        let a = trace("safe", 5, 100);
        let r = trace_diff(&a, &a, &DiffOptions::default());
        assert_eq!(r.exit_code(), 0, "{}", r.text);
        assert!(r.text.contains("no differences"), "{}", r.text);
    }

    #[test]
    fn verdict_flip_is_exit_2() {
        let r = trace_diff(
            &trace("safe", 5, 100),
            &trace("unsafe", 5, 100),
            &DiffOptions::default(),
        );
        assert_eq!(r.exit_code(), 2, "{}", r.text);
        assert!(r.text.contains("VERDICT FLIP safe -> unsafe"), "{}", r.text);
    }

    #[test]
    fn counter_regression_gates_only_with_a_threshold() {
        let a = trace("safe", 5, 100);
        let b = trace("safe", 50, 100);
        let plain = trace_diff(&a, &b, &DiffOptions::default());
        assert_eq!(
            plain.exit_code(),
            0,
            "report-only without rules: {}",
            plain.text
        );
        assert!(plain.text.contains("cache_hits: 5 -> 50"), "{}", plain.text);
        let opts = DiffOptions {
            thresholds: vec![parse_threshold("cache_hits=2.0").expect("parses")],
            gate: false,
        };
        let gated = trace_diff(&a, &b, &opts);
        assert_eq!(gated.exit_code(), 1, "{}", gated.text);
        assert!(gated.text.contains("OVER THRESHOLD"), "{}", gated.text);
    }

    #[test]
    fn histogram_summaries_appear_in_the_diff() {
        let r = trace_diff(
            &trace("safe", 5, 100),
            &trace("safe", 5, 5000),
            &DiffOptions::default(),
        );
        assert_eq!(r.exit_code(), 0);
        assert!(
            r.text.contains("smt_solve_us.max: 100 -> 5000"),
            "{}",
            r.text
        );
        // Single observation: the quantile bound clamps to the max.
        assert!(
            r.text.contains("smt_solve_us.p90: 100 -> 5000"),
            "{}",
            r.text
        );
    }

    #[test]
    fn clock_mismatch_is_incompatible() {
        let wall = trace("safe", 5, 100).replace("logical", "wall");
        let r = trace_diff(&trace("safe", 5, 100), &wall, &DiffOptions::default());
        assert_eq!(r.exit_code(), 3);
        assert!(r.incompatible.expect("set").contains("clock mismatch"));
    }

    fn bench(meta: &str, total_s: f64, smt: u64, verdict_ok: bool) -> String {
        format!(
            "{{\n{meta}  \"programs\": [\n    {{\"name\": \"p1\", \"verdict\": \"safe\", \
             \"verdict_ok\": {verdict_ok}, \"cycles\": 2, \"total_s\": {total_s:.4}, \
             \"smt_queries\": {smt}}}\n  ],\n  \"totals\": {{\"wall_s\": {total_s:.4}, \
             \"smt_queries\": {smt}}}\n}}\n"
        )
    }

    const META: &str = "  \"meta\": {\"schema\": 2, \"suite\": \"table1\", \"threads\": 8, \"clock\": \"wall\"},\n";

    #[test]
    fn bench_gate_passes_identical_and_flags_regression() {
        let old = bench(META, 0.5, 1000, true);
        let same = bench_diff(
            &old,
            &old,
            &DiffOptions {
                thresholds: vec![],
                gate: true,
            },
        );
        assert_eq!(same.exit_code(), 0, "{}", same.text);
        // 3x slower and 3x more queries: both gate rules fire.
        let slow = bench(META, 1.5, 3000, true);
        let r = bench_diff(
            &old,
            &slow,
            &DiffOptions {
                thresholds: vec![],
                gate: true,
            },
        );
        assert_eq!(r.exit_code(), 1, "{}", r.text);
        assert!(r.text.contains("p1 total_s"), "{}", r.text);
        assert!(
            r.text.contains("totals.wall_s") || r.text.contains("totals wall_s"),
            "{}",
            r.text
        );
    }

    #[test]
    fn bench_verdict_ok_flip_beats_thresholds() {
        let old = bench(META, 0.5, 1000, true);
        let flipped = bench(META, 0.5, 1000, false);
        let r = bench_diff(
            &old,
            &flipped,
            &DiffOptions {
                thresholds: vec![],
                gate: true,
            },
        );
        assert_eq!(r.exit_code(), 2, "{}", r.text);
        assert!(r.text.contains("VERDICT FLIP verdict_ok"), "{}", r.text);
    }

    #[test]
    fn bench_meta_mismatch_refuses() {
        let old = bench(META, 0.5, 1000, true);
        let other =
            "  \"meta\": {\"schema\": 2, \"suite\": \"other\", \"threads\": 8, \"clock\": \"wall\"},\n";
        let r = bench_diff(
            &old,
            &bench(other, 0.5, 1000, true),
            &DiffOptions::default(),
        );
        assert_eq!(r.exit_code(), 3, "{}", r.text);
        let missing = bench_diff(&old, &bench("", 0.5, 1000, true), &DiffOptions::default());
        assert_eq!(missing.exit_code(), 3, "{}", missing.text);
    }

    #[test]
    fn threshold_parser_accepts_slack_and_rejects_nonsense() {
        let (name, t) = parse_threshold("total_s=2.0:0.1").expect("parses");
        assert_eq!(name, "total_s");
        assert_eq!(
            t,
            Threshold {
                ratio: 2.0,
                slack: 0.1
            }
        );
        assert!(parse_threshold("noequals").is_err());
        assert!(parse_threshold("x=0.5").is_err(), "ratio below 1");
        assert!(parse_threshold("x=2:-1").is_err(), "negative slack");
    }
}
