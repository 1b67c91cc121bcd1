//! The scoped-span self-profiler: folds a wall-clock trace into
//! flamegraph-style stacks.
//!
//! The tracer and the profiler share one instrumentation point — the
//! existing trace events. Every timed event carries an *end* timestamp
//! (`ts`, µs since the tracer's origin) and a duration (`dur_us`), so it
//! denotes the interval `[ts - dur_us, ts]`. [`fold_trace`] reconstructs
//! the span hierarchy from interval containment:
//!
//! * `run_end` — the root frame of a run (named by the preceding
//!   `run_start`),
//! * `iter` — one CEGAR iteration,
//! * `span` — a timed phase of the phase table (`homc_budget::TIMED`),
//! * `abs_def` — one definition's abstraction (`def:<name>`),
//! * `smt` — one solver query.
//!
//! Intervals are sorted by start (ties: wider first) and nested with a
//! stack; a child is clipped to its parent's bounds, so the output
//! *telescopes by construction*: each frame's inclusive time is at least
//! the sum of its direct children's ([`Profile::check_telescoping`]
//! verifies this on the finished aggregate, and CI's `profile-smoke` stage
//! re-checks it via [`validate_folded`]).
//!
//! The folded output is one `frame;frame;frame <µs>` line per stack with
//! *exclusive* microseconds as the count — exactly what `flamegraph.pl`
//! consumes. Frame labels are sanitized (no `;`, no whitespace).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use homc_trace::{parse_json, JsonValue};

/// One reconstructed interval, before nesting.
struct Interval {
    start: u64,
    end: u64,
    label: String,
}

/// Aggregate times for one stack path (`;`-joined frame labels).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanAgg {
    /// Occurrences of this exact stack.
    pub count: u64,
    /// Inclusive microseconds (children included).
    pub incl_us: u64,
    /// Exclusive microseconds (inclusive minus direct children).
    pub excl_us: u64,
}

/// A folded profile: stack path → aggregate, in lexicographic path order
/// (a parent's path is a strict prefix of its children's, so parents sort
/// first).
#[derive(Clone, Debug, Default)]
pub struct Profile {
    /// Aggregates keyed by `;`-joined stack path.
    pub spans: BTreeMap<String, SpanAgg>,
    /// Lines that did not parse as JSON (tolerated, like `trace-report`).
    pub bad_lines: usize,
}

/// Replaces separator and whitespace characters so a label is a valid
/// folded-stack frame.
fn sanitize(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c == ';' || c.is_whitespace() {
                '_'
            } else {
                c
            }
        })
        .collect()
}

fn num_u64(v: &JsonValue, key: &str) -> u64 {
    v.get(key)
        .and_then(JsonValue::as_num)
        .and_then(|n| u64::try_from(n).ok())
        .unwrap_or(0)
}

/// One run's events, folded independently (a suite trace holds many runs).
struct RunEvents {
    name: String,
    /// The root interval from `run_end`, when present.
    root: Option<Interval>,
    intervals: Vec<Interval>,
}

/// Folds raw JSONL trace text into a [`Profile`].
pub fn fold_trace(text: &str) -> Profile {
    let mut runs: Vec<RunEvents> = Vec::new();
    let mut bad_lines = 0usize;
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let Ok(v) = parse_json(line) else {
            bad_lines += 1;
            continue;
        };
        let ev = v.get("ev").and_then(JsonValue::as_str).unwrap_or("");
        if ev == "run_start" {
            runs.push(RunEvents {
                name: sanitize(v.get("name").and_then(JsonValue::as_str).unwrap_or("run")),
                root: None,
                intervals: Vec::new(),
            });
            continue;
        }
        let label = match ev {
            "run_end" => None,
            "iter" => Some("iter".to_string()),
            "span" => Some(sanitize(
                v.get("phase")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("phase"),
            )),
            "abs_def" => Some(format!(
                "def:{}",
                sanitize(v.get("def").and_then(JsonValue::as_str).unwrap_or("?"))
            )),
            "smt" => Some("smt".to_string()),
            // Untimed events (mc_round, interp_cut, fault, verdict, …).
            _ => continue,
        };
        if runs.is_empty() {
            runs.push(RunEvents {
                name: "trace".to_string(),
                root: None,
                intervals: Vec::new(),
            });
        }
        let run = runs.last_mut().expect("non-empty");
        let ts = num_u64(&v, "ts");
        let dur = num_u64(&v, "dur_us");
        let iv = Interval {
            start: ts.saturating_sub(dur),
            end: ts,
            label: label.clone().unwrap_or_default(),
        };
        match label {
            None => run.root = Some(iv),
            Some(_) => run.intervals.push(iv),
        }
    }

    let mut profile = Profile {
        spans: BTreeMap::new(),
        bad_lines,
    };
    for run in runs {
        fold_run(run, &mut profile.spans);
    }
    // Exclusive = inclusive − Σ direct children inclusive. Clipping during
    // nesting makes the subtraction non-negative, but saturate anyway.
    let child_sums: BTreeMap<String, u64> = {
        let mut sums: BTreeMap<String, u64> = BTreeMap::new();
        for (path, agg) in &profile.spans {
            if let Some(cut) = path.rfind(';') {
                *sums.entry(path[..cut].to_string()).or_insert(0) += agg.incl_us;
            }
        }
        sums
    };
    for (path, agg) in &mut profile.spans {
        let children = child_sums.get(path).copied().unwrap_or(0);
        agg.excl_us = agg.incl_us.saturating_sub(children);
    }
    profile
}

/// Nests one run's intervals by containment and merges them into `spans`.
fn fold_run(mut run: RunEvents, spans: &mut BTreeMap<String, SpanAgg>) {
    // Root: the run_end interval, or the hull of everything observed.
    let root = run.root.unwrap_or_else(|| Interval {
        start: run.intervals.iter().map(|i| i.start).min().unwrap_or(0),
        end: run.intervals.iter().map(|i| i.end).max().unwrap_or(0),
        label: String::new(),
    });
    // Sort: earlier start first; on ties the wider interval is the parent.
    // The sort is stable, so equal intervals keep emission order.
    run.intervals
        .sort_by(|a, b| a.start.cmp(&b.start).then(b.end.cmp(&a.end)));

    // Stack of (path, clipped end).
    let mut stack: Vec<(String, u64)> = vec![(run.name.clone(), root.end)];
    record(spans, &run.name, root.end.saturating_sub(root.start));
    for iv in &run.intervals {
        // Clip to the root so stray events cannot escape the run frame.
        let start = iv.start.clamp(root.start, root.end);
        let mut end = iv.end.clamp(root.start, root.end);
        while stack.len() > 1 && start >= stack.last().expect("non-empty").1 {
            stack.pop();
        }
        let (parent_path, parent_end) = stack.last().expect("root stays");
        end = end.min(*parent_end);
        let end = end.max(start);
        let path = format!("{parent_path};{}", iv.label);
        record(spans, &path, end - start);
        stack.push((path, end));
    }
}

fn record(spans: &mut BTreeMap<String, SpanAgg>, path: &str, dur: u64) {
    let agg = spans.entry(path.to_string()).or_default();
    agg.count += 1;
    agg.incl_us += dur;
}

impl Profile {
    /// The folded-stack rendering: one `path count` line per stack, count =
    /// exclusive microseconds, zero-time leaf stacks omitted (flamegraph.pl
    /// ignores them anyway). Deterministic: lexicographic path order.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for (path, agg) in &self.spans {
            if agg.excl_us > 0 {
                let _ = writeln!(out, "{path} {}", agg.excl_us);
            }
        }
        out
    }

    /// A human-readable tree: indentation from stack depth, inclusive and
    /// exclusive milliseconds, occurrence counts.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>10} {:>10} {:>7}  span",
            "incl_ms", "excl_ms", "count"
        );
        for (path, agg) in &self.spans {
            let depth = path.matches(';').count();
            let label = path.rsplit(';').next().unwrap_or(path);
            let _ = writeln!(
                out,
                "{:>10.1} {:>10.1} {:>7}  {}{}",
                agg.incl_us as f64 / 1000.0,
                agg.excl_us as f64 / 1000.0,
                agg.count,
                "  ".repeat(depth),
                label,
            );
        }
        out
    }

    /// Verifies the telescoping invariant on the aggregate: for every span,
    /// the sum of its direct children's inclusive time must not exceed its
    /// own. Returns the first violation.
    pub fn check_telescoping(&self) -> Result<(), String> {
        let mut child_sums: BTreeMap<&str, u64> = BTreeMap::new();
        for (path, agg) in &self.spans {
            if let Some(cut) = path.rfind(';') {
                *child_sums.entry(&path[..cut]).or_insert(0) += agg.incl_us;
            }
        }
        for (path, sum) in child_sums {
            let parent = self
                .spans
                .get(path)
                .ok_or_else(|| format!("span {path:?} has children but no aggregate"))?;
            if sum > parent.incl_us {
                return Err(format!(
                    "telescoping violated at {path:?}: children {sum}µs > parent {}µs",
                    parent.incl_us
                ));
            }
        }
        Ok(())
    }
}

/// Validates folded-stack text (the `profile-smoke` CI check): every line
/// must be `frame(;frame)* <u64>` with non-empty frames and no stray
/// whitespace. Returns the number of stacks.
pub fn validate_folded(text: &str) -> Result<usize, String> {
    let mut n = 0usize;
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        let Some((stack, count)) = line.rsplit_once(' ') else {
            return Err(format!("line {lineno}: missing count separator"));
        };
        if count.parse::<u64>().is_err() {
            return Err(format!("line {lineno}: count {count:?} is not a u64"));
        }
        if stack.is_empty() {
            return Err(format!("line {lineno}: empty stack"));
        }
        for frame in stack.split(';') {
            if frame.is_empty() {
                return Err(format!("line {lineno}: empty frame in {stack:?}"));
            }
            if frame.chars().any(|c| c.is_whitespace()) {
                return Err(format!("line {lineno}: whitespace inside frame {frame:?}"));
            }
        }
        n += 1;
    }
    if n == 0 {
        return Err("no stacks".to_string());
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature wall-clock trace: one run, one iteration, two phases,
    /// one solver call inside `abs`, one abstracted definition.
    fn sample_trace() -> &'static str {
        concat!(
            "{\"ts\":0,\"ev\":\"run_start\",\"name\":\"p one\",\"clock\":\"wall\"}\n",
            "{\"ts\":300,\"ev\":\"smt\",\"key\":\"aa\",\"size\":3,\"result\":\"unsat\",\"dur_us\":100,\"q\":\"(x>0)\"}\n",
            "{\"ts\":400,\"ev\":\"abs_def\",\"def\":\"f g\",\"queries\":1,\"dur_us\":350}\n",
            "{\"ts\":500,\"ev\":\"span\",\"phase\":\"abs\",\"iter\":0,\"dur_us\":450}\n",
            "{\"ts\":900,\"ev\":\"span\",\"phase\":\"mc\",\"iter\":0,\"dur_us\":380}\n",
            "{\"ts\":1000,\"ev\":\"iter\",\"iter\":0,\"outcome\":\"safe\",\"dur_us\":970}\n",
            "{\"ts\":1100,\"ev\":\"run_end\",\"dur_us\":1100}\n",
        )
    }

    #[test]
    fn nests_by_containment_and_telescopes() {
        let p = fold_trace(sample_trace());
        assert_eq!(p.bad_lines, 0);
        let incl = |path: &str| p.spans.get(path).map(|a| a.incl_us);
        assert_eq!(incl("p_one"), Some(1100));
        assert_eq!(incl("p_one;iter"), Some(970));
        assert_eq!(incl("p_one;iter;abs"), Some(450));
        assert_eq!(incl("p_one;iter;abs;def:f_g"), Some(350));
        assert_eq!(incl("p_one;iter;abs;def:f_g;smt"), Some(100));
        assert_eq!(incl("p_one;iter;mc"), Some(380));
        p.check_telescoping().expect("telescopes");
        // Exclusive: abs = 450 − def(350); iter = 970 − abs − mc.
        assert_eq!(p.spans["p_one;iter;abs"].excl_us, 100);
        assert_eq!(p.spans["p_one;iter"].excl_us, 970 - 450 - 380);
    }

    #[test]
    fn clips_overhanging_children() {
        // A child whose measured end overhangs its parent by jitter is
        // clipped, not promoted to a sibling.
        let trace = concat!(
            "{\"ts\":0,\"ev\":\"run_start\",\"name\":\"p\",\"clock\":\"wall\"}\n",
            "{\"ts\":205,\"ev\":\"smt\",\"key\":\"aa\",\"size\":1,\"result\":\"sat\",\"dur_us\":150,\"q\":\"\"}\n",
            "{\"ts\":200,\"ev\":\"span\",\"phase\":\"abs\",\"iter\":0,\"dur_us\":180}\n",
            "{\"ts\":400,\"ev\":\"run_end\",\"dur_us\":400}\n",
        );
        let p = fold_trace(trace);
        p.check_telescoping().expect("telescopes after clipping");
        assert_eq!(p.spans["p;abs;smt"].incl_us, 145); // [55,205] ∩ [20,200]
    }

    #[test]
    fn folded_output_is_wellformed_and_deterministic() {
        let p = fold_trace(sample_trace());
        let folded = p.folded();
        let n = validate_folded(&folded).expect("well-formed");
        assert!(n >= 4, "{folded}");
        assert_eq!(folded, fold_trace(sample_trace()).folded());
        // Counts are exclusive µs: the leaf solver call appears verbatim.
        assert!(
            folded.contains("p_one;iter;abs;def:f_g;smt 100"),
            "{folded}"
        );
    }

    #[test]
    fn validate_folded_rejects_malformed() {
        assert!(validate_folded("").is_err());
        assert!(validate_folded("noseparator\n").is_err());
        assert!(validate_folded("a;b notanumber\n").is_err());
        assert!(validate_folded("a;;b 3\n").is_err());
        assert!(validate_folded("a 12\n").is_ok());
    }

    #[test]
    fn multiple_runs_get_separate_roots() {
        let trace = concat!(
            "{\"ts\":0,\"ev\":\"run_start\",\"name\":\"a\",\"clock\":\"wall\"}\n",
            "{\"ts\":10,\"ev\":\"span\",\"phase\":\"abs\",\"iter\":0,\"dur_us\":8}\n",
            "{\"ts\":20,\"ev\":\"run_end\",\"dur_us\":20}\n",
            "{\"ts\":30,\"ev\":\"run_start\",\"name\":\"b\",\"clock\":\"wall\"}\n",
            "{\"ts\":40,\"ev\":\"span\",\"phase\":\"mc\",\"iter\":0,\"dur_us\":5}\n",
            "{\"ts\":50,\"ev\":\"run_end\",\"dur_us\":20}\n",
        );
        let p = fold_trace(trace);
        assert!(p.spans.contains_key("a;abs"));
        assert!(p.spans.contains_key("b;mc"));
        assert!(!p.spans.contains_key("a;mc"));
        p.check_telescoping().expect("telescopes");
    }
}
