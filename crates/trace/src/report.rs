//! The `homc trace-report` renderer: a per-iteration timeline table per run
//! plus a top-k hottest-SMT-query summary across the whole trace.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use homc_budget::TIMED;

use crate::json::{parse_json, JsonValue};

fn num(v: &JsonValue, key: &str) -> i128 {
    v.get(key).and_then(JsonValue::as_num).unwrap_or(0)
}

fn text<'v>(v: &'v JsonValue, key: &str) -> &'v str {
    v.get(key).and_then(JsonValue::as_str).unwrap_or("")
}

/// Formats a microsecond count as milliseconds with one decimal.
fn ms(us: i128) -> String {
    format!("{}.{}", us / 1000, (us % 1000) / 100)
}

/// One run's accumulated events.
#[derive(Default)]
struct Run {
    name: String,
    clock: String,
    /// Per-iteration `span` durations: iter → phase → µs.
    spans: BTreeMap<i128, BTreeMap<String, i128>>,
    /// The `iter` records, in order.
    iters: Vec<JsonValue>,
    faults: Vec<JsonValue>,
    verdict: Option<JsonValue>,
    dur_us: i128,
}

/// Per-query aggregate for the hottest-query table.
#[derive(Default)]
struct QueryAgg {
    count: u64,
    total_us: i128,
    size: i128,
    sample: String,
}

/// Renders a human-readable report from raw JSONL trace text. Lines that do
/// not parse are counted and noted rather than aborting the report (the
/// validator is the strict tool; the report is for reading).
pub fn render_report(trace: &str) -> String {
    let mut runs: Vec<Run> = Vec::new();
    let mut queries: BTreeMap<String, QueryAgg> = BTreeMap::new();
    let mut bad_lines = 0usize;

    for line in trace.lines() {
        let Ok(v) = parse_json(line) else {
            bad_lines += 1;
            continue;
        };
        match text(&v, "ev") {
            "run_start" => {
                runs.push(Run {
                    name: text(&v, "name").to_string(),
                    clock: text(&v, "clock").to_string(),
                    ..Run::default()
                });
            }
            _ if runs.is_empty() => {
                // Events before any run_start (library callers): collect
                // them under an anonymous run.
                runs.push(Run {
                    name: "<trace>".to_string(),
                    ..Run::default()
                });
                absorb(runs.last_mut().expect("just pushed"), &mut queries, &v);
            }
            _ => absorb(runs.last_mut().expect("non-empty"), &mut queries, &v),
        }
    }

    let mut out = String::new();
    for r in &runs {
        render_run(&mut out, r);
    }
    render_queries(&mut out, &queries);
    if bad_lines > 0 {
        let _ = writeln!(out, "({bad_lines} unparseable line(s) skipped)");
    }
    out
}

fn absorb(run: &mut Run, queries: &mut BTreeMap<String, QueryAgg>, v: &JsonValue) {
    match text(v, "ev") {
        "span" => {
            let iter = num(v, "iter");
            let phase = text(v, "phase").to_string();
            *run.spans.entry(iter).or_default().entry(phase).or_insert(0) += num(v, "dur_us");
        }
        "iter" => run.iters.push(v.clone()),
        "fault" => run.faults.push(v.clone()),
        "verdict" => run.verdict = Some(v.clone()),
        "run_end" => run.dur_us = num(v, "dur_us"),
        "smt" => {
            let agg = queries.entry(text(v, "key").to_string()).or_default();
            agg.count += 1;
            agg.total_us += num(v, "dur_us");
            agg.size = agg.size.max(num(v, "size"));
            if agg.sample.is_empty() {
                agg.sample = text(v, "q").to_string();
            }
        }
        _ => {}
    }
}

fn render_run(out: &mut String, r: &Run) {
    let verdict = r
        .verdict
        .as_ref()
        .map(|v| {
            let reason = text(v, "reason");
            if reason.is_empty() {
                text(v, "verdict").to_string()
            } else {
                format!("{} ({reason})", text(v, "verdict"))
            }
        })
        .unwrap_or_else(|| "<no verdict>".to_string());
    let _ = writeln!(
        out,
        "== {} — {} iteration(s), {verdict}{}",
        r.name,
        r.iters.len(),
        if r.clock == "logical" {
            "  [logical clock]"
        } else {
            ""
        },
    );
    // One column per timed phase of the phase table, as wide as its label.
    let labels: Vec<String> = TIMED.iter().map(|p| format!("{}_ms", p.name())).collect();
    let mut head = format!("{:>4}", "iter");
    for label in &labels {
        let _ = write!(head, " {label:>8}");
    }
    let _ = writeln!(
        out,
        "{head} {:>6} {:>11} {:>8} {:>6} {:>4} {:>7} {:>9} {:>7}  outcome",
        "preds", "hbp(r/t)", "typings", "pops", "cex", "+i/+s", "cache h/m", "fuel"
    );
    for it in &r.iters {
        let iter = num(it, "iter");
        let spans = r.spans.get(&iter);
        let mut row = format!("{iter:>4}");
        for (p, label) in TIMED.iter().zip(&labels) {
            let us = spans.and_then(|m| m.get(p.name())).copied().unwrap_or(0);
            let _ = write!(row, " {:>w$}", ms(us), w = label.len().max(8));
        }
        let _ = writeln!(
            out,
            "{row} {:>6} {:>11} {:>8} {:>6} {:>4} {:>7} {:>9} {:>7}  {}",
            num(it, "preds"),
            format!("{}/{}", num(it, "hbp_rules"), num(it, "hbp_terms")),
            num(it, "typings"),
            num(it, "pops"),
            num(it, "cex_len"),
            format!("{}/{}", num(it, "new_interp"), num(it, "new_seeded")),
            format!("{}/{}", num(it, "cache_hits"), num(it, "cache_misses")),
            num(it, "fuel"),
            text(it, "outcome"),
        );
    }
    // Where did the run actually spend its time? Sum every span per phase
    // across all iterations, in phase-table order. Zero under a logical
    // clock, where durations are deliberately zeroed — the section is
    // omitted rather than printing a row of 0%.
    let mut phase_totals: BTreeMap<&str, i128> = BTreeMap::new();
    for phases in r.spans.values() {
        for (p, us) in phases {
            *phase_totals.entry(p.as_str()).or_insert(0) += us;
        }
    }
    let spent: i128 = phase_totals.values().sum();
    if spent > 0 {
        let parts: Vec<String> = TIMED
            .iter()
            .filter_map(|p| Some((p.name(), *phase_totals.get(p.name())?)))
            .map(|(phase, us)| format!("{phase} {} ms ({}%)", ms(us), us * 100 / spent))
            .collect();
        let _ = writeln!(
            out,
            "  phase totals: {} — {} ms across phases",
            parts.join(", "),
            ms(spent)
        );
    }
    for f in &r.faults {
        let _ = writeln!(
            out,
            "  fault: {} in phase {} ({})",
            text(f, "kind"),
            text(f, "phase"),
            text(f, "detail"),
        );
    }
    if r.dur_us > 0 {
        let _ = writeln!(out, "  run wall: {} ms", ms(r.dur_us));
    }
    out.push('\n');
}

const TOP_K: usize = 10;

fn render_queries(out: &mut String, queries: &BTreeMap<String, QueryAgg>) {
    if queries.is_empty() {
        return;
    }
    let solves: u64 = queries.values().map(|a| a.count).sum();
    let _ = writeln!(
        out,
        "top {} SMT queries by total solve time ({} distinct, {} solves):",
        TOP_K.min(queries.len()),
        queries.len(),
        solves
    );
    // Rank by total time; ties break by the stable FNV-1a query key alone
    // (never by count or arrival order), so re-rendering the same trace —
    // or two traces that merely reorder solves — is byte-identical.
    let mut ranked: Vec<(&String, &QueryAgg)> = queries.iter().collect();
    ranked.sort_by(|(ka, a), (kb, b)| b.total_us.cmp(&a.total_us).then(ka.cmp(kb)));
    let _ = writeln!(
        out,
        "{:>4} {:>6} {:>9} {:>5}  query",
        "rank", "count", "total_ms", "size"
    );
    for (rank, (key, agg)) in ranked.iter().take(TOP_K).enumerate() {
        let mut q: String = agg.sample.chars().take(72).collect();
        if q.len() < agg.sample.len() {
            q.push('…');
        }
        if q.is_empty() {
            q = format!("<{key}>");
        }
        let _ = writeln!(
            out,
            "{:>4} {:>6} {:>9} {:>5}  {}",
            rank + 1,
            agg.count,
            ms(agg.total_us),
            agg.size,
            q
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_timeline_and_hot_queries() {
        let trace = concat!(
            "{\"ts\":0,\"ev\":\"run_start\",\"name\":\"p1\",\"clock\":\"wall\"}\n",
            "{\"ts\":1,\"ev\":\"span\",\"phase\":\"abs\",\"iter\":0,\"dur_us\":1500}\n",
            "{\"ts\":2,\"ev\":\"smt\",\"key\":\"aa\",\"size\":3,\"result\":\"unsat\",\"dur_us\":900,\"q\":\"(x > 0)\"}\n",
            "{\"ts\":3,\"ev\":\"smt\",\"key\":\"aa\",\"size\":3,\"result\":\"unsat\",\"dur_us\":100,\"q\":\"(x > 0)\"}\n",
            "{\"ts\":4,\"ev\":\"smt\",\"key\":\"bb\",\"size\":9,\"result\":\"sat\",\"dur_us\":50,\"q\":\"(y = 2)\"}\n",
            "{\"ts\":5,\"ev\":\"iter\",\"iter\":0,\"outcome\":\"safe\",\"preds\":2,\"hbp_rules\":4,\"hbp_terms\":40,\
             \"typings\":7,\"pops\":9,\"rescans\":1,\"cex_len\":0,\"new_interp\":1,\"new_seeded\":0,\"new_ho\":0,\
             \"interp_size_max\":3,\"smt_queries\":12,\"cache_hits\":5,\"cache_misses\":7,\"fuel\":33,\
             \"dur_us\":2000,\"preds_by_fun\":{}}\n",
            "{\"ts\":6,\"ev\":\"verdict\",\"verdict\":\"safe\",\"cycles\":1,\"retries\":0}\n",
            "{\"ts\":7,\"ev\":\"run_end\",\"dur_us\":2500}\n",
        );
        let report = render_report(trace);
        assert!(report.contains("== p1 — 1 iteration(s), safe"), "{report}");
        assert!(report.contains("4/40"), "{report}");
        assert!(
            report.contains("phase totals: abs 1.5 ms (100%) — 1.5 ms across phases"),
            "{report}"
        );
        assert!(report.contains("top 2 SMT queries"), "{report}");
        // "aa" (1000 µs total) outranks "bb" (50 µs).
        let aa = report.find("(x > 0)").expect("aa present");
        let bb = report.find("(y = 2)").expect("bb present");
        assert!(aa < bb, "{report}");
    }

    #[test]
    fn hot_query_ranking_is_deterministic_under_ties() {
        // Three queries with identical total time and differing counts: the
        // ranking must order by key alone, and repeated renders must be
        // byte-identical.
        let trace = concat!(
            "{\"ts\":0,\"ev\":\"run_start\",\"name\":\"p1\",\"clock\":\"wall\"}\n",
            "{\"ts\":1,\"ev\":\"smt\",\"key\":\"cc\",\"size\":1,\"result\":\"sat\",\"dur_us\":100,\"q\":\"(c)\"}\n",
            "{\"ts\":2,\"ev\":\"smt\",\"key\":\"aa\",\"size\":1,\"result\":\"sat\",\"dur_us\":50,\"q\":\"(a)\"}\n",
            "{\"ts\":3,\"ev\":\"smt\",\"key\":\"aa\",\"size\":1,\"result\":\"sat\",\"dur_us\":50,\"q\":\"(a)\"}\n",
            "{\"ts\":4,\"ev\":\"smt\",\"key\":\"bb\",\"size\":1,\"result\":\"sat\",\"dur_us\":100,\"q\":\"(b)\"}\n",
            "{\"ts\":5,\"ev\":\"run_end\",\"dur_us\":200}\n",
        );
        let report = render_report(trace);
        assert_eq!(
            report,
            render_report(trace),
            "renders must be byte-identical"
        );
        let pos = |q: &str| report.find(q).unwrap_or_else(|| panic!("{q} in {report}"));
        // All totals tie at 100 µs: key order aa < bb < cc decides.
        assert!(pos("(a)") < pos("(b)"), "{report}");
        assert!(pos("(b)") < pos("(c)"), "{report}");
    }

    #[test]
    fn tolerates_garbage_and_missing_runs() {
        let report = render_report(
            "garbage\n{\"ts\":0,\"ev\":\"iter\",\"iter\":0,\"outcome\":\"refined\"}\n",
        );
        assert!(report.contains("<trace>"), "{report}");
        assert!(report.contains("1 unparseable"), "{report}");
    }
}
