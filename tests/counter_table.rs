//! The counter table is the one declaration of every counter: these tests
//! walk it and check that each counter reaches every surface its row names
//! (and no surface it does not), and that a run counter the registry also
//! reports has one value in both places.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

use homc::{
    parse_json, render_batch_json, run_batch, stats_counters, suite, verify, Agg, ArtifactConfig,
    BatchJob, BatchOptions, Counts, JsonValue, Metrics, Surface, Tracer, VerifierOptions, COUNTERS,
};
use homc_bench::{baseline_json, Row};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("homc-counter-table-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// The keys of a JSON object.
fn keys(v: &JsonValue) -> Vec<&str> {
    v.as_obj()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

#[test]
fn every_counter_reaches_its_surfaces() {
    let program = suite::find("l-zipmap").expect("present");

    // `--stats` and `--metrics-out`, through the CLI.
    let dir = tmpdir("surfaces");
    let prom_path = dir.join("metrics.prom");
    let out = Command::new(env!("CARGO_BIN_EXE_homc"))
        .args(["--suite", program.name, "--stats", "--metrics-out"])
        .arg(&prom_path)
        .output()
        .expect("homc runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let block: Vec<&str> = stdout
        .lines()
        .skip_while(|l| !l.starts_with(program.name))
        .take_while(|l| !l.starts_with("passed "))
        .collect();
    let mut printed: BTreeMap<&str, usize> = BTreeMap::new();
    for token in block.iter().skip(1).flat_map(|l| l.split_whitespace()) {
        if let Some((name, _)) = token.split_once('=') {
            *printed.entry(name).or_insert(0) += 1;
        }
    }
    let prom = std::fs::read_to_string(&prom_path).expect("metrics written");

    // The ledger snapshot, the iter records and the table1 document, in
    // process from one traced run.
    let tracer = Tracer::memory(true);
    let opts = VerifierOptions {
        tracer: tracer.clone(),
        ..VerifierOptions::default()
    };
    let outcome = verify(program.source, &opts).expect("verifies");
    let ledger = stats_counters(&outcome.stats);
    let trace = tracer.snapshot().expect("memory sink");
    let iters: Vec<JsonValue> = trace
        .lines()
        .map(|l| parse_json(l).expect("json line"))
        .filter(|v| v.get("ev").and_then(JsonValue::as_str) == Some("iter"))
        .collect();
    assert!(iters.len() > 1, "l-zipmap takes several CEGAR iterations");
    let counts = outcome.stats.counts();
    let row = Row {
        name: program.name,
        outcome,
        verdict_ok: true,
        paper_cycles: 0,
        iterations: iters.len(),
        peak_hbp: 0,
        warm_total_s: 0.0,
        warm_disk_hits: 0,
        incr_total_s: 0.0,
    };
    let doc = parse_json(&baseline_json(&[row])).expect("baseline json");
    let bench_row = &doc
        .get("programs")
        .and_then(JsonValue::as_arr)
        .expect("rows")[0];
    let (row_keys, total_keys) = (keys(bench_row), keys(doc.get("totals").expect("totals")));

    // The `batch_job` progress event and the `--json` job object, from one
    // batch of the same program.
    let progress = Tracer::memory(true);
    let job = BatchJob {
        name: program.name.to_string(),
        source: program.source.to_string(),
        expected: Some(program.expected),
    };
    let batch_opts = BatchOptions {
        workers: 1,
        progress: progress.clone(),
        ..BatchOptions::default()
    };
    let batch = run_batch(vec![job], &batch_opts).expect("batch runs");
    let batch_counts = batch.jobs[0].stats.as_ref().expect("an outcome").counts();
    let settled = progress
        .snapshot()
        .expect("memory sink")
        .lines()
        .map(|l| parse_json(l).expect("json line"))
        .find(|v| v.get("ev").and_then(JsonValue::as_str) == Some("batch_job"))
        .expect("a batch_job event");
    let json = parse_json(&render_batch_json(&batch, 1, true)).expect("batch json");
    let json_job = &json.get("jobs").and_then(JsonValue::as_arr).expect("jobs")[0];

    for c in COUNTERS {
        let name = c.name();
        assert!(
            prom.contains(&format!("# TYPE homc_{name}_total counter")),
            "{name}: missing --metrics-out family"
        );
        // Registry counters may show in the registry line of `--stats`
        // (when nonzero); no name may show twice.
        let times = printed.get(name).copied().unwrap_or(0);
        assert!(times <= 1, "{name}: printed {times} times by --stats");
        if c.shows(Surface::Stats) {
            assert_eq!(times, 1, "{name}: missing from --stats");
        }
        assert_eq!(
            ledger.contains_key(name),
            c.shows(Surface::Ledger),
            "{name}: ledger snapshot"
        );
        for it in &iters {
            assert_eq!(
                it.get(name).is_some(),
                c.shows(Surface::Iter),
                "{name}: iter record"
            );
        }
        assert_eq!(
            row_keys.contains(&name),
            c.shows(Surface::Table1),
            "{name}: table1 row"
        );
        assert_eq!(
            total_keys.contains(&name),
            c.shows(Surface::Table1),
            "{name}: table1 totals"
        );
        for (what, v) in [("batch_job event", &settled), ("--json job", json_job)] {
            let shown = v.get(name).and_then(JsonValue::as_num);
            let expected = c
                .shows(Surface::Batch)
                .then(|| i128::from(batch_counts.get(c)));
            assert_eq!(shown, expected, "{name}: {what}");
        }

        // The iter records add up to the run's value.
        if c.shows(Surface::Iter) {
            let per_iter: Vec<u64> = iters
                .iter()
                .map(|it| it.get(name).and_then(JsonValue::as_num).unwrap_or(0) as u64)
                .collect();
            match c.agg() {
                Agg::Sum => assert_eq!(per_iter.iter().sum::<u64>(), counts.get(c), "{name}"),
                Agg::Last => assert_eq!(per_iter.last().copied(), Some(counts.get(c)), "{name}"),
                // The run's cache delta also covers work after the loop.
                Agg::Cache => assert!(per_iter.iter().sum::<u64>() <= counts.get(c), "{name}"),
                Agg::Registry => unreachable!("registry counters have no iter key"),
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn registry_and_stats_agree_over_the_suite() {
    // Every suite program once, publishing artifacts; then a few again, so
    // the cross-run counters are not all zero.
    let dir = tmpdir("agree");
    let metrics = Metrics::new(false);
    let mut stats = Counts::default();
    let reruns = ["l-zipmap", "mc91", "sum"];
    let runs = suite::SUITE
        .iter()
        .chain(suite::SUITE.iter().filter(|p| reruns.contains(&p.name)));
    for p in runs {
        let opts = VerifierOptions {
            metrics: metrics.clone(),
            artifacts: Some(ArtifactConfig {
                dir: dir.clone(),
                key: p.name.to_string(),
            }),
            ..VerifierOptions::default()
        };
        let out = verify(p.source, &opts).expect("verifies");
        stats.merge(&out.stats.counts());
    }
    let registry = metrics.snapshot();
    for c in COUNTERS.into_iter().filter(|c| c.agg() != Agg::Registry) {
        assert_eq!(
            registry.counter(c),
            stats.get(c),
            "{}: registry and VerifyStats disagree",
            c.name()
        );
    }
    assert!(
        stats.get(homc::Counter::ReverifyDefsSkipped) > 0,
        "reruns replayed nothing"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
