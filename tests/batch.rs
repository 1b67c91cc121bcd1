//! Batch degradation (ISSUE satellite S4): with per-job panics and budget
//! exhaustion injected, the batch still completes with one report entry per
//! job, the tallies add up, and the **unaffected** jobs are bit-for-bit
//! undisturbed — their logical traces are byte-identical to solo runs.

use homc::{
    run_batch, suite, BatchJob, BatchOptions, Counter, DiskCache, JobFault, JobStatus, Metrics,
};

fn job(name: &str) -> BatchJob {
    let p = suite::find(name).expect("suite program");
    BatchJob {
        name: p.name.to_string(),
        source: p.source.to_string(),
        expected: Some(p.expected),
    }
}

/// The job's logical trace from a one-job, fault-free batch.
fn solo_trace(name: &str) -> String {
    let opts = BatchOptions {
        workers: 1,
        capture_traces: true,
        logical: true,
        ..BatchOptions::default()
    };
    let report = run_batch(vec![job(name)], &opts).expect("solo batch runs");
    assert_eq!(report.failed, 0);
    report.jobs[0].trace.clone().expect("trace captured")
}

#[test]
fn faulted_batch_completes_with_full_report() {
    let jobs = vec![job("sum"), job("max"), job("mult"), job("mc91")];
    let n = jobs.len();
    let mut opts = BatchOptions {
        workers: 2,
        capture_traces: true,
        logical: true,
        job_faults: vec![
            "0:panic".parse::<JobFault>().unwrap(),
            "2:exhaust".parse::<JobFault>().unwrap(),
        ],
        ..BatchOptions::default()
    };
    opts.verify.metrics = Metrics::new(true);
    let report = run_batch(jobs, &opts).expect("batch always terminates");

    // Complete per-job report, tallies sum exactly.
    assert_eq!(report.jobs.len(), n);
    assert_eq!(report.passed + report.failed + report.unknown, n);
    assert_eq!(report.failed, 0, "injected faults degrade, never fail");
    assert_eq!(report.unknown, 2);
    assert_eq!(report.passed, 2);
    assert_eq!(
        opts.verify.metrics.snapshot().counter(Counter::JobsUnknown),
        report.unknown as u64
    );

    // The panicked job is trapped into a structured Unknown.
    let panicked = &report.jobs[0];
    assert_eq!(panicked.status, JobStatus::Unknown);
    assert!(
        panicked.verdict.contains("internal fault"),
        "got {:?}",
        panicked.verdict
    );

    // The exhausted job ran once, one CEGAR iteration long: nothing
    // retries, and the degraded verdict names the limit.
    let exhausted = &report.jobs[2];
    assert_eq!(exhausted.status, JobStatus::Unknown);
    assert!(
        exhausted.verdict.contains("fuel"),
        "got {:?}",
        exhausted.verdict
    );
    let trace = exhausted.trace.as_deref().expect("trace captured");
    assert_eq!(trace.matches("\"ev\":\"run_start\"").count(), 1, "{trace}");
    assert_eq!(trace.matches("\"ev\":\"iter\"").count(), 1, "{trace}");

    // Per-job isolation: the unaffected jobs' logical traces are
    // byte-identical to solo runs of the same programs.
    for idx in [1usize, 3] {
        let entry = &report.jobs[idx];
        assert_eq!(entry.status, JobStatus::Passed);
        let batch_trace = entry.trace.as_deref().expect("trace captured");
        let solo = solo_trace(&entry.name);
        assert_eq!(
            batch_trace, solo,
            "{}: trace perturbed by a neighbouring fault",
            entry.name
        );
    }
}

#[test]
fn every_job_panicking_still_reports() {
    let jobs = vec![job("sum"), job("max")];
    let opts = BatchOptions {
        workers: 2,
        job_faults: vec![
            "0:panic".parse::<JobFault>().unwrap(),
            "1:panic".parse::<JobFault>().unwrap(),
        ],
        ..BatchOptions::default()
    };
    let report = run_batch(jobs, &opts).expect("batch survives total panic");
    assert_eq!(report.jobs.len(), 2);
    assert_eq!(report.unknown, 2);
    assert!(report
        .jobs
        .iter()
        .all(|j| j.status == JobStatus::Unknown && j.verdict.contains("internal fault")));
}

#[test]
fn deadline_exhaustion_degrades_to_unknown() {
    // A batch-wide deadline far below what the suite needs: jobs settle on
    // Unknown (deadline exhaustion is not retryable), none abort, tallies
    // still sum.
    let jobs = vec![job("repeat"), job("mult")];
    let n = jobs.len();
    let mut opts = BatchOptions {
        workers: 2,
        ..BatchOptions::default()
    };
    opts.verify.timeout = Some(std::time::Duration::from_nanos(1));
    let report = run_batch(jobs, &opts).expect("batch terminates under deadline");
    assert_eq!(report.jobs.len(), n);
    assert_eq!(report.passed + report.failed + report.unknown, n);
    assert_eq!(report.failed, 0);
    assert_eq!(report.unknown, n);
    for j in &report.jobs {
        assert!(j.verdict.starts_with("unknown"), "got {:?}", j.verdict);
    }
}

/// Query-cache keys of `records`, checked distinct: loading a directory
/// must never see the same key in two segments.
fn distinct_keys(records: &[homc_serve::Record]) -> usize {
    use homc_serve::Record;
    let mut checks = std::collections::HashSet::new();
    let mut cubes = std::collections::HashSet::new();
    for r in records {
        match r {
            Record::Check { key, .. } => checks.insert(key.clone()),
            Record::Cube { key, .. } => cubes.insert(key.clone()),
        };
    }
    checks.len() + cubes.len()
}

#[test]
fn batch_publishes_only_keys_the_cache_did_not_load() {
    let dir = std::env::temp_dir().join(format!("homc-batch-publish-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = BatchOptions {
        workers: 2,
        cache_dir: Some(dir.clone()),
        ..BatchOptions::default()
    };
    let cold = run_batch(vec![job("sum"), job("max")], &opts).expect("cold batch");
    assert!(
        cold.publish.is_some(),
        "a cold batch publishes what it solved"
    );

    let warm = run_batch(vec![job("sum"), job("max")], &opts).expect("warm batch");
    assert_eq!(warm.publish, None, "a warm rerun solves nothing new");

    let (loaded, _) = DiskCache::new(&dir).load().expect("load");
    let grown = run_batch(vec![job("sum"), job("max"), job("mc91")], &opts).expect("batch");
    let publish = grown.publish.expect("the added program solves new queries");
    let (after, _) = DiskCache::new(&dir).load().expect("load");
    assert_eq!(after.len(), loaded.len() + publish.records);
    assert_eq!(
        distinct_keys(&after),
        after.len(),
        "the new segment republished a key the batch had loaded"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
