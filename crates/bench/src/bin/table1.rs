//! Regenerates the paper's Table 1.
//!
//! ```sh
//! cargo run --release -p homc-bench --bin table1 [-- --json <path>]
//! ```
//!
//! With `--json <path>` the run also writes a machine-readable baseline:
//! a `meta` header (schema version, suite name, program count, clock mode —
//! `homc bench-diff` refuses to compare baselines whose strict meta fields
//! disagree), then one object per program (wall time, per-phase times,
//! cycles, the hot-path effort counters, and per-phase peak heap bytes)
//! plus suite-level aggregates. CI's bench-smoke stage gates on it with
//! `homc bench-diff BENCH_table1.json <fresh> --gate`.
//!
//! With `--ledger <dir>` the run also appends one record per program (its
//! cold job, as the CLI's `--ledger` records it) to the persistent run
//! ledger as a run of kind `table1`, so benchmark runs join `homc history`
//! / `homc regress` trend analysis alongside suite and batch runs.
//!
//! The programs run through `homc::run_batch` in a scratch directory under
//! the system temp dir, removed when the run ends.

use std::path::Path;
use std::process::ExitCode;

use homc::suite::SUITE;
use homc::{append_ledger, columns, Phase, LOOP};
use homc_bench::{baseline_json, format_row, paper_total, run_table, Row};

// Count allocations for the whole benchmark run so each row can report its
// per-phase heap watermarks. Installed in the binary only — library users
// and the test harness keep the plain system allocator.
#[global_allocator]
static COUNTING_ALLOC: homc_metrics::mem::CountingAlloc = homc_metrics::mem::CountingAlloc::new();

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json_path: Option<String> = None;
    let mut ledger_dir: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            flag @ ("--json" | "--ledger") => {
                let Some(p) = args.get(i + 1) else {
                    eprintln!("table1: {flag} needs a path");
                    return ExitCode::FAILURE;
                };
                if flag == "--json" {
                    json_path = Some(p.clone());
                } else {
                    ledger_dir = Some(p.clone());
                }
                i += 2;
            }
            other => {
                eprintln!("table1: unknown argument {other:?}");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut head = format!("{:12} {:>4} {:>2} {:>8} ", "program", "S", "O", "C(paper)");
    for col in columns(LOOP) {
        head.push_str(&format!(" {col:>6}"));
    }
    println!("{head} {:>6}   verdict", "total");
    println!("{}", "-".repeat(86));
    let scratch = std::env::temp_dir().join(format!("homc-table1-{}", std::process::id()));
    let rows = match run_table(SUITE, &scratch) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("table1: {e}");
            return ExitCode::FAILURE;
        }
    };
    let all_ok = rows.iter().all(|r| r.verdict_ok);
    for row in &rows {
        println!("{}", format_row(row));
    }
    println!("{}", "-".repeat(86));
    let sum = |f: fn(&Row) -> f64| rows.iter().map(f).sum::<f64>();
    let wall = sum(|r| r.stats().total.as_secs_f64());
    let total = sum(|r| paper_total(&r.stats()).as_secs_f64());
    let warm = sum(|r| r.warm_total_s);
    let disk_hits: u64 = rows.iter().map(|r| r.warm_disk_hits).sum();
    let incr = sum(|r| r.incr_total_s);
    let check = sum(|r| r.stats().time[Phase::Check].as_secs_f64());
    println!("warm rerun {warm:.2}s via disk cache ({disk_hits} disk hits)");
    println!("incr rerun {incr:.2}s via artifact store (single-literal edit resubmit)");
    println!("evidence check {check:.2}s via independent certificate checker");
    println!(
        "evidence export {:.2}s, outside the total column like the check",
        wall - total - check
    );
    println!(
        "total {total:.2}s; verdicts: {}",
        if all_ok {
            "all match the paper"
        } else {
            "MISMATCHES PRESENT"
        }
    );
    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, baseline_json(&rows)) {
            eprintln!("table1: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("baseline written to {path}");
    }
    if let Some(dir) = ledger_dir {
        // The benchmark itself succeeded; a full disk must not
        // retroactively fail it. Report and move on.
        match append_ledger(Path::new(&dir), "table1", rows.iter().map(|r| &r.cold)) {
            Ok(r) => println!("ledger: {r}"),
            Err(e) => eprintln!("table1: ledger append failed: {e}"),
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
