//! Interpolation microbenchmark over the suite's refinement-heavy programs
//! (`a-prod`, `r-file`, `r-lock`): the first counterexample of each program
//! is refined three ways — the production fast path (slicing + shared
//! certificates), the sequence engine alone, and the legacy per-cut
//! engine — in `name: min/mean/max` format.
//!
//! Gated behind `slow-tests` (it re-runs full refinements many times):
//!
//! ```sh
//! cargo bench -p homc-bench --features slow-tests --bench interp
//! ```

use homc_abs::{abstract_program, AbsEnv, AbsOptions};
use homc_bench::time_it;
use homc_cegar::{
    build_trace, discover_predicates, fastpath_sequence, RefineOptions, Trace, TraceEnd,
};
use homc_hbp::check::CheckLimits;
use homc_hbp::{find_error_path, source_labels, Checker};
use homc_lang::frontend;
use homc_smt::{interpolate_budgeted_cached, Budget, Formula, InterpOptions};

const PROGRAMS: [&str; 3] = ["a-prod", "r-file", "r-lock"];

/// The program's first infeasible counterexample (stage-0 abstraction).
fn first_counterexample(source: &str) -> Option<(homc_lang::Compiled, Trace)> {
    let compiled = frontend(source).ok()?;
    let env = AbsEnv::initial(&compiled.cps);
    let (bp, _) = abstract_program(&compiled.cps, &env, &AbsOptions::default()).ok()?;
    let mut checker = Checker::new(&bp, CheckLimits::default()).ok()?;
    checker.saturate().ok()?;
    if !checker.may_fail() {
        return None;
    }
    let path = find_error_path(&mut checker).ok()??;
    let labels = source_labels(&path);
    let trace = build_trace(&compiled.cps, &labels, 200_000).ok()?;
    if trace.end != TraceEnd::ReachedFail {
        return None;
    }
    Some((compiled, trace))
}

fn main() {
    for name in PROGRAMS {
        let p = homc::suite::SUITE
            .iter()
            .find(|p| p.name == name)
            .expect("suite program");
        let Some((compiled, trace)) = first_counterexample(p.source) else {
            eprintln!("{name}: no stage-0 counterexample, skipping");
            continue;
        };
        time_it(&format!("{name}: refine (fast path)"), 20, || {
            discover_predicates(&compiled.cps, &trace, &RefineOptions::default()).expect("refines")
        });
        time_it(&format!("{name}: sequence interpolants"), 20, || {
            fastpath_sequence(&trace)
        });
        if let Some((parts, _)) = fastpath_sequence(&trace) {
            time_it(&format!("{name}: per-cut interpolation"), 20, || {
                for k in 0..parts.len() - 1 {
                    let a = Formula::and(parts[..=k].iter().cloned());
                    let b = Formula::and(parts[k + 1..].iter().cloned());
                    let _ = interpolate_budgeted_cached(
                        &a,
                        &b,
                        InterpOptions::default(),
                        Budget::unlimited(),
                        None,
                    );
                }
            });
        }
    }
}
