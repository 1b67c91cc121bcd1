//! Differential testing of the model checker's engines.
//!
//! Three parts of `homc-hbp` answer "can the boolean program reach
//! `fail`?" by different means:
//!
//! * saturation ([`Checker::saturate`]): the worklist least fixpoint;
//! * the invariant checker ([`Checker::seed_invariant`] then
//!   [`Checker::check_closed`]), which `homc check` runs on a stored
//!   certificate: one derivation sweep over a claimed table, no fixpoint
//!   search;
//! * counterexample extraction ([`find_error_path`]): a search over
//!   concrete configurations, pruned by the table.
//!
//! They must agree:
//!
//! * the saturated table is closed under one sweep of a fresh checker, and
//!   gives the same answer there — a saturation that stops early fails this;
//! * "may fail" holds exactly when a labelled error path exists.
//!
//! We check both on the abstractions of the whole Table 1 suite, at two
//! refinement stages.

use homc_abs::{abstract_program, AbsEnv, AbsOptions};
use homc_cegar::{build_trace, refine_env, RefineOptions, TraceEnd};
use homc_hbp::{find_error_path, source_labels, BProgram, CheckLimits, Checker, PathLabel};
use homc_lang::frontend;
use homc_smt::SmtSolver;

/// Cross-validates the three engines on `bp` and returns the error path, if
/// any. `None` also when saturation runs out of budget: nothing to compare.
fn cross_validate(name: &str, bp: &BProgram, compared: &mut usize) -> Option<Vec<PathLabel>> {
    let mut checker = Checker::new(bp, CheckLimits::default()).ok()?;
    checker.saturate().ok()?;
    let may_fail = checker.may_fail();
    *compared += 1;

    let mut fresh = Checker::new(bp, CheckLimits::default())
        .unwrap_or_else(|e| panic!("{name}: invariant checker setup: {e}"));
    fresh.seed_invariant(checker.gamma().clone(), checker.base_flow().clone());
    let closed = fresh
        .check_closed()
        .unwrap_or_else(|e| panic!("{name}: invariant sweep: {e}"));
    assert!(
        closed,
        "{name}: one derivation sweep adds to the saturated table — \
         saturation stopped short of its fixpoint"
    );
    assert_eq!(
        fresh.may_fail(),
        may_fail,
        "{name}: the invariant checker and saturation disagree"
    );

    let path = find_error_path(&mut checker)
        .unwrap_or_else(|e| panic!("{name}: counterexample extraction: {e}"));
    assert_eq!(
        path.is_some(),
        may_fail,
        "{name}: an error path must exist exactly when main may fail"
    );
    path
}

#[test]
fn engines_agree_on_suite_abstractions() {
    let mut compared = 0usize;
    for p in homc::suite::SUITE {
        let compiled = match frontend(p.source) {
            Ok(c) => c,
            Err(e) => panic!("{}: {e}", p.name),
        };
        let mut env = AbsEnv::initial(&compiled.cps);
        let solver = SmtSolver::new();
        // Stage 0: the initial (coarsest) abstraction.
        let (bp, _) = abstract_program(&compiled.cps, &env, &AbsOptions::default())
            .unwrap_or_else(|e| panic!("{}: {e}", p.name));
        let Some(path) = cross_validate(p.name, &bp, &mut compared) else {
            continue;
        };

        // Stage 1: after one refinement round (when one exists).
        let labels = source_labels(&path);
        let Ok(trace) = build_trace(&compiled.cps, &labels, 200_000) else {
            continue;
        };
        if trace.end != TraceEnd::ReachedFail {
            continue;
        }
        if refine_env(
            &compiled.cps,
            &trace,
            &mut env,
            &solver,
            &RefineOptions::default(),
        )
        .is_err()
        {
            continue;
        }
        if let Ok((bp1, _)) = abstract_program(&compiled.cps, &env, &AbsOptions::default()) {
            cross_validate(p.name, &bp1, &mut compared);
        }
    }
    // Every initial abstraction fits the default limits, and so do refined
    // ones: the walk is not vacuous.
    assert!(
        compared > homc::suite::SUITE.len(),
        "only {compared} abstractions compared"
    );
}
