//! `homc-cegar`: counterexample-guided abstraction refinement.
//!
//! This crate implements §5 of Kobayashi, Sato & Unno, *Predicate
//! Abstraction and CEGAR for Higher-Order Model Checking* (PLDI 2011):
//!
//! * [`shp`] — construction of the straightline higher-order program
//!   `SHP(D, σ)` from a source program and an abstract error path
//!   (§5.2.1, Lemma 5.1), in A-normalized constraint/trace form;
//! * [`refine`] — feasibility checking of error paths (§5.1) and predicate
//!   discovery by Craig interpolation over the straightline program's
//!   acyclic constraint system, followed by abstraction-type refinement `⊔`
//!   (§5.2.2–5.2.3);
//! * [`slice`](mod@slice) — cone-of-influence slicing of path conditions, the first
//!   layer of the refinement fast path (shared-certificate sequence
//!   interpolants over the contradiction cone, solved per independent
//!   component).
//!
//! The CEGAR *loop* itself (Figure 1) lives in the `homc` crate, which ties
//! this crate to `homc-abs` (Step 1) and `homc-hbp` (Step 2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod enumerate;
pub mod refine;
pub mod seed;
pub mod shp;
pub mod slice;

pub use enumerate::gen_p;
pub use refine::{
    check_feasibility, discover_predicates, discover_predicates_metered, fastpath_sequence,
    refine_env, refine_env_traced, Feasibility, PredProvenance, PredSource, RefineError,
    RefineOptions, Refinement,
};
pub use seed::seed_env;
pub use shp::{
    build_trace, build_trace_budgeted, Activation, Event, SymVal, Trace, TraceEnd, TraceError,
};

#[cfg(test)]
mod tests {
    use super::*;
    use homc_lang::eval::Label;
    use homc_lang::frontend;
    use homc_smt::SmtSolver;

    const M1: &str = "let f x g = g (x + 1) in
                      let h y = assert (y > 0) in
                      let k n = if n > 0 then f n h else () in
                      k m";

    const M3: &str = "let f x g = g (x + 1) in
                      let h z y = assert (y > z) in
                      let k n = if n >= 0 then f n (h n) else () in
                      k m";

    #[test]
    fn m1_spurious_path_is_infeasible() {
        // The §1 error path: k's if takes then (0), the assert's if takes
        // else (1).
        let compiled = frontend(M1).expect("compiles");
        let trace = build_trace(&compiled.cps, &[Label::Zero, Label::One], 10_000).expect("traces");
        assert_eq!(trace.end, TraceEnd::ReachedFail, "{trace}");
        assert!(trace.is_straightline());
        match check_feasibility(&trace, &SmtSolver::new()) {
            Feasibility::Infeasible => {}
            other => panic!("expected Infeasible, got {other:?}"),
        }
    }

    #[test]
    fn m1_feasible_path_yields_witness() {
        // assert (n > 0) with the failing branch: feasible, witness n <= 0.
        let compiled = frontend("assert (n > 0)").expect("compiles");
        let trace = build_trace(&compiled.cps, &[Label::One], 10_000).expect("traces");
        assert_eq!(trace.end, TraceEnd::ReachedFail);
        match check_feasibility(&trace, &SmtSolver::new()) {
            Feasibility::Feasible(w) => assert!(w[0] <= 0, "witness {w:?}"),
            other => panic!("expected Feasible, got {other:?}"),
        }
    }

    #[test]
    fn m1_discovers_positivity_predicates() {
        let compiled = frontend(M1).expect("compiles");
        let trace = build_trace(&compiled.cps, &[Label::Zero, Label::One], 10_000).expect("traces");
        let refinement = discover_predicates(
            &compiled.cps,
            &trace,
            &RefineOptions {
                seed_from_path: false,
                ..RefineOptions::default()
            },
        )
        .expect("refines");
        assert!(
            refinement.interpolated > 0,
            "interpolation must find predicates: {refinement:?}"
        );
        let shown = format!("{refinement:?}");
        assert!(
            !refinement.fun_updates.is_empty(),
            "no function updates: {shown}"
        );
    }

    #[test]
    fn m3_discovers_dependent_predicate() {
        // Example 5.1/5.2: the spurious path — k's if takes then, the
        // assert takes else.
        let compiled = frontend(M3).expect("compiles");
        let trace = build_trace(&compiled.cps, &[Label::Zero, Label::One], 10_000).expect("traces");
        assert_eq!(trace.end, TraceEnd::ReachedFail, "{trace}");
        match check_feasibility(&trace, &SmtSolver::new()) {
            Feasibility::Infeasible => {}
            other => panic!("expected Infeasible, got {other:?}"),
        }
        let refinement = discover_predicates(
            &compiled.cps,
            &trace,
            &RefineOptions {
                seed_from_path: false,
                ..RefineOptions::default()
            },
        )
        .expect("refines");
        // The paper's solution has P4(ν,z) = ν > z on h's second parameter;
        // our h-copy must get a *dependent* predicate (mentions another
        // parameter).
        let mut found_dependent = false;
        for scheme in refinement.fun_updates.values() {
            for (_, t) in scheme {
                if let homc_abs::AbsTy::Base(_, ps) = t {
                    for p in ps {
                        if !p.free_vars().is_empty() {
                            found_dependent = true;
                        }
                    }
                }
            }
        }
        assert!(
            found_dependent,
            "expected a dependent predicate like ν > z: {refinement:?}"
        );
    }

    #[test]
    fn refinement_is_progressive_for_m1() {
        // After one refinement round, the abstraction of M1 must be safe
        // (the paper's §1 walk-through: one CEGAR iteration suffices).
        use homc_abs::{abstract_program, AbsEnv, AbsOptions};
        use homc_hbp::check::{model_check, CheckLimits};
        let compiled = frontend(M1).expect("compiles");
        let mut env = AbsEnv::initial(&compiled.cps);
        let trace = build_trace(&compiled.cps, &[Label::Zero, Label::One], 10_000).expect("traces");
        let (feas, changed) = refine_env(
            &compiled.cps,
            &trace,
            &mut env,
            &SmtSolver::new(),
            &RefineOptions::default(),
        )
        .expect("refines");
        assert!(matches!(feas, Feasibility::Infeasible));
        assert!(changed, "the environment must gain predicates");
        let (bp, _) =
            abstract_program(&compiled.cps, &env, &AbsOptions::default()).expect("abstracts");
        let (fails, _) = model_check(&bp, CheckLimits::default()).expect("in budget");
        assert!(!fails, "M1 must verify after one refinement");
    }

    #[test]
    fn trace_handles_recursion() {
        // sum 2: the else branch (1) twice, then the then branch (0), then
        // the assertion's then (0).
        let src = "let rec sum n = if n <= 0 then 0 else n + sum (n - 1) in assert (m <= sum m)";
        let compiled = frontend(src).expect("compiles");
        let labels = [Label::One, Label::One, Label::Zero, Label::Zero];
        let trace = build_trace(&compiled.cps, &labels, 10_000).expect("traces");
        let sums = trace
            .activations
            .iter()
            .filter(|a| a.def.0.starts_with("sum"))
            .count();
        assert!(sums >= 2, "expected multiple sum activations: {trace}");
    }
}
