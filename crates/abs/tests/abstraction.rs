//! Integration tests: predicate abstraction + higher-order model checking
//! (Steps 1–2 of the paper's Figure 1 pipeline, without CEGAR yet).

use homc_abs::{abstract_program, AbsEnv, AbsOptions, AbsTy, Predicate};
use homc_hbp::check::{model_check, CheckLimits};
use homc_lang::frontend;
use homc_lang::types::SimpleTy;
use homc_smt::{Atom, Formula, LinExpr, Var};

const M1: &str = "let f x g = g (x + 1) in
                  let h y = assert (y > 0) in
                  let k n = if n > 0 then f n h else () in
                  k m";

fn nu() -> Var {
    Var::new("nu")
}

fn pred_gt0() -> Predicate {
    Predicate::new(
        nu(),
        Formula::atom(Atom::gt(LinExpr::var(nu()), LinExpr::constant(0))),
    )
}

/// Walks an abstraction type, replacing the predicate list of every `int`
/// base position with `preds`.
fn with_int_preds(t: &AbsTy, preds: &[Predicate]) -> AbsTy {
    match t {
        AbsTy::Base(SimpleTy::Int, _) => AbsTy::int(preds.to_vec()),
        AbsTy::Base(_, _) => t.clone(),
        AbsTy::Fun(x, a, b) => AbsTy::fun(
            x.clone(),
            with_int_preds(a, preds),
            with_int_preds(b, preds),
        ),
    }
}

#[test]
fn m1_with_empty_abstraction_is_too_coarse() {
    let compiled = frontend(M1).expect("compiles");
    let env = AbsEnv::initial(&compiled.cps);
    let (bp, _) = abstract_program(&compiled.cps, &env, &AbsOptions::default()).expect("abstracts");
    bp.check().expect("well-formed boolean program");
    let (fails, _) = model_check(&bp, CheckLimits::default()).expect("in budget");
    assert!(fails, "empty abstraction must report a (spurious) failure");
}

#[test]
fn m1_with_positivity_predicate_is_safe() {
    // The paper's §1: with λν.ν > 0 on every integer position, the abstract
    // program e₁ is safe, hence so is M1.
    let compiled = frontend(M1).expect("compiles");
    let mut env = AbsEnv::initial(&compiled.cps);
    let preds = vec![pred_gt0()];
    for scheme in env.schemes.values_mut() {
        for (_, t) in scheme.iter_mut() {
            *t = with_int_preds(t, &preds);
        }
    }
    let (bp, stats) =
        abstract_program(&compiled.cps, &env, &AbsOptions::default()).expect("abstracts");
    bp.check().expect("well-formed boolean program");
    assert!(stats.sat_queries > 0, "guards must be computed");
    let (fails, _) = model_check(&bp, CheckLimits::default()).expect("in budget");
    assert!(!fails, "M1 must verify with the ν > 0 predicate");
}

#[test]
fn genuinely_unsafe_program_still_fails_with_predicates() {
    // assert (n > 0) for unknown n is genuinely unsafe: soundness
    // (Theorem 4.3) requires the abstraction to preserve the failure no
    // matter which predicates are used.
    let compiled = frontend("assert (n > 0)").expect("compiles");
    for preds in [vec![], vec![pred_gt0()]] {
        let mut env = AbsEnv::initial(&compiled.cps);
        for scheme in env.schemes.values_mut() {
            for (_, t) in scheme.iter_mut() {
                *t = with_int_preds(t, &preds);
            }
        }
        let (bp, _) =
            abstract_program(&compiled.cps, &env, &AbsOptions::default()).expect("abstracts");
        let (fails, _) = model_check(&bp, CheckLimits::default()).expect("in budget");
        assert!(
            fails,
            "a real failure must survive abstraction (preds: {preds:?})"
        );
    }
}

#[test]
fn safe_straightline_program_is_safe_without_predicates() {
    // No unknowns, no assertion can fail: even the empty abstraction
    // verifies it.
    let compiled = frontend("let x = 3 in assert (x + 1 = 4)").expect("compiles");
    let env = AbsEnv::initial(&compiled.cps);
    let (bp, _) = abstract_program(&compiled.cps, &env, &AbsOptions::default()).expect("abstracts");
    let (fails, _) = model_check(&bp, CheckLimits::default()).expect("in budget");
    assert!(!fails, "exact facts alone must verify constant assertions");
}

#[test]
fn booleans_are_tracked_exactly() {
    // if b then assert b-ish: boolean flow is exact, so no predicates needed.
    let compiled = frontend(
        "let flag = 1 < 2 in
         if flag then assert (2 > 1) else fail",
    )
    .expect("compiles");
    let env = AbsEnv::initial(&compiled.cps);
    let (bp, _) = abstract_program(&compiled.cps, &env, &AbsOptions::default()).expect("abstracts");
    let (fails, _) = model_check(&bp, CheckLimits::default()).expect("in budget");
    assert!(!fails, "exact boolean tracking must avoid the fail branch");
}

#[test]
fn m3_with_dependent_type_is_safe() {
    // The paper's M3: h z y = assert (y > z); needs the dependent
    // abstraction type y : int[λν.ν > z].
    let m3 = "let f x g = g (x + 1) in
              let h z y = assert (y > z) in
              let k n = if n >= 0 then f n (h n) else () in
              k m";
    let compiled = frontend(m3).expect("compiles");
    let mut env = AbsEnv::initial(&compiled.cps);
    // Give every integer parameter x the predicate set {λν.ν > d} for every
    // *earlier* integer dependency d in the same scheme — a blunt but
    // sufficient approximation of the paper's refined types for this test.
    for scheme in env.schemes.values_mut() {
        let mut earlier: Vec<Var> = Vec::new();
        let snapshot: Vec<Var> = scheme
            .iter()
            .filter(|(_, t)| matches!(t, AbsTy::Base(SimpleTy::Int, _)))
            .map(|(x, _)| x.clone())
            .collect();
        let _ = snapshot;
        for (x, t) in scheme.iter_mut() {
            *t = install_gt_deps(t, &mut earlier);
            if matches!(t, AbsTy::Base(SimpleTy::Int, _)) {
                earlier.push(x.clone());
            }
        }
    }
    let (bp, _) = abstract_program(&compiled.cps, &env, &AbsOptions::default()).expect("abstracts");
    bp.check().expect("well-formed");
    let (fails, _) = model_check(&bp, CheckLimits::default()).expect("in budget");
    assert!(!fails, "M3 must verify with dependent ν > z predicates");
}

/// Gives every `int` position the predicates `λν.ν > d` for each dependency
/// `d` visible at that position (function-type binders included).
fn install_gt_deps(t: &AbsTy, earlier: &mut Vec<Var>) -> AbsTy {
    match t {
        AbsTy::Base(SimpleTy::Int, _) => AbsTy::int(
            earlier
                .iter()
                .map(|d| {
                    Predicate::new(
                        nu(),
                        Formula::atom(Atom::gt(LinExpr::var(nu()), LinExpr::var(d.clone()))),
                    )
                })
                .collect(),
        ),
        AbsTy::Base(_, _) => t.clone(),
        AbsTy::Fun(x, a, b) => {
            let a2 = install_gt_deps(a, earlier);
            let visible = a.simple() == SimpleTy::Int;
            if visible {
                earlier.push(x.clone());
            }
            let b2 = install_gt_deps(b, earlier);
            if visible {
                earlier.pop();
            }
            AbsTy::fun(x.clone(), a2, b2)
        }
    }
}
