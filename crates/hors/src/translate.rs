//! From boolean programs to recursion schemes.
//!
//! The paper model-checks higher-order boolean programs by expressing them
//! as recursion schemes (§3). This module implements the *control skeleton*
//! of that encoding: base data is erased — every `assume` becomes a branch
//! (the condition may or may not hold), tuples become opaque — yielding a
//! scheme whose tree over-approximates the boolean program's behaviours:
//!
//! * every path of the boolean program is a path of the scheme's tree, so
//!   **skeleton fail-free ⇒ boolean program safe**;
//! * conversely, if the boolean program may fail, the skeleton surely
//!   contains `fail`.
//!
//! This gives a sound one-sided cross-validation oracle for the precise
//! direct checker in `homc-hbp` (exercised by the differential tests), and
//! doubles as a stress generator for the scheme checker on realistic
//! higher-order control flow.

use std::collections::BTreeMap;

use homc_hbp::{BExpr, BProgram, BTy, BVal};

use crate::ast::{Hors, Kind, Rule, Term};

/// Translates the erased kind of a boolean-program type in *argument*
/// position: every tuple becomes the dummy-data kind `o → o`; function
/// results (always `unit` in CPS-normal programs) become the tree kind `o`.
fn kind_of(t: &BTy) -> Kind {
    match t {
        BTy::Tuple(_) => Kind::arrow(Kind::O, Kind::O),
        BTy::Fun(a, b) => Kind::arrow(kind_of(a), res_kind(b)),
    }
}

/// The erased kind in *result* position.
fn res_kind(t: &BTy) -> Kind {
    match t {
        BTy::Tuple(_) => Kind::O,
        BTy::Fun(_, _) => kind_of(t),
    }
}

/// Translates a boolean program to its control-skeleton recursion scheme.
///
/// Terminals: `br_s` (source choice), `br_a` (abstraction choice and erased
/// assumes), `fail`, `end`. Parameter names are prefixed with their
/// definition name to keep them globally unique (the flow analysis of the
/// checker keys on bare names).
pub fn skeleton(bp: &BProgram) -> Hors {
    let mut rules = Vec::new();
    // The dummy datum: kind o → o, a function never really used.
    rules.push(Rule {
        name: "Dummy".to_string(),
        params: vec![("dummy_x".to_string(), Kind::O)],
        body: Term::Terminal("end".to_string()),
    });
    for d in &bp.defs {
        let mut env: BTreeMap<String, Term> = BTreeMap::new();
        let mut params = Vec::new();
        for (x, t) in &d.params {
            let unique = format!("{}__{}", d.name, x);
            env.insert(x.name().to_string(), Term::Var(unique.clone()));
            params.push((unique, kind_of(t)));
        }
        rules.push(Rule {
            name: nt_name(&d.name.0),
            params,
            body: tr_expr(&d.body, &env),
        });
    }
    Hors {
        terminals: vec![
            ("br_s".to_string(), 2),
            ("br_a".to_string(), 2),
            ("fail".to_string(), 0),
            ("end".to_string(), 0),
        ],
        rules,
        start: nt_name(&bp.main.0),
    }
}

fn nt_name(f: &str) -> String {
    format!("N_{f}")
}

fn tr_val(v: &BVal, env: &BTreeMap<String, Term>) -> Term {
    match v {
        BVal::Tuple(_) => Term::NT("Dummy".to_string()),
        BVal::Var(x) => env
            .get(x.name())
            .cloned()
            .unwrap_or_else(|| Term::NT("Dummy".to_string())),
        BVal::Fun(g) => Term::NT(nt_name(&g.0)),
        BVal::PApp(h, args) => tr_val(h, env).app(args.iter().map(|a| tr_val(a, env))),
    }
}

fn tr_expr(e: &BExpr, env: &BTreeMap<String, Term>) -> Term {
    match e {
        BExpr::Value(_) => Term::Terminal("end".to_string()),
        BExpr::Fail => Term::Terminal("fail".to_string()),
        BExpr::Call(h, args) => tr_val(h, env).app(args.iter().map(|a| tr_val(a, env))),
        BExpr::SChoice(l, r) => {
            Term::Terminal("br_s".to_string()).app([tr_expr(l, env), tr_expr(r, env)])
        }
        BExpr::AChoice(l, r) => {
            Term::Terminal("br_a".to_string()).app([tr_expr(l, env), tr_expr(r, env)])
        }
        // The condition is erased: both "holds" (continue) and "fails"
        // (stop without failure) are possible in the skeleton.
        BExpr::Assume(_, body) => Term::Terminal("br_a".to_string())
            .app([tr_expr(body, env), Term::Terminal("end".to_string())]),
        BExpr::Let(x, rhs, body) => {
            // Base data is erased (the variable falls back to `Dummy`),
            // but a *function-typed* binding is control flow and must be
            // substituted through; the rhs's choices are behaviour and are
            // folded in front of the body either way.
            let mut env2 = env.clone();
            env2.remove(x.name());
            let mut leaves = Vec::new();
            value_leaves(rhs, &mut leaves);
            if let [v] = leaves.as_slice() {
                if !matches!(v, BVal::Tuple(_)) {
                    env2.insert(x.name().to_string(), tr_val(v, env));
                }
            }
            tr_rhs_choices(rhs, tr_expr(body, &env2))
        }
    }
}

/// Prefixes a translated body with the choice structure of an (erased) let
/// right-hand side.
fn tr_rhs_choices(rhs: &BExpr, tail: Term) -> Term {
    match rhs {
        BExpr::Value(_) => tail,
        BExpr::SChoice(l, r) => Term::Terminal("br_s".to_string())
            .app([tr_rhs_choices(l, tail.clone()), tr_rhs_choices(r, tail)]),
        BExpr::AChoice(l, r) => Term::Terminal("br_a".to_string())
            .app([tr_rhs_choices(l, tail.clone()), tr_rhs_choices(r, tail)]),
        BExpr::Assume(_, e) => Term::Terminal("br_a".to_string())
            .app([tr_rhs_choices(e, tail), Term::Terminal("end".to_string())]),
        BExpr::Let(_, r, b) => {
            let inner = tr_rhs_choices(b, tail);
            tr_rhs_choices(r, inner)
        }
        BExpr::Call(_, _) | BExpr::Fail => tail,
    }
}

/// Collects the value leaves of a call-free rhs.
fn value_leaves<'a>(e: &'a BExpr, out: &mut Vec<&'a BVal>) {
    match e {
        BExpr::Value(v) => out.push(v),
        BExpr::Let(_, _, b) => value_leaves(b, out),
        BExpr::SChoice(l, r) | BExpr::AChoice(l, r) => {
            value_leaves(l, out);
            value_leaves(r, out);
        }
        BExpr::Assume(_, e) => value_leaves(e, out),
        BExpr::Call(_, _) | BExpr::Fail => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::TrivialAutomaton;
    use crate::check::rejected;
    use homc_hbp::{BDef, BoolExpr};
    use homc_smt::Var;

    #[test]
    fn skeleton_over_approximates() {
        // main = let b = ⟨T⟩ ⊕ ⟨F⟩ in assume b.0; fail — the boolean program
        // may fail; so must the skeleton.
        let b = Var::new("b");
        let bp = BProgram {
            defs: vec![BDef {
                name: "main".into(),
                params: vec![],
                body: BExpr::let_(
                    b.clone(),
                    BExpr::achoice(
                        BExpr::Value(BVal::Tuple(vec![BoolExpr::TRUE])),
                        BExpr::Value(BVal::Tuple(vec![BoolExpr::FALSE])),
                    ),
                    BExpr::assume(BoolExpr::Proj(b, 0), BExpr::Fail),
                ),
            }],
            main: "main".into(),
        };
        bp.check().expect("wf");
        let h = skeleton(&bp);
        h.check().expect("kinds");
        let a = TrivialAutomaton::fail_free(&h, &["fail"]);
        assert!(rejected(&h, &a).expect("checks"));
    }

    #[test]
    fn fail_free_program_gives_fail_free_skeleton() {
        let bp = BProgram {
            defs: vec![BDef {
                name: "main".into(),
                params: vec![],
                body: BExpr::schoice(BExpr::Value(BVal::unit()), BExpr::Value(BVal::unit())),
            }],
            main: "main".into(),
        };
        let h = skeleton(&bp);
        h.check().expect("kinds");
        let a = TrivialAutomaton::fail_free(&h, &["fail"]);
        assert!(!rejected(&h, &a).expect("checks"));
    }
}
