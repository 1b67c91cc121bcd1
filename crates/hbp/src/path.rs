//! Counterexample extraction: a concrete labelled path to `fail`.
//!
//! After saturation proves `main ⇒* fail`, the CEGAR loop (§5) needs the
//! *error path* — the sequence of choice labels (0/1 for source `⊓`, ε for
//! abstraction `⊕`) leading to the failure. We extract one by an iterative-
//! deepening depth-first search over concrete configurations, pruned by the
//! typing table: a branch is explored only when the saturation oracle says
//! `fail` is derivable from it, so the search never wanders into safe
//! subtrees.

use std::collections::BTreeMap;

use homc_smt::Var;

use crate::ast::{BExpr, BProgram, BVal, Label, PathLabel};
use crate::check::{AVal, CheckError, Checker, CloHead};

/// Extracts a labelled error path. Call after [`Checker::saturate`]; returns
/// `Ok(None)` when the program cannot fail, and
/// [`CheckError::NoErrorPath`] when the table says it can but no path of
/// depth up to 65,536 reaches `fail`.
pub fn find_error_path(checker: &mut Checker<'_>) -> Result<Option<Vec<PathLabel>>, CheckError> {
    if !checker.may_fail() {
        return Ok(None);
    }
    let program: &BProgram = checker.program();
    let main = program
        .def(&program.main)
        .expect("main exists (checked)")
        .clone();
    let mut depth = 32usize;
    loop {
        let mut path = Vec::new();
        let mut search = PathSearch { checker };
        if search.dfs(&main.body, &BTreeMap::new(), depth, &mut path)? {
            return Ok(Some(path));
        }
        depth *= 2;
        if depth > 1 << 16 {
            return Err(CheckError::NoErrorPath);
        }
    }
}

struct PathSearch<'c, 'p> {
    checker: &'c mut Checker<'p>,
}

impl PathSearch<'_, '_> {
    /// Is `fail` derivable from `e` under `env`, according to the table?
    fn derivable(&mut self, e: &BExpr, env: &BTreeMap<Var, AVal>) -> Result<bool, CheckError> {
        Ok(!self.checker.oracle_fail(e, env)?.is_empty())
    }

    fn dfs(
        &mut self,
        e: &BExpr,
        env: &BTreeMap<Var, AVal>,
        depth: usize,
        path: &mut Vec<PathLabel>,
    ) -> Result<bool, CheckError> {
        match e {
            BExpr::Fail => Ok(true),
            BExpr::Value(_) => Ok(false),
            BExpr::Assume(c, body) => {
                let proj = |x: &Var, i: usize| match env.get(x) {
                    Some(AVal::Base(b)) => (b >> i) & 1 == 1,
                    _ => panic!("projection from non-base {x}"),
                };
                if c.eval(&proj) {
                    self.dfs(body, env, depth, path)
                } else {
                    Ok(false)
                }
            }
            BExpr::SChoice(l, r) => {
                for (branch, lab) in [
                    (l, PathLabel::Src(Label::Zero)),
                    (r, PathLabel::Src(Label::One)),
                ] {
                    if self.derivable(branch, env)? {
                        path.push(lab);
                        if self.dfs(branch, env, depth, path)? {
                            return Ok(true);
                        }
                        path.pop();
                    }
                }
                Ok(false)
            }
            BExpr::AChoice(l, r) => {
                for (branch, side) in [(l, false), (r, true)] {
                    if self.derivable(branch, env)? {
                        path.push(PathLabel::Eps(side));
                        if self.dfs(branch, env, depth, path)? {
                            return Ok(true);
                        }
                        path.pop();
                    }
                }
                Ok(false)
            }
            BExpr::Let(x, rhs, body) => {
                for (v, labels) in self.rhs_paths(rhs, env)? {
                    let mut env2 = env.clone();
                    env2.insert(x.clone(), v);
                    if self.derivable(body, &env2)? {
                        let n = path.len();
                        path.extend(labels);
                        if self.dfs(body, &env2, depth, path)? {
                            return Ok(true);
                        }
                        path.truncate(n);
                    }
                }
                Ok(false)
            }
            BExpr::Call(h, args) => {
                if depth == 0 {
                    return Ok(false);
                }
                let head = self.checker.eval_concrete(env, h);
                let extra: Vec<AVal> = args
                    .iter()
                    .map(|a| self.checker.eval_concrete(env, a))
                    .collect();
                let AVal::Clo(CloHead::Def(g), mut full) = head else {
                    return Err(CheckError::IllFormed(
                        "replay reached a non-concrete closure".into(),
                    ));
                };
                full.extend(extra);
                let def = self
                    .checker
                    .program()
                    .def(&g)
                    .expect("defined function")
                    .clone();
                let mut env2 = BTreeMap::new();
                for ((x, _), v) in def.params.iter().zip(full) {
                    env2.insert(x.clone(), v);
                }
                self.dfs(&def.body, &env2, depth - 1, path)
            }
        }
    }

    /// Enumerates the (value, labels) outcomes of a call-free rhs.
    fn rhs_paths(
        &mut self,
        e: &BExpr,
        env: &BTreeMap<Var, AVal>,
    ) -> Result<Vec<(AVal, Vec<PathLabel>)>, CheckError> {
        match e {
            BExpr::Value(v) => Ok(vec![(self.checker.eval_concrete(env, v), Vec::new())]),
            BExpr::Let(x, rhs, body) => {
                let mut out = Vec::new();
                for (v, labs) in self.rhs_paths(rhs, env)? {
                    let mut env2 = env.clone();
                    env2.insert(x.clone(), v);
                    for (v2, labs2) in self.rhs_paths(body, &env2)? {
                        let mut l = labs.clone();
                        l.extend(labs2);
                        out.push((v2, l));
                    }
                }
                Ok(out)
            }
            BExpr::AChoice(l, r) => {
                let mut out = Vec::new();
                for (v, labs) in self.rhs_paths(l, env)? {
                    let mut ls = vec![PathLabel::Eps(false)];
                    ls.extend(labs);
                    out.push((v, ls));
                }
                for (v, labs) in self.rhs_paths(r, env)? {
                    let mut ls = vec![PathLabel::Eps(true)];
                    ls.extend(labs);
                    out.push((v, ls));
                }
                Ok(out)
            }
            BExpr::SChoice(l, r) => {
                let mut out = Vec::new();
                for (v, labs) in self.rhs_paths(l, env)? {
                    let mut ls = vec![PathLabel::Src(Label::Zero)];
                    ls.extend(labs);
                    out.push((v, ls));
                }
                for (v, labs) in self.rhs_paths(r, env)? {
                    let mut ls = vec![PathLabel::Src(Label::One)];
                    ls.extend(labs);
                    out.push((v, ls));
                }
                Ok(out)
            }
            BExpr::Assume(c, body) => {
                let proj = |x: &Var, i: usize| match env.get(x) {
                    Some(AVal::Base(b)) => (b >> i) & 1 == 1,
                    _ => panic!("projection from non-base {x}"),
                };
                if c.eval(&proj) {
                    self.rhs_paths(body, env)
                } else {
                    Ok(Vec::new())
                }
            }
            BExpr::Call(_, _) | BExpr::Fail => Err(CheckError::IllFormed(
                "call or fail in a let right-hand side".into(),
            )),
        }
    }
}

/// Replays a `BVal` under a concrete environment (no `Param` heads).
impl<'p> Checker<'p> {
    pub(crate) fn eval_concrete(&self, env: &BTreeMap<Var, AVal>, v: &BVal) -> AVal {
        self.eval_val(env, v)
    }

    /// Oracle for path search: may `e` reach `fail` under the final table?
    /// (With a concrete environment the requirement maps are empty, so the
    /// answer is just emptiness of the derivation list.)
    pub(crate) fn oracle_fail(
        &mut self,
        e: &BExpr,
        env: &BTreeMap<Var, AVal>,
    ) -> Result<Vec<crate::check::Reqs>, CheckError> {
        self.oracle_search(e, env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{source_labels, BDef, BTy, BoolExpr, FunName};
    use crate::check::{CheckLimits, Gamma};

    fn v(x: &str) -> Var {
        Var::new(x)
    }

    #[test]
    fn a_table_without_a_path_is_no_budget_error() {
        // main = ⟨⟩, seeded with a table that types main as failing.
        let p = BProgram {
            defs: vec![BDef {
                name: "main".into(),
                params: vec![],
                body: BExpr::Value(BVal::unit()),
            }],
            main: "main".into(),
        };
        let mut c = Checker::new(&p, CheckLimits::default()).expect("checker");
        let failing = [(FunName::from("main"), [Vec::new()].into())];
        c.seed_invariant(Gamma::from_entries(failing), BTreeMap::new());
        assert!(c.may_fail());
        assert_eq!(find_error_path(&mut c), Err(CheckError::NoErrorPath));
    }

    #[test]
    fn straightline_path() {
        // main = (() ⊓ (let b = ⟨T⟩ ⊕ ⟨F⟩ in assume b.0; fail))
        let p = BProgram {
            defs: vec![BDef {
                name: "main".into(),
                params: vec![],
                body: BExpr::schoice(
                    BExpr::Value(BVal::unit()),
                    BExpr::let_(
                        v("b"),
                        BExpr::achoice(
                            BExpr::Value(BVal::Tuple(vec![BoolExpr::TRUE])),
                            BExpr::Value(BVal::Tuple(vec![BoolExpr::FALSE])),
                        ),
                        BExpr::assume(BoolExpr::Proj(v("b"), 0), BExpr::Fail),
                    ),
                ),
            }],
            main: "main".into(),
        };
        p.check().expect("wf");
        let mut c = Checker::new(&p, CheckLimits::default()).expect("checker");
        c.saturate().expect("saturates");
        let path = find_error_path(&mut c).expect("in budget").expect("fails");
        // The source projection must be exactly [1] (took the right branch).
        assert_eq!(source_labels(&path), vec![Label::One]);
        // The ε step picked the ⟨true⟩ side.
        assert!(path.contains(&PathLabel::Eps(false)));
    }

    #[test]
    fn path_through_calls() {
        // f g = g ⟨⟩; bomb u = fail ⊓ (); main = () ⊓ f bomb.
        let p = BProgram {
            defs: vec![
                BDef {
                    name: "f".into(),
                    params: vec![(v("g"), BTy::fun(BTy::unit(), BTy::unit()))],
                    body: BExpr::Call(BVal::Var(v("g")), vec![BVal::unit()]),
                },
                BDef {
                    name: "bomb".into(),
                    params: vec![(v("u"), BTy::unit())],
                    body: BExpr::schoice(BExpr::Fail, BExpr::Value(BVal::unit())),
                },
                BDef {
                    name: "main".into(),
                    params: vec![],
                    body: BExpr::schoice(
                        BExpr::Value(BVal::unit()),
                        BExpr::Call(BVal::Fun("f".into()), vec![BVal::Fun("bomb".into())]),
                    ),
                },
            ],
            main: "main".into(),
        };
        p.check().expect("wf");
        let mut c = Checker::new(&p, CheckLimits::default()).expect("checker");
        c.saturate().expect("saturates");
        let path = find_error_path(&mut c).expect("in budget").expect("fails");
        assert_eq!(source_labels(&path), vec![Label::One, Label::Zero]);
    }

    #[test]
    fn safe_program_has_no_path() {
        let p = BProgram {
            defs: vec![BDef {
                name: "main".into(),
                params: vec![],
                body: BExpr::Value(BVal::unit()),
            }],
            main: "main".into(),
        };
        let mut c = Checker::new(&p, CheckLimits::default()).expect("checker");
        c.saturate().expect("saturates");
        assert!(find_error_path(&mut c).expect("ok").is_none());
    }
}
