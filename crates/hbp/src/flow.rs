//! A 0CFA-style flow analysis over higher-order boolean programs.
//!
//! The model checker's saturation loop must *guess* intersection types for
//! function-typed parameters (which closures might a parameter be bound to,
//! and which of their typings are relevant?). Following HorSat, the guesses
//! are restricted to the closures that may actually flow to each variable,
//! which this module computes: for every variable of function type, the set
//! of abstract closures `(f, j)` — function `f` already applied to `j`
//! arguments — that may reach it.

use std::collections::{BTreeMap, BTreeSet};

use homc_smt::Var;

use crate::ast::{BDef, BExpr, BProgram, BVal, FunName};

/// An abstract closure: a top-level function partially applied to `j`
/// arguments.
pub type AbsClo = (FunName, usize);

/// Flow sets keyed by `(enclosing definition, variable)`.
#[derive(Clone, Debug, Default)]
pub struct FlowResult {
    flows: BTreeMap<(FunName, Var), BTreeSet<AbsClo>>,
}

impl FlowResult {
    /// The closures that may flow to variable `x` of definition `def`.
    pub fn of(&self, def: &FunName, x: &Var) -> impl Iterator<Item = &AbsClo> {
        self.flows
            .get(&(def.clone(), x.clone()))
            .into_iter()
            .flatten()
    }

    /// Total number of flow facts (for statistics).
    pub fn fact_count(&self) -> usize {
        self.flows.values().map(BTreeSet::len).sum()
    }
}

/// Runs the analysis to fixpoint.
pub fn analyze(program: &BProgram) -> FlowResult {
    let arity: BTreeMap<FunName, usize> = program
        .defs
        .iter()
        .map(|d| (d.name.clone(), d.params.len()))
        .collect();
    let fn_param: BTreeMap<(FunName, usize), Var> = program
        .defs
        .iter()
        .flat_map(|d| {
            d.params
                .iter()
                .enumerate()
                .map(move |(i, (x, _))| ((d.name.clone(), i), x.clone()))
        })
        .collect();
    let mut st = Analysis {
        flows: BTreeMap::new(),
        arity,
        fn_param,
        changed: true,
    };
    while st.changed {
        st.changed = false;
        for d in &program.defs {
            st.walk_expr(d, &d.body);
        }
    }
    FlowResult { flows: st.flows }
}

struct Analysis {
    flows: BTreeMap<(FunName, Var), BTreeSet<AbsClo>>,
    arity: BTreeMap<FunName, usize>,
    fn_param: BTreeMap<(FunName, usize), Var>,
    changed: bool,
}

impl Analysis {
    fn add(&mut self, def: &FunName, x: &Var, clo: AbsClo) {
        let set = self.flows.entry((def.clone(), x.clone())).or_default();
        if set.insert(clo) {
            self.changed = true;
        }
    }

    /// The abstract closures a value denotes; flowing arguments of partial
    /// applications into the callee's parameters as a side effect.
    fn eval(&mut self, def: &BDef, v: &BVal) -> BTreeSet<AbsClo> {
        match v {
            BVal::Tuple(_) => BTreeSet::new(),
            BVal::Var(x) => self
                .flows
                .get(&(def.name.clone(), x.clone()))
                .cloned()
                .unwrap_or_default(),
            BVal::Fun(g) => [(g.clone(), 0)].into_iter().collect(),
            BVal::PApp(h, args) => {
                let heads = self.eval(def, h);
                let arg_clos: Vec<BTreeSet<AbsClo>> =
                    args.iter().map(|a| self.eval(def, a)).collect();
                let mut out = BTreeSet::new();
                for (g, j) in heads {
                    // Arguments flow into g's parameters j, j+1, ….
                    for (i, clos) in arg_clos.iter().enumerate() {
                        if let Some(p) = self.fn_param.get(&(g.clone(), j + i)).cloned() {
                            for c in clos {
                                self.add(&g.clone(), &p, c.clone());
                            }
                        }
                    }
                    let total = j + args.len();
                    if total <= self.arity.get(&g).copied().unwrap_or(0) {
                        out.insert((g, total));
                    }
                }
                out
            }
        }
    }

    fn walk_expr(&mut self, def: &BDef, e: &BExpr) {
        match e {
            BExpr::Value(v) => {
                let _ = self.eval(def, v);
            }
            BExpr::Call(h, args) => {
                // A call behaves like a saturated partial application.
                let v = BVal::PApp(Box::new(h.clone()), args.clone());
                let _ = self.eval(def, &v);
            }
            BExpr::Let(x, rhs, body) => {
                // Every value the rhs may produce flows into x.
                let mut leaves = Vec::new();
                rhs_leaves(rhs, &mut leaves);
                for v in leaves {
                    let clos = self.eval(def, v);
                    for c in clos {
                        self.add(&def.name, x, c);
                    }
                }
                self.walk_expr(def, rhs);
                self.walk_expr(def, body);
            }
            BExpr::SChoice(l, r) | BExpr::AChoice(l, r) => {
                self.walk_expr(def, l);
                self.walk_expr(def, r);
            }
            BExpr::Assume(_, e) => self.walk_expr(def, e),
            BExpr::Fail => {}
        }
    }
}

/// Collects the value leaves of a (call-free) let right-hand side.
fn rhs_leaves<'a>(e: &'a BExpr, out: &mut Vec<&'a BVal>) {
    match e {
        BExpr::Value(v) => out.push(v),
        BExpr::Let(_, _, body) => rhs_leaves(body, out),
        BExpr::SChoice(l, r) | BExpr::AChoice(l, r) => {
            rhs_leaves(l, out);
            rhs_leaves(r, out);
        }
        BExpr::Assume(_, e) => rhs_leaves(e, out),
        BExpr::Call(_, _) | BExpr::Fail => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{BTy, BoolExpr, PathLabel};

    fn v(x: &str) -> Var {
        Var::new(x)
    }

    /// f g = g <>;  main = f h ⊓ f i — h and i must flow to g.
    #[test]
    fn closures_flow_into_parameters() {
        let g = v("g");
        let program = BProgram {
            defs: vec![
                BDef {
                    name: "f".into(),
                    params: vec![(g.clone(), BTy::fun(BTy::unit(), BTy::unit()))],
                    body: BExpr::Call(BVal::Var(g.clone()), vec![BVal::unit()]),
                },
                BDef {
                    name: "h".into(),
                    params: vec![(v("u1"), BTy::unit())],
                    body: BExpr::Value(BVal::unit()),
                },
                BDef {
                    name: "i".into(),
                    params: vec![(v("u2"), BTy::unit())],
                    body: BExpr::Fail,
                },
                BDef {
                    name: "main".into(),
                    params: vec![],
                    body: BExpr::schoice(
                        BExpr::Call(BVal::Fun("f".into()), vec![BVal::Fun("h".into())]),
                        BExpr::Call(BVal::Fun("f".into()), vec![BVal::Fun("i".into())]),
                    ),
                },
            ],
            main: "main".into(),
        };
        program.check().expect("well-formed");
        let flows = analyze(&program);
        let into_g: Vec<AbsClo> = flows.of(&"f".into(), &g).cloned().collect();
        assert!(into_g.contains(&("h".into(), 0)));
        assert!(into_g.contains(&("i".into(), 0)));
    }

    /// Partial applications flow with their argument count.
    #[test]
    fn partial_applications_tracked() {
        let g = v("g");
        let b = v("b");
        let program = BProgram {
            defs: vec![
                BDef {
                    name: "app".into(),
                    params: vec![(g.clone(), BTy::fun(BTy::unit(), BTy::unit()))],
                    body: BExpr::Call(BVal::Var(g.clone()), vec![BVal::unit()]),
                },
                BDef {
                    name: "two".into(),
                    params: vec![(b.clone(), BTy::Tuple(1)), (v("u"), BTy::unit())],
                    body: BExpr::assume(BoolExpr::Proj(b.clone(), 0), BExpr::Fail),
                },
                BDef {
                    name: "main".into(),
                    params: vec![],
                    body: BExpr::Call(
                        BVal::Fun("app".into()),
                        vec![BVal::PApp(
                            Box::new(BVal::Fun("two".into())),
                            vec![BVal::Tuple(vec![BoolExpr::TRUE])],
                        )],
                    ),
                },
            ],
            main: "main".into(),
        };
        program.check().expect("well-formed");
        let flows = analyze(&program);
        let into_g: Vec<AbsClo> = flows.of(&"app".into(), &g).cloned().collect();
        assert_eq!(into_g, vec![("two".into(), 1)]);
        let _ = PathLabel::Eps(false);
    }
}
