//! Symbolic execution of a kernel program along a fixed choice path.
//!
//! This is the engine behind the paper's §5.1 feasibility check: given the
//! `0/1` labels of an abstract counterexample, execute the source program
//! symbolically along that path, collecting every `assume` condition. The
//! path is feasible iff the collected conjunction is satisfiable (the paper
//! runs CVC3 here; we run [`homc_smt::SmtSolver`]).

use std::collections::BTreeMap;
use std::fmt;

use homc_smt::{Atom, Formula, LinExpr, Var};

use crate::eval::Label;
use crate::kernel::{Const, Expr, FunName, Op, Program, Value};

/// A symbolic runtime value.
#[derive(Clone, Debug)]
pub enum SVal {
    /// `()`.
    Unit,
    /// A boolean, as a formula over the symbolic integers.
    Bool(Formula),
    /// An integer, as a linear expression over symbol variables.
    Int(LinExpr),
    /// A (possibly partial) application of a top-level function.
    Closure(FunName, Vec<SVal>),
}

/// Why a symbolic replay ended.
#[derive(Clone, Debug)]
pub enum ReplayEnd {
    /// `fail` was reached; the path condition decides feasibility.
    ReachedFail,
    /// The program finished without failing (the path does not lead to
    /// `fail` in the source program).
    Finished,
    /// The label script ran out before the program finished.
    LabelsExhausted,
    /// The fuel budget ran out.
    OutOfFuel,
}

/// The result of a symbolic replay.
#[derive(Clone, Debug)]
pub struct Replay {
    /// How the replay ended.
    pub end: ReplayEnd,
    /// The branch/assume conditions collected along the path, in order.
    pub conditions: Vec<Formula>,
    /// `false` when a non-linear operation was over-approximated by a fresh
    /// symbol, in which case feasibility answers may be spurious.
    pub exact: bool,
    /// The symbols created for `main`'s unknown parameters, in order.
    pub unknowns: Vec<Var>,
}

impl Replay {
    /// The path condition as a single conjunction.
    pub fn path_condition(&self) -> Formula {
        Formula::and(self.conditions.iter().cloned())
    }
}

impl fmt::Display for Replay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}: {}", self.end, self.path_condition())
    }
}

/// Replays `program` along `labels`, starting from `main` with fresh
/// symbolic unknowns.
pub fn replay(program: &Program, labels: &[Label], fuel: u64) -> Replay {
    let mut st = Sym {
        program,
        labels,
        pos: 0,
        fuel,
        counter: 0,
        conditions: Vec::new(),
        exact: true,
    };
    let main = program.main_def();
    let mut env = BTreeMap::new();
    let mut unknowns = Vec::new();
    for (x, _) in &main.params {
        let s = st.fresh_sym(x.name());
        unknowns.push(s.clone());
        env.insert(x.clone(), SVal::Int(LinExpr::var(s)));
    }
    let end = st.exec(env, &main.body);
    Replay {
        end,
        conditions: st.conditions,
        exact: st.exact,
        unknowns,
    }
}

struct Sym<'a> {
    program: &'a Program,
    labels: &'a [Label],
    pos: usize,
    fuel: u64,
    counter: usize,
    conditions: Vec<Formula>,
    exact: bool,
}

impl<'a> Sym<'a> {
    fn fresh_sym(&mut self, base: &str) -> Var {
        self.counter += 1;
        Var::new(format!("{base}#{}", self.counter))
    }

    fn value(&self, env: &BTreeMap<Var, SVal>, v: &Value) -> SVal {
        match v {
            Value::Const(Const::Unit) => SVal::Unit,
            Value::Const(Const::Bool(b)) => {
                SVal::Bool(if *b { Formula::True } else { Formula::False })
            }
            Value::Const(Const::Int(n)) => SVal::Int(LinExpr::constant(*n as i128)),
            Value::Var(x) => env
                .get(x)
                .cloned()
                .unwrap_or_else(|| panic!("unbound variable {x} in symbolic execution")),
            Value::Fun(f) => SVal::Closure(f.clone(), Vec::new()),
            Value::PApp(h, args) => {
                let head = self.value(env, h);
                let mut extra: Vec<SVal> = args.iter().map(|a| self.value(env, a)).collect();
                match head {
                    SVal::Closure(f, mut prev) => {
                        prev.append(&mut extra);
                        SVal::Closure(f, prev)
                    }
                    other => panic!("application of non-closure {other:?}"),
                }
            }
        }
    }

    fn as_int(&mut self, v: SVal) -> LinExpr {
        match v {
            SVal::Int(e) => e,
            other => panic!("expected symbolic int, got {other:?}"),
        }
    }

    fn as_bool(&mut self, v: SVal) -> Formula {
        match v {
            SVal::Bool(f) => f,
            other => panic!("expected symbolic bool, got {other:?}"),
        }
    }

    fn op(&mut self, op: Op, args: Vec<SVal>) -> SVal {
        let mut args = args.into_iter();
        match op {
            Op::Add | Op::Sub => {
                let a = self.as_int(args.next().expect("arity"));
                let b = self.as_int(args.next().expect("arity"));
                SVal::Int(if op == Op::Add { a + b } else { a - b })
            }
            Op::Neg => {
                let a = self.as_int(args.next().expect("arity"));
                SVal::Int(-a)
            }
            Op::Mul => {
                let a = self.as_int(args.next().expect("arity"));
                let b = self.as_int(args.next().expect("arity"));
                if a.is_constant() {
                    SVal::Int(b * a.constant_part())
                } else if b.is_constant() {
                    SVal::Int(a * b.constant_part())
                } else {
                    // Non-linear: over-approximate with a fresh symbol.
                    self.exact = false;
                    SVal::Int(LinExpr::var(self.fresh_sym("mul")))
                }
            }
            Op::Div => {
                self.exact = false;
                SVal::Int(LinExpr::var(self.fresh_sym("div")))
            }
            Op::Lt | Op::Le | Op::Gt | Op::Ge | Op::EqInt => {
                let a = self.as_int(args.next().expect("arity"));
                let b = self.as_int(args.next().expect("arity"));
                let atom = match op {
                    Op::Lt => Atom::lt(a, b),
                    Op::Le => Atom::le(a, b),
                    Op::Gt => Atom::gt(a, b),
                    Op::Ge => Atom::ge(a, b),
                    Op::EqInt => Atom::eq(a, b),
                    _ => unreachable!(),
                };
                SVal::Bool(Formula::atom(atom))
            }
            Op::EqBool => {
                let a = self.as_bool(args.next().expect("arity"));
                let b = self.as_bool(args.next().expect("arity"));
                SVal::Bool(Formula::iff(a, b))
            }
            Op::And => {
                let a = self.as_bool(args.next().expect("arity"));
                let b = self.as_bool(args.next().expect("arity"));
                SVal::Bool(Formula::and2(a, b))
            }
            Op::Or => {
                let a = self.as_bool(args.next().expect("arity"));
                let b = self.as_bool(args.next().expect("arity"));
                SVal::Bool(Formula::or2(a, b))
            }
            Op::Not => {
                let a = self.as_bool(args.next().expect("arity"));
                SVal::Bool(Formula::not(a))
            }
        }
    }

    fn exec(&mut self, mut env: BTreeMap<Var, SVal>, mut expr: &'a Expr) -> ReplayEnd {
        loop {
            if self.fuel == 0 {
                return ReplayEnd::OutOfFuel;
            }
            self.fuel -= 1;
            match expr {
                Expr::Value(_) | Expr::Op(_, _) | Expr::Rand => return ReplayEnd::Finished,
                Expr::Fail => return ReplayEnd::ReachedFail,
                Expr::Assume(v, body) => {
                    let c = self.value(&env, v);
                    let f = self.as_bool(c);
                    self.conditions.push(f);
                    expr = body;
                }
                Expr::Choice(l, r) => {
                    let Some(lab) = self.labels.get(self.pos) else {
                        return ReplayEnd::LabelsExhausted;
                    };
                    self.pos += 1;
                    expr = match lab {
                        Label::Zero => l,
                        Label::One => r,
                    };
                }
                Expr::Let(x, rhs, body) => {
                    match rhs.as_ref() {
                        Expr::Value(v) => {
                            let sv = self.value(&env, v);
                            env.insert(x.clone(), sv);
                        }
                        Expr::Op(op, args) => {
                            let vals: Vec<SVal> =
                                args.iter().map(|a| self.value(&env, a)).collect();
                            let sv = self.op(*op, vals);
                            env.insert(x.clone(), sv);
                        }
                        Expr::Rand => {
                            let s = self.fresh_sym("rnd");
                            env.insert(x.clone(), SVal::Int(LinExpr::var(s)));
                        }
                        rhs => {
                            // A serious rhs: execute it inline. Because we
                            // only ever replay CPS-normal programs (where
                            // this case cannot arise) or fail along the rhs,
                            // finishing the rhs without a value ends replay.
                            return self.exec(env, rhs);
                        }
                    }
                    expr = body;
                }
                Expr::Call(f, args) => {
                    let head = self.value(&env, f);
                    let mut vals: Vec<SVal> = args.iter().map(|a| self.value(&env, a)).collect();
                    let SVal::Closure(fname, mut prev) = head else {
                        panic!("calling non-closure in symbolic execution");
                    };
                    prev.append(&mut vals);
                    let def = self
                        .program
                        .def(&fname)
                        .unwrap_or_else(|| panic!("undefined function {fname}"));
                    let mut new_env = BTreeMap::new();
                    for ((x, _), v) in def.params.iter().zip(prev) {
                        new_env.insert(x.clone(), v);
                    }
                    env = new_env;
                    expr = &def.body;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cps::cps_transform;
    use crate::elaborate::elaborate;
    use crate::parser::parse;
    use crate::types::infer;
    use homc_smt::SmtSolver;

    fn cps_of(src: &str) -> Program {
        let tp = infer(&parse(src).expect("parses")).expect("types");
        let p = elaborate(&tp).expect("elaborates");
        cps_transform(&p)
    }

    #[test]
    fn feasible_failure_path() {
        // assert (n > 0) fails when n <= 0; labels: else branch = 1.
        let p = cps_of("assert (n > 0)");
        let r = replay(&p, &[Label::One], 10_000);
        assert!(matches!(r.end, ReplayEnd::ReachedFail), "{r}");
        assert!(SmtSolver::new().maybe_sat(&r.path_condition()));
    }

    #[test]
    fn infeasible_failure_path_paper_m1() {
        // M1 from §1: the error path takes the then-branch of k (n > 0) and
        // the else-branch of the assert (n + 1 <= 0): infeasible.
        let p = cps_of(
            "let f x g = g (x + 1) in
             let h y = assert (y > 0) in
             let k n = if n > 0 then f n h else () in
             k m",
        );
        let r = replay(&p, &[Label::Zero, Label::One], 10_000);
        assert!(matches!(r.end, ReplayEnd::ReachedFail), "{r}");
        assert!(
            !SmtSolver::new().maybe_sat(&r.path_condition()),
            "path must be infeasible: {}",
            r.path_condition()
        );
    }

    #[test]
    fn safe_path_finishes() {
        let p = cps_of("assert (n > 0)");
        let r = replay(&p, &[Label::Zero], 10_000);
        assert!(matches!(r.end, ReplayEnd::Finished), "{r}");
    }

    #[test]
    fn exhausted_labels_reported() {
        let p = cps_of("assert (n > 0)");
        let r = replay(&p, &[], 10_000);
        assert!(matches!(r.end, ReplayEnd::LabelsExhausted), "{r}");
    }
}
