//! A reference interpreter for kernel programs — the call-by-value
//! operational semantics of the paper's Figure 2, with the non-deterministic
//! choice reductions labelled `0`/`1` so executions can be matched against
//! model-checker counterexamples.

use std::collections::BTreeMap;
use std::fmt;

use homc_smt::Var;

use crate::kernel::{Const, Expr, FunName, Op, Program, Value};

/// A label recording which branch a `⊓` reduction took (paper §2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Label {
    /// The left branch.
    Zero,
    /// The right branch.
    One,
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Label::Zero => write!(f, "0"),
            Label::One => write!(f, "1"),
        }
    }
}

/// Runtime values.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CVal {
    /// `()`.
    Unit,
    /// Boolean.
    Bool(bool),
    /// Integer.
    Int(i64),
    /// A (possibly partial) application of a top-level function.
    Closure(FunName, Vec<CVal>),
}

impl fmt::Display for CVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CVal::Unit => write!(f, "()"),
            CVal::Bool(b) => write!(f, "{b}"),
            CVal::Int(n) => write!(f, "{n}"),
            CVal::Closure(g, args) => {
                write!(f, "<{g}")?;
                for a in args {
                    write!(f, " {a}")?;
                }
                write!(f, ">")
            }
        }
    }
}

/// The result of a run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Outcome {
    /// Evaluation finished with a value.
    Value(CVal),
    /// `fail` was reached.
    Fail,
    /// An `assume` was violated (execution stops without failure).
    Stop,
    /// The fuel budget ran out.
    OutOfFuel,
}

impl Outcome {
    /// `true` iff the run reached `fail`.
    pub fn is_fail(&self) -> bool {
        matches!(self, Outcome::Fail)
    }
}

/// Supplies non-deterministic decisions to the interpreter.
pub trait Driver {
    /// Chooses a branch for `e₁ ⊓ e₂`.
    fn choose(&mut self) -> Label;
    /// Supplies an unknown integer (`rand_int` or a `main` parameter).
    fn rand_int(&mut self) -> i64;
}

/// Replays a fixed script of labels and integers; after the script is
/// exhausted it answers `Zero` / `0`.
#[derive(Clone, Debug, Default)]
pub struct ScriptDriver {
    labels: Vec<Label>,
    ints: Vec<i64>,
    label_pos: usize,
    int_pos: usize,
}

impl ScriptDriver {
    /// Creates a driver from label and integer scripts.
    pub fn new(labels: Vec<Label>, ints: Vec<i64>) -> ScriptDriver {
        ScriptDriver {
            labels,
            ints,
            label_pos: 0,
            int_pos: 0,
        }
    }
}

impl Driver for ScriptDriver {
    fn choose(&mut self) -> Label {
        let l = self
            .labels
            .get(self.label_pos)
            .copied()
            .unwrap_or(Label::Zero);
        self.label_pos += 1;
        l
    }

    fn rand_int(&mut self) -> i64 {
        let n = self.ints.get(self.int_pos).copied().unwrap_or(0);
        self.int_pos += 1;
        n
    }
}

/// Runs `main` with decisions from `driver` and at most `fuel` reduction
/// steps. Returns the outcome and the trace of `⊓` labels taken.
pub fn run(program: &Program, driver: &mut dyn Driver, fuel: u64) -> (Outcome, Vec<Label>) {
    let mut st = Interp {
        program,
        driver,
        fuel,
        trace: Vec::new(),
    };
    let main = program.main_def();
    let mut env = BTreeMap::new();
    let mut args = Vec::new();
    for (x, _) in &main.params {
        let v = CVal::Int(st.driver.rand_int());
        env.insert(x.clone(), v.clone());
        args.push(v);
    }
    let out = st.eval(env, &main.body);
    (out, st.trace)
}

struct Interp<'a> {
    program: &'a Program,
    driver: &'a mut dyn Driver,
    fuel: u64,
    trace: Vec<Label>,
}

impl<'a> Interp<'a> {
    fn value(&self, env: &BTreeMap<Var, CVal>, v: &Value) -> CVal {
        match v {
            Value::Const(Const::Unit) => CVal::Unit,
            Value::Const(Const::Bool(b)) => CVal::Bool(*b),
            Value::Const(Const::Int(n)) => CVal::Int(*n),
            Value::Var(x) => env
                .get(x)
                .cloned()
                .unwrap_or_else(|| panic!("unbound variable {x} at runtime")),
            Value::Fun(f) => CVal::Closure(f.clone(), Vec::new()),
            Value::PApp(h, args) => {
                let head = self.value(env, h);
                let mut extra: Vec<CVal> = args.iter().map(|a| self.value(env, a)).collect();
                match head {
                    CVal::Closure(f, mut prev) => {
                        prev.append(&mut extra);
                        CVal::Closure(f, prev)
                    }
                    other => panic!("application of non-closure {other}"),
                }
            }
        }
    }

    fn op(&self, op: Op, args: &[CVal]) -> CVal {
        let int = |v: &CVal| match v {
            CVal::Int(n) => *n,
            other => panic!("expected int, got {other}"),
        };
        let boolean = |v: &CVal| match v {
            CVal::Bool(b) => *b,
            other => panic!("expected bool, got {other}"),
        };
        match op {
            Op::Add => CVal::Int(int(&args[0]).wrapping_add(int(&args[1]))),
            Op::Sub => CVal::Int(int(&args[0]).wrapping_sub(int(&args[1]))),
            Op::Mul => CVal::Int(int(&args[0]).wrapping_mul(int(&args[1]))),
            Op::Div => {
                let d = int(&args[1]);
                CVal::Int(if d == 0 { 0 } else { int(&args[0]) / d })
            }
            Op::Neg => CVal::Int(int(&args[0]).wrapping_neg()),
            Op::Lt => CVal::Bool(int(&args[0]) < int(&args[1])),
            Op::Le => CVal::Bool(int(&args[0]) <= int(&args[1])),
            Op::Gt => CVal::Bool(int(&args[0]) > int(&args[1])),
            Op::Ge => CVal::Bool(int(&args[0]) >= int(&args[1])),
            Op::EqInt => CVal::Bool(int(&args[0]) == int(&args[1])),
            Op::EqBool => CVal::Bool(boolean(&args[0]) == boolean(&args[1])),
            Op::And => CVal::Bool(boolean(&args[0]) && boolean(&args[1])),
            Op::Or => CVal::Bool(boolean(&args[0]) || boolean(&args[1])),
            Op::Not => CVal::Bool(!boolean(&args[0])),
        }
    }

    /// Evaluates with a tail-call loop; only `let` right-hand sides recurse.
    fn eval(&mut self, mut env: BTreeMap<Var, CVal>, mut expr: &'a Expr) -> Outcome {
        loop {
            if self.fuel == 0 {
                return Outcome::OutOfFuel;
            }
            self.fuel -= 1;
            match expr {
                Expr::Value(v) => return Outcome::Value(self.value(&env, v)),
                Expr::Op(op, args) => {
                    let vals: Vec<CVal> = args.iter().map(|a| self.value(&env, a)).collect();
                    return Outcome::Value(self.op(*op, &vals));
                }
                Expr::Rand => return Outcome::Value(CVal::Int(self.driver.rand_int())),
                Expr::Fail => return Outcome::Fail,
                Expr::Assume(v, body) => match self.value(&env, v) {
                    CVal::Bool(true) => expr = body,
                    CVal::Bool(false) => return Outcome::Stop,
                    other => panic!("assume on non-boolean {other}"),
                },
                Expr::Choice(l, r) => {
                    let lab = self.driver.choose();
                    self.trace.push(lab);
                    expr = match lab {
                        Label::Zero => l,
                        Label::One => r,
                    };
                }
                Expr::Let(x, rhs, body) => {
                    match rhs.as_ref() {
                        // Cheap right-hand sides inline.
                        Expr::Value(v) => {
                            let cv = self.value(&env, v);
                            env.insert(x.clone(), cv);
                        }
                        Expr::Op(op, args) => {
                            let vals: Vec<CVal> =
                                args.iter().map(|a| self.value(&env, a)).collect();
                            let cv = self.op(*op, &vals);
                            env.insert(x.clone(), cv);
                        }
                        Expr::Rand => {
                            let cv = CVal::Int(self.driver.rand_int());
                            env.insert(x.clone(), cv);
                        }
                        rhs => match self.eval(env.clone(), rhs) {
                            Outcome::Value(cv) => {
                                env.insert(x.clone(), cv);
                            }
                            other => return other,
                        },
                    }
                    expr = body;
                }
                Expr::Call(f, args) => {
                    let head = self.value(&env, f);
                    let mut vals: Vec<CVal> = args.iter().map(|a| self.value(&env, a)).collect();
                    let CVal::Closure(fname, mut prev) = head else {
                        panic!("calling non-closure");
                    };
                    prev.append(&mut vals);
                    let program = self.program;
                    let def = program
                        .def(&fname)
                        .unwrap_or_else(|| panic!("undefined function {fname}"));
                    assert_eq!(
                        prev.len(),
                        def.params.len(),
                        "call to {fname} does not saturate"
                    );
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
    use crate::elaborate::elaborate;
    use crate::parser::parse;
    use crate::types::infer;

    fn kernel_of(src: &str) -> Program {
        let tp = infer(&parse(src).expect("parses")).expect("types");
        let p = elaborate(&tp).expect("elaborates");
        p.check().expect("kernel type-checks");
        p
    }

    fn run_with(src: &str, ints: Vec<i64>, labels: Vec<Label>) -> Outcome {
        let p = kernel_of(src);
        let mut d = ScriptDriver::new(labels, ints);
        run(&p, &mut d, 100_000).0
    }

    #[test]
    fn arithmetic_runs() {
        let out = run_with("1 + 2 * 3", vec![], vec![]);
        assert_eq!(out, Outcome::Value(CVal::Int(7)));
    }

    #[test]
    fn assertion_failure_reaches_fail() {
        // assert (n > 0) with n = -5 fails along the else branch (label 1).
        let out = run_with("assert (n > 0)", vec![-5], vec![Label::One]);
        assert_eq!(out, Outcome::Fail);
    }

    #[test]
    fn assertion_success() {
        let out = run_with("assert (n > 0)", vec![5], vec![Label::Zero]);
        assert_eq!(out, Outcome::Value(CVal::Unit));
    }

    #[test]
    fn assume_false_stops_without_failure() {
        let out = run_with("assume (1 = 2); fail", vec![], vec![]);
        assert_eq!(out, Outcome::Stop);
    }

    #[test]
    fn recursion_with_fuel() {
        let out = run_with(
            "let rec sum n = if n <= 0 then 0 else n + sum (n - 1) in sum 10",
            vec![],
            // sum's `if` takes the else branch (label 1) ten times, then then.
            vec![Label::One; 10]
                .into_iter()
                .chain([Label::Zero])
                .collect(),
        );
        assert_eq!(out, Outcome::Value(CVal::Int(55)));
    }

    #[test]
    fn higher_order_call() {
        let out = run_with(
            "let f x g = g (x + 1) in
             let h y = y * 2 in
             f 20 h",
            vec![],
            vec![],
        );
        assert_eq!(out, Outcome::Value(CVal::Int(42)));
    }

    #[test]
    fn paper_m1_safe_for_positive_n() {
        // M1 from §1: safe for every n; check one positive instance.
        let src = "let f x g = g (x + 1) in
                   let h y = assert (y > 0) in
                   let k n = if n > 0 then f n h else () in
                   k m";
        // n = 3: if takes then (0), assert takes then (0).
        let out = run_with(src, vec![3], vec![Label::Zero, Label::Zero]);
        assert_eq!(out, Outcome::Value(CVal::Unit));
    }

    #[test]
    fn infinite_recursion_runs_out_of_fuel() {
        let out = run_with("let rec loop x = loop x in loop 0", vec![], vec![]);
        assert_eq!(out, Outcome::OutOfFuel);
    }

    #[test]
    fn cps_and_direct_agree_on_failure() {
        use crate::cps::cps_transform;
        let src = "let f x g = g (x + 1) in
                   let h y = assert (y > 0) in
                   let k n = if n > 0 then f n h else () in
                   k m";
        let p = kernel_of(src);
        let q = cps_transform(&p);
        q.check().expect("CPS checks");
        for n in [-3i64, 0, 1, 7] {
            for labs in [
                [Label::Zero, Label::Zero],
                [Label::Zero, Label::One],
                [Label::One, Label::Zero],
                [Label::One, Label::One],
            ] {
                let mut d1 = ScriptDriver::new(labs.to_vec(), vec![n]);
                let mut d2 = ScriptDriver::new(labs.to_vec(), vec![n]);
                let (o1, t1) = run(&p, &mut d1, 100_000);
                let (o2, t2) = run(&q, &mut d2, 100_000);
                assert_eq!(o1.is_fail(), o2.is_fail(), "n={n} labs={labs:?}");
                assert_eq!(t1, t2, "label traces must agree");
            }
        }
    }
}
