//! The kernel intermediate representation — the paper's §2 language.
//!
//! A program is a set of first-order-style definitions `f x̃ = e` over a
//! call-by-value expression language with `let`, full applications, partial
//! applications as values, non-deterministic choice `e₁ ⊓ e₂`, `assume`, and
//! `fail`. Conditionals are desugared per §2:
//!
//! ```text
//! if v then e1 else e2  ≡  (assume v; e1) ⊓ (let x = ¬v in assume x; e2)
//! ```
//!
//! Unknown integers appear as parameters of `main` (free variables of the
//! surface program) or as `let x = rand_int in …` bindings.

use std::collections::BTreeMap;
use std::fmt;

use homc_smt::Var;

use crate::types::SimpleTy;

/// A top-level function name.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FunName(pub String);

impl fmt::Debug for FunName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for FunName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<&str> for FunName {
    fn from(s: &str) -> FunName {
        FunName(s.to_string())
    }
}

/// Primitive operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Op {
    /// Integer addition.
    Add,
    /// Integer subtraction.
    Sub,
    /// Integer multiplication.
    Mul,
    /// Integer division.
    Div,
    /// Unary integer negation.
    Neg,
    /// `<` on integers.
    Lt,
    /// `<=` on integers.
    Le,
    /// `>` on integers.
    Gt,
    /// `>=` on integers.
    Ge,
    /// `=` on integers.
    EqInt,
    /// `=` on booleans.
    EqBool,
    /// Boolean conjunction.
    And,
    /// Boolean disjunction.
    Or,
    /// Boolean negation.
    Not,
}

impl Op {
    /// The result type of the operator.
    pub fn result_ty(self) -> SimpleTy {
        match self {
            Op::Add | Op::Sub | Op::Mul | Op::Div | Op::Neg => SimpleTy::Int,
            _ => SimpleTy::Bool,
        }
    }

    /// The argument types of the operator.
    pub fn arg_tys(self) -> Vec<SimpleTy> {
        match self {
            Op::Add | Op::Sub | Op::Mul | Op::Div => vec![SimpleTy::Int, SimpleTy::Int],
            Op::Neg => vec![SimpleTy::Int],
            Op::Lt | Op::Le | Op::Gt | Op::Ge | Op::EqInt => vec![SimpleTy::Int, SimpleTy::Int],
            Op::EqBool | Op::And | Op::Or => vec![SimpleTy::Bool, SimpleTy::Bool],
            Op::Not => vec![SimpleTy::Bool],
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Op::Add => "+",
            Op::Sub => "-",
            Op::Mul => "*",
            Op::Div => "/",
            Op::Neg => "~-",
            Op::Lt => "<",
            Op::Le => "<=",
            Op::Gt => ">",
            Op::Ge => ">=",
            Op::EqInt => "=",
            Op::EqBool => "=b",
            Op::And => "&&",
            Op::Or => "||",
            Op::Not => "not",
        };
        write!(f, "{s}")
    }
}

/// Base-type constants.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Const {
    /// `()`.
    Unit,
    /// Boolean.
    Bool(bool),
    /// Integer.
    Int(i64),
}

impl Const {
    /// The constant's type.
    pub fn ty(self) -> SimpleTy {
        match self {
            Const::Unit => SimpleTy::Unit,
            Const::Bool(_) => SimpleTy::Bool,
            Const::Int(_) => SimpleTy::Int,
        }
    }
}

impl fmt::Display for Const {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Const::Unit => write!(f, "()"),
            Const::Bool(b) => write!(f, "{b}"),
            Const::Int(n) => write!(f, "{n}"),
        }
    }
}

/// Values: constants, variables, function names, and partial applications.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Value {
    /// A constant.
    Const(Const),
    /// A variable.
    Var(Var),
    /// A top-level function.
    Fun(FunName),
    /// A partial application `h v₁ … vₖ` (strictly fewer arguments than the
    /// head's full type arity).
    PApp(Box<Value>, Vec<Value>),
}

impl Value {
    /// `()`.
    pub fn unit() -> Value {
        Value::Const(Const::Unit)
    }

    /// A boolean constant.
    pub fn bool(b: bool) -> Value {
        Value::Const(Const::Bool(b))
    }

    /// An integer constant.
    pub fn int(n: i64) -> Value {
        Value::Const(Const::Int(n))
    }

    /// A variable reference.
    pub fn var(v: impl Into<Var>) -> Value {
        Value::Var(v.into())
    }

    /// Applies more arguments to a value, flattening nested partial
    /// applications.
    pub fn papp(self, args: Vec<Value>) -> Value {
        if args.is_empty() {
            return self;
        }
        match self {
            Value::PApp(h, mut prev) => {
                prev.extend(args);
                Value::PApp(h, prev)
            }
            head => Value::PApp(Box::new(head), args),
        }
    }

    /// The head and the accumulated argument list of a (possibly partial)
    /// application; a non-application is its own head with no arguments.
    pub fn uncurry(&self) -> (&Value, Vec<&Value>) {
        match self {
            Value::PApp(h, args) => {
                let (head, mut inner) = h.uncurry();
                inner.extend(args.iter());
                (head, inner)
            }
            v => (v, Vec::new()),
        }
    }

    /// Collects free variables into `out`.
    pub fn free_vars(&self, out: &mut Vec<Var>) {
        match self {
            Value::Const(_) | Value::Fun(_) => {}
            Value::Var(v) => {
                if !out.contains(v) {
                    out.push(v.clone());
                }
            }
            Value::PApp(h, args) => {
                h.free_vars(out);
                for a in args {
                    a.free_vars(out);
                }
            }
        }
    }
}

/// Kernel expressions.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Expr {
    /// Return a value.
    Value(Value),
    /// Full application (saturates the callee's type arity up to a base
    /// result pre-CPS; returns `unit` post-CPS).
    Call(Value, Vec<Value>),
    /// Primitive operation on values.
    Op(Op, Vec<Value>),
    /// An unknown integer.
    Rand,
    /// `let x = e₁ in e₂`.
    Let(Var, Box<Expr>, Box<Expr>),
    /// Source-level non-deterministic choice `e₁ ⊓ e₂` (labels 0/1).
    Choice(Box<Expr>, Box<Expr>),
    /// `assume v; e`.
    Assume(Value, Box<Expr>),
    /// Failure.
    Fail,
}

impl Expr {
    /// `let x = rhs in body`.
    pub fn let_(x: impl Into<Var>, rhs: Expr, body: Expr) -> Expr {
        Expr::Let(x.into(), Box::new(rhs), Box::new(body))
    }

    /// `e₁ ⊓ e₂`.
    pub fn choice(l: Expr, r: Expr) -> Expr {
        Expr::Choice(Box::new(l), Box::new(r))
    }

    /// `assume v; e`.
    pub fn assume(v: Value, e: Expr) -> Expr {
        Expr::Assume(v, Box::new(e))
    }

    /// Collects free variables (excluding function names) into `out`.
    pub fn free_vars(&self, bound: &mut Vec<Var>, out: &mut Vec<Var>) {
        let value_fvs = |v: &Value, bound: &Vec<Var>, out: &mut Vec<Var>| {
            let mut vs = Vec::new();
            v.free_vars(&mut vs);
            for v in vs {
                if !bound.contains(&v) && !out.contains(&v) {
                    out.push(v);
                }
            }
        };
        match self {
            Expr::Value(v) => value_fvs(v, bound, out),
            Expr::Call(f, args) => {
                value_fvs(f, bound, out);
                for a in args {
                    value_fvs(a, bound, out);
                }
            }
            Expr::Op(_, args) => {
                for a in args {
                    value_fvs(a, bound, out);
                }
            }
            Expr::Rand | Expr::Fail => {}
            Expr::Let(x, rhs, body) => {
                rhs.free_vars(bound, out);
                bound.push(x.clone());
                body.free_vars(bound, out);
                bound.pop();
            }
            Expr::Choice(l, r) => {
                l.free_vars(bound, out);
                r.free_vars(bound, out);
            }
            Expr::Assume(v, e) => {
                value_fvs(v, bound, out);
                e.free_vars(bound, out);
            }
        }
    }

    /// Number of AST nodes.
    pub fn size(&self) -> usize {
        match self {
            Expr::Value(_) | Expr::Op(_, _) | Expr::Rand | Expr::Fail | Expr::Call(_, _) => 1,
            Expr::Let(_, r, b) => 1 + r.size() + b.size(),
            Expr::Choice(l, r) => 1 + l.size() + r.size(),
            Expr::Assume(_, e) => 1 + e.size(),
        }
    }
}

/// A top-level function definition `f x̃ = e`.
#[derive(Clone, Debug)]
pub struct Def {
    /// The function name.
    pub name: FunName,
    /// Parameters with their simple types.
    pub params: Vec<(Var, SimpleTy)>,
    /// The result type of the body.
    pub ret: SimpleTy,
    /// The body.
    pub body: Expr,
}

impl Def {
    /// The function's full simple type.
    pub fn ty(&self) -> SimpleTy {
        self.params
            .iter()
            .rev()
            .fold(self.ret.clone(), |acc, (_, t)| {
                SimpleTy::fun(t.clone(), acc)
            })
    }
}

/// A kernel program: definitions plus a designated `main`.
///
/// `main`'s parameters are the program's unknown integers; verification asks
/// whether `main ũ` can reach `fail` for *some* integers `ũ` (and some
/// resolution of the non-deterministic choices).
#[derive(Clone, Debug)]
pub struct Program {
    /// All definitions, in a stable order.
    pub defs: Vec<Def>,
    /// The entry point.
    pub main: FunName,
}

impl Program {
    /// Looks up a definition by name.
    pub fn def(&self, name: &FunName) -> Option<&Def> {
        self.defs.iter().find(|d| &d.name == name)
    }

    /// The entry definition.
    ///
    /// # Panics
    ///
    /// Panics when `main` is missing (programs constructed by [`crate::elaborate`]
    /// always have it).
    pub fn main_def(&self) -> &Def {
        self.def(&self.main).expect("main must exist")
    }

    /// The paper's order metric O: the largest order among the types of the
    /// program's functions.
    pub fn order(&self) -> usize {
        self.defs.iter().map(|d| d.ty().order()).max().unwrap_or(0)
    }

    /// Type-checks the program, verifying the scoping and application
    /// invariants of the kernel. Returns the map of function types.
    pub fn check(&self) -> Result<BTreeMap<FunName, SimpleTy>, String> {
        let mut sig = BTreeMap::new();
        for d in &self.defs {
            if sig.insert(d.name.clone(), d.ty()).is_some() {
                return Err(format!("duplicate definition of {}", d.name));
            }
        }
        if !sig.contains_key(&self.main) {
            return Err(format!("missing main function {}", self.main));
        }
        for d in &self.defs {
            let mut env: BTreeMap<Var, SimpleTy> = d.params.iter().cloned().collect();
            // `None` = the body certainly fails (bottom), compatible with
            // any declared result type.
            if let Some(t) = self.check_expr(&d.body, &mut env, &sig)? {
                if t != d.ret {
                    return Err(format!(
                        "body of {} has type {t}, declared {}",
                        d.name, d.ret
                    ));
                }
            }
        }
        Ok(sig)
    }

    fn value_ty(
        &self,
        v: &Value,
        env: &BTreeMap<Var, SimpleTy>,
        sig: &BTreeMap<FunName, SimpleTy>,
    ) -> Result<SimpleTy, String> {
        match v {
            Value::Const(c) => Ok(c.ty()),
            Value::Var(x) => env
                .get(x)
                .cloned()
                .ok_or_else(|| format!("unbound variable {x}")),
            Value::Fun(f) => sig
                .get(f)
                .cloned()
                .ok_or_else(|| format!("unbound function {f}")),
            Value::PApp(h, args) => {
                let mut t = self.value_ty(h, env, sig)?;
                for a in args {
                    let ta = self.value_ty(a, env, sig)?;
                    match t {
                        SimpleTy::Fun(p, r) => {
                            if *p != ta {
                                return Err(format!(
                                    "argument type mismatch: expected {p}, got {ta}"
                                ));
                            }
                            t = *r;
                        }
                        t => return Err(format!("over-application of value of type {t}")),
                    }
                }
                if t.is_base() {
                    return Err("partial application saturates to a base type".into());
                }
                Ok(t)
            }
        }
    }

    /// Types an expression; `Ok(None)` means the expression certainly
    /// reduces to `fail` (bottom — compatible with every type).
    fn check_expr(
        &self,
        e: &Expr,
        env: &mut BTreeMap<Var, SimpleTy>,
        sig: &BTreeMap<FunName, SimpleTy>,
    ) -> Result<Option<SimpleTy>, String> {
        match e {
            Expr::Value(v) => self.value_ty(v, env, sig).map(Some),
            Expr::Call(f, args) => {
                let mut t = self.value_ty(f, env, sig)?;
                for a in args {
                    let ta = self.value_ty(a, env, sig)?;
                    match t {
                        SimpleTy::Fun(p, r) => {
                            if *p != ta {
                                return Err(format!(
                                    "call argument mismatch: expected {p}, got {ta}"
                                ));
                            }
                            t = *r;
                        }
                        t => return Err(format!("calling non-function of type {t}")),
                    }
                }
                if !t.is_base() {
                    return Err(format!("call does not saturate: residual type {t}"));
                }
                Ok(Some(t))
            }
            Expr::Op(op, args) => {
                let want = op.arg_tys();
                if want.len() != args.len() {
                    return Err(format!("operator {op} arity mismatch"));
                }
                for (a, w) in args.iter().zip(&want) {
                    let ta = self.value_ty(a, env, sig)?;
                    if ta != *w {
                        return Err(format!("operator {op}: expected {w}, got {ta}"));
                    }
                }
                Ok(Some(op.result_ty()))
            }
            Expr::Rand => Ok(Some(SimpleTy::Int)),
            Expr::Let(x, rhs, body) => {
                let Some(t) = self.check_expr(rhs, env, sig)? else {
                    // The binding certainly fails: the body is dead code.
                    return Ok(None);
                };
                let shadowed = env.insert(x.clone(), t);
                let tb = self.check_expr(body, env, sig)?;
                match shadowed {
                    Some(s) => {
                        env.insert(x.clone(), s);
                    }
                    None => {
                        env.remove(x);
                    }
                }
                Ok(tb)
            }
            Expr::Choice(l, r) => {
                let tl = self.check_expr(l, env, sig)?;
                let tr = self.check_expr(r, env, sig)?;
                match (tl, tr) {
                    (Some(a), Some(b)) if a != b => {
                        Err(format!("choice branches disagree: {a} vs {b}"))
                    }
                    (Some(a), _) => Ok(Some(a)),
                    (None, t) => Ok(t),
                }
            }
            Expr::Assume(v, e) => {
                let tv = self.value_ty(v, env, sig)?;
                if tv != SimpleTy::Bool {
                    return Err(format!("assume on non-boolean {tv}"));
                }
                self.check_expr(e, env, sig)
            }
            Expr::Fail => Ok(None),
        }
    }

    /// `true` when the program is in the CPS normal form required by the
    /// back half of the pipeline: every body has type `unit`, every `let`
    /// right-hand side is an operator, `rand`, or a value, and every call is
    /// in tail position.
    pub fn is_cps_normal(&self) -> bool {
        fn tail_ok(e: &Expr) -> bool {
            match e {
                Expr::Value(Value::Const(Const::Unit)) | Expr::Fail => true,
                Expr::Call(_, _) => true,
                Expr::Value(_) | Expr::Op(_, _) | Expr::Rand => false,
                Expr::Let(_, rhs, body) => {
                    matches!(rhs.as_ref(), Expr::Op(_, _) | Expr::Rand | Expr::Value(_))
                        && tail_ok(body)
                }
                Expr::Choice(l, r) => tail_ok(l) && tail_ok(r),
                Expr::Assume(_, e) => tail_ok(e),
            }
        }
        self.defs
            .iter()
            .all(|d| d.ret == SimpleTy::Unit && tail_ok(&d.body))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Const(c) => write!(f, "{c}"),
            Value::Var(v) => write!(f, "{v}"),
            Value::Fun(n) => write!(f, "{n}"),
            Value::PApp(h, args) => {
                write!(f, "({h}")?;
                for a in args {
                    write!(f, " {a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_indented(f, 0)
    }
}

impl Expr {
    fn fmt_indented(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let pad = "  ".repeat(indent);
        match self {
            Expr::Value(v) => write!(f, "{pad}{v}"),
            Expr::Call(h, args) => {
                write!(f, "{pad}{h}")?;
                for a in args {
                    write!(f, " {a}")?;
                }
                Ok(())
            }
            Expr::Op(op, args) => {
                write!(f, "{pad}{op}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Expr::Rand => write!(f, "{pad}rand_int"),
            Expr::Let(x, rhs, body) => {
                write!(f, "{pad}let {x} =")?;
                match rhs.as_ref() {
                    Expr::Value(_) | Expr::Op(_, _) | Expr::Rand => {
                        write!(f, " ")?;
                        rhs.fmt_indented(f, 0)?;
                    }
                    _ => {
                        writeln!(f)?;
                        rhs.fmt_indented(f, indent + 1)?;
                    }
                }
                writeln!(f, " in")?;
                body.fmt_indented(f, indent)
            }
            Expr::Choice(l, r) => {
                writeln!(f, "{pad}(")?;
                l.fmt_indented(f, indent + 1)?;
                writeln!(f)?;
                writeln!(f, "{pad}) [] (")?;
                r.fmt_indented(f, indent + 1)?;
                writeln!(f)?;
                write!(f, "{pad})")
            }
            Expr::Assume(v, e) => {
                writeln!(f, "{pad}assume {v};")?;
                e.fmt_indented(f, indent)
            }
            Expr::Fail => write!(f, "{pad}fail"),
        }
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.defs {
            write!(f, "{}", d.name)?;
            for (x, t) in &d.params {
                write!(f, " ({x}:{t})")?;
            }
            writeln!(f, " : {} =", d.ret)?;
            d.body.fmt_indented(f, 1)?;
            writeln!(f)?;
        }
        writeln!(f, "(* main: {} *)", self.main)
    }
}
