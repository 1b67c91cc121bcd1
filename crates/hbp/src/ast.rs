//! Higher-order boolean programs (the paper's §3).
//!
//! The only base types are tuples of booleans `bool × … × bool` (the 0-tuple
//! is `unit`); expressions extend the kernel with the abstraction-introduced
//! choice `e₁ ⊕ e₂` (label ε), kept distinct from the source-level choice
//! `e₁ ⊓ e₂` (labels 0/1) so counterexample paths can be mapped back to the
//! source program (§5).
//!
//! Programs are expected in the CPS normal form produced by predicate
//! abstraction of CPS-normal kernels: every `let` right-hand side is
//! call-free, every call is in tail position, and every body returns `unit`.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

pub use homc_lang::eval::Label;
pub use homc_lang::kernel::FunName;
use homc_smt::Var;

/// A simple type of the boolean program: a tuple of booleans or a function.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum BTy {
    /// `bool × … × bool` with the given width (0 = `unit`).
    Tuple(usize),
    /// A function type.
    Fun(Box<BTy>, Box<BTy>),
}

impl BTy {
    /// The `unit` type.
    pub fn unit() -> BTy {
        BTy::Tuple(0)
    }

    /// `t1 → t2`.
    pub fn fun(t1: BTy, t2: BTy) -> BTy {
        BTy::Fun(Box::new(t1), Box::new(t2))
    }

    /// `true` for tuple types.
    pub fn is_base(&self) -> bool {
        matches!(self, BTy::Tuple(_))
    }

    /// Splits a curried function type into parameters and result.
    pub fn uncurry(&self) -> (Vec<&BTy>, &BTy) {
        let mut ps = Vec::new();
        let mut t = self;
        while let BTy::Fun(a, b) = t {
            ps.push(a.as_ref());
            t = b;
        }
        (ps, t)
    }
}

impl fmt::Display for BTy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BTy::Tuple(0) => write!(f, "unit"),
            BTy::Tuple(1) => write!(f, "bool"),
            BTy::Tuple(n) => write!(f, "bool^{n}"),
            BTy::Fun(a, b) => {
                if a.is_base() {
                    write!(f, "{a} -> {b}")
                } else {
                    write!(f, "({a}) -> {b}")
                }
            }
        }
    }
}

/// A pure boolean expression over tuple-typed variables.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum BoolExpr {
    /// A constant.
    Const(bool),
    /// `πᵢ x` — the i-th component (0-based) of a tuple variable.
    Proj(Var, usize),
    /// Negation.
    Not(Box<BoolExpr>),
    /// Conjunction.
    And(Vec<BoolExpr>),
    /// Disjunction.
    Or(Vec<BoolExpr>),
}

impl BoolExpr {
    /// `true` as a constant.
    pub const TRUE: BoolExpr = BoolExpr::Const(true);
    /// `false` as a constant.
    pub const FALSE: BoolExpr = BoolExpr::Const(false);

    /// Smart negation.
    #[allow(clippy::should_implement_trait)] // associated constructor, not `!e`
    pub fn not(e: BoolExpr) -> BoolExpr {
        match e {
            BoolExpr::Const(b) => BoolExpr::Const(!b),
            BoolExpr::Not(e) => *e,
            e => BoolExpr::Not(Box::new(e)),
        }
    }

    /// Smart conjunction.
    pub fn and(parts: impl IntoIterator<Item = BoolExpr>) -> BoolExpr {
        let mut out = Vec::new();
        for p in parts {
            match p {
                BoolExpr::Const(true) => {}
                BoolExpr::Const(false) => return BoolExpr::FALSE,
                BoolExpr::And(ps) => out.extend(ps),
                p => out.push(p),
            }
        }
        match out.len() {
            0 => BoolExpr::TRUE,
            1 => out.pop().expect("len checked"),
            _ => BoolExpr::And(out),
        }
    }

    /// Smart disjunction.
    pub fn or(parts: impl IntoIterator<Item = BoolExpr>) -> BoolExpr {
        let mut out = Vec::new();
        for p in parts {
            match p {
                BoolExpr::Const(false) => {}
                BoolExpr::Const(true) => return BoolExpr::TRUE,
                BoolExpr::Or(ps) => out.extend(ps),
                p => out.push(p),
            }
        }
        match out.len() {
            0 => BoolExpr::FALSE,
            1 => out.pop().expect("len checked"),
            _ => BoolExpr::Or(out),
        }
    }

    /// Evaluates under a tuple assignment.
    pub fn eval(&self, env: &dyn Fn(&Var, usize) -> bool) -> bool {
        match self {
            BoolExpr::Const(b) => *b,
            BoolExpr::Proj(x, i) => env(x, *i),
            BoolExpr::Not(e) => !e.eval(env),
            BoolExpr::And(es) => es.iter().all(|e| e.eval(env)),
            BoolExpr::Or(es) => es.iter().any(|e| e.eval(env)),
        }
    }

    /// Collects every `πᵢ x` projection into `out`.
    pub fn projections(&self, out: &mut BTreeSet<(Var, usize)>) {
        match self {
            BoolExpr::Const(_) => {}
            BoolExpr::Proj(x, i) => {
                out.insert((x.clone(), *i));
            }
            BoolExpr::Not(e) => e.projections(out),
            BoolExpr::And(es) | BoolExpr::Or(es) => {
                for e in es {
                    e.projections(out);
                }
            }
        }
    }

    /// Variables mentioned.
    pub fn vars(&self, out: &mut Vec<Var>) {
        match self {
            BoolExpr::Const(_) => {}
            BoolExpr::Proj(x, _) => {
                if !out.contains(x) {
                    out.push(x.clone());
                }
            }
            BoolExpr::Not(e) => e.vars(out),
            BoolExpr::And(es) | BoolExpr::Or(es) => {
                for e in es {
                    e.vars(out);
                }
            }
        }
    }
}

impl fmt::Display for BoolExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoolExpr::Const(b) => write!(f, "{b}"),
            BoolExpr::Proj(x, i) => write!(f, "{x}.{i}"),
            BoolExpr::Not(e) => write!(f, "!({e})"),
            BoolExpr::And(es) => {
                write!(f, "(")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, " & ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            BoolExpr::Or(es) => {
                write!(f, "(")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, " | ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// Values of the boolean program.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum BVal {
    /// A tuple of boolean expressions `⟨e₁, …, eₙ⟩`.
    Tuple(Vec<BoolExpr>),
    /// A variable (base- or function-typed).
    Var(Var),
    /// A top-level function.
    Fun(FunName),
    /// A partial application.
    PApp(Box<BVal>, Vec<BVal>),
}

impl BVal {
    /// The unit value `⟨⟩`.
    pub fn unit() -> BVal {
        BVal::Tuple(Vec::new())
    }

    /// Applies arguments, flattening nested partial applications.
    pub fn papp(self, args: Vec<BVal>) -> BVal {
        if args.is_empty() {
            return self;
        }
        match self {
            BVal::PApp(h, mut prev) => {
                prev.extend(args);
                BVal::PApp(h, prev)
            }
            v => BVal::PApp(Box::new(v), args),
        }
    }
}

impl fmt::Display for BVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BVal::Tuple(es) => {
                write!(f, "<")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ">")
            }
            BVal::Var(x) => write!(f, "{x}"),
            BVal::Fun(g) => write!(f, "{g}"),
            BVal::PApp(h, args) => {
                write!(f, "({h}")?;
                for a in args {
                    write!(f, " {a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// Expressions of the boolean program.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum BExpr {
    /// Return a value.
    Value(BVal),
    /// A (tail) call.
    Call(BVal, Vec<BVal>),
    /// `let x = e₁ in e₂` with a call-free `e₁`.
    Let(Var, Box<BExpr>, Box<BExpr>),
    /// Source non-determinism `e₁ ⊓ e₂` (labels 0/1).
    SChoice(Box<BExpr>, Box<BExpr>),
    /// Abstraction non-determinism `e₁ ⊕ e₂` (label ε).
    AChoice(Box<BExpr>, Box<BExpr>),
    /// `assume e; e'` (the condition may be any pure boolean expression).
    Assume(BoolExpr, Box<BExpr>),
    /// Failure.
    Fail,
}

impl BExpr {
    /// `let x = rhs in body`.
    pub fn let_(x: impl Into<Var>, rhs: BExpr, body: BExpr) -> BExpr {
        BExpr::Let(x.into(), Box::new(rhs), Box::new(body))
    }

    /// `e₁ ⊓ e₂`.
    pub fn schoice(l: BExpr, r: BExpr) -> BExpr {
        BExpr::SChoice(Box::new(l), Box::new(r))
    }

    /// `e₁ ⊕ e₂`.
    pub fn achoice(l: BExpr, r: BExpr) -> BExpr {
        BExpr::AChoice(Box::new(l), Box::new(r))
    }

    /// An n-ary ⊕ over a non-empty list.
    pub fn achoice_all(mut parts: Vec<BExpr>) -> BExpr {
        let mut acc = parts.pop().expect("achoice_all of empty list");
        while let Some(p) = parts.pop() {
            acc = BExpr::achoice(p, acc);
        }
        acc
    }

    /// `assume c; e`.
    pub fn assume(c: BoolExpr, e: BExpr) -> BExpr {
        BExpr::Assume(c, Box::new(e))
    }
}

impl fmt::Display for BExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BExpr::Value(v) => write!(f, "{v}"),
            BExpr::Call(h, args) => {
                write!(f, "{h}")?;
                for a in args {
                    write!(f, " {a}")?;
                }
                Ok(())
            }
            BExpr::Let(x, rhs, body) => write!(f, "let {x} = {rhs} in\n{body}"),
            BExpr::SChoice(l, r) => write!(f, "({l}) [] ({r})"),
            BExpr::AChoice(l, r) => write!(f, "({l}) (+) ({r})"),
            BExpr::Assume(c, e) => write!(f, "assume {c}; {e}"),
            BExpr::Fail => write!(f, "fail"),
        }
    }
}

/// A function definition of the boolean program.
#[derive(Clone, Debug)]
pub struct BDef {
    /// Name.
    pub name: FunName,
    /// Typed parameters.
    pub params: Vec<(Var, BTy)>,
    /// Body (returns `unit`).
    pub body: BExpr,
}

impl BDef {
    /// The function's type (result `unit`).
    pub fn ty(&self) -> BTy {
        self.params
            .iter()
            .rev()
            .fold(BTy::unit(), |acc, (_, t)| BTy::fun(t.clone(), acc))
    }
}

/// A higher-order boolean program.
#[derive(Clone, Debug)]
pub struct BProgram {
    /// Definitions.
    pub defs: Vec<BDef>,
    /// Entry point — must have no parameters.
    pub main: FunName,
}

impl BProgram {
    /// Looks up a definition.
    pub fn def(&self, name: &FunName) -> Option<&BDef> {
        self.defs.iter().find(|d| &d.name == name)
    }

    /// The tuple components each definition's body actually inspects: every
    /// `πᵢ x` projection, keyed by definition name. Predicate-abstraction
    /// tuples carry one component per predicate, so a scheme component never
    /// projected anywhere is dead weight of the proof — this is the raw
    /// input of the verifier's `preds_dead` statistic.
    pub fn projections(&self) -> BTreeMap<FunName, BTreeSet<(Var, usize)>> {
        fn walk_val(v: &BVal, out: &mut BTreeSet<(Var, usize)>) {
            match v {
                BVal::Tuple(es) => {
                    for e in es {
                        e.projections(out);
                    }
                }
                BVal::Var(_) | BVal::Fun(_) => {}
                BVal::PApp(h, args) => {
                    walk_val(h, out);
                    for a in args {
                        walk_val(a, out);
                    }
                }
            }
        }
        fn walk(e: &BExpr, out: &mut BTreeSet<(Var, usize)>) {
            match e {
                BExpr::Value(v) => walk_val(v, out),
                BExpr::Call(h, args) => {
                    walk_val(h, out);
                    for a in args {
                        walk_val(a, out);
                    }
                }
                BExpr::Let(_, rhs, body) => {
                    walk(rhs, out);
                    walk(body, out);
                }
                BExpr::SChoice(l, r) | BExpr::AChoice(l, r) => {
                    walk(l, out);
                    walk(r, out);
                }
                BExpr::Assume(c, e) => {
                    c.projections(out);
                    walk(e, out);
                }
                BExpr::Fail => {}
            }
        }
        self.defs
            .iter()
            .map(|d| {
                let mut out = BTreeSet::new();
                walk(&d.body, &mut out);
                (d.name.clone(), out)
            })
            .collect()
    }

    /// Total AST size (for statistics).
    pub fn size(&self) -> usize {
        fn esize(e: &BExpr) -> usize {
            match e {
                BExpr::Value(_) | BExpr::Call(_, _) | BExpr::Fail => 1,
                BExpr::Let(_, r, b) => 1 + esize(r) + esize(b),
                BExpr::SChoice(l, r) | BExpr::AChoice(l, r) => 1 + esize(l) + esize(r),
                BExpr::Assume(_, e) => 1 + esize(e),
            }
        }
        self.defs.iter().map(|d| 1 + esize(&d.body)).sum()
    }

    /// Validates types, scoping, and the CPS normal form: all calls are in
    /// tail position, `let` right-hand sides are call- and fail-free, every
    /// call saturates to `unit`, and `main` takes no parameters.
    pub fn check(&self) -> Result<(), String> {
        let mut sig: BTreeMap<FunName, BTy> = BTreeMap::new();
        for d in &self.defs {
            if sig.insert(d.name.clone(), d.ty()).is_some() {
                return Err(format!("duplicate definition {}", d.name));
            }
        }
        let main = self
            .def(&self.main)
            .ok_or_else(|| format!("missing main {}", self.main))?;
        if !main.params.is_empty() {
            return Err("main must take no parameters".into());
        }
        for d in &self.defs {
            let mut env: BTreeMap<Var, BTy> = d.params.iter().cloned().collect();
            self.check_expr(&d.body, &mut env, &sig, true)
                .map_err(|e| format!("in {}: {e}", d.name))?;
        }
        Ok(())
    }

    fn value_ty(
        &self,
        v: &BVal,
        env: &BTreeMap<Var, BTy>,
        sig: &BTreeMap<FunName, BTy>,
    ) -> Result<BTy, String> {
        match v {
            BVal::Tuple(es) => {
                for e in es {
                    let mut vs = Vec::new();
                    e.vars(&mut vs);
                    for x in vs {
                        match env.get(&x) {
                            Some(BTy::Tuple(_)) => {}
                            Some(t) => return Err(format!("projection from non-tuple {x}: {t}")),
                            None => return Err(format!("unbound variable {x}")),
                        }
                    }
                }
                Ok(BTy::Tuple(es.len()))
            }
            BVal::Var(x) => env
                .get(x)
                .cloned()
                .ok_or_else(|| format!("unbound variable {x}")),
            BVal::Fun(g) => sig
                .get(g)
                .cloned()
                .ok_or_else(|| format!("unbound function {g}")),
            BVal::PApp(h, args) => {
                let mut t = self.value_ty(h, env, sig)?;
                for a in args {
                    let ta = self.value_ty(a, env, sig)?;
                    match t {
                        BTy::Fun(p, r) => {
                            if *p != ta {
                                return Err(format!("argument mismatch: {p} vs {ta}"));
                            }
                            t = *r;
                        }
                        t => return Err(format!("over-application at type {t}")),
                    }
                }
                if t.is_base() {
                    return Err("partial application saturates".into());
                }
                Ok(t)
            }
        }
    }

    fn check_expr(
        &self,
        e: &BExpr,
        env: &mut BTreeMap<Var, BTy>,
        sig: &BTreeMap<FunName, BTy>,
        tail: bool,
    ) -> Result<BTy, String> {
        match e {
            BExpr::Value(v) => self.value_ty(v, env, sig),
            BExpr::Call(h, args) => {
                if !tail {
                    return Err("call outside tail position".into());
                }
                let mut t = self.value_ty(h, env, sig)?;
                for a in args {
                    let ta = self.value_ty(a, env, sig)?;
                    match t {
                        BTy::Fun(p, r) => {
                            if *p != ta {
                                return Err(format!("call argument mismatch: {p} vs {ta}"));
                            }
                            t = *r;
                        }
                        t => return Err(format!("calling non-function {t}")),
                    }
                }
                if t != BTy::unit() {
                    return Err(format!("call does not saturate to unit: {t}"));
                }
                Ok(t)
            }
            BExpr::Let(x, rhs, body) => {
                let t = self.check_expr(rhs, env, sig, false)?;
                let shadowed = env.insert(x.clone(), t);
                let tb = self.check_expr(body, env, sig, tail)?;
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
            BExpr::SChoice(l, r) | BExpr::AChoice(l, r) => {
                let tl = self.check_expr(l, env, sig, tail)?;
                let tr = self.check_expr(r, env, sig, tail)?;
                if tl != tr {
                    return Err(format!("choice branches disagree: {tl} vs {tr}"));
                }
                Ok(tl)
            }
            BExpr::Assume(c, e) => {
                let mut vs = Vec::new();
                c.vars(&mut vs);
                for x in vs {
                    match env.get(&x) {
                        Some(BTy::Tuple(_)) => {}
                        Some(t) => return Err(format!("assume projects non-tuple {x}: {t}")),
                        None => return Err(format!("unbound variable {x} in assume")),
                    }
                }
                self.check_expr(e, env, sig, tail)
            }
            BExpr::Fail => {
                if !tail {
                    return Err("fail outside tail position".into());
                }
                Ok(BTy::unit())
            }
        }
    }
}

impl fmt::Display for BProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.defs {
            write!(f, "{}", d.name)?;
            for (x, t) in &d.params {
                write!(f, " ({x}:{t})")?;
            }
            writeln!(f, " =")?;
            writeln!(f, "  {}", d.body)?;
        }
        writeln!(f, "(* main: {} *)", self.main)
    }
}

/// A label on a path of the boolean program: a source choice (0/1) or an
/// abstraction choice (ε).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PathLabel {
    /// A source-level `⊓` branch.
    Src(Label),
    /// An abstraction-introduced `⊕` branch (which side, for replay).
    Eps(bool),
}

impl PathLabel {
    /// The source label, if this is a `⊓` step.
    pub fn source(&self) -> Option<Label> {
        match self {
            PathLabel::Src(l) => Some(*l),
            PathLabel::Eps(_) => None,
        }
    }
}

impl fmt::Display for PathLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathLabel::Src(l) => write!(f, "{l}"),
            PathLabel::Eps(_) => write!(f, "ε"),
        }
    }
}

/// Extracts the source-level labels of a path (dropping ε steps) — the
/// sequence fed back to the CEGAR feasibility check.
pub fn source_labels(path: &[PathLabel]) -> Vec<Label> {
    path.iter().filter_map(PathLabel::source).collect()
}
