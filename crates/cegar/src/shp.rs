//! Straightline higher-order programs (the paper's §5.2.1), in trace form.
//!
//! Given a source program and an error path σ (the `0/1` labels of an
//! abstract counterexample), the paper builds `SHP(D, σ)`: a copy of the
//! program specialized to the path — one copy of a function per call along
//! the execution, branches not taken removed, every function called at most
//! once (Lemma 5.1). We build the same object in *A-normalized constraint
//! form*: a symbolic execution along σ that records, in order,
//!
//! * one **activation** per function call (the paper's copy `f⁽ʲ⁾`), binding
//!   each integer parameter to a fresh symbol with its defining equality —
//!   captured partial-application arguments included, exactly like the
//!   paper's treatment of closures (its Example 5.2 constraint `z = n` for
//!   the captured argument of `h n`);
//! * every branch/assume **condition**, attributed to its activation;
//! * a **cut point** per integer parameter binding and per `rand_int` site —
//!   the positions where §5.2.2's predicate templates `Pᵢ(ν, x̃)` live.
//!
//! The conjunction of all recorded formulas is the path condition: the path
//! is feasible in the source program iff it is satisfiable (§5.1), and when
//! it is not, interpolation over the cut points yields the new predicates
//! (§5.2.2–5.2.3, implemented in [`crate::refine`]).

use std::collections::BTreeMap;
use std::fmt;

use homc_budget::{Budget, BudgetError, Phase};
use homc_lang::eval::Label;
use homc_lang::kernel::{Const, Expr, FunName, Op, Program, Value};
use homc_smt::{Atom, Formula, LinExpr, Var};

/// A symbolic value during trace construction.
#[derive(Clone, Debug)]
pub enum SymVal {
    /// `()`.
    Unit,
    /// A boolean as a formula over trace symbols.
    Bool(Formula),
    /// An integer as a linear expression over trace symbols.
    Int(LinExpr),
    /// A (possibly partial) closure, carrying the higher-order *origins* it
    /// flowed through (every function parameter it was bound to, with the
    /// number of arguments already applied at that moment).
    Clo(FunName, Vec<SymVal>, Vec<Origin>),
}

/// A record of a closure flowing through a function parameter: predicates
/// discovered for the closure's eventual activation must also be installed
/// at this parameter's corresponding argument positions (this is how the
/// paper's dependent SHP types like `f : x:int → (y:{ν > x} → ⋆) → ⋆`
/// propagate information to the call sites that build argument tuples).
#[derive(Clone, Debug)]
pub struct Origin {
    /// The activation whose parameter received the closure.
    pub activation: usize,
    /// The receiving parameter (original name in that definition).
    pub param: Var,
    /// How many arguments the closure had already been applied to.
    pub applied_before: usize,
}

/// One event of the straightline trace, in execution order.
#[derive(Clone, Debug)]
pub enum Event {
    /// An integer parameter binding (a cut point with a template).
    Bind {
        /// Which activation (index into [`Trace::activations`]).
        activation: usize,
        /// The parameter's index within the definition's parameter list.
        index: usize,
        /// The original parameter variable of the source definition.
        param: Var,
        /// The fresh symbol for this binding.
        sym: Var,
        /// `sym = ⟨argument expression⟩`, absent for `main`'s unknowns.
        def_eq: Option<Formula>,
        /// Symbols of this activation's earlier integer parameters — the
        /// template's allowed dependencies.
        deps: Vec<Var>,
    },
    /// A `rand_int` binding (a cut point keyed by the source variable).
    Rand {
        /// Which activation.
        activation: usize,
        /// The source `let`-variable of the site.
        orig: Var,
        /// The fresh symbol.
        sym: Var,
        /// Allowed dependencies (the activation's integer parameters).
        deps: Vec<Var>,
    },
    /// A branch or assume condition.
    Cond(Formula),
}

impl Event {
    /// The raw formula this event contributes to the path condition.
    pub fn formula(&self) -> Formula {
        match self {
            Event::Bind { def_eq, .. } => def_eq.clone().unwrap_or(Formula::True),
            Event::Rand { .. } => Formula::True,
            Event::Cond(f) => f.clone(),
        }
    }
}

/// One activation — the paper's function copy `f⁽ʲ⁾`.
#[derive(Clone, Debug)]
pub struct Activation {
    /// The original function.
    pub def: FunName,
    /// The higher-order origins of the closure that was called (empty when
    /// the function was called by name).
    pub origins: Vec<Origin>,
}

/// How the trace ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceEnd {
    /// The path reaches `fail` — the interesting case.
    ReachedFail,
    /// The path ends without failing (the abstract path does not map to a
    /// failing source path — indicates an abstraction/label mismatch).
    Finished,
    /// The label script was exhausted mid-path.
    LabelsExhausted,
    /// The step budget ran out.
    OutOfFuel,
}

/// The straightline trace `SHP(D, σ)`.
#[derive(Clone, Debug)]
pub struct Trace {
    /// Activations in call order (`main` is index 0).
    pub activations: Vec<Activation>,
    /// All events in execution order.
    pub events: Vec<Event>,
    /// How execution ended.
    pub end: TraceEnd,
    /// `false` when a non-linear operation was over-approximated.
    pub exact: bool,
    /// Symbols of `main`'s unknown parameters, in order.
    pub unknowns: Vec<Var>,
}

impl Trace {
    /// The full path condition.
    pub fn path_condition(&self) -> Formula {
        Formula::and(self.events.iter().map(Event::formula))
    }

    /// Lemma 5.1, executable: every activation is entered exactly once and
    /// the trace is branch-free (conditions are `assume`s, not choices).
    pub fn is_straightline(&self) -> bool {
        // By construction each `Activation` is a distinct copy; this checks
        // the invariant that every Bind's activation index is valid and
        // binds are grouped contiguously per activation.
        let mut last_act = 0usize;
        for e in &self.events {
            if let Event::Bind { activation, .. } = e {
                if *activation < last_act {
                    return false;
                }
                last_act = *activation;
            }
        }
        true
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "straightline trace ({:?}):", self.end)?;
        for e in &self.events {
            match e {
                Event::Bind {
                    activation,
                    param,
                    sym,
                    def_eq,
                    ..
                } => {
                    let act = &self.activations[*activation].def;
                    match def_eq {
                        Some(eq) => writeln!(f, "  [{act}({activation})] bind {param}: {eq}")?,
                        None => writeln!(f, "  [{act}({activation})] bind {param}: {sym} free")?,
                    }
                }
                Event::Rand {
                    activation, sym, ..
                } => {
                    let act = &self.activations[*activation].def;
                    writeln!(f, "  [{act}({activation})] rand {sym}")?;
                }
                Event::Cond(c) => writeln!(f, "  assume {c}")?,
            }
        }
        Ok(())
    }
}

/// An error during trace construction.
#[derive(Clone, Debug)]
pub enum TraceError {
    /// A resource budget ran out mid-trace (deadline, fuel, injected fault).
    Exhausted(BudgetError),
    /// The program violated an invariant trace construction relies on.
    Invalid(String),
}

impl TraceError {
    fn invalid(msg: impl Into<String>) -> TraceError {
        TraceError::Invalid(msg.into())
    }
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Exhausted(e) => write!(f, "trace budget exhausted: {e}"),
            TraceError::Invalid(msg) => write!(f, "trace error: {msg}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// Builds `SHP(D, σ)` for a CPS-normal kernel program along source labels.
pub fn build_trace(program: &Program, labels: &[Label], fuel: u64) -> Result<Trace, TraceError> {
    build_trace_budgeted(program, labels, fuel, Budget::unlimited())
}

/// [`build_trace`] with an explicit [`Budget`]: every execution step is a
/// `feas` checkpoint, so deadlines and injected faults land here.
pub fn build_trace_budgeted(
    program: &Program,
    labels: &[Label],
    fuel: u64,
    budget: &Budget,
) -> Result<Trace, TraceError> {
    let mut tb = TraceBuilder {
        program,
        labels,
        pos: 0,
        fuel,
        budget,
        counter: 0,
        events: Vec::new(),
        activations: Vec::new(),
        exact: true,
        canon: BTreeMap::new(),
    };
    let main = program.main_def();
    tb.activations.push(Activation {
        def: main.name.clone(),
        origins: Vec::new(),
    });
    let mut env: BTreeMap<Var, SymVal> = BTreeMap::new();
    let mut unknowns = Vec::new();
    let mut deps: Vec<Var> = Vec::new();
    for (x, t) in &main.params {
        if *t != homc_lang::types::SimpleTy::Int {
            return Err(TraceError::invalid(format!(
                "main parameter {x} is not an integer"
            )));
        }
        let s = tb.fresh(x.name());
        unknowns.push(s.clone());
        tb.events.push(Event::Bind {
            activation: 0,
            index: deps.len(),
            param: x.clone(),
            sym: s.clone(),
            def_eq: None,
            deps: deps.clone(),
        });
        tb.canon.insert(s.clone(), LinExpr::var(s.clone()));
        deps.push(s.clone());
        env.insert(x.clone(), SymVal::Int(LinExpr::var(s)));
    }
    let end = tb.exec(env, &main.body, 0, deps)?;
    Ok(Trace {
        activations: tb.activations,
        events: tb.events,
        end,
        exact: tb.exact,
        unknowns,
    })
}

struct TraceBuilder<'a> {
    program: &'a Program,
    labels: &'a [Label],
    pos: usize,
    fuel: u64,
    budget: &'a Budget,
    counter: usize,
    events: Vec<Event>,
    activations: Vec<Activation>,
    exact: bool,
    /// Canonical linear form of each symbol over root symbols, used to
    /// recognize symbolically-opaque-but-constant operands (so that, e.g.,
    /// `r₁ * r₂` with both results provably 0 stays linear).
    canon: BTreeMap<Var, LinExpr>,
}

impl<'a> TraceBuilder<'a> {
    fn fresh(&mut self, base: &str) -> Var {
        self.counter += 1;
        Var::new(format!("{base}#{}", self.counter))
    }

    /// Resolves an expression through the canonical substitution.
    fn canon_of(&self, e: &LinExpr) -> LinExpr {
        let mut out = LinExpr::constant(e.constant_part());
        for (v, c) in e.iter() {
            match self.canon.get(v) {
                Some(ce) => out = out + ce.clone() * c,
                None => out = out + LinExpr::term(c, v.clone()),
            }
        }
        out
    }

    fn value(&self, env: &BTreeMap<Var, SymVal>, v: &Value) -> Result<SymVal, TraceError> {
        Ok(match v {
            Value::Const(Const::Unit) => SymVal::Unit,
            Value::Const(Const::Bool(b)) => {
                SymVal::Bool(if *b { Formula::True } else { Formula::False })
            }
            Value::Const(Const::Int(n)) => SymVal::Int(LinExpr::constant(*n as i128)),
            Value::Var(x) => env
                .get(x)
                .cloned()
                .ok_or_else(|| TraceError::invalid(format!("unbound variable {x}")))?,
            Value::Fun(f) => SymVal::Clo(f.clone(), Vec::new(), Vec::new()),
            Value::PApp(h, args) => {
                let head = self.value(env, h)?;
                let mut extra = Vec::new();
                for a in args {
                    extra.push(self.value(env, a)?);
                }
                match head {
                    SymVal::Clo(f, mut prev, origins) => {
                        prev.append(&mut extra);
                        SymVal::Clo(f, prev, origins)
                    }
                    other => {
                        return Err(TraceError::invalid(format!(
                            "applying non-closure {other:?}"
                        )))
                    }
                }
            }
        })
    }

    fn as_int(&mut self, v: SymVal) -> Result<LinExpr, TraceError> {
        match v {
            SymVal::Int(e) => Ok(e),
            other => Err(TraceError::invalid(format!("expected int, got {other:?}"))),
        }
    }

    fn as_bool(&mut self, v: SymVal) -> Result<Formula, TraceError> {
        match v {
            SymVal::Bool(f) => Ok(f),
            other => Err(TraceError::invalid(format!("expected bool, got {other:?}"))),
        }
    }

    fn op(&mut self, op: Op, args: Vec<SymVal>) -> Result<SymVal, TraceError> {
        let mut it = args.into_iter();
        Ok(match op {
            Op::Add | Op::Sub => {
                let a = self.as_int(it.next().expect("arity"))?;
                let b = self.as_int(it.next().expect("arity"))?;
                SymVal::Int(if op == Op::Add { a + b } else { a - b })
            }
            Op::Neg => SymVal::Int(-self.as_int(it.next().expect("arity"))?),
            Op::Mul => {
                let a = self.as_int(it.next().expect("arity"))?;
                let b = self.as_int(it.next().expect("arity"))?;
                let (ca, cb) = (self.canon_of(&a), self.canon_of(&b));
                if ca.is_constant() {
                    SymVal::Int(b * ca.constant_part())
                } else if cb.is_constant() {
                    SymVal::Int(a * cb.constant_part())
                } else {
                    self.exact = false;
                    SymVal::Int(LinExpr::var(self.fresh("mul")))
                }
            }
            Op::Div => {
                self.exact = false;
                SymVal::Int(LinExpr::var(self.fresh("div")))
            }
            Op::Lt | Op::Le | Op::Gt | Op::Ge | Op::EqInt => {
                let a = self.as_int(it.next().expect("arity"))?;
                let b = self.as_int(it.next().expect("arity"))?;
                SymVal::Bool(Formula::atom(match op {
                    Op::Lt => Atom::lt(a, b),
                    Op::Le => Atom::le(a, b),
                    Op::Gt => Atom::gt(a, b),
                    Op::Ge => Atom::ge(a, b),
                    Op::EqInt => Atom::eq(a, b),
                    _ => unreachable!(),
                }))
            }
            Op::EqBool => {
                let a = self.as_bool(it.next().expect("arity"))?;
                let b = self.as_bool(it.next().expect("arity"))?;
                SymVal::Bool(Formula::iff(a, b))
            }
            Op::And => {
                let a = self.as_bool(it.next().expect("arity"))?;
                let b = self.as_bool(it.next().expect("arity"))?;
                SymVal::Bool(Formula::and2(a, b))
            }
            Op::Or => {
                let a = self.as_bool(it.next().expect("arity"))?;
                let b = self.as_bool(it.next().expect("arity"))?;
                SymVal::Bool(Formula::or2(a, b))
            }
            Op::Not => SymVal::Bool(Formula::not(self.as_bool(it.next().expect("arity"))?)),
        })
    }

    /// Executes along the labels; `act` is the current activation index and
    /// `deps` its integer-parameter symbols so far.
    fn exec(
        &mut self,
        mut env: BTreeMap<Var, SymVal>,
        mut expr: &'a Expr,
        mut act: usize,
        mut deps: Vec<Var>,
    ) -> Result<TraceEnd, TraceError> {
        loop {
            self.budget
                .checkpoint(Phase::Feas)
                .map_err(TraceError::Exhausted)?;
            if self.fuel == 0 {
                return Ok(TraceEnd::OutOfFuel);
            }
            self.fuel -= 1;
            match expr {
                Expr::Value(_) | Expr::Op(_, _) | Expr::Rand => return Ok(TraceEnd::Finished),
                Expr::Fail => return Ok(TraceEnd::ReachedFail),
                Expr::Assume(v, body) => {
                    let c = self.value(&env, v)?;
                    let f = self.as_bool(c)?;
                    self.events.push(Event::Cond(f));
                    expr = body;
                }
                Expr::Choice(l, r) => {
                    let Some(lab) = self.labels.get(self.pos) else {
                        return Ok(TraceEnd::LabelsExhausted);
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
                            let sv = self.value(&env, v)?;
                            env.insert(x.clone(), sv);
                        }
                        Expr::Op(op, args) => {
                            let mut vals = Vec::new();
                            for a in args {
                                vals.push(self.value(&env, a)?);
                            }
                            let sv = self.op(*op, vals)?;
                            env.insert(x.clone(), sv);
                        }
                        Expr::Rand => {
                            let s = self.fresh(x.name());
                            self.events.push(Event::Rand {
                                activation: act,
                                orig: x.clone(),
                                sym: s.clone(),
                                deps: deps.clone(),
                            });
                            self.canon.insert(s.clone(), LinExpr::var(s.clone()));
                            env.insert(x.clone(), SymVal::Int(LinExpr::var(s)));
                        }
                        other => {
                            return Err(TraceError::invalid(format!(
                                "non-trivial let rhs in CPS-normal program: {other}"
                            )))
                        }
                    }
                    expr = body;
                }
                Expr::Call(h, args) => {
                    let head = self.value(&env, h)?;
                    let mut extra = Vec::new();
                    for a in args {
                        extra.push(self.value(&env, a)?);
                    }
                    let SymVal::Clo(fname, mut full, call_origins) = head else {
                        return Err(TraceError::invalid("calling a non-closure"));
                    };
                    full.append(&mut extra);
                    let def = self.program.def(&fname).ok_or_else(|| {
                        TraceError::invalid(format!("undefined function {fname}"))
                    })?;
                    // New activation: the paper's next function copy.
                    self.activations.push(Activation {
                        def: fname.clone(),
                        origins: call_origins,
                    });
                    act = self.activations.len() - 1;
                    deps = Vec::new();
                    let mut new_env = BTreeMap::new();
                    for (index, ((x, t), v)) in def.params.iter().zip(full).enumerate() {
                        if *t == homc_lang::types::SimpleTy::Int {
                            let e = self.as_int(v)?;
                            let s = self.fresh(x.name());
                            self.events.push(Event::Bind {
                                activation: act,
                                index,
                                param: x.clone(),
                                sym: s.clone(),
                                def_eq: Some(Formula::atom(Atom::eq(
                                    LinExpr::var(s.clone()),
                                    e.clone(),
                                ))),
                                deps: deps.clone(),
                            });
                            let ce = self.canon_of(&e);
                            self.canon.insert(s.clone(), ce);
                            deps.push(s.clone());
                            new_env.insert(x.clone(), SymVal::Int(LinExpr::var(s)));
                        } else {
                            // A closure bound to a parameter gains an origin.
                            let v = match v {
                                SymVal::Clo(g, partial, mut origins) => {
                                    let applied_before = partial.len();
                                    origins.push(Origin {
                                        activation: act,
                                        param: x.clone(),
                                        applied_before,
                                    });
                                    SymVal::Clo(g, partial, origins)
                                }
                                other => other,
                            };
                            new_env.insert(x.clone(), v);
                        }
                    }
                    env = new_env;
                    expr = &def.body;
                }
            }
        }
    }
}
