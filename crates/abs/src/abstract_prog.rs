//! The predicate abstraction transformation (the paper's Figure 4).
//!
//! Input: a CPS-normal kernel program and an abstraction-type environment;
//! output: a higher-order boolean program simulating it (Theorem 4.3).
//!
//! The rules are implemented algorithmically:
//!
//! * **A-BASE / A-CADD / A-CREM** — `Abstractor::abstract_tuple` builds, in
//!   one pass, the guarded non-deterministic tuple the paper derives by
//!   adding predicates one at a time. For a target predicate list `P̃` over a
//!   value `ν` with exact knowledge `E` (e.g. `ν = x + 1`), it enumerates
//!   minterms `m` over the in-scope abstract components (the substitution
//!   `σ_Γ`) and, per minterm, the tuples `b̃` with `γ(m) ∧ E ∧ ⋀ Pᵢ(ν)^{bᵢ}`
//!   satisfiable — the correlation-aware abstraction the paper contrasts
//!   with the naive cartesian one. Minterm enumeration is bounded by
//!   [`AbsOptions::max_context_atoms`] (the optimization of Ball et al.
//!   adopted in §6, trading precision for speed, never soundness).
//! * **A-APP** — arguments are abstracted at the callee's (dependently
//!   instantiated) argument types; earlier arguments are substituted into
//!   later predicate positions.
//! * **A-CFUN** — when a function value's own abstraction type differs from
//!   the type expected by the context, a coercion wrapper definition is
//!   synthesized (fresh top-level function re-abstracting each argument).
//! * **A-ASM / A-PAR / A-FAIL** — direct.
//!
//! Exactness bookkeeping: `let`-bound integers carry no tuple components at
//! all; instead their defining equation (`x = e`) is recorded as a *fact*
//! used in every entailment query, which is how the paper's exact predicate
//! `λν.ν = e` (A-BASE) enters derivations here. Booleans always carry their
//! truth (one component), with their defining formula as a fact.
//!
//! Every entry point — [`abstract_program`], [`abstract_program_with_oracle`]
//! and [`crate::abstract_program_incremental`] — runs the same per-task loop
//! over a [`TransitionMemo`] (a fresh memo abstracts every task) and the same
//! true-first DFS for the feasible cubes. The DFS asks one query function,
//! which returns the solver's model whenever there is one; a model answers
//! every later prefix it satisfies without a query. An oracle gives no
//! models, so under [`abstract_program_with_oracle`] the DFS poses every
//! node.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use homc_budget::{Budget, BudgetError, Phase};
use homc_hbp::{BDef, BExpr, BProgram, BVal, BoolExpr};
use homc_lang::kernel::{Const, Def, Expr, FunName, Op, Program, Value};
use homc_lang::types::SimpleTy;
use homc_metrics::{Counter, Hist, Metrics};
use homc_smt::{Atom, Formula, LinExpr, Model, QueryCache, SatResult, SmtSolver, Var};
use homc_trace::Tracer;

use crate::incremental::{abstract_with_memo, TransitionMemo};
use crate::types::{AbsEnv, AbsTy};

/// Options for the abstraction.
#[derive(Clone, Debug)]
pub struct AbsOptions {
    /// Maximum number of abstract components enumerated per guard (the
    /// paper's bound on predicates considered when computing abstract
    /// transitions, §6).
    pub max_context_atoms: usize,
    /// Unused: abstraction runs on the calling thread. Kept, defaulting to
    /// `1`, only because the repository benchmark prints it; it goes with
    /// the benchmark's next change.
    pub threads: usize,
}

impl Default for AbsOptions {
    fn default() -> AbsOptions {
        AbsOptions {
            max_context_atoms: 7,
            threads: 1,
        }
    }
}

/// Statistics of an abstraction run.
#[derive(Clone, Copy, Debug, Default)]
pub struct AbsStats {
    /// Satisfiability queries issued while computing guards.
    pub sat_queries: usize,
    /// Coercion wrappers synthesized (A-CFUN applications).
    pub coercions: usize,
    /// Feasible implicants emitted by the cube enumeration.
    pub implicants: usize,
    /// Context components dropped by the `max_context_atoms` cap.
    pub ctx_truncated: usize,
    /// Prefix queries answered without the solver: model-coverage skips
    /// during enumeration, plus the recorded cost of memo-reused
    /// definitions (incremental runs only).
    pub queries_saved: usize,
    /// Definitions reused verbatim from the transition memo (incremental
    /// runs only; the first build of a definition counts neither way).
    pub defs_reused: usize,
    /// Definitions re-abstracted because their cone fingerprint changed
    /// (incremental runs only).
    pub defs_rebuilt: usize,
}

impl AbsStats {
    /// Folds another task's statistics into this one (the reuse/rebuild
    /// tallies are per-run, not per-task, and are managed by the caller).
    pub(crate) fn absorb(&mut self, o: &AbsStats) {
        self.sat_queries += o.sat_queries;
        self.coercions += o.coercions;
        self.implicants += o.implicants;
        self.ctx_truncated += o.ctx_truncated;
        self.queries_saved += o.queries_saved;
    }
}

/// Errors from the abstraction.
#[derive(Clone, Debug)]
pub enum AbsError {
    /// The shared [`Budget`] preempted the abstraction (deadline, fuel, or
    /// an injected fault).
    Exhausted(BudgetError),
    /// The program could not be abstracted (ill-formed or unsupported).
    Invalid(String),
}

impl AbsError {
    fn invalid(msg: impl Into<String>) -> AbsError {
        AbsError::Invalid(msg.into())
    }
}

impl fmt::Display for AbsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbsError::Exhausted(e) => write!(f, "abstraction budget exhausted: {e}"),
            AbsError::Invalid(s) => write!(f, "abstraction error: {s}"),
        }
    }
}

impl std::error::Error for AbsError {}

/// Abstracts a CPS-normal kernel program into a boolean program.
///
/// The result's `main` is a closed wrapper that generates abstract values
/// for the program's unknown integers (per their abstraction types) and
/// calls the abstracted entry point. This is
/// [`crate::abstract_program_incremental`] with a fresh memo, no budget, no
/// cache and no sinks.
pub fn abstract_program(
    program: &Program,
    env: &AbsEnv,
    opts: &AbsOptions,
) -> Result<(BProgram, AbsStats), AbsError> {
    crate::abstract_program_incremental(
        program,
        env,
        opts,
        None,
        None,
        &Tracer::disabled(),
        &Metrics::disabled(),
        &mut TransitionMemo::new(),
    )
}

/// Abstraction with every satisfiability query answered by `oracle` instead
/// of the solver — the evidence layer's record/replay hook.
///
/// An oracle answers yes or no and gives no model, so the cube enumeration
/// poses every DFS node to it; the cube set is the one the solver-backed
/// run computes. The resulting program is therefore the same function of
/// `(program, env, answers)` that the production pipeline computes — an
/// oracle answering from recorded UNSAT proofs reproduces (or
/// over-approximates) the run being checked.
pub fn abstract_program_with_oracle(
    program: &Program,
    env: &AbsEnv,
    opts: &AbsOptions,
    oracle: &SatOracleDyn<'_>,
) -> Result<(BProgram, AbsStats), AbsError> {
    let run = Run {
        program,
        env,
        opts,
        budget: None,
        cache: None,
        tracer: &Tracer::disabled(),
        metrics: &Metrics::disabled(),
        oracle: Some(oracle),
    };
    abstract_with_memo(&run, &mut TransitionMemo::new())
}

/// What one definition task produces: its coercion wrappers followed by the
/// abstracted definition itself, plus the queries it spent.
pub(crate) type DefResult = Result<(Vec<BDef>, AbsStats), AbsError>;

/// One abstraction run: the program and environment, and where its tasks
/// pose their queries (the solver, under `budget` and over `cache`, or
/// `oracle`) and report (`tracer`, `metrics`). Its tasks run through the
/// memo loop, [`abstract_with_memo`].
pub(crate) struct Run<'a> {
    pub(crate) program: &'a Program,
    pub(crate) env: &'a AbsEnv,
    pub(crate) opts: &'a AbsOptions,
    pub(crate) budget: Option<Arc<Budget>>,
    pub(crate) cache: Option<Arc<QueryCache>>,
    pub(crate) tracer: &'a Tracer,
    pub(crate) metrics: &'a Metrics,
    pub(crate) oracle: Option<&'a SatOracleDyn<'a>>,
}

impl Run<'_> {
    /// Runs one abstraction task: definition `ns` for `ns < defs.len()`,
    /// the closed entry wrapper for `ns == defs.len()`. `ns` doubles as the
    /// fresh-name namespace, so a task's output depends only on the
    /// (immutable) program, environment, and options — never on which other
    /// tasks ran. That is what lets the transition memo reuse a
    /// definition's output verbatim.
    ///
    /// A definition task emits one `abs_def` event (definition name, SMT
    /// queries spent, wall time), bumps [`Counter::AbsDefs`] and records its
    /// latency in [`Hist::AbsDefUs`]; its internal entailment queries reach
    /// the solver-level `smt` events and counters. The budget takes one
    /// [`Phase::Abs`] checkpoint per definition and per expression node, and
    /// every internal SMT query checkpoints `Phase::Smt`.
    pub(crate) fn task(&self, ns: usize) -> DefResult {
        let started = std::time::Instant::now();
        let mut a = Abstractor::new(self, ns);
        if let Some(d) = self.program.defs.get(ns) {
            let def = a.abstract_def(d)?;
            a.out.push(def);
            self.metrics.incr(Counter::AbsDefs);
            self.metrics.observe_dur(Hist::AbsDefUs, started);
            self.tracer.emit("abs_def", |e| {
                e.str("def", &d.name.0);
                e.num("queries", a.stats.sat_queries as u64);
                e.num("dur_us", self.tracer.dur_us(started));
            });
        } else {
            // The entry wrapper reads the final environment of `main`; it
            // gets its own namespace but no `abs_def` event (it is glue, not
            // a source definition).
            let entry = a.build_entry()?;
            a.out.push(entry);
        }
        Ok((a.out, a.stats))
    }
}

/// One in-scope abstract component: `(variable, component index, meaning)`.
type CtxPair = (Var, usize, Formula);

/// The per-definition abstraction context.
#[derive(Clone, Default)]
struct Ctx {
    /// Abstract components of in-scope base variables.
    pairs: Vec<CtxPair>,
    /// Defining equations of exact lets (and other invariants).
    facts: Vec<Formula>,
    /// Abstraction types of in-scope function-typed variables.
    fns: BTreeMap<Var, AbsTy>,
    /// Simple types of in-scope base variables (for operand classification).
    base_tys: BTreeMap<Var, SimpleTy>,
}

struct Abstractor<'a> {
    run: &'a Run<'a>,
    solver: SmtSolver,
    out: Vec<BDef>,
    /// Fresh-name namespace (the index of the definition task, or
    /// `defs.len()` for the entry wrapper). Namespacing makes generated
    /// names independent of the order tasks complete in.
    ns: usize,
    counter: usize,
    stats: AbsStats,
    /// Ensures the `abs_ctx_trunc` audit event fires at most once per task
    /// (the counter keeps exact totals; the event is a pointer, not a log).
    ctx_trunc_reported: bool,
    /// Models found by earlier enumeration queries in this task. A stored
    /// model that evaluates a later prefix query to `true` witnesses its
    /// satisfiability without a solver call; abstraction queries within one
    /// definition share most of their context, so hits are common.
    /// Per-task and consulted in deterministic order, so skips are
    /// identical across cache states. Bounded by [`MODEL_POOL_CAP`].
    model_pool: Vec<Model>,
}

/// The answer source injected by [`abstract_program_with_oracle`]: `Ok(false)`
/// means "proved unsatisfiable", `Ok(true)` means "satisfiable or unknown"
/// (the sound default), `Err` aborts the abstraction.
pub type SatOracleDyn<'o> = dyn Fn(&Formula) -> Result<bool, AbsError> + 'o;

/// Upper bound on [`Abstractor::model_pool`] (oldest evicted first). Kept
/// small: hits come almost entirely from the most recent models (adjacent
/// tuples share context), and every query — including the unsatisfiable
/// majority — pays one formula evaluation per pooled model before solving.
const MODEL_POOL_CAP: usize = 8;

impl<'a> Abstractor<'a> {
    /// Task `ns` of `run`. Its solver runs under the run's budget and over
    /// its cache, and reports to its tracer (each solved entailment becomes
    /// an `smt` event, beside the task's own `abs_ctx_trunc` audit event)
    /// and metrics registry.
    fn new(run: &'a Run<'a>, ns: usize) -> Abstractor<'a> {
        let mut solver = match &run.budget {
            Some(b) => SmtSolver::with_budget(b.clone()),
            None => SmtSolver::new(),
        };
        if let Some(c) = &run.cache {
            solver.set_cache(c.clone());
        }
        solver.set_tracer(run.tracer.clone());
        solver.set_metrics(run.metrics.clone());
        Abstractor {
            run,
            solver,
            out: Vec::new(),
            ns,
            counter: 0,
            stats: AbsStats::default(),
            ctx_trunc_reported: false,
            model_pool: Vec::new(),
        }
    }

    fn checkpoint(&self) -> Result<(), AbsError> {
        if let Some(b) = &self.run.budget {
            b.checkpoint(Phase::Abs).map_err(AbsError::Exhausted)?;
        }
        Ok(())
    }

    /// One satisfiability query, posed to the run's oracle when it has one
    /// (the evidence layer's record/replay hook; see
    /// [`abstract_program_with_oracle`]) and to the solver otherwise:
    /// `None` when `f` is unsatisfiable, otherwise `Some` of the solver's
    /// model when it gives one. An oracle never gives one, and an unknown
    /// answer counts as satisfiable without one. Budget exhaustion propagates instead of conservatively answering
    /// "maybe": a preempted abstraction must surface as `Unknown`, not
    /// silently coarsen.
    fn query_sat(&mut self, f: &Formula) -> Result<Option<Option<Model>>, AbsError> {
        self.stats.sat_queries += 1;
        if let Some(oracle) = self.run.oracle {
            return Ok(oracle(f)?.then_some(None));
        }
        match self.solver.check(f) {
            SatResult::Unsat => Ok(None),
            SatResult::Exhausted(e) => Err(AbsError::Exhausted(e)),
            SatResult::Sat(m) => Ok(Some(Some(m))),
            SatResult::Unknown => Ok(Some(None)),
        }
    }

    fn fresh_var(&mut self, base: &str) -> Var {
        self.counter += 1;
        Var::new(format!("{base}%{}.{}", self.ns, self.counter))
    }

    fn fresh_fun(&mut self, base: &str) -> FunName {
        self.counter += 1;
        FunName(format!("{base}%{}.{}", self.ns, self.counter))
    }

    fn scheme(&self, f: &FunName) -> Result<&Vec<(Var, AbsTy)>, AbsError> {
        self.run
            .env
            .schemes
            .get(f)
            .ok_or_else(|| AbsError::invalid(format!("no abstraction scheme for {f}")))
    }

    /// The abstraction type of `f` as a curried dependent type.
    fn scheme_ty(&self, f: &FunName) -> Result<AbsTy, AbsError> {
        let s = self.scheme(f)?;
        Ok(s.iter().rev().fold(AbsTy::unit(), |acc, (x, t)| {
            AbsTy::fun(x.clone(), t.clone(), acc)
        }))
    }

    fn abstract_def(&mut self, d: &Def) -> Result<BDef, AbsError> {
        self.checkpoint()?;
        let scheme = self.scheme(&d.name)?.clone();
        let mut ctx = Ctx::default();
        let mut params = Vec::new();
        for (x, ty) in &scheme {
            params.push((x.clone(), ty.translate()));
            match ty {
                AbsTy::Base(st, preds) => {
                    for (i, p) in preds.iter().enumerate() {
                        ctx.pairs
                            .push((x.clone(), i, p.apply(&LinExpr::var(x.clone()))));
                    }
                    ctx.base_tys.insert(x.clone(), st.clone());
                }
                t @ AbsTy::Fun(_, _, _) => {
                    ctx.fns.insert(x.clone(), t.clone());
                }
            }
        }
        let body = self.abstract_expr(&d.body, &mut ctx)?;
        Ok(BDef {
            name: d.name.clone(),
            params,
            body,
        })
    }

    /// The closed entry point: abstracts the unknowns of `main` per its
    /// scheme and calls it.
    fn build_entry(&mut self) -> Result<BDef, AbsError> {
        let main = self.run.program.main_def();
        let scheme = self.scheme(&main.name)?.clone();
        let mut ctx = Ctx::default();
        let mut body_binds: Vec<(Var, BExpr)> = Vec::new();
        let mut args = Vec::new();
        for (x, ty) in &scheme {
            let AbsTy::Base(SimpleTy::Int, preds) = ty else {
                return Err(AbsError::invalid(format!(
                    "unknown parameter {x} of main must be an integer"
                )));
            };
            // Generate an arbitrary-but-consistent abstract integer: the
            // unknown is the parameter name itself, symbolically.
            let targets: Vec<Formula> = preds
                .iter()
                .map(|p| p.apply(&LinExpr::var(x.clone())))
                .collect();
            let e = self.abstract_tuple(&targets, None, &ctx)?;
            body_binds.push((x.clone(), e));
            for (i, p) in preds.iter().enumerate() {
                ctx.pairs
                    .push((x.clone(), i, p.apply(&LinExpr::var(x.clone()))));
            }
            args.push(BVal::Var(x.clone()));
        }
        let mut body = BExpr::Call(BVal::Fun(main.name.clone()), args);
        for (x, rhs) in body_binds.into_iter().rev() {
            body = BExpr::let_(x, rhs, body);
        }
        Ok(BDef {
            name: FunName("__entry".to_string()),
            params: Vec::new(),
            body,
        })
    }

    fn abstract_expr(&mut self, e: &Expr, ctx: &mut Ctx) -> Result<BExpr, AbsError> {
        self.checkpoint()?;
        match e {
            Expr::Fail => Ok(BExpr::Fail),
            Expr::Value(_) => Ok(BExpr::Value(BVal::unit())),
            Expr::Choice(l, r) => Ok(BExpr::schoice(
                self.abstract_expr(l, ctx)?,
                self.abstract_expr(r, ctx)?,
            )),
            Expr::Assume(v, body) => {
                let guard = match v {
                    Value::Const(Const::Bool(b)) => BoolExpr::Const(*b),
                    Value::Var(x) => BoolExpr::Proj(x.clone(), 0),
                    other => {
                        return Err(AbsError::invalid(format!(
                            "assume on non-variable value {other}"
                        )))
                    }
                };
                let b = self.abstract_expr(body, ctx)?;
                Ok(BExpr::assume(guard, b))
            }
            Expr::Let(x, rhs, body) => {
                let (bound, mut ctx2) = self.abstract_binding(x, rhs, ctx)?;
                let b = self.abstract_expr(body, &mut ctx2)?;
                Ok(BExpr::let_(x.clone(), bound, b))
            }
            Expr::Call(head, args) => self.abstract_call(head, args, ctx),
            Expr::Op(_, _) | Expr::Rand => Err(AbsError::invalid(
                "naked op/rand in tail position (not CPS-normal)",
            )),
        }
    }

    /// Abstracts a let binding, returning the bound expression and the
    /// extended context.
    fn abstract_binding(
        &mut self,
        x: &Var,
        rhs: &Expr,
        ctx: &Ctx,
    ) -> Result<(BExpr, Ctx), AbsError> {
        let mut ctx2 = ctx.clone();
        match rhs {
            Expr::Rand => {
                let preds = self.run.env.rand_sites.get(x).cloned().unwrap_or_default();
                let targets: Vec<Formula> = preds
                    .iter()
                    .map(|p| p.apply(&LinExpr::var(x.clone())))
                    .collect();
                let e = self.abstract_tuple(&targets, None, ctx)?;
                for (i, p) in preds.iter().enumerate() {
                    ctx2.pairs
                        .push((x.clone(), i, p.apply(&LinExpr::var(x.clone()))));
                }
                ctx2.base_tys.insert(x.clone(), SimpleTy::Int);
                Ok((e, ctx2))
            }
            Expr::Value(v) => match self.classify(v, ctx)? {
                Classified::Int(le) => {
                    ctx2.facts
                        .push(Formula::atom(Atom::eq(LinExpr::var(x.clone()), le)));
                    ctx2.base_tys.insert(x.clone(), SimpleTy::Int);
                    Ok((BExpr::Value(BVal::Tuple(Vec::new())), ctx2))
                }
                Classified::Bool(meaning, runtime) => {
                    ctx2.facts
                        .push(Formula::iff(Formula::BVar(x.clone()), meaning));
                    ctx2.pairs.push((x.clone(), 0, Formula::BVar(x.clone())));
                    ctx2.base_tys.insert(x.clone(), SimpleTy::Bool);
                    Ok((BExpr::Value(BVal::Tuple(vec![runtime])), ctx2))
                }
                Classified::Unit => {
                    ctx2.base_tys.insert(x.clone(), SimpleTy::Unit);
                    Ok((BExpr::Value(BVal::unit()), ctx2))
                }
                Classified::FnVal => {
                    let (ty, bval, binds) = self.abstract_fn_natural(v, ctx)?;
                    ctx2.fns.insert(x.clone(), ty);
                    Ok((wrap_binds(binds, BExpr::Value(bval)), ctx2))
                }
            },
            Expr::Op(op, args) => self.abstract_op_binding(x, *op, args, ctx, ctx2),
            other => Err(AbsError::invalid(format!(
                "non-trivial let right-hand side (not CPS-normal): {other}"
            ))),
        }
    }

    fn abstract_op_binding(
        &mut self,
        x: &Var,
        op: Op,
        args: &[Value],
        ctx: &Ctx,
        mut ctx2: Ctx,
    ) -> Result<(BExpr, Ctx), AbsError> {
        match op {
            Op::Add | Op::Sub | Op::Neg | Op::Mul | Op::Div => {
                // Integer result: width 0; record the defining equation when
                // it is linear.
                if let Some(le) = self.linearize_op(op, args, ctx)? {
                    ctx2.facts
                        .push(Formula::atom(Atom::eq(LinExpr::var(x.clone()), le)));
                }
                ctx2.base_tys.insert(x.clone(), SimpleTy::Int);
                Ok((BExpr::Value(BVal::Tuple(Vec::new())), ctx2))
            }
            Op::And | Op::Or | Op::Not | Op::EqBool => {
                // Boolean structure over booleans: the runtime truth is
                // directly computable from the operands' components.
                let operands: Vec<(Formula, BoolExpr)> = args
                    .iter()
                    .map(|a| self.bool_operand(a, ctx))
                    .collect::<Result<_, _>>()?;
                let (meaning, runtime) = match op {
                    Op::And => (
                        Formula::and(operands.iter().map(|(m, _)| m.clone())),
                        BoolExpr::and(operands.iter().map(|(_, r)| r.clone())),
                    ),
                    Op::Or => (
                        Formula::or(operands.iter().map(|(m, _)| m.clone())),
                        BoolExpr::or(operands.iter().map(|(_, r)| r.clone())),
                    ),
                    Op::Not => (
                        Formula::not(operands[0].0.clone()),
                        BoolExpr::not(operands[0].1.clone()),
                    ),
                    Op::EqBool => (
                        Formula::iff(operands[0].0.clone(), operands[1].0.clone()),
                        // b1 = b2  ≡  (b1 & b2) | (!b1 & !b2)
                        BoolExpr::or([
                            BoolExpr::and([operands[0].1.clone(), operands[1].1.clone()]),
                            BoolExpr::and([
                                BoolExpr::not(operands[0].1.clone()),
                                BoolExpr::not(operands[1].1.clone()),
                            ]),
                        ]),
                    ),
                    _ => unreachable!(),
                };
                ctx2.facts
                    .push(Formula::iff(Formula::BVar(x.clone()), meaning));
                ctx2.pairs.push((x.clone(), 0, Formula::BVar(x.clone())));
                ctx2.base_tys.insert(x.clone(), SimpleTy::Bool);
                Ok((BExpr::Value(BVal::Tuple(vec![runtime])), ctx2))
            }
            Op::Lt | Op::Le | Op::Gt | Op::Ge | Op::EqInt => {
                // A comparison: the truth must be *abstracted* from the
                // available components (this is where Example 4.1's
                // `if x then true else true ⊕ false` shapes arise).
                let a = self.int_operand(&args[0], ctx)?;
                let b = self.int_operand(&args[1], ctx)?;
                let meaning = match (a, b) {
                    (Some(a), Some(b)) => Some(Formula::atom(match op {
                        Op::Lt => Atom::lt(a, b),
                        Op::Le => Atom::le(a, b),
                        Op::Gt => Atom::gt(a, b),
                        Op::Ge => Atom::ge(a, b),
                        Op::EqInt => Atom::eq(a, b),
                        _ => unreachable!(),
                    })),
                    _ => None,
                };
                let nu = self.fresh_var("@b");
                let (expr, fact) = match meaning {
                    Some(m) => {
                        let exact = Formula::iff(Formula::BVar(nu.clone()), m.clone());
                        let e =
                            self.abstract_tuple(&[Formula::BVar(nu.clone())], Some(exact), ctx)?;
                        (e, Formula::iff(Formula::BVar(x.clone()), m))
                    }
                    None => (
                        // Non-linear comparison: unconstrained boolean.
                        BExpr::achoice(
                            BExpr::Value(BVal::Tuple(vec![BoolExpr::TRUE])),
                            BExpr::Value(BVal::Tuple(vec![BoolExpr::FALSE])),
                        ),
                        Formula::True,
                    ),
                };
                if fact != Formula::True {
                    ctx2.facts.push(fact);
                }
                ctx2.pairs.push((x.clone(), 0, Formula::BVar(x.clone())));
                ctx2.base_tys.insert(x.clone(), SimpleTy::Bool);
                Ok((expr, ctx2))
            }
        }
    }

    /// Abstracts a full (tail) application, per A-APP and A-CFUN.
    fn abstract_call(
        &mut self,
        head: &Value,
        args: &[Value],
        ctx: &Ctx,
    ) -> Result<BExpr, AbsError> {
        let (head_bval, mut remaining, mut binds) = self.resolve_callee(head, ctx)?;
        let mut arg_bvals = Vec::new();
        for v in args {
            if remaining.is_empty() {
                return Err(AbsError::invalid("over-application during abstraction"));
            }
            let (y, expected) = remaining.remove(0);
            let (bv, mut bs) = self.abstract_arg(v, &expected, ctx)?;
            binds.append(&mut bs);
            // Substitute the *source* argument into later dependent
            // positions (only integer dependencies are supported).
            if let Some(le) = self.int_operand(v, ctx)? {
                for (_, t) in &mut remaining {
                    *t = t.subst(&y, &le);
                }
            }
            arg_bvals.push(bv);
        }
        if !remaining.is_empty() {
            return Err(AbsError::invalid("under-application in tail call"));
        }
        Ok(wrap_binds(binds, BExpr::Call(head_bval, arg_bvals)))
    }

    /// Resolves a call head: its boolean-program value and the remaining
    /// (dependent) parameter types with partial arguments substituted.
    #[allow(clippy::type_complexity)]
    fn resolve_callee(
        &mut self,
        head: &Value,
        ctx: &Ctx,
    ) -> Result<(BVal, Vec<(Var, AbsTy)>, Vec<(Var, BExpr)>), AbsError> {
        match head {
            Value::Fun(g) => Ok((BVal::Fun(g.clone()), self.scheme(g)?.clone(), Vec::new())),
            Value::Var(x) => {
                let ty = ctx
                    .fns
                    .get(x)
                    .ok_or_else(|| {
                        AbsError::invalid(format!("calling unknown function variable {x}"))
                    })?
                    .clone();
                let (params, _) = ty.uncurry();
                Ok((
                    BVal::Var(x.clone()),
                    params
                        .into_iter()
                        .map(|(y, t)| (y.clone(), t.clone()))
                        .collect(),
                    Vec::new(),
                ))
            }
            Value::PApp(h, partial) => {
                let (hb, mut remaining, mut binds) = self.resolve_callee(h, ctx)?;
                let mut vals = Vec::new();
                for v in partial {
                    if remaining.is_empty() {
                        return Err(AbsError::invalid("over-applied partial application"));
                    }
                    let (y, expected) = remaining.remove(0);
                    let (bv, mut bs) = self.abstract_arg(v, &expected, ctx)?;
                    binds.append(&mut bs);
                    if let Some(le) = self.int_operand(v, ctx)? {
                        for (_, t) in &mut remaining {
                            *t = t.subst(&y, &le);
                        }
                    }
                    vals.push(bv);
                }
                Ok((hb.papp(vals), remaining, binds))
            }
            Value::Const(_) => Err(AbsError::invalid("calling a constant")),
        }
    }

    /// Abstracts one argument value at its expected abstraction type.
    fn abstract_arg(
        &mut self,
        v: &Value,
        expected: &AbsTy,
        ctx: &Ctx,
    ) -> Result<(BVal, Vec<(Var, BExpr)>), AbsError> {
        match expected {
            AbsTy::Base(SimpleTy::Unit, _) => Ok((BVal::unit(), Vec::new())),
            AbsTy::Base(SimpleTy::Bool, _) => {
                let (_, runtime) = self.bool_operand(v, ctx)?;
                Ok((BVal::Tuple(vec![runtime]), Vec::new()))
            }
            AbsTy::Base(SimpleTy::Int, preds) => {
                if preds.is_empty() {
                    return Ok((BVal::Tuple(Vec::new()), Vec::new()));
                }
                let nu = self.fresh_var("@nu");
                let exact = self
                    .int_operand(v, ctx)?
                    .map(|le| Formula::atom(Atom::eq(LinExpr::var(nu.clone()), le)));
                let targets: Vec<Formula> = preds
                    .iter()
                    .map(|p| p.apply(&LinExpr::var(nu.clone())))
                    .collect();
                let e = self.abstract_tuple(&targets, exact, ctx)?;
                // A deterministic single tuple can stay a value; otherwise
                // bind it.
                if let BExpr::Value(bv) = e {
                    Ok((bv, Vec::new()))
                } else {
                    let t = self.fresh_var("a");
                    Ok((BVal::Var(t.clone()), vec![(t, e)]))
                }
            }
            AbsTy::Base(SimpleTy::Fun(_, _), _) => Err(AbsError::invalid(
                "base abstraction type with function simple type",
            )),
            AbsTy::Fun(_, _, _) => {
                let (natural, bval, binds) = self.abstract_fn_natural(v, ctx)?;
                if natural.alpha_eq(expected) {
                    Ok((bval, binds))
                } else {
                    self.stats.coercions += 1;
                    let (w, captured) = self.coercion(&natural, expected, ctx)?;
                    let mut wargs = vec![bval];
                    wargs.extend(captured.into_iter().map(BVal::Var));
                    Ok((BVal::PApp(Box::new(BVal::Fun(w)), wargs), binds))
                }
            }
        }
    }

    /// Abstracts a function-typed value at its *natural* type (the type its
    /// own components dictate). Returns (natural type, value, bindings).
    #[allow(clippy::type_complexity)]
    fn abstract_fn_natural(
        &mut self,
        v: &Value,
        ctx: &Ctx,
    ) -> Result<(AbsTy, BVal, Vec<(Var, BExpr)>), AbsError> {
        match v {
            Value::Fun(g) => Ok((self.scheme_ty(g)?, BVal::Fun(g.clone()), Vec::new())),
            Value::Var(x) => {
                let ty = ctx
                    .fns
                    .get(x)
                    .ok_or_else(|| AbsError::invalid(format!("unknown function variable {x}")))?
                    .clone();
                Ok((ty, BVal::Var(x.clone()), Vec::new()))
            }
            Value::PApp(h, partial) => {
                let (hty, hval, mut binds) = self.abstract_fn_natural(h, ctx)?;
                let mut ty = hty;
                let mut vals = Vec::new();
                for a in partial {
                    let AbsTy::Fun(y, dom, cod) = ty else {
                        return Err(AbsError::invalid("over-applied partial application"));
                    };
                    let (bv, mut bs) = self.abstract_arg(a, &dom, ctx)?;
                    binds.append(&mut bs);
                    vals.push(bv);
                    ty = *cod;
                    if let Some(le) = self.int_operand(a, ctx)? {
                        ty = ty.subst(&y, &le);
                    }
                }
                Ok((ty, hval.papp(vals), binds))
            }
            Value::Const(_) => Err(AbsError::invalid("constant used as function")),
        }
    }

    /// Synthesizes an A-CFUN coercion wrapper turning a value of abstraction
    /// type `natural` into one of type `expected`.
    ///
    /// The wrapper is synthesized *at the call site*, under the caller's
    /// context: the exact facts in scope (`t = n - 1`, …) participate in the
    /// re-abstraction entailments, which is what lets dependent predicates
    /// like `ν ≥ t` convert into `ν ≥ n - 1` without information loss. Each
    /// argument position gets a shared symbolic value standing for the
    /// concrete datum, constrained by the expected components and re-
    /// abstracted at the natural ones.
    fn coercion(
        &mut self,
        natural: &AbsTy,
        expected: &AbsTy,
        ctx: &Ctx,
    ) -> Result<(FunName, Vec<Var>), AbsError> {
        let wname = self.fresh_fun("coerce");
        let inner = self.fresh_var("inner");
        let mut params = vec![(inner.clone(), natural.translate())];
        // Capture the caller's abstract components: every in-scope base
        // variable with runtime components becomes an extra parameter, so
        // the wrapper's guards may project them. The call site partially
        // applies the wrapper to exactly these variables.
        let mut captured: Vec<(Var, usize)> = Vec::new();
        for (v, i, _) in &ctx.pairs {
            match captured.iter_mut().find(|(w, _)| w == v) {
                Some((_, width)) => *width = (*width).max(i + 1),
                None => captured.push((v.clone(), i + 1)),
            }
        }
        for (v, width) in &captured {
            params.push((v.clone(), homc_hbp::BTy::Tuple(*width)));
        }
        let captured: Vec<Var> = captured.into_iter().map(|(v, _)| v).collect();
        let mut wctx = ctx.clone();
        wctx.fns.clear();
        let mut binds: Vec<(Var, BExpr)> = Vec::new();
        let mut call_args: Vec<BVal> = Vec::new();
        let mut nty = natural.clone();
        let mut ety = expected.clone();
        while let (AbsTy::Fun(nb, ndom, ncod), AbsTy::Fun(eb, edom, ecod)) = (&nty, &ety) {
            // One shared symbolic value for this position, plus the
            // wrapper's runtime parameter holding the expected-typed tuple.
            let sym = self.fresh_var("@y");
            let p = self.fresh_var("p");
            params.push((p.clone(), edom.translate()));
            match (ndom.as_ref(), edom.as_ref()) {
                (AbsTy::Base(SimpleTy::Int, npreds), AbsTy::Base(SimpleTy::Int, epreds)) => {
                    // Learn the expected components about the symbol…
                    for (i, q) in epreds.iter().enumerate() {
                        wctx.pairs
                            .push((p.clone(), i, q.apply(&LinExpr::var(sym.clone()))));
                    }
                    wctx.base_tys.insert(p.clone(), SimpleTy::Int);
                    // …and re-abstract at the natural predicates.
                    if npreds.is_empty() {
                        call_args.push(BVal::Tuple(Vec::new()));
                    } else {
                        let targets: Vec<Formula> = npreds
                            .iter()
                            .map(|q| q.apply(&LinExpr::var(sym.clone())))
                            .collect();
                        let e = self.abstract_tuple(&targets, None, &wctx)?;
                        if let BExpr::Value(bv) = e {
                            call_args.push(bv);
                        } else {
                            let t = self.fresh_var("c");
                            binds.push((t.clone(), e));
                            call_args.push(BVal::Var(t));
                        }
                    }
                }
                (AbsTy::Base(SimpleTy::Bool, _), AbsTy::Base(SimpleTy::Bool, _)) => {
                    wctx.pairs.push((p.clone(), 0, Formula::BVar(sym.clone())));
                    wctx.base_tys.insert(p.clone(), SimpleTy::Bool);
                    call_args.push(BVal::Tuple(vec![BoolExpr::Proj(p.clone(), 0)]));
                }
                (AbsTy::Base(SimpleTy::Unit, _), AbsTy::Base(SimpleTy::Unit, _)) => {
                    call_args.push(BVal::unit());
                }
                (AbsTy::Fun(_, _, _), AbsTy::Fun(_, _, _)) => {
                    // Contravariant: convert the expected-typed argument to
                    // the natural type the inner function wants.
                    if edom.alpha_eq(ndom) {
                        call_args.push(BVal::Var(p.clone()));
                    } else {
                        self.stats.coercions += 1;
                        let (w2, cap2) = self.coercion(edom, ndom, &wctx)?;
                        let mut wargs = vec![BVal::Var(p.clone())];
                        wargs.extend(cap2.into_iter().map(BVal::Var));
                        call_args.push(BVal::PApp(Box::new(BVal::Fun(w2)), wargs));
                    }
                    wctx.fns.insert(p.clone(), edom.as_ref().clone());
                }
                (n, e) => {
                    return Err(AbsError::invalid(format!(
                        "coercion between incompatible shapes {n} and {e}"
                    )))
                }
            }
            // Substitute the shared symbol into both dependent codomains.
            let sub = LinExpr::var(sym.clone());
            let (nb, eb) = (nb.clone(), eb.clone());
            nty = ncod.subst(&nb, &sub);
            ety = ecod.subst(&eb, &sub);
        }
        let body = wrap_binds(binds, BExpr::Call(BVal::Var(inner), call_args));
        self.out.push(BDef {
            name: wname.clone(),
            params,
            body,
        });
        Ok((wname, captured))
    }

    /// Classifies a kernel value for binding purposes.
    fn classify(&mut self, v: &Value, ctx: &Ctx) -> Result<Classified, AbsError> {
        match v {
            Value::Const(Const::Unit) => Ok(Classified::Unit),
            Value::Const(Const::Bool(b)) => Ok(Classified::Bool(
                if *b { Formula::True } else { Formula::False },
                BoolExpr::Const(*b),
            )),
            Value::Const(Const::Int(n)) => Ok(Classified::Int(LinExpr::constant(*n as i128))),
            Value::Var(x) => match ctx.base_tys.get(x) {
                Some(SimpleTy::Int) => Ok(Classified::Int(LinExpr::var(x.clone()))),
                Some(SimpleTy::Bool) => Ok(Classified::Bool(
                    Formula::BVar(x.clone()),
                    BoolExpr::Proj(x.clone(), 0),
                )),
                Some(SimpleTy::Unit) => Ok(Classified::Unit),
                Some(SimpleTy::Fun(_, _)) | None => {
                    if ctx.fns.contains_key(x) {
                        Ok(Classified::FnVal)
                    } else {
                        Err(AbsError::invalid(format!("unclassifiable variable {x}")))
                    }
                }
            },
            Value::Fun(_) | Value::PApp(_, _) => Ok(Classified::FnVal),
        }
    }

    /// An integer operand as a linear expression (`None` for non-linear or
    /// unknown operands — precision is lost, soundness is not).
    fn int_operand(&mut self, v: &Value, ctx: &Ctx) -> Result<Option<LinExpr>, AbsError> {
        match v {
            Value::Const(Const::Int(n)) => Ok(Some(LinExpr::constant(*n as i128))),
            Value::Var(x) if matches!(ctx.base_tys.get(x), Some(SimpleTy::Int)) => {
                Ok(Some(LinExpr::var(x.clone())))
            }
            _ => Ok(None),
        }
    }

    /// A boolean operand: its meaning formula and runtime component.
    fn bool_operand(&mut self, v: &Value, _ctx: &Ctx) -> Result<(Formula, BoolExpr), AbsError> {
        match v {
            Value::Const(Const::Bool(b)) => Ok((
                if *b { Formula::True } else { Formula::False },
                BoolExpr::Const(*b),
            )),
            Value::Var(x) => Ok((Formula::BVar(x.clone()), BoolExpr::Proj(x.clone(), 0))),
            other => Err(AbsError::invalid(format!(
                "unsupported boolean operand {other}"
            ))),
        }
    }

    /// Linearizes an integer operation when possible.
    fn linearize_op(
        &mut self,
        op: Op,
        args: &[Value],
        ctx: &Ctx,
    ) -> Result<Option<LinExpr>, AbsError> {
        let a = self.int_operand(&args[0], ctx)?;
        let b = args
            .get(1)
            .map(|v| self.int_operand(v, ctx))
            .transpose()?
            .flatten();
        Ok(match (op, a, b) {
            (Op::Add, Some(a), Some(b)) => Some(a + b),
            (Op::Sub, Some(a), Some(b)) => Some(a - b),
            (Op::Neg, Some(a), _) => Some(-a),
            (Op::Mul, Some(a), Some(b)) => {
                if a.is_constant() {
                    Some(b * a.constant_part())
                } else if b.is_constant() {
                    Some(a * b.constant_part())
                } else {
                    None
                }
            }
            _ => None,
        })
    }

    /// The A-BASE/A-CADD/A-CREM engine: builds the abstract value of a base
    /// entity described by `exact` at the target predicate instances
    /// `targets` (each a formula over a fresh symbolic value), under the
    /// abstract knowledge of `ctx`.
    fn abstract_tuple(
        &mut self,
        targets: &[Formula],
        exact: Option<Formula>,
        ctx: &Ctx,
    ) -> Result<BExpr, AbsError> {
        if targets.is_empty() {
            return Ok(BExpr::Value(BVal::Tuple(Vec::new())));
        }
        // Select context components relevant to the targets, newest first.
        let pairs = self.relevant_pairs(targets, &exact, ctx);
        let facts = Formula::and(ctx.facts.iter().cloned());
        let base = match &exact {
            Some(e) => Formula::and2(facts.clone(), e.clone()),
            None => facts,
        };

        // Enumerate the feasible cubes over (component meanings ++ target
        // predicates) in one unified true-first DFS; the prefix split below
        // regroups them into per-minterm guarded branches.
        let meanings: Vec<Formula> = pairs
            .iter()
            .map(|(_, _, m)| m.clone())
            .chain(targets.iter().cloned())
            .collect();
        let cubes = self.feasible_cubes(&base, &meanings)?;
        if cubes.is_empty() {
            // No consistent abstract state reaches this point: the paper's
            // A-FAIL-style filtering collapses this to a blocked branch.
            return Ok(BExpr::assume(
                BoolExpr::FALSE,
                BExpr::Value(BVal::Tuple(
                    targets.iter().map(|_| BoolExpr::FALSE).collect(),
                )),
            ));
        }

        // Cubes arrive in lexicographic true-first order, so all cubes of a
        // minterm are consecutive: split on the minterm prefix to rebuild
        // the guard / value-choice structure.
        let np = pairs.len();
        let mut branches: Vec<BExpr> = Vec::new();
        let mut i = 0;
        while i < cubes.len() {
            let start = i;
            while i < cubes.len() && cubes[i][..np] == cubes[start][..np] {
                i += 1;
            }
            let minterm = &cubes[start][..np];
            let guard = BoolExpr::and(minterm.iter().zip(&pairs).map(|(b, (x, j, _))| {
                let p = BoolExpr::Proj(x.clone(), *j);
                if *b {
                    p
                } else {
                    BoolExpr::not(p)
                }
            }));
            let mut vals: Vec<BExpr> = cubes[start..i]
                .iter()
                .map(|c| {
                    BExpr::Value(BVal::Tuple(
                        c[np..].iter().copied().map(BoolExpr::Const).collect(),
                    ))
                })
                .collect();
            let value = if vals.len() == 1 {
                vals.pop().expect("len checked")
            } else {
                BExpr::achoice_all(vals)
            };
            branches.push(if matches!(guard, BoolExpr::Const(true)) {
                value
            } else {
                BExpr::assume(guard, value)
            });
        }
        // A single unguarded deterministic value stays a plain value.
        if branches.len() == 1 {
            return Ok(branches.pop().expect("len checked"));
        }
        Ok(BExpr::achoice_all(branches))
    }

    /// Enumerates every full assignment over `meanings` whose prefixes are
    /// all satisfiable (or unknown) alongside `base`, in lexicographic
    /// true-first order.
    fn feasible_cubes(
        &mut self,
        base: &Formula,
        meanings: &[Formula],
    ) -> Result<Vec<Vec<bool>>, AbsError> {
        let mut out = Vec::new();
        self.enumerate(base, meanings, &mut Vec::new(), &mut Vec::new(), &mut out)?;
        self.stats.implicants += out.len();
        Ok(out)
    }

    /// The conjunction `base ∧ ℓ₀ ∧ … ∧ ℓ_{d-1}` where `ℓᵢ` is
    /// `meanings[i]` or its negation per `assigned[i]`.
    fn prefix_query(&self, base: &Formula, meanings: &[Formula], assigned: &[bool]) -> Formula {
        Formula::and(
            std::iter::once(base.clone()).chain(assigned.iter().zip(meanings).map(|(b, m)| {
                if *b {
                    m.clone()
                } else {
                    Formula::not(m.clone())
                }
            })),
        )
    }

    /// The true-first DFS over the literal sequence, pruning a node exactly
    /// when its prefix query is unsatisfiable. A satisfying model is
    /// evaluated over *all* literals and cached in `found`; any later node
    /// whose assigned prefix agrees with a cached model's evaluation vector
    /// is a genuine satisfiable node (the model witnesses `base` plus every
    /// assigned literal — `Model::eval` is total) and is descended without
    /// a query.
    ///
    /// Determinism argument: coverage only ever skips queries that would
    /// have answered SAT, and UNKNOWN nodes are never covered (no model
    /// exists to cover them), so they issue their query and descend either
    /// way. The cube set — and therefore the abstract program — is the one
    /// a DFS posing every node computes, whatever the query-cache warmth;
    /// with an oracle, which gives no models, the DFS does pose every node.
    fn enumerate(
        &mut self,
        base: &Formula,
        meanings: &[Formula],
        assigned: &mut Vec<bool>,
        found: &mut Vec<Vec<bool>>,
        out: &mut Vec<Vec<bool>>,
    ) -> Result<(), AbsError> {
        let d = assigned.len();
        if found.iter().any(|ev| ev[..d] == assigned[..]) {
            self.stats.queries_saved += 1;
        } else {
            let q = self.prefix_query(base, meanings, assigned);
            // A pooled model from an earlier query in this task that
            // satisfies `q` proves SAT outright — same effect as a solver
            // SAT, so the cube set cannot change (UNSAT prefixes can never
            // be witnessed, and UNKNOWN nodes descend either way).
            if let Some(m) = self.model_pool.iter().rev().find(|m| m.eval(&q)) {
                self.stats.queries_saved += 1;
                found.push(meanings.iter().map(|f| m.eval(f)).collect());
            } else {
                match self.query_sat(&q)? {
                    None => return Ok(()),
                    Some(Some(m)) => {
                        found.push(meanings.iter().map(|f| m.eval(f)).collect());
                        if self.model_pool.len() == MODEL_POOL_CAP {
                            self.model_pool.remove(0);
                        }
                        self.model_pool.push(m);
                    }
                    Some(None) => {}
                }
            }
        }
        if d == meanings.len() {
            out.push(assigned.clone());
            return Ok(());
        }
        for b in [true, false] {
            assigned.push(b);
            self.enumerate(base, meanings, assigned, found, out)?;
            assigned.pop();
        }
        Ok(())
    }

    /// Relevance-filtered context components, newest bindings first, capped
    /// at `max_context_atoms`.
    fn relevant_pairs(
        &mut self,
        targets: &[Formula],
        exact: &Option<Formula>,
        ctx: &Ctx,
    ) -> Vec<CtxPair> {
        use std::collections::BTreeSet;
        let mut relevant: BTreeSet<Var> = targets.iter().flat_map(|t| t.vars()).collect();
        if let Some(e) = exact {
            relevant.extend(e.vars());
        }
        // Close over facts and component meanings.
        loop {
            let mut grew = false;
            for f in &ctx.facts {
                let vs = f.vars();
                if vs.iter().any(|v| relevant.contains(v)) {
                    for v in vs {
                        grew |= relevant.insert(v);
                    }
                }
            }
            for (x, _, m) in &ctx.pairs {
                let vs = m.vars();
                if vs.contains(x) || vs.iter().any(|v| relevant.contains(v)) {
                    // Only propagate when the component is already relevant.
                    if relevant.contains(x) || vs.iter().any(|v| relevant.contains(v)) {
                        grew |= relevant.insert(x.clone());
                        for v in vs {
                            grew |= relevant.insert(v);
                        }
                    }
                }
            }
            if !grew {
                break;
            }
        }
        let mut out: Vec<CtxPair> = ctx
            .pairs
            .iter()
            .rev()
            .filter(|(x, _, m)| {
                relevant.contains(x) || m.vars().iter().any(|v| relevant.contains(v))
            })
            .cloned()
            .collect();
        // The cap trades precision for speed (never soundness) — but a
        // silent drop is unauditable, so account every dropped component
        // and flag the first occurrence per task in the trace.
        let cap = self.run.opts.max_context_atoms;
        if out.len() > cap {
            let dropped = out.len() - cap;
            out.truncate(cap);
            self.stats.ctx_truncated += dropped;
            if !self.ctx_trunc_reported {
                self.ctx_trunc_reported = true;
                let task = self.ns;
                self.run.tracer.emit("abs_ctx_trunc", |e| {
                    e.num("task", task as u64);
                    e.num("dropped", dropped as u64);
                    e.num("cap", cap as u64);
                });
            }
        }
        out
    }
}

/// Test-only entry into the feasible-cube enumeration: runs one
/// enumeration over `meanings` under `base`, asking `oracle` when given and
/// the solver otherwise, and returns the cube set plus the number of
/// queries posed. Used by the differential test suite to check that the
/// solver-backed DFS matches the DFS that poses every node; not part of the
/// public API.
#[doc(hidden)]
pub fn enumerate_cubes_for_tests(
    base: &Formula,
    meanings: &[Formula],
    oracle: Option<&SatOracleDyn<'_>>,
) -> Result<(Vec<Vec<bool>>, usize), AbsError> {
    let program = Program {
        defs: Vec::new(),
        main: FunName("main".to_string()),
    };
    let run = Run {
        program: &program,
        env: &AbsEnv::default(),
        opts: &AbsOptions::default(),
        budget: None,
        cache: None,
        tracer: &Tracer::disabled(),
        metrics: &Metrics::disabled(),
        oracle,
    };
    let mut a = Abstractor::new(&run, 0);
    let cubes = a.feasible_cubes(base, meanings)?;
    Ok((cubes, a.stats.sat_queries))
}

enum Classified {
    Int(LinExpr),
    Bool(Formula, BoolExpr),
    Unit,
    FnVal,
}

fn wrap_binds(binds: Vec<(Var, BExpr)>, tail: BExpr) -> BExpr {
    binds
        .into_iter()
        .rev()
        .fold(tail, |acc, (x, rhs)| BExpr::let_(x, rhs, acc))
}
