//! A small DPLL(T)-style satisfiability solver for [`Formula`]s.
//!
//! The search walks the negation normal form, branching on disjunctions and
//! accumulating an implicant (a set of arithmetic atoms plus boolean
//! literals). Arithmetic consistency is checked incrementally with the
//! rational relaxation (any rational-unsat prefix prunes the branch) and at
//! the leaves with full integer branch & bound. This is the role CVC3 plays in
//! the paper's implementation (§6).

use std::collections::BTreeMap;
use std::sync::Arc;

use homc_budget::{Budget, BudgetError, Phase};
use homc_metrics::{Counter, Hist, Metrics};
use homc_trace::{stable_hash64, Tracer};

use crate::cache::{CachedSat, QueryCache};
use crate::fm::{int_sat_cached, rational_sat_cached, ArithRefutation, IntResult, RatResult};
use crate::formula::Formula;
use crate::linexpr::{Atom, Var};
use crate::proof::{ProofNode, MAX_BRANCH_DEPTH};

/// A satisfying assignment. Variables absent from the maps are unconstrained
/// (any value works); the accessors default them to `0` / `false`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Model {
    ints: BTreeMap<Var, i128>,
    bools: BTreeMap<Var, bool>,
}

impl Model {
    /// Creates a model from explicit assignments.
    pub fn new(ints: BTreeMap<Var, i128>, bools: BTreeMap<Var, bool>) -> Model {
        Model { ints, bools }
    }

    /// The integer value of `v` (0 when unconstrained).
    pub fn int(&self, v: &Var) -> i128 {
        self.ints.get(v).copied().unwrap_or(0)
    }

    /// The boolean value of `v` (`false` when unconstrained).
    pub fn bool(&self, v: &Var) -> bool {
        self.bools.get(v).copied().unwrap_or(false)
    }

    /// Iterates the explicit integer assignments (sorted by variable).
    pub fn ints(&self) -> impl Iterator<Item = (&Var, i128)> {
        self.ints.iter().map(|(v, n)| (v, *n))
    }

    /// Iterates the explicit boolean assignments (sorted by variable).
    pub fn bools(&self) -> impl Iterator<Item = (&Var, bool)> {
        self.bools.iter().map(|(v, b)| (v, *b))
    }

    /// Evaluates a formula under this model (unbound variables default).
    pub fn eval(&self, f: &Formula) -> bool {
        f.eval(&|v| Some(self.int(v)), &|v| Some(self.bool(v)))
            .expect("defaulted evaluation is total")
    }
}

/// The outcome of a satisfiability check.
#[derive(Clone, Debug)]
pub enum SatResult {
    /// A model was found.
    Sat(Model),
    /// The formula is unsatisfiable.
    Unsat,
    /// The integer branch & bound limit was exhausted somewhere.
    Unknown,
    /// The shared [`Budget`] preempted the query (deadline, fuel, or an
    /// injected fault) before the solver could decide it.
    Exhausted(BudgetError),
}

/// Alias emphasizing that a solver call has four outcomes, not three: the
/// budget can preempt it.
pub type SolverOutcome = SatResult;

impl SatResult {
    /// `true` iff the result is `Sat`.
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }
}

/// The QF_LIA + booleans solver, with tunable search limits.
#[derive(Clone, Debug, Default)]
pub struct SmtSolver {
    limits: SolverLimits,
    budget: Option<Arc<Budget>>,
    cache: Option<Arc<QueryCache>>,
    tracer: Tracer,
    metrics: Metrics,
}

/// Tunable search limits of the solver.
#[derive(Clone, Copy, Debug)]
pub struct SolverLimits {
    /// Maximum branch & bound depth for integer reasoning.
    pub bb_depth: u32,
}

impl Default for SolverLimits {
    fn default() -> SolverLimits {
        SolverLimits { bb_depth: 48 }
    }
}

impl SmtSolver {
    /// Creates a solver with default limits and no budget.
    pub fn new() -> SmtSolver {
        SmtSolver::default()
    }

    /// Creates a solver that checkpoints the shared budget once per query
    /// ([`Phase::Smt`]); a failing checkpoint yields
    /// [`SatResult::Exhausted`] instead of running the query.
    pub fn with_budget(budget: Arc<Budget>) -> SmtSolver {
        SmtSolver {
            limits: SolverLimits::default(),
            budget: Some(budget),
            cache: None,
            tracer: Tracer::disabled(),
            metrics: Metrics::disabled(),
        }
    }

    /// The budget this solver checkpoints against, if any.
    pub fn budget(&self) -> Option<&Arc<Budget>> {
        self.budget.as_ref()
    }

    /// Attaches a shared [`QueryCache`]; subsequent [`check`](Self::check)
    /// calls (and everything built on them — `is_valid`, `entails`,
    /// `maybe_sat`) are memoized under the canonical form of the query.
    pub fn set_cache(&mut self, cache: Arc<QueryCache>) {
        self.cache = Some(cache);
    }

    /// Builder-style variant of [`set_cache`](Self::set_cache).
    pub fn with_cache(mut self, cache: Arc<QueryCache>) -> SmtSolver {
        self.cache = Some(cache);
        self
    }

    /// The query cache this solver consults, if any.
    pub fn cache(&self) -> Option<&Arc<QueryCache>> {
        self.cache.as_ref()
    }

    /// Attaches a trace sink; each *solved* query (a cache miss or an
    /// uncached check) emits one `smt` event with its stable key, size,
    /// result class, and solve time. Cache hits stay silent — they do no
    /// solving work, and their aggregate is visible in the per-iteration
    /// cache-delta fields.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Builder-style variant of [`set_tracer`](Self::set_tracer).
    pub fn with_tracer(mut self, tracer: Tracer) -> SmtSolver {
        self.tracer = tracer;
        self
    }

    /// Attaches a metrics registry; each *solved* query (the same population
    /// the tracer sees — cache misses and uncached checks) bumps
    /// [`Counter::SmtSolves`] and records its latency in
    /// [`Hist::SmtSolveUs`]. Metrics never write to the trace stream.
    pub fn set_metrics(&mut self, metrics: Metrics) {
        self.metrics = metrics;
    }

    /// Builder-style variant of [`set_metrics`](Self::set_metrics).
    pub fn with_metrics(mut self, metrics: Metrics) -> SmtSolver {
        self.metrics = metrics;
        self
    }

    /// The metrics registry this solver records into (possibly disabled);
    /// downstream phases that only receive the solver reuse this handle.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The branch & bound depth limit.
    pub fn bb_depth(&self) -> u32 {
        self.limits.bb_depth
    }

    /// Sets the branch & bound depth limit.
    pub fn set_bb_depth(&mut self, depth: u32) {
        self.limits.bb_depth = depth;
    }

    /// Checks satisfiability of `f` over the integers.
    ///
    /// The budget checkpoint always runs *before* any cache lookup, so
    /// injected `smt:n` faults fire at the same query index whether or not
    /// the answer is memoized — fault-injection schedules stay deterministic
    /// across cache states.
    pub fn check(&self, f: &Formula) -> SatResult {
        if let Some(budget) = &self.budget {
            if let Err(e) = budget.checkpoint(Phase::Smt) {
                return SatResult::Exhausted(e);
            }
        }
        let Some(cache) = &self.cache else {
            return self.solve_traced(f, None);
        };
        // Arm the checkpoint-before-lookup guard: the checkpoint above must
        // precede every check-table lookup (see `QueryCache` docs).
        if self.budget.is_some() {
            cache.note_smt_checkpoint();
        }
        // Keyed by canonical form so permuted/duplicated conjuncts collide;
        // the verdict class (Sat/Unsat/Unknown) is invariant under child
        // reordering, so solving the original formula and storing under the
        // canonical key is sound.
        let key = (f.canon(), self.limits.bb_depth);
        if let Some(hit) = cache.lookup_check(&key) {
            return match hit {
                CachedSat::Sat(m) => SatResult::Sat(m),
                CachedSat::Unsat => SatResult::Unsat,
                CachedSat::Unknown => SatResult::Unknown,
            };
        }
        let res = self.solve_traced(f, Some(&key.0));
        match &res {
            SatResult::Sat(m) => cache.store_check(key, CachedSat::Sat(m.clone())),
            SatResult::Unsat => cache.store_check(key, CachedSat::Unsat),
            SatResult::Unknown => cache.store_check(key, CachedSat::Unknown),
            // Preempted queries carry no semantic information; never cache.
            SatResult::Exhausted(_) => {}
        }
        res
    }

    /// [`solve`](Self::solve) plus the `smt` trace event. `canon` is the
    /// canonical form when the cached path already computed it; when tracing
    /// is disabled this is a plain `solve` call — no canonicalization, no
    /// formatting.
    fn solve_traced(&self, f: &Formula, canon: Option<&Formula>) -> SatResult {
        if !self.tracer.enabled() && !self.metrics.enabled() {
            return self.solve(f);
        }
        let started = std::time::Instant::now();
        let res = self.solve(f);
        self.metrics.incr(Counter::SmtSolves);
        self.metrics.observe_dur(Hist::SmtSolveUs, started);
        if !self.tracer.enabled() {
            return res;
        }
        let dur_us = self.tracer.dur_us(started);
        let computed;
        let canon = match canon {
            Some(c) => c,
            None => {
                computed = f.canon();
                &computed
            }
        };
        let rendered = canon.to_string();
        let result = match &res {
            SatResult::Sat(_) => "sat",
            SatResult::Unsat => "unsat",
            SatResult::Unknown => "unknown",
            // `solve` never preempts — exhaustion happens at the checkpoint
            // before it — but stay total.
            SatResult::Exhausted(_) => "unknown",
        };
        self.tracer.emit("smt", |e| {
            let mut q: String = rendered.chars().take(120).collect();
            if q.len() < rendered.len() {
                q.push('…');
            }
            e.str("key", &format!("{:016x}", stable_hash64(&rendered)));
            e.num("size", canon.size() as u64);
            e.str("result", result);
            e.num("dur_us", dur_us);
            e.str("q", &q);
        });
        res
    }

    /// The uncached solver core: NNF + implicant search.
    fn solve(&self, f: &Formula) -> SatResult {
        self.search_nnf(f, None).0
    }

    /// The search with proof recording on, for [`crate::prove_unsat`]: the
    /// refutation tree when `f` is unsatisfiable, `None` otherwise.
    pub(crate) fn refute(&self, f: &Formula) -> Option<Vec<ProofNode>> {
        match self.search_nnf(f, Some(Vec::new())) {
            (SatResult::Unsat, proof) => proof,
            _ => None,
        }
    }

    /// Runs the implicant search over `f.nnf()`. With `proof` set, the
    /// search records its refutation tree there and hands it back.
    fn search_nnf(
        &self,
        f: &Formula,
        proof: Option<Vec<ProofNode>>,
    ) -> (SatResult, Option<Vec<ProofNode>>) {
        let nnf = f.nnf();
        let mut search = Search {
            solver: self,
            atoms: Vec::new(),
            bools: BTreeMap::new(),
            checked: 0,
            unknown: false,
            depth: 0,
            proof,
        };
        let res = match search.run(&mut vec![&nnf]) {
            Some(m) => SatResult::Sat(m),
            None if search.unknown => SatResult::Unknown,
            None => SatResult::Unsat,
        };
        (res, search.proof)
    }

    /// `true` iff `f` holds for all integer/boolean assignments.
    ///
    /// Conservative: an `Unknown` refutation attempt reports "not valid".
    pub fn is_valid(&self, f: &Formula) -> bool {
        matches!(self.check(&Formula::not(f.clone())), SatResult::Unsat)
    }

    /// `true` iff `a → b` is valid. Conservative under `Unknown`.
    pub fn entails(&self, a: &Formula, b: &Formula) -> bool {
        self.is_valid(&Formula::implies(a.clone(), b.clone()))
    }

    /// `true` iff `f` is satisfiable; `Unknown` counts as satisfiable
    /// (the safe direction for feasibility checking).
    pub fn maybe_sat(&self, f: &Formula) -> bool {
        !matches!(self.check(f), SatResult::Unsat)
    }
}

/// One implicant search: the current partial implicant, and the refutation
/// tree when the search records one.
struct Search<'s> {
    solver: &'s SmtSolver,
    /// The implicant's arithmetic atoms, in the order the walk met them.
    atoms: Vec<Atom>,
    /// The implicant's boolean literals.
    bools: BTreeMap<Var, bool>,
    /// The length of the longest `atoms` prefix already proven rationally
    /// satisfiable. Every prefix of a satisfiable conjunction is
    /// satisfiable, so it only needs clamping down when atoms pop off.
    checked: usize,
    /// Some leaf ran out of branch & bound depth.
    unknown: bool,
    /// Branch nodes on the current path.
    depth: u32,
    /// The refutation tree in preorder, when recording.
    proof: Option<Vec<ProofNode>>,
}

impl Search<'_> {
    /// Depth-first implicant search. `goals` is a stack of NNF subformulas
    /// still to satisfy; `atoms`/`bools` is the current partial implicant.
    /// When recording, every `Or` the walk reaches and every completed
    /// implicant it refutes append one [`ProofNode`]; a `False` goal or a
    /// boolean conflict closes its path with none.
    ///
    /// Invariant: every call returns `goals`, `atoms` and `bools` exactly as
    /// it found them, so disjunction branches can backtrack freely.
    fn run(&mut self, goals: &mut Vec<&Formula>) -> Option<Model> {
        let Some(goal) = goals.pop() else {
            // Implicant complete: final integer check. Routed through the
            // shared rational-prefix table when a cache is attached — sibling
            // implicants of one query (and the enumeration queries of one
            // abstraction pass) differ in a few trailing atoms, so their
            // branch & bound relaxations mostly replay.
            let cache = self.solver.cache.as_deref();
            return match int_sat_cached(&self.atoms, self.solver.limits.bb_depth, cache) {
                IntResult::Sat(ints) => Some(Model::new(ints, self.bools.clone())),
                IntResult::Unsat(r) => {
                    self.record(ProofNode::Closed(r));
                    None
                }
                IntResult::Unknown => {
                    self.unknown = true;
                    None
                }
            };
        };
        let result = match goal {
            Formula::True => self.run(goals),
            Formula::False => None,
            Formula::Atom(a) => {
                self.atoms.push(a.clone());
                let r = self.run(goals);
                self.atoms.pop();
                self.checked = self.checked.min(self.atoms.len());
                r
            }
            Formula::BVar(v) => self.assign_bool(v, true, goals),
            Formula::Not(inner) => match inner.as_ref() {
                Formula::BVar(v) => self.assign_bool(v, false, goals),
                other => unreachable!("NNF invariant violated: Not({other:?})"),
            },
            Formula::And(fs) => {
                for f in fs.iter().rev() {
                    goals.push(f);
                }
                let r = self.run(goals);
                goals.truncate(goals.len() - fs.len());
                r
            }
            Formula::Or(fs) => {
                // Branch point: one rational consistency check of the
                // accumulated implicant prunes the whole subtree. Checking
                // here instead of after every atom push keeps long
                // conjunction prefixes linear (a path condition with
                // hundreds of definitional equalities used to pay a full
                // Fourier–Motzkin run per atom); rational unsat implies
                // integer unsat, so the prune never loses models, and any
                // branch it cuts would have died at its leaf check anyway.
                let pruned = if self.atoms.len() > self.checked {
                    match rational_sat_cached(&self.atoms, self.solver.cache.as_deref()) {
                        RatResult::Sat(_) => None,
                        RatResult::Unsat(cert) => Some(cert),
                    }
                } else {
                    None
                };
                if let Some(cert) = pruned {
                    self.record(ProofNode::Closed(ArithRefutation::Farkas(cert)));
                    None
                } else if self.proof.is_some() && self.depth == MAX_BRANCH_DEPTH {
                    // Deeper than `verify_unsat` follows: no proof.
                    self.unknown = true;
                    None
                } else {
                    self.checked = self.atoms.len();
                    self.record(ProofNode::Branch);
                    self.depth += 1;
                    let mut found = None;
                    for f in fs {
                        goals.push(f);
                        found = self.run(goals);
                        goals.pop();
                        self.checked = self.checked.min(self.atoms.len());
                        if found.is_some() {
                            break;
                        }
                    }
                    self.depth -= 1;
                    found
                }
            }
        };
        goals.push(goal);
        result
    }

    fn assign_bool(&mut self, v: &Var, val: bool, goals: &mut Vec<&Formula>) -> Option<Model> {
        match self.bools.get(v) {
            Some(&prev) if prev != val => None,
            Some(_) => self.run(goals),
            None => {
                self.bools.insert(v.clone(), val);
                let r = self.run(goals);
                self.bools.remove(v);
                r
            }
        }
    }

    /// Appends `node` to the refutation tree, when recording.
    fn record(&mut self, node: ProofNode) {
        if let Some(proof) = &mut self.proof {
            proof.push(node);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linexpr::LinExpr;

    fn x() -> LinExpr {
        LinExpr::var("x")
    }
    fn y() -> LinExpr {
        LinExpr::var("y")
    }
    fn solver() -> SmtSolver {
        SmtSolver::new()
    }

    #[test]
    fn sat_model_satisfies_formula() {
        // (x > 0 || b) && x + y = 10 && y > 8
        let f = Formula::and(vec![
            Formula::or2(
                Formula::atom(Atom::gt(x(), LinExpr::constant(0))),
                Formula::BVar(Var::new("b")),
            ),
            Formula::atom(Atom::eq(x() + y(), LinExpr::constant(10))),
            Formula::atom(Atom::gt(y(), LinExpr::constant(8))),
        ]);
        match solver().check(&f) {
            SatResult::Sat(m) => assert!(m.eval(&f)),
            other => panic!("expected Sat, got {other:?}"),
        }
    }

    #[test]
    fn paper_intro_refutation() {
        // n > 0 ∧ n + 1 <= 0 — the infeasible path condition from §1.
        let n = LinExpr::var("n");
        let f = Formula::and2(
            Formula::atom(Atom::gt(n.clone(), LinExpr::constant(0))),
            Formula::atom(Atom::le(n + LinExpr::constant(1), LinExpr::constant(0))),
        );
        assert!(matches!(solver().check(&f), SatResult::Unsat));
    }

    #[test]
    fn validity_of_abstraction_condition() {
        // ⊨ x = 0 → ¬(x = 0 ↔ x + 1 = 0) — the Example 4.1 side condition
        // P(y₁) ⇒ σ(φ₁) with P = (λν. ν >= 0) style checks reduce to this
        // shape; here a simpler instance: x >= 0 → x + 1 >= 1.
        let f = Formula::implies(
            Formula::atom(Atom::ge(x(), LinExpr::constant(0))),
            Formula::atom(Atom::ge(x() + LinExpr::constant(1), LinExpr::constant(1))),
        );
        assert!(solver().is_valid(&f));
    }

    #[test]
    fn invalid_implication_rejected() {
        let f = Formula::implies(
            Formula::atom(Atom::ge(x(), LinExpr::constant(0))),
            Formula::atom(Atom::gt(x(), LinExpr::constant(0))),
        );
        assert!(!solver().is_valid(&f));
    }

    #[test]
    fn boolean_conflict() {
        let b = || Formula::BVar(Var::new("b"));
        let f = Formula::and2(b(), Formula::not(b()));
        assert!(matches!(solver().check(&f), SatResult::Unsat));
    }

    #[test]
    fn disequality_splits() {
        // x != x is unsat; x != y is sat.
        let f = Formula::int_ne(x(), x());
        assert!(matches!(solver().check(&f), SatResult::Unsat));
        let g = Formula::int_ne(x(), y());
        assert!(solver().check(&g).is_sat());
    }

    #[test]
    fn entailment() {
        let s = solver();
        let a = Formula::atom(Atom::gt(x(), LinExpr::constant(5)));
        let b = Formula::atom(Atom::gt(x(), LinExpr::constant(0)));
        assert!(s.entails(&a, &b));
        assert!(!s.entails(&b, &a));
    }
}
