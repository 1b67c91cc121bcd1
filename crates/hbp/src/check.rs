//! Reachability model checking of higher-order boolean programs.
//!
//! This is the paper's "Step 2" engine (the role TRECS plays): deciding
//! whether `main ⇒* fail` for a program with finite base data but
//! higher-order recursion (Theorem 3.1). The algorithm is an intersection-
//! type *saturation*, in the style of HorSat, specialized to the complement
//! property "may reach `fail`":
//!
//! * A **typing** of a function `f x₁ … xₙ` is a vector of argument
//!   requirements — a concrete boolean tuple for each base parameter, a
//!   finite set of [`ArrowTy`]s for each function parameter — such that a
//!   call whose arguments meet the requirements *may* reach `fail`.
//! * Typings are derived bottom-up as a least fixpoint: each round searches
//!   every definition body for derivations of `fail`, consuming typings
//!   derived in earlier rounds at call sites, until nothing new appears.
//! * Guesses for function-parameter requirements are restricted to the
//!   closures computed by the [`crate::flow`] analysis (0CFA guidance), which
//!   keeps the search finite and focused without losing completeness.
//!
//! The fixpoint is finite because the type space is finite (tuples are
//! bounded, arrow types are built from the finite typing sets), so the
//! procedure is a decision procedure — the paper's Theorem 3.1 made
//! executable.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fmt;

use homc_budget::{Budget, BudgetError, LimitKind, Phase};
use homc_metrics::{Counter, Hist, Metrics};
use homc_smt::Var;
use homc_trace::Tracer;

use crate::ast::{BDef, BExpr, BProgram, BTy, BVal, FunName};
use crate::flow::{analyze, FlowResult};

/// A concrete boolean tuple, packed little-endian into a `u64`.
pub type Bits = u64;

/// A requirement on one argument position.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ArgReq {
    /// The base argument must be exactly this tuple.
    Base(Bits),
    /// The function argument must have every arrow type in the set.
    Fn(BTreeSet<ArrowTy>),
}

/// An arrow type over the *remaining* parameters of a (partially applied)
/// function: "applied to arguments meeting these requirements, the call may
/// reach `fail`".
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ArrowTy(pub Vec<ArgReq>);

/// A full typing of a definition (one requirement per parameter).
pub type Typing = Vec<ArgReq>;

/// The typing table (the saturation fixpoint).
#[derive(Clone, Debug, Default)]
pub struct Gamma {
    map: BTreeMap<FunName, BTreeSet<Typing>>,
}

impl Gamma {
    /// The typings derived for `f`.
    pub fn of(&self, f: &FunName) -> impl Iterator<Item = &Typing> {
        self.map.get(f).into_iter().flatten()
    }

    fn insert(&mut self, f: &FunName, t: Typing) -> bool {
        self.map.entry(f.clone()).or_default().insert(t)
    }

    /// All `(function, typing set)` entries, in name order (the evidence
    /// layer serializes the table through this).
    pub fn iter(&self) -> impl Iterator<Item = (&FunName, &BTreeSet<Typing>)> {
        self.map.iter()
    }

    /// Rebuilds a table from decoded entries (the evidence checker's seed).
    pub fn from_entries(entries: impl IntoIterator<Item = (FunName, BTreeSet<Typing>)>) -> Gamma {
        Gamma {
            map: entries
                .into_iter()
                .filter(|(_, ts)| !ts.is_empty())
                .collect(),
        }
    }

    /// Total number of typings (for statistics).
    pub fn len(&self) -> usize {
        self.map.values().map(BTreeSet::len).sum()
    }

    /// `true` when no typing has been derived.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Abstract runtime values used during typing derivations.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum AVal {
    /// A concrete boolean tuple.
    Base(Bits),
    /// A (possibly partial) closure.
    Clo(CloHead, Vec<AVal>),
}

/// The head of an abstract closure.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum CloHead {
    /// A top-level function.
    Def(FunName),
    /// A function parameter of the definition under analysis.
    Param(Var),
}

/// Requirements accumulated on the function parameters of the definition
/// under analysis.
pub type Reqs = BTreeMap<Var, BTreeSet<ArrowTy>>;

/// Errors from the model checker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckError {
    /// A base type wider than 64 booleans (cannot pack).
    TupleTooWide(usize),
    /// A resource limit was hit — either a [`CheckLimits`] bound or the
    /// shared [`Budget`] (deadline / fuel / injected fault).
    Budget(BudgetError),
    /// The program is not well-formed.
    IllFormed(String),
    /// The table types `main` as failing, yet the path search found no
    /// error path within its depth cap: the checker disagrees with itself,
    /// which is a bug, not an exhausted budget.
    NoErrorPath,
}

impl CheckError {
    /// Builds the structured budget error for a [`CheckLimits`] bound.
    fn limit(kind: LimitKind, detail: String) -> CheckError {
        CheckError::Budget(BudgetError::with_detail(Phase::Mc, kind, detail))
    }
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::TupleTooWide(n) => write!(f, "tuple of width {n} exceeds 64"),
            CheckError::Budget(e) => write!(f, "model-checking budget exhausted: {e}"),
            CheckError::IllFormed(s) => write!(f, "ill-formed boolean program: {s}"),
            CheckError::NoErrorPath => f.write_str("main may fail, but no error path was found"),
        }
    }
}

impl std::error::Error for CheckError {}

/// Resource limits for the checker.
#[derive(Clone, Copy, Debug)]
pub struct CheckLimits {
    /// Maximum number of base-tuple combinations enumerated per definition.
    pub max_base_combos: usize,
    /// Maximum number of typings in the table.
    pub max_typings: usize,
    /// Maximum derivation-search steps per body search.
    pub max_search_steps: usize,
}

impl Default for CheckLimits {
    fn default() -> CheckLimits {
        CheckLimits {
            max_base_combos: 1 << 18,
            max_typings: 800_000,
            max_search_steps: 16_000_000,
        }
    }
}

/// Statistics from a model-checking run.
#[derive(Clone, Copy, Debug, Default)]
pub struct CheckStats {
    /// Saturation rounds (worklist batches) until fixpoint.
    pub rounds: usize,
    /// Final number of typings.
    pub typings: usize,
    /// 0CFA flow facts.
    pub flow_facts: usize,
    /// Definitions re-processed by the worklist (one pop = one definition
    /// searched once).
    pub worklist_pops: usize,
    /// Definitions a round-based sweep would have re-searched but the
    /// dependency index proved unaffected.
    pub rescans_avoided: usize,
}

/// The saturation model checker. Create with [`Checker::new`], run with
/// [`Checker::saturate`], then query [`Checker::may_fail`] and extract
/// counterexample paths via [`crate::path::find_error_path`].
pub struct Checker<'p> {
    program: &'p BProgram,
    flows: FlowResult,
    /// Arity of every definition.
    arity: BTreeMap<FunName, usize>,
    gamma: Gamma,
    limits: CheckLimits,
    budget: &'p Budget,
    steps: usize,
    stats: CheckStats,
    /// Demand-driven base-value flows: the concrete tuples observed flowing
    /// into each definition's base parameters. Saturation only enumerates
    /// these (instead of all 2^width combinations), which is what keeps the
    /// checker polynomial on protocol-style programs.
    base_flow: BTreeMap<(FunName, usize), BTreeSet<Bits>>,
    /// Index of each definition in `program.defs` (worklist entries are
    /// definition indices so draining in sorted order is definition order).
    def_index: BTreeMap<FunName, usize>,
    /// Dynamic dependency index: `consumers[g]` is the set of definitions
    /// whose last search read `gamma.of(g)`. Registered at every read site
    /// — even when the typing set is still empty — so a later insertion for
    /// `g` knows exactly which definitions to re-search.
    consumers: BTreeMap<FunName, BTreeSet<usize>>,
    /// The definition currently being searched by `saturate` (dependency
    /// reads are attributed to it); `None` outside saturation.
    cur_def: Option<usize>,
    /// Definitions whose inputs changed since they were last searched.
    dirty: BTreeSet<usize>,
    /// Trace sink: one `mc_round` event per worklist batch (disabled by
    /// default — a no-op handle).
    tracer: Tracer,
    /// Metrics registry: worklist-depth histogram and round counter
    /// (disabled by default — a no-op handle).
    metrics: Metrics,
}

impl<'p> Checker<'p> {
    /// Prepares a checker (runs the flow analysis) with no shared budget.
    pub fn new(program: &'p BProgram, limits: CheckLimits) -> Result<Checker<'p>, CheckError> {
        Checker::with_budget(program, limits, Budget::unlimited())
    }

    /// Prepares a checker that also checkpoints a shared [`Budget`]
    /// ([`Phase::Mc`], once per search step) so a wall-clock deadline or an
    /// injected fault can preempt saturation mid-search.
    pub fn with_budget(
        program: &'p BProgram,
        limits: CheckLimits,
        budget: &'p Budget,
    ) -> Result<Checker<'p>, CheckError> {
        program.check().map_err(CheckError::IllFormed)?;
        for d in &program.defs {
            for (_, t) in &d.params {
                if let BTy::Tuple(n) = t {
                    if *n > 64 {
                        return Err(CheckError::TupleTooWide(*n));
                    }
                }
            }
        }
        let flows = analyze(program);
        let arity = program
            .defs
            .iter()
            .map(|d| (d.name.clone(), d.params.len()))
            .collect();
        let def_index = program
            .defs
            .iter()
            .enumerate()
            .map(|(i, d)| (d.name.clone(), i))
            .collect();
        let stats = CheckStats {
            flow_facts: flows.fact_count(),
            ..CheckStats::default()
        };
        Ok(Checker {
            program,
            flows,
            arity,
            gamma: Gamma::default(),
            limits,
            budget,
            steps: 0,
            stats,
            base_flow: BTreeMap::new(),
            def_index,
            consumers: BTreeMap::new(),
            cur_def: None,
            dirty: (0..program.defs.len()).collect(),
            tracer: Tracer::disabled(),
            metrics: Metrics::disabled(),
        })
    }

    /// Attaches a trace sink; [`Checker::saturate`] then emits one
    /// `mc_round` event per worklist batch (round number, table size, batch
    /// size). Purely observational — derivation order is unchanged.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Attaches a metrics registry; [`Checker::saturate`] then counts
    /// rounds ([`Counter::McRounds`]) and records each batch's size in
    /// [`Hist::WorklistDepth`]. Purely observational, like the tracer.
    pub fn set_metrics(&mut self, metrics: Metrics) {
        self.metrics = metrics;
    }

    /// The final typing table (meaningful after [`Checker::saturate`]).
    pub fn gamma(&self) -> &Gamma {
        &self.gamma
    }

    /// The program under analysis.
    pub fn program(&self) -> &BProgram {
        self.program
    }

    /// Statistics of the run so far.
    pub fn stats(&self) -> CheckStats {
        self.stats
    }

    /// Oracle entry point for counterexample extraction: all derivations of
    /// `fail` from `e` under a (concrete) environment, using the current
    /// table. Resets the per-search step budget.
    pub(crate) fn oracle_search(
        &mut self,
        e: &BExpr,
        env: &BTreeMap<Var, AVal>,
    ) -> Result<Vec<Reqs>, CheckError> {
        self.steps = 0;
        let d = self
            .program
            .def(&self.program.main)
            .expect("main exists")
            .clone();
        // One clone up front; the search itself mutates scoped bindings in
        // place and restores them on the way out.
        let mut env = env.clone();
        self.search_fail(&d, e, &mut env)
    }

    /// Runs the saturation to fixpoint, driven by a dependency-indexed
    /// worklist instead of whole-program rounds.
    ///
    /// Every definition starts dirty. Searching a definition registers, at
    /// each `gamma`/flow read site, a dependency edge from the function read
    /// to the definition under search (`note_dep`); a new typing or
    /// base-flow fact then dirties exactly the registered consumers. This is
    /// sound because read sets only grow along with the (monotone) fact
    /// tables: a search can only reach a *new* read site after one of its
    /// *previously read* facts changed, which re-dirties it first. Batches
    /// drain in definition order, so derivation order — and hence the final
    /// table — matches the old round-based sweep.
    pub fn saturate(&mut self) -> Result<(), CheckError> {
        let program = self.program;
        while !self.dirty.is_empty() {
            let batch: Vec<usize> = std::mem::take(&mut self.dirty).into_iter().collect();
            self.stats.rescans_avoided += program.defs.len() - batch.len();
            let batch_len = batch.len();
            for di in batch {
                let d = &program.defs[di];
                self.cur_def = Some(di);
                let searched = self.search_def(d);
                self.cur_def = None;
                searched?;
            }
            self.stats.rounds += 1;
            self.stats.typings = self.gamma.len();
            self.metrics.incr(Counter::McRounds);
            self.metrics.observe(Hist::WorklistDepth, batch_len as u64);
            self.tracer.emit("mc_round", |e| {
                e.num("round", self.stats.rounds as u64);
                e.num("typings", self.stats.typings as u64);
                e.num("dirty", batch_len as u64);
            });
        }
        Ok(())
    }

    /// Searches one definition under every live base-tuple combination,
    /// inserting the typings it derives.
    fn search_def(&mut self, d: &BDef) -> Result<(), CheckError> {
        self.stats.worklist_pops += 1;
        let combos = self.base_combos(d)?;
        for combo in combos {
            self.steps = 0;
            let mut env: BTreeMap<Var, AVal> = BTreeMap::new();
            let mut i = 0;
            for (x, t) in &d.params {
                match t {
                    BTy::Tuple(_) => {
                        env.insert(x.clone(), AVal::Base(combo[i]));
                        i += 1;
                    }
                    _ => {
                        env.insert(x.clone(), AVal::Clo(CloHead::Param(x.clone()), Vec::new()));
                    }
                }
            }
            let reqs_list = self.search_fail(d, &d.body, &mut env)?;
            for reqs in reqs_list {
                let mut typing = Vec::new();
                let mut i = 0;
                for (x, t) in &d.params {
                    match t {
                        BTy::Tuple(_) => {
                            typing.push(ArgReq::Base(combo[i]));
                            i += 1;
                        }
                        _ => typing.push(ArgReq::Fn(reqs.get(x).cloned().unwrap_or_default())),
                    }
                }
                if self.gamma.insert(&d.name, typing) {
                    self.mark_consumers(&d.name);
                }
                if self.gamma.len() > self.limits.max_typings {
                    return Err(CheckError::limit(
                        LimitKind::Size,
                        format!("more than {} typings", self.limits.max_typings),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Records that the definition currently being searched read the typing
    /// set of `g` (no-op outside saturation, e.g. during path extraction).
    fn note_dep(&mut self, g: &FunName) {
        if let Some(i) = self.cur_def {
            self.consumers.entry(g.clone()).or_default().insert(i);
        }
    }

    /// Dirties every registered consumer of `g`'s typing set.
    fn mark_consumers(&mut self, g: &FunName) {
        if let Some(cs) = self.consumers.get(g) {
            self.dirty.extend(cs.iter().copied());
        }
    }

    /// `true` iff `main ⇒* fail` (valid after saturation).
    pub fn may_fail(&self) -> bool {
        self.gamma.of(&self.program.main).any(|t| t.is_empty())
    }

    /// The demand-driven base-value flows (meaningful after
    /// [`Checker::saturate`]) — serialized into safety evidence alongside
    /// the typing table.
    pub fn base_flow(&self) -> &BTreeMap<(FunName, usize), BTreeSet<Bits>> {
        &self.base_flow
    }

    /// Replaces the empty initial state with a *claimed* invariant — a
    /// typing table and base-flow facts decoded from evidence — so
    /// [`Checker::check_closed`] can validate it without re-running
    /// saturation.
    pub fn seed_invariant(
        &mut self,
        gamma: Gamma,
        base_flow: BTreeMap<(FunName, usize), BTreeSet<Bits>>,
    ) {
        self.gamma = gamma;
        self.base_flow = base_flow;
        self.dirty.clear();
    }

    /// One derivation sweep over every definition against the seeded state.
    /// Returns `true` iff the sweep derived nothing new — the seeded
    /// `(gamma, base_flow)` pair is closed under the (monotone) derivation
    /// operator, hence a superset of the saturation fixpoint. Combined with
    /// [`Checker::may_fail`] being false this is a complete safety
    /// certificate for the program: verification by one bounded pass, no
    /// fixpoint search.
    pub fn check_closed(&mut self) -> Result<bool, CheckError> {
        let program = self.program;
        let before = (self.gamma.len(), self.flow_size());
        for d in &program.defs {
            self.search_def(d)?;
        }
        Ok((self.gamma.len(), self.flow_size()) == before)
    }

    /// Total number of base-flow facts.
    fn flow_size(&self) -> usize {
        self.base_flow.values().map(BTreeSet::len).sum()
    }

    /// Enumerates assignments of concrete tuples to the base parameters,
    /// restricted to the tuples observed flowing into each position (plus
    /// everything for width-0 positions, whose only tuple is empty).
    fn base_combos(&self, d: &BDef) -> Result<Vec<Vec<Bits>>, CheckError> {
        let mut per_pos: Vec<Vec<Bits>> = Vec::new();
        for (i, (_, t)) in d.params.iter().enumerate() {
            if let BTy::Tuple(n) = t {
                if *n == 0 {
                    per_pos.push(vec![0]);
                } else {
                    let seen: Vec<Bits> = self
                        .base_flow
                        .get(&(d.name.clone(), i))
                        .map(|s| s.iter().copied().collect())
                        .unwrap_or_default();
                    if seen.is_empty() {
                        // Nothing flows here yet: the definition is not
                        // (yet) reachable with concrete data.
                        return Ok(Vec::new());
                    }
                    per_pos.push(seen);
                }
            }
        }
        let total: usize = per_pos.iter().map(Vec::len).product();
        if total > self.limits.max_base_combos {
            return Err(CheckError::limit(
                LimitKind::Size,
                format!("{} base combinations for {}", total, d.name),
            ));
        }
        let mut out = vec![Vec::new()];
        for opts in per_pos {
            let mut next = Vec::with_capacity(out.len() * opts.len());
            for combo in &out {
                for b in &opts {
                    let mut c = combo.clone();
                    c.push(*b);
                    next.push(c);
                }
            }
            out = next;
        }
        Ok(out)
    }

    fn step(&mut self) -> Result<(), CheckError> {
        self.budget
            .checkpoint(Phase::Mc)
            .map_err(CheckError::Budget)?;
        self.steps += 1;
        if self.steps > self.limits.max_search_steps {
            return Err(CheckError::limit(
                LimitKind::Steps,
                format!("more than {} search steps", self.limits.max_search_steps),
            ));
        }
        Ok(())
    }

    /// Evaluates a syntactic value to an abstract value under `env`.
    pub(crate) fn eval_val(&self, env: &BTreeMap<Var, AVal>, v: &BVal) -> AVal {
        match v {
            BVal::Tuple(es) => {
                let proj = |x: &Var, i: usize| match env.get(x) {
                    Some(AVal::Base(b)) => (b >> i) & 1 == 1,
                    _ => panic!("projection from non-base {x}"),
                };
                let mut bits: Bits = 0;
                for (i, e) in es.iter().enumerate() {
                    if e.eval(&proj) {
                        bits |= 1 << i;
                    }
                }
                AVal::Base(bits)
            }
            BVal::Var(x) => env
                .get(x)
                .cloned()
                .unwrap_or_else(|| panic!("unbound variable {x}")),
            BVal::Fun(g) => AVal::Clo(CloHead::Def(g.clone()), Vec::new()),
            BVal::PApp(h, args) => {
                let head = self.eval_val(env, h);
                let extra: Vec<AVal> = args.iter().map(|a| self.eval_val(env, a)).collect();
                match head {
                    AVal::Clo(h, mut prev) => {
                        prev.extend(extra);
                        AVal::Clo(h, prev)
                    }
                    AVal::Base(_) => panic!("application of base value"),
                }
            }
        }
    }

    /// Enumerates the (deduplicated) values a call-free right-hand side may
    /// produce. Deduplication is what keeps nested `let`s of wide abstract
    /// tuples polynomial: a 2ᵏ-branch choice tree still denotes at most 2ʷ
    /// distinct tuples.
    pub(crate) fn rhs_values(
        &mut self,
        d: &BDef,
        e: &BExpr,
        env: &mut BTreeMap<Var, AVal>,
    ) -> Result<Vec<AVal>, CheckError> {
        let mut out = self.rhs_values_raw(d, e, env)?;
        out.sort();
        out.dedup();
        Ok(out)
    }

    fn rhs_values_raw(
        &mut self,
        d: &BDef,
        e: &BExpr,
        env: &mut BTreeMap<Var, AVal>,
    ) -> Result<Vec<AVal>, CheckError> {
        self.step()?;
        match e {
            BExpr::Value(v) => Ok(vec![self.eval_val(env, v)]),
            BExpr::Let(x, rhs, body) => {
                let mut out = Vec::new();
                for v in self.rhs_values(d, rhs, env)? {
                    let prev = env.insert(x.clone(), v);
                    let r = self.rhs_values(d, body, env);
                    restore(env, x, prev);
                    out.extend(r?);
                }
                Ok(out)
            }
            BExpr::SChoice(l, r) | BExpr::AChoice(l, r) => {
                let mut out = self.rhs_values_raw(d, l, env)?;
                out.extend(self.rhs_values_raw(d, r, env)?);
                Ok(out)
            }
            BExpr::Assume(c, e) => {
                let proj = |x: &Var, i: usize| match env.get(x) {
                    Some(AVal::Base(b)) => (b >> i) & 1 == 1,
                    _ => panic!("projection from non-base {x}"),
                };
                if c.eval(&proj) {
                    self.rhs_values_raw(d, e, env)
                } else {
                    Ok(Vec::new())
                }
            }
            BExpr::Call(_, _) | BExpr::Fail => Err(CheckError::IllFormed(
                "call or fail in a let right-hand side".into(),
            )),
        }
    }

    /// All requirement sets under which `e` may reach `fail`.
    ///
    /// Invariant: `env` is returned exactly as it was passed in — `let`
    /// bindings are inserted in place and undone afterwards, so binding is
    /// O(log |env|) instead of cloning the whole map per binder.
    fn search_fail(
        &mut self,
        d: &BDef,
        e: &BExpr,
        env: &mut BTreeMap<Var, AVal>,
    ) -> Result<Vec<Reqs>, CheckError> {
        self.step()?;
        match e {
            BExpr::Fail => Ok(vec![Reqs::new()]),
            BExpr::Value(_) => Ok(Vec::new()),
            BExpr::Assume(c, body) => {
                let proj = |x: &Var, i: usize| match env.get(x) {
                    Some(AVal::Base(b)) => (b >> i) & 1 == 1,
                    _ => panic!("projection from non-base {x}"),
                };
                if c.eval(&proj) {
                    self.search_fail(d, body, env)
                } else {
                    Ok(Vec::new())
                }
            }
            BExpr::SChoice(l, r) | BExpr::AChoice(l, r) => {
                let mut out = self.search_fail(d, l, env)?;
                out.extend(self.search_fail(d, r, env)?);
                dedup(&mut out);
                Ok(out)
            }
            BExpr::Let(x, rhs, body) => {
                let mut out = Vec::new();
                for v in self.rhs_values(d, rhs, env)? {
                    let prev = env.insert(x.clone(), v);
                    let r = self.search_fail(d, body, env);
                    restore(env, x, prev);
                    out.extend(r?);
                }
                dedup(&mut out);
                Ok(out)
            }
            BExpr::Call(h, args) => {
                let head = self.eval_val(env, h);
                let extra: Vec<AVal> = args.iter().map(|a| self.eval_val(env, a)).collect();
                let AVal::Clo(chead, mut full) = head else {
                    return Err(CheckError::IllFormed("call of base value".into()));
                };
                full.extend(extra);
                self.call_fail(d, &chead, &full)
            }
        }
    }

    /// Requirement sets under which calling `chead` on `full` args may fail.
    fn call_fail(
        &mut self,
        d: &BDef,
        chead: &CloHead,
        full: &[AVal],
    ) -> Result<Vec<Reqs>, CheckError> {
        self.step()?;
        let mut out = Vec::new();
        match chead {
            CloHead::Def(g) => {
                self.record_base_flow(g, 0, full);
                self.note_dep(g);
                let typings: Vec<Typing> = self.gamma.of(g).cloned().collect();
                for t in typings {
                    debug_assert_eq!(t.len(), full.len(), "arity mismatch calling {g}");
                    out.extend(self.match_args(d, &t, full)?);
                }
            }
            CloHead::Param(x) => {
                // The arguments flow into every definition this parameter
                // may be bound to.
                let targets: Vec<(FunName, usize)> = self.flows.of(&d.name, x).cloned().collect();
                for (g, j) in targets {
                    self.record_base_flow(&g, j, full);
                }
                for tau in self.candidates(d, x, full.len()) {
                    for mut reqs in self.match_args(d, &tau.0, full)? {
                        reqs.entry(x.clone()).or_default().insert(tau.clone());
                        out.push(reqs);
                    }
                }
            }
        }
        dedup(&mut out);
        Ok(out)
    }

    /// Records that concrete base tuples flow into `g`'s parameters
    /// starting at `offset`. A new fact re-enqueues `g` itself: its set of
    /// live base combinations just grew.
    fn record_base_flow(&mut self, g: &FunName, offset: usize, args: &[AVal]) {
        for (i, a) in args.iter().enumerate() {
            if let AVal::Base(b) = a {
                let set = self.base_flow.entry((g.clone(), offset + i)).or_default();
                if set.insert(*b) {
                    if let Some(&gi) = self.def_index.get(g) {
                        self.dirty.insert(gi);
                    }
                }
            }
        }
    }

    /// Flow-guided candidate arrow types for parameter `x`, at the given
    /// remaining arity.
    fn candidates(&mut self, d: &BDef, x: &Var, arity: usize) -> Vec<ArrowTy> {
        let sources: Vec<(FunName, usize)> = self.flows.of(&d.name, x).cloned().collect();
        let mut out = Vec::new();
        let mut seen: HashSet<ArrowTy> = HashSet::new();
        for (g, j) in sources {
            if self.arity.get(&g).copied().unwrap_or(0) < j {
                continue;
            }
            self.note_dep(&g);
            for t in self.gamma.of(&g) {
                if t.len() >= j && t.len() - j == arity {
                    let tau = ArrowTy(t[j..].to_vec());
                    if seen.insert(tau.clone()) {
                        out.push(tau);
                    }
                }
            }
        }
        out
    }

    /// All ways the actual arguments can meet the requirements.
    fn match_args(
        &mut self,
        d: &BDef,
        reqs: &[ArgReq],
        actual: &[AVal],
    ) -> Result<Vec<Reqs>, CheckError> {
        self.step()?;
        let mut ways: Vec<Reqs> = vec![Reqs::new()];
        for (r, a) in reqs.iter().zip(actual) {
            let ways_here: Vec<Reqs> = match (r, a) {
                (ArgReq::Base(b), AVal::Base(b2)) => {
                    if b == b2 {
                        vec![Reqs::new()]
                    } else {
                        Vec::new()
                    }
                }
                (ArgReq::Fn(sigma), a) => {
                    let mut acc: Vec<Reqs> = vec![Reqs::new()];
                    for tau in sigma {
                        let sub = self.has(d, a, tau)?;
                        acc = cross(&acc, &sub);
                        if acc.is_empty() {
                            break;
                        }
                    }
                    acc
                }
                (ArgReq::Base(_), AVal::Clo(_, _)) => Vec::new(),
            };
            ways = cross(&ways, &ways_here);
            if ways.is_empty() {
                return Ok(ways);
            }
        }
        Ok(ways)
    }

    /// All ways the abstract value `a` can be shown to have arrow type `tau`.
    fn has(&mut self, d: &BDef, a: &AVal, tau: &ArrowTy) -> Result<Vec<Reqs>, CheckError> {
        self.step()?;
        let mut out = Vec::new();
        match a {
            AVal::Base(_) => {}
            AVal::Clo(CloHead::Def(g), partial) => {
                self.record_base_flow(g, 0, partial);
                self.note_dep(g);
                let typings: Vec<Typing> = self.gamma.of(g).cloned().collect();
                for t in typings {
                    if t.len() != partial.len() + tau.0.len() {
                        continue;
                    }
                    let (first, rest) = t.split_at(partial.len());
                    if !weaker_reqs(rest, &tau.0) {
                        continue;
                    }
                    out.extend(self.match_args(d, first, partial)?);
                }
            }
            AVal::Clo(CloHead::Param(x), partial) => {
                for tau2 in self.candidates(d, x, partial.len() + tau.0.len()) {
                    let (first, rest) = tau2.0.split_at(partial.len());
                    if !weaker_reqs(rest, &tau.0) {
                        continue;
                    }
                    for mut reqs in self.match_args(d, first, partial)? {
                        reqs.entry(x.clone()).or_default().insert(tau2.clone());
                        out.push(reqs);
                    }
                }
            }
        }
        dedup(&mut out);
        Ok(out)
    }
}

/// `a` pointwise requires no more than `b`: base requirements must be equal,
/// function requirements of `a` must be a subset of `b`'s.
fn weaker_reqs(a: &[ArgReq], b: &[ArgReq]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (ArgReq::Base(p), ArgReq::Base(q)) => p == q,
            (ArgReq::Fn(s), ArgReq::Fn(t)) => s.is_subset(t),
            _ => false,
        })
}

/// Undoes a scoped `env.insert`: restores the shadowed binding or removes
/// the key if it was fresh.
fn restore(env: &mut BTreeMap<Var, AVal>, x: &Var, prev: Option<AVal>) {
    match prev {
        Some(p) => {
            env.insert(x.clone(), p);
        }
        None => {
            env.remove(x);
        }
    }
}

/// Cross product of requirement maps, merging by union. Hash-deduplicated:
/// requirement sets get large on higher-order examples and a `contains` scan
/// per product entry is O(n²).
fn cross(a: &[Reqs], b: &[Reqs]) -> Vec<Reqs> {
    let mut out = Vec::new();
    let mut seen: HashSet<Reqs> = HashSet::new();
    for x in a {
        for y in b {
            let mut m = x.clone();
            for (k, v) in y {
                m.entry(k.clone()).or_default().extend(v.iter().cloned());
            }
            if seen.insert(m.clone()) {
                out.push(m);
            }
        }
    }
    out
}

/// Order-preserving hashed dedup of requirement maps.
fn dedup(v: &mut Vec<Reqs>) {
    let mut seen: HashSet<Reqs> = HashSet::new();
    v.retain(|r| seen.insert(r.clone()));
}

/// Convenience wrapper: saturate and report whether `main` may fail.
pub fn model_check(
    program: &BProgram,
    limits: CheckLimits,
) -> Result<(bool, CheckStats), CheckError> {
    let mut c = Checker::new(program, limits)?;
    c.saturate()?;
    Ok((c.may_fail(), c.stats()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::BoolExpr;

    fn v(x: &str) -> Var {
        Var::new(x)
    }

    fn unit_fun() -> BTy {
        BTy::fun(BTy::unit(), BTy::unit())
    }

    fn check(p: &BProgram) -> bool {
        p.check().expect("well-formed");
        model_check(p, CheckLimits::default()).expect("in budget").0
    }

    #[test]
    fn trivially_failing() {
        let p = BProgram {
            defs: vec![BDef {
                name: "main".into(),
                params: vec![],
                body: BExpr::Fail,
            }],
            main: "main".into(),
        };
        assert!(check(&p));
    }

    #[test]
    fn trivially_safe() {
        let p = BProgram {
            defs: vec![BDef {
                name: "main".into(),
                params: vec![],
                body: BExpr::Value(BVal::unit()),
            }],
            main: "main".into(),
        };
        assert!(!check(&p));
    }

    #[test]
    fn assume_blocks_failure() {
        // main = let b = true ⊕ true in assume !b; fail   — b is always true.
        let p = BProgram {
            defs: vec![BDef {
                name: "main".into(),
                params: vec![],
                body: BExpr::let_(
                    v("b"),
                    BExpr::achoice(
                        BExpr::Value(BVal::Tuple(vec![BoolExpr::TRUE])),
                        BExpr::Value(BVal::Tuple(vec![BoolExpr::TRUE])),
                    ),
                    BExpr::assume(BoolExpr::not(BoolExpr::Proj(v("b"), 0)), BExpr::Fail),
                ),
            }],
            main: "main".into(),
        };
        assert!(!check(&p));
    }

    #[test]
    fn base_argument_tracking() {
        // h b = assume b.0; fail.   main = h <false> — safe; h <true> — fails.
        let h = |arg: bool| BProgram {
            defs: vec![
                BDef {
                    name: "h".into(),
                    params: vec![(v("b"), BTy::Tuple(1))],
                    body: BExpr::assume(BoolExpr::Proj(v("b"), 0), BExpr::Fail),
                },
                BDef {
                    name: "main".into(),
                    params: vec![],
                    body: BExpr::Call(
                        BVal::Fun("h".into()),
                        vec![BVal::Tuple(vec![BoolExpr::Const(arg)])],
                    ),
                },
            ],
            main: "main".into(),
        };
        assert!(!check(&h(false)));
        assert!(check(&h(true)));
    }

    #[test]
    fn higher_order_failure_via_parameter() {
        // f g = g <>.   bomb u = fail.   main = f bomb.
        let p = BProgram {
            defs: vec![
                BDef {
                    name: "f".into(),
                    params: vec![(v("g"), unit_fun())],
                    body: BExpr::Call(BVal::Var(v("g")), vec![BVal::unit()]),
                },
                BDef {
                    name: "bomb".into(),
                    params: vec![(v("u"), BTy::unit())],
                    body: BExpr::Fail,
                },
                BDef {
                    name: "main".into(),
                    params: vec![],
                    body: BExpr::Call(BVal::Fun("f".into()), vec![BVal::Fun("bomb".into())]),
                },
            ],
            main: "main".into(),
        };
        assert!(check(&p));
    }

    #[test]
    fn higher_order_safe_parameter() {
        // f g = g <>.   ok u = ().   main = f ok.
        let p = BProgram {
            defs: vec![
                BDef {
                    name: "f".into(),
                    params: vec![(v("g"), unit_fun())],
                    body: BExpr::Call(BVal::Var(v("g")), vec![BVal::unit()]),
                },
                BDef {
                    name: "ok".into(),
                    params: vec![(v("u"), BTy::unit())],
                    body: BExpr::Value(BVal::unit()),
                },
                BDef {
                    name: "main".into(),
                    params: vec![],
                    body: BExpr::Call(BVal::Fun("f".into()), vec![BVal::Fun("ok".into())]),
                },
            ],
            main: "main".into(),
        };
        assert!(!check(&p));
    }

    #[test]
    fn recursion_terminates_saturation() {
        // loop u = loop u — diverges without failing. Safe, and the checker
        // must terminate (unlike naive state exploration).
        let p = BProgram {
            defs: vec![
                BDef {
                    name: "loop".into(),
                    params: vec![(v("u"), BTy::unit())],
                    body: BExpr::Call(BVal::Fun("loop".into()), vec![BVal::Var(v("u"))]),
                },
                BDef {
                    name: "main".into(),
                    params: vec![],
                    body: BExpr::Call(BVal::Fun("loop".into()), vec![BVal::unit()]),
                },
            ],
            main: "main".into(),
        };
        assert!(!check(&p));
    }

    #[test]
    fn saturated_state_is_closed_and_tampering_is_caught() {
        // h b = assume b.0; fail.   main = h <false> — safe.
        let p = BProgram {
            defs: vec![
                BDef {
                    name: "h".into(),
                    params: vec![(v("b"), BTy::Tuple(1))],
                    body: BExpr::assume(BoolExpr::Proj(v("b"), 0), BExpr::Fail),
                },
                BDef {
                    name: "main".into(),
                    params: vec![],
                    body: BExpr::Call(
                        BVal::Fun("h".into()),
                        vec![BVal::Tuple(vec![BoolExpr::Const(false)])],
                    ),
                },
            ],
            main: "main".into(),
        };
        let mut c = Checker::new(&p, CheckLimits::default()).expect("well-formed");
        c.saturate().expect("in budget");
        assert!(!c.may_fail());
        let gamma = c.gamma().clone();
        let flow = c.base_flow().clone();

        // Re-seeding the fixpoint into a fresh checker must be closed.
        let mut fresh = Checker::new(&p, CheckLimits::default()).expect("well-formed");
        fresh.seed_invariant(gamma.clone(), flow.clone());
        assert!(fresh.check_closed().expect("in budget"));
        assert!(!fresh.may_fail());

        // Dropping a base-flow fact breaks closedness: the sweep rediscovers
        // it, so the state grows and the claim is rejected.
        let mut pruned = flow.clone();
        pruned.clear();
        let mut fresh = Checker::new(&p, CheckLimits::default()).expect("well-formed");
        fresh.seed_invariant(gamma, pruned);
        assert!(!fresh.check_closed().expect("in budget"));
    }

    #[test]
    fn projections_collects_per_def() {
        let p = BProgram {
            defs: vec![
                BDef {
                    name: "h".into(),
                    params: vec![(v("b"), BTy::Tuple(2))],
                    body: BExpr::assume(BoolExpr::Proj(v("b"), 1), BExpr::Fail),
                },
                BDef {
                    name: "main".into(),
                    params: vec![],
                    body: BExpr::Call(
                        BVal::Fun("h".into()),
                        vec![BVal::Tuple(vec![BoolExpr::TRUE, BoolExpr::FALSE])],
                    ),
                },
            ],
            main: "main".into(),
        };
        let proj = p.projections();
        assert!(proj[&FunName::from("h")].contains(&(v("b"), 1)));
        assert!(!proj[&FunName::from("h")].contains(&(v("b"), 0)));
        assert!(proj[&FunName::from("main")].is_empty());
    }

    #[test]
    fn unbounded_closure_nesting() {
        // Like the paper's `hrec`: f g u = (g u) ⊓ (f (f g) u): creates
        // unboundedly nested closures; a naive explicit-state search
        // diverges, saturation must still terminate. Safe variant: g = ok.
        let gk = BTy::fun(BTy::unit(), BTy::unit());
        let p = |leaf: &str| BProgram {
            defs: vec![
                BDef {
                    name: "f".into(),
                    params: vec![(v("g"), gk.clone()), (v("u"), BTy::unit())],
                    body: BExpr::schoice(
                        BExpr::Call(BVal::Var(v("g")), vec![BVal::Var(v("u"))]),
                        BExpr::Call(
                            BVal::Fun("f".into()),
                            vec![
                                BVal::PApp(
                                    Box::new(BVal::Fun("f".into())),
                                    vec![BVal::Var(v("g"))],
                                ),
                                BVal::Var(v("u")),
                            ],
                        ),
                    ),
                },
                BDef {
                    name: "ok".into(),
                    params: vec![(v("u2"), BTy::unit())],
                    body: BExpr::Value(BVal::unit()),
                },
                BDef {
                    name: "bomb".into(),
                    params: vec![(v("u3"), BTy::unit())],
                    body: BExpr::Fail,
                },
                BDef {
                    name: "main".into(),
                    params: vec![],
                    body: BExpr::Call(
                        BVal::Fun("f".into()),
                        vec![BVal::Fun(leaf.into()), BVal::unit()],
                    ),
                },
            ],
            main: "main".into(),
        };
        assert!(!check(&p("ok")));
        assert!(check(&p("bomb")));
    }
}
