//! Feasibility checking and predicate discovery (the paper's §5.1–5.2).
//!
//! Given the straightline trace `SHP(D, σ)` of an abstract error path:
//!
//! 1. **Feasibility** (§5.1): the path condition is satisfiable iff the
//!    source program really fails along σ — a genuine counterexample, with
//!    the unknown-integer witness extracted from the model.
//! 2. **Predicate discovery** (§5.2.2): when infeasible, each cut point
//!    (integer parameter binding / `rand_int` site) gets a predicate by
//!    Craig interpolation. The path condition is sliced into independent
//!    components, and every cut of a refuting component is solved at once
//!    by sequence interpolation: each cut's predicate is a prefix sum of one
//!    shared Farkas refutation. The family telescopes (`I_k ∧ φ_{k+1} ⇒
//!    I_{k+1}`), so the solution chain is inductive, the property behind
//!    the paper's progress theorem (Thm 5.3). When the sequence engine
//!    declines (the case split is wider than its budget, or certificate
//!    weights overflow), the refinement learns only seeded predicates.
//! 3. **Refinement** (§5.2.3): solved predicates are rewritten from trace
//!    symbols to the source functions' parameter names and merged (`⊔`) into
//!    the abstraction-type environment.
//!
//! In addition — mirroring the heuristics the paper's §6 alludes to — the
//! refiner can *seed* cut points with atomic predicates harvested from the
//! branch conditions along the path ([`RefineOptions::seed_from_path`]);
//! the ablation bench measures its effect.

use std::collections::BTreeMap;

use homc_abs::{AbsEnv, AbsTy, Predicate};
use homc_budget::{Budget, BudgetError, Phase};
use homc_lang::kernel::{FunName, Program};
use homc_metrics::{Counter, Hist, Metrics};
use homc_smt::{
    interpolate_sequence, Formula, InterpError, InterpOptions, QueryCache, SatResult, SmtSolver,
    Var,
};
use homc_trace::Tracer;

use crate::shp::{Event, Trace};
use crate::slice;
use homc_smt::LinExpr;

/// Options for the refiner.
#[derive(Clone, Copy, Debug)]
pub struct RefineOptions {
    /// Also harvest atomic predicates from path conditions (on by default;
    /// disable for the ablation study).
    pub seed_from_path: bool,
    /// §5.3's relative-completeness device: additionally inject the
    /// `iteration`-th predicate of a fixed enumeration at every cut point.
    /// Off by default (the paper calls it impractical); exists so the
    /// theoretical guarantee is testable.
    pub enumerate_gen_p: bool,
    /// The CEGAR iteration counter used by `enumerate_gen_p`.
    pub iteration: usize,
}

impl Default for RefineOptions {
    fn default() -> RefineOptions {
        RefineOptions {
            seed_from_path: true,
            enumerate_gen_p: false,
            iteration: 0,
        }
    }
}

/// The §5.1 verdict on an error path.
#[derive(Clone, Debug)]
pub enum Feasibility {
    /// The source program fails along the path; the witness assigns the
    /// unknown integers of `main`.
    Feasible(Vec<i64>),
    /// The path is spurious.
    Infeasible,
    /// The solver could not decide (non-linear over-approximation or an
    /// internal solver limit).
    Unknown,
    /// The shared [`Budget`] preempted the feasibility check.
    Exhausted(BudgetError),
}

/// A refinement: per-function scheme updates plus per-`rand` site updates,
/// ready for [`AbsEnv::refine`].
#[derive(Clone, Debug, Default)]
pub struct Refinement {
    /// New predicates per function parameter.
    pub fun_updates: BTreeMap<FunName, Vec<(Var, AbsTy)>>,
    /// New predicates per `rand_int` site.
    pub rand_updates: BTreeMap<Var, Vec<Predicate>>,
    /// New predicates for argument positions *inside* higher-order parameter
    /// types (the paper's dependent SHP types, e.g. `ν > x` on the `y`
    /// position of `f : x:int → (y:int[…] → ⋆) → ⋆`).
    pub ho_updates: Vec<HoUpdate>,
    /// Number of predicates discovered by interpolation.
    pub interpolated: usize,
    /// Number of predicates seeded from path conditions.
    pub seeded: usize,
    /// Size (formula node count) of the largest interpolant solved at a cut
    /// point this refinement — the telemetry layer's proxy for interpolation
    /// difficulty.
    pub max_interp_size: usize,
    /// Cut points whose interpolant was trivial because cone-of-influence
    /// slicing proved no refuting component crosses them.
    pub cuts_sliced: usize,
    /// Cut interpolants derived from a shared Farkas certificate (sequence
    /// interpolation) instead of an independent per-cut refutation.
    pub cert_reuse_hits: usize,
    /// Where each installed predicate came from (one entry per install
    /// target), in discovery order — the raw material for `homc explain`.
    pub provenance: Vec<PredProvenance>,
}

/// How a predicate was discovered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PredSource {
    /// Craig interpolation at a cut point (§5.2.2).
    Interp,
    /// Harvested from a path condition ([`RefineOptions::seed_from_path`]).
    Seed,
    /// The §5.3 enumeration device ([`RefineOptions::enumerate_gen_p`]).
    GenP,
}

impl PredSource {
    /// The short name used in traces and `homc explain`.
    pub fn as_str(self) -> &'static str {
        match self {
            PredSource::Interp => "interp",
            PredSource::Seed => "seed",
            PredSource::GenP => "gen_p",
        }
    }
}

/// The origin of one installed predicate: which binding it landed on, the
/// trace cut it was solved at, and how it was discovered. The verifier stamps
/// these with the CEGAR iteration as refinements are applied.
#[derive(Clone, Debug)]
pub struct PredProvenance {
    /// The binding the predicate was installed on, in the notation of the
    /// verifier's `preds_by_binding` report: `f:x` for a scheme parameter,
    /// `f:g@k` for position `k` of higher-order parameter `g`, and
    /// `rand:site` for a `rand_int` site.
    pub target: String,
    /// The trace cut index the predicate was solved at.
    pub cut: usize,
    /// How the predicate was discovered.
    pub source: PredSource,
    /// The predicate rendered over the target's names.
    pub pred: String,
}

/// A predicate for an argument position of a function-typed parameter.
///
/// Dependencies in the predicate body are either enclosing-scheme parameter
/// names (visible per Figure 3) or placeholders `@chain{q}` naming the
/// `q`-th binder of the parameter's own arrow chain, resolved when the
/// update is applied to a concrete [`AbsEnv`].
#[derive(Clone, Debug)]
pub struct HoUpdate {
    /// The function whose scheme is updated.
    pub def: FunName,
    /// The function-typed parameter within that scheme.
    pub param: Var,
    /// Which argument position of the parameter's arrow chain.
    pub chain_pos: usize,
    /// The predicate to merge in.
    pub pred: Predicate,
}

impl Refinement {
    /// `true` when no new predicate was found (CEGAR cannot make progress).
    pub fn is_empty(&self) -> bool {
        self.interpolated + self.seeded == 0 && self.ho_updates.is_empty()
    }
}

/// An error during refinement.
#[derive(Clone, Debug)]
pub enum RefineError {
    /// A resource budget ran out mid-refinement (deadline, fuel, injected
    /// fault, or an interpolation query preempted by the shared budget).
    Exhausted(BudgetError),
    /// The trace or program violated an invariant refinement relies on.
    Invalid(String),
}

impl std::fmt::Display for RefineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RefineError::Exhausted(e) => write!(f, "refinement budget exhausted: {e}"),
            RefineError::Invalid(msg) => write!(f, "refinement error: {msg}"),
        }
    }
}

impl std::error::Error for RefineError {}

/// Checks feasibility of the trace's path condition (§5.1).
pub fn check_feasibility(trace: &Trace, solver: &SmtSolver) -> Feasibility {
    match solver.check(&trace.path_condition()) {
        SatResult::Sat(model) => {
            if trace.exact {
                Feasibility::Feasible(trace.unknowns.iter().map(|s| model.int(s) as i64).collect())
            } else {
                // The path condition over-approximates; a model does not
                // certify a real failure.
                Feasibility::Unknown
            }
        }
        SatResult::Unsat => Feasibility::Infeasible,
        SatResult::Unknown => Feasibility::Unknown,
        SatResult::Exhausted(e) => Feasibility::Exhausted(e),
    }
}

/// Discovers new predicates from an infeasible trace (§5.2.2–5.2.3).
pub fn discover_predicates(
    program: &Program,
    trace: &Trace,
    opts: &RefineOptions,
) -> Result<Refinement, RefineError> {
    discover_predicates_metered(
        program,
        trace,
        opts,
        Budget::unlimited(),
        None,
        &Tracer::disabled(),
        &Metrics::disabled(),
    )
}

/// [`discover_predicates`] under a shared [`Budget`], with an optional shared
/// [`QueryCache`], a [`Tracer`] and a metrics registry.
///
/// - Sequence interpolation is an `interp` checkpoint, and budget exhaustion
///   inside the interpolation engine propagates out instead of being
///   treated as an ordinary "no interpolant" failure.
/// - Slicing screens components through the cache's cube table and the
///   sequence engine refutes through its rational table, so repeated work
///   collapses within one refinement and across CEGAR iterations.
/// - Each cut point that solves to a non-trivial interpolant emits an
///   `interp_cut` event (cut index, formula size), bumps
///   [`Counter::InterpCuts`] and records the size in [`Hist::InterpSize`].
#[allow(clippy::too_many_arguments)]
pub fn discover_predicates_metered(
    program: &Program,
    trace: &Trace,
    opts: &RefineOptions,
    budget: &Budget,
    cache: Option<&QueryCache>,
    tracer: &Tracer,
    metrics: &Metrics,
) -> Result<Refinement, RefineError> {
    let mut out = Refinement::default();
    // sym → original-name maps and (sym, index) lists, per activation.
    let mut orig_names: Vec<BTreeMap<Var, Var>> = vec![BTreeMap::new(); trace.activations.len()];
    let mut act_params: Vec<Vec<(Var, usize)>> = vec![Vec::new(); trace.activations.len()];
    // Canonical linear form of every symbol over the trace's root symbols
    // (main's unknowns and rand sites), used to rewrite dependencies that
    // are invisible at a higher-order position into visible ones.
    let mut canon: BTreeMap<Var, LinExpr> = BTreeMap::new();
    let canon_of = |canon: &BTreeMap<Var, LinExpr>, e: &LinExpr| -> LinExpr {
        let mut out = LinExpr::constant(e.constant_part());
        for (v, c) in e.iter() {
            match canon.get(v) {
                Some(ce) => out = out + ce.clone() * c,
                None => out = out + LinExpr::term(c, v.clone()),
            }
        }
        out
    };
    for e in &trace.events {
        match e {
            Event::Bind {
                activation,
                index,
                param,
                sym,
                def_eq,
                ..
            } => {
                orig_names[*activation].insert(sym.clone(), param.clone());
                act_params[*activation].push((sym.clone(), *index));
                // def_eq is `sym - expr = 0`; recover expr = sym - lhs/coeff.
                let entry = match def_eq {
                    None => LinExpr::var(sym.clone()),
                    Some(Formula::Atom(a)) => {
                        // lhs = sym - expr (normalized); expr = sym - lhs
                        // modulo the atom's gcd normalization, so recompute
                        // from the stored equality: sym appears with some
                        // coefficient c; expr = -(lhs - c·sym)/c.
                        let lhs = a.lhs();
                        let c = lhs.coeff(sym);
                        if c == 1 || c == -1 {
                            let rest = lhs.clone() - LinExpr::term(c, sym.clone());
                            let expr = -(rest) * c;
                            canon_of(&canon, &expr)
                        } else {
                            LinExpr::var(sym.clone())
                        }
                    }
                    Some(_) => LinExpr::var(sym.clone()),
                };
                canon.insert(sym.clone(), entry);
            }
            Event::Rand {
                activation, sym, ..
            } => {
                let _ = activation;
                canon.insert(sym.clone(), LinExpr::var(sym.clone()));
            }
            Event::Cond(_) => {}
        }
    }

    // Cut positions in order.
    let cuts: Vec<usize> = trace
        .events
        .iter()
        .enumerate()
        .filter(|(_, e)| matches!(e, Event::Bind { .. } | Event::Rand { .. }))
        .map(|(i, _)| i)
        .collect();
    // Slice the path condition into variable-connected components, screen
    // for the contradiction cone, and read every crossed cut's interpolant
    // off one shared Farkas certificate per refuting component. When the
    // sequence engine declines, only seeding below learns predicates.
    let fast = if cuts.is_empty() {
        None
    } else {
        fast_path(trace, &cuts, budget, cache, &mut out)?
    };

    if let Some(solutions) = &fast {
        let mut prev: Option<&Formula> = None;
        for (ci, &i) in cuts.iter().enumerate() {
            let solution = &solutions[ci];
            if matches!(solution, Formula::True) {
                prev = Some(solution);
                continue;
            }
            // A Farkas prefix sum only changes at cuts a certificate atom
            // crosses; in between, the family repeats the same formula. The
            // knowledge is already installed where it first appeared —
            // re-recording it at every intermediate scheme multiplies the
            // predicate pool (and abstraction cost) for no refutation power.
            if prev == Some(solution) {
                continue;
            }
            prev = Some(solution);
            let size = solution.size();
            out.max_interp_size = out.max_interp_size.max(size);
            metrics.incr(Counter::InterpCuts);
            metrics.observe(Hist::InterpSize, size as u64);
            tracer.emit("interp_cut", |e| {
                e.num("cut", ci as u64).num("size", size as u64);
            });
            let sym = match &trace.events[i] {
                Event::Bind { sym, .. } | Event::Rand { sym, .. } => sym.clone(),
                Event::Cond(_) => unreachable!("cuts are binds"),
            };
            record_predicate(
                &trace.events[i],
                solution,
                &sym,
                &orig_names,
                &act_params,
                &canon,
                program,
                trace,
                &mut out,
                PredSource::Interp,
                ci,
            )?;
        }
    }

    if opts.seed_from_path {
        seed_from_conditions(
            program,
            trace,
            &cuts,
            &orig_names,
            &act_params,
            &canon,
            &mut out,
        )?;
    }
    if opts.enumerate_gen_p {
        // §5.3: inject genP(iteration) at every cut, renamed to the cut's ν.
        for (ci, &i) in cuts.iter().enumerate() {
            let (sym, deps) = match &trace.events[i] {
                Event::Bind { sym, deps, .. } | Event::Rand { sym, deps, .. } => (sym, deps),
                Event::Cond(_) => unreachable!(),
            };
            let p = crate::enumerate::gen_p(opts.iteration, deps);
            let body = p.body().rename(&mut |v| {
                if v == p.nu() {
                    sym.clone()
                } else {
                    v.clone()
                }
            });
            let solution = body;
            record_predicate(
                &trace.events[i],
                &solution,
                sym,
                &orig_names,
                &act_params,
                &canon,
                program,
                trace,
                &mut out,
                PredSource::GenP,
                ci,
            )?;
        }
    }
    Ok(out)
}

/// Part index of event `i`: cut `ci` owns events `(cuts[ci-1], cuts[ci]]`,
/// so the A-side of cut `k` is exactly parts `0..=k`; the final part holds
/// everything after the last cut.
fn part_of(cuts: &[usize], i: usize) -> usize {
    cuts.partition_point(|&c| c < i)
}

/// Groups a set of event conjuncts into per-part conjunctions (one part per
/// cut boundary plus the final suffix part).
fn build_parts(events: &[Event], cuts: &[usize], group: &[usize]) -> Vec<Formula> {
    let mut parts: Vec<Vec<Formula>> = vec![Vec::new(); cuts.len() + 1];
    for &i in group {
        parts[part_of(cuts, i)].push(events[i].formula());
    }
    parts.into_iter().map(Formula::and).collect()
}

/// The refinement fast path: cone-of-influence slicing + shared-certificate
/// sequence interpolants, one group per independent refuting component.
///
/// Returns one solution per cut on success (`true`/`false` for cuts no
/// refuting component crosses — counted as `cuts_sliced`; certificate-derived
/// interpolants for crossed cuts — counted as `cert_reuse_hits`). `None`
/// when no component survives sequence interpolation: the refinement then
/// learns no interpolated predicate.
fn fast_path(
    trace: &Trace,
    cuts: &[usize],
    budget: &Budget,
    cache: Option<&QueryCache>,
    out: &mut Refinement,
) -> Result<Option<Vec<Formula>>, RefineError> {
    let events = &trace.events;
    let opts = InterpOptions::default();
    let sl = slice::components(events);
    let verdicts = slice::screen_components(events, &sl, opts.split_depth, budget, cache)
        .map_err(RefineError::Exhausted)?;
    let unsat_comps: Vec<usize> = (0..sl.n_components)
        .filter(|&c| verdicts[c] == slice::CompVerdict::Unsat)
        .collect();
    let sliced = !unsat_comps.is_empty();
    // One group per refuting component; with no refuting component the whole
    // condition forms a single group (sequence sharing still applies, the
    // refutation just needs all components together).
    let groups: Vec<Vec<usize>> = if sliced {
        unsat_comps
            .iter()
            .map(|&c| {
                (0..events.len())
                    .filter(|&i| sl.comp_of[i] == Some(c))
                    .collect()
            })
            .collect()
    } else {
        vec![(0..events.len())
            .filter(|&i| sl.comp_of[i].is_some())
            .collect()]
    };
    let jobs: Vec<Vec<Formula>> = groups
        .iter()
        .map(|g| build_parts(events, cuts, g))
        .collect();

    budget
        .checkpoint(Phase::Interp)
        .map_err(RefineError::Exhausted)?;
    let results: Vec<Result<Vec<Formula>, InterpError>> = jobs
        .iter()
        .map(|parts| interpolate_sequence(parts, opts, budget, cache))
        .collect();

    // Stitch by index: each surviving group contributes its cut family; a
    // group that fails structurally is dropped (a refuting component's
    // interpolants are valid for the full condition on their own).
    let mut families: Vec<Vec<Formula>> = Vec::new();
    let mut crossed = vec![false; cuts.len()];
    for (g, res) in results.into_iter().enumerate() {
        match res {
            Ok(family) => {
                let parts_touched: Vec<usize> =
                    groups[g].iter().map(|&i| part_of(cuts, i)).collect();
                let first = parts_touched.iter().copied().min().unwrap_or(0);
                let last = parts_touched.iter().copied().max().unwrap_or(0);
                for (k, cr) in crossed.iter_mut().enumerate() {
                    *cr |= k >= first && k < last;
                }
                families.push(family);
            }
            Err(InterpError::Exhausted(e)) => return Err(RefineError::Exhausted(e)),
            // NotRefutable / TooLarge: this group contributes nothing.
            Err(_) => {}
        }
    }
    if families.is_empty() {
        return Ok(None);
    }
    if sliced {
        out.cuts_sliced += crossed.iter().filter(|&&c| !c).count();
    }
    out.cert_reuse_hits += crossed.iter().filter(|&&c| c).count();
    let solutions: Vec<Formula> = (0..cuts.len())
        .map(|k| Formula::and(families.iter().map(|f| f[k].clone())))
        .collect();
    Ok(Some(solutions))
}

/// Diagnostic/test hook: runs the refinement fast path on `trace` with an
/// unlimited budget and no cache, returning the **full** per-cut parts
/// `φ_0, …, φ_n` of the path condition together with the per-cut solutions
/// `I_0, …, I_{n-1}` the fast path produced. `None` when the fast path
/// declined or the trace has no cuts.
///
/// Because sliced interpolants are valid for the full condition, the
/// returned family must satisfy the telescoping property
/// `I_k ∧ φ_{k+1} ⇒ I_{k+1}` against the *full* parts — that is what the
/// in-tree suite-wide telescoping test checks.
pub fn fastpath_sequence(trace: &Trace) -> Option<(Vec<Formula>, Vec<Formula>)> {
    let cuts: Vec<usize> = trace
        .events
        .iter()
        .enumerate()
        .filter(|(_, e)| matches!(e, Event::Bind { .. } | Event::Rand { .. }))
        .map(|(i, _)| i)
        .collect();
    if cuts.is_empty() {
        return None;
    }
    let mut scratch = Refinement::default();
    let solutions = fast_path(trace, &cuts, Budget::unlimited(), None, &mut scratch).ok()??;
    let all: Vec<usize> = (0..trace.events.len()).collect();
    let parts = build_parts(&trace.events, &cuts, &all);
    Some((parts, solutions))
}

/// `true` iff the formula only mentions the cut's own symbol and its
/// allowed dependencies.
fn scoped(f: &Formula, sym: &Var, deps: &[Var]) -> bool {
    f.vars().iter().all(|v| v == sym || deps.contains(v))
}

/// Rewrites a solved formula over trace symbols into a [`Predicate`] over
/// the definition's parameter names and records it in the refinement —
/// both on the definition's own scheme and, via the closure's origins, on
/// every higher-order parameter position the closure flowed through.
#[allow(clippy::too_many_arguments)]
fn record_predicate(
    event: &Event,
    solution: &Formula,
    sym: &Var,
    orig_names: &[BTreeMap<Var, Var>],
    act_params: &[Vec<(Var, usize)>],
    canon: &BTreeMap<Var, LinExpr>,
    program: &Program,
    trace: &Trace,
    out: &mut Refinement,
    source: PredSource,
    cut: usize,
) -> Result<(), RefineError> {
    let interpolated = source == PredSource::Interp;
    match event {
        Event::Bind {
            activation,
            index,
            param,
            ..
        } => {
            let fname = trace.activations[*activation].def.clone();
            let def = program
                .def(&fname)
                .ok_or_else(|| RefineError::Invalid(format!("unknown function {fname}")))?;
            // 1. The definition's own scheme. Dependencies must be this
            // activation's parameters; out-of-scope symbols are rewritten
            // to same-valued parameters when possible, otherwise the direct
            // update is skipped (a higher-order position may still apply).
            let names = &orig_names[*activation];
            let mut direct_ok = true;
            let body = solution.rename(&mut |v| {
                if v == sym {
                    return sym.clone();
                }
                if let Some(o) = names.get(v) {
                    return o.clone();
                }
                let cv = canon
                    .get(v)
                    .cloned()
                    .unwrap_or_else(|| LinExpr::var(v.clone()));
                for (osym, _) in &act_params[*activation] {
                    if osym == sym {
                        continue;
                    }
                    let oc = canon
                        .get(osym)
                        .cloned()
                        .unwrap_or_else(|| LinExpr::var(osym.clone()));
                    if oc == cv {
                        if let Some(o) = names.get(osym) {
                            return o.clone();
                        }
                    }
                }
                direct_ok = false;
                v.clone()
            });
            let trivial = matches!(body, Formula::True | Formula::False);
            if direct_ok && !trivial {
                let pred = Predicate::new(sym.clone(), body);
                let mut counter = 0;
                let scheme: Vec<(Var, AbsTy)> = def
                    .params
                    .iter()
                    .map(|(x, t)| {
                        let ty = if x == param {
                            AbsTy::int(vec![pred.clone()])
                        } else {
                            AbsTy::default_for(t, &mut counter)
                        };
                        (x.clone(), ty)
                    })
                    .collect();
                out.provenance.push(PredProvenance {
                    target: format!("{fname}:{param}"),
                    cut,
                    source,
                    pred: pred.to_string(),
                });
                merge_scheme(&mut out.fun_updates, fname, scheme);
                if interpolated {
                    out.interpolated += 1;
                } else {
                    out.seeded += 1;
                }
            }
            // 2. Higher-order positions along the closure's flow.
            for origin in &trace.activations[*activation].origins {
                if *index < origin.applied_before {
                    continue; // bound before the closure passed through here
                }
                let chain_pos = index - origin.applied_before;
                let o_act = origin.activation;
                let o_def = trace.activations[o_act].def.clone();
                // Rewrite each dependency: same-activation parameters that
                // are visible in the chain become placeholders; invisible
                // ones are matched by canonical value against the origin
                // activation's own parameters (Figure-3 scoping).
                let mut ok = true;
                let dep_indices: BTreeMap<Var, usize> =
                    act_params[*activation].iter().cloned().collect();
                let body = solution.rename(&mut |v| {
                    if v == sym {
                        return sym.clone();
                    }
                    if let Some(&di) = dep_indices.get(v) {
                        if di >= origin.applied_before {
                            return Var::new(format!("@chain{}", di - origin.applied_before));
                        }
                    }
                    // Invisible: try to express it as one of the origin
                    // activation's parameters with equal canonical value.
                    let cv = canon
                        .get(v)
                        .cloned()
                        .unwrap_or_else(|| LinExpr::var(v.clone()));
                    for (osym, _) in &act_params[o_act] {
                        let oc = canon
                            .get(osym)
                            .cloned()
                            .unwrap_or_else(|| LinExpr::var(osym.clone()));
                        if oc == cv {
                            if let Some(oname) = orig_names[o_act].get(osym) {
                                return oname.clone();
                            }
                        }
                    }
                    ok = false;
                    v.clone()
                });
                if ok && !matches!(body, Formula::True | Formula::False) {
                    let pred = Predicate::new(sym.clone(), body);
                    out.provenance.push(PredProvenance {
                        target: format!("{o_def}:{}@{chain_pos}", origin.param),
                        cut,
                        source,
                        pred: pred.to_string(),
                    });
                    out.ho_updates.push(HoUpdate {
                        def: o_def,
                        param: origin.param.clone(),
                        chain_pos,
                        pred,
                    });
                }
            }
        }
        Event::Rand {
            activation, orig, ..
        } => {
            let names = &orig_names[*activation];
            let mut ok = true;
            let body = solution.rename(&mut |v| {
                if v == sym {
                    return sym.clone();
                }
                if let Some(o) = names.get(v) {
                    return o.clone();
                }
                let cv = canon
                    .get(v)
                    .cloned()
                    .unwrap_or_else(|| LinExpr::var(v.clone()));
                for (osym, _) in &act_params[*activation] {
                    let oc = canon
                        .get(osym)
                        .cloned()
                        .unwrap_or_else(|| LinExpr::var(osym.clone()));
                    if oc == cv {
                        if let Some(o) = names.get(osym) {
                            return o.clone();
                        }
                    }
                }
                ok = false;
                v.clone()
            });
            if ok && !matches!(body, Formula::True | Formula::False) {
                let pred = Predicate::new(sym.clone(), body);
                let entry = out.rand_updates.entry(orig.clone()).or_default();
                if !entry.iter().any(|p| p.alpha_eq(&pred)) {
                    out.provenance.push(PredProvenance {
                        target: format!("rand:{orig}"),
                        cut,
                        source,
                        pred: pred.to_string(),
                    });
                    entry.push(pred);
                    if interpolated {
                        out.interpolated += 1;
                    } else {
                        out.seeded += 1;
                    }
                }
            }
        }
        Event::Cond(_) => unreachable!("cuts are binds"),
    }
    Ok(())
}

fn merge_scheme(
    updates: &mut BTreeMap<FunName, Vec<(Var, AbsTy)>>,
    f: FunName,
    scheme: Vec<(Var, AbsTy)>,
) {
    match updates.get_mut(&f) {
        None => {
            updates.insert(f, scheme);
        }
        Some(old) => {
            for ((_, t_old), (_, t_new)) in old.iter_mut().zip(&scheme) {
                *t_old = t_old.merge(t_new);
            }
        }
    }
}

/// The predicate-seeding heuristic: every atomic condition along the path
/// that mentions a cut symbol (and otherwise only its dependencies) becomes
/// a candidate predicate for that cut.
#[allow(clippy::too_many_arguments)]
fn seed_from_conditions(
    program: &Program,
    trace: &Trace,
    cuts: &[usize],
    orig_names: &[BTreeMap<Var, Var>],
    act_params: &[Vec<(Var, usize)>],
    canon: &BTreeMap<Var, LinExpr>,
    out: &mut Refinement,
) -> Result<(), RefineError> {
    let mut atoms: Vec<Formula> = Vec::new();
    for e in &trace.events {
        if let Event::Cond(f) = e {
            collect_atoms(f, &mut atoms);
        }
    }
    for (ci, &i) in cuts.iter().enumerate() {
        let (sym, deps) = match &trace.events[i] {
            Event::Bind { sym, deps, .. } => (sym, deps),
            Event::Rand { sym, deps, .. } => (sym, deps),
            Event::Cond(_) => unreachable!(),
        };
        for a in &atoms {
            let vars = a.vars();
            if vars.contains(sym) && scoped(a, sym, deps) {
                record_predicate(
                    &trace.events[i],
                    a,
                    sym,
                    orig_names,
                    act_params,
                    canon,
                    program,
                    trace,
                    out,
                    PredSource::Seed,
                    ci,
                )?;
            }
        }
    }
    Ok(())
}

fn collect_atoms(f: &Formula, out: &mut Vec<Formula>) {
    match f {
        Formula::True | Formula::False | Formula::BVar(_) => {}
        Formula::Atom(_) => {
            if !out.contains(f) {
                out.push(f.clone());
            }
        }
        Formula::Not(g) => collect_atoms(g, out),
        Formula::And(fs) | Formula::Or(fs) => {
            for g in fs {
                collect_atoms(g, out);
            }
        }
    }
}

/// Convenience: the full §5 step — feasibility check, then (if spurious)
/// predicate discovery and environment refinement. Returns the feasibility
/// verdict and whether the environment changed.
pub fn refine_env(
    program: &Program,
    trace: &Trace,
    env: &mut AbsEnv,
    solver: &SmtSolver,
    opts: &RefineOptions,
) -> Result<(Feasibility, bool), RefineError> {
    let (feas, changed, _) = refine_env_traced(
        program,
        trace,
        env,
        solver,
        opts,
        Budget::unlimited(),
        &Tracer::disabled(),
    )?;
    Ok((feas, changed))
}

/// [`refine_env`] under a shared [`Budget`] and with an attached [`Tracer`],
/// additionally returning the [`Refinement`] itself so callers can report
/// what was discovered (interpolated/seeded counts, higher-order updates,
/// largest interpolant). Only an infeasible path is refined: on any other
/// verdict (feasible, undecided, or preempted by the budget) the call
/// returns early with `env` untouched and an empty refinement.
pub fn refine_env_traced(
    program: &Program,
    trace: &Trace,
    env: &mut AbsEnv,
    solver: &SmtSolver,
    opts: &RefineOptions,
    budget: &Budget,
    tracer: &Tracer,
) -> Result<(Feasibility, bool, Refinement), RefineError> {
    let feas = check_feasibility(trace, solver);
    if !matches!(feas, Feasibility::Infeasible) {
        return Ok((feas, false, Refinement::default()));
    }
    // Interpolation shares the solver's query cache (if it carries one), so
    // cube work survives across refinement iterations.
    let cache = solver.cache().map(std::sync::Arc::as_ref);
    let refinement = discover_predicates_metered(
        program,
        trace,
        opts,
        budget,
        cache,
        tracer,
        solver.metrics(),
    )?;
    let mut changed = env.refine(&refinement.fun_updates, &refinement.rand_updates);
    for u in &refinement.ho_updates {
        changed |= env.apply_ho_update(&u.def, &u.param, u.chain_pos, &u.pred);
    }
    Ok((feas, changed, refinement))
}
