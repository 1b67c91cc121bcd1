//! Randomized and suite-wide checks of the refinement fast path.
//!
//! Three angles on the same contract:
//!
//! * a differential sweep over ~1k random SHP-style constraint chains,
//!   checking that the shared-certificate sequence engine and the per-cut
//!   reference engine agree on refutability and that every fast-path
//!   interpolant satisfies the Craig conditions at its cut;
//! * a property test that cone-of-influence slicing is sound — deleting
//!   conjuncts outside the contradiction cone never changes satisfiability;
//! * a whole-suite telescoping check: for every infeasible counterexample
//!   the Table 1 programs produce, the fast path's interpolant family
//!   satisfies `I_{k-1} ∧ φ_k ⇒ I_k` at every cut. The walk that finds
//!   those counterexamples also demands an error path for every "may
//!   fail" answer of the model checker.
//!
//! Self-contained xorshift generation, as in `properties.rs`: reproducible,
//! no external crates.

use homc_abs::{abstract_program, AbsEnv, AbsOptions};
use homc_cegar::slice::{components, cone_events, screen_components, CompVerdict};
use homc_cegar::{build_trace, fastpath_sequence, refine_env, Event, RefineOptions, TraceEnd};
use homc_hbp::check::CheckLimits;
use homc_hbp::{find_error_path, source_labels, Checker};
use homc_lang::frontend;
use homc_smt::{
    int_sat, interpolate_sequence, interpolate_with, Atom, Budget, Formula, IntResult, InterpError,
    InterpOptions, LinExpr, SatResult, SmtSolver, Var,
};

/// The solver is integer-complete only up to its branch & bound depth, and
/// integer-split interpolants sometimes need divisibility arguments the
/// search cannot express (it reports [`SatResult::Unknown`]). A property
/// check therefore asserts the *refutable* direction — no integer
/// countermodel may exist — and the callers count decisive (`Unsat`)
/// verdicts to make sure the sweep retains teeth.
fn refutes(solver: &SmtSolver, f: &Formula, decisive: &mut usize) -> bool {
    match solver.check(f) {
        SatResult::Sat(_) => false,
        SatResult::Unsat => {
            *decisive += 1;
            true
        }
        _ => true,
    }
}

/// Deterministic xorshift64* generator (same idiom as `properties.rs`).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed | 1)
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn range(&mut self, lo: i128, hi: i128) -> i128 {
        let span = (hi - lo + 1) as u128;
        lo + (self.next_u64() as u128 % span) as i128
    }

    fn index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Case count, scaled up under the `slow-tests` feature.
fn cases(fast: usize) -> usize {
    if cfg!(feature = "slow-tests") {
        fast * 4
    } else {
        fast
    }
}

const VARS: [&str; 4] = ["x", "y", "z", "w"];

/// A small linear expression over one variable pool (small coefficients so
/// certificate weights stay far from the overflow guard).
fn gen_linexpr(rng: &mut Rng, pool: &[&str]) -> LinExpr {
    let mut e = LinExpr::constant(rng.range(-6, 6));
    for _ in 0..=rng.index(2) {
        e = e + LinExpr::term(rng.range(-3, 3), Var::new(pool[rng.index(pool.len())]));
    }
    e
}

fn gen_atom(rng: &mut Rng, pool: &[&str]) -> Atom {
    let a = gen_linexpr(rng, pool);
    let b = gen_linexpr(rng, pool);
    match rng.index(3) {
        0 => Atom::le(a, b),
        1 => Atom::ge(a, b),
        _ => Atom::eq(a, b),
    }
}

/// A random A-normalized chain: each part is a cube of 0–2 atoms, the way
/// SHP path conditions decompose at Bind/Rand cut points.
fn gen_chain(rng: &mut Rng) -> Vec<Formula> {
    let n = 3 + rng.index(5);
    (0..n)
        .map(|_| Formula::and((0..rng.index(3)).map(|_| Formula::atom(gen_atom(rng, &VARS)))))
        .collect()
}

/// The per-cut split: A = parts[..=k], B = parts[k+1..].
fn cut_sides(parts: &[Formula], k: usize) -> (Formula, Formula) {
    (
        Formula::and(parts[..=k].iter().cloned()),
        Formula::and(parts[k + 1..].iter().cloned()),
    )
}

#[test]
fn sequence_agrees_with_per_cut_engine() {
    let mut rng = Rng::new(0x5e9_fa57);
    // A modest split depth keeps both engines cheap on gcd-hard random
    // chains (they bail structurally instead of searching deep).
    let opts = InterpOptions {
        split_depth: 12,
        ..InterpOptions::default()
    };
    let budget = Budget::unlimited();
    // A shallow branch & bound keeps the verification checks cheap; the
    // undecided remainder is covered by the `decisive` floor below.
    let mut solver = SmtSolver::new();
    solver.set_bb_depth(10);
    let (mut refuted, mut sat, mut skipped) = (0usize, 0usize, 0usize);
    let (mut decisive, mut checks) = (0usize, 0usize);
    for case in 0..cases(1000) {
        let parts = gen_chain(&mut rng);
        match interpolate_sequence(&parts, opts, budget, None) {
            Ok(seq) => {
                refuted += 1;
                assert_eq!(seq.len(), parts.len() - 1, "case {case}: family size");
                // The per-cut engine must agree the chain refutes (the
                // conjunction is cut-independent, so one cut suffices).
                let mid = (parts.len() - 1) / 2;
                let (ma, mb) = cut_sides(&parts, mid);
                let per_cut = interpolate_with(&ma, &mb, opts);
                assert!(
                    !matches!(per_cut, Err(InterpError::NotRefutable)),
                    "case {case}: sequence refuted but per-cut engine found a \
                     model\nparts: {parts:?}"
                );
                for (k, i) in seq.iter().enumerate() {
                    let (a, b) = cut_sides(&parts, k);
                    // Every fast-path interpolant must satisfy the Craig
                    // conditions: vocabulary, A ⇒ I, I ∧ B unsat.
                    let shared: std::collections::BTreeSet<Var> =
                        a.vars().intersection(&b.vars()).cloned().collect();
                    assert!(
                        i.vars().is_subset(&shared),
                        "case {case} cut {k}: interpolant {i} leaks variables"
                    );
                    // Deep split recursion yields exponentially large
                    // disjunctive interpolants; solver-checking those is
                    // itself exponential, so the semantic checks run on the
                    // small (overwhelmingly common) ones.
                    if i.size() > 64 {
                        continue;
                    }
                    checks += 3;
                    assert!(
                        refutes(
                            &solver,
                            &Formula::and2(a.clone(), Formula::not(i.clone())),
                            &mut decisive,
                        ),
                        "case {case} cut {k}: countermodel to A ⇒ {i}\nparts: {parts:?}"
                    );
                    assert!(
                        refutes(&solver, &Formula::and2(i.clone(), b), &mut decisive),
                        "case {case} cut {k}: interpolant {i} consistent with the \
                         suffix\nparts: {parts:?}"
                    );
                    // Telescoping: I_{k-1} ∧ φ_k ⇒ I_k.
                    let prev = if k == 0 {
                        Formula::True
                    } else {
                        seq[k - 1].clone()
                    };
                    assert!(
                        refutes(
                            &solver,
                            &Formula::and2(
                                Formula::and2(prev, parts[k].clone()),
                                Formula::not(i.clone()),
                            ),
                            &mut decisive,
                        ),
                        "case {case} cut {k}: family does not telescope\nparts: {parts:?}"
                    );
                }
            }
            Err(InterpError::NotRefutable) => {
                sat += 1;
                // The sequence engine claims an integer model exists, so the
                // per-cut engine must not refute the chain.
                let (a, b) = cut_sides(&parts, 0);
                let per_cut = interpolate_with(&a, &b, opts);
                assert!(
                    matches!(per_cut, Err(InterpError::NotRefutable)),
                    "case {case}: sequence found a model but per-cut engine \
                     says {per_cut:?}\nparts: {parts:?}"
                );
            }
            // Structural bail-outs (certificate-weight overflow, split
            // budget); refinement then learns only seeded predicates.
            Err(_) => skipped += 1,
        }
    }
    assert!(
        refuted > 50,
        "sweep too easy: only {refuted} refuted chains"
    );
    assert!(sat > 50, "sweep too easy: only {sat} satisfiable chains");
    assert!(
        skipped < cases(1000) / 10,
        "too many structural bail-outs: {skipped}"
    );
    assert!(
        decisive * 2 > checks,
        "verification mostly undecided: {decisive}/{checks}"
    );
}

/// All arithmetic atoms of a conjunction of cube events.
fn event_atoms(events: &[Event], keep: impl Fn(usize) -> bool) -> Vec<Atom> {
    let mut out = Vec::new();
    for (i, e) in events.iter().enumerate() {
        if !keep(i) {
            continue;
        }
        for l in homc_smt::cube_literals(&e.formula()).expect("cube events") {
            match l {
                homc_smt::Literal::Arith(a) => out.push(a),
                homc_smt::Literal::Bool(..) => unreachable!("arith-only generator"),
            }
        }
    }
    out
}

#[test]
fn slicing_preserves_satisfiability() {
    // Three variable-disjoint pools; each event draws from one pool, so
    // chains typically split into several connected components.
    const POOLS: [[&str; 2]; 3] = [["a", "b"], ["c", "d"], ["e", "f"]];
    let mut rng = Rng::new(0xc03e);
    for case in 0..cases(400) {
        let n = 2 + rng.index(8);
        let events: Vec<Event> = (0..n)
            .map(|_| {
                let pool = POOLS[rng.index(POOLS.len())];
                Event::Cond(Formula::and(
                    (0..rng.index(3)).map(|_| Formula::atom(gen_atom(&mut rng, &pool))),
                ))
            })
            .collect();
        let slice = components(&events);

        // Components partition the variables: no variable may appear in two
        // distinct components (that is what makes deletion sound).
        let mut comp_of_var: std::collections::BTreeMap<Var, usize> = Default::default();
        for (i, e) in events.iter().enumerate() {
            let Some(c) = slice.comp_of[i] else { continue };
            for v in e.formula().vars() {
                let prev = comp_of_var.insert(v.clone(), c);
                assert!(
                    prev.is_none_or(|p| p == c),
                    "case {case}: variable {v} spans two components"
                );
            }
        }

        let verdicts = screen_components(&events, &slice, 12, Budget::unlimited(), None)
            .expect("unlimited budget");
        let cone = cone_events(&slice, &verdicts);
        let full = event_atoms(&events, |_| true);

        // Soundness: a component the screener refutes really is
        // unsatisfiable on its own (checked by the independent solver).
        for (c, v) in verdicts.iter().enumerate() {
            if *v == CompVerdict::Unsat {
                let own = event_atoms(&events, |i| slice.comp_of[i] == Some(c));
                assert!(
                    !matches!(int_sat(&own, 24), IntResult::Sat(_)),
                    "case {case}: component {c} screened unsat but has a model"
                );
            }
        }
        match int_sat(&full, 24) {
            // A satisfiable chain must have an empty cone: no component may
            // be falsely refuted, so nothing is ever sliced away from a
            // chain that has a model.
            IntResult::Sat(_) => assert!(
                verdicts.iter().all(|v| *v == CompVerdict::Other),
                "case {case}: satisfiable chain but nonempty cone"
            ),
            // An unsatisfiable chain with a nonempty cone: deleting every
            // out-of-cone conjunct must preserve unsatisfiability. (An
            // empty cone only means the depth-bounded screener could not
            // decide any component — slicing then simply does not fire.)
            IntResult::Unsat(_) => {
                if cone.iter().any(|&b| b) {
                    let sliced = event_atoms(&events, |i| cone[i]);
                    assert!(
                        !matches!(int_sat(&sliced, 24), IntResult::Sat(_)),
                        "case {case}: sliced chain lost the contradiction"
                    );
                }
            }
            IntResult::Unknown => {}
        }
    }
}

#[test]
fn fastpath_telescopes_on_suite_counterexamples() {
    let solver = SmtSolver::new();
    let mut families = 0usize;
    let (mut decisive, mut checks) = (0usize, 0usize);
    for p in homc::suite::SUITE {
        let compiled = match frontend(p.source) {
            Ok(c) => c,
            Err(e) => panic!("{}: {e}", p.name),
        };
        let mut env = AbsEnv::initial(&compiled.cps);
        // Walk the CEGAR loop by hand, checking the interpolant family of
        // every infeasible counterexample the suite program produces.
        for _round in 0..8 {
            let Ok((bp, _)) = abstract_program(&compiled.cps, &env, &AbsOptions::default()) else {
                break;
            };
            let Ok(mut checker) = Checker::new(&bp, CheckLimits::default()) else {
                break;
            };
            if checker.saturate().is_err() || !checker.may_fail() {
                break;
            }
            // Every may-fail answer names a concrete boolean-program path
            // to `fail` (Theorem 3.1's ℓ₁…ℓₙ), so a checker that claims
            // failure without one is wrong.
            let path = match find_error_path(&mut checker) {
                Ok(Some(path)) => path,
                other => panic!("{}: may fail, but no error path: {other:?}", p.name),
            };
            let labels = source_labels(&path);
            let Ok(trace) = build_trace(&compiled.cps, &labels, 200_000) else {
                break;
            };
            if trace.end != TraceEnd::ReachedFail {
                break;
            }
            if let Some((parts, sols)) = fastpath_sequence(&trace) {
                families += 1;
                assert_eq!(sols.len() + 1, parts.len(), "{}: family size", p.name);
                let mut prev = Formula::True;
                for (k, i) in sols.iter().enumerate() {
                    let (a, b) = cut_sides(&parts, k);
                    checks += 3;
                    assert!(
                        refutes(
                            &solver,
                            &Formula::and2(a, Formula::not(i.clone())),
                            &mut decisive,
                        ),
                        "{} cut {k}: countermodel to A ⇒ {i}",
                        p.name
                    );
                    assert!(
                        refutes(&solver, &Formula::and2(i.clone(), b), &mut decisive),
                        "{} cut {k}: interpolant {i} consistent with the suffix",
                        p.name
                    );
                    assert!(
                        refutes(
                            &solver,
                            &Formula::and2(
                                Formula::and2(prev, parts[k].clone()),
                                Formula::not(i.clone()),
                            ),
                            &mut decisive,
                        ),
                        "{} cut {k}: family does not telescope at {i}",
                        p.name
                    );
                    prev = i.clone();
                }
            }
            // Refine and continue; a feasible or exhausted path ends the walk.
            match refine_env(
                &compiled.cps,
                &trace,
                &mut env,
                &solver,
                &RefineOptions::default(),
            ) {
                Ok((homc_cegar::Feasibility::Infeasible, true)) => {}
                _ => break,
            }
        }
    }
    assert!(
        families >= 10,
        "suite exercised only {families} fast-path families"
    );
    assert!(
        decisive * 2 > checks,
        "verification mostly undecided: {decisive}/{checks}"
    );
}
