//! Abstraction-engine differential tests.
//!
//! Every abstraction run goes through one per-task loop over a transition
//! memo and one cube enumeration; two things vary with the input, and both
//! are claimed to be *semantically invisible*: the memo reuses
//! byte-identical output, and a solver model skips only queries that would
//! have answered SAT, so the solver-backed enumeration prunes exactly the
//! nodes the oracle-backed one (which gets no models and poses every node)
//! prunes. These tests pin the claims down:
//!
//! * a 1k random-formula differential between the enumeration asking the
//!   solver and the same enumeration asking a solver-backed oracle (same
//!   cube sets, never more queries);
//! * byte-identical abstract programs from `abstract_program` and
//!   `abstract_program_with_oracle` on the pinned program set (with real
//!   predicates installed);
//! * byte-identical abstract programs from a memoised run across a
//!   simulated refinement step and from a fresh-memo run, with verbatim
//!   reuse actually observed;
//! * at every CEGAR iteration of the whole Table 1 suite, the memoised
//!   abstraction equals the oracle abstraction byte for byte;
//! * `abs_defs_reused > 0` on a multi-iteration CEGAR run.

use std::sync::Arc;

use homc::{suite, verify, Verdict, VerifierOptions};
use homc_abs::abstract_prog::enumerate_cubes_for_tests;
use homc_abs::{
    abstract_program, abstract_program_incremental, abstract_program_with_oracle, AbsEnv, AbsError,
    AbsOptions, AbsTy, Predicate, TransitionMemo,
};
use homc_cegar::{build_trace, refine_env, Feasibility, RefineOptions, TraceEnd};
use homc_hbp::{find_error_path, source_labels, Checker};
use homc_lang::frontend;
use homc_lang::types::SimpleTy;
use homc_metrics::Metrics;
use homc_smt::{Atom, Formula, LinExpr, QueryCache, SmtSolver, Var};
use homc_trace::Tracer;

/// Deterministic xorshift64* generator (same idiom as `properties.rs`).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn int(&mut self, lo: i128, hi: i128) -> i128 {
        lo + (self.below((hi - lo + 1) as u64) as i128)
    }
}

const VARS: [&str; 3] = ["x", "y", "z"];

fn rand_expr(rng: &mut Rng) -> LinExpr {
    let mut e = LinExpr::constant(rng.int(-4, 4));
    for _ in 0..=rng.below(2) {
        let v = VARS[rng.below(VARS.len() as u64) as usize];
        e.add_term(rng.int(-2, 2), Var::new(v));
    }
    e
}

fn rand_atom(rng: &mut Rng) -> Formula {
    let a = rand_expr(rng);
    let b = rand_expr(rng);
    Formula::atom(match rng.below(5) {
        0 => Atom::le(a, b),
        1 => Atom::lt(a, b),
        2 => Atom::ge(a, b),
        3 => Atom::gt(a, b),
        _ => Atom::eq(a, b),
    })
}

fn rand_formula(rng: &mut Rng, depth: u32) -> Formula {
    if depth == 0 || rng.below(3) == 0 {
        return rand_atom(rng);
    }
    match rng.below(3) {
        0 => Formula::and((0..2).map(|_| rand_formula(rng, depth - 1))),
        1 => Formula::or((0..2).map(|_| rand_formula(rng, depth - 1))),
        _ => Formula::not(rand_formula(rng, depth - 1)),
    }
}

/// A solver-backed oracle: "unsatisfiable" exactly when `solver` says so.
fn oracle_of(solver: &SmtSolver) -> impl Fn(&Formula) -> Result<bool, AbsError> + '_ {
    |f| Ok(solver.maybe_sat(f))
}

/// The 1k-case enumeration differential: for random `base` and literal
/// lists, the enumeration asking the solver (which skips the nodes its
/// models cover) must emit exactly the cube set of the same enumeration
/// asking a solver-backed oracle (which poses every node) — same cubes,
/// same order — while never issuing *more* queries. This is the
/// feasible-implicant-cover equivalence the guarded branches are rebuilt
/// from.
#[test]
fn model_guided_enumeration_matches_exhaustive_on_random_formulas() {
    let mut rng = Rng::new(0x1a2b_3c4d_5e6f_7788);
    let solver = SmtSolver::new();
    let oracle = oracle_of(&solver);
    let mut saved_total = 0usize;
    for case in 0..1000 {
        let base = rand_formula(&mut rng, 2);
        let n = 2 + rng.below(3) as usize;
        let meanings: Vec<Formula> = (0..n).map(|_| rand_formula(&mut rng, 1)).collect();
        let (exh_cubes, exh_queries) = enumerate_cubes_for_tests(&base, &meanings, Some(&oracle))
            .expect("oracle enumeration runs");
        let (mg_cubes, mg_queries) =
            enumerate_cubes_for_tests(&base, &meanings, None).expect("solver enumeration runs");
        assert_eq!(
            exh_cubes, mg_cubes,
            "case {case}: cube sets diverged (base={base}, meanings={meanings:?})"
        );
        assert!(
            mg_queries <= exh_queries,
            "case {case}: model-guided spent more queries ({mg_queries} > {exh_queries})"
        );
        saved_total += exh_queries - mg_queries;
    }
    assert!(
        saved_total > 0,
        "model guidance never saved a query across 1000 cases"
    );
}

/// The pinned program set for byte-identity checks (shapes exercising
/// recursion, higher-order arguments, coercions, and an unsafe path).
const PROGRAMS: [&str; 4] = [
    "let f x g = g (x + 1) in
     let h y = assert (y > 0) in
     let k n = if n > 0 then f n h else () in
     k m",
    "let f x g = g (x + 1) in
     let h z y = assert (y > z) in
     let k n = if n >= 0 then f n (h n) else () in
     k m",
    "let lock st = assert (st = 0); 1 in
     let unlock st = assert (st = 1); 0 in
     let rec loop n st = if n <= 0 then st else loop (n - 1) (unlock (lock st)) in
     assert (loop n 0 = 0)",
    "let rec sum n = if n <= 0 then 0 else n + sum (n - 1) in
     assert (m <= sum m)",
];

/// Installs `λν.ν > 0` on every integer position so the abstraction issues
/// real SMT queries (an empty environment would make the comparison
/// trivial).
fn with_gt0(t: &AbsTy) -> AbsTy {
    let nu = Var::new("nu");
    let gt0 = Predicate::new(
        nu.clone(),
        Formula::atom(Atom::gt(LinExpr::var(nu), LinExpr::constant(0))),
    );
    match t {
        AbsTy::Base(SimpleTy::Int, _) => AbsTy::int(vec![gt0]),
        AbsTy::Base(_, _) => t.clone(),
        AbsTy::Fun(x, a, b) => AbsTy::fun(x.clone(), with_gt0(a), with_gt0(b)),
    }
}

fn gt0_env(src: &str) -> (homc_lang::Compiled, AbsEnv) {
    let compiled = frontend(src).expect("compiles");
    let mut env = AbsEnv::initial(&compiled.cps);
    for scheme in env.schemes.values_mut() {
        for (_, t) in scheme.iter_mut() {
            *t = with_gt0(t);
        }
    }
    (compiled, env)
}

/// `abstract_program` (solver, models, fresh memo) must produce the
/// byte-identical abstract program that `abstract_program_with_oracle`
/// under a solver-backed oracle does — guards, value choices, and coercion
/// wrappers included.
#[test]
fn abstract_programs_byte_identical_with_and_without_oracle() {
    let solver = SmtSolver::new();
    let oracle = oracle_of(&solver);
    let opts = AbsOptions::default();
    for (i, src) in PROGRAMS.iter().enumerate() {
        let (compiled, env) = gt0_env(src);
        let (bp, _) = abstract_program(&compiled.cps, &env, &opts).expect("abstracts");
        let (bo, _) =
            abstract_program_with_oracle(&compiled.cps, &env, &opts, &oracle).expect("abstracts");
        assert_eq!(
            bp.to_string(),
            bo.to_string(),
            "program {i}: the oracle run produced a different abstract program"
        );
    }
}

/// The transition memo across a simulated refinement step: a second
/// memoised abstraction under a partially-changed environment must (a)
/// actually reuse the untouched definitions and (b) still produce the
/// byte-identical program a fresh-memo run would.
#[test]
fn incremental_reuse_is_byte_identical_across_refinement() {
    for (i, src) in PROGRAMS.iter().enumerate() {
        let compiled = frontend(src).expect("compiles");
        let env0 = AbsEnv::initial(&compiled.cps);
        // Refine exactly one scheme: the first (in BTreeMap order) whose
        // types actually change under the new predicate, so at least one
        // cone fingerprint moves.
        let mut env1 = env0.clone();
        let target = env1
            .schemes
            .iter()
            .find(|(_, scheme)| scheme.iter().any(|(_, t)| with_gt0(t) != *t))
            .map(|(f, _)| f.clone())
            .expect("some scheme has an integer position");
        for (_, t) in env1.schemes.get_mut(&target).expect("target scheme") {
            *t = with_gt0(t);
        }
        let opts = AbsOptions::default();
        let cache = Some(Arc::new(QueryCache::new()));
        let mut memo = TransitionMemo::new();
        let run = |env: &AbsEnv, memo: &mut TransitionMemo| {
            abstract_program_incremental(
                &compiled.cps,
                env,
                &opts,
                None,
                cache.clone(),
                &Tracer::disabled(),
                &Metrics::disabled(),
                memo,
            )
            .expect("abstracts")
        };
        let fresh = |env: &AbsEnv| run(env, &mut TransitionMemo::new()).0.to_string();

        let (bp0, s0) = run(&env0, &mut memo);
        assert_eq!(
            s0.defs_reused, 0,
            "program {i}: nothing to reuse on first build"
        );
        assert_eq!(
            bp0.to_string(),
            fresh(&env0),
            "program {i}: memoised first build diverged from a fresh memo's"
        );

        // Unchanged environment: everything must be reused, byte-identically.
        let (bp_same, s_same) = run(&env0, &mut memo);
        assert_eq!(
            s_same.defs_reused,
            compiled.cps.defs.len() + 1,
            "program {i}: full reuse expected under an unchanged environment"
        );
        assert_eq!(s_same.defs_rebuilt, 0, "program {i}: nothing changed");
        assert_eq!(
            bp_same.to_string(),
            bp0.to_string(),
            "program {i}: reuse drifted"
        );

        // Refined environment: the touched cone rebuilds, the rest is
        // reused, and the result matches a fresh-memo build.
        let (bp1, s1) = run(&env1, &mut memo);
        assert!(
            s1.defs_reused > 0,
            "program {i}: refinement of one scheme must leave something reusable"
        );
        assert!(
            s1.defs_rebuilt > 0,
            "program {i}: the refined definition must rebuild"
        );
        assert_eq!(
            bp1.to_string(),
            fresh(&env1),
            "program {i}: memoised rebuild after refinement diverged from a fresh memo's"
        );
    }
}

/// Drives one program's CEGAR loop through public calls, in the order
/// `verify_compiled` makes them, and at every iteration checks the
/// memoised abstraction (solver with models, run-wide cache) against
/// `abstract_program_with_oracle` under a solver-backed oracle (no models,
/// its own cache), byte for byte. Returns the loop's verdict and cycle
/// count.
fn abstractions_agree_at_every_iteration(name: &str, src: &str) -> (&'static str, usize) {
    let compiled = frontend(src).expect("compiles");
    let opts = VerifierOptions::default();
    let mut env = AbsEnv::initial(&compiled.cps);
    let cache = Arc::new(QueryCache::new());
    let solver = SmtSolver::new().with_cache(cache.clone());
    let oracle_solver = SmtSolver::new().with_cache(Arc::new(QueryCache::new()));
    let oracle = oracle_of(&oracle_solver);
    let mut memo = TransitionMemo::new();
    for iteration in 0..opts.max_iterations {
        let cycles = iteration + 1;
        let (bp, _) = abstract_program_incremental(
            &compiled.cps,
            &env,
            &opts.abs,
            None,
            Some(cache.clone()),
            &Tracer::disabled(),
            &Metrics::disabled(),
            &mut memo,
        )
        .expect("abstracts");
        let (bo, _) = abstract_program_with_oracle(&compiled.cps, &env, &opts.abs, &oracle)
            .expect("abstracts under the oracle");
        assert_eq!(
            bp.to_string(),
            bo.to_string(),
            "{name}: iteration {iteration}: the memoised and oracle abstractions differ"
        );
        let mut checker = Checker::new(&bp, opts.check).expect("checker");
        checker.saturate().expect("saturates");
        let path = if checker.may_fail() {
            find_error_path(&mut checker).expect("path search")
        } else {
            None
        };
        let Some(path) = path else {
            return ("safe", cycles);
        };
        let trace = build_trace(&compiled.cps, &source_labels(&path), opts.trace_fuel)
            .expect("trace replays");
        assert_eq!(
            trace.end,
            TraceEnd::ReachedFail,
            "{name}: iteration {iteration}"
        );
        let refine = RefineOptions {
            iteration,
            ..opts.refine
        };
        match refine_env(&compiled.cps, &trace, &mut env, &solver, &refine).expect("refines") {
            (Feasibility::Feasible(_), _) => return ("unsafe", cycles),
            (Feasibility::Infeasible, true) => {}
            _ => return ("unknown", cycles),
        }
    }
    ("unknown", opts.max_iterations)
}

/// The whole Table 1 suite: at every CEGAR iteration of every program the
/// memoised abstraction equals the oracle abstraction byte for byte, and
/// the loop driven by hand reaches the verdict and cycle count `verify`
/// reports, so the iterations checked are the verifier's own.
#[test]
fn suite_abstractions_byte_identical_at_every_iteration() {
    for p in suite::SUITE {
        let (verdict, cycles) = abstractions_agree_at_every_iteration(p.name, p.source);
        let out = verify(p.source, &VerifierOptions::default()).expect("no hard error");
        let expected = match out.verdict {
            Verdict::Safe => "safe",
            Verdict::Unsafe { .. } => "unsafe",
            Verdict::Unknown { .. } => "unknown",
        };
        assert_eq!(
            (verdict, cycles),
            (expected, out.stats.cycles),
            "{}: the hand-driven loop left the verifier's path",
            p.name
        );
    }
}

/// On a multi-iteration program, iterations after the first must reuse the
/// definitions refinement did not touch: `abs_defs_reused > 0`, with the
/// expected (safe) verdict intact. l-zipmap runs 3 CEGAR cycles.
#[test]
fn multi_iteration_run_reuses_memoized_definitions() {
    let p = suite::SUITE
        .iter()
        .find(|p| p.name == "l-zipmap")
        .expect("l-zipmap in suite");
    let out = verify(p.source, &VerifierOptions::default()).expect("no hard error");
    assert!(out.verdict.is_safe(), "l-zipmap must verify safe");
    assert!(
        out.stats.cycles >= 3,
        "l-zipmap must take multiple CEGAR cycles"
    );
    assert!(
        out.stats.abs_defs_reused > 0,
        "later iterations must reuse memoized definitions (got 0 reuses over {} cycles)",
        out.stats.cycles
    );
    assert!(
        out.stats.abs_queries_saved > 0,
        "memo reuse and model coverage must save abstraction queries"
    );
}
