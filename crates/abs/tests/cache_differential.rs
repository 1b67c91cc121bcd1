//! Differential test: predicate abstraction through a shared query cache
//! must be *byte-identical* to the uncached run — same boolean program, same
//! printed form — both on a cold cache and on a warm rerun that answers
//! every entailment from the cache.
//!
//! The cache may change how many queries reach the solver, never their
//! answers; this test pins that down at the abstraction level.

use std::sync::Arc;

use homc_abs::{
    abstract_program_incremental, AbsEnv, AbsOptions, AbsTy, Predicate, TransitionMemo,
};
use homc_lang::frontend;
use homc_lang::kernel::Program;
use homc_lang::types::SimpleTy;
use homc_metrics::Metrics;
use homc_smt::{Atom, Formula, LinExpr, QueryCache, Var};
use homc_trace::Tracer;

const PROGRAMS: [&str; 4] = [
    // The paper's M1.
    "let f x g = g (x + 1) in
     let h y = assert (y > 0) in
     let k n = if n > 0 then f n h else () in
     k m",
    // The paper's M3 (dependent predicates get installed below).
    "let f x g = g (x + 1) in
     let h z y = assert (y > z) in
     let k n = if n >= 0 then f n (h n) else () in
     k m",
    // Recursion + state threading (r-lock shape): many definitions, so
    // later definitions hit entailments cached by earlier ones.
    "let lock st = assert (st = 0); 1 in
     let unlock st = assert (st = 1); 0 in
     let rec loop n st = if n <= 0 then st else loop (n - 1) (unlock (lock st)) in
     assert (loop n 0 = 0)",
    // A genuinely unsafe program: failure paths must also be identical.
    "let rec sum n = if n <= 0 then 0 else n + sum (n - 1) in
     assert (m <= sum m)",
];

/// Installs `λν.ν > 0` on every integer position so the abstraction issues
/// real SMT queries (an empty environment would leave little to cache).
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

/// Compiles `src` and builds its environment with `ν > 0` everywhere.
fn env_for(src: &str) -> (Program, AbsEnv) {
    let compiled = frontend(src).expect("compiles");
    let mut env = AbsEnv::initial(&compiled.cps);
    for scheme in env.schemes.values_mut() {
        for (_, t) in scheme.iter_mut() {
            *t = with_gt0(t);
        }
    }
    (compiled.cps, env)
}

/// Abstracts `program` through `cache` (or none) with a fresh memo,
/// returning the printed boolean program.
fn render(program: &Program, env: &AbsEnv, cache: Option<Arc<QueryCache>>) -> String {
    let (bp, _) = abstract_program_incremental(
        program,
        env,
        &AbsOptions::default(),
        None,
        cache,
        &Tracer::disabled(),
        &Metrics::disabled(),
        &mut TransitionMemo::new(),
    )
    .expect("abstracts");
    bp.check().expect("well-formed boolean program");
    bp.to_string()
}

#[test]
fn cached_abstraction_is_byte_identical_to_uncached() {
    for (i, src) in PROGRAMS.iter().enumerate() {
        let (program, env) = env_for(src);
        let baseline = render(&program, &env, None);
        // Abstract twice through one cache: the first run fills it, the
        // second (all-hits) run must not change the output either.
        let shared = Arc::new(QueryCache::new());
        let cold = render(&program, &env, Some(shared.clone()));
        assert_eq!(baseline, cold, "program {i}: cached run diverged");
        let warm = render(&program, &env, Some(shared));
        assert_eq!(baseline, warm, "program {i}: warm-cache rerun diverged");
    }
}
