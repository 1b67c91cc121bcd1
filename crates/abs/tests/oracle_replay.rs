//! The evidence layer's core replay property: abstracting with an oracle
//! that answers from a recorded UNSAT set reproduces the solver-driven
//! abstraction byte-for-byte, and forgetting an UNSAT answer only ever
//! *coarsens* the program (more cubes survive pruning), never changes what
//! the answered queries mean.

use std::cell::RefCell;
use std::collections::BTreeSet;

use homc_abs::{
    abstract_program, abstract_program_with_oracle, AbsEnv, AbsOptions, AbsTy, Predicate,
};
use homc_lang::frontend;
use homc_lang::types::SimpleTy;
use homc_smt::{Atom, Formula, LinExpr, SmtSolver, Var};

const PROGRAMS: [&str; 3] = [
    "let f x g = g (x + 1) in
     let h y = assert (y > 0) in
     let k n = if n > 0 then f n h else () in
     k m",
    "let f x g = g (x + 1) in
     let h z y = assert (y > z) in
     let k n = if n >= 0 then f n (h n) else () in
     k m",
    "let rec sum n = if n <= 0 then 0 else n + sum (n - 1) in
     assert (m <= sum m)",
];

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

fn env_for(src: &str) -> (homc_lang::Compiled, AbsEnv) {
    let compiled = frontend(src).expect("compiles");
    let mut env = AbsEnv::initial(&compiled.cps);
    for scheme in env.schemes.values_mut() {
        for (_, t) in scheme.iter_mut() {
            *t = with_gt0(t);
        }
    }
    (compiled, env)
}

#[test]
fn recorded_unsat_set_replays_byte_identically() {
    for src in PROGRAMS {
        let (compiled, env) = env_for(src);
        let opts = AbsOptions::default();
        let (reference, _) = abstract_program(&compiled.cps, &env, &opts).expect("abstracts");

        // Record pass: a live solver behind the oracle, noting which
        // canonical queries came back UNSAT.
        let unsat: RefCell<BTreeSet<Formula>> = RefCell::new(BTreeSet::new());
        let solver = SmtSolver::new();
        let record = |f: &Formula| {
            let sat = solver.maybe_sat(f);
            if !sat {
                unsat.borrow_mut().insert(f.canon());
            }
            Ok(sat)
        };
        let (recorded, _) =
            abstract_program_with_oracle(&compiled.cps, &env, &opts, &record).expect("abstracts");
        assert_eq!(reference.to_string(), recorded.to_string());

        // Replay pass: answers come from the recorded set alone.
        let unsat: BTreeSet<Formula> = unsat.borrow().clone();
        let replay = move |f: &Formula| Ok(!unsat.contains(&f.canon()));
        let (replayed, _) =
            abstract_program_with_oracle(&compiled.cps, &env, &opts, &replay).expect("abstracts");
        assert_eq!(reference.to_string(), replayed.to_string());

        // Forgetting every UNSAT answer still abstracts (coarser program,
        // never an error) — the sound degradation mode for unproved queries.
        let all_sat = |_: &Formula| Ok(true);
        let (coarse, _) =
            abstract_program_with_oracle(&compiled.cps, &env, &opts, &all_sat).expect("abstracts");
        assert!(coarse.size() >= reference.size());
    }
}
