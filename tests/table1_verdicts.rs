//! Integration test: every Table 1 program gets the paper's verdict.
//!
//! This is the headline reproduction check — each of the 30 benchmark
//! programs must verify (safe), be rejected with a genuine counterexample
//! (unsafe), or — for `apply` — at least never be rejected (the paper's
//! tool diverges; ours verifies it thanks to systematic ghost parameters).

use homc::{suite, verify, Expected, Verdict, VerifierOptions};

fn check(program: &suite::SuiteProgram, cycles: usize) {
    let out = verify(program.source, &VerifierOptions::default())
        .unwrap_or_else(|e| panic!("{}: hard error {e}", program.name));
    match program.expected {
        Expected::Safe => assert!(
            out.verdict.is_safe(),
            "{} must be safe, got {}",
            program.name,
            out.verdict
        ),
        Expected::Unsafe => match &out.verdict {
            Verdict::Unsafe { witness, path } => {
                // The witness must be a *real* counterexample: replay it
                // concretely and observe the failure.
                let compiled = homc_lang::frontend(program.source).expect("compiles");
                let mut driver = homc_lang::eval::ScriptDriver::new(path.clone(), witness.to_vec());
                let (outcome, _) = homc_lang::eval::run(&compiled.cps, &mut driver, 1_000_000);
                assert!(
                    outcome.is_fail(),
                    "{}: witness {witness:?} with path {path:?} does not replay to fail \
                     (got {outcome:?})",
                    program.name
                );
            }
            other => panic!("{} must be unsafe, got {other}", program.name),
        },
        Expected::Diverges => assert!(
            !out.verdict.is_unsafe(),
            "{} must not be rejected, got {}",
            program.name,
            out.verdict
        ),
    }
    // The order metric must match the paper's column O.
    assert_eq!(
        out.order, program.paper_order,
        "{}: order mismatch",
        program.name
    );
    assert_eq!(out.stats.cycles, cycles, "{}: cycle count", program.name);
}

macro_rules! suite_test {
    ($($name:ident: $cycles:expr),* $(,)?) => {
        $(
            #[test]
            fn $name() {
                let key = stringify!($name).replace('_', "-");
                let p = suite::find(&key).unwrap_or_else(|| panic!("no suite program {key}"));
                check(p, $cycles);
            }
        )*
    };
}

// Each program's CEGAR cycle count (column C) as `homc --suite --stats`
// and BENCH_table1.json report it. a-cppr's 1 says its first abstraction
// cannot fail.
suite_test!(
    intro1: 2,
    intro2: 2,
    intro3: 2,
    sum: 2,
    mult: 2,
    max: 2,
    mc91: 2,
    ack: 2,
    repeat: 2,
    fhnhn: 1,
    hrec: 2,
    neg: 2,
    apply: 2,
    a_prod: 2,
    a_cppr: 1,
    a_init: 2,
    a_max: 2,
    l_zipunzip: 2,
    l_zipmap: 3,
    hors: 2,
    e_simple: 2,
    e_fact: 3,
    r_lock: 4,
    r_file: 5,
    sum_e: 1,
    mult_e: 1,
    mc91_e: 1,
    repeat_e: 1,
    a_max_e: 1,
    r_lock_e: 4,
);
