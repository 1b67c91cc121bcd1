//! Differential test: a cache-backed [`SmtSolver`] must decide exactly the
//! same verdict class as an uncached one on random QF_LIA formulas — on the
//! first pass (cache misses solve the *original* formula) and on a second
//! pass over permuted-but-canonically-equal formulas (cache hits replay the
//! stored verdict).
//!
//! The generator is a deterministic xorshift64* PRNG, so failures reproduce
//! without any external fuzzing crate.

use std::sync::Arc;

use homc_smt::{Atom, Formula, LinExpr, QueryCache, SatResult, SmtSolver, Var};

/// xorshift64* — deterministic, dependency-free.
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

const VARS: [&str; 4] = ["x", "y", "z", "w"];

fn rand_expr(rng: &mut Rng) -> LinExpr {
    let mut e = LinExpr::constant(rng.int(-5, 5));
    for _ in 0..=rng.below(2) {
        let v = VARS[rng.below(VARS.len() as u64) as usize];
        e.add_term(rng.int(-3, 3), Var::new(v));
    }
    e
}

fn rand_atom(rng: &mut Rng) -> Formula {
    let a = rand_expr(rng);
    let b = rand_expr(rng);
    let atom = match rng.below(5) {
        0 => Atom::le(a, b),
        1 => Atom::lt(a, b),
        2 => Atom::ge(a, b),
        3 => Atom::gt(a, b),
        _ => Atom::eq(a, b),
    };
    Formula::atom(atom)
}

fn rand_formula(rng: &mut Rng, depth: u32) -> Formula {
    if depth == 0 || rng.below(4) == 0 {
        return rand_atom(rng);
    }
    match rng.below(3) {
        0 => Formula::and((0..2 + rng.below(2)).map(|_| rand_formula(rng, depth - 1))),
        1 => Formula::or((0..2 + rng.below(2)).map(|_| rand_formula(rng, depth - 1))),
        _ => Formula::not(rand_formula(rng, depth - 1)),
    }
}

/// Reverses the child order of every conjunction/disjunction — a different
/// syntax tree with the same canonical form, so it must hit the cache.
fn permute(f: &Formula) -> Formula {
    match f {
        Formula::And(parts) => Formula::And(parts.iter().rev().map(permute).collect()),
        Formula::Or(parts) => Formula::Or(parts.iter().rev().map(permute).collect()),
        Formula::Not(inner) => Formula::Not(Box::new(permute(inner))),
        leaf => leaf.clone(),
    }
}

/// The verdict class — what must agree between cached and uncached runs
/// (models may legally differ once a stored model is replayed for a
/// permuted formula).
fn class(r: &SatResult) -> &'static str {
    match r {
        SatResult::Sat(_) => "sat",
        SatResult::Unsat => "unsat",
        SatResult::Unknown => "unknown",
        SatResult::Exhausted(_) => "exhausted",
    }
}

#[test]
fn cached_solver_agrees_with_uncached_on_random_formulas() {
    let plain = SmtSolver::new();
    let cache = Arc::new(QueryCache::new());
    let cached = SmtSolver::new().with_cache(cache.clone());
    let mut rng = Rng::new(0x9E37_79B9_7F4A_7C15);

    let mut formulas = Vec::with_capacity(1_000);
    for i in 0..1_000 {
        let f = rand_formula(&mut rng, 3);
        let want = class(&plain.check(&f));
        let got = class(&cached.check(&f));
        assert_eq!(want, got, "case {i}: cached diverged on {f:?}");
        // Sat models found on a miss are the uncached solver's own models:
        // a Sat verdict must always be certified by the formula itself.
        if let SatResult::Sat(m) = cached.check(&f) {
            let env = |v: &Var| Some(m.int(v));
            assert_eq!(
                f.eval(&env, &|_| None),
                Some(true),
                "case {i}: bad model for {f:?}"
            );
        }
        formulas.push((f, want));
    }
    let after_first = cache.stats();
    assert!(
        after_first.misses() > 0,
        "the first pass must populate the cache: {after_first:?}"
    );

    // Second pass: child-permuted formulas canonicalize to the same key,
    // so they must (a) agree with the uncached verdict and (b) hit.
    for (i, (f, want)) in formulas.iter().enumerate() {
        let p = permute(f);
        assert_eq!(
            *want,
            class(&cached.check(&p)),
            "case {i}: permuted formula diverged on {p:?}"
        );
    }
    let after_second = cache.stats();
    assert!(
        after_second.hits() >= after_first.hits() + 900,
        "permuted formulas must hit the canonical cache: {after_second:?}"
    );
}
