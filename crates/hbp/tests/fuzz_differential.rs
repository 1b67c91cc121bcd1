//! Randomized differential testing: random well-typed boolean programs,
//! checked by the precise saturation engine and cross-validated against the
//! recursion-scheme control skeleton (via `homc-hors` in the workspace
//! integration tests) and against bounded concrete exploration here.
//!
//! The bounded explorer enumerates every execution up to a call depth; any
//! failure it finds must be found by the checker (completeness on bounded
//! witnesses), and if the checker says "cannot fail", the explorer must
//! find none (soundness).
//!
//! Programs come from a deterministic xorshift generator — reproducible and
//! dependency-free, so the test runs on an air-gapped CI runner. Build with
//! `--features slow-tests` for a deeper sweep.

use std::collections::BTreeMap;

use homc_hbp::check::{model_check, CheckLimits};
use homc_hbp::{BDef, BExpr, BProgram, BTy, BVal, BoolExpr};
use homc_smt::Var;

/// Deterministic xorshift64* generator.
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

    fn index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// All defs share the signature (bool, unit → unit) → unit, so any
/// generated call is well-typed by construction.
fn sig() -> Vec<(Var, BTy)> {
    vec![
        (Var::new("b"), BTy::Tuple(1)),
        (Var::new("k"), BTy::fun(BTy::unit(), BTy::unit())),
    ]
}

fn gen_cond(rng: &mut Rng) -> BoolExpr {
    match rng.index(3) {
        0 => BoolExpr::Proj(Var::new("b"), 0),
        1 => BoolExpr::not(BoolExpr::Proj(Var::new("b"), 0)),
        _ => BoolExpr::TRUE,
    }
}

fn gen_arg(rng: &mut Rng) -> BoolExpr {
    match rng.index(4) {
        0 => BoolExpr::TRUE,
        1 => BoolExpr::FALSE,
        2 => BoolExpr::Proj(Var::new("b"), 0),
        _ => BoolExpr::not(BoolExpr::Proj(Var::new("b"), 0)),
    }
}

/// Bodies over `n_defs` mutually recursive functions. Leaf weights mirror
/// the original fuzzing distribution: continuation call 3, fail 1, call 2.
fn gen_body(rng: &mut Rng, n_defs: usize, depth: u32) -> BExpr {
    if depth == 0 || rng.index(3) == 0 {
        return match rng.index(6) {
            0..=2 => BExpr::Call(BVal::Var(Var::new("k")), vec![BVal::unit()]),
            3 => BExpr::Fail,
            _ => {
                let i = rng.index(n_defs);
                let a = gen_arg(rng);
                BExpr::Call(
                    BVal::Fun(format!("f{i}").as_str().into()),
                    vec![BVal::Tuple(vec![a]), BVal::Var(Var::new("k"))],
                )
            }
        };
    }
    match rng.index(3) {
        0 => BExpr::schoice(
            gen_body(rng, n_defs, depth - 1),
            gen_body(rng, n_defs, depth - 1),
        ),
        1 => BExpr::achoice(
            gen_body(rng, n_defs, depth - 1),
            gen_body(rng, n_defs, depth - 1),
        ),
        _ => BExpr::assume(gen_cond(rng), gen_body(rng, n_defs, depth - 1)),
    }
}

fn gen_program(rng: &mut Rng) -> BProgram {
    let n = 3usize;
    let mut defs: Vec<BDef> = (0..n)
        .map(|i| BDef {
            name: format!("f{i}").as_str().into(),
            params: sig(),
            body: gen_body(rng, n, 3),
        })
        .collect();
    defs.push(BDef {
        name: "ok".into(),
        params: vec![(Var::new("u"), BTy::unit())],
        body: BExpr::Value(BVal::unit()),
    });
    // main fixes b = true and k = ok.
    let main_body = inline_entry(gen_body(rng, n, 2));
    defs.push(BDef {
        name: "main".into(),
        params: vec![],
        body: main_body,
    });
    BProgram {
        defs,
        main: "main".into(),
    }
}

/// Rewrites the generated body into a closed entry: `b` becomes ⟨true⟩ and
/// `k` becomes `ok` (done by let-binding, keeping the body untouched).
fn inline_entry(body: BExpr) -> BExpr {
    BExpr::let_(
        Var::new("b"),
        BExpr::Value(BVal::Tuple(vec![BoolExpr::TRUE])),
        BExpr::let_(Var::new("k"), BExpr::Value(BVal::Fun("ok".into())), body),
    )
}

/// Bounded concrete exploration: can `fail` be reached within `depth`
/// nested calls?
fn explore(p: &BProgram, e: &BExpr, env: &BTreeMap<Var, CVal>, depth: usize) -> bool {
    match e {
        BExpr::Fail => true,
        BExpr::Value(_) => false,
        BExpr::SChoice(l, r) | BExpr::AChoice(l, r) => {
            explore(p, l, env, depth) || explore(p, r, env, depth)
        }
        BExpr::Assume(c, body) => {
            let proj = |x: &Var, i: usize| match env.get(x) {
                Some(CVal::Base(bits)) => (bits >> i) & 1 == 1,
                _ => panic!("bad projection"),
            };
            c.eval(&proj) && explore(p, body, env, depth)
        }
        BExpr::Let(x, rhs, body) => {
            // Enumerate rhs values.
            let mut any = false;
            for v in rhs_values(rhs, env) {
                let mut env2 = env.clone();
                env2.insert(x.clone(), v);
                any |= explore(p, body, &env2, depth);
            }
            any
        }
        BExpr::Call(h, args) => {
            if depth == 0 {
                return false;
            }
            let head = eval_val(h, env);
            let mut full = match head {
                CVal::Clo(f, prev) => {
                    let mut prev = prev;
                    prev.extend(args.iter().map(|a| eval_val(a, env)));
                    (f, prev)
                }
                CVal::Base(_) => panic!("call of base"),
            };
            let def = p.def(&full.0).expect("defined");
            let mut env2 = BTreeMap::new();
            for ((x, _), v) in def.params.iter().zip(full.1.drain(..)) {
                env2.insert(x.clone(), v);
            }
            explore(p, &def.body, &env2, depth - 1)
        }
    }
}

#[derive(Clone)]
enum CVal {
    Base(u64),
    Clo(homc_hbp::FunName, Vec<CVal>),
}

fn eval_val(v: &BVal, env: &BTreeMap<Var, CVal>) -> CVal {
    match v {
        BVal::Tuple(es) => {
            let proj = |x: &Var, i: usize| match env.get(x) {
                Some(CVal::Base(bits)) => (bits >> i) & 1 == 1,
                _ => panic!("bad projection"),
            };
            let mut bits = 0u64;
            for (i, e) in es.iter().enumerate() {
                if e.eval(&proj) {
                    bits |= 1 << i;
                }
            }
            CVal::Base(bits)
        }
        BVal::Var(x) => env.get(x).cloned().expect("bound"),
        BVal::Fun(f) => CVal::Clo(f.clone(), Vec::new()),
        BVal::PApp(h, args) => match eval_val(h, env) {
            CVal::Clo(f, mut prev) => {
                prev.extend(args.iter().map(|a| eval_val(a, env)));
                CVal::Clo(f, prev)
            }
            CVal::Base(_) => panic!("papp of base"),
        },
    }
}

fn rhs_values(e: &BExpr, env: &BTreeMap<Var, CVal>) -> Vec<CVal> {
    match e {
        BExpr::Value(v) => vec![eval_val(v, env)],
        BExpr::SChoice(l, r) | BExpr::AChoice(l, r) => {
            let mut out = rhs_values(l, env);
            out.extend(rhs_values(r, env));
            out
        }
        BExpr::Assume(c, body) => {
            let proj = |x: &Var, i: usize| match env.get(x) {
                Some(CVal::Base(bits)) => (bits >> i) & 1 == 1,
                _ => panic!("bad projection"),
            };
            if c.eval(&proj) {
                rhs_values(body, env)
            } else {
                Vec::new()
            }
        }
        BExpr::Let(x, rhs, body) => {
            let mut out = Vec::new();
            for v in rhs_values(rhs, env) {
                let mut env2 = env.clone();
                env2.insert(x.clone(), v);
                out.extend(rhs_values(body, &env2));
            }
            out
        }
        BExpr::Call(_, _) | BExpr::Fail => Vec::new(),
    }
}

/// Checker verdicts agree with bounded concrete exploration.
#[test]
fn checker_agrees_with_bounded_exploration() {
    let cases = if cfg!(feature = "slow-tests") {
        768
    } else {
        96
    };
    let mut rng = Rng::new(0xD1FF);
    for _ in 0..cases {
        let p = gen_program(&mut rng);
        if p.check().is_err() {
            continue;
        }
        let Ok((may_fail, _)) = model_check(&p, CheckLimits::default()) else {
            continue; // budget; nothing to compare
        };
        let main = p.def(&"main".into()).expect("main").clone();
        let bounded = explore(&p, &main.body, &BTreeMap::new(), 8);
        // Soundness of "safe": if the checker says cannot-fail, bounded
        // search must find nothing.
        if !may_fail {
            assert!(!bounded, "checker says safe but depth-8 exploration fails");
        }
        // Completeness on bounded witnesses: anything the explorer finds,
        // the checker must find.
        if bounded {
            assert!(may_fail, "depth-8 failure missed by the checker");
        }
    }
}
