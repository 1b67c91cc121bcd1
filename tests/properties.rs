//! Randomized property tests for the core substrates.
//!
//! Self-contained: cases come from a deterministic xorshift generator, so
//! the tests are reproducible and need no external crates (the suite must
//! build and run on an air-gapped CI runner). The default case counts keep
//! the suite fast; build with `--features slow-tests` for deeper sweeps.

use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap, HashSet};

use homc_smt::{
    int_sat, interpolate, is_interpolant, prove_unsat, rational_sat, rational_sat_cached,
    verify_unsat, Atom, Formula, IntResult, LinExpr, QueryCache, Rat, RatResult, Rel, SatResult,
    SmtSolver, Var,
};

/// Deterministic xorshift64* generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i128, hi: i128) -> i128 {
        let span = (hi - lo + 1) as u128;
        lo + (self.next_u64() as u128 % span) as i128
    }

    /// Uniform in `0..n`.
    pub fn index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Shuffles `v` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.index(i + 1));
        }
    }
}

/// Case count, scaled up under the `slow-tests` feature.
fn cases(fast: usize) -> usize {
    if cfg!(feature = "slow-tests") {
        fast * 8
    } else {
        fast
    }
}

const VARS: [&str; 4] = ["x", "y", "z", "w"];

fn gen_linexpr(rng: &mut Rng) -> LinExpr {
    let mut e = LinExpr::constant(rng.range(-10, 10));
    for _ in 0..rng.index(3) {
        e = e + LinExpr::term(rng.range(-5, 5), Var::new(VARS[rng.index(VARS.len())]));
    }
    e
}

fn gen_atom(rng: &mut Rng) -> Atom {
    let a = gen_linexpr(rng);
    let b = gen_linexpr(rng);
    match rng.index(5) {
        0 => Atom::le(a, b),
        1 => Atom::lt(a, b),
        2 => Atom::ge(a, b),
        3 => Atom::gt(a, b),
        _ => Atom::eq(a, b),
    }
}

fn gen_formula(rng: &mut Rng, depth: u32) -> Formula {
    if depth == 0 || rng.index(3) == 0 {
        return Formula::atom(gen_atom(rng));
    }
    match rng.index(3) {
        0 => Formula::and2(gen_formula(rng, depth - 1), gen_formula(rng, depth - 1)),
        1 => Formula::or2(gen_formula(rng, depth - 1), gen_formula(rng, depth - 1)),
        _ => Formula::not(gen_formula(rng, depth - 1)),
    }
}

fn gen_atoms(rng: &mut Rng) -> Vec<Atom> {
    (0..1 + rng.index(5)).map(|_| gen_atom(rng)).collect()
}

/// A model returned by the conjunction solver satisfies every atom.
#[test]
fn int_sat_models_are_models() {
    let mut rng = Rng::new(0xA11CE);
    for _ in 0..cases(128) {
        let atoms = gen_atoms(&mut rng);
        if let IntResult::Sat(m) = int_sat(&atoms, 32) {
            let env = |v: &Var| m.get(v).copied().or(Some(0));
            for a in &atoms {
                assert_eq!(a.eval(&env), Some(true), "violated {a}");
            }
        }
    }
}

/// Unsat certificates check out (Farkas combination sums to a positive
/// constant).
#[test]
fn farkas_certificates_verify() {
    let mut rng = Rng::new(0xFA12CA5);
    for _ in 0..cases(128) {
        let atoms = gen_atoms(&mut rng);
        if let RatResult::Unsat(cert) = rational_sat(&atoms) {
            assert!(homc_smt::check_certificate(&atoms, &cert));
        }
    }
}

/// Whether a rational model satisfies `a`, evaluated exactly (variables the
/// model leaves out read as zero).
fn rat_holds(a: &Atom, model: &BTreeMap<Var, Rat>) -> bool {
    let mut sum = Rat::int(a.lhs().constant_part());
    for (v, c) in a.lhs().iter() {
        sum = sum + Rat::int(c) * model.get(v).copied().unwrap_or(Rat::ZERO);
    }
    match a.rel() {
        Rel::Le => sum <= Rat::ZERO,
        Rel::Eq => sum == Rat::ZERO,
    }
}

/// Checks one `rational_sat` answer: a Sat model satisfies every atom
/// exactly, an Unsat certificate checks against the atoms in their order.
/// Returns whether the answer was Sat.
fn check_rat_answer(atoms: &[Atom], answer: RatResult) -> bool {
    match answer {
        RatResult::Sat(model) => {
            for a in atoms {
                assert!(rat_holds(a, &model), "model {model:?} violates {a}");
            }
            true
        }
        RatResult::Unsat(cert) => {
            assert!(
                homc_smt::check_certificate(atoms, &cert),
                "certificate {cert:?} does not check against {atoms:?}"
            );
            false
        }
    }
}

/// A rational model satisfies every atom under exact evaluation, not only
/// after branch & bound has rounded it to integers.
#[test]
fn rational_sat_models_are_models() {
    let mut rng = Rng::new(0x05A7_3AB5);
    let mut sat = 0;
    for _ in 0..cases(256) {
        let atoms = gen_atoms(&mut rng);
        sat += usize::from(check_rat_answer(&atoms, rational_sat(&atoms)));
    }
    assert!(sat > 0, "no satisfiable case generated");
}

/// An equality chain `x1 = x0 + c0, …, xn = x(n-1) + c(n-1)` of 20–130
/// atoms, a few links weakened to `>=`, with bounds `x0 >= 0` and
/// `xn <= t` around the chain's total (so that `xn >= x0 + total` makes
/// about half the chains unsatisfiable), and the atoms in shuffled order.
/// Long chains take the Gaussian substitution path once per equality.
fn gen_chain(rng: &mut Rng) -> Vec<Atom> {
    let n = rng.range(18, 128) as usize;
    let x = |i: usize| LinExpr::var(format!("x{i}"));
    let mut atoms = Vec::new();
    let mut total = 0;
    for i in 0..n {
        let c = rng.range(-9, 9);
        total += c;
        let next = x(i) + LinExpr::constant(c);
        atoms.push(if rng.index(8) == 0 {
            Atom::ge(x(i + 1), next)
        } else {
            Atom::eq(x(i + 1), next)
        });
    }
    atoms.push(Atom::ge(x(0), LinExpr::constant(0)));
    atoms.push(Atom::le(x(n), LinExpr::constant(total + rng.range(-3, 2))));
    rng.shuffle(&mut atoms);
    atoms
}

/// On long equality chains a Sat model satisfies every link and an Unsat
/// certificate checks. The cached solver, asked again for a shuffled copy,
/// answers from its table with a certificate remapped to the shuffled
/// order, which must check there too.
#[test]
fn equality_chains_solve_and_cache_across_orders() {
    let mut rng = Rng::new(0x00C4_A145);
    let (mut sat, mut unsat) = (0, 0);
    for _ in 0..cases(24) {
        let atoms = gen_chain(&mut rng);
        let cache = QueryCache::new();
        let fresh = rational_sat_cached(&atoms, Some(&cache));
        if check_rat_answer(&atoms, fresh) {
            sat += 1;
        } else {
            unsat += 1;
        }
        let mut shuffled = atoms.clone();
        rng.shuffle(&mut shuffled);
        check_rat_answer(&shuffled, rational_sat_cached(&shuffled, Some(&cache)));
        let s = cache.stats();
        assert_eq!((s.rat_hits, s.rat_misses), (1, 1), "shuffled copy missed");
    }
    assert!(sat > 0 && unsat > 0, "sat {sat}, unsat {unsat}");
}

/// UNSAT proofs are the search's own refutations: `prove_unsat` finds one
/// exactly when the uncached solver answers Unsat, every proof it finds
/// passes `verify_unsat`, and no proof of another formula passes for a
/// satisfiable one.
#[test]
fn unsat_proofs_match_the_solver() {
    let mut rng = Rng::new(0x9200F5);
    let solver = SmtSolver::new();
    let (mut proofs, mut sat) = (Vec::new(), Vec::new());
    for _ in 0..cases(192) {
        // Conjoining two random formulas makes Unsat common enough to test.
        let f = Formula::and2(gen_formula(&mut rng, 3), gen_formula(&mut rng, 3));
        let verdict = solver.check(&f);
        let proof = prove_unsat(&f);
        assert_eq!(
            proof.is_some(),
            matches!(verdict, SatResult::Unsat),
            "{f}: {verdict:?}"
        );
        if let Some(p) = proof {
            assert!(verify_unsat(&f, &p), "own proof rejected: {f}");
            proofs.push(p);
        } else if verdict.is_sat() {
            sat.push(f);
        }
    }
    assert!(
        proofs.len() >= 16 && sat.len() >= 16,
        "{} unsat, {} sat",
        proofs.len(),
        sat.len()
    );
    for f in &sat {
        for p in &proofs {
            assert!(!verify_unsat(f, p), "a proof certified a satisfiable {f}");
        }
    }
}

/// The solver agrees with brute-force evaluation on a small grid: if some
/// grid point satisfies the formula, the solver must say Sat.
#[test]
fn solver_not_wrongly_unsat() {
    let mut rng = Rng::new(0x50156E);
    let solver = SmtSolver::new();
    for _ in 0..cases(128) {
        let f = gen_formula(&mut rng, 2);
        let verdict = solver.check(&f);
        let mut some_model = false;
        'grid: for x in -3i128..=3 {
            for y in -3i128..=3 {
                for z in -3i128..=3 {
                    let ints = |v: &Var| {
                        Some(match v.name() {
                            "x" => x,
                            "y" => y,
                            "z" => z,
                            _ => 0,
                        })
                    };
                    if f.eval(&ints, &|_| Some(false)) == Some(true) {
                        some_model = true;
                        break 'grid;
                    }
                }
            }
        }
        if some_model {
            assert!(
                !matches!(verdict, SatResult::Unsat),
                "grid model exists but solver says Unsat for {f}"
            );
        }
    }
}

/// Sat verdicts come with genuine models.
#[test]
fn solver_models_evaluate_true() {
    let mut rng = Rng::new(0x5A7);
    let solver = SmtSolver::new();
    for _ in 0..cases(128) {
        let f = gen_formula(&mut rng, 2);
        if let SatResult::Sat(m) = solver.check(&f) {
            assert!(m.eval(&f), "returned model falsifies {f}");
        }
    }
}

/// Interpolants satisfy all three defining properties whenever the
/// procedure succeeds.
#[test]
fn interpolants_are_interpolants() {
    let mut rng = Rng::new(0x1A7E);
    let solver = SmtSolver::new();
    for _ in 0..cases(128) {
        let a = gen_formula(&mut rng, 1);
        let b = gen_formula(&mut rng, 1);
        if matches!(
            solver.check(&Formula::and2(a.clone(), b.clone())),
            SatResult::Unsat
        ) {
            if let Ok(i) = interpolate(&a, &b) {
                assert!(
                    is_interpolant(&a, &b, &i),
                    "bad interpolant {i} for A={a} B={b}"
                );
            }
        }
    }
}

/// NNF preserves meaning.
#[test]
fn nnf_preserves_semantics() {
    let mut rng = Rng::new(0x22F);
    for _ in 0..cases(128) {
        let f = gen_formula(&mut rng, 2);
        let x = rng.range(-3, 3);
        let y = rng.range(-3, 3);
        let ints = |v: &Var| {
            Some(match v.name() {
                "x" => x,
                "y" => y,
                _ => 0,
            })
        };
        let bools = |_: &Var| Some(false);
        assert_eq!(f.eval(&ints, &bools), f.nnf().eval(&ints, &bools));
    }
}

/// Up to six terms over `VARS`, repeats and zero coefficients included, so
/// that building them up merges, cancels and drops entries.
fn gen_terms(rng: &mut Rng) -> Vec<(i128, &'static str)> {
    (0..rng.index(7))
        .map(|_| (rng.range(-3, 3), VARS[rng.index(VARS.len())]))
        .collect()
}

/// The sorted-map view of an expression: its pairs in order, then its
/// constant. The derived orders of `LinExpr` and `Atom` must be this one.
fn pairs(e: &LinExpr) -> (Vec<(Var, i128)>, i128) {
    (
        e.iter().map(|(v, c)| (v.clone(), c)).collect(),
        e.constant_part(),
    )
}

/// `a` rebuilt from its parts with fresh variable names and a fresh atom,
/// so it shares no allocation with `a`.
fn rebuilt(a: &Atom) -> Atom {
    let mut lhs = LinExpr::constant(a.lhs().constant_part());
    for (v, c) in a.lhs().iter() {
        lhs.add_term(c, Var::new(v.name()));
    }
    match a.rel() {
        Rel::Le => Atom::le0(lhs),
        Rel::Eq => Atom::eq0(lhs),
    }
}

/// One expression built four ways from the same terms in shuffled orders:
/// by `+`, by `add_term`, by substituting each term for a placeholder, and
/// by renaming placeholders onto the terms' variables. All four are `==`,
/// compare `Equal`, and are one key of a `HashSet`.
#[test]
fn linexprs_from_shuffled_terms_are_one_value() {
    let mut rng = Rng::new(0x5EED_11E7);
    for _ in 0..cases(256) {
        let terms = gen_terms(&mut rng);
        let k = rng.range(-5, 5);
        let placeholder = |i: usize| Var::new(format!("p{i}"));
        let mut order: Vec<usize> = (0..terms.len()).collect();

        let by_add = terms
            .iter()
            .fold(LinExpr::constant(k), |e, &(c, v)| e + LinExpr::term(c, v));

        rng.shuffle(&mut order);
        let mut by_add_term = LinExpr::constant(k);
        for &i in &order {
            by_add_term.add_term(terms[i].0, Var::new(terms[i].1));
        }

        rng.shuffle(&mut order);
        let mut by_subst = (0..terms.len()).fold(LinExpr::constant(k), |e, i| {
            e + LinExpr::var(placeholder(i))
        });
        for &i in &order {
            let (c, v) = terms[i];
            by_subst = by_subst.subst(&placeholder(i), &LinExpr::term(c, v));
        }

        rng.shuffle(&mut order);
        let mut by_rename = LinExpr::constant(k);
        for &i in &order {
            by_rename.add_term(terms[i].0, placeholder(i));
        }
        let by_rename = by_rename.rename(&mut |p: &Var| {
            let i: usize = p.name()[1..].parse().expect("placeholder index");
            Var::new(terms[i].1)
        });

        let all = [by_add, by_add_term, by_subst, by_rename];
        for e in &all[1..] {
            assert_eq!(e, &all[0], "terms {terms:?} + {k}");
            assert_eq!(e.cmp(&all[0]), Ordering::Equal, "terms {terms:?} + {k}");
        }
        assert_eq!(all.iter().collect::<HashSet<_>>().len(), 1);
    }
}

/// `iter()` never yields a zero coefficient, however the expression was
/// built, and an expression minus itself is the constant zero.
#[test]
fn no_zero_coefficient_survives() {
    let mut rng = Rng::new(0x0000_2E60);
    for _ in 0..cases(256) {
        let mut e = LinExpr::zero();
        for (c, v) in gen_terms(&mut rng) {
            if rng.index(2) == 0 {
                e = e + LinExpr::term(c, v);
            } else {
                e.add_term(c, Var::new(v));
            }
            assert!(e.iter().all(|(_, c)| c != 0), "{e}");
        }
        let v = Var::new(VARS[rng.index(VARS.len())]);
        let c = e.coeff(&v);
        e.add_term(-c, v.clone());
        assert_eq!(e.coeff(&v), 0);
        assert!(e.vars().all(|w| *w != v), "{e} still names {v}");
        let zero = e.clone() + -e.clone();
        assert!(zero.is_constant(), "{e} minus itself is {zero}");
        assert_eq!(zero, LinExpr::zero());
        assert_eq!(e.clone() - e, LinExpr::zero());
    }
}

/// `LinExpr::cmp` is the order of `(pairs, constant)`, and `Atom::cmp` is
/// that order and then the relation: the order of the sorted maps these
/// types were built on, which every canonical form and cache key sorts by.
#[test]
fn orders_are_the_sorted_pairs_order() {
    let mut rng = Rng::new(0x0DE2_0DE2);
    let mut equal = 0;
    for _ in 0..cases(512) {
        let (a, b) = (gen_linexpr(&mut rng), gen_linexpr(&mut rng));
        assert_eq!(a.cmp(&b), pairs(&a).cmp(&pairs(&b)), "{a} vs {b}");
        let (a, b) = (gen_atom(&mut rng), gen_atom(&mut rng));
        let key = |a: &Atom| (pairs(a.lhs()), a.rel());
        assert_eq!(a.cmp(&b), key(&a).cmp(&key(&b)), "{a} vs {b}");
        assert_eq!(a == b, key(&a) == key(&b), "{a} vs {b}");
        equal += usize::from(a == b);
        assert_eq!(a.cmp(&a.clone()), Ordering::Equal);
    }
    assert!(equal > 0, "no equal pair generated");
}

/// Two atoms built independently from equal expressions share no
/// allocation, yet are `==`, compare `Equal` and are one `HashMap` key.
#[test]
fn independently_built_atoms_are_one_key() {
    let mut rng = Rng::new(0x0A70_0A70);
    for _ in 0..cases(256) {
        let a = gen_atom(&mut rng);
        let b = rebuilt(&a);
        assert_eq!(a, b);
        assert_eq!(a.cmp(&b), Ordering::Equal);
        let mut map = HashMap::new();
        map.insert(a.clone(), 1);
        assert_eq!(map.get(&b), Some(&1), "{a} missed its rebuilt copy");
        map.insert(b, 2);
        assert_eq!(map.len(), 1);
    }
}

/// `Formula::canon` makes a conjunction's permutations collide, also when
/// the permuted copy's atoms were rebuilt rather than shared.
#[test]
fn canon_ignores_conjunct_order() {
    let mut rng = Rng::new(0xCA70_0C0A);
    for _ in 0..cases(128) {
        let parts: Vec<Formula> = (0..2 + rng.index(5))
            .map(|_| gen_formula(&mut rng, 2))
            .collect();
        let mut shuffled: Vec<Formula> = parts
            .iter()
            .map(|f| f.rename(&mut |v: &Var| Var::new(v.name())))
            .collect();
        rng.shuffle(&mut shuffled);
        let (f, g) = (Formula::And(parts), Formula::And(shuffled));
        assert_eq!(f.canon(), g.canon(), "{f} vs {g}");
    }
}

mod frontend_props {
    use super::{cases, Rng};
    use homc_lang::ast::{BinOp, SurfaceExpr};
    use homc_lang::eval::{run, Label, Outcome, ScriptDriver};
    use homc_lang::frontend;

    /// Small arithmetic expressions over constants and a free `n`.
    fn gen_int_expr(rng: &mut Rng, depth: u32) -> SurfaceExpr {
        if depth == 0 || rng.index(3) == 0 {
            return if rng.index(2) == 0 {
                SurfaceExpr::Int(rng.range(-9, 9) as i64)
            } else {
                SurfaceExpr::Var("n".into())
            };
        }
        let op = [BinOp::Add, BinOp::Sub, BinOp::Mul][rng.index(3)];
        SurfaceExpr::BinOp(
            op,
            Box::new(gen_int_expr(rng, depth - 1)),
            Box::new(gen_int_expr(rng, depth - 1)),
        )
    }

    /// `if a ⋈ b then assert (a ⋈ b) else ()` — always safe as written, but
    /// the abstraction has to prove it.
    fn gen_program(rng: &mut Rng) -> SurfaceExpr {
        let a = gen_int_expr(rng, 2);
        let b = gen_int_expr(rng, 2);
        let op = [BinOp::Le, BinOp::Lt, BinOp::Ge, BinOp::Eq][rng.index(4)];
        SurfaceExpr::If(
            Box::new(SurfaceExpr::BinOp(
                op,
                Box::new(a.clone()),
                Box::new(b.clone()),
            )),
            Box::new(SurfaceExpr::Assert(Box::new(SurfaceExpr::BinOp(
                op,
                Box::new(a),
                Box::new(b),
            )))),
            Box::new(SurfaceExpr::Unit),
        )
    }

    fn schedule(bits: u8) -> Vec<Label> {
        (0..4)
            .map(|i| {
                if (bits >> i) & 1 == 1 {
                    Label::One
                } else {
                    Label::Zero
                }
            })
            .collect()
    }

    /// The front end round-trips: elaborated and CPS kernels type-check and
    /// agree with each other on failure under random schedules.
    #[test]
    fn cps_preserves_failure() {
        let mut rng = Rng::new(0xC125);
        for _ in 0..cases(48) {
            let e = gen_program(&mut rng);
            let n = rng.range(-4, 4) as i64;
            let bits = (rng.next_u64() % 16) as u8;
            let Ok(typed) = homc_lang::types::infer(&e) else {
                continue;
            };
            let Ok(direct) = homc_lang::elaborate::elaborate(&typed) else {
                continue;
            };
            assert!(direct.check().is_ok());
            let cps = homc_lang::cps::cps_transform(&direct);
            assert!(cps.check().is_ok());
            assert!(cps.is_cps_normal());
            let labels = schedule(bits);
            let mut d1 = ScriptDriver::new(labels.clone(), vec![n]);
            let mut d2 = ScriptDriver::new(labels, vec![n]);
            let (o1, t1) = run(&direct, &mut d1, 100_000);
            let (o2, t2) = run(&cps, &mut d2, 100_000);
            assert_eq!(o1.is_fail(), o2.is_fail());
            assert_eq!(t1, t2);
        }
    }

    /// End-to-end soundness fuzzing: whenever the verifier says Safe, no
    /// concrete schedule reaches fail.
    #[test]
    fn verifier_safe_implies_no_concrete_failure() {
        let mut rng = Rng::new(0x5AFE);
        for _ in 0..cases(24) {
            let e = gen_program(&mut rng);
            let Ok(typed) = homc_lang::types::infer(&e) else {
                continue;
            };
            let Ok(direct) = homc_lang::elaborate::elaborate(&typed) else {
                continue;
            };
            let cps = homc_lang::cps::cps_transform(&direct);
            let compiled = homc_lang::Compiled {
                size: 0,
                order: direct.order(),
                direct,
                cps,
            };
            let Ok(out) = homc::verify_compiled(&compiled, &homc::VerifierOptions::default())
            else {
                continue;
            };
            if out.verdict.is_safe() {
                for n in -4i64..=4 {
                    for bits in 0u8..16 {
                        let mut d = ScriptDriver::new(schedule(bits), vec![n]);
                        let (o, _) = run(&compiled.cps, &mut d, 100_000);
                        assert!(
                            !matches!(o, Outcome::Fail),
                            "verifier said Safe but n={n}, bits={bits:#b} fails"
                        );
                    }
                }
            }
        }
    }

    /// The verifier is deterministic across runs.
    #[test]
    fn verifier_is_deterministic() {
        let src = "let rec sum n = if n <= 0 then 0 else n + sum (n - 1) in assert (m <= sum m)";
        let a = homc::verify(src, &homc::VerifierOptions::default()).expect("runs");
        let b = homc::verify(src, &homc::VerifierOptions::default()).expect("runs");
        assert_eq!(a.verdict, b.verdict);
        assert_eq!(a.stats.cycles, b.stats.cycles);
        let _ = frontend(src).expect("compiles");
    }
}
