//! Craig interpolation for QF_LIA, replacing CSIsat in the paper's pipeline.
//!
//! Given `A ∧ B` unsatisfiable, [`interpolate`] computes a formula `I` with
//! `A ⇒ I`, `I ∧ B` unsatisfiable, and `vars(I) ⊆ vars(A) ∩ vars(B)`.
//!
//! Strategy: both sides are put in DNF; each cube pair is interpolated from
//! the Farkas certificate of its rational refutation (the weighted sum of the
//! A-side rows is an interpolant), with a recursive integer branch split when
//! the pair is only integer-unsatisfiable. Cube interpolants are recombined
//! as `⋁ᵢ ⋀ⱼ I(aᵢ, bⱼ)`.

use std::collections::BTreeSet;
use std::fmt;

use homc_budget::{Budget, BudgetError, Phase};

use crate::cache::{CubeSat, QueryCache};
use crate::fm::{int_sat, rational_sat_cached, FarkasCert, IntResult, RatResult};
use crate::formula::{Formula, Literal};
use crate::linexpr::{Atom, LinExpr, Rel, Var};
use crate::rat::Rat;

/// Why interpolation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InterpError {
    /// `A ∧ B` turned out to be satisfiable (or could not be refuted within
    /// the integer split budget).
    NotRefutable,
    /// The DNF of one side exceeded the cube limit.
    TooLarge,
    /// The shared [`Budget`] preempted the computation.
    Exhausted(BudgetError),
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::NotRefutable => write!(f, "A && B is not refutable"),
            InterpError::TooLarge => write!(f, "DNF cube limit exceeded"),
            InterpError::Exhausted(e) => write!(f, "budget exhausted: {e}"),
        }
    }
}

impl std::error::Error for InterpError {}

/// Options bounding the interpolation search.
#[derive(Clone, Copy, Debug)]
pub struct InterpOptions {
    /// Maximum number of DNF cubes per side.
    pub dnf_limit: usize,
    /// Maximum recursion depth for integer branch splits.
    pub split_depth: u32,
}

impl Default for InterpOptions {
    fn default() -> InterpOptions {
        InterpOptions {
            dnf_limit: 512,
            split_depth: 24,
        }
    }
}

/// Computes a Craig interpolant for the unsatisfiable pair `(a, b)`.
pub fn interpolate(a: &Formula, b: &Formula) -> Result<Formula, InterpError> {
    interpolate_with(a, b, InterpOptions::default())
}

/// [`interpolate`] with explicit limits.
pub fn interpolate_with(
    a: &Formula,
    b: &Formula,
    opts: InterpOptions,
) -> Result<Formula, InterpError> {
    interpolate_budgeted_cached(a, b, opts, Budget::unlimited(), None)
}

/// [`interpolate_with`] under a shared [`Budget`] and with an optional shared
/// [`QueryCache`]. The budget takes one [`Phase::Smt`] checkpoint per cube
/// pair, so even degenerate DNFs cannot overrun a deadline by more than one
/// pairwise interpolation.
///
/// CEGAR interpolates against the same trace prefixes repeatedly (the
/// inductive and raw A-side attempts of adjacent cut points share most of
/// their DNF cubes), so per-cube-pair interpolants and per-cube consistency
/// checks are memoized, keyed by the *sorted* cubes plus the split depth.
/// The budget checkpoint runs before each pair's lookup, so `smt:n` fault
/// schedules are unaffected by cache state.
pub fn interpolate_budgeted_cached(
    a: &Formula,
    b: &Formula,
    opts: InterpOptions,
    budget: &Budget,
    cache: Option<&QueryCache>,
) -> Result<Formula, InterpError> {
    let a_cubes = a.dnf(opts.dnf_limit).ok_or(InterpError::TooLarge)?;
    let b_cubes = b.dnf(opts.dnf_limit).ok_or(InterpError::TooLarge)?;
    // A ≡ false: interpolant false. B ≡ false: interpolant true.
    if a_cubes.is_empty() {
        return Ok(Formula::False);
    }
    if b_cubes.is_empty() {
        return Ok(Formula::True);
    }
    let mut disjuncts = Vec::new();
    for ac in &a_cubes {
        let mut conjuncts = Vec::new();
        for bc in &b_cubes {
            budget
                .checkpoint(Phase::Smt)
                .map_err(InterpError::Exhausted)?;
            conjuncts.push(cube_interpolant_cached(ac, bc, opts, cache)?);
        }
        disjuncts.push(Formula::and(conjuncts));
    }
    Ok(Formula::or(disjuncts))
}

/// [`cube_interpolant`] memoized per cube pair. A cube is a set of literals,
/// so keys are sorted+deduped; `None` in the table records a definite
/// `NotRefutable` at this split depth (also deterministic, hence cacheable).
fn cube_interpolant_cached(
    a_cube: &[Literal],
    b_cube: &[Literal],
    opts: InterpOptions,
    cache: Option<&QueryCache>,
) -> Result<Formula, InterpError> {
    let Some(cache) = cache else {
        return cube_interpolant(a_cube, b_cube, opts, None);
    };
    let canon_cube = |cube: &[Literal]| {
        let mut c = cube.to_vec();
        c.sort_unstable();
        c.dedup();
        c
    };
    let key = (canon_cube(a_cube), canon_cube(b_cube), opts.split_depth);
    if let Some(hit) = cache.lookup_interp(&key) {
        return hit.ok_or(InterpError::NotRefutable);
    }
    match cube_interpolant(a_cube, b_cube, opts, Some(cache)) {
        Ok(i) => {
            cache.store_interp(key, Some(i.clone()));
            Ok(i)
        }
        Err(InterpError::NotRefutable) => {
            cache.store_interp(key, None);
            Err(InterpError::NotRefutable)
        }
        // TooLarge/Exhausted carry no per-cube information; don't cache.
        Err(e) => Err(e),
    }
}

/// [`int_sat`] reduced to its tri-state verdict, memoized when a cache is
/// available (the certificate/model is irrelevant to cube screening).
///
/// Public because the refinement layer's cone-of-influence slicing screens
/// path-condition components through the same cube table, so screening work
/// is shared with interpolation across the whole run.
pub fn cube_consistency(atoms: &[Atom], depth: u32, cache: Option<&QueryCache>) -> CubeSat {
    let verdict = |atoms: &[Atom]| match int_sat(atoms, depth) {
        IntResult::Sat(_) => CubeSat::Sat,
        IntResult::Unsat(_) => CubeSat::Unsat,
        IntResult::Unknown => CubeSat::Unknown,
    };
    let Some(cache) = cache else {
        return verdict(atoms);
    };
    let mut sorted = atoms.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let key = (sorted, depth);
    if let Some(hit) = cache.lookup_cube(&key) {
        return hit;
    }
    let v = verdict(atoms);
    cache.store_cube(key, v);
    v
}

fn split_literals(cube: &[Literal]) -> (Vec<Atom>, Vec<(Var, bool)>) {
    let mut atoms = Vec::new();
    let mut bools = Vec::new();
    for l in cube {
        match l {
            Literal::Arith(a) => atoms.push(a.clone()),
            Literal::Bool(v, p) => bools.push((v.clone(), *p)),
        }
    }
    (atoms, bools)
}

fn bool_conflict(bools: &[(Var, bool)]) -> bool {
    bools
        .iter()
        .any(|(v, p)| bools.iter().any(|(u, q)| u == v && p != q))
}

fn cube_interpolant(
    a_cube: &[Literal],
    b_cube: &[Literal],
    opts: InterpOptions,
    cache: Option<&QueryCache>,
) -> Result<Formula, InterpError> {
    let (a_atoms, a_bools) = split_literals(a_cube);
    let (b_atoms, b_bools) = split_literals(b_cube);

    // 1. A-cube inconsistent on its own → false is an interpolant.
    if bool_conflict(&a_bools) {
        return Ok(Formula::False);
    }
    if cube_consistency(&a_atoms, opts.split_depth, cache) == CubeSat::Unsat {
        return Ok(Formula::False);
    }
    // 2. B-cube inconsistent on its own → true is an interpolant.
    if bool_conflict(&b_bools) {
        return Ok(Formula::True);
    }
    if cube_consistency(&b_atoms, opts.split_depth, cache) == CubeSat::Unsat {
        return Ok(Formula::True);
    }
    // 3. Propositional conflict across the cut: the shared literal itself.
    for (v, p) in &a_bools {
        if b_bools.iter().any(|(u, q)| u == v && p != q) {
            let lit = Formula::BVar(v.clone());
            return Ok(if *p { lit } else { Formula::not(lit) });
        }
    }
    // 4. Arithmetic conflict across the cut.
    arith_interpolant(&a_atoms, &b_atoms, opts.split_depth, cache)
}

/// Interpolates two conjunctions of arithmetic atoms, splitting on fractional
/// variables when only integer reasoning refutes the pair.
fn arith_interpolant(
    a_atoms: &[Atom],
    b_atoms: &[Atom],
    depth: u32,
    cache: Option<&QueryCache>,
) -> Result<Formula, InterpError> {
    let mut all = a_atoms.to_vec();
    all.extend(b_atoms.iter().cloned());
    match rational_sat_cached(&all, cache) {
        RatResult::Unsat(cert) => Ok(farkas_interpolant(&all, a_atoms.len(), &cert)),
        RatResult::Sat(model) => {
            if depth == 0 {
                return Err(InterpError::NotRefutable);
            }
            let frac = model.iter().find(|(_, r)| !r.is_integer());
            let Some((v, r)) = frac else {
                // A genuine integer model: not refutable at all.
                return Err(InterpError::NotRefutable);
            };
            let below = Atom::le(LinExpr::var(v.clone()), LinExpr::constant(r.floor()));
            let above = Atom::ge(LinExpr::var(v.clone()), LinExpr::constant(r.ceil()));
            let in_a = a_atoms.iter().any(|a| a.lhs().coeff(v) != 0);
            let in_b = b_atoms.iter().any(|a| a.lhs().coeff(v) != 0);
            let with = |side: &[Atom], extra: &Atom| {
                let mut s = side.to_vec();
                s.push(extra.clone());
                s
            };
            match (in_a, in_b) {
                (true, false) => {
                    // Split inside A: A ⇒ (A ∧ v≤⌊r⌋) ∨ (A ∧ v≥⌈r⌉).
                    let i1 = arith_interpolant(&with(a_atoms, &below), b_atoms, depth - 1, cache)?;
                    let i2 = arith_interpolant(&with(a_atoms, &above), b_atoms, depth - 1, cache)?;
                    Ok(Formula::or2(i1, i2))
                }
                (false, true) => {
                    let i1 = arith_interpolant(a_atoms, &with(b_atoms, &below), depth - 1, cache)?;
                    let i2 = arith_interpolant(a_atoms, &with(b_atoms, &above), depth - 1, cache)?;
                    Ok(Formula::and2(i1, i2))
                }
                _ => {
                    // Shared (or phantom) variable: the split literal may
                    // appear in the interpolant.
                    let i1 = arith_interpolant(&with(a_atoms, &below), b_atoms, depth - 1, cache)?;
                    let i2 = arith_interpolant(&with(a_atoms, &above), b_atoms, depth - 1, cache)?;
                    Ok(Formula::or2(
                        Formula::and2(Formula::atom(below), i1),
                        Formula::and2(Formula::atom(above), i2),
                    ))
                }
            }
        }
    }
}

/// Builds the interpolant `Σ_{i<a_len} λᵢ·lhsᵢ <= 0` from a Farkas
/// certificate over the concatenated atom list.
fn farkas_interpolant(atoms: &[Atom], a_len: usize, cert: &FarkasCert) -> Formula {
    let mut sum_num = LinExpr::zero();
    // Scale all A-side multipliers to a common integer grid.
    let mut denom_lcm: i128 = 1;
    for (i, l) in cert {
        if *i < a_len && !l.is_zero() {
            let d = l.den();
            denom_lcm = denom_lcm / crate::rat::gcd(denom_lcm, d) * d;
        }
    }
    for (i, l) in cert {
        if *i >= a_len || l.is_zero() {
            continue;
        }
        let scaled = *l * Rat::int(denom_lcm);
        debug_assert!(scaled.is_integer());
        debug_assert!(
            atoms[*i].rel() == Rel::Eq || scaled.signum() >= 0,
            "negative multiplier on an inequality"
        );
        sum_num = sum_num + atoms[*i].lhs().clone() * scaled.num();
    }
    Formula::atom(Atom::le0(sum_num))
}

/// Flattens a formula into cube (conjunction-of-literals) form via NNF.
///
/// `False` becomes the contradictory atom `1 <= 0` so parts keep a uniform
/// shape; `None` when the NNF contains a disjunction — such formulas are
/// outside the sequence fast path. Public for the slicing layer, which uses
/// the same cube shape to screen path-condition components.
pub fn cube_literals(f: &Formula) -> Option<Vec<Literal>> {
    fn walk(f: &Formula, out: &mut Vec<Literal>) -> bool {
        match f {
            Formula::True => true,
            Formula::False => {
                out.push(Literal::Arith(Atom::le0(LinExpr::constant(1))));
                true
            }
            Formula::Atom(a) => {
                out.push(Literal::Arith(a.clone()));
                true
            }
            Formula::BVar(v) => {
                out.push(Literal::Bool(v.clone(), true));
                true
            }
            Formula::Not(g) => match g.as_ref() {
                Formula::BVar(v) => {
                    out.push(Literal::Bool(v.clone(), false));
                    true
                }
                _ => unreachable!("nnf leaves Not only on BVar"),
            },
            Formula::And(fs) => fs.iter().all(|g| walk(g, out)),
            Formula::Or(_) => false,
        }
    }
    let mut out = Vec::new();
    walk(&f.nnf(), &mut out).then_some(out)
}

/// Sequence (path) interpolants from one shared refutation.
///
/// `parts` are the consecutive blocks `φ_0, …, φ_n` of an unsatisfiable
/// conjunction; the result holds one interpolant per internal cut: `I_k`
/// interpolates `(φ_0 ∧ … ∧ φ_k, φ_{k+1} ∧ … ∧ φ_n)`, and the family
/// telescopes — `I_k ∧ φ_{k+1} ⇒ I_{k+1}`.
///
/// Unlike the per-cut engine, the conjunction is refuted **once** over the
/// rationals and every cut interpolant is read off the same Farkas
/// certificate as a weighted prefix sum: `I_k = (Σ_{i ∈ φ_0..φ_k} λᵢ·lhsᵢ)
/// ≤ 0`. Nonnegative multipliers on `<=`-atoms make each suffix block's
/// contribution nonpositive under the block itself (equalities contribute
/// zero), which is exactly the telescoping property; the total sum cancels
/// all variables, so each prefix sum mentions shared variables only. When
/// only integer reasoning refutes the parts, the usual branch split recurses
/// — but per certificate, not per cut — and the branch families are
/// recombined cutwise: conjunction before the split variable's first
/// occurrence, a guarded disjunction while the variable spans the cut, and
/// a plain disjunction after its last occurrence.
///
/// Parts need not be cubes: a part whose NNF contains a disjunction (the
/// common case is a trace's final conjunct, the negated assertion) is
/// case-split into its DNF cubes, the sequence is solved once per cube,
/// and the branch families recombine cutwise — conjunction strictly before
/// the split part, disjunction at and after it. The split preserves the
/// Craig conditions, the shared-variable vocabulary (every cube literal
/// comes from the part itself), and telescoping: a model of the original
/// part satisfies some cube, so `G_{p-1} ∧ φ_p` lands in that branch's
/// family, whose interpolants the combined conjunction/disjunction bounds.
///
/// Errors: [`InterpError::TooLarge`] when the case-split width of the
/// non-cube parts exceeds `SEQ_BRANCH_LIMIT` (16), certificate weights
/// overflow the integer grid, or the split budget runs out before a
/// refutation or an integer model is found; [`InterpError::NotRefutable`]
/// when the conjunction has an integer model; [`InterpError::Exhausted`]
/// on budget preemption. Callers fall back to the per-cut engine on the
/// first two.
pub fn interpolate_sequence(
    parts: &[Formula],
    opts: InterpOptions,
    budget: &Budget,
    cache: Option<&QueryCache>,
) -> Result<Vec<Formula>, InterpError> {
    if parts.len() <= 1 {
        return Ok(Vec::new());
    }
    seq_branch(parts, opts, budget, cache, SEQ_BRANCH_LIMIT)
}

/// Total case-split width across all non-cube parts: the product of the
/// DNF branch counts may not exceed this before the sequence engine gives
/// up with [`InterpError::TooLarge`].
const SEQ_BRANCH_LIMIT: usize = 16;

/// Case-splitting layer over the cube-only core [`seq_cubes`]: the first
/// non-cube part is rewritten into DNF and the sequence is solved once per
/// disjunct with the part replaced by that cube. The width budget divides
/// multiplicatively across nested splits so total work stays bounded.
fn seq_branch(
    parts: &[Formula],
    opts: InterpOptions,
    budget: &Budget,
    cache: Option<&QueryCache>,
    width: usize,
) -> Result<Vec<Formula>, InterpError> {
    let Some(p) = parts.iter().position(|f| cube_literals(f).is_none()) else {
        return seq_cubes(parts, opts, budget, cache);
    };
    let n = parts.len();
    let cubes = parts[p].dnf(width).ok_or(InterpError::TooLarge)?;
    if cubes.is_empty() {
        // The part simplifies to `false`: prefixes ending before it carry no
        // obligation, prefixes containing it are themselves contradictory.
        return Ok((0..n - 1)
            .map(|k| if k < p { Formula::True } else { Formula::False })
            .collect());
    }
    let width = width / cubes.len();
    if width == 0 {
        return Err(InterpError::TooLarge);
    }
    let mut families = Vec::with_capacity(cubes.len());
    for cube in &cubes {
        let mut branch = parts.to_vec();
        branch[p] = Formula::and(cube.iter().map(|l| match l {
            Literal::Arith(a) => Formula::atom(a.clone()),
            Literal::Bool(v, true) => Formula::BVar(v.clone()),
            Literal::Bool(v, false) => Formula::not(Formula::BVar(v.clone())),
        }));
        families.push(seq_branch(&branch, opts, budget, cache, width)?);
    }
    Ok((0..n - 1)
        .map(|k| {
            let branches = families.iter().map(|fam| fam[k].clone());
            if k < p {
                // Before the split the suffix still contains the whole
                // disjunctive part, so every branch's interpolant is a valid
                // strengthening of the same prefix.
                Formula::and(branches)
            } else {
                // At and after the split the prefix only knows it took *some*
                // branch, so the cut weakens to the disjunction.
                Formula::or(branches)
            }
        })
        .collect())
}

/// The cube-only sequence core: propositional clash scan, then the shared
/// Farkas certificate over the arithmetic literals.
fn seq_cubes(
    parts: &[Formula],
    opts: InterpOptions,
    budget: &Budget,
    cache: Option<&QueryCache>,
) -> Result<Vec<Formula>, InterpError> {
    let n = parts.len();
    let mut lits: Vec<(usize, Literal)> = Vec::new();
    for (p, f) in parts.iter().enumerate() {
        let cube = cube_literals(f).ok_or(InterpError::TooLarge)?;
        lits.extend(cube.into_iter().map(|l| (p, l)));
    }

    // Propositional conflict: the earliest clashing pair settles every cut
    // with the constant/literal/constant family (True before the first
    // occurrence, the literal between the two, False after the clash).
    let mut first_pol: std::collections::BTreeMap<&Var, [Option<usize>; 2]> = Default::default();
    for (p, l) in &lits {
        let Literal::Bool(v, q) = l else { continue };
        let e = first_pol.entry(v).or_default();
        if let Some(p0) = e[usize::from(!*q)] {
            let at_p0 = Formula::BVar(v.clone());
            let at_p0 = if *q { Formula::not(at_p0) } else { at_p0 };
            return Ok((0..n - 1)
                .map(|k| {
                    if k < p0 {
                        Formula::True
                    } else if k < *p {
                        at_p0.clone()
                    } else {
                        Formula::False
                    }
                })
                .collect());
        }
        if e[usize::from(*q)].is_none() {
            e[usize::from(*q)] = Some(*p);
        }
    }

    let atoms: Vec<(usize, Atom)> = lits
        .into_iter()
        .filter_map(|(p, l)| match l {
            Literal::Arith(a) => Some((p, a)),
            Literal::Bool(..) => None,
        })
        .collect();
    seq_arith(&atoms, n, opts.split_depth, budget, cache)
}

/// The arithmetic core of [`interpolate_sequence`]: one rational refutation
/// shared by every cut, with per-certificate integer branch splits.
fn seq_arith(
    atoms: &[(usize, Atom)],
    n_parts: usize,
    depth: u32,
    budget: &Budget,
    cache: Option<&QueryCache>,
) -> Result<Vec<Formula>, InterpError> {
    budget
        .checkpoint(Phase::Smt)
        .map_err(InterpError::Exhausted)?;
    let list: Vec<Atom> = atoms.iter().map(|(_, a)| a.clone()).collect();
    match rational_sat_cached(&list, cache) {
        RatResult::Unsat(cert) => {
            prefix_interpolants(atoms, n_parts, &cert).ok_or(InterpError::TooLarge)
        }
        RatResult::Sat(model) => {
            if depth == 0 {
                // Out of split budget with only a fractional model in hand.
                // The chain may still be integer-unsat by an argument this
                // recursion cannot express (e.g. a gcd cut), so bail out
                // structurally rather than claim satisfiability.
                return Err(InterpError::TooLarge);
            }
            let Some((v, r)) = model.iter().find(|(_, r)| !r.is_integer()) else {
                // A genuine integer model: not refutable at all.
                return Err(InterpError::NotRefutable);
            };
            // The split atom joins the first part that mentions `v`; the
            // combination rule below needs its first and last occurrence.
            let occs = || atoms.iter().filter(|(_, a)| a.lhs().coeff(v) != 0);
            let first = occs().map(|(p, _)| *p).min().expect("model var occurs");
            let last = occs().map(|(p, _)| *p).max().expect("model var occurs");
            let below = Atom::le(LinExpr::var(v.clone()), LinExpr::constant(r.floor()));
            let above = Atom::ge(LinExpr::var(v.clone()), LinExpr::constant(r.ceil()));
            let with = |extra: &Atom| {
                let mut s = atoms.to_vec();
                s.push((first, extra.clone()));
                s
            };
            let i1 = seq_arith(&with(&below), n_parts, depth - 1, budget, cache)?;
            let i2 = seq_arith(&with(&above), n_parts, depth - 1, budget, cache)?;
            // Cutwise recombination. `v ≤ ⌊r⌋ ∨ v ≥ ⌈r⌉` is exhaustive over
            // the integers, so: before `v` enters the A-side both branch
            // interpolants hold; while `v` spans the cut the split literal
            // (now shared vocabulary) guards its branch; after `v` leaves
            // the B-side either branch interpolant refutes it.
            Ok((0..n_parts - 1)
                .map(|k| {
                    let (a, b) = (i1[k].clone(), i2[k].clone());
                    if k < first {
                        Formula::and2(a, b)
                    } else if k < last {
                        Formula::or2(
                            Formula::and2(Formula::atom(below.clone()), a),
                            Formula::and2(Formula::atom(above.clone()), b),
                        )
                    } else {
                        Formula::or2(a, b)
                    }
                })
                .collect())
        }
    }
}

/// Cap on certificate weights after denominator clearing; beyond this the
/// sequence path bails out (`TooLarge`) rather than risk i128 overflow in
/// the prefix sums.
const MAX_CERT_WEIGHT: i128 = 1 << 40;

/// Reads every cut interpolant off one Farkas certificate: `I_k` is the
/// weighted sum of the certificate rows lying in parts `0..=k`, claimed
/// `<= 0`. The empty prefix folds to `true`, the full sum (a positive
/// constant) to `false`.
fn prefix_interpolants(
    atoms: &[(usize, Atom)],
    n_parts: usize,
    cert: &FarkasCert,
) -> Option<Vec<Formula>> {
    // Scale all multipliers onto one integer grid.
    let mut denom_lcm: i128 = 1;
    for (_, l) in cert {
        if !l.is_zero() {
            let d = l.den();
            denom_lcm = (denom_lcm / crate::rat::gcd(denom_lcm, d)).checked_mul(d)?;
            if denom_lcm > MAX_CERT_WEIGHT {
                return None;
            }
        }
    }
    let mut by_part: Vec<LinExpr> = vec![LinExpr::zero(); n_parts];
    for (i, l) in cert {
        if l.is_zero() {
            continue;
        }
        let (p, atom) = &atoms[*i];
        let scaled = *l * Rat::int(denom_lcm);
        debug_assert!(scaled.is_integer());
        debug_assert!(
            atom.rel() == Rel::Eq || scaled.signum() >= 0,
            "negative multiplier on an inequality"
        );
        if scaled.num().abs() > MAX_CERT_WEIGHT {
            return None;
        }
        by_part[*p] = by_part[*p].clone() + atom.lhs().clone() * scaled.num();
    }
    let mut sum = LinExpr::zero();
    Some(
        by_part[..n_parts - 1]
            .iter()
            .map(|block| {
                sum = sum.clone() + block.clone();
                Formula::atom(Atom::le0(sum.clone()))
            })
            .collect(),
    )
}

/// Checks the defining properties of an interpolant (for tests/debugging):
/// `A ⇒ I`, `I ∧ B` unsat, and `vars(I) ⊆ vars(A) ∩ vars(B)`.
pub fn is_interpolant(a: &Formula, b: &Formula, i: &Formula) -> bool {
    let solver = crate::solver::SmtSolver::new();
    let shared: BTreeSet<Var> = a.vars().intersection(&b.vars()).cloned().collect();
    i.vars().is_subset(&shared)
        && solver.entails(a, i)
        && !solver.maybe_sat(&Formula::and2(i.clone(), b.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> LinExpr {
        LinExpr::var("x")
    }
    fn n() -> LinExpr {
        LinExpr::var("n")
    }
    fn y() -> LinExpr {
        LinExpr::var("y")
    }

    #[test]
    fn paper_intro_interpolant() {
        // §1: from n > 0 (A) and n + 1 <= 0 (B) we should learn something
        // like n > 0 — the predicate the paper's CEGAR discovers.
        let a = Formula::atom(Atom::gt(n(), LinExpr::constant(0)));
        let b = Formula::atom(Atom::le(n() + LinExpr::constant(1), LinExpr::constant(0)));
        let i = interpolate(&a, &b).expect("refutable");
        assert!(is_interpolant(&a, &b, &i), "bad interpolant: {i}");
    }

    #[test]
    fn locals_are_projected_out() {
        // A: x = y + 1 ∧ y >= 0   B: x <= 0, shared = {x}.
        let a = Formula::and2(
            Formula::atom(Atom::eq(x(), y() + LinExpr::constant(1))),
            Formula::atom(Atom::ge(y(), LinExpr::constant(0))),
        );
        let b = Formula::atom(Atom::le(x(), LinExpr::constant(0)));
        let i = interpolate(&a, &b).expect("refutable");
        assert!(is_interpolant(&a, &b, &i), "bad interpolant: {i}");
        assert!(i.vars().iter().all(|v| v.name() == "x"));
    }

    #[test]
    fn disjunctive_a_side() {
        // A: x >= 5 ∨ x >= 10   B: x <= 0.
        let a = Formula::or2(
            Formula::atom(Atom::ge(x(), LinExpr::constant(5))),
            Formula::atom(Atom::ge(x(), LinExpr::constant(10))),
        );
        let b = Formula::atom(Atom::le(x(), LinExpr::constant(0)));
        let i = interpolate(&a, &b).expect("refutable");
        assert!(is_interpolant(&a, &b, &i), "bad interpolant: {i}");
    }

    #[test]
    fn boolean_conflict_interpolant() {
        let p = || Formula::BVar(Var::new("p"));
        let a = p();
        let b = Formula::not(p());
        let i = interpolate(&a, &b).expect("refutable");
        assert!(is_interpolant(&a, &b, &i), "bad interpolant: {i}");
    }

    #[test]
    fn integer_split_interpolant() {
        // A: 2x <= y ∧ y <= 1   B: x >= 1 ∧ y >= 2x - 1... craft an
        // integer-only conflict: A: y = 2x, B: y = 2z + 1 ∧ y = x... keep it
        // simple: A: 2x - y = 0, B: 2*w - y + 1 = 0 with shared y only —
        // unsat over Z (y both even and odd) but sat over Q.
        let w = LinExpr::var("w");
        let a = Formula::atom(Atom::eq(x() * 2, y()));
        let b = Formula::atom(Atom::eq(w * 2 + LinExpr::constant(1), y()));
        match interpolate(&a, &b) {
            Ok(i) => assert!(is_interpolant(&a, &b, &i), "bad interpolant: {i}"),
            // Parity conflicts need divisibility predicates, which plain
            // branch splits cannot always express; NotRefutable is an
            // acceptable (documented) incompleteness here — but the split
            // search must not claim a wrong interpolant.
            Err(InterpError::NotRefutable) => {}
            Err(e) => panic!("unexpected error: {e}"),
        }
    }

    #[test]
    fn satisfiable_pair_is_rejected() {
        let a = Formula::atom(Atom::ge(x(), LinExpr::constant(0)));
        let b = Formula::atom(Atom::le(x(), LinExpr::constant(10)));
        assert_eq!(interpolate(&a, &b), Err(InterpError::NotRefutable));
    }

    /// Checks the full contract of a sequence-interpolant family: length,
    /// per-cut interpolant properties, and telescoping.
    fn assert_sequence_ok(parts: &[Formula]) -> Vec<Formula> {
        let seq = interpolate_sequence(parts, InterpOptions::default(), Budget::unlimited(), None)
            .expect("refutable");
        assert_eq!(seq.len(), parts.len() - 1);
        let solver = crate::solver::SmtSolver::new();
        for k in 0..seq.len() {
            let a = Formula::and(parts[..=k].iter().cloned());
            let b = Formula::and(parts[k + 1..].iter().cloned());
            assert!(
                is_interpolant(&a, &b, &seq[k]),
                "cut {k}: bad interpolant {}",
                seq[k]
            );
            let prev = if k == 0 {
                Formula::True
            } else {
                seq[k - 1].clone()
            };
            assert!(
                solver.entails(&Formula::and2(prev, parts[k].clone()), &seq[k]),
                "telescoping broken at cut {k}: {}",
                seq[k]
            );
        }
        seq
    }

    #[test]
    fn sequence_on_equality_chain() {
        // n >= 0; x = n + 1; x <= 0 — a definitional chain like a trace
        // path condition, refuted by one certificate.
        let parts = vec![
            Formula::atom(Atom::ge(n(), LinExpr::constant(0))),
            Formula::atom(Atom::eq(x(), n() + LinExpr::constant(1))),
            Formula::atom(Atom::le(x(), LinExpr::constant(0))),
        ];
        assert_sequence_ok(&parts);
    }

    #[test]
    fn sequence_with_integer_split() {
        // 3x >= 1; 3x <= 2 — rationally satisfiable (x ∈ [1/3, 2/3]) but
        // integer-unsat, so the certificate comes from a branch split.
        let parts = vec![
            Formula::atom(Atom::ge(x() * 3, LinExpr::constant(1))),
            Formula::atom(Atom::le(x() * 3, LinExpr::constant(2))),
        ];
        assert_sequence_ok(&parts);
    }

    #[test]
    fn sequence_with_bool_clash() {
        let p = || Formula::BVar(Var::new("p"));
        let parts = vec![Formula::True, p(), Formula::True, Formula::not(p())];
        let seq = assert_sequence_ok(&parts);
        assert_eq!(seq[0], Formula::True);
        assert_eq!(seq[1], p());
        assert_eq!(seq[2], p());
    }

    #[test]
    fn sequence_rejects_satisfiable_chain() {
        let parts = vec![
            Formula::atom(Atom::ge(x(), LinExpr::constant(0))),
            Formula::atom(Atom::le(x(), LinExpr::constant(10))),
        ];
        assert_eq!(
            interpolate_sequence(&parts, InterpOptions::default(), Budget::unlimited(), None),
            Err(InterpError::NotRefutable)
        );
    }

    #[test]
    fn sequence_splits_disjunctive_parts() {
        let parts = vec![
            Formula::or2(
                Formula::atom(Atom::ge(x(), LinExpr::constant(5))),
                Formula::atom(Atom::ge(x(), LinExpr::constant(10))),
            ),
            Formula::atom(Atom::le(x(), LinExpr::constant(0))),
        ];
        assert_sequence_ok(&parts);
    }

    #[test]
    fn sequence_splits_negated_assertion_tail() {
        // The shape every trace ends in: a definitional prefix forcing
        // r = 0 followed by the negated assertion ¬(r = 0), whose NNF is
        // the disjunction r <= -1 ∨ r >= 1.
        let r = LinExpr::var("r");
        let parts = vec![
            Formula::atom(Atom::ge(n(), LinExpr::constant(0))),
            Formula::atom(Atom::eq(r.clone(), n() - n())),
            Formula::not(Formula::atom(Atom::eq(r, LinExpr::constant(0)))),
        ];
        assert_sequence_ok(&parts);
    }

    #[test]
    fn sequence_false_part_gives_constant_family() {
        // A part that simplifies to `false` settles every cut without any
        // arithmetic: True strictly before it, False at and after.
        let parts = vec![
            Formula::atom(Atom::ge(x(), LinExpr::constant(0))),
            Formula::or(std::iter::empty()),
            Formula::atom(Atom::le(x(), LinExpr::constant(3))),
        ];
        let seq = assert_sequence_ok(&parts);
        assert_eq!(seq, vec![Formula::True, Formula::False]);
    }

    #[test]
    fn sequence_rejects_wide_case_splits() {
        // A disjunction wider than the branch budget must fall back to the
        // per-cut engine rather than blow up.
        let wide =
            Formula::or((0..64).map(|i| Formula::atom(Atom::ge(x(), LinExpr::constant(100 + i)))));
        let parts = vec![wide, Formula::atom(Atom::le(x(), LinExpr::constant(0)))];
        assert_eq!(
            interpolate_sequence(&parts, InterpOptions::default(), Budget::unlimited(), None),
            Err(InterpError::TooLarge)
        );
    }

    #[test]
    fn sequence_with_trivial_parts_and_false() {
        // True parts contribute nothing; a False part closes the suffix.
        let parts = vec![
            Formula::True,
            Formula::atom(Atom::ge(n(), LinExpr::constant(0))),
            Formula::True,
            Formula::False,
        ];
        let seq = assert_sequence_ok(&parts);
        assert_eq!(seq[0], Formula::True);
    }

    #[test]
    fn example_5_2_style_constraint() {
        // From the paper's Example 5.2 (program M3): the final constraint is
        //   P3(z) ∧ P4(y,z) ⇒ y > z
        // and solving backwards interpolates
        //   A: x' = x + 1   (the body of f passes x+1 to g)
        //   B: ¬(x' > x)    (the assertion y > z fails)
        // Expected interpolant: x' > x (modulo equivalent forms).
        let xp = LinExpr::var("xp");
        let a = Formula::atom(Atom::eq(xp.clone(), x() + LinExpr::constant(1)));
        let b = Formula::atom(Atom::le(xp, x()));
        let i = interpolate(&a, &b).expect("refutable");
        assert!(is_interpolant(&a, &b, &i), "bad interpolant: {i}");
    }
}
