//! Satisfiability of conjunctions of linear constraints.
//!
//! The engine is Fourier–Motzkin elimination over the rationals with Farkas
//! certificate tracking, followed by branch & bound for integer completeness.
//! Certificates drive both unsat-core extraction (theory conflicts in the
//! solver) and Farkas interpolation (see [`crate::interp`]).

use std::cmp::Ordering;
use std::collections::BTreeMap;

use crate::cache::{CachedRat, QueryCache};
use crate::linexpr::{Atom, LinExpr, Rel, Var};
use crate::rat::{gcd, Rat};

/// One Farkas multiplier: `(index of the original atom, coefficient)`.
///
/// Coefficients for `<=`-atoms are always non-negative; coefficients for
/// `=`-atoms may carry either sign.
pub type FarkasCert = Vec<(usize, Rat)>;

/// Result of a rational-arithmetic conjunction check.
#[derive(Clone, Debug)]
pub enum RatResult {
    /// Satisfiable, with a rational model (variables not mentioned map to 0).
    Sat(BTreeMap<Var, Rat>),
    /// Unsatisfiable, with a Farkas certificate: a combination of the input
    /// atoms summing to a positive constant claimed `<= 0`.
    Unsat(FarkasCert),
}

/// Why a conjunction of atoms has no integer solution: the refutation
/// branch & bound found, checkable by [`crate::verify_unsat`] with nothing
/// but arithmetic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArithRefutation {
    /// A Farkas certificate over the atoms (in order): the weighted sum
    /// cancels every variable and leaves a positive constant claimed
    /// `<= 0`.
    Farkas(FarkasCert),
    /// Index of an equality atom whose coefficient gcd does not divide its
    /// constant term.
    Gcd(usize),
    /// Case split on an integer variable: `below` refutes the atoms plus
    /// `var <= at`, `above` refutes the atoms plus `var >= at + 1`. Every
    /// integer satisfies one side, so the atoms themselves are infeasible.
    Split {
        /// The branch variable.
        var: Var,
        /// The split point.
        at: i128,
        /// Refutation of the `var <= at` branch.
        below: Box<ArithRefutation>,
        /// Refutation of the `var >= at + 1` branch.
        above: Box<ArithRefutation>,
    },
}

/// Result of an integer-arithmetic conjunction check.
#[derive(Clone, Debug)]
pub enum IntResult {
    /// Satisfiable, with an integer model.
    Sat(BTreeMap<Var, i128>),
    /// Unsatisfiable, with the refutation.
    Unsat(ArithRefutation),
    /// The branch & bound depth limit was exceeded.
    Unknown,
}

/// A working row `Σ coeffs·x + cst <= 0` with its provenance.
///
/// A variable is its index in the call's variable table, which is sorted, so
/// coefficients sorted by index are sorted by [`Var`]: every scan below
/// visits variables in the order a `Var`-keyed map would.
#[derive(Clone, Debug)]
struct Row {
    /// Non-zero coefficients, sorted by variable index.
    coeffs: Vec<(u32, Rat)>,
    cst: Rat,
    cert: FarkasCert,
    /// `Some(i)` while this row is one half of the `= 0` pair of equality
    /// atom `i` — the pair stays exact negatives of each other through
    /// substitution and normalization, which is what lets [`rational_sat`]
    /// eliminate its variables by *substitution* (linear in the row count)
    /// instead of the quadratic Fourier–Motzkin cross product.
    eq_id: Option<usize>,
}

impl Row {
    fn from_atom(idx: usize, atom: &Atom, sign: i128, vars: &[&Var]) -> Row {
        let index = |v: &Var| vars.binary_search(&v).expect("variable in table") as u32;
        Row {
            coeffs: atom
                .lhs()
                .iter()
                .map(|(v, c)| (index(v), Rat::int(c * sign)))
                .collect(),
            cst: Rat::int(atom.lhs().constant_part() * sign),
            cert: vec![(idx, Rat::int(sign))],
            eq_id: (atom.rel() == Rel::Eq).then_some(idx),
        }
    }

    /// The coefficient of variable `v`, if non-zero.
    fn coeff(&self, v: u32) -> Option<Rat> {
        let i = self.coeffs.binary_search_by_key(&v, |&(u, _)| u).ok()?;
        Some(self.coeffs[i].1)
    }

    /// `self + other * k` with `k > 0`.
    fn combine(&self, other: &Row, k: Rat) -> Row {
        debug_assert!(k.signum() > 0);
        let (a, b) = (&self.coeffs, &other.coeffs);
        let mut coeffs = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            let ((u, c), (w, d)) = (a[i], b[j]);
            if u < w {
                coeffs.push((u, c));
                i += 1;
            } else if w < u {
                coeffs.push((w, d * k));
                j += 1;
            } else {
                let e = c + d * k;
                if !e.is_zero() {
                    coeffs.push((u, e));
                }
                i += 1;
                j += 1;
            }
        }
        coeffs.extend_from_slice(&a[i..]);
        coeffs.extend(b[j..].iter().map(|&(w, d)| (w, d * k)));
        let mut cert = self.cert.clone();
        for (i, l) in &other.cert {
            match cert.iter_mut().find(|(j, _)| j == i) {
                Some((_, m)) => *m = *m + *l * k,
                None => cert.push((*i, *l * k)),
            }
        }
        cert.retain(|(_, l)| !l.is_zero());
        Row {
            coeffs,
            cst: self.cst + other.cst * k,
            cert,
            eq_id: None,
        }
    }

    /// Scales so coefficients are small-ish; certificates scale along.
    fn normalize(&mut self) {
        // Divide by the largest absolute coefficient magnitude if it exceeds
        // 1, keeping exact rationals throughout.
        let mut max = self.cst.abs();
        for (_, c) in &self.coeffs {
            if c.abs() > max {
                max = c.abs();
            }
        }
        if max > Rat::ONE {
            let k = max.recip();
            for (_, c) in &mut self.coeffs {
                *c = *c * k;
            }
            self.cst = self.cst * k;
            for (_, l) in &mut self.cert {
                *l = *l * k;
            }
        }
    }

    /// A total order on what dedup compares: coefficients, constant and
    /// the equality tag, the tag included so that dedup never merges an
    /// equality half into a coincidentally-equal inequality row —
    /// substitution needs both halves of a pair alive. Rationals compare
    /// by their normal form, which is unique, so rows are equal under this
    /// order exactly when they are equal as constraints.
    fn key_cmp(&self, other: &Row) -> Ordering {
        fn parts(c: Rat) -> (i128, i128) {
            (c.num(), c.den())
        }
        self.eq_id
            .cmp(&other.eq_id)
            .then_with(|| parts(self.cst).cmp(&parts(other.cst)))
            .then_with(|| {
                let terms = self.coeffs.iter().map(|&(u, c)| (u, parts(c)));
                terms.cmp(other.coeffs.iter().map(|&(u, c)| (u, parts(c))))
            })
    }
}

/// Drops every row whose key equals an earlier row's, keeping the first
/// of each in order.
fn dedup(rows: Vec<Row>) -> Vec<Row> {
    let mut order: Vec<usize> = (0..rows.len()).collect();
    order.sort_unstable_by(|&i, &j| rows[i].key_cmp(&rows[j]).then(i.cmp(&j)));
    let mut keep = vec![true; rows.len()];
    for w in order.windows(2) {
        if rows[w[0]].key_cmp(&rows[w[1]]).is_eq() {
            keep[w[1]] = false;
        }
    }
    rows.into_iter()
        .zip(keep)
        .filter_map(|(r, k)| k.then_some(r))
        .collect()
}

/// Checks a conjunction of atoms over the **rationals**.
pub fn rational_sat(atoms: &[Atom]) -> RatResult {
    let mut vars: Vec<&Var> = atoms.iter().flat_map(|a| a.lhs().vars()).collect();
    vars.sort_unstable();
    vars.dedup();

    let mut rows = Vec::new();
    for (i, a) in atoms.iter().enumerate() {
        rows.push(Row::from_atom(i, a, 1, &vars));
        if a.rel() == Rel::Eq {
            rows.push(Row::from_atom(i, a, -1, &vars));
        }
    }

    let mut stages: Vec<(u32, Vec<Row>)> = Vec::new();
    // Per-variable sign counts of the rows, reused by every FM step.
    let mut pos_count = vec![0usize; vars.len()];
    let mut neg_count = vec![0usize; vars.len()];

    loop {
        // Constant rows decide immediately; duplicate rows are dropped.
        if let Some(r) = rows
            .iter()
            .find(|r| r.coeffs.is_empty() && r.cst.signum() > 0)
        {
            return RatResult::Unsat(r.cert.clone());
        }
        rows.retain(|r| !r.coeffs.is_empty());
        rows = dedup(rows);

        // Gaussian presolve: a surviving equality pair lets its first
        // variable be *substituted* away — one combination per row that
        // mentions it, instead of the |pos|·|neg| Fourier–Motzkin cross
        // product below. Trace path conditions are dominated by
        // definitional equalities (`sym = expr` per A-normal bind), so this
        // is the common case and turns elimination from quadratic growth
        // into a linear sweep.
        if let Some((v, i)) = rows
            .iter()
            .find_map(|r| Some((r.coeffs.first()?.0, r.eq_id?)))
        {
            let (pair, others): (Vec<Row>, Vec<Row>) =
                rows.into_iter().partition(|r| r.eq_id == Some(i));
            let sign_on_v = |r: &&Row| r.coeff(v).map_or(0, |c| c.signum());
            let p0 = pair.iter().find(|r| sign_on_v(r) > 0);
            let n0 = pair.iter().find(|r| sign_on_v(r) < 0);
            match (p0, n0) {
                (Some(p0), Some(n0)) => {
                    let a = p0.coeff(v).expect("positive on v"); // n0 has -a by pairing.
                    let mut substituted = Vec::new();
                    let mut next = Vec::new();
                    for r in others {
                        let Some(c) = r.coeff(v) else {
                            next.push(r);
                            continue;
                        };
                        let mut s = if c.signum() > 0 {
                            r.combine(n0, c / a)
                        } else {
                            r.combine(p0, (-c) / a)
                        };
                        debug_assert!(s.coeff(v).is_none());
                        s.normalize();
                        // Substituting into both halves of another pair
                        // keeps them exact negatives, so the tag survives.
                        s.eq_id = r.eq_id;
                        next.push(s);
                        substituted.push(r);
                    }
                    let mut stage_rows = pair;
                    stage_rows.append(&mut substituted);
                    stages.push((v, stage_rows));
                    rows = next;
                    continue;
                }
                _ => {
                    // Degenerate pair (half lost its `v` to normalization
                    // asymmetry — not expected, but recoverable): retire
                    // the tag and fall through to plain Fourier–Motzkin.
                    rows = pair
                        .into_iter()
                        .map(|mut r| {
                            r.eq_id = None;
                            r
                        })
                        .chain(others)
                        .collect();
                }
            }
        }

        // Pick the variable whose elimination generates the fewest rows,
        // the first in variable order on a tie.
        pos_count.fill(0);
        neg_count.fill(0);
        for r in &rows {
            for (u, c) in &r.coeffs {
                if c.signum() > 0 {
                    pos_count[*u as usize] += 1;
                } else {
                    neg_count[*u as usize] += 1;
                }
            }
        }
        let mut best: Option<(u32, usize)> = None;
        for (u, (&pos, &neg)) in pos_count.iter().zip(&neg_count).enumerate() {
            let cost = pos * neg;
            if pos + neg > 0 && best.is_none_or(|(_, c)| cost < c) {
                best = Some((u as u32, cost));
            }
        }
        let Some((v, _)) = best else {
            break;
        };

        let (with_v, without_v): (Vec<Row>, Vec<Row>) =
            rows.into_iter().partition(|r| r.coeff(v).is_some());
        let mut next = without_v;
        let (pos, neg): (Vec<_>, Vec<_>) = with_v
            .iter()
            .map(|r| (r, r.coeff(v).expect("mentions v")))
            .partition(|(_, c)| c.signum() > 0);
        for &(p, a) in &pos {
            for &(n, b) in &neg {
                // a > 0 > b: p + n * (a / -b) eliminates v with a positive
                // multiplier.
                let mut r = p.combine(n, a / (-b));
                debug_assert!(r.coeff(v).is_none());
                r.normalize();
                next.push(r);
            }
        }
        stages.push((v, with_v));
        rows = next;
    }

    // Satisfiable: rebuild a model stage by stage, last eliminated first.
    // Variables not yet assigned read as zero.
    let mut values = vec![Rat::ZERO; vars.len()];
    for (v, stage_rows) in stages.iter().rev() {
        let mut lo: Option<Rat> = None;
        let mut hi: Option<Rat> = None;
        for r in stage_rows {
            let mut a = Rat::ZERO;
            let mut rest = r.cst;
            for &(u, c) in &r.coeffs {
                if u == *v {
                    a = c;
                } else {
                    rest = rest + c * values[u as usize];
                }
            }
            // a·v + rest <= 0
            let bound = (-rest) / a;
            if a.signum() > 0 {
                hi = Some(match hi {
                    Some(h) if h < bound => h,
                    _ => bound,
                });
            } else {
                lo = Some(match lo {
                    Some(l) if l > bound => l,
                    _ => bound,
                });
            }
        }
        values[*v as usize] = match (lo, hi) {
            (None, None) => Rat::ZERO,
            (Some(l), None) => Rat::int(l.ceil()),
            (None, Some(h)) => Rat::int(h.floor()),
            (Some(l), Some(h)) => {
                debug_assert!(l <= h, "FM model bounds inverted");
                // Prefer an integral point when one lies in the interval.
                let c = Rat::int(l.ceil());
                if c <= h {
                    c
                } else {
                    (l + h) / Rat::int(2)
                }
            }
        };
    }
    RatResult::Sat(
        stages
            .iter()
            .map(|&(v, _)| (vars[v as usize].clone(), values[v as usize]))
            .collect(),
    )
}

/// [`rational_sat`] memoized in a shared [`QueryCache`].
///
/// The table key is the *sorted* atom list, so syntactic permutations of one
/// conjunction collide. The callers that profit are the ones that re-refute
/// a shared cube prefix with a handful of extra atoms appended — sequence
/// interpolation's integer-split recursion and the solver's branch & bound
/// and implicant search — which is why the table's hits surface as the
/// `fm_prefix_hits` counter.
///
/// Stored Farkas certificates index into the sorted key; on a hit they are
/// remapped onto the caller's ordering through the sort bijection, so the
/// result is indistinguishable from a fresh [`rational_sat`] call (models
/// are index-free and replay as-is).
pub fn rational_sat_cached(atoms: &[Atom], cache: Option<&QueryCache>) -> RatResult {
    let Some(cache) = cache else {
        return rational_sat(atoms);
    };
    // A stable bijection caller-order ↔ sorted-order: `key[k] = atoms[order[k]]`.
    let mut order: Vec<usize> = (0..atoms.len()).collect();
    order.sort_by(|&i, &j| atoms[i].cmp(&atoms[j]).then(i.cmp(&j)));
    let key: Vec<Atom> = order.iter().map(|&i| atoms[i].clone()).collect();
    if let Some(hit) = cache.lookup_rat(&key) {
        return match hit {
            CachedRat::Sat(model) => RatResult::Sat(model),
            CachedRat::Unsat(cert) => {
                RatResult::Unsat(cert.into_iter().map(|(k, l)| (order[k], l)).collect())
            }
        };
    }
    let result = rational_sat(atoms);
    let stored = match &result {
        RatResult::Sat(model) => CachedRat::Sat(model.clone()),
        RatResult::Unsat(cert) => {
            let mut pos_of = vec![0usize; atoms.len()];
            for (k, &i) in order.iter().enumerate() {
                pos_of[i] = k;
            }
            CachedRat::Unsat(cert.iter().map(|&(i, l)| (pos_of[i], l)).collect())
        }
    };
    cache.store_rat(key, stored);
    result
}

/// The gcd test for one equality atom: `Σ cᵢxᵢ = -k` has no integer
/// solution when `gcd(c̃) ∤ k`.
pub(crate) fn gcd_refutes(a: &Atom) -> bool {
    if a.rel() != Rel::Eq {
        return false;
    }
    let mut g: i128 = 0;
    for (_, c) in a.lhs().iter() {
        g = gcd(g, c);
    }
    g != 0 && a.lhs().constant_part() % g != 0
}

/// Checks a conjunction of atoms over the **integers** via branch & bound.
pub fn int_sat(atoms: &[Atom], max_depth: u32) -> IntResult {
    int_sat_cached(atoms, max_depth, None)
}

/// [`int_sat`] with every rational relaxation (the root one and each branch
/// & bound node's) memoized through [`rational_sat_cached`]. The solver's
/// implicant search refutes sibling branches over near-identical atom sets,
/// so the shared table converts most of its relaxations into lookups.
pub fn int_sat_cached(atoms: &[Atom], max_depth: u32, cache: Option<&QueryCache>) -> IntResult {
    if let Some(i) = atoms.iter().position(gcd_refutes) {
        return IntResult::Unsat(ArithRefutation::Gcd(i));
    }
    let model = match rational_sat_cached(atoms, cache) {
        RatResult::Unsat(cert) => return IntResult::Unsat(ArithRefutation::Farkas(cert)),
        RatResult::Sat(model) => model,
    };
    let Some((v, r)) = model.iter().find(|(_, r)| !r.is_integer()) else {
        return IntResult::Sat(model.into_iter().map(|(v, r)| (v, r.num())).collect());
    };
    if max_depth == 0 {
        return IntResult::Unknown;
    }
    let (var, at) = (v.clone(), r.floor());
    let side = |bound: Atom| {
        let mut next = atoms.to_vec();
        next.push(bound);
        int_sat_cached(&next, max_depth - 1, cache)
    };
    let below = match side(Atom::le(LinExpr::var(var.clone()), LinExpr::constant(at))) {
        IntResult::Unsat(r) => r,
        other => return other,
    };
    let above = match side(Atom::ge(
        LinExpr::var(var.clone()),
        LinExpr::constant(at + 1),
    )) {
        IntResult::Unsat(r) => r,
        other => return other,
    };
    IntResult::Unsat(ArithRefutation::Split {
        var,
        at,
        below: Box::new(below),
        above: Box::new(above),
    })
}

/// Validates a Farkas certificate against the original atoms: the weighted sum
/// must cancel every variable and leave a positive constant.
///
/// Generic over owned or borrowed atom slices so the proof checker can run
/// on references into a shared literal table without cloning.
pub fn check_certificate<A: std::borrow::Borrow<Atom>>(atoms: &[A], cert: &FarkasCert) -> bool {
    // The hot path scales every weight by the LCM of their denominators and
    // sums in plain `i128` (scaling by a positive constant preserves both
    // the cancellation and the sign of the certificate). Overflow falls
    // back to exact rationals.
    check_certificate_int(atoms, cert).unwrap_or_else(|| check_certificate_rat(atoms, cert))
}

/// Integer fast path of [`check_certificate`]: `None` means an `i128`
/// overflow, not a verdict — retry with exact rationals.
fn check_certificate_int<A: std::borrow::Borrow<Atom>>(
    atoms: &[A],
    cert: &FarkasCert,
) -> Option<bool> {
    let mut scale: i128 = 1;
    for (_, l) in cert {
        let d = l.den();
        scale = scale.checked_mul(d / gcd(scale, d).max(1))?;
    }
    // Certificates mention a handful of variables: a linear scan over a
    // small vector beats a map and its per-entry allocations at that scale.
    let mut coeffs: Vec<(&Var, i128)> = Vec::new();
    let mut cst: i128 = 0;
    for (i, l) in cert {
        let Some(a) = atoms.get(*i).map(|a| a.borrow()) else {
            return Some(false);
        };
        if a.rel() == Rel::Le && l.signum() < 0 {
            return Some(false);
        }
        let w = l.num().checked_mul(scale / l.den())?;
        for (v, c) in a.lhs().iter() {
            let wc = c.checked_mul(w)?;
            match coeffs.iter_mut().find(|(u, _)| *u == v) {
                Some((_, e)) => *e = e.checked_add(wc)?,
                None => coeffs.push((v, wc)),
            }
        }
        cst = cst.checked_add(a.lhs().constant_part().checked_mul(w)?)?;
    }
    Some(coeffs.iter().all(|(_, c)| *c == 0) && cst > 0)
}

/// Exact-rational slow path of [`check_certificate`].
fn check_certificate_rat<A: std::borrow::Borrow<Atom>>(atoms: &[A], cert: &FarkasCert) -> bool {
    let mut coeffs: Vec<(&Var, Rat)> = Vec::new();
    let mut cst = Rat::ZERO;
    for (i, l) in cert {
        let Some(a) = atoms.get(*i).map(|a| a.borrow()) else {
            return false;
        };
        if a.rel() == Rel::Le && l.signum() < 0 {
            return false;
        }
        for (v, c) in a.lhs().iter() {
            match coeffs.iter_mut().find(|(w, _)| *w == v) {
                Some((_, e)) => *e = *e + Rat::int(c) * *l,
                None => coeffs.push((v, Rat::int(c) * *l)),
            }
        }
        cst = cst + Rat::int(a.lhs().constant_part()) * *l;
    }
    coeffs.iter().all(|(_, c)| c.is_zero()) && cst.signum() > 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> LinExpr {
        LinExpr::var("x")
    }
    fn y() -> LinExpr {
        LinExpr::var("y")
    }

    #[test]
    fn simple_sat() {
        // x > 0 ∧ x < 10
        let atoms = vec![
            Atom::gt(x(), LinExpr::constant(0)),
            Atom::lt(x(), LinExpr::constant(10)),
        ];
        match int_sat(&atoms, 16) {
            IntResult::Sat(m) => {
                let xv = m[&Var::new("x")];
                assert!(xv > 0 && xv < 10);
            }
            other => panic!("expected Sat, got {other:?}"),
        }
    }

    #[test]
    fn simple_unsat_with_certificate() {
        // x > 0 ∧ x + 1 <= 0 — the paper's intro example condition.
        let atoms = vec![
            Atom::gt(x(), LinExpr::constant(0)),
            Atom::le(x() + LinExpr::constant(1), LinExpr::constant(0)),
        ];
        match int_sat(&atoms, 16) {
            IntResult::Unsat(ArithRefutation::Farkas(cert)) => {
                assert!(check_certificate(&atoms, &cert))
            }
            other => panic!("expected certified Unsat, got {other:?}"),
        }
    }

    #[test]
    fn equality_chains() {
        // x = y ∧ y = 3 ∧ x <= 2 is unsat.
        let atoms = vec![
            Atom::eq(x(), y()),
            Atom::eq(y(), LinExpr::constant(3)),
            Atom::le(x(), LinExpr::constant(2)),
        ];
        match int_sat(&atoms, 16) {
            IntResult::Unsat(ArithRefutation::Farkas(cert)) => {
                assert!(check_certificate(&atoms, &cert))
            }
            other => panic!("expected certified Unsat, got {other:?}"),
        }
    }

    #[test]
    fn parity_gcd_cut() {
        // 2x = 2y + 1 has rational solutions but no integer ones.
        let atoms = vec![Atom::eq(x() * 2, y() * 2 + LinExpr::constant(1))];
        match int_sat(&atoms, 16) {
            IntResult::Unsat(ArithRefutation::Gcd(0)) => {}
            other => panic!("expected gcd-cut Unsat, got {other:?}"),
        }
    }

    #[test]
    fn branch_and_bound_finds_integer_point() {
        // 2x >= 1 ∧ 2x <= 3 has the integer solution x = 1 only.
        let atoms = vec![
            Atom::ge(x() * 2, LinExpr::constant(1)),
            Atom::le(x() * 2, LinExpr::constant(3)),
        ];
        match int_sat(&atoms, 16) {
            IntResult::Sat(m) => assert_eq!(m[&Var::new("x")], 1),
            other => panic!("expected Sat, got {other:?}"),
        }
    }

    #[test]
    fn unbounded_system_is_sat() {
        // x <= y with both unbounded.
        let atoms = vec![Atom::le(x(), y())];
        match int_sat(&atoms, 16) {
            IntResult::Sat(m) => {
                let xv = m.get(&Var::new("x")).copied().unwrap_or(0);
                let yv = m.get(&Var::new("y")).copied().unwrap_or(0);
                assert!(xv <= yv);
            }
            other => panic!("expected Sat, got {other:?}"),
        }
    }

    #[test]
    fn cached_rational_certificates_remap_to_caller_order() {
        // The same unsat pair in both orders: the second call hits the
        // sorted-key table and its certificate must still check against the
        // caller's (reversed) atom list.
        let cache = QueryCache::new();
        let atoms1 = vec![
            Atom::gt(x(), LinExpr::constant(0)),
            Atom::le(x() + LinExpr::constant(1), LinExpr::constant(0)),
        ];
        let atoms2: Vec<Atom> = atoms1.iter().rev().cloned().collect();
        for atoms in [&atoms1, &atoms2] {
            match rational_sat_cached(atoms, Some(&cache)) {
                RatResult::Unsat(cert) => assert!(check_certificate(atoms, &cert)),
                other => panic!("expected Unsat, got {other:?}"),
            }
        }
        let s = cache.stats();
        assert_eq!((s.rat_hits, s.rat_misses), (1, 1));
    }

    #[test]
    fn model_satisfies_all_atoms() {
        let atoms = vec![
            Atom::ge(x() + y(), LinExpr::constant(5)),
            Atom::le(x() - y(), LinExpr::constant(1)),
            Atom::le(x(), LinExpr::constant(100)),
            Atom::ge(y(), LinExpr::constant(-7)),
        ];
        match int_sat(&atoms, 32) {
            IntResult::Sat(m) => {
                let env = |v: &Var| m.get(v).copied().or(Some(0));
                for a in &atoms {
                    assert_eq!(a.eval(&env), Some(true), "violated: {a}");
                }
            }
            other => panic!("expected Sat, got {other:?}"),
        }
    }
}
