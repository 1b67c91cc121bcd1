//! Variables, linear integer expressions, and atomic constraints.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher, RandomState};
use std::ops::{Add, Mul, Neg, Sub};
use std::sync::{Arc, OnceLock};

use crate::rat::gcd;

/// A variable name, shared: cloning a variable (and so a formula, an atom
/// or a model) bumps a reference count instead of copying the name.
///
/// Variables are ordered so that the coefficient vector inside [`LinExpr`]
/// can be kept sorted by them. Equality, order, hashing and display are the
/// name's, exactly as for a `String`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(Arc<str>);

impl Var {
    /// Creates a variable with the given name.
    pub fn new(name: impl AsRef<str>) -> Var {
        Var(Arc::from(name.as_ref()))
    }

    /// The variable's name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<&str> for Var {
    fn from(s: &str) -> Var {
        Var::new(s)
    }
}

impl From<String> for Var {
    fn from(s: String) -> Var {
        Var::new(s)
    }
}

/// A linear expression `c₁·x₁ + … + cₙ·xₙ + k` with integer coefficients.
///
/// The coefficients are a flat vector sorted by variable, with no zero
/// entry, so the derived `Eq` and `Ord` compare the `(variable,
/// coefficient)` pairs lexicographically and then the constant, exactly as
/// a sorted map of the same pairs would.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LinExpr {
    coeffs: Vec<(Var, i128)>,
    constant: i128,
}

impl LinExpr {
    /// The zero expression.
    pub fn zero() -> LinExpr {
        LinExpr::default()
    }

    /// The constant expression `k`.
    pub fn constant(k: i128) -> LinExpr {
        LinExpr {
            coeffs: Vec::new(),
            constant: k,
        }
    }

    /// The expression `1·x`.
    pub fn var(x: impl Into<Var>) -> LinExpr {
        LinExpr {
            coeffs: vec![(x.into(), 1)],
            constant: 0,
        }
    }

    /// The expression `c·x`.
    pub fn term(c: i128, x: impl Into<Var>) -> LinExpr {
        LinExpr::var(x) * c
    }

    /// The constant part `k`.
    pub fn constant_part(&self) -> i128 {
        self.constant
    }

    /// Where `x`'s entry is (`Ok`) or would go (`Err`) in the sorted vector.
    fn position(&self, x: &Var) -> Result<usize, usize> {
        self.coeffs.binary_search_by(|(v, _)| v.cmp(x))
    }

    /// The coefficient of `x` (zero if absent).
    pub fn coeff(&self, x: &Var) -> i128 {
        self.position(x).map_or(0, |i| self.coeffs[i].1)
    }

    /// Iterates over `(variable, coefficient)` pairs with non-zero
    /// coefficient, in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (&Var, i128)> {
        self.coeffs.iter().map(|(v, c)| (v, *c))
    }

    /// `true` iff the expression is a constant.
    pub fn is_constant(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// The variables occurring in the expression, in order.
    pub fn vars(&self) -> impl Iterator<Item = &Var> {
        self.coeffs.iter().map(|(v, _)| v)
    }

    /// Adds `c·x` in place.
    pub fn add_term(&mut self, c: i128, x: Var) {
        if c == 0 {
            return;
        }
        match self.position(&x) {
            Ok(i) => {
                let sum = self.coeffs[i].1.checked_add(c);
                match sum.expect("coefficient overflow") {
                    0 => {
                        self.coeffs.remove(i);
                    }
                    sum => self.coeffs[i].1 = sum,
                }
            }
            Err(i) => self.coeffs.insert(i, (x, c)),
        }
    }

    /// Substitutes `x := e` and returns the result.
    pub fn subst(&self, x: &Var, e: &LinExpr) -> LinExpr {
        match self.position(x) {
            Err(_) => self.clone(),
            Ok(i) => {
                let mut out = self.clone();
                let (_, c) = out.coeffs.remove(i);
                out + e.clone() * c
            }
        }
    }

    /// Applies a simultaneous renaming of variables.
    pub fn rename(&self, f: &mut impl FnMut(&Var) -> Var) -> LinExpr {
        let mut out = LinExpr::constant(self.constant);
        for (v, c) in self.iter() {
            out.add_term(c, f(v));
        }
        out
    }

    /// Evaluates under an integer assignment; `None` if a variable is unbound.
    pub fn eval(&self, env: &dyn Fn(&Var) -> Option<i128>) -> Option<i128> {
        let mut acc = self.constant;
        for (v, c) in self.iter() {
            acc = acc.checked_add(c.checked_mul(env(v)?)?)?;
        }
        Some(acc)
    }

    /// Divides all coefficients and the constant by their (positive) gcd.
    ///
    /// Returns the gcd used (1 if the expression was already primitive or is
    /// zero).
    pub fn normalize_gcd(&mut self) -> i128 {
        let mut g = self.constant;
        for (_, c) in self.iter() {
            g = gcd(g, c);
        }
        let g = g.abs();
        if g > 1 {
            for (_, c) in &mut self.coeffs {
                *c /= g;
            }
            self.constant /= g;
            g
        } else {
            1
        }
    }
}

impl Add for LinExpr {
    type Output = LinExpr;
    /// Merges the two sorted coefficient vectors in one pass, dropping the
    /// entries that cancel.
    fn add(mut self, rhs: LinExpr) -> LinExpr {
        if self.coeffs.is_empty() {
            self.coeffs = rhs.coeffs;
        } else if !rhs.coeffs.is_empty() {
            let mut coeffs = Vec::with_capacity(self.coeffs.len() + rhs.coeffs.len());
            let mut a = std::mem::take(&mut self.coeffs).into_iter().peekable();
            let mut b = rhs.coeffs.into_iter().peekable();
            while let (Some((x, _)), Some((y, _))) = (a.peek(), b.peek()) {
                match x.cmp(y) {
                    Ordering::Less => coeffs.extend(a.next()),
                    Ordering::Greater => coeffs.extend(b.next()),
                    Ordering::Equal => {
                        let (x, c) = a.next().expect("peeked");
                        let (_, d) = b.next().expect("peeked");
                        match c.checked_add(d).expect("coefficient overflow") {
                            0 => {}
                            sum => coeffs.push((x, sum)),
                        }
                    }
                }
            }
            coeffs.extend(a);
            coeffs.extend(b);
            self.coeffs = coeffs;
        }
        self.constant = self
            .constant
            .checked_add(rhs.constant)
            .expect("constant overflow");
        self
    }
}

impl Sub for LinExpr {
    type Output = LinExpr;
    fn sub(self, rhs: LinExpr) -> LinExpr {
        self + (-rhs)
    }
}

impl Neg for LinExpr {
    type Output = LinExpr;
    fn neg(mut self) -> LinExpr {
        for (_, c) in &mut self.coeffs {
            *c = c.checked_neg().expect("coefficient overflow");
        }
        self.constant = self.constant.checked_neg().expect("constant overflow");
        self
    }
}

impl Mul<i128> for LinExpr {
    type Output = LinExpr;
    fn mul(mut self, k: i128) -> LinExpr {
        if k == 0 {
            return LinExpr::zero();
        }
        for (_, c) in &mut self.coeffs {
            *c = c.checked_mul(k).expect("coefficient overflow");
        }
        self.constant = self.constant.checked_mul(k).expect("constant overflow");
        self
    }
}

impl fmt::Debug for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (v, c) in self.iter() {
            if first {
                match c {
                    1 => write!(f, "{v}")?,
                    -1 => write!(f, "-{v}")?,
                    _ => write!(f, "{c}*{v}")?,
                }
                first = false;
            } else if c >= 0 {
                if c == 1 {
                    write!(f, " + {v}")?;
                } else {
                    write!(f, " + {c}*{v}")?;
                }
            } else if c == -1 {
                write!(f, " - {v}")?;
            } else {
                write!(f, " - {}*{v}", -c)?;
            }
        }
        if first {
            write!(f, "{}", self.constant)?;
        } else if self.constant > 0 {
            write!(f, " + {}", self.constant)?;
        } else if self.constant < 0 {
            write!(f, " - {}", -self.constant)?;
        }
        Ok(())
    }
}

/// The relation of an atomic constraint, always against zero.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Rel {
    /// `e <= 0`
    Le,
    /// `e == 0`
    Eq,
}

/// An atomic linear constraint `e ⋈ 0` with `⋈ ∈ {<=, ==}`.
///
/// Strict comparisons over the integers are normalized away at construction
/// (`e < 0` becomes `e + 1 <= 0`), so only `Le` and `Eq` remain.
///
/// An atom is immutable and shared: cloning it (and so a formula, a cache
/// key or an implicant) bumps a reference count, and its hash is computed
/// once, when it is built. Equality and order are those of `(lhs, rel)`,
/// the left-hand side first; the hash only ever feeds hash tables.
#[derive(Clone)]
pub struct Atom(Arc<AtomData>);

struct AtomData {
    lhs: LinExpr,
    rel: Rel,
    /// A hash of `(lhs, rel)`, fixed at construction.
    hash: u64,
}

/// The keys of every atom's hash. They are drawn once per process, like a
/// `HashMap`'s, so atoms cannot be crafted to collide, and an output that
/// came to depend on a hash value would differ between two runs.
static HASH_KEYS: OnceLock<RandomState> = OnceLock::new();

impl Atom {
    /// The one place an atom is built: `lhs` is already canonical.
    fn new(lhs: LinExpr, rel: Rel) -> Atom {
        let hash = HASH_KEYS
            .get_or_init(RandomState::new)
            .hash_one((&lhs, rel));
        Atom(Arc::new(AtomData { lhs, rel, hash }))
    }

    /// `e <= 0`.
    pub fn le0(lhs: LinExpr) -> Atom {
        let mut lhs = lhs;
        // Normalizing the gcd keeps atoms syntactically canonical; over the
        // rationals this is an equivalence, and over the integers dividing
        // `e <= 0` by the gcd of *all* coefficients including the constant is
        // also exact.
        lhs.normalize_gcd();
        Atom::new(lhs, Rel::Le)
    }

    /// `e == 0`.
    pub fn eq0(lhs: LinExpr) -> Atom {
        let mut lhs = lhs;
        lhs.normalize_gcd();
        // Canonicalize sign: leading coefficient positive.
        let flip = match lhs.iter().next() {
            Some((_, c)) => c < 0,
            None => lhs.constant_part() < 0,
        };
        let lhs = if flip { -lhs } else { lhs };
        Atom::new(lhs, Rel::Eq)
    }

    /// `a <= b`.
    pub fn le(a: LinExpr, b: LinExpr) -> Atom {
        Atom::le0(a - b)
    }

    /// `a < b` (integer semantics: `a + 1 <= b`).
    pub fn lt(a: LinExpr, b: LinExpr) -> Atom {
        Atom::le0(a - b + LinExpr::constant(1))
    }

    /// `a >= b`.
    pub fn ge(a: LinExpr, b: LinExpr) -> Atom {
        Atom::le(b, a)
    }

    /// `a > b`.
    pub fn gt(a: LinExpr, b: LinExpr) -> Atom {
        Atom::lt(b, a)
    }

    /// `a == b`.
    pub fn eq(a: LinExpr, b: LinExpr) -> Atom {
        Atom::eq0(a - b)
    }

    /// The left-hand side (the relation is against zero).
    pub fn lhs(&self) -> &LinExpr {
        &self.0.lhs
    }

    /// The relation.
    pub fn rel(&self) -> Rel {
        self.0.rel
    }

    /// Rebuilds the atom with the same relation over a new left-hand side.
    fn with_lhs(&self, lhs: LinExpr) -> Atom {
        match self.rel() {
            Rel::Le => Atom::le0(lhs),
            Rel::Eq => Atom::eq0(lhs),
        }
    }

    /// Substitutes `x := e`. An atom without `x` is returned shared.
    pub fn subst(&self, x: &Var, e: &LinExpr) -> Atom {
        if self.lhs().coeff(x) == 0 {
            return self.clone();
        }
        self.with_lhs(self.lhs().subst(x, e))
    }

    /// Applies a simultaneous renaming of variables.
    pub fn rename(&self, f: &mut impl FnMut(&Var) -> Var) -> Atom {
        self.with_lhs(self.lhs().rename(f))
    }

    /// Evaluates under an integer assignment.
    pub fn eval(&self, env: &dyn Fn(&Var) -> Option<i128>) -> Option<bool> {
        let v = self.lhs().eval(env)?;
        Some(match self.rel() {
            Rel::Le => v <= 0,
            Rel::Eq => v == 0,
        })
    }

    /// `true` if the atom has no variables and holds; `false` if it has no
    /// variables and fails; `None` if it has variables.
    pub fn const_value(&self) -> Option<bool> {
        if !self.lhs().is_constant() {
            return None;
        }
        Some(match self.rel() {
            Rel::Le => self.lhs().constant_part() <= 0,
            Rel::Eq => self.lhs().constant_part() == 0,
        })
    }
}

impl PartialEq for Atom {
    fn eq(&self, other: &Atom) -> bool {
        let (a, b) = (&*self.0, &*other.0);
        Arc::ptr_eq(&self.0, &other.0) || (a.hash == b.hash && a.rel == b.rel && a.lhs == b.lhs)
    }
}

impl Eq for Atom {}

impl Ord for Atom {
    fn cmp(&self, other: &Atom) -> Ordering {
        if Arc::ptr_eq(&self.0, &other.0) {
            return Ordering::Equal;
        }
        let (a, b) = (&*self.0, &*other.0);
        a.lhs.cmp(&b.lhs).then(a.rel.cmp(&b.rel))
    }
}

impl PartialOrd for Atom {
    fn partial_cmp(&self, other: &Atom) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for Atom {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.hash);
    }
}

impl fmt::Debug for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Pretty-print with the constant moved to the right-hand side.
        let mut lhs = self.lhs().clone();
        let k = lhs.constant_part();
        lhs = lhs - LinExpr::constant(k);
        let op = match self.rel() {
            Rel::Le => "<=",
            Rel::Eq => "=",
        };
        if lhs.is_constant() {
            write!(f, "{} {} {}", k, op, 0)
        } else {
            write!(f, "{} {} {}", lhs, op, -k)
        }
    }
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
    fn linexpr_algebra() {
        let e = x() * 2 + y() - x() * 2;
        assert_eq!(e, y());
        let e = x() + LinExpr::constant(3) - x();
        assert!(e.is_constant());
        assert_eq!(e.constant_part(), 3);
    }

    #[test]
    fn subst() {
        // (2x + y + 1)[x := y - 1] = 3y - 1
        let e = x() * 2 + y() + LinExpr::constant(1);
        let r = e.subst(&Var::new("x"), &(y() - LinExpr::constant(1)));
        assert_eq!(r, y() * 3 - LinExpr::constant(1));
    }

    #[test]
    fn add_term_removes_an_entry_that_reaches_zero() {
        let (vx, vy) = (Var::new("x"), Var::new("y"));
        let mut e = x() * 2 + y();
        e.add_term(-2, vx.clone());
        assert_eq!(e, y());
        assert_eq!(e.coeff(&vx), 0);
        assert_eq!(e.vars().collect::<Vec<_>>(), [&vy]);
        e.add_term(-1, vy);
        assert!(e.is_constant());
        assert_eq!(e, LinExpr::zero());
        // Adding zero leaves no entry either.
        e.add_term(0, vx);
        assert_eq!(e, LinExpr::zero());
    }

    #[test]
    fn subst_of_an_absent_variable() {
        let z = Var::new("z");
        let e = x() * 2 + LinExpr::constant(1);
        assert_eq!(e.subst(&z, &y()), e);
        // An atom without the variable comes back shared, not rebuilt.
        let a = Atom::le0(e);
        assert!(Arc::ptr_eq(&a.subst(&z, &y()).0, &a.0));
        let b = a.subst(&Var::new("x"), &y());
        assert_eq!(b, Atom::le(y() * 2, LinExpr::constant(-1)));
    }

    #[test]
    fn atom_normalization() {
        // 2x <= 4  normalizes to  x <= 2
        let a = Atom::le(x() * 2, LinExpr::constant(4));
        assert_eq!(a, Atom::le(x(), LinExpr::constant(2)));
        // -x = -3 canonicalizes to x = 3
        let a = Atom::eq(-x(), LinExpr::constant(-3));
        assert_eq!(a, Atom::eq(x(), LinExpr::constant(3)));
    }

    #[test]
    fn strict_is_integer_tightened() {
        // x < 3 becomes x + 1 <= 3 i.e. x <= 2
        let a = Atom::lt(x(), LinExpr::constant(3));
        assert_eq!(a, Atom::le(x(), LinExpr::constant(2)));
    }

    #[test]
    fn eval() {
        let a = Atom::gt(x(), y());
        let env = |v: &Var| -> Option<i128> {
            match v.name() {
                "x" => Some(5),
                "y" => Some(3),
                _ => None,
            }
        };
        assert_eq!(a.eval(&env), Some(true));
    }
}
