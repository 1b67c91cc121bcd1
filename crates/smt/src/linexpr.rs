//! Variables, linear integer expressions, and atomic constraints.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};
use std::sync::Arc;

use crate::rat::gcd;

/// A variable name, shared: cloning a variable (and so a formula, an atom
/// or a model) bumps a reference count instead of copying the name.
///
/// Variables are ordered and hashable so they can key the sorted coefficient
/// maps inside [`LinExpr`]. Equality, order, hashing and display are the
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
/// Invariant: no coefficient stored in the map is zero.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LinExpr {
    coeffs: BTreeMap<Var, i128>,
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
            coeffs: BTreeMap::new(),
            constant: k,
        }
    }

    /// The expression `1·x`.
    pub fn var(x: impl Into<Var>) -> LinExpr {
        let mut coeffs = BTreeMap::new();
        coeffs.insert(x.into(), 1);
        LinExpr {
            coeffs,
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

    /// The coefficient of `x` (zero if absent).
    pub fn coeff(&self, x: &Var) -> i128 {
        self.coeffs.get(x).copied().unwrap_or(0)
    }

    /// Iterates over `(variable, coefficient)` pairs with non-zero coefficient.
    pub fn iter(&self) -> impl Iterator<Item = (&Var, i128)> {
        self.coeffs.iter().map(|(v, &c)| (v, c))
    }

    /// `true` iff the expression is a constant.
    pub fn is_constant(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// The variables occurring in the expression.
    pub fn vars(&self) -> impl Iterator<Item = &Var> {
        self.coeffs.keys()
    }

    /// Adds `c·x` in place.
    pub fn add_term(&mut self, c: i128, x: Var) {
        if c == 0 {
            return;
        }
        let entry = self.coeffs.entry(x).or_insert(0);
        *entry = entry.checked_add(c).expect("coefficient overflow");
        if *entry == 0 {
            // Re-find to remove; `entry` borrow ended above.
        }
        self.coeffs.retain(|_, c| *c != 0);
    }

    /// Substitutes `x := e` and returns the result.
    pub fn subst(&self, x: &Var, e: &LinExpr) -> LinExpr {
        match self.coeffs.get(x) {
            None => self.clone(),
            Some(&c) => {
                let mut out = self.clone();
                out.coeffs.remove(x);
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
            for c in self.coeffs.values_mut() {
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
    fn add(mut self, rhs: LinExpr) -> LinExpr {
        for (v, c) in rhs.coeffs {
            let entry = self.coeffs.entry(v).or_insert(0);
            *entry = entry.checked_add(c).expect("coefficient overflow");
        }
        self.coeffs.retain(|_, c| *c != 0);
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
        for c in self.coeffs.values_mut() {
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
        for c in self.coeffs.values_mut() {
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
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Atom {
    lhs: LinExpr,
    rel: Rel,
}

impl Atom {
    /// `e <= 0`.
    pub fn le0(lhs: LinExpr) -> Atom {
        let mut lhs = lhs;
        // Normalizing the gcd keeps atoms syntactically canonical; over the
        // rationals this is an equivalence, and over the integers dividing
        // `e <= 0` by the gcd of *all* coefficients including the constant is
        // also exact.
        lhs.normalize_gcd();
        Atom { lhs, rel: Rel::Le }
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
        Atom { lhs, rel: Rel::Eq }
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
        &self.lhs
    }

    /// The relation.
    pub fn rel(&self) -> Rel {
        self.rel
    }

    /// Substitutes `x := e`.
    pub fn subst(&self, x: &Var, e: &LinExpr) -> Atom {
        let lhs = self.lhs.subst(x, e);
        match self.rel {
            Rel::Le => Atom::le0(lhs),
            Rel::Eq => Atom::eq0(lhs),
        }
    }

    /// Applies a simultaneous renaming of variables.
    pub fn rename(&self, f: &mut impl FnMut(&Var) -> Var) -> Atom {
        let lhs = self.lhs.rename(f);
        match self.rel {
            Rel::Le => Atom::le0(lhs),
            Rel::Eq => Atom::eq0(lhs),
        }
    }

    /// Evaluates under an integer assignment.
    pub fn eval(&self, env: &dyn Fn(&Var) -> Option<i128>) -> Option<bool> {
        let v = self.lhs.eval(env)?;
        Some(match self.rel {
            Rel::Le => v <= 0,
            Rel::Eq => v == 0,
        })
    }

    /// `true` if the atom has no variables and holds; `false` if it has no
    /// variables and fails; `None` if it has variables.
    pub fn const_value(&self) -> Option<bool> {
        if !self.lhs.is_constant() {
            return None;
        }
        Some(match self.rel {
            Rel::Le => self.lhs.constant_part() <= 0,
            Rel::Eq => self.lhs.constant_part() == 0,
        })
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
        let mut lhs = self.lhs.clone();
        let k = lhs.constant_part();
        lhs = lhs - LinExpr::constant(k);
        let op = match self.rel {
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
