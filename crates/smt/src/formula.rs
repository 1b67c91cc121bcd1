//! Quantifier-free formulas over linear integer arithmetic and booleans.

use std::collections::BTreeSet;
use std::fmt;

use crate::linexpr::{Atom, LinExpr, Rel, Var};

/// A quantifier-free formula over linear integer atoms and boolean variables.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Formula {
    /// The true constant.
    True,
    /// The false constant.
    False,
    /// A linear arithmetic atom.
    Atom(Atom),
    /// A boolean variable.
    BVar(Var),
    /// Negation.
    Not(Box<Formula>),
    /// N-ary conjunction.
    And(Vec<Formula>),
    /// N-ary disjunction.
    Or(Vec<Formula>),
}

/// A literal of the negation normal form: an arithmetic atom (always positive
/// — negation is folded into the atom) or a signed boolean variable.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Literal {
    /// A (positive) arithmetic atom.
    Arith(Atom),
    /// A boolean variable with a polarity.
    Bool(Var, bool),
}

impl Formula {
    /// Smart conjunction: flattens, drops `true`, collapses on `false`.
    pub fn and(parts: impl IntoIterator<Item = Formula>) -> Formula {
        let mut out = Vec::new();
        for p in parts {
            match p {
                Formula::True => {}
                Formula::False => return Formula::False,
                Formula::And(ps) => out.extend(ps),
                p => out.push(p),
            }
        }
        out.dedup();
        match out.len() {
            0 => Formula::True,
            1 => out.pop().expect("len checked"),
            _ => Formula::And(out),
        }
    }

    /// Smart disjunction: flattens, drops `false`, collapses on `true`.
    pub fn or(parts: impl IntoIterator<Item = Formula>) -> Formula {
        let mut out = Vec::new();
        for p in parts {
            match p {
                Formula::False => {}
                Formula::True => return Formula::True,
                Formula::Or(ps) => out.extend(ps),
                p => out.push(p),
            }
        }
        out.dedup();
        match out.len() {
            0 => Formula::False,
            1 => out.pop().expect("len checked"),
            _ => Formula::Or(out),
        }
    }

    /// Binary conjunction.
    pub fn and2(a: Formula, b: Formula) -> Formula {
        Formula::and([a, b])
    }

    /// Binary disjunction.
    pub fn or2(a: Formula, b: Formula) -> Formula {
        Formula::or([a, b])
    }

    /// Smart negation: folds constants and double negations.
    #[allow(clippy::should_implement_trait)] // associated constructor, not `!f`
    pub fn not(f: Formula) -> Formula {
        match f {
            Formula::True => Formula::False,
            Formula::False => Formula::True,
            Formula::Not(g) => *g,
            f => Formula::Not(Box::new(f)),
        }
    }

    /// `a → b`.
    pub fn implies(a: Formula, b: Formula) -> Formula {
        Formula::or2(Formula::not(a), b)
    }

    /// `a ↔ b`.
    pub fn iff(a: Formula, b: Formula) -> Formula {
        Formula::and2(
            Formula::implies(a.clone(), b.clone()),
            Formula::implies(b, a),
        )
    }

    /// An atom as a formula, folding constants.
    pub fn atom(a: Atom) -> Formula {
        match a.const_value() {
            Some(true) => Formula::True,
            Some(false) => Formula::False,
            None => Formula::Atom(a),
        }
    }

    /// `a != b` over integers: `(a < b) ∨ (a > b)`.
    pub fn int_ne(a: LinExpr, b: LinExpr) -> Formula {
        Formula::or2(
            Formula::atom(Atom::lt(a.clone(), b.clone())),
            Formula::atom(Atom::gt(a, b)),
        )
    }

    /// All variables (arithmetic and boolean) occurring in the formula.
    pub fn vars(&self) -> BTreeSet<Var> {
        let mut out = BTreeSet::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut BTreeSet<Var>) {
        match self {
            Formula::True | Formula::False => {}
            Formula::Atom(a) => out.extend(a.lhs().vars().cloned()),
            Formula::BVar(v) => {
                out.insert(v.clone());
            }
            Formula::Not(f) => f.collect_vars(out),
            Formula::And(fs) | Formula::Or(fs) => {
                for f in fs {
                    f.collect_vars(out);
                }
            }
        }
    }

    /// Substitutes linear expressions for integer variables.
    ///
    /// Boolean variables are left untouched (they cannot hold integers).
    pub fn subst(&self, x: &Var, e: &LinExpr) -> Formula {
        match self {
            Formula::True | Formula::False | Formula::BVar(_) => self.clone(),
            Formula::Atom(a) => Formula::atom(a.subst(x, e)),
            Formula::Not(f) => Formula::not(f.subst(x, e)),
            Formula::And(fs) => Formula::and(fs.iter().map(|f| f.subst(x, e))),
            Formula::Or(fs) => Formula::or(fs.iter().map(|f| f.subst(x, e))),
        }
    }

    /// Applies a simultaneous renaming to every variable (integer and boolean).
    pub fn rename(&self, f: &mut impl FnMut(&Var) -> Var) -> Formula {
        match self {
            Formula::True | Formula::False => self.clone(),
            Formula::Atom(a) => Formula::atom(a.rename(f)),
            Formula::BVar(v) => Formula::BVar(f(v)),
            Formula::Not(g) => Formula::not(g.rename(f)),
            Formula::And(fs) => Formula::and(fs.iter().map(|g| g.rename(f))),
            Formula::Or(fs) => Formula::or(fs.iter().map(|g| g.rename(f))),
        }
    }

    /// Converts to negation normal form.
    ///
    /// In the result, `Not` only wraps `BVar`; negated arithmetic atoms are
    /// rewritten into positive atoms (`¬(e <= 0)` ↦ `-e + 1 <= 0`, and
    /// `¬(e = 0)` ↦ a disjunction of two strict inequalities).
    pub fn nnf(&self) -> Formula {
        self.nnf_signed(true)
    }

    fn nnf_signed(&self, positive: bool) -> Formula {
        match (self, positive) {
            (Formula::True, true) | (Formula::False, false) => Formula::True,
            (Formula::True, false) | (Formula::False, true) => Formula::False,
            (Formula::BVar(v), true) => Formula::BVar(v.clone()),
            (Formula::BVar(v), false) => Formula::Not(Box::new(Formula::BVar(v.clone()))),
            (Formula::Atom(a), true) => Formula::atom(a.clone()),
            (Formula::Atom(a), false) => match a.rel() {
                // ¬(e <= 0)  ⟺  e >= 1  ⟺  -e + 1 <= 0   (integers)
                Rel::Le => Formula::atom(Atom::le0(-a.lhs().clone() + LinExpr::constant(1))),
                // ¬(e = 0)  ⟺  e <= -1 ∨ -e <= -1
                Rel::Eq => Formula::or2(
                    Formula::atom(Atom::le0(a.lhs().clone() + LinExpr::constant(1))),
                    Formula::atom(Atom::le0(-a.lhs().clone() + LinExpr::constant(1))),
                ),
            },
            (Formula::Not(f), pos) => f.nnf_signed(!pos),
            (Formula::And(fs), true) | (Formula::Or(fs), false) => {
                Formula::and(fs.iter().map(|f| f.nnf_signed(positive)))
            }
            (Formula::Or(fs), true) | (Formula::And(fs), false) => {
                Formula::or(fs.iter().map(|f| f.nnf_signed(positive)))
            }
        }
    }

    /// Converts to disjunctive normal form: a disjunction of conjunctions of
    /// [`Literal`]s. Returns `None` if the DNF would exceed `limit` cubes.
    pub fn dnf(&self, limit: usize) -> Option<Vec<Vec<Literal>>> {
        // The cross products run over `u32` indices into a leaf table and
        // each literal is cloned exactly once, into the final output.
        fn go(f: &Formula, leaves: &mut Vec<Literal>, limit: usize) -> Option<Vec<Vec<u32>>> {
            let leaf = |l: Literal, leaves: &mut Vec<Literal>| {
                leaves.push(l);
                Some(vec![vec![(leaves.len() - 1) as u32]])
            };
            match f {
                Formula::True => Some(vec![vec![]]),
                Formula::False => Some(vec![]),
                Formula::Atom(a) => leaf(Literal::Arith(a.clone()), leaves),
                Formula::BVar(v) => leaf(Literal::Bool(v.clone(), true), leaves),
                Formula::Not(g) => match g.as_ref() {
                    Formula::BVar(v) => leaf(Literal::Bool(v.clone(), false), leaves),
                    _ => unreachable!("dnf input must be in NNF"),
                },
                Formula::Or(fs) => {
                    let mut out = Vec::new();
                    for f in fs {
                        out.extend(go(f, leaves, limit)?);
                        if out.len() > limit {
                            return None;
                        }
                    }
                    Some(out)
                }
                Formula::And(fs) => {
                    let mut acc: Vec<Vec<u32>> = vec![vec![]];
                    for f in fs {
                        let d = go(f, leaves, limit)?;
                        let mut next = Vec::with_capacity(acc.len().saturating_mul(d.len()));
                        for cube in &acc {
                            for extra in &d {
                                let mut c = Vec::with_capacity(cube.len() + extra.len());
                                c.extend_from_slice(cube);
                                c.extend_from_slice(extra);
                                next.push(c);
                                if next.len() > limit {
                                    return None;
                                }
                            }
                        }
                        acc = next;
                    }
                    Some(acc)
                }
            }
        }
        let mut leaves = Vec::new();
        let cubes = go(&self.nnf(), &mut leaves, limit)?;
        Some(
            cubes
                .into_iter()
                .map(|c| c.into_iter().map(|i| leaves[i as usize].clone()).collect())
                .collect(),
        )
    }

    /// Evaluates under integer and boolean assignments.
    ///
    /// Returns `None` if an unbound variable is encountered.
    pub fn eval(
        &self,
        ints: &dyn Fn(&Var) -> Option<i128>,
        bools: &dyn Fn(&Var) -> Option<bool>,
    ) -> Option<bool> {
        match self {
            Formula::True => Some(true),
            Formula::False => Some(false),
            Formula::Atom(a) => a.eval(ints),
            Formula::BVar(v) => bools(v),
            Formula::Not(f) => f.eval(ints, bools).map(|b| !b),
            Formula::And(fs) => {
                let mut all = true;
                for f in fs {
                    all &= f.eval(ints, bools)?;
                }
                Some(all)
            }
            Formula::Or(fs) => {
                let mut any = false;
                for f in fs {
                    any |= f.eval(ints, bools)?;
                }
                Some(any)
            }
        }
    }

    /// A canonical representative of the formula up to child order and
    /// duplication inside `And`/`Or`, used as the [`crate::QueryCache`] key.
    ///
    /// Atoms are already canonical at construction (gcd-normalized, sign-
    /// canonicalized), so sorting and deduplicating the n-ary connectives is
    /// enough to make syntactic permutations collide: `canon(a ∧ b) ==
    /// canon(b ∧ a)`. The result is semantically equivalent to `self` — any
    /// model of one satisfies the other — which is what makes a cache entry
    /// computed for one permutation reusable for all of them.
    pub fn canon(&self) -> Formula {
        match self {
            Formula::True | Formula::False | Formula::Atom(_) | Formula::BVar(_) => self.clone(),
            Formula::Not(f) => Formula::Not(Box::new(f.canon())),
            Formula::And(fs) => {
                let mut cs: Vec<Formula> = fs.iter().map(Formula::canon).collect();
                cs.sort_unstable();
                cs.dedup();
                Formula::And(cs)
            }
            Formula::Or(fs) => {
                let mut cs: Vec<Formula> = fs.iter().map(Formula::canon).collect();
                cs.sort_unstable();
                cs.dedup();
                Formula::Or(cs)
            }
        }
    }

    /// A crude size measure (number of AST nodes), used to bound heuristics.
    pub fn size(&self) -> usize {
        match self {
            Formula::True | Formula::False | Formula::Atom(_) | Formula::BVar(_) => 1,
            Formula::Not(f) => 1 + f.size(),
            Formula::And(fs) | Formula::Or(fs) => 1 + fs.iter().map(Formula::size).sum::<usize>(),
        }
    }
}

impl From<Atom> for Formula {
    fn from(a: Atom) -> Formula {
        Formula::atom(a)
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn prec(f: &Formula) -> u8 {
            match f {
                Formula::Or(_) => 1,
                Formula::And(_) => 2,
                _ => 3,
            }
        }
        fn show(f: &Formula, out: &mut fmt::Formatter<'_>, min: u8) -> fmt::Result {
            let p = prec(f);
            let paren = p < min;
            if paren {
                write!(out, "(")?;
            }
            match f {
                Formula::True => write!(out, "true")?,
                Formula::False => write!(out, "false")?,
                Formula::Atom(a) => write!(out, "{a}")?,
                Formula::BVar(v) => write!(out, "{v}")?,
                Formula::Not(g) => {
                    write!(out, "not ")?;
                    show(g, out, 3)?;
                }
                Formula::And(fs) => {
                    for (i, g) in fs.iter().enumerate() {
                        if i > 0 {
                            write!(out, " && ")?;
                        }
                        show(g, out, 3)?;
                    }
                }
                Formula::Or(fs) => {
                    for (i, g) in fs.iter().enumerate() {
                        if i > 0 {
                            write!(out, " || ")?;
                        }
                        show(g, out, 2)?;
                    }
                }
            }
            if paren {
                write!(out, ")")?;
            }
            Ok(())
        }
        show(self, f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> LinExpr {
        LinExpr::var("x")
    }

    #[test]
    fn smart_constructors_fold() {
        assert_eq!(Formula::and([Formula::True, Formula::True]), Formula::True);
        assert_eq!(
            Formula::and([Formula::True, Formula::False]),
            Formula::False
        );
        assert_eq!(Formula::or([Formula::False, Formula::True]), Formula::True);
        assert_eq!(
            Formula::not(Formula::not(Formula::BVar(Var::new("b")))),
            Formula::BVar(Var::new("b"))
        );
    }

    #[test]
    fn nnf_negates_atoms() {
        // ¬(x <= 0) over integers is x >= 1.
        let f = Formula::not(Formula::atom(Atom::le0(x())));
        let n = f.nnf();
        assert_eq!(n, Formula::atom(Atom::le0(-x() + LinExpr::constant(1))));
    }

    #[test]
    fn nnf_eq_negation_is_disjunction() {
        let f = Formula::not(Formula::atom(Atom::eq0(x())));
        match f.nnf() {
            Formula::Or(fs) => assert_eq!(fs.len(), 2),
            other => panic!("expected Or, got {other}"),
        }
    }

    #[test]
    fn dnf_distributes() {
        // (a || b) && c has two cubes.
        let a = Formula::BVar(Var::new("a"));
        let b = Formula::BVar(Var::new("b"));
        let c = Formula::BVar(Var::new("c"));
        let f = Formula::and2(Formula::or2(a, b), c);
        let d = f.dnf(16).expect("within limit");
        assert_eq!(d.len(), 2);
        assert!(d.iter().all(|cube| cube.len() == 2));
    }

    #[test]
    fn dnf_respects_limit() {
        let mut parts = Vec::new();
        for i in 0..10 {
            parts.push(Formula::or2(
                Formula::BVar(Var::new(format!("a{i}"))),
                Formula::BVar(Var::new(format!("b{i}"))),
            ));
        }
        let f = Formula::and(parts);
        assert!(f.dnf(100).is_none());
    }

    #[test]
    fn eval_mixed() {
        let f = Formula::and2(
            Formula::atom(Atom::gt(x(), LinExpr::constant(0))),
            Formula::BVar(Var::new("b")),
        );
        let ints = |v: &Var| (v.name() == "x").then_some(1i128);
        let bools = |v: &Var| (v.name() == "b").then_some(true);
        assert_eq!(f.eval(&ints, &bools), Some(true));
    }
}
