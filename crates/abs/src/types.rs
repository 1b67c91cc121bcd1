//! Abstraction types (the paper's §4).
//!
//! An abstraction type tells *how a value is abstracted*, not what it is:
//! `int[P₁,…,Pₙ]` says an integer is represented by the boolean tuple
//! `⟨P₁(ν),…,Pₙ(ν)⟩`; the dependent function type `x:σ₁ → σ₂` lets the
//! predicates of `σ₂` mention the argument `x`. (Figure 3 gives the
//! well-formedness conditions; [`AbsTy::well_formed`] checks them.)
//!
//! Conventions fixed by this implementation (the paper leaves the choice of
//! per-site predicates to the algorithm):
//!
//! * `unit` values carry no predicates (width-0 tuples);
//! * `bool` values always carry exactly the identity predicate `λν.ν`
//!   (booleans are tracked exactly);
//! * `int` values carry the CEGAR-discovered predicate list.

use std::collections::BTreeMap;
use std::fmt;

use homc_lang::types::SimpleTy;
use homc_smt::{Formula, LinExpr, Var};

use homc_hbp::BTy;

/// A predicate `λν.φ`; `φ` may mention `ν` (via [`Predicate::nu`]) and any
/// in-scope variables (dependency).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Predicate {
    nu: Var,
    body: Formula,
}

impl Predicate {
    /// Creates `λnu.body`.
    pub fn new(nu: Var, body: Formula) -> Predicate {
        Predicate { nu, body }
    }

    /// The identity predicate on booleans, `λν.ν`.
    pub fn bool_identity() -> Predicate {
        let nu = Var::new("@nu");
        Predicate {
            body: Formula::BVar(nu.clone()),
            nu,
        }
    }

    /// The bound variable.
    pub fn nu(&self) -> &Var {
        &self.nu
    }

    /// The body.
    pub fn body(&self) -> &Formula {
        &self.body
    }

    /// Applies the predicate to an expression. Integer occurrences of `ν`
    /// are substituted by `e`; when `e` is a single variable, boolean
    /// occurrences (the identity predicate on booleans) are renamed to it as
    /// well.
    pub fn apply(&self, e: &LinExpr) -> Formula {
        let f = self.body.subst(&self.nu, e);
        let single = e.constant_part() == 0 && {
            let terms: Vec<_> = e.iter().collect();
            terms.len() == 1 && terms[0].1 == 1
        };
        if single {
            let v = e.vars().next().expect("single variable").clone();
            f.rename(&mut |x| if x == &self.nu { v.clone() } else { x.clone() })
        } else {
            f
        }
    }

    /// Substitutes an expression for a free (dependency) variable.
    pub fn subst(&self, x: &Var, e: &LinExpr) -> Predicate {
        if x == &self.nu {
            return self.clone();
        }
        Predicate {
            nu: self.nu.clone(),
            body: self.body.subst(x, e),
        }
    }

    /// The free variables of the body, excluding `ν`.
    pub fn free_vars(&self) -> Vec<Var> {
        self.body
            .vars()
            .into_iter()
            .filter(|v| v != &self.nu)
            .collect()
    }

    /// α-equivalence (bodies compared after renaming `ν`).
    pub fn alpha_eq(&self, other: &Predicate) -> bool {
        let canon = LinExpr::var(Var::new("@nu"));
        self.body.subst(&self.nu, &canon) == other.body.subst(&other.nu, &canon)
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "λ{}.{}", self.nu, self.body)
    }
}

/// An abstraction type.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AbsTy {
    /// `b[P̃]` — a base type with its predicate list.
    Base(SimpleTy, Vec<Predicate>),
    /// `x:σ₁ → σ₂` — dependent function type; `x` may occur in `σ₂`'s
    /// predicates when `σ₁` is an integer type.
    Fun(Var, Box<AbsTy>, Box<AbsTy>),
}

impl AbsTy {
    /// `unit[]`.
    pub fn unit() -> AbsTy {
        AbsTy::Base(SimpleTy::Unit, Vec::new())
    }

    /// `bool[λν.ν]`.
    pub fn boolean() -> AbsTy {
        AbsTy::Base(SimpleTy::Bool, vec![Predicate::bool_identity()])
    }

    /// `int[P̃]`.
    pub fn int(preds: Vec<Predicate>) -> AbsTy {
        AbsTy::Base(SimpleTy::Int, preds)
    }

    /// `x:σ₁ → σ₂`.
    pub fn fun(x: impl Into<Var>, a: AbsTy, b: AbsTy) -> AbsTy {
        AbsTy::Fun(x.into(), Box::new(a), Box::new(b))
    }

    /// The default abstraction type for a simple type: no predicates on
    /// integers, identity on booleans; dependency names are fresh-ish.
    pub fn default_for(t: &SimpleTy, counter: &mut usize) -> AbsTy {
        match t {
            SimpleTy::Unit => AbsTy::unit(),
            SimpleTy::Bool => AbsTy::boolean(),
            SimpleTy::Int => AbsTy::int(Vec::new()),
            SimpleTy::Fun(a, b) => {
                *counter += 1;
                let x = Var::new(format!("@d{counter}"));
                AbsTy::fun(
                    x,
                    AbsTy::default_for(a, counter),
                    AbsTy::default_for(b, counter),
                )
            }
        }
    }

    /// The underlying simple type (the paper's `A2S`).
    pub fn simple(&self) -> SimpleTy {
        match self {
            AbsTy::Base(t, _) => t.clone(),
            AbsTy::Fun(_, a, b) => SimpleTy::fun(a.simple(), b.simple()),
        }
    }

    /// The boolean-program type (the paper's `β`): each base type becomes a
    /// tuple as wide as its predicate list.
    pub fn translate(&self) -> BTy {
        match self {
            AbsTy::Base(_, ps) => BTy::Tuple(ps.len()),
            AbsTy::Fun(_, a, b) => BTy::fun(a.translate(), b.translate()),
        }
    }

    /// Substitutes an integer expression for a dependency variable.
    pub fn subst(&self, x: &Var, e: &LinExpr) -> AbsTy {
        match self {
            AbsTy::Base(t, ps) => {
                AbsTy::Base(t.clone(), ps.iter().map(|p| p.subst(x, e)).collect())
            }
            AbsTy::Fun(y, a, b) => {
                if y == x {
                    // Shadowed: only the domain sees the substitution.
                    AbsTy::Fun(y.clone(), Box::new(a.subst(x, e)), b.clone())
                } else {
                    AbsTy::Fun(y.clone(), Box::new(a.subst(x, e)), Box::new(b.subst(x, e)))
                }
            }
        }
    }

    /// α-equivalence of abstraction types (dependency names are canonical-
    /// ized before comparison).
    pub fn alpha_eq(&self, other: &AbsTy) -> bool {
        fn go(a: &AbsTy, b: &AbsTy, depth: &mut usize) -> bool {
            match (a, b) {
                (AbsTy::Base(t1, p1), AbsTy::Base(t2, p2)) => {
                    t1 == t2
                        && p1.len() == p2.len()
                        && p1.iter().zip(p2).all(|(x, y)| x.alpha_eq(y))
                }
                (AbsTy::Fun(x1, a1, b1), AbsTy::Fun(x2, a2, b2)) => {
                    *depth += 1;
                    let canon = LinExpr::var(Var::new(format!("@c{depth}")));
                    go(a1, a2, depth) && go(&b1.subst(x1, &canon), &b2.subst(x2, &canon), depth)
                }
                _ => false,
            }
        }
        go(self, other, &mut 0)
    }

    /// Well-formedness (Figure 3): predicates are over `ν` and in-scope
    /// *integer* dependency variables (plus the supplied ambient scope).
    pub fn well_formed(&self, scope: &mut Vec<Var>) -> Result<(), String> {
        match self {
            AbsTy::Base(t, ps) => {
                match t {
                    SimpleTy::Unit if !ps.is_empty() => {
                        return Err("unit type with predicates".into())
                    }
                    SimpleTy::Bool
                        if !(ps.len() == 1 && ps[0].alpha_eq(&Predicate::bool_identity())) =>
                    {
                        return Err("bool type must carry exactly λν.ν".into())
                    }
                    _ => {}
                }
                for p in ps {
                    for v in p.free_vars() {
                        if !scope.contains(&v) {
                            return Err(format!("predicate {p} mentions out-of-scope {v}"));
                        }
                    }
                }
                Ok(())
            }
            AbsTy::Fun(x, a, b) => {
                a.well_formed(scope)?;
                // Only integer-typed dependencies may be referenced.
                let visible = a.simple() == SimpleTy::Int;
                if visible {
                    scope.push(x.clone());
                }
                let r = b.well_formed(scope);
                if visible {
                    scope.pop();
                }
                r
            }
        }
    }

    /// Uncurries into (dependency-named parameters, result).
    pub fn uncurry(&self) -> (Vec<(&Var, &AbsTy)>, &AbsTy) {
        let mut ps = Vec::new();
        let mut t = self;
        while let AbsTy::Fun(x, a, b) = t {
            ps.push((x, a.as_ref()));
            t = b;
        }
        (ps, t)
    }

    /// Pointwise merge `σ ⊔ σ'` (§5.2.3): unions the predicate lists at each
    /// base position (module α-equivalence of individual predicates).
    pub fn merge(&self, other: &AbsTy) -> AbsTy {
        match (self, other) {
            (AbsTy::Base(t, p1), AbsTy::Base(_, p2)) => {
                let mut ps = p1.clone();
                for q in p2 {
                    if !ps.iter().any(|p| p.alpha_eq(q)) {
                        ps.push(q.clone());
                    }
                }
                AbsTy::Base(t.clone(), ps)
            }
            (AbsTy::Fun(x, a1, b1), AbsTy::Fun(y, a2, b2)) => {
                // Rename other's dependency to ours before merging.
                let b2 = if x == y {
                    b2.as_ref().clone()
                } else {
                    b2.subst(y, &LinExpr::var(x.clone()))
                };
                AbsTy::Fun(x.clone(), Box::new(a1.merge(a2)), Box::new(b1.merge(&b2)))
            }
            _ => panic!("merging abstraction types of different shapes"),
        }
    }
}

impl fmt::Display for AbsTy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbsTy::Base(t, ps) => {
                write!(f, "{t}[")?;
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, "]")
            }
            AbsTy::Fun(x, a, b) => write!(f, "({x}:{a} -> {b})"),
        }
    }
}

/// The abstraction-type environment: one dependent scheme per function (its
/// parameters, named by the definition's own parameter variables), plus a
/// predicate list per `rand_int` site (keyed by the bound variable).
#[derive(Clone, Debug, Default)]
pub struct AbsEnv {
    /// Per-function parameter abstraction types.
    pub schemes: BTreeMap<homc_lang::kernel::FunName, Vec<(Var, AbsTy)>>,
    /// Per-`rand_int`-site predicate lists.
    pub rand_sites: BTreeMap<Var, Vec<Predicate>>,
}

impl AbsEnv {
    /// The trivial environment for a program: empty predicates everywhere.
    pub fn initial(program: &homc_lang::kernel::Program) -> AbsEnv {
        let mut counter = 0;
        let mut env = AbsEnv::default();
        for d in &program.defs {
            let scheme = d
                .params
                .iter()
                .map(|(x, t)| (x.clone(), AbsTy::default_for(t, &mut counter)))
                .collect();
            env.schemes.insert(d.name.clone(), scheme);
        }
        env
    }

    /// Merges predicate refinements into the environment (§5.2.3's
    /// `Refine`). Returns `true` when anything new was added.
    pub fn refine(
        &mut self,
        fun_updates: &BTreeMap<homc_lang::kernel::FunName, Vec<(Var, AbsTy)>>,
        rand_updates: &BTreeMap<Var, Vec<Predicate>>,
    ) -> bool {
        let before = self.fingerprint();
        for (f, scheme) in fun_updates {
            if let Some(old) = self.schemes.get_mut(f) {
                for ((_, t_old), (_, t_new)) in old.iter_mut().zip(scheme) {
                    *t_old = t_old.merge(t_new);
                }
            }
        }
        for (x, preds) in rand_updates {
            let entry = self.rand_sites.entry(x.clone()).or_default();
            for p in preds {
                if !entry.iter().any(|q| q.alpha_eq(p)) {
                    entry.push(p.clone());
                }
            }
        }
        self.fingerprint() != before
    }

    /// Merges a predicate into an argument position *inside* a function-
    /// typed parameter's abstraction type: `def`'s parameter `param` has an
    /// arrow chain; position `chain_pos`'s domain (which must be an integer
    /// base type) gains `pred`, with dependency placeholders `@chain{q}`
    /// resolved to the chain's actual binder names.
    ///
    /// Returns `true` when the predicate was new. Silently returns `false`
    /// when the shape does not match or a placeholder would resolve to a
    /// non-integer binder (Figure 3 scoping would be violated).
    pub fn apply_ho_update(
        &mut self,
        def: &homc_lang::kernel::FunName,
        param: &Var,
        chain_pos: usize,
        pred: &Predicate,
    ) -> bool {
        let Some(scheme) = self.schemes.get_mut(def) else {
            return false;
        };
        let Some((_, ty)) = scheme.iter_mut().find(|(x, _)| x == param) else {
            return false;
        };
        // Collect the chain binders up to the target position.
        let mut binders: Vec<(Var, bool)> = Vec::new(); // (name, is_int)
        let mut cur: &mut AbsTy = ty;
        for _ in 0..chain_pos {
            match cur {
                AbsTy::Fun(b, dom, rest) => {
                    binders.push((b.clone(), dom.simple() == SimpleTy::Int));
                    cur = rest;
                }
                _ => return false,
            }
        }
        let AbsTy::Fun(_, dom, _) = cur else {
            return false;
        };
        let AbsTy::Base(SimpleTy::Int, preds) = dom.as_mut() else {
            return false;
        };
        // Resolve placeholders.
        let mut ok = true;
        let body = pred.body().rename(&mut |v| {
            let name = v.name();
            if let Some(q) = name.strip_prefix("@chain") {
                if let Ok(q) = q.parse::<usize>() {
                    match binders.get(q) {
                        Some((b, true)) => return b.clone(),
                        _ => {
                            ok = false;
                            return v.clone();
                        }
                    }
                }
            }
            v.clone()
        });
        if !ok {
            return false;
        }
        let new_pred = Predicate::new(pred.nu().clone(), body);
        if preds.iter().any(|p| p.alpha_eq(&new_pred)) {
            return false;
        }
        preds.push(new_pred);
        true
    }

    /// Total number of predicates (a cheap change detector and statistic).
    pub fn fingerprint(&self) -> usize {
        fn count(t: &AbsTy) -> usize {
            match t {
                AbsTy::Base(_, ps) => ps.len(),
                AbsTy::Fun(_, a, b) => count(a) + count(b),
            }
        }
        self.schemes
            .values()
            .flat_map(|s| s.iter().map(|(_, t)| count(t)))
            .sum::<usize>()
            + self.rand_sites.values().map(Vec::len).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use homc_smt::Atom;

    fn nu() -> Var {
        Var::new("nu")
    }

    fn gt0() -> Predicate {
        Predicate::new(
            nu(),
            Formula::atom(Atom::gt(LinExpr::var(nu()), LinExpr::constant(0))),
        )
    }

    #[test]
    fn predicate_application() {
        // (λν.ν > 0)(x + 1) = x + 1 > 0
        let p = gt0();
        let f = p.apply(&(LinExpr::var("x") + LinExpr::constant(1)));
        assert_eq!(
            f,
            Formula::atom(Atom::gt(
                LinExpr::var("x") + LinExpr::constant(1),
                LinExpr::constant(0)
            ))
        );
    }

    #[test]
    fn alpha_equivalence() {
        let p = gt0();
        let q = Predicate::new(
            Var::new("m"),
            Formula::atom(Atom::gt(LinExpr::var("m"), LinExpr::constant(0))),
        );
        assert!(p.alpha_eq(&q));
        let r = Predicate::new(
            nu(),
            Formula::atom(Atom::ge(LinExpr::var(nu()), LinExpr::constant(0))),
        );
        assert!(!p.alpha_eq(&r));
    }

    #[test]
    fn dependent_substitution() {
        // (w:int[] → int[λν.ν > w])[w := 5] keeps the binder intact but a
        // *free* w is replaced.
        let w = Var::new("w");
        let dep = Predicate::new(
            nu(),
            Formula::atom(Atom::gt(LinExpr::var(nu()), LinExpr::var(w.clone()))),
        );
        let t = AbsTy::int(vec![dep]);
        let t5 = t.subst(&w, &LinExpr::constant(5));
        match &t5 {
            AbsTy::Base(_, ps) => {
                assert_eq!(
                    ps[0].apply(&LinExpr::constant(7)),
                    Formula::atom(Atom::gt(LinExpr::constant(7), LinExpr::constant(5)))
                );
            }
            other => panic!("expected base, got {other:?}"),
        }
    }

    #[test]
    fn paper_m3_type_well_formed() {
        // f : (x:int[] → (w:int[λν.ν > x] → unit[]) → unit[])
        let x = Var::new("x");
        let w = Var::new("w");
        let inner = AbsTy::fun(
            w,
            AbsTy::int(vec![Predicate::new(
                nu(),
                Formula::atom(Atom::gt(LinExpr::var(nu()), LinExpr::var(x.clone()))),
            )]),
            AbsTy::unit(),
        );
        let f = AbsTy::fun(x, AbsTy::int(vec![]), AbsTy::fun("g", inner, AbsTy::unit()));
        f.well_formed(&mut Vec::new()).expect("well-formed");
    }

    #[test]
    fn scope_violation_rejected() {
        // x:int[λν.ν > y] → … with y unbound (the paper's ill-formed
        // example).
        let t = AbsTy::fun(
            "x",
            AbsTy::int(vec![Predicate::new(
                nu(),
                Formula::atom(Atom::gt(LinExpr::var(nu()), LinExpr::var("y"))),
            )]),
            AbsTy::unit(),
        );
        assert!(t.well_formed(&mut Vec::new()).is_err());
    }

    #[test]
    fn merge_unions_predicates() {
        // §5.2.3 example: int[λν.ν=0] ⊔ int[λν.ν>0] has both predicates.
        let eq0 = Predicate::new(
            nu(),
            Formula::atom(Atom::eq(LinExpr::var(nu()), LinExpr::constant(0))),
        );
        let a = AbsTy::int(vec![eq0.clone()]);
        let b = AbsTy::int(vec![gt0()]);
        match a.merge(&b) {
            AbsTy::Base(_, ps) => assert_eq!(ps.len(), 2),
            other => panic!("expected base, got {other:?}"),
        }
        // Merging with an α-variant adds nothing.
        let dup = AbsTy::int(vec![Predicate::new(
            Var::new("k"),
            Formula::atom(Atom::eq(LinExpr::var("k"), LinExpr::constant(0))),
        )]);
        match AbsTy::int(vec![eq0]).merge(&dup) {
            AbsTy::Base(_, ps) => assert_eq!(ps.len(), 1),
            other => panic!("expected base, got {other:?}"),
        }
    }

    #[test]
    fn translate_to_tuple_widths() {
        let t = AbsTy::fun(
            "x",
            AbsTy::int(vec![gt0(), gt0()]),
            AbsTy::fun("b", AbsTy::boolean(), AbsTy::unit()),
        );
        assert_eq!(
            t.translate(),
            BTy::fun(BTy::Tuple(2), BTy::fun(BTy::Tuple(1), BTy::Tuple(0)))
        );
    }
}
