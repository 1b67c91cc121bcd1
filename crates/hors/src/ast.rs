//! Higher-order recursion schemes (HORS) and trivial tree automata.
//!
//! A recursion scheme is a simply-kinded grammar generating one (possibly
//! infinite) tree; the model checking of such trees against automata is the
//! decidable core the paper builds on (§1, §3, Ong 2006). This module gives
//! the grammar representation, kind checking, and deterministic trivial
//! automata.

use std::collections::BTreeMap;
use std::fmt;

/// A simple kind: the tree kind `o` or an arrow.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Kind {
    /// The kind of trees.
    O,
    /// `k1 → k2`.
    Arrow(Box<Kind>, Box<Kind>),
}

impl Kind {
    /// `k1 → k2`.
    pub fn arrow(k1: Kind, k2: Kind) -> Kind {
        Kind::Arrow(Box::new(k1), Box::new(k2))
    }

    /// The kind `o → … → o → o` with `n` arguments.
    pub fn order1(n: usize) -> Kind {
        (0..n).fold(Kind::O, |acc, _| Kind::arrow(Kind::O, acc))
    }

    /// The order of the kind.
    pub fn order(&self) -> usize {
        match self {
            Kind::O => 0,
            Kind::Arrow(a, b) => (a.order() + 1).max(b.order()),
        }
    }

    /// Splits into parameter kinds and the final result (always `o`).
    pub fn uncurry(&self) -> Vec<&Kind> {
        let mut ps = Vec::new();
        let mut k = self;
        while let Kind::Arrow(a, b) = k {
            ps.push(a.as_ref());
            k = b;
        }
        ps
    }
}

impl fmt::Display for Kind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Kind::O => write!(f, "o"),
            Kind::Arrow(a, b) => {
                if matches!(a.as_ref(), Kind::O) {
                    write!(f, "o -> {b}")
                } else {
                    write!(f, "({a}) -> {b}")
                }
            }
        }
    }
}

/// An applicative term of a recursion scheme.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Term {
    /// A nonterminal.
    NT(String),
    /// A bound variable.
    Var(String),
    /// A terminal (tree constructor).
    Terminal(String),
    /// Application.
    App(Box<Term>, Box<Term>),
}

impl Term {
    /// Applies arguments.
    pub fn app(self, args: impl IntoIterator<Item = Term>) -> Term {
        args.into_iter()
            .fold(self, |acc, a| Term::App(Box::new(acc), Box::new(a)))
    }

    /// Splits into head and argument list.
    pub fn uncurry(&self) -> (&Term, Vec<&Term>) {
        match self {
            Term::App(h, a) => {
                let (head, mut args) = h.uncurry();
                args.push(a);
                (head, args)
            }
            t => (t, Vec::new()),
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::NT(n) => write!(f, "{n}"),
            Term::Var(v) => write!(f, "{v}"),
            Term::Terminal(t) => write!(f, "{t}"),
            Term::App(h, a) => {
                write!(f, "{h} ")?;
                if matches!(a.as_ref(), Term::App(_, _)) {
                    write!(f, "({a})")
                } else {
                    write!(f, "{a}")
                }
            }
        }
    }
}

/// A rewrite rule `F x₁ … xₙ = t`.
#[derive(Clone, Debug)]
pub struct Rule {
    /// Nonterminal name.
    pub name: String,
    /// Parameters with kinds.
    pub params: Vec<(String, Kind)>,
    /// Body (kind `o`).
    pub body: Term,
}

impl Rule {
    /// The nonterminal's kind.
    pub fn kind(&self) -> Kind {
        self.params
            .iter()
            .rev()
            .fold(Kind::O, |acc, (_, k)| Kind::arrow(k.clone(), acc))
    }
}

/// A higher-order recursion scheme.
#[derive(Clone, Debug)]
pub struct Hors {
    /// Terminals with arities.
    pub terminals: Vec<(String, usize)>,
    /// Rules.
    pub rules: Vec<Rule>,
    /// Start nonterminal (kind `o`).
    pub start: String,
}

impl Hors {
    /// Looks up a rule.
    pub fn rule(&self, name: &str) -> Option<&Rule> {
        self.rules.iter().find(|r| r.name == name)
    }

    /// The arity of a terminal.
    pub fn terminal_arity(&self, name: &str) -> Option<usize> {
        self.terminals
            .iter()
            .find(|(t, _)| t == name)
            .map(|(_, a)| *a)
    }

    /// The order of the scheme (max order of nonterminal kinds).
    pub fn order(&self) -> usize {
        self.rules
            .iter()
            .map(|r| r.kind().order())
            .max()
            .unwrap_or(0)
    }

    /// Kind-checks the scheme: every body has kind `o`, every application
    /// is well-kinded, the start symbol exists with kind `o`.
    pub fn check(&self) -> Result<(), String> {
        let nts: BTreeMap<&str, Kind> = self
            .rules
            .iter()
            .map(|r| (r.name.as_str(), r.kind()))
            .collect();
        match self.rule(&self.start) {
            None => return Err(format!("missing start symbol {}", self.start)),
            Some(r) if !r.params.is_empty() => return Err("start symbol must have kind o".into()),
            Some(_) => {}
        }
        for r in &self.rules {
            let mut env: BTreeMap<&str, Kind> = r
                .params
                .iter()
                .map(|(x, k)| (x.as_str(), k.clone()))
                .collect();
            let k = self.kind_of(&r.body, &mut env, &nts)?;
            if k != Kind::O {
                return Err(format!("body of {} has kind {k}, expected o", r.name));
            }
        }
        Ok(())
    }

    fn kind_of(
        &self,
        t: &Term,
        env: &mut BTreeMap<&str, Kind>,
        nts: &BTreeMap<&str, Kind>,
    ) -> Result<Kind, String> {
        match t {
            Term::NT(n) => nts
                .get(n.as_str())
                .cloned()
                .ok_or_else(|| format!("unknown nonterminal {n}")),
            Term::Var(v) => env
                .get(v.as_str())
                .cloned()
                .ok_or_else(|| format!("unbound variable {v}")),
            Term::Terminal(a) => {
                let ar = self
                    .terminal_arity(a)
                    .ok_or_else(|| format!("unknown terminal {a}"))?;
                Ok(Kind::order1(ar))
            }
            Term::App(h, a) => {
                let kh = self.kind_of(h, env, nts)?;
                let ka = self.kind_of(a, env, nts)?;
                match kh {
                    Kind::Arrow(p, r) if *p == ka => Ok(*r),
                    Kind::Arrow(p, _) => Err(format!("kind mismatch: expected {p}, got {ka}")),
                    Kind::O => Err("application of a tree-kinded term".into()),
                }
            }
        }
    }
}

impl fmt::Display for Hors {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.rules {
            write!(f, "{}", r.name)?;
            for (x, _) in &r.params {
                write!(f, " {x}")?;
            }
            writeln!(f, " = {}", r.body)?;
        }
        Ok(())
    }
}

/// A deterministic trivial tree automaton: all states accepting, transitions
/// give the state of each child; a missing transition rejects.
#[derive(Clone, Debug)]
pub struct TrivialAutomaton {
    /// States (index 0 is initial).
    pub states: Vec<String>,
    /// `(state, terminal) → child states`; absent = reject.
    pub delta: BTreeMap<(usize, String), Vec<usize>>,
}

impl TrivialAutomaton {
    /// The automaton accepting exactly the trees with no node labelled by
    /// one of `bad` — the reachability property of the paper.
    pub fn fail_free(hors: &Hors, bad: &[&str]) -> TrivialAutomaton {
        let mut delta = BTreeMap::new();
        for (t, ar) in &hors.terminals {
            if !bad.iter().any(|b| b == t) {
                delta.insert((0, t.clone()), vec![0; *ar]);
            }
        }
        TrivialAutomaton {
            states: vec!["q0".to_string()],
            delta,
        }
    }

    /// The terminals a given state has no transition for (the "bad" set of
    /// that state).
    pub fn rejected(&self, state: usize, hors: &Hors) -> Vec<String> {
        hors.terminals
            .iter()
            .filter(|(t, _)| !self.delta.contains_key(&(state, t.clone())))
            .map(|(t, _)| t.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic order-1 scheme S = F c, F x = br x (F (s x)) generating
    /// br c (br (s c) (br (s (s c)) …)).
    pub(crate) fn counter_scheme() -> Hors {
        Hors {
            terminals: vec![
                ("br".into(), 2),
                ("s".into(), 1),
                ("c".into(), 0),
                ("fail".into(), 0),
            ],
            rules: vec![
                Rule {
                    name: "S".into(),
                    params: vec![],
                    body: Term::NT("F".into()).app([Term::Terminal("c".into())]),
                },
                Rule {
                    name: "F".into(),
                    params: vec![("x".into(), Kind::O)],
                    body: Term::Terminal("br".into()).app([
                        Term::Var("x".into()),
                        Term::NT("F".into())
                            .app([Term::Terminal("s".into()).app([Term::Var("x".into())])]),
                    ]),
                },
            ],
            start: "S".into(),
        }
    }

    #[test]
    fn kinds_check() {
        let h = counter_scheme();
        h.check().expect("kinds");
        assert_eq!(h.order(), 1);
    }

    #[test]
    fn kind_errors_detected() {
        let mut h = counter_scheme();
        // Break the rule: apply a tree-kinded variable.
        h.rules[1].body = Term::Var("x".into()).app([Term::Terminal("c".into())]);
        assert!(h.check().is_err());
    }

    #[test]
    fn automaton_construction() {
        let h = counter_scheme();
        let a = TrivialAutomaton::fail_free(&h, &["fail"]);
        assert_eq!(a.rejected(0, &h), vec!["fail".to_string()]);
    }
}
