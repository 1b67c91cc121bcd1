//! Self-contained UNSAT proofs for quantifier-free formulas.
//!
//! The evidence layer (see `homc-serve`/`homc-core`) needs the verifier's
//! abstraction queries to be *checkable after the fact*, by a validator that
//! shares no search code with the solver. A proof is the refutation tree of
//! the solver's own implicant search ([`SmtSolver`]'s walk over the
//! negation normal form), stored flat in the order the walk reaches its
//! nodes:
//!
//! * one node per `Or` the walk reaches: [`ProofNode::Closed`] by the
//!   rational prune's Farkas certificate over the path's atoms, or
//!   [`ProofNode::Branch`], whose disjuncts' subproofs follow in order;
//! * one [`ProofNode::Closed`] node per completed implicant, carrying its
//!   integer refutation ([`ArithRefutation`]: Farkas, gcd or split);
//! * no node for a `False` goal or a boolean conflict, which the walk
//!   closes by itself.
//!
//! [`prove_unsat`] records the tree while the search refutes the formula;
//! [`verify_unsat`] walks the formula again in the same order, collects each
//! path's atoms and booleans itself, and checks every node against them
//! with exact arithmetic. It runs no search, so a proof stays one-sided: a
//! corrupted proof can only be rejected, never talked into accepting a
//! satisfiable formula.

use crate::fm::{check_certificate, gcd_refutes, ArithRefutation};
use crate::formula::Formula;
use crate::linexpr::{Atom, LinExpr, Var};
use crate::solver::SmtSolver;

/// Branch nodes [`verify_unsat`] follows on one path before it rejects a
/// proof, which bounds its recursion on hostile input. The search records
/// no proof deeper than this, so every emitted proof stays checkable.
pub(crate) const MAX_BRANCH_DEPTH: u32 = 1024;

/// Split nesting the verifier will follow before rejecting a refutation.
/// Emitted splits are bounded by the solver's branch & bound depth; the
/// extra headroom only guards the checker's stack against hand-corrupted
/// evidence.
const VERIFY_SPLIT_DEPTH: u32 = 64;

/// One node of a refutation tree, in the order the search reaches it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProofNode {
    /// The search branches at this `Or`: one subproof per disjunct
    /// follows, in disjunct order.
    Branch,
    /// The path's atoms have no integer solution: at an `Or`, the rational
    /// prune's Farkas certificate; at a completed implicant, its integer
    /// refutation.
    Closed(ArithRefutation),
}

/// A complete UNSAT proof: the search's refutation tree in preorder.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct UnsatProof {
    /// The tree's nodes, in the order the walk reaches them.
    pub nodes: Vec<ProofNode>,
}

impl UnsatProof {
    /// The number of closed nodes: the refutations the proof carries.
    pub fn closed(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, ProofNode::Closed(_)))
            .count()
    }
}

/// Builds a checkable UNSAT proof for `f` by running the solver's search,
/// uncached and unbudgeted, with proof recording on.
///
/// Returns `None` when `f` is satisfiable, when branch & bound ran out of
/// depth somewhere, or when the tree nests deeper than [`verify_unsat`]
/// follows (1,024 branch nodes on one path). Callers treat
/// an unproved formula as satisfiable — for the abstraction this only
/// coarsens the abstract program, which is sound. The proof depends on `f`
/// alone, never on a query cache.
pub fn prove_unsat(f: &Formula) -> Option<UnsatProof> {
    SmtSolver::new().refute(f).map(|nodes| UnsatProof { nodes })
}

/// Validates an UNSAT proof for `f`.
///
/// The checker walks `f`'s negation normal form in the search's order and
/// demands that the proof's nodes close every path, with no node left over.
/// `true` means `f` is genuinely unsatisfiable: every accepting path
/// re-derives its facts from `f`'s own atoms, so a forged or corrupted proof
/// cannot certify a satisfiable formula.
pub fn verify_unsat(f: &Formula, proof: &UnsatProof) -> bool {
    let nnf = f.nnf();
    let mut walk = Walk {
        nodes: proof.nodes.iter(),
        atoms: Vec::new(),
        bools: Vec::new(),
    };
    walk.closes(vec![&nnf], 0) && walk.nodes.next().is_none()
}

/// The checker's state on one path: the proof nodes not yet consumed, and
/// the atoms and boolean literals the path has collected.
struct Walk<'a> {
    nodes: std::slice::Iter<'a, ProofNode>,
    atoms: Vec<&'a Atom>,
    bools: Vec<(&'a Var, bool)>,
}

impl<'a> Walk<'a> {
    /// `true` when the proof closes every path that continues with `goals`
    /// (the top goal next), consuming the nodes those paths reach. Mirrors
    /// the solver's search goal by goal, but recurses only at branch nodes,
    /// at most [`MAX_BRANCH_DEPTH`] deep.
    fn closes(&mut self, mut goals: Vec<&'a Formula>, depth: u32) -> bool {
        let (atoms, bools) = (self.atoms.len(), self.bools.len());
        let closed = loop {
            let Some(goal) = goals.pop() else {
                // A completed implicant: its integer refutation.
                break matches!(self.nodes.next(),
                    Some(ProofNode::Closed(r)) if refutes(&self.atoms, r, VERIFY_SPLIT_DEPTH));
            };
            match goal {
                Formula::True => {}
                Formula::False => break true,
                Formula::Atom(a) => self.atoms.push(a),
                Formula::BVar(v) => {
                    if self.conflicts(v, true) {
                        break true;
                    }
                }
                Formula::Not(inner) => match inner.as_ref() {
                    Formula::BVar(v) => {
                        if self.conflicts(v, false) {
                            break true;
                        }
                    }
                    _ => break false,
                },
                Formula::And(fs) => goals.extend(fs.iter().rev()),
                Formula::Or(fs) => {
                    break match self.nodes.next() {
                        Some(ProofNode::Closed(r)) => refutes(&self.atoms, r, VERIFY_SPLIT_DEPTH),
                        Some(ProofNode::Branch) if depth < MAX_BRANCH_DEPTH => fs.iter().all(|f| {
                            let mut next = goals.clone();
                            next.push(f);
                            self.closes(next, depth + 1)
                        }),
                        _ => false,
                    }
                }
            }
        };
        self.atoms.truncate(atoms);
        self.bools.truncate(bools);
        closed
    }

    /// Assigns `v := val` on the path; `true` when the path already holds
    /// the opposite value (a boolean conflict, which closes the path).
    fn conflicts(&mut self, v: &'a Var, val: bool) -> bool {
        match self.bools.iter().find(|(w, _)| *w == v) {
            Some(&(_, prev)) => prev != val,
            None => {
                self.bools.push((v, val));
                false
            }
        }
    }
}

/// Checks one integer refutation against a conjunction of atoms using only
/// direct arithmetic — no elimination, no search. A `Split` borrows its
/// freshly built bound atom from the stack frame that recurses with it.
fn refutes(atoms: &[&Atom], r: &ArithRefutation, depth: u32) -> bool {
    match r {
        ArithRefutation::Farkas(cert) => check_certificate(atoms, cert),
        ArithRefutation::Gcd(i) => atoms.get(*i).is_some_and(|a| gcd_refutes(a)),
        ArithRefutation::Split {
            var,
            at,
            below,
            above,
        } => {
            if depth == 0 || *at == i128::MAX {
                return false;
            }
            let side = |bound: Atom, r: &ArithRefutation| {
                let mut next = atoms.to_vec();
                next.push(&bound);
                refutes(&next, r, depth - 1)
            };
            side(
                Atom::le(LinExpr::var(var.clone()), LinExpr::constant(*at)),
                below,
            ) && side(
                Atom::ge(LinExpr::var(var.clone()), LinExpr::constant(*at + 1)),
                above,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rat::Rat;

    fn x() -> LinExpr {
        LinExpr::var("x")
    }
    fn y() -> LinExpr {
        LinExpr::var("y")
    }
    fn atom(a: Atom) -> Formula {
        Formula::atom(a)
    }

    /// `x > 0 ∧ x + 1 <= 0` — rationally unsat.
    fn contradiction() -> Formula {
        Formula::and2(
            atom(Atom::gt(x(), LinExpr::constant(0))),
            atom(Atom::le(x() + LinExpr::constant(1), LinExpr::constant(0))),
        )
    }

    /// `(x > 0 ∨ y > 0) ∧ x <= 0 ∧ y <= 0`: the search branches at the
    /// `Or` (nothing to prune yet) and closes each disjunct at its leaf.
    fn branching() -> Formula {
        Formula::and(vec![
            Formula::or2(
                atom(Atom::gt(x(), LinExpr::constant(0))),
                atom(Atom::gt(y(), LinExpr::constant(0))),
            ),
            atom(Atom::le(x(), LinExpr::constant(0))),
            atom(Atom::le(y(), LinExpr::constant(0))),
        ])
    }

    /// `2x >= 1 ∧ 2x <= 1`: the only rational solution is x = 1/2.
    fn half() -> Formula {
        Formula::and2(
            atom(Atom::ge(x() * 2, LinExpr::constant(1))),
            atom(Atom::le(x() * 2, LinExpr::constant(1))),
        )
    }

    #[test]
    fn farkas_proof_roundtrips() {
        let f = contradiction();
        let p = prove_unsat(&f).expect("provable");
        assert!(matches!(
            p.nodes.as_slice(),
            [ProofNode::Closed(ArithRefutation::Farkas(_))]
        ));
        assert!(verify_unsat(&f, &p));
    }

    #[test]
    fn gcd_proof_roundtrips() {
        // 2x = 2y + 1: rationally sat, integer-unsat by parity.
        let f = atom(Atom::eq(x() * 2, y() * 2 + LinExpr::constant(1)));
        let p = prove_unsat(&f).expect("provable");
        assert_eq!(p.nodes, [ProofNode::Closed(ArithRefutation::Gcd(0))]);
        assert!(verify_unsat(&f, &p));
    }

    #[test]
    fn split_proof_roundtrips() {
        let f = half();
        let p = prove_unsat(&f).expect("provable");
        assert!(matches!(
            p.nodes.as_slice(),
            [ProofNode::Closed(ArithRefutation::Split { .. })]
        ));
        assert!(verify_unsat(&f, &p));
    }

    #[test]
    fn branch_proof_roundtrips() {
        let f = branching();
        let p = prove_unsat(&f).expect("provable");
        assert!(matches!(
            p.nodes.as_slice(),
            [
                ProofNode::Branch,
                ProofNode::Closed(_),
                ProofNode::Closed(_)
            ]
        ));
        assert_eq!(p.closed(), 2);
        assert!(verify_unsat(&f, &p));
    }

    #[test]
    fn rational_prune_closes_an_or() {
        // The atoms before the `Or` already contradict each other, so the
        // search prunes it with one Farkas certificate instead of branching.
        let f = Formula::and(vec![
            atom(Atom::gt(x(), LinExpr::constant(0))),
            atom(Atom::lt(x(), LinExpr::constant(0))),
            Formula::or2(
                atom(Atom::gt(y(), LinExpr::constant(0))),
                atom(Atom::lt(y(), LinExpr::constant(0))),
            ),
        ]);
        let p = prove_unsat(&f).expect("provable");
        assert!(matches!(
            p.nodes.as_slice(),
            [ProofNode::Closed(ArithRefutation::Farkas(_))]
        ));
        assert!(verify_unsat(&f, &p));
    }

    #[test]
    fn bool_conflict_and_disjunction() {
        // (b ∧ ¬b) ∨ (x > 0 ∧ x < 0): the first disjunct closes by itself,
        // the second at its leaf.
        let b = Formula::BVar(Var::new("b"));
        let f = Formula::or2(
            Formula::and2(b.clone(), Formula::not(b)),
            Formula::and2(
                atom(Atom::gt(x(), LinExpr::constant(0))),
                atom(Atom::lt(x(), LinExpr::constant(0))),
            ),
        );
        let p = prove_unsat(&f).expect("provable");
        assert!(matches!(
            p.nodes.as_slice(),
            [ProofNode::Branch, ProofNode::Closed(_)]
        ));
        assert!(verify_unsat(&f, &p));
    }

    #[test]
    fn satisfiable_formula_has_no_proof() {
        let f = atom(Atom::gt(x(), LinExpr::constant(0)));
        assert!(prove_unsat(&f).is_none());
        // And a fabricated proof for it must not verify.
        let fake = UnsatProof {
            nodes: vec![ProofNode::Closed(ArithRefutation::Farkas(vec![(
                0,
                Rat::ONE,
            )]))],
        };
        assert!(!verify_unsat(&f, &fake));
    }

    #[test]
    fn tampered_certificate_is_rejected() {
        let f = contradiction();
        let p = prove_unsat(&f).expect("provable");
        let [ProofNode::Closed(ArithRefutation::Farkas(cert))] = p.nodes.as_slice() else {
            panic!("expected one Farkas node");
        };
        // Flip a coefficient.
        let mut bad = cert.clone();
        bad[0].1 = bad[0].1 + Rat::ONE;
        let bad = UnsatProof {
            nodes: vec![ProofNode::Closed(ArithRefutation::Farkas(bad))],
        };
        assert!(!verify_unsat(&f, &bad));
        // Drop the node, or add one the walk never reaches.
        assert!(!verify_unsat(&f, &UnsatProof::default()));
        let mut extra = p.clone();
        extra.nodes.push(ProofNode::Branch);
        assert!(!verify_unsat(&f, &extra));
    }

    #[test]
    fn false_formula_has_empty_proof() {
        let p = prove_unsat(&Formula::False).expect("trivially unsat");
        assert!(p.nodes.is_empty());
        assert!(verify_unsat(&Formula::False, &p));
        assert!(prove_unsat(&Formula::True).is_none());
        assert!(!verify_unsat(&Formula::True, &p));
    }

    #[test]
    fn branch_with_a_child_dropped_is_rejected() {
        let f = branching();
        let mut p = prove_unsat(&f).expect("provable");
        p.nodes.pop();
        assert!(!verify_unsat(&f, &p));
    }

    #[test]
    fn closed_node_where_the_walk_branches_is_rejected() {
        // The search branched because the atoms before the `Or` are
        // rationally satisfiable, so no certificate can close it there.
        let f = branching();
        let p = prove_unsat(&f).expect("provable");
        for node in &p.nodes[1..] {
            let forged = UnsatProof {
                nodes: vec![node.clone()],
            };
            assert!(!verify_unsat(&f, &forged));
        }
        // A branch node where the walk closes a leaf is no proof either.
        let g = contradiction();
        let forged = UnsatProof {
            nodes: vec![ProofNode::Branch],
        };
        assert!(!verify_unsat(&g, &forged));
    }

    #[test]
    fn moved_split_point_is_rejected() {
        let f = half();
        let p = prove_unsat(&f).expect("provable");
        for delta in [-1, 1] {
            let mut moved = p.clone();
            let [ProofNode::Closed(ArithRefutation::Split { at, .. })] = moved.nodes.as_mut_slice()
            else {
                panic!("expected one split node");
            };
            *at += delta;
            assert!(!verify_unsat(&f, &moved), "split moved by {delta}");
        }
    }

    #[test]
    fn proof_of_another_formula_is_rejected() {
        // Both formulas are unsat, but each proof indexes its own atoms.
        let (f, g) = (contradiction(), branching());
        let (pf, pg) = (prove_unsat(&f).unwrap(), prove_unsat(&g).unwrap());
        assert!(!verify_unsat(&f, &pg));
        assert!(!verify_unsat(&g, &pf));
    }

    #[test]
    fn mismatched_refutation_kind_is_rejected() {
        // A gcd claim on an inequality must fail.
        let f = contradiction();
        let bad = UnsatProof {
            nodes: vec![ProofNode::Closed(ArithRefutation::Gcd(0))],
        };
        assert!(!verify_unsat(&f, &bad));
    }
}
