//! Simple types and type inference for the surface language.
//!
//! The paper's source language is simply typed (§2); we infer those simple
//! types with plain monomorphic unification. Free variables of the program
//! are resolved to `int` and reported as the program's *unknowns* — the
//! paper's "free variables (representing unknown integers)" (§6).

use std::collections::BTreeMap;
use std::fmt;

use crate::ast::{BinOp, SurfaceExpr};

/// A simple type of the paper's §2 kernel.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SimpleTy {
    /// The unit type `⋆`.
    Unit,
    /// Booleans.
    Bool,
    /// Integers.
    Int,
    /// Functions (curried).
    Fun(Box<SimpleTy>, Box<SimpleTy>),
}

impl SimpleTy {
    /// Builds `t1 → t2`.
    pub fn fun(t1: SimpleTy, t2: SimpleTy) -> SimpleTy {
        SimpleTy::Fun(Box::new(t1), Box::new(t2))
    }

    /// `true` for `unit`, `bool`, `int`.
    pub fn is_base(&self) -> bool {
        !matches!(self, SimpleTy::Fun(_, _))
    }

    /// The *order* of the type: 0 for base types,
    /// `max(order(t1) + 1, order(t2))` for `t1 → t2` — the paper's metric O.
    pub fn order(&self) -> usize {
        match self {
            SimpleTy::Fun(a, b) => (a.order() + 1).max(b.order()),
            _ => 0,
        }
    }

    /// Splits a curried type into parameters and final result.
    pub fn uncurry(&self) -> (Vec<&SimpleTy>, &SimpleTy) {
        let mut params = Vec::new();
        let mut t = self;
        while let SimpleTy::Fun(a, b) = t {
            params.push(a.as_ref());
            t = b;
        }
        (params, t)
    }
}

impl fmt::Display for SimpleTy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimpleTy::Unit => write!(f, "unit"),
            SimpleTy::Bool => write!(f, "bool"),
            SimpleTy::Int => write!(f, "int"),
            SimpleTy::Fun(a, b) => {
                if a.is_base() {
                    write!(f, "{a} -> {b}")
                } else {
                    write!(f, "({a}) -> {b}")
                }
            }
        }
    }
}

/// A type error.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TypeError(pub String);

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "type error: {}", self.0)
    }
}

impl std::error::Error for TypeError {}

/// A surface expression annotated with inferred simple types.
#[derive(Clone, Debug)]
pub struct Typed {
    /// The node.
    pub expr: TExpr,
    /// Its inferred type.
    pub ty: SimpleTy,
}

/// Typed expression nodes (mirrors [`SurfaceExpr`] with resolved types).
#[derive(Clone, Debug)]
pub enum TExpr {
    /// `()`.
    Unit,
    /// Boolean literal.
    Bool(bool),
    /// Integer literal.
    Int(i64),
    /// Variable (bound or unknown-integer).
    Var(String),
    /// Binary operation; `Eq`/`Ne` are resolved to int or bool by the operand
    /// type stored on the children.
    BinOp(BinOp, Box<Typed>, Box<Typed>),
    /// Unary minus.
    Neg(Box<Typed>),
    /// Boolean not.
    Not(Box<Typed>),
    /// Application.
    App(Box<Typed>, Box<Typed>),
    /// Conditional.
    If(Box<Typed>, Box<Typed>, Box<Typed>),
    /// Let binding; `params` carry their resolved types.
    Let {
        /// Recursive?
        recursive: bool,
        /// Bound name.
        name: String,
        /// Parameters with inferred types.
        params: Vec<(String, SimpleTy)>,
        /// The type of the whole bound entity (function type when params
        /// are present).
        name_ty: SimpleTy,
        /// Right-hand side (the function body when params are present).
        rhs: Box<Typed>,
        /// Continuation.
        body: Box<Typed>,
    },
    /// Lambda with resolved parameter type.
    Fun(String, SimpleTy, Box<Typed>),
    /// Assertion.
    Assert(Box<Typed>),
    /// Assumption.
    Assume(Box<Typed>, Box<Typed>),
    /// Failure.
    Fail,
    /// Unknown integer.
    RandInt,
    /// Unknown boolean.
    RandBool,
    /// Sequencing.
    Seq(Box<Typed>, Box<Typed>),
}

/// The result of type inference.
#[derive(Clone, Debug)]
pub struct TypedProgram {
    /// The typed expression tree.
    pub root: Typed,
    /// Free variables resolved as unknown integers, in first-use order.
    pub unknowns: Vec<String>,
}

/// Infers simple types for a surface program.
pub fn infer(e: &SurfaceExpr) -> Result<TypedProgram, TypeError> {
    let mut inf = Infer::default();
    let mut env = BTreeMap::new();
    let root = inf.check(e, &mut env)?;
    inf.default_fails(&root);
    let root = inf.resolve_typed(root)?;
    Ok(TypedProgram {
        root,
        unknowns: inf.unknowns,
    })
}

/// Inference-time types: union-find indices into `Infer::nodes`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct TyVar(usize);

#[derive(Clone, Debug)]
enum Node {
    Unbound,
    Link(TyVar),
    Unit,
    Bool,
    Int,
    Fun(TyVar, TyVar),
}

#[derive(Default)]
struct Infer {
    nodes: Vec<Node>,
    unknowns: Vec<String>,
}

/// Intermediate typed tree holding unresolved `TyVar`s.
struct RawTyped {
    expr: RawExpr,
    ty: TyVar,
}

enum RawExpr {
    Unit,
    Bool(bool),
    Int(i64),
    Var(String),
    BinOp(BinOp, Box<RawTyped>, Box<RawTyped>),
    Neg(Box<RawTyped>),
    Not(Box<RawTyped>),
    App(Box<RawTyped>, Box<RawTyped>),
    If(Box<RawTyped>, Box<RawTyped>, Box<RawTyped>),
    Let {
        recursive: bool,
        name: String,
        params: Vec<(String, TyVar)>,
        name_ty: TyVar,
        rhs: Box<RawTyped>,
        body: Box<RawTyped>,
    },
    Fun(String, TyVar, Box<RawTyped>),
    Assert(Box<RawTyped>),
    Assume(Box<RawTyped>, Box<RawTyped>),
    Fail,
    RandInt,
    RandBool,
    Seq(Box<RawTyped>, Box<RawTyped>),
}

impl Infer {
    fn fresh(&mut self) -> TyVar {
        self.nodes.push(Node::Unbound);
        TyVar(self.nodes.len() - 1)
    }

    fn known(&mut self, n: Node) -> TyVar {
        self.nodes.push(n);
        TyVar(self.nodes.len() - 1)
    }

    fn find(&self, mut v: TyVar) -> TyVar {
        while let Node::Link(n) = self.nodes[v.0] {
            v = n;
        }
        v
    }

    fn unify(&mut self, a: TyVar, b: TyVar) -> Result<(), TypeError> {
        let (a, b) = (self.find(a), self.find(b));
        if a == b {
            return Ok(());
        }
        let (na, nb) = (self.nodes[a.0].clone(), self.nodes[b.0].clone());
        match (na, nb) {
            (Node::Unbound, _) => {
                self.nodes[a.0] = Node::Link(b);
                Ok(())
            }
            (_, Node::Unbound) => {
                self.nodes[b.0] = Node::Link(a);
                Ok(())
            }
            (Node::Unit, Node::Unit) | (Node::Bool, Node::Bool) | (Node::Int, Node::Int) => Ok(()),
            (Node::Fun(a1, a2), Node::Fun(b1, b2)) => {
                self.unify(a1, b1)?;
                self.unify(a2, b2)
            }
            (na, nb) => Err(TypeError(format!(
                "cannot unify {} with {}",
                self.show(&na),
                self.show(&nb)
            ))),
        }
    }

    fn show(&self, n: &Node) -> String {
        match n {
            Node::Unbound | Node::Link(_) => "_".into(),
            Node::Unit => "unit".into(),
            Node::Bool => "bool".into(),
            Node::Int => "int".into(),
            Node::Fun(a, b) => {
                let a = self.find(*a);
                let b = self.find(*b);
                format!(
                    "({} -> {})",
                    self.show(&self.nodes[a.0].clone()),
                    self.show(&self.nodes[b.0].clone())
                )
            }
        }
    }

    fn check(
        &mut self,
        e: &SurfaceExpr,
        env: &mut BTreeMap<String, TyVar>,
    ) -> Result<RawTyped, TypeError> {
        match e {
            SurfaceExpr::Unit => {
                let ty = self.known(Node::Unit);
                Ok(RawTyped {
                    expr: RawExpr::Unit,
                    ty,
                })
            }
            SurfaceExpr::Bool(b) => {
                let ty = self.known(Node::Bool);
                Ok(RawTyped {
                    expr: RawExpr::Bool(*b),
                    ty,
                })
            }
            SurfaceExpr::Int(n) => {
                let ty = self.known(Node::Int);
                Ok(RawTyped {
                    expr: RawExpr::Int(*n),
                    ty,
                })
            }
            SurfaceExpr::Var(x) => {
                let ty = match env.get(x) {
                    Some(t) => *t,
                    None => {
                        // Free variable: an unknown integer (paper §6).
                        let t = self.known(Node::Int);
                        env.insert(x.clone(), t);
                        if !self.unknowns.contains(x) {
                            self.unknowns.push(x.clone());
                        }
                        t
                    }
                };
                Ok(RawTyped {
                    expr: RawExpr::Var(x.clone()),
                    ty,
                })
            }
            SurfaceExpr::BinOp(op, a, b) => {
                let ta = self.check(a, env)?;
                let tb = self.check(b, env)?;
                let (ty, arg): (Node, Option<Node>) = match op {
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
                        (Node::Int, Some(Node::Int))
                    }
                    BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => (Node::Bool, Some(Node::Int)),
                    BinOp::And | BinOp::Or => (Node::Bool, Some(Node::Bool)),
                    BinOp::Eq | BinOp::Ne => (Node::Bool, None),
                };
                if let Some(arg) = arg {
                    let want = self.known(arg);
                    self.unify(ta.ty, want)?;
                    self.unify(tb.ty, want)?;
                } else {
                    self.unify(ta.ty, tb.ty)?;
                }
                let ty = self.known(ty);
                Ok(RawTyped {
                    expr: RawExpr::BinOp(*op, Box::new(ta), Box::new(tb)),
                    ty,
                })
            }
            SurfaceExpr::Neg(a) => {
                let ta = self.check(a, env)?;
                let int = self.known(Node::Int);
                self.unify(ta.ty, int)?;
                Ok(RawTyped {
                    expr: RawExpr::Neg(Box::new(ta)),
                    ty: int,
                })
            }
            SurfaceExpr::Not(a) => {
                let ta = self.check(a, env)?;
                let b = self.known(Node::Bool);
                self.unify(ta.ty, b)?;
                Ok(RawTyped {
                    expr: RawExpr::Not(Box::new(ta)),
                    ty: b,
                })
            }
            SurfaceExpr::App(f, a) => {
                let tf = self.check(f, env)?;
                let ta = self.check(a, env)?;
                let res = self.fresh();
                let fun = self.known(Node::Fun(ta.ty, res));
                self.unify(tf.ty, fun)?;
                Ok(RawTyped {
                    expr: RawExpr::App(Box::new(tf), Box::new(ta)),
                    ty: res,
                })
            }
            SurfaceExpr::If(c, t, e) => {
                let tc = self.check(c, env)?;
                let b = self.known(Node::Bool);
                self.unify(tc.ty, b)?;
                let tt = self.check(t, env)?;
                let te = self.check(e, env)?;
                self.unify(tt.ty, te.ty)?;
                let ty = tt.ty;
                Ok(RawTyped {
                    expr: RawExpr::If(Box::new(tc), Box::new(tt), Box::new(te)),
                    ty,
                })
            }
            SurfaceExpr::Let {
                recursive,
                name,
                params,
                rhs,
                body,
            } => {
                let param_tys: Vec<TyVar> = params.iter().map(|_| self.fresh()).collect();
                let rhs_result = self.fresh();
                let mut name_ty = rhs_result;
                for p in param_tys.iter().rev() {
                    name_ty = self.known(Node::Fun(*p, name_ty));
                }
                let mut inner = env.clone();
                for (p, t) in params.iter().zip(&param_tys) {
                    inner.insert(p.clone(), *t);
                }
                if *recursive {
                    inner.insert(name.clone(), name_ty);
                }
                let trhs = self.check(rhs, &mut inner)?;
                self.unify(trhs.ty, rhs_result)?;
                // Propagate only the *unknowns* discovered inside back out
                // (they are program-global); let-bound names stay scoped.
                let mut outer = env.clone();
                outer.insert(name.clone(), name_ty);
                for (k, v) in inner {
                    if self.unknowns.contains(&k) {
                        outer.entry(k).or_insert(v);
                    }
                }
                *env = outer;
                let tbody = self.check(body, env)?;
                let ty = tbody.ty;
                Ok(RawTyped {
                    expr: RawExpr::Let {
                        recursive: *recursive,
                        name: name.clone(),
                        params: params.iter().cloned().zip(param_tys).collect(),
                        name_ty,
                        rhs: Box::new(trhs),
                        body: Box::new(tbody),
                    },
                    ty,
                })
            }
            SurfaceExpr::Fun(x, body) => {
                let tx = self.fresh();
                let mut inner = env.clone();
                inner.insert(x.clone(), tx);
                let tb = self.check(body, &mut inner)?;
                let ty = self.known(Node::Fun(tx, tb.ty));
                Ok(RawTyped {
                    expr: RawExpr::Fun(x.clone(), tx, Box::new(tb)),
                    ty,
                })
            }
            SurfaceExpr::Assert(a) => {
                let ta = self.check(a, env)?;
                let b = self.known(Node::Bool);
                self.unify(ta.ty, b)?;
                let ty = self.known(Node::Unit);
                Ok(RawTyped {
                    expr: RawExpr::Assert(Box::new(ta)),
                    ty,
                })
            }
            SurfaceExpr::Assume(c, body) => {
                let tc = self.check(c, env)?;
                let b = self.known(Node::Bool);
                self.unify(tc.ty, b)?;
                let tb = self.check(body, env)?;
                let ty = tb.ty;
                Ok(RawTyped {
                    expr: RawExpr::Assume(Box::new(tc), Box::new(tb)),
                    ty,
                })
            }
            SurfaceExpr::Fail => {
                // `fail` can take any type; in practice unit.
                let ty = self.fresh();
                Ok(RawTyped {
                    expr: RawExpr::Fail,
                    ty,
                })
            }
            SurfaceExpr::RandInt => {
                let ty = self.known(Node::Int);
                Ok(RawTyped {
                    expr: RawExpr::RandInt,
                    ty,
                })
            }
            SurfaceExpr::RandBool => {
                let ty = self.known(Node::Bool);
                Ok(RawTyped {
                    expr: RawExpr::RandBool,
                    ty,
                })
            }
            SurfaceExpr::Seq(a, b) => {
                let ta = self.check(a, env)?;
                let tb = self.check(b, env)?;
                let ty = tb.ty;
                Ok(RawTyped {
                    expr: RawExpr::Seq(Box::new(ta), Box::new(tb)),
                    ty,
                })
            }
        }
    }

    /// Resolves a `TyVar` to a concrete [`SimpleTy`]; unconstrained variables
    /// default to `int` (a harmless choice for programs that never use them).
    fn resolve(&mut self, v: TyVar) -> Result<SimpleTy, TypeError> {
        let v = self.find(v);
        match self.nodes[v.0].clone() {
            Node::Unbound => {
                self.nodes[v.0] = Node::Int;
                Ok(SimpleTy::Int)
            }
            Node::Unit => Ok(SimpleTy::Unit),
            Node::Bool => Ok(SimpleTy::Bool),
            Node::Int => Ok(SimpleTy::Int),
            Node::Fun(a, b) => Ok(SimpleTy::fun(self.resolve(a)?, self.resolve(b)?)),
            Node::Link(_) => unreachable!("find returned a link"),
        }
    }

    /// Pre-pass: `fail` is type-polymorphic; bind every still-unconstrained
    /// `fail` node to `unit` *before* general resolution defaults things to
    /// `int` (the kernel checker gives `fail` type unit).
    fn default_fails(&mut self, r: &RawTyped) {
        if matches!(r.expr, RawExpr::Fail) {
            let v = self.find(r.ty);
            if matches!(self.nodes[v.0], Node::Unbound) {
                self.nodes[v.0] = Node::Unit;
            }
        }
        match &r.expr {
            RawExpr::Unit
            | RawExpr::Bool(_)
            | RawExpr::Int(_)
            | RawExpr::Var(_)
            | RawExpr::Fail
            | RawExpr::RandInt
            | RawExpr::RandBool => {}
            RawExpr::BinOp(_, a, b)
            | RawExpr::App(a, b)
            | RawExpr::Assume(a, b)
            | RawExpr::Seq(a, b) => {
                self.default_fails(a);
                self.default_fails(b);
            }
            RawExpr::Neg(a) | RawExpr::Not(a) | RawExpr::Assert(a) | RawExpr::Fun(_, _, a) => {
                self.default_fails(a)
            }
            RawExpr::If(c, t, e) => {
                self.default_fails(c);
                self.default_fails(t);
                self.default_fails(e);
            }
            RawExpr::Let { rhs, body, .. } => {
                self.default_fails(rhs);
                self.default_fails(body);
            }
        }
    }

    fn resolve_typed(&mut self, r: RawTyped) -> Result<Typed, TypeError> {
        let ty = self.resolve(r.ty)?;
        let expr = match r.expr {
            RawExpr::Unit => TExpr::Unit,
            RawExpr::Bool(b) => TExpr::Bool(b),
            RawExpr::Int(n) => TExpr::Int(n),
            RawExpr::Var(x) => TExpr::Var(x),
            RawExpr::BinOp(op, a, b) => TExpr::BinOp(
                op,
                Box::new(self.resolve_typed(*a)?),
                Box::new(self.resolve_typed(*b)?),
            ),
            RawExpr::Neg(a) => TExpr::Neg(Box::new(self.resolve_typed(*a)?)),
            RawExpr::Not(a) => TExpr::Not(Box::new(self.resolve_typed(*a)?)),
            RawExpr::App(f, a) => TExpr::App(
                Box::new(self.resolve_typed(*f)?),
                Box::new(self.resolve_typed(*a)?),
            ),
            RawExpr::If(c, t, e) => TExpr::If(
                Box::new(self.resolve_typed(*c)?),
                Box::new(self.resolve_typed(*t)?),
                Box::new(self.resolve_typed(*e)?),
            ),
            RawExpr::Let {
                recursive,
                name,
                params,
                name_ty,
                rhs,
                body,
            } => TExpr::Let {
                recursive,
                name,
                params: params
                    .into_iter()
                    .map(|(p, t)| Ok((p, self.resolve(t)?)))
                    .collect::<Result<_, TypeError>>()?,
                name_ty: self.resolve(name_ty)?,
                rhs: Box::new(self.resolve_typed(*rhs)?),
                body: Box::new(self.resolve_typed(*body)?),
            },
            RawExpr::Fun(x, t, body) => {
                TExpr::Fun(x, self.resolve(t)?, Box::new(self.resolve_typed(*body)?))
            }
            RawExpr::Assert(a) => TExpr::Assert(Box::new(self.resolve_typed(*a)?)),
            RawExpr::Assume(c, b) => TExpr::Assume(
                Box::new(self.resolve_typed(*c)?),
                Box::new(self.resolve_typed(*b)?),
            ),
            RawExpr::Fail => TExpr::Fail,
            RawExpr::RandInt => TExpr::RandInt,
            RawExpr::RandBool => TExpr::RandBool,
            RawExpr::Seq(a, b) => TExpr::Seq(
                Box::new(self.resolve_typed(*a)?),
                Box::new(self.resolve_typed(*b)?),
            ),
        };
        Ok(Typed { expr, ty })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn ty_of(src: &str) -> SimpleTy {
        infer(&parse(src).expect("parses")).expect("types").root.ty
    }

    #[test]
    fn base_types() {
        assert_eq!(ty_of("1 + 2"), SimpleTy::Int);
        assert_eq!(ty_of("1 < 2"), SimpleTy::Bool);
        assert_eq!(ty_of("()"), SimpleTy::Unit);
        assert_eq!(ty_of("assert (1 = 1)"), SimpleTy::Unit);
    }

    #[test]
    fn higher_order() {
        // let f x g = g (x + 1) in f : int -> (int -> 'a) -> 'a   ('a := int)
        let t = ty_of("let f x g = g (x + 1) in f");
        assert_eq!(
            t,
            SimpleTy::fun(
                SimpleTy::Int,
                SimpleTy::fun(SimpleTy::fun(SimpleTy::Int, SimpleTy::Int), SimpleTy::Int)
            )
        );
        assert_eq!(t.order(), 2);
    }

    #[test]
    fn free_variables_become_unknown_ints() {
        let tp = infer(&parse("assert (n > 0)").expect("parses")).expect("types");
        assert_eq!(tp.unknowns, vec!["n".to_string()]);
    }

    #[test]
    fn unknowns_propagate_from_let_rhs() {
        let tp = infer(&parse("let f x = x + m in f 1").expect("parses")).expect("types");
        assert_eq!(tp.unknowns, vec!["m".to_string()]);
    }

    #[test]
    fn type_errors_are_reported() {
        let e = parse("1 + true").expect("parses");
        assert!(infer(&e).is_err());
        let e = parse("if 1 then 2 else 3").expect("parses");
        assert!(infer(&e).is_err());
    }

    #[test]
    fn recursion() {
        let t = ty_of("let rec sum n = if n <= 0 then 0 else n + sum (n - 1) in sum");
        assert_eq!(t, SimpleTy::fun(SimpleTy::Int, SimpleTy::Int));
        assert_eq!(t.order(), 1);
    }

    #[test]
    fn equality_resolves_by_operand() {
        assert_eq!(ty_of("true = false"), SimpleTy::Bool);
        assert_eq!(ty_of("1 = 2"), SimpleTy::Bool);
    }
}
