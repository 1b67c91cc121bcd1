//! The surface abstract syntax: a tiny OCaml-like functional language.
//!
//! This is the language the paper's prototype accepts (§6): booleans and
//! integers as base types, `let rec`, higher-order functions, conditionals,
//! `assert`, and unknown integers (free variables / `rand_int ()`).

use std::fmt;

/// A source-level identifier.
pub type Ident = String;

/// Binary operators of the surface language.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BinOp {
    /// Integer addition.
    Add,
    /// Integer subtraction.
    Sub,
    /// Integer multiplication.
    Mul,
    /// Integer division (kept for completeness; treated as uninterpreted by
    /// the abstraction when the divisor is symbolic).
    Div,
    /// `=` on integers or booleans.
    Eq,
    /// `<>`.
    Ne,
    /// `<`.
    Lt,
    /// `<=`.
    Le,
    /// `>`.
    Gt,
    /// `>=`.
    Ge,
    /// `&&`.
    And,
    /// `||`.
    Or,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Eq => "=",
            BinOp::Ne => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        };
        write!(f, "{s}")
    }
}

/// A surface expression.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SurfaceExpr {
    /// `()`.
    Unit,
    /// Boolean literal.
    Bool(bool),
    /// Integer literal.
    Int(i64),
    /// Variable reference.
    Var(Ident),
    /// `e1 op e2`.
    BinOp(BinOp, Box<SurfaceExpr>, Box<SurfaceExpr>),
    /// Unary minus.
    Neg(Box<SurfaceExpr>),
    /// Boolean negation.
    Not(Box<SurfaceExpr>),
    /// Application `e1 e2` (curried).
    App(Box<SurfaceExpr>, Box<SurfaceExpr>),
    /// `if c then t else e`.
    If(Box<SurfaceExpr>, Box<SurfaceExpr>, Box<SurfaceExpr>),
    /// `let [rec] f x̃ = e1 in e2`.
    Let {
        /// Whether the binding is recursive.
        recursive: bool,
        /// Bound name.
        name: Ident,
        /// Parameters (empty for a plain value binding).
        params: Vec<Ident>,
        /// Right-hand side.
        rhs: Box<SurfaceExpr>,
        /// Body.
        body: Box<SurfaceExpr>,
    },
    /// `fun x -> e`.
    Fun(Ident, Box<SurfaceExpr>),
    /// `assert e` — fails when `e` is false.
    Assert(Box<SurfaceExpr>),
    /// `assume e; …` semantics: continue only when `e` holds.
    Assume(Box<SurfaceExpr>, Box<SurfaceExpr>),
    /// `fail ()` — unconditional failure.
    Fail,
    /// An unknown integer (`rand_int ()` or a free variable).
    RandInt,
    /// An unknown boolean (`rand_bool ()`).
    RandBool,
    /// `e1; e2` sequencing.
    Seq(Box<SurfaceExpr>, Box<SurfaceExpr>),
}

impl SurfaceExpr {
    /// Builds a curried application `f a₁ … aₙ`.
    pub fn apply(f: SurfaceExpr, args: impl IntoIterator<Item = SurfaceExpr>) -> SurfaceExpr {
        args.into_iter()
            .fold(f, |acc, a| SurfaceExpr::App(Box::new(acc), Box::new(a)))
    }

    /// Counts the "words" of the expression, mirroring the paper's size
    /// metric S ("size of programs, measured in word counts").
    pub fn word_count(&self) -> usize {
        match self {
            SurfaceExpr::Unit | SurfaceExpr::Bool(_) | SurfaceExpr::Int(_) => 1,
            SurfaceExpr::Var(_) | SurfaceExpr::Fail => 1,
            SurfaceExpr::RandInt | SurfaceExpr::RandBool => 1,
            SurfaceExpr::BinOp(_, a, b) => 1 + a.word_count() + b.word_count(),
            SurfaceExpr::Neg(a) | SurfaceExpr::Not(a) => 1 + a.word_count(),
            SurfaceExpr::App(a, b) => a.word_count() + b.word_count(),
            SurfaceExpr::If(c, t, e) => 1 + c.word_count() + t.word_count() + e.word_count(),
            SurfaceExpr::Let {
                params, rhs, body, ..
            } => 2 + params.len() + rhs.word_count() + body.word_count(),
            SurfaceExpr::Fun(_, e) => 2 + e.word_count(),
            SurfaceExpr::Assert(e) => 1 + e.word_count(),
            SurfaceExpr::Assume(c, e) => 1 + c.word_count() + e.word_count(),
            SurfaceExpr::Seq(a, b) => a.word_count() + b.word_count(),
        }
    }
}
