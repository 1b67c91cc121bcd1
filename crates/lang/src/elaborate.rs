//! Elaboration: typed surface programs → kernel programs.
//!
//! This pass performs, in one sweep:
//!
//! * **α-renaming** — every binder gets a globally unique name;
//! * **λ-lifting** — local functions and `fun`-abstractions become top-level
//!   definitions, closing over their captured locals as extra parameters;
//! * **A-normalization** — operator and application arguments become values,
//!   with intermediate computations bound by `let`;
//! * **desugaring** per the paper's §2 — `if v then e₁ else e₂` becomes
//!   `(assume v; e₁) ⊓ (let x = ¬v in assume x; e₂)`, `assert v` becomes
//!   `if v then () else fail`, and `rand_bool` becomes `true ⊓ false`;
//! * **unknowns** — the program's free variables become parameters of `main`;
//! * **η-expansion** — definitions whose bodies have function type gain
//!   parameters until the body type is base (the paper's standing
//!   assumption, enabling the simple CPS transform).

use std::collections::BTreeMap;
use std::fmt;

use homc_smt::Var;

use crate::kernel::{Def, Expr, FunName, Op, Program, Value};
use crate::types::{SimpleTy, TExpr, Typed, TypedProgram};

/// An elaboration error (internal inconsistencies; well-typed inputs do not
/// produce these).
#[derive(Clone, Debug)]
pub struct ElabError(pub String);

impl fmt::Display for ElabError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "elaboration error: {}", self.0)
    }
}

impl std::error::Error for ElabError {}

/// Elaborates a typed surface program into a kernel [`Program`].
pub fn elaborate(tp: &TypedProgram) -> Result<Program, ElabError> {
    let mut ctx = Ctx::default();
    let mut env: Env = BTreeMap::new();
    // The program's unknowns are int parameters of main.
    let mut main_params = Vec::new();
    for u in &tp.unknowns {
        let v = ctx.fresh_var(u, SimpleTy::Int);
        env.insert(u.clone(), Value::Var(v.clone()));
        main_params.push((v, SimpleTy::Int));
    }
    if !tp.root.ty.is_base() {
        return Err(ElabError(format!(
            "the program's final expression has function type {}; it must be a base type",
            tp.root.ty
        )));
    }
    let body = ctx.elab_expr(&tp.root, &env)?;
    let main = FunName("main".to_string());
    ctx.defs.push(Def {
        name: main.clone(),
        params: main_params,
        ret: tp.root.ty.clone(),
        body,
    });
    let mut program = Program {
        defs: ctx.defs,
        main,
    };
    eta_expand(&mut program, &mut ctx.counter);
    Ok(program)
}

/// Surface identifiers resolve to kernel values (a local variable, a
/// top-level function, or a partial application closing over captures).
type Env = BTreeMap<String, Value>;

#[derive(Default)]
struct Ctx {
    defs: Vec<Def>,
    counter: usize,
    var_tys: BTreeMap<Var, SimpleTy>,
    fun_tys: BTreeMap<FunName, SimpleTy>,
}

impl Ctx {
    fn fresh_var(&mut self, base: &str, ty: SimpleTy) -> Var {
        self.counter += 1;
        let v = Var::new(format!("{base}_{}", self.counter));
        self.var_tys.insert(v.clone(), ty);
        v
    }

    fn fresh_fun(&mut self, base: &str) -> FunName {
        self.counter += 1;
        FunName(format!("{base}_{}", self.counter))
    }

    /// Elaborates `e` in value position: computations are bound in `binds`.
    fn elab_value(
        &mut self,
        e: &Typed,
        env: &Env,
        binds: &mut Vec<(Var, Expr)>,
    ) -> Result<Value, ElabError> {
        match &e.expr {
            TExpr::Unit => Ok(Value::unit()),
            TExpr::Bool(b) => Ok(Value::bool(*b)),
            TExpr::Int(n) => Ok(Value::int(*n)),
            TExpr::Var(x) => env
                .get(x)
                .cloned()
                .ok_or_else(|| ElabError(format!("unbound identifier {x}"))),
            TExpr::App(_, _) => {
                let (head, args) = spine(e);
                let hv = self.elab_value(head, env, binds)?;
                let mut avs = Vec::new();
                for a in &args {
                    avs.push(self.elab_value(a, env, binds)?);
                }
                if e.ty.is_base() {
                    // Saturated: a computation.
                    let t = self.fresh_var("r", e.ty.clone());
                    binds.push((t.clone(), Expr::Call(hv, avs)));
                    Ok(Value::Var(t))
                } else {
                    Ok(hv.papp(avs))
                }
            }
            TExpr::BinOp(op, a, b) => {
                let ta = a.ty.clone();
                let va = self.elab_value(a, env, binds)?;
                let vb = self.elab_value(b, env, binds)?;
                let kop = match op {
                    crate::ast::BinOp::Add => Op::Add,
                    crate::ast::BinOp::Sub => Op::Sub,
                    crate::ast::BinOp::Mul => Op::Mul,
                    crate::ast::BinOp::Div => Op::Div,
                    crate::ast::BinOp::Lt => Op::Lt,
                    crate::ast::BinOp::Le => Op::Le,
                    crate::ast::BinOp::Gt => Op::Gt,
                    crate::ast::BinOp::Ge => Op::Ge,
                    crate::ast::BinOp::And => Op::And,
                    crate::ast::BinOp::Or => Op::Or,
                    crate::ast::BinOp::Eq | crate::ast::BinOp::Ne => {
                        if ta == SimpleTy::Bool {
                            Op::EqBool
                        } else {
                            Op::EqInt
                        }
                    }
                };
                let t = self.fresh_var("t", kop.result_ty());
                binds.push((t.clone(), Expr::Op(kop, vec![va, vb])));
                if matches!(op, crate::ast::BinOp::Ne) {
                    let nt = self.fresh_var("t", SimpleTy::Bool);
                    binds.push((nt.clone(), Expr::Op(Op::Not, vec![Value::Var(t)])));
                    Ok(Value::Var(nt))
                } else {
                    Ok(Value::Var(t))
                }
            }
            TExpr::Neg(a) => {
                let va = self.elab_value(a, env, binds)?;
                let t = self.fresh_var("t", SimpleTy::Int);
                binds.push((t.clone(), Expr::Op(Op::Neg, vec![va])));
                Ok(Value::Var(t))
            }
            TExpr::Not(a) => {
                let va = self.elab_value(a, env, binds)?;
                let t = self.fresh_var("t", SimpleTy::Bool);
                binds.push((t.clone(), Expr::Op(Op::Not, vec![va])));
                Ok(Value::Var(t))
            }
            TExpr::Fun(_, _, _) => {
                // A bare lambda: lift it as an anonymous function.
                let name = self.fresh_fun("lam");
                self.lift_lambda(&name, e, env)
            }
            TExpr::Let { .. }
            | TExpr::If(_, _, _)
            | TExpr::Assert(_)
            | TExpr::Assume(_, _)
            | TExpr::Seq(_, _)
            | TExpr::Fail
            | TExpr::RandInt
            | TExpr::RandBool => {
                // A computation in value position: bind it.
                let ex = self.elab_expr(e, env)?;
                let t = self.fresh_var("v", e.ty.clone());
                binds.push((t.clone(), ex));
                Ok(Value::Var(t))
            }
        }
    }

    /// Elaborates `e` in tail (expression) position.
    fn elab_expr(&mut self, e: &Typed, env: &Env) -> Result<Expr, ElabError> {
        match &e.expr {
            TExpr::App(_, _) if e.ty.is_base() => {
                let (head, args) = spine(e);
                let mut binds = Vec::new();
                let hv = self.elab_value(head, env, &mut binds)?;
                let mut avs = Vec::new();
                for a in &args {
                    avs.push(self.elab_value(a, env, &mut binds)?);
                }
                Ok(wrap(binds, Expr::Call(hv, avs)))
            }
            TExpr::If(c, t, el) => {
                let mut binds = Vec::new();
                let vc = self.elab_value(c, env, &mut binds)?;
                let then_e = self.elab_expr(t, env)?;
                let else_e = self.elab_expr(el, env)?;
                Ok(wrap(binds, self.desugar_if(vc, then_e, else_e)))
            }
            TExpr::Assert(c) => {
                let mut binds = Vec::new();
                let vc = self.elab_value(c, env, &mut binds)?;
                Ok(wrap(
                    binds,
                    self.desugar_if(vc, Expr::Value(Value::unit()), Expr::Fail),
                ))
            }
            TExpr::Assume(c, body) => {
                let mut binds = Vec::new();
                let vc = self.elab_value(c, env, &mut binds)?;
                let be = self.elab_expr(body, env)?;
                Ok(wrap(binds, Expr::assume(vc, be)))
            }
            TExpr::Fail => Ok(Expr::Fail),
            TExpr::RandInt => Ok(Expr::Rand),
            TExpr::RandBool => Ok(Expr::choice(
                Expr::Value(Value::bool(true)),
                Expr::Value(Value::bool(false)),
            )),
            TExpr::Seq(a, b) => {
                let ea = self.elab_expr(a, env)?;
                let t = self.fresh_var("u", a.ty.clone());
                let eb = self.elab_expr(b, env)?;
                Ok(Expr::let_(t, ea, eb))
            }
            TExpr::Let {
                recursive,
                name,
                params,
                name_ty,
                rhs,
                body,
            } => {
                // Merge leading lambdas of the rhs into the parameter list.
                let mut params = params.clone();
                let mut rhs_ref: &Typed = rhs;
                while let TExpr::Fun(x, t, inner) = &rhs_ref.expr {
                    params.push((x.clone(), t.clone()));
                    rhs_ref = inner;
                }
                if params.is_empty() {
                    // A plain value binding.
                    if *recursive {
                        return Err(ElabError(format!(
                            "recursive value binding {name} is not supported"
                        )));
                    }
                    let er = self.elab_expr(rhs_ref, env)?;
                    let x = self.fresh_var(name, rhs_ref.ty.clone());
                    let mut inner = env.clone();
                    inner.insert(name.clone(), Value::Var(x.clone()));
                    let eb = self.elab_expr(body, &inner)?;
                    return Ok(Expr::let_(x, er, eb));
                }
                // A function definition: λ-lift it.
                let binding =
                    self.lift_function(name, *recursive, &params, name_ty, rhs_ref, env)?;
                let mut inner = env.clone();
                inner.insert(name.clone(), binding);
                self.elab_expr(body, &inner)
            }
            // Values (and operator applications) in tail position.
            _ => {
                let mut binds = Vec::new();
                let v = self.elab_value(e, env, &mut binds)?;
                Ok(wrap(binds, Expr::Value(v)))
            }
        }
    }

    /// The paper's conditional desugaring (§2).
    fn desugar_if(&mut self, cond: Value, then_e: Expr, else_e: Expr) -> Expr {
        let nb = self.fresh_var("nb", SimpleTy::Bool);
        Expr::choice(
            Expr::assume(cond.clone(), then_e),
            Expr::let_(
                nb.clone(),
                Expr::Op(Op::Not, vec![cond]),
                Expr::assume(Value::Var(nb), else_e),
            ),
        )
    }

    /// Lifts `let [rec] name params = rhs` to a top-level definition,
    /// returning the value the name is bound to in the continuation.
    fn lift_function(
        &mut self,
        name: &str,
        recursive: bool,
        params: &[(String, SimpleTy)],
        name_ty: &SimpleTy,
        rhs: &Typed,
        env: &Env,
    ) -> Result<Value, ElabError> {
        self.lift_function_with_ghosts(name, recursive, params, name_ty, rhs, env, &[])
    }

    #[allow(clippy::too_many_arguments)]
    fn lift_function_with_ghosts(
        &mut self,
        name: &str,
        recursive: bool,
        params: &[(String, SimpleTy)],
        name_ty: &SimpleTy,
        rhs: &Typed,
        env: &Env,
        ghosts: &[Var],
    ) -> Result<Value, ElabError> {
        // Captured locals: kernel variables free in the values that the
        // rhs's free surface identifiers resolve to.
        let mut free = Vec::new();
        let mut bound: Vec<String> = params.iter().map(|(p, _)| p.clone()).collect();
        if recursive {
            bound.push(name.to_string());
        }
        free_idents(&rhs.expr, &mut bound, &mut free);
        let mut captured: Vec<Var> = Vec::new();
        for id in &free {
            if let Some(v) = env.get(id) {
                let mut vs = Vec::new();
                v.free_vars(&mut vs);
                for v in vs {
                    if !captured.contains(&v) {
                        captured.push(v);
                    }
                }
            }
        }
        for g in ghosts {
            if !captured.contains(g) {
                captured.push(g.clone());
            }
        }
        let fname = self.fresh_fun(name);
        // Fresh kernel parameters.
        let mut def_params: Vec<(Var, SimpleTy)> = Vec::new();
        for c in &captured {
            let ty = self
                .var_tys
                .get(c)
                .cloned()
                .ok_or_else(|| ElabError(format!("untyped captured variable {c}")))?;
            def_params.push((c.clone(), ty));
        }
        let mut inner = env.clone();
        for (p, t) in params {
            let v = self.fresh_var(p, t.clone());
            inner.insert(p.clone(), Value::Var(v.clone()));
            def_params.push((v, t.clone()));
        }
        let binding = if captured.is_empty() {
            Value::Fun(fname.clone())
        } else {
            Value::PApp(
                Box::new(Value::Fun(fname.clone())),
                captured.iter().cloned().map(Value::Var).collect(),
            )
        };
        if recursive {
            inner.insert(name.to_string(), binding.clone());
        }
        // Record the function's type (captures prepended) before
        // elaborating the body so recursive uses resolve.
        let full_ty = def_params
            .iter()
            .rev()
            .fold(rhs.ty.clone(), |acc, (_, t)| SimpleTy::fun(t.clone(), acc));
        self.fun_tys.insert(fname.clone(), full_ty);
        let _ = name_ty;
        let body = self.elab_expr(rhs, &inner)?;
        self.defs.push(Def {
            name: fname,
            params: def_params,
            ret: rhs.ty.clone(),
            body,
        });
        Ok(binding)
    }

    /// Lifts an anonymous `fun … -> e`, ghost-capturing every in-scope
    /// integer (so that CEGAR can express predicates relating the lambda's
    /// arguments to its environment — the paper's Remark 2 device).
    fn lift_lambda(&mut self, name: &FunName, e: &Typed, env: &Env) -> Result<Value, ElabError> {
        let mut params = Vec::new();
        let mut body: &Typed = e;
        while let TExpr::Fun(x, t, inner) = &body.expr {
            params.push((x.clone(), t.clone()));
            body = inner;
        }
        let base = name.0.clone();
        let ghosts: Vec<Var> = env
            .values()
            .filter_map(|v| match v {
                Value::Var(x) if self.var_tys.get(x) == Some(&SimpleTy::Int) => Some(x.clone()),
                _ => None,
            })
            .collect();
        self.lift_function_with_ghosts(&base, false, &params, &e.ty, body, env, &ghosts)
    }
}

/// Splits an application spine `(((f a) b) c)` into `(f, [a, b, c])`.
fn spine(e: &Typed) -> (&Typed, Vec<&Typed>) {
    match &e.expr {
        TExpr::App(f, a) => {
            let (head, mut args) = spine(f);
            args.push(a);
            (head, args)
        }
        _ => (e, Vec::new()),
    }
}

/// Free surface identifiers of a typed expression.
fn free_idents(e: &TExpr, bound: &mut Vec<String>, out: &mut Vec<String>) {
    let visit = |x: &str, bound: &Vec<String>, out: &mut Vec<String>| {
        if !bound.iter().any(|b| b == x) && !out.iter().any(|o| o == x) {
            out.push(x.to_string());
        }
    };
    match e {
        TExpr::Unit
        | TExpr::Bool(_)
        | TExpr::Int(_)
        | TExpr::Fail
        | TExpr::RandInt
        | TExpr::RandBool => {}
        TExpr::Var(x) => visit(x, bound, out),
        TExpr::BinOp(_, a, b) | TExpr::App(a, b) | TExpr::Seq(a, b) | TExpr::Assume(a, b) => {
            free_idents(&a.expr, bound, out);
            free_idents(&b.expr, bound, out);
        }
        TExpr::Neg(a) | TExpr::Not(a) | TExpr::Assert(a) => free_idents(&a.expr, bound, out),
        TExpr::If(c, t, e) => {
            free_idents(&c.expr, bound, out);
            free_idents(&t.expr, bound, out);
            free_idents(&e.expr, bound, out);
        }
        TExpr::Let {
            recursive,
            name,
            params,
            rhs,
            body,
            ..
        } => {
            let n = bound.len();
            for (p, _) in params {
                bound.push(p.clone());
            }
            if *recursive {
                bound.push(name.clone());
            }
            free_idents(&rhs.expr, bound, out);
            bound.truncate(n);
            bound.push(name.clone());
            free_idents(&body.expr, bound, out);
            bound.pop();
        }
        TExpr::Fun(x, _, body) => {
            bound.push(x.clone());
            free_idents(&body.expr, bound, out);
            bound.pop();
        }
    }
}

fn wrap(binds: Vec<(Var, Expr)>, tail: Expr) -> Expr {
    binds
        .into_iter()
        .rev()
        .fold(tail, |acc, (x, rhs)| Expr::let_(x, rhs, acc))
}

/// η-expands definitions whose result type is a function until every body
/// has base type (the paper's standing assumption before CPS).
fn eta_expand(program: &mut Program, counter: &mut usize) {
    for def in &mut program.defs {
        if def.ret.is_base() {
            continue;
        }
        // Add parameters for the whole residual type in one step so that the
        // final application saturates to a base type.
        let (ps, ret) = def.ret.uncurry();
        let (ps, ret): (Vec<SimpleTy>, SimpleTy) = (ps.into_iter().cloned().collect(), ret.clone());
        let mut args = Vec::new();
        for p in &ps {
            *counter += 1;
            let y = Var::new(format!("eta_{counter}"));
            args.push(Value::Var(y.clone()));
            def.params.push((y, p.clone()));
        }
        *counter += 1;
        let res = Var::new(format!("etar_{counter}"));
        let old = std::mem::replace(&mut def.body, Expr::Fail);
        def.body = Expr::let_(res.clone(), old, Expr::Call(Value::Var(res), args));
        def.ret = ret;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::types::infer;

    fn kernel_of(src: &str) -> Program {
        let tp = infer(&parse(src).expect("parses")).expect("types");
        let p = elaborate(&tp).expect("elaborates");
        p.check().expect("kernel type-checks");
        p
    }

    #[test]
    fn intro1_elaborates_and_checks() {
        let p = kernel_of(
            "let f x g = g (x + 1) in
             let h y = assert (y > 0) in
             let k n = if n > 0 then f n h else () in
             k rand_int",
        );
        // f, h, k, main (+ the rand binding stays inline).
        assert_eq!(p.defs.len(), 4);
        assert_eq!(p.main_def().params.len(), 0);
        assert_eq!(p.order(), 2);
    }

    #[test]
    fn free_variables_become_main_params() {
        let p = kernel_of("assert (n <= m)");
        assert_eq!(p.main_def().params.len(), 2);
    }

    #[test]
    fn lambda_lifting_captures_locals() {
        // g captures z.
        let p = kernel_of("let outer z = (fun y -> y + z) 3 in outer 7");
        let lam = p
            .defs
            .iter()
            .find(|d| d.name.0.starts_with("lam"))
            .expect("lifted lambda");
        assert_eq!(lam.params.len(), 2, "captured z plus the parameter y");
    }

    #[test]
    fn nested_function_captures() {
        let p = kernel_of(
            "let outer z =
               let g y = y + z in
               g 1 + g 2
             in outer 5",
        );
        let g = p
            .defs
            .iter()
            .find(|d| d.name.0.starts_with("g"))
            .expect("lifted g");
        assert_eq!(g.params.len(), 2);
    }

    #[test]
    fn recursive_function() {
        let p = kernel_of("let rec sum n = if n <= 0 then 0 else n + sum (n - 1) in sum 5");
        let sum = p
            .defs
            .iter()
            .find(|d| d.name.0.starts_with("sum"))
            .expect("sum");
        assert_eq!(sum.ret, SimpleTy::Int);
        assert_eq!(p.order(), 1);
    }

    #[test]
    fn eta_expansion_of_function_bodies() {
        // twice returns a closure; its definition must be η-expanded so the
        // body has base type.
        let p = kernel_of("let compose f g x = f (g x) in let inc x = x + 1 in compose inc inc 0");
        for d in &p.defs {
            assert!(d.ret.is_base(), "{} has non-base body", d.name);
        }
    }

    #[test]
    fn partial_application_is_a_value() {
        let p = kernel_of(
            "let h z y = assert (y > z) in
             let f x g = g (x + 1) in
             let k n = if n >= 0 then f n (h n) else () in
             k rand_int",
        );
        p.check().expect("types");
        assert_eq!(p.order(), 2);
    }
}
