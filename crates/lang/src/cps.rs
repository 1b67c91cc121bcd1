//! Call-by-value CPS transformation of kernel programs.
//!
//! The paper verifies all programs after CPS transformation (§6, footnote 8):
//! every function takes an extra continuation parameter and every body ends
//! in a tail call, `()`, or `fail`. Because elaboration has already
//! η-expanded every definition to a base-type body, the type translation is
//! the simple one that inserts a single answer continuation at the base
//! result:
//!
//! ```text
//! ⟦b⟧ = b        ⟦t₁ → … → tₙ → b⟧ = ⟦t₁⟧ → … → ⟦tₙ⟧ → (b → unit) → unit
//! ```
//!
//! Continuations arising from `let x = e₁ in e₂` with a serious `e₁` are
//! λ-lifted to fresh top-level definitions closing over their free variables,
//! so the output stays within the kernel (which has no anonymous functions).

use std::collections::BTreeMap;

use homc_smt::Var;

use crate::kernel::{Def, Expr, FunName, Program, Value};
use crate::types::SimpleTy;

/// CPS-translates a simple type.
pub fn cps_ty(t: &SimpleTy) -> SimpleTy {
    if t.is_base() {
        return t.clone();
    }
    let (params, ret) = t.uncurry();
    let k = SimpleTy::fun(ret.clone(), SimpleTy::Unit);
    let mut out = SimpleTy::fun(k, SimpleTy::Unit);
    for p in params.into_iter().rev() {
        out = SimpleTy::fun(cps_ty(p), out);
    }
    out
}

/// CPS-transforms a whole program.
///
/// The result's `main` is a wrapper `__top ũ = main† ũ k_end` where `ũ` are
/// the original unknowns and `k_end r = ()` discards the final answer; the
/// output satisfies [`Program::is_cps_normal`].
pub fn cps_transform(p: &Program) -> Program {
    let mut cx = Cps {
        counter: 0,
        new_defs: Vec::new(),
        sig: p.defs.iter().map(|d| (d.name.clone(), d.ty())).collect(),
    };
    let mut defs = Vec::new();
    for d in &p.defs {
        let mut env: BTreeMap<Var, SimpleTy> = d
            .params
            .iter()
            .map(|(x, t)| (x.clone(), cps_ty(t)))
            .collect();
        let k = Var::new(format!("k_{}", d.name.0));
        let k_ty = SimpleTy::fun(d.ret.clone(), SimpleTy::Unit);
        env.insert(k.clone(), k_ty.clone());
        let mut scope: Vec<Var> = d.params.iter().map(|(x, _)| x.clone()).collect();
        let body = cx.cps_expr(&d.body, &Value::Var(k.clone()), &mut env, &mut scope);
        let mut params: Vec<(Var, SimpleTy)> = d
            .params
            .iter()
            .map(|(x, t)| (x.clone(), cps_ty(t)))
            .collect();
        params.push((k, k_ty));
        defs.push(Def {
            name: d.name.clone(),
            params,
            ret: SimpleTy::Unit,
            body,
        });
    }
    // The answer continuation and the closed entry point.
    let main_def = p.main_def();
    let end = FunName("k_end".to_string());
    defs.push(Def {
        name: end.clone(),
        params: vec![(Var::new("end_r"), main_def.ret.clone())],
        ret: SimpleTy::Unit,
        body: Expr::Value(Value::unit()),
    });
    let top = FunName("__top".to_string());
    let top_params: Vec<(Var, SimpleTy)> = main_def.params.clone();
    let mut args: Vec<Value> = top_params
        .iter()
        .map(|(x, _)| Value::Var(x.clone()))
        .collect();
    args.push(Value::Fun(end));
    defs.push(Def {
        name: top.clone(),
        params: top_params,
        ret: SimpleTy::Unit,
        body: Expr::Call(Value::Fun(p.main.clone()), args),
    });
    defs.extend(cx.new_defs);
    Program { defs, main: top }
}

struct Cps {
    counter: usize,
    new_defs: Vec<Def>,
    sig: BTreeMap<FunName, SimpleTy>,
}

impl Cps {
    fn fresh(&mut self, base: &str) -> Var {
        self.counter += 1;
        Var::new(format!("{base}__{}", self.counter))
    }

    /// The type of a (CPS-translated) value under `env`.
    fn value_ty(&self, v: &Value, env: &BTreeMap<Var, SimpleTy>) -> SimpleTy {
        match v {
            Value::Const(c) => c.ty(),
            Value::Var(x) => env
                .get(x)
                .cloned()
                .unwrap_or_else(|| panic!("untyped variable {x} in CPS")),
            Value::Fun(f) => cps_ty(&self.sig[f]),
            Value::PApp(h, args) => {
                let mut t = self.value_ty(h, env);
                for _ in args {
                    match t {
                        SimpleTy::Fun(_, r) => t = *r,
                        _ => panic!("over-application in CPS"),
                    }
                }
                t
            }
        }
    }

    /// `cps_expr e k` produces the CPS form of `e` with continuation value
    /// `k` (of type `⟦ty(e)⟧ → unit`). `scope` tracks the variables bound on
    /// the current path, in binding order.
    fn cps_expr(
        &mut self,
        e: &Expr,
        k: &Value,
        env: &mut BTreeMap<Var, SimpleTy>,
        scope: &mut Vec<Var>,
    ) -> Expr {
        match e {
            Expr::Value(v) => Expr::Call(k.clone(), vec![v.clone()]),
            Expr::Call(f, args) => {
                let mut args = args.clone();
                args.push(k.clone());
                Expr::Call(f.clone(), args)
            }
            Expr::Op(op, args) => {
                let t = self.fresh("t");
                env.insert(t.clone(), op.result_ty());
                Expr::let_(
                    t.clone(),
                    Expr::Op(*op, args.clone()),
                    Expr::Call(k.clone(), vec![Value::Var(t)]),
                )
            }
            Expr::Rand => {
                let t = self.fresh("t");
                env.insert(t.clone(), SimpleTy::Int);
                Expr::let_(
                    t.clone(),
                    Expr::Rand,
                    Expr::Call(k.clone(), vec![Value::Var(t)]),
                )
            }
            Expr::Let(x, rhs, body) => match rhs.as_ref() {
                // Trivial right-hand sides stay in place.
                Expr::Op(_, _) | Expr::Rand | Expr::Value(_) => {
                    let xt = match rhs.as_ref() {
                        Expr::Op(op, _) => op.result_ty(),
                        Expr::Rand => SimpleTy::Int,
                        Expr::Value(v) => self.value_ty(v, env),
                        _ => unreachable!(),
                    };
                    env.insert(x.clone(), xt);
                    scope.push(x.clone());
                    let b = self.cps_expr(body, k, env, scope);
                    scope.pop();
                    Expr::Let(x.clone(), rhs.clone(), Box::new(b))
                }
                // A let of certain failure is dead code.
                Expr::Fail => Expr::Fail,
                // Serious right-hand sides: lift the continuation.
                _ => {
                    // Note: `rhs_ty` already returns the CPS-translated type
                    // (variable/function types in `env`/`sig` are CPS views).
                    let xt = self.rhs_ty(rhs, env);
                    env.insert(x.clone(), xt.clone());
                    scope.push(x.clone());
                    let kbody = self.cps_expr(body, k, env, scope);
                    scope.pop();
                    // Free variables of the continuation body, minus x.
                    let mut bound = vec![x.clone()];
                    let mut fvs = Vec::new();
                    kbody.free_vars(&mut bound, &mut fvs);
                    // Ghost-capture every in-scope integer: CEGAR's
                    // predicate templates may only depend on a function's
                    // own (earlier) parameters, so a continuation must carry
                    // the integers its result may relate to — the paper's
                    // Remark 2 "dummy parameter" device, applied
                    // systematically.
                    for v in scope.iter() {
                        if env.get(v) == Some(&SimpleTy::Int) && !fvs.contains(v) {
                            fvs.push(v.clone());
                        }
                    }
                    let kname = FunName(format!("k__{}", {
                        self.counter += 1;
                        self.counter
                    }));
                    let mut params: Vec<(Var, SimpleTy)> = fvs
                        .iter()
                        .map(|v| {
                            (
                                v.clone(),
                                env.get(v)
                                    .cloned()
                                    .unwrap_or_else(|| panic!("untyped capture {v}")),
                            )
                        })
                        .collect();
                    params.push((x.clone(), xt));
                    let kty = params
                        .iter()
                        .rev()
                        .fold(SimpleTy::Unit, |acc, (_, t)| SimpleTy::fun(t.clone(), acc));
                    self.sig.insert(kname.clone(), kty);
                    self.new_defs.push(Def {
                        name: kname.clone(),
                        params,
                        ret: SimpleTy::Unit,
                        body: kbody,
                    });
                    let kval = if fvs.is_empty() {
                        Value::Fun(kname)
                    } else {
                        Value::PApp(
                            Box::new(Value::Fun(kname)),
                            fvs.into_iter().map(Value::Var).collect(),
                        )
                    };
                    self.cps_expr(rhs, &kval, env, scope)
                }
            },
            Expr::Choice(l, r) => {
                let n = scope.len();
                let lc = self.cps_expr(l, k, env, scope);
                scope.truncate(n);
                let rc = self.cps_expr(r, k, env, scope);
                scope.truncate(n);
                Expr::choice(lc, rc)
            }
            Expr::Assume(v, e) => Expr::assume(v.clone(), self.cps_expr(e, k, env, scope)),
            Expr::Fail => Expr::Fail,
        }
    }

    /// The (pre-CPS) type of a let right-hand side.
    fn rhs_ty(&self, e: &Expr, env: &BTreeMap<Var, SimpleTy>) -> SimpleTy {
        match e {
            Expr::Value(v) => self.value_ty(v, env),
            Expr::Op(op, _) => op.result_ty(),
            Expr::Rand => SimpleTy::Int,
            Expr::Fail => SimpleTy::Unit,
            Expr::Call(f, args) => {
                // Note: `f` here is already CPS-typed in env for variables,
                // but for a pre-CPS call the residual after `args` is the
                // *answer* type. We reconstruct it from the uncurried view.
                let mut t = self.value_ty(f, env);
                for _ in args {
                    match t {
                        SimpleTy::Fun(_, r) => t = *r,
                        _ => panic!("calling non-function"),
                    }
                }
                // `t` is now `(b -> unit) -> unit` in CPS view or `b`
                // pre-CPS; normalize to the base answer.
                match t {
                    SimpleTy::Fun(b, _) => match *b {
                        SimpleTy::Fun(ans, _) => *ans,
                        b => b,
                    },
                    b => b,
                }
            }
            Expr::Let(x, r, body) => {
                let xt = self.rhs_ty(r, env);
                let mut env2 = env.clone();
                env2.insert(x.clone(), xt);
                self.rhs_ty(body, &env2)
            }
            Expr::Choice(l, _) => self.rhs_ty(l, env),
            Expr::Assume(_, e) => self.rhs_ty(e, env),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elaborate::elaborate;
    use crate::parser::parse;
    use crate::types::infer;

    fn cps_of(src: &str) -> Program {
        let tp = infer(&parse(src).expect("parses")).expect("types");
        let p = elaborate(&tp).expect("elaborates");
        p.check().expect("pre-CPS kernel type-checks");
        let q = cps_transform(&p);
        q.check().expect("post-CPS kernel type-checks");
        q
    }

    #[test]
    fn cps_type_translation() {
        // int -> (int -> int) -> bool
        let t = SimpleTy::fun(
            SimpleTy::Int,
            SimpleTy::fun(SimpleTy::fun(SimpleTy::Int, SimpleTy::Int), SimpleTy::Bool),
        );
        let c = cps_ty(&t);
        // int -> (int -> (int -> unit) -> unit) -> (bool -> unit) -> unit
        let inner = SimpleTy::fun(
            SimpleTy::Int,
            SimpleTy::fun(SimpleTy::fun(SimpleTy::Int, SimpleTy::Unit), SimpleTy::Unit),
        );
        let expected = SimpleTy::fun(
            SimpleTy::Int,
            SimpleTy::fun(
                inner,
                SimpleTy::fun(
                    SimpleTy::fun(SimpleTy::Bool, SimpleTy::Unit),
                    SimpleTy::Unit,
                ),
            ),
        );
        assert_eq!(c, expected);
    }

    #[test]
    fn cps_output_is_normal() {
        let q = cps_of(
            "let f x g = g (x + 1) in
             let h y = assert (y > 0) in
             let k n = if n > 0 then f n h else () in
             k rand_int",
        );
        assert!(q.is_cps_normal(), "not in CPS normal form:\n{q}");
    }

    #[test]
    fn non_tail_calls_get_lifted_continuations() {
        let q =
            cps_of("let rec sum n = if n <= 0 then 0 else n + sum (n - 1) in assert (m <= sum m)");
        assert!(q.is_cps_normal(), "not normal:\n{q}");
        // sum's recursive call is non-tail, so a continuation must be lifted.
        assert!(
            q.defs.iter().any(|d| d.name.0.starts_with("k__")),
            "expected a lifted continuation:\n{q}"
        );
    }

    #[test]
    fn entry_point_is_closed_wrapper() {
        let q = cps_of("assert (n > 0)");
        assert_eq!(q.main.0, "__top");
        assert_eq!(q.main_def().params.len(), 1, "one unknown");
    }

    #[test]
    fn higher_order_programs_survive() {
        let q = cps_of(
            "let max2 x y = if x >= y then x else y in
             let max m2 x y z = m2 (m2 x y) z in
             let m = max max2 x y z in
             assert (max2 x m = m)",
        );
        assert!(q.is_cps_normal(), "not normal:\n{q}");
    }
}
