//! `homc-hbp`: higher-order boolean programs and their model checker.
//!
//! This crate implements §3 of Kobayashi, Sato & Unno, *Predicate
//! Abstraction and CEGAR for Higher-Order Model Checking* (PLDI 2011): the
//! target language of predicate abstraction — simply-typed, call-by-value,
//! higher-order programs whose only data are tuples of booleans — and a
//! decision procedure for the reachability property `main ⇒* fail`
//! (Theorem 3.1), playing the role of the TRECS model checker in the
//! paper's pipeline.
//!
//! The checker is an intersection-type saturation (HorSat-style least
//! fixpoint for the complement property "may reach `fail`") guided by a 0CFA
//! flow analysis; see [`check`]. Counterexamples come out as labelled paths
//! — `0`/`1` for source-level non-determinism `⊓` and `ε` for
//! abstraction-introduced non-determinism `⊕` — exactly the label alphabet
//! of the paper's §3, ready for the CEGAR feasibility check; see [`path`].
//!
//! # Example
//!
//! ```
//! use homc_hbp::ast::*;
//! use homc_hbp::check::{Checker, CheckLimits};
//! use homc_hbp::path::find_error_path;
//! use homc_smt::Var;
//!
//! // main = let b = ⟨true⟩ ⊕ ⟨false⟩ in assume b.0; fail
//! let b = Var::new("b");
//! let program = BProgram {
//!     defs: vec![BDef {
//!         name: "main".into(),
//!         params: vec![],
//!         body: BExpr::let_(
//!             b.clone(),
//!             BExpr::achoice(
//!                 BExpr::Value(BVal::Tuple(vec![BoolExpr::TRUE])),
//!                 BExpr::Value(BVal::Tuple(vec![BoolExpr::FALSE])),
//!             ),
//!             BExpr::assume(BoolExpr::Proj(b, 0), BExpr::Fail),
//!         ),
//!     }],
//!     main: "main".into(),
//! };
//!
//! let mut checker = Checker::new(&program, CheckLimits::default()).unwrap();
//! checker.saturate().unwrap();
//! assert!(checker.may_fail());
//! let path = find_error_path(&mut checker).unwrap().unwrap();
//! assert!(path.iter().any(|l| matches!(l, PathLabel::Eps(false))));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod check;
pub mod flow;
pub mod path;

pub use ast::{
    source_labels, BDef, BExpr, BProgram, BTy, BVal, BoolExpr, FunName, Label, PathLabel,
};
pub use check::{
    model_check, ArgReq, ArrowTy, Bits, CheckError, CheckLimits, CheckStats, Checker, Gamma, Typing,
};
pub use path::find_error_path;
