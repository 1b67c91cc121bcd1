//! `homc-abs`: predicate abstraction for higher-order programs.
//!
//! This crate implements §4 of Kobayashi, Sato & Unno, *Predicate
//! Abstraction and CEGAR for Higher-Order Model Checking* (PLDI 2011):
//! dependent **abstraction types** (`int[P̃]`, `x:σ₁ → σ₂` — Figure 3) and
//! the type-directed transformation `Γ ⊢ e : σ ⇝ e'` (Figure 4) turning a
//! source program over infinite data into a higher-order *boolean* program
//! whose safety implies the source's (Theorem 4.3).
//!
//! # Example
//!
//! The paper's §1 program M1 abstracted with the empty abstraction-type
//! environment is too coarse — the model checker finds a (spurious) failure,
//! which is exactly what kicks off the CEGAR loop:
//!
//! ```
//! use homc_abs::{abstract_program, AbsEnv, AbsOptions};
//! use homc_hbp::check::{model_check, CheckLimits};
//! use homc_lang::frontend;
//!
//! let compiled = frontend(
//!     "let f x g = g (x + 1) in
//!      let h y = assert (y > 0) in
//!      let k n = if n > 0 then f n h else () in
//!      k m",
//! ).expect("compiles");
//!
//! let env = AbsEnv::initial(&compiled.cps);
//! let (bp, _) = abstract_program(&compiled.cps, &env, &AbsOptions::default()).unwrap();
//! let (fails, _) = model_check(&bp, CheckLimits::default()).unwrap();
//! assert!(fails, "empty abstraction must be too coarse for M1");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abstract_prog;
pub mod incremental;
pub mod types;

pub use abstract_prog::{
    abstract_program, abstract_program_with_oracle, AbsError, AbsOptions, AbsStats, SatOracleDyn,
};
pub use incremental::{abstract_program_incremental, MemoDefExport, TransitionMemo};
pub use types::{AbsEnv, AbsTy, Predicate};
