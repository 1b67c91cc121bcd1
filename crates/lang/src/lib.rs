//! `homc-lang`: the source language of the `homc` verifier.
//!
//! This crate implements the front half of the pipeline of Kobayashi, Sato &
//! Unno, *Predicate Abstraction and CEGAR for Higher-Order Model Checking*
//! (PLDI 2011):
//!
//! * a tiny OCaml-like **surface language** (§6) with booleans, integers,
//!   `let rec`, higher-order functions, `assert`, and unknown integers;
//! * the **kernel language** of §2 — call-by-value, with non-deterministic
//!   choice `e₁ ⊓ e₂`, `assume`, `fail`, and partial applications as values;
//! * **elaboration** (α-renaming, λ-lifting, A-normalization, the `if`
//!   desugaring of §2) and the **CPS transformation** the paper applies
//!   before verification (§6, footnote 8);
//! * a labelled **reference interpreter** (Figure 2).
//!
//! The CEGAR feasibility check (§5.1) replays an abstract error path
//! symbolically in `homc-cegar` (`build_trace_budgeted`), not here.
//!
//! # Example
//!
//! ```
//! use homc_lang::{frontend, eval::{run, ScriptDriver, Label}};
//!
//! // The paper's §1 example M1 — safe: the assertion never fails.
//! let program = frontend(
//!     "let f x g = g (x + 1) in
//!      let h y = assert (y > 0) in
//!      let k n = if n > 0 then f n h else () in
//!      k m",
//! ).expect("compiles");
//!
//! // Concretely execute one schedule: n = 3, both `if`s take their
//! // then-branches.
//! let mut driver = ScriptDriver::new(vec![Label::Zero, Label::Zero], vec![3]);
//! let (outcome, _trace) = run(&program.cps, &mut driver, 10_000);
//! assert!(!outcome.is_fail());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod cps;
pub mod elaborate;
pub mod eval;
pub mod kernel;
pub mod lexer;
pub mod manifest;
pub mod parser;
pub mod types;

use std::fmt;

/// A fully front-ended program: source metrics plus the pre- and post-CPS
/// kernels.
#[derive(Clone, Debug)]
pub struct Compiled {
    /// The paper's size metric S (word count of the surface program).
    pub size: usize,
    /// The paper's order metric O (largest function order, pre-CPS).
    pub order: usize,
    /// The elaborated kernel program (direct style).
    pub direct: kernel::Program,
    /// The CPS-transformed kernel program — the verification subject.
    pub cps: kernel::Program,
}

/// Errors from any stage of the front end.
#[derive(Clone, Debug)]
pub enum FrontendError {
    /// Lexing/parsing failed.
    Parse(lexer::ParseError),
    /// Simple-type inference failed.
    Type(types::TypeError),
    /// Elaboration failed.
    Elab(elaborate::ElabError),
    /// An internal invariant was violated (kernel re-check failed).
    Internal(String),
}

impl fmt::Display for FrontendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrontendError::Parse(e) => write!(f, "{e}"),
            FrontendError::Type(e) => write!(f, "{e}"),
            FrontendError::Elab(e) => write!(f, "{e}"),
            FrontendError::Internal(e) => write!(f, "internal error: {e}"),
        }
    }
}

impl std::error::Error for FrontendError {}

/// Runs the whole front end on a source string: parse, infer, elaborate,
/// η-expand, CPS-transform, and re-check every intermediate program.
pub fn frontend(src: &str) -> Result<Compiled, FrontendError> {
    let ast = parser::parse(src).map_err(FrontendError::Parse)?;
    let size = ast.word_count();
    let typed = types::infer(&ast).map_err(FrontendError::Type)?;
    let direct = elaborate::elaborate(&typed).map_err(FrontendError::Elab)?;
    direct
        .check()
        .map_err(|e| FrontendError::Internal(format!("pre-CPS kernel: {e}")))?;
    let order = direct.order();
    let cps = cps::cps_transform(&direct);
    cps.check()
        .map_err(|e| FrontendError::Internal(format!("post-CPS kernel: {e}")))?;
    if !cps.is_cps_normal() {
        return Err(FrontendError::Internal(
            "CPS output is not in normal form".into(),
        ));
    }
    Ok(Compiled {
        size,
        order,
        direct,
        cps,
    })
}
