//! `homc-smt`: linear integer arithmetic solving and interpolation.
//!
//! This crate is the decision-procedure substrate of the `homc` verifier,
//! standing in for the two external provers used by Kobayashi, Sato & Unno
//! (PLDI 2011, "Predicate Abstraction and CEGAR for Higher-Order Model
//! Checking"):
//!
//! * **CVC3** — validity/satisfiability of quantifier-free linear integer
//!   arithmetic, used for computing abstract transitions (rule A-CADD) and
//!   for counterexample feasibility checking. See [`SmtSolver`].
//! * **CSIsat** — Craig interpolation, used to solve the acyclic constraint
//!   systems extracted from straightline higher-order programs during CEGAR.
//!   See [`interpolate`].
//!
//! The engine is Fourier–Motzkin elimination with Farkas certificates plus
//! branch & bound for integer completeness — everything built from scratch on
//! exact `i128` rationals.
//!
//! # Example
//!
//! ```
//! use homc_smt::{Atom, Formula, LinExpr, SmtSolver, interpolate};
//!
//! let n = || LinExpr::var("n");
//! // The infeasible path condition of the paper's §1 example:
//! // n > 0 (from the branch) and n + 1 <= 0 (from the failing assertion).
//! let branch = Formula::atom(Atom::gt(n(), LinExpr::constant(0)));
//! let fail = Formula::atom(Atom::le(n() + LinExpr::constant(1), LinExpr::constant(0)));
//!
//! let solver = SmtSolver::new();
//! assert!(!solver.maybe_sat(&Formula::and2(branch.clone(), fail.clone())));
//!
//! // CEGAR learns a predicate separating the two:
//! let learned = interpolate(&branch, &fail).expect("path is infeasible");
//! assert!(solver.entails(&branch, &learned));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod fm;
mod formula;
mod interp;
mod linexpr;
mod proof;
mod rat;
mod solver;

pub use cache::{CacheStats, CacheTier, CachedRat, CachedSat, CubeSat, InterpKey, QueryCache};
pub use fm::{
    check_certificate, int_sat, rational_sat, rational_sat_cached, ArithRefutation, FarkasCert,
    IntResult, RatResult,
};
pub use formula::{Formula, Literal};
pub use homc_budget::{Budget, BudgetError, FaultKind, FaultPlan, LimitKind, Phase};
pub use interp::{
    cube_consistency, cube_literals, interpolate, interpolate_sequence, interpolate_with,
    is_interpolant, InterpError, InterpOptions,
};
pub use linexpr::{Atom, LinExpr, Rel, Var};
pub use proof::{prove_unsat, verify_unsat, ProofNode, UnsatProof};
pub use rat::{gcd, Rat};
pub use solver::{Model, SatResult, SmtSolver, SolverLimits, SolverOutcome};
