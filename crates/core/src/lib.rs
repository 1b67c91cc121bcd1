//! `homc` — predicate abstraction and CEGAR for higher-order model checking.
//!
//! A from-scratch reproduction of Kobayashi, Sato & Unno, *Predicate
//! Abstraction and CEGAR for Higher-Order Model Checking* (PLDI 2011) — the
//! system that became the MoCHi verifier. It automatically verifies
//! reachability (assertion-safety) properties of simply-typed higher-order
//! functional programs over unbounded integers.
//!
//! The pipeline (the paper's Figure 1):
//!
//! 1. **Predicate abstraction** ([`homc_abs`]): the source program is
//!    abstracted, under per-function *abstraction types*, into a
//!    higher-order *boolean* program.
//! 2. **Higher-order model checking** ([`homc_hbp`]): reachability of
//!    `fail` in the boolean program is decided exactly (Theorem 3.1).
//! 3. **Feasibility** ([`homc_cegar`]): an abstract error path is replayed
//!    symbolically against the source; satisfiable path conditions are real
//!    bugs (with witnesses), unsatisfiable ones are spurious.
//! 4. **Refinement** ([`homc_cegar`]): from the straightline program of the
//!    spurious path, new predicates are discovered by Craig interpolation
//!    ([`homc_smt`]) and merged into the abstraction types; the loop
//!    repeats.
//!
//! # Quickstart
//!
//! ```
//! use homc::{verify, VerifierOptions, Verdict};
//!
//! // The paper's §1 example: safe for every unknown integer m.
//! let program = "
//!     let f x g = g (x + 1) in
//!     let h y = assert (y > 0) in
//!     let k n = if n > 0 then f n h else () in
//!     k m";
//! let outcome = verify(program, &VerifierOptions::default()).unwrap();
//! assert_eq!(outcome.verdict, Verdict::Safe);
//!
//! // A genuinely buggy program is rejected with a witness.
//! let outcome = verify("assert (n > 0)", &VerifierOptions::default()).unwrap();
//! assert!(outcome.verdict.is_unsafe());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod evcheck;
pub mod fleet;
pub mod suite;
pub mod verifier;

pub use batch::{
    render_batch_json, run_batch, BatchJob, BatchOptions, BatchReport, JobFault, JobFaultKind,
    JobReport, JobStatus, BATCH_SCHEMA,
};
pub use evcheck::{check_evidence, render_explain, EvidenceCheck};
pub use fleet::{ledger_record, progress_complete, render_top, stats_counters};
pub use homc_budget::{
    columns, shown, Budget, BudgetError, Fault, FaultKind, FaultPlan, FaultSpecError, LimitKind,
    PerPhase, Phase, LOOP, TIMED,
};
pub use homc_metrics::{
    diff::{bench_diff, parse_threshold, trace_diff, DiffOptions, DiffReport, Threshold},
    profile::{fold_trace, validate_folded, Profile},
    Agg, Counter, Counts, Hist, Metrics, Snapshot, Surface, COUNTERS,
};
pub use homc_serve::{
    parse_evidence_bytes, Evidence, EvidenceLoad, EvidenceStore, EvidenceVerdict, ProvenanceRecord,
    SafeEvidence,
};
pub use homc_serve::{
    regress, render_history, seed_cache, DiskCache, DiskFault, Ledger, LedgerLoad, LoadReport,
    PublishReport, RunRecord, TrendOptions, RECORD_SCHEMA,
};
pub use homc_serve::{Artifact, ArtifactLoad, ArtifactStore};
pub use homc_smt::QueryCache;
pub use homc_trace::{
    escape_json, parse_json, render_report, stable_hash64, validate_line, validate_trace,
    JsonValue, SchemaError, Tracer,
};
pub use suite::{Expected, SuiteProgram, SUITE};
pub use verifier::{
    self_check, verify, verify_compiled, ArtifactConfig, EvidenceConfig, UnknownReason, Verdict,
    VerifierOptions, VerifyError, VerifyOutcome, VerifyStats,
};
