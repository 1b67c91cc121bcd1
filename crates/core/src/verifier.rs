//! The CEGAR verification loop — the paper's Figure 1.
//!
//! ```text
//!  program ──(1) predicate abstraction──▶ boolean program
//!     ▲                                        │ (2) higher-order model checking
//!     │ (4) refine abstraction types           ▼
//!  new predicates ◀──(4) SHP + interpolation── error path ──(3) feasibility
//!     (spurious)                                   │ (feasible)
//!                                                  ▼
//!                                   SAFE ◀── no path      UNSAFE + witness
//! ```
//!
//! # Resource model
//!
//! Every phase of the loop runs under a shared [`Budget`]: a wall-clock
//! deadline, an optional fuel cap, and a deterministic fault-injection plan
//! ([`FaultPlan`], driven by `homc --inject`). Exhaustion in any phase
//! surfaces as [`Verdict::Unknown`] with a structured
//! [`UnknownReason::Budget`] — never a panic, never a hang. Panics escaping
//! a phase (including injected ones) are caught per CEGAR iteration and
//! reported as [`UnknownReason::InternalFault`]. A run makes one attempt:
//! every limit is a cap, and the first one hit decides the `Unknown`.

use std::any::Any;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use homc_abs::{
    abstract_program_incremental, abstract_program_with_oracle, AbsEnv, AbsError, AbsOptions,
    AbsStats, AbsTy, TransitionMemo,
};
use homc_budget::{PerPhase, TIMED};
use homc_cegar::{
    build_trace_budgeted, refine_env_traced, seed_env, Feasibility, RefineError, RefineOptions,
    Refinement, TraceEnd, TraceError,
};
use homc_hbp::check::{CheckError, CheckLimits, CheckStats, Checker};
use homc_hbp::{find_error_path, source_labels, BProgram, Bits, FunName, Typing};
use homc_lang::eval::Label;
use homc_lang::manifest::Manifest;
use homc_lang::{frontend, Compiled};
use homc_metrics::{counter_table, mem, Agg, Counter, Counts, Hist, Metrics, Surface, COUNTERS};
use homc_serve::{
    trap_panics, Artifact, ArtifactStore, Evidence, EvidenceStore, EvidenceVerdict,
    ProvenanceRecord, SafeEvidence,
};
use homc_smt::{
    prove_unsat, Budget, BudgetError, CacheStats, FaultPlan, LimitKind, Phase, QueryCache,
    SmtSolver, UnsatProof,
};
use homc_smt::{Formula, Var};
use homc_trace::Tracer;

use crate::evcheck::check_evidence;

/// Where the verifier persists and looks up cross-run abstraction
/// artifacts (the warm-edit re-verification path).
#[derive(Clone, Debug)]
pub struct ArtifactConfig {
    /// Directory of the artifact store (created on demand).
    pub dir: PathBuf,
    /// Stable identity of the program across edits — its file path or suite
    /// entry name, not its content. Resubmitting an *edited* program under
    /// the same key is exactly what enables the diff-and-seed path.
    pub key: String,
}

/// Where (and for which program identity) the verifier exports verdict
/// evidence — the certificates `homc check` re-validates and `homc explain`
/// narrates.
#[derive(Clone, Debug)]
pub struct EvidenceConfig {
    /// Directory of the evidence store. `None` builds the evidence in
    /// memory only (it is still returned on [`VerifyOutcome::evidence`],
    /// which is all `homc explain` needs).
    pub dir: Option<PathBuf>,
    /// Program identity stamped into the evidence header and used as the
    /// store key (file path or suite entry name).
    pub key: String,
    /// FNV-1a hash of the source text, pinning the evidence to the exact
    /// program content it certifies.
    pub source_hash: u64,
}

/// Options controlling the verifier.
#[derive(Clone, Debug)]
pub struct VerifierOptions {
    /// Maximum number of CEGAR iterations before giving up.
    pub max_iterations: usize,
    /// Predicate abstraction options.
    pub abs: AbsOptions,
    /// Model checker limits.
    pub check: CheckLimits,
    /// Refinement options.
    pub refine: RefineOptions,
    /// Fuel for symbolic replay of error paths.
    pub trace_fuel: u64,
    /// Wall-clock deadline for the whole run (all phases combined).
    pub timeout: Option<Duration>,
    /// Cap on total budget checkpoints across all phases.
    pub fuel: Option<u64>,
    /// Deterministic fault-injection plan (testing/robustness harness).
    pub faults: FaultPlan,
    /// Structured-trace sink. The default ([`Tracer::disabled`]) is a no-op
    /// handle: no events are formatted, no timestamps taken. When enabled,
    /// every pipeline phase emits span/iteration/fault events; under a
    /// *logical* clock the event stream is byte-deterministic, because a
    /// job runs on one thread.
    pub tracer: Tracer,
    /// Metrics registry. The default ([`Metrics::disabled`]) is a no-op
    /// handle, like the tracer. When enabled, the pipeline records typed
    /// counters and latency/size histograms (SMT solves, abstraction
    /// definitions, interpolant sizes, worklist depths, iteration times);
    /// the registry never writes into the trace stream, so traces are
    /// byte-identical with metrics on or off.
    pub metrics: Metrics,
    /// Pre-built query cache to verify against (the batch driver passes a
    /// per-job cache with the shared disk tier attached). `None` — the default —
    /// creates a fresh cache per run. Stats report the run's *delta* over
    /// the cache's starting counters, so a warm cache never double-counts.
    pub cache: Option<Arc<QueryCache>>,
    /// Live progress sink, distinct from [`tracer`](Self::tracer): phase
    /// *starts* emit `job_phase` events here so a fleet renderer can show
    /// what each worker is doing right now. Keeping the sink separate is
    /// what makes logical job traces byte-identical with progress on or
    /// off. Disabled by default.
    pub progress: Tracer,
    /// Job index stamped onto progress events (0 for single runs).
    pub job: u64,
    /// Cross-run artifact store: when set, the run loads the prior artifact
    /// for [`ArtifactConfig::key`], diffs definition manifests, seeds the
    /// predicate environment and transition memo for unchanged dependency
    /// cones, and publishes a fresh artifact on a decisive verdict.
    /// Everything seeded is a *candidate* (predicates narrow the search,
    /// memo entries are fingerprint-revalidated), so this accelerates
    /// re-verification without being able to change a verdict. `None` — the
    /// default — runs cold.
    pub artifacts: Option<ArtifactConfig>,
    /// Verdict-evidence export: when set, a decisive verdict additionally
    /// produces an [`Evidence`] certificate — for Safe, the final predicate
    /// environment, the saturated invariant, and refutation proofs for the
    /// UNSAT abstraction queries it depends on (gathered by a post-verdict
    /// replay pass); for Unsafe, the concrete witness and path. The
    /// evidence is returned on the outcome and, when
    /// [`EvidenceConfig::dir`] is set, published to the evidence store.
    /// Producing evidence re-poses abstraction queries against the warm
    /// query cache; it never changes the verdict. `None` — the default —
    /// exports nothing.
    pub evidence: Option<EvidenceConfig>,
}

impl Default for VerifierOptions {
    fn default() -> VerifierOptions {
        VerifierOptions {
            max_iterations: 40,
            abs: AbsOptions::default(),
            check: CheckLimits::default(),
            refine: RefineOptions::default(),
            trace_fuel: 800_000,
            timeout: None,
            fuel: None,
            faults: FaultPlan::none(),
            tracer: Tracer::disabled(),
            metrics: Metrics::disabled(),
            cache: None,
            progress: Tracer::disabled(),
            job: 0,
            artifacts: None,
            evidence: None,
        }
    }
}

/// The verification verdict.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The program never reaches `fail`, for any unknown integers and any
    /// non-deterministic choices.
    Safe,
    /// The program can fail; the witness gives values for the unknown
    /// integers and the branch labels of a concrete failing run.
    Unsafe {
        /// Values of `main`'s unknown integers.
        witness: Vec<i64>,
        /// Labels of the failing path (source-level `⊓` choices).
        path: Vec<Label>,
    },
    /// The verifier gave up.
    Unknown {
        /// Why.
        reason: UnknownReason,
    },
}

impl Verdict {
    /// `true` for [`Verdict::Safe`].
    pub fn is_safe(&self) -> bool {
        matches!(self, Verdict::Safe)
    }

    /// `true` for [`Verdict::Unsafe`].
    pub fn is_unsafe(&self) -> bool {
        matches!(self, Verdict::Unsafe { .. })
    }
}

/// Why the verifier reported [`Verdict::Unknown`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UnknownReason {
    /// The CEGAR iteration budget was exhausted (the paper's `apply`
    /// behaviour: ever-more-specific abstraction types, no convergence).
    IterationsExhausted,
    /// Refinement found no new predicate for a spurious path.
    NoProgress,
    /// A resource budget ran out: the phase that stopped and which limit
    /// (deadline, fuel, steps, size, or an injected fault).
    Budget(BudgetError),
    /// The abstract error path did not replay to `fail` in the source
    /// program (abstraction/label mismatch).
    ReplayMismatch(String),
    /// A solver returned an inconclusive answer (e.g. non-linear
    /// arithmetic was over-approximated on a candidate counterexample).
    Inconclusive,
    /// A phase panicked (bug or injected fault); the loop caught it and
    /// degraded to `Unknown` instead of aborting.
    InternalFault(String),
}

impl fmt::Display for UnknownReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnknownReason::IterationsExhausted => write!(f, "iteration limit reached"),
            UnknownReason::NoProgress => write!(f, "refinement made no progress"),
            UnknownReason::Budget(e) => write!(f, "budget exhausted in {e}"),
            UnknownReason::ReplayMismatch(msg) => write!(f, "replay mismatch: {msg}"),
            UnknownReason::Inconclusive => write!(f, "solver was inconclusive"),
            UnknownReason::InternalFault(msg) => write!(f, "internal fault: {msg}"),
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Safe => write!(f, "safe"),
            Verdict::Unsafe { witness, .. } => write!(f, "unsafe (witness {witness:?})"),
            Verdict::Unknown { reason } => write!(f, "unknown ({reason})"),
        }
    }
}

/// Declares [`VerifyStats`] with one field per run counter of the counter
/// table ([`homc_metrics::counter_table!`]), and [`absorb`], which reads a
/// phase result's counters by the table's source column.
macro_rules! verify_stats {
    (
        registry { $($registry:tt)* }
        run { $(
            $v:ident $name:ident : $ty:ty = $agg:ident $(($src:ident . $($field:tt)+))?
                [$($surface:ident),*] $help:literal;
        )* }
    ) => {
        /// Per-phase timing and effort statistics (the columns of the
        /// paper's Table 1), then one field per run counter of the counter
        /// table.
        #[derive(Clone, Debug, Default)]
        pub struct VerifyStats {
            /// CEGAR cycles (the paper's column C).
            pub cycles: usize,
            /// Time in each timed phase of the phase table
            /// ([`homc_budget::phase_table!`]); the paper's `abst`, `mc` and
            /// `cegar` columns are sums of these ([`PerPhase::columns`]).
            pub time: PerPhase<Duration>,
            /// Total wall-clock time (column `total`): every phase plus the
            /// bookkeeping between them.
            pub total: Duration,
            /// Total predicates in the final abstraction-type environment.
            pub predicates: usize,
            /// Size of the final boolean program (AST nodes).
            pub final_hbp_size: usize,
            /// Peak live heap bytes over the run. The peaks read the
            /// counting allocator and are 0 when none is installed (the
            /// `homc` and `table1` binaries install it; tests do not).
            pub peak_bytes: u64,
            /// Peak live heap bytes while each timed phase allocated.
            pub peak: PerPhase<u64>,
            /// FNV-1a digest of the exported evidence (0 when evidence was
            /// not requested or the verdict was not decisive).
            pub evidence_digest: u64,
            $( #[doc = $help] pub $name: $ty, )*
        }

        impl VerifyStats {
            /// The run counters as one record, indexed by [`Counter`].
            pub fn counts(&self) -> Counts {
                let mut c = Counts::default();
                $( c.set(Counter::$v, self.$name as u64); )*
                c
            }

            fn set_counts(&mut self, c: &Counts) {
                $( self.$name = c.get(Counter::$v) as $ty; )*
            }
        }

        /// Adds the counters a phase result carries (an [`AbsStats`],
        /// [`CheckStats`], [`Refinement`] or [`CacheStats`] delta) to `rec`.
        fn absorb(rec: &mut Counts, result: &dyn Any) {
            $( $( if let Some(r) = result.downcast_ref::<$src>() {
                rec.add(Counter::$v, r.$($field)+ as u64);
            } )? )*
        }
    };
}

counter_table!(verify_stats);

/// The result of a verification run.
#[derive(Clone, Debug)]
pub struct VerifyOutcome {
    /// The verdict.
    pub verdict: Verdict,
    /// Statistics.
    pub stats: VerifyStats,
    /// The paper's size metric S (source word count).
    pub size: usize,
    /// The paper's order metric O.
    pub order: usize,
    /// The verdict evidence, when [`VerifierOptions::evidence`] was set and
    /// the verdict was decisive (`None` otherwise — `Unknown` has nothing
    /// to certify).
    pub evidence: Option<Evidence>,
}

/// A hard error (malformed input, internal invariant failure).
#[derive(Clone, Debug)]
pub struct VerifyError(pub String);

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "verification error: {}", self.0)
    }
}

impl std::error::Error for VerifyError {}

/// Verifies a source program (front end + CEGAR loop).
pub fn verify(src: &str, opts: &VerifierOptions) -> Result<VerifyOutcome, VerifyError> {
    let compiled = frontend(src).map_err(|e| VerifyError(e.to_string()))?;
    verify_compiled(&compiled, opts)
}

/// What one CEGAR iteration decided.
enum IterOutcome {
    /// Verdict reached; stop.
    Done(Verdict),
    /// Environment refined; run another iteration.
    Continue,
}

/// Per-iteration telemetry scratch, filled as `run_iteration` progresses so
/// partial data survives a mid-phase panic (it is written *before* each
/// phase's fallible step, behind the `trap_panics` boundary).
#[derive(Default)]
struct IterRecord {
    /// Boolean-program rule count (top-level definitions).
    hbp_rules: usize,
    /// Boolean-program size (AST nodes).
    hbp_terms: usize,
    /// Intersection typings derived by saturation.
    typings: usize,
    /// Counterexample length (source-level labels), 0 when none was found.
    cex_len: usize,
    /// Predicates discovered by interpolation this iteration.
    new_interp: usize,
    /// Predicates seeded from path conditions this iteration.
    new_seeded: usize,
    /// Higher-order position updates this iteration.
    new_ho: usize,
    /// Largest interpolant (formula nodes) solved this iteration.
    interp_size_max: usize,
    /// This iteration's run counters.
    counts: Counts,
}

/// The model checker's final state at a Safe verdict — the pieces the
/// evidence layer serializes as the abstract reachability invariant.
struct SafeInvariant {
    gamma: Vec<(FunName, BTreeSet<Typing>)>,
    base_flow: BTreeMap<(FunName, usize), BTreeSet<Bits>>,
}

/// Counts scheme and `rand_int`-site predicate components of `env` whose
/// tuple slot no definition of `bp` ever `Proj`ects. The used-set is the
/// union over all definitions (wrapper definitions read captured variables
/// on the original names), so a shared parameter name can only make a dead
/// predicate look live — never the reverse. Components under higher-order
/// positions are skipped (counted live): their reads are indirect.
fn dead_predicates(env: &AbsEnv, bp: &BProgram) -> u64 {
    let mut used: BTreeSet<(Var, usize)> = BTreeSet::new();
    for projs in bp.projections().into_values() {
        used.extend(projs);
    }
    let mut dead = 0u64;
    for scheme in env.schemes.values() {
        for (x, ty) in scheme {
            if let AbsTy::Base(_, ps) = ty {
                for i in 0..ps.len() {
                    if !used.contains(&(x.clone(), i)) {
                        dead += 1;
                    }
                }
            }
        }
    }
    for (x, ps) in &env.rand_sites {
        for i in 0..ps.len() {
            if !used.contains(&(x.clone(), i)) {
                dead += 1;
            }
        }
    }
    dead
}

/// Predicate count of one abstraction type (recursing into arrow chains).
fn preds_in_ty(t: &AbsTy) -> usize {
    match t {
        AbsTy::Base(_, ps) => ps.len(),
        AbsTy::Fun(_, a, b) => preds_in_ty(a) + preds_in_ty(b),
    }
}

/// Predicates per abstraction-type binding: one entry per function scheme
/// (plus `rand:`-prefixed `rand_int` sites), zero-count bindings omitted.
/// `BTreeMap` iteration order makes the listing deterministic.
fn preds_by_binding(env: &AbsEnv) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for (f, scheme) in &env.schemes {
        let n: usize = scheme.iter().map(|(_, t)| preds_in_ty(t)).sum();
        if n > 0 {
            out.push((f.0.clone(), n as u64));
        }
    }
    for (site, ps) in &env.rand_sites {
        if !ps.is_empty() {
            out.push((format!("rand:{site}"), ps.len() as u64));
        }
    }
    out
}

/// The trace tag for an iteration's outcome.
fn outcome_tag(outcome: &Result<IterOutcome, String>) -> &'static str {
    match outcome {
        Ok(IterOutcome::Continue) => "refined",
        Ok(IterOutcome::Done(Verdict::Safe)) => "safe",
        Ok(IterOutcome::Done(Verdict::Unsafe { .. })) => "unsafe",
        Ok(IterOutcome::Done(Verdict::Unknown { reason })) => match reason {
            UnknownReason::IterationsExhausted => "iterations",
            UnknownReason::NoProgress => "no-progress",
            UnknownReason::Budget(_) => "budget",
            UnknownReason::ReplayMismatch(_) => "replay-mismatch",
            UnknownReason::Inconclusive => "inconclusive",
            UnknownReason::InternalFault(_) => "fault",
        },
        Err(_) => "panic",
    }
}

/// Emits a `fault` event when the iteration ended on an *injected* fault —
/// a budget error with [`LimitKind::Injected`] (kind `error`) or a trapped
/// panic whose message carries the injection marker (kind `panic`).
fn emit_injected_fault(tracer: &Tracer, outcome: &Result<IterOutcome, String>) {
    match outcome {
        Ok(IterOutcome::Done(Verdict::Unknown {
            reason: UnknownReason::Budget(e),
        })) if e.limit == LimitKind::Injected => {
            tracer.emit("fault", |ev| {
                ev.str("phase", e.phase.name())
                    .str("kind", "error")
                    .str("detail", &e.detail);
            });
        }
        Err(msg) if msg.contains("injected fault") => {
            // "injected fault: panic at {phase} checkpoint {n}"
            let phase = msg
                .split(" at ")
                .nth(1)
                .and_then(|s| s.split_whitespace().next())
                .unwrap_or("?");
            tracer.emit("fault", |ev| {
                ev.str("phase", phase)
                    .str("kind", "panic")
                    .str("detail", msg);
            });
        }
        _ => {}
    }
}

/// Verifies an already-compiled program.
pub fn verify_compiled(
    compiled: &Compiled,
    opts: &VerifierOptions,
) -> Result<VerifyOutcome, VerifyError> {
    let start = Instant::now();
    let mut stats = VerifyStats::default();
    let budget = Arc::new(Budget::new(opts.timeout, opts.fuel, opts.faults.clone()));
    // One query cache for the whole run: abstraction entailments recur
    // across CEGAR iterations, and interpolation cubes recur across cut
    // points, so the cache is shared by every solver and never reset
    // between iterations.
    // The batch driver passes a pre-seeded cache; counters are reported as
    // deltas over its starting snapshot.
    let cache = opts
        .cache
        .clone()
        .unwrap_or_else(|| Arc::new(QueryCache::new()));
    let cache_start = cache.stats();
    let tracer = opts.tracer.clone();
    let metrics = opts.metrics.clone();
    // The memory-accounting windows are per run: the global and per-phase
    // watermarks restart from the current live count (all zero when no
    // counting allocator is installed).
    mem::reset_run();
    let solver = SmtSolver::with_budget(budget.clone())
        .with_cache(cache.clone())
        .with_tracer(tracer.clone())
        .with_metrics(metrics.clone());
    let mut env = AbsEnv::initial(&compiled.cps);
    // The per-definition transition memo survives the whole run: entries
    // are keyed by cone fingerprint, so they stay valid across iterations
    // (the program and name scheme never change within a run).
    let mut memo = TransitionMemo::new();
    // Cross-run warm start, the first half of the `artifact` phase: load
    // the prior artifact for this key (if any), diff per-definition
    // manifests, and seed the predicate environment and transition memo
    // for the unchanged dependency cones. A corrupt
    // artifact is quarantined by the store and the run degrades to a cold
    // start — seeding can speed the run up but never change its verdict
    // (see DESIGN.md §"Cross-run incremental verification" for the
    // soundness argument). The seeding counters are credited to the first
    // iteration's record. The stores are left without the registry: the
    // run counter `artifact_quarantine` reaches it when the run ends.
    let mut seeded = Counts::default();
    let mut run = Counts::default();
    let artifact = opts.artifacts.as_ref().map(|cfg| {
        timed(opts, &mut stats.time, Phase::Artifact, 0, || {
            let manifest = Manifest::of(&compiled.cps);
            let store = ArtifactStore::new(&cfg.dir);
            // An unreadable store directory cold-starts silently; the
            // publish at the end of the run surfaces persistent I/O problems.
            if let Ok(load) = store.load(&cfg.key) {
                seeded.add(Counter::ArtifactQuarantine, u64::from(load.quarantined));
                if let Some(prior) = load.artifact {
                    let unchanged = prior.manifest.unchanged_defs(&manifest);
                    let preds = seed_env(&mut env, &prior.env, &compiled.cps, &unchanged);
                    seeded.add(Counter::ReverifyPredsSeeded, preds as u64);
                    let ndefs = compiled.cps.defs.len();
                    let main_unchanged = unchanged.contains(&compiled.cps.main);
                    for entry in prior.memo {
                        let replay = if entry.index < ndefs {
                            unchanged.contains(&entry.name)
                        } else {
                            // The entry wrapper's cone is {main}.
                            main_unchanged
                        };
                        if replay && memo.seed_entry(&compiled.cps, entry) {
                            seeded.add(Counter::ReverifyDefsSkipped, 1);
                        }
                    }
                }
            }
            (store, manifest)
        })
    });
    // Evidence accumulators, filled where the facts are produced: predicate
    // provenance as refinement installs predicates, and — at a Safe verdict
    // — the model checker's saturated invariant. The export pass after the
    // loop is then pure assembly plus the proof-recording replay.
    let mut provenance: Vec<ProvenanceRecord> = Vec::new();
    let mut safe_inv: Option<SafeInvariant> = None;
    let mut verdict = Verdict::Unknown {
        reason: UnknownReason::IterationsExhausted,
    };
    for iteration in 0..opts.max_iterations {
        // One record per CEGAR iteration, even for exhausted/faulted
        // iterations: snapshot the monotone counters, run the iteration
        // (partial telemetry survives a panic via `IterRecord`), then
        // emit the deltas.
        stats.cycles = iteration + 1;
        let iter_start = Instant::now();
        mem::window_reset();
        let cache0 = cache.stats();
        let fuel0 = budget.fuel_used();
        let mut rec = IterRecord::default();
        if iteration == 0 {
            // Cross-run seeding happened once, before the loop; credit
            // it to the first iteration's record so the trace carries it.
            rec.counts = seeded;
        }
        let outcome = trap_panics(|| {
            run_iteration(
                compiled,
                opts,
                iteration,
                &budget,
                &solver,
                &mut env,
                &mut stats,
                &tracer,
                &mut rec,
                &mut memo,
                &mut provenance,
                &mut safe_inv,
            )
        });
        let cache_delta = cache.stats().delta(&cache0);
        absorb(&mut rec.counts, &cache_delta);
        run.fold(&rec.counts);
        metrics.observe_dur(Hist::IterUs, iter_start);
        metrics.observe(Hist::HbpRules, rec.hbp_rules as u64);
        metrics.observe(Hist::HbpTerms, rec.hbp_terms as u64);
        if tracer.enabled() {
            emit_injected_fault(&tracer, &outcome);
            let tag = outcome_tag(&outcome);
            let by_fun = preds_by_binding(&env);
            // Read before the event is stamped, like a phase's span.
            let dur_us = tracer.dur_us(iter_start);
            tracer.emit("iter", |e| {
                e.num("iter", iteration as u64)
                    .str("outcome", tag)
                    .num("preds", env.fingerprint() as u64)
                    .map_num("preds_by_fun", by_fun.iter().map(|(k, v)| (k.as_str(), *v)))
                    .num("hbp_rules", rec.hbp_rules as u64)
                    .num("hbp_terms", rec.hbp_terms as u64)
                    .num("typings", rec.typings as u64)
                    .num("pops", rec.counts.get(Counter::WorklistPops))
                    .num("rescans", rec.counts.get(Counter::RescansAvoided))
                    .num("cex_len", rec.cex_len as u64)
                    .num("new_interp", rec.new_interp as u64)
                    .num("new_seeded", rec.new_seeded as u64)
                    .num("new_ho", rec.new_ho as u64)
                    .num("interp_size_max", rec.interp_size_max as u64)
                    .num("fuel", budget.fuel_used() - fuel0)
                    .num("dur_us", dur_us);
                for (c, v) in rec.counts.on(Surface::Iter) {
                    e.num(c.name(), v);
                }
                // Heap watermarks are wall-like — they shift with argv
                // length and ambient allocator state — so the logical
                // clock omits them the same way it zeroes durations.
                if mem::installed() && !tracer.is_logical() {
                    e.num("peak_bytes", mem::window_peak());
                }
            });
        }
        match outcome {
            Ok(IterOutcome::Continue) => {}
            Ok(IterOutcome::Done(v)) => {
                verdict = v;
                break;
            }
            Err(message) => {
                verdict = Verdict::Unknown {
                    reason: UnknownReason::InternalFault(message),
                };
                break;
            }
        }
    }

    // The phases after the loop are stamped with its last iteration.
    let last = stats.cycles.saturating_sub(1);
    // Verdict-evidence export, the `evidence` phase. For Safe, re-derive
    // the boolean program from the winning environment under a *recording*
    // oracle: every UNSAT answer gets a self-contained refutation tree,
    // deduplicated by canonical formula. The replay solver shares the run's
    // query cache — so this is mostly cache hits — but carries no budget: a
    // deadline expiring just after the verdict must not be able to truncate
    // the proof table. The trees themselves come from an uncached search of
    // the canonical query, so they (and the digest) do not depend on cache
    // history. Evidence can fail to materialize; it can never change the
    // verdict.
    let cycles = stats.cycles as u64;
    let digest = &mut stats.evidence_digest;
    let evidence = opts.evidence.as_ref().and_then(|cfg| {
        timed(opts, &mut stats.time, Phase::Evidence, last, || {
            let ev_verdict = match &verdict {
                Verdict::Safe => safe_inv.take().and_then(|inv| {
                    // Fresh unlimited budget: the cache demands a checkpoint
                    // before every guarded lookup, and the run's own budget
                    // must not be able to truncate the proof table.
                    let ebudget = Arc::new(Budget::new(None, None, FaultPlan::none()));
                    let esolver = SmtSolver::with_budget(ebudget).with_cache(cache.clone());
                    let proofs: RefCell<BTreeMap<Formula, Option<UnsatProof>>> =
                        RefCell::new(BTreeMap::new());
                    let record = |f: &Formula| -> Result<bool, AbsError> {
                        let sat = esolver.maybe_sat(f);
                        if !sat {
                            let canon = f.canon();
                            proofs
                                .borrow_mut()
                                .entry(canon.clone())
                                .or_insert_with(|| prove_unsat(&canon));
                        }
                        Ok(sat)
                    };
                    abstract_program_with_oracle(&compiled.cps, &env, &opts.abs, &record).ok()?;
                    let mut proved = Vec::new();
                    let mut unproved = 0u64;
                    for (f, proof) in proofs.into_inner() {
                        match proof {
                            Some(p) => proved.push((f, p)),
                            None => unproved += 1,
                        }
                    }
                    Some(EvidenceVerdict::Safe(Box::new(SafeEvidence {
                        env: env.clone(),
                        gamma: inv.gamma,
                        base_flow: inv.base_flow,
                        proofs: proved,
                        unproved,
                    })))
                }),
                Verdict::Unsafe { witness, path } => Some(EvidenceVerdict::Unsafe {
                    witness: witness.clone(),
                    path: path.clone(),
                }),
                Verdict::Unknown { .. } => None,
            };
            let ev = Evidence {
                program: cfg.key.clone(),
                source_hash: cfg.source_hash,
                iterations: cycles,
                provenance: std::mem::take(&mut provenance),
                verdict: ev_verdict?,
            };
            metrics.incr(Counter::EvidenceEmitted);
            // Publish failures are non-fatal: the evidence still rides on
            // the outcome, and the verdict stands either way. A publish
            // returns the digest of the bytes it rendered.
            let published = cfg
                .dir
                .as_ref()
                .and_then(|dir| EvidenceStore::new(dir).publish(&cfg.key, &ev).ok());
            *digest = published.map_or_else(|| ev.digest(), |(_, d)| d);
            Some(ev)
        })
    });
    // Publish the artifact for the *next* run, the second half of the
    // `artifact` phase, but only on a decisive verdict: an `Unknown`
    // environment is mid-refinement noise, and persisting it could keep a
    // bad seed alive across edits. Artifacts carry no interpolants: no
    // engine reads them back. Publish failures are non-fatal — the verdict
    // stands either way.
    if let (Some((store, manifest)), Some(cfg)) = (artifact, &opts.artifacts) {
        if matches!(verdict, Verdict::Safe | Verdict::Unsafe { .. }) {
            timed(opts, &mut stats.time, Phase::Artifact, last, || {
                let artifact = Artifact {
                    manifest,
                    env: env.clone(),
                    memo: memo.export_entries(&compiled.cps),
                    interp: Vec::new(),
                };
                let _ = store.publish(&cfg.key, &artifact);
            });
        }
    }
    stats.total = start.elapsed();
    stats.predicates = env.fingerprint();
    stats.peak_bytes = mem::peak_bytes();
    for p in TIMED {
        stats.peak[p] = mem::phase_peak(p);
    }
    let cache_delta = cache.stats().delta(&cache_start);
    absorb(&mut run, &cache_delta);
    stats.set_counts(&run);
    // The registry takes its copy of each run counter from the run's value:
    // one counting path per quantity.
    for c in COUNTERS.into_iter().filter(|c| c.agg() != Agg::Registry) {
        metrics.add(c, run.get(c));
    }
    tracer.emit("verdict", |e| {
        let tag = match &verdict {
            Verdict::Safe => "safe",
            Verdict::Unsafe { .. } => "unsafe",
            Verdict::Unknown { .. } => "unknown",
        };
        e.str("verdict", tag).num("cycles", stats.cycles as u64);
    });
    tracer.flush();
    Ok(VerifyOutcome {
        verdict,
        stats,
        size: compiled.size,
        order: compiled.order,
        evidence,
    })
}

/// The phase table's guard: runs `f` as one timed phase of iteration
/// `iter`. It announces the phase on the progress sink (`job_phase`, so a
/// fleet renderer sees what a worker is doing while the phase runs), tags
/// the phase's allocations for memory accounting, adds its duration to
/// `time`, and emits its `span` on the job trace. A panic escaping `f`
/// skips the duration and the span, like any other work the panic cut.
fn timed<R>(
    opts: &VerifierOptions,
    time: &mut PerPhase<Duration>,
    phase: Phase,
    iter: usize,
    f: impl FnOnce() -> R,
) -> R {
    opts.progress.emit("job_phase", |e| {
        e.num("job", opts.job)
            .num("iter", iter as u64)
            .str("phase", phase.name());
    });
    let started = Instant::now();
    let out = {
        let _tag = mem::phase_scope(phase);
        f()
    };
    time[phase] += started.elapsed();
    // The duration is read before the event is stamped, so the profiler's
    // interval `[ts - dur_us, ts]` never starts before the phase did.
    let dur_us = opts.tracer.dur_us(started);
    opts.tracer.emit("span", |e| {
        e.str("phase", phase.name())
            .num("iter", iter as u64)
            .num("dur_us", dur_us);
    });
    out
}

/// The certificate self-check: hands the evidence a finished run of `src`
/// exported to the independent checker ([`check_evidence`]) and answers
/// whether it passed, or `None` when the run exported none. The check runs
/// as the run's `check` phase, under the same guard as its own phases,
/// stamped with its last iteration; its time joins the run's `total`, and
/// its allocations the run's peaks. `run_batch` checks every job's
/// certificate through it.
pub fn self_check(src: &str, opts: &VerifierOptions, out: &mut VerifyOutcome) -> Option<bool> {
    let ev = out.evidence.as_ref()?;
    let stats = &mut out.stats;
    let started = Instant::now();
    let last = stats.cycles.saturating_sub(1);
    let ok = timed(opts, &mut stats.time, Phase::Check, last, || {
        check_evidence(src, ev, &opts.metrics).is_ok()
    });
    stats.total += started.elapsed();
    stats.peak_bytes = mem::peak_bytes();
    stats.peak[Phase::Check] = mem::phase_peak(Phase::Check);
    Some(ok)
}

/// One CEGAR iteration: abstract, model-check, and — when an abstract error
/// path exists — check feasibility and refine. Each step runs under the
/// phase guard ([`timed`]); per-iteration counters go into `rec` as soon as
/// they are known so they survive a later phase's panic.
#[allow(clippy::too_many_arguments)]
fn run_iteration(
    compiled: &Compiled,
    opts: &VerifierOptions,
    iteration: usize,
    budget: &Arc<Budget>,
    solver: &SmtSolver,
    env: &mut AbsEnv,
    stats: &mut VerifyStats,
    tracer: &Tracer,
    rec: &mut IterRecord,
    memo: &mut TransitionMemo,
    prov: &mut Vec<ProvenanceRecord>,
    safe_inv: &mut Option<SafeInvariant>,
) -> IterOutcome {
    let unknown = |reason: UnknownReason| IterOutcome::Done(Verdict::Unknown { reason });

    // Step 1: predicate abstraction (against the run-wide cache), then the
    // census of the boolean program it built.
    let abs_result = timed(opts, &mut stats.time, Phase::Abs, iteration, || {
        let (bp, abs_stats) = abstract_program_incremental(
            &compiled.cps,
            env,
            &opts.abs,
            Some(budget.clone()),
            solver.cache().cloned(),
            tracer,
            solver.metrics(),
            memo,
        )?;
        absorb(&mut rec.counts, &abs_stats);
        rec.hbp_rules = bp.defs.len();
        rec.hbp_terms = bp.size();
        // Dead-predicate census for this iteration's abstraction; the run
        // keeps the *final* iteration's value (the census of the winning
        // environment against the winning boolean program).
        rec.counts
            .set(Counter::PredsDead, dead_predicates(env, &bp));
        Ok(bp)
    });
    let bp = match abs_result {
        Ok(bp) => bp,
        Err(AbsError::Exhausted(e)) => return unknown(UnknownReason::Budget(e)),
        Err(AbsError::Invalid(msg)) => {
            return unknown(UnknownReason::InternalFault(format!("abstraction: {msg}")))
        }
    };
    stats.final_hbp_size = rec.hbp_terms;

    // Step 2: higher-order model checking. On a Safe exit under evidence
    // export, the checker's saturated typing table and base-flow facts are
    // kept: they are the abstract reachability invariant the evidence layer
    // serializes.
    let mc = timed(opts, &mut stats.time, Phase::Mc, iteration, || {
        let mut checker = Checker::with_budget(&bp, opts.check, budget)?;
        checker.set_tracer(tracer.clone());
        checker.set_metrics(solver.metrics().clone());
        let saturated = checker.saturate();
        let cs = checker.stats();
        absorb(&mut rec.counts, &cs);
        rec.typings = cs.typings;
        saturated?;
        let path = if checker.may_fail() {
            find_error_path(&mut checker)?
        } else {
            None
        };
        if path.is_none() && opts.evidence.is_some() {
            *safe_inv = Some(SafeInvariant {
                gamma: checker
                    .gamma()
                    .iter()
                    .map(|(f, ts)| (f.clone(), ts.clone()))
                    .collect(),
                base_flow: checker.base_flow().clone(),
            });
        }
        Ok(path)
    });
    let path = match mc {
        Ok(None) => return IterOutcome::Done(Verdict::Safe),
        Ok(Some(p)) => p,
        Err(CheckError::Budget(e)) => return unknown(UnknownReason::Budget(e)),
        Err(e) => return unknown(UnknownReason::InternalFault(format!("model checking: {e}"))),
    };

    // Step 3: replay the abstract error path (feasibility's trace build).
    let (labels, trace) = timed(opts, &mut stats.time, Phase::Feas, iteration, || {
        let labels = source_labels(&path);
        rec.cex_len = labels.len();
        let trace = build_trace_budgeted(&compiled.cps, &labels, opts.trace_fuel, budget);
        (labels, trace)
    });
    let trace = match trace {
        Ok(tr) => tr,
        Err(TraceError::Exhausted(b)) => return unknown(UnknownReason::Budget(b)),
        Err(TraceError::Invalid(msg)) => {
            return unknown(UnknownReason::InternalFault(format!("trace: {msg}")))
        }
    };
    if trace.end == TraceEnd::OutOfFuel {
        return unknown(UnknownReason::Budget(BudgetError::with_detail(
            Phase::Feas,
            LimitKind::Fuel,
            format!("trace replay ran out of fuel ({} steps)", opts.trace_fuel),
        )));
    }
    if trace.end != TraceEnd::ReachedFail {
        return unknown(UnknownReason::ReplayMismatch(format!(
            "abstract path did not replay to fail: {:?}",
            trace.end
        )));
    }

    // Step 4: feasibility verdict + interpolation-driven refinement.
    let refine_opts = RefineOptions {
        iteration,
        ..opts.refine
    };
    let refined = timed(opts, &mut stats.time, Phase::Interp, iteration, || {
        refine_env_traced(
            &compiled.cps,
            &trace,
            env,
            solver,
            &refine_opts,
            budget,
            tracer,
        )
    });
    match refined {
        Ok((Feasibility::Feasible(witness), _, _)) => IterOutcome::Done(Verdict::Unsafe {
            witness,
            path: labels,
        }),
        Ok((Feasibility::Unknown, _, _)) => unknown(UnknownReason::Inconclusive),
        Ok((Feasibility::Exhausted(e), _, _)) => unknown(UnknownReason::Budget(e)),
        Ok((Feasibility::Infeasible, changed, refinement)) => {
            // Provenance is worth keeping only when evidence is requested;
            // the records are strings, so skip the copies otherwise.
            if opts.evidence.is_some() {
                prov.extend(refinement.provenance.iter().map(|p| ProvenanceRecord {
                    iteration: (iteration + 1) as u64,
                    target: p.target.clone(),
                    cut: p.cut as u64,
                    source: p.source.as_str().to_string(),
                    pred: p.pred.clone(),
                }));
            }
            rec.new_interp = refinement.interpolated;
            rec.new_seeded = refinement.seeded;
            rec.new_ho = refinement.ho_updates.len();
            rec.interp_size_max = refinement.max_interp_size;
            absorb(&mut rec.counts, &refinement);
            if !changed {
                unknown(UnknownReason::NoProgress)
            } else {
                IterOutcome::Continue
            }
        }
        Err(RefineError::Exhausted(e)) => unknown(UnknownReason::Budget(e)),
        Err(RefineError::Invalid(msg)) => {
            unknown(UnknownReason::InternalFault(format!("refinement: {msg}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verify_src(src: &str) -> Verdict {
        verify(src, &VerifierOptions::default())
            .expect("no hard error")
            .verdict
    }

    #[test]
    fn intro1_safe() {
        let v = verify_src(
            "let f x g = g (x + 1) in
             let h y = assert (y > 0) in
             let k n = if n > 0 then f n h else () in
             k m",
        );
        assert_eq!(v, Verdict::Safe);
    }

    #[test]
    fn simple_unsafe_with_witness() {
        let v = verify_src("assert (n > 0)");
        match v {
            Verdict::Unsafe { witness, .. } => assert!(witness[0] <= 0),
            other => panic!("expected Unsafe, got {other}"),
        }
    }

    #[test]
    fn intro2_safe() {
        // M2: the ≥-variant needs different predicates per position.
        let v = verify_src(
            "let f x g = g (x + 1) in
             let h y = assert (y > 0) in
             let k n = if n >= 0 then f n h else () in
             k m",
        );
        assert_eq!(v, Verdict::Safe);
    }

    #[test]
    fn intro3_safe() {
        // M3: needs dependent abstraction types.
        let v = verify_src(
            "let f x g = g (x + 1) in
             let h z y = assert (y > z) in
             let k n = if n >= 0 then f n (h n) else () in
             k m",
        );
        assert_eq!(v, Verdict::Safe);
    }

    #[test]
    fn cycles_counted() {
        let out = verify(
            "let f x g = g (x + 1) in
             let h y = assert (y > 0) in
             let k n = if n > 0 then f n h else () in
             k m",
            &VerifierOptions::default(),
        )
        .expect("runs");
        assert!(out.stats.cycles >= 1, "CEGAR must iterate at least once");
        assert_eq!(out.order, 2);
    }

    #[test]
    fn retryable_exhaustion_ends_the_run() {
        // A step cap too tight for intro1's first model check decides the
        // run: one iteration, an `Unknown` naming the cap, no second attempt.
        let tracer = Tracer::memory(true);
        let opts = VerifierOptions {
            check: CheckLimits {
                max_search_steps: 1,
                ..CheckLimits::default()
            },
            tracer: tracer.clone(),
            ..VerifierOptions::default()
        };
        let out = verify(
            "let f x g = g (x + 1) in
             let h y = assert (y > 0) in
             let k n = if n > 0 then f n h else () in
             k m",
            &opts,
        )
        .expect("runs");
        match out.verdict {
            Verdict::Unknown {
                reason: UnknownReason::Budget(e),
            } => assert_eq!(e.limit, LimitKind::Steps, "{e}"),
            other => panic!("unexpected verdict {other}"),
        }
        let trace = tracer.snapshot().expect("memory sink");
        assert_eq!(trace.matches("\"ev\":\"iter\"").count(), 1, "{trace}");
    }

    #[test]
    fn an_undecided_path_is_not_refined() {
        // `x * x` is over-approximated, so a model of the path condition
        // does not certify a failure and feasibility is undecided. The run
        // ends inconclusive without learning predicates from that path, and
        // without reaching an `interp` checkpoint a fault could fire at.
        let src = "let f x = if x > 0 then assert (x * x > 0) else () in f n";
        let inconclusive = Verdict::Unknown {
            reason: UnknownReason::Inconclusive,
        };
        let out = verify(src, &VerifierOptions::default()).expect("runs");
        assert_eq!(out.verdict, inconclusive);
        assert_eq!(out.stats.predicates, 0);
        let opts = VerifierOptions {
            faults: FaultPlan::one(Phase::Interp, 1, homc_smt::FaultKind::Error),
            ..VerifierOptions::default()
        };
        let out = verify(src, &opts).expect("runs");
        assert_eq!(out.verdict, inconclusive);
    }
}

#[cfg(test)]
mod gen_p_tests {
    use super::*;
    use homc_cegar::RefineOptions;

    /// §5.3's relative-completeness device: with interpolation-based
    /// discovery disabled entirely, the blind enumeration alone must still
    /// eventually verify M1 (the needed predicate ν > 0 appears at a finite
    /// index).
    #[test]
    fn gen_p_enumeration_alone_verifies_m1() {
        let opts = VerifierOptions {
            max_iterations: 60,
            refine: RefineOptions {
                seed_from_path: false,
                enumerate_gen_p: true,
                iteration: 0,
            },
            ..VerifierOptions::default()
        };
        let v = verify(
            "let f x g = g (x + 1) in
             let h y = assert (y > 0) in
             let k n = if n > 0 then f n h else () in
             k m",
            &opts,
        )
        .expect("runs")
        .verdict;
        assert_eq!(v, Verdict::Safe);
    }
}
