//! The traced run's copy of one submission.
//!
//! The benchmark drives the CEGAR loop itself, calling each layer's public
//! functions in the order `homc::verify_compiled` calls them, and wraps
//! every call in a span. Counts come from the calls' return values. The
//! copy must stay faithful: the traced run compares its verdict, cycle
//! count and evidence digest with the untraced call of the same input and
//! fails on any difference.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::Arc;

use homc::{check_evidence, seed_cache, DiskCache, UnknownReason, Verdict, VerifierOptions};
use homc_abs::{
    abstract_program_incremental, abstract_program_with_oracle, AbsEnv, AbsError, AbsOptions,
    TransitionMemo,
};
use homc_cegar::{
    build_trace_budgeted, check_feasibility, discover_predicates_metered, seed_env, Feasibility,
    RefineError, RefineOptions, TraceEnd, TraceError,
};
use homc_hbp::check::{CheckError, CheckLimits, Checker};
use homc_hbp::{find_error_path, source_labels, Bits, FunName, Typing};
use homc_lang::kernel::Program;
use homc_lang::manifest::Manifest;
use homc_metrics::Metrics;
use homc_serve::{
    Artifact, ArtifactStore, Evidence, EvidenceStore, EvidenceVerdict, ProvenanceRecord,
    SafeEvidence,
};
use homc_smt::{
    prove_unsat, Budget, BudgetError, FaultPlan, Formula, LimitKind, Phase, QueryCache, SmtSolver,
    UnsatProof,
};
use homc_trace::{stable_hash64, Tracer};

use crate::spans::Spans;

/// Per-layer counts, summed over submissions.
pub type Counts = BTreeMap<&'static str, f64>;

fn add(counts: &mut Counts, name: &'static str, v: f64) {
    *counts.entry(name).or_insert(0.0) += v;
}

/// Which user flow the submission follows, with its store directory.
pub enum Flow<'a> {
    /// `homc prog.ml`.
    Cold,
    /// `homc --evidence-dir D prog.ml`, then `homc check`.
    Certify(&'a Path),
    /// `homc --artifacts-dir D prog.ml`.
    Resubmit(&'a Path),
    /// `homc batch --workers 1 --cache-dir D prog`.
    Warm(&'a Path),
}

/// What the replay decided.
pub struct Replayed {
    /// The verdict.
    pub verdict: Verdict,
    /// CEGAR cycles of the final attempt, as `VerifyStats::cycles` counts.
    pub cycles: usize,
    /// Digest of the rebuilt certificate (0 when none was built).
    pub evidence_digest: u64,
    /// `Some(false)` when the stored certificate failed `check_evidence`.
    pub check_ok: Option<bool>,
}

/// The model checker's saturated state at a Safe verdict.
type Invariant = (
    Vec<(FunName, BTreeSet<Typing>)>,
    BTreeMap<(FunName, usize), BTreeSet<Bits>>,
);

/// State threaded through the CEGAR loop.
struct Loop<'a> {
    cps: &'a Program,
    spans: &'a Spans,
    counts: &'a mut Counts,
    budget: Arc<Budget>,
    cache: Arc<QueryCache>,
    solver: SmtSolver,
    abs_opts: AbsOptions,
    env: AbsEnv,
    memo: TransitionMemo,
    /// Keep provenance and the Safe invariant (evidence was requested).
    evidence: bool,
    provenance: Vec<ProvenanceRecord>,
    invariant: Option<Invariant>,
}

enum Step {
    Done(Verdict),
    Continue,
}

fn unknown(reason: UnknownReason) -> Step {
    Step::Done(Verdict::Unknown { reason })
}

/// Replays one submission of `src` under program key `key`.
pub fn replay(
    key: &str,
    src: &str,
    flow: &Flow,
    spans: &Spans,
    counts: &mut Counts,
) -> Result<Replayed, String> {
    let compiled = spans
        .span("lang.frontend", || homc_lang::frontend(src))
        .map_err(|e| format!("verification error: {e}"))?;
    let cps = &compiled.cps;

    // Warm: load the disk tier and seed a private cache, as `run_batch`
    // does for each job.
    let disk = match flow {
        Flow::Warm(dir) => {
            let disk = DiskCache::new(*dir);
            let (records, load) = spans
                .span("serve.disk_load", || disk.load())
                .map_err(|e| format!("disk cache load: {e}"))?;
            add(counts, "serve.quarantined", load.quarantined as f64);
            Some((disk, records))
        }
        _ => None,
    };
    let cache = Arc::new(QueryCache::new());
    if let Some((_, records)) = &disk {
        spans.span("serve.disk_seed", || seed_cache(&cache, records));
        add(counts, "serve.disk_records_seeded", records.len() as f64);
    }
    let cache_start = cache.stats();
    let defaults = VerifierOptions::default();
    let budget = Arc::new(Budget::new(None, None, FaultPlan::none()));
    let mut lp = Loop {
        cps,
        spans,
        counts,
        solver: SmtSolver::with_budget(budget.clone()).with_cache(cache.clone()),
        budget,
        cache,
        abs_opts: defaults.abs.clone(),
        env: AbsEnv::initial(cps),
        memo: TransitionMemo::new(),
        evidence: matches!(flow, Flow::Certify(_)),
        provenance: Vec::new(),
        invariant: None,
    };

    // Resubmit: diff the manifest against the prior artifact and seed the
    // environment, the transition memo and the interpolant cache.
    let mut prior_interp = Vec::new();
    let artifacts = match flow {
        Flow::Resubmit(dir) => {
            let store = ArtifactStore::new(*dir);
            let load = spans.span("serve.artifact_load", || store.load(key));
            let manifest = spans.span("core.seed", || Manifest::of(cps));
            if let Ok(load) = load {
                add(
                    lp.counts,
                    "serve.quarantined",
                    f64::from(u8::from(load.quarantined)),
                );
                if let Some(prior) = load.artifact {
                    spans.span("core.seed", || {
                        let unchanged = prior.manifest.unchanged_defs(&manifest);
                        seed_env(&mut lp.env, &prior.env, cps, &unchanged);
                        let main_unchanged = unchanged.contains(&cps.main);
                        for entry in prior.memo {
                            let replay = if entry.index < cps.defs.len() {
                                unchanged.contains(&entry.name)
                            } else {
                                main_unchanged
                            };
                            if replay {
                                lp.memo.seed_entry(cps, entry);
                            }
                        }
                        for (k, v) in prior.interp {
                            lp.cache.store_interp_seeded(k.clone(), v.clone());
                            prior_interp.push((k, v));
                        }
                    });
                }
            }
            Some((store, manifest))
        }
        _ => None,
    };

    let (verdict, cycles) = lp.run(&defaults);

    // Certify: rebuild the certificate, publish it, load it back, check it.
    let mut evidence_digest = 0;
    let mut check_ok = None;
    if let Flow::Certify(dir) = flow {
        if let Some(ev) = lp.export_evidence(key, src, &verdict, cycles) {
            let store = EvidenceStore::new(*dir);
            let published = spans.span("serve.evidence_publish", || {
                evidence_digest = ev.digest();
                store.publish(key, &ev)
            });
            if let Ok((path, _)) = published {
                let bytes = std::fs::metadata(path).map_or(0, |m| m.len());
                add(lp.counts, "serve.evidence_bytes", bytes as f64);
            }
            let load = spans.span("serve.evidence_load", || store.load(key));
            let loaded = match load {
                Ok(load) => {
                    add(
                        lp.counts,
                        "serve.quarantined",
                        f64::from(u8::from(load.quarantined)),
                    );
                    load.evidence
                }
                Err(_) => None,
            };
            let ok = loaded.is_some_and(|ev| {
                spans
                    .span("evcheck.check", || {
                        check_evidence(src, &ev, &Metrics::disabled())
                    })
                    .is_ok()
            });
            add(lp.counts, "evcheck.rejected", f64::from(u8::from(!ok)));
            check_ok = Some(ok);
        }
    }

    // Resubmit: publish the artifact for the next edit, on a decisive
    // verdict only.
    if let Some((store, manifest)) = artifacts {
        if matches!(verdict, Verdict::Safe | Verdict::Unsafe { .. }) {
            let published = spans.span("serve.artifact_publish", || {
                let mut interp = prior_interp;
                interp.extend(lp.cache.export_new_interp());
                let artifact = Artifact {
                    manifest,
                    env: lp.env.clone(),
                    memo: lp.memo.export_entries(cps),
                    interp,
                };
                store.publish(key, &artifact)
            });
            if let Ok(path) = published {
                let bytes = std::fs::metadata(path).map_or(0, |m| m.len());
                add(lp.counts, "serve.artifact_bytes", bytes as f64);
            }
        }
    }

    let cs = lp.cache.stats().delta(&cache_start);
    add(lp.counts, "smt.queries", cs.lookups() as f64);
    add(lp.counts, "smt.hits", cs.hits() as f64);
    add(lp.counts, "serve.disk_hits", cs.disk_hits as f64);
    add(lp.counts, "core.cycles", cycles as f64);

    // Warm: publish the job's new entries as one segment, as `run_batch`
    // does after the fleet drains.
    if let Some((disk, records)) = disk {
        let published = spans.span("serve.disk_publish", || {
            let union = QueryCache::new();
            spans.span("serve.disk_seed", || seed_cache(&union, &records));
            for (k, v) in lp.cache.export_new_check() {
                union.store_check(k, v);
            }
            for (k, v) in lp.cache.export_new_cubes() {
                union.store_cube(k, v);
            }
            disk.publish(&union)
        });
        add(lp.counts, "serve.disk_records_seeded", records.len() as f64);
        // Freeing the job's state, mostly the seeded cache, and the loaded
        // records is the other half of seeding's cost; `run_batch` pays it
        // when the batch ends.
        spans.span("serve.disk_seed", move || drop((lp, records)));
        published.map_err(|e| format!("disk cache publish: {e}"))?;
    }

    Ok(Replayed {
        verdict,
        cycles,
        evidence_digest,
        check_ok,
    })
}

impl Loop<'_> {
    /// The attempts loop of `verify_compiled`, including its single retry
    /// with limits scaled by four after a retryable budget exhaustion.
    fn run(&mut self, defaults: &VerifierOptions) -> (Verdict, usize) {
        let mut limits = defaults.check;
        let mut trace_fuel = defaults.trace_fuel;
        let mut retried = false;
        loop {
            let mut verdict = Verdict::Unknown {
                reason: UnknownReason::IterationsExhausted,
            };
            let mut cycles = 0;
            for iteration in 0..defaults.max_iterations {
                cycles = iteration + 1;
                if let Step::Done(v) = self.iterate(defaults, limits, trace_fuel, iteration) {
                    verdict = v;
                    break;
                }
            }
            match &verdict {
                Verdict::Unknown {
                    reason: UnknownReason::Budget(e),
                } if !retried && e.retryable() => {
                    retried = true;
                    escalate(&mut limits, &mut trace_fuel);
                }
                _ => return (verdict, cycles),
            }
        }
    }

    /// One CEGAR iteration: abstract, model-check, and on an abstract error
    /// path build the trace, check feasibility and refine.
    fn iterate(
        &mut self,
        defaults: &VerifierOptions,
        limits: CheckLimits,
        trace_fuel: u64,
        iteration: usize,
    ) -> Step {
        let spans = self.spans;
        let cps = self.cps;
        let abs = spans.span("abs.abstract", || {
            abstract_program_incremental(
                cps,
                &self.env,
                &self.abs_opts,
                Some(self.budget.clone()),
                Some(self.cache.clone()),
                &Tracer::disabled(),
                &Metrics::disabled(),
                &mut self.memo,
            )
        });
        add(self.counts, "abs.calls", 1.0);
        let bp = match abs {
            Ok((bp, st)) => {
                add(self.counts, "abs.smt_queries", st.sat_queries as f64);
                add(self.counts, "abs.defs_reused", st.defs_reused as f64);
                add(self.counts, "abs.defs_rebuilt", st.defs_rebuilt as f64);
                add(self.counts, "abs.hbp_nodes", bp.size() as f64);
                bp
            }
            Err(AbsError::Exhausted(e)) => return unknown(UnknownReason::Budget(e)),
            Err(AbsError::Invalid(msg)) => {
                return unknown(UnknownReason::InternalFault(format!("abstraction: {msg}")))
            }
        };

        let budget = &*self.budget;
        let saturated = spans.span("hbp.saturate", || {
            let mut checker = Checker::with_budget(&bp, limits, budget)?;
            checker.saturate()?;
            Ok::<_, CheckError>(checker)
        });
        let mut checker = match saturated {
            Ok(c) => c,
            Err(CheckError::Budget(e)) => return unknown(UnknownReason::Budget(e)),
            Err(e) => return unknown(UnknownReason::InternalFault(format!("model checking: {e}"))),
        };
        let cs = checker.stats();
        add(self.counts, "hbp.typings", cs.typings as f64);
        add(self.counts, "hbp.worklist_pops", cs.worklist_pops as f64);
        let evidence = self.evidence;
        let invariant = &mut self.invariant;
        let found = spans.span("hbp.path", || {
            let found = if checker.may_fail() {
                find_error_path(&mut checker)?
            } else {
                None
            };
            if found.is_none() && evidence {
                let gamma = checker
                    .gamma()
                    .iter()
                    .map(|(f, ts)| (f.clone(), ts.clone()))
                    .collect();
                *invariant = Some((gamma, checker.base_flow().clone()));
            }
            Ok::<_, CheckError>(found)
        });
        let path = match found {
            Ok(Some(p)) => p,
            Ok(None) => return Step::Done(Verdict::Safe),
            Err(CheckError::Budget(e)) => return unknown(UnknownReason::Budget(e)),
            Err(e) => return unknown(UnknownReason::InternalFault(format!("model checking: {e}"))),
        };

        let traced = spans.span("cegar.trace", || {
            let labels = source_labels(&path);
            build_trace_budgeted(cps, &labels, trace_fuel, budget).map(|t| (labels, t))
        });
        let (labels, trace) = match traced {
            Ok(lt) => lt,
            Err(TraceError::Exhausted(b)) => return unknown(UnknownReason::Budget(b)),
            Err(TraceError::Invalid(msg)) => {
                return unknown(UnknownReason::InternalFault(format!("trace: {msg}")))
            }
        };
        if trace.end == TraceEnd::OutOfFuel {
            return unknown(UnknownReason::Budget(BudgetError::with_detail(
                Phase::Feas,
                LimitKind::Fuel,
                format!("trace replay ran out of fuel ({trace_fuel} steps)"),
            )));
        }
        if trace.end != TraceEnd::ReachedFail {
            return unknown(UnknownReason::ReplayMismatch(format!(
                "abstract path did not replay to fail: {:?}",
                trace.end
            )));
        }

        let feas = spans.span("cegar.feas", || check_feasibility(&trace, &self.solver));
        match feas {
            Feasibility::Feasible(witness) => {
                return Step::Done(Verdict::Unsafe {
                    witness,
                    path: labels,
                })
            }
            Feasibility::Exhausted(e) => return unknown(UnknownReason::Budget(e)),
            Feasibility::Infeasible | Feasibility::Unknown => {}
        }
        let refine_opts = RefineOptions {
            iteration,
            ..defaults.refine
        };
        let before = self.env.fingerprint();
        let env = &mut self.env;
        let cache = &*self.cache;
        let refined = spans.span("cegar.interp", || {
            let r = discover_predicates_metered(
                cps,
                &trace,
                &refine_opts,
                budget,
                Some(cache),
                &Tracer::disabled(),
                &Metrics::disabled(),
            )?;
            let mut changed = env.refine(&r.fun_updates, &r.rand_updates);
            for u in &r.ho_updates {
                changed |= env.apply_ho_update(&u.def, &u.param, u.chain_pos, &u.pred);
            }
            Ok::<_, RefineError>((r, changed))
        });
        let (refinement, changed) = match refined {
            Ok(rc) => rc,
            Err(RefineError::Exhausted(e)) => return unknown(UnknownReason::Budget(e)),
            Err(RefineError::Invalid(msg)) => {
                return unknown(UnknownReason::InternalFault(format!("refinement: {msg}")))
            }
        };
        if matches!(feas, Feasibility::Unknown) {
            return unknown(UnknownReason::Inconclusive);
        }
        add(
            self.counts,
            "cegar.preds_added",
            (self.env.fingerprint() - before) as f64,
        );
        add(
            self.counts,
            "cegar.cuts_sliced",
            refinement.cuts_sliced as f64,
        );
        if self.evidence {
            self.provenance
                .extend(refinement.provenance.iter().map(|p| ProvenanceRecord {
                    iteration: (iteration + 1) as u64,
                    target: p.target.clone(),
                    cut: p.cut as u64,
                    source: p.source.as_str().to_string(),
                    pred: p.pred.clone(),
                }));
        }
        if changed {
            Step::Continue
        } else {
            unknown(UnknownReason::NoProgress)
        }
    }

    /// Builds the certificate `verify` exports: for Safe, the boolean program
    /// is derived again under a recording oracle that proves every UNSAT
    /// answer; for Unsafe, the witness and path.
    fn export_evidence(
        &mut self,
        key: &str,
        src: &str,
        verdict: &Verdict,
        cycles: usize,
    ) -> Option<Evidence> {
        let spans = self.spans;
        let ev_verdict = match verdict {
            Verdict::Safe => {
                let (gamma, base_flow) = self.invariant.take()?;
                let ebudget = Arc::new(Budget::new(None, None, FaultPlan::none()));
                let esolver = SmtSolver::with_budget(ebudget).with_cache(self.cache.clone());
                let proofs: RefCell<BTreeMap<Formula, Option<UnsatProof>>> =
                    RefCell::new(BTreeMap::new());
                let record = |f: &Formula| -> Result<bool, AbsError> {
                    let sat = esolver.maybe_sat(f);
                    if !sat {
                        let canon = f.canon();
                        proofs
                            .borrow_mut()
                            .entry(canon.clone())
                            .or_insert_with(|| spans.span("smt.prove", || prove_unsat(&canon)));
                    }
                    Ok(sat)
                };
                spans
                    .span("abs.oracle_abstract", || {
                        abstract_program_with_oracle(self.cps, &self.env, &self.abs_opts, &record)
                    })
                    .ok()?;
                let mut proved = Vec::new();
                let mut unproved = 0u64;
                for (f, proof) in proofs.into_inner() {
                    match proof {
                        Some(p) => proved.push((f, p)),
                        None => unproved += 1,
                    }
                }
                add(self.counts, "smt.proofs", proved.len() as f64);
                add(self.counts, "smt.unproved", unproved as f64);
                EvidenceVerdict::Safe(Box::new(SafeEvidence {
                    env: self.env.clone(),
                    gamma,
                    base_flow,
                    proofs: proved,
                    unproved,
                }))
            }
            Verdict::Unsafe { witness, path } => EvidenceVerdict::Unsafe {
                witness: witness.clone(),
                path: path.clone(),
            },
            Verdict::Unknown { .. } => return None,
        };
        Some(Evidence {
            program: key.to_string(),
            source_hash: stable_hash64(src),
            iterations: cycles as u64,
            provenance: std::mem::take(&mut self.provenance),
            verdict: ev_verdict,
        })
    }
}

/// Scales the retryable limits by four, as `verify_compiled` does before its
/// one retry.
fn escalate(limits: &mut CheckLimits, trace_fuel: &mut u64) {
    limits.max_base_combos = limits.max_base_combos.saturating_mul(4);
    limits.max_typings = limits.max_typings.saturating_mul(4);
    limits.max_search_steps = limits.max_search_steps.saturating_mul(4);
    *trace_fuel = trace_fuel.saturating_mul(4);
}
