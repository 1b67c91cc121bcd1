//! The independent evidence checker and the `homc explain` narrator.
//!
//! [`check_evidence`] re-establishes a verdict from an [`Evidence`]
//! certificate **without** the CEGAR/SMT search path — no interpolation, no
//! DPLL-style implicant search, no fixpoint iteration:
//!
//! * **Unsafe** evidence is replayed through the reference interpreter
//!   ([`homc_lang::eval`]): the witness integers and branch labels must
//!   drive the program to `fail`.
//! * **Safe** evidence is validated in three steps. (1) Every refutation
//!   tree is re-verified by pure arithmetic ([`homc_smt::verify_unsat`] —
//!   the checker walks the stored query itself and takes each path's atoms
//!   from it, so a proof for a *different* formula cannot smuggle an answer
//!   in). (2) The boolean program is re-derived with the verified proof
//!   table as the *only* source of UNSAT answers — any query without a
//!   surviving proof is treated as satisfiable, which only enlarges the
//!   abstraction. (3) The
//!   stored invariant is installed ([`Checker::seed_invariant`]) and one
//!   derivation sweep must add nothing ([`Checker::check_closed`]); since
//!   the derivation operator is monotone, a closed seed contains the
//!   saturation fixpoint, so `main` having no typing proves the boolean
//!   program — and hence the source program — safe. When unproved queries
//!   forced a coarser abstraction, the sweep may legitimately add facts;
//!   the checker then continues the (monotone) derivation to its fixpoint
//!   from the seed, which still bounds the least fixpoint from above.
//!
//! Every failure mode (hash mismatch, broken proof, non-closed invariant,
//! replay that misses `fail`) rejects the certificate; nothing in the file
//! is taken on faith. A rejection is always possible under corruption; a
//! wrong acceptance is not.

use std::collections::{BTreeSet, HashSet};

use homc_abs::{abstract_program_with_oracle, AbsOptions};
use homc_hbp::{CheckLimits, Checker, Gamma};
use homc_lang::eval::{run, Label, Outcome, ScriptDriver};
use homc_lang::frontend;
use homc_metrics::{Counter, Metrics};
use homc_serve::{Evidence, EvidenceVerdict, SafeEvidence};
use homc_smt::{verify_unsat, Formula};
use homc_trace::stable_hash64;

/// Fuel for the counterexample replay. Generous: suite counterexamples are
/// a few hundred steps; exhaustion rejects the certificate.
const REPLAY_FUEL: u64 = 10_000_000;

/// What an accepted certificate established (for reporting).
#[derive(Clone, Debug, Default)]
pub struct EvidenceCheck {
    /// The verdict the evidence claims (`"safe"` or `"unsafe"`).
    pub claimed: &'static str,
    /// Refutation proofs verified (0 for Unsafe evidence).
    pub proofs_verified: usize,
    /// UNSAT queries the emitter could not prove — treated as satisfiable
    /// here (sound coarsening).
    pub unproved: u64,
    /// Typing-table entries in the validated invariant (0 for Unsafe).
    pub invariant_typings: usize,
}

/// Validates `ev` against the source text `src`. `Ok` means the claimed
/// verdict is independently re-established; `Err` carries the first
/// integrity or validity violation found. Bumps [`Counter::CheckPass`] /
/// [`Counter::CheckFail`] accordingly.
pub fn check_evidence(
    src: &str,
    ev: &Evidence,
    metrics: &Metrics,
) -> Result<EvidenceCheck, String> {
    let result = check_inner(src, ev);
    metrics.incr(match result {
        Ok(_) => Counter::CheckPass,
        Err(_) => Counter::CheckFail,
    });
    result
}

fn check_inner(src: &str, ev: &Evidence) -> Result<EvidenceCheck, String> {
    if stable_hash64(src) != ev.source_hash {
        return Err(format!(
            "source hash mismatch: evidence certifies {:016x}, input hashes to {:016x}",
            ev.source_hash,
            stable_hash64(src)
        ));
    }
    let compiled = frontend(src).map_err(|e| format!("source no longer compiles: {e}"))?;
    match &ev.verdict {
        EvidenceVerdict::Unsafe { witness, path } => {
            let mut driver = ScriptDriver::new(path.clone(), witness.clone());
            let (outcome, _) = run(&compiled.cps, &mut driver, REPLAY_FUEL);
            match outcome {
                Outcome::Fail => Ok(EvidenceCheck {
                    claimed: "unsafe",
                    ..EvidenceCheck::default()
                }),
                other => Err(format!(
                    "counterexample does not replay to fail (witness {witness:?}, \
                     {} labels): {other:?}",
                    path.len()
                )),
            }
        }
        EvidenceVerdict::Safe(se) => check_safe(&compiled.cps, se),
    }
}

/// The Safe side: verify proofs, re-derive the boolean program from the
/// proof table, and demand the stored invariant is closed and fail-free.
fn check_safe(
    program: &homc_lang::kernel::Program,
    se: &SafeEvidence,
) -> Result<EvidenceCheck, String> {
    // Step 1: every stored proof must verify against its stored query.
    for (i, (f, proof)) in se.proofs.iter().enumerate() {
        if !verify_unsat(f, proof) {
            return Err(format!("refutation proof {i} does not verify: {f}"));
        }
    }
    let unsat: HashSet<Formula> = se.proofs.iter().map(|(f, _)| f.canon()).collect();
    // Step 2: the proof table is the only UNSAT source. An unknown query is
    // answered SAT — the abstraction can only get coarser than the
    // emitter's, so any *new* behaviour shows up in step 3 as a non-closed
    // invariant (a rejection), never as a false certificate.
    let oracle = |f: &Formula| Ok(!unsat.contains(&f.canon()));
    let (bp, _) = abstract_program_with_oracle(program, &se.env, &AbsOptions::default(), &oracle)
        .map_err(|e| format!("abstraction replay failed: {e:?}"))?;
    // Step 3: one sweep over the seeded invariant. ×4 over the default
    // limits covers certificates produced by escalated runs; exhaustion is
    // a rejection like any other.
    let d = CheckLimits::default();
    let limits = CheckLimits {
        max_base_combos: d.max_base_combos.saturating_mul(4),
        max_typings: d.max_typings.saturating_mul(4),
        max_search_steps: d.max_search_steps.saturating_mul(4),
    };
    let mut checker =
        Checker::new(&bp, limits).map_err(|e| format!("invariant checker setup: {e}"))?;
    let gamma = Gamma::from_entries(se.gamma.iter().cloned());
    let typings = gamma.len();
    checker.seed_invariant(gamma, se.base_flow.clone());
    match checker.check_closed() {
        Ok(true) => {}
        Ok(false) if se.unproved == 0 => {
            // Every UNSAT answer was proved, so the re-derived boolean
            // program is the emitter's own — a non-closed invariant can
            // only mean the certificate was tampered with.
            return Err(
                "invariant is not closed: one derivation sweep added typings or flows".to_string(),
            );
        }
        Ok(false) => {
            // Unproved queries were coarsened to SAT, so the boolean
            // program has strictly more behaviour than the one the
            // invariant was saturated against. The derivation operator is
            // monotone: continuing from the seeded superset reaches a
            // fixpoint containing the least one, so a fail-free fixpoint
            // still certifies safety — at saturation cost instead of one
            // sweep, paid only on the coarsened minority of programs.
            checker
                .saturate()
                .map_err(|e| format!("coarsened saturation exhausted: {e}"))?;
        }
        Err(e) => return Err(format!("invariant sweep exhausted: {e}")),
    }
    if checker.may_fail() {
        return Err("invariant admits a failing typing for main".to_string());
    }
    Ok(EvidenceCheck {
        claimed: "safe",
        proofs_verified: se.proofs.len(),
        unproved: se.unproved,
        invariant_typings: typings,
    })
}

/// Renders the `homc explain` narrative from a run's evidence: header,
/// certificate summary, per-iteration predicate provenance, and the
/// heaviest refuted abstraction queries. `preds_dead` is the verifier's
/// dead-predicate census for the final abstraction (see
/// `VerifyStats::preds_dead`). Purely a function of its inputs — no clocks,
/// no paths — so logical-clock runs render byte-identically.
pub fn render_explain(ev: &Evidence, preds_dead: u64) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "program {} (source hash {:016x})",
        ev.program, ev.source_hash
    );
    match &ev.verdict {
        EvidenceVerdict::Safe(se) => {
            let _ = writeln!(
                out,
                "verdict: safe after {} CEGAR iteration(s)",
                ev.iterations
            );
            let typings: usize = se.gamma.iter().map(|(_, ts)| ts.len()).sum();
            let flows: usize = se.base_flow.values().map(BTreeSet::len).sum();
            let _ = writeln!(
                out,
                "invariant: {typings} typing(s) over {} definition(s), {flows} base-flow fact(s)",
                se.gamma.len()
            );
            let _ = write!(out, "certificates: {} refutation proof(s)", se.proofs.len());
            if se.unproved > 0 {
                let _ = write!(out, " ({} query(ies) unproved, treated SAT)", se.unproved);
            }
            out.push('\n');
            let installed = se.env.fingerprint() as u64;
            let _ = writeln!(
                out,
                "predicates: {installed} installed, {} live, {preds_dead} dead",
                installed.saturating_sub(preds_dead)
            );
        }
        EvidenceVerdict::Unsafe { witness, path } => {
            let _ = writeln!(
                out,
                "verdict: unsafe after {} CEGAR iteration(s)",
                ev.iterations
            );
            let labels: String = path
                .iter()
                .map(|l| if matches!(l, Label::Zero) { '0' } else { '1' })
                .collect();
            let _ = writeln!(
                out,
                "counterexample: witness {witness:?}, path {labels} ({} label(s))",
                path.len()
            );
        }
    }
    if ev.provenance.is_empty() {
        out.push_str("provenance: no predicates were discovered (initial abstraction sufficed)\n");
    } else {
        out.push_str("provenance:\n");
        let mut last_iter = u64::MAX;
        for p in &ev.provenance {
            if p.iteration != last_iter {
                let _ = writeln!(out, "  iteration {}:", p.iteration);
                last_iter = p.iteration;
            }
            let _ = writeln!(
                out,
                "    {} <- {} @ cut {}: {}",
                p.target, p.source, p.cut, p.pred
            );
        }
    }
    if let EvidenceVerdict::Safe(se) = &ev.verdict {
        if !se.proofs.is_empty() {
            // The heaviest refuted queries — where the abstraction spent
            // its proof effort. Sorted by (closed proof nodes, size)
            // descending with the formula text as the deterministic
            // tiebreak.
            let mut heavy: Vec<(usize, usize, String)> = se
                .proofs
                .iter()
                .map(|(f, p)| (p.closed(), f.size(), f.to_string()))
                .collect();
            heavy.sort_by(|a, b| b.0.cmp(&a.0).then(b.1.cmp(&a.1)).then(a.2.cmp(&b.2)));
            out.push_str("heaviest refuted queries:\n");
            for (closed, size, text) in heavy.iter().take(5) {
                let _ = writeln!(out, "  {closed} closed, {size} node(s): {text}");
            }
        }
    }
    out
}
