//! End-to-end evidence round-trips: a verification run exports evidence,
//! the independent checker re-establishes the verdict from it, and simple
//! in-memory tampering is rejected.

use homc::{
    check_evidence, stable_hash64, verify, EvidenceConfig, EvidenceVerdict, Metrics, Verdict,
    VerifierOptions,
};

const SAFE: &str = "let f x g = g (x + 1) in
                    let h y = assert (y > 0) in
                    let k n = if n > 0 then f n h else () in
                    k m";
const UNSAFE: &str = "assert (n > 0)";

fn with_evidence(src: &str) -> VerifierOptions {
    VerifierOptions {
        evidence: Some(EvidenceConfig {
            dir: None,
            key: "test".to_string(),
            source_hash: stable_hash64(src),
        }),
        ..VerifierOptions::default()
    }
}

#[test]
fn safe_evidence_checks_out() {
    let out = verify(SAFE, &with_evidence(SAFE)).expect("runs");
    assert_eq!(out.verdict, Verdict::Safe);
    let ev = out.evidence.expect("safe run exports evidence");
    assert!(out.stats.evidence_digest != 0);
    assert_eq!(ev.digest(), out.stats.evidence_digest);
    let m = Metrics::new(false);
    let report = check_evidence(SAFE, &ev, &m).expect("certificate validates");
    assert_eq!(report.claimed, "safe");
    assert!(
        report.proofs_verified > 0,
        "a refined safe program must need UNSAT proofs"
    );
    assert_eq!(m.snapshot().counter(homc::Counter::CheckPass), 1);
    // The run discovered predicates, so provenance must be populated.
    assert!(!ev.provenance.is_empty(), "provenance: {:?}", ev.provenance);
    assert!(ev.provenance.iter().any(|p| p.source == "interp"));
}

#[test]
fn unsafe_evidence_checks_out_and_tampering_fails() {
    let out = verify(UNSAFE, &with_evidence(UNSAFE)).expect("runs");
    assert!(out.verdict.is_unsafe());
    let mut ev = out.evidence.expect("unsafe run exports evidence");
    let m = Metrics::new(false);
    let report = check_evidence(UNSAFE, &ev, &m).expect("certificate validates");
    assert_eq!(report.claimed, "unsafe");
    // A witness that does not fail must be rejected.
    if let EvidenceVerdict::Unsafe { witness, .. } = &mut ev.verdict {
        witness[0] = 1; // assert (n > 0) holds for n = 1
    }
    assert!(check_evidence(UNSAFE, &ev, &m).is_err());
    assert_eq!(m.snapshot().counter(homc::Counter::CheckFail), 1);
}

#[test]
fn wrong_source_is_rejected() {
    let out = verify(SAFE, &with_evidence(SAFE)).expect("runs");
    let ev = out.evidence.expect("evidence");
    let m = Metrics::disabled();
    let err = check_evidence(UNSAFE, &ev, &m).expect_err("hash mismatch");
    assert!(err.contains("source hash mismatch"), "{err}");
}

#[test]
fn dropped_proof_is_rejected() {
    let out = verify(SAFE, &with_evidence(SAFE)).expect("runs");
    let mut ev = out.evidence.expect("evidence");
    if let EvidenceVerdict::Safe(se) = &mut ev.verdict {
        assert!(!se.proofs.is_empty());
        se.proofs.clear();
    }
    let m = Metrics::disabled();
    let err = check_evidence(SAFE, &ev, &m).expect_err("coarsened abstraction must not be closed");
    assert!(
        err.contains("not closed") || err.contains("failing typing"),
        "{err}"
    );
}

#[test]
fn unknown_verdict_exports_nothing() {
    let opts = VerifierOptions {
        max_iterations: 1,
        ..with_evidence(SAFE)
    };
    let out = verify(SAFE, &opts).expect("runs");
    if matches!(out.verdict, Verdict::Unknown { .. }) {
        assert!(out.evidence.is_none());
        assert_eq!(out.stats.evidence_digest, 0);
    }
}
