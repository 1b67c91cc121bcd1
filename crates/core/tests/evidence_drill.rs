//! Corruption drill for the evidence layer: every mutation of a genuine
//! certificate — a dropped predicate, a tampered refutation tree, or a
//! byte-level truncation of the on-disk file — must be rejected by the
//! parser or the independent checker, never silently accepted.

use homc::{
    check_evidence, parse_evidence_bytes, stable_hash64, verify, Evidence, EvidenceConfig,
    EvidenceStore, EvidenceVerdict, Metrics, Verdict, VerifierOptions,
};
use homc_abs::AbsTy;
use homc_smt::{ArithRefutation, Atom, Formula, LinExpr, ProofNode, UnsatProof};

const SAFE: &str = "let f x g = g (x + 1) in
                    let h y = assert (y > 0) in
                    let k n = if n > 0 then f n h else () in
                    k m";
const UNSAFE: &str = "assert (n > 0)";

fn evidence_for(src: &str, dir: Option<&std::path::Path>, key: &str) -> homc::Evidence {
    let opts = VerifierOptions {
        evidence: Some(EvidenceConfig {
            dir: dir.map(Into::into),
            key: key.to_string(),
            source_hash: stable_hash64(src),
        }),
        ..VerifierOptions::default()
    };
    let out = verify(src, &opts).expect("runs");
    assert!(!matches!(out.verdict, Verdict::Unknown { .. }));
    out.evidence.expect("decisive run exports evidence")
}

/// Removes one predicate from the first non-empty predicate list in `t`.
fn drop_first_pred(t: &mut AbsTy) -> bool {
    match t {
        AbsTy::Base(_, preds) => {
            if preds.is_empty() {
                false
            } else {
                preds.pop();
                true
            }
        }
        AbsTy::Fun(_, a, b) => drop_first_pred(a) || drop_first_pred(b),
    }
}

#[test]
fn dropped_predicate_is_rejected() {
    let mut ev = evidence_for(SAFE, None, "drill-safe");
    let EvidenceVerdict::Safe(se) = &mut ev.verdict else {
        panic!("safe evidence expected");
    };
    let mut dropped = false;
    'outer: for scheme in se.env.schemes.values_mut() {
        for (_, ty) in scheme.iter_mut() {
            if drop_first_pred(ty) {
                dropped = true;
                break 'outer;
            }
        }
    }
    assert!(dropped, "a refined safe run must carry predicates");
    let m = Metrics::disabled();
    let err = check_evidence(SAFE, &ev, &m).expect_err("weakened environment must not certify");
    assert!(
        err.contains("not closed") || err.contains("failing typing"),
        "{err}"
    );
}

/// The proof table of the safe drill program's certificate.
fn safe_proofs(ev: &mut Evidence) -> &mut Vec<(Formula, UnsatProof)> {
    let EvidenceVerdict::Safe(se) = &mut ev.verdict else {
        panic!("safe evidence expected");
    };
    assert!(
        !se.proofs.is_empty(),
        "a refined safe run must carry refutation proofs"
    );
    &mut se.proofs
}

/// The tampered certificate must fail at its proof table.
fn assert_proof_rejected(ev: &Evidence) {
    let err = check_evidence(SAFE, ev, &Metrics::disabled())
        .expect_err("tampered certificate must not verify");
    assert!(err.contains("does not verify"), "{err}");
}

#[test]
fn gutted_farkas_certificate_is_rejected() {
    let mut ev = evidence_for(SAFE, None, "drill-safe");
    let cert = safe_proofs(&mut ev)
        .iter_mut()
        .flat_map(|(_, p)| p.nodes.iter_mut())
        .find_map(|n| match n {
            ProofNode::Closed(ArithRefutation::Farkas(cert)) => Some(cert),
            _ => None,
        })
        .expect("a Farkas node");
    // An empty Farkas sum refutes nothing: `verify_unsat` can never accept
    // it, so the rejection is deterministic regardless of the path's atoms.
    cert.clear();
    assert_proof_rejected(&ev);
}

#[test]
fn branch_node_with_a_child_dropped_is_rejected() {
    let mut ev = evidence_for(SAFE, None, "drill-safe");
    let proof = safe_proofs(&mut ev)
        .iter_mut()
        .map(|(_, p)| p)
        .find(|p| p.nodes.contains(&ProofNode::Branch))
        .expect("a proof that branches");
    // A tree's last node is the whole subproof of the last child of some
    // branch node: without it the walk runs out of nodes.
    proof.nodes.pop();
    assert_proof_rejected(&ev);
}

#[test]
fn closed_node_where_the_walk_branches_is_rejected() {
    let mut ev = evidence_for(SAFE, None, "drill-safe");
    let proof = safe_proofs(&mut ev)
        .iter_mut()
        .map(|(_, p)| p)
        .find(|p| p.nodes.first() == Some(&ProofNode::Branch))
        .expect("a proof whose first node branches");
    let leaf = proof
        .nodes
        .iter()
        .find(|n| matches!(n, ProofNode::Closed(ArithRefutation::Farkas(_))))
        .expect("a Farkas node")
        .clone();
    // The search branches only where the path's atoms are rationally
    // satisfiable, so no Farkas certificate closes the tree at its root.
    proof.nodes = vec![leaf];
    assert_proof_rejected(&ev);
}

#[test]
fn proof_of_another_stored_query_is_rejected() {
    let mut ev = evidence_for(SAFE, None, "drill-safe");
    let proofs = safe_proofs(&mut ev);
    // The largest tree, attached to the first query whose own tree differs.
    let heaviest = (0..proofs.len())
        .max_by_key(|&i| proofs[i].1.nodes.len())
        .expect("proofs");
    let other = (0..proofs.len())
        .find(|&i| proofs[i].1 != proofs[heaviest].1)
        .expect("two different proofs");
    proofs[other].1 = proofs[heaviest].1.clone();
    assert_proof_rejected(&ev);
}

#[test]
fn hostile_branch_chain_is_rejected_without_overflow() {
    // A stored query with more disjunctions on one path than the checker
    // follows, and a tree of 10^6 branch nodes, each the first child of
    // the one before: it must come back as corrupt or be rejected by the
    // checker, never crash the decoder or the checker's walk.
    let dir = std::env::temp_dir().join(format!("homc-evd-hostile-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut ev = evidence_for(SAFE, None, "drill-hostile");
    let query = Formula::and((0..2_000).map(|i| {
        let v = || LinExpr::var(format!("v{i}"));
        Formula::or2(
            Formula::atom(Atom::gt(v(), LinExpr::constant(0))),
            Formula::atom(Atom::lt(v(), LinExpr::constant(0))),
        )
    }));
    let chain = UnsatProof {
        nodes: vec![ProofNode::Branch; 1_000_000],
    };
    safe_proofs(&mut ev).insert(0, (query.canon(), chain));
    let store = EvidenceStore::new(&dir);
    store.publish("drill-hostile", &ev).expect("publish");
    drop(ev);
    let load = store.load("drill-hostile").expect("load runs");
    if let Some(ev) = load.evidence {
        assert_proof_rejected(&ev);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_unsafe_file_never_passes() {
    let dir = std::env::temp_dir().join(format!("homc-evd-drill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let key = "drill-unsafe";
    let _ = evidence_for(UNSAFE, Some(&dir), key);
    let store = EvidenceStore::new(&dir);
    let bytes = std::fs::read(store.path_for(key)).expect("evidence file exists");
    assert!(bytes.len() > 1);
    // The intact file round-trips and checks out.
    let whole = parse_evidence_bytes(&bytes).expect("intact file parses");
    check_evidence(UNSAFE, &whole, &Metrics::disabled()).expect("intact file validates");
    // Every proper prefix must fail the parse (mid-frame cuts break the
    // checksum, clean frame-boundary cuts leave the record set incomplete)
    // or, failing that, be rejected by the checker.
    for len in 0..bytes.len() - 1 {
        match parse_evidence_bytes(&bytes[..len]) {
            None => {}
            Some(ev) => {
                check_evidence(UNSAFE, &ev, &Metrics::disabled())
                    .expect_err(&format!("prefix of {len} byte(s) must not certify"));
            }
        }
    }
    // The store-level drill: a truncated file on disk is quarantined, not
    // returned, so a rerun re-verifies instead of trusting damaged bytes.
    std::fs::write(store.path_for(key), &bytes[..bytes.len() / 2]).expect("write truncated");
    let load = store.load(key).expect("load runs");
    assert!(load.evidence.is_none());
    assert!(load.quarantined, "truncated evidence must be quarantined");
    let _ = std::fs::remove_dir_all(&dir);
}
