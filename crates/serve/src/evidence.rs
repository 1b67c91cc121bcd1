//! The versioned on-disk **verdict-evidence store** — exportable
//! certificates that let `homc check` re-establish a verdict without
//! re-running the CEGAR/SMT search.
//!
//! Where an abstraction artifact ([`crate::artifact`]) is a *performance*
//! device (everything in it is a candidate, re-validated by the next run),
//! evidence is a *trust* device: it carries exactly the facts an independent
//! checker needs, and nothing it contains is taken on faith —
//!
//! * **Safe** evidence holds the final predicate environment, the saturated
//!   intersection-typing table and base-flow facts (the abstract
//!   reachability invariant), and one self-contained refutation tree
//!   ([`homc_smt::UnsatProof`]) per UNSAT abstraction query the invariant
//!   depends on. The checker re-verifies every proof with pure arithmetic,
//!   re-derives the boolean program with the proof table as its only UNSAT
//!   source, and checks the invariant is closed under one saturation sweep.
//!   Queries *without* a proof are treated as satisfiable, which only
//!   enlarges the abstraction — a corrupted or incomplete proof table can
//!   cost a rejection, never certify an unsafe program.
//! * **Unsafe** evidence holds the concrete witness (values for `main`'s
//!   unknown integers) and the branch-label path; the checker replays them
//!   through the reference interpreter and demands `fail`.
//!
//! Alongside the certificates, evidence records per-predicate
//! **provenance** — which CEGAR iteration, trace cut, and discovery
//! mechanism introduced each predicate — the raw material for
//! `homc explain`.
//!
//! Each program key has one `.evd` file in the framed-file store. The
//! [`Evidence::digest`] recorded in run ledgers is the FNV-1a hash of the
//! complete rendered file, so a ledger entry pins the exact certificate
//! bytes it was checked against.

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};

use homc_abs::AbsEnv;
use homc_hbp::{ArgReq, ArrowTy, Bits, FunName, Typing};
use homc_lang::eval::Label;
use homc_metrics::{Counter, Metrics};
use homc_smt::{ArithRefutation, Formula, ProofNode, Rat, UnsatProof};
use homc_trace::stable_hash64;

use crate::codec::{
    put_env, put_formula, put_funname, put_str, put_u64, put_usize, put_var, CodecError, Cur,
};
use crate::store::{Format, Naming, Parsed, Store};

/// First bytes of every evidence file.
pub const EVIDENCE_MAGIC: &str = "homc-evidence";
/// Schema version of the record payloads; bump on any codec change. Version
/// 2 stores each proof as the solver's refutation tree; a version-1 file
/// (per-cube DNF proofs) reads as stale.
pub const EVIDENCE_VERSION: u32 = 2;

/// Trusted whole, like an artifact: one bad record, or records that
/// disagree with the verdict tag, quarantine the file. Its quarantines
/// count under the artifact store's counter.
static FORMAT: Format = Format {
    magic: EVIDENCE_MAGIC,
    version: EVIDENCE_VERSION,
    naming: Naming::Keyed { ext: "evd" },
    reclaim_stale: true,
    skip_bad_records: false,
    counter: Counter::ArtifactQuarantine,
};

/// The origin of one predicate, stamped with the CEGAR iteration that
/// introduced it (serialized form of the refiner's provenance).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProvenanceRecord {
    /// The CEGAR iteration the predicate was discovered in (1-based).
    pub iteration: u64,
    /// The binding it was installed on (`f:x`, `f:g@k`, or `rand:site`).
    pub target: String,
    /// The trace cut index it was solved at.
    pub cut: u64,
    /// The discovery mechanism (`interp`, `seed`, or `gen_p`).
    pub source: String,
    /// The predicate rendered over the target's names.
    pub pred: String,
}

/// The certificate half of Safe evidence.
#[derive(Clone, Debug, Default)]
pub struct SafeEvidence {
    /// The final (winning) predicate environment.
    pub env: AbsEnv,
    /// The saturated typing table of the final boolean program.
    pub gamma: Vec<(FunName, BTreeSet<Typing>)>,
    /// The saturated base-flow facts of the final boolean program.
    pub base_flow: BTreeMap<(FunName, usize), BTreeSet<Bits>>,
    /// Refutation proofs for the UNSAT abstraction queries the boolean
    /// program depends on, keyed by the canonical query formula.
    pub proofs: Vec<(Formula, UnsatProof)>,
    /// UNSAT answers the emitter failed to prove (the checker treats those
    /// queries as satisfiable — sound coarsening, possibly a rejection).
    pub unproved: u64,
}

/// The verdict-specific payload.
#[derive(Clone, Debug)]
pub enum EvidenceVerdict {
    /// The program was verified safe; the invariant and its proofs.
    Safe(Box<SafeEvidence>),
    /// A concrete failure was found; the replayable counterexample.
    Unsafe {
        /// Values for `main`'s unknown integer parameters.
        witness: Vec<i64>,
        /// The branch labels of the failing run.
        path: Vec<Label>,
    },
}

/// Everything one verification run exports to back its verdict.
#[derive(Clone, Debug)]
pub struct Evidence {
    /// The program key (suite name or source path) the evidence is for.
    pub program: String,
    /// FNV-1a hash of the source text, pinning what was verified.
    pub source_hash: u64,
    /// CEGAR iterations the run took.
    pub iterations: u64,
    /// Per-predicate provenance, in discovery order.
    pub provenance: Vec<ProvenanceRecord>,
    /// The verdict and its certificate.
    pub verdict: EvidenceVerdict,
}

impl Evidence {
    /// The FNV-1a digest of the complete rendered file — what ledgers and
    /// batch reports record, pinning the exact certificate bytes.
    pub fn digest(&self) -> u64 {
        stable_hash64(&render(self))
    }
}

/// Handle to one evidence directory.
#[derive(Clone, Debug)]
pub struct EvidenceStore {
    store: Store,
}

impl EvidenceStore {
    /// A store rooted at `dir` (created on first publish).
    pub fn new(dir: impl Into<PathBuf>) -> EvidenceStore {
        EvidenceStore {
            store: Store::new(dir, &FORMAT),
        }
    }

    /// Attaches a metrics registry ([`Counter::ArtifactQuarantine`]).
    pub fn with_metrics(self, metrics: Metrics) -> EvidenceStore {
        EvidenceStore {
            store: self.store.with_metrics(metrics),
        }
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        self.store.dir()
    }

    /// The file path for a program key (same slug-plus-full-hash naming as
    /// the artifact store, different extension).
    pub fn path_for(&self, key: &str) -> PathBuf {
        self.store.path_for(key)
    }

    /// Loads the evidence for `key`. A `None` with `quarantined: false` is a
    /// clean miss; with `quarantined: true` the file failed an integrity
    /// check and has been renamed to `<name>.quarantined` (and counted).
    pub fn load(&self, key: &str) -> io::Result<EvidenceLoad> {
        let (evidence, quarantined) = self.store.load_key(key, parse);
        Ok(EvidenceLoad {
            evidence,
            quarantined,
        })
    }

    /// Publishes `evidence` under `key`, atomically replacing any previous
    /// evidence for the same key. Returns the path and the file digest.
    pub fn publish(&self, key: &str, evidence: &Evidence) -> io::Result<(PathBuf, u64)> {
        let text = render(evidence);
        let path = self.store.publish_key(key, text.as_bytes())?;
        Ok((path, stable_hash64(&text)))
    }
}

/// What [`EvidenceStore::load`] found and did.
#[derive(Clone, Debug, Default)]
pub struct EvidenceLoad {
    /// The decoded evidence, when present and intact.
    pub evidence: Option<Evidence>,
    /// `true` when a file existed but failed an integrity check and was
    /// quarantined.
    pub quarantined: bool,
}

/// Parses raw evidence file bytes (as read from disk). Used by the store
/// and by `homc check` on an explicit file path. `None` means the bytes
/// failed an integrity or schema check.
pub fn parse_evidence_bytes(bytes: &[u8]) -> Option<Evidence> {
    match parse(bytes) {
        Parsed::Good(e) => Some(e),
        Parsed::Stale | Parsed::Corrupt => None,
    }
}

fn parse(bytes: &[u8]) -> Parsed<Evidence> {
    FORMAT.parse(bytes, decode_into, finish)
}

// ---------------------------------------------------------------- encoding

fn put_rat(out: &mut String, r: Rat) {
    out.push_str(&r.num().to_string());
    out.push(' ');
    out.push_str(&r.den().to_string());
}

fn put_refutation(out: &mut String, r: &ArithRefutation) {
    match r {
        ArithRefutation::Farkas(cert) => {
            out.push_str("F ");
            put_usize(out, cert.len());
            for (i, c) in cert {
                out.push(' ');
                put_usize(out, *i);
                out.push(' ');
                put_rat(out, *c);
            }
        }
        ArithRefutation::Gcd(i) => {
            out.push_str("G ");
            put_usize(out, *i);
        }
        ArithRefutation::Split {
            var,
            at,
            below,
            above,
        } => {
            out.push_str("S ");
            put_var(out, var);
            out.push(' ');
            out.push_str(&at.to_string());
            out.push(' ');
            put_refutation(out, below);
            out.push(' ');
            put_refutation(out, above);
        }
    }
}

/// A proof is its node count, then the nodes in preorder: `B` for a branch
/// node, a refutation (`F`, `G` or `S`) for a closed one.
fn put_proof(out: &mut String, p: &UnsatProof) {
    put_usize(out, p.nodes.len());
    for node in &p.nodes {
        out.push(' ');
        match node {
            ProofNode::Branch => out.push('B'),
            ProofNode::Closed(r) => put_refutation(out, r),
        }
    }
}

fn put_argreq(out: &mut String, a: &ArgReq) {
    match a {
        ArgReq::Base(bits) => {
            out.push_str("b ");
            put_u64(out, *bits);
        }
        ArgReq::Fn(arrows) => {
            out.push_str("f ");
            put_usize(out, arrows.len());
            for arrow in arrows {
                out.push(' ');
                put_usize(out, arrow.0.len());
                for req in &arrow.0 {
                    out.push(' ');
                    put_argreq(out, req);
                }
            }
        }
    }
}

/// Encodes evidence as one record payload per logical piece: an `H` header,
/// `P` provenance entries, then either the Safe records (`E` schemes, `R`
/// rand sites, `G` typings, `B` base-flow facts, `Q` proofs, `X` unproved
/// count) or the Unsafe records (`W` witness, `L` labels).
fn encode_evidence(e: &Evidence) -> Vec<String> {
    let mut out = Vec::new();
    {
        let mut s = String::from("H ");
        put_str(&mut s, &e.program);
        s.push(' ');
        put_u64(&mut s, e.source_hash);
        s.push(' ');
        put_u64(&mut s, e.iterations);
        s.push(' ');
        s.push(match e.verdict {
            EvidenceVerdict::Safe(_) => 'S',
            EvidenceVerdict::Unsafe { .. } => 'U',
        });
        out.push(s);
    }
    for p in &e.provenance {
        let mut s = String::from("P ");
        put_u64(&mut s, p.iteration);
        s.push(' ');
        put_u64(&mut s, p.cut);
        s.push(' ');
        put_str(&mut s, &p.source);
        s.push(' ');
        put_str(&mut s, &p.target);
        s.push(' ');
        put_str(&mut s, &p.pred);
        out.push(s);
    }
    match &e.verdict {
        EvidenceVerdict::Safe(safe) => {
            put_env(&mut out, &safe.env);
            for (f, typings) in &safe.gamma {
                let mut s = String::from("G ");
                put_funname(&mut s, f);
                s.push(' ');
                put_usize(&mut s, typings.len());
                for typing in typings {
                    s.push(' ');
                    put_usize(&mut s, typing.len());
                    for req in typing {
                        s.push(' ');
                        put_argreq(&mut s, req);
                    }
                }
                out.push(s);
            }
            for ((f, idx), seen) in &safe.base_flow {
                let mut s = String::from("B ");
                put_funname(&mut s, f);
                s.push(' ');
                put_usize(&mut s, *idx);
                s.push(' ');
                put_usize(&mut s, seen.len());
                for bits in seen {
                    s.push(' ');
                    put_u64(&mut s, *bits);
                }
                out.push(s);
            }
            for (f, proof) in &safe.proofs {
                let mut s = String::from("Q ");
                put_formula(&mut s, f);
                s.push(' ');
                put_proof(&mut s, proof);
                out.push(s);
            }
            {
                let mut s = String::from("X ");
                put_u64(&mut s, safe.unproved);
                out.push(s);
            }
        }
        EvidenceVerdict::Unsafe { witness, path } => {
            {
                let mut s = String::from("W ");
                put_usize(&mut s, witness.len());
                for w in witness {
                    s.push(' ');
                    s.push_str(&w.to_string());
                }
                out.push(s);
            }
            {
                let mut s = String::from("L ");
                put_usize(&mut s, path.len());
                for l in path {
                    s.push(' ');
                    s.push(match l {
                        Label::Zero => '0',
                        Label::One => '1',
                    });
                }
                out.push(s);
            }
        }
    }
    out
}

fn render(e: &Evidence) -> String {
    FORMAT.compose(encode_evidence(e))
}

// ---------------------------------------------------------------- decoding

fn get_rat(c: &mut Cur<'_>) -> Result<Rat, CodecError> {
    let num = c.int()?;
    c.sep()?;
    let den = c.int()?;
    if den == 0 {
        return Err(c.err("rational with zero denominator"));
    }
    Ok(Rat::new(num, den))
}

/// One refutation whose tag `tag` has been read.
fn get_refutation(c: &mut Cur<'_>, tag: &str, depth: u32) -> Result<ArithRefutation, CodecError> {
    // Structural recursion bound: a deeper-than-plausible split chain is
    // rejected here rather than risking decoder stack exhaustion on a
    // checksum-forging corruption.
    if depth > 128 {
        return Err(c.err("refutation nested too deep"));
    }
    match tag {
        "F" => {
            c.sep()?;
            let n = c.count()?;
            let mut cert = Vec::new();
            for _ in 0..n {
                c.sep()?;
                let i = c.count()?;
                c.sep()?;
                cert.push((i, get_rat(c)?));
            }
            Ok(ArithRefutation::Farkas(cert))
        }
        "G" => {
            c.sep()?;
            Ok(ArithRefutation::Gcd(c.count()?))
        }
        "S" => {
            c.sep()?;
            let var = c.var()?;
            c.sep()?;
            let at = c.int()?;
            c.sep()?;
            let tag = c.tok()?;
            let below = get_refutation(c, tag, depth + 1)?;
            c.sep()?;
            let tag = c.tok()?;
            let above = get_refutation(c, tag, depth + 1)?;
            Ok(ArithRefutation::Split {
                var,
                at,
                below: Box::new(below),
                above: Box::new(above),
            })
        }
        t => Err(c.err(format!("bad refutation tag {t:?}"))),
    }
}

/// The inverse of [`put_proof`]. The tree is flat, so decoding it never
/// recurses over branch nodes; only a split nests, and
/// [`get_refutation`] bounds that.
fn get_proof(c: &mut Cur<'_>) -> Result<UnsatProof, CodecError> {
    let n = c.count()?;
    let mut nodes = Vec::new();
    for _ in 0..n {
        c.sep()?;
        nodes.push(match c.tok()? {
            "B" => ProofNode::Branch,
            tag => ProofNode::Closed(get_refutation(c, tag, 0)?),
        });
    }
    Ok(UnsatProof { nodes })
}

fn get_argreq(c: &mut Cur<'_>) -> Result<ArgReq, CodecError> {
    match c.tok()? {
        "b" => {
            c.sep()?;
            Ok(ArgReq::Base(c.u64()?))
        }
        "f" => {
            c.sep()?;
            let n = c.count()?;
            let mut arrows = BTreeSet::new();
            for _ in 0..n {
                c.sep()?;
                let k = c.count()?;
                let mut reqs = Vec::new();
                for _ in 0..k {
                    c.sep()?;
                    reqs.push(get_argreq(c)?);
                }
                arrows.insert(ArrowTy(reqs));
            }
            Ok(ArgReq::Fn(arrows))
        }
        t => Err(c.err(format!("bad argument-requirement tag {t:?}"))),
    }
}

#[derive(Default)]
struct Partial {
    header: Option<(String, u64, u64, char)>,
    provenance: Vec<ProvenanceRecord>,
    safe: SafeEvidence,
    gamma_seen: BTreeSet<FunName>,
    unproved: Option<u64>,
    witness: Option<Vec<i64>>,
    path: Option<Vec<Label>>,
}

fn decode_into(payload: &str, partial: &mut Partial) -> Result<(), CodecError> {
    let mut c = Cur::new(payload);
    match c.tok()? {
        "H" => {
            c.sep()?;
            let program = c.str()?.to_string();
            c.sep()?;
            let source_hash = c.u64()?;
            c.sep()?;
            let iterations = c.u64()?;
            c.sep()?;
            let tag = match c.tok()? {
                "S" => 'S',
                "U" => 'U',
                t => return Err(c.err(format!("bad verdict tag {t:?}"))),
            };
            c.end()?;
            if partial
                .header
                .replace((program, source_hash, iterations, tag))
                .is_some()
            {
                return Err(c.err("duplicate header record"));
            }
        }
        "P" => {
            c.sep()?;
            let iteration = c.u64()?;
            c.sep()?;
            let cut = c.u64()?;
            c.sep()?;
            let source = c.str()?.to_string();
            c.sep()?;
            let target = c.str()?.to_string();
            c.sep()?;
            let pred = c.str()?.to_string();
            c.end()?;
            partial.provenance.push(ProvenanceRecord {
                iteration,
                target,
                cut,
                source,
                pred,
            });
        }
        tag @ ("E" | "R") => c.env_record(tag, &mut partial.safe.env)?,
        "G" => {
            c.sep()?;
            let f = c.funname()?;
            c.sep()?;
            let n = c.count()?;
            let mut typings = BTreeSet::new();
            for _ in 0..n {
                c.sep()?;
                let k = c.count()?;
                let mut typing = Vec::new();
                for _ in 0..k {
                    c.sep()?;
                    typing.push(get_argreq(&mut c)?);
                }
                typings.insert(typing);
            }
            c.end()?;
            if !partial.gamma_seen.insert(f.clone()) {
                return Err(c.err("duplicate typing record"));
            }
            partial.safe.gamma.push((f, typings));
        }
        "B" => {
            c.sep()?;
            let f = c.funname()?;
            c.sep()?;
            let idx = c.count()?;
            c.sep()?;
            let n = c.count()?;
            let mut seen = BTreeSet::new();
            for _ in 0..n {
                c.sep()?;
                seen.insert(c.u64()?);
            }
            c.end()?;
            if partial.safe.base_flow.insert((f, idx), seen).is_some() {
                return Err(c.err("duplicate base-flow record"));
            }
        }
        "Q" => {
            c.sep()?;
            let f = c.formula()?;
            c.sep()?;
            let proof = get_proof(&mut c)?;
            c.end()?;
            partial.safe.proofs.push((f, proof));
        }
        "X" => {
            c.sep()?;
            let n = c.u64()?;
            c.end()?;
            if partial.unproved.replace(n).is_some() {
                return Err(c.err("duplicate unproved-count record"));
            }
        }
        "W" => {
            c.sep()?;
            let n = c.count()?;
            let mut witness = Vec::new();
            for _ in 0..n {
                c.sep()?;
                let w = c.int()?;
                witness.push(i64::try_from(w).map_err(|_| c.err("witness out of range"))?);
            }
            c.end()?;
            if partial.witness.replace(witness).is_some() {
                return Err(c.err("duplicate witness record"));
            }
        }
        "L" => {
            c.sep()?;
            let n = c.count()?;
            let mut path = Vec::new();
            for _ in 0..n {
                c.sep()?;
                path.push(match c.tok()? {
                    "0" => Label::Zero,
                    "1" => Label::One,
                    t => return Err(c.err(format!("bad label {t:?}"))),
                });
            }
            c.end()?;
            if partial.path.replace(path).is_some() {
                return Err(c.err("duplicate label-path record"));
            }
        }
        t => return Err(c.err(format!("bad evidence record tag {t:?}"))),
    }
    Ok(())
}

/// Structural validation: the record set must match the verdict tag
/// exactly — Safe carries its unproved count and no counterexample, Unsafe
/// carries witness + path and no invariant pieces.
fn finish(partial: Partial) -> Option<Evidence> {
    let (program, source_hash, iterations, tag) = partial.header?;
    let has_safe_records = !partial.safe.env.schemes.is_empty()
        || !partial.safe.env.rand_sites.is_empty()
        || !partial.safe.gamma.is_empty()
        || !partial.safe.base_flow.is_empty()
        || !partial.safe.proofs.is_empty()
        || partial.unproved.is_some();
    let verdict = match tag {
        'S' => {
            if partial.witness.is_some() || partial.path.is_some() {
                return None;
            }
            let mut safe = partial.safe;
            safe.unproved = partial.unproved?;
            EvidenceVerdict::Safe(Box::new(safe))
        }
        'U' => {
            if has_safe_records {
                return None;
            }
            EvidenceVerdict::Unsafe {
                witness: partial.witness?,
                path: partial.path?,
            }
        }
        _ => return None,
    };
    Some(Evidence {
        program,
        source_hash,
        iterations,
        provenance: partial.provenance,
        verdict,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::parse_frame;
    use homc_smt::{Atom, LinExpr, Var};
    use std::fs;

    fn tmpdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("homc-evidence-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn sample_safe() -> Evidence {
        let x = LinExpr::var("x");
        let contradiction = Formula::and2(
            Formula::atom(Atom::le(x.clone(), LinExpr::constant(0))),
            Formula::atom(Atom::ge(x, LinExpr::constant(1))),
        );
        let proof = homc_smt::prove_unsat(&contradiction).expect("provable");
        let mut env = AbsEnv::default();
        env.schemes.insert(
            FunName("f".into()),
            vec![(
                Var::new("n"),
                homc_abs::AbsTy::int(vec![homc_abs::Predicate::new(
                    Var::new("nu"),
                    Formula::atom(Atom::gt(LinExpr::var("nu"), LinExpr::constant(0))),
                )]),
            )],
        );
        let gamma = vec![(
            FunName("f".into()),
            BTreeSet::from([vec![
                ArgReq::Base(1),
                ArgReq::Fn(BTreeSet::from([ArrowTy(vec![ArgReq::Base(0)])])),
            ]]),
        )];
        let base_flow = BTreeMap::from([((FunName("f".into()), 0), BTreeSet::from([0u64, 1u64]))]);
        Evidence {
            program: "m1".into(),
            source_hash: 0x1234,
            iterations: 2,
            provenance: vec![ProvenanceRecord {
                iteration: 1,
                target: "f:n".into(),
                cut: 0,
                source: "interp".into(),
                pred: "λnu.nu > 0".into(),
            }],
            verdict: EvidenceVerdict::Safe(Box::new(SafeEvidence {
                env,
                gamma,
                base_flow,
                proofs: vec![(contradiction.canon(), proof)],
                unproved: 0,
            })),
        }
    }

    fn sample_unsafe() -> Evidence {
        Evidence {
            program: "sum-e".into(),
            source_hash: 0x9999,
            iterations: 3,
            provenance: vec![],
            verdict: EvidenceVerdict::Unsafe {
                witness: vec![-7, 0],
                path: vec![Label::One, Label::Zero, Label::One],
            },
        }
    }

    #[test]
    fn safe_evidence_roundtrips() {
        let dir = tmpdir("safe");
        let store = EvidenceStore::new(&dir);
        let ev = sample_safe();
        let (_, digest) = store.publish("m1", &ev).unwrap();
        assert_eq!(digest, ev.digest());
        let back = store.load("m1").unwrap().evidence.expect("present");
        assert_eq!(back.program, ev.program);
        assert_eq!(back.source_hash, ev.source_hash);
        assert_eq!(back.iterations, ev.iterations);
        assert_eq!(back.provenance, ev.provenance);
        let (EvidenceVerdict::Safe(a), EvidenceVerdict::Safe(b)) = (&back.verdict, &ev.verdict)
        else {
            panic!("verdict kind changed");
        };
        assert_eq!(a.env.schemes, b.env.schemes);
        assert_eq!(a.gamma, b.gamma);
        assert_eq!(a.base_flow, b.base_flow);
        assert_eq!(a.proofs, b.proofs);
        assert_eq!(a.unproved, b.unproved);
        assert_eq!(back.digest(), ev.digest());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unsafe_evidence_roundtrips() {
        let dir = tmpdir("unsafe");
        let store = EvidenceStore::new(&dir);
        let ev = sample_unsafe();
        store.publish("sum-e", &ev).unwrap();
        let back = store.load("sum-e").unwrap().evidence.expect("present");
        let EvidenceVerdict::Unsafe { witness, path } = &back.verdict else {
            panic!("verdict kind changed");
        };
        assert_eq!(witness, &vec![-7, 0]);
        assert_eq!(path, &vec![Label::One, Label::Zero, Label::One]);
        assert_eq!(back.digest(), ev.digest());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn any_byte_flip_quarantines_whole_file() {
        let dir = tmpdir("byteflip");
        let metrics = Metrics::new(true);
        let store = EvidenceStore::new(&dir).with_metrics(metrics.clone());
        let (path, _) = store.publish("m1", &sample_safe()).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let off = bytes.len() / 2;
        bytes[off] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let load = store.load("m1").unwrap();
        assert!(load.evidence.is_none());
        assert!(load.quarantined);
        assert!(!path.exists());
        assert_eq!(metrics.snapshot().counter(Counter::ArtifactQuarantine), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn verdict_tag_and_records_must_agree() {
        // Splicing the Unsafe witness records into a Safe file (frames
        // themselves re-checksummed, i.e. a "valid-looking" forgery) is a
        // structural mismatch, hence corrupt.
        let safe = render(&sample_safe());
        let unsafe_ev = render(&sample_unsafe());
        let mut lines: Vec<&str> = safe.lines().collect();
        let extra: Vec<&str> = unsafe_ev
            .lines()
            .filter(|l| {
                parse_frame(format!("{l}\n").as_bytes())
                    .is_some_and(|(payload, ..)| payload.starts_with("W "))
            })
            .collect();
        lines.extend(extra);
        let forged = format!("{}\n", lines.join("\n"));
        assert!(parse_evidence_bytes(forged.as_bytes()).is_none());
    }

    #[test]
    fn version_mismatch_cold_starts_without_quarantine() {
        let dir = tmpdir("stale");
        fs::create_dir_all(&dir).unwrap();
        let metrics = Metrics::new(true);
        let store = EvidenceStore::new(&dir).with_metrics(metrics.clone());
        // Version 1 held per-cube DNF proofs; a file of it is stale too.
        for version in [1, 999] {
            fs::write(store.path_for("k"), format!("homc-evidence v{version}\n")).unwrap();
            let load = store.load("k").unwrap();
            assert!(load.evidence.is_none());
            assert!(!load.quarantined);
            assert!(!store.path_for("k").exists());
        }
        assert_eq!(metrics.snapshot().counter(Counter::ArtifactQuarantine), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn deeply_nested_query_is_corrupt() {
        // A checksum-valid `Q` record whose query nests 10^6 negations:
        // the decoder rejects it at its depth bound instead of recursing
        // once per level.
        let mut records = encode_evidence(&sample_safe());
        let x_pos = records.pop().expect("records");
        records.push(format!("Q {}T 0", "n ".repeat(1_000_000)));
        records.push(x_pos);
        assert!(parse_evidence_bytes(FORMAT.compose(records).as_bytes()).is_none());
    }

    #[test]
    fn digest_pins_content() {
        let a = sample_safe();
        let mut b = a.clone();
        b.iterations += 1;
        assert_ne!(a.digest(), b.digest());
        let mut c = a.clone();
        let EvidenceVerdict::Safe(safe) = &mut c.verdict else {
            unreachable!()
        };
        safe.proofs.clear();
        assert_ne!(a.digest(), c.digest());
    }
}
