//! The versioned on-disk **abstraction-artifact store** — cross-run
//! persistence for the incremental re-verification pipeline.
//!
//! Where the disk query cache (sibling module [`crate::disk`]) persists
//! raw SMT answers, this store persists the *products of a whole CEGAR
//! run* for one program:
//!
//! * the kernel [`Manifest`] — per-definition content hashes and depth-1
//!   cone hashes the diff-and-seed driver compares on resubmission;
//! * the winning predicate environment ([`AbsEnv`]) — seeded (restricted
//!   to unchanged definitions) into the next run's initial environment;
//! * the final transition-memo entries ([`MemoDefExport`]) — replayed
//!   verbatim for definitions whose cone is unchanged;
//! * a list of cube-pair interpolants (`I` records), which the verifier
//!   publishes empty and no longer reads: the list and its codec stay so
//!   older artifacts still decode.
//!
//! Each program key has one `.art` file in the framed-file store, of record
//! payloads in the [`crate::codec`] style. Soundness does not rest on its
//! integrity: everything seeded from an artifact is a *candidate*
//! (predicates, cone-fingerprinted memo entries), so even a
//! checksum-forging corruption could cost iterations, never verdicts.

use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};

use homc_abs::{AbsEnv, MemoDefExport};
use homc_hbp::{BDef, BExpr, BTy, BVal, BoolExpr};
use homc_lang::kernel::FunName;
use homc_lang::manifest::{DefEntry, Manifest};
use homc_metrics::{Counter, Metrics};
use homc_smt::{Formula, InterpKey, Literal};

use crate::codec::{
    put_atom, put_env, put_formula, put_funname, put_u64, put_usize, put_var, CodecError, Cur,
};
use crate::store::{Format, Naming, Store};

/// First bytes of every artifact file.
pub const ARTIFACT_MAGIC: &str = "homc-artifact";
/// Schema version of the record payloads; bump on any codec change.
pub const ARTIFACT_VERSION: u32 = 1;

/// Artifacts can be rebuilt, so stale files are removed. The pieces are
/// interdependent (a memo entry is only meaningful next to the manifest it
/// was fingerprinted against), so a partial artifact is never seeded: one
/// bad record quarantines the whole file.
static FORMAT: Format = Format {
    magic: ARTIFACT_MAGIC,
    version: ARTIFACT_VERSION,
    naming: Naming::Keyed { ext: "art" },
    reclaim_stale: true,
    counter: Counter::ArtifactQuarantine,
};

/// Everything one verification run persists for its program.
#[derive(Clone, Debug)]
pub struct Artifact {
    /// Per-definition fingerprints of the kernel normal form.
    pub manifest: Manifest,
    /// The final (winning) predicate environment.
    pub env: AbsEnv,
    /// Final transition-memo entries, exported per definition.
    pub memo: Vec<MemoDefExport>,
    /// Cube-pair interpolants. The verifier publishes this empty and reads
    /// nothing from it; it stays so older artifacts still decode and
    /// because the repository benchmark fills it. It goes with the
    /// benchmark's next change.
    pub interp: Vec<(InterpKey, Option<Formula>)>,
}

/// Handle to one artifact directory (shared with, or next to, a query
/// cache directory — the file-name namespaces don't collide).
#[derive(Clone, Debug)]
pub struct ArtifactStore {
    store: Store,
}

impl ArtifactStore {
    /// A store rooted at `dir` (created on first publish).
    pub fn new(dir: impl Into<PathBuf>) -> ArtifactStore {
        ArtifactStore {
            store: Store::new(dir, &FORMAT),
        }
    }

    /// Attaches a metrics registry ([`Counter::ArtifactQuarantine`]).
    pub fn with_metrics(self, metrics: Metrics) -> ArtifactStore {
        ArtifactStore {
            store: self.store.with_metrics(metrics),
        }
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        self.store.dir()
    }

    /// The file path for a program key. The key (a suite program name or a
    /// source path) is slugged for the filesystem and disambiguated by its
    /// full FNV hash, so distinct keys never share a file.
    pub fn path_for(&self, key: &str) -> PathBuf {
        self.store.path_for(key)
    }

    /// Loads the artifact for `key`. A `None` artifact with
    /// `quarantined: false` is a clean miss; with `quarantined: true` the
    /// file failed an integrity check and has been renamed to
    /// `<name>.quarantined` (and counted) — either way the caller proceeds
    /// cold.
    pub fn load(&self, key: &str) -> io::Result<ArtifactLoad> {
        let (artifact, quarantined) = self
            .store
            .load_key(key, |bytes| FORMAT.parse(bytes, decode_into, finish));
        Ok(ArtifactLoad {
            artifact,
            quarantined,
        })
    }

    /// Publishes `artifact` under `key`, atomically replacing any previous
    /// artifact for the same key.
    pub fn publish(&self, key: &str, artifact: &Artifact) -> io::Result<PathBuf> {
        let text = FORMAT.compose(encode_artifact(artifact));
        self.store.publish_key(key, text.as_bytes())
    }
}

/// What [`ArtifactStore::load`] found and did.
#[derive(Clone, Debug, Default)]
pub struct ArtifactLoad {
    /// The decoded artifact, when one was present and intact.
    pub artifact: Option<Artifact>,
    /// `true` when a file existed but failed an integrity check and was
    /// quarantined.
    pub quarantined: bool,
}

// ---------------------------------------------------------------- encoding

fn put_bty(out: &mut String, t: &BTy) {
    match t {
        BTy::Tuple(w) => {
            out.push_str("t ");
            put_usize(out, *w);
        }
        BTy::Fun(a, r) => {
            out.push_str("f ");
            put_bty(out, a);
            out.push(' ');
            put_bty(out, r);
        }
    }
}

fn put_boolexpr(out: &mut String, e: &BoolExpr) {
    match e {
        BoolExpr::Const(b) => out.push_str(if *b { "c1" } else { "c0" }),
        BoolExpr::Proj(x, i) => {
            out.push_str("p ");
            put_var(out, x);
            out.push(' ');
            put_usize(out, *i);
        }
        BoolExpr::Not(g) => {
            out.push_str("! ");
            put_boolexpr(out, g);
        }
        BoolExpr::And(gs) | BoolExpr::Or(gs) => {
            out.push(if matches!(e, BoolExpr::And(_)) {
                '&'
            } else {
                '|'
            });
            out.push(' ');
            put_usize(out, gs.len());
            for g in gs {
                out.push(' ');
                put_boolexpr(out, g);
            }
        }
    }
}

fn put_bval(out: &mut String, v: &BVal) {
    match v {
        BVal::Tuple(es) => {
            out.push_str("T ");
            put_usize(out, es.len());
            for e in es {
                out.push(' ');
                put_boolexpr(out, e);
            }
        }
        BVal::Var(x) => {
            out.push_str("V ");
            put_var(out, x);
        }
        BVal::Fun(f) => {
            out.push_str("G ");
            put_funname(out, f);
        }
        BVal::PApp(h, args) => {
            out.push_str("A ");
            put_bval(out, h);
            out.push(' ');
            put_usize(out, args.len());
            for a in args {
                out.push(' ');
                put_bval(out, a);
            }
        }
    }
}

fn put_bexpr(out: &mut String, e: &BExpr) {
    match e {
        BExpr::Value(v) => {
            out.push_str("v ");
            put_bval(out, v);
        }
        BExpr::Call(h, args) => {
            out.push_str("c ");
            put_bval(out, h);
            out.push(' ');
            put_usize(out, args.len());
            for a in args {
                out.push(' ');
                put_bval(out, a);
            }
        }
        BExpr::Let(x, rhs, body) => {
            out.push_str("l ");
            put_var(out, x);
            out.push(' ');
            put_bexpr(out, rhs);
            out.push(' ');
            put_bexpr(out, body);
        }
        BExpr::SChoice(l, r) => {
            out.push_str("s ");
            put_bexpr(out, l);
            out.push(' ');
            put_bexpr(out, r);
        }
        BExpr::AChoice(l, r) => {
            out.push_str("a ");
            put_bexpr(out, l);
            out.push(' ');
            put_bexpr(out, r);
        }
        BExpr::Assume(c, body) => {
            out.push_str("m ");
            put_boolexpr(out, c);
            out.push(' ');
            put_bexpr(out, body);
        }
        BExpr::Fail => out.push('f'),
    }
}

fn put_bdef(out: &mut String, d: &BDef) {
    put_funname(out, &d.name);
    out.push(' ');
    put_usize(out, d.params.len());
    for (x, t) in &d.params {
        out.push(' ');
        put_var(out, x);
        out.push(' ');
        put_bty(out, t);
    }
    out.push(' ');
    put_bexpr(out, &d.body);
}

fn put_literal(out: &mut String, l: &Literal) {
    match l {
        Literal::Arith(a) => {
            out.push_str("A ");
            put_atom(out, a);
        }
        Literal::Bool(v, pol) => {
            out.push_str("B ");
            put_var(out, v);
            out.push(' ');
            out.push(if *pol { '1' } else { '0' });
        }
    }
}

/// Encodes an artifact as one record payload per logical piece: an `H`
/// header, `M` manifest entries, `E` schemes, `R` rand sites, `D` memo
/// entries, and `I` interpolants.
fn encode_artifact(a: &Artifact) -> Vec<String> {
    let mut out = Vec::new();
    {
        let mut s = String::from("H ");
        put_funname(&mut s, &a.manifest.main);
        s.push(' ');
        put_usize(&mut s, a.manifest.defs.len());
        out.push(s);
    }
    for (i, d) in a.manifest.defs.iter().enumerate() {
        let mut s = String::from("M ");
        put_usize(&mut s, i);
        s.push(' ');
        put_funname(&mut s, &d.name);
        s.push(' ');
        put_u64(&mut s, d.body_hash);
        s.push(' ');
        put_u64(&mut s, d.cone_hash);
        out.push(s);
    }
    put_env(&mut out, &a.env);
    for e in &a.memo {
        let mut s = String::from("D ");
        put_usize(&mut s, e.index);
        s.push(' ');
        put_funname(&mut s, &e.name);
        s.push(' ');
        put_u64(&mut s, e.fp);
        s.push(' ');
        put_usize(&mut s, e.sat_queries);
        s.push(' ');
        put_usize(&mut s, e.coercions);
        s.push(' ');
        put_usize(&mut s, e.ctx_truncated);
        s.push(' ');
        put_usize(&mut s, e.defs.len());
        for d in &e.defs {
            s.push(' ');
            put_bdef(&mut s, d);
        }
        out.push(s);
    }
    for ((a1, a2, depth), value) in &a.interp {
        let mut s = String::from("I ");
        put_usize(&mut s, *depth as usize);
        s.push(' ');
        put_usize(&mut s, a1.len());
        for l in a1 {
            s.push(' ');
            put_literal(&mut s, l);
        }
        s.push(' ');
        put_usize(&mut s, a2.len());
        for l in a2 {
            s.push(' ');
            put_literal(&mut s, l);
        }
        s.push(' ');
        match value {
            Some(f) => {
                s.push_str("1 ");
                put_formula(&mut s, f);
            }
            None => s.push('0'),
        }
        out.push(s);
    }
    out
}

// ---------------------------------------------------------------- decoding

fn get_bty(c: &mut Cur<'_>) -> Result<BTy, CodecError> {
    match c.tok()? {
        "t" => {
            c.sep()?;
            Ok(BTy::Tuple(c.count()?))
        }
        "f" => {
            c.sep()?;
            let a = get_bty(c)?;
            c.sep()?;
            let r = get_bty(c)?;
            Ok(BTy::Fun(Box::new(a), Box::new(r)))
        }
        t => Err(c.err(format!("bad boolean-type tag {t:?}"))),
    }
}

fn get_boolexpr(c: &mut Cur<'_>) -> Result<BoolExpr, CodecError> {
    match c.tok()? {
        "c0" => Ok(BoolExpr::Const(false)),
        "c1" => Ok(BoolExpr::Const(true)),
        "p" => {
            c.sep()?;
            let x = c.var()?;
            c.sep()?;
            Ok(BoolExpr::Proj(x, c.count()?))
        }
        "!" => {
            c.sep()?;
            Ok(BoolExpr::Not(Box::new(get_boolexpr(c)?)))
        }
        tag @ ("&" | "|") => {
            c.sep()?;
            let n = c.count()?;
            let mut gs = Vec::new();
            for _ in 0..n {
                c.sep()?;
                gs.push(get_boolexpr(c)?);
            }
            Ok(if tag == "&" {
                BoolExpr::And(gs)
            } else {
                BoolExpr::Or(gs)
            })
        }
        t => Err(c.err(format!("bad boolean-expression tag {t:?}"))),
    }
}

fn get_bval(c: &mut Cur<'_>) -> Result<BVal, CodecError> {
    match c.tok()? {
        "T" => {
            c.sep()?;
            let n = c.count()?;
            let mut es = Vec::new();
            for _ in 0..n {
                c.sep()?;
                es.push(get_boolexpr(c)?);
            }
            Ok(BVal::Tuple(es))
        }
        "V" => {
            c.sep()?;
            Ok(BVal::Var(c.var()?))
        }
        "G" => {
            c.sep()?;
            Ok(BVal::Fun(c.funname()?))
        }
        "A" => {
            c.sep()?;
            let h = get_bval(c)?;
            c.sep()?;
            let n = c.count()?;
            let mut args = Vec::new();
            for _ in 0..n {
                c.sep()?;
                args.push(get_bval(c)?);
            }
            Ok(BVal::PApp(Box::new(h), args))
        }
        t => Err(c.err(format!("bad boolean-value tag {t:?}"))),
    }
}

fn get_bexpr(c: &mut Cur<'_>) -> Result<BExpr, CodecError> {
    match c.tok()? {
        "v" => {
            c.sep()?;
            Ok(BExpr::Value(get_bval(c)?))
        }
        "c" => {
            c.sep()?;
            let h = get_bval(c)?;
            c.sep()?;
            let n = c.count()?;
            let mut args = Vec::new();
            for _ in 0..n {
                c.sep()?;
                args.push(get_bval(c)?);
            }
            Ok(BExpr::Call(h, args))
        }
        "l" => {
            c.sep()?;
            let x = c.var()?;
            c.sep()?;
            let rhs = get_bexpr(c)?;
            c.sep()?;
            let body = get_bexpr(c)?;
            Ok(BExpr::Let(x, Box::new(rhs), Box::new(body)))
        }
        "s" => {
            c.sep()?;
            let l = get_bexpr(c)?;
            c.sep()?;
            let r = get_bexpr(c)?;
            Ok(BExpr::SChoice(Box::new(l), Box::new(r)))
        }
        "a" => {
            c.sep()?;
            let l = get_bexpr(c)?;
            c.sep()?;
            let r = get_bexpr(c)?;
            Ok(BExpr::AChoice(Box::new(l), Box::new(r)))
        }
        "m" => {
            c.sep()?;
            let cond = get_boolexpr(c)?;
            c.sep()?;
            let body = get_bexpr(c)?;
            Ok(BExpr::Assume(cond, Box::new(body)))
        }
        "f" => Ok(BExpr::Fail),
        t => Err(c.err(format!("bad boolean-program tag {t:?}"))),
    }
}

fn get_bdef(c: &mut Cur<'_>) -> Result<BDef, CodecError> {
    let name = c.funname()?;
    c.sep()?;
    let n = c.count()?;
    let mut params = Vec::new();
    for _ in 0..n {
        c.sep()?;
        let x = c.var()?;
        c.sep()?;
        params.push((x, get_bty(c)?));
    }
    c.sep()?;
    let body = get_bexpr(c)?;
    Ok(BDef { name, params, body })
}

fn get_literal(c: &mut Cur<'_>) -> Result<Literal, CodecError> {
    match c.tok()? {
        "A" => {
            c.sep()?;
            Ok(Literal::Arith(c.atom()?))
        }
        "B" => {
            c.sep()?;
            let v = c.var()?;
            c.sep()?;
            match c.tok()? {
                "1" => Ok(Literal::Bool(v, true)),
                "0" => Ok(Literal::Bool(v, false)),
                t => Err(c.err(format!("bad polarity {t:?}"))),
            }
        }
        t => Err(c.err(format!("bad literal tag {t:?}"))),
    }
}

/// Decodes one record payload into `partial`; structural errors surface as
/// `CodecError` so the caller quarantines the whole file.
fn decode_into(payload: &str, partial: &mut PartialArtifact) -> Result<(), CodecError> {
    let mut c = Cur::new(payload);
    match c.tok()? {
        "H" => {
            c.sep()?;
            let main = c.funname()?;
            c.sep()?;
            let n = c.count()?;
            c.end()?;
            if partial.header.replace((main, n)).is_some() {
                return Err(c.err("duplicate header record"));
            }
        }
        "M" => {
            c.sep()?;
            let index = c.count()?;
            c.sep()?;
            let name = c.funname()?;
            c.sep()?;
            let body_hash = c.u64()?;
            c.sep()?;
            let cone_hash = c.u64()?;
            c.end()?;
            partial.defs.push((
                index,
                DefEntry {
                    name,
                    body_hash,
                    cone_hash,
                },
            ));
        }
        tag @ ("E" | "R") => c.env_record(tag, &mut partial.env)?,
        "D" => {
            c.sep()?;
            let index = c.count()?;
            c.sep()?;
            let name = c.funname()?;
            c.sep()?;
            let fp = c.u64()?;
            c.sep()?;
            let sat_queries = c.count()?;
            c.sep()?;
            let coercions = c.count()?;
            c.sep()?;
            let ctx_truncated = c.count()?;
            c.sep()?;
            let n = c.count()?;
            let mut defs = Vec::new();
            for _ in 0..n {
                c.sep()?;
                defs.push(get_bdef(&mut c)?);
            }
            c.end()?;
            partial.memo.push(MemoDefExport {
                index,
                name,
                fp,
                sat_queries,
                coercions,
                ctx_truncated,
                defs,
            });
        }
        "I" => {
            c.sep()?;
            let depth = c.count()?;
            let depth =
                u32::try_from(depth).map_err(|_| c.err("interpolation depth out of range"))?;
            c.sep()?;
            let n1 = c.count()?;
            let mut a1 = Vec::new();
            for _ in 0..n1 {
                c.sep()?;
                a1.push(get_literal(&mut c)?);
            }
            c.sep()?;
            let n2 = c.count()?;
            let mut a2 = Vec::new();
            for _ in 0..n2 {
                c.sep()?;
                a2.push(get_literal(&mut c)?);
            }
            c.sep()?;
            let value = match c.tok()? {
                "0" => None,
                "1" => {
                    c.sep()?;
                    Some(c.formula()?)
                }
                t => return Err(c.err(format!("bad interpolant presence {t:?}"))),
            };
            c.end()?;
            partial.interp.push(((a1, a2, depth), value));
        }
        t => return Err(c.err(format!("bad artifact record tag {t:?}"))),
    }
    Ok(())
}

#[derive(Default)]
struct PartialArtifact {
    header: Option<(FunName, usize)>,
    defs: Vec<(usize, DefEntry)>,
    env: AbsEnv,
    memo: Vec<MemoDefExport>,
    interp: Vec<(InterpKey, Option<Formula>)>,
}

/// Structural validation: the manifest must be complete and contiguous.
fn finish(mut partial: PartialArtifact) -> Option<Artifact> {
    let (main, ndefs) = partial.header?;
    if partial.defs.len() != ndefs {
        return None;
    }
    partial.defs.sort_by_key(|(i, _)| *i);
    let contiguous = partial.defs.iter().enumerate().all(|(i, (j, _))| i == *j);
    let distinct: BTreeSet<usize> = partial.defs.iter().map(|(i, _)| *i).collect();
    if !contiguous || distinct.len() != ndefs {
        return None;
    }
    Some(Artifact {
        manifest: Manifest {
            defs: partial.defs.into_iter().map(|(_, d)| d).collect(),
            main,
        },
        env: partial.env,
        memo: partial.memo,
        interp: partial.interp,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use homc_abs::Predicate;
    use homc_lang::frontend;
    use homc_smt::{Atom, LinExpr, Var};
    use std::fs;

    fn tmpdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("homc-artifact-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn sample_artifact() -> Artifact {
        let p = frontend(
            "let f x g = g (x + 1) in
             let h y = assert (y > 0) in
             let k n = if n > 0 then f n h else () in
             k m",
        )
        .unwrap()
        .cps;
        let mut env = AbsEnv::initial(&p);
        // A non-trivial scheme entry and rand site so the codec's predicate
        // paths are exercised.
        let nu = Var::new("nu");
        let pred = Predicate::new(
            nu.clone(),
            Formula::Atom(Atom::le(LinExpr::constant(0), LinExpr::var("nu"))),
        );
        env.rand_sites.insert(Var::new("r1"), vec![pred.clone()]);
        let memo = vec![MemoDefExport {
            index: 0,
            name: p.defs[0].name.clone(),
            fp: 0xdead_beef,
            sat_queries: 7,
            coercions: 1,
            ctx_truncated: 0,
            defs: vec![BDef {
                name: FunName("f#0".into()),
                params: vec![(Var::new("x"), BTy::Tuple(1))],
                body: BExpr::SChoice(
                    Box::new(BExpr::Assume(
                        BoolExpr::Proj(Var::new("x"), 0),
                        Box::new(BExpr::Fail),
                    )),
                    Box::new(BExpr::Value(BVal::Tuple(vec![]))),
                ),
            }],
        }];
        let interp = vec![
            (
                (
                    vec![Literal::Arith(Atom::le(
                        LinExpr::var("a"),
                        LinExpr::constant(3),
                    ))],
                    vec![Literal::Bool(Var::new("b"), false)],
                    24,
                ),
                Some(Formula::Atom(Atom::le(
                    LinExpr::var("a"),
                    LinExpr::constant(3),
                ))),
            ),
            ((vec![], vec![], 0), None),
        ];
        Artifact {
            manifest: Manifest::of(&p),
            env,
            memo,
            interp,
        }
    }

    #[test]
    fn publish_then_load_roundtrips() {
        let dir = tmpdir("roundtrip");
        let store = ArtifactStore::new(&dir);
        let art = sample_artifact();
        store.publish("l-zipmap", &art).unwrap();
        let back = store
            .load("l-zipmap")
            .unwrap()
            .artifact
            .expect("artifact present");
        assert_eq!(back.manifest, art.manifest);
        assert_eq!(back.env.schemes, art.env.schemes);
        assert_eq!(back.env.rand_sites.len(), art.env.rand_sites.len());
        assert_eq!(back.memo.len(), art.memo.len());
        assert_eq!(back.memo[0].fp, art.memo[0].fp);
        assert_eq!(
            format!("{:?}", back.memo[0].defs),
            format!("{:?}", art.memo[0].defs)
        );
        assert_eq!(back.interp.len(), art.interp.len());
        assert_eq!(back.interp[0].0, art.interp[0].0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn distinct_keys_use_distinct_files() {
        let store = ArtifactStore::new("x");
        assert_ne!(store.path_for("a/b"), store.path_for("a_b"));
        assert_ne!(store.path_for("p"), store.path_for("q"));
    }

    #[test]
    fn missing_artifact_is_none() {
        let dir = tmpdir("missing");
        let store = ArtifactStore::new(&dir);
        let miss = store.load("nothing").unwrap();
        assert!(miss.artifact.is_none());
        assert!(!miss.quarantined);
    }

    #[test]
    fn any_byte_flip_quarantines_whole_file() {
        let dir = tmpdir("byteflip");
        let art = sample_artifact();
        // Flip a payload byte (inside the first record, past the header and
        // frame fields) — the checksum must reject the file wholesale.
        let metrics = Metrics::new(true);
        let store = ArtifactStore::new(&dir).with_metrics(metrics.clone());
        let path = store.publish("k", &art).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let off = ARTIFACT_MAGIC.len() + 4 + 26 + 2;
        bytes[off] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let load = store.load("k").unwrap();
        assert!(load.artifact.is_none());
        assert!(load.quarantined);
        assert!(!path.exists(), "corrupt artifact file renamed away");
        let mut q = path.as_os_str().to_owned();
        q.push(".quarantined");
        assert!(PathBuf::from(q).exists());
        assert_eq!(metrics.snapshot().counter(Counter::ArtifactQuarantine), 1);
        // Quarantined files are never re-read: the next load is a clean miss.
        assert!(!store.load("k").unwrap().quarantined);
        assert_eq!(metrics.snapshot().counter(Counter::ArtifactQuarantine), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_mismatch_cold_starts_without_quarantine() {
        let dir = tmpdir("stale");
        fs::create_dir_all(&dir).unwrap();
        let metrics = Metrics::new(true);
        let store = ArtifactStore::new(&dir).with_metrics(metrics.clone());
        fs::write(store.path_for("k"), "homc-artifact v999\n").unwrap();
        let load = store.load("k").unwrap();
        assert!(load.artifact.is_none());
        assert!(!load.quarantined);
        assert!(!store.path_for("k").exists(), "stale artifact removed");
        assert_eq!(metrics.snapshot().counter(Counter::ArtifactQuarantine), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_manifest_is_corrupt() {
        let dir = tmpdir("structural");
        let store = ArtifactStore::new(&dir);
        let art = sample_artifact();
        let path = store.publish("k", &art).unwrap();
        // Drop the last record line (could be any; the manifest def count
        // no longer matches the header if an M record goes, and a missing
        // header is corrupt outright). Removing the *first* record (H) is
        // the strongest case.
        let text = fs::read_to_string(&path).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        lines.remove(1);
        fs::write(&path, format!("{}\n", lines.join("\n"))).unwrap();
        let load = store.load("k").unwrap();
        assert!(load.artifact.is_none());
        assert!(load.quarantined);
        assert!(!path.exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
