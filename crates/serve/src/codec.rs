//! Exact text serialization of store records: the token codec every format
//! shares, and the query-cache records built on it.
//!
//! The disk tier stores **full canonical keys**, not hashes: a record only
//! answers a [`QueryCache`](homc_smt::QueryCache) lookup when its key decodes
//! to a value that is `==` to the lookup's key, so a hash collision (or any
//! codec ambiguity) can never answer the wrong query — the worst a bad
//! record can do is miss. The format is a flat token stream:
//!
//! * tokens are separated by single spaces;
//! * integers are decimal (`i128` range, optional sign);
//! * strings (variable names) are length-prefixed — `<len>:<bytes>` — so any
//!   byte sequence round-trips, including spaces and newlines;
//! * structured values use one-letter prefix tags (`T`/`F`/`a`/`v`/`n`/`&`/`|`
//!   for formulas, `l`/`e` for relations, `S`/`U`/`K` and `s`/`u`/`k` for
//!   verdicts) followed by their parts, with explicit child counts.
//!
//! Decoding is total: every error path returns [`CodecError`], never panics,
//! and never allocates proportionally to a corrupted count field (children
//! are parsed one at a time — a huge count simply runs out of input).

use std::fmt::{self, Write as _};

use homc_abs::{AbsEnv, AbsTy, Predicate};
use homc_lang::kernel::FunName;
use homc_lang::types::SimpleTy;
use homc_smt::{Atom, CachedSat, CubeSat, Formula, LinExpr, Model, Rel, Var};

/// A malformed record payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodecError {
    /// What went wrong, with the byte offset where it was noticed.
    pub detail: String,
}

impl CodecError {
    fn new(detail: impl Into<String>, at: usize) -> CodecError {
        CodecError {
            detail: format!("{} (at byte {at})", detail.into()),
        }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed cache record: {}", self.detail)
    }
}

impl std::error::Error for CodecError {}

// ---------------------------------------------------------------- encoding

/// A length-prefixed string, `<len>:<bytes>`.
pub(crate) fn put_str(out: &mut String, s: &str) {
    let _ = write!(out, "{}:{s}", s.len());
}

pub(crate) fn put_var(out: &mut String, v: &Var) {
    put_str(out, v.name());
}

pub(crate) fn put_funname(out: &mut String, f: &FunName) {
    put_str(out, &f.0);
}

pub(crate) fn put_u64(out: &mut String, n: u64) {
    let _ = write!(out, "{n}");
}

pub(crate) fn put_usize(out: &mut String, n: usize) {
    let _ = write!(out, "{n}");
}

pub(crate) fn put_linexpr(out: &mut String, e: &LinExpr) {
    let _ = write!(out, "{} {}", e.constant_part(), e.iter().count());
    for (v, c) in e.iter() {
        let _ = write!(out, " {c} ");
        put_var(out, v);
    }
}

pub(crate) fn put_atom(out: &mut String, a: &Atom) {
    out.push(match a.rel() {
        Rel::Le => 'l',
        Rel::Eq => 'e',
    });
    out.push(' ');
    put_linexpr(out, a.lhs());
}

pub(crate) fn put_formula(out: &mut String, f: &Formula) {
    match f {
        Formula::True => out.push('T'),
        Formula::False => out.push('F'),
        Formula::Atom(a) => {
            out.push_str("a ");
            put_atom(out, a);
        }
        Formula::BVar(v) => {
            out.push_str("v ");
            put_var(out, v);
        }
        Formula::Not(g) => {
            out.push_str("n ");
            put_formula(out, g);
        }
        Formula::And(fs) | Formula::Or(fs) => {
            out.push(if matches!(f, Formula::And(_)) {
                '&'
            } else {
                '|'
            });
            out.push(' ');
            let _ = write!(out, "{}", fs.len());
            for g in fs {
                out.push(' ');
                put_formula(out, g);
            }
        }
    }
}

pub(crate) fn put_model(out: &mut String, m: &Model) {
    let ints: Vec<_> = m.ints().collect();
    let bools: Vec<_> = m.bools().collect();
    let _ = write!(out, "{}", ints.len());
    for (v, n) in ints {
        out.push(' ');
        put_var(out, v);
        out.push(' ');
        let _ = write!(out, "{n}");
    }
    out.push(' ');
    let _ = write!(out, "{}", bools.len());
    for (v, b) in bools {
        out.push(' ');
        put_var(out, v);
        out.push(' ');
        out.push(if b { '1' } else { '0' });
    }
}

fn put_simplety(out: &mut String, t: &SimpleTy) {
    match t {
        SimpleTy::Unit => out.push('u'),
        SimpleTy::Bool => out.push('b'),
        SimpleTy::Int => out.push('i'),
        SimpleTy::Fun(a, r) => {
            out.push_str("f ");
            put_simplety(out, a);
            out.push(' ');
            put_simplety(out, r);
        }
    }
}

fn put_predicate(out: &mut String, p: &Predicate) {
    put_var(out, p.nu());
    out.push(' ');
    put_formula(out, p.body());
}

fn put_absty(out: &mut String, t: &AbsTy) {
    match t {
        AbsTy::Base(st, preds) => {
            out.push_str("B ");
            put_simplety(out, st);
            out.push(' ');
            put_usize(out, preds.len());
            for p in preds {
                out.push(' ');
                put_predicate(out, p);
            }
        }
        AbsTy::Fun(x, a, r) => {
            out.push_str("F ");
            put_var(out, x);
            out.push(' ');
            put_absty(out, a);
            out.push(' ');
            put_absty(out, r);
        }
    }
}

/// Encodes a predicate environment as record payloads: one `E` per
/// function scheme, then one `R` per rand site (the artifact and evidence
/// formats share these records).
pub(crate) fn put_env(out: &mut Vec<String>, env: &AbsEnv) {
    for (f, scheme) in &env.schemes {
        let mut s = String::from("E ");
        put_funname(&mut s, f);
        s.push(' ');
        put_usize(&mut s, scheme.len());
        for (x, t) in scheme {
            s.push(' ');
            put_var(&mut s, x);
            s.push(' ');
            put_absty(&mut s, t);
        }
        out.push(s);
    }
    for (x, preds) in &env.rand_sites {
        let mut s = String::from("R ");
        put_var(&mut s, x);
        s.push(' ');
        put_usize(&mut s, preds.len());
        for p in preds {
            s.push(' ');
            put_predicate(&mut s, p);
        }
        out.push(s);
    }
}

/// Encodes a `check`-table key (`C <depth> <formula>`), the head of its
/// record.
pub(crate) fn encode_check_key(key: &(Formula, u32)) -> String {
    let mut out = format!("C {} ", key.1);
    put_formula(&mut out, &key.0);
    out
}

/// Encodes one `check`-table record (`C <depth> <formula> <verdict>`).
pub fn encode_check(key: &(Formula, u32), value: &CachedSat) -> String {
    let mut out = encode_check_key(key);
    out.push(' ');
    match value {
        CachedSat::Sat(m) => {
            out.push_str("S ");
            put_model(&mut out, m);
        }
        CachedSat::Unsat => out.push('U'),
        CachedSat::Unknown => out.push('K'),
    }
    out
}

/// Encodes a `cube`-table key (`Q <depth> <n> <atom>*`), the head of its
/// record.
pub(crate) fn encode_cube_key(key: &(Vec<Atom>, u32)) -> String {
    let mut out = format!("Q {} {}", key.1, key.0.len());
    for a in &key.0 {
        out.push(' ');
        put_atom(&mut out, a);
    }
    out
}

/// Encodes one `cube`-table record (`Q <depth> <n> <atom>* <verdict>`).
pub fn encode_cube(key: &(Vec<Atom>, u32), value: CubeSat) -> String {
    let mut out = encode_cube_key(key);
    out.push(' ');
    out.push(match value {
        CubeSat::Sat => 's',
        CubeSat::Unsat => 'u',
        CubeSat::Unknown => 'k',
    });
    out
}

// ---------------------------------------------------------------- decoding

/// How deep a stored formula may nest (see [`Cur::formula`]); the
/// verifier's queries and predicates stay far shallower.
const MAX_FORMULA_DEPTH: u32 = 256;

pub(crate) struct Cur<'a> {
    s: &'a str,
    pos: usize,
}

impl<'a> Cur<'a> {
    pub(crate) fn new(s: &'a str) -> Cur<'a> {
        Cur { s, pos: 0 }
    }

    pub(crate) fn err(&self, detail: impl Into<String>) -> CodecError {
        CodecError::new(detail, self.pos)
    }

    /// Consumes the single-space separator between tokens.
    pub(crate) fn sep(&mut self) -> Result<(), CodecError> {
        match self.s.as_bytes().get(self.pos) {
            Some(b' ') => {
                self.pos += 1;
                Ok(())
            }
            _ => Err(self.err("expected separator")),
        }
    }

    /// The next space-delimited token (does not consume the separator).
    pub(crate) fn tok(&mut self) -> Result<&'a str, CodecError> {
        let rest = &self.s[self.pos..];
        if rest.is_empty() {
            return Err(self.err("unexpected end of record"));
        }
        let end = rest.find(' ').unwrap_or(rest.len());
        if end == 0 {
            return Err(self.err("empty token"));
        }
        let t = &rest[..end];
        self.pos += end;
        Ok(t)
    }

    pub(crate) fn int(&mut self) -> Result<i128, CodecError> {
        let t = self.tok()?;
        t.parse::<i128>()
            .map_err(|_| self.err(format!("bad integer {t:?}")))
    }

    pub(crate) fn count(&mut self) -> Result<usize, CodecError> {
        let t = self.tok()?;
        t.parse::<usize>()
            .map_err(|_| self.err(format!("bad count {t:?}")))
    }

    /// A length-prefixed string (the inverse of [`put_str`]).
    pub(crate) fn str(&mut self) -> Result<&'a str, CodecError> {
        let rest = &self.s[self.pos..];
        let colon = rest
            .find(':')
            .ok_or_else(|| self.err("expected <len>:<name> string"))?;
        let len: usize = rest[..colon]
            .parse()
            .map_err(|_| self.err("bad string length"))?;
        let start = colon + 1;
        let name = rest
            .get(start..start + len)
            .ok_or_else(|| self.err("string extends past record or splits UTF-8"))?;
        self.pos += start + len;
        Ok(name)
    }

    pub(crate) fn var(&mut self) -> Result<Var, CodecError> {
        Ok(Var::new(self.str()?))
    }

    pub(crate) fn funname(&mut self) -> Result<FunName, CodecError> {
        Ok(FunName(self.str()?.to_string()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, CodecError> {
        let n = self.int()?;
        u64::try_from(n).map_err(|_| self.err("u64 out of range"))
    }

    pub(crate) fn linexpr(&mut self) -> Result<LinExpr, CodecError> {
        let k = self.int()?;
        self.sep()?;
        let n = self.count()?;
        let mut e = LinExpr::constant(k);
        for _ in 0..n {
            self.sep()?;
            let c = self.int()?;
            self.sep()?;
            let v = self.var()?;
            if c == 0 {
                return Err(self.err("zero coefficient in stored expression"));
            }
            e.add_term(c, v);
        }
        Ok(e)
    }

    pub(crate) fn atom(&mut self) -> Result<Atom, CodecError> {
        let tag = self.tok()?;
        self.sep()?;
        let lhs = self.linexpr()?;
        // Stored atoms are already canonical, so the normalizing constructors
        // are the identity on them — and they guarantee a decoded atom is a
        // well-formed key even if the payload was (checksum-validly) odd.
        match tag {
            "l" => Ok(Atom::le0(lhs)),
            "e" => Ok(Atom::eq0(lhs)),
            _ => Err(self.err(format!("bad relation tag {tag:?}"))),
        }
    }

    /// A formula, nested at most [`MAX_FORMULA_DEPTH`] deep: decoding, and
    /// later dropping, a formula recurses once per level, so a deeper one
    /// in a checksum-valid record is rejected before it can exhaust the
    /// stack.
    pub(crate) fn formula(&mut self) -> Result<Formula, CodecError> {
        self.formula_at(0)
    }

    fn formula_at(&mut self, depth: u32) -> Result<Formula, CodecError> {
        if depth > MAX_FORMULA_DEPTH {
            return Err(self.err("formula nested too deep"));
        }
        let tag = self.tok()?;
        match tag {
            "T" => Ok(Formula::True),
            "F" => Ok(Formula::False),
            "a" => {
                self.sep()?;
                Ok(Formula::Atom(self.atom()?))
            }
            "v" => {
                self.sep()?;
                Ok(Formula::BVar(self.var()?))
            }
            "n" => {
                self.sep()?;
                Ok(Formula::Not(Box::new(self.formula_at(depth + 1)?)))
            }
            "&" | "|" => {
                self.sep()?;
                let n = self.count()?;
                let mut fs = Vec::new();
                for _ in 0..n {
                    self.sep()?;
                    fs.push(self.formula_at(depth + 1)?);
                }
                // Raw variants, not the smart constructors: the key must
                // round-trip to the exact canonical form that was stored.
                Ok(if tag == "&" {
                    Formula::And(fs)
                } else {
                    Formula::Or(fs)
                })
            }
            _ => Err(self.err(format!("bad formula tag {tag:?}"))),
        }
    }

    pub(crate) fn model(&mut self) -> Result<Model, CodecError> {
        let mut ints = std::collections::BTreeMap::new();
        let n = self.count()?;
        for _ in 0..n {
            self.sep()?;
            let v = self.var()?;
            self.sep()?;
            ints.insert(v, self.int()?);
        }
        self.sep()?;
        let mut bools = std::collections::BTreeMap::new();
        let n = self.count()?;
        for _ in 0..n {
            self.sep()?;
            let v = self.var()?;
            self.sep()?;
            let b = match self.tok()? {
                "1" => true,
                "0" => false,
                t => return Err(self.err(format!("bad boolean {t:?}"))),
            };
            bools.insert(v, b);
        }
        Ok(Model::new(ints, bools))
    }

    fn simplety(&mut self) -> Result<SimpleTy, CodecError> {
        match self.tok()? {
            "u" => Ok(SimpleTy::Unit),
            "b" => Ok(SimpleTy::Bool),
            "i" => Ok(SimpleTy::Int),
            "f" => {
                self.sep()?;
                let a = self.simplety()?;
                self.sep()?;
                let r = self.simplety()?;
                Ok(SimpleTy::Fun(Box::new(a), Box::new(r)))
            }
            t => Err(self.err(format!("bad simple-type tag {t:?}"))),
        }
    }

    fn predicate(&mut self) -> Result<Predicate, CodecError> {
        let nu = self.var()?;
        self.sep()?;
        let body = self.formula()?;
        Ok(Predicate::new(nu, body))
    }

    fn absty(&mut self) -> Result<AbsTy, CodecError> {
        match self.tok()? {
            "B" => {
                self.sep()?;
                let st = self.simplety()?;
                self.sep()?;
                let n = self.count()?;
                let mut preds = Vec::new();
                for _ in 0..n {
                    self.sep()?;
                    preds.push(self.predicate()?);
                }
                Ok(AbsTy::Base(st, preds))
            }
            "F" => {
                self.sep()?;
                let x = self.var()?;
                self.sep()?;
                let a = self.absty()?;
                self.sep()?;
                let r = self.absty()?;
                Ok(AbsTy::Fun(x, Box::new(a), Box::new(r)))
            }
            t => Err(self.err(format!("bad abs-type tag {t:?}"))),
        }
    }

    /// Decodes the rest of an `E` or `R` record (see [`put_env`]) into
    /// `env`, rejecting a second record for the same function or site.
    pub(crate) fn env_record(&mut self, tag: &str, env: &mut AbsEnv) -> Result<(), CodecError> {
        self.sep()?;
        if tag == "E" {
            let f = self.funname()?;
            self.sep()?;
            let n = self.count()?;
            let mut scheme = Vec::new();
            for _ in 0..n {
                self.sep()?;
                let x = self.var()?;
                self.sep()?;
                scheme.push((x, self.absty()?));
            }
            self.end()?;
            if env.schemes.insert(f, scheme).is_some() {
                return Err(self.err("duplicate scheme record"));
            }
        } else {
            let x = self.var()?;
            self.sep()?;
            let n = self.count()?;
            let mut preds = Vec::new();
            for _ in 0..n {
                self.sep()?;
                preds.push(self.predicate()?);
            }
            self.end()?;
            if env.rand_sites.insert(x, preds).is_some() {
                return Err(self.err("duplicate rand-site record"));
            }
        }
        Ok(())
    }

    pub(crate) fn end(&self) -> Result<(), CodecError> {
        if self.pos == self.s.len() {
            Ok(())
        } else {
            Err(self.err("trailing bytes after record"))
        }
    }
}

/// A decoded record of either persisted table.
#[derive(Clone, Debug)]
pub enum Record {
    /// A `check`-table entry.
    Check {
        /// The canonical formula plus branch & bound depth.
        key: (Formula, u32),
        /// The memoized verdict.
        value: CachedSat,
    },
    /// A `cube`-table entry.
    Cube {
        /// The sorted atom list plus split depth.
        key: (Vec<Atom>, u32),
        /// The memoized tri-state.
        value: CubeSat,
    },
}

/// Decodes one record payload (as produced by [`encode_check`] /
/// [`encode_cube`]).
pub fn decode_record(payload: &str) -> Result<Record, CodecError> {
    let mut c = Cur::new(payload);
    let tag = c.tok()?;
    match tag {
        "C" => {
            c.sep()?;
            let depth = c
                .count()?
                .try_into()
                .map_err(|_| c.err("depth out of range"))?;
            c.sep()?;
            let f = c.formula()?;
            c.sep()?;
            let value = match c.tok()? {
                "S" => {
                    c.sep()?;
                    CachedSat::Sat(c.model()?)
                }
                "U" => CachedSat::Unsat,
                "K" => CachedSat::Unknown,
                t => return Err(c.err(format!("bad verdict tag {t:?}"))),
            };
            c.end()?;
            Ok(Record::Check {
                key: (f, depth),
                value,
            })
        }
        "Q" => {
            c.sep()?;
            let depth = c
                .count()?
                .try_into()
                .map_err(|_| c.err("depth out of range"))?;
            c.sep()?;
            let n = c.count()?;
            let mut atoms = Vec::new();
            for _ in 0..n {
                c.sep()?;
                atoms.push(c.atom()?);
            }
            c.sep()?;
            let value = match c.tok()? {
                "s" => CubeSat::Sat,
                "u" => CubeSat::Unsat,
                "k" => CubeSat::Unknown,
                t => return Err(c.err(format!("bad verdict tag {t:?}"))),
            };
            c.end()?;
            Ok(Record::Cube {
                key: (atoms, depth),
                value,
            })
        }
        _ => Err(c.err(format!("bad record tag {tag:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn x() -> LinExpr {
        LinExpr::var("x")
    }

    fn roundtrip_check(key: (Formula, u32), value: CachedSat) {
        let payload = encode_check(&key, &value);
        match decode_record(&payload).expect(&payload) {
            Record::Check { key: k, value: v } => {
                assert_eq!(k, key, "{payload}");
                match (&v, &value) {
                    (CachedSat::Sat(a), CachedSat::Sat(b)) => assert_eq!(a, b),
                    (CachedSat::Unsat, CachedSat::Unsat) => {}
                    (CachedSat::Unknown, CachedSat::Unknown) => {}
                    other => panic!("verdict changed: {other:?}"),
                }
            }
            r => panic!("wrong table: {r:?}"),
        }
    }

    #[test]
    fn check_records_roundtrip() {
        let f = Formula::And(vec![
            Formula::Atom(Atom::le(x() * 3, LinExpr::constant(7))),
            Formula::Or(vec![
                Formula::BVar(Var::new("p")),
                Formula::Not(Box::new(Formula::BVar(Var::new("q")))),
            ]),
            Formula::True,
        ]);
        roundtrip_check((f.clone(), 48), CachedSat::Unsat);
        roundtrip_check((f.clone(), 0), CachedSat::Unknown);
        let m = Model::new(
            BTreeMap::from([(Var::new("x"), -17i128), (Var::new("y"), i128::MAX)]),
            BTreeMap::from([(Var::new("p"), true), (Var::new("q"), false)]),
        );
        roundtrip_check((f, 48), CachedSat::Sat(m));
        roundtrip_check((Formula::False, 1), CachedSat::Unsat);
    }

    #[test]
    fn hostile_variable_names_roundtrip() {
        // Spaces, colons, newlines, and multi-byte UTF-8 in names must all
        // survive the length-prefixed string encoding.
        for name in ["a b", "x:1", "line\nbreak", "π₁'", "7:", ""] {
            let f = Formula::BVar(Var::new(name));
            roundtrip_check((f, 2), CachedSat::Unknown);
        }
    }

    #[test]
    fn cube_records_roundtrip() {
        let key = (
            vec![
                Atom::le(x(), LinExpr::constant(3)),
                Atom::eq(LinExpr::var("y") - x(), LinExpr::constant(0)),
            ],
            24u32,
        );
        for v in [CubeSat::Sat, CubeSat::Unsat, CubeSat::Unknown] {
            let payload = encode_cube(&key, v);
            match decode_record(&payload).expect(&payload) {
                Record::Cube { key: k, value } => {
                    assert_eq!(k, key);
                    assert_eq!(value, v);
                }
                r => panic!("wrong table: {r:?}"),
            }
        }
    }

    #[test]
    fn corrupted_payloads_error_cleanly() {
        let good = encode_check(&(Formula::BVar(Var::new("ok")), 48), &CachedSat::Unsat);
        // Every prefix truncation must error, never panic.
        for cut in 0..good.len() {
            assert!(decode_record(&good[..cut]).is_err(), "prefix {cut}");
        }
        // Assorted garbage.
        for bad in [
            "",
            "Z 1 T U",
            "C x T U",
            "C 48 T U trailing",
            "C 48 & 99 T U",         // count larger than the input
            "C 48 a l 0 1 0 3:ab U", // zero coefficient
            "C 48 v 5:ab U",         // string length past the end
            "Q 24 1 l 0 0 z",        // bad cube verdict
        ] {
            assert!(decode_record(bad).is_err(), "{bad:?}");
        }
    }
}
