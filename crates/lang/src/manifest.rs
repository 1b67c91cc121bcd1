//! Stable per-definition fingerprints over the kernel normal form.
//!
//! Cross-run incremental re-verification needs to know *which definitions
//! changed* between two submissions of a program. A [`Manifest`] records,
//! for every top-level definition of a kernel [`Program`], a content hash
//! of the definition itself (`body_hash`) and a hash of its depth-1
//! dependency cone (`cone_hash`) — the same cone discipline the
//! transition memo in `homc-abs::incremental` uses: a definition depends
//! on every top-level function its body mentions in value position.
//!
//! Hashes are [`stable_hash64`] (FNV-1a) over the kernel's deterministic
//! `Display` rendering, so they are stable across processes and runs and
//! insensitive to anything but the normal form itself. Two submissions
//! whose surface text differs only in ways the front end normalizes away
//! (whitespace, redundant parens) produce identical manifests.

use std::collections::{BTreeMap, BTreeSet};

use homc_trace::stable_hash64;

use crate::kernel::{Def, Expr, FunName, Program, Value};

/// The fingerprint of one top-level definition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DefEntry {
    /// The definition's name.
    pub name: FunName,
    /// Hash of the definition's own rendering (name, typed parameters,
    /// return type, body).
    pub body_hash: u64,
    /// Hash of `body_hash` plus the `(name, body_hash)` pairs of every
    /// top-level function the body references — a change anywhere in the
    /// depth-1 cone perturbs this.
    pub cone_hash: u64,
}

/// A per-program manifest: one [`DefEntry`] per definition, in program
/// order, plus the entry point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// Entries in the same order as [`Program::defs`].
    pub defs: Vec<DefEntry>,
    /// The program's entry point.
    pub main: FunName,
}

/// Renders a definition exactly as [`Program`]'s `Display` does, giving a
/// deterministic byte string to hash.
fn render_def(d: &Def) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = write!(s, "{}", d.name);
    for (x, t) in &d.params {
        let _ = write!(s, " ({x}:{t})");
    }
    let _ = writeln!(s, " : {} =", d.ret);
    let _ = write!(s, "{}", d.body);
    s
}

/// Collects the top-level functions a value references.
fn value_funs(v: &Value, out: &mut BTreeSet<FunName>) {
    match v {
        Value::Const(_) | Value::Var(_) => {}
        Value::Fun(f) => {
            out.insert(f.clone());
        }
        Value::PApp(h, args) => {
            value_funs(h, out);
            for a in args {
                value_funs(a, out);
            }
        }
    }
}

/// Collects the top-level functions an expression references in value
/// position — the definition's depth-1 dependency cone.
fn expr_funs(e: &Expr, out: &mut BTreeSet<FunName>) {
    match e {
        Expr::Value(v) => value_funs(v, out),
        Expr::Call(f, args) => {
            value_funs(f, out);
            for a in args {
                value_funs(a, out);
            }
        }
        Expr::Op(_, args) => {
            for a in args {
                value_funs(a, out);
            }
        }
        Expr::Rand | Expr::Fail => {}
        Expr::Let(_, rhs, body) => {
            expr_funs(rhs, out);
            expr_funs(body, out);
        }
        Expr::Choice(l, r) => {
            expr_funs(l, out);
            expr_funs(r, out);
        }
        Expr::Assume(v, e) => {
            value_funs(v, out);
            expr_funs(e, out);
        }
    }
}

impl Manifest {
    /// Fingerprints every definition of `program`.
    pub fn of(program: &Program) -> Manifest {
        let body_hashes: BTreeMap<FunName, u64> = program
            .defs
            .iter()
            .map(|d| (d.name.clone(), stable_hash64(&render_def(d))))
            .collect();
        let defs = program
            .defs
            .iter()
            .map(|d| {
                let body_hash = body_hashes[&d.name];
                let mut cone = BTreeSet::new();
                expr_funs(&d.body, &mut cone);
                let mut acc = format!("self {body_hash:016x}|");
                for f in &cone {
                    use std::fmt::Write as _;
                    // A reference to a function that has no definition (the
                    // kernel checker rejects these, but be total) hashes as
                    // its name alone.
                    match body_hashes.get(f) {
                        Some(h) => {
                            let _ = write!(acc, "dep {f} {h:016x}|");
                        }
                        None => {
                            let _ = write!(acc, "dep {f} ?|");
                        }
                    }
                }
                DefEntry {
                    name: d.name.clone(),
                    body_hash,
                    cone_hash: stable_hash64(&acc),
                }
            })
            .collect();
        Manifest {
            defs,
            main: program.main.clone(),
        }
    }

    /// The definitions whose whole depth-1 cone is unchanged between two
    /// manifests: same name at the same index with an equal `cone_hash`.
    ///
    /// Index equality matters because downstream consumers (the transition
    /// memo) key replayed artifacts by definition *position*; a definition
    /// that merely moved is treated as changed, costing reuse but never
    /// soundness.
    pub fn unchanged_defs(&self, other: &Manifest) -> BTreeSet<FunName> {
        self.defs
            .iter()
            .zip(other.defs.iter())
            .filter(|(a, b)| a.name == b.name && a.cone_hash == b.cone_hash)
            .map(|(a, _)| a.name.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend;

    const SRC: &str = "let rec zip x y =
         if x = 0 then (if y = 0 then x else fail ())
         else if y = 0 then fail ()
         else 1 + zip (x - 1) (y - 1) in
       let rec map x = if x = 0 then x else 1 + map (x - 1) in
       if n >= 0 then assert (map (zip n n) = n) else ()";

    #[test]
    fn manifest_is_deterministic() {
        let a = Manifest::of(&frontend(SRC).unwrap().cps);
        let b = Manifest::of(&frontend(SRC).unwrap().cps);
        assert_eq!(a, b);
    }

    #[test]
    fn whitespace_only_edits_do_not_change_the_manifest() {
        let a = Manifest::of(&frontend(SRC).unwrap().cps);
        let b = Manifest::of(&frontend(&SRC.replace("  ", " ")).unwrap().cps);
        assert_eq!(a, b);
    }

    #[test]
    fn literal_edit_invalidates_only_the_touched_cone() {
        let cold = frontend(SRC).unwrap().cps;
        let edited = frontend(&SRC.replace("1 + map", "(0 + 1) + map"))
            .unwrap()
            .cps;
        let ma = Manifest::of(&cold);
        let mb = Manifest::of(&edited);
        assert_eq!(ma.defs.len(), mb.defs.len(), "def count must be stable");
        let unchanged = ma.unchanged_defs(&mb);
        assert!(!unchanged.is_empty(), "some cones must survive the edit");
        assert!(
            unchanged.len() < ma.defs.len(),
            "the edited definition's cone must be invalidated"
        );
        // zip never references map, so zip's cone survives a map edit.
        let zip = ma
            .defs
            .iter()
            .find(|d| d.name.0.contains("zip"))
            .expect("zip is a top-level definition");
        assert!(
            unchanged.contains(&zip.name),
            "zip cone unchanged: {unchanged:?}"
        );
    }

    #[test]
    fn unchanged_defs_requires_positional_match() {
        let m = Manifest::of(&frontend(SRC).unwrap().cps);
        let mut rotated = m.clone();
        rotated.defs.rotate_left(1);
        // Every name now sits at a different index, so nothing matches.
        assert!(m.unchanged_defs(&rotated).is_empty());
    }
}
