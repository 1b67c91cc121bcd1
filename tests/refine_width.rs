//! Refinement beyond 16 case splits.
//!
//! Two generated program shapes whose refuting path condition holds `k`
//! two-way disjunctions: sequence interpolation case-splits them into `2^k`
//! cubes, more than 16 from `k = 5` on, within its width budget
//! (`InterpOptions::dnf_limit`, 512). Both shapes reach `h x` under `x > 0`
//! inside `k` nested conditions, and `h` calls `g (x + 1)`, which asserts
//! `y > 1`:
//!
//! * `or_k`: `if x > 10+i || x < 20+i then … else ()` for `i < k`;
//! * `eq_k`: `if x <> ui then … else ()` over extra parameters `u0 … u(k-1)`.
//!
//! Each must verify `safe` in 2 cycles with its cut interpolants read off a
//! shared Farkas certificate (`cert_reuse_hits > 0`). The default run takes
//! `k = 5`; `--features slow-tests` takes `k = 1..9`.

use homc::{verify, Verdict, VerifierOptions};

const PRELUDE: &str = "let g y = assert (y > 1) in let h z = g (z + 1) in ";
const INNER: &str = "(if x > 0 then h x else ())";

/// [`INNER`] nested inside `if c then … else ()` for each condition, the
/// first condition outermost.
fn nest(conds: &[String]) -> String {
    conds.iter().rev().fold(INNER.to_string(), |body, c| {
        format!("(if {c} then {body} else ())")
    })
}

fn or_k(k: usize) -> String {
    let conds: Vec<String> = (0..k)
        .map(|i| format!("x > {} || x < {}", 10 + i, 20 + i))
        .collect();
    format!("{PRELUDE}let f x = {} in f n", nest(&conds))
}

fn eq_k(k: usize) -> String {
    let conds: Vec<String> = (0..k).map(|i| format!("x <> u{i}")).collect();
    let params: String = (0..k).map(|i| format!(" u{i}")).collect();
    let args: String = (0..k).map(|i| format!(" m{i}")).collect();
    format!("{PRELUDE}let f x{params} = {} in f n{args}", nest(&conds))
}

fn widths() -> Vec<usize> {
    if cfg!(feature = "slow-tests") {
        (1..=9).collect()
    } else {
        vec![5]
    }
}

fn assert_refines(name: &str, src: &str) {
    let out = verify(src, &VerifierOptions::default()).expect("runs");
    assert_eq!(out.verdict, Verdict::Safe, "{name}: {src}");
    assert_eq!(out.stats.cycles, 2, "{name}: cycles");
    assert!(
        out.stats.cert_reuse_hits > 0,
        "{name}: no cut interpolant came from a shared certificate"
    );
}

#[test]
fn disjunctive_guards_refine_by_sequence_interpolation() {
    for k in widths() {
        assert_refines(&format!("or{k:02}"), &or_k(k));
    }
}

#[test]
fn disequality_guards_refine_by_sequence_interpolation() {
    for k in widths() {
        assert_refines(&format!("eq{k:02}"), &eq_k(k));
    }
}
