//! Cone-of-influence slicing of SHP path conditions (the refinement fast
//! path's first layer).
//!
//! The A-normalized conjuncts of a path condition partition into
//! *variable-connected components*: two conjuncts interact only when they
//! (transitively) share a variable. Components are mutually
//! variable-disjoint, so the conjunction is unsatisfiable **iff** at least
//! one component is unsatisfiable on its own — conjuncts outside a refuting
//! component (the "contradiction cone") can be deleted without changing
//! satisfiability, which is the soundness property the property tests
//! check. For refinement this means interpolation only has to look at the
//! cone: every cut point no refuting component crosses gets a trivial
//! interpolant for free (the `cuts_sliced` counter), and when several
//! components refute independently each is interpolated on its own.

use homc_budget::{Budget, BudgetError, Phase};
use homc_smt::{
    cube_consistency, rational_sat_cached, Atom, CubeSat, Formula, Literal, QueryCache, RatResult,
    Var,
};

use crate::shp::Event;

/// The variable-connectivity partition of a trace's conjuncts.
#[derive(Clone, Debug)]
pub struct PathSlice {
    /// Component id per event index; `None` for events whose formula is
    /// trivially `true` (they belong to no component).
    pub comp_of: Vec<Option<usize>>,
    /// Number of components; ids are dense in `0..n_components`, numbered
    /// in order of each component's first event.
    pub n_components: usize,
}

/// Partitions the events' conjuncts into variable-connected components.
pub fn components(events: &[Event]) -> PathSlice {
    let n = events.len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]]; // path halving
            i = parent[i];
        }
        i
    }
    let mut owner: std::collections::BTreeMap<Var, usize> = Default::default();
    let mut nontrivial = vec![false; n];
    for (i, e) in events.iter().enumerate() {
        let f = e.formula();
        if matches!(f, homc_smt::Formula::True) {
            continue;
        }
        nontrivial[i] = true;
        for v in f.vars() {
            match owner.get(&v) {
                Some(&j) => {
                    let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                    parent[ri.max(rj)] = ri.min(rj);
                }
                None => {
                    owner.insert(v, i);
                }
            }
        }
    }
    let mut ids: std::collections::BTreeMap<usize, usize> = Default::default();
    let mut comp_of = vec![None; n];
    for i in 0..n {
        if !nontrivial[i] {
            continue;
        }
        let r = find(&mut parent, i);
        let next = ids.len();
        comp_of[i] = Some(*ids.entry(r).or_insert(next));
    }
    PathSlice {
        comp_of,
        n_components: ids.len(),
    }
}

/// Screening verdict for one component: does it refute on its own?
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CompVerdict {
    /// The component alone is unsatisfiable — part of the contradiction cone.
    Unsat,
    /// Satisfiable, undecided, or structurally outside the fast path (the
    /// component's DNF exceeds the sweep limit): never sliced into the cone.
    Other,
}

/// DNF sweep limit for screening a component that contains non-cube
/// conjuncts (typically the trace's negated assertion). Components wider
/// than this stay [`CompVerdict::Other`].
const SCREEN_DNF_LIMIT: usize = 16;

/// Screens every component for standalone unsatisfiability.
///
/// Conservative by design: only a definite integer-unsat verdict (or a
/// propositional clash) puts a component into the cone, so slicing can only
/// *shrink* the formula handed to interpolation, never misroute the
/// contradiction — if the refutation hides in an `Other` component, the
/// caller's fallbacks (whole-condition sequence interpolation, then the
/// per-cut engine) still find it. Consistency checks go through the shared
/// cube table, so screening work is reused by interpolation and vice versa.
///
/// Components whose conjuncts are not all cubes — the negated assertion at
/// the end of every real trace is a disjunction — are screened through a
/// bounded DNF sweep: the component refutes iff every disjunct of its DNF
/// is inconsistent on its own. Components whose DNF exceeds
/// `SCREEN_DNF_LIMIT` (16) disjuncts stay `Other`.
pub fn screen_components(
    events: &[Event],
    slice: &PathSlice,
    split_depth: u32,
    budget: &Budget,
    cache: Option<&QueryCache>,
) -> Result<Vec<CompVerdict>, BudgetError> {
    let n = slice.n_components;
    let mut conjuncts: Vec<Vec<Formula>> = vec![Vec::new(); n];
    for (i, e) in events.iter().enumerate() {
        let Some(c) = slice.comp_of[i] else { continue };
        conjuncts[c].push(e.formula());
    }
    let mut out = vec![CompVerdict::Other; n];
    'comp: for (c, fs) in conjuncts.into_iter().enumerate() {
        let Some(cubes) = Formula::and(fs).dnf(SCREEN_DNF_LIMIT) else {
            continue;
        };
        // Unsat iff every disjunct refutes alone (an empty DNF is `false`).
        for cube in &cubes {
            budget.checkpoint(Phase::Interp)?;
            let mut ats: Vec<Atom> = Vec::new();
            let mut bools: Vec<(&Var, bool)> = Vec::new();
            for l in cube {
                match l {
                    Literal::Arith(a) => ats.push(a.clone()),
                    Literal::Bool(v, p) => bools.push((v, *p)),
                }
            }
            if bools
                .iter()
                .any(|(v, p)| bools.iter().any(|(u, q)| u == v && p != q))
            {
                continue; // propositional clash refutes this disjunct
            }
            // Rational refutation first: it is decisive (unsat over ℚ is
            // unsat over ℤ) and it seeds the shared rat table with exactly
            // the Fourier–Motzkin elimination the sequence engine replays
            // for this component — the reuse the `fm_prefix_hits` counter
            // surfaces. Only rationally-satisfiable disjuncts pay for the
            // integer-level cube screen.
            if matches!(rational_sat_cached(&ats, cache), RatResult::Unsat(_)) {
                continue;
            }
            if cube_consistency(&ats, split_depth, cache) != CubeSat::Unsat {
                continue 'comp; // this disjunct may be satisfiable
            }
        }
        out[c] = CompVerdict::Unsat;
    }
    Ok(out)
}

/// In-cone flags per event: `true` for events of refuting components.
/// All-`false` when no component refutes alone (slicing not applicable).
pub fn cone_events(slice: &PathSlice, verdicts: &[CompVerdict]) -> Vec<bool> {
    slice
        .comp_of
        .iter()
        .map(|c| c.is_some_and(|c| verdicts[c] == CompVerdict::Unsat))
        .collect()
}
