//! A shared memoization layer for the decision-procedure hot paths.
//!
//! CEGAR re-asks near-identical questions constantly: predicate abstraction
//! issues the same entailments on every refinement iteration (only a few
//! predicates change between rounds), feasibility checking re-solves growing
//! prefixes of the same path condition, and interpolation revisits the same
//! DNF cube pairs across the inductive/raw A-side attempts of every cut
//! point. A [`QueryCache`] collapses all of that repeated work across the
//! *whole* verification run.
//!
//! Four tables, all keyed by canonical forms so syntactic permutations
//! collide:
//!
//! * **check** — full [`SmtSolver::check`](crate::SmtSolver::check) results,
//!   keyed by [`Formula::canon`] plus the branch & bound depth.
//! * **cube** — satisfiability tri-states of plain atom conjunctions (the
//!   per-cube consistency probes of the interpolation engine), keyed by the
//!   sorted atom list plus the split depth.
//! * **interp** — per-cube-pair Craig interpolants, keyed by both sorted
//!   cubes plus the split depth.
//! * **rat** — rational-relaxation verdicts of atom conjunctions (the
//!   Fourier–Motzkin eliminations behind interpolation), keyed by the sorted
//!   atom list. Sequence interpolation and branch & bound re-refute the same
//!   cube prefix with one split atom appended over and over; memoizing the
//!   shared-prefix eliminations is what the `fm_prefix_hits` counter reports.
//!
//! Hit/miss counters are kept **per table**, so every cached lookup counts in
//! exactly one query category (see the counter taxonomy in `DESIGN.md`).
//!
//! The cache is interior-mutable (`Mutex` + atomics) so one `Arc<QueryCache>`
//! can be shared by every solver of a run (abstraction, feasibility and
//! interpolation) and moved into a batch worker thread with its job. Budget
//! preemptions
//! ([`SatResult::Exhausted`](crate::SatResult::Exhausted)) are never cached:
//! a result that depends on the clock must not masquerade as a semantic one.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::fm::FarkasCert;
use crate::formula::{Formula, Literal};
use crate::linexpr::{Atom, Var};
use crate::rat::Rat;
use crate::solver::Model;

/// A memoizable satisfiability verdict (no `Exhausted` variant by design).
#[derive(Clone, Debug)]
pub enum CachedSat {
    /// Satisfiable, with the model the solver found.
    Sat(Model),
    /// Unsatisfiable.
    Unsat,
    /// The solver's integer search gave up within its depth limit.
    Unknown,
}

/// Consistency tri-state of an atom conjunction (cube).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CubeSat {
    /// The cube has an integer model.
    Sat,
    /// The cube is unsatisfiable.
    Unsat,
    /// Undecided within the depth limit.
    Unknown,
}

/// A memoizable rational-relaxation verdict, stored against the *sorted*
/// atom list. Certificate indices refer to positions in the sorted key and
/// are remapped onto the caller's ordering on a hit (see
/// [`rational_sat_cached`](crate::fm::rational_sat_cached)).
#[derive(Clone, Debug)]
pub enum CachedRat {
    /// Satisfiable over the rationals, with a model.
    Sat(BTreeMap<Var, Rat>),
    /// Unsatisfiable, with a Farkas certificate over the sorted key.
    Unsat(FarkasCert),
}

/// Per-table hit/miss counters of a [`QueryCache`].
///
/// Each lookup increments exactly one counter pair. The `check`, `cube` and
/// `interp` tables partition the run's *decision-procedure queries* (full
/// formula satisfiability, atom-conjunction tri-states, cube-pair
/// interpolants) and make up the [`hits`](CacheStats::hits) /
/// [`lookups`](CacheStats::lookups) aggregates. The `rat` table memoizes
/// Fourier–Motzkin eliminations *inside* the solver's implicant search and
/// the interpolator — internal bookkeeping, not queries — so it is excluded
/// from the aggregates and reported on its own as `fm_prefix_hits`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// `check`-table lookups answered from the cache.
    pub check_hits: u64,
    /// `check`-table lookups that fell through to the solver.
    pub check_misses: u64,
    /// `cube`-table hits.
    pub cube_hits: u64,
    /// `cube`-table misses.
    pub cube_misses: u64,
    /// `interp`-table hits.
    pub interp_hits: u64,
    /// `interp`-table misses.
    pub interp_misses: u64,
    /// `rat`-table hits (reported as `fm_prefix_hits`).
    pub rat_hits: u64,
    /// `rat`-table misses.
    pub rat_misses: u64,
    /// First hits on entries from a persistent tier: answers of the
    /// attached [`CacheTier`] and artifact-seeded interpolants (a subset of
    /// the per-table hits above — every disk hit is also a table hit).
    pub disk_hits: u64,
}

impl CacheStats {
    /// Query lookups answered from the cache (`check` + `cube` + `interp`;
    /// the internal `rat` table is excluded — see the type docs).
    pub fn hits(&self) -> u64 {
        self.check_hits + self.cube_hits + self.interp_hits
    }

    /// Query lookups that fell through to the underlying procedure
    /// (`check` + `cube` + `interp`).
    pub fn misses(&self) -> u64 {
        self.check_misses + self.cube_misses + self.interp_misses
    }

    /// Total query lookups (= total decision-procedure queries of the run).
    pub fn lookups(&self) -> u64 {
        self.hits() + self.misses()
    }

    /// Field-wise `self - earlier` (saturating). Lets a caller that shares
    /// one cache across several runs (the batch driver, warm bench reruns)
    /// report per-run counters instead of cumulative ones.
    pub fn delta(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            check_hits: self.check_hits.saturating_sub(earlier.check_hits),
            check_misses: self.check_misses.saturating_sub(earlier.check_misses),
            cube_hits: self.cube_hits.saturating_sub(earlier.cube_hits),
            cube_misses: self.cube_misses.saturating_sub(earlier.cube_misses),
            interp_hits: self.interp_hits.saturating_sub(earlier.interp_hits),
            interp_misses: self.interp_misses.saturating_sub(earlier.interp_misses),
            rat_hits: self.rat_hits.saturating_sub(earlier.rat_hits),
            rat_misses: self.rat_misses.saturating_sub(earlier.rat_misses),
            disk_hits: self.disk_hits.saturating_sub(earlier.disk_hits),
        }
    }
}

/// Key of the interpolant table: both cubes sorted, plus the split depth.
pub type InterpKey = (Vec<Literal>, Vec<Literal>, u32);

/// A read-only tier behind a [`QueryCache`]'s private `check` and `cube`
/// tables: the serving layer's persistent disk tier, which one batch loads
/// once and every job's cache shares. See [`QueryCache::attach_tier`].
pub trait CacheTier: Send + Sync {
    /// The stored `check` result for `key`, if the tier holds one.
    fn check(&self, key: &(Formula, u32)) -> Option<CachedSat>;
    /// The stored cube tri-state for `key`, if the tier holds one.
    fn cube(&self, key: &(Vec<Atom>, u32)) -> Option<CubeSat>;
}

/// The shared query cache. See the module docs for the design.
///
/// # The disk tier
///
/// The serving layer's persistent tier is a read-only [`CacheTier`],
/// attached once ([`attach_tier`](Self::attach_tier)) and asked only when a
/// `check` or `cube` lookup misses the private table. Its answer is copied
/// into the private table and marked *seeded*, so (a) that first hit is the
/// key's one count in `disk_hits` — one record read per key; repeat hits
/// are served by the private table and count only as ordinary table hits —
/// and (b) [`export_new_check`](Self::export_new_check) /
/// [`export_new_cubes`](Self::export_new_cubes) return only entries this
/// run discovered, so segment publication stays append-only and never
/// rewrites records already on disk. Interpolants replayed from an
/// artifact are stored up front through
/// [`store_interp_seeded`](Self::store_interp_seeded), with the same two
/// rules ([`export_new_interp`](Self::export_new_interp)).
///
/// # The checkpoint-before-lookup invariant
///
/// `--inject smt:n` schedules identify a query by its *checkpoint index*, so
/// the budget checkpoint must run **before** any `check`-table lookup —
/// otherwise a warm cache would renumber the schedule and fault drills would
/// stop reproducing. The solver reports each checkpoint via
/// [`note_smt_checkpoint`](Self::note_smt_checkpoint);
/// [`lookup_check`](Self::lookup_check) `debug_assert!`s that it was
/// preceded by one. Direct cache use (unit tests, tools) that never notes a
/// checkpoint keeps the guard dormant.
#[derive(Default)]
pub struct QueryCache {
    check: Mutex<HashMap<(Formula, u32), CachedSat>>,
    cubes: Mutex<HashMap<(Vec<Atom>, u32), CubeSat>>,
    interp: Mutex<HashMap<InterpKey, Option<Formula>>>,
    rat: Mutex<HashMap<Vec<Atom>, CachedRat>>,
    tier: OnceLock<Arc<dyn CacheTier>>,
    seeded_check: Mutex<HashSet<(Formula, u32)>>,
    seeded_cubes: Mutex<HashSet<(Vec<Atom>, u32)>>,
    seeded_interp: Mutex<HashSet<InterpKey>>,
    // Artifact-seeded interpolants whose one-time disk-hit credit is still
    // outstanding. A key is removed on its first hit; later hits are pure
    // memory hits.
    uncredited_interp: Mutex<HashSet<InterpKey>>,
    check_hits: AtomicU64,
    check_misses: AtomicU64,
    cube_hits: AtomicU64,
    cube_misses: AtomicU64,
    interp_hits: AtomicU64,
    interp_misses: AtomicU64,
    rat_hits: AtomicU64,
    rat_misses: AtomicU64,
    disk_hits: AtomicU64,
    smt_checkpoints: AtomicU64,
    guarded_lookups: AtomicU64,
}

impl fmt::Debug for QueryCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueryCache")
            .field("stats", &self.stats())
            .field("tier", &self.tier.get().is_some())
            .finish_non_exhaustive()
    }
}

impl QueryCache {
    /// A fresh, empty cache.
    pub fn new() -> QueryCache {
        QueryCache::default()
    }

    /// Current hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            check_hits: self.check_hits.load(Ordering::Relaxed),
            check_misses: self.check_misses.load(Ordering::Relaxed),
            cube_hits: self.cube_hits.load(Ordering::Relaxed),
            cube_misses: self.cube_misses.load(Ordering::Relaxed),
            interp_hits: self.interp_hits.load(Ordering::Relaxed),
            interp_misses: self.interp_misses.load(Ordering::Relaxed),
            rat_hits: self.rat_hits.load(Ordering::Relaxed),
            rat_misses: self.rat_misses.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
        }
    }

    /// Records that the solver passed a [`Phase::Smt`](homc_budget::Phase)
    /// budget checkpoint. Arms the checkpoint-before-lookup guard (see the
    /// type docs); called by `SmtSolver::check` after a successful
    /// checkpoint, immediately before the `check`-table lookup.
    pub fn note_smt_checkpoint(&self) {
        self.smt_checkpoints.fetch_add(1, Ordering::Relaxed);
    }

    /// The checkpoint-before-lookup invariant, as a debug assertion. Every
    /// guarded lookup must be preceded by its own checkpoint note, so the
    /// note count can never fall behind the lookup count — on any thread
    /// interleaving — unless some code path looked up without checkpointing
    /// first (which would renumber `--inject smt:n` schedules on warm
    /// caches).
    fn guard_check_lookup(&self) {
        let notes = self.smt_checkpoints.load(Ordering::Relaxed);
        if notes == 0 {
            return; // guard dormant: direct cache use without a budget
        }
        let lookups = self.guarded_lookups.fetch_add(1, Ordering::Relaxed) + 1;
        debug_assert!(
            lookups <= notes,
            "QueryCache invariant violated: check-table lookup without a \
             preceding budget checkpoint (lookup #{lookups} vs {notes} \
             checkpoints) — this breaks --inject schedule determinism"
        );
    }

    fn count(&self, hit_ctr: &AtomicU64, miss_ctr: &AtomicU64, hit: bool) {
        if hit {
            hit_ctr.fetch_add(1, Ordering::Relaxed);
        } else {
            miss_ctr.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Attaches the read-only tier that `check` and `cube` lookups ask
    /// when the private table misses (see the type docs). Any number of
    /// caches can share one tier.
    ///
    /// # Panics
    ///
    /// If this cache already has a tier: a cache takes one, once.
    pub fn attach_tier(&self, tier: Arc<dyn CacheTier>) {
        assert!(
            self.tier.set(tier).is_ok(),
            "a query cache takes one tier, attached once"
        );
    }

    /// Asks the tier for a key the private `table` missed, and copies an
    /// answer into `table` as seeded, crediting the key's one disk hit. The
    /// seeded set's lock, taken before the table's as in `export_new_*`, is
    /// held across the tier lookup, so a key another thread copied in since
    /// this thread's miss is read back, not credited again.
    fn ask_tier<K: Clone + Eq + Hash, V: Clone>(
        &self,
        seeded: &Mutex<HashSet<K>>,
        table: &Mutex<HashMap<K, V>>,
        key: &K,
        ask: impl FnOnce(&dyn CacheTier, &K) -> Option<V>,
    ) -> Option<V> {
        let tier = self.tier.get()?;
        let mut seeded = seeded.lock().expect("cache poisoned");
        if seeded.contains(key) {
            return table.lock().expect("cache poisoned").get(key).cloned();
        }
        let value = ask(tier.as_ref(), key)?;
        seeded.insert(key.clone());
        table
            .lock()
            .expect("cache poisoned")
            .insert(key.clone(), value.clone());
        self.disk_hits.fetch_add(1, Ordering::Relaxed);
        Some(value)
    }

    /// Looks up a full `check` result by canonical formula and depth: the
    /// private table, then the attached tier.
    pub fn lookup_check(&self, key: &(Formula, u32)) -> Option<CachedSat> {
        self.guard_check_lookup();
        let found = self.check.lock().expect("cache poisoned").get(key).cloned();
        let found = found
            .or_else(|| self.ask_tier(&self.seeded_check, &self.check, key, |t, k| t.check(k)));
        self.count(&self.check_hits, &self.check_misses, found.is_some());
        found
    }

    /// Stores a `check` result. The caller must not pass preempted results.
    pub fn store_check(&self, key: (Formula, u32), value: CachedSat) {
        self.check
            .lock()
            .expect("cache poisoned")
            .insert(key, value);
    }

    /// The `check`-table entries this run discovered itself (entries copied
    /// in from the tier excluded), for append-only segment publication.
    pub fn export_new_check(&self) -> Vec<((Formula, u32), CachedSat)> {
        let seeded = self.seeded_check.lock().expect("cache poisoned");
        self.check
            .lock()
            .expect("cache poisoned")
            .iter()
            .filter(|(k, _)| !seeded.contains(*k))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Looks up a cube consistency tri-state (`atoms` must be sorted): the
    /// private table, then the attached tier.
    pub fn lookup_cube(&self, key: &(Vec<Atom>, u32)) -> Option<CubeSat> {
        let found = self.cubes.lock().expect("cache poisoned").get(key).copied();
        let found =
            found.or_else(|| self.ask_tier(&self.seeded_cubes, &self.cubes, key, |t, k| t.cube(k)));
        self.count(&self.cube_hits, &self.cube_misses, found.is_some());
        found
    }

    /// Stores a cube consistency tri-state.
    pub fn store_cube(&self, key: (Vec<Atom>, u32), value: CubeSat) {
        self.cubes
            .lock()
            .expect("cache poisoned")
            .insert(key, value);
    }

    /// The `cube`-table entries this run discovered itself (entries copied
    /// in from the tier excluded), for append-only segment publication.
    pub fn export_new_cubes(&self) -> Vec<((Vec<Atom>, u32), CubeSat)> {
        let seeded = self.seeded_cubes.lock().expect("cache poisoned");
        self.cubes
            .lock()
            .expect("cache poisoned")
            .iter()
            .filter(|(k, _)| !seeded.contains(*k))
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Looks up a cube-pair interpolant (`None` inside the `Option` =
    /// "provably not refutable"). Cube keys must be sorted.
    #[allow(clippy::option_option)] // outer = cache presence, inner = refutability
    pub fn lookup_interp(&self, key: &InterpKey) -> Option<Option<Formula>> {
        let found = self
            .interp
            .lock()
            .expect("cache poisoned")
            .get(key)
            .cloned();
        self.count(&self.interp_hits, &self.interp_misses, found.is_some());
        if found.is_some()
            && self
                .uncredited_interp
                .lock()
                .expect("cache poisoned")
                .remove(key)
        {
            self.disk_hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Stores a cube-pair interpolant (or its definite absence).
    pub fn store_interp(&self, key: InterpKey, value: Option<Formula>) {
        self.interp
            .lock()
            .expect("cache poisoned")
            .insert(key, value);
    }

    /// Stores an interpolant replayed from a persistent artifact. Its first
    /// hit counts in [`CacheStats::disk_hits`] (later hits are in-memory) and
    /// the key is excluded from [`export_new_interp`](Self::export_new_interp).
    pub fn store_interp_seeded(&self, key: InterpKey, value: Option<Formula>) {
        self.seeded_interp
            .lock()
            .expect("cache poisoned")
            .insert(key.clone());
        self.uncredited_interp
            .lock()
            .expect("cache poisoned")
            .insert(key.clone());
        self.interp
            .lock()
            .expect("cache poisoned")
            .insert(key, value);
    }

    /// The `interp`-table entries this run discovered itself (seeded entries
    /// excluded), for append-only artifact publication.
    pub fn export_new_interp(&self) -> Vec<(InterpKey, Option<Formula>)> {
        let seeded = self.seeded_interp.lock().expect("cache poisoned");
        self.interp
            .lock()
            .expect("cache poisoned")
            .iter()
            .filter(|(k, _)| !seeded.contains(*k))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Looks up a rational-relaxation verdict. `key` must be sorted.
    pub fn lookup_rat(&self, key: &[Atom]) -> Option<CachedRat> {
        let found = self.rat.lock().expect("cache poisoned").get(key).cloned();
        self.count(&self.rat_hits, &self.rat_misses, found.is_some());
        found
    }

    /// Stores a rational-relaxation verdict against its sorted key.
    pub fn store_rat(&self, key: Vec<Atom>, value: CachedRat) {
        self.rat.lock().expect("cache poisoned").insert(key, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linexpr::LinExpr;

    #[test]
    fn counters_track_lookups() {
        let c = QueryCache::new();
        let key = (Formula::True, 48u32);
        assert!(c.lookup_check(&key).is_none());
        c.store_check(key.clone(), CachedSat::Unsat);
        assert!(matches!(c.lookup_check(&key), Some(CachedSat::Unsat)));
        let s = c.stats();
        assert_eq!((s.check_hits, s.check_misses), (1, 1));
        assert_eq!((s.hits(), s.misses()), (1, 1));
        assert_eq!(s.lookups(), 2);
    }

    #[test]
    fn tables_count_separately() {
        let c = QueryCache::new();
        let cube_key = (vec![Atom::le0(LinExpr::var("x"))], 24u32);
        assert!(c.lookup_cube(&cube_key).is_none());
        c.store_cube(cube_key.clone(), CubeSat::Sat);
        assert_eq!(c.lookup_cube(&cube_key), Some(CubeSat::Sat));
        let rat_key = vec![Atom::le0(LinExpr::var("y"))];
        assert!(c.lookup_rat(&rat_key).is_none());
        c.store_rat(rat_key.clone(), CachedRat::Unsat(Vec::new()));
        assert!(matches!(c.lookup_rat(&rat_key), Some(CachedRat::Unsat(_))));
        let s = c.stats();
        assert_eq!((s.cube_hits, s.cube_misses), (1, 1));
        assert_eq!((s.rat_hits, s.rat_misses), (1, 1));
        assert_eq!((s.check_hits, s.check_misses), (0, 0));
        // The internal rat table stays out of the query aggregates.
        assert_eq!(s.lookups(), 2);
    }

    /// A `HashMap`-backed tier, standing in for the disk tier.
    #[derive(Default)]
    struct MapTier {
        check: HashMap<(Formula, u32), CachedSat>,
        cubes: HashMap<(Vec<Atom>, u32), CubeSat>,
    }

    impl CacheTier for MapTier {
        fn check(&self, key: &(Formula, u32)) -> Option<CachedSat> {
            self.check.get(key).cloned()
        }

        fn cube(&self, key: &(Vec<Atom>, u32)) -> Option<CubeSat> {
            self.cubes.get(key).copied()
        }
    }

    /// A cache whose tier holds `check` and `cube` entries.
    fn tiered(
        check: Vec<((Formula, u32), CachedSat)>,
        cubes: Vec<((Vec<Atom>, u32), CubeSat)>,
    ) -> QueryCache {
        let c = QueryCache::new();
        c.attach_tier(Arc::new(MapTier {
            check: check.into_iter().collect(),
            cubes: cubes.into_iter().collect(),
        }));
        c
    }

    #[test]
    fn seeded_hits_count_as_disk_hits() {
        let seeded_key = (Formula::True, 48u32);
        let own_key = (Formula::False, 48u32);
        let cube_key = (vec![Atom::le0(LinExpr::var("x"))], 24u32);
        let c = tiered(
            vec![(seeded_key.clone(), CachedSat::Unsat)],
            vec![(cube_key.clone(), CubeSat::Unsat)],
        );
        c.store_check(own_key.clone(), CachedSat::Unsat);
        assert!(c.lookup_check(&seeded_key).is_some());
        assert!(c.lookup_check(&own_key).is_some());
        assert_eq!(c.lookup_cube(&cube_key), Some(CubeSat::Unsat));
        let s = c.stats();
        assert_eq!(s.disk_hits, 2); // seeded check + seeded cube, not own_key
        assert_eq!(s.hits(), 3);
        // A key the tier lacks is a plain miss.
        let absent = (vec![Atom::le0(LinExpr::var("y"))], 24u32);
        assert_eq!(c.lookup_cube(&absent), None);
        assert_eq!((c.stats().cube_misses, c.stats().disk_hits), (1, 2));
    }

    #[test]
    fn seeded_hits_credit_disk_only_once() {
        // One record read per key: repeat hits on a seeded key are
        // in-memory hits, not disk hits (the warm-bench counter fix).
        let seeded_key = (Formula::True, 48u32);
        let cube_key = (vec![Atom::le0(LinExpr::var("x"))], 24u32);
        let c = tiered(
            vec![(seeded_key.clone(), CachedSat::Unsat)],
            vec![(cube_key.clone(), CubeSat::Unsat)],
        );
        for _ in 0..5 {
            assert!(c.lookup_check(&seeded_key).is_some());
        }
        for _ in 0..5 {
            assert_eq!(c.lookup_cube(&cube_key), Some(CubeSat::Unsat));
        }
        let s = c.stats();
        assert_eq!(s.disk_hits, 2);
        assert_eq!(s.check_hits, 5);
        assert_eq!(s.cube_hits, 5);
    }

    #[test]
    fn interp_seeding_and_export() {
        let c = QueryCache::new();
        let seeded: InterpKey = (Vec::new(), Vec::new(), 24);
        let own: InterpKey = (Vec::new(), Vec::new(), 48);
        c.store_interp_seeded(seeded.clone(), Some(Formula::True));
        c.store_interp(own.clone(), None);
        assert_eq!(c.lookup_interp(&seeded), Some(Some(Formula::True)));
        assert_eq!(c.lookup_interp(&seeded), Some(Some(Formula::True)));
        let s = c.stats();
        assert_eq!(s.disk_hits, 1); // first seeded hit only
        assert_eq!(s.interp_hits, 2);
        let new = c.export_new_interp();
        assert_eq!(new.len(), 1);
        assert_eq!(new[0].0, own);
    }

    #[test]
    fn export_excludes_seeded_entries() {
        let seeded_cube = (vec![Atom::le0(LinExpr::var("x"))], 24u32);
        let own_cube = (vec![Atom::le0(LinExpr::var("y"))], 24u32);
        let c = tiered(
            vec![((Formula::True, 48), CachedSat::Unsat)],
            vec![(seeded_cube.clone(), CubeSat::Sat)],
        );
        // Hits copy the tier's entries into the private tables.
        assert!(c.lookup_check(&(Formula::True, 48)).is_some());
        assert_eq!(c.lookup_cube(&seeded_cube), Some(CubeSat::Sat));
        c.store_check((Formula::False, 48), CachedSat::Unknown);
        let new_check = c.export_new_check();
        assert_eq!(new_check.len(), 1);
        assert_eq!(new_check[0].0, (Formula::False, 48));
        c.store_cube(own_cube.clone(), CubeSat::Unsat);
        let new_cubes = c.export_new_cubes();
        assert_eq!(new_cubes.len(), 1);
        assert_eq!(new_cubes[0].0, own_cube);
    }

    #[test]
    #[should_panic(expected = "takes one tier")]
    fn a_cache_takes_one_tier() {
        let c = tiered(Vec::new(), Vec::new());
        c.attach_tier(Arc::new(MapTier::default()));
    }

    #[test]
    fn stats_delta_subtracts_fieldwise() {
        let c = QueryCache::new();
        let key = (Formula::True, 48u32);
        assert!(c.lookup_check(&key).is_none());
        let earlier = c.stats();
        c.store_check(key.clone(), CachedSat::Unsat);
        assert!(c.lookup_check(&key).is_some());
        let d = c.stats().delta(&earlier);
        assert_eq!((d.check_hits, d.check_misses), (1, 0));
        assert_eq!(d.lookups(), 1);
    }

    #[test]
    fn balanced_checkpoints_keep_guard_quiet() {
        let c = QueryCache::new();
        let key = (Formula::True, 48u32);
        for _ in 0..3 {
            c.note_smt_checkpoint();
            let _ = c.lookup_check(&key);
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "without a preceding budget checkpoint")]
    fn unguarded_lookup_trips_the_invariant() {
        let c = QueryCache::new();
        let key = (Formula::True, 48u32);
        c.note_smt_checkpoint();
        let _ = c.lookup_check(&key);
        // Second lookup with no second checkpoint: the exact bug the guard
        // exists to catch (a cache tier answering before the budget runs).
        let _ = c.lookup_check(&key);
    }

    #[test]
    fn canonical_keys_collide_across_permutations() {
        let a = Formula::atom(Atom::le0(LinExpr::var("x")));
        let b = Formula::BVar("p".into());
        let f1 = Formula::And(vec![a.clone(), b.clone()]);
        let f2 = Formula::And(vec![b, a]);
        assert_eq!(f1.canon(), f2.canon());
        let c = QueryCache::new();
        c.store_check((f1.canon(), 48), CachedSat::Unknown);
        assert!(matches!(
            c.lookup_check(&(f2.canon(), 48)),
            Some(CachedSat::Unknown)
        ));
    }
}
