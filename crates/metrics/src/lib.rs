//! `homc-metrics`: the measurement layer of the homc pipeline.
//!
//! Four pieces, all dependency-free:
//!
//! * **A typed metrics registry** ([`Metrics`]): named counters and
//!   deterministic log₂-bucketed histograms (SMT solve latency, interpolant
//!   AST size, boolean-program growth, model-checker worklist depth), with a
//!   snapshot/delta API mirroring the counter taxonomy in DESIGN.md. The
//!   handle follows the same `Option<Arc<..>>` design as `homc_trace::Tracer`:
//!   a disabled handle costs one branch per call site and allocates nothing.
//! * **Memory accounting** ([`mod@mem`]): a counting `#[global_allocator]`
//!   wrapper over `System`, installed by the `homc` and `table1` binaries
//!   only, tracking live/peak bytes with a thread-local phase tag.
//! * **A folded-stack self-profiler** ([`mod@profile`]): reconstructs the
//!   span hierarchy of a wall-clock trace (the tracer and the profiler share
//!   one instrumentation point — the `span`/`smt`/`iter` events) and renders
//!   flamegraph.pl-compatible folded stacks with inclusive/exclusive time.
//! * **Run-diff engines** ([`mod@diff`]): `homc trace-diff` and
//!   `homc bench-diff` — per-program per-counter/per-histogram deltas,
//!   verdict-flip detection as a hard error, configurable thresholds.
//!
//! # Determinism
//!
//! Histograms record the same clock the tracer would: under a logical clock
//! every duration observation is `0`, so a `--trace-logical --stats` run is
//! byte-deterministic. Metrics never emit into the trace stream — traces are
//! byte-identical with the registry on or off (tested suite-wide).

#![deny(unsafe_code)] // `mem` opts out locally for the GlobalAlloc impl.
#![warn(missing_docs)]

pub mod diff;
pub mod mem;
pub mod profile;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

pub use homc_budget::Surface;

/// The counter table: every counter homc reports, declared once.
///
/// Every counter is a family of the [`Metrics`] registry (`--metrics-out`).
/// `registry` rows are bumped where they happen, straight into it. `run`
/// rows are a verification run's counters. Each becomes a
/// `homc::VerifyStats` field of the given type; it is recorded per CEGAR
/// iteration, aggregated per run as its [`Agg`] says, and added to the
/// registry when the run ends. When a phase result carries it, the
/// parentheses name the result type and the field the verifier reads
/// (`CacheStats` is the query cache's delta). The brackets list the other
/// [`Surface`]s that show it, and the string is the help text.
///
/// The macro hands the rows to the macro named `$then`, which is how
/// [`Counter`] and `homc::VerifyStats` are both derived from this one list:
/// adding a counter is adding a row, plus the line that counts it.
#[macro_export]
macro_rules! counter_table {
    ($then:ident) => {
        $then! {
            registry {
                SmtSolves smt_solves "Queries the SMT solver actually solved";
                InterpCuts interp_cuts "Interpolation cuts with a non-trivial interpolant";
                McRounds mc_rounds "Model-checker worklist batches drained";
                AbsDefs abs_defs "Definitions abstracted across all iterations";
                JobsDone jobs_done "Batch jobs that ran to a verdict";
                JobsUnknown jobs_unknown "Batch jobs degraded to unknown";
                DiskQuarantine disk_quarantine "Disk-cache segments quarantined by integrity checks";
                LedgerQuarantine ledger_quarantine "Run-ledger files quarantined by integrity checks";
                EvidenceEmitted evidence_emitted "Verdict-evidence files emitted";
                CheckPass check_pass "Independent evidence checks that validated their verdict";
                CheckFail check_fail "Independent evidence checks that rejected their evidence";
            }
            run {
                SmtQueries smt_queries: usize = Cache(CacheStats.lookups())
                    [Stats, Ledger, Iter, Table1] "Query-cache lookups in every table (hits + misses)";
                CacheHits cache_hits: u64 = Cache(CacheStats.hits())
                    [Stats, Ledger, Iter, Table1, Batch] "Query-cache lookups answered from the cache";
                CacheMisses cache_misses: u64 = Cache(CacheStats.misses())
                    [Stats, Ledger, Iter, Table1] "Query-cache lookups a decision procedure answered";
                WorklistPops worklist_pops: usize = Sum(CheckStats.worklist_pops)
                    [Stats, Ledger, Table1] "Definitions the model checker re-searched (iter key pops)";
                RescansAvoided rescans_avoided: usize = Sum(CheckStats.rescans_avoided)
                    [Stats, Ledger, Table1] "Re-scans the worklist saved over a round-based sweep (iter key rescans)";
                CutsSliced cuts_sliced: usize = Sum(Refinement.cuts_sliced)
                    [Stats, Ledger, Iter, Table1] "Refinement cuts settled trivially by path slicing";
                CertReuseHits cert_reuse_hits: usize = Sum(Refinement.cert_reuse_hits)
                    [Stats, Ledger, Iter, Table1] "Refinement cuts solved from a shared Farkas certificate";
                FmPrefixHits fm_prefix_hits: u64 = Cache(CacheStats.rat_hits)
                    [Stats, Ledger, Iter, Table1] "Fourier-Motzkin eliminations the rational-core cache skipped";
                AbsDefsReused abs_defs_reused: usize = Sum(AbsStats.defs_reused)
                    [Stats, Ledger, Iter, Table1] "Definitions reused verbatim from the transition memo";
                AbsDefsRebuilt abs_defs_rebuilt: usize = Sum(AbsStats.defs_rebuilt)
                    [Stats, Ledger, Iter, Table1] "Definitions re-abstracted after a cone fingerprint change";
                AbsImplicants abs_implicants: usize = Sum(AbsStats.implicants)
                    [Stats, Ledger, Iter, Table1] "Feasible implicants from model-guided enumeration";
                AbsQueriesSaved abs_queries_saved: usize = Sum(AbsStats.queries_saved)
                    [Stats, Ledger, Iter, Table1] "SMT queries avoided by incremental abstraction";
                AbsCtxTruncated abs_ctx_truncated: usize = Sum(AbsStats.ctx_truncated)
                    [Stats, Ledger, Iter, Table1] "Context components dropped by the context-atom cap";
                DiskHits disk_hits: u64 = Cache(CacheStats.disk_hits)
                    [Stats, Ledger, Iter, Batch] "Query-cache hits answered from the disk tier";
                ReverifyDefsSkipped reverify_defs_skipped: usize = Sum
                    [Stats, Ledger, Iter] "Definitions replayed from a prior run's persisted artifact";
                ReverifyPredsSeeded reverify_preds_seeded: usize = Sum
                    [Stats, Ledger, Iter] "Predicates seeded from a prior run's winning environment";
                ArtifactQuarantine artifact_quarantine: u64 = Sum
                    [Stats, Ledger, Iter] "Artifact files quarantined by integrity checks";
                PredsDead preds_dead: u64 = Last
                    [Stats, Ledger, Iter] "Final-environment predicate components the final boolean program never projects";
            }
        }
    };
}

/// Declares a metric enum, the array of all its variants in table order,
/// and each variant's display name and help text.
macro_rules! metric_enum {
    ($(#[$doc:meta])* $ty:ident, $all:ident { $( $v:ident $name:ident $help:literal; )* }) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum $ty {
            $( #[doc = $help] $v, )*
        }

        /// All variants, in table order.
        pub const $all: [$ty; [$(stringify!($v)),*].len()] = [$($ty::$v),*];

        impl $ty {
            const fn index(self) -> usize {
                self as usize
            }

            /// The stable display name: the key on every surface and the
            /// stem of the Prometheus family.
            pub fn name(self) -> &'static str {
                match self {
                    $( $ty::$v => stringify!($name), )*
                }
            }

            /// One-line description, used as the Prometheus `# HELP` text.
            pub fn help(self) -> &'static str {
                match self {
                    $( $ty::$v => $help, )*
                }
            }
        }
    };
}

/// Declares [`Counter`] and [`COUNTERS`] from the rows of
/// [`counter_table!`].
macro_rules! define_counters {
    (
        registry { $( $rv:ident $rname:ident $rhelp:literal; )* }
        run { $(
            $v:ident $name:ident : $ty:ty = $agg:ident $(($($src:tt)+))? [$($surface:ident),*]
                $help:literal;
        )* }
    ) => {
        metric_enum! {
            /// Every counter, one variant per row of [`counter_table!`].
            Counter, COUNTERS {
                $( $rv $rname $rhelp; )*
                $( $v $name $help; )*
            }
        }

        impl Counter {
            /// `true` when `surface` shows this counter.
            pub fn shows(self, surface: Surface) -> bool {
                match self {
                    $( Counter::$rv => false, )*
                    $( Counter::$v => [$(Surface::$surface),*].contains(&surface), )*
                }
            }

            /// How a run's value is formed.
            pub fn agg(self) -> Agg {
                match self {
                    $( Counter::$rv => Agg::Registry, )*
                    $( Counter::$v => Agg::$agg, )*
                }
            }
        }
    };
}

counter_table!(define_counters);

/// How a counter's per-run value is formed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Agg {
    /// Bumped straight into the registry where it happens; no run value.
    Registry,
    /// Summed over the run's CEGAR iterations.
    Sum,
    /// The run's last iteration's value.
    Last,
    /// The run's query-cache delta, which also covers the evidence replay
    /// after the loop (an iteration's record holds its own delta).
    Cache,
}

/// One value per counter, indexed like [`COUNTERS`]: an iteration's
/// record, a run's totals, a suite's sum.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Counts([u64; COUNTERS.len()]);

impl Default for Counts {
    fn default() -> Counts {
        Counts([0; COUNTERS.len()])
    }
}

impl Counts {
    /// One counter's value.
    pub fn get(&self, c: Counter) -> u64 {
        self.0[c.index()]
    }

    /// Adds `n` to a counter.
    pub fn add(&mut self, c: Counter, n: u64) {
        self.0[c.index()] += n;
    }

    /// Overwrites a counter.
    pub fn set(&mut self, c: Counter, n: u64) {
        self.0[c.index()] = n;
    }

    /// Folds one iteration's record into a run's totals: [`Agg::Sum`]
    /// counters add up, [`Agg::Last`] ones take the iteration's value.
    pub fn fold(&mut self, iter: &Counts) {
        for c in COUNTERS {
            match c.agg() {
                Agg::Sum => self.add(c, iter.get(c)),
                Agg::Last => self.set(c, iter.get(c)),
                Agg::Cache | Agg::Registry => {}
            }
        }
    }

    /// Adds every counter of `other` (a suite's sum over runs).
    pub fn merge(&mut self, other: &Counts) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a += b;
        }
    }

    /// The counters `surface` shows, with their values, in table order.
    pub fn on(&self, surface: Surface) -> impl Iterator<Item = (Counter, u64)> + '_ {
        COUNTERS
            .into_iter()
            .filter(move |c| c.shows(surface))
            .map(|c| (c, self.get(c)))
    }

    /// `name=value` for every counter `surface` shows, zeros included,
    /// five to a line, each line starting with `indent`.
    pub fn render(&self, surface: Surface, indent: &str) -> String {
        render_pairs(self.on(surface), indent)
    }
}

/// `name=value` pairs, five to a line, each line starting with `indent`.
fn render_pairs(pairs: impl Iterator<Item = (Counter, u64)>, indent: &str) -> String {
    let items: Vec<String> = pairs.map(|(c, v)| format!("{}={v}", c.name())).collect();
    items
        .chunks(5)
        .map(|line| format!("{indent}{}\n", line.join(" ")))
        .collect()
}

metric_enum! {
    /// Log₂-bucketed histograms, one slot per variant.
    Hist, HISTS {
        SmtSolveUs smt_solve_us "Latency of solved SMT queries in microseconds";
        AbsDefUs abs_def_us "Latency of one definition's abstraction task in microseconds";
        IterUs iter_us "Latency of one whole CEGAR iteration in microseconds";
        InterpSize interp_size "AST size of discovered interpolants";
        HbpRules hbp_rules "Boolean-program rule count per iteration";
        HbpTerms hbp_terms "Boolean-program AST size per iteration";
        WorklistDepth worklist_depth "Model-checker worklist batch size at each drain";
        JobUs job_us "Wall-clock latency of one batch job in microseconds";
    }
}

/// Number of histogram buckets: bucket 0 holds the value `0`, bucket `k`
/// (1 ≤ k < 32) holds `[2^(k-1), 2^k)`, and the top bucket saturates —
/// every value ≥ 2³¹ lands there.
pub const NBUCKETS: usize = 33;

/// The bucket index of a value (deterministic, branch-free after the zero
/// check).
pub fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(NBUCKETS - 1)
    }
}

/// The inclusive upper bound of a bucket (`u64::MAX` for the saturated top
/// bucket).
pub fn bucket_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= NBUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

struct HistCell {
    buckets: [AtomicU64; NBUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistCell {
    const fn new() -> HistCell {
        HistCell {
            buckets: [const { AtomicU64::new(0) }; NBUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    fn observe(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistSnapshot {
        let mut buckets = [0u64; NBUCKETS];
        for (b, a) in buckets.iter_mut().zip(&self.buckets) {
            *b = a.load(Ordering::Relaxed);
        }
        HistSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

struct Registry {
    counters: [AtomicU64; COUNTERS.len()],
    hists: [HistCell; HISTS.len()],
    /// Logical-clock mode: duration observations are forced to 0 so a
    /// deterministic run yields deterministic histograms.
    logical: bool,
}

/// A cheap, cloneable handle to a shared metrics registry. The default
/// handle is *disabled*: every operation is one branch and a return.
#[derive(Clone, Default)]
pub struct Metrics {
    inner: Option<Arc<Registry>>,
}

impl std::fmt::Debug for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "Metrics(disabled)"),
            Some(r) if r.logical => write!(f, "Metrics(logical)"),
            Some(_) => write!(f, "Metrics(wall)"),
        }
    }
}

impl Metrics {
    /// The disabled handle (same as `Metrics::default()`).
    pub fn disabled() -> Metrics {
        Metrics::default()
    }

    /// An enabled registry. With `logical = true` every duration
    /// observation records `0` (mirroring the tracer's logical clock), so
    /// histograms of a deterministic run are reproducible byte-for-byte.
    pub fn new(logical: bool) -> Metrics {
        Metrics {
            inner: Some(Arc::new(Registry {
                counters: [const { AtomicU64::new(0) }; COUNTERS.len()],
                hists: [const { HistCell::new() }; HISTS.len()],
                logical,
            })),
        }
    }

    /// `true` when observations are actually recorded.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// `true` in deterministic logical-clock mode.
    pub fn is_logical(&self) -> bool {
        self.inner.as_ref().is_some_and(|r| r.logical)
    }

    /// Increments a counter by 1.
    pub fn incr(&self, c: Counter) {
        self.add(c, 1);
    }

    /// Adds `n` to a counter.
    pub fn add(&self, c: Counter, n: u64) {
        if let Some(r) = &self.inner {
            r.counters[c.index()].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Records one value into a histogram.
    pub fn observe(&self, h: Hist, v: u64) {
        if let Some(r) = &self.inner {
            r.hists[h.index()].observe(v);
        }
    }

    /// Records the elapsed time since `started` (µs) into a histogram —
    /// forced to `0` in logical mode so goldens stay byte-identical.
    pub fn observe_dur(&self, h: Hist, started: Instant) {
        if let Some(r) = &self.inner {
            let us = if r.logical {
                0
            } else {
                started.elapsed().as_micros() as u64
            };
            r.hists[h.index()].observe(us);
        }
    }

    /// A consistent snapshot of every counter and histogram (all-zero when
    /// disabled).
    pub fn snapshot(&self) -> Snapshot {
        let mut s = Snapshot::default();
        if let Some(r) = &self.inner {
            for (slot, a) in s.counters.0.iter_mut().zip(&r.counters) {
                *slot = a.load(Ordering::Relaxed);
            }
            for (slot, h) in s.hists.iter_mut().zip(&r.hists) {
                *slot = h.snapshot();
            }
        }
        s
    }
}

/// A point-in-time copy of one histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket observation counts (see [`bucket_of`]).
    pub buckets: [u64; NBUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Largest observed value (of the *whole* history; a delta keeps the
    /// later side's max, since maxima do not subtract).
    pub max: u64,
}

impl Default for HistSnapshot {
    fn default() -> HistSnapshot {
        HistSnapshot {
            buckets: [0; NBUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistSnapshot {
    /// Records one value (snapshots double as plain accumulators for the
    /// diff tools, which build histograms from trace events).
    pub fn observe(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Bucket-wise sum of two snapshots.
    pub fn merge(&self, other: &HistSnapshot) -> HistSnapshot {
        let mut out = *self;
        for (b, o) in out.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        out.count += other.count;
        out.sum += other.sum;
        out.max = out.max.max(other.max);
        out
    }

    /// Bucket-wise difference `self - earlier` (saturating; `max` keeps the
    /// later side's value).
    pub fn delta(&self, earlier: &HistSnapshot) -> HistSnapshot {
        let mut out = *self;
        for (b, e) in out.buckets.iter_mut().zip(&earlier.buckets) {
            *b = b.saturating_sub(*e);
        }
        out.count = out.count.saturating_sub(earlier.count);
        out.sum = out.sum.saturating_sub(earlier.sum);
        out
    }

    /// An upper bound on the `q`-quantile (0 ≤ q ≤ 1): the bound of the
    /// first bucket at which the cumulative count reaches `q * count`.
    pub fn quantile_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return bucket_bound(i).min(self.max);
            }
        }
        self.max
    }
}

/// A point-in-time copy of the whole registry.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Counter values.
    pub counters: Counts,
    /// Histogram snapshots, indexed like [`HISTS`].
    pub hists: [HistSnapshot; HISTS.len()],
}

impl Snapshot {
    /// One counter's value.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters.get(c)
    }

    /// One histogram's snapshot.
    pub fn hist(&self, h: Hist) -> &HistSnapshot {
        &self.hists[h.index()]
    }

    /// The difference `self - earlier`, counter- and bucket-wise.
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        let mut out = self.clone();
        for (c, e) in out.counters.0.iter_mut().zip(earlier.counters.0) {
            *c = c.saturating_sub(e);
        }
        for (h, e) in out.hists.iter_mut().zip(&earlier.hists) {
            *h = h.delta(e);
        }
        out
    }

    /// This snapshot with the run counters zeroed, leaving the counters only
    /// the registry keeps: a run's `--stats` block prints the run counters
    /// from its own stats.
    pub fn registry_only(&self) -> Snapshot {
        let mut out = self.clone();
        for c in COUNTERS.into_iter().filter(|c| c.agg() != Agg::Registry) {
            out.counters.set(c, 0);
        }
        out
    }

    /// Renders the non-empty metrics as indented `--stats` lines (empty
    /// string when nothing was recorded).
    pub fn render(&self, indent: &str) -> String {
        use std::fmt::Write as _;
        let nonzero = COUNTERS
            .into_iter()
            .map(|c| (c, self.counter(c)))
            .filter(|&(_, v)| v > 0);
        let mut out = render_pairs(nonzero, indent);
        for h in HISTS {
            let s = self.hist(h);
            if s.count == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "{indent}{:14} n={:<6} p50<={:<8} p90<={:<8} max={}",
                h.name(),
                s.count,
                s.quantile_bound(0.5),
                s.quantile_bound(0.9),
                s.max,
            );
        }
        out
    }

    /// Renders the whole registry in the Prometheus text exposition format
    /// (`--metrics-out`): every counter as `homc_<name>_total`, every
    /// histogram as cumulative `_bucket{le="..."}` lines over the log₂
    /// bucket bounds plus `_sum`/`_count`, each family preceded by its
    /// `# HELP` and `# TYPE` lines. Every metric is emitted — zero values
    /// included — so scrapers see a stable, complete family set.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for c in COUNTERS {
            let name = c.name();
            let _ = writeln!(out, "# HELP homc_{name}_total {}", c.help());
            let _ = writeln!(out, "# TYPE homc_{name}_total counter");
            let _ = writeln!(out, "homc_{name}_total {}", self.counter(c));
        }
        for h in HISTS {
            let name = h.name();
            let s = self.hist(h);
            let _ = writeln!(out, "# HELP homc_{name} {}", h.help());
            let _ = writeln!(out, "# TYPE homc_{name} histogram");
            let mut cumulative = 0u64;
            for (i, b) in s.buckets.iter().enumerate() {
                cumulative += b;
                if i == NBUCKETS - 1 {
                    let _ = writeln!(out, "homc_{name}_bucket{{le=\"+Inf\"}} {cumulative}");
                } else {
                    let _ = writeln!(
                        out,
                        "homc_{name}_bucket{{le=\"{}\"}} {cumulative}",
                        bucket_bound(i)
                    );
                }
            }
            let _ = writeln!(out, "homc_{name}_sum {}", s.sum);
            let _ = writeln!(out, "homc_{name}_count {}", s.count);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(7), 3);
        assert_eq!(bucket_of(8), 4);
        // Every bucket's bound is the last value mapping into it.
        for i in 1..NBUCKETS - 1 {
            assert_eq!(bucket_of(bucket_bound(i)), i, "bound of bucket {i}");
            assert_eq!(bucket_of(bucket_bound(i) + 1), i + 1);
        }
    }

    #[test]
    fn top_bucket_saturates() {
        assert_eq!(bucket_of(1 << 31), NBUCKETS - 1);
        assert_eq!(bucket_of(u64::MAX), NBUCKETS - 1);
        let m = Metrics::new(false);
        m.observe(Hist::SmtSolveUs, u64::MAX);
        m.observe(Hist::SmtSolveUs, 1 << 40);
        let s = m.snapshot();
        assert_eq!(s.hist(Hist::SmtSolveUs).buckets[NBUCKETS - 1], 2);
        assert_eq!(s.hist(Hist::SmtSolveUs).max, u64::MAX);
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let m = Metrics::disabled();
        m.incr(Counter::SmtSolves);
        m.observe(Hist::InterpSize, 7);
        assert!(!m.enabled());
        assert_eq!(m.snapshot(), Snapshot::default());
    }

    #[test]
    fn logical_mode_zeroes_durations() {
        let m = Metrics::new(true);
        m.observe_dur(Hist::SmtSolveUs, Instant::now());
        let s = m.snapshot();
        assert_eq!(s.hist(Hist::SmtSolveUs).buckets[0], 1);
        assert_eq!(s.hist(Hist::SmtSolveUs).sum, 0);
    }

    #[test]
    fn merge_and_delta_are_bucketwise() {
        let mut a = HistSnapshot::default();
        let mut b = HistSnapshot::default();
        for v in [1, 2, 3, 100] {
            a.observe(v);
        }
        for v in [1, 100] {
            b.observe(v);
        }
        let merged = a.merge(&b);
        assert_eq!(merged.count, 6);
        assert_eq!(merged.sum, a.sum + b.sum);
        assert_eq!(merged.buckets[bucket_of(100)], 2);

        let d = a.delta(&b);
        assert_eq!(d.count, 2);
        assert_eq!(d.buckets[bucket_of(1)], 0);
        // 2 and 3 share the [2, 4) bucket; b observed neither.
        assert_eq!(bucket_of(2), bucket_of(3));
        assert_eq!(d.buckets[bucket_of(2)], 2);
        assert_eq!(d.buckets[bucket_of(100)], 0);
        // Maxima do not subtract; the delta keeps the later side's max.
        assert_eq!(d.max, 100);
    }

    #[test]
    fn snapshot_delta_mirrors_counters() {
        let m = Metrics::new(false);
        m.add(Counter::SmtSolves, 5);
        let before = m.snapshot();
        m.add(Counter::SmtSolves, 3);
        m.observe(Hist::WorklistDepth, 4);
        let d = m.snapshot().delta(&before);
        assert_eq!(d.counter(Counter::SmtSolves), 3);
        assert_eq!(d.hist(Hist::WorklistDepth).count, 1);
    }

    #[test]
    fn quantiles_are_upper_bounds() {
        let mut h = HistSnapshot::default();
        for v in 1..=100u64 {
            h.observe(v);
        }
        let p50 = h.quantile_bound(0.5);
        let p90 = h.quantile_bound(0.9);
        assert!((50..=63).contains(&p50), "p50 bound {p50}");
        assert!((90..=100).contains(&p90), "p90 bound {p90}");
        assert!(p50 <= p90);
        assert_eq!(h.quantile_bound(1.0), 100);
    }

    #[test]
    fn prometheus_exposition_is_complete_and_cumulative() {
        let m = Metrics::new(false);
        m.add(Counter::SmtSolves, 3);
        m.observe(Hist::InterpSize, 5);
        m.observe(Hist::InterpSize, 1_000_000);
        let text = m.snapshot().render_prometheus();
        // Every family is present (zeros included) with HELP + TYPE lines.
        for c in COUNTERS {
            let fam = format!("homc_{}_total", c.name());
            assert!(text.contains(&format!("# HELP {fam} ")), "{fam}");
            assert!(text.contains(&format!("# TYPE {fam} counter")), "{fam}");
        }
        for h in HISTS {
            let fam = format!("homc_{}", h.name());
            assert!(text.contains(&format!("# TYPE {fam} histogram")), "{fam}");
        }
        assert!(text.contains("homc_smt_solves_total 3"), "{text}");
        // Buckets are cumulative and the +Inf bucket equals the count.
        assert!(
            text.contains("homc_interp_size_bucket{le=\"+Inf\"} 2"),
            "{text}"
        );
        assert!(text.contains("homc_interp_size_count 2"), "{text}");
        assert!(text.contains("homc_interp_size_sum 1000005"), "{text}");
        // Sample lines match the Prometheus name grammar.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let name = line.split(['{', ' ']).next().unwrap();
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                "bad metric name in {line:?}"
            );
        }
    }

    #[test]
    fn render_lists_only_nonempty() {
        let m = Metrics::new(false);
        assert_eq!(m.snapshot().render("  "), "");
        m.incr(Counter::InterpCuts);
        m.observe(Hist::InterpSize, 9);
        let text = m.snapshot().render("  ");
        assert!(text.contains("interp_cuts=1"), "{text}");
        assert!(text.contains("interp_size"), "{text}");
        assert!(!text.contains("smt_solve_us"), "{text}");
    }
}
