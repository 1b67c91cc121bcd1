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

/// Monotone event counters, one slot per variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Counter {
    /// Queries the SMT solver actually solved (cache misses + uncached).
    SmtSolves,
    /// Interpolation cut points that produced a non-trivial interpolant.
    InterpCuts,
    /// Model-checker worklist batches drained.
    McRounds,
    /// Definitions abstracted (every definition of every iteration).
    AbsDefs,
    /// Batch jobs that ran to a verdict (any verdict, including `Unknown`).
    JobsDone,
    /// Batch job attempts re-queued after retryable exhaustion.
    JobsRetried,
    /// Batch jobs degraded to `Unknown` (panic, exhaustion, cancellation).
    JobsUnknown,
    /// Query-cache hits answered from the persistent disk tier.
    DiskHits,
    /// Disk-cache segments quarantined by an integrity check (once per
    /// segment, however many of its records were bad).
    DiskQuarantine,
    /// Definitions whose abstraction was reused verbatim from the
    /// transition memo (cone fingerprint unchanged since the last build).
    AbsDefsReused,
    /// Definitions re-abstracted because a prior memo entry's cone
    /// fingerprint changed (first-time builds count neither way).
    AbsDefsRebuilt,
    /// Feasible implicants emitted by the model-guided enumeration.
    AbsImplicants,
    /// SMT queries avoided by incremental abstraction: prefix probes
    /// answered by an already-found model plus the recorded cost of every
    /// memo-reused definition.
    AbsQueriesSaved,
    /// Relevant context components dropped by the `max_context_atoms` cap
    /// while selecting guard predicates (a precision, not soundness, loss).
    AbsCtxTruncated,
    /// Run-ledger files quarantined by an integrity check.
    LedgerQuarantine,
    /// Definitions whose abstraction was replayed from a prior run's
    /// persisted artifact (cross-run incremental re-verification).
    ReverifyDefsSkipped,
    /// Predicates seeded into the initial environment from a prior run's
    /// winning predicate environment.
    ReverifyPredsSeeded,
    /// Artifact- or evidence-store files quarantined by an integrity check
    /// (the run degrades to the cold path, or the certificate is rejected).
    ArtifactQuarantine,
    /// Verdict-evidence files emitted (one per decisive run with an
    /// evidence directory configured).
    EvidenceEmitted,
    /// Independent evidence checks that validated their verdict.
    CheckPass,
    /// Independent evidence checks that rejected their evidence.
    CheckFail,
    /// Predicate-scheme components of the final environment never projected
    /// by the final boolean program (dead predicates).
    PredsDead,
}

/// All counters, in display order.
pub const COUNTERS: [Counter; 22] = [
    Counter::SmtSolves,
    Counter::InterpCuts,
    Counter::McRounds,
    Counter::AbsDefs,
    Counter::JobsDone,
    Counter::JobsRetried,
    Counter::JobsUnknown,
    Counter::DiskHits,
    Counter::DiskQuarantine,
    Counter::AbsDefsReused,
    Counter::AbsDefsRebuilt,
    Counter::AbsImplicants,
    Counter::AbsQueriesSaved,
    Counter::AbsCtxTruncated,
    Counter::LedgerQuarantine,
    Counter::ReverifyDefsSkipped,
    Counter::ReverifyPredsSeeded,
    Counter::ArtifactQuarantine,
    Counter::EvidenceEmitted,
    Counter::CheckPass,
    Counter::CheckFail,
    Counter::PredsDead,
];

impl Counter {
    const fn index(self) -> usize {
        self as usize
    }

    /// The stable display name (used by `--stats` and the diff tools).
    pub fn name(self) -> &'static str {
        match self {
            Counter::SmtSolves => "smt_solves",
            Counter::InterpCuts => "interp_cuts",
            Counter::McRounds => "mc_rounds",
            Counter::AbsDefs => "abs_defs",
            Counter::JobsDone => "jobs_done",
            Counter::JobsRetried => "jobs_retried",
            Counter::JobsUnknown => "jobs_unknown",
            Counter::DiskHits => "disk_hits",
            Counter::DiskQuarantine => "disk_quarantine",
            Counter::AbsDefsReused => "abs_defs_reused",
            Counter::AbsDefsRebuilt => "abs_defs_rebuilt",
            Counter::AbsImplicants => "abs_implicants",
            Counter::AbsQueriesSaved => "abs_queries_saved",
            Counter::AbsCtxTruncated => "abs_ctx_truncated",
            Counter::LedgerQuarantine => "ledger_quarantine",
            Counter::ReverifyDefsSkipped => "reverify_defs_skipped",
            Counter::ReverifyPredsSeeded => "reverify_preds_seeded",
            Counter::ArtifactQuarantine => "artifact_quarantine",
            Counter::EvidenceEmitted => "evidence_emitted",
            Counter::CheckPass => "check_pass",
            Counter::CheckFail => "check_fail",
            Counter::PredsDead => "preds_dead",
        }
    }

    /// One-line description, used as the Prometheus `# HELP` text.
    pub fn help(self) -> &'static str {
        match self {
            Counter::SmtSolves => "Queries the SMT solver actually solved",
            Counter::InterpCuts => "Interpolation cuts with a non-trivial interpolant",
            Counter::McRounds => "Model-checker worklist batches drained",
            Counter::AbsDefs => "Definitions abstracted across all iterations",
            Counter::JobsDone => "Batch jobs that ran to a verdict",
            Counter::JobsRetried => "Batch job attempts re-queued after retryable exhaustion",
            Counter::JobsUnknown => "Batch jobs degraded to unknown",
            Counter::DiskHits => "Query-cache hits answered from the disk tier",
            Counter::DiskQuarantine => "Disk-cache segments quarantined by integrity checks",
            Counter::AbsDefsReused => "Definitions reused verbatim from the transition memo",
            Counter::AbsDefsRebuilt => "Definitions re-abstracted after a cone fingerprint change",
            Counter::AbsImplicants => "Feasible implicants from model-guided enumeration",
            Counter::AbsQueriesSaved => "SMT queries avoided by incremental abstraction",
            Counter::AbsCtxTruncated => "Context components dropped by the context-atom cap",
            Counter::LedgerQuarantine => "Run-ledger files quarantined by integrity checks",
            Counter::ReverifyDefsSkipped => "Definitions replayed from a prior run's persisted artifact",
            Counter::ReverifyPredsSeeded => "Predicates seeded from a prior run's winning environment",
            Counter::ArtifactQuarantine => "Artifact- or evidence-store files quarantined by integrity checks",
            Counter::EvidenceEmitted => "Verdict-evidence files emitted",
            Counter::CheckPass => "Independent evidence checks that validated their verdict",
            Counter::CheckFail => "Independent evidence checks that rejected their evidence",
            Counter::PredsDead => "Final-environment predicate components never projected by the final boolean program",
        }
    }
}

/// Log₂-bucketed histograms, one slot per variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Hist {
    /// Latency of solved SMT queries, in microseconds.
    SmtSolveUs,
    /// Latency of one definition's abstraction task, in microseconds.
    AbsDefUs,
    /// Latency of one whole CEGAR iteration, in microseconds.
    IterUs,
    /// AST size (formula nodes) of discovered interpolants.
    InterpSize,
    /// Boolean-program rule count per iteration (rule-set growth).
    HbpRules,
    /// Boolean-program AST size per iteration.
    HbpTerms,
    /// Model-checker worklist batch size at each drain.
    WorklistDepth,
    /// Wall-clock latency of one batch job attempt, in microseconds.
    JobUs,
}

/// All histograms, in display order.
pub const HISTS: [Hist; 8] = [
    Hist::SmtSolveUs,
    Hist::AbsDefUs,
    Hist::IterUs,
    Hist::InterpSize,
    Hist::HbpRules,
    Hist::HbpTerms,
    Hist::WorklistDepth,
    Hist::JobUs,
];

impl Hist {
    const fn index(self) -> usize {
        self as usize
    }

    /// The stable display name (used by `--stats` and the diff tools).
    pub fn name(self) -> &'static str {
        match self {
            Hist::SmtSolveUs => "smt_solve_us",
            Hist::AbsDefUs => "abs_def_us",
            Hist::IterUs => "iter_us",
            Hist::InterpSize => "interp_size",
            Hist::HbpRules => "hbp_rules",
            Hist::HbpTerms => "hbp_terms",
            Hist::WorklistDepth => "worklist_depth",
            Hist::JobUs => "job_us",
        }
    }

    /// One-line description, used as the Prometheus `# HELP` text.
    pub fn help(self) -> &'static str {
        match self {
            Hist::SmtSolveUs => "Latency of solved SMT queries in microseconds",
            Hist::AbsDefUs => "Latency of one definition's abstraction task in microseconds",
            Hist::IterUs => "Latency of one whole CEGAR iteration in microseconds",
            Hist::InterpSize => "AST size of discovered interpolants",
            Hist::HbpRules => "Boolean-program rule count per iteration",
            Hist::HbpTerms => "Boolean-program AST size per iteration",
            Hist::WorklistDepth => "Model-checker worklist batch size at each drain",
            Hist::JobUs => "Wall-clock latency of one batch job attempt in microseconds",
        }
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
            for (slot, a) in s.counters.iter_mut().zip(&r.counters) {
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
    /// Counter values, indexed like [`COUNTERS`].
    pub counters: [u64; COUNTERS.len()],
    /// Histogram snapshots, indexed like [`HISTS`].
    pub hists: [HistSnapshot; HISTS.len()],
}

impl Snapshot {
    /// One counter's value.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c.index()]
    }

    /// One histogram's snapshot.
    pub fn hist(&self, h: Hist) -> &HistSnapshot {
        &self.hists[h.index()]
    }

    /// The difference `self - earlier`, counter- and bucket-wise.
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        let mut out = self.clone();
        for (c, e) in out.counters.iter_mut().zip(&earlier.counters) {
            *c = c.saturating_sub(*e);
        }
        for (h, e) in out.hists.iter_mut().zip(&earlier.hists) {
            *h = h.delta(e);
        }
        out
    }

    /// Renders the non-empty metrics as indented `--stats` lines (empty
    /// string when nothing was recorded).
    pub fn render(&self, indent: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let nonzero: Vec<String> = COUNTERS
            .iter()
            .filter(|c| self.counter(**c) > 0)
            .map(|c| format!("{}={}", c.name(), self.counter(*c)))
            .collect();
        if !nonzero.is_empty() {
            let _ = writeln!(out, "{indent}{}", nonzero.join(" "));
        }
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
        assert!(text.contains("homc_interp_size_bucket{le=\"+Inf\"} 2"), "{text}");
        assert!(text.contains("homc_interp_size_count 2"), "{text}");
        assert!(text.contains("homc_interp_size_sum 1000005"), "{text}");
        // Sample lines match the Prometheus name grammar.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let name = line.split(['{', ' ']).next().unwrap();
            assert!(
                name.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
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
