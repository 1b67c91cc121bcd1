//! `homc-budget`: the shared resource budget of the CEGAR pipeline.
//!
//! Every phase of the verifier — predicate abstraction, higher-order model
//! checking, feasibility replay, interpolation, and the SMT substrate —
//! periodically calls [`Budget::checkpoint`]. A checkpoint is where the
//! pipeline can be preempted: when the wall-clock deadline has passed, the
//! fuel counter is spent, or a [`FaultPlan`] injection fires, the checkpoint
//! returns a structured [`BudgetError`] that the caller propagates outward.
//! The verifier turns any such error into `Verdict::Unknown` — exhaustion is
//! a *verdict*, never a hang and never an abort.
//!
//! The budget is deliberately tiny and dependency-free: it sits below every
//! other crate in the workspace so that all of them can share one clock and
//! one fuel pool.
//!
//! # Design notes
//!
//! * Counters are atomics, so a `&Budget` can be threaded through shared
//!   references (the solver, the checker, the refiner) without plumbing
//!   `&mut` everywhere.
//! * With a deadline set, every checkpoint reads the wall clock, so a run
//!   stops at the first checkpoint past its deadline; without one, no
//!   checkpoint reads the clock.
//! * Fault injection is deterministic: the N-th checkpoint of a named phase
//!   fails, every run, which makes degradation paths unit-testable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::ops::{AddAssign, Index, IndexMut};
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The phase table: every phase of a verification run, declared once.
///
/// `cegar` rows are the steps of the CEGAR loop: budget checkpoints name
/// them (so `--inject` can target them) and the verifier's phase guard
/// times them. The `nested` row is the SMT substrate, checkpointed inside
/// the other phases and never timed on its own. `around` rows are timed
/// outside the loop and take no checkpoint. A row gives the [`Phase`]
/// variant and name, the paper's Table 1 column its time adds into
/// (`abst`, `mc`, `cegar`, or one of its own), the [`Surface`]s that show
/// that column and the phase's peak heap, and the help text. A timed phase
/// is also a trace phase (`span`, `job_phase`, `trace-report`) and a
/// memory-accounting tag. The rows go to the macro named `$then`; this
/// crate expands them into [`Phase`] and the phase lists.
#[macro_export]
macro_rules! phase_table {
    ($then:ident) => {
        $then! {
            cegar {
                Abs abs => abst [Stats, Ledger, Table1] "Predicate abstraction (Step 1)";
                Mc mc => mc [Stats, Ledger, Table1] "Higher-order model checking (Step 2)";
                Feas feas => cegar [Stats, Ledger, Table1]
                    "Feasibility replay of the abstract error path (Step 3)";
                Interp interp => cegar [Stats, Ledger, Table1]
                    "Feasibility verdict and predicate discovery by interpolation (Step 4)";
            }
            nested {
                Smt smt => smt [] "The SMT substrate, queried by every other phase";
            }
            around {
                Evidence evidence => evidence [Stats, Table1]
                    "Certificate export after a decisive verdict (--evidence-dir)";
                Artifact artifact => artifact [Stats]
                    "Artifact load and seeding before the loop, publish after it (--artifacts-dir)";
                Check check => check [Stats, Table1]
                    "In-run self-check of the exported certificate (--evidence-dir)";
            }
        }
    };
}

/// Declares [`Phase`] and the phase lists from the rows of [`phase_table!`].
macro_rules! define_phases {
    (@lists cegar { $($c:ident $cn:ident)* } nested { $($n:ident $nn:ident)* }
        around { $($a:ident $an:ident)* }) => {
        /// The CEGAR loop's phases (the `cegar` rows), which the paper's
        /// Table 1 times.
        pub const LOOP: [Phase; [$(stringify!($c)),*].len()] = [$(Phase::$c),*];
        /// The phases a checkpoint names (the `cegar` and `nested` rows),
        /// in pipeline order: the `--inject` targets.
        pub const PHASES: [Phase; [$(stringify!($c)),* $(, stringify!($n))*].len()] =
            [$(Phase::$c),* $(, Phase::$n)*];
        /// The timed phases (the `cegar` and `around` rows), in table order.
        pub const TIMED: [Phase; TIMED_NAMES.len()] = [$(Phase::$c),* $(, Phase::$a)*];
        /// The names of [`TIMED`], in the same order.
        pub const TIMED_NAMES: [&str; [$(stringify!($c)),* $(, stringify!($a))*].len()] =
            [$(stringify!($cn)),* $(, stringify!($an))*];
    };
    ($($group:ident { $( $v:ident $name:ident => $col:ident [$($surface:ident),*]
        $help:literal; )* })*) => {
        /// A phase of a verification run, one variant per row of
        /// [`phase_table!`].
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
        pub enum Phase {
            $($( #[doc = $help] $v, )*)*
        }

        impl Phase {
            /// The number of phases.
            pub const COUNT: usize = [$($(stringify!($v)),*),*].len();

            /// The stable name: the `--inject` spelling and the trace phase.
            pub fn name(self) -> &'static str {
                match self {
                    $($( Phase::$v => stringify!($name), )*)*
                }
            }

            /// The paper's Table 1 column this phase's time adds into.
            pub fn column(self) -> &'static str {
                match self {
                    $($( Phase::$v => stringify!($col), )*)*
                }
            }

            /// `true` when `surface` shows this phase's column and peak.
            pub fn shows(self, surface: Surface) -> bool {
                match self {
                    $($( Phase::$v => [$(Surface::$surface),*].contains(&surface), )*)*
                }
            }
        }

        define_phases!(@lists $($group { $($v $name)* })*);
    };
}

phase_table!(define_phases);

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Phase {
    type Err = String;

    /// Parses the name of one of [`PHASES`].
    fn from_str(s: &str) -> Result<Phase, String> {
        PHASES.into_iter().find(|p| p.name() == s).ok_or_else(|| {
            let names: Vec<&str> = PHASES.iter().map(|p| p.name()).collect();
            format!("unknown phase {s:?} (expected one of {})", names.join(", "))
        })
    }
}

/// A place besides the metrics registry that shows counters and phases;
/// the rows of both tables name theirs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Surface {
    /// `homc --stats`: a counter's value; a phase's column and peak.
    Stats,
    /// The run-ledger record: a counter's value; a phase's `<column>_us`.
    Ledger,
    /// The `iter` trace record (counters only).
    Iter,
    /// `table1 --json`: a counter's row and totals columns; a phase's
    /// `<column>_s` and `peak_<phase>_bytes` row keys.
    Table1,
    /// A batch job's settlement: the `batch_job` progress event and the
    /// job objects of `--json` (counters only).
    Batch,
}

/// The timed phases `surface` shows, in table order.
pub fn shown(surface: Surface) -> impl Iterator<Item = Phase> {
    TIMED.into_iter().filter(move |p| p.shows(surface))
}

/// The Table 1 columns `phases` add into, in order, each once.
pub fn columns(phases: impl IntoIterator<Item = Phase>) -> Vec<&'static str> {
    let mut out = Vec::new();
    for p in phases {
        if !out.contains(&p.column()) {
            out.push(p.column());
        }
    }
    out
}

/// One value per phase, indexed by [`Phase`]: a run's time or peak heap in
/// each phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PerPhase<T>([T; Phase::COUNT]);

impl<T> Index<Phase> for PerPhase<T> {
    type Output = T;

    fn index(&self, phase: Phase) -> &T {
        &self.0[phase as usize]
    }
}

impl<T> IndexMut<Phase> for PerPhase<T> {
    fn index_mut(&mut self, phase: Phase) -> &mut T {
        &mut self.0[phase as usize]
    }
}

impl<T: Copy + AddAssign> PerPhase<T> {
    /// The Table 1 columns `phases` add into, in order, each with the sum
    /// of its phases' values.
    pub fn columns(&self, phases: impl IntoIterator<Item = Phase>) -> Vec<(&'static str, T)> {
        let mut out: Vec<(&'static str, T)> = Vec::new();
        for p in phases {
            match out.iter_mut().find(|(c, _)| *c == p.column()) {
                Some((_, sum)) => *sum += self[p],
                None => out.push((p.column(), self[p])),
            }
        }
        out
    }
}

/// Which resource limit a [`BudgetError`] reports.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LimitKind {
    /// The wall-clock deadline passed.
    Deadline,
    /// The shared fuel counter ran out.
    Fuel,
    /// A phase-local step / search budget (e.g. `CheckLimits`) was spent.
    Steps,
    /// A phase-local size budget (table size, combination count, DNF cubes).
    Size,
    /// A [`FaultPlan`] injection fired.
    Injected,
}

impl fmt::Display for LimitKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LimitKind::Deadline => write!(f, "deadline"),
            LimitKind::Fuel => write!(f, "fuel"),
            LimitKind::Steps => write!(f, "step limit"),
            LimitKind::Size => write!(f, "size limit"),
            LimitKind::Injected => write!(f, "injected fault"),
        }
    }
}

/// A structured resource-exhaustion report: which phase hit which limit.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BudgetError {
    /// The phase that was executing when the limit was hit.
    pub phase: Phase,
    /// The limit that was hit.
    pub limit: LimitKind,
    /// Free-form detail (e.g. `"more than 200000 typings"`). May be empty.
    pub detail: String,
}

impl BudgetError {
    /// Creates a report without detail text.
    pub fn new(phase: Phase, limit: LimitKind) -> BudgetError {
        BudgetError {
            phase,
            limit,
            detail: String::new(),
        }
    }

    /// Creates a report with detail text.
    pub fn with_detail(phase: Phase, limit: LimitKind, detail: impl Into<String>) -> BudgetError {
        BudgetError {
            phase,
            limit,
            detail: detail.into(),
        }
    }

    /// `true` for limits the verifier may retry with escalated phase-local
    /// limits (pointless for deadlines and injected faults, which would
    /// simply fire again / already consumed the whole time budget).
    pub fn retryable(&self) -> bool {
        matches!(
            self.limit,
            LimitKind::Steps | LimitKind::Size | LimitKind::Fuel
        )
    }
}

impl fmt::Display for BudgetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.phase, self.limit)?;
        if !self.detail.is_empty() {
            write!(f, " ({})", self.detail)?;
        }
        Ok(())
    }
}

impl std::error::Error for BudgetError {}

/// What an injected fault does when it fires.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// The checkpoint returns a [`BudgetError`] with
    /// [`LimitKind::Injected`] — a simulated solver failure / timeout.
    Error,
    /// The checkpoint panics — a simulated internal invariant violation,
    /// for drilling the verifier's `catch_unwind` boundary.
    Panic,
}

/// One deterministic injection: fail the `at`-th checkpoint of `phase`
/// (1-based).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Fault {
    /// The phase to sabotage.
    pub phase: Phase,
    /// Which checkpoint of that phase fires the fault (1 = the first).
    pub at: u64,
    /// Error or panic.
    pub kind: FaultKind,
}

/// A deterministic fault-injection plan (possibly empty).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// The empty plan (no injections).
    pub const fn none() -> FaultPlan {
        FaultPlan { faults: Vec::new() }
    }

    /// A plan with a single injection.
    pub fn one(phase: Phase, at: u64, kind: FaultKind) -> FaultPlan {
        FaultPlan {
            faults: vec![Fault { phase, at, kind }],
        }
    }

    /// Adds an injection.
    pub fn push(&mut self, fault: Fault) {
        self.faults.push(fault);
    }

    /// The fault (if any) scheduled for checkpoint number `count` of `phase`.
    fn fires(&self, phase: Phase, count: u64) -> Option<&Fault> {
        self.faults
            .iter()
            .find(|f| f.phase == phase && f.at == count)
    }
}

/// Parse error for `--inject` specifications.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultSpecError(pub String);

impl fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad fault spec: {}", self.0)
    }
}

impl std::error::Error for FaultSpecError {}

impl FromStr for Fault {
    type Err = FaultSpecError;

    /// Parses `phase:n` or `phase:n:panic`, e.g. `smt:3` or `mc:1:panic`.
    fn from_str(s: &str) -> Result<Fault, FaultSpecError> {
        let mut parts = s.split(':');
        let phase = parts
            .next()
            .filter(|p| !p.is_empty())
            .ok_or_else(|| FaultSpecError(format!("{s:?}: missing phase")))?;
        let phase: Phase = phase.parse().map_err(FaultSpecError)?;
        let at = parts
            .next()
            .ok_or_else(|| FaultSpecError(format!("{s:?}: missing checkpoint number")))?;
        let at: u64 = at
            .parse()
            .map_err(|e| FaultSpecError(format!("{s:?}: bad checkpoint number: {e}")))?;
        if at == 0 {
            return Err(FaultSpecError(format!(
                "{s:?}: checkpoint numbers are 1-based"
            )));
        }
        let kind = match parts.next() {
            None => FaultKind::Error,
            Some("panic") => FaultKind::Panic,
            Some("error") => FaultKind::Error,
            Some(other) => {
                return Err(FaultSpecError(format!(
                    "{s:?}: unknown fault kind {other:?} (expected error or panic)"
                )))
            }
        };
        if parts.next().is_some() {
            return Err(FaultSpecError(format!("{s:?}: trailing garbage")));
        }
        Ok(Fault { phase, at, kind })
    }
}

/// The shared resource budget: wall-clock deadline + monotone fuel counter +
/// deterministic fault plan, with one checkpoint counter per [`Phase`].
pub struct Budget {
    deadline: Option<Instant>,
    max_fuel: Option<u64>,
    plan: FaultPlan,
    fuel_used: AtomicU64,
    counters: [AtomicU64; Phase::COUNT],
}

impl fmt::Debug for Budget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Budget")
            .field("deadline", &self.deadline)
            .field("max_fuel", &self.max_fuel)
            .field("plan", &self.plan)
            .field("fuel_used", &self.fuel_used.load(Ordering::Relaxed))
            .finish()
    }
}

impl Default for Budget {
    fn default() -> Budget {
        Budget::new(None, None, FaultPlan::none())
    }
}

impl Budget {
    /// A budget with explicit deadline (from now), fuel, and fault plan.
    pub fn new(timeout: Option<Duration>, max_fuel: Option<u64>, plan: FaultPlan) -> Budget {
        Budget {
            deadline: timeout.map(|t| Instant::now() + t),
            max_fuel,
            plan,
            fuel_used: AtomicU64::new(0),
            counters: Default::default(),
        }
    }

    /// A shared budget with no limits and no faults. Checkpoints against it
    /// always succeed; use it where no caller provided a real budget.
    pub fn unlimited() -> &'static Budget {
        static UNLIMITED: OnceLock<Budget> = OnceLock::new();
        UNLIMITED.get_or_init(Budget::default)
    }

    /// The wall-clock deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Total checkpoints passed so far (the fuel spent).
    pub fn fuel_used(&self) -> u64 {
        self.fuel_used.load(Ordering::Relaxed)
    }

    /// Checkpoints passed so far in `phase`.
    pub fn checkpoints(&self, phase: Phase) -> u64 {
        self.counters[phase as usize].load(Ordering::Relaxed)
    }

    /// Registers one unit of work in `phase`.
    ///
    /// Fails with a structured [`BudgetError`] when the fuel pool is spent,
    /// the deadline has passed, or a planned fault fires. A planned
    /// [`FaultKind::Panic`] fault panics instead — callers are expected to
    /// be wrapped in the verifier's panic trap.
    pub fn checkpoint(&self, phase: Phase) -> Result<(), BudgetError> {
        let count = self.counters[phase as usize].fetch_add(1, Ordering::Relaxed) + 1;
        let fuel = self.fuel_used.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(fault) = self.plan.fires(phase, count) {
            match fault.kind {
                FaultKind::Error => {
                    return Err(BudgetError::with_detail(
                        phase,
                        LimitKind::Injected,
                        format!("planned fault at {phase} checkpoint {count}"),
                    ))
                }
                FaultKind::Panic => {
                    panic!("injected fault: panic at {phase} checkpoint {count}")
                }
            }
        }
        if let Some(max) = self.max_fuel {
            if fuel > max {
                return Err(BudgetError::with_detail(
                    phase,
                    LimitKind::Fuel,
                    format!("{max} checkpoints"),
                ));
            }
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(BudgetError::with_detail(
                phase,
                LimitKind::Deadline,
                "wall-clock deadline passed",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_fails() {
        let b = Budget::unlimited();
        for phase in PHASES {
            for _ in 0..1000 {
                b.checkpoint(phase).expect("unlimited");
            }
        }
    }

    #[test]
    fn fuel_exhausts_exactly() {
        let b = Budget::new(None, Some(10), FaultPlan::none());
        for _ in 0..10 {
            b.checkpoint(Phase::Mc).expect("within fuel");
        }
        let e = b.checkpoint(Phase::Smt).expect_err("over fuel");
        assert_eq!(e.limit, LimitKind::Fuel);
        assert_eq!(e.phase, Phase::Smt);
        assert!(e.retryable());
    }

    #[test]
    fn deadline_fires_within_stride() {
        // Every checkpoint reads the clock, so an expired deadline fails
        // the very first one.
        let b = Budget::new(Some(Duration::ZERO), None, FaultPlan::none());
        let e = b
            .checkpoint(Phase::Abs)
            .expect_err("deadline already passed");
        assert_eq!(e.limit, LimitKind::Deadline);
        assert!(!e.retryable());
    }

    #[test]
    fn deadline_fires_at_the_next_checkpoint_of_the_same_phase() {
        let b = Budget::new(Some(Duration::from_millis(10)), None, FaultPlan::none());
        b.checkpoint(Phase::Mc).expect("within the deadline");
        std::thread::sleep(Duration::from_millis(15));
        let e = b.checkpoint(Phase::Mc).expect_err("deadline passed");
        assert_eq!(e.limit, LimitKind::Deadline);
        assert_eq!(e.phase, Phase::Mc);
    }

    #[test]
    fn fault_fires_at_exact_checkpoint() {
        let b = Budget::new(
            None,
            None,
            FaultPlan::one(Phase::Interp, 3, FaultKind::Error),
        );
        b.checkpoint(Phase::Interp).expect("1");
        // Other phases do not advance the interp counter.
        b.checkpoint(Phase::Smt).expect("smt unaffected");
        b.checkpoint(Phase::Interp).expect("2");
        let e = b.checkpoint(Phase::Interp).expect_err("3 fires");
        assert_eq!(e.limit, LimitKind::Injected);
        assert_eq!(e.phase, Phase::Interp);
        assert!(!e.retryable());
        // One-shot: the next checkpoint passes again.
        b.checkpoint(Phase::Interp).expect("4");
    }

    #[test]
    fn panic_fault_panics() {
        let b = Budget::new(None, None, FaultPlan::one(Phase::Mc, 1, FaultKind::Panic));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = b.checkpoint(Phase::Mc);
        }));
        assert!(r.is_err(), "panic fault must panic");
    }

    #[test]
    fn fault_spec_parsing() {
        assert_eq!(
            "smt:3".parse::<Fault>().unwrap(),
            Fault {
                phase: Phase::Smt,
                at: 3,
                kind: FaultKind::Error
            }
        );
        assert_eq!(
            "mc:1:panic".parse::<Fault>().unwrap(),
            Fault {
                phase: Phase::Mc,
                at: 1,
                kind: FaultKind::Panic
            }
        );
        assert!("bogus:1".parse::<Fault>().is_err());
        assert!("mc:0".parse::<Fault>().is_err());
        assert!("mc".parse::<Fault>().is_err());
        assert!("mc:1:panic:x".parse::<Fault>().is_err());
    }

    #[test]
    fn columns_sum_their_phases_in_table_order() {
        let mut t = PerPhase::<u64>::default();
        t[Phase::Abs] = 1;
        t[Phase::Feas] = 2;
        t[Phase::Interp] = 3;
        t[Phase::Evidence] = 4;
        assert_eq!(t.columns(LOOP), [("abst", 1), ("mc", 0), ("cegar", 5)]);
        assert_eq!(columns(shown(Surface::Ledger)), ["abst", "mc", "cegar"]);
        assert_eq!(columns(shown(Surface::Stats)).last(), Some(&"check"));
    }

    #[test]
    fn display_reads_well() {
        let e = BudgetError::with_detail(Phase::Mc, LimitKind::Steps, "search steps");
        assert_eq!(e.to_string(), "mc: step limit (search steps)");
        let e = BudgetError::new(Phase::Smt, LimitKind::Deadline);
        assert_eq!(e.to_string(), "smt: deadline");
    }
}
