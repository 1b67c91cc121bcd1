//! A work-stealing job pool with panic trapping, bounded retry, and
//! cooperative cancellation.
//!
//! Jobs are pre-distributed round-robin onto per-worker deques; a worker pops
//! from the front of its own deque and, when empty, steals from the back of
//! the others — cheap locality for the common case, automatic balancing when
//! one job blows up. Each job attempt runs under `catch_unwind`: a panicking
//! job yields a structured [`JobOutcome::Panicked`] (its message captured,
//! the default hook's stderr spew suppressed) and the pool keeps draining. A
//! job that reports retryable exhaustion is re-run after exponential backoff,
//! at most [`RetryPolicy::max_retries`] times, then settles on its fallback
//! value. Cancellation is cooperative and layered: each job carries its own
//! [`CancelToken`] (typically wired into its budget), an optional watchdog
//! cancels jobs that overstay [`PoolConfig::watchdog`], and a pool-wide token
//! drains the queue — jobs never started report [`JobOutcome::Cancelled`].
//!
//! The pool is generic over the job's result type; the verification-specific
//! mapping (outcome → `Verdict::Unknown`, never an abort) lives in the batch
//! driver of the `homc` crate.

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, Once};
use std::time::{Duration, Instant};

use homc_budget::CancelToken;
use homc_metrics::{Counter, Hist, Metrics};
use homc_trace::Tracer;

/// Retry policy for retryable exhaustion (deadline/fuel classes the budget
/// marks as worth another attempt).
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Maximum re-runs after the first attempt (the issue's "one bounded
    /// retry" is the default).
    pub max_retries: u32,
    /// Backoff before retry `k` is `base · 2^(k-1)`, capped at `max_backoff`.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 1,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
        }
    }
}

impl RetryPolicy {
    /// The backoff before the `attempt`-th re-run (1-based).
    pub fn backoff(&self, attempt: u32) -> Duration {
        let factor = 1u32 << attempt.saturating_sub(1).min(16);
        self.base_backoff
            .saturating_mul(factor)
            .min(self.max_backoff)
    }
}

/// Pool sizing and policy.
#[derive(Clone, Debug)]
pub struct PoolConfig {
    /// Worker threads (clamped to at least 1 and at most the job count).
    pub workers: usize,
    /// Retry policy for [`Attempt::Retry`] results.
    pub retry: RetryPolicy,
    /// If set, a monitor thread cancels any job attempt still running after
    /// this long (cooperative — the job observes it at its next budget
    /// checkpoint).
    pub watchdog: Option<Duration>,
    /// Fleet telemetry sink (jobs done/retried, per-attempt latency).
    pub metrics: Metrics,
    /// Live progress sink: every job lifecycle transition emits a schema-
    /// validated `pool_job` event followed by a `pool_hb` heartbeat with the
    /// fleet-wide queue/occupancy tallies. Disabled by default — a disabled
    /// tracer makes the whole path a no-op.
    pub progress: Tracer,
}

impl Default for PoolConfig {
    fn default() -> PoolConfig {
        PoolConfig {
            workers: 2,
            retry: RetryPolicy::default(),
            watchdog: None,
            metrics: Metrics::disabled(),
            progress: Tracer::disabled(),
        }
    }
}

/// What one job attempt reported back to the pool.
#[derive(Debug)]
pub enum Attempt<T> {
    /// The job settled on a result (any verdict, including a degraded one).
    Done(T),
    /// The job hit *retryable* exhaustion: re-run if the retry budget
    /// allows, otherwise settle on `fallback`.
    Retry {
        /// The degraded result to use when no retries remain.
        fallback: T,
        /// Human-readable reason (for the per-job report).
        detail: String,
    },
}

/// One unit of work: a cancel token the pool may fire, plus the attempt
/// body (called with the 0-based attempt index).
pub struct Job<T> {
    /// Cooperative cancellation handle; the job body should observe it
    /// (e.g. via a budget built with `Budget::with_cancel`).
    pub cancel: CancelToken,
    /// The attempt body. `FnMut` so retries can reuse per-job state.
    pub run: Box<dyn FnMut(u32) -> Attempt<T> + Send>,
}

/// Terminal state of one job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobOutcome<T> {
    /// The job produced a result (possibly a retry fallback).
    Done(T),
    /// The job panicked; the pool trapped it.
    Panicked {
        /// The captured panic message.
        detail: String,
    },
    /// The pool was cancelled before this job started.
    Cancelled,
}

/// Per-job report: every submitted job gets exactly one.
#[derive(Clone, Debug)]
pub struct JobResult<T> {
    /// Index of the job in the submitted batch.
    pub index: usize,
    /// Attempts actually started (0 for jobs cancelled in the queue).
    pub attempts: u32,
    /// Detail of the last retry trigger, if any attempt asked for one.
    pub retry_detail: Option<String>,
    /// How the job ended.
    pub outcome: JobOutcome<T>,
}

/// Shared live-telemetry state. Every lifecycle transition emits a
/// `pool_job` event and then a `pool_hb` heartbeat carrying the fleet-wide
/// tallies, so a tailing renderer (`homc top`) can rebuild the pool state
/// from the stream alone. `queued` is derived (`total - started`): jobs
/// leave the queue exactly when a worker takes them, including drained
/// cancellations.
struct PoolProgress<'a> {
    tracer: &'a Tracer,
    total: u64,
    started: AtomicU64,
    running: AtomicU64,
    done: AtomicU64,
    retried: AtomicU64,
}

impl PoolProgress<'_> {
    fn new(tracer: &Tracer, total: usize) -> PoolProgress<'_> {
        PoolProgress {
            tracer,
            total: total as u64,
            started: AtomicU64::new(0),
            running: AtomicU64::new(0),
            done: AtomicU64::new(0),
            retried: AtomicU64::new(0),
        }
    }

    fn transition(&self, job: usize, worker: usize, attempt: u32, state: &str) {
        if !self.tracer.enabled() {
            return;
        }
        self.tracer.emit("pool_job", |e| {
            e.num("job", job as u64)
                .num("worker", worker as u64)
                .num("attempt", u64::from(attempt))
                .str("state", state);
        });
        self.heartbeat();
    }

    /// Emits one `pool_hb` with the tallies as of this instant. Called per
    /// transition, and once more after the worker scope joins: concurrent
    /// workers can interleave heartbeat formatting so the per-transition
    /// ones may land slightly stale in the stream, but the closing one is
    /// emitted alone and always carries the final tallies.
    fn heartbeat(&self) {
        if !self.tracer.enabled() {
            return;
        }
        let started = self.started.load(Ordering::Relaxed);
        self.tracer.emit("pool_hb", |e| {
            e.num("queued", self.total.saturating_sub(started))
                .num("running", self.running.load(Ordering::Relaxed))
                .num("done", self.done.load(Ordering::Relaxed))
                .num("retried", self.retried.load(Ordering::Relaxed));
        });
    }
}

/// Runs every job to a terminal state and returns one report per job, in
/// submission order. Never panics out: a panicking job is trapped into its
/// own report. `pool_cancel` drains the queue cooperatively: running jobs
/// get their tokens fired, queued jobs report [`JobOutcome::Cancelled`].
pub fn run_jobs<T: Send>(
    jobs: Vec<Job<T>>,
    config: &PoolConfig,
    pool_cancel: &CancelToken,
) -> Vec<JobResult<T>> {
    let n = jobs.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = config.workers.clamp(1, n);

    // Job slots plus per-worker deques of slot indices (round-robin spread).
    let slots: Vec<Mutex<Option<Job<T>>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let queues: Vec<Mutex<VecDeque<usize>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for i in 0..n {
        queues[i % workers]
            .lock()
            .expect("pool poisoned")
            .push_back(i);
    }
    let results: Vec<Mutex<Option<JobResult<T>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    // What each worker is running right now, for the watchdog.
    let running: Vec<Mutex<Option<(Instant, CancelToken)>>> =
        (0..workers).map(|_| Mutex::new(None)).collect();
    let done = AtomicBool::new(false);
    let progress = PoolProgress::new(&config.progress, n);

    std::thread::scope(|scope| {
        let (running_ref, done_ref) = (&running, &done);
        let monitor = config
            .watchdog
            .map(|limit| scope.spawn(move || watchdog(limit, running_ref, done_ref)));
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let queues = &queues;
                let slots = &slots;
                let results = &results;
                let running = &running;
                let progress = &progress;
                scope.spawn(move || {
                    quiet_panics(|| {
                        while let Some(idx) = next_job(w, queues) {
                            let job = slots[idx]
                                .lock()
                                .expect("pool poisoned")
                                .take()
                                .expect("job slot taken twice");
                            progress.started.fetch_add(1, Ordering::Relaxed);
                            let result = if pool_cancel.is_cancelled() {
                                progress.done.fetch_add(1, Ordering::Relaxed);
                                progress.transition(idx, w, 0, "cancel");
                                JobResult {
                                    index: idx,
                                    attempts: 0,
                                    retry_detail: None,
                                    outcome: JobOutcome::Cancelled,
                                }
                            } else {
                                run_one(idx, w, job, config, pool_cancel, &running[w], progress)
                            };
                            *results[idx].lock().expect("pool poisoned") = Some(result);
                        }
                    });
                })
            })
            .collect();
        for h in handles {
            let _ = h.join(); // job panics are trapped; don't re-raise others
        }
        done.store(true, Ordering::Relaxed);
        if let Some(m) = monitor {
            let _ = m.join();
        }
    });
    progress.heartbeat();

    results
        .into_iter()
        .enumerate()
        .map(|(i, r)| {
            r.into_inner().expect("pool poisoned").unwrap_or(JobResult {
                index: i,
                attempts: 0,
                retry_detail: None,
                outcome: JobOutcome::Cancelled,
            })
        })
        .collect()
}

/// Pops from the worker's own deque, else steals from the back of another's.
fn next_job(me: usize, queues: &[Mutex<VecDeque<usize>>]) -> Option<usize> {
    if let Some(idx) = queues[me].lock().expect("pool poisoned").pop_front() {
        return Some(idx);
    }
    for off in 1..queues.len() {
        let victim = (me + off) % queues.len();
        if let Some(idx) = queues[victim].lock().expect("pool poisoned").pop_back() {
            return Some(idx);
        }
    }
    None
}

/// Runs one job to its terminal state (attempts + retries).
#[allow(clippy::too_many_arguments)]
fn run_one<T>(
    index: usize,
    worker: usize,
    mut job: Job<T>,
    config: &PoolConfig,
    pool_cancel: &CancelToken,
    my_running: &Mutex<Option<(Instant, CancelToken)>>,
    progress: &PoolProgress<'_>,
) -> JobResult<T> {
    let metrics = &config.metrics;
    let mut attempts = 0u32;
    let mut retry_detail = None;
    loop {
        if pool_cancel.is_cancelled() {
            job.cancel.cancel();
        }
        attempts += 1;
        progress.running.fetch_add(1, Ordering::Relaxed);
        progress.transition(index, worker, attempts, "start");
        let started = Instant::now();
        *my_running.lock().expect("pool poisoned") = Some((started, job.cancel.clone()));
        let attempt = panic::catch_unwind(AssertUnwindSafe(|| (job.run)(attempts - 1)));
        *my_running.lock().expect("pool poisoned") = None;
        metrics.observe_dur(Hist::JobUs, started);
        progress.running.fetch_sub(1, Ordering::Relaxed);
        match attempt {
            Err(payload) => {
                metrics.incr(Counter::JobsDone);
                progress.done.fetch_add(1, Ordering::Relaxed);
                progress.transition(index, worker, attempts, "panic");
                return JobResult {
                    index,
                    attempts,
                    retry_detail,
                    outcome: JobOutcome::Panicked {
                        detail: panic_message(payload.as_ref()),
                    },
                };
            }
            Ok(Attempt::Done(value)) => {
                metrics.incr(Counter::JobsDone);
                progress.done.fetch_add(1, Ordering::Relaxed);
                progress.transition(index, worker, attempts, "done");
                return JobResult {
                    index,
                    attempts,
                    retry_detail,
                    outcome: JobOutcome::Done(value),
                };
            }
            Ok(Attempt::Retry { fallback, detail }) => {
                retry_detail = Some(detail);
                let retries_used = attempts - 1;
                if retries_used >= config.retry.max_retries || pool_cancel.is_cancelled() {
                    metrics.incr(Counter::JobsDone);
                    progress.done.fetch_add(1, Ordering::Relaxed);
                    progress.transition(index, worker, attempts, "done");
                    return JobResult {
                        index,
                        attempts,
                        retry_detail,
                        outcome: JobOutcome::Done(fallback),
                    };
                }
                metrics.incr(Counter::JobsRetried);
                progress.retried.fetch_add(1, Ordering::Relaxed);
                progress.transition(index, worker, attempts, "retry");
                interruptible_sleep(config.retry.backoff(attempts), pool_cancel);
            }
        }
    }
}

/// Sleeps in small slices so a pool-wide cancel cuts the backoff short.
fn interruptible_sleep(total: Duration, cancel: &CancelToken) {
    let slice = Duration::from_millis(10);
    let mut left = total;
    while !left.is_zero() {
        if cancel.is_cancelled() {
            return;
        }
        let step = left.min(slice);
        std::thread::sleep(step);
        left = left.saturating_sub(step);
    }
}

/// Cancels any running attempt that has exceeded `limit`.
fn watchdog(limit: Duration, running: &[Mutex<Option<(Instant, CancelToken)>>], done: &AtomicBool) {
    let tick = (limit / 4).max(Duration::from_millis(5));
    while !done.load(Ordering::Relaxed) {
        for slot in running {
            if let Some((started, token)) = &*slot.lock().expect("pool poisoned") {
                if started.elapsed() > limit {
                    token.cancel();
                }
            }
        }
        std::thread::sleep(tick);
    }
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

thread_local! {
    static TRAPPING: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Suppresses the default panic hook's stderr output for panics raised on
/// this thread while `f` runs (they are trapped and reported structurally).
/// The hook is installed once, process-wide, and chains to the previous hook
/// for every other thread.
fn quiet_panics<R>(f: impl FnOnce() -> R) -> R {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !TRAPPING.with(|t| t.get()) {
                previous(info);
            }
        }));
    });
    TRAPPING.with(|t| t.set(true));
    let r = f();
    TRAPPING.with(|t| t.set(false));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_retry() -> RetryPolicy {
        RetryPolicy {
            max_retries: 1,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        }
    }

    fn plain_job<T: Send + 'static>(f: impl FnMut(u32) -> Attempt<T> + Send + 'static) -> Job<T> {
        Job {
            cancel: CancelToken::new(),
            run: Box::new(f),
        }
    }

    #[test]
    fn all_jobs_report_in_order() {
        let jobs: Vec<Job<usize>> = (0..17)
            .map(|i| plain_job(move |_| Attempt::Done(i * i)))
            .collect();
        let config = PoolConfig {
            workers: 4,
            retry: quick_retry(),
            ..PoolConfig::default()
        };
        let results = run_jobs(jobs, &config, &CancelToken::new());
        assert_eq!(results.len(), 17);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.index, i);
            assert_eq!(r.attempts, 1);
            assert_eq!(r.outcome, JobOutcome::Done(i * i));
        }
    }

    #[test]
    fn panicking_job_is_trapped_not_fatal() {
        let jobs: Vec<Job<u32>> = vec![
            plain_job(|_| Attempt::Done(1)),
            plain_job(|_| panic!("boom in job 1")),
            plain_job(|_| Attempt::Done(3)),
        ];
        let metrics = Metrics::new(true);
        let config = PoolConfig {
            workers: 2,
            retry: quick_retry(),
            metrics: metrics.clone(),
            ..PoolConfig::default()
        };
        let results = run_jobs(jobs, &config, &CancelToken::new());
        assert_eq!(results[0].outcome, JobOutcome::Done(1));
        assert_eq!(results[2].outcome, JobOutcome::Done(3));
        match &results[1].outcome {
            JobOutcome::Panicked { detail } => assert!(detail.contains("boom"), "{detail}"),
            other => panic!("expected Panicked, got {other:?}"),
        }
        assert_eq!(metrics.snapshot().counter(Counter::JobsDone), 3);
    }

    #[test]
    fn retry_is_bounded_and_settles_on_fallback() {
        let metrics = Metrics::new(true);
        let config = PoolConfig {
            workers: 1,
            retry: quick_retry(),
            metrics: metrics.clone(),
            ..PoolConfig::default()
        };
        // Succeeds on the retry.
        let jobs = vec![plain_job(|attempt| {
            if attempt == 0 {
                Attempt::Retry {
                    fallback: 0,
                    detail: "fuel".into(),
                }
            } else {
                Attempt::Done(7)
            }
        })];
        let results = run_jobs(jobs, &config, &CancelToken::new());
        assert_eq!(results[0].outcome, JobOutcome::Done(7));
        assert_eq!(results[0].attempts, 2);
        assert_eq!(results[0].retry_detail.as_deref(), Some("fuel"));
        assert_eq!(metrics.snapshot().counter(Counter::JobsRetried), 1);

        // Never succeeds: bounded at max_retries, settles on the fallback.
        let jobs = vec![plain_job(|_| Attempt::Retry {
            fallback: 42,
            detail: "deadline".into(),
        })];
        let results = run_jobs(jobs, &config, &CancelToken::new());
        assert_eq!(results[0].outcome, JobOutcome::Done(42));
        assert_eq!(results[0].attempts, 2, "1 run + 1 bounded retry");
    }

    #[test]
    fn pool_cancel_drains_queue() {
        let pool_cancel = CancelToken::new();
        let trigger = pool_cancel.clone();
        // Single worker: job 0 cancels the pool; jobs 1..4 must drain as
        // Cancelled without running.
        let mut jobs: Vec<Job<u32>> = vec![plain_job(move |_| {
            trigger.cancel();
            Attempt::Done(0)
        })];
        for _ in 1..5 {
            jobs.push(plain_job(|_| Attempt::Done(99)));
        }
        let config = PoolConfig {
            workers: 1,
            retry: quick_retry(),
            ..PoolConfig::default()
        };
        let results = run_jobs(jobs, &config, &pool_cancel);
        assert_eq!(results[0].outcome, JobOutcome::Done(0));
        for r in &results[1..] {
            assert_eq!(r.outcome, JobOutcome::Cancelled);
            assert_eq!(r.attempts, 0);
        }
    }

    #[test]
    fn watchdog_cancels_overstaying_job() {
        // The job spins until its own token fires — the cooperative pattern
        // a budgeted verification job follows (via Budget::with_cancel).
        let cancel = CancelToken::new();
        let observed = cancel.clone();
        let jobs: Vec<Job<&'static str>> = vec![Job {
            cancel,
            run: Box::new(move |_| {
                let started = Instant::now();
                while !observed.is_cancelled() {
                    if started.elapsed() > Duration::from_secs(10) {
                        return Attempt::Done("hung");
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                Attempt::Done("cancelled")
            }),
        }];
        let config = PoolConfig {
            workers: 1,
            retry: quick_retry(),
            watchdog: Some(Duration::from_millis(30)),
            ..PoolConfig::default()
        };
        let results = run_jobs(jobs, &config, &CancelToken::new());
        assert_eq!(results[0].outcome, JobOutcome::Done("cancelled"));
    }

    #[test]
    fn progress_stream_is_schema_valid_and_drains() {
        let tracer = Tracer::memory(true);
        let config = PoolConfig {
            workers: 2,
            retry: quick_retry(),
            progress: tracer.clone(),
            ..PoolConfig::default()
        };
        let jobs: Vec<Job<u32>> = (0..5)
            .map(|i| plain_job(move |_| Attempt::Done(i)))
            .collect();
        run_jobs(jobs, &config, &CancelToken::new());
        let text = tracer.snapshot().unwrap();
        homc_trace::validate_trace(&text).unwrap_or_else(|(n, e)| panic!("line {n}: {e}"));
        let state = |s: &str| {
            text.lines()
                .filter(|l| l.contains(&format!("\"state\":\"{s}\"")))
                .count()
        };
        assert_eq!(state("start"), 5);
        assert_eq!(state("done"), 5);
        let last_hb = text
            .lines()
            .rev()
            .find(|l| l.contains("\"ev\":\"pool_hb\""))
            .expect("heartbeats present");
        assert!(
            last_hb.contains("\"queued\":0") && last_hb.contains("\"done\":5"),
            "{last_hb}"
        );
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let p = RetryPolicy {
            max_retries: 5,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(35),
        };
        assert_eq!(p.backoff(1), Duration::from_millis(10));
        assert_eq!(p.backoff(2), Duration::from_millis(20), "doubles");
        assert_eq!(p.backoff(3), Duration::from_millis(35), "capped");
        assert_eq!(p.backoff(60), Duration::from_millis(35), "shift bounded");
    }
}
