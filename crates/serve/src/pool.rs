//! The job pool: runs each job once, on a fixed set of workers, under the
//! panic trap.
//!
//! Workers take the next job index from one shared counter, so with one
//! worker jobs run in submission order. Each job runs under
//! [`trap_panics`]: a panicking job yields its panic message (the default
//! hook's stderr spew suppressed) and the pool keeps draining. Every limit a
//! job can hit (deadline, fuel, steps, size) lives in the job's own budget,
//! so the pool has none of its own.
//!
//! The pool is generic over the job's result type; the verification-specific
//! mapping (panic → `Verdict::Unknown`, never an abort) lives in the batch
//! driver of the `homc` crate.

use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, Once};
use std::time::Instant;

use homc_metrics::{Counter, Hist, Metrics};
use homc_trace::Tracer;

/// Pool sizing and sinks.
#[derive(Clone, Debug)]
pub struct PoolConfig {
    /// Worker threads (clamped to at least 1 and at most the job count).
    pub workers: usize,
    /// Fleet telemetry sink (jobs done, per-job latency).
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
            metrics: Metrics::disabled(),
            progress: Tracer::disabled(),
        }
    }
}

/// One unit of work.
pub type Job<T> = Box<dyn FnOnce() -> T + Send>;

/// Shared live-telemetry state. Every lifecycle transition emits a
/// `pool_job` event and then a `pool_hb` heartbeat carrying the fleet-wide
/// tallies, so a tailing renderer (`homc top`) can rebuild the pool state
/// from the stream alone. `queued` is derived (`total - started`): jobs
/// leave the queue exactly when a worker takes them.
struct PoolProgress<'a> {
    tracer: &'a Tracer,
    total: u64,
    started: AtomicU64,
    running: AtomicU64,
    done: AtomicU64,
}

impl PoolProgress<'_> {
    fn new(tracer: &Tracer, total: usize) -> PoolProgress<'_> {
        PoolProgress {
            tracer,
            total: total as u64,
            started: AtomicU64::new(0),
            running: AtomicU64::new(0),
            done: AtomicU64::new(0),
        }
    }

    fn transition(&self, job: usize, worker: usize, state: &str) {
        if !self.tracer.enabled() {
            return;
        }
        self.tracer.emit("pool_job", |e| {
            e.num("job", job as u64)
                .num("worker", worker as u64)
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
                .num("done", self.done.load(Ordering::Relaxed));
        });
    }
}

/// Runs every job once and returns, in submission order, each job's value
/// or its panic message. Never panics out: a panicking job is trapped into
/// its own `Err`.
pub fn run_jobs<T: Send>(jobs: Vec<Job<T>>, config: &PoolConfig) -> Vec<Result<T, String>> {
    let n = jobs.len();
    if n == 0 {
        return Vec::new();
    }
    let slots: Vec<Mutex<Option<Job<T>>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let results: Vec<Mutex<Option<Result<T, String>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let progress = PoolProgress::new(&config.progress, n);

    std::thread::scope(|scope| {
        for worker in 0..config.workers.clamp(1, n) {
            let (slots, results, next, progress) = (&slots, &results, &next, &progress);
            scope.spawn(move || loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(slot) = slots.get(index) else {
                    break;
                };
                let job = slot
                    .lock()
                    .expect("pool poisoned")
                    .take()
                    .expect("job slot taken twice");
                progress.started.fetch_add(1, Ordering::Relaxed);
                progress.running.fetch_add(1, Ordering::Relaxed);
                progress.transition(index, worker, "start");
                let started = Instant::now();
                let result = trap_panics(job);
                config.metrics.observe_dur(Hist::JobUs, started);
                config.metrics.incr(Counter::JobsDone);
                progress.running.fetch_sub(1, Ordering::Relaxed);
                progress.done.fetch_add(1, Ordering::Relaxed);
                progress.transition(index, worker, if result.is_ok() { "done" } else { "panic" });
                *results[index].lock().expect("pool poisoned") = Some(result);
            });
        }
    });
    progress.heartbeat();

    results
        .into_iter()
        .map(|r| {
            r.into_inner()
                .expect("pool poisoned")
                .expect("every job ran")
        })
        .collect()
}

thread_local! {
    static TRAPPING: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f`, turning a panic into `Err(message)`: the one panic trap, used
/// by the pool per job and by the verifier per CEGAR iteration. While `f`
/// runs, the default panic hook stays quiet on this thread (the panic is an
/// expected degradation path, reported structurally). The hook is installed
/// once, process-wide, and chains to the previous hook for every other
/// thread. Traps nest: each restores the flag it found.
pub fn trap_panics<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !TRAPPING.with(Cell::get) {
                previous(info);
            }
        }));
    });
    let outer = TRAPPING.with(|t| t.replace(true));
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    TRAPPING.with(|t| t.set(outer));
    result.map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> Job<T> {
        Box::new(f)
    }

    #[test]
    fn all_jobs_report_in_order() {
        let jobs: Vec<Job<usize>> = (0..17).map(|i| job(move || i * i)).collect();
        let config = PoolConfig {
            workers: 4,
            ..PoolConfig::default()
        };
        let results = run_jobs(jobs, &config);
        assert_eq!(results.len(), 17);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r, &Ok(i * i));
        }
    }

    #[test]
    fn panicking_job_is_trapped_not_fatal() {
        let jobs: Vec<Job<u32>> = vec![job(|| 1), job(|| panic!("boom in job 1")), job(|| 3)];
        let metrics = Metrics::new(true);
        let config = PoolConfig {
            workers: 2,
            metrics: metrics.clone(),
            ..PoolConfig::default()
        };
        let results = run_jobs(jobs, &config);
        assert_eq!(results[0], Ok(1));
        assert_eq!(results[2], Ok(3));
        match &results[1] {
            Err(detail) => assert!(detail.contains("boom"), "{detail}"),
            other => panic!("expected a panic message, got {other:?}"),
        }
        assert_eq!(metrics.snapshot().counter(Counter::JobsDone), 3);
    }

    #[test]
    fn nested_traps_restore_the_outer_flag() {
        let outer = trap_panics(|| {
            let inner = trap_panics(|| panic!("inner"));
            assert_eq!(inner, Err("inner".to_string()));
            assert!(
                TRAPPING.with(Cell::get),
                "the inner trap cleared the outer one"
            );
            panic!("outer")
        });
        assert_eq!(outer, Err::<(), _>("outer".to_string()));
        assert!(!TRAPPING.with(Cell::get));
    }

    #[test]
    fn progress_stream_is_schema_valid_and_drains() {
        let tracer = Tracer::memory(true);
        let config = PoolConfig {
            workers: 2,
            progress: tracer.clone(),
            ..PoolConfig::default()
        };
        let jobs: Vec<Job<u32>> = (0..5).map(|i| job(move || i)).collect();
        run_jobs(jobs, &config);
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
}
