//! Memory accounting: a counting allocator wrapper over [`System`].
//!
//! The `homc` and `table1` binaries install [`CountingAlloc`] as their
//! `#[global_allocator]`; libraries and the test harness never do, so the
//! accounting surface reads all-zero there and every consumer treats zero
//! as "not installed".
//!
//! # Attribution rules (see DESIGN.md, "Metrics & profiling architecture")
//!
//! * `live` is the global number of heap bytes currently allocated;
//!   `peak` is its high-water mark since the last [`reset_run`].
//! * The verifier's phase guard brackets each timed phase of the phase
//!   table (`homc_budget::phase_table!`) in a [`PhaseScope`], which sets a
//!   **thread-local** phase tag. An allocation is attributed to the
//!   tag of the allocating thread at allocation time: each phase's
//!   `peak_bytes` is the largest *global* live count observed while that
//!   phase was allocating. Frees are global (a phase releasing memory
//!   lowers `live` for everyone) — per-phase numbers are watermarks, not
//!   balances, so they never go negative and always telescope under the
//!   global peak.
//! * A job runs on one thread, so a phase's tag covers every allocation
//!   the phase makes. Allocations on other threads (other jobs of a batch,
//!   untagged code) count toward the global numbers only.
//! * [`window_reset`]/[`window_peak`] give the CEGAR loop a per-iteration
//!   watermark for the `peak_bytes` field of `iter` trace records.

#![allow(unsafe_code)] // GlobalAlloc is an unsafe trait; this module only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use homc_budget::Phase;

const NO_PHASE: u8 = u8::MAX;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static WINDOW_PEAK: AtomicU64 = AtomicU64::new(0);
static PHASE_PEAK: [AtomicU64; Phase::COUNT] = [const { AtomicU64::new(0) }; Phase::COUNT];

thread_local! {
    static PHASE_TAG: Cell<u8> = const { Cell::new(NO_PHASE) };
}

/// Records an allocation of `sz` bytes (public so the accounting logic is
/// unit-testable without installing the allocator).
pub fn account_alloc(sz: u64) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE.fetch_add(sz, Ordering::Relaxed) + sz;
    PEAK.fetch_max(live, Ordering::Relaxed);
    WINDOW_PEAK.fetch_max(live, Ordering::Relaxed);
    // `try_with` guards the TLS-teardown window (allocation during thread
    // destruction must not panic inside the allocator).
    let tag = PHASE_TAG.try_with(Cell::get).unwrap_or(NO_PHASE);
    if (tag as usize) < Phase::COUNT {
        PHASE_PEAK[tag as usize].fetch_max(live, Ordering::Relaxed);
    }
}

/// Records a deallocation of `sz` bytes.
pub fn account_dealloc(sz: u64) {
    LIVE.fetch_sub(sz, Ordering::Relaxed);
}

/// The counting `#[global_allocator]` wrapper over [`System`].
pub struct CountingAlloc;

impl CountingAlloc {
    /// A const constructor, for `static` installation sites.
    pub const fn new() -> CountingAlloc {
        CountingAlloc
    }
}

impl Default for CountingAlloc {
    fn default() -> CountingAlloc {
        CountingAlloc::new()
    }
}

// SAFETY: every method delegates to `System` unchanged; the accounting is
// pure atomic bookkeeping on the side and never touches the heap itself
// (the thread-local is a const-initialized `Cell<u8>`, which allocates
// nothing).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            account_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            account_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        account_dealloc(layout.size() as u64);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // Model a grow/shrink as free(old) + alloc(new); the watermark
            // updates on the alloc side.
            account_dealloc(layout.size() as u64);
            account_alloc(new_size as u64);
        }
        p
    }
}

/// `true` when the counting allocator is actually serving this process
/// (detected by traffic: any binary that installed it has allocated long
/// before anyone asks).
pub fn installed() -> bool {
    ALLOCS.load(Ordering::Relaxed) > 0
}

/// Heap bytes currently live (0 when not installed).
pub fn live_bytes() -> u64 {
    LIVE.load(Ordering::Relaxed)
}

/// The global live-byte high-water mark since the last [`reset_run`].
pub fn peak_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

/// One phase's live-byte high-water mark since the last [`reset_run`].
pub fn phase_peak(phase: Phase) -> u64 {
    PHASE_PEAK[phase as usize].load(Ordering::Relaxed)
}

/// Starts a fresh per-run accounting window: the global peak restarts from
/// the current live count and every per-phase peak restarts from zero.
pub fn reset_run() {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    WINDOW_PEAK.store(live, Ordering::Relaxed);
    for p in &PHASE_PEAK {
        p.store(0, Ordering::Relaxed);
    }
}

/// Restarts the iteration window's watermark from the current live count.
pub fn window_reset() {
    WINDOW_PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// The live-byte high-water mark since the last [`window_reset`].
pub fn window_peak() -> u64 {
    WINDOW_PEAK.load(Ordering::Relaxed)
}

/// An RAII phase tag: allocations on this thread are attributed to `phase`
/// until the scope drops (scopes nest; the previous tag is restored).
pub struct PhaseScope {
    prev: u8,
}

/// Tags this thread's allocations with `phase` for the scope's lifetime.
pub fn phase_scope(phase: Phase) -> PhaseScope {
    let prev = PHASE_TAG.with(|t| t.replace(phase as u8));
    PhaseScope { prev }
}

impl Drop for PhaseScope {
    fn drop(&mut self) {
        let prev = self.prev;
        let _ = PHASE_TAG.try_with(|t| t.set(prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The accounting statics are process-global, so the logic tests drive
    // `account_alloc`/`account_dealloc` directly and only assert relative
    // movement (other tests in the binary may allocate concurrently — but
    // without the allocator installed, nothing else calls `account_*`, so
    // these counters move only under these tests, which take `SERIAL` so
    // they never move them under each other).
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn watermarks_track_live_bytes() {
        let _serial = serial();
        reset_run();
        let base = live_bytes();
        account_alloc(1000);
        account_alloc(500);
        assert_eq!(live_bytes(), base + 1500);
        assert!(peak_bytes() >= base + 1500);
        account_dealloc(1500);
        assert_eq!(live_bytes(), base);
        // Peak survives the free.
        assert!(peak_bytes() >= base + 1500);
        assert!(installed(), "account_alloc marks traffic");
    }

    #[test]
    fn phase_scopes_attribute_and_nest() {
        let _serial = serial();
        reset_run();
        {
            let _abs = phase_scope(Phase::Abs);
            account_alloc(4096);
            {
                let _mc = phase_scope(Phase::Mc);
                account_alloc(100);
            }
            // Back in abs after the inner scope drops.
            account_alloc(1);
            account_dealloc(4197);
        }
        assert!(phase_peak(Phase::Abs) >= 4096);
        assert!(phase_peak(Phase::Mc) >= 100);
        assert_eq!(phase_peak(Phase::Interp), 0);
        // Per-phase watermarks telescope under the global peak.
        assert!(phase_peak(Phase::Abs) <= peak_bytes());
        assert!(phase_peak(Phase::Mc) <= peak_bytes());
    }

    #[test]
    fn window_watermark_resets() {
        let _serial = serial();
        reset_run();
        account_alloc(2000);
        account_dealloc(2000);
        window_reset();
        let base = live_bytes();
        account_alloc(10);
        assert!(window_peak() >= base + 10);
        account_dealloc(10);
        assert!(window_peak() <= peak_bytes());
    }
}
