//! The benchmark's counting allocator.
//!
//! It delegates to the program's own [`CountingAlloc`], so the verifier's
//! heap statistics behave as in the `homc` binary, and keeps a separate
//! high-water mark: `homc_metrics::mem::reset_run` restarts the program's
//! peak on every `verify`, which would hide the peak of a whole run.

use std::alloc::{GlobalAlloc, Layout};
use std::sync::atomic::{AtomicU64, Ordering};

use homc_metrics::mem::CountingAlloc;

static INNER: CountingAlloc = CountingAlloc::new();
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// Counting wrapper installed as the benchmark's `#[global_allocator]`.
pub struct PeakAlloc;

fn grew(size: usize) {
    let live = LIVE.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
    // Read first: most allocations set no new peak, and a plain load keeps
    // the cache line shared between the threads that allocate.
    if live > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrank(size: usize) {
    LIVE.fetch_sub(size as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `CountingAlloc`,
// which forwards them to `System`; the bookkeeping only touches atomics and
// never allocates.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { INNER.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { INNER.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { INNER.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { INNER.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        p
    }
}

/// Restarts the high-water mark from the current live heap.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Highest live heap, in bytes, since the last [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}
