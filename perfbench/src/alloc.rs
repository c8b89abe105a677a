//! Counting global allocator: allocations, bytes requested, and the
//! high-water mark of live heap bytes.
//!
//! The benchmark is single-threaded, so `Relaxed` counters are exact;
//! they publish no other data.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Forwards to the system allocator and counts what passes through.
pub struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow(by: u64) {
    let live = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no memory
// the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(l.size() as u64, Relaxed);
        grow(l.size() as u64);
        // SAFETY: the caller's guarantees for `alloc` are passed through.
        unsafe { System.alloc(l) }
    }

    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(l.size() as u64, Relaxed);
        grow(l.size() as u64);
        // SAFETY: the caller's guarantees for `alloc_zeroed` are passed through.
        unsafe { System.alloc_zeroed(l) }
    }

    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        LIVE.fetch_sub(l.size() as u64, Relaxed);
        // SAFETY: the caller's guarantees for `dealloc` are passed through.
        unsafe { System.dealloc(p, l) }
    }

    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(new_size as u64, Relaxed);
        if new_size >= l.size() {
            grow((new_size - l.size()) as u64);
        } else {
            LIVE.fetch_sub((l.size() - new_size) as u64, Relaxed);
        }
        // SAFETY: the caller's guarantees for `realloc` are passed through.
        unsafe { System.realloc(p, l, new_size) }
    }
}

/// Cumulative counters at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    allocs: u64,
    bytes: u64,
}

/// Reads the cumulative counters.
pub fn mark() -> Mark {
    Mark {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    }
}

impl Mark {
    /// `(allocations, bytes)` made since this mark.
    pub fn since(self) -> (u64, u64) {
        let now = mark();
        (now.allocs - self.allocs, now.bytes - self.bytes)
    }
}

/// Restarts the high-water mark at the current live size and returns
/// that size, the baseline for [`peak_above`].
pub fn reset_peak() -> u64 {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

/// Peak live bytes since [`reset_peak`], above its baseline.
pub fn peak_above(baseline: u64) -> u64 {
    PEAK.load(Relaxed).saturating_sub(baseline)
}
