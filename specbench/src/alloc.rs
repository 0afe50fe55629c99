//! A counting global allocator: every heap allocation (and reallocation) of
//! the process is counted, with its requested bytes.
//!
//! The replay loop is single-threaded and no timed call nests inside
//! another; the only other threads are the RPC workers, which run in
//! lock-step with it.  So the counters' change across one call is exactly
//! what that call allocated.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

// Statistics only: no other data is published through these counters, so
// `Relaxed` suffices.
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn record(bytes: usize) {
    COUNT.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

/// The system allocator, counting as it goes.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only atomics and
// never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller guarantees `layout` has a non-zero size.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller guarantees `layout` has a non-zero size.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (hence from `System`) with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: `ptr` came from this allocator with `layout`, and
        // `new_size` is non-zero and does not overflow, as the caller
        // guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation counters at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub count: u64,
    pub bytes: u64,
}

impl Counts {
    /// Reads the counters now.
    pub fn now() -> Self {
        Counts {
            count: COUNT.load(Ordering::Relaxed),
            bytes: BYTES.load(Ordering::Relaxed),
        }
    }

    /// Counters accumulated since `earlier`.
    pub fn since(self, earlier: Counts) -> Counts {
        Counts {
            count: self.count - earlier.count,
            bytes: self.bytes - earlier.bytes,
        }
    }
}
