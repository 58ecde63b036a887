//! A counting global allocator, installed in the benchmark binary only.
//!
//! Allocation counts are exact (not sampled) and repeat run to run for a
//! deterministic single-threaded workload, which makes `allocs_per_op` and
//! `alloc_bytes_per_op` usable as before/after counts where wall time on a
//! shared VM is too noisy.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

// Statistics only: nothing is published through these counters, so
// `Relaxed` is enough.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Forwards to the system allocator, counting calls and requested bytes.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with the
        // same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` describe a live block from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// `(allocation calls, bytes requested)` since process start. Take the
/// difference around a region to attribute allocations to it.
pub fn snapshot() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn counts_an_allocation() {
        let (a0, b0) = super::snapshot();
        let v = std::hint::black_box(vec![0u8; 4096]);
        let (a1, b1) = super::snapshot();
        assert!(a1 > a0);
        assert!(b1 - b0 >= 4096);
        drop(v);
    }
}
