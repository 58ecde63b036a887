//! What a burst of queued writes costs the host before its first record
//! lands, held as a number: the heap a queued sector occupies.
//!
//! A write is interned into the log disk's image pool when it is
//! submitted, and the caller's buffer goes then: a queued sector is a
//! reference on a pooled image, and a burst whose payloads repeat costs
//! the distinct images once. This is the shape of the benchmark's
//! `crash_recover` burst: 1 024 4-KB writes at one instant, over 251
//! distinct fills.
//!
//! One test, alone in its binary, because the counter is the process's
//! global allocator: a second test running on another thread would be
//! counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use trail_blockio::IoDone;
use trail_core::{format_log_disk, FormatOptions, TrailConfig, TrailDriver};
use trail_disk::{profiles, Disk, SECTOR_SIZE};
use trail_sim::{Delivered, Simulator};

// A statistic: nothing is published through it, so `Relaxed` is enough.
// It wraps on a free that precedes its allocation in the count; only
// differences are read.
static LIVE: AtomicU64 = AtomicU64::new(0);

/// Forwards to the system allocator, counting live bytes.
struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter never touches the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator with the
        // same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        LIVE.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` describe a live block from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn live() -> u64 {
    LIVE.load(Ordering::Relaxed)
}

const WRITES: u64 = 1024;
const BLOCK_SECTORS: u64 = 8;

/// Heap per queued sector once `WRITES` 4-KB writes, write `n` carrying
/// `payload(n)`, are submitted at one instant to a freshly booted driver.
fn heap_per_queued_sector(payload: impl Fn(u64) -> Vec<u8>) -> f64 {
    let mut sim = Simulator::new();
    let log = Disk::new("log", profiles::seagate_st41601n());
    let data = Disk::new("data0", profiles::wd_caviar_10gb());
    format_log_disk(&mut sim, &log, FormatOptions::default()).expect("format");
    let (drv, _) =
        TrailDriver::start(&mut sim, log, vec![data], TrailConfig::default()).expect("boot");
    let before = live();
    for n in 0..WRITES {
        let done = sim.completion(|_, d: Delivered<IoDone>| drop(d.expect("durable")));
        drv.write(&mut sim, 0, n * BLOCK_SECTORS, payload(n), done)
            .expect("accepted");
    }
    let per_sector = live().wrapping_sub(before) as f64 / (WRITES * BLOCK_SECTORS) as f64;
    assert_eq!(drv.with_stats(|s| s.log_records), 0, "nothing landed yet");
    drv.run_until_quiescent(&mut sim);
    per_sector
}

#[test]
fn a_queued_sector_costs_a_reference_not_a_copy() {
    // 251 distinct fills: a copy of each queued write costs 512 bytes a
    // sector (545 in all when the queued write was the caller's buffer).
    // The distinct images, the references, the queue and the completions
    // measured 59.5 when this bound was set.
    let repeating = heap_per_queued_sector(|n| vec![(n % 251) as u8; 4096]);
    assert!(repeating <= 64.0, "{repeating:.1} B per queued sector");

    // Unique sectors: the pool holds each image once, where the caller's
    // buffer held it before. The image brings its share of the pool's
    // hash table and reference counts at submission rather than when its
    // record lands: 589 bytes a sector when this bound was set, 545 while
    // the queued write was the caller's buffer. One more copy does not fit.
    let unique = heap_per_queued_sector(|n| {
        (0..BLOCK_SECTORS)
            .flat_map(|s| {
                let mut sector = [0xC3u8; SECTOR_SIZE];
                sector[8..16].copy_from_slice(&(n * BLOCK_SECTORS + s).to_le_bytes());
                sector
            })
            .collect()
    });
    assert!(
        unique <= (SECTOR_SIZE + 96) as f64,
        "{unique:.1} B per queued unique sector"
    );
}
