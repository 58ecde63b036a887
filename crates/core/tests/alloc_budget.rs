//! The copy budget of Trail's write path, held as a number: how many bytes
//! the process allocates per 4 KB synchronous write that is acknowledged
//! *and* written back, in steady state.
//!
//! One test, alone in its binary, because the counter is the process's
//! global allocator: a second test running on another thread would be
//! counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use trail_blockio::IoDone;
use trail_core::{format_log_disk, FormatOptions, TrailConfig, TrailDriver};
use trail_disk::{profiles, Disk, SECTOR_SIZE};
use trail_sim::{Delivered, Simulator};

// A statistic: nothing is published through it, so `Relaxed` is enough.
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Forwards to the system allocator, counting requested bytes.
struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter never touches the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
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
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` describe a live block from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const BLOCK_SECTORS: usize = 8;
const BLOCK_BYTES: usize = BLOCK_SECTORS * SECTOR_SIZE;
/// Blocks the writer cycles over; rewriting them with unchanged contents
/// keeps the simulated data medium from growing during the measurement.
const WORKING_SET: u64 = 64;

/// One closed-loop writer: `left` more writes, each issued from the
/// acknowledgement of the one before it.
fn issue(sim: &mut Simulator, drv: &TrailDriver, next: Rc<Cell<u64>>, left: u64) {
    if left == 0 {
        return;
    }
    let block = next.get() % WORKING_SET;
    next.set(next.get() + 1);
    let drv2 = drv.clone();
    let done = sim.completion(move |sim: &mut Simulator, d: Delivered<IoDone>| {
        d.expect("durable");
        issue(sim, &drv2, next, left - 1);
    });
    let payload = vec![block as u8 ^ 0x5A; BLOCK_BYTES];
    drv.write(sim, 0, block * BLOCK_SECTORS as u64, payload, done)
        .expect("accepted");
}

#[test]
fn a_steady_state_4kb_write_allocates_under_its_budget() {
    let mut sim = Simulator::new();
    let log = Disk::new("log", profiles::tiny_test_disk());
    let data = Disk::new("data", profiles::tiny_test_disk());
    format_log_disk(&mut sim, &log, FormatOptions::default()).expect("format");
    let (drv, _) =
        TrailDriver::start(&mut sim, log, vec![data], TrailConfig::default()).expect("boot");
    let next = Rc::new(Cell::new(0));
    let run = |sim: &mut Simulator, writes: u64| {
        issue(sim, &drv, Rc::clone(&next), writes);
        drv.run_until_quiescent(sim);
        assert_eq!(drv.pinned_blocks(), 0, "everything was written back");
    };

    // Warm-up: every block written once, every growable table grown.
    run(&mut sim, 4 * WORKING_SET);
    const WRITES: u64 = 1024;
    let before = BYTES.load(Ordering::Relaxed);
    run(&mut sim, WRITES);
    let per_write = (BYTES.load(Ordering::Relaxed) - before) / WRITES;

    // What a write has to allocate: the caller's 4 096-byte block, freed
    // when it is interned at submit, and the record's 512-byte header
    // sector. The queued write, the record's log copy, the pinned block and
    // the write-back request all hold the block's sectors in the log
    // disk's image pool: eight four-byte entries and the run that holds
    // them, and as much again for the log copy's aliases. Everything else
    // a write sets off — the repositioning read's view, per-command
    // timing vectors, completions, events, statistics, the log medium's
    // index — measured 2 768 bytes, 7 376 in all (7 547 while a read
    // copied the sectors it read, 11 451 while the record was a 4 608-byte
    // image built from a copy of the block). One more copy of the block
    // anywhere on the path does not fit.
    let floor = (BLOCK_BYTES + SECTOR_SIZE) as u64;
    let budget = 2 * BLOCK_BYTES as u64;
    assert!(per_write >= floor, "{per_write} B: the count is broken");
    assert!(
        per_write < budget,
        "{per_write} B allocated per 4 KB write; budget {budget} B"
    );
}
