//! What a write-back backlog costs the host, held as a number: the heap a
//! pinned sector occupies beyond the log medium that holds its record.
//!
//! A landed write is pinned until its write-back reaches the data disk
//! (paper §4.2), and the pinned range is the write's payload, interned in
//! the log disk's image pool when it was submitted, whose body its log
//! copy aliases.
//! A backlog of write-backs held by the data target therefore grows the
//! log medium and a few bytes of bookkeeping per sector, not a copy of
//! every write.
//!
//! One test, alone in its binary, because the counter is the process's
//! global allocator: a second test running on another thread would be
//! counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use trail_blockio::{BlockDevice, IoDone, IoRequest, RequestId, SharedBlockDevice};
use trail_core::{format_log_disk, FormatOptions, TrailConfig, TrailDriver};
use trail_disk::{profiles, Disk, DiskError, SECTOR_SIZE};
use trail_sim::{Completion, Delivered, Simulator};
use trail_telemetry::RecorderHandle;

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

/// A data target that accepts every write-back and never completes it:
/// the backlog stays pinned for as long as the test looks.
#[derive(Debug, Default)]
struct HoldingTarget {
    held: RefCell<Vec<(IoRequest, Completion<IoDone>)>>,
}

impl BlockDevice for HoldingTarget {
    fn submit(
        &self,
        _: &mut Simulator,
        req: IoRequest,
        done: Completion<IoDone>,
    ) -> Result<RequestId, DiskError> {
        self.held.borrow_mut().push((req, done));
        Ok(RequestId(0))
    }

    fn capacity_sectors(&self) -> u64 {
        1 << 20
    }

    fn pending(&self) -> usize {
        self.held.borrow().len()
    }

    fn set_recorder(&self, _: RecorderHandle) {}
}

const WRITES: u64 = 1024;
const BLOCK_SECTORS: u64 = 8;

/// Write `n`'s payload: every sector's body unique, so nothing but the log
/// copy can share it.
fn payload(n: u64) -> Vec<u8> {
    (0..BLOCK_SECTORS)
        .flat_map(|s| {
            let mut sector = [0xC3u8; SECTOR_SIZE];
            sector[8..16].copy_from_slice(&(n * BLOCK_SECTORS + s).to_le_bytes());
            sector
        })
        .collect()
}

#[test]
fn a_pinned_sector_costs_the_host_a_few_bytes_beyond_its_log_copy() {
    let mut sim = Simulator::new();
    let log = Disk::new("log", profiles::seagate_st41601n());
    format_log_disk(&mut sim, &log, FormatOptions::default()).expect("format");
    let target = Rc::new(HoldingTarget::default());
    let (drv, _) = TrailDriver::start_with_targets(
        &mut sim,
        log.clone(),
        vec![Rc::clone(&target) as SharedBlockDevice],
        TrailConfig::default(),
    )
    .expect("boot");
    let medium = || log.medium_stats().resident_bytes();
    let (heap_before, medium_before) = (live(), medium());

    // Distinct 4 KB writes at disjoint LBAs, each acknowledged when its
    // record lands; every write-back stays in the target.
    for n in 0..WRITES {
        let done = sim.completion(|_, d: Delivered<IoDone>| drop(d.expect("durable")));
        drv.write(&mut sim, 0, n * 2 * BLOCK_SECTORS, payload(n), done)
            .expect("accepted");
        sim.run();
    }
    let pinned = WRITES * BLOCK_SECTORS;
    assert_eq!(drv.pinned_sectors(), pinned);
    assert_eq!(target.pending(), WRITES as usize);

    let medium_growth = medium() - medium_before;
    let backlog = live().wrapping_sub(heap_before).wrapping_sub(medium_growth);
    let per_sector = backlog as f64 / pinned as f64;
    // A copy of each write held until its write-back lands costs 512 bytes
    // a sector on its own (570 in all when the pinned range was the
    // caller's buffer). The range, its record's bookkeeping, the held
    // request and the pool entries measured 62 when this bound was set.
    assert!(
        per_sector <= 64.0,
        "{per_sector:.1} B of heap per pinned sector beyond the log medium's \
         {medium_growth} B"
    );
}
