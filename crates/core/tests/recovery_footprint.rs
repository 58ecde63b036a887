//! What recovery allocates, held as a number: a crashed Q = 256 burst on a
//! raw Trail stack, recovered whole (locate, rebuild and write-back).
//!
//! Stage 1 reads a dozen or more whole log tracks and keeps each one, so
//! that stage 2 reads no record twice. A kept track is a view of the log
//! medium — one four-byte pool reference per sector — not a copy of its
//! bytes, and stage 3 writes each record back as aliases of the log's
//! sectors. A copy of the scanned tracks coming back costs at least
//! 12 × 78 × 512 B ≈ 479 KB, which does not fit the bound below.
//!
//! One test, alone in its binary, because the counter is the process's
//! global allocator: a second test running on another thread would be
//! counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use trail_core::{
    format_log_disk, read_header, recover, FormatOptions, RecoveryOptions, TrailConfig, TrailDriver,
};
use trail_disk::{profiles, Disk, ImagePool, SECTOR_SIZE};
use trail_sim::Simulator;

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

const Q: u64 = 256;
const WRITE_SECTORS: u64 = 8;
const DATA_DISKS: u64 = 3;

#[test]
fn recovering_a_crashed_burst_allocates_under_its_bound() {
    // The paper's disks, every medium on one pool, as a stack builds them.
    let pool = ImagePool::new();
    let log = Disk::in_pool("log", profiles::seagate_st41601n(), &pool);
    let data: Vec<Disk> = (0..DATA_DISKS)
        .map(|i| Disk::in_pool(format!("data{i}"), profiles::wd_caviar_10gb(), &pool))
        .collect();
    let mut sim = Simulator::new();
    format_log_disk(&mut sim, &log, FormatOptions::default()).expect("format");
    let (drv, _) = TrailDriver::start(&mut sim, log.clone(), data.clone(), TrailConfig::default())
        .expect("boot");

    // The burst, submitted at one instant; power goes once half of it is
    // acknowledged, with the rest queued, in flight or pinned.
    let acked = Rc::new(Cell::new(0));
    for i in 0..Q {
        let acked = Rc::clone(&acked);
        let done = sim.completion(move |_, d| {
            if d.is_ok() {
                acked.set(acked.get() + 1);
            }
        });
        let payload = vec![(i % 251 + 1) as u8; WRITE_SECTORS as usize * SECTOR_SIZE];
        let (dev, lba) = ((i % DATA_DISKS) as usize, 2_048 + i * WRITE_SECTORS);
        drv.write(&mut sim, dev, lba, payload, done)
            .expect("accepted");
    }
    while acked.get() < Q / 2 {
        assert!(sim.step(), "the burst stalled");
    }
    for d in data.iter().chain([&log]) {
        d.power_cut(sim.now());
        d.power_on();
    }
    drop((drv, sim));

    let mut sim = Simulator::new();
    let before = BYTES.load(Ordering::Relaxed);
    let header = read_header(&mut sim, &log).expect("header");
    let report =
        recover(&mut sim, &log, &data, &header, RecoveryOptions::default()).expect("recovery");
    let bytes = BYTES.load(Ordering::Relaxed) - before;

    assert!(report.tracks_scanned >= 12, "{report:?}");
    assert!(report.records_found > 0 && report.sectors_replayed > 0);
    // What recovery has to allocate: per scanned track a view of about
    // 80 four-byte references; per recovered record its header and a view
    // of its payload; per write-back command its aliases, a request, a
    // completion and an event; and the drivers, queues and index pages
    // the write-back sets up. All of it measured 47 KB over 16 tracks when
    // this bound was set; keeping each scanned track as bytes measured
    // 840 KB.
    const BOUND: u64 = 160 * 1024;
    assert!(
        bytes < BOUND,
        "recovery allocated {bytes} B over {} tracks; bound {BOUND} B",
        report.tracks_scanned
    );
}
