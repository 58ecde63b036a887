//! `SectorStore::resident_bytes` held against the allocator: what the
//! medium says it keeps must be exactly what the process was asked to give
//! it, for a lone store and for two stores sharing one pool, and a fresh
//! store's first write must stay cheap.
//!
//! One test, alone in its binary, because the counter is the process's
//! global allocator. It counts per thread: the harness's own thread
//! allocates while the test runs, and those bytes are not the medium's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use trail_disk::{ImagePool, SectorStore, SECTOR_SIZE};

// The calling thread's counts. `LIVE` wraps on a free that precedes its
// allocation in the count; only differences are read. (A `const` cell
// with no destructor: reading it never allocates.)
thread_local! {
    static LIVE: Cell<u64> = const { Cell::new(0) };
    static REQUESTED: Cell<u64> = const { Cell::new(0) };
}

fn add(counter: &'static std::thread::LocalKey<Cell<u64>>, delta: u64) {
    counter.with(|c| c.set(c.get().wrapping_add(delta)));
}

fn read(counter: &'static std::thread::LocalKey<Cell<u64>>) -> u64 {
    counter.with(Cell::get)
}

/// Forwards to the system allocator, counting live and requested bytes.
struct CountingAlloc;

fn count(size: usize) {
    add(&LIVE, size as u64);
    add(&REQUESTED, size as u64);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(&LIVE, (layout.size() as u64).wrapping_neg());
        // SAFETY: `ptr` came from `System` through this allocator with the
        // same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add(&LIVE, (layout.size() as u64).wrapping_neg());
        count(new_size);
        // SAFETY: `ptr`/`layout` describe a live block from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `make` and returns what it made with the bytes that stayed
/// allocated because of it.
fn counted<T>(make: impl FnOnce() -> T) -> (T, u64) {
    let before = read(&LIVE);
    let made = make();
    (made, read(&LIVE).wrapping_sub(before))
}

/// Runs `fill` on a fresh store and returns the store with the bytes that
/// stayed allocated because of it.
fn filled(fill: impl FnOnce(&mut SectorStore)) -> (SectorStore, u64) {
    counted(|| {
        let mut store = SectorStore::new(u64::MAX);
        fill(&mut store);
        store
    })
}

fn assert_exact(what: &str, said: usize, live: u64) {
    assert_eq!(
        said as u64, live,
        "{what}: the medium says {said} B, the allocator holds {live} B"
    );
}

/// Bytes counting up from `fill` below `len`, zeros after: no 8-byte
/// word repeats the one before it, so the sector does not pack.
fn noise(fill: u8, len: usize) -> [u8; SECTOR_SIZE] {
    let mut sector = [0u8; SECTOR_SIZE];
    for (i, byte) in sector[..len].iter_mut().enumerate() {
        *byte = fill.wrapping_add(i as u8);
    }
    sector
}

/// A whole sector of `fill` that does not pack, unique per `n` in bytes
/// 1..512.
fn unique(fill: u8, n: u64) -> [u8; SECTOR_SIZE] {
    let mut sector = noise(fill, SECTOR_SIZE);
    sector[8..16].copy_from_slice(&n.to_le_bytes());
    sector
}

/// A sector that is non-zero below byte 192 only and does not pack,
/// unique per `n`: the shape of a Trail record header.
fn header(n: u64) -> [u8; SECTOR_SIZE] {
    let mut sector = noise(0xA5, 192);
    sector[..8].copy_from_slice(&n.to_le_bytes());
    sector
}

/// A run of `fill` with `n` stamped across a word boundary: a table row,
/// which packs.
fn row(fill: u8, n: u64) -> [u8; SECTOR_SIZE] {
    let mut sector = [fill; SECTOR_SIZE];
    sector[13..21].copy_from_slice(&n.to_le_bytes());
    sector
}

#[test]
fn resident_bytes_is_what_the_allocator_holds() {
    // Sparse: one record per 64 LBAs, a unique header and seven sectors
    // of a fill that repeats, which packs — what a Trail log disk is
    // written like.
    let (sparse, live) = filled(|s| {
        let mut record = [0x3Cu8; 8 * SECTOR_SIZE];
        for n in 0..20_000u64 {
            record[..SECTOR_SIZE].copy_from_slice(&header(n));
            s.write_range(n * 64 + 5, &record);
        }
    });
    assert_eq!(sparse.written_sectors(), 160_000);
    assert_eq!(sparse.short_images(), 20_000);
    assert_eq!(sparse.pool_stats().packed_images, 1);
    assert_exact("sparse fill", sparse.resident_bytes(), live);
    drop(sparse);

    // Dense: consecutive LBAs, every sector a whole unique image.
    let (dense, live) = filled(|s| {
        for lba in 0..100_000u64 {
            s.write_sector(lba, &unique(0x77, lba));
        }
    });
    assert_eq!(dense.distinct_sectors(), 100_000);
    assert_eq!(dense.pool_stats().packed_images, 0);
    assert_exact("dense fill", dense.resident_bytes(), live);
    drop(dense);

    // Rows: consecutive LBAs, every sector a unique image that packs.
    let (rows, live) = filled(|s| {
        for lba in 0..100_000u64 {
            s.write_sector(lba, &row(0x77, lba));
        }
    });
    assert_eq!(rows.pool_stats().packed_images, 100_000);
    assert_exact("row fill", rows.resident_bytes(), live);
    drop(rows);

    // Shared: what a Trail stack does with every payload sector. Each is
    // logged with byte 0 zeroed (the log's self-describing format) and
    // written back whole to a data disk; the two stores share one pool,
    // which keeps the body once and the write-back as an alias of it.
    // Every other sector packs.
    const N: u64 = 50_000;
    let ((pool, log, data), live) = counted(|| {
        let pool = ImagePool::new();
        let mut log = SectorStore::in_pool(u64::MAX, &pool);
        let mut data = SectorStore::in_pool(u64::MAX, &pool);
        for n in 0..N {
            let mut sector = if n % 2 == 0 {
                unique(0x3C, n)
            } else {
                row(0x3C, n)
            };
            sector[0] = 1 + (n % 255) as u8;
            data.write_sector(7 * n, &sector);
            sector[0] = 0;
            log.write_sector(n, &sector);
        }
        (pool, log, data)
    });
    let stats = pool.stats();
    assert_eq!((stats.distinct_sectors, stats.alias_images), (2 * N, N));
    assert_eq!(stats.packed_images, N / 2);
    assert_exact(
        "shared pool",
        log.index_bytes() + data.index_bytes() + stats.pool_bytes as usize,
        live,
    );
    let whole = N as f64 * SECTOR_SIZE as f64;
    let share = stats.pool_bytes as f64 / whole;
    assert!(share < 1.1, "the pool holds {share:.3} x N x 512 B");
    // Dropping both stores empties the pool; dropping it frees the rest.
    drop((log, data));
    assert_eq!(pool.stats().distinct_sectors, 0);
    drop(pool);

    // A fresh store costs nothing until it is written, and its first
    // write — here one full, one short and one packed image, the most it
    // can ask for without an alias, with the pool itself — stays at what
    // one 16 KB pool chunk and a 256-byte index page used to cost: every
    // crash point and every ladder rung boots several.
    let before = read(&REQUESTED);
    let mut fresh = SectorStore::new(u64::MAX);
    assert_eq!(read(&REQUESTED), before);
    let mut first = [0x11u8; 3 * SECTOR_SIZE];
    first[..SECTOR_SIZE].copy_from_slice(&header(0));
    first[SECTOR_SIZE..2 * SECTOR_SIZE].copy_from_slice(&unique(0x22, 0));
    fresh.write_range(1 << 40, &first);
    let requested = read(&REQUESTED) - before;
    let stats = fresh.pool_stats();
    assert_eq!(
        (
            stats.short_images,
            stats.packed_images,
            stats.distinct_sectors
        ),
        (1, 1, 3)
    );
    assert!(
        requested <= 16_896,
        "first write to an empty store requested {requested} B"
    );
    assert_eq!(fresh.read_range(1 << 40, 3), first);
}
