//! Behavior of both file systems over a simulated stack.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use trail_core::StandardStack;
use trail_disk::{profiles, Disk};
use trail_fs::{ExtFs, FileSystem, FsError, Lfs, LfsConfig};
use trail_sim::{Delivered, Simulator};

const BLK: usize = 4096;

fn stack() -> (Simulator, Rc<StandardStack>, Disk) {
    let sim = Simulator::new();
    let disk = Disk::new("fsdev", profiles::wd_caviar_10gb());
    let stack = Rc::new(StandardStack::new(vec![disk.clone()]));
    (sim, stack, disk)
}

/// Runs one write to completion.
fn write_all(
    sim: &mut Simulator,
    fs: &dyn FileSystem,
    file: trail_fs::FileHandle,
    offset: u64,
    data: Vec<u8>,
    sync: bool,
) {
    sim.block_on(|sim, token| fs.write(sim, file, offset, data, sync, token))
        .expect("accepted")
        .expect("delivered")
        .expect("write succeeds");
    sim.run();
}

fn read_all(
    sim: &mut Simulator,
    fs: &dyn FileSystem,
    file: trail_fs::FileHandle,
    offset: u64,
    len: usize,
) -> Vec<u8> {
    let data = sim
        .block_on(|sim, token| fs.read(sim, file, offset, len, token))
        .expect("accepted")
        .expect("delivered")
        .expect("read succeeds");
    sim.run();
    data
}

// ---------------------------------------------------------------- ExtFs

#[test]
fn extfs_write_read_round_trip() {
    let (mut sim, stack, _) = stack();
    let fs = ExtFs::format(&mut sim, stack, 0, 10_000).unwrap();
    let f = fs.create("notes.txt").unwrap();
    let payload: Vec<u8> = (0..3 * BLK + 500).map(|i| (i % 251) as u8).collect();
    write_all(&mut sim, &fs, f, 0, payload.clone(), true);
    assert_eq!(fs.file_size(f).unwrap(), payload.len() as u64);
    let back = read_all(&mut sim, &fs, f, 0, payload.len());
    assert_eq!(back, payload);
    // Block-aligned partial read.
    let mid = read_all(&mut sim, &fs, f, BLK as u64, BLK);
    assert_eq!(mid, &payload[BLK..2 * BLK]);
}

#[test]
fn extfs_format_over_a_disk_that_fails_mid_format_is_a_storage_error() {
    let (mut sim, stack, disk) = stack();
    // The first format write is still seeking a millisecond in.
    sim.schedule_in(trail_sim::SimDuration::from_millis(1), move |sim| {
        disk.fail(sim.now());
    });
    let res = ExtFs::format(&mut sim, stack, 0, 10_000);
    assert!(
        matches!(res, Err(FsError::Storage(_))),
        "{:?}",
        res.map(|_| "formatted")
    );
}

#[test]
fn extfs_namespace_rules() {
    let (mut sim, stack, _) = stack();
    let fs = ExtFs::format(&mut sim, stack, 0, 10_000).unwrap();
    let f = fs.create("a").unwrap();
    assert_eq!(fs.create("a").unwrap_err(), FsError::FileExists);
    assert_eq!(fs.open("a").unwrap(), f);
    assert_eq!(fs.open("b").unwrap_err(), FsError::NoSuchFile);
    assert_eq!(
        fs.create("this-name-is-way-too-long-to-fit").unwrap_err(),
        FsError::InvalidArgument
    );
    fs.delete("a").unwrap();
    assert_eq!(fs.open("a").unwrap_err(), FsError::NoSuchFile);
    assert_eq!(fs.delete("a").unwrap_err(), FsError::NoSuchFile);
}

#[test]
fn extfs_grows_into_indirect_blocks() {
    let (mut sim, stack, _) = stack();
    let fs = ExtFs::format(&mut sim, stack, 0, 10_000).unwrap();
    let f = fs.create("big").unwrap();
    // 15 blocks: 10 direct + 5 through the indirect block.
    let payload: Vec<u8> = (0..15 * BLK).map(|i| (i % 249) as u8).collect();
    write_all(&mut sim, &fs, f, 0, payload.clone(), true);
    let back = read_all(&mut sim, &fs, f, 0, payload.len());
    assert_eq!(back, payload);
    // Indirect allocation shows up as extra metadata writes.
    assert!(fs.stats().meta_writes >= 2);
}

#[test]
fn extfs_persists_across_remount() {
    let (mut sim, stack, _) = stack();
    let payload: Vec<u8> = (0..12 * BLK).map(|i| (i % 247) as u8).collect();
    {
        let fs = ExtFs::format(&mut sim, Rc::clone(&stack) as _, 0, 10_000).unwrap();
        let f = fs.create("persist").unwrap();
        write_all(&mut sim, &fs, f, 0, payload.clone(), true);
        fs.flush_meta(&mut sim).unwrap();
    }
    let fs = ExtFs::mount(&mut sim, stack as _, 0, 10_000).unwrap();
    let f = fs.open("persist").unwrap();
    assert_eq!(fs.file_size(f).unwrap(), payload.len() as u64);
    let back = read_all(&mut sim, &fs, f, 0, payload.len());
    assert_eq!(back, payload);
}

#[test]
fn extfs_sync_write_costs_metadata_io() {
    let (mut sim, stack, disk) = stack();
    let fs = ExtFs::format(&mut sim, stack, 0, 10_000).unwrap();
    let f = fs.create("log").unwrap();
    disk.reset_stats();
    write_all(&mut sim, &fs, f, 0, vec![7u8; BLK], true);
    // One O_SYNC block append = data block + inode + (dirty directory):
    // at least three separate disk writes.
    let writes = disk.with_stats(|s| s.writes);
    assert!(writes >= 3, "expected >=3 sync writes, saw {writes}");
}

#[test]
fn extfs_rejects_unaligned_io() {
    let (mut sim, stack, _) = stack();
    let fs = ExtFs::format(&mut sim, stack, 0, 10_000).unwrap();
    let f = fs.create("x").unwrap();
    let t = sim.completion(|_, _: Delivered<Result<(), FsError>>| {});
    assert_eq!(
        fs.write(&mut sim, f, 17, vec![1], true, t).unwrap_err(),
        FsError::InvalidArgument
    );
    write_all(&mut sim, &fs, f, 0, vec![1u8; BLK], true);
    let t = sim.completion(|_, _: Delivered<Result<Vec<u8>, FsError>>| {});
    assert_eq!(
        fs.read(&mut sim, f, 17, 10, t).unwrap_err(),
        FsError::InvalidArgument
    );
    let t = sim.completion(|_, _: Delivered<Result<Vec<u8>, FsError>>| {});
    assert_eq!(
        fs.read(&mut sim, f, BLK as u64 * 10, 10, t).unwrap_err(),
        FsError::InvalidArgument,
        "reading past EOF errors"
    );
}

#[test]
fn extfs_in_place_overwrite_skips_indirect_rewrite() {
    // A preallocated file (the DBMS log layout) must pay only data +
    // inode per in-place O_SYNC write — no indirect-block rewrite.
    let (mut sim, stack, disk) = stack();
    let fs = ExtFs::format(&mut sim, stack, 0, 10_000).unwrap();
    let f = fs.create("prealloc").unwrap();
    write_all(&mut sim, &fs, f, 0, vec![0u8; 20 * BLK], true);
    let meta_after_alloc = fs.stats().meta_writes;
    disk.reset_stats();
    // Overwrite a block deep in the indirect range.
    write_all(&mut sim, &fs, f, 15 * BLK as u64, vec![9u8; BLK], true);
    assert_eq!(
        fs.stats().meta_writes,
        meta_after_alloc + 1,
        "overwrite must write only the inode, not the indirect block"
    );
    assert_eq!(disk.with_stats(|s| s.writes), 2, "data + inode only");
}

#[test]
fn extfs_device_loss_cancels_pending_write_completions() {
    // Regression: a device teardown mid-chain used to leak the submitter's
    // callback (it never fired and the pending count never drained). With
    // completion tokens the chain cancels the token instead, so the
    // submitter always hears back.
    let (mut sim, stack, disk) = stack();
    let fs = ExtFs::format(&mut sim, Rc::clone(&stack) as _, 0, 10_000).unwrap();
    let f = fs.create("doomed").unwrap();
    let outcome = Rc::new(RefCell::new(None));
    let o = Rc::clone(&outcome);
    let token = sim.completion(move |_, del: Delivered<Result<(), FsError>>| {
        *o.borrow_mut() = Some(del.is_err());
    });
    fs.write(&mut sim, f, 0, vec![3u8; 4 * BLK], true, token)
        .expect("accepted");
    // Let the first piece land, then cut power before the chain finishes.
    while disk.with_stats(|s| s.writes) == 0 {
        assert!(sim.step(), "chain must make progress");
    }
    disk.power_cut(sim.now());
    sim.run();
    assert_eq!(
        *outcome.borrow(),
        Some(true),
        "host token must be delivered as cancelled, not leaked"
    );
    assert_eq!(sim.completions().orphan_count(), 0, "orphans drained");
}

// ------------------------------------------------------------------ Lfs

#[test]
fn lfs_write_read_round_trip_buffered_and_flushed() {
    let (mut sim, stack, _) = stack();
    let fs = Lfs::new(stack, 0, LfsConfig::default());
    let f = fs.create("seq").unwrap();
    let payload: Vec<u8> = (0..5 * BLK).map(|i| (i % 251) as u8).collect();
    // Async write: still readable (from the segment buffer).
    write_all(&mut sim, &fs, f, 0, payload.clone(), false);
    assert_eq!(read_all(&mut sim, &fs, f, 0, payload.len()), payload);
    // Sync write forces the segment; data still correct from disk.
    write_all(&mut sim, &fs, f, 5 * BLK as u64, payload.clone(), true);
    assert_eq!(
        read_all(&mut sim, &fs, f, 0, 10 * BLK),
        [payload.clone(), payload.clone()].concat()
    );
    assert!(fs.lfs_stats().sync_partial_flushes >= 1);
}

#[test]
fn lfs_async_writes_batch_into_segments() {
    let (mut sim, stack, disk) = stack();
    let fs = Lfs::new(
        stack,
        0,
        LfsConfig {
            segment_blocks: 8,
            segments: 64,
        },
    );
    let f = fs.create("batch").unwrap();
    disk.reset_stats();
    // 32 async block writes = 4 full segments, far fewer disk commands.
    for i in 0..32u64 {
        write_all(&mut sim, &fs, f, i * BLK as u64, vec![i as u8; BLK], false);
    }
    sim.run();
    let disk_writes = disk.with_stats(|s| s.writes);
    assert!(
        disk_writes <= 5,
        "32 async writes should become ~4 segment writes, saw {disk_writes}"
    );
    assert!(fs.lfs_stats().segments_written >= 3);
}

#[test]
fn lfs_overwrites_leave_dead_blocks_and_cleaner_reclaims() {
    let (mut sim, stack, _) = stack();
    let fs = Lfs::new(
        stack,
        0,
        LfsConfig {
            segment_blocks: 8,
            segments: 16,
        },
    );
    let f = fs.create("hot").unwrap();
    // Write 16 blocks, then overwrite all of them: the first two segments
    // become fully dead.
    for round in 0..2 {
        for i in 0..16u64 {
            write_all(
                &mut sim,
                &fs,
                f,
                i * BLK as u64,
                vec![round * 100 + i as u8 + 1; BLK],
                false,
            );
        }
    }
    // Force the tail out.
    write_all(&mut sim, &fs, f, 16 * BLK as u64, vec![0xEE; BLK], true);
    let occupied_before = fs.segment_occupancy();
    let done = Rc::new(Cell::new(false));
    let d = Rc::clone(&done);
    let token = sim.completion(move |_, del: Delivered<Result<(), FsError>>| {
        del.expect("delivered").expect("clean succeeds");
        d.set(true);
    });
    fs.clean(&mut sim, 4, token);
    sim.run();
    assert!(done.get());
    let stats = fs.lfs_stats();
    assert!(
        stats.segments_cleaned >= 2,
        "cleaned {}",
        stats.segments_cleaned
    );
    // Fully-dead segments cost no I/O; partially-live ones cost read +
    // rewrite — both counters are exercised by this layout.
    assert!(fs.segment_occupancy() <= occupied_before);
    // Data intact after cleaning.
    let back = read_all(&mut sim, &fs, f, 0, 16 * BLK);
    for i in 0..16usize {
        assert_eq!(back[i * BLK], 100 + i as u8 + 1, "block {i}");
    }
}

#[test]
fn lfs_cleaner_costs_io_that_trail_does_not_pay() {
    // The paper's §2 claim, measured: cleaning live data costs a disk read
    // and a re-append per segment.
    let (mut sim, stack, disk) = stack();
    let fs = Lfs::new(
        stack,
        0,
        LfsConfig {
            segment_blocks: 8,
            segments: 16,
        },
    );
    let f = fs.create("live").unwrap();
    for i in 0..16u64 {
        write_all(
            &mut sim,
            &fs,
            f,
            i * BLK as u64,
            vec![i as u8 + 1; BLK],
            false,
        );
    }
    // Overwrite every *other* block: each segment is half dead, so the
    // cleaner must move the live half.
    for i in (0..16u64).step_by(2) {
        write_all(&mut sim, &fs, f, i * BLK as u64, vec![0xAA; BLK], false);
    }
    write_all(&mut sim, &fs, f, 16 * BLK as u64, vec![1u8; BLK], true);
    disk.reset_stats();
    let done = Rc::new(Cell::new(false));
    let d = Rc::clone(&done);
    let token = sim.completion(move |_, del: Delivered<Result<(), FsError>>| {
        del.expect("delivered").expect("clean succeeds");
        d.set(true);
    });
    fs.clean(&mut sim, 2, token);
    sim.run();
    assert!(done.get());
    let stats = fs.lfs_stats();
    assert!(stats.cleaner_read_bytes > 0, "cleaner must read segments");
    assert!(
        stats.cleaner_rewritten_bytes > 0,
        "cleaner must rewrite live blocks"
    );
    assert!(disk.with_stats(|s| s.reads) > 0);
}

#[test]
fn lfs_delete_frees_segments_without_io() {
    let (mut sim, stack, disk) = stack();
    let fs = Lfs::new(
        stack,
        0,
        LfsConfig {
            segment_blocks: 8,
            segments: 16,
        },
    );
    let f = fs.create("gone").unwrap();
    for i in 0..8u64 {
        write_all(&mut sim, &fs, f, i * BLK as u64, vec![9u8; BLK], false);
    }
    sim.run();
    fs.delete("gone").unwrap();
    disk.reset_stats();
    let done = Rc::new(Cell::new(false));
    let d = Rc::clone(&done);
    let token = sim.completion(move |_, _: Delivered<Result<(), FsError>>| d.set(true));
    fs.clean(&mut sim, 4, token);
    sim.run();
    assert!(done.get());
    assert_eq!(
        disk.with_stats(|s| s.reads),
        0,
        "fully-dead segments reclaim for free"
    );
}

#[test]
fn lfs_sync_overwrites_outlast_the_segment_count() {
    // Each sync write forces a one-block partial segment, so overwriting
    // one block more often than there are segments fills the log with
    // dead segments; they must be reclaimed, never written over.
    let (mut sim, stack, _) = stack();
    let fs = Lfs::new(
        stack,
        0,
        LfsConfig {
            segment_blocks: 8,
            segments: 4,
        },
    );
    let hot = fs.create("hot").unwrap();
    let cold = fs.create("cold").unwrap();
    // A second block in the first segment gives a stale map entry a
    // non-zero offset to trip over.
    write_all(&mut sim, &fs, cold, 0, vec![0xC0; BLK], false);
    for round in 0..20u8 {
        write_all(&mut sim, &fs, hot, 0, vec![round; BLK], true);
        write_all(&mut sim, &fs, cold, 0, vec![0xC0 ^ round; BLK], true);
    }
    assert_eq!(read_all(&mut sim, &fs, hot, 0, BLK), vec![19u8; BLK]);
    assert_eq!(read_all(&mut sim, &fs, cold, 0, BLK), vec![0xC0 ^ 19; BLK]);
    assert!(
        fs.lfs_stats().segments_cleaned > 0,
        "dead segments reclaimed"
    );
}

#[test]
fn lfs_full_of_live_data_rejects_writes_with_no_space() {
    let (mut sim, stack, _) = stack();
    let fs = Lfs::new(
        stack,
        0,
        LfsConfig {
            segment_blocks: 8,
            segments: 4,
        },
    );
    let f = fs.create("live").unwrap();
    // Four distinct blocks, one forced segment each: every segment ends
    // up holding live data.
    for i in 0..4u64 {
        write_all(
            &mut sim,
            &fs,
            f,
            i * BLK as u64,
            vec![i as u8 + 1; BLK],
            true,
        );
    }
    let token = sim.completion(|_, _: Delivered<Result<(), FsError>>| {});
    assert_eq!(
        fs.write(&mut sim, f, 4 * BLK as u64, vec![9; BLK], true, token)
            .unwrap_err(),
        FsError::NoSpace
    );
    // The rejected write changed nothing.
    assert_eq!(fs.file_size(f).unwrap(), 4 * BLK as u64);
    let back = read_all(&mut sim, &fs, f, 0, 4 * BLK);
    for i in 0..4usize {
        assert_eq!(back[i * BLK], i as u8 + 1, "block {i}");
    }
}
