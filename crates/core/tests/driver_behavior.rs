//! Behavioral tests of the Trail driver against the simulated substrate.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use trail_blockio::IoDone;
use trail_core::{format_log_disk, FormatOptions, TrailConfig, TrailDriver, TrailError};
use trail_disk::{profiles, Disk, SECTOR_SIZE};
use trail_sim::{Delivered, SimDuration, SimTime, Simulator};

/// Formats a log disk and boots a driver over `n_data` tiny data disks.
fn boot(
    sim: &mut Simulator,
    log_profile: trail_disk::profiles::DriveProfile,
    n_data: usize,
    config: TrailConfig,
) -> (TrailDriver, Vec<Disk>) {
    let log = Disk::new("log", log_profile);
    let data: Vec<Disk> = (0..n_data)
        .map(|i| Disk::new(format!("data{i}"), profiles::tiny_test_disk()))
        .collect();
    format_log_disk(sim, &log, FormatOptions::default()).expect("format");
    let (drv, boot) = TrailDriver::start(sim, log, data.clone(), config).expect("boot");
    assert!(boot.recovered.is_none(), "clean disk must boot clean");
    (drv, data)
}

fn sector_data(tag: u8, sectors: usize) -> Vec<u8> {
    let mut v = vec![tag; sectors * SECTOR_SIZE];
    // Nonzero first byte exercises the transposition path.
    v[0] = 0xF0 ^ tag;
    v
}

#[test]
fn boot_rejects_unformatted_disk() {
    let mut sim = Simulator::new();
    let log = Disk::new("log", profiles::tiny_test_disk());
    let data = Disk::new("d", profiles::tiny_test_disk());
    let err = TrailDriver::start(&mut sim, log, vec![data], TrailConfig::default()).unwrap_err();
    assert_eq!(err, TrailError::NotFormatted);
}

#[test]
fn boot_requires_a_data_disk() {
    let mut sim = Simulator::new();
    let log = Disk::new("log", profiles::tiny_test_disk());
    format_log_disk(&mut sim, &log, FormatOptions::default()).unwrap();
    let err = TrailDriver::start(&mut sim, log, vec![], TrailConfig::default()).unwrap_err();
    assert_eq!(err, TrailError::BadDevice);
}

#[test]
fn epoch_advances_across_clean_restarts() {
    let mut sim = Simulator::new();
    let log = Disk::new("log", profiles::tiny_test_disk());
    let data = Disk::new("d", profiles::tiny_test_disk());
    format_log_disk(&mut sim, &log, FormatOptions::default()).unwrap();
    let (drv, boot) = TrailDriver::start(
        &mut sim,
        log.clone(),
        vec![data.clone()],
        TrailConfig::default(),
    )
    .unwrap();
    assert_eq!(boot.epoch, 1);
    drv.shutdown(&mut sim).unwrap();
    let (_, boot2) = TrailDriver::start(&mut sim, log, vec![data], TrailConfig::default()).unwrap();
    assert_eq!(boot2.epoch, 2);
    assert!(boot2.recovered.is_none(), "clean shutdown skips recovery");
}

#[test]
fn single_sector_sync_write_latency_matches_paper_anchor() {
    // On the ST41601N-class log disk, a one-sector synchronous write
    // should land near 1.4 ms (paper §5.1: "consistently around 1.40 msec").
    let mut sim = Simulator::new();
    let (drv, _) = boot(
        &mut sim,
        profiles::seagate_st41601n(),
        1,
        TrailConfig::default(),
    );
    let lat = Rc::new(RefCell::new(Vec::<SimDuration>::new()));
    for i in 0..20u64 {
        let lat = Rc::clone(&lat);
        // Sparse mode: spaced well beyond the repositioning overhead.
        sim.run_for(SimDuration::from_millis(20));
        let done = sim.completion(move |_, d: Delivered<IoDone>| {
            lat.borrow_mut().push(d.expect("durable").latency());
        });
        drv.write(&mut sim, 0, 100 + i, sector_data(i as u8, 1), done)
            .unwrap();
        drv.run_until_quiescent(&mut sim);
    }
    let lats = lat.borrow();
    assert_eq!(lats.len(), 20);
    let mean_ms = lats.iter().map(|d| d.as_millis_f64()).sum::<f64>() / lats.len() as f64;
    // The +3-sector calibration margin adds ~0.35 ms over the paper's
    // bare 1.40 ms (see trail_probe::DELTA_SAFETY_MARGIN).
    assert!(
        (1.2..2.0).contains(&mean_ms),
        "mean sync write latency {mean_ms} ms, expected ~1.4-1.9"
    );
}

#[test]
fn written_data_reaches_the_data_disk() {
    let mut sim = Simulator::new();
    let (drv, data) = boot(
        &mut sim,
        profiles::tiny_test_disk(),
        1,
        TrailConfig::default(),
    );
    let payload = sector_data(0x42, 3);
    let acked = Rc::new(Cell::new(false));
    let a = Rc::clone(&acked);
    let done = sim.completion(move |_, _| a.set(true));
    drv.write(&mut sim, 0, 50, payload.clone(), done).unwrap();
    drv.run_until_quiescent(&mut sim);
    assert!(acked.get());
    assert_eq!(drv.pinned_blocks(), 0, "committed blocks are unpinned");
    for i in 0..3u64 {
        assert_eq!(
            &data[0].peek_sector(50 + i)[..],
            &payload[i as usize * SECTOR_SIZE..(i as usize + 1) * SECTOR_SIZE],
            "sector {i}"
        );
    }
}

#[test]
fn read_hits_pinned_buffer_before_writeback() {
    let mut sim = Simulator::new();
    let (drv, _) = boot(
        &mut sim,
        profiles::tiny_test_disk(),
        1,
        TrailConfig::default(),
    );
    let payload = sector_data(0x77, 2);
    let read_data = Rc::new(RefCell::new(None));
    {
        let drv2 = drv.clone();
        let payload2 = payload.clone();
        let read_data = Rc::clone(&read_data);
        let done = sim.completion(move |sim: &mut Simulator, _| {
            // Immediately after the ack the block is still pinned; the
            // read must be served from memory and return the new data.
            let rd = Rc::clone(&read_data);
            let read_done = sim.completion(move |_, d: Delivered<IoDone>| {
                *rd.borrow_mut() = d.expect("read delivered").data;
            });
            drv2.read(sim, 0, 10, 2, read_done).unwrap();
            let _ = payload2;
        });
        drv.write(&mut sim, 0, 10, payload.clone(), done).unwrap();
    }
    drv.run_until_quiescent(&mut sim);
    assert_eq!(read_data.borrow().as_deref(), Some(&payload[..]));
    drv.with_stats(|s| {
        assert_eq!(s.read_hits, 1);
        assert_eq!(s.read_misses, 0);
    });
}

#[test]
fn read_miss_goes_to_data_disk() {
    let mut sim = Simulator::new();
    let (drv, data) = boot(
        &mut sim,
        profiles::tiny_test_disk(),
        1,
        TrailConfig::default(),
    );
    // Pre-populate the data disk directly.
    let mut sector = [0u8; SECTOR_SIZE];
    sector[7] = 0x99;
    data[0].poke_sector(200, &sector);
    let got = Rc::new(RefCell::new(None));
    let g = Rc::clone(&got);
    let done = sim.completion(move |_, d: Delivered<IoDone>| {
        *g.borrow_mut() = d.expect("read delivered").data;
    });
    drv.read(&mut sim, 0, 200, 1, done).unwrap();
    drv.run_until_quiescent(&mut sim);
    sim.run();
    assert_eq!(got.borrow().as_ref().unwrap()[7], 0x99);
    drv.with_stats(|s| assert_eq!(s.read_misses, 1));
}

#[test]
fn clustered_writes_batch_into_fewer_records() {
    let mut sim = Simulator::new();
    let (drv, _) = boot(
        &mut sim,
        profiles::tiny_test_disk(),
        1,
        TrailConfig::default(),
    );
    // 16 one-sector writes issued back-to-back: the first occupies the log
    // disk, the rest accumulate and must be folded into batched records.
    let acks = Rc::new(Cell::new(0u32));
    for i in 0..16u64 {
        let acks = Rc::clone(&acks);
        let done = sim.completion(move |_, _| acks.set(acks.get() + 1));
        drv.write(&mut sim, 0, 300 + i, sector_data(i as u8, 1), done)
            .unwrap();
    }
    drv.run_until_quiescent(&mut sim);
    assert_eq!(acks.get(), 16);
    drv.with_stats(|s| {
        assert!(
            s.log_records < 16,
            "expected batching, got {} records",
            s.log_records
        );
        assert!(
            s.batch_sizes.iter().any(|&b| b > 1),
            "no batched record observed: {:?}",
            s.batch_sizes
        );
        assert_eq!(s.batch_sizes.iter().sum::<u32>(), 16);
    });
}

#[test]
fn utilization_threshold_triggers_reposition() {
    let mut sim = Simulator::new();
    let (drv, _) = boot(
        &mut sim,
        profiles::tiny_test_disk(),
        1,
        TrailConfig::default(),
    );
    // Tiny disk zone 0 has 40 spt; a 13-sector write + header = 14 sectors
    // = 35 % utilization, crossing the 30 % threshold in one record.
    let done = sim.completion(|_, _| {});
    drv.write(&mut sim, 0, 0, sector_data(1, 13), done).unwrap();
    drv.run_until_quiescent(&mut sim);
    drv.with_stats(|s| {
        assert_eq!(s.repositions, 1, "threshold crossing must move the head");
        assert_eq!(s.track_utilization.len(), 1);
        assert!(s.track_utilization[0] >= 0.30);
    });
}

#[test]
fn below_threshold_track_is_reused() {
    let mut sim = Simulator::new();
    let (drv, _) = boot(
        &mut sim,
        profiles::tiny_test_disk(),
        1,
        TrailConfig::default(),
    );
    // Two sparse 1-sector writes: 2+2 sectors on a 40-sector track stays
    // under 30 %, so no reposition happens between them.
    for i in 0..2u64 {
        let done = sim.completion(|_, _| {});
        drv.write(&mut sim, 0, i, sector_data(9, 1), done).unwrap();
        drv.run_until_quiescent(&mut sim);
    }
    drv.with_stats(|s| {
        assert_eq!(s.repositions, 0, "track must be reused below threshold");
        assert_eq!(s.log_records, 2);
    });
}

#[test]
fn reposition_every_write_ablation() {
    let mut sim = Simulator::new();
    let (drv, _) = boot(
        &mut sim,
        profiles::tiny_test_disk(),
        1,
        TrailConfig {
            reposition_every_write: true,
            ..TrailConfig::default()
        },
    );
    for i in 0..3u64 {
        let done = sim.completion(|_, _| {});
        drv.write(&mut sim, 0, i, sector_data(7, 1), done).unwrap();
        drv.run_until_quiescent(&mut sim);
    }
    drv.with_stats(|s| {
        assert_eq!(
            s.repositions, 3,
            "ICCD'93 policy repositions after every write"
        );
    });
}

#[test]
fn repositions_across_cylinder_boundaries_lose_no_revolution() {
    // A clustered chain that repositions after every write walks tracks
    // 1, 2, 3, … of the 17-surface log disk, so it crosses onto cylinders 1
    // and 2 at tracks 17 and 34. Each crossing read aims by the calibrated
    // crossing lead and must not wait out a revolution.
    let mut sim = Simulator::new();
    let (drv, _) = boot(
        &mut sim,
        profiles::seagate_st41601n(),
        1,
        TrailConfig {
            reposition_every_write: true,
            ..TrailConfig::default()
        },
    );
    fn chain(sim: &mut Simulator, drv: TrailDriver, left: u64) {
        if left == 0 {
            return;
        }
        let next = drv.clone();
        let done = sim.completion(move |sim: &mut Simulator, d: Delivered<IoDone>| {
            d.expect("durable");
            chain(sim, next, left - 1);
        });
        drv.write(sim, 0, left * 8, sector_data(left as u8, 1), done)
            .unwrap();
    }
    chain(&mut sim, drv.clone(), 40);
    drv.run_until_quiescent(&mut sim);
    drv.with_stats(|s| {
        assert_eq!(s.log_records, 40);
        assert_eq!(s.repositions, 40, "reached track 41, past two crossings");
        assert_eq!(s.lost_revolutions.reposition_reads, 0);
        assert_eq!(s.lost_revolutions.record_writes, 0);
        // Overhead, switch or seek, and a sector or two of lead: well
        // under the 1.7 ms + 11.1 ms a missed crossing costs.
        let mean = s.reposition_time.as_millis_f64() / s.repositions as f64;
        assert!(mean < 2.2, "reposition read mean {mean} ms");
    });
}

#[test]
fn every_prediction_miss_has_one_cause() {
    // Five closed-loop writers of mixed sizes keep the log disk busy, so
    // records are batched and many miss their predicted sector.
    let mut sim = Simulator::new();
    let (drv, _) = boot(
        &mut sim,
        profiles::seagate_st41601n(),
        1,
        TrailConfig::default(),
    );
    let recorder = trail_telemetry::MemoryRecorder::shared();
    drv.set_recorder(recorder.clone());
    fn writer(sim: &mut Simulator, drv: TrailDriver, id: u64, left: u64) {
        if left == 0 {
            return;
        }
        let next = drv.clone();
        let done = sim.completion(move |sim: &mut Simulator, d: Delivered<IoDone>| {
            d.expect("durable");
            writer(sim, next, id, left - 1);
        });
        let sectors = 1 + ((id * 7 + left * 3) % 8) as usize;
        drv.write(
            sim,
            0,
            id * 900 + left * 14,
            sector_data(id as u8, sectors),
            done,
        )
        .unwrap();
    }
    for id in 0..5 {
        writer(&mut sim, drv.clone(), id, 60);
    }
    drv.run_until_quiescent(&mut sim);
    let misses = recorder.count_kind("PredictMiss") as u64;
    let hits = recorder.count_kind("PredictHit") as u64;
    drv.with_stats(|s| {
        let m = s.predict_misses;
        assert_eq!(hits + misses, s.log_records);
        assert_eq!(
            m.occupied.count + m.run_ends_at_used.count + m.run_ends_at_track_end.count,
            misses,
            "{m:?}"
        );
        assert!(misses > 0, "the workload must exercise the ledger");
        for tally in [m.occupied, m.run_ends_at_used, m.run_ends_at_track_end] {
            assert_eq!(tally.count == 0, tally.wait.is_zero(), "{m:?}");
        }
    });
}

#[test]
fn large_write_splits_and_acks_once() {
    let mut sim = Simulator::new();
    let (drv, data) = boot(
        &mut sim,
        profiles::tiny_test_disk(),
        1,
        TrailConfig::default(),
    );
    // 80 sectors far exceeds the per-record batch limit (31 on this disk).
    let payload = sector_data(0xEE, 80);
    let acks = Rc::new(Cell::new(0u32));
    let a = Rc::clone(&acks);
    let done = sim.completion(move |_, _| a.set(a.get() + 1));
    drv.write(&mut sim, 0, 0, payload.clone(), done).unwrap();
    drv.run_until_quiescent(&mut sim);
    assert_eq!(acks.get(), 1, "split request must acknowledge exactly once");
    drv.with_stats(|s| assert!(s.log_records >= 3));
    for i in 0..80u64 {
        assert_eq!(
            &data[0].peek_sector(i)[..],
            &payload[i as usize * SECTOR_SIZE..(i as usize + 1) * SECTOR_SIZE],
            "sector {i}"
        );
    }
}

#[test]
fn overwrite_keeps_only_newest_contents() {
    let mut sim = Simulator::new();
    let (drv, data) = boot(
        &mut sim,
        profiles::tiny_test_disk(),
        1,
        TrailConfig::default(),
    );
    let v1 = sector_data(0x01, 1);
    let v2 = sector_data(0x02, 1);
    let v3 = sector_data(0x03, 1);
    for v in [v1, v2, v3.clone()] {
        let done = sim.completion(|_, _| {});
        drv.write(&mut sim, 0, 25, v, done).unwrap();
    }
    drv.run_until_quiescent(&mut sim);
    assert_eq!(&data[0].peek_sector(25)[..], &v3[..]);
    drv.with_stats(|s| {
        assert_eq!((s.log_records as usize), s.batch_sizes.len());
    });
    assert_eq!(drv.pinned_blocks(), 0);
}

#[test]
fn multiple_data_disks_are_independent() {
    let mut sim = Simulator::new();
    let (drv, data) = boot(
        &mut sim,
        profiles::tiny_test_disk(),
        3,
        TrailConfig::default(),
    );
    for dev in 0..3usize {
        let done = sim.completion(|_, _| {});
        drv.write(&mut sim, dev, 40, sector_data(dev as u8 + 1, 1), done)
            .unwrap();
    }
    drv.run_until_quiescent(&mut sim);
    for (dev, disk) in data.iter().enumerate() {
        let mut expect = sector_data(dev as u8 + 1, 1);
        expect.truncate(SECTOR_SIZE);
        assert_eq!(&disk.peek_sector(40)[..], &expect[..], "dev {dev}");
    }
}

#[test]
fn request_validation() {
    let mut sim = Simulator::new();
    let (drv, data) = boot(
        &mut sim,
        profiles::tiny_test_disk(),
        1,
        TrailConfig::default(),
    );
    let cap = data[0].geometry().total_sectors();
    // A rejected submission drops its completion; the token must come back
    // cancelled rather than vanish.
    let cancelled = Rc::new(Cell::new(0u32));
    let mint = |sim: &Simulator| {
        let c = Rc::clone(&cancelled);
        sim.completion(move |_, d: Delivered<IoDone>| {
            if d.is_err() {
                c.set(c.get() + 1);
            }
        })
    };
    let done = mint(&sim);
    assert_eq!(
        drv.write(&mut sim, 5, 0, sector_data(1, 1), done)
            .unwrap_err(),
        TrailError::BadDevice
    );
    let done = mint(&sim);
    assert_eq!(
        drv.write(&mut sim, 0, 0, vec![1, 2, 3], done).unwrap_err(),
        TrailError::BadDataLength
    );
    let done = mint(&sim);
    assert_eq!(
        drv.write(&mut sim, 0, cap, sector_data(1, 1), done)
            .unwrap_err(),
        TrailError::OutOfRange
    );
    let done = mint(&sim);
    assert_eq!(
        drv.read(&mut sim, 0, cap, 1, done).unwrap_err(),
        TrailError::OutOfRange
    );
    let done = mint(&sim);
    assert_eq!(
        drv.read(&mut sim, 0, 0, 0, done).unwrap_err(),
        TrailError::OutOfRange
    );
    sim.run();
    assert_eq!(
        cancelled.get(),
        5,
        "every rejected request cancels its token"
    );
}

#[test]
fn idle_timer_refreshes_reference_once() {
    let mut sim = Simulator::new();
    let config = TrailConfig {
        idle_reposition_after: SimDuration::from_millis(50),
        ..TrailConfig::default()
    };
    let (drv, _) = boot(&mut sim, profiles::tiny_test_disk(), 1, config);
    let done = sim.completion(|_, _| {});
    drv.write(&mut sim, 0, 0, sector_data(1, 1), done).unwrap();
    drv.run_until_quiescent(&mut sim);
    // Run well past the idle threshold: exactly one refresh fires, and the
    // event queue then drains (no runaway timers).
    sim.run();
    drv.with_stats(|s| assert_eq!(s.idle_refreshes, 1));
    assert!(sim.now() > SimTime::ZERO + SimDuration::from_millis(50));
    // Fresh activity re-arms the cycle.
    let done = sim.completion(|_, _| {});
    drv.write(&mut sim, 0, 1, sector_data(2, 1), done).unwrap();
    drv.run_until_quiescent(&mut sim);
    sim.run();
    drv.with_stats(|s| assert_eq!(s.idle_refreshes, 2));
}

#[test]
fn sync_writes_remain_fast_after_many_records() {
    // The free-track invariant must hold up over hundreds of records: the
    // 200th write is as fast as the 1st.
    let mut sim = Simulator::new();
    let (drv, _) = boot(
        &mut sim,
        profiles::seagate_st41601n(),
        1,
        TrailConfig::default(),
    );
    let lats = Rc::new(RefCell::new(Vec::<SimDuration>::new()));
    for i in 0..200u64 {
        let lats = Rc::clone(&lats);
        let done = sim.completion(move |_, d: Delivered<IoDone>| {
            lats.borrow_mut().push(d.expect("durable").latency());
        });
        drv.write(&mut sim, 0, (i * 13) % 4000, sector_data(i as u8, 2), done)
            .unwrap();
        drv.run_until_quiescent(&mut sim);
        sim.run_for(SimDuration::from_millis(3));
    }
    let lats = lats.borrow();
    let worst = lats.iter().max().unwrap().as_millis_f64();
    assert!(
        worst < 16.0,
        "worst sync write {worst} ms suggests a lost free-track invariant"
    );
    let late_mean = lats[150..].iter().map(|d| d.as_millis_f64()).sum::<f64>() / 50.0;
    assert!(
        late_mean < 4.0,
        "late-run mean {late_mean} ms should stay near the anchor"
    );
}

/// The write path moves buffers instead of cloning them: a write that fits
/// one record is queued, logged and pinned as the caller's own `Vec`, a
/// larger one as one view of it per chunk, and two writes to one block in a single
/// batch leave the newer pinned. Whatever was moved, reads served from
/// pinned memory and the data disks must see exactly the submitted bytes.
#[test]
fn moved_and_split_buffers_are_the_right_buffers() {
    let mut sim = Simulator::new();
    let (drv, data) = boot(
        &mut sim,
        profiles::tiny_test_disk(),
        1,
        TrailConfig::default(),
    );
    // Every sector distinct, so a misplaced or stale buffer cannot pass.
    let distinct = |tag: u8, sectors: usize| -> Vec<u8> {
        (0..sectors * SECTOR_SIZE)
            .map(|i| tag ^ (i / SECTOR_SIZE) as u8 ^ (i % 251) as u8)
            .collect()
    };
    let split = distinct(0xA0, 40); // > the 31-sector record limit: one view per chunk
    let fits = distinct(0xB0, 4); // moved
    let older = distinct(0xC0, 2); // same block twice in one batch
    let newer = distinct(0xD0, 2);

    let acks = Rc::new(Cell::new(0u32));
    let reads: Rc<RefCell<Vec<Vec<u8>>>> = Rc::default();
    let count_ack = |sim: &Simulator| {
        let a = Rc::clone(&acks);
        sim.completion(move |_, d: Delivered<IoDone>| {
            d.expect("durable");
            a.set(a.get() + 1);
        })
    };
    let done = count_ack(&sim);
    drv.write(&mut sim, 0, 0, split.clone(), done).unwrap();
    let done = count_ack(&sim);
    drv.write(&mut sim, 0, 200, fits.clone(), done).unwrap();
    let done = count_ack(&sim);
    drv.write(&mut sim, 0, 300, older, done).unwrap();
    // The last acknowledgement arrives with everything logged and nothing
    // written back yet: read each block back from pinned memory.
    let (drv2, acks2, reads2) = (drv.clone(), Rc::clone(&acks), Rc::clone(&reads));
    let done = sim.completion(move |sim: &mut Simulator, d: Delivered<IoDone>| {
        d.expect("durable");
        acks2.set(acks2.get() + 1);
        for (lba, count) in [(0, 31), (31, 9), (200, 4), (300, 2)] {
            let out = Rc::clone(&reads2);
            let read_done = sim.completion(move |_, d: Delivered<IoDone>| {
                let data = d.expect("read delivered").data.expect("read data");
                out.borrow_mut().push(data);
            });
            drv2.read(sim, 0, lba, count, read_done).unwrap();
        }
    });
    drv.write(&mut sim, 0, 300, newer.clone(), done).unwrap();
    drv.run_until_quiescent(&mut sim);

    assert_eq!(acks.get(), 4, "the split write acknowledges exactly once");
    drv.with_stats(|s| {
        assert_eq!(
            s.batch_sizes,
            [31, 9 + 4 + 2 + 2],
            "the second record carries both writes to block 300"
        );
        assert_eq!((s.read_hits, s.read_misses), (4, 0));
        assert_eq!(s.writebacks, 4, "one write-back per pinned block");
    });
    let reads = reads.borrow();
    assert_eq!(reads[0], split[..31 * SECTOR_SIZE]);
    assert_eq!(reads[1], split[31 * SECTOR_SIZE..]);
    assert_eq!(reads[2], fits);
    assert_eq!(reads[3], newer, "the newer of two writes in one batch wins");

    assert_eq!(drv.pinned_blocks(), 0);
    let on_disk = |lba: u64, sectors: usize| -> Vec<u8> {
        (0..sectors as u64)
            .flat_map(|i| data[0].peek_sector(lba + i))
            .collect()
    };
    assert_eq!(on_disk(0, 40), split);
    assert_eq!(on_disk(200, 4), fits);
    assert_eq!(on_disk(300, 2), newer);

    // A record that logs one block twice waits on that block once: on a
    // two-track log, any record left live after its blocks are written
    // back pins its track and stalls the ring within a few rounds.
    let mut sim = Simulator::new();
    let (drv, data) = boot(
        &mut sim,
        profiles::tiny_test_disk(),
        1,
        TrailConfig {
            log_track_limit: Some(2),
            ..TrailConfig::default()
        },
    );
    for round in 0..60u8 {
        for (lba, tag) in [(300, round), (200, round ^ 0x55), (300, round ^ 0xAA)] {
            let done = sim.completion(|_, d: Delivered<IoDone>| {
                d.expect("durable");
            });
            drv.write(&mut sim, 0, lba, distinct(tag, 2), done).unwrap();
        }
        drv.run_until_quiescent(&mut sim);
        assert_eq!(
            data[0].peek_sector(300),
            distinct(round ^ 0xAA, 2)[..SECTOR_SIZE]
        );
    }
    drv.with_stats(|s| {
        let whole_rounds = s.batch_sizes.iter().filter(|&&n| n == 6).count();
        assert!(whole_rounds >= 30, "{whole_rounds} rounds logged 300 twice");
        assert!(s.repositions > 2, "the two-track ring wrapped");
        assert_eq!(s.stalls, 0, "every record was released");
    });
    assert_eq!(drv.pinned_blocks(), 0);
}

/// The paper's cancellation case (§4.2), followed down to the platter: a
/// block overwritten while its write-back is still queued ships the bytes
/// it was enqueued with, that stale write-back is superseded, and the
/// retry ships the new ones. Pinned block and queued request share one
/// buffer, so this holds only because an overwrite replaces the pinned
/// handle instead of writing through it.
#[test]
fn an_overwrite_during_write_back_ships_the_old_bytes_then_the_new() {
    let mut sim = Simulator::new();
    let (drv, data) = boot(
        &mut sim,
        profiles::tiny_test_disk(),
        1,
        TrailConfig::default(),
    );
    let distinct = |tag: u8| -> Vec<u8> {
        (0..8 * SECTOR_SIZE)
            .map(|i| tag ^ (i / SECTOR_SIZE) as u8 ^ (i % 251) as u8)
            .collect()
    };
    let (old, new) = (distinct(0x50), distinct(0x60));
    let on_disk =
        |lba: u64| -> Vec<u8> { (0..8).flat_map(|i| data[0].peek_sector(lba + i)).collect() };
    // One batch: a far-away block whose write-back occupies the data disk,
    // then the block under test, whose write-back queues behind it.
    let done = sim.completion(|_, _: Delivered<IoDone>| {});
    drv.write(&mut sim, 0, 4000, distinct(0x40), done).unwrap();
    let (drv2, disk, new2) = (drv.clone(), data[0].clone(), new.clone());
    let done = sim.completion(move |sim: &mut Simulator, d: Delivered<IoDone>| {
        d.expect("durable");
        let done = sim.completion(move |_, d: Delivered<IoDone>| {
            d.expect("durable");
            // The overwrite is acknowledged with the first version's
            // write-back still waiting in the data disk's queue.
            assert_eq!(disk.peek_sector(64), [0u8; SECTOR_SIZE]);
        });
        drv2.write(sim, 0, 64, new2, done).unwrap();
    });
    drv.write(&mut sim, 0, 64, old.clone(), done).unwrap();

    while drv.with_stats(|s| s.superseded_writebacks) == 0 {
        assert!(sim.step(), "the stale write-back never completed");
    }
    assert_eq!(
        on_disk(64),
        old,
        "the queued write-back shipped its own version"
    );
    assert_eq!(
        drv.pinned_blocks(),
        1,
        "the block stays pinned for the retry"
    );
    drv.run_until_quiescent(&mut sim);
    drv.with_stats(|s| {
        assert_eq!(s.superseded_writebacks, 1);
        assert_eq!(s.writebacks, 3, "blocker, stale version, retry");
    });
    assert_eq!(on_disk(64), new);
    assert_eq!(drv.pinned_blocks(), 0);
}

/// Four writes logged in one batch, acknowledged in this order, the later
/// ones overlapping the earlier with other spans; `reads` are issued when
/// the last is acknowledged. Returns the driver, its data disk, and the
/// first byte of every sector each read returned.
fn overlapping_extents(reads: &'static [(u64, u32)]) -> (TrailDriver, Disk, Vec<Vec<u8>>) {
    let mut sim = Simulator::new();
    let (drv, mut data) = boot(
        &mut sim,
        profiles::tiny_test_disk(),
        1,
        TrailConfig::default(),
    );
    // The first write only keeps the data disk busy, so the others'
    // write-backs queue behind it and C-LOOK sweeps them by cylinder:
    // 156.. (cylinder 1) goes out before 160.. (cylinder 2).
    for (lba, sectors, fill) in [(0, 2, 0x11), (160, 2, 0xBB), (156, 8, 0xAA)] {
        let done = sim.completion(|_, _| {});
        drv.write(&mut sim, 0, lba, vec![fill; sectors * SECTOR_SIZE], done)
            .unwrap();
    }
    let read_back: Rc<RefCell<Vec<Vec<u8>>>> = Rc::default();
    let (drv2, out) = (drv.clone(), Rc::clone(&read_back));
    let done = sim.completion(move |sim: &mut Simulator, _| {
        // Every range is still pinned: nothing has been written back yet.
        assert_eq!(drv2.pinned_blocks(), 4);
        for &(lba, count) in reads {
            let out = Rc::clone(&out);
            let read_done = sim.completion(move |_, d: Delivered<IoDone>| {
                let data = d.expect("read delivered").data.expect("read data");
                out.borrow_mut()
                    .push(data.iter().copied().step_by(SECTOR_SIZE).collect());
            });
            drv2.read(sim, 0, lba, count, read_done).unwrap();
        }
    });
    drv.write(&mut sim, 0, 158, vec![0xDD; 2 * SECTOR_SIZE], done)
        .unwrap();
    drv.run_until_quiescent(&mut sim);
    sim.run();
    let reads = read_back.take();
    (drv, data.remove(0), reads)
}

/// Pinned memory is one map of disjoint sector ranges: an acknowledged
/// write is what a later read of any *overlapping* extent sees, and
/// overlapping pinned extents reach the data disk in acknowledgement order,
/// not in the scheduler's (the stale 0xBB at 160.. must not land on top of
/// 0xAA).
#[test]
fn overlapping_pinned_extents_serve_the_newest_bytes() {
    let (_, data, reads) = overlapping_extents(&[(156, 8)]);
    let newest = [0xAA, 0xAA, 0xDD, 0xDD, 0xAA, 0xAA, 0xAA, 0xAA];
    let on_disk: Vec<u8> = (156..164).map(|lba| data.peek_sector(lba)[0]).collect();
    assert_eq!(
        (&reads[0][..], &on_disk[..]),
        (&newest[..], &newest[..]),
        "a read, and the data disk after write-back, must hold every \
         acknowledged overlapping write's newest bytes"
    );
}

/// The same scenario, counted: two of the four writes cut into a pinned
/// range with another span (0xAA covers 0xBB, 0xDD splits 0xAA), and a read
/// that only partly overlaps pinned memory goes to the data disk and has
/// the pinned sectors patched over what it returns.
#[test]
fn overlapping_writes_and_patched_reads_are_counted() {
    let (drv, _, reads) = overlapping_extents(&[(156, 8), (154, 4)]);
    assert_eq!(reads[1], [0, 0, 0xAA, 0xAA]);
    drv.with_stats(|s| {
        assert_eq!((s.overlapping_writes, s.patched_reads), (2, 1));
        assert_eq!((s.read_hits, s.read_misses), (1, 1));
    });
}

#[test]
fn a_transient_error_on_a_reference_read_reads_again() {
    let mut sim = Simulator::new();
    let config = TrailConfig {
        reposition_every_write: true,
        ..TrailConfig::default()
    };
    let (drv, data) = boot(&mut sim, profiles::tiny_test_disk(), 1, config);
    let log = drv.log_disk();
    let acked = Rc::new(Cell::new(0));
    let write = |sim: &mut Simulator, lba: u64| {
        let a = Rc::clone(&acked);
        let done = sim.completion(move |_, d: Delivered<IoDone>| {
            d.expect("durable");
            a.set(a.get() + 1);
        });
        drv.write(sim, 0, lba, sector_data(lba as u8, 1), done)
            .expect("accepted");
    };
    // With the record in flight, the repositioning read behind it is the
    // next log command.
    write(&mut sim, 64);
    while !log.is_busy() {
        assert!(sim.step());
    }
    log.inject_transient_errors(1);
    drv.run_until_quiescent(&mut sim);
    assert_eq!(drv.with_stats(|s| s.repositions), 1);
    // Idle, the refresh read is.
    log.inject_transient_errors(1);
    sim.run();
    assert_eq!(drv.with_stats(|s| s.idle_refreshes), 1);
    assert_eq!(log.with_stats(|s| s.injected_errors), 2);
    write(&mut sim, 80);
    drv.shutdown(&mut sim).expect("clean shutdown");
    assert_eq!(acked.get(), 2);
    for lba in [64, 80] {
        assert_eq!(data[0].peek_sector(lba)[..], sector_data(lba as u8, 1)[..]);
    }
}
