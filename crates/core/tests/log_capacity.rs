//! Log-disk capacity edge cases: the out-of-free-tracks stall (paper
//! §4.4 calls it rare but Trail must survive it) and circular wrap-around
//! of the track ring, including recovery after a crash on a wrapped log.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use trail_core::{format_log_disk, FormatOptions, TrailConfig, TrailDriver};
use trail_disk::{profiles, AckLedger, Disk, SECTOR_SIZE};
use trail_sim::{SimDuration, Simulator};

fn boot_limited(sim: &mut Simulator, tracks: u64) -> (TrailDriver, Disk, Disk) {
    let log = Disk::new("log", profiles::tiny_test_disk());
    let data = Disk::new("d0", profiles::tiny_test_disk());
    format_log_disk(sim, &log, FormatOptions::default()).unwrap();
    let config = TrailConfig {
        log_track_limit: Some(tracks),
        ..TrailConfig::default()
    };
    let (drv, _) = TrailDriver::start(sim, log.clone(), vec![data.clone()], config).unwrap();
    (drv, log, data)
}

#[test]
fn log_full_stalls_then_drains() {
    // Three tracks of ~40 sectors each cannot absorb a burst of 300
    // one-sector writes faster than the data disk drains them: the driver
    // must stall at least once, never lose a write, and finish.
    let mut sim = Simulator::new();
    let (drv, _, data) = boot_limited(&mut sim, 3);
    let acks = Rc::new(Cell::new(0u32));
    for i in 0..300u64 {
        let acks = Rc::clone(&acks);
        let done = sim.completion(move |_, _| acks.set(acks.get() + 1));
        drv.write(&mut sim, 0, i, vec![(i % 250 + 1) as u8; SECTOR_SIZE], done)
            .unwrap();
    }
    drv.run_until_quiescent(&mut sim);
    assert_eq!(acks.get(), 300, "every write must eventually be acked");
    drv.with_stats(|s| {
        assert!(s.stalls > 0, "a 3-track log must stall under this burst");
    });
    for i in 0..300u64 {
        assert_eq!(data.peek_sector(i)[0], (i % 250 + 1) as u8, "block {i}");
    }
    assert!(!drv.is_stalled());
    assert_eq!(drv.pinned_blocks(), 0);
}

#[test]
fn ring_wraps_and_keeps_serving() {
    // Sparse writes commit quickly, so tracks recycle: with a 4-track
    // ring, a few hundred records force many wrap-arounds.
    let mut sim = Simulator::new();
    let (drv, _, data) = boot_limited(&mut sim, 4);
    for i in 0..300u64 {
        let done = sim.completion(|_, _| {});
        drv.write(
            &mut sim,
            0,
            i % 64,
            vec![(i % 250 + 1) as u8; SECTOR_SIZE],
            done,
        )
        .unwrap();
        drv.run_until_quiescent(&mut sim);
    }
    drv.with_stats(|s| {
        assert!(
            s.repositions > 8,
            "4-track ring must have wrapped (repositions {})",
            s.repositions
        );
    });
    // Last writer per block wins.
    for lba in 0..64u64 {
        let expect = (0..300u64)
            .filter(|i| i % 64 == lba)
            .map(|i| (i % 250 + 1) as u8)
            .next_back()
            .unwrap();
        assert_eq!(data.peek_sector(lba)[0], expect, "block {lba}");
    }
}

#[test]
fn crash_on_a_wrapped_log_recovers() {
    // Fill and recycle a small ring, then crash mid-burst: stage 1's
    // binary search must handle the "rotated array" of per-track sequence
    // numbers that wrap-around produces.
    let mut sim = Simulator::new();
    let (drv, log, data) = boot_limited(&mut sim, 4);
    let ledger = Rc::new(RefCell::new(AckLedger::default()));
    let write = |sim: &mut Simulator, lba: u64| {
        let (tag, sector) = ledger.borrow_mut().submit(0, lba, 1);
        let ledger = Rc::clone(&ledger);
        let done = sim.completion(move |_, d: trail_sim::Delivered<_>| {
            if d.is_ok() {
                ledger.borrow_mut().ack(tag);
            }
        });
        drv.write(sim, 0, lba, sector, done).unwrap();
    };
    // Phase 1: recycle the ring thoroughly (all committed).
    for i in 0..200u64 {
        write(&mut sim, i % 64);
        drv.run_until_quiescent(&mut sim);
    }
    // Phase 2: a burst, crashed mid-flight.
    let phase1 = ledger.borrow().acked();
    let t0 = sim.now();
    let cut = t0 + SimDuration::from_millis(25);
    for i in 0..120u64 {
        let at = t0 + SimDuration::from_micros(i * 350);
        if at > cut {
            break;
        }
        sim.run_until(at);
        write(&mut sim, 100 + (i % 40));
    }
    sim.run_until(cut);
    for d in [&log, &data] {
        d.power_cut(sim.now());
        d.power_on();
    }
    assert!(
        ledger.borrow().acked() > phase1,
        "some burst writes must have been acked"
    );
    drop(drv);
    let mut sim2 = Simulator::new();
    let config = TrailConfig {
        log_track_limit: Some(4),
        ..TrailConfig::default()
    };
    let (_drv2, boot) = TrailDriver::start(&mut sim2, log, vec![data.clone()], config).unwrap();
    let report = boot.recovered.expect("dirty log recovers");
    assert!(report.records_found > 0);
    let bad = ledger
        .borrow()
        .check_crashed(|_, lba| data.peek_sector(lba));
    assert!(bad.is_empty(), "{}", bad.join("\n"));
}
