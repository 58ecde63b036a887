//! A Trail stack that loses power with write-backs queued must cancel
//! them and be freed when dropped.
//!
//! The queued write-backs' completions hold a `TrailDriver` clone, and the
//! `TrailDriver` owns the data-disk drivers that hold the queue: unless a
//! power cut drains the queue, that is an `Rc` cycle and the whole stack —
//! every disk's medium included — outlives its last handle.

use std::cell::RefCell;
use std::rc::Rc;

use trail_blockio::{IoDone, StandardDriver};
use trail_core::{format_log_disk, FormatOptions, TrailConfig, TrailDriver};
use trail_disk::{profiles, Disk, SECTOR_SIZE};
use trail_sim::{Delivered, Simulator};
use trail_telemetry::{MemoryRecorder, RecorderHandle};

#[test]
fn power_cut_with_write_backs_queued_cancels_them_and_frees_the_stack() {
    let mut sim = Simulator::new();
    let log = Disk::new("log", profiles::seagate_st41601n());
    let data = Disk::new("data", profiles::wd_caviar_10gb());
    let data_drv = StandardDriver::new(data.clone());
    format_log_disk(&mut sim, &log, FormatOptions::default()).unwrap();
    let (trail, _) = TrailDriver::start_with_targets(
        &mut sim,
        log.clone(),
        vec![Rc::new(data_drv.clone())],
        TrailConfig::default(),
    )
    .unwrap();
    // Every disk holds the recorder, so its strong count witnesses from
    // outside whether the disks (and all that owns them) are gone.
    let witness: RecorderHandle = MemoryRecorder::shared();
    trail.set_recorder(Rc::clone(&witness));

    // Scattered writes: the log acknowledges at track speed, the data disk
    // seeks for each, so write-backs pile up in its driver's queue.
    let acks = Rc::new(RefCell::new(Vec::new()));
    let total = data.geometry().total_sectors();
    for i in 0..48u64 {
        let acks = Rc::clone(&acks);
        let done = sim.completion(move |_, d: Delivered<IoDone>| acks.borrow_mut().push(d.is_ok()));
        let lba = (i * 7_919_003) % (total - 8);
        trail
            .write(&mut sim, 0, lba, vec![i as u8 + 1; SECTOR_SIZE], done)
            .unwrap();
    }
    while acks.borrow().len() < 48 {
        assert!(sim.step(), "every write is acknowledged");
    }
    assert!(acks.borrow().iter().all(|&ok| ok));
    assert!(
        data_drv.queue_depth() >= 8,
        "write-backs must be queued at the cut, got {}",
        data_drv.queue_depth()
    );

    log.power_cut(sim.now());
    data.power_cut(sim.now());
    sim.run();
    assert_eq!(
        data_drv.queue_depth(),
        0,
        "queued write-backs are cancelled"
    );
    assert!(!data_drv.is_busy());

    drop((trail, data_drv, log, data, sim));
    assert_eq!(
        Rc::strong_count(&witness),
        1,
        "the powered-off stack must be freed with its last handle"
    );
}
