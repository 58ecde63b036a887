//! Crash recovery end to end: run a write workload, cut power at an
//! arbitrary instant through a declarative [`FaultPlan`], and watch
//! Trail's three-stage recovery restore every acknowledged write.
//!
//! Run with: `cargo run --release --example crash_recovery`

use std::cell::RefCell;
use std::rc::Rc;

use rand::Rng;
use trail::disk::AckLedger;
use trail::prelude::*;

fn main() -> Result<(), TrailError> {
    // The paper's drives over two data disks, every disk registered on the
    // stack's fault clock, and a declarative plan that cuts the whole
    // system 120 ms into the workload.
    let cut_after = SimDuration::from_millis(120);
    let plan = FaultPlan::power_cut_at(cut_after);
    println!("armed fault plan: {}", plan.encode());
    let built = StackBuilder::new().data_disks(2).faults(plan).build()?;
    let (mut sim, clock, data) = (built.sim, built.fault_clock, built.data_disks);
    let trail = built.trail.expect("the default stack runs Trail");
    let log = built.log_disk.expect("Trail has a log disk");

    // A bursty random write workload; the ledger remembers what was
    // submitted and acknowledged. After the cut the arrival events keep
    // firing but stop submitting.
    let ledger = Rc::new(RefCell::new(AckLedger::default()));
    let mut rng = trail_sim::rng(2002);
    let start = sim.now();
    for i in 0..400u64 {
        let dev = rng.gen_range(0..2usize);
        let lba = 10_000 + i;
        let ledger = Rc::clone(&ledger);
        let trail2 = trail.clone();
        let clock2 = clock.clone();
        sim.schedule_at(start + SimDuration::from_micros(i * 500), move |sim| {
            if clock2.fired() > 0 {
                return;
            }
            let (tag, sector) = ledger.borrow_mut().submit(dev, lba, 1);
            let done = sim.completion(move |_, del: Delivered<IoDone>| {
                if del.is_ok() {
                    ledger.borrow_mut().ack(tag);
                }
            });
            trail2
                .write(sim, dev, lba, sector, done)
                .expect("write accepted");
        });
    }

    // Lights out mid-workload; drain so every arrival has fired.
    sim.run();
    assert_eq!(clock.fired(), 1, "the armed power cut must have fired");
    println!(
        "power failed at {} with {} writes acknowledged, {} blocks still pending write-back",
        start + cut_after,
        ledger.borrow().acked(),
        trail.pinned_blocks()
    );
    drop(trail);

    // Reboot: TrailDriver::start sees the dirty flag and recovers.
    log.power_on();
    for d in &data {
        d.power_on();
    }
    let mut sim2 = Simulator::new();
    let (trail, boot) = TrailDriver::start(&mut sim2, log, data.clone(), TrailConfig::default())?;
    let report = boot.recovered.expect("dirty log disk triggers recovery");
    println!("\nrecovery report:");
    println!(
        "  locate youngest record: {} ({} track scans)",
        report.locate_time, report.tracks_scanned
    );
    println!(
        "  rebuild active records: {} ({} records, {} active log sectors, head span {})",
        report.rebuild_time, report.records_found, report.active_log_sectors, report.log_head_span
    );
    println!(
        "  write back to data disks: {} ({} sectors)",
        report.writeback_time, report.sectors_replayed
    );
    println!(
        "  torn in-flight records dropped: {}",
        report.torn_records_dropped
    );

    // Every acknowledged write must now be on its data disk.
    let lost = ledger
        .borrow()
        .check_crashed(|dev, lba| data[dev].peek_sector(lba));
    assert!(
        lost.is_empty(),
        "acknowledged writes lost:\n{}",
        lost.join("\n")
    );
    println!(
        "\nverified {} acknowledged writes survived the crash",
        ledger.borrow().acked()
    );
    trail.shutdown(&mut sim2)?;
    Ok(())
}
