//! Quickstart: format a log disk, boot Trail, and watch synchronous
//! writes become cheap.
//!
//! Run with: `cargo run --release --example quickstart`

use trail::prelude::*;

fn main() -> Result<(), TrailError> {
    // A simulated machine from the paper's testbed: a 5400-RPM SCSI disk
    // for the log, one 10-GB IDE disk for data.
    let mut sim = Simulator::new();
    let log = Disk::new("log", profiles::seagate_st41601n());
    let data = Disk::new("data0", profiles::wd_caviar_10gb());

    // The formatter probes the drive's rotation period and calibrates how
    // far ahead of the head a write aims (the paper's delta), then writes
    // the self-describing header.
    let report = format_log_disk(&mut sim, &log, FormatOptions::default())?;
    let leads = report.header.leads;
    println!(
        "formatted: rotation period {}, write lead {} after a read, {} after a write",
        report.rotation_period, leads.after_read, leads.after_write
    );

    // Boot the driver. A clean disk needs no recovery.
    let (trail, boot) =
        TrailDriver::start(&mut sim, log, vec![data.clone()], TrailConfig::default())?;
    assert!(boot.recovered.is_none());

    // Synchronous writes: durable at the log-write ack (~1.5 ms), written
    // back to the data disk in the background.
    println!("\nissuing 10 random synchronous writes through Trail...");
    for i in 0..10u64 {
        let lba = 1000 + i * 997 % 100_000;
        let done = sim.completion(move |_, done: Delivered<IoDone>| {
            let done = done.expect("delivered");
            println!("  write {i} at lba {lba}: durable in {}", done.latency());
        });
        trail.write(&mut sim, 0, lba, vec![i as u8; 2 * SECTOR_SIZE], done)?;
        trail.run_until_quiescent(&mut sim);
    }

    // Compare with the same writes on the standard disk subsystem.
    println!("\nsame writes on the standard disk subsystem...");
    let baseline_disk = Disk::new("baseline", profiles::wd_caviar_10gb());
    let baseline = StandardDriver::new(baseline_disk);
    for i in 0..10u64 {
        let lba = 1000 + i * 997 % 100_000;
        let done = sim.completion(move |_, done: Delivered<IoDone>| {
            let done = done.expect("delivered");
            println!("  write {i} at lba {lba}: durable in {}", done.latency());
        });
        baseline
            .submit(
                &mut sim,
                IoRequest::write(lba, vec![i as u8; 2 * SECTOR_SIZE]),
                done,
            )
            .map_err(TrailError::Disk)?;
        sim.run();
    }

    // Reads are served from pinned memory or the data disk; the log disk
    // never services reads.
    let done = sim.completion(|_, done: Delivered<IoDone>| {
        let done = done.expect("delivered");
        println!(
            "\nread back lba 1000: first byte {}",
            done.data.unwrap().sector(0)[0]
        );
    });
    trail.submit(&mut sim, 0, IoRequest::read(1000, 2), done)?;
    sim.run();

    trail.with_stats(|s| {
        println!(
            "\nTrail stats: {} records, {} repositions, mean sync write {}",
            s.log_records,
            s.repositions,
            s.sync_write_latency.mean()
        );
    });
    trail.shutdown(&mut sim)?;
    println!("clean shutdown: next boot will skip recovery");
    Ok(())
}
