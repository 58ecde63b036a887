//! Disk-timing calibration walkthrough (paper §3.1): measure the rotation
//! period, verify the track skew, and run the δ-calibration experiment
//! whose cliff shows why head prediction needs an overhead compensation.
//!
//! Run with: `cargo run --release --example geometry_probe`

use trail::prelude::*;
use trail::probe::{
    calibrate_delta, calibrate_track_leads, estimate_write_overhead, measure_rotation_period,
    measure_track_skew,
};

fn main() -> Result<(), TrailError> {
    let mut sim = Simulator::new();
    let disk = Disk::new("log", profiles::seagate_st41601n());
    let geometry = disk.geometry();

    println!("drive: Seagate ST41601N-class (from mode pages):");
    println!(
        "  {} cylinders x {} heads = {} tracks, {} sectors, {:.2} GB",
        geometry.cylinders(),
        geometry.heads(),
        geometry.total_tracks(),
        geometry.total_sectors(),
        geometry.capacity_bytes() as f64 / 1e9
    );

    // 1. Rotation period, from back-to-back reads of one sector.
    let period = measure_rotation_period(&mut sim, &disk, 7)?;
    println!(
        "\nrotation period: {} => {:.0} RPM",
        period,
        60.0e9 / period.as_nanos() as f64
    );

    // 2. Track skew, from the phase difference between adjacent tracks.
    let skew = measure_track_skew(&mut sim, &disk, 0, period)?;
    let hb = u64::from(geometry.heads()) - 1;
    let cyl_skew = measure_track_skew(&mut sim, &disk, hb, period)?;
    println!("track skew: {skew} sectors; at a cylinder boundary: {cyl_skew} sectors");

    // 3. The delta-calibration experiment: single-sector writes at
    //    increasing offsets from a reference point. Under-compensated
    //    offsets pay a full rotation.
    let cal = calibrate_delta(&mut sim, &disk, 1, period)?;
    println!("\ndelta calibration (latency cliff):");
    for s in cal.samples.iter().take((cal.minimal + 4) as usize) {
        let bar = "#".repeat((s.latency.as_millis_f64() * 3.0) as usize);
        println!(
            "  delta {:>2}: {:>7.3} ms {bar}",
            s.delta,
            s.latency.as_millis_f64()
        );
    }
    println!(
        "  => minimal delta {} sectors (paper: < 15 on this drive)",
        cal.minimal
    );
    // The driver aims by the same experiment as durations, measured from
    // the head's exact angle: after a read, after a write (which pays the
    // write-after-write delay), and across a head switch or a crossing.
    let leads = calibrate_track_leads(&mut sim, &disk, 1, period)?;
    println!(
        "  driver leads: {} after a read, {} after a write, {} head switch, {} crossing",
        leads.after_read, leads.after_write, leads.switch, leads.crossing
    );

    // 4. The fixed command overhead behind that delta.
    let overhead = estimate_write_overhead(&mut sim, &disk, 2, period)?;
    println!(
        "\nfixed write overhead: {} (~{:.1} sectors at this zone's transfer rate)",
        overhead,
        overhead.as_nanos() as f64 / (period.as_nanos() as f64 / 90.0)
    );
    Ok(())
}
