//! Spindle-speed deviation (paper §3.1): "because of the deviation in the
//! disk rotation speed ... the predictions will go awry after a long
//! period of disk idle time. Therefore the Trail driver needs to
//! periodically reposition the log disk head and update the reference
//! point accordingly."
//!
//! The default drive profiles model a perfectly regulated spindle; here a
//! wandering spindle is injected, and the idle-time reference refresh is
//! what keeps predictions accurate.

use std::cell::RefCell;
use std::rc::Rc;

use trail_core::{format_log_disk, FormatOptions, TrailConfig, TrailDriver};
use trail_disk::{profiles, Disk};
use trail_sim::{DurationHistogram, SimDuration, Simulator};

/// A log disk whose spindle phase wanders by up to ~1.3 ms (≈10 sectors)
/// over a 2-second cycle.
fn wandering_log_disk() -> Disk {
    let mut p = profiles::seagate_st41601n();
    p.mech.spindle_wander = SimDuration::from_micros(1_300);
    p.mech.wander_period = SimDuration::from_secs(2);
    Disk::new("wandering-log", p)
}

/// Boots Trail over the wandering disk, writes once to anchor a reference,
/// idles for `idle`, then measures the next write's latency.
fn write_after_idle(idle: SimDuration, idle_refresh_after: SimDuration) -> f64 {
    let mut sim = Simulator::new();
    let log = wandering_log_disk();
    let data = Disk::new("d0", profiles::wd_caviar_10gb());
    format_log_disk(&mut sim, &log, FormatOptions::default()).unwrap();
    let config = TrailConfig {
        idle_reposition_after: idle_refresh_after,
        // Refresh periodically for as long as the idle lasts (the paper's
        // behavior); the default of 1 exists only to keep test event
        // queues finite.
        max_idle_refreshes: 1000,
        ..TrailConfig::default()
    };
    let (trail, _) = TrailDriver::start(&mut sim, log, vec![data], config).unwrap();
    // Anchor writes.
    for i in 0..3u64 {
        let done = sim.completion(|_, _| {});
        trail
            .write(&mut sim, 0, i * 8, vec![1u8; 512], done)
            .unwrap();
        trail.run_until_quiescent(&mut sim);
    }
    // Idle. (run_until advances time; the idle refresh fires if armed and
    // due.)
    let resume_at = sim.now() + idle;
    sim.run_until(resume_at);
    // The probe write.
    let lat = Rc::new(RefCell::new(DurationHistogram::new()));
    let l2 = Rc::clone(&lat);
    let done = sim.completion(move |_, d: trail_sim::Delivered<trail_blockio::IoDone>| {
        l2.borrow_mut().record(d.expect("durable").latency());
    });
    trail
        .write(&mut sim, 0, 4096, vec![2u8; 512], done)
        .unwrap();
    trail.run_until_quiescent(&mut sim);
    let out = lat.borrow().mean().as_millis_f64();
    out
}

#[test]
fn calibration_still_works_on_a_wandering_spindle() {
    // Short-horizon prediction is barely affected: the probe and the
    // driver keep re-anchoring, so normal operation stays fast.
    let mut sim = Simulator::new();
    let log = wandering_log_disk();
    let report = format_log_disk(&mut sim, &log, FormatOptions::default()).unwrap();
    // Wander shifts the measured period by at most a few microseconds.
    assert!(
        (report.rotation_period.as_millis_f64() - 11.111).abs() < 0.1,
        "rotation estimate {} off",
        report.rotation_period
    );
}

#[test]
fn stale_reference_goes_awry_and_idle_refresh_fixes_it() {
    // On a wandering spindle the probed rotation period is slightly off
    // (the probe samples rev-to-rev times while the wander is moving), so
    // a stale reference drifts *linearly* with idle time — within two
    // seconds the prediction is several sectors out. Periodic refreshing
    // keeps the reference young enough that the drift stays under a
    // sector or two.
    let idles = [500u64, 900, 1_300, 1_700];
    let mut worst_stale: f64 = 0.0;
    let mut worst_refreshed: f64 = 0.0;
    for &ms in &idles {
        let idle = SimDuration::from_millis(ms);
        // (a) Refresh effectively disabled.
        worst_stale = worst_stale.max(write_after_idle(idle, SimDuration::from_secs(30)));
        // (b) Refresh every 150 ms of idle keeps the reference young.
        worst_refreshed =
            worst_refreshed.max(write_after_idle(idle, SimDuration::from_millis(150)));
    }
    assert!(
        worst_refreshed < 3.5,
        "refreshed writes should stay fast, worst took {worst_refreshed:.2} ms"
    );
    assert!(
        worst_stale > 6.0,
        "a stale reference should have drifted several sectors, worst was {worst_stale:.2} ms"
    );
}

#[test]
fn wander_free_spindle_needs_no_refresh() {
    // Control: on the default (perfect) spindle the same long idle costs
    // nothing even without a refresh.
    let mut sim = Simulator::new();
    let log = Disk::new("log", profiles::seagate_st41601n());
    let data = Disk::new("d0", profiles::wd_caviar_10gb());
    format_log_disk(&mut sim, &log, FormatOptions::default()).unwrap();
    let config = TrailConfig {
        idle_reposition_after: SimDuration::from_secs(30),
        ..TrailConfig::default()
    };
    let (trail, _) = TrailDriver::start(&mut sim, log, vec![data], config).unwrap();
    let done = sim.completion(|_, _| {});
    trail.write(&mut sim, 0, 0, vec![1u8; 512], done).unwrap();
    trail.run_until_quiescent(&mut sim);
    let resume = sim.now() + SimDuration::from_millis(700);
    sim.run_until(resume);
    let lat = Rc::new(RefCell::new(DurationHistogram::new()));
    let l2 = Rc::clone(&lat);
    let done = sim.completion(move |_, d: trail_sim::Delivered<trail_blockio::IoDone>| {
        l2.borrow_mut().record(d.expect("durable").latency());
    });
    trail
        .write(&mut sim, 0, 4096, vec![2u8; 512], done)
        .unwrap();
    trail.run_until_quiescent(&mut sim);
    let ms = lat.borrow().mean().as_millis_f64();
    assert!(ms < 3.0, "perfect spindle write took {ms:.2} ms after idle");
}
