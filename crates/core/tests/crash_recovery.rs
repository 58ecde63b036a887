//! Crash-recovery correctness: every acknowledged synchronous write
//! survives a power failure at an arbitrary instant.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use rand::Rng;
use trail_core::{
    format_log_disk, read_header, recover, FormatOptions, RecoveryOptions, TrailConfig,
    TrailDriver, TrailError,
};
use trail_disk::{profiles, Disk, SECTOR_SIZE};
use trail_sim::{SimDuration, Simulator};

/// A workload record: which values were written to each block, in order,
/// and how many of them were acknowledged before the crash.
#[derive(Default)]
struct Ledger {
    /// Per (dev, lba): values written, in issue order.
    writes: HashMap<(usize, u64), Vec<u8>>, // tag per write
    /// Per (dev, lba): highest tag acknowledged.
    acked: HashMap<(usize, u64), u8>,
}

fn tagged_sector(tag: u8) -> Vec<u8> {
    let mut v = vec![tag; SECTOR_SIZE];
    v[0] = tag ^ 0xA5; // nonzero first byte exercises transposition
    v
}

/// Runs a random single-sector write workload against a Trail driver and
/// cuts power at `crash_at`. Returns the ledger and the devices.
fn run_workload_and_crash(
    seed: u64,
    crash_delay: SimDuration,
    n_writes: usize,
) -> (Ledger, Disk, Vec<Disk>) {
    let mut sim = Simulator::new();
    let log = Disk::new("log", profiles::tiny_test_disk());
    let data: Vec<Disk> = (0..2)
        .map(|i| Disk::new(format!("d{i}"), profiles::tiny_test_disk()))
        .collect();
    format_log_disk(&mut sim, &log, FormatOptions::default()).unwrap();
    let (drv, _) =
        TrailDriver::start(&mut sim, log.clone(), data.clone(), TrailConfig::default()).unwrap();

    let ledger = Rc::new(RefCell::new(Ledger::default()));
    let mut rng = trail_sim::rng(seed);
    let t0 = sim.now();
    for i in 0..n_writes {
        let dev = rng.gen_range(0..2usize);
        let lba = rng.gen_range(0..64u64);
        let tag = (i % 251 + 1) as u8;
        ledger
            .borrow_mut()
            .writes
            .entry((dev, lba))
            .or_default()
            .push(tag);
        let l2 = Rc::clone(&ledger);
        // Bursty arrivals: multiple writes per millisecond.
        let delay = SimDuration::from_micros(rng.gen_range(0..2_000));
        let when = t0 + SimDuration::from_millis(i as u64 / 3) + delay;
        let drv2 = drv.clone();
        sim.schedule_at(when.max(sim.now()), move |sim| {
            // A crash can cancel in-flight tokens; only a real delivery
            // counts as an acknowledgement.
            let done = sim.completion(move |_, d: trail_sim::Delivered<_>| {
                if d.is_ok() {
                    l2.borrow_mut().acked.insert((dev, lba), tag);
                }
            });
            drv2.write(sim, dev, lba, tagged_sector(tag), done).unwrap();
        });
    }
    sim.run_until(t0 + crash_delay);
    // Lights out: every device loses power at the same instant.
    log.power_cut(sim.now());
    for d in &data {
        d.power_cut(sim.now());
    }
    let ledger = Rc::try_unwrap(ledger)
        .map(RefCell::into_inner)
        .unwrap_or_else(|rc| {
            // Callbacks captured clones; copy the current state instead.
            Ledger {
                writes: rc.borrow().writes.clone(),
                acked: rc.borrow().acked.clone(),
            }
        });
    (ledger, log, data)
}

/// After recovery, every block must hold a value at least as new as its
/// last acknowledged write (newer unacknowledged values are permitted —
/// they were durably logged even though the ack never fired).
fn verify_ledger(ledger: &Ledger, data: &[Disk]) {
    for (&(dev, lba), &acked_tag) in &ledger.acked {
        let history = &ledger.writes[&(dev, lba)];
        let acked_pos = history
            .iter()
            .position(|&t| t == acked_tag)
            .expect("acked tag was issued");
        let acceptable: Vec<Vec<u8>> = history[acked_pos..]
            .iter()
            .map(|&t| tagged_sector(t))
            .collect();
        let on_disk = data[dev].peek_sector(lba).to_vec();
        assert!(
            acceptable.iter().any(|v| v[..] == on_disk[..]),
            "dev {dev} lba {lba}: acked tag {acked_tag} but disk holds {:?} (first bytes)",
            &on_disk[..4]
        );
    }
}

fn recover_and_verify(ledger: &Ledger, log: Disk, data: Vec<Disk>) {
    let mut sim = Simulator::new();
    log.power_on();
    for d in &data {
        d.power_on();
    }
    let header = read_header(&mut sim, &log).unwrap();
    assert!(!header.clean, "crash must leave the dirty flag set");
    let report = recover(&mut sim, &log, &data, &header, RecoveryOptions::default()).unwrap();
    assert!(report.write_back_performed);
    verify_ledger(ledger, &data);
}

#[test]
fn acked_writes_survive_a_crash_mid_workload() {
    let (ledger, log, data) = run_workload_and_crash(42, SimDuration::from_millis(120), 300);
    assert!(
        !ledger.acked.is_empty(),
        "workload must have acknowledged writes before the crash"
    );
    recover_and_verify(&ledger, log, data);
}

#[test]
fn crash_at_many_instants_never_loses_acked_data() {
    // Sweep the crash instant across the workload, including moments that
    // land mid-record-transfer (torn records).
    for ms in [5u64, 17, 33, 52, 71, 94, 113, 156, 199] {
        let (ledger, log, data) = run_workload_and_crash(7 + ms, SimDuration::from_millis(ms), 400);
        recover_and_verify(&ledger, log, data);
    }
}

#[test]
fn recovery_with_no_records_is_empty() {
    let mut sim = Simulator::new();
    let log = Disk::new("log", profiles::tiny_test_disk());
    let data = vec![Disk::new("d", profiles::tiny_test_disk())];
    format_log_disk(&mut sim, &log, FormatOptions::default()).unwrap();
    // Boot marks the disk dirty, then "crash" before any write.
    let (_drv, _) =
        TrailDriver::start(&mut sim, log.clone(), data.clone(), TrailConfig::default()).unwrap();
    log.power_cut(sim.now());
    log.power_on();
    let mut sim2 = Simulator::new();
    let header = read_header(&mut sim2, &log).unwrap();
    let report = recover(&mut sim2, &log, &data, &header, RecoveryOptions::default()).unwrap();
    assert_eq!(report.records_found, 0);
    assert_eq!(report.sectors_replayed, 0);
    assert_eq!(report.tracks_scanned, 1, "empty origin ends the search");
}

#[test]
fn driver_start_performs_recovery_automatically() {
    let (ledger, log, data) = run_workload_and_crash(99, SimDuration::from_millis(80), 200);
    log.power_on();
    for d in &data {
        d.power_on();
    }
    let mut sim = Simulator::new();
    let (drv, boot) =
        TrailDriver::start(&mut sim, log.clone(), data.clone(), TrailConfig::default()).unwrap();
    let report = boot.recovered.expect("dirty disk must trigger recovery");
    assert!(report.write_back_performed);
    verify_ledger(&ledger, &data);
    // The recovered driver is fully operational.
    let done = sim.completion(|_, _| {});
    drv.write(&mut sim, 0, 1, tagged_sector(0xDD), done)
        .unwrap();
    drv.run_until_quiescent(&mut sim);
    assert_eq!(data[0].peek_sector(1)[1], 0xDD);
    drv.shutdown(&mut sim).unwrap();
    // And the epoch bump retired the old records: next boot is clean.
    let mut sim2 = Simulator::new();
    let (_, boot2) = TrailDriver::start(&mut sim2, log, data, TrailConfig::default()).unwrap();
    assert!(boot2.recovered.is_none());
}

#[test]
fn skipping_write_back_is_faster_but_finds_the_same_records() {
    let (_ledger, log, data) = run_workload_and_crash(1234, SimDuration::from_millis(150), 400);
    log.power_on();
    for d in &data {
        d.power_on();
    }
    // Run both variants against clones of the crashed state.
    let mut sim_a = Simulator::new();
    let header = read_header(&mut sim_a, &log).unwrap();
    let with_wb = recover(&mut sim_a, &log, &data, &header, RecoveryOptions::default()).unwrap();
    let mut sim_b = Simulator::new();
    let without_wb = recover(
        &mut sim_b,
        &log,
        &data,
        &header,
        RecoveryOptions { write_back: false },
    )
    .unwrap();
    assert_eq!(with_wb.records_found, without_wb.records_found);
    assert!(with_wb.records_found > 0);
    assert_eq!(without_wb.sectors_replayed, 0);
    assert!(!without_wb.write_back_performed);
    assert!(
        with_wb.total_time() > without_wb.total_time(),
        "write-back must dominate recovery time (Figure 4(b))"
    );
}

#[test]
fn binary_search_scans_logarithmically_many_tracks() {
    // Fill a large share of the log disk, crash, and check the locate
    // stage reads O(lg N) tracks, not O(N).
    let mut sim = Simulator::new();
    let log = Disk::new("log", profiles::tiny_test_disk());
    let data = vec![Disk::new("d", profiles::tiny_test_disk())];
    format_log_disk(&mut sim, &log, FormatOptions::default()).unwrap();
    let (drv, _) =
        TrailDriver::start(&mut sim, log.clone(), data.clone(), TrailConfig::default()).unwrap();
    for i in 0..600u64 {
        let done = sim.completion(|_, _| {});
        drv.write(
            &mut sim,
            0,
            i % 64,
            tagged_sector((i % 200 + 1) as u8),
            done,
        )
        .unwrap();
        drv.run_until_quiescent(&mut sim);
    }
    log.power_cut(sim.now());
    log.power_on();
    let mut sim2 = Simulator::new();
    let header = read_header(&mut sim2, &log).unwrap();
    let report = recover(
        &mut sim2,
        &log,
        &data,
        &header,
        RecoveryOptions { write_back: false },
    )
    .unwrap();
    let n_tracks = header.geometry.total_tracks() - 2;
    let lg = (n_tracks as f64).log2().ceil() as u64;
    assert!(
        report.tracks_scanned <= lg + 2,
        "scanned {} tracks, expected <= lg({n_tracks}) + 2 = {}",
        report.tracks_scanned,
        lg + 2
    );
}

#[test]
fn log_head_bounds_the_backward_scan() {
    // With write-back continuously draining, log_head advances, so only a
    // bounded suffix of records is rebuilt after a crash — not the whole
    // history.
    let mut sim = Simulator::new();
    let log = Disk::new("log", profiles::tiny_test_disk());
    let data = vec![Disk::new("d", profiles::tiny_test_disk())];
    format_log_disk(&mut sim, &log, FormatOptions::default()).unwrap();
    let (drv, _) =
        TrailDriver::start(&mut sim, log.clone(), data.clone(), TrailConfig::default()).unwrap();
    // Sparse writes: each one commits before the next, so log_head stays
    // right behind the tail.
    for i in 0..120u64 {
        let done = sim.completion(|_, _| {});
        drv.write(
            &mut sim,
            0,
            i % 64,
            tagged_sector((i % 200 + 1) as u8),
            done,
        )
        .unwrap();
        drv.run_until_quiescent(&mut sim);
    }
    log.power_cut(sim.now());
    log.power_on();
    let mut sim2 = Simulator::new();
    let header = read_header(&mut sim2, &log).unwrap();
    let report = recover(
        &mut sim2,
        &log,
        &data,
        &header,
        RecoveryOptions { write_back: false },
    )
    .unwrap();
    assert!(
        report.records_found <= 3,
        "expected a log_head-bounded scan, rebuilt {} of 120 records",
        report.records_found
    );
}

#[test]
fn torn_record_is_detected_and_dropped() {
    // Cut power while a record's payload is mid-transfer. The header
    // sector lands first, so without the checksum the torn record would
    // replay garbage; recovery must drop it and fall back to its
    // predecessor.
    let mut found_torn = false;
    for probe_us in (200..4_000).step_by(150) {
        let mut sim = Simulator::new();
        let log = Disk::new("log", profiles::tiny_test_disk());
        let data = vec![Disk::new("d", profiles::tiny_test_disk())];
        format_log_disk(&mut sim, &log, FormatOptions::default()).unwrap();
        let (drv, _) =
            TrailDriver::start(&mut sim, log.clone(), data.clone(), TrailConfig::default())
                .unwrap();
        // One committed write, then a large in-flight record to tear.
        let done = sim.completion(|_, _| {});
        drv.write(&mut sim, 0, 5, tagged_sector(0x11), done)
            .unwrap();
        drv.run_until_quiescent(&mut sim);
        let start = sim.now();
        let done = sim.completion(|_, _| {});
        drv.write(&mut sim, 0, 10, vec![0x22; 20 * SECTOR_SIZE], done)
            .unwrap();
        sim.run_until(start + SimDuration::from_micros(probe_us));
        log.power_cut(sim.now());
        for d in &data {
            d.power_cut(sim.now());
        }
        log.power_on();
        for d in &data {
            d.power_on();
        }
        let mut sim2 = Simulator::new();
        let header = read_header(&mut sim2, &log).unwrap();
        let report = recover(&mut sim2, &log, &data, &header, RecoveryOptions::default()).unwrap();
        if report.torn_records_dropped > 0 {
            found_torn = true;
            // The committed record must still have been recovered.
            assert_eq!(&data[0].peek_sector(5)[..], &tagged_sector(0x11)[..]);
            // And the torn record's blocks must NOT contain half-garbage
            // claiming to be tag 0x22 followed by zeros... the write was
            // never acknowledged, so any pre-crash content is acceptable;
            // what is NOT acceptable is a replay of torn payload, which
            // would show 0x22 in an early sector and 0x00 in a later one
            // of the same request. Verify no partial replay happened:
            let replayed: Vec<bool> = (0..20u64)
                .map(|i| data[0].peek_sector(10 + i)[1] == 0x22)
                .collect();
            assert!(
                replayed.iter().all(|&r| !r),
                "torn record must not be partially replayed: {replayed:?}"
            );
        }
    }
    assert!(
        found_torn,
        "the crash sweep never landed inside a record transfer"
    );
}

/// The disks of a crashed 60-write workload, powered back on.
fn crashed_disks() -> (Disk, Vec<Disk>) {
    let (_, log, data) = run_workload_and_crash(5, SimDuration::from_millis(40), 60);
    log.power_on();
    for d in &data {
        d.power_on();
    }
    (log, data)
}

/// Cuts power to [`crashed_disks`] a second time, `offset` into `boot` (a
/// fresh simulator, so `offset` is also the absolute instant). Returns
/// what `boot` returned and whether it returned only after the cut.
fn boot_under_a_second_cut<T>(
    offset: SimDuration,
    boot: impl FnOnce(&mut Simulator, &Disk, &[Disk]) -> Result<T, TrailError>,
) -> (Result<T, TrailError>, bool) {
    let (log, data) = crashed_disks();
    let mut sim = Simulator::new();
    let (log2, data2) = (log.clone(), data.clone());
    sim.schedule_in(offset, move |sim| {
        log2.power_cut(sim.now());
        for d in &data2 {
            d.power_cut(sim.now());
        }
    });
    let result = boot(&mut sim, &log, &data);
    (result, !log.is_powered())
}

/// The second-cut instants: 0 to 59.5 ms in 1.7 ms steps, which land
/// between commands and inside them alike.
fn second_cut_offsets() -> impl Iterator<Item = SimDuration> {
    (0..36).map(|i| SimDuration::from_micros(i * 1_700))
}

#[test]
fn a_power_cut_during_recovery_is_an_error_never_a_panic() {
    for offset in second_cut_offsets() {
        let (result, cut) = boot_under_a_second_cut(offset, |sim, log, data| {
            let header = read_header(sim, log)?;
            recover(sim, log, data, &header, RecoveryOptions::default())
        });
        assert!(cut, "recovery outlasts a cut at {offset:?}");
        assert!(
            matches!(result, Err(TrailError::Disk(_))),
            "cut at {offset:?}: {result:?}"
        );
    }
}

#[test]
fn a_power_cut_during_the_header_read_is_an_error() {
    // One sector read from a cold start: cut at its first event, in the
    // middle of it, and a nanosecond before it would complete.
    let whole = {
        let mut sim = Simulator::new();
        read_header(&mut sim, &crashed_disks().0).expect("an undisturbed header read");
        sim.now().duration_since(trail_sim::SimTime::ZERO)
    };
    for offset in [
        SimDuration::ZERO,
        whole / 2,
        whole - SimDuration::from_nanos(1),
    ] {
        let (result, cut) = boot_under_a_second_cut(offset, |sim, log, _| read_header(sim, log));
        assert!(cut);
        assert!(
            matches!(result, Err(TrailError::Disk(_))),
            "cut at {offset:?}: {result:?}"
        );
    }
}

#[test]
fn a_power_cut_during_boot_on_a_dirty_log_is_an_error() {
    for offset in second_cut_offsets() {
        let (result, cut) = boot_under_a_second_cut(offset, |sim, log, data| {
            TrailDriver::start(sim, log.clone(), data.to_vec(), TrailConfig::default())
        });
        assert!(cut, "boot-time recovery outlasts a cut at {offset:?}");
        assert!(
            matches!(result, Err(TrailError::Disk(_))),
            "cut at {offset:?}: {:?}",
            result.map(|(_, boot)| boot)
        );
    }
}
