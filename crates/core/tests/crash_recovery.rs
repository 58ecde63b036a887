//! Crash-recovery correctness: every acknowledged synchronous write
//! survives a power failure at an arbitrary instant.

use std::cell::RefCell;
use std::rc::Rc;

use rand::Rng;
use trail_core::format::{RecordHeader, NO_PREV_SECT};
use trail_core::{
    format_log_disk, read_header, recover, FormatOptions, RecoveryOptions, RecoveryReport,
    TrailConfig, TrailDriver, TrailError,
};
use trail_disk::{crash::tag_of, cut_instants, profiles, AckLedger, Disk, SECTOR_SIZE};
use trail_sim::{Delivered, IoError, SimDuration, SimTime, Simulator};

/// A fresh Trail driver over a formatted tiny log disk and `n` tiny data
/// disks.
fn boot(n: usize) -> (Simulator, TrailDriver, Disk, Vec<Disk>) {
    let mut sim = Simulator::new();
    let log = Disk::new("log", profiles::tiny_test_disk());
    let data: Vec<Disk> = (0..n)
        .map(|i| Disk::new(format!("d{i}"), profiles::tiny_test_disk()))
        .collect();
    format_log_disk(&mut sim, &log, FormatOptions::default()).unwrap();
    let (drv, _) =
        TrailDriver::start(&mut sim, log.clone(), data.clone(), TrailConfig::default()).unwrap();
    (sim, drv, log, data)
}

/// A random single-sector write workload on a fresh Trail driver over two
/// tiny data disks, recorded in `ledger`; `acks` collects the ack instants.
struct Workload {
    sim: Simulator,
    log: Disk,
    data: Vec<Disk>,
    ledger: Rc<RefCell<AckLedger>>,
    acks: Rc<RefCell<Vec<SimTime>>>,
    t0: SimTime,
}

/// Schedules `n_writes` bursty writes of the `seed` workload. A probe run
/// also logs every disk's sector landings.
fn workload(seed: u64, n_writes: usize, probe: bool) -> Workload {
    let (mut sim, drv, log, data) = boot(2);
    if probe {
        for d in data.iter().chain([&log]) {
            d.log_landings();
        }
    }
    let ledger = Rc::new(RefCell::new(AckLedger::default()));
    let acks = Rc::new(RefCell::new(Vec::new()));
    let mut rng = trail_sim::rng(seed);
    let t0 = sim.now();
    for i in 0..n_writes {
        let dev = rng.gen_range(0..2usize);
        let lba = rng.gen_range(0..64u64);
        // Bursty arrivals: multiple writes per millisecond.
        let delay = SimDuration::from_micros(rng.gen_range(0..2_000));
        let when = t0 + SimDuration::from_millis(i as u64 / 3) + delay;
        let (drv, ledger, acks) = (drv.clone(), Rc::clone(&ledger), Rc::clone(&acks));
        sim.schedule_at(when, move |sim| {
            let (tag, sector) = ledger.borrow_mut().submit(dev, lba, 1);
            // A crash fails in-flight writes; only a real delivery counts
            // as an acknowledgement.
            let done = sim.completion(move |sim: &mut Simulator, d: Delivered<_>| {
                if d.is_ok() {
                    ledger.borrow_mut().ack(tag);
                    acks.borrow_mut().push(sim.now());
                }
            });
            drv.write(sim, dev, lba, sector, done).unwrap();
        });
    }
    Workload {
        sim,
        log,
        data,
        ledger,
        acks,
        t0,
    }
}

/// Cuts power to every disk at `now`, one instant for all, and restores
/// it: the media hold what had landed by then.
fn power_cycle(now: SimTime, log: &Disk, data: &[Disk]) {
    for d in data.iter().chain([log]) {
        d.power_cut(now);
        d.power_on();
    }
}

/// Runs the `seed` workload, cuts power to every disk `crash_delay` into
/// it and restores it. Returns the ledger and the devices.
fn run_workload_and_crash(
    seed: u64,
    crash_delay: SimDuration,
    n_writes: usize,
) -> (Rc<RefCell<AckLedger>>, Disk, Vec<Disk>) {
    let mut w = workload(seed, n_writes, false);
    w.sim.run_until(w.t0 + crash_delay);
    power_cycle(w.sim.now(), &w.log, &w.data);
    (w.ledger, w.log, w.data)
}

/// Recovers the crashed disks; every sector must then hold its newest
/// acknowledged write or one submitted after it.
fn recover_and_verify(ledger: &RefCell<AckLedger>, log: &Disk, data: &[Disk]) -> u64 {
    let mut sim = Simulator::new();
    let header = read_header(&mut sim, log).unwrap();
    assert!(!header.clean, "crash must leave the dirty flag set");
    let report = recover(&mut sim, log, data, &header, RecoveryOptions::default()).unwrap();
    assert!(report.write_back_performed);
    let bad = ledger
        .borrow()
        .check_crashed(|dev, lba| data[dev].peek_sector(lba));
    assert!(bad.is_empty(), "{}", bad.join("\n"));
    report.torn_records_dropped
}

#[test]
fn acked_writes_survive_a_crash_mid_workload() {
    let (ledger, log, data) = run_workload_and_crash(42, SimDuration::from_millis(120), 300);
    assert!(
        ledger.borrow().acked() > 0,
        "workload must have acknowledged writes before the crash"
    );
    recover_and_verify(&ledger, &log, &data);
}

#[test]
fn crash_at_many_instants_never_loses_acked_data() {
    // Every enumerated cut of a 40-write workload: each sector landing,
    // torn records and torn write-backs included, and each ack ±1 ns.
    const SEED: u64 = 7;
    const WRITES: usize = 40;
    let mut probe = workload(SEED, WRITES, true);
    probe.sim.run();
    assert_eq!(probe.ledger.borrow().acked(), WRITES);
    let landings: Vec<SimTime> = probe
        .data
        .iter()
        .chain([&probe.log])
        .flat_map(Disk::landings)
        .flatten()
        .collect();
    let cuts = cut_instants(&landings, &probe.acks.borrow());
    let mut torn = 0;
    for &cut in &cuts {
        let (ledger, log, data) = run_workload_and_crash(SEED, cut - probe.t0, WRITES);
        torn += recover_and_verify(&ledger, &log, &data);
    }
    assert!(torn > 0, "none of {} cuts tore a record", cuts.len());
}

/// Writes `writes` single sectors one at a time, each committed before the
/// next, cuts the log disk and recovers with `options`. Returns the log's
/// track count and the report.
fn recover_after_sequential_writes(writes: u64, options: RecoveryOptions) -> (u64, RecoveryReport) {
    let (mut sim, drv, log, data) = boot(1);
    for i in 0..writes {
        let done = sim.completion(|_, _| {});
        let sector = vec![(i % 200 + 1) as u8; SECTOR_SIZE];
        drv.write(&mut sim, 0, i % 64, sector, done).unwrap();
        drv.run_until_quiescent(&mut sim);
    }
    log.power_cut(sim.now());
    log.power_on();
    let mut sim2 = Simulator::new();
    let header = read_header(&mut sim2, &log).unwrap();
    let report = recover(&mut sim2, &log, &data, &header, options).unwrap();
    (header.geometry.total_tracks(), report)
}

#[test]
fn recovery_with_no_records_is_empty() {
    // Boot marks the disk dirty, then "crash" before any write.
    let (_, report) = recover_after_sequential_writes(0, RecoveryOptions::default());
    assert_eq!(report.records_found, 0);
    assert_eq!(report.sectors_replayed, 0);
    assert_eq!(report.tracks_scanned, 1, "empty origin ends the search");
}

#[test]
fn driver_start_performs_recovery_automatically() {
    let (ledger, log, data) = run_workload_and_crash(99, SimDuration::from_millis(80), 200);
    let mut sim = Simulator::new();
    let (drv, boot) =
        TrailDriver::start(&mut sim, log.clone(), data.clone(), TrailConfig::default()).unwrap();
    let report = boot.recovered.expect("dirty disk must trigger recovery");
    assert!(report.write_back_performed);
    let bad = ledger
        .borrow()
        .check_crashed(|dev, lba| data[dev].peek_sector(lba));
    assert!(bad.is_empty(), "{}", bad.join("\n"));
    // The recovered driver is fully operational.
    let done = sim.completion(|_, _| {});
    drv.write(&mut sim, 0, 1, vec![0xDD; SECTOR_SIZE], done)
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
    let (tracks, report) =
        recover_after_sequential_writes(600, RecoveryOptions { write_back: false });
    let n_tracks = tracks - 2;
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
    // Sparse writes: each one commits before the next, so log_head stays
    // right behind the tail.
    let (_, report) = recover_after_sequential_writes(120, RecoveryOptions { write_back: false });
    assert!(
        report.records_found <= 3,
        "expected a log_head-bounded scan, rebuilt {} of 120 records",
        report.records_found
    );
}

/// One committed write, then a 20-sector write in flight: the simulator,
/// the ledger and the disks, and the big write's tag. A probe run logs
/// the log disk's landings from the big write on.
fn torn_record_setup(probe: bool) -> (Simulator, RefCell<AckLedger>, Disk, Vec<Disk>, u32) {
    let (mut sim, drv, log, data) = boot(1);
    let ledger = RefCell::new(AckLedger::default());
    let (small, sector) = ledger.borrow_mut().submit(0, 5, 1);
    let done = sim.completion(|_, _| {});
    drv.write(&mut sim, 0, 5, sector, done).unwrap();
    drv.run_until_quiescent(&mut sim);
    ledger.borrow_mut().ack(small);
    if probe {
        log.log_landings();
    }
    let (big, payload) = ledger.borrow_mut().submit(0, 10, 20);
    let done = sim.completion(|_, _| {});
    drv.write(&mut sim, 0, 10, payload, done).unwrap();
    (sim, ledger, log, data, big)
}

#[test]
fn torn_record_is_detected_and_dropped() {
    // Cut power at each landing of a 20-sector record. The header sector
    // lands first, so without the checksum a torn record would replay
    // garbage; recovery must drop it and fall back to its predecessor.
    let (mut sim, _, log, _, _) = torn_record_setup(true);
    sim.run();
    let record = log
        .landings()
        .into_iter()
        .find(|cmd| cmd.len() > 20)
        .expect("the 20-sector write's record");
    let mut found_torn = false;
    for cut in record {
        let (mut sim, ledger, log, data, big) = torn_record_setup(false);
        sim.run_until(cut);
        power_cycle(sim.now(), &log, &data);
        if recover_and_verify(&ledger, &log, &data) > 0 {
            found_torn = true;
            // The write was never acknowledged, so either image of its
            // blocks is legal per sector; what is not is a partial replay
            // of the torn payload.
            let replayed: Vec<bool> = (10..30u64)
                .map(|lba| tag_of(&data[0].peek_sector(lba), lba) == Some(big))
                .collect();
            assert!(
                replayed.iter().all(|&r| !r),
                "torn record must not be partially replayed: {replayed:?}"
            );
        }
    }
    assert!(found_torn, "no landing of the record tore it");
}

/// The disks of a crashed 60-write workload, powered back on.
fn crashed_disks() -> (Disk, Vec<Disk>) {
    let (_, log, data) = run_workload_and_crash(5, SimDuration::from_millis(40), 60);
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
            matches!(result, Err(TrailError::Io(IoError::PoweredOff))),
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
            matches!(result, Err(TrailError::Io(IoError::PoweredOff))),
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
            matches!(result, Err(TrailError::Io(IoError::PoweredOff))),
            "cut at {offset:?}: {:?}",
            result.map(|(_, boot)| boot)
        );
    }
}

/// Every current-epoch record header on `log`: (LBA, header), in LBA
/// order.
fn record_headers(log: &Disk, epoch: u64) -> Vec<(u64, RecordHeader)> {
    (0..log.geometry().total_sectors())
        .filter_map(|lba| {
            let rec = RecordHeader::decode(&log.peek_sector(lba)).ok()??;
            (rec.epoch == epoch).then_some((lba, rec))
        })
        .collect()
}

#[test]
fn a_predecessor_past_the_disk_end_is_dangling() {
    // Two committed records; the younger is rewritten to point past the
    // disk's last sector, with a log_head bound that asks for its
    // predecessor. The chain ends at it, as at any dangling pointer.
    let (mut sim, drv, log, data) = boot(1);
    for lba in [3, 40] {
        let done = sim.completion(|_, _| {});
        drv.write(&mut sim, 0, lba, vec![7; SECTOR_SIZE], done)
            .unwrap();
        drv.run_until_quiescent(&mut sim);
    }
    let (lba, mut rec) = record_headers(&log, drv.epoch())
        .into_iter()
        .max_by_key(|(_, rec)| rec.sequence_id)
        .expect("the younger record");
    let capacity = log.geometry().total_sectors() as u32;
    for prev in [capacity, capacity + 1, NO_PREV_SECT - 1] {
        rec.prev_sect = Some(prev);
        rec.log_head_seq = 0;
        log.poke_sector(lba, &rec.encode().unwrap());
        let mut sim = Simulator::new();
        let header = read_header(&mut sim, &log).unwrap();
        let report = recover(&mut sim, &log, &data, &header, RecoveryOptions::default())
            .unwrap_or_else(|e| panic!("prev_sect {prev}: {e:?}"));
        assert_eq!(report.records_found, 1, "prev_sect {prev}");
    }
}

#[test]
fn stage_two_reads_each_record_at_most_once() {
    // One-sector writes 2 ms apart to far-apart sectors: each is its own
    // record, and the data disk's write-backs fall behind, so every
    // record is still active when the power goes after the last ack.
    const WRITES: u64 = 24;
    let (mut sim, drv, log, data) = boot(1);
    let acks = Rc::new(RefCell::new(0u64));
    let t0 = sim.now();
    for i in 0..WRITES {
        let (drv, acks) = (drv.clone(), Rc::clone(&acks));
        sim.schedule_at(t0 + SimDuration::from_millis(2 * i), move |sim| {
            let done = sim.completion(move |_, d: Delivered<_>| {
                *acks.borrow_mut() += u64::from(d.is_ok());
            });
            let sector = vec![i as u8 + 1; SECTOR_SIZE];
            drv.write(sim, 0, i * 181 % 4_000, sector, done).unwrap();
        });
    }
    while *acks.borrow() < WRITES {
        assert!(sim.step(), "every write is acknowledged");
    }
    power_cycle(sim.now(), &log, &data);

    // The tracks stage 1 reads whole: the origin, then the binary
    // search's probes, each judged by its newest current-epoch record.
    let g = log.geometry();
    let headers = record_headers(&log, drv.epoch());
    let newest = |track: u64| {
        let first = g.track_first_lba(track);
        let on_track = first..first + u64::from(g.spt_of_track(track));
        headers
            .iter()
            .filter(|(lba, _)| on_track.contains(lba))
            .map(|(_, rec)| rec.sequence_id)
            .max()
    };
    let mut kept = vec![1];
    let base = newest(1).expect("records at the origin");
    let (mut lo, mut hi) = (0, g.total_tracks() - 3);
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        kept.push(1 + mid);
        match newest(1 + mid) {
            Some(seq) if seq >= base => lo = mid,
            _ => hi = mid - 1,
        }
    }

    let mut sim = Simulator::new();
    let header = read_header(&mut sim, &log).unwrap();
    let before = log.with_stats(|s| s.reads);
    let report = recover(&mut sim, &log, &data, &header, RecoveryOptions::default()).unwrap();
    let reads = log.with_stats(|s| s.reads) - before;
    assert_eq!(report.torn_records_dropped, 0);
    assert!(report.records_found >= 3, "{report:?}");
    assert_eq!(report.tracks_scanned, kept.len() as u64);
    // The chain is the records_found youngest records.
    let mut chain: Vec<&(u64, RecordHeader)> = headers.iter().collect();
    chain.sort_by_key(|(_, rec)| std::cmp::Reverse(rec.sequence_id));
    chain.truncate(report.records_found);
    let off_kept = chain
        .iter()
        .filter(|(lba, _)| !kept.contains(&g.track_of_lba(*lba).unwrap()))
        .count() as u64;
    assert!(
        kept.contains(&g.track_of_lba(chain[0].0).unwrap()),
        "the youngest record lies on a kept track"
    );
    assert!(off_kept > 0, "some record must cost a read: {kept:?}");
    assert!(reads < report.tracks_scanned + report.records_found as u64);
    assert_eq!(reads, report.tracks_scanned + off_kept, "{report:?}");
}
