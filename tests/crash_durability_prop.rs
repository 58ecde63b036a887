//! The headline invariant, property-tested across random workloads and
//! crash instants: **every acknowledged synchronous write survives a power
//! failure**, end to end through the full stack.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;
use rand::Rng;
use trail::disk::AckLedger;
use trail::prelude::*;

/// Runs a random workload on tiny disks, crashes at `crash_ms`, recovers,
/// and checks the ledger. Returns an error message on violation.
///
/// With `log_errors` = `(at_ms, k)`, the log disk's next `k` commands after
/// `at_ms` fail transiently first (`log0 err*k`): the records they carried
/// are left out of the chain and logged again.
fn crash_round_trip(
    seed: u64,
    crash_ms: u64,
    n_writes: usize,
    log_errors: Option<(u64, u32)>,
) -> Result<(), String> {
    let mut sim = Simulator::new();
    let log = Disk::new("log", trail::disk::profiles::tiny_test_disk());
    let data: Vec<Disk> = (0..2)
        .map(|i| Disk::new(format!("d{i}"), trail::disk::profiles::tiny_test_disk()))
        .collect();
    format_log_disk(&mut sim, &log, FormatOptions::default()).map_err(|e| e.to_string())?;
    let (trail, _) =
        TrailDriver::start(&mut sim, log.clone(), data.clone(), TrailConfig::default())
            .map_err(|e| e.to_string())?;

    // Extents of 1-8 sectors at any LBA overlap each other partially, so
    // recovery's oldest-first replay of overlapping records is what the
    // ledger's check below exercises.
    let ledger = Rc::new(RefCell::new(AckLedger::default()));
    let mut rng = trail_sim::rng(seed);
    let t0 = sim.now();
    let clock = FaultClock::new();
    clock.register(log.fault_sink(DiskRole::Log(0)));
    if let Some((at_ms, k)) = log_errors {
        let plan: FaultPlan = format!("@{} log0 err*{k}", at_ms * 1_000_000)
            .parse()
            .map_err(|e| format!("{e:?}"))?;
        clock.arm(&mut sim, &plan);
    }
    for _ in 0..n_writes {
        let dev = rng.gen_range(0..2usize);
        let sectors = rng.gen_range(1..=8u64);
        let lba = rng.gen_range(0..=48 - sectors);
        let ledger = Rc::clone(&ledger);
        let trail2 = trail.clone();
        let when = t0 + SimDuration::from_micros(rng.gen_range(0..(n_writes as u64 * 400)));
        sim.schedule_at(when.max(sim.now()), move |sim| {
            let (tag, buf) = ledger.borrow_mut().submit(dev, lba, sectors);
            let done = sim.completion(move |_, del: Delivered<IoDone>| {
                if del.is_ok() {
                    ledger.borrow_mut().ack(tag);
                }
            });
            trail2
                .write(sim, dev, lba, buf, done)
                .expect("write accepted");
        });
    }
    sim.run_until(t0 + SimDuration::from_millis(crash_ms));
    for d in data.iter().chain([&log]) {
        d.power_cut(sim.now());
        d.power_on();
    }
    drop(trail);
    let mut sim2 = Simulator::new();
    // Recovery passes a transient error on rather than retrying it, so the
    // charges the workload left unspent are spent here first.
    let armed = log_errors
        .filter(|_| clock.fired() == 1)
        .map_or(0, |(_, k)| k);
    while log.with_stats(|s| s.injected_errors) < u64::from(armed) {
        let read = DiskCommand::Read { lba: 0, count: 1 };
        let spent = sim2.block_on(|sim, done| log.submit(sim, read, done));
        assert_eq!(
            spent.map_err(|e| e.to_string())?.unwrap_err(),
            IoError::Transient
        );
    }
    let (_trail2, boot) = TrailDriver::start(&mut sim2, log, data.clone(), TrailConfig::default())
        .map_err(|e| e.to_string())?;
    if boot.recovered.is_none() {
        return Err("dirty disk must trigger recovery".into());
    }

    let bad = ledger
        .borrow()
        .check_crashed(|dev, lba| data[dev].peek_sector(lba));
    if bad.is_empty() {
        Ok(())
    } else {
        Err(bad.join("\n"))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn acked_writes_always_survive(
        seed in any::<u64>(),
        crash_ms in 1u64..200,
        n_writes in 20usize..250,
        (errors_ms, errors) in (0u64..200, 0u32..4),
    ) {
        let log_errors = (errors > 0).then_some((errors_ms, errors));
        crash_round_trip(seed, crash_ms, n_writes, log_errors)
            .map_err(TestCaseError::fail)?;
    }
}
