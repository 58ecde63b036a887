//! RAID-1 under Trail, property-tested across random workloads and crash
//! instants: after a power cut and log-replay recovery, the two mirror
//! members are **byte-identical** and every acknowledged write is on
//! both of them. Recovery replays the un-checkpointed log tail through
//! the volume, so even a write-back that reached only one mirror before
//! the cut converges.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;
use rand::Rng;
use trail::blockio::SharedBlockDevice;
use trail::disk::AckLedger;
use trail::prelude::*;

fn mirror_target(disks: &[Disk]) -> (RaidVolume, SharedBlockDevice) {
    let members: Vec<StandardDriver> = disks
        .iter()
        .map(|d| StandardDriver::new(d.clone()))
        .collect();
    let vol = RaidVolume::new(
        "mirror",
        VolumeLayout::Raid1 {
            read_policy: ReadPolicy::RoundRobin,
        },
        members,
    );
    let target = Rc::new(vol.clone()) as SharedBlockDevice;
    (vol, target)
}

fn mirror_crash_round_trip(seed: u64, crash_ms: u64, n_writes: usize) -> Result<(), String> {
    let mut sim = Simulator::new();
    let log = Disk::new("log", trail::disk::profiles::tiny_test_disk());
    let members: Vec<Disk> = (0..2)
        .map(|i| Disk::new(format!("m{i}"), trail::disk::profiles::tiny_test_disk()))
        .collect();
    format_log_disk(&mut sim, &log, FormatOptions::default()).map_err(|e| e.to_string())?;
    let (vol, target) = mirror_target(&members);
    let (trail, _) = TrailDriver::start_with_targets(
        &mut sim,
        log.clone(),
        vec![target],
        TrailConfig::default(),
    )
    .map_err(|e| e.to_string())?;

    let ledger = Rc::new(RefCell::new(AckLedger::default()));
    let mut rng = trail_sim::rng(seed);
    let t0 = sim.now();
    for _ in 0..n_writes {
        let lba = rng.gen_range(0..48u64);
        let ledger = Rc::clone(&ledger);
        let trail2 = trail.clone();
        let when = t0 + SimDuration::from_micros(rng.gen_range(0..(n_writes as u64 * 400)));
        sim.schedule_at(when.max(sim.now()), move |sim| {
            let (tag, buf) = ledger.borrow_mut().submit(0, lba, 1);
            let done = sim.completion(move |_, del: Delivered<IoDone>| {
                if del.is_ok() {
                    ledger.borrow_mut().ack(tag);
                }
            });
            trail2
                .write(sim, 0, lba, buf, done)
                .expect("write accepted");
        });
    }
    sim.run_until(t0 + SimDuration::from_millis(crash_ms));
    for d in members.iter().chain([&log]) {
        d.power_cut(sim.now());
        d.power_on();
    }
    drop(trail);
    drop(vol);
    let mut sim2 = Simulator::new();
    let (vol2, target2) = mirror_target(&members);
    let (_trail2, boot) =
        TrailDriver::start_with_targets(&mut sim2, log, vec![target2], TrailConfig::default())
            .map_err(|e| e.to_string())?;
    if boot.recovered.is_none() {
        return Err("dirty disk must trigger recovery".into());
    }

    // Every acknowledged write (or a later one to the same block) must
    // be present — checked on each mirror independently.
    for (m, disk) in members.iter().enumerate() {
        let bad = ledger
            .borrow()
            .check_crashed(|_, lba| disk.peek_sector(lba));
        if !bad.is_empty() {
            return Err(format!("mirror {m}: {}", bad.join("\n")));
        }
    }

    // And the mirrors must agree byte for byte across the whole volume.
    for lba in 0..vol2.capacity_sectors() {
        if members[0].peek_sector(lba)[..] != members[1].peek_sector(lba)[..] {
            return Err(format!("mirrors diverge at lba {lba} after recovery"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn raid1_mirrors_identical_after_crash_recovery(
        seed in any::<u64>(),
        crash_ms in 1u64..200,
        n_writes in 20usize..180,
    ) {
        mirror_crash_round_trip(seed, crash_ms, n_writes)
            .map_err(TestCaseError::fail)?;
    }
}
