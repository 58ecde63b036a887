//! Multiple log disks (paper §5.1's final optimization): correctness of
//! hash routing and the repositioning-hiding effect. Crash recovery per
//! log is the `multi2` leg of `trail-bench`'s crash campaign.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use rand::Rng;
use trail_core::{format_log_disk, FormatOptions, MultiTrail, TrailConfig};
use trail_disk::{profiles, Disk, SECTOR_SIZE};
use trail_sim::Simulator;

fn boot(n_logs: usize, sim: &mut Simulator) -> (MultiTrail, Vec<Disk>, Vec<Disk>) {
    let logs: Vec<Disk> = (0..n_logs)
        .map(|i| Disk::new(format!("log{i}"), profiles::tiny_test_disk()))
        .collect();
    for l in &logs {
        format_log_disk(sim, l, FormatOptions::default()).unwrap();
    }
    let data: Vec<Disk> = (0..2)
        .map(|i| Disk::new(format!("d{i}"), profiles::tiny_test_disk()))
        .collect();
    let (multi, boots) =
        MultiTrail::start(sim, logs.clone(), data.clone(), TrailConfig::default()).unwrap();
    assert_eq!(boots.len(), n_logs);
    assert!(boots.iter().all(|b| b.recovered.is_none()));
    (multi, logs, data)
}

#[test]
fn writes_spread_across_log_disks_and_land_on_data() {
    let mut sim = Simulator::new();
    let (multi, _, data) = boot(3, &mut sim);
    for i in 0..60u64 {
        let done = sim.completion(|_, _| {});
        multi
            .write(
                &mut sim,
                (i % 2) as usize,
                i,
                vec![(i + 1) as u8; SECTOR_SIZE],
                done,
            )
            .unwrap();
    }
    multi.run_until_quiescent(&mut sim);
    for i in 0..60u64 {
        assert_eq!(
            data[(i % 2) as usize].peek_sector(i)[1],
            (i + 1) as u8,
            "block {i}"
        );
    }
    // Every log disk should have seen a share of the records.
    let records: Vec<u64> = multi
        .drivers()
        .iter()
        .map(|d| d.with_stats(|s| s.log_records))
        .collect();
    assert!(
        records.iter().all(|&r| r > 0),
        "hash routing must use every log disk: {records:?}"
    );
    assert_eq!(
        multi.fold_stats(0u64, |a, s| a + s.log_records),
        records.iter().sum::<u64>()
    );
}

#[test]
fn same_block_always_routes_to_the_same_log() {
    let mut sim = Simulator::new();
    let (multi, _, data) = boot(3, &mut sim);
    // Rapid overwrites of one block: order must be preserved, so the final
    // value always wins.
    for v in 1..=30u8 {
        let done = sim.completion(|_, _| {});
        multi
            .write(&mut sim, 0, 7, vec![v; SECTOR_SIZE], done)
            .unwrap();
    }
    multi.run_until_quiescent(&mut sim);
    assert_eq!(data[0].peek_sector(7)[1], 30);
    // Exactly one driver carries records for this block's overwrites.
    let with_records: usize = multi
        .drivers()
        .iter()
        .filter(|d| d.with_stats(|s| s.log_records) > 0)
        .count();
    assert_eq!(with_records, 1, "one block must stick to one log disk");
}

#[test]
fn reads_route_to_the_pinning_driver() {
    let mut sim = Simulator::new();
    let (multi, _, _) = boot(2, &mut sim);
    let payload = vec![0x5Au8; SECTOR_SIZE];
    let seen = Rc::new(RefCell::new(None));
    {
        let multi2 = multi.clone();
        let seen2 = Rc::clone(&seen);
        let expect = payload.clone();
        let done = sim.completion(move |sim: &mut Simulator, _| {
            // Still pinned: the read must hit the same instance's
            // buffer and see the new data.
            let read_done =
                sim.completion(move |_, d: trail_sim::Delivered<trail_blockio::IoDone>| {
                    let done = d.expect("read delivered");
                    assert_eq!(done.data.as_deref(), Some(&expect[..]));
                    *seen2.borrow_mut() = Some(());
                });
            multi2.read(sim, 0, 33, 1, read_done).unwrap();
        });
        multi.write(&mut sim, 0, 33, payload, done).unwrap();
    }
    multi.run_until_quiescent(&mut sim);
    assert!(seen.borrow().is_some());
    let hits = multi.fold_stats(0u64, |a, s| a + s.read_hits);
    assert_eq!(hits, 1, "the read must be a buffer hit");
}

#[test]
fn two_logs_hide_repositioning_from_clustered_writes() {
    // Clustered one-sector writes to *distinct random blocks*: with one
    // log disk every threshold crossing stalls the stream; with two, the
    // stream keeps flowing through the other disk.
    fn clustered_elapsed(n_logs: usize) -> f64 {
        let mut sim = Simulator::new();
        let logs: Vec<Disk> = (0..n_logs)
            .map(|i| Disk::new(format!("log{i}"), profiles::seagate_st41601n()))
            .collect();
        for l in &logs {
            format_log_disk(&mut sim, l, FormatOptions::default()).unwrap();
        }
        let data = vec![Disk::new("d0", profiles::wd_caviar_10gb())];
        let config = TrailConfig {
            // Make repositioning frequent so the hiding effect is visible.
            reposition_every_write: true,
            ..TrailConfig::default()
        };
        let (multi, _) = MultiTrail::start(&mut sim, logs, data, config).unwrap();
        let start = sim.now();
        let done = Rc::new(Cell::new(0u32));
        let mut rng = trail_sim::rng(5);
        fn next(
            sim: &mut Simulator,
            multi: MultiTrail,
            done: Rc<Cell<u32>>,
            lba: u64,
            remaining: u32,
            seed: u64,
        ) {
            if remaining == 0 {
                return;
            }
            let m2 = multi.clone();
            let d2 = Rc::clone(&done);
            let ack = sim.completion(move |sim: &mut Simulator, _| {
                d2.set(d2.get() + 1);
                let mut rng = trail_sim::rng(seed);
                use rand::Rng as _;
                let nlba = rng.gen_range(0..1_000_000u64);
                let nseed = rng.gen();
                next(sim, m2, d2, nlba, remaining - 1, nseed);
            });
            multi
                .write(sim, 0, lba, vec![1u8; SECTOR_SIZE], ack)
                .unwrap();
        }
        next(
            &mut sim,
            multi.clone(),
            Rc::clone(&done),
            rng.gen_range(0..1_000_000u64),
            120,
            rng.gen(),
        );
        while done.get() < 120 {
            assert!(sim.step(), "writes stalled");
        }
        sim.now().duration_since(start).as_millis_f64()
    }
    let one = clustered_elapsed(1);
    let two = clustered_elapsed(2);
    assert!(
        two < one * 0.85,
        "two log disks should hide repositioning: 1 disk {one:.1} ms, 2 disks {two:.1} ms"
    );
}
