//! End-to-end engine tests over both storage stacks, including the layered
//! crash-recovery story (Trail block recovery + WAL redo).

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use trail_core::{format_log_disk, FormatOptions, TrailConfig, TrailDriver};
use trail_db::{Database, DbConfig, FlushPolicy, Op, StandardStack, TxnResult, TxnSpec};
use trail_disk::{profiles, Disk};
use trail_sim::{Delivered, DurationHistogram, SimDuration, Simulator};

const LOG_DEV: usize = 0;
const TABLE_DEV: usize = 1;
const LOG_REGION_START: u64 = 64;
const LOG_REGION_SECTORS: u64 = 2_000;

fn db_config(policy: FlushPolicy) -> DbConfig {
    DbConfig {
        cache_pages: 64,
        flush_policy: policy,
        log_dev: LOG_DEV,
        log_region_start: LOG_REGION_START,
        log_region_sectors: LOG_REGION_SECTORS,
        flush_write_bytes: 8 * 1024,
        table_devices: vec![TABLE_DEV],
        dirty_high_watermark: 16,
        flush_batch: 8,
        log_before_images: false,
        single_cpu: false,
    }
}

fn standard_setup(policy: FlushPolicy) -> (Simulator, Database, Rc<StandardStack>) {
    let sim = Simulator::new();
    let stack = Rc::new(StandardStack::new(vec![
        Disk::new("logfile", profiles::tiny_test_disk()),
        Disk::new("tables", profiles::tiny_test_disk()),
    ]));
    let db = Database::new(stack.clone(), db_config(policy));
    (sim, db, stack)
}

fn trail_setup(policy: FlushPolicy) -> (Simulator, Database, TrailDriver, Vec<Disk>) {
    let mut sim = Simulator::new();
    let log = Disk::new("trail-log", profiles::tiny_test_disk());
    let data: Vec<Disk> = vec![
        Disk::new("logfile", profiles::tiny_test_disk()),
        Disk::new("tables", profiles::tiny_test_disk()),
    ];
    format_log_disk(&mut sim, &log, FormatOptions::default()).unwrap();
    let (drv, _) =
        TrailDriver::start(&mut sim, log.clone(), data.clone(), TrailConfig::default()).unwrap();
    let db = Database::new(Rc::new(drv.clone()), db_config(policy));
    let mut disks = data;
    disks.push(log);
    (sim, db, drv, disks)
}

fn put_txn(table: u8, key: u64, tag: u8, len: usize) -> TxnSpec {
    TxnSpec {
        cpu: SimDuration::from_micros(100),
        ops: vec![Op::Write(table, key, vec![tag; len])],
    }
}

#[test]
fn commit_is_durable_and_readable_on_standard_stack() {
    let (mut sim, db, _) = standard_setup(FlushPolicy::EveryCommit);
    let durable = Rc::new(Cell::new(false));
    let d = Rc::clone(&durable);
    let ctrl = sim.completion(|_, _| {});
    let dur = sim.completion(move |_, del: Delivered<TxnResult>| {
        let res = del.expect("durable");
        assert!(res.response().as_millis_f64() > 0.0);
        d.set(true);
    });
    db.execute(&mut sim, put_txn(0, 42, 0xAA, 100), ctrl, dur)
        .unwrap();
    db.run_until_quiescent(&mut sim);
    assert!(durable.get());
    assert_eq!(db.peek_row(0, 42), Some(vec![0xAA; 100]));
    assert_eq!(db.wal_stats().flushes, 1);
    assert_eq!(db.with_stats(|s| s.committed), 1);
}

#[test]
fn every_commit_forces_once_per_serial_transaction() {
    let (mut sim, db, _) = standard_setup(FlushPolicy::EveryCommit);
    // Serial closed loop: chain the next txn in the durability callback.
    fn chain(db: Database, sim: &mut Simulator, i: u64, n: u64) {
        if i == n {
            return;
        }
        let db2 = db.clone();
        let ctrl = sim.completion(|_, _| {});
        let dur = sim.completion(move |sim: &mut Simulator, del: Delivered<TxnResult>| {
            if del.is_ok() {
                chain(db2, sim, i + 1, n);
            }
        });
        db.execute(sim, put_txn(0, i, i as u8, 64), ctrl, dur)
            .unwrap();
    }
    chain(db.clone(), &mut sim, 0, 10);
    db.run_until_quiescent(&mut sim);
    assert_eq!(db.with_stats(|s| s.committed), 10);
    assert_eq!(db.wal_stats().flushes, 10, "no group commit: 1 force/txn");
}

#[test]
fn group_commit_batches_forces() {
    let (mut sim, db, _) = standard_setup(FlushPolicy::GroupCommit { buffer_bytes: 2048 });
    // Closed loop on *control* (group commit lets the client continue).
    fn chain(db: Database, sim: &mut Simulator, i: u64, n: u64) {
        if i == n {
            return;
        }
        let db2 = db.clone();
        let ctrl = sim.completion(move |sim: &mut Simulator, del: Delivered<()>| {
            if del.is_ok() {
                chain(db2, sim, i + 1, n);
            }
        });
        let dur = sim.completion(|_, _| {});
        db.execute(sim, put_txn(0, i, i as u8, 100), ctrl, dur)
            .unwrap();
    }
    chain(db.clone(), &mut sim, 0, 30);
    db.run_until_quiescent(&mut sim);
    assert_eq!(db.with_stats(|s| s.committed), 30);
    let flushes = db.wal_stats().flushes;
    assert!(
        flushes < 10,
        "expected aggressive batching, got {flushes} forces for 30 txns"
    );
    assert!(flushes >= 2);
}

#[test]
fn group_commit_delays_durability_but_not_control() {
    let (mut sim, db, _) = standard_setup(FlushPolicy::GroupCommit { buffer_bytes: 8192 });
    let control_at = Rc::new(RefCell::new(Vec::new()));
    let durable_at = Rc::new(RefCell::new(Vec::new()));
    for i in 0..4u64 {
        let c = Rc::clone(&control_at);
        let du = Rc::clone(&durable_at);
        let ctrl = sim.completion(move |sim: &mut Simulator, _: Delivered<()>| {
            c.borrow_mut().push(sim.now());
        });
        let dur = sim.completion(move |sim: &mut Simulator, _: Delivered<TxnResult>| {
            du.borrow_mut().push(sim.now());
        });
        db.execute(&mut sim, put_txn(0, i, 1, 50), ctrl, dur)
            .unwrap();
    }
    db.run_until_quiescent(&mut sim);
    assert_eq!(control_at.borrow().len(), 4);
    assert_eq!(durable_at.borrow().len(), 4);
    // Control returns before the (single, final) force makes them durable.
    let last_control = *control_at.borrow().iter().max().unwrap();
    let first_durable = *durable_at.borrow().iter().min().unwrap();
    assert!(last_control < first_durable);
    assert_eq!(db.wal_stats().flushes, 1, "all four fit one group");
}

#[test]
fn cache_misses_suspend_and_resume_transactions() {
    let (mut sim, db, _) = standard_setup(FlushPolicy::EveryCommit);
    // Load 2000 rows of 256 bytes: ~143 pages, far beyond the 64-page
    // cache.
    let images = db.load(0, (0..2000u64).map(|k| (k, vec![(k % 251) as u8; 256])));
    assert!(images.len() > 100);
    // Place the images on the table device.
    let stack = StandardStack::new(vec![
        Disk::new("x", profiles::tiny_test_disk()),
        Disk::new("y", profiles::tiny_test_disk()),
    ]);
    let _ = stack; // images are placed below via the db's own stack
                   // (Re-create: the standard_setup stack is private, so run reads that
                   // miss; the disk holds zeros, but the index points at real pages —
                   // what we check here is the suspension machinery, not byte equality.)
    let done = Rc::new(Cell::new(0u32));
    for k in (0..2000u64).step_by(23) {
        let done = Rc::clone(&done);
        let ctrl = sim.completion(|_, _| {});
        let dur = sim.completion(move |_, _: Delivered<TxnResult>| done.set(done.get() + 1));
        db.execute(
            &mut sim,
            TxnSpec {
                cpu: SimDuration::from_micros(50),
                ops: vec![Op::Read(0, k), Op::Write(0, k, vec![9u8; 256])],
            },
            ctrl,
            dur,
        )
        .unwrap();
    }
    db.run_until_quiescent(&mut sim);
    assert_eq!(done.get(), 87);
    assert!(
        db.with_stats(|s| s.page_reads) > 0,
        "spread reads must miss the cache"
    );
    let cs = db.cache_stats();
    assert!(cs.misses > 0 && cs.evictions > 0);
}

#[test]
fn growing_update_moves_the_row() {
    let (mut sim, db, _) = standard_setup(FlushPolicy::EveryCommit);
    let ctrl = sim.completion(|_, _| {});
    let dur = sim.completion(|_, _| {});
    db.execute(&mut sim, put_txn(0, 5, 0x11, 16), ctrl, dur)
        .unwrap();
    db.run_until_quiescent(&mut sim);
    let ctrl = sim.completion(|_, _| {});
    let dur = sim.completion(|_, _| {});
    db.execute(&mut sim, put_txn(0, 5, 0x22, 400), ctrl, dur)
        .unwrap();
    db.run_until_quiescent(&mut sim);
    assert_eq!(db.peek_row(0, 5), Some(vec![0x22; 400]));
}

#[test]
fn delete_removes_the_row() {
    let (mut sim, db, _) = standard_setup(FlushPolicy::EveryCommit);
    let ctrl = sim.completion(|_, _| {});
    let dur = sim.completion(|_, _| {});
    db.execute(&mut sim, put_txn(0, 5, 0x11, 16), ctrl, dur)
        .unwrap();
    db.run_until_quiescent(&mut sim);
    let ctrl = sim.completion(|_, _| {});
    let dur = sim.completion(|_, _| {});
    db.execute(
        &mut sim,
        TxnSpec {
            cpu: SimDuration::ZERO,
            ops: vec![Op::Delete(0, 5)],
        },
        ctrl,
        dur,
    )
    .unwrap();
    db.run_until_quiescent(&mut sim);
    assert_eq!(db.peek_row(0, 5), None);
    assert_eq!(db.row_count(), 0);
}

#[test]
fn trail_stack_commits_much_faster_than_standard() {
    // The miniature Table 2: same serial workload, response time on Trail
    // must be a small fraction of the baseline's.
    fn run(mk: &dyn Fn() -> (Simulator, Database)) -> f64 {
        let (mut sim, db) = mk();
        type Responses = Rc<RefCell<DurationHistogram>>;
        fn chain(db: Database, sim: &mut Simulator, out: Responses, i: u64, n: u64) {
            if i == n {
                return;
            }
            let db2 = db.clone();
            let ctrl = sim.completion(|_, _| {});
            let dur = sim.completion(move |sim: &mut Simulator, del: Delivered<TxnResult>| {
                if let Ok(res) = del {
                    out.borrow_mut().record(res.response());
                    chain(db2, sim, out, i + 1, n);
                }
            });
            db.execute(sim, put_txn(0, i % 40, i as u8, 200), ctrl, dur)
                .unwrap();
        }
        let responses = Responses::default();
        chain(db.clone(), &mut sim, Rc::clone(&responses), 0, 40);
        db.run_until_quiescent(&mut sim);
        assert_eq!(responses.borrow().count(), 40);
        let mean = responses.borrow().mean().as_millis_f64();
        mean
    }
    let standard = run(&|| {
        let (sim, db, _) = standard_setup(FlushPolicy::EveryCommit);
        (sim, db)
    });
    let trail = run(&|| {
        let (sim, db, _drv, _disks) = trail_setup(FlushPolicy::EveryCommit);
        (sim, db)
    });
    assert!(
        trail < standard * 0.6,
        "Trail response {trail} ms vs standard {standard} ms"
    );
}

#[test]
fn full_stack_crash_recovers_committed_transactions() {
    // Run on Trail, crash everything mid-run, recover the block layer,
    // then redo the WAL: every durable transaction must be visible.
    let (mut sim, db, drv, disks) = trail_setup(FlushPolicy::EveryCommit);
    let durable: Rc<RefCell<HashMap<u64, u8>>> = Rc::new(RefCell::new(HashMap::new()));
    let t0 = sim.now();
    for i in 0..60u64 {
        let durable = Rc::clone(&durable);
        let db2 = db.clone();
        sim.schedule_at(t0 + SimDuration::from_millis(i), move |sim| {
            let durable = Rc::clone(&durable);
            let ctrl = sim.completion(|_, _| {});
            let dur = sim.completion(move |_, del: Delivered<TxnResult>| {
                if del.is_ok() {
                    durable.borrow_mut().insert(i, (i % 250) as u8 + 1);
                }
            });
            db2.execute(sim, put_txn(0, i, (i % 250) as u8 + 1, 120), ctrl, dur)
                .unwrap();
        });
    }
    sim.run_until(t0 + SimDuration::from_millis(31));
    for d in &disks {
        d.power_cut(sim.now());
    }
    let durable = durable.borrow().clone();
    assert!(!durable.is_empty(), "some txns must be durable pre-crash");
    assert!(durable.len() < 60, "crash must interrupt the run");
    drop(db);
    drop(drv);

    // Power back on; Trail recovery runs inside TrailDriver::start.
    for d in &disks {
        d.power_on();
    }
    let mut sim2 = Simulator::new();
    let trail_log = disks[2].clone();
    let data = vec![disks[0].clone(), disks[1].clone()];
    let (drv2, boot) =
        TrailDriver::start(&mut sim2, trail_log, data, TrailConfig::default()).unwrap();
    assert!(boot.recovered.is_some(), "dirty Trail disk must recover");
    let stack = drv2;
    // WAL redo on top, with the structured report.
    let (image, report) = trail_db::recover_committed(
        &mut sim2,
        &stack,
        LOG_DEV,
        LOG_REGION_START,
        LOG_REGION_SECTORS,
    )
    .unwrap();
    assert!(report.chunks_scanned > 0, "redo must have scanned the log");
    assert!(report.committed_txns >= durable.len());
    assert_eq!(report.rows_applied, image.len());
    assert!(report.scan_time > SimDuration::ZERO, "scan I/O is timed");
    for (&key, &tag) in &durable {
        let got = image
            .get(&(0u8, key))
            .unwrap_or_else(|| panic!("durable txn for key {key} missing after recovery"));
        assert_eq!(
            got.as_deref(),
            Some(&vec![tag; 120][..]),
            "row {key} has wrong contents"
        );
    }
}

#[test]
fn load_and_warm_populate_without_timing() {
    let (mut sim, db, _) = standard_setup(FlushPolicy::EveryCommit);
    let images = db.load(3, (0..100u64).map(|k| (k, vec![k as u8; 64])));
    assert!(db.row_count() == 100);
    for (pid, bytes) in &images {
        db.warm(*pid, bytes);
    }
    // Warm pages mean the reads are all hits.
    let done = Rc::new(Cell::new(false));
    let d2 = Rc::clone(&done);
    let ctrl = sim.completion(|_, _| {});
    let dur = sim.completion(move |_, _: Delivered<TxnResult>| d2.set(true));
    db.execute(
        &mut sim,
        TxnSpec {
            cpu: SimDuration::ZERO,
            ops: (0..100u64)
                .map(|k| Op::Read(3, k))
                .collect::<Vec<_>>()
                .into_iter()
                .chain([Op::Write(3, 0, vec![1u8; 8])])
                .collect(),
        },
        ctrl,
        dur,
    )
    .unwrap();
    db.run_until_quiescent(&mut sim);
    assert!(done.get());
    assert_eq!(db.with_stats(|s| s.page_reads), 0, "all reads warmed");
}
