//! Pinned memory against a model. Random overlapping extents of 1–16
//! sectors at unaligned LBAs in a 64-sector window on two data disks, with
//! reads at random instants between them. Every read returns, per sector,
//! the newest write acknowledged before it was submitted or one
//! acknowledged while it was in flight; after quiescence each sector holds
//! the write acknowledged there last. `trail_disk::AckLedger` is the
//! model.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;
use trail_blockio::IoDone;
use trail_core::{format_log_disk, FormatOptions, TrailConfig, TrailDriver};
use trail_disk::{profiles, AckLedger, Disk};
use trail_sim::{Delivered, SimDuration, Simulator};

const DEVICES: usize = 2;
const WINDOW: u64 = 64;
/// The window's first sector. The tiny disk has 80 sectors per cylinder and
/// C-LOOK orders its queue by cylinder, so a window that straddles sector 80
/// lets the data disk reorder write-backs the driver issues together.
const BASE: u64 = 48;
const MAX_SECTORS: u64 = 16;

/// One request of the workload: when, where, and whether it reads.
#[derive(Clone, Copy, Debug)]
struct Op {
    at_us: u64,
    dev: usize,
    lba: u64,
    sectors: u64,
    read: bool,
}

fn op() -> impl Strategy<Value = Op> {
    (0u64..30_000, 0..DEVICES, 0..WINDOW, 1..=MAX_SECTORS, 0u8..3).prop_map(
        |(at_us, dev, lba, sectors, kind)| Op {
            at_us,
            dev,
            lba: BASE + lba % (WINDOW - sectors + 1),
            sectors,
            read: kind == 0,
        },
    )
}

/// The ledger of acknowledged writes, and what the reads found.
struct Model {
    ledger: AckLedger,
    reads_checked: usize,
    violations: Vec<String>,
}

fn submit(sim: &mut Simulator, drv: &TrailDriver, model: &Rc<RefCell<Model>>, op: Op) {
    let Op {
        dev, lba, sectors, ..
    } = op;
    let model = Rc::clone(model);
    if !op.read {
        let (tag, data) = model.borrow_mut().ledger.submit(dev, lba, sectors);
        let done = sim.completion(move |_, d: Delivered<IoDone>| {
            d.expect("durable");
            model.borrow_mut().ledger.ack(tag);
        });
        drv.write(sim, dev, lba, data, done).expect("accepted");
        return;
    }
    // The newest write each sector had acknowledged at submission, or any
    // acknowledged after, is a legal answer.
    let horizon = model.borrow().ledger.horizon(dev, lba, sectors);
    let done = sim.completion(move |_, d: Delivered<IoDone>| {
        let data = d.expect("read delivered").data.expect("read data");
        let mut m = model.borrow_mut();
        m.reads_checked += 1;
        let bad = m.ledger.check_read(dev, lba, &data, &horizon);
        m.violations.extend(bad);
    });
    drv.read(sim, dev, lba, sectors as u32, done)
        .expect("accepted");
}

fn run(ops: &[Op]) -> Result<(), TestCaseError> {
    let mut sim = Simulator::new();
    let log = Disk::new("log", profiles::tiny_test_disk());
    let data: Vec<Disk> = (0..DEVICES)
        .map(|i| Disk::new(format!("data{i}"), profiles::tiny_test_disk()))
        .collect();
    format_log_disk(&mut sim, &log, FormatOptions::default()).expect("format");
    let (drv, _) =
        TrailDriver::start(&mut sim, log, data.clone(), TrailConfig::default()).expect("boot");
    let model = Rc::new(RefCell::new(Model {
        ledger: AckLedger::default(),
        reads_checked: 0,
        violations: Vec::new(),
    }));
    let t0 = sim.now();
    for &op in ops {
        let (drv, model) = (drv.clone(), Rc::clone(&model));
        sim.schedule_at(t0 + SimDuration::from_micros(op.at_us), move |sim| {
            submit(sim, &drv, &model, op);
        });
    }
    sim.run();
    prop_assert_eq!(drv.pinned_blocks(), 0);

    let m = model.borrow();
    prop_assert!(m.violations.is_empty(), "{}", m.violations.join("\n"));
    prop_assert_eq!(m.reads_checked, ops.iter().filter(|op| op.read).count());
    // Every sector of the window: a written one holds the write acknowledged
    // there last, an unwritten one stays zero.
    let platter: Vec<String> = data
        .iter()
        .enumerate()
        .flat_map(|(dev, disk)| {
            let bytes: Vec<u8> = (BASE..BASE + WINDOW)
                .flat_map(|s| disk.peek_sector(s))
                .collect();
            m.ledger
                .check_read(dev, BASE, &bytes, &m.ledger.horizon(dev, BASE, WINDOW))
        })
        .collect();
    prop_assert!(
        platter.is_empty(),
        "after quiescence:\n{}",
        platter.join("\n")
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn reads_and_the_platter_follow_acknowledgement_order(
        ops in proptest::collection::vec(op(), 10..120),
    ) {
        run(&ops)?;
    }
}
