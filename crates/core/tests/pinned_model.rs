//! Pinned memory against a model. Random overlapping extents of 1–16
//! sectors at unaligned LBAs in a 64-sector window on two data disks, with
//! reads at random instants between them. Every read returns, per sector,
//! the newest write acknowledged before it was submitted or one
//! acknowledged while it was in flight; after quiescence each sector holds
//! the write acknowledged there last. `trail_disk::AckLedger` is the
//! model. It holds for one Trail driver, and for a two-log array whose
//! window straddles a region boundary that the two logs own either side
//! of, so extents split across logs and overlap extents that do not.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;
use trail_blockio::{IoDone, IoRequest};
use trail_core::{
    format_log_disk, owning_log, BlockStack, FormatOptions, MultiTrail, TrailConfig, TrailDriver,
    REGION_SECTORS,
};
use trail_disk::{profiles, AckLedger, Disk, Lba};
use trail_sim::{Delivered, SimDuration, Simulator};

const DEVICES: usize = 2;
const WINDOW: u64 = 64;
/// The single driver's window's first sector. The tiny disk has 80 sectors
/// per cylinder and C-LOOK orders its queue by cylinder, so a window that
/// straddles sector 80 lets the data disk reorder write-backs the driver
/// issues together.
const BASE: u64 = 48;
const MAX_SECTORS: u64 = 16;

/// The stack under test.
#[derive(Clone)]
enum Front {
    One(TrailDriver),
    Array(MultiTrail),
}

impl Front {
    fn write(&self, sim: &mut Simulator, dev: usize, lba: Lba, data: Vec<u8>, done: Done) {
        match self {
            Front::One(d) => d.write(sim, dev, lba, data, done),
            Front::Array(m) => m.write(sim, dev, lba, data, done),
        }
        .expect("accepted");
    }

    fn read(&self, sim: &mut Simulator, dev: usize, lba: Lba, count: u32, done: Done) {
        let req = IoRequest::read(lba, count);
        match self {
            Front::One(d) => d.submit(sim, dev, req, done),
            Front::Array(m) => m.submit(sim, dev, req, done),
        }
        .expect("accepted");
    }

    /// Pinned ranges and pinned sectors, over every log.
    fn pinned(&self) -> (usize, u64) {
        let drivers = match self {
            Front::One(d) => vec![d.clone()],
            Front::Array(m) => m.drivers().to_vec(),
        };
        drivers.iter().fold((0, 0), |(blocks, sectors), d| {
            (blocks + d.pinned_blocks(), sectors + d.pinned_sectors())
        })
    }
}

type Done = trail_sim::Completion<IoDone>;

/// One request of the workload: when, where in the window, and whether it
/// reads.
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
            lba: lba % (WINDOW - sectors + 1),
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

fn submit(sim: &mut Simulator, front: &Front, model: &Rc<RefCell<Model>>, base: Lba, op: Op) {
    let Op { dev, sectors, .. } = op;
    let lba = base + op.lba;
    let model = Rc::clone(model);
    if !op.read {
        let (tag, data) = model.borrow_mut().ledger.submit(dev, lba, sectors);
        let done = sim.completion(move |_, d: Delivered<IoDone>| {
            d.expect("durable");
            model.borrow_mut().ledger.ack(tag);
        });
        front.write(sim, dev, lba, data, done);
        return;
    }
    // The newest write each sector had acknowledged at submission, or any
    // acknowledged after, is a legal answer.
    let horizon = model.borrow().ledger.horizon(dev, lba, sectors);
    let done = sim.completion(move |_, d: Delivered<IoDone>| {
        let data = d.expect("read delivered").data.expect("read data").to_vec();
        let mut m = model.borrow_mut();
        m.reads_checked += 1;
        let bad = m.ledger.check_read(dev, lba, &data, &horizon);
        m.violations.extend(bad);
    });
    front.read(sim, dev, lba, sectors as u32, done);
}

/// Runs `ops` over one Trail driver (`logs` 1) or a Trail array.
fn run(ops: &[Op], logs: usize) -> Result<(), TestCaseError> {
    let mut sim = Simulator::new();
    let log_disks: Vec<Disk> = (0..logs)
        .map(|i| Disk::new(format!("log{i}"), profiles::tiny_test_disk()))
        .collect();
    let data: Vec<Disk> = (0..DEVICES)
        .map(|i| Disk::new(format!("data{i}"), profiles::tiny_test_disk()))
        .collect();
    for log in &log_disks {
        format_log_disk(&mut sim, log, FormatOptions::default()).expect("format");
    }
    let config = TrailConfig::default();
    let (front, base) = if logs == 1 {
        let log = log_disks[0].clone();
        let (drv, _) = TrailDriver::start(&mut sim, log, data.clone(), config).expect("boot");
        (Front::One(drv), BASE)
    } else {
        // The first region boundary that both devices' logs change at,
        // mid-window.
        let boundary = (1..)
            .map(|k| k * REGION_SECTORS)
            .find(|&b| (0..DEVICES).all(|d| owning_log(logs, d, b - 1) != owning_log(logs, d, b)))
            .expect("a boundary between two logs");
        let (multi, _) =
            MultiTrail::start(&mut sim, log_disks, data.clone(), config).expect("boot");
        (Front::Array(multi), boundary - WINDOW / 2)
    };
    let model = Rc::new(RefCell::new(Model {
        ledger: AckLedger::default(),
        reads_checked: 0,
        violations: Vec::new(),
    }));
    let t0 = sim.now();
    for &op in ops {
        let (front, model) = (front.clone(), Rc::clone(&model));
        sim.schedule_at(t0 + SimDuration::from_micros(op.at_us), move |sim| {
            submit(sim, &front, &model, base, op);
        });
    }
    sim.run();
    prop_assert_eq!(front.pinned(), (0, 0));

    let m = model.borrow();
    prop_assert!(m.violations.is_empty(), "{}", m.violations.join("\n"));
    prop_assert_eq!(m.reads_checked, ops.iter().filter(|op| op.read).count());
    // Every sector of the window: a written one holds the write acknowledged
    // there last, an unwritten one stays zero.
    let platter: Vec<String> = data
        .iter()
        .enumerate()
        .flat_map(|(dev, disk)| {
            let bytes: Vec<u8> = (base..base + WINDOW)
                .flat_map(|s| disk.peek_sector(s))
                .collect();
            m.ledger
                .check_read(dev, base, &bytes, &m.ledger.horizon(dev, base, WINDOW))
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
        run(&ops, 1)?;
    }

    #[test]
    fn a_two_log_array_keeps_acknowledgement_order_across_its_logs(
        ops in proptest::collection::vec(op(), 10..120),
    ) {
        run(&ops, 2)?;
    }
}
