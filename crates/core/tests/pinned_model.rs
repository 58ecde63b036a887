//! Pinned memory against a model. Random overlapping extents of 1–16
//! sectors at unaligned LBAs in a 64-sector window on two data disks, with
//! reads at random instants between them. Every read returns, per sector,
//! the newest write acknowledged before it was submitted or one
//! acknowledged while it was in flight; after quiescence each data disk
//! holds what a plain `Vec<u8>` holds when every write is applied to it in
//! acknowledgement order.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;
use trail_blockio::IoDone;
use trail_core::{format_log_disk, FormatOptions, TrailConfig, TrailDriver};
use trail_disk::{profiles, Disk, SECTOR_SIZE};
use trail_sim::{Delivered, SimDuration, Simulator};

const DEVICES: usize = 2;
const WINDOW: u64 = 64;
/// The window's first sector. The tiny disk has 80 sectors per cylinder and
/// C-LOOK orders its queue by cylinder, so a window that straddles sector 80
/// lets the data disk reorder write-backs the driver issues together.
const BASE: u64 = 48;
const MAX_SECTORS: u64 = 16;

/// What write `tag` puts in sector `lba`: the tag and the sector's own
/// address, so a stale or misplaced sector cannot pass for the right one.
fn sector_image(tag: u32, lba: u64) -> Vec<u8> {
    let mut sector = vec![tag as u8 ^ lba as u8; SECTOR_SIZE];
    sector[..4].copy_from_slice(&tag.to_le_bytes());
    sector[4..12].copy_from_slice(&lba.to_le_bytes());
    sector
}

/// The write a sector holds, 0 for one never written; `None` if the bytes
/// are not exactly what that write put there.
fn tag_of(sector: &[u8], lba: u64) -> Option<u32> {
    let tag = u32::from_le_bytes(sector[..4].try_into().expect("4 bytes"));
    let expect = if tag == 0 {
        vec![0; SECTOR_SIZE]
    } else {
        sector_image(tag, lba)
    };
    (sector == &expect[..]).then_some(tag)
}

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

/// The model: per device and sector of the window, the writes acknowledged
/// there, in acknowledgement order.
struct Model {
    acked: Vec<Vec<Vec<u32>>>,
    reads_checked: usize,
    violations: Vec<String>,
}

impl Model {
    /// The newest acknowledged write of each sector, 0 where none is.
    fn image(&self, dev: usize) -> Vec<u32> {
        self.acked[dev]
            .iter()
            .map(|tags| tags.last().copied().unwrap_or(0))
            .collect()
    }
}

fn submit(sim: &mut Simulator, drv: &TrailDriver, model: &Rc<RefCell<Model>>, op: Op, tag: u32) {
    let Op {
        dev, lba, sectors, ..
    } = op;
    let model = Rc::clone(model);
    if !op.read {
        let data: Vec<u8> = (lba..lba + sectors)
            .flat_map(|s| sector_image(tag, s))
            .collect();
        let done = sim.completion(move |_, d: Delivered<IoDone>| {
            d.expect("durable");
            let mut m = model.borrow_mut();
            for s in lba..lba + sectors {
                m.acked[dev][(s - BASE) as usize].push(tag);
            }
        });
        drv.write(sim, dev, lba, data, done).expect("accepted");
        return;
    }
    // How many writes each sector had acknowledged at submission: the last
    // of those, or any acknowledged after, is a legal answer.
    let seen: Vec<usize> = (lba..lba + sectors)
        .map(|s| model.borrow().acked[dev][(s - BASE) as usize].len())
        .collect();
    let done = sim.completion(move |_, d: Delivered<IoDone>| {
        let data = d.expect("read delivered").data.expect("read data");
        let mut m = model.borrow_mut();
        m.reads_checked += 1;
        for (i, s) in (lba..lba + sectors).enumerate() {
            let tags = &m.acked[dev][(s - BASE) as usize];
            let got = tag_of(&data[i * SECTOR_SIZE..(i + 1) * SECTOR_SIZE], s);
            let newest_then = seen[i].checked_sub(1).map_or(0, |n| tags[n]);
            let legal = got.is_some_and(|t| t == newest_then || tags[seen[i]..].contains(&t));
            if !legal {
                let msg = format!(
                    "read dev {dev} {lba}+{sectors}: sector {s} holds {got:?}, \
                     newest acknowledged at submission {newest_then}, since {:?}",
                    &tags[seen[i]..]
                );
                m.violations.push(msg);
            }
        }
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
        acked: vec![vec![Vec::new(); WINDOW as usize]; DEVICES],
        reads_checked: 0,
        violations: Vec::new(),
    }));
    let t0 = sim.now();
    for (i, &op) in ops.iter().enumerate() {
        let (drv, model) = (drv.clone(), Rc::clone(&model));
        let tag = i as u32 + 1;
        sim.schedule_at(t0 + SimDuration::from_micros(op.at_us), move |sim| {
            submit(sim, &drv, &model, op, tag);
        });
    }
    sim.run();
    prop_assert_eq!(drv.pinned_blocks(), 0);

    let m = model.borrow();
    prop_assert!(m.violations.is_empty(), "{}", m.violations.join("\n"));
    prop_assert_eq!(m.reads_checked, ops.iter().filter(|op| op.read).count());
    for (dev, disk) in data.iter().enumerate() {
        let platter: Vec<Option<u32>> = (BASE..BASE + WINDOW)
            .map(|s| tag_of(&disk.peek_sector(s), s))
            .collect();
        let expect: Vec<Option<u32>> = m.image(dev).into_iter().map(Some).collect();
        prop_assert!(
            platter == expect,
            "dev {dev} after quiescence:\n platter {platter:?}\n   model {expect:?}"
        );
    }
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
