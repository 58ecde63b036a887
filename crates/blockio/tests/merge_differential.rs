//! The write merge, held against a reference that sends one request per
//! disk command: random batches of adjacent writes, overlapping writes with
//! different starts and reads, queued at once behind a busy disk, under
//! both priorities. The merging driver must leave the same bytes on the
//! medium, hand every read the same bytes, and deliver every completion
//! exactly once.
//!
//! The reference is this file's own queue over a bare [`Disk`], driven by
//! the crate's C-LOOK elevator. No request crosses a cylinder boundary, so
//! two requests that overlap sit in one cylinder, where the elevator (and
//! so both drivers) serves them in arrival order within a priority class
//! however the arm moved before: a merged command ends the arm somewhere
//! else, and only a merge that overtook an overlapping request could
//! change a result.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;
use trail_blockio::{Clook, IoDone, IoRequest, Priority, QueuedIo, StandardDriver};
use trail_disk::{profiles, Disk, DiskCommand, DiskGeometry, SECTOR_SIZE};
use trail_sim::{Delivered, Simulator};

/// Sectors the batches address: three cylinders of the tiny disk.
const WINDOW: u64 = 240;

/// One request of a batch; a write's sectors all carry `tag`.
#[derive(Clone, Copy, Debug)]
struct Req {
    lba: u64,
    sectors: u64,
    is_read: bool,
    tag: u8,
}

/// What one run produced: the window's bytes, each read's bytes (`None`
/// for a write), and how often each request was delivered.
#[derive(Debug, PartialEq)]
struct Run {
    medium: Vec<u8>,
    reads: Vec<Option<Vec<u8>>>,
    delivered: Vec<u32>,
}

fn cylinder(g: &DiskGeometry, lba: u64) -> u32 {
    g.lba_to_chs(lba).expect("inside the disk").cylinder
}

/// Builds a batch from `(shape, anchor, offset, len)` draws: a write that
/// continues the request before it (shapes 0–2) or an earlier one (3), a
/// write (4) or a read (5) overlapping an earlier request from a
/// different start, or a write anywhere (6). Every request is then cut
/// back to the cylinder it starts in.
fn batch(draws: &[(u8, usize, u64, u64)]) -> Vec<Req> {
    let g = profiles::tiny_test_disk().geometry;
    let mut reqs: Vec<Req> = Vec::new();
    for (i, &(shape, anchor, offset, len)) in draws.iter().enumerate() {
        let earlier = reqs.get(anchor % reqs.len().max(1)).copied();
        let lba = match (shape, reqs.last().copied(), earlier) {
            (0..=2, Some(a), _) | (3, _, Some(a)) => a.lba + a.sectors,
            (4 | 5, _, Some(a)) => a.lba + 1 + offset % a.sectors.saturating_sub(1).max(1),
            _ => offset * 7,
        } % WINDOW;
        let mut sectors = len.min(WINDOW - lba);
        while cylinder(&g, lba + sectors - 1) != cylinder(&g, lba) {
            sectors -= 1;
        }
        reqs.push(Req {
            lba,
            sectors,
            is_read: shape == 5,
            tag: i as u8 + 1,
        });
    }
    reqs
}

fn window(disk: &Disk) -> Vec<u8> {
    (0..WINDOW).flat_map(|lba| disk.peek_sector(lba)).collect()
}

/// The batch through the merging driver: all submitted at once, the
/// first going straight to the disk.
fn merged(reqs: &[Req], priority: Priority) -> (Run, u64) {
    let mut sim = Simulator::new();
    let disk = Disk::new("merge", profiles::tiny_test_disk());
    let drv = StandardDriver::with_priority(disk.clone(), priority);
    let reads = Rc::new(RefCell::new(vec![None; reqs.len()]));
    let delivered = Rc::new(RefCell::new(vec![0u32; reqs.len()]));
    for (i, r) in reqs.iter().enumerate() {
        let (reads, delivered) = (Rc::clone(&reads), Rc::clone(&delivered));
        let done = sim.completion(move |_, d: Delivered<IoDone>| {
            delivered.borrow_mut()[i] += 1;
            reads.borrow_mut()[i] = d.expect("no fault is injected").data.map(|d| d.to_vec());
        });
        let req = if r.is_read {
            IoRequest::read(r.lba, r.sectors as u32)
        } else {
            IoRequest::write(r.lba, vec![r.tag; r.sectors as usize * SECTOR_SIZE])
        };
        drv.submit(&mut sim, req, done).expect("a valid request");
    }
    sim.run();
    let commands = drv.with_stats(|s| s.commands);
    let run = Run {
        medium: window(&disk),
        reads: reads.take(),
        delivered: delivered.take(),
    };
    (run, commands)
}

/// The batch through the reference: the elevator picks each next request
/// exactly as the driver's would, and each goes to the disk alone.
fn reference(reqs: &[Req], priority: Priority) -> Run {
    let mut scheduler = Clook::default();
    let mut sim = Simulator::new();
    let disk = Disk::new("reference", profiles::tiny_test_disk());
    let g = disk.geometry();
    let mut reads = vec![None; reqs.len()];
    let mut delivered = vec![0u32; reqs.len()];
    let queued = |i: usize| QueuedIo {
        lba: reqs[i].lba,
        is_read: reqs[i].is_read,
        seq: i as u64,
    };
    // The driver sends the first request before the rest arrive.
    scheduler.insert(queued(0), &g);
    let mut next = Some(scheduler.pop(disk.head_position(), false));
    (1..reqs.len()).for_each(|i| scheduler.insert(queued(i), &g));
    while let Some(q) = next {
        let (i, r) = (q.seq as usize, reqs[q.seq as usize]);
        let cmd = if r.is_read {
            DiskCommand::Read {
                lba: r.lba,
                count: r.sectors as u32,
            }
        } else {
            DiskCommand::Write {
                lba: r.lba,
                data: vec![r.tag; r.sectors as usize * SECTOR_SIZE].into(),
            }
        };
        let done = sim.block_on(|sim, done| disk.submit(sim, cmd, done));
        delivered[i] += 1;
        reads[i] = done
            .expect("accepted")
            .expect("no fault is injected")
            .data
            .map(|d| d.to_vec());
        next = (!scheduler.is_empty()).then(|| {
            let reads_only = priority == Priority::ReadsFirst && scheduler.queued_reads() > 0;
            scheduler.pop(disk.head_position(), reads_only)
        });
    }
    Run {
        medium: window(&disk),
        reads,
        delivered,
    }
}

fn arb_draws() -> impl Strategy<Value = Vec<(u8, usize, u64, u64)>> {
    proptest::collection::vec((0u8..7, 0usize..64, 0u64..64, 1u64..9), 2..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn merging_returns_what_one_request_per_command_returns(draws in arb_draws()) {
        let reqs = batch(&draws);
        for priority in [Priority::None, Priority::ReadsFirst] {
            let (got, commands) = merged(&reqs, priority);
            let want = reference(&reqs, priority);
            prop_assert!(got.delivered.iter().all(|&n| n == 1), "{:?}", got.delivered);
            prop_assert!(commands <= reqs.len() as u64);
            prop_assert!(got.reads == want.reads, "a read differs: {:?} {:?}", priority, reqs);
            prop_assert!(got.medium == want.medium, "medium differs: {:?} {:?}", priority, reqs);
        }
    }
}

/// The batches merge: without this the property above could pass on a
/// driver that never merges.
#[test]
fn random_batches_merge() {
    let mut rng = proptest::test_runner::TestRng::deterministic();
    let (mut requests, mut commands) = (0, 0);
    for _ in 0..64 {
        let reqs = batch(&arb_draws().generate(&mut rng));
        requests += reqs.len() as u64;
        commands += merged(&reqs, Priority::None).1;
    }
    assert!(
        commands * 10 < requests * 9,
        "{requests} requests went out in {commands} commands"
    );
}
