//! The fault matrix: every stack we ship under one fault plan at a time,
//! each plan written in the fault plane's `@ns target kind` grammar.
//!
//! A device error is a value delivered through a request's completion, so
//! under any plan:
//!
//! - nothing panics, and the run ends within a bounded event count;
//! - every write is delivered, either `Ok` or the error the plan injects.
//!
//! After a plan of transient errors only, the stack heals: every
//! acknowledged write reads back from the platters after a clean
//! shutdown, nothing stays pinned, the errors were really injected, and a
//! RAID volume shows the operations it retried.

use std::cell::RefCell;
use std::rc::Rc;

use trail::prelude::*;

/// The stacks of the matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Stack {
    /// Trail over two raw data disks.
    Trail,
    /// Trail over one 3-member RAID-5 volume.
    TrailRaid5,
    /// The standard stack over two raw data disks.
    Standard,
}

const STACKS: [Stack; 3] = [Stack::Trail, Stack::TrailRaid5, Stack::Standard];

/// One fault per plan, a few writes into the workload.
const PLANS: [&str; 6] = [
    "@1500000 log0 err*1",
    "@1500000 log0 err*3",
    "@1500000 data0 err*1",
    "@1500000 vol0.m1 err*2",
    "@1000000 data0 fail",
    "@4000000 system cut",
];

/// Writes in the workload, one every [`GAP_US`].
const WRITES: usize = 24;
const GAP_US: u64 = 400;

/// No stack needs more events than this for the workload, whatever fails.
const EVENT_BUDGET: u64 = 200_000;

fn build(stack: Stack, plan: &FaultPlan) -> BuiltStack {
    let b = StackBuilder::new()
        .data_profile(profiles::tiny_test_disk())
        .log_profile(profiles::tiny_test_disk())
        .faults(plan.clone());
    match stack {
        Stack::Trail => b.data_disks(2).trail_default(),
        Stack::TrailRaid5 => b
            .data_disks(1)
            .volumes(VolumeLayout::Raid5 { chunk_sectors: 8 }, 3)
            .trail_default(),
        Stack::Standard => b.data_disks(2).standard(),
    }
    .build()
    .expect("stack boots")
}

/// Whether `plan` addresses a device `stack` has.
fn applies(stack: Stack, plan: &FaultPlan) -> bool {
    plan.faults.iter().all(|f| match f.target {
        FaultTarget::Log(_) => stack != Stack::Standard,
        FaultTarget::Member { .. } => stack == Stack::TrailRaid5,
        FaultTarget::Data(_) | FaultTarget::System => true,
    })
}

/// The error `plan` may deliver to a writer.
fn injected(plan: &FaultPlan) -> IoError {
    match plan.faults[0].kind {
        FaultKind::TransientError { .. } => IoError::Transient,
        FaultKind::Fail => IoError::MediaFailed,
        FaultKind::PowerCut => IoError::PoweredOff,
        FaultKind::LatencySpike { .. } => unreachable!("the matrix injects errors only"),
    }
}

/// Write `i`: its device, LBA and bytes — distinct sectors per write.
fn write_of(i: usize, devices: usize) -> (usize, u64, Vec<u8>) {
    let sectors = 1 + i % 4;
    let mut data = vec![(i + 1) as u8; sectors * SECTOR_SIZE];
    data[0] = 0xA5;
    (i % devices, 64 + 16 * i as u64, data)
}

/// What each write was delivered.
type Outcomes = Rc<RefCell<Vec<Option<Delivered<()>>>>>;

/// Runs the workload on `built` until the simulation drains, within the
/// event budget.
fn run_workload(built: &mut BuiltStack) -> Outcomes {
    let outcomes: Outcomes = Rc::new(RefCell::new(vec![None; WRITES]));
    let devices = built.stack.devices();
    let t0 = built.sim.now();
    for i in 0..WRITES {
        let (stack, outcomes) = (Rc::clone(&built.stack), Rc::clone(&outcomes));
        let at = t0 + SimDuration::from_micros(GAP_US * i as u64);
        built.sim.schedule_at(at, move |sim| {
            let (dev, lba, data) = write_of(i, devices);
            let done = sim.completion(move |_, d: Delivered<IoDone>| {
                outcomes.borrow_mut()[i] = Some(d.map(|_| ()));
            });
            stack
                .write(sim, dev, lba, data, done)
                .expect("write accepted");
        });
    }
    let sim = &mut built.sim;
    while sim.step() {
        assert!(
            sim.events_executed() < EVENT_BUDGET,
            "the run did not end within {EVENT_BUDGET} events"
        );
    }
    outcomes
}

/// Reads `count` sectors at `lba` of `dev` from the block target itself —
/// the platters, under any pinned memory above.
fn platter(built: &mut BuiltStack, dev: usize, lba: u64, count: u32) -> Vec<u8> {
    let target = Rc::clone(&built.targets[dev]);
    let read = built
        .sim
        .block_on(|sim, done| target.submit(sim, IoRequest::read(lba, count), done))
        .expect("read accepted");
    read.expect("read delivered")
        .data
        .expect("a read returns data")
}

fn injected_errors(built: &BuiltStack) -> u64 {
    let disks = built.data_disks.iter().chain(&built.log_disks);
    disks.map(|d| d.with_stats(|s| s.injected_errors)).sum()
}

#[test]
fn every_stack_delivers_each_injected_error_or_heals_from_it() {
    for plan_text in PLANS {
        let plan: FaultPlan = plan_text.parse().expect("plan parses");
        let want = injected(&plan);
        for stack in STACKS.into_iter().filter(|&s| applies(s, &plan)) {
            let case = format!("{stack:?} under {plan_text}");
            let mut built = build(stack, &plan);
            let outcomes = run_workload(&mut built);
            assert_eq!(
                (built.fault_clock.fired(), built.fault_clock.unhandled()),
                (1, 0),
                "{case}: the fault fired on a device"
            );
            let outcomes: Vec<Delivered<()>> = outcomes
                .borrow()
                .iter()
                .enumerate()
                .map(|(i, o)| o.unwrap_or_else(|| panic!("{case}: write {i} never delivered")))
                .collect();
            for (i, o) in outcomes.iter().enumerate() {
                assert!(
                    *o == Ok(()) || *o == Err(want),
                    "{case}: write {i} delivered {o:?}"
                );
            }
            if want == IoError::PoweredOff {
                assert!(
                    outcomes.contains(&Ok(())) && outcomes.contains(&Err(want)),
                    "{case}: writes before the cut land, writes after it fail"
                );
            }
            if want != IoError::Transient {
                continue;
            }
            // Transient errors only: Trail retries every one of them, and
            // every acknowledged write is on its platter after shutdown.
            if let Some(trail) = built.trail.clone() {
                assert!(
                    outcomes.iter().all(Result::is_ok),
                    "{case}: Trail retries transient errors"
                );
                trail.shutdown(&mut built.sim).expect("clean shutdown");
                assert_eq!(trail.pinned_blocks(), 0, "{case}: pinned memory drained");
            }
            assert!(injected_errors(&built) > 0, "{case}: errors were injected");
            if let Some(vol) = built.volumes.first() {
                if plan_text.contains("vol0") {
                    assert!(
                        vol.with_stats(|s| s.retried_ops) > 0,
                        "{case}: the volume retried"
                    );
                }
            }
            let devices = built.stack.devices();
            for (i, o) in outcomes.iter().enumerate() {
                if o.is_ok() {
                    let (dev, lba, data) = write_of(i, devices);
                    let count = (data.len() / SECTOR_SIZE) as u32;
                    assert!(
                        platter(&mut built, dev, lba, count) == data,
                        "{case}: acknowledged write {i} is not on its platter"
                    );
                }
            }
        }
    }
}

#[test]
fn a_failed_data_disk_under_trail_keeps_its_ranges_pinned() {
    // The log acknowledges every write; the write-backs to the failed disk
    // fail, so their ranges stay pinned and their records stay live for
    // recovery to replay.
    let plan: FaultPlan = "@0 data0 fail".parse().expect("plan parses");
    let mut built = build(Stack::Trail, &plan);
    let outcomes = run_workload(&mut built);
    assert!(outcomes.borrow().iter().all(|o| *o == Some(Ok(()))));
    let trail = built.trail.clone().expect("a Trail stack");
    assert_eq!(
        trail.pinned_blocks(),
        WRITES / 2,
        "every data0 write is pinned"
    );
    // The other disk's writes landed.
    for i in (1..WRITES).step_by(2) {
        let (dev, lba, data) = write_of(i, 2);
        let count = (data.len() / SECTOR_SIZE) as u32;
        assert!(platter(&mut built, dev, lba, count) == data, "write {i}");
    }
}
