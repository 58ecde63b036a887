//! The fault matrix and the composed-fault search through the one fault
//! explorer ([`trail::explore`]), on five stacks over tiny disks: raw
//! Trail, a two-log array, Trail over RAID-5 and over RAID-1, and the
//! standard stack. The explorer's rules hold on every run; each corpus
//! line adds what its plan promises: errors were injected, a volume under
//! member errors retried, a system cut let some writes land and failed
//! the rest.

use trail::explore::{self, TimedWrite};
use trail::prelude::*;

/// Writes in the workload, one every [`GAP_US`].
const WRITES: usize = 24;
const GAP_US: u64 = 400;

/// No stack needs more events than this for the workload, whatever fails.
const EVENT_BUDGET: u64 = 200_000;

/// The stacks, over tiny disks: raw Trail, a two-log array, Trail over
/// RAID-5 and over round-robin RAID-1, and the standard stack.
const STACKS: [&str; 5] = [
    "trail,disks=2,tiny",
    "trail_multi2,disks=2,tiny",
    "raid5x3_trail,disks=1,tiny",
    "raid1x2_rr_trail,disks=1,tiny",
    "standard,disks=2,tiny",
];

/// Write `i` has 1–4 sectors on device `i % devices`, right after the
/// previous write to that device (device `d`'s first at LBA 64 + 16·d,
/// where the first writes have always been), and is submitted
/// `i · GAP_US` into the run: no two writes overlap, and writes that queue
/// together at a data disk go out as one merged command.
fn workload(builder: &StackBuilder) -> Vec<TimedWrite> {
    let devices = builder.scenario().data_disks;
    let mut next: Vec<u64> = (0..devices as u64).map(|d| 64 + 16 * d).collect();
    (0..WRITES)
        .map(|i| {
            let (dev, sectors) = (i % devices, 1 + i as u64 % 4);
            next[dev] += sectors;
            TimedWrite {
                at: SimDuration::from_micros(GAP_US * i as u64),
                dev,
                lba: next[dev] - sectors,
                sectors,
            }
        })
        .collect()
}

#[test]
fn every_stack_delivers_each_injected_error_or_heals_from_it() {
    let corpus = include_str!("data/fault_plans.txt");
    for case in corpus
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let (spec, text) = case.split_once(' ').expect("`<stack> <plan>`");
        let plan: FaultPlan = text.parse().expect("plan parses");
        let builder: StackBuilder = spec.parse().expect("stack parses");
        let o = explore::run(&builder, &workload(&builder), &plan);
        assert!(o.violations.is_empty(), "{case}: {:#?}", o.violations);
        assert!(o.events < EVENT_BUDGET, "{case}: {} events", o.events);
        assert_eq!(o.fired, plan.len() as u64, "{case}: every fault fired");
        let has = |kind: fn(&Fault) -> bool| plan.faults.iter().any(kind);
        if has(|f| matches!(f.kind, FaultKind::TransientError { .. })) {
            assert!(o.injected_errors > 0, "{case}: errors were injected");
        }
        if has(|f| {
            matches!(f.target, FaultTarget::Member { .. })
                && matches!(f.kind, FaultKind::TransientError { .. })
        }) {
            assert!(o.retried_ops > 0, "{case}: the volume retried");
        }
        if has(|f| f.target == FaultTarget::System && f.kind == FaultKind::PowerCut) {
            let ok = o.delivered.iter().filter(|d| **d == Some(Ok(()))).count();
            assert!(
                ok > 0 && ok < WRITES,
                "{case}: writes before the cut land, writes after it fail"
            );
        }
    }
}

/// The corpus line whose error lands on a write-back that data0's queue
/// merged from four.
const MERGED_WRITEBACK_ERROR: &str = "trail,disks=2,tiny @19000000 data0 err*1";

#[test]
fn a_transient_error_on_a_merged_write_back_reissues_each_member_once() {
    let corpus = include_str!("data/fault_plans.txt");
    assert!(corpus.lines().any(|l| l == MERGED_WRITEBACK_ERROR));
    let (spec, plan) = MERGED_WRITEBACK_ERROR.split_once(' ').expect("a line");
    let builder: StackBuilder = spec.parse().expect("stack parses");
    let writes = workload(&builder);
    let clean = explore::run(&builder, &writes, &FaultPlan::new());
    assert!(clean.commands < clean.requests, "the write-backs merge");
    let o = explore::run(&builder, &writes, &plan.parse().expect("plan parses"));
    assert!(o.violations.is_empty(), "{:#?}", o.violations);
    assert_eq!(o.injected_errors, 1);
    // The command's four write-backs were each delivered the error once
    // and issued again once; every sector landed.
    assert_eq!(o.requests - clean.requests, 4);
    assert_eq!(o.pinned, 0);
    assert!(o.delivered.iter().all(|d| *d == Some(Ok(()))));
}

#[test]
fn a_failed_data_disk_under_trail_keeps_its_ranges_pinned() {
    // The log acknowledges every write; the write-backs to the failed disk
    // fail, so their ranges stay pinned (and read back from there) and
    // their records stay live for recovery to replay.
    let builder: StackBuilder = STACKS[0].parse().expect("stack parses");
    let plan: FaultPlan = "@0 data0 fail".parse().expect("plan parses");
    let o = explore::run(&builder, &workload(&builder), &plan);
    assert!(o.violations.is_empty(), "{:#?}", o.violations);
    assert!(o.events < EVENT_BUDGET, "{} events", o.events);
    assert!(o.delivered.iter().all(|d| *d == Some(Ok(()))));
    assert_eq!(o.pinned, WRITES / 2, "every data0 write is pinned");
}

#[test]
fn composed_fault_plans_keep_the_contract_on_every_stack() {
    let runs: Vec<(FaultPlan, explore::Outcome)> = (STACKS.iter().enumerate())
        .flat_map(|(i, spec)| {
            let builder: StackBuilder = spec.parse().expect("stack parses");
            explore::search(
                &builder,
                &workload(&builder),
                0xC0DE_0000 + 1000 * i as u64,
                32,
            )
        })
        .collect();
    let events = runs.iter().map(|(_, o)| o.events).max();
    assert!(events < Some(EVENT_BUDGET), "{events:?} events");
    let injected: u64 = runs.iter().map(|(_, o)| o.injected_errors).sum();
    let retried: u64 = runs.iter().map(|(_, o)| o.retried_ops).sum();
    let kinds = runs.iter().flat_map(|(p, _)| &p.faults);
    let fired = ["cut", "fail", "err", "slow"].map(|k| {
        kinds
            .clone()
            .filter(|f| f.kind.to_string().starts_with(k))
            .count()
    });
    println!("{} plans, at most {events:?} events: {injected} injected errors, {retried} retried ops, cut/fail/err/slow fired {fired:?}", runs.len());
    assert_eq!(runs.len(), 32 * STACKS.len());
    assert!(injected > 0 && retried > 0 && fired.iter().all(|&n| n > 0));
    // RAID-5's cuts darken its members too: at `system` or at one member.
    let raid5 = STACKS
        .iter()
        .position(|s| s.starts_with("raid5"))
        .expect("a RAID-5 stack");
    let cuts: Vec<FaultTarget> = (runs[32 * raid5..32 * (raid5 + 1)].iter())
        .flat_map(|(p, _)| &p.faults)
        .filter(|f| f.kind == FaultKind::PowerCut)
        .map(|f| f.target)
        .collect();
    assert!(cuts.contains(&FaultTarget::System), "{cuts:?}");
    assert!(
        (cuts.iter()).any(|t| !matches!(t, FaultTarget::System | FaultTarget::Log(_))),
        "{cuts:?}"
    );
}
