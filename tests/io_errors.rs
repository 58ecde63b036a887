//! The fault matrix and the composed-fault search through the one fault
//! explorer ([`trail::explore`]), on five stacks over tiny disks: raw
//! Trail, a two-log array, Trail over RAID-5 and over RAID-1, and the
//! standard stack; the search also runs the writes as db transactions
//! and as served Puts, and three runs are cut at every instant. The
//! explorer's rules hold on every run; each corpus line adds what its
//! plan promises: errors were injected, a volume under member errors
//! retried, a system cut let some writes land and failed the rest.

use std::cell::Cell;
use std::rc::Rc;

use trail::db::{DbConfig, FlushPolicy, Op, StorageService, TxnSpec};
use trail::disk::crash::sector_image;
use trail::explore::{self, Level, Outcome, TimedWrite};
use trail::prelude::*;
use trail_serve::{Request, Response, Server, ServerConfig, Status};
use IoError::{Cancelled, MediaFailed, PoweredOff, Transient};

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

/// The db level's engine: group commit of one-KiB buffers forced a
/// sector at a time, so a force is several pieces and a transaction's
/// rows and its commit can fall in different forces; the WAL on device 0,
/// the tables on device 1.
fn db() -> DbConfig {
    DbConfig {
        cache_pages: 64,
        flush_policy: FlushPolicy::GroupCommit { buffer_bytes: 1024 },
        log_dev: 0,
        log_region_start: 64,
        log_region_sectors: 2_000,
        flush_write_bytes: SECTOR_SIZE,
        table_devices: vec![1],
        dirty_high_watermark: 16,
        flush_batch: 8,
        log_before_images: false,
        single_cpu: false,
    }
}

/// The serve level's session, on a server with the default executor: a
/// write is one `Put` frame, and an error status is heard as the I/O
/// error it names (any other refusal as `Cancelled`).
fn served(service: StorageService) -> explore::Sender {
    let (session, _) = Server::new(service, ServerConfig::default()).open(StreamId(1));
    Rc::new(move |sim, w, data, heard| {
        let (dev, lba) = (w.dev as u16, w.lba);
        let reply = sim.completion(move |sim, d: Delivered<Vec<u8>>| {
            let named = |s| {
                [Transient, MediaFailed, PoweredOff]
                    .into_iter()
                    .find(|&e| Status::from(e) == s)
            };
            match d.map(|frame| Response::decode(&frame).expect("a response").0.status()) {
                Ok(Status::Ok) => heard.complete(sim, ()),
                Ok(status) => heard.fail(sim, named(status).unwrap_or(Cancelled)),
                Err(e) => heard.fail(sim, e),
            }
        });
        session.submit(sim, &Request::Put { dev, lba, data }.encode(), reply);
    })
}

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
        let o = explore::run(&builder, &Level::Block, &workload(&builder), &plan);
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
    let clean = explore::run(&builder, &Level::Block, &writes, &FaultPlan::new());
    assert!(clean.commands < clean.requests, "the write-backs merge");
    let o = explore::run(
        &builder,
        &Level::Block,
        &writes,
        &plan.parse().expect("plan parses"),
    );
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
    let o = explore::run(&builder, &Level::Block, &workload(&builder), &plan);
    assert!(o.violations.is_empty(), "{:#?}", o.violations);
    assert!(o.events < EVENT_BUDGET, "{} events", o.events);
    assert!(o.delivered.iter().all(|d| *d == Some(Ok(()))));
    assert_eq!(o.pinned, WRITES / 2, "every data0 write is pinned");
}

#[test]
fn composed_fault_plans_keep_the_contract_on_every_stack() {
    let searches = (STACKS.iter().map(|&s| (s, Level::Block))).chain([
        ("trail,disks=2,tiny", Level::Db(db())),
        ("trail_multi2,disks=2,tiny", Level::Db(db())),
        ("raid5x3_trail,disks=2,tiny", Level::Db(db())),
        ("raid5x3_trail,disks=1,tiny", Level::Serve(served)),
    ]);
    let runs: Vec<(Level, FaultPlan, explore::Outcome)> = searches
        .enumerate()
        .flat_map(|(i, (spec, level))| {
            let builder: StackBuilder = spec.parse().expect("stack parses");
            let seed = 0xC0DE_0000 + 1000 * i as u64;
            let runs = explore::search(&builder, &level, &workload(&builder), seed, 32);
            runs.into_iter().map(move |(p, o)| (level.clone(), p, o))
        })
        .collect();
    let events = runs.iter().map(|(_, _, o)| o.events).max();
    assert!(events < Some(EVENT_BUDGET), "{events:?} events");
    let injected: u64 = runs.iter().map(|(_, _, o)| o.injected_errors).sum();
    let retried: u64 = runs.iter().map(|(_, _, o)| o.retried_ops).sum();
    let kinds = runs.iter().flat_map(|(_, p, _)| &p.faults);
    let fired = ["cut", "fail", "err", "slow"].map(|k| {
        kinds
            .clone()
            .filter(|f| f.kind.to_string().starts_with(k))
            .count()
    });
    println!("{} plans, at most {events:?} events: {injected} injected errors, {retried} retried ops, cut/fail/err/slow fired {fired:?}", runs.len());
    assert_eq!(runs.len(), 32 * (STACKS.len() + 4));
    assert!(injected > 0 && retried > 0 && fired.iter().all(|&n| n > 0));
    // RAID-5's cuts darken its members too: at `system` or at one member.
    let raid5 = STACKS
        .iter()
        .position(|s| s.starts_with("raid5"))
        .expect("a RAID-5 stack");
    let cuts: Vec<FaultTarget> = (runs[32 * raid5..32 * (raid5 + 1)].iter())
        .flat_map(|(_, p, _)| &p.faults)
        .filter(|f| f.kind == FaultKind::PowerCut)
        .map(|f| f.target)
        .collect();
    assert!(cuts.contains(&FaultTarget::System), "{cuts:?}");
    assert!(
        (cuts.iter()).any(|t| !matches!(t, FaultTarget::System | FaultTarget::Log(_))),
        "{cuts:?}"
    );
    // Transactions and served Puts meet a fired whole-system cut and a
    // fired failure (the search fails a plan with an unfired fault).
    for level in ["Db", "Serve"] {
        let at_level = runs
            .iter()
            .filter(|(l, ..)| format!("{l:?}").starts_with(level));
        let faults: Vec<String> = at_level
            .flat_map(|(_, p, _)| p.faults.iter().map(ToString::to_string))
            .collect();
        let has = |kind: &str| faults.iter().any(|f| f.ends_with(kind));
        assert!(has(" system cut") && has(" fail"), "{level}: {faults:?}");
    }
}

/// `writes` at `level`, fault-free and then cut as a whole system at
/// every instant the fault-free run enumerates. Every run keeps the
/// explorer's rules, the fault-free one acknowledges every write, and the
/// cuts span the run. Returns each cut with its run's outcome.
fn every_cut(
    builder: &StackBuilder,
    level: &Level,
    writes: &[TimedWrite],
) -> Vec<(SimDuration, Outcome)> {
    let probe = explore::run(builder, level, writes, &FaultPlan::new());
    assert!(
        probe.violations.is_empty() && probe.acked == writes.len(),
        "{probe:#?}"
    );
    let runs: Vec<(SimDuration, Outcome)> = (probe.cuts.iter())
        .map(|&at| {
            (
                at,
                explore::run(builder, level, writes, &FaultPlan::power_cut_at(at)),
            )
        })
        .collect();
    for (at, o) in &runs {
        let (clean, recovered) = (o.violations.is_empty(), o.recovered.is_some());
        assert!(
            clean && recovered,
            "{builder} cut at {at}: {:#?}",
            o.violations
        );
    }
    let acked: Vec<usize> = runs.iter().map(|(_, o)| o.acked).collect();
    let mid_run = |&n: &usize| n > 0 && n < writes.len();
    assert!(
        acked.contains(&0) && acked.iter().any(mid_run),
        "{builder}: {acked:?}"
    );
    runs
}

/// Every cut of the workload as Puts served over RAID-5, and as
/// transactions on the standard stack, whose C-LOOK queue can land a
/// later force before an earlier force's last piece: each write answered
/// `Ok` or durable survives the reboot (and WAL redo).
#[test]
fn every_cut_of_served_puts_and_of_transactions_keeps_each_acknowledged_write() {
    for (spec, level) in [
        (STACKS[2], Level::Serve(served)),
        (STACKS[4], Level::Db(db())),
    ] {
        let builder: StackBuilder = spec.parse().expect("stack parses");
        every_cut(&builder, &level, &workload(&builder));
    }
}

/// Every cut of 60 one-row transactions, one a millisecond, on raw Trail:
/// at each the reboot recovers the log and redoes the WAL, and every
/// transaction durable before the cut has its row (the explorer's
/// ledger). Some cuts fall while two WAL forces are outstanding, so the
/// durable point, not a force's landing, acks.
#[test]
fn every_cut_of_a_transaction_run_keeps_each_durable_commit() {
    let builder: StackBuilder = STACKS[0].parse().expect("stack parses");
    let row = |i: u64| TimedWrite {
        at: SimDuration::from_millis(i),
        dev: 0,
        lba: i,
        sectors: 1,
    };
    let writes: Vec<TimedWrite> = (0..60).map(row).collect();
    let runs = every_cut(&builder, &Level::Db(db()), &writes);
    for (at, o) in &runs {
        let redo = o.redo.as_ref().expect("the WAL is redone");
        // One row per transaction: the redone image has a row per commit.
        assert!(
            redo.committed_txns >= o.acked && redo.rows_applied == redo.committed_txns,
            "{at}"
        );
        assert!(
            redo.scan_time > SimDuration::ZERO && (o.acked == 0 || redo.chunks_scanned > 0),
            "{at}"
        );
    }
    // The same transactions once more, the engine's forces sampled at
    // each cut instant.
    let mut built = builder.build().expect("the stack boots");
    let (db, start) = (built.database(db()), built.sim.now());
    let overlapping = Rc::new(Cell::new(0));
    for (i, w) in writes.iter().enumerate() {
        let (db, mut txn) = (db.clone(), TxnSpec::default());
        let row = sector_image(i as u32 + 1, w.lba);
        txn.ops.push(Op::Write(0, w.lba, row));
        built.sim.schedule_at(start + w.at, move |sim| {
            let (control, durable) = (sim.completion(|_, _| {}), sim.completion(|_, _| {}));
            db.execute(sim, txn, control, durable).expect("accepted");
        });
    }
    for &(at, _) in &runs {
        let (db, overlapping) = (db.clone(), Rc::clone(&overlapping));
        let sample = move |_: &mut Simulator| {
            overlapping.set(overlapping.get() + usize::from(db.forces_in_flight() >= 2))
        };
        built.sim.schedule_at(start + at, sample);
    }
    built.sim.run();
    assert!(
        overlapping.get() > 0,
        "no cut fell while two WAL forces were outstanding"
    );
}
