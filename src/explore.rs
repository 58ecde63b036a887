//! The fault explorer: [`run`] drives a timed write list on any stack
//! under any [`FaultPlan`], reboots after a cut through
//! [`BuiltStack::reboot`], and checks delivery, durability and redundancy
//! rules drawn from the plan and the stack's shape (DESIGN.md §4, "Fault
//! plane"). [`search`] draws seeded composed plans against one stack and
//! [`shrink`]s a failing one to a one-line reproducer for
//! `tests/data/fault_plans.txt`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

use rand::Rng;
use trail_blockio::IoDone;
use trail_core::{MultiTrail, RecoveryReport, TrailDriver, TrailError};
use trail_disk::{cut_instants, AckLedger, Disk, SECTOR_SIZE};
use trail_sim::FaultKind::{Fail, LatencySpike, PowerCut, TransientError};
use trail_sim::{Delivered, Fault, FaultPlan, FaultTarget, IoError, SimDuration, SimTime};
use trail_volume::{RaidVolume, VolumeLayout};

use crate::scenario::{BuiltStack, StackBuilder};
use crate::target::Front;

/// No run this engine drives needs more events, whatever fails.
const EVENT_BUDGET: u64 = 2_000_000;

/// One write: `sectors` sectors at `lba` of device `dev`, submitted `at`
/// after measurement start (where fault-plan offsets count from).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimedWrite {
    /// Submission instant.
    pub at: SimDuration,
    /// Device, in stack order.
    pub dev: usize,
    /// First sector.
    pub lba: u64,
    /// Length in sectors.
    pub sectors: u64,
}

/// What one [`run`] produced; instants are relative to measurement start.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// What each write was delivered, in workload order (`None`: never).
    pub delivered: Vec<Option<Delivered<()>>>,
    /// Writes acknowledged.
    pub acked: usize,
    /// Blocks still pinned when the run drained.
    pub pinned: usize,
    /// Faults that fired.
    pub fired: u64,
    /// Events the run executed, boot included, up to its drain.
    pub events: u64,
    /// The reboot's recovery, summed over the logs (`None`: no reboot, or
    /// a log came up without recovering).
    pub recovered: Option<RecoveryReport>,
    /// Transient errors the disks delivered.
    pub injected_errors: u64,
    /// Operations the RAID volumes retried.
    pub retried_ops: u64,
    /// Requests the data disks' queues took, and the disk commands they
    /// went out in (before any reboot): fewer commands than requests means
    /// the queues merged adjacent writes.
    pub requests: u64,
    /// See [`requests`](Self::requests).
    pub commands: u64,
    /// Every instant a cut of this run can crash at ([`cut_instants`]).
    pub cuts: Vec<SimDuration>,
    /// When each sector of each data-disk write command lands, one list
    /// per command: a write-back the block queue merged from several
    /// requests is one list.
    pub data_writes: Vec<Vec<SimDuration>>,
    /// One line per broken rule.
    pub violations: Vec<String>,
}

/// Runs `writes` on the stack `builder` describes under `plan` within a
/// fixed event budget, reboots after a cut (again after each transient
/// boot error the plan's charges explain), and checks the rules:
///
/// - every write is delivered exactly once, only with an error the plan
///   can cause (`PoweredOff` a cut, `MediaFailed` a failure, `Transient`
///   an error charge on the standard stack — Trail retries those), and
///   fails if submitted after a `system cut`;
/// - after a cut each sector reads back as its newest acknowledged write
///   or a later one ([`AckLedger::check_crashed`]); with no cut, as its
///   newest acknowledged one ([`AckLedger::check_read`]), and nothing
///   stays pinned unless a disk failed;
/// - with no data disk failed, every touched RAID-5 stripe XORs to zero,
///   RAID-1 mirrors agree over the whole volume, and after a cut each
///   mirror holds every acknowledged write on its own.
///
/// A disk the plan failed that no redundancy covers answers the reboot or
/// a read with `MediaFailed`; the checks that need its bytes stop there.
///
/// # Panics
///
/// Panics if the stack fails to build or refuses a write synchronously.
#[must_use]
pub fn run(builder: &StackBuilder, writes: &[TimedWrite], plan: &FaultPlan) -> Outcome {
    let stack = builder.clone().faults(plan.clone());
    let mut built = stack.build().expect("the stack boots");
    let disks = [&built.log_disks[..], &built.data_disks[..]].concat();
    disks.iter().for_each(Disk::log_landings);
    let ledger = Rc::new(RefCell::new(AckLedger::default()));
    let delivered = Rc::new(RefCell::new(vec![None; writes.len()]));
    let acks = Rc::new(RefCell::new(Vec::new()));
    let start = built.sim.now();
    for (i, &w) in writes.iter().enumerate() {
        let stack = Rc::clone(&built.stack);
        let (ledger, delivered, acks) = (ledger.clone(), delivered.clone(), acks.clone());
        built.sim.schedule_at(start + w.at, move |sim| {
            let (tag, payload) = ledger.borrow_mut().submit(w.dev, w.lba, w.sectors);
            let done = sim.completion(move |sim, d: Delivered<IoDone>| {
                if d.is_ok() {
                    ledger.borrow_mut().ack(tag);
                    acks.borrow_mut().push(sim.now());
                }
                delivered.borrow_mut()[i] = Some(d.map(|_| ()));
            });
            stack
                .write(sim, w.dev, w.lba, payload, done)
                .expect("write accepted");
        });
    }
    let budget = built.sim.events_executed() + EVENT_BUDGET;
    let mut hung = false;
    while !hung && built.sim.step() {
        hung = built.sim.events_executed() > budget;
    }

    let since = |t: SimTime| t.duration_since(start);
    let landings: Vec<SimTime> = disks.iter().flat_map(Disk::landings).flatten().collect();
    let cuts = cut_instants(&landings, &acks.take());
    let retried = |v: &RaidVolume| v.with_stats(|s| s.retried_ops);
    let mut out = Outcome {
        delivered: delivered.take(),
        acked: ledger.borrow().acked(),
        pinned: (built.multi.iter().flat_map(MultiTrail::drivers))
            .map(TrailDriver::pinned_blocks)
            .sum(),
        events: built.sim.events_executed(),
        fired: built.fault_clock.fired(),
        retried_ops: built.volumes.iter().map(retried).sum(),
        requests: (built.drivers.iter())
            .map(|d| d.with_stats(|s| s.submitted))
            .sum(),
        commands: (built.drivers.iter())
            .map(|d| d.with_stats(|s| s.commands))
            .sum(),
        cuts: cuts.into_iter().map(since).collect(),
        data_writes: (built.data_disks.iter().flat_map(Disk::landings))
            .map(|cmd| cmd.into_iter().map(since).collect())
            .collect(),
        ..Outcome::default()
    };
    let v = &mut out.violations;
    if hung {
        v.push(format!("the run did not end within {EVENT_BUDGET} events"));
        return out;
    }
    let has = |kind: fn(&Fault) -> bool| plan.faults.iter().any(kind);
    let (cut, fail) = (has(|f| f.kind == PowerCut), has(|f| f.kind == Fail));
    let data_fail = has(|f| f.kind == Fail && !matches!(f.target, FaultTarget::Log(_)));
    let charge = |f: &Fault| match f.kind {
        TransientError { count } => count,
        _ => 0,
    };
    let charges: u32 = plan.faults.iter().map(charge).sum();
    let system_cut = |f: &&Fault| f.target == FaultTarget::System && f.kind == PowerCut;
    let system_cut = plan.faults.iter().filter(system_cut).map(|f| f.at).min();
    let standard = builder.scenario().shape.front == Front::Standard;
    let allowed = |e: IoError| match e {
        IoError::PoweredOff => cut,
        IoError::MediaFailed => fail,
        IoError::Transient => standard && charges > 0,
        IoError::Cancelled => false,
    };
    if built.fault_clock.unhandled() > 0 {
        v.push("a fault addressed no device of this stack".into());
    }
    for (i, (w, d)) in writes.iter().zip(&out.delivered).enumerate() {
        match d {
            None => v.push(format!("write {i} was never delivered")),
            Some(Err(e)) if !allowed(*e) => v.push(format!("write {i} delivered {e:?}")),
            Some(Ok(())) if system_cut.is_some_and(|at| at <= w.at) => {
                v.push(format!("write {i} succeeded after the system cut"));
            }
            _ => {}
        }
    }
    if !cut && !fail && out.pinned > 0 {
        v.push(format!("{} blocks stay pinned", out.pinned));
    }

    let mut rebooted = None;
    let mut tries = 0;
    while cut && rebooted.is_none() {
        match built.reboot() {
            Ok(stack) => rebooted = Some(stack),
            Err(TrailError::Io(IoError::Transient)) if tries < charges => tries += 1,
            Err(TrailError::Io(IoError::MediaFailed)) if fail => break,
            Err(e) => {
                v.push(format!("the reboot failed: {e}"));
                break;
            }
        }
    }
    out.recovered = (rebooted.as_ref())
        .filter(|r| r.recovered.len() == r.log_disks.len())
        .map(|r| summed(&r.recovered));
    let checks = !cut || rebooted.is_some();
    let last = rebooted.as_mut().unwrap_or(&mut built);
    let spans = spans(writes);
    if checks {
        let ledger = ledger.borrow();
        match read_back(last, &spans, charges) {
            Ok(images) if cut => v.extend(ledger.check_crashed(|dev, lba| {
                let (lo, data) = &images[&dev];
                let at = (lba - lo) as usize * SECTOR_SIZE;
                data[at..at + SECTOR_SIZE].try_into().expect("one sector")
            })),
            Ok(images) => {
                for (dev, (lo, data)) in images {
                    let horizon = ledger.horizon(dev, lo, (data.len() / SECTOR_SIZE) as u64);
                    v.extend(ledger.check_read(dev, lo, &data, &horizon));
                }
            }
            Err(IoError::MediaFailed) if fail => {}
            Err(e) => v.push(format!("a read back delivered {e:?}")),
        }
        if !data_fail {
            v.extend(redundancy_violations(last, &spans));
        }
        if cut && !data_fail {
            v.extend(mirror_violations(last, &ledger));
        }
    }
    let injected = |d: &Disk| d.with_stats(|s| s.injected_errors);
    out.injected_errors = disks.iter().map(injected).sum();
    out
}

/// A multi-log boot's recovery reports, summed.
fn summed(reports: &[RecoveryReport]) -> RecoveryReport {
    let mut sum = RecoveryReport::default();
    for r in reports {
        sum.locate_time += r.locate_time;
        sum.rebuild_time += r.rebuild_time;
        sum.writeback_time += r.writeback_time;
        sum.tracks_scanned += r.tracks_scanned;
        sum.records_found += r.records_found;
        sum.sectors_replayed += r.sectors_replayed;
        sum.write_back_performed |= r.write_back_performed;
        sum.torn_records_dropped += r.torn_records_dropped;
        sum.log_head_span += r.log_head_span;
        sum.active_log_sectors += r.active_log_sectors;
    }
    sum
}

/// Each device's written sectors as one `[lo, hi)` span.
fn spans(writes: &[TimedWrite]) -> BTreeMap<usize, (u64, u64)> {
    let mut spans = BTreeMap::new();
    for w in writes {
        let s = spans.entry(w.dev).or_insert((w.lba, w.lba + w.sectors));
        *s = (s.0.min(w.lba), s.1.max(w.lba + w.sectors));
    }
    spans
}

/// Reads each span back through the stack, again after each transient
/// error the plan's `charges` explain: `(lo, bytes)` per device.
fn read_back(
    built: &mut BuiltStack,
    spans: &BTreeMap<usize, (u64, u64)>,
    charges: u32,
) -> Result<BTreeMap<usize, (u64, Vec<u8>)>, IoError> {
    let mut images = BTreeMap::new();
    let mut tries = 0;
    for (&dev, &(lo, hi)) in spans {
        let stack = Rc::clone(&built.stack);
        let read = loop {
            let read = |sim: &mut _, done| stack.read(sim, dev, lo, (hi - lo) as u32, done);
            match built.sim.block_on(read).expect("read accepted") {
                Err(IoError::Transient) if tries < charges => tries += 1,
                read => break read?,
            }
        };
        images.insert(dev, (lo, read.data.expect("a read returns data")));
    }
    Ok(images)
}

/// One line per member row where a RAID-5 stripe the spans touched does
/// not XOR to zero, or where RAID-1 mirrors differ anywhere in the volume.
fn redundancy_violations(built: &BuiltStack, spans: &BTreeMap<usize, (u64, u64)>) -> Vec<String> {
    let mut bad = Vec::new();
    for (dev, vol) in built.volumes.iter().enumerate() {
        let members = vol.member_disks();
        let (rows, raid5) = match vol.layout() {
            VolumeLayout::Raid5 { chunk_sectors } => {
                let Some(&(lo, hi)) = spans.get(&dev) else {
                    continue;
                };
                let c = u64::from(chunk_sectors);
                let stripe = c * (members.len() as u64 - 1);
                (lo / stripe * c..(hi - 1) / stripe * c + c, true)
            }
            VolumeLayout::Raid1 { .. } => (0..vol.capacity_sectors(), false),
            _ => continue,
        };
        for row in rows {
            let images: Vec<_> = members.iter().map(|m| m.peek_sector(row)).collect();
            let xor = |b: usize| images.iter().fold(0, |x, s| x ^ s[b]);
            let consistent = if raid5 {
                (0..SECTOR_SIZE).all(|b| xor(b) == 0)
            } else {
                images.iter().all(|s| *s == images[0])
            };
            if !consistent {
                bad.push(format!("{}: member row {row} is inconsistent", vol.name()));
            }
        }
    }
    bad
}

/// After a cut, on a stack whose every device is one RAID-1 volume: one
/// line per acknowledged write some mirror lacks, each mirror read on its
/// own ([`AckLedger::check_crashed`]).
fn mirror_violations(built: &BuiltStack, ledger: &AckLedger) -> Vec<String> {
    let raid1 = |v: &RaidVolume| matches!(v.layout(), VolumeLayout::Raid1 { .. });
    if built.volumes.len() != built.targets.len() || !built.volumes.iter().all(raid1) {
        return Vec::new();
    }
    let sets: Vec<Vec<Disk>> = built.volumes.iter().map(RaidVolume::member_disks).collect();
    (0..sets.first().map_or(0, Vec::len))
        .flat_map(|m| {
            let bad = ledger.check_crashed(|dev, lba| sets[dev][m].peek_sector(lba));
            bad.into_iter()
                .map(move |line| format!("mirror {m}: {line}"))
        })
        .collect()
}

/// Runs `plans` seeded plans on one stack, plan `k` drawn from seed
/// `seed + k`: one to four faults — `cut`, `fail`, `err*k`, `slow+ns*k` —
/// aimed at the stack's own devices (a RAID-5 stack's cuts at its logs
/// only, until its write hole is closed) at instants inside a fault-free
/// run of `writes`. Returns each plan with its outcome.
///
/// # Panics
///
/// Panics at the first plan whose run panics or breaks a rule, with its
/// seed, what broke, and the plan [`shrink`] reduced it to — a one-line
/// reproducer in the `@ns target kind` grammar.
#[must_use]
pub fn search(
    builder: &StackBuilder,
    writes: &[TimedWrite],
    seed: u64,
    plans: u64,
) -> Vec<(FaultPlan, Outcome)> {
    let probe = checked(builder, writes, &FaultPlan::new()).expect("the fault-free run holds");
    let span = probe.cuts.last().map_or(1, |t| t.as_nanos());
    (seed..seed + plans)
        .map(|seed| {
            let plan = draw_plan(builder, seed, span);
            match checked(builder, writes, &plan) {
                Ok(outcome) => (plan, outcome),
                Err(why) => {
                    let small = shrink(plan.clone(), |p| checked(builder, writes, p).is_err());
                    panic!("composed-fault search, seed {seed}: {why}\n  plan:   {plan}\n  shrunk: {small}")
                }
            }
        })
        .collect()
}

/// [`run`], with a panic, a broken rule or an unfired fault as the error.
fn checked(
    builder: &StackBuilder,
    writes: &[TimedWrite],
    plan: &FaultPlan,
) -> Result<Outcome, String> {
    let o = catch_unwind(AssertUnwindSafe(|| run(builder, writes, plan))).map_err(|p| {
        let msg = (p.downcast_ref::<String>().cloned())
            .or_else(|| p.downcast_ref::<&str>().map(ToString::to_string));
        format!("panicked: {}", msg.unwrap_or_default())
    })?;
    match o.violations.first() {
        Some(first) => Err(format!("{first} ({} violations)", o.violations.len())),
        None if o.fired < plan.len() as u64 => Err(format!("{} faults fired", o.fired)),
        None => Ok(o),
    }
}

/// One composed plan for the stack `builder` describes, its faults at
/// instants in `[0, span_ns]`.
fn draw_plan(builder: &StackBuilder, seed: u64, span_ns: u64) -> FaultPlan {
    let s = builder.scenario();
    let logs = s.shape.front.logs();
    let (members, volumes) = (s.shape.raid).map_or((1, 0), |r| (r.members, s.data_disks));
    let member = |m| FaultTarget::Member {
        volume: m / members,
        member: m % members,
    };
    let mut devices: Vec<FaultTarget> = (0..logs).map(FaultTarget::Log).collect();
    devices.extend((0..s.data_disks * members).map(FaultTarget::Data));
    devices.extend((0..volumes * members).map(member));
    let raid5 = (s.shape.raid).is_some_and(|r| matches!(r.layout, VolumeLayout::Raid5 { .. }));
    let mut rng = trail_sim::rng(seed);
    let mut plan = FaultPlan::new();
    for _ in 0..rng.gen_range(1..=4) {
        let at = SimDuration::from_nanos(rng.gen_range(0..=span_ns));
        let mut target = devices[rng.gen_range(0..devices.len())];
        let kind = match rng.gen_range(0..4) {
            0 => PowerCut,
            1 => Fail,
            2 => TransientError {
                count: rng.gen_range(1..=3),
            },
            _ => LatencySpike {
                extra: SimDuration::from_micros(rng.gen_range(50..=20_000)),
                count: rng.gen_range(1..=4),
            },
        };
        // Until RAID-5 closes its write hole (ROADMAP item 4), its cuts
        // spare the members.
        if kind == PowerCut && raid5 {
            target = FaultTarget::Log(rng.gen_range(0..logs));
        } else if kind == PowerCut && rng.gen_bool(0.5) {
            target = FaultTarget::System;
        }
        plan.push(Fault { at, target, kind });
    }
    plan
}

/// Deletes one fault at a time, greedily, while `still_fails`, until no
/// single fault more can go.
pub fn shrink(mut plan: FaultPlan, mut still_fails: impl FnMut(&FaultPlan) -> bool) -> FaultPlan {
    let mut i = 0;
    while i < plan.len() {
        let mut smaller = plan.clone();
        smaller.faults.remove(i);
        if still_fails(&smaller) {
            (plan, i) = (smaller, 0);
        } else {
            i += 1;
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shrinking_keeps_only_the_fault_that_fails() {
        let plan: FaultPlan = "@5 log0 err*2; @9 system cut; @1 data0 fail; @7 data1 slow+40000*2"
            .parse()
            .expect("plan parses");
        let small = shrink(plan, |p| {
            (p.faults.iter()).any(|f| f.target == FaultTarget::Data(0) && f.kind == Fail)
        });
        assert_eq!(small.to_string(), "@1 data0 fail");
    }
}
