//! Crash campaigns: power cuts at every instant a run can crash in, over
//! the fault plane, fanned across OS threads.
//!
//! A campaign fixes one seeded workload — a burst of `writes` extents of
//! 1–16 sectors at unaligned LBAs in an 8·`writes`-sector window, so
//! extents overlap — and a probe run logs every sector landing and every
//! acknowledgement. [`cut_instants`] turns those into the campaign's cut
//! list, and the campaign crashes at every instant of it, or at
//! `crash_points` evenly spaced ranks of it. Each cut is declared through
//! a [`FaultPlan`] armed on the stack's [`trail_sim::FaultClock`]; the
//! crash point reboots, runs the three-stage recovery on every log, and
//! checks the durability contract with the workload's [`AckLedger`] (and,
//! for the RAID-5 flavor, that every touched parity stripe XORs to zero).
//! Points are independent simulations, so the sweep fans out through
//! [`crate::parallel_map`]; all reported numbers are virtual-time
//! quantities, byte-identical for any thread count.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

use rand::Rng;
use trail::volume::{raid5_map, VolumeLayout};
use trail::StackBuilder;
use trail_blockio::{IoDone, SharedBlockDevice};
use trail_core::{MultiTrail, RecoveryReport, TrailConfig, TrailDriver};
use trail_disk::{cut_instants, AckLedger, Disk, SECTOR_SIZE};
use trail_sim::{
    Delivered, Fault, FaultKind, FaultPlan, FaultTarget, SimDuration, SimTime, Simulator,
};

use crate::runner::parallel_map;

/// Which stack a campaign crashes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CampaignFlavor {
    /// Trail over the paper's three raw data disks; the plan cuts power
    /// to the whole system (log and data disks at once).
    RawDisks,
    /// A two-log Trail array over three raw data disks; the plan cuts the
    /// whole system. Its extents are whole aligned 8-sector blocks, so
    /// every sector has one owning log.
    TrailMulti2,
    /// Trail over a three-member RAID-5 volume; the plan cuts the log
    /// disk only (the members stay powered, so the parity-maintenance
    /// machinery keeps running and its invariant can be checked after
    /// recovery).
    Raid5,
}

impl CampaignFlavor {
    /// Short stable label for reports and JSON.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CampaignFlavor::RawDisks => "raw",
            CampaignFlavor::TrailMulti2 => "multi2",
            CampaignFlavor::Raid5 => "raid5",
        }
    }
}

/// One campaign: a workload size, a crash-point count, and a seed.
#[derive(Clone, Copy, Debug)]
pub struct CampaignSpec {
    /// Which stack to crash.
    pub flavor: CampaignFlavor,
    /// Burst size: how many extents the workload submits up front. This
    /// is the log-size knob — more outstanding writes mean more active
    /// log at any crash instant.
    pub writes: usize,
    /// How many cut instants to crash at: evenly spaced ranks of the
    /// enumerated list, or every instant when it holds no more.
    pub crash_points: usize,
    /// Workload RNG seed (also the stack seed).
    pub seed: u64,
}

/// What one crash point produced (all virtual-time).
#[derive(Clone, Debug)]
pub struct CrashPointOutcome {
    /// The cut instant, relative to measurement start.
    pub cut: SimDuration,
    /// Writes acknowledged before the cut.
    pub acked: usize,
    /// Blocks still pinned (pending write-back) at the cut.
    pub pending: usize,
    /// Whether the cut fell inside a data-disk write: some of its sectors
    /// had landed and some had not. Only a whole-system cut tears that
    /// write; under the RAID-5 flavor's log-only cut it still finishes.
    pub in_data_write: bool,
    /// The recovery report from the reboot, summed over the logs.
    pub report: RecoveryReport,
    /// Durability-contract violations found after recovery (sectors that
    /// hold neither their newest acknowledged write nor a later one, plus
    /// inconsistent parity sectors in the RAID-5 flavor). A healthy
    /// campaign reports zero.
    pub violations: usize,
}

/// Runs one campaign: a probe run enumerates the cut instants, the spec
/// picks all of them or evenly spaced ranks, and every crash point runs
/// on the [`parallel_map`] worker pool. Outcomes come back in cut-instant
/// order regardless of thread count.
///
/// # Panics
///
/// Panics if the stack fails to boot or recover, or if an armed cut does
/// not fire — harness bugs, not workload outcomes (contract violations
/// are *counted*, not panicked on).
#[must_use]
pub fn run_campaign(spec: &CampaignSpec, threads: usize) -> Vec<CrashPointOutcome> {
    let probe = run_workload(spec, None);
    assert_eq!(
        probe.ledger.borrow().acked(),
        spec.writes,
        "probe run must acknowledge every write"
    );
    let landings: Vec<SimTime> = probe
        .logs
        .iter()
        .chain(&probe.data)
        .flat_map(Disk::landings)
        .flatten()
        .collect();
    let writebacks: Vec<(SimTime, SimTime)> = probe
        .data
        .iter()
        .flat_map(Disk::landings)
        .map(|cmd| (cmd[0], cmd[cmd.len() - 1]))
        .collect();
    let cuts = cut_instants(&landings, &probe.acks);
    let n = spec.crash_points.min(cuts.len());
    let picked: Vec<SimTime> = (0..n)
        .map(|k| cuts[(2 * k + 1) * cuts.len() / (2 * n)])
        .collect();
    let start = probe.start;
    parallel_map(picked, threads, |cut| {
        let in_data_write = writebacks
            .iter()
            .any(|&(first, last)| first <= cut && cut < last);
        crash_point(spec, cut.duration_since(start), in_data_write)
    })
}

/// One finished workload run: the devices (post-drain), what was
/// acknowledged, and the crash bookkeeping.
struct WorkloadRun {
    logs: Vec<Disk>,
    data: Vec<Disk>,
    /// The block targets Trail served (raw-disk drivers or the volume),
    /// which recovery replays through.
    targets: Vec<SharedBlockDevice>,
    /// `(dev, lba, sectors)` of every write, in submission order.
    extents: Vec<(usize, u64, u64)>,
    ledger: Rc<RefCell<AckLedger>>,
    /// Every successful ack instant.
    acks: Vec<SimTime>,
    /// Measurement start.
    start: SimTime,
    /// Blocks still pinned (pending write-back) when the run ended.
    pending: usize,
    /// Whether the armed cut fired (always `false` on probe runs).
    crashed: bool,
}

/// The RAID-5 flavor's fixed geometry.
const RAID_MEMBERS: usize = 3;
const RAID_CHUNK_SECTORS: u32 = 8;
/// The workload window's first sector, and the longest extent.
const BASE: u64 = 2048;
const MAX_EXTENT: u64 = 16;

/// The devices a flavor's stack serves.
fn flavor_devices(flavor: CampaignFlavor) -> usize {
    if flavor == CampaignFlavor::Raid5 {
        1
    } else {
        3
    }
}

/// The seeded workload: `(dev, lba, sectors)` per write.
fn extents(spec: &CampaignSpec, devs: usize) -> Vec<(usize, u64, u64)> {
    let mut rng = trail_sim::rng(spec.seed);
    let window = 8 * spec.writes as u64;
    (0..spec.writes)
        .map(|_| {
            let dev = rng.gen_range(0..devs);
            if spec.flavor == CampaignFlavor::TrailMulti2 {
                return (dev, BASE + 8 * rng.gen_range(0..spec.writes as u64), 8);
            }
            let sectors = rng.gen_range(1..=MAX_EXTENT.min(window));
            (dev, BASE + rng.gen_range(0..=window - sectors), sectors)
        })
        .collect()
}

/// Runs the campaign workload, optionally crashing it `cut` after the
/// measurement starts, and drains the simulator. A probe run (no cut)
/// logs every disk's sector landings.
fn run_workload(spec: &CampaignSpec, cut: Option<SimDuration>) -> WorkloadRun {
    let plan = match (cut, spec.flavor) {
        (None, _) => FaultPlan::new(),
        (Some(at), CampaignFlavor::Raid5) => FaultPlan::new().with(Fault {
            at,
            target: FaultTarget::Log(0),
            kind: FaultKind::PowerCut,
        }),
        (Some(at), _) => FaultPlan::power_cut_at(at),
    };
    let builder = StackBuilder::new()
        .seed(spec.seed)
        .data_disks(flavor_devices(spec.flavor));
    let builder = match spec.flavor {
        CampaignFlavor::RawDisks => builder.trail_default(),
        CampaignFlavor::TrailMulti2 => builder.trail_multi(2, TrailConfig::default()),
        CampaignFlavor::Raid5 => builder.trail_default().volumes(
            VolumeLayout::Raid5 {
                chunk_sectors: RAID_CHUNK_SECTORS,
            },
            RAID_MEMBERS,
        ),
    };
    let built = builder.faults(plan).build().expect("campaign stack boots");
    let mut sim = built.sim;
    let drivers: Vec<TrailDriver> = built
        .trail
        .into_iter()
        .chain(built.multi.iter().flat_map(|m| m.drivers().to_vec()))
        .collect();
    if cut.is_none() {
        for d in built.log_disks.iter().chain(&built.data_disks) {
            d.log_landings();
        }
    }

    // The workload: a burst of overlapping extents, all submitted at
    // measurement start (the fig4 shape — Trail absorbs the queue, so the
    // active log grows with the burst size).
    let extents = extents(spec, flavor_devices(spec.flavor));
    let ledger = Rc::new(RefCell::new(AckLedger::default()));
    let acks = Rc::new(RefCell::new(Vec::new()));
    let start = sim.now();
    for &(dev, lba, sectors) in &extents {
        let (tag, payload) = ledger.borrow_mut().submit(dev, lba, sectors);
        let (ledger, acks) = (Rc::clone(&ledger), Rc::clone(&acks));
        let done = sim.completion(move |sim: &mut Simulator, del: Delivered<IoDone>| {
            if del.is_ok() {
                ledger.borrow_mut().ack(tag);
                acks.borrow_mut().push(sim.now());
            }
        });
        built
            .stack
            .write(&mut sim, dev, lba, payload, done)
            .expect("campaign write accepted");
    }
    sim.run();
    let pending = drivers.iter().map(TrailDriver::pinned_blocks).sum();
    drop(built.stack);
    WorkloadRun {
        logs: built.log_disks,
        data: built.data_disks,
        targets: built.targets,
        extents,
        ledger,
        acks: acks.take(),
        start,
        pending,
        crashed: built.fault_clock.fired() > 0,
    }
}

/// Crashes the workload at `cut`, reboots, recovers every log, and checks
/// the durability contract.
fn crash_point(spec: &CampaignSpec, cut: SimDuration, in_data_write: bool) -> CrashPointOutcome {
    let run = run_workload(spec, Some(cut));
    assert!(run.crashed, "the armed power cut must fire");

    for d in run.logs.iter().chain(&run.data) {
        d.power_on();
    }
    // Reboot through the driver's own boot path, which recovers each log.
    let mut sim = Simulator::new();
    let targets = vec![run.targets.clone(); run.logs.len()];
    let (_, boots) =
        MultiTrail::start_with_targets(&mut sim, run.logs.clone(), targets, TrailConfig::default())
            .expect("every log recovers at boot");
    let mut report = RecoveryReport::default();
    for r in boots
        .into_iter()
        .map(|b| b.recovered.expect("a cut log is dirty"))
    {
        report.locate_time += r.locate_time;
        report.rebuild_time += r.rebuild_time;
        report.writeback_time += r.writeback_time;
        report.tracks_scanned += r.tracks_scanned;
        report.records_found += r.records_found;
        report.sectors_replayed += r.sectors_replayed;
        report.write_back_performed |= r.write_back_performed;
        report.torn_records_dropped += r.torn_records_dropped;
        report.log_head_span += r.log_head_span;
        report.active_log_sectors += r.active_log_sectors;
    }

    let violations = match spec.flavor {
        CampaignFlavor::Raid5 => {
            let data = run.ledger.borrow().check_crashed(|_, lba| {
                let seg = raid5_map(RAID_MEMBERS, RAID_CHUNK_SECTORS, lba, 1)[0];
                run.data[seg.member].peek_sector(seg.member_lba(RAID_CHUNK_SECTORS))
            });
            data.len() + parity_violations(&run)
        }
        _ => run
            .ledger
            .borrow()
            .check_crashed(|dev, lba| run.data[dev].peek_sector(lba))
            .len(),
    };
    let acked = run.ledger.borrow().acked();
    CrashPointOutcome {
        cut,
        acked,
        pending: run.pending,
        in_data_write,
        report,
        violations,
    }
}

/// Counts the parity sectors of every stripe the workload touched that
/// do not XOR to zero across the members. The members never lost power,
/// so even a crash mid-write must leave every touched stripe consistent
/// once the queues drained and recovery replayed through the volume.
fn parity_violations(run: &WorkloadRun) -> usize {
    let touched: BTreeSet<u64> = run
        .extents
        .iter()
        .flat_map(|&(_, lba, sectors)| {
            raid5_map(RAID_MEMBERS, RAID_CHUNK_SECTORS, lba, sectors as u32)
                .into_iter()
                .map(|seg| seg.stripe)
        })
        .collect();
    let chunk = u64::from(RAID_CHUNK_SECTORS);
    touched
        .into_iter()
        .flat_map(|stripe| (0..chunk).map(move |off| stripe * chunk + off))
        .filter(|&lba| {
            let mut acc = [0u8; SECTOR_SIZE];
            for member in &run.data {
                for (a, b) in acc.iter_mut().zip(member.peek_sector(lba).iter()) {
                    *a ^= b;
                }
            }
            acc.iter().any(|&b| b != 0)
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_is_deterministic_across_thread_counts() {
        for flavor in [CampaignFlavor::RawDisks, CampaignFlavor::TrailMulti2] {
            let spec = CampaignSpec {
                flavor,
                writes: 8,
                crash_points: 5,
                seed: 7,
            };
            let a = run_campaign(&spec, 1);
            let b = run_campaign(&spec, 4);
            assert_eq!(a.len(), 5);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.cut, y.cut);
                assert_eq!(x.acked, y.acked);
                assert_eq!(x.pending, y.pending);
                assert_eq!(x.in_data_write, y.in_data_write);
                assert_eq!(x.report.total_time(), y.report.total_time());
                assert_eq!(x.violations, 0);
                assert_eq!(y.violations, 0);
            }
        }
    }

    #[test]
    fn raid5_campaign_holds_the_parity_invariant() {
        let spec = CampaignSpec {
            flavor: CampaignFlavor::Raid5,
            writes: 8,
            crash_points: 3,
            seed: 11,
        };
        let outcomes = run_campaign(&spec, 2);
        assert_eq!(outcomes.len(), 3);
        for o in outcomes {
            assert_eq!(o.violations, 0, "cut at {} violated the contract", o.cut);
        }
    }
}
