//! Crash campaigns: deterministic crash-point sampling over the fault
//! plane, fanned across OS threads.
//!
//! A campaign fixes one workload (a burst of `writes` distinct-block
//! tagged writes through Trail — the log-size knob) and crashes it at
//! `crash_points` instants spread across the workload's measured
//! duration, each crash declared through a [`FaultPlan`] armed on the
//! stack's [`trail_sim::FaultClock`]. Every sampled point reboots,
//! runs the three-stage recovery, and checks the durability contract:
//! every write acknowledged before the cut must read back exactly from
//! the data disks (and, for the RAID-5 flavor, every touched parity
//! stripe must XOR to zero). Points are independent simulations, so the
//! sweep fans out through [`crate::parallel_map`]; all reported numbers
//! are virtual-time quantities, byte-identical for any thread count.

use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::rc::Rc;

use trail::volume::{raid5_map, VolumeLayout};
use trail::StackBuilder;
use trail_blockio::{IoDone, SharedBlockDevice};
use trail_core::{read_header, recover_with_targets, RecoveryOptions, RecoveryReport};
use trail_disk::{Disk, SECTOR_SIZE};
use trail_sim::{
    Delivered, Fault, FaultKind, FaultPlan, FaultSink, FaultTarget, SimDuration, Simulator,
};

use crate::runner::parallel_map;

/// Which stack a campaign crashes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CampaignFlavor {
    /// Trail over the paper's three raw data disks; the plan cuts power
    /// to the whole system (log and data disks at once).
    RawDisks,
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
            CampaignFlavor::Raid5 => "raid5",
        }
    }
}

/// One campaign: a workload size, a crash-point count, and a seed.
#[derive(Clone, Copy, Debug)]
pub struct CampaignSpec {
    /// Which stack to crash.
    pub flavor: CampaignFlavor,
    /// Burst size: how many 4-KB writes the workload submits up front.
    /// This is the log-size knob — more outstanding writes mean more
    /// active log at any crash instant.
    pub writes: usize,
    /// How many crash instants to sample across the workload duration.
    pub crash_points: usize,
    /// Workload RNG seed (also the stack seed).
    pub seed: u64,
}

/// What one sampled crash point produced (all virtual-time).
#[derive(Clone, Debug)]
pub struct CrashPointOutcome {
    /// The cut instant, relative to measurement start.
    pub cut: SimDuration,
    /// Writes acknowledged before the cut.
    pub acked: usize,
    /// Blocks still pinned (pending write-back) at the cut.
    pub pending: usize,
    /// The recovery report from the reboot.
    pub report: RecoveryReport,
    /// Durability-contract violations found after recovery (acknowledged
    /// writes that did not read back, plus inconsistent parity stripes
    /// in the RAID-5 flavor). A healthy campaign reports zero.
    pub violations: usize,
}

/// Per-`writes`-point aggregate over a campaign's crash points — one
/// point on the recovery-time-vs-log-size curve.
#[derive(Clone, Copy, Debug)]
pub struct CampaignAggregate {
    /// The workload burst size.
    pub writes: usize,
    /// Crash points sampled.
    pub points: usize,
    /// Total contract violations (zero for a correct stack).
    pub violations: usize,
    /// Mean writes acknowledged before the cut.
    pub mean_acked: f64,
    /// Mean blocks pending write-back at the cut.
    pub mean_pending: f64,
    /// Mean active log sectors the rebuild stage walked.
    pub mean_active_log_sectors: f64,
    /// Mean log-head span (sectors between recovered head and tail).
    pub mean_log_head_span: f64,
    /// Mean records recovered.
    pub mean_records: f64,
    /// Mean sectors written back.
    pub mean_sectors_replayed: f64,
    /// Mean locate-stage time (ms).
    pub mean_locate_ms: f64,
    /// Mean rebuild-stage time (ms).
    pub mean_rebuild_ms: f64,
    /// Mean write-back-stage time (ms).
    pub mean_writeback_ms: f64,
    /// Mean total recovery time (ms).
    pub mean_total_ms: f64,
    /// Worst-case total recovery time (ms).
    pub max_total_ms: f64,
}

/// Folds a campaign's outcomes into one curve point.
///
/// # Panics
///
/// Panics on an empty outcome list (a campaign bug).
#[must_use]
pub fn aggregate(writes: usize, outcomes: &[CrashPointOutcome]) -> CampaignAggregate {
    assert!(!outcomes.is_empty(), "campaign produced no crash points");
    let n = outcomes.len() as f64;
    let mean = |f: &dyn Fn(&CrashPointOutcome) -> f64| outcomes.iter().map(f).sum::<f64>() / n;
    CampaignAggregate {
        writes,
        points: outcomes.len(),
        violations: outcomes.iter().map(|o| o.violations).sum(),
        mean_acked: mean(&|o| o.acked as f64),
        mean_pending: mean(&|o| o.pending as f64),
        mean_active_log_sectors: mean(&|o| o.report.active_log_sectors as f64),
        mean_log_head_span: mean(&|o| o.report.log_head_span as f64),
        mean_records: mean(&|o| o.report.records_found as f64),
        mean_sectors_replayed: mean(&|o| o.report.sectors_replayed as f64),
        mean_locate_ms: mean(&|o| o.report.locate_time.as_millis_f64()),
        mean_rebuild_ms: mean(&|o| o.report.rebuild_time.as_millis_f64()),
        mean_writeback_ms: mean(&|o| o.report.writeback_time.as_millis_f64()),
        mean_total_ms: mean(&|o| o.report.total_time().as_millis_f64()),
        max_total_ms: outcomes
            .iter()
            .map(|o| o.report.total_time().as_millis_f64())
            .fold(0.0, f64::max),
    }
}

/// Runs one campaign: a probe run measures the workload duration, the
/// cut instants are spread evenly across it, and every crash point runs
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
        probe.acked.len(),
        spec.writes,
        "probe run must acknowledge every write"
    );
    let duration_ns = probe.last_ack.as_nanos().max(1);
    // Midpoint sampling: cut k of n lands at (2k+1)/(2n) of the workload,
    // so no cut falls on the degenerate endpoints.
    let cuts: Vec<SimDuration> = (0..spec.crash_points)
        .map(|k| {
            let num = u128::from(duration_ns) * (2 * k as u128 + 1);
            SimDuration::from_nanos((num / (2 * spec.crash_points as u128)) as u64)
        })
        .collect();
    parallel_map(cuts, threads, |cut| crash_point(spec, cut))
}

/// Observer sink: records that the planned cut fired. Returns `false` so
/// the per-device sinks still own the actual power loss.
struct CrashFlag(Rc<Cell<bool>>);

impl FaultSink for CrashFlag {
    fn apply(&self, _sim: &mut Simulator, fault: &Fault) -> bool {
        if matches!(fault.kind, FaultKind::PowerCut) {
            self.0.set(true);
        }
        false
    }
}

/// One finished workload run: the devices (post-drain), what was
/// acknowledged, and the crash bookkeeping.
struct WorkloadRun {
    log: Disk,
    data: Vec<Disk>,
    /// The block targets Trail served (raw-disk drivers or the volume),
    /// which recovery replays through.
    targets: Vec<SharedBlockDevice>,
    /// `(dev, lba, tag)` for every write acknowledged OK, in ack order.
    acked: Vec<(usize, u64, u8)>,
    /// `(dev, lba, tag)` for every write submitted, in submission order.
    submitted: Vec<(usize, u64, u8)>,
    /// Last successful ack instant, relative to measurement start.
    last_ack: SimDuration,
    /// Blocks still pinned (pending write-back) when the run ended.
    pending: usize,
    /// Whether the armed cut fired (always `false` on probe runs).
    crashed: bool,
}

/// The RAID-5 flavor's fixed geometry.
const RAID_MEMBERS: usize = 3;
const RAID_CHUNK_SECTORS: u32 = 8;

/// Runs the campaign workload, optionally crashing it `cut` after the
/// measurement starts, and drains the simulator.
fn run_workload(spec: &CampaignSpec, cut: Option<SimDuration>) -> WorkloadRun {
    let plan = match cut {
        None => FaultPlan::new(),
        Some(at) => match spec.flavor {
            CampaignFlavor::RawDisks => FaultPlan::power_cut_at(at),
            CampaignFlavor::Raid5 => FaultPlan::new().with(Fault {
                at,
                target: FaultTarget::Log(0),
                kind: FaultKind::PowerCut,
            }),
        },
    };
    let builder = StackBuilder::new().seed(spec.seed).trail_default();
    let builder = match spec.flavor {
        CampaignFlavor::RawDisks => builder.data_disks(3),
        CampaignFlavor::Raid5 => builder.data_disks(1).volumes(
            VolumeLayout::Raid5 {
                chunk_sectors: RAID_CHUNK_SECTORS,
            },
            RAID_MEMBERS,
        ),
    };
    let built = builder.faults(plan).build().expect("campaign stack boots");
    let mut sim = built.sim;
    let trail = built.trail.expect("campaign stack runs Trail");
    let log = built.log_disk.expect("campaign stack has a log disk");
    let data = built.data_disks;
    let targets = built.targets;
    let crashed = Rc::new(Cell::new(false));
    built
        .fault_clock
        .register(Rc::new(CrashFlag(Rc::clone(&crashed))));

    // The workload: a burst of distinct-block 4-KB tagged writes, all
    // submitted at measurement start (the fig4 shape — Trail absorbs the
    // queue, so the active log grows with the burst size).
    let devs = targets.len();
    let sectors = u64::from(RAID_CHUNK_SECTORS);
    let acked: Rc<RefCell<Vec<(usize, u64, u8)>>> = Rc::new(RefCell::new(Vec::new()));
    let last_ack = Rc::new(Cell::new(SimDuration::ZERO));
    let mut submitted = Vec::with_capacity(spec.writes);
    let start = sim.now();
    for i in 0..spec.writes {
        let dev = i % devs;
        let lba = 2048 + i as u64 * sectors;
        let tag = (i % 251 + 1) as u8;
        submitted.push((dev, lba, tag));
        let acked = Rc::clone(&acked);
        let last_ack = Rc::clone(&last_ack);
        let done = sim.completion(move |sim: &mut Simulator, del: Delivered<IoDone>| {
            if del.is_ok() {
                acked.borrow_mut().push((dev, lba, tag));
                last_ack.set(sim.now() - start);
            }
        });
        trail
            .write(
                &mut sim,
                dev,
                lba,
                vec![tag; sectors as usize * SECTOR_SIZE],
                done,
            )
            .expect("campaign write accepted");
    }
    sim.run();
    let pending = trail.pinned_blocks();
    let acked = acked.borrow().clone();
    WorkloadRun {
        log,
        data,
        targets,
        acked,
        submitted,
        last_ack: last_ack.get(),
        pending,
        crashed: crashed.get(),
    }
}

/// Crashes the workload at `cut`, reboots, recovers, and checks the
/// durability contract.
fn crash_point(spec: &CampaignSpec, cut: SimDuration) -> CrashPointOutcome {
    let run = run_workload(spec, Some(cut));
    assert!(run.crashed, "the armed power cut must fire");

    run.log.power_on();
    for d in &run.data {
        d.power_on();
    }
    let mut sim = Simulator::new();
    let header = read_header(&mut sim, &run.log).expect("log header readable after crash");
    let report = recover_with_targets(
        &mut sim,
        &run.log,
        &run.targets,
        &header,
        RecoveryOptions::default(),
    )
    .expect("recovery succeeds");

    let violations = match spec.flavor {
        CampaignFlavor::RawDisks => verify_raw(&run),
        CampaignFlavor::Raid5 => verify_raid5(&run),
    };
    CrashPointOutcome {
        cut,
        acked: run.acked.len(),
        pending: run.pending,
        report,
        violations,
    }
}

/// Checks every acknowledged write reads back from its raw data disk.
fn verify_raw(run: &WorkloadRun) -> usize {
    let sectors = u64::from(RAID_CHUNK_SECTORS);
    run.acked
        .iter()
        .filter(|&&(dev, lba, tag)| {
            (0..sectors).any(|s| run.data[dev].peek_sector(lba + s).iter().any(|&b| b != tag))
        })
        .count()
}

/// Checks every acknowledged write reads back through the RAID-5 layout
/// mapping, and that every stripe the workload touched has parity that
/// XORs to zero across the members.
fn verify_raid5(run: &WorkloadRun) -> usize {
    let mut violations = 0;
    for &(_, lba, tag) in &run.acked {
        let bad = raid5_map(RAID_MEMBERS, RAID_CHUNK_SECTORS, lba, RAID_CHUNK_SECTORS)
            .iter()
            .any(|seg| {
                let base = seg.member_lba(RAID_CHUNK_SECTORS);
                (0..u64::from(seg.sectors)).any(|s| {
                    run.data[seg.member]
                        .peek_sector(base + s)
                        .iter()
                        .any(|&b| b != tag)
                })
            });
        if bad {
            violations += 1;
        }
    }
    // Parity invariant: the members never lost power, so even a crash
    // mid-write must leave every touched stripe consistent once the
    // queues drained and recovery replayed through the volume.
    let touched: BTreeSet<u64> = run
        .submitted
        .iter()
        .flat_map(|&(_, lba, _)| {
            raid5_map(RAID_MEMBERS, RAID_CHUNK_SECTORS, lba, RAID_CHUNK_SECTORS)
                .into_iter()
                .map(|seg| seg.stripe)
        })
        .collect();
    let chunk = u64::from(RAID_CHUNK_SECTORS);
    for stripe in touched {
        for off in 0..chunk {
            let mut acc = [0u8; SECTOR_SIZE];
            for member in &run.data {
                let sector = member.peek_sector(stripe * chunk + off);
                for (a, b) in acc.iter_mut().zip(sector.iter()) {
                    *a ^= b;
                }
            }
            if acc.iter().any(|&b| b != 0) {
                violations += 1;
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_is_deterministic_across_thread_counts() {
        let spec = CampaignSpec {
            flavor: CampaignFlavor::RawDisks,
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
            assert_eq!(x.report.total_time(), y.report.total_time());
            assert_eq!(x.violations, 0);
            assert_eq!(y.violations, 0);
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
