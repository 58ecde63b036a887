//! One construction path for every experiment stack.
//!
//! Every harness used to assemble its simulator, disks, drivers, file
//! system, and database by hand, each with slightly different boilerplate.
//! A [`Scenario`] is the declarative description of a stack — disk
//! profiles, the stack's shape ([`TargetKind`]), seed — and
//! [`StackBuilder`] is the fluent way to put one together. [`build`]
//! makes every data device once, as a block target
//! ([`trail_blockio::SharedBlockDevice`]: a queueing driver over a raw
//! disk, or a RAID volume), boots the front end over the targets, mounts
//! the shape's file system, and yields a [`BuiltStack`] whose disks have
//! clean statistics (format and boot noise is reset), ready for
//! measurement; file systems and a database engine also mount on top
//! with one call each.
//!
//! [`build`]: StackBuilder::build
//!
//! ```
//! use trail::{Scenario, StackBuilder};
//!
//! // The paper's testbed: one SCSI log disk over three IDE data disks.
//! let mut built = StackBuilder::new().data_disks(3).trail_default().build()?;
//! assert_eq!(built.multi.as_ref().map(|m| m.drivers().len()), Some(1));
//!
//! // The baseline for the same experiment: no log disk, C-LOOK driver.
//! let base = StackBuilder::new().data_disks(3).standard().build()?;
//! assert!(base.multi.is_none());
//! # Ok::<(), trail::core::TrailError>(())
//! ```

use std::rc::Rc;

use trail_blockio::{Priority, SharedBlockDevice, StandardDriver};
use trail_core::{
    format_log_disk, FormatOptions, MultiTrail, RecoveryReport, TrailConfig, TrailDriver,
    TrailError,
};
use trail_core::{BlockStack, StandardStack};
use trail_db::{Database, DbConfig, StorageService};
use trail_disk::profiles::{self, DriveProfile};
use trail_disk::{Disk, DiskRole, ImagePool};
use trail_fs::{ExtFs, FileHandle, FileSystem, FsError, Lfs, LfsConfig, FS_BLOCK_SIZE};
use trail_sim::{FaultClock, FaultPlan, Simulator};
use trail_volume::{RaidVolume, VolumeLayout};

use crate::target::{Front, Mount, Raid, TargetKind};

/// Data disks in the paper's testbed.
pub(crate) const DATA_DISKS: usize = 3;

/// A declarative description of an experiment stack.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Base RNG seed for whatever workload runs on the stack. The stack
    /// itself is deterministic; this is carried along so a scenario fully
    /// names an experiment.
    pub seed: u64,
    /// Number of data disks.
    pub data_disks: usize,
    /// The data-disk model.
    pub data_profile: DriveProfile,
    /// The log-disk model (used only under a Trail front end).
    pub log_profile: DriveProfile,
    /// The stack's shape: front end, device layer and mount.
    pub shape: TargetKind,
    /// Driver configuration of every Trail instance (threshold,
    /// batching, repositioning…).
    pub config: TrailConfig,
    /// How each fresh log disk is formatted (a δ override for the
    /// lead-sensitivity ablation; calibrated leads by default).
    pub format: FormatOptions,
    /// The fault schedule armed on the built stack. Offsets are relative
    /// to the end of [`build`](Scenario::build) (post-format, post-boot,
    /// post-mount, stats reset) — the instant measurements start.
    pub faults: FaultPlan,
    /// With a mount: the size, in 4-KB blocks, of the workload file
    /// preallocated on each device.
    pub fs_file_blocks: u32,
}

impl Default for Scenario {
    /// The paper's testbed: three WD-Caviar-class IDE data disks behind a
    /// Trail driver on an ST41601N-class SCSI log disk.
    fn default() -> Self {
        Scenario {
            seed: 0,
            data_disks: DATA_DISKS,
            data_profile: profiles::wd_caviar_10gb(),
            log_profile: profiles::seagate_st41601n(),
            shape: TargetKind::Trail,
            config: TrailConfig::default(),
            format: FormatOptions::default(),
            faults: FaultPlan::new(),
            fs_file_blocks: 1024,
        }
    }
}

impl Scenario {
    /// Builds the stack this scenario describes.
    ///
    /// Every data device is made once, as a block target — a
    /// [`StandardDriver`] over one raw disk, or a [`RaidVolume`] over
    /// `members` disks when the shape has a [`Raid`] layer — and the
    /// front end ([`Front`]) is booted over the targets without knowing
    /// which it got: a [`MultiTrail`] over the shape's log disks (one log
    /// is an array of one), or the standard stack. Every driver is C-LOOK;
    /// under Trail every data drive — raw disk or volume member — is also
    /// [`Priority::ReadsFirst`], so reads overtake queued write-backs
    /// (paper §4.3). With a [`Mount`], each device gets a file system and
    /// a preallocated workload file ([`BuiltStack::mounts`]).
    ///
    /// # Errors
    ///
    /// Propagates log-disk format, Trail boot or mount failures; a
    /// workload file the file system cannot hold is
    /// [`TrailError::OutOfRange`].
    pub fn build(&self) -> Result<BuiltStack, TrailError> {
        self.boot(Vec::new(), Vec::new())
    }

    /// The build path, over fresh disks or — for a reboot — over the log
    /// and data disks of an earlier build, in the order it made them,
    /// whose logs boot unformatted (a dirty one recovers) and whose file
    /// systems are not remounted. Every disk of the stack keeps its
    /// images in one pool, so a logged sector and its write-back share
    /// one body.
    fn boot(&self, logs: Vec<Disk>, data: Vec<Disk>) -> Result<BuiltStack, TrailError> {
        let fresh = logs.is_empty() && data.is_empty();
        let pool = logs
            .iter()
            .chain(&data)
            .next()
            .map_or_else(ImagePool::new, Disk::pool);
        let (mut old_logs, mut old_data) = (logs.into_iter(), data.into_iter());
        let mut sim = Simulator::new();
        let mut data_disks: Vec<Disk> = Vec::new();
        let mut drivers: Vec<StandardDriver> = Vec::new();
        let mut volumes: Vec<RaidVolume> = Vec::new();
        let priority = match self.shape.front {
            Front::Standard => Priority::None,
            _ => Priority::ReadsFirst,
        };
        // One target per logical device, shared by every log.
        let targets: Vec<SharedBlockDevice> = {
            let mut disk = |name: String| {
                let d = (old_data.next())
                    .unwrap_or_else(|| Disk::in_pool(name, self.data_profile.clone(), &pool));
                data_disks.push(d.clone());
                let drv = StandardDriver::with_priority(d, priority);
                drivers.push(drv.clone());
                drv
            };
            (0..self.data_disks)
                .map(|dev| match self.shape.raid {
                    None => Rc::new(disk(format!("data{dev}"))) as _,
                    Some(Raid { layout, members }) => {
                        let members = (0..members)
                            .map(|m| disk(format!("data{dev}m{m}")))
                            .collect();
                        let vol = RaidVolume::new(&format!("vol{dev}"), layout, members);
                        volumes.push(vol.clone());
                        Rc::new(vol) as _
                    }
                })
                .collect()
        };
        // The log disks, formatted unless a reboot hands them over.
        let log_disks = (0..self.shape.front.logs())
            .map(|i| match old_logs.next() {
                Some(log) => Ok(log),
                None => {
                    let name = match self.shape.front.logs() {
                        1 => "trail-log".to_string(),
                        _ => format!("log{i}"),
                    };
                    let log = Disk::in_pool(name, self.log_profile.clone(), &pool);
                    format_log_disk(&mut sim, &log, self.format).map(|_| log)
                }
            })
            .collect::<Result<Vec<Disk>, TrailError>>()?;
        let (config, logs) = (self.config, log_disks.clone());
        let (stack, multi, boots): (Rc<dyn BlockStack>, _, _) = match self.shape.front {
            Front::Trail { .. } => {
                let (array, boots) =
                    MultiTrail::start_with_targets(&mut sim, logs, targets.clone(), config)?;
                (Rc::new(array.clone()), Some(array), boots)
            }
            Front::Standard => (Rc::new(StandardStack::over(targets.clone())), None, vec![]),
        };
        let trail = match multi.as_ref().map(MultiTrail::drivers) {
            Some([one]) => Some(one.clone()),
            _ => None,
        };
        // Formatting runs the lead-calibration sweeps, whose
        // under-compensated probes pay full rotations by design; start
        // measurements clean. A reboot's disks keep counting.
        if fresh {
            for d in log_disks.iter().chain(&data_disks) {
                d.reset_stats();
            }
        }
        let mut mounts = Vec::new();
        if let (true, Some(mount)) = (fresh, self.shape.mount) {
            for dev in 0..self.data_disks {
                mounts.push(self.mount(&mut sim, &stack, dev, mount)?);
            }
        }
        // Fault offsets are relative to this instant: post-format,
        // post-boot, post-mount, stats reset — where measurements start.
        let fault_clock = FaultClock::new();
        for (i, d) in data_disks.iter().enumerate() {
            fault_clock.register(d.fault_sink(DiskRole::Data(i)));
        }
        for (i, d) in log_disks.iter().enumerate() {
            fault_clock.register(d.fault_sink(DiskRole::Log(i)));
        }
        for (i, v) in volumes.iter().enumerate() {
            fault_clock.register(v.fault_sink(i));
        }
        fault_clock.arm(&mut sim, &self.faults);
        Ok(BuiltStack {
            sim,
            data_disks,
            drivers,
            log_disk: trail.as_ref().map(TrailDriver::log_disk),
            log_disks,
            trail,
            multi,
            volumes,
            targets,
            stack,
            mounts,
            fault_clock,
            recovered: boots.into_iter().filter_map(|b| b.recovered).collect(),
            scenario: self.clone(),
        })
    }

    /// Mounts a fresh file system on device `dev` and synchronously
    /// writes its whole workload file once, so later reads and overwrites
    /// land on allocated, on-disk blocks.
    fn mount(
        &self,
        sim: &mut Simulator,
        stack: &Rc<dyn BlockStack>,
        dev: usize,
        mount: Mount,
    ) -> Result<(Rc<dyn FileSystem>, FileHandle), TrailError> {
        let blocks = self.fs_file_blocks;
        // On a fresh file system with one file, every error but the
        // stack's own means the file does not fit.
        let storage = |e: FsError| match e {
            FsError::Storage(e) => e,
            _ => TrailError::OutOfRange,
        };
        let fs: Rc<dyn FileSystem> = match mount {
            Mount::Ext2 => {
                Rc::new(ExtFs::format(sim, Rc::clone(stack), dev, blocks + 256).map_err(storage)?)
            }
            Mount::Lfs => Rc::new(Lfs::new(Rc::clone(stack), dev, LfsConfig::default())),
        };
        let file = fs.create("replay").map_err(storage)?;
        let zeros = vec![0u8; blocks as usize * FS_BLOCK_SIZE];
        sim.block_on(|sim, done| fs.write(sim, file, 0, zeros, true, done))
            .and_then(|delivered| delivered.unwrap_or_else(|e| Err(FsError::Storage(e.into()))))
            .map_err(storage)?;
        while fs.pending_work() > 0 {
            assert!(sim.step(), "a fresh file system drains its preallocation");
        }
        Ok((fs, file))
    }
}

/// Fluent construction of a [`Scenario`]. It prints and parses as a spec
/// in the grammar of [`TargetKind`] (`raid5x3_trail,disks=1,tiny`).
#[derive(Clone, Debug, Default)]
pub struct StackBuilder {
    scenario: Scenario,
}

impl StackBuilder {
    /// Starts from the paper's default testbed (see [`Scenario::default`]).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the workload seed carried by the scenario.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.scenario.seed = seed;
        self
    }

    /// Sets the number of data disks.
    #[must_use]
    pub fn data_disks(mut self, n: usize) -> Self {
        self.scenario.data_disks = n;
        self
    }

    /// Sets the data-disk model.
    #[must_use]
    pub fn data_profile(mut self, profile: DriveProfile) -> Self {
        self.scenario.data_profile = profile;
        self
    }

    /// Sets the log-disk model.
    #[must_use]
    pub fn log_profile(mut self, profile: DriveProfile) -> Self {
        self.scenario.log_profile = profile;
        self
    }

    /// Sets the whole shape: front end, device layer and mount.
    #[must_use]
    pub fn shape(mut self, shape: TargetKind) -> Self {
        self.scenario.shape = shape;
        self
    }

    /// Fronts the data disks with a Trail log device.
    #[must_use]
    pub fn trail(self, config: TrailConfig) -> Self {
        self.trail_multi(1, config)
    }

    /// Fronts the data disks with a default-configured Trail log device.
    #[must_use]
    pub fn trail_default(self) -> Self {
        self.trail(TrailConfig::default())
    }

    /// Fronts the data disks with a Trail array of `logs` log disks
    /// (raised to at least 1).
    #[must_use]
    pub fn trail_multi(mut self, logs: usize, config: TrailConfig) -> Self {
        self.scenario.shape.front = Front::Trail { logs: logs.max(1) };
        self.scenario.config = config;
        self
    }

    /// Uses the standard disk subsystem (no log device).
    #[must_use]
    pub fn standard(mut self) -> Self {
        self.scenario.shape.front = Front::Standard;
        self
    }

    /// Backs every device with a RAID volume of `members` member disks
    /// (at least the layout's minimum) instead of one raw disk.
    #[must_use]
    pub fn volumes(mut self, layout: VolumeLayout, members: usize) -> Self {
        self.scenario.shape.raid = Some(Raid { layout, members });
        self
    }

    /// Sets the size, in 4-KB blocks, of the per-device workload file a
    /// mounted shape drives requests into (default 1024, raised to at
    /// least 64).
    #[must_use]
    pub fn fs_file_blocks(mut self, blocks: u32) -> Self {
        self.scenario.fs_file_blocks = blocks.max(64);
        self
    }

    /// Formats each fresh log disk with `options` (see
    /// [`Scenario::format`]).
    #[must_use]
    pub fn format(mut self, options: FormatOptions) -> Self {
        self.scenario.format = options;
        self
    }

    /// Arms a fault schedule on the built stack (see [`Scenario::faults`]).
    /// Offsets are relative to the end of `build`.
    #[must_use]
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.scenario.faults = plan;
        self
    }

    /// The scenario described so far.
    #[must_use]
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Builds the stack.
    ///
    /// # Errors
    ///
    /// Propagates log-disk format, Trail boot or mount failures.
    pub fn build(self) -> Result<BuiltStack, TrailError> {
        self.scenario.build()
    }

    /// Builds the stack `kind` names, ready to drive; the builder's disk
    /// profiles, seed and everything else apply.
    ///
    /// # Errors
    ///
    /// As [`build`](StackBuilder::build).
    pub fn build_target(self, kind: TargetKind) -> Result<BuiltStack, TrailError> {
        self.shape(kind).build()
    }
}

/// A running stack produced by [`StackBuilder::build`].
pub struct BuiltStack {
    /// The simulator (virtual time).
    pub sim: Simulator,
    /// The data disks, in device order.
    pub data_disks: Vec<Disk>,
    /// The queueing driver over each of [`data_disks`](Self::data_disks),
    /// in the same order (a RAID member's included): its
    /// [`DriverStats`](trail_blockio::DriverStats) count the requests and
    /// the disk commands they went out in.
    pub drivers: Vec<StandardDriver>,
    /// `log_disks[0]` when the stack runs a single-log Trail.
    pub log_disk: Option<Disk>,
    /// All log disks, in instance order: one per log of a [`Front::Trail`],
    /// none under [`Front::Standard`].
    pub log_disks: Vec<Disk>,
    /// `multi`'s one instance when the stack runs Trail over a single log.
    /// It stays only because the repo benchmark reads it; ROADMAP item 13
    /// deletes it.
    pub trail: Option<TrailDriver>,
    /// The Trail array on every Trail stack, one instance per log disk
    /// (a single log is an array of one); `None` under
    /// [`Front::Standard`].
    pub multi: Option<MultiTrail>,
    /// The RAID volumes, when the shape has a [`Raid`] layer, in device
    /// order. Empty otherwise. Their member disks are
    /// [`data_disks`](BuiltStack::data_disks).
    pub volumes: Vec<RaidVolume>,
    /// The block target behind each device, in device order: a
    /// [`StandardDriver`] over `data_disks[dev]` or the volume
    /// `volumes[dev]`, shared by every log of a Trail array.
    pub targets: Vec<SharedBlockDevice>,
    /// The block stack (the Trail array, or the standard stack) the upper
    /// layers submit to.
    pub stack: Rc<dyn BlockStack>,
    /// With a [`Mount`]: the file system and its preallocated workload
    /// file, per device in device order. Empty otherwise.
    pub mounts: Vec<(Rc<dyn FileSystem>, FileHandle)>,
    /// The fault clock the scenario's [`FaultPlan`] was armed on, with
    /// every disk and volume registered. Harnesses may register extra
    /// sinks (e.g. a crash-campaign flag) before the faults fire, and can
    /// inspect [`fired`](FaultClock::fired) /
    /// [`unhandled`](FaultClock::unhandled) afterwards.
    pub fault_clock: FaultClock,
    /// Recovery at boot, one report per dirty log (none on fresh logs).
    pub recovered: Vec<RecoveryReport>,
    /// The scenario this stack was built from (its seed names the
    /// workload).
    pub scenario: Scenario,
}

impl BuiltStack {
    /// How requests to device `dev` are addressed: with a mount, the
    /// length of its workload file in 4-KB blocks; otherwise the capacity
    /// of its block target in sectors.
    #[must_use]
    pub fn span(&self, dev: usize) -> u64 {
        if self.mounts.is_empty() {
            self.targets[dev].capacity_sectors()
        } else {
            u64::from(self.scenario.fs_file_blocks)
        }
    }

    /// Powers the disks back on after a cut and boots the same scenario
    /// over them through the one build path — no format, no mount, no
    /// faults armed, no stats reset — so each dirty log recovers
    /// ([`recovered`]). A failed disk stays failed and a plan's transient
    /// charges survive, so a reboot can fail; rebooting again goes on
    /// from there.
    ///
    /// [`recovered`]: Self::recovered
    ///
    /// # Errors
    ///
    /// Propagates boot and recovery errors ([`TrailError::Io`]).
    pub fn reboot(&self) -> Result<BuiltStack, TrailError> {
        let disks = [&self.log_disks[..], &self.data_disks[..]].concat();
        disks.iter().for_each(Disk::power_on);
        let faults = FaultPlan::new();
        let scenario = Scenario {
            faults,
            ..self.scenario.clone()
        };
        scenario.boot(self.log_disks.clone(), self.data_disks.clone())
    }

    /// Installs a workload-capture tap on the stack (see
    /// [`trail_blockio::SubmitTap`]): every request [`BuiltStack::stack`]
    /// accepts — directly, through a mounted file system, or through the
    /// database engine — is reported to the tap once, at its arrival
    /// instant, which is how `trail-trace` records a scenario's workload.
    pub fn set_tap(&self, tap: trail_blockio::TapHandle) {
        self.stack.set_tap(tap);
    }

    /// Formats an ext2-like file system on device `dev` and mounts it.
    ///
    /// # Errors
    ///
    /// Propagates format failures ([`FsError`]).
    pub fn extfs(&mut self, dev: usize, capacity_blocks: u32) -> Result<ExtFs, FsError> {
        ExtFs::format(&mut self.sim, Rc::clone(&self.stack), dev, capacity_blocks)
    }

    /// Mounts a log-structured file system on device `dev`.
    #[must_use]
    pub fn lfs(&self, dev: usize, config: LfsConfig) -> Lfs {
        Lfs::new(Rc::clone(&self.stack), dev, config)
    }

    /// Opens a transactional engine over the stack.
    #[must_use]
    pub fn database(&self, config: DbConfig) -> Database {
        Database::new(Rc::clone(&self.stack), config)
    }

    /// Opens the serving layer's storage adapter over the stack, one
    /// capacity per device: its block target's, a RAID volume's included.
    #[must_use]
    pub fn service(&self) -> StorageService {
        let capacity = self.targets.iter().map(|t| t.capacity_sectors()).collect();
        StorageService::new(Rc::clone(&self.stack), capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trail_fs::FileSystem;

    #[test]
    fn default_scenario_builds_trail() {
        let built = StackBuilder::new().build().expect("build");
        assert_eq!(built.multi.as_ref().map(|m| m.drivers().len()), Some(1));
        assert_eq!(built.log_disks.len(), 1);
        assert_eq!(built.data_disks.len(), 3);
        // Boot noise is reset: measurements start clean.
        assert_eq!(built.log_disks[0].with_stats(|s| s.writes), 0);
    }

    #[test]
    fn standard_scenario_has_no_log_device() {
        let built = StackBuilder::new()
            .standard()
            .data_disks(1)
            .seed(7)
            .build()
            .expect("build");
        assert!(built.multi.is_none());
        assert_eq!(built.scenario.seed, 7);
    }

    /// Each front end over each device layer, two tiny data disks: disks
    /// and volumes in device order, and one queueing driver per physical
    /// disk.
    #[test]
    fn one_build_path_shapes_every_front_end_over_every_device_kind() {
        crate::target::tests::assert_specs_build_as_named(&[
            ("standard,disks=2,tiny", &[], &[]),
            ("trail,disks=2,tiny", &["trail-log"], &[]),
            ("trail_multi2,disks=2,tiny", &["log0", "log1"], &[]),
            ("raid5x3,disks=2,tiny", &[], &["vol0", "vol1"]),
            (
                "raid5x3_trail,disks=2,tiny",
                &["trail-log"],
                &["vol0", "vol1"],
            ),
            (
                "raid5x3_trail_multi2,disks=2,tiny",
                &["log0", "log1"],
                &["vol0", "vol1"],
            ),
        ]);
    }

    #[test]
    fn every_disk_of_a_stack_shares_one_image_pool() {
        let stacks = [
            "trail,disks=2,tiny",
            "trail_multi2,disks=2,tiny",
            "raid5x3_trail,disks=2,tiny",
            "standard,disks=2,tiny",
        ];
        let mut pools: Vec<ImagePool> = Vec::new();
        for name in stacks {
            let builder: StackBuilder = name.parse().expect("spec parses");
            let built = builder.build().unwrap_or_else(|e| panic!("{name}: {e}"));
            let disks = [&built.log_disks[..], &built.data_disks[..]].concat();
            let pool = disks[0].pool();
            for d in &disks {
                assert!(ImagePool::ptr_eq(&d.pool(), &pool), "{name}: {}", d.name());
            }
            // A reboot stays on the stack's pool; every build has its own.
            let rebooted = built.reboot().expect("clean reboot");
            assert!(ImagePool::ptr_eq(&rebooted.data_disks[0].pool(), &pool));
            assert!(!pools.iter().any(|p| ImagePool::ptr_eq(p, &pool)), "{name}");
            pools.push(pool);
        }
    }

    #[test]
    fn armed_fault_plan_cuts_the_whole_stack() {
        use trail_sim::SimDuration;
        let mut built = StackBuilder::new()
            .data_disks(2)
            .data_profile(profiles::tiny_test_disk())
            .log_profile(profiles::tiny_test_disk())
            .faults(FaultPlan::power_cut_at(SimDuration::from_millis(5)))
            .build()
            .expect("build");
        assert_eq!(built.fault_clock.armed(), 1);
        built.sim.run();
        assert_eq!(built.fault_clock.fired(), 1);
        assert_eq!(built.fault_clock.unhandled(), 0);
        assert!(built.data_disks.iter().all(|d| !d.is_powered()));
        assert!(!built.log_disks[0].is_powered());
    }

    #[test]
    fn reads_overtake_queued_write_backs_on_trail_fronted_volume_members() {
        use std::cell::Cell;
        use trail_sim::Delivered;
        // `(overtook, queued)`: of the writes still queued on the first
        // data disk (a volume's member 0) when a read was submitted behind
        // them, how many completed first.
        let overtaking_writes = |front: fn(StackBuilder) -> StackBuilder, raid: bool| {
            let b = StackBuilder::new()
                .data_disks(1)
                .data_profile(profiles::tiny_test_disk())
                .log_profile(profiles::tiny_test_disk());
            let b = if raid {
                b.volumes(VolumeLayout::Raid5 { chunk_sectors: 8 }, 3)
            } else {
                b
            };
            let mut built = front(b).build().expect("build");
            let sim = &mut built.sim;
            let (vol, drv) = (built.volumes.first().cloned(), built.drivers[0].clone());
            let writes = 24;
            // Spread over the device: a volume is twice a disk.
            let stride = if raid { 256 } else { 128 };
            for i in 0..writes {
                let done = sim.completion(|_, d: Delivered<_>| {
                    d.expect("write completes");
                });
                let data = vec![i as u8; 2 * trail_disk::SECTOR_SIZE];
                built
                    .stack
                    .write(sim, 0, 1024 + i * stride, data, done)
                    .unwrap();
            }
            // Wait until every write has queued its disk writes: on a
            // volume once it has read its stripe's other chunk, on a raw
            // disk once it reached the driver (under Trail both happen to
            // write-backs, once their log record is down).
            let issued = || match &vol {
                Some(vol) => vol.with_stats(|s| {
                    s.members
                        .iter()
                        .map(|m| m.read_latency.count())
                        .sum::<u64>()
                }),
                None => drv.with_stats(|s| s.submitted),
            };
            while issued() < writes {
                assert!(sim.step(), "every write reaches the data disk");
            }
            // The read (lba 0, on member 0) sits below every queued write,
            // where C-LOOK alone would reach it last.
            let disk = built.data_disks[0].clone();
            let disk_writes = move || disk.with_stats(|s| s.writes);
            let before = disk_writes();
            let at_read = Rc::new(Cell::new(0));
            let (at_read2, count) = (Rc::clone(&at_read), disk_writes.clone());
            let done = sim.completion(move |_, d: Delivered<_>| {
                d.expect("read completes");
                at_read2.set(count());
            });
            built.stack.read(sim, 0, 0, 2, done).unwrap();
            sim.run();
            (at_read.get() - before, disk_writes() - before)
        };
        // Under Trail only the write already under the head finishes
        // first; the standard stack's read waits out the whole sweep.
        for raid in [true, false] {
            let (overtook, queued) = overtaking_writes(StackBuilder::trail_default, raid);
            assert!(
                queued > 1 && overtook <= 1,
                "raid {raid}: {overtook} of {queued}"
            );
            let (overtook, queued) = overtaking_writes(StackBuilder::standard, raid);
            assert!(
                queued > 1 && overtook == queued,
                "raid {raid}: {overtook} of {queued}"
            );
        }
    }

    #[test]
    fn member_fault_degrades_the_volume() {
        use trail_sim::SimDuration;
        let mut built = StackBuilder::new()
            .standard()
            .data_disks(1)
            .data_profile(profiles::tiny_test_disk())
            .volumes(
                VolumeLayout::Raid1 {
                    read_policy: trail_volume::ReadPolicy::RoundRobin,
                },
                2,
            )
            .faults(FaultPlan::member_fail(0, 1, SimDuration::from_millis(2)))
            .build()
            .expect("build");
        built.sim.run();
        assert_eq!(built.fault_clock.unhandled(), 0);
        assert_eq!(built.volumes[0].failed_members(), vec![1]);
    }

    #[test]
    fn filesystems_and_database_mount_on_a_built_stack() {
        let mut built = StackBuilder::new()
            .standard()
            .data_disks(1)
            .build()
            .unwrap();
        let fs = built.extfs(0, 10_000).expect("format extfs");
        let _ = fs.create("x").expect("create");
        let lfs = built.lfs(0, LfsConfig::default());
        let _ = lfs.create("y").expect("create");
    }
}
