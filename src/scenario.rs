//! One construction path for every experiment stack.
//!
//! Every harness used to assemble its simulator, disks, drivers, file
//! system, and database by hand, each with slightly different boilerplate.
//! A [`Scenario`] is the declarative description of a stack — disk
//! profiles, Trail-vs-standard log device, seed — and
//! [`StackBuilder`] is the fluent way to put one together. [`build`]
//! makes every data device once, as a block target
//! ([`trail_blockio::SharedBlockDevice`]: a queueing driver over a raw
//! disk, or a RAID volume), boots the front end over the targets, and
//! yields a [`BuiltStack`] whose disks have clean statistics (format and
//! boot noise is reset), ready for measurement; file systems and a
//! database engine mount on top with one call each.
//!
//! [`build`]: StackBuilder::build
//!
//! ```
//! use trail::{Scenario, StackBuilder};
//!
//! // The paper's testbed: one SCSI log disk over three IDE data disks.
//! let mut built = StackBuilder::new().data_disks(3).trail_default().build()?;
//! assert!(built.trail.is_some());
//!
//! // The baseline for the same experiment: no log disk, C-LOOK driver.
//! let base = StackBuilder::new().data_disks(3).standard().build()?;
//! assert!(base.trail.is_none());
//! # Ok::<(), trail::core::TrailError>(())
//! ```

use std::rc::Rc;

use trail_blockio::{Clook, Priority, SharedBlockDevice, StandardDriver};
use trail_core::{
    format_log_disk, FormatOptions, MultiTrail, TrailConfig, TrailDriver, TrailError,
};
use trail_db::{BlockStack, Database, DbConfig, StandardStack};
use trail_disk::profiles::{self, DriveProfile};
use trail_disk::{Disk, DiskRole};
use trail_fs::{ExtFs, FsError, Lfs, LfsConfig};
use trail_sim::{FaultClock, FaultPlan, Simulator};
use trail_volume::{RaidVolume, VolumeLayout};

/// Which log device fronts the data disks.
#[derive(Clone, Debug)]
pub enum LogDevice {
    /// Trail: a dedicated log disk absorbs synchronous writes (the
    /// paper's subsystem).
    Trail {
        /// Driver configuration (threshold, batching, δ policy…).
        config: TrailConfig,
    },
    /// A Trail array (paper §6): one Trail instance per log disk, routed
    /// by [`trail_core::LogRouting`], sharing the data disks.
    TrailMulti {
        /// Number of log disks (raised to at least 1).
        logs: usize,
        /// Driver configuration shared by every instance.
        config: TrailConfig,
    },
    /// The standard disk subsystem: writes pay full seek + rotation at
    /// their target addresses.
    Standard,
}

/// A RAID volume layer under the stack: each logical device becomes a
/// `trail-volume` array over its own set of member disks instead of one
/// raw disk.
#[derive(Clone, Copy, Debug)]
pub struct VolumeSpec {
    /// The array layout (linear, RAID-0/1/5).
    pub layout: VolumeLayout,
    /// Member disks per volume (must satisfy the layout's minimum).
    pub members: usize,
    /// With [`LogDevice::TrailMulti`]: give every Trail instance its
    /// **own** volume set instead of sharing one, so each routed stream's
    /// data lands on its own member disks (per-stream target devices).
    /// Coherent because routing is deterministic: a block — or, under
    /// stream affinity, a stream — always reaches the same instance and
    /// therefore the same array.
    pub per_instance: bool,
}

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
    /// The log-disk model (used only with [`LogDevice::Trail`]).
    pub log_profile: DriveProfile,
    /// Trail or the baseline.
    pub log_device: LogDevice,
    /// When set, each device is a RAID volume over `members` disks of
    /// [`data_profile`](Scenario::data_profile) instead of one raw disk.
    pub volume: Option<VolumeSpec>,
    /// The fault schedule armed on the built stack. Offsets are relative
    /// to the end of [`build`](Scenario::build) (post-format, post-boot,
    /// stats reset) — the instant measurements start.
    pub faults: FaultPlan,
}

impl Default for Scenario {
    /// The paper's testbed: three WD-Caviar-class IDE data disks behind a
    /// Trail driver on an ST41601N-class SCSI log disk.
    fn default() -> Self {
        Scenario {
            seed: 0,
            data_disks: 3,
            data_profile: profiles::wd_caviar_10gb(),
            log_profile: profiles::seagate_st41601n(),
            log_device: LogDevice::Trail {
                config: TrailConfig::default(),
            },
            volume: None,
            faults: FaultPlan::new(),
        }
    }
}

impl Scenario {
    /// Builds the stack this scenario describes.
    ///
    /// Every data device is made once, as a block target — a
    /// [`StandardDriver`] over one raw disk, or a [`RaidVolume`] over
    /// `members` disks when the scenario has a [`VolumeSpec`] — and the
    /// front end ([`LogDevice`]) is booted over the targets without
    /// knowing which it got. Every driver is C-LOOK; under a Trail or
    /// Trail-array front end every data drive — raw disk or volume member
    /// — is also [`Priority::ReadsFirst`], so reads overtake queued
    /// write-backs (paper §4.3).
    ///
    /// # Errors
    ///
    /// Propagates log-disk format or Trail boot failures.
    pub fn build(&self) -> Result<BuiltStack, TrailError> {
        let mut sim = Simulator::new();
        let mut data_disks: Vec<Disk> = Vec::new();
        let mut volumes: Vec<RaidVolume> = Vec::new();
        let priority = match self.log_device {
            LogDevice::Standard => Priority::None,
            _ => Priority::ReadsFirst,
        };
        // One target per logical device; `tag` distinguishes per-instance
        // volume sets under a Trail array.
        let mut make_set = |tag: &str| -> Vec<SharedBlockDevice> {
            let mut disk = |name: String| {
                let d = Disk::new(name, self.data_profile.clone());
                data_disks.push(d.clone());
                StandardDriver::with_policy(d, Box::new(Clook::default()), priority)
            };
            (0..self.data_disks)
                .map(|dev| match self.volume {
                    None => Rc::new(disk(format!("data{dev}"))) as _,
                    Some(spec) => {
                        let members = (0..spec.members)
                            .map(|m| disk(format!("data{dev}{tag}m{m}")))
                            .collect();
                        let vol = RaidVolume::new(&format!("vol{dev}{tag}"), spec.layout, members);
                        volumes.push(vol.clone());
                        Rc::new(vol) as _
                    }
                })
                .collect()
        };
        let mut log_disks: Vec<Disk> = Vec::new();
        let mut format_log = |sim: &mut Simulator, name: String| -> Result<Disk, TrailError> {
            let log = Disk::new(name, self.log_profile.clone());
            format_log_disk(sim, &log, FormatOptions::default())?;
            log_disks.push(log.clone());
            Ok(log)
        };
        let (stack, trail, multi, targets): (Rc<dyn BlockStack>, _, _, _) = match &self.log_device {
            LogDevice::Trail { config } => {
                let targets = make_set("");
                let log = format_log(&mut sim, "trail-log".to_string())?;
                let (drv, _) =
                    TrailDriver::start_with_targets(&mut sim, log, targets.clone(), *config)?;
                (Rc::new(drv.clone()), Some(drv), None, targets)
            }
            LogDevice::TrailMulti { logs, config } => {
                let logs = (*logs).max(1);
                let formatted = (0..logs)
                    .map(|i| format_log(&mut sim, format!("log{i}")))
                    .collect::<Result<Vec<Disk>, _>>()?;
                // Per-instance sets are instance-major in `data_disks` and
                // `volumes`; a shared set hands every instance clones of
                // the same `Rc` targets, so each physical disk keeps
                // exactly one queueing driver.
                let sets: Vec<Vec<SharedBlockDevice>> =
                    if self.volume.is_some_and(|spec| spec.per_instance) {
                        (0..logs).map(|i| make_set(&format!("i{i}"))).collect()
                    } else {
                        vec![make_set(""); logs]
                    };
                let first = sets[0].clone();
                let (array, _) =
                    MultiTrail::start_with_targets(&mut sim, formatted, sets, *config)?;
                (Rc::new(array.clone()), None, Some(array), first)
            }
            LogDevice::Standard => {
                let targets = make_set("");
                (
                    Rc::new(StandardStack::over(targets.clone())),
                    None,
                    None,
                    targets,
                )
            }
        };
        // Formatting runs the δ-calibration sweep, whose under-compensated
        // probes pay full rotations by design; start measurements clean.
        for d in log_disks.iter().chain(&data_disks) {
            d.reset_stats();
        }
        // Fault offsets are relative to this instant: post-format,
        // post-boot, stats reset — where measurements start.
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
            seed: self.seed,
            sim,
            data_disks,
            log_disk: trail.as_ref().map(TrailDriver::log_disk),
            log_disks,
            trail,
            multi,
            volumes,
            targets,
            stack,
            fault_clock,
        })
    }
}

/// Fluent construction of a [`Scenario`].
#[derive(Clone, Debug, Default)]
pub struct StackBuilder {
    scenario: Scenario,
    /// File size for file-system targets; see
    /// [`fs_file_blocks`](StackBuilder::fs_file_blocks) in `target.rs`.
    pub(crate) fs_file_blocks: Option<u32>,
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

    /// Fronts the data disks with a Trail log device.
    #[must_use]
    pub fn trail(mut self, config: TrailConfig) -> Self {
        self.scenario.log_device = LogDevice::Trail { config };
        self
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
        self.scenario.log_device = LogDevice::TrailMulti { logs, config };
        self
    }

    /// Uses the standard disk subsystem (no log device).
    #[must_use]
    pub fn standard(mut self) -> Self {
        self.scenario.log_device = LogDevice::Standard;
        self
    }

    /// Backs every device with a RAID volume of `members` member disks
    /// instead of one raw disk (see [`VolumeSpec`]).
    #[must_use]
    pub fn volumes(mut self, layout: VolumeLayout, members: usize) -> Self {
        self.scenario.volume = Some(VolumeSpec {
            layout,
            members,
            per_instance: false,
        });
        self
    }

    /// With [`trail_multi`](StackBuilder::trail_multi) volumes: each Trail
    /// instance gets its own volume set (per-stream target devices).
    ///
    /// # Panics
    ///
    /// Panics if called before [`volumes`](StackBuilder::volumes).
    #[must_use]
    pub fn per_instance_volumes(mut self) -> Self {
        self.scenario
            .volume
            .as_mut()
            .expect("per_instance_volumes requires volumes(..) first")
            .per_instance = true;
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
    /// Propagates log-disk format or Trail boot failures.
    pub fn build(self) -> Result<BuiltStack, TrailError> {
        self.scenario.build()
    }
}

/// A running stack produced by [`StackBuilder::build`].
pub struct BuiltStack {
    /// The scenario's workload seed, carried through for the harness.
    pub seed: u64,
    /// The simulator (virtual time).
    pub sim: Simulator,
    /// The data disks, in device order.
    pub data_disks: Vec<Disk>,
    /// The Trail log disk, when the scenario runs on a single-log Trail.
    pub log_disk: Option<Disk>,
    /// All log disks, in instance order (one for [`LogDevice::Trail`],
    /// several for [`LogDevice::TrailMulti`], none for
    /// [`LogDevice::Standard`]).
    pub log_disks: Vec<Disk>,
    /// The Trail driver, when the scenario runs on a single-log Trail.
    pub trail: Option<TrailDriver>,
    /// The Trail array, when the scenario runs on
    /// [`LogDevice::TrailMulti`].
    pub multi: Option<MultiTrail>,
    /// The RAID volumes, when the scenario has a [`VolumeSpec`] — in
    /// device order; with per-instance volumes, instance-major
    /// (`volumes[i * devices + dev]`). Empty otherwise. Their member
    /// disks are [`data_disks`](BuiltStack::data_disks).
    pub volumes: Vec<RaidVolume>,
    /// The block target behind each device, in device order: a
    /// [`StandardDriver`] over `data_disks[dev]` or the volume
    /// `volumes[dev]`. With per-instance volumes, the first instance's
    /// set (every set has the same shape).
    pub targets: Vec<SharedBlockDevice>,
    /// The block stack (Trail, Trail array, or standard) the upper layers
    /// submit to.
    pub stack: Rc<dyn BlockStack>,
    /// The fault clock the scenario's [`FaultPlan`] was armed on, with
    /// every disk and volume registered. Harnesses may register extra
    /// sinks (e.g. a crash-campaign flag) before the faults fire, and can
    /// inspect [`fired`](FaultClock::fired) /
    /// [`unhandled`](FaultClock::unhandled) afterwards.
    pub fault_clock: FaultClock,
}

impl BuiltStack {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use trail_fs::FileSystem;

    #[test]
    fn default_scenario_builds_trail() {
        let built = StackBuilder::new().build().expect("build");
        assert!(built.trail.is_some());
        assert!(built.log_disk.is_some());
        assert_eq!(built.data_disks.len(), 3);
        // Boot noise is reset: measurements start clean.
        assert_eq!(built.log_disk.unwrap().with_stats(|s| s.writes), 0);
    }

    #[test]
    fn standard_scenario_has_no_log_device() {
        let built = StackBuilder::new()
            .standard()
            .data_disks(1)
            .seed(7)
            .build()
            .expect("build");
        assert!(built.trail.is_none());
        assert_eq!(built.seed, 7);
    }

    #[test]
    fn one_build_path_shapes_every_front_end_over_every_device_kind() {
        #[derive(Clone, Copy, PartialEq, Debug)]
        enum Front {
            Trail,
            Multi,
            Standard,
        }
        #[derive(Clone, Copy, PartialEq, Debug)]
        enum Devices {
            Raw,
            Raid5,
            Raid5PerInstance,
        }
        for front in [Front::Trail, Front::Multi, Front::Standard] {
            for devices in [Devices::Raw, Devices::Raid5, Devices::Raid5PerInstance] {
                if devices == Devices::Raid5PerInstance && front != Front::Multi {
                    continue; // per-instance sets exist only under a Trail array
                }
                let b = StackBuilder::new()
                    .data_disks(2)
                    .data_profile(profiles::tiny_test_disk())
                    .log_profile(profiles::tiny_test_disk());
                let b = match front {
                    Front::Trail => b.trail_default(),
                    Front::Multi => b.trail_multi(2, TrailConfig::default()),
                    Front::Standard => b.standard(),
                };
                let raid5 = VolumeLayout::Raid5 { chunk_sectors: 8 };
                let b = match devices {
                    Devices::Raw => b,
                    Devices::Raid5 => b.volumes(raid5, 3),
                    Devices::Raid5PerInstance => b.volumes(raid5, 3).per_instance_volumes(),
                };
                let built = b
                    .build()
                    .unwrap_or_else(|e| panic!("{front:?}/{devices:?}: {e}"));
                let case = format!("{front:?} over {devices:?}");

                // Disks and volumes: device order, instance-major.
                let tags: &[&str] = match devices {
                    Devices::Raw => &[],
                    Devices::Raid5 => &[""],
                    Devices::Raid5PerInstance => &["i0", "i1"],
                };
                let mut disk_names: Vec<String> = Vec::new();
                let mut volume_names: Vec<String> = Vec::new();
                for tag in tags {
                    for dev in 0..2 {
                        volume_names.push(format!("vol{dev}{tag}"));
                        disk_names.extend((0..3).map(|m| format!("data{dev}{tag}m{m}")));
                    }
                }
                if devices == Devices::Raw {
                    disk_names = vec!["data0".to_string(), "data1".to_string()];
                }
                let names = |disks: &[Disk]| disks.iter().map(Disk::name).collect::<Vec<_>>();
                assert_eq!(names(&built.data_disks), disk_names, "{case}");
                assert_eq!(
                    built
                        .volumes
                        .iter()
                        .map(RaidVolume::name)
                        .collect::<Vec<_>>(),
                    volume_names,
                    "{case}"
                );
                let log_names: &[&str] = match front {
                    Front::Trail => &["trail-log"],
                    Front::Multi => &["log0", "log1"],
                    Front::Standard => &[],
                };
                assert_eq!(names(&built.log_disks), log_names, "{case}");

                // The front end, and what it reports about itself.
                assert_eq!(built.stack.devices(), 2, "{case}");
                assert_eq!(built.targets.len(), 2, "{case}");
                assert_eq!(built.log_disk.is_some(), front == Front::Trail, "{case}");
                assert_eq!(built.trail.is_some(), front == Front::Trail, "{case}");
                assert_eq!(built.multi.is_some(), front == Front::Multi, "{case}");
                for dev in 0..2 {
                    if let Some(trail) = &built.trail {
                        assert!(Rc::ptr_eq(&trail.data_target(dev), &built.targets[dev]));
                    }
                    // One queueing driver per physical disk: instances
                    // over a shared set hold the very same targets;
                    // per-instance sets are distinct arrays.
                    if let Some(multi) = &built.multi {
                        let [a, b] = [0, 1].map(|i| multi.drivers()[i].data_target(dev));
                        assert!(Rc::ptr_eq(&a, &built.targets[dev]), "{case}");
                        assert_eq!(
                            Rc::ptr_eq(&a, &b),
                            devices != Devices::Raid5PerInstance,
                            "{case}"
                        );
                    }
                }
            }
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
        assert!(!built.log_disk.as_ref().unwrap().is_powered());
    }

    #[test]
    fn reads_overtake_queued_write_backs_on_trail_fronted_volume_members() {
        use std::cell::Cell;
        use trail_sim::Delivered;
        // `(overtook, queued)`: of the writes still queued on a volume
        // member when a read was submitted behind them, how many completed
        // first.
        let overtaking_writes = |front: fn(StackBuilder) -> StackBuilder| -> (usize, usize) {
            let b = StackBuilder::new()
                .data_disks(1)
                .data_profile(profiles::tiny_test_disk())
                .log_profile(profiles::tiny_test_disk())
                .volumes(VolumeLayout::Raid5 { chunk_sectors: 8 }, 3);
            let mut built = front(b).build().expect("build");
            let sim = &mut built.sim;
            let vol = built.volumes[0].clone();
            let writes = 24;
            for i in 0..writes {
                let done = sim.completion(|_, d: Delivered<_>| {
                    d.expect("write completes");
                });
                let data = vec![i as u8; 2 * trail_disk::SECTOR_SIZE];
                built
                    .stack
                    .write(sim, 0, 1024 + i * 256, data, done)
                    .unwrap();
            }
            // Wait until every write has read its stripe's other chunk and
            // queued its data and parity writes on the members (under
            // Trail they reach the volume as write-backs, once their log
            // record is down).
            let member_reads = || -> usize {
                vol.with_stats(|s| s.members.iter().map(|m| m.read_latency.count()).sum())
            };
            while member_reads() < writes as usize {
                assert!(sim.step(), "every write reaches the volume");
            }
            // The read (lba 0, on member 0) sits below every queued write,
            // where C-LOOK alone would reach it last.
            let member0_writes = move || vol.with_stats(|s| s.members[0].write_latency.count());
            let before = member0_writes();
            let at_read = Rc::new(Cell::new(0));
            let (at_read2, count) = (Rc::clone(&at_read), member0_writes.clone());
            let done = sim.completion(move |_, d: Delivered<_>| {
                d.expect("read completes");
                at_read2.set(count());
            });
            built.stack.read(sim, 0, 0, 2, done).unwrap();
            sim.run();
            (at_read.get() - before, member0_writes() - before)
        };
        // Under Trail only the write already under the head finishes
        // first; the standard stack's read waits out the whole sweep.
        let (overtook, queued) = overtaking_writes(StackBuilder::trail_default);
        assert!(queued > 1 && overtook <= 1, "{overtook} of {queued}");
        let (overtook, queued) = overtaking_writes(StackBuilder::standard);
        assert!(queued > 1 && overtook == queued, "{overtook} of {queued}");
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
