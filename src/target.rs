//! The one factory for replayable experiment targets.
//!
//! Benchmarks and the trace-replay engine drive the same five stacks —
//! the standard subsystem, Trail, a Trail array, and the two file
//! systems over either block stack. [`TargetKind`] names a stack,
//! [`StackBuilder::build_target`] constructs it (formats, boots, mounts,
//! preallocates), and [`BuiltTarget`] is the result: a simulator, the
//! block stack for recorder/tap installation, and a [`TargetDrive`]
//! describing how requests are addressed to it. Keeping construction
//! here means a scenario in `trail-bench` and a replay in `trail-trace`
//! measure *exactly* the same stack.
//!
//! ```
//! use trail::{StackBuilder, TargetKind};
//!
//! let t = StackBuilder::new()
//!     .data_disks(2)
//!     .build_target(TargetKind::Trail)?;
//! assert_eq!(t.stack.devices(), 2);
//! # Ok::<(), trail::TargetError>(())
//! ```

use std::fmt;
use std::rc::Rc;

use trail_core::{TrailConfig, TrailError};
use trail_db::BlockStack;
use trail_disk::Disk;
use trail_fs::{FileHandle, FileSystem, FsError, LfsConfig, FS_BLOCK_SIZE};
use trail_sim::Simulator;

use crate::scenario::{BuiltStack, StackBuilder};

/// Which stack a workload is driven against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TargetKind {
    /// The standard disk subsystem: per-disk C-LOOK drivers, no log.
    Standard,
    /// The Trail driver over one log disk (the paper's subsystem).
    Trail,
    /// A Trail array over several log disks (paper §6).
    TrailMulti {
        /// Number of log disks (at least 1).
        logs: usize,
    },
    /// An ext2-like file system per device.
    Ext2 {
        /// Mount over Trail (`true`) or the standard stack.
        trail: bool,
    },
    /// A log-structured file system per device.
    Lfs {
        /// Mount over Trail (`true`) or the standard stack.
        trail: bool,
    },
    /// A RAID volume per device (`trail-volume`), driven directly or
    /// fronted by Trail. Trail-fronted RAID-5 is the headline
    /// composition: the log absorbs synchronous small writes at track
    /// speed while the parity read-modify-write cost moves into
    /// background write-backs.
    Raid {
        /// The array layout.
        layout: trail_volume::VolumeLayout,
        /// Member disks per volume.
        members: usize,
        /// Front the volumes with Trail (`true`) or drive them directly.
        trail: bool,
    },
    /// Per-stream RAID: a Trail array (`logs` log disks) routed by
    /// [`trail_core::LogRouting::StreamAffinity`], each instance owning
    /// its **own** volume set — every stream's data lands on its own
    /// member disks.
    RaidPerStream {
        /// The array layout (per instance).
        layout: trail_volume::VolumeLayout,
        /// Member disks per volume.
        members: usize,
        /// Log disks / Trail instances (at least 1).
        logs: usize,
    },
}

impl TargetKind {
    /// A short stable label (`"standard"`, `"trail"`, `"trail_multi2"`,
    /// `"ext2"`, `"ext2_trail"`, …) for reports and file names.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            TargetKind::Standard => "standard".to_string(),
            TargetKind::Trail => "trail".to_string(),
            TargetKind::TrailMulti { logs } => format!("trail_multi{logs}"),
            TargetKind::Ext2 { trail: false } => "ext2".to_string(),
            TargetKind::Ext2 { trail: true } => "ext2_trail".to_string(),
            TargetKind::Lfs { trail: false } => "lfs".to_string(),
            TargetKind::Lfs { trail: true } => "lfs_trail".to_string(),
            TargetKind::Raid {
                layout,
                members,
                trail,
            } => {
                let front = if *trail { "_trail" } else { "" };
                format!("{}x{members}{front}", layout.label())
            }
            TargetKind::RaidPerStream {
                layout,
                members,
                logs,
            } => format!("{}x{members}_ps{logs}", layout.label()),
        }
    }
}

impl std::str::FromStr for TargetKind {
    type Err = String;

    /// The inverse of [`label`](TargetKind::label) for the targets a
    /// command line can name: `standard`, `trail`, `trail_multiN` (N ≥ 1),
    /// `ext2`, `ext2_trail`, `lfs`, `lfs_trail`. RAID targets carry a
    /// layout a label does not spell out and are built in code only.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let multi = s.strip_prefix("trail_multi").map(str::parse::<usize>);
        Ok(match (s, multi) {
            ("standard", _) => TargetKind::Standard,
            ("trail", _) => TargetKind::Trail,
            (_, Some(Ok(logs))) if logs >= 1 => TargetKind::TrailMulti { logs },
            ("ext2", _) => TargetKind::Ext2 { trail: false },
            ("ext2_trail", _) => TargetKind::Ext2 { trail: true },
            ("lfs", _) => TargetKind::Lfs { trail: false },
            ("lfs_trail", _) => TargetKind::Lfs { trail: true },
            _ => {
                return Err(format!(
                    "unknown target {s:?} (expected standard, trail, trail_multiN, \
                     ext2, ext2_trail, lfs or lfs_trail)"
                ))
            }
        })
    }
}

/// Why a target could not be built.
#[derive(Debug)]
pub enum TargetError {
    /// Building the block stack failed.
    Build(TrailError),
    /// Mounting or preparing a file-system target failed.
    Fs(FsError),
    /// Preallocating the workload file did not complete.
    Prealloc(String),
}

impl fmt::Display for TargetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TargetError::Build(e) => write!(f, "building the target stack failed: {e:?}"),
            TargetError::Fs(e) => write!(f, "preparing the file-system target failed: {e:?}"),
            TargetError::Prealloc(why) => {
                write!(f, "preallocating the workload file failed: {why}")
            }
        }
    }
}

impl std::error::Error for TargetError {}

/// How a built target is addressed.
pub enum TargetDrive {
    /// Submit straight to the block stack; `capacity[dev]` is the
    /// device's total sectors (so an admissible starting LBA is
    /// `lba % (capacity - sectors + 1)`).
    Block {
        /// Per-device capacity in sectors, in device order.
        capacity: Vec<u64>,
    },
    /// Submit through one mounted file system (and preallocated file)
    /// per device.
    Fs {
        /// `(file system, workload file)` per device, in device order.
        mounts: Vec<(Rc<dyn FileSystem>, FileHandle)>,
        /// Size of each preallocated file, in file-system blocks.
        file_blocks: u64,
    },
}

/// A ready-to-drive target produced by [`StackBuilder::build_target`].
pub struct BuiltTarget {
    /// The simulator (virtual time, already past format/boot/mount).
    pub sim: Simulator,
    /// The block stack underneath — for recorder/tap installation and
    /// block-addressed submission.
    pub stack: Rc<dyn BlockStack>,
    /// How to address requests to this target.
    pub drive: TargetDrive,
    /// The RAID volumes, for [`TargetKind::Raid`] and
    /// [`TargetKind::RaidPerStream`] targets (device order,
    /// instance-major for per-stream; see
    /// [`BuiltStack::volumes`](crate::BuiltStack::volumes)). Exposes
    /// member failure injection and per-member statistics. Empty for
    /// every other kind.
    pub volumes: Vec<trail_volume::RaidVolume>,
    /// Every disk of the stack, log disks first, then data disks: what a
    /// host-side ledger sums the per-disk [`Disk::medium_stats`] over. All
    /// of them share one image pool ([`Disk::pool`]), which such a ledger
    /// counts once.
    pub disks: Vec<Disk>,
    /// The fault clock the scenario's plan was armed on (see
    /// [`BuiltStack::fault_clock`](crate::BuiltStack::fault_clock)).
    pub fault_clock: trail_sim::FaultClock,
}

impl StackBuilder {
    /// Sets the size, in 4-KB blocks, of the per-device file that
    /// file-system targets drive requests into (default 1024, raised to
    /// at least 64).
    #[must_use]
    pub fn fs_file_blocks(mut self, blocks: u32) -> Self {
        self.fs_file_blocks = Some(blocks);
        self
    }

    /// Builds the stack `kind` names, ready to drive: disks formatted,
    /// drivers booted, file systems mounted and their workload files
    /// preallocated, disk statistics reset. The builder's disk profiles
    /// and seed apply; its log-device selection is overridden by `kind`.
    ///
    /// # Errors
    ///
    /// [`TargetError`] when formatting, boot, mounting, or
    /// preallocation fails.
    pub fn build_target(self, kind: TargetKind) -> Result<BuiltTarget, TargetError> {
        let file_blocks = self.fs_file_blocks.unwrap_or(1024).max(64);
        let builder = match kind {
            TargetKind::Standard
            | TargetKind::Ext2 { trail: false }
            | TargetKind::Lfs { trail: false } => self.standard(),
            TargetKind::Trail
            | TargetKind::Ext2 { trail: true }
            | TargetKind::Lfs { trail: true } => self.trail_default(),
            TargetKind::TrailMulti { logs } => self.trail_multi(logs, TrailConfig::default()),
            TargetKind::Raid {
                layout,
                members,
                trail,
            } => {
                let b = if trail {
                    self.trail_default()
                } else {
                    self.standard()
                };
                b.volumes(layout, members)
            }
            TargetKind::RaidPerStream {
                layout,
                members,
                logs,
            } => self
                .trail_multi(logs, TrailConfig::default())
                .volumes(layout, members)
                .per_instance_volumes(),
        };
        let mut built = builder.build().map_err(TargetError::Build)?;
        if let TargetKind::RaidPerStream { .. } = kind {
            built
                .multi
                .as_ref()
                .expect("per-stream RAID builds a Trail array")
                .set_routing(trail_core::LogRouting::StreamAffinity);
        }
        let disks = [&built.log_disks[..], &built.data_disks[..]].concat();
        match kind {
            TargetKind::Standard
            | TargetKind::Trail
            | TargetKind::TrailMulti { .. }
            | TargetKind::Raid { .. }
            | TargetKind::RaidPerStream { .. } => {
                // Per-instance sets are identical in shape; the first
                // describes the logical address space.
                let capacity = built.targets.iter().map(|t| t.capacity_sectors()).collect();
                let BuiltStack {
                    sim,
                    stack,
                    volumes,
                    fault_clock,
                    ..
                } = built;
                Ok(BuiltTarget {
                    sim,
                    stack,
                    drive: TargetDrive::Block { capacity },
                    volumes,
                    disks,
                    fault_clock,
                })
            }
            TargetKind::Ext2 { .. } | TargetKind::Lfs { .. } => {
                let ndisks = built.data_disks.len();
                let mut mounts = Vec::with_capacity(ndisks);
                for dev in 0..ndisks {
                    let fs: Rc<dyn FileSystem> = match kind {
                        TargetKind::Ext2 { .. } => Rc::new(
                            built
                                .extfs(dev, file_blocks + 256)
                                .map_err(TargetError::Fs)?,
                        ),
                        _ => Rc::new(built.lfs(dev, LfsConfig::default())),
                    };
                    let file = fs.create("replay").map_err(TargetError::Fs)?;
                    prealloc(&mut built.sim, &fs, file, file_blocks)?;
                    mounts.push((fs, file));
                }
                let BuiltStack {
                    sim,
                    stack,
                    fault_clock,
                    ..
                } = built;
                Ok(BuiltTarget {
                    sim,
                    stack,
                    drive: TargetDrive::Fs {
                        mounts,
                        file_blocks: u64::from(file_blocks),
                    },
                    volumes: Vec::new(),
                    disks,
                    fault_clock,
                })
            }
        }
    }
}

/// Synchronously writes the whole workload file once so later reads and
/// overwrites land on allocated, on-disk blocks.
fn prealloc(
    sim: &mut Simulator,
    fs: &Rc<dyn FileSystem>,
    file: FileHandle,
    blocks: u32,
) -> Result<(), TargetError> {
    let zeros = vec![0u8; blocks as usize * FS_BLOCK_SIZE];
    sim.block_on(|sim, done| fs.write(sim, file, 0, zeros, true, done))
        .and_then(|delivered| delivered.unwrap_or_else(|e| Err(FsError::Storage(e.into()))))
        .map_err(TargetError::Fs)?;
    while fs.pending_work() > 0 {
        if !sim.step() {
            return Err(TargetError::Prealloc("drain stalled".to_string()));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_target_kind_builds() {
        for kind in [
            TargetKind::Standard,
            TargetKind::Trail,
            TargetKind::TrailMulti { logs: 2 },
            TargetKind::Ext2 { trail: false },
            TargetKind::Lfs { trail: true },
        ] {
            let t = StackBuilder::new()
                .data_disks(1)
                .fs_file_blocks(64)
                .build_target(kind)
                .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            assert_eq!(t.stack.devices(), 1, "{kind:?}");
            match (&kind, &t.drive) {
                (
                    TargetKind::Standard | TargetKind::Trail | TargetKind::TrailMulti { .. },
                    TargetDrive::Block { capacity },
                ) => assert_eq!(capacity.len(), 1),
                (
                    TargetKind::Ext2 { .. } | TargetKind::Lfs { .. },
                    TargetDrive::Fs {
                        mounts,
                        file_blocks,
                    },
                ) => {
                    assert_eq!(mounts.len(), 1);
                    assert_eq!(*file_blocks, 64);
                }
                _ => panic!("{kind:?} built the wrong drive shape"),
            }
        }
    }

    #[test]
    fn labels_are_stable() {
        use trail_volume::VolumeLayout;
        assert_eq!(TargetKind::Standard.label(), "standard");
        assert_eq!(TargetKind::TrailMulti { logs: 3 }.label(), "trail_multi3");
        assert_eq!(TargetKind::Ext2 { trail: true }.label(), "ext2_trail");
        assert_eq!(TargetKind::Lfs { trail: false }.label(), "lfs");
        assert_eq!(
            TargetKind::Raid {
                layout: VolumeLayout::Raid5 { chunk_sectors: 8 },
                members: 4,
                trail: false,
            }
            .label(),
            "raid5x4"
        );
        assert_eq!(
            TargetKind::Raid {
                layout: VolumeLayout::Raid0 { chunk_sectors: 8 },
                members: 3,
                trail: true,
            }
            .label(),
            "raid0x3_trail"
        );
        assert_eq!(
            TargetKind::RaidPerStream {
                layout: VolumeLayout::Raid5 { chunk_sectors: 8 },
                members: 3,
                logs: 2,
            }
            .label(),
            "raid5x3_ps2"
        );
    }

    #[test]
    fn every_non_raid_label_parses_back_to_its_kind() {
        for kind in [
            TargetKind::Standard,
            TargetKind::Trail,
            TargetKind::TrailMulti { logs: 1 },
            TargetKind::TrailMulti { logs: 12 },
            TargetKind::Ext2 { trail: false },
            TargetKind::Ext2 { trail: true },
            TargetKind::Lfs { trail: false },
            TargetKind::Lfs { trail: true },
        ] {
            assert_eq!(kind.label().parse(), Ok(kind), "{kind:?}");
        }
        for bad in [
            "",
            "trial",
            "Trail",
            "trail_multi",
            "trail_multi0",
            "trail_multi-1",
            "raid5x3",
        ] {
            let err = bad.parse::<TargetKind>().unwrap_err();
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
    }

    #[test]
    fn raid_targets_build_and_expose_volumes() {
        use trail_disk::profiles;
        use trail_volume::VolumeLayout;
        let layout = VolumeLayout::Raid5 { chunk_sectors: 8 };
        for (kind, want_volumes) in [
            (
                TargetKind::Raid {
                    layout,
                    members: 3,
                    trail: false,
                },
                1,
            ),
            (
                TargetKind::Raid {
                    layout,
                    members: 3,
                    trail: true,
                },
                1,
            ),
            (
                TargetKind::RaidPerStream {
                    layout,
                    members: 3,
                    logs: 2,
                },
                2,
            ),
        ] {
            let t = StackBuilder::new()
                .data_disks(1)
                .data_profile(profiles::tiny_test_disk())
                .log_profile(profiles::tiny_test_disk())
                .build_target(kind)
                .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            assert_eq!(t.volumes.len(), want_volumes, "{kind:?}");
            let TargetDrive::Block { capacity } = &t.drive else {
                panic!("{kind:?} should be block-addressed");
            };
            assert_eq!(capacity[0], t.volumes[0].capacity_sectors(), "{kind:?}");
        }
    }
}
