//! The one vocabulary for stacks: a shape that prints and parses.
//!
//! Every experiment drives one of a family of stacks, and [`TargetKind`]
//! names one along three axes: what fronts the devices ([`Front`]: the
//! standard subsystem, or Trail over one log disk or several), what each
//! device is
//! (one raw disk, or a [`Raid`] volume), and whether a file system is
//! mounted on it ([`Mount`]). A report row, `trace_tool replay --target`,
//! a line of `tests/data/fault_plans.txt` and a crash-campaign stack all
//! spell a stack the same way, and [`StackBuilder::shape`] builds it. A
//! [`StackBuilder`] prints and parses the shape plus its data-disk count
//! and the tiny test profile.
//!
//! The shape is `_`-separated tokens, in this order, each present only
//! when it differs from the default:
//!
//! - the mount: `ext2` or `lfs` (default: block access);
//! - the device layer: `<layout>x<members>` with layout `linear`,
//!   `raid0`, `raid1` or `raid5`, then `chunk<N>` for a striped layout
//!   whose chunk is not 8 sectors, or `rr` for a RAID-1 that reads round
//!   robin instead of from the nearest head (default: raw disks);
//! - the front end: `trail` for Trail over one log disk, or
//!   `trail_multi<N>` for N ≥ 2 logs (default: the standard subsystem,
//!   spelled `standard` when nothing else is printed).
//!
//! A builder appends `,disks=<N>` when it has not three data disks and
//! `,tiny` when its disks are the tiny test model, so a spec holds no
//! space. Each stack has exactly one spelling; a malformed spec is an
//! `Err`, never a panic.
//!
//! ```
//! use trail::{StackBuilder, TargetKind};
//!
//! let kind: TargetKind = "raid5x3_trail".parse()?;
//! let built = StackBuilder::new().data_disks(2).build_target(kind)?;
//! assert_eq!(built.volumes.len(), 2);
//!
//! let spec: StackBuilder = "ext2_trail_multi2,disks=1,tiny".parse()?;
//! assert_eq!(spec.scenario().shape.to_string(), "ext2_trail_multi2");
//! assert_eq!(spec.to_string(), "ext2_trail_multi2,disks=1,tiny");
//! assert!("raid5x2_trail".parse::<TargetKind>().is_err());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::fmt;
use std::str::FromStr;

use trail_disk::profiles;
use trail_volume::{ReadPolicy, VolumeLayout};

use crate::scenario::{StackBuilder, DATA_DISKS};

/// The chunk, in sectors, a striped layout has unless its spec says.
const CHUNK_SECTORS: u32 = 8;

/// The grammar, for error messages.
const GRAMMAR: &str = "expected [ext2_|lfs_][<linear|raid0|raid1|raid5>x<members>[_chunk<N>|_rr]_]\
                       <standard|trail|trail_multi<N>>[,disks=<N>][,tiny]";

/// The shape of a stack: its front end, its device layer and its mount.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TargetKind {
    /// What fronts the devices.
    pub front: Front,
    /// A RAID volume per device, or one raw disk each (`None`).
    pub raid: Option<Raid>,
    /// A file system per device, or block access (`None`).
    pub mount: Option<Mount>,
}

#[allow(non_upper_case_globals)]
impl TargetKind {
    /// The standard subsystem over raw disks: `standard`.
    pub const Standard: TargetKind = TargetKind {
        front: Front::Standard,
        raid: None,
        mount: None,
    };
    /// Trail over one log disk and raw data disks: `trail`.
    pub const Trail: TargetKind = TargetKind {
        front: Front::Trail { logs: 1 },
        raid: None,
        mount: None,
    };
}

/// What fronts a stack's devices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Front {
    /// The standard disk subsystem: per-disk C-LOOK drivers, no log;
    /// writes pay full seek and rotation at their target addresses.
    Standard,
    /// Trail (the paper's subsystem) over `logs` log disks: one Trail
    /// instance per log disk, each sector owned by one log
    /// ([`trail_core::owning_log`]; paper §6). A single log is an array of
    /// one.
    Trail {
        /// Number of log disks (raised to at least 1).
        logs: usize,
    },
}

impl Front {
    /// The log disks this front end formats.
    #[must_use]
    pub fn logs(self) -> usize {
        match self {
            Front::Standard => 0,
            Front::Trail { logs } => logs.max(1),
        }
    }
}

/// A RAID volume per device, each over its own member disks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Raid {
    /// The array layout.
    pub layout: VolumeLayout,
    /// Member disks per volume (at least the layout's minimum).
    pub members: usize,
}

/// A file system mounted on every device, over which requests reach one
/// preallocated workload file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mount {
    /// An ext2-like file system.
    Ext2,
    /// A log-structured file system.
    Lfs,
}

impl fmt::Display for TargetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut tokens: Vec<String> = Vec::new();
        match self.mount {
            Some(Mount::Ext2) => tokens.push("ext2".into()),
            Some(Mount::Lfs) => tokens.push("lfs".into()),
            None => {}
        }
        if let Some(raid) = self.raid {
            tokens.push(format!("{}x{}", raid.layout.label(), raid.members));
            match raid.layout {
                VolumeLayout::Raid0 { chunk_sectors } | VolumeLayout::Raid5 { chunk_sectors }
                    if chunk_sectors != CHUNK_SECTORS =>
                {
                    tokens.push(format!("chunk{chunk_sectors}"));
                }
                VolumeLayout::Raid1 {
                    read_policy: ReadPolicy::RoundRobin,
                } => tokens.push("rr".into()),
                _ => {}
            }
        }
        match self.front {
            Front::Standard if tokens.is_empty() => tokens.push("standard".into()),
            Front::Standard => {}
            Front::Trail { logs: 1 } => tokens.push("trail".into()),
            Front::Trail { logs } => tokens.push(format!("trail_multi{logs}")),
        }
        f.write_str(&tokens.join("_"))
    }
}

impl FromStr for TargetKind {
    type Err = String;

    /// The inverse of `Display`, for every shape's one spelling.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = |why: &str| format!("bad stack {s:?}: {why}; {GRAMMAR}");
        let count = |digits: Option<&str>, what: &str| match digits.map(str::parse::<usize>) {
            Some(Ok(n)) if n > 0 => Ok(n),
            _ => Err(bad(&format!("{what} must be a positive count"))),
        };
        let mut kind = TargetKind::Standard;
        let mut tokens = s.split('_').peekable();
        kind.mount = match tokens.peek() {
            Some(&"ext2") => Some(Mount::Ext2),
            Some(&"lfs") => Some(Mount::Lfs),
            _ => None,
        };
        if kind.mount.is_some() {
            tokens.next();
        }
        if let Some((name, members)) = tokens.peek().and_then(|t| t.split_once('x')) {
            tokens.next();
            let chunk_sectors = CHUNK_SECTORS;
            let mut layout = match name {
                "linear" => VolumeLayout::Linear,
                "raid0" => VolumeLayout::Raid0 { chunk_sectors },
                "raid1" => VolumeLayout::Raid1 {
                    read_policy: ReadPolicy::NearestHead,
                },
                "raid5" => VolumeLayout::Raid5 { chunk_sectors },
                _ => return Err(bad(&format!("unknown RAID layout {name:?}"))),
            };
            let members = count(Some(members), "the member count")?;
            if members < layout.min_members() {
                return Err(bad(&format!(
                    "{name} needs at least {} members",
                    layout.min_members()
                )));
            }
            match (&mut layout, tokens.peek()) {
                (
                    VolumeLayout::Raid0 { chunk_sectors } | VolumeLayout::Raid5 { chunk_sectors },
                    Some(t),
                ) if t.starts_with("chunk") => {
                    let chunk = count(t.strip_prefix("chunk"), "the chunk")?;
                    *chunk_sectors = u32::try_from(chunk).map_err(|_| bad("chunk too large"))?;
                    tokens.next();
                }
                (VolumeLayout::Raid1 { read_policy }, Some(&"rr")) => {
                    *read_policy = ReadPolicy::RoundRobin;
                    tokens.next();
                }
                _ => {}
            }
            kind.raid = Some(Raid { layout, members });
        }
        let front: Vec<&str> = tokens.collect();
        kind.front = match front[..] {
            [] | ["standard"] => Front::Standard,
            ["trail"] => Front::Trail { logs: 1 },
            ["trail", multi] => Front::Trail {
                logs: count(multi.strip_prefix("multi"), "a log array's log count")?,
            },
            _ => return Err(bad("unknown front end")),
        };
        match kind.to_string() {
            canonical if canonical == s => Ok(kind),
            canonical => Err(bad(&format!("this stack is spelled {canonical:?}"))),
        }
    }
}

impl fmt::Display for StackBuilder {
    /// The shape, then `,disks=<N>` unless the builder has three data
    /// disks and `,tiny` if its data disks are the tiny test model. Other
    /// disk models and every other setting do not print.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.scenario();
        write!(f, "{}", s.shape)?;
        if s.data_disks != DATA_DISKS {
            write!(f, ",disks={}", s.data_disks)?;
        }
        if s.data_profile.name == profiles::tiny_test_disk().name {
            f.write_str(",tiny")?;
        }
        Ok(())
    }
}

impl FromStr for StackBuilder {
    type Err = String;

    /// The paper's testbed (see [`StackBuilder::new`]) with the spec's
    /// shape, data-disk count and, with `tiny`, the tiny test model for
    /// the log and data disks alike.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut fields = s.split(',');
        let shape = fields.next().unwrap_or_default().parse()?;
        let mut builder = StackBuilder::new().shape(shape);
        for field in fields {
            builder = match (field, field.strip_prefix("disks=").map(str::parse)) {
                ("tiny", _) => builder
                    .data_profile(profiles::tiny_test_disk())
                    .log_profile(profiles::tiny_test_disk()),
                (_, Some(Ok(n))) if n > 0 => builder.data_disks(n),
                _ => {
                    return Err(format!(
                        "bad stack {s:?}: unknown option {field:?}; {GRAMMAR}"
                    ))
                }
            };
        }
        match builder.to_string() {
            canonical if canonical == s => Ok(builder),
            canonical => Err(format!(
                "bad stack {s:?}: this stack is spelled {canonical:?}"
            )),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::rc::Rc;

    use proptest::prelude::*;
    use trail_core::TrailConfig;
    use trail_disk::Disk;
    use trail_volume::RaidVolume;

    use super::*;

    /// One row per spec: it prints back unchanged, its shape prints as the
    /// part before the first comma, and it builds with exactly these log
    /// disks and volumes (each volume's members named after it, raw data
    /// disks `data<dev>`), one target per device, one driver per physical
    /// disk, and a mounted workload file per device if the shape mounts.
    pub(crate) fn assert_specs_build_as_named(rows: &[(&str, &[&str], &[&str])]) {
        let names = |disks: &[Disk]| disks.iter().map(Disk::name).collect::<Vec<_>>();
        for &(spec, logs, volumes) in rows {
            let builder: StackBuilder = spec.parse().unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(builder.to_string(), spec);
            let shape = builder.scenario().shape;
            assert_eq!(Some(shape.to_string().as_str()), spec.split(',').next());
            let devices = builder.scenario().data_disks;
            let built =
                (builder.fs_file_blocks(64).build()).unwrap_or_else(|e| panic!("{spec}: {e}"));

            assert_eq!(names(&built.log_disks), logs, "{spec}");
            let vol_names: Vec<String> = built.volumes.iter().map(RaidVolume::name).collect();
            assert_eq!(vol_names, volumes, "{spec}");
            let data_names: Vec<String> = match shape.raid {
                None => (0..devices).map(|dev| format!("data{dev}")).collect(),
                Some(raid) => (volumes.iter().map(|v| v.replacen("vol", "data", 1)))
                    .flat_map(|d| (0..raid.members).map(move |m| format!("{d}m{m}")))
                    .collect(),
            };
            assert_eq!(names(&built.data_disks), data_names, "{spec}");

            assert_eq!(built.stack.devices(), devices, "{spec}");
            assert_eq!(built.targets.len(), devices, "{spec}");
            // Every Trail stack is an array, of `logs` instances; `trail`
            // is its instance 0 exactly when there is one log.
            let instances = built.multi.as_ref().map_or(0, |m| m.drivers().len());
            assert_eq!(instances, logs.len(), "{spec}");
            assert_eq!(built.trail.is_some(), logs.len() == 1, "{spec}");
            if let (Some(trail), Some(multi)) = (&built.trail, &built.multi) {
                let first = &multi.drivers()[0];
                for dev in 0..devices {
                    assert!(Rc::ptr_eq(&trail.data_target(dev), &first.data_target(dev)));
                }
                assert_eq!(trail.log_disk().name(), first.log_disk().name());
                assert_eq!(
                    built.log_disk.as_ref().map(Disk::name),
                    Some(logs[0].into())
                );
            }
            let mounted = shape.mount.is_some();
            assert_eq!(
                built.mounts.len(),
                if mounted { devices } else { 0 },
                "{spec}"
            );
            for dev in 0..devices {
                let span = match (mounted, built.volumes.get(dev)) {
                    (true, _) => 64,
                    (false, Some(vol)) => vol.capacity_sectors(),
                    (false, None) => built.data_disks[dev].geometry().total_sectors(),
                };
                assert_eq!(built.span(dev), span, "{spec}");
                // Every instance of an array holds the very same targets.
                if let Some(multi) = &built.multi {
                    for drv in multi.drivers() {
                        assert!(Rc::ptr_eq(&drv.data_target(dev), &built.targets[dev]));
                    }
                }
            }
        }
    }

    #[test]
    fn every_target_kind_builds() {
        assert_specs_build_as_named(&[
            ("standard,disks=1", &[], &[]),
            ("trail,disks=1", &["trail-log"], &[]),
            ("trail_multi2,disks=1", &["log0", "log1"], &[]),
            ("ext2,disks=1", &[], &[]),
            ("lfs_trail,disks=1", &["trail-log"], &[]),
        ]);
    }

    /// Each pinned label prints back unchanged and builds.
    #[test]
    fn labels_are_stable() {
        for label in [
            "standard",
            "trail_multi3",
            "ext2_trail",
            "lfs",
            "raid5x4",
            "raid0x3_trail",
        ] {
            let kind: TargetKind = label.parse().unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(kind.to_string(), label);
        }
        assert_specs_build_as_named(&[
            ("trail_multi3,tiny", &["log0", "log1", "log2"], &[]),
            ("ext2_trail,tiny", &["trail-log"], &[]),
            ("lfs,tiny", &[], &[]),
            ("raid5x4,disks=1,tiny", &[], &["vol0"]),
            ("raid0x3_trail,disks=1,tiny", &["trail-log"], &["vol0"]),
        ]);
    }

    /// Every non-RAID shape parses back from its label; each malformed
    /// spec is an `Err` that quotes it.
    #[test]
    fn every_non_raid_label_parses_back_to_its_kind() {
        for front in [
            Front::Standard,
            Front::Trail { logs: 1 },
            Front::Trail { logs: 2 },
            Front::Trail { logs: 12 },
        ] {
            for mount in [None, Some(Mount::Ext2), Some(Mount::Lfs)] {
                let kind = TargetKind {
                    front,
                    raid: None,
                    mount,
                };
                assert_eq!(kind.to_string().parse(), Ok(kind), "{kind:?}");
            }
        }
        for bad in [
            "",
            "trial",
            "Trail",
            "trail_multi",
            "trail_multi0",
            "trail_multi1",
            "trail_multi-1",
            "trail_multi02",
            "standard_trail",
            "ext2_standard",
            "trail_ext2",
            "raid5x2_trail",
            "raid1x1",
            "raid6x3",
            "raid5x3_chunk0",
            "raid5x3_chunk8",
            "raid1x2_chunk16",
            "raid5x3_rr",
            "ps2",
            "raid5x3_ps2",
            "raid5x3_ps0",
            "raid5x3_trail_ps2",
            "trail,disks=0",
            "trail,disks=3",
            "trail,huge",
            "trail,tiny,disks=2",
            "trail, tiny",
        ] {
            let err = bad.parse::<StackBuilder>().unwrap_err();
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
        // A one-log array has one spelling, and the error names it.
        let err = "trail_multi1".parse::<TargetKind>().unwrap_err();
        assert!(err.contains(r#"this stack is spelled "trail""#), "{err}");
    }

    /// Each RAID spec builds its volumes over one tiny data disk per
    /// member, addressed up to the volume's capacity.
    #[test]
    fn raid_targets_build_and_expose_volumes() {
        assert_specs_build_as_named(&[
            ("raid5x3,disks=1,tiny", &[], &["vol0"]),
            ("raid5x3_trail,disks=1,tiny", &["trail-log"], &["vol0"]),
            ("raid1x2_rr_trail,disks=1,tiny", &["trail-log"], &["vol0"]),
            ("raid5x3_chunk16,disks=1,tiny", &[], &["vol0"]),
            ("linearx2_trail,disks=1,tiny", &["trail-log"], &["vol0"]),
            ("ext2_raid1x2_trail,disks=1,tiny", &["trail-log"], &["vol0"]),
        ]);
    }

    /// Every shape the grammar spells, from its parts; the front end as a
    /// builder sets it, from any log count (0 included).
    fn arb_shape() -> impl Strategy<Value = TargetKind> {
        let chunk = prop_oneof![Just(CHUNK_SECTORS), 1u32..=64];
        let layout = (0u8..5, chunk).prop_map(|(pick, chunk_sectors)| match pick {
            0 => VolumeLayout::Linear,
            1 => VolumeLayout::Raid0 { chunk_sectors },
            2 => VolumeLayout::Raid1 {
                read_policy: ReadPolicy::NearestHead,
            },
            3 => VolumeLayout::Raid1 {
                read_policy: ReadPolicy::RoundRobin,
            },
            _ => VolumeLayout::Raid5 { chunk_sectors },
        });
        (0u8..3, 0usize..=4, layout, 0usize..4, 0u8..3).prop_map(
            |(front, logs, layout, extra, mount)| {
                let builder = match front {
                    0 => StackBuilder::new().standard(),
                    _ => StackBuilder::new().trail_multi(logs, TrailConfig::default()),
                };
                let front = builder.scenario().shape.front;
                let raid = (extra > 0).then_some(Raid {
                    layout,
                    members: layout.min_members() + extra - 1,
                });
                let mount = [None, Some(Mount::Ext2), Some(Mount::Lfs)][usize::from(mount)];
                TargetKind { front, raid, mount }
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn every_spec_round_trips_and_junk_is_an_err(
            shape in arb_shape(),
            disks in 1usize..=6,
            tiny in any::<bool>(),
            junk in proptest::collection::vec(0usize..40, 0..24),
            edit in (any::<usize>(), 0usize..40),
        ) {
            prop_assert_eq!(shape.to_string().parse::<TargetKind>(), Ok(shape));
            let mut builder = StackBuilder::new().shape(shape).data_disks(disks);
            if tiny {
                builder = builder
                    .data_profile(profiles::tiny_test_disk())
                    .log_profile(profiles::tiny_test_disk());
            }
            let spec = builder.to_string();
            let back: StackBuilder = spec.parse().map_err(TestCaseError::fail)?;
            let (a, b) = (builder.scenario(), back.scenario());
            prop_assert_eq!(a.shape, b.shape);
            prop_assert_eq!(a.data_disks, b.data_disks);
            prop_assert_eq!(a.data_profile.name, b.data_profile.name);
            prop_assert_eq!(a.log_profile.name, b.log_profile.name);

            // Junk near the grammar — random tokens, and a valid spec with
            // one character replaced — parses or is an `Err`, and whatever
            // parses prints back as it was written.
            const ALPHABET: &[u8] = b"_,=xabcdeiklmnoprstuy0123456789 -+\xc3\xa9";
            let pick = |i: usize| char::from(ALPHABET[i % ALPHABET.len()]);
            let mut mutated: Vec<char> = spec.chars().collect();
            let at = edit.0 % mutated.len();
            mutated[at] = pick(edit.1);
            let mutated: String = mutated.into_iter().collect();
            let random: String = junk.into_iter().map(pick).collect();
            for text in [mutated, random] {
                if let Ok(parsed) = text.parse::<StackBuilder>() {
                    prop_assert_eq!(parsed.to_string(), text);
                }
                if let Ok(parsed) = text.parse::<TargetKind>() {
                    prop_assert_eq!(parsed.to_string(), text);
                }
            }
        }
    }
}
