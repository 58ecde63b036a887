//! # trail-volume: RAID arrays between the block layer and the disks
//!
//! A volume layer for the Trail reproduction (Chiueh & Huang, *Track-Based
//! Disk Logging*, DSN 2002): several simulated member disks composed into
//! one [`BlockDevice`](trail_blockio::BlockDevice), so every layer above —
//! the standard stack, Trail's write-back path, the replay engine — drives
//! an array exactly as it drives a single disk.
//!
//! Layouts ([`VolumeLayout`]):
//!
//! - **Linear** — JBOD concatenation;
//! - **RAID-0** — striping with a configurable chunk;
//! - **RAID-1** — mirroring, with nearest-head or round-robin reads
//!   ([`ReadPolicy`]);
//! - **RAID-5** — rotating parity under one rule, reconstruct-write: a
//!   small write reads the data it does not wholly overwrite and computes
//!   parity from whole rows, so replaying a write over a torn stripe heals
//!   it; a full stripe, or one whose parity member has failed, reads
//!   nothing; reads of a failed member reconstruct on the fly.
//!
//! RAID-5's small-write penalty is the point: fronting the array with
//! Trail's log turns every synchronous small write into a track-speed log
//! append, and the parity cost is paid later by background write-backs. The
//! address arithmetic lives in [`layout`]-level pure functions
//! ([`raid5_parity_member`], [`raid5_map`], …) so the parity algebra is
//! testable without any I/O; per-stripe serialization is provided by
//! [`Gate`].
//!
//! # Examples
//!
//! ```
//! use trail_sim::Simulator;
//! use trail_disk::{profiles, Disk, SECTOR_SIZE};
//! use trail_blockio::{IoRequest, StandardDriver};
//! use trail_volume::{RaidVolume, VolumeLayout};
//!
//! let mut sim = Simulator::new();
//! let members: Vec<StandardDriver> = (0..4)
//!     .map(|i| StandardDriver::new(Disk::new(&format!("m{i}"), profiles::tiny_test_disk())))
//!     .collect();
//! let vol = RaidVolume::new("array", VolumeLayout::Raid5 { chunk_sectors: 8 }, members);
//! let done = sim.completion(|_, d: trail_sim::Delivered<trail_blockio::IoDone>| {
//!     d.expect("write survives");
//! });
//! vol.submit(&mut sim, IoRequest::write(100, vec![1; 2 * SECTOR_SIZE]), done)?;
//! sim.run();
//! // A 2-sector write into a 24-sector stripe row is a reconstruct-write:
//! // it reads the two chunks it does not touch and computes parity from
//! // whole rows.
//! let reads = |s: &trail_volume::VolumeStats| s.members.iter().map(|m| m.read_latency.count()).sum();
//! assert_eq!(vol.with_stats(|s| (s.reconstruct_writes, reads(s))), (1, 2));
//! # Ok::<(), trail_disk::DiskError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gate;
pub mod layout;
mod volume;

pub use gate::Gate;
pub use layout::{
    linear_map, raid0_map, raid5_data_member, raid5_map, raid5_parity_member, raid5_write_stripes,
    xor_into, Frag, R5Seg, R5StripeSpan, ReadPolicy, VolumeLayout,
};
pub use volume::{MemberStats, RaidVolume, VolumeStats};
