//! # trail-disk: a mechanical rotating-disk model
//!
//! The hardware substrate of the Trail reproduction (Chiueh & Huang,
//! *Track-Based Disk Logging*, DSN 2002). Trail's entire contribution rests
//! on mechanical-disk physics — rotational position, track-switch costs,
//! zoned geometry — so the reproduction models those physics explicitly:
//!
//! - [`DiskGeometry`]: zoned multi-surface layout, LBA↔CHS translation,
//!   track/cylinder skew, and the angular position of every sector;
//! - [`MechanicalModel`]: seek curve, spindle phase (a pure function of
//!   virtual time), per-command service planning with per-sector media
//!   completion instants;
//! - [`Disk`]: the device actor — one command at a time, sector-atomic
//!   persistence, statistics, and **power-failure injection** (a crash
//!   persists exactly the sectors already transferred);
//! - [`PayloadBuf`]: the immutable, shareable buffer a write's bytes
//!   travel in, from the layer that accepts them to the medium, and
//!   [`PayloadChain`], the parts of one write command laid end to end;
//! - [`profiles`]: drive profiles calibrated to the paper's testbed
//!   (Seagate ST41601N log disk, WD Caviar data disks);
//! - [`crash`]: the crash oracle every layer above checks power cuts
//!   with — tagged sector images, the [`AckLedger`], and the cut
//!   instants a probe run's [`Disk::log_landings`] enumerates.
//!
//! # Examples
//!
//! ```
//! use trail_sim::Simulator;
//! use trail_disk::{profiles, Disk, DiskCommand, SECTOR_SIZE};
//!
//! let mut sim = Simulator::new();
//! let disk = Disk::new("log", profiles::seagate_st41601n());
//! let done = sim.completion(|_, res: trail_sim::Delivered<trail_disk::DiskResult>| {
//!     // Fixed overhead + seek + rotation + transfer.
//!     assert!(res.expect("delivered").breakdown.total.as_millis_f64() > 1.0);
//! });
//! disk.submit(
//!     &mut sim,
//!     DiskCommand::Write { lba: 100, data: vec![1u8; SECTOR_SIZE].into() },
//!     done,
//! )?;
//! sim.run();
//! assert_eq!(disk.peek_sector(100)[0], 1);
//! # Ok::<(), trail_disk::DiskError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crash;
mod device;
mod geometry;
mod mechanics;
mod payload;
pub mod profiles;
mod store;

pub use crash::{cut_instants, AckLedger};
pub use device::{Disk, DiskCommand, DiskError, DiskResult, DiskRole, DiskStats, MediumStats};
pub use geometry::{Chs, DiskGeometry, Lba, TrackRun, Zone, SECTOR_SIZE};
pub use mechanics::{
    CommandKind, HeadPosition, MechanicalModel, SeekModel, ServiceBreakdown, ServicePlan,
};
pub use payload::{PayloadBuf, PayloadChain};
pub use store::{ImagePool, PoolStats, SectorBuf, SectorStore};
