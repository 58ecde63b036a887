//! # trail-core: track-based disk logging
//!
//! A from-scratch implementation of **Trail**, the low-write-latency disk
//! subsystem of Chiueh & Huang, *Track-Based Disk Logging* (DSN 2002),
//! built on the simulated mechanical-disk substrate in [`trail_disk`].
//!
//! Trail makes synchronous disk writes cost only *data transfer plus
//! command overhead* — no seek, (almost) no rotational latency — by
//! logging every write wherever the log disk's head happens to be, on a
//! track guaranteed to be free, and completing the real write to the data
//! disk asynchronously from memory. The pieces:
//!
//! - [`HeadPredictor`] — the §3.1 software-only head-position prediction,
//!   fed by probed geometry and the calibrated leads (δ as a duration);
//! - [`format`] — the §3.2 self-describing log organization
//!   (`log_disk_header`, `record_header`, first-byte transposition);
//! - [`TrackPool`] — FIFO track reclamation (§4.2);
//! - [`TrailDriver`] — the driver: batched log writes, the 30 %
//!   track-utilization threshold, read-prioritized write-back from pinned
//!   memory — one map of disjoint sector ranges, in which an overlapping
//!   overwrite cancels the stale part of a write-back (§4);
//! - [`recover`] — the §3.3 three-stage crash recovery with O(lg N)
//!   binary-search location and `log_head`-bounded back-scan;
//! - [`BlockStack`] — the one interface a file system or database issues
//!   requests through, implemented by [`MultiTrail`] (Trail over one log
//!   disk or several) and [`StandardStack`] (the baseline), with
//!   [`read_blocking`] / [`write_blocking`] for the callers that own the
//!   simulation while they wait;
//! - [`format_log_disk`] — the formatting tool (probes timing, writes the
//!   header).
//!
//! # Examples
//!
//! ```
//! use trail_sim::Simulator;
//! use trail_disk::{profiles, Disk, SECTOR_SIZE};
//! use trail_core::{format_log_disk, FormatOptions, TrailConfig, TrailDriver};
//!
//! let mut sim = Simulator::new();
//! let log = Disk::new("log", profiles::seagate_st41601n());
//! let data = Disk::new("data0", profiles::wd_caviar_10gb());
//! format_log_disk(&mut sim, &log, FormatOptions::default())?;
//! let (trail, boot) = TrailDriver::start(&mut sim, log, vec![data], TrailConfig::default())?;
//! assert!(boot.recovered.is_none(), "clean disk boots without recovery");
//!
//! // A synchronous 4-KByte write completes in ~1.5 ms (paper abstract).
//! let done = sim.completion(|_, d: trail_sim::Delivered<trail_blockio::IoDone>| {
//!     assert!(d.expect("durable").latency().as_millis_f64() < 4.0);
//! });
//! trail.write(&mut sim, 0, 2048, vec![0xAB; 8 * SECTOR_SIZE], done)?;
//! trail.run_until_quiescent(&mut sim);
//! trail.shutdown(&mut sim)?;
//! # Ok::<(), trail_core::TrailError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod driver;
mod error;
pub mod format;
mod formatter;
mod multi;
mod pinned;
mod predict;
mod recovery;
mod stack;
mod tracks;

pub use config::TrailConfig;
pub use driver::{BootReport, LostRevolutions, MissTally, PredictMisses, TrailDriver, TrailStats};
pub use error::TrailError;
pub use multi::{owning_log, MultiTrail, REGION_SECTORS};

pub use formatter::{
    data_track_range, format_log_disk, read_header, replica_lba, write_header, FormatOptions,
    FormatReport, CALIBRATION_TRACK,
};
pub use predict::{HeadPredictor, Reference};
pub use recovery::{recover, recover_with_targets, RecoveryOptions, RecoveryReport};
pub use stack::{read_blocking, write_blocking, BlockStack, SharedStack, StandardStack};
pub use tracks::TrackPool;
pub use trail_probe::TrackLeads;
