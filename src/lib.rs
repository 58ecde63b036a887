//! # Trail: track-based disk logging
//!
//! A complete, from-scratch reproduction of Chiueh & Huang, *Track-Based
//! Disk Logging* (DSN 2002) — the **Trail** low-write-latency disk
//! subsystem — together with every substrate it needs: a mechanical-disk
//! simulator, a block I/O layer, disk-timing calibration probes, a
//! Berkeley-DB-like transactional engine, and the TPC-C workload the paper
//! evaluates with.
//!
//! This umbrella crate re-exports the workspace's public APIs under one
//! roof. The layers, bottom to top:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`sim`] | `trail-sim` | deterministic discrete-event simulator, virtual time, measurement collectors |
//! | [`disk`] | `trail-disk` | zoned-geometry rotating-disk model with power-failure injection |
//! | [`blockio`] | `trail-blockio` | request queues, C-LOOK/FIFO schedulers, the baseline driver |
//! | [`probe`] | `trail-probe` | rotation/skew/δ/reposition-lead calibration (paper §3.1) |
//! | [`core`] | `trail-core` | **the Trail driver**: head prediction, self-describing log, batching, recovery |
//! | [`db`] | `trail-db` | WAL + group commit + page cache transactional engine |
//! | [`tpcc`] | `trail-tpcc` | the TPC-C workload and closed-loop terminals |
//!
//! # Quickstart
//!
//! ```
//! use trail::core::BlockStack;
//! use trail::prelude::*;
//!
//! // A simulated machine: one SCSI log disk, one IDE data disk.
//! let mut sim = Simulator::new();
//! let log = Disk::new("log", profiles::seagate_st41601n());
//! let data = Disk::new("data", profiles::wd_caviar_10gb());
//!
//! // Format (probes rotation period and calibrates the leads), then boot.
//! format_log_disk(&mut sim, &log, FormatOptions::default())?;
//! let (trail, _) = MultiTrail::start(&mut sim, vec![log], vec![data], TrailConfig::default())?;
//!
//! // Synchronous writes are durable in ~1.5 ms instead of ~16 ms. The
//! // completion token is delivered once (or cancelled on teardown).
//! let done = sim.completion(|_, done: Delivered<IoDone>| {
//!     println!("durable after {}", done.expect("delivered").latency());
//! });
//! trail.write(&mut sim, 0, 4096, vec![42; 1024], done)?;
//! trail.run_until_quiescent(&mut sim);
//! trail.shutdown(&mut sim)?;
//! # Ok::<(), trail::core::TrailError>(())
//! ```
//!
//! Or let a [`Scenario`] build the whole testbed in one line (every data
//! device — raw disk or RAID volume — is made once as a block target and
//! the chosen front end is booted over them):
//!
//! ```
//! use trail::StackBuilder;
//! let built = StackBuilder::new().data_disks(3).trail_default().build()?;
//! assert_eq!(built.multi.expect("a Trail stack").drivers().len(), 1);
//! # Ok::<(), trail::core::TrailError>(())
//! ```
//!
//! # Reproducing the paper
//!
//! Every table and figure is a scenario of the `trail-bench` binary; run
//! the whole suite in parallel with
//! `cargo run --release -p trail-bench -- all`, or one experiment
//! with `cargo run --release -p trail-bench -- table2`. See
//! `DESIGN.md` for the experiment index and `EXPERIMENTS.md` for
//! paper-vs-measured results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use trail_blockio as blockio;
pub use trail_core as core;
pub use trail_db as db;
pub use trail_disk as disk;
pub use trail_fs as fs;
pub use trail_probe as probe;
pub use trail_sim as sim;
pub use trail_tpcc as tpcc;
pub use trail_volume as volume;

pub mod drive;
pub mod explore;
mod scenario;
mod target;
pub use scenario::{BuiltStack, Scenario, StackBuilder};
pub use target::{Front, Mount, Raid, TargetKind};

/// The names most programs need, in one import.
pub mod prelude {
    pub use crate::scenario::{BuiltStack, Scenario, StackBuilder};
    pub use crate::target::{Front, Mount, Raid, TargetKind};
    pub use trail_blockio::{
        IoDone, IoKind, IoRequest, StandardDriver, StreamId, SubmitTap, TapHandle,
    };
    pub use trail_core::{
        format_log_disk, read_header, recover, FormatOptions, MultiTrail, RecoveryOptions,
        TrailConfig, TrailDriver, TrailError,
    };
    pub use trail_disk::{profiles, Disk, DiskCommand, DiskRole, SECTOR_SIZE};
    pub use trail_sim::{
        Completion, Delivered, Fault, FaultClock, FaultKind, FaultPlan, FaultSink, FaultTarget,
        IoError, SimDuration, SimTime, Simulator,
    };
    pub use trail_volume::{RaidVolume, ReadPolicy, VolumeLayout};
}
