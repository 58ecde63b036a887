//! # trail-blockio: request queues, the C-LOOK elevator, and the baseline driver
//!
//! The kernel block layer of the Trail reproduction (Chiueh & Huang,
//! *Track-Based Disk Logging*, DSN 2002). The paper evaluates Trail against
//! "Linux's disk subsystem": a queueing driver that services synchronous
//! writes in place, paying full seek and rotational latency. This crate
//! provides that baseline ([`StandardDriver`]) plus the queue policy both
//! systems share:
//!
//! - the [`Clook`] elevator every driver queues with;
//! - [`Priority::ReadsFirst`], the read-over-write-back policy Trail uses
//!   on its data disks (paper §4.3);
//! - the request/completion vocabulary ([`IoRequest`], [`IoDone`]) used by
//!   every layer above.
//!
//! # Examples
//!
//! ```
//! use trail_sim::Simulator;
//! use trail_disk::{profiles, Disk, SECTOR_SIZE};
//! use trail_blockio::{IoRequest, StandardDriver};
//!
//! let mut sim = Simulator::new();
//! let drv = StandardDriver::new(Disk::new("data", profiles::wd_caviar_10gb()));
//! let done = sim.completion(|_, d: trail_sim::Delivered<trail_blockio::IoDone>| {
//!     // A synchronous write on the baseline pays seek + rotation.
//!     let done = d.expect("delivered");
//!     assert!(done.breakdown.rotation.as_millis_f64() >= 0.0);
//! });
//! drv.submit(&mut sim, IoRequest::write(4096, vec![0u8; SECTOR_SIZE]), done)?;
//! sim.run();
//! # Ok::<(), trail_disk::DiskError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod device;
mod driver;
mod request;
mod sched;
mod tap;

pub use device::{BlockDevice, SharedBlockDevice};
pub use driver::{DriverStats, StandardDriver};
pub use request::{IoDone, IoKind, IoRequest, RequestId};
pub use sched::{Clook, Priority, QueuedIo};
pub use tap::{SubmitTap, TapHandle};
pub use trail_telemetry::StreamId;
