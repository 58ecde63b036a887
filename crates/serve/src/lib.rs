//! # trail-serve: a storage service front-end over the Trail stack
//!
//! The paper's setting is a *server*: terminals hit a database whose
//! log rides a track-based disk log. This crate closes that loop by
//! putting a serving layer on top of the storage stack, entirely on the
//! simulator clock:
//!
//! - [`wire`] — a versioned, framed binary protocol
//!   (`Get`/`Put`/`Commit`/`Open`/`Close` requests; status + payload
//!   responses). Every simulated request is really encoded to bytes and
//!   decoded back, so the codec is load-bearing, not decorative.
//! - [`Server`] / [`SessionHandle`] — sessions keyed by
//!   [`StreamId`](trail_telemetry::StreamId) (terminal-as-stream, so
//!   every layer below can attribute a request to its session), with
//!   **drop-cancels-in-flight** built on the `Completion`
//!   cancel-cascade: dropping a handle abruptly disconnects the session
//!   and every outstanding request answers `Err(Cancelled)`.
//! - [`AdmissionPolicy`] — a bounded pool of worker slots fed by one
//!   admission queue: queue without limit, reject when full, or shed
//!   stale work at dispatch. Slots are held to durability, so log-disk
//!   saturation is what backpressure actually propagates.
//! - [`run_fleet`] — a simulated client fleet: one session per workload
//!   stream, open- or closed-loop arrivals reusing the `trail-trace`
//!   generator, per-client latency lanes (p50/p95/p99/p99.9), and
//!   connection churn mid-run.
//!
//! ```
//! use trail_serve::{run_fleet, FleetMode, FleetSpec, Server, ServerConfig};
//! use trail_core::{SharedStack, StandardStack};
//! use trail_db::StorageService;
//! use trail_disk::{profiles, Disk};
//! use trail_sim::Simulator;
//! use std::rc::Rc;
//!
//! let mut sim = Simulator::new();
//! let disks = vec![Disk::new("d0", profiles::tiny_test_disk())];
//! let capacity = disks.iter().map(|d| d.geometry().total_sectors()).collect();
//! let stack: SharedStack = Rc::new(StandardStack::new(disks));
//! let server = Server::new(StorageService::new(stack, capacity), ServerConfig::default());
//! let report = run_fleet(
//!     &mut sim,
//!     &server,
//!     &FleetSpec { sessions: 2, requests: 16, ..FleetSpec::default() },
//! );
//! assert_eq!(report.served, 16);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fleet;
pub mod server;
pub mod wire;

pub use fleet::{run_fleet, FleetMode, FleetReport, FleetSpec};
pub use server::{AdmissionPolicy, Server, ServerConfig, ServerStats, SessionHandle};
pub use wire::{Request, Response, Status, WireError, MAX_BODY, VERSION};
