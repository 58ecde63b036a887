//! # trail-tpcc: the TPC-C workload for the Trail reproduction
//!
//! Generates the paper's database workload (DSN 2002, §5.2): the standard
//! TPC-C transaction mix over a w = 1 warehouse, driven by closed-loop
//! terminals against the [`trail_db`] engine. Tables 2 and 3 of the paper
//! come out of [`run`] with different storage stacks and flush policies:
//!
//! - `EXT2+Trail`: [`trail_core::MultiTrail`] over one log disk,
//!   every-commit forces, terminals chain on durability;
//! - `EXT2`: [`trail_core::StandardStack`], every-commit forces, terminals
//!   chain on durability;
//! - `EXT2+GC`: [`trail_core::StandardStack`], group commit by log-buffer
//!   size, terminals chain on control (the commit returns before the
//!   force — which is why its *response time* balloons).
//!
//! Population is an untimed "restore from backup" ([`populate`]) followed
//! by cache warming, substituting for the paper's 200 000 warm-up
//! transactions (see `DESIGN.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gen;
pub mod schema;
mod terminal;
mod workload;

pub use gen::{nurand, TxnType};
pub use schema::{row, Scale};
pub use terminal::{run, ChainOn, RunConfig, TpccReport};
pub use workload::{populate, CpuModel, Workload};
