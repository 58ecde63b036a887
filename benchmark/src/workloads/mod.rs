//! The six workloads. Each runs inside a fresh child process and drives the
//! library crates through their public functions only.

pub mod crash_recover;
pub mod replay;
pub mod serve_ladder;
pub mod sync_write;
pub mod tpcc;

use crate::report::{Ctx, Outcome};

/// Workload names, in the order the one command runs them.
pub const NAMES: [&str; 6] = [
    "sync_write",
    "tpcc",
    "serve_ladder",
    "replay_trail",
    "replay_sharded",
    "crash_recover",
];

pub fn run(name: &str, ctx: &mut Ctx) -> Option<Outcome> {
    Some(match name {
        "sync_write" => sync_write::run(ctx),
        "tpcc" => tpcc::run(ctx),
        "serve_ladder" => serve_ladder::run(ctx),
        "replay_trail" => replay::run_trail(ctx),
        "replay_sharded" => replay::run_sharded(ctx),
        "crash_recover" => crash_recover::run(ctx),
        _ => return None,
    })
}
