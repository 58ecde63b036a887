//! Parallel sharded replay: partition a trace by stream, replay each
//! shard on its own OS thread against its own simulator and target
//! stack, then merge the per-shard reports deterministically.
//!
//! # Why sharding is sound
//!
//! The simulated stacks are shared-nothing per *device*: a request only
//! interacts with other requests through the queues of the devices it
//! touches. Partitioning records by stream therefore reproduces the
//! single-engine timeline exactly when streams do not share devices
//! (each shard's simulator sees precisely the traffic its devices would
//! have seen), and approximates it otherwise — the same trade every
//! trace-driven parallel simulator makes. What the merge *guarantees*,
//! regardless of routing, is determinism: the merged report is a pure
//! function of the trace, the options and the shard count. Worker
//! thread count never appears in any artifact — threads only decide
//! which shard runs when, and every shard's result is computed in its
//! own sealed simulator.
//!
//! # What the merge does
//!
//! - **Summed**: request counts; the host-side `media` ledger (every
//!   shard owns its disks).
//! - **Concatenated**: per-stream metrics (streams are partitioned
//!   across shards, so each lane comes from exactly one shard);
//!   per-volume stats, in shard order. The read/write/error counts and
//!   the latency histograms are then re-derived from the merged lanes,
//!   exactly as a single engine derives them.
//! - **Order-independent fold**: the latency fingerprint, a
//!   wrapping sum of per-record mixes over *global* record indices —
//!   shard cursors preserve file-order indices (see
//!   [`crate::replay`]), so the fold commutes with partitioning.
//! - **Maxed**: duration (last completion over all shards), plus the
//!   concurrency witnesses `max_queue_depth` and
//!   `peak_resident_records`, which become per-shard maxima —
//!   documented as such, since no single engine observed the union.
//! - **Sampled union**: queue-depth samples are summed by instant
//!   across the shards that sampled that instant.

use std::collections::BTreeMap;
use std::io::Read;

use trail_sim::parallel_map;

use crate::codec::{TraceError, TraceReader};
use crate::replay::{run_engine, ReplayError, ReplayOptions, ReplayReport, ShardCursor};

/// How to split and schedule a sharded replay.
#[derive(Clone, Copy, Debug)]
pub struct ShardPlan {
    /// Number of shards the trace is partitioned into (records route by
    /// `stream mod shards`). Determines the merged report; `0` is
    /// raised to 1.
    pub shards: u32,
    /// Worker threads to run shards on. Affects wall-clock only — the
    /// merged report is identical for any thread count. `0` is raised
    /// to 1; more threads than shards are not spawned.
    pub threads: usize,
}

impl ShardPlan {
    /// A plan with one worker thread per shard.
    #[must_use]
    pub fn new(shards: u32) -> ShardPlan {
        ShardPlan {
            shards,
            threads: shards.max(1) as usize,
        }
    }
}

/// Replays a binary trace stream sharded by stream tag, one engine per
/// shard on [`ShardPlan::threads`] worker threads, and merges the
/// per-shard reports into one [`ReplayReport`] (see the module docs for
/// the exact merge rules).
///
/// `open` is called once per shard to produce an independent reader
/// over the same bytes — each shard decodes (and CRC-checks) the whole
/// file and feeds only its own records to its engine, so memory stays
/// bounded by queue depth per shard, never O(trace).
///
/// The merged report depends on the trace, the options and
/// [`ShardPlan::shards`] — never on [`ShardPlan::threads`]. With
/// `shards == 1` it is byte-identical to [`crate::replay_stream`];
/// with shared-nothing routing (no two streams touching one device) the
/// latency artifacts match the single-engine replay for any shard
/// count. Both properties are held by `cargo test -p trail-trace`.
///
/// # Errors
///
/// As [`crate::replay_stream`]; shards that see no records are skipped,
/// and only if *every* shard is empty does the call fail with
/// [`ReplayError::EmptyTrace`]. The first failing shard (in shard
/// order) decides the error.
///
/// # Panics
///
/// Panics if `opts.recorder` or `opts.tap` is set — those handles are
/// single-simulator channels (`Rc`-based) and cannot span the per-shard
/// engines. Capture a sharded replay by capturing the shards'
/// input trace instead.
pub fn replay_stream_sharded<R, F>(
    open: F,
    plan: ShardPlan,
    opts: &ReplayOptions,
) -> Result<ReplayReport, ReplayError>
where
    R: Read + 'static,
    F: Fn() -> Result<TraceReader<R>, TraceError> + Sync,
{
    assert!(
        opts.recorder.is_none() && opts.tap.is_none(),
        "sharded replay cannot host a recorder or tap: the handles are \
         single-simulator channels; capture the input trace instead"
    );
    let shards = plan.shards.max(1);
    // The handles above are `Rc`-based, so `ReplayOptions` itself is
    // not `Sync`: the workers borrow its plain-data fields one by one
    // and rebuild the options around them.
    let ReplayOptions {
        target,
        speed,
        fs_file_blocks,
        recorder: _,
        tap: _,
        faults,
        max_in_flight,
    } = opts;
    let results = parallel_map(
        (0..shards).collect::<Vec<u32>>(),
        plan.threads.max(1),
        |shard| -> Result<Option<ReplayReport>, ReplayError> {
            let reader = open().map_err(ReplayError::Trace)?;
            let ndisks = usize::from(reader.meta().devices).max(1);
            let opts = ReplayOptions {
                target: *target,
                speed: *speed,
                fs_file_blocks: *fs_file_blocks,
                recorder: None,
                tap: None,
                faults: faults.clone(),
                max_in_flight: *max_in_flight,
            };
            match run_engine(
                Box::new(ShardCursor::new(reader, shard, shards)),
                ndisks,
                &opts,
            ) {
                Ok(report) => Ok(Some(report)),
                Err(ReplayError::EmptyTrace) => Ok(None),
                Err(e) => Err(e),
            }
        },
    );
    let mut merged: Option<ReplayReport> = None;
    for r in results {
        let Some(report) = r? else { continue };
        merged = Some(match merged {
            None => report,
            Some(acc) => merge_reports(acc, &report),
        });
    }
    merged.ok_or(ReplayError::EmptyTrace)
}

/// Folds `b` into `a` per the module-doc merge rules. Merging a single
/// report is the identity, which is what makes `shards == 1`
/// byte-identical to the unsharded path.
fn merge_reports(mut a: ReplayReport, b: &ReplayReport) -> ReplayReport {
    assert_eq!(
        a.target, b.target,
        "shards replayed against different targets"
    );
    assert_eq!(
        a.started_at, b.started_at,
        "shard simulators booted to different start instants; the \
         deterministic boot invariant is broken"
    );
    a.requests += b.requests;
    a.duration = a.duration.max(b.duration);
    a.streams.merge(&b.streams);
    a.sum_lanes();
    a.latency_fingerprint = a.latency_fingerprint.wrapping_add(b.latency_fingerprint);
    a.peak_resident_records = a.peak_resident_records.max(b.peak_resident_records);
    a.max_queue_depth = a.max_queue_depth.max(b.max_queue_depth);
    let mut by_instant: BTreeMap<trail_sim::SimTime, u32> = BTreeMap::new();
    for (at, depth) in a.queue_depth.iter().chain(b.queue_depth.iter()) {
        *by_instant.entry(*at).or_insert(0) += depth;
    }
    a.queue_depth = by_instant.into_iter().collect();
    a.volume_stats.extend(b.volume_stats.iter().cloned());
    a.media += b.media;
    a
}
