//! # trail-trace: workload traces for the Trail reproduction
//!
//! The paper's evaluation drives the same storage stacks with the same
//! workloads and compares latency distributions. This crate makes the
//! *workload* a first-class, storable artifact, in four pieces:
//!
//! - [`format`] — a versioned, self-describing trace model: timestamped
//!   block requests (arrival, op, device, LBA, length, stream).
//! - [`codec`] — a compact canonical binary encoding plus a JSONL
//!   export, both round-trip exact and both streamed through one
//!   [`RecordSource`] / [`RecordSink`] interface.
//! - [`gen`] — synthetic generators: Poisson and bursty arrivals,
//!   uniform/Zipf-like/sequential-run spatial locality, configurable
//!   read mix and stream count, all seeded through [`trail_sim::rng`].
//! - [`import`] — `blkparse` text import, so real Linux block traces
//!   replay against the simulated stacks (CPU column → stream tag).
//! - [`capture`] / [`replay`] — record the offered load of any running
//!   scenario through the stack's `set_tap` hook, then replay it **open
//!   loop** at recorded arrival times (with a 0.5×–8× time-scale knob)
//!   against any stack — raw C-LOOK disks, Trail, a multi-log Trail
//!   array, or an ext2/LFS file system over either — reporting
//!   p50/p99/p99.9 latency and queue depth over time.
//!
//! One trace, any stack: capture a TPC-C run over Trail, then replay
//! the identical request stream against the standard stack and read the
//! latency gap straight off the two reports.
//!
//! ```
//! use trail_trace::{from_binary, generate, to_binary, SyntheticSpec};
//!
//! let trace = generate(&SyntheticSpec::default());
//! let bytes = to_binary(&trace);
//! assert_eq!(from_binary(&bytes).unwrap(), trace);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capture;
pub mod codec;
pub mod format;
pub mod gen;
pub mod import;
pub mod replay;
pub mod shard;

pub use capture::TraceCapture;
pub use codec::{
    crc32, from_binary, recode, to_binary, JsonlReader, JsonlWriter, RecordSink, RecordSource,
    TraceError, TraceReader, TraceWriter, DEFAULT_CHUNK_RECORDS, RECORD_BYTES, TRACE_MAGIC,
};
pub use format::{
    ChunkEncoding, RecordCheck, StreamSummary, StreamSummaryBuilder, Trace, TraceMeta, TraceOp,
    TraceRecord, TRACE_VERSION,
};
pub use gen::{
    generate, generate_records, generate_stream, ArrivalModel, SpatialModel, SyntheticSpec,
};
pub use import::{
    import_blkparse, import_blkparse_into, scan_blkparse, BlkparseScan, ImportError, ImportOptions,
};
pub use replay::{
    replay, replay_stream, scale_ns, ReplayError, ReplayOptions, ReplayReport, TargetKind,
};
pub use shard::{replay_stream_sharded, ShardPlan};
pub use trail_telemetry::StreamId;
