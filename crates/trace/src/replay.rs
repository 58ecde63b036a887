//! Open-loop trace replay against any storage stack.
//!
//! The replay engine feeds the simulator from one stream of records in
//! file order — an in-memory trace or any [`RecordSource`], such as a
//! binary [`TraceReader`](crate::TraceReader) decoding one chunk at a
//! time or a [`JsonlReader`](crate::JsonlReader) parsing one line at a
//! time — and lets completions land whenever the stack delivers them:
//! **open loop**, so a slow stack does not slow the arrival process
//! down, it just builds queue depth. That is the property that makes
//! replay an apples-to-apples comparison: the same offered load hits a
//! raw C-LOOK stack, Trail, a multi-log Trail array, or a file system,
//! and the latency distributions and queue-depth trajectories are
//! directly comparable.
//!
//! Targets are built by the umbrella crate's one build path
//! ([`trail::StackBuilder::build_target`]), so a replay and a
//! `trail-bench` scenario naming the same [`TargetKind`] drive exactly
//! the same stack.
//!
//! # Bounded memory
//!
//! Replay never materializes the whole trace. A single dispatcher
//! ("pump") event keeps exactly **one pending record** decoded ahead of
//! the clock; on firing it drains every arrival that is due, issues the
//! batch in record order, and re-arms itself at the next pending
//! arrival. Peak residency is therefore one decoded chunk plus the
//! requests currently in flight — O(chunk × queue depth), independent
//! of trace length — and [`ReplayReport::peak_resident_records`]
//! reports the proxy the bench suite gates on. Latencies are folded
//! into an order-independent [`ReplayReport::latency_fingerprint`]
//! instead of a per-record vector, and queue-depth samples are
//! downsampled to a fixed budget by stride doubling.
//!
//! Records issue in file order; a trace in canonical `(arrival,
//! stream)` order therefore issues same-instant arrivals in ascending
//! stream order. Report bytes are pinned in `tests/stream_properties.rs`
//! (two targets, plus a trace whose arrivals collide on the same
//! instants), so any change to the issue order shows.
//!
//! ```
//! use trail_trace::{generate, replay, ReplayOptions, SyntheticSpec, TargetKind};
//!
//! let trace = generate(&SyntheticSpec {
//!     requests: 50,
//!     streams: 2,
//!     ..SyntheticSpec::default()
//! });
//! let report = replay(
//!     &trace,
//!     &ReplayOptions {
//!         target: TargetKind::Trail,
//!         ..ReplayOptions::default()
//!     },
//! )?;
//! assert_eq!(report.requests, 50);
//! assert_eq!(report.streams.streams(), 2);
//! # Ok::<(), trail_trace::ReplayError>(())
//! ```

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use trail::{BuiltStack, StackBuilder};
use trail_blockio::{IoRequest, TapHandle};
use trail_core::{BlockStack, TrailError};
use trail_disk::{Disk, ImagePool, MediumStats, SECTOR_SIZE};
use trail_fs::{FileHandle, FileSystem, FsError, FS_BLOCK_SIZE};
use trail_sim::{
    Completion, Delivered, DurationHistogram, FaultPlan, SimDuration, SimTime, Simulator,
};
use trail_telemetry::{histogram_json, JsonValue, RecorderHandle, StreamId, StreamMetrics};

pub use trail::TargetKind;
use trail_blockio::IoDone;

use crate::codec::{RecordSource, TraceError};
use crate::format::{Trace, TraceRecord};

/// Queue-depth sampling period of every replay, in virtual time.
const SAMPLE_EVERY: SimDuration = SimDuration::from_millis(10);

/// How to replay. The target is built with one data disk per device the
/// trace addresses (for streaming replay, the header's device count — the
/// header cannot know more than it declares).
#[derive(Clone)]
pub struct ReplayOptions {
    /// The stack to drive.
    pub target: TargetKind,
    /// Time-scale knob: arrivals are compressed by this factor (2.0
    /// offers the load twice as fast). Clamped to `0.5..=8.0`; `1.0`
    /// replays at recorded speed.
    pub speed: f64,
    /// File size, in 4-KB blocks, of the per-device file that file-system
    /// targets replay into (raised to at least 64).
    pub fs_file_blocks: u32,
    /// Telemetry recorder installed on the stack (after setup, so the
    /// trace starts clean).
    pub recorder: Option<RecorderHandle>,
    /// Capture tap installed on the stack (after setup) — for recording
    /// what the replay itself submits, e.g. a capture→replay round trip.
    pub tap: Option<TapHandle>,
    /// Declarative fault schedule armed on the freshly built target,
    /// with offsets relative to the replay's start: member failures,
    /// power cuts, transient I/O errors and latency spikes, all through
    /// the one [`FaultPlan`] grammar. Faults naming devices or volumes
    /// the target does not have are tolerated (armed but unhandled), so
    /// one plan can drive a sweep over heterogeneous targets.
    pub faults: FaultPlan,
}

impl Default for ReplayOptions {
    /// Standard stack, recorded speed, 4-MB files.
    fn default() -> Self {
        ReplayOptions {
            target: TargetKind::Standard,
            speed: 1.0,
            fs_file_blocks: 1024,
            recorder: None,
            tap: None,
            faults: FaultPlan::new(),
        }
    }
}

/// Why a replay could not run.
#[derive(Debug)]
pub enum ReplayError {
    /// The trace holds no records.
    EmptyTrace,
    /// Building or preparing the target failed.
    Target(TrailError),
    /// Decoding the trace stream failed mid-replay.
    Trace(TraceError),
    /// A record addressed a device the built target does not have —
    /// only reachable when streaming, where the header's device count
    /// sizes the target before the records are seen.
    BadDevice {
        /// The offending record's device index.
        dev: u16,
        /// Devices the target was built with.
        ndisks: usize,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::EmptyTrace => write!(f, "cannot replay an empty trace"),
            ReplayError::Target(e) => write!(f, "building the target stack failed: {e}"),
            ReplayError::Trace(e) => write!(f, "{e}"),
            ReplayError::BadDevice { dev, ndisks } => write!(
                f,
                "trace record addresses device {dev} but the target has {ndisks} device(s); \
                 the stream header under-declared its device count"
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<TrailError> for ReplayError {
    fn from(e: TrailError) -> ReplayError {
        ReplayError::Target(e)
    }
}

/// What a replay measured. The per-stream lanes in
/// [`streams`](ReplayReport::streams) are where each completion is
/// recorded; the aggregate counts and histograms are those lanes summed
/// (exactly — histograms merge bucket-wise).
pub struct ReplayReport {
    /// The target's shape, as [`TargetKind`] prints it.
    pub target: String,
    /// The effective (clamped) time-scale factor.
    pub speed: f64,
    /// Requests issued.
    pub requests: u64,
    /// Reads among them.
    pub reads: u64,
    /// Writes among them.
    pub writes: u64,
    /// Requests that errored or were cancelled (folded into
    /// [`ReplayReport::latency_fingerprint`] with a sentinel latency and
    /// excluded from the histograms).
    pub errors: u64,
    /// Simulator instant the first arrival was anchored to; subtracting
    /// it from a capture of this replay recovers the input trace's
    /// timeline.
    pub started_at: SimTime,
    /// Virtual time from the anchor to the last completion.
    pub duration: SimDuration,
    /// End-to-end latency over all successful requests.
    pub latency: DurationHistogram,
    /// Latency over successful reads.
    pub read_latency: DurationHistogram,
    /// Latency over successful writes.
    pub write_latency: DurationHistogram,
    /// Per-stream latency and concurrency, keyed by the trace's stream
    /// tags.
    pub streams: StreamMetrics,
    /// Order-independent digest over `(record index, latency)` pairs —
    /// the byte-comparable determinism witness that replaced the
    /// unbounded per-record latency vector. Two replays of the same
    /// trace against the same target match on this field exactly.
    pub latency_fingerprint: u64,
    /// Peak number of trace records resident in the engine at once
    /// (requests in flight plus the arrival batch being issued) — the
    /// bounded-memory witness. Stays O(queue depth), not O(trace).
    pub peak_resident_records: u64,
    /// Highest concurrent in-flight count observed.
    pub max_queue_depth: u32,
    /// Sampled `(instant, in-flight)` pairs, every 10 ms of virtual time
    /// — downsampled by stride doubling to a fixed budget on long runs.
    pub queue_depth: Vec<(SimTime, u32)>,
    /// Per-volume statistics for RAID targets (member latency
    /// breakdowns, reconstruct/full-stripe counters, degraded reads), in the
    /// target's volume order; empty for targets without volumes.
    pub volume_stats: Vec<trail::volume::VolumeStats>,
    /// What the stack's recording media cost the host when the replay
    /// ended, summed over its disks and each of their pools once (and over
    /// shards, which share no pool): a host-side figure for consoles,
    /// deliberately absent from [`to_json`](ReplayReport::to_json).
    pub media: MediumStats,
}

impl ReplayReport {
    /// The report as a JSON object (histograms include `p50_ms`,
    /// `p99_ms`, `p999_ms`; a `streams` object keyed by stream tag;
    /// queue-depth samples as `[ms, depth]` pairs). Everything in it is
    /// virtual-time-derived, so a fixed trace and options produce
    /// identical JSON on every run.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("target", JsonValue::str(self.target.clone())),
            ("speed", JsonValue::Num(self.speed)),
            ("requests", JsonValue::Num(self.requests as f64)),
            ("reads", JsonValue::Num(self.reads as f64)),
            ("writes", JsonValue::Num(self.writes as f64)),
            ("errors", JsonValue::Num(self.errors as f64)),
            ("duration_ms", JsonValue::Num(self.duration.as_millis_f64())),
            ("latency", histogram_json(&self.latency)),
            ("read_latency", histogram_json(&self.read_latency)),
            ("write_latency", histogram_json(&self.write_latency)),
            ("streams", self.streams.to_json()),
            (
                "latency_fingerprint",
                JsonValue::str(format!("{:016x}", self.latency_fingerprint)),
            ),
            (
                "max_queue_depth",
                JsonValue::Num(f64::from(self.max_queue_depth)),
            ),
            (
                "peak_resident_records",
                JsonValue::Num(self.peak_resident_records as f64),
            ),
            (
                "queue_depth",
                JsonValue::Arr(
                    self.queue_depth
                        .iter()
                        .map(|(at, depth)| {
                            JsonValue::Arr(vec![
                                JsonValue::Num(
                                    at.saturating_duration_since(self.started_at)
                                        .as_millis_f64(),
                                ),
                                JsonValue::Num(f64::from(*depth)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("volumes", self.volumes_json()),
        ])
    }

    /// The `"volumes"` array of [`to_json`](ReplayReport::to_json): each
    /// volume's [`summary_json`](trail::volume::VolumeStats::summary_json),
    /// in order.
    #[must_use]
    pub fn volumes_json(&self) -> JsonValue {
        JsonValue::Arr(
            self.volume_stats
                .iter()
                .map(trail::volume::VolumeStats::summary_json)
                .collect(),
        )
    }

    /// Derives the aggregate counts and histograms from the stream lanes,
    /// their one home.
    pub(crate) fn sum_lanes(&mut self) {
        let all = self.streams.total();
        self.reads = all.reads;
        self.writes = all.writes;
        self.errors = all.errors;
        self.latency = all.latency;
        self.read_latency = all.read_latency;
        self.write_latency = all.write_latency;
    }
}

/// The records a replay feeds its engine, in file order.
pub(crate) type Records = Box<dyn Iterator<Item = Result<TraceRecord, TraceError>>>;

/// The arrival frontier: the records plus at most **one** decoded record
/// waiting for its (time-scaled) arrival instant.
struct Source {
    records: Records,
    /// `(shard, shards)`: only records with `stream mod shards == shard`
    /// enter the engine. Skipped records are still decoded — every shard
    /// reads and CRC-checks the whole file.
    shard: Option<(u32, u32)>,
    /// Global file-order index of the next record off `records`.
    next_idx: u64,
    pending: Option<(SimTime, u64, TraceRecord)>,
    done: bool,
    failure: Option<ReplayError>,
    speed: f64,
    start: SimTime,
}

impl Source {
    /// Pulls records until one of this engine's is pending or the input
    /// ends.
    fn fill(&mut self) {
        while self.pending.is_none() && !self.done {
            match self.records.next() {
                None => self.done = true,
                Some(Err(e)) => {
                    self.failure = Some(ReplayError::Trace(e));
                    self.done = true;
                }
                Some(Ok(r)) => {
                    // Counted before the shard filter, so an index is a
                    // position in the whole trace and the latency
                    // fingerprint is the same however the trace is
                    // partitioned.
                    let idx = self.next_idx;
                    self.next_idx += 1;
                    if self
                        .shard
                        .is_some_and(|(shard, shards)| r.stream.0 % shards != shard)
                    {
                        continue;
                    }
                    let at =
                        self.start + SimDuration::from_nanos(scale_ns(r.at.as_nanos(), self.speed));
                    self.pending = Some((at, idx, r));
                }
            }
        }
    }

    /// Next pending arrival instant, if any.
    fn peek_at(&mut self) -> Option<SimTime> {
        self.fill();
        self.pending.as_ref().map(|(at, _, _)| *at)
    }

    /// Drains every record whose scaled arrival is `<= now`, with their
    /// global file-order indices.
    fn take_due(&mut self, now: SimTime) -> Vec<(u64, TraceRecord)> {
        let mut batch = Vec::new();
        loop {
            self.fill();
            match &self.pending {
                Some((at, _, _)) if *at <= now => {
                    let (_, idx, r) = self.pending.take().expect("pending checked");
                    batch.push((idx, r));
                }
                _ => break,
            }
        }
        batch
    }

    /// All input consumed (no records left, nothing pending).
    fn exhausted(&self) -> bool {
        self.done && self.pending.is_none()
    }
}

/// splitmix64 finalizer — a cheap, well-mixed 64-bit permutation.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Digest of one `(record index, latency)` observation. Accumulated
/// with wrapping addition so the fingerprint is independent of
/// completion order while still binding each latency to its record.
fn fingerprint_one(idx: u64, latency_ns: u64) -> u64 {
    mix64(
        idx.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(mix64(latency_ns)),
    )
}

/// Queue-depth samples with a fixed memory budget: when the vector
/// outgrows the budget, every other sample is dropped and the sampling
/// stride doubles. Below the budget this is exactly "keep every
/// sample".
struct DepthSamples {
    stride: u64,
    tick: u64,
    samples: Vec<(SimTime, u32)>,
}

/// Retained queue-depth samples per replay (doubling keeps the vector
/// between half this and this).
const DEPTH_SAMPLE_BUDGET: usize = 2048;

impl DepthSamples {
    fn new() -> DepthSamples {
        DepthSamples {
            stride: 1,
            tick: 0,
            samples: Vec::new(),
        }
    }

    fn push(&mut self, at: SimTime, depth: u32) {
        if self.tick.is_multiple_of(self.stride) {
            self.samples.push((at, depth));
            if self.samples.len() > DEPTH_SAMPLE_BUDGET {
                let mut i = 0usize;
                self.samples.retain(|_| {
                    let keep = i.is_multiple_of(2);
                    i += 1;
                    keep
                });
                self.stride *= 2;
            }
        }
        self.tick += 1;
    }
}

/// Shared mutable replay accounting. Each completion is recorded once, in
/// its stream's lane; the report sums the lanes.
struct State {
    issued: u64,
    completed: u64,
    inflight: u32,
    max_inflight: u32,
    streams: StreamMetrics,
    fingerprint: u64,
    peak_resident: u64,
    last_issue_at: Option<SimTime>,
    batch_base: u32,
    batch_len: u64,
    samples: DepthSamples,
    last_done: SimTime,
}

impl State {
    fn new(start: SimTime) -> State {
        State {
            issued: 0,
            completed: 0,
            inflight: 0,
            max_inflight: 0,
            streams: StreamMetrics::new(),
            fingerprint: 0,
            peak_resident: 0,
            last_issue_at: None,
            batch_base: 0,
            batch_len: 0,
            samples: DepthSamples::new(),
            last_done: start,
        }
    }

    fn issue(&mut self, at: SimTime, stream: StreamId, is_read: bool) {
        // Group same-instant issues into one arrival batch: the residency
        // proxy is the in-flight count before the batch plus the batch
        // length, however many dispatcher or sampler events issue it.
        // The pinned report bytes fix this grouping.
        if self.last_issue_at != Some(at) {
            self.last_issue_at = Some(at);
            self.batch_base = self.inflight;
            self.batch_len = 0;
        }
        self.batch_len += 1;
        self.peak_resident = self
            .peak_resident
            .max(u64::from(self.batch_base) + self.batch_len);
        self.issued += 1;
        self.inflight += 1;
        self.max_inflight = self.max_inflight.max(self.inflight);
        self.streams.on_issue(stream, is_read);
    }

    fn finish(
        &mut self,
        at: SimTime,
        idx: u64,
        stream: StreamId,
        is_read: bool,
        outcome: Option<SimDuration>,
    ) {
        self.inflight -= 1;
        self.completed += 1;
        self.last_done = self.last_done.max(at);
        self.streams.on_complete(stream, is_read, outcome);
        let latency_ns = outcome.map_or(u64::MAX, SimDuration::as_nanos);
        self.fingerprint = self
            .fingerprint
            .wrapping_add(fingerprint_one(idx, latency_ns));
    }

    fn report(&self, target: &TargetKind, speed: f64, start: SimTime) -> ReplayReport {
        let mut report = ReplayReport {
            target: target.to_string(),
            speed,
            requests: self.issued,
            reads: 0,
            writes: 0,
            errors: 0,
            started_at: start,
            duration: self.last_done.saturating_duration_since(start),
            latency: DurationHistogram::new(),
            read_latency: DurationHistogram::new(),
            write_latency: DurationHistogram::new(),
            streams: self.streams.clone(),
            latency_fingerprint: self.fingerprint,
            peak_resident_records: self.peak_resident,
            max_queue_depth: self.max_inflight,
            queue_depth: self.samples.samples.clone(),
            volume_stats: Vec::new(),
            media: MediumStats::default(),
        };
        report.sum_lanes();
        report
    }
}

/// The medium of `disks`: the per-disk fields of their
/// [`Disk::medium_stats`] summed, and each image pool among them added
/// once however many of the disks share it.
fn media_of(disks: &[Disk]) -> MediumStats {
    let mut pools: Vec<ImagePool> = Vec::new();
    disks.iter().fold(MediumStats::default(), |mut sum, d| {
        let m = d.medium_stats();
        sum.written_sectors += m.written_sectors;
        sum.index_bytes += m.index_bytes;
        let pool = d.pool();
        if !pools.iter().any(|p| ImagePool::ptr_eq(p, &pool)) {
            sum.pool += m.pool;
            pools.push(pool);
        }
        sum
    })
}

/// What issuing a request needs, cheaply cloneable: the stack, each
/// device's mount (none: block-addressed) and [`BuiltStack::span`], and
/// the accounting.
#[derive(Clone)]
struct Issuer {
    stack: Rc<dyn BlockStack>,
    mounts: Rc<[(Rc<dyn FileSystem>, FileHandle)]>,
    spans: Rc<[u64]>,
    state: Rc<RefCell<State>>,
}

/// Everything a dispatcher event needs, cheaply cloneable.
#[derive(Clone)]
struct EngineCtx {
    source: Rc<RefCell<Source>>,
    issuer: Issuer,
    ndisks: usize,
}

/// The dispatcher: fires at the next pending arrival, drains everything
/// due, re-arms at the new frontier, then issues the batch in file
/// order. Re-arming before issuing keeps the pump's event ahead of this
/// batch's completions in same-instant tie-break order.
fn schedule_pump(sim: &mut Simulator, at: SimTime, ctx: EngineCtx) {
    sim.schedule_at(at, move |sim| {
        let batch = ctx.source.borrow_mut().take_due(sim.now());
        let next = ctx.source.borrow_mut().peek_at();
        if let Some(next_at) = next {
            schedule_pump(sim, next_at, ctx.clone());
        }
        issue_batch(sim, &ctx, batch);
    });
}

fn issue_batch(sim: &mut Simulator, ctx: &EngineCtx, batch: Vec<(u64, TraceRecord)>) {
    for (idx, r) in batch {
        if usize::from(r.dev) >= ctx.ndisks {
            let mut src = ctx.source.borrow_mut();
            src.failure = Some(ReplayError::BadDevice {
                dev: r.dev,
                ndisks: ctx.ndisks,
            });
            src.done = true;
            src.pending = None;
            return;
        }
        ctx.issuer
            .state
            .borrow_mut()
            .issue(sim.now(), r.stream, r.op.is_read());
        submit(sim, &ctx.issuer, idx, &r);
    }
}

/// Engine-side queue-depth sampler. Arrivals due at the sample instant
/// are drained first, so a sample tied with an arrival counts it in
/// flight; the pinned report bytes fix this order.
fn schedule_engine_sampler(sim: &mut Simulator, ctx: EngineCtx) {
    sim.schedule_in(SAMPLE_EVERY, move |sim| {
        let batch = ctx.source.borrow_mut().take_due(sim.now());
        issue_batch(sim, &ctx, batch);
        let finished = {
            let mut s = ctx.issuer.state.borrow_mut();
            let depth = s.inflight;
            s.samples.push(sim.now(), depth);
            ctx.source.borrow().exhausted() && s.completed >= s.issued
        };
        if !finished {
            schedule_engine_sampler(sim, ctx.clone());
        }
    });
}

/// Replays `trace` against the target `opts` describes; see the module
/// docs for the open-loop and bounded-memory semantics.
///
/// # Errors
///
/// [`ReplayError`] when the trace is empty or the target cannot be
/// built/prepared. Individual request failures during the replay do
/// *not* error — they are counted in [`ReplayReport::errors`].
///
/// # Panics
///
/// Panics if the simulation stalls (event queue drained with requests
/// outstanding) — a driver bug, not a workload condition.
pub fn replay(trace: &Trace, opts: &ReplayOptions) -> Result<ReplayReport, ReplayError> {
    if trace.is_empty() {
        return Err(ReplayError::EmptyTrace);
    }
    let ndisks = usize::from(trace.max_dev().unwrap_or(0)) + 1;
    run_engine(
        Box::new(trace.records.clone().into_iter().map(Ok)),
        None,
        ndisks,
        opts,
    )
}

/// Replays a record stream — a binary or JSONL trace file, or any other
/// [`RecordSource`] — one record at a time without ever holding the
/// whole trace: the bounded-memory path for traces too big for
/// [`replay`]. The target is sized from the source header's device
/// count; a record addressing a device beyond that fails with
/// [`ReplayError::BadDevice`].
///
/// When the header declares exactly the devices the records address,
/// the report is byte-identical to [`replay`] of the decoded trace —
/// `cargo test -p trail-trace` holds this as a property.
///
/// # Errors
///
/// As [`replay`], plus [`ReplayError::Trace`] when the stream is
/// truncated or corrupt mid-replay and [`ReplayError::BadDevice`] for
/// an under-declared device count.
///
/// # Panics
///
/// As [`replay`].
pub fn replay_stream<S: RecordSource + 'static>(
    mut source: S,
    opts: &ReplayOptions,
) -> Result<ReplayReport, ReplayError> {
    let ndisks = usize::from(source.meta().devices).max(1);
    let records = std::iter::from_fn(move || source.next_record());
    run_engine(Box::new(records), None, ndisks, opts)
}

/// The target `opts` names over `ndisks` data disks, booted with the
/// options' recorder and tap installed.
fn build(opts: &ReplayOptions, ndisks: usize) -> Result<BuiltStack, ReplayError> {
    let built = StackBuilder::new()
        .data_disks(ndisks)
        .fs_file_blocks(opts.fs_file_blocks)
        .faults(opts.faults.clone())
        .build_target(opts.target)?;
    if let Some(recorder) = &opts.recorder {
        built.stack.set_recorder(Rc::clone(recorder));
    }
    if let Some(tap) = &opts.tap {
        built.stack.set_tap(Rc::clone(tap));
    }
    Ok(built)
}

/// Replays `records` — only shard `shard.0` of `shard.1` when sharded —
/// against the target `opts` names over `ndisks` data disks.
pub(crate) fn run_engine(
    records: Records,
    shard: Option<(u32, u32)>,
    ndisks: usize,
    opts: &ReplayOptions,
) -> Result<ReplayReport, ReplayError> {
    let speed = opts.speed.clamp(0.5, 8.0);
    let built = build(opts, ndisks)?;
    let spans = (0..ndisks).map(|dev| built.span(dev)).collect();
    let BuiltStack {
        mut sim,
        stack,
        mounts,
        volumes,
        log_disks,
        data_disks,
        ..
    } = built;
    let start = sim.now();

    let mut source = Source {
        records,
        shard,
        next_idx: 0,
        pending: None,
        done: false,
        failure: None,
        speed,
        start,
    };
    let first_at = match source.peek_at() {
        Some(at) => at,
        None => {
            return Err(source.failure.take().unwrap_or(ReplayError::EmptyTrace));
        }
    };
    let ctx = EngineCtx {
        source: Rc::new(RefCell::new(source)),
        issuer: Issuer {
            stack,
            mounts: mounts.into(),
            spans,
            state: Rc::new(RefCell::new(State::new(start))),
        },
        ndisks,
    };
    schedule_pump(&mut sim, first_at, ctx.clone());
    schedule_engine_sampler(&mut sim, ctx.clone());

    loop {
        if let Some(f) = ctx.source.borrow_mut().failure.take() {
            return Err(f);
        }
        let (finished, outstanding) = {
            let s = ctx.issuer.state.borrow();
            let src = ctx.source.borrow();
            (
                src.exhausted() && s.completed >= s.issued,
                s.issued - s.completed,
            )
        };
        if finished {
            break;
        }
        assert!(
            sim.step(),
            "replay stalled: event queue drained with {outstanding} requests outstanding",
        );
    }
    let mut report = ctx.issuer.state.borrow().report(&opts.target, speed, start);
    report.volume_stats = volumes.iter().map(|v| v.with_stats(Clone::clone)).collect();
    report.media = media_of(&[log_disks, data_disks].concat());
    Ok(report)
}

/// Time-scales a relative arrival time of `ns` nanoseconds by `speed`
/// (2.0 offers it twice as fast); exactly the identity at 1×. Callers
/// clamp `speed` to the range they support.
#[must_use]
pub fn scale_ns(ns: u64, speed: f64) -> u64 {
    if speed == 1.0 {
        ns
    } else {
        (ns as f64 / speed) as u64
    }
}

/// Deterministic payload byte for record `idx`.
fn fill_byte(idx: u64) -> u8 {
    (idx as u8).wrapping_mul(31) ^ 0xA5
}

/// The one completion every replayed request reports through, whatever
/// the target hands back: `ok` says whether delivery `T` is a success.
fn accounting<T: 'static>(
    sim: &Simulator,
    issuer: &Issuer,
    idx: u64,
    r: &TraceRecord,
    ok: fn(&Delivered<T>) -> bool,
) -> Completion<T> {
    let issued = sim.now();
    let (stream, is_read) = (r.stream, r.op.is_read());
    let state = Rc::clone(&issuer.state);
    sim.completion(move |sim, d: Delivered<T>| {
        let now = sim.now();
        let outcome = ok(&d).then(|| now - issued);
        state
            .borrow_mut()
            .finish(now, idx, stream, is_read, outcome);
    })
}

/// Submits record `r`, at global file-order index `idx`.
fn submit(sim: &mut Simulator, issuer: &Issuer, idx: u64, r: &TraceRecord) {
    let (dev, sectors, stream, is_read) = (usize::from(r.dev), r.sectors, r.stream, r.op.is_read());
    let span = issuer.spans[dev];
    match issuer.mounts.get(dev) {
        None => {
            let headroom = span.saturating_sub(u64::from(sectors)) + 1;
            let lba = r.lba % headroom;
            let done = accounting(sim, issuer, idx, r, |d: &Delivered<IoDone>| d.is_ok());
            // A rejected submission drops the armed token, which cancels
            // it — the accounting counts that as an error.
            let req = match is_read {
                true => IoRequest::read(lba, sectors),
                false => {
                    IoRequest::write(lba, vec![fill_byte(idx); sectors as usize * SECTOR_SIZE])
                }
            };
            let _ = issuer.stack.submit(sim, dev, req.tagged(stream), done);
        }
        Some((fs, file)) => {
            let bytes = sectors as usize * SECTOR_SIZE;
            let blocks_needed = (bytes as u64).div_ceil(FS_BLOCK_SIZE as u64).max(1);
            // Map the sector address into the preallocated file,
            // block-aligned and clamped so the request always fits. The
            // file-system API carries no stream tag; per-stream lanes
            // are still tracked here at the replay layer.
            let block = (r.lba / (FS_BLOCK_SIZE / SECTOR_SIZE) as u64)
                % (span.saturating_sub(blocks_needed) + 1);
            let offset = block * FS_BLOCK_SIZE as u64;
            if is_read {
                let done = accounting(
                    sim,
                    issuer,
                    idx,
                    r,
                    |d: &Delivered<Result<Vec<u8>, FsError>>| matches!(d, Ok(Ok(_))),
                );
                let _ = fs.read(sim, *file, offset, bytes, done);
            } else {
                let done = accounting(sim, issuer, idx, r, |d: &Delivered<Result<(), FsError>>| {
                    matches!(d, Ok(Ok(())))
                });
                let data = vec![fill_byte(idx); bytes];
                let _ = fs.write(sim, *file, offset, data, true, done);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::TraceReader;
    use crate::gen::{generate, generate_stream, SyntheticSpec};

    fn small_trace() -> Trace {
        generate(&SyntheticSpec {
            requests: 40,
            read_fraction: 0.25,
            ..SyntheticSpec::default()
        })
    }

    #[test]
    fn a_two_disk_stack_reports_its_pool_once() {
        use trail_disk::{profiles, SECTOR_SIZE};
        let shared = ImagePool::new();
        let disks: Vec<Disk> = (0..2)
            .map(|i| Disk::in_pool(format!("d{i}"), profiles::tiny_test_disk(), &shared))
            .collect();
        let mut sector = [7u8; SECTOR_SIZE];
        disks[0].poke_sector(3, &sector);
        sector[0] = 0;
        disks[1].poke_sector(9, &sector);
        let (one, two) = (disks[0].medium_stats(), disks[1].medium_stats());
        assert_eq!(one.pool, two.pool, "both disks see the whole pool");
        let m = media_of(&disks);
        assert_eq!(m.written_sectors, 2);
        assert_eq!(m.index_bytes, one.index_bytes + two.index_bytes);
        assert_eq!(
            m.pool,
            shared.stats(),
            "the pool is counted once, not twice"
        );
        assert_eq!((m.pool.distinct_sectors, m.pool.alias_images), (2, 1));
        assert_eq!(
            m.pool.packed_images, 1,
            "the fill packs, its twin aliases it"
        );
        // A disk of another stack brings its own pool.
        let lone = Disk::new("lone", profiles::tiny_test_disk());
        lone.poke_sector(0, &sector);
        let mut both = m;
        both += lone.medium_stats();
        assert_eq!(media_of(&[disks[0].clone(), lone, disks[1].clone()]), both);
        assert_eq!(
            both.pool.packed_images, 2,
            "each pool's packed images, summed"
        );
    }

    #[test]
    fn replay_rejects_empty_traces() {
        assert!(matches!(
            replay(&Trace::default(), &ReplayOptions::default()),
            Err(ReplayError::EmptyTrace)
        ));
    }

    #[test]
    fn replay_standard_accounts_for_every_request() {
        let t = small_trace();
        let r = replay(&t, &ReplayOptions::default()).expect("replay");
        assert_eq!(r.requests, 40);
        assert_eq!(r.reads + r.writes, 40);
        assert_eq!(r.errors, 0);
        assert_eq!(r.latency.count(), 40);
        assert_ne!(r.latency_fingerprint, 0);
        assert!(r.peak_resident_records >= 1);
        assert!(r.peak_resident_records <= 40);
        assert!(r.max_queue_depth >= 1);
        assert!(!r.duration.is_zero());
    }

    #[test]
    fn trail_beats_standard_on_sync_write_latency() {
        let t = generate(&SyntheticSpec {
            requests: 60,
            read_fraction: 0.0,
            ..SyntheticSpec::default()
        });
        let std_rep = replay(&t, &ReplayOptions::default()).expect("standard");
        let trail_rep = replay(
            &t,
            &ReplayOptions {
                target: TargetKind::Trail,
                ..ReplayOptions::default()
            },
        )
        .expect("trail");
        // The paper's headline: Trail's log-disk writes complete well
        // under the standard stack's seek+rotation writes.
        assert!(
            trail_rep.latency.mean() < std_rep.latency.mean(),
            "trail {:?} vs standard {:?}",
            trail_rep.latency.mean(),
            std_rep.latency.mean()
        );
    }

    #[test]
    fn speed_knob_compresses_arrivals() {
        let t = small_trace();
        let slow = replay(&t, &ReplayOptions::default()).expect("1x");
        let fast = replay(
            &t,
            &ReplayOptions {
                speed: 8.0,
                ..ReplayOptions::default()
            },
        )
        .expect("8x");
        assert!(fast.duration < slow.duration);
        // Out-of-range speeds clamp instead of erroring.
        let clamped = replay(
            &t,
            &ReplayOptions {
                speed: 1000.0,
                ..ReplayOptions::default()
            },
        )
        .expect("clamped");
        assert_eq!(clamped.speed, 8.0);
    }

    #[test]
    fn replay_is_deterministic() {
        let t = small_trace();
        let a = replay(&t, &ReplayOptions::default()).expect("a");
        let b = replay(&t, &ReplayOptions::default()).expect("b");
        assert_eq!(a.latency_fingerprint, b.latency_fingerprint);
        assert_eq!(a.to_json().to_json(), b.to_json().to_json());
    }

    #[test]
    fn streaming_replay_matches_the_in_memory_report() {
        let spec = SyntheticSpec {
            requests: 120,
            streams: 3,
            read_fraction: 0.3,
            ..SyntheticSpec::default()
        };
        let trace = generate(&spec);
        for target in [TargetKind::Standard, "trail_multi2".parse().unwrap()] {
            let opts = ReplayOptions {
                target,
                ..ReplayOptions::default()
            };
            let in_memory = replay(&trace, &opts).expect("in-memory");
            // Small chunks force the streaming path through many refills.
            for chunk in [7u32, 0] {
                let bytes = generate_stream(&spec, chunk, Vec::new()).expect("encode");
                let reader = TraceReader::new(std::io::Cursor::new(bytes)).expect("header");
                let streamed = replay_stream(reader, &opts).expect("streaming replay");
                assert_eq!(streamed.latency_fingerprint, in_memory.latency_fingerprint);
                assert_eq!(
                    streamed.peak_resident_records,
                    in_memory.peak_resident_records
                );
                assert_eq!(streamed.to_json().to_json(), in_memory.to_json().to_json());
            }
        }
    }

    #[test]
    fn streaming_replay_rejects_truncated_streams() {
        let spec = SyntheticSpec {
            requests: 50,
            ..SyntheticSpec::default()
        };
        let bytes = generate_stream(&spec, 8, Vec::new()).expect("encode");
        // Cut mid-way through the record chunks: the replay must surface
        // the decode failure instead of reporting a short trace.
        let cut = &bytes[..bytes.len() / 2];
        let reader = TraceReader::new(std::io::Cursor::new(cut.to_vec())).expect("header");
        match replay_stream(reader, &ReplayOptions::default()) {
            Err(ReplayError::Trace(_)) => {}
            other => panic!(
                "expected a trace decode error, got {:?}",
                other.map(|r| r.requests)
            ),
        }
    }

    #[test]
    fn an_under_declared_header_is_a_bad_device_error() {
        use crate::format::{TraceMeta, TraceOp};
        let record = |at_ns, dev, stream| TraceRecord {
            at: SimTime::from_nanos(at_ns),
            op: TraceOp::Write,
            dev,
            lba: 64,
            sectors: 8,
            stream: StreamId(stream),
        };
        let trace = Trace {
            meta: TraceMeta {
                devices: 1,
                ..TraceMeta::default()
            },
            records: vec![
                record(0, 0, 0),
                record(100_000, 1, 1),
                record(200_000, 0, 0),
            ],
        };
        let bytes = crate::to_binary(&trace);
        let open = || TraceReader::new(std::io::Cursor::new(bytes.clone()));
        let opts = ReplayOptions::default();
        let single = replay_stream(open().expect("header"), &opts);
        let sharded = crate::replay_stream_sharded(open, crate::ShardPlan::new(2), &opts);
        for result in [single, sharded] {
            match result {
                Err(ReplayError::BadDevice { dev: 1, ndisks: 1 }) => {}
                other => panic!(
                    "expected BadDevice {{ dev: 1, ndisks: 1 }}, got {:?}",
                    other.map(|r| r.requests)
                ),
            }
        }
    }

    #[test]
    fn multi_log_target_replays() {
        let t = generate(&SyntheticSpec {
            requests: 30,
            read_fraction: 0.0,
            ..SyntheticSpec::default()
        });
        let r = replay(
            &t,
            &ReplayOptions {
                target: "trail_multi2".parse().unwrap(),
                ..ReplayOptions::default()
            },
        )
        .expect("multi");
        assert_eq!(r.errors, 0);
        assert_eq!(r.latency.count(), 30);
    }

    #[test]
    fn fs_targets_replay_reads_and_writes() {
        let t = generate(&SyntheticSpec {
            requests: 30,
            read_fraction: 0.4,
            ..SyntheticSpec::default()
        });
        for target in ["ext2".parse().unwrap(), "lfs_trail".parse().unwrap()] {
            let r = replay(
                &t,
                &ReplayOptions {
                    target,
                    fs_file_blocks: 256,
                    ..ReplayOptions::default()
                },
            )
            .unwrap_or_else(|e| panic!("{target:?}: {e}"));
            assert_eq!(r.errors, 0, "{target:?}");
            assert_eq!(r.latency.count(), 30, "{target:?}");
        }
    }

    #[test]
    fn queue_depth_is_sampled() {
        let t = generate(&SyntheticSpec {
            requests: 50,
            arrivals: crate::gen::ArrivalModel::Bursty {
                burst: 10,
                iat_in_burst: SimDuration::from_micros(50),
                gap: SimDuration::from_millis(20),
            },
            read_fraction: 0.0,
            ..SyntheticSpec::default()
        });
        let r = replay(&t, &ReplayOptions::default()).expect("replay");
        assert!(!r.queue_depth.is_empty());
        assert!(r.max_queue_depth > 1, "bursts should overlap service");
    }

    #[test]
    fn depth_samples_downsample_past_the_budget() {
        let mut ds = DepthSamples::new();
        for i in 0..(DEPTH_SAMPLE_BUDGET as u64 * 4) {
            ds.push(SimTime::from_nanos(i * 1000), (i % 7) as u32);
        }
        assert!(ds.samples.len() <= DEPTH_SAMPLE_BUDGET);
        assert!(ds.stride > 1, "stride doubled under pressure");
        // Retained samples stay in time order and on the stride grid.
        assert!(ds.samples.windows(2).all(|w| w[0].0 < w[1].0));
    }

    /// Every count and histogram of the report is its stream lanes
    /// summed, whether one engine replayed the trace or four shards did.
    fn assert_lanes_partition(r: &ReplayReport) {
        let (mut requests, mut reads, mut writes, mut errors) = (0, 0, 0, 0);
        let mut latency = DurationHistogram::new();
        let mut read_latency = DurationHistogram::new();
        let mut write_latency = DurationHistogram::new();
        for (_, lane) in r.streams.iter() {
            requests += lane.requests;
            reads += lane.reads;
            writes += lane.writes;
            errors += lane.errors;
            latency.merge(&lane.latency);
            read_latency.merge(&lane.read_latency);
            write_latency.merge(&lane.write_latency);
        }
        assert_eq!(
            (requests, reads, writes, errors),
            (r.requests, r.reads, r.writes, r.errors)
        );
        for (merged, aggregate) in [
            (latency, &r.latency),
            (read_latency, &r.read_latency),
            (write_latency, &r.write_latency),
        ] {
            assert_eq!(
                histogram_json(&merged).to_json(),
                histogram_json(aggregate).to_json()
            );
        }
    }

    #[test]
    fn per_stream_lanes_partition_the_aggregate() {
        let spec = SyntheticSpec {
            requests: 60,
            streams: 3,
            read_fraction: 0.3,
            ..SyntheticSpec::default()
        };
        let r = replay(&generate(&spec), &ReplayOptions::default()).expect("replay");
        assert_eq!(r.streams.streams(), 3);
        assert_lanes_partition(&r);
        let json = r.to_json().to_json();
        assert!(json.contains("\"streams\""), "streams section in JSON");
        assert!(json.contains("\"latency_fingerprint\""));
        assert!(json.contains("\"peak_resident_records\""));

        let spec = SyntheticSpec { streams: 6, ..spec };
        let bytes = generate_stream(&spec, 16, Vec::new()).expect("encode");
        let sharded = crate::replay_stream_sharded(
            || TraceReader::new(std::io::Cursor::new(bytes.clone())),
            crate::ShardPlan::new(4),
            &ReplayOptions::default(),
        )
        .expect("sharded replay");
        assert_eq!(sharded.streams.streams(), 6);
        assert_lanes_partition(&sharded);
    }
}
