//! Open-loop trace replay against any storage stack.
//!
//! The replay engine feeds the simulator from a **record cursor** — an
//! in-memory trace or a streaming [`TraceReader`] decoding one chunk at
//! a time — and lets completions land whenever the stack delivers them:
//! **open loop**, so a slow stack does not slow the arrival process
//! down, it just builds queue depth. That is the property that makes
//! replay an apples-to-apples comparison: the same offered load hits a
//! raw C-LOOK stack, Trail, a multi-log Trail array, or a file system,
//! and the latency distributions and queue-depth trajectories are
//! directly comparable.
//!
//! Targets are built by the umbrella crate's one factory
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
//! stream order, exactly the per-stream-shard order previous revisions
//! pre-scheduled. `replay_single_issuer` keeps the pre-scheduled path
//! as the oracle the streaming dispatcher is property-tested against;
//! the two produce byte-identical reports.
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
use std::collections::VecDeque;
use std::fmt;
use std::io::Read;
use std::rc::Rc;

use trail::{BuiltTarget, StackBuilder, TargetDrive, TargetError};
use trail_blockio::TapHandle;
use trail_db::BlockStack;
use trail_disk::{Disk, Lba, MediumStats, SECTOR_SIZE};
use trail_fs::{FsError, FS_BLOCK_SIZE};
use trail_sim::{Completion, Delivered, FaultPlan, SimDuration, SimTime, Simulator};
use trail_telemetry::{DurationHistogram, JsonValue, RecorderHandle, StreamId, StreamMetrics};

pub use trail::TargetKind;
use trail_blockio::IoDone;

use crate::codec::{TraceError, TraceReader};
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
    /// Upper bound on concurrently in-flight requests. Arrivals beyond
    /// the bound wait in an admission queue and are submitted as
    /// completions free slots — latency is then measured from
    /// submission, not arrival. `None` (the default) leaves the replay
    /// fully open-loop; `Some(0)` is raised to 1.
    pub max_in_flight: Option<u32>,
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
            max_in_flight: None,
        }
    }
}

/// Why a replay could not run.
#[derive(Debug)]
pub enum ReplayError {
    /// The trace holds no records.
    EmptyTrace,
    /// Building or preparing the target failed.
    Target(TargetError),
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
            ReplayError::Target(e) => write!(f, "{e}"),
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

impl From<TargetError> for ReplayError {
    fn from(e: TargetError) -> ReplayError {
        ReplayError::Target(e)
    }
}

/// What a replay measured. The per-stream lanes in
/// [`streams`](ReplayReport::streams) are where each completion is
/// recorded; the aggregate counts and histograms are those lanes summed
/// (exactly — histograms merge bucket-wise).
pub struct ReplayReport {
    /// The target's [`TargetKind::label`].
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
    /// breakdowns, RMW/full-stripe counters, degraded reads), in the
    /// target's volume order; empty for targets without volumes.
    pub volume_stats: Vec<trail::volume::VolumeStats>,
    /// What the stack's recording media cost the host when the replay
    /// ended, summed over its disks (and over shards): a host-side
    /// figure for consoles, deliberately absent from
    /// [`to_json`](ReplayReport::to_json).
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
            ("latency", self.latency.to_json()),
            ("read_latency", self.read_latency.to_json()),
            ("write_latency", self.write_latency.to_json()),
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

/// One record at a time, in file order, tagged with its **global**
/// file-order index — the engine's only view of the trace, whether it
/// lives in memory or on disk. The index rides with the record (rather
/// than being counted off by the consumer) so a filtering cursor — a
/// shard seeing every Nth stream — still reports positions in the whole
/// trace, keeping per-record artifacts like the latency fingerprint
/// identical however the trace is partitioned.
pub(crate) trait RecordCursor {
    fn next_record(&mut self) -> Option<Result<(u64, TraceRecord), TraceError>>;
}

struct VecCursor {
    iter: std::vec::IntoIter<TraceRecord>,
    idx: u64,
}

impl RecordCursor for VecCursor {
    fn next_record(&mut self) -> Option<Result<(u64, TraceRecord), TraceError>> {
        let r = self.iter.next()?;
        let idx = self.idx;
        self.idx += 1;
        Some(Ok((idx, r)))
    }
}

impl<R: Read> RecordCursor for TraceReader<R> {
    fn next_record(&mut self) -> Option<Result<(u64, TraceRecord), TraceError>> {
        let idx = self.records_read();
        TraceReader::next_record(self).map(|r| r.map(|rec| (idx, rec)))
    }
}

/// A cursor that yields only the records of one shard (`stream mod
/// shards == shard`), preserving their global indices. Skipped records
/// are still decoded — every shard reads and CRC-checks the whole file
/// — but never enter the engine.
pub(crate) struct ShardCursor<C> {
    inner: C,
    shard: u32,
    shards: u32,
}

impl<C> ShardCursor<C> {
    pub(crate) fn new(inner: C, shard: u32, shards: u32) -> ShardCursor<C> {
        debug_assert!(shard < shards);
        ShardCursor {
            inner,
            shard,
            shards,
        }
    }
}

impl<C: RecordCursor> RecordCursor for ShardCursor<C> {
    fn next_record(&mut self) -> Option<Result<(u64, TraceRecord), TraceError>> {
        loop {
            match self.inner.next_record()? {
                Ok((_, r)) if r.stream.0 % self.shards != self.shard => continue,
                item => return Some(item),
            }
        }
    }
}

/// The arrival frontier: the cursor plus at most **one** decoded record
/// waiting for its (time-scaled) arrival instant.
struct Source {
    cursor: Box<dyn RecordCursor>,
    pending: Option<(SimTime, u64, TraceRecord)>,
    done: bool,
    failure: Option<ReplayError>,
    speed: f64,
    start: SimTime,
}

impl Source {
    fn new(cursor: Box<dyn RecordCursor>, speed: f64, start: SimTime) -> Source {
        Source {
            cursor,
            pending: None,
            done: false,
            failure: None,
            speed,
            start,
        }
    }

    /// Pulls the next record off the cursor if nothing is pending.
    fn fill(&mut self) {
        if self.pending.is_some() || self.done {
            return;
        }
        match self.cursor.next_record() {
            None => self.done = true,
            Some(Err(e)) => {
                self.failure = Some(ReplayError::Trace(e));
                self.done = true;
            }
            Some(Ok((idx, r))) => {
                let at =
                    self.start + SimDuration::from_nanos(scale_ns(r.at.as_nanos(), self.speed));
                self.pending = Some((at, idx, r));
            }
        }
    }

    /// Next pending arrival instant, if any.
    fn peek_at(&mut self) -> Option<SimTime> {
        self.fill();
        self.pending.as_ref().map(|(at, _, _)| *at)
    }

    /// Drains every record whose scaled arrival is `<= now`, with the
    /// cursor-reported global file-order indices.
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

    /// All input consumed (no cursor left, nothing pending).
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

/// One accepted arrival: what [`submit`] needs, and what waits in the
/// admission queue while the [`ReplayOptions::max_in_flight`] bound is
/// reached.
#[derive(Clone, Copy)]
struct Arrival {
    idx: u64,
    dev: usize,
    lba: Lba,
    sectors: u32,
    is_read: bool,
    stream: StreamId,
}

impl Arrival {
    /// Record `r`, at global file-order index `idx`.
    fn new(idx: u64, r: &TraceRecord) -> Arrival {
        Arrival {
            idx,
            dev: usize::from(r.dev),
            lba: r.lba,
            sectors: r.sectors,
            is_read: r.op.is_read(),
            stream: r.stream,
        }
    }
}

/// Shared mutable replay accounting. Each completion is recorded once, in
/// its stream's lane; the report sums the lanes.
struct State {
    issued: u64,
    completed: u64,
    inflight: u32,
    max_inflight: u32,
    /// Admission bound; `u32::MAX` when the replay is fully open-loop.
    bound: u32,
    /// Arrivals admitted past the cursor but waiting for an in-flight
    /// slot. Always empty on the open-loop path.
    deferred: VecDeque<Arrival>,
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
    fn new(start: SimTime, bound: Option<u32>) -> State {
        State {
            issued: 0,
            completed: 0,
            inflight: 0,
            max_inflight: 0,
            bound: bound.map_or(u32::MAX, |b| b.max(1)),
            deferred: VecDeque::new(),
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
        // Group same-instant issues into one arrival batch so the
        // residency proxy (in-flight before the batch + batch length)
        // is identical whether the batch was issued by one dispatcher
        // event or by consecutive pre-scheduled events.
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
            target: target.label(),
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

/// The sum of the disks' [`Disk::medium_stats`].
fn media_of(disks: &[Disk]) -> MediumStats {
    disks.iter().fold(MediumStats::default(), |mut sum, d| {
        sum += d.medium_stats();
        sum
    })
}

/// What issuing a request needs, cheaply cloneable: the stack, how to
/// drive it, and the accounting.
#[derive(Clone)]
struct Issuer {
    stack: Rc<dyn BlockStack>,
    drive: Rc<TargetDrive>,
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
        offer(sim, &ctx.issuer, Arrival::new(idx, &r));
    }
}

/// Admission control: submits the request unless the in-flight bound is
/// reached, in which case it joins the deferred queue and is submitted
/// by [`drain_deferred`] as completions free slots. On the open-loop
/// path (bound `u32::MAX`) this is exactly issue-then-submit.
fn offer(sim: &mut Simulator, issuer: &Issuer, req: Arrival) {
    {
        let mut s = issuer.state.borrow_mut();
        if s.inflight >= s.bound {
            s.deferred.push_back(req);
            s.peak_resident = s
                .peak_resident
                .max(u64::from(s.inflight) + s.deferred.len() as u64);
            return;
        }
        s.issue(sim.now(), req.stream, req.is_read);
    }
    submit(sim, issuer, req);
}

/// Submits deferred arrivals while slots are free. Called from every
/// completion; a no-op when the deferred queue is empty.
fn drain_deferred(sim: &mut Simulator, issuer: &Issuer) {
    loop {
        let req = {
            let mut s = issuer.state.borrow_mut();
            if s.inflight >= s.bound {
                return;
            }
            match s.deferred.pop_front() {
                Some(r) => {
                    s.issue(sim.now(), r.stream, r.is_read);
                    r
                }
                None => return,
            }
        };
        submit(sim, issuer, req);
    }
}

/// Engine-side queue-depth sampler. Arrivals due at the sample instant
/// are drained first, reproducing the oracle's arrivals-before-sampler
/// event order at tied instants.
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
        Box::new(VecCursor {
            iter: trace.records.clone().into_iter(),
            idx: 0,
        }),
        ndisks,
        opts,
    )
}

/// Replays a binary trace stream chunk-by-chunk without ever holding
/// the whole trace: the bounded-memory path for traces too big for
/// [`replay`]. The target is sized from the stream header's device
/// count; a record addressing a device beyond that fails with
/// [`ReplayError::BadDevice`].
///
/// On seed-sized traces the report is byte-identical to [`replay`] of
/// the decoded trace — `cargo test -p trail-trace` holds this as a
/// property.
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
pub fn replay_stream<R: Read + 'static>(
    reader: TraceReader<R>,
    opts: &ReplayOptions,
) -> Result<ReplayReport, ReplayError> {
    let ndisks = usize::from(reader.meta().devices).max(1);
    run_engine(Box::new(reader), ndisks, opts)
}

/// The target `opts` names over `ndisks` data disks, booted with the
/// options' recorder and tap installed.
fn build(opts: &ReplayOptions, ndisks: usize) -> Result<BuiltTarget, ReplayError> {
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

pub(crate) fn run_engine(
    cursor: Box<dyn RecordCursor>,
    ndisks: usize,
    opts: &ReplayOptions,
) -> Result<ReplayReport, ReplayError> {
    let speed = opts.speed.clamp(0.5, 8.0);
    let BuiltTarget {
        mut sim,
        stack,
        drive,
        volumes,
        disks,
        ..
    } = build(opts, ndisks)?;
    let start = sim.now();

    let mut source = Source::new(cursor, speed, start);
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
            drive: Rc::new(drive),
            state: Rc::new(RefCell::new(State::new(start, opts.max_in_flight))),
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
    report.media = media_of(&disks);
    Ok(report)
}

/// The pre-scheduled issue path: every record's arrival laid down as
/// its own simulator event up front, O(trace) memory. Kept (hidden) as
/// the oracle the streaming dispatcher is property-tested against;
/// behavior and output are identical.
///
/// # Errors
///
/// As [`replay`].
#[doc(hidden)]
pub fn replay_single_issuer(
    trace: &Trace,
    opts: &ReplayOptions,
) -> Result<ReplayReport, ReplayError> {
    if trace.is_empty() {
        return Err(ReplayError::EmptyTrace);
    }
    let speed = opts.speed.clamp(0.5, 8.0);
    let ndisks = usize::from(trace.max_dev().unwrap_or(0)) + 1;
    let BuiltTarget {
        mut sim,
        stack,
        drive,
        volumes,
        disks,
        ..
    } = build(opts, ndisks)?;
    let start = sim.now();
    let state = Rc::new(RefCell::new(State::new(start, opts.max_in_flight)));
    let issuer = Issuer {
        stack,
        drive: Rc::new(drive),
        state: Rc::clone(&state),
    };
    let total = trace.len() as u64;

    for (idx, r) in trace.records.iter().enumerate() {
        let arrival = start + SimDuration::from_nanos(scale_ns(r.at.as_nanos(), speed));
        let req = Arrival::new(idx as u64, r);
        let issuer = issuer.clone();
        sim.schedule_at(arrival, move |sim| offer(sim, &issuer, req));
    }

    schedule_oracle_sampler(&mut sim, Rc::clone(&state), total);

    while state.borrow().completed < total {
        assert!(
            sim.step(),
            "replay stalled: event queue drained with {} of {} requests outstanding",
            total - state.borrow().completed,
            total
        );
    }

    let mut report = state.borrow().report(&opts.target, speed, start);
    report.volume_stats = volumes.iter().map(|v| v.with_stats(Clone::clone)).collect();
    report.media = media_of(&disks);
    Ok(report)
}

/// Time-scales a relative arrival; exactly the identity at 1×.
fn scale_ns(ns: u64, speed: f64) -> u64 {
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
/// Accounts the outcome, then lets a deferred arrival take the slot.
fn accounting<T: 'static>(
    sim: &Simulator,
    issuer: &Issuer,
    req: Arrival,
    ok: fn(&Delivered<T>) -> bool,
) -> Completion<T> {
    let issued = sim.now();
    let issuer = issuer.clone();
    sim.completion(move |sim, d: Delivered<T>| {
        let now = sim.now();
        let outcome = ok(&d).then(|| now - issued);
        issuer
            .state
            .borrow_mut()
            .finish(now, req.idx, req.stream, req.is_read, outcome);
        drain_deferred(sim, &issuer);
    })
}

fn submit(sim: &mut Simulator, issuer: &Issuer, req: Arrival) {
    let Arrival {
        idx,
        dev,
        lba,
        sectors,
        is_read,
        stream,
    } = req;
    match &*issuer.drive {
        TargetDrive::Block { capacity } => {
            let headroom = capacity[dev].saturating_sub(u64::from(sectors)) + 1;
            let lba = lba % headroom;
            let done = accounting(sim, issuer, req, |d: &Delivered<IoDone>| d.is_ok());
            // A rejected submission drops the armed token, which cancels
            // it — the accounting counts that as an error.
            let _ = if is_read {
                issuer
                    .stack
                    .read_tagged(sim, dev, lba, sectors, stream, done)
            } else {
                let data = vec![fill_byte(idx); sectors as usize * SECTOR_SIZE];
                issuer
                    .stack
                    .write_tagged(sim, dev, lba, data.into(), stream, done)
            };
        }
        TargetDrive::Fs {
            mounts,
            file_blocks,
        } => {
            let (fs, file) = &mounts[dev];
            let bytes = sectors as usize * SECTOR_SIZE;
            let blocks_needed = (bytes as u64).div_ceil(FS_BLOCK_SIZE as u64).max(1);
            // Map the sector address into the preallocated file,
            // block-aligned and clamped so the request always fits. The
            // file-system API carries no stream tag; per-stream lanes
            // are still tracked here at the replay layer.
            let block = (lba / (FS_BLOCK_SIZE / SECTOR_SIZE) as u64)
                % (file_blocks.saturating_sub(blocks_needed) + 1);
            let offset = block * FS_BLOCK_SIZE as u64;
            if is_read {
                let done = accounting(
                    sim,
                    issuer,
                    req,
                    |d: &Delivered<Result<Vec<u8>, FsError>>| matches!(d, Ok(Ok(_))),
                );
                let _ = fs.read(sim, *file, offset, bytes, done);
            } else {
                let done = accounting(sim, issuer, req, |d: &Delivered<Result<(), FsError>>| {
                    matches!(d, Ok(Ok(())))
                });
                let data = vec![fill_byte(idx); bytes];
                let _ = fs.write(sim, *file, offset, data, true, done);
            }
        }
    }
}

fn schedule_oracle_sampler(sim: &mut Simulator, st: Rc<RefCell<State>>, total: u64) {
    sim.schedule_in(SAMPLE_EVERY, move |sim| {
        let finished = {
            let mut s = st.borrow_mut();
            let depth = s.inflight;
            s.samples.push(sim.now(), depth);
            s.completed >= total
        };
        if !finished {
            schedule_oracle_sampler(sim, st, total);
        }
    });
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
        let oracle = replay(&trace, &ReplayOptions::default()).expect("in-memory");
        // Small chunks force the streaming path through many refills.
        for chunk in [7u32, 0] {
            let bytes = generate_stream(&spec, chunk, Vec::new()).expect("encode");
            let reader = TraceReader::new(std::io::Cursor::new(bytes)).expect("header");
            let streamed =
                replay_stream(reader, &ReplayOptions::default()).expect("streaming replay");
            assert_eq!(streamed.latency_fingerprint, oracle.latency_fingerprint);
            assert_eq!(streamed.peak_resident_records, oracle.peak_resident_records);
            assert_eq!(streamed.to_json().to_json(), oracle.to_json().to_json());
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
    fn multi_log_target_replays() {
        let t = generate(&SyntheticSpec {
            requests: 30,
            read_fraction: 0.0,
            ..SyntheticSpec::default()
        });
        let r = replay(
            &t,
            &ReplayOptions {
                target: TargetKind::TrailMulti { logs: 2 },
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
        for target in [
            TargetKind::Ext2 { trail: false },
            TargetKind::Lfs { trail: true },
        ] {
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

    #[test]
    fn max_in_flight_bounds_the_open_loop_queue() {
        // Offer the load four times as fast: unbounded, the open loop
        // builds real queue depth; bounded, it cannot exceed the knob.
        let t = generate(&SyntheticSpec {
            requests: 80,
            read_fraction: 0.0,
            arrivals: crate::gen::ArrivalModel::Bursty {
                burst: 16,
                iat_in_burst: SimDuration::from_micros(50),
                gap: SimDuration::from_millis(10),
            },
            ..SyntheticSpec::default()
        });
        let open = replay(
            &t,
            &ReplayOptions {
                speed: 4.0,
                ..ReplayOptions::default()
            },
        )
        .expect("open loop");
        assert!(
            open.max_queue_depth > 4,
            "load too light to exercise the bound: depth {}",
            open.max_queue_depth
        );
        let bounded = replay(
            &t,
            &ReplayOptions {
                speed: 4.0,
                max_in_flight: Some(4),
                ..ReplayOptions::default()
            },
        )
        .expect("bounded");
        assert!(
            bounded.max_queue_depth <= 4,
            "bound violated: depth {}",
            bounded.max_queue_depth
        );
        // Every deferred arrival was still submitted and completed.
        assert_eq!(bounded.requests, 80);
        assert_eq!(bounded.errors, 0);
        assert_eq!(bounded.latency.count(), 80);
    }

    #[test]
    fn slack_bound_is_byte_identical_to_open_loop() {
        let t = small_trace();
        let open = replay(&t, &ReplayOptions::default()).expect("open");
        let slack = replay(
            &t,
            &ReplayOptions {
                max_in_flight: Some(10_000),
                ..ReplayOptions::default()
            },
        )
        .expect("slack");
        assert_eq!(open.to_json().to_json(), slack.to_json().to_json());
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
            assert_eq!(merged.to_json().to_json(), aggregate.to_json().to_json());
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
