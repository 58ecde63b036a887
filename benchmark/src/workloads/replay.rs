//! The two replay workloads: one generated trace, one layer (`trace`),
//! used two ways.
//!
//! - `replay_trail` drives `replay_stream` on `TargetKind::Trail`: `trace`
//!   and `disk::SectorStore` do most of the work and reads run beside
//!   writes. This is the memory-heavy case: every written sector stays
//!   resident, so it is where a payload-elided store must show. Addressing
//!   is uniform over 1 GB per device, which keeps Trail's pinned-buffer
//!   read hits near zero by construction.
//! - `replay_sharded` drives `replay_stream_sharded` with 4 shards on 2
//!   threads against `TargetKind::Standard`. Simulation work per record is
//!   smallest here, so per-shard boot and the N-times-decoded input are
//!   the largest share: "decode once, fan out" must show here. `core` does
//!   nothing, so a Trail-core change must not move this workload.
//!
//! The trace has the `replay_giga` shape (4 streams over 4 devices, 30 %
//! reads, 4 KB requests, Poisson 20 ms arrivals per stream — sustainable)
//! and is generated and delta-compressed during set-up, in memory: the
//! "file" every reader opens is a shared byte buffer, so no host file
//! system noise reaches the measurement.

use std::io::{Cursor, Read};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use trail_sim::SimDuration;
use trail_telemetry::RecorderHandle;
use trail_trace::{
    generate_stream, replay_stream, replay_stream_sharded, ArrivalModel, ChunkEncoding,
    ReplayOptions, ReplayReport, ShardPlan, SpatialModel, SyntheticSpec, TargetKind, TraceReader,
    TraceWriter, DEFAULT_CHUNK_RECORDS,
};

use crate::report::{measure, put, ratio, Ctx, Outcome, Phase};
use crate::spans::Spans;

/// Records at scale 1.0, and the head of them the traced pass replays.
const RECORDS: usize = 200_000;
const TRACED_RECORDS: usize = 50_000;
const DEVICES: u16 = 4;
const SHARDS: u32 = 4;
/// Worker threads of the sharded replay: the host's two cores.
const THREADS: usize = 2;

/// The encoded trace every reader opens.
type TraceBytes = Arc<[u8]>;

/// A `Read` over the shared bytes that counts what is pulled through it.
/// (`replay_stream_sharded`'s `open` must be `Sync`, hence the atomic.)
struct CountingReader {
    inner: Cursor<TraceBytes>,
    pulled: Arc<AtomicU64>,
}

impl Read for CountingReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        // A statistic only: nothing is published through it.
        self.pulled.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }
}

fn open(bytes: &TraceBytes) -> TraceReader<Cursor<TraceBytes>> {
    TraceReader::new(Cursor::new(Arc::clone(bytes))).expect("the generated trace has a header")
}

pub fn spec(seed: u64, records: usize) -> SyntheticSpec {
    SyntheticSpec {
        seed,
        requests: records,
        devices: DEVICES,
        capacity_sectors: 2 * 1024 * 1024,
        read_fraction: 0.3,
        request_sectors: 8,
        streams: u32::from(DEVICES),
        arrivals: ArrivalModel::Poisson {
            mean_iat: SimDuration::from_millis(20),
        },
        spatial: SpatialModel::Uniform,
    }
}

/// Re-encodes the first `limit` records of `raw` with delta chunks.
fn compress(raw: &[u8], limit: usize) -> Vec<u8> {
    let mut reader = TraceReader::new(raw).expect("raw trace has a header");
    let mut meta = reader.meta().clone();
    meta.encoding = ChunkEncoding::Delta;
    let mut writer = TraceWriter::new(Vec::new(), &meta).expect("writing to memory");
    for record in reader.records().take(limit) {
        writer
            .write_record(&record.expect("raw trace decodes"))
            .expect("writing to memory");
    }
    writer.finish().expect("writing to memory")
}

/// The generated input. The traced pass replays the trace's head only:
/// every event of a full replay would not fit the recorder.
struct Input {
    records: usize,
    bytes: TraceBytes,
}

fn generate(ctx: &mut Ctx, out: &mut Outcome) -> Input {
    let full = ctx.sized(RECORDS, 64);
    let records = if ctx.recorder.is_some() {
        ctx.sized(TRACED_RECORDS, 64).min(full)
    } else {
        full
    };
    let seed = ctx.seed;
    let raw = ctx.spans.scope("trace.generate", |_| {
        generate_stream(&spec(seed, full), DEFAULT_CHUNK_RECORDS, Vec::new())
            .expect("writing to memory")
    });
    let bytes: TraceBytes = ctx
        .spans
        .scope("trace.compress", |_| compress(&raw, records))
        .into();
    put(
        &mut out.layers,
        "trace.file_bytes_per_record",
        bytes.len() as f64 / records as f64,
    );
    Input { records, bytes }
}

/// Folds the measured replay's report into the outcome.
fn settle(out: &mut Outcome, name: &str, records: usize, report: &ReplayReport, phase: Phase) {
    out.run = phase;
    out.ops = records as u64;
    out.attempted = records as u64;
    out.failed = report.errors + (records as u64).saturating_sub(report.requests);
    if report.errors != 0 {
        out.violations
            .push(format!("{name}: replay reported {} errors", report.errors));
    }
    if report.requests != records as u64 {
        out.violations.push(format!(
            "{name}: replayed {} of {records} records",
            report.requests
        ));
    }
    out.sim_fingerprint = report.latency_fingerprint;
    put(
        &mut out.sim,
        "sim_lat_mean_us",
        report.latency.mean().as_nanos() as f64 / 1e3,
    );
    put(
        &mut out.sim,
        "sim_ops_per_s",
        ratio(report.requests as f64, report.duration.as_secs_f64()),
    );
    put(
        &mut out.layers,
        "trace.peak_resident_records",
        report.peak_resident_records as f64,
    );
}

/// The traced pass's second replay: the same input on one engine with the
/// recorder installed. Against the bare run of `bare_s` seconds and
/// fingerprint `bare` it gives the recorder's overhead on like-for-like
/// input and proves the recorder does not move virtual time.
fn traced_replay(
    spans: &mut Spans,
    out: &mut Outcome,
    name: &str,
    input: &Input,
    target: TargetKind,
    recorder: RecorderHandle,
    (bare, bare_s): (u64, f64),
) {
    let opts = ReplayOptions {
        target,
        recorder: Some(recorder),
        ..ReplayOptions::default()
    };
    let (traced, traced_s) = spans.timed("trace.replay.traced", |_| {
        replay_stream(open(&input.bytes), &opts).expect("traced replay")
    });
    if traced.latency_fingerprint != bare {
        out.violations.push(format!(
            "{name}: the recorder moved virtual time (fingerprint {:016x} traced, {bare:016x} bare)",
            traced.latency_fingerprint
        ));
    }
    put(
        &mut out.layers,
        "telemetry.recorder_overhead_share",
        (traced_s - bare_s) / bare_s,
    );
}

pub fn run_trail(ctx: &mut Ctx) -> Outcome {
    let mut out = Outcome::default();
    let input = generate(ctx, &mut out);
    let opts = ReplayOptions {
        target: TargetKind::Trail,
        ..ReplayOptions::default()
    };
    out.setup_s = ctx.setup_s();
    let (report, phase) = measure(&mut ctx.spans, "trace.replay", |_| {
        replay_stream(open(&input.bytes), &opts).expect("replay on Trail")
    });
    settle(&mut out, "replay_trail", input.records, &report, phase);
    if let Some(recorder) = ctx.recorder_handle() {
        traced_replay(
            &mut ctx.spans,
            &mut out,
            "replay_trail",
            &input,
            TargetKind::Trail,
            recorder,
            (report.latency_fingerprint, phase.wall_s),
        );
    }
    out
}

pub fn run_sharded(ctx: &mut Ctx) -> Outcome {
    let mut out = Outcome::default();
    let input = generate(ctx, &mut out);
    let opts = ReplayOptions {
        target: TargetKind::Standard,
        ..ReplayOptions::default()
    };
    let plan = ShardPlan {
        shards: SHARDS,
        threads: THREADS,
    };
    let pulled = Arc::new(AtomicU64::new(0));
    out.setup_s = ctx.setup_s();
    let (report, phase) = measure(&mut ctx.spans, "trace.replay", |_| {
        replay_stream_sharded(
            || {
                TraceReader::new(CountingReader {
                    inner: Cursor::new(Arc::clone(&input.bytes)),
                    pulled: Arc::clone(&pulled),
                })
            },
            plan,
            &opts,
        )
        .expect("sharded replay")
    });
    settle(&mut out, "replay_sharded", input.records, &report, phase);
    put(
        &mut out.layers,
        "trace.shard.read_amplification",
        pulled.load(Ordering::Relaxed) as f64 / input.bytes.len() as f64,
    );
    // The sharded engine cannot host a recorder. The traced pass keeps the
    // host spans and the counting reader above, and takes its recorder
    // events from a single engine on the same target, next to the bare
    // single-engine run that supplies the speed-up.
    if let Some(recorder) = ctx.recorder_handle() {
        let (single, single_s) = ctx.spans.timed("trace.replay.single", |_| {
            replay_stream(open(&input.bytes), &opts).expect("single-engine replay")
        });
        // One stream per device: shards share nothing, so the merged
        // report must equal the single engine's.
        if single.latency_fingerprint != report.latency_fingerprint {
            out.violations.push(format!(
                "replay_sharded: merged fingerprint {:016x} differs from the single engine's {:016x}",
                report.latency_fingerprint, single.latency_fingerprint
            ));
        }
        put(
            &mut out.layers,
            "trace.shard.speedup",
            single_s / phase.wall_s,
        );
        traced_replay(
            &mut ctx.spans,
            &mut out,
            "replay_sharded",
            &input,
            TargetKind::Standard,
            recorder,
            (single.latency_fingerprint, single_s),
        );
        let (_, boot_s) = ctx.spans.timed("probe.stack.shard_boot", |_| {
            trail::StackBuilder::new()
                .data_disks(usize::from(DEVICES))
                .build_target(TargetKind::Standard)
                .expect("shard target boots")
        });
        put(&mut out.layers, "trace.shard.boot_ms", boot_s * 1e3);
    }
    out
}
