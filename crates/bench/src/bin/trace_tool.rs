//! `trace_tool` — capture, generate, inspect, convert, and replay
//! workload traces (see `trail-trace` and the DESIGN.md trace-format
//! section).
//!
//! ```text
//! trace_tool generate --out t.trace [--requests N] [--seed S] [--streams K]
//!                     [--devices D] [--read-frac F] [--arrival poisson|bursty]
//!                     [--spatial uniform|zipf|seq] [--chunk-records C]
//! trace_tool capture  --out t.trace [--txns N] [--standard] [--seed S]
//! trace_tool import   blkparse.txt --out t.trace [--action Q] [--chunk-records C]
//! trace_tool inspect  t.trace
//! trace_tool convert  in.trace out.jsonl [--compress | --raw] [--chunk-records C]
//! trace_tool replay   t.trace [--target all|<stack>] [--speed X] [--quick]
//!                     [--out-dir DIR] [--shards N [--threads N]]
//!   <stack> := [ext2_|lfs_][<linear|raid0|raid1|raid5>x<members>[_chunk<N>|_rr]_]
//!              <standard|trail|trail_multi<N>>
//!              (e.g. trail_multi2, ext2_trail, raid5x3_trail, raid1x2_rr)
//! ```
//!
//! A trace file is JSONL (the line-per-record debugging format) when its
//! name ends in `.jsonl` and binary otherwise, for every command and
//! every argument. The tool looks at the extension in one place: where it
//! opens a trace as a [`RecordSource`] or creates one as a
//! [`RecordSink`]. Every command is then one record stream — the binary
//! codec works a chunk at a time and the JSONL codec a line at a time —
//! so none of them holds a whole trace in memory (bar `capture`, whose
//! tap collects the run first): a multi-gigabyte trace inspects,
//! converts and replays in bounded space, whatever its format.
//!
//! `import` parses `blkparse` text output, tagging each request with a
//! stream derived from the CPU column; `inspect` prints a per-stream
//! breakdown; `replay` writes one `BENCH_replay_<target>.json` per
//! target with p50/p99/p99.9 latency (aggregate and per stream), the
//! latency fingerprint, the peak-resident-records memory proxy and the
//! queue-depth trajectory — every field virtual-time-derived, so a fixed
//! trace produces identical bytes on every run, from either format.
//! `--shards N` partitions a trace by stream and replays each shard on
//! its own engine, merging the reports deterministically; `--threads N`
//! caps the worker threads (default: one per shard). The artifact records
//! the shard count — never the thread count — so it is byte-identical for
//! any `--threads`. Wall-clock throughput, the process's real peak RSS
//! (`VmHWM`) and the `media:` line (what the simulated platters hold and
//! what that costs the host) go to the console only.
//!
//! `--compress` writes a binary trace with delta-compressed chunks
//! (column split + delta + varint, see DESIGN.md), `--raw` with raw
//! chunks, and `--chunk-records` sets the records per chunk. Either way
//! the records are identical — these are storage choices, and every
//! reader handles both encodings. JSONL has no chunks, so naming a
//! `.jsonl` output with any of the three is an error.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use trail_bench::{media_line, shard_count, vm_hwm, write_bench_json_in, Args, TpccRig};
use trail_sim::{SimDuration, SimTime};
use trail_telemetry::JsonValue;
use trail_tpcc::{run, ChainOn, RunConfig};
use trail_trace::{
    generate_records, import_blkparse_into, replay_stream, replay_stream_sharded, scan_blkparse,
    ArrivalModel, ChunkEncoding, ImportOptions, JsonlReader, JsonlWriter, RecordCheck, RecordSink,
    RecordSource, ReplayOptions, ShardPlan, SpatialModel, StreamSummary, StreamSummaryBuilder,
    SyntheticSpec, TargetKind, TraceCapture, TraceError, TraceMeta, TraceReader, TraceRecord,
    TraceWriter,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("generate") => cmd_generate(&args[1..]),
        Some("capture") => cmd_capture(&args[1..]),
        Some("import") => cmd_import(&args[1..]),
        Some("inspect") => cmd_inspect(&args[1..]),
        Some("convert") => cmd_convert(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        _ => {
            Err("usage: trace_tool <generate|capture|import|inspect|convert|replay> …".to_string())
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("trace_tool: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Whether `path` names a JSONL trace; asked only by [`open_records`] and
/// [`create_records`].
fn is_jsonl(path: &str) -> bool {
    path.ends_with(".jsonl")
}

/// Opens the trace at `path` for reading, in the format its name says.
fn open_records(path: &str) -> Result<Box<dyn RecordSource>, TraceError> {
    let file = BufReader::new(File::open(path).map_err(|e| TraceError::Io(e.to_string()))?);
    Ok(if is_jsonl(path) {
        Box::new(JsonlReader::new(file)?)
    } else {
        Box::new(TraceReader::new(file)?)
    })
}

/// Creates the trace at `path` for writing under `meta`, in the format
/// its name says. The `--compress`, `--raw` and `--chunk-records` flags
/// in `args` override how a binary trace is stored; JSONL has no chunks,
/// so they are an error for a `.jsonl` path.
fn create_records(
    path: &str,
    mut meta: TraceMeta,
    args: &Args,
) -> Result<Box<dyn RecordSink>, String> {
    let encoding = match (args.has("--compress"), args.has("--raw")) {
        (true, true) => return Err("--compress and --raw are mutually exclusive".to_string()),
        (true, false) => Some(ChunkEncoding::Delta),
        (false, true) => Some(ChunkEncoding::Raw),
        (false, false) => None,
    };
    let chunk_records = args.parsed("--chunk-records")?;
    let jsonl = is_jsonl(path);
    if jsonl && (encoding.is_some() || chunk_records.is_some()) {
        return Err(format!(
            "--compress, --raw and --chunk-records apply to binary traces, not {path}"
        ));
    }
    meta.encoding = encoding.unwrap_or(meta.encoding);
    meta.chunk_records = chunk_records.unwrap_or(meta.chunk_records);
    let file = BufWriter::new(File::create(path).map_err(|e| format!("{path}: {e}"))?);
    let sink: Box<dyn RecordSink> = if jsonl {
        Box::new(JsonlWriter::new(file, &meta).map_err(|e| format!("{path}: {e}"))?)
    } else {
        Box::new(TraceWriter::new(file, &meta).map_err(|e| format!("{path}: {e}"))?)
    };
    Ok(sink)
}

/// `source`'s records as an iterator.
fn records<S: RecordSource + ?Sized>(
    source: &mut S,
) -> impl Iterator<Item = Result<TraceRecord, TraceError>> + '_ {
    std::iter::from_fn(move || source.next_record())
}

/// Writes `records` to `sink` and finishes it, returning how many there
/// were: the record loop of `generate`, `capture` and `convert` (`import`
/// runs its own inside [`import_blkparse_into`]).
fn drain(
    records: impl Iterator<Item = Result<TraceRecord, TraceError>>,
    mut sink: Box<dyn RecordSink>,
) -> Result<u64, TraceError> {
    let mut count = 0;
    for r in records {
        sink.write_record(&r?)?;
        count += 1;
    }
    sink.finish()?;
    Ok(count)
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    const FLAGS: &[(&str, bool)] = &[
        ("--out", true),
        ("--quick", false),
        ("--requests", true),
        ("--seed", true),
        ("--streams", true),
        ("--devices", true),
        ("--read-frac", true),
        ("--sectors", true),
        ("--arrival", true),
        ("--mean-iat-us", true),
        ("--burst", true),
        ("--gap-ms", true),
        ("--spatial", true),
        ("--skew", true),
        ("--run-len", true),
        ("--chunk-records", true),
    ];
    let args = Args::parse(args, FLAGS, 0)?;
    let out = args.value("--out").ok_or("generate needs --out FILE")?;
    let arrivals = match args.value("--arrival") {
        None | Some("poisson") => ArrivalModel::Poisson {
            mean_iat: SimDuration::from_micros(args.parsed("--mean-iat-us")?.unwrap_or(2000)),
        },
        Some("bursty") => ArrivalModel::Bursty {
            burst: args.parsed("--burst")?.unwrap_or(16),
            iat_in_burst: SimDuration::from_micros(args.parsed("--mean-iat-us")?.unwrap_or(100)),
            gap: SimDuration::from_millis(args.parsed("--gap-ms")?.unwrap_or(20)),
        },
        Some(other) => return Err(format!("unknown --arrival {other}")),
    };
    let spatial = match args.value("--spatial") {
        None | Some("uniform") => SpatialModel::Uniform,
        Some("zipf") => SpatialModel::Zipf {
            skew: args.parsed("--skew")?.unwrap_or(2.0),
        },
        Some("seq") => SpatialModel::SequentialRuns {
            run_len: args.parsed("--run-len")?.unwrap_or(16),
        },
        Some(other) => return Err(format!("unknown --spatial {other}")),
    };
    let default_requests = if args.has("--quick") { 200 } else { 2000 };
    let spec = SyntheticSpec {
        seed: args.parsed("--seed")?.unwrap_or(1),
        requests: args.parsed("--requests")?.unwrap_or(default_requests),
        devices: args.parsed("--devices")?.unwrap_or(1),
        streams: args.parsed("--streams")?.unwrap_or(1),
        read_fraction: args.parsed("--read-frac")?.unwrap_or(0.3),
        request_sectors: args.parsed("--sectors")?.unwrap_or(8),
        arrivals,
        spatial,
        ..SyntheticSpec::default()
    };
    let mut source = generate_records(&spec);
    let sink = create_records(out, source.meta().clone(), &args)?;
    let count = drain(records(&mut source), sink).map_err(|e| format!("{out}: {e}"))?;
    println!("generated {count} requests -> {out}");
    Ok(())
}

fn cmd_capture(args: &[String]) -> Result<(), String> {
    const FLAGS: &[(&str, bool)] = &[
        ("--out", true),
        ("--txns", true),
        ("--quick", false),
        ("--standard", false),
        ("--seed", true),
        ("--chunk-records", true),
    ];
    let args = Args::parse(args, FLAGS, 0)?;
    let out = args.value("--out").ok_or("capture needs --out FILE")?;
    let default_txns = if args.has("--quick") { 100 } else { 500 };
    let txns = args.parsed("--txns")?.unwrap_or(default_txns);
    let on_trail = !args.has("--standard");
    let rig = TpccRig {
        seed: args.parsed("--seed")?.unwrap_or(TpccRig::default().seed),
        ..TpccRig::default()
    };
    let mut setup = trail_bench::tpcc_setup(on_trail, &rig, None);
    let capture = TraceCapture::new();
    setup.stack.set_tap(capture.handle());
    let report = run(
        &mut setup.sim,
        &setup.db,
        setup.workload,
        RunConfig {
            transactions: txns,
            concurrency: 4,
            chain_on: ChainOn::Durable,
        },
    );
    let mut trace = capture.take(TraceMeta {
        source: format!(
            "capture:tpcc:{}",
            if on_trail { "trail" } else { "standard" }
        ),
        seed: rig.seed,
        note: format!("{txns} transactions, concurrency 4"),
        ..TraceMeta::default()
    });
    trace.rebase_to_first();
    let sink = create_records(out, trace.meta.clone(), &args)?;
    drain(trace.records.iter().map(|r| Ok(*r)), sink).map_err(|e| format!("{out}: {e}"))?;
    println!(
        "captured {} requests over {:.3} s ({:.0} tpmC) -> {out}",
        trace.len(),
        trace.duration().as_secs_f64(),
        report.tpmc
    );
    Ok(())
}

fn cmd_import(args: &[String]) -> Result<(), String> {
    const FLAGS: &[(&str, bool)] = &[
        ("--out", true),
        ("--action", true),
        ("--chunk-records", true),
        ("--reorder-window", true),
    ];
    let args = Args::parse(args, FLAGS, 1)?;
    let input = args.positional(0).ok_or("missing blkparse text file")?;
    let out = args.value("--out").ok_or("import needs --out FILE")?;
    let action = match args.value("--action") {
        None => 'Q',
        Some(v) if v.chars().count() == 1 => v.chars().next().expect("one char"),
        Some(v) => return Err(format!("--action wants a single letter, got {v:?}")),
    };
    let opts = ImportOptions { action };
    // Two streaming passes: scan for the epoch and device table, then
    // re-read, normalize through the bounded reorder window, and write
    // records as they leave it.
    let open = || -> Result<BufReader<File>, String> {
        Ok(BufReader::new(
            File::open(input).map_err(|e| format!("{input}: {e}"))?,
        ))
    };
    let scan = scan_blkparse(open()?, &opts).map_err(|e| e.to_string())?;
    let meta = scan.meta(&opts).map_err(|e| e.to_string())?;
    let mut sink = create_records(out, meta, &args)?;
    let window = args.parsed("--reorder-window")?.unwrap_or(0);
    import_blkparse_into(open()?, &opts, &scan, window, &mut *sink).map_err(|e| e.to_string())?;
    sink.finish().map_err(|e| format!("{out}: {e}"))?;
    println!(
        "imported {} '{action}' events, {} devices -> {out}",
        scan.records,
        scan.devices.len()
    );
    Ok(())
}

/// Everything `inspect` accumulates in one streaming pass.
struct InspectStats {
    records: u64,
    reads: u64,
    sectors: u64,
    first: Option<SimTime>,
    last: Option<SimTime>,
    /// First invariant violation, if any (see [`RecordCheck`]).
    invalid: Option<String>,
    summaries: Vec<StreamSummary>,
}

fn inspect_records(source: &mut dyn RecordSource) -> Result<InspectStats, TraceError> {
    let mut stats = InspectStats {
        records: 0,
        reads: 0,
        sectors: 0,
        first: None,
        last: None,
        invalid: None,
        summaries: Vec::new(),
    };
    let mut builder = StreamSummaryBuilder::new();
    let mut check = RecordCheck::default();
    for r in records(source) {
        let r = r?;
        stats.records += 1;
        if r.op.is_read() {
            stats.reads += 1;
        }
        stats.sectors += u64::from(r.sectors);
        stats.first.get_or_insert(r.at);
        stats.last = Some(r.at);
        if stats.invalid.is_none() {
            stats.invalid = check.check(&r).err();
        }
        builder.record(&r);
    }
    stats.summaries = builder.finish();
    Ok(stats)
}

fn cmd_inspect(args: &[String]) -> Result<(), String> {
    let args = Args::parse(args, &[], 1)?;
    let path = args.positional(0).ok_or("missing trace file")?;
    let mut source = open_records(path).map_err(|e| format!("{path}: {e}"))?;
    let stats = inspect_records(&mut *source).map_err(|e| format!("{path}: {e}"))?;
    let meta = source.meta();
    let duration = match (stats.first, stats.last) {
        (Some(first), Some(last)) => last.saturating_duration_since(first),
        _ => SimDuration::ZERO,
    };
    println!("{path}:");
    println!("  source:   {}", meta.source);
    println!("  seed:     {}", meta.seed);
    println!("  devices:  {}", meta.devices);
    println!("  note:     {}", meta.note);
    println!("  records:  {} ({} reads)", stats.records, stats.reads);
    println!("  volume:   {} sectors", stats.sectors);
    println!("  duration: {:.3} s", duration.as_secs_f64());
    if let Some(why) = stats.invalid {
        return Err(why);
    }
    println!("  validity: ok");
    if !stats.summaries.is_empty() {
        println!("  streams:  {}", stats.summaries.len());
        println!("    stream  requests  reads  writes    sectors  footprint    span");
        for s in &stats.summaries {
            let span = s.last_at.saturating_duration_since(s.first_at);
            println!(
                "    {:>6}  {:>8}  {:>5}  {:>6}  {:>9}  {:>9}  {:>6.3} s",
                s.stream.0,
                s.requests,
                s.reads,
                s.writes,
                s.sectors,
                s.footprint_sectors,
                span.as_secs_f64(),
            );
        }
    }
    Ok(())
}

fn cmd_convert(args: &[String]) -> Result<(), String> {
    const FLAGS: &[(&str, bool)] = &[
        ("--compress", false),
        ("--raw", false),
        ("--chunk-records", true),
    ];
    let args = Args::parse(args, FLAGS, 2)?;
    let input = args.positional(0).ok_or("missing input file")?;
    let output = args.positional(1).ok_or("missing output file")?;
    let mut source = open_records(input).map_err(|e| format!("{input}: {e}"))?;
    let sink = create_records(output, source.meta().clone(), &args)?;
    let count =
        drain(records(&mut *source), sink).map_err(|e| format!("{input} -> {output}: {e}"))?;
    println!("{input} -> {output} ({count} records)");
    Ok(())
}

fn cmd_replay(args: &[String]) -> Result<(), String> {
    const FLAGS: &[(&str, bool)] = &[
        ("--target", true),
        ("--speed", true),
        ("--quick", false),
        ("--out-dir", true),
        ("--shards", true),
        ("--threads", true),
    ];
    let args = Args::parse(args, FLAGS, 1)?;
    let path = args.positional(0).ok_or("missing trace file")?;
    let speed = args.parsed("--speed")?.unwrap_or(1.0f64);
    let quick = args.has("--quick");
    let out_dir = Path::new(args.value("--out-dir").unwrap_or("."));
    let mut plan = shard_count(&args)?.map(ShardPlan::new);
    match (&mut plan, args.parsed("--threads")?) {
        (Some(plan), Some(threads)) => plan.threads = threads,
        (None, Some(_)) => {
            return Err("--threads applies to a sharded replay (--shards N)".to_string())
        }
        _ => {}
    }
    let targets = match args.value("--target").unwrap_or("all") {
        "all" => "standard trail trail_multi2 ext2 lfs",
        one => one,
    };
    let targets: Vec<TargetKind> = targets
        .split(' ')
        .map(str::parse)
        .collect::<Result<_, _>>()?;
    // The trace is re-opened and streamed once per target (and per
    // shard).
    println!("replaying {path} at {speed}x:");
    for target in targets {
        let opts = ReplayOptions {
            target,
            speed,
            fs_file_blocks: if quick { 128 } else { 1024 },
            ..ReplayOptions::default()
        };
        let wall_start = Instant::now();
        let rep = match plan {
            None => replay_stream(
                open_records(path).map_err(|e| format!("{path}: {e}"))?,
                &opts,
            ),
            Some(plan) => replay_stream_sharded(|| open_records(path), plan, &opts),
        }
        .map_err(|e| format!("{path}: {e}"))?;
        let wall = wall_start.elapsed();
        println!(
            "  {:<14} p50 {:>8.3} ms  p99 {:>8.3} ms  p99.9 {:>8.3} ms  maxQD {:>4}  errors {}",
            rep.target,
            rep.latency.percentile(50.0).as_millis_f64(),
            rep.latency.percentile(99.0).as_millis_f64(),
            rep.latency.percentile(99.9).as_millis_f64(),
            rep.max_queue_depth,
            rep.errors,
        );
        if rep.streams.streams() > 1 {
            for (stream, lane) in rep.streams.iter() {
                println!(
                    "    stream {:<3}    p50 {:>8.3} ms  p99 {:>8.3} ms  p99.9 {:>8.3} ms  reqs {:>6}",
                    stream.0,
                    lane.latency.percentile(50.0).as_millis_f64(),
                    lane.latency.percentile(99.0).as_millis_f64(),
                    lane.latency.percentile(99.9).as_millis_f64(),
                    lane.requests,
                );
            }
        }
        println!(
            "    {} records{}: {:.0} records/s wall, {:.0} records/s virtual, \
             peak resident {} records ({})",
            rep.requests,
            plan.map_or(String::new(), |p| format!(" ({} shards)", p.shards)),
            rep.requests as f64 / wall.as_secs_f64().max(1e-9),
            rep.requests as f64 / rep.duration.as_secs_f64().max(1e-9),
            rep.peak_resident_records,
            vm_hwm(),
        );
        println!("  {}", media_line(&rep.media));
        let mut json = rep.to_json();
        if let (Some(plan), JsonValue::Obj(fields)) = (plan, &mut json) {
            fields.push(("shards".to_string(), JsonValue::Num(f64::from(plan.shards))));
        }
        let name = format!("replay_{}", rep.target);
        let written = write_bench_json_in(out_dir, &name, &json).map_err(|e| e.to_string())?;
        eprintln!("wrote {}", written.display());
    }
    Ok(())
}
