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
//! trace_tool convert  in.trace out.jsonl      (direction by extension)
//!                     [--compress | --raw] [--chunk-records C]
//! trace_tool replay   t.trace [--target all|standard|trail|trail_multiN|ext2|ext2_trail
//!                     |lfs|lfs_trail] [--speed X] [--quick] [--out-dir DIR]
//!                     [--shards N [--threads N]] [--oracle]
//! ```
//!
//! Binary traces are processed **chunk at a time**: `generate`,
//! `import`, and `convert` write through the streaming codec,
//! `inspect` and `replay` read through it, so none of them ever hold a
//! whole trace in memory — a multi-gigabyte trace inspects and replays
//! in bounded space. (The JSONL side of `convert` streams line by
//! line; loading a whole trace happens only for `.jsonl` inputs to
//! `inspect`/`replay`, the debugging format.)
//!
//! `import` parses `blkparse` text output, tagging each request with a
//! stream derived from the CPU column; `inspect` prints a per-stream
//! breakdown; `replay` writes one `BENCH_replay_<target>.json` per
//! target with p50/p99/p99.9 latency (aggregate and per stream), the
//! latency fingerprint, the peak-resident-records memory proxy and the
//! queue-depth trajectory — every field virtual-time-derived, so a fixed
//! trace produces identical bytes on every run. `--shards N` partitions a
//! binary trace by stream and replays each shard on its own engine,
//! merging the reports deterministically; `--threads N` caps the worker
//! threads (default: one per shard). The artifact records the shard
//! count — never the thread count — so it is byte-identical for any
//! `--threads`. `--oracle` additionally decodes the whole file into
//! memory, replays it through the in-memory engine, and asserts the two
//! reports are byte-identical. Wall-clock throughput, the process's real
//! peak RSS (`VmHWM`) and the `media:` line (what the simulated platters
//! hold and what that costs the host) go to the console only.
//!
//! `convert --compress` rewrites a trace with delta-compressed chunks
//! (column split + delta + varint, see DESIGN.md); `--raw` rewrites
//! back to raw chunks. Either way the records are identical — the
//! encoding is a per-chunk storage choice, and every reader handles
//! both.

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use trail_bench::{
    media_line, open_trace, shard_count, vm_hwm, write_bench_json_in, Args, TpccRig,
};
use trail_sim::{SimDuration, SimTime};
use trail_telemetry::JsonValue;
use trail_tpcc::{run, ChainOn, RunConfig};
use trail_trace::codec::{
    jsonl_meta_line, jsonl_record_line, parse_jsonl_meta, parse_jsonl_record,
};
use trail_trace::{
    from_binary, from_jsonl, generate, generate_stream, import_blkparse, recode, replay,
    replay_stream, replay_stream_sharded, scan_blkparse, to_jsonl, ArrivalModel, ChunkEncoding,
    ImportOptions, ReplayOptions, ShardPlan, SpatialModel, StreamSummary, StreamSummaryBuilder,
    SyntheticSpec, TargetKind, Trace, TraceCapture, TraceMeta, TraceReader, TraceRecord,
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

fn is_jsonl(path: &str) -> bool {
    path.ends_with(".jsonl")
}

/// [`open_trace`] with the path in the error.
fn open_binary(path: &str) -> Result<TraceReader<BufReader<File>>, String> {
    open_trace(path).map_err(|e| format!("{path}: {e}"))
}

fn create_out(path: &str) -> Result<BufWriter<File>, String> {
    Ok(BufWriter::new(
        File::create(path).map_err(|e| format!("{path}: {e}"))?,
    ))
}

/// Reads a whole trace into memory — only for `.jsonl` inputs (the
/// line-oriented debugging format); binary traces stream instead.
fn load_jsonl(path: &str) -> Result<Trace, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    from_jsonl(&text).map_err(|e| format!("{path}: {e}"))
}

/// Stores an in-memory trace (capture and `.jsonl` outputs).
fn store(path: &str, trace: &Trace) -> Result<(), String> {
    if is_jsonl(path) {
        let text = to_jsonl(trace).map_err(|e| e.to_string())?;
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))
    } else {
        let mut w =
            TraceWriter::new(create_out(path)?, &trace.meta).map_err(|e| format!("{path}: {e}"))?;
        for r in &trace.records {
            w.write_record(r).map_err(|e| format!("{path}: {e}"))?;
        }
        w.finish().map_err(|e| format!("{path}: {e}"))?;
        Ok(())
    }
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
    let chunk = args.parsed("--chunk-records")?.unwrap_or(0u32);
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
    if is_jsonl(out) {
        let trace = generate(&spec);
        store(out, &trace)?;
        println!(
            "generated {} requests over {:.3} s -> {out}",
            trace.len(),
            trace.duration().as_secs_f64()
        );
    } else {
        // Records stream straight into the chunked codec; the whole
        // trace never exists in memory.
        let mut w =
            generate_stream(&spec, chunk, create_out(out)?).map_err(|e| format!("{out}: {e}"))?;
        w.flush().map_err(|e| format!("{out}: {e}"))?;
        println!("generated {} requests -> {out}", spec.requests);
    }
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
        devices: 0,
        note: format!("{txns} transactions, concurrency 4"),
        chunk_records: args.parsed("--chunk-records")?.unwrap_or(0),
        encoding: ChunkEncoding::Raw,
    });
    trace.rebase_to_first();
    store(out, &trace)?;
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
    if is_jsonl(out) {
        let text = std::fs::read_to_string(input).map_err(|e| format!("{input}: {e}"))?;
        let trace = import_blkparse(&text, &opts).map_err(|e| e.to_string())?;
        store(out, &trace)?;
        println!(
            "imported {} '{action}' events over {:.3} s, {} devices, {} streams -> {out}",
            trace.len(),
            trace.duration().as_secs_f64(),
            trace.meta.devices,
            trace.streams().len()
        );
        return Ok(());
    }
    // Two streaming passes: scan for the epoch and device table, then
    // re-read, normalize through the bounded reorder window, and write
    // chunks as they fill.
    let open = || -> Result<BufReader<File>, String> {
        Ok(BufReader::new(
            File::open(input).map_err(|e| format!("{input}: {e}"))?,
        ))
    };
    let scan = scan_blkparse(open()?, &opts).map_err(|e| e.to_string())?;
    let chunk = args.parsed("--chunk-records")?.unwrap_or(0);
    let window = args.parsed("--reorder-window")?.unwrap_or(0);
    let w =
        trail_trace::import_blkparse_into(open()?, &opts, &scan, chunk, window, create_out(out)?)
            .map_err(|e| e.to_string())?;
    drop(w);
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
    /// First invariant violation, if any (checked on the fly: sorted by
    /// `(arrival, stream)`, no zero-length requests).
    invalid: Option<String>,
    summaries: Vec<StreamSummary>,
}

fn inspect_records<I: Iterator<Item = Result<TraceRecord, String>>>(
    it: I,
) -> Result<InspectStats, String> {
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
    let mut prev: Option<(SimTime, u32)> = None;
    for r in it {
        let r = r?;
        let i = stats.records;
        stats.records += 1;
        if r.op.is_read() {
            stats.reads += 1;
        }
        stats.sectors += u64::from(r.sectors);
        stats.first.get_or_insert(r.at);
        stats.last = Some(r.at);
        if stats.invalid.is_none() {
            if r.sectors == 0 {
                stats.invalid = Some(format!("record {i}: zero-length request"));
            } else if prev.is_some_and(|p| p > (r.at, r.stream.0)) {
                stats.invalid = Some(format!("records {} and {i} out of order", i - 1));
            }
        }
        prev = Some((r.at, r.stream.0));
        builder.record(&r);
    }
    stats.summaries = builder.finish();
    Ok(stats)
}

fn cmd_inspect(args: &[String]) -> Result<(), String> {
    let args = Args::parse(args, &[], 1)?;
    let path = args.positional(0).ok_or("missing trace file")?;
    let (meta, stats) = if is_jsonl(path) {
        let trace = load_jsonl(path)?;
        let stats = inspect_records(trace.records.iter().map(|r| Ok(*r)))?;
        (trace.meta, stats)
    } else {
        let mut reader = open_binary(path)?;
        let meta = reader.meta().clone();
        let stats = inspect_records(reader.records().map(|r| r.map_err(|e| e.to_string())))?;
        (meta, stats)
    };
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
    let chunk: Option<u32> = args.parsed("--chunk-records")?;
    let encoding = match (args.has("--compress"), args.has("--raw")) {
        (true, true) => return Err("--compress and --raw are mutually exclusive".to_string()),
        (true, false) => Some(ChunkEncoding::Delta),
        (false, true) => Some(ChunkEncoding::Raw),
        (false, false) => None,
    };
    let count = match (is_jsonl(input), is_jsonl(output)) {
        // Binary -> JSONL: decode chunk by chunk, print line by line.
        (false, true) => {
            let mut reader = open_binary(input)?;
            let meta = reader.meta().clone();
            let mut out = create_out(output)?;
            let oops = |e: std::io::Error| format!("{output}: {e}");
            writeln!(out, "{}", jsonl_meta_line(&meta, None)).map_err(oops)?;
            let mut count: u64 = 0;
            for r in reader.records() {
                let r = r.map_err(|e| format!("{input}: {e}"))?;
                let line = jsonl_record_line(count, &r).map_err(|e| e.to_string())?;
                writeln!(out, "{line}").map_err(oops)?;
                count += 1;
            }
            out.flush().map_err(oops)?;
            count
        }
        // JSONL -> binary: parse line by line, write chunk by chunk.
        (true, false) => {
            let file = File::open(input).map_err(|e| format!("{input}: {e}"))?;
            let mut lines = BufReader::new(file)
                .lines()
                .map(|l| l.map_err(|e| format!("{input}: {e}")));
            let first = loop {
                match lines.next() {
                    None => return Err(format!("{input}: empty JSONL trace")),
                    Some(line) => {
                        let line = line?;
                        if !line.trim().is_empty() {
                            break line;
                        }
                    }
                }
            };
            let (mut meta, declared) =
                parse_jsonl_meta(&first).map_err(|e| format!("{input}: {e}"))?;
            if let Some(c) = chunk {
                meta.chunk_records = c;
            }
            if let Some(enc) = encoding {
                meta.encoding = enc;
            }
            let mut w = TraceWriter::new(create_out(output)?, &meta)
                .map_err(|e| format!("{output}: {e}"))?;
            let mut count: u64 = 0;
            for line in lines {
                let line = line?;
                if line.trim().is_empty() {
                    continue;
                }
                let r = parse_jsonl_record(count, &line).map_err(|e| format!("{input}: {e}"))?;
                w.write_record(&r).map_err(|e| format!("{output}: {e}"))?;
                count += 1;
            }
            w.finish().map_err(|e| format!("{output}: {e}"))?;
            if declared.is_some_and(|d| d != count) {
                return Err(format!(
                    "{input}: header declares {} records but {count} lines follow",
                    declared.expect("checked")
                ));
            }
            count
        }
        // Binary -> binary: stream through, re-chunking if asked.
        (false, false) => {
            let mut reader = open_binary(input)?;
            let encoding = encoding.unwrap_or(reader.meta().encoding);
            let chunk = chunk.unwrap_or(reader.meta().chunk_records);
            recode(&mut reader, encoding, chunk, create_out(output)?)
                .map_err(|e| format!("{input} -> {output}: {e}"))?;
            reader.records_read()
        }
        // JSONL -> JSONL: the debug format, in memory is fine.
        (true, true) => {
            let trace = load_jsonl(input)?;
            store(output, &trace)?;
            trace.len() as u64
        }
    };
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
        ("--oracle", false),
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
    let oracle = args.has("--oracle");
    if oracle && plan.is_some() {
        return Err("--oracle checks the single engine; run it without --shards".to_string());
    }
    if is_jsonl(path) && (oracle || plan.is_some()) {
        return Err("--shards and --oracle apply to binary traces".to_string());
    }
    let targets: Vec<TargetKind> = match args.value("--target").unwrap_or("all") {
        "all" => vec![
            TargetKind::Standard,
            TargetKind::Trail,
            TargetKind::TrailMulti { logs: 2 },
            TargetKind::Ext2 { trail: false },
            TargetKind::Lfs { trail: false },
        ],
        one => vec![one.parse()?],
    };
    // JSONL traces (the debug format) load whole; binary traces are
    // re-opened and streamed chunk-at-a-time once per target (and per
    // shard), and decoded whole only for the oracle.
    let in_memory: Option<Trace> = if is_jsonl(path) {
        let t = load_jsonl(path)?;
        println!(
            "replaying {} requests ({:.3} s at 1x) at {speed}x:",
            t.len(),
            t.duration().as_secs_f64()
        );
        Some(t)
    } else {
        println!("replaying {path} at {speed}x:");
        None
    };
    // Decoded after the first streamed replay has printed its VmHWM.
    let mut oracle_trace: Option<Trace> = None;
    for target in targets {
        let opts = ReplayOptions {
            target,
            speed,
            fs_file_blocks: if quick { 128 } else { 1024 },
            ..ReplayOptions::default()
        };
        let wall_start = Instant::now();
        let rep = match (&in_memory, plan) {
            (Some(t), _) => replay(t, &opts),
            (None, None) => replay_stream(open_binary(path)?, &opts),
            (None, Some(plan)) => replay_stream_sharded(|| open_trace(path), plan, &opts),
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
        if oracle {
            if oracle_trace.is_none() {
                let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
                oracle_trace = Some(from_binary(&bytes).map_err(|e| format!("{path}: {e}"))?);
            }
            let trace = oracle_trace.as_ref().expect("just decoded");
            let mem = replay(trace, &opts).map_err(|e| format!("{path}: {e}"))?;
            assert_eq!(
                rep.to_json().to_json(),
                mem.to_json().to_json(),
                "streamed report differs from the in-memory oracle"
            );
            println!("    oracle: streamed report byte-identical to the in-memory replay");
        }
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
