//! `trail-bench` — every experiment of the reproduction behind one
//! command. (What the harness itself costs in host time and memory is
//! not measured here: that is the repo benchmark, `benchmark/README.md`.)
//!
//! ```text
//! trail-bench all        [--quick] [--seed S] [--out-dir DIR] [--threads N] [--filter SUB]
//! trail-bench <scenario> [scale] [--quick] [--seed S] [--out-dir DIR]
//!                        [--trace-out FILE] [--metrics-out FILE]
//! trail-bench replay_stream --trace FILE [--target standard|trail|trail_multiN|ext2|lfs|…]
//!                        [--shards N] [--threads N] [--oracle] [--quick] [--out-dir DIR]
//! trail-bench giga       [--records N] [--shards N] [--threads N] [--out-dir DIR] [--keep]
//! ```
//!
//! Shared flags: `--quick` runs the shrunk sweeps (seconds, the CI smoke
//! gate) instead of the paper-scale ones; `--seed S` mixes `S` into every
//! workload RNG (default 0 keeps the historical per-experiment seeds);
//! `--out-dir DIR` receives the `BENCH_<name>.json` files (default: the
//! current directory).
//!
//! - **`all`** regenerates every table and figure, one scenario per
//!   worker thread (`--threads N` caps the pool, default all cores;
//!   `--filter SUB` keeps the scenarios whose registry name contains
//!   `SUB`). Reports print and JSON files are written in registry order
//!   from the main thread, so the artifacts are byte-identical at any
//!   thread count.
//! - **`<scenario>`** runs one registry entry (`fig3`, `table2`,
//!   `serve_fleet`, …; `trail-bench` alone lists them) on the main thread
//!   and writes the same artifact `all` would. `scale` overrides the
//!   experiment's headline count (writes for `fig3`, transactions for the
//!   TPC-C tables, …). `--trace-out` writes a Chrome trace-event JSON
//!   (loadable in Perfetto) and `--metrics-out` a compact metrics JSON of
//!   the run.
//! - **`replay_stream --trace FILE`** replays a trace file instead of the
//!   scenario's self-generated one, decoding it **chunk at a time** — the
//!   whole trace is never read into memory — and publishes
//!   `BENCH_replaystream.json` (virtual records/sec, peak-resident-records
//!   memory proxy, latency fingerprint). `--oracle` additionally decodes
//!   the whole file into memory, replays it through the in-memory path,
//!   and asserts the two reports are byte-identical. `--shards N`
//!   partitions the trace by stream and replays each shard on its own
//!   engine, merging the reports deterministically; `--threads N` caps
//!   the worker threads (default: one per shard). The artifact records
//!   the shard count — never the thread count — so it is byte-identical
//!   for any `--threads`. Wall-clock throughput and the process's real
//!   peak RSS (`VmHWM`, printed beside the proxy) go to the console only.
//! - **`giga`** is the giga-trace scale demonstration: generate a
//!   10⁸-record synthetic trace (`--records N`), delta-compress it, and
//!   replay it both single-engine and sharded. The workload is fixed
//!   (seed 42, four streams round-robin over four devices, Poisson
//!   arrivals at 20 ms mean, 30 % reads, 4-KB requests, standard target)
//!   and its routing shared-nothing, so the sharded replay's merged
//!   latency artifacts must equal the single engine's exactly, and the
//!   run asserts that they do. The console reports sizes, records/sec,
//!   the real peak RSS (`VmHWM`) and a `media:` line (what the simulated
//!   platters hold and what that costs the host, index and pool apart)
//!   after each replay, and a `speedup:` line (wall-clock,
//!   machine-dependent);
//!   `BENCH_replaystream.json` holds only virtual-time-derived fields plus
//!   the two file sizes. Generation, conversion and both replays all
//!   stream; `--keep` leaves the two trace files in `--out-dir`.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use trail_bench::{
    all_scenarios, replay_stream_json, run_all_scenarios, write_bench_json_in, Args, RunAllOptions,
    ScenarioConfig, ScenarioSpec,
};
use trail_disk::MediumStats;
use trail_sim::SimDuration;
use trail_telemetry::{
    chrome_trace_string, metrics_json_string, JsonValue, MemoryRecorder, RecorderHandle,
};
use trail_trace::{
    from_binary, generate_stream, replay, replay_stream, replay_stream_sharded, ArrivalModel,
    ChunkEncoding, ReplayOptions, ShardPlan, SpatialModel, SyntheticSpec, TargetKind, TraceError,
    TraceReader, TraceWriter, DEFAULT_CHUNK_RECORDS,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scenarios = all_scenarios();
    let result = match args.split_first() {
        Some((sub, rest)) => match sub.as_str() {
            "all" => cmd_all(rest),
            "giga" => cmd_giga(rest),
            "replay_stream" if rest.iter().any(|a| a == "--trace") => cmd_replay_file(rest),
            name => match scenarios.iter().find(|s| s.name == name) {
                Some(spec) => cmd_scenario(spec, rest),
                None => Err(format!("unknown scenario {name:?}")),
            },
        },
        None => Err("no subcommand".to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            let names: Vec<&str> = scenarios.iter().map(|s| s.name).collect();
            eprintln!("trail-bench: {e}");
            eprintln!("usage: trail-bench <all|giga|SCENARIO> [flags]");
            eprintln!("scenarios: {}", names.join(" "));
            ExitCode::FAILURE
        }
    }
}

/// `--out-dir`, defaulting to the current directory.
fn out_dir(args: &Args) -> PathBuf {
    PathBuf::from(args.value("--out-dir").unwrap_or("."))
}

/// The process's real peak resident set (`VmHWM` of `/proc/self/status`)
/// as a console fragment; says so where the file or field is missing.
/// Host-side: it goes next to the `peak resident … records` proxy on the
/// console and never into an artifact.
fn vm_hwm() -> String {
    let kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            rest.trim().strip_suffix("kB")?.trim().parse::<u64>().ok()
        });
    match kb {
        Some(kb) => format!("VmHWM {:.1} MB", kb as f64 / 1024.0),
        None => "VmHWM unavailable".to_string(),
    }
}

/// `--shards N`, when given. `ShardPlan` would quietly run 0 as one
/// shard, and the console line and the artifact would still say 0.
fn shard_count(args: &Args) -> Result<Option<u32>, String> {
    match args.parsed("--shards")? {
        Some(0) => Err("--shards must be at least 1".to_string()),
        n => Ok(n),
    }
}

/// Writes `BENCH_<name>.json` into `dir` and says so.
fn write_artifact(dir: &Path, name: &str, json: &JsonValue) -> Result<(), String> {
    let path = write_bench_json_in(dir, name, json)
        .map_err(|e| format!("{}/BENCH_{name}.json: {e}", dir.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

fn cmd_all(args: &[String]) -> Result<(), String> {
    const FLAGS: &[(&str, bool)] = &[
        ("--quick", false),
        ("--seed", true),
        ("--out-dir", true),
        ("--threads", true),
        ("--filter", true),
    ];
    let args = Args::parse(args, FLAGS, 0)?;
    let defaults = RunAllOptions::default();
    let opts = RunAllOptions {
        quick: args.has("--quick"),
        seed: args.parsed("--seed")?.unwrap_or(defaults.seed),
        threads: args.parsed("--threads")?.unwrap_or(defaults.threads),
        out_dir: out_dir(&args),
        filter: args.value("--filter").map(String::from),
    };
    let summary = run_all_scenarios(&opts).map_err(|e| format!("writing artifacts: {e}"))?;
    for r in &summary.results {
        println!();
        println!("######## {} — {}", r.name, r.title);
        println!();
        print!("{}", r.report);
        eprintln!(
            "wrote {} ({:.2} s on its worker)",
            r.json_path.display(),
            r.wall.as_secs_f64()
        );
    }
    println!();
    println!(
        "== trail-bench all: {} scenarios on {} thread(s): serial estimate {:.1} s, elapsed {:.1} s — wall-clock speedup {:.2}x ==",
        summary.results.len(),
        summary.threads,
        summary.serial_estimate.as_secs_f64(),
        summary.elapsed.as_secs_f64(),
        summary.speedup()
    );
    Ok(())
}

fn cmd_scenario(spec: &ScenarioSpec, args: &[String]) -> Result<(), String> {
    const FLAGS: &[(&str, bool)] = &[
        ("--quick", false),
        ("--seed", true),
        ("--out-dir", true),
        ("--trace-out", true),
        ("--metrics-out", true),
    ];
    let args = Args::parse(args, FLAGS, 1)?;
    let scale: Option<usize> = args
        .positional(0)
        .map(|s| {
            s.parse()
                .map_err(|_| format!("bad scale {s:?} (expected a number)"))
        })
        .transpose()?;
    // No experiment has a zero-sized form: an empty trace, a campaign
    // without crash points or a 0/0 ratio is a usage error, not a result.
    if scale == Some(0) {
        return Err("scale must be at least 1".to_string());
    }
    let (trace_out, metrics_out) = (args.value("--trace-out"), args.value("--metrics-out"));
    // Without either output the run keeps the zero-cost `NullRecorder`.
    let recorder = (trace_out.is_some() || metrics_out.is_some()).then(MemoryRecorder::shared);
    let cfg = ScenarioConfig {
        quick: args.has("--quick"),
        seed: args.parsed("--seed")?.unwrap_or(0),
        scale,
        recorder: recorder.clone().map(|r| r as RecorderHandle),
    };
    let out = (spec.run)(&cfg);
    print!("{}", out.report);
    write_artifact(&out_dir(&args), spec.artifact, &out.json)?;
    if let Some(recorder) = recorder {
        let events = recorder.snapshot();
        if let Some(p) = trace_out {
            std::fs::write(p, chrome_trace_string(&events)).map_err(|e| format!("{p}: {e}"))?;
            eprintln!("wrote Chrome trace ({} events) to {p}", events.len());
        }
        if let Some(p) = metrics_out {
            std::fs::write(p, metrics_json_string(&events)).map_err(|e| format!("{p}: {e}"))?;
            eprintln!("wrote metrics to {p}");
        }
    }
    Ok(())
}

/// The `media:` console line of a replay: what its disks hold and where
/// the host bytes that hold it are. Host-side, like [`vm_hwm`].
fn media_line(m: &MediumStats) -> String {
    let mb = |bytes: u64| bytes as f64 / (1024.0 * 1024.0);
    format!(
        "  media: {} written / {} distinct sectors ({} short); \
         index {:.1} MB + pool {:.1} MB = {:.1} MB resident",
        m.written_sectors,
        m.distinct_sectors,
        m.short_images,
        mb(m.index_bytes),
        mb(m.pool_bytes),
        mb(m.resident_bytes),
    )
}

fn cmd_replay_file(args: &[String]) -> Result<(), String> {
    const FLAGS: &[(&str, bool)] = &[
        ("--trace", true),
        ("--target", true),
        ("--shards", true),
        ("--threads", true),
        ("--oracle", false),
        ("--quick", false),
        ("--out-dir", true),
    ];
    let args = Args::parse(args, FLAGS, 0)?;
    let path = args.value("--trace").expect("dispatched on --trace");
    let target: TargetKind = args
        .value("--target")
        .map_or(Ok(TargetKind::Trail), str::parse)?;
    let shards = shard_count(&args)?;
    let threads: Option<usize> = args.parsed("--threads")?;
    if threads.is_some() && shards.is_none() {
        return Err("--threads applies to a sharded replay (--shards N)".to_string());
    }
    let oops = |e: &dyn std::fmt::Display| format!("{path}: {e}");

    let trace_bytes = std::fs::metadata(path).map_err(|e| oops(&e))?.len();
    let open = || {
        let f = File::open(path).map_err(|e| TraceError::Io(e.to_string()))?;
        TraceReader::new(BufReader::new(f))
    };
    let reader = open().map_err(|e| oops(&e))?;
    let chunk = reader.meta().chunk_records;
    let opts = ReplayOptions {
        target,
        fs_file_blocks: if args.has("--quick") { 128 } else { 1024 },
        ..ReplayOptions::default()
    };
    let wall_start = Instant::now();
    let rep = match shards {
        None => replay_stream(reader, &opts),
        Some(n) => {
            drop(reader);
            let mut plan = ShardPlan::new(n);
            if let Some(t) = threads {
                plan.threads = t;
            }
            replay_stream_sharded(open, plan, &opts)
        }
    }
    .map_err(|e| oops(&e))?;
    let wall = wall_start.elapsed();
    println!(
        "replayed {} records from {path} against {}{}: \
         {:.0} records/s wall, {:.0} records/s virtual, \
         peak resident {} records ({}), max QD {}",
        rep.requests,
        rep.target,
        match shards {
            Some(n) => format!(" ({n} shards)"),
            None => String::new(),
        },
        rep.requests as f64 / wall.as_secs_f64().max(1e-9),
        rep.requests as f64 / rep.duration.as_secs_f64().max(1e-9),
        rep.peak_resident_records,
        vm_hwm(),
        rep.max_queue_depth,
    );
    println!("{}", media_line(&rep.media));
    if args.has("--oracle") {
        let bytes = std::fs::read(path).map_err(|e| oops(&e))?;
        let trace = from_binary(&bytes).map_err(|e| oops(&e))?;
        let mem = replay(&trace, &opts).map_err(|e| oops(&e))?;
        assert_eq!(
            rep.to_json().to_json(),
            mem.to_json().to_json(),
            "streamed report differs from the in-memory oracle"
        );
        println!("oracle: streamed report byte-identical to the in-memory replay");
    }
    let mut json = replay_stream_json(&rep, chunk, trace_bytes);
    if let (Some(n), JsonValue::Obj(fields)) = (shards, &mut json) {
        fields.push(("shards".to_string(), JsonValue::Num(f64::from(n))));
    }
    write_artifact(&out_dir(&args), "replaystream", &json)
}

fn cmd_giga(args: &[String]) -> Result<(), String> {
    const FLAGS: &[(&str, bool)] = &[
        ("--records", true),
        ("--shards", true),
        ("--threads", true),
        ("--out-dir", true),
        ("--keep", false),
    ];
    let args = Args::parse(args, FLAGS, 0)?;
    let records: usize = args.parsed("--records")?.unwrap_or(100_000_000);
    let mut plan = ShardPlan::new(shard_count(&args)?.unwrap_or(4));
    if let Some(t) = args.parsed("--threads")? {
        plan.threads = t;
    }
    let dir = out_dir(&args);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let raw_path = dir.join("giga_raw.trace");
    let delta_path = dir.join("giga_delta.trace");

    let spec = SyntheticSpec {
        seed: 42,
        requests: records,
        devices: 4,
        capacity_sectors: 2 * 1024 * 1024,
        read_fraction: 0.3,
        request_sectors: 8,
        streams: 4,
        arrivals: ArrivalModel::Poisson {
            mean_iat: SimDuration::from_millis(20),
        },
        spatial: SpatialModel::Uniform,
    };

    let wall = Instant::now();
    let file = File::create(&raw_path).map_err(|e| format!("{}: {e}", raw_path.display()))?;
    generate_stream(&spec, DEFAULT_CHUNK_RECORDS, BufWriter::new(file))
        .map_err(|e| format!("generate raw trace: {e}"))?;
    let raw_bytes = std::fs::metadata(&raw_path)
        .map_err(|e| format!("{}: {e}", raw_path.display()))?
        .len();
    println!(
        "generated {records} records in {:.1}s: {raw_bytes} bytes raw",
        wall.elapsed().as_secs_f64()
    );

    let wall = Instant::now();
    let delta_bytes =
        compress(&raw_path, &delta_path).map_err(|e| format!("compress trace: {e}"))?;
    let ratio = delta_bytes as f64 / raw_bytes as f64;
    println!(
        "delta-compressed in {:.1}s: {delta_bytes} bytes ({:.1}% of raw)",
        wall.elapsed().as_secs_f64(),
        ratio * 100.0,
    );

    let opts = ReplayOptions {
        target: TargetKind::Standard,
        ..ReplayOptions::default()
    };
    let open = || {
        let f = File::open(&delta_path).map_err(|e| TraceError::Io(e.to_string()))?;
        TraceReader::new(BufReader::new(f))
    };

    let wall = Instant::now();
    let single = replay_stream(open().map_err(|e| e.to_string())?, &opts)
        .map_err(|e| format!("single replay: {e}"))?;
    let single_rps = single.requests as f64 / wall.elapsed().as_secs_f64().max(1e-9);
    println!(
        "single engine: {:.0} records/s wall, peak resident {} records ({})",
        single_rps,
        single.peak_resident_records,
        vm_hwm()
    );
    println!("{}", media_line(&single.media));

    let wall = Instant::now();
    let sharded =
        replay_stream_sharded(open, plan, &opts).map_err(|e| format!("sharded replay: {e}"))?;
    let sharded_rps = sharded.requests as f64 / wall.elapsed().as_secs_f64().max(1e-9);
    println!(
        "sharded ({} shards, {} threads): {:.0} records/s wall, \
         peak resident {} records/shard ({})",
        plan.shards,
        plan.threads,
        sharded_rps,
        sharded.peak_resident_records,
        vm_hwm()
    );
    println!("{}", media_line(&sharded.media));
    println!("speedup: {:.2}x", sharded_rps / single_rps.max(1e-9));

    assert_eq!(single.requests, sharded.requests, "request counts differ");
    assert_eq!(
        single.latency_fingerprint, sharded.latency_fingerprint,
        "shared-nothing routing must make the sharded replay's latency \
         fingerprint equal the single engine's"
    );
    assert_eq!(
        single.latency.to_json().to_json(),
        sharded.latency.to_json().to_json(),
        "merged latency histogram differs from the single engine's"
    );
    println!(
        "fingerprint: {:016x} (single == sharded)",
        single.latency_fingerprint
    );

    let mut json = replay_stream_json(&sharded, DEFAULT_CHUNK_RECORDS, delta_bytes);
    if let JsonValue::Obj(fields) = &mut json {
        fields.push(("shards".to_string(), JsonValue::Num(f64::from(plan.shards))));
        fields.push((
            "trace_bytes_raw".to_string(),
            JsonValue::Num(raw_bytes as f64),
        ));
        fields.push(("compression_ratio".to_string(), JsonValue::Num(ratio)));
    }
    write_artifact(&dir, "replaystream", &json)?;

    if !args.has("--keep") {
        let _ = std::fs::remove_file(&raw_path);
        let _ = std::fs::remove_file(&delta_path);
    }
    Ok(())
}

/// Streams `src` into `dst` with delta-compressed chunks; returns the
/// compressed file's size in bytes.
fn compress(src: &Path, dst: &Path) -> Result<u64, String> {
    let file = File::open(src).map_err(|e| e.to_string())?;
    let mut reader = TraceReader::new(BufReader::new(file)).map_err(|e| e.to_string())?;
    let mut meta = reader.meta().clone();
    meta.encoding = ChunkEncoding::Delta;
    let out = File::create(dst).map_err(|e| e.to_string())?;
    let mut w = TraceWriter::new(BufWriter::new(out), &meta).map_err(|e| e.to_string())?;
    for r in reader.records() {
        let r = r.map_err(|e| e.to_string())?;
        w.write_record(&r).map_err(|e| e.to_string())?;
    }
    w.finish().map_err(|e| e.to_string())?;
    Ok(std::fs::metadata(dst).map_err(|e| e.to_string())?.len())
}
