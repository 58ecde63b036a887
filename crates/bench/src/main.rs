//! `trail-bench` — every experiment of the reproduction behind one
//! command. (What the harness itself costs in host time and memory is
//! not measured here: that is the repo benchmark, `benchmark/README.md`.)
//!
//! ```text
//! trail-bench all        [--quick] [--seed S] [--out-dir DIR] [--threads N] [--filter SUB]
//! trail-bench <scenario> [scale] [--quick] [--seed S] [--out-dir DIR]
//!                        [--trace-out FILE] [--metrics-out FILE]
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
//!
//! Replaying a trace *file* is `trace_tool replay FILE`.

use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use trail_bench::{
    all_scenarios, media_line, open_trace, replay_stream_json, run_all_scenarios, shard_count,
    vm_hwm, write_bench_json_in, Args, RunAllOptions, ScenarioConfig, ScenarioSpec,
};
use trail_sim::SimDuration;
use trail_telemetry::{
    chrome_trace_string, histogram_json, metrics_json_string, JsonValue, MemoryRecorder,
    RecorderHandle,
};
use trail_trace::{
    generate_stream, recode, replay_stream, replay_stream_sharded, ArrivalModel, ChunkEncoding,
    ReplayOptions, ShardPlan, SpatialModel, SyntheticSpec, TargetKind, DEFAULT_CHUNK_RECORDS,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scenarios = all_scenarios();
    let result = match args.split_first() {
        Some((sub, rest)) => match sub.as_str() {
            "all" => cmd_all(rest),
            "giga" => cmd_giga(rest),
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
            eprintln!("       (a trace file replays with `trace_tool replay FILE`)");
            eprintln!("scenarios: {}", names.join(" "));
            ExitCode::FAILURE
        }
    }
}

/// `--out-dir`, defaulting to the current directory.
fn out_dir(args: &Args) -> PathBuf {
    PathBuf::from(args.value("--out-dir").unwrap_or("."))
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
    let delta_file =
        File::create(&delta_path).map_err(|e| format!("{}: {e}", delta_path.display()))?;
    open_trace(&raw_path)
        .and_then(|mut raw| {
            let out = BufWriter::new(delta_file);
            recode(&mut raw, ChunkEncoding::Delta, DEFAULT_CHUNK_RECORDS, out)
        })
        .map_err(|e| format!("compress trace: {e}"))?;
    let delta_bytes = std::fs::metadata(&delta_path)
        .map_err(|e| format!("{}: {e}", delta_path.display()))?
        .len();
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
    let open = || open_trace(&delta_path);

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
        histogram_json(&single.latency).to_json(),
        histogram_json(&sharded.latency).to_json(),
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
