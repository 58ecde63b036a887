//! `trail-bench` — every experiment of the reproduction behind one
//! command. (What the harness itself costs in host time and memory is
//! not measured here: that is the repo benchmark, `benchmark/README.md`.)
//!
//! ```text
//! trail-bench all        [--quick] [--seed S] [--out-dir DIR] [--threads N] [--filter SUB]
//! trail-bench <scenario> [scale] [--quick] [--seed S] [--out-dir DIR]
//!                        [--trace-out FILE] [--metrics-out FILE]
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
//!
//! Replaying a trace *file* is `trace_tool replay FILE` (`--shards N` to
//! shard it); generating and compressing one are `trace_tool`'s too.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use trail_bench::{
    all_scenarios, run_all_scenarios, write_bench_json_in, Args, RunAllOptions, ScenarioConfig,
    ScenarioSpec,
};
use trail_telemetry::{
    chrome_trace_string, metrics_json_string, JsonValue, MemoryRecorder, RecorderHandle,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scenarios = all_scenarios();
    let result = match args.split_first() {
        Some((sub, rest)) => match sub.as_str() {
            "all" => cmd_all(rest),
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
            eprintln!("usage: trail-bench <all|SCENARIO> [flags]");
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
