//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! benchmark run [--seed S] [--seconds N] [--quick]
//!               [--workload NAME --trace 0|1]
//! benchmark compare A.json B.json
//! ```
//!
//! `run` alone runs all six workloads, the probes and the traced pass,
//! prints every metric as `workload metric value unit`, and writes
//! `benchmark/out/results.json`. With `--workload` it runs that workload
//! alone and ends its output with the one-line result the benchmark's
//! driver reads: end-to-end metrics with `--trace 0`, per-layer metrics
//! with `--trace 1`. Either way it exits non-zero if any output check
//! fails.

mod alloc;
mod child;
mod compare;
mod layers;
mod parent;
mod probes;
mod procfs;
mod report;
mod schema;
mod spans;
mod stats;
mod workloads;

use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use parent::RunOpts;
use trail_telemetry::JsonValue;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// `BENCHMARK.json`'s `run_seconds`: workload sizes are stated for it.
pub const RUN_SECONDS: u32 = 10;
/// Fresh untraced children per workload.
const REPEATS: usize = 3;
/// `--quick`: a smoke of every code path, sized for seconds.
const QUICK_SECONDS: f64 = 0.4;
const QUICK_REPEATS: usize = 2;

const USAGE: &str = "usage: benchmark run [--seed S] [--seconds N] [--quick] \
                     [--workload NAME --trace 0|1]\n       \
                     benchmark compare A.json B.json";

/// `--flag value` pairs and bare words, in order.
struct Args {
    words: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

/// Flags that take no value.
const SWITCHES: [&str; 2] = ["--quick", "--traced"];

fn parse_args(raw: impl Iterator<Item = String>) -> Args {
    let mut args = Args {
        words: Vec::new(),
        flags: Vec::new(),
    };
    let mut raw = raw.peekable();
    while let Some(a) = raw.next() {
        if !a.starts_with("--") {
            args.words.push(a);
        } else if SWITCHES.contains(&a.as_str()) {
            args.flags.push((a, None));
        } else {
            let value = raw.next();
            args.flags.push((a, value));
        }
    }
    args
}

impl Args {
    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == flag)
    }

    /// The flag's value parsed as `T`; `Err` names the flag if it is
    /// present but unusable.
    fn value<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        match self.flags.iter().find(|(f, _)| f == flag) {
            None => Ok(None),
            Some((_, Some(v))) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{flag}: cannot use {v:?}")),
            Some((_, None)) => Err(format!("{flag} needs a value")),
        }
    }

    fn unknown(&self, known: &[&str]) -> Option<&str> {
        self.flags
            .iter()
            .map(|(f, _)| f.as_str())
            .find(|f| !known.contains(f))
    }
}

fn main() -> ExitCode {
    let args = parse_args(std::env::args().skip(1));
    let outcome = match args.words.first().map(String::as_str) {
        Some("run") => run(&args),
        Some("child") => run_child(&args),
        Some("compare") => run_compare(&args),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("{why}");
            ExitCode::from(2)
        }
    }
}

fn run_child(args: &Args) -> Result<bool, String> {
    if let Some(f) = args.unknown(&[
        "--workload",
        "--seed",
        "--scale",
        "--spawned-at-ns",
        "--traced",
    ]) {
        return Err(format!("child: unknown flag {f}"));
    }
    let born = match args.value::<u64>("--spawned-at-ns")? {
        Some(ns) => UNIX_EPOCH + Duration::from_nanos(ns),
        None => SystemTime::now(),
    };
    let child_args = child::ChildArgs {
        workload: args
            .value::<String>("--workload")?
            .ok_or("child: --workload is required")?,
        seed: args.value("--seed")?.unwrap_or(1),
        scale: args.value("--scale")?.unwrap_or(1.0),
        traced: args.has("--traced"),
        born,
        out_dir: child::default_out_dir(),
    };
    if !(child_args.scale.is_finite() && child_args.scale > 0.0) {
        return Err("child: --scale must be positive".to_string());
    }
    let report = child::run(&child_args)
        .ok_or_else(|| format!("child: unknown workload {:?}", child_args.workload))?;
    println!("{}", report.to_json().to_json());
    Ok(true)
}

fn run(args: &Args) -> Result<bool, String> {
    if let Some(f) = args.unknown(&["--workload", "--seed", "--seconds", "--trace", "--quick"]) {
        return Err(format!("run: unknown flag {f}\n{USAGE}"));
    }
    let quick = args.has("--quick");
    let opts = RunOpts {
        seed: args.value("--seed")?.unwrap_or(1),
        seconds: args.value("--seconds")?.unwrap_or(if quick {
            QUICK_SECONDS
        } else {
            f64::from(RUN_SECONDS)
        }),
        k: if quick { QUICK_REPEATS } else { REPEATS },
    };
    if !(opts.seconds.is_finite() && opts.seconds > 0.0 && opts.seconds <= 600.0) {
        return Err("run: --seconds must be in (0, 600]".to_string());
    }
    let trace: Option<u8> = args.value("--trace")?;
    if trace.is_some_and(|t| t > 1) {
        return Err("run: --trace takes 0 or 1".to_string());
    }
    match args.value::<String>("--workload")? {
        Some(name) => run_one(&name, &opts, trace.unwrap_or(0) == 1),
        None => Ok(run_all(&opts)),
    }
}

/// The driver's form: one workload, one result line.
fn run_one(name: &str, opts: &RunOpts, traced: bool) -> Result<bool, String> {
    if !workloads::NAMES.contains(&name) {
        return Err(format!(
            "run: unknown workload {name:?}; the workloads are {}",
            workloads::NAMES.join(", ")
        ));
    }
    let mut result = parent::run_workload(name, opts, traced);
    if traced {
        match parent::run_probes(opts) {
            Ok(probes) => result.per_layer.extend(probes),
            Err(e) => result.violations.push(e),
        }
    }
    result.print();
    for v in &result.violations {
        println!("VIOLATION {v}");
    }
    println!("{}", result.driver_line(traced));
    Ok(result.violations.is_empty())
}

/// The one command: everything, once.
fn run_all(opts: &RunOpts) -> bool {
    let mut violations = Vec::new();
    let mut results = Vec::new();
    for name in workloads::NAMES {
        let result = parent::run_workload(name, opts, true);
        result.print();
        violations.extend(result.violations.iter().cloned());
        results.push(result);
    }
    let probes = parent::run_probes(opts).unwrap_or_else(|e| {
        violations.push(e);
        Vec::new()
    });
    for (name, value) in &probes {
        let unit = schema::decl(name).map_or("", |d| d.unit);
        println!("{} {name} {value} {unit}", child::PROBES);
    }
    let path = child::default_out_dir().join("results.json");
    match parent::write_results(&path, opts, &results, &probes, &violations) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => violations.push(format!("writing {}: {e}", path.display())),
    }
    for v in &violations {
        println!("VIOLATION {v}");
    }
    println!(
        "{} workloads, seed {}, {} s, k = {}: {}",
        results.len(),
        opts.seed,
        opts.seconds,
        opts.k,
        if violations.is_empty() {
            "every output check passed".to_string()
        } else {
            format!("{} output checks FAILED", violations.len())
        }
    );
    violations.is_empty()
}

fn read_json(path: &Path) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    JsonValue::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run_compare(args: &Args) -> Result<bool, String> {
    if let Some(f) = args.unknown(&[]) {
        return Err(format!("compare: unknown flag {f}\n{USAGE}"));
    }
    let [_, a, b] = args.words.as_slice() else {
        return Err(USAGE.to_string());
    };
    let breaches = compare::compare(&read_json(Path::new(a))?, &read_json(Path::new(b))?);
    println!("{breaches} breaches");
    Ok(breaches == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Args {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = args("run --workload tpcc --seed 7 --seconds 10 --trace 1");
        assert_eq!(a.words, ["run"]);
        assert_eq!(
            a.value::<String>("--workload").unwrap().as_deref(),
            Some("tpcc")
        );
        assert_eq!(a.value::<u64>("--seed").unwrap(), Some(7));
        assert_eq!(a.value::<f64>("--seconds").unwrap(), Some(10.0));
        assert_eq!(a.value::<u8>("--trace").unwrap(), Some(1));
        assert!(a
            .unknown(&["--workload", "--seed", "--seconds", "--trace"])
            .is_none());
        assert!(!a.has("--quick"));
    }

    #[test]
    fn bad_flags_are_errors_not_panics() {
        assert!(args("run --seed banana").value::<u64>("--seed").is_err());
        assert!(args("run --seed").value::<u64>("--seed").is_err());
        assert_eq!(args("run --bogus 1").unknown(&["--seed"]), Some("--bogus"));
        let a = args("compare a.json b.json --quick");
        assert_eq!(a.words, ["compare", "a.json", "b.json"]);
        assert!(a.has("--quick"));
    }
}
