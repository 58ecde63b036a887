//! The parallel scenario runner behind `trail-bench all`.
//!
//! Scenarios are embarrassingly parallel: each one builds its own
//! single-threaded [`trail_sim::Simulator`] and never touches shared
//! state, so the runner just drains the registry through a work queue
//! with one OS thread per slot. Determinism is preserved by
//! construction: worker threads only *compute*; all `BENCH_<name>.json`
//! files are written by the calling thread, in registry order, from the
//! scenarios' virtual-time results (wall-clock times never enter the
//! JSON). Running with 1 thread or N produces byte-identical artifacts.

use std::path::PathBuf;
use std::time::{Duration, Instant};

pub use trail_sim::parallel_map;

use crate::report::write_bench_json_in;
use crate::scenarios::{all_scenarios, ScenarioConfig, ScenarioOutput};

/// Options for [`run_all_scenarios`].
#[derive(Clone, Debug)]
pub struct RunAllOptions {
    /// Run the shrunk quick sweeps instead of the paper-scale ones.
    pub quick: bool,
    /// Base seed mixed into every scenario's workload RNG.
    pub seed: u64,
    /// Worker threads (clamped to at least 1 and at most the number of
    /// scenarios).
    pub threads: usize,
    /// Directory receiving the `BENCH_<name>.json` files.
    pub out_dir: PathBuf,
    /// Run only scenarios whose registry name contains this substring
    /// (`None` runs the whole registry).
    pub filter: Option<String>,
}

impl Default for RunAllOptions {
    fn default() -> Self {
        RunAllOptions {
            quick: false,
            seed: 0,
            threads: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            out_dir: PathBuf::from("."),
            filter: None,
        }
    }
}

/// One scenario's outcome in a [`RunAllSummary`].
pub struct ScenarioResult {
    /// Registry name (the `BENCH_<name>.json` stem).
    pub name: &'static str,
    /// One-line description.
    pub title: &'static str,
    /// The human-readable report.
    pub report: String,
    /// Where the JSON payload was written.
    pub json_path: PathBuf,
    /// Wall-clock time this scenario took on its worker thread.
    pub wall: Duration,
    /// Simulator events the scenario executed — a *virtual-time* quantity,
    /// deterministic for a fixed seed regardless of thread count or host
    /// speed (unlike `wall`).
    pub events_executed: u64,
}

/// What a full [`run_all_scenarios`] call produced.
pub struct RunAllSummary {
    /// Per-scenario outcomes, in registry order.
    pub results: Vec<ScenarioResult>,
    /// Wall-clock time for the whole parallel run.
    pub elapsed: Duration,
    /// Sum of the per-scenario wall times — what a serial run would have
    /// cost (measured on this run; no second run needed).
    pub serial_estimate: Duration,
    /// Worker threads actually used.
    pub threads: usize,
}

impl RunAllSummary {
    /// Wall-clock speedup of the parallel run over the serial estimate.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.serial_estimate.as_secs_f64() / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Runs every registered scenario, one per worker thread, and writes each
/// `BENCH_<name>.json` into `opts.out_dir`.
///
/// # Errors
///
/// Propagates file-system errors from creating the output directory or
/// writing the JSON files.
///
/// # Panics
///
/// Panics if a scenario panics on its worker thread (the panic is
/// propagated when the thread scope joins).
pub fn run_all_scenarios(opts: &RunAllOptions) -> std::io::Result<RunAllSummary> {
    let specs: Vec<_> = all_scenarios()
        .into_iter()
        .filter(|s| opts.filter.as_deref().is_none_or(|f| s.name.contains(f)))
        .collect();
    if specs.is_empty() {
        return Ok(RunAllSummary {
            results: Vec::new(),
            elapsed: Duration::ZERO,
            serial_estimate: Duration::ZERO,
            threads: 0,
        });
    }
    let threads = opts.threads.clamp(1, specs.len());
    let start = Instant::now();
    let outcomes: Vec<(ScenarioOutput, Duration, u64)> =
        parallel_map((0..specs.len()).collect(), threads, |idx: usize| {
            // The config is minted per task: a telemetry recorder is
            // an `Rc` (single-simulator affinity), so threaded runs
            // never carry one.
            let cfg = ScenarioConfig {
                quick: opts.quick,
                seed: opts.seed,
                scale: None,
                recorder: None,
            };
            // Each scenario runs start-to-finish on one thread, so the
            // thread-local event counter's delta is exactly its count.
            let events_before = trail_sim::thread_events_executed();
            let t0 = Instant::now();
            let out = (specs[idx].run)(&cfg);
            let events = trail_sim::thread_events_executed() - events_before;
            (out, t0.elapsed(), events)
        });
    let elapsed = start.elapsed();

    let mut results = Vec::with_capacity(specs.len());
    let mut serial_estimate = Duration::ZERO;
    for (spec, (out, wall, events_executed)) in specs.iter().zip(outcomes) {
        serial_estimate += wall;
        let json_path = write_bench_json_in(&opts.out_dir, spec.artifact, &out.json)?;
        results.push(ScenarioResult {
            name: spec.name,
            title: spec.title,
            report: out.report,
            json_path,
            wall,
            events_executed,
        });
    }
    Ok(RunAllSummary {
        results,
        elapsed,
        serial_estimate,
        threads,
    })
}
