//! Wall-clock performance suite for the simulator hot path.
//!
//! Every other number this repository produces is *virtual-time* — immune,
//! by design, to how fast the executor actually runs. This module is the
//! one place that measures the executor itself: wall-clock seconds and
//! events/second for a handful of representative workloads, written to
//! `BENCH_simperf.json` so the perf trajectory has something to regress
//! against.
//!
//! Two invariants keep the suite honest:
//!
//! - `events_executed` per scenario is **deterministic** (virtual-time
//!   event counts cannot depend on host speed), so CI can compare it
//!   across runs to prove the timed workload itself didn't drift.
//! - Wall-clock fields are *descriptive only* and never feed back into any
//!   scenario's `BENCH_*.json`.
//!
//! The scenarios:
//!
//! | name | exercises |
//! |---|---|
//! | `micro` | raw device model: seek/rotation arithmetic, short chains |
//! | `fig3` | Trail vs standard sync-write path, batching |
//! | `tpcc` | the §5.2 database rig: deep event chains, group commit |
//! | `overload_replay_8x` | open-loop trace replay at 8× over capacity |
//! | `timeout_replay` | cancel-heavy: one armed+cancelled timer per I/O |
//!
//! `timeout_replay` is the executor's worst case: every request arms a
//! guard timer that is cancelled on completion, so the queue is dominated
//! by events that never fire. A `cancel()` that scans the heap turns this
//! workload quadratic; the suite exists to keep it O(log n).

use std::cell::Cell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use trail_blockio::{IoDone, IoRequest, StandardDriver};
use trail_disk::{profiles, Disk, SECTOR_SIZE};
use trail_sim::{thread_events_executed, Delivered, SimDuration, Simulator};
use trail_telemetry::JsonValue;
use trail_trace::{generate, replay, ArrivalModel, ReplayOptions, SyntheticSpec, TargetKind};

use crate::scenarios::{run_scenario, ScenarioConfig};

/// Options for [`run_perf_suite`].
#[derive(Clone, Copy, Debug, Default)]
pub struct PerfOptions {
    /// Shrinks every workload to a CI-smoke size.
    pub quick: bool,
    /// Base seed mixed into each scenario's workload (0 keeps the
    /// historical per-experiment seeds, matching `trail-bench all`).
    pub seed: u64,
}

/// One timed scenario: wall-clock plus the deterministic event count.
#[derive(Clone, Debug)]
pub struct PerfResult {
    /// Scenario name (stable; keys the JSON row).
    pub name: &'static str,
    /// Wall-clock time for the scenario body.
    pub wall: Duration,
    /// Simulator events executed by the scenario body (deterministic).
    pub events_executed: u64,
}

impl PerfResult {
    /// Executor throughput in events per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.events_executed as f64 / secs
        } else {
            0.0
        }
    }
}

/// Times `body` on the current thread, attributing the global
/// thread-event delta to it.
fn timed(name: &'static str, body: impl FnOnce()) -> PerfResult {
    let events_before = thread_events_executed();
    let t0 = Instant::now();
    body();
    let wall = t0.elapsed();
    PerfResult {
        name,
        wall,
        events_executed: thread_events_executed() - events_before,
    }
}

fn scenario_body(name: &str, opts: &PerfOptions) {
    let cfg = ScenarioConfig {
        quick: opts.quick,
        seed: opts.seed,
        scale: None,
        recorder: None,
    };
    run_scenario(name, &cfg).expect("known scenario");
}

/// Open-loop synthetic replay at 8× recorded speed against the Trail
/// target — the sustained-overload shape of the paper's §5 experiments.
fn overload_replay_8x(opts: &PerfOptions) {
    let requests = if opts.quick { 2_000 } else { 20_000 };
    let trace = generate(&SyntheticSpec {
        seed: opts.seed,
        requests,
        read_fraction: 0.3,
        arrivals: ArrivalModel::Poisson {
            mean_iat: SimDuration::from_micros(800),
        },
        ..SyntheticSpec::default()
    });
    replay(
        &trace,
        &ReplayOptions {
            target: TargetKind::Trail,
            speed: 8.0,
            sample_every: SimDuration::ZERO,
            ..ReplayOptions::default()
        },
    )
    .expect("overload replay");
}

/// Closed-loop chains for [`timeout_replay`] — enough to keep the disk
/// busy without letting the driver queue grow (the scenario must stress
/// the *executor's* cancel path, not the I/O scheduler).
const TIMEOUT_REPLAY_CHAINS: usize = 4;

fn timeout_replay_issue(
    sim: &mut Simulator,
    driver: StandardDriver,
    guards: Rc<Vec<trail_sim::EventId>>,
    completed: Rc<Cell<usize>>,
    i: usize,
    total: u64,
) {
    let lba = (i as u64 * 1_009) % (total - 8);
    let data = vec![0u8; 8 * SECTOR_SIZE];
    let respawn = driver.clone();
    let done = sim.completion(move |sim, res: Delivered<IoDone>| {
        res.expect("write completes");
        let g = Rc::clone(&guards);
        assert!(sim.cancel(g[i]), "guard deadline must still be pending");
        completed.set(completed.get() + 1);
        let next = i + TIMEOUT_REPLAY_CHAINS;
        if next < g.len() {
            timeout_replay_issue(sim, respawn, g, completed, next, total);
        }
    });
    driver
        .submit(sim, IoRequest::write(lba, data), done)
        .expect("write accepted");
}

/// Cancel-heavy replay: one guard deadline per request is armed up front
/// (a replay-wide timeout table), and every completion cancels its
/// request's guard. The pending set is dominated by timers that never
/// fire — tens of thousands of them — so a `cancel()` that scans the
/// queue turns the whole run quadratic, while the closed-loop request
/// chains keep the driver queue (and every other cost) small.
fn timeout_replay(opts: &PerfOptions) {
    let requests: usize = if opts.quick { 3_000 } else { 20_000 };
    let mut sim = Simulator::new();
    let driver = StandardDriver::new(Disk::new("perf0", profiles::wd_caviar_10gb()));
    let total = driver.disk().geometry().total_sectors();

    let guards: Rc<Vec<trail_sim::EventId>> = Rc::new(
        (0..requests)
            .map(|_| sim.schedule_in(SimDuration::from_secs(3_600), |_| {}))
            .collect(),
    );
    let completed = Rc::new(Cell::new(0usize));
    for chain in 0..TIMEOUT_REPLAY_CHAINS {
        timeout_replay_issue(
            &mut sim,
            driver.clone(),
            Rc::clone(&guards),
            Rc::clone(&completed),
            chain,
            total,
        );
    }
    sim.run();
    assert_eq!(completed.get(), requests, "every request must complete");
}

/// Runs the full suite in a fixed order, returning one result per
/// scenario.
pub fn run_perf_suite(opts: &PerfOptions) -> Vec<PerfResult> {
    vec![
        timed("micro", || scenario_body("micro", opts)),
        timed("fig3", || scenario_body("fig3", opts)),
        timed("tpcc", || scenario_body("table2", opts)),
        timed("overload_replay_8x", || overload_replay_8x(opts)),
        timed("timeout_replay", || timeout_replay(opts)),
    ]
}

/// Renders the suite's results as the `BENCH_simperf.json` document (see
/// EXPERIMENTS.md for the schema).
pub fn simperf_json(opts: &PerfOptions, results: &[PerfResult]) -> JsonValue {
    let rows = results
        .iter()
        .map(|r| {
            JsonValue::obj(vec![
                ("name", JsonValue::str(r.name)),
                ("events_executed", JsonValue::Num(r.events_executed as f64)),
                ("wall_ms", JsonValue::Num(r.wall.as_secs_f64() * 1e3)),
                ("events_per_sec", JsonValue::Num(r.events_per_sec())),
            ])
        })
        .collect();
    let total_events: u64 = results.iter().map(|r| r.events_executed).sum();
    let total_wall: f64 = results.iter().map(|r| r.wall.as_secs_f64()).sum();
    JsonValue::obj(vec![
        ("bench", JsonValue::str("simperf")),
        (
            "mode",
            JsonValue::str(if opts.quick { "quick" } else { "full" }),
        ),
        ("total_events_executed", JsonValue::Num(total_events as f64)),
        ("total_wall_ms", JsonValue::Num(total_wall * 1e3)),
        ("scenarios", JsonValue::Arr(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeout_replay_event_count_is_deterministic() {
        let opts = PerfOptions {
            quick: true,
            seed: 7,
        };
        let a = timed("timeout_replay", || timeout_replay(&opts));
        let b = timed("timeout_replay", || timeout_replay(&opts));
        assert!(a.events_executed > 0);
        assert_eq!(a.events_executed, b.events_executed);
    }

    #[test]
    fn simperf_json_has_required_fields() {
        let opts = PerfOptions {
            quick: true,
            seed: 1,
        };
        let results = vec![PerfResult {
            name: "micro",
            wall: Duration::from_millis(12),
            events_executed: 3_456,
        }];
        let doc = simperf_json(&opts, &results);
        assert_eq!(
            doc.get("bench").and_then(JsonValue::as_str),
            Some("simperf")
        );
        let rows = doc.get("scenarios").and_then(JsonValue::as_arr).unwrap();
        let row = &rows[0];
        assert_eq!(
            row.get("events_executed").and_then(JsonValue::as_f64),
            Some(3_456.0)
        );
        assert!(row.get("wall_ms").is_some());
        assert!(row.get("events_per_sec").is_some());
    }
}
