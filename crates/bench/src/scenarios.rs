//! Every table/figure experiment as a callable scenario.
//!
//! Each scenario function runs one paper experiment to completion and
//! returns a [`ScenarioOutput`]: the human-readable report plus the
//! `BENCH_<name>.json` payload. `trail-bench <name>` runs one of these
//! functions on the main thread, and the `trail-bench all` runner
//! executes the whole registry in parallel — each scenario builds its own
//! single-threaded `Simulator`, so scenarios are embarrassingly parallel
//! by construction.
//!
//! All randomness flows through [`ScenarioConfig::mix`], so a fixed
//! config produces byte-identical JSON regardless of how many threads
//! the runner uses (nothing in a report or JSON depends on wall-clock
//! time).

use std::cell::Cell;
use std::fmt::Write as _;
use std::rc::Rc;

use rand::Rng;
use trail::drive::{Pace, Write};
use trail::explore::{self, Level, TimedWrite};
use trail::{BuiltStack, StackBuilder};
use trail_core::{
    owning_log, read_header, recover, BlockStack, FormatOptions, MissTally, RecoveryOptions,
    RecoveryReport, TrailConfig, TrailStats, CALIBRATION_TRACK,
};
use trail_db::FlushPolicy;
use trail_disk::{profiles, Disk, SECTOR_SIZE};
use trail_fs::{FileSystem, FsError, Lfs, LfsConfig};
use trail_probe::{
    calibrate_delta, calibrate_track_leads, estimate_write_overhead, measure_rotation_period,
};
use trail_serve::{
    run_fleet, AdmissionPolicy, FleetMode, FleetReport, FleetSpec, Server, ServerConfig,
};
use trail_sim::{
    Delivered, DurationHistogram, Fault, FaultKind, FaultPlan, FaultTarget, SimDuration, Simulator,
};
use trail_telemetry::{histogram_json, JsonValue, RecorderHandle};
use trail_tpcc::{run, ChainOn, RunConfig, TpccReport};
use trail_trace::{
    generate, generate_stream, recode, replay as trace_replay,
    replay_stream as trace_replay_stream, replay_stream_sharded, ArrivalModel, ChunkEncoding,
    ReplayOptions, ReplayReport, ShardPlan, SpatialModel, SyntheticSpec, TargetKind, Trace,
    TraceMeta, TraceReader, DEFAULT_CHUNK_RECORDS,
};

use crate::report::{Column, Fmt, Table};
use crate::row;
use crate::runner::parallel_map;
use crate::{build_stack, capture_tpcc, random_writers, tpcc_setup, TpccRig};

/// How a scenario should run.
#[derive(Clone, Default)]
pub struct ScenarioConfig {
    /// Shrink the sweep so the whole suite finishes in seconds (the CI
    /// smoke gate); `false` reproduces the paper-scale runs.
    pub quick: bool,
    /// Base seed mixed into every workload RNG; `0` keeps the historical
    /// per-experiment seeds.
    pub seed: u64,
    /// Overrides the experiment's headline count (writes for `fig3`,
    /// transactions for the TPC-C scenarios) — `trail-bench <name>`'s
    /// positional argument.
    pub scale: Option<usize>,
    /// Telemetry recorder attached to every stack the scenario builds.
    pub recorder: Option<RecorderHandle>,
}

impl ScenarioConfig {
    /// Paper-scale configuration.
    #[must_use]
    pub fn full() -> Self {
        Self::default()
    }

    /// Seconds-not-minutes configuration for smoke testing.
    #[must_use]
    pub fn quick() -> Self {
        ScenarioConfig {
            quick: true,
            ..Self::default()
        }
    }

    /// Mixes the config's base seed into an experiment-local seed.
    #[must_use]
    pub fn mix(&self, local: u64) -> u64 {
        local ^ self.seed
    }

    fn handle(&self) -> Option<RecorderHandle> {
        self.recorder.clone()
    }
}

/// What one scenario produced.
pub struct ScenarioOutput {
    /// The human-readable report.
    pub report: String,
    /// The `BENCH_<name>.json` payload.
    pub json: JsonValue,
}

/// A named entry in the scenario registry.
pub struct ScenarioSpec {
    /// The registry name (the `trail-bench` subcommand, and what
    /// `trail-bench all --filter` matches).
    pub name: &'static str,
    /// The `BENCH_<artifact>.json` stem — usually the name, but a
    /// scenario may publish under a shorter artifact stem (`serve_fleet`
    /// writes `BENCH_serve.json`).
    pub artifact: &'static str,
    /// One-line description for the runner's progress output.
    pub title: &'static str,
    /// The experiment. A plain function pointer so the registry is
    /// `Send` and each runner thread can call into it directly.
    pub run: fn(&ScenarioConfig) -> ScenarioOutput,
}

/// The full experiment registry, in the order `trail-bench all` reports them.
#[must_use]
pub fn all_scenarios() -> Vec<ScenarioSpec> {
    vec![
        ScenarioSpec {
            name: "micro",
            artifact: "micro",
            title: "§5.1 micro-measurements (latency anchors)",
            run: micro,
        },
        ScenarioSpec {
            name: "table1",
            artifact: "table1",
            title: "Table 1: elapsed time vs. write batch size",
            run: table1,
        },
        ScenarioSpec {
            name: "fig3",
            artifact: "fig3",
            title: "Figure 3: sync write latency, Trail vs. standard",
            run: fig3,
        },
        ScenarioSpec {
            name: "fig4",
            artifact: "fig4",
            title: "Figure 4: recovery overhead vs. pending requests",
            run: fig4,
        },
        ScenarioSpec {
            name: "ablation",
            artifact: "ablation",
            title: "Design ablations (threshold, reposition, delta, batch, multi-log)",
            run: ablation,
        },
        ScenarioSpec {
            name: "fs_compare",
            artifact: "fs_compare",
            title: "FS comparison: ext2-like vs. LFS vs. Trail",
            run: fs_compare,
        },
        ScenarioSpec {
            name: "table2",
            artifact: "table2",
            title: "Table 2: TPC-C response time / logging IO / tpmC",
            run: table2,
        },
        ScenarioSpec {
            name: "table3",
            artifact: "table3",
            title: "Table 3: group commits vs. log buffer size",
            run: table3,
        },
        ScenarioSpec {
            name: "track_util",
            artifact: "track_util",
            title: "§5.2: log-track utilization vs. concurrency",
            run: track_util,
        },
        ScenarioSpec {
            name: "replay_synthetic",
            artifact: "replay_synthetic",
            title: "Trace replay: synthetic open-loop workload vs. every stack",
            run: replay_synthetic,
        },
        ScenarioSpec {
            name: "overload_sweep",
            artifact: "overload_sweep",
            title: "Overload sweep: replay speed 0.5-8x vs. every stack",
            run: overload_sweep,
        },
        ScenarioSpec {
            name: "replay_tpcc",
            artifact: "replay_tpcc",
            title: "Trace replay: captured TPC-C workload vs. every stack",
            run: replay_tpcc,
        },
        ScenarioSpec {
            name: "replay_stream",
            artifact: "replaystream",
            title: "Streaming replay: chunked trace pipeline, bounded-memory throughput",
            run: replay_stream_bench,
        },
        ScenarioSpec {
            name: "serve_fleet",
            artifact: "serve",
            title:
                "Serving layer: client fleets (open/closed loop) vs. admission policy and overload",
            run: serve_fleet,
        },
        ScenarioSpec {
            name: "serve_sweep",
            artifact: "serve_sweep",
            title: "Serving layer: one log vs. a two-log array x admission policy overload sweep",
            run: serve_sweep,
        },
        ScenarioSpec {
            name: "raid_sweep",
            artifact: "raid",
            title: "RAID volumes: geometry x Trail-fronting x overload, incl. degraded mode",
            run: raid_sweep,
        },
        ScenarioSpec {
            name: "crash_campaign",
            artifact: "recovery",
            title: "Crash campaign: recovery time vs. log size across sampled crash points",
            run: crash_campaign,
        },
    ]
}

// ------------------------------------------------------------- §5.1 writes

/// Sparse §5.1 arrivals: each write 5 ms after the previous one's ack,
/// past the repositioning window.
const SPARSE_5MS: Pace = Pace::Acked {
    group: 1,
    gap: SimDuration::from_millis(5),
};

/// Clustered §5.1 arrivals: each write the moment the previous one is
/// acknowledged.
const CLUSTERED: Pace = burst(1);

/// `group` writes at once, the next group the moment the last of them is
/// acknowledged.
const fn burst(group: usize) -> Pace {
    Pace::Acked {
        group,
        gap: SimDuration::ZERO,
    }
}

/// `n` writes of `data` to device 0 at targets `rng(seed)` draws from
/// the first 10⁶ sectors.
fn scattered(n: usize, seed: u64, data: &[u8]) -> Vec<Write> {
    let mut rng = trail_sim::rng(seed);
    (0..n)
        .map(|_| Write {
            dev: 0,
            lba: rng.gen_range(0..1_000_000u64),
            data: data.to_vec(),
        })
        .collect()
}

/// `n` writes of `data` to device 0, `stride` sectors apart from sector 0.
fn strided(n: usize, stride: u64, data: &[u8]) -> Vec<Write> {
    (0..n as u64)
        .map(|i| Write {
            dev: 0,
            lba: i * stride,
            data: data.to_vec(),
        })
        .collect()
}

/// The mean latency, in ms, of `writers` driven under `pace` on
/// `builder`'s stack.
fn mean_ms(
    builder: StackBuilder,
    recorder: Option<RecorderHandle>,
    writers: Vec<Vec<Write>>,
    pace: Pace,
) -> f64 {
    let mut built = build_stack(builder, recorder);
    let latency = built.drive(writers, pace).latency;
    assert_eq!(built.stack.pending_work(), 0, "stack drained");
    latency.mean().as_millis_f64()
}

/// Reads the counters of a single-log Trail stack.
fn trail_stats<T>(built: &BuiltStack, f: impl FnOnce(&TrailStats) -> T) -> T {
    built.multi.as_ref().expect("a Trail stack").drivers()[0].with_stats(f)
}

// ------------------------------------------------------------- table 1

/// Issues `total` one-sector writes in groups of `batch`: each group is
/// submitted at once (so the driver folds it into one record) and the
/// next group is submitted when the whole group has been acknowledged.
fn elapsed_for_batch(batch: usize, total: usize, recorder: Option<RecorderHandle>) -> f64 {
    // Match the paper's Table 1 setup: each physical log write pays the
    // repositioning delay.
    let config = TrailConfig {
        reposition_every_write: true,
        ..TrailConfig::default()
    };
    let mut built = build_stack(StackBuilder::new().trail(config), recorder);
    let start = built.sim.now();
    let writes = strided(total, 16, &[0xB7; SECTOR_SIZE]);
    let last_ack = built.drive(vec![writes], burst(batch)).last_ack;
    last_ack.duration_since(start).as_millis_f64()
}

fn table1(cfg: &ScenarioConfig) -> ScenarioOutput {
    let total = cfg.scale.unwrap_or(32);
    let batches: &[(usize, f64)] = if cfg.quick {
        &[(1, 129.9), (4, 33.1), (16, 10.9)]
    } else {
        &[
            (1, 129.9),
            (2, 69.6),
            (4, 33.1),
            (8, 17.7),
            (16, 10.9),
            (32, 8.4),
        ]
    };
    let mut table = Table::new(vec![
        Column::both("batch size", "batch", Fmt::Plain),
        Column::both("elapsed (ms)", "elapsed_ms", Fmt::Fixed(1)),
        Column::both("paper (ms)", "paper_ms", Fmt::Plain),
    ]);
    let mut elapsed: Vec<f64> = Vec::new();
    for &(batch, paper_ms) in batches {
        let ms = elapsed_for_batch(batch, total, cfg.handle());
        elapsed.push(ms);
        table.push(row![batch, ms, paper_ms]);
    }
    let ratio = elapsed.first().copied().unwrap_or(1.0) / elapsed.last().copied().unwrap_or(1.0);
    let mut report = String::new();
    let _ = writeln!(
        report,
        "== Table 1 — elapsed time for {total} one-sector writes vs. batch size =="
    );
    report += &table.markdown();
    let _ = writeln!(report);
    let _ = writeln!(
        report,
        "Extremes ratio: {ratio:.1}x (paper: ~15x; 129.9 / 8.4 = 15.5)"
    );
    ScenarioOutput {
        report,
        json: JsonValue::obj(vec![
            ("bench", JsonValue::str("table1")),
            ("rows", table.json()),
            ("extremes_ratio", JsonValue::Num(ratio)),
        ]),
    }
}

// ------------------------------------------------------------- figure 3

fn fig3(cfg: &ScenarioConfig) -> ScenarioOutput {
    let writes = cfg.scale.unwrap_or(if cfg.quick { 60 } else { 400 });
    let sizes_kb: &[usize] = if cfg.quick {
        &[1, 8, 64]
    } else {
        &[1, 4, 8, 16, 32, 64]
    };
    let trail = StackBuilder::new();
    let standard = StackBuilder::new().data_disks(1).standard();
    let mut rows: Vec<JsonValue> = Vec::new();
    let mut report = String::new();

    for procs in [1usize, 5] {
        let _ = writeln!(report);
        let _ = writeln!(
            report,
            "== Figure 3({}) — average synchronous write latency, {procs} process(es) ==",
            if procs == 1 { 'a' } else { 'b' }
        );
        let mut table = Table::new(vec![
            Column::json("procs"),
            Column::both("size (KB)", "size_kb", Fmt::Plain),
            Column::both("Trail sparse (ms)", "trail_sparse_ms", Fmt::Fixed(3)),
            Column::both("Trail clustered (ms)", "trail_clustered_ms", Fmt::Fixed(3)),
            Column::both("Std sparse (ms)", "std_sparse_ms", Fmt::Fixed(3)),
            Column::both("Std clustered (ms)", "std_clustered_ms", Fmt::Fixed(3)),
            Column::both("best speedup", "best_speedup", Fmt::FixedTimes(2)),
        ]);
        for &kb in sizes_kb {
            let size = kb * 1024;
            let per_proc = (writes / procs).max(1);
            let run = |builder: &StackBuilder, pace: Pace, seed: u64| {
                let writers = random_writers(procs, per_proc, size, cfg.mix(seed + kb as u64));
                mean_ms(builder.clone(), cfg.handle(), writers, pace)
            };
            let t_sparse = run(&trail, SPARSE_5MS, 7);
            let t_clustered = run(&trail, CLUSTERED, 11);
            let s_sparse = run(&standard, SPARSE_5MS, 13);
            let s_clustered = run(&standard, CLUSTERED, 17);
            let speedup = (s_sparse / t_sparse).max(s_clustered / t_clustered);
            table.push(row![
                procs,
                kb,
                t_sparse,
                t_clustered,
                s_sparse,
                s_clustered,
                speedup
            ]);
        }
        report += &table.markdown();
        rows.extend(table.json_rows());
    }
    let _ = writeln!(report);
    let _ = writeln!(
        report,
        "Paper anchors: Trail up to 11.85x faster; sparse Trail < clustered Trail;"
    );
    let _ = writeln!(
        report,
        "standard subsystem insensitive to mode at 1 process; advantage shrinks with size."
    );
    ScenarioOutput {
        report,
        json: JsonValue::obj(vec![
            ("bench", JsonValue::str("fig3")),
            ("writes", JsonValue::Num(writes as f64)),
            ("rows", JsonValue::Arr(rows)),
        ]),
    }
}

// ------------------------------------------------------------- figure 4

/// Runs a burst of `q` 4-KB writes and cuts power the moment the last one
/// is acknowledged. Returns the crashed devices and the pending count.
fn crash_with_pending(q: usize, seed: u64) -> (Disk, Vec<Disk>, usize) {
    let built = trail::StackBuilder::new().build().expect("boot");
    let mut sim = built.sim;
    let trail = built.multi.expect("the default stack runs Trail");
    let log = built.log_disks[0].clone();
    let data = built.data_disks;
    let mut rng = trail_sim::rng(seed);
    let acked = Rc::new(Cell::new(0usize));
    let capacity = data[0].geometry().total_sectors() - 64;
    for _ in 0..q {
        let acked = Rc::clone(&acked);
        let log2 = log.clone();
        let data2 = data.clone();
        let lba = rng.gen_range(0..capacity / 8) * 8;
        let dev = rng.gen_range(0..3);
        let payload = vec![rng.gen::<u8>(); 8 * SECTOR_SIZE];
        let token = sim.completion(move |sim: &mut Simulator, del: Delivered<_>| {
            if del.is_err() {
                return;
            }
            acked.set(acked.get() + 1);
            if acked.get() == q {
                let now = sim.now();
                log2.power_cut(now);
                for d in &data2 {
                    d.power_cut(now);
                }
            }
        });
        trail
            .write(&mut sim, dev, lba, payload, token)
            .expect("write accepted");
    }
    sim.run();
    assert_eq!(acked.get(), q, "all requests must be acknowledged");
    let pending = trail.drivers()[0].pinned_blocks();
    (log, data, pending)
}

fn fig4(cfg: &ScenarioConfig) -> ScenarioOutput {
    let qs: &[usize] = if cfg.quick {
        &[32, 64]
    } else {
        &[32, 64, 128, 256]
    };
    let mut table = Table::new(vec![
        Column::both("Q", "q", Fmt::Plain),
        Column::both("pending at crash", "pending", Fmt::Plain),
        Column::both("locate (ms)", "locate_ms", Fmt::Fixed(1)),
        Column::both("rebuild (ms)", "rebuild_ms", Fmt::Fixed(1)),
        Column::both("write-back (ms)", "writeback_ms", Fmt::Fixed(1)),
        Column::both("total (ms)", "total_ms", Fmt::Fixed(1)),
        Column::both("total w/o WB (ms)", "total_no_wb_ms", Fmt::Fixed(1)),
        Column::md("WB/no-WB", Fmt::FixedTimes(2)),
    ]);
    for &q in qs {
        // Two identically-seeded crashes: one recovered with write-back,
        // one without (recovery mutates the disks).
        let recovered = |options: RecoveryOptions| {
            let (log, data, pending) = crash_with_pending(q, cfg.mix(99));
            log.power_on();
            for d in &data {
                d.power_on();
            }
            let mut sim = Simulator::new();
            let header = read_header(&mut sim, &log).expect("header");
            let report = recover(&mut sim, &log, &data, &header, options).expect("recovery");
            (report, pending)
        };
        let (with_wb, pending) = recovered(RecoveryOptions::default());
        let (without_wb, _) = recovered(RecoveryOptions { write_back: false });
        table.push(row![
            q,
            pending,
            with_wb.locate_time.as_millis_f64(),
            with_wb.rebuild_time.as_millis_f64(),
            with_wb.writeback_time.as_millis_f64(),
            with_wb.total_time().as_millis_f64(),
            without_wb.total_time().as_millis_f64(),
            with_wb.total_time() / without_wb.total_time(),
        ]);
    }
    let mut report = String::new();
    let _ = writeln!(
        report,
        "== Figure 4 — recovery overhead vs. pending requests Q =="
    );
    report += &table.markdown();
    let _ = writeln!(report);
    let _ = writeln!(
        report,
        "Paper anchors: locate stage ~450 ms (binary search, ~20 track scans of 35,717);"
    );
    let _ = writeln!(
        report,
        "write-back dominates; >3.5x slower with write-back at Q=256."
    );
    ScenarioOutput {
        report,
        json: JsonValue::obj(vec![
            ("bench", JsonValue::str("fig4")),
            ("rows", table.json()),
        ]),
    }
}

// ------------------------------------------------------------- micro

fn micro(cfg: &ScenarioConfig) -> ScenarioOutput {
    let n = if cfg.quick { 60 } else { 300 };
    let mut report = String::new();
    let _ = writeln!(
        report,
        "== §5.1 micro-measurements (ST41601N-class log disk) =="
    );

    // --- Probe-level calibration -------------------------------------
    let mut sim = Simulator::new();
    let disk = Disk::new("log", profiles::seagate_st41601n());
    let rotation = measure_rotation_period(&mut sim, &disk, 7).expect("rotation probe");
    let _ = writeln!(
        report,
        "rotation period: {:.3} ms (5400 RPM = 11.111 ms; avg rotational delay {:.2} ms, paper 5.5 ms)",
        rotation.as_millis_f64(),
        rotation.as_millis_f64() / 2.0
    );
    let cal = calibrate_delta(&mut sim, &disk, 0, rotation).expect("delta calibration");
    let _ = writeln!(
        report,
        "delta calibration: minimal {} sectors (paper: < 15 on this drive)",
        cal.minimal
    );
    let mut near_minimal = Table::new(vec![
        Column::md("delta", Fmt::Plain),
        Column::md("single-sector write latency (ms)", Fmt::Fixed(3)),
    ]);
    for s in cal
        .samples
        .iter()
        .filter(|s| s.delta + 4 >= cal.minimal && s.delta <= cal.minimal + 4)
    {
        near_minimal.push(row![s.delta, s.latency.as_millis_f64()]);
    }
    report += &near_minimal.markdown();
    let overhead = estimate_write_overhead(&mut sim, &disk, 3, rotation).expect("overhead probe");
    let _ = writeln!(
        report,
        "fixed write overhead estimate: {:.3} ms (paper: ~1.3 ms hardware-related)",
        overhead.as_millis_f64()
    );
    let leads = calibrate_track_leads(&mut sim, &disk, CALIBRATION_TRACK, rotation)
        .expect("track-lead calibration");
    let _ = writeln!(
        report,
        "write leads: after a read {:.3} ms, after a write {:.3} ms (write overhead [+ write-after-write] + sweep rounding + one sector)",
        leads.after_read.as_millis_f64(),
        leads.after_write.as_millis_f64()
    );
    let _ = writeln!(
        report,
        "reposition leads: head switch {:.3} ms, cylinder crossing {:.3} ms (read overhead + move + sweep rounding + one sector)",
        leads.switch.as_millis_f64(),
        leads.crossing.as_millis_f64()
    );

    // --- Driver-level latency anchors ---------------------------------
    let run = |size: usize, pace: Pace, seed: u64| {
        let mut built = build_stack(StackBuilder::new(), cfg.handle());
        let driven = built.drive(random_writers(1, n, size, cfg.mix(seed)), pace);
        assert_eq!(built.stack.pending_work(), 0, "stack drained");
        (driven.latency, trail_stats(&built, Clone::clone))
    };
    let (one_sector, one_sector_stats) = run(512, SPARSE_5MS, 3);
    let _ = writeln!(
        report,
        "one-sector sync write (sparse): mean {:.3} ms, max {:.3} ms (paper: ~1.40 ms)",
        one_sector.mean().as_millis_f64(),
        one_sector.max().as_millis_f64()
    );
    let (four_kb, _) = run(4096, SPARSE_5MS, 5);
    let _ = writeln!(
        report,
        "4-KB sync write (sparse): mean {:.3} ms (abstract claims <1.5 ms; media-rate transfer of 8 sectors alone is ~1.0 ms — see EXPERIMENTS.md)",
        four_kb.mean().as_millis_f64()
    );
    let (clustered, clustered_stats) = run(512, CLUSTERED, 7);
    let _ = writeln!(
        report,
        "one-sector sync write (clustered): mean {:.3} ms — includes visible repositioning (paper: write + reposition ≈ 3.0 ms)",
        clustered.mean().as_millis_f64()
    );
    let ledger = ledger_table(&[
        ("sparse", &one_sector_stats),
        ("clustered", &clustered_stats),
    ]);
    let _ = writeln!(report, "miss ledger (one-sector runs):");
    report += &ledger.markdown();

    // --- Residual rotational latency ----------------------------------
    // Run a sparse workload and read the log disk's rotation-wait stats.
    let mut built = build_stack(StackBuilder::new(), cfg.handle());
    let writes = scattered(n.min(200), cfg.mix(11), &[1u8; 512]);
    let gap = SimDuration::from_millis(4);
    built.drive(vec![writes], Pace::Drained { gap });
    let (mean_rot, max_rot) = built.log_disks[0].with_stats(|s| {
        (
            s.rotation_waits.mean().as_millis_f64(),
            s.rotation_waits.max().as_millis_f64(),
        )
    });
    let _ = writeln!(
        report,
        "log-disk rotational latency during Trail writes: mean {mean_rot:.3} ms, max {max_rot:.3} ms (paper: reduced below 0.5 ms vs. 5.5 ms average)"
    );
    let repositions = trail_stats(&built, |s| s.repositions);
    let _ = writeln!(report, "repositions performed: {repositions}");

    ScenarioOutput {
        report,
        json: JsonValue::obj(vec![
            ("bench", JsonValue::str("micro")),
            (
                "rotation_period_ms",
                JsonValue::Num(rotation.as_millis_f64()),
            ),
            ("delta_minimal", JsonValue::Num(cal.minimal as f64)),
            (
                "write_overhead_ms",
                JsonValue::Num(overhead.as_millis_f64()),
            ),
            (
                "after_read_lead_ms",
                JsonValue::Num(leads.after_read.as_millis_f64()),
            ),
            (
                "after_write_lead_ms",
                JsonValue::Num(leads.after_write.as_millis_f64()),
            ),
            (
                "switch_lead_ms",
                JsonValue::Num(leads.switch.as_millis_f64()),
            ),
            (
                "crossing_lead_ms",
                JsonValue::Num(leads.crossing.as_millis_f64()),
            ),
            (
                "one_sector_sparse_ms",
                JsonValue::Num(one_sector.mean().as_millis_f64()),
            ),
            (
                "four_kb_sparse_ms",
                JsonValue::Num(four_kb.mean().as_millis_f64()),
            ),
            (
                "one_sector_clustered_ms",
                JsonValue::Num(clustered.mean().as_millis_f64()),
            ),
            ("residual_rotation_mean_ms", JsonValue::Num(mean_rot)),
            ("residual_rotation_max_ms", JsonValue::Num(max_rot)),
            ("repositions", JsonValue::Num(repositions as f64)),
            ("ledger", ledger.json()),
        ]),
    }
}

/// The miss ledger of Trail runs, one row each: how often and how slowly
/// the driver repositioned, the log-disk revolutions each kind of command
/// lost, and for each reason a record missed its predicted sector the
/// share of records that missed for it and their mean rotational wait.
fn ledger_table(runs: &[(&str, &TrailStats)]) -> Table {
    let mut table = Table::new(vec![
        Column::both("run", "run", Fmt::Plain),
        Column::both("records", "records", Fmt::Plain),
        Column::both("repositions", "repositions", Fmt::Plain),
        Column::both(
            "reposition read (ms)",
            "reposition_read_mean_ms",
            Fmt::Fixed(3),
        ),
        Column::both("lost revs: writes", "lost_record_writes", Fmt::Plain),
        Column::both(
            "lost revs: repositions",
            "lost_reposition_reads",
            Fmt::Plain,
        ),
        Column::both("lost revs: idle", "lost_idle_refreshes", Fmt::Plain),
        Column::both("miss: occupied", "occupied_share", Fmt::Percent(1)),
        Column::both("wait (ms)", "occupied_wait_ms", Fmt::Fixed(3)),
        Column::both(
            "miss: run hits used",
            "run_ends_at_used_share",
            Fmt::Percent(1),
        ),
        Column::both("wait (ms)", "run_ends_at_used_wait_ms", Fmt::Fixed(3)),
        Column::both(
            "miss: run hits track end",
            "run_ends_at_track_end_share",
            Fmt::Percent(1),
        ),
        Column::both("wait (ms)", "run_ends_at_track_end_wait_ms", Fmt::Fixed(3)),
    ]);
    let per = |total: SimDuration, n: u64| total.as_millis_f64() / n.max(1) as f64;
    for &(run, s) in runs {
        let share = |t: MissTally| t.count as f64 / s.log_records.max(1) as f64;
        let m = s.predict_misses;
        table.push(row![
            run,
            s.log_records,
            s.repositions,
            per(s.reposition_time, s.repositions),
            s.lost_revolutions.record_writes,
            s.lost_revolutions.reposition_reads,
            s.lost_revolutions.idle_refreshes,
            share(m.occupied),
            per(m.occupied.wait, m.occupied.count),
            share(m.run_ends_at_used),
            per(m.run_ends_at_used.wait, m.run_ends_at_used.count),
            share(m.run_ends_at_track_end),
            per(m.run_ends_at_track_end.wait, m.run_ends_at_track_end.count),
        ]);
    }
    table
}

// ------------------------------------------------------------- ablation

fn ablation(cfg: &ScenarioConfig) -> ScenarioOutput {
    let mut report = String::new();
    let mut json: Vec<(&'static str, JsonValue)> = vec![("bench", JsonValue::str("ablation"))];

    // --- 1: track-utilization threshold -------------------------------
    let writes = if cfg.quick { 80 } else { 300 };
    let _ = writeln!(
        report,
        "== Ablation 1 — track-utilization threshold (paper fixes 30%) =="
    );
    let mut thresholds = Table::new(vec![
        Column::both("threshold", "threshold", Fmt::Fixed(2)),
        Column::both(
            "clustered mean latency (ms)",
            "clustered_mean_ms",
            Fmt::Fixed(3),
        ),
        Column::both("repositions", "repositions", Fmt::Plain),
        Column::both("mean track util", "mean_track_util", Fmt::Percent(1)),
    ]);
    for &th in &[0.10f64, 0.30, 0.50, 0.90] {
        let config = TrailConfig {
            track_util_threshold: th,
            ..TrailConfig::default()
        };
        let mut built = build_stack(StackBuilder::new().trail(config), None);
        let list = scattered(writes, cfg.mix(21), &[7u8; 2 * SECTOR_SIZE]);
        let latency = built.drive(vec![list], burst(writes)).latency;
        let (repos, util) = trail_stats(&built, |s| {
            let u = &s.track_utilization;
            (s.repositions, u.iter().sum::<f64>() / u.len().max(1) as f64)
        });
        thresholds.push(row![th, latency.mean().as_millis_f64(), repos, util]);
    }
    report += &thresholds.markdown();
    json.push(("threshold_sweep", thresholds.json()));
    let _ = writeln!(report);

    // --- 2: reposition policy -----------------------------------------
    let n = if cfg.quick { 50 } else { 200 };
    let repos_n = if cfg.quick { 30 } else { 100 };
    let _ = writeln!(
        report,
        "== Ablation 2 — reposition-every-write (ICCD'93) vs. 30% threshold (DSN'02) =="
    );
    let mut policies = Table::new(vec![
        Column::both("policy", "policy", Fmt::Plain),
        Column::both("sparse mean (ms)", "sparse_mean_ms", Fmt::Fixed(3)),
        Column::both("clustered mean (ms)", "clustered_mean_ms", Fmt::Fixed(3)),
        Column::both("repositions/write", "repositions_per_write", Fmt::Fixed(2)),
    ]);
    for (name, every) in [("threshold 30%", false), ("every write", true)] {
        let config = TrailConfig {
            reposition_every_write: every,
            ..TrailConfig::default()
        };
        let builder = StackBuilder::new().trail(config);
        let run = |pace: Pace, seed: u64| {
            let writers = random_writers(1, n, 1024, cfg.mix(seed));
            mean_ms(builder.clone(), None, writers, pace)
        };
        let sparse = run(SPARSE_5MS, 31);
        let clustered = run(CLUSTERED, 33);
        // Count repositions on a fresh clustered run.
        let mut built = build_stack(builder, None);
        let writes = strided(repos_n, 8, &[1u8; 1024]);
        let gap = SimDuration::ZERO;
        built.drive(vec![writes], Pace::Drained { gap });
        let repos = trail_stats(&built, |s| s.repositions) as f64 / repos_n as f64;
        policies.push(row![name, sparse, clustered, repos]);
    }
    report += &policies.markdown();
    json.push(("reposition_policy", policies.json()));
    let _ = writeln!(report);

    // --- 3: delta sensitivity ------------------------------------------
    let delta_n = if cfg.quick { 40 } else { 150 };
    let _ = writeln!(
        report,
        "== Ablation 3 — same-track lead delta (calibrated vs. detuned) =="
    );
    let mut sim = Simulator::new();
    let probe_disk = Disk::new("probe", profiles::seagate_st41601n());
    let rotation = measure_rotation_period(&mut sim, &probe_disk, 3).expect("rotation probe");
    let leads = calibrate_track_leads(&mut sim, &probe_disk, CALIBRATION_TRACK, rotation)
        .expect("calibration");
    let spt = probe_disk.geometry().spt_of_track(CALIBRATION_TRACK);
    let sectors =
        |lead: SimDuration| (lead.as_nanos() * u64::from(spt)).div_ceil(rotation.as_nanos()) as u32;
    let (after_read, calibrated) = (sectors(leads.after_read), sectors(leads.after_write));
    let _ = writeln!(
        report,
        "(calibrated leads: {after_read} sectors after a read, {calibrated} after a write; \
         each row sets both to its delta)"
    );
    let mut deltas = Table::new(vec![
        Column::both("delta (sectors)", "delta", Fmt::Plain),
        Column::both("sparse mean latency (ms)", "sparse_mean_ms", Fmt::Fixed(3)),
    ]);
    let candidates = [
        calibrated - 6,
        calibrated - 3,
        calibrated - 2,
        calibrated,
        calibrated + 4,
        calibrated + 12,
    ];
    let mut means = Vec::new();
    for &delta in &candidates {
        let builder = StackBuilder::new().data_disks(1).format(FormatOptions {
            delta_override: Some(delta),
        });
        let writes = scattered(delta_n, cfg.mix(77), &[3u8; SECTOR_SIZE]);
        let gap = SimDuration::from_millis(4);
        let mean = mean_ms(builder, None, vec![writes], Pace::Drained { gap });
        means.push(mean);
        deltas.push(row![delta, mean]);
    }
    report += &deltas.markdown();
    json.push(("delta_sensitivity", deltas.json()));
    // What a lead short of the write's overhead costs: the lowest row over
    // the calibrated one.
    json.push(("delta_cliff", JsonValue::Num(means[0] / means[3])));
    let _ = writeln!(report);

    // --- 4: batch cap ---------------------------------------------------
    let batch_writes: usize = if cfg.quick { 32 } else { 64 };
    let _ = writeln!(
        report,
        "== Ablation 4 — batched-write optimization (cap the batch) =="
    );
    let mut caps = Table::new(vec![
        Column::both("max batch sectors", "max_batch_sectors", Fmt::Plain),
        Column::both(
            format!("elapsed for {batch_writes} clustered 1-sector writes (ms)"),
            "elapsed_ms",
            Fmt::Fixed(1),
        ),
    ]);
    for &cap in &[1u32, 4, 16, 32] {
        let config = TrailConfig {
            max_batch_sectors: cap,
            ..TrailConfig::default()
        };
        let mut built = build_stack(StackBuilder::new().trail(config), None);
        let start = built.sim.now();
        let writes = strided(batch_writes, 8, &[9u8; SECTOR_SIZE]);
        let last_ack = built.drive(vec![writes], burst(batch_writes)).last_ack;
        caps.push(row![cap, last_ack.duration_since(start).as_millis_f64()]);
    }
    report += &caps.markdown();
    json.push(("batch_cap", caps.json()));

    // --- 5: multiple log disks -----------------------------------------
    let multi_writes: usize = if cfg.quick { 60 } else { 200 };
    let _ = writeln!(report);
    let _ = writeln!(
        report,
        "== Ablation 5 — multiple log disks hide repositioning =="
    );
    let mut log_disks = Table::new(vec![
        Column::both("log disks", "log_disks", Fmt::Plain),
        Column::both(
            "clustered mean latency (ms)",
            "clustered_mean_ms",
            Fmt::Fixed(3),
        ),
        Column::both(
            format!("elapsed for {multi_writes} writes (ms)"),
            "elapsed_ms",
            Fmt::Fixed(1),
        ),
    ]);
    for n_logs in [1usize, 2, 3] {
        let config = TrailConfig {
            reposition_every_write: true,
            ..TrailConfig::default()
        };
        let builder = StackBuilder::new()
            .data_disks(1)
            .trail_multi(n_logs, config);
        let mut built = build_stack(builder, None);
        let start = built.sim.now();
        let mut seed = cfg.mix(9);
        let writes = (0..multi_writes)
            .map(|_| {
                let mut rng = trail_sim::rng(seed);
                let lba = rng.gen_range(0..1_000_000u64);
                seed = rng.gen();
                Write {
                    dev: 0,
                    lba,
                    data: vec![1u8; SECTOR_SIZE],
                }
            })
            .collect();
        let driven = built.drive(vec![writes], CLUSTERED);
        log_disks.push(row![
            n_logs,
            driven.latency.mean().as_millis_f64(),
            driven.last_ack.duration_since(start).as_millis_f64(),
        ]);
    }
    report += &log_disks.markdown();
    json.push(("multi_log_disks", log_disks.json()));

    ScenarioOutput {
        report,
        json: JsonValue::obj(json),
    }
}

// ------------------------------------------------------------- fs_compare

const FS_BLK: usize = 4096;

/// One data disk for a file system to mount on, behind Trail or the
/// standard driver.
fn fs_stack(trail: bool) -> trail::BuiltStack {
    let builder = trail::StackBuilder::new().data_disks(1);
    if trail {
        builder.trail_default().build()
    } else {
        builder.standard().build()
    }
    .expect("boot")
}

/// Issues `n` synchronous 4-KB writes into a **preallocated** log file (as
/// database systems lay out their logs, precisely to avoid paying an
/// indirect-block rewrite on every O_SYNC append) and returns the mean
/// latency in ms.
fn sync_appends(sim: &mut Simulator, fs: &dyn FileSystem, n: usize) -> f64 {
    let file = fs.create("synclog").expect("create");
    // Preallocate: one bulk write sizes the file and allocates its blocks.
    sim.block_on(|sim, token| fs.write(sim, file, 0, vec![0u8; n * FS_BLK], false, token))
        .expect("accepted")
        .expect("delivered")
        .expect("preallocate");
    sim.run();
    let mut lat = DurationHistogram::new();
    for i in 0..n {
        let start = sim.now();
        let block = vec![(i % 251) as u8; FS_BLK];
        sim.block_on(|sim, token| fs.write(sim, file, (i * FS_BLK) as u64, block, true, token))
            .expect("accepted")
            .expect("delivered")
            .expect("sync write");
        lat.record(sim.now().duration_since(start));
        // Sparse arrivals (past the repositioning window).
        sim.run_for(SimDuration::from_millis(4));
    }
    lat.mean().as_millis_f64()
}

fn fs_compare(cfg: &ScenarioConfig) -> ScenarioOutput {
    let n = cfg.scale.unwrap_or(if cfg.quick { 30 } else { 150 });
    let mut report = String::new();
    let _ = writeln!(
        report,
        "== FS comparison 1 — synchronous 4-KB file appends (mean latency) =="
    );
    let mut appends = Table::new(vec![
        Column::md("file system", Fmt::Plain),
        Column::md("stack", Fmt::Plain),
        Column::md("mean sync write (ms)", Fmt::Fixed(3)),
    ]);

    let mut built = fs_stack(false);
    let extfs = built.extfs(0, 1_000_000).expect("format");
    let ext_std = sync_appends(&mut built.sim, &extfs, n);
    appends.push(row!["ext2-like", "standard", ext_std]);

    let mut built = fs_stack(true);
    let extfs = built.extfs(0, 1_000_000).expect("format");
    let ext_trail = sync_appends(&mut built.sim, &extfs, n);
    appends.push(row!["ext2-like", "**Trail**", ext_trail]);

    let mut built = fs_stack(false);
    let lfs = built.lfs(0, LfsConfig::default());
    let lfs_std = sync_appends(&mut built.sim, &lfs, n);
    appends.push(row!["LFS", "standard", lfs_std]);

    // The paper's own §2 comparison is at the block level: a Trail log
    // write vs. an LFS partial-segment force.
    let sparse = Pace::Acked {
        group: 1,
        gap: SimDuration::from_millis(4),
    };
    let writers = random_writers(1, n, FS_BLK, cfg.mix(7));
    let raw_trail = mean_ms(StackBuilder::new(), None, writers, sparse);
    appends.push(row!["raw block device", "**Trail**", raw_trail]);
    report += &appends.markdown();
    let _ = writeln!(report);
    let _ = writeln!(
        report,
        "ext2/Trail is {:.1}x faster than ext2/standard and {:.1}x faster than LFS/standard",
        ext_std / ext_trail,
        lfs_std / ext_trail
    );
    let _ = writeln!(
        report,
        "(paper §2: Trail 'has a better synchronous write performance than LFS');"
    );
    let _ = writeln!(
        report,
        "LFS beats plain ext2 on sync writes only through fewer metadata writes."
    );

    // ---------------- async throughput sanity ----------------
    let async_n = if cfg.quick { 64 } else { 128 };
    let _ = writeln!(report);
    let _ = writeln!(
        report,
        "== FS comparison 2 — {async_n} asynchronous 4-KB writes (LFS's home turf) =="
    );
    let built = fs_stack(false);
    let (mut sim, disk) = (built.sim, &built.data_disks[0]);
    let lfs = Lfs::new(Rc::clone(&built.stack), 0, LfsConfig::default());
    let f = lfs.create("bulk").expect("create");
    disk.reset_stats();
    let t0 = sim.now();
    for i in 0..async_n {
        let token = sim.completion(|_, _: Delivered<Result<(), FsError>>| {});
        lfs.write(
            &mut sim,
            f,
            (i * FS_BLK) as u64,
            vec![1u8; FS_BLK],
            false,
            token,
        )
        .expect("accepted");
    }
    sim.run();
    let async_cmds = disk.with_stats(|s| s.writes);
    let async_ms = sim.now().duration_since(t0).as_millis_f64();
    let _ = writeln!(
        report,
        "LFS: {async_n} buffered writes -> {async_cmds} disk commands, {async_ms:.1} ms"
    );

    // ---------------- garbage collection ----------------
    let _ = writeln!(report);
    let _ = writeln!(
        report,
        "== FS comparison 3 — reclaiming overwritten space =="
    );
    let built = fs_stack(false);
    let (mut sim, disk) = (built.sim, &built.data_disks[0]);
    let lfs = Lfs::new(
        Rc::clone(&built.stack),
        0,
        LfsConfig {
            segment_blocks: 16,
            segments: 64,
        },
    );
    let f = lfs.create("churn").expect("create");
    // Write 128 blocks, overwrite every other one, then clean.
    for i in 0..128usize {
        let token = sim.completion(|_, _: Delivered<Result<(), FsError>>| {});
        lfs.write(
            &mut sim,
            f,
            (i * FS_BLK) as u64,
            vec![2u8; FS_BLK],
            false,
            token,
        )
        .expect("accepted");
    }
    for i in (0..128usize).step_by(2) {
        let token = sim.completion(|_, _: Delivered<Result<(), FsError>>| {});
        lfs.write(
            &mut sim,
            f,
            (i * FS_BLK) as u64,
            vec![3u8; FS_BLK],
            false,
            token,
        )
        .expect("accepted");
    }
    sim.run();
    disk.reset_stats();
    let _ = sim.block_on(|sim, token| {
        lfs.clean(sim, 8, token);
        Ok::<(), FsError>(())
    });
    sim.run();
    let s = lfs.lfs_stats();
    let _ = writeln!(
        report,
        "LFS cleaner: {} segments cleaned, {} KB read back, {} KB rewritten",
        s.segments_cleaned,
        s.cleaner_read_bytes / 1024,
        s.cleaner_rewritten_bytes / 1024
    );
    let _ = writeln!(
        report,
        "Trail: log tracks are reclaimed when write-back (from memory) commits —"
    );
    let _ = writeln!(
        report,
        "zero garbage-collection I/O by construction (§2: 'Trail incurs less disk"
    );
    let _ = writeln!(report, "access overhead due to garbage collection').");

    ScenarioOutput {
        report,
        json: JsonValue::obj(vec![
            ("bench", JsonValue::str("fs_compare")),
            ("appends", JsonValue::Num(n as f64)),
            ("ext_std_ms", JsonValue::Num(ext_std)),
            ("ext_trail_ms", JsonValue::Num(ext_trail)),
            ("lfs_std_ms", JsonValue::Num(lfs_std)),
            ("raw_trail_ms", JsonValue::Num(raw_trail)),
            ("async_disk_cmds", JsonValue::Num(async_cmds as f64)),
            ("async_elapsed_ms", JsonValue::Num(async_ms)),
            (
                "gc_segments_cleaned",
                JsonValue::Num(s.segments_cleaned as f64),
            ),
            (
                "gc_read_kb",
                JsonValue::Num((s.cleaner_read_bytes / 1024) as f64),
            ),
            (
                "gc_rewritten_kb",
                JsonValue::Num((s.cleaner_rewritten_bytes / 1024) as f64),
            ),
        ]),
    }
}

// ------------------------------------------------------------- table 2

/// The one TPC-C runner of Tables 2 and 3 and `track_util`: `txns`
/// transactions at `concurrency` over Trail (`trail = true`) or the
/// standard stack, with the scenario's recorder attached. Returns the
/// run's report and, on Trail, the log driver's statistics.
fn table2_config(
    cfg: &ScenarioConfig,
    trail: bool,
    policy: FlushPolicy,
    chain: ChainOn,
    txns: usize,
    concurrency: usize,
) -> (TpccReport, Option<TrailStats>) {
    let rig = TpccRig {
        policy,
        seed: cfg.mix(TpccRig::default().seed),
    };
    let mut setup = tpcc_setup(trail, &rig, cfg.handle());
    let report = run(
        &mut setup.sim,
        &setup.db,
        setup.workload,
        RunConfig {
            transactions: txns,
            concurrency,
            chain_on: chain,
        },
    );
    (report, setup.trail.map(|t| t.with_stats(Clone::clone)))
}

fn table2(cfg: &ScenarioConfig) -> ScenarioOutput {
    let txns = cfg.scale.unwrap_or(if cfg.quick { 300 } else { 5000 });
    let (trail, trail_stats) = table2_config(
        cfg,
        true,
        FlushPolicy::EveryCommit,
        ChainOn::Durable,
        txns,
        1,
    );
    let (plain, _) = table2_config(
        cfg,
        false,
        FlushPolicy::EveryCommit,
        ChainOn::Durable,
        txns,
        1,
    );
    let (gc, _) = table2_config(
        cfg,
        false,
        FlushPolicy::GroupCommit {
            buffer_bytes: 50 * 1024,
        },
        ChainOn::Control,
        txns,
        1,
    );

    // One row per configuration, as the artifact has them; the report
    // prints the paper's layout, one line per metric.
    let mut table = Table::new(vec![
        Column::md("metric", Fmt::Plain),
        Column::json("config"),
        Column::both("avg response time (s)", "avg_response_s", Fmt::Fixed(3)),
        Column::both(
            "disk I/O time for logging (s)",
            "logging_io_s",
            Fmt::Fixed(1),
        ),
        Column::both("throughput (tpmC)", "tpmc", Fmt::Fixed(0)),
        Column::both("group commits", "group_commits", Fmt::Plain),
    ]);
    for (heading, config, r) in [
        ("EXT2+Trail", "ext2+trail", &trail),
        ("EXT2", "ext2", &plain),
        ("EXT2+GC", "ext2+gc", &gc),
    ] {
        table.push(row![
            heading,
            config,
            r.mean_response().as_secs_f64(),
            r.logging_io_time.as_secs_f64(),
            r.tpmc,
            r.group_commits,
        ]);
    }
    let mut report = String::new();
    let _ = writeln!(
        report,
        "== Table 2 — TPC-C, {txns} transactions, concurrency 1, w=1, 50 KB log buffer =="
    );
    report += &table.markdown_transposed(&[
        "paper (Trail/EXT2/GC)",
        "0.059 / 0.097 / 0.90",
        "17.6 / 30.4 / 28.8",
        "1004 / 616 / 663",
        "—",
    ]);
    let _ = writeln!(report);
    let _ = writeln!(
        report,
        "Shape checks: Trail/EXT2 throughput = {:.2}x (paper 1.63x); \
         Trail logging reduction vs EXT2 = {:.0}% (paper 42%); \
         GC response {:.1}x EXT2's (paper ~9x).",
        trail.tpmc / plain.tpmc,
        100.0 * (1.0 - trail.logging_io_time.as_secs_f64() / plain.logging_io_time.as_secs_f64()),
        gc.mean_response().as_secs_f64() / plain.mean_response().as_secs_f64(),
    );
    let ledger = ledger_table(&[(
        "ext2+trail",
        trail_stats.as_ref().expect("the Trail rig has a driver"),
    )]);
    let _ = writeln!(report, "EXT2+Trail miss ledger:");
    report += &ledger.markdown();

    ScenarioOutput {
        report,
        json: JsonValue::obj(vec![
            ("bench", JsonValue::str("table2")),
            ("transactions", JsonValue::Num(txns as f64)),
            ("rows", table.json()),
            ("ledger", ledger.json()),
        ]),
    }
}

// ------------------------------------------------------------- table 3

fn table3(cfg: &ScenarioConfig) -> ScenarioOutput {
    let txns = cfg.scale.unwrap_or(if cfg.quick { 400 } else { 10_000 });
    let buffers: &[(usize, u64)] = if cfg.quick {
        &[(4, 10_960), (400, 113)]
    } else {
        &[(4, 10_960), (100, 448), (400, 113), (800, 57), (1200, 39)]
    };
    let mut table = Table::new(vec![
        Column::both("log buffer (KB)", "buffer_kb", Fmt::Plain),
        Column::both("group commits", "group_commits", Fmt::Plain),
        Column::both("paper", "paper", Fmt::Plain),
    ]);
    for &(kb, paper_count) in buffers {
        let policy = FlushPolicy::GroupCommit {
            buffer_bytes: kb * 1024,
        };
        let (result, _) = table2_config(cfg, false, policy, ChainOn::Control, txns, 4);
        table.push(row![kb, result.group_commits, paper_count]);
    }
    let mut report = String::new();
    let _ = writeln!(
        report,
        "== Table 3 — group commits in a {txns}-transaction run, concurrency 4, w=1 =="
    );
    report += &table.markdown();
    ScenarioOutput {
        report,
        json: JsonValue::obj(vec![
            ("bench", JsonValue::str("table3")),
            ("transactions", JsonValue::Num(txns as f64)),
            ("rows", table.json()),
        ]),
    }
}

// ------------------------------------------------------------- track_util

fn track_util(cfg: &ScenarioConfig) -> ScenarioOutput {
    let txns = cfg.scale.unwrap_or(if cfg.quick { 300 } else { 2000 });
    let confs: &[(usize, &str)] = if cfg.quick {
        &[(1, "—"), (4, "12%")]
    } else {
        &[(1, "—"), (4, "12%"), (8, "21%"), (12, ">30%")]
    };
    let mut table = Table::new(vec![
        Column::both("concurrency", "concurrency", Fmt::Plain),
        Column::md("mean track utilization", Fmt::Plain),
        Column::json("batch_util"),
        Column::json("track_fill"),
        Column::both("requests / record", "requests_per_record", Fmt::Fixed(2)),
        Column::md("paper", Fmt::Plain),
    ]);
    for &(conc, paper_val) in confs {
        let (_, stats) = table2_config(
            cfg,
            true,
            FlushPolicy::EveryCommit,
            ChainOn::Durable,
            txns,
            conc,
        );
        let s = stats.expect("trail rig");
        // The paper's §5.2 statistic assumes "Trail performs exactly one
        // batched write to each track": utilization = batch sectors (plus
        // the header) over the track's capacity. Use the outer zone's SPT
        // (90), where the log head spends these short runs.
        let spt = 90.0;
        let batch_util = if s.batch_sizes.is_empty() {
            0.0
        } else {
            s.batch_sizes
                .iter()
                .map(|&b| f64::from(b + 1) / spt)
                .sum::<f64>()
                / s.batch_sizes.len() as f64
        };
        // How many synchronous writes met at the log disk per record.
        let requests_per_record = if s.log_records == 0 {
            0.0
        } else {
            s.logged_requests as f64 / s.log_records as f64
        };
        let track_fill = if s.track_utilization.is_empty() {
            0.0
        } else {
            s.track_utilization.iter().sum::<f64>() / s.track_utilization.len() as f64
        };
        table.push(row![
            conc,
            format!(
                "{:.1}% (actual track fill: {:.1}%)",
                batch_util * 100.0,
                track_fill * 100.0
            ),
            batch_util,
            track_fill,
            requests_per_record,
            paper_val,
        ]);
    }
    let mut report = String::new();
    let _ = writeln!(
        report,
        "== Log-disk per-track utilization vs. TPC-C concurrency ({txns} txns) =="
    );
    report += &table.markdown();
    ScenarioOutput {
        report,
        json: JsonValue::obj(vec![
            ("bench", JsonValue::str("track_util")),
            ("transactions", JsonValue::Num(txns as f64)),
            ("rows", table.json()),
        ]),
    }
}

// ------------------------------------------------------- trace replay

/// Replays `trace` against each `(stack, speed)` in turn, one table row
/// per replay: the report shows the tail, the artifact row is the whole
/// `ReplayReport::to_json` document.
fn replay_targets(
    trace: &Trace,
    targets: &[(&str, f64)],
    recorder: Option<RecorderHandle>,
) -> Table {
    let mut table = Table::new(vec![
        Column::md("target", Fmt::Plain),
        Column::md("p50 (ms)", Fmt::Fixed(3)),
        Column::md("p99 (ms)", Fmt::Fixed(3)),
        Column::md("p99.9 (ms)", Fmt::Fixed(3)),
        Column::md("max (ms)", Fmt::Fixed(3)),
        Column::md("max QD", Fmt::Plain),
        Column::md("errors", Fmt::Plain),
        Column::flattened(),
    ]);
    for &(target, speed) in targets {
        let rep = trace_replay(
            trace,
            &ReplayOptions {
                target: target.parse().expect("a stack shape"),
                speed,
                fs_file_blocks: 256,
                recorder: recorder.clone(),
                ..ReplayOptions::default()
            },
        )
        .expect("replay target");
        let label = if speed == 1.0 {
            rep.target.clone()
        } else {
            format!("{}@{speed}x", rep.target)
        };
        table.push(row![
            label,
            rep.latency.percentile(50.0).as_millis_f64(),
            rep.latency.percentile(99.0).as_millis_f64(),
            rep.latency.percentile(99.9).as_millis_f64(),
            rep.latency.max().as_millis_f64(),
            rep.max_queue_depth,
            rep.errors,
            rep.to_json(),
        ]);
    }
    table
}

fn replay_synthetic(cfg: &ScenarioConfig) -> ScenarioOutput {
    let requests = cfg.scale.unwrap_or(if cfg.quick { 240 } else { 3000 });
    let spec = SyntheticSpec {
        seed: cfg.mix(0x0054_5241_4345), // "TRACE"
        requests,
        devices: 3,
        streams: 4,
        capacity_sectors: 2 * 1024 * 1024,
        read_fraction: 0.3,
        request_sectors: 8,
        arrivals: ArrivalModel::Poisson {
            mean_iat: SimDuration::from_millis(20),
        },
        spatial: SpatialModel::Zipf { skew: 2.0 },
    };
    let trace = generate(&spec);
    let mut report = String::new();
    let _ = writeln!(
        report,
        "== Trace replay — {requests} synthetic requests (4 Poisson streams, \
         Zipf skew 2, 30% reads) against every stack =="
    );
    let targets = &[
        ("standard", 1.0),
        ("trail", 1.0),
        ("trail_multi2", 1.0),
        ("ext2", 1.0),
        ("lfs", 1.0),
        // The time-scale knob: the same trace offered 4x faster shows
        // how Trail absorbs overload the standard stack queues on.
        ("trail", 4.0),
        ("standard", 4.0),
    ];
    let table = replay_targets(&trace, targets, cfg.handle());
    report += &table.markdown();
    ScenarioOutput {
        report,
        json: JsonValue::obj(vec![
            ("bench", JsonValue::str("replay_synthetic")),
            ("requests", JsonValue::Num(requests as f64)),
            (
                "trace_duration_ms",
                JsonValue::Num(trace.duration().as_millis_f64()),
            ),
            ("rows", table.json()),
        ]),
    }
}

/// One streaming replay as a one-row table: the line `replay_stream`
/// prints and the `BENCH_replaystream.json` document. Every field is
/// virtual-time-derived: `records_per_sec` is records over the replay's
/// *virtual* duration, and `peak_resident_records` is the engine's
/// bounded-memory proxy (arrival batch + requests in flight), so a fixed
/// trace produces identical bytes on every run.
fn replay_stream_table(rep: &ReplayReport, trace_bytes: u64) -> Table {
    let secs = rep.duration.as_secs_f64();
    let records_per_sec = if secs > 0.0 {
        rep.requests as f64 / secs
    } else {
        0.0
    };
    let mut table = Table::new(vec![
        Column::json("bench"),
        Column::both("target", "target", Fmt::Plain),
        Column::json("requests"),
        Column::json("chunk_records"),
        Column::both("trace bytes", "trace_bytes", Fmt::Plain).markdown_last(),
        Column::json("duration_ms"),
        Column::both("records/s (virtual)", "records_per_sec", Fmt::Fixed(0)),
        Column::both("peak resident", "peak_resident_records", Fmt::Plain),
        Column::json("latency_fingerprint"),
        Column::json("latency"),
        Column::both("max QD", "max_queue_depth", Fmt::Plain),
        Column::md("p50 (ms)", Fmt::Fixed(3)),
        Column::md("p99 (ms)", Fmt::Fixed(3)),
        Column::json("errors"),
    ]);
    table.push(row![
        "replay_stream",
        rep.target.clone(),
        rep.requests,
        DEFAULT_CHUNK_RECORDS,
        trace_bytes,
        rep.duration.as_millis_f64(),
        records_per_sec,
        rep.peak_resident_records,
        format!("{:016x}", rep.latency_fingerprint),
        histogram_json(&rep.latency),
        rep.max_queue_depth,
        rep.latency.percentile(50.0).as_millis_f64(),
        rep.latency.percentile(99.0).as_millis_f64(),
        rep.errors,
    ]);
    table
}

/// Streams a chunked synthetic trace through the bounded-memory replay
/// engine — a million records in full mode — and reports virtual
/// throughput plus the peak-residency proxy. In quick mode the
/// streamed report is additionally checked byte-for-byte against the
/// in-memory oracle, the acceptance property of the streaming pipeline.
fn replay_stream_bench(cfg: &ScenarioConfig) -> ScenarioOutput {
    let requests = cfg
        .scale
        .unwrap_or(if cfg.quick { 2_000 } else { 1_000_000 });
    let spec = SyntheticSpec {
        seed: cfg.mix(0x0053_5452_4541), // "STREA"
        requests,
        devices: 2,
        streams: 4,
        capacity_sectors: 2 * 1024 * 1024,
        read_fraction: 0.3,
        request_sectors: 8,
        arrivals: ArrivalModel::Poisson {
            mean_iat: SimDuration::from_millis(20),
        },
        spatial: SpatialModel::Uniform,
    };
    // The trace is encoded straight into a chunk-framed buffer and
    // decoded back one chunk at a time — the full Vec<TraceRecord>
    // never exists on the streaming side.
    let bytes = generate_stream(&spec, 0, Vec::new()).expect("encode trace");
    let trace_bytes = bytes.len() as u64;
    // Re-encode with delta-compressed chunks: identical records, smaller
    // file. The replay below reads the *compressed* buffer, so the
    // oracle check also proves the codec transparent end to end.
    let delta = {
        let mut reader = TraceReader::new(bytes.as_slice()).expect("trace header");
        let chunk = reader.meta().chunk_records;
        recode(&mut reader, ChunkEncoding::Delta, chunk, Vec::new()).expect("re-encode trace")
    };
    let trace_bytes_delta = delta.len() as u64;
    let compression_ratio = trace_bytes_delta as f64 / trace_bytes as f64;
    assert!(
        compression_ratio < 0.6,
        "delta chunks should cut the Poisson trace below 60% of raw, got {compression_ratio:.3}"
    );
    let opts = ReplayOptions {
        target: TargetKind::Trail,
        fs_file_blocks: 256,
        recorder: cfg.handle(),
        ..ReplayOptions::default()
    };
    let reader = TraceReader::new(std::io::Cursor::new(delta.clone())).expect("trace header");
    let rep = trace_replay_stream(reader, &opts).expect("streaming replay");
    assert_eq!(
        rep.requests, requests as u64,
        "stream replayed every record"
    );

    let mut report = String::new();
    let _ = writeln!(
        report,
        "== Streaming replay — {requests} records decoded chunk-at-a-time \
         ({DEFAULT_CHUNK_RECORDS}/chunk) through the bounded-memory engine =="
    );
    let table = replay_stream_table(&rep, trace_bytes);
    report += &table.markdown();
    let oracle_checked = cfg.quick;
    if oracle_checked {
        // The acceptance property, exercised at smoke size: the
        // streaming engine's report is byte-identical to replaying the
        // fully materialized trace.
        let oracle = trace_replay(&generate(&spec), &opts).expect("in-memory oracle");
        assert_eq!(
            rep.latency_fingerprint, oracle.latency_fingerprint,
            "streamed replay diverged from the in-memory oracle"
        );
        assert_eq!(
            rep.to_json().to_json(),
            oracle.to_json().to_json(),
            "streamed report diverged from the in-memory oracle"
        );
        let _ = writeln!(
            report,
            "oracle: streamed report byte-identical to the in-memory replay"
        );
    }

    // Sharded replay over the same compressed buffer: four shards on
    // two worker threads. The merged report is a deterministic artifact
    // of the trace and the shard count — never the thread count.
    let shard_opts = ReplayOptions {
        target: TargetKind::Trail,
        fs_file_blocks: 256,
        ..ReplayOptions::default()
    };
    let open = || TraceReader::new(std::io::Cursor::new(delta.clone()));
    let sharded = replay_stream_sharded(
        open,
        ShardPlan {
            shards: 4,
            threads: 2,
        },
        &shard_opts,
    )
    .expect("sharded replay");
    assert_eq!(
        sharded.requests, requests as u64,
        "the shards together replayed every record"
    );
    if cfg.quick {
        // A single shard is the unsharded engine plus an identity
        // merge: the reports must match byte for byte.
        let plain =
            trace_replay_stream(open().expect("trace header"), &shard_opts).expect("plain replay");
        let one =
            replay_stream_sharded(open, ShardPlan::new(1), &shard_opts).expect("1-shard replay");
        assert_eq!(
            one.to_json().to_json(),
            plain.to_json().to_json(),
            "a 1-shard sharded replay diverged from the unsharded engine"
        );
    }
    let _ = writeln!(
        report,
        "delta chunks: {trace_bytes_delta} bytes ({:.1}% of {trace_bytes} raw); \
         sharded (4 shards) fingerprint {:016x}",
        compression_ratio * 100.0,
        sharded.latency_fingerprint,
    );

    let mut json = table.json_rows().remove(0);
    if let JsonValue::Obj(fields) = &mut json {
        fields.push((
            "oracle_checked".to_string(),
            JsonValue::Num(f64::from(u8::from(oracle_checked))),
        ));
        fields.push((
            "trace_bytes_delta".to_string(),
            JsonValue::Num(trace_bytes_delta as f64),
        ));
        fields.push((
            "compression_ratio".to_string(),
            JsonValue::Num(compression_ratio),
        ));
        fields.push(("shards".to_string(), JsonValue::Num(4.0)));
        fields.push((
            "sharded_fingerprint".to_string(),
            JsonValue::Str(format!("{:016x}", sharded.latency_fingerprint)),
        ));
    }
    ScenarioOutput { report, json }
}

/// Offers one synthetic trace to every base stack at several
/// time-compression factors. The replay `speed` knob rescales arrival
/// instants, so 8x presents the recorded load eight times faster than it
/// was generated — the open-loop overload regime where queueing, not
/// service time, dominates the tail.
fn overload_sweep(cfg: &ScenarioConfig) -> ScenarioOutput {
    let requests = cfg.scale.unwrap_or(if cfg.quick { 120 } else { 2000 });
    let speeds: &[f64] = if cfg.quick {
        &[0.5, 2.0, 8.0]
    } else {
        &[0.5, 1.0, 2.0, 4.0, 8.0]
    };
    let spec = SyntheticSpec {
        seed: cfg.mix(0x004F_5645_524C), // "OVERL"
        requests,
        devices: 2,
        streams: 4,
        capacity_sectors: 2 * 1024 * 1024,
        read_fraction: 0.3,
        request_sectors: 8,
        arrivals: ArrivalModel::Poisson {
            mean_iat: SimDuration::from_millis(10),
        },
        spatial: SpatialModel::Uniform,
    };
    let trace = generate(&spec);
    let targets = ["standard", "trail", "trail_multi2", "ext2", "lfs"];
    let mut report = String::new();
    let _ = writeln!(
        report,
        "== Overload sweep — {requests} synthetic requests (4 Poisson streams) \
         replayed at {speeds:?}x against every stack =="
    );
    let mut table = Table::new(vec![
        Column::md("target", Fmt::Plain),
        Column::both("speed", "speed", Fmt::Times),
        Column::both("p50 (ms)", "p50_ms", Fmt::Fixed(3)),
        Column::both("p95 (ms)", "p95_ms", Fmt::Fixed(3)),
        Column::both("p99 (ms)", "p99_ms", Fmt::Fixed(3)),
        Column::both("p99.9 (ms)", "p999_ms", Fmt::Fixed(3)),
        Column::both("mean (ms)", "mean_ms", Fmt::Fixed(3)),
        Column::both("max QD", "max_queue_depth", Fmt::Plain),
        Column::both("errors", "errors", Fmt::Plain),
    ]);
    for target in targets {
        for &speed in speeds {
            let rep = trace_replay(
                &trace,
                &ReplayOptions {
                    target: target.parse().expect("a stack shape"),
                    speed,
                    fs_file_blocks: 256,
                    recorder: cfg.handle(),
                    ..ReplayOptions::default()
                },
            )
            .expect("overload replay");
            table.push(row![
                rep.target.clone(),
                speed,
                rep.latency.percentile(50.0).as_millis_f64(),
                rep.latency.percentile(95.0).as_millis_f64(),
                rep.latency.percentile(99.0).as_millis_f64(),
                rep.latency.percentile(99.9).as_millis_f64(),
                rep.latency.mean().as_millis_f64(),
                rep.max_queue_depth,
                rep.errors,
            ]);
        }
    }
    report += &table.markdown();
    // The artifact groups the rows by target: one series of points each.
    let series = targets
        .iter()
        .zip(table.json_rows().chunks(speeds.len()))
        .map(|(target, points)| {
            JsonValue::obj(vec![
                ("target", JsonValue::str(*target)),
                ("points", JsonValue::Arr(points.to_vec())),
            ])
        })
        .collect();
    ScenarioOutput {
        report,
        json: JsonValue::obj(vec![
            ("bench", JsonValue::str("overload_sweep")),
            ("requests", JsonValue::Num(requests as f64)),
            (
                "trace_duration_ms",
                JsonValue::Num(trace.duration().as_millis_f64()),
            ),
            ("targets", JsonValue::Arr(series)),
        ]),
    }
}

// ------------------------------------------------------------ raid sweep

/// Over all volumes: reads reconstructed from parity (only a failed
/// member causes one), and spans written in reconstruct mode — healthy
/// reconstruct-writes included — or without the parity member.
fn reconstructed_ops(rep: &ReplayReport) -> (u64, u64) {
    let reads = rep.volume_stats.iter().map(|v| v.degraded_reads).sum();
    let writes = rep
        .volume_stats
        .iter()
        .map(|v| v.reconstruct_writes + v.parityless_writes)
        .sum();
    (reads, writes)
}

/// One sweep row: replay the shared small-write trace against the stack
/// `target` names at `speed` under the given fault plan (empty for a
/// healthy run; the degraded rows fail volume 0's member 1 mid-trace).
fn raid_sweep_row(
    trace: &Trace,
    target: &str,
    speed: f64,
    faults: FaultPlan,
    cfg: &ScenarioConfig,
    table: &mut Table,
) -> ReplayReport {
    let degraded = !faults.is_empty();
    let rep = trace_replay(
        trace,
        &ReplayOptions {
            target: target.parse().expect("a RAID stack"),
            speed,
            faults,
            recorder: cfg.handle(),
            ..ReplayOptions::default()
        },
    )
    .expect("raid replay");
    let (degraded_reads, reconstruct_writes) = reconstructed_ops(&rep);
    table.push(row![
        rep.target.clone(),
        speed,
        if degraded { "degraded" } else { "healthy" },
        degraded,
        rep.requests,
        rep.writes,
        rep.errors,
        rep.write_latency.mean().as_millis_f64(),
        rep.write_latency.percentile(50.0).as_millis_f64(),
        rep.write_latency.percentile(99.0).as_millis_f64(),
        rep.read_latency.mean().as_millis_f64(),
        degraded_reads,
        reconstruct_writes,
        rep.max_queue_depth,
        rep.volumes_json(),
    ]);
    rep
}

/// The volume-layer sweep: one small-write-heavy trace offered to RAID
/// geometries behind the standard stack and behind Trail, at and above
/// recorded load, plus degraded-mode (member-failure) rows. The headline
/// is RAID-5's small-write penalty: the standard stack pays the parity
/// update on every small write, while Trail acknowledges at log speed and
/// pays parity maintenance in background write-backs that reads overtake.
fn raid_sweep(cfg: &ScenarioConfig) -> ScenarioOutput {
    let requests = cfg.scale.unwrap_or(if cfg.quick { 150 } else { 1200 });
    // The chunk of every striped stack below: a spec without `chunk<N>`.
    let chunk = 8u32;
    // Small writes (1 KB, a quarter of a chunk) against a mostly-write
    // mix: the workload Trail §5.1 targets, and RAID-5's worst case.
    let mean_iat = SimDuration::from_millis(20);
    let spec = SyntheticSpec {
        seed: cfg.mix(0x0052_4149_4453), // "RAIDS"
        requests,
        devices: 1,
        streams: 4,
        capacity_sectors: 2 * 1024 * 1024,
        read_fraction: 0.25,
        request_sectors: 2,
        arrivals: ArrivalModel::Poisson { mean_iat },
        spatial: SpatialModel::Uniform,
    };
    let trace = generate(&spec);
    // Fail data member 1 a third of the way into the trace, so the
    // remainder exercises degraded reads and reconstruct-mode writes.
    let fail = FaultPlan::member_fail(
        0,
        1,
        SimDuration::from_nanos(trace.duration().as_nanos() / 3),
    );

    let mut report = String::new();
    let _ = writeln!(
        report,
        "== RAID sweep — {requests} small writes (1 KB, 25% reads) vs. \
         geometry x Trail-fronting x load =="
    );
    let mut table = Table::new(vec![
        Column::both("target", "target", Fmt::Plain),
        Column::both("speed", "speed", Fmt::Times),
        Column::md("mode", Fmt::Plain),
        Column::json("degraded"),
        Column::json("requests"),
        Column::json("writes"),
        Column::both("errors", "errors", Fmt::Plain).markdown_last(),
        Column::both("write mean (ms)", "write_mean_ms", Fmt::Fixed(3)),
        Column::both("write p50", "write_p50_ms", Fmt::Fixed(3)),
        Column::both("write p99", "write_p99_ms", Fmt::Fixed(3)),
        Column::both("read mean", "read_mean_ms", Fmt::Fixed(3)),
        Column::both("degraded reads", "degraded_reads", Fmt::Plain),
        Column::md("reconstructed writes", Fmt::Plain),
        Column::both("max QD", "max_queue_depth", Fmt::Plain),
        Column::json("volumes"),
    ]);
    // RAID-5 `(write mean, read mean)` in ms at recorded load, standard
    // and Trail-fronted.
    let mut std5 = (0.0f64, 0.0f64);
    let mut trail5 = (0.0f64, 0.0f64);

    // Geometry sweep at recorded load, standard vs. Trail-fronted.
    for target in [
        "raid0x3",
        "raid0x3_trail",
        "raid1x2",
        "raid1x2_trail",
        "raid5x3",
        "raid5x3_trail",
    ] {
        let rep = raid_sweep_row(&trace, target, 1.0, FaultPlan::new(), cfg, &mut table);
        let means = (
            rep.write_latency.mean().as_millis_f64(),
            rep.read_latency.mean().as_millis_f64(),
        );
        match target {
            "raid5x3" => std5 = means,
            "raid5x3_trail" => trail5 = means,
            _ => {}
        }
    }

    // Overload: the RAID-5 pair above recorded speed.
    let overload: &[f64] = if cfg.quick { &[2.0] } else { &[2.0, 4.0] };
    for &speed in overload {
        for target in ["raid5x3", "raid5x3_trail"] {
            raid_sweep_row(&trace, target, speed, FaultPlan::new(), cfg, &mut table);
        }
    }

    // Degraded mode: the RAID-5 pair with a member failing mid-trace.
    for target in ["raid5x3", "raid5x3_trail"] {
        let rep = raid_sweep_row(&trace, target, 1.0, fail.clone(), cfg, &mut table);
        assert!(
            reconstructed_ops(&rep).0 > 0,
            "degraded {} run never reconstructed a read",
            rep.target
        );
    }
    report += &table.markdown();

    let ratio = |std: f64, trail: f64| if trail > 0.0 { std / trail } else { 0.0 };
    let speedup = ratio(std5.0, trail5.0);
    let read_speedup = ratio(std5.1, trail5.1);
    let _ = writeln!(
        report,
        "headline: RAID-5 small-write mean {:.3} ms standard vs. {:.3} ms \
         Trail-fronted ({speedup:.1}x); read mean {:.3} vs. {:.3} ms ({read_speedup:.1}x)",
        std5.0, trail5.0, std5.1, trail5.1
    );

    ScenarioOutput {
        report,
        json: JsonValue::obj(vec![
            ("bench", JsonValue::str("raid_sweep")),
            ("requests", JsonValue::Num(requests as f64)),
            ("request_sectors", JsonValue::Num(2.0)),
            ("chunk_sectors", JsonValue::Num(f64::from(chunk))),
            (
                "trace_duration_ms",
                JsonValue::Num(trace.duration().as_millis_f64()),
            ),
            ("rows", table.json()),
            (
                "headline",
                JsonValue::obj(vec![
                    ("standard_raid5_write_mean_ms", JsonValue::Num(std5.0)),
                    ("trail_raid5_write_mean_ms", JsonValue::Num(trail5.0)),
                    ("small_write_speedup", JsonValue::Num(speedup)),
                    ("standard_raid5_read_mean_ms", JsonValue::Num(std5.1)),
                    ("trail_raid5_read_mean_ms", JsonValue::Num(trail5.1)),
                    ("small_read_speedup", JsonValue::Num(read_speedup)),
                ]),
            ),
        ]),
    }
}

fn replay_tpcc(cfg: &ScenarioConfig) -> ScenarioOutput {
    let txns = cfg.scale.unwrap_or(if cfg.quick { 100 } else { 800 });
    let rig = TpccRig {
        seed: cfg.mix(TpccRig::default().seed),
        ..TpccRig::default()
    };
    // Capture the offered block-level workload of a TPC-C run over
    // Trail: the tap sees the logical request stream (WAL forces, page
    // evictions, reads), not the log-disk records, so the capture
    // replays against any stack.
    let meta = TraceMeta {
        source: "capture:tpcc".to_string(),
        seed: rig.seed,
        note: format!("{txns} transactions, concurrency 4, over Trail"),
        ..TraceMeta::default()
    };
    let (trace, tpcc) = capture_tpcc(true, &rig, txns, meta);

    let mut report = String::new();
    let _ = writeln!(
        report,
        "== Trace replay — TPC-C capture ({txns} txns, {} requests, {:.1} s) \
         against every stack ==",
        trace.len(),
        trace.duration().as_secs_f64(),
    );
    let _ = writeln!(
        report,
        "capture source: {} ({:.0} tpmC while recording)",
        trace.meta.source, tpcc.tpmc
    );
    let targets = &[("standard", 1.0), ("trail", 1.0), ("trail_multi2", 1.0)];
    let table = replay_targets(&trace, targets, cfg.handle());
    report += &table.markdown();
    ScenarioOutput {
        report,
        json: JsonValue::obj(vec![
            ("bench", JsonValue::str("replay_tpcc")),
            ("transactions", JsonValue::Num(txns as f64)),
            ("captured_requests", JsonValue::Num(trace.len() as f64)),
            (
                "capture_duration_ms",
                JsonValue::Num(trace.duration().as_millis_f64()),
            ),
            ("tpmc_while_recording", JsonValue::Num(tpcc.tpmc)),
            ("rows", table.json()),
        ]),
    }
}

// ------------------------------------------------------- serving layer

/// Runs `fleet` against a [`Server`] with 8 worker slots and `admission`,
/// over the stack `spec` names ([`BuiltStack::service`]).
fn serve_testbed(spec: &str, admission: AdmissionPolicy, fleet: &FleetSpec) -> FleetReport {
    let builder: StackBuilder = spec.parse().expect("a serve stack");
    let mut built = builder.build().expect("serve stack boots");
    let worker_slots = 8;
    let server = Server::new(
        built.service(),
        ServerConfig {
            worker_slots,
            admission,
        },
    );
    run_fleet(&mut built.sim, &server, fleet)
}

/// Per-session mean inter-arrival time that keeps the *fleet-wide*
/// offered rate constant as the session count scales: every session
/// thinks `sessions x 2 ms`, so the fleet offers ~500 requests/s at
/// `overload = 1.0` — right at the measured capacity of the testbed
/// (the log disk and two data disks bound throughput, not the worker
/// pool) — regardless of how many sessions share the load.
fn serve_mean_iat(sessions: u32) -> SimDuration {
    SimDuration::from_nanos(u64::from(sessions) * 2_000_000)
}

const SERVE_ADMISSIONS: [AdmissionPolicy; 3] = [
    AdmissionPolicy::Unbounded,
    AdmissionPolicy::BoundedQueue { max_queue: 64 },
    AdmissionPolicy::DeadlineShed {
        max_wait: SimDuration::from_millis(25),
    },
];

/// The per-cell table of the serving scenarios: the report shows the
/// headline counters and the served tail, the artifact cell is the whole
/// `FleetReport` document behind the three sweep coordinates.
fn serve_table() -> Table {
    Table::new(vec![
        Column::both("mode", "mode", Fmt::Plain),
        Column::both("admission", "admission", Fmt::Plain),
        Column::both("load", "overload", Fmt::Times),
        Column::md("issued", Fmt::Plain),
        Column::md("served", Fmt::Plain),
        Column::md("rejected", Fmt::Plain),
        Column::md("shed", Fmt::Plain),
        Column::md("cancelled", Fmt::Plain),
        Column::md("p50 (ms)", Fmt::Fixed(3)),
        Column::md("p99 (ms)", Fmt::Fixed(3)),
        Column::md("p99.9 (ms)", Fmt::Fixed(3)),
        Column::md("max QD", Fmt::Plain),
        Column::flattened(),
    ])
}

fn serve_row(
    table: &mut Table,
    label: &str,
    admission: &AdmissionPolicy,
    overload: f64,
    rep: &FleetReport,
) {
    table.push(row![
        label,
        admission.label(),
        overload,
        rep.issued,
        rep.served,
        rep.rejected,
        rep.shed,
        rep.cancelled,
        rep.latency.percentile(50.0).as_millis_f64(),
        rep.latency.percentile(99.0).as_millis_f64(),
        rep.latency.percentile(99.9).as_millis_f64(),
        rep.server.max_queue_depth,
        rep.to_json_with_clients(4),
    ]);
}

/// The serving-layer fleet benchmark (`BENCH_serve.json`): open- and
/// closed-loop client fleets against every admission policy across a
/// 0.5-8x overload sweep, on a single-log Trail stack. Open-loop cells
/// churn connections mid-run, so the cancel-cascade shows up in the
/// `cancelled` columns. Latency percentiles cover *admitted* (served)
/// requests only — the point of the comparison is that bounded-queue
/// and deadline-shed admission keep the served tail flat at 8x offered
/// load while the unbounded queue diverges.
fn serve_fleet(cfg: &ScenarioConfig) -> ScenarioOutput {
    let per_cell = cfg.scale.unwrap_or(if cfg.quick { 400 } else { 8000 });
    let sessions: u32 = if cfg.quick { 64 } else { 2000 };
    let overloads: &[f64] = if cfg.quick {
        &[0.5, 8.0]
    } else {
        &[0.5, 1.0, 2.0, 4.0, 8.0]
    };
    let modes = [FleetMode::OpenLoop, FleetMode::ClosedLoop];
    let mut report = String::new();
    let _ = writeln!(
        report,
        "== Serving layer — {sessions} sessions, {per_cell} requests per cell, \
         worker pool of 8 over a Trail log, overload {overloads:?} =="
    );
    let mut table = serve_table();
    for (mode_idx, &mode) in modes.iter().enumerate() {
        for &overload in overloads {
            for admission in &SERVE_ADMISSIONS {
                let rep = serve_testbed(
                    "trail,disks=2",
                    *admission,
                    &FleetSpec {
                        // One workload per (mode, overload): the three
                        // admission policies see identical arrivals.
                        seed: cfg.mix(0x5345_5256_4500 + mode_idx as u64),
                        sessions,
                        requests: per_cell,
                        mode,
                        overload,
                        mean_iat: serve_mean_iat(sessions),
                        read_fraction: 0.3,
                        payload_sectors: 2,
                        commit_every: 16,
                        churn: mode == FleetMode::OpenLoop,
                        spatial: SpatialModel::Zipf { skew: 2.0 },
                    },
                );
                serve_row(&mut table, mode.label(), admission, overload, &rep);
            }
        }
    }
    report += &table.markdown();
    ScenarioOutput {
        report,
        json: JsonValue::obj(vec![
            ("bench", JsonValue::str("serve")),
            ("sessions", JsonValue::Num(f64::from(sessions))),
            ("requests_per_cell", JsonValue::Num(per_cell as f64)),
            ("worker_slots", JsonValue::Num(8.0)),
            ("cells", table.json()),
        ]),
    }
}

/// The serving-layer stack sweep (`BENCH_serve_sweep.json`): an open-loop
/// fleet against one Trail log and against a two-log Trail array, x
/// admission policy x overload — what a second log buys the served tail.
fn serve_sweep(cfg: &ScenarioConfig) -> ScenarioOutput {
    let per_cell = cfg.scale.unwrap_or(if cfg.quick { 300 } else { 6000 });
    let sessions: u32 = if cfg.quick { 48 } else { 1000 };
    let overloads: &[f64] = if cfg.quick {
        &[0.5, 8.0]
    } else {
        &[0.5, 1.0, 2.0, 4.0, 8.0]
    };
    let stacks = ["trail,disks=2", "trail_multi2,disks=2"];
    let mut report = String::new();
    let _ = writeln!(
        report,
        "== Serving-layer stack sweep — {sessions} open-loop sessions on one \
         Trail log vs. a 2-log Trail array, {per_cell} requests per cell =="
    );
    let mut table = serve_table();
    for stack in stacks {
        for &overload in overloads {
            for admission in &SERVE_ADMISSIONS {
                let rep = serve_testbed(
                    stack,
                    *admission,
                    &FleetSpec {
                        seed: cfg.mix(0x5345_5256_4557), // same workload per cell
                        sessions,
                        requests: per_cell,
                        mode: FleetMode::OpenLoop,
                        overload,
                        mean_iat: serve_mean_iat(sessions),
                        read_fraction: 0.3,
                        payload_sectors: 2,
                        commit_every: 0,
                        churn: false,
                        spatial: SpatialModel::Zipf { skew: 2.0 },
                    },
                );
                serve_row(&mut table, stack, admission, overload, &rep);
            }
        }
    }
    report += &table.markdown();
    // The artifact groups the cells by stack.
    let series = stacks
        .iter()
        .zip(
            table
                .json_rows()
                .chunks(overloads.len() * SERVE_ADMISSIONS.len()),
        )
        .map(|(stack, cells)| {
            JsonValue::obj(vec![
                ("stack", JsonValue::str(*stack)),
                ("cells", JsonValue::Arr(cells.to_vec())),
            ])
        })
        .collect();
    ScenarioOutput {
        report,
        json: JsonValue::obj(vec![
            ("bench", JsonValue::str("serve_sweep")),
            ("sessions", JsonValue::Num(f64::from(sessions))),
            ("requests_per_cell", JsonValue::Num(per_cell as f64)),
            ("stacks", JsonValue::Arr(series)),
        ]),
    }
}

// ------------------------------------------------------ crash campaign

/// A stack a campaign crashes: its label in the artifact, its spec, and
/// what its cut darkens.
type Crashed = (&'static str, &'static str, FaultTarget);

/// Trail over three raw data disks, cut as a whole system.
const RAW: Crashed = ("raw", "trail", FaultTarget::System);
/// A two-log array over three raw data disks, cut as a whole system.
const MULTI2: Crashed = ("multi2", "trail_multi2", FaultTarget::System);
/// Trail over a five-member RAID-5 volume, cut as a whole system, members
/// included: recovery's replay of the live records heals every stripe the
/// cut tore.
const RAID5: Crashed = ("raid5", "raid5x5_trail,disks=1", FaultTarget::System);

/// The stack `spec` names, seeded, and its seeded burst of `writes`
/// extents at measurement start (the fig4 shape: Trail absorbs the queue,
/// so the active log grows with the burst) of 1–16 sectors at unaligned
/// LBAs in an 8·`writes`-sector window, so they overlap. The window is
/// centred on sector 2048, a region boundary, so on a log array some
/// extents straddle two regions that two logs own.
fn campaign_setup(spec: &str, writes: usize, seed: u64) -> (StackBuilder, Vec<TimedWrite>) {
    let stack = spec
        .parse::<StackBuilder>()
        .expect("a campaign stack")
        .seed(seed);
    let devs = stack.scenario().data_disks;
    let mut rng = trail_sim::rng(seed);
    let window = 8 * writes as u64;
    let burst = (0..writes)
        .map(|_| {
            let dev = rng.gen_range(0..devs);
            let sectors = rng.gen_range(1..=16.min(window));
            let lba = 2048 - window / 2 + rng.gen_range(0..=window - sectors);
            let at = SimDuration::ZERO;
            TimedWrite {
                at,
                dev,
                lba,
                sectors,
            }
        })
        .collect();
    (stack, burst)
}

/// One crash point (virtual time): writes acknowledged and blocks pinned
/// at the cut, whether it fell inside a data-disk write (some of its
/// sectors landed, some not), the reboot's recovery summed over the logs,
/// and the rules the explorer found broken.
#[derive(Clone)]
struct CrashPoint {
    acked: usize,
    pending: usize,
    in_data_write: bool,
    report: RecoveryReport,
    violations: usize,
}

/// Runs one campaign: a fault-free run of the stack's burst enumerates
/// its cut instants, and the explorer crashes, reboots and checks it at
/// every one or at `crash_points` evenly spaced ranks, on the
/// [`parallel_map`] pool — in cut order for any thread count.
fn run_campaign(
    (_, spec, target): Crashed,
    writes: usize,
    crash_points: usize,
    seed: u64,
    threads: usize,
) -> Vec<CrashPoint> {
    let (stack, burst) = campaign_setup(spec, writes, seed);
    let probe = explore::run(&stack, &Level::Block, &burst, &FaultPlan::new());
    assert_eq!(probe.acked, writes, "the probe acknowledges every write");
    let (cuts, n) = (&probe.cuts, crash_points.min(probe.cuts.len()));
    let picked = (0..n)
        .map(|k| cuts[(2 * k + 1) * cuts.len() / (2 * n)])
        .collect();
    parallel_map(picked, threads, |at| {
        let kind = FaultKind::PowerCut;
        let o = explore::run(
            &stack,
            &Level::Block,
            &burst,
            &FaultPlan::new().with(Fault { at, target, kind }),
        );
        CrashPoint {
            acked: o.acked,
            pending: o.pinned,
            in_data_write: (probe.data_writes.iter()).any(|w| w[0] <= at && at < w[w.len() - 1]),
            report: o.recovered.expect("the cut reboots into recovery"),
            violations: o.violations.len(),
        }
    })
}

/// One campaign: its stack's label, burst size and crash points.
type Campaign = (&'static str, usize, Vec<CrashPoint>);

/// The mean of `f` over a campaign's crash points.
fn mean(outcomes: &[CrashPoint], f: impl Fn(&CrashPoint) -> f64) -> f64 {
    outcomes.iter().map(f).sum::<f64>() / outcomes.len() as f64
}

/// The crash campaign's table, one row per campaign.
fn campaign_table(campaigns: &[Campaign]) -> Table {
    let mut table = Table::new(vec![
        Column::both("flavor", "flavor", Fmt::Plain),
        Column::both("Q", "q", Fmt::Plain),
        Column::both("crash points", "crash_points", Fmt::Plain),
        Column::both("violations", "violations", Fmt::Plain).markdown_last(),
        Column::both("torn records", "torn_record_points", Fmt::Plain),
        Column::both(
            "cuts in data writes",
            "cut_in_data_write_points",
            Fmt::Plain,
        ),
        Column::both("mean acked", "mean_acked", Fmt::Fixed(1)),
        Column::both("mean pending", "mean_pending", Fmt::Fixed(1)),
        Column::both(
            "mean active log sectors",
            "mean_active_log_sectors",
            Fmt::Fixed(1),
        ),
        Column::json("mean_log_head_span"),
        Column::json("mean_records"),
        Column::json("mean_sectors_replayed"),
        Column::both("locate (ms)", "mean_locate_ms", Fmt::Fixed(1)),
        Column::both("rebuild (ms)", "mean_rebuild_ms", Fmt::Fixed(1)),
        Column::both("write-back (ms)", "mean_writeback_ms", Fmt::Fixed(1)),
        Column::both("total mean (ms)", "mean_total_ms", Fmt::Fixed(1)),
        Column::both("total max (ms)", "max_total_ms", Fmt::Fixed(1)),
    ]);
    for (label, q, o) in campaigns {
        let total_ms = |o: &CrashPoint| o.report.total_time().as_millis_f64();
        table.push(row![
            *label,
            *q,
            o.len(),
            o.iter().map(|o| o.violations).sum::<usize>(),
            o.iter()
                .filter(|o| o.report.torn_records_dropped > 0)
                .count(),
            o.iter().filter(|o| o.in_data_write).count(),
            mean(o, |o| o.acked as f64),
            mean(o, |o| o.pending as f64),
            mean(o, |o| o.report.active_log_sectors as f64),
            mean(o, |o| o.report.log_head_span as f64),
            mean(o, |o| o.report.records_found as f64),
            mean(o, |o| o.report.sectors_replayed as f64),
            mean(o, |o| o.report.locate_time.as_millis_f64()),
            mean(o, |o| o.report.rebuild_time.as_millis_f64()),
            mean(o, |o| o.report.writeback_time.as_millis_f64()),
            mean(o, total_ms),
            o.iter().map(total_ms).fold(0.0, f64::max),
        ]);
    }
    table
}

fn crash_campaign(cfg: &ScenarioConfig) -> ScenarioOutput {
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    // The raw-disk flavor carries the recovery-time-vs-log-size curve;
    // the RAID-5 flavor adds the parity-invariant fan at a coarser grid.
    // Both crash at evenly spaced ranks of the enumerated cut list.
    let raw_qs: &[usize] = if cfg.quick {
        &[16, 32]
    } else {
        &[32, 64, 128, 256]
    };
    let raw_points = cfg.scale.unwrap_or(if cfg.quick { 24 } else { 64 });
    let raid_qs: &[usize] = if cfg.quick { &[16] } else { &[32, 64] };
    let raid_points = (raw_points / 3 * 2).max(4);
    let seed = |q: usize| cfg.mix(0x0043_5241_5348 + q as u64);
    let campaign = |stack: Crashed, q: usize, points: usize| {
        (stack.0, q, run_campaign(stack, q, points, seed(q), threads))
    };
    let curve: Vec<Campaign> = raw_qs
        .iter()
        .map(|&q| campaign(RAW, q, raw_points))
        .collect();
    let raid: Vec<Campaign> = raid_qs
        .iter()
        .map(|&q| campaign(RAID5, q, raid_points))
        .collect();
    // The exhaustive section: every enumerated cut of one small burst per
    // stack, its size and seed fixed so that its extents overlap and some
    // cut tears a record and some falls inside a data-disk write.
    let exhaustive = [(RAW, 3), (MULTI2, 6), (RAID5, 2)].map(|(stack, q)| {
        let seed = 0x0043_5241_5348 + q as u64;
        let o = run_campaign(stack, q, usize::MAX, seed, threads);
        assert!(
            o.iter().any(|o| o.report.torn_records_dropped > 0)
                && o.iter().any(|o| o.in_data_write),
            "the {} burst must tear a record and cut inside a data write",
            stack.0
        );
        let (builder, burst) = campaign_setup(stack.1, q, seed);
        let owner = |dev, lba| owning_log(builder.scenario().shape.front.logs(), dev, lba);
        let split = |w: &TimedWrite| owner(w.dev, w.lba) != owner(w.dev, w.lba + w.sectors - 1);
        assert!(
            stack.0 != MULTI2.0 || burst.iter().any(split),
            "the multi2 burst must split an extent across its logs"
        );
        (stack.0, q, o)
    });

    let sampled = campaign_table(&[curve.as_slice(), &raid].concat());
    let enumerated = campaign_table(&exhaustive);
    let mut report = String::new();
    let _ = writeln!(
        report,
        "== Crash campaign — recovery time vs. log size over the fault plane =="
    );
    report += &sampled.markdown();
    let _ = writeln!(
        report,
        "\n== Exhaustive — every cut of a small burst that tears a record and cuts inside a data write =="
    );
    report += &enumerated.markdown();

    let all = || curve.iter().chain(&raid).chain(&exhaustive);
    let total_points: usize = all().map(|(_, _, o)| o.len()).sum();
    let violations: usize = all().flat_map(|(_, _, o)| o).map(|o| o.violations).sum();
    assert_eq!(
        violations, 0,
        "crash campaign found durability-contract violations"
    );
    // The headline claim: recovery cost scales with the active log, so
    // the curve over Q must be monotone in both the log-size witness and
    // the recovery time.
    for ((_, qa, a), (_, qb, b)) in curve.iter().zip(&curve[1..]) {
        let replayed = |o: &CrashPoint| o.report.sectors_replayed as f64;
        let total = |o: &CrashPoint| o.report.total_time().as_millis_f64();
        assert!(
            mean(b, replayed) >= mean(a, replayed),
            "write-back volume must grow with Q"
        );
        let (ta, tb) = (mean(a, total), mean(b, total));
        assert!(
            tb >= ta,
            "recovery time must grow with Q (Q={qa} {ta:.3} ms -> Q={qb} {tb:.3} ms)"
        );
    }
    let _ = writeln!(report);
    let _ = writeln!(
        report,
        "{total_points} crash points, {violations} violations; after recovery every sector held \
         its newest acknowledged write or a later one,"
    );
    let _ = writeln!(
        report,
        "and every RAID-5 stripe the workload touched XORs to zero across the members."
    );
    let mut curve_rows = sampled.json_rows();
    let raid_rows = curve_rows.split_off(curve.len());
    let exhaustive_rows = exhaustive
        .iter()
        .zip(enumerated.json_rows())
        .map(|((label, _, _), row)| (*label, row))
        .collect();
    ScenarioOutput {
        report,
        json: JsonValue::obj(vec![
            ("bench", JsonValue::str("crash_campaign")),
            ("crash_points_total", JsonValue::Num(total_points as f64)),
            ("violations", JsonValue::Num(violations as f64)),
            ("curve", JsonValue::Arr(curve_rows)),
            ("raid5", JsonValue::Arr(raid_rows)),
            ("exhaustive", JsonValue::obj(exhaustive_rows)),
        ]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_is_deterministic_across_thread_counts() {
        for stack in [RAW, MULTI2] {
            let [a, b] = [1, 4].map(|threads| run_campaign(stack, 8, 5, 7, threads));
            assert_eq!(a.len(), 5);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(
                    (x.acked, x.pending, x.in_data_write),
                    (y.acked, y.pending, y.in_data_write)
                );
                assert_eq!(x.report.total_time(), y.report.total_time());
                assert_eq!((x.violations, y.violations), (0, 0));
            }
        }
    }

    #[test]
    fn raid5_campaign_holds_the_parity_invariant() {
        // Every enumerated whole-system cut of a burst on a five-member
        // array: the explorer's redundancy rule counts a touched stripe
        // that does not XOR to zero after recovery as a violation.
        let points = run_campaign(RAID5, 8, usize::MAX, 11, 2);
        assert!(points.len() >= 30, "{} cuts", points.len());
        assert!(points.iter().any(|p| p.in_data_write));
        assert!(points.iter().all(|p| p.violations == 0));
    }
}
