//! # trail-bench: shared harness code for the paper's experiments
//!
//! `trail-bench <scenario>` regenerates one table or figure of the paper
//! and `trail-bench all` regenerates every one (see `DESIGN.md` §3 for the
//! index and `EXPERIMENTS.md` for paper-vs-measured results). This library
//! holds the scenario registry and the setups the scenarios share:
//! building a stack with a telemetry recorder attached, the §5.1
//! synchronous-write workload (driven by [`trail::BuiltStack::drive`]),
//! and the TPC-C rig of §5.2 with its workload capture
//! ([`capture_tpcc`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::rc::Rc;

use trail::drive::Write;
use trail::{BuiltStack, StackBuilder};
use trail_core::BlockStack;
use trail_core::TrailDriver;
use trail_db::{Database, DbConfig, FlushPolicy};
use trail_disk::{profiles, SECTOR_SIZE};
use trail_sim::Simulator;
use trail_telemetry::RecorderHandle;
use trail_tpcc::{populate, run, ChainOn, CpuModel, RunConfig, Scale, TpccReport, Workload};
use trail_trace::{Trace, TraceCapture, TraceMeta};

pub mod report;
pub mod runner;
pub mod scenarios;
pub use report::{media_line, shard_count, vm_hwm, write_bench_json_in, Args};
pub use runner::{parallel_map, run_all_scenarios, RunAllOptions, RunAllSummary};
pub use scenarios::{all_scenarios, ScenarioConfig, ScenarioOutput, ScenarioSpec};

/// Builds `builder`'s stack and attaches `recorder`, when given, to the
/// whole stack (after the format/boot noise, so traces start clean).
///
/// # Panics
///
/// Panics if formatting or boot fails (a harness bug).
pub fn build_stack(builder: StackBuilder, recorder: Option<RecorderHandle>) -> BuiltStack {
    let built = builder.build().expect("boot the stack");
    if let Some(r) = recorder {
        built.stack.set_recorder(r);
    }
    built
}

/// The §5.1 synchronous-write workload: `procs` writers, each of
/// `per_proc` writes of `size_bytes` to device 0 at random targets below
/// the last 1 024 sectors of the paper's data disk. Writer `p` draws from
/// `seed` mixed with `p`, and each write reseeds the next.
pub fn random_writers(
    procs: usize,
    per_proc: usize,
    size_bytes: usize,
    seed: u64,
) -> Vec<Vec<Write>> {
    use rand::Rng;
    let capacity = profiles::wd_caviar_10gb().geometry.total_sectors() - 1024;
    let sectors = size_bytes.div_ceil(SECTOR_SIZE).max(1);
    (0..procs)
        .map(|p| {
            let mut seed = seed ^ (p as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (0..per_proc)
                .map(|_| {
                    let mut rng = trail_sim::rng(seed);
                    let lba = rng.gen_range(0..capacity - sectors as u64);
                    let data = vec![rng.gen::<u8>(); sectors * SECTOR_SIZE];
                    seed = rng.gen();
                    Write { dev: 0, lba, data }
                })
                .collect()
        })
        .collect()
}

/// TPC-C rig configuration shared by the Table 2/3 and track-utilization
/// harnesses. Everything else about the rig is the paper's configuration,
/// fixed in [`tpcc_setup`]: warehouse-1 scale, an 8 000-page buffer pool
/// (the paper's 300 MB, scaled to keep the same cache:database ratio; see
/// `EXPERIMENTS.md`) and 8-KB log-force writes.
#[derive(Clone, Debug)]
pub struct TpccRig {
    /// The flush policy.
    pub policy: FlushPolicy,
    /// Workload RNG seed.
    pub seed: u64,
}

impl Default for TpccRig {
    fn default() -> Self {
        TpccRig {
            policy: FlushPolicy::EveryCommit,
            seed: 20020623,
        }
    }
}

/// A TPC-C-ready database plus the simulator driving it.
pub struct TpccSetup {
    /// The simulator.
    pub sim: Simulator,
    /// The populated, cache-warmed engine.
    pub db: Database,
    /// The workload generator, order counters initialized to match the
    /// population.
    pub workload: Workload,
    /// The Trail driver of the rig's one log, when the rig runs on Trail.
    pub trail: Option<TrailDriver>,
    /// The block stack under the engine — for installing a workload
    /// capture tap ([`trail_blockio::SubmitTap`]) before a run.
    pub stack: Rc<dyn BlockStack>,
}

/// Builds a TPC-C database over Trail (`trail = true`) or the standard
/// stack, populates it (untimed), places the images on the simulated
/// disks, and warms the cache. `recorder`, when given, is attached through
/// the database engine to the whole storage stack (after population, so
/// the untimed bulk load does not pollute the trace).
pub fn tpcc_setup(trail: bool, rig: &TpccRig, recorder: Option<RecorderHandle>) -> TpccSetup {
    let scale = Scale::standard_w1();
    let db_config = DbConfig {
        cache_pages: 8_000,
        flush_policy: rig.policy,
        log_dev: 0,
        log_region_start: 64,
        // The dedicated 10-GB log disk gives the WAL millions of sectors;
        // 2 M sectors ≈ 1 GB covers any run here without wrapping.
        log_region_sectors: 2_000_000,
        flush_write_bytes: 8 * 1024,
        table_devices: vec![1, 2],
        // The paper's 300-MB cache absorbed all checkpoint pressure over
        // 5000-transaction runs; dirty pages leave via eviction only.
        dirty_high_watermark: usize::MAX / 2,
        flush_batch: 16,
        log_before_images: true,
        // The paper's testbed has a single 300-MHz Pentium II: concurrent
        // transactions' CPU bursts serialize, which is what compresses
        // commits into the bursts that drive §5.2's utilization numbers.
        single_cpu: true,
    };
    // The builder's default is the paper's three data disks.
    let builder = StackBuilder::new();
    let built = if trail {
        builder.trail_default().build()
    } else {
        builder.standard().build()
    }
    .expect("boot the stack");
    let disks = &built.data_disks;
    let db = built.database(db_config);
    let images = populate(&db, &scale);
    for (pid, bytes) in &images {
        let disk = &disks[pid.dev as usize];
        for (i, chunk) in bytes.chunks(SECTOR_SIZE).enumerate() {
            let mut sector = [0u8; SECTOR_SIZE];
            sector[..chunk.len()].copy_from_slice(chunk);
            disk.poke_sector(pid.first_lba() + i as u64, &sector);
        }
    }
    // Warm the cache with the most reuse-prone tables first (warehouse,
    // district, customer, stock), standing in for the paper's 200 000
    // warm-up transactions.
    let mut ordered: Vec<_> = images.iter().collect();
    ordered.sort_by_key(|(pid, _)| (pid.dev, pid.page_no));
    for (pid, bytes) in ordered {
        db.warm(*pid, bytes);
    }
    if let Some(r) = recorder {
        db.set_recorder(r);
    }
    let workload = Workload::new(scale, rig.seed, CpuModel::default());
    TpccSetup {
        sim: built.sim,
        db,
        workload,
        trail: built.multi.map(|m| m.drivers()[0].clone()),
        stack: built.stack,
    }
}

/// Captures the offered block-level workload of a TPC-C run: `txns`
/// transactions at concurrency 4 over Trail (`trail = true`) or the
/// standard stack, with a capture tap on the stack front. Returns the
/// trace under `meta`, rebased to its first request, and the run's report.
pub fn capture_tpcc(
    trail: bool,
    rig: &TpccRig,
    txns: usize,
    meta: TraceMeta,
) -> (Trace, TpccReport) {
    let mut setup = tpcc_setup(trail, rig, None);
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
    let mut trace = capture.take(meta);
    trace.rebase_to_first();
    (trace, report)
}
