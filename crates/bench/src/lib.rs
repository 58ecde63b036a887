//! # trail-bench: shared harness code for the paper's experiments
//!
//! `trail-bench <scenario>` regenerates one table or figure of the paper
//! and `trail-bench all` regenerates every one (see `DESIGN.md` §3 for the
//! index and `EXPERIMENTS.md` for paper-vs-measured results). This library
//! holds the scenario registry and the setups the scenarios share:
//! building the two storage stacks over the paper's drive complement, the
//! synchronous-write workload generators of §5.1, and the TPC-C rig of
//! §5.2.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::rc::Rc;

use trail_blockio::IoDone;
use trail_core::{TrailConfig, TrailDriver};
use trail_db::{BlockStack, Database, DbConfig, FlushPolicy};
use trail_disk::{Disk, SECTOR_SIZE};
use trail_sim::{Delivered, LatencySummary, SimDuration, Simulator};
use trail_telemetry::RecorderHandle;
use trail_tpcc::{populate, CpuModel, Scale, Workload};

pub mod campaign;
pub mod report;
pub mod runner;
pub mod scenarios;
pub use campaign::{run_campaign, CampaignFlavor, CampaignSpec, CrashPointOutcome};
pub use report::{media_line, open_trace, shard_count, vm_hwm, write_bench_json_in, Args};
pub use runner::{parallel_map, run_all_scenarios, RunAllOptions, RunAllSummary};
pub use scenarios::{
    all_scenarios, replay_stream_json, run_scenario, ScenarioConfig, ScenarioOutput, ScenarioSpec,
};

/// The paper's testbed: one ST41601N-class SCSI log disk and three
/// WD-Caviar-class IDE data disks.
pub struct Testbed {
    /// The simulator (virtual time).
    pub sim: Simulator,
    /// The Trail driver fronting the three data disks.
    pub trail: TrailDriver,
    /// The data disks, in device order.
    pub data_disks: Vec<Disk>,
    /// The Trail log disk.
    pub log_disk: Disk,
}

/// Builds the testbed with a freshly formatted log disk and a running
/// Trail driver; `recorder`, when given, is attached to the whole stack
/// (after the format/boot noise, so traces start clean).
///
/// # Panics
///
/// Panics if formatting or boot fails (a harness bug).
pub fn testbed(config: TrailConfig, recorder: Option<RecorderHandle>) -> Testbed {
    // The builder's default scenario *is* the paper's testbed; it also
    // resets the format/boot noise so measurements start clean.
    let built = trail::StackBuilder::new()
        .trail(config)
        .build()
        .expect("boot Trail");
    let trail = built.trail.expect("Trail scenario has a driver");
    if let Some(r) = recorder {
        trail.set_recorder(r);
    }
    Testbed {
        sim: built.sim,
        trail,
        data_disks: built.data_disks,
        log_disk: built.log_disk.expect("Trail scenario has a log disk"),
    }
}

/// The §5.1 workload arrival modes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArrivalMode {
    /// A new request arrives immediately after the previous one's log-disk
    /// write completes (back to back).
    Clustered,
    /// A new request arrives `gap` after the previous one completes, where
    /// `gap` exceeds the repositioning overhead (the paper uses ~1.5 ms+).
    Sparse {
        /// The idle gap between completion and the next arrival.
        gap: SimDuration,
    },
}

/// Result of one synchronous-write latency measurement.
#[derive(Clone, Debug)]
pub struct SyncWriteResult {
    /// Per-request latencies.
    pub latency: LatencySummary,
}

/// Runs the §5.1 synchronous-write workload against Trail: `procs`
/// concurrent writers each issue `writes_per_proc` random-target writes of
/// `size_bytes`, in the given arrival mode. `recorder`, when given, is
/// attached to the Trail stack for the duration of the run.
pub fn sync_writes_trail(
    config: TrailConfig,
    procs: usize,
    writes_per_proc: usize,
    size_bytes: usize,
    mode: ArrivalMode,
    seed: u64,
    recorder: Option<RecorderHandle>,
) -> SyncWriteResult {
    let builder = trail::StackBuilder::new().trail(config);
    sync_writes(
        builder,
        procs,
        writes_per_proc,
        size_bytes,
        mode,
        seed,
        recorder,
    )
}

/// Runs the §5.1 synchronous-write workload against the standard disk
/// subsystem (writes pay full seek + rotation at their random targets).
/// `recorder`, when given, is attached to the baseline driver (and its
/// disk) for the duration of the run.
pub fn sync_writes_standard(
    procs: usize,
    writes_per_proc: usize,
    size_bytes: usize,
    mode: ArrivalMode,
    seed: u64,
    recorder: Option<RecorderHandle>,
) -> SyncWriteResult {
    let builder = trail::StackBuilder::new().data_disks(1).standard();
    sync_writes(
        builder,
        procs,
        writes_per_proc,
        size_bytes,
        mode,
        seed,
        recorder,
    )
}

fn sync_writes(
    builder: trail::StackBuilder,
    procs: usize,
    writes_per_proc: usize,
    size_bytes: usize,
    mode: ArrivalMode,
    seed: u64,
    recorder: Option<RecorderHandle>,
) -> SyncWriteResult {
    let mut built = builder.build().expect("boot the stack");
    if let Some(r) = recorder {
        built.stack.set_recorder(r);
    }
    let lat = Rc::new(RefCell::new(LatencySummary::new()));
    let capacity = built.data_disks[0].geometry().total_sectors() - 1024;
    for p in 0..procs {
        spawn_writer(
            &mut built.sim,
            Rc::clone(&built.stack),
            Rc::clone(&lat),
            WriterParams {
                remaining: writes_per_proc,
                size_bytes,
                mode,
                seed: seed ^ (p as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                capacity,
            },
        );
    }
    built.sim.run();
    assert_eq!(built.stack.pending_work(), 0, "stack drained");
    let latency = lat.borrow().clone();
    SyncWriteResult { latency }
}

struct WriterParams {
    remaining: usize,
    size_bytes: usize,
    mode: ArrivalMode,
    seed: u64,
    capacity: u64,
}

/// One closed-loop writer: a random-target write to device 0, the next
/// one issued when (or `gap` after) it is acknowledged.
fn spawn_writer(
    sim: &mut Simulator,
    stack: Rc<dyn BlockStack>,
    lat: Rc<RefCell<LatencySummary>>,
    params: WriterParams,
) {
    use rand::Rng;
    if params.remaining == 0 {
        return;
    }
    let mut rng = trail_sim::rng(params.seed);
    let sectors = params.size_bytes.div_ceil(SECTOR_SIZE).max(1);
    let lba = rng.gen_range(0..params.capacity - sectors as u64);
    let data = vec![rng.gen::<u8>(); sectors * SECTOR_SIZE];
    let next = WriterParams {
        remaining: params.remaining - 1,
        seed: rng.gen(),
        ..params
    };
    let respawn = Rc::clone(&stack);
    let done = sim.completion(move |sim: &mut Simulator, del: Delivered<IoDone>| {
        let Ok(done) = del else { return };
        lat.borrow_mut().record(done.latency());
        match next.mode {
            ArrivalMode::Clustered => spawn_writer(sim, respawn, lat, next),
            ArrivalMode::Sparse { gap } => {
                sim.schedule_in(gap, move |sim| spawn_writer(sim, respawn, lat, next));
            }
        }
    });
    stack
        .write(sim, 0, lba, data, done)
        .expect("write accepted");
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
    /// The Trail driver, when the rig runs on Trail.
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
    let builder = trail::StackBuilder::new();
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
        trail: built.trail,
        stack: built.stack,
    }
}
