//! End-to-end TPC-C runs at test scale: the Table 2/3 shapes must already
//! be visible in miniature.

use std::collections::HashMap;
use std::rc::Rc;

use trail_core::StandardStack;
use trail_core::{format_log_disk, FormatOptions, MultiTrail, TrailConfig};
use trail_db::{Database, DbConfig, FlushPolicy};
use trail_disk::{profiles, Disk, ImagePool, SECTOR_SIZE};
use trail_sim::{SimDuration, Simulator};
use trail_tpcc::{populate, run, ChainOn, CpuModel, RunConfig, Scale, TpccReport, Workload};

const LOG_DEV: usize = 0;
const LOG_REGION_START: u64 = 64;
const LOG_REGION_SECTORS: u64 = 60_000;

fn db_config(policy: FlushPolicy) -> DbConfig {
    DbConfig {
        // Large enough that the ~35-page working set mostly fits, as the
        // paper's 300-MB cache did after warm-up; dirty evictions still
        // happen but do not flood Trail's log disk the way a tiny cache
        // would (cache pressure is exercised at full scale in the bench).
        cache_pages: 48,
        flush_policy: policy,
        log_dev: LOG_DEV,
        log_region_start: LOG_REGION_START,
        log_region_sectors: LOG_REGION_SECTORS,
        flush_write_bytes: 8 * 1024,
        table_devices: vec![1, 2],
        // The paper's 300-MB cache never hit checkpoint pressure during a
        // 5000-txn run; dirty pages leave only via eviction. Mirror that.
        dirty_high_watermark: 10_000,
        flush_batch: 8,
        log_before_images: true,
        single_cpu: false,
    }
}

/// Builds devices, populates, warms, runs. `trail` selects the stack.
fn run_tpcc(
    trail: bool,
    policy: FlushPolicy,
    chain: ChainOn,
    txns: usize,
    conc: usize,
) -> TpccReport {
    let (mut sim, db, _) = boot(trail, db_config(policy));
    run_on(&mut sim, &db, chain, txns, conc)
}

/// A populated, warmed database under `config`, on Trail or on the
/// standard stack, with the one image pool its disks share.
fn boot(trail: bool, config: DbConfig) -> (Simulator, Database, ImagePool) {
    let mut sim = Simulator::new();
    let pool = ImagePool::new();
    let disks: Vec<Disk> = (0..3)
        .map(|i| Disk::in_pool(format!("d{i}"), profiles::wd_caviar_10gb(), &pool))
        .collect();
    let db = if trail {
        let log = Disk::in_pool("trail-log", profiles::seagate_st41601n(), &pool);
        format_log_disk(&mut sim, &log, FormatOptions::default()).unwrap();
        let (trail, _) =
            MultiTrail::start(&mut sim, vec![log], disks.clone(), TrailConfig::default()).unwrap();
        Database::new(Rc::new(trail), config)
    } else {
        Database::new(Rc::new(StandardStack::new(disks.clone())), config)
    };
    let images = populate(&db, &Scale::tiny());
    let by_dev: HashMap<usize, &Disk> = disks.iter().enumerate().collect();
    for (pid, bytes) in &images {
        let disk = by_dev[&(pid.dev as usize)];
        for (i, chunk) in bytes.chunks(SECTOR_SIZE).enumerate() {
            let mut sector = [0u8; SECTOR_SIZE];
            sector.copy_from_slice(chunk);
            disk.poke_sector(pid.first_lba() + i as u64, &sector);
        }
        db.warm(*pid, bytes);
    }
    (sim, db, pool)
}

/// Runs `txns` transactions from `conc` terminals.
fn run_on(
    sim: &mut Simulator,
    db: &Database,
    chain: ChainOn,
    txns: usize,
    conc: usize,
) -> TpccReport {
    let workload = Workload::new(Scale::tiny(), 42, CpuModel::default());
    run(
        sim,
        db,
        workload,
        RunConfig {
            transactions: txns,
            concurrency: conc,
            chain_on: chain,
        },
    )
}

#[test]
fn the_engine_splits_every_response_exactly() {
    // One CPU shared by four terminals makes bursts queue, and a cache
    // smaller than the working set makes transactions wait on page reads.
    let config = DbConfig {
        cache_pages: 12,
        single_cpu: true,
        ..db_config(FlushPolicy::EveryCommit)
    };
    let (mut sim, db, _) = boot(true, config);
    let report = run_on(&mut sim, &db, ChainOn::Durable, 200, 4);
    let responses = report
        .response
        .iter()
        .fold(SimDuration::ZERO, |sum, &r| sum + r);
    let stats = db.with_stats(Clone::clone);
    assert_eq!(stats.committed, 200);
    let parts = [
        stats.cpu_queue_wait,
        stats.cpu,
        stats.page_read_wait,
        stats.commit_wait,
    ];
    assert!(
        parts.iter().all(|&p| p > SimDuration::ZERO),
        "every part shows: {parts:?}"
    );
    assert_eq!(
        parts.iter().fold(SimDuration::ZERO, |sum, &p| sum + p),
        responses,
        "queue + cpu + page reads + commit = response, to the nanosecond"
    );
}

#[test]
fn most_whole_images_of_a_run_are_packed() {
    // Rows are a fill between key stamps, and WAL records are rows and
    // their headers: of the sectors the pool keeps neither short nor as
    // an alias, most are runs of equal words, which pack into a quarter
    // of a slot (1 452 of 2 068 here; three in five is the floor).
    let (mut sim, db, pool) = boot(true, db_config(FlushPolicy::EveryCommit));
    run_on(&mut sim, &db, ChainOn::Durable, 200, 4);
    let stats = pool.stats();
    let whole = stats.distinct_sectors - stats.short_images - stats.alias_images;
    assert!(
        stats.packed_images * 5 > whole * 3,
        "{} of {whole} whole images packed",
        stats.packed_images
    );
}

#[test]
fn table2_shape_trail_beats_gc_beats_plain() {
    let trail = run_tpcc(true, FlushPolicy::EveryCommit, ChainOn::Durable, 150, 1);
    let plain = run_tpcc(false, FlushPolicy::EveryCommit, ChainOn::Durable, 150, 1);
    let gc = run_tpcc(
        false,
        FlushPolicy::GroupCommit {
            buffer_bytes: 50 * 1024,
        },
        ChainOn::Control,
        150,
        1,
    );
    assert_eq!(trail.transactions, 150);
    assert_eq!(plain.transactions, 150);
    assert_eq!(gc.transactions, 150);

    // Throughput: Trail beats both baselines clearly (Table 2's tpmC row;
    // the GC-vs-plain gap is only ~8 % in the paper and is below noise at
    // this miniature scale — the full-scale bench reports it).
    assert!(
        trail.tpmc > gc.tpmc && trail.tpmc > plain.tpmc * 1.2,
        "tpmC ordering violated: trail {:.0}, gc {:.0}, plain {:.0}",
        trail.tpmc,
        gc.tpmc,
        plain.tpmc
    );
    // Response time: Trail < plain < GC (GC delays commits to fill groups).
    let (t_ms, p_ms, g_ms) = (
        trail.mean_response().as_millis_f64(),
        plain.mean_response().as_millis_f64(),
        gc.mean_response().as_millis_f64(),
    );
    assert!(
        t_ms < p_ms && p_ms < g_ms,
        "response ordering violated: trail {t_ms:.1} ms, plain {p_ms:.1} ms, gc {g_ms:.1} ms"
    );
    // Logging I/O time: Trail far below both baselines (Table 2's middle
    // row; the paper's 42 % reduction versus plain must hold with margin).
    let (t_log, p_log, g_log) = (
        trail.logging_io_time.as_secs_f64(),
        plain.logging_io_time.as_secs_f64(),
        gc.logging_io_time.as_secs_f64(),
    );
    // At this miniature scale Trail's WAL flushes share the log disk with
    // an eviction-writeback stream far heavier (relative to commits) than
    // the paper's big-cache setup ever produced, so demand a clear win
    // rather than the paper's full 42 % margin (the full-scale bench
    // reports the calibrated numbers).
    assert!(
        t_log < 0.8 * g_log && t_log < 0.8 * p_log,
        "logging I/O ordering violated: trail {t_log:.2} s, gc {g_log:.2} s, plain {p_log:.2} s"
    );
    // Group commit batches forces; Trail/plain force every commit.
    assert!(gc.group_commits < plain.group_commits / 2);
}

#[test]
fn table3_shape_group_commits_fall_with_buffer_size() {
    let counts: Vec<u64> = [1usize, 8, 64]
        .iter()
        .map(|&kb| {
            let report = run_tpcc(
                false,
                FlushPolicy::GroupCommit {
                    buffer_bytes: kb * 1024,
                },
                ChainOn::Control,
                120,
                4,
            );
            assert_eq!(report.transactions, 120);
            report.group_commits
        })
        .collect();
    assert!(
        counts.windows(2).all(|w| w[0] >= w[1]),
        "group commits must not rise with the buffer: {counts:?}"
    );
    assert!(
        counts[2] * 2 < counts[0],
        "a 64x larger buffer must at least halve the forces: {counts:?}"
    );
}

#[test]
fn concurrency_increases_trail_track_utilization() {
    // §5.2: bursty concurrent commits batch more payload per record, so
    // per-track utilization rises with concurrency.
    let util_at = |conc: usize| -> f64 {
        let mut sim = Simulator::new();
        let disks: Vec<Disk> = (0..3)
            .map(|i| Disk::new(format!("d{i}"), profiles::wd_caviar_10gb()))
            .collect();
        let log = Disk::new("trail-log", profiles::seagate_st41601n());
        format_log_disk(&mut sim, &log, FormatOptions::default()).unwrap();
        let (trail, _) =
            MultiTrail::start(&mut sim, vec![log], disks.clone(), TrailConfig::default()).unwrap();
        let drv = trail.drivers()[0].clone();
        let db = Database::new(Rc::new(trail), db_config(FlushPolicy::EveryCommit));
        let scale = Scale::tiny();
        let images = populate(&db, &scale);
        for (pid, bytes) in &images {
            let disk = &disks[pid.dev as usize];
            for (i, chunk) in bytes.chunks(SECTOR_SIZE).enumerate() {
                let mut sector = [0u8; SECTOR_SIZE];
                sector.copy_from_slice(chunk);
                disk.poke_sector(pid.first_lba() + i as u64, &sector);
            }
            db.warm(*pid, bytes);
        }
        let workload = Workload::new(scale, 4242, CpuModel::default());
        run(
            &mut sim,
            &db,
            workload,
            RunConfig {
                transactions: 100,
                concurrency: conc,
                chain_on: ChainOn::Durable,
            },
        );
        drv.with_stats(|s| {
            if s.track_utilization.is_empty() {
                0.0
            } else {
                s.track_utilization.iter().sum::<f64>() / s.track_utilization.len() as f64
            }
        })
    };
    let low = util_at(1);
    let high = util_at(8);
    assert!(
        high > low,
        "utilization should rise with concurrency: c=1 -> {low:.3}, c=8 -> {high:.3}"
    );
}
