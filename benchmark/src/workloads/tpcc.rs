//! `tpcc` — the paper's §5.2 case: `db` and `tpcc` dominate, and events per
//! operation are the highest of any workload.
//!
//! TPC-C w = 1 on `trail-db` over Trail with the Table-2 rig (8 000 cache
//! pages, a log force on every commit, 8 KB force granularity), four
//! terminals chained on durability. The rig is this file's own copy, so
//! the benchmark does not move when `trail-bench` is shrunk. The database
//! fits the cache: `BufferPool` under memory pressure is not covered.

use trail::StackBuilder;
use trail_db::{DbConfig, FlushPolicy};
use trail_disk::SECTOR_SIZE;
use trail_tpcc::{populate, ChainOn, CpuModel, RunConfig, Scale, Workload};

use crate::layers;
use crate::report::{measure, put, ratio, Ctx, Outcome};
use crate::stats::{sub_seed, Samples};

const TRANSACTIONS: usize = 30_000;
const TERMINALS: usize = 4;

/// The paper's Table-2 engine configuration.
fn rig() -> DbConfig {
    DbConfig {
        cache_pages: 8_000,
        flush_policy: FlushPolicy::EveryCommit,
        log_dev: 0,
        log_region_start: 64,
        // ~1 GB of WAL: no run here wraps it.
        log_region_sectors: 2_000_000,
        flush_write_bytes: 8 * 1024,
        table_devices: vec![1, 2],
        // The paper's 300 MB cache absorbed all checkpoint pressure; dirty
        // pages leave by eviction only.
        dirty_high_watermark: usize::MAX / 2,
        flush_batch: 16,
        log_before_images: true,
        // One 300 MHz Pentium II: concurrent CPU bursts serialize.
        single_cpu: true,
    }
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let transactions = ctx.sized(TRANSACTIONS, 4 * TERMINALS);
    let seed = ctx.seed;
    let recorder = ctx.recorder_handle();
    let mut out = Outcome::default();
    let scale = Scale::standard_w1();

    let (built, build_s) = ctx.spans.timed("stack.build", |_| {
        StackBuilder::new()
            .seed(seed)
            .data_disks(3)
            .trail_default()
            .build()
            .expect("Trail testbed boots")
    });
    layers::stack(&mut out.layers, build_s, built.sim.now());
    let db = built.database(rig());
    ctx.spans.scope("tpcc.populate", |_| {
        // Untimed "restore from backup": place the images on the simulated
        // disks and warm the cache, standing in for the paper's 200 000
        // warm-up transactions.
        let mut images = populate(&db, &scale);
        for (pid, bytes) in &images {
            let disk = &built.data_disks[usize::from(pid.dev)];
            for (i, chunk) in bytes.chunks(SECTOR_SIZE).enumerate() {
                let mut sector = [0u8; SECTOR_SIZE];
                sector[..chunk.len()].copy_from_slice(chunk);
                disk.poke_sector(pid.first_lba() + i as u64, &sector);
            }
        }
        images.sort_by_key(|(pid, _)| (pid.dev, pid.page_no));
        for (pid, bytes) in &images {
            db.warm(*pid, bytes);
        }
    });
    // After population, so the bulk load does not pollute the trace.
    if let Some(r) = recorder {
        db.set_recorder(r);
    }
    let workload = Workload::new(scale, sub_seed(seed, 0), CpuModel::default());
    let mut sim = built.sim;
    let cache_before = db.cache_stats();
    let wal_before = db.wal_stats();
    let reads_before = db.with_stats(|s| s.page_reads);
    let started = sim.now();

    out.setup_s = ctx.setup_s();
    let (report, phase) = measure(&mut ctx.spans, "tpcc.run", |_| {
        trail_tpcc::run(
            &mut sim,
            &db,
            workload,
            RunConfig {
                transactions,
                concurrency: TERMINALS,
                chain_on: ChainOn::Durable,
            },
        )
    });
    out.run = phase;

    out.attempted = transactions as u64;
    out.ops = out.attempted;
    out.failed = out.attempted.saturating_sub(report.transactions);
    if report.transactions != out.attempted {
        out.violations.push(format!(
            "tpcc: {} transactions durable, {} requested",
            report.transactions, out.attempted
        ));
    }
    let mut latencies = Samples::with_capacity(transactions);
    for d in report.response.iter() {
        latencies.push(d.as_nanos());
    }
    out.sim_fingerprint = latencies.fingerprint();
    out.put_latency(&latencies, "transactions");
    put(&mut out.sim, "sim_ops_per_s", report.tpmc / 60.0);

    let txns = report.transactions as f64;
    let cache = db.cache_stats();
    let wal = db.wal_stats();
    let hits = (cache.hits - cache_before.hits) as f64;
    let misses = (cache.misses - cache_before.misses) as f64;
    let forces = report.group_commits as f64;
    let l = &mut out.layers;
    put(l, "db.cache_hit_share", ratio(hits, hits + misses));
    put(
        l,
        "db.cache_evictions",
        (cache.evictions - cache_before.evictions) as f64,
    );
    put(
        l,
        "db.page_reads_per_txn",
        ratio(
            (db.with_stats(|s| s.page_reads) - reads_before) as f64,
            txns,
        ),
    );
    put(l, "db.wal_forces_per_txn", ratio(forces, txns));
    put(
        l,
        "db.wal_bytes_per_txn",
        ratio((wal.bytes_flushed - wal_before.bytes_flushed) as f64, txns),
    );
    put(l, "db.group_commit_mean", ratio(txns, forces));
    put(
        l,
        "db.logging_io_share",
        ratio(
            report.logging_io_time.as_nanos() as f64,
            report.elapsed.as_nanos() as f64,
        ),
    );
    put(
        l,
        "db.force_mean_us",
        ratio(report.logging_io_time.as_nanos() as f64, forces) / 1e3,
    );
    put(
        l,
        "tpcc.new_order_share",
        ratio(report.new_orders as f64, txns),
    );
    layers::disk(l, &built.log_disks, &built.data_disks, sim.now() - started);
    if let Some(trail) = &built.trail {
        layers::core(l, trail);
    }
    put(
        l,
        "sim.completions_cancelled",
        sim.completions().cancelled_count() as f64,
    );
    out
}
