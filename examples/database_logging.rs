//! Database logging on Trail vs. the standard stack — the paper's §5.2
//! scenario in miniature: a transaction engine whose commits force a
//! write-ahead log synchronously.
//!
//! Run with: `cargo run --release --example database_logging`

use std::rc::Rc;

use trail::core::StandardStack;
use trail::db::{Database, DbConfig, FlushPolicy};
use trail::prelude::*;
use trail::tpcc::{populate, run, ChainOn, CpuModel, RunConfig, Scale, Workload};

fn db_config(policy: FlushPolicy) -> DbConfig {
    DbConfig {
        cache_pages: 512,
        flush_policy: policy,
        log_dev: 0,
        log_region_start: 64,
        log_region_sectors: 500_000,
        flush_write_bytes: 8 * 1024,
        table_devices: vec![1, 2],
        dirty_high_watermark: usize::MAX / 2,
        flush_batch: 16,
        log_before_images: true,
        single_cpu: false,
    }
}

fn place_and_warm(db: &Database, disks: &[Disk], scale: &Scale) {
    let images = populate(db, scale);
    for (pid, bytes) in &images {
        let disk = &disks[pid.dev as usize];
        for (i, chunk) in bytes.chunks(SECTOR_SIZE).enumerate() {
            let mut sector = [0u8; SECTOR_SIZE];
            sector[..chunk.len()].copy_from_slice(chunk);
            disk.poke_sector(pid.first_lba() + i as u64, &sector);
        }
        db.warm(*pid, bytes);
    }
}

fn main() -> Result<(), TrailError> {
    let scale = Scale {
        warehouses: 1,
        districts: 4,
        customers_per_district: 300,
        items: 2_000,
        initial_orders_per_district: 50,
    };
    let txns = 500;

    println!("TPC-C slice: {txns} transactions, concurrency 1, three stacks\n");
    println!("| configuration | tpm | avg response | logging I/O | group commits |");
    println!("|---|---|---|---|---|");

    for (name, trail, policy, chain) in [
        (
            "Trail, force every commit   ",
            true,
            FlushPolicy::EveryCommit,
            ChainOn::Durable,
        ),
        (
            "standard, force every commit",
            false,
            FlushPolicy::EveryCommit,
            ChainOn::Durable,
        ),
        (
            "standard, group commit 50 KB",
            false,
            FlushPolicy::GroupCommit {
                buffer_bytes: 50 * 1024,
            },
            ChainOn::Control,
        ),
    ] {
        let mut sim = Simulator::new();
        let disks: Vec<Disk> = (0..3)
            .map(|i| Disk::new(format!("d{i}"), profiles::wd_caviar_10gb()))
            .collect();
        let db = if trail {
            let log = Disk::new("trail-log", profiles::seagate_st41601n());
            format_log_disk(&mut sim, &log, FormatOptions::default())?;
            let (trail, _) =
                MultiTrail::start(&mut sim, vec![log], disks.clone(), TrailConfig::default())?;
            Database::new(Rc::new(trail), db_config(policy))
        } else {
            Database::new(
                Rc::new(StandardStack::new(disks.clone())),
                db_config(policy),
            )
        };
        place_and_warm(&db, &disks, &scale);
        let workload = Workload::new(scale, 7, CpuModel::default());
        let report = run(
            &mut sim,
            &db,
            workload,
            RunConfig {
                transactions: txns,
                concurrency: 1,
                chain_on: chain,
            },
        );
        println!(
            "| {name} | {:>6.0} | {:>8.1} ms | {:>7.2} s | {:>4} |",
            report.tpmc,
            report.mean_response().as_millis_f64(),
            report.logging_io_time.as_secs_f64(),
            report.group_commits,
        );
    }
    println!("\n(The paper's Table 2 at full scale: cargo run --release -p trail-bench -- table2)");
    Ok(())
}
