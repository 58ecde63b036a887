//! Multiple log disks (paper §5.1's "final optimization"): hiding the
//! repositioning overhead by spreading blocks across Trail instances.
//!
//! Run with: `cargo run --release --example multi_log`

use rand::Rng;
use trail::drive::{Pace, Write};
use trail::prelude::*;

/// Chains `n` clustered one-sector writes to random blocks and returns the
/// elapsed virtual time in milliseconds.
fn clustered_run(n_logs: usize, writes: usize) -> Result<f64, TrailError> {
    // The every-write repositioning policy makes the overhead maximal, so
    // the hiding effect is easy to see.
    let config = TrailConfig {
        reposition_every_write: true,
        ..TrailConfig::default()
    };
    let builder = StackBuilder::new().data_disks(1);
    let mut built = builder.trail_multi(n_logs, config).build()?;
    let mut seed = 42;
    let chain = (0..writes)
        .map(|_| {
            let mut rng = trail_sim::rng(seed);
            let lba = rng.gen_range(0..1_000_000u64);
            seed = rng.gen();
            Write {
                dev: 0,
                lba,
                data: vec![7u8; SECTOR_SIZE],
            }
        })
        .collect();
    // Each write goes the moment the previous one is acknowledged.
    let clustered = Pace::Acked {
        group: 1,
        gap: SimDuration::ZERO,
    };
    let start = built.sim.now();
    let last_ack = built.drive(vec![chain], clustered).last_ack;
    let multi = built.multi.expect("a Trail array");
    multi.shutdown(&mut built.sim)?;
    Ok(last_ack.duration_since(start).as_millis_f64())
}

fn main() -> Result<(), TrailError> {
    println!("clustered one-sector writes, reposition after every record:");
    println!("| log disks | elapsed for 200 writes (ms) | per write (ms) |");
    println!("|---|---|---|");
    let mut first = None;
    for n in 1..=4 {
        let ms = clustered_run(n, 200)?;
        println!("| {n} | {ms:>7.1} | {:>5.2} |", ms / 200.0);
        first.get_or_insert(ms);
    }
    let first = first.expect("ran at least once");
    let last = clustered_run(4, 200)?;
    println!(
        "\n4 log disks hide {:.0}% of the single-disk stream time,",
        100.0 * (1.0 - last / first)
    );
    println!("approaching the paper's 'completely hide the re-positioning overhead'.");
    Ok(())
}
