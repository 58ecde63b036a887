//! Regression tests pinning the paper's §5.1 measured anchors: if a code
//! change breaks the latency story, these fail before any bench is run.

use rand::Rng;
use trail::drive::{Pace, Write};
use trail::prelude::*;

/// `n` writes of `bytes` at random targets of the one data disk.
fn random_writes(n: usize, bytes: usize) -> Vec<Write> {
    let mut rng = trail_sim::rng(5);
    (0..n)
        .map(|_| Write {
            dev: 0,
            lba: rng.gen_range(0..18_000_000u64),
            data: vec![1u8; bytes],
        })
        .collect()
}

/// Runs `n` sparse random writes of `bytes` on Trail, returning mean
/// latency and mean residual rotational latency on the log disk, in ms.
fn sparse_writes(n: usize, bytes: usize) -> (f64, f64) {
    let mut built = StackBuilder::new().data_disks(1).build().expect("boot");
    let pace = Pace::Drained {
        gap: SimDuration::from_millis(5),
    };
    let driven = built.drive(vec![random_writes(n, bytes)], pace);
    assert_eq!(driven.failed, 0, "every write delivered");
    let rot = built.log_disks[0].with_stats(|s| s.rotation_waits.mean().as_millis_f64());
    (driven.latency.mean().as_millis_f64(), rot)
}

#[test]
fn one_sector_write_is_about_1_4_ms() {
    // Paper §5.1: "the synchronous write latency for a one-sector write
    // request is consistently around 1.40 msec". Ours also transfers the
    // record's header sector and aims by the after-write lead, one sector
    // of slack past the overhead, so allow up to 2.0.
    let (mean, _) = sparse_writes(100, 512);
    assert!(
        (1.2..2.0).contains(&mean),
        "one-sector sync write mean {mean} ms, expected ~1.4-1.9"
    );
}

#[test]
fn four_kb_write_is_a_few_ms() {
    // Abstract: "A 4-KByte disk write takes less than 1.5 msec" — with
    // media-rate transfer (8 sectors ≈ 1.0 ms) plus ~1.25 ms overhead the
    // physically consistent bound is ~3 ms; see EXPERIMENTS.md.
    let (mean, _) = sparse_writes(100, 4096);
    assert!(
        (2.0..3.6).contains(&mean),
        "4-KB sync write mean {mean} ms, expected ~2.3-3"
    );
}

#[test]
fn residual_rotation_is_an_order_of_magnitude_below_average() {
    // Paper §5.1: average rotational latency reduced below 0.5 ms,
    // against a 5.5 ms disk average.
    let (_, rot) = sparse_writes(150, 512);
    assert!(
        rot < 0.5,
        "mean residual rotational latency {rot} ms, expected < 0.5"
    );
}

#[test]
fn trail_beats_standard_by_5x_or_more_on_small_writes() {
    // Paper: up to 11.85x. Demand at least 5x on 1-KB sparse writes.
    let (trail_mean, _) = sparse_writes(100, 1024);
    // Standard subsystem: same workload straight at the data disk.
    let mut built = StackBuilder::new()
        .data_disks(1)
        .standard()
        .build()
        .expect("boot");
    let pace = Pace::Drained {
        gap: SimDuration::ZERO,
    };
    let driven = built.drive(vec![random_writes(100, 1024)], pace);
    assert_eq!(driven.failed, 0, "every write delivered");
    let std_mean = driven.latency.mean().as_millis_f64();
    assert!(
        std_mean / trail_mean >= 5.0,
        "speedup only {:.2}x (trail {trail_mean} ms vs standard {std_mean} ms)",
        std_mean / trail_mean
    );
}

#[test]
fn reposition_cost_is_about_1_5_ms() {
    // Paper §5.1: the repositioning overhead "typical value is 1.5 msec".
    // Measure it as the latency difference between a write that triggers
    // no reposition and the driver's post-write reposition read, via the
    // every-write policy: total per clustered cycle ≈ write + reposition.
    let config = TrailConfig {
        reposition_every_write: true,
        ..TrailConfig::default()
    };
    let mut built = StackBuilder::new()
        .data_disks(1)
        .trail(config)
        .build()
        .expect("boot");
    // Clustered chain of 40 one-sector writes: each cycle = write +
    // reposition, so cycle time ≈ 1.4 + ~1.6 ≈ 3.0 ms (paper: "Trail can
    // complete a one-sector synchronous disk write within 3.0 msec"). The
    // chain crosses two cylinder boundaries (tracks 17 and 34).
    let writes = (0..40)
        .map(|i| Write {
            dev: 0,
            lba: i * 4,
            data: vec![2u8; SECTOR_SIZE],
        })
        .collect();
    let start = built.sim.now();
    let pace = Pace::Acked {
        group: 1,
        gap: SimDuration::ZERO,
    };
    let driven = built.drive(vec![writes], pace);
    assert_eq!(driven.latency.count(), 40, "writes stalled");
    let per_cycle = driven.last_ack.duration_since(start).as_millis_f64() / 40.0;
    // Each record also transfers its header sector, and both the write
    // and the repositioning read aim one sector of slack past their
    // calibrated leads (~0.3 ms/cycle over the paper's 3.0 ms). Two
    // crossings that each lose a revolution add ~0.55 ms to every cycle
    // of this chain, which the band's upper end rejects.
    assert!(
        (2.5..3.8).contains(&per_cycle),
        "write+reposition cycle {per_cycle} ms, paper says ~3.0"
    );
}
