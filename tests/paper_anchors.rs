//! Regression tests pinning the paper's §5.1 measured anchors: if a code
//! change breaks the latency story, these fail before any bench is run.

use std::cell::RefCell;
use std::rc::Rc;

use rand::Rng;
use trail::prelude::*;

fn testbed() -> (Simulator, TrailDriver, Disk) {
    let mut sim = Simulator::new();
    let log = Disk::new("log", profiles::seagate_st41601n());
    let data = Disk::new("data0", profiles::wd_caviar_10gb());
    format_log_disk(&mut sim, &log, FormatOptions::default()).expect("format");
    let (trail, _) = TrailDriver::start(&mut sim, log.clone(), vec![data], TrailConfig::default())
        .expect("boot");
    log.reset_stats();
    (sim, trail, log)
}

/// Runs `n` sparse random writes of `bytes`, returning mean latency in ms.
fn sparse_writes(n: usize, bytes: usize) -> (f64, f64) {
    let (mut sim, trail, log) = testbed();
    let lat = Rc::new(RefCell::new(trail_sim::DurationHistogram::new()));
    let mut rng = trail_sim::rng(5);
    for _ in 0..n {
        let l = Rc::clone(&lat);
        let lba = rng.gen_range(0..18_000_000u64);
        let done = sim.completion(move |_, done: Delivered<IoDone>| {
            l.borrow_mut().record(done.expect("delivered").latency());
        });
        trail
            .write(&mut sim, 0, lba, vec![1u8; bytes], done)
            .expect("write");
        trail.run_until_quiescent(&mut sim);
        sim.run_for(SimDuration::from_millis(5));
    }
    let mean = lat.borrow().mean().as_millis_f64();
    let rot = log.with_stats(|s| s.rotation_waits.mean().as_millis_f64());
    (mean, rot)
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
    let mut sim = Simulator::new();
    let disk = Disk::new("data", profiles::wd_caviar_10gb());
    let drv = StandardDriver::new(disk);
    let lat = Rc::new(RefCell::new(trail_sim::DurationHistogram::new()));
    let mut rng = trail_sim::rng(5);
    for _ in 0..100 {
        let l = Rc::clone(&lat);
        let lba = rng.gen_range(0..18_000_000u64);
        let done = sim.completion(move |_, done: Delivered<IoDone>| {
            l.borrow_mut().record(done.expect("delivered").latency());
        });
        drv.submit(&mut sim, IoRequest::write(lba, vec![1u8; 1024]), done)
            .expect("write");
        sim.run();
    }
    let std_mean = lat.borrow().mean().as_millis_f64();
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
    let mut sim = Simulator::new();
    let log = Disk::new("log", profiles::seagate_st41601n());
    let data = Disk::new("data0", profiles::wd_caviar_10gb());
    format_log_disk(&mut sim, &log, FormatOptions::default()).expect("format");
    let config = TrailConfig {
        reposition_every_write: true,
        ..TrailConfig::default()
    };
    let (trail, _) = TrailDriver::start(&mut sim, log, vec![data], config).expect("boot");
    // Clustered chain of 40 one-sector writes: each cycle = write +
    // reposition, so cycle time ≈ 1.4 + ~1.6 ≈ 3.0 ms (paper: "Trail can
    // complete a one-sector synchronous disk write within 3.0 msec"). The
    // chain crosses two cylinder boundaries (tracks 17 and 34).
    let start = sim.now();
    let done = Rc::new(std::cell::Cell::new(0u32));
    fn chain(sim: &mut Simulator, trail: TrailDriver, done: Rc<std::cell::Cell<u32>>, i: u64) {
        if i == 40 {
            return;
        }
        let t2 = trail.clone();
        let d2 = Rc::clone(&done);
        let token = sim.completion(move |sim: &mut Simulator, _: Delivered<IoDone>| {
            d2.set(d2.get() + 1);
            chain(sim, t2, d2, i + 1);
        });
        trail
            .write(sim, 0, i * 4, vec![2u8; SECTOR_SIZE], token)
            .expect("write");
    }
    chain(&mut sim, trail.clone(), Rc::clone(&done), 0);
    while done.get() < 40 {
        assert!(sim.step(), "writes stalled");
    }
    let per_cycle = sim.now().duration_since(start).as_millis_f64() / 40.0;
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
