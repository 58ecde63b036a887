//! `crash_recover` — the durability contract plus the paper's Fig. 4.
//!
//! Raw-disk Trail. For each burst size Q a burst of tagged 4 KB writes is
//! submitted at once, and power is cut over the whole system through a
//! `FaultPlan` at the instants where the contract is thinnest: sampled
//! acknowledgement instants (from a dry run) −1 ns, +0 and +1 ns, plus
//! seeded uniform instants. After each cut the disks are powered on,
//! `read_header` and `recover` run, and every write acknowledged before
//! the cut must read back byte-exact through `peek_sector`.
//!
//! One operation is one crash point, and its latency is the virtual time
//! its recovery took.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

use rand::Rng;
use trail::blockio::IoDone;
use trail::{BuiltStack, StackBuilder};
use trail_core::{read_header, recover, RecoveryOptions, RecoveryReport};
use trail_disk::SECTOR_SIZE;
use trail_sim::{Delivered, FaultPlan, SimDuration, Simulator};
use trail_telemetry::{MemoryRecorder, RecorderHandle};

use crate::layers;
use crate::report::{measure, put, ratio, Ctx, Outcome};
use crate::spans::Spans;
use crate::stats::{fingerprint, sub_seed, Samples};

const BURSTS: [usize; 3] = [64, 256, 1024];
const DATA_DISKS: usize = 3;
const WRITE_SECTORS: u64 = 8;
/// Per burst size at scale 1.0: acknowledgements sampled (three cuts each)
/// and crash points in all. Writes batched into one log record share an
/// acknowledgement instant, so their cuts coincide; uniform instants fill
/// up to the fixed total — 3 × 134 = 402 crash points on every seed.
const ACKS_SAMPLED: usize = 32;
const CUTS_PER_BURST: usize = 134;

/// `(dev, lba, tag)` of write `i` of a burst: distinct blocks, round-robin
/// over the data disks, a tag that is never the unwritten-sector zero.
fn write_of(i: usize) -> (usize, u64, u8) {
    (
        i % DATA_DISKS,
        2_048 + i as u64 * WRITE_SECTORS,
        (i % 251 + 1) as u8,
    )
}

/// What a burst left behind: the stack, and which writes were acknowledged
/// when (relative to the burst's submission).
struct Burst {
    built: BuiltStack,
    acked: Vec<(usize, SimDuration)>,
    /// Virtual time from submission until the simulator ran dry.
    elapsed: SimDuration,
}

fn build(spans: &mut Spans, seed: u64, plan: FaultPlan) -> BuiltStack {
    spans.scope("stack.build", |_| {
        StackBuilder::new()
            .seed(seed)
            .data_disks(DATA_DISKS)
            .trail_default()
            .faults(plan)
            .build()
            .expect("crash stack boots")
    })
}

/// Submits a burst of `q` writes on a fresh stack armed with `plan` and
/// runs the simulator dry.
fn run_burst(
    spans: &mut Spans,
    seed: u64,
    q: usize,
    plan: FaultPlan,
    recorder: Option<RecorderHandle>,
) -> Burst {
    let mut built = build(spans, seed, plan);
    let trail = built.trail.clone().expect("crash stack runs Trail");
    if let Some(r) = recorder {
        trail.set_recorder(r);
    }
    let sim = &mut built.sim;
    let start = sim.now();
    let acked = Rc::new(RefCell::new(Vec::with_capacity(q)));
    for i in 0..q {
        let (dev, lba, tag) = write_of(i);
        let acked = Rc::clone(&acked);
        let done = sim.completion(move |sim: &mut Simulator, d: Delivered<IoDone>| {
            if d.is_ok() {
                acked.borrow_mut().push((i, sim.now() - start));
            }
        });
        trail
            .write(
                sim,
                dev,
                lba,
                vec![tag; WRITE_SECTORS as usize * SECTOR_SIZE],
                done,
            )
            .expect("burst write accepted");
    }
    sim.run();
    let elapsed = sim.now() - start;
    let acked = acked.borrow().clone();
    Burst {
        built,
        acked,
        elapsed,
    }
}

/// The `total` crash instants for one burst size, sorted and distinct.
///
/// Both samples are stratified — one acknowledgement per stride of the ack
/// order, one fill instant per equal slice of the burst — with the seed
/// choosing inside each stratum: every seed cuts every part of the burst
/// about equally often, instead of covering it by luck.
fn cut_instants(
    seed: u64,
    q: usize,
    acks: &[(usize, SimDuration)],
    sampled: usize,
    total: usize,
) -> Vec<SimDuration> {
    let mut rng = trail_sim::rng(sub_seed(seed, q as u64));
    let mut cuts = BTreeSet::new();
    let sampled = sampled.min(acks.len());
    for k in 0..sampled {
        let (lo, hi) = (k * acks.len() / sampled, (k + 1) * acks.len() / sampled);
        let at = acks[rng.gen_range(lo..hi)].1.as_nanos();
        cuts.extend([at.saturating_sub(1), at, at + 1]);
    }
    let horizon = acks.iter().map(|a| a.1.as_nanos()).max().unwrap_or(0) + 2;
    let fill = total.saturating_sub(cuts.len()) as u64;
    for k in 0..fill {
        let (lo, hi) = (
            k * horizon / fill,
            ((k + 1) * horizon / fill).max(k * horizon / fill + 1),
        );
        // Step past an instant that is already taken.
        let mut at = rng.gen_range(lo..hi);
        while !cuts.insert(at) {
            at += 1;
        }
    }
    cuts.into_iter().map(SimDuration::from_nanos).collect()
}

/// One crash point's result.
struct Point {
    cut: SimDuration,
    acked: usize,
    report: Option<RecoveryReport>,
    lost: u64,
    recover_host_s: f64,
}

/// Crashes a burst of `q` at `cut`, reboots, recovers and checks the
/// contract.
fn crash_point(
    spans: &mut Spans,
    seed: u64,
    q: usize,
    cut: SimDuration,
    recorder: Option<RecorderHandle>,
) -> Point {
    let burst = run_burst(spans, seed, q, FaultPlan::power_cut_at(cut), recorder);
    let built = burst.built;
    let log = built.log_disk.clone().expect("crash stack has a log disk");
    log.power_on();
    for d in &built.data_disks {
        d.power_on();
    }
    let mut sim = Simulator::new();
    let (report, recover_host_s) = spans.timed("core.recover", |_| {
        let header = read_header(&mut sim, &log).ok()?;
        recover(
            &mut sim,
            &log,
            &built.data_disks,
            &header,
            RecoveryOptions::default(),
        )
        .ok()
    });
    let lost = burst
        .acked
        .iter()
        .filter(|&&(i, _)| {
            let (dev, lba, tag) = write_of(i);
            (0..WRITE_SECTORS).any(|s| {
                built.data_disks[dev]
                    .peek_sector(lba + s)
                    .iter()
                    .any(|&b| b != tag)
            })
        })
        .count() as u64;
    Point {
        cut,
        acked: burst.acked.len(),
        report,
        lost,
        recover_host_s,
    }
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let seed = ctx.seed;
    let sampled = ctx.sized(ACKS_SAMPLED, 2);
    let total = ctx.sized(CUTS_PER_BURST, 8);
    let mut out = Outcome::default();

    // Dry runs: where the acknowledgements fall decides where to cut.
    let mut plans = Vec::new();
    for q in BURSTS {
        let dry = run_burst(&mut ctx.spans, seed, q, FaultPlan::new(), None);
        if dry.acked.len() != q {
            out.violations.push(format!(
                "crash_recover: dry run of Q={q} acknowledged {} writes",
                dry.acked.len()
            ));
        }
        plans.push((q, cut_instants(seed, q, &dry.acked, sampled, total)));
    }

    out.setup_s = ctx.setup_s();
    let main_recorder = ctx.recorder_handle();
    let mut traced_points = 0u64;
    let (points, phase) = measure(&mut ctx.spans, "core.crash_points", |spans| {
        let mut points = Vec::new();
        for (q, cuts) in &plans {
            for (k, &cut) in cuts.iter().enumerate() {
                // The first point of each burst size feeds the trace; the
                // rest record into a throwaway, so the traced pass pays the
                // recorder everywhere without holding every event.
                let recorder: Option<RecorderHandle> = match (&main_recorder, k) {
                    (Some(r), 0) => {
                        traced_points += 1;
                        Some(Rc::clone(r))
                    }
                    (Some(_), _) => Some(MemoryRecorder::shared()),
                    (None, _) => None,
                };
                points.push(crash_point(spans, seed, *q, cut, recorder));
            }
        }
        points
    });
    out.run = phase;
    out.traced_ops = traced_points;

    out.ops = points.len() as u64;
    out.attempted = out.ops;
    let lost: u64 = points.iter().map(|p| p.lost).sum();
    let failed_recoveries = points.iter().filter(|p| p.report.is_none()).count() as u64;
    out.failed = failed_recoveries + points.iter().filter(|p| p.lost > 0).count() as u64;
    if lost != 0 {
        out.violations.push(format!(
            "crash_recover: {lost} acknowledged writes did not survive their power cut"
        ));
    }
    if failed_recoveries != 0 {
        out.violations.push(format!(
            "crash_recover: {failed_recoveries} recoveries failed"
        ));
    }

    let mut recovery = Samples::with_capacity(points.len());
    let mut digest = Vec::with_capacity(points.len() * 3);
    let reports: Vec<&RecoveryReport> = points.iter().filter_map(|p| p.report.as_ref()).collect();
    for p in &points {
        let total = p.report.as_ref().map_or(0, |r| r.total_time().as_nanos());
        recovery.push(total);
        digest.extend([p.cut.as_nanos(), p.acked as u64, total]);
    }
    out.sim_fingerprint = fingerprint(digest);
    let mean_us = recovery.mean_us();
    out.put_latency(&recovery, "crash points");
    put(&mut out.sim, "sim_ops_per_s", ratio(1e6, mean_us));
    put(&mut out.sim, "sim_recovery_ms", mean_us / 1e3);
    out.notes.push((
        "crash_points".to_string(),
        plans
            .iter()
            .map(|(q, cuts)| format!("Q={q}: {}", cuts.len()))
            .collect::<Vec<_>>()
            .join(", "),
    ));

    let n = reports.len() as f64;
    let mean = |f: &dyn Fn(&RecoveryReport) -> f64| ratio(reports.iter().map(|r| f(r)).sum(), n);
    let l = &mut out.layers;
    put(
        l,
        "core.recover.locate_ms",
        mean(&|r| r.locate_time.as_millis_f64()),
    );
    put(
        l,
        "core.recover.rebuild_ms",
        mean(&|r| r.rebuild_time.as_millis_f64()),
    );
    put(
        l,
        "core.recover.writeback_ms",
        mean(&|r| r.writeback_time.as_millis_f64()),
    );
    put(
        l,
        "core.recover.tracks_scanned",
        mean(&|r| r.tracks_scanned as f64),
    );
    put(
        l,
        "core.recover.torn_dropped",
        mean(&|r| r.torn_records_dropped as f64),
    );
    put(
        l,
        "core.recover.active_log_sectors",
        mean(&|r| r.active_log_sectors as f64),
    );
    put(
        l,
        "core.recover.host_us_per_point",
        ratio(
            points.iter().map(|p| p.recover_host_s).sum::<f64>() * 1e6,
            points.len() as f64,
        ),
    );
    // The stack under the largest burst, run dry, stands for the layers
    // below: every crash point replays a prefix of it.
    let (fresh, build_s) = ctx.spans.timed("probe.stack.build", |spans| {
        build(spans, seed, FaultPlan::new())
    });
    layers::stack(l, build_s, fresh.sim.now());
    let dry = run_burst(&mut ctx.spans, seed, BURSTS[2], FaultPlan::new(), None);
    layers::disk(l, &dry.built.log_disks, &dry.built.data_disks, dry.elapsed);
    if let Some(trail) = &dry.built.trail {
        layers::core(l, trail);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cuts_bracket_sampled_acks_and_repeat_per_seed() {
        let acks: Vec<(usize, SimDuration)> = (0..10)
            .map(|i| (i, SimDuration::from_micros(100 * (i as u64 + 1))))
            .collect();
        let cuts = cut_instants(7, 64, &acks, 4, 17);
        assert_eq!(cuts, cut_instants(7, 64, &acks, 4, 17));
        assert_ne!(cuts, cut_instants(8, 64, &acks, 4, 17));
        assert!(cuts.windows(2).all(|w| w[0] < w[1]), "sorted, no repeats");
        assert_eq!(cuts.len(), 17, "the total is fixed whatever coincides");
        // Four acks are bracketed: their instant and both neighbours.
        let bracketed = acks
            .iter()
            .filter(|(_, at)| {
                [at.as_nanos() - 1, at.as_nanos(), at.as_nanos() + 1]
                    .iter()
                    .all(|ns| cuts.contains(&SimDuration::from_nanos(*ns)))
            })
            .count();
        assert!(bracketed >= 4);
        // Nothing is cut after the last acknowledgement + 1 ns.
        assert!(cuts.last().unwrap().as_nanos() <= 1_000_001);
    }
}
