//! Re-entrant completion handlers: a handler that immediately submits new
//! I/O through the same driver must not panic or double-borrow, because
//! delivery is deferred — the firing component has fully unwound before
//! the handler runs. These tests chain submissions from inside handlers
//! through both `TrailDriver` and `MultiTrail`, and check that the
//! core-layer telemetry lifecycle stays exact while doing so.

use std::cell::Cell;
use std::rc::Rc;

use trail_blockio::{IoDone, IoRequest};
use trail_core::{
    format_log_disk, BlockStack, FormatOptions, MultiTrail, TrailConfig, TrailDriver,
    REGION_SECTORS,
};
use trail_disk::{profiles, Disk, SECTOR_SIZE};
use trail_sim::{Delivered, SimDuration, Simulator};
use trail_telemetry::{EventKind, Layer, MemoryRecorder, RecorderHandle};

fn payload(tag: u8) -> Vec<u8> {
    vec![tag; SECTOR_SIZE]
}

/// Each ack handler submits the next write from inside the delivery — a
/// chain of N writes driven entirely by completions. Before deferred
/// delivery this pattern required manual `schedule_now` trampolines to
/// avoid re-entering the driver's `RefCell`s.
#[test]
fn write_chain_from_inside_handlers_completes() {
    let mut sim = Simulator::new();
    let log = Disk::new("log", profiles::tiny_test_disk());
    let data = Disk::new("d0", profiles::tiny_test_disk());
    format_log_disk(&mut sim, &log, FormatOptions::default()).unwrap();
    let (drv, _) =
        TrailDriver::start(&mut sim, log, vec![data.clone()], TrailConfig::default()).unwrap();

    fn chain(sim: &mut Simulator, drv: TrailDriver, count: Rc<Cell<u32>>, i: u64) {
        if i >= 25 {
            return;
        }
        let d2 = drv.clone();
        let done = sim.completion(move |sim: &mut Simulator, d: Delivered<IoDone>| {
            d.expect("durable");
            count.set(count.get() + 1);
            chain(sim, d2, count, i + 1);
        });
        drv.write(sim, 0, i, payload((i + 1) as u8), done).unwrap();
    }
    let count = Rc::new(Cell::new(0u32));
    chain(&mut sim, drv.clone(), Rc::clone(&count), 0);
    drv.run_until_quiescent(&mut sim);
    assert_eq!(count.get(), 25);
    for i in 0..25u64 {
        assert_eq!(data.peek_sector(i)[0], (i + 1) as u8, "block {i}");
    }
}

/// A read handler that issues a write, whose handler issues a read — the
/// full submit surface exercised re-entrantly, while the driver holds no
/// borrow across any handler.
#[test]
fn read_and_write_interleave_from_handlers() {
    let mut sim = Simulator::new();
    let log = Disk::new("log", profiles::tiny_test_disk());
    let data = Disk::new("d0", profiles::tiny_test_disk());
    format_log_disk(&mut sim, &log, FormatOptions::default()).unwrap();
    let (drv, _) = TrailDriver::start(&mut sim, log, vec![data], TrailConfig::default()).unwrap();

    let finished = Rc::new(Cell::new(false));
    {
        let drv1 = drv.clone();
        let fin = Rc::clone(&finished);
        let done = sim.completion(move |sim: &mut Simulator, d: Delivered<IoDone>| {
            d.expect("write durable");
            let drv2 = drv1.clone();
            let fin = Rc::clone(&fin);
            // Still pinned: served from buffer memory, also via completion.
            let read_done = sim.completion(move |sim: &mut Simulator, d: Delivered<IoDone>| {
                let got = d.expect("read delivered");
                assert_eq!(got.data.as_ref().unwrap().sector(0)[0], 0x3C);
                let fin = Rc::clone(&fin);
                let final_done = sim.completion(move |_, d: Delivered<IoDone>| {
                    d.expect("second write durable");
                    fin.set(true);
                });
                drv2.write(sim, 0, 9, vec![0x77; SECTOR_SIZE], final_done)
                    .unwrap();
            });
            drv1.submit(sim, 0, IoRequest::read(5, 1), read_done)
                .unwrap();
        });
        drv.write(&mut sim, 0, 5, payload(0x3C), done).unwrap();
    }
    drv.run_until_quiescent(&mut sim);
    assert!(finished.get());
}

/// The same chaining pattern through `MultiTrail`: handlers submit to
/// blocks that *different* Trail instances own, so a delivery from one
/// instance re-enters another mid-cascade.
#[test]
fn multi_trail_handlers_submit_across_instances() {
    let mut sim = Simulator::new();
    let logs: Vec<Disk> = (0..2)
        .map(|i| Disk::new(format!("log{i}"), profiles::tiny_test_disk()))
        .collect();
    for l in &logs {
        format_log_disk(&mut sim, l, FormatOptions::default()).unwrap();
    }
    let data = vec![Disk::new("d0", profiles::tiny_test_disk())];
    let (multi, _) =
        MultiTrail::start(&mut sim, logs, data.clone(), TrailConfig::default()).unwrap();

    fn chain(sim: &mut Simulator, multi: MultiTrail, count: Rc<Cell<u32>>, lba: u64) {
        if count.get() >= 40 {
            return;
        }
        let m2 = multi.clone();
        let done = sim.completion(move |sim: &mut Simulator, d: Delivered<IoDone>| {
            d.expect("durable");
            count.set(count.get() + 1);
            // Stride walks blocks across regions both instances own.
            chain(
                sim,
                m2,
                count,
                (lba + REGION_SECTORS / 2 + 7) % (8 * REGION_SECTORS),
            );
        });
        multi
            .write(sim, 0, lba, vec![(lba + 1) as u8; SECTOR_SIZE], done)
            .unwrap();
    }
    let count = Rc::new(Cell::new(0u32));
    chain(&mut sim, multi.clone(), Rc::clone(&count), 0);
    multi.run_until_quiescent(&mut sim);
    assert_eq!(count.get(), 40);
    let per_log: Vec<u64> = multi
        .drivers()
        .iter()
        .map(|d| d.with_stats(|s| s.log_records))
        .collect();
    assert!(
        per_log.iter().all(|&r| r > 0),
        "the chain must have touched every instance: {per_log:?}"
    );
}

/// Core-layer lifecycle spans stay exact even when every handler is
/// re-entrant: each request gets one Enqueue, at least one Dispatch, and
/// one Complete whose breakdown components sum to its end-to-end latency.
#[test]
fn reentrant_chain_keeps_lifecycle_exact() {
    let mut sim = Simulator::new();
    let log = Disk::new("log", profiles::tiny_test_disk());
    let data = Disk::new("d0", profiles::tiny_test_disk());
    format_log_disk(&mut sim, &log, FormatOptions::default()).unwrap();
    let (drv, _) = TrailDriver::start(&mut sim, log, vec![data], TrailConfig::default()).unwrap();
    let rec = MemoryRecorder::shared();
    drv.set_recorder(Rc::clone(&rec) as RecorderHandle);

    fn chain(sim: &mut Simulator, drv: TrailDriver, count: Rc<Cell<u32>>, i: u64) {
        if i >= 12 {
            return;
        }
        let d2 = drv.clone();
        let done = sim.completion(move |sim: &mut Simulator, d: Delivered<IoDone>| {
            let got = d.expect("durable");
            assert!(got.completed >= got.issued);
            count.set(count.get() + 1);
            chain(sim, d2, count, i + 1);
        });
        drv.write(sim, 0, i * 3, payload(1), done).unwrap();
    }
    let count = Rc::new(Cell::new(0u32));
    chain(&mut sim, drv.clone(), Rc::clone(&count), 0);
    drv.run_until_quiescent(&mut sim);
    sim.run();
    assert_eq!(count.get(), 12);

    let core_events: Vec<_> = rec
        .snapshot()
        .into_iter()
        .filter(|e| e.layer == Layer::Core)
        .collect();
    let enqueues = core_events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Enqueue { .. }))
        .count();
    let dispatches = core_events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Dispatch { .. }))
        .count();
    assert_eq!(enqueues, 12, "one Enqueue per request");
    assert_eq!(dispatches, 12, "one Dispatch per queued chunk");
    let completes: Vec<_> = core_events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::Complete { breakdown } => Some((e, breakdown)),
            _ => None,
        })
        .collect();
    assert_eq!(completes.len(), 12, "one Complete per request");
    for (e, b) in completes {
        assert!(b.is_exact(), "breakdown has a residual: {b:?}");
        assert_eq!(b.component_sum(), b.total);
        assert_eq!(e.dur, b.total, "span duration is the end-to-end latency");
        assert!(e.req.is_some(), "Complete must carry its correlation id");
    }
    // Every Complete correlates back to an Enqueue with the same id.
    let enqueue_ids: Vec<u64> = core_events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Enqueue { .. }))
        .map(|e| e.req.expect("Enqueue carries an id"))
        .collect();
    for e in core_events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Complete { .. }))
    {
        assert!(enqueue_ids.contains(&e.req.unwrap()));
    }
}

/// Orphaned tokens cancel instead of vanishing even when the drop happens
/// deep inside a handler cascade (here: the chain stops by dropping the
/// next minted token without submitting it).
#[test]
fn dropping_a_token_mid_cascade_cancels_it() {
    let mut sim = Simulator::new();
    let log = Disk::new("log", profiles::tiny_test_disk());
    let data = Disk::new("d0", profiles::tiny_test_disk());
    format_log_disk(&mut sim, &log, FormatOptions::default()).unwrap();
    let (drv, _) = TrailDriver::start(&mut sim, log, vec![data], TrailConfig::default()).unwrap();
    let cancelled = Rc::new(Cell::new(false));
    {
        let c2 = Rc::clone(&cancelled);
        let drv2 = drv.clone();
        let done = sim.completion(move |sim: &mut Simulator, d: Delivered<IoDone>| {
            d.expect("durable");
            // Mint a follow-up token but abandon it.
            let orphan = sim.completion(move |_, d: Delivered<IoDone>| {
                c2.set(d.is_err());
            });
            drop(orphan);
            let _ = &drv2;
        });
        drv.write(&mut sim, 0, 0, payload(5), done).unwrap();
    }
    drv.run_until_quiescent(&mut sim);
    sim.run();
    assert!(
        cancelled.get(),
        "abandoned token must deliver Err(Cancelled)"
    );
    let wait = sim.now() + SimDuration::from_millis(1);
    sim.run_until(wait);
    assert_eq!(sim.completions().orphan_count(), 0, "orphans drained");
}
