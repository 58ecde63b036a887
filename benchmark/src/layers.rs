//! Per-layer metrics read from the library crates' public stats structs
//! and from the recorder's event stream. Names carry their layer as a
//! prefix (`disk.`, `blockio.`, `core.`, …), because `BENCHMARK.json`
//! declares per-layer metrics by name alone.

use trail_core::TrailDriver;
use trail_disk::Disk;
use trail_sim::{SimDuration, SimTime};
use trail_telemetry::{Event, EventKind, Layer};

use crate::report::{put, ratio, Metrics};
use crate::stats::Samples;

#[derive(Default)]
struct DiskSums {
    busy_ns: f64,
    seek_ns: f64,
    transfer_ns: f64,
    commands: f64,
    rot_ns: f64,
    rot_samples: f64,
    injected: f64,
}

fn sum_disks(disks: &[Disk]) -> DiskSums {
    let mut s = DiskSums::default();
    for d in disks {
        d.with_stats(|st| {
            s.busy_ns += st.busy.busy_time().as_nanos() as f64;
            s.seek_ns += st.total_seek.as_nanos() as f64;
            s.transfer_ns += st.total_transfer.as_nanos() as f64;
            s.commands += (st.reads + st.writes + st.seeks) as f64;
            s.rot_ns += st.rotation_waits.total().as_nanos() as f64;
            s.rot_samples += st.rotation_waits.count() as f64;
            s.injected += st.injected_errors as f64;
        });
    }
    s
}

/// The `stack.*` metrics of one `StackBuilder::build` that took `build_s`
/// host seconds and left the simulator's clock at `booted`.
pub fn stack(out: &mut Metrics, build_s: f64, booted: SimTime) {
    put(out, "stack.build_host_ms", build_s * 1e3);
    put(out, "stack.boot_virtual_ms", booted.as_nanos() as f64 / 1e6);
}

/// The `disk.*` metrics over `elapsed` virtual time. `log` may be empty
/// (standard stacks): its shares then read 0.
pub fn disk(out: &mut Metrics, log: &[Disk], data: &[Disk], elapsed: SimDuration) {
    let l = sum_disks(log);
    let d = sum_disks(data);
    let span = elapsed.as_nanos() as f64;
    put(
        out,
        "disk.log.busy_share",
        ratio(l.busy_ns, span * log.len() as f64),
    );
    put(
        out,
        "disk.log.rot_wait_mean_us",
        ratio(l.rot_ns, l.rot_samples) / 1e3,
    );
    put(
        out,
        "disk.data.busy_share",
        ratio(d.busy_ns, span * data.len() as f64),
    );
    put(
        out,
        "disk.data.seek_mean_us",
        ratio(d.seek_ns, d.commands) / 1e3,
    );
    put(
        out,
        "disk.data.rot_wait_mean_us",
        ratio(d.rot_ns, d.rot_samples) / 1e3,
    );
    put(
        out,
        "disk.transfer_share",
        ratio(l.transfer_ns + d.transfer_ns, l.busy_ns + d.busy_ns),
    );
    put(out, "disk.injected_errors", l.injected + d.injected);
}

/// The `core.*` metrics a [`TrailDriver`]'s counters give
/// (`core.predict_miss_share` needs the event stream; see [`events`]).
pub fn core(out: &mut Metrics, trail: &TrailDriver) {
    trail.with_stats(|s| {
        let writes = s.sync_write_latency.count() as f64;
        let mean = |v: f64, n: usize| ratio(v, n as f64);
        put(
            out,
            "core.ack_mean_us",
            ratio(s.sync_write_latency.total().as_nanos() as f64, writes) / 1e3,
        );
        put(
            out,
            "core.batch_mean_sectors",
            mean(
                s.batch_sizes.iter().map(|&b| f64::from(b)).sum(),
                s.batch_sizes.len(),
            ),
        );
        put(
            out,
            "core.repositions_per_kop",
            ratio(s.repositions as f64 * 1e3, writes),
        );
        put(
            out,
            "core.track_util_mean",
            mean(s.track_utilization.iter().sum(), s.track_utilization.len()),
        );
        put(out, "core.stalls", s.stalls as f64);
        put(
            out,
            "core.read_hit_share",
            ratio(s.read_hits as f64, (s.read_hits + s.read_misses) as f64),
        );
        put(
            out,
            "core.superseded_writeback_share",
            ratio(s.superseded_writebacks as f64, s.writebacks as f64),
        );
    });
}

/// What the traced pass adds: everything that only the recorder's event
/// stream can tell. `ops` is the workload's operation count.
pub fn events(out: &mut Metrics, events: &[Event], ops: u64) {
    let mut queue_ns = 0u128;
    let mut service_ns = 0u128;
    let mut completes = 0u64;
    let mut inexact = 0u64;
    let mut max_depth = 0u32;
    let mut enqueued = 0u64;
    let (mut hits, mut misses) = (0u64, 0u64);
    for e in events {
        match e.kind {
            EventKind::Complete { breakdown } => {
                // Every layer's Complete must decompose exactly; the means
                // are the block layer's own (queue vs. mechanical service).
                if !breakdown.is_exact() {
                    inexact += 1;
                }
                if e.layer == Layer::BlockIo {
                    completes += 1;
                    queue_ns += u128::from(breakdown.queue.as_nanos());
                    service_ns += u128::from((breakdown.total - breakdown.queue).as_nanos());
                }
            }
            EventKind::Enqueue { depth } if e.layer == Layer::BlockIo => {
                enqueued += 1;
                max_depth = max_depth.max(depth);
            }
            EventKind::PredictHit => hits += 1,
            EventKind::PredictMiss => misses += 1,
            _ => {}
        }
    }
    put(
        out,
        "blockio.queue_wait_mean_us",
        ratio(queue_ns as f64, completes as f64) / 1e3,
    );
    put(
        out,
        "blockio.service_mean_us",
        ratio(service_ns as f64, completes as f64) / 1e3,
    );
    put(out, "blockio.max_queue_depth", f64::from(max_depth));
    put(
        out,
        "blockio.incomplete",
        enqueued.saturating_sub(completes) as f64,
    );
    put(out, "blockio.breakdown_inexact", inexact as f64);
    put(
        out,
        "core.predict_miss_share",
        ratio(misses as f64, (hits + misses) as f64),
    );
    put(
        out,
        "telemetry.events_per_op",
        ratio(events.len() as f64, ops as f64),
    );
}

/// What the event stream says about a replay, whose stack lives inside
/// `replay_stream` where no stats struct can be reached: exact request
/// percentiles, and the `core.*` metrics that events alone decide.
///
/// The percentiles are over the `Complete` events of the topmost recording
/// layer: `core` on a Trail target — acknowledged writes only, because Trail
/// forwards read misses to the block layer, where they cannot be told from
/// its own write-backs — and `blockio` on a standard target, where they are
/// every request.
pub fn replay(out: &mut Metrics, events: &[Event]) {
    let completes = |layer: Layer| {
        let mut s = Samples::default();
        for e in events {
            if let (true, EventKind::Complete { breakdown }) = (e.layer == layer, e.kind) {
                s.push(breakdown.total.as_nanos());
            }
        }
        s
    };
    let core = completes(Layer::Core);
    let sorted = if core.is_empty() {
        completes(Layer::BlockIo).sorted()
    } else {
        core.sorted()
    };
    put(out, "trace.replay.p50_us", sorted.p50_us());
    put(
        out,
        "trace.replay.p99_us",
        sorted.percentile(9_900).0 as f64 / 1e3,
    );
    let repositions = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Reposition { .. }))
        .count();
    put(out, "core.ack_mean_us", core.mean_us());
    put(
        out,
        "core.repositions_per_kop",
        ratio(repositions as f64 * 1e3, core.len() as f64),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::get;
    use trail_telemetry::RequestBreakdown;

    fn ev(layer: Layer, kind: EventKind) -> Event {
        Event {
            at: SimTime::ZERO,
            dur: SimDuration::ZERO,
            layer,
            source: "t".to_string(),
            req: None,
            kind,
        }
    }

    #[test]
    fn replay_percentiles_come_from_the_top_layer() {
        let done = |layer, us| {
            ev(
                layer,
                EventKind::Complete {
                    breakdown: RequestBreakdown {
                        transfer: SimDuration::from_micros(us),
                        total: SimDuration::from_micros(us),
                        ..RequestBreakdown::default()
                    },
                },
            )
        };
        // Standard target: no core events, the block layer is the top.
        let standard: Vec<Event> = (1..=100).map(|us| done(Layer::BlockIo, us)).collect();
        let mut m = Metrics::new();
        replay(&mut m, &standard);
        assert_eq!(get(&m, "trace.replay.p50_us"), Some(50.0));
        assert_eq!(get(&m, "trace.replay.p99_us"), Some(99.0));
        assert_eq!(get(&m, "core.ack_mean_us"), Some(0.0));
        assert_eq!(get(&m, "core.repositions_per_kop"), Some(0.0));
        // Trail target: core acknowledgements win over block-layer traffic.
        let mut trail = standard;
        trail.extend((1..=4).map(|_| done(Layer::Core, 7)));
        trail.push(ev(Layer::Core, EventKind::Reposition { track: 9 }));
        let mut m = Metrics::new();
        replay(&mut m, &trail);
        assert_eq!(get(&m, "trace.replay.p50_us"), Some(7.0));
        assert_eq!(get(&m, "core.ack_mean_us"), Some(7.0));
        assert_eq!(get(&m, "core.repositions_per_kop"), Some(250.0));
    }

    #[test]
    fn event_metrics_count_what_they_say() {
        let exact = RequestBreakdown {
            queue: SimDuration::from_micros(10),
            transfer: SimDuration::from_micros(30),
            total: SimDuration::from_micros(40),
            ..RequestBreakdown::default()
        };
        let off = RequestBreakdown {
            total: SimDuration::from_micros(41),
            ..exact
        };
        let stream = vec![
            ev(Layer::BlockIo, EventKind::Enqueue { depth: 3 }),
            ev(Layer::BlockIo, EventKind::Enqueue { depth: 7 }),
            ev(Layer::Core, EventKind::Enqueue { depth: 99 }),
            ev(Layer::BlockIo, EventKind::Complete { breakdown: exact }),
            ev(Layer::Core, EventKind::Complete { breakdown: off }),
            ev(Layer::Core, EventKind::PredictHit),
            ev(Layer::Core, EventKind::PredictHit),
            ev(Layer::Core, EventKind::PredictHit),
            ev(Layer::Core, EventKind::PredictMiss),
        ];
        let mut m = Metrics::new();
        events(&mut m, &stream, 3);
        assert_eq!(get(&m, "blockio.queue_wait_mean_us"), Some(10.0));
        assert_eq!(get(&m, "blockio.service_mean_us"), Some(30.0));
        assert_eq!(get(&m, "blockio.max_queue_depth"), Some(7.0));
        assert_eq!(get(&m, "blockio.incomplete"), Some(1.0));
        assert_eq!(get(&m, "blockio.breakdown_inexact"), Some(1.0));
        assert_eq!(get(&m, "core.predict_miss_share"), Some(0.25));
        assert_eq!(get(&m, "telemetry.events_per_op"), Some(3.0));
    }
}
