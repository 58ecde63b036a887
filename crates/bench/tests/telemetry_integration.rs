//! Full-stack telemetry acceptance tests: exact latency decomposition,
//! deterministic event streams, zero perturbation when recording, and a
//! parseable Chrome trace from `trail-bench fig3`.

use std::rc::Rc;

use trail::drive::{Driven, Pace};
use trail::StackBuilder;
use trail_bench::{build_stack, random_writers};
use trail_sim::SimDuration;
use trail_telemetry::{EventKind, JsonValue, Layer, MemoryRecorder, RecorderHandle};

const SPARSE: Pace = Pace::Acked {
    group: 1,
    gap: SimDuration::from_millis(5),
};

const CLUSTERED: Pace = Pace::Acked {
    group: 1,
    gap: SimDuration::ZERO,
};

/// The §5.1 workload on the paper's Trail testbed: `procs` writers of
/// `per_proc` writes of `size_bytes` each.
fn sync_run(
    procs: usize,
    per_proc: usize,
    size_bytes: usize,
    pace: Pace,
    seed: u64,
    recorder: Option<RecorderHandle>,
) -> Driven {
    let writers = random_writers(procs, per_proc, size_bytes, seed);
    build_stack(StackBuilder::new(), recorder).drive(writers, pace)
}

/// Acceptance: record a sparse-sync-write workload through the full stack
/// and assert, for every request, that the telemetry breakdown (queue +
/// command overhead + seek + rotational wait + transfer) equals the
/// observed end-to-end latency within 1 µs of virtual time.
#[test]
fn breakdowns_sum_exactly_to_end_to_end_latency() {
    let rec = MemoryRecorder::shared();
    let _ = sync_run(
        2,
        60,
        512,
        SPARSE,
        17,
        Some(Rc::clone(&rec) as RecorderHandle),
    );
    let completes: Vec<_> = rec
        .snapshot()
        .into_iter()
        .filter_map(|e| match e.kind {
            EventKind::Complete { breakdown } => Some((e.layer, breakdown)),
            _ => None,
        })
        .collect();
    assert!(
        completes.len() >= 120,
        "expected at least one Complete per request, got {}",
        completes.len()
    );
    // The shared completion lifecycle must emit Completes from BOTH layers
    // the token traverses: the core driver's host-facing acknowledgement
    // and the block layer's per-disk command completion.
    for layer in [Layer::Core, Layer::BlockIo] {
        let n = completes.iter().filter(|(l, _)| *l == layer).count();
        assert!(
            n >= 60,
            "expected one {layer:?} Complete per request, got {n}"
        );
    }
    for (_, b) in &completes {
        assert!(
            b.residual_nanos().unsigned_abs() <= 1_000,
            "breakdown off by {} ns: {b:?}",
            b.residual_nanos()
        );
        // The construction is additive, so the bound is met with zero slack.
        assert!(b.is_exact(), "non-zero residual: {b:?}");
        assert_eq!(b.component_sum(), b.total);
    }
}

/// Acceptance: two identically-seeded runs produce byte-identical
/// recorded event streams.
#[test]
fn identically_seeded_runs_produce_identical_streams() {
    let run = || {
        let rec = MemoryRecorder::shared();
        let _ = sync_run(
            4,
            25,
            2048,
            CLUSTERED,
            99,
            Some(Rc::clone(&rec) as RecorderHandle),
        );
        assert!(!rec.is_empty());
        rec.fingerprint()
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "seeded runs diverged");
    // A different seed must produce a different stream — otherwise the
    // fingerprint is vacuous.
    let rec = MemoryRecorder::shared();
    let _ = sync_run(
        4,
        25,
        2048,
        CLUSTERED,
        100,
        Some(Rc::clone(&rec) as RecorderHandle),
    );
    assert_ne!(first, rec.fingerprint(), "seed is ignored");
}

/// Acceptance: attaching a recorder must not perturb the simulation, so
/// results with the default `NullRecorder` are identical to results with
/// a live `MemoryRecorder` — and therefore unchanged from the seed.
#[test]
fn recording_does_not_perturb_latency_results() {
    let plain = sync_run(2, 40, 512, SPARSE, 7, None);
    let rec = MemoryRecorder::shared();
    let recorded = sync_run(
        2,
        40,
        512,
        SPARSE,
        7,
        Some(Rc::clone(&rec) as RecorderHandle),
    );
    assert!(!rec.is_empty());
    assert_eq!(plain.latency.count(), recorded.latency.count());
    assert_eq!(plain.latency.total(), recorded.latency.total());
    assert_eq!(plain.latency.min(), recorded.latency.min());
    assert_eq!(plain.latency.max(), recorded.latency.max());
}

/// Acceptance: `trail-bench fig3 --trace-out` produces a Chrome trace-event JSON that
/// parses, survives a serialize/parse round trip, and contains at least
/// one event of every disk, blockio, and core event kind.
#[test]
fn fig3_trace_out_round_trips_and_covers_all_kinds() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(dir).expect("tmpdir");
    let trace_path = dir.join("fig3_trace.json");
    let metrics_path = dir.join("fig3_metrics.json");
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_trail-bench"))
        .arg("fig3")
        .arg("40")
        .arg("--trace-out")
        .arg(&trace_path)
        .arg("--metrics-out")
        .arg(&metrics_path)
        .current_dir(dir)
        .status()
        .expect("run trail-bench fig3");
    assert!(status.success(), "trail-bench fig3 exited with {status}");

    let text = std::fs::read_to_string(&trace_path).expect("read trace");
    let trace = JsonValue::parse(&text).expect("trace parses");
    // Round trip: serialize and parse again, structure must be identical.
    let again = JsonValue::parse(&trace.to_json()).expect("round trip parses");
    assert_eq!(trace, again, "trace JSON does not round-trip");

    let events = trace
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array");
    for kind in [
        // disk
        "Seek",
        "RotWait",
        "Transfer",
        "FullRotationMiss",
        "TrackSwitch",
        // blockio
        "Enqueue",
        "Dispatch",
        "Complete",
        // core
        "PredictHit",
        "PredictMiss",
        "Reposition",
        "BatchFlush",
        "WriteBack",
    ] {
        assert!(
            events
                .iter()
                .any(|e| e.get("name").and_then(|n| n.as_str()) == Some(kind)),
            "trace has no {kind} event"
        );
    }

    let metrics_text = std::fs::read_to_string(&metrics_path).expect("read metrics");
    let metrics = JsonValue::parse(&metrics_text).expect("metrics parse");
    assert!(metrics.get("events").is_some(), "metrics lack event counts");
}
