//! Capture→replay round-trip determinism.
//!
//! The contract these tests pin down: replaying a trace at 1× while
//! capturing the replayed submissions yields the *same trace back*
//! (open loop — the stack cannot perturb the offered load), and
//! replaying that capture on a fresh identical stack reproduces the
//! original latency fingerprint and report byte for byte.

use trail_core::{owning_log, REGION_SECTORS};
use trail_disk::SECTOR_SIZE;
use trail_trace::{
    from_binary, generate, replay, to_binary, ReplayOptions, SyntheticSpec, TargetKind,
    TraceCapture, TraceMeta, TraceOp,
};

fn spec() -> SyntheticSpec {
    SyntheticSpec {
        seed: 77,
        requests: 60,
        read_fraction: 0.2,
        ..SyntheticSpec::default()
    }
}

#[test]
fn capture_of_a_replay_reproduces_the_trace() {
    let trace = generate(&spec());
    let cap = TraceCapture::new();
    let report = replay(
        &trace,
        &ReplayOptions {
            target: TargetKind::Trail,
            tap: Some(cap.handle()),
            ..ReplayOptions::default()
        },
    )
    .expect("replay");
    let mut captured = cap.take(TraceMeta {
        source: "capture:replay".to_string(),
        seed: trace.meta.seed,
        ..TraceMeta::default()
    });
    // Captured times are absolute; anchor them at the replay start and
    // the original timeline reappears exactly (1× replay, open loop).
    captured.rebase(report.started_at);
    assert_eq!(captured.len(), trace.len());
    for (got, want) in captured.records.iter().zip(&trace.records) {
        assert_eq!(got.at, want.at);
        assert_eq!(got.op, want.op);
        assert_eq!(got.dev, want.dev);
        assert_eq!(got.lba, want.lba);
        assert_eq!(got.sectors, want.sectors);
    }
}

#[test]
fn captured_trace_replays_with_byte_identical_latencies() {
    let trace = generate(&spec());
    for target in [TargetKind::Standard, TargetKind::Trail] {
        let cap = TraceCapture::new();
        let original = replay(
            &trace,
            &ReplayOptions {
                target,
                tap: Some(cap.handle()),
                ..ReplayOptions::default()
            },
        )
        .expect("first replay");
        let mut captured = cap.take(TraceMeta::default());
        captured.rebase(original.started_at);
        // Round-trip the capture through the binary codec on the way —
        // storage must not perturb it either.
        let captured = from_binary(&to_binary(&captured)).expect("codec");
        let again = replay(
            &captured,
            &ReplayOptions {
                target,
                ..ReplayOptions::default()
            },
        )
        .expect("second replay");
        assert_eq!(
            original.latency_fingerprint, again.latency_fingerprint,
            "{target:?}: capture→replay must reproduce latencies exactly"
        );
        assert_eq!(
            original.to_json().to_json(),
            again.to_json().to_json(),
            "{target:?}: capture→replay must reproduce the report exactly"
        );
        assert_eq!(original.errors, 0);
        assert_eq!(again.errors, 0);
    }
}

#[test]
fn replay_reports_identical_json_across_reruns() {
    // The scenario registry relies on replay JSON being a pure function
    // of (trace, options); exercise that through the public API.
    let trace = generate(&spec());
    let opts = ReplayOptions {
        target: "trail_multi2".parse().unwrap(),
        ..ReplayOptions::default()
    };
    let a = replay(&trace, &opts).expect("a").to_json().to_json();
    let b = replay(&trace, &opts).expect("b").to_json().to_json();
    assert_eq!(a, b);
}

#[test]
fn a_capture_through_a_log_array_records_each_split_request_once() {
    let builder: trail::StackBuilder = "trail_multi2,disks=1,tiny".parse().expect("spec");
    let mut built = builder.build().expect("boot");
    let cap = TraceCapture::new();
    built.set_tap(cap.handle());
    // A write and a read across a region boundary that two logs own: each
    // is split in two, and each is one request.
    let boundary = (1..)
        .map(|k| k * REGION_SECTORS)
        .find(|&b| owning_log(2, 0, b - 1) != owning_log(2, 0, b))
        .expect("a boundary between the two logs");
    let lba = boundary - 2;
    let (stack, sim) = (&built.stack, &mut built.sim);
    let done = sim.completion(|_, d| {
        d.expect("durable");
    });
    (stack.write(sim, 0, lba, vec![7; 4 * SECTOR_SIZE], done)).expect("write");
    let done = sim.completion(|_, d| {
        d.expect("read");
    });
    stack.read(sim, 0, lba, 4, done).expect("read");
    sim.run();
    let trace = cap.take(TraceMeta::default());
    let records: Vec<_> = (trace.records.iter())
        .map(|r| (r.op, r.lba, r.sectors))
        .collect();
    assert_eq!(records, [(TraceOp::Write, lba, 4), (TraceOp::Read, lba, 4)]);
}
