//! Properties of the streaming replay dispatcher and of the canonical
//! `(arrival, stream)` record order.
//!
//! The load-bearing claim: the bounded-memory dispatcher, which issues
//! every arrival due at an instant as one batch in file order, produces
//! exactly the report a replay that scheduled each arrival as its own
//! simulator event did. That comparison has been made; its result is
//! the pinned report bytes below, which any change to the issue order or
//! to the same-instant tie-breaks would move.

use std::io::Cursor;

use proptest::prelude::*;

use trail_sim::{Fault, FaultKind, FaultPlan, FaultTarget, SimDuration, SimTime};
use trail_telemetry::histogram_json;
use trail_trace::{
    crc32, from_binary, generate, generate_stream, import_blkparse, replay, replay_stream,
    replay_stream_sharded, to_binary, ArrivalModel, ChunkEncoding, ImportOptions, ReplayOptions,
    ReplayReport, ShardPlan, StreamId, StreamSummaryBuilder, SyntheticSpec, TargetKind, Trace,
    TraceMeta, TraceOp, TraceReader, TraceRecord,
};

fn four_stream_trace(requests: usize) -> Trace {
    generate(&SyntheticSpec {
        requests,
        streams: 4,
        devices: 2,
        read_fraction: 0.3,
        ..SyntheticSpec::default()
    })
}

/// A report's JSON bytes as `(length, CRC-32)`, the way
/// `crates/bench/tests/scenario_artifacts.rs` pins the bench artifacts.
/// The pins below were recorded while a second issue path — every
/// arrival pre-scheduled as its own simulator event — still existed and
/// produced the same bytes; a change that moves them must say why.
fn pin(report: &ReplayReport) -> (usize, u32) {
    let json = report.to_json().to_json();
    (json.len(), crc32(json.as_bytes()))
}

#[test]
fn streaming_replay_matches_its_pinned_report_bytes() {
    let trace = four_stream_trace(80);
    for (target, pinned) in [
        (TargetKind::Standard, (3358, 0xc9e1_e182)),
        ("trail_multi2".parse().unwrap(), (3073, 0xd086_962a)),
    ] {
        let opts = ReplayOptions {
            target,
            ..ReplayOptions::default()
        };
        let report = replay(&trace, &opts).expect("dispatcher");
        assert_eq!(pin(&report), pinned, "{target:?}: report bytes moved");
    }
}

#[test]
fn streaming_replay_is_byte_identical_at_colliding_arrival_instants() {
    // Equal-timestamp arrivals across streams are exactly where a
    // dispatcher bug would reorder tie-breaks; burst arrivals with a
    // fixed in-burst spacing manufacture collisions on purpose.
    let mut trace = generate(&SyntheticSpec {
        requests: 60,
        streams: 3,
        arrivals: ArrivalModel::Bursty {
            burst: 5,
            iat_in_burst: trail_sim::SimDuration::ZERO,
            gap: trail_sim::SimDuration::from_millis(4),
        },
        read_fraction: 0.2,
        ..SyntheticSpec::default()
    });
    trace.normalize();
    let opts = ReplayOptions {
        target: TargetKind::Trail,
        ..ReplayOptions::default()
    };
    let report = replay(&trace, &opts).expect("dispatcher");
    assert_eq!(pin(&report), (2527, 0xa88f_1ce0), "report bytes moved");
}

#[test]
fn replay_reports_per_stream_percentiles_for_a_four_stream_trace() {
    // The acceptance shape: a 4-stream synthetic trace against
    // trail_multi2 reports per-stream latency percentiles.
    let trace = four_stream_trace(60);
    let report = replay(
        &trace,
        &ReplayOptions {
            target: "trail_multi2".parse().unwrap(),
            ..ReplayOptions::default()
        },
    )
    .expect("replay");
    assert_eq!(report.streams.streams(), 4);
    let json = report.to_json();
    let streams = json.get("streams").expect("streams section");
    for stream in ["0", "1", "2", "3"] {
        let lane = streams
            .get(stream)
            .unwrap_or_else(|| panic!("lane {stream}"));
        for key in ["p50_ms", "p95_ms", "p99_ms", "p999_ms"] {
            assert!(
                lane.get("latency").and_then(|l| l.get(key)).is_some(),
                "stream {stream} missing {key}"
            );
        }
    }
}

#[test]
fn imported_fixture_replays_with_cpu_streams() {
    let trace = import_blkparse(
        include_str!("data/sample.blkparse"),
        &ImportOptions::default(),
    )
    .expect("import fixture");
    assert_eq!(trace.meta.devices, 2);
    let mut builder = StreamSummaryBuilder::new();
    for r in &trace.records {
        builder.record(r);
    }
    let summary = builder.finish();
    assert_eq!(summary.len(), 4, "four CPUs in the fixture");
    assert!(summary.iter().all(|s| !s.stream.is_untagged()));
    let report = replay(&trace, &ReplayOptions::default()).expect("replay import");
    assert_eq!(report.requests, trace.len() as u64);
    assert_eq!(report.streams.streams(), 4);
}

/// A 1-shard sharded replay is the unsharded engine plus an identity
/// merge: every field of the report — queue-depth samples and
/// concurrency witnesses included — must match byte for byte.
#[test]
fn sharded_replay_with_one_shard_is_byte_identical_to_streaming() {
    let spec = SyntheticSpec {
        requests: 150,
        streams: 4,
        devices: 2,
        ..SyntheticSpec::default()
    };
    let bytes = generate_stream(&spec, 16, Vec::new()).expect("encode");
    let opts = ReplayOptions {
        target: "trail_multi2".parse().unwrap(),
        ..ReplayOptions::default()
    };
    let plain = replay_stream(
        TraceReader::new(Cursor::new(bytes.clone())).expect("header"),
        &opts,
    )
    .expect("plain replay");
    let one = replay_stream_sharded(
        || TraceReader::new(Cursor::new(bytes.clone())),
        ShardPlan::new(1),
        &opts,
    )
    .expect("sharded replay");
    assert_eq!(one.to_json().to_json(), plain.to_json().to_json());
}

/// Worker thread count is a scheduling knob, not a semantic one: the
/// merged report is byte-identical however many threads run the shards.
#[test]
fn sharded_replay_is_byte_identical_for_any_thread_count() {
    let spec = SyntheticSpec {
        requests: 200,
        streams: 6,
        devices: 3,
        ..SyntheticSpec::default()
    };
    let bytes = generate_stream(&spec, 32, Vec::new()).expect("encode");
    let opts = ReplayOptions {
        target: TargetKind::Standard,
        ..ReplayOptions::default()
    };
    let run = |threads: usize| {
        replay_stream_sharded(
            || TraceReader::new(Cursor::new(bytes.clone())),
            ShardPlan { shards: 3, threads },
            &opts,
        )
        .expect("sharded replay")
        .to_json()
        .to_json()
    };
    let one = run(1);
    assert_eq!(one, run(2));
    assert_eq!(one, run(3));
}

/// The fault plane's non-fatal kinds over a replay: a burst of transient
/// I/O errors plus a latency spike, both armed through the one
/// [`FaultPlan`] grammar, on the standard stack and on Trail (whose log
/// disk takes a burst too). The faulted replay is deterministic
/// (byte-identical across runs) and measurably diverges from the
/// unfaulted timeline. The standard stack hands a transient error to the
/// request; Trail retries every log record and write-back it hits, so at
/// most the data-disk reads among the three charged commands surface.
#[test]
fn transient_error_and_latency_spike_faults_replay_deterministically() {
    let trace = four_stream_trace(150);
    let faults: FaultPlan = "@5000000 data0 err*3; @10000000 data1 slow+2000000*5"
        .parse()
        .expect("plan parses");
    for (target, faults) in [
        (TargetKind::Standard, faults.clone()),
        (
            TargetKind::Trail,
            faults.with(Fault {
                at: SimDuration::from_millis(5),
                target: FaultTarget::Log(0),
                kind: FaultKind::TransientError { count: 2 },
            }),
        ),
    ] {
        let opts = ReplayOptions {
            target,
            faults,
            ..ReplayOptions::default()
        };
        let a = replay(&trace, &opts).expect("faulted replay");
        let b = replay(&trace, &opts).expect("faulted replay again");
        assert_eq!(
            a.to_json().to_json(),
            b.to_json().to_json(),
            "{target:?}: a faulted replay must be as deterministic as a clean one"
        );
        if target == TargetKind::Standard {
            assert!(
                a.errors >= 1,
                "transient errors should surface as counted request errors"
            );
        } else {
            assert!(a.errors <= 3, "Trail surfaced {} errors", a.errors);
        }
        let clean = replay(
            &trace,
            &ReplayOptions {
                target,
                ..ReplayOptions::default()
            },
        )
        .expect("clean replay");
        assert_eq!(clean.errors, 0);
        assert_ne!(
            a.latency_fingerprint, clean.latency_fingerprint,
            "{target:?}: the armed faults never touched the timeline"
        );
    }
}

fn arb_record() -> impl Strategy<Value = TraceRecord> {
    (
        0u64..5_000_000,
        any::<bool>(),
        0u16..3,
        0u64..100_000,
        1u32..64,
        0u32..5,
    )
        .prop_map(|(at_ns, is_read, dev, lba, sectors, stream)| TraceRecord {
            at: SimTime::from_nanos(at_ns),
            op: if is_read {
                TraceOp::Read
            } else {
                TraceOp::Write
            },
            dev,
            lba,
            sectors,
            stream: StreamId(stream),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `normalize` puts any record soup into canonical `(at, stream)`
    /// order, and that order survives a split-by-stream / merge round
    /// trip exactly: each stream's records keep their arrival order, and
    /// re-sorting the concatenated streams rebuilds the trace.
    #[test]
    fn normalize_order_survives_split_merge_round_trips(
        records in proptest::collection::vec(arb_record(), 1..80)
    ) {
        let mut trace = Trace { meta: TraceMeta::default(), records };
        trace.normalize();
        prop_assert!(trace.validate().is_ok());
        let mut merged = Trace { meta: trace.meta.clone(), records: Vec::new() };
        for stream in trace.streams() {
            let part: Vec<TraceRecord> =
                trace.records.iter().filter(|r| r.stream == stream).copied().collect();
            prop_assert!(part.windows(2).all(|w| w[0].at <= w[1].at));
            merged.records.extend(part);
        }
        merged.sort();
        prop_assert_eq!(merged, trace);
    }

    /// `streams` names every stream present exactly once, ascending: the
    /// split by stream never loses or invents records.
    #[test]
    fn split_partitions_the_records(
        records in proptest::collection::vec(arb_record(), 0..60)
    ) {
        let trace = Trace { meta: TraceMeta::default(), records };
        let streams = trace.streams();
        prop_assert!(streams.windows(2).all(|w| w[0] < w[1]));
        let total: usize = streams
            .iter()
            .map(|s| trace.records.iter().filter(|r| r.stream == *s).count())
            .sum();
        prop_assert_eq!(total, trace.len());
    }

    /// Any record soup encodes through the chunked codec and decodes
    /// back exactly, at every chunk size — and re-encoding the decoded
    /// trace reproduces the bytes.
    #[test]
    fn chunked_codec_round_trips_byte_identically(
        records in proptest::collection::vec(arb_record(), 1..120),
        chunk in 1u32..16,
    ) {
        let mut trace = Trace {
            meta: TraceMeta { chunk_records: chunk, ..TraceMeta::default() },
            records,
        };
        trace.normalize();
        let bytes = to_binary(&trace);
        let decoded = from_binary(&bytes).unwrap();
        prop_assert_eq!(&decoded, &trace);
        prop_assert_eq!(to_binary(&decoded), bytes);
    }

    /// Any record soup survives the delta chunk codec exactly, at every
    /// chunk size: decode(encode(t)) == t, re-encoding reproduces the
    /// bytes, and the records agree with a raw encoding of the same
    /// trace.
    #[test]
    fn delta_chunks_round_trip_byte_identically(
        records in proptest::collection::vec(arb_record(), 1..120),
        chunk in 1u32..16,
    ) {
        let mut trace = Trace {
            meta: TraceMeta {
                chunk_records: chunk,
                encoding: ChunkEncoding::Delta,
                ..TraceMeta::default()
            },
            records,
        };
        trace.normalize();
        let bytes = to_binary(&trace);
        let decoded = from_binary(&bytes).unwrap();
        prop_assert_eq!(&decoded, &trace);
        prop_assert_eq!(to_binary(&decoded), bytes);
        let mut raw = trace.clone();
        raw.meta.encoding = ChunkEncoding::Raw;
        let via_raw = from_binary(&to_binary(&raw)).unwrap();
        prop_assert_eq!(via_raw.records, trace.records);
    }

    /// With shared-nothing routing — as many devices as streams, so no
    /// two streams share a disk queue — partitioning by stream cannot
    /// change what any request observes: the sharded replay's merged
    /// latency artifacts equal the single engine's for ANY shard count.
    /// (Concurrency witnesses like max queue depth become per-shard and
    /// are excluded; see the shard module docs.)
    #[test]
    fn sharded_replay_matches_the_single_engine_on_shared_nothing_routing(
        requests in 30usize..120,
        shards in 2u32..6,
        seed in 1u64..500,
    ) {
        let spec = SyntheticSpec {
            seed,
            requests,
            streams: 4,
            devices: 4,
            ..SyntheticSpec::default()
        };
        let bytes = generate_stream(&spec, 16, Vec::new()).expect("encode");
        let opts = ReplayOptions {
            target: TargetKind::Standard,
            ..ReplayOptions::default()
        };
        let single = replay_stream(
            TraceReader::new(Cursor::new(bytes.clone())).expect("header"),
            &opts,
        )
        .expect("single replay");
        let merged = replay_stream_sharded(
            || TraceReader::new(Cursor::new(bytes.clone())),
            ShardPlan { shards, threads: 2 },
            &opts,
        )
        .expect("sharded replay");
        prop_assert_eq!(merged.requests, single.requests);
        prop_assert_eq!(merged.reads, single.reads);
        prop_assert_eq!(merged.writes, single.writes);
        prop_assert_eq!(merged.errors, single.errors);
        prop_assert_eq!(merged.duration, single.duration);
        prop_assert_eq!(merged.latency_fingerprint, single.latency_fingerprint);
        prop_assert_eq!(
            histogram_json(&merged.latency).to_json(),
            histogram_json(&single.latency).to_json()
        );
        prop_assert_eq!(
            histogram_json(&merged.read_latency).to_json(),
            histogram_json(&single.read_latency).to_json()
        );
        prop_assert_eq!(
            histogram_json(&merged.write_latency).to_json(),
            histogram_json(&single.write_latency).to_json()
        );
        prop_assert_eq!(
            merged.streams.to_json().to_json(),
            single.streams.to_json().to_json()
        );
    }
}
