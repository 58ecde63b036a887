//! Criterion benchmarks: wall-clock performance of the library's hot
//! paths, plus scaled-down versions of each paper experiment so `cargo
//! bench` exercises every harness end to end.
//!
//! The *virtual-time* results that reproduce the paper's tables are
//! produced by the `src/bin/*` harnesses; these benches measure how fast
//! the reproduction itself runs (events per second matters when the TPC-C
//! harness simulates tens of millions of events).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use trail_bench::{sync_writes_standard, sync_writes_trail, tpcc_setup, ArrivalMode, TpccRig};
use trail_core::format::{build_record, payload_checksum, RecordHeader, RecordWrite};
use trail_core::{HeadPredictor, TrailConfig};
use trail_db::FlushPolicy;
use trail_disk::{profiles, SectorBuf, SECTOR_SIZE};
use trail_sim::{SimDuration, SimTime};
use trail_tpcc::{run, ChainOn, RunConfig};

fn bench_prediction(c: &mut Criterion) {
    let p = profiles::seagate_st41601n();
    let mut predictor = HeadPredictor::new(p.geometry, p.mech.rotation_period, 12);
    predictor.set_reference(SimTime::ZERO, 1234);
    c.bench_function("predict_same_track", |b| {
        let mut t = 0u64;
        b.iter(|| {
            t = t.wrapping_add(37_000);
            black_box(predictor.predict_same_track(SimTime::from_nanos(t)))
        })
    });
    c.bench_function("predict_on_track", |b| {
        let mut t = 0u64;
        b.iter(|| {
            t = t.wrapping_add(37_000);
            black_box(predictor.predict_on_track(500, SimTime::from_nanos(t), 0))
        })
    });
}

fn bench_record_codec(c: &mut Criterion) {
    // Four 4-KB writes, as a full batch of queued writes would arrive.
    let buffers: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 8 * SECTOR_SIZE]).collect();
    let payload: Vec<RecordWrite<'_>> = buffers
        .iter()
        .enumerate()
        .map(|(i, data)| RecordWrite {
            data_major: 1,
            data_minor: 0,
            data_lba: 1000 + 8 * i as u32,
            data,
        })
        .collect();
    c.bench_function("build_record_32_sectors", |b| {
        b.iter(|| black_box(build_record(3, 42, Some(77), 50, 40, 2000, &payload).unwrap()))
    });
    let (_, bytes) = build_record(3, 42, Some(77), 50, 40, 2000, &payload).unwrap();
    c.bench_function("payload_checksum_16kb", |b| {
        b.iter(|| black_box(payload_checksum(black_box(&bytes[SECTOR_SIZE..]))))
    });
    let header: SectorBuf = bytes[..SECTOR_SIZE].try_into().unwrap();
    c.bench_function("decode_record_header", |b| {
        b.iter(|| black_box(RecordHeader::decode(&header).unwrap()))
    });
}

fn bench_fig3_slice(c: &mut Criterion) {
    c.bench_function("fig3_trail_sparse_1k_x50", |b| {
        b.iter(|| {
            black_box(sync_writes_trail(
                TrailConfig::default(),
                1,
                50,
                1024,
                ArrivalMode::Sparse {
                    gap: SimDuration::from_millis(5),
                },
                7,
                None,
            ))
        })
    });
    c.bench_function("fig3_standard_clustered_1k_x50", |b| {
        b.iter(|| {
            black_box(sync_writes_standard(
                1,
                50,
                1024,
                ArrivalMode::Clustered,
                9,
                None,
            ))
        })
    });
}

fn bench_tpcc_slice(c: &mut Criterion) {
    // A small TPC-C slice end to end (population dominates, so batch it).
    c.bench_function("table2_trail_slice_100txn", |b| {
        b.iter_batched(
            || {
                tpcc_setup(
                    true,
                    &TpccRig {
                        scale: trail_tpcc::Scale::tiny(),
                        cache_pages: 64,
                        policy: FlushPolicy::EveryCommit,
                        ..TpccRig::default()
                    },
                    None,
                )
            },
            |mut setup| {
                black_box(run(
                    &mut setup.sim,
                    &setup.db,
                    setup.workload,
                    RunConfig {
                        transactions: 100,
                        concurrency: 1,
                        chain_on: ChainOn::Durable,
                    },
                ))
            },
            BatchSize::LargeInput,
        )
    });
}

criterion_group!(
    benches,
    bench_prediction,
    bench_record_codec,
    bench_fig3_slice,
    bench_tpcc_slice
);
criterion_main!(benches);
