//! Public calls timed in isolation, in a fresh child of their own (so the
//! store probe's resident-set delta is not served from memory an earlier
//! workload freed). Each probe is one host span.

use std::cell::Cell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use trail_disk::{SectorStore, SECTOR_SIZE};
use trail_sim::{SimDuration, Simulator};
use trail_tpcc::{CpuModel, Scale, Workload};
use trail_trace::{generate, ChunkEncoding, TraceReader, TraceWriter};

use crate::procfs;
use crate::report::{put, Ctx, Metrics};
use crate::stats::{mix64, sub_seed};
use crate::workloads::replay;

/// Events kept pending while the executor probes run.
const PENDING: u64 = 1_024;

/// One self-rescheduling event: every firing is one pop plus one schedule.
fn tick(sim: &mut Simulator, left: Rc<Cell<u64>>, salt: u64) {
    if left.get() == 0 {
        return;
    }
    left.set(left.get() - 1);
    let next = mix64(salt);
    sim.schedule_in(SimDuration::from_nanos(1 + next % 1_000_000), move |sim| {
        tick(sim, left, next)
    });
}

/// `Simulator::schedule_in` + `run` alone: nanoseconds per scheduled and
/// popped event with ~1 k events pending.
fn sched_pop_ns(seed: u64, fires: u64) -> f64 {
    let mut sim = Simulator::new();
    let left = Rc::new(Cell::new(fires));
    for lane in 0..PENDING {
        let left = Rc::clone(&left);
        let salt = sub_seed(seed, lane);
        sim.schedule_in(SimDuration::from_nanos(1 + salt % 1_000_000), move |sim| {
            tick(sim, left, salt)
        });
    }
    let t0 = Instant::now();
    sim.run();
    let ns = t0.elapsed().as_nanos() as f64;
    ns / sim.events_executed() as f64
}

/// `Simulator::cancel` alone: nanoseconds per cancelled event, cancelling
/// batches scheduled on top of ~1 k pending ones.
fn cancel_ns(seed: u64, cancels: u64) -> f64 {
    let mut sim = Simulator::new();
    for lane in 0..PENDING {
        sim.schedule_in(
            SimDuration::from_secs(3_600 + sub_seed(seed, lane) % 3_600),
            |_| {},
        );
    }
    let mut spent = 0u128;
    let mut done = 0u64;
    let mut salt = seed;
    while done < cancels {
        let ids: Vec<_> = (0..PENDING)
            .map(|_| {
                salt = mix64(salt);
                sim.schedule_in(SimDuration::from_nanos(1 + salt % 1_000_000_000), |_| {})
            })
            .collect();
        let t0 = Instant::now();
        for id in ids {
            assert!(sim.cancel(id), "a pending event cancels");
        }
        spent += t0.elapsed().as_nanos();
        done += PENDING;
    }
    assert_eq!(sim.events_pending() as u64, PENDING);
    spent as f64 / done as f64
}

/// A bare `SectorStore` filled with `sectors` distinct sectors, then read
/// back: nanoseconds per sector each way and resident bytes per sector.
fn store(out: &mut Metrics, seed: u64, sectors: u64) {
    let capacity = u64::MAX;
    // `mix64` is a bijection: distinct inputs, distinct (scattered) sectors.
    let lba_of = |i: u64| mix64(i ^ seed).min(capacity - 1);
    let rss_before = procfs::read_self().vm_rss_kb;
    let mut s = SectorStore::new(capacity);
    let mut buf = [0u8; SECTOR_SIZE];
    let t0 = Instant::now();
    for i in 0..sectors {
        buf[0] = i as u8;
        s.write_sector(lba_of(i), &buf);
    }
    let write_ns = t0.elapsed().as_nanos() as f64;
    let rss_after = procfs::read_self().vm_rss_kb;
    let t0 = Instant::now();
    let mut sum = 0u64;
    for i in 0..sectors {
        s.read_into(lba_of(i), &mut buf);
        sum += u64::from(buf[0]);
    }
    let read_ns = t0.elapsed().as_nanos() as f64;
    black_box(sum);
    let written = s.written_sectors() as f64;
    put(
        out,
        "disk.store.probe.write_ns_per_sector",
        write_ns / sectors as f64,
    );
    put(
        out,
        "disk.store.probe.read_ns_per_sector",
        read_ns / sectors as f64,
    );
    put(
        out,
        "disk.store.probe.rss_bytes_per_sector",
        rss_after.saturating_sub(rss_before) as f64 * 1024.0 / written,
    );
}

/// `Workload::next_txn` alone: nanoseconds per generated transaction.
fn tpcc_gen_ns(seed: u64, txns: u64) -> f64 {
    let mut w = Workload::new(Scale::standard_w1(), sub_seed(seed, 0), CpuModel::default());
    let t0 = Instant::now();
    for _ in 0..txns {
        black_box(w.next_txn());
    }
    t0.elapsed().as_nanos() as f64 / txns as f64
}

/// The delta codec alone, over records already in memory: nanoseconds per
/// record to encode, and to decode (CRC check included).
fn trace_codec(out: &mut Metrics, seed: u64, records: usize) {
    let trace = generate(&replay::spec(seed, records));
    let mut meta = trace.meta.clone();
    meta.encoding = ChunkEncoding::Delta;
    let t0 = Instant::now();
    let mut w = TraceWriter::new(Vec::new(), &meta).expect("writing to memory");
    for r in &trace.records {
        w.write_record(r).expect("writing to memory");
    }
    let bytes = w.finish().expect("writing to memory");
    let encode_ns = t0.elapsed().as_nanos() as f64;
    let t0 = Instant::now();
    let mut reader = TraceReader::new(&bytes[..]).expect("header decodes");
    let decoded = reader.records().filter(Result::is_ok).count();
    let decode_ns = t0.elapsed().as_nanos() as f64;
    assert_eq!(decoded, records, "every record decodes");
    put(
        out,
        "trace.probe.encode_ns_per_record",
        encode_ns / records as f64,
    );
    put(
        out,
        "trace.probe.decode_ns_per_record",
        decode_ns / records as f64,
    );
}

/// Runs every probe, sized by `ctx.scale`.
pub fn run(ctx: &mut Ctx) -> Metrics {
    let seed = ctx.seed;
    let mut out = Metrics::new();
    let fires = ctx.sized(1_000_000, 10_000) as u64;
    let v = ctx
        .spans
        .scope("probe.sim.sched_pop", |_| sched_pop_ns(seed, fires));
    put(&mut out, "sim.probe.sched_pop_ns", v);
    let v = ctx
        .spans
        .scope("probe.sim.cancel", |_| cancel_ns(seed, fires / 2));
    put(&mut out, "sim.probe.cancel_ns", v);
    let sectors = ctx.sized(1_000_000, 10_000) as u64;
    ctx.spans
        .scope("probe.disk.store", |_| store(&mut out, seed, sectors));
    let txns = ctx.sized(100_000, 1_000) as u64;
    let v = ctx
        .spans
        .scope("probe.tpcc.gen", |_| tpcc_gen_ns(seed, txns));
    put(&mut out, "tpcc.probe.gen_ns_per_txn", v);
    let records = ctx.sized(200_000, 2_000);
    ctx.spans.scope("probe.trace.codec", |_| {
        trace_codec(&mut out, seed, records)
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::get;

    #[test]
    fn probes_report_positive_costs() {
        assert!(sched_pop_ns(1, 5_000) > 0.0);
        assert!(cancel_ns(1, 2_048) > 0.0);
        assert!(tpcc_gen_ns(1, 200) > 0.0);
        let mut m = Metrics::new();
        store(&mut m, 1, 4_096);
        trace_codec(&mut m, 1, 500);
        for name in [
            "disk.store.probe.write_ns_per_sector",
            "disk.store.probe.read_ns_per_sector",
            "trace.probe.encode_ns_per_record",
            "trace.probe.decode_ns_per_record",
        ] {
            assert!(get(&m, name).unwrap() > 0.0, "{name}");
        }
    }
}
