//! Synthetic workload generators.
//!
//! A [`SyntheticSpec`] fabricates a [`Trace`] from first principles:
//! arrivals from a Poisson process or an on/off burst model, addresses
//! from a uniform, power-law ("Zipf-like" hot region), or
//! sequential-run spatial model, with a configurable read fraction and
//! any number of independent streams. Everything is driven by
//! [`trail_sim::rng`], so a spec is a complete, replayable name for a
//! workload: the same spec yields the same trace, bit for bit.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::{self, Write};

use rand::rngs::SmallRng;
use rand::Rng;

use trail_sim::{rng, SimDuration, SimTime};
use trail_telemetry::StreamId;

use crate::codec::{RecordSource, TraceError, TraceWriter};
use crate::format::{ChunkEncoding, Trace, TraceMeta, TraceOp, TraceRecord};

/// How request arrival instants are drawn.
#[derive(Clone, Copy, Debug)]
pub enum ArrivalModel {
    /// A Poisson process: independent exponential inter-arrival times
    /// with the given mean.
    Poisson {
        /// Mean inter-arrival time.
        mean_iat: SimDuration,
    },
    /// An on/off burst process: `burst` back-to-back requests spaced
    /// `iat_in_burst` apart, then an idle `gap`, repeated.
    Bursty {
        /// Requests per burst (at least 1).
        burst: u32,
        /// Spacing inside a burst.
        iat_in_burst: SimDuration,
        /// Idle time between bursts.
        gap: SimDuration,
    },
}

/// How request addresses are drawn.
#[derive(Clone, Copy, Debug)]
pub enum SpatialModel {
    /// Uniformly random over the device.
    Uniform,
    /// Power-law locality: a uniform draw `u` is mapped to
    /// `u^skew · capacity`, concentrating traffic near the start of the
    /// device — a cheap stand-in for Zipf-distributed block popularity
    /// (`skew` 1.0 degenerates to uniform; 2–4 is a pronounced hot
    /// region).
    Zipf {
        /// Concentration exponent (≥ 1.0).
        skew: f64,
    },
    /// Sequential runs: each stream advances a cursor for `run_len`
    /// requests, then jumps to a fresh uniformly random start.
    SequentialRuns {
        /// Requests per sequential run (at least 1).
        run_len: u32,
    },
}

/// A complete description of a synthetic workload.
#[derive(Clone, Debug)]
pub struct SyntheticSpec {
    /// RNG seed; the spec plus the seed fully determine the trace.
    pub seed: u64,
    /// Total number of requests across all streams.
    pub requests: usize,
    /// Number of stack-level devices, assigned round-robin by stream.
    pub devices: u16,
    /// Addressable sectors per device (requests stay below this).
    pub capacity_sectors: u64,
    /// Fraction of requests that are reads (0.0 — all writes — to 1.0).
    pub read_fraction: f64,
    /// Sectors per request.
    pub request_sectors: u32,
    /// Independent workload streams, each with its own arrival process
    /// and spatial cursor, merged in arrival order.
    pub streams: u32,
    /// The arrival model (per stream).
    pub arrivals: ArrivalModel,
    /// The spatial model (per stream).
    pub spatial: SpatialModel,
}

impl Default for SyntheticSpec {
    /// 4-KB writes with 30 % reads, Poisson arrivals at 1 ms mean, one
    /// stream, uniform over 1 GB of one device.
    fn default() -> Self {
        SyntheticSpec {
            seed: 1,
            requests: 1000,
            devices: 1,
            capacity_sectors: 2 * 1024 * 1024,
            read_fraction: 0.3,
            request_sectors: 8,
            streams: 1,
            arrivals: ArrivalModel::Poisson {
                mean_iat: SimDuration::from_millis(1),
            },
            spatial: SpatialModel::Uniform,
        }
    }
}

/// Generates the trace a spec describes.
///
/// Streams are generated independently (stream `s` draws from seed
/// `seed ⊕ mix(s)`) and stably merged by `(arrival, stream)`, so adding
/// a stream never perturbs the others.
///
/// # Panics
///
/// Panics on a degenerate spec: zero streams/devices, zero-length
/// requests, a `read_fraction` outside `0.0..=1.0`, or a capacity too
/// small to hold one request.
#[must_use]
pub fn generate(spec: &SyntheticSpec) -> Trace {
    let records = merged(spec);
    Trace {
        meta: records.meta.clone(),
        records: records.collect(),
    }
}

/// The trace a spec describes as a [`RecordSource`], generated as it is
/// read: one pending record per stream plus a merge heap, never the
/// whole trace. Its records and metadata are [`generate`]'s.
///
/// # Panics
///
/// Panics on a degenerate spec, like [`generate`].
pub fn generate_records(spec: &SyntheticSpec) -> impl RecordSource + '_ {
    merged(spec)
}

/// Streams the trace a spec describes straight into a chunked
/// [`TraceWriter`] over `w`, never materializing more than one record
/// per stream plus one output chunk. Produces exactly the bytes
/// `to_binary(&generate(spec))` would (with `chunk_records` in the
/// metadata), but at bounded memory for any request count.
///
/// Returns the inner writer, flushed and finished.
///
/// # Errors
///
/// Any I/O error from `w`.
///
/// # Panics
///
/// Panics on a degenerate spec, like [`generate`].
pub fn generate_stream<W: Write>(spec: &SyntheticSpec, chunk_records: u32, w: W) -> io::Result<W> {
    let records = merged(spec);
    let meta = TraceMeta {
        chunk_records,
        ..records.meta.clone()
    };
    let mut writer = TraceWriter::new(w, &meta)?;
    for record in records {
        writer.write_record(&record)?;
    }
    writer.finish()
}

/// The spec's records in canonical `(arrival, stream)` order, lazily:
/// one [`StreamGen`] per stream plus a k-way merge heap, so memory is
/// O(streams) regardless of `spec.requests`. Within a stream arrivals
/// are non-decreasing and only one record per stream is pending at a
/// time, so heap keys never tie — the merge reproduces exactly what a
/// stable `(at, stream)` sort of the concatenated per-stream runs
/// produced before generation streamed.
fn merged(spec: &SyntheticSpec) -> Merged<'_> {
    assert!(spec.streams >= 1, "at least one stream");
    assert!(spec.devices >= 1, "at least one device");
    assert!(spec.request_sectors >= 1, "non-empty requests");
    assert!(
        (0.0..=1.0).contains(&spec.read_fraction),
        "read fraction in [0, 1]"
    );
    assert!(
        spec.capacity_sectors > u64::from(spec.request_sectors),
        "capacity must exceed one request"
    );
    let usable = spec.capacity_sectors - u64::from(spec.request_sectors);
    let mut gens: Vec<StreamGen> = (0..spec.streams)
        .map(|stream| StreamGen::new(spec, stream))
        .collect();
    let mut pending: Vec<Option<TraceRecord>> = Vec::with_capacity(gens.len());
    let mut heap = BinaryHeap::with_capacity(gens.len());
    for (slot, g) in gens.iter_mut().enumerate() {
        let first = g.step(spec, usable);
        if let Some(r) = &first {
            heap.push(Reverse((r.at, r.stream, slot)));
        }
        pending.push(first);
    }
    Merged {
        meta: TraceMeta {
            source: "synthetic".to_string(),
            seed: spec.seed,
            devices: spec.devices,
            note: format!(
                "{} requests, {} stream(s), {:?}, {:?}",
                spec.requests, spec.streams, spec.arrivals, spec.spatial
            ),
            chunk_records: 0,
            encoding: ChunkEncoding::Raw,
        },
        spec,
        usable,
        gens,
        pending,
        heap,
    }
}

struct Merged<'a> {
    meta: TraceMeta,
    spec: &'a SyntheticSpec,
    usable: u64,
    gens: Vec<StreamGen>,
    /// Each stream's next (already drawn) record.
    pending: Vec<Option<TraceRecord>>,
    /// Min-heap over the pending records, keyed `(at, stream)`.
    heap: BinaryHeap<Reverse<(SimTime, StreamId, usize)>>,
}

impl Iterator for Merged<'_> {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        let Reverse((_, _, slot)) = self.heap.pop()?;
        let record = self.pending[slot].take().expect("heap entry has a record");
        if let Some(next) = self.gens[slot].step(self.spec, self.usable) {
            self.heap.push(Reverse((next.at, next.stream, slot)));
            self.pending[slot] = Some(next);
        }
        Some(record)
    }
}

impl RecordSource for Merged<'_> {
    fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    fn next_record(&mut self) -> Option<Result<TraceRecord, TraceError>> {
        self.next().map(Ok)
    }
}

/// One stream's lazy generator state: its RNG, arrival clock, and
/// spatial cursor.
struct StreamGen {
    rng: SmallRng,
    stream: u32,
    dev: u16,
    remaining: usize,
    index: usize,
    now: SimTime,
    cursor: u64,
    run_left: u32,
}

impl StreamGen {
    fn new(spec: &SyntheticSpec, stream: u32) -> StreamGen {
        StreamGen {
            rng: rng(spec
                .seed
                .wrapping_add(u64::from(stream).wrapping_mul(0x9E37_79B9_7F4A_7C15))),
            stream,
            dev: (stream % u32::from(spec.devices)) as u16,
            remaining: per_stream_count(spec.requests, spec.streams, stream),
            index: 0,
            now: SimTime::ZERO,
            cursor: 0,
            run_left: 0,
        }
    }

    fn step(&mut self, spec: &SyntheticSpec, usable: u64) -> Option<TraceRecord> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.now += next_iat(&mut self.rng, &spec.arrivals, self.index);
        self.index += 1;
        let lba = next_lba(
            &mut self.rng,
            &spec.spatial,
            usable,
            spec.request_sectors,
            &mut self.cursor,
            &mut self.run_left,
        );
        let op = if self.rng.gen::<f64>() < spec.read_fraction {
            TraceOp::Read
        } else {
            TraceOp::Write
        };
        Some(TraceRecord {
            at: self.now,
            op,
            dev: self.dev,
            lba,
            sectors: spec.request_sectors,
            stream: StreamId(self.stream),
        })
    }
}

/// Splits `total` requests over `streams`, earlier streams taking the
/// remainder.
fn per_stream_count(total: usize, streams: u32, stream: u32) -> usize {
    let streams = streams as usize;
    let stream = stream as usize;
    total / streams + usize::from(stream < total % streams)
}

fn next_iat(r: &mut impl Rng, model: &ArrivalModel, index: usize) -> SimDuration {
    match model {
        ArrivalModel::Poisson { mean_iat } => {
            // Inverse-CDF exponential draw; u < 1 keeps ln finite.
            let u: f64 = r.gen();
            SimDuration::from_nanos((mean_iat.as_nanos() as f64 * -(1.0 - u).ln()) as u64)
        }
        ArrivalModel::Bursty {
            burst,
            iat_in_burst,
            gap,
        } => {
            let burst = (*burst).max(1) as usize;
            if index > 0 && index.is_multiple_of(burst) {
                *gap
            } else {
                *iat_in_burst
            }
        }
    }
}

fn next_lba(
    r: &mut impl Rng,
    model: &SpatialModel,
    usable: u64,
    sectors: u32,
    cursor: &mut u64,
    run_left: &mut u32,
) -> u64 {
    match model {
        SpatialModel::Uniform => r.gen_range(0..=usable),
        SpatialModel::Zipf { skew } => {
            let u: f64 = r.gen();
            ((u.powf(skew.max(1.0)) * usable as f64) as u64).min(usable)
        }
        SpatialModel::SequentialRuns { run_len } => {
            if *run_left == 0 {
                *run_left = (*run_len).max(1);
                *cursor = r.gen_range(0..=usable);
            } else {
                *cursor = (*cursor + u64::from(sectors)) % (usable + 1);
            }
            *run_left -= 1;
            *cursor
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = SyntheticSpec {
            streams: 3,
            requests: 300,
            devices: 2,
            ..SyntheticSpec::default()
        };
        let a = generate(&spec);
        let b = generate(&spec);
        assert_eq!(a, b);
        assert_eq!(a.len(), 300);
        assert!(a.validate().is_ok());
        assert_eq!(a.max_dev(), Some(1));
    }

    #[test]
    fn streamed_generation_matches_the_in_memory_bytes() {
        let spec = SyntheticSpec {
            streams: 3,
            requests: 300,
            devices: 2,
            ..SyntheticSpec::default()
        };
        let in_memory = generate(&spec);
        let streamed = generate_stream(&spec, 0, Vec::new()).expect("vec sink");
        assert_eq!(streamed, crate::codec::to_binary(&in_memory));
        // A non-default chunk size changes the layout, not the records.
        let chunked = generate_stream(&spec, 7, Vec::new()).expect("vec sink");
        let back = crate::codec::from_binary(&chunked).expect("decode");
        assert_eq!(back.records, in_memory.records);
        assert_eq!(back.meta.chunk_records, 7);
        // The record source is the same trace, read lazily.
        let mut source = generate_records(&spec);
        assert_eq!(source.meta(), &in_memory.meta);
        let records: Vec<TraceRecord> = std::iter::from_fn(|| source.next_record())
            .map(|r| r.expect("generation cannot fail"))
            .collect();
        assert_eq!(records, in_memory.records);
    }

    #[test]
    fn adding_a_stream_leaves_existing_streams_alone() {
        let one = generate(&SyntheticSpec {
            streams: 1,
            requests: 100,
            ..SyntheticSpec::default()
        });
        let two = generate(&SyntheticSpec {
            streams: 2,
            requests: 200,
            ..SyntheticSpec::default()
        });
        let stream0: Vec<_> = two
            .records
            .iter()
            .filter(|r| r.stream == StreamId(0))
            .collect();
        assert_eq!(stream0.len(), 100);
        for (a, b) in one.records.iter().zip(stream0) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn read_fraction_is_respected() {
        let all_writes = generate(&SyntheticSpec {
            read_fraction: 0.0,
            ..SyntheticSpec::default()
        });
        assert!(all_writes.records.iter().all(|r| r.op == TraceOp::Write));
        let all_reads = generate(&SyntheticSpec {
            read_fraction: 1.0,
            ..SyntheticSpec::default()
        });
        assert!(all_reads.records.iter().all(|r| r.op == TraceOp::Read));
    }

    #[test]
    fn zipf_concentrates_low_addresses() {
        let base = SyntheticSpec {
            requests: 2000,
            ..SyntheticSpec::default()
        };
        let uniform = generate(&SyntheticSpec {
            spatial: SpatialModel::Uniform,
            ..base.clone()
        });
        let zipf = generate(&SyntheticSpec {
            spatial: SpatialModel::Zipf { skew: 3.0 },
            ..base
        });
        let median = |t: &Trace| {
            let mut lbas: Vec<u64> = t.records.iter().map(|r| r.lba).collect();
            lbas.sort_unstable();
            lbas[lbas.len() / 2]
        };
        assert!(median(&zipf) < median(&uniform) / 4);
    }

    #[test]
    fn sequential_runs_advance_by_request_size() {
        let t = generate(&SyntheticSpec {
            spatial: SpatialModel::SequentialRuns { run_len: 8 },
            requests: 64,
            ..SyntheticSpec::default()
        });
        let sequential_steps = t
            .records
            .windows(2)
            .filter(|w| w[1].lba == w[0].lba + u64::from(w[0].sectors))
            .count();
        // 8-long runs: at least ~3/4 of the steps are sequential.
        assert!(sequential_steps >= 48, "{sequential_steps} of 63");
    }

    #[test]
    fn bursty_arrivals_alternate_bursts_and_gaps() {
        let t = generate(&SyntheticSpec {
            arrivals: ArrivalModel::Bursty {
                burst: 4,
                iat_in_burst: SimDuration::from_micros(10),
                gap: SimDuration::from_millis(5),
            },
            requests: 16,
            ..SyntheticSpec::default()
        });
        let gaps = t
            .records
            .windows(2)
            .filter(|w| w[1].at - w[0].at >= SimDuration::from_millis(5))
            .count();
        assert_eq!(gaps, 3);
    }
}
