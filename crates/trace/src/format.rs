//! The trace format: a versioned, self-describing stream of timestamped
//! block requests.
//!
//! A [`Trace`] is what every other piece of this crate produces or
//! consumes: the capture tap fills one from a live stack, the synthetic
//! generators fabricate one from a spec, the codecs serialize one to
//! bytes or JSONL, and the replay engine drives a stack from one. The
//! unit of the format is the [`TraceRecord`] — *when* a request arrived,
//! *what* it was (read or write), and *where* it landed (device, LBA,
//! length), plus a stream tag so multi-source workloads stay separable.

use trail_disk::Lba;
use trail_sim::{SimDuration, SimTime};
use trail_telemetry::StreamId;

/// The trace format version, written by both codecs and the only one
/// they read (see `DESIGN.md`, "Workload trace format"): 28-byte
/// little-endian records in length-prefixed chunks, each with a record
/// count, a CRC-32 over its decoded payload and a [`ChunkEncoding`] tag,
/// closed by a footer chunk index. Any other version is rejected.
pub const TRACE_VERSION: u16 = 3;

/// How a chunk's record payload is laid out on disk.
///
/// The tag travels in every chunk header, so a single file may mix
/// encodings and a reader never guesses; [`TraceMeta::encoding`] names
/// the encoding the *writer* applies to every chunk it flushes, keeping
/// encode→decode→re-encode canonical.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ChunkEncoding {
    /// The flat 28-byte little-endian record array.
    #[default]
    Raw,
    /// Column split + per-column delta + zigzag/varint. Arrival times
    /// and LBAs are near-monotone, so deltas collapse; the synthetic
    /// Poisson traces shrink to well under half their raw size.
    Delta,
}

impl ChunkEncoding {
    /// The on-disk tag byte (`0` = raw, `1` = delta).
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            ChunkEncoding::Raw => 0,
            ChunkEncoding::Delta => 1,
        }
    }

    /// Parses an on-disk tag byte.
    #[must_use]
    pub fn from_code(code: u8) -> Option<ChunkEncoding> {
        match code {
            0 => Some(ChunkEncoding::Raw),
            1 => Some(ChunkEncoding::Delta),
            _ => None,
        }
    }

    /// The meta-JSON name (`"raw"` / `"delta"`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ChunkEncoding::Raw => "raw",
            ChunkEncoding::Delta => "delta",
        }
    }

    /// Parses the meta-JSON name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<ChunkEncoding> {
        match name {
            "raw" => Some(ChunkEncoding::Raw),
            "delta" => Some(ChunkEncoding::Delta),
            _ => None,
        }
    }
}

/// What a traced request did.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceOp {
    /// A (durable) write.
    Write,
    /// A read.
    Read,
}

impl TraceOp {
    /// `true` for [`TraceOp::Read`].
    #[must_use]
    pub fn is_read(self) -> bool {
        matches!(self, TraceOp::Read)
    }

    /// The on-disk opcode (`0` = write, `1` = read).
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            TraceOp::Write => 0,
            TraceOp::Read => 1,
        }
    }

    /// Parses an on-disk opcode.
    #[must_use]
    pub fn from_code(code: u8) -> Option<TraceOp> {
        match code {
            0 => Some(TraceOp::Write),
            1 => Some(TraceOp::Read),
            _ => None,
        }
    }

    /// The JSONL letter (`"W"` / `"R"`).
    #[must_use]
    pub fn letter(self) -> &'static str {
        match self {
            TraceOp::Write => "W",
            TraceOp::Read => "R",
        }
    }

    /// Parses the JSONL letter.
    #[must_use]
    pub fn from_letter(letter: &str) -> Option<TraceOp> {
        match letter {
            "W" => Some(TraceOp::Write),
            "R" => Some(TraceOp::Read),
            _ => None,
        }
    }
}

/// One timestamped block request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceRecord {
    /// Arrival instant. In a stored trace this is relative to the trace
    /// epoch (the first record of a captured trace arrives near zero);
    /// the capture tap records absolute simulator time until
    /// [`Trace::rebase`] subtracts the epoch out.
    pub at: SimTime,
    /// Read or write.
    pub op: TraceOp,
    /// Stack-level device index.
    pub dev: u16,
    /// Starting logical block address, in sectors.
    pub lba: Lba,
    /// Request length in sectors (non-zero).
    pub sectors: u32,
    /// Workload stream tag (terminal, generator stream, imported CPU, …);
    /// [`StreamId::UNTAGGED`] when the source does not distinguish
    /// streams.
    pub stream: StreamId,
}

/// Self-description carried by every trace.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct TraceMeta {
    /// Where the trace came from (`"capture:tpcc"`, `"synthetic"`, …).
    pub source: String,
    /// The seed that produced it, for provenance (0 when not seeded).
    pub seed: u64,
    /// Number of stack-level devices the trace addresses.
    pub devices: u16,
    /// Free-form note.
    pub note: String,
    /// Records per chunk the binary codec flushes at; 0 means "use the
    /// codec default" and is preserved as 0 so encodings stay canonical.
    pub chunk_records: u32,
    /// Chunk payload encoding the binary codec writes (every flushed
    /// chunk gets this tag; readers honor the per-chunk byte, so the
    /// field is a writer knob plus provenance, not a reader constraint).
    pub encoding: ChunkEncoding,
}

/// A workload trace: metadata plus records ordered by arrival time.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Trace {
    /// Self-description.
    pub meta: TraceMeta,
    /// The requests, sorted by `(at, stream)`.
    pub records: Vec<TraceRecord>,
}

impl Trace {
    /// Number of records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when the trace holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Span from the first arrival to the last.
    #[must_use]
    pub fn duration(&self) -> SimDuration {
        match (self.records.first(), self.records.last()) {
            (Some(first), Some(last)) => last.at.saturating_duration_since(first.at),
            _ => SimDuration::ZERO,
        }
    }

    /// Highest device index addressed, or `None` for an empty trace.
    #[must_use]
    pub fn max_dev(&self) -> Option<u16> {
        self.records.iter().map(|r| r.dev).max()
    }

    /// Shifts every arrival so that `epoch` becomes time zero (arrivals
    /// before `epoch` clamp to zero). Captured traces carry absolute
    /// simulator times; rebasing to the instant replay started makes a
    /// capture comparable to — and replayable like — a stored trace.
    pub fn rebase(&mut self, epoch: SimTime) {
        for r in &mut self.records {
            r.at = SimTime::ZERO + r.at.saturating_duration_since(epoch);
        }
    }

    /// [`Trace::rebase`] to the first record's arrival, so the trace
    /// starts at time zero.
    pub fn rebase_to_first(&mut self) {
        if let Some(first) = self.records.first() {
            let epoch = first.at;
            self.rebase(epoch);
        }
    }

    /// Stable-sorts records by `(arrival, stream)` — the canonical order
    /// both codecs and the replay engine expect.
    pub fn sort(&mut self) {
        self.records.sort_by_key(|r| (r.at, r.stream));
    }

    /// [`sort`](Trace::sort) then [`rebase_to_first`](Trace::rebase_to_first):
    /// the canonical form every producer ends with — records in
    /// `(arrival, stream)` order, first arrival at time zero.
    pub fn normalize(&mut self) {
        self.sort();
        self.rebase_to_first();
    }

    /// The distinct stream tags present, ascending.
    #[must_use]
    pub fn streams(&self) -> Vec<StreamId> {
        let set: std::collections::BTreeSet<StreamId> =
            self.records.iter().map(|r| r.stream).collect();
        set.into_iter().collect()
    }

    /// Checks the invariants stored traces must satisfy (see
    /// [`RecordCheck`]).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        let mut check = RecordCheck::default();
        self.records.iter().try_for_each(|r| check.check(r))
    }
}

/// The invariants of a stored trace, checked one record at a time so a
/// streamed trace is checked without being held: every request is
/// non-empty, and records are in `(arrival, stream)` order.
#[derive(Debug, Default)]
pub struct RecordCheck {
    checked: u64,
    prev: Option<(SimTime, StreamId)>,
}

impl RecordCheck {
    /// Checks the next record in file order.
    ///
    /// # Errors
    ///
    /// The invariant `r` violates, naming its record index.
    pub fn check(&mut self, r: &TraceRecord) -> Result<(), String> {
        let i = self.checked;
        self.checked += 1;
        let prev = self.prev.replace((r.at, r.stream));
        if r.sectors == 0 {
            return Err(format!("record {i}: zero-length request"));
        }
        if prev.is_some_and(|p| p > (r.at, r.stream)) {
            return Err(format!("records {} and {i} out of order", i - 1));
        }
        Ok(())
    }
}

/// Fragment budget per stream for [`StreamSummaryBuilder`]'s footprint
/// interval map. Below it the footprint is exact; past it the builder
/// coarsens its quantum (doubling it) so memory stays bounded on
/// arbitrarily long traces.
pub const FOOTPRINT_FRAGMENT_BUDGET: usize = 65_536;

/// Per-stream workload breakdown of a trace: feed it records one at a
/// time (in any order) and [`finish`] into the per-stream summaries
/// without ever materializing the trace. Footprints
/// are exact until a stream's interval map exceeds
/// [`FOOTPRINT_FRAGMENT_BUDGET`] fragments, after which the stream's
/// addresses are rounded to a power-of-two quantum (doubling on each
/// overflow) — bounded memory in exchange for a conservative
/// (over-counted) footprint on pathological address patterns.
///
/// [`finish`]: StreamSummaryBuilder::finish
#[derive(Debug, Default)]
pub struct StreamSummaryBuilder {
    streams: std::collections::BTreeMap<StreamId, StreamAccum>,
}

#[derive(Debug)]
struct StreamAccum {
    summary: StreamSummary,
    /// Power-of-two address rounding; 1 = exact.
    quantum: u64,
    /// Coalesced `(dev, start) → end` intervals, ends exclusive.
    intervals: std::collections::BTreeMap<(u16, Lba), Lba>,
}

impl StreamSummaryBuilder {
    /// An empty builder.
    #[must_use]
    pub fn new() -> StreamSummaryBuilder {
        StreamSummaryBuilder::default()
    }

    /// Folds one record into the accumulator.
    pub fn record(&mut self, r: &TraceRecord) {
        let accum = self.streams.entry(r.stream).or_insert_with(|| StreamAccum {
            summary: StreamSummary::empty(r.stream),
            quantum: 1,
            intervals: std::collections::BTreeMap::new(),
        });
        let s = &mut accum.summary;
        s.requests += 1;
        if r.op.is_read() {
            s.reads += 1;
        } else {
            s.writes += 1;
        }
        s.sectors += u64::from(r.sectors);
        s.first_at = s.first_at.min(r.at);
        s.last_at = s.last_at.max(r.at);
        accum.insert(r.dev, r.lba, r.lba.saturating_add(u64::from(r.sectors)));
        while accum.intervals.len() > FOOTPRINT_FRAGMENT_BUDGET {
            accum.coarsen();
        }
    }

    /// The accumulated summaries, ascending by stream tag.
    #[must_use]
    pub fn finish(self) -> Vec<StreamSummary> {
        self.streams
            .into_values()
            .map(|accum| {
                let mut s = accum.summary;
                s.footprint_sectors = accum
                    .intervals
                    .iter()
                    .map(|(&(_, start), &end)| end - start)
                    .sum();
                s
            })
            .collect()
    }
}

impl StreamAccum {
    /// Inserts `[start, end)` on `dev`, coalescing with any touching or
    /// overlapping neighbours.
    fn insert(&mut self, dev: u16, start: Lba, end: Lba) {
        let q = self.quantum;
        let mut start = start / q * q;
        let mut end = end.div_ceil(q) * q;
        if let Some((&(pdev, pstart), &pend)) = self.intervals.range(..=(dev, start)).next_back() {
            if pdev == dev && pend >= start {
                start = pstart;
                end = end.max(pend);
                self.intervals.remove(&(pdev, pstart));
            }
        }
        while let Some((&(ndev, nstart), &nend)) = self.intervals.range((dev, start)..).next() {
            if ndev != dev || nstart > end {
                break;
            }
            end = end.max(nend);
            self.intervals.remove(&(ndev, nstart));
        }
        self.intervals.insert((dev, start), end);
    }

    /// Doubles the quantum and re-buckets every interval; neighbours
    /// that round into each other coalesce, shrinking the map.
    fn coarsen(&mut self) {
        self.quantum = self.quantum.saturating_mul(2);
        let old = std::mem::take(&mut self.intervals);
        for ((dev, start), end) in old {
            self.insert(dev, start, end);
        }
    }
}

/// What one stream of a trace looks like (see [`StreamSummaryBuilder`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StreamSummary {
    /// The stream tag.
    pub stream: StreamId,
    /// Requests in this stream.
    pub requests: u64,
    /// Reads among them.
    pub reads: u64,
    /// Writes among them.
    pub writes: u64,
    /// Total sectors transferred.
    pub sectors: u64,
    /// Distinct sectors addressed (overlapping requests counted once).
    pub footprint_sectors: u64,
    /// First arrival in the stream.
    pub first_at: SimTime,
    /// Last arrival in the stream.
    pub last_at: SimTime,
}

impl StreamSummary {
    fn empty(stream: StreamId) -> StreamSummary {
        StreamSummary {
            stream,
            requests: 0,
            reads: 0,
            writes: 0,
            sectors: 0,
            footprint_sectors: 0,
            first_at: SimTime::from_nanos(u64::MAX),
            last_at: SimTime::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(at_ns: u64, stream: u32) -> TraceRecord {
        TraceRecord {
            at: SimTime::from_nanos(at_ns),
            op: TraceOp::Write,
            dev: 0,
            lba: 8,
            sectors: 8,
            stream: StreamId(stream),
        }
    }

    #[test]
    fn op_codes_round_trip() {
        for op in [TraceOp::Write, TraceOp::Read] {
            assert_eq!(TraceOp::from_code(op.code()), Some(op));
            assert_eq!(TraceOp::from_letter(op.letter()), Some(op));
        }
        assert_eq!(TraceOp::from_code(7), None);
        assert_eq!(TraceOp::from_letter("x"), None);
    }

    #[test]
    fn rebase_shifts_and_clamps() {
        let mut t = Trace {
            meta: TraceMeta::default(),
            records: vec![rec(1000, 0), rec(2500, 0)],
        };
        assert_eq!(t.duration(), SimDuration::from_nanos(1500));
        t.rebase_to_first();
        assert_eq!(t.records[0].at, SimTime::ZERO);
        assert_eq!(t.records[1].at, SimTime::from_nanos(1500));
        // Rebasing past the first arrival clamps instead of wrapping.
        t.rebase(SimTime::from_nanos(1_000_000));
        assert_eq!(t.records[0].at, SimTime::ZERO);
        assert_eq!(t.records[1].at, SimTime::ZERO);
    }

    #[test]
    fn validate_catches_disorder_and_empties() {
        let mut t = Trace {
            meta: TraceMeta::default(),
            records: vec![rec(2000, 0), rec(1000, 0)],
        };
        assert!(t.validate().is_err());
        t.sort();
        assert!(t.validate().is_ok());
        t.records[1].sectors = 0;
        assert_eq!(
            t.validate(),
            Err("record 1: zero-length request".to_string())
        );
        t.records[1].sectors = 8;
        t.records.swap(0, 1);
        assert_eq!(
            t.validate(),
            Err("records 0 and 1 out of order".to_string())
        );
    }

    #[test]
    fn sort_is_stable_within_equal_arrivals() {
        let mut t = Trace {
            meta: TraceMeta::default(),
            records: vec![rec(5, 2), rec(5, 1), rec(1, 9)],
        };
        t.sort();
        assert_eq!(t.records[0].stream, StreamId(9));
        assert_eq!(t.records[1].stream, StreamId(1));
        assert_eq!(t.records[2].stream, StreamId(2));
    }

    #[test]
    fn summary_builder_coarsens_past_the_fragment_budget() {
        let mut accum = StreamAccum {
            summary: StreamSummary::empty(StreamId(1)),
            quantum: 1,
            intervals: std::collections::BTreeMap::new(),
        };
        // Alternating singleton sectors never coalesce at quantum 1…
        for i in 0..6u64 {
            accum.insert(0, i * 2, i * 2 + 1);
        }
        assert_eq!(accum.intervals.len(), 6);
        // …but one doubling rounds them into a single run.
        accum.coarsen();
        assert_eq!(accum.quantum, 2);
        assert_eq!(accum.intervals.len(), 1);
        assert_eq!(accum.intervals.get(&(0, 0)), Some(&12));
    }

    #[test]
    fn per_stream_summary_counts_and_merges_footprint() {
        let mut t = Trace {
            meta: TraceMeta::default(),
            records: vec![
                TraceRecord {
                    at: SimTime::from_nanos(10),
                    op: TraceOp::Write,
                    dev: 0,
                    lba: 0,
                    sectors: 8,
                    stream: StreamId(1),
                },
                TraceRecord {
                    at: SimTime::from_nanos(20),
                    op: TraceOp::Read,
                    // Overlaps the first request: footprint counts the
                    // union, not the sum.
                    dev: 0,
                    lba: 4,
                    sectors: 8,
                    stream: StreamId(1),
                },
                TraceRecord {
                    at: SimTime::from_nanos(30),
                    op: TraceOp::Write,
                    dev: 1,
                    lba: 100,
                    sectors: 2,
                    stream: StreamId(2),
                },
            ],
        };
        t.normalize();
        let mut builder = StreamSummaryBuilder::new();
        for r in &t.records {
            builder.record(r);
        }
        let summary = builder.finish();
        assert_eq!(summary.len(), 2);
        assert_eq!(summary[0].stream, StreamId(1));
        assert_eq!(summary[0].requests, 2);
        assert_eq!(summary[0].reads, 1);
        assert_eq!(summary[0].writes, 1);
        assert_eq!(summary[0].sectors, 16);
        assert_eq!(summary[0].footprint_sectors, 12);
        assert_eq!(summary[1].stream, StreamId(2));
        assert_eq!(summary[1].footprint_sectors, 2);
    }
}
