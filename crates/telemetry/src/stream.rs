//! Stream identity and per-stream metrics.
//!
//! A [`StreamId`] names an independent request source — a TPC-C
//! terminal, a synthetic generator stream, a CPU in an imported
//! blktrace — and survives the whole vertical: trace records carry one,
//! block requests carry one, submission taps report one, and the replay
//! engine aggregates latency per stream through [`StreamMetrics`].
//!
//! Stream `0` is the *untagged* stream ([`StreamId::UNTAGGED`]): the
//! value every layer uses when the submitter does not distinguish
//! sources. Code that branches on stream identity (multi-log routing,
//! per-stream reports) treats untagged requests as "no stream
//! information", not as a stream in their own right.

use std::collections::BTreeMap;
use std::fmt;

use trail_sim::SimDuration;

use crate::json::JsonValue;
use crate::metrics::DurationHistogram;

/// Identity of an independent request stream.
///
/// A plain newtype over `u32` so it costs nothing to carry and orders,
/// hashes, and compares like the raw tag the trace format stores.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct StreamId(pub u32);

impl StreamId {
    /// The stream id used when the submitter does not distinguish
    /// streams (the trace format's `stream = 0`).
    pub const UNTAGGED: StreamId = StreamId(0);

    /// `true` for [`StreamId::UNTAGGED`].
    #[must_use]
    pub fn is_untagged(self) -> bool {
        self == StreamId::UNTAGGED
    }
}

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for StreamId {
    fn from(raw: u32) -> Self {
        StreamId(raw)
    }
}

/// Per-stream accounting: counts, latency histograms, and concurrency.
#[derive(Clone, Debug, Default)]
pub struct StreamLane {
    /// Requests issued on this stream.
    pub requests: u64,
    /// Reads among them.
    pub reads: u64,
    /// Writes among them.
    pub writes: u64,
    /// Requests that errored (rejected, shed, or failed).
    pub errors: u64,
    /// Requests whose completion was cancelled (session teardown, power
    /// loss) — distinct from `errors` so harnesses can separate "the
    /// server said no" from "the request died with its connection".
    pub cancelled: u64,
    /// End-to-end latency over successful requests.
    pub latency: DurationHistogram,
    /// Latency over successful reads.
    pub read_latency: DurationHistogram,
    /// Latency over successful writes.
    pub write_latency: DurationHistogram,
    /// Requests currently in flight.
    pub inflight: u32,
    /// Highest concurrent in-flight count observed.
    pub max_inflight: u32,
}

impl StreamLane {
    /// Folds `other`'s accounting into `self`: counts sum, histograms
    /// merge exactly, and the concurrency high-water marks take the
    /// maximum (each mark is local to its observer — see
    /// [`StreamMetrics::merge`]).
    pub fn merge(&mut self, other: &Self) {
        self.requests += other.requests;
        self.reads += other.reads;
        self.writes += other.writes;
        self.errors += other.errors;
        self.cancelled += other.cancelled;
        self.latency.merge(&other.latency);
        self.read_latency.merge(&other.read_latency);
        self.write_latency.merge(&other.write_latency);
        self.inflight += other.inflight;
        self.max_inflight = self.max_inflight.max(other.max_inflight);
    }

    /// The lane as a JSON object: counts, per-stream queue depth, and
    /// the full latency histograms (p50/p95/p99/p99.9).
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("requests", JsonValue::Num(self.requests as f64)),
            ("reads", JsonValue::Num(self.reads as f64)),
            ("writes", JsonValue::Num(self.writes as f64)),
            ("errors", JsonValue::Num(self.errors as f64)),
            ("cancelled", JsonValue::Num(self.cancelled as f64)),
            (
                "max_queue_depth",
                JsonValue::Num(f64::from(self.max_inflight)),
            ),
            ("latency", self.latency.to_json()),
            ("read_latency", self.read_latency.to_json()),
            ("write_latency", self.write_latency.to_json()),
        ])
    }
}

/// Latency and concurrency metrics keyed by [`StreamId`].
///
/// Lanes materialize on first use and iterate in ascending stream
/// order, so exports are deterministic for a deterministic workload.
#[derive(Clone, Debug, Default)]
pub struct StreamMetrics {
    lanes: BTreeMap<StreamId, StreamLane>,
}

impl StreamMetrics {
    /// Creates an empty set of lanes.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of streams observed.
    #[must_use]
    pub fn streams(&self) -> usize {
        self.lanes.len()
    }

    /// `true` when no stream has issued anything.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// The lane for `stream`, if it has issued anything.
    #[must_use]
    pub fn lane(&self, stream: StreamId) -> Option<&StreamLane> {
        self.lanes.get(&stream)
    }

    /// Iterates lanes in ascending stream order.
    pub fn iter(&self) -> impl Iterator<Item = (StreamId, &StreamLane)> {
        self.lanes.iter().map(|(id, lane)| (*id, lane))
    }

    /// Folds `other`'s lanes into `self`, lane by lane.
    ///
    /// When the two sides observed *disjoint* stream sets (the sharded
    /// replay case) this is pure concatenation into the ordered map and
    /// the result is identical to a single observer's metrics. When a
    /// stream appears on both sides, counts and histograms still merge
    /// exactly, but `max_inflight` becomes the max of two local
    /// high-water marks — a lower bound on the true combined concurrency,
    /// which no pair of independent observers can reconstruct.
    pub fn merge(&mut self, other: &Self) {
        for (id, lane) in &other.lanes {
            self.lanes.entry(*id).or_default().merge(lane);
        }
    }

    /// Every lane folded into one: the counts and histograms a single
    /// observer of all streams would have recorded (histograms merge
    /// exactly), so an aggregate never needs recording beside its lanes.
    #[must_use]
    pub fn total(&self) -> StreamLane {
        let mut all = StreamLane::default();
        for lane in self.lanes.values() {
            all.merge(lane);
        }
        all
    }

    /// Records a request entering flight on `stream`.
    pub fn on_issue(&mut self, stream: StreamId, is_read: bool) {
        let lane = self.lanes.entry(stream).or_default();
        lane.requests += 1;
        if is_read {
            lane.reads += 1;
        } else {
            lane.writes += 1;
        }
        lane.inflight += 1;
        lane.max_inflight = lane.max_inflight.max(lane.inflight);
    }

    /// Records a completion on `stream`; `latency` is `None` for an
    /// errored or cancelled request.
    pub fn on_complete(&mut self, stream: StreamId, is_read: bool, latency: Option<SimDuration>) {
        let lane = self.lanes.entry(stream).or_default();
        lane.inflight = lane.inflight.saturating_sub(1);
        match latency {
            Some(lat) => {
                lane.latency.record(lat);
                if is_read {
                    lane.read_latency.record(lat);
                } else {
                    lane.write_latency.record(lat);
                }
            }
            None => lane.errors += 1,
        }
    }

    /// Records a cancelled completion on `stream` (the request left
    /// flight without an answer: session teardown, power loss).
    pub fn on_cancelled(&mut self, stream: StreamId) {
        let lane = self.lanes.entry(stream).or_default();
        lane.inflight = lane.inflight.saturating_sub(1);
        lane.cancelled += 1;
    }

    /// All lanes as one JSON object keyed by decimal stream id, in
    /// ascending stream order.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Obj(
            self.lanes
                .iter()
                .map(|(id, lane)| (id.to_string(), lane.to_json()))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merging_disjoint_stream_sets_is_concatenation() {
        // Two observers over disjoint streams — the sharded-replay case
        // — merge into exactly what one observer over both would hold.
        let mut a = StreamMetrics::new();
        let mut b = StreamMetrics::new();
        let mut one = StreamMetrics::new();
        for (m, stream) in [(&mut a, StreamId(1)), (&mut b, StreamId(2))] {
            m.on_issue(stream, true);
            m.on_complete(stream, true, Some(SimDuration::from_micros(50)));
            m.on_issue(stream, false);
            m.on_complete(stream, false, None);
        }
        for stream in [StreamId(1), StreamId(2)] {
            one.on_issue(stream, true);
            one.on_complete(stream, true, Some(SimDuration::from_micros(50)));
            one.on_issue(stream, false);
            one.on_complete(stream, false, None);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.streams(), 2);
        assert_eq!(merged.to_json().to_json(), one.to_json().to_json());
        let total = merged.total();
        assert_eq!((total.requests, total.reads, total.errors), (4, 2, 2));
        assert_eq!(total.read_latency.count(), 2);
    }

    #[test]
    fn merging_a_shared_stream_sums_counts_and_maxes_inflight() {
        let mut a = StreamMetrics::new();
        let mut b = StreamMetrics::new();
        a.on_issue(StreamId(5), false);
        a.on_complete(StreamId(5), false, Some(SimDuration::from_micros(10)));
        b.on_issue(StreamId(5), false);
        b.on_issue(StreamId(5), false);
        b.on_complete(StreamId(5), false, Some(SimDuration::from_micros(20)));
        b.on_complete(StreamId(5), false, Some(SimDuration::from_micros(30)));
        a.merge(&b);
        let lane = a.lane(StreamId(5)).expect("merged lane");
        assert_eq!(lane.requests, 3);
        assert_eq!(lane.writes, 3);
        assert_eq!(lane.latency.count(), 3);
        // Two local high-water marks of 1 and 2 → a lower bound of 2.
        assert_eq!(lane.max_inflight, 2);
    }

    #[test]
    fn untagged_is_zero() {
        assert_eq!(StreamId::UNTAGGED, StreamId(0));
        assert!(StreamId::default().is_untagged());
        assert!(!StreamId(3).is_untagged());
        assert_eq!(StreamId::from(7u32), StreamId(7));
        assert_eq!(StreamId(12).to_string(), "12");
    }

    #[test]
    fn lanes_track_counts_and_concurrency() {
        let mut m = StreamMetrics::new();
        m.on_issue(StreamId(1), false);
        m.on_issue(StreamId(1), true);
        m.on_issue(StreamId(2), false);
        m.on_complete(StreamId(1), false, Some(SimDuration::from_micros(100)));
        m.on_complete(StreamId(1), true, None);
        m.on_complete(StreamId(2), false, Some(SimDuration::from_micros(300)));
        assert_eq!(m.streams(), 2);
        let one = m.lane(StreamId(1)).expect("lane 1");
        assert_eq!((one.requests, one.reads, one.writes), (2, 1, 1));
        assert_eq!(one.errors, 1);
        assert_eq!(one.max_inflight, 2);
        assert_eq!(one.inflight, 0);
        assert_eq!(one.latency.count(), 1);
        assert!(m.lane(StreamId(0)).is_none());
    }

    #[test]
    fn json_is_keyed_by_stream_in_order() {
        let mut m = StreamMetrics::new();
        m.on_issue(StreamId(9), false);
        m.on_issue(StreamId(2), true);
        let json = m.to_json();
        let fields = json.as_obj().expect("object");
        assert_eq!(fields[0].0, "2");
        assert_eq!(fields[1].0, "9");
        assert!(json.get("9").and_then(|l| l.get("writes")).is_some());
    }

    #[test]
    fn cancelled_is_tracked_apart_from_errors() {
        let mut m = StreamMetrics::new();
        m.on_issue(StreamId(3), false);
        m.on_issue(StreamId(3), false);
        m.on_complete(StreamId(3), false, None);
        m.on_cancelled(StreamId(3));
        let lane = m.lane(StreamId(3)).expect("lane");
        assert_eq!((lane.errors, lane.cancelled, lane.inflight), (1, 1, 0));
        let j = lane.to_json();
        assert_eq!(j.get("cancelled").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn completion_on_unissued_stream_does_not_underflow() {
        let mut m = StreamMetrics::new();
        m.on_complete(StreamId(4), false, None);
        assert_eq!(m.lane(StreamId(4)).expect("lane").inflight, 0);
    }
}
