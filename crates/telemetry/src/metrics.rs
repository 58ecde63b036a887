//! Aggregation: histogram rendering and the compact metrics dump.

use std::collections::BTreeMap;

use trail_sim::{DurationHistogram, SimDuration};

use crate::json::JsonValue;
use crate::{Event, EventKind};

/// A latency histogram as a JSON object: the exact `count`, `mean_ms`,
/// `min_ms` and `max_ms`, and the bucketed `p50_ms`, `p95_ms`, `p99_ms`
/// and `p999_ms` (each at most 1/32 above the exact nearest-rank sample).
///
/// # Examples
///
/// ```
/// use trail_sim::{DurationHistogram, SimDuration};
/// use trail_telemetry::histogram_json;
///
/// let h: DurationHistogram = [100u64, 200, 400, 800]
///     .into_iter()
///     .map(SimDuration::from_micros)
///     .collect();
/// let j = histogram_json(&h);
/// assert_eq!(j.get("count").and_then(|v| v.as_f64()), Some(4.0));
/// assert_eq!(j.get("max_ms").and_then(|v| v.as_f64()), Some(0.8));
/// ```
pub fn histogram_json(h: &DurationHistogram) -> JsonValue {
    let ms = |d: SimDuration| JsonValue::Num(d.as_millis_f64());
    JsonValue::obj(vec![
        ("count", JsonValue::Num(h.count() as f64)),
        ("mean_ms", ms(h.mean())),
        ("min_ms", ms(h.min())),
        ("p50_ms", ms(h.percentile(50.0))),
        ("p95_ms", ms(h.percentile(95.0))),
        ("p99_ms", ms(h.percentile(99.0))),
        ("p999_ms", ms(h.percentile(99.9))),
        ("max_ms", ms(h.max())),
    ])
}

/// Aggregates an event stream into a compact metrics document:
/// per-kind event counts, and latency histograms (end-to-end plus each
/// breakdown component) over the `Complete` events.
///
/// Cancelled completions never reach the recorder (the request died
/// before producing an event), so the count lives on the simulator's
/// [`trail_sim::CompletionSink`]; harnesses that track it pass it
/// through [`metrics_json_with_cancelled`]. This form reports zero.
pub fn metrics_json(events: &[Event]) -> JsonValue {
    metrics_json_with_cancelled(events, 0)
}

/// [`metrics_json`] plus the harness's cancelled-completion count
/// (from [`trail_sim::CompletionSink::cancelled_count`]), exported as
/// the top-level `cancelled_completions` field.
pub fn metrics_json_with_cancelled(events: &[Event], cancelled_completions: u64) -> JsonValue {
    let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut total = DurationHistogram::new();
    let mut queue = DurationHistogram::new();
    let mut overhead = DurationHistogram::new();
    let mut seek = DurationHistogram::new();
    let mut rotation = DurationHistogram::new();
    let mut transfer = DurationHistogram::new();
    let mut batch_writes = 0u64;
    let mut group_commits = 0u64;
    for e in events {
        *counts.entry(e.kind.name()).or_insert(0) += 1;
        match e.kind {
            EventKind::Complete { breakdown } => {
                total.record(breakdown.total);
                queue.record(breakdown.queue);
                overhead.record(breakdown.overhead);
                seek.record(breakdown.seek);
                rotation.record(breakdown.rotation);
                transfer.record(breakdown.transfer);
            }
            EventKind::BatchFlush { batch } => batch_writes += u64::from(batch),
            EventKind::GroupCommit { group } => group_commits += u64::from(group),
            _ => {}
        }
    }
    let counts_json = JsonValue::Obj(
        counts
            .iter()
            .map(|(k, v)| (k.to_string(), JsonValue::Num(*v as f64)))
            .collect(),
    );
    JsonValue::obj(vec![
        ("events", JsonValue::Num(events.len() as f64)),
        (
            "cancelled_completions",
            JsonValue::Num(cancelled_completions as f64),
        ),
        ("counts", counts_json),
        (
            "complete_latency",
            JsonValue::obj(vec![
                ("total", histogram_json(&total)),
                ("queue", histogram_json(&queue)),
                ("overhead", histogram_json(&overhead)),
                ("seek", histogram_json(&seek)),
                ("rotation", histogram_json(&rotation)),
                ("transfer", histogram_json(&transfer)),
            ]),
        ),
        (
            "derived",
            JsonValue::obj(vec![
                ("batched_writes", JsonValue::Num(batch_writes as f64)),
                ("group_committed_txns", JsonValue::Num(group_commits as f64)),
            ]),
        ),
    ])
}

/// Serializes [`metrics_json`] to a JSON string ready to write to disk.
pub fn metrics_json_string(events: &[Event]) -> String {
    metrics_json(events).to_json()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Layer, RequestBreakdown};
    use trail_sim::SimTime;

    use proptest::prelude::*;

    fn us(v: u64) -> SimDuration {
        SimDuration::from_micros(v)
    }

    #[test]
    fn histogram_empty_is_defined() {
        // Every field of an empty histogram reads zero, and the JSON has no
        // per-bucket array.
        let j = histogram_json(&DurationHistogram::new());
        let fields = j.as_obj().expect("object");
        assert_eq!(fields.len(), 8);
        for (key, value) in fields {
            assert_eq!(value.as_f64(), Some(0.0), "{key}");
        }
    }

    #[test]
    fn histogram_tracks_exact_extremes_and_bounded_percentiles() {
        let h: DurationHistogram = [0, 10, 20, 40, 5000].into_iter().map(us).collect();
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), SimDuration::ZERO);
        assert_eq!(h.max(), us(5000));
        // p100 is clamped to the exact max, not the bucket bound.
        assert_eq!(h.percentile(100.0), us(5000));
        // The median is the 20 µs sample, within 1/32 above it.
        let p50 = h.percentile(50.0);
        assert!(p50 >= us(20) && p50 <= SimDuration::from_nanos(20_625));
    }

    #[test]
    fn histogram_p999_is_bounded_and_exported() {
        // 999 fast samples and one slow outlier: p99.9 must land on the
        // outlier (the 1000th rank), and p99 stay in the fast cluster.
        let mut h = DurationHistogram::new();
        for _ in 0..999 {
            h.record(us(100));
        }
        h.record(SimDuration::from_millis(50));
        assert_eq!(h.percentile(99.9), h.max());
        let p99 = h.percentile(99.0);
        assert!(p99 >= us(100) && p99 <= SimDuration::from_nanos(103_125));
        // The JSON export carries it, ordered p99 ≤ p99.9 ≤ max.
        let j = histogram_json(&h);
        let get = |k: &str| j.get(k).unwrap().as_f64().unwrap();
        assert!(get("p99_ms") <= get("p999_ms"));
        assert!(get("p999_ms") <= get("max_ms"));
        assert_eq!(get("count"), 1000.0);
    }

    /// Sample values across every bucket regime: exact (< 32 ns), the
    /// millisecond range the simulations record, the whole `u64` range, and
    /// the top bucket, whose largest value is `u64::MAX`.
    fn sample_ns() -> impl Strategy<Value = u64> {
        prop_oneof![
            0u64..32,
            32u64..100_000_000,
            any::<u64>(),
            (u64::MAX - 4096)..=u64::MAX,
        ]
    }

    proptest! {
        /// The histogram against a sorted copy of its samples: the exact
        /// fields equal the oracle's, each percentile lies between the
        /// nearest-rank sample and 1/32 above it (capped at the max), and
        /// merging any split — an empty side included — renders the JSON of
        /// recording everything into one histogram.
        #[test]
        fn histogram_matches_a_sorted_oracle(
            samples in proptest::collection::vec(sample_ns(), 1..64),
            split in any::<usize>(),
            p in 0.0f64..100.0,
        ) {
            let part = |s: &[u64]| -> DurationHistogram {
                s.iter().map(|&ns| SimDuration::from_nanos(ns)).collect()
            };
            let h = part(&samples);
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            let n = sorted.len();
            let sum: u128 = sorted.iter().map(|&ns| u128::from(ns)).sum();
            let max = sorted[n - 1];
            prop_assert_eq!(h.count(), n as u64);
            prop_assert_eq!(h.mean().as_nanos(), (sum / n as u128) as u64);
            prop_assert_eq!(h.min().as_nanos(), sorted[0]);
            prop_assert_eq!(h.max().as_nanos(), max);
            if let Ok(total) = u64::try_from(sum) {
                prop_assert_eq!(h.total().as_nanos(), total);
            }
            for q in [0.0, 50.0, 95.0, 99.0, 99.9, 100.0, p] {
                let rank = ((q / 100.0) * n as f64).ceil().max(1.0) as usize;
                let exact = sorted[rank - 1];
                let got = h.percentile(q).as_nanos();
                let bound = exact.saturating_add(exact / 32).min(max);
                prop_assert!(
                    (exact..=bound).contains(&got),
                    "p{} = {} ns, exact {} ns",
                    q,
                    got,
                    exact
                );
            }
            prop_assert_eq!(h.percentile(100.0).as_nanos(), max);

            let one = histogram_json(&h).to_json();
            let (left, right) = samples.split_at(split % (n + 1));
            let mut merged = part(left);
            merged.merge(&part(right));
            prop_assert_eq!(histogram_json(&merged).to_json(), one.clone());
            prop_assert_eq!(merged.percentile(p), h.percentile(p));
            let mut with_empty = h.clone();
            with_empty.merge(&DurationHistogram::new());
            prop_assert_eq!(histogram_json(&with_empty).to_json(), one.clone());
            let mut into_empty = DurationHistogram::new();
            into_empty.merge(&h);
            prop_assert_eq!(histogram_json(&into_empty).to_json(), one);
        }
    }

    #[test]
    fn metrics_dump_counts_and_aggregates() {
        let breakdown = RequestBreakdown {
            queue: SimDuration::from_micros(1),
            overhead: SimDuration::from_micros(2),
            seek: SimDuration::from_micros(3),
            rotation: SimDuration::from_micros(4),
            transfer: SimDuration::from_micros(5),
            total: SimDuration::from_micros(15),
        };
        let mk = |kind| Event {
            at: SimTime::ZERO,
            dur: SimDuration::ZERO,
            layer: Layer::BlockIo,
            source: "drv".to_string(),
            req: None,
            kind,
        };
        let events = vec![
            mk(EventKind::Complete { breakdown }),
            mk(EventKind::Complete { breakdown }),
            mk(EventKind::BatchFlush { batch: 7 }),
            mk(EventKind::GroupCommit { group: 3 }),
        ];
        let m = metrics_json(&events);
        assert_eq!(m.get("events").unwrap().as_f64(), Some(4.0));
        assert_eq!(m.get("cancelled_completions").unwrap().as_f64(), Some(0.0));
        let with = metrics_json_with_cancelled(&events, 9);
        assert_eq!(
            with.get("cancelled_completions").unwrap().as_f64(),
            Some(9.0)
        );
        let counts = m.get("counts").unwrap();
        assert_eq!(counts.get("Complete").unwrap().as_f64(), Some(2.0));
        assert_eq!(counts.get("BatchFlush").unwrap().as_f64(), Some(1.0));
        let latency = m.get("complete_latency").unwrap();
        assert_eq!(
            latency.get("total").unwrap().get("count").unwrap().as_f64(),
            Some(2.0)
        );
        assert_eq!(
            latency
                .get("queue")
                .unwrap()
                .get("mean_ms")
                .unwrap()
                .as_f64(),
            Some(0.001)
        );
        let derived = m.get("derived").unwrap();
        assert_eq!(derived.get("batched_writes").unwrap().as_f64(), Some(7.0));
        assert_eq!(
            derived.get("group_committed_txns").unwrap().as_f64(),
            Some(3.0)
        );
        // The dump itself must be valid JSON.
        assert!(JsonValue::parse(&metrics_json_string(&events)).is_ok());
    }
}
