//! Measurement helpers: the latency histogram and busy-time accounting.
//!
//! Every experiment in the paper reports either a latency distribution
//! (§5.1, Figures 3 and 4), a total elapsed/busy time (Tables 1 and 2), or
//! a count (Table 3, a plain integer field). [`DurationHistogram`] is the
//! one latency collector of the workspace: disk, driver, volume, replay and
//! fleet statistics all record into it, and `trail-telemetry` renders it as
//! JSON. Its memory is bounded by the largest value recorded, never by the
//! number of samples.

use crate::time::{SimDuration, SimTime};

/// Linear sub-buckets per power of two, as a bit count: each octave
/// `[2^k, 2^(k+1))` with `k >= SUB_BITS` splits into `2^SUB_BITS` buckets.
const SUB_BITS: u32 = 5;
const SUB_BUCKETS: u64 = 1 << SUB_BITS;

/// The bucket holding `ns`. Values below `2 * SUB_BUCKETS` (64 ns) get a
/// bucket each; above, a bucket spans `2^shift` values whose smallest is
/// at least `SUB_BUCKETS * 2^shift`, so the relative width is ≤ 1/32.
fn bucket_of(ns: u64) -> usize {
    if ns < SUB_BUCKETS {
        return ns as usize;
    }
    let shift = 63 - ns.leading_zeros() - SUB_BITS;
    ((u64::from(shift) + 1) * SUB_BUCKETS + (ns >> shift) - SUB_BUCKETS) as usize
}

/// The largest value bucket `i` holds (the inverse of [`bucket_of`]).
fn bucket_max(i: usize) -> u64 {
    let i = i as u64;
    if i < SUB_BUCKETS {
        return i;
    }
    let shift = i / SUB_BUCKETS - 1;
    let lead = i % SUB_BUCKETS + SUB_BUCKETS;
    // `lead << shift` is the bucket's smallest value; adding the width
    // minus one (rather than shifting `lead + 1`) cannot overflow at the
    // top bucket, whose largest value is `u64::MAX`.
    (lead << shift) + ((1 << shift) - 1)
}

/// A log-linear histogram of durations: the latency statistic every
/// stats struct and report in the workspace keeps.
///
/// Each power of two of nanoseconds splits into 32 linear sub-buckets, so
/// values below 64 ns are exact and any other bucket is at most 1/32 of its
/// smallest value wide. The bucket vector grows only to the highest bucket
/// recorded (a few KB for millisecond latencies). `count`, the sum, `min`
/// and `max` are kept exactly, so [`mean`](Self::mean) and
/// [`total`](Self::total) are exact integer nanoseconds; only
/// [`percentile`](Self::percentile) is bucketed. Merging adds bucket by
/// bucket, so merged histograms equal one histogram of all the samples,
/// in any merge order.
///
/// # Examples
///
/// ```
/// use trail_sim::{DurationHistogram, SimDuration};
///
/// let mut h = DurationHistogram::new();
/// for ms in [1u64, 2, 3, 4] {
///     h.record(SimDuration::from_millis(ms));
/// }
/// assert_eq!(h.mean(), SimDuration::from_micros(2_500));
/// assert_eq!(h.max(), SimDuration::from_millis(4));
/// // The median is the 2 ms sample's bucket edge, within 1/32 above it.
/// let p50 = h.percentile(50.0);
/// assert!(p50 >= SimDuration::from_millis(2));
/// assert!(p50 <= SimDuration::from_micros(2_062));
/// ```
#[derive(Clone, Debug)]
pub struct DurationHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

impl Default for DurationHistogram {
    fn default() -> Self {
        DurationHistogram {
            buckets: Vec::new(),
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }
}

impl DurationHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one sample.
    pub fn record(&mut self, d: SimDuration) {
        let ns = d.as_nanos();
        let i = bucket_of(ns);
        if i >= self.buckets.len() {
            self.buckets.resize(i + 1, 0);
        }
        self.buckets[i] += 1;
        self.count += 1;
        self.sum_ns += u128::from(ns);
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Folds `other`'s samples into `self`, exactly: the result is the
    /// histogram one observer of both sample sets would have recorded,
    /// whatever the merge order. An empty histogram is the identity.
    pub fn merge(&mut self, other: &Self) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples.
    ///
    /// # Panics
    ///
    /// Panics if the sum exceeds the `u64` nanosecond range, as adding
    /// the samples as [`SimDuration`]s would.
    pub fn total(&self) -> SimDuration {
        SimDuration::from_nanos(u64::try_from(self.sum_ns).expect("virtual duration overflow"))
    }

    /// Exact arithmetic mean (the sum over the count, rounded down to a
    /// nanosecond), or zero if empty.
    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos((self.sum_ns / u128::from(self.count)) as u64)
        }
    }

    /// Exact smallest sample, or zero if empty.
    pub fn min(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(self.min_ns)
        }
    }

    /// Exact largest sample, or zero if empty.
    pub fn max(&self) -> SimDuration {
        SimDuration::from_nanos(self.max_ns)
    }

    /// The `p`-th percentile (0.0–100.0) by nearest rank, resolved to the
    /// largest value of the sample's bucket and capped at the exact
    /// maximum: at least the exact nearest-rank sample and at most 1/32
    /// above it. p100 is the exact maximum; an empty histogram reads zero.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `0.0..=100.0`.
    pub fn percentile(&self, p: f64) -> SimDuration {
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return SimDuration::from_nanos(bucket_max(i).min(self.max_ns));
            }
        }
        SimDuration::from_nanos(self.max_ns)
    }
}

impl FromIterator<SimDuration> for DurationHistogram {
    fn from_iter<T: IntoIterator<Item = SimDuration>>(iter: T) -> Self {
        let mut h = DurationHistogram::new();
        for d in iter {
            h.record(d);
        }
        h
    }
}

/// Accumulates the busy time of a resource (e.g. "disk I/O time for logging",
/// Table 2 row 2).
///
/// # Examples
///
/// ```
/// use trail_sim::{BusyMeter, SimDuration, SimTime};
///
/// let mut m = BusyMeter::new();
/// m.start(SimTime::from_nanos(100));
/// m.stop(SimTime::from_nanos(300));
/// assert_eq!(m.busy_time().as_nanos(), 200);
/// ```
#[derive(Clone, Debug, Default)]
pub struct BusyMeter {
    busy: SimDuration,
    since: Option<SimTime>,
    intervals: u64,
}

impl BusyMeter {
    /// Creates an idle meter with zero accumulated busy time.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks the resource busy from `now`.
    ///
    /// # Panics
    ///
    /// Panics if the meter is already running.
    pub fn start(&mut self, now: SimTime) {
        assert!(self.since.is_none(), "BusyMeter::start while already busy");
        self.since = Some(now);
    }

    /// Marks the resource idle at `now`, accumulating the elapsed interval.
    ///
    /// # Panics
    ///
    /// Panics if the meter is not running or `now` precedes the start.
    pub fn stop(&mut self, now: SimTime) {
        let since = self.since.take().expect("BusyMeter::stop while idle");
        self.busy += now.duration_since(since);
        self.intervals += 1;
    }

    /// Returns `true` if the resource is currently marked busy.
    pub fn is_busy(&self) -> bool {
        self.since.is_some()
    }

    /// Returns the total accumulated busy time (excluding a still-open
    /// interval).
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    /// Returns the number of completed busy intervals.
    pub fn intervals(&self) -> u64 {
        self.intervals
    }

    /// Returns busy time as a fraction of `elapsed` (0.0ᅳ1.0 for a single
    /// resource).
    pub fn utilization(&self, elapsed: SimDuration) -> f64 {
        if elapsed.is_zero() {
            0.0
        } else {
            self.busy / elapsed
        }
    }
}

#[cfg(test)]
mod tests {
    //! The histogram's contract against a sorted-sample oracle is the
    //! property test in `trail-telemetry`'s `metrics` module, which also
    //! renders the JSON; these are worked examples of it.

    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    /// `got` is the bucketed stand-in for the exact sample `want`.
    fn within_a_bucket(got: SimDuration, want: SimDuration) -> bool {
        let w = want.as_nanos();
        (w..=w + w / 32).contains(&got.as_nanos())
    }

    #[test]
    fn summary_basic_stats() {
        let h: DurationHistogram = [5, 1, 3].into_iter().map(ms).collect();
        assert_eq!(h.count(), 3);
        assert_eq!(h.mean(), ms(3));
        assert_eq!(h.min(), ms(1));
        assert_eq!(h.max(), ms(5));
        assert_eq!(h.total(), ms(9));
    }

    #[test]
    fn summary_percentiles() {
        let h: DurationHistogram = (1..=100).map(ms).collect();
        for (p, want) in [(0.0, 1), (50.0, 50), (99.0, 99)] {
            assert!(within_a_bucket(h.percentile(p), ms(want)), "p{p}");
        }
        assert_eq!(h.percentile(100.0), ms(100));
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn percentile_rejects_out_of_range() {
        let mut h = DurationHistogram::new();
        h.record(ms(1));
        let _ = h.percentile(101.0);
    }

    #[test]
    fn summary_merge() {
        let mut a: DurationHistogram = [1, 2].into_iter().map(ms).collect();
        let b: DurationHistogram = [3, 4].into_iter().map(ms).collect();
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.mean(), SimDuration::from_micros(2_500));
        assert_eq!((a.min(), a.max()), (ms(1), ms(4)));
    }

    #[test]
    fn empty_summary_is_fully_defined() {
        let h = DurationHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert_eq!(h.min(), SimDuration::ZERO);
        assert_eq!(h.max(), SimDuration::ZERO);
        assert_eq!(h.total(), SimDuration::ZERO);
        for p in [0.0, 50.0, 99.9, 100.0] {
            assert_eq!(h.percentile(p), SimDuration::ZERO);
        }
    }

    #[test]
    fn single_sample_summary_is_fully_defined() {
        // The cap at the exact maximum makes every percentile of one
        // sample that sample, bucket or not.
        let only = SimDuration::from_nanos(7_123_457);
        let h: DurationHistogram = std::iter::once(only).collect();
        assert_eq!((h.mean(), h.min(), h.max()), (only, only, only));
        for p in [0.0, 50.0, 99.9, 100.0] {
            assert_eq!(h.percentile(p), only, "p{p} of a single sample");
        }
    }

    #[test]
    fn busy_meter_accumulates() {
        let mut m = BusyMeter::new();
        m.start(SimTime::from_nanos(0));
        m.stop(SimTime::from_nanos(100));
        m.start(SimTime::from_nanos(200));
        m.stop(SimTime::from_nanos(250));
        assert_eq!(m.busy_time().as_nanos(), 150);
        assert_eq!(m.intervals(), 2);
        assert!(!m.is_busy());
        assert_eq!(m.utilization(SimDuration::from_nanos(300)), 0.5);
    }

    #[test]
    #[should_panic(expected = "already busy")]
    fn busy_meter_double_start_panics() {
        let mut m = BusyMeter::new();
        m.start(SimTime::ZERO);
        m.start(SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "while idle")]
    fn busy_meter_stop_idle_panics() {
        let mut m = BusyMeter::new();
        m.stop(SimTime::ZERO);
    }
}
