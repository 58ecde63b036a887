//! Measurement helpers: latency summaries and busy-time accounting.
//!
//! Every experiment in the paper reports either a latency distribution
//! (Figures 3 and 4), a total elapsed/busy time (Tables 1 and 2), or a count
//! (Table 3, a plain integer field). These small collectors are shared by
//! all benches and tests.

use std::fmt;

use crate::time::{SimDuration, SimTime};

/// An online collection of duration samples with summary statistics.
///
/// Samples are retained so that exact percentiles can be computed; the
/// experiments in this repository collect at most a few hundred thousand
/// samples, which is cheap to keep.
///
/// # Examples
///
/// ```
/// use trail_sim::{LatencySummary, SimDuration};
///
/// let mut s = LatencySummary::new();
/// for ms in [1u64, 2, 3, 4] {
///     s.record(SimDuration::from_millis(ms));
/// }
/// assert_eq!(s.mean().as_millis_f64(), 2.5);
/// assert_eq!(s.max().as_millis_f64(), 4.0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct LatencySummary {
    samples: Vec<SimDuration>,
}

impl LatencySummary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one sample.
    pub fn record(&mut self, sample: SimDuration) {
        self.samples.push(sample);
    }

    /// Returns the number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Returns `true` if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Returns the sum of all samples.
    pub fn total(&self) -> SimDuration {
        self.samples.iter().copied().sum()
    }

    /// Returns the arithmetic mean, or the **zero sentinel** if empty (use
    /// [`try_mean`](Self::try_mean) to distinguish "empty" from "all-zero
    /// samples").
    pub fn mean(&self) -> SimDuration {
        self.try_mean().unwrap_or(SimDuration::ZERO)
    }

    /// Returns the arithmetic mean, or `None` if no samples were recorded.
    pub fn try_mean(&self) -> Option<SimDuration> {
        if self.samples.is_empty() {
            return None;
        }
        Some(SimDuration::from_nanos(
            (self
                .samples
                .iter()
                .map(|d| d.as_nanos() as u128)
                .sum::<u128>()
                / self.samples.len() as u128) as u64,
        ))
    }

    /// Returns the smallest sample, or the **zero sentinel** if empty (use
    /// [`try_min`](Self::try_min) to distinguish).
    pub fn min(&self) -> SimDuration {
        self.try_min().unwrap_or(SimDuration::ZERO)
    }

    /// Returns the smallest sample, or `None` if no samples were recorded.
    pub fn try_min(&self) -> Option<SimDuration> {
        self.samples.iter().copied().min()
    }

    /// Returns the largest sample, or the **zero sentinel** if empty (use
    /// [`try_max`](Self::try_max) to distinguish).
    pub fn max(&self) -> SimDuration {
        self.try_max().unwrap_or(SimDuration::ZERO)
    }

    /// Returns the largest sample, or `None` if no samples were recorded.
    pub fn try_max(&self) -> Option<SimDuration> {
        self.samples.iter().copied().max()
    }

    /// Returns the `p`-th percentile (0.0ᅳ100.0) by nearest-rank, or the
    /// **zero sentinel** if empty (use
    /// [`try_percentile`](Self::try_percentile) to distinguish). On a
    /// single-sample set every percentile is that sample.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `0.0..=100.0`.
    pub fn percentile(&self, p: f64) -> SimDuration {
        self.try_percentile(p).unwrap_or(SimDuration::ZERO)
    }

    /// Returns the `p`-th percentile (0.0ᅳ100.0) by nearest-rank, or `None`
    /// if no samples were recorded. Selects on a copy, so the samples
    /// keep their insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `0.0..=100.0`.
    pub fn try_percentile(&self, p: f64) -> Option<SimDuration> {
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        if self.samples.is_empty() {
            return None;
        }
        let rank = ((p / 100.0) * self.samples.len() as f64).ceil() as usize;
        let mut copy = self.samples.clone();
        Some(*copy.select_nth_unstable(rank.saturating_sub(1)).1)
    }

    /// Iterates over the recorded samples in insertion order.
    pub fn iter(&self) -> std::slice::Iter<'_, SimDuration> {
        self.samples.iter()
    }

    /// Merges another summary's samples into this one.
    pub fn merge(&mut self, other: &LatencySummary) {
        self.samples.extend_from_slice(&other.samples);
    }
}

impl Extend<SimDuration> for LatencySummary {
    fn extend<T: IntoIterator<Item = SimDuration>>(&mut self, iter: T) {
        self.samples.extend(iter);
    }
}

impl FromIterator<SimDuration> for LatencySummary {
    fn from_iter<T: IntoIterator<Item = SimDuration>>(iter: T) -> Self {
        let mut s = LatencySummary::new();
        s.extend(iter);
        s
    }
}

impl fmt::Display for LatencySummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.3}ms min={:.3}ms max={:.3}ms",
            self.count(),
            self.mean().as_millis_f64(),
            self.min().as_millis_f64(),
            self.max().as_millis_f64(),
        )
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
    use super::*;

    #[test]
    fn summary_basic_stats() {
        let mut s = LatencySummary::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), SimDuration::ZERO);
        for ms in [5u64, 1, 3] {
            s.record(SimDuration::from_millis(ms));
        }
        assert_eq!(s.count(), 3);
        assert_eq!(s.mean().as_millis_f64(), 3.0);
        assert_eq!(s.min().as_millis_f64(), 1.0);
        assert_eq!(s.max().as_millis_f64(), 5.0);
        assert_eq!(s.total().as_millis_f64(), 9.0);
    }

    #[test]
    fn summary_percentiles() {
        let s: LatencySummary = (1..=100).map(SimDuration::from_millis).collect();
        assert_eq!(s.percentile(50.0).as_millis_f64(), 50.0);
        assert_eq!(s.percentile(99.0).as_millis_f64(), 99.0);
        assert_eq!(s.percentile(100.0).as_millis_f64(), 100.0);
        assert_eq!(s.percentile(0.0).as_millis_f64(), 1.0);
    }

    #[test]
    fn percentile_is_nearest_rank_and_keeps_insertion_order() {
        let ms = [7u64, 3, 9, 1, 5, 8, 2, 6, 4, 10, 3];
        let s: LatencySummary = ms.iter().map(|&m| SimDuration::from_millis(m)).collect();
        let mut sorted = ms;
        sorted.sort_unstable();
        for p in [0.0, 1.0, 10.0, 25.0, 50.0, 63.6, 90.0, 99.0, 100.0] {
            let rank = ((p / 100.0) * ms.len() as f64).ceil() as usize;
            let want = SimDuration::from_millis(sorted[rank.saturating_sub(1)]);
            assert_eq!(s.percentile(p), want, "p{p}");
        }
        let order: Vec<u64> = s.iter().map(|d| d.as_millis_f64() as u64).collect();
        assert_eq!(order, ms, "a percentile must not reorder the samples");
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn percentile_rejects_out_of_range() {
        let mut s = LatencySummary::new();
        s.record(SimDuration::from_millis(1));
        let _ = s.percentile(101.0);
    }

    #[test]
    fn summary_merge() {
        let mut a: LatencySummary = [1u64, 2]
            .iter()
            .map(|&m| SimDuration::from_millis(m))
            .collect();
        let b: LatencySummary = [3u64, 4]
            .iter()
            .map(|&m| SimDuration::from_millis(m))
            .collect();
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.mean().as_millis_f64(), 2.5);
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

    #[test]
    fn empty_summary_is_fully_defined() {
        let s = LatencySummary::new();
        assert_eq!(s.mean(), SimDuration::ZERO);
        assert_eq!(s.min(), SimDuration::ZERO);
        assert_eq!(s.max(), SimDuration::ZERO);
        assert_eq!(s.total(), SimDuration::ZERO);
        for p in [0.0, 50.0, 99.9, 100.0] {
            assert_eq!(s.percentile(p), SimDuration::ZERO);
            assert_eq!(s.try_percentile(p), None);
        }
        assert_eq!(s.try_mean(), None);
        assert_eq!(s.try_min(), None);
        assert_eq!(s.try_max(), None);
    }

    #[test]
    fn single_sample_summary_is_fully_defined() {
        let mut s = LatencySummary::new();
        let only = SimDuration::from_millis(7);
        s.record(only);
        assert_eq!(s.mean(), only);
        assert_eq!(s.min(), only);
        assert_eq!(s.max(), only);
        for p in [0.0, 50.0, 99.9, 100.0] {
            assert_eq!(s.percentile(p), only, "p{p} of a single sample");
            assert_eq!(s.try_percentile(p), Some(only));
        }
        assert_eq!(s.try_mean(), Some(only));
        assert_eq!(s.try_min(), Some(only));
        assert_eq!(s.try_max(), Some(only));
    }
}
