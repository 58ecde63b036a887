//! Exact sample statistics. Virtual-time metrics are computed here from
//! every per-operation sample; nothing in the benchmark reads a histogram
//! bucket bound.

/// Per-operation virtual latencies in nanoseconds, in completion order.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    ns: Vec<u64>,
}

/// The tail percentile a sample set supports (see [`Samples::tail`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile chosen, in hundredths of a percent (9990 = p99.9).
    pub per_10k: u32,
    /// Its nearest-rank value in nanoseconds.
    pub ns: u64,
    /// Samples strictly beyond it.
    pub beyond: usize,
}

impl Tail {
    /// `p99`, `p99.9`, … for printing beside the value.
    pub fn label(&self) -> String {
        if self.per_10k >= 10_000 {
            "max".to_string()
        } else if self.per_10k.is_multiple_of(100) {
            format!("p{}", self.per_10k / 100)
        } else {
            format!("p{}", f64::from(self.per_10k) / 100.0)
        }
    }
}

/// Tail candidates, lowest first, in hundredths of a percent. p99 and up
/// are the reporting percentiles; p90 and p50 only catch sets too small
/// for any of them.
const TAIL_CANDIDATES: [u32; 5] = [5_000, 9_000, 9_900, 9_990, 9_999];
const MIN_BEYOND: usize = 10;

impl Samples {
    pub fn with_capacity(n: usize) -> Samples {
        Samples {
            ns: Vec::with_capacity(n),
        }
    }

    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    /// An order-sensitive 64-bit digest of every sample: two runs agree on
    /// it only if every operation completed in the same order with the
    /// same virtual latency.
    pub fn fingerprint(&self) -> u64 {
        fingerprint(self.ns.iter().copied())
    }

    /// Exact mean in microseconds (integer sum, one division).
    pub fn mean_us(&self) -> f64 {
        if self.ns.is_empty() {
            return 0.0;
        }
        let sum: u128 = self.ns.iter().map(|&x| u128::from(x)).sum();
        sum as f64 / self.ns.len() as f64 / 1e3
    }

    /// Sorts a copy for percentile queries.
    pub fn sorted(&self) -> Sorted {
        let mut ns = self.ns.clone();
        ns.sort_unstable();
        Sorted { ns }
    }
}

/// A sorted sample set.
pub struct Sorted {
    ns: Vec<u64>,
}

impl Sorted {
    /// Nearest-rank percentile (`per_10k` in hundredths of a percent), in
    /// nanoseconds, with the number of samples strictly beyond it. Integer
    /// rank arithmetic: no float rounding decides which sample is read.
    pub fn percentile(&self, per_10k: u32) -> (u64, usize) {
        let n = self.ns.len();
        if n == 0 {
            return (0, 0);
        }
        let rank = (n as u128 * u128::from(per_10k)).div_ceil(10_000) as usize;
        let rank = rank.clamp(1, n);
        (self.ns[rank - 1], n - rank)
    }

    pub fn p50_us(&self) -> f64 {
        self.percentile(5_000).0 as f64 / 1e3
    }

    /// The highest of p99, p99.9 and p99.99 that still has at least ten
    /// samples beyond it (falling back to p90, p50, then the maximum on
    /// sets too small for p99).
    pub fn tail(&self) -> Tail {
        let mut best = None;
        for per_10k in TAIL_CANDIDATES {
            let (ns, beyond) = self.percentile(per_10k);
            if beyond >= MIN_BEYOND {
                best = Some(Tail {
                    per_10k,
                    ns,
                    beyond,
                });
            }
        }
        best.unwrap_or(Tail {
            per_10k: 10_000,
            ns: self.ns.last().copied().unwrap_or(0),
            beyond: 0,
        })
    }
}

/// Order-sensitive digest of a `u64` stream (FNV-1a over the words, with a
/// final avalanche so short streams still spread over all 64 bits).
pub fn fingerprint(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(23);
    }
    mix64(h)
}

/// SplitMix64's finalizer: a bijective avalanche of one word.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An independent sub-seed for generator `lane` of benchmark seed `seed`.
/// (The vendored `SmallRng` is a Weyl sequence: seeds that differ by its
/// increment yield shifted copies of one stream, so lanes are hashed, never
/// offset.)
pub fn sub_seed(seed: u64, lane: u64) -> u64 {
    mix64(mix64(seed) ^ lane.wrapping_mul(0xD6E8_FEB8_6659_FD93))
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` (the
/// "exclusive" method), so the spread this benchmark prints is the one its
/// acceptance rule is stated in.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0, 0.0);
    }
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

pub fn best_low(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: u64) -> Sorted {
        let mut s = Samples::default();
        (1..=n).for_each(|x| s.push(x));
        s.sorted()
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1 000 samples: p99 has exactly 10 beyond it, p99.9 only 1.
        let t = ramp(1_000).tail();
        assert_eq!((t.per_10k, t.ns, t.beyond), (9_900, 990, 10));
        assert_eq!(t.label(), "p99");
        // One sample fewer and p99 no longer qualifies.
        assert_eq!(ramp(999).tail().per_10k, 9_000);
        // 120 000 samples carry p99.99 (12 beyond); 99 999 stop at p99.9.
        let t = ramp(120_000).tail();
        assert_eq!((t.per_10k, t.beyond), (9_999, 12));
        assert_eq!(t.label(), "p99.99");
        assert_eq!(ramp(99_999).tail().per_10k, 9_990);
        // Tiny sets degrade to the maximum instead of inventing a tail.
        let t = ramp(5).tail();
        assert_eq!((t.label().as_str(), t.ns, t.beyond), ("max", 5, 0));
    }

    #[test]
    fn percentiles_are_nearest_rank_and_exact() {
        let s = ramp(10);
        assert_eq!(s.percentile(5_000), (5, 5));
        assert_eq!(s.percentile(9_000), (9, 1));
        assert_eq!(s.percentile(10_000), (10, 0));
        assert_eq!(s.percentile(1), (1, 9));
        assert_eq!(s.p50_us(), 0.005);
    }

    #[test]
    fn mean_is_exact_and_fingerprint_sees_order() {
        let mut a = Samples::default();
        let mut b = Samples::default();
        for x in [1_000, 2_000, 6_000] {
            a.push(x);
        }
        for x in [2_000, 1_000, 6_000] {
            b.push(x);
        }
        assert_eq!(a.mean_us(), 3.0);
        assert_eq!(b.mean_us(), 3.0);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), a.clone().fingerprint());
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn sub_seeds_do_not_collide_across_lanes_or_seeds() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..20 {
            for lane in 0..70 {
                assert!(seen.insert(sub_seed(seed, lane)));
            }
        }
    }
}
