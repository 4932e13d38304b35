//! Log-bucketed latency histograms: the percentile math behind the
//! `uniq-profile` registry's per-stage statistics.

/// A log-bucketed (HDR-style) histogram over non-negative integer
/// samples — typically span durations in nanoseconds.
///
/// Values below `2^PRECISION_BITS` are counted exactly (one bucket per
/// value); above that, each power-of-two octave is split into
/// `2^PRECISION_BITS` linear sub-buckets, so the value a bucket reports
/// back differs from any sample it absorbed by at most
/// `1 / 2^(PRECISION_BITS + 1)` (1/256) relatively. Memory grows with the
/// *magnitude* of the largest sample (≈ 60 buckets per octave decade),
/// never with the sample count, so recording is O(1) and a histogram can
/// absorb millions of span events.
///
/// Two histograms recorded on different threads [`merge`](Self::merge)
/// into exactly the histogram a single thread would have produced over
/// the concatenated samples — bucket counts are position-wise sums — so
/// per-thread recording loses nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LogHistogram {
    /// Bucket occupancy, indexed by [`Self::bucket_index`]; grown lazily.
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

/// Sub-bucket resolution: `2^7 = 128` linear sub-buckets per octave.
const PRECISION_BITS: u32 = 7;

impl LogHistogram {
    /// Worst-case relative error between a recorded sample and the value
    /// its bucket reports: half a sub-bucket width over the bucket's
    /// lower bound, `1 / 2^(PRECISION_BITS + 1)`.
    #[cfg(test)]
    const REL_ERROR_BOUND: f64 = 1.0 / (1u64 << (PRECISION_BITS + 1)) as f64;

    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram::default()
    }

    fn bucket_index(v: u64) -> usize {
        let p = PRECISION_BITS;
        if v < (1 << p) {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros();
        let shift = msb - p;
        let sub = (v >> shift) as usize; // in [2^p, 2^(p+1))
        ((shift as usize) << p) + sub
    }

    /// The value reported for any sample that lands in `v`'s bucket: the
    /// bucket midpoint (exact for small values). Guaranteed within
    /// [`Self::REL_ERROR_BOUND`] of `v`, relatively.
    #[cfg(test)]
    fn quantize(v: u64) -> u64 {
        Self::bucket_value(Self::bucket_index(v))
    }

    /// Midpoint of bucket `idx` (inverse of [`Self::bucket_index`]).
    fn bucket_value(idx: usize) -> u64 {
        let p = PRECISION_BITS as usize;
        if idx < (1 << p) {
            return idx as u64;
        }
        let shift = ((idx >> p) - 1) as u32;
        let sub = (idx - ((shift as usize) << p)) as u64; // in [2^p, 2^(p+1))
        let lo = sub << shift;
        let hi = ((sub + 1) << shift) - 1;
        lo + (hi - lo) / 2
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        let idx = Self::bucket_index(v);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += u128::from(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest recorded sample (exact; 0 when empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest recorded sample (exact; 0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `p`-th percentile (`p` in `[0, 100]`): the bucket value at the
    /// target rank, clamped to the exact observed `[min, max]` so
    /// `percentile(0) == min()` and `percentile(100) == max()` hold
    /// exactly and percentiles are monotone in `p`. Returns 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((p.clamp(0.0, 100.0) / 100.0) * self.count as f64).ceil() as u64;
        let target = target.max(1);
        // The extreme ranks are known exactly; bucket midpoints may fall
        // short of max (or overshoot min), so answer those directly.
        if target >= self.count {
            return self.max;
        }
        if target == 1 {
            return self.min;
        }
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_value(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Folds `other` into `self`. Equivalent to having recorded both
    /// histograms' samples into one: bucket counts add position-wise, so
    /// percentiles of the merge equal percentiles of the union.
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.count == 0 {
            return;
        }
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_histogram_small_values_exact() {
        let mut h = LogHistogram::new();
        for v in [0u64, 1, 2, 17, 127] {
            h.record(v);
            assert_eq!(LogHistogram::quantize(v), v, "small value {v} not exact");
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 127);
        assert_eq!(h.percentile(0.0), 0);
        assert_eq!(h.percentile(100.0), 127);
    }

    #[test]
    fn log_histogram_relative_error_bounded() {
        for v in [
            128u64,
            129,
            1_000,
            123_456,
            987_654_321,
            41_000_000_000,
            u64::MAX / 3,
        ] {
            let q = LogHistogram::quantize(v);
            let err = (q as f64 - v as f64).abs() / v as f64;
            assert!(
                err <= LogHistogram::REL_ERROR_BOUND,
                "v={v} q={q} err={err}"
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        #[test]
        fn log_histogram_bucket_relative_error_bounded(v in 1u64..u64::MAX / 2) {
            let q = LogHistogram::quantize(v);
            let err = (q as f64 - v as f64).abs() / v as f64;
            proptest::prop_assert!(
                err <= LogHistogram::REL_ERROR_BOUND,
                "quantize({v}) = {q}: relative error {err} exceeds bound {}",
                LogHistogram::REL_ERROR_BOUND
            );
        }
    }

    #[test]
    fn log_histogram_percentiles_ordered_and_clamped() {
        let mut h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.record(v * 1_000);
        }
        let p50 = h.percentile(50.0);
        let p90 = h.percentile(90.0);
        let p99 = h.percentile(99.0);
        assert!(p50 <= p90 && p90 <= p99 && p99 <= h.max());
        assert!(h.min() <= p50);
        // Within the bucket error bound of the exact rank values.
        let tol = LogHistogram::REL_ERROR_BOUND;
        assert!((p50 as f64 - 500_000.0).abs() / 500_000.0 <= tol + 1e-3);
        assert!((p99 as f64 - 990_000.0).abs() / 990_000.0 <= tol + 1e-3);
    }

    #[test]
    fn log_histogram_merge_equals_single() {
        let samples: Vec<u64> = (0..500u64)
            .map(|i| i.wrapping_mul(2_654_435_761) >> 20)
            .collect();
        let mut whole = LogHistogram::new();
        for &s in &samples {
            whole.record(s);
        }
        let mut merged = LogHistogram::new();
        for part in samples.chunks(123) {
            let mut h = LogHistogram::new();
            for &s in part {
                h.record(s);
            }
            merged.merge(&h);
        }
        assert_eq!(merged, whole);
    }
}
