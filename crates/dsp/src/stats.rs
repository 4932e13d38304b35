//! Descriptive statistics, percentiles and empirical CDFs.
//!
//! The evaluation section of the paper reports medians, percentiles and
//! error CDFs (Figs 17, 21, 22); this module provides those reductions.

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population standard deviation; 0 for fewer than two samples.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Median (linear-interpolated for even length); 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// The `p`-th percentile (`0..=100`) with linear interpolation between order
/// statistics; 0 for an empty slice. NaN samples sort per
/// [`f64::total_cmp`] (after every finite value).
///
/// # Panics
/// Panics if `p` is outside `[0, 100]`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let f = rank - lo as f64;
        sorted[lo] * (1.0 - f) + sorted[hi] * f
    }
}

/// Minimum; +∞ for an empty slice.
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Maximum; −∞ for an empty slice.
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// An empirical cumulative distribution function.
///
/// ```
/// use uniq_dsp::stats::Ecdf;
/// let errors = [2.0, 8.0, 4.0, 6.0];
/// let cdf = Ecdf::new(&errors);
/// assert_eq!(cdf.eval(5.0), 0.5);        // half the errors are ≤ 5°
/// assert_eq!(cdf.quantile(0.5), 4.0);    // the median sample
/// ```
#[derive(Debug, Clone)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds the ECDF of the given samples. NaN samples sort per
    /// [`f64::total_cmp`] (after every finite value).
    pub fn new(samples: &[f64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Ecdf { sorted }
    }

    /// Fraction of samples `<= x`; 0 for an empty distribution.
    pub fn eval(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Inverse CDF: smallest sample value with CDF ≥ `q` (`q` in `(0, 1]`).
    ///
    /// # Panics
    /// Panics on an empty distribution or `q` outside `(0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.sorted.is_empty(), "quantile of empty ECDF");
        assert!(q > 0.0 && q <= 1.0, "quantile {q} out of (0,1]");
        let idx = ((q * self.sorted.len() as f64).ceil() as usize - 1).min(self.sorted.len() - 1);
        self.sorted[idx]
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the distribution is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Evenly spaced `(value, cdf)` pairs suitable for plotting, stepping
    /// through every sample.
    pub fn curve(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len();
        self.sorted
            .iter()
            .enumerate()
            .map(|(k, &v)| (v, (k + 1) as f64 / n as f64))
            .collect()
    }
}

/// A fixed-width histogram over `[lo, hi)`.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<usize>,
    /// Samples outside `[lo, hi)`.
    pub outliers: usize,
}

impl Histogram {
    /// Creates an empty histogram with `bins` equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    /// Panics unless `lo < hi` and `bins > 0`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(lo < hi && bins > 0, "invalid histogram bounds/bins");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            outliers: 0,
        }
    }

    /// Adds a sample.
    pub fn add(&mut self, x: f64) {
        if !(self.lo..self.hi).contains(&x) {
            self.outliers += 1;
            return;
        }
        let bins = self.counts.len();
        let idx = (((x - self.lo) / (self.hi - self.lo)) * bins as f64) as usize;
        self.counts[idx.min(bins - 1)] += 1;
    }

    /// Bin counts.
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((std_dev(&xs) - 2.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std_dev(&[1.0]), 0.0);
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [0.0, 10.0];
        assert_eq!(percentile(&xs, 0.0), 0.0);
        assert_eq!(percentile(&xs, 100.0), 10.0);
        assert_eq!(percentile(&xs, 25.0), 2.5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn percentile_range_checked() {
        percentile(&[1.0], 101.0);
    }

    #[test]
    fn minmax() {
        let xs = [3.0, -1.0, 7.0];
        assert_eq!(min(&xs), -1.0);
        assert_eq!(max(&xs), 7.0);
    }

    #[test]
    fn ecdf_eval_monotone() {
        let e = Ecdf::new(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e.eval(0.5), 0.0);
        assert_eq!(e.eval(1.0), 0.25);
        assert_eq!(e.eval(2.5), 0.5);
        assert_eq!(e.eval(10.0), 1.0);
    }

    #[test]
    fn ecdf_quantile_is_order_statistic() {
        let e = Ecdf::new(&[5.0, 1.0, 3.0]);
        assert_eq!(e.quantile(0.34), 3.0);
        assert_eq!(e.quantile(1.0), 5.0);
        assert_eq!(e.quantile(0.01), 1.0);
    }

    #[test]
    fn ecdf_median_matches_percentile() {
        let xs: Vec<f64> = (0..101).map(|k| k as f64).collect();
        let e = Ecdf::new(&xs);
        assert_eq!(e.quantile(0.5), 50.0);
        assert_eq!(median(&xs), 50.0);
    }

    #[test]
    fn ecdf_curve_ends_at_one() {
        let e = Ecdf::new(&[2.0, 1.0]);
        let c = e.curve();
        assert_eq!(c, vec![(1.0, 0.5), (2.0, 1.0)]);
    }

    #[test]
    fn histogram_bins_and_outliers() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for x in [0.5, 1.5, 2.5, 9.9, -1.0, 10.0] {
            h.add(x);
        }
        assert_eq!(h.counts(), &[2, 1, 0, 0, 1]);
        assert_eq!(h.outliers, 2);
    }
}
