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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_samples() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
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
    fn ecdf_curve_ends_at_one() {
        let e = Ecdf::new(&[2.0, 1.0]);
        let c = e.curve();
        assert_eq!(c, vec![(1.0, 0.5), (2.0, 1.0)]);
    }
}
