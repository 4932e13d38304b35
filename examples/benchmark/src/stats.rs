//! Summary statistics, the percentile reporting rule and peak memory.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (linear interpolation between order statistics),
/// or `None` when the sample cannot support it: empty, or a percentile
/// above the median with fewer than [`MIN_BEYOND`] samples beyond it
/// (so p90 needs at least 100 samples).
pub fn percentile(samples: &[f64], p: u32) -> Option<f64> {
    assert!(p <= 100, "percentile {p} out of range");
    let n = samples.len();
    if n == 0 {
        return None;
    }
    if p > 50 {
        let at_or_below = (n * p as usize).div_ceil(100);
        if n - at_or_below < MIN_BEYOND {
            return None;
        }
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (n - 1) as f64 * f64::from(p) / 100.0;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// The median; NaN for an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50).unwrap_or(f64::NAN)
}

pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Prints one `info` line describing a latency sample: its size, spread
/// and every percentile the sample supports.
pub fn describe(label: &str, samples_ms: &[f64]) {
    let p90 = percentile(samples_ms, 90).map_or("n/a".to_string(), |v| v.to_string());
    let min = samples_ms.iter().copied().fold(f64::NAN, f64::min);
    println!(
        "info {label}_ms n={} min={min} p25={} p50={} mean={} p90={p90}",
        samples_ms.len(),
        percentile(samples_ms, 25).unwrap_or(f64::NAN),
        median(samples_ms),
        mean(samples_ms),
    );
}

/// The median set-up time, after an `info` line listing every repetition.
pub fn setup_median(times_s: &[f64]) -> f64 {
    println!("info setup_s n={} each={times_s:?}", times_s.len());
    median(times_s)
}

/// Restarts the peak resident set size count (`VmHWM`) from the current
/// resident size, so that [`peak_rss_mib`] reports the peak of what runs
/// next rather than of the whole process. Where the kernel does not allow
/// it the count simply keeps running.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_refuses_p90_below_100_samples() {
        let xs: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90), None);
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        let p90 = percentile(&xs, 90).expect("100 samples support p90");
        assert!((p90 - 89.1).abs() < 1e-9, "{p90}");
        assert!(
            percentile(&xs[..3], 50).is_some(),
            "the median is always reported"
        );
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn median_interpolates_even_samples() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn peak_rss_restarts_after_a_reset() {
        let block = std::hint::black_box(vec![1u8; 64 << 20]);
        let with_block = peak_rss_mib();
        drop(block);
        reset_peak_rss();
        let after = peak_rss_mib();
        assert!(
            after > 0.0 && with_block - after > 32.0,
            "{with_block} MiB, then {after} MiB"
        );
    }
}
