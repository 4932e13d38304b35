//! Property tests for the percentile math in `uniq_obs::report`: the
//! log-bucketed [`LogHistogram`] behind the profiling registry.

use proptest::prelude::*;
use uniq_obs::report::LogHistogram;

/// The histogram's documented bucket error bound, `1 / 2^(7 + 1)`.
const REL_ERROR_BOUND: f64 = 1.0 / 256.0;

fn log_hist(samples: &[u64]) -> LogHistogram {
    let mut h = LogHistogram::new();
    for &s in samples {
        h.record(s);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn log_histogram_percentiles_are_monotone(
        samples in prop::collection::vec(0u64..50_000_000_000, 1..300),
    ) {
        let h = log_hist(&samples);
        let p50 = h.percentile(50.0);
        let p90 = h.percentile(90.0);
        let p99 = h.percentile(99.0);
        prop_assert!(p50 <= p90 && p90 <= p99 && p99 <= h.max(),
            "disordered: p50 {p50} p90 {p90} p99 {p99} max {}", h.max());
        prop_assert!(h.min() <= p50);
        prop_assert_eq!(h.percentile(0.0), h.min());
        prop_assert_eq!(h.percentile(100.0), h.max());
    }

    #[test]
    fn log_histogram_percentile_within_bound_of_true_rank(
        samples in prop::collection::vec(1u64..10_000_000_000, 1..200),
        p in 0.0..100.0f64,
    ) {
        // The log-bucketed percentile must sit within the bucket error
        // bound of the exact nearest-rank percentile.
        let h = log_hist(&samples);
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let rank = (((p / 100.0) * sorted.len() as f64).ceil() as usize).max(1) - 1;
        let truth = sorted[rank] as f64;
        let got = h.percentile(p) as f64;
        prop_assert!(
            (got - truth).abs() / truth <= REL_ERROR_BOUND,
            "p{p}: bucketed {got} vs exact {truth}"
        );
    }

    #[test]
    fn merging_per_thread_histograms_equals_single_thread(
        samples in prop::collection::vec(0u64..50_000_000_000, 0..300),
        parts in 1usize..8,
    ) {
        // A per-thread profile merged at the end must equal the profile a
        // single thread would have recorded over all the samples.
        let whole = log_hist(&samples);
        let mut merged = LogHistogram::new();
        let chunk = samples.len() / parts + 1;
        for part in samples.chunks(chunk.max(1)) {
            merged.merge(&log_hist(part));
        }
        prop_assert_eq!(&merged, &whole);
        for p in [0.0, 25.0, 50.0, 90.0, 99.0, 100.0] {
            prop_assert_eq!(merged.percentile(p), whole.percentile(p));
        }
    }
}
