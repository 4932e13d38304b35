//! Property tests for the parallelized dsp kernel: the batched Wiener
//! deconvolution runs the exact same arithmetic as its sequential
//! counterpart under pool scheduling, so outputs must match to the bit
//! (0 ULP), not merely within a tolerance.

use proptest::prelude::*;
use uniq_dsp::deconv::{wiener_deconvolve, wiener_deconvolve_batch};

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn signal_strategy(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1.0..1.0f64, 1..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn wiener_batch_is_bit_identical_to_sequential(
        probe in signal_strategy(128),
        recordings in prop::collection::vec(signal_strategy(160), 1..8),
        threads in 1usize..9,
    ) {
        prop_assume!(probe.iter().any(|&v| v != 0.0));
        let pool = uniq_par::pool(threads);
        let refs: Vec<&[f64]> = recordings.iter().map(|r| r.as_slice()).collect();
        let parallel = wiener_deconvolve_batch(&refs, &probe, 1e-3, 32, &pool);
        for (rx, out) in recordings.iter().zip(&parallel) {
            let sequential = wiener_deconvolve(rx, &probe, 1e-3, 32);
            prop_assert_eq!(bits(out), bits(&sequential));
        }
    }
}
