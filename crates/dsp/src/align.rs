//! Impulse-response alignment.
//!
//! Near-field HRTF interpolation (§4.2) must align adjacent HRIRs "carefully
//! along their first taps before the interpolation; otherwise spurious
//! echoes will get injected". These utilities move a response by whole
//! samples; the callers in uniq-core find each response's first tap
//! ([`crate::peaks::first_tap`]) once and shift by the difference.

/// Shifts a signal by `shift` samples (positive = right / delay), zero
/// filling and truncating to the original length.
pub fn shift_signal(signal: &[f64], shift: isize) -> Vec<f64> {
    let mut out = signal.to_vec();
    shift_signal_in_place(&mut out, shift);
    out
}

/// [`shift_signal`] in place.
pub fn shift_signal_in_place(signal: &mut [f64], shift: isize) {
    let n = signal.len();
    let s = shift.unsigned_abs().min(n);
    if shift >= 0 {
        signal.copy_within(..n - s, s);
        signal[..s].fill(0.0);
    } else {
        signal.copy_within(s.., 0);
        signal[n - s..].fill(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shift_right_and_left() {
        let s = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(shift_signal(&s, 1), vec![0.0, 1.0, 2.0, 3.0]);
        assert_eq!(shift_signal(&s, -2), vec![3.0, 4.0, 0.0, 0.0]);
        assert_eq!(shift_signal(&s, 0), s);
        assert_eq!(shift_signal(&s, 10), vec![0.0; 4]);
        assert_eq!(shift_signal(&s, -10), vec![0.0; 4]);
    }
}
