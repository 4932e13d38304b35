//! Impulse-response alignment.
//!
//! Near-field HRTF interpolation (§4.2) must align adjacent HRIRs "carefully
//! along their first taps before the interpolation; otherwise spurious
//! echoes will get injected". These utilities implement that alignment.

use crate::peaks::first_tap;

/// Shifts a signal by `shift` samples (positive = right / delay), zero
/// filling and truncating to the original length.
pub fn shift_signal(signal: &[f64], shift: isize) -> Vec<f64> {
    let n = signal.len();
    let mut out = vec![0.0; n];
    for (i, o) in out.iter_mut().enumerate() {
        let src = i as isize - shift;
        if src >= 0 && (src as usize) < n {
            *o = signal[src as usize];
        }
    }
    out
}

/// Aligns a set of impulse responses so all first taps coincide at the
/// maximum of their individual first-tap indices (so no response loses its
/// leading edge). Returns the aligned set plus the common tap index.
///
/// Responses without a detectable tap are passed through unshifted.
pub fn co_align(irs: &[Vec<f64>], threshold: f64) -> (Vec<Vec<f64>>, usize) {
    let taps: Vec<Option<usize>> = irs
        .iter()
        .map(|ir| first_tap(ir, threshold).map(|p| p.index))
        .collect();
    let target = taps.iter().flatten().copied().max().unwrap_or(0);
    let aligned = irs
        .iter()
        .zip(&taps)
        .map(|(ir, tap)| match tap {
            Some(idx) => shift_signal(ir, target as isize - *idx as isize),
            None => ir.clone(),
        })
        .collect();
    (aligned, target)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delta(len: usize, at: usize, amp: f64) -> Vec<f64> {
        let mut v = vec![0.0; len];
        v[at] = amp;
        v
    }

    #[test]
    fn shift_right_and_left() {
        let s = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(shift_signal(&s, 1), vec![0.0, 1.0, 2.0, 3.0]);
        assert_eq!(shift_signal(&s, -2), vec![3.0, 4.0, 0.0, 0.0]);
        assert_eq!(shift_signal(&s, 0), s);
        assert_eq!(shift_signal(&s, 10), vec![0.0; 4]);
    }

    #[test]
    fn co_align_uses_latest_tap() {
        let a = delta(64, 10, 1.0);
        let b = delta(64, 25, 0.8);
        let (aligned, target) = co_align(&[a, b], 0.3);
        assert_eq!(target, 25);
        assert_eq!(aligned[0][25], 1.0);
        assert_eq!(aligned[1][25], 0.8);
    }

    #[test]
    fn co_align_preserves_relative_structure() {
        // IR with a first tap and an echo 7 samples later.
        let mut a = delta(64, 10, 1.0);
        a[17] = 0.5;
        let (aligned, target) = co_align(std::slice::from_ref(&a), 0.3);
        assert_eq!(aligned[0][target], 1.0);
        assert_eq!(aligned[0][target + 7], 0.5);
    }
}
