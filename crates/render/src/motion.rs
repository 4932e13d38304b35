//! Block rendering with crossfades for moving sources / rotating heads.
//!
//! Motion is rendered per block: the listener pose (from the earphone's
//! motion sensors, per the paper's §1 scenario) is sampled at block
//! boundaries, each block is spatialized with its pose, and adjacent
//! blocks are crossfaded with complementary linear ramps to avoid clicks
//! when the HRIR switches.
//!
//! Each block is filtered by overlap-add in the frequency domain against
//! the HRIR spectra the table's banks cache
//! ([`uniq_core::hrtf::PersonalHrtf::ear_spectra`]): one forward FFT of
//! the faded block, `gain · X · H` summed over the sources for each ear,
//! and one inverse FFT that returns both ears (left in the real part,
//! right in the imaginary part), added into the output at the block
//! start. A right-hemisphere source takes its mirrored angle's entry with
//! the cached ears swapped, so no HRIR is copied or transformed per
//! block, and the work buffers are allocated once per call.

use crate::engine::BinauralEngine;
use crate::scene::{ListenerPose, Scene};
use uniq_core::hrtf::BinauralSignal;
use uniq_dsp::fft::{fft_in_place, ifft_in_place, next_pow2};
use uniq_dsp::Complex;

/// Renders `signal` through a timeline of listener poses (one per block of
/// `block_len` samples), crossfading `fade_len` samples between blocks.
/// The output is the full linear convolution: `signal.len() + ir_len − 1`
/// samples per ear.
///
/// # Panics
/// Panics if `block_len == 0` or `fade_len >= block_len`, or `poses` is
/// empty.
pub fn render_with_motion(
    engine: &BinauralEngine,
    scene: &Scene,
    poses: &[ListenerPose],
    signal: &[f64],
    block_len: usize,
    fade_len: usize,
) -> BinauralSignal {
    assert!(block_len > 0, "block_len must be positive");
    assert!(fade_len < block_len, "fade must fit inside a block");
    assert!(!poses.is_empty(), "need at least one pose");
    let _span = uniq_obs::span(uniq_obs::names::SPAN_RENDER_MOTION);

    let hrtf = engine.hrtf();
    let tail = ir_len(engine).saturating_sub(1);
    let mut left = vec![0.0; signal.len() + tail];
    let mut right = vec![0.0; signal.len() + tail];

    let n_blocks = signal.len().div_ceil(block_len);
    if n_blocks > 0 {
        uniq_obs::counter(uniq_obs::names::RENDER_BLOCKS, n_blocks as u64);
        // fade_in + fade_out samples per interior boundary.
        uniq_obs::metric(
            uniq_obs::names::RENDER_CROSSFADE_SAMPLES,
            (2 * fade_len * n_blocks.saturating_sub(1)) as f64,
            "samples",
        );
    }
    // One transform size holds every block's full linear convolution.
    let n = next_pow2(block_len + fade_len + tail);
    let mut x = vec![Complex::ZERO; n];
    let mut y = vec![Complex::ZERO; n];
    for b in 0..n_blocks {
        let start = b * block_len;
        let chunk = &signal[start..(start + block_len + fade_len).min(signal.len())];
        let pose = poses[b.min(poses.len() - 1)];

        // Fade the *input* chunk, then filter. By linearity, overlap-adding
        // the rendered blocks reconstructs a static render, while pose
        // changes crossfade smoothly over `fade_len` samples.
        for (k, slot) in x.iter_mut().enumerate() {
            *slot = match chunk.get(k) {
                Some(&v) => Complex::from_real(fade_gain(k, b, n_blocks, block_len, fade_len) * v),
                None => Complex::ZERO,
            };
        }
        fft_in_place(&mut x);
        // Both ears share one inverse transform. Each ear's output is real,
        // so Y = Y_L + i·Y_R comes back with the left ear in the real part
        // and the right ear in the imaginary part. With
        // Y_ear = X · Σ gain · H_ear, the sources' packed filters
        // H_L + i·H_R are summed first and multiplied by X once.
        y.fill(Complex::ZERO);
        for source in &scene.sources {
            let rel = pose.world_to_head(source.position);
            if rel.norm() < 1e-9 {
                continue;
            }
            let spectra = hrtf.ear_spectra(rel, n);
            let (h_left, h_right) = spectra.ears();
            for (yk, (&hl, &hr)) in y.iter_mut().zip(h_left.iter().zip(h_right)) {
                *yk += Complex::new(hl.re - hr.im, hl.im + hr.re) * source.gain;
            }
        }
        for (yk, &xk) in y.iter_mut().zip(&x) {
            *yk *= xk;
        }
        ifft_in_place(&mut y);

        let end = start + chunk.len() + tail;
        for ((l, r), v) in left[start..end]
            .iter_mut()
            .zip(&mut right[start..end])
            .zip(&y)
        {
            *l += v.re;
            *r += v.im;
        }
    }

    BinauralSignal { left, right }
}

/// The longer of the table's near- and far-field HRIR lengths.
fn ir_len(engine: &BinauralEngine) -> usize {
    let hrtf = engine.hrtf();
    hrtf.near().irs()[0].len().max(hrtf.far().irs()[0].len())
}

/// The crossfade gain of sample `k` of block `b` (of `n_blocks`): a linear
/// ramp up over the first `fade_len` samples unless `b` is the first
/// block, and a ramp down over the `fade_len` samples from `block_len` on
/// unless it is the last. Each ramp down lies on the next block's ramp up,
/// sample for sample, and the two sum to one.
fn fade_gain(k: usize, b: usize, n_blocks: usize, block_len: usize, fade_len: usize) -> f64 {
    let mut g = 1.0;
    if b > 0 && k < fade_len {
        g *= (k as f64 + 0.5) / fade_len as f64;
    }
    if b + 1 < n_blocks && k >= block_len {
        g *= ((block_len + fade_len - k) as f64 - 0.5) / fade_len as f64;
    }
    g
}

/// Builds a pose timeline for a listener smoothly turning from
/// `from_heading` to `to_heading` (degrees) over `n_blocks` blocks.
pub fn turning_head(from_heading: f64, to_heading: f64, n_blocks: usize) -> Vec<ListenerPose> {
    assert!(n_blocks >= 1, "need at least one block");
    (0..n_blocks)
        .map(|b| {
            let t = if n_blocks == 1 {
                0.0
            } else {
                b as f64 / (n_blocks - 1) as f64
            };
            ListenerPose {
                position: uniq_geometry::Vec2::ZERO,
                heading_deg: from_heading + t * (to_heading - from_heading),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniq_acoustics::pinna::PinnaModel;
    use uniq_acoustics::render::Renderer;
    use uniq_acoustics::types::{BinauralIr, HrirBank, RenderConfig};
    use uniq_core::hrtf::PersonalHrtf;
    use uniq_geometry::{HeadBoundary, HeadParams, Vec2};

    fn engine() -> BinauralEngine {
        let cfg = RenderConfig::default();
        let head = HeadParams::average_adult();
        let r = Renderer::new(
            HeadBoundary::new(head, 512),
            PinnaModel::from_seed(211),
            PinnaModel::from_seed(212),
            cfg,
        );
        let angles: Vec<f64> = (0..=18).map(|k| k as f64 * 10.0).collect();
        BinauralEngine::new(PersonalHrtf::new(
            r.near_field_bank(&angles, 0.4)
                .expect("0.4 m clears the head"),
            r.ground_truth_bank(&angles),
            head,
        ))
    }

    /// The per-block path that `render_with_motion` replaced: each faded
    /// chunk through `BinauralEngine::render_scene` (fresh HRIR copies and
    /// FFT convolutions per block and source), overlap-added.
    fn per_block_oracle(
        engine: &BinauralEngine,
        scene: &Scene,
        poses: &[ListenerPose],
        signal: &[f64],
        block_len: usize,
        fade_len: usize,
    ) -> BinauralSignal {
        let tail = ir_len(engine) - 1;
        let mut left = vec![0.0; signal.len() + tail];
        let mut right = vec![0.0; signal.len() + tail];
        let n_blocks = signal.len().div_ceil(block_len);
        for b in 0..n_blocks {
            let start = b * block_len;
            let end = (start + block_len + fade_len).min(signal.len());
            let pose = poses[b.min(poses.len() - 1)];
            let chunk: Vec<f64> = signal[start..end]
                .iter()
                .enumerate()
                .map(|(k, &v)| fade_gain(k, b, n_blocks, block_len, fade_len) * v)
                .collect();
            let out = engine.render_scene(scene, &pose, &chunk);
            for (k, (l, r)) in out.left.iter().zip(&out.right).enumerate() {
                left[start + k] += l;
                right[start + k] += r;
            }
        }
        BinauralSignal { left, right }
    }

    /// Asserts equal lengths and a largest per-sample deviation of at most
    /// 1e-12 × the reference peak, in both ears.
    fn assert_matches(got: &BinauralSignal, want: &BinauralSignal, what: &str) {
        for (g, w) in [(&got.left, &want.left), (&got.right, &want.right)] {
            assert_eq!(g.len(), w.len(), "{what}: length");
            let peak = w.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
            let dev = g
                .iter()
                .zip(w)
                .fold(0.0_f64, |m, (a, b)| m.max((a - b).abs()));
            assert!(peak > 0.0, "{what}: silent reference");
            assert!(
                dev <= 1e-12 * peak,
                "{what}: deviation {dev} vs peak {peak}"
            );
        }
    }

    #[test]
    fn overlap_add_on_cached_spectra_matches_the_per_block_oracle() {
        let e = engine();
        let mut scene = Scene::new();
        scene.add("far left", Vec2::new(-2.0, 1.0), 0.8);
        scene.add("far right", Vec2::new(2.5, -1.0), 1.0);
        scene.add("near right", Vec2::new(0.3, 0.2), 0.6);
        scene.add("near left", Vec2::new(-0.2, -0.3), 0.7);
        scene.add("at the listener", Vec2::ZERO, 1.0);
        let sr = 48_000.0;
        // 9600 samples leave a last block longer than the fade at every
        // block size, 4100 one shorter than it.
        for len in [9600, 4100] {
            let sig = &uniq_dsp::signal::linear_chirp(200.0, 12_000.0, 0.2, sr)[..len];
            // n = 1024, 2048 and 4096 for the 512-tap banks.
            for (block_len, fade_len) in [(256, 64), (1024, 128), (2048, 256)] {
                let poses = turning_head(30.0, 250.0, len.div_ceil(block_len));
                let got = render_with_motion(&e, &scene, &poses, sig, block_len, fade_len);
                let want = per_block_oracle(&e, &scene, &poses, sig, block_len, fade_len);
                assert_matches(
                    &got,
                    &want,
                    &format!("{len} samples, {block_len}/{fade_len}"),
                );
            }
        }
    }

    #[test]
    fn static_pose_matches_snapshot_render() {
        let e = engine();
        let mut scene = Scene::new();
        scene.add("s", Vec2::new(-2.0, 1.0), 1.0);
        let pose = ListenerPose::default();
        // By linearity, overlap-adding the faded blocks of one pose is the
        // static render up to round-off. 2400 samples end in a block
        // longer than the fade, 2080 in one shorter than it.
        for len in [2400, 2080] {
            let sig = &uniq_dsp::signal::tone(700.0, 0.05, 48_000.0)[..len];
            let moving = render_with_motion(&e, &scene, &[pose], sig, 1024, 64);
            let snapshot = e.render_scene(&scene, &pose, sig);
            assert_matches(&moving, &snapshot, &format!("{len} samples"));
        }
    }

    #[test]
    fn long_hrirs_keep_their_whole_tail() {
        // A 5000-tap table whose energy sits in the last tap: the output
        // must run to the end of the full convolution, 4999 samples past
        // the signal.
        let ir_len = 5000;
        let mut left = vec![0.0; ir_len];
        let mut right = vec![0.0; ir_len];
        left[ir_len - 1] = 1.0;
        right[ir_len - 1] = 0.5;
        let bank = || {
            let pairs = [0.0, 90.0, 180.0]
                .iter()
                .map(|&a| (a, BinauralIr::new(left.clone(), right.clone())))
                .collect();
            HrirBank::new(pairs, 48_000.0)
        };
        let e = BinauralEngine::new(PersonalHrtf::new(
            bank(),
            bank(),
            HeadParams::average_adult(),
        ));
        let mut scene = Scene::new();
        scene.add("s", Vec2::new(-3.0, 0.0), 0.5);
        let sig = uniq_dsp::signal::tone(300.0, 0.05, 48_000.0);
        let poses = turning_head(0.0, 20.0, sig.len().div_ceil(1024));
        let out = render_with_motion(&e, &scene, &poses, &sig, 1024, 128);
        assert_eq!(out.left.len(), sig.len() + ir_len - 1);
        let last = 0.5 * sig[sig.len() - 1];
        assert!(last.abs() > 1e-3, "the probe must end on a non-zero sample");
        let (l, r) = (out.left[out.left.len() - 1], out.right[out.right.len() - 1]);
        assert!((l - last).abs() < 1e-12, "left tail {l} vs {last}");
        assert!(
            (r - 0.5 * last).abs() < 1e-12,
            "right tail {r} vs {}",
            0.5 * last
        );
        let snapshot = e.render_scene(&scene, &ListenerPose::default(), &sig);
        assert_matches(&out, &snapshot, "long IR");
    }

    #[test]
    fn turning_head_moves_energy_between_ears() {
        let e = engine();
        let mut scene = Scene::new();
        scene.add("piano", Vec2::new(0.0, 3.0), 1.0);
        let sr = 48_000.0;
        let sig = uniq_dsp::signal::linear_chirp(300.0, 10_000.0, 0.5, sr);
        let poses = turning_head(80.0, 280.0, 24); // left-facing → right-facing
        let out = render_with_motion(&e, &scene, &poses, &sig, 1024, 128);
        // 24,000 + 511 samples: the late window below lies inside.
        assert_eq!(out.left.len(), sig.len() + 511);

        let energy = |v: &[f64]| v.iter().map(|x| x * x).sum::<f64>();
        let early_l = energy(&out.left[..4096]);
        let early_r = energy(&out.right[..4096]);
        let late_l = energy(&out.left[16384..20480]);
        let late_r = energy(&out.right[16384..20480]);
        // Facing left (heading 80°): source ahead-right → right ear louder.
        assert!(early_r > early_l, "early: L {early_l} R {early_r}");
        // Facing right (heading 280°): source ahead-left → left ear louder.
        assert!(late_l > late_r, "late: L {late_l} R {late_r}");
    }

    #[test]
    fn no_clicks_at_block_boundaries() {
        let e = engine();
        let mut scene = Scene::new();
        scene.add("s", Vec2::new(-2.0, 1.0), 1.0);
        let sr = 48_000.0;
        let sig = uniq_dsp::signal::tone(400.0, 0.3, sr);
        let poses = turning_head(0.0, 180.0, 14);
        let out = render_with_motion(&e, &scene, &poses, &sig, 1024, 128);
        // Largest sample-to-sample jump should stay modest relative to the
        // peak (a click would spike it).
        let peak = out.left.iter().fold(0.0_f64, |m, &v| m.max(v.abs()));
        let max_jump = out
            .left
            .windows(2)
            .map(|w| (w[1] - w[0]).abs())
            .fold(0.0_f64, f64::max);
        assert!(
            max_jump < 0.5 * peak,
            "click detected: jump {max_jump} vs peak {peak}"
        );
    }

    #[test]
    fn timeline_helper_endpoints() {
        let t = turning_head(10.0, 50.0, 5);
        assert_eq!(t.len(), 5);
        assert_eq!(t[0].heading_deg, 10.0);
        assert_eq!(t[4].heading_deg, 50.0);
    }

    #[test]
    #[should_panic(expected = "fade must fit")]
    fn oversized_fade_rejected() {
        let e = engine();
        render_with_motion(
            &e,
            &Scene::new(),
            &[ListenerPose::default()],
            &[0.0; 10],
            8,
            8,
        );
    }
}
