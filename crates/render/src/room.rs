//! Room-multipath-integrated binaural rendering — the paper's §7
//! "Integrating Room Multipath" extension.
//!
//! UNIQ strips room echoes while *measuring* the HRTF, but truly immersive
//! playback should put them back: "a real immersive experience can only be
//! achieved by filtering the earphone sound with both the room impulse
//! response (RIR) and the HRTF." This module renders a virtual source
//! inside a virtual room: the direct path plus every image source is
//! spatialized through the personalized HRTF from its own direction and
//! distance, building the combined RIR ⊛ HRTF rendering the paper asks
//! for.

use crate::engine::accumulate;
use crate::scene::ListenerPose;
use uniq_acoustics::room::Shoebox;
use uniq_core::hrtf::{BinauralSignal, PersonalHrtf};
use uniq_dsp::delay::delay_fractional;
use uniq_geometry::Vec2;

/// Renders `signal` from a world-space source inside `room`, heard through
/// `hrtf` by a listener at `pose`. Each image source is delayed by its
/// extra path, attenuated by spreading and wall loss, and spatialized from
/// its own direction.
///
/// The room is defined in the *listener's head frame* (the head centre is
/// the origin, matching [`Shoebox`]'s convention), so `pose.position` must
/// be the origin; the pose contributes only its heading.
///
/// # Panics
/// Panics if the pose is translated (room geometry is head-centred) or the
/// source sits at the head centre.
pub fn render_in_room(
    hrtf: &PersonalHrtf,
    room: &Shoebox,
    source_head_frame: Vec2,
    pose: &ListenerPose,
    signal: &[f64],
    speed_of_sound: f64,
) -> BinauralSignal {
    assert!(
        pose.position.norm() < 1e-9,
        "room rendering is head-centred; move the room, not the listener"
    );
    room.validate();
    assert!(source_head_frame.norm() > 1e-9, "source at head centre");

    let direct_dist = source_head_frame.norm();
    let sr = hrtf.sample_rate();

    // Collect (position, gain) including the direct path (gain 1).
    let mut arrivals = vec![(source_head_frame, 1.0)];
    arrivals.extend(room.image_sources(source_head_frame));

    let mut left: Vec<f64> = Vec::new();
    let mut right: Vec<f64> = Vec::new();
    for (pos, wall_gain) in arrivals {
        let dist = pos.norm();
        // Spreading relative to the direct path; extra flight time too.
        let gain = wall_gain * direct_dist / dist;
        let extra_delay = (dist - direct_dist).max(0.0) / speed_of_sound * sr;
        // Rotate into the current heading before looking up the HRIR.
        let rel = pos.rotated(-pose.heading_deg.to_radians());
        // Pad so the fractional delay does not truncate the echo's tail
        // (delay_fractional keeps its input length).
        let mut feed: Vec<f64> = signal.iter().map(|v| v * gain).collect();
        feed.resize(
            signal.len() + extra_delay.ceil() as usize + uniq_dsp::delay::SINC_HALF_WIDTH,
            0.0,
        );
        let delayed = delay_fractional(&feed, extra_delay);
        let out = hrtf.synthesize_at(&delayed, rel.normalized() * dist.max(0.05));
        accumulate(&mut left, &out.left);
        accumulate(&mut right, &out.right);
    }
    let n = left.len().max(right.len());
    left.resize(n, 0.0);
    right.resize(n, 0.0);
    BinauralSignal { left, right }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniq_acoustics::pinna::PinnaModel;
    use uniq_acoustics::render::Renderer;
    use uniq_acoustics::types::RenderConfig;
    use uniq_geometry::{HeadBoundary, HeadParams};

    fn hrtf() -> PersonalHrtf {
        let cfg = RenderConfig::default();
        let head = HeadParams::average_adult();
        // Identical pinnae on both ears: these tests assert geometric
        // (head-shadow / rotation) effects, which random per-ear pinna
        // differences would otherwise mask.
        let r = Renderer::new(
            HeadBoundary::new(head, 512),
            PinnaModel::from_seed(701),
            PinnaModel::from_seed(701),
            cfg,
        );
        let angles: Vec<f64> = (0..=18).map(|k| k as f64 * 10.0).collect();
        PersonalHrtf::new(
            r.near_field_bank(&angles, 0.4)
                .expect("0.4 m clears the head"),
            r.ground_truth_bank(&angles),
            head,
        )
    }

    fn energy(v: &[f64]) -> f64 {
        v.iter().map(|x| x * x).sum()
    }

    #[test]
    fn echoic_render_longer_and_richer_than_dry() {
        let h = hrtf();
        let room = Shoebox::typical_living_room();
        let src = Vec2::new(-1.2, 0.8);
        let sig = uniq_dsp::signal::linear_chirp(300.0, 6000.0, 0.05, 48_000.0);
        let wet = render_in_room(&h, &room, src, &ListenerPose::default(), &sig, 343.0);
        let dry = h.synthesize_at(&sig, src);
        assert!(wet.left.len() > dry.left.len());
        assert!(energy(&wet.left) > energy(&dry.left));
    }

    #[test]
    fn dry_part_unchanged_by_room() {
        // The direct arrival inside the echoic render equals the dry
        // render until the first wall echo arrives.
        let h = hrtf();
        let room = Shoebox::typical_living_room();
        let src = Vec2::new(-1.0, 0.5);
        let sig = uniq_dsp::signal::impulse(64, 0);
        let wet = render_in_room(&h, &room, src, &ListenerPose::default(), &sig, 343.0);
        let dry = h.synthesize_at(&sig, src);
        // First echo detour: nearest image at ≥ 2·min_wall − |src| →
        // extra ≥ 2·(min_wall − |src|).
        let extra_m = 2.0 * (room.min_wall_distance() - src.norm());
        let guard = (extra_m / 343.0 * 48_000.0 * 0.8) as usize;
        for k in 0..guard.min(dry.left.len()) {
            assert!(
                (wet.left[k] - dry.left[k]).abs() < 1e-6,
                "early echo at sample {k}"
            );
        }
    }

    #[test]
    fn heading_rotates_the_whole_room() {
        let h = hrtf();
        let room = Shoebox::typical_living_room();
        let src = Vec2::new(-1.5, 0.0); // hard left
        let sig = uniq_dsp::signal::linear_chirp(300.0, 8000.0, 0.03, 48_000.0);
        let facing_front = render_in_room(&h, &room, src, &ListenerPose::default(), &sig, 343.0);
        let facing_source = render_in_room(
            &h,
            &room,
            src,
            &ListenerPose {
                position: Vec2::ZERO,
                heading_deg: 90.0,
            },
            &sig,
            343.0,
        );
        // Facing front: source is lateral → strong imbalance; facing the
        // source: balanced-ish.
        let imb = |s: &BinauralSignal| (energy(&s.left) / energy(&s.right)).ln().abs();
        assert!(imb(&facing_front) > imb(&facing_source));
    }

    #[test]
    #[should_panic(expected = "head-centred")]
    fn translated_pose_rejected() {
        let h = hrtf();
        render_in_room(
            &h,
            &Shoebox::typical_living_room(),
            Vec2::new(1.0, 0.0),
            &ListenerPose {
                position: Vec2::new(0.5, 0.0),
                heading_deg: 0.0,
            },
            &[1.0],
            343.0,
        );
    }
}
