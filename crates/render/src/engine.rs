//! Snapshot rendering: a scene at one instant through the personalized
//! HRTF.

use crate::scene::{ListenerPose, Scene};
use uniq_core::hrtf::{BinauralSignal, PersonalHrtf};

/// A binaural rendering engine bound to one user's HRTF.
#[derive(Debug, Clone)]
pub struct BinauralEngine {
    hrtf: PersonalHrtf,
}

impl BinauralEngine {
    /// Creates an engine for a personalized (or global) HRTF table.
    pub fn new(hrtf: PersonalHrtf) -> Self {
        BinauralEngine { hrtf }
    }

    /// The underlying HRTF table.
    pub fn hrtf(&self) -> &PersonalHrtf {
        &self.hrtf
    }

    /// Renders `signal` as if emitted from every source in the scene
    /// simultaneously (all sources share the signal — see
    /// [`BinauralEngine::render_sources`] for distinct signals), heard by
    /// a listener at `pose`. Sources at the listener position are skipped.
    pub fn render_scene(
        &self,
        scene: &Scene,
        pose: &ListenerPose,
        signal: &[f64],
    ) -> BinauralSignal {
        let pairs: Vec<(&[f64], _)> = scene.sources.iter().map(|s| (signal, s)).collect();
        self.mix(pose, &pairs)
    }

    /// Renders per-source signals (each source its own audio) and mixes.
    ///
    /// # Panics
    /// Panics if `signals` and scene sources differ in count.
    pub fn render_sources(
        &self,
        scene: &Scene,
        pose: &ListenerPose,
        signals: &[Vec<f64>],
    ) -> BinauralSignal {
        assert_eq!(
            signals.len(),
            scene.sources.len(),
            "one signal per source required"
        );
        let pairs: Vec<(&[f64], _)> = signals
            .iter()
            .map(Vec::as_slice)
            .zip(&scene.sources)
            .collect();
        self.mix(pose, &pairs)
    }

    fn mix(
        &self,
        pose: &ListenerPose,
        pairs: &[(&[f64], &crate::scene::SceneSource)],
    ) -> BinauralSignal {
        let _span = uniq_obs::span(uniq_obs::names::SPAN_RENDER_ENGINE);
        if !pairs.is_empty() {
            uniq_obs::counter(uniq_obs::names::RENDER_SOURCES, pairs.len() as u64);
        }
        let mut left: Vec<f64> = Vec::new();
        let mut right: Vec<f64> = Vec::new();
        for (signal, source) in pairs {
            let rel = pose.world_to_head(source.position);
            if rel.norm() < 1e-9 {
                continue;
            }
            let scaled: Vec<f64> = signal.iter().map(|v| v * source.gain).collect();
            let out = self.hrtf.synthesize_at(&scaled, rel);
            accumulate(&mut left, &out.left);
            accumulate(&mut right, &out.right);
        }
        let n = left.len().max(right.len());
        left.resize(n, 0.0);
        right.resize(n, 0.0);
        BinauralSignal { left, right }
    }
}

/// Adds `add` into `acc`, growing `acc` to fit.
pub(crate) fn accumulate(acc: &mut Vec<f64>, add: &[f64]) {
    if acc.len() < add.len() {
        acc.resize(add.len(), 0.0);
    }
    for (a, b) in acc.iter_mut().zip(add) {
        *a += b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::Scene;
    use uniq_acoustics::pinna::PinnaModel;
    use uniq_acoustics::render::Renderer;
    use uniq_acoustics::types::RenderConfig;
    use uniq_geometry::{HeadBoundary, HeadParams, Vec2};

    fn engine() -> BinauralEngine {
        let cfg = RenderConfig::default();
        let head = HeadParams::average_adult();
        let r = Renderer::new(
            HeadBoundary::new(head, 512),
            PinnaModel::from_seed(201),
            PinnaModel::from_seed(202),
            cfg,
        );
        let angles: Vec<f64> = (0..=18).map(|k| k as f64 * 10.0).collect();
        let hrtf = PersonalHrtf::new(
            r.near_field_bank(&angles, 0.4)
                .expect("0.4 m clears the head"),
            r.ground_truth_bank(&angles),
            head,
        );
        BinauralEngine::new(hrtf)
    }

    fn energy(v: &[f64]) -> f64 {
        v.iter().map(|x| x * x).sum()
    }

    #[test]
    fn empty_scene_renders_silence() {
        let e = engine();
        let out = e.render_scene(&Scene::new(), &ListenerPose::default(), &[1.0; 64]);
        assert!(out.left.is_empty() && out.right.is_empty());
    }

    #[test]
    fn left_source_louder_left() {
        let e = engine();
        let mut scene = Scene::new();
        scene.add("voice", Vec2::new(-3.0, 0.0), 1.0);
        // Broadband signal so the head-shadow low-pass dominates any
        // per-ear pinna comb differences.
        let sig = uniq_dsp::signal::linear_chirp(200.0, 12_000.0, 0.05, 48_000.0);
        let out = e.render_scene(&scene, &ListenerPose::default(), &sig);
        assert!(energy(&out.left) > 1.3 * energy(&out.right));
    }

    #[test]
    fn head_rotation_keeps_world_direction() {
        // Source fixed ahead in the world; listener turns to face it after
        // starting turned away. Facing it, the ears balance.
        let e = engine();
        let mut scene = Scene::new();
        scene.add("piano", Vec2::new(0.0, 3.0), 1.0);
        let sig = uniq_dsp::signal::linear_chirp(200.0, 12_000.0, 0.05, 48_000.0);

        let askew = ListenerPose {
            position: Vec2::ZERO,
            heading_deg: 60.0,
        };
        let facing = ListenerPose::default();
        let out_askew = e.render_scene(&scene, &askew, &sig);
        let out_facing = e.render_scene(&scene, &facing, &sig);

        let imbalance =
            |o: &uniq_core::hrtf::BinauralSignal| (energy(&o.left) / energy(&o.right)).ln().abs();
        assert!(
            imbalance(&out_facing) < imbalance(&out_askew),
            "facing the source should balance the ears"
        );
    }

    #[test]
    fn two_sources_mix_linearly() {
        let e = engine();
        let sig = uniq_dsp::signal::tone(500.0, 0.01, 48_000.0);
        let pose = ListenerPose::default();

        let mut left_scene = Scene::new();
        left_scene.add("l", Vec2::new(-2.0, 0.0), 1.0);
        let mut right_scene = Scene::new();
        right_scene.add("r", Vec2::new(2.0, 0.0), 1.0);
        let mut both = Scene::new();
        both.add("l", Vec2::new(-2.0, 0.0), 1.0);
        both.add("r", Vec2::new(2.0, 0.0), 1.0);

        let a = e.render_scene(&left_scene, &pose, &sig);
        let b = e.render_scene(&right_scene, &pose, &sig);
        let ab = e.render_scene(&both, &pose, &sig);
        for k in 0..ab.left.len() {
            let expect = a.left.get(k).unwrap_or(&0.0) + b.left.get(k).unwrap_or(&0.0);
            assert!((ab.left[k] - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn gain_scales_output() {
        let e = engine();
        let sig = uniq_dsp::signal::tone(500.0, 0.01, 48_000.0);
        let pose = ListenerPose::default();
        let mut quiet = Scene::new();
        quiet.add("s", Vec2::new(-2.0, 1.0), 0.5);
        let mut loud = Scene::new();
        loud.add("s", Vec2::new(-2.0, 1.0), 1.0);
        let q = e.render_scene(&quiet, &pose, &sig);
        let l = e.render_scene(&loud, &pose, &sig);
        assert!((energy(&l.left) / energy(&q.left) - 4.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "one signal per source")]
    fn render_sources_count_mismatch() {
        let e = engine();
        let mut scene = Scene::new();
        scene.add("a", Vec2::new(1.0, 1.0), 1.0);
        e.render_sources(&scene, &ListenerPose::default(), &[]);
    }
}
