//! Immersive room playback — the §7 "Integrating Room Multipath" demo.
//!
//! ```sh
//! cargo run --release --example immersive_room
//! ```
//!
//! Personalizes an HRTF, places a virtual speaker in a living room, renders
//! the direct sound plus wall echoes through the personal HRTF (RIR ⊛
//! HRTF), scores the result with the externalization proxies, and writes a
//! stereo WAV you could actually listen to.

use uniq_acoustics::room::Shoebox;
use uniq_core::config::UniqConfig;
use uniq_core::hrtf::BinauralSignal;
use uniq_core::pipeline::personalize;
use uniq_geometry::Vec2;
use uniq_render::metrics::compare;
use uniq_render::motion::turning_head;
use uniq_render::room::render_in_room;
use uniq_render::ListenerPose;
use uniq_subjects::Subject;

fn main() {
    let cfg = UniqConfig {
        in_room: true,
        grid_step_deg: 10.0,
        ..UniqConfig::default()
    };
    let subject = Subject::from_seed(55);
    println!("personalizing HRTF…");
    let hrtf = personalize(&subject, &cfg, 21)
        .expect("personalization")
        .hrtf;

    let room = Shoebox::typical_living_room();
    let source = Vec2::new(-1.4, 1.8); // a speaker front-left in the room
    let sr = cfg.render.sample_rate;
    let music =
        uniq_acoustics::signals::generate(uniq_acoustics::signals::SignalKind::Music, 2.0, sr, 808);

    println!("rendering direct sound + wall echoes through the personal HRTF…");
    let dry = hrtf.synthesize_at(&music, source);
    let wet = render_in_room(&hrtf, &room, source, &ListenerPose::default(), &music);
    let energy = |v: &[f64]| v.iter().map(|x| x * x).sum::<f64>();
    println!(
        "  dry:  {} samples, energy L {:.1} / R {:.1}",
        dry.left.len(),
        energy(&dry.left),
        energy(&dry.right)
    );
    println!(
        "  echoic: {} samples, energy L {:.1} / R {:.1} (room adds {:.0}% energy)",
        wet.left.len(),
        energy(&wet.left),
        energy(&wet.right),
        100.0 * (energy(&wet.left) / energy(&dry.left) - 1.0)
    );

    // How far is the dry render from the echoic "reality"? The proxies show
    // what the room contributes to presence.
    let m = compare(&dry, &clip_to(&wet, dry.left.len()), sr);
    println!(
        "  dry-vs-echoic proxies: LSD {:.1} dB, ITD err {:.2} smp, ILD err {:.1} dB",
        m.lsd_db, m.itd_error_samples, m.ild_error_db
    );

    // The listener slowly looks around the room; write the result out.
    println!("rendering a slow head turn inside the room…");
    let poses = turning_head(0.0, 50.0, 12);
    let mut turn = BinauralSignal {
        left: Vec::new(),
        right: Vec::new(),
    };
    let block = music.len() / poses.len();
    for (k, pose) in poses.iter().enumerate() {
        let chunk = &music[k * block..((k + 1) * block).min(music.len())];
        let out = render_in_room(&hrtf, &room, source, pose, chunk);
        turn.left
            .extend_from_slice(&out.left[..block.min(out.left.len())]);
        turn.right
            .extend_from_slice(&out.right[..block.min(out.right.len())]);
    }
    normalize(&mut turn);
    let path = std::path::Path::new("immersive_room.wav");
    uniq_render::wav::write_wav(&turn, sr, path).expect("write wav");
    println!(
        "wrote {} ({:.1} s of audio)",
        path.display(),
        turn.left.len() as f64 / sr
    );
}

fn clip_to(s: &BinauralSignal, n: usize) -> BinauralSignal {
    BinauralSignal {
        left: s.left[..n.min(s.left.len())].to_vec(),
        right: s.right[..n.min(s.right.len())].to_vec(),
    }
}

fn normalize(s: &mut BinauralSignal) {
    let peak = s
        .left
        .iter()
        .chain(&s.right)
        .fold(0.0_f64, |m, &v| m.max(v.abs()));
    if peak > 0.0 {
        for v in s.left.iter_mut().chain(s.right.iter_mut()) {
            *v *= 0.9 / peak;
        }
    }
}
