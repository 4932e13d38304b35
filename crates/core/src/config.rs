//! Pipeline configuration.

use uniq_acoustics::shadow::{SHADOW_F0_HZ, SHADOW_KAPPA};
use uniq_acoustics::types::RenderConfig;
use uniq_dsp::SPEED_OF_SOUND;
use uniq_imu::GyroModel;

/// Probe chirp start frequency, hertz (the paper's 100 Hz–20 kHz sweep).
pub const PROBE_F0_HZ: f64 = 100.0;

/// Probe chirp end frequency, hertz. Must stay below the Nyquist frequency
/// of `render.sample_rate` ([`ConfigError::ProbeBeyondNyquist`]).
pub const PROBE_F1_HZ: f64 = 20_000.0;

/// Wiener regularization of channel deconvolution, as a fraction of the
/// peak probe spectral power.
pub const DECONV_NOISE_FLOOR: f64 = 1e-3;

/// First-tap detection threshold, as a fraction of the channel peak.
pub const TAP_THRESHOLD: f64 = 0.35;

/// AoA matching weight λ (Eq. 9). The paper trains λ on labelled
/// recordings; this reproduction fixes it at 0.15.
pub const AOA_LAMBDA: f64 = 0.15;

/// Finest accepted output grid step, degrees (1,801 grid angles).
const MIN_GRID_STEP_DEG: f64 = 0.1;

/// The settable parameters of the UNIQ pipeline, with the defaults used by
/// the paper's evaluation reproduction. Values the paper fixes are
/// constants: [`PROBE_F0_HZ`], [`PROBE_F1_HZ`], [`DECONV_NOISE_FLOOR`],
/// [`TAP_THRESHOLD`] and [`AOA_LAMBDA`].
#[derive(Debug, Clone)]
pub struct UniqConfig {
    /// Shared audio/render configuration (sample rate, base delay, …).
    pub render: RenderConfig,
    /// Probe chirp duration, seconds.
    pub probe_duration: f64,
    /// Number of discrete measurement stops along the gesture.
    pub stops: usize,
    /// Microphone SNR during measurement, dB.
    pub snr_db: f64,
    /// Whether measurements happen in a reverberant room (vs anechoic).
    pub in_room: bool,
    /// Length of estimated channel impulse responses, samples.
    pub channel_len: usize,
    /// Room-echo gate: keep this many seconds after the first tap (§4.6).
    pub room_gate_s: f64,
    /// Boundary discretization used by the inverse solver.
    pub inverse_resolution: usize,
    /// Far-field/near-field output grid step, degrees.
    pub grid_step_deg: f64,
    /// Gesture auto-correction: reject when the estimated phone radius
    /// drops below this many metres (§4.6 "phone too close").
    pub min_radius_m: f64,
    /// Gesture auto-correction: reject when the mean fusion residual
    /// `|α − θ(E)|` exceeds this many degrees (§4.6 "error too large").
    pub max_fusion_residual_deg: f64,
    /// Gyroscope error model used when simulating the measurement session.
    pub gyro: GyroModel,
    /// Worker threads for the parallel hot paths (per-stop channel
    /// estimation, AoA sweeps, output-grid interpolation). `0` means
    /// "auto": the `UNIQ_THREADS` environment variable if set, otherwise
    /// the machine's available parallelism. Results are bit-identical
    /// for every value — this only changes scheduling.
    pub threads: usize,
}

impl Default for UniqConfig {
    fn default() -> Self {
        UniqConfig {
            render: RenderConfig::default(),
            probe_duration: 0.05,
            stops: 19, // every ~10° over the 0–180° sweep
            snr_db: 35.0,
            in_room: true,
            channel_len: 512,
            room_gate_s: 0.003,
            inverse_resolution: 1024,
            grid_step_deg: 1.0,
            min_radius_m: 0.18,
            max_fusion_residual_deg: 12.0,
            gyro: GyroModel::consumer_phone(),
            threads: 0,
        }
    }
}

impl UniqConfig {
    /// A cheaper configuration for unit tests: lower boundary resolution
    /// and fewer stops. Experiments should use the default.
    pub fn fast_test() -> Self {
        UniqConfig {
            inverse_resolution: 256,
            stops: 10,
            probe_duration: 0.03,
            ..Default::default()
        }
    }

    /// The probe chirp this configuration plays at each stop.
    pub fn probe(&self) -> Vec<f64> {
        uniq_dsp::signal::linear_chirp(
            PROBE_F0_HZ,
            PROBE_F1_HZ,
            self.probe_duration,
            self.render.sample_rate,
        )
    }

    /// Output angle grid `0..=180` degrees at `grid_step_deg`.
    pub fn output_grid(&self) -> Vec<f64> {
        let mut out = Vec::new();
        let mut a = 0.0;
        while a <= 180.0 + 1e-9 {
            out.push(a);
            a += self.grid_step_deg;
        }
        out
    }

    /// A stable FNV-1a digest of every result-affecting parameter, used
    /// by the artifact store to attribute a stored HRTF to the exact
    /// configuration that produced it. `threads` is deliberately
    /// excluded: results are bit-identical across thread counts, so two
    /// runs differing only in pool size share a hash. The constants the
    /// pipeline fixes ([`SPEED_OF_SOUND`], [`SHADOW_KAPPA`],
    /// [`SHADOW_F0_HZ`], [`PROBE_F0_HZ`], [`PROBE_F1_HZ`],
    /// [`DECONV_NOISE_FLOOR`], [`TAP_THRESHOLD`], [`AOA_LAMBDA`]) are
    /// folded where they sat when they were fields, so every stored key
    /// predating them is unchanged.
    pub fn content_hash(&self) -> u64 {
        let mut fp = crate::batch::FingerprintBuilder::new();
        fp.eat(self.render.sample_rate.to_bits());
        fp.eat(self.render.ir_len as u64);
        fp.eat(SPEED_OF_SOUND.to_bits());
        fp.eat(SHADOW_KAPPA.to_bits());
        fp.eat(SHADOW_F0_HZ.to_bits());
        fp.eat(self.render.base_delay.to_bits());
        fp.eat(PROBE_F0_HZ.to_bits());
        fp.eat(PROBE_F1_HZ.to_bits());
        fp.eat(self.probe_duration.to_bits());
        fp.eat(self.stops as u64);
        fp.eat(self.snr_db.to_bits());
        fp.eat(u64::from(self.in_room));
        fp.eat(DECONV_NOISE_FLOOR.to_bits());
        fp.eat(self.channel_len as u64);
        fp.eat(TAP_THRESHOLD.to_bits());
        fp.eat(self.room_gate_s.to_bits());
        fp.eat(self.inverse_resolution as u64);
        fp.eat(self.grid_step_deg.to_bits());
        fp.eat(self.min_radius_m.to_bits());
        fp.eat(self.max_fusion_residual_deg.to_bits());
        fp.eat(AOA_LAMBDA.to_bits());
        fp.eat(self.gyro.bias_dps.to_bits());
        fp.eat(self.gyro.noise_std_dps.to_bits());
        fp.eat(self.gyro.bias_walk_dps.to_bits());
        fp.finish()
    }

    /// Validates the configuration, reporting the first inconsistency
    /// found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        // Render checks (RenderConfig::validate panics; mirror them here
        // so callers get a recoverable error instead).
        if self.render.sample_rate <= 0.0 {
            return Err(ConfigError::NonPositiveSampleRate {
                sample_rate: self.render.sample_rate,
            });
        }
        if self.render.ir_len < 64 {
            return Err(ConfigError::IrTooShort {
                ir_len: self.render.ir_len,
            });
        }
        if self.render.base_delay < 0.0 {
            return Err(ConfigError::NegativeBaseDelay {
                base_delay: self.render.base_delay,
            });
        }
        if PROBE_F1_HZ > self.render.sample_rate / 2.0 {
            return Err(ConfigError::ProbeBeyondNyquist {
                f1: PROBE_F1_HZ,
                nyquist: self.render.sample_rate / 2.0,
            });
        }
        if self.stops < crate::fusion::MIN_STOPS {
            return Err(ConfigError::TooFewStops { stops: self.stops });
        }
        if self.channel_len < 128 {
            return Err(ConfigError::ChannelTooShort {
                channel_len: self.channel_len,
            });
        }
        if !self.snr_db.is_finite() {
            return Err(ConfigError::NonFiniteSnr {
                snr_db: self.snr_db,
            });
        }
        if !(MIN_GRID_STEP_DEG..=30.0).contains(&self.grid_step_deg) {
            return Err(ConfigError::BadGridStep {
                grid_step_deg: self.grid_step_deg,
            });
        }
        if self.room_gate_s <= 0.0 {
            return Err(ConfigError::BadRoomGate {
                room_gate_s: self.room_gate_s,
            });
        }
        Ok(())
    }
}

/// An inconsistent [`UniqConfig`] parameter, found by
/// [`UniqConfig::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `render.sample_rate` must be positive.
    NonPositiveSampleRate {
        /// The offending value.
        sample_rate: f64,
    },
    /// `render.ir_len` too short for head acoustics (minimum 64).
    IrTooShort {
        /// The offending value.
        ir_len: usize,
    },
    /// `render.base_delay` cannot be negative.
    NegativeBaseDelay {
        /// The offending value.
        base_delay: f64,
    },
    /// Probe end frequency exceeds the Nyquist frequency.
    ProbeBeyondNyquist {
        /// Chirp end frequency, Hz.
        f1: f64,
        /// Nyquist frequency, Hz.
        nyquist: f64,
    },
    /// Fewer than the minimum 4 measurement stops.
    TooFewStops {
        /// The offending value.
        stops: usize,
    },
    /// `channel_len` below the minimum of 128 samples.
    ChannelTooShort {
        /// The offending value.
        channel_len: usize,
    },
    /// `snr_db` must be finite.
    NonFiniteSnr {
        /// The offending value.
        snr_db: f64,
    },
    /// Grid step must be in `[0.1, 30]` degrees.
    BadGridStep {
        /// The offending value.
        grid_step_deg: f64,
    },
    /// Room gate must be positive.
    BadRoomGate {
        /// The offending value.
        room_gate_s: f64,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NonPositiveSampleRate { sample_rate } => {
                write!(f, "sample_rate must be positive (got {sample_rate})")
            }
            ConfigError::IrTooShort { ir_len } => {
                write!(f, "ir_len {ir_len} too short for head acoustics (min 64)")
            }
            ConfigError::NegativeBaseDelay { base_delay } => {
                write!(f, "base delay cannot be negative (got {base_delay})")
            }
            ConfigError::ProbeBeyondNyquist { f1, nyquist } => {
                write!(f, "probe exceeds Nyquist: f1 {f1} Hz > {nyquist} Hz")
            }
            ConfigError::TooFewStops { stops } => {
                write!(f, "need at least 4 measurement stops (got {stops})")
            }
            ConfigError::ChannelTooShort { channel_len } => {
                write!(f, "channel_len {channel_len} too short (min 128)")
            }
            ConfigError::NonFiniteSnr { snr_db } => {
                write!(f, "snr must be finite (got {snr_db} dB)")
            }
            ConfigError::BadGridStep { grid_step_deg } => {
                write!(
                    f,
                    "grid step must be in [{MIN_GRID_STEP_DEG}, 30] degrees (got {grid_step_deg:?})"
                )
            }
            ConfigError::BadRoomGate { room_gate_s } => {
                write!(f, "room gate must be positive (got {room_gate_s})")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_validates() {
        UniqConfig::default().validate().unwrap();
        UniqConfig::fast_test().validate().unwrap();
    }

    #[test]
    fn probe_length() {
        let cfg = UniqConfig::default();
        let p = cfg.probe();
        assert_eq!(p.len(), (0.05 * 48_000.0) as usize);
    }

    #[test]
    fn output_grid_covers_sweep() {
        let cfg = UniqConfig::default();
        let g = cfg.output_grid();
        assert_eq!(g.len(), 181);
        assert_eq!(g[0], 0.0);
        assert_eq!(*g.last().unwrap(), 180.0);
    }

    #[test]
    fn coarse_grid() {
        let cfg = UniqConfig {
            grid_step_deg: 30.0,
            ..Default::default()
        };
        assert_eq!(cfg.output_grid().len(), 7);
    }

    #[test]
    fn content_hash_ignores_threads_but_sees_parameters() {
        let base = UniqConfig::default();
        let rethreaded = UniqConfig {
            threads: 8,
            ..UniqConfig::default()
        };
        assert_eq!(
            base.content_hash(),
            rethreaded.content_hash(),
            "thread count must not change result attribution"
        );
        let quieter = UniqConfig {
            snr_db: 20.0,
            ..UniqConfig::default()
        };
        assert_ne!(base.content_hash(), quieter.content_hash());
        let mut slower = UniqConfig::default();
        slower.render.sample_rate = 44_100.0;
        assert_ne!(base.content_hash(), slower.content_hash());
    }

    #[test]
    fn content_hash_is_pinned() {
        // Captured before the fixed parameters became constants; the
        // constants fold where their fields did, so the digests hold.
        assert_eq!(UniqConfig::default().content_hash(), 0x784b_e109_ea39_10c9);
        assert_eq!(
            UniqConfig::fast_test().content_hash(),
            0x16f2_2dbf_0a27_29c2
        );
    }

    #[test]
    fn probe_beyond_nyquist_rejected() {
        let mut cfg = UniqConfig::default();
        cfg.render.sample_rate = 32_000.0;
        let err = cfg.validate().unwrap_err();
        assert!(matches!(err, ConfigError::ProbeBeyondNyquist { .. }));
        assert!(err.to_string().contains("Nyquist"));
    }

    #[test]
    fn each_bad_parameter_gets_its_own_error() {
        let cases: Vec<(UniqConfig, ConfigError)> = vec![
            (
                UniqConfig {
                    stops: 3,
                    ..Default::default()
                },
                ConfigError::TooFewStops { stops: 3 },
            ),
            (
                UniqConfig {
                    channel_len: 10,
                    ..Default::default()
                },
                ConfigError::ChannelTooShort { channel_len: 10 },
            ),
            (
                UniqConfig {
                    snr_db: f64::INFINITY,
                    ..Default::default()
                },
                ConfigError::NonFiniteSnr {
                    snr_db: f64::INFINITY,
                },
            ),
            (
                UniqConfig {
                    grid_step_deg: 0.0,
                    ..Default::default()
                },
                ConfigError::BadGridStep { grid_step_deg: 0.0 },
            ),
            (
                UniqConfig {
                    grid_step_deg: 1e-300,
                    ..Default::default()
                },
                ConfigError::BadGridStep {
                    grid_step_deg: 1e-300,
                },
            ),
            (
                UniqConfig {
                    room_gate_s: 0.0,
                    ..Default::default()
                },
                ConfigError::BadRoomGate { room_gate_s: 0.0 },
            ),
        ];
        for (cfg, want) in cases {
            assert_eq!(cfg.validate().unwrap_err(), want);
        }
    }

    #[test]
    fn render_checks_are_mirrored() {
        let mut cfg = UniqConfig::default();
        cfg.render.ir_len = 8;
        assert!(matches!(
            cfg.validate().unwrap_err(),
            ConfigError::IrTooShort { ir_len: 8 }
        ));
        let mut cfg = UniqConfig::default();
        cfg.render.base_delay = -1.0;
        assert!(matches!(
            cfg.validate().unwrap_err(),
            ConfigError::NegativeBaseDelay { .. }
        ));
    }
}
