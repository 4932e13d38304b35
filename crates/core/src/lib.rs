//! # uniq-core
//!
//! The paper's contribution: **UNIQ**, a system that estimates a user's
//! *personal* head-related transfer function (HRTF) from a smartphone
//! swept around the head while in-ear earphones record probe chirps.
//!
//! Pipeline (Fig 6 of the paper):
//!
//! ```text
//!  earphone recordings ──┐
//!  phone IMU ────────────┼─▶ [fusion]  Diffraction-aware Sensor Fusion
//!  played probe ─────────┘       │       E_opt = (a,b,c), phone locations
//!                                ▼
//!                        [nearfield]  near-field HRTF @ discrete angles
//!                                │       + interpolation to 1° grid
//!                                ▼
//!                          [nearfar]  far-field HRTF synthesis
//!                                │       (critical-ray arc averaging)
//!                                ▼
//!                            [hrtf]   lookup table / application API
//!                                │
//!                                ▼
//!                             [aoa]   binaural AoA estimation
//! ```
//!
//! Module map:
//!
//! * [`config`] — every knob of the pipeline in one validated struct.
//! * [`channel`] — channel estimation from recordings: deconvolution,
//!   system-response compensation, room-echo gating, first-tap extraction.
//! * [`degrade`] — graceful degradation under measurement faults: the
//!   fault-hook boundary, skip/retry policy and degradation reports.
//! * [`session`] — the measurement session: gesture, IMU capture, probe
//!   playback at discrete stops (drives `uniq-acoustics` + `uniq-imu`).
//! * [`fusion`] — diffraction-aware sensor fusion (§4.1, Eqs 1–3): joint
//!   estimation of head parameters and phone locations.
//! * [`fusion3d`] — the §7 extension: spherical gestures, two-axis IMU
//!   integration, 3-D localization and four-parameter head fits.
//! * [`nearfield`] — near-field HRTF assembly and interpolation (§4.2).
//! * [`nearfar`] — near-to-far conversion via critical-ray arc averaging
//!   (§4.3), plus the paper's two experimental decomposition attempts.
//! * [`hrtf`] — the personalized HRTF table and application interface
//!   (§4.4): binaural synthesis for near/far sources. Applications
//!   receive the table as a `.uhrtf` file (`uniq-store`).
//! * [`aoa`] — HRTF-aware binaural angle-of-arrival estimation (§4.5),
//!   known- and unknown-source variants.
//! * [`batch`] — concurrent multi-subject personalization on the
//!   `uniq-par` pool, with a determinism fingerprint and thread-scaling
//!   sweeps.
//! * [`pipeline`] — end-to-end orchestration with gesture auto-correction
//!   (§4.6).
//!
//! The §4.5 hearing-aid beamformer is not implemented: nothing evaluated
//! it. The session assumes phone and earphones share one clock, as the
//! paper does, so there is no clock-offset calibration either.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aoa;
pub mod batch;
pub mod channel;
pub mod config;
pub mod degrade;
pub mod fusion;
pub mod fusion3d;
pub mod hrtf;
pub mod nearfar;
pub mod nearfield;
pub mod pipeline;
pub mod session;

pub use config::UniqConfig;
pub use degrade::{DegradationPolicy, DegradationReport, FaultHook};
pub use hrtf::PersonalHrtf;
pub use pipeline::{
    personalize, personalize_faulted, FaultedPersonalization, PersonalizationError,
    PersonalizationResult,
};
