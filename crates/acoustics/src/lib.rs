//! # uniq-acoustics
//!
//! Forward acoustic propagation simulator for the UNIQ reproduction — the
//! stand-in for the paper's physical world (volunteers, a Xiaomi phone
//! with a pasted speaker, SP-TFB-2 in-ear microphones, and a real room).
//!
//! The simulator renders what an in-ear microphone records when a source
//! plays near a head:
//!
//! * [`types`] — binaural impulse-response containers ([`BinauralIr`],
//!   [`HrirBank`]) and the [`RenderConfig`] shared across the workspace.
//! * [`shadow`] — frequency-dependent diffraction-shadow attenuation
//!   (creeping waves lose high frequencies as they wrap the head).
//! * [`pinna`] — angle-sensitive pinna micro-echo models; the per-subject
//!   parameters that make HRTFs personal (§2, Fig 2 of the paper).
//! * [`render`] — the core renderer: point-source and plane-wave HRIRs
//!   combining wrap delay, spreading loss, shadow filtering and pinna
//!   multipath.
//! * [`render3d`] — the 3-D forward model for the §7 elevation extension.
//! * [`room`] — image-source shoebox reverberation; room echoes arrive
//!   after head/pinna taps, which UNIQ's pre-processing exploits (§4.6).
//! * [`system`] — the speaker–microphone frequency response (Fig 16) and
//!   its calibration/compensation.
//! * [`signals`] — stochastic test signals: white noise, synthetic music
//!   and speech (the unknown-source categories of Fig 22).
//! * [`measure`] — the measurement channel: probe playback through the
//!   full chain with configurable SNR.
//!
//! Everything is deterministic given an RNG seed; `rand::StdRng` seeds are
//! threaded explicitly so experiments are reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod measure;
pub mod pinna;
pub mod render;
pub mod render3d;
pub mod room;
pub mod shadow;
pub mod signals;
pub mod system;
pub mod types;

pub use pinna::PinnaModel;
pub use render::{NearFieldError, Renderer};
pub use types::{BinauralIr, HrirBank, RenderConfig};
