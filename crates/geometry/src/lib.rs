//! # uniq-geometry
//!
//! Head geometry and acoustic diffraction path models for the UNIQ HRTF
//! personalization system.
//!
//! The paper (§4.1) models the head as **two half-ellipses** joined at the
//! ear line — semi-axes `a` (lateral, through the ears), `b` (front/face
//! depth) and `c` (rear/skull depth) — because heads are not front/back
//! symmetric. Audible sound does not penetrate the head; it *diffracts*
//! (wraps) around the convex boundary (§2, Fig 5). This crate provides:
//!
//! * [`vec2`] — plane vectors and the head-centric coordinate frame.
//! * [`head`] — the three-parameter head model and its discretized convex
//!   boundary with cumulative arc lengths.
//! * [`diffraction`] — shortest wrap paths from a *point source* (the
//!   phone) to either ear: Euclidean when line-of-sight, tangent + boundary
//!   arc when the head occludes.
//! * [`planewave`] — the far-field analogue: wrap delays for parallel rays
//!   from a distant source (used by near-far conversion and ground truth).
//! * [`critical`] — the critical rays `B`, `C`, `D` of §4.3 that decide
//!   which near-field measurements contribute to a far-field HRTF.
//! * [`elevation`] — the §7 "3D HRTF" extension prototype: ellipsoid
//!   heads, plane-section geodesics, elevation-dependent ITDs and the
//!   cone of confusion.
//!
//! ## Coordinate frame
//!
//! The head centre is the origin. The **x axis runs through the ears**
//! (left ear at `(-a, 0)`, right ear at `(+a, 0)`); **+y points out of the
//! nose** (front). The paper's polar angle `θ ∈ [0°, 180°]` sweeps the left
//! side of the head: `θ = 0°` is straight ahead, `θ = 90°` is the left ear
//! direction, `θ = 180°` is straight behind. [`vec2::unit_from_theta`]
//! converts between the two.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod critical;
pub mod diffraction;
pub mod elevation;
pub mod head;
pub mod planewave;
pub mod vec2;

pub use head::{Ear, HeadBoundary, HeadParams};
pub use vec2::Vec2;
