//! # uniq-cli
//!
//! Command-line interface to the UNIQ reproduction. The binary is `uniq`:
//!
//! ```text
//! uniq personalize --seed 42 --out me.uhrtf [--anechoic] [--grid 5]
//! uniq info --table me.uhrtf
//! uniq render --table me.uhrtf --theta 60 --signal music --out out.wav
//! uniq aoa --table me.uhrtf --theta 60 --signal speech
//! ```
//!
//! The argument parser is intentionally tiny (flag/value pairs only) so
//! the crate stays dependency-free.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;
