//! uniq-store: persistence for personalized HRTFs.
//!
//! The UNIQ pipeline's output — a subject's near/far-field HRTF grids —
//! previously died with the process. This crate gives it a life on disk:
//!
//! * [`format`](mod@format) — the `.uhrtf` binary interchange format, v1: a
//!   SOFA-inspired container with a versioned, CRC-checksummed header
//!   carrying both grids plus provenance (seed, subject fingerprint,
//!   config hash, degradation report). Hand-rolled reader/writer, no
//!   serde; every corruption is a typed [`StoreError`].
//! * [`store`] — a content-addressed store: blobs keyed by the FNV-1a
//!   hash of their bytes plus one append-only index, with put / get /
//!   lookup / dedup / scan / verify operations safe under parallel
//!   writers.
//!
//! `.uhrtf` is the repo's only HRTF file format: `uniq personalize --out`
//! writes it and `uniq info|render|aoa --table` read it. The store's CLI
//! front end is `uniq store put|get|ls|verify|import`; the `baseline`
//! bench bin can persist its pinned seed-6 artifact here, and store I/O
//! reports through the `store.*` obs names.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod format;
pub mod store;

pub use error::StoreError;
pub use format::{
    content_key, decode, encode, Encoded, Grid, HrtfArtifact, FORMAT_VERSION, HEADER_LEN,
};
pub use store::{IndexEntry, PutOutcome, Store, VerifyReport};
