//! uniq-serve: a sharded, long-running personalization server.
//!
//! The server speaks line-delimited JSON over TCP: one request object
//! per `\n`-terminated line, one response object per line back. A
//! listener thread accepts connections; each connection gets a reader
//! thread that frames lines ([`protocol::FrameBuffer`]), parses them
//! under a strict grammar, and routes `personalize` requests to one of
//! N shard workers by the FNV hash of the subject seed
//! ([`protocol::subject_key`]). Every shard owns a bounded queue: a
//! full queue sheds the request with an explicit `overloaded` response
//! instead of blocking the connection.
//!
//! Workers run the exact library pipeline
//! ([`uniq_core::pipeline::personalize_with_retry`]) and consult a
//! content-addressed result cache backed by [`uniq_store`], keyed by
//! `(subject seed, UniqConfig::content_hash)`. Responses carry the same
//! FNV-1a result fingerprint the library path computes, so a serve
//! deployment is bit-for-bit auditable against an offline run.
//!
//! Malformed input is never a panic: each failure class is a typed
//! [`ServeError`] with a stable wire `kind`, and only errors that lose
//! the frame boundary close the connection.
//!
//! [`loadgen`] is the matching deterministic closed-loop load harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod loadgen;
pub mod protocol;
pub mod server;

pub use error::ServeError;
pub use loadgen::{LoadgenConfig, LoadgenReport};
pub use protocol::{
    fold_fingerprints, subject_key, PersonalizeRequest, PersonalizedReply, Request, Response,
    StatsReply, MAX_LINE_BYTES,
};
pub use server::{DrainReport, ServeConfig, Server};
