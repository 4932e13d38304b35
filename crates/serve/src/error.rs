//! Typed failures of the serve protocol and server runtime.
//!
//! Every malformed byte a client can send maps to one of these variants —
//! the framing layer and request parser return them instead of panicking,
//! and the connection handler renders them as `{"status":"error", ...}`
//! lines. The `kind` string is part of the wire contract: the conformance
//! battery in `tests/serve.rs` asserts on it.

use std::fmt;

/// A serve-side failure: framing, parsing, admission, or pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// A frame exceeded the line limit before a newline arrived. Fatal:
    /// the stream cannot be resynchronized, the connection closes after
    /// the error response.
    LineTooLong {
        /// The configured limit, bytes.
        limit: usize,
    },
    /// The peer closed the stream mid-frame (bytes after the last
    /// newline). Nothing to respond to — the connection closes.
    TruncatedFrame {
        /// Unterminated bytes left in the buffer.
        bytes: usize,
    },
    /// A complete frame was not valid UTF-8. The frame boundary is known,
    /// so the connection survives.
    InvalidUtf8 {
        /// Bytes that decoded cleanly before the offending sequence.
        valid_up_to: usize,
    },
    /// A frame was not parseable JSON, or not a JSON object.
    BadJson {
        /// Parser diagnostic.
        detail: String,
    },
    /// A required field was absent.
    MissingField {
        /// The field name.
        field: &'static str,
    },
    /// A field was present with the wrong type or an invalid value.
    BadField {
        /// The field name.
        field: &'static str,
        /// What was wrong with it.
        detail: String,
    },
    /// A field this request type does not define. The protocol is strict:
    /// unknown fields are rejected, not ignored, so typos fail loudly.
    UnknownField {
        /// The offending field name.
        field: String,
    },
    /// A `type` value naming no known request.
    UnknownType {
        /// The offending type value.
        value: String,
    },
    /// A string field exceeded its body limit.
    BodyTooLarge {
        /// The field name.
        field: &'static str,
        /// The configured limit, bytes.
        limit: usize,
        /// Actual size, bytes.
        bytes: usize,
    },
    /// The target shard's bounded queue was full; the request was shed.
    Overloaded {
        /// The shard the request hashed to.
        shard: usize,
        /// Its queue capacity.
        queue_depth: usize,
    },
    /// The server already holds its limit of live connections; the new
    /// connection was refused (wire kind `overloaded`).
    ConnectionLimit {
        /// Live connections the server allows.
        limit: usize,
    },
    /// The server is draining and accepts no new work.
    ShuttingDown,
    /// The personalization pipeline failed for this request.
    Pipeline {
        /// The pipeline's error.
        detail: String,
    },
    /// Processing the request panicked. The shard worker caught the
    /// unwind, answered with this error and kept serving.
    Internal {
        /// The panic message.
        detail: String,
    },
    /// Invalid server configuration (bind address, shard count, ...).
    Config {
        /// What was invalid.
        detail: String,
    },
    /// A socket operation failed.
    Io {
        /// The operation ("bind", "connect", "read", "write", ...).
        op: &'static str,
        /// The OS error.
        detail: String,
    },
}

impl ServeError {
    /// The stable wire identifier of this error class, carried in the
    /// `kind` field of error responses.
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::LineTooLong { .. } => "line_too_long",
            ServeError::TruncatedFrame { .. } => "truncated_frame",
            ServeError::InvalidUtf8 { .. } => "invalid_utf8",
            ServeError::BadJson { .. } => "bad_json",
            ServeError::MissingField { .. } => "missing_field",
            ServeError::BadField { .. } => "bad_field",
            ServeError::UnknownField { .. } => "unknown_field",
            ServeError::UnknownType { .. } => "unknown_type",
            ServeError::BodyTooLarge { .. } => "body_too_large",
            ServeError::Overloaded { .. } | ServeError::ConnectionLimit { .. } => "overloaded",
            ServeError::ShuttingDown => "shutting_down",
            ServeError::Pipeline { .. } => "pipeline",
            ServeError::Internal { .. } => "internal",
            ServeError::Config { .. } => "config",
            ServeError::Io { .. } => "io",
        }
    }

    /// Whether the connection must close after responding: `true` when
    /// the stream cannot be resynchronized to the next frame boundary.
    pub fn closes_connection(&self) -> bool {
        matches!(
            self,
            ServeError::LineTooLong { .. }
                | ServeError::TruncatedFrame { .. }
                | ServeError::Io { .. }
        )
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::LineTooLong { limit } => {
                write!(f, "frame exceeds the {limit}-byte line limit")
            }
            ServeError::TruncatedFrame { bytes } => {
                write!(f, "stream ended mid-frame ({bytes} unterminated bytes)")
            }
            ServeError::InvalidUtf8 { valid_up_to } => {
                write!(
                    f,
                    "frame is not valid UTF-8 (valid up to byte {valid_up_to})"
                )
            }
            ServeError::BadJson { detail } => write!(f, "malformed JSON: {detail}"),
            ServeError::MissingField { field } => write!(f, "missing required field {field:?}"),
            ServeError::BadField { field, detail } => write!(f, "bad field {field:?}: {detail}"),
            ServeError::UnknownField { field } => write!(f, "unknown field {field:?}"),
            ServeError::UnknownType { value } => write!(f, "unknown request type {value:?}"),
            ServeError::BodyTooLarge {
                field,
                limit,
                bytes,
            } => write!(
                f,
                "field {field:?} is {bytes} bytes, over the {limit}-byte body limit"
            ),
            ServeError::Overloaded { shard, queue_depth } => write!(
                f,
                "shard {shard} queue full (depth {queue_depth}); request shed"
            ),
            ServeError::ConnectionLimit { limit } => write!(
                f,
                "server holds its limit of {limit} live connections; connection refused"
            ),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::Pipeline { detail } => write!(f, "personalization failed: {detail}"),
            ServeError::Internal { detail } => write!(f, "internal error: {detail}"),
            ServeError::Config { detail } => write!(f, "invalid server config: {detail}"),
            ServeError::Io { op, detail } => write!(f, "{op} failed: {detail}"),
        }
    }
}

impl std::error::Error for ServeError {}
