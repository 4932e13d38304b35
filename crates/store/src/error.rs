//! Typed failures for the format reader/writer and the on-disk store.
//!
//! Every way a `.uhrtf` file or a store directory can be wrong maps to
//! exactly one variant here — the corruption battery in
//! `tests/corruption.rs` asserts that no truncation or byte flip ever
//! panics or silently succeeds, and the CLI maps these onto its
//! 0/1/2 exit-code contract.

/// A failure while encoding, decoding, or storing an HRTF artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// File shorter than the fixed-size header.
    TooShort {
        /// Bytes actually present.
        len: usize,
    },
    /// The first eight bytes are not the `.uhrtf` magic.
    BadMagic {
        /// The bytes found where the magic should be.
        found: [u8; 8],
    },
    /// A format version this reader does not understand.
    UnsupportedVersion {
        /// The version stamped in the header.
        version: u16,
    },
    /// Header flag bits this reader does not understand (v1 defines only
    /// bit 0, "degradation report present").
    UnsupportedFlags {
        /// The flag word found.
        flags: u16,
    },
    /// The header's CRC-32 does not match its bytes.
    HeaderChecksum {
        /// Checksum recorded in the header.
        stored: u32,
        /// Checksum computed over the header bytes.
        computed: u32,
    },
    /// The payload length declared in the header disagrees with the bytes
    /// actually present (truncation or trailing garbage).
    LengthMismatch {
        /// Payload bytes the header promises.
        declared: u64,
        /// Payload bytes actually present after the header.
        actual: u64,
    },
    /// The payload's CRC-32 does not match its bytes.
    PayloadChecksum {
        /// Checksum recorded in the header.
        stored: u32,
        /// Checksum computed over the payload bytes.
        computed: u32,
    },
    /// The payload is structurally malformed (a count overruns the
    /// payload, a field is cut short, or bytes trail the last field).
    Malformed(String),
    /// A grid that cannot back a lookup table (empty, ragged, duplicate
    /// or non-finite angles) where one is required.
    BadGrid(String),
    /// A well-formed file whose values cannot back a lookup table: a head
    /// axis outside the plausible range, or a sample rate that is not
    /// finite and positive.
    BadValue(String),
    /// A blob's content no longer hashes to its content key.
    KeyMismatch {
        /// The key the content was filed under.
        key: String,
        /// The key its bytes actually hash to.
        actual: String,
    },
    /// A decoded artifact's recomputed fingerprint disagrees with the
    /// subject fingerprint stamped in its header.
    FingerprintMismatch {
        /// Fingerprint stamped in the artifact header.
        stored: u64,
        /// Fingerprint recomputed from the decoded payload.
        computed: u64,
    },
    /// A key absent from the store index.
    UnknownKey {
        /// The key looked up.
        key: String,
    },
    /// The append-only index file is malformed.
    IndexCorrupt {
        /// 1-based line number of the offending index line.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// An underlying filesystem operation failed.
    Io {
        /// Path the operation touched.
        path: String,
        /// The OS error rendered as text (kept as a string so the error
        /// stays `Clone + PartialEq` for tests).
        reason: String,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::TooShort { len } => {
                write!(f, "file too short for a .uhrtf header ({len} bytes)")
            }
            StoreError::BadMagic { found } => write!(f, "bad magic {found:02x?}"),
            StoreError::UnsupportedVersion { version } => {
                write!(f, "unsupported format version {version}")
            }
            StoreError::UnsupportedFlags { flags } => {
                write!(f, "unsupported header flags {flags:#06x}")
            }
            StoreError::HeaderChecksum { stored, computed } => write!(
                f,
                "header checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
            ),
            StoreError::LengthMismatch { declared, actual } => write!(
                f,
                "payload length mismatch (header declares {declared} bytes, found {actual})"
            ),
            StoreError::PayloadChecksum { stored, computed } => write!(
                f,
                "payload checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
            ),
            StoreError::Malformed(what) => write!(f, "malformed payload: {what}"),
            StoreError::BadGrid(what) => write!(f, "bad grid: {what}"),
            StoreError::BadValue(what) => write!(f, "bad value: {what}"),
            StoreError::KeyMismatch { key, actual } => {
                write!(f, "content of blob {key} hashes to {actual}")
            }
            StoreError::FingerprintMismatch { stored, computed } => write!(
                f,
                "subject fingerprint mismatch (stored {stored:#018x}, recomputed {computed:#018x})"
            ),
            StoreError::UnknownKey { key } => write!(f, "key {key} not in the store index"),
            StoreError::IndexCorrupt { line, reason } => {
                write!(f, "index line {line} corrupt: {reason}")
            }
            StoreError::Io { path, reason } => write!(f, "I/O failure on {path}: {reason}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl StoreError {
    /// Wraps an OS error with the path it struck.
    pub fn io(path: &std::path::Path, err: &std::io::Error) -> StoreError {
        StoreError::Io {
            path: path.display().to_string(),
            reason: err.to_string(),
        }
    }
}
