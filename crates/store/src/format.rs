//! The `.uhrtf` binary interchange format, version 1.
//!
//! A compact, SOFA-inspired container for one personalized HRTF: both
//! measurement grids (near field and the derived far field), the head
//! geometry, and the provenance metadata a result cache needs (seed,
//! subject fingerprint, config hash, degradation report). The reader and
//! writer are hand-rolled over little-endian byte slices — no serde,
//! following the `uniq_obs::json` precedent — and every byte of the file
//! is covered by one of two CRC-32 checksums, so any truncation or bit
//! flip surfaces as a typed [`StoreError`], never a panic or a silently
//! wrong table.
//!
//! ## Byte layout (all integers and floats little-endian)
//!
//! 64-byte header:
//!
//! | offset | size | field |
//! |--------|------|-------|
//! | 0      | 8    | magic `b"UHRTFBIN"` |
//! | 8      | 2    | format version (`u16`, currently 1) |
//! | 10     | 2    | flags (`u16`; bit 0 = degradation report present) |
//! | 12     | 4    | header CRC-32 (over the 64 header bytes with this field zeroed) |
//! | 16     | 8    | payload length in bytes (`u64`) |
//! | 24     | 4    | payload CRC-32 |
//! | 28     | 4    | reserved (zero) |
//! | 32     | 8    | subject fingerprint (`u64`, see [`HrtfArtifact::fingerprint`]) |
//! | 40     | 8    | config hash (`u64`, `UniqConfig::content_hash`) |
//! | 48     | 8    | sample rate (`f64` bits) |
//! | 56     | 8    | subject seed (`u64`) |
//!
//! Payload, immediately after the header:
//!
//! | field | encoding |
//! |-------|----------|
//! | head semi-axes a, b, c | 3 × `f64` |
//! | gesture radius, metres | `f64` |
//! | attempts | `u32` |
//! | localization pairs | count `u32`, then count × (truth `f64`, estimate `f64`) |
//! | near grid | angle count `u32`, IR length `u32`, angles (count × `f64`), then per angle left then right IR samples |
//! | far grid | same encoding |
//! | degradation report | UTF-8 length `u32`, then the JSON bytes |

use crate::error::StoreError;
use uniq_acoustics::types::{BinauralIr, HrirBank};
use uniq_core::batch::{fold_result_parts, FingerprintBuilder};
use uniq_core::hrtf::PersonalHrtf;
use uniq_core::pipeline::PersonalizationResult;
use uniq_geometry::HeadParams;

/// Current `.uhrtf` format version.
pub const FORMAT_VERSION: u16 = 1;

/// The eight magic bytes opening every `.uhrtf` file.
pub const MAGIC: [u8; 8] = *b"UHRTFBIN";

/// Fixed header size, bytes.
pub const HEADER_LEN: usize = 64;

/// Flag bit: the payload carries a degradation report.
pub const FLAG_DEGRADATION: u16 = 0x0001;

/// All flag bits a v1 reader understands.
const KNOWN_FLAGS: u16 = FLAG_DEGRADATION;

/// Slicing-by-8 tables for the IEEE polynomial: `CRC32_TABLES[0]` is the
/// classic byte-at-a-time table, and `CRC32_TABLES[k][i]` is that entry
/// carried through `k` more zero bytes, so one step folds in 8 bytes.
static CRC32_TABLES: [[u32; 256]; 8] = build_crc32_tables();

const fn build_crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3 polynomial) of `bytes`, 8 bytes per step
/// (slicing-by-8), then the remainder one byte at a time.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let mut word = [0u8; 8];
        word.copy_from_slice(chunk);
        let v = u64::from_le_bytes(word) ^ u64::from(crc);
        let byte = |n: u32| ((v >> (8 * n)) & 0xFF) as usize;
        crc = t[7][byte(0)]
            ^ t[6][byte(1)]
            ^ t[5][byte(2)]
            ^ t[4][byte(3)]
            ^ t[3][byte(4)]
            ^ t[2][byte(5)]
            ^ t[1][byte(6)]
            ^ t[0][byte(7)];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// The byte-at-a-time CRC-32 that [`crc32`] must reproduce bit for bit.
#[cfg(test)]
fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// The content key of an encoded artifact: its [`uniq_obs::fnv1a`] hash as 16
/// lowercase hex digits. Blobs are filed under this key, so equal bytes
/// always deduplicate.
pub fn content_key(bytes: &[u8]) -> String {
    format!("{:016x}", uniq_obs::fnv1a(bytes))
}

/// One ear-pair grid: measurement angles plus a left/right impulse
/// response per angle. Unlike `HrirBank` this type tolerates empty and
/// degenerate shapes (zero angles, zero-length IRs, repeated angles) so
/// the format can round-trip anything a writer produced; conversion to a
/// lookup table re-validates.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid {
    /// Measurement angle of each entry, degrees, in writer order.
    pub angles_deg: Vec<f64>,
    /// Samples per ear per entry.
    pub ir_len: usize,
    /// One `(left, right)` impulse-response pair per angle.
    pub irs: Vec<(Vec<f64>, Vec<f64>)>,
}

impl Grid {
    /// A grid with no entries.
    pub fn empty() -> Grid {
        Grid {
            angles_deg: Vec::new(),
            ir_len: 0,
            irs: Vec::new(),
        }
    }

    /// Copies a lookup-table bank into a grid.
    pub fn from_bank(bank: &HrirBank) -> Grid {
        Grid {
            angles_deg: bank.angles().to_vec(),
            ir_len: bank.irs().first().map_or(0, BinauralIr::len),
            irs: bank
                .irs()
                .iter()
                .map(|ir| (ir.left.clone(), ir.right.clone()))
                .collect(),
        }
    }

    /// Number of angle entries.
    pub fn len(&self) -> usize {
        self.angles_deg.len()
    }

    /// Whether the grid has no entries.
    pub fn is_empty(&self) -> bool {
        self.angles_deg.is_empty()
    }

    /// Checks the structural invariant the encoder relies on: one IR pair
    /// per angle, every response exactly `ir_len` samples.
    pub fn validate(&self, which: &str) -> Result<(), StoreError> {
        if self.irs.len() != self.angles_deg.len() {
            return Err(StoreError::BadGrid(format!(
                "{which} grid has {} angles but {} IR pairs",
                self.angles_deg.len(),
                self.irs.len()
            )));
        }
        for (i, (left, right)) in self.irs.iter().enumerate() {
            if left.len() != self.ir_len || right.len() != self.ir_len {
                return Err(StoreError::BadGrid(format!(
                    "{which} grid entry {i} has {}/{} samples, expected {}",
                    left.len(),
                    right.len(),
                    self.ir_len
                )));
            }
        }
        Ok(())
    }

    /// Converts the grid into an `HrirBank`, re-validating everything the
    /// bank constructor would otherwise assert (so a hostile file can
    /// never panic the reader): non-empty with non-empty IRs,
    /// shape-consistent, and strictly distinct finite angles.
    pub fn to_bank(&self, which: &str, sample_rate: f64) -> Result<HrirBank, StoreError> {
        self.validate(which)?;
        if self.is_empty() || self.ir_len == 0 {
            return Err(StoreError::BadGrid(format!(
                "{which} grid has no entries or zero-length IRs — cannot build a lookup table"
            )));
        }
        if self.angles_deg.iter().any(|a| !a.is_finite()) {
            return Err(StoreError::BadGrid(format!(
                "{which} grid has a non-finite angle"
            )));
        }
        let mut sorted = self.angles_deg.clone();
        sorted.sort_by(f64::total_cmp);
        for w in sorted.windows(2) {
            if w[1] - w[0] <= 1e-9 {
                return Err(StoreError::BadGrid(format!(
                    "{which} grid has near-duplicate angles {} and {}",
                    w[0], w[1]
                )));
            }
        }
        let pairs: Vec<(f64, BinauralIr)> = self
            .angles_deg
            .iter()
            .zip(&self.irs)
            .map(|(&angle, (left, right))| (angle, BinauralIr::new(left.clone(), right.clone())))
            .collect();
        Ok(HrirBank::new(pairs, sample_rate))
    }
}

/// One personalized HRTF as a storable artifact: the paper's output
/// grids plus everything needed to re-derive the run's fingerprint and
/// attribute the result to a subject and configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct HrtfArtifact {
    /// Seed of the synthetic subject (drives anatomy, gesture, noise).
    pub seed: u64,
    /// Digest of the run's numeric output (see [`HrtfArtifact::fingerprint`]);
    /// stamped at write time, re-checked by store verification.
    pub subject_fingerprint: u64,
    /// `UniqConfig::content_hash` of the configuration that produced the
    /// result.
    pub config_hash: u64,
    /// Audio sample rate shared by both grids, hertz.
    pub sample_rate: f64,
    /// Fitted head semi-axes `[a, b, c]`, metres.
    pub head: [f64; 3],
    /// Estimated gesture radius, metres.
    pub radius_m: f64,
    /// Personalization attempts consumed (1 = first try).
    pub attempts: u32,
    /// Per-stop `(truth, estimate)` localization angles, degrees.
    pub localization: Vec<(f64, f64)>,
    /// Near-field grid.
    pub near: Grid,
    /// Far-field grid.
    pub far: Grid,
    /// Degradation report JSON of a faulted run (`None` = clean).
    pub degradation_json: Option<String>,
}

impl HrtfArtifact {
    /// Packages a pipeline result as a storable artifact. The subject
    /// fingerprint is computed from the result exactly as
    /// `uniq_core::batch::hrtf_fingerprint` would digest it, so a stored
    /// artifact can later prove it reproduces the in-memory run bit for
    /// bit (the acceptance gate against `BENCH_BASELINE.json`).
    pub fn from_result(
        seed: u64,
        result: &PersonalizationResult,
        config_hash: u64,
        degradation_json: Option<String>,
    ) -> HrtfArtifact {
        let head = result.hrtf.head();
        let mut artifact = HrtfArtifact {
            seed,
            subject_fingerprint: 0,
            config_hash,
            sample_rate: result.hrtf.sample_rate(),
            head: [head.a, head.b, head.c],
            radius_m: result.radius_m,
            attempts: result.attempts as u32,
            localization: result.localization.clone(),
            near: Grid::from_bank(result.hrtf.near()),
            far: Grid::from_bank(result.hrtf.far()),
            degradation_json,
        };
        artifact.subject_fingerprint = artifact.fingerprint();
        artifact
    }

    /// Recomputes the subject fingerprint from the artifact's own fields,
    /// using the same FNV-1a fold as the batch fingerprint — so
    /// `put` → `get` → `fingerprint()` equals the fingerprint of the
    /// original in-memory result.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = FingerprintBuilder::new();
        fold_result_parts(
            &mut fp,
            self.seed,
            self.radius_m,
            u64::from(self.attempts),
            &self.localization,
            [&self.near, &self.far]
                .into_iter()
                .flat_map(|grid| grid.irs.iter())
                .map(|(left, right)| (left.as_slice(), right.as_slice())),
        );
        fp.finish()
    }

    /// Checks the stamped subject fingerprint against the one recomputed
    /// from the payload.
    pub fn check_fingerprint(&self) -> Result<(), StoreError> {
        let computed = self.fingerprint();
        if computed != self.subject_fingerprint {
            return Err(StoreError::FingerprintMismatch {
                stored: self.subject_fingerprint,
                computed,
            });
        }
        Ok(())
    }

    /// Converts the artifact back into a runtime lookup table,
    /// re-validating every value the table's constructors would
    /// otherwise assert on, so a checksum-valid file with bad values is a
    /// typed error, not a panic.
    pub fn to_table(&self) -> Result<PersonalHrtf, StoreError> {
        if !(self.sample_rate.is_finite() && self.sample_rate > 0.0) {
            return Err(StoreError::BadValue(format!(
                "sample rate {} Hz is not finite and positive",
                self.sample_rate
            )));
        }
        let [a, b, c] = self.head;
        let head = HeadParams { a, b, c };
        if let Some((name, v)) = head.implausible_axis() {
            return Err(StoreError::BadValue(format!(
                "head axis {name} = {v} m is outside the plausible range"
            )));
        }
        let near = self.near.to_bank("near", self.sample_rate)?;
        let far = self.far.to_bank("far", self.sample_rate)?;
        // AoA matches against the far entries with a first tap on both
        // ears, and a first tap exists wherever a sample is non-zero.
        let heard = |ir: &[f64]| ir.iter().any(|v| v.abs() > 0.0);
        if !far
            .irs()
            .iter()
            .any(|ir| heard(&ir.left) && heard(&ir.right))
        {
            return Err(StoreError::BadValue(
                "far grid has no entry with signal in both ears".into(),
            ));
        }
        Ok(PersonalHrtf::new(near, far, head))
    }
}

fn push_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn count_u32(n: usize, what: &str) -> Result<u32, StoreError> {
    u32::try_from(n).map_err(|_| StoreError::Malformed(format!("{what} count {n} exceeds u32")))
}

fn encode_grid(out: &mut Vec<u8>, grid: &Grid, which: &str) -> Result<(), StoreError> {
    grid.validate(which)?;
    push_u32(out, count_u32(grid.angles_deg.len(), which)?);
    push_u32(out, count_u32(grid.ir_len, which)?);
    for &angle in &grid.angles_deg {
        push_f64(out, angle);
    }
    for (left, right) in &grid.irs {
        for &v in left.iter().chain(right) {
            push_f64(out, v);
        }
    }
    Ok(())
}

/// Encoded size of one grid: two counts, the angles, then every sample.
fn grid_len(grid: &Grid) -> usize {
    let samples: usize = grid.irs.iter().map(|(l, r)| l.len() + r.len()).sum();
    8 + 8 * (grid.angles_deg.len() + samples)
}

/// Serializes an artifact to `.uhrtf` bytes. The encoding is canonical:
/// equal artifacts always produce identical bytes (and therefore the
/// same content key).
pub fn encode(artifact: &HrtfArtifact) -> Result<Vec<u8>, StoreError> {
    let degradation = artifact.degradation_json.as_deref().unwrap_or("");
    // Head axes and radius, attempts, the localization count and pairs,
    // both grids, then the report's length and bytes.
    let payload_len = 8 * 4
        + 4
        + 4
        + 16 * artifact.localization.len()
        + grid_len(&artifact.near)
        + grid_len(&artifact.far)
        + 4
        + degradation.len();
    // One buffer: the header is written in place once the payload behind
    // it is final.
    let mut out = Vec::with_capacity(HEADER_LEN + payload_len);
    out.resize(HEADER_LEN, 0);
    for v in artifact.head {
        push_f64(&mut out, v);
    }
    push_f64(&mut out, artifact.radius_m);
    push_u32(&mut out, artifact.attempts);
    push_u32(
        &mut out,
        count_u32(artifact.localization.len(), "localization")?,
    );
    for &(truth, est) in &artifact.localization {
        push_f64(&mut out, truth);
        push_f64(&mut out, est);
    }
    encode_grid(&mut out, &artifact.near, "near")?;
    encode_grid(&mut out, &artifact.far, "far")?;
    push_u32(&mut out, count_u32(degradation.len(), "degradation")?);
    out.extend_from_slice(degradation.as_bytes());

    let flags = if artifact.degradation_json.is_some() {
        FLAG_DEGRADATION
    } else {
        0
    };
    let (header, payload) = out.split_at_mut(HEADER_LEN);
    header[0..8].copy_from_slice(&MAGIC);
    header[8..10].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    header[10..12].copy_from_slice(&flags.to_le_bytes());
    // 12..16: header CRC, patched below once the rest is final.
    header[16..24].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    header[24..28].copy_from_slice(&crc32(payload).to_le_bytes());
    // 28..32 reserved, zero.
    header[32..40].copy_from_slice(&artifact.subject_fingerprint.to_le_bytes());
    header[40..48].copy_from_slice(&artifact.config_hash.to_le_bytes());
    header[48..56].copy_from_slice(&artifact.sample_rate.to_bits().to_le_bytes());
    header[56..64].copy_from_slice(&artifact.seed.to_le_bytes());
    let header_crc = crc32(header);
    header[12..16].copy_from_slice(&header_crc.to_le_bytes());
    Ok(out)
}

/// Bounds-checked little-endian payload reader: every overrun is a typed
/// [`StoreError::Malformed`], never a slice panic.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], StoreError> {
        if n > self.remaining() {
            return Err(StoreError::Malformed(format!(
                "{what} needs {n} bytes, {} left in the payload",
                self.remaining()
            )));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u32(&mut self, what: &str) -> Result<u32, StoreError> {
        let mut b = [0u8; 4];
        b.copy_from_slice(self.take(4, what)?);
        Ok(u32::from_le_bytes(b))
    }

    fn f64(&mut self, what: &str) -> Result<f64, StoreError> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.take(8, what)?);
        Ok(f64::from_bits(u64::from_le_bytes(b)))
    }

    /// Reads `n` floats, pre-checking the byte budget before allocating
    /// so an absurd count in a crafted file cannot force a huge
    /// allocation.
    fn f64_vec(&mut self, n: usize, what: &str) -> Result<Vec<f64>, StoreError> {
        let bytes = n
            .checked_mul(8)
            .ok_or_else(|| StoreError::Malformed(format!("{what} count {n} overflows")))?;
        if bytes > self.remaining() {
            return Err(StoreError::Malformed(format!(
                "{what} claims {n} values but only {} payload bytes remain",
                self.remaining()
            )));
        }
        Ok(self
            .take(bytes, what)?
            .chunks_exact(8)
            .map(|chunk| {
                let mut b = [0u8; 8];
                b.copy_from_slice(chunk);
                f64::from_bits(u64::from_le_bytes(b))
            })
            .collect())
    }
}

fn decode_grid(cur: &mut Cursor<'_>, which: &str) -> Result<Grid, StoreError> {
    let count = cur.u32(which)? as usize;
    let ir_len = cur.u32(which)? as usize;
    let angles_deg = cur.f64_vec(count, which)?;
    // Pre-check the whole grid body so `count × ir_len` cannot multiply
    // into a huge reservation before the cursor notices the overrun.
    let body = count
        .checked_mul(ir_len)
        .and_then(|v| v.checked_mul(16))
        .ok_or_else(|| StoreError::Malformed(format!("{which} grid size overflows")))?;
    if body > cur.remaining() {
        return Err(StoreError::Malformed(format!(
            "{which} grid claims {body} bytes but only {} remain",
            cur.remaining()
        )));
    }
    let mut irs = Vec::with_capacity(count);
    for _ in 0..count {
        let left = cur.f64_vec(ir_len, which)?;
        let right = cur.f64_vec(ir_len, which)?;
        irs.push((left, right));
    }
    Ok(Grid {
        angles_deg,
        ir_len,
        irs,
    })
}

fn le_u16(bytes: &[u8], off: usize) -> u16 {
    let mut b = [0u8; 2];
    b.copy_from_slice(&bytes[off..off + 2]);
    u16::from_le_bytes(b)
}

fn le_u32(bytes: &[u8], off: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&bytes[off..off + 4]);
    u32::from_le_bytes(b)
}

fn le_u64(bytes: &[u8], off: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&bytes[off..off + 8]);
    u64::from_le_bytes(b)
}

/// Parses `.uhrtf` bytes back into an artifact, verifying both checksums
/// and every structural invariant. See the module docs for the exact
/// validation order; every failure is a typed [`StoreError`].
pub fn decode(bytes: &[u8]) -> Result<HrtfArtifact, StoreError> {
    if bytes.len() < HEADER_LEN {
        return Err(StoreError::TooShort { len: bytes.len() });
    }
    let header = &bytes[..HEADER_LEN];
    if header[0..8] != MAGIC {
        let mut found = [0u8; 8];
        found.copy_from_slice(&header[0..8]);
        return Err(StoreError::BadMagic { found });
    }
    let version = le_u16(header, 8);
    if version != FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion { version });
    }
    let stored_header_crc = le_u32(header, 12);
    let mut crc_input = [0u8; HEADER_LEN];
    crc_input.copy_from_slice(header);
    crc_input[12..16].copy_from_slice(&[0; 4]);
    let computed_header_crc = crc32(&crc_input);
    if stored_header_crc != computed_header_crc {
        return Err(StoreError::HeaderChecksum {
            stored: stored_header_crc,
            computed: computed_header_crc,
        });
    }
    let flags = le_u16(header, 10);
    if flags & !KNOWN_FLAGS != 0 {
        return Err(StoreError::UnsupportedFlags { flags });
    }
    let declared = le_u64(header, 16);
    let actual = (bytes.len() - HEADER_LEN) as u64;
    if declared != actual {
        return Err(StoreError::LengthMismatch { declared, actual });
    }
    let payload = &bytes[HEADER_LEN..];
    let stored_payload_crc = le_u32(header, 24);
    let computed_payload_crc = crc32(payload);
    if stored_payload_crc != computed_payload_crc {
        return Err(StoreError::PayloadChecksum {
            stored: stored_payload_crc,
            computed: computed_payload_crc,
        });
    }

    let mut cur = Cursor::new(payload);
    let head = [cur.f64("head.a")?, cur.f64("head.b")?, cur.f64("head.c")?];
    let radius_m = cur.f64("radius_m")?;
    let attempts = cur.u32("attempts")?;
    let loc_count = cur.u32("localization")? as usize;
    let loc_flat = cur.f64_vec(
        loc_count
            .checked_mul(2)
            .ok_or_else(|| StoreError::Malformed("localization count overflows".into()))?,
        "localization",
    )?;
    let localization: Vec<(f64, f64)> = loc_flat.chunks_exact(2).map(|p| (p[0], p[1])).collect();
    let near = decode_grid(&mut cur, "near")?;
    let far = decode_grid(&mut cur, "far")?;
    let degradation_len = cur.u32("degradation")? as usize;
    let degradation_bytes = cur.take(degradation_len, "degradation")?;
    if cur.remaining() != 0 {
        return Err(StoreError::Malformed(format!(
            "{} bytes trail the last payload field",
            cur.remaining()
        )));
    }
    let degradation_json = if flags & FLAG_DEGRADATION != 0 {
        Some(
            std::str::from_utf8(degradation_bytes)
                .map_err(|_| StoreError::Malformed("degradation report is not UTF-8".into()))?
                .to_string(),
        )
    } else if degradation_len != 0 {
        return Err(StoreError::Malformed(
            "degradation bytes present but the flag bit is clear".into(),
        ));
    } else {
        None
    };

    Ok(HrtfArtifact {
        seed: le_u64(header, 56),
        subject_fingerprint: le_u64(header, 32),
        config_hash: le_u64(header, 40),
        sample_rate: f64::from_bits(le_u64(header, 48)),
        head,
        radius_m,
        attempts,
        localization,
        near,
        far,
        degradation_json,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_artifact() -> HrtfArtifact {
        let mut artifact = HrtfArtifact {
            seed: 9,
            subject_fingerprint: 0,
            config_hash: 0xBEEF,
            sample_rate: 48_000.0,
            head: [0.075, 0.1, 0.09],
            radius_m: 0.4,
            attempts: 1,
            localization: vec![(10.0, 11.5), (90.0, 88.0)],
            near: Grid {
                angles_deg: vec![0.0, 90.0],
                ir_len: 3,
                irs: vec![
                    (vec![1.0, 0.5, 0.0], vec![0.9, 0.4, 0.1]),
                    (vec![0.2, 0.1, 0.0], vec![0.3, 0.2, 0.1]),
                ],
            },
            far: Grid {
                angles_deg: vec![45.0],
                ir_len: 2,
                irs: vec![(vec![1.0, 0.0], vec![0.0, 1.0])],
            },
            degradation_json: Some("{\"stops_dropped\":1}".to_string()),
        };
        artifact.subject_fingerprint = artifact.fingerprint();
        artifact
    }

    #[test]
    fn round_trip_is_exact() {
        let artifact = tiny_artifact();
        let bytes = encode(&artifact).unwrap();
        let back = decode(&bytes).unwrap();
        assert_eq!(back, artifact);
        // Canonical: re-encoding reproduces the bytes.
        assert_eq!(encode(&back).unwrap(), bytes);
    }

    #[test]
    fn empty_grids_round_trip() {
        let mut artifact = tiny_artifact();
        artifact.near = Grid::empty();
        artifact.far = Grid::empty();
        artifact.localization.clear();
        artifact.degradation_json = None;
        artifact.subject_fingerprint = artifact.fingerprint();
        let bytes = encode(&artifact).unwrap();
        let back = decode(&bytes).unwrap();
        assert_eq!(back, artifact);
        // …but cannot become a lookup table.
        assert!(matches!(back.to_table(), Err(StoreError::BadGrid(_))));
    }

    #[test]
    fn nan_samples_preserve_bits() {
        let mut artifact = tiny_artifact();
        artifact.far.irs[0].0[1] = f64::from_bits(0x7FF8_0000_0000_1234);
        artifact.subject_fingerprint = artifact.fingerprint();
        let bytes = encode(&artifact).unwrap();
        let back = decode(&bytes).unwrap();
        assert_eq!(
            back.far.irs[0].0[1].to_bits(),
            0x7FF8_0000_0000_1234,
            "NaN payload bits must survive the round trip"
        );
    }

    #[test]
    fn ragged_grid_rejected_at_encode() {
        let mut artifact = tiny_artifact();
        artifact.near.irs[0].0.push(7.0);
        assert!(matches!(encode(&artifact), Err(StoreError::BadGrid(_))));
    }

    #[test]
    fn content_key_is_hex_of_fnv() {
        let bytes = encode(&tiny_artifact()).unwrap();
        let key = content_key(&bytes);
        assert_eq!(key.len(), 16);
        assert_eq!(key, format!("{:016x}", uniq_obs::fnv1a(&bytes)));
    }

    #[test]
    fn encode_fills_one_exactly_sized_buffer() {
        let bytes = encode(&tiny_artifact()).unwrap();
        assert_eq!(bytes.len(), bytes.capacity());
    }

    #[test]
    fn crc32_slicing_matches_bytewise_oracle() {
        let data: Vec<u8> = (0u32..300).map(|i| (i * 167 + 13) as u8).collect();
        for start in 0..8 {
            for end in start..data.len() {
                let slice = &data[start..end];
                assert_eq!(crc32(slice), crc32_bytewise(slice), "{start}..{end}");
            }
        }
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
