//! The content-addressed on-disk artifact store.
//!
//! Layout on disk:
//!
//! ```text
//! <root>/
//!   index                 append-only text index (one line per put)
//!   blobs/<key>.uhrtf     one encoded artifact per distinct content key
//! ```
//!
//! The content key is the FNV-1a 64 hash of the encoded bytes (16 hex
//! digits), so identical artifacts always land on the same blob and a
//! repeated `put` is a pure dedup hit. Blobs are written to a temporary
//! name and renamed into place, and the index is append-only with every
//! line re-validated on open — a crash mid-put leaves at worst an
//! orphaned temp file, never a corrupt store. All mutation funnels
//! through one mutex, so any number of parallel writers (the `uniq-par`
//! determinism test drives 8) observe a consistent index and dedup
//! count.

use crate::error::StoreError;
use crate::format::HEADER_LEN;
use crate::format::{content_key, key_hash_and_payload_crc, parse, Encoded, HrtfArtifact};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use uniq_core::batch::FingerprintBuilder;
use uniq_obs::names;

/// First line of every index file: format name and index schema version.
const INDEX_HEADER: &str = "UNIQSTORE 1";

/// One index line: the metadata needed to answer lookups without
/// touching the blob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexEntry {
    /// Content key — FNV-1a 64 of the blob bytes, 16 hex digits.
    pub key: String,
    /// Subject fingerprint stamped in the artifact header.
    pub subject_fingerprint: u64,
    /// Config hash stamped in the artifact header.
    pub config_hash: u64,
    /// Subject seed.
    pub seed: u64,
    /// Blob size, bytes.
    pub bytes: u64,
}

impl IndexEntry {
    fn to_line(&self) -> String {
        format!(
            "put {} {:016x} {:016x} {} {}",
            self.key, self.subject_fingerprint, self.config_hash, self.seed, self.bytes
        )
    }

    fn parse(line: &str, lineno: usize) -> Result<IndexEntry, StoreError> {
        let corrupt = |reason: &str| StoreError::IndexCorrupt {
            line: lineno,
            reason: reason.to_string(),
        };
        let fields: Vec<&str> = line.split(' ').collect();
        if fields.len() != 6 || fields[0] != "put" {
            return Err(corrupt("expected `put <key> <fp> <cfg> <seed> <bytes>`"));
        }
        let key = fields[1];
        if key.len() != 16 || !key.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(corrupt("key is not 16 hex digits"));
        }
        let subject_fingerprint = u64::from_str_radix(fields[2], 16)
            .map_err(|_| corrupt("subject fingerprint is not hex"))?;
        let config_hash =
            u64::from_str_radix(fields[3], 16).map_err(|_| corrupt("config hash is not hex"))?;
        let seed = fields[4]
            .parse::<u64>()
            .map_err(|_| corrupt("seed is not an integer"))?;
        let bytes = fields[5]
            .parse::<u64>()
            .map_err(|_| corrupt("byte count is not an integer"))?;
        Ok(IndexEntry {
            key: key.to_string(),
            subject_fingerprint,
            config_hash,
            seed,
            bytes,
        })
    }
}

/// What a [`Store::put`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PutOutcome {
    /// Content key the artifact lives under.
    pub key: String,
    /// Encoded size, bytes.
    pub bytes: u64,
    /// `true` when the key already existed and nothing was written.
    pub deduped: bool,
}

/// Result of a full [`Store::verify`] sweep.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// Entries checked.
    pub entries: usize,
    /// Every `(key, error)` found; empty for a clean store.
    pub failures: Vec<(String, StoreError)>,
}

impl VerifyReport {
    /// Whether every entry checked out.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

#[derive(Debug)]
struct Inner {
    index: std::fs::File,
    entries: BTreeMap<String, IndexEntry>,
    dedup_hits: u64,
}

/// A content-addressed store of `.uhrtf` artifacts rooted at one
/// directory. All methods take `&self`; mutation is serialized
/// internally, so a shared reference can be fanned across threads.
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
    inner: Mutex<Inner>,
}

impl Store {
    /// Opens (creating if needed) the store at `root`, replaying and
    /// validating the whole index. Duplicate identical lines are
    /// tolerated (an interrupted writer may repeat one); conflicting
    /// lines for the same key are [`StoreError::IndexCorrupt`].
    pub fn open(root: &Path) -> Result<Store, StoreError> {
        let blobs = root.join("blobs");
        std::fs::create_dir_all(&blobs).map_err(|e| StoreError::io(&blobs, &e))?;
        let index_path = root.join("index");
        let mut entries = BTreeMap::new();
        match std::fs::read_to_string(&index_path) {
            Ok(text) => {
                let mut lines = text.lines().enumerate();
                match lines.next() {
                    Some((_, INDEX_HEADER)) => {}
                    Some((_, other)) => {
                        return Err(StoreError::IndexCorrupt {
                            line: 1,
                            reason: format!("bad header {other:?}, expected {INDEX_HEADER:?}"),
                        })
                    }
                    None => {
                        return Err(StoreError::IndexCorrupt {
                            line: 1,
                            reason: "index file is empty".to_string(),
                        })
                    }
                }
                for (i, line) in lines {
                    if line.is_empty() {
                        continue;
                    }
                    let entry = IndexEntry::parse(line, i + 1)?;
                    if let Some(existing) = entries.get(&entry.key) {
                        if *existing != entry {
                            return Err(StoreError::IndexCorrupt {
                                line: i + 1,
                                reason: format!(
                                    "key {} re-listed with different fields",
                                    entry.key
                                ),
                            });
                        }
                    } else {
                        entries.insert(entry.key.clone(), entry);
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                std::fs::write(&index_path, format!("{INDEX_HEADER}\n"))
                    .map_err(|e| StoreError::io(&index_path, &e))?;
            }
            Err(e) => return Err(StoreError::io(&index_path, &e)),
        }
        let index = std::fs::OpenOptions::new()
            .append(true)
            .open(&index_path)
            .map_err(|e| StoreError::io(&index_path, &e))?;
        Ok(Store {
            root: root.to_path_buf(),
            inner: Mutex::new(Inner {
                index,
                entries,
                dedup_hits: 0,
            }),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn blob_path(&self, key: &str) -> PathBuf {
        self.root.join("blobs").join(format!("{key}.uhrtf"))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A poisoned mutex means another writer panicked mid-put; the
        // index on disk is still append-only consistent, so continue.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Stores an artifact, deduplicating by content. Returns the content
    /// key plus whether the bytes were already present.
    pub fn put(&self, artifact: &HrtfArtifact) -> Result<PutOutcome, StoreError> {
        let _span = uniq_obs::span(names::SPAN_STORE_PUT);
        self.file(&Encoded::from_artifact(artifact)?)
    }

    /// Stores a blob the writer produced (see [`Encoded::from_result`]),
    /// deduplicating by content, like [`Store::put`].
    pub fn put_encoded(&self, blob: &Encoded) -> Result<PutOutcome, StoreError> {
        let _span = uniq_obs::span(names::SPAN_STORE_PUT);
        self.file(blob)
    }

    /// Keys a blob by its bytes and files it under that key unless the key
    /// is already stored.
    fn file(&self, blob: &Encoded) -> Result<PutOutcome, StoreError> {
        let bytes = blob.bytes();
        let key = content_key(bytes);
        uniq_obs::counter(names::STORE_BYTES_HASHED, bytes.len() as u64);
        let mut inner = self.lock();
        if inner.entries.contains_key(&key) {
            inner.dedup_hits += 1;
            uniq_obs::counter(names::STORE_DEDUP_HITS, 1);
            return Ok(PutOutcome {
                key,
                // uniq-analyzer: allow(lock-order) — `bytes.len()` is slice len, not Store::len; no lock re-entry on this line
                bytes: bytes.len() as u64,
                deduped: true,
            });
        }
        let tmp = self.root.join("blobs").join(format!(".tmp-{key}"));
        std::fs::write(&tmp, bytes).map_err(|e| StoreError::io(&tmp, &e))?;
        let final_path = self.blob_path(&key);
        std::fs::rename(&tmp, &final_path).map_err(|e| StoreError::io(&final_path, &e))?;
        let entry = IndexEntry {
            key: key.clone(),
            subject_fingerprint: blob.subject_fingerprint,
            config_hash: blob.config_hash,
            seed: blob.seed,
            bytes: bytes.len() as u64,
        };
        let line = entry.to_line();
        let index_path = self.root.join("index");
        writeln!(inner.index, "{line}").map_err(|e| StoreError::io(&index_path, &e))?;
        inner
            .index
            .flush()
            .map_err(|e| StoreError::io(&index_path, &e))?;
        inner.entries.insert(key.clone(), entry);
        uniq_obs::metric(names::STORE_PUT_BYTES, bytes.len() as f64, "bytes");
        uniq_obs::metric(names::STORE_ENTRIES, inner.entries.len() as f64, "count");
        Ok(PutOutcome {
            key,
            bytes: bytes.len() as u64,
            deduped: false,
        })
    }

    /// Loads and decodes the artifact stored under `key`. One loop over
    /// the blob checks that its bytes still hash to its key and folds the
    /// payload CRC-32; the parser `decode` uses then checks the header and
    /// that CRC and reads the fields.
    pub fn get(&self, key: &str) -> Result<HrtfArtifact, StoreError> {
        let _span = uniq_obs::span(names::SPAN_STORE_GET);
        self.indexed(key)?;
        let (bytes, payload_crc) = self.read_keyed(key)?;
        parse_keyed(&bytes, payload_crc)
    }

    fn indexed(&self, key: &str) -> Result<(), StoreError> {
        if !self.lock().entries.contains_key(key) {
            return Err(StoreError::UnknownKey {
                key: key.to_string(),
            });
        }
        Ok(())
    }

    /// Reads the blob filed under `key`. One loop checks that its bytes
    /// still hash to the key and folds its payload CRC-32, which is
    /// returned with the bytes.
    fn read_keyed(&self, key: &str) -> Result<(Vec<u8>, u32), StoreError> {
        let path = self.blob_path(key);
        let bytes = std::fs::read(&path).map_err(|e| StoreError::io(&path, &e))?;
        let (hash, payload_crc) = key_hash_and_payload_crc(&bytes);
        uniq_obs::counter(names::STORE_BYTES_HASHED, bytes.len() as u64);
        check_key(key, hash)?;
        Ok((bytes, payload_crc))
    }

    /// The raw bytes of the blob under `key`, key-checked.
    pub fn get_bytes(&self, key: &str) -> Result<Vec<u8>, StoreError> {
        let _span = uniq_obs::span(names::SPAN_STORE_GET);
        self.indexed(key)?;
        let path = self.blob_path(key);
        let bytes = std::fs::read(&path).map_err(|e| StoreError::io(&path, &e))?;
        uniq_obs::counter(names::STORE_BYTES_HASHED, bytes.len() as u64);
        check_key(key, uniq_obs::fnv1a(&bytes))?;
        Ok(bytes)
    }

    /// Every index entry, sorted by key (the `BTreeMap` order), so a scan
    /// is deterministic regardless of put interleaving.
    pub fn scan(&self) -> Vec<IndexEntry> {
        self.lock().entries.values().cloned().collect()
    }

    /// The first entry (in key order) matching a subject seed and config
    /// hash — the *pre-computation* cache query. The seed is the
    /// subject's identity *before* personalization (the result
    /// fingerprint is only known after a pipeline run), so a server can answer "has this subject already been personalized
    /// under this exact config?" with a disk lookup instead of a run.
    pub fn lookup_by_seed(&self, seed: u64, config_hash: u64) -> Option<IndexEntry> {
        self.lock()
            .entries
            .values()
            .find(|e| e.seed == seed && e.config_hash == config_hash)
            .cloned()
    }

    /// Number of distinct artifacts stored.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Whether the store holds no artifacts.
    pub fn is_empty(&self) -> bool {
        self.lock().entries.is_empty()
    }

    /// Dedup hits since this handle was opened.
    pub fn dedup_hits(&self) -> u64 {
        self.lock().dedup_hits
    }

    /// FNV-1a digest of the entry *set* (folded in key order), so the
    /// fingerprint is independent of put scheduling: 1 writer and 8
    /// writers storing the same artifacts agree bit for bit even though
    /// their index files list lines in different orders.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = FingerprintBuilder::new();
        for entry in self.lock().entries.values() {
            fp.eat(uniq_obs::fnv1a(entry.key.as_bytes()));
            fp.eat(entry.subject_fingerprint);
            fp.eat(entry.config_hash);
            fp.eat(entry.seed);
            fp.eat(entry.bytes);
        }
        fp.finish()
    }

    /// Deep-checks every entry: blob present, bytes hash to the key,
    /// payload decodes, header metadata matches the index line, and the
    /// decoded artifact's recomputed fingerprint equals the stamped
    /// subject fingerprint.
    pub fn verify(&self) -> VerifyReport {
        let _span = uniq_obs::span(names::SPAN_STORE_VERIFY);
        let entries = self.scan();
        let mut failures = Vec::new();
        for entry in &entries {
            if let Err(e) = self.verify_entry(entry) {
                failures.push((entry.key.clone(), e));
            }
        }
        uniq_obs::metric(names::STORE_ENTRIES, entries.len() as f64, "count");
        VerifyReport {
            entries: entries.len(),
            failures,
        }
    }

    fn verify_entry(&self, entry: &IndexEntry) -> Result<(), StoreError> {
        let (bytes, payload_crc) = self.read_keyed(&entry.key)?;
        if bytes.len() as u64 != entry.bytes {
            return Err(StoreError::IndexCorrupt {
                line: 0,
                reason: format!(
                    "index records {} bytes for {}, blob has {}",
                    entry.bytes,
                    entry.key,
                    bytes.len()
                ),
            });
        }
        let artifact = parse_keyed(&bytes, payload_crc)?;
        if artifact.subject_fingerprint != entry.subject_fingerprint
            || artifact.config_hash != entry.config_hash
            || artifact.seed != entry.seed
        {
            return Err(StoreError::IndexCorrupt {
                line: 0,
                reason: format!("index metadata disagrees with the header of {}", entry.key),
            });
        }
        artifact.check_fingerprint()
    }
}

/// Parses a key-checked blob with the parser [`crate::decode`] uses,
/// given the payload CRC-32 the key pass folded.
fn parse_keyed(bytes: &[u8], payload_crc: u32) -> Result<HrtfArtifact, StoreError> {
    let mut crc_bytes = bytes.len().saturating_sub(HEADER_LEN) as u64;
    let artifact = parse(bytes, Some(payload_crc), &mut crc_bytes);
    uniq_obs::counter(names::STORE_BYTES_CRC, crc_bytes);
    artifact
}

/// Whether a blob's content-key hash is the key it is filed under.
fn check_key(key: &str, hash: u64) -> Result<(), StoreError> {
    let actual = format!("{hash:016x}");
    if actual != key {
        return Err(StoreError::KeyMismatch {
            key: key.to_string(),
            actual,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::Grid;

    fn artifact(seed: u64) -> HrtfArtifact {
        let mut a = HrtfArtifact {
            seed,
            subject_fingerprint: 0,
            config_hash: 0xC0FFEE,
            sample_rate: 48_000.0,
            head: [0.07, 0.09, 0.08],
            radius_m: 0.35,
            attempts: 1,
            localization: vec![(0.0, 1.0)],
            near: Grid {
                angles_deg: vec![0.0, 90.0],
                ir_len: 2,
                irs: vec![
                    (vec![seed as f64, 0.5], vec![0.25, 0.125]),
                    (vec![0.1, 0.2], vec![0.3, 0.4]),
                ],
            },
            far: Grid {
                angles_deg: vec![45.0],
                ir_len: 2,
                irs: vec![(vec![1.0, 0.0], vec![0.0, 1.0])],
            },
            degradation_json: None,
        };
        a.subject_fingerprint = a.fingerprint();
        a
    }

    fn temp_root(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("uniq_store_unit")
            .join(format!("{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn put_get_round_trip_and_dedup() {
        let root = temp_root("round_trip");
        let store = Store::open(&root).unwrap();
        let a = artifact(7);
        let first = store.put(&a).unwrap();
        assert!(!first.deduped);
        let second = store.put(&a).unwrap();
        assert!(second.deduped);
        assert_eq!(first.key, second.key);
        assert_eq!(store.len(), 1);
        assert_eq!(store.dedup_hits(), 1);
        let back = store.get(&first.key).unwrap();
        assert_eq!(back, a);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn reopen_replays_index() {
        let root = temp_root("reopen");
        let key = {
            let store = Store::open(&root).unwrap();
            store.put(&artifact(1)).unwrap();
            store.put(&artifact(2)).unwrap().key
        };
        let store = Store::open(&root).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.get(&key).unwrap().seed, 2);
        assert!(store.verify().is_clean());
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A read before the fused pass: hash the whole blob for the key, then
    /// decode, which runs its own payload CRC.
    fn get_oracle(store: &Store, key: &str) -> Result<HrtfArtifact, StoreError> {
        let bytes = std::fs::read(store.blob_path(key)).unwrap();
        let actual = content_key(&bytes);
        if actual != key {
            return Err(StoreError::KeyMismatch {
                key: key.to_string(),
                actual,
            });
        }
        crate::format::decode(&bytes)
    }

    #[test]
    fn get_matches_the_separate_key_and_decode_passes() {
        let root = temp_root("get_oracle");
        let store = Store::open(&root).unwrap();
        let a = artifact(4);
        let key = store.put(&a).unwrap().key;
        assert_eq!(store.get(&key).unwrap(), get_oracle(&store, &key).unwrap());
        let good = std::fs::read(store.blob_path(&key)).unwrap();
        // A stale blob under its old key fails the key check.
        let mut stale = good.clone();
        stale[100] ^= 1;
        std::fs::write(store.blob_path(&key), &stale).unwrap();
        let fused = format!("{:?}", store.get(&key));
        assert_eq!(fused, format!("{:?}", get_oracle(&store, &key)));
        assert!(fused.starts_with("Err(KeyMismatch"), "{fused}");
        // Corrupt blobs filed under their own keys pass the key check and
        // must fail the header CRC, the payload CRC and the length check.
        let corruptions: [(usize, &str); 3] = [
            (20, "Err(HeaderChecksum"),
            (good.len() - 1, "Err(PayloadChecksum"),
            (usize::MAX, "Err(LengthMismatch"),
        ];
        drop(store);
        for (i, (at, expected)) in corruptions.into_iter().enumerate() {
            let mut bytes = good.clone();
            match bytes.get_mut(at) {
                Some(b) => *b ^= 0x10,
                None => bytes.truncate(good.len() - 3),
            }
            let bad_key = content_key(&bytes);
            let root = temp_root(&format!("get_oracle_{i}"));
            std::fs::create_dir_all(root.join("blobs")).unwrap();
            std::fs::write(root.join("blobs").join(format!("{bad_key}.uhrtf")), &bytes).unwrap();
            let line = format!(
                "put {bad_key} {:016x} {:016x} {} {}",
                a.subject_fingerprint,
                a.config_hash,
                a.seed,
                bytes.len()
            );
            std::fs::write(root.join("index"), format!("{INDEX_HEADER}\n{line}\n")).unwrap();
            let store = Store::open(&root).unwrap();
            let fused = format!("{:?}", store.get(&bad_key));
            assert_eq!(fused, format!("{:?}", get_oracle(&store, &bad_key)));
            assert!(fused.starts_with(expected), "{fused}");
            assert!(!store.verify().is_clean());
            let _ = std::fs::remove_dir_all(&root);
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn unknown_key_is_typed() {
        let root = temp_root("unknown");
        let store = Store::open(&root).unwrap();
        assert!(matches!(
            store.get("0123456789abcdef"),
            Err(StoreError::UnknownKey { .. })
        ));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn lookup_by_subject_and_config() {
        let root = temp_root("lookup");
        let store = Store::open(&root).unwrap();
        let a = artifact(5);
        store.put(&a).unwrap();
        let hit = store.lookup_by_seed(5, a.config_hash).unwrap();
        assert_eq!(hit.subject_fingerprint, a.subject_fingerprint);
        assert!(store.lookup_by_seed(5, 0).is_none());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn fingerprint_is_order_independent() {
        let root_ab = temp_root("order_ab");
        let root_ba = temp_root("order_ba");
        let ab = Store::open(&root_ab).unwrap();
        ab.put(&artifact(1)).unwrap();
        ab.put(&artifact(2)).unwrap();
        let ba = Store::open(&root_ba).unwrap();
        ba.put(&artifact(2)).unwrap();
        ba.put(&artifact(1)).unwrap();
        assert_eq!(ab.fingerprint(), ba.fingerprint());
        let _ = std::fs::remove_dir_all(&root_ab);
        let _ = std::fs::remove_dir_all(&root_ba);
    }

    #[test]
    fn conflicting_index_line_rejected_on_open() {
        let root = temp_root("conflict");
        let store = Store::open(&root).unwrap();
        let out = store.put(&artifact(3)).unwrap();
        drop(store);
        let index = root.join("index");
        let mut text = std::fs::read_to_string(&index).unwrap();
        text.push_str(&format!(
            "put {} {:016x} {:016x} 999 1\n",
            out.key, 0u64, 0u64
        ));
        std::fs::write(&index, text).unwrap();
        assert!(matches!(
            Store::open(&root),
            Err(StoreError::IndexCorrupt { .. })
        ));
        let _ = std::fs::remove_dir_all(&root);
    }
}
