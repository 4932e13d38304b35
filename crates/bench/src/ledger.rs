//! The run ledger: one JSON line per run, appended to a history file
//! (`bench_results/history.jsonl` by default, git-ignored). Each line
//! carries a workload label, the git revision and a run document in the
//! baseline document's schema ([`crate::baseline::RunDoc`]), so
//! [`crate::baseline::compare`] judges a fresh run against its
//! same-label history exactly as it judges one against
//! `BENCH_BASELINE.json`.
//!
//! Lines carry **no timestamps**: the workspace's determinism discipline
//! bars wall-clock values from anything a test might compare, and run
//! order is already the line order. Each line carries its schema inline,
//! because the file is append-only across code revisions.

use crate::baseline::Reference;
use std::fmt;
use std::io::Write;
use std::path::Path;
use uniq_obs::json::Json;
use uniq_obs::sink::json_escape;

/// Schema stamp carried by every ledger line. v1 lines (a flat record
/// with its own field names) are not read.
pub const LEDGER_SCHEMA_VERSION: u64 = 2;

/// The default ledger location, relative to the workspace root.
pub const DEFAULT_HISTORY_FILE: &str = "bench_results/history.jsonl";

/// One ledger line, parsed.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerEntry {
    /// 1-based line number in the history file.
    pub line: usize,
    /// Workload label (`"baseline"`, `"personalize"`, `"batch"`, …); runs
    /// are only judged against history of the same label.
    pub label: String,
    /// Abbreviated git revision the run was built from (`"unknown"`
    /// outside a checkout).
    pub git_rev: String,
    /// The run document.
    pub run: Json,
}

/// Why a history file could not be read. Every variant names the line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LedgerError {
    /// The line is not JSON, or lacks a field every record carries.
    Garbled {
        /// 1-based line number.
        line: usize,
        /// What is wrong with it.
        detail: String,
    },
    /// The line's record schema is not [`LEDGER_SCHEMA_VERSION`].
    UnknownSchema {
        /// 1-based line number.
        line: usize,
        /// The schema the line claims.
        schema: u64,
    },
}

impl fmt::Display for LedgerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LedgerError::Garbled { line, detail } => write!(f, "line {line}: {detail}"),
            LedgerError::UnknownSchema { line, schema } => write!(
                f,
                "line {line}: ledger record schema v{schema}, this build reads \
                 v{LEDGER_SCHEMA_VERSION}"
            ),
        }
    }
}

impl std::error::Error for LedgerError {}

/// Parses every record of a history file's text, in line order. Blank
/// lines are skipped; anything else that is not a current record is an
/// error naming its line.
pub fn read(text: &str) -> Result<Vec<LedgerEntry>, LedgerError> {
    let mut entries = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let raw = raw.trim();
        if raw.is_empty() {
            continue;
        }
        let garbled = |detail: String| LedgerError::Garbled { line, detail };
        let doc = Json::parse(raw).map_err(garbled)?;
        let schema = doc
            .get("schema")
            .and_then(Json::as_u64)
            .ok_or_else(|| garbled("record has no schema".into()))?;
        if schema != LEDGER_SCHEMA_VERSION {
            return Err(LedgerError::UnknownSchema { line, schema });
        }
        let text_field = |key: &str| {
            doc.get(key)
                .and_then(Json::as_str)
                .map(String::from)
                .ok_or_else(|| garbled(format!("record has no {key}")))
        };
        let (label, git_rev) = (text_field("label")?, text_field("git_rev")?);
        let run = doc
            .get("run")
            .filter(|run| run.get("schema_version").and_then(Json::as_u64).is_some())
            .ok_or_else(|| garbled("record has no run document".into()))?
            .clone();
        entries.push(LedgerEntry {
            line,
            label,
            git_rev,
            run,
        });
    }
    Ok(entries)
}

/// The entries of `text` labelled `label`, as gate references named by
/// line and revision.
pub fn references(text: &str, label: &str) -> Result<Vec<Reference>, LedgerError> {
    Ok(read(text)?
        .into_iter()
        .filter(|e| e.label == label)
        .map(|e| Reference {
            name: format!("history line {} (rev {})", e.line, e.git_rev),
            doc: e.run,
        })
        .collect())
}

/// Appends one record — `label`, the checkout's revision and the run
/// document `run` — to the ledger at `path`, creating parent directories
/// and the file as needed.
pub fn append(path: &Path, label: &str, run: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    // A rendered document holds no newline inside a string (the escaper
    // encodes them), so trimming and joining its lines keeps it intact.
    let run: String = run.lines().map(str::trim).collect();
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(
        file,
        "{{\"schema\":{LEDGER_SCHEMA_VERSION},\"label\":\"{}\",\"git_rev\":\"{}\",\"run\":{run}}}",
        json_escape(label),
        json_escape(&git_rev(Path::new("."))),
    )
}

/// Abbreviated git revision of the checkout at `root`, read directly from
/// `.git` (no subprocess): `"unknown"` when unreadable.
fn git_rev(root: &Path) -> String {
    let head = match std::fs::read_to_string(root.join(".git/HEAD")) {
        Ok(head) => head,
        Err(_) => return "unknown".into(),
    };
    let head = head.trim();
    let full = match head.strip_prefix("ref: ") {
        Some(reference) => match std::fs::read_to_string(root.join(".git").join(reference)) {
            Ok(rev) => rev.trim().to_string(),
            // Packed refs (after gc) keep the hash elsewhere; fall back to
            // scanning packed-refs for the reference.
            Err(_) => std::fs::read_to_string(root.join(".git/packed-refs"))
                .ok()
                .and_then(|packed| {
                    packed.lines().find_map(|line| {
                        line.strip_suffix(reference)
                            .map(|hash| hash.trim().to_string())
                    })
                })
                .unwrap_or_default(),
        },
        None => head.to_string(),
    };
    if full.len() >= 12 && full.chars().all(|c| c.is_ascii_hexdigit()) {
        full[..12].to_string()
    } else {
        "unknown".into()
    }
}
