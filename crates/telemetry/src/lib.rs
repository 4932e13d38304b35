//! # uniq-telemetry
//!
//! The layer above `uniq-obs`: where `uniq-obs` defines the event stream
//! (spans, counters, metrics, causal ids) and `uniq-profile` aggregates
//! it in one registry, this crate turns recorded runs into *operational*
//! artifacts:
//!
//! - [`trace`] — rebuilds the causal span tree from a `--metrics-out`
//!   JSONL file using the deterministic `(trace, span, parent)` ids, and
//!   reports the critical path and per-stage self time. Files written
//!   before ids existed reconstruct via the depth-stack fallback.
//! - [`ledger`] — the cross-run history: one JSON line per benchmark or
//!   pipeline run (git revision, seed, threads, quality numbers, output
//!   fingerprint, per-stage p50/p99), plus median/MAD trend and pairwise
//!   comparison gates with CI-friendly exit codes (0 ok, 1 latency
//!   warning, 2 quality regression).
//!
//! Everything here *observes*; nothing steers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ledger;
pub mod trace;
