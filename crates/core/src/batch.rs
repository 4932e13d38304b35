//! Batch personalization: many subjects concurrently.
//!
//! Fans independent subjects across the `uniq-par` pool. Each subject's
//! pipeline is pure given its seed, and outcomes are reduced in seed
//! order, so a batch at any thread count produces bit-identical HRTFs —
//! [`hrtf_fingerprint`] condenses that contract into one comparable
//! number, and [`scaling_sweep`] checks it while measuring throughput.

use crate::config::UniqConfig;
use crate::pipeline::{personalize_with_retry, PersonalizationError, PersonalizationResult};
use uniq_obs::{names, Stopwatch};
use uniq_subjects::Subject;

/// The outcome of one subject's personalization inside a batch, tagged
/// with the subject's identity (its seed) so failures point at the exact
/// subject — never a generic join error.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Seed identifying the synthetic subject (drives anatomy, gesture,
    /// and noise).
    pub seed: u64,
    /// The personalization result or the per-subject error (which itself
    /// carries stop identity for session failures).
    pub result: Result<PersonalizationResult, PersonalizationError>,
    /// Wall-clock time this subject took, seconds.
    pub seconds: f64,
}

/// Personalizes one subject per seed, fanning subjects across a pool of
/// `threads` workers (`0` = auto). Outcomes come back in seed order.
///
/// Within the batch each subject runs with `cfg.threads` for its own
/// inner parallelism; pass a config with `threads: 1` (as the CLI does)
/// to give every worker exactly one subject and avoid oversubscription.
pub fn personalize_batch(
    seeds: &[u64],
    cfg: &UniqConfig,
    threads: usize,
    max_attempts: usize,
) -> Vec<BatchOutcome> {
    // One trace for the whole batch, derived from the seed list; the
    // per-subject `personalize` trace guards become no-ops beneath it.
    let _trace = uniq_obs::trace(
        seeds
            .iter()
            .fold(0x0062_6174_6368_u64, |h, &s| h.rotate_left(5) ^ s),
    );
    let _span = uniq_obs::span(uniq_obs::names::SPAN_BATCH);
    let pool = uniq_par::pool(threads);
    let outcomes = pool.par_map_chunked(seeds, 1, |&seed| {
        let sw = Stopwatch::start();
        let subject = Subject::from_seed(seed);
        let result = personalize_with_retry(&subject, cfg, seed, max_attempts);
        let seconds = sw.elapsed_seconds();
        uniq_obs::metric(names::BATCH_SUBJECT_SECONDS, seconds, "s");
        if result.is_err() {
            uniq_obs::counter(names::BATCH_FAILURES, 1);
        }
        BatchOutcome {
            seed,
            result,
            seconds,
        }
    });
    uniq_obs::counter(names::BATCH_SUBJECTS, outcomes.len() as u64);
    outcomes
}

/// Incremental FNV-1a 64 digest over 64-bit words, the shared primitive
/// behind every determinism fingerprint in the workspace. Exposed so
/// other layers (e.g. the artifact store) can reproduce a result's
/// fingerprint from serialized fields and prove bit-exact round trips.
#[derive(Debug, Clone)]
pub struct FingerprintBuilder {
    h: u64,
}

impl FingerprintBuilder {
    /// A fresh digest at the FNV offset basis.
    pub fn new() -> FingerprintBuilder {
        FingerprintBuilder {
            h: uniq_obs::fnv1a(&[]),
        }
    }

    /// Folds one 64-bit word, byte by byte, little-endian.
    #[inline]
    pub fn eat(&mut self, bits: u64) {
        self.h = uniq_obs::fnv1a_extend(self.h, &bits.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.h
    }
}

impl Default for FingerprintBuilder {
    fn default() -> Self {
        FingerprintBuilder::new()
    }
}

/// Folds one successful personalization's numeric output into `fp`
/// exactly as [`hrtf_fingerprint`] digests it: seed, radius bits,
/// attempts, localization pairs, then every HRIR sample of each ear pair
/// (near bank first, then far; left ear then right). Callers that hold
/// the result in a different representation (e.g. a decoded `.uhrtf`
/// artifact) use this to recompute the identical fingerprint.
pub fn fold_result_parts<'a>(
    fp: &mut FingerprintBuilder,
    seed: u64,
    radius_m: f64,
    attempts: u64,
    localization: &[(f64, f64)],
    ears: impl IntoIterator<Item = (&'a [f64], &'a [f64])>,
) {
    fp.eat(seed);
    fp.eat(radius_m.to_bits());
    fp.eat(attempts);
    for &(truth, est) in localization {
        fp.eat(truth.to_bits());
        fp.eat(est.to_bits());
    }
    for (left, right) in ears {
        for &v in left.iter().chain(right) {
            fp.eat(v.to_bits());
        }
    }
}

/// FNV-1a fingerprint of every successful outcome's numeric output (near
/// and far HRIR bits, radius, localization estimates), folded in seed
/// order. Two batches over the same seeds agree on this number if and
/// only if they produced bit-identical HRTFs — the determinism contract
/// a thread-count change must preserve.
pub fn hrtf_fingerprint(outcomes: &[BatchOutcome]) -> u64 {
    let mut fp = FingerprintBuilder::new();
    for outcome in outcomes {
        match &outcome.result {
            Ok(result) => fold_result(&mut fp, outcome.seed, result),
            Err(_) => {
                fp.eat(outcome.seed);
                fp.eat(u64::MAX);
            }
        }
    }
    fp.finish()
}

/// [`hrtf_fingerprint`] of the one-subject batch whose only outcome is
/// `result` — computed from the borrowed result, without building that
/// batch.
pub fn result_fingerprint(seed: u64, result: &PersonalizationResult) -> u64 {
    let mut fp = FingerprintBuilder::new();
    fold_result(&mut fp, seed, result);
    fp.finish()
}

/// Folds one successful outcome into `fp`.
fn fold_result(fp: &mut FingerprintBuilder, seed: u64, result: &PersonalizationResult) {
    fold_result_parts(
        fp,
        seed,
        result.radius_m,
        result.attempts as u64,
        &result.localization,
        [result.hrtf.near(), result.hrtf.far()]
            .into_iter()
            .flat_map(|bank| bank.irs().iter())
            .map(|ir| (ir.left.as_slice(), ir.right.as_slice())),
    );
}

/// Throughput at one pool size, from [`scaling_sweep`].
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    /// Pool size measured.
    pub threads: usize,
    /// Wall-clock time for the whole batch, seconds.
    pub seconds: f64,
    /// Subjects personalized per second.
    pub subjects_per_second: f64,
    /// [`hrtf_fingerprint`] of the outcomes at this pool size.
    pub fingerprint: u64,
}

/// A thread-scaling measurement: the same batch re-run at several pool
/// sizes.
#[derive(Debug, Clone)]
pub struct ScalingReport {
    /// Number of subjects per run.
    pub subjects: usize,
    /// One entry per measured pool size, in the order given.
    pub points: Vec<ScalingPoint>,
    /// Whether every pool size produced the same [`hrtf_fingerprint`]
    /// (the bit-identity contract).
    pub deterministic: bool,
}

/// Runs the same batch at each pool size in `thread_counts`, recording
/// wall-clock throughput and the per-run output fingerprint.
pub fn scaling_sweep(
    seeds: &[u64],
    cfg: &UniqConfig,
    thread_counts: &[usize],
    max_attempts: usize,
) -> ScalingReport {
    let mut points = Vec::with_capacity(thread_counts.len());
    for &threads in thread_counts {
        let sw = Stopwatch::start();
        let outcomes = personalize_batch(seeds, cfg, threads, max_attempts);
        let seconds = sw.elapsed_seconds();
        points.push(ScalingPoint {
            threads,
            seconds,
            subjects_per_second: seeds.len() as f64 / seconds.max(1e-12),
            fingerprint: hrtf_fingerprint(&outcomes),
        });
    }
    let deterministic = points
        .windows(2)
        .all(|w| w[0].fingerprint == w[1].fingerprint);
    ScalingReport {
        subjects: seeds.len(),
        points,
        deterministic,
    }
}

impl ScalingReport {
    /// The report as a JSON document over seeds from `seed_base`
    /// (fingerprints in hex so consumers never lose bits to double
    /// precision).
    pub fn to_json(&self, seed_base: u64) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"subjects\": {},\n", self.subjects));
        out.push_str(&format!("  \"seed_base\": {seed_base},\n"));
        out.push_str(&format!("  \"deterministic\": {},\n", self.deterministic));
        out.push_str("  \"points\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"threads\": {}, \"seconds\": {:.6}, \"subjects_per_second\": {:.6}, \"fingerprint\": \"{:#018x}\"}}{}\n",
                p.threads,
                p.seconds,
                p.subjects_per_second,
                p.fingerprint,
                if i + 1 < self.points.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> UniqConfig {
        UniqConfig {
            in_room: false,
            snr_db: 45.0,
            grid_step_deg: 15.0,
            threads: 1,
            ..UniqConfig::fast_test()
        }
    }

    #[test]
    fn batch_outcomes_are_seed_ordered_and_tagged() {
        let seeds = [70, 71, 72];
        let out = personalize_batch(&seeds, &cfg(), 2, 2);
        assert_eq!(out.len(), 3);
        for (outcome, &seed) in out.iter().zip(&seeds) {
            assert_eq!(outcome.seed, seed);
            assert!(outcome.seconds > 0.0);
        }
    }

    #[test]
    fn fingerprint_is_stable_across_thread_counts() {
        let seeds = [70, 71];
        let c = cfg();
        let a = hrtf_fingerprint(&personalize_batch(&seeds, &c, 1, 2));
        let b = hrtf_fingerprint(&personalize_batch(&seeds, &c, 4, 2));
        assert_eq!(a, b);
    }

    #[test]
    fn fingerprint_distinguishes_different_batches() {
        let c = cfg();
        let a = hrtf_fingerprint(&personalize_batch(&[70], &c, 1, 2));
        let b = hrtf_fingerprint(&personalize_batch(&[71], &c, 1, 2));
        assert_ne!(a, b);
    }

    #[test]
    fn fingerprint_builder_is_fnv1a_over_little_endian_words() {
        let words = [0, 1, 0x0123_4567_89ab_cdef, u64::MAX, 6.5f64.to_bits()];
        let mut fp = FingerprintBuilder::new();
        words.iter().for_each(|&w| fp.eat(w));
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        assert_eq!(fp.finish(), uniq_obs::fnv1a(&bytes));
    }

    #[test]
    fn scaling_sweep_reports_determinism() {
        let report = scaling_sweep(&[70, 71], &cfg(), &[1, 2], 2);
        assert_eq!(report.subjects, 2);
        assert_eq!(report.points.len(), 2);
        assert!(report.deterministic);
    }
}
