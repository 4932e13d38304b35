//! Shared containers: binaural impulse responses, HRIR banks, render
//! configuration.

use std::any::{Any, TypeId};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use uniq_dsp::xcorr::peak_normalized_xcorr;
use uniq_geometry::vec2::angle_diff_deg;

/// Render/simulation configuration shared by the forward simulator and the
/// UNIQ pipeline. Sound travels at [`uniq_dsp::SPEED_OF_SOUND`]; the head
/// shadow's κ and f₀ are [`crate::shadow::SHADOW_KAPPA`] and
/// [`crate::shadow::SHADOW_F0_HZ`].
#[derive(Debug, Clone, Copy)]
pub struct RenderConfig {
    /// Audio sample rate, hertz.
    pub sample_rate: f64,
    /// Length of rendered head impulse responses, samples.
    pub ir_len: usize,
    /// Base acoustic latency added to every rendered path, seconds. Keeps
    /// fractional-delay kernels fully causal and mimics fixed hardware
    /// buffering; identical for both ears so TDoA is unaffected.
    pub base_delay: f64,
}

impl Default for RenderConfig {
    fn default() -> Self {
        RenderConfig {
            sample_rate: uniq_dsp::DEFAULT_SAMPLE_RATE,
            ir_len: 512,
            base_delay: 0.001,
        }
    }
}

impl RenderConfig {
    /// Converts a path length in metres to a delay in samples.
    pub fn metres_to_samples(&self, metres: f64) -> f64 {
        (metres / uniq_dsp::SPEED_OF_SOUND + self.base_delay) * self.sample_rate
    }

    /// Validates the configuration.
    ///
    /// # Panics
    /// Panics on non-positive rates/lengths or absurd parameters.
    pub fn validate(&self) {
        assert!(self.sample_rate > 0.0, "sample_rate must be positive");
        assert!(self.ir_len >= 64, "ir_len too short for head acoustics");
        assert!(self.base_delay >= 0.0, "base delay cannot be negative");
    }
}

/// A pair of left/right impulse responses (an HRIR once associated with an
/// angle).
#[derive(Debug, Clone, PartialEq)]
pub struct BinauralIr {
    /// Left-ear impulse response.
    pub left: Vec<f64>,
    /// Right-ear impulse response.
    pub right: Vec<f64>,
}

impl BinauralIr {
    /// Creates a pair of equal-length responses.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn new(left: Vec<f64>, right: Vec<f64>) -> Self {
        assert_eq!(
            left.len(),
            right.len(),
            "binaural IR halves must have equal length"
        );
        BinauralIr { left, right }
    }

    /// An all-zero pair of the given length.
    pub fn zeros(len: usize) -> Self {
        BinauralIr {
            left: vec![0.0; len],
            right: vec![0.0; len],
        }
    }

    /// Length in samples (same for both ears).
    pub fn len(&self) -> usize {
        self.left.len()
    }

    /// Whether the responses are zero-length.
    pub fn is_empty(&self) -> bool {
        self.left.is_empty()
    }

    /// The paper's similarity metric against another HRIR: peak-normalized
    /// cross-correlation per ear, returned as `(left, right)`.
    pub fn similarity(&self, other: &BinauralIr) -> (f64, f64) {
        (
            peak_normalized_xcorr(&self.left, &other.left),
            peak_normalized_xcorr(&self.right, &other.right),
        )
    }
}

/// A bank of HRIRs indexed by polar angle (degrees, paper convention).
///
/// Both the ground-truth measurement rig and UNIQ's estimated output use
/// this container; `angles_deg` is kept sorted ascending.
///
/// The bank also caches data its consumers derive from its entries, one
/// value per (type, transform size) (see [`HrirBank::derived`]). The cache
/// is allocated on first use; clones taken after that share it, and it is
/// dropped with the last of them. It is derived data, so it never enters
/// an encoding.
#[derive(Debug, Clone)]
pub struct HrirBank {
    angles_deg: Vec<f64>,
    irs: Vec<BinauralIr>,
    sample_rate: f64,
    derived: DerivedCache,
}

/// What a [`HrirBank::derived`] value is cached under: its type and the
/// transform size it was prepared at. Prints as `(type name, size)`.
#[derive(Clone, Copy, PartialEq, Eq)]
struct DerivedKey {
    id: TypeId,
    name: &'static str,
    n: usize,
}

impl std::fmt::Debug for DerivedKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {})", self.name, self.n)
    }
}

type DerivedValue = Arc<dyn Any + Send + Sync>;
type Entries = Vec<(DerivedKey, DerivedValue)>;

/// The bank's derived values. Lazily allocated, so building a bank
/// allocates nothing extra; cloning an allocated cache shares it.
#[derive(Clone, Default)]
struct DerivedCache {
    entries: OnceLock<Arc<Mutex<Entries>>>,
}

impl DerivedCache {
    fn entries(&self) -> MutexGuard<'_, Entries> {
        // A value is inserted whole, so a poisoned lock still guards a
        // consistent list.
        self.entries
            .get_or_init(Arc::default)
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// Prints the cached keys only: a value is megabytes of derived data.
impl std::fmt::Debug for DerivedCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut list = f.debug_list();
        if let Some(entries) = self.entries.get() {
            let entries = entries.lock().unwrap_or_else(PoisonError::into_inner);
            list.entries(entries.iter().map(|(k, _)| k));
        }
        list.finish()
    }
}

impl HrirBank {
    /// Builds a bank from `(angle, HRIR)` pairs; sorts by angle.
    ///
    /// # Panics
    /// Panics if empty, lengths differ, angles repeat, or any angle is NaN.
    pub fn new(mut pairs: Vec<(f64, BinauralIr)>, sample_rate: f64) -> Self {
        assert!(!pairs.is_empty(), "HrirBank needs at least one entry");
        assert!(
            pairs.iter().all(|(angle, _)| !angle.is_nan()),
            "NaN angle in HrirBank"
        );
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
        for w in pairs.windows(2) {
            assert!(
                w[1].0 - w[0].0 > 1e-9,
                "duplicate angle {} in HrirBank",
                w[0].0
            );
        }
        let len = pairs[0].1.len();
        assert!(
            pairs.iter().all(|(_, ir)| ir.len() == len),
            "all HRIRs in a bank must share a length"
        );
        let (angles_deg, irs) = pairs.into_iter().unzip();
        HrirBank {
            angles_deg,
            irs,
            sample_rate,
            derived: DerivedCache::default(),
        }
    }

    /// Measured angles, ascending.
    pub fn angles(&self) -> &[f64] {
        &self.angles_deg
    }

    /// The stored HRIRs, index-aligned with [`HrirBank::angles`].
    pub fn irs(&self) -> &[BinauralIr] {
        &self.irs
    }

    /// Sample rate of the impulse responses.
    pub fn sample_rate(&self) -> f64 {
        self.sample_rate
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.irs.len()
    }

    /// Whether the bank is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.irs.is_empty()
    }

    /// The HRIR measured at the angle nearest to `theta_deg` (wrapping).
    pub fn nearest(&self, theta_deg: f64) -> (&BinauralIr, f64) {
        let idx = self.nearest_index(theta_deg);
        (&self.irs[idx], self.angles_deg[idx])
    }

    /// Index of the entry measured at the angle nearest to `theta_deg`
    /// (wrapping; the first of equally near entries).
    pub fn nearest_index(&self, theta_deg: f64) -> usize {
        let t = theta_deg.rem_euclid(360.0);
        let (idx, _) = self
            .angles_deg
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                let da = angle_diff_deg(**a, t);
                let db = angle_diff_deg(**b, t);
                da.total_cmp(&db)
            })
            // uniq-analyzer: allow(panic-safety) — the constructor asserts the bank is non-empty
            .expect("non-empty bank");
        idx
    }

    /// The bank's value of type `T` at transform size `n` (0 for a value
    /// that has none): built by `build` on first use and cached for the
    /// life of the bank, one value per (type, size).
    ///
    /// `build` must depend on the bank and `n` alone, so that whichever
    /// caller builds the value first, every caller gets an equal one. It
    /// runs without the cache lock held (it may run on a pool whose workers
    /// read this cache); racing callers may both build, and the first
    /// insert wins.
    pub fn derived<T: Any + Send + Sync>(
        &self,
        n: usize,
        build: impl FnOnce(&HrirBank) -> T,
    ) -> Arc<T> {
        let key = DerivedKey {
            id: TypeId::of::<T>(),
            name: std::any::type_name::<T>(),
            n,
        };
        let find = |entries: &Entries| {
            entries
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.clone())
        };
        let cached = find(&self.derived.entries());
        let value = cached.unwrap_or_else(|| {
            let value: DerivedValue = Arc::new(build(self));
            let mut entries = self.derived.entries();
            // A racing caller that inserted first wins.
            find(&entries).unwrap_or_else(|| {
                entries.push((key, value.clone()));
                value
            })
        });
        let value = value.downcast();
        // uniq-analyzer: allow(panic-safety) — values are cached under their own TypeId
        value.expect("derived value cached under its type")
    }

    /// Index of the entry at exactly `theta_deg` (±1e−6°), if present.
    pub fn index_of(&self, theta_deg: f64) -> Option<usize> {
        self.angles_deg
            .iter()
            .position(|a| (a - theta_deg).abs() < 1e-6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ir(v: f64, len: usize) -> BinauralIr {
        BinauralIr::new(vec![v; len], vec![v; len])
    }

    #[test]
    fn config_defaults_validate() {
        RenderConfig::default().validate();
    }

    #[test]
    fn metres_to_samples_includes_base_delay() {
        let cfg = RenderConfig {
            sample_rate: 48000.0,
            base_delay: 0.001,
            ..Default::default()
        };
        let s = cfg.metres_to_samples(0.343);
        // 1 ms path + 1 ms base = 96 samples.
        assert!((s - 96.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_binaural_panics() {
        BinauralIr::new(vec![0.0; 4], vec![0.0; 5]);
    }

    #[test]
    fn similarity_self_is_one() {
        let mut b = BinauralIr::zeros(64);
        b.left[10] = 1.0;
        b.right[12] = 0.5;
        let (l, r) = b.similarity(&b);
        assert!((l - 1.0).abs() < 1e-9);
        assert!((r - 1.0).abs() < 1e-9);
    }

    #[test]
    fn bank_sorts_by_angle() {
        let bank = HrirBank::new(
            vec![(90.0, ir(1.0, 8)), (0.0, ir(2.0, 8)), (45.0, ir(3.0, 8))],
            48000.0,
        );
        assert_eq!(bank.angles(), &[0.0, 45.0, 90.0]);
        assert_eq!(bank.irs()[0].left[0], 2.0);
    }

    #[test]
    fn bank_nearest_wraps() {
        let bank = HrirBank::new(vec![(10.0, ir(1.0, 8)), (350.0, ir(2.0, 8))], 48000.0);
        let (got, ang) = bank.nearest(356.0);
        assert_eq!(ang, 350.0);
        assert_eq!(got.left[0], 2.0);
        let (_, ang) = bank.nearest(2.0);
        assert_eq!(ang, 10.0); // 2° is 8° from 10° but 12° from 350°
    }

    #[test]
    fn bank_index_of() {
        let bank = HrirBank::new(vec![(0.0, ir(1.0, 8)), (10.0, ir(1.0, 8))], 48e3);
        assert_eq!(bank.index_of(10.0), Some(1));
        assert_eq!(bank.index_of(5.0), None);
    }

    #[test]
    fn derived_values_are_cached_per_type_and_size_and_shared_by_later_clones() {
        let bank = HrirBank::new(vec![(0.0, ir(1.0, 8)), (10.0, ir(0.5, 8))], 48e3);
        assert!(format!("{bank:?}").contains("derived: []"));
        let first = bank.derived(16, |b| b.irs()[1].left[0]);
        let wider = bank.derived(32, |b| 2.0 * b.irs()[1].left[0]);
        let clone = bank.clone();
        let again = clone.derived(16, |_| -> f64 { unreachable!("cached") });
        assert!(Arc::ptr_eq(&first, &again));
        assert!(Arc::ptr_eq(
            &wider,
            &clone.derived(32, |_| -> f64 { unreachable!("cached") })
        ));
        assert_eq!((*first, *wider), (0.5, 1.0));
        let len = clone.derived(16, |b| b.len());
        assert_eq!(*bank.derived(16, |_| 0usize), 2);
        assert_eq!(*len, 2);
        // Debug output names the cached keys, not the values.
        let shown = format!("{bank:?}");
        assert!(
            shown.contains("derived: [(f64, 16), (f64, 32), (usize, 16)]"),
            "{shown}"
        );
    }

    #[test]
    #[should_panic(expected = "duplicate angle")]
    fn bank_rejects_duplicates() {
        HrirBank::new(vec![(0.0, ir(1.0, 8)), (0.0, ir(1.0, 8))], 48e3);
    }

    #[test]
    #[should_panic(expected = "share a length")]
    fn bank_rejects_ragged() {
        HrirBank::new(vec![(0.0, ir(1.0, 8)), (1.0, ir(1.0, 9))], 48e3);
    }
}
